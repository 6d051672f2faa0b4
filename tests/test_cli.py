import argparse
import ast
import json
import pathlib
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

import meshes
from morse_topo.mesh import format_hmesh
from morse_topo.symplectic import evaluate, format_matrix, gen, parse_word


def run_cli(*args, cwd=None, flags=()):
    return subprocess.run(
        [sys.executable, *flags, "-m", "morse_topo.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
    )


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.hmesh"
    path.write_text(format_hmesh(meshes.tetrahedron()))
    return str(path)


def test_reeb_emits_dot_and_ktype(sphere_file):
    r = run_cli("reeb", sphere_file)
    assert r.returncode == 0
    assert r.stdout.startswith("digraph kr {")
    assert (
        '#KTYPE {"target":"Line","q":[],"c0":1,"c1":0,"c2":1,"eps":{}}'
        in r.stdout
    )


def test_reeb_output_is_deterministic(sphere_file):
    assert run_cli("reeb", sphere_file).stdout == run_cli("reeb", sphere_file).stdout


def test_reeb_missing_file_is_io_error():
    r = run_cli("reeb", "does-not-exist.hmesh")
    assert r.returncode == 1
    assert r.stdout == ""
    err = json.loads(r.stderr)
    assert err["error"].startswith("io:")


def test_reeb_malformed_file(tmp_path):
    path = tmp_path / "bad.hmesh"
    path.write_text("not a mesh\n")
    r = run_cli("reeb", str(path))
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"].startswith("format:")
    assert r.stdout == ""  # no partial DOT


def test_reeb_domain_error_emits_no_dot(tmp_path):
    mesh = meshes.octahedron()
    from fractions import Fraction as F
    from morse_topo.mesh import HeightMesh

    twin_minima = HeightMesh(
        True, (F(1), F(2), F(3), F(4), F(-1), F(-1)), mesh.triangles
    )
    path = tmp_path / "twin.hmesh"
    path.write_text(format_hmesh(twin_minima))
    r = run_cli("reeb", str(path))
    assert r.returncode == 1 and r.stdout == ""
    assert json.loads(r.stderr)["error"].startswith("domain:")


def _pinched_text():
    heights, triangles = meshes.PINCHED_TETRAHEDRA
    lines = ["HMESH orientable"] + [f"v {i} {h}" for i, h in enumerate(heights)]
    return "\n".join(lines + ["t %d %d %d" % t for t in triangles]) + "\n"


@pytest.mark.parametrize(
    "text, message",
    [
        (
            format_hmesh(meshes.tetrahedron()) + "b rim 0 1 99\n",
            "domain: boundary vertex 99 out of range",
        ),
        (_pinched_text(), "domain: vertex 0: link is not connected"),
    ],
    ids=["boundary-vertex-out-of-range", "pinched-vertex"],
)
def test_reeb_rejects_invalid_mesh(tmp_path, text, message):
    path = tmp_path / "bad.hmesh"
    path.write_text(text)
    r = run_cli("reeb", str(path))
    assert r.returncode == 1 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert json.loads(r.stderr)["error"] == message


def test_classify_verdicts(tmp_path):
    a = tmp_path / "a.ktype"
    b = tmp_path / "b.ktype"
    a.write_text('{"target":"Line","q":[],"c0":1,"c1":0,"c2":1,"eps":{}}')
    b.write_text('{"target":"Line","q":[],"c0":2,"c1":1,"c2":1,"eps":{}}')
    r = run_cli("classify", str(a), str(a))
    assert r.stdout.strip() == '{"equivalent":true,"reason":"ok"}'
    r = run_cli("classify", str(a), str(b))
    assert r.stdout.strip() == '{"equivalent":false,"reason":"c0"}'


def test_classify_up_to_flip(tmp_path):
    a = tmp_path / "a.ktype"
    b = tmp_path / "b.ktype"
    a.write_text('{"target":"Circle","q":[1,0],"c0":0,"c1":2,"c2":0,"eps":{}}')
    b.write_text('{"target":"Circle","q":[-1,0],"c0":0,"c1":2,"c2":0,"eps":{}}')
    r = run_cli("classify", str(a), str(b))
    assert json.loads(r.stdout)["equivalent"] is False
    r = run_cli("classify", "--up-to-flip", str(a), str(b))
    assert json.loads(r.stdout)["equivalent"] is True


@pytest.mark.parametrize("field, value", [("eps", []), ("eps", 3), ("q", {})])
def test_classify_rejects_malformed_ktype_shapes(tmp_path, field, value):
    good = {"target": "Line", "q": [], "c0": 1, "c1": 0, "c2": 1, "eps": {}}
    a = tmp_path / "a.ktype"
    b = tmp_path / "b.ktype"
    a.write_text(json.dumps(good))
    b.write_text(json.dumps(dict(good, **{field: value})))
    r = run_cli("classify", str(a), str(b))
    assert r.returncode == 1 and r.stdout == ""
    assert len(r.stderr.splitlines()) == 1
    assert json.loads(r.stderr)["error"].startswith(f'format: invalid critical-type JSON: "{field}"')


def test_canonical_line_and_circle():
    r = run_cli("canonical", "--genus", "1", "--c0", "1", "--c2", "1")
    assert r.returncode == 0
    assert '#KTYPE {"target":"Line","q":[0,0],"c0":1,"c1":2,"c2":1,"eps":{}}' in r.stdout
    r = run_cli(
        "canonical",
        "--genus",
        "1",
        "--target",
        "circle",
        "--q",
        "1,0",
        "--c0",
        "0",
        "--c2",
        "0",
    )
    assert 'lift="0:1"' in r.stdout
    r = run_cli("canonical", "--genus", "0", "--c0", "0", "--c2", "1")
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"].startswith("domain:")


def test_canonical_boundary_signs():
    r = run_cli(
        "canonical", "--genus", "0", "--boundary", "V1:+,V2:-", "--c0", "0", "--c2", "0"
    )
    assert r.returncode == 0
    assert '"eps":{"V1":1,"V2":-1}' in r.stdout


def test_sp_decompose_round_trip(tmp_path):
    h = evaluate((gen("Ta", 1, None, 2), gen("Mu", 1, 2, -1), gen("Tb", 2, None, 3)), 2)
    path = tmp_path / "h.mat"
    path.write_text(format_matrix(h))
    r = run_cli("sp-decompose", "--g", "2", str(path))
    assert r.returncode == 0
    assert evaluate(parse_word(r.stdout.strip()), 2) == h
    r = run_cli("sp-decompose", "--g", "3", str(path))
    assert r.returncode == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sp-decompose"],
        ["factor", "--q", "0,0,1,0", "--matrix"],
        ["factor", "--q", "1,1,0,0", "--matrix"],
    ],
)
def test_oversized_word_is_domain_error(tmp_path, monkeypatch, capsys, argv):
    # an exponent with over 4300 decimal digits cannot be converted to text
    from morse_topo import cli, mcg, symplectic

    huge = (gen("Ta", 2, None, 10**5000),)
    monkeypatch.setattr(symplectic, "stabilizer_decompose", lambda h: huge)
    monkeypatch.setattr(mcg, "stabilizer_decompose", lambda h: huge)
    path = tmp_path / "h.mat"
    path.write_text(format_matrix(symplectic.SpMatrix.identity(2)))
    assert cli.main([*argv, str(path)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith("domain: exponent of Ta2 ")


def test_admissible_verdicts():
    r = run_cli("admissible", "--q", "0,1", "--gamma", "0,1")
    assert r.stdout.strip() == '{"admissible":false,"degree":1}'
    r = run_cli("admissible", "--q", "0,1", "--gamma", "1,0")
    assert r.stdout.strip() == '{"admissible":true,"degree":0}'


def test_factor_conjugates_when_needed(tmp_path):
    from morse_topo.symplectic import SpMatrix, transvection

    L = (0, 0, -1, -1)  # level-set class of q = (1, 1, 0, 0)
    h = transvection(L)
    path = tmp_path / "h.mat"
    path.write_text(format_matrix(h))
    r = run_cli("factor", "--q", "1,1,0,0", "--matrix", str(path))
    assert r.returncode == 0
    envelope = json.loads(r.stdout.splitlines()[0])
    word = parse_word(r.stdout.splitlines()[1])
    change = SpMatrix(envelope["basis_change"])
    assert change * evaluate(word, 2) * change.inverse() == h
    assert envelope["torelli_residual"] == "identity"


def test_factor_direct_when_class_is_first_basis_vector(tmp_path):
    from morse_topo.symplectic import transvection

    h = transvection((1, 0, 0, 0))
    path = tmp_path / "h.mat"
    path.write_text(format_matrix(h))
    r = run_cli("factor", "--q", "0,0,1,0", "--matrix", str(path))
    envelope = json.loads(r.stdout.splitlines()[0])
    assert envelope["basis_change"] is None
    assert r.stdout.splitlines()[1] == "Ta1"


def test_generators_listing():
    r = run_cli("generators", "--genus", "2", "--boundary", "V1:+,V2:-")
    lines = [json.loads(l) for l in r.stdout.splitlines()]
    names = [l["name"] for l in lines]
    assert "O" in names and "t_alpha_1" in names and "t_sigma_1,2" in names
    r = run_cli("generators", "--genus", "2", "--nonorientable")
    names = [json.loads(l)["name"] for l in r.stdout.splitlines()]
    assert names == ["y", "t_beta_0"]


_sparse_ints = st.one_of(
    st.just(0), st.integers(-2, 2), st.integers(), st.sampled_from((2**64, -(2**70)))
)


@given(st.lists(_sparse_ints, max_size=80) | st.lists(st.integers(), max_size=20))
@example([])
@example([0] * 9)
@example(list(range(-5, 6)))
@example([0, 0, -3, 0, 2**65, 0])
@example([0, -(2**64) - 1])
def test_int_vector_json_matches_the_encoder(v):
    from morse_topo import cli

    assert cli._int_vector_json(tuple(v)) == cli._json_line(v)


def _generators_oracle(genus, orientable, target, eps):
    """Exit code, stdout and stderr of `generators`, each line built as a
    dict and encoded whole."""
    from morse_topo import cli, mcg
    from morse_topo.surface import Surface, Target

    try:
        s = Surface(orientable, genus, tuple(eps))
        gens = mcg.canonical_generator_set(s, eps, Target(target))
    except ValueError as exc:
        return 1, "", cli._json_line({"error": f"domain: {exc}"}) + "\n"
    lines = [
        cli._json_line(
            {
                "kind": g.kind.value,
                "name": g.name,
                "curve": g.curve,
                "curve_class": list(g.curve_class) if g.curve_class else None,
                "admissible": g.admissible.value,
            }
        )
        + "\n"
        for g in gens
    ]
    return 0, "".join(lines), ""


def test_generators_output_matches_whole_line_encoding(capsys):
    """`generators` writes each catalogue line with the bytes of encoding it
    whole, up to genus 400 and 40 boundary circles."""
    mixed = {f"B{i}": 1 if i % 3 else -1 for i in range(40)}
    boundaries = [{}, {"V": 1}, {"V": -1}, {"V1": 1, "V2": -1, "V3": -1}, mixed]
    runs = 0
    for genus in (0, 1, 2, 3, 4, 50, 400):
        for orientable in (True, False):
            for target in ("Line", "Circle"):
                for eps in boundaries if genus < 400 else (boundaries[0], mixed):
                    argv = ["generators", "--genus", str(genus), "--target", target.lower()]
                    boundary = ",".join(f"{l}:{'+' if e > 0 else '-'}" for l, e in eps.items())
                    argv += ["--boundary", boundary]
                    if not orientable:
                        argv.append("--nonorientable")
                    expected = _generators_oracle(genus, orientable, target, eps)
                    assert _in_process(argv, capsys) == expected, argv
                    runs += expected[0] == 0
    assert runs > 80


def test_surface_descriptor_form():
    expanded = run_cli("generators", "--genus", "2", "--boundary", "V1:+,V2:-")
    compact = run_cli("generators", "--surface", "orientable:g=2:V1:+,V2:-")
    assert compact.returncode == 0
    assert compact.stdout == expanded.stdout
    r = run_cli("canonical", "--surface", "nonorientable:g=2", "--c0", "1", "--c2", "1")
    assert r.returncode == 0 and 'shape=star' in r.stdout
    r = run_cli("generators", "--surface", "sideways:g=2")
    assert r.returncode == 1
    assert json.loads(r.stderr)["error"].startswith("format:")
    r = run_cli("generators", "--surface", "orientable:g=1", "--genus", "1")
    assert r.returncode == 1


GOOD_KTYPE = '{"target":"Line","q":[],"c0":1,"c1":0,"c2":1,"eps":{}}'
IDENTITY = "SP 1\n1 0\n0 1\n"

# (argv, input files, expected stderr error); "{d}" is the input directory
ERROR_CONTRACT = {
    "reeb-io": (["reeb", "{d}/none.hmesh"], {},
                "io: cannot read {d}/none.hmesh: No such file or directory"),
    "reeb-height": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 1/0\n"},
                    "format: line 2: cannot parse 'v 0 1/0'"),
    "reeb-ids": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 0\nv 2 1\n"},
                 "format: vertex ids must be 0..n-1"),
    "reeb-header": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH sideways\nv 0 0\n"},
                    "format: header must be 'HMESH orientable|nonorientable'"),
    "reeb-utf8": (["reeb", "{d}/a.hmesh"], {"a.hmesh": b"HMESH orientable\nv 0 \xff\n"},
                  "format: 'utf-8' codec can't decode byte 0xff in position 21: "
                  "invalid start byte"),
    "reeb-orientability": (
        ["reeb", "{d}/a.hmesh"],
        {"a.hmesh": format_hmesh(meshes.tetrahedron()).replace("orientable", "nonorientable")},
        "domain: mesh declared non-orientable but triangle gluing disagrees",
    ),
    "reeb-empty": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 0\n"},
                   "domain: mesh needs vertices and triangles"),
    "reeb-duplicate-vertex": (
        ["reeb", "{d}/a.hmesh"],
        {"a.hmesh": format_hmesh(meshes.tetrahedron()).replace("t 0", "v 0 5/1\nt 0", 1)},
        "format: line 6: duplicate vertex id 0",
    ),
    "reeb-triangle-fields": (
        ["reeb", "{d}/a.hmesh"],
        {"a.hmesh": "HMESH orientable\nv 0 0\nv 1 1\nv 2 2\nv 3 3\nt 0 1 2 3\n"},
        "format: line 6: cannot parse 't 0 1 2 3'",
    ),
    "reeb-vertex-fields": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 5 junk\n"},
                           "format: line 2: cannot parse 'v 0 5 junk'"),
    "reeb-flat-disk": (
        ["reeb", "{d}/a.hmesh"],
        {"a.hmesh": "HMESH orientable\nv 0 0\nv 1 0\nv 2 0\nt 0 1 2\nb rim 0 1 2\n"},
        "domain: boundary cycle 'rim' has no interior neighbours, so the height is "
        "constant near it",
    ),
    "classify-io": (["classify", "{d}/a.ktype", "{d}/none.ktype"], {"a.ktype": GOOD_KTYPE},
                    "io: cannot read {d}/none.ktype: No such file or directory"),
    "classify-json": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": "{target"},
        "format: invalid critical-type JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)",
    ),
    "classify-target": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace("Line", "Plane")},
        "format: invalid critical-type JSON: 'Plane' is not a valid Target",
    ),
    "classify-deep-json": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": "[" * 100_000},
        "format: invalid critical-type JSON: maximum recursion depth exceeded "
        "while decoding a JSON array from a unicode string",
    ),
    "classify-infinity": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"c0":1', '"c0":Infinity')},
        "format: invalid critical-type JSON: cannot convert float infinity to integer",
    ),
    "classify-long-integer": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"c0":1', '"c0":1' + "0" * 5000)},
        "format: invalid critical-type JSON: Exceeds the limit (4300 digits) for integer "
        "string conversion: value has 5001 digits; use sys.set_int_max_str_digits() to "
        "increase the limit",
    ),
    "classify-ranks": (
        ["classify", "--up-to-flip", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"q":[]', '"q":[0,0]')},
        "domain: critical types have different homology ranks",
    ),
    "canonical-descriptor": (
        ["canonical", "--surface", "sideways:g=1", "--c0", "1", "--c2", "1"], {},
        "format: descriptor must start with orientable|nonorientable: 'sideways:g=1'",
    ),
    "canonical-genus": (
        ["canonical", "--surface", "orientable:g=x", "--c0", "1", "--c2", "1"], {},
        "format: bad genus in descriptor 'orientable:g=x'",
    ),
    "canonical-surface-and-genus": (
        ["canonical", "--surface", "orientable:g=1", "--genus", "1", "--c0", "1", "--c2", "1"],
        {}, "format: --surface replaces --genus/--nonorientable/--boundary",
    ),
    "canonical-q": (["canonical", "--genus", "1", "--q", "1,x", "--c0", "1", "--c2", "1"], {},
                    "format: bad integer vector '1,x'"),
    "canonical-duplicate-label": (
        ["canonical", "--surface", "orientable:g=0:V1:+,V1:-", "--c0", "0", "--c2", "0"], {},
        "domain: boundary labels must be distinct",
    ),
    "canonical-infeasible": (["canonical", "--genus", "0", "--c0", "0", "--c2", "1"], {},
                             "domain: requested extrema force a negative saddle count (-1)"),
    "sp-io": (["sp-decompose", "{d}/none.sp"], {},
              "io: cannot read {d}/none.sp: No such file or directory"),
    "sp-zero": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP 0\n"},
                "format: 'SP <g>' header needs g >= 1, got 0"),
    "sp-negative": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP -1\n"},
                    "format: 'SP <g>' header needs g >= 1, got -1"),
    "sp-width": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP 1\n1 0 0\n0 1\n"},
                 "format: matrix rows must have 2g entries"),
    "sp-g-mismatch": (["sp-decompose", "--g", "2", "{d}/a.sp"], {"a.sp": IDENTITY},
                      "domain: matrix file declares g=1, flag says g=2"),
    "sp-not-symplectic": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP 1\n2 0\n0 1\n"},
                          "domain: matrix is not symplectic"),
    "admissible-vector": (["admissible", "--q", "1,a", "--gamma", "0,1"], {},
                          "format: bad integer vector '1,a'"),
    "admissible-lengths": (["admissible", "--q", "0,1", "--gamma", "0,1,0,0"], {},
                           "domain: q and gamma must have the same length"),
    "factor-io": (["factor", "--q", "0,1", "--matrix", "{d}/none.sp"], {},
                  "io: cannot read {d}/none.sp: No such file or directory"),
    "factor-matrix": (["factor", "--q", "0,1", "--matrix", "{d}/a.sp"], {"a.sp": "SP 0\n"},
                      "format: 'SP <g>' header needs g >= 1, got 0"),
    "factor-q-length": (["factor", "--q", "0,0,1,0", "--matrix", "{d}/a.sp"], {"a.sp": IDENTITY},
                        "domain: q must have length 2g"),
    "factor-not-fixing": (["factor", "--q=0,1", "--matrix", "{d}/a.sp"], {"a.sp": "SP 1\n1 0\n-1 1\n"},
                          "domain: matrix does not fix the level-set class"),
    "factor-not-fixing-conjugated": (
        ["factor", "--q=1,0", "--matrix", "{d}/a.sp"], {"a.sp": "SP 1\n1 1\n0 1\n"},
        "domain: matrix does not fix the level-set class",
    ),
    "factor-not-primitive": (["factor", "--q=2,0,0,0", "--matrix", "{d}/a.sp"],
                             {"a.sp": "SP 2\n1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1\n"},
                             "domain: q must be primitive (gcd 1)"),
    "generators-descriptor": (["generators", "--surface", "orientable:2"], {},
                              "format: descriptor needs a g=<genus> part: 'orientable:2'"),
    "generators-boundary": (["generators", "--genus", "1", "--boundary", "V"], {},
                            "format: boundary item 'V' must be label:+ or label:-"),
    "generators-nonorientable-g0": (["generators", "--genus", "0", "--nonorientable"], {},
                                    "domain: a non-orientable surface has genus >= 1"),
}


@pytest.mark.parametrize("case", ERROR_CONTRACT.values(), ids=ERROR_CONTRACT.keys())
def test_cli_error_contract(tmp_path, capsys, case):
    from morse_topo import cli

    argv, files, message = case
    for name, content in files.items():
        path = tmp_path / name
        path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
    d = str(tmp_path)
    assert cli.main([arg.replace("{d}", d) for arg in argv]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == json.dumps({"error": message.replace("{d}", d)}, separators=(",", ":")) + "\n"


def test_unexpected_exception_is_internal_error():
    # a fresh interpreter, so that no logging configuration but the
    # package's own decides what reaches stderr
    code = (
        "import sys\n"
        "from morse_topo import cli\n"
        "def boom(args):\n"
        "    raise RuntimeError('boom')\n"
        "cli.cmd_admissible = boom\n"
        "sys.exit(cli.main(['admissible', '--q', '0,1', '--gamma', '1,0']))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr == '{"error":"internal: RuntimeError: boom"}\n'


def test_internal_error_is_logged(monkeypatch, capsys, caplog):
    from morse_topo import cli

    def boom(args):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "cmd_generators", boom)
    assert cli.main(["generators", "--genus", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": "internal: KeyError: 'lost'"}
    (record,) = [r for r in caplog.records if r.name == "morse_topo"]
    assert record.exc_info[0] is KeyError


def _in_process(argv, capsys):
    from morse_topo import cli

    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_repeated_calls_behave_like_fresh_processes(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage text wraps at the terminal width
    a = tmp_path / "a.ktype"
    b = tmp_path / "b.ktype"
    a.write_text('{"target":"Circle","q":[1,0],"c0":0,"c1":2,"c2":0,"eps":{}}')
    b.write_text('{"target":"Circle","q":[-1,0],"c0":0,"c1":2,"c2":0,"eps":{}}')
    circle = ["canonical", "--genus", "1", "--target", "circle", "--c0", "0", "--c2", "0"]
    torus = ["canonical", "--genus", "1", "--c0", "1", "--c2", "1"]
    sequences = [
        [["canonical", "--genus", "1"], torus],
        [["generators", "--genus", "2", "--nonorientable"], ["generators", "--genus", "2"]],
        [circle + ["--q", "1,0"], circle],
        [["classify", "--up-to-flip", str(a), str(b)], ["classify", str(a), str(b)]],
        [ERROR_CONTRACT["canonical-q"][0], torus],
    ]
    for argvs in sequences:
        fresh = [run_cli(*argv) for argv in argvs]
        expected = [(r.returncode, r.stdout, r.stderr) for r in fresh]
        assert [_in_process(argv, capsys) for argv in argvs] == expected, argvs


def test_parser_is_built_once_per_process(monkeypatch, capsys):
    from morse_topo import cli

    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    cli.build_parser.cache_clear()
    calls = [
        ["admissible", "--q", "0,1", "--gamma", "1,0"],
        ["generators", "--genus", "1"],
        ["canonical", "--genus", "0", "--c0", "1", "--c2", "1"],
        ["canonical", "--genus", "1"],  # usage error
    ]
    counts = []
    for i in range(20):
        _in_process(calls[i % len(calls)], capsys)
        counts.append(len(built))
    assert counts[0] > 0
    assert counts == [counts[0]] * 20


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


def test_checks_survive_optimised_mode(tmp_path):
    mesh = tmp_path / "klein.hmesh"
    mesh.write_text(format_hmesh(meshes.klein_square()))
    word = (gen("Ta", 1, None, 2), gen("Mu", 1, 3, -1), gen("Nu", 2, 3, 1), gen("Tb", 3, None, 2))
    matrix = tmp_path / "h.mat"
    matrix.write_text(format_matrix(evaluate(word, 3)))
    for args in (("reeb", str(mesh)), ("sp-decompose", str(matrix))):
        plain = run_cli(*args)
        optimised = run_cli(*args, flags=("-O",))
        assert plain.returncode == optimised.returncode == 0, args
        assert plain.stdout == optimised.stdout, args
    # -O strips assert statements, so no result check may be one
    package = pathlib.Path(__import__("morse_topo").__file__).parent
    for path in package.glob("*.py"):
        tree = ast.parse(path.read_text())
        assert not any(isinstance(node, ast.Assert) for node in ast.walk(tree)), path
