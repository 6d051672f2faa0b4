import argparse
import ast
import json
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, strategies as st

import meshes
from morse_topo import mcg
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


# a DOT vertex line; its boundary label, if any, is one quoted string
# whose quotes and backslashes are all escaped
DOT_VERTEX = re.compile(
    r'  v\d+ \[shape=\w+, kind="\w+", height="[^"\\]*"(?:, boundary=("(?:[^"\\]|\\.)*"))?\];'
)
ODD_LABELS = ('a"b', "c\\d", "e\\", "f g", "h\x01", "höhe")


def _dot_labels(dot):
    """The boundary labels of a DOT text's vertex lines, decoded."""
    lines = [l for l in dot.splitlines() if l.startswith("  v") and " -> " not in l]
    matches = [DOT_VERTEX.fullmatch(l) for l in lines]
    assert all(matches), lines
    return [json.loads(m[1]) for m in matches if m[1] is not None]


def test_dot_boundary_labels_are_quoted(tmp_path, capsys):
    # canonical: every label on one surface; non-ASCII is written as it is
    boundary = ",".join(f"{l}:{'+-'[i % 2]}" for i, l in enumerate(ODD_LABELS))
    code, out, _ = _in_process(["canonical", "--genus", "0", "--boundary", boundary, "--c0", "0", "--c2", "0"], capsys)
    assert code == 0
    assert sorted(_dot_labels(out)) == sorted(ODD_LABELS)
    assert 'boundary="höhe"' in out
    # reeb: HMESH labels hold no whitespace, so the cylinder takes them in pairs
    for bottom, top in (('a"b', "c\\d"), ("e\\", "h\x01"), ("höhe", "top")):
        path = tmp_path / "odd.hmesh"
        text = CYLINDER.replace("b bottom", f"b {bottom}").replace("b top", f"b {top}")
        path.write_text(text, encoding="utf-8")
        code, out, _ = _in_process(["reeb", str(path)], capsys)
        assert code == 0
        assert sorted(_dot_labels(out)) == sorted((bottom, top))


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

    entries = [(i, x) for i, x in enumerate(v) if x]
    assert cli._sparse_vector_json(len(v), entries) == cli._json_line(v)


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
    for genus in (0, 1, 2, 3, 4, 5, 40, 50, 400):
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
    assert runs > 100


@given(
    kind=st.sampled_from(list(mcg.GeneratorKind)),
    name=st.text(),
    admissible=st.sampled_from(list(mcg.Admissible)),
    curve=st.none() | st.text(),
)
@example(mcg.GeneratorKind.DEHN_TWIST, 'a"b\\c\u00e9\x01\u2028\U0001f600', mcg.Admissible.NO, "\\")
def test_generator_line_escapes_as_the_encoder(kind, name, admissible, curve):
    """Names and curves with quotes, backslashes, control and non-ASCII
    characters, which no catalogue holds, are escaped as ``_json_line`` does."""
    from morse_topo import cli

    g = mcg.MCGGenerator(kind, name, admissible, curve, None if curve is None else (3, ((1, -2),)))
    expected = {
        "kind": kind.value,
        "name": name,
        "curve": curve,
        "curve_class": g.curve_class and list(g.curve_class),
        "admissible": admissible.value,
    }
    assert list(cli._generator_lines([g])) == [cli._json_line(expected) + "\n"]


def test_generators_never_builds_a_dense_class(capsys, monkeypatch):
    """The CLI writes every catalogue class from its stored non-zero
    entries; the dense ``curve_class`` is for library callers."""
    from morse_topo import mcg

    mixed = {f"B{i}": 1 if i % 3 else -1 for i in range(40)}
    expected = _generators_oracle(400, True, "Line", mixed)

    def dense(self):
        raise AssertionError("the CLI built a dense curve class")

    monkeypatch.setattr(mcg.MCGGenerator, "curve_class", property(dense))
    boundary = ",".join(f"{l}:{'+' if e > 0 else '-'}" for l, e in mixed.items())
    argv = ["generators", "--genus", "400", "--boundary", boundary]
    assert _in_process(argv, capsys) == expected


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
CYLINDER = format_hmesh(meshes.cylinder())
# a hexagonal bipyramid; the cycle 1 5 3 joins equator vertices that share no edge
BIPYRAMID = (
    "HMESH orientable\nv 0 0\nv 7 3\n"
    + "".join(f"v {i} {1 + i % 2}\nt 0 {i % 6 + 1} {i}\nt 7 {i} {i % 6 + 1}\n" for i in range(1, 7))
    + "b ring 1 5 3\n"
)

# (argv, input files, expected stderr error); "{d}" is the input directory
ERROR_CONTRACT = {
    "reeb-io": (["reeb", "{d}/none.hmesh"], {},
                "io: cannot read {d}/none.hmesh: No such file or directory"),
    "reeb-height": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 1/0\n"},
                    "format: line 2: cannot parse 'v 0 1/0'"),
    "reeb-empty-denominator": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 5/\n"},
                               "format: line 2: cannot parse 'v 0 5/'"),
    "reeb-underscore-height": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 1_0\n"},
                               "format: line 2: cannot parse 'v 0 1_0'"),
    "reeb-non-ascii-height": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 \u0665\n".encode()},
                              "format: line 2: cannot parse 'v 0 \u0665'"),
    "reeb-non-ascii-index": (
        ["reeb", "{d}/a.hmesh"],
        {"a.hmesh": format_hmesh(meshes.tetrahedron()).replace("t 0 1 2", "t 0 1 \u0662").encode()},
        "format: line 6: cannot parse 't 0 1 \u0662'",
    ),
    "reeb-ids": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH orientable\nv 0 0\nv 2 1\n"},
                 "format: vertex ids must be 0..n-1"),
    "reeb-header": (["reeb", "{d}/a.hmesh"], {"a.hmesh": "HMESH sideways\nv 0 0\n"},
                    "format: header must be 'HMESH orientable|nonorientable'"),
    "reeb-second-header": (
        ["reeb", "{d}/a.hmesh"],
        {"a.hmesh": "HMESH nonorientable\n" + format_hmesh(meshes.tetrahedron())},
        "format: line 2: duplicate HMESH header",
    ),
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
    "reeb-lonely-vertex": (
        ["reeb", "{d}/a.hmesh"],
        {"a.hmesh": format_hmesh(meshes.tetrahedron()).replace("t 0", "v 4 9\nt 0", 1)},
        "domain: every vertex must lie on a triangle",
    ),
    "reeb-vertex-on-two-cycles": (["reeb", "{d}/a.hmesh"], {"a.hmesh": CYLINDER + "b rim 0 1 2\n"},
                                  "domain: vertex 0 lies on two boundary cycles"),
    "reeb-shared-label": (
        ["reeb", "{d}/a.hmesh"], {"a.hmesh": CYLINDER.replace("b top", "b bottom")},
        "domain: boundary labels must be distinct",
    ),
    "reeb-boundary-not-edge": (["reeb", "{d}/a.hmesh"], {"a.hmesh": BIPYRAMID},
                               "domain: boundary edge (3, 5) is not a mesh edge"),
    "classify-io": (["classify", "{d}/a.ktype", "{d}/none.ktype"], {"a.ktype": GOOD_KTYPE},
                    "io: cannot read {d}/none.ktype: No such file or directory"),
    "classify-json": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": "{target"},
        "format: invalid critical-type JSON: Expecting property name enclosed in double "
        "quotes: line 1 column 2 (char 1)",
    ),
    "classify-array-document": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"], {"a.ktype": GOOD_KTYPE, "b.ktype": "[]"},
        "format: invalid critical-type JSON: the document must be an object",
    ),
    "classify-number-document": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"], {"a.ktype": GOOD_KTYPE, "b.ktype": "3"},
        "format: invalid critical-type JSON: the document must be an object",
    ),
    "classify-string-document": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"], {"a.ktype": GOOD_KTYPE, "b.ktype": '"x"'},
        "format: invalid critical-type JSON: the document must be an object",
    ),
    "classify-null-document": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"], {"a.ktype": GOOD_KTYPE, "b.ktype": "null"},
        "format: invalid critical-type JSON: the document must be an object",
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
        "format: invalid critical-type JSON: critical point counts must be integers",
    ),
    "classify-float-count": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"c0":1', '"c0":1.5')},
        "format: invalid critical-type JSON: critical point counts must be integers",
    ),
    "classify-boolean-count": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"c1":0', '"c1":false')},
        "format: invalid critical-type JSON: critical point counts must be integers",
    ),
    "classify-string-q": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"q":[]', '"q":["1"]')},
        "format: invalid critical-type JSON: q entries must be integers",
    ),
    "classify-float-sign": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"eps":{}', '"eps":{"a":1.0}')},
        "format: invalid critical-type JSON: boundary signs must be integers",
    ),
    "classify-sign-two": (
        ["classify", "{d}/a.ktype", "{d}/b.ktype"],
        {"a.ktype": GOOD_KTYPE, "b.ktype": GOOD_KTYPE.replace('"eps":{}', '"eps":{"a":2}')},
        "format: invalid critical-type JSON: boundary sign for 'a' must be +1 or -1",
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
    "canonical-no-surface": (["canonical", "--c0", "1", "--c2", "1"], {},
                             "format: one of --surface or --genus is required"),
    "canonical-q": (["canonical", "--genus", "1", "--q", "1,x", "--c0", "1", "--c2", "1"], {},
                    "format: bad integer vector '1,x'"),
    "canonical-q-length": (
        ["canonical", "--genus", "1", "--target", "circle", "--q", "1,0,0", "--c0", "1", "--c2", "1"],
        {}, "domain: q must have length 2, got 3",
    ),
    "canonical-line-q": (["canonical", "--genus", "1", "--q", "1,0", "--c0", "1", "--c2", "1"], {},
                         "domain: q must be the zero vector for a Line target"),
    "canonical-duplicate-label": (
        ["canonical", "--surface", "orientable:g=0:V1:+,V1:-", "--c0", "0", "--c2", "0"], {},
        "domain: boundary labels must be distinct",
    ),
    "canonical-infeasible": (["canonical", "--genus", "0", "--c0", "0", "--c2", "1"], {},
                             "domain: requested extrema force a negative saddle count (-1)"),
    "sp-io": (["sp-decompose", "{d}/none.sp"], {},
              "io: cannot read {d}/none.sp: No such file or directory"),
    "sp-header": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SPQR 1\n1 0\n0 1\n"},
                  "format: matrix text must start with an 'SP <g>' header"),
    "sp-header-extra": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP 1 junk\n1 0\n0 1\n"},
                        "format: bad 'SP <g>' header"),
    "sp-zero": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP 0\n"},
                "format: 'SP <g>' header needs g >= 1, got 0"),
    "sp-negative": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP -1\n"},
                    "format: 'SP <g>' header needs g >= 1, got -1"),
    "sp-underscore-header": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP 1_0\n"},
                             "format: bad 'SP <g>' header"),
    "sp-non-ascii-entry": (["sp-decompose", "{d}/a.sp"], {"a.sp": "SP 1\n1 1_0\n0 \u0661\n".encode()},
                           "format: matrix entries must be integers"),
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
    "factor-q-digits": (["factor", "--q=1_0,\u0662", "--matrix", "{d}/a.sp"], {"a.sp": IDENTITY},
                        "format: bad integer vector '1_0,\u0662'"),
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
    "generators-huge-genus": (["generators", "--genus", str(10**10)], {},
                              f"domain: genus {10**10} is too large to list its generators"),
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


def test_internal_errors_leave_one_null_handler():
    # the package imports ``logging`` only on the internal-error path, and
    # gives its logger one ``NullHandler`` there, however often it is taken
    code = (
        "import sys\n"
        "from morse_topo import cli\n"
        "def boom(args):\n"
        "    raise RuntimeError('boom')\n"
        "cli.cmd_admissible = boom\n"
        "argv = ['admissible', '--q', '0,1', '--gamma', '1,0']\n"
        "codes = [cli.main(argv) for _ in range(2)]\n"
        "handlers = sys.modules['logging'].getLogger('morse_topo').handlers\n"
        "print(codes, [type(h).__name__ for h in handlers])\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0
    assert r.stdout == "[3, 3] ['NullHandler']\n"
    assert r.stderr == '{"error":"internal: RuntimeError: boom"}\n' * 2


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


def _assert_internal_error(argv, message, capsys):
    from morse_topo import cli

    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err) == {"error": f"internal: AssertionError: {message}"}


# the input below was accepted, so a result that fails the package's own
# check is a fault of the package: exit 3, not a domain error


def test_sweep_that_loses_an_arc_is_internal_error(tmp_path, monkeypatch, capsys):
    from morse_topo import mesh

    sweep = mesh._sweep

    def lose_last_arc(m):
        vertices, arcs = sweep(m)
        return vertices, arcs[:-1]

    monkeypatch.setattr(mesh, "_sweep", lose_last_arc)
    path = tmp_path / "torus.hmesh"
    path.write_text(format_hmesh(meshes.corpus()["torus"]))
    _assert_internal_error(
        ["reeb", str(path)],
        "sweep produced an inconsistent graph: vertex 2 (Saddle3) has degree 2, expected 3",
        capsys,
    )


def test_normal_form_that_loses_an_edge_is_internal_error(monkeypatch, capsys):
    from morse_topo import canonical

    line_canonical = canonical._line_canonical

    def drop_last_edge(*args):
        b = line_canonical(*args)
        b.ends.pop()
        return b

    monkeypatch.setattr(canonical, "_line_canonical", drop_last_edge)
    _assert_internal_error(
        ["canonical", "--genus", "1", "--c0", "1", "--c2", "1"],
        "normal form is an inconsistent graph: vertex 2 (Saddle3) has degree 2, expected 3",
        capsys,
    )


def test_uncleared_first_pair_is_internal_error(tmp_path, monkeypatch, capsys):
    from morse_topo.symplectic import _Eliminator

    monkeypatch.setattr(_Eliminator, "fix_first_beta", lambda self: None)
    path = tmp_path / "h.sp"
    path.write_text(format_matrix(evaluate((gen("Ta", 1), gen("Mu", 1, 2)), 2)))
    _assert_internal_error(
        ["sp-decompose", str(path)], "residual matrix is not block-diagonal", capsys
    )


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


# the package modules start-up loads
START_UP_MODULES = {"morse_topo", "morse_topo.cli", "morse_topo.surface"}


def _package_modules(loaded):
    return {m for m in loaded if m == "morse_topo" or m.startswith("morse_topo.")}


def test_start_up_loads_no_dataclasses_or_logging():
    # the modules every CLI call would pay for at start-up without using
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import morse_topo.cli\n"
        "morse_topo.cli.build_parser()\n"
        "print(sorted(set(sys.modules) - before))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    loaded = set(ast.literal_eval(r.stdout))
    assert _package_modules(loaded) == START_UP_MODULES
    assert loaded & {"dataclasses", "fractions", "inspect", "logging", "traceback"} == set()


# per subcommand: a small valid call, with the input files it reads, and
# the package modules it loads beyond start-up's
SUBCOMMAND_MODULES = {
    "reeb": (["reeb", "{d}/sphere.hmesh"], {"mesh", "krgraph"}),
    "classify": (["classify", "{d}/a.ktype", "{d}/a.ktype"], {"classify"}),
    "canonical": (["canonical", "--genus", "1", "--c0", "1", "--c2", "1"], {"canonical", "krgraph"}),
    "sp-decompose": (["sp-decompose", "{d}/h.sp"], {"symplectic"}),
    "admissible": (["admissible", "--q", "0,1", "--gamma", "1,0"], {"mcg", "symplectic"}),
    "factor": (["factor", "--q", "0,1", "--matrix", "{d}/h.sp"], {"mcg", "symplectic"}),
    "generators": (["generators", "--genus", "2"], {"mcg", "symplectic"}),
}


@pytest.mark.parametrize("command", SUBCOMMAND_MODULES)
def test_subcommand_loads_only_its_modules(command, tmp_path):
    (tmp_path / "sphere.hmesh").write_text(format_hmesh(meshes.tetrahedron()))
    (tmp_path / "a.ktype").write_text('{"target":"Line","q":[],"c0":1,"c1":0,"c2":1,"eps":{}}')
    (tmp_path / "h.sp").write_text(format_matrix(evaluate((gen("Ta", 1),), 1)))
    argv, modules = SUBCOMMAND_MODULES[command]
    argv = [arg.replace("{d}", str(tmp_path)) for arg in argv]
    code = (
        "import sys\n"
        "from morse_topo import cli\n"
        f"status = cli.main({argv!r})\n"
        "print(status, sorted(sys.modules), file=sys.stderr)\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    status, _, loaded = r.stderr.partition(" ")
    assert status == "0", r.stderr
    assert _package_modules(ast.literal_eval(loaded)) == START_UP_MODULES | {
        f"morse_topo.{m}" for m in modules
    }


def test_unknown_subcommand_is_usage_error():
    assert run_cli("frobnicate").returncode == 2


# each integer flag, with the other arguments its subcommand needs
INTEGER_FLAGS = {
    "--genus": ["generators", "--genus", "{}"],
    "--c0": ["canonical", "--genus", "1", "--c0", "{}", "--c2", "1"],
    "--c2": ["canonical", "--genus", "1", "--c0", "1", "--c2", "{}"],
    "--g": ["sp-decompose", "--g", "{}", "missing.sp"],
}


@pytest.mark.parametrize("flag", INTEGER_FLAGS)
@pytest.mark.parametrize("value", ["1_0", "١", "1.0", ""])
def test_integer_flags_take_only_ascii_decimals(flag, value, capsys):
    argv = [arg.replace("{}", value) for arg in INTEGER_FLAGS[flag]]
    code, out, err = _in_process(argv, capsys)
    assert (code, out) == (2, "")
    assert err.endswith(f"error: argument {flag}: invalid integer value: {value!r}\n")
    # a sign and ASCII digits still read as before
    code, out, _ = _in_process([arg.replace("{}", "+1") for arg in INTEGER_FLAGS[flag]], capsys)
    assert code != 2


def test_closed_stdout_ends_quietly():
    # the catalogue at genus 300 is about 1.2 MB, far more than a pipe
    # holds, so the writer is still writing when the reader goes away
    proc = subprocess.Popen(
        [sys.executable, "-m", "morse_topo.cli", "generators", "--genus", "300"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert proc.stdout.read(10) == b'{"kind":"o'
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(), err) == (1, b"")


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
