import ast
import json
import pathlib
import subprocess
import sys

import pytest

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
