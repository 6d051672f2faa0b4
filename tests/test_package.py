"""Checks over the whole package: how library inputs become integers,
which statements the source may use, and that every definition is used."""
import ast
import importlib
import pathlib
import subprocess
import sys
from fractions import Fraction

import pytest

import morse_topo
from morse_topo.canonical import canonical_kr_graph
from morse_topo.krgraph import critical_type_of, cut_at_level
from morse_topo.mcg import (
    canonical_generator_set,
    degree_along,
    factor_stabilizer,
    level_set_class,
    twist_action,
    twist_admissible,
)
from morse_topo.mesh import HeightMesh
from morse_topo.surface import CriticalType, Surface, Target
from morse_topo.symplectic import GenPower, SpMatrix, evaluate, gen, omega_product

SOURCE = pathlib.Path(__file__).resolve().parents[1] / "src" / "morse_topo"
TESTS = pathlib.Path(__file__).resolve().parent

TETRA_HEIGHTS = (Fraction(0), Fraction(1), Fraction(2), Fraction(3))
TETRA_TRIANGLES = ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
TORUS = Surface(True, 1)

# each takes one value where the library needs an integer
INTAKE_SITES = {
    "surface-genus": lambda x: Surface(True, x),
    "ktype-q": lambda x: CriticalType(Target.LINE, (x,), 1, 0, 1),
    "ktype-c0": lambda x: CriticalType(Target.LINE, (), x, 0, 1),
    "ktype-c1": lambda x: CriticalType(Target.LINE, (), 1, x, 1),
    "ktype-c2": lambda x: CriticalType(Target.LINE, (), 1, 0, x),
    "ktype-sign": lambda x: CriticalType(Target.LINE, (), 1, 0, 1, {"a": x}),
    "generators-sign": lambda x: canonical_generator_set(
        Surface(True, 1, ("a",)), {"a": x}, Target.LINE
    ),
    "level-set-class": lambda x: level_set_class((x, 0), 1),
    "level-set-class-genus": lambda x: level_set_class((0, 1), x),
    "degree-q": lambda x: degree_along((x, 0), (1, 0)),
    "degree-gamma": lambda x: degree_along((0, 1), (x, 0)),
    "twist-action": lambda x: twist_action((x, 0)),
    "twist-admissible": lambda x: twist_admissible((0, 1), (x, 0)),
    "factor-stabilizer": lambda x: factor_stabilizer(SpMatrix.identity(1), (0, x)),
    "canonical-q": lambda x: canonical_kr_graph(TORUS, {}, 0, 0, (x, 1), Target.CIRCLE),
    "canonical-c0": lambda x: canonical_kr_graph(TORUS, {}, x, 1),
    "critical-type-of-q": lambda x: critical_type_of(
        canonical_kr_graph(TORUS, {}, 1, 1)[0], TORUS, (x, 0)
    ),
    "mesh-triangle": lambda x: HeightMesh(
        True, TETRA_HEIGHTS, TETRA_TRIANGLES[:3] + ((1, 2, x),)
    ),
    "mesh-boundary-cycle": lambda x: HeightMesh(
        True, TETRA_HEIGHTS, TETRA_TRIANGLES, (("rim", (0, x)),)
    ),
    "gen-i": lambda x: gen("Ta", x),
    "gen-j": lambda x: gen("Nu", 1, x),
    "gen-exp": lambda x: gen("Ta", 1, None, x),
    "evaluate-i": lambda x: evaluate((GenPower("Ta", x, None, 1),), 1),
    "evaluate-j": lambda x: evaluate((GenPower("Nu", 1, x, 1),), 2),
    "evaluate-exp": lambda x: evaluate((GenPower("Ta", 1, None, x),), 1),
    "sp-matrix": lambda x: SpMatrix([[x, 0], [0, 1]]),
    "sp-apply": lambda x: SpMatrix.identity(1).apply([0, x]),
    "omega-product": lambda x: omega_product([x, 0], [0, 1]),
}


def _records():
    """Per record type: (a record, an equal one built from other input, its
    repr text, a ``_replace`` its checks refuse, and the message)."""
    circle, _ = canonical_kr_graph(TORUS, {}, 0, 0, (1, 0), Target.CIRCLE)
    piece = cut_at_level(circle, Fraction(1, 1000))[0]
    return {
        "surface": (
            Surface(False, 2, ("a", "b")),
            Surface(orientable=False, genus=2, boundary=["a", "b"]),
            "Surface(orientable=False, genus=2, boundary=('a', 'b'))",
            {"genus": -1},
            "genus must be non-negative",
        ),
        "critical-type": (
            CriticalType(Target.CIRCLE, (1, 0), 0, 2, 0, {"b": -1, "a": 1}),
            CriticalType(Target.CIRCLE, [1, 0], 0, 2, 0, {"b": -1, "a": 1}),
            "CriticalType(target=<Target.CIRCLE: 'Circle'>, q=(1, 0), c0=0, c1=2, "
            "c2=0, eps={'b': -1, 'a': 1})",
            {"c1": -1},
            "critical point counts must be non-negative",
        ),
        "height-mesh": (
            HeightMesh(True, (0, Fraction(1, 2), 2, 3), TETRA_TRIANGLES),
            HeightMesh(True, [0, 0.5, 2, 3], list(map(list, TETRA_TRIANGLES))),
            "HeightMesh(orientable=True, heights=(0, Fraction(1, 2), 2, 3), "
            "triangles=((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)), boundary_cycles=())",
            {"triangles": TETRA_TRIANGLES[:3] + ((1, 1, 3),)},
            "degenerate triangle (1, 1, 3)",
        ),
        # a plain record: nothing to check or convert
        "cut-piece": (
            piece,
            type(piece)(*piece),
            f"CutPiece(graph={piece.graph!r}, piece_class=<PieceClass.Q01: 'Q01'>)",
            None,
            None,
        ),
    }


@pytest.mark.parametrize("name", _records())
def test_records_are_checked_immutable_tuples(name):
    record, twin, text, bad, message = _records()[name]
    # a tuple record: it unpacks and equals the plain tuple of its fields
    assert record == tuple(record) == twin
    assert type(twin) is type(record)
    assert repr(record) == repr(twin) == text
    for field in (record._fields[0], "extra"):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # equal records hash equal wherever their fields are hashable
    try:
        assert hash(twin) == hash(record)
    except TypeError:
        assert name == "critical-type"  # ``eps`` is a dict
    assert record._replace() == record
    if bad is not None:
        with pytest.raises(ValueError) as caught:
            record._replace(**bad)
        assert str(caught.value) == message


@pytest.mark.parametrize(
    "value", [1.5, Fraction(3, 2), "3", True], ids=["float", "fraction", "str", "bool"]
)
@pytest.mark.parametrize("site", INTAKE_SITES.values(), ids=INTAKE_SITES.keys())
def test_library_rejects_non_integers(site, value):
    with pytest.raises(ValueError, match="must be integers"):
        site(value)


def _modules():
    for path in sorted(SOURCE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _int_calls(node, owner):
    """Qualified name of the function around each ``int(...)`` call."""
    for child in ast.iter_child_nodes(node):
        name = owner
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{owner}.{child.name}"
        elif (
            isinstance(child, ast.Call)
            and isinstance(child.func, ast.Name)
            and child.func.id == "int"
        ):
            yield owner
        yield from _int_calls(child, name)


# the text parsers and their ASCII-decimal reader read integers from
# digits; every other integer comes through the checked intake, which
# never truncates
TEXT_PARSERS = {
    "mesh.parse_hmesh",
    "symplectic.parse_matrix",
    "symplectic.parse_word",
    "cli._parse_ints",
    "surface._decimal_int",
}


def test_only_text_parsers_call_int():
    callers = {owner for module, tree in _modules() for owner in _int_calls(tree, module)}
    assert callers - TEXT_PARSERS == set()


def test_no_assert_statements():
    # asserts vanish under ``python -O``; checks raise instead
    found = [
        f"{module}.py:{node.lineno}"
        for module, tree in _modules()
        for node in ast.walk(tree)
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _definitions(tree):
    """Names of the module-level functions, classes and assigned names."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))


def _imports(tree):
    """Names bound by the module-level imports, ``from __future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import) or (
            isinstance(node, ast.ImportFrom) and node.module != "__future__"
        ):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def _loaded(tree):
    return {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }


def _used(trees):
    """Names the trees load, read as an attribute or import."""
    used = set()
    for tree in trees:
        used |= _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def test_every_definition_is_used():
    # a name counts as used when the package loads it, reads it as an
    # attribute, imports it or exports it from its own module; ``cli.main``
    # finds ``cmd_*`` by name
    modules = list(_modules())
    used = _used(tree for _, tree in modules)
    dead = [
        f"{module}.{name}"
        for module, tree in modules
        for name in _definitions(tree)
        if name not in used
        and name not in morse_topo._EXPORTS.get(module, ())
        and not (name.startswith("__") and name.endswith("__"))
        and not (module == "cli" and name.startswith("cmd_"))
    ]
    # a module-level import is used when its own module loads the name
    dead += [
        f"{module}.{name} (import)"
        for module, tree in modules
        for name in _imports(tree)
        if name not in _loaded(tree)
    ]
    assert dead == []


def _members(tree):
    """(class, name) of each method and class attribute, dunders aside, of
    every class in the tree, nested ones too."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = [item.name]
            elif isinstance(item, (ast.Assign, ast.AnnAssign)):
                targets = item.targets if isinstance(item, ast.Assign) else [item.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if not (name.startswith("__") and name.endswith("__")):
                    yield node.name, name


def _test_trees():
    return [ast.parse(path.read_text(encoding="utf-8")) for path in sorted(TESTS.glob("*.py"))]


def test_every_class_member_is_used():
    # a method or class attribute of a package class counts as used when
    # the package or a test loads it or reads it as an attribute
    modules = list(_modules())
    used = _used([tree for _, tree in modules] + _test_trees())
    dead = [
        f"{module}.{cls}.{name}"
        for module, tree in modules
        for cls, name in _members(tree)
        if name not in used
    ]
    assert dead == []


def test_every_export_is_tested():
    # a name the package exports counts as tested when some test module
    # loads it, reads it as an attribute or imports it
    exports = set(morse_topo.__all__)
    assert len(exports) == 61
    assert sorted(exports - _used(_test_trees())) == []


# the package's exported names by defining module, in the order of ``__all__``
PUBLIC_API = {
    "surface": (
        "CriticalType",
        "FormatError",
        "Surface",
        "Target",
        "critical_type_from_json",
        "critical_type_to_json",
        "euler_characteristic",
        "flip_target_orientation",
        "validate_critical_type",
    ),
    "krgraph": (
        "KREdge",
        "KRGraph",
        "KRVertex",
        "PieceClass",
        "VertexKind",
        "critical_type_of",
        "cut_at_level",
        "kr_isomorphic",
        "regular_fiber_components",
        "to_dot",
    ),
    "mesh": (
        "HeightMesh",
        "MeshFormatError",
        "NotGenericError",
        "NotMorseError",
        "extract_kr_graph",
        "format_hmesh",
        "parse_hmesh",
        "surface_of",
    ),
    "classify": (
        "equivalence_reason",
        "equivalent_up_to_flip",
        "glued_type",
        "is_minimal",
        "is_realizable",
        "minimal_fiber_count",
        "sigma_homotopy_equivalent",
    ),
    "canonical": ("InfeasibleTypeError", "canonical_kr_graph"),
    "symplectic": (
        "GenPower",
        "SpMatrix",
        "evaluate",
        "format_matrix",
        "format_word",
        "gen",
        "general_sp_factor",
        "named_generator",
        "omega_matrix",
        "omega_product",
        "parse_matrix",
        "parse_word",
        "stabilizer_decompose",
        "symplectic_completion",
        "transvection",
        "word_inverse",
    ),
    "mcg": (
        "Admissible",
        "GeneratorKind",
        "MCGGenerator",
        "canonical_generator_set",
        "degree_along",
        "factor_stabilizer",
        "level_set_class",
        "twist_action",
        "twist_admissible",
    ),
}


def test_public_api_resolves_to_its_defining_modules():
    names = [name for group in PUBLIC_API.values() for name in group]
    assert len(names) == 61
    assert morse_topo.__all__ == names
    listed = set(dir(morse_topo))
    for module, group in PUBLIC_API.items():
        defining = importlib.import_module(f"morse_topo.{module}")
        assert getattr(morse_topo, module) is defining
        assert module in listed
        for name in group:
            obj = getattr(morse_topo, name)
            assert obj is getattr(defining, name), name
            assert obj.__module__ == defining.__name__, name
            assert name in listed, name
    with pytest.raises(AttributeError, match="module 'morse_topo' has no attribute 'nope'"):
        morse_topo.nope
    with pytest.raises(ImportError):
        from morse_topo import nope  # noqa: F401


def test_bare_import_loads_each_module_on_first_access():
    # a fresh interpreter, where no test has loaded a submodule yet
    code = (
        "import sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.startswith('morse_topo'))\n"
        "import morse_topo\n"
        "print(loaded())\n"
        "morse_topo.Surface\n"
        "print(loaded())\n"
        f"print([getattr(morse_topo, m).__name__ for m in {list(PUBLIC_API)!r}])\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert r.stdout.splitlines() == [
        "['morse_topo']",
        "['morse_topo', 'morse_topo.surface']",
        str([f"morse_topo.{m}" for m in PUBLIC_API]),
    ]
