import json

import pytest
from hypothesis import example, given, settings, strategies as st

from morse_topo.surface import (
    CriticalType,
    FormatError,
    Surface,
    Target,
    critical_type_from_json,
    critical_type_to_json,
    euler_characteristic,
    flip_target_orientation,
    validate_critical_type,
)


def test_euler_characteristic_examples():
    assert euler_characteristic(Surface(True, 0)) == 2
    assert euler_characteristic(Surface(True, 1)) == 0
    assert euler_characteristic(Surface(False, 2, ("V1",))) == -1


def test_surface_invariants():
    with pytest.raises(ValueError):
        Surface(False, 0)
    with pytest.raises(ValueError):
        Surface(True, -1)
    with pytest.raises(ValueError):
        Surface(True, 0, ("V1", "V1"))
    assert Surface(True, 3).homology_rank == 6
    assert Surface(False, 3).homology_rank == 2


@pytest.mark.parametrize("orientable", ["no", 1, 0, None], ids=repr)
def test_surface_orientable_must_be_a_bool(orientable):
    # a non-empty string once read as orientable, and 0 as non-orientable
    with pytest.raises(ValueError, match="orientable must be True or False"):
        Surface(orientable, 1)
    with pytest.raises(ValueError, match="orientable must be True or False"):
        Surface(True, 1)._replace(orientable=orientable)


def test_surface_boundary_must_not_be_a_string():
    # a string once became one boundary circle per character
    with pytest.raises(ValueError, match="not a string"):
        Surface(True, 0, "hole")
    assert Surface(True, 0, ("hole",)).num_boundary == 1
    for boundary in (5, None):
        with pytest.raises(ValueError, match="^boundary must be a sequence of labels$"):
            Surface(True, 1, boundary)


@pytest.mark.parametrize(
    "boundary", [{"a", "b"}, frozenset("ab"), {"a": 1}.keys()], ids=["set", "frozenset", "keys"]
)
def test_surface_boundary_must_not_be_a_set(boundary):
    # a set's order follows the hash seed, and the labels' order numbers
    # the boundary pairs of the generator catalogue
    with pytest.raises(ValueError, match="^boundary must be a sequence of labels, not a set$"):
        Surface(True, 1, boundary)
    assert Surface(True, 1, {"b": 1, "a": -1}).boundary == ("b", "a")


@pytest.mark.parametrize("label", ["", 7, None, ["a"], {}], ids=repr)
def test_surface_boundary_labels_must_be_non_empty_strings(label):
    # an unhashable label must not reach the distinctness check
    with pytest.raises(ValueError, match="^boundary labels must be non-empty strings$"):
        Surface(True, 0, (label,))
    with pytest.raises(ValueError, match="^boundary labels must be non-empty strings$"):
        Surface(True, 1, [label, label])


@given(
    orientable=st.booleans(),
    genus=st.integers(0, 5),
    b=st.integers(0, 4),
)
def test_boundary_circle_drops_chi_by_one(orientable, genus, b):
    if not orientable:
        genus = max(genus, 1)
    labels = tuple(f"V{i}" for i in range(b))
    s = Surface(orientable, genus, labels)
    s2 = Surface(orientable, genus, labels + (f"V{b}",))
    assert euler_characteristic(s2) == euler_characteristic(s) - 1


def test_validate_torus_line():
    torus = Surface(True, 1)
    bad = CriticalType(Target.LINE, (), 1, 2, 1)
    report = validate_critical_type(torus, bad)
    assert any("length 2" in r for r in report)
    good = CriticalType(Target.LINE, (0, 0), 1, 2, 1)
    assert validate_critical_type(torus, good) == []


def test_validate_sphere_and_genus2_circle():
    sphere = Surface(True, 0)
    assert validate_critical_type(sphere, CriticalType(Target.LINE, (), 1, 0, 1)) == []
    g2 = Surface(True, 2)
    k = CriticalType(Target.CIRCLE, (1, 0, 0, 0), 0, 2, 0)
    assert validate_critical_type(g2, k) == []


def test_validate_reports_morse_equality():
    sphere = Surface(True, 0)
    report = validate_critical_type(sphere, CriticalType(Target.LINE, (), 1, 1, 1))
    assert len(report) == 1 and "c0 - c1 + c2" in report[0]


def test_validate_rejects_mismatched_labels():
    s = Surface(True, 0, ("V1",))
    k = CriticalType(Target.LINE, (), 1, 0, 1, {"other": 1})
    with pytest.raises(ValueError):
        validate_critical_type(s, k)


@pytest.mark.parametrize(
    "target, eps, message",
    [
        ("Line", {}, "target must be a Target"),
        ("Circle", {}, "target must be a Target"),
        (None, {}, "target must be a Target"),
        (Target.LINE, "ab", "must be a mapping"),
        (Target.LINE, [("a", 1)], "must be a mapping"),
    ],
    ids=["line-text", "circle-text", "none", "eps-text", "eps-pairs"],
)
def test_critical_type_checks_target_and_signs(target, eps, message):
    # the text "Line" once passed on the torus as a circle-valued type, and
    # labels given as a string reached ``.values()`` as an AttributeError
    with pytest.raises(ValueError, match=message):
        CriticalType(target, (), 1, 0, 1, eps)
    with pytest.raises(ValueError, match=message):
        CriticalType(Target.LINE, (), 1, 0, 1)._replace(target=target, eps=eps)


def test_line_target_forces_zero_q():
    torus = Surface(True, 1)
    k = CriticalType(Target.LINE, (1, 0), 1, 2, 1)
    assert any("zero vector" in r for r in validate_critical_type(torus, k))


def test_flip_example():
    k = CriticalType(Target.CIRCLE, (1,), 0, 3, 1, {"V1": 1})
    f = flip_target_orientation(k)
    assert f.q == (-1,) and (f.c0, f.c1, f.c2) == (1, 3, 0)
    assert f.eps == {"V1": -1}


@given(
    q=st.lists(st.integers(-5, 5), max_size=6),
    c0=st.integers(0, 4),
    c1=st.integers(0, 4),
    c2=st.integers(0, 4),
    signs=st.lists(st.sampled_from([1, -1]), max_size=3),
)
def test_flip_is_an_involution(q, c0, c1, c2, signs):
    eps = {f"V{i}": s for i, s in enumerate(signs)}
    k = CriticalType(Target.CIRCLE, tuple(q), c0, c1, c2, eps)
    assert flip_target_orientation(flip_target_orientation(k)) == k


def test_flip_symmetric_fixed_point():
    k = CriticalType(Target.LINE, (0, 0), 2, 4, 2)
    assert flip_target_orientation(k) == k


def test_flip_preserves_validity():
    s = Surface(True, 1, ("V1", "V2"))
    k = CriticalType(Target.CIRCLE, (1, 0), 1, 3, 0, {"V1": 1, "V2": -1})
    assert validate_critical_type(s, k) == []
    assert validate_critical_type(s, flip_target_orientation(k)) == []


def test_json_round_trip_and_key_order():
    k = CriticalType(Target.LINE, (), 1, 0, 1, {"b": -1, "a": 1})
    text = critical_type_to_json(k)
    assert text == '{"target":"Line","q":[],"c0":1,"c1":0,"c2":1,"eps":{"a":1,"b":-1}}'
    assert critical_type_from_json(text) == k


def test_json_rejects_garbage():
    with pytest.raises(ValueError):
        critical_type_from_json("not json")
    with pytest.raises(ValueError):
        critical_type_from_json('{"target":"Plane","q":[],"c0":0,"c1":0,"c2":0,"eps":{}}')


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
# documents with the right keys and values of any JSON type, most of them
# close to a valid critical type
KTYPE_DOCUMENTS = st.fixed_dictionaries(
    {
        "target": st.sampled_from(["Line", "Circle"]) | JSON_VALUES,
        "q": st.lists(st.integers(-3, 3) | JSON_VALUES, max_size=3) | JSON_VALUES,
        "c0": st.integers(-1, 3) | JSON_VALUES,
        "c1": st.integers(-1, 3) | JSON_VALUES,
        "c2": st.integers(-1, 3) | JSON_VALUES,
        "eps": st.dictionaries(st.text(max_size=2), st.sampled_from([1, -1]) | JSON_VALUES,
                               max_size=2) | JSON_VALUES,
    }
).map(json.dumps)


@given(st.text() | KTYPE_DOCUMENTS | JSON_VALUES.map(json.dumps))
@example('{"target":"Line","q":[],"c0":Infinity,"c1":0,"c2":1,"eps":{}}')
@example("[" + "1" * 5000 + "]")  # an integer too long to convert
@example('{"target":"Line","q":[],"c0":1.0,"c1":false,"c2":1,"eps":{}}')
@settings(max_examples=300)
def test_any_text_gives_a_critical_type_or_a_format_error(text):
    try:
        k = critical_type_from_json(text)
    except FormatError:
        return
    doc = json.loads(text)
    # the same integers, not equal numbers of another type (1.0, true)
    assert json.dumps([doc["q"], doc["c0"], doc["c1"], doc["c2"], doc["eps"]]) == json.dumps(
        [list(k.q), k.c0, k.c1, k.c2, k.eps]
    )
    assert critical_type_from_json(critical_type_to_json(k)) == k
