import pytest
from hypothesis import given, settings, strategies as st

from morse_topo.classify import (
    HalfPiece,
    equivalence_reason,
    equivalent_up_to_flip,
    is_minimal,
    is_minimal_composite,
    is_realizable,
    minimal_fiber_count,
    sigma_homotopy_equivalent,
)
from morse_topo.surface import (
    CriticalType,
    Surface,
    Target,
    flip_target_orientation,
)


def line_type(c0, c1, c2, eps=None, q=()):
    return CriticalType(Target.LINE, q, c0, c1, c2, eps or {})


def test_equivalence_basics():
    k = line_type(1, 2, 1, q=(0, 0))
    assert sigma_homotopy_equivalent(k, k)
    other = line_type(2, 3, 1, q=(0, 0))
    assert not sigma_homotopy_equivalent(k, other)
    assert equivalence_reason(k, other) == "c0"


def test_equivalence_requires_same_context():
    k1 = line_type(1, 0, 1, {"V1": 1})
    k2 = line_type(1, 0, 1, {"W1": 1})
    with pytest.raises(ValueError):
        sigma_homotopy_equivalent(k1, k2)
    k3 = CriticalType(Target.CIRCLE, (1, 0), 0, 0, 0)
    k4 = CriticalType(Target.CIRCLE, (1,), 0, 0, 0)
    with pytest.raises(ValueError):
        sigma_homotopy_equivalent(k3, k4)


def test_flip_equivalence():
    k = CriticalType(Target.CIRCLE, (1, 0), 0, 2, 0)
    assert not sigma_homotopy_equivalent(k, flip_target_orientation(k))
    assert equivalent_up_to_flip(k, flip_target_orientation(k))
    sym = CriticalType(Target.CIRCLE, (-1, 0), 0, 2, 0)
    assert equivalent_up_to_flip(k, sym)


def test_flip_does_not_hide_sign_differences():
    # disk-like: one boundary circle; flipping negates eps and swaps c0/c2
    a = line_type(1, 0, 0, {"V1": 1})
    b = line_type(1, 0, 0, {"V1": -1})
    assert not sigma_homotopy_equivalent(a, b)
    assert not equivalent_up_to_flip(a, b)


def test_minimal_fiber_count():
    assert minimal_fiber_count(CriticalType(Target.CIRCLE, (0, 0, 0, 0), 0, 0, 0)) == 0
    assert minimal_fiber_count(CriticalType(Target.CIRCLE, (1, 0), 0, 0, 0)) == 1
    assert (
        minimal_fiber_count(CriticalType(Target.CIRCLE, (6, 10, 15, 0), 0, 0, 0)) == 1
    )
    assert (
        minimal_fiber_count(CriticalType(Target.CIRCLE, (6, 10, 0, 0), 0, 0, 0)) == 2
    )
    with pytest.raises(ValueError):
        minimal_fiber_count(line_type(1, 0, 1))


@given(q=st.lists(st.integers(-30, 30), min_size=1, max_size=8))
@settings(deadline=None)
def test_fiber_count_divides_entries(q):
    k = CriticalType(Target.CIRCLE, tuple(q), 0, 0, 0)
    d = minimal_fiber_count(k)
    if all(x == 0 for x in q):
        assert d == 0
    else:
        assert d >= 1
        assert all(x % d == 0 for x in q)


def test_is_minimal_line_cases():
    closed = Surface(True, 2)
    assert is_minimal(closed, line_type(1, 4, 1, q=(0,) * 4))
    assert not is_minimal(closed, line_type(2, 5, 1, q=(0,) * 4))
    s = Surface(True, 0, ("V1", "V2"))
    mixed = {"V1": 1, "V2": -1}
    assert is_minimal(s, line_type(0, 0, 0, mixed))
    assert not is_minimal(s, line_type(1, 1, 0, mixed))


def test_is_minimal_circle_cases():
    g2 = Surface(True, 2)
    assert is_minimal(g2, CriticalType(Target.CIRCLE, (1, 0, 0, 0), 0, 2, 0))
    assert not is_minimal(g2, CriticalType(Target.CIRCLE, (1, 0, 0, 0), 1, 3, 0))
    with pytest.raises(ValueError, match="null-homotopic"):
        is_minimal(g2, CriticalType(Target.CIRCLE, (0, 0, 0, 0), 1, 3, 0))


def test_is_realizable_needs_attainable_extrema():
    closed = Surface(True, 1)
    assert is_realizable(closed, line_type(1, 2, 1, q=(0, 0)))
    assert not is_realizable(closed, line_type(0, 1, 1, q=(0, 0)))
    holed = Surface(True, 1, ("V1",))
    assert is_realizable(holed, CriticalType(Target.LINE, (0, 0), 1, 2, 0, {"V1": 1}))
    assert not is_realizable(holed, CriticalType(Target.LINE, (0, 0), 0, 1, 0, {"V1": -1}))


def test_is_realizable_null_homotopic_circle_needs_extrema():
    # q = 0: the map lifts to the line, so the line rule holds
    torus = Surface(True, 1)
    assert not is_realizable(torus, CriticalType(Target.CIRCLE, (0, 0), 0, 0, 0))
    annulus = Surface(True, 0, ("a", "b"))
    both_up = CriticalType(Target.CIRCLE, (), 0, 0, 0, {"a": 1, "b": 1})
    assert not is_realizable(annulus, both_up)
    # an extremum at each end: a minimum inside, the surface below "b"
    assert is_realizable(annulus, CriticalType(Target.CIRCLE, (), 1, 1, 0, {"a": 1, "b": 1}))
    assert is_realizable(annulus, CriticalType(Target.CIRCLE, (), 0, 0, 0, {"a": -1, "b": 1}))
    assert is_realizable(torus, CriticalType(Target.CIRCLE, (0, 0), 1, 2, 1))
    # a non-zero q needs no extremum
    assert is_realizable(torus, CriticalType(Target.CIRCLE, (1, 0), 0, 0, 0))


def _half(side, genus, labels_out, labels_cut, c0, c2, extra=()):
    outer_sign = -1 if side == "lower" else 1
    eps = {l: outer_sign for l in labels_out}
    eps.update({l: -outer_sign for l in labels_cut})
    eps.update(dict(extra))
    b = len(eps)
    chi = 2 - 2 * genus - b
    c1 = c0 + c2 - chi
    s = Surface(True, genus, tuple(eps))
    k = CriticalType(Target.LINE, (0,) * (2 * genus), c0, c1, c2, eps)
    return HalfPiece(side, s, k, frozenset(labels_out), frozenset(labels_cut))


def test_composite_minimal_cylinder_stack():
    lower = _half("lower", 0, ["B"], ["Z"], 0, 0)
    upper = _half("upper", 0, ["T"], ["Z"], 0, 0)
    gluing = [((0, "Z"), (1, "Z"))]
    assert is_minimal_composite([lower, upper], gluing)


def test_composite_fails_without_middle_level():
    # two minimal cylinders, nothing glued: the middle level is empty
    lower = _half("lower", 0, ["B"], [], 0, 0, extra=[("X", 1)])
    upper = _half("upper", 0, ["T"], [], 0, 0, extra=[("Y", -1)])
    assert not is_minimal_composite([lower, upper], [])


def test_composite_fails_when_component_misses_a_side():
    # the glued component meets the middle level but never the top
    lower = _half("lower", 0, ["B"], ["Z"], 0, 0)
    upper = _half("upper", 0, [], ["Z"], 0, 1)  # closes with a maximum
    gluing = [((0, "Z"), (1, "Z"))]
    assert not is_minimal_composite([lower, upper], gluing)


def test_composite_fails_when_a_half_is_not_minimal():
    lower = _half("lower", 0, ["B"], ["Z"], 1, 1)  # extra extrema
    upper = _half("upper", 0, ["T"], ["Z"], 0, 0)
    gluing = [((0, "Z"), (1, "Z"))]
    assert not is_minimal_composite([lower, upper], gluing)


def test_composite_rejects_malformed_gluing():
    lower = _half("lower", 0, ["B"], ["Z"], 0, 0)
    upper = _half("upper", 0, ["T"], ["Z"], 0, 0)
    with pytest.raises(ValueError, match="lower and an upper"):
        is_minimal_composite([lower, lower], [((0, "Z"), (1, "Z"))])
    with pytest.raises(ValueError, match="unglued"):
        is_minimal_composite([lower, upper], [])
    with pytest.raises(ValueError, match="glued twice"):
        is_minimal_composite(
            [lower, _half("upper", 0, ["T"], ["Z", "Z2"], 0, 0)],
            [((0, "Z"), (1, "Z")), ((0, "Z"), (1, "Z2"))],
        )
