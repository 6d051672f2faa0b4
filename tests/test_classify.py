import pytest
from hypothesis import given, settings, strategies as st

from morse_topo.classify import (
    equivalence_reason,
    equivalent_up_to_flip,
    glued_type,
    is_minimal,
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


def test_invalid_types_are_not_realizable_and_not_judged_minimal():
    # c0 - c1 + c2 is 2 - 2g only for g = 1 here; q has the length for g = 1
    k = line_type(1, 2, 1, q=(0, 0))
    assert is_realizable(Surface(True, 1), k)
    for s in (Surface(True, 2), Surface(True, 0)):
        assert not is_realizable(s, k)
        with pytest.raises(ValueError, match="^q must have length"):
            is_minimal(s, k)


def test_is_minimal_circle_cases():
    g2 = Surface(True, 2)
    assert is_minimal(g2, CriticalType(Target.CIRCLE, (1, 0, 0, 0), 0, 2, 0))
    assert not is_minimal(g2, CriticalType(Target.CIRCLE, (1, 0, 0, 0), 1, 3, 0))
    # q = 0: the map lifts to the line, so the line rule decides
    assert is_minimal(g2, CriticalType(Target.CIRCLE, (0, 0, 0, 0), 1, 4, 1))
    assert not is_minimal(g2, CriticalType(Target.CIRCLE, (0, 0, 0, 0), 1, 3, 0))
    annulus = Surface(True, 0, ("a", "b"))
    assert is_minimal(annulus, CriticalType(Target.CIRCLE, (), 0, 0, 0, {"a": -1, "b": 1}))
    assert not is_minimal(annulus, CriticalType(Target.CIRCLE, (), 1, 1, 0, {"a": -1, "b": 1}))


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


ANNULUS = Surface(True, 0, ("b", "t"))
# a lower disc with a minimum, below the seam "a"
DISC = line_type(1, 0, 0, {"a": 1})
# a lower cylinder from the bottom circle "b" up to the seam "c"
CYLINDER = line_type(0, 0, 0, {"b": -1, "c": 1})
# an upper pair of pants from the seams "a" and "c" up to the top circle "t"
PANTS = line_type(0, 1, 0, {"a": -1, "c": -1, "t": 1})


def test_glued_type_of_minimal_pieces_need_not_be_minimal():
    # each piece is minimal, but the glued map on the annulus has a minimum
    # and a saddle that the map with no critical points does without
    assert all(
        is_minimal(Surface(True, 0, tuple(k.eps)), k) for k in (DISC, CYLINDER, PANTS)
    )
    k = glued_type(ANNULUS, [DISC, CYLINDER, PANTS], ["a", "c"])
    assert k == line_type(1, 1, 0, {"b": -1, "t": 1})
    assert not is_minimal(ANNULUS, k)


def test_glued_type_cylinder_stack_is_minimal():
    lower = line_type(0, 0, 0, {"b": -1, "z": 1})
    upper = line_type(0, 0, 0, {"z": -1, "t": 1})
    k = glued_type(ANNULUS, [lower, upper], ["z"])
    assert k == line_type(0, 0, 0, {"b": -1, "t": 1})
    assert is_minimal(ANNULUS, k)
    # capped by a maximum instead, the stack is the minimal map on the disc
    cap = line_type(0, 0, 1, {"z": -1})
    disc = Surface(True, 0, ("b",))
    assert is_minimal(disc, glued_type(disc, [lower, cap], ["z"]))
    assert not is_minimal(disc, glued_type(disc, [lower._replace(c0=1, c1=1), cap], ["z"]))


def test_glued_type_adds_genus_through_two_seams():
    # two pairs of pants glued along two circles: one handle
    below = line_type(0, 1, 0, {"b": -1, "x": 1, "y": 1})
    above = line_type(0, 1, 0, {"x": -1, "y": -1, "t": 1})
    holed_torus = Surface(True, 1, ("b", "t"))
    k = glued_type(holed_torus, [below, above], ["x", "y"])
    assert (k.q, k.c1) == ((0, 0), 2)
    assert is_minimal(holed_torus, k)


def test_glued_type_rejects_malformed_gluing():
    pieces = [DISC, CYLINDER, PANTS]
    with pytest.raises(ValueError, match="line-valued"):
        glued_type(ANNULUS, [DISC, CYLINDER, PANTS._replace(target=Target.CIRCLE)], ["a", "c"])
    with pytest.raises(ValueError, match="not a string"):
        glued_type(ANNULUS, pieces, "ac")
    with pytest.raises(ValueError, match="seam 'z'"):  # on no piece
        glued_type(ANNULUS, pieces, ["a", "c", "z"])
    with pytest.raises(ValueError, match="seam 't'"):  # on one piece
        glued_type(Surface(True, 0, ("b",)), pieces, ["a", "c", "t"])
    lower = line_type(0, 0, 0, {"b": -1, "z": 1})
    with pytest.raises(ValueError, match="seam 'z'"):  # +1 on both pieces
        glued_type(ANNULUS, [lower, lower._replace(eps={"z": 1, "t": 1})], ["z"])
    with pytest.raises(ValueError, match="label 'a' is on 2 pieces"):
        glued_type(ANNULUS, pieces, ["c"])
    with pytest.raises(ValueError, match="c0 - c1 \\+ c2 = chi"):
        glued_type(Surface(True, 1, ("b", "t")), pieces, ["a", "c"])
    with pytest.raises(ValueError, match="do not match surface boundary"):
        glued_type(Surface(True, 1), pieces, ["a", "c"])
    # two cylinders with no seam between them are not one connected surface
    apart = [line_type(0, 0, 0, {"b": -1, "x": 1}), line_type(0, 0, 0, {"y": -1, "t": 1})]
    with pytest.raises(ValueError, match="c0 - c1 \\+ c2 = chi"):
        glued_type(Surface(True, 0, ("b", "x", "y", "t")), apart, [])
