"""Deciding deformation equivalence of Morse mappings from their invariants.

Two Morse mappings on the same surface are connected by a path of Morse
mappings exactly when their critical types agree, so the decision
procedure is field-by-field comparison.  The module also provides the
minimal-fiber count for circle-valued maps, the minimality test for the
number of critical points, and a compositional minimality check for
functions assembled from two stacked halves.
"""
from __future__ import annotations

import math
from typing import NamedTuple, Sequence

from .surface import CriticalType, Surface, Target, flip_target_orientation, validate_critical_type


def _check_comparable(k1: CriticalType, k2: CriticalType):
    if set(k1.eps) != set(k2.eps):
        raise ValueError("critical types live on different boundary label sets")
    if len(k1.q) != len(k2.q):
        raise ValueError("critical types have different homology ranks")


def equivalence_reason(k1: CriticalType, k2: CriticalType) -> str:
    """'ok' when equal, else the first differing field.

    Field order: target, q, c0, c1, c2, eps.
    """
    _check_comparable(k1, k2)
    if k1.target is not k2.target:
        return "target"
    if k1.q != k2.q:
        return "q"
    for name in ("c0", "c1", "c2"):
        if getattr(k1, name) != getattr(k2, name):
            return name
    if dict(k1.eps) != dict(k2.eps):
        return "eps"
    return "ok"


def sigma_homotopy_equivalent(k1: CriticalType, k2: CriticalType) -> bool:
    """Whether two validated critical types label the same path component."""
    return equivalence_reason(k1, k2) == "ok"


def equivalent_up_to_flip(k1: CriticalType, k2: CriticalType) -> bool:
    """Equality allowing the target orientation of the second map to reverse."""
    return sigma_homotopy_equivalent(k1, k2) or sigma_homotopy_equivalent(
        k1, flip_target_orientation(k2)
    )


def minimal_fiber_count(k: CriticalType) -> int:
    """Fewest circles in a regular fiber achievable by deformation.

    Zero for null-homotopic circle maps (some fiber can be emptied);
    otherwise the index of the image of first homology in that of the
    circle, which is the gcd of the entries of q.
    """
    if k.target is not Target.CIRCLE:
        raise ValueError("fiber counts apply to circle-valued maps")
    return math.gcd(*k.q)


def is_realizable(s: Surface, k: CriticalType) -> bool:
    """Whether some Morse mapping on s has this critical type.

    On top of the arithmetic identities, a line-valued function must attain
    its minimum at an interior minimum or on a negative boundary circle,
    and symmetrically for the maximum.  So must a circle-valued map with
    q = 0: it is null-homotopic, so it lifts to a line-valued function
    with the same critical points and boundary signs.
    """
    if validate_critical_type(s, k):
        return False
    if k.target is Target.LINE or not any(k.q):
        return (k.c0 + k.b_minus >= 1) and (k.c2 + k.b_plus >= 1)
    return True


def is_minimal(s: Surface, k: CriticalType) -> bool:
    """Whether the critical type has the fewest critical points possible
    among Morse mappings on the connected surface with the same boundary
    signs (and, for circle targets, the same essential homotopy class)."""
    problems = validate_critical_type(s, k)
    if problems:
        raise ValueError("; ".join(problems))
    if k.target is Target.CIRCLE:
        if all(x == 0 for x in k.q):
            raise ValueError(
                "minimality of a null-homotopic circle map reduces to the "
                "line-valued case"
            )
        return k.c0 == 0 and k.c2 == 0
    want_c0 = 1 if k.b_minus == 0 else 0
    want_c2 = 1 if k.b_plus == 0 else 0
    return k.c0 == want_c0 and k.c2 == want_c2


# ---------------------------------------------------------------------------
# Compositional minimality for stacked halves


class _HalfPiece(NamedTuple):
    side: str  # "lower" | "upper"
    surface: Surface
    ktype: CriticalType
    outer_labels: frozenset[str]
    cut_labels: frozenset[str]


class HalfPiece(_HalfPiece):
    """One connected component of the lower or upper half of a function
    assembled along a middle regular level, as an immutable tuple record
    ``(side, surface, ktype, outer_labels, cut_labels)``.

    ``outer_labels`` lie on the outer boundary (the bottom for a lower
    piece, the top for an upper one); ``cut_labels`` lie on the middle
    level.  Remaining labels are ordinary boundary circles of the glued
    surface.  Construction, ``_make`` and ``_replace`` all check the side
    and make both label sets frozensets.
    """

    __slots__ = ()

    def __new__(cls, side, surface, ktype, outer_labels, cut_labels):
        if side not in ("lower", "upper"):
            raise ValueError("side must be 'lower' or 'upper'")
        return tuple.__new__(
            cls, (side, surface, ktype, frozenset(outer_labels), frozenset(cut_labels))
        )

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


Gluing = Sequence[tuple[tuple[int, str], tuple[int, str]]]


def _check_piece(piece: HalfPiece):
    labels = set(piece.surface.boundary)
    if not (piece.outer_labels <= labels and piece.cut_labels <= labels):
        raise ValueError("piece labels must be boundary labels of its surface")
    if piece.outer_labels & piece.cut_labels:
        raise ValueError("a label cannot be both outer and cut")
    if validate_critical_type(piece.surface, piece.ktype):
        raise ValueError("piece critical type is invalid for its surface")
    outer_sign = -1 if piece.side == "lower" else 1
    for label in piece.outer_labels:
        if piece.ktype.eps[label] != outer_sign:
            raise ValueError(f"outer label {label!r} has the wrong sign")
    for label in piece.cut_labels:
        if piece.ktype.eps[label] != -outer_sign:
            raise ValueError(f"cut label {label!r} has the wrong sign")


def is_minimal_composite(pieces: Sequence[HalfPiece], gluing: Gluing) -> bool:
    """Minimality of a function built from minimal halves along a middle level.

    The hypotheses checked are: the bottom, top and middle level are all
    non-empty and every glued component touches the bottom or the top;
    every piece is minimal; and every glued component that meets the middle
    level reaches both the bottom and the top.  Together they force the
    assembled function to be minimal.  Malformed gluing data raises.
    """
    for piece in pieces:
        _check_piece(piece)
    used = set()
    parent = list(range(len(pieces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, li), (j, lj) in gluing:
        lower, upper = (i, li), (j, lj)
        if pieces[i].side == "upper":
            lower, upper = (j, lj), (i, li)
        (i2, li2), (j2, lj2) = lower, upper
        if pieces[i2].side != "lower" or pieces[j2].side != "upper":
            raise ValueError("a gluing pair must join a lower and an upper piece")
        if li2 not in pieces[i2].cut_labels or lj2 not in pieces[j2].cut_labels:
            raise ValueError("gluing must match cut labels")
        for key in (lower, upper):
            if key in used:
                raise ValueError(f"cut circle {key} glued twice")
            used.add(key)
        ra, rb = find(i2), find(j2)
        if ra != rb:
            parent[ra] = rb
    for idx, piece in enumerate(pieces):
        for label in piece.cut_labels:
            if (idx, label) not in used:
                raise ValueError(f"cut circle {(idx, label)} left unglued")

    bottom = any(p.side == "lower" and p.outer_labels for p in pieces)
    top = any(p.side == "upper" and p.outer_labels for p in pieces)
    if not (bottom and top and gluing):
        return False
    components: dict[int, list[HalfPiece]] = {}
    for idx, piece in enumerate(pieces):
        components.setdefault(find(idx), []).append(piece)
    for comp in components.values():
        if not any(p.outer_labels for p in comp):
            return False  # a component of the glued surface misses bottom and top
        touches_cut = any(p.cut_labels for p in comp)
        if touches_cut:
            has_bottom = any(p.side == "lower" and p.outer_labels for p in comp)
            has_top = any(p.side == "upper" and p.outer_labels for p in comp)
            if not (has_bottom and has_top):
                return False
    return all(is_minimal(p.surface, p.ktype) for p in pieces)
