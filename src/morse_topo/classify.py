"""Deciding deformation equivalence of Morse mappings from their invariants.

Two Morse mappings on the same surface are connected by a path of Morse
mappings exactly when their critical types agree, so the decision
procedure is field-by-field comparison.  The module also provides the
minimal-fiber count for circle-valued maps, the minimality test for the
number of critical points, and the critical type of a map glued from
pieces along regular levels.
"""
from __future__ import annotations

import math
from typing import Iterable

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
    signs (and, for circle targets, the same homotopy class).  A circle
    map with q = 0 lifts to the line, so the line rule decides it."""
    problems = validate_critical_type(s, k)
    if problems:
        raise ValueError("; ".join(problems))
    if k.target is Target.LINE or not any(k.q):
        want_c0 = 1 if k.b_minus == 0 else 0
        want_c2 = 1 if k.b_plus == 0 else 0
        return k.c0 == want_c0 and k.c2 == want_c2
    return k.c0 == 0 and k.c2 == 0


def glued_type(s: Surface, pieces: Iterable[CriticalType], seams: Iterable[str]) -> CriticalType:
    """The critical type on the connected surface ``s`` of a line-valued map
    assembled from line-valued pieces along regular level circles.

    Each label in ``seams`` names one level circle: a boundary circle of
    exactly two pieces, with sign +1 on the piece below the level and -1 on
    the piece above.  Every other label keeps its sign.  The counts add up,
    and so does the Euler characteristic over circle gluings, which
    ``validate_critical_type`` checks against ``s``.  The assembled map is
    minimal exactly when ``is_minimal(s, glued_type(s, pieces, seams))``.
    """
    if isinstance(seams, str):
        raise ValueError("seams must be a sequence of labels, not a string")
    signs: dict[str, list[int]] = {}
    c0 = c1 = c2 = 0
    for piece in pieces:
        if piece.target is not Target.LINE:
            raise ValueError("glued pieces must be line-valued")
        c0, c1, c2 = c0 + piece.c0, c1 + piece.c1, c2 + piece.c2
        for label, sign in piece.eps.items():
            signs.setdefault(label, []).append(sign)
    for label in set(seams):
        if sorted(signs.pop(label, ())) != [-1, 1]:
            raise ValueError(f"seam {label!r} must be +1 on one piece and -1 on one other")
    for label, found in signs.items():
        if len(found) > 1:
            raise ValueError(f"label {label!r} is on {len(found)} pieces but is not a seam")
    eps = {label: sign for label, (sign,) in signs.items()}
    k = CriticalType(Target.LINE, (0,) * s.homology_rank, c0, c1, c2, eps)
    problems = validate_critical_type(s, k)
    if problems:
        raise ValueError("; ".join(problems))
    return k
