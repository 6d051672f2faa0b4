"""Deterministic normal-form graphs realising a requested critical type.

``canonical_kr_graph`` returns ``(graph, type)``, like ``extract_kr_graph``:
the type is read off the built graph once and must equal the request.

The line-valued normal form is a vertical spine read bottom to top:

* lower leaves: one boundary circle per negative sign (sorted by label,
  the lower seam first), then the requested minima;
* a merge comb joining the lower leaves into one strand;
* the genus: per handle a split/merge saddle pair enclosing two parallel
  edges (orientable), or one degree-two saddle per crosscap
  (non-orientable);
* a split comb fanning out to the upper leaves: the requested maxima, then
  one boundary circle per positive sign (sorted by label, the upper seam
  last).

Heights are consecutive integers in creation order, so the graph is
generic and rebuilding it reproduces identical output.

The circle-valued normal form cuts the surface along one regular fiber,
builds the line normal form of the cut surface with two extra boundary
circles (the seam, labelled ``!B0`` below and ``~B1`` above, placed first
and last by role whatever the other labels), rescales heights into (0, 1)
and replaces the two seam circles by a single edge wrapping through level
0.  Level 0 is the defining cut value: cutting there returns the line
normal form of the cut surface.  A critical-point-free request on the
torus or Klein bottle degenerates to a single free loop of winding one.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .krgraph import (
    SEAM_LOWER, SEAM_UPPER, KREdge, KRGraph, KRVertex, VertexKind, critical_type_of,
)
from .surface import (
    CriticalType,
    Surface,
    Target,
    _int_vector,
    euler_characteristic,
    validate_critical_type,
)


class InfeasibleTypeError(ValueError):
    """The requested critical type is not realisable on the surface."""


def canonical_kr_graph(
    s: Surface,
    eps: Mapping[str, int],
    c0: int,
    c2: int,
    q: Sequence[int] | None = None,
    target: Target = Target.LINE,
) -> tuple[KRGraph, CriticalType]:
    """Build the normal-form graph with the requested critical type and
    return ``(graph, type)``, like ``extract_kr_graph``.

    ``c1`` is derived from the Euler characteristic.  ``q`` defaults to the
    zero vector for line targets; for circle targets it must be given and
    primitive (the map must be surjective on first homology for the
    single-fiber cut to exist).  A request the surface cannot realise
    raises ``ValueError``; a built graph that fails its checks or has
    another type is a fault of this module and raises ``AssertionError``.
    """
    if q is None:
        if target is Target.CIRCLE:
            raise ValueError("circle targets need an explicit homotopy vector q")
        q = (0,) * s.homology_rank
    c0, c2 = _int_vector((c0, c2), "critical point counts")
    c1 = c0 + c2 - euler_characteristic(s)
    k = CriticalType(target, q, c0, max(c1, 0), c2, eps)
    problems = validate_critical_type(s, k)
    if c1 < 0:
        raise InfeasibleTypeError(
            f"requested extrema force a negative saddle count ({c1})"
        )
    if problems:
        raise ValueError("; ".join(problems))
    if target is Target.LINE:
        b = _line_canonical(s, k.eps, k.c0, k.c2)
        vertices = [
            KRVertex(vid, kind, vid + 1, label) for vid, (kind, label) in enumerate(b.vertices)
        ]
        edges = [KREdge(i, tail, head) for i, (tail, head) in enumerate(b.ends)]
    else:
        vertices, edges = _circle_canonical(s, k.eps, k.c0, k.c2, k.q)
    try:
        graph = KRGraph(target, vertices, edges)
        built = critical_type_of(graph, s, k.q)
    except ValueError as exc:
        raise AssertionError(f"normal form is an inconsistent graph: {exc}") from None
    if built != k:
        raise AssertionError("normal form does not have the requested critical type")
    return graph, built


class _Builder:
    """A normal form as plain lists: each vertex's (kind, label) by id and
    each edge's (tail, head); vertex ``vid`` sits at height ``vid + 1``.
    Graph vertices and edges are built from them once."""

    def __init__(self):
        self.vertices: list[tuple[VertexKind, str | None]] = []
        self.ends: list[tuple[int, int]] = []

    def vertex(self, kind: VertexKind, label: str | None = None) -> int:
        self.vertices.append((kind, label))
        return len(self.vertices) - 1

    def edge(self, tail: int, head: int):
        self.ends.append((tail, head))


def _line_canonical(
    s: Surface, eps: Mapping[str, int], c0: int, c2: int
) -> _Builder:
    """Vertices and edges of the line normal form, not yet validated.

    The lower seam leads the negative leaves and the upper seam ends the
    positive ones, whatever the other labels, so a seam circle is vertex 0
    or the last vertex and its edge is the first or the last edge.
    """
    neg = sorted(
        (l for l in s.boundary if eps[l] < 0), key=lambda l: (l != SEAM_LOWER, l)
    )
    pos = sorted(
        (l for l in s.boundary if eps[l] > 0), key=lambda l: (l == SEAM_UPPER, l)
    )
    m = c0 + len(neg)
    p = c2 + len(pos)
    if m == 0:
        raise InfeasibleTypeError(
            "no minima and no negative boundary: the function cannot attain "
            "a minimum"
        )
    if p == 0:
        raise InfeasibleTypeError(
            "no maxima and no positive boundary: the function cannot attain "
            "a maximum"
        )
    b = _Builder()
    lower = [b.vertex(VertexKind.BOUNDARY, l) for l in neg]
    lower += [b.vertex(VertexKind.MIN) for _ in range(c0)]
    strand = lower[0]
    for leaf in lower[1:]:
        saddle = b.vertex(VertexKind.SADDLE3)
        b.edge(strand, saddle)
        b.edge(leaf, saddle)
        strand = saddle
    if s.orientable:
        for _ in range(s.genus):
            split = b.vertex(VertexKind.SADDLE3)
            merge = b.vertex(VertexKind.SADDLE3)
            b.edge(strand, split)
            b.edge(split, merge)
            b.edge(split, merge)
            strand = merge
    else:
        for _ in range(s.genus):
            star = b.vertex(VertexKind.STAR2)
            b.edge(strand, star)
            strand = star
    splits = []
    for _ in range(p - 1):
        saddle = b.vertex(VertexKind.SADDLE3)
        b.edge(strand, saddle)
        splits.append(saddle)
        strand = saddle
    upper = [b.vertex(VertexKind.MAX) for _ in range(c2)]
    upper += [b.vertex(VertexKind.BOUNDARY, l) for l in pos]
    # splits[i] feeds upper[i]; the last strand feeds the final leaf
    for saddle, leaf in zip(splits, upper):
        b.edge(saddle, leaf)
    b.edge(strand, upper[-1])
    return b


def _cut_surface(s: Surface, q: Sequence[int]) -> Surface:
    """The surface obtained by cutting along one essential regular fiber
    dual to the primitive homotopy vector ``q``.

    ``s`` must have positive homology rank (orientable genus >= 1 or
    non-orientable genus >= 2); a primitive homotopy vector guarantees it.
    On N_g, ``q`` holds x_1 .. x_{g-1} and x_g = -sum(q); the complement of
    the fiber is orientable exactly when q is the orientation class mod 2,
    that is when every x_i is odd, which needs g even.  It is then the
    orientable surface of genus (g - 2)/2 with the two seams, and otherwise
    N_{g-2} with them.
    """
    extra = (SEAM_LOWER, SEAM_UPPER)
    if any(l in extra for l in s.boundary):
        raise ValueError(f"boundary labels {extra} are reserved for the seam")
    if s.orientable:
        return Surface(True, s.genus - 1, s.boundary + extra)
    if all(x % 2 for x in (*q, sum(q))):
        return Surface(True, (s.genus - 2) // 2, s.boundary + extra)
    return Surface(False, s.genus - 2, s.boundary + extra)


def _circle_canonical(
    s: Surface, eps: Mapping[str, int], c0: int, c2: int, q: Sequence[int]
) -> tuple[list[KRVertex], list[KREdge]]:
    """Vertices and edges of the circle normal form, not yet validated."""
    d = math.gcd(*q)
    if d != 1:
        raise InfeasibleTypeError(
            "circle-valued normal forms need a primitive homotopy vector "
            f"(gcd {d})"
        )
    cut = _cut_surface(s, q)
    cut_eps = dict(eps)
    cut_eps[SEAM_LOWER] = -1
    cut_eps[SEAM_UPPER] = 1
    b = _line_canonical(cut, cut_eps, c0, c2)
    if len(b.ends) == 1:
        # nothing between the seams: the critical-point-free fibration
        return [], [KREdge(0, None, None, (0, 1))]

    # the seams are the first and last vertex, on the first and last edge;
    # vertex vid goes from height vid + 1 of n + 1 levels to (vid + 1)/(n + 1)
    n = len(b.vertices)
    lift = [Fraction(vid + 1, n + 1) for vid in range(n)]
    vertices = [
        KRVertex(vid, kind, lift[vid], label)
        for vid, (kind, label) in enumerate(b.vertices[1:-1], 1)
    ]
    edges = [
        KREdge(i, tail, head, (lift[tail], lift[head]))
        for i, (tail, head) in enumerate(b.ends[1:-1])
    ]
    # the wrap edge: from the top of the chain through level 0 to the bottom
    tail = b.ends[-1][0]
    head = b.ends[0][1]
    edges.append(KREdge(len(edges), tail, head, (lift[tail], lift[head] + 1)))
    return vertices, edges
