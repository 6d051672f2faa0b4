"""Deterministic normal-form graphs realising a requested critical type.

The line-valued normal form is a vertical spine read bottom to top:

* lower leaves: one boundary circle per negative sign (sorted by label),
  then the requested minima;
* a merge comb joining the lower leaves into one strand;
* the genus: per handle a split/merge saddle pair enclosing two parallel
  edges (orientable), or one degree-two saddle per crosscap
  (non-orientable);
* a split comb fanning out to the upper leaves: the requested maxima, then
  one boundary circle per positive sign (sorted by label).

Heights are consecutive integers in creation order, so the graph is
generic and rebuilding it reproduces identical output.

The circle-valued normal form cuts the surface along one regular fiber,
builds the line normal form of the cut surface with two extra boundary
circles (the seam, labelled ``!B0`` below and ``~B1`` above so they sort
to the extremes), rescales heights into (0, 1) and replaces the two seam
circles by a single edge wrapping through level 0.  Level 0 is the
defining cut value: cutting there returns the line normal form of the cut
surface.  A critical-point-free request on the torus or Klein bottle
degenerates to a single free loop of winding one.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

from .krgraph import SEAM_LOWER, SEAM_UPPER, KREdge, KRGraph, KRVertex, VertexKind
from .surface import (
    CriticalType,
    Surface,
    Target,
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
) -> KRGraph:
    """Build the normal-form graph with the requested critical type.

    ``c1`` is derived from the Euler characteristic.  ``q`` defaults to the
    zero vector for line targets; for circle targets it must be given and
    primitive (the map must be surjective on first homology for the
    single-fiber cut to exist).
    """
    if q is None:
        if target is Target.CIRCLE:
            raise ValueError("circle targets need an explicit homotopy vector q")
        q = (0,) * s.homology_rank
    q = tuple(int(x) for x in q)
    c1 = c0 + c2 - euler_characteristic(s)
    k = CriticalType(target, q, c0, max(c1, 0), c2, dict(eps))
    problems = validate_critical_type(s, k)
    if c1 < 0:
        raise InfeasibleTypeError(
            f"requested extrema force a negative saddle count ({c1})"
        )
    if problems:
        raise ValueError("; ".join(problems))
    if target is Target.LINE:
        line = _line_canonical(s, eps, c0, c2)
        return KRGraph(Target.LINE, line.vertices, line.edges)
    return _circle_canonical(s, eps, c0, c2, q)


class _Builder:
    def __init__(self):
        self.vertices: list[KRVertex] = []
        self.edges: list[KREdge] = []
        self.height = 0

    def vertex(self, kind: VertexKind, label: str | None = None) -> int:
        self.height += 1
        vid = len(self.vertices)
        self.vertices.append(KRVertex(vid, kind, Fraction(self.height), label))
        return vid

    def edge(self, tail: int, head: int):
        self.edges.append(KREdge(len(self.edges), tail, head))


def _line_canonical(
    s: Surface, eps: Mapping[str, int], c0: int, c2: int
) -> _Builder:
    """Vertices and edges of the line normal form, not yet validated."""
    neg = sorted(l for l in s.boundary if eps[l] < 0)
    pos = sorted(l for l in s.boundary if eps[l] > 0)
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


def _cut_surface(s: Surface) -> Surface:
    """The surface obtained by cutting along one essential regular fiber."""
    extra = (SEAM_LOWER, SEAM_UPPER)
    if any(l in extra for l in s.boundary):
        raise ValueError(f"boundary labels {extra} are reserved for the seam")
    if s.orientable:
        if s.genus < 1:
            raise InfeasibleTypeError(
                "an essential circle-valued map needs genus >= 1"
            )
        return Surface(True, s.genus - 1, s.boundary + extra)
    if s.genus == 2:
        return Surface(True, 0, s.boundary + extra)
    if s.genus >= 3:
        return Surface(False, s.genus - 2, s.boundary + extra)
    raise InfeasibleTypeError(
        "a non-orientable surface of genus 1 has no essential circle-valued map"
    )


def _circle_canonical(
    s: Surface, eps: Mapping[str, int], c0: int, c2: int, q: Sequence[int]
) -> KRGraph:
    d = math.gcd(*q)
    if d != 1:
        raise InfeasibleTypeError(
            "circle-valued normal forms need a primitive homotopy vector "
            f"(gcd {d})"
        )
    cut = _cut_surface(s)
    cut_eps = dict(eps)
    cut_eps[SEAM_LOWER] = -1
    cut_eps[SEAM_UPPER] = 1
    line = _line_canonical(cut, cut_eps, c0, c2)

    scale = Fraction(1, len(line.vertices) + 1)
    seam_low = seam_high = None
    for v in line.vertices:
        if v.boundary_label == SEAM_LOWER:
            seam_low = v.id
        elif v.boundary_label == SEAM_UPPER:
            seam_high = v.id
    lower_edge = next(e for e in line.edges if e.tail == seam_low)
    upper_edge = next(e for e in line.edges if e.head == seam_high)

    if lower_edge is upper_edge:
        # nothing between the seams: the critical-point-free fibration
        return KRGraph(
            Target.CIRCLE, [], [KREdge(0, None, None, (Fraction(0), Fraction(1)))]
        )

    lift = [v.height * scale for v in line.vertices]  # by vertex id
    vertices = [
        KRVertex(v.id, v.kind, lift[v.id], v.boundary_label)
        for v in line.vertices
        if v.id not in (seam_low, seam_high)
    ]
    edges = []
    for e in line.edges:
        if e is lower_edge or e is upper_edge:
            continue
        edges.append(KREdge(len(edges), e.tail, e.head, (lift[e.tail], lift[e.head])))
    # the wrap edge: from the top of the chain through level 0 to the bottom
    tail = upper_edge.tail
    head = lower_edge.head
    edges.append(KREdge(len(edges), tail, head, (lift[tail], lift[head] + 1)))
    return KRGraph(Target.CIRCLE, vertices, edges)
