"""The Kronrod-Reeb graph: the quotient of a surface by level-set components.

Vertices carry a kind (extremum, ordinary saddle, degree-two saddle, or
boundary circle) and an exact rational height; edges are oriented by
increasing height.  For circle-valued maps each edge also carries a lift of
its height interval to the real line, so winding is explicit and cutting at
a regular level is exact.  Heights and lift ends are ``int`` when given as
``int`` and ``Fraction`` otherwise.

A graph for the critical-point-free fibration of the torus (or Klein
bottle) over the circle has no vertices at all; it is represented by a
single free-loop edge whose lift interval has integer length equal to the
winding number.
"""
from __future__ import annotations

import collections
import enum
import json
import math
import operator
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .surface import CriticalType, Surface, Target, _Checked, validate_critical_type


# boundary labels of the two sides of a cut; the circle normal form places
# them first and last by role, and cutting and gluing rely on both agreeing
SEAM_LOWER = "!B0"
SEAM_UPPER = "~B1"


class VertexKind(enum.Enum):
    MIN = "Min"
    MAX = "Max"
    SADDLE3 = "Saddle3"
    STAR2 = "Star2"
    BOUNDARY = "BoundaryCircle"

    # members are singletons compared by identity, so hashing by identity
    # agrees with equality; it runs in C, where Enum's hashes the name
    __hash__ = object.__hash__


_DEGREE = {
    VertexKind.MIN: 1,
    VertexKind.MAX: 1,
    VertexKind.SADDLE3: 3,
    VertexKind.STAR2: 2,
    VertexKind.BOUNDARY: 1,
}

# (numerator, denominator) of an int or a Fraction, in lowest terms with a
# positive denominator, so equal values give equal pairs
_parts = operator.attrgetter("numerator", "denominator")
_kind = operator.attrgetter("kind")
_id = operator.attrgetter("id")
_head = operator.attrgetter("head")


def _exact(x) -> int | Fraction:
    """``x`` as an exact number: an ``int`` or a ``Fraction`` is kept as the
    same object, anything else (a ``bool``, a ``float``, ...) becomes a
    ``Fraction``."""
    return x if type(x) is int or type(x) is Fraction else Fraction(x)


class _KRVertex(NamedTuple):
    id: int
    kind: VertexKind
    height: int | Fraction
    boundary_label: str | None = None


class KRVertex(_Checked, _KRVertex):
    """A vertex, as an immutable tuple record ``(id, kind, height,
    boundary_label)``: it unpacks, and it compares equal to the plain tuple
    of its fields.  Construction, ``_make`` and ``_replace`` all make the
    height exact and require a boundary label exactly on ``BOUNDARY``
    vertices."""

    __slots__ = ()

    def __new__(cls, id, kind, height, boundary_label=None):
        height = _exact(height)
        if (kind is VertexKind.BOUNDARY) != (boundary_label is not None):
            raise ValueError("boundary label exactly on BoundaryCircle vertices")
        return tuple.__new__(cls, (id, kind, height, boundary_label))


class _KREdge(NamedTuple):
    id: int
    tail: int | None
    head: int | None
    lift: tuple[int | Fraction, int | Fraction] | None = None


class KREdge(_Checked, _KREdge):
    """Oriented edge from ``tail`` (lower) to ``head`` (higher), as an
    immutable tuple record ``(id, tail, head, lift)``: it unpacks, and it
    compares equal to the plain tuple of its fields.

    For circle targets ``lift`` is the edge's height interval on the real
    line, congruent mod 1 to the endpoint heights; construction, ``_make``
    and ``_replace`` store it as a pair of exact numbers.  A free loop has
    ``tail is None and head is None`` and an integer-length lift.
    """

    __slots__ = ()

    def __new__(cls, id, tail, head, lift=None):
        if lift is not None:
            lo, hi = lift
            lift = (_exact(lo), _exact(hi))
        return tuple.__new__(cls, (id, tail, head, lift))


class KRGraph:
    """Vertex/edge container with the validity checks of a generic graph.

    Treat instances as immutable once constructed; every operation in this
    package builds new graphs rather than editing them in place.
    """

    def __init__(
        self,
        target: Target,
        vertices: Iterable[KRVertex],
        edges: Iterable[KREdge],
    ):
        self.target = target
        self.vertices: dict[int, KRVertex] = {}
        for v in vertices:
            vid = v.id
            if vid in self.vertices:
                raise ValueError(f"duplicate vertex id {vid}")
            self.vertices[vid] = v
        self.edges: list[KREdge] = list(edges)
        if len(set(map(_id, self.edges))) != len(self.edges):
            counts = collections.Counter(map(_id, self.edges))
            eid = next(eid for eid, n in counts.items() if n > 1)
            raise ValueError(f"duplicate edge id {eid}")
        self._validate()

    # -- basic accessors ----------------------------------------------------

    def boundary_labels(self) -> list[str]:
        return [
            v.boundary_label
            for v in self.vertices.values()
            if v.kind is VertexKind.BOUNDARY
        ]

    def counts(self) -> tuple[int, int, int]:
        """(c0, c1, c2): minima, saddles of both kinds, maxima."""
        kinds = collections.Counter(map(_kind, self.vertices.values()))
        return (
            kinds[VertexKind.MIN],
            kinds[VertexKind.SADDLE3] + kinds[VertexKind.STAR2],
            kinds[VertexKind.MAX],
        )

    def has_star(self) -> bool:
        return VertexKind.STAR2 in map(_kind, self.vertices.values())

    def is_free_loop(self) -> bool:
        return not self.vertices and len(self.edges) == 1

    def boundary_signs(self) -> dict[str, int]:
        """Per boundary label, +1 when the surface lies below its circle and
        -1 above.  Boundary vertices are the labelled ones; each has one
        edge, so it is that edge's head exactly when the surface lies below
        it."""
        heads = set(map(_head, self.edges))
        return {
            label: 1 if vid in heads else -1
            for vid, _, _, label in self.vertices.values()
            if label is not None
        }

    # -- validation ----------------------------------------------------------

    def _validate(self):
        """Check the graph in one pass over the edges, which also lists each
        vertex's neighbours, and a few over the vertices.  Line heights are
        compared as they are; circle heights and lifts, and the critical
        heights' distinctness, go through (numerator, denominator) pairs.
        So no check does ``Fraction`` arithmetic, and integer heights make
        no ``Fraction`` call at all."""
        vertices = self.vertices
        if self.is_free_loop():
            e = self.edges[0]
            if self.target is not Target.CIRCLE or e.tail is not None or e.head is not None:
                raise ValueError("free loop requires a Circle target and no vertices")
            lo, hi = e.lift
            if hi <= lo or (hi - lo).denominator != 1:
                raise ValueError("free loop winding must be a positive integer")
            return
        line = self.target is Target.LINE
        adjacent: dict[int, list[int]] = {vid: [] for vid in vertices}
        for eid, tail, head, lift in self.edges:
            if tail is None or head is None:
                raise ValueError("only a single free loop may omit endpoints")
            if tail not in adjacent or head not in adjacent:
                raise ValueError(f"edge {eid} references unknown vertices")
            adjacent[tail].append(head)
            adjacent[head].append(tail)
            low, high = vertices[tail].height, vertices[head].height
            if line:
                if lift is not None:
                    raise ValueError("Line-target edges carry no lift")
                if not low < high:
                    raise ValueError(f"edge {eid} must increase in height")
                continue
            if lift is None:
                raise ValueError("Circle-target edges need a lift interval")
            (ln, ld), (hn, hd) = map(_parts, lift)
            if not ln * hd < hn * ld:
                raise ValueError(f"edge {eid} lift must be increasing")
            # two reduced fractions differ by an integer exactly when they
            # share a denominator and their numerators agree modulo it
            (tn, td), (un, ud) = _parts(low), _parts(high)
            if ld != td or hd != ud or (ln - tn) % ld or (hn - un) % hd:
                raise ValueError(
                    f"edge {eid} lift endpoints must lift the vertex heights"
                )
        if not line:
            for v in vertices.values():
                n, d = _parts(v.height)
                if not 0 <= n < d:
                    raise ValueError("Circle-target heights live in [0, 1)")
        critical = []
        labels = []
        for vid, kind, height, label in vertices.values():
            d = len(adjacent[vid])
            if d != _DEGREE[kind]:
                raise ValueError(
                    f"vertex {vid} ({kind.value}) has degree {d}, "
                    f"expected {_DEGREE[kind]}"
                )
            if kind is VertexKind.BOUNDARY:
                labels.append(label)
            else:
                critical.append(_parts(height))
        if len(set(critical)) != len(critical):
            raise ValueError("critical vertices must have pairwise distinct heights")
        if len(set(labels)) != len(labels):
            raise ValueError("boundary labels must be distinct")
        if vertices:
            start = next(iter(vertices))
            seen = {start}
            stack = [start]
            while stack:
                for w in adjacent[stack.pop()]:
                    if w not in seen:
                        seen.add(w)
                        stack.append(w)
            if len(seen) != len(vertices):
                raise ValueError("graph must be connected")


def critical_type_of(graph: KRGraph, s: Surface, q: Sequence[int]) -> CriticalType:
    """Read the critical type off a graph, attaching the homotopy vector q."""
    if s.orientable and graph.has_star():
        raise ValueError("degree-two saddles require a non-orientable surface")
    eps = graph.boundary_signs()
    if eps.keys() != set(s.boundary):
        raise ValueError("graph boundary labels do not match the surface")
    k = CriticalType(graph.target, q, *graph.counts(), eps)
    problems = validate_critical_type(s, k)
    if problems:
        raise ValueError("; ".join(problems))
    return k


# ---------------------------------------------------------------------------
# Regular levels, fibers and cutting


def _level_range(e: KREdge, c: Fraction) -> range:
    """The integers k for which the level c + k meets the edge's lift.

    Intervals are open at both ends for anchored edges and half-open
    [lo, hi) for the free loop, whose endpoints are an arbitrary base point
    rather than vertices.  Every caller runs ``_require_regular`` first,
    which rejects each level congruent to a vertex height and so to each
    anchored lift end, so c + k == lo happens only on the free loop.
    """
    lo, hi = e.lift
    return range(math.ceil(lo - c), math.ceil(hi - c))


def _require_regular(graph: KRGraph, c: Fraction):
    if graph.target is Target.LINE:
        if any(v.height == c for v in graph.vertices.values()):
            raise ValueError(f"level {c} is not regular (vertex height)")
    else:
        frac = c - math.floor(c)
        if any(v.height == frac for v in graph.vertices.values()):
            raise ValueError(f"level {c} is not regular (vertex height mod 1)")


def regular_fiber_components(graph: KRGraph, c) -> int:
    """Number of circles in the fiber over a regular value."""
    c = Fraction(c)
    _require_regular(graph, c)
    if graph.target is Target.LINE:
        vs = graph.vertices
        return sum(vs[e.tail].height < c < vs[e.head].height for e in graph.edges)
    return sum(len(_level_range(e, c)) for e in graph.edges)


class PieceClass(enum.Enum):
    Q0 = "Q0"  # touches only the lower cut boundary
    Q01 = "Q01"  # spans from the lower to the upper cut boundary
    Q1 = "Q1"  # touches only the upper cut boundary


class CutPiece(NamedTuple):
    """One piece of a cut, as the Line-target graph of the cut map on it,
    in a tuple record ``(graph, piece_class)``.

    The piece's vertices keep their ids, at their lifts in [c, c + 1].
    Each severed edge end becomes a boundary-circle vertex, a seam: one
    labelled ``SEAM_LOWER`` sits at the lower copy of the level, where the
    piece leaves it going up, and one labelled ``SEAM_UPPER`` at the upper
    copy.  A side with more than one seam numbers them ``:0``, ``:1``, ...
    Seam ids follow the largest vertex id, in edge order, lower end first.
    A boundary label of the cut graph that equals a seam label of its
    piece is refused.
    """

    graph: KRGraph
    piece_class: PieceClass


def cut_at_level(graph: KRGraph, c) -> tuple[CutPiece, ...]:
    """Sever every edge crossing the level c + Z and classify the pieces.

    Each crossing produces an upper seam on the stretch below it and a
    lower seam on the stretch above it.  Pieces are the connected
    components of what remains, ordered by their smallest vertex id, and
    every height is given in the band [c, c + 1].

    A stretch runs between consecutive cut points or vertex ends of one
    edge, so it lies inside one band [c + k, c + k + 1] with
    k = floor(lo - c) for its lower end lo, and moves into [c, c + 1] on
    its own, by -k.  A vertex is not on the level, so it lies strictly
    inside the band of every stretch that meets it, and the same formula
    applied to its height gives the one lift all those stretches agree on.
    A free loop's two stretches either side of its base point join into
    one, which stays last in the loop's list.  Every piece has a seam: the
    graph is connected, so a piece without one would hold every edge,
    including the ones the level crosses.

    The graph was accepted, so a piece that fails the graph checks is a
    fault of the cut and raises ``AssertionError``.
    """
    if graph.target is not Target.CIRCLE:
        raise ValueError("cutting is defined for Circle-target graphs")
    c = Fraction(c)
    if not regular_fiber_components(graph, c):
        raise ValueError(f"level {c} crosses no edge; the cut is trivial")

    # (lower vertex or None for a cut end, upper likewise, lo, hi)
    stretches: list[tuple[int | None, int | None, Fraction, Fraction]] = []
    for e in graph.edges:
        lo, hi = e.lift
        marks = [lo, *(c + k for k in _level_range(e, c)), hi]
        ends = [e.tail] + [None] * (len(marks) - 2) + [e.head]
        run = list(zip(ends, ends[1:], marks, marks[1:]))
        if e.tail is None:
            # free loop: the stretches either side of the base point join
            run = run[1:-1] + [(None, None, run[-1][2] - (hi - lo), run[0][3])]
        for lower, upper, a, b in run:
            k = math.floor(a - c)
            stretches.append((lower, upper, a - k, b - k))

    by_vertex: dict[int, list[int]] = {}
    for idx, (lower, upper, _, _) in enumerate(stretches):
        for vid in (lower, upper):
            if vid is not None:
                by_vertex.setdefault(vid, []).append(idx)

    seen: set[int] = set()
    pieces = []
    for seed in range(len(stretches)):
        if seed in seen:
            continue
        seen.add(seed)
        stack = [seed]
        members = [stretches[seed]]
        vids: set[int] = set()
        while stack:
            lower, upper, _, _ = stretches[stack.pop()]
            for vid in (lower, upper):
                if vid is None or vid in vids:
                    continue
                vids.add(vid)
                for nxt in by_vertex[vid]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
                        members.append(stretches[nxt])
        vertices = []
        for vid in sorted(vids):
            v = graph.vertices[vid]
            lift = v.height - math.floor(v.height - c)
            vertices.append(KRVertex(vid, v.kind, lift, v.boundary_label))
        # the seam labels of each side, numbered when it has more than one
        sides = [sum(s[i] is None for s in members) for i in (0, 1)]
        seams = [
            [base] if n == 1 else [f"{base}:{i}" for i in range(n)]
            for base, n in zip((SEAM_LOWER, SEAM_UPPER), sides)
        ]
        taken = {v.boundary_label for v in vertices} & {*seams[0], *seams[1]}
        if taken:
            raise ValueError(
                f"boundary labels must be distinct: {min(taken)!r} is a seam of the cut"
            )
        labels = [iter(side) for side in seams]
        next_id = max(vids, default=-1) + 1
        edges = []
        for lower, upper, lo, hi in members:
            ends = [lower, upper]
            for side, lift in enumerate((lo, hi)):
                if ends[side] is None:
                    ends[side] = next_id
                    label = next(labels[side])
                    vertices.append(KRVertex(next_id, VertexKind.BOUNDARY, lift, label))
                    next_id += 1
            edges.append(KREdge(len(edges), *ends))
        if all(sides):
            cls = PieceClass.Q01
        else:
            cls = PieceClass.Q0 if sides[0] else PieceClass.Q1
        try:
            piece = KRGraph(Target.LINE, vertices, edges)
        except ValueError as exc:
            raise AssertionError(f"cut produced an inconsistent piece: {exc}") from None
        pieces.append(CutPiece(piece, cls))
    # pieces share no vertex; the vertexless pieces of a free loop, whose
    # seams all start at id 0, keep their stretch order
    pieces.sort(key=lambda p: min(p.graph.vertices))
    return tuple(pieces)


# ---------------------------------------------------------------------------
# Isomorphism and DOT output


def kr_isomorphic(a: KRGraph, b: KRGraph) -> bool:
    """Line-graph isomorphism respecting kinds, labels and height order.

    Generic graphs have distinct critical heights, so ordering every vertex
    by (height, label) pins the only possible correspondence; it remains to
    compare kinds, labels and the edge relation under it.
    """
    if a.target is not Target.LINE or b.target is not Target.LINE:
        raise ValueError("isomorphism comparison is for Line-target graphs")
    if len(a.vertices) != len(b.vertices) or len(a.edges) != len(b.edges):
        return False

    def order(g: KRGraph):
        vs = sorted(g.vertices.values(), key=lambda v: (v.height, v.boundary_label or ""))
        index = {v.id: i for i, v in enumerate(vs)}
        shape = [(v.kind, v.boundary_label) for v in vs]
        rel = sorted((index[e.tail], index[e.head]) for e in g.edges)
        return shape, rel

    return order(a) == order(b)


# each vertex's DOT attributes start with its kind's shape and name
_DOT_KIND = {
    kind: f'shape={shape}, kind="{kind.value}"'
    for kind, shape in (
        (VertexKind.MIN, "point"),
        (VertexKind.MAX, "point"),
        (VertexKind.SADDLE3, "triangle"),
        (VertexKind.STAR2, "star"),
        (VertexKind.BOUNDARY, "doublecircle"),
    )
}


# a DOT string in double quotes, with '"', '\\' and control characters
# escaped and any other character kept
_dot_quote = json.encoder.encode_basestring


def to_dot(graph: KRGraph) -> str:
    """Deterministic GraphViz DOT rendering of a graph."""
    lines = ["digraph kr {", f'  graph [target="{graph.target.value}"];']
    # vertex ids are distinct, so records sort by id alone
    for vid, kind, height, label in sorted(graph.vertices.values()):
        label = "" if label is None else f", boundary={_dot_quote(label)}"
        lines.append(f'  v{vid} [{_DOT_KIND[kind]}, height="{height}"{label}];')
    for eid, tail, head, lift in sorted(graph.edges, key=_id):
        lift = "" if lift is None else f', lift="{lift[0]}:{lift[1]}"'
        if tail is None:  # a free loop has no endpoints
            lines += '  loop [shape=none, label=""];', f"  loop -> loop [id={eid}{lift}];"
        else:
            lines.append(f"  v{tail} -> v{head} [id={eid}{lift}];")
    lines.append("}\n")
    return "\n".join(lines)
