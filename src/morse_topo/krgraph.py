"""The Kronrod-Reeb graph: the quotient of a surface by level-set components.

Vertices carry a kind (extremum, ordinary saddle, degree-two saddle, or
boundary circle) and an exact rational height; edges are oriented by
increasing height.  For circle-valued maps each edge also carries a lift of
its height interval to the real line, so winding is explicit and cutting at
a regular level is exact.

A graph for the critical-point-free fibration of the torus (or Klein
bottle) over the circle has no vertices at all; it is represented by a
single free-loop edge whose lift interval has integer length equal to the
winding number.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .surface import CriticalType, Surface, Target, validate_critical_type


# boundary labels of the two sides of a cut; they sort below and above
# every other label, and cutting and gluing rely on both agreeing
SEAM_LOWER = "!B0"
SEAM_UPPER = "~B1"


class VertexKind(enum.Enum):
    MIN = "Min"
    MAX = "Max"
    SADDLE3 = "Saddle3"
    STAR2 = "Star2"
    BOUNDARY = "BoundaryCircle"


_CRITICAL_KINDS = {VertexKind.MIN, VertexKind.MAX, VertexKind.SADDLE3, VertexKind.STAR2}

_DEGREE = {
    VertexKind.MIN: 1,
    VertexKind.MAX: 1,
    VertexKind.SADDLE3: 3,
    VertexKind.STAR2: 2,
    VertexKind.BOUNDARY: 1,
}


def _exact(x) -> Fraction:
    """``x`` as a ``Fraction``; a ``Fraction`` is kept as the same object."""
    return x if type(x) is Fraction else Fraction(x)


@dataclass(frozen=True)
class KRVertex:
    id: int
    kind: VertexKind
    height: Fraction
    boundary_label: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "height", _exact(self.height))
        if (self.kind is VertexKind.BOUNDARY) != (self.boundary_label is not None):
            raise ValueError("boundary label exactly on BoundaryCircle vertices")


@dataclass(frozen=True)
class KREdge:
    """Oriented edge from ``tail`` (lower) to ``head`` (higher).

    For circle targets ``lift`` is the edge's height interval on the real
    line, congruent mod 1 to the endpoint heights.  A free loop has
    ``tail is None and head is None`` and an integer-length lift.
    """

    id: int
    tail: int | None
    head: int | None
    lift: tuple[Fraction, Fraction] | None = None

    def __post_init__(self):
        if self.lift is not None:
            lo, hi = self.lift
            object.__setattr__(self, "lift", (_exact(lo), _exact(hi)))


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
            if v.id in self.vertices:
                raise ValueError(f"duplicate vertex id {v.id}")
            self.vertices[v.id] = v
        self.edges: list[KREdge] = list(edges)
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
        c0 = c1 = c2 = 0
        for v in self.vertices.values():
            if v.kind is VertexKind.MIN:
                c0 += 1
            elif v.kind is VertexKind.MAX:
                c2 += 1
            elif v.kind in (VertexKind.SADDLE3, VertexKind.STAR2):
                c1 += 1
        return c0, c1, c2

    def has_star(self) -> bool:
        return any(v.kind is VertexKind.STAR2 for v in self.vertices.values())

    def is_free_loop(self) -> bool:
        return not self.vertices and len(self.edges) == 1

    def boundary_signs(self) -> dict[int, int]:
        """Per boundary vertex, +1 when the surface lies below its circle and
        -1 above, from one pass over the edges."""
        signs: dict[int, int] = {}
        for e in self.edges:
            for vid, sign in ((e.head, 1), (e.tail, -1)):
                v = self.vertices.get(vid)
                if v is not None and v.kind is VertexKind.BOUNDARY:
                    signs.setdefault(vid, sign)
        return signs

    # -- validation ----------------------------------------------------------

    def _edge_endpoint_heights(self, e: KREdge) -> tuple[Fraction, Fraction]:
        return self.vertices[e.tail].height, self.vertices[e.head].height

    def _validate(self):
        if self.is_free_loop():
            e = self.edges[0]
            if self.target is not Target.CIRCLE or e.tail is not None or e.head is not None:
                raise ValueError("free loop requires a Circle target and no vertices")
            lo, hi = e.lift
            if hi <= lo or (hi - lo).denominator != 1:
                raise ValueError("free loop winding must be a positive integer")
            return
        degree = dict.fromkeys(self.vertices, 0)
        for e in self.edges:
            if e.tail is None or e.head is None:
                raise ValueError("only a single free loop may omit endpoints")
            if e.tail not in self.vertices or e.head not in self.vertices:
                raise ValueError(f"edge {e.id} references unknown vertices")
            degree[e.tail] += 1
            degree[e.head] += 1
            if self.target is Target.LINE:
                if e.lift is not None:
                    raise ValueError("Line-target edges carry no lift")
                lo, hi = self._edge_endpoint_heights(e)
                if not lo < hi:
                    raise ValueError(f"edge {e.id} must increase in height")
            else:
                if e.lift is None:
                    raise ValueError("Circle-target edges need a lift interval")
                lo, hi = e.lift
                if not lo < hi:
                    raise ValueError(f"edge {e.id} lift must be increasing")
                tl, hd = self._edge_endpoint_heights(e)
                if (lo - tl).denominator != 1 or (hi - hd).denominator != 1:
                    raise ValueError(
                        f"edge {e.id} lift endpoints must lift the vertex heights"
                    )
        if self.target is Target.CIRCLE:
            for v in self.vertices.values():
                if not 0 <= v.height < 1:
                    raise ValueError("Circle-target heights live in [0, 1)")
        for v in self.vertices.values():
            d = degree[v.id]
            if d != _DEGREE[v.kind]:
                raise ValueError(
                    f"vertex {v.id} ({v.kind.value}) has degree {d}, "
                    f"expected {_DEGREE[v.kind]}"
                )
        crit_heights = [
            v.height for v in self.vertices.values() if v.kind in _CRITICAL_KINDS
        ]
        if len(set(crit_heights)) != len(crit_heights):
            raise ValueError("critical vertices must have pairwise distinct heights")
        labels = self.boundary_labels()
        if len(set(labels)) != len(labels):
            raise ValueError("boundary labels must be distinct")
        if self.vertices and not self._connected():
            raise ValueError("graph must be connected")

    def _connected(self) -> bool:
        adj: dict[int, set[int]] = {v: set() for v in self.vertices}
        for e in self.edges:
            adj[e.tail].add(e.head)
            adj[e.head].add(e.tail)
        start = next(iter(self.vertices))
        seen = {start}
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.vertices)


def critical_type_of(graph: KRGraph, s: Surface, q: Sequence[int]) -> CriticalType:
    """Read the critical type off a graph, attaching the homotopy vector q."""
    if graph.has_star() and s.orientable:
        raise ValueError("degree-two saddles require a non-orientable surface")
    if set(graph.boundary_labels()) != set(s.boundary):
        raise ValueError("graph boundary labels do not match the surface")
    c0, c1, c2 = graph.counts()
    signs = graph.boundary_signs()
    eps = {
        v.boundary_label: signs[v.id]
        for v in graph.vertices.values()
        if v.kind is VertexKind.BOUNDARY
    }
    k = CriticalType(graph.target, tuple(int(x) for x in q), c0, c1, c2, eps)
    problems = validate_critical_type(s, k)
    if problems:
        raise ValueError("; ".join(problems))
    return k


# ---------------------------------------------------------------------------
# Regular levels, fibers and cutting


def _line_crossings(graph: KRGraph, c: Fraction) -> list[KREdge]:
    out = []
    for e in graph.edges:
        lo, hi = graph._edge_endpoint_heights(e)
        if lo < c < hi:
            out.append(e)
    return out


def _circle_crossings(graph: KRGraph, c: Fraction) -> list[tuple[KREdge, Fraction]]:
    """(edge, lift point) pairs where the level c + Z meets an edge lift.

    Intervals are open at both ends for anchored edges and half-open
    [lo, hi) for the free loop, whose endpoints are an arbitrary base point
    rather than vertices.  Every caller runs ``_require_regular`` first,
    which rejects each level congruent to a vertex height and so to each
    anchored lift end, so t == lo happens only on the free loop.
    """
    out = []
    for e in graph.edges:
        lo, hi = e.lift
        t = c + math.ceil(lo - c)  # smallest representative >= lo
        while t < hi:
            out.append((e, t))
            t += 1
    return out


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
        return len(_line_crossings(graph, c))
    return len(_circle_crossings(graph, c))


class PieceClass(enum.Enum):
    Q0 = "Q0"  # touches only the lower cut boundary
    Q01 = "Q01"  # spans from the lower to the upper cut boundary
    Q1 = "Q1"  # touches only the upper cut boundary


@dataclass(frozen=True)
class CutEnd:
    """A severed edge end: side 0 sits at the cut going up, side 1 coming down."""

    side: int
    lift: Fraction


@dataclass(frozen=True)
class PieceVertex:
    id: int
    kind: VertexKind
    lift: Fraction
    boundary_label: str | None = None


@dataclass(frozen=True)
class PieceEdge:
    lower: int | CutEnd
    upper: int | CutEnd


@dataclass(frozen=True)
class CutPiece:
    vertices: tuple[PieceVertex, ...]
    edges: tuple[PieceEdge, ...]
    piece_class: PieceClass


@dataclass(frozen=True)
class CutDecomposition:
    level: Fraction
    pieces: tuple[CutPiece, ...]


def cut_at_level(graph: KRGraph, c) -> CutDecomposition:
    """Sever every edge crossing the level c + Z and classify the pieces.

    Each crossing produces a side-1 attachment on the stretch below it and
    a side-0 attachment on the stretch above it.  Pieces are the connected
    components of what remains, and every lift is given in the band
    [c, c + 1].

    A stretch runs between consecutive cut points or vertex ends of one
    edge, so it lies inside one band [c + k, c + k + 1] with
    k = floor(lo - c) for its lower end lo, and moves into [c, c + 1] on
    its own, by -k.  A vertex is not on the level, so it lies strictly
    inside the band of every stretch that meets it, and the same formula
    applied to its height gives the one lift all those stretches agree on.
    A free loop's two stretches either side of its base point join into
    one, which stays last in the loop's list.
    """
    if graph.target is not Target.CIRCLE:
        raise ValueError("cutting is defined for Circle-target graphs")
    c = Fraction(c)
    _require_regular(graph, c)
    crossings = _circle_crossings(graph, c)
    if not crossings:
        raise ValueError(f"level {c} crosses no edge; the cut is trivial")

    cut_points: dict[int, list[Fraction]] = {}
    for e, t in crossings:
        cut_points.setdefault(e.id, []).append(t)
    # (lower vertex or None for a cut end, upper likewise, lo, hi)
    stretches: list[tuple[int | None, int | None, Fraction, Fraction]] = []
    for e in graph.edges:
        lo, hi = e.lift
        marks = [lo, *cut_points.get(e.id, ()), hi]
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
        pieces.append(_assemble_piece(graph, members, vids, c))
    pieces.sort(key=lambda p: (sorted(v.id for v in p.vertices), p.piece_class.value))
    return CutDecomposition(c, tuple(pieces))


def _assemble_piece(
    graph: KRGraph,
    stretches: list[tuple[int | None, int | None, Fraction, Fraction]],
    vids: set[int],
    c: Fraction,
) -> CutPiece:
    """The piece made of ``stretches``, whose vertices are ``vids``.

    Every piece has a cut end: the graph is connected, so a piece without
    one would hold every edge, including the ones the level crosses.
    """
    edges = [
        PieceEdge(
            CutEnd(0, lo) if lower is None else lower,
            CutEnd(1, hi) if upper is None else upper,
        )
        for lower, upper, lo, hi in stretches
    ]
    has0 = any(lower is None for lower, _, _, _ in stretches)
    has1 = any(upper is None for _, upper, _, _ in stretches)
    if has0 and has1:
        cls = PieceClass.Q01
    else:
        cls = PieceClass.Q0 if has0 else PieceClass.Q1
    pvs = []
    for vid in sorted(vids):
        v = graph.vertices[vid]
        lift = v.height - math.floor(v.height - c)
        pvs.append(PieceVertex(vid, v.kind, lift, v.boundary_label))
    return CutPiece(tuple(pvs), tuple(edges), cls)


def piece_to_line_graph(piece: CutPiece) -> KRGraph:
    """View a cut piece as a Line-target graph.

    Attachment points become boundary-circle vertices labelled
    ``SEAM_LOWER`` (side 0) and ``SEAM_UPPER`` (side 1); multiple
    attachments on a side get a numeric suffix.  Heights are the lifts, so
    the vertical order of the piece is preserved.
    """
    vertices = [
        KRVertex(v.id, v.kind, v.lift, v.boundary_label) for v in piece.vertices
    ]
    next_id = max((v.id for v in piece.vertices), default=-1) + 1
    counters = {0: 0, 1: 0}
    totals = {0: 0, 1: 0}
    for e in piece.edges:
        for end in (e.lower, e.upper):
            if isinstance(end, CutEnd):
                totals[end.side] += 1
    edges = []
    for eid, e in enumerate(piece.edges):
        ends = []
        for end in (e.lower, e.upper):
            if isinstance(end, CutEnd):
                base = SEAM_LOWER if end.side == 0 else SEAM_UPPER
                n = counters[end.side]
                counters[end.side] += 1
                label = base if totals[end.side] == 1 else f"{base}:{n}"
                vertices.append(
                    KRVertex(next_id, VertexKind.BOUNDARY, end.lift, label)
                )
                ends.append(next_id)
                next_id += 1
            else:
                ends.append(end)
        edges.append(KREdge(eid, ends[0], ends[1]))
    return KRGraph(Target.LINE, vertices, edges)


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


_DOT_SHAPE = {
    VertexKind.MIN: "point",
    VertexKind.MAX: "point",
    VertexKind.SADDLE3: "triangle",
    VertexKind.STAR2: "star",
    VertexKind.BOUNDARY: "doublecircle",
}


def to_dot(graph: KRGraph) -> str:
    """Deterministic GraphViz DOT rendering of a graph."""
    lines = ["digraph kr {"]
    lines.append(f'  graph [target="{graph.target.value}"];')
    for vid in sorted(graph.vertices):
        v = graph.vertices[vid]
        attrs = [
            f"shape={_DOT_SHAPE[v.kind]}",
            f'kind="{v.kind.value}"',
            f'height="{v.height}"',
        ]
        if v.boundary_label is not None:
            attrs.append(f'boundary="{v.boundary_label}"')
        lines.append(f"  v{vid} [{', '.join(attrs)}];")
    for e in sorted(graph.edges, key=lambda e: e.id):
        attrs = [f"id={e.id}"]
        if e.lift is not None:
            attrs.append(f'lift="{e.lift[0]}:{e.lift[1]}"')
        tail = f"v{e.tail}" if e.tail is not None else "loop"
        head = f"v{e.head}" if e.head is not None else "loop"
        if e.tail is None:
            lines.append('  loop [shape=none, label=""];')
        lines.append(f"  {tail} -> {head} [{', '.join(attrs)}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
