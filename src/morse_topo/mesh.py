"""Triangle meshes with exact rational heights and Reeb-graph extraction.

A mesh is a triangulated compact surface whose vertices carry heights in
Q.  Boundary circles are explicit vertex cycles, each at a constant
height.  Extraction sorts the heights once and from then on compares only
integer ranks: it classifies interior vertices by the runs of lower
vertices around their links, then sweeps the vertices bottom-up once,
labelling every edge that crosses the sweep level with the id of its level
circle (union-find for merges, walks along the level curve for splits).
That costs O(m) plus the smaller side of every split and the walks at
degree-two saddles, for m triangles.  Everything is exact; inputs whose
event heights collide are rejected rather than perturbed.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .krgraph import KREdge, KRGraph, KRVertex, VertexKind
from .surface import CriticalType, Surface, Target, validate_critical_type


class MeshFormatError(ValueError):
    """Raised for unparseable mesh text."""


class NotMorseError(ValueError):
    """The height function violates a Morse condition (monkey saddle,
    boundary tangency, non-constant boundary height)."""


class NotGenericError(ValueError):
    """Flat interior edge or coinciding event heights."""


@dataclass(frozen=True)
class HeightMesh:
    orientable: bool
    heights: tuple[Fraction, ...]  # indexed by vertex id 0..n-1
    triangles: tuple[tuple[int, int, int], ...]
    boundary_cycles: tuple[tuple[str, tuple[int, ...]], ...] = ()

    def __post_init__(self):
        object.__setattr__(
            self, "heights", tuple(Fraction(h) for h in self.heights)
        )
        object.__setattr__(
            self,
            "triangles",
            tuple(tuple(int(v) for v in t) for t in self.triangles),
        )
        object.__setattr__(
            self,
            "boundary_cycles",
            tuple(
                (str(label), tuple(int(v) for v in cyc))
                for label, cyc in self.boundary_cycles
            ),
        )
        _check_mesh(self)

    @property
    def num_vertices(self) -> int:
        return len(self.heights)

    def edges(self) -> set[tuple[int, int]]:
        out = set()
        for a, b, c in self.triangles:
            out.update({_norm(a, b), _norm(b, c), _norm(a, c)})
        return out

    def euler_characteristic(self) -> int:
        return self.num_vertices - len(self.edges()) + len(self.triangles)

    def boundary_vertex_cycle(self, vid: int) -> str | None:
        for label, cyc in self.boundary_cycles:
            if vid in cyc:
                return label
        return None


def _norm(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


def _check_mesh(m: HeightMesh):
    n = m.num_vertices
    if n == 0 or not m.triangles:
        raise ValueError("mesh needs vertices and triangles")
    used = set()
    edge_count: dict[tuple[int, int], int] = {}
    for t in m.triangles:
        if len(set(t)) != 3:
            raise ValueError(f"degenerate triangle {t}")
        for v in t:
            if not 0 <= v < n:
                raise ValueError(f"triangle vertex {v} out of range")
            used.add(v)
        for e in (_norm(t[0], t[1]), _norm(t[1], t[2]), _norm(t[0], t[2])):
            edge_count[e] = edge_count.get(e, 0) + 1
    if used != set(range(n)):
        raise ValueError("every vertex must lie on a triangle")

    boundary_edges = set()
    boundary_vertices: dict[int, str] = {}
    for label, cyc in m.boundary_cycles:
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            raise ValueError(f"boundary cycle {label!r} must be a simple cycle")
        heights = {m.heights[v] for v in cyc}
        if len(heights) != 1:
            raise NotMorseError(
                f"boundary cycle {label!r} is not at constant height"
            )
        for v in cyc:
            if v in boundary_vertices:
                raise ValueError(f"vertex {v} lies on two boundary cycles")
            boundary_vertices[v] = label
        for i in range(len(cyc)):
            e = _norm(cyc[i], cyc[(i + 1) % len(cyc)])
            if e in boundary_edges:
                raise ValueError(f"repeated boundary edge {e}")
            boundary_edges.add(e)
    labels = [label for label, _ in m.boundary_cycles]
    if len(set(labels)) != len(labels):
        raise ValueError("boundary labels must be distinct")

    for e, cnt in edge_count.items():
        if e in boundary_edges:
            if cnt != 1:
                raise ValueError(f"boundary edge {e} borders {cnt} triangles")
        elif cnt != 2:
            raise ValueError(
                f"interior edge {e} borders {cnt} triangles (surface is not "
                "closed there or not a manifold)"
            )
    for e in boundary_edges:
        if e not in edge_count:
            raise ValueError(f"boundary edge {e} is not a mesh edge")

    # flat edges are allowed only along a boundary cycle
    for a, b in edge_count:
        if m.heights[a] == m.heights[b] and _norm(a, b) not in boundary_edges:
            raise NotGenericError(f"flat interior edge {(a, b)}")

    if not _mesh_connected(m, edge_count):
        raise ValueError("mesh must be connected")
    if _is_orientable(m) != m.orientable:
        word = "orientable" if m.orientable else "non-orientable"
        raise ValueError(f"mesh declared {word} but triangle gluing disagrees")


def _mesh_connected(m: HeightMesh, edge_count) -> bool:
    adj: dict[int, set[int]] = {v: set() for v in range(m.num_vertices)}
    for a, b in edge_count:
        adj[a].add(b)
        adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == m.num_vertices


def _is_orientable(m: HeightMesh) -> bool:
    """Propagate triangle orientations across shared edges."""
    side: dict[tuple[int, int], list[int]] = {}
    for idx, (a, b, c) in enumerate(m.triangles):
        for e in (_norm(a, b), _norm(b, c), _norm(a, c)):
            side.setdefault(e, []).append(idx)
    orient: dict[int, int] = {}

    def directed_edges(idx, flip):
        a, b, c = m.triangles[idx]
        cyc = (a, b, c) if flip == 1 else (a, c, b)
        return [(cyc[0], cyc[1]), (cyc[1], cyc[2]), (cyc[2], cyc[0])]

    for start in range(len(m.triangles)):
        if start in orient:
            continue
        orient[start] = 1
        stack = [start]
        while stack:
            idx = stack.pop()
            des = directed_edges(idx, orient[idx])
            for u, v in des:
                for nb in side[_norm(u, v)]:
                    if nb == idx:
                        continue
                    # consistent orientation traverses the shared edge oppositely
                    want = -1 if (u, v) in directed_edges(nb, 1) else 1
                    if nb not in orient:
                        orient[nb] = want
                        stack.append(nb)
                    elif orient[nb] != want:
                        return False
    return True


def surface_of(m: HeightMesh) -> Surface:
    """Identify the surface type of a mesh from its Euler characteristic."""
    chi = m.euler_characteristic()
    b = len(m.boundary_cycles)
    labels = tuple(label for label, _ in m.boundary_cycles)
    if m.orientable:
        g2 = 2 - chi - b
        if g2 % 2 or g2 < 0:
            raise ValueError("impossible Euler characteristic for the mesh")
        return Surface(True, g2 // 2, labels)
    return Surface(False, 2 - chi - b, labels)


# ---------------------------------------------------------------------------
# Text format


def parse_hmesh(text: str) -> HeightMesh:
    orientable = None
    heights: dict[int, Fraction] = {}
    triangles = []
    cycles = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        try:
            if parts[0] == "HMESH":
                if len(parts) != 2 or parts[1] not in ("orientable", "nonorientable"):
                    raise MeshFormatError("header must be 'HMESH orientable|nonorientable'")
                orientable = parts[1] == "orientable"
            elif parts[0] == "v":
                vid = int(parts[1])
                num, _, den = parts[2].partition("/")
                heights[vid] = Fraction(int(num), int(den) if den else 1)
            elif parts[0] == "t":
                triangles.append((int(parts[1]), int(parts[2]), int(parts[3])))
            elif parts[0] == "b":
                cycles.append((parts[1], tuple(int(x) for x in parts[2:])))
            else:
                raise MeshFormatError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, MeshFormatError):
                raise
            raise MeshFormatError(f"line {lineno}: cannot parse {line!r}") from None
    if orientable is None:
        raise MeshFormatError("missing HMESH header")
    if set(heights) != set(range(len(heights))):
        raise MeshFormatError("vertex ids must be 0..n-1")
    return HeightMesh(
        orientable,
        tuple(heights[i] for i in range(len(heights))),
        tuple(triangles),
        tuple(cycles),
    )


def format_hmesh(m: HeightMesh) -> str:
    lines = [f"HMESH {'orientable' if m.orientable else 'nonorientable'}"]
    for i, h in enumerate(m.heights):
        lines.append(f"v {i} {h.numerator}/{h.denominator}")
    for a, b, c in m.triangles:
        lines.append(f"t {a} {b} {c}")
    for label, cyc in m.boundary_cycles:
        lines.append("b " + label + " " + " ".join(str(v) for v in cyc))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# PL classification


def _vertex_links(m: HeightMesh) -> dict[int, list[tuple[int, int]]]:
    """For each vertex, the edges of its link (opposite sides of triangles)."""
    link: dict[int, list[tuple[int, int]]] = {v: [] for v in range(m.num_vertices)}
    for a, b, c in m.triangles:
        link[a].append((b, c))
        link[b].append((a, c))
        link[c].append((a, b))
    return link


def _link_cycle(vid: int, pairs: list[tuple[int, int]], on_boundary: bool):
    """Order the link of a vertex into a cycle (interior) or path (boundary)."""
    adj: dict[int, list[int]] = {}
    for u, w in pairs:
        adj.setdefault(u, []).append(w)
        adj.setdefault(w, []).append(u)
    degrees = {u: len(v) for u, v in adj.items()}
    odd = [u for u, d in degrees.items() if d == 1]
    if on_boundary:
        if len(odd) != 2 or any(d > 2 for d in degrees.values()):
            raise ValueError(f"vertex {vid}: boundary link is not a simple path")
        start = min(odd)
    else:
        if odd or any(d != 2 for d in degrees.values()):
            raise ValueError(f"vertex {vid}: link is not a simple cycle")
        start = min(adj)
    order = [start]
    prev = None
    while True:
        nexts = [w for w in adj[order[-1]] if w != prev]
        if not nexts:
            break
        prev = order[-1]
        order.append(nexts[0])
        if not on_boundary and order[-1] == start:
            order.pop()
            break
        if len(order) > len(adj):
            raise ValueError(f"vertex {vid}: link is not connected")
    if len(order) != len(adj):
        raise ValueError(f"vertex {vid}: link is not connected")
    return order


@dataclass(frozen=True)
class _Classification:
    order: list[int]  # vertex ids sorted by height, ties by id
    rank: list[int]  # position of each vertex in ``order``
    # ordered link of each vertex: a cycle, or for a boundary vertex a path
    # whose two ends are its neighbours on the boundary cycle
    links: list[list[int]]
    minima: tuple[int, ...]
    saddles: tuple[int, ...]
    maxima: tuple[int, ...]
    eps: dict[str, int]


def _classify_vertices(m: HeightMesh) -> _Classification:
    """Classify vertices by their lower links, comparing integer height ranks.

    Ties between equal heights are broken by vertex id; that never decides
    a comparison below, because only boundary edges may be flat and the
    ends of a boundary vertex's link path are skipped.
    """
    order = sorted(range(m.num_vertices), key=m.heights.__getitem__)
    rank = [0] * len(order)
    for i, v in enumerate(order):
        rank[v] = i
    pairs = _vertex_links(m)
    on_boundary = {v: label for label, cyc in m.boundary_cycles for v in cyc}
    links = []
    minima, saddles, maxima = [], [], []
    cycle_sides: dict[str, set[int]] = {label: set() for label, _ in m.boundary_cycles}
    for v in range(m.num_vertices):
        link = _link_cycle(v, pairs[v], v in on_boundary)
        links.append(link)
        r = rank[v]
        if v in on_boundary:
            cycle_sides[on_boundary[v]].update(
                1 if rank[w] > r else -1 for w in link[1:-1]
            )
            continue
        lower = [rank[w] < r for w in link]
        if all(lower):
            maxima.append(v)
            continue
        runs = sum(1 for i, low in enumerate(lower) if low and not lower[i - 1])
        if runs == 0:
            minima.append(v)
        elif runs == 2:
            saddles.append(v)
        elif runs > 2:
            raise NotMorseError(
                f"vertex {v} has a lower link with {runs} components "
                "(degenerate saddle)"
            )
    eps = {}
    for label, sides in cycle_sides.items():
        if sides == {-1}:
            eps[label] = 1  # surface below: the map increases towards the circle
        elif sides == {1}:
            eps[label] = -1
        else:
            raise NotMorseError(
                f"boundary cycle {label!r} has interior neighbours on both sides"
            )
    return _Classification(
        order, rank, links, tuple(minima), tuple(saddles), tuple(maxima), eps
    )


# ---------------------------------------------------------------------------
# The sweep


def _saddle_runs(link: list[int], rank: list[int], r: int) -> list[list[int]]:
    """The link of a saddle of rank ``r`` as its four alternating runs
    [upper, lower, upper, lower], in link order."""
    i = next(i for i in range(len(link)) if rank[link[i - 1]] < r < rank[link[i]])
    link = link[i:] + link[:i]
    runs = [[link[0]]]
    for prev, w in zip(link, link[1:]):
        if (rank[prev] > r) == (rank[w] > r):
            runs[-1].append(w)
        else:
            runs.append([w])
    return runs


def _split_circle(v: int, runs, rank: list[int], links, n: int):
    """Walk the level curve just above the saddle ``v`` from both upper runs.

    A state ``(p, q, back)`` is a crossing edge with lower end ``p`` and
    upper end ``q``, entered through the triangle ``p q back``; the next
    crossing edge is the other one of the triangle on the far side, whose
    third vertex sits next to ``p`` in the link of ``q``.  Each walker
    starts where its run leaves the star of ``v`` and the two step in turn
    until one re-enters the star.  Returns the edge keys of the walker's
    circle when it came back to its own run (the circles split), or None
    when it reached the other run (one circle: a degree-two saddle).  The
    cost is at most twice the shorter of the two walks.
    """
    up1, low1, up2, low2 = runs
    r = rank[v]
    walkers = ((up1, [low1[0], up1[-1], v], []), (up2, [low2[0], up2[-1], v], []))
    while True:
        for own, state, trail in walkers:
            p, q, back = state
            if p == v:
                if q in own:
                    return trail + [v * n + u for u in own]
                return None
            trail.append(p * n + q)
            link = links[q]
            i = link.index(p)
            after = link[i + 1] if i + 1 < len(link) else link[0]
            s = link[i - 1] if after == back else after
            state[:] = (s, q, p) if rank[s] <= r else (p, s, q)


def _sweep(m: HeightMesh, cls: _Classification):
    """Graph vertices and (tail, head) arcs of the Reeb graph, by one sweep."""
    n = m.num_vertices
    rank, links = cls.rank, cls.links
    special: dict[int, object] = {
        **dict.fromkeys(cls.minima, VertexKind.MIN),
        **dict.fromkeys(cls.saddles, VertexKind.SADDLE3),
        **dict.fromkeys(cls.maxima, VertexKind.MAX),
    }
    for label, cyc in m.boundary_cycles:
        special.update(dict.fromkeys(cyc))  # None: skipped, see below
        special[min(cyc, key=rank.__getitem__)] = (label, cyc)

    # contour id of every edge crossing the sweep level, keyed lower*n+upper;
    # the ids of one level circle agree up to ``find``
    contour: dict[int, int] = {}
    parent: list[int] = []
    start: list[int] = []  # graph vertex where a contour's open arc begins
    vertices: list[KRVertex] = []
    arcs: list[tuple[int, int]] = []

    def fresh(at: int) -> int:
        parent.append(len(parent))
        start.append(at)
        return len(parent) - 1

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for v in cls.order:
        r = rank[v]
        link = links[v]
        if v not in special:
            # regular: the lower edges are one run of one circle, and the
            # upper edges take their place on it
            for w in link:
                if rank[w] < r:
                    c = contour.pop(w * n + v)
            for w in link:
                if rank[w] > r:
                    contour[v * n + w] = c
            continue
        what = special[v]
        if what is None:
            continue  # its cycle was swept with the cycle's first vertex
        vid = len(vertices)
        if isinstance(what, tuple):
            label, cyc = what
            vertices.append(KRVertex(vid, VertexKind.BOUNDARY, m.heights[v], label))
            if cls.eps[label] == 1:  # the circle just below ends here
                for x in cyc:
                    for w in links[x][1:-1]:
                        c = contour.pop(w * n + x)
                arcs.append((start[find(c)], vid))
            else:
                c = fresh(vid)
                for x in cyc:
                    for w in links[x][1:-1]:
                        contour[x * n + w] = c
            continue
        if what is VertexKind.MIN:
            c = fresh(vid)
            for w in link:
                contour[v * n + w] = c
        elif what is VertexKind.MAX:
            for w in link:
                c = contour.pop(w * n + v)
            arcs.append((start[find(c)], vid))
        else:
            runs = _saddle_runs(link, rank, r)
            up1, low1, up2, low2 = runs
            a = find(contour[low1[0] * n + v])
            b = find(contour[low2[0] * n + v])
            for w in low1 + low2:
                del contour[w * n + v]
            for w in up1 + up2:
                contour[v * n + w] = a
            if a != b:  # two circles merge
                arcs.extend((t, vid) for t in sorted((start[a], start[b])))
                parent[b] = a
            else:
                arcs.append((start[a], vid))
                split = _split_circle(v, runs, rank, links, n)
                if split is None:
                    what = VertexKind.STAR2
                else:
                    c = fresh(vid)
                    for key in split:
                        contour[key] = c
            start[a] = vid
        vertices.append(KRVertex(vid, what, m.heights[v]))
    if contour:
        raise AssertionError("level circles left open after the sweep")
    return vertices, arcs


def extract_kr_graph(m: HeightMesh) -> tuple[KRGraph, CriticalType]:
    """Sweep a mesh bottom-up and assemble its Reeb graph and critical type.

    Event heights are the critical-vertex heights and the boundary-circle
    heights; they must be pairwise distinct.  Vertices are swept once in
    height order, each boundary cycle as one group, and every edge crossing
    the sweep level carries the id of its level circle:

    - a regular vertex hands the id of its lower edges to its upper edges;
    - a minimum, or a boundary circle with the surface above it, opens a
      circle; a maximum, or a boundary circle with the surface below it,
      closes one;
    - a saddle whose two lower runs carry different circles merges them
      (union-find) into an ordinary saddle;
    - otherwise the level curve is walked from both upper runs in turn: a
      walker that closes its own circle first has found the smaller half of
      a split (an ordinary saddle), whose edges get a fresh id; walkers that
      reach each other's run share one circle (a degree-two saddle).

    The cost is O(m) for the links and the sweep, plus the smaller side of
    every split and the walks at degree-two saddles, plus one sort of the
    n heights; exact heights are only compared in that sort and copied to
    the graph's vertices.  Graph vertices are numbered in height order and
    edges by (head, tail).
    """
    cls = _classify_vertices(m)
    events = [*cls.minima, *cls.saddles, *cls.maxima]
    events += [cyc[0] for _, cyc in m.boundary_cycles]
    heights = [m.heights[v] for v in sorted(events, key=cls.rank.__getitem__)]
    if any(a == b for a, b in zip(heights, heights[1:])):
        raise NotGenericError("event heights are not pairwise distinct")

    vertices, arcs = _sweep(m, cls)
    edges = [KREdge(i, tail, head) for i, (tail, head) in enumerate(arcs)]
    graph = KRGraph(Target.LINE, vertices, edges)
    surface = surface_of(m)
    ktype = CriticalType(
        Target.LINE,
        (0,) * surface.homology_rank,
        len(cls.minima),
        len(cls.saddles),
        len(cls.maxima),
        cls.eps,
    )
    problems = validate_critical_type(surface, ktype)
    if problems:
        raise AssertionError("sweep produced an inconsistent type: " + "; ".join(problems))
    return graph, ktype
