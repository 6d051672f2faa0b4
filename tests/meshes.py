"""Mesh corpus for the tests: one builder per surface, with and without holes.

All heights are exact integers or small fractions chosen so that every
event level is distinct and every interior edge is non-flat.  The torus
grid mimics an upright embedded torus: a product profile A_k * B_l plus a
tiny injective tie-breaker.
"""
from __future__ import annotations

import math
import random
from fractions import Fraction

from morse_topo.krgraph import KREdge, KRGraph, KRVertex, VertexKind
from morse_topo.mesh import (
    HeightMesh,
    NotGenericError,
    NotMorseError,
    _saddle_runs,
    _split_circle,
    surface_of,
)
from morse_topo.surface import CriticalType, Target

# sin- and (25 + 10*cos)-like integer profiles on 8 samples
_A = [0, 7, 10, 7, 0, -7, -10, -7]
_B = [35, 32, 25, 18, 15, 18, 25, 32]
_N = 8
_SCALE = 1024


def tetrahedron() -> HeightMesh:
    return HeightMesh(
        True,
        (Fraction(0), Fraction(1), Fraction(2), Fraction(3)),
        ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
    )


# two tetrahedra glued at vertex 0, as (heights, triangles): every edge
# borders two triangles, but the link of vertex 0 is two circles, so this is
# not a surface and HeightMesh rejects it
PINCHED_TETRAHEDRA = (
    tuple(Fraction(h) for h in (0, 1, 2, 3, -1, -2, -3)),
    ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 4, 5), (0, 4, 6), (0, 5, 6), (4, 5, 6)),
)


def octahedron() -> HeightMesh:
    """Sphere with a tilted linear height (poles at the extremes)."""
    # vertices: +x, -x, +y, -y, +z, -z with height z + x/4 + y/16
    heights = (
        Fraction(1, 4),
        Fraction(-1, 4),
        Fraction(1, 16),
        Fraction(-1, 16),
        Fraction(1),
        Fraction(-1),
    )
    tris = []
    for top, bot in ((4, 5),):
        for a, b in ((0, 2), (2, 1), (1, 3), (3, 0)):
            tris.append((top, a, b))
            tris.append((bot, a, b))
    return HeightMesh(True, heights, tuple(tris))


def disk(pointing_up: bool = True) -> HeightMesh:
    """Cone over a square: one extremum plus a constant-height boundary."""
    apex = Fraction(-1) if pointing_up else Fraction(1)
    heights = (apex, Fraction(0), Fraction(0), Fraction(0), Fraction(0))
    tris = tuple((0, 1 + i, 1 + (i + 1) % 4) for i in range(4))
    return HeightMesh(True, heights, tris, (("hole", (1, 2, 3, 4)),))


def cylinder() -> HeightMesh:
    heights = tuple([Fraction(0)] * 4 + [Fraction(1)] * 4)
    tris = []
    for i in range(4):
        j = (i + 1) % 4
        tris.append((i, j, 4 + j))
        tris.append((i, 4 + j, 4 + i))
    return HeightMesh(
        True,
        heights,
        tuple(tris),
        (("bottom", (0, 1, 2, 3)), ("top", (4, 5, 6, 7))),
    )


def _grid_vertex(k: int, l: int, n: int = _N) -> int:
    return (k % n) * n + (l % n)


def _grid_triangles(twisted: bool, n: int = _N):
    """Triangulated n x n grid on the torus, or with a flipped vertical seam."""

    def vertex(k, l):
        if twisted and k >= n:
            return _grid_vertex(k - n, -l, n)
        return _grid_vertex(k, l, n)

    tris = []
    for k in range(n):
        for l in range(n):
            a = vertex(k, l)
            b = vertex(k + 1, l)
            c = vertex(k + 1, l + 1)
            d = vertex(k, l + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return tuple(tris)


def torus_grid() -> HeightMesh:
    heights = [Fraction(0)] * (_N * _N)
    for k in range(_N):
        for l in range(_N):
            heights[_grid_vertex(k, l)] = Fraction(
                _A[k] * _B[l] * _SCALE + (_N * k + l)
            )
    return HeightMesh(True, tuple(heights), _grid_triangles(twisted=False))


def projective_plane() -> HeightMesh:
    """Six-vertex triangulation (antipodal icosahedron quotient)."""
    faces = (
        (0, 1, 4),
        (0, 1, 5),
        (0, 2, 3),
        (0, 2, 5),
        (0, 3, 4),
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 5),
        (2, 4, 5),
        (3, 4, 5),
    )
    heights = tuple(Fraction(i) for i in range(6))
    return HeightMesh(False, heights, faces)


def _moebius_data(core_heights, rail_heights):
    """Three-rail twisted strip: rows j=0,1,2, seam identifies (N,j)~(0,2-j)."""
    def vid(k, j):
        if k >= _N:
            return ((k - _N) % _N) * 3 + (2 - j)
        return (k % _N) * 3 + j

    tris = []
    for k in range(_N):
        for j in (0, 1):
            a = vid(k, j)
            b = vid(k + 1, j)
            c = vid(k + 1, j + 1)
            d = vid(k, j + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    heights = [Fraction(0)] * (3 * _N)
    for k in range(_N):
        heights[vid(k, 1)] = Fraction(core_heights[k])
        heights[vid(k, 0)] = Fraction(rail_heights[2 * k])
        heights[vid(k, 2)] = Fraction(rail_heights[2 * k + 1])
    boundary = tuple(vid(k, 0) for k in range(_N)) + tuple(
        vid(k, 2) for k in range(_N)
    )
    return heights, tuple(tris), boundary


def moebius() -> HeightMesh:
    """Projective plane with a hole: boundary at 0, core rising to a maximum."""
    core = [10 + k for k in range(_N)]
    rails = [0] * (2 * _N)
    heights, tris, boundary = _moebius_data(core, rails)
    return HeightMesh(False, tuple(heights), tris, (("rim", boundary),))


def klein_square() -> HeightMesh:
    """Klein bottle as the flat-square identification grid.

    The height profile runs along the direction the seam reverses, so both
    critical circles are one-sided and perturb into degree-two saddles.
    """
    C = [10, 7, 0, -7, -10, -7, 0, 7]
    D = [0, 1, 2, 3, 4, 3, 2, 1]
    heights = [Fraction(0)] * (_N * _N)
    for k in range(_N):
        for l in range(_N):
            heights[_grid_vertex(k, l)] = Fraction(
                _SCALE * C[l] + 16 * D[k] + _N * k + l
            )
    return HeightMesh(False, tuple(heights), _grid_triangles(twisted=True))


def klein_bottle() -> HeightMesh:
    """Two Moebius strips glued along their boundary circles."""
    up_core = [10 + k for k in range(_N)]
    down_core = [-10 - k for k in range(_N)]
    rails = [Fraction(i - _N, 100) for i in range(2 * _N)]
    h_up, t_up, b_up = _moebius_data(up_core, rails)
    h_down, t_down, b_down = _moebius_data(down_core, rails)
    # second strip reuses the same rail vertices; shift its core ids
    remap = {}
    heights = list(h_up)
    for k in range(_N):
        old = k * 3 + 1
        remap[old] = len(heights)
        heights.append(h_down[old])
    def conv(v):
        return remap.get(v, v) if v % 3 == 1 else v
    tris = list(t_up) + [tuple(conv(v) for v in t) for t in t_down]
    return HeightMesh(False, tuple(heights), tuple(tris))


def puncture_extremum(m: HeightMesh, vertex: int, label: str, ring_height) -> HeightMesh:
    """Open a hole at a conical extremum.

    Removes the vertex and its star; the link becomes a boundary cycle at
    ``ring_height``, which must clear every remaining neighbour of the ring
    (above all of them for a punctured maximum, below for a minimum).
    """
    ring_height = Fraction(ring_height)
    link_pairs = []
    kept_tris = []
    for t in m.triangles:
        if vertex in t:
            link_pairs.append(tuple(v for v in t if v != vertex))
        else:
            kept_tris.append(t)
    ring_adj: dict[int, list[int]] = {}
    for a, b in link_pairs:
        ring_adj.setdefault(a, []).append(b)
        ring_adj.setdefault(b, []).append(a)
    start = min(ring_adj)
    cycle = [start]
    prev = None
    while True:
        nexts = [w for w in ring_adj[cycle[-1]] if w != prev]
        if not nexts:
            raise ValueError("extremum link is not a cycle")
        prev = cycle[-1]
        if nexts[0] == start:
            break
        cycle.append(nexts[0])
    if len(cycle) != len(ring_adj):
        raise ValueError("extremum link is not a single cycle")

    old_to_new = {}
    heights = []
    for v in range(m.num_vertices):
        if v == vertex:
            continue
        old_to_new[v] = len(heights)
        heights.append(ring_height if v in ring_adj else m.heights[v])
    tris = tuple(tuple(old_to_new[v] for v in t) for t in kept_tris)
    cycles = tuple(
        (lab, tuple(old_to_new[v] for v in cyc)) for lab, cyc in m.boundary_cycles
    )
    cycles += ((label, tuple(old_to_new[v] for v in cycle)),)
    return HeightMesh(m.orientable, tuple(heights), tris, cycles)


def torus_with_hole() -> HeightMesh:
    max_vertex = _grid_vertex(2, 0)
    return puncture_extremum(torus_grid(), max_vertex, "hole", 500 * _SCALE)


def klein_with_hole() -> HeightMesh:
    m = klein_bottle()
    top = max(range(m.num_vertices), key=lambda v: m.heights[v])
    return puncture_extremum(m, top, "hole", 40)


def genus_two() -> HeightMesh:
    """Two punctured torus grids glued along their rings."""
    lower = torus_grid()
    top_vertex = _grid_vertex(2, 0)
    lower = puncture_extremum(lower, top_vertex, "glue", 500 * _SCALE)
    # mirrored copy: heights reflected above the ring
    upper_heights = tuple(1000 * _SCALE * _SCALE - h for h in torus_grid().heights)
    upper = HeightMesh(True, upper_heights, _grid_triangles(twisted=False))
    upper = puncture_extremum(upper, top_vertex, "glue", 500 * _SCALE)

    ring_lower = dict(lower.boundary_cycles)["glue"]
    ring_upper = dict(upper.boundary_cycles)["glue"]
    heights = list(lower.heights)
    remap = {}
    for v in range(upper.num_vertices):
        if v in ring_upper:
            remap[v] = ring_lower[ring_upper.index(v)]
        else:
            remap[v] = len(heights)
            heights.append(upper.heights[v])
    # the shared ring becomes interior: spread its heights to avoid flat edges
    for i, v in enumerate(ring_lower):
        heights[v] = Fraction(500 * _SCALE + i)
    tris = tuple(lower.triangles) + tuple(
        tuple(remap[v] for v in t) for t in upper.triangles
    )
    return HeightMesh(True, tuple(heights), tris)


def genus_two_with_hole() -> HeightMesh:
    m = genus_two()
    bottom = min(range(m.num_vertices), key=lambda v: m.heights[v])
    return puncture_extremum(m, bottom, "hole", -500 * _SCALE)


def corpus() -> dict[str, HeightMesh]:
    return {
        "sphere_tetrahedron": tetrahedron(),
        "sphere_octahedron": octahedron(),
        "disk": disk(),
        "cylinder": cylinder(),
        "torus": torus_grid(),
        "torus_hole": torus_with_hole(),
        "genus2": genus_two(),
        "genus2_hole": genus_two_with_hole(),
        "projective_plane": projective_plane(),
        "moebius": moebius(),
        "klein": klein_bottle(),
        "klein_square": klein_square(),
        "klein_hole": klein_with_hole(),
    }


def baseline_torus(n: int, f: int) -> HeightMesh:
    """n x n torus grid with f waves each way: the height
    sin(2 pi f k/n + 0.3) cos(2 pi f l/n + 0.7) + 0.3 sin(2 pi k/n + 0.1 l)
    rounded at 1e-6, scaled by 4 n^2 and tie-broken by the grid index, so
    all heights are distinct integers.  8 f^2 critical points for the f
    used in the tests."""
    heights = [Fraction(0)] * (n * n)
    for k in range(n):
        for l in range(n):
            h = math.sin(2 * math.pi * f * k / n + 0.3) * math.cos(
                2 * math.pi * f * l / n + 0.7
            ) + 0.3 * math.sin(2 * math.pi * k / n + 0.1 * l)
            heights[_grid_vertex(k, l, n)] = Fraction(
                round(h * 1e6) * 4 * n * n + (n * k + l)
            )
    return HeightMesh(True, tuple(heights), _grid_triangles(False, n))


def random_grid_mesh(rng: random.Random, family: str, n: int) -> HeightMesh:
    """An n x n grid torus ("torus"), Klein bottle ("klein") or torus with a
    hole at its top or bottom ("holed"), with random distinct integer heights.

    The heights need not be Morse: extraction raises ``NotMorseError`` at a
    degenerate saddle, and a hole whose ring has a chord raises
    ``NotGenericError`` (a flat interior edge) when the mesh is built.
    """
    heights = tuple(Fraction(h) for h in rng.sample(range(4 * n * n), n * n))
    m = HeightMesh(family != "klein", heights, _grid_triangles(family == "klein", n))
    if family != "holed":
        return m
    pick = max if rng.random() < 0.5 else min
    v = pick(range(n * n), key=heights.__getitem__)
    return puncture_extremum(m, v, "hole", heights[v])


def relabelled(m: HeightMesh, rng: random.Random) -> HeightMesh:
    """``m`` with its vertices renumbered and its triangles shuffled, each
    rotated and, at random, reversed, as the benchmark relabels its meshes."""
    perm = list(range(m.num_vertices))
    rng.shuffle(perm)
    heights = [Fraction(0)] * m.num_vertices
    for v, h in enumerate(m.heights):
        heights[perm[v]] = h
    tris = []
    for t in rng.sample(m.triangles, len(m.triangles)):
        r = rng.randrange(3)
        t = [perm[v] for v in t[r:] + t[:r]]
        tris.append(tuple(reversed(t)) if rng.random() < 0.5 else tuple(t))
    cycles = tuple((label, tuple(perm[v] for v in cyc)) for label, cyc in m.boundary_cycles)
    return HeightMesh(m.orientable, tuple(heights), tuple(tris), cycles)


def refine(m: HeightMesh) -> HeightMesh:
    """``m`` with every triangle split 1-to-4 at its edge midpoints, each
    midpoint at the exact mean height of its edge, so the height is the
    same piecewise-linear map and the Reeb graph does not change.

    In a triangle with a flat (boundary) edge, the two midpoints opposite
    it have equal heights; the quad they border is split along the other
    diagonal instead, from the apex to the flat edge's midpoint, so no
    interior edge is flat.  Boundary cycles take their midpoints too.
    """
    heights = list(m.heights)
    mid: dict[frozenset, int] = {}

    def midpoint(u: int, w: int) -> int:
        e = frozenset((u, w))
        if e not in mid:
            mid[e] = len(heights)
            heights.append((m.heights[u] + m.heights[w]) / 2)
        return mid[e]

    tris = []
    for t in m.triangles:
        k = next((k for k in range(3) if m.heights[t[k]] == m.heights[t[k - 2]]), 0)
        a, b, c = t[k:] + t[:k]  # a rotation, so (a, b) is the flat edge if any
        ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
        tris += [(a, ab, ca), (ab, b, bc)]
        if m.heights[a] == m.heights[b]:
            tris += [(ab, bc, c), (ab, c, ca)]
        else:
            tris += [(ca, bc, c), (ab, bc, ca)]
    cycles = tuple(
        (label, tuple(x for u, w in zip(cyc, cyc[1:] + cyc[:1]) for x in (u, midpoint(u, w))))
        for label, cyc in m.boundary_cycles
    )
    return HeightMesh(m.orientable, tuple(heights), tuple(tris), cycles)


def oracle_links(m: HeightMesh) -> list[list[int]]:
    """The link of every vertex, chained from the unordered pairs of
    vertices opposite it in its triangles: a cycle, or for a boundary vertex
    a path between its two neighbours on the boundary."""
    opposite: list[dict[int, list[int]]] = [{} for _ in range(m.num_vertices)]
    for a, b, c in m.triangles:
        for v, x, y in ((a, b, c), (b, c, a), (c, a, b)):
            opposite[v].setdefault(x, []).append(y)
            opposite[v].setdefault(y, []).append(x)
    links = []
    for pairs in opposite:
        ends = [x for x, ys in pairs.items() if len(ys) == 1]
        link = [ends[0] if ends else min(pairs)]
        prev = None
        while True:
            step = [y for y in pairs[link[-1]] if y != prev]
            if not step or step[0] == link[0]:
                break
            prev = link[-1]
            link.append(step[0])
        links.append(link)
    return links


def oracle_orientable(m: HeightMesh) -> bool:
    """Whether the connected mesh ``m`` is orientable, from its orientation
    double cover: a node per triangle and orientation, joined across every
    interior edge to the orientation of the neighbour that runs the edge the
    other way.  The cover has two components if the surface is orientable,
    one if it is not."""
    import networkx as nx

    runs: dict[frozenset, list[tuple[int, int]]] = {}  # edge -> (triangle, tail)
    for i, (a, b, c) in enumerate(m.triangles):
        for u, w in ((a, b), (b, c), (c, a)):
            runs.setdefault(frozenset((u, w)), []).append((i, u))
    cover = nx.Graph()
    cover.add_nodes_from((i, s) for i in range(len(m.triangles)) for s in (1, -1))
    for pair in runs.values():
        if len(pair) == 2:
            (i, u), (j, x) = pair
            # with orientations s and s', the two run the edge opposite ways
            # when s' = s if their vertex orders already do, else s' = -s
            for s in (1, -1):
                cover.add_edge((i, s), (j, -s if u == x else s))
    return nx.number_connected_components(cover) == 2


def level_circles(m: HeightMesh, c) -> list[frozenset]:
    """Circles of the level set at a regular height ``c``, as sets of
    crossing edges: union-find over the edges the level crosses."""
    c = Fraction(c)
    crossing = []
    for a, b, cc in m.triangles:
        for u, v in ((a, b), (b, cc), (a, cc)):
            lo, hi = sorted((m.heights[u], m.heights[v]))
            if lo < c < hi:
                crossing.append((min(u, v), max(u, v)))
    crossing = sorted(set(crossing))
    parent = {e: e for e in crossing}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b, cc in m.triangles:
        tri_edges = []
        for u, v in ((a, b), (b, cc), (a, cc)):
            e = (min(u, v), max(u, v))
            if e in parent:
                tri_edges.append(e)
        for i in range(1, len(tri_edges)):
            ra, rb = find(tri_edges[0]), find(tri_edges[i])
            if ra != rb:
                parent[ra] = rb
    circles: dict = {}
    for e in crossing:
        circles.setdefault(find(e), set()).add(e)
    return [frozenset(comp) for comp in circles.values()]


def brute_force_fiber_count(m: HeightMesh, c) -> int:
    """Independent level-set circle count."""
    return len(level_circles(m, c))


# ---------------------------------------------------------------------------
# Brute-force Reeb graph: the reference the library's sweep is tested against


def _tri_edges(t):
    a, b, c = t
    return ((min(a, b), max(a, b)), (min(b, c), max(b, c)), (min(a, c), max(a, c)))


def _oracle_classify(m: HeightMesh):
    """Minima, saddles, maxima and boundary signs from exact height compares.

    An interior vertex is a minimum, regular, a saddle or a maximum when
    its lower neighbours form 0, 1 or 2 runs around its link, or all of it.
    """
    adj: dict[int, dict[int, list[int]]] = {}
    for t in m.triangles:
        for i, v in enumerate(t):
            a, b = t[(i + 1) % 3], t[(i + 2) % 3]
            link = adj.setdefault(v, {})
            link.setdefault(a, []).append(b)
            link.setdefault(b, []).append(a)
    on_boundary = {v: label for label, cyc in m.boundary_cycles for v in cyc}
    minima, saddles, maxima = [], [], []
    sides: dict[str, set[int]] = {label: set() for label, _ in m.boundary_cycles}
    for v, link in sorted(adj.items()):
        h = m.heights[v]
        if v in on_boundary:
            sides[on_boundary[v]].update(
                1 if m.heights[w] > h else -1 for w in link if m.heights[w] != h
            )
            continue
        order, prev = [min(link)], None
        while True:
            nxt = next(w for w in link[order[-1]] if w != prev)
            if nxt == order[0]:
                break
            prev = order[-1]
            order.append(nxt)
        lower = [m.heights[w] < h for w in order]
        runs = sum(1 for i, low in enumerate(lower) if low and not lower[i - 1])
        if all(lower):
            maxima.append(v)
        elif runs == 0:
            minima.append(v)
        elif runs == 2:
            saddles.append(v)
        elif runs > 2:
            raise NotMorseError(f"vertex {v} has a lower link with {runs} components")
    eps = {}
    for label, s in sides.items():
        if s not in ({-1}, {1}):
            raise NotMorseError(f"boundary cycle {label!r} has neighbours on both sides")
        eps[label] = 1 if s == {-1} else -1
    return minima, saddles, maxima, eps


def _slab_components(m: HeightMesh, lo, hi) -> dict[int, int]:
    """Triangle -> component id over triangles meeting the height band [lo, hi]."""
    members = [
        i
        for i, t in enumerate(m.triangles)
        if min(m.heights[v] for v in t) <= hi and max(m.heights[v] for v in t) >= lo
    ]
    by_edge: dict[tuple[int, int], list[int]] = {}
    for i in members:
        for e in _tri_edges(m.triangles[i]):
            ea, eb = m.heights[e[0]], m.heights[e[1]]
            if min(ea, eb) <= hi and max(ea, eb) >= lo:
                by_edge.setdefault(e, []).append(i)
    comp: dict[int, int] = {}
    cid = 0
    for i in members:
        if i in comp:
            continue
        comp[i] = cid
        stack = [i]
        while stack:
            for e in _tri_edges(m.triangles[stack.pop()]):
                for nb in by_edge.get(e, ()):
                    if nb not in comp:
                        comp[nb] = cid
                        stack.append(nb)
        cid += 1
    return comp


def brute_force_reeb(m: HeightMesh) -> tuple[KRGraph, CriticalType]:
    """Reeb graph by sampling every gap between events and linking circles.

    One sample level sits inside each gap between consecutive event
    heights; the level circles there come from ``level_circles``, and each
    event links the circles below it to those above it through the
    connected components of the slab spanning the two samples.  The slab
    component holding the event gives the graph vertex (its realised
    degree tells an ordinary saddle from a degree-two one); every other
    slab component is a cylinder and carries an edge through.  Cost
    O(events x (edges + triangles)); it raises the library's
    ``NotMorseError``/``NotGenericError`` on the inputs the library rejects.
    """
    minima, saddles, maxima, eps = _oracle_classify(m)
    events = [(m.heights[v], "min", v) for v in minima]
    events += [(m.heights[v], "saddle", v) for v in saddles]
    events += [(m.heights[v], "max", v) for v in maxima]
    events += [(m.heights[cyc[0]], "boundary", label) for label, cyc in m.boundary_cycles]
    if len({h for h, _, _ in events}) != len(events):
        raise NotGenericError("event heights are not pairwise distinct")
    events.sort(key=lambda e: e[0])

    tri_of_edge: dict[tuple[int, int], list[int]] = {}
    for i, t in enumerate(m.triangles):
        for e in _tri_edges(t):
            tri_of_edge.setdefault(e, []).append(i)
    # a sample level in each gap, below the next vertex height
    all_heights = sorted(set(m.heights))
    samples = [None]
    for h, _, _ in events[:-1]:
        samples.append((h + min(x for x in all_heights if x > h)) / 2)
    samples.append(None)
    circles = [[] if c is None else level_circles(m, c) for c in samples]

    vertices: list[KRVertex] = []
    edges: list[KREdge] = []
    open_edges: dict[frozenset, int] = {}  # circle -> lower vertex of its edge
    for i, (h, etype, payload) in enumerate(events):
        lo = samples[i] if samples[i] is not None else h - 1
        hi = samples[i + 1] if samples[i + 1] is not None else h + 1
        tri_comp = _slab_components(m, lo, hi)
        if etype == "boundary":
            cyc = dict(m.boundary_cycles)[payload]
            probe = (min(cyc[0], cyc[1]), max(cyc[0], cyc[1]))
            event_slab = tri_comp[tri_of_edge[probe][0]]
        else:
            event_slab = tri_comp[next(j for j, t in enumerate(m.triangles) if payload in t)]

        def slab_of(circle):
            return next(tri_comp[t] for t in tri_of_edge[min(circle)] if t in tri_comp)

        below = {circle: slab_of(circle) for circle in circles[i]}
        above = {circle: slab_of(circle) for circle in circles[i + 1]}
        attach_below = [c for c, s in below.items() if s == event_slab]
        attach_above = [c for c, s in above.items() if s == event_slab]
        if etype == "saddle":
            degree = len(attach_below) + len(attach_above)
            kind = {3: VertexKind.SADDLE3, 2: VertexKind.STAR2}[degree]
        else:
            kind = {
                "min": VertexKind.MIN,
                "max": VertexKind.MAX,
                "boundary": VertexKind.BOUNDARY,
            }[etype]
        vid = len(vertices)
        label = payload if etype == "boundary" else None
        vertices.append(KRVertex(vid, kind, h, label))
        for c in attach_below:
            edges.append(KREdge(len(edges), open_edges.pop(c), vid))
        for c in attach_above:
            open_edges[c] = vid
        # cylinders: re-key the untouched circles to their continuations above
        passing = {s: c for c, s in below.items() if s != event_slab}
        for c, s in above.items():
            if s != event_slab:
                open_edges[c] = open_edges.pop(passing.pop(s))
        assert not passing, "level circle vanished without an event"
    assert not open_edges, "unclosed level circles after the sweep"

    surface = surface_of(m)
    ktype = CriticalType(
        Target.LINE, (0,) * surface.homology_rank, len(minima), len(saddles),
        len(maxima), eps,
    )
    return KRGraph(Target.LINE, vertices, edges), ktype


# ---------------------------------------------------------------------------
# Reference sweep: the library's sweep with a dict of every crossing edge


def reference_sweep(m: HeightMesh):
    """Oracle for ``mesh._sweep``: the same bottom-up sweep, but keeping
    the id of every edge that crosses the sweep level in a dict keyed
    lower*n+upper, popping a vertex's lower edges and pushing its upper
    edges at every vertex, regular or not.  Open circles are the edges left
    in the dict at the end.  Boundary signs are not kept: the graph reads
    them off the arcs, and ``brute_force_reeb`` checks them."""
    n = m.num_vertices
    links = m._links
    order = sorted(range(n), key=m._keys.__getitem__)
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    on_boundary = {v: (label, cyc) for label, cyc in m.boundary_cycles for v in cyc}
    contour: dict[int, int] = {}
    parent: list[int] = []
    start: list[int] = []
    vertices: list[KRVertex] = []
    arcs: list[tuple[int, int]] = []
    swept: set[str] = set()  # boundary labels

    def fresh(at: int) -> int:
        parent.append(len(parent))
        start.append(at)
        return len(parent) - 1

    def find(c: int) -> int:
        while parent[c] != c:
            parent[c] = c = parent[parent[c]]
        return c

    for v in order:
        r = rank[v]
        vid = len(vertices)
        if v in on_boundary:
            label, cyc = on_boundary[v]
            if label in swept:
                continue
            swept.add(label)
            above = {rank[w] > r for x in cyc for w in links[x][1:-1]}
            if not above:
                raise NotMorseError(
                    f"boundary cycle {label!r} has no interior neighbours, "
                    "so the height is constant near it"
                )
            if len(above) != 1:
                raise NotMorseError(
                    f"boundary cycle {label!r} has interior neighbours on both sides"
                )
            vertices.append(KRVertex(vid, VertexKind.BOUNDARY, m.heights[v], label))
            if above == {False}:
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
        link = links[v]
        lower = [rank[w] < r for w in link]
        runs = sum(1 for i, low in enumerate(lower) if low and not lower[i - 1])
        if runs == 1:
            for w, low in zip(link, lower):
                if low:
                    c = contour.pop(w * n + v)
            for w, low in zip(link, lower):
                if not low:
                    contour[v * n + w] = c
            continue
        if runs > 2:
            raise NotMorseError(
                f"vertex {v} has a lower link with {runs} components "
                "(degenerate saddle)"
            )
        if runs == 0 and not lower[0]:
            kind = VertexKind.MIN
            c = fresh(vid)
            for w in link:
                contour[v * n + w] = c
        elif runs == 0:
            kind = VertexKind.MAX
            for w in link:
                c = contour.pop(w * n + v)
            arcs.append((start[find(c)], vid))
        else:
            kind = VertexKind.SADDLE3
            saddle_runs = _saddle_runs(link, rank, r)
            up1, low1, up2, low2 = saddle_runs
            a = find(contour[low1[0] * n + v])
            b = find(contour[low2[0] * n + v])
            for w in low1 + low2:
                del contour[w * n + v]
            for w in up1 + up2:
                contour[v * n + w] = a
            if a != b:
                arcs.extend((t, vid) for t in sorted((start[a], start[b])))
                parent[b] = a
            else:
                arcs.append((start[a], vid))
                split = _split_circle(v, saddle_runs, rank, links, n)
                if split is None:
                    kind = VertexKind.STAR2
                else:
                    c = fresh(vid)
                    for key in split:
                        contour[key] = c
            start[a] = vid
        vertices.append(KRVertex(vid, kind, m.heights[v]))
    if contour:
        raise AssertionError("level circles left open after the sweep")
    return vertices, arcs
