"""Triangle meshes with exact rational heights and Reeb-graph extraction.

A mesh is a triangulated compact surface whose vertices carry heights in
Q.  Boundary circles are explicit vertex cycles, each at a constant
height.  Building a mesh gives every vertex an integer key that orders
and ties exactly like its height, and checks the mesh: one pass over the
triangles builds the incidence, and one breadth-first walk over the
vertex links orders every link and orients every triangle.  From then on
the checks and the sweep compare only keys.  Extraction sorts the
vertices by key once and sweeps them bottom-up, classifying each vertex
when it reaches it by the runs of lower vertices around its link.  Each
swept vertex keeps the id of the level circle above it, overridden on the
edges a split moves (walks along the level curve; union-find for merges).
That costs O(m) plus the smaller side of every split and the walks at
degree-two saddles, for m triangles.  Everything is exact;
inputs whose event heights collide are rejected rather than perturbed.
"""
from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

from .krgraph import KREdge, KRGraph, KRVertex, VertexKind, _exact, critical_type_of
from .surface import CriticalType, FormatError, Surface, Target, _Checked, _int_reader, _int_vector


class MeshFormatError(FormatError):
    """Raised for unparseable mesh text."""


class NotMorseError(ValueError):
    """The height function violates a Morse condition (monkey saddle,
    boundary tangency, non-constant boundary height)."""


class NotGenericError(ValueError):
    """Flat interior edge or coinciding event heights."""


class _HeightMesh(NamedTuple):
    orientable: bool
    heights: tuple[int | Fraction, ...]  # indexed by vertex id 0..n-1
    triangles: tuple[tuple[int, int, int], ...]
    boundary_cycles: tuple[tuple[str, tuple[int, ...]], ...] = ()


class HeightMesh(_Checked, _HeightMesh):
    """A checked mesh, as an immutable tuple record ``(orientable, heights,
    triangles, boundary_cycles)``: it unpacks, and it compares equal to the
    plain tuple of its fields.  Construction, ``_make`` and ``_replace``
    all convert the fields and check the mesh.

    ``__new__`` converts: heights to ``int`` or ``Fraction``, triangles and
    cycles to tuples of integers, and it rejects an ``orientable`` that is
    not a bool and a boundary label that HMESH text cannot carry (empty, or
    holding whitespace).  ``__init__`` builds the height keys and checks the
    mesh, which leaves the ordered link of each vertex: a cycle, or for a
    boundary vertex a path whose two ends are its neighbours on the boundary
    cycle.  A tuple subclass cannot have non-empty ``__slots__``, so the
    keys (``_keys``, ordered and tied like the heights) and links
    (``_links``) live in the instance dict, and ``__setattr__`` refuses
    every assignment.
    """

    def __new__(cls, orientable, heights, triangles, boundary_cycles=()):
        if type(orientable) is not bool:
            raise ValueError("orientable must be True or False")
        # convert only what is not already a tuple of the right types, as
        # ``parse_hmesh`` builds it: collecting the types (in C) costs a
        # tenth of rebuilding every height and triangle
        if type(heights) is not tuple or set(map(type, heights)) - {int, Fraction}:
            heights = tuple(map(_exact, heights))
        if (
            type(triangles) is not tuple
            or set(map(type, triangles)) - {tuple}
            or set(map(type, chain.from_iterable(triangles))) - {int}
        ):
            triangles = tuple(map(_int_vector, triangles))
        cycles = []
        for label, cyc in boundary_cycles:
            label = str(label)
            if label.split() != [label]:
                raise ValueError(
                    f"boundary label {label!r} must be non-empty, without whitespace"
                )
            cycles.append((label, _int_vector(cyc)))
        return tuple.__new__(cls, (orientable, heights, triangles, tuple(cycles)))

    def __init__(self, *args, **kwargs):
        object.__setattr__(self, "_keys", _height_keys(self.heights))
        object.__setattr__(self, "_links", _check_mesh(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to {name!r}: a HeightMesh is immutable")

    @property
    def num_vertices(self) -> int:
        return len(self.heights)

    def edges(self) -> set[tuple[int, int]]:
        return {(v, w) for v, link in enumerate(self._links) for w in link if v < w}

    def euler_characteristic(self) -> int:
        num_edges = sum(map(len, self._links)) // 2
        return self.num_vertices - num_edges + len(self.triangles)


# the largest lcm of the denominators that scales heights to integer keys;
# beyond it keys are ranks, so that many large coprime denominators cannot
# make every key as long as their product
_KEY_LCM_BITS = 64


def _height_keys(heights: tuple[int | Fraction, ...]) -> tuple[int, ...]:
    """One integer per height that orders and ties exactly like the heights:
    the heights themselves when they are all ``int``, else the height times
    the lcm of the denominators while that lcm fits in ``_KEY_LCM_BITS``
    bits, else its rank among the distinct heights."""
    if set(map(type, heights)) == {int}:
        return heights
    lcm = 1
    for d in {h.denominator for h in heights}:
        lcm = math.lcm(lcm, d)
        if lcm.bit_length() > _KEY_LCM_BITS:
            rank = {h: i for i, h in enumerate(sorted(set(heights)))}
            return tuple(map(rank.__getitem__, heights))
    return tuple(h.numerator * (lcm // h.denominator) for h in heights)


def _check_mesh(m: HeightMesh) -> tuple[tuple[int, ...], ...]:
    """Check that ``m`` is a valid mesh and return the ordered link of each
    vertex.

    One loop over the triangles builds the incidence: the triangles on each
    edge, keyed lo*n+hi, and the number at each vertex.  The links are then
    walked breadth-first from a vertex of triangle 0, each from triangle to
    triangle across the edges at its vertex.  A walk that misses part of the
    star (a pinched vertex) is rejected, and so is a vertex no walk reaches.
    Each walk also orients the triangles it crosses, the way the first one
    an earlier walk oriented says; a triangle oriented both ways means the
    mesh is not orientable.
    """
    n = m.num_vertices
    keys = m._keys
    tris = m.triangles
    if n == 0 or not tris:
        raise ValueError("mesh needs vertices and triangles")
    count = [0] * n  # triangles at each vertex
    edge_tris: dict[int, list[int]] = {}
    add = edge_tris.setdefault
    for i, t in enumerate(tris):
        a, b, c = t if len(t) == 3 else (0, 0, 0)  # not three vertices: degenerate
        if a == b or b == c or a == c:
            raise ValueError(f"degenerate triangle {t}")
        if not (0 <= a < n and 0 <= b < n and 0 <= c < n):
            v = next(v for v in t if not 0 <= v < n)
            raise ValueError(f"triangle vertex {v} out of range")
        count[a] += 1
        count[b] += 1
        count[c] += 1
        add(a * n + b if a < b else b * n + a, []).append(i)
        add(b * n + c if b < c else c * n + b, []).append(i)
        add(a * n + c if a < c else c * n + a, []).append(i)
    if not all(count):
        raise ValueError("every vertex must lie on a triangle")

    boundary_edges = set()
    successor: dict[int, int] = {}  # boundary vertex -> next vertex on its cycle
    for label, cyc in m.boundary_cycles:
        if len(cyc) < 3 or len(set(cyc)) != len(cyc):
            raise ValueError(f"boundary cycle {label!r} must be a simple cycle")
        for v in cyc:
            if not 0 <= v < n:
                raise ValueError(f"boundary vertex {v} out of range")
        if len({keys[v] for v in cyc}) != 1:
            raise NotMorseError(
                f"boundary cycle {label!r} is not at constant height"
            )
        for v, w in zip(cyc, cyc[1:] + cyc[:1]):
            if v in successor:
                raise ValueError(f"vertex {v} lies on two boundary cycles")
            successor[v] = w
            boundary_edges.add(v * n + w if v < w else w * n + v)
    labels = [label for label, _ in m.boundary_cycles]
    if len(set(labels)) != len(labels):
        raise ValueError("boundary labels must be distinct")

    for e, on_edge in edge_tris.items():
        if e in boundary_edges:
            if len(on_edge) != 1:
                raise ValueError(
                    f"boundary edge {divmod(e, n)} borders {len(on_edge)} triangles"
                )
        elif len(on_edge) != 2:
            raise ValueError(
                f"interior edge {divmod(e, n)} borders {len(on_edge)} triangles "
                "(surface is not closed there or not a manifold)"
            )
    for e in boundary_edges:
        if e not in edge_tris:
            raise ValueError(f"boundary edge {divmod(e, n)} is not a mesh edge")

    # flat edges are allowed only along a boundary cycle
    for e in edge_tris:
        a, b = divmod(e, n)
        if keys[a] == keys[b] and e not in boundary_edges:
            raise NotGenericError(f"flat interior edge {(a, b)}")

    # every edge at v borders two triangles, except the two boundary edges
    # of a boundary vertex, so a walk from a triangle at v closes a cycle,
    # or runs from one boundary edge to the other
    links: list = [None] * n
    sign = [0] * len(tris)  # +1 along a triangle's vertex order, -1 against
    start = [-1] * n  # the triangle where the walks reached each vertex
    orientable = connected = True
    order = [tris[0][0]]  # the vertices in the order their links are walked
    start[order[0]] = 0
    for i, v in enumerate(order):
        if v in successor:
            a = successor[v]
            t = edge_tris[v * n + a if v < a else a * n + v][0]
        else:
            t = start[v]
            x, y, _ = tris[t]
            a = y if x == v else x
        link = [a]
        w = a
        # +1 if the star is oriented v -> w -> next link vertex, -1 if the
        # other way round: the first triangle an earlier walk signed says
        # which, and the triangles no walk has signed are signed at the end
        way = 0
        unsigned = []
        while True:
            x, y, z = tris[t]
            # the vertex of t that is neither v nor the last one on the link,
            # and whether t runs v -> w -> that vertex
            if x != v and x != w:
                w, along = x, y == v
            elif y != v and y != w:
                w, along = y, z == v
            else:
                w, along = z, x == v
            s = sign[t]
            if not s:
                unsigned.append((t, along))
            elif not way:
                way = s if along else -s
            elif s != (way if along else -way):
                orientable = False
            if w == a:
                break  # the cycle is closed
            link.append(w)
            if start[w] < 0:
                start[w] = t
                order.append(w)
            pair = edge_tris[v * n + w if v < w else w * n + v]
            if len(pair) == 1:
                break  # the other boundary edge
            t = pair[0] + pair[1] - t  # the other triangle on the edge v w
        way = way or 1
        for t, along in unsigned:
            sign[t] = way if along else -way
        if len(link) - (v in successor) != count[v]:
            raise ValueError(f"vertex {v}: link is not connected")
        links[v] = tuple(link)
        if len(order) == i + 1 < n:
            # not connected, but walk on so that a pinched vertex wins
            connected = False
            t = sign.index(0)  # a triangle no walk has crossed
            start[tris[t][0]] = t
            order.append(tris[t][0])
    if not connected:
        raise ValueError("mesh must be connected")
    if orientable != m.orientable:
        word = "orientable" if m.orientable else "non-orientable"
        raise ValueError(f"mesh declared {word} but triangle gluing disagrees")
    return tuple(links)


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
    heights: dict[int, int | Fraction] = {}
    triangles = []
    cycles = []
    to_int = _int_reader(text)
    for lineno, raw in enumerate(text.splitlines(), 1):
        parts = raw.split()
        if not parts or parts[0][0] == "#":
            continue
        try:
            if parts[0] == "t":
                _, a, b, c = parts
                triangles.append((to_int(a), to_int(b), to_int(c)))
            elif parts[0] == "v":
                _, vid, height = parts  # no more and no fewer fields
                vid = to_int(vid)
                if vid in heights:
                    raise MeshFormatError(f"line {lineno}: duplicate vertex id {vid}")
                num, slash, den = height.partition("/")
                heights[vid] = Fraction(to_int(num), to_int(den)) if slash else to_int(num)
            elif parts[0] == "b":
                cycles.append((parts[1], tuple(map(to_int, parts[2:]))))
            elif parts[0] == "HMESH":
                if orientable is not None:
                    raise MeshFormatError(f"line {lineno}: duplicate HMESH header")
                if len(parts) != 2 or parts[1] not in ("orientable", "nonorientable"):
                    raise MeshFormatError("header must be 'HMESH orientable|nonorientable'")
                orientable = parts[1] == "orientable"
            else:
                raise MeshFormatError(f"unknown record {parts[0]!r}")
        except (IndexError, ValueError, ZeroDivisionError) as exc:
            if isinstance(exc, MeshFormatError):
                raise
            raise MeshFormatError(f"line {lineno}: cannot parse {raw.strip()!r}") from None
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
        lines.append(f"v {i} {h}")
    for a, b, c in m.triangles:
        lines.append(f"t {a} {b} {c}")
    for label, cyc in m.boundary_cycles:
        lines.append("b " + label + " " + " ".join(str(v) for v in cyc))
    return "\n".join(lines) + "\n"


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


def _sweep(m: HeightMesh):
    """Graph vertices and (tail, head) arcs of the Reeb graph, by one
    sweep that classifies each vertex when it reaches it; the graph reads
    the boundary signs off the arcs.

    The vertices are sorted once by the integer keys built with the mesh,
    ties by vertex id (the sort is stable), and from then on only integer
    ranks are compared; exact heights are only copied to the graph
    vertices.  A tie never decides a comparison between neighbours: only
    boundary edges may be flat, the ends of a boundary vertex's link path
    are skipped, and a boundary cycle is swept as one group.  Tied events
    are left for the caller to reject.

    An edge w -> v crossing the sweep level carries the circle id
    ``split_id.get(w*n+v, cid[w])``; the ids of one circle agree up to
    ``find``.
    """
    n = m.num_vertices
    links = m._links
    order = sorted(range(n), key=m._keys.__getitem__)
    rank = [0] * n
    for i, v in enumerate(order):
        rank[v] = i
    on_boundary = {v: (label, cyc) for label, cyc in m.boundary_cycles for v in cyc}

    cid = [0] * n
    split_id: dict[int, int] = {}
    parent: list[int] = []
    start: list[int] = []  # graph vertex where a circle's open arc begins
    closed = 0  # circles closed or merged; each fresh id opens one
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

    def circle(w: int, v: int) -> int:  # the circle that edge w -> v crosses
        return find(split_id.get(w * n + v, cid[w]))

    for v in order:
        r = rank[v]
        vid = len(vertices)
        if v in on_boundary:
            label, cyc = on_boundary[v]
            if label in swept:
                continue  # its cycle was swept with the cycle's first vertex
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
                # surface below: the level circle just below ends here
                closed += 1
                w, x = next((w, x) for x in cyc for w in links[x][1:-1])
                arcs.append((start[circle(w, x)], vid))
            else:
                c = fresh(vid)
                for x in cyc:
                    cid[x] = c
            continue
        link = links[v]
        lower = [rank[w] < r for w in link]
        runs = sum(map(operator.gt, lower, lower[-1:] + lower))
        if runs == 1:
            # regular: the lower edges are one run of one circle, which
            # the upper edges go on crossing
            w = link[lower.index(True)]
            cid[v] = split_id.get(w * n + v, cid[w])
            continue
        if runs > 2:
            raise NotMorseError(
                f"vertex {v} has a lower link with {runs} components "
                "(degenerate saddle)"
            )
        if runs == 0 and not lower[0]:
            kind = VertexKind.MIN
            cid[v] = fresh(vid)
        elif runs == 0:
            kind = VertexKind.MAX
            closed += 1
            arcs.append((start[circle(link[0], v)], vid))
        else:
            kind = VertexKind.SADDLE3
            saddle_runs = _saddle_runs(link, rank, r)
            a = cid[v] = circle(saddle_runs[1][0], v)
            b = circle(saddle_runs[3][0], v)
            if a != b:  # two circles merge
                closed += 1
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
                        split_id[key] = c
            start[a] = vid
        vertices.append(KRVertex(vid, kind, m.heights[v]))
    if closed != len(parent):
        raise AssertionError("level circles left open after the sweep")
    return vertices, arcs


def extract_kr_graph(m: HeightMesh) -> tuple[KRGraph, CriticalType]:
    """Sweep a mesh bottom-up and assemble its Reeb graph and critical type.

    Vertices are swept once in height order, each boundary cycle as one
    group.  Each interior vertex is classified when the sweep reaches it, by
    the runs of lower vertices around its link (none: a minimum; one:
    regular; two: a saddle; all of it: a maximum; more: ``NotMorseError``),
    and each boundary cycle, by which side its interior neighbours lie on,
    ends a circle or opens one.  Every swept vertex keeps the id of the level
    circle its upper edges cross, and an edge crossing the sweep level
    carries the id of its lower end unless a split overrode it:

    - a regular vertex takes the id of one of its lower edges;
    - a minimum, or a boundary circle with the surface above it, opens a
      circle with a fresh id; a maximum, or a boundary circle with the
      surface below it, closes the circle of one of its lower edges;
    - a saddle whose two lower runs carry different circles merges them
      (union-find) into an ordinary saddle;
    - otherwise the level curve is walked from both upper runs in turn: a
      walker that closes its own circle first has found the smaller half of
      a split (an ordinary saddle), whose edges get a fresh id as
      overrides; walkers that reach each other's run share one circle (a
      degree-two saddle).

    Event heights are the critical-vertex heights and the boundary-circle
    heights; they must be pairwise distinct.  That is checked after the
    sweep, on its graph vertices, so ``NotMorseError`` takes precedence over
    ``NotGenericError``.  The cost is O(m) for the sweep, which reads the
    vertex links ordered when the mesh was built, plus the smaller side of
    every split and the walks at degree-two saddles, plus one sort of the
    n integer height keys built with the mesh; exact heights are only
    compared in the tie check, and copied to the graph's vertices.  Graph
    vertices are numbered in height order and edges by (head, tail).
    The type is read by ``critical_type_of``.  The mesh was accepted, so
    a graph or type that fails its checks is a fault of the sweep and
    raises ``AssertionError``.
    """
    vertices, arcs = _sweep(m)
    if any(a.height == b.height for a, b in zip(vertices, vertices[1:])):
        raise NotGenericError("event heights are not pairwise distinct")
    surface = surface_of(m)
    edges = [KREdge(i, tail, head) for i, (tail, head) in enumerate(arcs)]
    try:
        graph = KRGraph(Target.LINE, vertices, edges)
        return graph, critical_type_of(graph, surface, (0,) * surface.homology_rank)
    except ValueError as exc:
        raise AssertionError(f"sweep produced an inconsistent graph: {exc}") from None
