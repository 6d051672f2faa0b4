"""Seeded height meshes for the ``reeb-*`` workloads.

Every mesh is an N x N grid with two triangles per square, glued into a
torus, a Klein bottle (the vertical seam flipped) or a torus with one hole
(the star of the highest vertex removed).  Heights follow the torus
formula of the ROADMAP Baseline: a float profile rounded at 1e6, scaled by
4N^2 and tie-broken by the grid index, so all heights are distinct
integers and no edge is flat.

A variant (its phases) is fixed when the references are recorded; the run
seed then draws a relabelling of the vertices, a shuffle and re-orientation
of the triangles and a positive affine change of heights.  None of these
change the Reeb graph beyond renaming and the height map, so the recorded
reference still decides whether an output is right.
"""
from __future__ import annotations

import math
import random


def grid_triangles(n: int, twisted: bool) -> list[tuple[int, int, int]]:
    def vertex(k, l):
        if twisted and k >= n:
            k, l = k - n, -l
        return (k % n) * n + (l % n)

    tris = []
    for k in range(n):
        for l in range(n):
            a, b = vertex(k, l), vertex(k + 1, l)
            c, d = vertex(k + 1, l + 1), vertex(k, l + 1)
            tris.append((a, b, c))
            tris.append((a, c, d))
    return tris


def _profile(family: str, n: int, f: int, phases, k: int, l: int) -> float:
    p1, p2 = phases
    tau = 2 * math.pi
    if family == "torus":
        # the ROADMAP Baseline formula with seeded phases
        return math.sin(tau * f * k / n + p1) * math.cos(
            tau * f * l / n + p2
        ) + 0.3 * math.sin(tau * k / n + 0.1 * l)
    if family == "klein":
        # even in l, so it is continuous across the flipped seam
        return math.cos(tau * l / n) + 0.4 * math.cos(tau * k / n + p1)
    # plain and holed: a tilted torus, four critical points
    return math.cos(tau * k / n + p1) + 0.5 * math.cos(tau * l / n + p2)


def base_mesh(family: str, n: int, f: int, phases):
    """(orientable, heights, triangles, boundary cycles) before relabelling."""
    heights = [0] * (n * n)
    for k in range(n):
        for l in range(n):
            v = _profile(family, n, f, phases, k, l)
            heights[n * k + l] = round(v * 1e6) * 4 * n * n + (n * k + l)
    tris = grid_triangles(n, twisted=family == "klein")
    if family != "holed":
        return family != "klein", heights, tris, []
    return (True, *_puncture_top(heights, tris))


def _puncture_top(heights, tris):
    """Remove the star of the highest vertex; its link becomes a boundary
    circle at that vertex's height, above every remaining vertex."""
    top = max(range(len(heights)), key=heights.__getitem__)
    ring_adj: dict[int, list[int]] = {}
    kept = []
    for t in tris:
        if top in t:
            a, b = (v for v in t if v != top)
            ring_adj.setdefault(a, []).append(b)
            ring_adj.setdefault(b, []).append(a)
        else:
            kept.append(t)
    cycle = [min(ring_adj)]
    prev = None
    while True:
        nxt = next(w for w in ring_adj[cycle[-1]] if w != prev)
        if nxt == cycle[0]:
            break
        prev = cycle[-1]
        cycle.append(nxt)
    remap = {}
    new_heights = []
    for v, h in enumerate(heights):
        if v != top:
            remap[v] = len(new_heights)
            new_heights.append(heights[top] if v in ring_adj else h)
    tris = [tuple(remap[v] for v in t) for t in kept]
    return new_heights, tris, [("hole", [remap[v] for v in cycle])]


def lower_link_runs(heights, tris, boundary) -> dict[int, int]:
    """Runs of lower neighbours around each interior vertex (-1: all lower).

    Independent of the program: a vertex is Morse when it has 0 runs
    (minimum), -1 (maximum), 1 (regular) or 2 (saddle).
    """
    on_boundary = {v for _, cyc in boundary for v in cyc}
    link: dict[int, dict[int, list[int]]] = {}
    for t in tris:
        for idx, v in enumerate(t):
            a, b = t[(idx + 1) % 3], t[(idx + 2) % 3]
            adj = link.setdefault(v, {})
            adj.setdefault(a, []).append(b)
            adj.setdefault(b, []).append(a)
    runs = {}
    for v, adj in link.items():
        if v in on_boundary:
            continue
        start = min(adj)
        order, prev = [start], None
        while True:
            nxt = next(w for w in adj[order[-1]] if w != prev)
            if nxt == start:
                break
            prev = order[-1]
            order.append(nxt)
        if len(order) != len(adj):
            raise ValueError(f"link of vertex {v} is not one cycle")
        flags = [heights[w] < heights[v] for w in order]
        runs[v] = -1 if all(flags) else sum(
            1 for i in range(len(flags)) if flags[i] and not flags[i - 1]
        )
    return runs


def is_morse(heights, tris, boundary) -> bool:
    """Distinct heights off the boundary and no degenerate saddle."""
    on_boundary = {v for _, cyc in boundary for v in cyc}
    interior = [h for v, h in enumerate(heights) if v not in on_boundary]
    if len(set(interior)) != len(interior):
        return False
    return all(r <= 2 for r in lower_link_runs(heights, tris, boundary).values())


def draw_phases(key: str) -> tuple[float, float]:
    """Deterministic phases of one recorded variant."""
    rng = random.Random(key)
    return (round(rng.uniform(0, 2 * math.pi), 6), round(rng.uniform(0, 2 * math.pi), 6))


def format_hmesh(orientable, heights, tris, boundary) -> str:
    lines = [f"HMESH {'orientable' if orientable else 'nonorientable'}"]
    lines.extend(f"v {v} {h}" for v, h in enumerate(heights))
    lines.extend("t %d %d %d" % tuple(t) for t in tris)
    for label, cyc in boundary:
        lines.append("b " + label + " " + " ".join(map(str, cyc)))
    return "\n".join(lines) + "\n"


def relabelled_hmesh(mesh, rng: random.Random) -> tuple[str, tuple[int, int]]:
    """HMESH text of a seeded relabelling, with the height map (scale,
    offset) it applied to every height."""
    orientable, heights, tris, boundary = mesh
    perm = list(range(len(heights)))
    rng.shuffle(perm)
    scale, offset = rng.randint(1, 9), rng.randint(-10**6, 10**6)
    new_h = [0] * len(heights)
    for v, h in enumerate(heights):
        new_h[perm[v]] = scale * h + offset
    new_tris = []
    for t in rng.sample(tris, len(tris)):
        t = [perm[v] for v in t]
        r = rng.randrange(3)
        t = t[r:] + t[:r]
        if rng.random() < 0.5:
            t.reverse()
        new_tris.append(t)
    new_boundary = [(label, [perm[v] for v in cyc]) for label, cyc in boundary]
    return format_hmesh(orientable, new_h, new_tris, new_boundary), (scale, offset)
