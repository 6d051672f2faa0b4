import functools
import math
import os
import random
import re
import time
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

import meshes
from morse_topo.krgraph import (
    KREdge,
    KRGraph,
    VertexKind,
    critical_type_of,
    kr_isomorphic,
    regular_fiber_components,
    to_dot,
)
from morse_topo.mesh import (
    HeightMesh,
    MeshFormatError,
    NotGenericError,
    NotMorseError,
    _height_keys,
    _sweep,
    extract_kr_graph,
    format_hmesh,
    parse_hmesh,
    surface_of,
)
from morse_topo.surface import (
    Target,
    critical_type_to_json,
    euler_characteristic,
    flip_target_orientation,
    validate_critical_type,
)


def test_corpus_extracts_with_expected_types():
    expected = {
        "sphere_tetrahedron": (True, 0, 0, (1, 0, 1)),
        "sphere_octahedron": (True, 0, 0, (1, 0, 1)),
        "disk": (True, 0, 1, (1, 0, 0)),
        "cylinder": (True, 0, 2, (0, 0, 0)),
        "torus": (True, 1, 0, (1, 2, 1)),
        "torus_hole": (True, 1, 1, (1, 2, 0)),
        "genus2": (True, 2, 0, (1, 4, 1)),
        "genus2_hole": (True, 2, 1, (0, 4, 1)),
        "projective_plane": (False, 1, 0, (1, 1, 1)),
        "moebius": (False, 1, 1, (0, 1, 1)),
        "klein": (False, 2, 0, (1, 2, 1)),
        "klein_square": (False, 2, 0, (1, 2, 1)),
        "klein_hole": (False, 2, 1, (1, 2, 0)),
    }
    for name, m in meshes.corpus().items():
        orientable, genus, b, counts = expected[name]
        s = surface_of(m)
        assert (s.orientable, s.genus, s.num_boundary) == (orientable, genus, b), name
        graph, ktype = extract_kr_graph(m)
        assert (ktype.c0, ktype.c1, ktype.c2) == counts, name
        assert validate_critical_type(s, ktype) == [], name
        assert ktype.c0 - ktype.c1 + ktype.c2 == m.euler_characteristic(), name
        # the type read off the graph agrees with the sweep's bookkeeping
        assert critical_type_of(graph, s, ktype.q) == ktype, name


def test_nonorientable_meshes_produce_star_vertices():
    for name in ("projective_plane", "moebius", "klein", "klein_square", "klein_hole"):
        graph, _ = extract_kr_graph(meshes.corpus()[name])
        assert graph.has_star(), name


def test_orientable_meshes_never_produce_star_vertices():
    for name in ("torus", "genus2", "sphere_octahedron", "torus_hole"):
        graph, _ = extract_kr_graph(meshes.corpus()[name])
        assert not graph.has_star(), name


def test_torus_gives_theta_graph():
    graph, ktype = extract_kr_graph(meshes.torus_grid())
    kinds = sorted(v.kind.value for v in graph.vertices.values())
    assert kinds == ["Max", "Min", "Saddle3", "Saddle3"]
    saddles = sorted(
        v.id for v in graph.vertices.values() if v.kind is VertexKind.SADDLE3
    )
    doubled = [
        (e.tail, e.head) for e in graph.edges if {e.tail, e.head} == set(saddles)
    ]
    assert len(doubled) == 2


def test_torus_fibers_match_brute_force():
    m = meshes.torus_grid()
    graph, _ = extract_kr_graph(m)
    lo, hi = min(m.heights), max(m.heights)
    heights = set(m.heights)
    for i in range(50):
        c = lo + (hi - lo) * F(2 * i + 1, 100)
        if c in heights:
            c += F(1, 3)
        assert regular_fiber_components(graph, c) == meshes.brute_force_fiber_count(
            m, c
        ), c


def test_klein_fiber_components_across_star_level():
    m = meshes.klein_square()
    graph, _ = extract_kr_graph(m)
    stars = [v for v in graph.vertices.values() if v.kind is VertexKind.STAR2]
    assert stars
    for v in stars:
        below = v.height - F(1, 3)
        above = v.height + F(1, 3)
        assert meshes.brute_force_fiber_count(m, below) == regular_fiber_components(
            graph, below
        )
        assert meshes.brute_force_fiber_count(m, above) == regular_fiber_components(
            graph, above
        )
        # a degree-two vertex keeps one circle on each side
        assert regular_fiber_components(graph, below) == regular_fiber_components(
            graph, above
        )


SEED = int(os.environ.get("MORSE_TOPO_SEED", "0"))


def assert_matches_brute_force(m, name):
    graph, ktype = extract_kr_graph(m)
    ref_graph, ref_ktype = meshes.brute_force_reeb(m)
    assert ktype == ref_ktype, name

    def vertex_list(g):
        return [(v.kind, v.height, v.boundary_label) for _, v in sorted(g.vertices.items())]

    assert vertex_list(graph) == vertex_list(ref_graph), name
    arcs = sorted((e.tail, e.head) for e in graph.edges)
    assert arcs == sorted((e.tail, e.head) for e in ref_graph.edges), name
    # edges are numbered by (head, tail)
    numbered = [(e.head, e.tail) for e in sorted(graph.edges, key=lambda e: e.id)]
    assert numbered == sorted(numbered), name
    assert sorted(e.id for e in graph.edges) == list(range(len(arcs))), name
    return graph


def test_sweep_matches_brute_force_on_corpus():
    cases = meshes.corpus()
    # +x and -x share a height but are not adjacent: the tie-break by id
    # must not change the graph
    octahedron = meshes.octahedron()
    cases["octahedron_tied"] = HeightMesh(
        True, (F(0), F(0)) + octahedron.heights[2:], octahedron.triangles
    )
    for name, m in cases.items():
        assert_matches_brute_force(m, name)


def test_sweep_matches_brute_force_on_random_morse_meshes():
    rng = random.Random(SEED)
    accepted = {"torus": 0, "klein": 0, "holed": 0}
    stars = rejected = 0
    while min(accepted.values()) < 12:
        family = rng.choice(sorted(accepted))
        n = rng.randint(4, 6)
        try:
            m = meshes.random_grid_mesh(rng, family, n)
        except NotGenericError:
            rejected += 1
            continue
        try:
            meshes.brute_force_reeb(m)
        except (NotMorseError, NotGenericError) as exc:
            with pytest.raises(type(exc)):
                extract_kr_graph(m)
            rejected += 1
            continue
        stars += assert_matches_brute_force(m, (family, n)).has_star()
        accepted[family] += 1
    assert rejected > 0 and stars > 0


def sweep_or_error(sweep, m):
    try:
        return sweep(m)
    except (NotMorseError, AssertionError) as exc:
        return type(exc), str(exc)


def test_sweep_matches_reference_on_corpus():
    # refined meshes add long runs of regular vertices between the events
    rng = random.Random(SEED)
    for name, m in meshes.corpus().items():
        fine = meshes.relabelled(meshes.refine(m), rng)
        assert _sweep(m) == meshes.reference_sweep(m), name
        assert _sweep(fine) == meshes.reference_sweep(fine), name


@given(
    seed=st.integers(0, 2**32 - 1),
    family=st.sampled_from(["torus", "klein", "holed"]),
    n=st.integers(4, 9),
)
@settings(deadline=None, max_examples=150)
def test_sweep_matches_reference_on_random_meshes(seed, family, n):
    rng = random.Random(seed)
    try:
        m = meshes.relabelled(meshes.random_grid_mesh(rng, family, n), rng)
    except NotGenericError:
        return  # a hole whose ring has a chord: no mesh
    assert sweep_or_error(_sweep, m) == sweep_or_error(meshes.reference_sweep, m)


@pytest.mark.parametrize("name", ["torus", "genus2", "klein"])
def test_open_circle_count_catches_a_lost_split(monkeypatch, name):
    # a split that moves no edge to its new circle leaves that circle open;
    # without the count the sweep would end in a graph with a bad degree
    m = meshes.corpus()[name]
    monkeypatch.setattr("morse_topo.mesh._split_circle", lambda *args: [])
    with pytest.raises(AssertionError, match="^level circles left open after the sweep$"):
        extract_kr_graph(m)


@pytest.mark.parametrize("name", ["torus", "genus2", "torus_hole"])
def test_degree_two_saddle_on_an_orientable_mesh_is_a_fault(monkeypatch, name):
    # a split walk that never closes makes every splitting saddle a
    # degree-two one: a valid graph with the right counts, but not on an
    # orientable surface, which the type read refuses
    monkeypatch.setattr("morse_topo.mesh._split_circle", lambda *args: None)
    message = "sweep produced an inconsistent graph: degree-two saddles require a non-orientable surface"
    with pytest.raises(AssertionError, match=f"^{message}$"):
        extract_kr_graph(meshes.corpus()[name])


def test_refinement_keeps_type_and_graph():
    # the refined height is the same piecewise-linear map, so the same
    # Reeb graph at the same heights
    rng = random.Random(SEED)

    def heights(g):
        return [v.height for _, v in sorted(g.vertices.items())]

    for name, m in meshes.corpus().items():
        graph, ktype = extract_kr_graph(m)
        fine = meshes.relabelled(meshes.refine(meshes.refine(m)), rng)
        assert fine.num_vertices > 4 * m.num_vertices, name
        fine_graph, fine_ktype = extract_kr_graph(fine)
        assert fine_ktype == ktype, name
        assert kr_isomorphic(fine_graph, graph), name
        assert heights(fine_graph) == heights(graph), name


def mapped_graph(graph, height_map, decreasing=False):
    """``graph`` with every height sent through ``height_map``.  Under a
    decreasing map minima and maxima trade places and every edge turns
    round; boundary circles and saddles keep their kinds."""
    swap = {VertexKind.MIN: VertexKind.MAX, VertexKind.MAX: VertexKind.MIN} if decreasing else {}
    vertices = [
        v._replace(kind=swap.get(v.kind, v.kind), height=height_map(v.height))
        for v in graph.vertices.values()
    ]
    edges = [KREdge(e.id, e.head, e.tail) if decreasing else e for e in graph.edges]
    return KRGraph(Target.LINE, vertices, edges)


@pytest.mark.parametrize(
    "height_map, decreasing",
    [
        (lambda h: -h, True),
        (lambda h: F(3, 7) * h - F(5, 2), False),
        (lambda h: 1000 * h + 1, False),
    ],
    ids=["negated", "fraction-affine", "integer-affine"],
)
def test_height_maps_act_on_type_and_graph(height_map, decreasing):
    # h -> a h + b has the level sets of h: for a > 0 the type and the
    # graph are kept, and for a < 0 the target orientation is reversed
    def heights(g):
        return sorted(v.height for v in g.vertices.values())

    for name, m in meshes.corpus().items():
        graph, ktype = extract_kr_graph(m)
        moved = m._replace(heights=tuple(map(height_map, m.heights)))
        moved_graph, moved_ktype = extract_kr_graph(moved)
        assert moved_ktype == (flip_target_orientation(ktype) if decreasing else ktype), name
        expected = mapped_graph(graph, height_map, decreasing)
        assert kr_isomorphic(moved_graph, expected), name
        assert heights(moved_graph) == heights(expected), name


@pytest.mark.parametrize("n, f", [(48, 6), (64, 8)])
def test_baseline_torus_at_scale(n, f):
    # rescanning the mesh at every event takes 19 s and 69 s on these tori
    # (Python 3.11, x86-64), so the bound catches a return to it
    m = meshes.baseline_torus(n, f)
    start = time.monotonic()
    graph, ktype = extract_kr_graph(m)
    elapsed = time.monotonic() - start
    assert len(graph.vertices) == len(graph.edges) == 8 * f * f
    assert (ktype.c0, ktype.c1, ktype.c2) == (2 * f * f, 4 * f * f, 2 * f * f)
    lo, hi = min(m.heights), max(m.heights)
    for i in range(1, 9):
        c = math.floor(lo + (hi - lo) * F(i, 9)) + F(1, 2)  # heights are integers
        assert regular_fiber_components(graph, c) == meshes.brute_force_fiber_count(
            m, c
        ), c
    assert elapsed < 5.0, f"extracting the {n}x{n} torus took {elapsed:.2f}s"


def test_hundred_thousand_vertex_torus():
    # 317 x 317 = 100,489 vertices.  The 0.1 l term of the baseline height
    # is not periodic in l, so the seam l = 316 -> 0 adds critical points to
    # a plain torus's (1, 2, 1); the oracle ``meshes._oracle_classify``
    # counts the same (8, 14, 6) on this mesh.
    m = meshes.baseline_torus(317, 1)
    start = time.monotonic()
    m = HeightMesh(m.orientable, m.heights, m.triangles)
    graph, ktype = extract_kr_graph(m)
    elapsed = time.monotonic() - start
    assert m.num_vertices == 100_489
    assert (ktype.c0, ktype.c1, ktype.c2) == (8, 14, 6)
    assert m.euler_characteristic() == 0
    # the Reeb graph of a torus has one loop: as many edges as vertices
    assert len(graph.vertices) == len(graph.edges) == 28
    assert elapsed < 5.0, f"building and extracting took {elapsed:.2f}s"


def test_extraction_invariant_under_relabelling():
    m = meshes.octahedron()
    n = m.num_vertices
    perm = [(i * 5 + 2) % n for i in range(n)]
    assert sorted(perm) == list(range(n))
    heights = [F(0)] * n
    for old, new in enumerate(perm):
        heights[new] = m.heights[old]
    tris = tuple(tuple(perm[v] for v in t) for t in m.triangles)
    m2 = HeightMesh(m.orientable, tuple(heights), tris)
    g1, k1 = extract_kr_graph(m)
    g2, k2 = extract_kr_graph(m2)
    assert k1 == k2
    assert kr_isomorphic(g1, g2)


def test_surface_of_agrees_with_euler_formula():
    for m in meshes.corpus().values():
        s = surface_of(m)
        assert euler_characteristic(s) == m.euler_characteristic()


def test_extrema_minus_saddles_matches_chi_on_orientable_graphs():
    # readable off the graph alone: interior degree-one vertices minus
    # degree-three vertices equals the Euler characteristic
    for name, m in meshes.corpus().items():
        if not m.orientable:
            continue
        graph, _ = extract_kr_graph(m)
        deg1 = sum(
            1
            for v in graph.vertices.values()
            if v.kind in (VertexKind.MIN, VertexKind.MAX)
        )
        deg3 = sum(
            1 for v in graph.vertices.values() if v.kind is VertexKind.SADDLE3
        )
        assert deg1 - deg3 == m.euler_characteristic(), name


def test_hmesh_round_trip():
    for m in meshes.corpus().values():
        again = parse_hmesh(format_hmesh(m))
        assert again == m


@pytest.mark.parametrize("label", ["f g", "a\tb", "a\u2028b", ""])
def test_boundary_label_must_be_one_hmesh_word(label):
    # ``format_hmesh`` writes a label as it is, so a label with whitespace,
    # or none at all, would write text that ``parse_hmesh`` rejects
    m = meshes.cylinder()
    cycles = ((label, m.boundary_cycles[0][1]),) + m.boundary_cycles[1:]
    with pytest.raises(ValueError, match=re.escape(f"boundary label {label!r} ")):
        HeightMesh(m.orientable, m.heights, m.triangles, cycles)
    with pytest.raises(ValueError, match=re.escape(f"boundary label {label!r} ")):
        m._replace(boundary_cycles=cycles)


@pytest.mark.parametrize("orientable", ["orientable", 1, None], ids=repr)
def test_mesh_orientable_must_be_a_bool(orientable):
    m = meshes.cylinder()
    with pytest.raises(ValueError, match="orientable must be True or False"):
        HeightMesh(orientable, m.heights, m.triangles, m.boundary_cycles)
    with pytest.raises(ValueError, match="orientable must be True or False"):
        m._replace(orientable=orientable)


def test_hmesh_round_trip_keeps_any_one_word_label():
    rng = random.Random(23)
    symbols = '#"\\/:öx-'
    bounded = [m for m in meshes.corpus().values() if m.boundary_cycles]
    assert bounded
    for m in bounded:
        for labels in (["#x", 'a"b', "c\\d", "höhe"], [], []):
            while len(set(labels)) < len(m.boundary_cycles):
                labels.append("".join(rng.choices(symbols, k=rng.randint(1, 4))))
            labels = rng.sample(sorted(set(labels)), len(m.boundary_cycles))
            relabelled = m._replace(
                boundary_cycles=[(l, cyc) for l, (_, cyc) in zip(labels, m.boundary_cycles)]
            )
            assert parse_hmesh(format_hmesh(relabelled)) == relabelled


def test_wrapped_init_still_checks_the_mesh(monkeypatch):
    # timing the mesh checks wraps ``HeightMesh.__init__`` with a
    # pass-through; the checks must run, and fail, inside the wrapper
    init = HeightMesh.__init__
    calls, failures = [], []

    @functools.wraps(init)
    def wrapper(*args, **kwargs):
        calls.append(args[0])
        try:
            return init(*args, **kwargs)
        except ValueError as exc:
            failures.append(exc)
            raise

    monkeypatch.setattr(HeightMesh, "__init__", wrapper)
    for m in meshes.corpus().values():
        again = parse_hmesh(format_hmesh(m))
        assert again == m and again._links == m._links and again._keys == m._keys
        assert calls[-1] is again
    m = meshes.tetrahedron()
    with pytest.raises(ValueError, match="degenerate triangle") as caught:
        HeightMesh(True, m.heights, m.triangles[:3] + ((1, 1, 3),))
    assert failures == [caught.value]


def test_hmesh_heights_are_int_or_fraction():
    text = format_hmesh(meshes.tetrahedron())
    for vid, height in enumerate(("-7", "6/3", "-1/2", "0/5")):
        text = text.replace(f"v {vid} {vid}\n", f"v {vid} {height}\n")
    m = parse_hmesh(text)
    assert list(map(type, m.heights)) == [int, F, F, F]
    assert m.heights == (-7, 2, F(-1, 2), 0)
    for m in meshes.corpus().values():
        as_ints = tuple(h.numerator if h.denominator == 1 else h for h in m.heights)
        twins = [
            HeightMesh(m.orientable, hs, m.triangles, m.boundary_cycles)
            for hs in (as_ints, tuple(map(F, as_ints)))
        ]
        assert twins[0] == twins[1] == m
        assert twins[0]._keys == twins[1]._keys
        (g0, k0), (g1, k1) = map(extract_kr_graph, twins)
        assert to_dot(g0) == to_dot(g1)
        assert critical_type_to_json(k0) == critical_type_to_json(k1)
    m = meshes.tetrahedron()
    m = HeightMesh(True, (True, 0.5) + m.heights[2:], m.triangles)
    assert list(map(type, m.heights)) == [F] * 4
    assert m.heights[:2] == (F(1), F(1, 2))


def test_parse_builds_a_fraction_only_for_a_quotient(monkeypatch):
    # integer heights stay ``int`` from the text to the sweep keys
    text = format_hmesh(meshes.baseline_torus(64, 1))
    built = 0
    new = F.__new__

    def counted(cls, *args, **kwargs):
        nonlocal built
        built += 1
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", counted)
    parse_hmesh(text)
    assert built == 0
    quotients = {0: "1/3", 2: "-5/2", 7: "14/7"}
    lines = text.splitlines()
    for vid, height in quotients.items():
        lines[1 + vid] = f"v {vid} {height}"
    parse_hmesh("\n".join(lines))
    assert built == len(quotients)


def test_hmesh_skips_blank_and_comment_lines():
    for m in meshes.corpus().values():
        lines = ["# a comment before the header", ""]
        for line in format_hmesh(m).splitlines():
            lines += [line, "   ", "  # a comment between records"]
        assert parse_hmesh("\n".join(lines)) == m


CORPUS_TEXTS = [format_hmesh(m) for _, m in sorted(meshes.corpus().items())]


@st.composite
def mutated_hmesh(draw):
    """HMESH text of a corpus mesh with a few records deleted, duplicated,
    renumbered or added; ids may fall outside 0..n-1."""
    lines = draw(st.sampled_from(CORPUS_TEXTS)).splitlines()
    n = sum(line.startswith("v ") for line in lines)
    ids = st.integers(-3, n + 3)
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(1, len(lines) - 1))  # the header stays
        op = draw(st.sampled_from(["delete", "duplicate", "renumber", "triangle", "boundary"]))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "renumber":  # a vertex id, or a height
            parts = lines[i].split()
            j = draw(st.integers(2 if parts[0] == "b" else 1, len(parts) - 1))
            parts[j] = str(draw(ids))
            lines[i] = " ".join(parts)
        elif op == "triangle":
            lines.append("t " + " ".join(str(draw(ids)) for _ in range(3)))
        else:
            cycle = draw(st.lists(ids, min_size=1, max_size=6))
            lines.append(f"b extra{i} " + " ".join(map(str, cycle)))
    return "\n".join(lines) + "\n"


@given(mutated_hmesh())
@settings(deadline=None, max_examples=200)
def test_mutated_hmesh_gives_a_graph_or_a_declared_error(text):
    try:
        m = parse_hmesh(text)
        graph, ktype = extract_kr_graph(m)
    except (MeshFormatError, NotMorseError, NotGenericError, ValueError):
        return
    assert critical_type_of(graph, surface_of(m), ktype.q) == ktype


def test_hmesh_parse_errors():
    with pytest.raises(MeshFormatError, match="header"):
        parse_hmesh("v 0 1/1\n")
    with pytest.raises(MeshFormatError):
        parse_hmesh("HMESH sideways\n")
    with pytest.raises(MeshFormatError):
        parse_hmesh("HMESH orientable\nv 0 one\n")
    with pytest.raises(MeshFormatError, match="0..n-1"):
        parse_hmesh("HMESH orientable\nv 5 1/1\nt 0 1 2\n")
    # every record has exactly its fields, no more and no fewer
    for record in ("v 0", "v 0 5 junk", "t 0 1", "t 0 1 2 3"):
        with pytest.raises(MeshFormatError, match=f"line 3: cannot parse '{record}'"):
            parse_hmesh(f"HMESH orientable\nv 1 1\n{record}\n")


def test_hmesh_integers_are_ascii_decimal():
    """Ids, indices and heights are ASCII decimal integers, with or without
    a non-ASCII label or comment elsewhere in the text; labels and comments
    may hold any text."""
    text = format_hmesh(meshes.cylinder())
    fancy = "# h\u00f6he_1\n" + text.replace("b top", "b t\u00f6p_1")
    assert parse_hmesh(fancy).boundary_cycles[1] == ("t\u00f6p_1", (4, 5, 6, 7))
    assert parse_hmesh(fancy).heights == parse_hmesh(text).heights == (0,) * 4 + (1,) * 4
    assert parse_hmesh(text.replace("v 0 0", "v 0 +0").replace("v 4 1", "v 4 1/1")) == parse_hmesh(text)
    for good, bad in [("v 0 0", "v 0 0_0"), ("v 1 0", "v 1 \u0660"), ("v 4 1", "v 4 1/\u0661"),
                      ("v 4 1", "v \u0664 1"), ("t 0 1 5", "t 0 1 \uff15"), ("t 0 1 5", "t 0 1 0_5"),
                      ("b bottom 0 1 2 3", "b bottom 0 \u0661 2 3")]:
        for base in (text, fancy):
            assert good in base
            line = base.splitlines().index(good) + 1
            with pytest.raises(MeshFormatError, match=f"line {line}: cannot parse '{bad}'"):
                parse_hmesh(base.replace(good, bad, 1))


def test_monkey_saddle_rejected():
    # suspension of a hexagon with alternating equator heights: the north
    # pole's lower link has three components
    heights = [F(0), F(-4)] + [F(-2) if i % 2 == 0 else F(2) for i in range(6)]
    tris = []
    for i in range(6):
        j = (i + 1) % 6
        tris.append((0, 2 + i, 2 + j))
        tris.append((1, 2 + i, 2 + j))
    m = HeightMesh(True, tuple(heights), tuple(tris))
    with pytest.raises(NotMorseError, match="lower link"):
        extract_kr_graph(m)


def _hexagon_suspension(north, south, equator):
    """Vertex 0 (north) and vertex 1 (south) coned over a hexagon 2..7."""
    tris = []
    for i in range(6):
        j = (i + 1) % 6
        tris.append((0, 2 + i, 2 + j))
        tris.append((1, 2 + i, 2 + j))
    return HeightMesh(True, tuple(map(F, (north, south, *equator))), tuple(tris))


def test_degenerate_saddle_beats_tied_minima():
    # the equator's low vertices at -2, -2 and -1 are minima, the first two
    # at one height, below the monkey saddle at the north pole: the
    # NotMorseError wins over the NotGenericError the tie alone would raise
    m = _hexagon_suspension(0, 5, (-2, 2, -2, 2, -1, 2))
    with pytest.raises(NotMorseError, match="vertex 0 has a lower link with 3"):
        extract_kr_graph(m)
    with pytest.raises(NotMorseError):
        meshes.brute_force_reeb(m)


def test_lowest_degenerate_saddle_is_named():
    # both poles are monkey saddles over an alternating equator; the south
    # pole, vertex 1, is the lower one
    m = _hexagon_suspension(1, 0, (-2, 2, -3, 3, -4, 4))
    with pytest.raises(NotMorseError, match="vertex 1 has a lower link with 3"):
        extract_kr_graph(m)


def test_flat_interior_edge_rejected():
    with pytest.raises(NotGenericError, match="flat"):
        HeightMesh(
            True,
            (F(0), F(1), F(1), F(2)),
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
        )


def test_equal_event_heights_rejected():
    # octahedron with both poles at the same depth: two minima share a level
    m = meshes.octahedron()
    heights = (F(1), F(2), F(3), F(4), F(-1), F(-1))
    mesh = HeightMesh(True, heights, m.triangles)
    with pytest.raises(NotGenericError, match="distinct"):
        extract_kr_graph(mesh)


def test_boundary_not_constant_rejected():
    with pytest.raises(NotMorseError, match="constant"):
        HeightMesh(
            True,
            (F(-1), F(0), F(0), F(0), F(1)),
            ((0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 1)),
            (("rim", (1, 2, 3, 4)),),
        )


def test_boundary_tangency_rejected():
    # a folded disk: the boundary square has one interior vertex above and
    # one below, so the map cannot be monotone off the boundary
    heights = (F(0), F(0), F(0), F(0), F(1), F(-1))
    tris = (
        (4, 0, 1),
        (4, 1, 2),
        (5, 2, 3),
        (5, 3, 0),
        (4, 2, 5),
        (4, 5, 0),
    )
    m = HeightMesh(True, heights, tris, (("rim", (0, 1, 2, 3)),))
    with pytest.raises(NotMorseError, match="both sides"):
        extract_kr_graph(m)


@pytest.mark.parametrize("vertex", [99, -1])
def test_boundary_vertex_out_of_range_rejected(vertex):
    m = meshes.tetrahedron()
    with pytest.raises(ValueError, match=f"boundary vertex {vertex} out of range"):
        HeightMesh(True, m.heights, m.triangles, (("rim", (0, 1, vertex)),))


def test_pinched_vertex_rejected():
    with pytest.raises(ValueError, match="vertex 0: link is not connected"):
        HeightMesh(True, *meshes.PINCHED_TETRAHEDRA)


def _tetrahedron(a, b, c, d):
    return ((a, b, c), (a, b, d), (a, c, d), (b, c, d))


def test_pinched_vertex_beats_disconnected_mesh():
    # a tetrahedron, and apart from it two tetrahedra pinched at vertex 4,
    # which the walks from triangle 0 never reach
    heights, tris = meshes.PINCHED_TETRAHEDRA
    m = (
        tuple(map(F, range(4))) + tuple(h + 10 for h in heights),
        _tetrahedron(0, 1, 2, 3) + tuple(tuple(v + 4 for v in t) for t in tris),
    )
    with pytest.raises(ValueError, match="vertex 4: link is not connected"):
        HeightMesh(True, *m)


def test_disconnected_mesh_beats_orientability():
    with pytest.raises(ValueError, match="mesh must be connected"):
        HeightMesh(
            False, tuple(map(F, range(8))), _tetrahedron(0, 1, 2, 3) + _tetrahedron(4, 5, 6, 7)
        )


def test_first_walked_pinched_vertex_is_named():
    # three tetrahedra in a chain, pinched at vertices 0 and 1; the walks
    # start at triangle 0's first vertex, 1
    tris = _tetrahedron(1, 2, 3, 4) + _tetrahedron(0, 1, 8, 9) + _tetrahedron(0, 5, 6, 7)
    with pytest.raises(ValueError, match="vertex 1: link is not connected"):
        HeightMesh(True, tuple(map(F, range(10))), tris)


def test_mesh_manifold_validation():
    with pytest.raises(ValueError, match="borders"):
        HeightMesh(
            True,
            (F(0), F(1), F(2)),
            ((0, 1, 2),),
        )
    with pytest.raises(ValueError, match="connected"):
        HeightMesh(
            True,
            tuple(F(x) for x in (0, 1, 2, 3, 10, 11, 12, 13)),
            (
                (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
                (4, 5, 6), (4, 5, 7), (4, 6, 7), (5, 6, 7),
            ),
        )


def test_orientability_flag_checked():
    with pytest.raises(ValueError, match="gluing disagrees"):
        HeightMesh(
            False,
            (F(0), F(1), F(2), F(3)),
            ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)),
        )
    pp = meshes.projective_plane()
    with pytest.raises(ValueError, match="gluing disagrees"):
        HeightMesh(True, pp.heights, pp.triangles)


def _canonical_link(link, cyclic):
    """A link up to reversal and, for a cycle, rotation."""
    turns = [list(link), list(reversed(link))]
    if cyclic:
        turns = [t[i:] + t[:i] for t in turns for i in range(len(t))]
    return min(turns)


def test_links_and_orientability_match_oracles():
    pytest.importorskip("networkx")
    rng = random.Random(SEED + 2)
    grids = []
    while len(grids) < 200:
        family = rng.choice(("torus", "klein", "holed"))
        try:
            m = meshes.random_grid_mesh(rng, family, rng.randint(4, 7))
        except NotGenericError:
            continue
        grids.append(meshes.relabelled(m, rng))
    assert {len(m.boundary_cycles) for m in grids} == {0, 1}
    assert {m.orientable for m in grids} == {True, False}
    for m in list(meshes.corpus().values()) + grids:
        boundary = {v for _, cyc in m.boundary_cycles for v in cyc}
        for v, expected in enumerate(meshes.oracle_links(m)):
            cyclic = v not in boundary
            assert _canonical_link(m._links[v], cyclic) == _canonical_link(expected, cyclic)
        assert meshes.oracle_orientable(m) == m.orientable
        with pytest.raises(ValueError, match="triangle gluing disagrees"):
            HeightMesh(not m.orientable, m.heights, m.triangles, m.boundary_cycles)


def primes_above(low: int, count: int) -> list[int]:
    """The ``count`` smallest primes above ``low``, by the Miller-Rabin test
    with bases 2 to 17, which is exact below 3.4 * 10**14."""
    primes = []
    n = low + 1
    while len(primes) < count:
        d, s = n - 1, 0
        while d % 2 == 0:
            d, s = d // 2, s + 1
        for a in (2, 3, 5, 7, 11, 13, 17):
            x = pow(a, d, n)
            if x in (1, n - 1):
                continue
            for _ in range(s - 1):
                x = x * x % n
                if x == n - 1:
                    break
            else:
                break  # a witnesses that n is composite
        else:
            primes.append(n)
        n += 1
    return primes


HUGE_PRIMES = primes_above(2**32, 8)


@pytest.mark.parametrize("huge", [False, True], ids=["scaled", "ranked"])
@given(data=st.data())
@settings(deadline=None, max_examples=150)
def test_height_keys_order_and_tie_like_the_heights(huge, data):
    elements = st.fractions(-50, 50, max_denominator=20)
    if huge:
        elements |= st.builds(F, st.integers(-(10**12), 10**12), st.sampled_from(HUGE_PRIMES))
    # drawing from a small pool repeats heights, so ties are common
    pool = data.draw(st.lists(elements, min_size=1, max_size=8))
    heights = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))
    if huge:  # two distinct primes above 2**32 make the lcm too long
        p, q = data.draw(
            st.lists(st.sampled_from(HUGE_PRIMES), min_size=2, max_size=2, unique=True)
        )
        heights = data.draw(st.permutations(heights + [F(1, p), F(-1, q)]))
    lcm = math.lcm(*(h.denominator for h in heights))
    assert (lcm.bit_length() > 64) == huge
    keys = _height_keys(tuple(heights))
    for h, k in zip(heights, keys):
        for h2, k2 in zip(heights, keys):
            assert (k < k2) == (h < h2) and (k == k2) == (h == h2)
    if huge:  # past the limit: ranks of the distinct heights
        assert sorted(set(keys)) == list(range(len(set(heights))))
    else:  # the heights scaled by the lcm of their denominators
        assert keys == tuple(h * lcm for h in heights)


def beyond_key_limit(m: HeightMesh) -> HeightMesh:
    """``m`` with its distinct heights, in order, moved to rank + 1/p for
    distinct primes p > 2**32: the order and the ties are kept, and the lcm
    of the denominators is far past the 64 bits that integer keys scale
    by."""
    distinct = sorted(set(m.heights))
    primes = primes_above(2**32, len(distinct))
    moved = {h: rank + F(1, p) for rank, (h, p) in enumerate(zip(distinct, primes))}
    heights = tuple(moved[h] for h in m.heights)
    assert math.lcm(*(h.denominator for h in heights)).bit_length() > 64
    return HeightMesh(m.orientable, heights, m.triangles, m.boundary_cycles)


def assert_same_graph_beyond_key_limit(m, name):
    """The sweep gives ``m`` and its rank + 1/p copy the same vertex kinds
    and arcs, or raises the same error for both."""
    moved = beyond_key_limit(m)
    try:
        graph, ktype = extract_kr_graph(m)
    except (NotMorseError, NotGenericError) as exc:
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            extract_kr_graph(moved)
        return False
    moved_graph = assert_matches_brute_force(moved, name)
    assert extract_kr_graph(moved)[1] == ktype, name

    def kinds_and_arcs(g):
        kinds = [v.kind for _, v in sorted(g.vertices.items())]
        return kinds, [(e.tail, e.head) for e in sorted(g.edges, key=lambda e: e.id)]

    assert kinds_and_arcs(moved_graph) == kinds_and_arcs(graph), name
    return True


def test_sweep_beyond_key_limit_on_corpus():
    cases = meshes.corpus()
    octahedron = meshes.octahedron()
    cases["octahedron_tied"] = HeightMesh(
        True, (F(0), F(0)) + octahedron.heights[2:], octahedron.triangles
    )
    for name, m in cases.items():
        assert assert_same_graph_beyond_key_limit(m, name)


def test_sweep_beyond_key_limit_on_random_meshes():
    rng = random.Random(SEED + 1)
    accepted = {"torus": 0, "klein": 0, "holed": 0}
    rejected = 0
    while min(accepted.values()) < 6:
        family = rng.choice(sorted(accepted))
        try:
            m = meshes.random_grid_mesh(rng, family, rng.randint(4, 6))
        except NotGenericError:
            continue
        if assert_same_graph_beyond_key_limit(m, family):
            accepted[family] += 1
        else:
            rejected += 1
    assert rejected > 0


def test_extraction_compares_few_fractions(monkeypatch):
    # heights are compared as integer keys built with the mesh; the
    # Fractions themselves only in the check that event heights differ and
    # when the graph checks its edges, so the count follows the graph, not
    # the mesh.  Sorting the Fractions made about 5,900 comparisons on the
    # 24 x 24 torus.  Integer heights stay ``int`` into the graph and make
    # no Fraction call at all, so every height here is a half-integer.
    texts = []
    for n in (24, 40):
        m = meshes.baseline_torus(n, 1)
        heights = tuple(F(2 * h + 1, 2) for h in m.heights)
        texts.append(format_hmesh(HeightMesh(True, heights, m.triangles)))
    calls = 0
    for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
        method = getattr(F, name)

        def counted(self, other, method=method):
            nonlocal calls
            calls += 1
            return method(self, other)

        monkeypatch.setattr(F, name, counted)
    for text in texts:
        calls = 0
        graph, _ = extract_kr_graph(parse_hmesh(text))
        bound = 2 * (len(graph.vertices) + len(graph.edges))
        assert 0 < calls <= bound, (calls, bound)
