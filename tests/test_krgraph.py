import hashlib
import re
import time
from fractions import Fraction as F

import pytest

from morse_topo.canonical import InfeasibleTypeError, canonical_kr_graph
from morse_topo.krgraph import (
    SEAM_LOWER,
    SEAM_UPPER,
    KREdge,
    KRGraph,
    KRVertex,
    PieceClass,
    VertexKind,
    critical_type_of,
    cut_at_level,
    kr_isomorphic,
    regular_fiber_components,
    to_dot,
)
from morse_topo.mcg import canonical_generator_set
from morse_topo.surface import Surface, Target


def sphere_graph():
    return KRGraph(
        Target.LINE,
        [KRVertex(0, VertexKind.MIN, F(0)), KRVertex(1, VertexKind.MAX, F(1))],
        [KREdge(0, 0, 1)],
    )


def theta_graph():
    vs = [
        KRVertex(0, VertexKind.MIN, F(0)),
        KRVertex(1, VertexKind.SADDLE3, F(1)),
        KRVertex(2, VertexKind.SADDLE3, F(2)),
        KRVertex(3, VertexKind.MAX, F(3)),
    ]
    es = [KREdge(0, 0, 1), KREdge(1, 1, 2), KREdge(2, 1, 2), KREdge(3, 2, 3)]
    return KRGraph(Target.LINE, vs, es)


def circle_theta():
    vs = [
        KRVertex(0, VertexKind.SADDLE3, F(1, 4)),
        KRVertex(1, VertexKind.SADDLE3, F(3, 4)),
    ]
    es = [
        KREdge(0, 0, 1, (F(1, 4), F(3, 4))),
        KREdge(1, 0, 1, (F(1, 4), F(3, 4))),
        KREdge(2, 1, 0, (F(3, 4), F(5, 4))),
    ]
    return KRGraph(Target.CIRCLE, vs, es)


def free_loop(winding=1):
    return KRGraph(Target.CIRCLE, [], [KREdge(0, None, None, (F(0), F(winding)))])


def is_seam(v):
    return (v.boundary_label or "").partition(":")[0] in (SEAM_LOWER, SEAM_UPPER)


def own_vertices(piece):
    """The vertices a piece keeps from the cut graph, in id order."""
    vs = piece.graph.vertices
    return [vs[vid] for vid in sorted(vs) if not is_seam(vs[vid])]


def seams(piece):
    """A piece's seams as (side, height) in id order: side 0 on the lower
    copy of the cut level, side 1 on the upper copy."""
    vs = piece.graph.vertices
    return [
        (int(vs[vid].boundary_label.startswith(SEAM_UPPER)), vs[vid].height)
        for vid in sorted(vs)
        if is_seam(vs[vid])
    ]


def test_heights_and_lifts_are_exact():
    # an int or a Fraction is kept as the same object; anything else
    # becomes a Fraction
    assert KRVertex(0, VertexKind.MIN, 3).height == 3
    assert type(KRVertex(0, VertexKind.MIN, 3).height) is int
    e = KREdge(0, 0, 1, [F(1, 4), F(3, 4)])
    assert type(e.lift) is tuple and e.lift == (F(1, 4), F(3, 4))
    assert list(map(type, KREdge(0, 0, 1, (0, F(1))).lift)) == [int, F]
    h = F(1, 3)
    assert KRVertex(0, VertexKind.MIN, h).height is h
    assert KREdge(0, 0, 1, (h, h + 1)).lift[0] is h
    for value, exact in ((True, F(1)), (0.5, F(1, 2))):
        height = KRVertex(0, VertexKind.MIN, value).height
        assert type(height) is F and height == exact
        assert list(map(type, KREdge(0, 0, 1, (value, 2)).lift)) == [F, int]
    # the graph's checks and its DOT text do not depend on the type
    as_ints, _ = canonical_kr_graph(Surface(True, 1), {}, 1, 1)
    vs = [KRVertex(v.id, v.kind, F(v.height)) for v in as_ints.vertices.values()]
    as_fractions = KRGraph(Target.LINE, vs, as_ints.edges)
    assert {type(v.height) for v in as_ints.vertices.values()} == {int}
    assert to_dot(as_fractions) == to_dot(as_ints)


def test_vertices_and_edges_are_checked_tuple_records():
    v = KRVertex(0, VertexKind.BOUNDARY, 1, "rim")
    e = KREdge(0, 0, 1, (F(1, 4), F(3, 4)))
    # records are tuples: they unpack and equal the plain tuple of their fields
    vid, kind, height, label = v
    assert (vid, kind, height, label) == (0, VertexKind.BOUNDARY, 1, "rim") == v
    assert e == (0, 0, 1, (F(1, 4), F(3, 4)))
    assert repr(v) == "KRVertex(id=0, kind=<VertexKind.BOUNDARY: 'BoundaryCircle'>, height=1, boundary_label='rim')"
    assert repr(KREdge(2, 0, 1)) == "KREdge(id=2, tail=0, head=1, lift=None)"
    for record, field in ((v, "height"), (v, "boundary_label"), (e, "lift"), (e, "extra")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    # equal records hash equal, whatever exact type their numbers came as
    assert hash(KRVertex(0, VertexKind.BOUNDARY, F(1), "rim")) == hash(v)
    assert hash(KREdge(0, 0, 1, [F(1, 4), F(3, 4)])) == hash(e)
    # ``_replace`` and ``_make`` run the constructor's checks
    with pytest.raises(ValueError, match="boundary label exactly on BoundaryCircle"):
        KRVertex(0, VertexKind.MIN, 0)._replace(kind=VertexKind.BOUNDARY)
    with pytest.raises(ValueError, match="boundary label exactly on BoundaryCircle"):
        v._replace(kind=VertexKind.MAX)
    with pytest.raises(ValueError, match="boundary label exactly on BoundaryCircle"):
        KRVertex._make((0, VertexKind.MIN, 0, "rim"))
    for value in (True, 0.5):
        height = v._replace(height=value).height
        assert type(height) is F and height == F(value)
        assert list(map(type, e._replace(lift=(value, 2)).lift)) == [F, int]
        assert list(map(type, KREdge._make((0, 0, 1, (1, value))).lift)) == [int, F]


def test_degree_validation():
    with pytest.raises(ValueError, match="degree"):
        KRGraph(
            Target.LINE,
            [KRVertex(0, VertexKind.MIN, F(0)), KRVertex(1, VertexKind.SADDLE3, F(1))],
            [KREdge(0, 0, 1)],
        )


def test_validation_is_linear_at_genus_400():
    # 1610 vertices and 2009 edges per graph; counting each vertex's degree
    # with a scan of the edge list takes about 0.4 s per validation (Python
    # 3.11, x86-64), linear counting about 0.01-0.03 s
    labels = tuple(f"B{i:03d}" for i in range(400))
    s = Surface(True, 400, labels)
    eps = {label: 1 if i % 2 else -1 for i, label in enumerate(labels)}
    graphs = [
        canonical_kr_graph(s, eps, 3, 3)[0],
        canonical_kr_graph(s, eps, 3, 3, (1,) + (0,) * 799, Target.CIRCLE)[0],
    ]
    start = time.perf_counter()
    for g in graphs:
        KRGraph(g.target, g.vertices.values(), g.edges)
    elapsed = time.perf_counter() - start
    for g in graphs:
        assert (len(g.vertices), len(g.edges)) == (1610, 2009)
        assert len(g.boundary_labels()) == 400
    assert elapsed < 0.25, f"validating two genus-400 graphs took {elapsed:.2f}s"


FRACTION_METHODS = (
    "__new__", "__str__", "__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__",
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__", "__mod__",
    "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__", "__neg__",
    "__pos__", "__abs__", "__floor__", "__ceil__", "__round__", "__trunc__",
)


def test_genus_400_forms_make_few_fraction_calls(monkeypatch):
    # the machine-independent budget beside the time bound above: integer
    # heights stay ``int``, and circle heights and lifts are checked through
    # their numerators and denominators.  When every height was a
    # Fraction, these calls made 9,658 Fraction calls on the line form and
    # 39,417 on the circle form.
    labels = tuple(f"B{i:03d}" for i in range(400))
    s = Surface(True, 400, labels)
    eps = {label: 1 if i % 2 else -1 for i, label in enumerate(labels)}
    calls = 0
    for name in FRACTION_METHODS:
        method = getattr(F, name)

        def counted(*args, method=method, **kwargs):
            nonlocal calls
            calls += 1
            return method(*args, **kwargs)

        monkeypatch.setattr(F, name, staticmethod(counted) if name == "__new__" else counted)
    for q, target in (((0,) * 800, Target.LINE), ((1,) + (0,) * 799, Target.CIRCLE)):
        calls = 0
        g, _ = canonical_kr_graph(s, eps, 3, 3, q, target)
        KRGraph(g.target, g.vertices.values(), g.edges)
        to_dot(g)
        size = len(g.vertices) + len(g.edges)
        assert size == 1610 + 2009
        assert calls <= (0 if target is Target.LINE else 4 * size), (target, calls)
    assert calls > 0  # circle heights are Fractions, so the counter counts


def test_height_direction_validation():
    with pytest.raises(ValueError, match="increase"):
        KRGraph(
            Target.LINE,
            [KRVertex(0, VertexKind.MIN, F(2)), KRVertex(1, VertexKind.MAX, F(1))],
            [KREdge(0, 0, 1)],
        )


def test_distinct_critical_heights():
    vs = [
        KRVertex(0, VertexKind.MIN, F(0)),
        KRVertex(1, VertexKind.MIN, F(0)),
        KRVertex(2, VertexKind.SADDLE3, F(1)),
        KRVertex(3, VertexKind.MAX, F(2)),
    ]
    es = [KREdge(0, 0, 2), KREdge(1, 1, 2), KREdge(2, 2, 3)]
    with pytest.raises(ValueError, match="distinct"):
        KRGraph(Target.LINE, vs, es)


def test_connectivity_validation():
    vs = [
        KRVertex(0, VertexKind.MIN, F(0)),
        KRVertex(1, VertexKind.MAX, F(1)),
        KRVertex(2, VertexKind.MIN, F(2)),
        KRVertex(3, VertexKind.MAX, F(3)),
    ]
    es = [KREdge(0, 0, 1), KREdge(1, 2, 3)]
    with pytest.raises(ValueError, match="connected"):
        KRGraph(Target.LINE, vs, es)


def test_critical_type_of_reads_boundary_signs():
    vs = [
        KRVertex(0, VertexKind.BOUNDARY, F(0), "bottom"),
        KRVertex(1, VertexKind.BOUNDARY, F(1), "top"),
    ]
    g = KRGraph(Target.LINE, vs, [KREdge(0, 0, 1)])
    s = Surface(True, 0, ("bottom", "top"))
    k = critical_type_of(g, s, ())
    assert k.eps == {"bottom": -1, "top": 1}
    assert (k.c0, k.c1, k.c2) == (0, 0, 0)


def test_critical_type_of_star_needs_nonorientable():
    vs = [
        KRVertex(0, VertexKind.MIN, F(0)),
        KRVertex(1, VertexKind.STAR2, F(1)),
        KRVertex(2, VertexKind.MAX, F(2)),
    ]
    g = KRGraph(Target.LINE, vs, [KREdge(0, 0, 1), KREdge(1, 1, 2)])
    assert critical_type_of(g, Surface(False, 1), ()).c1 == 1
    with pytest.raises(ValueError, match="non-orientable"):
        critical_type_of(g, Surface(True, 1), (0, 0))


def test_critical_type_of_checks_the_length_of_q():
    g, _ = canonical_kr_graph(Surface(True, 1), {}, 1, 1)
    assert critical_type_of(g, Surface(True, 1), (0, 0)).q == (0, 0)
    with pytest.raises(ValueError, match=r"^q must have length 2, got 3$"):
        critical_type_of(g, Surface(True, 1), (0, 0, 0))


def test_fiber_components_line():
    g = theta_graph()
    assert regular_fiber_components(g, F(1, 2)) == 1
    assert regular_fiber_components(g, F(3, 2)) == 2
    assert regular_fiber_components(g, F(5, 2)) == 1
    assert regular_fiber_components(sphere_graph(), F(1, 2)) == 1
    with pytest.raises(ValueError, match="regular"):
        regular_fiber_components(g, F(1))


def test_fiber_components_constant_between_vertex_heights():
    g = theta_graph()
    for c in (F(11, 10), F(3, 2), F(19, 10)):
        assert regular_fiber_components(g, c) == 2


def test_fiber_components_circle():
    assert regular_fiber_components(free_loop(1), F(1, 3)) == 1
    assert regular_fiber_components(free_loop(4), F(1, 3)) == 4
    g = circle_theta()
    assert regular_fiber_components(g, F(0)) == 1
    assert regular_fiber_components(g, F(1, 2)) == 2


def test_cut_free_loop():
    pieces = cut_at_level(free_loop(1), F(0))
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.piece_class is PieceClass.Q01
    assert not own_vertices(piece) and len(piece.graph.edges) == 1
    pieces3 = cut_at_level(free_loop(3), F(1, 5))
    assert [p.piece_class for p in pieces3] == [PieceClass.Q01] * 3


def test_cut_circle_theta_is_line_theta_with_seams():
    pieces = cut_at_level(circle_theta(), F(0))
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.piece_class is PieceClass.Q01
    line = piece.graph
    kinds = sorted(v.kind.value for v in line.vertices.values())
    assert kinds == ["BoundaryCircle", "BoundaryCircle", "Saddle3", "Saddle3"]
    k = critical_type_of(line, Surface(True, 1, ("!B0", "~B1")), (0, 0))
    assert (k.c0, k.c1, k.c2) == (0, 2, 0)
    assert k.eps == {"!B0": -1, "~B1": 1}


def balloon_graph():
    """A winding cycle through one saddle, with a balloon closed by a maximum.

    Realises a torus circle-valued map with counts (0, 1, 1).
    """
    vs = [
        KRVertex(0, VertexKind.SADDLE3, F(1, 5)),
        KRVertex(1, VertexKind.MAX, F(2, 5)),
    ]
    es = [
        KREdge(0, 0, 1, (F(1, 5), F(2, 5))),
        KREdge(1, 0, 0, (F(1, 5), F(6, 5))),
    ]
    return KRGraph(Target.CIRCLE, vs, es)


def test_cut_lobe_classes():
    g = balloon_graph()
    # below the max both the balloon edge and the cycle loop are severed:
    # the balloon top floats off as a piece meeting only the lower cut copy
    pieces = cut_at_level(g, F(3, 10))
    classes = sorted(p.piece_class.value for p in pieces)
    assert classes == ["Q0", "Q01"]
    q0 = [p for p in pieces if p.piece_class is PieceClass.Q0][0]
    assert [v.kind for v in own_vertices(q0)] == [VertexKind.MAX]
    # above the max only the cycle crosses: everything stays in one piece
    pieces2 = cut_at_level(g, F(1, 2))
    assert len(pieces2) == 1
    assert pieces2[0].piece_class is PieceClass.Q01


def test_cut_requires_circle_and_crossing():
    with pytest.raises(ValueError, match="Circle"):
        cut_at_level(theta_graph(), F(1, 2))
    # a graph whose edges avoid the level entirely cannot be built on a
    # circle without winding, so the trivial-cut error is reached via the
    # free loop at a level it does not cross: impossible; instead check the
    # vertex-height error
    with pytest.raises(ValueError, match="regular"):
        cut_at_level(circle_theta(), F(1, 4))


def test_cut_refuses_a_boundary_label_that_a_seam_takes():
    """A boundary circle below a saddle that carries a wrap loop; the cut at
    1/2 gives one seam on each side, labelled without a suffix."""

    def graph(label):
        vs = [
            KRVertex(0, VertexKind.BOUNDARY, F(1, 10), label),
            KRVertex(1, VertexKind.SADDLE3, F(3, 10)),
        ]
        es = [
            KREdge(0, 0, 1, (F(1, 10), F(3, 10))),
            KREdge(1, 1, 1, (F(3, 10), F(13, 10))),
        ]
        return KRGraph(Target.CIRCLE, vs, es)

    for label in (SEAM_LOWER, SEAM_UPPER):
        with pytest.raises(ValueError, match="boundary labels must be distinct"):
            cut_at_level(graph(label), F(1, 2))
    for label in ("x", f"{SEAM_LOWER}:0"):
        (piece,) = cut_at_level(graph(label), F(1, 2))
        labels = sorted(piece.graph.boundary_labels())
        assert labels == sorted([label, SEAM_LOWER, SEAM_UPPER])


def test_cut_that_loses_an_edge_is_a_fault(monkeypatch):
    """The graph was accepted, so a piece that fails its checks is a fault
    of the cut, not of the input."""
    from morse_topo import krgraph

    g, _ = canonical_kr_graph(Surface(True, 1), {}, 1, 1, (1, 0), Target.CIRCLE)
    build = krgraph.KRGraph
    monkeypatch.setattr(krgraph, "KRGraph", lambda t, vs, es: build(t, vs, es[:-1]))
    message = "cut produced an inconsistent piece: vertex 3 (Saddle3) has degree 2, expected 3"
    with pytest.raises(AssertionError, match=re.escape(message)):
        cut_at_level(g, F(1, 1000))


def test_kr_isomorphic_respects_structure():
    a, b = theta_graph(), theta_graph()
    assert kr_isomorphic(a, b)
    vs = [
        KRVertex(0, VertexKind.MIN, F(0)),
        KRVertex(1, VertexKind.SADDLE3, F(1)),
        KRVertex(2, VertexKind.SADDLE3, F(2)),
        KRVertex(3, VertexKind.MAX, F(3)),
    ]
    # same kinds in the same height order, different wiring
    es = [KREdge(0, 0, 2), KREdge(1, 1, 2), KREdge(2, 1, 3)]
    with pytest.raises(ValueError):
        KRGraph(Target.LINE, vs, es)  # degrees break: wiring is pinned by kinds
    # heights scale monotonically: still isomorphic
    vs2 = [
        KRVertex(0, VertexKind.MIN, F(0)),
        KRVertex(1, VertexKind.SADDLE3, F(10)),
        KRVertex(2, VertexKind.SADDLE3, F(20)),
        KRVertex(3, VertexKind.MAX, F(30)),
    ]
    es2 = [KREdge(0, 0, 1), KREdge(1, 1, 2), KREdge(2, 1, 2), KREdge(3, 2, 3)]
    assert kr_isomorphic(a, KRGraph(Target.LINE, vs2, es2))
    assert not kr_isomorphic(a, sphere_graph())


def test_free_loop_validation():
    with pytest.raises(ValueError, match="winding"):
        KRGraph(Target.CIRCLE, [], [KREdge(0, None, None, (F(0), F(3, 2)))])
    with pytest.raises(ValueError, match="free loop"):
        KRGraph(Target.LINE, [], [KREdge(0, None, None, (F(0), F(1)))])
    with pytest.raises(ValueError, match="free loop"):
        KRGraph(
            Target.CIRCLE,
            [KRVertex(0, VertexKind.MIN, F(1, 2))],
            [KREdge(0, None, None, (F(0), F(1))), KREdge(1, 0, 0, (F(1, 2), F(3, 2)))],
        )


LINE_PAIR = [KRVertex(0, VertexKind.MIN, F(0)), KRVertex(1, VertexKind.MAX, F(1))]
CIRCLE_PAIR = [KRVertex(0, VertexKind.MIN, F(1, 4)), KRVertex(1, VertexKind.MAX, F(3, 4))]
OUTSIDE_PAIR = [KRVertex(0, VertexKind.MIN, F(1, 4)), KRVertex(1, VertexKind.MAX, F(5, 4))]
LABEL_PAIR = [
    KRVertex(0, VertexKind.BOUNDARY, F(0), "a"),
    KRVertex(1, VertexKind.BOUNDARY, F(1), "a"),
]

# library rejections the rest of the suite never reaches, with their messages
REJECTIONS = {
    "label-off-boundary": (
        lambda: KRVertex(0, VertexKind.MIN, F(0), "a"),
        "boundary label exactly on BoundaryCircle vertices",
    ),
    "duplicate-id": (
        lambda: KRGraph(Target.LINE, LINE_PAIR[:1] * 2, []), "duplicate vertex id 0"
    ),
    "duplicate-edge-id": (
        lambda: KRGraph(
            Target.LINE,
            theta_graph().vertices.values(),
            [e._replace(id=0) for e in theta_graph().edges],
        ),
        "duplicate edge id 0",
    ),
    "unknown-vertex": (
        lambda: KRGraph(Target.LINE, LINE_PAIR, [KREdge(0, 0, 2)]),
        "edge 0 references unknown vertices",
    ),
    "line-lift": (
        lambda: KRGraph(Target.LINE, LINE_PAIR, [KREdge(0, 0, 1, (F(0), F(1)))]),
        "Line-target edges carry no lift",
    ),
    "missing-lift": (
        lambda: KRGraph(Target.CIRCLE, CIRCLE_PAIR, [KREdge(0, 0, 1)]),
        "Circle-target edges need a lift interval",
    ),
    "decreasing-lift": (
        lambda: KRGraph(Target.CIRCLE, CIRCLE_PAIR, [KREdge(0, 0, 1, (F(5, 4), F(3, 4)))]),
        "edge 0 lift must be increasing",
    ),
    "lift-not-lifting": (
        lambda: KRGraph(Target.CIRCLE, CIRCLE_PAIR, [KREdge(0, 0, 1, (F(1, 4), F(1, 2)))]),
        "edge 0 lift endpoints must lift the vertex heights",
    ),
    "lift-off-by-a-half": (
        lambda: KRGraph(Target.CIRCLE, CIRCLE_PAIR, [KREdge(0, 0, 1, (F(3, 4), F(7, 4)))]),
        "edge 0 lift endpoints must lift the vertex heights",
    ),
    "empty-lift": (
        lambda: KRGraph(Target.CIRCLE, CIRCLE_PAIR, [KREdge(0, 0, 1, (F(3, 4), F(3, 4)))]),
        "edge 0 lift must be increasing",
    ),
    "circle-height": (
        lambda: KRGraph(Target.CIRCLE, OUTSIDE_PAIR, [KREdge(0, 0, 1, (F(1, 4), F(5, 4)))]),
        "Circle-target heights live in [0, 1)",
    ),
    "negative-circle-height": (
        lambda: KRGraph(
            Target.CIRCLE,
            [KRVertex(0, VertexKind.MIN, F(-1, 4)), KRVertex(1, VertexKind.MAX, F(3, 4))],
            [KREdge(0, 0, 1, (F(-1, 4), F(3, 4)))],
        ),
        "Circle-target heights live in [0, 1)",
    ),
    "circle-height-one": (
        lambda: KRGraph(
            Target.CIRCLE,
            [KRVertex(0, VertexKind.MIN, F(1, 2)), KRVertex(1, VertexKind.MAX, 1)],
            [KREdge(0, 0, 1, (F(1, 2), 1))],
        ),
        "Circle-target heights live in [0, 1)",
    ),
    "duplicate-labels": (
        lambda: KRGraph(Target.LINE, LABEL_PAIR, [KREdge(0, 0, 1)]),
        "boundary labels must be distinct",
    ),
    "empty-line": (
        lambda: KRGraph(Target.LINE, [], []), "a graph needs a vertex or a free loop"
    ),
    "empty-circle": (
        lambda: KRGraph(Target.CIRCLE, [], []), "a graph needs a vertex or a free loop"
    ),
    "critical-type-labels": (
        lambda: critical_type_of(sphere_graph(), Surface(True, 0, ("a",)), ()),
        "graph boundary labels do not match the surface",
    ),
    "isomorphic-circle": (
        lambda: kr_isomorphic(circle_theta(), circle_theta()),
        "isomorphism comparison is for Line-target graphs",
    ),
    "generator-set-labels": (
        lambda: canonical_generator_set(Surface(True, 1, ("a",)), {"b": 1}, Target.LINE),
        "eps labels do not match surface boundary",
    ),
    # the text "Line" was once read as a circle target, and a kind that is
    # not a VertexKind failed as a KeyError
    "target-text": (
        lambda: KRGraph("Line", LINE_PAIR, [KREdge(0, 0, 1)]),
        "target must be a Target, got 'Line'",
    ),
    "kind-text": (
        lambda: KRGraph(
            Target.LINE, [LINE_PAIR[0], KRVertex(1, "Max", F(1))], [KREdge(0, 0, 1)]
        ),
        "vertex 1 kind must be a VertexKind, got 'Max'",
    ),
    # pairs were once copied with ``dict`` and failed later as a TypeError
    "canonical-sign-pairs": (
        lambda: canonical_kr_graph(Surface(True, 0, ("a",)), [("a", 1)], 1, 0),
        "boundary signs must be a mapping, got list",
    ),
}


@pytest.mark.parametrize("build, message", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_library_rejections(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_canonical_circle_graphs_cross_every_level():
    from morse_topo.canonical import canonical_kr_graph

    g, _ = canonical_kr_graph(Surface(True, 2), {}, 1, 1, (1, 0, 0, 0), Target.CIRCLE)
    heights = {v.height for v in g.vertices.values()}
    for denom in (7, 11, 13):
        for num in range(denom):
            c = F(num, denom)
            if c in heights:
                continue
            assert regular_fiber_components(g, c) >= 1


def test_to_dot_is_deterministic_and_complete():
    g = theta_graph()
    assert to_dot(g) == to_dot(theta_graph())
    text = to_dot(g)
    assert "shape=triangle" in text and "shape=point" in text
    vs = [KRVertex(0, VertexKind.BOUNDARY, F(0), "rim"), KRVertex(1, VertexKind.MAX, F(1))]
    text = to_dot(KRGraph(Target.LINE, vs, [KREdge(0, 0, 1)]))
    assert 'shape=doublecircle' in text and 'boundary="rim"' in text
    assert 'lift="0:1"' in to_dot(free_loop(1))


def cut_corpus():
    """(family, graph) pairs for the cut's digest and oracle tests."""
    for orientable, genera in ((True, range(1, 6)), (False, range(2, 6))):
        for genus in genera:
            for b in range(4):
                labels = tuple(f"V{i + 1}" for i in range(b))
                s = Surface(orientable, genus, labels)
                q = (1,) + (0,) * (s.homology_rank - 1)
                eps = {l: (-1) ** (genus + i) for i, l in enumerate(labels)}
                for c0, c2 in ((0, 0), (1, 1), (2, 0)):
                    g, _ = canonical_kr_graph(s, eps, c0, c2, q, Target.CIRCLE)
                    yield "orientable" if orientable else "non-orientable", g
                    if g.is_free_loop() or b > 1:
                        continue
                    *rest, wrap = g.edges
                    lo, hi = wrap.lift
                    for shift in (1, 2):
                        lifted = (lo + shift, hi + shift)
                        yield f"wrap +{shift}", KRGraph(
                            Target.CIRCLE,
                            g.vertices.values(),
                            rest + [KREdge(wrap.id, wrap.tail, wrap.head, lifted)],
                        )
    for w in (1, 2, 3, 5):
        yield "free loops", free_loop(w)
    yield "free loops", KRGraph(
        Target.CIRCLE, [], [KREdge(0, None, None, (F(7, 3), F(13, 3)))]
    )
    yield "balloon", balloon_graph()


def cut_levels(g):
    """Level 0, the midpoint of each pair of consecutive vertex heights and
    one level outside [0, 1)."""
    heights = sorted({v.height for v in g.vertices.values()})
    levels = [F(0)] + [(a + b) / 2 for a, b in zip(heights, heights[1:])]
    return levels + [levels[-1] - 3]


def cut_text(g, c):
    """Everything the cut at c reports: each piece's class, its cut-end lifts
    and the DOT of its line graph, or the error message."""
    try:
        parts = []
        for piece in cut_at_level(g, c):
            ends = [(side, str(height)) for side, height in seams(piece)]
            parts.append(f"{piece.piece_class.value} {ends}\n")
            parts.append(to_dot(piece.graph))
        return "".join(parts)
    except ValueError as exc:
        return f"error: {exc}\n"


def cut_texts():
    """Per family, the cut texts at every level of cut_levels and at every
    vertex height, where the cut must refuse."""
    texts = {}
    for family, g in cut_corpus():
        levels = cut_levels(g) + sorted(v.height for v in g.vertices.values())
        for c in levels:
            texts[family] = texts.get(family, "") + f"c={c}\n" + cut_text(g, c)
    # a circle graph that never winds: every regular level misses it
    flat = KRGraph(
        Target.CIRCLE,
        [KRVertex(0, VertexKind.MIN, F(1, 4)), KRVertex(1, VertexKind.MAX, F(3, 4))],
        [KREdge(0, 0, 1, (F(1, 4), F(3, 4)))],
    )
    texts["no winding"] = cut_text(flat, F(0)) + cut_text(flat, F(1, 2))
    return texts


# SHA-256 of each text of cut_texts, recorded before the cut moved each
# stretch into its band on its own
CUT_DIGESTS = {
    "orientable": "8aaa097ad222890f13184ef54fd7ba7e9e2093681ac4de0937b8054b262f9d8d",
    "wrap +1": "475cf801d1467c59c95001a0be1069debf15d25df61f182976f4e68a40c0d739",
    "wrap +2": "475cf801d1467c59c95001a0be1069debf15d25df61f182976f4e68a40c0d739",
    "non-orientable": "6f0ef807930c13580aa9671750700d279ca904170a9b0efee36c59cc7c30e6a7",
    "free loops": "db592d5f616756d918bb62559b68192c7b45acdb79cdaa2eb106425994c82e2c",
    "balloon": "533a6cc48dc043f29845276a97db31604b5bca96d5b9f05263b5c5ced087b0b8",
    "no winding": "62732a85367473f755c5d57f370605f531a0ef7bed04e913b8b9e67db1e49b21",
}


def test_cuts_are_pinned():
    """The cut's pieces, lifts and line graphs stay the same byte for byte.
    A change that alters them on purpose must record these digests again
    and say so in CHANGES.md."""
    digests = {
        family: hashlib.sha256(text.encode()).hexdigest()
        for family, text in cut_texts().items()
    }
    assert digests == CUT_DIGESTS


def test_cut_against_fibres_and_vertices():
    """Checks of every cut that read only the graph and the pieces."""
    cuts = 0
    for _, g in cut_corpus():
        for c in cut_levels(g):
            pieces = cut_at_level(g, c)
            cuts += 1
            ends = [end for piece in pieces for end in seams(piece)]
            fibre = regular_fiber_components(g, c)
            assert sum(side == 0 for side, _ in ends) == fibre
            assert sum(side == 1 for side, _ in ends) == fibre
            ids = [v.id for piece in pieces for v in own_vertices(piece)]
            assert sorted(ids) == sorted(g.vertices)
            heights = [
                v.height for piece in pieces for v in piece.graph.vertices.values()
            ]
            assert all(c <= x <= c + 1 for x in heights)
    assert cuts > 1000
