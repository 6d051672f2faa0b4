import contextlib
import hashlib
import io
import itertools
import math
from fractions import Fraction as F

import pytest

from morse_topo import cli
from morse_topo.canonical import (
    SEAM_LOWER,
    SEAM_UPPER,
    InfeasibleTypeError,
    canonical_kr_graph,
    _cut_surface,
)
from morse_topo.krgraph import (
    PieceClass,
    VertexKind,
    cut_at_level,
    kr_isomorphic,
    regular_fiber_components,
    to_dot,
)
from morse_topo.surface import Surface, Target, validate_critical_type


def surfaces(max_genus=3, max_boundary=3):
    for orientable in (True, False):
        for genus in range(0 if orientable else 1, max_genus + 1):
            for b in range(max_boundary + 1):
                labels = tuple(f"V{i+1}" for i in range(b))
                for signs in itertools.product((1, -1), repeat=b):
                    yield Surface(orientable, genus, labels), dict(
                        zip(labels, signs)
                    )


def test_simple_examples():
    s = Surface(True, 0)
    g, _ = canonical_kr_graph(s, {}, 1, 1)
    assert len(g.vertices) == 2 and len(g.edges) == 1

    torus = Surface(True, 1)
    g, k = canonical_kr_graph(torus, {}, 1, 1)
    assert (k.c0, k.c1, k.c2) == (1, 2, 1)
    # theta shape: the two saddles share a doubled edge
    pairs = sorted((e.tail, e.head) for e in g.edges)
    assert pairs.count((1, 2)) == 2

    g, _ = canonical_kr_graph(torus, {}, 0, 0, (1, 0), Target.CIRCLE)
    assert g.is_free_loop()
    lo, hi = g.edges[0].lift
    assert hi - lo == 1


def test_fixed_point_over_sweep():
    for s, eps in surfaces():
        b_minus = sum(1 for v in eps.values() if v < 0)
        b_plus = len(eps) - b_minus
        for c0, c2 in itertools.product(range(4), repeat=2):
            if c0 + b_minus < 1 or c2 + b_plus < 1:
                with pytest.raises(InfeasibleTypeError):
                    canonical_kr_graph(s, eps, c0, c2)
                continue
            g, k = canonical_kr_graph(s, eps, c0, c2)
            assert (k.c0, k.c2) == (c0, c2)
            assert dict(k.eps) == eps
            assert validate_critical_type(s, k) == []
            assert g.has_star() == (not s.orientable and s.genus > 0)


def test_star_count_equals_genus_for_nonorientable():
    s = Surface(False, 3, ("V1",))
    g, _ = canonical_kr_graph(s, {"V1": 1}, 1, 0)
    stars = [v for v in g.vertices.values() if v.kind is VertexKind.STAR2]
    assert len(stars) == 3


def test_interior_extrema_minus_saddles_is_chi():
    for s, eps in surfaces(max_genus=2, max_boundary=2):
        if not s.orientable:
            continue
        b_minus = sum(1 for v in eps.values() if v < 0)
        b_plus = len(eps) - b_minus
        for c0, c2 in itertools.product(range(3), repeat=2):
            if c0 + b_minus < 1 or c2 + b_plus < 1:
                continue
            g, _ = canonical_kr_graph(s, eps, c0, c2)
            deg1_interior = sum(
                1
                for v in g.vertices.values()
                if v.kind in (VertexKind.MIN, VertexKind.MAX)
            )
            deg3 = sum(
                1 for v in g.vertices.values() if v.kind is VertexKind.SADDLE3
            )
            assert deg1_interior - deg3 == 2 - 2 * s.genus - s.num_boundary


def test_determinism():
    s = Surface(True, 2, ("V1", "V2"))
    eps = {"V1": 1, "V2": -1}
    assert to_dot(canonical_kr_graph(s, eps, 2, 1)[0]) == to_dot(
        canonical_kr_graph(s, eps, 2, 1)[0]
    )


def test_equal_types_give_isomorphic_graphs():
    s = Surface(True, 1, ("V1",))
    a, _ = canonical_kr_graph(s, {"V1": 1}, 1, 0)
    b, _ = canonical_kr_graph(s, {"V1": 1}, 1, 0)
    assert kr_isomorphic(a, b)


def test_circle_needs_primitive_vector():
    torus = Surface(True, 1)
    with pytest.raises(InfeasibleTypeError, match="primitive"):
        canonical_kr_graph(torus, {}, 0, 0, (2, 0), Target.CIRCLE)
    with pytest.raises(InfeasibleTypeError):
        canonical_kr_graph(torus, {}, 0, 0, (0, 0), Target.CIRCLE)


def test_circle_rejects_reserved_labels():
    s = Surface(True, 1, (SEAM_LOWER,))
    with pytest.raises(ValueError, match="reserved"):
        canonical_kr_graph(s, {SEAM_LOWER: 1}, 0, 1, (1, 0), Target.CIRCLE)


def test_circle_cut_recovers_line_form():
    cases = []
    for s, eps in surfaces(max_genus=2, max_boundary=2):
        r = s.homology_rank
        if s.orientable and s.genus >= 1:
            q = (1,) + (0,) * (r - 1)
        elif not s.orientable and s.genus >= 2:
            q = (1,) + (0,) * (r - 1)
        else:
            continue
        cases.append((s, eps, q))
    # labels that sort below the lower seam label or above the upper one
    for label, sign in ((" x", -1), ("!A", -1), ("~C", 1), ("α", 1)):
        cases.append((Surface(True, 1, (label,)), {label: sign}, (1, 0)))
    assert cases
    for s, eps, q in cases:
        for c0, c2 in ((0, 0), (1, 1), (2, 0)):
            g, _ = canonical_kr_graph(s, eps, c0, c2, q, Target.CIRCLE)
            assert regular_fiber_components(g, F(0)) == 1
            pieces = cut_at_level(g, F(0))
            assert len(pieces) == 1
            piece = pieces[0]
            assert piece.piece_class is PieceClass.Q01
            cut = _cut_surface(s, q)
            cut_eps = dict(eps)
            cut_eps[SEAM_LOWER] = -1
            cut_eps[SEAM_UPPER] = 1
            expected, _ = canonical_kr_graph(cut, cut_eps, c0, c2)
            assert kr_isomorphic(piece.graph, expected)


@pytest.mark.parametrize("genus", [4, 5, 6])
@pytest.mark.parametrize("labels", [(), ("V1",)], ids=["closed", "one-circle"])
def test_non_orientable_cut_follows_the_parity_of_q(genus, labels):
    # q holds x_1 .. x_{g-1} and x_g = -sum(q); the fiber's complement is
    # orientable exactly when every x_i is odd
    s = Surface(False, genus, labels)
    eps = dict.fromkeys(labels, 1)
    cut_eps = {**eps, SEAM_LOWER: -1, SEAM_UPPER: 1}
    c1 = genus - 2 + len(labels)  # c0 = c2 = 0 and chi = 2 - g - b
    # the cut is a function of the graph, so equal graphs are cut once
    pieces = {}
    classes = set()
    for q in itertools.product(range(-3, 4), repeat=genus - 1):
        if math.gcd(*q) != 1:
            continue
        g, k = canonical_kr_graph(s, eps, 0, 0, q, Target.CIRCLE)
        assert k == (Target.CIRCLE, q, 0, c1, 0, eps)
        some_even = any(x % 2 == 0 for x in (*q, sum(q)))
        cut = _cut_surface(s, q)
        assert cut.orientable != some_even
        key = (tuple(g.vertices.values()), tuple(g.edges), cut)
        if key not in pieces:
            (piece,) = cut_at_level(g, F(0))
            expected, _ = canonical_kr_graph(cut, cut_eps, 0, 0)
            assert kr_isomorphic(piece.graph, expected)
            pieces[key] = piece.graph.has_star()
        assert pieces[key] == some_even
        classes.add(some_even)
    # one graph per class: both classes on even genus, only the
    # non-orientable cut on odd genus
    assert len(pieces) == len(classes)
    assert classes == ({True, False} if genus % 2 == 0 else {True})


def test_circle_infeasible_surfaces():
    with pytest.raises(InfeasibleTypeError):
        canonical_kr_graph(Surface(True, 0), {}, 1, 1, (), Target.CIRCLE)
    with pytest.raises(InfeasibleTypeError):
        canonical_kr_graph(Surface(False, 1), {}, 1, 1, (), Target.CIRCLE)


def test_negative_saddle_count_is_infeasible():
    with pytest.raises(InfeasibleTypeError, match="negative saddle"):
        canonical_kr_graph(Surface(True, 0), {}, 0, 1)


def _cli_text(argv):
    """Exit code, stdout and stderr of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return f"exit {code}\n{out.getvalue()}{err.getvalue()}"


def circle_canonical_texts():
    """Per surface, `canonical --target circle` output over boundary signs,
    primitive (and a few non-primitive) q and small extremum counts."""
    signs = ("", "V1:+", "V1:-", "V1:+,V2:-", "V1:-,V2:-,V3:+,V4:+,V5:-")
    texts = {}
    grid = ((True, (0, 1, 2, 3, 7, 50, 200)), (False, (1, 2, 3, 4, 9, 50, 200)))
    for orientable, genera in grid:
        for genus in genera:
            rank = 2 * genus if orientable else genus - 1
            dense = [(3 * i) % 7 - 3 for i in range(rank)]
            qs = [[1] + [0] * (rank - 1), [0] * (rank - 1) + [-1], dense[:-1] + [1]]
            if rank and genus <= 3:
                qs.append([2 * x for x in qs[2]])
            qs = [q[:rank] for q in qs]
            family = f"{'orientable' if orientable else 'non-orientable'} g={genus}"
            parts = []
            for boundary in signs:
                for q in qs:
                    for c0, c2 in ((0, 0), (1, 2)):
                        argv = ["canonical", "--genus", str(genus), "--boundary", boundary]
                        if not orientable:
                            argv.append("--nonorientable")
                        argv += ["--c0", str(c0), "--c2", str(c2), "--target", "circle"]
                        argv.append("--q=" + ",".join(map(str, q)))
                        parts.append(" ".join(argv) + "\n" + _cli_text(argv))
            texts[family] = "".join(parts)
    return texts


# SHA-256 of each text of circle_canonical_texts, recorded before the
# circle normal form computed each vertex's lift once
CIRCLE_CANONICAL_DIGESTS = {
    "orientable g=0": "f0485b4ad7bcc5b192d0702be2af5117a77c3a7244e6a8b7f4faeb5a147fece1",
    "orientable g=1": "067b40cdf0928e619004cef554a1f468ee1cd76f659d3cc08b226da861014e1e",
    "orientable g=2": "d775dfcfd0d1b450d874a3e975c6734e05506ae9d67a38dabcedd6c31f4fc693",
    "orientable g=3": "c7d28e84dfd06cf739914572333bd7310ba955a11cb85be8cc4a2c9848c089a8",
    "orientable g=7": "c87b56a736e8b9f8871b6f5bb3c93ccb9059b68d0795855aa8fcc3907daca8c5",
    "orientable g=50": "ca58ebb0bf1f55c9e7c71454373faf2cca8c2944a851980dfcf9892a05903c8c",
    "orientable g=200": "48d610cc67ee124aa0aa24782a8e2cbf250323894e5e0df1c7bc45e473a292e9",
    "non-orientable g=1": "64fc9ea7359d8cd5377c183f631f2d959ddb9e162264359f65562caf30c1ac9c",
    "non-orientable g=2": "09a7c2f706b30e6e441077d8d419a88685678a01c5d4740863d65544e4df12b1",
    "non-orientable g=3": "6ce42ef3d1d3640a370ab0c5bfdb605567cb3404f58be3ef9219ff56ef5af7c5",
    "non-orientable g=4": "074cfa38a19760e1d1fa875ad3e7d6c6efbe531ed70895002561b4f142319e42",
    "non-orientable g=9": "ba93973249394ad293e4d80b46f0dcef525391feb52c3266c3f4923c65665e5b",
    "non-orientable g=50": "74e7e01c8f2ad8d8e1d8a24e00f21513eff4c5e4837097b219cc4ea65af31c1d",
    "non-orientable g=200": "b2971a23fb782a466d9cf06e098aa84aeba033fe923f85ced7d777278eaff1a5",
}


def test_circle_canonical_output_is_pinned():
    """`canonical --target circle` stays the same byte for byte.  A change
    that alters it on purpose must record these digests again and say so in
    CHANGES.md."""
    digests = {
        family: hashlib.sha256(text.encode()).hexdigest()
        for family, text in circle_canonical_texts().items()
    }
    assert digests == CIRCLE_CANONICAL_DIGESTS
