"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Every check is exact; the stated time budgets are asserted.
"""
import itertools
import math
import os
import random
import time

import meshes
from morse_topo.canonical import (
    SEAM_LOWER,
    SEAM_UPPER,
    canonical_kr_graph,
    _cut_surface,
)
from morse_topo.classify import (
    is_minimal,
    is_realizable,
    minimal_fiber_count,
    sigma_homotopy_equivalent,
)
from morse_topo.krgraph import (
    PieceClass,
    cut_at_level,
    kr_isomorphic,
    regular_fiber_components,
    to_dot,
)
from morse_topo.mcg import level_set_class, twist_action, twist_admissible
from morse_topo.mesh import extract_kr_graph
from morse_topo.surface import (
    CriticalType,
    Surface,
    Target,
    euler_characteristic,
    validate_critical_type,
)
from morse_topo.symplectic import (
    evaluate,
    gen,
    named_generator,
    omega_matrix,
    stabilizer_decompose,
    transvection,
)

SEED = int(os.environ.get("MORSE_TOPO_SEED", "0"))


def report(number: int, label: str):
    print(f"[acceptance] criterion {number} ({label}): PASS")


def basis_vector(i, n):
    v = [0] * n
    v[i] = 1
    return v


# -- criterion 1 -------------------------------------------------------------


def test_criterion_1_named_generator_closed_forms():
    """Closed-form generator matrices equal their transvection products."""
    start = time.monotonic()
    for g in range(1, 7):
        om = omega_matrix(g)
        n = 2 * g

        def tv(vec):
            return transvection(vec)

        for i in range(1, g + 1):
            ai = basis_vector(i - 1, n)
            bi = basis_vector(g + i - 1, n)
            for name, want in (("Ta", tv(ai)), ("Tb", tv(bi))):
                got = named_generator(name, i, g=g)
                assert got == want
                assert got.transpose() * om * got == om
            for j in range(1, g + 1):
                if i == j:
                    continue
                aj = basis_vector(j - 1, n)
                bj = basis_vector(g + j - 1, n)
                add = lambda u, v: [a + b for a, b in zip(u, v)]
                products = {
                    "Mu": tv(ai) * tv(aj) * tv(add(ai, aj)).inverse(),
                    "Eta": tv(bi) * tv(bj) * tv(add(bi, bj)).inverse(),
                    "Nu": tv(ai) * tv(bj) * tv(add(ai, bj)).inverse(),
                }
                for name, want in products.items():
                    got = named_generator(name, i, j, g=g)
                    assert got == want
                    assert got.transpose() * om * got == om
    elapsed = time.monotonic() - start
    assert elapsed < 1.0, f"criterion 1 took {elapsed:.2f}s"
    report(1, "generator closed forms, exact")


# -- criterion 2 -------------------------------------------------------------


def _allowed_pool(g):
    pool = []
    for i in range(1, g + 1):
        pool.append(("Ta", i, None))
        if i != 1:
            pool.append(("Tb", i, None))
        for j in range(1, g + 1):
            if i == j:
                continue
            pool.append(("Mu", i, j))
            if 1 not in (i, j):
                pool.append(("Eta", i, j))
            if j != 1:
                pool.append(("Nu", i, j))
    return pool


def _forbidden(p):
    return (
        (p.name == "Tb" and p.i == 1)
        or (p.name == "Eta" and 1 in (p.i, p.j))
        or (p.name == "Nu" and p.j == 1)
    )


def test_criterion_2_stabilizer_round_trip():
    """1000 random allowed words decompose back to the same matrix."""
    rng = random.Random(SEED)
    start = time.monotonic()
    for trial in range(1000):
        g = rng.randint(1, 5)
        pool = _allowed_pool(g)
        word = tuple(
            gen(*rng.choice(pool), exp=rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 30))
        )
        h = evaluate(word, g)
        out = stabilizer_decompose(h)
        assert evaluate(out, g) == h, f"trial {trial}"
        assert not any(_forbidden(p) for p in out), f"trial {trial}"
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"criterion 2 took {elapsed:.2f}s"
    report(2, "1000 stabilizer round trips, exact")


# -- criteria 3 and 4 --------------------------------------------------------


def test_criterion_3_morse_equality_over_corpus():
    start = time.monotonic()
    corpus = meshes.corpus()
    assert len(corpus) >= 10
    for name, m in corpus.items():
        _, ktype = extract_kr_graph(m)
        v = m.num_vertices
        e = len(m.edges())
        f = len(m.triangles)
        assert ktype.c0 - ktype.c1 + ktype.c2 == v - e + f, name
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.2f}s"
    report(3, f"Morse equality on {len(corpus)} meshes, exact")


def test_criterion_4_torus_oracle():
    from fractions import Fraction as F

    m = meshes.torus_grid()
    graph, ktype = extract_kr_graph(m)
    assert (ktype.c0, ktype.c1, ktype.c2) == (1, 2, 1)
    kinds = sorted(v.kind.value for v in graph.vertices.values())
    assert kinds == ["Max", "Min", "Saddle3", "Saddle3"]
    saddles = [v.id for v in graph.vertices.values() if v.kind.value == "Saddle3"]
    doubled = [e for e in graph.edges if {e.tail, e.head} == set(saddles)]
    assert len(doubled) == 2  # the theta shape
    lo, hi = min(m.heights), max(m.heights)
    heights = set(m.heights)
    checked = 0
    for i in range(50):
        c = lo + (hi - lo) * F(2 * i + 1, 100)
        if c in heights:
            c += F(1, 3)
        assert regular_fiber_components(graph, c) == meshes.brute_force_fiber_count(
            m, c
        ), c
        checked += 1
    assert checked == 50
    report(4, "torus theta graph vs 50 brute-force levels, exact")


# -- criterion 5 -------------------------------------------------------------


def _subgroup_index_by_trial_division(q) -> int:
    """Index of the subgroup of Z generated by the entries, from scratch."""
    nonzero = [abs(x) for x in q if x != 0]
    if not nonzero:
        return 0
    for m in range(max(nonzero), 0, -1):
        if all(x % m == 0 for x in nonzero):
            return m
    raise AssertionError("unreachable: 1 divides everything")


def test_criterion_5_fiber_count_is_subgroup_index():
    rng = random.Random(SEED + 5)
    for _ in range(200):
        r = rng.randint(1, 8)
        q = tuple(rng.randint(-20, 20) for _ in range(r))
        k = CriticalType(Target.CIRCLE, q, 0, 0, 0)
        assert minimal_fiber_count(k) == _subgroup_index_by_trial_division(q)
    report(5, "fiber count equals subgroup index, 200 vectors, exact")


# -- criteria 6, 7 and 9: the shared small sweep ------------------------------


def sweep_surfaces():
    for orientable in (True, False):
        for genus in range(0 if orientable else 1, 3):
            for b in range(3):
                labels = tuple(f"V{i+1}" for i in range(b))
                yield Surface(orientable, genus, labels)


def sweep_q_vectors(r):
    """Zero and the signed basis vectors: the homotopy-vector slice swept."""
    yield (0,) * r
    for i in range(r):
        for sign in (1, -1):
            v = [0] * r
            v[i] = sign
            yield tuple(v)


def sweep_types(surface):
    chi = euler_characteristic(surface)
    r = surface.homology_rank
    for signs in itertools.product((1, -1), repeat=surface.num_boundary):
        eps = dict(zip(surface.boundary, signs))
        for c0, c2 in itertools.product(range(3), repeat=2):
            c1 = c0 + c2 - chi
            if c1 < 0:
                continue
            yield CriticalType(Target.LINE, (0,) * r, c0, c1, c2, eps)
            for q in sweep_q_vectors(r):
                yield CriticalType(Target.CIRCLE, q, c0, c1, c2, eps)


def type_key(k):
    return (k.target.value, k.q, k.c0, k.c1, k.c2, tuple(sorted(k.eps.items())))


def mutations(k):
    for i in range(len(k.q)):
        q = list(k.q)
        q[i] += 1
        yield CriticalType(k.target, tuple(q), k.c0, k.c1, k.c2, k.eps)
    yield CriticalType(k.target, k.q, k.c0 + 1, k.c1, k.c2, k.eps)
    yield CriticalType(k.target, k.q, k.c0, k.c1 + 1, k.c2, k.eps)
    yield CriticalType(k.target, k.q, k.c0, k.c1, k.c2 + 1, k.eps)
    for label in k.eps:
        eps = dict(k.eps)
        eps[label] = -eps[label]
        yield CriticalType(k.target, k.q, k.c0, k.c1, k.c2, eps)
    other = Target.CIRCLE if k.target is Target.LINE else Target.LINE
    yield CriticalType(other, k.q, k.c0, k.c1, k.c2, k.eps)


def test_criterion_6_decision_procedure():
    start = time.monotonic()
    total = 0
    for surface in sweep_surfaces():
        types = [
            k for k in sweep_types(surface) if validate_critical_type(surface, k) == []
        ]
        total += len(types)
        keys = [type_key(k) for k in types]
        # equality of keys is an equivalence relation; the decision procedure
        # must coincide with it on every ordered pair
        for a, ka in zip(types, keys):
            for b, kb in zip(types, keys):
                assert sigma_homotopy_equivalent(a, b) == (ka == kb)
        for k in types:
            for mutant in mutations(k):
                assert not sigma_homotopy_equivalent(k, mutant)
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.2f}s"
    report(6, f"decision procedure over {total} types, exact")


def circle_supported(surface):
    return (surface.orientable and surface.genus >= 1) or (
        not surface.orientable and surface.genus >= 2
    )


def test_criterion_7_canonical_fixed_point():
    checked = cut_checked = 0
    for surface in sweep_surfaces():
        for k in sweep_types(surface):
            if validate_critical_type(surface, k):
                continue
            if k.target is Target.LINE:
                if not is_realizable(surface, k):
                    continue
                graph, built = canonical_kr_graph(surface, k.eps, k.c0, k.c2)
                assert built == k
                again, _ = canonical_kr_graph(surface, k.eps, k.c0, k.c2)
                assert to_dot(graph) == to_dot(again)
                checked += 1
                continue
            d = 0
            for x in k.q:
                d = math.gcd(d, x)
            if d != 1 or not circle_supported(surface):
                continue
            graph, built = canonical_kr_graph(
                surface, k.eps, k.c0, k.c2, k.q, Target.CIRCLE
            )
            assert built == k
            again, _ = canonical_kr_graph(surface, k.eps, k.c0, k.c2, k.q, Target.CIRCLE)
            assert to_dot(graph) == to_dot(again)
            pieces = cut_at_level(graph, 0)
            assert len(pieces) == 1
            piece = pieces[0]
            assert piece.piece_class is PieceClass.Q01
            cut_eps = dict(k.eps)
            cut_eps[SEAM_LOWER] = -1
            cut_eps[SEAM_UPPER] = 1
            expected, _ = canonical_kr_graph(_cut_surface(surface, k.q), cut_eps, k.c0, k.c2)
            assert kr_isomorphic(piece.graph, expected)
            checked += 1
            cut_checked += 1
    assert checked > 300 and cut_checked > 100
    report(7, f"canonical fixed point on {checked} types ({cut_checked} cuts), exact")


# -- criterion 8 -------------------------------------------------------------


def test_criterion_8_twist_admissibility_coherence():
    rng = random.Random(SEED + 8)
    for _ in range(500):
        g = rng.randint(1, 4)
        while True:
            q = [rng.randint(-9, 9) for _ in range(2 * g)]
            d = 0
            for x in q:
                d = math.gcd(d, x)
            if d == 1:
                break
        gamma = [rng.randint(-6, 6) for _ in range(2 * g)]
        L = level_set_class(q, g)
        fixes = twist_action(gamma).apply(L) == L
        assert twist_admissible(q, gamma) == fixes
    # the genus-one instance: the projection twist moves the class, the
    # fiber twist does not
    q = (0, 1)
    assert twist_admissible(q, (0, 1)) is False
    assert twist_admissible(q, (1, 0)) is True
    report(8, "twist admissibility = fixed fiber class, 500 draws, exact")


# -- criterion 9 -------------------------------------------------------------


def test_criterion_9_minimality_by_exhaustion():
    for surface in sweep_surfaces():
        chi = euler_characteristic(surface)
        r = surface.homology_rank
        for signs in itertools.product((1, -1), repeat=surface.num_boundary):
            eps = dict(zip(surface.boundary, signs))
            # circle maps with q = 0 exist on every surface; q = (1, 0, ...)
            # needs homology rank at least one
            classes = [(Target.LINE, (0,) * r), (Target.CIRCLE, (0,) * r)]
            if circle_supported(surface):
                classes.append((Target.CIRCLE, (1,) + (0,) * (r - 1)))
            for target, q in classes:
                candidates = []
                for c0, c2 in itertools.product(range(5), repeat=2):
                    c1 = c0 + c2 - chi
                    if c1 < 0:
                        continue
                    k = CriticalType(target, q, c0, c1, c2, eps)
                    if validate_critical_type(surface, k):
                        continue
                    if not is_realizable(surface, k):
                        continue
                    candidates.append(k)
                if not candidates:
                    continue
                best = min(k.total_critical_points() for k in candidates)
                for k in candidates:
                    assert is_minimal(surface, k) == (
                        k.total_critical_points() == best
                    ), (surface, k)
    report(9, "minimality matches exhaustive minimisation, exact")
