import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from morse_topo.mcg import (
    Admissible,
    GeneratorKind,
    canonical_generator_set,
    degree_along,
    factor_stabilizer,
    level_set_class,
    twist_action,
    twist_admissible,
)
from morse_topo.surface import Surface, Target
from morse_topo.symplectic import (
    SpMatrix,
    evaluate,
    gen,
    omega_product,
    stabilizer_decompose,
    symplectic_completion,
    transvection,
)

SEED = int(os.environ.get("MORSE_TOPO_SEED", "0"))


def test_level_set_class_examples():
    assert level_set_class([0, 0], 1).vector == (0, 0)
    # q dual to beta_1: the fiber class is alpha_1
    assert level_set_class([0, 1], 1).vector == (1, 0)


@given(g=st.integers(1, 4), data=st.data())
@settings(deadline=None)
def test_level_set_class_solves_the_pairing(g, data):
    n = 2 * g
    q = data.draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n))
    c = data.draw(st.lists(st.integers(-10, 10), min_size=n, max_size=n))
    L = level_set_class(q, g).vector
    assert omega_product(L, c) == sum(a * b for a, b in zip(q, c))


def test_degree_along_examples():
    q = [0, 1]  # g = 1, dual to beta_1
    assert degree_along(q, level_set_class(q, 1)) == 0
    assert degree_along(q, [0, 1]) == 1
    assert degree_along([3, -2, 5, 7], [0, 0, 0, 0]) == 0


@given(g=st.integers(1, 3), data=st.data())
@settings(deadline=None)
def test_degree_along_is_linear(g, data):
    n = 2 * g
    ints = st.lists(st.integers(-6, 6), min_size=n, max_size=n)
    q, g1, g2 = data.draw(ints), data.draw(ints), data.draw(ints)
    total = [a + b for a, b in zip(g1, g2)]
    assert degree_along(q, total) == degree_along(q, g1) + degree_along(q, g2)


def test_twist_action_is_transvection():
    gamma = (1, -2, 0, 3)
    assert twist_action(gamma) == transvection(gamma)


def test_twist_admissibility_matches_fixed_class():
    rng = random.Random(SEED + 10)
    for _ in range(300):
        g = rng.randint(1, 4)
        while True:
            q = [rng.randint(-8, 8) for _ in range(2 * g)]
            d = 0
            for x in q:
                d = math.gcd(d, x)
            if d == 1:
                break
        gamma = [rng.randint(-5, 5) for _ in range(2 * g)]
        L = level_set_class(q, g).vector
        assert twist_admissible(q, gamma) == (twist_action(gamma).apply(L) == L)


def test_genus_one_instance():
    q = [0, 1]
    assert twist_admissible(q, [1, 0]) is True  # the fiber curve
    assert twist_admissible(q, [0, 1]) is False  # the projection curve


@given(g=st.integers(1, 3), data=st.data())
@settings(deadline=None)
def test_twist_fixes_a_class_iff_pairing_vanishes(g, data):
    n = 2 * g
    ints = st.lists(st.integers(-5, 5), min_size=n, max_size=n)
    gamma = data.draw(ints.filter(lambda v: any(v)))
    x = data.draw(ints)
    fixes = twist_action(gamma).apply(x) == tuple(x)
    assert fixes == (omega_product(gamma, x) == 0)
    zero = [0] * n
    assert twist_action(zero).apply(x) == tuple(x)


def _names(gens):
    return [g.name for g in gens]


def test_generators_orientable_genus_zero():
    s = Surface(True, 0, ("V1", "V2"))
    gens = canonical_generator_set(s, {"V1": 1, "V2": 1}, Target.LINE)
    assert _names(gens) == ["O", "b_1,2"]
    assert all(g.admissible is Admissible.YES for g in gens)


def test_generators_orientable_line_all_admissible():
    s = Surface(True, 2, ("V1",))
    gens = canonical_generator_set(s, {"V1": -1}, Target.LINE)
    assert all(g.admissible is Admissible.YES for g in gens)
    assert "t_alpha_1" in _names(gens) and "t_gamma_1" in _names(gens)
    assert not any(g.kind is GeneratorKind.CROSSCAP_SLIDE for g in gens)
    assert not any(g.kind is GeneratorKind.BOUNDARY_SLIDE for g in gens)


def test_generators_circle_marks_projection_twist():
    s = Surface(True, 2)
    gens = canonical_generator_set(s, {}, Target.CIRCLE)
    flags = {g.name: g.admissible for g in gens}
    assert flags["t_beta_1"] is Admissible.NO
    assert all(f is Admissible.YES for n, f in flags.items() if n != "t_beta_1")


def test_generators_mixed_signs_use_square():
    s = Surface(True, 1, ("V1", "V2"))
    gens = canonical_generator_set(s, {"V1": 1, "V2": -1}, Target.LINE)
    names = _names(gens)
    assert "b_1,2" not in names
    sigma = next(g for g in gens if g.name == "t_sigma_1,2")
    assert sigma.admissible is Admissible.YES_VIA_WORD
    # a third boundary circle restores a direct route
    s3 = Surface(True, 1, ("V1", "V2", "V3"))
    gens3 = canonical_generator_set(s3, {"V1": 1, "V2": -1, "V3": 1}, Target.LINE)
    sigma3 = next(g for g in gens3 if g.name == "t_sigma_1,2")
    assert sigma3.admissible is Admissible.YES


def test_generators_nonorientable_cases():
    s1 = Surface(False, 1, ("V1",))
    gens = canonical_generator_set(s1, {"V1": 1}, Target.LINE)
    assert _names(gens) == ["nu_1"]
    s2 = Surface(False, 2, ("V1",))
    gens = canonical_generator_set(s2, {"V1": 1}, Target.LINE)
    assert _names(gens) == ["y", "t_beta_0", "nu_1"]
    s5 = Surface(False, 5, ())
    gens = canonical_generator_set(s5, {}, Target.LINE)
    names = _names(gens)
    assert "y" in names and "t_alpha_1" in names and "t_beta_2" in names
    assert not any(g.kind is GeneratorKind.ORIENTATION_REVERSAL for g in gens)
    s6 = Surface(False, 6, ("V1",))
    gens = canonical_generator_set(s6, {"V1": -1}, Target.LINE)
    names = _names(gens)
    assert "t_beta_0" in names and "t_delta_0" in names and "omega_1" in names


def test_generators_all_flagged_yes_for_line():
    for s, eps in [
        (Surface(True, 1, ()), {}),
        (Surface(False, 3, ("V1",)), {"V1": 1}),
        (Surface(True, 0, ("V1", "V2", "V3")), {"V1": 1, "V2": -1, "V3": -1}),
    ]:
        gens = canonical_generator_set(s, eps, Target.LINE)
        assert all(g.admissible is not Admissible.NO for g in gens)


def test_generators_circle_unsupported_cases():
    with pytest.raises(ValueError):
        canonical_generator_set(Surface(False, 2), {}, Target.CIRCLE)
    with pytest.raises(ValueError):
        canonical_generator_set(Surface(True, 0), {}, Target.CIRCLE)


def forbidden(p):
    return (
        (p.name == "Tb" and p.i == 1)
        or (p.name == "Eta" and 1 in (p.i, p.j))
        or (p.name == "Nu" and p.j == 1)
    )


def test_factor_stabilizer_round_trip():
    rng = random.Random(SEED + 11)
    g = 3
    q = [0, 0, 0, 1, 0, 0]  # dual to beta_1: fiber class alpha_1
    pool = []
    for i in range(1, g + 1):
        pool.append(("Ta", i, None))
        if i != 1:
            pool.append(("Tb", i, None))
        for j in range(1, g + 1):
            if i != j and j != 1:
                pool.append(("Nu", i, j))
    for _ in range(40):
        word = tuple(
            gen(*rng.choice(pool), exp=rng.choice([-2, -1, 1, 2]))
            for _ in range(rng.randint(0, 12))
        )
        h = evaluate(word, g)
        out, change = factor_stabilizer(h, q)
        assert change is None
        assert evaluate(out, g) == h
        assert not any(forbidden(p) for p in out)


def random_word(rng, g, allowed_only):
    """Up to 12 letters over every named generator at genus g, without the
    forbidden ones when ``allowed_only``."""
    word = []
    for _ in range(rng.randint(0, 12)):
        name, i, j = rng.choice(["Ta", "Tb", "Mu", "Eta", "Nu"]), rng.randint(1, g), None
        if name not in ("Ta", "Tb"):
            if g == 1:
                continue
            j = rng.choice([x for x in range(1, g + 1) if x != i])
        p = gen(name, i, j, rng.choice([-2, -1, 1, 2]))
        if not (allowed_only and forbidden(p)):
            word.append(p)
    return tuple(word)


def test_factor_stabilizer_conjugates_the_level_set_class():
    # h = P h0 P^-1 fixes L = P e0 when h0 fixes e0; q is read back from L
    # (L = (q_b, -q_a)), so it is primitive.  Even cases keep L = e0 by
    # drawing P from the stabilizer too.
    rng = random.Random(SEED + 12)
    seen = {True: 0, False: 0}
    for case in range(120):
        g = rng.randint(1, 4)
        e0 = (1,) + (0,) * (2 * g - 1)
        p = evaluate(random_word(rng, g, allowed_only=case % 2 == 0), g)
        h = p * evaluate(random_word(rng, g, allowed_only=True), g) * p.inverse()
        L = p.column(0)
        q = [-x for x in L[g:]] + list(L[:g])
        assert level_set_class(q, g).vector == L
        word, change = factor_stabilizer(h, q)
        assert (change is None) == (L == e0)
        c = SpMatrix.identity(g) if change is None else change
        assert c * evaluate(word, g) * c.inverse() == h
        assert not any(forbidden(x) for x in word)
        seen[L == e0] += 1
    assert seen[True] > 20 and seen[False] > 20


def test_factor_stabilizer_examples_and_errors():
    g = 2
    q = [0, 0, 1, 0]
    assert factor_stabilizer(SpMatrix.identity(g), q) == ((), None)
    h = transvection([1, 0, 0, 0])
    assert factor_stabilizer(h, q) == ((gen("Ta", 1),), None)
    with pytest.raises(ValueError, match="does not fix"):
        factor_stabilizer(transvection([0, 0, 1, 0]), q)  # moves the class
    with pytest.raises(ValueError, match="primitive"):
        factor_stabilizer(SpMatrix.identity(2), [2, 0, 0, 0])
    with pytest.raises(ValueError, match="length"):
        factor_stabilizer(SpMatrix.identity(2), [0, 1])
    # primitive class away from alpha_1: conjugated by its completion
    q2 = [1, 1, 0, 0]
    L = level_set_class(q2, 2).vector
    h = transvection(L)
    word, change = factor_stabilizer(h, q2)
    assert change == symplectic_completion(L)
    assert word == stabilizer_decompose(change.inverse() * h * change)
    assert change * evaluate(word, 2) * change.inverse() == h
