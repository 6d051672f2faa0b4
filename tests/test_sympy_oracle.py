"""Exact sympy arithmetic as an independent oracle for the symplectic module.

The oracle builds each named generator from its definition as a product of
symplectic transvections, x -> x + form(gamma, x) * gamma, and multiplies
sympy matrices.  It shares no code with ``evaluate`` (sparse row updates)
or ``SpMatrix.inverse`` (the -Omega M^T Omega formula).  The package itself
must never import sympy.
"""
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from morse_topo.symplectic import (
    SpMatrix,
    evaluate,
    gen,
    stabilizer_decompose,
)
from test_symplectic import allowed_stabilizer_pool, is_forbidden

sympy = pytest.importorskip("sympy")


def form_matrix(g):
    """J with form(x, y) = x^T J y = sum x_i y_{g+i} - x_{g+i} y_i."""
    return sympy.Matrix(
        2 * g, 2 * g, lambda r, c: 1 if c == r + g else (-1 if r == c + g else 0)
    )


def oracle_transvection(gamma, g):
    gamma = sympy.Matrix(gamma)
    return sympy.eye(2 * g) + gamma * gamma.T * form_matrix(g)


def unit(k, g):
    return [1 if r == k else 0 for r in range(2 * g)]


def oracle_generator(name, i, j, g):
    """Named generator as the transvection product that defines it."""
    a = lambda k: unit(k - 1, g)
    b = lambda k: unit(g + k - 1, g)
    plus = lambda u, v: [x + y for x, y in zip(u, v)]
    t = lambda gamma: oracle_transvection(gamma, g)
    if name == "Ta":
        return t(a(i))
    if name == "Tb":
        return t(b(i))
    u, v = {"Mu": (a(i), a(j)), "Eta": (b(i), b(j)), "Nu": (a(i), b(j))}[name]
    return t(u) * t(v) * t(plus(u, v)).inv()


def oracle_product(word, g):
    m = sympy.eye(2 * g)
    for p in word:
        m = m * oracle_generator(p.name, p.i, p.j, g) ** p.exp
    return m


def as_sympy(h: SpMatrix):
    return sympy.Matrix([list(row) for row in h.rows])


NAMES = ("Ta", "Tb", "Mu", "Eta", "Nu")


@st.composite
def general_words(draw, max_g=4, max_len=10):
    g = draw(st.integers(1, max_g))
    word = []
    for _ in range(draw(st.integers(0, max_len))):
        name = draw(st.sampled_from(NAMES if g > 1 else NAMES[:2]))
        i = draw(st.integers(1, g))
        j = None
        if name not in ("Ta", "Tb"):
            j = draw(st.sampled_from([x for x in range(1, g + 1) if x != i]))
        exp = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        word.append(gen(name, i, j, exp))
    return g, tuple(word)


@st.composite
def allowed_words(draw, min_g=2, max_g=6, max_len=16):
    g = draw(st.integers(min_g, max_g))
    pool = allowed_stabilizer_pool(g)
    letters = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.sampled_from([-2, -1, 1, 2])),
            max_size=max_len,
        )
    )
    return g, tuple(gen(name, i, j, exp) for (name, i, j), exp in letters)


@given(general_words())
@settings(deadline=None, max_examples=60)
def test_evaluate_matches_sympy_product(case):
    g, word = case
    assert as_sympy(evaluate(word, g)) == oracle_product(word, g)


@given(general_words())
@settings(deadline=None, max_examples=40)
def test_inverse_matches_sympy_inverse(case):
    g, word = case
    h = evaluate(word, g)
    assert as_sympy(h.inverse()) == as_sympy(h).inv()


@given(general_words(max_g=6), st.data())
@settings(deadline=None, max_examples=60)
def test_is_symplectic_matches_sympy(case, data):
    # a symplectic matrix, then a copy with one entry moved by 1..3 either way
    g, word = case
    h = evaluate(word, g)
    r, c = data.draw(st.integers(0, 2 * g - 1)), data.draw(st.integers(0, 2 * g - 1))
    shift = data.draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
    moved = [list(row) for row in h.rows]
    moved[r][c] += shift
    for m in (h, SpMatrix(moved)):
        expected = as_sympy(m).T * form_matrix(g) * as_sympy(m) == form_matrix(g)
        assert m.is_symplectic() == expected


@given(allowed_words())
@settings(deadline=None, max_examples=30)
def test_stabilizer_decompose_round_trip_against_sympy(case):
    g, word = case
    h = evaluate(word, g)
    decomposed = stabilizer_decompose(h)
    assert not any(is_forbidden(p) for p in decomposed)
    assert oracle_product(decomposed, g) == as_sympy(h)


def test_package_does_not_import_sympy():
    code = (
        "import sys\n"
        "import morse_topo, morse_topo.cli\n"
        "from morse_topo import canonical, classify, krgraph, mcg, mesh, surface\n"
        "morse_topo.cli.main(['admissible', '--q', '0,1', '--gamma', '1,0'])\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))\n"
    )
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.splitlines()[-1] == "[]"
