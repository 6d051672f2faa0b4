import contextlib
import hashlib
import io
import math
import operator
import os
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from morse_topo import symplectic
from morse_topo.symplectic import (
    GenPower,
    SpMatrix,
    _Eliminator,
    _nilpotent_part,
    _pack,
    _unpack,
    evaluate,
    format_matrix,
    format_word,
    gen,
    general_sp_factor,
    named_generator,
    omega_matrix,
    omega_product,
    parse_matrix,
    parse_word,
    stabilizer_decompose,
    symplectic_completion,
    transvection,
    word_inverse,
)
from morse_topo.surface import FormatError

SEED = int(os.environ.get("MORSE_TOPO_SEED", "0"))


def basis_vector(i: int, n: int) -> list[int]:
    v = [0] * n
    v[i] = 1
    return v


def test_transvection_examples():
    assert transvection([0, 0]) == SpMatrix.identity(1)
    assert transvection([1, 0]).rows == ((1, 1), (0, 1))
    assert transvection([0, 1]).rows == ((1, 0), (-1, 1))


@given(
    g=st.integers(1, 3),
    data=st.data(),
)
@settings(deadline=None)
def test_transvection_is_symplectic_and_inverts(g, data):
    gamma = data.draw(st.lists(st.integers(-6, 6), min_size=2 * g, max_size=2 * g))
    t = transvection(gamma)
    assert t.is_symplectic()
    neg = SpMatrix(
        [
            [(1 if r == c else 0) - (t.rows[r][c] - (1 if r == c else 0)) for c in range(2 * g)]
            for r in range(2 * g)
        ]
    )
    assert t * neg == SpMatrix.identity(g)


@given(g=st.integers(1, 3), data=st.data())
@settings(deadline=None)
def test_transvection_moves_along_gamma(g, data):
    n = 2 * g
    gamma = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    x = data.draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    moved = transvection(gamma).apply(x)
    diff = [a - b for a, b in zip(moved, x)]
    coeff = omega_product(gamma, x)
    assert diff == [coeff * v for v in gamma]


def test_named_generator_block_examples():
    mu = named_generator("Mu", 1, 2, g=2)
    assert mu.rows == (
        (1, 0, 0, -1),
        (0, 1, -1, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )
    nu = named_generator("Nu", 1, 2, g=2)
    assert nu.rows == (
        (1, 1, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, -1, 1),
    )


def test_named_generators_match_transvection_products():
    for g in range(1, 7):
        for i in range(1, g + 1):
            ai = basis_vector(i - 1, 2 * g)
            bi = basis_vector(g + i - 1, 2 * g)
            assert named_generator("Ta", i, g=g) == transvection(ai)
            assert named_generator("Tb", i, g=g) == transvection(bi)
            for j in range(1, g + 1):
                if i == j:
                    continue
                aj = basis_vector(j - 1, 2 * g)
                bj = basis_vector(g + j - 1, 2 * g)
                add = lambda u, v: [a + b for a, b in zip(u, v)]
                mu = (
                    transvection(ai)
                    * transvection(aj)
                    * transvection(add(ai, aj)).inverse()
                )
                eta = (
                    transvection(bi)
                    * transvection(bj)
                    * transvection(add(bi, bj)).inverse()
                )
                nu = (
                    transvection(ai)
                    * transvection(bj)
                    * transvection(add(ai, bj)).inverse()
                )
                assert named_generator("Mu", i, j, g=g) == mu
                assert named_generator("Eta", i, j, g=g) == eta
                assert named_generator("Nu", i, j, g=g) == nu
                for m in (mu, eta, nu):
                    assert m.is_symplectic()


def test_evaluate_basics():
    assert evaluate((), 2) == SpMatrix.identity(2)
    assert evaluate((gen("Ta", 1, None, 3),), 1).rows == ((1, 3), (0, 1))
    w = (gen("Nu", 2, 1), gen("Tb", 2, None, -2), gen("Mu", 1, 2))
    assert evaluate(w + word_inverse(w), 2) == SpMatrix.identity(2)


def test_evaluate_rejects_bad_indices():
    with pytest.raises(ValueError):
        evaluate((gen("Ta", 3),), 2)
    # letters built without gen that name no generator
    for letter, name in (
        (GenPower("Ta", 0, None, 1), "Ta0"),
        (GenPower("Ta", 1, 2, 1), "Ta1,2"),
        (GenPower("Nu", 1, 1, 1), "Nu1,1"),
        (GenPower("Xx", 1, None, 1), "Xx1"),
    ):
        with pytest.raises(ValueError, match=name):
            evaluate((letter,), 2)
    assert evaluate((GenPower("Mu", 2, 1, 1),), 2) == evaluate((gen("Mu", 1, 2),), 2)


def test_gen_normalisation():
    assert gen("Mu", 3, 1) == gen("Mu", 1, 3)
    assert gen("Eta", 2, 1).i == 1
    assert gen("Nu", 2, 1).i == 2
    with pytest.raises(ValueError):
        gen("Mu", 1, 1)
    with pytest.raises(ValueError):
        gen("Ta", 1, 2)
    with pytest.raises(ValueError):
        gen("Ta", 1, None, 0)


ALLOWED_NAMES = ("Ta", "Tb", "Mu", "Eta", "Nu")


def allowed_stabilizer_pool(g: int):
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


def random_allowed_word(rng, g, max_len=30):
    pool = allowed_stabilizer_pool(g)
    word = []
    for _ in range(rng.randint(0, max_len)):
        name, i, j = rng.choice(pool)
        word.append(gen(name, i, j, rng.choice([-3, -2, -1, 1, 2, 3])))
    return tuple(word)


def is_forbidden(p):
    return (
        (p.name == "Tb" and p.i == 1)
        or (p.name == "Eta" and 1 in (p.i, p.j))
        or (p.name == "Nu" and p.j == 1)
    )


def test_stabilizer_decompose_round_trip():
    rng = random.Random(SEED + 1)
    for _ in range(150):
        g = rng.randint(1, 5)
        h = evaluate(random_allowed_word(rng, g), g)
        word = stabilizer_decompose(h)
        assert evaluate(word, g) == h
        assert not any(is_forbidden(p) for p in word)


def test_stabilizer_word_fixes_first_vector():
    rng = random.Random(SEED + 2)
    for _ in range(100):
        g = rng.randint(1, 4)
        h = evaluate(random_allowed_word(rng, g, 15), g)
        assert h.column(0) == tuple(basis_vector(0, 2 * g))


def test_stabilizer_examples():
    assert stabilizer_decompose(SpMatrix.identity(4)) == ()
    h = named_generator("Tb", 2, g=2)
    assert stabilizer_decompose(h) == (gen("Tb", 2),)


def test_stabilizer_rejects_non_stabilizing():
    with pytest.raises(ValueError):
        stabilizer_decompose(named_generator("Tb", 1, g=2))
    with pytest.raises(ValueError):
        stabilizer_decompose(SpMatrix([[1, 1], [1, 1]]))


def bench_style_word(g, length, rng, exps=(-2, -1, 1, 2)):
    """Allowed word of exactly ``length`` letters, drawn as the sp-factor
    benchmark draws its inputs: name, then indices, then exponent."""
    word = []
    while len(word) < length:
        name, i, j = rng.choice(ALLOWED_NAMES), rng.randint(1, g), None
        if name not in ("Ta", "Tb"):
            j = rng.randint(1, g)
            if j == i:
                continue
        if is_forbidden(GenPower(name, i, j, 1)):
            continue
        word.append(gen(name, i, j, rng.choice(exps)))
    return tuple(word)


def max_exponent_bits(word):
    return max((abs(p.exp).bit_length() for p in word), default=0)


@pytest.mark.parametrize("g", [8, 12, 16])
def test_stabilizer_word_size_is_bounded(g):
    # polynomial size: exponents stay near the input's entries and the
    # word length is quadratic in g, where unreduced elimination grew
    # exponents to tens of thousands of bits by g=13
    rng = random.Random(f"size-bound:{g}:{SEED}")
    for _ in range(3):
        h = evaluate(bench_style_word(g, 20 * g, rng), g)
        word = stabilizer_decompose(h)
        assert max_exponent_bits(word) <= 128
        assert len(word) <= 32 * g * g
        assert evaluate(word, g) == h
        assert not any(is_forbidden(p) for p in word)


def test_genus_16_decomposition_time():
    rng = random.Random(f"timing:{SEED}")
    h = evaluate(bench_style_word(16, 320, rng), 16)
    start = time.perf_counter()
    stabilizer_decompose(h)
    assert time.perf_counter() - start < 2.0


def pinned_outputs(workdir):
    """Output texts pinned by ``test_words_are_pinned``, by case name."""
    from morse_topo import cli

    texts = {}
    for g in (4, 8, 10, 13, 20):
        h = evaluate(bench_style_word(g, 20 * g, random.Random(f"pinned:{g}")), g)
        texts[f"sp-decompose g={g}"] = format_word(stabilizer_decompose(h))
    # factor at g=6 on a matrix fixing L = P e0 != e0, so factor conjugates
    g = 6
    h0 = evaluate(bench_style_word(g, 20 * g, random.Random("pinned:factor")), g)
    p = evaluate((gen("Tb", 1, exp=2), gen("Nu", 3, 1), gen("Eta", 1, 5, exp=-1)), g)
    level = p.column(0)
    q = [-x for x in level[g:]] + list(level[:g])
    path = os.path.join(workdir, "factor.sp")
    with open(path, "w") as fh:
        fh.write(format_matrix(p * h0 * p.inverse()))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["factor", "--q=" + ",".join(map(str, q)), "--matrix", path])
    texts["factor g=6"] = f"{code}\n{out.getvalue()}"
    # factor at g=7 on a stabilizer element with L = e0: no conjugation
    g = 7
    h = evaluate(bench_style_word(g, 20 * g, random.Random("pinned:factor-e0")), g)
    path = os.path.join(workdir, "factor-e0.sp")
    with open(path, "w") as fh:
        fh.write(format_matrix(h))
    q = [1 if i == g else 0 for i in range(2 * g)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["factor", "--q=" + ",".join(map(str, q)), "--matrix", path])
    texts["factor g=7 L=e0"] = f"{code}\n{out.getvalue()}"
    return texts


# SHA-256 of each text of pinned_outputs, recorded before the size
# reduction sweep kept its rows and Gram rows in one table
PINNED_DIGESTS = {
    "sp-decompose g=4": "1e216bba296b0b7cdbc22f8347901117ba9873b500f3e04460c1049cfabb8d84",
    "sp-decompose g=8": "5500c193c9e6e55ca9e2ea623c89d1408ef4487091abd51f4a492735bf4220c5",
    "sp-decompose g=10": "8324ad13847f52aa65fea8f8fdd3b32c3f1647506a374b31baf62cf892f4ef75",
    "sp-decompose g=13": "d8585e216cb383aa3bdad4955de52e4fe6215828bfdc9f598aa1467fdc39090f",
    # recorded before the sweep packed its block rows: from g = 16 on, most
    # sweeps apply a few moves each
    "sp-decompose g=20": "541cb3c23dee5925c5c72cfac03de3b77c0e22dd1bc3c426fab9d3e59c191016",
    "factor g=6": "a86950f07b6caf3941f6f745584ffb07532b425566a4e3c88aadc209a8d1ede7",
    # recorded before factor_stabilizer took over the conjugation
    "factor g=7 L=e0": "acf6786cc8d48aa8aa9ae054cc8ce73093595d44456b9b15f04293091a97c382",
}


def test_words_are_pinned(tmp_path):
    """The factoriser's words stay the same letter for letter, not merely
    words that evaluate to the same matrix: speed-ups must keep every move,
    exponent and word.  A change that alters the moves on purpose must
    record these digests again and say so in CHANGES.md."""
    digests = {
        name: hashlib.sha256(text.encode()).hexdigest()
        for name, text in pinned_outputs(str(tmp_path)).items()
    }
    assert digests == PINNED_DIGESTS


def random_general_word(rng, g, max_len=25):
    word = []
    for _ in range(rng.randint(0, max_len)):
        name = rng.choice(ALLOWED_NAMES)
        i = rng.randint(1, g)
        j = None
        if name in ("Mu", "Eta", "Nu"):
            if g == 1:
                continue
            j = rng.choice([x for x in range(1, g + 1) if x != i])
        word.append(gen(name, i, j, rng.choice([-3, -2, -1, 1, 2, 3])))
    return tuple(word)


def test_general_sp_factor_round_trip():
    rng = random.Random(SEED + 3)
    for _ in range(120):
        g = rng.randint(1, 4)
        h = evaluate(random_general_word(rng, g), g)
        word = general_sp_factor(h)
        assert evaluate(word, g) == h


@st.composite
def general_blocks(draw, min_g=2):
    """A matrix of Sp(2g, Z), min_g <= g <= 8, from a word over all generators."""
    g = draw(st.integers(min_g, 8))
    letters = draw(
        st.lists(
            st.tuples(
                st.sampled_from(ALLOWED_NAMES),
                st.integers(1, g),
                st.integers(1, g),
                st.sampled_from([-3, -2, -1, 1, 2, 3]),
            ),
            max_size=40,
        )
    )
    word = [
        gen(name, i, None if name in ("Ta", "Tb") else j, exp)
        for name, i, j, exp in letters
        if name in ("Ta", "Tb") or i != j
    ]
    return g, evaluate(word, g)


def squared_norm(rows):
    return sum(x * x for row in rows for x in row)


# a block whose row sweeps stall, so that the column sweeps act (W has 15
# letters); random blocks at g <= 8 almost never need them
STALLING_WORD = (
    "Eta1,8^-3 Ta3 Eta2,6 Eta1,4^2 Ta8^3 Tb3^-3 Eta3,7 Mu1,4^-3 Mu3,8^-2 "
    "Nu2,6^2 Mu7,8^-1 Eta2,8^2 Mu6,7^-1 Mu1,5^-3 Tb2^-1 Eta2,5^-2 Eta5,8^-1 "
    "Eta2,4^3 Mu2,5^2 Tb6 Eta1,3^-1 Mu5,6^-1 Eta1,7 Tb3^-3 Tb3^-1 Eta2,6^-3 "
    "Nu8,6^2 Nu7,3^-3 Mu2,3 Tb6^3"
)


@given(general_blocks())
@example((8, evaluate(parse_word(STALLING_WORD), 8)))
@settings(deadline=None, max_examples=80)
def test_size_reduce_contract(case):
    # size_reduce promises block == evaluate(ops) * rows * W, and
    # each _sweep (on the rows or on the transpose) applies a move only
    # when it strictly lowers the summed squared norm
    g, block = case
    sweeps = []
    sweep = _Eliminator._sweep

    def recorded_sweep(self):
        before = squared_norm(self.rows)
        applied = sweep(self)
        sweeps.append((before, applied, squared_norm(self.rows)))
        return applied

    elim = _Eliminator([list(row) for row in block.rows], 0)
    with mock.patch.object(_Eliminator, "_sweep", recorded_sweep):
        right = elim.size_reduce()
    assert evaluate(elim.ops, g) * SpMatrix(elim.rows) * evaluate(right, g) == block
    assert sweeps
    for before, applied, after in sweeps:
        assert after <= before
        assert applied == (after < before)


def reference_sweep_moves(g):
    """Every named generator at genus g with its nilpotent part, in the
    order ``_Eliminator._sweep`` tries them."""
    moves = []
    for i in range(1, g + 1):
        moves += [("Ta", i, None), ("Tb", i, None)]
        for j in range(1, g + 1):
            if j != i:
                moves.append(("Nu", i, j))
            if j > i:
                moves += [("Mu", i, j), ("Eta", i, j)]
    return tuple((m, tuple(_nilpotent_part(gen(*m), g))) for m in moves)


def reference_sweep(self):
    """Oracle for ``_Eliminator._sweep``: the same greedy sweep with an
    inner loop over each move's nilpotent entries, recording each letter
    with its exponent t (not inverted)."""
    rows = self.rows
    if sum(x * x for row in rows for x in row) == len(rows):
        return False
    low = [
        [sum(map(operator.mul, ra, rb)) for rb in rows[: x + 1]]
        for x, ra in enumerate(rows)
    ]
    n, w = len(rows), len(rows[0])
    table = [
        rows[x] + low[x] + [low[y][x] for y in range(x + 1, n)] for x in range(n)
    ]
    ops, off = self.ops, self.offset
    applied = False
    changed = True
    while changed:
        changed = False
        for (name, i, j), nil in reference_sweep_moves(self.g):
            a = b = 0
            for r, c, v in nil:
                a += table[c][w + c]
                b += v * table[r][w + c]
            t = (a - 2 * b) // (2 * a)
            if t == 0 or t * (a * t + 2 * b) >= 0:
                continue
            ops.append(GenPower(name, i + off, None if j is None else j + off, t))
            for r, c, v in nil:
                tv = t * v
                if tv == 1:
                    table[r] = list(map(operator.add, table[r], table[c]))
                elif tv == -1:
                    table[r] = list(map(operator.sub, table[r], table[c]))
                else:
                    table[r] = [x + tv * y for x, y in zip(table[r], table[c])]
            for r, c, v in nil:
                tv, gr, gc = t * v, w + r, w + c
                for row in table:
                    row[gr] += tv * row[gc]
            changed = applied = True
    if applied:
        rows[:] = [row[:w] for row in table]
    return applied


class ExpectedLetters(list):
    """A list that refuses any item but the next one of ``expected``."""

    def __init__(self, items, expected):
        super().__init__(items)
        self.expected = list(items) + list(expected)

    def append(self, item):
        k = len(self)
        if k >= len(self.expected) or item != self.expected[k]:
            raise AssertionError(f"the sweep's letter {k} differs from the reference")
        super().append(item)


def sweeps_checked_against_reference(run):
    """Call ``run()`` with every ``_Eliminator._sweep`` checked against
    ``reference_sweep`` on a copy of its block: the same result, the same
    rows, and each letter the same but for its negated exponent.  Returns
    the letters the reference recorded."""
    kernel = _Eliminator._sweep
    letters = []

    def checked_sweep(self):
        ref = _Eliminator([list(row) for row in self.rows], self.offset)
        expected = reference_sweep(ref)
        ops, start = self.ops, len(self.ops)
        # a wrong kernel may apply moves without end, its entries growing
        # with each: stop it at its first letter that is not the reference's
        self.ops = ExpectedLetters(ops, [p._replace(exp=-p.exp) for p in ref.ops])
        try:
            applied = kernel(self)
        finally:
            ops[start:] = self.ops[start:]
            self.ops = ops
        assert applied == expected
        assert self.rows == ref.rows
        assert self.ops[start:] == [p._replace(exp=-p.exp) for p in ref.ops]
        letters.extend(ref.ops)
        return applied

    with mock.patch.object(_Eliminator, "_sweep", checked_sweep):
        run()
    return letters


@given(general_blocks(min_g=1))
@example((8, evaluate(parse_word(STALLING_WORD), 8)))
@settings(deadline=None, max_examples=80)
def test_sweep_matches_reference(case):
    _, block = case
    sweeps_checked_against_reference(lambda: general_sp_factor(block))


def test_sweep_matches_reference_at_genus_13():
    g = 13
    h = evaluate(bench_style_word(g, 20 * g, random.Random("oracle:13")), g)
    letters = sweeps_checked_against_reference(lambda: stabilizer_decompose(h))
    assert any(abs(p.exp) > 1 for p in letters)
    assert any(p.name in ("Ta", "Tb") for p in letters)


def test_sweep_matches_reference_at_genus_18():
    # below the first level, most sweeps apply a few moves each, so many
    # rows are read as the source of a move and never written
    g = 18
    h = evaluate(bench_style_word(g, 20 * g, random.Random("oracle:18")), g)
    sweeps_checked_against_reference(lambda: stabilizer_decompose(h))


@st.composite
def packable_rows(draw):
    """(row, base) with every entry within isqrt(F) of zero for a drawn F,
    one entry reaching exactly +-isqrt(F), and base = 2 isqrt(F) + 3."""
    n = draw(st.integers(2, 52))
    bound = math.isqrt(draw(st.integers(1, 2**80)))
    row = draw(st.lists(st.integers(-bound, bound), min_size=n, max_size=n))
    row[draw(st.integers(0, n - 1))] = draw(st.sampled_from([bound, -bound]))
    return row, 2 * bound + 3


@given(packable_rows(), st.integers(-3, 3))
def test_packed_rows_round_trip(case, tv):
    row, base = case
    n = len(row)
    assert _unpack(_pack(row, base), base, n) == row
    # packing is linear: a row plus tv times another unpacks as the sum
    # whenever the sum's entries stay in range, as the sweep's do
    other = row[::-1]
    total = [x + tv * y for x, y in zip(row, other)]
    if max(map(abs, total)) <= base // 2:
        assert _unpack(_pack(row, base) + tv * _pack(other, base), base, n) == total


@given(packable_rows(), st.sampled_from([1, -1]))
def test_unpack_rejects_an_out_of_range_digit(case, sign):
    row, base = case
    row[-1] = sign * (base // 2 + 1)
    with pytest.raises(AssertionError, match="beyond its length"):
        _unpack(_pack(row, base), base, len(row))


def test_general_sp_factor_examples():
    assert general_sp_factor(SpMatrix.identity(2)) == ()
    assert general_sp_factor(named_generator("Tb", 1, g=2)) == (gen("Tb", 1),)


def test_general_sp_factor_rejects_non_symplectic():
    with pytest.raises(ValueError):
        general_sp_factor(SpMatrix([[2, 0], [0, 2]]))


@pytest.mark.parametrize("entry", [1.7, Fraction(3, 2)])
def test_non_integer_entries_are_rejected(entry):
    # int() would truncate 1.7 to 1 and accept the identity
    with pytest.raises(ValueError, match="matrix entries must be integers"):
        SpMatrix([[entry, 0], [0, 1]])
    with pytest.raises(ValueError, match="vector entries must be integers"):
        transvection([entry, 0])
    with pytest.raises(ValueError, match="vector entries must be integers"):
        symplectic_completion([entry, 1])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: SpMatrix([[1, 0, 0], [0, 1, 0]]), "matrix must be square of even size"),
        (lambda: SpMatrix.identity(1).apply((1, 0, 0)), "vector length does not match matrix size"),
        (lambda: SpMatrix([[2, 0], [0, 2]]).inverse(), "matrix is not symplectic"),
        (lambda: omega_product((1, 0), (1, 0, 0, 0)), "vectors must have equal even length"),
        (lambda: transvection(()), "vector length must be even and positive"),
        (lambda: symplectic_completion((1, 0, 0)), "vector length must be even and positive"),
    ],
    ids=["non-square", "apply-length", "inverse", "omega-product", "transvection", "completion"],
)
def test_malformed_arguments_are_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_symplectic_completion():
    rng = random.Random(SEED + 4)
    import math

    for _ in range(60):
        g = rng.randint(1, 5)
        while True:
            v = [rng.randint(-9, 9) for _ in range(2 * g)]
            d = 0
            for x in v:
                d = math.gcd(d, x)
            if d == 1:
                break
        c = symplectic_completion(v)
        assert c.is_symplectic()
        assert c.column(0) == tuple(v)
    with pytest.raises(ValueError):
        symplectic_completion([2, 0, 0, 0])


def test_word_text_round_trip():
    w = (gen("Ta", 1, None, 3), gen("Nu", 2, 3, -1), gen("Eta", 1, 4))
    assert format_word(w) == "Ta1^3 Nu2,3^-1 Eta1,4"
    assert parse_word(format_word(w)) == w
    assert parse_word("") == ()
    with pytest.raises(ValueError):
        parse_word("Xy1")
    with pytest.raises(ValueError):
        parse_word("Ta1,2")
    with pytest.raises(ValueError):
        parse_word("Mu1")
    for token in ("Ta\u0661^\u0662", "Nu1,\u0662", "Tb1^-\uff13"):
        with pytest.raises(ValueError, match="bad generator token"):
            parse_word(token)


def test_matrix_text_round_trip():
    m = named_generator("Nu", 1, 2, g=2)
    text = format_matrix(m)
    assert text.startswith("SP 2\n")
    assert parse_matrix(text) == m
    with pytest.raises(ValueError):
        parse_matrix("1 0\n0 1\n")
    with pytest.raises(ValueError):
        parse_matrix("SP 2\n1 0\n0 1\n")
    with pytest.raises(FormatError, match="bad 'SP <g>' header"):
        parse_matrix("SP \u0661\n1 0\n0 1\n")
    for rows in ("1 1_0\n0 1\n", "1 0\n0 \u0661\n"):
        with pytest.raises(FormatError, match="matrix entries must be integers"):
            parse_matrix("SP 1\n" + rows)


def test_omega_matrix_squares_to_minus_identity():
    for g in (1, 2, 3):
        om = omega_matrix(g)
        sq = om * om
        assert sq.rows == tuple(
            tuple(-1 if r == c else 0 for c in range(2 * g)) for r in range(2 * g)
        )


MATRIX_LIKE = st.builds(
    lambda header, rows: header + "\n" + "\n".join(" ".join(row) for row in rows),
    st.sampled_from(["SP 1", "SP 2", "SP 0", "SP -1", "SP x", "SP", "S", "SP 1 2"]),
    st.lists(
        st.lists(st.sampled_from(["0", "1", "-1", "7", "x", "1.5", "", "9" * 5000]), max_size=5),
        max_size=5,
    ),
)


@given(st.text() | MATRIX_LIKE)
@example("SP 1 2\n1 0\n0 1")
@settings(max_examples=300)
def test_any_text_gives_a_matrix_or_a_format_error(text):
    try:
        m = parse_matrix(text)
    except FormatError:
        return
    header = next(ln for ln in text.splitlines() if ln.strip())
    assert len(header.split()) == 2  # "SP <g>" and nothing after it
    assert parse_matrix(format_matrix(m)) == m


WORD_LIKE = st.lists(
    st.builds(
        "".join,
        st.lists(
            st.sampled_from(["Ta", "Tb", "Mu", "Eta", "Nu", "Xy", "1", "2", "0", ",", "^",
                             "-", "^-", "10", "9" * 5000]),
            max_size=6,
        ),
    ),
    max_size=4,
).map(" ".join)


@given(st.text() | WORD_LIKE)
@settings(max_examples=300)
def test_any_text_gives_a_word_or_a_value_error(text):
    try:
        w = parse_word(text)
    except ValueError:
        return
    assert parse_word(format_word(w)) == w


@st.composite
def words(draw):
    g = draw(st.integers(1, 5))
    word = []
    for _ in range(draw(st.integers(0, 8))):
        name = draw(st.sampled_from(ALLOWED_NAMES if g > 1 else ("Ta", "Tb")))
        i = draw(st.integers(1, g))
        j = None
        if name in ("Mu", "Eta", "Nu"):
            j = draw(st.integers(1, g).filter(lambda j: j != i))
        exp = draw(st.integers(-(10**30), 10**30).filter(bool))
        word.append(gen(name, i, j, exp))
    return tuple(word)


@given(words())
def test_any_word_text_round_trips(w):
    assert parse_word(format_word(w)) == w


@given(st.integers(1, 3).flatmap(
    lambda g: st.lists(st.lists(st.integers(), min_size=2 * g, max_size=2 * g),
                       min_size=2 * g, max_size=2 * g)))
def test_any_integer_matrix_text_round_trips(rows):
    m = SpMatrix(rows)
    assert parse_matrix(format_matrix(m)) == m


# -- the package's own result checks, each reached by injecting a fault ------


def test_sp_matrix_is_immutable_hashable_and_typed():
    m = evaluate((gen("Ta", 1), gen("Mu", 1, 2)), 2)
    with pytest.raises(AttributeError, match="^SpMatrix is immutable$"):
        m.rows = ()
    assert hash(m) == hash(SpMatrix(m.rows)) and len({m, SpMatrix(m.rows)}) == 1
    # a product with anything but a matrix of the same size is not defined
    for other in (2, SpMatrix.identity(1)):
        assert m.__mul__(other) is NotImplemented
        with pytest.raises(TypeError):
            m * other


def test_inverse_that_does_not_invert_is_internal(monkeypatch):
    m = evaluate((gen("Ta", 1),), 1)
    monkeypatch.setattr(SpMatrix, "__mul__", lambda self, other: self)
    with pytest.raises(AssertionError, match="does not invert the matrix"):
        m.inverse()


def test_sweep_row_below_norm_one_is_internal():
    # a singular block, as a fault upstream could hand the sweep: its first
    # move subtracts one row from the other.  Called directly, since the
    # factoriser's later stages never end on a singular block
    with pytest.raises(AssertionError, match="squared norm fell below 1"):
        _Eliminator([[1, 1], [1, 1]], 0)._sweep()


def test_sweep_row_that_unpacks_wrong_is_internal(monkeypatch):
    monkeypatch.setattr(symplectic, "_unpack", lambda packed, base, n: [0] * n)
    h = evaluate(parse_word(STALLING_WORD), 8)
    with pytest.raises(AssertionError, match="does not match its Gram entry"):
        general_sp_factor(h)


def test_factorisation_that_does_not_evaluate_is_internal(monkeypatch):
    normalize = symplectic._normalize
    monkeypatch.setattr(
        symplectic, "_normalize", lambda word: normalize(word) + (gen("Ta", 1),)
    )
    with pytest.raises(AssertionError, match="does not evaluate to the input"):
        general_sp_factor(named_generator("Tb", 1, g=2))


def test_completion_with_the_wrong_column_is_internal(monkeypatch):
    monkeypatch.setattr(_Eliminator, "reduce_first_column", lambda self: None)
    with pytest.raises(AssertionError, match="requested first column"):
        symplectic_completion([2, 1, 3, 5])
