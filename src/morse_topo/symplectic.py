"""Exact integer symplectic group Sp(2g, Z).

Vectors are columns over the ordered basis (a_1..a_g, b_1..b_g); the
alternating form has matrix [[0, I], [-I, 0]], so form(a_i, b_i) = 1.
Group elements act on the left and composition ``p * q`` applies ``q``
first.  All arithmetic is arbitrary-precision integer; nothing is reduced
modulo anything.

Besides plain transvections the module provides the five named generator
families Ta(i), Tb(i), Mu(i,j), Eta(i,j), Nu(i,j), word evaluation, and two
factorisation routines: ``general_sp_factor`` (symplectic Gaussian
elimination) and ``stabilizer_decompose`` (words for elements fixing the
first basis vector, avoiding Tb(1), Eta(1,*) and Nu(*,1)).
"""
from __future__ import annotations

import functools
import math
import operator
import re
from typing import Iterable, NamedTuple, Sequence

from .surface import FormatError


class SpMatrix:
    """Immutable 2g x 2g integer matrix, normally a symplectic one."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        n = len(rows)
        if n == 0 or n % 2 != 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square of even size")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "n", n)

    def __setattr__(self, name, value):
        raise AttributeError("SpMatrix is immutable")

    @property
    def g(self) -> int:
        return self.n // 2

    @classmethod
    def identity(cls, g: int) -> "SpMatrix":
        n = 2 * g
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def __eq__(self, other) -> bool:
        return isinstance(other, SpMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __mul__(self, other: "SpMatrix") -> "SpMatrix":
        if not isinstance(other, SpMatrix) or other.n != self.n:
            return NotImplemented
        cols = list(zip(*other.rows))
        return SpMatrix(
            [[sum(map(operator.mul, ra, cb)) for cb in cols] for ra in self.rows]
        )

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"SpMatrix[{body}]"

    def transpose(self) -> "SpMatrix":
        return SpMatrix(list(zip(*self.rows)))

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(row[j] for row in self.rows)

    def apply(self, vec: Sequence[int]) -> tuple[int, ...]:
        if len(vec) != self.n:
            raise ValueError("vector length does not match matrix size")
        return tuple(sum(row[k] * vec[k] for k in range(self.n)) for row in self.rows)

    def is_symplectic(self) -> bool:
        """M^T Omega M == Omega: the (alternating) form is 1 on columns
        (i, g+i) and 0 on every other pair j < k.  Each column c is turned
        once into Omega c = (c_b, -c_a), so that form(x, c) = x . Omega c."""
        g, cols = self.g, list(zip(*self.rows))
        turned = [c[g:] + tuple(-x for x in c[:g]) for c in cols]
        return all(
            sum(map(operator.mul, cols[j], turned[k])) == (k == j + g)
            for j in range(self.n)
            for k in range(j + 1, self.n)
        )

    def inverse(self) -> "SpMatrix":
        """Exact inverse of a symplectic matrix [[A, B], [C, D]]:
        [[D^T, -B^T], [-C^T, A^T]]."""
        if not self.is_symplectic():
            raise ValueError("matrix is not symplectic")
        g, t = self.g, list(zip(*self.rows))  # M^T = [[A^T, C^T], [B^T, D^T]]
        inv = SpMatrix(
            [row[g:] + tuple(-x for x in row[:g]) for row in t[g:]]
            + [tuple(-x for x in row[g:]) + row[:g] for row in t[:g]]
        )
        if inv * self != SpMatrix.identity(self.g):
            raise AssertionError("computed inverse does not invert the matrix")
        return inv


def omega_matrix(g: int) -> SpMatrix:
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return SpMatrix(rows)


def omega_product(x: Sequence[int], y: Sequence[int]) -> int:
    """The alternating form: sum of x_i y_{g+i} - x_{g+i} y_i."""
    if len(x) != len(y) or len(x) % 2 != 0:
        raise ValueError("vectors must have equal even length")
    g = len(x) // 2
    return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))


def transvection(gamma: Sequence[int]) -> SpMatrix:
    """Matrix of x -> form(gamma, x) * gamma + x.

    Always symplectic; the inverse flips the sign of the form coefficient.
    """
    gamma = [int(x) for x in gamma]
    if len(gamma) % 2 != 0 or not gamma:
        raise ValueError("vector length must be even and positive")
    n = len(gamma)
    g = n // 2
    # row vector w with form(gamma, x) = w . x
    w = [-gamma[g + c] for c in range(g)] + [gamma[c] for c in range(g)]
    return SpMatrix(
        [
            [(1 if r == c else 0) + gamma[r] * w[c] for c in range(n)]
            for r in range(n)
        ]
    )


# ---------------------------------------------------------------------------
# Named generators and words


class GenPower(NamedTuple):
    """One factor of a generator word: a named generator raised to a power."""

    name: str  # "Ta", "Tb", "Mu", "Eta", "Nu"
    i: int
    j: int | None
    exp: int


_SINGLE = {"Ta", "Tb"}
_DOUBLE = {"Mu", "Eta", "Nu"}
_SYMMETRIC = {"Mu", "Eta"}

Word = tuple[GenPower, ...]


def gen(name: str, i: int, j: int | None = None, exp: int = 1) -> GenPower:
    """Build a normalized generator power (Mu/Eta indices sorted, exp != 0)."""
    if name in _SINGLE:
        if j is not None:
            raise ValueError(f"{name} takes a single index")
    elif name in _DOUBLE:
        if j is None or i == j:
            raise ValueError(f"{name} takes two distinct indices")
        if name in _SYMMETRIC and i > j:
            i, j = j, i
    else:
        raise ValueError(f"unknown generator name {name!r}")
    if i < 1 or (j is not None and j < 1):
        raise ValueError("generator indices start at 1")
    if exp == 0:
        raise ValueError("generator exponent must be non-zero")
    return GenPower(name, i, j, int(exp))


def _nilpotent_part(p: GenPower, g: int) -> list[tuple[int, int, int]]:
    """Sparse entries (row, col, value) of N with generator = I + N and N^2 = 0."""
    i = p.i - 1
    j = (p.j - 1) if p.j is not None else None
    top = 0
    bot = g
    if p.name == "Ta":
        return [(top + i, bot + i, 1)]
    if p.name == "Tb":
        return [(bot + i, top + i, -1)]
    if p.name == "Mu":
        return [(top + i, bot + j, -1), (top + j, bot + i, -1)]
    if p.name == "Eta":
        return [(bot + i, top + j, 1), (bot + j, top + i, 1)]
    # Nu
    return [(top + i, top + j, 1), (bot + j, bot + i, -1)]


def named_generator(name: str, i: int, j: int | None = None, *, g: int) -> SpMatrix:
    """Closed-form matrix of one named generator at genus g."""
    return evaluate((gen(name, i, j),), g)


def _check_indices(word: Iterable[GenPower], g: int):
    """Reject a letter that names no generator at genus g."""
    for p in word:
        if p.name in _SINGLE and p.j is None:
            indices = (p.i,)
        elif p.name in _DOUBLE and p.j not in (None, p.i):
            indices = (p.i, p.j)
        else:
            indices = ()
        if not indices or min(indices) < 1:
            idx = p.i if p.j is None else f"{p.i},{p.j}"
            raise ValueError(f"{p.name}{idx} is not a generator letter")
        top = max(indices)
        if top > g:
            raise ValueError(f"generator index {top} exceeds genus {g}")


def _left_apply(p: GenPower, rows: list[list[int]], g: int):
    """rows <- (I + t N) * rows, the power t = ``p.exp`` of the generator
    I + N (N^2 = 0), as a sparse row operation.

    ``rows`` must have 2g rows but may have any width (a single column is
    enough when only a vector is being reduced).
    """
    updates = [(r, p.exp * v, rows[c]) for r, c, v in _nilpotent_part(p, g)]
    for r, coeff, src in updates:
        rows[r] = [x + coeff * y for x, y in zip(rows[r], src)]


def evaluate(word: Sequence[GenPower], g: int) -> SpMatrix:
    """Left-to-right product of the generator powers in ``word``."""
    _check_indices(word, g)
    rows = [[1 if r == c else 0 for c in range(2 * g)] for r in range(2 * g)]
    for p in reversed(word):
        _left_apply(p, rows, g)
    return SpMatrix(rows)


def word_inverse(word: Sequence[GenPower]) -> Word:
    """Formal inverse of a word: reversed order, negated exponents."""
    return tuple(GenPower(p.name, p.i, p.j, -p.exp) for p in reversed(word))


def _undo_ops(ops: Sequence[GenPower]) -> Word:
    """Word for the inverse of a stack of left-applied operations.

    Applying ops G1, G2, ..., Gm on the left realises the product
    Gm * ... * G1, whose inverse reads G1^-1 * ... * Gm^-1, i.e. the ops in
    their original order with negated exponents.
    """
    return tuple(GenPower(p.name, p.i, p.j, -p.exp) for p in ops)


def _transpose_power(p: GenPower) -> GenPower:
    """The generator power whose matrix is the transpose of that of ``p``."""
    if p.name == "Nu":
        return p._replace(i=p.j, j=p.i)
    name = {"Ta": "Tb", "Tb": "Ta", "Mu": "Eta", "Eta": "Mu"}[p.name]
    return p._replace(name=name, exp=-p.exp)


def _normalize(word: Iterable[GenPower]) -> Word:
    """Merge adjacent powers of the same generator and drop zero exponents."""
    out: list[GenPower] = []
    for p in word:
        if p.exp == 0:
            continue
        if out and out[-1][:3] == p[:3]:
            merged = out[-1].exp + p.exp
            out.pop()
            if merged:
                out.append(p._replace(exp=merged))
        else:
            out.append(p)
    return tuple(out)


# ---------------------------------------------------------------------------
# Word and matrix text formats


_TOKEN_RE = re.compile(r"^(Ta|Tb|Mu|Eta|Nu)(\d+)(?:,(\d+))?(?:\^(-?\d+))?$")


def format_word(word: Sequence[GenPower]) -> str:
    """Space-separated tokens like ``Ta1^3 Nu2,3^-1`` (unit exponents omitted).

    Raises ValueError when an exponent has more decimal digits than Python
    converts to a string.
    """
    parts = []
    for p in word:
        idx = str(p.i) if p.j is None else f"{p.i},{p.j}"
        try:
            suffix = "" if p.exp == 1 else f"^{p.exp}"
        except ValueError:
            raise ValueError(
                f"exponent of {p.name}{idx} ({p.exp.bit_length()} bits) is too "
                "large to print"
            ) from None
        parts.append(f"{p.name}{idx}{suffix}")
    return " ".join(parts)


def parse_word(text: str) -> Word:
    word = []
    for token in text.split():
        m = _TOKEN_RE.match(token)
        if not m:
            raise ValueError(f"bad generator token {token!r}")
        name, i, j, exp = m.groups()
        if (name in _SINGLE) != (j is None):
            raise ValueError(f"bad index count in token {token!r}")
        word.append(
            gen(name, int(i), int(j) if j else None, int(exp) if exp else 1)
        )
    return tuple(word)


def format_matrix(m: SpMatrix) -> str:
    lines = [f"SP {m.g}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> SpMatrix:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("SP"):
        raise FormatError("matrix text must start with an 'SP <g>' header")
    try:
        g = int(lines[0].split()[1])
    except (IndexError, ValueError):
        raise FormatError("bad 'SP <g>' header") from None
    if g < 1:
        raise FormatError(f"'SP <g>' header needs g >= 1, got {g}")
    if len(lines) != 1 + 2 * g:
        raise FormatError(f"expected {2 * g} matrix rows, got {len(lines) - 1}")
    try:
        rows = [[int(x) for x in ln.split()] for ln in lines[1:]]
    except ValueError:
        raise FormatError("matrix entries must be integers") from None
    if any(len(row) != 2 * g for row in rows):
        raise FormatError("matrix rows must have 2g entries")
    return SpMatrix(rows)


# ---------------------------------------------------------------------------
# Factorisation


def _euclid_pair(read, move_a, move_b):
    """Drive the pair (a, b) read by ``read`` to (d, 0) with gcd moves.

    ``move_a(t)`` must add t*b to a, ``move_b(t)`` must subtract t*a from b.
    Returns nothing; the moves are expected to record themselves.
    """
    a, b = read()
    while b != 0:
        if a == 0:
            move_a(1)
            a, b = read()
        q = b // a
        if q != 0:
            move_b(q)
        a, b = read()
        if b == 0:
            break
        q = a // b
        if q != 0:
            move_a(-q)
        a, b = read()


class _Eliminator:
    """Row-operation state for symplectic Gaussian elimination.

    Left-multiplies an integer matrix by generator powers, recording them.
    Indices are local (1-based within the current block); ``offset`` shifts
    them to the caller's numbering on emission.
    """

    def __init__(self, rows: list[list[int]], offset: int):
        self.rows = rows
        self.g = len(rows) // 2
        self.offset = offset
        self.ops: list[GenPower] = []

    def apply(self, name: str, i: int, j: int | None, exp: int):
        if exp == 0:
            return
        p = gen(name, i, j, exp)
        _left_apply(p, self.rows, self.g)
        off = self.offset
        self.ops.append(
            GenPower(p.name, p.i + off, None if p.j is None else p.j + off, p.exp)
        )

    # -- size reduction: keep the working block short ----------------------

    def size_reduce(self) -> Word:
        """Shorten the rows and columns with greedy generator moves.

        Sweeps alternate between the rows (left moves, recorded in ``ops``)
        and the columns (left moves on the transpose) until a column sweep
        changes nothing.  Returns the word W of the column moves, so that
        the block before the call equals ``_undo_ops(ops) * rows * W``.
        Without this step the entries of each residual block grow with
        every level of the elimination (intermediate swell), and a sweep
        over the rows alone stalls where all rows are about equally long.
        """
        right: list[GenPower] = []
        while True:
            self._sweep()
            cols = _Eliminator([list(c) for c in zip(*self.rows)], self.offset)
            if not cols._sweep():
                return word_inverse(right)
            self.rows[:] = [list(r) for r in zip(*cols.rows)]
            right += map(_transpose_power, cols.ops)

    def _sweep(self) -> bool:
        """Greedily lower the summed squared norm of the rows.

        Works on one table: row x is the block's row x followed by row x of
        the Gram matrix G = rows * rows^T.  A move I + tN adds t*v*row[c] to
        row[r] for each entry (r, c, v) of N, and never reads a row it
        writes, so the squared norms of the rows it changes sum to
        A t^2 + 2 B t + const with A = sum G[c][c] and B = sum v G[r][c].
        The nearest integer to -B/A is applied only when it strictly lowers
        the norm, so the sweep over all named generators terminates; it is
        repeated until a pass changes nothing.  An applied move updates each
        row r it changes, block and Gram part at once, with one pass over
        its table row, then adds t*v times Gram column c to Gram column r.
        The moves come with their nilpotent parts from ``_sweep_moves`` and
        are recorded in ``ops`` without going through ``apply``.  The block
        rows are copied back out of the table at the end.  Returns whether
        any move was applied.
        """
        rows = self.rows
        if sum(x * x for row in rows for x in row) == len(rows):
            # every row is a signed unit vector: the norm is already minimal
            return False
        # G is symmetric: take the dot products of its lower triangle once
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
            for (name, i, j), nil in _sweep_moves(self.g):
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
                    # t * v = +-1 for nearly every move: add or subtract rows
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

    # -- column stage: drive column 0 to the first basis vector ------------

    def reduce_first_column(self):
        g = self.g
        col = 0

        # gcd within each (a_i, b_i) coordinate pair
        for i in range(g):
            _euclid_pair(
                lambda i=i: (self.rows[i][col], self.rows[g + i][col]),
                lambda t, i=i: self.apply("Ta", i + 1, None, t),
                lambda t, i=i: self.apply("Tb", i + 1, None, t),
            )
        # merge every a_j (j >= 2) into a_1; the b-entries are all zero now,
        # so Nu moves touch nothing else in this column
        for j in range(1, g):
            _euclid_pair(
                lambda j=j: (self.rows[0][col], self.rows[j][col]),
                lambda t, j=j: self.apply("Nu", 1, j + 1, t),
                lambda t, j=j: self.apply("Nu", j + 1, 1, -t),
            )
        if self.rows[0][col] == -1:
            # (-1, 0) -> (1, 0) on the first hyperbolic pair
            self.apply("Tb", 1, None, 1)
            self.apply("Ta", 1, None, 2)
            self.apply("Tb", 1, None, 1)
        if self.column_is(0, 0):
            return
        raise ValueError("matrix is not symplectic: first column not unimodular")

    def column_is(self, col: int, basis_index: int) -> bool:
        n = 2 * self.g
        return all(
            self.rows[r][col] == (1 if r == basis_index else 0) for r in range(n)
        )

    # -- beta stage: fix the image of the first dual basis vector ----------

    def fix_first_beta(self):
        """Assuming column 0 is e_0, drive column g to e_g.

        Uses only Ta(1), Mu(1,*) and Nu(1,*), all of which fix the first
        basis vector.
        """
        g = self.g
        col = g
        if self.rows[g][col] != 1:
            raise ValueError(
                "matrix is not symplectic: pairing of fixed vector broken"
            )
        for i in range(1, g):
            self.apply("Mu", 1, i + 1, self.rows[i][col])
        for j in range(1, g):
            self.apply("Nu", 1, j + 1, self.rows[g + j][col])
        self.apply("Ta", 1, None, -self.rows[0][col])
        if not self.column_is(col, g):
            raise ValueError("matrix is not symplectic: beta column irreducible")


@functools.lru_cache(maxsize=64)
def _sweep_moves(g: int) -> tuple:
    """Every named generator at genus g with its nilpotent part, in sweep order.

    Cached: each level sweeps its rows and its columns at least once
    each with the same list, and factorisations at one genus share it.
    Every move is built through ``gen``, so it is checked once per genus;
    ``_Eliminator._sweep`` then records its powers without ``gen``.
    """
    moves = []
    for i in range(1, g + 1):
        moves += [("Ta", i, None), ("Tb", i, None)]
        for j in range(1, g + 1):
            if j != i:
                moves.append(("Nu", i, j))
            if j > i:
                moves += [("Mu", i, j), ("Eta", i, j)]
    return tuple((m, tuple(_nilpotent_part(gen(*m), g))) for m in moves)


def _strip_first_pair(rows: list[list[int]]) -> list[list[int]]:
    """Drop the first hyperbolic pair from a block-diagonal matrix."""
    g = len(rows) // 2
    n = 2 * g
    keep = list(range(1, g)) + list(range(g + 1, n))
    for r in (0, g):
        for c in range(n):
            expect = 1 if r == c else 0
            if rows[r][c] != expect or rows[c][r] != expect:
                raise ValueError("residual matrix is not block-diagonal")
    return [[rows[r][c] for c in keep] for r in keep]


def _factor(rows: list[list[int]], offset: int) -> list[GenPower]:
    """Unnormalised word over indices offset+1..offset+g for ``rows``.

    Each level size-reduces the block, drives its first hyperbolic pair to
    the identity and continues on the residual block of genus one less:
    block = U * diag(I, residual) * W, so the word is U_1 U_2 ... W_2 W_1.
    """
    head: list[GenPower] = []
    tails: list[Word] = []
    while rows and any(
        x != (1 if r == c else 0)
        for r, row in enumerate(rows)
        for c, x in enumerate(row)
    ):
        elim = _Eliminator(rows, offset)
        tails.append(elim.size_reduce())
        elim.reduce_first_column()
        elim.fix_first_beta()
        head += _undo_ops(elim.ops)
        rows = _strip_first_pair(rows)
        offset += 1
    for tail in reversed(tails):
        head += tail
    return head


def general_sp_factor(h: SpMatrix) -> Word:
    """Factor a symplectic matrix into named generators.

    The returned word evaluates to ``h``; that is checked before it is
    returned.
    """
    if not h.is_symplectic():
        raise ValueError("matrix is not symplectic")
    word = _normalize(_factor([list(row) for row in h.rows], 0))
    if evaluate(word, h.g) != h:
        raise AssertionError("factorisation does not evaluate to the input matrix")
    return word


FORBIDDEN_NOTE = "Tb(1), Eta(1,*) and Nu(*,1) are never used"


def stabilizer_decompose(h: SpMatrix) -> Word:
    """Word for a symplectic matrix fixing the first basis vector.

    The output avoids Tb(1), Eta(1,i) and Nu(i,1) entirely: the image of the
    first dual basis vector is corrected with Mu(1,i), Nu(1,j) and Ta(1)
    powers, after which the residual is the identity on the first hyperbolic
    pair and factors over indices 2..g.
    """
    if not h.is_symplectic():
        raise ValueError("matrix is not symplectic")
    g = h.g
    e0 = tuple(1 if r == 0 else 0 for r in range(2 * g))
    if h.column(0) != e0:
        raise ValueError("matrix does not fix the first basis vector")
    rows = [list(row) for row in h.rows]
    elim = _Eliminator(rows, 0)
    elim.fix_first_beta()
    rest = _factor(_strip_first_pair(rows), 1)
    word = _normalize(_undo_ops(elim.ops) + tuple(rest))
    if any(_is_forbidden(p) for p in word):
        raise AssertionError("stabilizer word uses a forbidden generator")
    return word


def _is_forbidden(p: GenPower) -> bool:
    if p.name == "Tb" and p.i == 1:
        return True
    if p.name == "Eta" and 1 in (p.i, p.j):
        return True
    if p.name == "Nu" and p.j == 1:
        return True
    return False


def symplectic_completion(v: Sequence[int]) -> SpMatrix:
    """A symplectic matrix whose first column is the primitive vector ``v``.

    Produced by running the gcd-driven column reduction on ``v`` and
    inverting the recorded moves, so the result is symplectic by
    construction.
    """
    v = [int(x) for x in v]
    if len(v) % 2 != 0 or not v:
        raise ValueError("vector length must be even and positive")
    if math.gcd(*v) != 1:
        raise ValueError("vector must be primitive (gcd of entries 1)")
    g = len(v) // 2
    elim = _Eliminator([[x] for x in v], offset=0)
    elim.reduce_first_column()
    completion = evaluate(_undo_ops(elim.ops), g)
    if completion.column(0) != tuple(v):
        raise AssertionError("completion does not have the requested first column")
    return completion
