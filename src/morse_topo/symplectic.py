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

from .surface import FormatError, _int_reader, _int_vector


class SpMatrix:
    """Immutable 2g x 2g integer matrix, normally a symplectic one."""

    __slots__ = ("rows", "n")

    def __init__(self, rows: Sequence[Sequence[int]]):
        rows = tuple(_int_vector(row, "matrix entries") for row in rows)
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
        vec = _int_vector(vec)
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
    x, y = _int_vector(x), _int_vector(y)
    if len(x) != len(y) or len(x) % 2 != 0:
        raise ValueError("vectors must have equal even length")
    g = len(x) // 2
    return sum(x[i] * y[g + i] - x[g + i] * y[i] for i in range(g))


def transvection(gamma: Sequence[int]) -> SpMatrix:
    """Matrix of x -> form(gamma, x) * gamma + x.

    Always symplectic; the inverse flips the sign of the form coefficient.
    """
    gamma = _int_vector(gamma)
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
    _check_word((GenPower(name, i, j, exp),))
    if exp == 0:
        raise ValueError("generator exponent must be non-zero")
    if name in _SYMMETRIC and i > j:
        i, j = j, i
    return GenPower(name, i, j, exp)


def _check_word(word: Sequence[GenPower], g: int | None = None):
    """Reject a word with a non-integer index or exponent, checked in one
    intake call, or with a letter that names no generator, or none at
    genus ``g``."""
    _int_vector(
        [x for p in word for x in ((p.i, p.exp) if p.j is None else p[1:])],
        "generator indices and exponents",
    )
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
        if g is not None and max(indices) > g:
            raise ValueError(f"generator index {max(indices)} exceeds genus {g}")


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
    _check_word(word, g)
    rows = [[1 if r == c else 0 for c in range(2 * g)] for r in range(2 * g)]
    for p in reversed(word):
        _left_apply(p, rows, g)
    return SpMatrix(rows)


def word_inverse(word: Sequence[GenPower]) -> Word:
    """Formal inverse of a word: reversed order, negated exponents."""
    return tuple(GenPower(p.name, p.i, p.j, -p.exp) for p in reversed(word))


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


_TOKEN_RE = re.compile(r"^(Ta|Tb|Mu|Eta|Nu)(\d+)(?:,(\d+))?(?:\^(-?\d+))?$", re.ASCII)


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
        word.append(
            gen(name, int(i), int(j) if j else None, int(exp) if exp else 1)
        )
    return tuple(word)


def format_matrix(m: SpMatrix) -> str:
    lines = [f"SP {m.g}"]
    lines.extend(" ".join(str(x) for x in row) for row in m.rows)
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> SpMatrix:
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    to_int = _int_reader(text)
    if not lines or lines[0][0] != "SP":
        raise FormatError("matrix text must start with an 'SP <g>' header")
    try:
        _, g = lines[0]  # no more and no fewer fields
        g = to_int(g)
    except ValueError:
        raise FormatError("bad 'SP <g>' header") from None
    if g < 1:
        raise FormatError(f"'SP <g>' header needs g >= 1, got {g}")
    if len(lines) != 1 + 2 * g:
        raise FormatError(f"expected {2 * g} matrix rows, got {len(lines) - 1}")
    try:
        rows = [[to_int(x) for x in ln] for ln in lines[1:]]
    except ValueError:
        raise FormatError("matrix entries must be integers") from None
    if any(len(row) != 2 * g for row in rows):
        raise FormatError("matrix rows must have 2g entries")
    return SpMatrix(rows)


# ---------------------------------------------------------------------------
# Factorisation


class _Eliminator:
    """Row-operation state for symplectic Gaussian elimination.

    Left-multiplies an integer matrix by generator powers and records each
    one inverted, with its exponent negated, in ``ops``.  Applying G1, ...,
    Gm realises Gm * ... * G1, whose inverse reads G1^-1 * ... * Gm^-1, so
    ``ops`` in its own order is the word of the inverse: the matrix before
    the moves equals ``evaluate(ops) * rows``.  Indices are local (1-based
    within the current block); ``offset`` shifts them to the caller's
    numbering on emission.
    """

    def __init__(self, rows: list[list[int]], offset: int):
        self.rows = rows
        self.g = len(rows) // 2
        self.offset = offset
        self.ops: list[GenPower] = []

    def apply(self, name: str, i: int, j: int | None, exp: int):
        if exp == 0:
            return
        _left_apply(GenPower(name, i, j, exp), self.rows, self.g)
        off = self.offset
        self.ops.append(GenPower(name, i + off, None if j is None else j + off, -exp))

    # -- size reduction: keep the working block short ----------------------

    def size_reduce(self) -> Word:
        """Shorten the rows and columns with greedy generator moves.

        Sweeps alternate between the rows (left moves, recorded inverted in
        ``ops``) and the columns (left moves on the transpose) until a column
        sweep changes nothing.  A column move G on the left of the transpose
        is G^T on the right of the block, so the transposed inverted letters
        of the column sweeps, reversed, are the word W with which the block
        before the call equals ``evaluate(ops) * rows * W``.
        Without this step the entries of each residual block grow with
        every level of the elimination (intermediate swell), and a sweep
        over the rows alone stalls where all rows are about equally long.
        Each sweep decides its moves from the Gram matrix of the rows it
        reduces alone and carries each block row as one packed integer:
        no sweep raises the squared norm F it starts from, so no entry
        leaves +-isqrt(F) and the packing stays exact (see ``_sweep``).
        """
        right: list[GenPower] = []
        while True:
            self._sweep()
            cols = _Eliminator([list(c) for c in zip(*self.rows)], self.offset)
            if not cols._sweep():
                return right[::-1]
            self.rows[:] = [list(r) for r in zip(*cols.rows)]
            right += map(_transpose_power, cols.ops)

    def _sweep(self) -> bool:
        """Greedily lower the summed squared norm of the rows.

        Works on the Gram matrix G = rows * rows^T, kept as a table of its
        n rows with a zero row appended.  A move I + tN adds t*v*row[c] to
        row[r] for each entry (r, c, v) of N, and never reads a row it
        writes, so the squared norms of the rows it changes sum to
        A t^2 + 2 B t + const with A = sum G[c][c] and B = sum v G[r][c].
        ``_sweep_moves(g)`` holds the table positions of each move's one or
        two entries, and A and B take two reads each; a move with one entry
        reads the zero row as its second.  The nearest integer t to -B/A
        (t = 0 exactly when -A < 2B <= A) is applied only when it strictly
        lowers the norm, so the sweep over all named generators terminates;
        it is repeated until a pass changes nothing.  Its letter goes into
        ``ops`` inverted, with exponent -t.

        Each entry of an applied move, with tv = t*v, adds tv times Gram
        row c to Gram row r, adds tv times the new row's entry c to its
        diagonal entry r, and copies the new row into Gram column r; G is
        symmetric, so that is column r plus tv times column c.  The block
        rows are packed, each into one integer sum x_k M^k with balanced
        digits: the squared norm F of the block at the start bounds every
        entry by isqrt(F) for the whole sweep, since no applied move raises
        it, so with M = 2 isqrt(F) + 3 packing is linear and block row r
        gains tv times block row c in one integer operation.  A row is
        packed when a move first reads or writes it, and only the rows
        written are unpacked at the end, each checked against its Gram
        diagonal.  Returns whether any move was applied.
        """
        rows = self.rows
        norm = sum(x * x for row in rows for x in row)
        n = len(rows)
        if norm == n:
            # every row is a signed unit vector: the norm is already minimal
            return False
        # G is symmetric: take the dot products of its lower triangle once
        low = [
            [sum(map(operator.mul, ra, rb)) for rb in rows[: x + 1]]
            for x, ra in enumerate(rows)
        ]
        table = [low[x] + [low[y][x] for y in range(x + 1, n)] for x in range(n)]
        # one-entry moves read G[n][n]; ``zip(table, new)`` stops before it
        table.append([0] * (n + 1))
        base = 2 * math.isqrt(norm) + 3
        packed: list[int | None] = [None] * n
        written = set()
        ops, off = self.ops, self.offset
        changed = True
        while changed:
            changed = False
            for c1, r1, s1, c2, r2, s2, (name, i, j), nil in _sweep_moves(self.g):
                a = table[c1][c1] + table[c2][c2]
                b2 = s1 * table[r1][c1] + s2 * table[r2][c2]
                if -a < b2 <= a:
                    continue
                t = (a - b2) // (2 * a)
                if t * (a * t + b2) >= 0:
                    continue
                ops.append(GenPower(name, i + off, None if j is None else j + off, -t))
                for r, c, v in nil:
                    tv = t * v
                    src, dst = packed[c], packed[r]
                    if src is None:
                        src = packed[c] = _pack(rows[c], base)
                    if dst is None:
                        dst = _pack(rows[r], base)
                    # t * v = +-1 for nearly every move: add or subtract rows
                    if tv == 1:
                        new = list(map(operator.add, table[r], table[c]))
                        new[r] += new[c]
                        packed[r] = dst + src
                    elif tv == -1:
                        new = list(map(operator.sub, table[r], table[c]))
                        new[r] -= new[c]
                        packed[r] = dst - src
                    else:
                        new = [x + tv * y for x, y in zip(table[r], table[c])]
                        new[r] += tv * new[c]
                        packed[r] = dst + tv * src
                    table[r] = new
                    for row, x in zip(table, new):
                        row[r] = x
                    written.add(r)
                changed = True
        for r in written:
            rows[r] = _unpack(packed[r], base, n)
            if sum(map(operator.mul, rows[r], rows[r])) != table[r][r]:
                raise AssertionError("unpacked row does not match its Gram entry")
        return bool(written)

    # -- column stage: drive column 0 to the first basis vector ------------

    def _euclid(self, x: int, y: int, up: tuple, down: tuple):
        """Drive column 0's entries (a, b) in rows x and y to (d, 0) with
        gcd moves.

        ``up`` = (name, i, j) is the letter whose power t adds t*b to a;
        ``down`` = (name, i, j, sign) names the letter whose power sign*t
        subtracts t*a from b.
        """
        rows = self.rows
        name, i, j, sign = down
        while rows[y][0]:
            if not rows[x][0]:
                self.apply(*up, 1)
            self.apply(name, i, j, sign * (rows[y][0] // rows[x][0]))
            if rows[y][0]:
                self.apply(*up, -(rows[x][0] // rows[y][0]))

    def reduce_first_column(self):
        """Drive column 0 to e_0 with gcd moves.  Every caller has checked
        that the column is primitive, so the moves end there."""
        g = self.g
        # gcd within each (a_i, b_i) coordinate pair
        for i in range(g):
            self._euclid(i, g + i, ("Ta", i + 1, None), ("Tb", i + 1, None, 1))
        # merge every a_j (j >= 2) into a_1; the b-entries are all zero now,
        # so Nu moves touch nothing else in this column
        for j in range(1, g):
            self._euclid(0, j, ("Nu", 1, j + 1), ("Nu", j + 1, 1, -1))
        if self.rows[0][0] == -1:
            # (-1, 0) -> (1, 0) on the first hyperbolic pair
            self.apply("Tb", 1, None, 1)
            self.apply("Ta", 1, None, 2)
            self.apply("Tb", 1, None, 1)

    # -- beta stage: fix the image of the first dual basis vector ----------

    def fix_first_beta(self):
        """Drive column g to e_g, given a symplectic block whose column 0
        is e_0, with Ta(1), Mu(1,*) and Nu(1,*), which fix e_0.

        form(e_0, column g) = 1 puts 1 in row g; the Mu and Nu moves clear
        the other rows against it, and Ta(1) clears row 0 last.
        ``_strip_first_pair`` checks the result.
        """
        g, rows = self.g, self.rows
        for i in range(1, g):
            self.apply("Mu", 1, i + 1, rows[i][g])
        for j in range(1, g):
            self.apply("Nu", 1, j + 1, rows[g + j][g])
        self.apply("Ta", 1, None, -rows[0][g])


@functools.lru_cache(maxsize=64)
def _sweep_moves(g: int) -> tuple:
    """Every named generator at genus g, in sweep order, with the table
    positions ``_Eliminator._sweep`` reads and writes for it.

    A move is (c1, r1, s1, c2, r2, s2, (name, i, j), nil): ``nil`` holds
    the (rk, ck, vk) entries of its nilpotent part and sk = 2 vk, so the
    sweep reads G[ck][ck] and G[rk][ck] from its Gram table and takes
    2B = s1 G[r1][c1] + s2 G[r2][c2].  A move with one entry (Ta, Tb)
    takes the table's zero row, index 2g, as its second.  Cached: each level sweeps its rows and its columns at least
    once each with the same moves, and factorisations at one genus share
    them.  Every move is built through ``gen``, so it is checked once per
    genus; ``_Eliminator._sweep`` then records its powers without ``gen``.
    """
    n = 2 * g
    moves = []
    for i in range(1, g + 1):
        moves += [("Ta", i, None), ("Tb", i, None)]
        for j in range(1, g + 1):
            if j != i:
                moves.append(("Nu", i, j))
            if j > i:
                moves += [("Mu", i, j), ("Eta", i, j)]
    table = []
    for m in moves:
        nil = tuple(_nilpotent_part(gen(*m), g))
        reads = [(c, r, 2 * v) for r, c, v in nil]
        if len(reads) == 1:
            reads.append((n, n, 2))
        table.append(reads[0] + reads[1] + (m, nil))
    return tuple(table)


def _pack(row: Sequence[int], base: int) -> int:
    """The integer sum row[k] * base^k.  Its balanced base-``base`` digits
    are the entries when every entry lies within +-(base // 2)."""
    packed = 0
    for x in reversed(row):
        packed = packed * base + x
    return packed


def _unpack(packed: int, base: int, n: int) -> list[int]:
    """The ``n`` balanced digits of ``packed`` in the odd base ``base``,
    lowest first; raises if they do not account for all of it."""
    half = base // 2
    # shifted by sum half * base^k, the digits are the plain ones, 0..base-1
    packed += (base**n - 1) // (base - 1) * half
    row = []
    for _ in range(n):
        packed, x = divmod(packed, base)
        row.append(x - half)
    if packed:
        raise AssertionError("packed row has digits beyond its length")
    return row


def _strip_first_pair(rows: list[list[int]]) -> list[list[int]]:
    """Drop the first hyperbolic pair from a block-diagonal matrix, after
    checking that rows and columns 0 and g are the identity's: the one
    check of the column and beta stages, so a failure is a fault."""
    g = len(rows) // 2
    n = 2 * g
    keep = list(range(1, g)) + list(range(g + 1, n))
    for r in (0, g):
        for c in range(n):
            expect = 1 if r == c else 0
            if rows[r][c] != expect or rows[c][r] != expect:
                raise AssertionError("residual matrix is not block-diagonal")
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
        head += elim.ops
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
    word = _normalize(elim.ops + rest)
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
    v = _int_vector(v)
    if len(v) % 2 != 0 or not v:
        raise ValueError("vector length must be even and positive")
    if math.gcd(*v) != 1:
        raise ValueError("vector must be primitive (gcd of entries 1)")
    g = len(v) // 2
    elim = _Eliminator([[x] for x in v], offset=0)
    elim.reduce_first_column()
    completion = evaluate(elim.ops, g)
    if completion.column(0) != v:
        raise AssertionError("completion does not have the requested first column")
    return completion
