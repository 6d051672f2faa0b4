"""The benchmark's own integer symplectic arithmetic.

Used to build ``sp-factor`` inputs and to check the words the program
prints.  It restates the generator definitions instead of importing them,
so a check never trusts the code it checks.

Basis order is (a_1..a_g, b_1..b_g).  Each named generator is I + N with
N*N = 0, so its t-th power is I + t*N:

    Ta(i)    N[a_i][b_i] = 1
    Tb(i)    N[b_i][a_i] = -1
    Mu(i,j)  N[a_i][b_j] = N[a_j][b_i] = -1
    Eta(i,j) N[b_i][a_j] = N[b_j][a_i] = 1
    Nu(i,j)  N[a_i][a_j] = 1, N[b_j][b_i] = -1
"""
from __future__ import annotations

import re

NAMES = ("Ta", "Tb", "Mu", "Eta", "Nu")
_TOKEN = re.compile(r"^(Ta|Tb|Mu|Eta|Nu)(\d+)(?:,(\d+))?(?:\^(-?\d+))?$")


def nilpotent(name: str, i: int, j: int | None, g: int) -> list[tuple[int, int, int]]:
    """Entries (row, col, value) of N for a generator with 1-based indices."""
    a_i, b_i = i - 1, g + i - 1
    if name == "Ta":
        return [(a_i, b_i, 1)]
    if name == "Tb":
        return [(b_i, a_i, -1)]
    a_j, b_j = j - 1, g + j - 1
    if name == "Mu":
        return [(a_i, b_j, -1), (a_j, b_i, -1)]
    if name == "Eta":
        return [(b_i, a_j, 1), (b_j, a_i, 1)]
    if name == "Nu":
        return [(a_i, a_j, 1), (b_j, b_i, -1)]
    raise ValueError(f"unknown generator {name!r}")


def is_forbidden(name: str, i: int, j: int | None) -> bool:
    """Tb(1), Eta(1,*) and Nu(*,1) must not appear in a stabilizer word."""
    return (
        (name == "Tb" and i == 1)
        or (name == "Eta" and 1 in (i, j))
        or (name == "Nu" and j == 1)
    )


def identity(n: int) -> list[list[int]]:
    return [[int(r == c) for c in range(n)] for r in range(n)]


def evaluate(word, g: int) -> list[list[int]]:
    """Product of the letters (name, i, j, exp), leftmost letter outermost."""
    rows = identity(2 * g)
    for name, i, j, exp in reversed(word):
        updates = [
            (r, [exp * v * x for x in rows[c]]) for r, c, v in nilpotent(name, i, j, g)
        ]
        for r, add in updates:
            row = rows[r]
            for k, x in enumerate(add):
                row[k] += x
    return rows


def matmul(a: list[list[int]], b: list[list[int]]) -> list[list[int]]:
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols] for row in a]


def omega(g: int) -> list[list[int]]:
    rows = [[0] * (2 * g) for _ in range(2 * g)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return rows


def is_symplectic(m: list[list[int]]) -> bool:
    g = len(m) // 2
    mt = [list(col) for col in zip(*m)]
    return matmul(matmul(mt, omega(g)), m) == omega(g)


def inverse(m: list[list[int]]) -> list[list[int]]:
    """Inverse of a symplectic matrix: -Omega * M^T * Omega."""
    g = len(m) // 2
    mt = [list(col) for col in zip(*m)]
    prod = matmul(matmul(omega(g), mt), omega(g))
    return [[-x for x in row] for row in prod]


def parse_word(text: str) -> list[tuple[str, int, int | None, int]]:
    """Letters of a printed word; raises ValueError on a malformed token."""
    word = []
    for token in text.split():
        m = _TOKEN.match(token)
        if not m:
            raise ValueError(f"bad token {token[:40]!r}")
        name, i, j, exp = m.groups()
        if (name in ("Ta", "Tb")) != (j is None):
            raise ValueError(f"bad index count in {token[:40]!r}")
        word.append((name, int(i), int(j) if j else None, int(exp) if exp else 1))
    return word


def format_matrix(m: list[list[int]]) -> str:
    lines = [f"SP {len(m) // 2}"]
    lines.extend(" ".join(str(x) for x in row) for row in m)
    return "\n".join(lines) + "\n"
