"""Reference verdicts computed without lienil's decision code.

An element a of a Lie algebra g acts nilpotently in every finite-dimensional
representation iff a lies in [g, g] and ad_g(a) is nilpotent.  Nilpotent
action in the adjoint representation is necessary; conversely ad_g(a)
nilpotent makes the image of a in g/rad(g) ad-nilpotent, which together with
a in [g, g] is lienil's criterion.  The derived subalgebra is a basis declared
by hand, and nilpotency is decided by integer matrix powers, so neither
``lienil.oracle`` nor ``lienil.linalg`` is consulted.  Only the structure
constants of an algebra and the matrices of a representation are read.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Mapping, Sequence

Rows = list[list[Fraction]]


def ad_rows(table: Mapping[tuple[int, int], Mapping[int, Fraction]], dim: int,
            a: Sequence[Fraction]) -> Rows:
    """Matrix of y -> [a, y] from structure constants keyed by (i, j), i < j."""
    rows = [[Fraction(0)] * dim for _ in range(dim)]
    for (i, j), expansion in table.items():
        for k, c in expansion.items():
            if a[i]:
                rows[k][j] += a[i] * c
            if a[j]:
                rows[k][i] -= a[j] * c
    return rows


def combination(matrices: Sequence[Rows], a: Sequence[Fraction]) -> Rows:
    """sum a_i M_i for square matrices given as rows."""
    n = len(matrices[0]) if matrices else 0
    out = [[Fraction(0)] * n for _ in range(n)]
    for c, m in zip(a, matrices):
        if c:
            for r in range(n):
                for s in range(n):
                    if m[r][s]:
                        out[r][s] += c * m[r][s]
    return out


def _integer(rows: Rows) -> list[list[int]]:
    """Clear denominators; a positive scalar multiple keeps nilpotency and trace signs."""
    scale = math.lcm(1, *(Fraction(x).denominator for row in rows for x in row))
    return [[int(Fraction(x) * scale) for x in row] for row in rows]


def _times(x: list[list[int]], y: list[list[int]]) -> list[list[int]]:
    n = len(y[0]) if y else 0
    return [[sum(row[k] * y[k][j] for k in range(len(y)) if row[k]) for j in range(n)]
            for row in x]


def is_nilpotent(rows: Rows) -> bool:
    """M^n == 0 for an n x n matrix M, by n - 1 integer multiplications."""
    m = _integer(rows)
    power = m
    for _ in range(len(m) - 1):
        power = _times(power, m)
    return all(not x for row in power for x in row)


def has_nonzero_power_trace(rows: Rows) -> bool:
    """Some trace(M^k), 1 <= k <= n, is nonzero: over Q this certifies M is not nilpotent."""
    m = _integer(rows)
    power = m
    for k in range(1, len(m) + 1):
        if sum(power[i][i] for i in range(len(m))):
            return True
        if k < len(m):
            power = _times(power, m)
    return False


def _rank(vectors: Sequence[Sequence[Fraction]]) -> int:
    rows = [[Fraction(x) for x in v] for v in vectors]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def in_span(basis: Sequence[Sequence[Fraction]], v: Sequence[Fraction]) -> bool:
    if not any(v):
        return True
    return _rank(list(basis) + [v]) == _rank(basis)


def verdict(table, dim: int, derived_basis: Sequence[Sequence[Fraction]],
            a: Sequence[Fraction]) -> bool:
    """Does a act nilpotently in every representation?  See the module docstring."""
    return in_span(derived_basis, a) and is_nilpotent(ad_rows(table, dim, a))


def apply(rows: Rows, v: Sequence[Fraction]) -> tuple[Fraction, ...]:
    return tuple(sum((x * y for x, y in zip(row, v) if x and y), Fraction(0)) for row in rows)


def exp_nilpotent(rows: Rows) -> Rows:
    """exp(N) for a nilpotent N, summed until the powers vanish."""
    n = len(rows)
    out = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    power = [list(r) for r in out]
    for k in range(1, n + 1):
        power = [[sum((power[i][m] * rows[m][j] for m in range(n) if power[i][m]), Fraction(0))
                  for j in range(n)] for i in range(n)]
        if not any(x for row in power for x in row):
            return out
        scale = Fraction(1, math.factorial(k))
        out = [[x + scale * y for x, y in zip(orow, prow)] for orow, prow in zip(out, power)]
    raise ValueError("matrix is not nilpotent")
