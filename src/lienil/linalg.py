"""Exact linear algebra over the rationals.

Rationals enter as ``int`` or ``fractions.Fraction`` only (text is a TypeError), a vector
through one reader, ``_read``, that checks its count.  Fractions are made by ``frac``, the
views, ``char_poly``, ``_sturm``, ``LieAlgebra.table`` and the catalog.  A ``Matrix``
stores integer rows over one positive scale, in lowest terms, and every matrix operation
(sums, products, traces) works on those integers; its ``entries`` are a view.  A
``Subspace`` stores only its reduced row-echelon rows, each cleared to primitive
integers, so spans, intersections and kernels stay in integers.  Elimination, reduction
and nilpotency run fraction-free on integer rows; ``invert``, ``Subspace.basis`` and
``Subspace.projection`` divide by the pivots.  Nothing is floating point, so ranks and
kernels are exact, and matrices and subspaces are canonical, so equality is a plain ``==``.

Elimination reads its rows one at a time (``_echelon``): each is cleared at the pivots
found so far and made primitive once, when kept, and no row is read once the rank is
full, so rows passed lazily are never made.  A rank, or whether some column is a pivot,
is read off that forward pass; the reduced form (``_rref_rows``) adds one
back-substitution.  Every row combination is ``_combine``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

Vector = tuple[Fraction, ...]

_ZERO = Fraction(0)


def frac(value) -> Fraction:
    """An int or a Fraction as an exact rational; anything else, text too, is a TypeError."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def as_vector(coords: Iterable) -> Vector:
    return tuple(frac(c) for c in coords)


def _exact(value) -> int | Fraction:
    """An int or a Fraction as it is; ``frac`` refuses anything else."""
    return value if isinstance(value, (int, Fraction)) else frac(value)


def _read(coords: Iterable, n: int, what: str) -> list[int | Fraction]:
    """The coordinates as ``_exact`` keeps them (ints stay ints); a ValueError unless n of them."""
    vec = [_exact(c) for c in coords]
    if len(vec) != n:
        raise ValueError(f"{what} has {len(vec)} coordinates, expected {n}")
    return vec


class _Frozen:
    """Base of the immutable values: each ``__init__`` sets the ``_fields`` once with
    ``object.__setattr__``; ``==`` and ``hash`` run over them within one class, the repr shows
    those without a leading underscore, and ``cached_property`` writes ``__dict__`` directly."""

    _fields: tuple[str, ...] = ()

    def _key(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        shown = (f"{name}={getattr(self, name)!r}" for name in self._fields if name[0] != "_")
        return f"{type(self).__qualname__}({', '.join(shown)})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Matrix(_Frozen):
    """Immutable dense matrix of exact rationals: integer rows ``ints`` over one positive
    ``scale``, put in lowest terms on construction (the gcd of the scale and every entry
    is 1, so a zero matrix has scale 1), so ``==`` and ``hash`` are exact.  Every
    operation works on the integers; ``entries`` is the Fraction view, made on read.
    """

    _fields = ("rows", "cols", "ints", "scale")

    def __init__(self, rows: int, cols: int, ints: tuple[tuple[int, ...], ...], scale: int = 1):
        if len(ints) != rows:
            raise ValueError("row count does not match entries")
        for row in ints:
            if len(row) != cols:
                raise ValueError("ragged matrix rows")
        if scale <= 0:
            raise ValueError("matrix scale must be positive")
        if scale != 1:
            content = math.gcd(scale, *(math.gcd(*row) for row in ints))
            if content != 1:
                ints = tuple(tuple(x // content for x in row) for row in ints)
                scale //= content
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "ints", ints)
        object.__setattr__(self, "scale", scale)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence]) -> "Matrix":
        rows = [[_exact(x) for x in row] for row in rows]
        scale = math.lcm(*(x.denominator for row in rows for x in row))
        return cls(len(rows), len(rows[0]) if rows else 0, tuple(
            tuple(x.numerator * (scale // x.denominator) for x in row) for row in rows), scale)

    @classmethod
    def zero(cls, rows: int, cols: int) -> "Matrix":
        return cls(rows, cols, ((0,) * cols,) * rows)

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls(n, n, tuple((0,) * i + (1,) + (0,) * (n - 1 - i) for i in range(n)))

    @cached_property
    def entries(self) -> tuple[Vector, ...]:
        return tuple(_fractions(row, self.scale) for row in self.ints)

    def column(self, j: int) -> Vector:
        return _fractions([row[j] for row in self.ints], self.scale)

    def is_zero(self) -> bool:
        return not any(map(any, self.ints))

    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes differ")
        scale = math.lcm(self.scale, other.scale)
        a, b = scale // self.scale, scale // other.scale
        return Matrix(self.rows, self.cols, tuple(
            tuple(a * x + b * y for x, y in zip(ra, rb))
            for ra, rb in zip(self.ints, other.ints)), scale)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + -other

    def __neg__(self) -> "Matrix":
        return Matrix(self.rows, self.cols, tuple(
            tuple(-x for x in row) for row in self.ints), self.scale)

    def scaled(self, c) -> "Matrix":
        c = _exact(c)
        p = c.numerator
        return Matrix(self.rows, self.cols, tuple(
            tuple(p * x for x in row) for row in self.ints), self.scale * c.denominator)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        return Matrix(self.rows, other.cols, tuple(map(tuple, _int_product(
            self.ints, other.ints, other.cols))), self.scale * other.scale)

    def apply(self, v: Sequence) -> Vector:
        xs, x_scale = _cleared(_read(v, self.cols, "vector"))
        return _fractions([sum(a * x for a, x in zip(row, xs) if a) for row in self.ints],
                          self.scale * x_scale)

    def trace(self) -> Fraction:
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return Fraction(sum(self.ints[i][i] for i in range(self.rows)), self.scale)


def _cleared(values: Sequence[int | Fraction]) -> tuple[list[int], int]:
    """The values times the lcm s of their denominators, as integers, and s."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


def _fractions(ints: Sequence[int], scale: int) -> Vector:
    """The integers over a common positive scale, back as Fractions."""
    return tuple(Fraction(x, scale) if x else _ZERO for x in ints)


def _primitive(row: Sequence[int]) -> Sequence[int]:
    content = math.gcd(*row)
    return [x // content for x in row] if content > 1 else row


def _combine(row: Sequence[int], prow: Sequence[int], c: int) -> tuple[list[int], int]:
    """a*row - b*prow, which is 0 in column c, with a/b = prow[c]/row[c] in lowest terms;
    and a."""
    g = math.gcd(prow[c], row[c])
    a, b = prow[c] // g, row[c] // g
    return [a * u - b * v for u, v in zip(row, prow)], a


def _echelon(rows: Iterable[Sequence[int]], cols: int) -> tuple[list[Sequence[int]], list[int]]:
    """Row-by-row fraction-free elimination: the kept rows and their pivot columns.

    Each incoming row is cleared at the pivots found so far, in the order they were found;
    if anything is left, it is made primitive and kept, its pivot its first nonzero column.
    Zero rows are dropped, and no row is read once the rank is cols.  The pivots come in
    the order found; as a set they are the RREF's.
    """
    kept, pivots = [], []
    for row in rows:
        for prow, p in zip(kept, pivots):
            if row[p]:
                row = _combine(row, prow, p)[0]
        if any(row):
            kept.append(_primitive(row))
            pivots.append(next(j for j, x in enumerate(row) if x))
            if len(pivots) == cols:
                break
    return kept, pivots


def _rref_rows(rows: Iterable[Sequence[int]], cols: int) -> tuple[list[Sequence[int]], list[int]]:
    """Fraction-free Gauss-Jordan on integer rows: one integer row per pivot, and the
    pivot columns, rising.

    ``_echelon``, then one back-substitution from the last pivot up: each row is cleared
    at the later pivots by the rows already reduced there, made primitive, and given a
    positive pivot.  Each result is its RREF row times the lcm of its denominators.
    """
    kept, pivots = _echelon(rows, cols)
    reduced: list[tuple[int, Sequence[int]]] = []  # (pivot, row), pivots falling
    for c, row in sorted(zip(pivots, kept), reverse=True):
        for q, qrow in reduced:
            if row[q]:
                row = _primitive(_combine(row, qrow, q)[0])
        reduced.append((c, row if row[c] > 0 else [-x for x in row]))
    return [row for _, row in reversed(reduced)], sorted(pivots)


def _over_pivots(rows: Sequence[Sequence[int]], pivots: Sequence[int]) -> tuple[tuple, int]:
    """Each integer row over its entry at its pivot (its RREF row), all over one scale."""
    scale = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    return tuple(tuple(x * (scale // row[p]) for x in row)
                 for row, p in zip(rows, pivots)), scale


class Subspace(_Frozen):
    """A linear subspace stored by its reduced-echelon basis, as primitive integer rows.

    Each of ``rows`` is an RREF row times the lcm of its denominators, so pivots rise, are
    positive and are alone in their columns, and two Subspace values describe the same
    subspace iff they compare equal.  ``basis`` is the Fraction RREF (pivot 1), made on read.
    """

    _fields = ("ambient_dim", "rows")

    def __init__(self, ambient_dim: int, rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def from_vectors(cls, ambient_dim: int, vectors: Iterable[Sequence]) -> "Subspace":
        # A list, so every vector is checked, even past full rank.
        return cls._span(ambient_dim, [_cleared(_read(v, ambient_dim, "vector"))[0]
                                       for v in vectors])

    @classmethod
    def _span(cls, ambient_dim: int, rows: Iterable[Sequence[int]]) -> "Subspace":
        """Span of integer rows of the right length; no checks."""
        return cls(ambient_dim, tuple(map(tuple, _rref_rows(rows, ambient_dim)[0])))

    @classmethod
    def zero(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, ())

    @classmethod
    def full(cls, ambient_dim: int) -> "Subspace":
        return cls(ambient_dim, Matrix.identity(ambient_dim).ints)

    @property
    def dim(self) -> int:
        return len(self.rows)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        return tuple(next(j for j, x in enumerate(row) if x) for row in self.rows)

    @cached_property
    def basis(self) -> tuple[Vector, ...]:
        reduced, scale = _over_pivots(self.rows, self.pivots)
        return tuple(_fractions(row, scale) for row in reduced)

    def is_zero(self) -> bool:
        return not self.rows

    def is_full(self) -> bool:
        return len(self.rows) == self.ambient_dim

    def _eliminate(self, ints: list[int], scale: int = 1) -> tuple[list[int], int]:
        """Clear the pivot coordinates of the vector ints/scale; the remainder, and its scale."""
        for row, p in zip(self.rows, self.pivots):
            if ints[p]:
                ints, a = _combine(ints, row, p)
                scale *= a
        return ints, scale

    def contains(self, v: Sequence) -> bool:
        return not any(self._eliminate(*_cleared(_read(v, self.ambient_dim, "vector")))[0])

    def contains_subspace(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return not any(any(self._eliminate(list(row))[0]) for row in other.rows)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        # The meet is cut out by the annihilators of both: each space's null space.
        n = self.ambient_dim
        return null_space(null_space(self.rows, n).rows + null_space(other.rows, n).rows, n)

    def complement_coordinates(self) -> tuple[int, ...]:
        """Ambient coordinate indices not used as pivots; they span a complement."""
        return tuple(j for j in range(self.ambient_dim) if j not in self.pivots)

    def projection(self) -> Matrix:
        """The map v -> v with its pivot coordinates cleared, read on the complement, as a matrix.

        Column j is e_j's remainder: e_j itself off the pivots, and -row/row[p] on the
        complement for the pivot p of a row.
        """
        complement = self.complement_coordinates()
        reduced, scale = _over_pivots(self.rows, self.pivots)
        at_pivot = dict(zip(self.pivots, reduced))
        return Matrix(len(complement), self.ambient_dim, tuple(
            tuple(-at_pivot[k][j] if k in at_pivot else scale * (k == j)
                  for k in range(self.ambient_dim)) for j in complement), scale)

    def _same_ambient(self, other: "Subspace") -> None:
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("subspaces live in different ambient dimensions")


def null_space(rows: Iterable[Sequence[int]], cols: int) -> Subspace:
    """Canonical null space of the matrix with these integer rows."""
    reduced, pivots = _rref_rows(rows, cols)
    kernel_vectors = []
    for free in (j for j in range(cols) if j not in pivots):
        lcm = math.lcm(*(row[p] for row, p in zip(reduced, pivots) if row[free]))
        vec = [0] * cols
        vec[free] = lcm
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free] * (lcm // row[p])
        kernel_vectors.append(vec)
    return Subspace._span(cols, kernel_vectors)


def kernel_image(a: Matrix) -> tuple[Subspace, Subspace]:
    """Null space and column space of a, both canonical."""
    return null_space(a.ints, a.cols), Subspace._span(a.rows, zip(*a.ints))


def invert(m: Matrix) -> Matrix | None:
    """Exact inverse, or None when singular."""
    if not m.is_square():
        raise ValueError("only square matrices can be inverted")
    n = m.rows
    rows, pivots = _rref_rows([(*r, *e) for r, e in zip(m.ints, Matrix.identity(n).ints)], 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    # [ints | I] reduces to [I | ints**-1], and (ints/scale)**-1 = scale * ints**-1.
    inverse, scale = _over_pivots(rows, pivots)
    return Matrix(n, n, tuple(tuple(m.scale * x for x in row[n:]) for row in inverse), scale)


def nilpotency_exponent(m: Matrix) -> tuple[bool, int]:
    """Decide m**n == 0 (n = side) by repeated squaring; returns (verdict, exponent).

    The exponent is the power at which the verdict was certified: the first
    power of two at which the matrix vanished, at which a nonzero trace was
    seen, or the first power of two >= n.  Over a field of characteristic
    zero a nonzero trace of any power certifies non-nilpotence, and a
    nilpotent matrix on an n-space always vanishes by exponent n.
    """
    if not m.is_square():
        raise ValueError("nilpotency is defined for square matrices only")
    n = m.rows
    if n == 0:
        return True, 0
    power = m.ints  # a positive scale changes neither nilpotency nor which traces vanish
    exponent = 1
    while True:
        if all(not x for row in power for x in row):
            return True, exponent
        if sum(power[i][i] for i in range(n)):
            return False, exponent
        if exponent >= n:
            return False, exponent
        power = _int_product(power, power, n)
        exponent *= 2


def _int_product(rows: Sequence[Sequence[int]], other: Sequence[Sequence[int]],
                 cols: int) -> list[list[int]]:
    """The product of two integer matrices given by rows; other has cols columns."""
    out = []
    for row in rows:
        acc = [0] * cols
        for k, a in enumerate(row):
            if a:
                brow = other[k]
                for j in range(cols):
                    b = brow[j]
                    if b:
                        acc[j] += a * b
        out.append(acc)
    return out


def is_nilpotent(m: Matrix) -> bool:
    return nilpotency_exponent(m)[0]


def generalized_eigenspace(x: Matrix, lam) -> Subspace:
    """Root subspace: kernel of (x - lam I)**n for n the side of x.

    Kernels of powers stabilize by exponent n, so the power is taken by
    repeated squaring up to the first power of two >= n.
    """
    if not x.is_square():
        raise ValueError("generalized eigenspaces need a square matrix")
    n = x.rows
    power = (x - Matrix.identity(n).scaled(lam)).ints  # scaling keeps the kernels
    exponent = 1
    while exponent < n:
        power = _int_product(power, power, n)
        exponent *= 2
    return null_space(power, n)


def char_poly(m: Matrix) -> tuple[Fraction, ...]:
    """Monic characteristic polynomial coefficients (highest degree first).

    Computed by the Faddeev-LeVerrier recurrence, exact over the rationals.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.rows
    coeffs = [Fraction(1)]
    aux = Matrix.identity(n)
    for k in range(1, n + 1):
        am = m @ aux
        ck = -am.trace() / k
        coeffs.append(ck)
        aux = am + Matrix.identity(n).scaled(ck)
    return tuple(coeffs)


def _homogeneous(coeffs: Sequence[int], u: int, v: int) -> int:
    """v**degree times the polynomial (highest degree first) at u/v, in integers."""
    acc, power = 0, 1
    for c in coeffs:
        acc, power = acc * u + c * power, power * v
    return acc


def _sturm(ints: list[int]) -> list[list[int]]:
    """Sturm sequence f, f', -rem(f, f'), ..., each term made primitive (signs kept)."""
    chain = [ints, [c * (len(ints) - 1 - k) for k, c in enumerate(ints[:-1])]]
    while len(chain[-1]) > 1:
        rem, div = [Fraction(c) for c in chain[-2]], chain[-1]
        while len(rem) >= len(div):  # a zero leading coefficient gives f = 0: a shift
            f = rem[0] / div[0]
            rem = [x - f * y for x, y in zip(rem[1:], div[1:])] + rem[len(div):]
        while rem and not rem[0]:
            rem = rem[1:]
        if not rem:
            break
        chain.append(_primitive([-x for x in _cleared(rem)[0]]))
    return chain


def rational_roots(coeffs: Sequence[Fraction]) -> list[Fraction]:
    """All rational roots of the polynomial with the given coefficients.

    Coefficients are highest degree first.  Cleared to integers with leading
    coefficient L, every rational root is m/L for an integer m.  The points
    (2t+1)/(2L) are never roots, so Sturm sign variations there count the roots
    between candidates, and bisection narrows each count to one, tested exactly.
    """
    coeffs = [frac(c) for c in coeffs]
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    if len(coeffs) <= 1:
        return []
    ints, _ = _cleared(coeffs)
    while not ints[-1]:
        ints.pop()
    roots = [_ZERO] if len(ints) < len(coeffs) else []
    if len(ints) == 1:
        return roots
    lead = abs(ints[0])
    chain = _sturm(ints)

    def variations(t: int) -> int:
        signs = [x for x in (_homogeneous(p, 2 * t + 1, 2 * lead) for p in chain) if x]
        return sum((a < 0) != (b < 0) for a, b in zip(signs, signs[1:]))

    bound = lead + max(abs(c) for c in ints[1:])  # Cauchy: |m| <= L + max |c|
    stack = [(-bound - 1, bound, variations(-bound - 1), variations(bound))]
    while stack:  # (lo, hi]: the candidates m/L with lo < m <= hi
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if hi - lo == 1:
            if _homogeneous(ints, hi, lead) == 0:
                roots.append(Fraction(hi, lead))
            continue
        mid = (lo + hi) // 2
        v_mid = variations(mid)
        stack += [(lo, mid, v_lo, v_mid), (mid, hi, v_mid, v_hi)]
    return sorted(roots)


def rational_eigenvalues(m: Matrix) -> list[Fraction]:
    """Rational eigenvalues of m, via the rational-root test on its char poly."""
    return rational_roots(char_poly(m))
