"""Finite-dimensional Lie algebras over the rationals.

An algebra is given by structure constants on an ordered basis: the table
maps an index pair (i, j) with i < j to the sparse expansion of the bracket
of basis elements i and j.  Antisymmetry fills in the rest, and ``validate``
checks the Jacobi identity so arbitrary tables can be rejected early.

The constants are stored once, as integers over one positive scale in lowest
terms; quotients and basis changes build them without Fractions.  Brackets,
adjoints, the Jacobi check and the Killing form run on them; ``table`` is a view.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _Frozen,
    _cleared,
    _fractions,
    _read,
    as_vector,
    frac,
    invert,
    null_space,
)


def _terms(ints: Sequence[int]) -> list[tuple[int, int]]:
    """The nonzero (index, value) terms of an integer vector."""
    return [(j, x) for j, x in enumerate(ints) if x]


def _apply(columns: Sequence[list[tuple[int, int]]],
           terms: Iterable[tuple[int, int]]) -> dict[int, int]:
    """An integer matrix, given by the nonzero (row, entry) terms of each column, applied to
    a vector given by its nonzero (index, value) terms; summed over the nonzeros only."""
    image: dict[int, int] = {}
    for k, c in terms:
        for t, x in columns[k]:
            image[t] = image.get(t, 0) + c * x
    return image


class LieAlgebra(_Frozen):
    """A Lie algebra presented by basis names and structure constants, stored once as
    integers over one positive scale s in lowest terms: ``_constants[i][j][k]`` is s times
    the coefficient of e_k in [e_i, e_j], and ``_table_key``, s with the upper triangle,
    carries ``==`` and ``hash``.  ``table`` is the Fraction view, made on first read."""

    dim: int
    basis_names: tuple[str, ...]
    _table_key: tuple
    _scale: int
    _constants: tuple[dict[int, dict[int, int]], ...]
    _fields = ("dim", "basis_names", "_table_key")

    def __init__(self, dim: int, basis_names: Sequence[str],
                 table: Mapping[tuple[int, int], Mapping[int, object]]):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        names = tuple(basis_names)
        if len(names) != dim:
            raise ValueError(f"{len(names)} basis names for dimension {dim}")
        cleaned = {}
        for key, expansion in table.items():
            i, j = key if isinstance(key, tuple) and len(key) == 2 else (None, None)
            if not all(isinstance(x, int) and 0 <= x < dim for x in (i, j)):
                raise ValueError(f"structure table index {key!r} out of range for dim {dim}")
            if i >= j:
                raise ValueError(f"structure table keys must satisfy i < j, got ({i}, {j})")
            for k in expansion:  # every target is checked, a zero coefficient's too
                if not (isinstance(k, int) and 0 <= k < dim):
                    raise ValueError(f"structure table target index {k!r} out of range")
            cleaned[i, j] = {k: c for k, c in zip(expansion, map(frac, expansion.values())) if c}
        scale = math.lcm(*(c.denominator for e in cleaned.values() for c in e.values()))
        self._store(names, {key: {k: c.numerator * (scale // c.denominator) for k, c in e.items()}
                            for key, e in cleaned.items()}, scale)

    @classmethod
    def _from_ints(cls, names: tuple[str, ...],
                   products: Mapping[tuple[int, int], Mapping[int, int]], scale: int) -> "LieAlgebra":
        """The algebra with [e_i, e_j] = products[i, j] / scale for i < j."""
        algebra = object.__new__(cls)
        algebra._store(names, products, scale)
        return algebra

    def _store(self, names: tuple[str, ...], products: Mapping[tuple[int, int], Mapping[int, int]],
               scale: int) -> None:
        """Set the fields from integer products over a positive scale, in lowest terms."""
        if len(set(names)) != len(names):
            raise ValueError("basis names must be distinct")
        content = math.gcd(scale, *(c for e in products.values() for c in e.values()))
        pairs = tuple((key, tuple((k, c // content) for k, c in sorted(products[key].items()) if c))
                      for key in sorted(products) if any(products[key].values()))
        constants = tuple({} for _ in names)
        for (i, j), expansion in pairs:
            constants[i][j], constants[j][i] = dict(expansion), {k: -c for k, c in expansion}
        object.__setattr__(self, "dim", len(names))
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "_table_key", (scale // content, pairs))
        object.__setattr__(self, "_scale", scale // content)
        object.__setattr__(self, "_constants", constants)

    @cached_property
    def table(self) -> dict[tuple[int, int], dict[int, Fraction]]:
        scale, pairs = self._table_key
        return {key: {k: Fraction(c, scale) for k, c in expansion} for key, expansion in pairs}

    # -- elements ---------------------------------------------------------

    def element(self, coords: Iterable) -> Vector:
        return as_vector(self._coordinates(coords))

    def _coordinates(self, coords: Iterable) -> list[int | Fraction]:
        return _read(coords, self.dim, "element")

    def basis_element(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range")
        return _fractions([int(k == i) for k in range(self.dim)], 1)

    def index_of(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    # -- multiplication ---------------------------------------------------

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        xs, x_scale = _cleared(self._coordinates(x))
        ys, y_scale = _cleared(self._coordinates(y))
        return _fractions(self._int_bracket(_terms(xs), _terms(ys)),
                          x_scale * y_scale * self._scale)

    def _int_bracket(self, x_terms: list, y_terms: list) -> list[int]:
        """s times the bracket of two integer vectors, given by their nonzero terms."""
        acc = [0] * self.dim
        for i, a in x_terms:
            products = self._constants[i]
            for j, b in y_terms:
                expansion = products.get(j)
                if expansion:
                    ab = a * b
                    for k, c in expansion.items():
                        acc[k] += ab * c
        return acc

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y] in the defining basis, filled from the constants."""
        xs, x_scale = _cleared(self._coordinates(x))
        return Matrix(self.dim, self.dim, tuple(map(tuple, self._int_ad(xs))),
                      x_scale * self._scale)

    def _int_ad(self, xs: Sequence[int]) -> list[list[int]]:
        """s times ad of the integer vector xs, as rows."""
        acc = [[0] * self.dim for _ in range(self.dim)]
        for i, a in enumerate(xs):
            if a:
                for j, expansion in self._constants[i].items():  # column j gains a [e_i, e_j]
                    for k, c in expansion.items():
                        acc[k][j] += a * c
        return acc

    # -- validation -------------------------------------------------------

    def jacobi_violations(self) -> list[str]:
        """All basis triples breaking the Jacobi identity, with their residuals: each
        [e_a, e_b] in the table adds [e_x, [e_a, e_b]] to the cyclic sum of {x, a, b},
        negated when a < x < b, expanded from the cleared constants (s**2 times it).  Only
        the x other than a and b with [e_x, e_m] != 0 for some e_m in [e_a, e_b] are visited:
        the keys of those m's constants."""
        residuals: dict[tuple[int, int, int], list[int]] = {}
        for (a, b), expansion in self._table_key[1]:
            for x in sorted({x for m, _ in expansion for x in self._constants[m]} - {a, b}):
                sign = -1 if a < x < b else 1
                total = residuals.setdefault(tuple(sorted((x, a, b))), [0] * self.dim)
                for m, c in expansion:
                    for t, d in self._constants[x].get(m, {}).items():
                        total[t] += sign * c * d
        violations = []
        for (i, j, k), total in sorted(residuals.items()):
            if any(total):
                residual = self.format_element(_fractions(total, self._scale ** 2))
                violations.append(
                    "Jacobi identity fails on basis triple "
                    f"({self.basis_names[i]}, {self.basis_names[j]}, "
                    f"{self.basis_names[k]}): residual {residual}")
        return violations

    def validate(self) -> None:
        """Raise ValueError when any basis triple breaks the Jacobi identity."""
        violations = self.jacobi_violations()
        if violations:
            raise ValueError("; ".join(violations))

    # -- subspace machinery -------------------------------------------------

    def product_space(self, u: Subspace, v: Subspace) -> Subspace:
        """Span of all brackets [u, v], u and v running over the two subspaces."""
        if u.ambient_dim != self.dim or v.ambient_dim != self.dim:
            raise ValueError("subspaces must live in the algebra")
        v_terms = list(map(_terms, v.rows))
        # A row of u supported on central basis vectors brackets to zero: skip it.
        active = [x for x in map(_terms, u.rows) if any(self._constants[i] for i, _ in x)]
        # Brackets are made as the elimination reads them, so none is made once the span is full.
        products = (self._int_bracket(x, y) for x in active for y in v_terms)
        return Subspace._span(self.dim, filter(any, products))

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def derived_subalgebra(self) -> Subspace:
        """[g, g]: the span of the table's values, the brackets of basis pairs, spanned once
        and kept.  Each distinct value is one row, in first-seen order, made dense as the
        elimination reads it.  It is the one source of [g, g]: the series, the radical, the
        canonical functionals, characters and the verdict all read this object."""
        return self._derived

    @cached_property
    def _derived(self) -> Subspace:
        values = map(dict, dict.fromkeys(expansion for _, expansion in self._table_key[1]))
        return Subspace._span(self.dim, ([v.get(k, 0) for k in range(self.dim)] for v in values))

    def derived_series(self, start: Subspace | None = None) -> list[Subspace]:
        """The chain s >= [s,s] >= ... from the subalgebra s = start (default g),
        until it hits zero or stops shrinking.

        A zero tail appears once; a nonzero stable term appears twice (the
        repeat is the evidence of stabilization), so solvability is read off
        as "last term is zero".
        """
        return self._series(self.full_space() if start is None else start, None)

    def lower_central_series(self) -> list[Subspace]:
        """g >= [g,g] >= [g,[g,g]] >= ..., same termination rule as derived_series."""
        return self._series(self.full_space(), self.full_space())

    def _series(self, first: Subspace, outer: Subspace | None) -> list[Subspace]:
        """first, then [outer or term, term] of each last term until one is zero or no
        smaller than the term before; the dimension test ends it even for an open first.
        A full term's successor is [g, g], the algebra's one kept span of the table."""
        chain = [first]
        while not chain[-1].is_zero():
            chain.append(self.derived_subalgebra() if chain[-1].is_full() else
                         self.product_space(chain[-1] if outer is None else outer, chain[-1]))
            if chain[-1].dim >= chain[-2].dim:
                break
        return chain

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].is_zero()

    def centralizer(self, x: Sequence) -> Subspace:
        """Kernel of ad(x): all y with [x, y] = 0."""
        return null_space(self.ad(x).ints, self.dim)

    def center(self) -> Subspace:
        """Kernel of the ad(e_i) stacked: all y with [e_i, y] = 0 for every i."""
        rows: dict[tuple[int, int], list[int]] = {}  # (i, k): e_k's coefficient in [e_i, y]
        for i, products in enumerate(self._constants):
            for j, expansion in products.items():
                for k, c in expansion.items():
                    rows.setdefault((i, k), [0] * self.dim)[j] = c
        return null_space(rows.values(), self.dim)

    def is_ideal(self, h: Subspace) -> bool:
        """Whether [g, h] lies in h: ``product_space`` of g and h, each row reduced against h's."""
        return h.contains_subspace(self.product_space(self.full_space(), h))

    # -- derivations --------------------------------------------------------

    def is_derivation(self, d: Matrix) -> bool:
        """d[x,y] = [dx,y] + [x,dy] for all y is d ad(x) - ad(x) d = ad(dx), linear in x,
        so it is checked on the basis elements x = e_i."""
        if d.rows != self.dim or d.cols != self.dim:
            raise ValueError("derivation candidate has the wrong shape")
        ads = [self.ad(self.basis_element(i)) for i in range(self.dim)]
        return all(d @ a - a @ d == self.ad(d.column(i)) for i, a in enumerate(ads))

    # -- constructions ------------------------------------------------------

    def quotient(self, ideal: Subspace) -> "QuotientMap":
        """The quotient by an ideal, its basis the complement coordinates, each name + "~"."""
        if not self.is_ideal(ideal):
            raise ValueError("quotient requires an ideal")
        complement = ideal.complement_coordinates()
        q_dim = len(complement)
        names = tuple(self.basis_names[j] + "~" for j in complement)
        projection = ideal.projection()
        # Column k of the projection by its nonzeros: one term for e_k off the pivots.
        columns = list(map(_terms, zip(*projection.ints)))
        products = {(a, b): _apply(columns, self._constants[i][complement[b]].items())
                    for a, i in enumerate(complement) for b in range(a + 1, q_dim)
                    if complement[b] in self._constants[i]}  # the projection of s [e_i, e_j]
        target = LieAlgebra._from_ints(names, products, self._scale * projection.scale)
        section = Matrix(self.dim, q_dim, tuple(
            tuple(int(k == j) for j in complement) for k in range(self.dim)))
        return QuotientMap(self, target, ideal, projection, section)

    def change_of_basis(self, new_basis: Matrix,
                        names: Sequence[str] | None = None) -> "LieAlgebra":
        """The same algebra written on a new basis: the columns of a Matrix."""
        if not isinstance(new_basis, Matrix):
            raise TypeError("new basis must be a Matrix")
        p = new_basis
        if p.rows != self.dim or p.cols != self.dim:
            raise ValueError(f"{p.cols} vectors of length {p.rows} for dimension {self.dim}")
        p_inv = invert(p)
        if p_inv is None:
            raise ValueError("new basis vectors are linearly dependent")
        names = tuple(f"b{i}" for i in range(self.dim)) if names is None else tuple(names)
        if len(names) != self.dim:
            raise ValueError(f"{len(names)} basis names for dimension {self.dim}")
        # P^-1 [P e_i, P e_j]: p_inv.ints on s [p.ints e_i, p.ints e_j], over the scales.
        ints = list(map(_terms, zip(*p.ints)))
        columns = list(map(_terms, zip(*p_inv.ints)))
        products = {(i, j): _apply(columns, _terms(self._int_bracket(ints[i], ints[j])))
                    for i in range(self.dim) for j in range(i + 1, self.dim)}
        return LieAlgebra._from_ints(names, products, p_inv.scale * self._scale * p.scale ** 2)

    def format_element(self, v: Sequence) -> str:
        parts = [f"{c}*{name}" for c, name in zip(self.element(v), self.basis_names) if c]
        return " + ".join(parts) if parts else "0"


class QuotientMap(NamedTuple):
    """A surjection onto a quotient algebra plus a linear section of it.

    ``projection`` maps source coordinates to quotient coordinates and is a
    Lie algebra morphism; ``section`` embeds the quotient back along the
    non-pivot coordinates of the ideal (a linear, not Lie, splitting).
    """

    source: LieAlgebra
    target: LieAlgebra
    ideal: Subspace
    projection: Matrix
    section: Matrix

    def project(self, v: Sequence) -> Vector:
        return self.projection.apply(v)
