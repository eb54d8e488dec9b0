"""Finite-dimensional Lie algebras over the rationals.

An algebra is given by structure constants on an ordered basis: the table
maps an index pair (i, j) with i < j to the sparse expansion of the bracket
of basis elements i and j.  Antisymmetry fills in the rest, and ``validate``
checks the Jacobi identity so arbitrary tables can be rejected early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .linalg import (
    Matrix,
    Subspace,
    Vector,
    as_vector,
    frac,
    invert,
    kernel_image,
)

_ZERO = Fraction(0)

StructureTable = dict[tuple[int, int], dict[int, Fraction]]


def _freeze_table(table: Mapping[tuple[int, int], Mapping[int, object]],
                  dim: int) -> StructureTable:
    frozen: StructureTable = {}
    for (i, j), expansion in table.items():
        if not (0 <= i < dim and 0 <= j < dim):
            raise ValueError(f"structure table index ({i}, {j}) out of range for dim {dim}")
        if i >= j:
            raise ValueError(f"structure table keys must satisfy i < j, got ({i}, {j})")
        cleaned = {k: frac(c) for k, c in expansion.items() if frac(c) != 0}
        for k in cleaned:
            if not 0 <= k < dim:
                raise ValueError(f"structure table target index {k} out of range")
        if cleaned:
            frozen[(i, j)] = cleaned
    return frozen


@dataclass(frozen=True)
class LieAlgebra:
    """A Lie algebra presented by basis names and sparse structure constants."""

    dim: int
    basis_names: tuple[str, ...]
    table: StructureTable = field(compare=False)
    _table_key: tuple = field(default=(), repr=False)

    def __init__(self, dim: int, basis_names: Sequence[str],
                 table: Mapping[tuple[int, int], Mapping[int, object]]):
        if dim < 0:
            raise ValueError("dimension must be nonnegative")
        names = tuple(basis_names)
        if len(names) != dim:
            raise ValueError(f"{len(names)} basis names for dimension {dim}")
        if len(set(names)) != dim:
            raise ValueError("basis names must be distinct")
        frozen = _freeze_table(table, dim)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis_names", names)
        object.__setattr__(self, "table", frozen)
        object.__setattr__(self, "_table_key", tuple(
            (key, tuple(sorted(frozen[key].items()))) for key in sorted(frozen)))

    @classmethod
    def from_products(cls, names: Sequence[str],
                      product: Callable[[int, int], Sequence]) -> "LieAlgebra":
        """The algebra on these basis names where product(i, j) gives the coordinates
        of [e_i, e_j] for i < j."""
        n = len(names)
        return cls(n, names, {(i, j): dict(enumerate(product(i, j)))
                              for i in range(n) for j in range(i + 1, n)})

    # -- elements ---------------------------------------------------------

    def element(self, coords: Iterable) -> Vector:
        vec = as_vector(coords)
        if len(vec) != self.dim:
            raise ValueError(f"element has {len(vec)} coordinates, expected {self.dim}")
        return vec

    def basis_element(self, i: int) -> Vector:
        if not 0 <= i < self.dim:
            raise IndexError(f"basis index {i} out of range")
        return tuple(Fraction(int(k == i)) for k in range(self.dim))

    def index_of(self, name: str) -> int:
        try:
            return self.basis_names.index(name)
        except ValueError:
            raise KeyError(f"no basis element named {name!r}") from None

    def zero(self) -> Vector:
        return (_ZERO,) * self.dim

    # -- multiplication ---------------------------------------------------

    def _basis_bracket(self, i: int, j: int) -> dict[int, Fraction]:
        if i == j:
            return {}
        if i < j:
            return self.table.get((i, j), {})
        return {k: -c for k, c in self.table.get((j, i), {}).items()}

    def bracket(self, x: Sequence, y: Sequence) -> Vector:
        xv = self.element(x)
        yv = self.element(y)
        acc = [_ZERO] * self.dim
        for i, a in enumerate(xv):
            if not a:
                continue
            for j, b in enumerate(yv):
                if not b:
                    continue
                for k, c in self._basis_bracket(i, j).items():
                    acc[k] += a * b * c
        return tuple(acc)

    def ad(self, x: Sequence) -> Matrix:
        """Matrix of y -> [x, y] in the defining basis, filled from the table."""
        xv = self.element(x)
        entries = [[_ZERO] * self.dim for _ in range(self.dim)]
        for (i, j), expansion in self.table.items():
            a, b = xv[i], xv[j]  # column j gains a [e_i, e_j]; column i gains -b [e_i, e_j]
            for k, c in expansion.items():
                if a:
                    entries[k][j] += a * c
                if b:
                    entries[k][i] -= b * c
        return Matrix(self.dim, self.dim, tuple(map(tuple, entries)))

    # -- validation -------------------------------------------------------

    def jacobi_violations(self) -> list[str]:
        """All basis triples breaking the Jacobi identity, with their residuals."""
        violations = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                for k in range(j + 1, self.dim):
                    ei, ej, ek = (self.basis_element(t) for t in (i, j, k))
                    total = [
                        a + b + c for a, b, c in zip(
                            self.bracket(ei, self.bracket(ej, ek)),
                            self.bracket(ej, self.bracket(ek, ei)),
                            self.bracket(ek, self.bracket(ei, ej)))]
                    if any(total):
                        residual = self.format_element(total)
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
        vectors = [self.bracket(a, b) for a in u.basis for b in v.basis]
        return Subspace.from_vectors(self.dim, vectors)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim)

    def derived_subalgebra(self) -> Subspace:
        """[g, g]: the span of the table's values, the brackets of basis pairs."""
        return Subspace.from_vectors(
            self.dim, [[e.get(k, _ZERO) for k in range(self.dim)] for e in self.table.values()])

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
        smaller than the term before; the dimension test ends it even for an open first."""
        chain = [first]
        while not chain[-1].is_zero():
            chain.append(self.product_space(chain[-1] if outer is None else outer, chain[-1]))
            if chain[-1].dim >= chain[-2].dim:
                break
        return chain

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].is_zero()

    def is_nilpotent_algebra(self) -> bool:
        return self.lower_central_series()[-1].is_zero()

    def centralizer(self, x: Sequence) -> Subspace:
        """Kernel of ad(x): all y with [x, y] = 0."""
        kernel, _ = kernel_image(self.ad(x))
        return kernel

    def center(self) -> Subspace:
        """Kernel of the ad(e_i) stacked: all y with [e_i, y] = 0 for every i."""
        rows = tuple(row for i in range(self.dim) for row in self.ad(self.basis_element(i)).entries)
        kernel, _ = kernel_image(Matrix(len(rows), self.dim, rows))
        return kernel

    def is_ideal(self, h: Subspace) -> bool:
        return h.contains_subspace(self.product_space(self.full_space(), h))

    # -- derivations --------------------------------------------------------

    def is_derivation(self, d: Matrix) -> bool:
        """Check d[x,y] = [dx,y] + [x,dy] on all basis pairs."""
        if d.rows != self.dim or d.cols != self.dim:
            raise ValueError("derivation candidate has the wrong shape")
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                ei, ej = self.basis_element(i), self.basis_element(j)
                lhs = d.apply(self.bracket(ei, ej))
                rhs = tuple(a + b for a, b in zip(
                    self.bracket(d.apply(ei), ej), self.bracket(ei, d.apply(ej))))
                if lhs != rhs:
                    return False
        return True

    # -- constructions ------------------------------------------------------

    def quotient(self, ideal: Subspace, names: Sequence[str] | None = None) -> "QuotientMap":
        if not self.is_ideal(ideal):
            raise ValueError("quotient requires an ideal")
        complement = ideal.complement_coordinates()
        q_dim = len(complement)
        if names is None:
            names = tuple(self.basis_names[j] + "~" for j in complement)
        else:
            names = tuple(names)
            if len(names) != q_dim:
                raise ValueError(f"{len(names)} names for quotient dimension {q_dim}")

        def project(v: Sequence) -> Vector:
            reduced = ideal.reduce(v)
            return tuple(reduced[j] for j in complement)

        quotient_algebra = LieAlgebra.from_products(names, lambda a, b: project(self.bracket(
            self.basis_element(complement[a]), self.basis_element(complement[b]))))
        projection_matrix = Matrix.from_columns(
            [project(self.basis_element(j)) for j in range(self.dim)])
        section_matrix = Matrix.from_columns(
            [self.basis_element(complement[a]) for a in range(q_dim)])
        return QuotientMap(self, quotient_algebra, ideal, projection_matrix, section_matrix)

    def change_of_basis(self, new_basis,
                        names: Sequence[str] | None = None) -> "LieAlgebra":
        """The same algebra written on a new basis (a Matrix's columns, or vectors)."""
        if isinstance(new_basis, Matrix):
            new_basis = [new_basis.column(j) for j in range(new_basis.cols)]
        columns = [self.element(v) for v in new_basis]
        if len(columns) != self.dim:
            raise ValueError(f"{len(columns)} vectors for dimension {self.dim}")
        p = Matrix.from_columns(columns)
        p_inv = invert(p)
        if p_inv is None:
            raise ValueError("new basis vectors are linearly dependent")
        names = tuple(f"b{i}" for i in range(self.dim)) if names is None else tuple(names)
        if len(names) != self.dim:
            raise ValueError(f"{len(names)} basis names for dimension {self.dim}")
        return LieAlgebra.from_products(
            names, lambda i, j: p_inv.apply(self.bracket(columns[i], columns[j])))

    def direct_sum(self, other: "LieAlgebra") -> "LieAlgebra":
        names = tuple(f"{n}.0" for n in self.basis_names) + tuple(
            f"{n}.1" for n in other.basis_names)
        table: dict[tuple[int, int], dict[int, Fraction]] = {
            key: dict(val) for key, val in self.table.items()}
        off = self.dim
        for (i, j), val in other.table.items():
            table[(i + off, j + off)] = {k + off: c for k, c in val.items()}
        return LieAlgebra(self.dim + other.dim, names, table)

    def format_element(self, v: Sequence) -> str:
        vec = self.element(v)
        parts = [f"{c}*{name}" for c, name in zip(vec, self.basis_names) if c]
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class QuotientMap:
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
        return self.projection.apply(self.source.element(v))
