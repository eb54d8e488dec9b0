"""Built-in algebras with declared-and-verified structural ground truth.

Each entry records the radical, derived subalgebra and semisimplicity the
fixture is *supposed* to have (semisimple exactly when the declared radical is
zero); construction recomputes all three and refuses to hand out an entry on
any mismatch, so a test that consumes the catalog can rely on the declared
data being literally what the library computes.  Each kind of fixture has one
builder, and all of them start from integers: a bracket-table algebra is a row
of ``_TABLES`` (basis names, the brackets [e_i, e_j] for i < j, and the basis
indices spanning the declared radical and derived subalgebra); sl3, gl2 and the
triangular families (one function builds both) are matrix algebras; and
``abelian(n)`` has no brackets.  A family member of more than
``_MAX_FAMILY_DIM`` dimensions is refused before any of it is built.  Entries
for sl2-like algebras also carry representations that are irreducible by
construction — irreducibility itself is never decided.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterable, NamedTuple

from .liealg import LieAlgebra
from .linalg import Matrix, Subspace
from .reps import Representation, adjoint_rep, trivial_rep, validate_rep
from .semisimple import ConsistencyError, is_semisimple, radical

# Above this a family member is refused: upper_triangular(10), 55 dimensions, takes about
# 1.6 s to build, verify and render, and upper_triangular(11), 66 dimensions, about 2.8 s.
_MAX_FAMILY_DIM = 64


class CatalogEntry(NamedTuple):
    name: str
    algebra: LieAlgebra
    known_radical: Subspace
    known_derived: Subspace
    known_semisimple: bool
    irreducibles: tuple[Representation, ...] = ()


def _verified(entry: CatalogEntry) -> CatalogEntry:
    if radical(entry.algebra) != entry.known_radical:
        raise ConsistencyError(f"catalog entry {entry.name}: radical mismatch")
    if entry.algebra.derived_subalgebra() != entry.known_derived:
        raise ConsistencyError(f"catalog entry {entry.name}: derived subalgebra mismatch")
    if is_semisimple(entry.algebra) != entry.known_semisimple:
        raise ConsistencyError(f"catalog entry {entry.name}: semisimplicity mismatch")
    for rep in entry.irreducibles:
        if rep.algebra != entry.algebra or validate_rep(rep):
            raise ConsistencyError(f"catalog entry {entry.name}: broken attached representation")
    return entry


def _units(dim: int, indices: Iterable[int]) -> list[list[int]]:
    """The basis vectors e_i for these indices, as integer rows."""
    return [[int(k == i) for k in range(dim)] for i in indices]


def _int_matrix(n: int, entry: Callable[[int, int], int]) -> Matrix:
    """The n x n integer matrix with entry(r, c) in row r, column c."""
    return Matrix(n, n, tuple(tuple(entry(r, c) for c in range(n)) for r in range(n)))


def _entry(name: str, algebra: LieAlgebra, radical_rows: list[list[int]],
           derived_rows: list[list[int]],
           irreducibles: tuple[Representation, ...] = ()) -> CatalogEntry:
    """The entry whose declared radical and derived subalgebra these integer rows span;
    it is declared semisimple when that radical is zero."""
    known_radical = Subspace._span(algebra.dim, radical_rows)
    return CatalogEntry(name, algebra, known_radical, Subspace._span(algebra.dim, derived_rows),
                        known_radical.is_zero(), irreducibles)


_TABLES = {  # name: (basis names, [e_i, e_j] for i < j, radical indices, derived indices)
    "sl2": ("e h f", {(0, 1): {0: -2}, (0, 2): {1: 1}, (1, 2): {2: -2}}, (), (0, 1, 2)),
    "so3": ("x y z", {(0, 1): {2: 1}, (0, 2): {1: -1}, (1, 2): {0: 1}}, (), (0, 1, 2)),
    "heisenberg": ("x y z", {(0, 1): {2: 1}}, (0, 1, 2), (2,)),
    "nonabelian2": ("a b", {(0, 1): {1: 1}}, (0, 1), (1,)),
    "borel2": ("h e", {(0, 1): {1: 2}}, (0, 1), (1,)),
}


@lru_cache(maxsize=None)
def _table_algebra(name: str) -> LieAlgebra:
    names = _TABLES[name][0].split()
    return LieAlgebra(len(names), names, _TABLES[name][1])


def _table_entry(name: str) -> CatalogEntry:
    algebra = _table_algebra(name)
    _, _, radical_indices, derived_indices = _TABLES[name]
    irreducibles = tuple(sl2_irrep(m) for m in range(5)) if name == "sl2" else ()
    if not radical_indices:
        irreducibles += (adjoint_rep(algebra),)
    return _entry(name, algebra, _units(algebra.dim, radical_indices),
                  _units(algebra.dim, derived_indices), irreducibles)


def sl2_irrep(m: int) -> Representation:
    """The (m+1)-dimensional representation with highest weight m.

    Diagonal action m, m-2, ..., -m; raising matrix sends v_{j+1} to
    (m-j) v_j and lowering sends v_j to (j+1) v_{j+1}.
    """
    if m < 0:
        raise ValueError("highest weight must be nonnegative")
    n = m + 1
    mats = (_int_matrix(n, lambda r, c: (m - r) * (c == r + 1)),
            _int_matrix(n, lambda r, c: (m - 2 * r) * (c == r)),
            _int_matrix(n, lambda r, c: (c + 1) * (r == c + 1)))
    return Representation(_table_algebra("sl2"), n, mats, f"sl2_irrep({m})")


def _matrix_unit(n: int, i: int, j: int) -> Matrix:
    return _int_matrix(n, lambda r, c: int((r, c) == (i, j)))


def _algebra_from_matrices(names, mats: list[Matrix]) -> LieAlgebra:
    """Structure constants of a matrix Lie algebra given by a linearly independent basis
    of integer matrices, each flattened to its rows in turn.  The rows (m_i flattened, e_i)
    are eliminated once, so eliminating (v, 0) leaves (0, -x) iff v = sum x_i m_i."""
    dim, entries = len(mats), mats[0].rows * mats[0].cols if mats else 0
    span = Subspace._span(entries + dim, [
        (*sum(m.ints, ()), *unit) for m, unit in zip(mats, _units(dim, range(dim)))])
    table = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            commutator = sum((mats[i] @ mats[j] - mats[j] @ mats[i]).ints, ())
            rest, scale = span._eliminate([*commutator, *(0,) * dim])
            if any(rest[:entries]):
                raise ValueError("matrix set is not closed under the commutator")
            table[i, j] = {k: Fraction(-x, scale) for k, x in enumerate(rest[entries:]) if x}
    return LieAlgebra(dim, names, table)


def _sl3() -> CatalogEntry:
    unit = [[_matrix_unit(3, i, j) for j in range(3)] for i in range(3)]
    names = ("E12", "E13", "E23", "H1", "H2", "E21", "E31", "E32")
    algebra = _algebra_from_matrices(names, [
        unit[0][1], unit[0][2], unit[1][2], unit[0][0] - unit[1][1], unit[1][1] - unit[2][2],
        unit[1][0], unit[2][0], unit[2][1]])
    return _entry("sl3", algebra, [], _units(8, range(8)), (adjoint_rep(algebra),))


def _gl2() -> CatalogEntry:
    units = [_matrix_unit(2, i, j) for i in range(2) for j in range(2)]
    algebra = _algebra_from_matrices(("E11", "E12", "E21", "E22"), units)
    return _entry("gl2", algebra, [[1, 0, 0, 1]], [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])


def _triangular(strict: bool, n: int) -> CatalogEntry:
    """upper_triangular(n), or strictly_upper(n) when strict: the matrix units E_ij with
    j - i >= strict, all in the radical; those with j - i > strict span the derived subalgebra."""
    pairs = [(i, j) for i in range(n) for j in range(i + strict, n)]
    names = tuple(f"E{i + 1}_{j + 1}" if n > 9 else f"E{i + 1}{j + 1}" for i, j in pairs)
    algebra = _algebra_from_matrices(names, [_matrix_unit(n, i, j) for i, j in pairs])
    derived = [k for k, (i, j) in enumerate(pairs) if j - i > strict]
    name = f"{'strictly_upper' if strict else 'upper_triangular'}({n})"
    return _entry(name, algebra, _units(len(pairs), range(len(pairs))),
                  _units(len(pairs), derived))


def _abelian(n: int) -> CatalogEntry:
    algebra = LieAlgebra(n, tuple(f"x{i + 1}" for i in range(n)), {})
    return _entry(f"abelian({n})", algebra, _units(n, range(n)), [])


_PLAIN = {"sl3": _sl3, "gl2": _gl2, **{name: partial(_table_entry, name) for name in _TABLES}}

_FAMILIES = {  # name: (what n is, the dimension of member n, its builder)
    "abelian": ("dimension", lambda n: n, _abelian),
    "upper_triangular": ("matrix size", lambda n: n * (n + 1) // 2, partial(_triangular, False)),
    "strictly_upper": ("matrix size", lambda n: n * (n - 1) // 2, partial(_triangular, True)),
}

_NAME_RE = re.compile(r"([a-z_]+)\(([0-9]+)\)")


@lru_cache(maxsize=None)
def builtin(name: str) -> CatalogEntry:
    """Catalog lookup by name; parametric names look like ``abelian(3)``, in ASCII digits,
    and a member of more than ``_MAX_FAMILY_DIM`` dimensions raises before it is built."""
    if name in _PLAIN:
        entry = _PLAIN[name]()
    else:
        match = _NAME_RE.fullmatch(name)
        if match is None or match.group(1) not in _FAMILIES:
            raise ValueError(f"unknown catalog name: {name!r}")
        parameter, dimension, build = _FAMILIES[match.group(1)]
        n = int(match.group(2))
        if n < 1:
            raise ValueError(f"{parameter} must be at least 1")
        if dimension(n) > _MAX_FAMILY_DIM:
            raise ValueError(f"catalog name {name!r} has dimension {dimension(n)}, "
                             f"above the limit of {_MAX_FAMILY_DIM}")
        canonical = f"{match.group(1)}({n})"  # no leading zeros: one entry per algebra
        if name != canonical:
            return builtin(canonical)
        entry = build(n)
    entry.algebra.validate()  # a semidirect extension's Jacobi identity follows from its parts
    return _verified(entry)


def catalog_names() -> list[str]:
    """Template names accepted by builtin, parametric ones shown with (n)."""
    return sorted(_PLAIN) + sorted(f"{base}(n)" for base in _FAMILIES)


def standard_entries() -> list[CatalogEntry]:
    """The concrete fixture set test suites quantify over."""
    names = ["abelian(1)", "abelian(2)", "nonabelian2", "borel2", "heisenberg",
             "sl2", "sl3", "gl2", "so3",
             "upper_triangular(2)", "upper_triangular(3)",
             "strictly_upper(3)", "strictly_upper(4)"]
    return [builtin(n) for n in names]


def semidirect(s: LieAlgebra, rep: Representation, name: str | None = None) -> CatalogEntry:
    """Extend s by an abelian ideal: [x, v] = rep(x)v for x in s, v in the module V.

    The construction checks that the quotient by V reproduces the structure constants
    of s, and declares the radical rad(s) + V (the quotient is s), the derived algebra
    [s, s] + rep(s)V (V is abelian), and semisimplicity exactly when that radical is 0.
    s must satisfy the Jacobi identity and rep the homomorphism law; together they give
    the extension's Jacobi identity, so the extension itself is not checked again.
    """
    if rep.algebra != s:
        raise ValueError("representation must be of the extended algebra")
    if validate_rep(rep):
        raise ValueError("representation fails the homomorphism law")
    s.validate()  # a Jacobi failure of s is reported as one, before radical(s) reads s
    dim_v = rep.dim_v
    dim = s.dim + dim_v
    names = list(s.basis_names)
    for k in range(dim_v):
        candidate = f"v{k + 1}"
        while candidate in names:
            candidate += "_"
        names.append(candidate)
    table = dict(s.table)
    for i, mat in enumerate(rep.matrices):
        for j in range(dim_v):  # LieAlgebra drops the zero coefficients
            table[(i, s.dim + j)] = dict(enumerate(mat.column(j), s.dim))
    algebra = LieAlgebra(dim, names, table)
    entry_name = name if name is not None else f"semidirect({rep.label})"
    module = _units(dim, range(s.dim, dim))
    if algebra.quotient(Subspace._span(dim, module)).target._table_key != s._table_key:
        raise ConsistencyError(
            f"catalog entry {entry_name}: quotient by the module is not the base algebra")
    pad = [0] * dim_v  # extends a row of s by zero on V
    image = [[0] * s.dim + list(column) for mat in rep.matrices for column in zip(*mat.ints)]
    return _verified(_entry(entry_name, algebra,
                            [[*r, *pad] for r in radical(s).rows] + module,
                            [[*r, *pad] for r in s.derived_subalgebra().rows] + image))


def irreducibles_for(algebra: LieAlgebra) -> tuple[Representation, ...]:
    """Irreducible representations the catalog attaches to this exact algebra.

    Lookup is by exact table equality against the catalog fixtures that
    carry attached representations; anything else gets none.  Only a fixture
    of the algebra's dimension is built, since equal algebras have equal dims.
    """
    for name in {3: ("sl2", "so3"), 8: ("sl3",)}.get(algebra.dim, ()):
        entry = builtin(name)
        if entry.algebra == algebra:
            return entry.irreducibles
    return ()


__all__ = [
    "CatalogEntry", "builtin", "catalog_names", "irreducibles_for",
    "semidirect", "sl2_irrep", "standard_entries", "trivial_rep",
]
