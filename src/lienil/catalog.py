"""Built-in algebras with declared-and-verified structural ground truth.

Each entry records the radical, derived subalgebra and semisimplicity the
fixture is *supposed* to have (semisimple exactly when the declared radical is
zero); construction recomputes the radical, which settles semisimplicity, and the derived
subalgebra, and refuses to hand out an entry on any mismatch, so a test that consumes the
catalog can rely on the declared data being literally what the library computes.  Each
kind of fixture has one builder: a plain algebra is a row of ``_MATRIX_ENTRIES`` (matrix
size, basis names, each basis matrix by its nonzero entries, and the integer rows spanning
the declared radical and derived subalgebra), whose structure constants
``_algebra_from_matrices`` derives, so none is typed by hand; the triangular families (one
function builds both) are spans of matrix units, built the same way; and
``abelian(n)`` has no brackets.  A family member of more than ``_MAX_FAMILY_DIM``
dimensions is refused before any of it is built; any other entry is built, verified and
cached once, under every spelling of its name.  Only the sl2 entry carries
representations, its modules of highest weight 0 to 4, irreducible by construction
(irreducibility itself is never decided); no entry carries its adjoint.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache, partial
from typing import Iterable, NamedTuple

from .liealg import LieAlgebra
from .linalg import Matrix, Subspace
from .reps import Representation, validate_rep
from .semisimple import ConsistencyError, radical

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
    for rep in entry.irreducibles:
        if rep.algebra != entry.algebra or validate_rep(rep):
            raise ConsistencyError(f"catalog entry {entry.name}: broken attached representation")
    return entry


def _units(dim: int, indices: Iterable[int]) -> list[list[int]]:
    """The basis vectors e_i for these indices, as integer rows."""
    return [[int(k == i) for k in range(dim)] for i in indices]


def _matrix(n: int, terms: dict[tuple[int, int], int]) -> Matrix:
    """The n x n integer matrix whose (r, c) entry is terms[r, c], and 0 off the terms."""
    return Matrix(n, n, tuple(tuple(terms.get((r, c), 0) for c in range(n)) for r in range(n)))


def _entry(name: str, algebra: LieAlgebra, radical_rows: list[list[int]],
           derived_rows: list[list[int]],
           irreducibles: tuple[Representation, ...] = ()) -> CatalogEntry:
    """The entry whose declared radical and derived subalgebra these integer rows span;
    it is declared semisimple when that radical is zero."""
    known_radical = Subspace._span(algebra.dim, radical_rows)
    return CatalogEntry(name, algebra, known_radical, Subspace._span(algebra.dim, derived_rows),
                        known_radical.is_zero(), irreducibles)


_MATRIX_ENTRIES = {  # name: (matrix size, basis names, each basis matrix by its nonzero
    # (row, column) entries, the integer rows spanning the declared radical and derived algebra)
    "sl2": (2, "e h f", [{(0, 1): 1}, {(0, 0): 1, (1, 1): -1}, {(1, 0): 1}],
            [], _units(3, range(3))),
    "so3": (3, "x y z", [{(2, 1): 1, (1, 2): -1}, {(0, 2): 1, (2, 0): -1}, {(1, 0): 1, (0, 1): -1}],
            [], _units(3, range(3))),
    "heisenberg": (3, "x y z", [{(0, 1): 1}, {(1, 2): 1}, {(0, 2): 1}],
                   _units(3, range(3)), [[0, 0, 1]]),
    "nonabelian2": (2, "a b", [{(0, 0): 1}, {(0, 1): 1}], _units(2, range(2)), [[0, 1]]),
    "borel2": (2, "h e", [{(0, 0): 1, (1, 1): -1}, {(0, 1): 1}], _units(2, range(2)), [[0, 1]]),
    "sl3": (3, "E12 E13 E23 H1 H2 E21 E31 E32", [
        {(0, 1): 1}, {(0, 2): 1}, {(1, 2): 1}, {(0, 0): 1, (1, 1): -1}, {(1, 1): 1, (2, 2): -1},
        {(1, 0): 1}, {(2, 0): 1}, {(2, 1): 1}], [], _units(8, range(8))),
    "gl2": (2, "E11 E12 E21 E22", [{(0, 0): 1}, {(0, 1): 1}, {(1, 0): 1}, {(1, 1): 1}],
            [[1, 0, 0, 1]], [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]),
}


def _matrix_entry(name: str) -> CatalogEntry:
    """The entry of a row of ``_MATRIX_ENTRIES``; the sl2 entry carries its irreducibles."""
    n, names, terms, radical_rows, derived_rows = _MATRIX_ENTRIES[name]
    algebra = _algebra_from_matrices(names.split(), [_matrix(n, t) for t in terms])
    irreducibles = tuple(_sl2_irrep(algebra, m) for m in range(5)) if name == "sl2" else ()
    return _entry(name, algebra, radical_rows, derived_rows, irreducibles)


def _sl2_irrep(sl2: LieAlgebra, m: int) -> Representation:
    """sl2_irrep(m) on this copy of the sl2 algebra."""
    n = m + 1
    mats = (_matrix(n, {(r, r + 1): m - r for r in range(m)}),
            _matrix(n, {(r, r): m - 2 * r for r in range(n)}),
            _matrix(n, {(c + 1, c): c + 1 for c in range(m)}))
    return Representation(sl2, n, mats, f"sl2_irrep({m})")


def sl2_irrep(m: int) -> Representation:
    """The (m+1)-dimensional representation with highest weight m, on the sl2 entry's algebra.

    Diagonal action m, m-2, ..., -m; raising matrix sends v_{j+1} to
    (m-j) v_j and lowering sends v_j to (j+1) v_{j+1}.
    """
    if m < 0:
        raise ValueError("highest weight must be nonnegative")
    return _sl2_irrep(builtin("sl2").algebra, m)


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


def _triangular(strict: bool, n: int) -> CatalogEntry:
    """upper_triangular(n), or strictly_upper(n) when strict: the matrix units E_ij with
    j - i >= strict, all in the radical; those with j - i > strict span the derived subalgebra."""
    pairs = [(i, j) for i in range(n) for j in range(i + strict, n)]
    names = tuple(f"E{i + 1}_{j + 1}" if n > 9 else f"E{i + 1}{j + 1}" for i, j in pairs)
    algebra = _algebra_from_matrices(names, [_matrix(n, {(i, j): 1}) for i, j in pairs])
    derived = [k for k, (i, j) in enumerate(pairs) if j - i > strict]
    name = f"{'strictly_upper' if strict else 'upper_triangular'}({n})"
    return _entry(name, algebra, _units(len(pairs), range(len(pairs))),
                  _units(len(pairs), derived))


def _abelian(n: int) -> CatalogEntry:
    algebra = LieAlgebra(n, tuple(f"x{i + 1}" for i in range(n)), {})
    return _entry(f"abelian({n})", algebra, _units(n, range(n)), [])


_FAMILIES = {  # name: (what n is, the dimension of member n, its builder)
    "abelian": ("dimension", lambda n: n, _abelian),
    "upper_triangular": ("matrix size", lambda n: n * (n + 1) // 2, partial(_triangular, False)),
    "strictly_upper": ("matrix size", lambda n: n * (n - 1) // 2, partial(_triangular, True)),
}

_NAME_RE = re.compile(r"([a-z_]+)\(([0-9]+)\)")


def builtin(name: str) -> CatalogEntry:
    """Catalog lookup by name; parametric names look like ``abelian(3)``, in ASCII digits,
    and a member of more than ``_MAX_FAMILY_DIM`` dimensions raises before it is built.
    Every spelling of a name (``abelian(003)``) reads its algebra's one cached entry."""
    if name in _MATRIX_ENTRIES:
        return _built(name, None)
    match = _NAME_RE.fullmatch(name)
    if match is None or match.group(1) not in _FAMILIES:
        raise ValueError(f"unknown catalog name: {name!r}")
    parameter, dimension, _ = _FAMILIES[match.group(1)]
    n = int(match.group(2))
    if n < 1:
        raise ValueError(f"{parameter} must be at least 1")
    if dimension(n) > _MAX_FAMILY_DIM:
        raise ValueError(f"catalog name {name!r} has dimension {dimension(n)}, "
                         f"above the limit of {_MAX_FAMILY_DIM}")
    return _built(match.group(1), n)


@lru_cache(maxsize=None)
def _built(name: str, n: int | None) -> CatalogEntry:
    """The verified entry of a plain name, or of a family's member n: one per algebra."""
    entry = _matrix_entry(name) if n is None else _FAMILIES[name][2](n)
    entry.algebra.validate()  # a semidirect extension's Jacobi identity follows from its parts
    return _verified(entry)


def catalog_names() -> list[str]:
    """Template names accepted by builtin, parametric ones shown with (n)."""
    return sorted(_MATRIX_ENTRIES) + sorted(f"{base}(n)" for base in _FAMILIES)


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

    Only the sl2 entry carries any, so lookup is by exact table equality with it, and
    anything else gets none.  The entry is built only for a 3-dimensional algebra, since
    equal algebras have equal dims.
    """
    if algebra.dim != 3:
        return ()
    entry = builtin("sl2")
    return entry.irreducibles if entry.algebra == algebra else ()


__all__ = [
    "CatalogEntry", "builtin", "catalog_names", "irreducibles_for",
    "semidirect", "sl2_irrep", "standard_entries",
]
