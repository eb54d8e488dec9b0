"""Built-in algebras with declared-and-verified structural ground truth.

Each entry records the radical, derived subalgebra and semisimplicity the
fixture is *supposed* to have; construction recomputes all three and
refuses to hand out an entry on any mismatch, so a test that consumes the
catalog can rely on the declared data being literally what the library
computes.  Entries for sl2-like algebras also carry representations that
are irreducible by construction — irreducibility itself is never decided.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from .liealg import LieAlgebra
from .linalg import Matrix, Subspace, Vector, solve
from .reps import Representation, adjoint_rep, trivial_rep, validate_rep
from .semisimple import ConsistencyError, analyze, is_semisimple, radical

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    algebra: LieAlgebra
    known_radical: Subspace
    known_derived: Subspace
    known_semisimple: bool
    irreducibles: tuple[Representation, ...] = ()


def _verified(entry: CatalogEntry) -> CatalogEntry:
    entry.algebra.validate()
    if radical(entry.algebra) != entry.known_radical:
        raise ConsistencyError(f"catalog entry {entry.name}: radical mismatch")
    if analyze(entry.algebra).derived != entry.known_derived:
        raise ConsistencyError(f"catalog entry {entry.name}: derived subalgebra mismatch")
    if is_semisimple(entry.algebra) != entry.known_semisimple:
        raise ConsistencyError(f"catalog entry {entry.name}: semisimplicity mismatch")
    for rep in entry.irreducibles:
        if rep.algebra != entry.algebra or validate_rep(rep):
            raise ConsistencyError(f"catalog entry {entry.name}: broken attached representation")
    return entry


def _coordinate_span(dim: int, indices) -> Subspace:
    vectors = []
    for i in indices:
        v = [_ZERO] * dim
        v[i] = _ONE
        vectors.append(v)
    return Subspace.from_vectors(dim, vectors)


def _flatten(m: Matrix) -> tuple[Fraction, ...]:
    return tuple(x for row in m.entries for x in row)


def _algebra_from_matrices(names, mats: list[Matrix]) -> LieAlgebra:
    """Structure constants of a matrix Lie algebra given by a linearly independent basis."""
    span = Matrix.from_columns([_flatten(m) for m in mats]) if mats else Matrix.zero(0, 0)

    def product(i: int, j: int) -> Vector:
        coords = solve(span, _flatten(mats[i] @ mats[j] - mats[j] @ mats[i]))
        if coords is None:
            raise ValueError("matrix set is not closed under the commutator")
        return coords

    return LieAlgebra.from_products(names, product)


def _matrix_unit(n: int, i: int, j: int) -> Matrix:
    return Matrix.from_rows([
        [1 if (r, c) == (i, j) else 0 for c in range(n)] for r in range(n)])


def _unit_name(i: int, j: int, large: bool) -> str:
    return f"E{i + 1}_{j + 1}" if large else f"E{i + 1}{j + 1}"


@lru_cache(maxsize=None)
def _sl2_algebra() -> LieAlgebra:
    return LieAlgebra(3, ("e", "h", "f"), {
        (0, 1): {0: Fraction(-2)},
        (0, 2): {1: Fraction(1)},
        (1, 2): {2: Fraction(-2)},
    })


@lru_cache(maxsize=None)
def sl2_irrep(m: int) -> Representation:
    """The (m+1)-dimensional representation with highest weight m.

    Diagonal action m, m-2, ..., -m; raising matrix sends v_{j+1} to
    (m-j) v_j and lowering sends v_j to (j+1) v_{j+1}.
    """
    if m < 0:
        raise ValueError("highest weight must be nonnegative")
    n = m + 1
    e_rows = [[_ZERO] * n for _ in range(n)]
    f_rows = [[_ZERO] * n for _ in range(n)]
    h_rows = [[_ZERO] * n for _ in range(n)]
    for j in range(n):
        h_rows[j][j] = Fraction(m - 2 * j)
        if j + 1 < n:
            e_rows[j][j + 1] = Fraction(m - j)
            f_rows[j + 1][j] = Fraction(j + 1)
    mats = tuple(Matrix.from_rows(rows) for rows in (e_rows, h_rows, f_rows))
    return Representation(_sl2_algebra(), n, mats, f"sl2_irrep({m})")


def _entry_sl2() -> CatalogEntry:
    algebra = _sl2_algebra()
    irreducibles = tuple(sl2_irrep(m) for m in range(5)) + (adjoint_rep(algebra),)
    return CatalogEntry("sl2", algebra, Subspace.zero(3), Subspace.full(3), True,
                        irreducibles)


def _entry_sl3() -> CatalogEntry:
    pairs = [(0, 1), (0, 2), (1, 2)]
    names = [_unit_name(i, j, False) for i, j in pairs]
    mats = [_matrix_unit(3, i, j) for i, j in pairs]
    names += ["H1", "H2"]
    mats += [_matrix_unit(3, 0, 0) - _matrix_unit(3, 1, 1),
             _matrix_unit(3, 1, 1) - _matrix_unit(3, 2, 2)]
    names += [_unit_name(j, i, False) for i, j in pairs]
    mats += [_matrix_unit(3, j, i) for i, j in pairs]
    algebra = _algebra_from_matrices(tuple(names), mats)
    return CatalogEntry("sl3", algebra, Subspace.zero(8), Subspace.full(8), True,
                        (adjoint_rep(algebra),))


def _entry_gl2() -> CatalogEntry:
    names = ("E11", "E12", "E21", "E22")
    mats = [_matrix_unit(2, i, j) for i in range(2) for j in range(2)]
    algebra = _algebra_from_matrices(names, mats)
    derived = Subspace.from_vectors(4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]])
    return CatalogEntry("gl2", algebra,
                        Subspace.from_vectors(4, [[1, 0, 0, 1]]), derived, False)


def _entry_so3() -> CatalogEntry:
    algebra = LieAlgebra(3, ("x", "y", "z"), {
        (0, 1): {2: Fraction(1)},
        (1, 2): {0: Fraction(1)},
        (0, 2): {1: Fraction(-1)},
    })
    return CatalogEntry("so3", algebra, Subspace.zero(3), Subspace.full(3), True,
                        (adjoint_rep(algebra),))


def _entry_heisenberg() -> CatalogEntry:
    algebra = LieAlgebra(3, ("x", "y", "z"), {(0, 1): {2: Fraction(1)}})
    return CatalogEntry("heisenberg", algebra, Subspace.full(3),
                        _coordinate_span(3, [2]), False)


def _entry_nonabelian2() -> CatalogEntry:
    algebra = LieAlgebra(2, ("a", "b"), {(0, 1): {1: Fraction(1)}})
    return CatalogEntry("nonabelian2", algebra, Subspace.full(2),
                        _coordinate_span(2, [1]), False)


def _entry_borel2() -> CatalogEntry:
    algebra = LieAlgebra(2, ("h", "e"), {(0, 1): {1: Fraction(2)}})
    return CatalogEntry("borel2", algebra, Subspace.full(2),
                        _coordinate_span(2, [1]), False)


def _entry_abelian(n: int) -> CatalogEntry:
    if n < 1:
        raise ValueError("dimension must be at least 1")
    algebra = LieAlgebra(n, tuple(f"x{i + 1}" for i in range(n)), {})
    return CatalogEntry(f"abelian({n})", algebra, Subspace.full(n),
                        Subspace.zero(n), False)


def _entry_upper_triangular(n: int) -> CatalogEntry:
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    names = tuple(_unit_name(i, j, n > 9) for i, j in pairs)
    algebra = _algebra_from_matrices(names, [_matrix_unit(n, i, j) for i, j in pairs])
    strict = [k for k, (i, j) in enumerate(pairs) if i < j]
    return CatalogEntry(f"upper_triangular({n})", algebra, Subspace.full(len(pairs)),
                        _coordinate_span(len(pairs), strict), False)


def _entry_strictly_upper(n: int) -> CatalogEntry:
    if n < 1:
        raise ValueError("matrix size must be at least 1")
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    names = tuple(_unit_name(i, j, n > 9) for i, j in pairs)
    algebra = _algebra_from_matrices(names, [_matrix_unit(n, i, j) for i, j in pairs])
    wide = [k for k, (i, j) in enumerate(pairs) if j - i >= 2]
    dim = len(pairs)
    return CatalogEntry(f"strictly_upper({n})", algebra, Subspace.full(dim),
                        _coordinate_span(dim, wide), dim == 0)


_PLAIN = {
    "sl2": _entry_sl2,
    "sl3": _entry_sl3,
    "gl2": _entry_gl2,
    "so3": _entry_so3,
    "heisenberg": _entry_heisenberg,
    "nonabelian2": _entry_nonabelian2,
    "borel2": _entry_borel2,
}

_PARAMETRIC = {
    "abelian": _entry_abelian,
    "upper_triangular": _entry_upper_triangular,
    "strictly_upper": _entry_strictly_upper,
}

_NAME_RE = re.compile(r"^([a-z_0-9]+)\((\d+)\)$")


@lru_cache(maxsize=None)
def builtin(name: str) -> CatalogEntry:
    """Catalog lookup by name; parametric names look like ``abelian(3)``."""
    if name in _PLAIN:
        return _verified(_PLAIN[name]())
    match = _NAME_RE.match(name)
    if match and match.group(1) in _PARAMETRIC:
        return _verified(_PARAMETRIC[match.group(1)](int(match.group(2))))
    raise ValueError(f"unknown catalog name: {name!r}")


def catalog_names() -> list[str]:
    """Template names accepted by builtin, parametric ones shown with (n)."""
    return sorted(_PLAIN) + sorted(f"{base}(n)" for base in _PARAMETRIC)


def standard_entries() -> list[CatalogEntry]:
    """The concrete fixture set test suites quantify over."""
    names = ["abelian(1)", "abelian(2)", "nonabelian2", "borel2", "heisenberg",
             "sl2", "sl3", "gl2", "so3",
             "upper_triangular(2)", "upper_triangular(3)",
             "strictly_upper(3)", "strictly_upper(4)"]
    return [builtin(n) for n in names]


@lru_cache(maxsize=None)
def semidirect(s: LieAlgebra, rep: Representation, name: str | None = None) -> CatalogEntry:
    """Extend s by an abelian ideal: [x, v] = rep(x)v for x in s, v in the module.

    When s is semisimple the module summand is declared as the radical and
    the construction additionally checks that the quotient by it reproduces
    the structure constants of s.
    """
    if rep.algebra != s:
        raise ValueError("representation must be of the extended algebra")
    if validate_rep(rep):
        raise ValueError("representation fails the homomorphism law")
    dim_v = rep.dim_v
    dim = s.dim + dim_v
    taken = set(s.basis_names)
    module_names = []
    for k in range(dim_v):
        candidate = f"v{k + 1}"
        while candidate in taken:
            candidate += "_"
        taken.add(candidate)
        module_names.append(candidate)
    names = s.basis_names + tuple(module_names)
    table = dict(s.table)
    for i in range(s.dim):
        mat = rep.matrices[i]
        for j in range(dim_v):  # LieAlgebra drops the zero coefficients
            table[(i, s.dim + j)] = dict(enumerate(mat.column(j), s.dim))
    algebra = LieAlgebra(dim, names, table)
    algebra.validate()
    entry_name = name if name is not None else f"semidirect({rep.label})"
    if is_semisimple(s):
        module_span = _coordinate_span(dim, range(s.dim, dim))
        quotient = algebra.quotient(module_span).target
        if quotient._table_key != s._table_key:
            raise ConsistencyError(
                f"catalog entry {entry_name}: quotient by the module is not the base algebra")
        known_radical = module_span
    else:
        known_radical = radical(algebra)
    return _verified(CatalogEntry(
        entry_name, algebra, known_radical,
        analyze(algebra).derived, is_semisimple(algebra)))


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
