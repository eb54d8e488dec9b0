"""Shared helpers: deterministic pseudo-random data, composite fixtures, and
reference implementations that the library itself no longer calls."""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from lienil.catalog import _algebra_from_matrices, builtin, semidirect, sl2_irrep
from lienil.liealg import LieAlgebra
from lienil.linalg import (
    Matrix, Subspace, Vector, as_vector, frac, invert, is_nilpotent, kernel_image)
from lienil.oracle import _KINDS, _corpus
from lienil.reps import Representation


def outcome(call):
    """What call() returns, or the type and arguments of the exception it raises."""
    try:
        return call()
    except Exception as exc:
        return (type(exc), *exc.args)


def seeded_elements(dim: int, count: int, seed: int) -> list[tuple[Fraction, ...]]:
    """Reproducible element coordinates: small rationals, seed-determined."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(tuple(
            Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))
            for _ in range(dim)))
    return out


def seeded_invertible_matrices(dim: int, count: int, seed: int) -> list[Matrix]:
    """Reproducible invertible integer matrices (rejection-sampled)."""
    rng = random.Random(seed)
    out: list[Matrix] = []
    while len(out) < count:
        candidate = Matrix.from_rows(
            [[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
        if invert(candidate) is not None:
            out.append(candidate)
    return out


def seeded_rational_bases(dim: int, count: int, seed: int) -> list[Matrix]:
    """Reproducible invertible matrices of small rationals: the columns of
    seeded_elements(dim, dim, s) for each next seed s from seed on that gives one."""
    out: list[Matrix] = []
    attempt = 0
    while len(out) < count:
        p = Matrix.from_rows(list(zip(*seeded_elements(dim, dim, seed=seed + attempt))))
        attempt += 1
        if kernel_image(p)[0].is_zero():
            out.append(p)
    return out


def with_rational_basis_changes(g: LieAlgebra, count: int = 3, seed: int = 71) -> list[LieAlgebra]:
    """g and count copies of it moved by seeded invertible rational matrices."""
    return [g] + [g.change_of_basis(p) for p in seeded_rational_bases(g.dim, count, seed)]


def direct_sum(g: LieAlgebra, h: LieAlgebra) -> LieAlgebra:
    """g (+) h on g's basis, each name + ".0", then h's, each name + ".1": g's table, then
    h's shifted by dim g."""
    names = [*(f"{name}.0" for name in g.basis_names), *(f"{name}.1" for name in h.basis_names)]
    return LieAlgebra(g.dim + h.dim, names, {
        (i + shift, j + shift): {k + shift: c for k, c in value.items()}
        for shift, summand in ((0, g), (g.dim, h)) for (i, j), value in summand.table.items()})


def sl2_plus_sl2() -> LieAlgebra:
    """sl2 (+) sl2 on the basis e.0 h.0 f.0 e.1 h.1 f.1."""
    sl2 = builtin("sl2").algebra
    return direct_sum(sl2, sl2)


def _matrix(n: int, terms: dict[tuple[int, int], int]) -> Matrix:
    """The n x n integer matrix whose (r, c) entry is terms[r, c], and 0 off the terms."""
    return Matrix.from_rows([[terms.get((r, c), 0) for c in range(n)] for r in range(n)])


def _defining(bases: dict[str, list[Matrix]]) -> list[tuple[str, Representation]]:
    """Each named basis of matrices as the defining representation of the algebra that
    catalog._algebra_from_matrices builds on it."""
    out = []
    for name, mats in bases.items():
        g = _algebra_from_matrices(tuple(f"x{k}" for k in range(len(mats))), mats)
        out.append((name, Representation(g, mats[0].rows, tuple(mats), "defining")))
    return out


def split_classical() -> list[tuple[str, Representation]]:
    """Split so(5), so(6), so(7), so(8), sp(4) and sp(6) (Levi types B2, D3, B3, D4, C2 and
    C3), each built by catalog._algebra_from_matrices, as the defining representation of
    that algebra.
    so(n) is {X : X^T J + J X = 0} for the antidiagonal J, on the basis
    E_ij - E_{n-1-j, n-1-i} for i + j < n - 1; sp(2l) is the [[A, B], [C, -A^T]] with B
    and C symmetric, on the basis E_ij - E_{l+j, l+i} and the E_{i, l+j} + E_{j, l+i} and
    E_{l+i, j} + E_{l+j, i} for i <= j."""
    bases = {f"so({n})": [_matrix(n, {(i, j): 1, (n - 1 - j, n - 1 - i): -1})
                          for i in range(n) for j in range(n - 1 - i)] for n in (5, 6, 7, 8)}
    for l in (2, 3):
        pairs = [(i, j) for i in range(l) for j in range(i, l)]
        bases[f"sp({2 * l})"] = (
            [_matrix(2 * l, {(i, j): 1, (l + j, l + i): -1}) for i in range(l) for j in range(l)]
            + [_matrix(2 * l, {(i, l + j): 1, (j, l + i): 1}) for i, j in pairs]
            + [_matrix(2 * l, {(l + i, j): 1, (l + j, i): 1}) for i, j in pairs])
    return _defining(bases)


def compact_orthogonal() -> list[tuple[str, Representation]]:
    """Compact so(3), so(4), so(5) and so(6), the antisymmetric n x n matrices on the basis
    E_ij - E_ji for i < j, each built by catalog._algebra_from_matrices, as the defining
    representation of that algebra.  Its Killing form is negative definite, so ad(x) is
    semisimple with imaginary eigenvalues, nilpotent only at x = 0 (Knapp, *Lie Groups
    Beyond an Introduction*, Ch. IV): no nonzero element is nilpotent."""
    return _defining({f"so({n})": [_matrix(n, {(i, j): 1, (j, i): -1})
                                   for i in range(n) for j in range(i + 1, n)]
                      for n in (3, 4, 5, 6)})


def heisenberg_algebra(n: int) -> LieAlgebra:
    """The Heisenberg algebra of dimension 2n + 1: [x_i, y_i] = z."""
    names = [*(f"x{i}" for i in range(n)), *(f"y{i}" for i in range(n)), "z"]
    return LieAlgebra(2 * n + 1, names, {(i, n + i): {2 * n: 1} for i in range(n)})


def partly_central(g: LieAlgebra, central: int, seed: int) -> LieAlgebra:
    """g plus `central` central basis elements z_t at seeded places among g's, with each
    e_i of g moved to e_i + sum_t f_t(e_i) z_t for seeded integer functionals f_t: so
    [e_i, e_j] gains -f_t([e_i, e_j]) z_t.  It is g (+) an abelian algebra on a new basis,
    a Lie algebra iff g is one, whose values reach the z_t; a basis element of g outside
    the support of g's values stays outside the new values' support."""
    rng = random.Random(seed)
    dim = g.dim + central
    z_at = sorted(rng.sample(range(dim), central))
    at = [k for k in range(dim) if k not in z_at]  # e_i of g sits at at[i]
    f = [[rng.randint(-2, 2) for _ in range(g.dim)] for _ in z_at]
    names = [""] * dim
    for i, name in enumerate(g.basis_names):
        names[at[i]] = name
    for t, k in enumerate(z_at):
        names[k] = f"z{t}"
    table = {}
    for (i, j), expansion in g.table.items():
        value = {at[k]: c for k, c in expansion.items()}
        for row, k in zip(f, z_at):
            value[k] = -sum(row[m] * c for m, c in expansion.items())
        table[at[i], at[j]] = value
    return LieAlgebra(dim, names, table)


SEMISIMPLE_NAMES = ("sl2", "sl3", "so3")


def criterion_2_cases() -> list[tuple[str, LieAlgebra, list]]:
    """The acceptance gate's cross-validation workload: (name, algebra, elements), 17
    elements in all."""
    ext = semidirect(builtin("sl2").algebra, sl2_irrep(1)).algebra
    return [
        ("sl2", builtin("sl2").algebra,
         [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0)]),
        ("heisenberg", builtin("heisenberg").algebra,
         [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1)]),
        ("gl2", builtin("gl2").algebra,
         [(0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1)]),
        ("semidirect(sl2, V1)", ext, seeded_elements(5, 5, seed=103)),
    ]


# --- references that no library path calls --------------------------------------

@dataclass(frozen=True)
class Member:
    """One corpus member read off the integer steps: the expression it stands for."""

    index: int
    label: str
    dim: int
    level: int
    kind: str  # "seed" | "dual" | "sum" | "tensor"
    operands: tuple[int, ...]
    seed: Representation | None


def corpus_members(algebra: LieAlgebra, depth: int, max_dim: int) -> list[Member]:
    """The corpus of oracle._corpus as one Member per seed and step, each level one above
    its operands' and each label built from its operands' labels."""
    seeds, steps, _, rows = _corpus(algebra, depth, max_dim)
    members = [Member(i, rep.label, rep.dim_v, 0, "seed", (), rep) for i, rep in enumerate(seeds)]
    for index, (step_kind, left, right) in enumerate(steps, len(seeds)):
        kind = _KINDS[step_kind]
        operands = (left,) if kind == "dual" else (left, right)
        label = f"{kind}({', '.join(members[o].label for o in operands)})"
        level = 1 + max(members[o].level for o in operands)
        members.append(Member(index, label, rows[0][index].dim, level, kind, operands, None))
    return members


def corpus_representations(members: Sequence[Member]) -> list[tuple[FractionMatrix, ...]]:
    """Each corpus member's matrices, one per basis element, built in Fractions from its
    seeds' entries by this module's own code: a dual is -transpose, a sum the block
    diagonal and a tensor product kron(A, I) + kron(I, B)."""
    build = {"dual": fraction_dual, "sum": fraction_sum, "tensor": fraction_tensor}
    built: list[tuple[FractionMatrix, ...]] = []
    for m in members:
        if m.kind == "seed":
            assert m.seed is not None
            built.append(fraction_matrices(m.seed))
        else:
            built.append(build[m.kind](*(built[o] for o in m.operands)))
    return built


_EMPTY = object()  # corpus state of a 0-dimensional member


def fraction_corpus_outcomes(members: Sequence[Member], av: Vector) -> list[bool]:
    """acts_nilpotently for every member, from one Fraction state per member: the
    evaluator the integer corpus states replaced.

    A member's state is _EMPTY (dimension 0), its single eigenvalue c, or
    None when it has more than one.  In one forward pass:
      seed:   c = trace/dim, single iff action - c*I is nilpotent;
      dual:   c becomes -c;
      sum:    _EMPTY is the identity; two single values stay single only
              when they are equal;
      tensor: _EMPTY absorbs; otherwise c1 + c2, None if either is None.
    A member is nilpotent iff it is _EMPTY or single with c = 0.  A
    0-dimensional space has no eigenvalue at all, so it must be a wildcard
    rather than eigenvalue 0: sum(x, empty) has exactly the eigenvalues of
    x, and tensor(x, empty) is again 0-dimensional, whatever x is.
    """
    states: list = []
    for m in members:
        operands = [states[o] for o in m.operands]
        if m.dim == 0:
            state = _EMPTY
        elif m.kind == "seed":
            assert m.seed is not None
            action = m.seed.action(av)
            c = action.trace() / m.dim
            state = c if is_nilpotent(action - Matrix.identity(m.dim).scaled(c)) else None
        elif None in operands:
            state = None
        elif m.kind == "dual":
            state = -operands[0]
        elif m.kind == "tensor":
            state = operands[0] + operands[1]
        else:  # sum
            values = {c for c in operands if c is not _EMPTY}
            state = values.pop() if len(values) == 1 else None
        states.append(state)
    return [s is _EMPTY or s == 0 for s in states]


def matrix_power(m: Matrix, exponent: int) -> Matrix:
    if not m.is_square():
        raise ValueError("only square matrices can be powered")
    if exponent < 0:
        raise ValueError("negative exponent")
    result = Matrix.identity(m.rows)
    base = m
    e = exponent
    while e:
        if e & 1:
            result = result @ base
        e >>= 1
        if e:
            base = base @ base
    return result


def _restrict_to_subalgebra(algebra: LieAlgebra, space: Subspace) -> LieAlgebra:
    """The bracket restricted to a subspace closed under it (the solvability reference)."""
    def product(i: int, j: int) -> Vector:  # coefficients against space.basis: pivot entries
        value = algebra.bracket(space.basis[i], space.basis[j])
        if not space.contains(value):
            raise ValueError("subspace is not closed under the bracket")
        return tuple(value[p] for p in space.pivots)

    n = space.dim
    return LieAlgebra(n, tuple(f"s{i}" for i in range(n)), {
        (i, j): dict(enumerate(product(i, j))) for i in range(n) for j in range(i + 1, n)})


# --- Fraction references for the integer structure kernels ------------------------

_ZERO = Fraction(0)


def _basis_bracket(g: LieAlgebra, i: int, j: int) -> dict[int, Fraction]:
    if i == j:
        return {}
    if i < j:
        return g.table.get((i, j), {})
    return {k: -c for k, c in g.table.get((j, i), {}).items()}


def fraction_bracket(g: LieAlgebra, x, y) -> Vector:
    """[x, y] summed in Fractions over the public table."""
    xv = g.element(x)
    yv = g.element(y)
    acc = [_ZERO] * g.dim
    for i, a in enumerate(xv):
        if not a:
            continue
        for j, b in enumerate(yv):
            if not b:
                continue
            for k, c in _basis_bracket(g, i, j).items():
                acc[k] += a * b * c
    return tuple(acc)


def fraction_ad(g: LieAlgebra, x) -> Matrix:
    """ad(x) filled in Fractions from the public table."""
    xv = g.element(x)
    entries = [[_ZERO] * g.dim for _ in range(g.dim)]
    for (i, j), expansion in g.table.items():
        a, b = xv[i], xv[j]  # column j gains a [e_i, e_j]; column i gains -b [e_i, e_j]
        for k, c in expansion.items():
            if a:
                entries[k][j] += a * c
            if b:
                entries[k][i] -= b * c
    return Matrix.from_rows(entries)


def fraction_killing_gram(g: LieAlgebra) -> Matrix:
    """K_ij = sum over l, k of c(i,l)_k c(j,k)_l, cleared by its own lcm of the table."""
    n = g.dim
    scale = math.lcm(*(x.denominator for e in g.table.values() for x in e.values()))
    c: list[list[dict[int, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for (i, l), expansion in g.table.items():
        c[i][l] = {k: x.numerator * (scale // x.denominator) for k, x in expansion.items()}
        c[l][i] = {k: -x for k, x in c[i][l].items()}
    gram = [[_ZERO] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            total = sum(x * c[j][k].get(l, 0) for l in range(n) for k, x in c[i][l].items())
            gram[i][j] = gram[j][i] = Fraction(total, scale * scale)
    return Matrix.from_rows(gram)


def fraction_reduce(space: Subspace, v) -> Vector:
    """Remainder of v after eliminating the pivot coordinates, in Fractions."""
    vec = list(as_vector(v))
    for row, p in zip(space.basis, space.pivots):
        f = vec[p]
        if f:
            vec = [x - f * y for x, y in zip(vec, row)]
    return tuple(vec)


def fraction_rref(rows, cols: int) -> tuple[tuple[Vector, ...], list[int]]:
    """Nonzero rows of the reduced row-echelon form (pivot 1) and the pivots, by
    Gauss-Jordan in Fractions."""
    rows = [list(as_vector(row)) for row in rows]
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        pick = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pick is None:
            continue
        rows[r], rows[pick] = rows[pick], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c]:
                rows[i] = [x - row[c] * y for x, y in zip(row, rows[r])]
        pivots.append(c)
    return tuple(tuple(row) for row in rows[:len(pivots)]), pivots


def fraction_null_space(rows, cols: int) -> list[Vector]:
    """A kernel basis of the matrix with these rows, one vector per free column."""
    reduced, pivots = fraction_rref(rows, cols)
    out = []
    for free in (j for j in range(cols) if j not in pivots):
        vec = [_ZERO] * cols
        vec[free] = Fraction(1)
        for row, p in zip(reduced, pivots):
            vec[p] = -row[free]
        out.append(tuple(vec))
    return out


def fraction_change_of_basis(g: LieAlgebra, columns, names: Sequence[str]) -> LieAlgebra:
    """g on the basis of these columns, each P^-1 [P e_i, P e_j] applied in Fractions."""
    p_inv = invert(Matrix.from_rows(list(zip(*columns))))
    n = len(names)
    return LieAlgebra(n, names, {
        (i, j): dict(enumerate(p_inv.apply(g.bracket(columns[i], columns[j]))))
        for i in range(n) for j in range(i + 1, n)})


def fraction_is_derivation(g: LieAlgebra, d: Matrix) -> bool:
    """d[e_i, e_j] = [d e_i, e_j] + [e_i, d e_j] on every basis pair, in Fractions."""
    m = FractionMatrix.from_rows(d.entries, g.dim)
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            ei, ej = g.basis_element(i), g.basis_element(j)
            lhs = m.apply(fraction_bracket(g, ei, ej))
            rhs = tuple(a + b for a, b in zip(fraction_bracket(g, m.apply(ei), ej),
                                              fraction_bracket(g, ei, m.apply(ej))))
            if lhs != rhs:
                return False
    return True


def fraction_jacobi_violations(g: LieAlgebra) -> list[str]:
    """The Jacobi messages from dense Fraction brackets of every basis triple."""
    violations = []
    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            for k in range(j + 1, g.dim):
                ei, ej, ek = (g.basis_element(t) for t in (i, j, k))
                total = [
                    a + b + c for a, b, c in zip(
                        fraction_bracket(g, ei, fraction_bracket(g, ej, ek)),
                        fraction_bracket(g, ej, fraction_bracket(g, ek, ei)),
                        fraction_bracket(g, ek, fraction_bracket(g, ei, ej)))]
                if any(total):
                    residual = g.format_element(total)
                    violations.append(
                        "Jacobi identity fails on basis triple "
                        f"({g.basis_names[i]}, {g.basis_names[j]}, "
                        f"{g.basis_names[k]}): residual {residual}")
    return violations


# --- the dense Fraction matrix the integer Matrix replaced ------------------------

@dataclass(frozen=True)
class FractionMatrix:
    """Immutable dense matrix of Fractions, entry by entry: the reference for ``Matrix``."""

    rows: int
    cols: int
    entries: tuple[tuple[Fraction, ...], ...]

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], cols: int | None = None) -> "FractionMatrix":
        entries = tuple(tuple(frac(x) for x in row) for row in rows)
        n_cols = cols if cols is not None else len(entries[0]) if entries else 0
        return cls(len(entries), n_cols, entries)

    @classmethod
    def identity(cls, n: int) -> "FractionMatrix":
        return cls(n, n, tuple(
            tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n)))

    def __add__(self, other: "FractionMatrix") -> "FractionMatrix":
        return FractionMatrix(self.rows, self.cols, tuple(
            tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __sub__(self, other: "FractionMatrix") -> "FractionMatrix":
        return FractionMatrix(self.rows, self.cols, tuple(
            tuple(a - b for a, b in zip(ra, rb)) for ra, rb in zip(self.entries, other.entries)))

    def __neg__(self) -> "FractionMatrix":
        return FractionMatrix(self.rows, self.cols, tuple(
            tuple(-a for a in row) for row in self.entries))

    def scaled(self, c) -> "FractionMatrix":
        c = frac(c)
        return FractionMatrix(self.rows, self.cols, tuple(
            tuple(c * a for a in row) for row in self.entries))

    def __matmul__(self, other: "FractionMatrix") -> "FractionMatrix":
        return FractionMatrix(self.rows, other.cols, tuple(
            tuple(sum((row[k] * other.entries[k][j] for k in range(self.cols)), _ZERO)
                  for j in range(other.cols))
            for row in self.entries))

    def apply(self, v: Sequence) -> Vector:
        vec = as_vector(v)
        return tuple(sum((a * x for a, x in zip(row, vec)), _ZERO) for row in self.entries)

    def transpose(self) -> "FractionMatrix":
        return FractionMatrix(self.cols, self.rows, tuple(
            tuple(self.entries[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def trace(self) -> Fraction:
        return sum((self.entries[i][i] for i in range(self.rows)), _ZERO)


def fraction_kron(a: FractionMatrix, b: FractionMatrix) -> FractionMatrix:
    return FractionMatrix(a.rows * b.rows, a.cols * b.cols, tuple(
        tuple(x * y for x in a.entries[i] for y in b.entries[p])
        for i in range(a.rows) for p in range(b.rows)))


# Representations as one FractionMatrix per basis element: corpus members built without
# lienil.linalg, checked by the bracket in Fractions and by fraction_is_nilpotent.

def fraction_matrices(rep: Representation) -> tuple[FractionMatrix, ...]:
    """A representation's basis matrices as Fraction entries."""
    return tuple(FractionMatrix.from_rows(m.entries, rep.dim_v) for m in rep.matrices)


def fraction_dual(mats) -> tuple[FractionMatrix, ...]:
    return tuple(-m.transpose() for m in mats)


def fraction_sum(left, right) -> tuple[FractionMatrix, ...]:
    """The block-diagonal matrices diag(A, B)."""
    return tuple(FractionMatrix.from_rows(
        [(*row, *(_ZERO,) * b.cols) for row in a.entries]
        + [(*(_ZERO,) * a.cols, *row) for row in b.entries], a.cols + b.cols)
        for a, b in zip(left, right))


def fraction_tensor(left, right) -> tuple[FractionMatrix, ...]:
    return tuple(fraction_kron(a, FractionMatrix.identity(b.rows))
                 + fraction_kron(FractionMatrix.identity(a.rows), b)
                 for a, b in zip(left, right))


def fraction_action(mats, a) -> FractionMatrix:
    """sum a_i M_i, entry by entry in Fractions."""
    n = mats[0].rows
    terms = [(frac(c), m.entries) for c, m in zip(a, mats) if c]
    return FractionMatrix(n, n, tuple(
        tuple(sum((c * rows[r][k] for c, rows in terms if rows[r][k]), _ZERO)
              for k in range(n)) for r in range(n)))


def fraction_rep_violations(g: LieAlgebra, mats) -> list[tuple[int, int]]:
    """The basis pairs (i, j) on which M([e_i, e_j]) != M_i M_j - M_j M_i, in Fractions."""
    return [(i, j) for i in range(g.dim) for j in range(i + 1, g.dim)
            if fraction_action(mats, fraction_bracket(g, g.basis_element(i), g.basis_element(j)))
            != mats[i] @ mats[j] - mats[j] @ mats[i]]


def fraction_solve(a: FractionMatrix, b: Sequence) -> Vector | None:
    """The solution with free variables zero, or None, by Gauss-Jordan in Fractions."""
    rhs = as_vector(b)
    reduced, pivots = fraction_rref([(*row, y) for row, y in zip(a.entries, rhs)], a.cols + 1)
    if a.cols in pivots:
        return None
    x = [_ZERO] * a.cols
    for row, c in zip(reduced, pivots):
        x[c] = row[a.cols]
    return tuple(x)


def fraction_invert(m: FractionMatrix) -> FractionMatrix | None:
    n = m.rows
    reduced, pivots = fraction_rref(
        [(*row, *(Fraction(int(i == j)) for j in range(n))) for i, row in enumerate(m.entries)],
        2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return FractionMatrix(n, n, tuple(row[n:] for row in reduced[:n]))


# --- the decision's criterion, decided by code of its own ------------------------

def _int_square(m: list[list[int]]) -> list[list[int]]:
    return [[sum(row[k] * m[k][j] for k in range(len(m)) if row[k]) for j in range(len(m))]
            for row in m]


def fraction_is_nilpotent(entries: Sequence[Sequence[Fraction]]) -> bool:
    """M^n == 0 for the n x n matrix M of these rows: M cleared to integers by the lcm of
    its denominators, then squared until the exponent reaches n."""
    n = len(entries)
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    power = [[int(x * scale) for x in row] for row in entries]
    exponent = 1
    while exponent < n:
        power = _int_square(power)
        exponent *= 2
    return not any(any(row) for row in power)


@functools.lru_cache(maxsize=8)  # callers decide many elements of one algebra in a row
def _derived_basis(g: LieAlgebra) -> tuple[Vector, ...]:
    """A basis of [g, g]: fraction_rref of the table's values, once per algebra."""
    values = [[expansion.get(k, _ZERO) for k in range(g.dim)] for expansion in g.table.values()]
    return fraction_rref(values, g.dim)[0]


def in_derived_and_ad_nilpotent(g: LieAlgebra, a: Sequence) -> bool:
    """a lies in [g, g] and ad_g(a) is nilpotent, which holds exactly when a acts
    nilpotently in every representation.

    Membership compares the rank of the table's values, by fraction_rref once per
    algebra, with the rank of their reduced rows and a.  ad_g(a) is filled from the
    public table, cleared to integers and squared until the exponent reaches dim g; it
    is nilpotent iff that power is zero.
    """
    n = g.dim
    av = [Fraction(x) for x in a]
    basis = _derived_basis(g)
    if len(fraction_rref([*basis, av], n)[1]) != len(basis):
        return False
    ad = [[_ZERO] * n for _ in range(n)]  # ad[k][j]: e_k's coefficient in [a, e_j]
    for (i, j), expansion in g.table.items():
        for k, c in expansion.items():
            ad[k][j] += av[i] * c
            ad[k][i] -= av[j] * c
    return fraction_is_nilpotent(ad)
