"""Representations of a Lie algebra as explicit matrix assignments.

A representation stores one square matrix per basis element of its algebra
plus a label naming how it was built, which reports print.  The constructors
(trivial, adjoint, characters and pullbacks) make the corpus seeds and the
witnesses; duals, direct sums and tensor products of them are never
materialized, since the oracle decides those from integer eigenvalue states.
``validate_rep`` re-checks the homomorphism law from scratch and reports
violations as data rather than exceptions, so candidate tables from outside
can be screened.

A character checks its functional against the algebra's own [g, g], so this
module imports nothing from ``semisimple``.  A common eigenspace of several
actions is one null space of their stacked shifted rows.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import Sequence

from .liealg import LieAlgebra, QuotientMap
from .linalg import (
    Matrix,
    Subspace,
    _Frozen,
    _cleared,
    as_vector,
    is_nilpotent,
    null_space,
    rational_eigenvalues,
)


class Representation(_Frozen):
    _fields = ("algebra", "dim_v", "matrices", "label")

    def __init__(self, algebra: LieAlgebra, dim_v: int, matrices: tuple[Matrix, ...], label: str):
        if len(matrices) != algebra.dim:
            raise ValueError("one matrix per algebra basis element is required")
        for m in matrices:
            if m.rows != dim_v or m.cols != dim_v:
                raise ValueError(f"representation matrices must be {dim_v}x{dim_v}")
        object.__setattr__(self, "algebra", algebra)
        object.__setattr__(self, "dim_v", dim_v)
        object.__setattr__(self, "matrices", matrices)
        object.__setattr__(self, "label", label)

    def action(self, a: Sequence) -> Matrix:
        """Matrix of the element a = sum a_i b_i, i.e. sum a_i rho(b_i): one integer
        combination of the matrices' rows over a common scale, put in lowest terms once."""
        terms = [(c, m) for c, m in zip(self.algebra.element(a), self.matrices) if c]
        if not terms:
            return Matrix.zero(self.dim_v, self.dim_v)
        scale = math.lcm(*(c.denominator * m.scale for c, m in terms))
        weights = [c.numerator * (scale // (c.denominator * m.scale)) for c, m in terms]
        return Matrix(self.dim_v, self.dim_v, tuple(
            tuple(sum(map(operator.mul, weights, entries)) for entries in zip(*rows))
            for rows in zip(*(m.ints for _, m in terms))), scale)


class Weight(_Frozen):
    """A linear function on a subalgebra, recorded on its canonical basis."""

    _fields = ("subalgebra", "values")

    def __init__(self, subalgebra: Subspace, values: tuple[Fraction, ...]):
        if len(values) != subalgebra.dim:
            raise ValueError("one value per subalgebra basis vector is required")
        object.__setattr__(self, "subalgebra", subalgebra)
        object.__setattr__(self, "values", values)


def validate_rep(rep: Representation) -> list[str]:
    """Homomorphism-law violations, one message per failing basis pair."""
    violations = []
    alg = rep.algebra
    for i in range(alg.dim):
        for j in range(i + 1, alg.dim):
            lhs = rep.action(alg.bracket(alg.basis_element(i), alg.basis_element(j)))
            rhs = rep.matrices[i] @ rep.matrices[j] - rep.matrices[j] @ rep.matrices[i]
            if lhs != rhs:
                violations.append(
                    f"homomorphism law fails on ({alg.basis_names[i]}, {alg.basis_names[j]})")
    return violations


def adjoint_rep(algebra: LieAlgebra) -> Representation:
    matrices = tuple(algebra.ad(algebra.basis_element(i)) for i in range(algebra.dim))
    return Representation(algebra, algebra.dim, matrices, "adjoint")


def trivial_rep(algebra: LieAlgebra, dim_v: int = 1) -> Representation:
    matrices = tuple(Matrix.zero(dim_v, dim_v) for _ in range(algebra.dim))
    return Representation(algebra, dim_v, matrices, f"trivial({dim_v})")


def pullback(rep: Representation, q: QuotientMap) -> Representation:
    """(rho . pi): the source algebra acting through the quotient map."""
    if rep.algebra is not q.target and rep.algebra != q.target:
        raise ValueError("representation is not of the quotient target")
    matrices = tuple(
        rep.action(q.project(q.source.basis_element(i))) for i in range(q.source.dim))
    return Representation(q.source, rep.dim_v, matrices, f"pullback({rep.label})")


def one_dim_rep(algebra: LieAlgebra, xi: Sequence) -> Representation:
    """The character x -> (xi(x)) for a functional vanishing on [L, L]."""
    values = as_vector(xi)
    if len(values) != algebra.dim:
        raise ValueError(f"functional has {len(values)} coordinates, expected {algebra.dim}")
    ints = _cleared(values)[0]  # a positive multiple of xi: vanishing is homogeneous
    if any(sum(map(operator.mul, ints, row)) for row in algebra.derived_subalgebra().rows):
        raise ValueError("functional does not vanish on the derived subalgebra")
    zero = Matrix.zero(1, 1)  # shared by every zero value
    matrices = tuple(Matrix(1, 1, ((c.numerator,),), c.denominator) if c else zero for c in values)
    return Representation(algebra, 1, matrices, f"character({','.join(map(str, values))})")


def acts_nilpotently(rep: Representation, a: Sequence) -> bool:
    """Exact test of (sum a_i rho(b_i))^dim_v == 0."""
    return is_nilpotent(rep.action(a))


def weight_space(rep: Representation, space: Subspace, weight: Weight) -> Subspace:
    """Simultaneous eigenvectors: the largest V' with rho(v)x = weight(v)x on it."""
    if weight.subalgebra != space:
        raise ValueError("weight was recorded on a different subalgebra")
    if space.ambient_dim != rep.algebra.dim:
        raise ValueError("subalgebra must live in the representation's algebra")
    # One elimination of the stacked rows of every rho(v) - weight(v) I; each is made as the
    # elimination reads it, so none is made once the rank is full.
    identity = Matrix.identity(rep.dim_v)
    return null_space((row for v, lam in zip(space.basis, weight.values)
                       for row in (rep.action(v) - identity.scaled(lam)).ints), rep.dim_v)


def _solvable_subalgebra_check(algebra: LieAlgebra, space: Subspace) -> None:
    if space.ambient_dim != algebra.dim:
        raise ValueError("subspace must live in the algebra")
    series = algebra.derived_series(space)
    # A closed space's series descends; an open one's leaves it at the first step.
    if not all(term.contains_subspace(nxt) for term, nxt in zip(series, series[1:])):
        raise ValueError("subspace is not closed under the bracket")
    if not series[-1].is_zero():
        raise ValueError("weight search requires a solvable subalgebra")


def rational_weights(rep: Representation, space: Subspace) -> list[Weight]:
    """All weights with rational coordinates whose weight space is nonzero.

    Candidates come from the rational eigenvalues of each basis action; a tuple
    is pruned as soon as its prefix's common eigenspace, the null space of the
    stacked rows of each action minus its value, is zero.  Weights
    living only over extension fields are not found — the search is sound
    but deliberately not complete beyond the rationals.
    """
    _solvable_subalgebra_check(rep.algebra, space)
    if rep.dim_v == 0:
        return []
    if space.is_zero():
        return [Weight(space, ())]

    actions = [rep.action(v) for v in space.basis]
    candidates = [rational_eigenvalues(m) for m in actions]
    identity = Matrix.identity(rep.dim_v)
    found: list[Weight] = []

    def descend(level: int, values: tuple[Fraction, ...], rows: tuple) -> None:
        if level == len(actions):
            found.append(Weight(space, values))
            return
        for lam in candidates[level]:
            stacked = rows + (actions[level] - identity.scaled(lam)).ints
            if not null_space(stacked, rep.dim_v).is_zero():
                descend(level + 1, values + (lam,), stacked)

    descend(0, (), ())
    found.sort(key=lambda w: w.values)
    return found
