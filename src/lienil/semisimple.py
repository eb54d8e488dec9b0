"""Killing form, radical, and nilpotency tests for single elements.

``analyze`` gives each algebra one ``Structure``, which computes its Killing form,
radical, quotient map g -> g/rad(g) (``analyze(g).quotient``), canonical functionals and
that quotient's pulled-back adjoint lazily, each once, and keeps its corpora; [g, g] is
the algebra's ``derived_subalgebra``.  Its public readers are ``killing_matrix``,
``radical``, ``is_semisimple`` and ``is_nilpotent_element_image``.
Semisimplicity is Cartan's criterion: the Killing form is nondegenerate, ranked once
per algebra.  The image test gates on it, and reads K(x, x) from the same gram before
it eliminates.

The radical is the set of x whose Killing pairing with the whole derived
subalgebra vanishes; when [g, g] is g, it is the null space of the gram's rows.
The quotient map that needs it checks it four times, in this order: it must be
an ideal, it must be solvable (its derived series, computed inside the algebra,
must reach zero), the quotient by it must be semisimple, and it must be zero
exactly when the algebra is semisimple.  Only a proper radical builds the
quotient as a new algebra, on which all four checks compute.  A zero radical's
quotient is the algebra itself under the identity: it is a solvable ideal at
once, and the third check ranks the algebra's own gram, which the fourth reads.
A radical equal to the algebra gives the zero algebra under a 0 x n projection:
it is an ideal at once and semisimple at once, so the algebra's derived series
must reach zero and its gram must be degenerate unless the algebra is 0.  A
failure of any check means the arithmetic itself went wrong, which is reported
as ``ConsistencyError`` rather than ``ValueError``.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from typing import NamedTuple

from .liealg import LieAlgebra, QuotientMap
from .linalg import (
    Matrix,
    Subspace,
    Vector,
    _cleared,
    _echelon,
    frac,
    generalized_eigenspace,
    is_nilpotent,
    null_space,
)


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; results cannot be trusted."""


class KillingForm(NamedTuple):
    """The bilinear form trace(ad x . ad y) on a fixed algebra."""

    algebra: LieAlgebra
    gram: Matrix

    def is_nondegenerate(self) -> bool:
        return len(_echelon(self.gram.ints, self.gram.cols)[1]) == self.algebra.dim


def killing_form(algebra: LieAlgebra, x, y) -> Fraction:
    """trace(ad x . ad y), computed directly from the two ad matrices."""
    return (algebra.ad(x) @ algebra.ad(y)).trace()


def killing_matrix(algebra: LieAlgebra) -> KillingForm:
    return analyze(algebra).killing


def _killing_gram(algebra: LieAlgebra) -> Matrix:
    """K_ij = trace(ad e_i ad e_j) = sum over l, k of c(i,l)_k c(j,k)_l, where c(i,l)_k is
    the coefficient of e_k in [e_i, e_l]; summed on the algebra's integer constants s*c,
    over s**2, for i <= j only.  Each sum runs over ad(e_i)'s nonzeros, kept as positions
    l*n + k and values, against ad(e_j)'s transpose, kept as a dict from l*n + k to c(j,k)_l.
    """
    n = algebra.dim
    c = algebra._constants
    keys = [[l * n + k for l, expansion in c[i].items() for k in expansion] for i in range(n)]
    values = [[x for expansion in c[i].values() for x in expansion.values()] for i in range(n)]
    transposed = [{l * n + k: x for k, expansion in c[j].items() for l, x in expansion.items()}
                  for j in range(n)]
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = sum(map(operator.mul, values[i],
                                              map(transposed[j].get, keys[i], repeat(0))))
    return Matrix(n, n, tuple(map(tuple, gram)), algebra._scale ** 2)


def killing_orth(algebra: LieAlgebra, space: Subspace) -> Subspace:
    """Orthogonal complement of a subspace under the Killing form."""
    if space.ambient_dim != algebra.dim:
        raise ValueError("subspace must live in the algebra")
    gram = killing_matrix(algebra).gram.ints  # symmetric, so rows serve as columns
    rows = gram if space.is_full() else [[sum(map(operator.mul, column, v)) for column in gram]
                                         for v in space.rows]
    return null_space(rows, algebra.dim)


def radical(algebra: LieAlgebra) -> Subspace:
    """Maximal solvable ideal, via Killing-orthogonality to the derived subalgebra.

    Raises ConsistencyError if any of the four checks in the module docstring
    fails: a solvable ideal, a semisimple quotient, zero iff g is semisimple.
    """
    return analyze(algebra).radical


def is_semisimple(algebra: LieAlgebra) -> bool:
    """Radical zero, after radical()'s four checks; the last is Cartan's criterion."""
    return analyze(algebra).radical.is_zero()


def is_nilpotent_element_power(algebra: LieAlgebra, x) -> bool:
    """Is ad(x) nilpotent as a matrix?  Works in any algebra."""
    return is_nilpotent(algebra.ad(x))


def is_nilpotent_element_image(algebra: LieAlgebra, x) -> bool:
    """Membership test: in a semisimple algebra, ad(x) is nilpotent iff x ∈ Im ad(x).

    Raises ValueError when the algebra is not semisimple — the equivalence
    is specific to that case.  The gate is Cartan's criterion, the cached Killing
    rank, which g/rad(g) already has from g's quotient check.  Before any elimination,
    K(x, x) = tr(ad(x)^2) is read as x . (Gx) from the gram G the gate ranked: if it is
    not 0, ad(x) is not nilpotent and the answer is False.
    """
    structure = analyze(algebra)
    if not structure.semisimple:
        raise ValueError("image-membership nilpotency test requires a semisimple algebra")
    # Both tests are homogeneous in x, so they run on x cleared to integers.
    xs = _cleared(algebra._coordinates(x))[0]
    gram = structure.killing.gram.ints
    if sum(map(operator.mul, xs, [sum(map(operator.mul, row, xs)) for row in gram])):
        return False
    # ad(x) z = x is consistent iff no pivot of [ad(x) | x] falls in its last column, which
    # the forward elimination's pivots already tell; it runs on s * ad of the cleared x.
    rows = [[*row, y] for row, y in zip(algebra._int_ad(xs), xs)]
    return algebra.dim not in _echelon(rows, algebra.dim + 1)[1]


def shift_nilpotence_check(algebra: LieAlgebra, d: Matrix, lam, a) -> bool:
    """Nilpotence of ad(a) for a in a nonzero root space of a derivation.

    Preconditions checked strictly and reported distinctly: d must be a
    derivation of the algebra, lam must be nonzero, and a must lie in the
    generalized eigenspace of d for lam.  Under those hypotheses ad(a) is
    always nilpotent — the grading by d shifts every root space by lam —
    so a ``False`` return falsifies that claim rather than reporting a
    user error.
    """
    lam = frac(lam)
    if not algebra.is_derivation(d):
        raise ValueError("shift test requires a derivation of the algebra")
    if lam == 0:
        raise ValueError("shift test requires a nonzero eigenvalue")
    av = algebra.element(a)
    if not generalized_eigenspace(d, lam).contains(av):
        raise ValueError("element is outside the generalized eigenspace for the eigenvalue")
    return is_nilpotent(algebra.ad(av))


class Structure:
    """One algebra's structure, each part computed on first use and kept."""

    def __init__(self, algebra: LieAlgebra):
        self.algebra = algebra
        self.corpora: dict = {}  # (depth, max_dim) -> oracle._corpus tuple

    @cached_property
    def killing(self) -> KillingForm:
        return KillingForm(self.algebra, _killing_gram(self.algebra))

    @cached_property
    def quotient(self) -> QuotientMap:
        """g -> g/rad(g), the radical checked as radical() documents.  Only a proper
        radical builds a new algebra: g/0 is g itself under the identity map, and g/g is
        the zero algebra under the 0 x n projection."""
        algebra = self.algebra
        n = algebra.dim
        rad = killing_orth(algebra, algebra.derived_subalgebra())
        if rad.is_zero():
            identity = Matrix.identity(n)
            quotient = QuotientMap(algebra, algebra, rad, identity, identity)
        elif rad.is_full():
            quotient = QuotientMap(algebra, LieAlgebra(0, (), {}), rad,
                                   Matrix.zero(0, n), Matrix.zero(n, 0))
        else:
            try:
                quotient = algebra.quotient(rad)
            except ValueError:  # the quotient's own is_ideal check failed
                raise ConsistencyError("computed radical is not an ideal") from None
        if not algebra.derived_series(rad)[-1].is_zero():
            raise ConsistencyError("computed radical is not solvable")
        if quotient.target.dim and not analyze(quotient.target).semisimple:
            raise ConsistencyError("Killing form degenerate on the quotient by the radical")
        if rad.is_zero() != self.semisimple:
            raise ConsistencyError("radical computation disagrees with Killing-form nondegeneracy")
        return quotient

    @property
    def radical(self) -> Subspace:
        return self.quotient.ideal

    @cached_property
    def semisimple(self) -> bool:
        """Cartan's criterion; the radical's fourth check and the image gate read it."""
        return self.killing.is_nondegenerate()

    @cached_property
    def functionals(self) -> tuple[Vector, ...]:
        """One functional per free coordinate of [g, g]: 1 on it, 0 on the other
        free coordinates and on [g, g]; jointly they separate g from [g, g].  They are
        the rows of the projection along [g, g] onto the free coordinates.
        """
        return self.algebra.derived_subalgebra().projection().entries

    @cached_property
    def quotient_adjoint(self):
        """The adjoint of g/rad(g) pulled back to g, built once: a corpus seed and the
        witness of every negative element inside [g, g]."""
        from .reps import adjoint_rep, pullback  # on use: structure commands load no reps

        return pullback(adjoint_rep(self.quotient.target), self.quotient)


def analyze(algebra: LieAlgebra) -> Structure:
    """The algebra's Structure, made on first use and kept on the instance."""
    if "_structure" not in vars(algebra):
        object.__setattr__(algebra, "_structure", Structure(algebra))
    return vars(algebra)["_structure"]
