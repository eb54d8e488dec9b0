"""Exact-arithmetic toolkit for deciding whether a Lie algebra element acts
nilpotently in every finite-dimensional representation.

Everything runs over the rationals with fractions.Fraction — no floating
point, no tolerances.  The answer for an element a of an algebra g is the
conjunction of two exact membership tests: a must lie in the derived
subalgebra [g, g], and its image in the semisimple quotient g/rad(g) must
be a nilpotent element there.  Negative answers come with a concrete
witness representation; positive ones can be cross-validated against a
generated corpus of representations.
"""

from .liealg import LieAlgebra, QuotientMap
from .linalg import Matrix, Subspace
from .oracle import (
    CrossCheckReport,
    Verdict,
    Witness,
    cross_validate,
    find_witness,
    nilpotent_in_all_reps,
)
from .reps import (
    Representation,
    Weight,
    acts_nilpotently,
    adjoint_rep,
    direct_sum,
    dual,
    one_dim_rep,
    pullback,
    rational_weights,
    tensor,
    trivial_rep,
    validate_rep,
    weight_space,
)
from .semisimple import (
    ConsistencyError,
    KillingForm,
    is_nilpotent_element_image,
    is_nilpotent_element_power,
    is_semisimple,
    killing_form,
    killing_matrix,
    killing_orth,
    radical,
    semisimple_quotient,
    shift_nilpotence_check,
)
from . import catalog
from .catalog import builtin

__all__ = [
    "ConsistencyError",
    "CrossCheckReport",
    "KillingForm",
    "LieAlgebra",
    "Matrix",
    "QuotientMap",
    "Representation",
    "Subspace",
    "Verdict",
    "Weight",
    "Witness",
    "acts_nilpotently",
    "adjoint_rep",
    "builtin",
    "catalog",
    "cross_validate",
    "direct_sum",
    "dual",
    "find_witness",
    "is_nilpotent_element_image",
    "is_nilpotent_element_power",
    "is_semisimple",
    "killing_form",
    "killing_matrix",
    "killing_orth",
    "nilpotent_in_all_reps",
    "one_dim_rep",
    "pullback",
    "radical",
    "rational_weights",
    "semisimple_quotient",
    "shift_nilpotence_check",
    "tensor",
    "trivial_rep",
    "validate_rep",
    "weight_space",
]

__version__ = "0.1.0"
