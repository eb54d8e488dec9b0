"""Exact-arithmetic toolkit for deciding whether a Lie algebra element acts
nilpotently in every finite-dimensional representation.

Everything runs over the rationals with fractions.Fraction — no floating
point, no tolerances.  The answer for an element a of an algebra g is the
conjunction of two exact membership tests: a must lie in the derived
subalgebra [g, g], and its image in the semisimple quotient g/rad(g) must
be a nilpotent element there.  Negative answers come with a concrete
witness representation; positive ones can be cross-validated against a
generated corpus of representations.

The public names load their submodule on first use (PEP 562), so importing
one part of the package, such as the command line, loads only what it needs.
"""

from importlib import import_module

# Each public name and the submodule that defines it; "catalog" is the submodule itself.
_SOURCES = {name: module for module, names in (
    ("liealg", ("LieAlgebra", "QuotientMap")),
    ("linalg", ("Matrix", "Subspace")),
    ("oracle", ("CrossCheckReport", "Verdict", "Witness", "cross_validate", "find_witness",
                "nilpotent_in_all_reps")),
    ("reps", ("Representation", "Weight", "acts_nilpotently", "adjoint_rep", "one_dim_rep",
              "pullback", "rational_weights", "trivial_rep", "validate_rep", "weight_space")),
    ("semisimple", ("ConsistencyError", "KillingForm", "is_nilpotent_element_image",
                    "is_nilpotent_element_power", "is_semisimple", "killing_form",
                    "killing_matrix", "killing_orth", "radical", "shift_nilpotence_check")),
    ("catalog", ("builtin", "catalog")),
) for name in names}

__all__ = sorted(_SOURCES)

__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule defining a public name on first use, and keep the value."""
    module = _SOURCES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = import_module(f".{module}", __name__)
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
