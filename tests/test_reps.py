"""Representations: constructors, validation, weights."""

from __future__ import annotations

from fractions import Fraction

import pytest

import lienil.reps as reps
from lienil.catalog import builtin, sl2_irrep
from lienil.linalg import Matrix, Subspace, null_space
from lienil.reps import (
    Representation,
    Weight,
    acts_nilpotently,
    adjoint_rep,
    one_dim_rep,
    pullback,
    rational_weights,
    trivial_rep,
    validate_rep,
    weight_space,
)
from lienil.semisimple import analyze

from support import (
    FractionMatrix,
    corpus_members,
    criterion_2_cases,
    fraction_action,
    fraction_dual,
    fraction_is_nilpotent,
    fraction_matrices,
    fraction_rep_violations,
    fraction_sum,
    fraction_tensor,
    heisenberg_algebra,
    outcome,
    seeded_elements,
)

F = Fraction


def sl2():
    return builtin("sl2").algebra


# --- validation ------------------------------------------------------------------

def test_adjoint_rep_validates():
    for name in ("sl2", "sl3", "heisenberg", "gl2", "upper_triangular(3)"):
        assert validate_rep(adjoint_rep(builtin(name).algebra)) == []


def test_trivial_rep_validates():
    assert validate_rep(trivial_rep(sl2(), 2)) == []


def test_validate_catches_swapped_generators():
    good = sl2_irrep(1)
    swapped = Representation(
        algebra=good.algebra,
        dim_v=good.dim_v,
        matrices=(good.matrices[2], good.matrices[1], good.matrices[0]),
        label="swapped",
    )
    assert validate_rep(swapped) != []


def test_rep_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        Representation(sl2(), 2, (Matrix.zero(2, 2), Matrix.zero(2, 2)), "short")
    with pytest.raises(ValueError):
        Representation(
            sl2(), 2,
            (Matrix.zero(2, 2), Matrix.zero(2, 3), Matrix.zero(2, 2)),
            "ragged",
        )


def test_action_is_linear():
    rep = sl2_irrep(2)
    a, b = (1, 2, 3), (F(1, 2), 0, -1)
    summed = tuple(x + y for x, y in zip(a, b))
    assert rep.action(summed) == rep.action(a) + rep.action(b)


def test_action_is_the_fraction_sum_of_the_basis_matrices():
    """Sum c_i rho(b_i) entry by entry in Fractions, on every seed of the cross-check
    corpora and a 0-dimensional representation, at seeded, zero and basis elements."""
    for _, g, _ in criterion_2_cases():
        seeds = [m.seed for m in corpus_members(g, 2, 128) if m.kind == "seed"]
        elements = [(F(0),) * g.dim] + [g.basis_element(i) for i in range(g.dim)]
        elements += seeded_elements(g.dim, 6, seed=89)
        for rep in seeds + [trivial_rep(g, 0)]:
            for a in elements:
                expected = Matrix.from_rows([
                    [sum((c * m.entries[r][k] for c, m in zip(a, rep.matrices)), F(0))
                     for k in range(rep.dim_v)] for r in range(rep.dim_v)])
                assert rep.action(a) == expected


# --- constructors ----------------------------------------------------------------

def test_pullback_along_center_quotient():
    g = builtin("heisenberg").algebra
    q = g.quotient(g.center())
    rep = pullback(one_dim_rep(q.target, (1, 0)), q)
    assert rep.algebra is g
    assert rep.dim_v == 1
    assert validate_rep(rep) == []
    assert rep.action((1, 0, 0)) == Matrix.from_rows([[1]])
    assert rep.action((0, 0, 1)).is_zero()


def test_pullback_kills_the_radical():
    g = builtin("gl2").algebra
    q = analyze(g).quotient
    rep = pullback(adjoint_rep(q.target), q)
    assert validate_rep(rep) == []
    assert rep.action((1, 0, 0, 1)).is_zero()


# The corpus constructions, on the Fraction reference that materializes corpus members.

def test_direct_sum_is_block_diagonal():
    r1, r2 = fraction_matrices(sl2_irrep(1)), fraction_matrices(sl2_irrep(2))
    both = fraction_sum(r1, r2)
    assert {(m.rows, m.cols) for m in both} == {(5, 5)}
    assert fraction_rep_violations(sl2(), both) == []
    for m, a, b in zip(both, r1, r2):
        assert m.entries == (tuple((*row, 0, 0, 0) for row in a.entries)
                             + tuple((0, 0, *row) for row in b.entries))
    top = fraction_action(both, (0, 1, 0))
    assert [top.entries[i][i] for i in range(5)] == [1, -1, 2, 0, -2]


def test_tensor_eigenvalues_add():
    r = fraction_matrices(sl2_irrep(1))
    prod = fraction_tensor(r, r)
    assert {(m.rows, m.cols) for m in prod} == {(4, 4)}
    assert fraction_rep_violations(sl2(), prod) == []
    h_action = fraction_action(prod, (0, 1, 0))  # h acts on V1 by diag(1, -1)
    assert h_action == FractionMatrix.from_rows([[2, 0, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0],
                                                 [0, 0, 0, -2]])
    # A character's value adds to every eigenvalue: on borel2, x -> 3 h_coefficient.
    g = builtin("borel2").algebra
    ad, character = fraction_matrices(adjoint_rep(g)), fraction_matrices(one_dim_rep(g, (3, 0)))
    shifted = fraction_tensor(ad, character)
    assert fraction_rep_violations(g, shifted) == []
    for a in seeded_elements(2, 4, seed=41):
        assert fraction_action(shifted, a) == fraction_action(ad, a) + (
            FractionMatrix.identity(2).scaled(3 * a[0]))


def test_dual_negates_transpose():
    r = fraction_matrices(sl2_irrep(2))
    co = fraction_dual(r)
    assert fraction_rep_violations(sl2(), co) == []
    for a in seeded_elements(3, 4, seed=43):
        assert fraction_action(co, a) == -fraction_action(r, a).transpose()


def test_dual_is_an_involution_up_to_matrices():
    r = fraction_matrices(sl2_irrep(1))
    assert fraction_dual(fraction_dual(r)) == r


def test_one_dim_rep_requires_vanishing_on_brackets():
    g = builtin("nonabelian2").algebra
    rep = one_dim_rep(g, (1, 0))
    assert validate_rep(rep) == []
    assert rep.action((1, 0)) == Matrix.from_rows([[1]])
    with pytest.raises(ValueError):
        one_dim_rep(g, (0, 1))  # does not kill [g, g] = span(b)


def test_one_dim_rep_matrices_and_label_are_the_values():
    """Each 1x1 matrix is the functional's value, in lowest terms, and the label prints
    the values; a fractional functional is tested against [g, g] exactly."""
    g = builtin("upper_triangular(3)").algebra
    structure = analyze(g)
    weights = (F(1, 2), F(-2, 3), 3)
    xi = tuple(sum((c * x for c, x in zip(weights, column)), F(0))
               for column in zip(*structure.functionals))
    rep = one_dim_rep(g, xi)
    assert rep.matrices == tuple(Matrix.from_rows([[c]]) for c in xi)
    assert rep.label == f"character({','.join(map(str, xi))})"
    assert validate_rep(rep) == []
    outside = tuple(c + F(x, 3) for c, x in zip(xi, g.derived_subalgebra().rows[0]))
    with pytest.raises(ValueError, match="^functional does not vanish on the derived subalgebra$"):
        one_dim_rep(g, outside)


def test_a_bool_value_is_read_as_its_integer():
    """True is the value 1: in the label and in the representation."""
    g = builtin("heisenberg").algebra
    rep = one_dim_rep(g, [True, 0, 0])
    assert rep.label == "character(1,0,0)"
    assert rep == one_dim_rep(g, [1, 0, 0])


def test_a_one_hot_character_makes_two_matrices(monkeypatch):
    """Every zero value of a character shares one zero matrix."""
    g = heisenberg_algebra(20)  # dim 41: [x_i, y_i] = z
    made = []
    init = Matrix.__init__
    monkeypatch.setattr(Matrix, "__init__",
                        lambda self, *args: made.append(args) or init(self, *args))
    rep = one_dim_rep(g, [int(i == 3) for i in range(g.dim)])
    assert len(made) <= 2
    assert rep.matrices == tuple(Matrix.from_rows([[int(i == 3)]]) for i in range(g.dim))


def test_one_dim_rep_on_sl2_must_be_zero():
    with pytest.raises(ValueError):
        one_dim_rep(sl2(), (0, 1, 0))
    rep = one_dim_rep(sl2(), (0, 0, 0))
    assert rep.action((1, 1, 1)).is_zero()


def test_constructed_reps_stay_valid_under_composition():
    g = builtin("gl2").algebra
    r = fraction_matrices(adjoint_rep(g))
    layered = fraction_tensor(fraction_dual(r),
                              fraction_sum(r, fraction_matrices(trivial_rep(g, 1))))
    assert {(m.rows, m.cols) for m in layered} == {(20, 20)}
    assert fraction_rep_violations(g, layered) == []


# --- nilpotent action -------------------------------------------------------------

def test_acts_nilpotently_examples():
    r = sl2_irrep(3)
    assert acts_nilpotently(r, (1, 0, 0))
    assert acts_nilpotently(r, (0, 0, 1))
    assert not acts_nilpotently(r, (0, 1, 0))
    assert not acts_nilpotently(r, (1, 0, 1))


def test_trivial_rep_always_acts_nilpotently():
    r = trivial_rep(sl2(), 3)
    for a in seeded_elements(3, 5, seed=47):
        assert acts_nilpotently(r, a)


def test_nilpotent_actions_closed_under_sum_and_tensor():
    a = (1, 0, 0)
    for m, k in ((1, 2), (2, 3)):
        r1, r2 = fraction_matrices(sl2_irrep(m)), fraction_matrices(sl2_irrep(k))
        for built in (fraction_sum(r1, r2), fraction_tensor(r1, r2), fraction_dual(r1)):
            assert fraction_is_nilpotent(fraction_action(built, a).entries)
        assert not fraction_is_nilpotent(fraction_action(fraction_sum(r1, r2), (0, 1, 0)).entries)


# --- weights -----------------------------------------------------------------------

def test_weight_space_on_adjoint_sl2():
    g = sl2()
    cartan = Subspace.from_vectors(3, [[0, 1, 0]])
    rep = adjoint_rep(g)
    assert weight_space(rep, cartan, Weight(cartan, (F(2),))) == Subspace.from_vectors(
        3, [[1, 0, 0]]
    )
    assert weight_space(rep, cartan, Weight(cartan, (F(0),))) == cartan
    assert weight_space(rep, cartan, Weight(cartan, (F(1),))).is_zero()


def test_weight_space_for_zero_weight_on_heisenberg():
    g = builtin("heisenberg").algebra
    center = g.center()
    rep = adjoint_rep(g)
    assert weight_space(rep, center, Weight(center, (F(0),))).is_full()


def test_weight_space_rejects_mismatched_subalgebra():
    g = sl2()
    cartan = Subspace.from_vectors(3, [[0, 1, 0]])
    other = Subspace.from_vectors(3, [[1, 0, 0]])
    with pytest.raises(ValueError):
        weight_space(adjoint_rep(g), cartan, Weight(other, (F(1),)))


def test_rational_weights_on_nonabelian2_adjoint():
    g = builtin("nonabelian2").algebra
    found = rational_weights(adjoint_rep(g), g.full_space())
    assert len(found) == 1
    assert found[0].values == (F(1), F(0))
    assert weight_space(adjoint_rep(g), g.full_space(), found[0]) == (
        Subspace.from_vectors(2, [[0, 1]])
    )


def test_a_common_eigenspace_is_one_elimination(monkeypatch):
    """weight_space and rational_weights cut each common eigenspace with one null space of
    the stacked shifted rows; neither intersects subspaces."""
    g = builtin("upper_triangular(3)").algebra  # basis E11, E12, E13, E22, E23, E33
    adjoint, full = adjoint_rep(g), g.full_space()
    calls = []
    monkeypatch.setattr(Subspace, "intersect", lambda *args: pytest.fail("intersect called"))
    monkeypatch.setattr(reps, "null_space", lambda *args: calls.append(args) or null_space(*args))
    found = rational_weights(adjoint, full)
    assert [w.values for w in found] == [(0,) * 6, (1, 0, 0, 0, 0, -1)]
    calls.clear()
    assert [weight_space(adjoint, full, w).rows for w in found] == [  # the identity, and E13
        ((1, 0, 0, 1, 0, 1),), ((0, 0, 1, 0, 0, 0),)]
    assert len(calls) == 2  # one per weight space; 6 at the parent, plus those of intersect


def test_rational_weights_on_heisenberg_center():
    g = builtin("heisenberg").algebra
    center = g.center()
    found = rational_weights(adjoint_rep(g), center)
    assert [w.values for w in found] == [(F(0),)]


def test_rational_weights_requires_solvable_action():
    g = sl2()
    with pytest.raises(ValueError):
        rational_weights(adjoint_rep(g), g.full_space())


def test_rational_weights_on_diagonal_subalgebra():
    g = builtin("upper_triangular(2)").algebra
    # basis: E11, E12, E22; the diagonal part acts on the adjoint rep
    diag = Subspace.from_vectors(3, [[1, 0, 0], [0, 0, 1]])
    found = rational_weights(adjoint_rep(g), diag)
    assert len(found) == 2
    values = sorted(w.values for w in found)
    assert values == [(F(0), F(0)), (F(1), F(-1))]


def test_weight_spaces_are_action_invariant_in_radical():
    # For a weight of the radical, the whole algebra maps the weight space
    # into itself whenever the weight kills brackets with the radical.
    g = builtin("gl2").algebra
    rad = Subspace.from_vectors(4, [[1, 0, 0, 1]])
    rep = adjoint_rep(g)
    for w in rational_weights(rep, rad):
        space = weight_space(rep, rad, w)
        for i in range(g.dim):
            action = rep.action(g.basis_element(i))
            for v in space.basis:
                assert space.contains(action.apply(v))


def _heisenberg():
    return builtin("heisenberg").algebra


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: Weight(Subspace.full(2), (1,)),
                 (ValueError, "one value per subalgebra basis vector is required"),
                 id="weight-values"),
    pytest.param(lambda: pullback(adjoint_rep(sl2()),
                                  _heisenberg().quotient(_heisenberg().center())),
                 (ValueError, "representation is not of the quotient target"),
                 id="pullback-target"),
    pytest.param(lambda: one_dim_rep(_heisenberg(), (1, 0)),
                 (ValueError, "functional has 2 coordinates, expected 3"), id="character-length"),
    pytest.param(lambda: weight_space(adjoint_rep(_heisenberg()), Subspace.zero(2),
                                      Weight(Subspace.zero(2), ())),
                 (ValueError, "subalgebra must live in the representation's algebra"),
                 id="weight-space-ambient"),
    pytest.param(lambda: rational_weights(adjoint_rep(_heisenberg()), Subspace.zero(2)),
                 (ValueError, "subspace must live in the algebra"), id="weights-ambient"),
    pytest.param(lambda: rational_weights(adjoint_rep(sl2()),
                                          Subspace.from_vectors(3, [(1, 0, 0), (0, 0, 1)])),
                 (ValueError, "subspace is not closed under the bracket"), id="weights-open"),
    pytest.param(lambda: rational_weights(trivial_rep(_heisenberg(), 0), Subspace.zero(3)), [],
                 id="weights-of-the-zero-module"),
    pytest.param(lambda: rational_weights(adjoint_rep(_heisenberg()), Subspace.zero(3)),
                 [Weight(Subspace.zero(3), ())], id="weights-on-the-zero-subalgebra"),
])
def test_every_guard_answers_as_documented(call, expected):
    assert outcome(call) == expected
