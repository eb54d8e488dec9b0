"""Structure-constant algebras: bracket, series, ideals, quotients."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lienil.catalog import builtin, semidirect, sl2_irrep, standard_entries
from lienil.liealg import LieAlgebra
from lienil.cli import parse_algebra, render_algebra
from lienil.linalg import Matrix, Subspace, invert, kernel_image
from lienil.oracle import nilpotent_in_all_reps
from lienil.semisimple import analyze, killing_orth, radical

from support import (
    fraction_bracket,
    fraction_change_of_basis,
    fraction_is_derivation,
    fraction_jacobi_violations,
    fraction_killing_gram,
    fraction_null_space,
    fraction_rref,
    heisenberg_algebra,
    outcome,
    partly_central,
    seeded_elements,
    with_rational_basis_changes,
)

F = Fraction


def sl2():
    return builtin("sl2").algebra


def heisenberg():
    return builtin("heisenberg").algebra


# --- construction and validation ----------------------------------------------

def test_table_keys_must_be_ordered():
    with pytest.raises(ValueError):
        LieAlgebra(2, ("a", "b"), {(1, 0): {0: 1}})


def test_diagonal_table_key_rejected():
    with pytest.raises(ValueError):
        LieAlgebra(2, ("a", "b"), {(1, 1): {0: 1}})


def test_duplicate_basis_names_rejected():
    with pytest.raises(ValueError):
        LieAlgebra(2, ("a", "a"), {})


def test_validate_abelian_passes():
    assert LieAlgebra(3, ("p", "q", "r"), {}).jacobi_violations() == []


def test_validate_sl2_passes():
    assert sl2().jacobi_violations() == []


def test_validate_reports_broken_triple():
    broken = LieAlgebra(3, ("x", "y", "z"), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    violations = broken.jacobi_violations()
    assert len(violations) == 1
    assert "x, y, z" in violations[0]
    with pytest.raises(ValueError):
        broken.validate()


def _broken_table(dim: int, seed: int) -> LieAlgebra:
    """Seeded rational constants on about half the pairs: Jacobi fails on most triples."""
    rng = random.Random(seed)
    table = {(i, j): {k: F(rng.randint(-9, 9), rng.choice((1, 2, 3, 7, 10**6 + 3)))
                      for k in range(dim) if rng.random() < 0.5}
             for i in range(dim) for j in range(i + 1, dim) if rng.random() < 0.6}
    return LieAlgebra(dim, tuple(f"x{i}" for i in range(dim)), table)


def test_sparse_jacobi_matches_dense_expansion():
    """Also on tables with central basis elements, whose brackets the check does not visit:
    a generated Heisenberg algebra, and seeded partly-central moves of valid and broken
    tables, the central elements placed among the others."""
    algebras = [builtin(name).algebra for name in (
        "sl3", "upper_triangular(4)", "strictly_upper(5)")] + [heisenberg_algebra(4)]
    algebras += [partly_central(builtin(name).algebra, 2, seed) for seed, name in enumerate(
        ("gl2", "borel2", "upper_triangular(3)", "strictly_upper(4)"))]
    broken = [_broken_table(dim, seed) for dim, seed in ((3, 1), (4, 2), (5, 3), (6, 4))]
    columns = seeded_elements(6, 6, seed=5)
    broken.append(broken[-1].change_of_basis(Matrix.from_rows(list(zip(*columns)))))
    broken += [partly_central(_broken_table(dim, seed), 2, seed) for dim, seed in ((4, 6), (5, 7))]
    for g in algebras + broken:
        assert g.jacobi_violations() == fraction_jacobi_violations(g)
    assert all(g.jacobi_violations() == [] for g in algebras)
    assert all(g.jacobi_violations() for g in broken[-2:])
    assert sum(len(g.jacobi_violations()) for g in broken) >= 20


def test_jacobi_check_visits_only_elements_that_meet_the_table():
    """For each table pair the check reads the constants of the values' basis elements and
    visits only the x they bracket with: in a Heisenberg algebra z is central, so it visits
    no x, and no constants but z's are read."""
    n = 20
    g = heisenberg_algebra(n)
    reads = []

    class Reads(tuple):
        def __getitem__(self, index):
            reads.append(index)
            return tuple.__getitem__(self, index)

    object.__setattr__(g, "_constants", Reads(g._constants))
    assert g.jacobi_violations() == []
    assert reads == [2 * n] * n  # one read of z's constants per pair [x_i, y_i] = z


# --- bracket and adjoint -------------------------------------------------------

def test_bracket_is_alternating():
    x = (F(1), F(2), F(-1, 2))
    assert sl2().bracket(x, x) == (0, 0, 0)


def test_sl2_bracket_table_values():
    g = sl2()
    e, h, f = (g.basis_element(i) for i in range(3))
    assert g.bracket(e, f) == (0, 1, 0)
    assert g.bracket(h, e) == (2, 0, 0)
    assert g.bracket(h, f) == (0, 0, -2)


def test_ad_of_zero():
    assert sl2().ad((0, 0, 0)).is_zero()


def test_ad_matrices_on_sl2():
    g = sl2()
    assert g.ad((0, 1, 0)) == Matrix.from_rows([[2, 0, 0], [0, 0, 0], [0, 0, -2]])
    assert g.ad((1, 0, 0)) == Matrix.from_rows([[0, -2, 0], [0, 0, 1], [0, 0, 0]])


@given(st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6),
       st.integers(-6, 6), st.integers(-6, 6), st.integers(-6, 6))
def test_bracket_antisymmetry(a, b, c, d, e, f):
    g = sl2()
    x, y = (a, b, c), (d, e, f)
    assert g.bracket(x, y) == tuple(-v for v in g.bracket(y, x))


def test_ad_is_bracket_homomorphism():
    for entry in (builtin("sl2"), builtin("heisenberg"), builtin("gl2")):
        g = entry.algebra
        for i in range(g.dim):
            for j in range(i + 1, g.dim):
                lhs = g.ad(g.bracket(g.basis_element(i), g.basis_element(j)))
                ai, aj = g.ad(g.basis_element(i)), g.ad(g.basis_element(j))
                assert lhs == ai @ aj - aj @ ai


# --- subspace machinery ---------------------------------------------------------

def test_product_with_zero_space():
    g = sl2()
    assert g.product_space(g.full_space(), Subspace.zero(3)).is_zero()


def test_derived_subalgebra_of_sl2_is_everything():
    assert sl2().derived_subalgebra().is_full()


def test_derived_subalgebra_of_heisenberg_is_center():
    assert heisenberg().derived_subalgebra() == Subspace.from_vectors(3, [[0, 0, 1]])


def test_derived_series_abelian():
    g = builtin("abelian(2)").algebra
    series = g.derived_series()
    assert [s.dim for s in series] == [2, 0]


def test_derived_series_sl2_stabilizes_nonzero():
    series = sl2().derived_series()
    assert [s.dim for s in series] == [3, 3]
    assert not sl2().is_solvable()


def test_derived_series_heisenberg():
    assert [s.dim for s in heisenberg().derived_series()] == [3, 1, 0]
    assert heisenberg().is_solvable()


def test_lower_central_series_heisenberg():
    assert [s.dim for s in heisenberg().lower_central_series()] == [3, 1, 0]
    assert heisenberg().lower_central_series()[-1].is_zero()


def test_lower_central_series_nonabelian2():
    g = builtin("nonabelian2").algebra
    series = g.lower_central_series()
    assert [s.dim for s in series] == [2, 1, 1]
    assert g.is_solvable() and not g.lower_central_series()[-1].is_zero()


def test_series_terms_are_decreasing_ideals():
    for name in ("sl2", "heisenberg", "gl2", "upper_triangular(3)"):
        g = builtin(name).algebra
        for series in (g.derived_series(), g.lower_central_series()):
            for earlier, later in zip(series, series[1:]):
                assert earlier.contains_subspace(later)
            for term in series:
                assert g.is_ideal(term)


def test_centralizer_of_zero_is_everything():
    assert sl2().centralizer((0, 0, 0)).is_full()


def test_centralizer_on_sl2():
    g = sl2()
    assert g.centralizer((0, 1, 0)) == Subspace.from_vectors(3, [[0, 1, 0]])
    assert g.centralizer((1, 0, 0)) == Subspace.from_vectors(3, [[1, 0, 0]])


def test_center_of_heisenberg():
    assert heisenberg().center() == Subspace.from_vectors(3, [[0, 0, 1]])


def test_is_ideal_trivial_cases():
    g = sl2()
    assert g.is_ideal(Subspace.zero(3))
    assert g.is_ideal(g.full_space())


def test_heisenberg_center_is_ideal():
    assert heisenberg().is_ideal(Subspace.from_vectors(3, [[0, 0, 1]]))


def test_sl2_line_is_not_ideal():
    assert not sl2().is_ideal(Subspace.from_vectors(3, [[1, 0, 0]]))


# --- quotients -------------------------------------------------------------------

def test_quotient_by_zero_is_isomorphic_copy():
    g = sl2()
    q = g.quotient(Subspace.zero(3))
    assert q.target.dim == 3
    assert q.target.table == g.table
    assert q.projection == Matrix.identity(3)


def test_quotient_heisenberg_by_center_is_abelian():
    g = heisenberg()
    q = g.quotient(Subspace.from_vectors(3, [[0, 0, 1]]))
    assert q.target.dim == 2
    assert q.target.table == {}


def test_quotient_gl2_by_scalars():
    g = builtin("gl2").algebra
    q = g.quotient(Subspace.from_vectors(4, [[1, 0, 0, 1]]))
    assert q.target.dim == 3
    assert q.target.table == {
        (0, 1): {2: F(-2)},
        (0, 2): {0: F(1)},
        (1, 2): {1: F(-1)},
    }
    q.target.validate()


def test_quotient_requires_an_ideal():
    with pytest.raises(ValueError):
        sl2().quotient(Subspace.from_vectors(3, [[1, 0, 0]]))


def test_quotient_projection_is_bracket_compatible():
    for name in ("heisenberg", "gl2", "upper_triangular(3)"):
        g = builtin(name).algebra
        ideal = builtin(name).known_derived
        q = g.quotient(ideal)
        _, image = kernel_image(q.projection)
        assert image.dim == q.target.dim
        assert q.target.dim == g.dim - ideal.dim
        for i in range(g.dim):
            for j in range(g.dim):
                lhs = q.project(g.bracket(g.basis_element(i), g.basis_element(j)))
                rhs = q.target.bracket(q.project(g.basis_element(i)),
                                       q.project(g.basis_element(j)))
                assert lhs == rhs


# --- integer subspaces against the Fraction references ----------------------------

def _canonical(space: Subspace) -> bool:
    """Primitive integer rows with positive pivots, and ``basis`` those rows over them."""
    return all(
        all(type(x) is int for x in row) and math.gcd(*row) == 1 and row[p] > 0
        and basis == tuple(F(x, row[p]) for x in row) and basis[p] == 1
        for row, p, basis in zip(space.rows, space.pivots, space.basis))


def _reference_span(vectors, dim):
    return fraction_rref(vectors, dim)[0]


@pytest.mark.parametrize("entry", standard_entries() + [
    semidirect(builtin("sl2").algebra, sl2_irrep(1))], ids=lambda entry: entry.name)
def test_integer_subspaces_match_fraction_reference(entry):
    for n, g in enumerate(with_rational_basis_changes(entry.algebra)):
        rng = random.Random(89 + n)
        gram = fraction_killing_gram(g)
        spaces = [g.derived_subalgebra(), radical(g), g.full_space(), Subspace.zero(g.dim),
                  Subspace.from_vectors(g.dim, seeded_elements(g.dim, 2, seed=89 + n)),
                  Subspace.from_vectors(g.dim, seeded_elements(g.dim, g.dim - 1, seed=79 + n))]
        basis = [g.basis_element(i) for i in range(g.dim)]
        for u in spaces:
            assert _canonical(u)
            assert u.basis == _reference_span(u.basis, g.dim)
            factors = [F(rng.choice((-3, -1, 2, 5)), rng.choice((1, 7))) for _ in u.basis]
            moved = [[c * x for x in v] for c, v in zip(factors, u.basis)]
            rng.shuffle(moved)
            assert Subspace.from_vectors(g.dim, moved) == u
            assert hash(Subspace.from_vectors(g.dim, moved)) == hash(u)
            brackets = tuple(fraction_bracket(g, x, b) for x in basis for b in u.basis)
            assert g.is_ideal(u) == (len(_reference_span(u.basis + brackets, g.dim)) == u.dim)
            orth = killing_orth(g, u)
            assert _canonical(orth)
            assert orth.basis == _reference_span(
                fraction_null_space([gram.apply(b) for b in u.basis], g.dim), g.dim)
            for v in spaces:
                product = g.product_space(u, v)
                assert _canonical(product)
                assert product.basis == _reference_span(
                    [fraction_bracket(g, a, b) for a in u.basis for b in v.basis], g.dim)
                meet = u.intersect(v)
                assert _canonical(meet)
                # x in both iff sum c_i u_i - sum d_j v_j = 0; x is the first half.
                columns = list(u.basis) + [[-x for x in b] for b in v.basis]
                coefficients = fraction_null_space(list(zip(*columns)), len(columns))
                assert meet.basis == _reference_span(
                    [[sum(c * b[k] for c, b in zip(coeffs, u.basis)) for k in range(g.dim)]
                     for coeffs in coefficients], g.dim)


# --- derivations ------------------------------------------------------------------

def test_zero_matrix_is_derivation():
    assert sl2().is_derivation(Matrix.zero(3, 3))


def test_every_adjoint_is_derivation():
    for name in ("sl2", "heisenberg", "so3", "borel2"):
        g = builtin(name).algebra
        for el in seeded_elements(g.dim, 5, seed=11):
            assert g.is_derivation(g.ad(el))


def test_everything_is_derivation_on_abelian():
    g = builtin("abelian(2)").algebra
    assert g.is_derivation(Matrix.from_rows([[1, 2], [3, 4]]))


def test_non_derivation_detected():
    # On the 2-dim nonabelian algebra, swapping the two basis vectors is not
    # compatible with [a,b] = b.
    g = builtin("nonabelian2").algebra
    assert not g.is_derivation(Matrix.from_rows([[0, 1], [1, 0]]))


# --- change of basis ---------------------------------------------------------------

def test_change_of_basis_identity():
    g = sl2()
    moved = g.change_of_basis(Matrix.identity(3), names=g.basis_names)
    assert moved == g


def test_change_of_basis_permutation():
    g = sl2()
    moved = g.change_of_basis(Matrix.from_rows(list(zip(*[(0, 0, 1), (0, 1, 0), (1, 0, 0)]))),
                              names=("f", "h", "e"))
    assert moved.table == {
        (0, 1): {0: F(2)},
        (0, 2): {1: F(-1)},
        (1, 2): {2: F(2)},
    }
    moved.validate()


def test_change_of_basis_scaling():
    g = heisenberg()
    moved = g.change_of_basis(Matrix.from_rows(list(zip(*[(2, 0, 0), (0, 1, 0), (0, 0, 1)]))))
    assert moved.table == {(0, 1): {2: F(2)}}


def test_change_of_basis_rejects_singular():
    with pytest.raises(ValueError):
        sl2().change_of_basis(Matrix.from_rows(list(zip(*[(1, 0, 0), (2, 0, 0), (0, 0, 1)]))))


@pytest.mark.parametrize("basis", [
    Matrix.identity(2), Matrix.identity(4), Matrix.zero(3, 2), Matrix.zero(2, 3),
    Matrix.from_rows(list(zip(*[(1, 0, 0), (0, 1, 0)]))), Matrix.zero(0, 0)])
def test_change_of_basis_rejects_the_wrong_shape(basis):
    with pytest.raises(ValueError, match="for dimension 3"):
        sl2().change_of_basis(basis)


# --- one integer form for the structure constants ------------------------------------

def _fractions_in(value) -> bool:
    if isinstance(value, Fraction):
        return True
    if isinstance(value, dict):
        value = [*value.keys(), *value.values()]
    return isinstance(value, (tuple, list)) and any(map(_fractions_in, value))


def _fresh_algebras() -> list[LieAlgebra]:
    gl2 = builtin("gl2").algebra
    sl3 = builtin("sl3").algebra
    return [
        LieAlgebra(3, ("x", "y", "z"), {(0, 1): {2: F(3, 4)}, (0, 2): {2: F(-1, 6)}}),
        with_rational_basis_changes(gl2, 1)[1], with_rational_basis_changes(sl3, 1)[1],
        gl2.quotient(analyze(gl2).radical).target,
        parse_algebra(render_algebra(sl3)),
    ]


def test_fresh_algebra_holds_no_fraction_until_table_is_read():
    for g in _fresh_algebras():
        assert not _fractions_in(vars(g))
        assert g.table
        assert _fractions_in(vars(g))


def test_decision_and_validation_do_not_build_the_table():
    for g in _fresh_algebras():
        g.validate()
        g.derived_subalgebra()
        analyze(g).radical
        nilpotent_in_all_reps(g, seeded_elements(g.dim, 1, seed=g.dim)[0])
        assert "table" not in vars(g)


@pytest.mark.parametrize("entry", standard_entries(), ids=lambda entry: entry.name)
def test_change_of_basis_matches_fraction_reference(entry):
    g = entry.algebra
    names = [f"u{i}" for i in range(g.dim)]
    identity = [g.basis_element(i) for i in range(g.dim)]
    cases = [identity] + [seeded_elements(g.dim, g.dim, seed) for seed in (31, 32, 33)]
    for columns in cases:
        p = Matrix.from_rows(list(zip(*columns)))
        if invert(p) is None:
            continue
        moved = g.change_of_basis(p, names)
        reference = fraction_change_of_basis(g, columns, names)
        assert moved == reference
        assert hash(moved) == hash(reference)
        assert moved._table_key == reference._table_key
        assert moved.table == reference.table


@pytest.mark.parametrize("entry", standard_entries() + [
    semidirect(builtin("sl2").algebra, sl2_irrep(1))], ids=lambda entry: entry.name)
def test_quotient_target_is_canonical(entry):
    for g in with_rational_basis_changes(entry.algebra, count=2):
        target = g.quotient(radical(g)).target
        rebuilt = LieAlgebra(target.dim, target.basis_names, target.table)
        assert rebuilt == target
        assert hash(rebuilt) == hash(target)
        assert (rebuilt._scale, rebuilt._constants) == (target._scale, target._constants)


def test_integer_table_with_common_factor_equals_its_fractions():
    names = ("x", "y", "z")
    fractions = LieAlgebra(3, names, {(0, 1): {2: F(3, 2)}, (0, 2): {1: F(-1, 3)}})
    for products, scale in (({(0, 1): {2: 9}, (0, 2): {1: -2}}, 6),
                            ({(0, 1): {0: 0, 2: 18}, (0, 2): {1: -4}, (1, 2): {2: 0}}, 12),
                            ({(0, 1): {2: 9 * 10**20}, (0, 2): {1: -2 * 10**20}}, 6 * 10**20)):
        ints = LieAlgebra._from_ints(names, products, scale)
        assert ints == fractions
        assert hash(ints) == hash(fractions)
        assert (ints._scale, ints._constants) == (fractions._scale, fractions._constants)
        assert ints.table == fractions.table
    heisenberg_times_5 = LieAlgebra._from_ints(names, {(0, 1): {2: 5}}, 5)
    assert heisenberg_times_5._table_key == (1, (((0, 1), ((2, 1),)),))
    assert LieAlgebra._from_ints(names, {(0, 1): {2: 0}}, 7)._table_key == (1, ())


def test_integer_form_rejects_repeated_names():
    with pytest.raises(ValueError, match="distinct"):
        sl2().change_of_basis(Matrix.identity(3), ("a", "a", "b"))


def test_is_derivation_matches_pairwise_fraction_check():
    answers = []
    diagonals = {"heisenberg": [(1, 0, 1), (0, 2, 2), (3, -1, 2), (1, 1, 1)],
                 "borel2": [(0, 1), (1, 0)]}
    for entry in standard_entries():
        for n, g in enumerate(with_rational_basis_changes(entry.algebra, count=2)):
            candidates = [Matrix.zero(g.dim, g.dim), Matrix.identity(g.dim)]
            candidates += [g.ad(x) for x in seeded_elements(g.dim, 2, seed=g.dim + 7)]
            if n == 0:
                candidates += [Matrix.from_rows([[int(i == j) * d[j] for j in range(g.dim)]
                                                 for i in range(g.dim)])
                               for d in diagonals.get(entry.name, [])]
            rng = random.Random(g.dim + n)
            candidates += [Matrix.from_rows([[rng.randint(-2, 2) for _ in range(g.dim)]
                                             for _ in range(g.dim)]) for _ in range(2)]
            for d in candidates:
                answer = g.is_derivation(d)
                assert answer == fraction_is_derivation(g, d)
                answers.append(answer)
    assert answers.count(True) >= 50 and answers.count(False) >= 20
    with pytest.raises(ValueError, match="wrong shape"):
        sl2().is_derivation(Matrix.zero(3, 2))


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: LieAlgebra(-1, (), {}), (ValueError, "dimension must be nonnegative"),
                 id="negative-dim"),
    pytest.param(lambda: LieAlgebra(2, ("a",), {}), (ValueError, "1 basis names for dimension 2"),
                 id="names-count"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {(0, 2): {0: 1}}),
                 (ValueError, "structure table index (0, 2) out of range for dim 2"),
                 id="pair-index"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {("a", 1): {0: 1}}),
                 (ValueError, "structure table index ('a', 1) out of range for dim 2"),
                 id="text-pair-index"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {(0, 1.0): {0: 1}}),
                 (ValueError, "structure table index (0, 1.0) out of range for dim 2"),
                 id="float-pair-index"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {0: {0: 1}}),
                 (ValueError, "structure table index 0 out of range for dim 2"), id="unpaired-key"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {(0, 1, 2): {0: 1}}),
                 (ValueError, "structure table index (0, 1, 2) out of range for dim 2"),
                 id="triple-key"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {(0, 1): {2: 1}}),
                 (ValueError, "structure table target index 2 out of range"), id="target-index"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {(0, 1): {7: 0}}),
                 (ValueError, "structure table target index 7 out of range"),
                 id="zero-coefficient-target-index"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {(0, 1): {-1: 0}}),
                 (ValueError, "structure table target index -1 out of range"),
                 id="zero-coefficient-negative-target"),
    pytest.param(lambda: LieAlgebra(2, ("a", "b"), {(0, 1): {"x": 0}}),
                 (ValueError, "structure table target index 'x' out of range"),
                 id="zero-coefficient-text-target"),
    pytest.param(lambda: sl2().element((1, 0)),
                 (ValueError, "element has 2 coordinates, expected 3"), id="element-length"),
    pytest.param(lambda: sl2().basis_element(3), (IndexError, "basis index 3 out of range"),
                 id="basis-index"),
    pytest.param(lambda: sl2().index_of("q"), (KeyError, "no basis element named 'q'"),
                 id="basis-name"),
    pytest.param(lambda: sl2().product_space(Subspace.full(3), Subspace.full(2)),
                 (ValueError, "subspaces must live in the algebra"), id="product-space-ambient"),
    pytest.param(lambda: sl2().is_ideal(Subspace.full(2)),
                 (ValueError, "subspaces must live in the algebra"), id="ideal-ambient"),
    pytest.param(lambda: sl2().change_of_basis(Matrix.identity(3), ("a", "b")),
                 (ValueError, "2 basis names for dimension 3"), id="basis-change-names"),
    pytest.param(lambda: sl2().change_of_basis([(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
                 (TypeError, "new basis must be a Matrix"), id="basis-change-list"),
])
def test_every_guard_answers_as_documented(call, expected):
    assert outcome(call) == expected
