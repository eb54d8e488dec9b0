"""Killing form, radical, and the nilpotency tests built on them."""

from __future__ import annotations

import functools
import random
from fractions import Fraction

import pytest

from lienil import semisimple
from lienil.catalog import builtin, semidirect, sl2_irrep, standard_entries
from lienil.liealg import LieAlgebra
from lienil.linalg import (
    Matrix, Subspace, _cleared, _fractions, invert, is_nilpotent, kernel_image)
from lienil.oracle import nilpotent_in_all_reps
from lienil.semisimple import (
    ConsistencyError,
    KillingForm,
    _killing_gram,
    analyze,
    is_nilpotent_element_image,
    is_nilpotent_element_power,
    is_semisimple,
    killing_form,
    killing_matrix,
    killing_orth,
    radical,
    shift_nilpotence_check,
)

from support import (
    SEMISIMPLE_NAMES,
    FractionMatrix,
    _restrict_to_subalgebra,
    fraction_ad,
    fraction_bracket,
    fraction_killing_gram,
    fraction_reduce,
    fraction_rref,
    fraction_solve,
    heisenberg_algebra,
    outcome,
    partly_central,
    seeded_elements,
    seeded_rational_bases,
    with_rational_basis_changes,
)

F = Fraction

E, H, FV = (1, 0, 0), (0, 1, 0), (0, 0, 1)


# --- Killing form values ---------------------------------------------------------

def test_killing_values_on_sl2():
    g = builtin("sl2").algebra
    assert killing_form(g, H, H) == 8
    assert killing_form(g, E, FV) == 4
    assert killing_form(g, E, E) == 0
    assert killing_form(g, H, E) == 0


def test_killing_values_on_gl2():
    g = builtin("gl2").algebra
    gram = killing_matrix(g).gram

    def value(x, y):  # x . (G y) from the gram's rows, which is trace(ad x ad y)
        k = sum(a * b for a, b in zip(x, gram.apply(y)))
        assert k == killing_form(g, x, y)
        return k

    e11 = (1, 0, 0, 0)
    e12 = (0, 1, 0, 0)
    e21 = (0, 0, 1, 0)
    e22 = (0, 0, 0, 1)
    assert value(e11, e11) == 2
    assert value(e11, e22) == -2
    assert value(e12, e21) == 4
    assert value(e11, e12) == 0
    # the identity matrix pairs to zero with everything
    ident = (1, 0, 0, 1)
    assert all(value(ident, v) == 0 for v in (e11, e12, e21, e22))


def test_killing_form_vanishes_on_nilpotent_algebras():
    for name in ("abelian(3)", "heisenberg", "strictly_upper(3)"):
        g = builtin(name).algebra
        assert killing_matrix(g).gram.is_zero()


def test_killing_gram_on_so3():
    g = builtin("so3").algebra
    assert killing_matrix(g).gram == Matrix.from_rows(
        [[-2, 0, 0], [0, -2, 0], [0, 0, -2]]
    )


def test_nondegeneracy_matches_semisimplicity():
    for name in ("sl2", "sl3", "so3"):
        assert killing_matrix(builtin(name).algebra).is_nondegenerate()
    for name in ("gl2", "heisenberg", "borel2", "abelian(2)"):
        assert not killing_matrix(builtin(name).algebra).is_nondegenerate()


def test_killing_gram_is_symmetric():
    for name in ("sl2", "sl3", "gl2", "so3", "upper_triangular(3)", "borel2"):
        gram = killing_matrix(builtin(name).algebra).gram
        assert gram.entries == tuple(zip(*gram.entries))


def test_killing_form_is_invariant():
    for name in ("sl2", "gl2", "upper_triangular(3)"):
        g = builtin(name).algebra
        elems = seeded_elements(g.dim, 6, seed=23)
        for x, y, z in zip(elems, elems[1:], elems[2:]):
            assert killing_form(g, g.bracket(x, y), z) == killing_form(
                g, x, g.bracket(y, z)
            )


def test_killing_form_brackets_skew():
    g = builtin("sl3").algebra
    elems = seeded_elements(g.dim, 6, seed=29)
    for a, x, y in zip(elems, elems[1:], elems[2:]):
        lhs = killing_form(g, g.bracket(a, x), y)
        rhs = killing_form(g, x, g.bracket(a, y))
        assert lhs + rhs == 0


def _exact(values, reference) -> bool:
    """Equal to the Fraction reference, entry for entry, and Fractions themselves."""
    if isinstance(values, Matrix):
        return values == reference and _exact(sum(values.entries, ()), sum(reference.entries, ()))
    return values == reference and all(type(x) is Fraction for x in values)


# The standard entries and a semidirect, then tables with basis elements outside the
# support of their values: a generated Heisenberg algebra and seeded partly-central moves.
_STRUCTURE_CASES = [(entry.name, entry.algebra) for entry in standard_entries() + [
    semidirect(builtin("sl2").algebra, sl2_irrep(1))]]
_STRUCTURE_CASES += [("heisenberg_algebra(3)", heisenberg_algebra(3))] + [
    (f"partly_central({name}, 2, {seed})", partly_central(builtin(name).algebra, 2, seed))
    for seed, name in enumerate(("gl2", "borel2", "sl2", "upper_triangular(3)",
                                 "strictly_upper(4)"))]


@pytest.mark.parametrize("algebra", [g for _, g in _STRUCTURE_CASES],
                         ids=[name for name, _ in _STRUCTURE_CASES])
def test_integer_structure_matches_fraction_reference(algebra):
    for n, g in enumerate(with_rational_basis_changes(algebra)):
        rng = random.Random(97 + n)
        large = [tuple(F(rng.randint(-10**9, 10**9), rng.randint(1, 10**9)) for _ in range(g.dim))
                 for _ in range(2)]
        elements = ([(F(0),) * g.dim] + [g.basis_element(i) for i in range(g.dim)]
                    + seeded_elements(g.dim, 3, seed=97 + n) + large)
        for x in elements:
            assert _exact(g.ad(x), fraction_ad(g, x)), x
            for y in elements:
                assert _exact(g.bracket(x, y), fraction_bracket(g, x, y)), (x, y)
        assert _exact(_killing_gram(g), fraction_killing_gram(g))
        spaces = [g.derived_subalgebra(), radical(g), g.full_space(), Subspace.zero(g.dim),
                  Subspace.from_vectors(g.dim, elements[-3:])]
        for space in spaces:
            for v in elements:
                remainder = _fractions(*space._eliminate(*_cleared(g.element(v))))
                assert _exact(remainder, fraction_reduce(space, v)), (space, v)
                assert space.contains(v) == (not any(fraction_reduce(space, v)))


@pytest.mark.parametrize("entry", standard_entries(), ids=lambda entry: entry.name)
def test_structure_read_from_table_matches_brackets(entry):
    for g in with_rational_basis_changes(entry.algebra):
        full = g.full_space()
        basis = [g.basis_element(i) for i in range(g.dim)]
        assert g.derived_subalgebra() == g.product_space(full, full)
        gram = killing_matrix(g).gram
        for i, ei in enumerate(basis):
            for j, ej in enumerate(basis):
                assert gram.entries[i][j] == killing_form(g, ei, ej)
        for x in basis + seeded_elements(g.dim, 2, seed=73):
            assert g.ad(x) == Matrix.from_rows(list(zip(*[g.bracket(x, ej) for ej in basis])))


@pytest.mark.parametrize("entry", standard_entries() + [
    semidirect(builtin("sl2").algebra, sl2_irrep(1))], ids=lambda entry: entry.name)
def test_in_place_series_matches_restricted_reference(entry):
    for g in with_rational_basis_changes(entry.algebra):
        rad = radical(g)
        assert ([s.dim for s in g.derived_series(rad)]
                == [s.dim for s in _restrict_to_subalgebra(g, rad).derived_series()])
        assert g.change_of_basis(Matrix.identity(g.dim), g.basis_names)._table_key == g._table_key
        centralizers = (g.centralizer(g.basis_element(i)) for i in range(g.dim))
        assert g.center() == functools.reduce(Subspace.intersect, centralizers, g.full_space())


# --- orthogonal complements ------------------------------------------------------

def test_orth_of_extremes():
    g = builtin("sl2").algebra
    assert killing_orth(g, Subspace.zero(3)).is_full()
    assert killing_orth(g, g.full_space()).is_zero()


def test_orth_of_cartan_line_in_sl2():
    g = builtin("sl2").algebra
    span_h = Subspace.from_vectors(3, [[0, 1, 0]])
    assert killing_orth(g, span_h) == Subspace.from_vectors(
        3, [[1, 0, 0], [0, 0, 1]]
    )


def test_orth_is_everything_when_form_vanishes():
    g = builtin("heisenberg").algebra
    assert killing_orth(g, g.full_space()).is_full()


def test_orth_of_centralizer_is_adjoint_image():
    for name in SEMISIMPLE_NAMES:
        g = builtin(name).algebra
        for a in seeded_elements(g.dim, 8, seed=31):
            _, image = kernel_image(g.ad(a))
            assert killing_orth(g, g.centralizer(a)) == image


# --- radical and the semisimple quotient -----------------------------------------

def test_radical_examples():
    assert radical(builtin("sl2").algebra).is_zero()
    assert radical(builtin("so3").algebra).is_zero()
    assert radical(builtin("heisenberg").algebra).is_full()
    assert radical(builtin("borel2").algebra).is_full()
    assert radical(builtin("gl2").algebra) == Subspace.from_vectors(
        4, [[1, 0, 0, 1]]
    )


def test_radical_is_known_ground_truth_everywhere():
    for name in (
        "abelian(1)", "abelian(2)", "nonabelian2", "borel2", "heisenberg",
        "sl2", "sl3", "gl2", "so3", "upper_triangular(2)",
        "upper_triangular(3)", "strictly_upper(3)", "strictly_upper(4)",
    ):
        entry = builtin(name)
        assert radical(entry.algebra) == entry.known_radical


def test_is_semisimple_examples():
    for name in SEMISIMPLE_NAMES:
        assert is_semisimple(builtin(name).algebra)
    for name in ("gl2", "heisenberg", "abelian(1)", "nonabelian2"):
        assert not is_semisimple(builtin(name).algebra)


def test_quotient_by_radical_is_semisimple():
    for name in ("gl2", "heisenberg", "sl2", "upper_triangular(3)"):
        g = builtin(name).algebra
        q = analyze(g).quotient
        assert q.target.dim == g.dim - radical(g).dim
        if q.target.dim:
            assert is_semisimple(q.target)
            assert radical(q.target).is_zero()


def test_semisimple_quotient_of_solvable_is_trivial():
    q = analyze(builtin("upper_triangular(2)").algebra).quotient
    assert q.target.dim == 0


def test_semisimple_quotient_of_gl2_matches_sl2():
    q = analyze(builtin("gl2").algebra).quotient
    assert q.target.dim == 3
    assert not q.target.is_solvable()


# --- elementwise nilpotency tests ------------------------------------------------

def test_power_criterion_on_sl2():
    g = builtin("sl2").algebra
    assert is_nilpotent_element_power(g, E)
    assert is_nilpotent_element_power(g, FV)
    assert not is_nilpotent_element_power(g, H)
    assert not is_nilpotent_element_power(g, (1, 0, 1))


def test_power_criterion_sees_only_the_adjoint():
    # The identity of gl2 is central, so its adjoint action is zero even
    # though the element itself is anything but nilpotent.
    g = builtin("gl2").algebra
    assert is_nilpotent_element_power(g, (1, 0, 0, 1))


def test_power_criterion_on_nilpotent_algebra():
    g = builtin("heisenberg").algebra
    for a in seeded_elements(3, 10, seed=37):
        assert is_nilpotent_element_power(g, a)


def test_image_criterion_on_sl2():
    g = builtin("sl2").algebra
    assert is_nilpotent_element_image(g, E)
    assert is_nilpotent_element_image(g, FV)
    assert not is_nilpotent_element_image(g, H)
    assert is_nilpotent_element_image(g, (0, 0, 0))


def test_image_criterion_requires_semisimple():
    with pytest.raises(ValueError):
        is_nilpotent_element_image(builtin("heisenberg").algebra, (1, 0, 0))


def test_image_and_power_agree_on_semisimple():
    for name in SEMISIMPLE_NAMES:
        g = builtin(name).algebra
        for a in seeded_elements(g.dim, 12, seed=41):
            assert is_nilpotent_element_image(g, a) == is_nilpotent_element_power(g, a)


_EXTENSION = semidirect(builtin("sl2").algebra, sl2_irrep(1))
_ENTRIES_AND_EXTENSION = standard_entries() + [_EXTENSION]


def _moved(seed: int):
    """Each standard entry and semidirect(sl2, V1) under two seeded basis changes, with
    the entry's basis elements and seeded elements carried to the new coordinates."""
    for entry in _ENTRIES_AND_EXTENSION:
        g = entry.algebra
        elements = [g.basis_element(i) for i in range(g.dim)] + seeded_elements(g.dim, 3, seed)
        for p in seeded_rational_bases(g.dim, 2, seed):
            p_inv = invert(p)
            yield entry.name, g.change_of_basis(p), [p_inv.apply(a) for a in elements]


def test_image_test_matches_solving_on_moved_entries():
    """The image test reads the forward elimination's pivots; it must agree with asking
    a Fraction Gauss-Jordan for a z with ad(y) z = y, on g/rad(g) of every moved entry."""
    seen = set()
    for name, g, elements in _moved(seed=89):
        q = analyze(g).quotient
        for a in elements:
            y = q.project(a)
            ad = FractionMatrix.from_rows(q.target.ad(y).entries, q.target.dim)
            expected = fraction_solve(ad, y) is not None
            assert is_nilpotent_element_image(q.target, y) == expected, (name, a)
            seen.add((name, expected))
    levi = {"sl2", "sl3", "gl2", _EXTENSION.name}  # so3 has no nonzero nilpotent over Q
    assert {name for name, expected in seen if not expected} == levi | {"so3"}
    assert levi <= {name for name, expected in seen if expected}


def test_killing_rank_matches_reduced_gram_on_moved_entries():
    """is_nondegenerate reads the forward elimination's rank; it must agree with the rank
    of the gram reduced by a Fraction Gauss-Jordan, on every moved entry and its g/rad(g)."""
    verdicts = []
    for _, g, _ in _moved(seed=89):
        for h in (g, analyze(g).quotient.target):
            form = killing_matrix(h)
            verdicts.append(form.is_nondegenerate())
            assert verdicts[-1] == (len(fraction_rref(form.gram.entries, h.dim)[1]) == h.dim)
    assert True in verdicts and False in verdicts


def test_a_nonzero_killing_square_decides_before_the_elimination(monkeypatch):
    """K(y, y) = tr(ad(y)^2) != 0 proves ad(y) is not nilpotent, so [ad(y) | y] is not
    eliminated for it: so3's Killing form is definite, so no nonzero element of it is;
    nilpotent elements of sl2 and sl3, where K(y, y) = 0, still reach the elimination."""
    widths = []  # columns of each elimination: dim + 1 for [ad(y) | y], dim for the gram
    echelon = semisimple._echelon
    monkeypatch.setattr(semisimple, "_echelon",
                        lambda rows, cols: widths.append(cols) or echelon(rows, cols))
    so3 = _fresh("so3")
    analyze(so3).semisimple
    for a in [so3.basis_element(i) for i in range(3)] + seeded_elements(3, 12, seed=7):
        assert any(a) and is_nilpotent_element_image(so3, a) is False
    assert is_nilpotent_element_image(so3, (F(0),) * 3) is True  # K(0, 0) = 0
    assert widths.count(4) == 1
    for name in ("sl2", "sl3"):
        g = _fresh(name)
        analyze(g).semisimple
        nilpotent = [a for a in [g.basis_element(i) for i in range(g.dim)]
                     if any(a) and is_nilpotent_element_power(g, a)]
        widths.clear()
        assert nilpotent and all(is_nilpotent_element_image(g, a) for a in nilpotent)
        assert widths == [g.dim + 1] * len(nilpotent), name


def test_product_space_makes_only_the_brackets_the_elimination_reads(monkeypatch):
    g = builtin("sl3").algebra
    calls = []
    bracket = LieAlgebra._int_bracket
    monkeypatch.setattr(LieAlgebra, "_int_bracket",
                        lambda self, x, y: calls.append(1) or bracket(self, x, y))
    assert g.product_space(g.full_space(), g.full_space()) == g.full_space()
    assert len(calls) < 64  # 8 x 8 pairs; the span is full after 31 of them


# --- the eigenvalue-shift argument ----------------------------------------------

def test_shift_check_on_sl2_root_vectors():
    g = builtin("sl2").algebra
    d = g.ad(H)
    assert shift_nilpotence_check(g, d, 2, E)
    assert shift_nilpotence_check(g, d, -2, FV)


def test_shift_check_on_graded_heisenberg():
    g = builtin("heisenberg").algebra
    d = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    assert g.is_derivation(d)
    assert shift_nilpotence_check(g, d, 1, (1, 0, 0))
    assert shift_nilpotence_check(g, d, 2, (0, 0, 1))


def test_shift_check_rejects_non_derivation():
    g = builtin("nonabelian2").algebra
    with pytest.raises(ValueError, match="derivation"):
        shift_nilpotence_check(g, Matrix.from_rows([[0, 1], [1, 0]]), 1, (0, 1))


def test_shift_check_rejects_zero_eigenvalue():
    g = builtin("sl2").algebra
    with pytest.raises(ValueError, match="zero"):
        shift_nilpotence_check(g, g.ad(H), 0, H)


def test_shift_check_rejects_vector_outside_eigenspace():
    g = builtin("sl2").algebra
    with pytest.raises(ValueError, match="eigenspace"):
        shift_nilpotence_check(g, g.ad(H), 2, FV)


def test_shift_check_conclusion_matches_direct_power():
    g = builtin("sl2").algebra
    d = g.ad(H)
    for lam, a in ((2, E), (-2, FV)):
        assert shift_nilpotence_check(g, d, lam, a) == is_nilpotent(g.ad(a))


# --- internal consistency --------------------------------------------------------

def test_radical_is_a_solvable_ideal():
    for name in ("sl2", "gl2", "heisenberg", "upper_triangular(3)", "borel2"):
        g = builtin(name).algebra
        r = radical(g)
        assert g.is_ideal(r)
        if not r.is_zero():
            assert _restrict_to_subalgebra(g, r).is_solvable()


def test_caching_returns_identical_objects():
    g = builtin("sl2").algebra
    assert killing_matrix(g) is killing_matrix(builtin("sl2").algebra)
    assert radical(g) is radical(builtin("sl2").algebra)


def _fresh(name):
    """A new instance of a catalog algebra, under basis names no other test uses."""
    g = builtin(name).algebra
    return g.change_of_basis(Matrix.identity(g.dim), [f"fresh{i}" for i in range(g.dim)])


E12_IN_GL2 = Subspace.from_vectors(4, [[0, 1, 0, 0]])


@pytest.mark.parametrize("reader", [is_semisimple, radical], ids=lambda f: f.__name__)
@pytest.mark.parametrize("name, owner, attribute, patched, message", [
    ("gl2", semisimple, "killing_orth", lambda algebra, space: E12_IN_GL2,
     "computed radical is not an ideal"),
    ("sl2", semisimple, "killing_orth", lambda algebra, space: Subspace.full(algebra.dim),
     "computed radical is not solvable"),
    ("gl2", semisimple, "killing_orth", lambda algebra, space: Subspace.zero(algebra.dim),
     "Killing form degenerate on the quotient by the radical"),
    ("gl2", KillingForm, "is_nondegenerate", lambda form: True,
     "radical computation disagrees with Killing-form nondegeneracy"),
    ("borel2", KillingForm, "is_nondegenerate", lambda form: True,
     "radical computation disagrees with Killing-form nondegeneracy"),
    ("sl3", KillingForm, "is_nondegenerate", lambda form: False,
     "Killing form degenerate on the quotient by the radical"),
], ids=["not_ideal", "not_solvable", "degenerate_quotient", "rank_disagrees",
        "rank_disagrees_on_g_mod_g", "degenerate_on_g_mod_0"])
def test_every_radical_check_raises_its_message(monkeypatch, reader, name, owner, attribute,
                                                patched, message):
    g = _fresh(name)
    monkeypatch.setattr(owner, attribute, patched)
    with pytest.raises(ConsistencyError) as raised:
        reader(g)
    assert str(raised.value) == message


def test_one_quotient_and_one_gram_per_algebra(monkeypatch):
    calls = {"quotient": 0, "gram": 0}
    ranked = []  # the algebra of each Killing form ranked

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    rank = KillingForm.is_nondegenerate
    monkeypatch.setattr(LieAlgebra, "quotient", counted("quotient", LieAlgebra.quotient))
    monkeypatch.setattr(semisimple, "_killing_gram", counted("gram", semisimple._killing_gram))
    monkeypatch.setattr(KillingForm, "is_nondegenerate",
                        lambda form: ranked.append(form.algebra) or rank(form))
    # Only a proper radical builds g/rad(g), and it has a gram of its own: g/0 is g, and
    # g/g is 0, which is not ranked.  Each Structure ranks its gram once.
    for name, expected in (("sl2", (0, 1)), ("so3", (0, 1)), ("sl3", (0, 1)),
                           ("heisenberg", (0, 1)), ("gl2", (1, 2))):
        g = _fresh(name)
        calls.update(quotient=0, gram=0)
        ranked.clear()
        nilpotent_in_all_reps(g, g.basis_element(1))
        assert (calls["quotient"], calls["gram"]) == expected, name
        nilpotent_in_all_reps(g, g.basis_element(0))  # a second verdict adds nothing
        assert (calls["quotient"], calls["gram"]) == expected, name
        assert len(ranked) == calls["gram"] == len(set(map(id, ranked))), name


def test_a_zero_or_full_radical_builds_no_new_algebra():
    for name in ("sl2", "sl3"):  # g/0 is g itself, under the identity
        g = _fresh(name)
        q = analyze(g).quotient
        assert q.target is g and q.projection == q.section == Matrix.identity(g.dim), name
    for name in ("borel2", "heisenberg"):  # g/g is the zero algebra
        g = _fresh(name)
        q = analyze(g).quotient
        assert q.ideal.is_full() and q.target.dim == 0, name
        assert (q.projection.rows, q.projection.cols) == (0, g.dim), name


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: killing_orth(builtin("sl2").algebra, Subspace.full(2)),
                 (ValueError, "subspace must live in the algebra"), id="orth-ambient"),
])
def test_every_guard_answers_as_documented(call, expected):
    assert outcome(call) == expected
