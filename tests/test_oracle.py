"""The main decision procedure and its corpus cross-check."""

from __future__ import annotations

import hashlib
import io
import json
import operator
import random
from fractions import Fraction
from itertools import combinations_with_replacement
from types import SimpleNamespace

import pytest

import lienil.oracle as oracle
import lienil.reps as reps
from lienil.catalog import builtin, semidirect, sl2_irrep, standard_entries
from lienil.cli import render_algebra, run
from lienil.liealg import LieAlgebra
from lienil.linalg import Matrix, invert, is_nilpotent
from lienil.oracle import (
    _corpus,
    _corpus_outcomes,
    cross_validate,
    find_witness,
    nilpotent_in_all_reps,
)
from lienil.reps import Representation, acts_nilpotently, trivial_rep, validate_rep
from lienil.semisimple import analyze

from support import (
    compact_orthogonal,
    corpus_members,
    corpus_representations,
    criterion_2_cases,
    direct_sum,
    fraction_action,
    fraction_corpus_outcomes,
    fraction_is_nilpotent,
    fraction_matrices,
    fraction_rep_violations,
    heisenberg_algebra,
    in_derived_and_ad_nilpotent,
    matrix_power,
    seeded_elements,
    seeded_invertible_matrices,
    seeded_rational_bases,
    sl2_plus_sl2,
    split_classical,
    with_rational_basis_changes,
)

F = Fraction


# --- verdicts ----------------------------------------------------------------------

def test_decision_matches_derived_membership_and_ad_nilpotency():
    sl2 = builtin("sl2").algebra
    algebras = ([entry.algebra for entry in standard_entries()]
                + [semidirect(sl2, sl2_irrep(m)).algebra for m in (1, 2, 3)] + [sl2_plus_sl2()])
    answers = set()
    for g in algebras:
        elements = [g.basis_element(i) for i in range(g.dim)] + seeded_elements(g.dim, 3, seed=7)
        moves = [(g, Matrix.identity(g.dim))] + [
            (g.change_of_basis(p), invert(p)) for p in seeded_rational_bases(g.dim, 2, seed=31)]
        for moved, p_inv in moves:
            for a in map(p_inv.apply, elements):
                answer = nilpotent_in_all_reps(moved, a).answer
                assert answer == in_derived_and_ad_nilpotent(moved, a), (moved, a)
                answers.add(answer)
    assert answers == {True, False}


def test_decision_matches_the_criterion_on_the_acceptance_workloads():
    """Criterion 2's cases and criterion 8's elements (each standard entry's basis and three
    seeded elements), on the catalog basis and on the first two of criterion 8's bases."""
    cases = [(g, elements) for _, g, elements in criterion_2_cases()]
    for entry in standard_entries():
        g = entry.algebra
        cases.append((g, [g.basis_element(i) for i in range(g.dim)]
                      + seeded_elements(g.dim, 3, seed=109)))
    answers = []
    for g, elements in cases:
        for p in [Matrix.identity(g.dim)] + seeded_invertible_matrices(g.dim, 2, seed=113):
            moved, p_inv = g.change_of_basis(p), invert(p)
            for a in map(p_inv.apply, map(g.element, elements)):
                answer = nilpotent_in_all_reps(moved, a).answer
                assert answer == in_derived_and_ad_nilpotent(moved, a), (moved, a)
                answers.append(answer)
    assert len(answers) == 3 * (17 + 3 * 13 + sum(e.algebra.dim for e in standard_entries()))
    assert set(answers) == {True, False}


def test_verdicts_on_sl2():
    g = builtin("sl2").algebra
    assert nilpotent_in_all_reps(g, (1, 0, 0)).answer
    assert nilpotent_in_all_reps(g, (0, 0, 1)).answer
    assert not nilpotent_in_all_reps(g, (0, 1, 0)).answer
    assert not nilpotent_in_all_reps(g, (1, 0, 1)).answer
    assert not nilpotent_in_all_reps(g, (1, 1, 0)).answer


def test_verdict_fields_on_sl2():
    g = builtin("sl2").algebra
    v = nilpotent_in_all_reps(g, (1, 0, 0))
    assert v.in_derived and v.image_nilpotent
    assert v.radical_dim == 0 and v.derived_dim == 3


def test_verdicts_on_heisenberg():
    g = builtin("heisenberg").algebra
    assert nilpotent_in_all_reps(g, (0, 0, 1)).answer  # the commutator line
    assert not nilpotent_in_all_reps(g, (1, 0, 0)).answer
    assert not nilpotent_in_all_reps(g, (0, 1, 0)).answer
    assert not nilpotent_in_all_reps(g, (1, 0, 1)).answer


def test_verdicts_on_gl2():
    g = builtin("gl2").algebra
    assert nilpotent_in_all_reps(g, (0, 1, 0, 0)).answer
    ident = nilpotent_in_all_reps(g, (1, 0, 0, 1))
    assert not ident.answer
    # the identity acts nilpotently via the adjoint but is not in [g, g]
    assert not ident.in_derived
    assert ident.image_nilpotent
    shifted = nilpotent_in_all_reps(g, (1, 1, 0, 1))
    assert not shifted.answer and not shifted.in_derived


def test_verdict_on_zero_element():
    for name in ("sl2", "heisenberg", "gl2", "abelian(2)"):
        g = builtin(name).algebra
        assert nilpotent_in_all_reps(g, (0,) * g.dim).answer


def test_abelian_only_zero_passes():
    g = builtin("abelian(2)").algebra
    assert not nilpotent_in_all_reps(g, (1, 0)).answer
    assert not nilpotent_in_all_reps(g, (0, -1)).answer


def test_solvable_case_reduces_to_derived_membership():
    for name in ("heisenberg", "nonabelian2", "upper_triangular(3)"):
        g = builtin(name).algebra
        derived = g.derived_subalgebra()
        for a in seeded_elements(g.dim, 15, seed=53):
            v = nilpotent_in_all_reps(g, a)
            assert v.answer == derived.contains(g.element(a))


def test_semisimple_case_reduces_to_adjoint_power():
    from lienil.semisimple import is_nilpotent_element_power

    for name in ("sl2", "so3"):
        g = builtin(name).algebra
        for a in seeded_elements(g.dim, 15, seed=59):
            v = nilpotent_in_all_reps(g, a)
            assert v.answer == is_nilpotent_element_power(g, a)


def test_verdict_invariant_under_change_of_basis():
    for name in ("sl2", "heisenberg", "gl2"):
        g = builtin(name).algebra
        elems = seeded_elements(g.dim, 4, seed=61)
        for p in seeded_invertible_matrices(g.dim, 3, seed=67):
            moved = g.change_of_basis(p)
            inv = invert(p)
            for a in elems:
                transported = inv.apply(g.element(a))
                assert (
                    nilpotent_in_all_reps(g, a).answer
                    == nilpotent_in_all_reps(moved, transported).answer
                )


# --- witnesses ---------------------------------------------------------------------

def test_no_witness_for_a_positive_verdict():
    g = builtin("sl2").algebra
    with pytest.raises(ValueError):
        find_witness(g, (1, 0, 0))


def test_character_witness_on_heisenberg_generator():
    g = builtin("heisenberg").algebra
    w = find_witness(g, (1, 0, 0))
    assert w.case_tag == "derived_character"
    assert w.rep.dim_v == 1
    assert w.rep.action((1, 0, 0)) == Matrix.from_rows([[1]])
    assert not acts_nilpotently(w.rep, (1, 0, 0))


def test_character_witness_on_gl2_identity():
    g = builtin("gl2").algebra
    w = find_witness(g, (1, 0, 0, 1))
    assert w.case_tag == "derived_character"
    assert w.rep.action((1, 0, 0, 1)) == Matrix.from_rows([[2]])


def test_adjoint_witness_on_sl2_semisimple_element():
    g = builtin("sl2").algebra
    w = find_witness(g, (0, 1, 0))
    assert w.case_tag == "adjoint_pullback"
    assert w.rep.dim_v == 3
    assert not acts_nilpotently(w.rep, (0, 1, 0))


def test_witness_exponent_is_honest():
    g = builtin("sl2").algebra
    w = find_witness(g, (0, 1, 0))
    action = w.rep.action((0, 1, 0))
    assert not matrix_power(action, w.exponent_checked).is_zero()


def test_witnesses_always_validate_and_refute():
    cases = [
        ("heisenberg", (0, 1, 0)),
        ("heisenberg", (1, 0, 1)),
        ("gl2", (1, 1, 0, 1)),
        ("sl2", (1, 1, 0)),
        ("nonabelian2", (1, 0)),
        ("abelian(2)", (1, 1)),
    ]
    for name, a in cases:
        g = builtin(name).algebra
        w = find_witness(g, a)
        assert validate_rep(w.rep) == []
        assert not acts_nilpotently(w.rep, a)


def test_canonical_functionals_vanish_on_derived():
    for name in ("heisenberg", "gl2", "nonabelian2", "upper_triangular(2)"):
        g = builtin(name).algebra
        derived = g.derived_subalgebra()
        for xi in analyze(g).functionals:
            for v in derived.basis:
                assert sum(c * x for c, x in zip(xi, v)) == 0


def test_canonical_functionals_count():
    g = builtin("gl2").algebra
    assert len(analyze(g).functionals) == 1
    assert len(analyze(builtin("sl2").algebra).functionals) == 0
    assert len(analyze(builtin("abelian(2)").algebra).functionals) == 2


# --- corpus ------------------------------------------------------------------------

def test_corpus_is_deterministic():
    g = builtin("sl2").algebra
    assert _corpus(g, 2, 32) is _corpus(g, 2, 32)  # cached
    first = corpus_members(g, 2, 32)
    third = corpus_members(LieAlgebra(g.dim, g.basis_names, g.table), 2, 32)
    assert [m.label for m in first] == [m.label for m in third]


def test_corpus_levels_and_dedup():
    g = builtin("sl2").algebra
    members = corpus_members(g, 1, 32)
    assert all(m.level <= 1 for m in members)
    seeds = [m for m in members if m.kind == "seed"]
    assert len({m.label for m in members}) == len(members)
    assert len(seeds) >= 2  # adjoint plus attached irreducibles


def test_corpus_seeds_are_distinct_without_comparing_characters():
    """_corpus appends characters without comparing them: on the 13 standard entries, the
    semidirects of sl2 with its irreducibles of highest weight 0 to 3 and sl2 (+) sl2, each
    also under two rational basis changes, at caps 1, 3, 8 and 128, the seeds have pairwise
    distinct (dim_v, matrices), so no character equals another seed."""
    sl2 = builtin("sl2").algebra
    family = ([entry.algebra for entry in standard_entries()]
              + [semidirect(sl2, sl2_irrep(m)).algebra for m in range(4)] + [sl2_plus_sl2()])
    seeds = characters = 0
    for g in (moved for algebra in family for moved in with_rational_basis_changes(algebra, 2)):
        for cap in (1, 3, 8, 128):
            kept = _corpus(g, 0, cap)[0]
            assert len({(rep.dim_v, rep.matrices) for rep in kept}) == len(kept), (g, cap)
            seeds += len(kept)
            characters += sum(rep.label.startswith("character(") for rep in kept)
    assert (seeds, characters) == (425, 228)


def test_corpus_respects_dimension_cap():
    g = builtin("sl2").algebra
    members = corpus_members(g, 2, 16)
    assert all(m.dim <= 16 for m in members)


def test_corpus_bound_counts_every_pair_visit(monkeypatch):
    """The bound counts exactly the pairs the sum and tensor loops visit: sl2's
    depth-2 corpus visits 2,970, so a bound of 2,970 admits it and 2,969 refuses it
    after visiting level 1's pairs only."""
    visited = []

    def counting(op):
        return lambda x, y: visited.append(None) or op(x, y)

    monkeypatch.setattr(oracle, "operator", SimpleNamespace(
        add=counting(operator.add), mul=counting(operator.mul)))
    sl2 = builtin("sl2").algebra
    monkeypatch.setattr(oracle, "_MAX_PAIR_VISITS", 2970)
    assert len(_corpus(LieAlgebra(sl2.dim, sl2.basis_names, sl2.table), 2, 128)[3][1]) == 2951
    assert len(visited) == 2970
    visited.clear()
    monkeypatch.setattr(oracle, "_MAX_PAIR_VISITS", 2969)
    g = LieAlgebra(sl2.dim, sl2.basis_names, sl2.table)  # a Structure with no corpus yet
    with pytest.raises(ValueError, match="depth 2 would visit 2970 member pairs by level 2"):
        _corpus(g, 2, 128)
    assert len(visited) == 42  # level 1 only: 6 seeds, pairs i <= j, for sum and for tensor
    assert (2, 128) not in analyze(g).corpora


def test_corpus_bound_refuses_before_a_level_is_built():
    sl2, so3 = builtin("sl2").algebra, builtin("so3").algebra
    with pytest.raises(ValueError, match=r"depth 3 would visit \d+ member pairs by level 3, "
                                         r"more than 250000"):
        _corpus(sl2, 3, 128)  # 5,435,597 members if built
    with pytest.raises(ValueError, match="depth 3 would visit 694722 member pairs by level 3"):
        _corpus(builtin("upper_triangular(3)").algebra, 3, 128)
    with pytest.raises(ValueError, match="depth 1000000000000 "):
        _corpus(so3, 10**12, 3)  # duals never leave the cap, so no level is empty


def test_corpus_stops_at_the_first_empty_level():
    """Duals keep every nonempty level nonempty, so only a corpus with no seeds ends early."""
    assert _corpus(builtin("sl2").algebra, 10**12, 0) == ((), (), (), ((), ()))


def test_a_corpus_without_positive_dimensional_seeds_is_empty_at_any_depth():
    """The zero algebra's only seeds are 0-dimensional, and heisenberg at cap 0 keeps
    none of its seeds: neither corpus closes 0-dimensional members level after level."""
    assert _corpus(LieAlgebra(0, (), {}), 10**12, 128) == ((), (), (), ((), ()))
    assert _corpus(builtin("heisenberg").algebra, 10**12, 0) == ((), (), (), ((), ()))


def test_every_corpus_member_has_positive_dimension():
    sl2 = builtin("sl2").algebra
    algebras = [entry.algebra for entry in standard_entries()]
    algebras += [semidirect(sl2, sl2_irrep(1)).algebra, LieAlgebra(0, (), {})]
    for g in algebras:
        for depth in (0, 1, 2):
            for max_dim in (4, 12, 128):
                seeds, steps, supports, rows = _corpus(g, depth, max_dim)
                assert [len(supports), *map(len, rows)] == [len(seeds) + len(steps)] * 3
                assert all(row.dim for flagged in rows for row in flagged), (
                    g.basis_names, depth, max_dim)


def test_split_classical_verdicts_match_the_criterion_and_the_defining_matrix():
    """Levi factors of types B, C and D: on split so(5), so(6), so(7), so(8), sp(4), sp(6)
    and their semidirects with the defining module, at basis vectors and seeded elements
    (4 per algebra, 2 on the algebras of dimension 21 and 28 and their semidirects), every
    verdict equals in_derived_and_ad_nilpotent, and on the six simple algebras it equals
    "the defining matrix is nilpotent"."""
    verdicts = []
    for name, rep in split_classical():
        g = rep.algebra
        assert g.dim == {"so(5)": 10, "so(6)": 15, "so(7)": 21, "so(8)": 28, "sp(4)": 10,
                         "sp(6)": 21}[name]
        defining = fraction_matrices(rep)
        ext = semidirect(g, rep, f"semidirect({name}, defining)").algebra
        for algebra in (g, ext):
            elements = [algebra.basis_element(i) for i in range(algebra.dim)]
            elements += seeded_elements(algebra.dim, 2 if g.dim >= 21 else 4, seed=59)
            for a in elements:
                answer = nilpotent_in_all_reps(algebra, a).answer
                assert answer == in_derived_and_ad_nilpotent(algebra, a), (name, algebra.dim, a)
                if algebra is g:
                    assert answer == fraction_is_nilpotent(fraction_action(defining, a).entries), (
                        name, a)
                verdicts.append(answer)
    assert (len(verdicts), sum(verdicts)) == (282, 212)


def test_compact_orthogonal_verdicts_follow_the_construction():
    """Compact so(n) for n = 3 to 6 has no nonzero nilpotent element.  On so(n), on
    so(n) + V for its defining module V = Q^n, and on so(n) + (V + Q) for V plus a
    trivial line, [g, g] is so(n) + V and rad g is the module, so an element is positive
    exactly when its so(n) coordinates and its trivial coordinate are 0.  At basis
    vectors and 2 seeded elements per algebra, each verdict equals that, then
    in_derived_and_ad_nilpotent; each negative's witness is a character exactly when the
    trivial coordinate is nonzero, and the element acts on it non-nilpotently, by
    Fraction arithmetic of this suite's own."""
    verdicts = []
    for name, rep in compact_orthogonal():
        g, n = rep.algebra, rep.dim_v
        padded = tuple(Matrix.from_rows([[*row, 0] for row in m.entries] + [[0] * (n + 1)])
                       for m in rep.matrices)  # V + Q: a zero row and column added
        line = Representation(g, n + 1, padded, "defining+trivial")
        for module, trivial in ((None, False), (rep, False), (line, True)):
            algebra = g if module is None else semidirect(
                g, module, f"semidirect({name}, {module.label})").algebra
            elements = [algebra.basis_element(i) for i in range(algebra.dim)]
            for a in elements + seeded_elements(algebra.dim, 2, seed=67):
                outside = trivial and a[-1] != 0  # not in [g, g]
                expected = not any(a[:g.dim]) and not outside
                verdict = nilpotent_in_all_reps(algebra, a)
                assert verdict.answer == expected, (name, algebra.dim, a)
                assert verdict.answer == in_derived_and_ad_nilpotent(algebra, a), (name, a)
                verdicts.append(verdict.answer)
                if expected:
                    continue
                witness = find_witness(algebra, a)
                assert witness.case_tag == ("derived_character" if outside else
                                            "adjoint_pullback"), (name, a)
                mats = fraction_matrices(witness.rep)
                assert not fraction_is_nilpotent(fraction_action(mats, a).entries), (name, a)
                if outside:
                    assert fraction_rep_violations(algebra, mats) == [], (name, a)
    assert (len(verdicts), sum(verdicts)) == (166, 36)


def _summands_with_their_truth():
    """(name, algebra, is_positive, is_outside_derived) for summands whose positives and
    derived algebras follow from their construction: compact so(3) and so(4), only 0; split
    so(5) and sp(4), sl2 (on sl2_irrep(1)) and gl2, a nilpotent defining matrix; heisenberg,
    x and y both 0.  Each is perfect but gl2, whose [g, g] is the trace-free part, and
    heisenberg, whose [g, g] is z's line."""
    def nilpotent_matrix(rep):
        mats = fraction_matrices(rep)
        return lambda a: fraction_is_nilpotent(fraction_action(mats, a).entries)

    split = dict(split_classical())
    gl2 = builtin("gl2").algebra
    units = tuple(Matrix.from_rows([[int((r, c) == (i, j)) for c in range(2)] for r in range(2)])
                  for i in range(2) for j in range(2))
    matrix_summands = [("so(5)", split["so(5)"]), ("sp(4)", split["sp(4)"]),
                       ("sl2", sl2_irrep(1)), ("gl2", Representation(gl2, 2, units, "defining"))]
    outside = {"gl2": lambda a: a[0] + a[3] != 0, "heisenberg": lambda a: any(a[:2])}
    truths = ([(name, rep.algebra, lambda a: not any(a)) for name, rep in compact_orthogonal()[:2]]
              + [(name, rep.algebra, nilpotent_matrix(rep)) for name, rep in matrix_summands]
              + [("heisenberg", builtin("heisenberg").algebra, lambda a: not a[0] and not a[1])])
    return [(*truth, outside.get(truth[0], lambda a: False)) for truth in truths]


def test_direct_sum_verdicts_follow_the_summands():
    """(a, b) in g (+) h acts nilpotently in every representation iff a and b both do:
    pull back along the projections for one direction; for the other, (a, 0) and (0, b)
    commute, and a sum of commuting nilpotent operators is nilpotent.  Over every pair of
    summands (each with itself too), at 32 seeded (a, b) whose parts are 0, a basis vector
    or a seeded element, each verdict equals that rule on the summands' own truth, then
    in_derived_and_ad_nilpotent.  [g (+) h, g (+) h] is [g, g] (+) [h, h], so each
    negative's witness is a character exactly when a or b lies outside its summand's
    derived algebra, and the element acts on it non-nilpotently, by Fraction arithmetic of
    this suite's own; a character also keeps the homomorphism law.  Every other negative's
    witness is checked."""
    summands = _summands_with_their_truth()
    rng = random.Random(73)
    verdicts, negatives = [], []
    for (g_name, g, g_positive, g_outside), (h_name, h, h_positive, h_outside) in (
            combinations_with_replacement(summands, 2)):
        algebra = direct_sum(g, h)
        parts = [[(0,) * s.dim, *map(s.basis_element, range(s.dim)), *seeded_elements(
            s.dim, 2, seed=79)] for s in (g, h)]
        pairs = [(a, b) for a in parts[0] for b in parts[1] if any(a) or any(b)]
        for a, b in rng.sample(pairs, min(len(pairs), 32)):
            element = (*a, *b)
            answer = nilpotent_in_all_reps(algebra, element).answer
            assert answer == (g_positive(a) and h_positive(b)), (g_name, h_name, element)
            assert answer == in_derived_and_ad_nilpotent(algebra, element), (g_name, h_name)
            verdicts.append(answer)
            if not answer:
                negatives.append((algebra, element, g_outside(a) or h_outside(b)))
    assert (len(verdicts), sum(verdicts)) == (896, 160)
    tags, matrices, characters = [], {}, set()  # each witness rep read in Fractions once
    for algebra, element, outside in negatives[::2]:  # every other one, to stay under 3 s
        witness = find_witness(algebra, element)
        tags.append(witness.case_tag)
        assert witness.case_tag == ("derived_character" if outside else "adjoint_pullback")
        if witness.rep not in matrices:
            matrices[witness.rep] = fraction_matrices(witness.rep)
        action = fraction_action(matrices[witness.rep], element)
        assert not fraction_is_nilpotent(action.entries), element
        if outside:
            characters.add(witness.rep)
    assert all(fraction_rep_violations(rep.algebra, matrices[rep]) == [] for rep in characters)
    assert (len(tags), tags.count("derived_character"), len(characters)) == (368, 142, 24)


def test_corpus_members_materialize_and_validate():
    g = builtin("heisenberg").algebra
    members = corpus_members(g, 2, 8)
    for m, mats in zip(members, corpus_representations(members), strict=True):
        assert {(x.rows, x.cols) for x in mats} == {(m.dim, m.dim)}
        assert fraction_rep_violations(g, mats) == []


def test_corpus_outcomes_match_materialized_actions():
    for name, element in (("sl2", (1, 1, 0)), ("heisenberg", (0, 0, 1)),
                          ("heisenberg", (1, 0, 0))):
        g = builtin(name).algebra
        report = cross_validate(g, element, depth=2, max_dim=12)
        members = corpus_members(g, 2, 12)
        for mats, row in zip(corpus_representations(members), report.outcomes, strict=True):
            assert row.nilpotent == fraction_is_nilpotent(fraction_action(mats, element).entries)


# The integer corpus states against the Fraction evaluator they replaced: on every
# corpus of these algebras, at every depth and cap, for basis elements, the
# representatives of the depth-2 cross-check workload, seeded rationals and
# (1/2, 1/3, -1/6, ...), whose denominators give the seeds eigenvalues over
# different denominators.
DIFFERENTIAL_CASES = (
    ("sl2", ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0))),
    ("heisenberg", ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1))),
    ("gl2", ((0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1))),
    ("upper_triangular(3)", ()),
    ("semidirect(sl2, V1)", ((3, -1, F(-3, 2), 3, F(-3, 2)), (-3, F(-1, 3), -4, -1, F(-2, 3)),
                             (4, -1, 2, -1, 1), (F(-1, 3), 2, 0, F(-1, 3), 1), (1, 0, 0, 1, -1))),
)


def _differential_algebra(name: str) -> LieAlgebra:
    if name == "semidirect(sl2, V1)":
        return semidirect(builtin("sl2").algebra, sl2_irrep(1)).algebra
    return builtin(name).algebra


def _seed_denominators(members, av) -> set[int]:
    """Denominators of the seeds' single eigenvalues (1 for an eigenvalue 0)."""
    out = set()
    for m in members:
        if m.kind == "seed" and m.dim:
            action = m.seed.action(av)
            c = action.trace() / m.dim
            if is_nilpotent(action - Matrix.identity(m.dim).scaled(c)):
                out.add(c.denominator)
    return out


@pytest.mark.parametrize("name, representatives", DIFFERENTIAL_CASES,
                         ids=[name for name, _ in DIFFERENTIAL_CASES])
def test_integer_corpus_states_match_the_fraction_evaluator(name, representatives):
    g = _differential_algebra(name)
    elements = [g.basis_element(i) for i in range(g.dim)] + [g.element(a) for a in representatives]
    elements += [g.element(a) for a in seeded_elements(g.dim, 6, seed=83)]
    elements.append(g.element([F(1, 2), F(1, 3)] + [F(-1, 6)] * (g.dim - 2)))
    mixed = 0
    for depth in (0, 1, 2):
        for max_dim in (4, 12, 128):
            members = corpus_members(g, depth, max_dim)
            seeds, steps, supports, _ = _corpus(g, depth, max_dim)
            for av in elements:
                assert (_corpus_outcomes(seeds, steps, supports, av)
                        == fraction_corpus_outcomes(members, av))
                mixed += len(_seed_denominators(members, av)) > 1
    if name in ("heisenberg", "upper_triangular(3)"):  # characters
        assert mixed


# sha256 of the repr of (index, label, dim, level, kind, operands) of every corpus
# member at depths 0-2 and caps 4, 12 and 128 in turn, recorded from the enumeration
# into member objects before corpora were kept as integer steps.  heisenberg's was
# re-recorded once its 0-dimensional seed was dropped: the members recorded there minus
# that seed and the members built from it, in order, with operands renumbered.
CORPUS_DIGESTS = {
    "gl2": "d4c73a58da64f9d6ca215fa5c6e002e8e2648efef84afd58f69b25a82b34d105",
    "heisenberg": "e40e63705320096156fa17b067a42a567b3742a7523cac100085575ac79df574",
    "semidirect(sl2, V1)": "d10a8a46e67c0a508b664ba4f781bbee20375558a7ccfddee1a952c0f92994b8",
    "sl2": "c0457b0fbff945cf7e7cb5d603e767510eb20d8e53c00a6d611a30ac4ac7fd96",
}


@pytest.mark.parametrize("name", sorted(CORPUS_DIGESTS))
def test_corpus_members_are_pinned(name):
    g = _differential_algebra(name)
    digest = hashlib.sha256()
    for depth in (0, 1, 2):
        for max_dim in (4, 12, 128):
            for m in corpus_members(g, depth, max_dim):
                digest.update(repr((m.index, m.label, m.dim, m.level, m.kind, m.operands)).encode())
    assert digest.hexdigest() == CORPUS_DIGESTS[name]


def test_report_rows_are_selected_from_two_per_member():
    g = builtin("heisenberg").algebra
    members = corpus_members(g, 2, 12)
    first = cross_validate(g, (1, 0, 0), depth=2, max_dim=12).outcomes
    second = cross_validate(g, (0, 1, 0), depth=2, max_dim=12).outcomes
    again = cross_validate(g, (1, 0, 0), depth=2, max_dim=12).outcomes
    assert [(r.label, r.dim) for r in first] == [(m.label, m.dim) for m in members]
    assert all(a is b for a, b in zip(first, again))
    assert {id(r) for r in first + second} <= {
        id(r) for flagged in analyze(g).corpora[2, 12][3] for r in flagged}


class _UnreadSteps:
    """Corpus steps that must not be read."""

    def __iter__(self):
        raise AssertionError("the corpus steps were read")


def test_outcomes_without_a_nonzero_seed_state_read_no_steps():
    """When every seed's state is 0 or None, the outcomes are read off the supports: sl2
    at e and f (every state 0), at h (states None but for sl2_irrep(0)'s 0) and so3 at a
    basis element give the Fraction evaluator's outcomes without reading a step."""
    nilpotent_counts = []
    for name, element in (("sl2", (1, 0, 0)), ("sl2", (0, 0, 1)), ("sl2", (0, 1, 0)),
                          ("so3", (1, 0, 0))):
        g = builtin(name).algebra
        av = g.element(element)
        seeds, _, supports, _ = _corpus(g, 2, 128)
        outcomes = _corpus_outcomes(seeds, _UnreadSteps(), supports, av)
        assert outcomes == fraction_corpus_outcomes(corpus_members(g, 2, 128), av)
        nilpotent_counts.append(sum(outcomes))
    assert nilpotent_counts[:3] == [2951, 2951, 25]


def test_a_nonzero_seed_state_runs_the_steps():
    """heisenberg at x has a character with a nonzero eigenvalue: its outcomes need the
    forward pass over the steps."""
    g = builtin("heisenberg").algebra
    seeds, _, supports, _ = _corpus(g, 2, 128)
    with pytest.raises(AssertionError, match="the corpus steps were read"):
        _corpus_outcomes(seeds, _UnreadSteps(), supports, g.element((1, 0, 0)))


def test_a_positive_report_shares_the_all_nilpotent_rows():
    g = builtin("sl2").algebra
    rows = _corpus(g, 2, 128)[3]
    assert cross_validate(g, (1, 0, 0), depth=2, max_dim=128).outcomes is rows[1]
    assert all(row.nilpotent for row in rows[1]) and not any(row.nilpotent for row in rows[0])
    assert cross_validate(g, (0, 1, 0), depth=2, max_dim=128).outcomes is not rows[1]


def _counting(monkeypatch, module, name: str) -> list:
    """Record the arguments of every call to module.name, also where oracle binds it."""
    calls = []
    build = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(module, name, counted)
    monkeypatch.setattr(oracle, name, counted, raising=False)
    return calls


def test_one_pullback_per_algebra_and_every_witness_is_a_seed(monkeypatch):
    """On fresh algebras, the criterion-2 cross-checks pull back one adjoint per algebra
    with a nonzero g/rad(g) (heisenberg's is 0, a seed never built): every adjoint_pullback
    witness is the Structure's own pullback, and every character witness, built alone,
    equals a seed of the depth-0 corpus."""
    calls = _counting(monkeypatch, reps, "pullback")
    tags, fresh = [], []
    for _, catalog_algebra, elements in criterion_2_cases():
        g = LieAlgebra(catalog_algebra.dim, catalog_algebra.basis_names, catalog_algebra.table)
        fresh.append(g)
        for element in elements:
            report = cross_validate(g, element, depth=2, max_dim=128)
            assert report.consistent
            if report.witness is not None:
                tags.append(report.witness.case_tag)
                if report.witness.case_tag == "adjoint_pullback":
                    assert report.witness.rep is analyze(g).quotient_adjoint
                else:
                    assert report.witness.rep in _corpus(g, 0, 128)[0]
    assert set(tags) == {"adjoint_pullback", "derived_character"}
    assert [id(q.source) for _, q in calls] == [
        id(g) for g in fresh if analyze(g).quotient.target.dim]  # sl2, gl2, semidirect


def test_oracle_witness_builds_only_the_witness(monkeypatch, tmp_path):
    """At x0 of a dim-201 Heisenberg algebra the witness is one character: no other
    character and no adjoint is built."""
    characters = _counting(monkeypatch, reps, "one_dim_rep")
    adjoints = _counting(monkeypatch, reps, "adjoint_rep")
    path = tmp_path / "heisenberg201.txt"
    path.write_text(render_algebra(heisenberg_algebra(100)))
    out = io.StringIO()
    assert run(["oracle", "--witness", "--format", "json",
                "--element=1" + ",0" * 200, str(path)], out) == 0
    assert json.loads(out.getvalue())["witness_label"] == "character(1" + ",0" * 200 + ")"
    assert (len(characters), len(adjoints)) == (1, 0)


def test_a_seed_wider_than_the_cap_is_never_built(monkeypatch):
    g = heisenberg_algebra(100)
    adjoints = _counting(monkeypatch, reps, "adjoint_rep")
    seeds = _corpus(g, 0, 128)[0]
    assert [rep.dim_v for rep in seeds] == [1] * 200
    assert not any(args[0] is g for args in adjoints)


def test_seeds_are_deduplicated_in_one_pass(monkeypatch):
    """No seed is compared with another: a depth-0 corpus of a dim-41 Heisenberg algebra
    (the adjoint and 40 characters, all distinct by construction) makes no Matrix
    comparison at all."""
    compared = []
    equal = Matrix.__eq__
    monkeypatch.setattr(Matrix, "__eq__", lambda m, other: compared.append(m) or equal(m, other))
    assert len(_corpus(heisenberg_algebra(20), 0, 128)[0]) == 41
    assert compared == []


def test_a_corpus_hashes_no_matrix(monkeypatch):
    """Each seed has one source, so none is compared with another: a depth-0 corpus of a
    dim-41 Heisenberg algebra hashes none of the adjoint's 41 matrices or its 40
    characters'."""
    hashed = []
    hash_of = Matrix.__hash__
    monkeypatch.setattr(Matrix, "__hash__", lambda m: hashed.append(m) or hash_of(m))
    seeds = _corpus(heisenberg_algebra(20), 0, 128)[0]
    assert [rep.dim_v for rep in seeds] == [41] + [1] * 40
    assert hashed == []


def test_depth_adds_report_rows_but_no_checking_power():
    """Duals, sums and tensors of nilpotent operators are nilpotent, so whether every
    member acts nilpotently, and so consistency, is decided by the seeds alone."""
    for _, g, elements in criterion_2_cases():
        for element in elements:
            deep, shallow = (cross_validate(g, element, depth, 128) for depth in (2, 0))
            assert len(deep.outcomes) > len(shallow.outcomes)
            assert deep.consistent == shallow.consistent
            assert (all(row.nilpotent for row in deep.outcomes)
                    == all(row.nilpotent for row in shallow.outcomes))


def test_cross_validate_decides_a_negative_once(monkeypatch):
    calls = []
    decide = oracle.nilpotent_in_all_reps
    monkeypatch.setattr(oracle, "nilpotent_in_all_reps",
                        lambda *args: calls.append(args) or decide(*args))
    g = builtin("gl2").algebra
    report = cross_validate(g, (1, 0, 0, 1), depth=1, max_dim=8)
    assert len(calls) == 1
    assert report.witness == find_witness(g, (1, 0, 0, 1))


def test_a_witness_character_equals_the_corpus_seed(monkeypatch):
    """cross_validate's witness character is built by one_dim_rep, as find_witness's is: it
    equals the corpus seed of its functional but is not that object; with no such seed (a
    cap below 1) it is built all the same, with the same label."""
    built = []
    one_dim = oracle.one_dim_rep
    monkeypatch.setattr(oracle, "one_dim_rep", lambda *args: built.append(args) or one_dim(*args))
    g = builtin("heisenberg").algebra
    g = LieAlgebra(g.dim, ["fresh_x", "fresh_y", "fresh_z"], g.table)
    alone = find_witness(g, (1, 0, 0))
    assert len(built) == 1
    for max_dim, seeded in ((0, False), (8, True)):
        built.clear()
        report = cross_validate(g, (1, 0, 0), depth=1, max_dim=max_dim)
        assert report.witness == alone and report.witness.rep.label == "character(1,0,0)"
        seeds = _corpus(g, 1, max_dim)[0]
        assert any(report.witness.rep == seed for seed in seeds) is seeded
        assert not any(report.witness.rep is seed for seed in seeds)
        assert len(built) == (3 if max_dim else 1)  # each functional's seed, then the witness


def test_a_nilpotent_witness_action_makes_the_report_inconsistent(monkeypatch):
    g = builtin("sl2").algebra
    zero = trivial_rep(g, 2)
    monkeypatch.setattr(oracle, "_witness", lambda algebra, av, verdict: (
        oracle.Witness(zero, "adjoint_pullback", 1), zero.action(av)))
    report = cross_validate(g, (0, 1, 0), depth=1, max_dim=8)
    assert report.witness_acts_nilpotently is True
    assert not report.consistent


def test_power_trace_test_agrees_with_nilpotency():
    for name in ("sl2", "sl3", "gl2", "heisenberg", "upper_triangular(3)", "strictly_upper(4)"):
        g = builtin(name).algebra
        for a in seeded_elements(g.dim, 4, seed=17) + [g.basis_element(i) for i in range(g.dim)]:
            m = g.ad(a)
            assert oracle._some_power_trace_nonzero(m) is not is_nilpotent(m)


# --- cross-validation ----------------------------------------------------------------

def test_cross_validation_is_consistent_on_positive_verdicts():
    g = builtin("sl2").algebra
    report = cross_validate(g, (1, 0, 0), depth=2, max_dim=64)
    assert report.verdict.answer
    assert report.consistent
    assert report.witness is None
    assert all(r.nilpotent for r in report.outcomes)


def test_cross_validation_is_consistent_on_negative_verdicts():
    g = builtin("sl2").algebra
    report = cross_validate(g, (0, 1, 0), depth=2, max_dim=64)
    assert not report.verdict.answer
    assert report.consistent
    assert report.witness is not None
    assert report.witness_acts_nilpotently is False
    assert any(not r.nilpotent for r in report.outcomes)


def test_cross_validation_on_extension():
    entry = semidirect(builtin("sl2").algebra, sl2_irrep(1))
    g = entry.algebra
    report = cross_validate(g, (1, 0, 0, 0, 0), depth=2, max_dim=32)
    assert report.verdict.answer
    assert report.consistent
    # module vectors lie in [g, g] and act nilpotently everywhere
    module_report = cross_validate(g, (0, 0, 0, 1, 0), depth=2, max_dim=32)
    assert module_report.verdict.answer
    assert module_report.consistent
