"""End-to-end acceptance gate.

Each test covers one numbered criterion; the terminal summary hook in
``conftest.py`` prints a single ``criterion N: PASS``/``criterion N: FAIL``
line per criterion.
"""

from __future__ import annotations

import functools
import io
import json
from fractions import Fraction

from lienil.catalog import builtin, semidirect, sl2_irrep, standard_entries
from lienil.cli import parse_algebra, render_algebra, run
from lienil.liealg import QuotientMap
from lienil.linalg import (
    Matrix,
    generalized_eigenspace,
    invert,
    kernel_image,
    nilpotency_exponent,
    rational_eigenvalues,
)
from lienil.oracle import cross_validate, nilpotent_in_all_reps
from lienil.reps import (
    acts_nilpotently,
    pullback,
    rational_weights,
    trivial_rep,
    validate_rep,
    weight_space,
)
from lienil.semisimple import (
    is_nilpotent_element_image,
    is_nilpotent_element_power,
    killing_form,
    killing_matrix,
    killing_orth,
    radical,
)

from support import (
    SEMISIMPLE_NAMES,
    _restrict_to_subalgebra,
    criterion_2_cases,
    seeded_elements,
    seeded_invertible_matrices,
    sl2_plus_sl2,
)

F = Fraction


def basis_and_pair_sums(g) -> list[tuple]:
    singles = [tuple(g.basis_element(i)) for i in range(g.dim)]
    pairs = [
        tuple(x + y for x, y in zip(singles[i], singles[j]))
        for i in range(g.dim)
        for j in range(i + 1, g.dim)
    ]
    return singles + pairs


# --- 1. the two nilpotency characterizations agree on semisimple algebras -----------

def test_criterion_1_power_equals_image():
    cases = [builtin(n).algebra for n in ("sl2", "sl3", "so3")] + [sl2_plus_sl2()]
    disagreements = 0
    for g in cases:
        elements = basis_and_pair_sums(g) + seeded_elements(g.dim, 100, seed=101)
        for a in elements:
            if is_nilpotent_element_power(g, a) != is_nilpotent_element_image(g, a):
                disagreements += 1
    assert disagreements == 0


# --- 2/3. corpus cross-validation and witness soundness ------------------------------

@functools.lru_cache(maxsize=1)
def _criterion_2_reports():
    reports = []
    for _, algebra, elements in criterion_2_cases():
        for a in elements:
            reports.append((algebra, a, cross_validate(algebra, a, depth=2, max_dim=128)))
    return reports


def test_criterion_2_cross_validation():
    reports = _criterion_2_reports()
    assert len(reports) == 17
    for _, a, report in reports:
        assert report.consistent
        if not report.verdict.answer:
            assert report.witness is not None
            nilpotent, _ = nilpotency_exponent(report.witness.rep.action(a))
            assert not nilpotent


def test_criterion_3_witness_soundness():
    negatives = [(a, r) for _, a, r in _criterion_2_reports() if not r.verdict.answer]
    assert negatives  # h, e+f, e+h, x, y, x+z, I, E12+I at least
    for a, report in negatives:
        witness = report.witness
        assert witness is not None
        assert validate_rep(witness.rep) == []
        assert acts_nilpotently(witness.rep, a) is False


# --- 4. nilpotent elements pair to zero with their centralizers ----------------------

def test_criterion_4_centralizer_orthogonality():
    found = 0
    for name in ("sl2", "sl3"):
        g = builtin(name).algebra
        for a in basis_and_pair_sums(g):
            if not is_nilpotent_element_power(g, a):
                continue
            found += 1
            for z in g.centralizer(a).basis:
                assert killing_form(g, a, z) == 0
    assert found > 0


# --- 5. orthogonal complement of a centralizer is the adjoint image ------------------

def test_criterion_5_orthogonality_identity():
    for name in SEMISIMPLE_NAMES:
        g = builtin(name).algebra
        singles = [tuple(g.basis_element(i)) for i in range(g.dim)]
        for a in singles + seeded_elements(g.dim, 25, seed=107):
            _, image = kernel_image(g.ad(a))
            assert killing_orth(g, g.centralizer(a)) == image


# --- 6. elements of nonzero root spaces act nilpotently ------------------------------

def test_criterion_6_root_space_elements():
    from lienil.semisimple import shift_nilpotence_check

    plans = [
        ("sl2", [(0, 1, 0)]),
        ("sl3", [(0, 0, 0, 1, 0, 0, 0, 0), (0, 0, 0, 0, 1, 0, 0, 0),
                 (0, 0, 0, 1, 1, 0, 0, 0)]),
        ("upper_triangular(3)", [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0),
                                 (0, 0, 0, 0, 0, 1), (1, 0, 0, 2, 0, 0)]),
    ]
    checked = 0
    for name, cartan_like in plans:
        g = builtin(name).algebra
        for h in cartan_like:
            d = g.ad(h)
            assert g.is_derivation(d)
            for lam in rational_eigenvalues(d):
                if lam == 0:
                    continue
                space = generalized_eigenspace(d, lam)
                assert space.dim > 0
                for a in space.basis:
                    assert shift_nilpotence_check(g, d, lam, a)
                    checked += 1
    assert checked >= 10


# --- 7. irreducible modules pulled back across the radical ---------------------------

def _gl2_to_sl2_map() -> QuotientMap:
    gl2 = builtin("gl2").algebra
    sl2 = builtin("sl2").algebra
    projection = Matrix.from_rows([
        [0, 1, 0, 0],
        [F(1, 2), 0, 0, F(-1, 2)],
        [0, 0, 1, 0],
    ])
    section = Matrix.from_rows([
        [0, 1, 0],
        [1, 0, 0],
        [0, 0, 1],
        [0, -1, 0],
    ])
    return QuotientMap(gl2, sl2, radical(gl2), projection, section)


def _extension_to_sl2_map() -> QuotientMap:
    sl2 = builtin("sl2").algebra
    ext = semidirect(sl2, trivial_rep(sl2, 1)).algebra
    projection = Matrix.from_rows([
        [1, 0, 0, 0],
        [0, 1, 0, 0],
        [0, 0, 1, 0],
    ])
    section = Matrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, 0]])
    return QuotientMap(ext, sl2, radical(ext), projection, section)


def _assert_is_quotient_morphism(q: QuotientMap) -> None:
    g, h = q.source, q.target
    for v in q.ideal.basis:
        assert all(c == 0 for c in q.project(v))
    for i in range(g.dim):
        for j in range(g.dim):
            x, y = g.basis_element(i), g.basis_element(j)
            assert q.project(g.bracket(x, y)) == h.bracket(q.project(x), q.project(y))
    assert q.projection @ q.section == Matrix.identity(h.dim)


def _is_scalar(m: Matrix) -> bool:
    return m == Matrix.identity(m.rows).scaled(m.entries[0][0])


def test_criterion_7_pulled_back_irreducibles():
    for q in (_gl2_to_sl2_map(), _extension_to_sl2_map()):
        _assert_is_quotient_morphism(q)
        g = q.source
        rad = radical(g)
        derived = g.derived_subalgebra()
        meet = rad.intersect(derived)
        for m in range(5):
            rep = pullback(sl2_irrep(m), q)
            assert validate_rep(rep) == []
            for v in meet.basis:
                assert rep.action(v).is_zero()
            for v in rad.basis:
                assert _is_scalar(rep.action(v))
            for w in rational_weights(rep, rad):
                space = weight_space(rep, rad, w)
                for i in range(g.dim):
                    action = rep.action(g.basis_element(i))
                    for vec in space.basis:
                        assert space.contains(action.apply(vec))


# --- 8. verdicts do not depend on the chosen basis -----------------------------------

def test_criterion_8_basis_change_invariance():
    for entry in standard_entries():
        g = entry.algebra
        elements = ([tuple(g.basis_element(i)) for i in range(g.dim)]
                    + seeded_elements(g.dim, 3, seed=109))
        baseline = [nilpotent_in_all_reps(g, a) for a in elements]
        for k, p in enumerate(seeded_invertible_matrices(g.dim, 20, seed=113)):
            moved = g.change_of_basis(p)
            p_inv = invert(p)
            for a, expected in zip(elements, baseline):
                transported = p_inv.apply(g.element(a))
                assert nilpotent_in_all_reps(moved, transported) == expected, (
                    entry.name, k, a)


# --- 9. the radical is what it claims to be ------------------------------------------

def test_criterion_9_radical_self_consistency():
    entries = standard_entries() + [semidirect(builtin("sl2").algebra, sl2_irrep(1))]
    for entry in entries:
        g = entry.algebra
        r = radical(g)
        assert r == entry.known_radical
        assert g.is_ideal(r)
        if not r.is_zero():
            assert _restrict_to_subalgebra(g, r).is_solvable()
        quotient = g.quotient(r)
        assert killing_matrix(quotient.target).is_nondegenerate()
        assert entry.known_semisimple == r.is_zero()
        assert g.derived_subalgebra() == entry.known_derived


# --- 10. command-line boundary --------------------------------------------------------

def _run_json(argv) -> tuple[int, str]:
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_criterion_10_cli_round_trip_and_exit_codes(tmp_path):
    for entry in standard_entries():
        assert parse_algebra(render_algebra(entry.algebra)) == entry.algebra

    sl2_path = tmp_path / "sl2.txt"
    sl2_path.write_text(render_algebra(builtin("sl2").algebra), encoding="utf-8")
    broken_path = tmp_path / "broken.txt"
    broken_path.write_text("dim 3\nbasis x y z\n[x,y] = z\n[x,z] = x\n",
                           encoding="utf-8")

    behaviors = [
        (["oracle", "--format", "json", str(sl2_path), "--element", "0,1,0"], 0),
        (["oracle", "--format", "json", str(sl2_path), "--element", "1,0,0",
          "--assert"], 0),
        (["validate", "--format", "json", str(broken_path)], 1),
    ]
    for argv, expected_code in behaviors:
        first = _run_json(argv)
        second = _run_json(argv)
        assert first[0] == expected_code
        assert first == second
        assert first[1].encode("utf-8") == second[1].encode("utf-8")

    negative = json.loads(_run_json(behaviors[0][0])[1])
    assert negative["answer"] is False
    positive = json.loads(_run_json(behaviors[1][0])[1])
    assert positive["answer"] is True
    violations = json.loads(_run_json(behaviors[2][0])[1])
    assert violations["valid"] is False and violations["violations"]
