"""Built-in algebras, attached representations, semidirect extensions."""

from __future__ import annotations

import functools
import hashlib
import io
from fractions import Fraction

import pytest

import lienil.catalog as catalog
from lienil.catalog import (
    builtin,
    catalog_names,
    irreducibles_for,
    semidirect,
    sl2_irrep,
    standard_entries,
)
from lienil.cli import render_algebra, run
from lienil.liealg import LieAlgebra
from lienil.linalg import Matrix, Subspace
from lienil.reps import Representation, adjoint_rep, one_dim_rep, trivial_rep, validate_rep
from lienil.semisimple import is_semisimple, radical

from support import outcome

F = Fraction


# --- lookups -----------------------------------------------------------------------

def test_unknown_name_raises():
    with pytest.raises(ValueError):
        builtin("e8")


def test_bad_parameter_raises():
    with pytest.raises(ValueError):
        builtin("abelian(0)")
    with pytest.raises(ValueError):
        builtin("upper_triangular(zero)")


@pytest.mark.parametrize("name", ["abelian(\u0663)", "abelian(\uff13)", "abelian(3)\n"])
def test_names_outside_the_ascii_grammar_are_unknown(name):
    with pytest.raises(ValueError, match="unknown catalog name"):
        builtin(name)


def test_leading_zeros_name_the_same_entry():
    assert builtin("abelian(07)") is builtin("abelian(7)")
    assert builtin("strictly_upper(003)") is builtin("strictly_upper(3)")
    assert builtin("abelian(07)").name == "abelian(7)"


@pytest.mark.parametrize("name, dim", [
    ("abelian(65)", 65), ("upper_triangular(11)", 66), ("strictly_upper(12)", 66),
    ("upper_triangular(1000)", 500500), ("strictly_upper(10000000000)", 49999999995000000000)])
def test_oversized_family_members_are_refused_before_anything_is_built(monkeypatch, name, dim):
    def unbuilt(*args, **kwargs):
        raise AssertionError(f"{name} started to build")

    for builder in ("LieAlgebra", "Matrix", "Subspace", "_verified"):
        monkeypatch.setattr(catalog, builder, unbuilt)
    with pytest.raises(ValueError) as refusal:
        builtin(name)
    assert str(refusal.value) == f"catalog name {name!r} has dimension {dim}, above the limit of 64"


class _Started(Exception):
    pass


@pytest.mark.parametrize("name", ["upper_triangular(10)", "strictly_upper(11)"])
def test_the_largest_family_members_pass_the_size_check(monkeypatch, name):
    def started(*args):
        raise _Started

    monkeypatch.setattr(catalog, "_matrix_unit", started)  # stop as building begins
    with pytest.raises(_Started):
        builtin(name)
    assert builtin("abelian(64)").algebra.dim == 64


def test_catalog_names_cover_standard_entries():
    names = catalog_names()
    for entry in standard_entries():
        base = entry.name.split("(")[0]
        assert any(n.startswith(base) for n in names)


def test_builtin_is_cached():
    assert builtin("sl2") is builtin("sl2")


def test_every_spelling_builds_and_verifies_one_entry(monkeypatch):
    """Five spellings of abelian(3) build and verify it once, into one cached entry."""
    built = functools.lru_cache(maxsize=None)(catalog._built.__wrapped__)
    monkeypatch.setattr(catalog, "_built", built)  # a cache that starts empty
    verified = []
    verify = catalog._verified
    monkeypatch.setattr(catalog, "_verified",
                        lambda entry: verified.append(entry.name) or verify(entry))
    spellings = ["abelian(3)", "abelian(03)", "abelian(003)", "abelian(0003)", "abelian(00003)"]
    entries = [builtin(name) for name in spellings]
    assert all(entry is entries[0] for entry in entries)
    assert verified == ["abelian(3)"]
    assert built.cache_info().currsize == 1


# --- pinned fixtures ------------------------------------------------------------------

def _catalog_stdout(*argv: str) -> str:
    out = io.StringIO()
    assert run(["catalog", *argv], out=out) == 0
    return out.getvalue()


def _fixture_digest(name: str) -> str:
    """Everything the catalog hands out for one name: the rendered file, the declared
    rows and flag, each attached representation, and `lienil catalog` in both formats."""
    entry = builtin(name)
    parts = [entry.name, render_algebra(entry.algebra), repr(entry.known_radical.rows),
             repr(entry.known_derived.rows), repr(entry.known_semisimple)]
    for rep in entry.irreducibles:
        parts += [rep.label, repr([(m.ints, m.scale) for m in rep.matrices])]
    parts += [_catalog_stdout(name), _catalog_stdout(name, "--format", "json")]
    return hashlib.sha256("\n".join(parts).encode()).hexdigest()[:16]


PINNED = {
    "sl2": "7b3b981ab4f39c1f",
    "sl3": "e275dfb891255ac0",
    "gl2": "da9b3cd17480833d",
    "so3": "5852297c3996ec1e",
    "heisenberg": "806ba937774a227f",
    "nonabelian2": "1c3e1e4243f26aa1",
    "borel2": "7469c8234b76f78a",
    "abelian(1)": "11e2a742309d304b",
    "abelian(2)": "945a1c8e06ca7e82",
    "abelian(3)": "b8d2764bdf69481f",
    "abelian(4)": "99535f5af210642b",
    "abelian(5)": "1942b2f9db7ab0f8",
    "abelian(6)": "3c91fb13a985bb29",
    "upper_triangular(1)": "47b834469c7b54d6",
    "upper_triangular(2)": "0c1193dbe2276b17",
    "upper_triangular(3)": "b37d48942ee43b37",
    "upper_triangular(4)": "100e5960cd820412",
    "upper_triangular(5)": "87a2e5699dcf124a",
    "upper_triangular(6)": "f3772917d76bda12",
    "strictly_upper(1)": "79b2f9e020628551",
    "strictly_upper(2)": "08cd3100e8af5aab",
    "strictly_upper(3)": "da1f0b6ba988451e",
    "strictly_upper(4)": "50c89a37204b7804",
    "strictly_upper(5)": "dd648845a9e12742",
    "strictly_upper(6)": "3554bcd9f11aee98",
}


def test_fixtures_match_their_pinned_digests():
    assert {name: _fixture_digest(name) for name in PINNED} == PINNED


def test_catalog_listing_is_pinned():
    assert _catalog_stdout() == (
        "command: catalog\nnames: borel2 gl2 heisenberg nonabelian2 sl2 sl3 so3 "
        "abelian(n) strictly_upper(n) upper_triangular(n)\n")
    assert _catalog_stdout("--format", "json") == (
        '{\n  "command": "catalog",\n  "names": [\n    "borel2",\n    "gl2",\n'
        '    "heisenberg",\n    "nonabelian2",\n    "sl2",\n    "sl3",\n    "so3",\n'
        '    "abelian(n)",\n    "strictly_upper(n)",\n    "upper_triangular(n)"\n  ]\n}\n')


# --- ground truth on each entry ------------------------------------------------------

def test_every_standard_entry_is_internally_consistent():
    for entry in standard_entries():
        g = entry.algebra
        assert g.jacobi_violations() == []
        assert radical(g) == entry.known_radical
        assert g.derived_subalgebra() == entry.known_derived
        assert is_semisimple(g) == entry.known_semisimple
        for rep in entry.irreducibles:
            assert rep.algebra == g
            assert validate_rep(rep) == []


def test_sl2_shape():
    entry = builtin("sl2")
    assert entry.algebra.dim == 3
    assert entry.algebra.basis_names == ("e", "h", "f")
    assert entry.known_semisimple
    assert entry.known_radical.is_zero()


def test_sl3_shape():
    entry = builtin("sl3")
    assert entry.algebra.dim == 8
    assert entry.known_semisimple
    assert entry.known_derived.is_full()


def test_gl2_shape():
    entry = builtin("gl2")
    assert entry.algebra.dim == 4
    assert entry.known_radical == Subspace.from_vectors(4, [[1, 0, 0, 1]])
    assert entry.known_derived == Subspace.from_vectors(
        4, [[1, 0, 0, -1], [0, 1, 0, 0], [0, 0, 1, 0]]
    )


def test_triangular_families():
    assert builtin("upper_triangular(3)").algebra.dim == 6
    assert builtin("strictly_upper(3)").algebra.dim == 3
    assert builtin("strictly_upper(4)").algebra.lower_central_series()[-1].is_zero()
    assert builtin("upper_triangular(3)").algebra.is_solvable()
    assert not builtin("upper_triangular(3)").algebra.lower_central_series()[-1].is_zero()


def test_abelian_family():
    g = builtin("abelian(5)").algebra
    assert g.dim == 5
    assert g.table == {}


def test_matrix_algebras_read_coordinates_and_refuse_an_open_set():
    e, h, f = (Matrix.from_rows(r) for r in ([[0, 2], [0, 0]], [[3, 0], [0, -3]], [[0, 0], [2, 0]]))
    g = catalog._algebra_from_matrices(("e", "h", "f"), [e, h, f])
    assert g.table == {(0, 1): {0: -6}, (0, 2): {1: F(4, 3)}, (1, 2): {2: -6}}
    with pytest.raises(ValueError, match="not closed under the commutator"):
        catalog._algebra_from_matrices(("e", "f"), [e, f])


# --- irreducible representations of sl2 ------------------------------------------------

def test_sl2_irrep_dimensions():
    for m in range(5):
        assert sl2_irrep(m).dim_v == m + 1


def test_sl2_irrep_frozen_matrices_for_weight_one():
    rep = sl2_irrep(1)
    e, h, f = rep.matrices
    assert e == Matrix.from_rows([[0, 1], [0, 0]])
    assert h == Matrix.from_rows([[1, 0], [0, -1]])
    assert f == Matrix.from_rows([[0, 0], [1, 0]])


def test_sl2_irrep_is_homomorphism_up_to_weight_six():
    for m in range(7):
        assert validate_rep(sl2_irrep(m)) == []


def test_sl2_irrep_rejects_negative_weight():
    with pytest.raises(ValueError):
        sl2_irrep(-1)


def test_irreducibles_for_matches_catalog():
    sl2 = builtin("sl2").algebra
    reps = irreducibles_for(sl2)
    assert reps == builtin("sl2").irreducibles
    assert irreducibles_for(builtin("heisenberg").algebra) == ()


def test_irreducibles_for_finds_every_fixture_with_representations():
    """Only sl2 carries representations: so3 and sl3 attach nothing, not even their
    adjoints, which the oracle builds for every algebra."""
    assert [entry.name for entry in standard_entries() if entry.irreducibles] == ["sl2"]
    entry = builtin("sl2")
    assert irreducibles_for(entry.algebra) == entry.irreducibles
    for name in ("so3", "sl3"):
        assert builtin(name).irreducibles == irreducibles_for(builtin(name).algebra) == ()


def test_irreducibles_for_builds_no_fixture_of_another_dimension(monkeypatch):
    """irreducibles_for looks up no fixture for gl2 (dim 4) or the sl3 table (dim 8),
    and only sl2 for the so3 table (dim 3)."""
    names: list[str] = []
    monkeypatch.setattr(catalog, "builtin", lambda n: names.append(n) or builtin(n))
    for name, looked_up in (("gl2", []), ("sl3", []), ("so3", ["sl2"])):
        names.clear()
        irreducibles_for(builtin(name).algebra)  # this module's builtin is not the patched one
        assert names == looked_up, name


# --- semidirect extensions ---------------------------------------------------------------

def test_semidirect_by_trivial_module_adds_center():
    s = builtin("sl2").algebra
    entry = semidirect(s, trivial_rep(s, 1))
    g = entry.algebra
    assert g.dim == 4
    assert g.jacobi_violations() == []
    assert entry.known_radical.dim == 1
    assert radical(g) == entry.known_radical
    assert g.center().dim == 1


def test_semidirect_by_weight_one_module():
    s = builtin("sl2").algebra
    entry = semidirect(s, sl2_irrep(1))
    g = entry.algebra
    assert g.dim == 5
    assert g.jacobi_violations() == []
    assert entry.known_radical.dim == 2
    assert g.derived_subalgebra().is_full()
    # the module really is abelian inside the extension
    v1 = g.basis_element(3)
    v2 = g.basis_element(4)
    assert g.bracket(v1, v2) == (0,) * 5


def test_semidirect_module_bracket_matches_action():
    s = builtin("sl2").algebra
    rep = sl2_irrep(2)
    g = semidirect(s, rep).algebra
    for i in range(3):
        x = s.basis_element(i)
        mat = rep.action(x)
        for j in range(3):
            full = g.bracket(
                tuple(x) + (0,) * 3,
                (0,) * 3 + tuple(1 if k == j else 0 for k in range(3)),
            )
            assert full[:3] == (0, 0, 0)
            assert full[3:] == tuple(mat.entries[r][j] for r in range(3))


def test_semidirect_reproduces_nonabelian2():
    line = builtin("abelian(1)").algebra
    entry = semidirect(line, one_dim_rep(line, (1,)))
    g = entry.algebra
    assert g.dim == 2
    assert g.table == {(0, 1): {1: F(1)}}
    assert radical(g).is_full()


def test_semidirect_name_collisions_resolved():
    s = builtin("sl2").algebra.change_of_basis(Matrix.identity(3), ["v1", "v2", "v1_"])
    g = semidirect(s, trivial_rep(s, 2)).algebra
    assert g.basis_names == ("v1", "v2", "v1_", "v1__", "v2_")


def test_semidirect_rejects_foreign_representation():
    s = builtin("sl2").algebra
    other = adjoint_rep(builtin("so3").algebra)
    with pytest.raises(ValueError):
        semidirect(s, other)


@pytest.mark.parametrize("call, expected", [
    pytest.param(lambda: semidirect(builtin("sl2").algebra, Representation(
        builtin("sl2").algebra, 1, (Matrix.identity(1), Matrix.zero(1, 1), Matrix.zero(1, 1)),
        "broken")), (ValueError, "representation fails the homomorphism law"),
        id="semidirect-homomorphism-law"),
])
def test_every_guard_answers_as_documented(call, expected):
    assert outcome(call) == expected


def test_a_semidirect_extension_checks_jacobi_once(monkeypatch):
    sl2 = builtin("sl2").algebra
    s = LieAlgebra(sl2.dim, ["fresh_e", "fresh_h", "fresh_f"], sl2.table)
    rep = trivial_rep(s, 1)
    checks = []
    jacobi = LieAlgebra.jacobi_violations
    monkeypatch.setattr(LieAlgebra, "jacobi_violations",
                        lambda g: checks.append(g) or jacobi(g))
    semidirect(s, rep)
    assert list(map(id, checks)) == [id(s)]  # s with the homomorphism law gives the extension's


def test_semidirect_reports_a_jacobi_failure_of_the_base_algebra():
    """A base algebra that breaks Jacobi, with a representation that passes the
    homomorphism law, is refused with the Jacobi ValueError, not a radical error."""
    s = LieAlgebra(3, "x y z".split(), {(0, 1): {2: 1}, (0, 2): {0: 1}})
    with pytest.raises(ValueError, match=r"Jacobi identity fails on basis triple \(x, y, z\)"):
        semidirect(s, trivial_rep(s, 1))


def test_semidirect_validates_across_small_catalog_pairs():
    for name in ("sl2", "so3"):
        s = builtin(name).algebra
        candidates = [trivial_rep(s, 1), trivial_rep(s, 2), adjoint_rep(s)]
        candidates += [r for r in builtin(name).irreducibles if r.dim_v <= 7]
        for rep in candidates:
            entry = semidirect(s, rep)
            assert entry.algebra.jacobi_violations() == []
            assert radical(entry.algebra) == entry.known_radical
