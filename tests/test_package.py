"""The package surface: public names load their submodule on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from fractions import Fraction as F

import pytest

import lienil
from lienil.catalog import CatalogEntry, builtin
from lienil.cli import render_algebra
from lienil.liealg import LieAlgebra, QuotientMap
from lienil.linalg import Matrix, Subspace
from lienil.oracle import CrossCheckReport, RepOutcome, Verdict, Witness
from lienil.reps import Representation, Weight, trivial_rep
from lienil.semisimple import KillingForm

SOURCE_ROOT = str(Path(lienil.__file__).resolve().parents[1])


def run_fresh(code: str, *options: str) -> str:
    """stdout of code run in a new interpreter, given these options, that imports this lienil."""
    env = {**os.environ, "PYTHONPATH": SOURCE_ROOT}
    done = subprocess.run([sys.executable, *options, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


LOADED = "print(sorted(m for m in sys.modules if m.startswith('lienil')))"


def test_importing_the_command_line_loads_no_oracle_reps_or_catalog():
    loaded = run_fresh(f"import sys, lienil.cli; {LOADED}")
    assert loaded.strip() == str(
        ["lienil", "lienil.cli", "lienil.liealg", "lienil.linalg", "lienil.semisimple"])


def test_structure_commands_load_no_oracle_reps_or_catalog(tmp_path):
    path = tmp_path / "sl3.lie"
    path.write_text(render_algebra(builtin("sl3").algebra), encoding="utf-8")
    commands = [["info", str(path)], ["radical", str(path)], ["killing", str(path)],
                ["nilpotent", str(path), "--element", "1,0,0,0,0,0,0,0"]]
    loaded = run_fresh(
        "import io, sys\nfrom lienil.cli import run\n"
        f"assert all(run(argv, out=io.StringIO()) == 0 for argv in {commands!r})\n{LOADED}")
    for module in ("lienil.oracle", "lienil.reps", "lienil.catalog"):
        assert module not in loaded


def test_importing_reps_loads_no_semisimple():
    loaded = run_fresh(f"import sys, lienil.reps; {LOADED}")
    assert "lienil.semisimple" not in loaded


def test_no_command_loads_dataclasses(tmp_path):
    # -S keeps site-packages start-up hooks, which may import dataclasses, out of the count.
    path = tmp_path / "sl2.lie"
    path.write_text(render_algebra(builtin("sl2").algebra), encoding="utf-8")
    commands = [["info", str(path)], ["oracle", "--witness", "--element=0,1,0", str(path)],
                ["crosscheck", "--depth", "1", "--element=0,1,0", str(path)]]
    assert run_fresh(
        "import io, sys\nfrom lienil.cli import run\n"
        f"assert all(run(argv, out=io.StringIO()) == 0 for argv in {commands!r})\n"
        "print('dataclasses' in sys.modules)", "-S") == "False\n"


def _sl2_copy() -> LieAlgebra:
    """An algebra equal to the catalog's sl2 but not the same object."""
    g = builtin("sl2").algebra
    return LieAlgebra(g.dim, g.basis_names, g.table)


# Two equal, distinct values of each value class, and the value's repr.
VALUES = {
    Matrix: (lambda: Matrix.from_rows([[1, F(1, 2)], [0, 3]]),
             lambda: Matrix(2, 2, ((4, 2), (0, 12)), 4),
             "Matrix(rows=2, cols=2, ints=((2, 1), (0, 6)), scale=2)"),
    Subspace: (lambda: Subspace.from_vectors(3, [[2, 0, 4]]),
               lambda: Subspace.from_vectors(3, [[F(1, 2), 0, 1]]),
               "Subspace(ambient_dim=3, rows=((1, 0, 2),))"),
    LieAlgebra: (lambda: builtin("sl2").algebra, _sl2_copy,
                 "LieAlgebra(dim=3, basis_names=('e', 'h', 'f'))"),
    Representation: (lambda: trivial_rep(builtin("abelian(1)").algebra),
                     lambda: trivial_rep(LieAlgebra(1, ("x1",), {})),
                     "Representation(algebra=LieAlgebra(dim=1, basis_names=('x1',)), dim_v=1, "
                     "matrices=(Matrix(rows=1, cols=1, ints=((0,),), scale=1),), "
                     "label='trivial(1)')"),
    Weight: (lambda: Weight(Subspace.from_vectors(2, [[1, 1]]), (F(1, 2),)),
             lambda: Weight(Subspace.from_vectors(2, [[2, 2]]), (F(2, 4),)),
             "Weight(subalgebra=Subspace(ambient_dim=2, rows=((1, 1),)), "
             "values=(Fraction(1, 2),))"),
}


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_compare_and_hash_by_their_fields(cls):
    make, make_again, shown = VALUES[cls]
    a, b = make(), make_again()
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert repr(a) == repr(b) == shown
    for other_cls, (other, _, _) in VALUES.items():
        if other_cls is not cls:
            assert a != other()


@pytest.mark.parametrize("cls", VALUES, ids=lambda cls: cls.__name__)
def test_values_are_frozen(cls):
    value = VALUES[cls][0]()
    for name in [*vars(value), "unset_name"]:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    for name in vars(value):
        with pytest.raises(AttributeError):
            delattr(value, name)


def test_algebra_equality_ignores_its_scale_and_constants():
    g, h = builtin("sl2").algebra, _sl2_copy()
    object.__setattr__(h, "_scale", 7)
    object.__setattr__(h, "_constants", ())
    assert g == h and hash(g) == hash(h)
    assert repr(h) == "LieAlgebra(dim=3, basis_names=('e', 'h', 'f'))"
    assert g != LieAlgebra(3, ("e", "h", "f"), {})


def test_record_fields_keep_their_order():
    assert {cls.__name__: cls._fields for cls in (
        Verdict, Witness, RepOutcome, CrossCheckReport, QuotientMap, KillingForm, CatalogEntry)
    } == {
        "Verdict": ("answer", "in_derived", "image_nilpotent", "radical_dim", "derived_dim"),
        "Witness": ("rep", "case_tag", "exponent_checked"),
        "RepOutcome": ("label", "dim", "nilpotent"),
        "CrossCheckReport": ("verdict", "outcomes", "witness", "witness_acts_nilpotently",
                             "consistent", "depth", "max_dim"),
        "QuotientMap": ("source", "target", "ideal", "projection", "section"),
        "KillingForm": ("algebra", "gram"),
        "CatalogEntry": ("name", "algebra", "known_radical", "known_derived",
                         "known_semisimple", "irreducibles"),
    }
    assert repr(lienil.nilpotent_in_all_reps(builtin("sl2").algebra, (1, 0, 0))) == (
        "Verdict(answer=True, in_derived=True, image_nilpotent=True, radical_dim=0, "
        "derived_dim=3)")


def test_star_import_binds_every_public_name():
    assert run_fresh(
        "from lienil import *\nimport lienil\n"
        "print(all(globals()[n] is getattr(lienil, n) for n in lienil.__all__))") == "True\n"


def test_dir_lists_the_public_names():
    assert set(lienil.__all__) <= set(dir(lienil))


def test_unknown_name_is_an_attribute_error():
    assert run_fresh(
        "import lienil\ntry:\n    lienil.no_such_name\nexcept AttributeError as e:\n    print(e)"
    ) == "module 'lienil' has no attribute 'no_such_name'\n"


def test_catalog_is_the_submodule():
    import lienil.catalog as catalog

    assert lienil.catalog is catalog
    assert lienil.builtin is catalog.builtin
