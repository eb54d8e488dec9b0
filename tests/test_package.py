"""The package surface: public names load their submodule on first use."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import lienil
from lienil.catalog import builtin
from lienil.cli import render_algebra

SOURCE_ROOT = str(Path(lienil.__file__).resolve().parents[1])


def run_fresh(code: str) -> str:
    """stdout of code run in a new interpreter that imports this lienil."""
    env = {**os.environ, "PYTHONPATH": SOURCE_ROOT}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
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
