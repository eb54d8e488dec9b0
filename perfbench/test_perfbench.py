"""Tests of the benchmark itself: its reference, its checks and its trace.

Run from the repository root with: python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from lienil import oracle  # noqa: E402
from lienil.catalog import semidirect, sl2_irrep, builtin, standard_entries  # noqa: E402

# Layer metrics that are counts, which must repeat exactly at a given seed.
COUNTS = ("linalg.max_bits", "oracle.corpus_members", "oracle.dim0_member_share",
          "liealg.derived_per_verdict")


def _catalog_elements(g, rng: random.Random) -> list[tuple]:
    """Basis elements, their pairwise sums and a few seeded rational elements."""
    singles = [g.basis_element(i) for i in range(g.dim)]
    return (singles
            + [tuple(x + y for x, y in zip(singles[i], singles[j]))
               for i in range(g.dim) for j in range(i + 1, g.dim)]
            + [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(g.dim))
               for _ in range(20)])


def test_reference_agrees_with_the_oracle_on_catalog_elements():
    cases = [(e.algebra, e.known_derived.basis) for e in standard_entries()]
    ext = semidirect(builtin("sl2").algebra, sl2_irrep(1)).algebra
    cases.append((ext, [ext.basis_element(k) for k in range(ext.dim)]))
    rng = random.Random(7)
    checked = 0
    for g, derived in cases:
        for a in _catalog_elements(g, rng):
            assert reference.verdict(g.table, g.dim, derived, a) == \
                oracle.nilpotent_in_all_reps(g, a).answer, (g.basis_names, a)
            checked += 1
    assert checked > 400


def test_reference_nilpotency_and_power_traces():
    assert reference.is_nilpotent([[0, 1], [0, 0]])
    assert not reference.is_nilpotent([[1, 0], [0, -1]])
    assert reference.has_nonzero_power_trace([[1, 0], [0, -1]])  # trace 0, trace of square 2
    assert not reference.has_nonzero_power_trace([[0, 1], [0, 0]])


def _small_inputs(name: str):
    """Inputs cut down to a few cheap operations."""
    inputs = workloads.WORKLOADS[name].setup(3)
    if name == "crosscheck-d2":
        inputs.order = [o for o in inputs.order if o[0] in (1, 2)][:4]  # heisenberg, gl2
    elif name == "cli-cold":
        inputs.calls = [c for c in inputs.calls if c[1] in ("oracle", "crosscheck")][:3]
    else:
        inputs.moved = inputs.moved[:6]
    return inputs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_an_injected_wrong_reference_answer_fails_every_affected_operation(name, monkeypatch):
    workload = workloads.WORKLOADS[name]
    inputs = _small_inputs(name)
    ops = workload.run(inputs, None)
    assert ops and workload.check(inputs, ops).failed == 0
    right = reference.verdict
    monkeypatch.setattr(reference, "verdict", lambda *args: not right(*args))
    assert workload.check(inputs, ops).failed == len(ops)


def _traced_counts(workload: str) -> dict:
    """The counts of one full traced pass, as the benchmark reports them."""
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), workload, "5", "traced"],
                          cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    metrics = tracer.layer_metrics(result["spans"], 1.0, 1.0, 0.0)
    return {k: v for k, (v, _) in metrics.items() if k.endswith(".calls") or k in COUNTS}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat_at_the_same_seed(workload):
    first = _traced_counts(workload)
    assert sum(v for k, v in first.items() if k.endswith(".calls")) > 0
    assert _traced_counts(workload) == first


def test_benchmark_json_names_every_layer_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    empty = {"nodes": [], "max_bits": 0, "corpus_members": 0, "dim0_members": 0,
             "cache_hits": 0, "cache_misses": 0}
    emitted = tracer.layer_metrics(empty, 1.0, 1.0, 0.0)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in emitted.items()]


def test_the_run_fails_without_the_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decide-moved", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
