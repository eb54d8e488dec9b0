"""The benchmark's workloads: seeded inputs, one pass over them, and its checks.

A workload is set up and passed over in a fresh interpreter (see
``worker.py``), so lienil's module-level caches start empty on every pass.
Every lienil entry point is called through its module attribute at call
time, so that the traced run's wrappers see it.  Outputs are kept and
checked after the pass against ``reference``, which never calls
``lienil.oracle``.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from lienil import catalog, linalg, oracle
from lienil.cli import render_algebra

import reference
import tracer as tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


@dataclass
class Op:
    """One timed operation and what it returned (or the error it raised)."""

    key: tuple
    seconds: float
    kind: str  # latency class: "cold", "warm", "report" or "call"
    units: int  # operations it counts for in throughput
    output: object = None
    error: str | None = None


@dataclass
class Check:
    """Failed operations: an error, an exit code other than 0, a wrong verdict or
    an inconsistent report.  Any failure makes the run incorrect."""

    failed: int = 0
    notes: list = field(default_factory=list)  # the first few failures

    def fail(self, op: Op, message: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{op.key}: {message}")


def _timed(fn, *args, **kwargs):
    start = time.perf_counter()
    try:
        return fn(*args, **kwargs), None, time.perf_counter() - start
    except Exception as exc:  # recorded and counted as a failed operation
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - start


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3)))


def _rows(matrix) -> list[list[Fraction]]:
    return [list(r) for r in matrix.entries]


# --- decide-moved -------------------------------------------------------------

# Rounds per pass: each round rewrites every standard entry once.
DECIDE_ROUNDS = 4
DECIDE_SEEDED_ELEMENTS = 3


@dataclass
class DecideInputs:
    entries: list
    elements: list  # per entry: its basis elements, then seeded rationals
    moved: list  # (entry index, moved algebra, transported elements)


def decide_setup(seed: int) -> DecideInputs:
    rng = random.Random(seed)
    entries = catalog.standard_entries()
    elements = [[entry.algebra.basis_element(i) for i in range(entry.algebra.dim)]
                + [tuple(_rational(rng) for _ in range(entry.algebra.dim))
                   for _ in range(DECIDE_SEEDED_ELEMENTS)]
                for entry in entries]
    moved = []
    for _ in range(DECIDE_ROUNDS):
        for index, entry in enumerate(entries):
            g = entry.algebra
            while True:
                p = linalg.Matrix.from_rows(
                    [[rng.randint(-3, 3) for _ in range(g.dim)] for _ in range(g.dim)])
                p_inv = linalg.invert(p)
                if p_inv is not None:
                    break
            # Names of their own make every moved algebra a new cache key, even
            # where two basis changes give the same structure constants.
            names = [f"b{i}_{len(moved)}" for i in range(g.dim)]
            moved.append((index, g.change_of_basis(p, names),
                          [p_inv.apply(a) for a in elements[index]]))
    return DecideInputs(entries, elements, moved)


def decide_run(inputs: DecideInputs, child_spans: dict | None) -> list[Op]:
    ops = []
    for index, algebra, transported in inputs.moved:
        for k, a in enumerate(transported):
            verdict, error, seconds = _timed(oracle.nilpotent_in_all_reps, algebra, a)
            ops.append(Op((index, k), seconds, "cold" if k == 0 else "warm", 1, verdict, error))
    return ops


def decide_check(inputs: DecideInputs, ops: list[Op]) -> Check:
    """Each verdict must match the reference verdict of its untransported element."""
    check = Check()
    expected: dict[tuple, bool] = {}
    for op in ops:
        if op.error is not None:
            check.fail(op, op.error)
            continue
        index, k = op.key
        entry = inputs.entries[index]
        if op.key not in expected:
            expected[op.key] = reference.verdict(
                entry.algebra.table, entry.algebra.dim, entry.known_derived.basis,
                inputs.elements[index][k])
        v = op.output
        if v.answer != expected[op.key]:
            check.fail(op, f"{entry.name}: answer {v.answer}, reference {expected[op.key]}")
        elif (v.answer != (v.in_derived and v.image_nilpotent)
              or v.radical_dim != entry.known_radical.dim
              or v.derived_dim != entry.known_derived.dim):
            check.fail(op, f"{entry.name}: inconsistent verdict {v}")
    return check


# --- crosscheck-d2 ------------------------------------------------------------

CROSSCHECK_DEPTH = 2
CROSSCHECK_MAX_DIM = 128
EXTENSION = "semidirect(sl2, V1)"

# (algebra, basis indices of the two ad-nilpotent elements whose exponentials
# the seed combines into an inner automorphism, representative elements).
# An inner automorphism leaves every corpus member's trace power sums
# unchanged, so seeds vary the coordinates but not the work per report.
CROSSCHECK_CASES = (
    ("sl2", (0, 2), ((1, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 1), (1, 1, 0))),
    ("heisenberg", (0, 1), ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1))),
    ("gl2", (1, 2), ((0, 1, 0, 0), (1, 0, 0, 1), (1, 1, 0, 1))),
    (EXTENSION, (0, 2), (
        (3, -1, Fraction(-3, 2), 3, Fraction(-3, 2)),
        (-3, Fraction(-1, 3), -4, -1, Fraction(-2, 3)),
        (4, -1, 2, -1, 1),
        (Fraction(-1, 3), 2, 0, Fraction(-1, 3), 1),
        (1, 0, 0, 1, -1),
    )),
)


@dataclass
class CrosscheckInputs:
    algebras: list
    derived: list  # hand-declared derived subalgebra basis per algebra
    elements: list  # per algebra: automorphic images of the representatives
    order: list  # (algebra index, element index) in seeded order


def crosscheck_setup(seed: int) -> CrosscheckInputs:
    rng = random.Random(seed)
    sl2 = catalog.builtin("sl2").algebra
    # irreducibles_for looks these up; their catalog verification is set-up work.
    for name in ("sl3", "so3"):
        catalog.builtin(name)
    algebras, derived, elements = [], [], []
    for name, (i, j), representatives in CROSSCHECK_CASES:
        if name == EXTENSION:
            g = catalog.semidirect(sl2, catalog.sl2_irrep(1), EXTENSION).algebra
            basis = [g.basis_element(k) for k in range(g.dim)]  # [g, g] = g, by hand
        else:
            entry = catalog.builtin(name)
            g, basis = entry.algebra, entry.known_derived.basis
        t, s = rng.choice((-2, -1, 1, 2)), rng.choice((-2, -1, 1, 2))
        x = reference.exp_nilpotent(
            reference.ad_rows(g.table, g.dim, [Fraction(t * (k == i)) for k in range(g.dim)]))
        y = reference.exp_nilpotent(
            reference.ad_rows(g.table, g.dim, [Fraction(s * (k == j)) for k in range(g.dim)]))
        algebras.append(g)
        derived.append(basis)
        elements.append([reference.apply(x, reference.apply(y, [Fraction(c) for c in a]))
                         for a in representatives])
    order = [(c, e) for c in range(len(algebras)) for e in range(len(elements[c]))]
    rng.shuffle(order)
    return CrosscheckInputs(algebras, derived, elements, order)


def crosscheck_run(inputs: CrosscheckInputs, child_spans: dict | None) -> list[Op]:
    ops = []
    for c, e in inputs.order:
        report, error, seconds = _timed(
            oracle.cross_validate, inputs.algebras[c], inputs.elements[c][e],
            depth=CROSSCHECK_DEPTH, max_dim=CROSSCHECK_MAX_DIM)
        ops.append(Op((c, e), seconds, "report",
                      len(report.outcomes) if report is not None else 0, report, error))
    return ops


def crosscheck_check(inputs: CrosscheckInputs, ops: list[Op]) -> Check:
    """Verdict against the reference; a positive needs every member nilpotent, a
    negative a witness whose action has a nonzero power trace."""
    check = Check()
    for op in ops:
        if op.error is not None:
            check.fail(op, op.error)
            continue
        c, e = op.key
        g, a, report = inputs.algebras[c], inputs.elements[c][e], op.output
        expected = reference.verdict(g.table, g.dim, inputs.derived[c], a)
        if report.verdict.answer != expected:
            check.fail(op, f"answer {report.verdict.answer}, reference {expected}")
        elif not report.consistent:
            check.fail(op, "report marked inconsistent")
        elif expected and not all(o.nilpotent for o in report.outcomes):
            check.fail(op, "positive verdict with a non-nilpotent corpus member")
        elif not expected and (report.witness is None or not reference.has_nonzero_power_trace(
                reference.combination([_rows(m) for m in report.witness.rep.matrices], a))):
            check.fail(op, "negative verdict without a certified witness")
    return check


# --- cli-cold -----------------------------------------------------------------

CLI_BOOT = "from lienil.cli import main; main()"
CLI_COMMANDS = ("info", "radical", "killing", "nilpotent", "oracle", "crosscheck")
# Catalog files, each with basis elements spanning a subalgebra of ad-nilpotent
# elements of [g, g]; half the seeded elements are drawn from it, so positive
# verdicts occur.  The reference decides every element independently.
CLI_ALGEBRAS = (
    ("sl2", ("e",)),
    ("sl3", ("E12", "E13", "E23")),
    ("gl2", ("E12",)),
    ("upper_triangular(3)", ("E12", "E13", "E23")),
    ("strictly_upper(4)", ("E13", "E14", "E24")),
)


@dataclass
class CliInputs:
    entries: list
    paths: list
    elements: list  # one seeded element per file
    calls: list  # (file index, command) in seeded order


def cli_setup(seed: int) -> CliInputs:
    rng = random.Random(seed)
    out = HERE / "out" / f"cli-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    entries, paths, elements = [], [], []
    for name, nilpotent_names in CLI_ALGEBRAS:
        entry = catalog.builtin(name)
        g = entry.algebra
        path = out / (name.replace("(", "_").replace(")", "") + ".txt")
        path.write_text(render_algebra(g), encoding="utf-8")
        if rng.random() < 0.5:
            picks = [g.index_of(n) for n in nilpotent_names]
            coords = [0] * g.dim
            while not any(coords):
                for k in picks:
                    coords[k] = rng.randint(-2, 2)
            element = tuple(Fraction(c) for c in coords)
        else:
            element = tuple(_rational(rng) for _ in range(g.dim))
        entries.append(entry)
        paths.append(str(path))
        elements.append(element)
    calls = [(f, cmd) for f in range(len(paths)) for cmd in CLI_COMMANDS]
    rng.shuffle(calls)
    return CliInputs(entries, paths, elements, calls)


def _cli_argv(inputs: CliInputs, f: int, command: str) -> list[str]:
    argv = [command, "--format", "json", inputs.paths[f]]
    csv = ",".join(str(c) for c in inputs.elements[f])
    if command in ("nilpotent", "oracle", "crosscheck"):
        argv.append(f"--element={csv}")  # one token: the value may start with "-"
    if command == "oracle":
        argv.append("--witness")
    if command == "crosscheck":
        argv += ["--depth", "1"]
    return argv


def cli_run(inputs: CliInputs, child_spans: dict | None) -> list[Op]:
    """One child interpreter per call, one at a time.

    With child_spans given, each call runs under the tracer and its spans are
    merged into child_spans.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    spans = HERE / "out" / f"spans-{os.getpid()}.json"
    ops = []
    for f, command in inputs.calls:
        args = _cli_argv(inputs, f, command)
        if child_spans is None:
            argv = [sys.executable, "-c", CLI_BOOT, *args]
        else:
            argv = [sys.executable, str(HERE / "cli_traced.py"), str(spans), *args]
        done, error, seconds = _timed(subprocess.run, argv, env=env, capture_output=True,
                                      text=True, timeout=120)
        ops.append(Op((f, command), seconds, "call", 1,
                      (done.returncode, done.stdout, done.stderr) if done else None, error))
        if child_spans is not None and spans.exists():
            child_spans.update(tracing.merge(child_spans,
                                             json.loads(spans.read_text(encoding="utf-8"))))
            spans.unlink()
    return ops


def cli_check(inputs: CliInputs, ops: list[Op]) -> Check:
    """Exit code 0 and the JSON fields against the catalog's declared structure
    and the reference verdict."""
    check = Check()
    for op in ops:
        if op.error is not None:
            check.fail(op, op.error)
            continue
        code, stdout, stderr = op.output
        if code != 0:
            check.fail(op, f"exit code {code}: {stderr.strip()[-200:]}")
            continue
        try:
            payload = json.loads(stdout)
        except ValueError:
            check.fail(op, "output is not JSON")
            continue
        f, command = op.key
        entry, a = inputs.entries[f], inputs.elements[f]
        g = entry.algebra
        expected = {
            "info": {"radical_dim": entry.known_radical.dim,
                     "derived_dim": entry.known_derived.dim},
            "radical": {"dim": entry.known_radical.dim},
            "killing": {"nondegenerate": entry.known_semisimple},
            "nilpotent": {"ad_nilpotent": reference.is_nilpotent(
                reference.ad_rows(g.table, g.dim, a))},
        }.get(command)
        if expected is None:
            answer = reference.verdict(g.table, g.dim, entry.known_derived.basis, a)
            expected = {"answer": answer}
            if command == "oracle":
                expected.update(radical_dim=entry.known_radical.dim,
                                derived_dim=entry.known_derived.dim)
                if not answer:
                    expected["witness_acts_nilpotently"] = False
            else:
                expected["consistent"] = True
        seen = {k: payload.get(k) for k in expected}
        if seen != expected:
            check.fail(op, f"{entry.name} {command}: {seen}, expected {expected}")
    return check


@dataclass(frozen=True)
class Workload:
    setup: object
    run: object
    check: object


WORKLOADS = {
    "decide-moved": Workload(decide_setup, decide_run, decide_check),
    "crosscheck-d2": Workload(crosscheck_setup, crosscheck_run, crosscheck_check),
    "cli-cold": Workload(cli_setup, cli_run, cli_check),
}
