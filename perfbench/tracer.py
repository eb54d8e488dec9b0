"""Span wrappers for the traced benchmark run.

``install`` replaces public lienil entry points with wrappers, in every
``lienil.*`` namespace that binds them, so calls made inside the library are
recorded as well.  It is called only in the traced process, after set-up.
Spans are aggregated in memory by call path (the span names from the root
down), each with a call count, its total time and its self time: the
duration minus the time covered by its child spans.  ``export`` returns them
for writing out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# (span name, module, attribute); the first part of a span name is its layer.
ENTRY_POINTS = (
    ("linalg.from_vectors", "lienil.linalg", "Subspace.from_vectors"),
    ("linalg.kernel_image", "lienil.linalg", "kernel_image"),
    ("linalg.solve", "lienil.linalg", "solve"),
    ("linalg.char_poly", "lienil.linalg", "char_poly"),
    ("linalg.power_sums", "lienil.linalg", "power_sums_from_char_poly"),
    ("linalg.nilpotency_exponent", "lienil.linalg", "nilpotency_exponent"),
    ("liealg.bracket", "lienil.liealg", "LieAlgebra.bracket"),
    ("liealg.derived_subalgebra", "lienil.liealg", "LieAlgebra.derived_subalgebra"),
    ("liealg.quotient", "lienil.liealg", "LieAlgebra.quotient"),
    ("liealg.jacobi_violations", "lienil.liealg", "LieAlgebra.jacobi_violations"),
    ("semisimple.radical", "lienil.semisimple", "radical"),
    ("semisimple.killing_matrix", "lienil.semisimple", "killing_matrix"),
    ("semisimple.semisimple_quotient", "lienil.semisimple", "semisimple_quotient"),
    ("semisimple.is_nilpotent_element_image", "lienil.semisimple",
     "is_nilpotent_element_image"),
    ("reps.action", "lienil.reps", "Representation.action"),
    ("reps.acts_nilpotently", "lienil.reps", "acts_nilpotently"),
    ("oracle.nilpotent_in_all_reps", "lienil.oracle", "nilpotent_in_all_reps"),
    ("oracle.find_witness", "lienil.oracle", "find_witness"),
    ("oracle.build_corpus", "lienil.oracle", "build_corpus"),
    ("oracle.cross_validate", "lienil.oracle", "cross_validate"),
    ("cli.parse_algebra", "lienil.cli", "parse_algebra"),
    ("cli.run", "lienil.cli", "run"),
)

# lru_cache'd entry points whose hit ratio is reported as semisimple.cache_hit_ratio.
SEMISIMPLE_CACHES = ("semisimple.radical", "semisimple.killing_matrix",
                     "semisimple.semisimple_quotient")


def _max_bits(values) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length()) for x in values),
               default=0)


class Tracer:
    """Aggregated spans plus the counters read off returned values."""

    def __init__(self):
        self.nodes: dict[tuple[str, ...], list] = {}  # path -> [calls, total_s, self_s]
        self._stack: list[list] = []  # [path, seconds covered by children]
        self.originals: dict[str, object] = {}
        self.max_bits = 0
        self._corpora: dict[int, object] = {}  # id -> corpus; holding it keeps ids unique
        self.corpus_members = 0
        self.dim0_members = 0
        self._cache_base = (0, 0)

    def wrap(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            path = self._stack[-1][0] + (name,) if self._stack else (name,)
            frame = [path, 0.0]
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self._stack.pop()
                node = self.nodes.setdefault(path, [0, 0.0, 0.0])
                node[0] += 1
                node[1] += duration
                node[2] += duration - frame[1]
                if self._stack:
                    self._stack[-1][1] += duration
            if after is not None:
                hook_start = time.perf_counter()
                after(result)
                if self._stack:  # hook time is tracing overhead, not the caller's work
                    self._stack[-1][1] += time.perf_counter() - hook_start
            return result
        return traced

    def _bits(self, values) -> None:
        self.max_bits = max(self.max_bits, _max_bits(values))

    def _corpus(self, members) -> None:
        if id(members) in self._corpora:
            return
        self._corpora[id(members)] = members
        self.corpus_members += len(members)
        self.dim0_members += sum(
            1 for m in members
            if m.dim == 0 or (m.kind == "sum" and any(members[o].dim == 0 for o in m.operands)))

    def cache_counts(self) -> tuple[int, int]:
        hits = misses = 0
        for name in SEMISIMPLE_CACHES:
            info = getattr(self.originals.get(name), "cache_info", None)
            if info is not None:
                hits += info().hits
                misses += info().misses
        return hits, misses

    def export(self) -> dict:
        hits, misses = self.cache_counts()
        return {
            "nodes": [{"path": "/".join(path), "name": path[-1],
                       "parent": "/".join(path[:-1]) or None,
                       "calls": calls, "total_s": total, "self_s": own}
                      for path, (calls, total, own) in sorted(self.nodes.items())],
            "max_bits": self.max_bits,
            "corpus_members": self.corpus_members,
            "dim0_members": self.dim0_members,
            "cache_hits": hits - self._cache_base[0],
            "cache_misses": misses - self._cache_base[1],
        }


def install(tracer: Tracer) -> None:
    """Wrap every entry point that exists; a renamed or removed one is skipped."""
    hooks = {"linalg.char_poly": tracer._bits, "linalg.power_sums": tracer._bits,
             "oracle.build_corpus": tracer._corpus}
    for name, module_name, attribute in ENTRY_POINTS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            continue
        owner_name, _, member = attribute.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name, None)
            raw = vars(owner).get(member) if owner is not None else None
            if isinstance(raw, classmethod):
                tracer.originals[name] = raw.__func__
                setattr(owner, member, classmethod(tracer.wrap(name, raw.__func__, hooks.get(name))))
            elif callable(raw):
                tracer.originals[name] = raw
                setattr(owner, member, tracer.wrap(name, raw, hooks.get(name)))
            continue
        original = getattr(module, member, None)
        if original is None:
            continue
        tracer.originals[name] = original
        wrapped = tracer.wrap(name, original, hooks.get(name))
        for loaded_name, loaded in list(sys.modules.items()):
            if loaded is None or not (loaded_name == "lienil" or loaded_name.startswith("lienil.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, wrapped)
    tracer._cache_base = tracer.cache_counts()


def merge(into: dict, other: dict) -> dict:
    """Combine two exports, as for spans recorded in separate processes."""
    nodes = {n["path"]: dict(n) for n in into.get("nodes", [])}
    for n in other["nodes"]:
        if n["path"] in nodes:
            for key in ("calls", "total_s", "self_s"):
                nodes[n["path"]][key] += n[key]
        else:
            nodes[n["path"]] = dict(n)
    return {
        "nodes": [nodes[p] for p in sorted(nodes)],
        "max_bits": max(into.get("max_bits", 0), other["max_bits"]),
        "corpus_members": into.get("corpus_members", 0) + other["corpus_members"],
        "dim0_members": into.get("dim0_members", 0) + other["dim0_members"],
        "cache_hits": into.get("cache_hits", 0) + other["cache_hits"],
        "cache_misses": into.get("cache_misses", 0) + other["cache_misses"],
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, traced_wall_s: float, untraced_wall_s: float,
                  import_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics by name, each with its unit, from one traced pass."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for n in trace["nodes"]:
        calls[n["name"]] = calls.get(n["name"], 0) + n["calls"]
        self_s[n["name"]] = self_s.get(n["name"], 0.0) + n["self_s"]
    metrics: dict[str, tuple[float, str]] = {}
    for name, _, _ in ENTRY_POINTS:
        metrics[f"{name}.calls"] = (calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    total_self = sum(self_s.values())
    structure_self = sum(v for k, v in self_s.items()
                         if k.startswith(("liealg.", "semisimple.")))
    metrics.update({
        "linalg.max_bits": (trace["max_bits"], "count"),
        "liealg.derived_per_verdict": (_ratio(calls.get("liealg.derived_subalgebra", 0),
                                              calls.get("oracle.nilpotent_in_all_reps", 0)),
                                       "ratio"),
        "semisimple.cache_hit_ratio": (_ratio(trace["cache_hits"],
                                              trace["cache_hits"] + trace["cache_misses"]),
                                       "ratio"),
        "oracle.corpus_members": (trace["corpus_members"], "count"),
        "oracle.dim0_member_share": (_ratio(trace["dim0_members"], trace["corpus_members"]),
                                     "ratio"),
        "cli.import_s": (import_s, "s"),
        "structure.self_share": (_ratio(structure_self, total_self), "ratio"),
        "trace.overhead_ratio": (_ratio(traced_wall_s, untraced_wall_s), "ratio"),
    })
    return metrics
