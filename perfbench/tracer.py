"""Span tracer for the discrim layers, kept entirely in the benchmark's files.

The discrim modules import functions from one another by name (for example
`census` binds `numtheory.is_prime` as `census.is_prime`), so wrapping only
the defining module would miss most calls. `Tracer.install` therefore rebinds
every attribute of every loaded `discrim.*` module that holds the original
function object, and `Tracer.uninstall` puts each one back.

Spans (name, start, end, parent) live in flat arrays while the workload runs
and are written out once, at the end. Counts come from return values only, so
the library is not touched.
"""

from __future__ import annotations

import array
import importlib
import resource
import sys
from contextlib import contextmanager, nullcontext
from functools import wraps
from time import perf_counter

import numpy as np


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _terms(k):
    return {"terms": k}


def _moduli_tried(rec):
    return {"moduli_tried": rec.value - rec.n + 1}


def _verdict(cert):
    return {cert.verdict: 1}


def _states(info):
    return {"states": info.pre_period + info.period}


def _primes(block):
    return {"primes": len(block)}


# traced function -> (stats reported, count hook on the return value, how to wrap)
# "gen" wraps a generator so each resumption is one span; "rss" also records
# the growth of the process's peak RSS across the call.
LAYERS = {
    "sequences.distinct_prefix_length": (("calls", "busy_s", "self_s", "terms"), _terms, "call"),
    "sequences.term_exact": (("calls", "busy_s"), None, "call"),
    "discriminator.discriminator_brute": (
        ("calls", "busy_s", "self_s", "moduli_tried", "useful_ratio"), _moduli_tried, "call"),
    "discriminator.verify_discriminates": (("calls", "busy_s"), None, "call"),
    "discriminator.nonvalue_screen": (
        ("calls", "busy_s", "self_s", "non_value", "undecided"), _verdict, "call"),
    "discriminator.recheck_certificate": (("calls", "busy_s", "self_s"), None, "call"),
    "discriminator.image_of_discriminator": (("busy_s",), None, "call"),
    "periods.period_brute": (("calls", "busy_s", "self_s", "states"), _states, "call"),
    "periods.salajan_period_formula": (("calls", "busy_s", "self_s"), None, "call"),
    "periods.incongruence_index": (("calls", "busy_s", "self_s"), None, "call"),
    "periods.iota_equals_rho_scan": (("busy_s",), None, "call"),
    "numtheory.is_prime": (("calls", "busy_s", "self_s"), None, "call"),
    "numtheory.factorize": (("calls", "busy_s", "self_s"), None, "call"),
    "numtheory.mult_order": (("calls", "busy_s", "self_s"), None, "call"),
    "numtheory.iter_prime_blocks": (("busy_s", "primes"), _primes, "gen"),
    "numtheory.artin_constant": (("busy_s",), None, "call"),
    "census.census_scan": (("busy_s", "self_s"), None, "call"),
    "census.classify_prime": (("calls", "busy_s", "self_s"), None, "call"),
    "census.fset_count": (("busy_s",), None, "call"),
    "census.fset_member_weyl": (("calls", "busy_s"), None, "call"),
    "census.fset_member_interval": (("calls",), None, "call"),
    "census.fset_scan_interval": (("busy_s", "maxrss_growth_mb"), None, "rss"),
    "charsum.build_A": (("calls", "busy_s"), None, "call"),
    "charsum.max_nontrivial_char_sum": (("calls", "busy_s"), None, "call"),
    "cli.run": (("calls", "busy_s", "self_s"), None, "call"),
}

# suites the workloads run; the benchmark opens a span around each call
SUITES = ("theorem1", "census", "artin", "fset", "screen", "periods", "iota-anchors", "iota-bounds")

_UNITS = {"busy_s": "s", "self_s": "s", "useful_ratio": "ratio", "maxrss_growth_mb": "MB"}
_HIGHER = {"useful_ratio", "non_value"}


def layer_metric_specs() -> list[dict]:
    """Every per-layer metric a traced run reports, in BENCHMARK.json form."""
    specs = []
    for fn, (stats, _, _) in LAYERS.items():
        for stat in stats:
            specs.append({
                "name": f"{fn}.{stat}",
                "unit": _UNITS.get(stat, "count"),
                "better": "higher" if stat in _HIGHER else "lower",
            })
    for suite in SUITES:
        specs.append({"name": f"verify.{suite}.busy_s", "unit": "s", "better": "lower"})
    specs.append({"name": "trace_overhead_s", "unit": "s", "better": "lower"})
    specs.append({"name": "trace.top_span_coverage", "unit": "ratio", "better": "higher"})
    return specs


NULL_SPAN = nullcontext()


class NullTracer:
    """Stand-in for untraced passes: spans cost one attribute lookup."""

    def span(self, name):
        return NULL_SPAN


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def _add(self, name: str, stats: dict) -> None:
        for stat, value in stats.items():
            key = f"{name}.{stat}"
            self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._id(name))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, count, how: str):
        nid = self._id(name)
        open_, close, add = self._open, self._close, self._add

        if how == "gen":
            @wraps(fn)
            def traced_gen(*args, **kwargs):
                it = fn(*args, **kwargs)
                try:
                    while True:
                        idx = open_(nid)
                        try:
                            item = next(it)
                        except StopIteration:
                            return
                        finally:
                            close(idx)
                        add(name, count(item))
                        yield item
                finally:
                    it.close()
            return traced_gen

        @wraps(fn)
        def traced(*args, **kwargs):
            before = _maxrss_mb() if how == "rss" else 0.0
            idx = open_(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if how == "rss":
                add(name, {"maxrss_growth_mb": _maxrss_mb() - before})
            if count is not None:
                add(name, count(result))
            return result
        return traced

    def install(self) -> None:
        """Rebind every discrim module attribute bound to a traced function."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        originals = {}
        for name in LAYERS:
            module, fn = name.split(".")
            originals[name] = getattr(importlib.import_module(f"discrim.{module}"), fn)
        modules = [m for key, m in sys.modules.items() if key == "discrim" or key.startswith("discrim.")]
        for name, orig in originals.items():
            stats, count, how = LAYERS[name]
            wrapper = self._wrap(name, orig, count, how)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, orig))

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._undo):
            setattr(mod, attr, orig)
        self._undo.clear()

    def _arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return ids, parent, dur

    def top_level_s(self) -> float:
        """Summed duration of spans without a parent."""
        _, parent, dur = self._arrays()
        return float(dur[parent < 0].sum())

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics for every traced function and suite, 0 where unreached.

        A span's self time is its duration minus that of its direct children;
        one thread runs everything, so children never overlap.
        """
        ids, parent, dur = self._arrays()
        n_names = len(self.names)
        child = parent >= 0
        covered = np.bincount(parent[child], weights=dur[child], minlength=len(dur))
        self_dur = dur - covered
        calls = np.bincount(ids, minlength=n_names)
        busy = np.bincount(ids, weights=dur, minlength=n_names)
        self_t = np.bincount(ids, weights=self_dur, minlength=n_names)

        def per_name(name, arr):
            i = self._ids.get(name)
            return 0 if i is None else arr[i].item()

        out = {}
        for name, (stats, _, _) in LAYERS.items():
            for stat in stats:
                if stat == "calls":
                    value = per_name(name, calls)
                elif stat == "busy_s":
                    value = per_name(name, busy)
                elif stat == "self_s":
                    value = per_name(name, self_t)
                elif stat == "useful_ratio":
                    tried = self.counts.get(f"{name}.moduli_tried", 0)
                    value = per_name(name, calls) / tried if tried else 0.0
                else:
                    value = self.counts.get(f"{name}.{stat}", 0)
                out[f"{name}.{stat}"] = value
        for suite in SUITES:
            out[f"verify.{suite}.busy_s"] = per_name(f"verify.{suite}", busy)
        return out

    def dump(self, path) -> None:
        ids, parent, dur = self._arrays()
        np.savez(
            path,
            names=np.array(self.names),
            name_id=ids,
            parent=parent,
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
