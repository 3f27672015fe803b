"""Runs one workload in this interpreter and prints its result as one JSON line.

`run.py` starts this file in a fresh child process, with the checkout's `src`
on PYTHONPATH and every thread-count knob set to 1. Untraced, it runs
--seconds // PASS_SECONDS[workload] passes of the workload (at least one).
Traced, it runs one traced pass and then one untraced pass.
"""

from __future__ import annotations

import argparse
import array
import json
import resource
import signal
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import discrim
import tracer as tracing
import workloads
from speedprobe import REFERENCE_S, probe_once
from tracer import NULL_SPAN

ROOT = Path(__file__).resolve().parent.parent


def tail(values) -> float:
    """The highest percentile that still has at least ten samples beyond it."""
    ordered = sorted(values)
    return ordered[max(0, len(ordered) - 11)]


class SpeedProbe:
    """Samples how fast this CPU runs Python while a pass runs.

    On a shared host the same pass can take tens of percent longer from one
    minute to the next. Every 40 ms (SIGALRM) the probe times a fixed loop,
    and a time is scaled by REFERENCE_S / median(probe time) around it. That
    cancels the host's swings but not a change in discrim's own speed. A
    signal handler runs between bytecodes of the main thread, so each probe
    lies wholly inside or wholly outside any timed interval, and its own time
    is taken out exactly.
    """

    INTERVAL_S = 0.04

    def __init__(self):
        self.starts = array.array("d")
        self.durations = array.array("d")

    def _probe(self, signum, frame):
        self.starts.append(perf_counter())
        self.durations.append(probe_once())

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old)

    def net(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """t1 - t0 less the probe time spent inside each interval."""
        cum = np.concatenate(([0.0], np.cumsum(self.durations)))
        starts = np.frombuffer(self.starts, dtype=np.float64)
        return t1 - t0 - (cum[np.searchsorted(starts, t1)] - cum[np.searchsorted(starts, t0)])

    def scale(self, t0: np.ndarray, t1: np.ndarray, pad: float = 0.0) -> np.ndarray:
        """REFERENCE_S over the median probe time in each [t0 - pad, t1 + pad]."""
        starts = np.frombuffer(self.starts, dtype=np.float64)
        durations = np.frombuffer(self.durations, dtype=np.float64)
        lo = np.searchsorted(starts, t0 - pad)
        hi = np.searchsorted(starts, t1 + pad)
        return np.array([REFERENCE_S / np.median(durations[i:j]) if j > i else 1.0 for i, j in zip(lo, hi)])


class PassResult:
    def __init__(self):
        self.start = self.end = 0.0
        self.call_s = 0.0
        self.unit_t0 = array.array("d")   # intervals of the latency unit's operations
        self.unit_t1 = array.array("d")
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def run_pass(ops, tracer, unit: str) -> PassResult:
    res = PassResult()
    res.start = perf_counter()
    for op in ops:
        t0 = perf_counter()
        t1 = None
        try:
            with tracer.span(op.span) if op.span else NULL_SPAN:
                out = op.call()
            t1 = perf_counter()
            ok = op.check(out)
        except Exception:   # a raising call or check is a failed operation, not a crash
            t1 = t1 or perf_counter()
            ok = False
            if res.first_failure is None:
                res.first_failure = f"{op.kind}: {traceback.format_exc(limit=3)}"
        res.attempted += 1
        res.call_s += t1 - t0
        if op.kind == unit:
            res.unit_t0.append(t0)
            res.unit_t1.append(t1)
        if not ok:
            res.failed += 1
            if res.first_failure is None:
                res.first_failure = f"{op.kind}: wrong result"
    res.end = perf_counter()
    return res


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: medians over passes of speed-scaled pass and unit times.

    The number of passes is fixed by --seconds, not by how many fit in it:
    a census pass after the first runs 6-40% slower, so a count that follows
    the host's speed would move the medians.
    """
    # the cli workload's work happens in CLI children; report the largest one
    spawner = workloads.Spawner() if workload == "cli" else None
    try:
        ops = workloads.operations(workload, workloads.inputs(workload, seed), spawner=spawner)
        unit = workloads.LATENCY_UNIT[workload]
        null = tracing.NullTracer()
        passes, stats, raw = [], [], []
        for _ in range(max(1, int(seconds // workloads.PASS_SECONDS[workload]))):
            with SpeedProbe() as probe:
                res = run_pass(ops, null, unit)
            passes.append(res)
            span = np.array([res.start]), np.array([res.end])
            t0, t1 = np.frombuffer(res.unit_t0), np.frombuffer(res.unit_t1)
            # a unit is scaled by the probes within 0.25 s of it, because the
            # host's speed drifts within a pass
            lat = probe.net(t0, t1) * probe.scale(t0, t1, pad=0.25)
            wall = (probe.net(*span) * probe.scale(*span))[0]
            stats.append((wall, statistics.median(lat), tail(lat)))
            raw.append((res.wall_s, statistics.median(t1 - t0), tail(t1 - t0), statistics.median(probe.durations)))
        peak_mb = spawner.peak_rss_mb() if spawner else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        if spawner:
            spawner.close()
    wall, p50, tail_ = (statistics.median(col) for col in zip(*stats))
    raw_wall, raw_p50, raw_tail, probe_s = (statistics.median(col) for col in zip(*raw))
    return {
        "passes": passes,
        "metrics": {
            "wall_s": wall,
            "peak_rss_mb": peak_mb,
            "op_p50_ms": p50 * 1e3,
            "op_tail_ms": tail_ * 1e3,
        },
        "raw": {
            "wall_s": raw_wall,
            "op_p50_ms": raw_p50 * 1e3,
            "op_tail_ms": raw_tail * 1e3,
            "probe_us": probe_s * 1e6,
            "latency_samples_per_pass": len(passes[0].unit_t0),
        },
    }


def measure_traced(workload: str, seed: int, trace_path: Path) -> dict:
    """Per-layer metrics from one traced pass, then one untraced pass.

    The traced pass runs first, in a fresh process, so the peak-RSS growth
    across fset_scan_interval is not hidden by an earlier pass.
    """
    ops = workloads.operations(workload, workloads.inputs(workload, seed), in_process=True)
    unit = workloads.LATENCY_UNIT[workload]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = run_pass(ops, tracer, unit)
    finally:
        tracer.uninstall()
    plain = run_pass(ops, tracing.NullTracer(), unit)
    metrics = tracer.layer_metrics()
    metrics["trace_overhead_s"] = traced.wall_s - plain.wall_s
    # share of the time spent inside the workload's calls, checking excluded,
    # that parentless layer spans account for
    metrics["trace.top_span_coverage"] = tracer.top_level_s() / traced.call_s
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    tracer.dump(trace_path)
    return {"passes": [traced, plain], "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", type=Path, required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(discrim.__file__).resolve().parents:
        print(f"worker: discrim was imported from {discrim.__file__}, not from {src}", file=sys.stderr)
        return 2

    if args.trace:
        out = measure_traced(args.workload, args.seed, args.trace_out)
    else:
        out = measure(args.workload, args.seed, args.seconds)
    passes = out["passes"]
    failures = [p.first_failure for p in passes if p.first_failure]
    for msg in failures[:1]:
        print(f"worker: first failed operation: {msg}", file=sys.stderr)
    print(json.dumps({
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "numpy": np.__version__,
        "metrics": out["metrics"],
        "raw": out.get("raw"),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
