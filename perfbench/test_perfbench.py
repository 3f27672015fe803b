"""Self-tests of the benchmark: tracer, seeded inputs, count repeatability.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import discrim  # noqa: E402
from discrim import numtheory, verify  # noqa: E402

import run  # noqa: E402
import speedprobe  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _bindings() -> dict:
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "discrim" or name.startswith("discrim.")
        for attr, value in vars(mod).items()
        if callable(value)
    }


def test_tracer_passes_results_and_exceptions_and_restores():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        # census binds numtheory.is_prime by name; both bindings are wrapped
        assert discrim.census.is_prime is numtheory.is_prime
        assert numtheory.is_prime is not before[("discrim.numtheory", "is_prime")]
        assert discrim.discriminator_brute(discrim.salajan(), 20).value == 25
        with pytest.raises(discrim.CapExceeded):
            discrim.discriminator_brute(discrim.parse_spec("linrec:1,2,1,3"), 500)
        blocks = [b.tolist() for b in numtheory.iter_prime_blocks(100, block=40)]
    finally:
        tracer.uninstall()
    assert _bindings() == before
    assert [p for b in blocks for p in b] == numtheory.primes_up_to(100).tolist()

    m = tracer.layer_metrics()
    assert m["discriminator.discriminator_brute.calls"] == 2
    assert m["discriminator.discriminator_brute.moduli_tried"] == 25 - 20 + 1   # only the call that returned
    assert m["numtheory.iter_prime_blocks.primes"] == 25
    assert m["sequences.distinct_prefix_length.calls"] > 0
    assert not tracer._stack
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert tracer.top_level_s() <= sum(e - s for s, e in zip(tracer.start, tracer.end))


def test_closed_form_reference_matches_frozen_table():
    for start, end, value in verify.EXPECTED_TABLE:
        assert workloads.closed_form(start) == workloads.closed_form(end) == value


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seeded_inputs(workload):
    assert workloads.inputs(workload, 7) == workloads.inputs(workload, 7)
    assert workloads.inputs(workload, 7) != workloads.inputs(workload, 8)


# the count metrics each workload is documented to move (README.md, layer map)
REACHED_COUNTS = {
    "theorem1": {
        "sequences.distinct_prefix_length.calls", "sequences.distinct_prefix_length.terms",
        "discriminator.discriminator_brute.calls", "discriminator.discriminator_brute.moduli_tried",
        "discriminator.verify_discriminates.calls",
    },
    "census": {
        "numtheory.is_prime.calls", "numtheory.factorize.calls", "numtheory.mult_order.calls",
        "numtheory.iter_prime_blocks.primes", "census.classify_prime.calls",
        "census.fset_member_weyl.calls", "census.fset_member_interval.calls",
    },
    "certify": {
        "sequences.distinct_prefix_length.calls", "sequences.distinct_prefix_length.terms",
        "discriminator.nonvalue_screen.calls", "discriminator.nonvalue_screen.non_value",
        "discriminator.nonvalue_screen.undecided", "discriminator.recheck_certificate.calls",
        "periods.period_brute.calls", "periods.period_brute.states",
        "periods.salajan_period_formula.calls", "periods.incongruence_index.calls",
        "numtheory.is_prime.calls", "numtheory.factorize.calls", "numtheory.mult_order.calls",
    },
    "cli": {
        "sequences.term_exact.calls", "charsum.build_A.calls", "charsum.max_nontrivial_char_sum.calls",
        "cli.run.calls",
    },
}
# reaches census_scan only, which has no count metric
SLOW_SUITES = {"verify.census"}


def _cut_pass(workload: str, seed: int):
    """The workload's pass cut short: every suite but the census one, the first
    5 operations of every other kind, and for cli one whole round of the mix."""
    inp = workloads.inputs(workload, seed)
    if workload == "cli":
        inp["argvs"] = inp["argvs"][: len(inp["argvs"]) // workloads.CLI_ROUNDS]
    kept, per_kind = [], {}
    for op in workloads.operations(workload, inp, in_process=True):
        per_kind[op.kind] = per_kind.get(op.kind, 0) + 1
        if op.span in SLOW_SUITES or (op.kind not in ("suite", "invocation") and per_kind[op.kind] > 5):
            continue
        kept.append(op)
    return kept


def cut_pass_counts(workload: str, seed: int) -> dict:
    """Every count metric of one traced cut pass."""
    count_names = [s["name"] for s in tracing.layer_metric_specs() if s["unit"] == "count"]
    ops = _cut_pass(workload, seed)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        res = worker.run_pass(ops, tracer, workloads.LATENCY_UNIT[workload])
    finally:
        tracer.uninstall()
    assert res.failed == 0, res.first_failure
    metrics = tracer.layer_metrics()
    return {name: metrics[name] for name in count_names}


def test_every_count_metric_is_reached_by_some_workload():
    count_names = {s["name"] for s in tracing.layer_metric_specs() if s["unit"] == "count"}
    assert set().union(*REACHED_COUNTS.values()) == count_names


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_count_metrics_repeat_exactly(workload, tmp_path):
    # each run in a fresh interpreter, as two benchmark runs would be
    code = f"import sys; sys.path.insert(0, {str(HERE)!r}); import json, test_perfbench as t; " \
           f"print(json.dumps(t.cut_pass_counts({workload!r}, 3)))"
    runs = []
    for _ in range(2):
        proc = subprocess.run([sys.executable, "-c", code], env=run.child_env(tmp_path / "pycache"),
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert runs[0] == runs[1]
    assert sorted(name for name in REACHED_COUNTS[workload] if not runs[0][name]) == []


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["per_layer"] == tracing.layer_metric_specs()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS) == list(run.WORKLOADS)


def test_tail_has_ten_samples_beyond_it():
    values = list(range(100))
    assert worker.tail(values) == 89
    assert sum(v > worker.tail(values) for v in values) == 10


def test_speed_probe_takes_out_its_own_time_exactly():
    probe = worker.SpeedProbe()
    probe.starts.extend([1.0, 2.5, 4.0])
    probe.durations.extend([0.1, 0.2, 0.3])
    t0, t1 = np.array([0.0, 2.0, 4.5]), np.array([1.5, 3.0, 6.0])
    assert probe.net(t0, t1).tolist() == pytest.approx([1.5 - 0.1, 1.0 - 0.2, 1.5])
    # each interval is scaled by the probes that started in it, widened by pad
    ref = speedprobe.REFERENCE_S
    assert probe.scale(t0, t1).tolist() == pytest.approx([ref / 0.1, ref / 0.2, 1.0])
    assert probe.scale(t0, t1, pad=0.6).tolist() == pytest.approx([ref / 0.1, ref / 0.2, ref / 0.3])


def test_spawner_runs_the_cli_and_reports_the_child_peak(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    spawner = workloads.Spawner()
    try:
        code, out, err = spawner.run(["discriminate", "--n", "5", "--method", "closed", "--format", "json"])
        assert (code, json.loads(out)["value"], err) == (0, workloads.closed_form(5), "")
        code, out, err = spawner.run(["discriminate", "--seq", "linrec:1,2,1,3", "--n", "500", "--method", "brute"])
        assert code == 1 and out == "" and err.startswith("failure:")
        assert spawner.peak_rss_mb() > 0
    finally:
        spawner.close()
    assert spawner.proc.returncode == 0


def test_refuses_to_run_without_the_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
