"""discrim benchmark: one workload (or all) per call, end-to-end or traced.

    python3 perfbench/run.py --workload theorem1 --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout: it builds nothing, and it imports
discrim only from the checkout's own `src`. Each workload runs in a fresh
child interpreter (`worker.py`) pinned to one thread, so this process never
imports discrim itself. The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics; the lines before it
print every metric by name with its unit. With --trace 1 the metrics are the
per-layer ones from a traced pass instead of the end-to-end ones.

Each run also leaves a record under perfbench/results/ with the seed, nproc,
the Python and numpy versions, the commit (when the checkout is a git
repository) and a hash of the source it measured.

Every child interpreter of a run reads and writes bytecode only in a fresh
directory of that run (PYTHONPYCACHEPREFIX), removed at the end. Bytecode
left in the checkout, by a test run for example, is never loaded. The first,
unmeasured interpreter fills the cache, so the measured imports and CLI
children load bytecode, as they would from an installed package.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import monotonic

from speedprobe import REFERENCE_S
from tracer import layer_metric_specs   # numpy only; discrim stays out of this process

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

WORKLOADS = ("theorem1", "census", "certify", "cli")
END_TO_END_UNITS = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms"}

# the modules each workload calls, imported by the set-up probe
SETUP_IMPORTS = {
    "theorem1": "discrim",
    "census": "discrim",
    "certify": "discrim",
    "cli": "discrim, discrim.cli",
}
SETUP_PROBES = 7
RUN_LIMIT_S = 170.0

# one thread everywhere, so a run measures discrim and not a thread pool
PINNED_ENV = {
    "DISCRIM_JOBS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class BenchError(RuntimeError):
    pass


def child_env(pycache: Path) -> dict:
    env = dict(os.environ)
    # only the checkout's source: an installed discrim must not stand in for it
    env["PYTHONPATH"] = str(ROOT / "src")
    env.update(PINNED_ENV)
    # bytecode only from this run's own cache, which the children must fill
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def run_child(argv: list[str], env: dict, deadline: float) -> str:
    """Run a child in its own process group; kill the group if it outlives the deadline."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{Path(argv[1]).name if len(argv) > 1 else argv[0]} timed out") from None
    finally:
        if proc.poll() is None:   # interrupted: take the whole group down with us
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    if err:
        sys.stderr.write(err)
    if proc.returncode != 0:
        raise BenchError(f"child exited with code {proc.returncode}: {' '.join(argv[1:3])}")
    return out


# imports nothing before the timed import that discrim would import itself
SETUP_CODE = """
import sys, time
sys.path.insert(0, {here!r})
from speedprobe import probe_once
probes = [probe_once() for _ in range(5)]
t = time.perf_counter()
import {modules}
took = time.perf_counter() - t
probes = sorted(probes + [probe_once() for _ in range(5)])
print(took, (probes[4] + probes[5]) / 2)
"""


def setup_seconds(workload: str, env: dict, deadline: float) -> tuple[float, float]:
    """(scaled, unscaled) median time for a fresh interpreter to import what
    the workload calls.

    Each interpreter also times the speed probe around the import, and its
    import time is scaled like the worker's times. One unmeasured interpreter
    first compiles everything into the run's bytecode cache and brings the
    files into the OS cache.
    """
    code = SETUP_CODE.format(here=str(HERE), modules=SETUP_IMPORTS[workload])
    runs = [run_child([sys.executable, "-c", code], env, deadline).split() for _ in range(SETUP_PROBES + 1)]
    took = [(float(t), float(p)) for t, p in runs[1:]]
    return statistics.median(t * REFERENCE_S / p for t, p in took), statistics.median(t for t, _ in took)


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else None
    return ref


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float, pycache: Path) -> dict:
    env = child_env(pycache)
    setup = None if trace else setup_seconds(workload, env, deadline)
    out = run_child(
        [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--trace-out", str(RESULTS / f"{workload}.spans.npz")],
        env, deadline,
    )
    res = json.loads(out.strip().splitlines()[-1])
    if res["attempted"] < 1:
        raise BenchError(f"{workload}: no operation was attempted")
    if not trace:
        res["metrics"]["setup_s"], res["raw"]["setup_s"] = setup
    return res


def unit_of(name: str, layer_units: dict) -> str:
    return END_TO_END_UNITS.get(name) or layer_units.get(name, "")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="run length: a run makes seconds // PASS_SECONDS passes, at least one")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "discrim" / "__init__.py").is_file():
        print(f"perfbench: no discrim source at {ROOT / 'src' / 'discrim'}", file=sys.stderr)
        return 2
    # turn SIGTERM into an exception, so run_child's cleanup kills the child group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    layer_units = {m["name"]: m["unit"] for m in layer_metric_specs()}
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = monotonic() + RUN_LIMIT_S * len(names)
    env_info = {
        "seed": args.seed, "nproc": os.cpu_count(), "python": platform.python_version(),
        "commit": commit(), "source_sha256": source_hash(),
    }
    results = {}
    RESULTS.mkdir(exist_ok=True)
    pycache = Path(tempfile.mkdtemp(prefix="pycache-", dir=RESULTS))
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline, pycache)
    except (BenchError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(pycache, ignore_errors=True)

    for name, res in results.items():
        record = dict(env_info, workload=name, trace=args.trace, **res)
        (RESULTS / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
        print(f"{name}: seed={args.seed} nproc={env_info['nproc']} python={env_info['python']} "
              f"numpy={res['numpy']} commit={env_info['commit']} source={env_info['source_sha256']} "
              f"passes={res['passes']}")
        for metric, value in res["metrics"].items():
            print(f"  {metric:<52} {value:>14.6f} {unit_of(metric, layer_units)}")
        for metric, value in (res.get("raw") or {}).items():
            print(f"  {'raw.' + metric:<52} {value:>14.6f}")
        ratio = res["failed"] / res["attempted"]
        print(f"  {'ops_failed_ratio':<52} {ratio:>14.6f} ({res['failed']} of {res['attempted']} failed)")

    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}.{m}": v for w, r in results.items() for m, v in r["metrics"].items()}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": unit_of(m.split(".", 1)[1] if len(names) > 1 else m, layer_units)}
                    for m, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
