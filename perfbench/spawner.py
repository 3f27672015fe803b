"""Runs the cli workload's `python -m discrim.cli` children, one at a time.

    python3 perfbench/spawner.py    # reads JSON requests from stdin, one a line

Linux charges a child, when it calls exec, with the peak RSS of the process
that spawned it. Children spawned straight from the worker would report the
worker's size (numpy, discrim and every reference) instead of their own. This
small interpreter imports nothing heavy, so the largest child's own peak is
what its RUSAGE_CHILDREN reports.

A request is {"args": [...], "timeout": s}, answered by {"code", "stdout",
"stderr"} (code null on a timeout), or null, answered by {"maxrss_kb"}: the
largest peak RSS of the children so far.
"""

import json
import resource
import subprocess
import sys


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        if req is None:
            out = {"maxrss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss}
        else:
            try:
                proc = subprocess.run([sys.executable, "-m", "discrim.cli", *req["args"]],
                                      capture_output=True, text=True, timeout=req["timeout"])
                out = {"code": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}
            except subprocess.TimeoutExpired:
                out = {"code": None, "stdout": "", "stderr": "timeout"}
        sys.stdout.write(json.dumps(out) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
