"""The import-light runtime: the package and the CLI load neither numpy nor
mpmath, commands that never reach a numpy kernel stay free of it, and so do
recurrence scans while the process's Python rent lasts; the constants that
used to come from those libraries are checked against them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
import sympy

from discrim import census, cli, numtheory

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import sys
{body}
heavy = sorted(m for m in ("numpy", "mpmath") if m in sys.modules)
print("heavy:" + ",".join(heavy))
"""


def run_checked(body: str) -> tuple[str, list[str]]:
    """Run `body` in a fresh interpreter: (heavy modules loaded at the end,
    the lines it printed before)."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK.format(body=body)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    *printed, heavy = proc.stdout.splitlines()
    return heavy.removeprefix("heavy:"), printed


def test_importing_the_cli_loads_neither_numpy_nor_mpmath():
    assert run_checked("import discrim, discrim.cli")[0] == ""


CLI_RUN = """
import contextlib, io, json
from discrim import cli
out, err = io.StringIO(), io.StringIO()
with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
    code = cli.run({argv!r})
print(json.dumps([code, out.getvalue(), err.getvalue()]))
"""


@pytest.mark.parametrize("argv", [
    ["discriminate", "--n", "123456", "--method", "closed"],
    ["table", "--max", "16500", "--format", "csv"],
    ["period", "--d", "5119", "--format", "json"],
    ["fset", "--max", "40"],
    ["discriminate", "--seq", "poly:0,0,1", "--n", "108", "--method", "brute"],
    # recurrence scans that outlive tail_start(m) run on the Python rent
    ["discriminate", "--n", "1567", "--method", "both", "--format", "json"],
    ["discriminate", "--seq", "linrec:2,3,2,1", "--n", "1000", "--method", "brute"],
    ["discriminate", "--seq", "linrec:1,2,1,3", "--n", "500", "--method", "brute"],
    ["iota", "--range", "2361:2410", "--format", "json"],
    ["screen", "--range", "10000:10099", "--format", "csv"],
], ids=["discriminate", "table", "period", "fset", "discriminate-poly", "discriminate-both",
        "discriminate-linrec-2321", "discriminate-linrec-1213", "iota-range", "screen-range"])
def test_commands_without_a_numpy_kernel_stay_free_of_it(argv, capsys):
    # the same exit code and output as the numpy blocks give in this process
    heavy, printed = run_checked(CLI_RUN.format(argv=argv))
    assert heavy == ""
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert json.loads(printed[-1]) == [code, captured.out, captured.err]
    assert code == (1 if "linrec:1,2,1,3" in argv else 0)


def test_a_lone_period_formula_builds_no_table():
    # one miss is charged far less than a table covering 2 * 99991 would cost
    body = ("from discrim import numtheory, periods\n"
            "print(periods.salajan_period_formula(99991))\n"
            "print(len(numtheory._spf), numtheory._spf_charged, periods._PRIME_POWER_ORDERS)")
    heavy, printed = run_checked(body)
    assert heavy == ""
    assert printed == ["PeriodInfo(modulus=99991, pre_period=1, period=19998)",
                       f"0 {numtheory.SPF_MISS_ENTRIES} {{}}"]


# Each scan gets a rent of RENT terms past tail_start(m) and checks the
# value against the plain set walk and the rent left against the terms the
# scan ran past tail_start(m) in Python. numpy can be loaded only once per
# process, so after the first scan `sequences` is shown no numpy in
# sys.modules and keeps renting.
RENT_OUT = """
import types
from discrim import sequences
from discrim.sequences import linear_recurrence, distinct_prefix_length, tail_start

RENT = 1000

def set_reference(c1, c2, v1, v2, m, limit):
    seen = set()
    x, y = v1 % m, v2 % m
    for k in range(limit):
        if x in seen:
            return k
        seen.add(x)
        x, y = y, (c1 * y + c2 * x) % m
    return limit

def rent_edges(m):
    # where the rent runs out, then where each numpy block after it ends
    edge = tail_start(m) + RENT
    edges, rows = [edge], sequences._FIRST_ROWS
    for _ in range(4):
        edge += rows * sequences._WINDOW
        edges.append(edge)
        rows = min(4 * rows, sequences._MAX_BLOCK // sequences._WINDOW)
    return edges

def check(c1, c2, v1, v2, m, limit):
    sequences._rent_left = RENT
    got = distinct_prefix_length(linear_recurrence(c1, c2, v1, v2), m, limit)
    assert got == set_reference(c1, c2, v1, v2, m, limit), (c1, c2, v1, v2, m, limit)
    python_terms = min(got, tail_start(m) + RENT) - tail_start(m)
    assert sequences._rent_left == RENT - max(0, python_terms), (m, limit)
    if "numpy" in sys.modules:
        sequences.sys = types.SimpleNamespace(modules={})
    return got

assert "numpy" not in sys.modules
# limits on both sides of every edge, for scans that outlive them
for c1, c2, v1, v2, m in [(2, -1, 3, 8, 20000), (2, 3, 2, 1, 20203), (-4, -1, 45, -34, 37039)]:
    for edge in rent_edges(m):
        for limit in range(edge - 2, edge + 3):
            check(c1, c2, v1, v2, m, limit)
# first repeats on both sides of every edge: v_j = (j - 1) * q mod P * q
# repeats first at term P + 1, and before tail_start(m) for P = 100
assert check(2, -1, 0, 300, 30000, 30001) == 100
hits = set()
for q in (1, 7):
    for period in range(200, 8000):
        for i, edge in enumerate(rent_edges(period * q)):
            if abs(period - edge) <= 1:
                assert check(2, -1, 0, q, period * q, period * q + 1) == period
                hits.add((q, i, period - edge))
# with numpy in sys.modules, scans enter the blocks at tail_start(m) and
# leave the rent alone
sequences.sys = sys
sequences._rent_left = RENT
got = distinct_prefix_length(linear_recurrence(2, 3, 2, 1), 20203, 20204)
assert got == set_reference(2, 3, 2, 1, 20203, 20204) > tail_start(20203)
assert sequences._rent_left == RENT
print(len(hits))
"""


def test_scans_that_outrun_the_rent_match_the_set_walk():
    heavy, printed = run_checked(RENT_OUT)
    assert printed == ["30"]
    assert heavy == "numpy"


def test_alpha_matches_mpmath_at_300_bits():
    with mpmath.workprec(300):
        want = int(mpmath.floor(mpmath.log(5) / mpmath.log(2) * mpmath.mpf(2) ** 192))
    assert census._ALPHA_FIX == want


def test_small_primes_match_sympy():
    assert numtheory._SMALL_PRIMES == list(sympy.primerange(2, 4097))
    assert numtheory._small_sieve(1) == [] and numtheory._small_sieve(2) == [2]
