"""The import-light runtime: the package and the CLI load neither numpy nor
mpmath, and commands that never reach a numpy kernel stay free of it; the
constants that used to come from those libraries are checked against them."""

import os
import subprocess
import sys
from pathlib import Path

import mpmath
import pytest
import sympy

from discrim import census, numtheory

ROOT = Path(__file__).resolve().parents[1]

CHECK = """
import sys
{body}
heavy = sorted(m for m in ("numpy", "mpmath") if m in sys.modules)
print("heavy:" + ",".join(heavy))
"""


def loaded_heavy_modules(body: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CHECK.format(body=body)], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout.splitlines()[-1].removeprefix("heavy:")


def test_importing_the_cli_loads_neither_numpy_nor_mpmath():
    assert loaded_heavy_modules("import discrim, discrim.cli") == ""


@pytest.mark.parametrize("argv", [
    ["discriminate", "--n", "123456", "--method", "closed"],
    ["table", "--max", "16500", "--format", "csv"],
    ["period", "--d", "5119", "--format", "json"],
    ["fset", "--max", "40"],
    ["discriminate", "--seq", "poly:0,0,1", "--n", "108", "--method", "brute"],
], ids=lambda argv: argv[0] + ("-poly" if "--seq" in argv else ""))
def test_commands_without_a_numpy_kernel_stay_free_of_it(argv):
    body = f"from discrim import cli\nassert cli.run({argv!r}) == 0"
    assert loaded_heavy_modules(body) == ""


def test_alpha_matches_mpmath_at_300_bits():
    with mpmath.workprec(300):
        want = int(mpmath.floor(mpmath.log(5) / mpmath.log(2) * mpmath.mpf(2) ** 192))
    assert census._ALPHA_FIX == want


def test_small_primes_match_sympy():
    assert numtheory._SMALL_PRIMES == list(sympy.primerange(2, 4097))
    assert numtheory._small_sieve(1) == [] and numtheory._small_sieve(2) == [2]
