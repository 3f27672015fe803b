"""Digest what `discrim` prints for a fixed list of argvs, to check that a
change leaves every output byte-identical.

Each argv runs in its own `python -m discrim.cli` child, with this
checkout's `src` on PYTHONPATH. For each one the script prints 16 hex digits
of the sha256 of (exit code, stdout, stderr), then the argv. Three argvs
write through `--output /dev/stdout`, so the file sink is digested too.
A last child
prints the sha256 of the pairs of `collision_certificate(a, v)` for every
row of `EXPECTED_TABLE` above 64, which no output shows: the checker
accepts any valid pair. Run it in two checkouts and diff the results:

    python tools/output_digest.py > after.txt

It takes no options; three runs took 8.6–8.9 s on a 2-core host (Python
3.11.7, numpy 2.4.6). `output_digest.txt` holds its lines for this
checkout, under a first line naming the Python and numpy versions they
were made with; `tests/test_cli.py` recomputes all of
them but `iota --m 2^64` in process and compares.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

FORMATS = ("human", "json", "csv")

ARGVS = [
    *(["verify", "--suite", "all", "--format", f] for f in FORMATS),
    # `all` certifies only the rows above its n_max of 4096; this certifies
    # every row from (65, 100, 125) up
    ["verify", "--suite", "theorem1", "--nmax", "64", "--format", "json"],
    ["discriminate", "--n", "1567", "--method", "both", "--format", "human"],
    ["discriminate", "--n", "123456", "--method", "closed", "--format", "json"],
    ["discriminate", "--seq", "poly:0,0,1", "--n", "108", "--method", "brute", "--format", "csv"],
    ["discriminate", "--seq", "linrec:2,3,2,1", "--n", "1000", "--method", "brute", "--format", "json"],
    ["discriminate", "--seq", "linrec:1,2,1,3", "--n", "500", "--method", "brute"],
    ["table", "--max", "16500", "--format", "csv"],
    ["table", "--max", "3125", "--format", "human"],
    ["period", "--d", "5119", "--format", "json"],
    ["period", "--seq", "linrec:1,1,0,1", "--d", "1000", "--method", "brute", "--format", "human"],
    ["iota", "--m", "1048576", "--format", "csv"],
    ["iota", "--range", "2361:2410", "--format", "json"],
    ["iota", "--m", str(2**64)],
    ["iota", "--m", str(10**1000 + 7)],
    ["screen", "--range", "10000:10099", "--format", "csv"],
    ["screen", "--d", "4099", "--format", "human"],
    ["screen", "--range", "9:2"],
    ["census", "--x", "40000", "--format", "json"],
    ["census", "--x", "1000000", "--format", "csv"],
    # crosses the sieve segment edges at 2^20 and 2^21
    ["census", "--x", "2100000"],
    ["fset", "--max", "40", "--format", "csv"],
    ["fset", "--max", "3000", "--format", "json"],
    ["fset", "--max", "12", "--method", "weyl", "--format", "human"],
    ["charsum", "--p", "101", "--format", "json"],
    ["charsum", "--p", "61", "--g", "2", "--format", "csv"],
    ["charsum", "--p", "9"],
    ["charsum", "--p", "13", "--g", "3"],
    ["charsum", "--p", "4099"],
    ["artin", "--prime-limit", "100000", "--format", "json"],
    ["artin", "--prime-limit", "1000", "--format", "csv"],
    # the file sink: /dev/stdout reaches the same pipe as stdout
    *([*argv, "--output", "/dev/stdout"] for argv in (
        ["census", "--x", "40000"],
        ["verify", "--suite", "table"],
        ["screen", "--range", "10000:10099", "--format", "csv"],
    )),
]


# the pairs as int lists, so that their digest does not depend on byte order
PAIRS = """
import hashlib, json
from discrim.discriminator import collision_certificate
from discrim.verify import EXPECTED_TABLE
pairs = [[list(p) for p in collision_certificate(a, v)] for a, _, v in EXPECTED_TABLE if a > 64]
print(hashlib.sha256(json.dumps(pairs).encode()).hexdigest())
"""


def digest_of(code: int, out: bytes, err: bytes) -> str:
    """16 hex digits of the sha256 of (exit code, stdout, stderr)."""
    blob = json.dumps([code, out.hex(), err.hex()])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def digest(args: list[str]) -> str:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *args], capture_output=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    return digest_of(proc.returncode, proc.stdout, proc.stderr)


def main() -> None:
    if len(sys.argv) > 1:
        sys.exit("usage: python tools/output_digest.py (it takes no options)")
    for argv in ARGVS:
        print(digest(["-m", "discrim.cli", *argv]), " ".join(argv), flush=True)
    print(digest(["-c", PAIRS]), "collision_certificate pairs of EXPECTED_TABLE rows above 64")


if __name__ == "__main__":
    main()
