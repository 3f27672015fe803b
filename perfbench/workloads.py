"""The four benchmark workloads: seeded inputs, named operations, references.

Every workload is a closed loop with one client: each operation starts after
the previous one has returned and been checked. `inputs(workload, seed)` is a
pure function of the seed; `operations(...)` turns them into one pass, a list of
`Op`, and computes every reference before anything is timed.

References are independent of the code under test: the benchmark's own
closed form and pairwise brute force, sympy for primality and orders, the
period formula against brute-force cycle detection, `recheck_certificate`,
and the frozen lists inside the verify suites. No operation asserts the two
false references of acceptance criteria 04 and 11.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import discrim
from discrim import cli, verify

HERE = Path(__file__).resolve().parent

WORKLOADS = ("theorem1", "census", "certify", "cli")

# Sizes. They are cut so that a run fits a 24 s window on
# a 2-core machine; README.md records them with their timings. Seeded
# samples take one point per slice of a range, so inputs differ from seed to
# seed while the cost of a pass stays the same.
THEOREM1_N_MAX = 256            # run_suites(["theorem1"], n_max=...); its fixed boundary loop is ~14 s
THEOREM1_SAMPLE = (1024, 4096, 96, 4)       # (lo, hi, points, jitter) for salajan_discriminator_checked
CENSUS_SUITES = ("census", "artin", "fset")
CENSUS_SAMPLE = (10**6, 10**9 - 1000, 5000)  # x per slice, then p = nextprime(x) <= 10^9
CERTIFY_SUITES = ("screen", "periods", "iota-anchors", "iota-bounds")
CERTIFY_D_MAX = 100_000                     # nonvalue_screen + recheck for every d in [2, D_MAX]
CERTIFY_PERIODS = (1, CERTIFY_D_MAX, 128)    # d per slice for period_brute vs the formula
# pre_period + period = 99989 is the longest state walk for d <= 10^5; always
# in the sample, so the peak RSS does not depend on which d the seed draws
CERTIFY_LONGEST_WALK_D = 99989
CLI_ROUNDS = 3                  # the 13-subcommand mix, each round with fresh seeded arguments
CLI_TIMEOUT_S = 120
# Fast calls are timed in blocks: the 11th-slowest of 10^5 single calls is
# set by host hiccups, not by discrim.
CENSUS_BLOCK = 50
CERTIFY_BLOCK = 1000

# the nominal time of one pass: a run of --seconds makes seconds // this
# passes, at least one, so 1, 1, 2 and 2 at the 24 s of BENCHMARK.json
PASS_SECONDS = {"theorem1": 24, "census": 24, "certify": 12, "cli": 12}

# the unit operation whose latency op_p50_ms and op_tail_ms describe
LATENCY_UNIT = {"theorem1": "checked_n", "census": "classify_block", "certify": "certificate_block",
                "cli": "invocation"}


@dataclass(frozen=True)
class Op:
    """One named unit of operation: a library call and the check of its result."""

    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]
    span: str | None = None   # benchmark-owned span around the call (verify suites)


def _grid(rng: random.Random, lo: int, hi: int, k: int, jitter: int | None = None) -> list[int]:
    """k points, one per equal slice of (lo, hi]: the slice's centre moved by at
    most `jitter`, or anywhere in the slice when jitter is None."""
    edges = [lo + (hi - lo) * i // k for i in range(k + 1)]
    if jitter is None:
        return [rng.randint(a + 1, b) for a, b in zip(edges, edges[1:])]
    return [(a + b) // 2 + rng.randint(-jitter, jitter) for a, b in zip(edges, edges[1:])]


def inputs(workload: str, seed: int) -> dict:
    """The workload's generated inputs; the same seed always gives the same dict."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "theorem1":
        return {"n_max": THEOREM1_N_MAX, "sample": _grid(rng, *THEOREM1_SAMPLE)}
    if workload == "census":
        import sympy

        xs = _grid(rng, *CENSUS_SAMPLE)
        return {"suites": list(CENSUS_SUITES), "numbers": xs, "primes": [int(sympy.nextprime(x)) for x in xs]}
    if workload == "certify":
        return {
            "suites": list(CERTIFY_SUITES),
            "d_max": CERTIFY_D_MAX,
            "period_sample": _grid(rng, *CERTIFY_PERIODS) + [CERTIFY_LONGEST_WALK_D],
        }
    if workload == "cli":
        return {"argvs": [argv for _ in range(CLI_ROUNDS) for argv in _cli_argvs(rng)]}
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def operations(workload: str, inp: dict, in_process: bool = False, spawner: Spawner | None = None) -> list[Op]:
    """One pass of the workload. The CLI runs through `cli.run` when
    `in_process`, and through `spawner` otherwise."""
    if workload == "theorem1":
        return _suite_ops(["theorem1"], inp["n_max"]) + _theorem1_ops(inp)
    if workload == "census":
        return _suite_ops(inp["suites"]) + _census_ops(inp)
    if workload == "certify":
        return _suite_ops(inp["suites"]) + _certify_ops(inp)
    if workload == "cli":
        return _cli_ops(inp, in_process, spawner)
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------- references


def closed_form(n: int) -> int:
    """min(2^e, 5^f) with 2^e >= n and 4*5^f >= 5n, written apart from the library."""
    e = max(n - 1, 0).bit_length()
    f = 0
    while 4 * 5**f < 5 * n:
        f += 1
    return min(2**e, 5**f)


def _pairwise_discriminator(terms: list[int], cap: int) -> int | None:
    """Least m in [n, cap] keeping all terms distinct mod m, by direct set counting."""
    n = len(terms)
    for m in range(n, cap + 1):
        if len({t % m for t in terms}) == n:
            return m
    return None


def _is_power(base: int, d: int) -> bool:
    while d % base == 0:
        d //= base
    return d == 1


# ---------------------------------------------------------------- suites


def _suite_ops(names, n_max: int | None = None) -> list[Op]:
    def make(name):
        def call():
            return verify.run_suites([name], n_max=n_max)

        def check(out):
            ok, results = out
            return ok and len(results) == 1 and results[0].suite == name and results[0].passed

        return Op("suite", call, check, span=f"verify.{name}")

    return [make(name) for name in names]


# ---------------------------------------------------------------- theorem1


def _theorem1_ops(inp: dict) -> list[Op]:
    def make(n):
        want = closed_form(n)

        def check(rec):
            return rec.n == n and rec.value == want and rec.method == "verified_both"

        return Op("checked_n", lambda: discrim.salajan_discriminator_checked(n), check)

    return [make(n) for n in inp["sample"]]


# ---------------------------------------------------------------- census


def _census_class(p: int, ord3: int) -> str:
    if p % 4 == 1 and ord3 == p - 1:
        return "P1"
    if p % 4 == 3 and ord3 == p - 1:
        return "P3"
    if p % 4 == 3 and 2 * ord3 == p - 1:
        return "P2"
    return "none"


def _blocks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def _strided_blocks(items: list, size: int) -> list[list]:
    """Blocks that each take every k-th item, so each spans the whole range.

    The cost of classifying a prime varies from prime to prime; a block that
    spans the range costs about the same as any other, in any seed."""
    k = len(items) // size
    return [items[i::k] for i in range(k)]


def _census_ops(inp: dict) -> list[Op]:
    import sympy

    def make_is_prime(xs):
        want = [bool(sympy.isprime(x)) for x in xs]
        return Op("is_prime_block", lambda: [discrim.is_prime(x) for x in xs], lambda got: got == want)

    def make_classify(ps):
        want = []
        for p in ps:
            if not sympy.isprime(p):
                raise ValueError(f"census input {p} is not prime")
            ord3 = int(sympy.n_order(3, p))
            want.append((p, p % 4, ord3, _census_class(p, ord3)))

        def check(recs):
            return [(r.p, r.residue_mod_4, r.ord3, r.pclass) for r in recs] == want

        return Op("classify_block", lambda: [discrim.classify_prime(p) for p in ps], check)

    return ([make_is_prime(xs) for xs in _strided_blocks(inp["numbers"], CENSUS_BLOCK)]
            + [make_classify(ps) for ps in _strided_blocks(inp["primes"], CENSUS_BLOCK)])


# ---------------------------------------------------------------- certify


def _certify_ops(inp: dict) -> list[Op]:
    d_max = inp["d_max"]
    # the attained values <= d_max; D(n) >= n, so n <= d_max reaches them all
    image = {v for v in map(closed_form, range(1, d_max + 1)) if v <= d_max}

    def expected(d):
        if d in image:
            return "undecided"
        if _is_power(2, d) or _is_power(5, d):
            return None   # no claim either way
        return "non_value"

    def certificates(ds):
        out = []
        for d in ds:
            cert = discrim.nonvalue_screen(d)
            out.append((cert, discrim.recheck_certificate(cert)))
        return out

    def make_block(ds):
        wants = [expected(d) for d in ds]

        def check(out):
            return len(out) == len(ds) and all(
                rechecked and cert.d == d and (want is None or cert.verdict == want)
                for d, want, (cert, rechecked) in zip(ds, wants, out)
            )

        return Op("certificate_block", lambda: certificates(ds), check)

    def make_period(d):
        def call():
            return discrim.period_brute(discrim.salajan(), d), discrim.salajan_period_formula(d)

        def check(out):
            brute, formula = out
            return (brute.modulus, brute.pre_period, brute.period) == (
                d, formula.pre_period, formula.period)

        return Op("period", call, check)

    return ([make_block(ds) for ds in _blocks(list(range(2, d_max + 1)), CERTIFY_BLOCK)]
            + [make_period(d) for d in inp["period_sample"]])


# ---------------------------------------------------------------- cli


def _cli_argvs(rng: random.Random) -> list[list[str]]:
    """A fixed mix of subcommands with seeded arguments, in a fixed order."""
    # narrow ranges keep the cost of each invocation the same from seed to seed
    lo_iota = rng.randint(2000, 3000)
    lo_screen = rng.randint(10_000, 11_000)
    charsum_p = rng.choice([p for p in range(100, 200) if all(p % q for q in range(2, p))])
    a = [
        ["discriminate", "--n", rng.randint(1500, 1600), "--method", "both", "--format", "json"],
        ["discriminate", "--seq", "linrec:2,3,2,1", "--n", 1000, "--method", "brute", "--format", "json"],
        ["discriminate", "--seq", "poly:0,0,1", "--n", rng.randint(100, 120), "--method", "brute",
         "--format", "json"],
        ["discriminate", "--n", rng.randint(2, 10**6), "--method", "closed", "--format", "human"],
        ["discriminate", "--seq", "linrec:1,2,1,3", "--n", 500, "--method", "brute"],
        ["period", "--d", rng.randint(5000, 6000), "--format", "json"],
        ["iota", "--range", f"{lo_iota}:{lo_iota + 49}", "--format", "json"],
        ["screen", "--range", f"{lo_screen}:{lo_screen + 99}", "--format", "csv"],
        ["table", "--max", rng.randint(16_000, 17_000), "--format", "csv"],
        ["census", "--x", rng.randint(38_000, 42_000), "--format", "json"],
        ["fset", "--max", rng.randint(30, 40), "--format", "csv"],
        ["charsum", "--p", charsum_p, "--format", "json"],
        ["artin", "--prime-limit", rng.randint(90_000, 110_000), "--format", "json"],
    ]
    return [[str(x) for x in argv] for argv in a]


def _opt(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _span(text: str) -> range:
    lo, hi = text.split(":")
    return range(int(lo), int(hi) + 1)


def _cli_expected(argv: list[str]) -> tuple[int, list[dict] | None]:
    """(exit code, output rows) for one invocation, from the library in-process."""
    cmd = argv[0]
    seq = discrim.salajan()
    if cmd == "discriminate":
        n = int(_opt(argv, "--n"))
        text = _opt(argv, "--seq") if "--seq" in argv else "salajan"
        method = _opt(argv, "--method")
        if text == "salajan":
            name = {"both": "verified_both", "closed": "closed_form"}[method]
            return 0, [{"n": n, "value": closed_form(n), "method": name}]
        spec = discrim.parse_spec(text)
        if spec == discrim.linear_recurrence(2, 3, 2, 1):
            return 0, [{"n": n, "value": closed_form(n), "method": "brute_force"}]
        terms = [discrim.term_exact(spec, j) for j in range(1, n + 1)]
        m = None if len(set(terms)) < n else _pairwise_discriminator(terms, 4 * n)
        return (1, None) if m is None else (0, [{"n": n, "value": m, "method": "brute_force"}])
    if cmd == "period":
        d = int(_opt(argv, "--d"))
        info = discrim.salajan_period_formula(d)
        brute = discrim.period_brute(seq, d)
        if (brute.pre_period, brute.period) != (info.pre_period, info.period):
            raise AssertionError(f"period methods disagree at d={d}")
        return 0, [{"modulus": d, "pre_period": info.pre_period, "period": info.period, "method": "both"}]
    if cmd == "iota":
        return 0, [{"m": m, "iota": discrim.incongruence_index(seq, m)} for m in _span(_opt(argv, "--range"))]
    if cmd == "screen":
        rows = []
        for d in _span(_opt(argv, "--range")):
            cert = discrim.nonvalue_screen(d)
            rows.append({"d": d, "verdict": cert.verdict, "reason": cert.reason or "",
                         "witness": json.dumps(cert.witness, sort_keys=True)})
        return 0, rows
    if cmd == "table":
        return 0, [{"start": a, "end": b, "value": v} for a, b, v in discrim.table_ranges(int(_opt(argv, "--max")))]
    if cmd == "census":
        rep = discrim.census_scan(int(_opt(argv, "--x")))
        return 0, [{"class": c, "count": rep.counts[c], "empirical": f"{rep.empirical[c]:.9f}",
                    "predicted": f"{rep.predicted[c]:.9f}", "deviation": f"{rep.deviation[c]:+.6f}"}
                   for c in ("P1", "P2", "P3")]
    if cmd == "fset":
        rows = []
        for b in range(1, int(_opt(argv, "--max")) + 1):
            rec = discrim.fset_member_interval(b)
            if discrim.fset_member_weyl(b) != rec.member:
                raise AssertionError(f"F-set methods disagree at b={b}")
            rows.append({"b": b, "member": rec.member, "witness": "" if rec.witness is None else rec.witness})
        return 0, rows
    if cmd == "charsum":
        rep = discrim.char_sum_report(int(_opt(argv, "--p")))
        return 0, [{"p": rep.p, "g": rep.g, "setA_size": rep.setA_size,
                    "max_nontrivial_sum": f"{rep.max_nontrivial_sum:.9f}",
                    "sqrt_lower": f"{rep.setA_size ** 0.5:.9f}", "sqrt_p": f"{rep.sqrt_p:.9f}",
                    "identity_residual": f"{rep.identity_residual:.3e}", "verdict": "ok"}]
    if cmd == "artin":
        limit = int(_opt(argv, "--prime-limit"))
        return 0, [{"prime_limit": limit, "artin_partial": f"{discrim.artin_constant(limit):.12f}"}]
    raise ValueError(f"no reference for subcommand {cmd!r}")


def _parse_output(fmt: str, text: str) -> list[dict]:
    if fmt == "json":
        return [json.loads(line) for line in text.splitlines()]
    if fmt == "csv":
        return list(csv.DictReader(io.StringIO(text)))
    lines = text.splitlines()
    header = lines[0].split()
    return [dict(zip(header, line.split())) for line in lines[1:]]


def _rows_match(fmt: str, got: list[dict], want: list[dict]) -> bool:
    if fmt != "json":
        want = [{k: str(v) for k, v in row.items()} for row in want]
    return got == want


class Spawner:
    """A `spawner.py` child that runs each `python -m discrim.cli` for us, so
    that a CLI child's peak RSS is its own and not this process's."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def _ask(self, req):
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def run(self, argv: list[str]) -> tuple[int | None, str, str]:
        out = self._ask({"args": argv, "timeout": CLI_TIMEOUT_S})
        return out["code"], out["stdout"], out["stderr"]

    def peak_rss_mb(self) -> float:
        return self._ask(None)["maxrss_kb"] / 1024.0

    def close(self):
        self.proc.stdin.close()
        self.proc.wait()


def _cli_ops(inp: dict, in_process: bool, spawner: Spawner | None) -> list[Op]:
    def in_proc(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
        return code, out.getvalue(), err.getvalue()

    invoke = in_proc if in_process else spawner.run

    def make(argv):
        code, rows = _cli_expected(argv)
        fmt = _opt(argv, "--format") if "--format" in argv else "human"

        def check(out):
            got_code, stdout, stderr = out
            if got_code != code:
                return False
            if code != 0:
                return stdout == "" and stderr.startswith("failure:")
            return _rows_match(fmt, _parse_output(fmt, stdout), rows)

        return Op("invocation", lambda: invoke(argv), check)

    return [make(argv) for argv in inp["argvs"]]
