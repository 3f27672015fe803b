"""Command-line front end: every computation as a subcommand.

Exit codes: 0 success, 1 verification failure (a cross-checked pair of
methods disagreed, a certificate failed its recheck, a bound failed, or a
verify suite went red) or a write failed, 2 usage error. Output formats:
human (default), csv, json (one object per line).

The module imports no engine: each handler reaches the engines it calls
through the package's names, which load their module on first use.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import math
import os
import sys
from functools import partial

import discrim


def _emit(rows: list[dict], fmt: str, out) -> None:
    """Write rows (a nonempty list of same-keyed dicts) as csv, json lines, or text."""
    header = list(rows[0])
    if fmt == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([row[k] for k in header])
    elif fmt == "json":
        for row in rows:
            out.write(json.dumps(row, separators=(", ", ": ")) + "\n")
    else:
        widths = {
            k: max(len(k), max(len(str(r[k])) for r in rows)) for k in header
        }
        out.write("  ".join(k.ljust(widths[k]) for k in header).rstrip() + "\n")
        for row in rows:
            out.write(
                "  ".join(str(row[k]).ljust(widths[k]) for k in header).rstrip() + "\n"
            )


# the most integers one `iota --range` or `screen --range` may hold: every row is held until `run` writes it
SPAN_ROWS = 1 << 18


def _span_targets(span: str, least: int, what: str) -> range:
    """The integers n >= least of the span LO:HI; ValueError when the span is
    malformed or holds none, naming them as `what`, and CapExceeded when it
    holds more than SPAN_ROWS of them or one above SCAN_TERM_CAP, the largest
    modulus the sweep tries: the term budget misses what a row costs besides its terms."""
    lo, sep, hi = span.partition(":")
    if not sep:
        raise ValueError("range must look like lo:hi")
    try:
        lo_i, hi_i = int(lo), int(hi)
    except ValueError:
        raise ValueError("range bounds must be integers") from None
    if lo_i > hi_i:
        raise ValueError("range lower bound exceeds upper bound")
    targets = range(max(lo_i, least), hi_i + 1)
    if not targets:
        raise ValueError(f"range {span} holds no {what}")
    if hi_i - targets[0] >= SPAN_ROWS:
        raise discrim.CapExceeded(f"range {span} holds more than {SPAN_ROWS} integers")
    cap = discrim.sequences.SCAN_TERM_CAP
    if hi_i > cap:
        raise discrim.CapExceeded(f"range {span} reaches past {cap}, the largest modulus scanned")
    return targets


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="discrim",
        description="discriminators, periods and incongruence indices of integer sequences",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, handler):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--format", choices=("csv", "json", "human"), default="human")
        p.add_argument("--output", default=None, help="write to this file instead of stdout")
        return p

    p = add("discriminate", "smallest modulus separating the first n terms", _cmd_discriminate)
    p.add_argument("--seq", default="salajan", help="salajan | linrec:c1,c2,v1,v2 | poly:a0,a1,...")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=("closed", "brute", "both"), default=None)
    p.add_argument("--cap", type=int, default=None, help="largest modulus the brute scan will try")

    p = add("table", "closed-form value ranges up to --max", _cmd_table)
    p.add_argument("--max", type=int, required=True)

    p = add("period", "period and pre-period of the sequence mod d", _cmd_period)
    p.add_argument("--seq", default="salajan")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--method", choices=("formula", "brute", "both"), default="both")

    p = add("iota", "incongruence index: longest pairwise-distinct prefix mod m", _cmd_iota)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--m", type=int)
    group.add_argument("--range", dest="span", metavar="LO:HI")

    p = add("screen", "non-value certificates", _cmd_screen)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--d", type=int)
    group.add_argument("--range", dest="span", metavar="LO:HI")

    p = add("census", "prime classification densities up to --x", _cmd_census)
    p.add_argument("--x", type=int, required=True)

    p = add("fset", "exponents b whose interval [4*5^(b-1), 5^b] misses the powers of 2", _cmd_fset)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--method", choices=("interval", "weyl", "both"), default="both")

    p = add("charsum", "character-sum verification report for one prime", _cmd_charsum)
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--g", type=int, default=None, help="primitive root (smallest if omitted)")

    p = add("artin", "partial product of the Artin constant", _cmd_artin)
    p.add_argument("--prime-limit", type=int, required=True)

    p = add("verify", "run verification suites", _cmd_verify)
    p.add_argument("--suite", default="all", help="|".join(discrim._SUITE_NAMES) + " or all")
    p.add_argument("--nmax", type=int, default=None, help="range cap for the theorem1 suite")

    return parser


# each handler returns (exit code, writer) once its answer is checked; `run` calls the writer
def _cmd_discriminate(args):
    spec = discrim.parse_spec(args.seq)
    salajan_kind = spec.kind == discrim.sequences.SALAJAN
    method = args.method or ("both" if salajan_kind else "brute")
    if not salajan_kind and method != "brute":
        raise ValueError("closed form exists only for the salajan sequence; use --method brute")
    if method == "closed" and args.cap is not None:
        raise ValueError("--cap applies only to --method brute or both")
    if method == "closed":
        rec = discrim.salajan_discriminator_closed(args.n)
    elif method == "brute":
        rec = discrim.discriminator_brute(spec, args.n, args.cap)
    else:
        rec = discrim.salajan_discriminator_checked(args.n, args.cap)
    _check_digits(rec.value, f"discriminator value of {rec.value.bit_length()} bits")
    return 0, partial(_emit, [{"n": rec.n, "value": rec.value, "method": rec.method}], args.format)


def _cmd_table(args):
    ranges = discrim.table_ranges(args.max)
    value = ranges[-1][2]   # values grow from row to row
    _check_digits(value, f"table value of {value.bit_length()} bits")
    rows = [{"start": a, "end": b, "value": v} for a, b, v in ranges]
    return 0, partial(_emit, rows, args.format)


def _cmd_period(args):
    spec = discrim.parse_spec(args.seq)
    if args.method in ("formula", "both") and spec.kind != discrim.sequences.SALAJAN:
        raise ValueError("the period formula applies to the salajan sequence; use --method brute")
    if args.method == "formula":
        info = discrim.salajan_period_formula(args.d)
    elif args.method == "brute":
        info = discrim.period_brute(spec, args.d)
    else:
        info = discrim.salajan_period_checked(args.d)
    row = {
        "modulus": info.modulus,
        "pre_period": info.pre_period,
        "period": info.period,
        "method": args.method,
    }
    return 0, partial(_emit, [row], args.format)


def _cmd_iota(args):
    targets = _span_targets(args.span, 1, "modulus m >= 1") if args.span else [args.m]
    seq, rows, spent = discrim.salajan(), [], 0
    for m in targets:
        iota = discrim.incongruence_index(seq, m)
        discrim.sequences.check_term_budget(spent := spent + iota, f"range {args.span}", "m", m)
        rows.append({"m": m, "iota": iota})
    return 0, partial(_emit, rows, args.format)


def _cmd_screen(args):
    targets = _span_targets(args.span, 2, "d >= 2") if args.span else [args.d]
    rows, spent = [], 0
    for d in targets:
        cert = discrim.nonvalue_screen(d)
        # the 3 | d and period screens decide without a scan
        discrim.sequences.check_term_budget(
            spent := spent + cert.witness.get("iota", 0), f"range {args.span}", "d", d)
        witness = json.dumps(cert.witness, sort_keys=True)
        if not discrim.recheck_certificate(cert):
            raise discrim.MethodsDisagree(
                f"certificate fails its recheck at d={d}: reason={cert.reason} witness={witness}"
            )
        rows.append(
            {"d": cert.d, "verdict": cert.verdict, "reason": cert.reason or "", "witness": witness}
        )
    return 0, partial(_emit, rows, args.format)


def _cmd_census(args):
    report = discrim.census_scan(args.x)
    rows = []
    for cls in ("P1", "P2", "P3"):
        rows.append(
            {
                "class": cls,
                "count": report.counts[cls],
                "empirical": f"{report.empirical[cls]:.9f}",
                "predicted": f"{report.predicted[cls]:.9f}",
                "deviation": f"{report.deviation[cls]:+.6f}",
            }
        )

    def write(out) -> None:
        if args.format == "human":
            out.write(f"x = {report.x}, primes classified = {report.pi_x}\n")
        _emit(rows, args.format, out)

    return 0, write


def _check_digits(n: int, what: str) -> None:
    """Raise CapExceeded, naming n as `what`, when n has more digits than
    Python turns into text (`sys.get_int_max_str_digits()`; 0, or no such
    function, means no limit). Each subcommand that prints integers passes
    the largest one it will print, before it returns its writer."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and n >= 10**limit:
        raise discrim.CapExceeded(f"{what} has more than {limit} digits")


def _cmd_fset(args):
    if args.max < 1:
        raise ValueError("--max must be positive")
    discrim.census.check_fset_bound(args.max)
    if args.method == "weyl":
        rows = [(b, discrim.fset_member_weyl(b), None) for b in range(1, args.max + 1)]
    else:
        scan = discrim.fset_scan_interval if args.method == "interval" else discrim.fset_scan_checked
        records = scan(args.max)
        # witnesses grow with b, so the last non-member's (b = 1 is one) is the longest
        last = next(r for r in reversed(records) if not r.member)
        _check_digits(last.witness, f"F-set witness 2^{last.k} at b={last.b}")
        rows = [(r.b, r.member, r.witness) for r in records]
    rows = [{"b": b, "member": m, "witness": "" if w is None else w} for b, m, w in rows]
    return 0, partial(_emit, rows, args.format)


def _cmd_charsum(args):
    report = discrim.char_sum_report(args.p, args.g)
    ok = (
        report.setA_size == args.p - 2
        and discrim.charsum.charsum_bounds_hold(args.p, report.max_nontrivial_sum)
        and discrim.charsum.identity_residual_holds(report.identity_residual, args.p - 1)
    )
    rows = [
        {
            "p": report.p,
            "g": report.g,
            "setA_size": report.setA_size,
            "max_nontrivial_sum": f"{report.max_nontrivial_sum:.9f}",
            "sqrt_lower": f"{math.sqrt(report.setA_size):.9f}",
            "sqrt_p": f"{report.sqrt_p:.9f}",
            "identity_residual": f"{report.identity_residual:.3e}",
            "verdict": "ok" if ok else "FAIL",
        }
    ]
    return 0 if ok else 1, partial(_emit, rows, args.format)


def _cmd_artin(args):
    value = discrim.artin_constant(args.prime_limit)
    row = {"prime_limit": args.prime_limit, "artin_partial": f"{value:.12f}"}
    return 0, partial(_emit, [row], args.format)


def _cmd_verify(args):
    ok, results = discrim.run_suites(args.suite, n_max=args.nmax)
    if args.format != "human":
        rows = [{"suite": r.suite, "passed": r.passed, "detail": r.detail} for r in results]
        return 0 if ok else 1, partial(_emit, rows, args.format)
    lines = [f"[{'PASS' if r.passed else 'FAIL'}] {r.suite}: {r.detail}\n" for r in results]
    return 0 if ok else 1, lambda out: out.writelines(lines)


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    sink = f"--output {args.output}" if args.output else "stdout"
    try:
        code, write = args.handler(args)
        # opened only once the handler has its answer, so a refused command leaves FILE as it was
        try:
            out = open(args.output, "w") if args.output else sys.stdout
        except OSError as exc:
            raise ValueError(f"cannot open {sink}: {exc.strerror}") from None
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except discrim.CapExceeded as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1
    except discrim.MethodsDisagree as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        with out if args.output else contextlib.nullcontext():
            write(out)
            out.flush()
    except OSError as exc:
        if not args.output:
            # what stdout still buffers goes to devnull at exit, not to a second traceback
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):   # a reader that left early is no failure to report
            print(f"failure: cannot write {sink}: {exc.strerror}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(run())
