"""Command-line interface: grammar, formats, exit codes, cross-checks."""

import csv
import io
import json
import os
import re
import sys
import time

import pytest

import discrim
from discrim import census, charsum, cli, discriminator, periods, sequences
from discrim.cli import build_parser, run
from discrim.census import fset_member_interval
from discrim.discriminator import table_ranges
from discrim.numtheory import artin_constant
from discrim.periods import PeriodInfo
from discrim.verify import SUITES, CheckResult, run_suites


def run_cli(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------------ discriminate


def test_discriminate_default_cross_checks(capsys):
    code, out, err = run_cli(capsys, "discriminate", "--n", "20", "--format", "csv")
    assert code == 0 and not err
    (row,) = parse_csv(out)
    assert row == {"n": "20", "value": "25", "method": "verified_both"}


def test_discriminate_closed_only(capsys):
    code, out, _ = run_cli(
        capsys, "discriminate", "--n", "2049", "--method", "closed", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"n": 2049, "value": 3125, "method": "closed_form"}


def test_discriminate_generic_sequence(capsys):
    code, out, _ = run_cli(
        capsys, "discriminate", "--seq", "linrec:1,1,1,2", "--n", "6", "--format", "csv"
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["method"] == "brute_force"
    assert int(row["value"]) >= 6


def test_discriminate_rejects_closed_for_generic(capsys):
    code, _, err = run_cli(
        capsys, "discriminate", "--seq", "linrec:1,1,1,2", "--n", "4", "--method", "closed"
    )
    assert code == 2 and "error:" in err


def test_discriminate_refuses_a_cap_with_the_closed_form(capsys, monkeypatch):
    # the closed form tries no modulus, so a cap there is a usage error, as
    # the same cap is for the brute-force methods
    monkeypatch.setattr(discrim, "salajan_discriminator_closed", None)
    assert run_cli(capsys, "discriminate", "--n", "5", "--method", "closed", "--cap", "3") == (
        2, "", "error: --cap applies only to --method brute or both\n")
    for method in ("brute", "both"):
        assert run_cli(capsys, "discriminate", "--n", "5", "--method", method, "--cap", "3") == (
            2, "", "error: search_cap must be at least n\n")


def test_discriminate_constant_sequence_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "discriminate", "--seq", "poly:5", "--n", "3")
    assert code == 2 and "no modulus" in err


def test_discriminate_repeat_beyond_the_exact_cap_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "discriminate", "--seq", "linrec:1,0,3,3", "--n", "200001", "--method", "brute"
    )
    assert code == 2 and err.startswith("error: terms 1 and 2 are both 3;")


def test_discriminate_polynomial_beyond_the_exact_cap_is_failure(capsys):
    # the exact walk stops at the cap for every spec, so a long polynomial
    # prefix is refused without a digest for each of its n terms
    code, _, err = run_cli(
        capsys, "discriminate", "--seq", "poly:0,0,1", "--n", "200001", "--method", "brute"
    )
    assert (code, err) == (1, "failure: exact term index 200001 exceeds cap 200000\n")


def test_discriminate_fast_growing_recurrence_is_refused_at_once(capsys):
    # v_j grows by about 333 bits a step: the exact walk stops at term 957,
    # the first longer than the flagship's term at the cap, instead of
    # hashing 200000 ever longer terms
    c = str(10**100)
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "discriminate", "--seq", f"linrec:{c},{c},1,2", "--n", "200000", "--method", "brute"
    )
    assert time.perf_counter() - start < 5
    assert (code, out, err) == (1, "", "failure: exact term 957 has more than 316991 bits\n")


def test_discriminate_cap_exhaustion_is_failure(capsys):
    code, _, err = run_cli(
        capsys, "discriminate", "--n", "17", "--method", "brute", "--cap", "24"
    )
    assert code == 1 and "failure:" in err


@pytest.mark.parametrize("method", ["both", "brute"])
def test_discriminate_past_the_memo_limit_fails_at_once(capsys, method):
    # D(10^12) lies far above 2^22, the largest modulus the sweep tries
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "discriminate", "--n", "1000000000000", "--method", method)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (
        1, "", "failure: no modulus <= 4194304 separates the first 1000000000000 terms\n")


@pytest.mark.parametrize("seq,n,budget", [
    ("salajan", 200, 369), ("poly:0,0,1", 100, 11258), ("poly:0,0,0,0,1", 100, 11704)])
def test_discriminate_past_the_sweep_budget_is_failure(capsys, monkeypatch, seq, n, budget):
    # the scans from n up to D(n) read one term more than the budget, a
    # polynomial's terms counted once per coefficient: the flagship scans
    # only the 200 <= m <= 256 whose period pair (pre-period, pre-period +
    # period) from period_brute does not fit below 200, namely 211, 223,
    # 227, 233, 239, 251 and 256, and their iota(m) sum to 370; for the
    # squares' 100 <= m <= 202, every one scanned, iota(m) sums to
    # 3753 (3 * 3753 = 11259) and for the fourth powers' 100 <= m <= 206 to
    # 2341 (5 * 2341 = 11705)
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", budget)
    code, out, err = run_cli(capsys, "discriminate", "--seq", seq, "--n", str(n), "--method", "brute")
    assert (code, out, err) == (1, "", f"failure: sweep scans read more than {budget} terms by n = {n}\n")
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", budget + 1)
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})
    code, out, err = run_cli(capsys, "discriminate", "--seq", seq, "--n", str(n), "--method", "brute")
    assert code == 0 and not err


def test_both_methods_disagreeing_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(
        discriminator,
        "discriminator_brute",
        lambda spec, n, cap=None: discriminator.DiscriminatorRecord(n, 26, "brute_force"),
    )
    monkeypatch.setattr(periods, "period_brute", lambda spec, d: PeriodInfo(d, 1, 5))
    real_weyl = census.fset_member_weyl
    monkeypatch.setattr(census, "fset_member_weyl", lambda b: real_weyl(b) != (b == 3))
    for argv, message in [
        (("discriminate", "--n", "20"), "methods disagree at n=20: closed=25 brute=26"),
        (("period", "--d", "5"), "methods disagree at d=5:"),
        (("fset", "--max", "4"), "methods disagree at b=3:"),
    ]:
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith(message), argv
    # their suites run the same cross-check routines
    assert run_cli(capsys, "verify", "--suite", "periods") == (
        1, f"[FAIL] periods: period mismatch at d={list(range(2, 12))}\n", "",
    )
    assert run_cli(capsys, "verify", "--suite", "fset") == (
        1, "[FAIL] fset: methods disagree at b=3: interval=True weyl=False\n", "",
    )


@pytest.mark.parametrize("name,fake,red", [
    ("max_nontrivial_char_sum", lambda real: lambda a, n: 1.01 * real(a, n),
     "set/bound failures: [(7, 'bounds', "),
    ("pair_count_identity_check", lambda real: lambda a, b, n: (0, 0.0, 2e-6 * n * n),
     "; identity residuals too big: [(7, "),
    ("CHARSUM_UPPER_MARGIN", lambda real: -1e-3, "set/bound failures: [(7, 'bounds', "),
], ids=["sqrt-bounds", "identity-residual", "upper-margin"])
def test_charsum_bound_failing_fails_the_cli_and_its_suite(capsys, monkeypatch, name, fake, red):
    monkeypatch.setattr(charsum, name, fake(getattr(charsum, name)))
    code, out, _ = run_cli(capsys, "charsum", "--p", "7", "--format", "csv")
    assert code == 1
    (row,) = parse_csv(out)
    assert row["verdict"] == "FAIL"
    code, out, _ = run_cli(capsys, "verify", "--suite", "charsum")
    assert code == 1 and out.startswith("[FAIL] charsum: ") and red in out


def test_discriminate_rejects_nonpositive_n(capsys):
    code, _, err = run_cli(capsys, "discriminate", "--n", "0")
    assert code == 2 and "error:" in err


def test_discriminate_value_past_the_digit_limit_fails_before_any_row(capsys, int_digits):
    int_digits(4300)
    for fmt in ("human", "csv", "json"):
        code, out, err = run_cli(
            capsys, "discriminate", "--n", "9" * 4300, "--method", "closed", "--format", fmt)
        assert (code, out, err) == (
            1, "", "failure: discriminator value of 14286 bits has more than 4300 digits\n")
    # D(2^2126) = 2^2126, with 640 digits; D(2^2126 + 1) = 5^916, with 641
    int_digits(640)
    for fmt in ("human", "csv", "json"):
        code, out, _ = run_cli(
            capsys, "discriminate", "--n", str(2**2126), "--method", "closed", "--format", fmt)
        assert code == 0 and str(2**2126) in out.splitlines()[-1]
        code, out, err = run_cli(
            capsys, "discriminate", "--n", str(2**2126 + 1), "--method", "closed", "--format", fmt)
        assert (code, out, err) == (
            1, "", "failure: discriminator value of 2127 bits has more than 640 digits\n")


# ------------------------------------------------------------------ table


def test_table_csv_matches_library(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "100", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert [(int(r["start"]), int(r["end"]), int(r["value"])) for r in rows] == table_ranges(100)


def test_table_json_lines(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "8", "--format", "json")
    assert code == 0
    objs = [json.loads(line) for line in out.splitlines()]
    assert objs[0] == {"start": 1, "end": 1, "value": 1}
    assert objs[-1] == {"start": 5, "end": 8, "value": 8}


def test_table_up_to_10_18_returns_at_once(capsys):
    t0 = time.perf_counter()
    code, out, _ = run_cli(capsys, "table", "--max", str(10**18), "--format", "csv")
    assert time.perf_counter() - t0 < 1.0
    assert code == 0
    assert parse_csv(out)[-1]["end"] == str(10**18)


def test_table_human_is_aligned(capsys):
    code, out, _ = run_cli(capsys, "table", "--max", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["start", "end", "value"]
    assert len(lines) == 5


def test_table_value_past_the_digit_limit_fails_before_any_row(capsys, int_digits):
    int_digits(4300)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "table", "--max", "9" * 4300)
    assert time.perf_counter() - start < 2
    assert (code, out, err) == (
        1, "", "failure: table value of 14286 bits has more than 4300 digits\n")
    # 2^2126 has 640 digits and is the largest value below 10^640; past it
    # the last row's value is 5^916, with 641 digits and 2127 bits
    int_digits(640)
    for fmt in ("human", "csv", "json"):
        code, out, _ = run_cli(capsys, "table", "--max", str(2**2126), "--format", fmt)
        assert code == 0 and str(2**2126) in out.splitlines()[-1]
        code, out, err = run_cli(capsys, "table", "--max", str(2**2126 + 1), "--format", fmt)
        assert (code, out, err) == (
            1, "", "failure: table value of 2127 bits has more than 640 digits\n")


# ------------------------------------------------------------------ period / iota


def test_period_cross_checked(capsys):
    code, out, _ = run_cli(capsys, "period", "--d", "9", "--format", "csv")
    assert code == 0
    (row,) = parse_csv(out)
    assert row == {"modulus": "9", "pre_period": "2", "period": "2", "method": "both"}


def test_period_single_methods(capsys):
    for method, tag in (("formula", "formula"), ("brute", "brute")):
        code, out, _ = run_cli(
            capsys, "period", "--d", "7", "--method", method, "--format", "csv"
        )
        assert code == 0
        (row,) = parse_csv(out)
        assert (row["period"], row["method"]) == ("6", tag)


def test_period_formula_past_64_bits_exits_2(capsys):
    # 4 * 2^62 = 2^64 is past the 64-bit factoring range
    assert run_cli(capsys, "period", "--d", str(2**62), "--method", "formula") == (
        2, "", "error: factorize expects 1 <= n <= 2^64 - 1\n")


def test_period_formula_refused_for_generic(capsys):
    code, _, err = run_cli(capsys, "period", "--seq", "linrec:1,1,1,1", "--d", "10")
    assert code == 2 and "error:" in err
    code, out, _ = run_cli(
        capsys, "period", "--seq", "linrec:1,1,1,1", "--d", "10", "--method", "brute",
        "--format", "csv",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert row["period"] == "60"                 # Pisano period of 10


def test_period_brute_walk_is_bounded(capsys):
    # mod d = 10^9 + 7 the walk would visit about 10^9 states; it stops at
    # PERIOD_STATE_CAP
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "period", "--d", "1000000007")
    assert time.perf_counter() - start < 10
    assert (code, out) == (1, "")
    assert err == "failure: no repeated state within 1048576 steps mod 1000000007\n"
    # the cap also covers generic recurrences whose cycle outgrows 4d + 64
    code, out, _ = run_cli(
        capsys, "period", "--seq", "linrec:1,3,0,1", "--d", "11", "--method", "brute",
        "--format", "csv",
    )
    assert code == 0
    (row,) = parse_csv(out)
    assert (row["pre_period"], row["period"]) == ("1", "120")


def test_iota_single_and_range(capsys):
    code, out, _ = run_cli(capsys, "iota", "--m", "29", "--format", "csv")
    assert code == 0
    (row,) = parse_csv(out)
    assert row == {"m": "29", "iota": "14"}

    code, out, _ = run_cli(capsys, "iota", "--range", "1:8", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert [r["m"] for r in rows] == [str(m) for m in range(1, 9)]
    assert rows[6]["iota"] == "2"                # iota(7) = 2


def test_iota_past_the_scan_cap_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(sequences, "SCAN_TERM_CAP", 64)
    assert run_cli(capsys, "iota", "--m", "64", "--format", "csv") == (0, "m,iota\n64,64\n", "")
    assert run_cli(capsys, "iota", "--m", "128") == (
        1, "", "failure: no repeated residue within 65 terms mod 128\n")


def test_iota_of_a_4300_digit_modulus_fails_inside_1_gb():
    # a scan of 2^22 + 1 residues of 4,300 digits would need about 8 GB
    import resource
    import subprocess

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    m = 10**4299 + 7
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "discrim.cli", "iota", "--m", str(m)], capture_output=True,
        text=True, timeout=60, preexec_fn=limit, env={**os.environ, "PYTHONPATH": path},
    )
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"failure: no repeated residue within 18796 terms mod {m}\n"


def test_iota_flags_are_mutually_exclusive():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["iota", "--m", "5", "--range", "1:4"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["iota"])


def test_bad_range_is_usage_error(capsys):
    for bad in ("5", "9:2", "a:b"):
        code, _, err = run_cli(capsys, "iota", "--range", bad)
        assert code == 2 and "error:" in err, bad


def test_over_budget_span_exits_1_at_once(capsys):
    # a span holds at most 2^18 integers, none above 2^22, the largest
    # modulus the sweep tries; both are checked before any work
    for argv, err in [
        (("iota", "--range", "1:1000000000"), "range 1:1000000000 holds more than 262144 integers"),
        (("screen", "--range", "4194305:4194306"),
         "range 4194305:4194306 reaches past 4194304, the largest modulus scanned"),
        (("iota", "--range", "4194304:4194305"),
         "range 4194304:4194305 reaches past 4194304, the largest modulus scanned"),
    ]:
        start = time.perf_counter()
        assert run_cli(capsys, *argv) == (1, "", f"failure: {err}\n")
        assert time.perf_counter() - start < 0.5
    # its screens read 123,613 terms, where a worst-case estimate of
    # min(d, 2^22 + 1) terms each came to 67,111,904
    code, out, err = run_cli(capsys, "screen", "--range", "2:11585", "--format", "csv")
    assert code == 0 and not err
    assert len(parse_csv(out)) == 11584


@pytest.mark.parametrize("argv,at,terms", [
    (("iota", "--range", "1:50"), "m = 50", 426),
    (("screen", "--range", "2:89"), "d = 89", 310),
])
def test_span_past_the_sweep_budget_is_failure(capsys, monkeypatch, argv, at, terms):
    # the span's scans read `terms` terms, the last row's scan among them:
    # iota(m) for each m, and for each d the iota in its witness, which the
    # 3 | d and period screens leave out
    lo, hi = map(int, argv[2].split(":"))
    seq, targets = sequences.salajan(), range(lo, hi + 1)
    if argv[0] == "iota":
        assert sum(periods.incongruence_index(seq, m) for m in targets) == terms
    else:
        assert sum(discriminator.nonvalue_screen(d).witness.get("iota", 0) for d in targets) == terms
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", terms - 1)
    assert run_cli(capsys, *argv) == (
        1, "", f"failure: range {argv[2]} scans read more than {terms - 1} terms by {at}\n")
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", terms)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and not err


@pytest.mark.parametrize("argv", [
    ("fset", "--max", "0"),
    ("fset", "--max", "-3"),
    ("iota", "--range", "0:0"),
    ("iota", "--range=-5:0"),
    ("screen", "--range", "0:1"),
    ("screen", "--range=-7:1"),
])
def test_empty_request_is_usage_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


BIG = "1" * 4301   # one digit more than Python turns into an int by default


@pytest.mark.parametrize("argv", [
    ("iota", "--range", "0:0"),
    ("screen", "--range=-5:0", "--format", "csv"),
    ("iota", "--range", "9:2", "--format", "json"),
    ("screen", "--range", "a:b"),
    ("iota", "--range", "5", "--format", "csv"),
    ("screen", "--range", "5", "--format", "json"),
    ("iota", "--range", "1:1", "--format", "json"),
    ("screen", "--range", "1:1"),
    ("iota", "--range", "4194300:4194301", "--format", "csv"),
    ("screen", "--range", "4194300:4194301", "--format", "json"),
    ("iota", "--range", "4194305:4194305"),
    ("screen", "--range", "4194305:4194305", "--format", "csv"),
    ("iota", "--range", "1:262145", "--format", "json"),
    ("screen", "--range", "2:262146"),
    ("iota", "--range", f"1:{BIG}"),
    ("iota", "--range", f"1:{BIG[1:]}"),
    ("screen", "--range", f"{BIG}:{BIG}", "--format", "csv"),
    ("iota", "--range=-5:0", "--format", "json"),
    ("screen", "--range", "0:0", "--format", "json"),
    ("iota", "--range", "2:3000", "--format", "csv"),
    ("screen", "--range", "2:3000"),
], ids=lambda argv: " ".join(a if len(a) < 30 else f"<{len(a)} chars>" for a in argv))
def test_range_smoke(capsys, argv):
    # each span ends in an answer or a bounded error, printing rows only on
    # success and never a traceback
    start = time.perf_counter()
    try:
        code = run(list(argv))
    except SystemExit as exc:   # argparse's own usage errors
        code = exc.code
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 1
    assert code in (0, 1, 2) and "Traceback" not in captured.err
    assert bool(captured.out) == (code == 0) and bool(captured.err) == (code != 0)


# ------------------------------------------------------------------ screen


def test_screen_single_certificate(capsys):
    code, out, _ = run_cli(capsys, "screen", "--d", "15", "--format", "csv")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["verdict"] == "non_value" and row["reason"] == "divisible_by_3"
    assert json.loads(row["witness"]) == {"d_mod_3": 0}


def test_screen_range_verdicts(capsys):
    code, out, _ = run_cli(capsys, "screen", "--range", "2:40", "--format", "json")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert len(rows) == 39
    by_d = {r["d"]: r for r in rows}
    assert by_d[32]["verdict"] == "undecided"
    assert by_d[13]["reason"] == "period_screen"
    assert by_d[7]["reason"] == "iota_screen"
    for r in rows:
        json.loads(r["witness"])                  # witness is always valid JSON


def test_every_span_row_is_its_single_query(capsys):
    # counting the terms of a span changes none of its rows
    code, out, err = run_cli(capsys, "screen", "--range", "2:3000", "--format", "json")
    assert code == 0 and not err
    expected = []
    for d in range(2, 3001):
        cert = discriminator.nonvalue_screen(d)
        assert discriminator.recheck_certificate(cert)
        expected.append({"d": d, "verdict": cert.verdict, "reason": cert.reason or "",
                         "witness": json.dumps(cert.witness, sort_keys=True)})
    assert [json.loads(line) for line in out.splitlines()] == expected
    code, out, err = run_cli(capsys, "iota", "--range", "1:2000", "--format", "json")
    assert code == 0 and not err
    seq = sequences.salajan()
    assert [json.loads(line) for line in out.splitlines()] == [
        {"m": m, "iota": periods.incongruence_index(seq, m)} for m in range(1, 2001)]


def test_screen_certificate_failing_its_recheck_fails_the_cli_and_its_suite(capsys, monkeypatch):
    # a period screen that takes rho(7) for 1 still calls 7 a non-value, which
    # is true, but its certificate claims u_2 = u_1 mod 7, which the recheck refutes
    real = discriminator.salajan_period_formula
    monkeypatch.setattr(
        discriminator, "salajan_period_formula",
        lambda d: PeriodInfo(d, 1, 1) if d == 7 else real(d),
    )
    assert run_cli(capsys, "screen", "--range", "2:40") == (
        1, "", 'certificate fails its recheck at d=7: reason=period_screen witness={"rho": 1}\n',
    )
    code, out, _ = run_cli(capsys, "verify", "--suite", "screen")
    assert code == 1
    assert out.startswith("[FAIL] screen: 20 attained values all undecided; ")
    assert out.endswith("; certificates failing their recheck at d=[7]\n")


def test_screen_rejects_d_below_2(capsys):
    code, _, err = run_cli(capsys, "screen", "--d", "1")
    assert code == 2 and "error:" in err


# ------------------------------------------------------------------ census / fset / charsum / artin


def test_census_past_the_batch_range_exits_1_at_once(capsys):
    start = time.perf_counter()
    assert run_cli(capsys, "census", "--x", "4294967296") == (
        1, "", "failure: prime limit 4294967296 exceeds cap 4294967295\n")
    assert time.perf_counter() - start < 0.5


def test_census_output(capsys):
    code, out, _ = run_cli(capsys, "census", "--x", "1000", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert [r["class"] for r in rows] == ["P1", "P2", "P3"]
    assert sum(int(r["count"]) for r in rows) <= 168   # pi(1000)
    code, out, _ = run_cli(capsys, "census", "--x", "1000")
    assert "x = 1000, primes classified = 168" in out


def test_fset_both_methods(capsys):
    code, out, _ = run_cli(capsys, "fset", "--max", "10", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    members = [r["member"] == "True" for r in rows]
    assert members == [False, True, True, False, True, True, False, True, True, False]
    assert rows[0]["witness"] == "4"              # [4, 5] contains 2^2
    assert rows[1]["witness"] == ""


@pytest.mark.parametrize("method", ["interval", "both"])
def test_fset_scan_matches_the_per_b_interval_test(capsys, method):
    code, out, _ = run_cli(capsys, "fset", "--max", "300", "--method", method, "--format", "json")
    assert code == 0
    want = []
    for b in range(1, 301):
        rec = fset_member_interval(b)
        want.append({"b": b, "member": rec.member, "witness": rec.witness or ""})
    assert [json.loads(line) for line in out.splitlines()] == want


@pytest.mark.parametrize("method", ["both", "interval", "weyl"])
def test_fset_past_the_cap_fails_before_any_work(capsys, method):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "fset", "--max", "262145", "--method", method)
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (1, "", "failure: F-set bound 262145 exceeds cap 262144\n")


@pytest.fixture
def int_digits():
    """Set Python's int-to-text digit limit for one test, then restore it."""
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python converts ints of any length to text")
    saved = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(saved)


def test_fset_witness_past_the_digit_limit_fails_before_any_row(capsys, int_digits, monkeypatch):
    # b = 6151's witness 2^14282 has 4300 digits; 6152 and 6153 are members
    # and 6154's witness 2^14289 has 4302
    int_digits(4300)
    code, out, _ = run_cli(capsys, "fset", "--max", "6153", "--format", "csv")
    assert code == 0 and len(parse_csv(out)[6150]["witness"]) == 4300
    for top, b, k in ((6154, 6154, 14289), (6160, 6160, 14303), (6161, 6160, 14303)):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "fset", "--max", str(top))
        assert time.perf_counter() - start < 1
        assert (code, out, err) == (
            1, "", f"failure: F-set witness 2^{k} at b={b} has more than 4300 digits\n")
    # the witness comes from the pass's own records, with no second walk
    def refuse(b):
        raise AssertionError(f"fset_member_interval({b}) called by the CLI")
    monkeypatch.setattr(discrim, "fset_member_interval", refuse)
    code, out, err = run_cli(capsys, "fset", "--max", "6154")
    assert (code, out, err) == (
        1, "", "failure: F-set witness 2^14289 at b=6154 has more than 4300 digits\n")
    # without a limit every witness prints
    int_digits(0)
    code, out, _ = run_cli(capsys, "fset", "--max", "6160", "--method", "interval", "--format", "csv")
    assert code == 0 and out.endswith(f"6160,False,{2**14303}\n")


def test_fset_weyl_only(capsys):
    code, out, _ = run_cli(capsys, "fset", "--max", "6", "--method", "weyl", "--format", "csv")
    assert code == 0
    rows = parse_csv(out)
    assert [r["member"] for r in rows] == ["False", "True", "True", "False", "True", "True"]


def test_charsum_verdict_ok(capsys):
    code, out, _ = run_cli(capsys, "charsum", "--p", "7", "--format", "csv")
    assert code == 0
    (row,) = parse_csv(out)
    assert row["verdict"] == "ok"
    assert row["setA_size"] == "5"
    assert float(row["max_nontrivial_sum"]) == pytest.approx(7**0.5, abs=1e-6)


def test_charsum_rejects_small_or_composite_p(capsys):
    for bad in ("5", "9"):
        code, _, err = run_cli(capsys, "charsum", "--p", bad)
        assert code == 2 and "error:" in err


def test_charsum_above_the_dft_guard_fails_before_building_a(capsys):
    # building A for p near 4*10^6 took 12 s and 770 MB before the guard
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "charsum", "--p", "4000037")
    assert time.perf_counter() - start < 1.0
    assert (code, out, err) == (2, "", "error: group order 4000036 exceeds DFT guard 4096\n")


def test_artin_value(capsys):
    code, out, _ = run_cli(capsys, "artin", "--prime-limit", "100", "--format", "csv")
    assert code == 0
    (row,) = parse_csv(out)
    assert float(row["artin_partial"]) == pytest.approx(artin_constant(100), abs=1e-12)


def test_artin_past_the_prime_range_exits_1_at_once(capsys):
    start = time.perf_counter()
    assert run_cli(capsys, "artin", "--prime-limit", str(10**18)) == (
        1, "", f"failure: prime limit {10**18} exceeds cap 4294967295\n")
    assert time.perf_counter() - start < 0.5


# ------------------------------------------------------------------ verify


def test_verify_single_suite(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "table")
    assert code == 0
    assert out.startswith("[PASS] table:")


def test_verify_machine_formats(capsys):
    code, out, _ = run_cli(capsys, "verify", "--suite", "table", "--format", "json")
    assert code == 0
    (row,) = [json.loads(line) for line in out.splitlines()]
    assert row["suite"] == "table" and row["passed"] is True
    assert row["detail"] == "20 rows, expected 20 reference rows: match"
    code, out, _ = run_cli(capsys, "verify", "--suite", "note", "--format", "csv")
    assert code == 0
    (row,) = parse_csv(out)   # the detail's commas come back quoted
    assert (row["suite"], row["passed"]) == ("note", "True")
    assert row["detail"].startswith("asymptotic claims are checked as finite scans with declared tolerances: ")


def test_verify_unknown_suite(capsys):
    code, _, err = run_cli(capsys, "verify", "--suite", "bogus")
    assert code == 2 and "unknown suite" in err


def test_verify_help_names_every_suite_in_order(capsys, monkeypatch):
    # the help text and the suites read one tuple of names; a wide terminal
    # keeps argparse from breaking the list at a hyphen
    monkeypatch.setenv("COLUMNS", "1000")
    with pytest.raises(SystemExit):
        run(["verify", "--help"])
    text = capsys.readouterr().out
    assert re.search(r"--suite SUITE +(\S+) or all\n", text).group(1).split("|") == list(SUITES)


def test_run_suites_python_api():
    ok, results = run_suites(["table", "note"])
    assert ok and [r.suite for r in results] == ["table", "note"]
    with pytest.raises(ValueError):
        run_suites("never-heard-of-it")
    assert set(SUITES) >= {"table", "theorem1", "periods", "charsum", "note"}


def test_theorem1_range_is_passed_through_and_validated(capsys, monkeypatch):
    seen = []

    def fake_theorem1(n_max=4096):
        seen.append(n_max)
        return CheckResult("theorem1", True, "")

    with monkeypatch.context() as m:
        m.setitem(SUITES, "theorem1", fake_theorem1)
        run_suites(["theorem1"], n_max=8)
        run_suites(["theorem1"])
        assert run_cli(capsys, "verify", "--suite", "theorem1", "--nmax", "16")[0] == 0
    assert seen == [8, 4096, 16]
    # 0 and negative ranges are refused, not replaced by the default, and a
    # range past 2^16 is refused before its brute-force table is built
    for bad, message in ((0, "n_max must be positive"), (-5, "n_max must be positive"),
                         (2**16 + 1, "n_max must be at most 65536"),
                         (10**8, "n_max must be at most 65536")):
        with pytest.raises(ValueError, match=message):
            run_suites(["theorem1"], n_max=bad)
        code, out, err = run_cli(capsys, "verify", "--suite", "theorem1", "--nmax", str(bad))
        assert (code, out) == (2, "") and message in err


def test_nmax_without_theorem1_is_refused_before_any_suite(capsys, monkeypatch):
    ran = []
    monkeypatch.setitem(SUITES, "table", lambda: ran.append("table"))
    for suites in (["table"], ["table", "note"]):
        with pytest.raises(ValueError, match="^n_max applies only to the theorem1 suite$"):
            run_suites(suites, n_max=8)
    assert run_cli(capsys, "verify", "--suite", "table", "--nmax", "-3") == (
        2, "", "error: n_max applies only to the theorem1 suite\n")
    assert ran == []


# ------------------------------------------------------------------ output plumbing


def test_output_file_writes_instead_of_stdout(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    code, out, _ = run_cli(
        capsys, "table", "--max", "8", "--format", "csv", "--output", str(target)
    )
    assert code == 0 and out == ""
    rows = parse_csv(target.read_text())
    assert rows[-1]["value"] == "8"


@pytest.mark.parametrize("where", ["missing/rows.csv", "."])
def test_output_that_cannot_be_opened_is_usage_error(tmp_path, capsys, where):
    # a missing directory, or a directory
    target = tmp_path / where
    code, out, err = run_cli(capsys, "table", "--max", "8", "--output", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot open --output {target}: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,code",
    [
        (("fset", "--max", "0"), 2),
        (("discriminate", "--seq", "linrec:1,2,1,3", "--n", "500", "--method", "brute"), 1),
        (("iota", "--range", "1:262145"), 1),   # one row too many, refused before any scan
    ],
)
def test_output_survives_a_failing_command(tmp_path, capsys, argv, code):
    target = tmp_path / "keep.csv"
    target.write_bytes(b"123456789")
    assert run_cli(capsys, *argv, "--output", str(target))[:2] == (code, "")
    assert target.read_bytes() == b"123456789"


def test_range_refused_partway_leaves_the_output_file(tmp_path, capsys, monkeypatch):
    # the term budget refuses 2:89 at d = 89, after 87 rows were made
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 309)
    target = tmp_path / "keep.csv"
    target.write_bytes(b"123456789")
    assert run_cli(capsys, "screen", "--range", "2:89", "--format", "csv", "--output", str(target)) == (
        1, "", "failure: range 2:89 scans read more than 309 terms by d = 89\n")
    assert target.read_bytes() == b"123456789"


def test_output_leaves_no_tail_of_a_longer_file(tmp_path, capsys):
    target = tmp_path / "rows.csv"
    target.write_text("x" * 1000)
    assert run_cli(capsys, "table", "--max", "8", "--format", "csv", "--output", str(target))[0] == 0
    assert target.read_text() == "start,end,value\n1,1,1\n2,2,2\n3,4,4\n5,8,8\n"


def test_output_to_a_device_that_cannot_be_truncated(capsys):
    assert run_cli(capsys, "table", "--max", "8", "--output", os.devnull) == (0, "", "")


def spawn_cli(argv, stdout):
    """Run `python -m discrim.cli argv` in a child with this checkout's src, stdout
    going to the file descriptor `stdout`; returns (exit code, stderr)."""
    import subprocess

    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "discrim.cli", *argv], stdout=stdout, stderr=subprocess.PIPE,
        text=True, timeout=60, env={**os.environ, "PYTHONPATH": path},
    )
    return proc.returncode, proc.stderr


@pytest.mark.parametrize("argv", [["table", "--max", "8"], ["screen", "--range", "2:5000"]])
def test_a_reader_that_left_gets_exit_1_and_no_traceback(argv):
    read, write = os.pipe()
    os.close(read)
    try:
        assert spawn_cli(argv, write) == (1, "")
    finally:
        os.close(write)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this system")
def test_a_full_device_is_one_failure_line(capsys):
    assert run_cli(capsys, "table", "--max", "8", "--output", "/dev/full") == (
        1, "", "failure: cannot write --output /dev/full: No space left on device\n")
    with open("/dev/full", "w") as full:
        assert spawn_cli(["table", "--max", "8"], full) == (
            1, "failure: cannot write stdout: No space left on device\n")


@pytest.mark.parametrize(
    "argv,code",
    [
        (("fset", "--max", "0"), 2),
        (("discriminate", "--seq", "linrec:1,2,1,3", "--n", "500", "--method", "brute"), 1),
    ],
)
def test_a_failed_command_creates_no_output_file(tmp_path, capsys, argv, code):
    target = tmp_path / "new.csv"
    assert run_cli(capsys, *argv, "--output", str(target))[:2] == (code, "")
    assert not target.exists()


@pytest.mark.parametrize("argv", [
    ("census", "--x", "1000"),
    ("verify", "--suite", "note"),
    ("verify", "--suite", "table", "--format", "csv"),
    ("charsum", "--p", "13", "--format", "json"),
])
def test_output_file_holds_what_stdout_would(tmp_path, capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    target = tmp_path / "out.txt"
    assert run_cli(capsys, *argv, "--output", str(target)) == (code, "", err)
    assert code == 0 and target.read_bytes() == out.encode()


def test_missing_subcommand_is_parser_error():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


TOOLS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools")


def _output_digest_tool():
    """tools/output_digest.py as a module, its argvs not run."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("output_digest", os.path.join(TOOLS, "output_digest.py"))
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_output_digest_covers_every_subcommand():
    # the list is imported, not run: each argv names a subcommand and parses
    import argparse

    tool = _output_digest_tool()
    parser = build_parser()
    (commands,) = (a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {argv[0] for argv in tool.ARGVS} == set(commands)
    for argv in tool.ARGVS:
        parser.parse_args(argv)
    assert {argv[argv.index("--format") + 1] for argv in tool.ARGVS if "--format" in argv} == {
        "human", "json", "csv"}
    assert {("--g" in argv) for argv in tool.ARGVS if argv[0] == "charsum"} == {True, False}


def _committed_digests():
    """tools/output_digest.py as a module, and its committed digest lines by
    argv; a skip, naming both version pairs, when they were made with another
    python or numpy."""
    import platform

    import numpy

    tool = _output_digest_tool()
    with open(os.path.join(TOOLS, "output_digest.txt")) as f:
        header, *lines = f.read().splitlines()
    made = tuple(header.split()[2::2])
    here = (platform.python_version(), numpy.__version__)
    if made != here:
        pytest.skip("digests made with python {} and numpy {}; this is python {} and numpy {}"
                    .format(*made, *here))
    return tool, dict(reversed(line.split(" ", 1)) for line in lines)


def test_outputs_match_the_committed_digests(capsys, monkeypatch):
    # the output contract: each argv of tools/output_digest.py, run here
    # through `run`, prints what the digest committed beside the tool says,
    # and the tool's PAIRS code, run here too, prints the committed pairs
    # line. The suites run once for the three `verify --suite all` argvs,
    # which format that one result. Left out are `iota --m 2^64`, which
    # takes over 2 s in process, and the `--output /dev/stdout` argvs, which
    # the next test runs
    tool, committed = _committed_digests()
    suites = run_suites("all")
    got = {}
    for argv in tool.ARGVS:
        if argv[:3] == ["iota", "--m", str(2**64)] or "--output" in argv:
            continue
        with monkeypatch.context() as m:
            if argv[:3] == ["verify", "--suite", "all"]:
                m.setattr(discrim, "run_suites", lambda names, n_max: suites)
            code, out, err = run_cli(capsys, *argv)
        got[" ".join(argv)] = tool.digest_of(code, out.encode(), err.encode())
    assert len(got) == len(tool.ARGVS) - 4
    capsys.readouterr()
    exec(tool.PAIRS, {})
    pairs = capsys.readouterr().out
    got["collision_certificate pairs of EXPECTED_TABLE rows above 64"] = tool.digest_of(0, pairs.encode(), b"")
    assert got == {key: committed.get(key) for key in got}


def test_file_sink_outputs_match_the_committed_digests(capfd):
    # the file sink's argvs write through /dev/stdout, this process's fd 1,
    # which capsys does not see
    tool, committed = _committed_digests()
    got = {}
    for argv in tool.ARGVS:
        if "--output" in argv:
            capfd.readouterr()
            code = run(argv)
            out, err = capfd.readouterr()
            got[" ".join(argv)] = tool.digest_of(code, out.encode(), err.encode())
    assert len(got) == 3
    assert got == {key: committed.get(key) for key in got}
