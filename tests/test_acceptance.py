"""Acceptance gate: twelve numbered criteria, one test (one pass/fail line) each.

Each criterion is checked at its stated tolerance. Two criteria assert
reference values that turn out to be mathematically false; those tests
implement the criterion faithfully as stated and therefore fail, with the
blocking analysis in README.md, section "Tests and the acceptance gate":

  * criterion 04 requires iota(307) = rho(307), but iota(307) = 16 while
    rho(307) = 34 (the collision u_17 = u_2 = 1 mod 307 lands inside the
    first period);
  * criterion 11 requires the strict bound |A^| < sqrt(p), but the maximum
    nontrivial character sum over A is a Jacobi sum of modulus exactly
    sqrt(p), so the strict form fails at every prime.

All other criteria pass. Run with `pytest -v` for the per-criterion lines.
"""

import math
import random

from discrim.charsum import char_sum_report, pair_count_identity_check
from discrim.numtheory import primes_up_to
from discrim.periods import incongruence_index, iota_equals_rho_scan, period_brute
from discrim.sequences import salajan
from discrim.verify import (
    check_artin,
    check_census,
    check_fset,
    check_iota_bounds,
    check_note,
    check_periods,
    check_screen,
    check_table,
    check_theorem1,
    check_valuation,
)


def _report(num: int, ok: bool, detail: str) -> None:
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num:02d}: {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def _delegate(num: int, result, detail: str) -> None:
    """Report a suite's result and pin its passing detail verbatim: the suites
    take no sizes, so the detail is where the checked ranges and counts show."""
    _report(num, result.passed, result.detail)
    assert result.detail == detail


def test_criterion_01_table_reproduction():
    # table_ranges(32768) equals the twenty reference rows verbatim; exact.
    _delegate(1, check_table(), "20 rows, expected 20 reference rows: match")


def test_criterion_02_theorem_oracle_equivalence():
    # brute force == closed form for all n <= 4096, and at every tabulated
    # range boundary up to 32768 the claimed value succeeds while every
    # smaller modulus >= n fails; exact.
    # 40308 = the sum of D(n) - n over the 38 boundaries, each such modulus
    # scanned once and failing
    _delegate(
        2,
        check_theorem1(4096),
        "brute=closed for n<=n_max (4096), 38 boundaries tight (40308 smaller moduli all fail)",
    )


def test_criterion_03_period_formula():
    # period_brute == salajan_period_formula (period and pre-period) for all
    # 2 <= d <= 5000, including the power-of-2 / power-of-3 / mod-5 / mod-9
    # anchors; exact.
    _delegate(3, check_periods(), "formula = cycle detection for 2<=d<=5000; anchor periods hold")


def test_criterion_04_iota_anchors():
    # iota(29) = 14, and iota(p) = rho(p) exactly for each p in the reference
    # list {193, 307, 1093, 1181, 1871}; a scan of all primes <= 2000 may
    # report extra coincidences but must confirm the listed five.
    seq = salajan()
    iota29 = incongruence_index(seq, 29)
    listed = [193, 307, 1093, 1181, 1871]
    facts = []
    refuted = []
    for p in listed:
        iota = incongruence_index(seq, p)
        rho = period_brute(seq, p).period
        facts.append(f"iota({p})={iota}, rho({p})={rho}")
        if iota != rho:
            refuted.append(p)
    scan = iota_equals_rho_scan(2000)
    extras = sorted(set(scan) - set(listed))
    ok = iota29 == 14 and not refuted
    detail = (
        f"iota(29)={iota29}; " + "; ".join(facts)
        + f"; scan extras <= 2000: {extras}"
    )
    if refuted:
        detail += (
            f"; the reference list is refuted at {refuted}: the collision"
            " u_17 = u_2 = 1 mod 307 gives iota(307) = 16 < 34 = rho(307)"
            ' (analysis in README.md, "Tests and the acceptance gate")'
        )
    _report(4, ok, detail)


def test_criterion_05_iota_prime_bounds():
    # iota(p) <= min((p-1)/2, 4 p^{3/4}) for all primes 5 < p <= 10^5; exact.
    _delegate(
        5, check_iota_bounds(), "iota(p) <= min((p-1)/2, 4p^0.75) for all primes 5 < p <= 100000"
    )


def test_criterion_06_valuation_formula():
    # beyl_valuation agrees with the exact big-integer valuation for
    # p in {2, 3, 5, 7}, admissible r, n <= 200; exact.
    # 1800 = 200 exponents x 9 (p, r) pairs
    _delegate(6, check_valuation(), "closed formula = exact valuation of r^n - 1 in 1800 cases")


def test_criterion_07_screen_soundness_and_completeness():
    # soundness to 32768 (no attained value certified non_value) and
    # completeness to 4096 (every non-image d that is not a power of 2 or 5
    # gets a certificate); exact.
    _delegate(
        7,
        check_screen(),
        "20 attained values all undecided; 4078 non-image d <= 4096 certified non_value",
    )


def test_criterion_08_prime_census():
    # classification of all primes <= 300 reproduces the three reference
    # listings element-for-element, and the census at x = 10^6 lands within
    # 5% relative of the predicted densities.
    _delegate(
        8,
        check_census(),
        "listings <= 300 match; densities at x=1000000: P1 0.224464 (+0.04%), "
        "P2 0.225522 (+0.51%), P3 0.149966 (+0.26%) within 5%",
    )


def test_criterion_09_artin_constant():
    # partial product at prime_limit 10^6 equals 0.3739558136 within 1e-6.
    _delegate(9, check_artin(), "partial product at 1000000 = 0.3739558390, |err| = 2.54e-08")


def test_criterion_10_fset():
    # interval and Weyl methods agree for all b <= 10^5; membership for
    # b = 1..6 is (no, yes, yes, no, yes, yes); count ratio at 10^5 within
    # 0.01 of beta = 0.6781.
    _delegate(
        10,
        check_fset(),
        "b=1..6 membership matches; interval = weyl for all b <= 100000; "
        "count 67807, ratio 0.67807 vs beta 0.67807",
    )


def test_criterion_11_charsum_bounds():
    # for all primes 5 < p <= 300: |A| = p - 2 and
    # sqrt(p-2) <= |A^| < sqrt(p) numerically (1e-6 tolerance on the lower
    # side; the upper bound as stated is strict), plus pair-count identity
    # residual < 1e-6 * |G| on randomized instances.
    primes = [int(p) for p in primes_up_to(300) if p > 5]
    size_bad, lower_bad, strict_bad = [], [], []
    worst_p, worst_gap = None, -math.inf
    for p in primes:
        report = char_sum_report(p)
        if report.setA_size != p - 2:
            size_bad.append(p)
        if report.max_nontrivial_sum < math.sqrt(p - 2) - 1e-6:
            lower_bad.append(p)
        gap = report.max_nontrivial_sum - report.sqrt_p
        if not report.max_nontrivial_sum < report.sqrt_p:
            strict_bad.append(p)
            if gap > worst_gap:
                worst_p, worst_gap = p, gap

    rng = random.Random(20260816)
    residual_bad = []
    instances = 0
    def draw(n):
        return {
            (rng.randrange(n), rng.randrange(n))
            for _ in range(rng.randint(1, 2 * n))
        }

    for n in (6, 9, 12, 16):
        for _ in range(3):
            direct, via_chars, residual = pair_count_identity_check(draw(n), draw(n), n)
            instances += 1
            if not (residual < 1e-6 * n * n and round(via_chars) == direct):
                residual_bad.append((n, residual))

    ok = not (size_bad or lower_bad or strict_bad or residual_bad)
    detail = (
        f"|A| = p-2 at {len(primes) - len(size_bad)}/{len(primes)} primes;"
        f" lower bound holds at {len(primes) - len(lower_bad)}/{len(primes)};"
        f" pair-count residual < 1e-6*|G| on {instances - len(residual_bad)}"
        f"/{instances} randomized instances;"
        f" STRICT upper bound |A^| < sqrt(p) fails at"
        f" {len(strict_bad)}/{len(primes)} primes"
    )
    if strict_bad:
        detail += (
            f" (worst excess {worst_gap:+.3e} at p = {worst_p}): the maximum"
            " is a Jacobi sum of modulus exactly sqrt(p), so the strict form"
            ' is unattainable; analysis in README.md, "Tests and the acceptance gate"'
        )
    _report(11, ok, detail)


def test_criterion_12_asymptotics_note():
    # the density and equidistribution targets are asymptotic (and partly
    # conditional), so finite scans stand in for limits at declared
    # tolerances; this records those tolerances.
    _delegate(
        12,
        check_note(),
        "asymptotic claims are checked as finite scans with declared tolerances: "
        "density 5% relative, F-set ratio 0.01 absolute",
    )
