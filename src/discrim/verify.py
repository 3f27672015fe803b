"""Umbrella verification suites: every headline claim as a pass/fail check.

Each suite recomputes a documented claim by an independent route (brute force
against closed form, exact arithmetic against fast criteria, scans against
listings) and returns CheckResults. `run_suites` is the single entry point
used by both the CLI and the acceptance tests.
"""

from __future__ import annotations

import math
import os
import random
import sys
import zlib
from array import array
from typing import Iterator, NamedTuple

from . import _SUITE_NAMES
from . import census as census_mod
from . import charsum as charsum_mod
from .discriminator import (
    VERDICT_NON_VALUE,
    VERDICT_UNDECIDED,
    discriminator_table,
    nonvalue_screen,
    recheck_certificate,
    recheck_collision_certificate,
    salajan_discriminator_closed,
    table_ranges,
)
from .numtheory import artin_constant, lte_valuation, padic_valuation, primes_up_to
from .periods import (
    incongruence_index,
    iota_equals_rho_scan,
    iota_prime_bound,
    period_brute,
    salajan_period_checked,
    salajan_period_formula,
)
from .sequences import MethodsDisagree, salajan

# soft-check tolerances, declared in one place on purpose: the density and
# equidistribution targets are asymptotic constants, not finite identities
TOLERANCES = {
    "density_relative": 0.05,      # census at x = 10^6 vs predicted densities
    "artin_abs": 1e-6,             # partial product at prime_limit = 10^6
    "fset_ratio_abs": 0.01,        # F-set count ratio at x = 10^5 vs beta
}


# the 20 reference rows reproduced by table_ranges(32768)
EXPECTED_TABLE = [
    (1, 1, 1), (2, 2, 2), (3, 4, 4), (5, 8, 8), (9, 16, 16),
    (17, 20, 25), (21, 32, 32), (33, 64, 64), (65, 100, 125), (101, 128, 128),
    (129, 256, 256), (257, 512, 512), (513, 1024, 1024), (1025, 2048, 2048),
    (2049, 2500, 3125), (2501, 4096, 4096), (4097, 8192, 8192),
    (8193, 12500, 15625), (12501, 16384, 16384), (16385, 32768, 32768),
]

# the collision certificate of every EXPECTED_TABLE row, in order: the `first`
# then the `second` array of `collision_certificate(a, v)` as little-endian
# uint16, zlib-compressed. tools/theorem1_pairs.py writes it from the search
_PAIRS_FILE = os.path.join(os.path.dirname(__file__), "theorem1_pairs.bin")


def _committed_certificates() -> Iterator[tuple[tuple[int, int, int], array, array]]:
    """Each EXPECTED_TABLE row (a, b, v) with the `first` and `second` pair
    arrays that the committed file holds for its moduli [a, v). A file that
    is missing or does not decompress holds no pairs, and one cut short
    leaves its later rows short arrays; `recheck_collision_certificate`
    rejects either, so neither raises."""
    try:
        with open(_PAIRS_FILE, "rb") as f:
            raw = zlib.decompress(f.read())
    except (OSError, zlib.error):
        raw = b""
    pairs = array("H", raw[:len(raw) // 2 * 2])
    if sys.byteorder == "big":
        pairs.byteswap()
    k = 0
    for a, b, v in EXPECTED_TABLE:
        n = v - a
        yield (a, b, v), pairs[k:k + n], pairs[k + n:k + 2 * n]
        k += 2 * n

# theorem1's brute-force table takes about 0.6 s and 19 MB peak RSS at 2^16
# on a 2-core host, numpy never imported; past that a --nmax typo would run
# a sweep of up to 2^22 moduli, where this bound refuses it at once, with
# exit 2
THEOREM1_MAX_N = 1 << 16

# reference prime-class listings up to 300
LISTED_P1 = [5, 17, 29, 53, 89, 101, 113, 137, 149, 173, 197, 233, 257, 269, 281, 293]
LISTED_P2 = [11, 23, 47, 59, 71, 83, 107, 131, 167, 179, 191, 227, 239, 251, 263]
LISTED_P3 = [7, 19, 31, 43, 79, 127, 139, 163, 199, 211, 223, 283]

# equality cases iota(p) = rho(p): four anchor primes, each re-verified by
# brute force, and the frozen result of the exhaustive scan up to 2000
IOTA_EQ_RHO_ANCHORS = [193, 1093, 1181, 1871]
IOTA_EQ_RHO_SCAN_2000 = [2, 5, 13, 41, 73, 193, 757, 769, 1093, 1181, 1597, 1621, 1871]


class CheckResult(NamedTuple):
    suite: str
    passed: bool
    detail: str


# ---------------------------------------------------------------- table


def check_table() -> CheckResult:
    rows = table_ranges(32768)
    ok = rows == EXPECTED_TABLE
    detail = f"{len(rows)} rows, expected 20 reference rows: {'match' if ok else 'MISMATCH'}"
    return CheckResult("table", ok, detail)


# ---------------------------------------------------------------- theorem1


def check_theorem1(n_max: int = 4096) -> CheckResult:
    """Brute force equals the closed form for n <= n_max (one table sweep) and
    at the start and end of every reference row. Above n_max a row counts only
    when `recheck_collision_certificate` accepts its committed collision
    certificate, read from the file that `collision_certificate` only writes
    (tools/theorem1_pairs.py), so the search never runs here; a row it
    rejects turns the suite red and is named, with the command that
    reproduces the failure."""
    if n_max > THEOREM1_MAX_N:
        raise ValueError(f"n_max must be at most {THEOREM1_MAX_N}")
    brute = discriminator_table(salajan(), n_max)
    mismatches = [
        n for n in range(1, n_max + 1) if brute[n - 1] != salajan_discriminator_closed(n).value
    ]

    boundaries = 0
    bad_bounds = []
    rejected = []
    failing_moduli = 0
    for (a, b, v), first, second in _committed_certificates():
        if b > n_max and not recheck_collision_certificate((a, b, v), first, second):
            rejected.append((a, b, v))
            continue
        for n in sorted({a, b}):
            d = salajan_discriminator_closed(n).value
            m = brute[n - 1] if n <= n_max else v
            if m != d:
                bad_bounds.append((n, d, m))
            failing_moduli += m - n
            boundaries += 1
    ok = not mismatches and not bad_bounds and not rejected
    detail = (
        f"brute=closed for n<=n_max ({n_max}), {boundaries} boundaries tight "
        f"({failing_moduli} smaller moduli all fail)"
    )
    if mismatches:
        detail = f"closed/brute mismatch at n={mismatches[:10]}"
    if bad_bounds:
        detail += f"; boundary failures (n, closed, brute): {bad_bounds[:5]}"
    if rejected:
        detail += (
            f"; collision certificate rejected on {len(rejected)} row(s) "
            f"(start, end, value): {rejected[:5]}; "
            f"reproduce: discrim verify --suite theorem1 --nmax {n_max}"
        )
    return CheckResult("theorem1", ok, detail)


# ---------------------------------------------------------------- periods


def check_periods() -> CheckResult:
    d_max = 5000
    bad = []
    for d in range(2, d_max + 1):
        try:
            salajan_period_checked(d)
        except MethodsDisagree:
            bad.append(d)
    anchors_ok = True
    for e in range(1, 21):
        if salajan_period_formula(2**e).period != 2**e:
            anchors_ok = False
    for e in range(1, 11):
        info = salajan_period_formula(3**e)
        if info.period != 2 or info.pre_period != e:
            anchors_ok = False
    five = salajan_period_formula(5)
    nine = salajan_period_formula(9)
    anchors_ok = anchors_ok and five.period == 4 and nine.pre_period == 2
    ok = not bad and anchors_ok
    detail = f"formula = cycle detection for 2<=d<={d_max}; anchor periods hold"
    if bad:
        detail = f"period mismatch at d={bad[:10]}"
    elif not anchors_ok:
        detail = "anchor period values failed"
    return CheckResult("periods", ok, detail)


# ---------------------------------------------------------------- iota anchors


def check_iota_anchors() -> CheckResult:
    seq = salajan()
    if incongruence_index(seq, 29) != 14:
        return CheckResult("iota-anchors", False, "iota(29) != 14")
    found = iota_equals_rho_scan(2000)
    # independent re-verification of every reported equality case
    unconfirmed = [p for p in found if incongruence_index(seq, p) != period_brute(seq, p).period]
    # negative anchor: 307 does NOT satisfy iota = rho — the first collision
    # is u_17 = u_2 (mod 307), so iota(307) = 16, while the period is 34
    neg_ok = incongruence_index(seq, 307) == 16 and period_brute(seq, 307).period == 34
    # the frozen list holds the four anchors and none of 7, 29, 307
    problems = []
    if not neg_ok:
        problems.append("negative anchor 307 failed")
    if unconfirmed:
        problems.append(f"scan reports {unconfirmed}, where brute iota != brute period")
    if found != IOTA_EQ_RHO_SCAN_2000:
        missing = sorted(set(IOTA_EQ_RHO_SCAN_2000) - set(found))
        extra = sorted(set(found) - set(IOTA_EQ_RHO_SCAN_2000))
        problems.append(
            f"scan(2000) drifted from the frozen list: missing {missing}, extra {extra}"
        )
    if problems:
        return CheckResult("iota-anchors", False, "; ".join(problems))
    extras = [p for p in found if p not in IOTA_EQ_RHO_ANCHORS]
    detail = (
        f"iota(29)=14; scan(2000) = {found}, all re-verified against "
        f"brute periods; iota(307)=16 < 34=rho(307); extras beyond the four "
        f"anchor primes: {extras}"
    )
    return CheckResult("iota-anchors", True, detail)


# ---------------------------------------------------------------- iota bounds


def check_iota_bounds() -> CheckResult:
    """iota(p) stays under the proven prime bound."""
    prime_limit = 100_000
    seq = salajan()
    bad = [
        p
        for p in primes_up_to(prime_limit).tolist()
        if p > 5 and incongruence_index(seq, p) > iota_prime_bound(p)
    ]
    ok = not bad
    detail = f"iota(p) <= min((p-1)/2, 4p^0.75) for all primes 5 < p <= {prime_limit}"
    if bad:
        detail = f"bound violated at p={bad[:10]}"
    return CheckResult("iota-bounds", ok, detail)


# ---------------------------------------------------------------- valuation


def check_valuation() -> CheckResult:
    cases = 0
    bad = []
    for p in (2, 3, 5, 7):
        rs = {p + 1, 2 * p + 1}
        if (9 - 1) % p == 0:
            rs.add(9)
        for r in sorted(rs):
            for n in range(1, 201):
                want = padic_valuation(p, r**n - 1)
                got = lte_valuation(p, r, n)
                cases += 1
                if got != want:
                    bad.append((p, r, n, got, want))
    ok = not bad
    detail = f"closed formula = exact valuation of r^n - 1 in {cases} cases"
    if bad:
        detail = f"valuation mismatch: {bad[:5]}"
    return CheckResult("valuation", ok, detail)


# ---------------------------------------------------------------- screen


def _is_power_of(base: int, d: int) -> bool:
    while d % base == 0:
        d //= base
    return d == 1


def check_screen() -> CheckResult:
    """Soundness: no value of the reference table (n <= 32768) is certified
    non_value. Completeness at desk scale: every d <= 4096 that is not a
    power of 2 or 5 is certified; every value of D(n) is such a power."""
    complete_limit = 4096
    values = sorted({row[2] for row in EXPECTED_TABLE})
    unsound, unchecked = [], []
    for v in values:
        if v < 2:
            continue
        cert = nonvalue_screen(v)
        if cert.verdict != VERDICT_UNDECIDED:
            unsound.append((v, cert.reason))
        if not recheck_certificate(cert):
            unchecked.append(v)
    holes = []
    certified = 0
    for d in range(2, complete_limit + 1):
        if _is_power_of(2, d) or _is_power_of(5, d):
            continue
        cert = nonvalue_screen(d)
        if not recheck_certificate(cert):
            unchecked.append(d)
        if cert.verdict != VERDICT_NON_VALUE:
            holes.append(d)
        else:
            certified += 1
    ok = not unsound and not holes and not unchecked
    detail = (
        f"{len(values)} attained values all undecided; "
        f"{certified} non-image d <= {complete_limit} certified non_value"
    )
    if unsound:
        detail = f"values wrongly certified: {unsound[:5]}"
    if holes:
        detail += f"; non-values left undecided: {holes[:10]}"
    if unchecked:
        detail += f"; certificates failing their recheck at d={unchecked[:10]}"
    return CheckResult("screen", ok, detail)


# ---------------------------------------------------------------- census


def check_census() -> CheckResult:
    got = {"P1": [], "P2": [], "P3": [], "none": []}
    for p in primes_up_to(300).tolist():
        if p > 3:
            got[census_mod.classify_prime(p).pclass].append(p)
    listing_ok = got["P1"] == LISTED_P1 and got["P2"] == LISTED_P2 and got["P3"] == LISTED_P3

    report = census_mod.census_scan(1_000_000)
    tol = TOLERANCES["density_relative"]
    off = report.deviation
    dens_ok = all(abs(v) <= tol for v in off.values())
    ok = listing_ok and dens_ok
    detail = (
        f"listings <= 300 match; densities at x={report.x}: "
        + ", ".join(f"{c} {report.empirical[c]:.6f} ({off[c]:+.2%})" for c in sorted(off))
        + f" within {tol:.0%}"
    )
    if not listing_ok:
        detail = "class listings <= 300 do not match the reference sets"
    if not dens_ok:
        detail += "; density deviation out of tolerance"
    return CheckResult("census", ok, detail)


# ---------------------------------------------------------------- artin


def check_artin() -> CheckResult:
    value = artin_constant(1_000_000)
    err = abs(value - census_mod.ARTIN_CONSTANT)
    ok = err <= TOLERANCES["artin_abs"]
    return CheckResult("artin", ok, f"partial product at 1000000 = {value:.10f}, |err| = {err:.2e}")


# ---------------------------------------------------------------- fset


def check_fset() -> CheckResult:
    first_six = [census_mod.fset_member_interval(b).member for b in range(1, 7)]
    want = [False, True, True, False, True, True]
    head_ok = first_six == want

    b_max = 100_000
    try:
        count, ratio, beta = census_mod.fset_count(b_max)
    except MethodsDisagree as exc:
        return CheckResult("fset", False, str(exc))

    ratio_ok = abs(ratio - beta) <= TOLERANCES["fset_ratio_abs"]

    ok = head_ok and ratio_ok
    detail = (
        f"b=1..6 membership matches; interval = weyl for all b <= {b_max}; "
        f"count {count}, ratio {ratio:.5f} vs beta {beta:.5f}"
    )
    if not head_ok:
        detail = f"b=1..6 membership wrong: {first_six}"
    if not ratio_ok:
        detail += "; ratio out of tolerance"
    return CheckResult("fset", ok, detail)


# ---------------------------------------------------------------- charsum


def check_charsum() -> CheckResult:
    """The maximum nontrivial character sum over A is a Jacobi sum in disguise,
    so its modulus is exactly sqrt(p); the check is sqrt(p-2) <= |A^| <= sqrt(p)
    with float margins, and it additionally confirms the saturation."""
    prime_limit = 300
    margin = charsum_mod.CHARSUM_UPPER_MARGIN
    bad = []
    saturated = 0
    n_primes = 0
    for p in primes_up_to(prime_limit).tolist():
        if p <= 5:
            continue
        n_primes += 1
        a = charsum_mod.build_A(p)
        ahat = charsum_mod.max_nontrivial_char_sum(a, p - 1)
        if len(a) != p - 2:
            bad.append((p, "size", len(a)))
        if not charsum_mod.charsum_bounds_hold(p, ahat):
            bad.append((p, "bounds", ahat))
        if abs(ahat - math.sqrt(p)) <= margin:
            saturated += 1

    rng = random.Random(20260816)
    residual_bad = []
    instances = 0
    for p in (7, 11, 13, 23, 47):
        n = p - 1
        a = charsum_mod.build_A(p)
        for _ in range(10):
            size = rng.randint(1, min(10, n * n))
            b = {(rng.randrange(n), rng.randrange(n)) for _ in range(size)}
            _, _, residual = charsum_mod.pair_count_identity_check(a, b, n)
            instances += 1
            if not charsum_mod.identity_residual_holds(residual, n):
                residual_bad.append((p, residual))

    # consistency with the incongruence index: iota(p) < 3 + 4p^(3/4) on P
    chain_bad = []
    seq = salajan()
    for p in primes_up_to(2000).tolist():
        if p <= 5:
            continue
        if census_mod.classify_prime(p).pclass != "none":
            if incongruence_index(seq, p) >= 3 + 4 * p**0.75:
                chain_bad.append(p)

    ok = not bad and not residual_bad and not chain_bad
    detail = (
        f"|A| = p-2 and sqrt(p-2) <= |A^| <= sqrt(p) for 5 < p <= {prime_limit} "
        f"(saturates sqrt(p) at {saturated}/{n_primes} primes: Jacobi-sum modulus); "
        f"{instances} randomized pair-count identities within tolerance; "
        f"iota chain bound holds on P up to 2000"
    )
    if bad:
        detail = f"set/bound failures: {bad[:5]}"
    if residual_bad:
        detail += f"; identity residuals too big: {residual_bad[:5]}"
    if chain_bad:
        detail += f"; chain bound failed at p={chain_bad[:5]}"
    return CheckResult("charsum", ok, detail)


# ---------------------------------------------------------------- note


def check_note() -> CheckResult:
    """The density and equidistribution targets are asymptotic (and partly
    GRH-conditional), so finite scans check them only to declared tolerances;
    this records those tolerances rather than pretending to take a limit."""
    ok = (
        TOLERANCES["density_relative"] == 0.05
        and TOLERANCES["fset_ratio_abs"] == 0.01
        and abs(census_mod.BETA - 0.6781) < 1e-4
        and abs(census_mod.DENSITY_P1 - 0.224373488) < 1e-9
        and abs(census_mod.DENSITY_P3 - 0.149582325) < 1e-9
    )
    detail = (
        "asymptotic claims are checked as finite scans with declared tolerances: "
        f"density {TOLERANCES['density_relative']:.0%} relative, "
        f"F-set ratio {TOLERANCES['fset_ratio_abs']} absolute"
    )
    return CheckResult("note", ok, detail)


# ---------------------------------------------------------------- runner

# suite name -> its check, named check_<suite> with "-" read as "_"
SUITES = {name: globals()["check_" + name.replace("-", "_")] for name in _SUITE_NAMES}


def run_suites(names, n_max: int | None = None):
    """Run the named suites ('all' for everything); returns (ok, results).
    Every suite checks a fixed size; n_max, when given, is theorem1's range.
    An unknown name, or an n_max with theorem1 not among the names, is
    refused before any suite runs."""
    if isinstance(names, str):
        names = list(SUITES) if names == "all" else [names]
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite {name!r}; choose from {', '.join(SUITES)} or all")
    if n_max is not None and "theorem1" not in names:
        raise ValueError("n_max applies only to the theorem1 suite")
    results = [
        SUITES[name](n_max) if name == "theorem1" and n_max is not None else SUITES[name]()
        for name in names
    ]
    return all(r.passed for r in results), results
