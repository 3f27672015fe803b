"""Red paths of the verify suites: each suite, fed one wrong answer, fails and
says what went wrong."""

import zlib

import pytest

from discrim import census, charsum, verify
from discrim.census import DensityReport, FsetRecord, PrimeClassRecord
from discrim.discriminator import (
    REASON_DIV3,
    VERDICT_NON_VALUE,
    VERDICT_UNDECIDED,
    NonValueCertificate,
)
from discrim.periods import PeriodInfo

CLASSES = ("P1", "P2", "P3")

# (suite, module, name, fake built from the real function, text the red detail holds)
RED_CASES = [
    ("theorem1", verify, "discriminator_table", lambda real: lambda seq, n: [0] * n,
     "closed/brute mismatch at n=[1, 2, 3, 4, 5, 6, 7, 8, 9, 10]; boundary failures "
     "(n, closed, brute): [(1, 1, 0), (2, 2, 0), (3, 4, 0), (4, 4, 0), (5, 8, 0)]"),
    ("periods", verify, "salajan_period_formula", lambda real: lambda d: PeriodInfo(d, 1, 1),
     "anchor period values failed"),
    ("iota-anchors", verify, "incongruence_index", lambda real: lambda seq, m: 0,
     "iota(29) != 14"),
    ("iota-anchors", verify, "period_brute", lambda real: lambda seq, d: PeriodInfo(d, 0, 1),
     "negative anchor 307 failed; scan reports [2, 5, 13, 41, 73, 193, 757, 769, 1093, 1181, "
     "1597, 1621, 1871], where brute iota != brute period"),
    ("iota-bounds", verify, "incongruence_index", lambda real: lambda seq, m: 10**9,
     "bound violated at p=[7, 11, 13, 17, 19, 23, 29, 31, 37, 41]"),
    ("valuation", verify, "lte_valuation", lambda real: lambda p, r, n: 0,
     "valuation mismatch: [(2, 3, 1, 0, 1), (2, 3, 2, 0, 3), (2, 3, 3, 0, 1), (2, 3, 4, 0, 4), "
     "(2, 3, 5, 0, 1)]"),
    ("screen", verify, "nonvalue_screen",
     lambda real: lambda d: NonValueCertificate(d, VERDICT_NON_VALUE, REASON_DIV3, {"d_mod_3": 0}),
     "values wrongly certified: [(2, 'divisible_by_3'), (4, 'divisible_by_3'), "
     "(8, 'divisible_by_3'), (16, 'divisible_by_3'), (25, 'divisible_by_3')]; certificates "
     "failing their recheck at d=[2, 4, 8, 16, 25, 32, 64, 125, 128, 256]"),
    ("screen", verify, "nonvalue_screen",
     lambda real: lambda d: NonValueCertificate(d, VERDICT_UNDECIDED, None, {}),
     "20 attained values all undecided; 0 non-image d <= 4096 certified non_value; "
     "non-values left undecided: [3, 6, 7, 9, 10, 11, 12, 13, 14, 15]"),
    ("census", census, "classify_prime", lambda real: lambda p: PrimeClassRecord(p, p % 4, 1, "none"),
     "class listings <= 300 do not match the reference sets"),
    ("census", census, "census_scan",
     lambda real: lambda x: DensityReport(
         x, 1, {}, dict.fromkeys(CLASSES, 0.0), {}, dict.fromkeys(CLASSES, -1.0)),
     "listings <= 300 match; densities at x=1000000: P1 0.000000 (-100.00%), "
     "P2 0.000000 (-100.00%), P3 0.000000 (-100.00%) within 5%; density deviation out of tolerance"),
    ("fset", census, "fset_member_interval",   # b = 1 also settles a Weyl margin case
     lambda real: lambda b: FsetRecord(b, b > 1 and not real(b).member, None),
     "b=1..6 membership wrong: [False, False, False, True, False, False]"),
    ("fset", census, "fset_count", lambda real: lambda x: (0, 0.0, census.BETA),
     "b=1..6 membership matches; interval = weyl for all b <= 100000; count 0, ratio 0.00000 "
     "vs beta 0.67807; ratio out of tolerance"),
    ("charsum", charsum, "build_A", lambda real: lambda p, g=None: set(sorted(real(p, g))[1:]),
     "set/bound failures: [(7, 'size', 4), "),
    ("charsum", verify, "incongruence_index", lambda real: lambda seq, m: 10**9,
     "; chain bound failed at p=[7, 11, 17, 19, 23]"),
]


@pytest.mark.parametrize(
    "suite, module, name, fake, red", RED_CASES,
    ids=[f"{suite}-{name}" for suite, _, name, *_ in RED_CASES],
)
def test_suite_goes_red_and_says_why(monkeypatch, suite, module, name, fake, red):
    monkeypatch.setattr(module, name, fake(getattr(module, name)))
    ok, (result,) = verify.run_suites(suite)
    assert not ok and result.suite == suite and result.passed is False
    assert red in result.detail


@pytest.mark.parametrize("damage", ["missing", "truncated", "undecodable", "short"])
def test_theorem1_goes_red_on_a_broken_pairs_file(monkeypatch, tmp_path, damage):
    # a committed-pairs file that is gone, cut, not zlib, or that decompresses
    # to too few pairs is a rejected certificate on each row it cannot
    # prove, never a traceback
    with open(verify._PAIRS_FILE, "rb") as f:
        committed = f.read()
    path = tmp_path / "theorem1_pairs.bin"
    if damage == "truncated":
        path.write_bytes(committed[:len(committed) // 2])
    elif damage == "undecodable":
        path.write_bytes(b"not zlib" + committed)
    elif damage == "short":   # the last row's last `second` entry is missing
        path.write_bytes(zlib.compress(zlib.decompress(committed)[:-2]))
    monkeypatch.setattr(verify, "_PAIRS_FILE", str(path))
    rows = [row for row in verify.EXPECTED_TABLE if row[1] > 64]
    if damage == "short":
        rows = rows[-1:]
    ok, (result,) = verify.run_suites("theorem1", n_max=64)
    assert not ok and not result.passed
    assert result.detail.endswith(
        f"; collision certificate rejected on {len(rows)} row(s) (start, end, value): "
        f"{rows[:5]}; reproduce: discrim verify --suite theorem1 --nmax 64")
