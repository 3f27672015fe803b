"""Prime classification, density census, and the F-set of exponents."""

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from discrim import census, numtheory
from discrim.census import (
    ARTIN_CONSTANT,
    BETA,
    DENSITY_P1,
    DENSITY_P2,
    DENSITY_P3,
    census_scan,
    classify_prime,
    fset_count,
    fset_member_interval,
    fset_member_weyl,
    fset_scan_interval,
)
from discrim.numtheory import artin_constant, factorize, iter_prime_blocks, mult_order, primes_up_to
from discrim.sequences import CapExceeded, MethodsDisagree
from discrim.verify import LISTED_P1, LISTED_P2, LISTED_P3


def interval_misses_powers_of_2(b):
    """Direct oracle: scan every power of 2 up to 5^b."""
    low, high = 4 * 5 ** (b - 1), 5**b
    power = 1
    while power <= high:
        if low <= power <= high:
            return False, power
        power *= 2
    return True, None


# ------------------------------------------------------------------ classification


@pytest.mark.parametrize(
    "p,pclass",
    [(5, "P1"), (7, "P3"), (11, "P2"), (13, "none"), (17, "P1"), (19, "P3"),
     (23, "P2"), (29, "P1"), (41, "none"), (307, "none"), (1093, "none")],
)
def test_classify_anchors(p, pclass):
    rec = classify_prime(p)
    assert rec.pclass == pclass
    assert rec.p == p and rec.residue_mod_4 == p % 4
    assert rec.ord3 == sympy.n_order(3, p)


def test_classify_ord3_above_the_trial_square():
    # above 4093^2 the part of p - 1 left after its primes up to 4093 are
    # taken out is tested by Miller-Rabin, and split by rho if composite
    primes = list(sympy.primerange(10**9, 10**9 + 1000))
    assert len(primes) > 20
    for p in primes:
        assert classify_prime(p).ord3 == sympy.n_order(3, p), p


def test_classify_matches_sympy_over_the_census_range():
    # a seeded sample spread over [10^6, 10^9], the census workload's range,
    # where p - 1 mostly has an odd part past the smallest-prime-factor table
    rng = random.Random(27)
    primes = [sympy.nextprime(rng.randrange(lo, 10 * lo)) for lo in (10**6, 10**7, 10**8)
              for _ in range(100)]
    seen = set()
    for p in primes:
        rec = classify_prime(p)
        ord3 = sympy.n_order(3, p)
        assert rec.ord3 == ord3, p
        want = {(1, p - 1): "P1", (3, p - 1): "P3", (3, (p - 1) // 2): "P2"}
        assert rec.pclass == want.get((p % 4, ord3), "none"), p
        seen.add(rec.pclass)
    assert seen == {"P1", "P2", "P3", "none"}


def test_classify_rules():
    for p in sympy.primerange(5, 500):
        rec = classify_prime(p)
        if rec.pclass == "P1":
            assert p % 4 == 1 and rec.ord3 == p - 1
        elif rec.pclass == "P2":
            assert p % 4 == 3 and 2 * rec.ord3 == p - 1
        elif rec.pclass == "P3":
            assert p % 4 == 3 and rec.ord3 == p - 1
        else:
            assert not (
                (p % 4 == 1 and rec.ord3 == p - 1)
                or (p % 4 == 3 and rec.ord3 in (p - 1, (p - 1) // 2))
            )


def test_classify_validation():
    for bad in (2, 3, 4, 15):
        with pytest.raises(ValueError):
            classify_prime(bad)


def test_listings_below_300():
    got = {"P1": [], "P2": [], "P3": []}
    for p in sympy.primerange(5, 301):
        rec = classify_prime(p)
        if rec.pclass in got:
            got[rec.pclass].append(p)
    assert got["P1"] == LISTED_P1
    assert got["P2"] == LISTED_P2
    assert got["P3"] == LISTED_P3


# ------------------------------------------------------------------ the census


def test_census_scan_small():
    report = census_scan(10_000)
    assert report.pi_x == 1229                      # pi(10^4)
    assert sum(report.counts.values()) == 1229 - 2  # p = 2, 3 are unclassified
    for cls in ("P1", "P2", "P3"):
        assert report.empirical[cls] == report.counts[cls] / report.pi_x
        assert report.deviation[cls] == report.empirical[cls] / report.predicted[cls] - 1
    assert report.predicted == {"P1": DENSITY_P1, "P2": DENSITY_P2, "P3": DENSITY_P3}
    with pytest.raises(ValueError):
        census_scan(4)


def test_density_constants():
    assert ARTIN_CONSTANT == pytest.approx(0.3739558136, abs=1e-10)
    assert DENSITY_P1 == DENSITY_P2 == pytest.approx(3 * ARTIN_CONSTANT / 5)
    assert DENSITY_P3 == pytest.approx(2 * ARTIN_CONSTANT / 5)
    assert DENSITY_P1 + DENSITY_P2 + DENSITY_P3 == pytest.approx(8 * ARTIN_CONSTANT / 5)
    assert BETA == pytest.approx(3 - math.log2(5), abs=0)
    assert BETA == pytest.approx(0.6780719051, abs=1e-9)


def batch_classes(primes):
    return [census._CLASSES[i] for i in census._classify_batch(np.asarray(primes, dtype=np.int64))]


def scalar_classes(primes):
    return [classify_prime(int(p)).pclass for p in primes]


def test_batch_matches_scalar_below_10_5():
    primes = primes_up_to(100_000)[2:]
    assert batch_classes(primes) == scalar_classes(primes)
    # the range has every factor shape the batch distinguishes: p - 1 with a
    # repeated odd prime, and p - 1 with a prime above sqrt(10^5)
    shapes = [factorize(int(p) - 1) for p in primes]
    assert any(q > 2 and e > 1 for fac in shapes for q, e in fac)
    assert any(fac[-1][0] > math.isqrt(100_000) for fac in shapes)


@pytest.mark.parametrize("lo,hi", [
    (2**20 - 20_000, 2**20 + 20_000),   # both sides of a sieve segment edge
    (10**9, 10**9 + 3000),              # most p - 1 keep a prime cofactor above sqrt(p)
    (2**32 - 30_000, 2**32),            # the top of the exact uint64 range
])
def test_batch_matches_scalar_on_windows(lo, hi):
    primes = list(sympy.primerange(lo, hi))
    assert batch_classes(primes) == scalar_classes(primes)


_WINDOWS = [(5, 100_000), (2**20 - 20_000, 2**20 + 20_000), (10**9, 10**9 + 3000), (2**32 - 30_000, 2**32)]


def test_mult_order_with_the_known_factorization_agrees():
    for lo, hi in _WINDOWS:
        for p in sympy.primerange(lo, hi):
            assert mult_order(3, p, ((p, 1),)) == mult_order(3, p), p


def test_classify_proves_p_prime_once(monkeypatch):
    calls = []
    real = numtheory.is_prime
    for module in (census, numtheory):
        monkeypatch.setattr(module, "is_prime", lambda n: calls.append(n) or real(n))
    # primes on both sides of 4093^2, above which factorize would test p again
    for p in (16_752_647, 16_752_653, 1_000_000_007, 2**32 - 5):
        calls.clear()
        classify_prime(p)
        assert calls.count(p) == 1, p


def test_batch_handles_tiny_and_empty_input():
    assert batch_classes([]) == []
    assert batch_classes([5]) == ["P1"]
    assert batch_classes([5, 7, 11, 13]) == ["P1", "P3", "P2", "none"]


def test_batch_reads_primes_1_mod_12_as_none():
    # 3 is a square mod p = 1 mod 12, and p = 1 mod 4, so 3 is no primitive
    # root; a batch with no other prime is answered before any factoring
    assert batch_classes([13]) == ["none"]
    assert batch_classes([13, 37, 61, 73, 97]) == ["none"] * 5


def test_batch_mixes_every_residue_mod_12():
    primes = list(sympy.primerange(10**6, 10**6 + 5000))
    got = batch_classes(primes)
    assert got == scalar_classes(primes)
    seen = {}
    for p, pclass in zip(primes, got):
        seen.setdefault(p % 12, set()).add(pclass)
    assert seen == {1: {"none"}, 5: {"P1", "none"}, 7: {"P3", "none"}, 11: {"P2", "none"}}


def test_batch_takes_no_square_test_power(monkeypatch):
    calls = []
    real = census._pow_mod_u32

    def spy(base, exps, mods):
        calls.append((exps.copy(), mods.copy()))
        return real(base, exps, mods)

    monkeypatch.setattr(census, "_pow_mod_u32", spy)
    batch_classes(primes_up_to(100_000)[2:])
    batch_classes(list(sympy.primerange(2**32 - 3000, 2**32)))
    assert calls
    for exps, mods in calls:
        assert not np.any(mods % 12 == 1)
        assert not np.any(exps == (mods - 1) // 2)


def test_census_scan_across_the_segment_edge():
    below, above = census_scan(2**20 - 20_000), census_scan(2**20 + 20_000)
    between = scalar_classes(sympy.primerange(2**20 - 20_000 + 1, 2**20 + 20_000 + 1))
    assert above.pi_x - below.pi_x == len(between)
    for cls in ("P1", "P2", "P3", "none"):
        assert above.counts[cls] - below.counts[cls] == between.count(cls), cls


def test_census_scan_10_6_counts():
    # computed by the per-prime classify_prime loop
    report = census_scan(1_000_000)
    assert report.pi_x == 78498
    assert report.counts == {"P1": 17620, "P2": 17703, "P3": 11772, "none": 31401}
    assert all(type(v) is int for v in report.counts.values())


@pytest.mark.parametrize("x", [numtheory.SMALL_SIEVE_LIMIT - 1, numtheory.SMALL_SIEVE_LIMIT])
def test_census_scan_counts_equal_the_batch_on_both_sides_of_the_list_path(x, monkeypatch):
    # below SMALL_SIEVE_LIMIT every sieved prime p > 3 goes through the
    # classifier behind classify_prime, with no second primality test; from
    # it on none does
    tally, pi_x = np.zeros(len(census._CLASSES), dtype=np.int64), 0
    for block in iter_prime_blocks(x):
        pi_x += len(block)
        tally += np.bincount(census._classify_batch(block[block > 3]), minlength=len(census._CLASSES))
    calls, proofs = [], []
    classify, prove = census._classify, numtheory.is_prime
    monkeypatch.setattr(census, "_classify", lambda p: calls.append(p) or classify(p))
    for module in (census, numtheory):
        monkeypatch.setattr(module, "is_prime", lambda n: proofs.append(n) or prove(n))
    report = census_scan(x)
    assert report.pi_x == pi_x
    assert report.counts == dict(zip(census._CLASSES, tally.tolist()))
    assert all(type(v) is int for v in report.counts.values())
    assert len(calls) == (pi_x - 2 if x < numtheory.SMALL_SIEVE_LIMIT else 0)
    assert proofs == []


def test_census_scan_stops_at_the_batch_range(monkeypatch):
    # x below the batch classifier's exact range is counted as before; from
    # it on the prime walk's cap check refuses the scan before any work, on
    # the list path below SMALL_SIEVE_LIMIT too, and so the Artin product
    walks = (census_scan, artin_constant)
    want = [walk(49_999) for walk in walks]
    monkeypatch.setattr(numtheory, "PRIME_LIMIT_CAP", 50_000)
    assert [walk(49_999) for walk in walks] == want
    for walk in walks:
        with pytest.raises(CapExceeded, match=r"^prime limit 50000 exceeds cap 49999$"):
            walk(50_000)


def test_census_tracks_predictions_loosely_at_10_5():
    report = census_scan(100_000)
    for cls in ("P1", "P2", "P3"):
        assert abs(report.deviation[cls]) < 0.05, (cls, report.deviation[cls])


# ------------------------------------------------------------------ F-set membership


def test_fset_first_ten():
    want = [False, True, True, False, True, True, False, True, True, False]
    got = [fset_member_interval(b).member for b in range(1, 11)]
    assert got == want


def test_fset_interval_matches_direct_oracle():
    for b in range(1, 41):
        member, power = interval_misses_powers_of_2(b)
        rec = fset_member_interval(b)
        assert rec.member == member, b
        assert rec.witness == power, b


def test_fset_witness_is_the_power_inside():
    rec = fset_member_interval(1)
    assert rec.witness == 4                      # [4, 5] contains 2^2
    rec = fset_member_interval(4)
    assert rec.witness == 512                    # [500, 625] contains 2^9
    assert fset_member_interval(2).witness is None
    with pytest.raises(ValueError):
        fset_member_interval(0)


def test_fset_scan_matches_single_queries():
    records = fset_scan_interval(2000)
    assert len(records) == 2000
    for rec in records:
        assert rec == fset_member_interval(rec.b)
        assert rec.witness == (None if rec.member else 2**rec.k)
    assert fset_count(2000)[0] == sum(r.member for r in records)
    with pytest.raises(ValueError):
        fset_scan_interval(0)


def test_fset_weyl_agrees_with_interval_below_5000():
    for b in range(1, 5001):
        assert fset_member_weyl(b) == fset_member_interval(b).member, b
    with pytest.raises(ValueError):
        fset_member_weyl(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=300_000))
def test_fset_weyl_agrees_with_interval_at_random_heights(b):
    assert fset_member_weyl(b) == fset_member_interval(b).member


def test_fset_count_anchors():
    assert fset_count(100) == (67, 0.67, BETA)
    count, ratio, beta = fset_count(1000)
    assert count == 678 and ratio == pytest.approx(0.678)
    assert beta == BETA
    with pytest.raises(ValueError):
        fset_count(0)


def test_fset_passes_refuse_b_past_the_cap():
    assert census.FSET_B_CAP == 2**18
    for scan in (fset_scan_interval, census.fset_scan_checked, fset_count):
        with pytest.raises(CapExceeded, match="F-set bound 262145 exceeds cap 262144"):
            scan(census.FSET_B_CAP + 1)
    # the pass that they share refuses before its first record
    with pytest.raises(CapExceeded, match="F-set bound 262145 exceeds cap 262144"):
        next(census._fset_pass(census.FSET_B_CAP + 1))


@pytest.mark.parametrize("width", [1, 4, 8, 16])
def test_fset_pass_reseeds_exactly_from_a_narrow_bracket(monkeypatch, width):
    # at widths 4, 8 and 16 the bracket around 5^b straddles a power of 2 at
    # 888, 102 and 4 of the b <= 3000, at width 1 at nearly every b, and
    # each time starts again from 5^b computed whole
    monkeypatch.setattr(census, "_BRACKET_BITS", width)
    exact = [fset_member_interval(b) for b in range(1, 3001)]
    assert fset_scan_interval(3000) == exact
    assert fset_count(3000)[0] == sum(r.member for r in exact)


def test_fset_anchors_at_the_cap():
    cap = census.FSET_B_CAP
    assert fset_count(cap)[0] == 177752
    records = fset_scan_interval(cap)
    assert len(records) == cap
    sample = random.Random(2018).sample(range(1, cap), 40) + [cap]
    for b in sample:
        assert records[b - 1] == fset_member_interval(b), b


def test_poisoned_weyl_reads_the_same_in_every_checked_pass(monkeypatch):
    from discrim import verify

    real = census.fset_member_weyl
    monkeypatch.setattr(census, "fset_member_weyl", lambda b: real(b) != (b == 7))
    message = "methods disagree at b=7: interval=False weyl=True"
    for checked in (fset_count, census.fset_scan_checked):
        with pytest.raises(MethodsDisagree, match=f"^{message}$"):
            checked(100)
    assert verify.check_fset() == verify.CheckResult("fset", False, message)


def _flip_member_at_7(monkeypatch):
    # the pass calls b = 7 a member, and the Weyl criterion agrees, so only
    # count = 3x - bitlen(5^x) can catch it
    real_pass, real_weyl = census._fset_pass, census.fset_member_weyl
    monkeypatch.setattr(census, "_fset_pass", lambda b_max: (
        (b, k, member != (b == 7), bits) for b, k, member, bits in real_pass(b_max)))
    monkeypatch.setattr(census, "fset_member_weyl", lambda b: real_weyl(b) != (b == 7))


def test_fset_count_checks_the_bit_length_identity(monkeypatch):
    from discrim import verify

    assert [3 * x - (5**x).bit_length() for x in (1, 2, 100, 1000)] == [0, 1, 67, 678]
    _flip_member_at_7(monkeypatch)
    with pytest.raises(MethodsDisagree, match=r"^methods disagree at x=100: count=68 3x-bitlen\(5\^x\)=67$"):
        fset_count(100)
    message = "methods disagree at x=100000: count=67808 3x-bitlen(5^x)=67807"
    assert verify.check_fset() == verify.CheckResult("fset", False, message)


def test_fset_scan_checked_checks_the_bit_length_identity(monkeypatch, capsys):
    # `fset --method both` runs the count check of the fset suite too
    from discrim import cli

    _flip_member_at_7(monkeypatch)
    with pytest.raises(MethodsDisagree, match=r"^methods disagree at x=100: count=68 3x-bitlen\(5\^x\)=67$"):
        census.fset_scan_checked(100)
    capsys.readouterr()
    assert cli.run(["fset", "--max", "40"]) == 1
    assert capsys.readouterr() == ("", "methods disagree at x=40: count=28 3x-bitlen(5^x)=27\n")


def test_fset_count_tracks_beta():
    count, ratio, beta = fset_count(20_000)
    assert abs(ratio - beta) < 0.01
