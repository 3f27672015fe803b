"""Periods and incongruence indices: formula vs cycle detection vs raw streams."""

import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrim import numtheory, periods
from discrim.periods import (
    PeriodInfo,
    incongruence_index,
    iota_equals_rho_scan,
    iota_prime_bound,
    period_brute,
    prime_lemma_bound,
    salajan_period_formula,
)
from discrim.numtheory import U64_MAX, factorize, mult_order, padic_valuation
from discrim.sequences import CapExceeded, linear_recurrence, polynomial, salajan

SEQ = salajan()

# frozen result of the exhaustive scan below 2000, re-verified element by
# element in test_scan_elements_reverify (brute periods, fresh index runs)
SCAN_2000 = [2, 5, 13, 41, 73, 193, 757, 769, 1093, 1181, 1597, 1621, 1871]


def raw_period_oracle(d, steps=6000):
    """(pre_period, period) by storing the full residue stream and testing
    candidate (start, length) pairs directly; independent of state-pair logic."""
    terms = [2 % d, 1 % d]
    while len(terms) < steps:
        terms.append((2 * terms[-1] + 3 * terms[-2]) % d)
    for start in range(len(terms) // 3):
        for length in range(1, len(terms) // 3):
            if all(
                terms[i] == terms[i + length]
                for i in range(start, 2 * len(terms) // 3)
            ):
                return start + 1, length
    raise AssertionError("oracle window too small")


# ------------------------------------------------------------------ periods


def test_period_formula_matches_brute_below_1200():
    for d in range(2, 1201):
        got = salajan_period_formula(d)
        brute = period_brute(SEQ, d)
        assert (got.pre_period, got.period) == (brute.pre_period, brute.period), d


@pytest.mark.parametrize("d", [2, 3, 5, 7, 9, 12, 29, 41, 100, 307])
def test_period_matches_raw_stream_oracle(d):
    info = period_brute(SEQ, d)
    assert (info.pre_period, info.period) == raw_period_oracle(d)
    assert info == salajan_period_formula(d) == PeriodInfo(d, info.pre_period, info.period)


def test_period_anchors():
    assert salajan_period_formula(5) == PeriodInfo(5, 1, 4)
    assert salajan_period_formula(7) == PeriodInfo(7, 1, 6)
    assert salajan_period_formula(9) == PeriodInfo(9, 2, 2)
    for e in range(1, 13):
        assert salajan_period_formula(2**e).period == 2**e
    for e in range(1, 9):
        info = salajan_period_formula(3**e)
        assert (info.pre_period, info.period) == (e, 2)


def formula_reference(d):
    """The period formula as written, one order mod 4*delta with no table."""
    a, delta = 0, d
    while delta % 3 == 0:
        a, delta = a + 1, delta // 3
    return PeriodInfo(d, max(1, a), 2 * mult_order(9, 4 * delta))


def test_order_memo_records_only_powers_below_its_bound():
    # 2^20 + 7 is prime, so its order is computed at every call and never kept
    big = 2**20 + 7
    assert factorize(big) == ((big, 1),)
    for _ in range(2):
        assert salajan_period_formula(big) == formula_reference(big)
    assert salajan_period_formula(big - 4) == formula_reference(big - 4)
    powers = set(periods._PRIME_POWER_ORDERS)
    assert powers and big not in powers and max(powers) < periods.ORDER_MEMO_BOUND


def _row_pass(lo, hi):
    """The row pass over [lo, hi) as (pre_period, period) pairs, with the
    length of each block it yields."""
    pairs, lengths = [], []
    for pre, period in periods._row_periods(lo, hi):
        lengths.append(len(pre))
        pairs += zip(pre.tolist(), period.tolist())
    return pairs, lengths


def test_row_pass_equals_the_formula_to_2e5():
    block = periods._ROW_BLOCK
    pairs, lengths = _row_pass(2, 200_001)
    assert lengths == [block] * (199_999 // block) + [199_999 % block]
    assert pairs == [salajan_period_formula(d)[1:] for d in range(2, 200_001)]


class _MemoOf(dict):
    """An order memo that fails at once on a key outside `allowed`."""

    def __init__(self, allowed):
        super().__init__()
        self.allowed = allowed

    def __setitem__(self, key, value):
        assert key in self.allowed, key
        super().__setitem__(key, value)


def _memo_of_row(monkeypatch, lo, hi):
    """Empty the order memo and let it take only the powers of 4*delta below
    its bound that the formula reads for some d in [lo, hi); return them. A
    pass that took an order for every power of every prime up to
    isqrt(hi - 1) would run for minutes on a row near 2^40, and fails at its
    first stray power instead."""
    powers = set()
    for d in range(lo, hi):
        for q, e in factorize(4 * (d // 3 ** padic_valuation(3, d))):
            powers.update(q**k for k in range(2 if q == 2 else 1, e + 1) if q**k < periods.ORDER_MEMO_BOUND)
    monkeypatch.setattr(periods, "_PRIME_POWER_ORDERS", _MemoOf(powers))
    return powers


@pytest.mark.parametrize("lo, hi", [
    (numtheory.SPF_ENTRIES - 500, numtheory.SPF_ENTRIES + 500),
    (periods.ORDER_MEMO_BOUND - 500, periods.ORDER_MEMO_BOUND + 500),
    (2**21 - 7, 2**21 - 7 + 2 * periods._ROW_BLOCK + 3),   # three blocks, the last of 3 moduli
    (2**22 - 300, 2**22 + 1),
    (2**40 - 100, 2**40 + 100),
    (2, 3), (7, 7), (3**12, 3**12 + 1),
])
def test_row_pass_equals_the_formula_across_its_edges(lo, hi, monkeypatch):
    powers = _memo_of_row(monkeypatch, lo, hi)
    started = time.perf_counter()
    pairs, lengths = _row_pass(lo, hi)
    assert time.perf_counter() - started < 1.0
    assert set(periods._PRIME_POWER_ORDERS) == powers
    assert sum(lengths) == hi - lo and all(0 < k <= periods._ROW_BLOCK for k in lengths)
    assert pairs == [salajan_period_formula(d)[1:] for d in range(lo, hi)]
    assert max(periods._PRIME_POWER_ORDERS, default=0) < periods.ORDER_MEMO_BOUND


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11])
def test_row_pass_equals_the_formula_on_prime_powers_times_delta(q, monkeypatch):
    # the moduli around d = q^k * delta for every q^k < 2^40 and delta = 1,
    # 2 and 2^9 - 1; only a power of 3 moves the pre-period off 1
    k = 1
    while q**k < 2**40:
        for delta in (1, 2, 2**9 - 1):
            d = q**k * delta
            lo = max(2, d - 1)
            _memo_of_row(monkeypatch, lo, d + 3)
            pairs, _ = _row_pass(lo, d + 3)
            assert pairs == [salajan_period_formula(c)[1:] for c in range(lo, d + 3)], d
            assert pairs[d - lo][0] == (k if q == 3 else 1)
        k += 1


def test_row_pass_refuses_a_modulus_below_2():
    with pytest.raises(ValueError, match="^modulus must be >= 2$"):
        next(periods._row_periods(1, 5))
    assert list(periods._row_periods(1, 1)) == list(periods._row_periods(9, 4)) == []


def test_formula_equals_the_order_mod_4_delta_to_30000():
    assert all(salajan_period_formula(d) == formula_reference(d) for d in range(2, 30001))
    # every delta here lies inside the one smallest-prime-factor table
    assert len(numtheory._spf) == numtheory.SPF_ENTRIES


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=2, max_value=10**15))
def test_formula_equals_the_order_mod_4_delta_to_10_15(d):
    assert salajan_period_formula(d) == formula_reference(d)


def test_formula_fails_exactly_past_64_bits():
    # 4*delta > 2^64 - 1 fails as factorize does
    for d in (2**62, 3 * 2**62, 2**63, U64_MAX):
        with pytest.raises(ValueError, match=r"^factorize expects 1 <= n <= 2\^64 - 1$"):
            salajan_period_formula(d)
    for d in (2**62 - 3, 2**62 - 1, 3 * (2**62 - 1), 2**61 * 3**5):
        assert 4 * (d // 3 ** padic_valuation(3, d)) <= U64_MAX
        assert salajan_period_formula(d) == formula_reference(d)


def test_pre_period_is_max_of_1_and_3adic_valuation():
    # 3^j mod 3^alpha vanishes exactly from j = alpha on, so the residue
    # stream is periodic from index max(1, alpha); in particular it is purely
    # periodic (pre-period 1) iff 9 does not divide d.
    for d in range(2, 400):
        alpha = padic_valuation(3, d)
        assert salajan_period_formula(d).pre_period == max(1, alpha), d
        assert (salajan_period_formula(d).pre_period == 1) == (d % 9 != 0), d


def test_period_multiplicative_on_coprime_parts():
    mods = [d for d in range(2, 61)]
    for d1 in mods:
        for d2 in mods:
            if d1 < d2 and math.gcd(d1, d2) == 1 and (d1 * d2) % 9 != 0:
                lhs = salajan_period_formula(d1 * d2).period
                rhs = math.lcm(
                    salajan_period_formula(d1).period, salajan_period_formula(d2).period
                )
                assert lhs == rhs, (d1, d2)


def test_period_brute_caps_and_validation(monkeypatch):
    monkeypatch.setattr(periods, "PERIOD_STATE_CAP", 3)
    with pytest.raises(CapExceeded):
        period_brute(SEQ, 7)
    with pytest.raises(ValueError):
        period_brute(SEQ, 1)
    with pytest.raises(ValueError):
        period_brute(polynomial(0, 1), 5)
    with pytest.raises(ValueError):
        salajan_period_formula(1)


def test_period_brute_generic_recurrence():
    # Fibonacci Pisano periods: pi(10) = 60, pi(7) = 16
    fib = linear_recurrence(1, 1, 1, 1)
    assert period_brute(fib, 10).period == 60
    assert period_brute(fib, 7).period == 16
    # a state cycle far longer than d: (Z/11)^2 has 120 nonzero states
    assert period_brute(linear_recurrence(1, 3, 0, 1), 11) == PeriodInfo(11, 1, 120)


def dict_period_walk(c1, c2, v1, v2, d):
    """(pre_period, period) from the first repeated state of a walk that
    stores every state it visits, capped at d^2 + 64."""
    x, y = v1 % d, v2 % d
    first = {}
    for idx in range(1, d * d + 65):
        prev = first.get((x, y))
        if prev is not None:
            return prev, idx - prev
        first[(x, y)] = idx
        x, y = y, (c1 * y + c2 * x) % d
    raise AssertionError("reference walk exhausted its cap")


PRIME_POWERS = [2**e for e in range(7, 13)] + [3**5, 3**6, 3**7, 5**4, 7**3]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-6, 6),
    st.integers(-6, 6),
    st.integers(-20, 20),
    st.integers(-20, 20),
    st.one_of(st.integers(2, 300), st.sampled_from(PRIME_POWERS)),
)
def test_period_brute_matches_dict_walk(c1, c2, v1, v2, d):
    info = period_brute(linear_recurrence(c1, c2, v1, v2), d)
    assert (info.pre_period, info.period) == dict_period_walk(c1, c2, v1, v2, d)


@pytest.mark.parametrize("spec,d", [
    (SEQ, 7), (SEQ, 9), (SEQ, 243), (linear_recurrence(0, 0, 5, 3), 8),
    (linear_recurrence(4, 6, 1, 1), 20), (linear_recurrence(2, 2, 1, 1), 50),
])
def test_period_brute_cap_is_exact(monkeypatch, spec, d):
    # the walk succeeds iff pre_period + period <= PERIOD_STATE_CAP
    info = period_brute(spec, d)
    monkeypatch.setattr(periods, "PERIOD_STATE_CAP", info.pre_period + info.period)
    assert period_brute(spec, d) == info
    monkeypatch.setattr(periods, "PERIOD_STATE_CAP", info.pre_period + info.period - 1)
    cap = periods.PERIOD_STATE_CAP
    with pytest.raises(CapExceeded, match=f"^no repeated state within {cap} steps mod {d}$"):
        period_brute(spec, d)


@pytest.mark.parametrize("spec,d", [
    (SEQ, 7), (SEQ, 9), (SEQ, 243), (linear_recurrence(0, 0, 5, 3), 8),
    (linear_recurrence(4, 6, 1, 1), 20), (linear_recurrence(2, 2, 1, 1), 50),
    (linear_recurrence(1, 3, 0, 1), 1021), (SEQ, 5), (SEQ, 16),
])
def test_period_brute_cap_sweep_across_window_edges(monkeypatch, spec, d):
    # the search tests return times in windows (i(i-1)/2, i(i+1)/2], so
    # every cap, not just the one at pre_period + period, must cut exactly;
    # mod 5 and 16 the period is one more than a window's end (4 = 3 + 1,
    # 16 = 15 + 1) with pre-period 1, where a search stopping one window
    # early would miss it
    info = period_brute(spec, d)
    need = info.pre_period + info.period
    for cap in range(2, need + 4):
        monkeypatch.setattr(periods, "PERIOD_STATE_CAP", cap)
        if need <= cap:
            assert period_brute(spec, d) == info, cap
        else:
            with pytest.raises(CapExceeded, match=f"^no repeated state within {cap} steps mod {d}$"):
                period_brute(spec, d)


@pytest.mark.parametrize("d,pre_period", [(100000007, 1), (9 * 100000007, 2)])
def test_period_brute_reaches_periods_near_10_8(monkeypatch, d, pre_period):
    # period 100000006 for the prime and for 9 times it; the second runs the
    # lead, the matrix power and the two-pointer pre-period search
    monkeypatch.setattr(periods, "PERIOD_STATE_CAP", 1 << 32)
    start = time.perf_counter()
    info = period_brute(SEQ, d)
    took = time.perf_counter() - start
    assert info == salajan_period_formula(d) == PeriodInfo(d, pre_period, 100000006)
    assert took < 2.0


def test_period_brute_memory_is_constant():
    tracemalloc.start()
    try:
        period_brute(SEQ, 99989)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_period_brute_memory_at_the_cap():
    # a refusal runs the search to its last window, about sqrt(2 * 2^20)
    # stored states; mod 10^9 + 7 the period is about 10^9
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded):
            period_brute(SEQ, 10**9 + 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------------ incongruence index


def test_iota_anchors():
    assert incongruence_index(SEQ, 29) == 14
    assert incongruence_index(SEQ, 7) == 2
    assert incongruence_index(SEQ, 1) == 1
    assert incongruence_index(SEQ, 41) == 8
    # the first repeat mod 307 is u_17 = u_2, far short of the period 34
    assert incongruence_index(SEQ, 307) == 16
    assert salajan_period_formula(307).period == 34


def test_iota_matches_pairwise_oracle_below_300():
    terms = [2, 1]
    while len(terms) < 320:
        terms.append(2 * terms[-1] + 3 * terms[-2])
    for m in range(1, 301):
        residues = [t % m for t in terms]
        expected = len(residues)
        seen = set()
        for idx, r in enumerate(residues):
            if r in seen:
                expected = idx
                break
            seen.add(r)
        assert incongruence_index(SEQ, m) == expected, m


def test_iota_settles_within_m_residues():
    # iota(m) <= m, so m distinct residues settle the answer without a repeat:
    # u_1..u_4 = 2, 1, 0, 3 mod 4 fill every class
    assert incongruence_index(SEQ, 1) == 1
    assert incongruence_index(SEQ, 2) == 2
    assert incongruence_index(SEQ, 4) == 4
    assert incongruence_index(SEQ, 29) == 14
    with pytest.raises(ValueError):
        incongruence_index(SEQ, 0)


def test_iota_at_most_period_when_purely_periodic():
    for p in (2, 5, 7, 11, 13, 29, 41, 193, 307):
        rho = salajan_period_formula(p).period
        assert incongruence_index(SEQ, p) <= rho, p


# ------------------------------------------------------------------ the equality scan


def test_scan_frozen_result():
    assert iota_equals_rho_scan(2000) == SCAN_2000
    assert iota_equals_rho_scan(100) == [2, 5, 13, 41, 73]
    assert iota_equals_rho_scan(5) == [2, 5]
    with pytest.raises(ValueError):
        iota_equals_rho_scan(4)


def test_scan_elements_reverify():
    for p in SCAN_2000:
        rho = period_brute(SEQ, p).period
        assert incongruence_index(SEQ, p) == rho, p
        assert period_brute(SEQ, p).pre_period == 1


def test_scan_excludes_known_inequality_cases():
    found = set(iota_equals_rho_scan(400))
    for p in (7, 29, 307):
        assert p not in found
        assert incongruence_index(SEQ, p) < salajan_period_formula(p).period


def test_iota_anchors_suite_detail():
    from discrim.verify import check_iota_anchors

    result = check_iota_anchors()
    assert result.passed
    assert result.detail == (
        "iota(29)=14; scan(2000) = [2, 5, 13, 41, 73, 193, 757, 769, 1093, 1181, 1597, 1621, 1871], "
        "all re-verified against brute periods; iota(307)=16 < 34=rho(307); extras beyond the "
        "four anchor primes: [2, 5, 13, 41, 73, 757, 769, 1597, 1621]"
    )


def test_iota_anchors_suite_names_the_drift(monkeypatch):
    from discrim import verify

    # 1871 and 757 dropped, 29 (iota 14 < rho 28) and 7 added, out of order
    drifted = [p for p in SCAN_2000 if p not in (757, 1871)] + [29, 7]
    monkeypatch.setattr(verify, "iota_equals_rho_scan", lambda limit: drifted)
    result = verify.check_iota_anchors()
    assert not result.passed
    assert result.detail == (
        "scan reports [29, 7], where brute iota != brute period; "
        "scan(2000) drifted from the frozen list: missing [757, 1871], extra [7, 29]"
    )


def test_scan_skips_3():
    assert 3 not in iota_equals_rho_scan(50)


# ------------------------------------------------------------------ the prime bound


def test_iota_prime_bound_values():
    assert iota_prime_bound(7) == pytest.approx(3.0)
    assert iota_prime_bound(29) == pytest.approx(14.0)
    # crossover: (p-1)/2 overtakes 4p^(3/4) around p = 4^4 * something; check both regimes
    assert iota_prime_bound(101) == pytest.approx(50.0)
    assert iota_prime_bound(100003) == pytest.approx(4 * 100003**0.75)
    for p in (2, 3, 5, 9, 100):
        with pytest.raises(ValueError):
            iota_prime_bound(p)


def test_prime_lemma_bound_values():
    assert prime_lemma_bound(4) == pytest.approx(1.0)
    assert prime_lemma_bound(8) == pytest.approx(2.0 ** (4.0 / 3.0))
    assert prime_lemma_bound(2060) == pytest.approx(float(515) ** (4.0 / 3.0))
    with pytest.raises(ValueError):
        prime_lemma_bound(3)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=6, max_value=20000))
def test_iota_bound_holds_on_random_primes(n):
    import sympy

    p = int(sympy.nextprime(n))
    assert incongruence_index(SEQ, p) <= iota_prime_bound(p)
