"""Exact integer building blocks, cross-checked against sympy and brute force."""

import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from discrim import numtheory
from discrim.numtheory import (
    U64_MAX,
    _pow_mod_u32,
    artin_constant,
    factorize,
    is_prime,
    iter_prime_blocks,
    lte_valuation,
    mult_order,
    padic_valuation,
    primes_up_to,
    smallest_primitive_root,
)
from discrim.sequences import CapExceeded


# ------------------------------------------------------------------ primality


def test_is_prime_matches_sieve_below_10000():
    sieve = set(sympy.primerange(2, 10001))
    mine = {n for n in range(1, 10001) if is_prime(n)}
    assert mine == sieve
    assert mine == set(primes_up_to(10000).tolist())


@pytest.mark.parametrize(
    "n,expected",
    [
        (1, False),
        (2, True),
        (3, True),
        (4, False),
        (2**61 - 1, True),      # Mersenne prime
        (2**64 - 1, False),
        (561, False),           # Carmichael number
        (41041, False),         # Carmichael number
        # each bound of is_prime's base table is the least strong pseudoprime
        # to its row's bases, so a row that also covered its own bound would
        # call it prime; 25326001 and 3215031751 are the least to the
        # prefixes 2, 3, 5 and 2 to 7, which the table no longer uses
        (1373653, False),       # bases 2, 3
        (9080191, False),       # bases 31, 73
        (25326001, False),      # bases 2, 3, 5
        (3215031751, False),    # strong pseudoprime to bases 2, 3, 5, 7
        (4759123141, False),    # bases 2, 7, 61
        (1122004669633, False),  # bases 2, 13, 23, 1662803
        (2152302898747, False),  # bases 2 to 11
        (3474749660383, False),  # bases 2 to 13
        (341550071728321, False),  # bases 2 to 17
        (3825123056546413051, False),  # bases 2 to 23
        (U64_MAX - 58, True),   # largest prime below 2^64
    ],
)
def test_is_prime_anchors(n, expected):
    assert is_prime(n) == expected
    assert sympy.isprime(n) == expected


def test_is_prime_rejects_out_of_range():
    with pytest.raises(ValueError):
        is_prime(0)
    with pytest.raises(ValueError):
        is_prime(2**64)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=U64_MAX))
def test_is_prime_agrees_with_sympy(n):
    assert is_prime(n) == sympy.isprime(n)


def _strong_probable_prime(n, a):
    """n - 1 = 2^s d with d odd, and a^d = 1 or a^(2^r d) = -1 mod n for some
    r < s: written out here, not taken from is_prime."""
    s = 0
    while (n - 1) % 2 ** (s + 1) == 0:
        s += 1
    powers = [pow(a, (n - 1) // 2**s * 2**r, n) for r in range(s)]
    return powers[0] == 1 or n - 1 in powers


def test_each_base_row_ends_at_a_strong_pseudoprime_to_its_bases():
    # a bound set too high, or a base that is not the row's, leaves a bound
    # that is not a strong pseudoprime to every base of its row
    rows = numtheory._MR_BASES
    assert [b for b, _ in rows] == sorted(b for b, _ in rows)
    for (previous, _), (_, bases) in zip(rows, rows[1:]):
        assert max(bases) < previous
    for bound, bases in rows:
        assert not sympy.isprime(bound)
        assert all(_strong_probable_prime(bound, a) for a in bases), bound
        # all 12 witnesses expose it, so the helper can also say no
        assert not all(_strong_probable_prime(bound, a) for a in numtheory._MR_WITNESSES)
        for n in range(bound - 2000, bound + 2001):
            assert is_prime(n) == sympy.isprime(n), n


# ------------------------------------------------------------------ sieving


def test_primes_up_to_edges():
    assert primes_up_to(1).tolist() == []
    assert list(iter_prime_blocks(1)) == []
    assert list(iter_prime_blocks(0)) == []
    assert primes_up_to(2).tolist() == [2]
    assert primes_up_to(30).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_prime_count_anchor():
    # pi(10^6) = 78498
    assert len(primes_up_to(1_000_000)) == 78498


def test_segmented_blocks_match_whole_sieve():
    whole = primes_up_to(100_000).tolist()
    pieces = []
    for block in iter_prime_blocks(100_000, block=1000):
        pieces.extend(block.tolist())
    assert pieces == whole
    # block boundary exactly on a prime
    assert [b.tolist() for b in iter_prime_blocks(13, block=13)][0][-1] == 13


# ------------------------------------------------------------------ factoring


def test_factorize_anchors():
    assert factorize(1) == ()
    assert factorize(2**64 - 1) == (
        (3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1),
    )
    assert factorize(600851475143) == ((71, 1), (839, 1), (1471, 1), (6857, 1))
    assert factorize(2**40) == ((2, 40),)


def test_factorize_rejects_out_of_range():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(2**64)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=10**12))
def test_factorize_recomposes_and_matches_sympy(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    assert list(fac) == sorted(fac)
    assert all(is_prime(p) and e >= 1 for p, e in fac)
    assert dict(fac) == sympy.factorint(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=2**62, max_value=U64_MAX))
def test_factorize_near_64_bits(n):
    fac = factorize(n)
    assert math.prod(p**e for p, e in fac) == n
    assert all(is_prime(p) for p, _ in fac)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=U64_MAX))
def test_factorize_matches_sympy_up_to_64_bits(n):
    assert dict(factorize(n)) == sympy.factorint(n)


def test_factorize_primes_and_semiprimes_past_trial_division():
    # 4093 is the largest trial divisor: from 4093^2 on, a prime is no longer
    # proved by running out of divisors, and a semiprime needs rho
    primes = list(sympy.primerange(4093**2, 4093**2 + 400)) + [2**61 - 1, 2**64 - 59]
    semis = [4091 * 4093, 4093 * 4099, 4099 * 4111, 4093**2, 4099**2, 65537 * 6700417,
             4294967291 * 4294967279]
    # even n whose odd part needs rho, with or without small factors first
    semis += [m << t for m in (4099 * 4111, 4099**2 * 4111, 15 * 4099 * 4111) for t in (1, 2, 17)]
    for n in primes:
        assert factorize(n) == ((n, 1),)
    for n in semis + list(range(4093**2 - 64, 4093**2 + 65)):
        assert dict(factorize(n)) == sympy.factorint(n), n


def test_factorize_tests_a_large_prime_odd_part_once(monkeypatch):
    # n = 2^t * q with a prime q past 4093^2: the 2^t is split off first, so
    # q alone is tested, once, and no trial division runs
    calls = []
    real = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime", lambda n: calls.append(n) or real(n))
    q_min = sympy.nextprime(4093**2)
    for q, t in [(1000000007, 1), (1000000007, 34), (2**61 - 1, 2), (q_min, 1), (q_min, 39)]:
        calls.clear()
        fac = factorize(q << t)
        assert calls == [q], (q, t)
        assert fac == ((2, t), (q, 1)) and dict(fac) == sympy.factorint(q << t), (q, t)


def test_factorize_matches_sympy_below_50000():
    for n in range(1, 50_001):
        assert dict(factorize(n)) == sympy.factorint(n), n


def test_factorize_matches_sympy_to_2_18():
    # past the smallest-prime-factor table's 2^17 odd numbers; below 50000
    # is the test above
    for n in range(50_001, 2**18 + 1):
        assert dict(factorize(n)) == sympy.factorint(n), n


def test_factorize_matches_sympy_at_the_table_edge():
    # 2^k * m with an odd m on either side of the table's last entry: read
    # from the table below it, and from it on passed through the gcd with the
    # small primes' product until what is left fits the table
    assert numtheory.SPF_ENTRIES == 2**17
    for k in range(41):
        for m in range(2**17 - 99, 2**17 + 101, 2):
            fac = factorize(m << k)
            assert list(fac) == sorted(fac) and dict(fac) == sympy.factorint(m << k), (k, m)


def test_factorize_trusts_trial_division_below_the_trial_square(monkeypatch):
    # below 4093^2 a part with no prime factor up to 4093 is prime, and an
    # odd part below 2^17 is read from the table, so no Miller-Rabin test is
    # needed
    calls = []
    real = numtheory.is_prime

    def counting(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(numtheory, "is_prime", counting)
    for n in range(1, 100_001):
        factorize(n)
    # odd numbers from 2^17 on lie past the smallest-prime-factor table
    for n in range(2**17 + 1, 2**17 + 100_001, 2):
        factorize(n)
    assert calls == []


def test_small_odd_product_matches_sympy():
    assert numtheory._SMALL_ODD_PRODUCT == math.prod(sympy.primerange(3, 4094))
    assert numtheory._TRIAL_SQUARE == 4093**2


def gcd_path_cases():
    """Odd parts from 2^17 on that stress the one gcd with the small primes'
    product and the handover to the table, each also shifted by 2^t while it
    fits in 64 bits."""
    q = sympy.nextprime(4093**2)          # the least prime past the trial square
    top = sympy.prevprime(4093**2)        # the largest prime below it
    seven = 3 * 5 * 7 * 11 * 13 * 17 * 19   # 4,849,845, past the table
    odd = [
        # the small part g is 2^17 or more
        seven, seven * 23, seven * q, seven * 1000000007, seven * 4099 * 4111,
        367 * 373, 367 * 373 * q, 4001 * 4003 * 4007 * 4013 * 4019,
        3 * 4001 * 4003 * 4007 * 4013, 4079 * 4091 * 4093 * q,
        # high powers of small primes next to a large cofactor
        3**25 * q, 3**2 * 4091**3 * q, 3**20 * 4091**2, 3**20 * q, 5**13 * 4093 * 4099,
        4091**5, 3**2 * 4093**5, 3**13 * 4099**2, 7**18 * 4099,
        # the largest prime below 4093^2, alone and with small primes
        top, 3 * top, 3**5 * 5**3 * top, 4091 * top, seven * top, top**2, top * q,
        4093 * top, 3 * 4093 * top,
        # what is left of m falls below 2^17 partway, and the table reads the
        # rest (2^17 - 1 is prime)
        3 * 5 * 7 * 4099, 5 * 131071, 3**2 * 5 * 131071, 3**11 * 4099,
    ]
    assert all(m % 2 and 2**17 <= m <= U64_MAX for m in odd)
    return [m << t for m in odd for t in (0, 1, 2, 17, 40, 63) if m << t <= U64_MAX]


def test_factorize_gcd_path_matches_sympy(monkeypatch):
    # only a part with no prime up to 4093 and past 4093^2 is ever tested
    calls = []
    real = numtheory.is_prime
    monkeypatch.setattr(numtheory, "is_prime", lambda n: calls.append(n) or real(n))
    cases = gcd_path_cases()
    assert len(cases) > 90
    for n in cases:
        fac = factorize(n)
        assert list(fac) == sorted(fac) and dict(fac) == sympy.factorint(n), n
    assert calls and all(c > 4093**2 and math.gcd(c, numtheory._SMALL_ODD_PRODUCT) == 1
                         for c in calls)


# ------------------------------------------------------------------ valuations


@pytest.mark.parametrize("p,n,v", [(2, 48, 4), (3, 81, 4), (5, 7, 0), (7, -49, 2)])
def test_padic_valuation_anchors(p, n, v):
    assert padic_valuation(p, n) == v


def test_padic_valuation_errors():
    with pytest.raises(ValueError):
        padic_valuation(2, 0)
    with pytest.raises(ValueError):
        padic_valuation(4, 12)


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7, 11]),
    st.integers(min_value=0, max_value=25),
    st.integers(min_value=1, max_value=10**6),
)
def test_padic_valuation_strips_exact_power(p, e, m):
    while m % p == 0:
        m //= p
    assert padic_valuation(p, p**e * m) == e


def test_pow_mod_u32_matches_builtin():
    rng = random.Random(11)
    mods = [2, 3, 4, 2**31 - 1, 2**32 - 5, 2**32 - 1] + [rng.randrange(2, 2**32) for _ in range(500)]
    exps = [0, 1, 2**32 - 1, 2**32 - 2] + [rng.randrange(0, 2**32) for _ in range(502)]
    for base in (0, 3, 9, 2**32 - 1):
        got = _pow_mod_u32(base, np.array(exps, dtype=np.int64), np.array(mods, dtype=np.int64))
        assert got.tolist() == [pow(base, e, m) for e, m in zip(exps, mods)]
    assert _pow_mod_u32(3, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)).size == 0


# ------------------------------------------------------------------ unit group


def test_mult_order_matches_sympy_below_500():
    for n in range(2, 501):
        orders = [mult_order(a, n) for a in range(1, n) if math.gcd(a, n) == 1]
        assert orders == [sympy.n_order(a, n) for a in range(1, n) if math.gcd(a, n) == 1], n
        # the largest order is lambda(n), the exponent of the unit group
        assert max(orders) == sympy.reduced_totient(n), n


@pytest.mark.parametrize("a,m,order", [(3, 5, 4), (9, 20, 2), (2, 9, 6), (9, 1228, 17)])
def test_mult_order_anchors(a, m, order):
    assert mult_order(a, m) == order
    assert sympy.n_order(a, m) == order


def test_mult_order_errors():
    with pytest.raises(ValueError):
        mult_order(6, 9)   # shares a factor
    with pytest.raises(ValueError):
        mult_order(3, 1)
    with pytest.raises(ValueError):
        mult_order(3, 20, ((2, 1), (5, 1)))   # a factorization of 10, not of 20
    with pytest.raises(ValueError):
        mult_order(3, 20, ((2, 2),))


def test_known_factorization_agrees_below_3000():
    for m in range(2, 3001):
        fac = factorize(m)
        for a in (2, 3, 9, m - 1):
            if math.gcd(a, m) == 1:
                assert mult_order(a, m, fac) == mult_order(a, m), (a, m)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=50_000), st.integers(min_value=1, max_value=10**6))
def test_mult_order_properties(m, a):
    a = a % m
    if a == 0 or math.gcd(a, m) != 1:
        a = 1
    t = mult_order(a, m)
    assert pow(a, t, m) == 1
    assert sympy.reduced_totient(m) % t == 0
    # minimality at the prime shavings of t
    for q, _ in factorize(t):
        assert pow(a, t // q, m) != 1


# ------------------------------------------------------------------ lifting the exponent


def test_lte_valuation_matches_exact_sweep():
    for p in (2, 3, 5, 7):
        for r in (p + 1, 2 * p + 1, p * p + 1, 1 - 2 * p):
            for n in range(1, 61):
                assert lte_valuation(p, r, n) == padic_valuation(p, r**n - 1), (p, r, n)


def test_lte_valuation_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        lte_valuation(2, 1, 5)       # r = 1
    with pytest.raises(ValueError):
        lte_valuation(2, -1, 5)      # r = -1
    with pytest.raises(ValueError):
        lte_valuation(5, 2, 5)       # r not 1 mod p
    with pytest.raises(ValueError):
        lte_valuation(4, 5, 5)       # p composite
    with pytest.raises(ValueError):
        lte_valuation(2, 3, 0)       # n must be positive


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([2, 3, 5, 7]),
    st.integers(min_value=1, max_value=40),
    st.integers(min_value=1, max_value=120),
)
def test_lte_valuation_property(p, k, n):
    r = 1 + k * p
    if r == 1:
        r = 1 + p
    assert lte_valuation(p, r, n) == padic_valuation(p, r**n - 1)


# ------------------------------------------------------------------ primitive roots


def test_smallest_primitive_root_matches_sympy():
    for p in sympy.primerange(3, 1000):
        g = smallest_primitive_root(p)
        assert g == sympy.primitive_root(p), p
        assert mult_order(g, p) == p - 1
    with pytest.raises(ValueError):
        smallest_primitive_root(2)
    with pytest.raises(ValueError):
        smallest_primitive_root(10)


# ------------------------------------------------------------------ Artin partial product


def test_artin_constant_small_anchors():
    assert artin_constant(2) == pytest.approx(0.5, abs=1e-15)
    assert artin_constant(3) == pytest.approx(5 / 12, abs=1e-15)
    assert artin_constant(5) == pytest.approx(5 / 12 * (1 - 1 / 20), abs=1e-15)


def test_artin_constant_matches_high_precision_product():
    import mpmath

    with mpmath.workdps(40):
        acc = mpmath.mpf(1)
        for p in sympy.primerange(2, 10_000):
            acc *= 1 - mpmath.mpf(1) / (p * (p - 1))
        expected = float(acc)
    assert artin_constant(10_000) == pytest.approx(expected, abs=1e-13)


@pytest.mark.parametrize("x", [10**6, 1_542_404, 2 * 10**6])
def test_artin_constant_is_one_exactly_rounded_sum(x):
    # at 1,542,404 a sum of per-segment partials would round one ulp lower
    p = primes_up_to(x).astype(np.float64)
    assert artin_constant(x) == math.exp(math.fsum(np.log1p(-1.0 / (p * (p - 1.0))).tolist()))


def test_artin_constant_refuses_the_cap_before_any_work(monkeypatch):
    # the base sieve is the first work a prime walk does: from 2^32 on it is
    # never reached, and below 2^32 it is; the walk itself refuses, so every
    # caller over it does, the Artin product, `primes_up_to` and the
    # iota = rho scan included
    from discrim.periods import iota_equals_rho_scan

    def refuse(limit):
        raise AssertionError(f"sieved up to {limit}")

    monkeypatch.setattr(numtheory, "_small_sieve", refuse)
    walks = (artin_constant, primes_up_to, lambda x: list(iter_prime_blocks(x)), iota_equals_rho_scan)
    for walk in walks:
        for limit in (numtheory.PRIME_LIMIT_CAP, 10**18):
            with pytest.raises(CapExceeded, match=rf"^prime limit {limit} exceeds cap 4294967295$"):
                walk(limit)
        with pytest.raises(AssertionError, match=r"^sieved up to 65535$"):
            walk(numtheory.PRIME_LIMIT_CAP - 1)


def test_artin_constant_list_path_matches_the_numpy_sum():
    # below SMALL_SIEVE_LIMIT the terms are math.log1p's, which differ from
    # np.log1p's in the last bit at 10 of the 12,251 primes below 2^17
    x = numtheory.SMALL_SIEVE_LIMIT - 1
    p = primes_up_to(x).astype(np.float64)
    want = math.exp(math.fsum(np.log1p(-1.0 / (p * (p - 1.0))).tolist()))
    assert artin_constant(x) == pytest.approx(want, rel=0, abs=1e-12)
    assert f"{artin_constant(x):.12f}" == f"{want:.12f}"


def test_artin_constant_monotone_nonincreasing():
    # the last two limits hold the same primes, one on each path
    limits = (10, 100, 1000, 10_000, numtheory.SMALL_SIEVE_LIMIT - 1, numtheory.SMALL_SIEVE_LIMIT)
    values = [artin_constant(x) for x in limits]
    assert all(a >= b for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        artin_constant(1)
