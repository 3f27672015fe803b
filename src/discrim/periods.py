"""Periodicity mod d and the incongruence index.

For the flagship sequence, writing d = 3^a * delta with 3 not dividing delta,
the eventual period mod d is rho(d) = 2*ord_9(4*delta) and the pre-period is
max(1, a); pre_period == 1 means purely periodic. The incongruence index
iota(m) is the largest k such that the first k terms are pairwise incongruent
mod m; always iota(m) <= m.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .numtheory import factorize, is_prime, mult_order, primes_up_to
from .sequences import (
    POLYNOMIAL,
    CapExceeded,
    MethodsDisagree,
    SequenceSpec,
    distinct_prefix_length,
    salajan,
)

# bound on pre_period + period, one for every caller. The search at 2^20 takes
# about sqrt(2^21) = 1,448 iterations and holds that many states, about 2 ms
# and 0.2 MB; it stays 2^20 so that every answer and every refusal stays as
# it was (`discrim period --d 1000000007` exits 1 under it)
PERIOD_STATE_CAP = 1 << 20

# ord_{q^e}(9) by prime power q^e, for the period formula. It records only
# q^e below ORDER_MEMO_BOUND, so it never holds many more than the 82,025
# primes below 2^20.
ORDER_MEMO_BOUND = 1 << 20
_PRIME_POWER_ORDERS: dict[int, int] = {}


class PeriodInfo(NamedTuple):
    modulus: int
    pre_period: int   # minimal n0; 1 means purely periodic
    period: int


def period_brute(spec: SequenceSpec, d: int) -> PeriodInfo:
    """Exact pre-period and period mod d from the state pairs.

    A pair of consecutive residues determines all later ones, so the state
    walk (v_n, v_{n+1}) mod d enters a cycle. The map M(x, y) = (y, c1*y +
    c2*x) is linear on (Z/d)^2, so by Fitting's lemma every walk is on its
    cycle after the module's length, 2*Omega(d) < 2*d.bit_length() steps;
    with gcd(c2, d) = 1 the map is a bijection and every walk starts on its
    cycle. From there the period is the least return time, found by Terr's
    baby-step giant-step (Math. Comp. 69 (2000) 767-773): iteration i stores
    the baby M^i c and checks the giant M^(i(i+1)/2) c against the earlier
    babies, so it tests every return time in (i(i-1)/2, i(i+1)/2]. The
    pre-period is where two pointers `period` apart from (v1, v2) meet, the
    second put in place by squaring the 2x2 matrix. Cost O(sqrt(2*period))
    iterations plus O(pre_period) steps, in O(sqrt(cap)) memory; raises
    CapExceeded when pre_period + period exceeds PERIOD_STATE_CAP.
    """
    if d < 2:
        raise ValueError("modulus must be >= 2")
    if spec.kind == POLYNOMIAL:
        raise ValueError("period detection needs a linear recurrence")
    cap = PERIOD_STATE_CAP
    c1, c2, v1, v2 = spec.as_recurrence()
    x0, y0 = v1 % d, v2 % d
    lead = 0 if math.gcd(c2, d) == 1 else 2 * d.bit_length()
    x, y = x0, y0
    for _ in range(lead):
        x, y = y, (c1 * y + c2 * x) % d
    # pre_period >= 1, so a period of cap or more overruns the cap; if the
    # lead were short of the cycle, (x, y) would never return and this raises.
    # (x, y) is the baby M^i c, (p, q; r, s) the matrix M^i and (g, h) the
    # giant M^(i(i+1)/2) c; babies are distinct while no return is found
    cx, cy = x, y
    babies = {cx * d + cy: 0}
    p, q, r, s = 1, 0, 0, 1
    g, h = cx, cy
    i = period = 0
    while i * (i + 1) // 2 < cap - 1:
        i += 1
        x, y = y, (c1 * y + c2 * x) % d
        if x == cx and y == cy:
            period = i
            break
        p, q, r, s = r, s, (c2 * p + c1 * r) % d, (c2 * q + c1 * s) % d
        g, h = (p * g + q * h) % d, (r * g + s * h) % d
        j = babies.get(g * d + h)
        if j is not None:
            period = i * (i + 1) // 2 - j
            break
        babies[x * d + y] = i
    # the pointers meet at pre_period, or pre_period + period passes the cap
    pre_period = 1
    if lead and 0 < period < cap:
        x, y = _matrix_power_apply(c1, c2, period, d, x0, y0)
        a, b = x0, y0
        while (a != x or b != y) and pre_period + period <= cap:
            pre_period += 1
            a, b = b, (c1 * b + c2 * a) % d
            x, y = y, (c1 * y + c2 * x) % d
    if not 0 < period < cap or pre_period + period > cap:
        raise CapExceeded(f"no repeated state within {cap} steps mod {d}")
    return PeriodInfo(d, pre_period, period)


def _matrix_power_apply(c1: int, c2: int, n: int, d: int, x: int, y: int) -> tuple[int, int]:
    """M^n (x, y) mod d for M(x, y) = (y, c1*y + c2*x), by repeated squaring."""
    # (p, q; r, s) is M^(2^k) as n's bits are read from the lowest up
    p, q, r, s = 0, 1, c2 % d, c1 % d
    while n:
        if n & 1:
            x, y = (p * x + q * y) % d, (r * x + s * y) % d
        n >>= 1
        if n:
            p, q, r, s = (
                (p * p + q * r) % d, (p * q + q * s) % d,
                (r * p + s * r) % d, (r * q + s * s) % d,
            )
    return x, y


def salajan_period_formula(d: int) -> PeriodInfo:
    """Closed-form period 2*ord_9(4*delta) and pre-period max(1, a) for d = 3^a * delta.

    ord_9(4*delta) is the lcm of ord_{q^e}(9) over the prime powers q^e
    exactly dividing 4*delta (CRT); the order for each q^e below
    ORDER_MEMO_BOUND is computed once per process.
    """
    if d < 2:
        raise ValueError("modulus must be >= 2")
    alpha = 0
    delta = d
    while delta % 3 == 0:
        alpha += 1
        delta //= 3
    order = 1
    for q, e in factorize(4 * delta):
        order = math.lcm(order, _PRIME_POWER_ORDERS.get(q**e) or _prime_power_order(q, e))
    return PeriodInfo(d, max(1, alpha), 2 * order)


def _prime_power_order(q: int, e: int) -> int:
    """ord_{q^e}(9) for a prime q other than 3, recorded in
    _PRIME_POWER_ORDERS when q^e is below ORDER_MEMO_BOUND."""
    power = q**e
    part = mult_order(9, power, ((q, e),))
    if power < ORDER_MEMO_BOUND:
        _PRIME_POWER_ORDERS[power] = part
    return part


def salajan_period_checked(d: int) -> PeriodInfo:
    """Period formula cross-checked against the brute cycle search."""
    formula = salajan_period_formula(d)
    brute = period_brute(salajan(), d)
    if (formula.pre_period, formula.period) != (brute.pre_period, brute.period):
        raise MethodsDisagree(f"methods disagree at d={d}: formula={formula} brute={brute}")
    return formula


def incongruence_index(spec: SequenceSpec, m: int) -> int:
    """Largest k with v_1..v_k pairwise incongruent mod m.

    Streams residues until the first repeat. Since iota(m) <= m, reaching m
    distinct residues settles the answer without seeing the repeat.
    """
    return distinct_prefix_length(spec, m, m)


def iota_equals_rho_scan(prime_limit: int) -> list[int]:
    """Primes p <= prime_limit with 3 not dividing p and iota(p) = rho(p).

    Equality forces the whole cycle mod p to be repeat-free, which is rare;
    the scan enumerates every occurrence, it does not decide whether there
    are infinitely many.
    """
    if prime_limit < 5:
        raise ValueError("prime_limit must be >= 5")
    seq = salajan()
    out = []
    for p in primes_up_to(prime_limit):
        p = int(p)
        if p == 3:
            continue
        rho = salajan_period_formula(p).period
        # u_{1+rho} = u_1 mod p (purely periodic), so iota(p) <= rho and a
        # scan capped at rho + 1 terms returns iota(p) itself
        if distinct_prefix_length(seq, p, rho + 1) == rho:
            out.append(p)
    return out


def iota_prime_bound(p: int) -> float:
    """The proven ceiling min((p-1)/2, 4p^(3/4)) on iota(p) for primes p > 5."""
    if p <= 5 or not is_prime(p):
        raise ValueError("bound applies to primes p > 5")
    return min((p - 1) / 2, 4.0 * p**0.75)


def prime_lemma_bound(n: int) -> float:
    """floor(n/4)^(4/3): every prime discriminating u_1..u_n must exceed this.
    It is `iota_prime_bound` read the other way: such a p has n <= iota(p) <= 4p^(3/4)."""
    if n < 4:
        raise ValueError("bound needs n >= 4")
    return float(n // 4) ** (4.0 / 3.0)
