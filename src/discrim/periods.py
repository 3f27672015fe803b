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

# states (pre_period + period) a period walk may visit, one bound for every
# caller: 2^20 steps take about 0.15 s. It bounds time only, since the walk
# keeps two states at a time.
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
    """Exact pre-period and period mod d by walking the state pairs.

    A pair of consecutive residues determines all later ones, so the state
    walk (v_n, v_{n+1}) mod d enters a cycle. The map (x, y) -> (y, c1*y +
    c2*x) is linear on (Z/d)^2, so by Fitting's lemma every walk is on its
    cycle after the module's length, 2*Omega(d) < 2*d.bit_length() steps;
    with gcd(c2, d) = 1 the map is a bijection and every walk starts on its
    cycle. From there the period is the first return, and the pre-period is
    where two pointers `period` apart from (v1, v2) meet. Cost O(pre_period
    + period) steps in O(1) memory; raises CapExceeded when pre_period +
    period exceeds PERIOD_STATE_CAP.
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
    # lead were short of the cycle, (x, y) would never return and this raises
    cx, cy = x, y
    for period in range(1, cap):
        x, y = y, (c1 * y + c2 * x) % d
        if x == cx and y == cy:
            break
    else:
        raise CapExceeded(f"no repeated state within {cap} steps mod {d}")
    if not lead:
        return PeriodInfo(d, 1, period)
    x, y = x0, y0
    for _ in range(period):
        x, y = y, (c1 * y + c2 * x) % d
    a, b = x0, y0
    for pre_period in range(1, cap - period + 1):
        if a == x and b == y:
            return PeriodInfo(d, pre_period, period)
        a, b = b, (c1 * b + c2 * a) % d
        x, y = y, (c1 * y + c2 * x) % d
    raise CapExceeded(f"no repeated state within {cap} steps mod {d}")


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
        power = q**e
        part = _PRIME_POWER_ORDERS.get(power)
        if part is None:
            part = mult_order(9, power, ((q, e),))
            if power < ORDER_MEMO_BOUND:
                _PRIME_POWER_ORDERS[power] = part
        order = math.lcm(order, part)
    return PeriodInfo(d, max(1, alpha), 2 * order)


def salajan_period_checked(d: int) -> PeriodInfo:
    """Period formula cross-checked against the brute cycle walk."""
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
