"""Prime classification census and the F-set of exponents.

Primes p > 3 split by p mod 4 and the order of 3: class P1 (1 mod 4, 3 a
primitive root), P2 (3 mod 4, ord_3(p) = (p-1)/2), P3 (3 mod 4, 3 a primitive
root). Their union is exactly the set with ord_9(p) = (p-1)/2, and under GRH
their densities are 3A/5, 3A/5, 2A/5 with A the Artin constant.

The F-set collects the exponents b >= 1 such that [4*5^(b-1), 5^b] contains
no power of 2; exactly those 5^b occur as discriminator values. Membership is
decided exactly with integers, or fast via the fractional-part criterion
{b*log2(5)} <= log2(5) - 2, which characterizes the complement.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .numtheory import (
    SMALL_SIEVE_LIMIT,
    _pow_mod_u32,
    _small_sieve,
    check_prime_limit,
    is_prime,
    iter_prime_blocks,
    mult_order,
    primes_up_to,
)
from .sequences import CapExceeded, MethodsDisagree

ARTIN_CONSTANT = 0.3739558136
DENSITY_P1 = 3 * ARTIN_CONSTANT / 5
DENSITY_P2 = 3 * ARTIN_CONSTANT / 5
DENSITY_P3 = 2 * ARTIN_CONSTANT / 5

# density of the F-set among b <= x
BETA = 3 - math.log2(5)

# largest b an F-set pass may reach. The pass does constant work per b:
# on a 2-core host `fset_count(2^18)`, Weyl check included, takes about
# 0.23 s, and `fset_scan_interval(2^18)` about 0.34 s and 33 MB for its
# records. Counting much further calls for an exact Beatty count of
# {b*log2(5)}, not a longer pass
FSET_B_CAP = 1 << 18

# width in bits of the integers bracketing 5^b in `_fset_pass` after each
# trim; between trims they grow to twice that
_BRACKET_BITS = 128

CLASS_P1 = "P1"
CLASS_P2 = "P2"
CLASS_P3 = "P3"
CLASS_NONE = "none"
_CLASSES = (CLASS_P1, CLASS_P2, CLASS_P3, CLASS_NONE)


class PrimeClassRecord(NamedTuple):
    p: int
    residue_mod_4: int
    ord3: int
    pclass: str


class FsetRecord(NamedTuple):
    b: int
    member: bool
    k: int | None   # 2^k lies inside the interval; None when member is True

    @property
    def witness(self) -> int | None:
        """The power of 2 inside the interval when member is False."""
        return None if self.k is None else 1 << self.k


class DensityReport(NamedTuple):
    x: int
    pi_x: int
    counts: dict
    empirical: dict
    predicted: dict
    deviation: dict   # relative: empirical/predicted - 1


def classify_prime(p: int) -> PrimeClassRecord:
    """Class of a prime p > 3 from p mod 4 and ord_3(p)."""
    if p <= 3 or not is_prime(p):
        raise ValueError("classification needs a prime p > 3")
    return _classify(p)


def _classify(p: int) -> PrimeClassRecord:
    """`classify_prime` for a p > 3 that its caller knows to be prime, with
    no primality test."""
    ord3 = mult_order(3, p, ((p, 1),))
    r4 = p % 4
    if r4 == 1 and ord3 == p - 1:
        pclass = CLASS_P1
    elif r4 == 3 and ord3 == p - 1:
        pclass = CLASS_P3
    elif r4 == 3 and 2 * ord3 == p - 1:
        pclass = CLASS_P2
    else:
        pclass = CLASS_NONE
    return PrimeClassRecord(p, r4, ord3, pclass)


def _classify_batch(primes: np.ndarray) -> np.ndarray:
    """Index into _CLASSES for each prime of one sieve segment, 3 < p < 2^32.

    By quadratic reciprocity 3 is a square mod a prime p > 3 iff p = +-1
    mod 12, so p mod 12 stands in for 3^((p-1)/2). A prime p = 1 mod 12 has
    p = 1 mod 4 and 3 a square, hence 3 no primitive root: class none, with
    no power taken. Any other p is P1, P3 or P2 as p = 5, 7 or 11 mod 12,
    exactly when 3^((p-1)/q) != 1 for every odd prime q | p - 1, and none
    otherwise. For p = 5 or 7 mod 12, 3 is no square, so ord_3(p) does not
    divide (p-1)/2, and 3 is a primitive root iff ord_3(p) divides (p-1)/q
    for no odd q. For p = 11 mod 12, 3 is a square and (p-1)/2 is odd, so
    ord_3(p) is odd; an odd order divides (p-1)/q iff it divides
    (p-1)/(2q), hence ord_3(p) = (p-1)/2 iff it divides (p-1)/q for no odd q.

    p - 1 is factored by trial division over the primes up to sqrt(max p):
    a table maps each value of the segment to its prime's position, so the
    primes = 1 mod q^j are read off one slice per prime power q^j; what is
    left of p - 1 after that, its 2s taken out too, is 1 or a single odd
    prime.
    """
    import numpy as np

    p = primes.astype(np.int64)
    r12 = p % 12
    none = _CLASSES.index(CLASS_NONE)
    out = np.full(len(p), none, dtype=np.int64)
    (live,) = np.nonzero(r12 != 1)
    n = live.size
    if n == 0:
        return out
    pl = p[live]
    lo, hi = int(pl[0]), int(pl[-1])
    position = np.full(hi - lo + 1, -1, dtype=np.int32)
    position[pl - lo] = np.arange(n, dtype=np.int32)
    cofactor = pl - 1
    idx_parts, q_parts = [], []
    for q in primes_up_to(math.isqrt(hi - 1)).tolist():
        qj = q
        while qj < hi:
            hits = position[(1 - lo) % qj :: qj]
            hits = hits[hits >= 0]
            if hits.size == 0:
                break
            if q > 2 and qj == q:
                idx_parts.append(hits)
                q_parts.append(np.full(hits.size, q, dtype=np.int64))
            cofactor[hits] //= q
            qj *= q
    big = np.nonzero(cofactor > 1)[0]
    idx = np.concatenate(idx_parts + [big])
    qs = np.concatenate(q_parts + [cofactor[big]])
    pp = pl[idx]
    one = _pow_mod_u32(3, (pp - 1) // qs, pp) == 1
    by_r12 = np.full(12, none, dtype=np.int64)
    by_r12[[5, 7, 11]] = [_CLASSES.index(c) for c in (CLASS_P1, CLASS_P3, CLASS_P2)]
    cut = np.bincount(idx[one], minlength=n) > 0
    out[live] = np.where(cut, none, by_r12[r12[live]])
    return out


def census_scan(x: int) -> DensityReport:
    """Classify every prime 3 < p <= x and tally densities against predictions.

    Below SMALL_SIEVE_LIMIT = 2^17 the primes come from one `_small_sieve`
    list and `_classify` classifies each, with no numpy and no second
    primality test; from there on one sieve segment at a time goes through
    the batch classifier. x from
    2^32 up, beyond the batch classifier's exact range, is refused by the
    prime walk's cap check before any work.
    """
    if x < 5:
        raise ValueError("scan limit must be >= 5")
    if x < SMALL_SIEVE_LIMIT:
        check_prime_limit(x)
        primes = _small_sieve(x)
        counts = dict.fromkeys(_CLASSES, 0)
        for p in primes[2:]:
            counts[_classify(p).pclass] += 1
        return _density_report(x, len(primes), counts)
    import numpy as np

    tally = np.zeros(len(_CLASSES), dtype=np.int64)
    pi_x = 0
    for block in iter_prime_blocks(x):
        pi_x += len(block)
        tally += np.bincount(_classify_batch(block[block > 3]), minlength=len(_CLASSES))
    return _density_report(x, pi_x, dict(zip(_CLASSES, tally.tolist())))


def _density_report(x: int, pi_x: int, counts: dict) -> DensityReport:
    predicted = {CLASS_P1: DENSITY_P1, CLASS_P2: DENSITY_P2, CLASS_P3: DENSITY_P3}
    empirical = {c: counts[c] / pi_x for c in predicted}
    deviation = {c: empirical[c] / predicted[c] - 1 for c in predicted}
    return DensityReport(x, pi_x, counts, empirical, predicted, deviation)


def fset_member_interval(b: int) -> FsetRecord:
    """Exact membership: does [4*5^(b-1), 5^b] miss every power of 2?

    The smallest candidate power is 2^k with k minimal such that 2^k >= low,
    so the interval contains a power of 2 iff that 2^k is still <= 5^b.
    Comparisons go through bit lengths; no power of 2 never equals a power
    of 5, so bit-length comparison is exact here.
    """
    if b < 1:
        raise ValueError("b must be positive")
    low = 4 * 5 ** (b - 1)
    k = (low - 1).bit_length()
    upper = low + (low >> 2)   # 5^b = 5*low/4, and low is divisible by 4
    member = k >= upper.bit_length()
    return FsetRecord(b, member, None if member else k)


def _fset_pass(b_max: int):
    """Yield (b, k, member, bitlen(5^b)) for b = 1..b_max, in constant work
    per b.

    k is minimal with 2^k >= 4*5^(b-1), and b is a member iff k >= bitlen(5^b),
    as in `fset_member_interval`. For b >= 2, 4*5^(b-1) is no power of 2, so
    k = bitlen(4*5^(b-1)) = bitlen(5^(b-1)) + 2; for b = 1, k = 2.

    bitlen(5^b) comes from a bracket lo*2^s <= 5^b <= hi*2^s: each step
    multiplies lo and hi by 5, and once hi passes 2*_BRACKET_BITS bits both
    drop the same low bits, lo rounded down and hi up, back to _BRACKET_BITS
    bits. When lo and hi have the same bit length L, bitlen(5^b) = L + s
    exactly; otherwise 5^b is computed whole and the bracket starts again
    from it. No value of log2(5) enters, so the Weyl criterion stays an
    independent check. b_max past FSET_B_CAP raises CapExceeded before the
    first record.
    """
    check_fset_bound(b_max)
    width = _BRACKET_BITS
    lo = hi = 1   # lo*2^s <= 5^(b-1) <= hi*2^s
    s = 0
    k = 2
    for b in range(1, b_max + 1):
        lo *= 5
        hi *= 5
        if hi.bit_length() > 2 * width:
            cut = hi.bit_length() - width
            lo >>= cut
            hi = -(-hi >> cut)
            s += cut
        bits = hi.bit_length()
        if lo.bit_length() == bits:
            bits += s
        else:
            power = 5**b
            bits = power.bit_length()
            s = max(bits - width, 0)
            lo, hi = power >> s, -(-power >> s)
        yield b, k, k >= bits, bits
        k = bits + 2


def check_fset_bound(b_max: int) -> None:
    """Raise CapExceeded, before any work, when b_max exceeds FSET_B_CAP."""
    if b_max > FSET_B_CAP:
        raise CapExceeded(f"F-set bound {b_max} exceeds cap {FSET_B_CAP}")


def fset_scan_interval(b_max: int) -> list[FsetRecord]:
    """Exact membership for all b <= b_max, in one incremental pass.

    Each record keeps the exponent k of its witness, not the power 2^k, so
    no giant integers accumulate. b_max is bounded by FSET_B_CAP.
    """
    if b_max < 1:
        raise ValueError("b_max must be positive")
    return [FsetRecord(b, member, None if member else k) for b, k, member, _ in _fset_pass(b_max)]


_FIX_BITS = 192
_FIX_ONE = 1 << _FIX_BITS
# log2(5) in 192-bit fixed point: floor(log2(5) * 2^192)
_ALPHA_FIX = 0x25269e12f346e2bf924afdbfd36bf6d3365b157f8deceb53a
_THRESHOLD = _ALPHA_FIX - 2 * _FIX_ONE   # fixed-point alpha - 2, in (0, 1)


def fset_member_weyl(b: int) -> bool:
    """Fast membership via the fractional-part criterion.

    b is OUTSIDE the F-set exactly when {b*alpha} <= alpha - 2 for
    alpha = log2(5). Computed in 192-bit fixed point; any b whose fractional
    part lands within the accumulated error margin of the threshold (or of
    the wraparound at 0/1) is handed to the exact interval method instead.
    """
    if b < 1:
        raise ValueError("b must be positive")
    frac = (b * _ALPHA_FIX) & (_FIX_ONE - 1)
    margin = 4 * (b + 2)   # fixed-point units; alpha error < 2 units scales by b
    if (
        abs(frac - _THRESHOLD) <= margin
        or frac <= margin
        or _FIX_ONE - frac <= margin
    ):
        return fset_member_interval(b).member
    return frac > _THRESHOLD


def _fset_checked(b_max: int):
    """`_fset_pass`'s items, the Weyl criterion checked at every b; after
    the last, the member count is checked against 3x - bitlen(5^x), x = b_max,
    with the bit length the pass ends on: 5^b/5^(b-1) = 5 lies between 2^2
    and 2^3, so bitlen(5^b) - bitlen(5^(b-1)) is 2 for a member b and 3
    otherwise, except 2 for the non-member b = 1. A mismatch raises
    MethodsDisagree."""
    count = 0
    for item in _fset_pass(b_max):
        b, _, member, bits = item
        weyl = fset_member_weyl(b)
        if weyl != member:
            raise MethodsDisagree(f"methods disagree at b={b}: interval={member} weyl={weyl}")
        count += member
        yield item
    if count != 3 * b_max - bits:
        raise MethodsDisagree(f"methods disagree at x={b_max}: count={count} 3x-bitlen(5^x)={3 * b_max - bits}")


def fset_scan_checked(b_max: int) -> list[FsetRecord]:
    """`fset_scan_interval`'s records, checked as `_fset_checked` does."""
    if b_max < 1:
        raise ValueError("b_max must be positive")
    return [FsetRecord(b, member, None if member else k) for b, k, member, _ in _fset_checked(b_max)]


def fset_count(x: int) -> tuple[int, float, float]:
    """(count of b <= x in the F-set, count/x, expected density beta), from
    the pass of `fset_scan_checked`, keeping no record."""
    if x < 1:
        raise ValueError("x must be positive")
    count = sum(member for _, _, member, _ in _fset_checked(x))
    return count, count / x, BETA
