"""Exact integer building blocks: primality, factoring, orders, valuations.

Everything here is deterministic. Primality takes one gcd with the product of
the primes up to 37 and then strong probable-prime tests to the published
minimal base set for n's range (Pomerance, Selfridge and Wagstaff, Math. Comp.
35 (1980); Jaeschke, Math. Comp. 61 (1993)), exact for every 64-bit n.
Factoring splits off 2^t, takes the primes up to 4093 out of a large odd part
through one gcd with their product, reads an odd part from a smallest-prime-
factor table as soon as it is below 2^17 and splits a rest that stays larger by
Pollard rho with Brent cycling, and multiplicative orders are computed by
reducing the Carmichael exponent rather than by iteration.
"""

from __future__ import annotations

import itertools
import math
from array import array
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

from .sequences import CapExceeded

U64_MAX = 2**64 - 1

# the primes up to 37: past the table below all 12 serve as bases, which is
# exact for n < 3.3e24 and so for every 64-bit n, and n shares a factor with
# their product exactly when one of them divides it
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_WITNESS_PRODUCT = math.prod(_MR_WITNESSES)

# (bound, bases): the bases decide every n from the previous row's bound up to
# below this one, which is the least strong pseudoprime to all of them
# (Pomerance, Selfridge and Wagstaff, Math. Comp. 35 (1980), for 2047 and
# 1373653; Jaeschke, Math. Comp. 61 (1993), for the rows from 9080191 to
# 341550071728321; Sorenson and Webster, Math. Comp. 86 (2017), for 2 to 23).
# Every base is below the previous bound, so none is 0 mod n
_MR_BASES = (
    (2047, (2,)),
    (1373653, (2, 3)),
    (9080191, (31, 73)),
    (4759123141, (2, 7, 61)),
    (1122004669633, (2, 13, 23, 1662803)),
    (2152302898747, _MR_WITNESSES[:5]),
    (3474749660383, _MR_WITNESSES[:6]),
    (341550071728321, _MR_WITNESSES[:7]),
    (3825123056546413051, _MR_WITNESSES[:9]),
)

# every prime walk's segment: the census classifies one segment at a time, and
# under tracemalloc census_scan(2^21) peaks at 5.9 MiB with 2^18 segments and
# at 21.9 MiB with 2^20 ones, at the same speed
_SIEVE_BLOCK = 1 << 18

# prime walks stop below this: the census batch classifier's uint64
# arithmetic is exact only for p < 2^32, and a walk sieves every base prime up
# to sqrt(limit) into one list before its first segment (a 1 GB mask at
# 10^18); `check_prime_limit` refuses limits from here on, in
# `iter_prime_blocks` and on the list paths below SMALL_SIEVE_LIMIT, so every
# walk over it (the census, the Artin product, `primes_up_to`) does
PRIME_LIMIT_CAP = 1 << 32

# below this limit the census and the Artin product take their primes from
# one `_small_sieve` list and never import numpy. In whole `python -c`
# processes on a 2-core host, bytecode cached, medians of 9 alternating runs,
# census_scan took 90 ms on the list against 173 ms for numpy's import and
# batch at 2^16, 112 against 106 ms at 3*2^15 and 128 against 107 ms at 2^17;
# the Artin product's list path took 10-20 ms up to 2^19 against 60-80 ms for
# numpy's import and walk. So the bound sits a little past the census
# crossover and far below the Artin product's
SMALL_SIEVE_LIMIT = 1 << 17


def is_prime(n: int) -> bool:
    """Deterministic primality test for 1 <= n <= 2^64 - 1."""
    if not 1 <= n <= U64_MAX:
        raise ValueError("is_prime expects 1 <= n <= 2^64 - 1")
    if n < 2:
        return False
    if math.gcd(n, _MR_WITNESS_PRODUCT) != 1:
        return n in _MR_WITNESSES
    for bound, bases in _MR_BASES:
        if n < bound:
            break
    else:
        bases = _MR_WITNESSES
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _small_sieve(limit: int) -> list[int]:
    """All primes <= limit as a list (plain sieve for small limits, in pure
    Python so that importing this module needs no numpy)."""
    mask = bytearray([1]) * (limit + 1)
    mask[:2] = b"\0\0"
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
    return list(itertools.compress(range(limit + 1), mask))


_SMALL_PRIMES: list[int] = _small_sieve(4096)
# gcd(m, _SMALL_ODD_PRODUCT) is the product of the odd primes up to 4093 that
# divide m, each once (about 5,810 bits)
_SMALL_ODD_PRODUCT = math.prod(_SMALL_PRIMES[1:])
# a number with no prime factor up to 4093 is 1 or prime up to this square
_TRIAL_SQUARE = _SMALL_PRIMES[-1] ** 2


def check_prime_limit(limit: int) -> None:
    """Raise CapExceeded, before any work, when limit reaches
    PRIME_LIMIT_CAP = 2^32."""
    if limit >= PRIME_LIMIT_CAP:
        raise CapExceeded(f"prime limit {limit} exceeds cap {PRIME_LIMIT_CAP - 1}")


def iter_prime_blocks(limit: int, block: int = _SIEVE_BLOCK):
    """Yield int64 arrays of primes <= limit, segmented for cache friendliness.
    A limit from PRIME_LIMIT_CAP = 2^32 up raises CapExceeded before the base
    sieve, on the first request for a block."""
    import numpy as np

    check_prime_limit(limit)
    if limit < 2:
        return
    base = _small_sieve(math.isqrt(limit))
    lo = 2
    while lo <= limit:
        hi = min(lo + block - 1, limit)
        mask = np.ones(hi - lo + 1, dtype=bool)
        for p in base:
            if p * p > hi:
                break
            start = max(p * p, ((lo + p - 1) // p) * p)
            mask[start - lo :: p] = False
        seg = np.nonzero(mask)[0] + lo
        # base primes below sqrt(limit) are composite-marked from p*p only,
        # so they survive their own segment correctly
        yield seg.astype(np.int64)
        lo = hi + 1


def primes_up_to(limit: int) -> np.ndarray:
    import numpy as np

    if limit < 2:
        return np.zeros(0, dtype=np.int64)
    return np.concatenate(list(iter_prime_blocks(limit)))


def _pollard_brent(n: int) -> int:
    """Nontrivial factor of an odd composite n (Brent's cycle variant)."""
    for c in range(1, 100):
        y, m = 2, 128
        g = r = q = 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            r <<= 1
        if g == n:
            g = 1
            y = ys
            while g == 1:
                y = (y * y + c) % n
                g = math.gcd(abs(x - y), n)
        if g != n:
            return g
    raise ArithmeticError(f"rho failed to split {n}")  # pragma: no cover


# odd parts below this are factored from `_spf`: _spf[m] is the least prime
# factor of an odd composite m and 0 for an odd prime (even entries are never
# read). Every such factor is at most isqrt(2^17) = 362, so "H" holds it and
# the table takes 256 KB; it is sieved on first use, in about 2 ms.
SPF_ENTRIES = 1 << 17

_spf: Sequence[int] = ()


def _sieve_spf() -> Sequence[int]:
    spf = array("H", [0]) * SPF_ENTRIES
    # largest prime first, so each composite ends with its least one
    for p in reversed([p for p in _SMALL_PRIMES[1:] if p * p < SPF_ENTRIES]):
        spf[p * p :: 2 * p] = array("H", [p]) * len(range(p * p, SPF_ENTRIES, 2 * p))
    return spf


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of 1 <= n <= 2^64 - 1 as sorted (p, e) pairs;
    n = 1 has none."""
    global _spf
    if not 1 <= n <= U64_MAX:
        raise ValueError("factorize expects 1 <= n <= 2^64 - 1")
    twos = (n & -n).bit_length() - 1
    m = n >> twos
    out = [(2, twos)] if twos else []
    if not _spf:
        _spf = _sieve_spf()
    # g is m while m fits the table, and before that the product of the odd
    # primes up to 4093 that divide m, each once; its least prime is read from
    # the table once g fits in it, and found by a scan of _SMALL_PRIMES before
    # that
    g = m if m < SPF_ENTRIES else math.gcd(m, _SMALL_ODD_PRODUCT)
    i = 1
    while g > 1:
        if g < SPF_ENTRIES:
            p = _spf[g] or g
        else:
            while g % _SMALL_PRIMES[i]:
                i += 1
            p = _SMALL_PRIMES[i]
        m //= p
        e = 1
        while m % p == 0:
            m //= p
            e += 1
        out.append((p, e))
        # once what is left of m fits the table, the table reads all of it
        g = m if m < SPF_ENTRIES else g // p
    if m > 1:
        # m is 2^17 or more and no prime up to 4093 divides it, so any part of
        # it up to 4093^2 is prime
        counts: dict[int, int] = {}
        stack = [m]
        while stack:
            m = stack.pop()
            if m <= _TRIAL_SQUARE or is_prime(m):
                counts[m] = counts.get(m, 0) + 1
            else:
                d = _pollard_brent(m)
                stack += (d, m // d)
        out += sorted(counts.items())
    return tuple(out)


def padic_valuation(p: int, n: int) -> int:
    """Exponent of the prime p in n; n must be nonzero."""
    if n == 0:
        raise ValueError("valuation of 0 is undefined")
    if p < 2 or not is_prime(p):
        raise ValueError("p must be prime")
    n = abs(n)
    a = 0
    while n % p == 0:
        n //= p
        a += 1
    return a


def _pow_mod_u32(base: int, exps: np.ndarray, mods: np.ndarray) -> np.ndarray:
    """base^exps mod mods elementwise, for exps >= 0 and 2 <= mods < 2^32.

    Left-to-right square-and-multiply in uint64: every residue stays below
    2^32, so every product stays below 2^64 and the result is exact.
    """
    import numpy as np

    mods = mods.astype(np.uint64)
    exps = exps.astype(np.uint64)
    b = np.uint64(base) % mods
    r = np.ones_like(mods)
    top = int(exps.max()).bit_length() if exps.size else 0
    one = np.uint64(1)
    for bit in range(top - 1, -1, -1):
        r = r * r % mods
        r = r * np.where((exps >> np.uint64(bit)) & one, b, one) % mods
    return r


def mult_order(a: int, m: int, factors: Iterable[tuple[int, int]] | None = None) -> int:
    """Least t >= 1 with a^t = 1 mod m, by reducing lambda(m), the unit group's
    exponent. `factors`, if given, is m's prime factorization and saves
    factoring m; its primes are trusted, only its product is checked."""
    if m < 2:
        raise ValueError("m must be >= 2")
    a %= m
    if math.gcd(a, m) != 1:
        raise ValueError(f"gcd({a}, {m}) != 1, order undefined")
    if factors is None:
        factors = factorize(m)
    else:
        factors = tuple(factors)
        if math.prod(p**e for p, e in factors) != m:
            raise ValueError(f"factors {factors} do not multiply to {m}")
    t = 1
    for p, e in factors:
        t = math.lcm(t, 2 ** (e - 2) if p == 2 and e >= 3 else (p - 1) * p ** (e - 1))
    for q, _ in factorize(t):
        while t % q == 0 and pow(a, t // q, m) == 1:
            t //= q
    return t


def lte_valuation(p: int, r: int, n: int) -> int:
    """v_p(r^n - 1) by the lifting-the-exponent closed formula.

    Needs r = 1 mod p and r not in {-1, 1}. For p = 2 with n even the
    valuation is v2(n) + v2(r^2 - 1) - 1, otherwise v_p(n) + v_p(r - 1).
    """
    if not is_prime(p):
        raise ValueError("p must be prime")
    if n < 1:
        raise ValueError("n must be positive")
    if r in (-1, 1):
        raise ValueError("r = +-1 makes r^n - 1 degenerate")
    if (r - 1) % p != 0:
        raise ValueError(f"r must be 1 mod {p}")
    if p == 2 and n % 2 == 0:
        return padic_valuation(2, n) + padic_valuation(2, r * r - 1) - 1
    return padic_valuation(p, n) + padic_valuation(p, r - 1)


def smallest_primitive_root(p: int) -> int:
    """Smallest primitive root mod an odd prime p."""
    if p < 3 or not is_prime(p):
        raise ValueError("p must be an odd prime")
    qs = [q for q, _ in factorize(p - 1)]
    g = 2
    while True:
        if all(pow(g, (p - 1) // q, p) != 1 for q in qs):
            return g
        g += 1


def artin_constant(prime_limit: int) -> float:
    """Partial product of prod_p (1 - 1/(p(p-1))) over primes p <= prime_limit.

    The log terms go into one exactly rounded `math.fsum`, so the value does
    not depend on the segment size; monotone nonincreasing in prime_limit.
    Below SMALL_SIEVE_LIMIT = 2^17 the terms are `math.log1p`'s over one
    `_small_sieve` list, with no numpy; from there on `np.log1p`'s over the
    walk's segments. The two log1p differ in the last bit at a few primes, so
    the product can differ from the other path's in its last bit. A
    prime_limit from PRIME_LIMIT_CAP = 2^32 up raises the prime walk's
    CapExceeded before any work.
    """
    if prime_limit < 2:
        raise ValueError("prime_limit must be >= 2")
    if prime_limit < SMALL_SIEVE_LIMIT:
        check_prime_limit(prime_limit)
        return math.exp(math.fsum(math.log1p(-1 / (p * (p - 1))) for p in _small_sieve(prime_limit)))
    import numpy as np

    logs = (np.log1p(-1.0 / (p * (p - 1.0))).tolist() for p in iter_prime_blocks(prime_limit))
    return math.exp(math.fsum(itertools.chain.from_iterable(logs)))
