"""Sequence providers: the flagship 3^j-based sequence and generic specs.

The flagship sequence is u_j = (3^j - 5(-1)^j)/4, equivalently the recurrence
u_n = 2u_{n-1} + 3u_{n-2} with u_1 = 2, u_2 = 1. Generic second-order linear
recurrences and polynomial sequences feed the same discriminator engine.
"""

from __future__ import annotations

from typing import NamedTuple

SALAJAN = "salajan"
LINEAR_RECURRENCE = "linear_recurrence"
POLYNOMIAL = "polynomial"

DEFAULT_EXACT_CAP = 200_000

# bits of the flagship's term at DEFAULT_EXACT_CAP, the longest exact term
# that any walk of `exact_terms` yields; a faster-growing sequence is refused
# there, so a walk costs at most what the flagship's walk to the cap costs
EXACT_TERM_BITS = 316_991

# a first-collision scan mod m looks at most scan_term_limit(m) terms ahead
# and raises CapExceeded past them: SCAN_TERM_CAP + 1 below 2^64, so every
# answer up to SCAN_TERM_CAP stays exact. A walk keeps at most
# (SCAN_TERM_CAP + 1) * 64 bits of residues, since a residue's int grows with
# its modulus (36 B below 2^64, 468 B at 1,001 digits). A set scan (above
# MARK_BOUND, about 68 B a term) peaks near 333 MB at m = 2^64 and at 57 MB
# mod 10^1000 + 7, where 2^22 + 1 terms took 2.07 GB
SCAN_TERM_CAP = 1 << 22


def scan_term_limit(m: int) -> int:
    """The most terms a walk mod m reads: SCAN_TERM_CAP + 1 for m < 2^64,
    fewer in proportion to the bits of a larger m."""
    return (SCAN_TERM_CAP + 1) * 64 // max(m.bit_length(), 64)


# the most terms the scans of one sweep may read, counted as each scan ends
# (a proven D(n) reads none); each term of a k-coefficient polynomial counts
# k times, one per Horner step, since a scan term of poly:1,2,...,301 costs
# about 60 times one of poly:0,0,1. `verify --nmax 65536` reads 189,328,104
# (about 27 s and 17 MB peak RSS on a 2-core host), and a bare
# `discriminate --n 2000000` stops after about 32 s and 17 MB, where it would
# run for about 18 minutes. `iota --range` and `screen --range` count their
# scans against it too. A worst case checked before any work, about 1.5*n^2
# terms a sweep, would refuse `--nmax 65536` outright
SWEEP_TERM_BUDGET = 1 << 28


def check_term_budget(spent: int, who: str, name: str, n: int) -> None:
    """Raise CapExceeded at `name` = n once the scans of `who` have read more
    than SWEEP_TERM_BUDGET terms; the budget is read at each call."""
    if spent > SWEEP_TERM_BUDGET:
        raise CapExceeded(f"{who} scans read more than {SWEEP_TERM_BUDGET} terms by {name} = {n}")


# a scan mod m <= MARK_BOUND marks residues in a bytearray(m), one byte each.
# CPython zero-fills every byte of it up front (bytearray(2**26) took 37 ms
# where bytes(2**26) took 31 us), so a short scan at a huge m would pay for
# all m bytes; above the bound the residues seen are kept in a set instead
MARK_BOUND = 1 << 24


class CapExceeded(RuntimeError):
    """A step or search budget ran out before the computation could finish."""


class MethodsDisagree(AssertionError):
    """Two methods that must give the same answer did not."""


class SequenceNotAdmissible(ValueError):
    """The sequence repeats a term, so no modulus can separate its prefix."""


class _SpecFields(NamedTuple):
    kind: str
    coeffs: tuple[int, ...] = ()   # linear_recurrence: (c1, c2); polynomial: (a0, a1, ...)
    initial: tuple[int, ...] = ()


class SequenceSpec(_SpecFields):
    """A validated sequence description; a NamedTuple body may not define
    `__new__`, so the fields live on a base class."""

    __slots__ = ()

    def __new__(cls, kind: str, coeffs: tuple[int, ...] = (), initial: tuple[int, ...] = ()):
        if kind == SALAJAN:
            if coeffs or initial:
                raise ValueError("salajan spec takes no parameters")
        elif kind == LINEAR_RECURRENCE:
            if len(coeffs) != 2 or len(initial) != 2:
                raise ValueError("linear recurrence needs coefficients (c1, c2) and initial (v1, v2)")
        elif kind == POLYNOMIAL:
            if not coeffs or initial:
                raise ValueError("polynomial needs a nonempty coefficient list and no initial terms")
        else:
            raise ValueError(f"unknown sequence kind {kind!r}")
        return super().__new__(cls, kind, coeffs, initial)

    def as_recurrence(self) -> tuple[int, int, int, int]:
        """(c1, c2, v1, v2) for recurrence kinds; rejects polynomials."""
        if self.kind == SALAJAN:
            return 2, 3, 2, 1
        if self.kind == LINEAR_RECURRENCE:
            return self.coeffs[0], self.coeffs[1], self.initial[0], self.initial[1]
        raise ValueError("polynomial sequences have no recurrence form")


_SALAJAN_SPEC = SequenceSpec(SALAJAN)


def salajan() -> SequenceSpec:
    return _SALAJAN_SPEC


def linear_recurrence(c1: int, c2: int, v1: int, v2: int) -> SequenceSpec:
    return SequenceSpec(LINEAR_RECURRENCE, (c1, c2), (v1, v2))


def polynomial(*coeffs: int) -> SequenceSpec:
    return SequenceSpec(POLYNOMIAL, tuple(coeffs))


def parse_spec(text: str) -> SequenceSpec:
    """Parse the CLI text form: salajan | linrec:c1,c2,v1,v2 | poly:a0,a1,..."""
    text = text.strip()
    if text == "salajan":
        return salajan()
    head, sep, body = text.partition(":")
    if not sep:
        raise ValueError(f"malformed sequence spec {text!r}")
    try:
        nums = [int(part) for part in body.split(",")] if body else []
    except ValueError:
        raise ValueError(f"non-integer parameter in sequence spec {text!r}") from None
    if head == "linrec":
        if len(nums) != 4:
            raise ValueError("linrec spec needs exactly c1,c2,v1,v2")
        return linear_recurrence(*nums)
    if head == "poly":
        if not nums:
            raise ValueError("poly spec needs at least one coefficient")
        return polynomial(*nums)
    raise ValueError(f"unknown sequence kind {head!r}")


def salajan_term_mod(j: int, m: int) -> int:
    """u_j mod m in O(log j) time.

    Works modulo 4m so that the numerator 3^j - 5(-1)^j, which is exactly
    divisible by 4, can be divided without needing 4 to be invertible mod m.
    """
    if j < 1:
        raise ValueError("index must be positive")
    if m < 1:
        raise ValueError("modulus must be positive")
    four_m = 4 * m
    sign = -1 if j % 2 else 1
    t = (pow(3, j, four_m) - 5 * sign) % four_m
    return (t >> 2) % m


def _poly_eval(coeffs: tuple[int, ...], j: int) -> int:
    acc = 0
    for a in reversed(coeffs):
        acc = acc * j + a
    return acc


def term_exact(spec: SequenceSpec, j: int) -> int:
    """Exact j-th term of any spec (test-oracle path, arbitrary precision);
    the flagship's is u_j = (3^j - 5(-1)^j)/4. Recurrences refuse
    j > DEFAULT_EXACT_CAP to bound memory."""
    if j < 1:
        raise ValueError("index must be positive")
    if spec.kind == POLYNOMIAL:
        return _poly_eval(spec.coeffs, j)
    if j > DEFAULT_EXACT_CAP:
        raise CapExceeded(f"exact term index {j} exceeds cap {DEFAULT_EXACT_CAP}")
    if spec.kind == SALAJAN:
        return (3**j - 5 * (-1) ** j) // 4
    for t in exact_terms(spec, j):
        pass
    return t


def exact_terms(spec: SequenceSpec, n: int):
    """Yield v_1, ..., v_n exactly: a recurrence is walked once, and the
    terms of any other spec come one by one from `term_exact`. Term
    DEFAULT_EXACT_CAP + 1, or a term of more than EXACT_TERM_BITS bits,
    raises CapExceeded when it is asked for, so every term before it is
    yielded first."""
    if spec.kind == LINEAR_RECURRENCE:
        c1, c2, x, y = spec.as_recurrence()
    for j in range(1, n + 1):
        if j > DEFAULT_EXACT_CAP:
            raise CapExceeded(f"exact term index {j} exceeds cap {DEFAULT_EXACT_CAP}")
        if spec.kind == LINEAR_RECURRENCE:
            t, x, y = x, y, c1 * y + c2 * x
        else:
            t = term_exact(spec, j)
        if t.bit_length() > EXACT_TERM_BITS:
            raise CapExceeded(f"exact term {j} has more than {EXACT_TERM_BITS} bits")
        yield t


def _poly_residues(coeffs: tuple[int, ...], m: int, steps: int):
    """Yield p(1), ..., p(steps) mod m by Horner mod m, over the coefficients
    reduced once, so that no term is ever evaluated exactly."""
    top = [a % m for a in reversed(coeffs)]
    for j in range(1, steps + 1):
        acc = 0
        for a in top:
            acc = (acc * j + a) % m
        yield acc


def _mark_scan(spec: SequenceSpec, m: int, steps: int) -> int:
    """Index of the first repeat mod m among the first `steps` terms, or
    `steps`; seen residues are marked in a bytearray(m).

    The flagship walks its odd- and even-indexed terms as two first-order
    streams, two terms a step: 4u_{j+2} = 9 * 4u_j + 40(-1)^j by the
    definition, so u_{j+2} = 9u_j - 10 from u_1 = 2 and u_{j+2} = 9u_j + 10
    from u_2 = 1. Any other recurrence takes the generic second-order loop,
    which the tests hold the stride to."""
    seen = bytearray(m)
    if spec.kind == POLYNOMIAL:
        for k, r in enumerate(_poly_residues(spec.coeffs, m, steps)):
            if seen[r]:
                return k
            seen[r] = 1
    elif spec.kind == SALAJAN:
        odd, even = 2 % m, 1 % m
        for k in range(0, steps - 1, 2):
            if seen[odd]:
                return k
            seen[odd] = 1
            if seen[even]:
                return k + 1
            seen[even] = 1
            odd = (9 * odd - 10) % m
            even = (9 * even + 10) % m
        if steps % 2 and seen[odd]:
            return steps - 1
    else:
        c1, c2, x, y = spec.as_recurrence()
        x, y = x % m, y % m
        for k in range(steps):
            if seen[x]:
                return k
            seen[x] = 1
            x, y = y, (c1 * y + c2 * x) % m
    return steps


def _set_scan(spec: SequenceSpec, m: int, steps: int) -> int:
    """`_mark_scan` for any m: seen residues are kept in a set."""
    seen = set()
    add = seen.add
    if spec.kind == POLYNOMIAL:
        for k, r in enumerate(_poly_residues(spec.coeffs, m, steps)):
            if r in seen:
                return k
            add(r)
    else:
        c1, c2, x, y = spec.as_recurrence()
        x, y = x % m, y % m
        for k in range(steps):
            if x in seen:
                return k
            add(x)
            x, y = y, (c1 * y + c2 * x) % m
    return steps


def distinct_prefix_length(spec: SequenceSpec, m: int, limit: int) -> int:
    """min(iota(m), limit): how many leading terms stay pairwise distinct mod m.

    Streams residues, marking each one seen (in a bytearray(m) for
    m <= MARK_BOUND, else in a set), and stops at the first repeat or at
    `limit`, whichever comes first; the flagship's bytearray scan steps two
    terms at a time (see `_mark_scan`). This is the shared engine behind the
    single-modulus discriminator check and the incongruence index. A scan that
    sees no repeat in `scan_term_limit(m)` terms (SCAN_TERM_CAP + 1 below
    2^64), short of `limit`, raises CapExceeded.
    """
    if m < 1:
        raise ValueError("modulus must be positive")
    if limit < 1:
        raise ValueError("limit must be positive")
    steps = min(limit, scan_term_limit(m))
    k = _mark_scan(spec, m, steps) if m <= MARK_BOUND else _set_scan(spec, m, steps)
    if k == steps and steps < limit:
        raise CapExceeded(f"no repeated residue within {steps} terms mod {m}")
    return k
