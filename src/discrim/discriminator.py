"""The discriminator: brute-force engine, closed form, screens, certificates.

The discriminator D_v(n) of a sequence v is the smallest modulus m such that
v_1, ..., v_n are pairwise incongruent mod m. For the flagship sequence the
closed form is D(n) = min(2^e, 5^f) with e the least exponent where 2^e >= n
and f the least where 5^f >= 5n/4; the brute-force engine exists to verify
that claim independently. The non-value screens (a factor 3, a period of at
most d/2, an incongruence index of at most d/2) certify which integers never
occur as D(n), and `recheck_certificate` checks each certificate against the
sequence's definition alone, with none of the screens' code. In the same way
`collision_certificate` proposes the collision pairs behind D(n) = v on a
range of n, and `recheck_collision_certificate` alone decides the claim.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from collections.abc import Sized
from typing import NamedTuple

from .census import fset_member_interval
from .numtheory import is_prime
from .periods import incongruence_index, prime_lemma_bound, salajan_period_formula
from .sequences import (
    MARK_BOUND,
    POLYNOMIAL,
    SALAJAN,
    SCAN_TERM_CAP,
    CapExceeded,
    MethodsDisagree,
    SequenceNotAdmissible,
    SequenceSpec,
    check_term_budget,
    distinct_prefix_length,
    exact_terms,
    salajan,
    salajan_term_mod,
    scan_term_limit,
    term_exact,
)

METHOD_CLOSED = "closed_form"
METHOD_BRUTE = "brute_force"
METHOD_BOTH = "verified_both"

VERDICT_NON_VALUE = "non_value"
VERDICT_UNDECIDED = "undecided"

REASON_DIV3 = "divisible_by_3"
REASON_PERIOD = "period_screen"
REASON_IOTA = "iota_screen"

# any prime this large that discriminated n >= (p+1)/2 terms would have to
# exceed floor(n/4)^(4/3), which is impossible once n >= 2060
BIG_PRIME_REPORT_FLOOR = 2060


class DiscriminatorRecord(NamedTuple):
    n: int
    value: int
    method: str


class NonValueCertificate(NamedTuple):
    d: int
    verdict: str
    reason: str | None
    witness: dict


def verify_discriminates(spec: SequenceSpec, n: int, m: int) -> bool:
    """True iff v_1..v_n are pairwise distinct mod m (single-modulus check)."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be positive")
    if m < n:
        return False   # pigeonhole: n values cannot fit m classes
    return distinct_prefix_length(spec, m, n) == n


def _check_admissible(spec: SequenceSpec, n: int) -> None:
    """Raise SequenceNotAdmissible if two of v_1..v_n are equal. The exact
    terms are walked once by `exact_terms`, whose CapExceeded past its caps
    comes only after every earlier term, so a repeat among those is reported
    first. Each term is kept as a 16-byte digest, so memory does not grow
    with term size; a repeated digest counts once the exact terms agree, so
    only a 128-bit collision could hide a repeat."""
    from _blake2 import blake2b   # hashlib's own blake2b, without loading OpenSSL
    seen: dict[bytes, int] = {}
    for j, t in enumerate(exact_terms(spec, n), start=1):
        raw = t.to_bytes(t.bit_length() // 8 + 1, "little", signed=True)
        i = seen.setdefault(blake2b(raw, digest_size=16).digest(), j)
        if i != j and term_exact(spec, i) == t:
            raise SequenceNotAdmissible(
                f"terms {i} and {j} are both {t}; no modulus can separate them"
            )


# The brute-force sweep's one store: per sequence spec, an array of unsigned
# 4-byte ints indexed by n that holds D(n) where a sweep proved it, 0 where
# not yet. D is nondecreasing and m = D(n) separates the first iota(m) terms,
# so D(n') = m for every n <= n' <= iota(m), and the sweep records that whole
# run once it proves D(n) = m. Every run so ends at its iota, so the largest
# D proven below an unproven n failed n, and a walk for n starts above it.
# Only `_least_moduli` reads or fills it, so every brute-force D(n) shares
# it, while the oracles that check those answers (`incongruence_index`,
# `period_brute`, `verify_discriminates`, `recheck_certificate`) scan afresh
# and never see it, and the closed form never enters it. The sweep tries no
# modulus above SCAN_TERM_CAP = 2^22, the longest first-collision scan, and
# iota(m) <= m, so a spec's array holds at most 2^22 + 1 entries (16 MB).
# The flagship's sweep rules out most moduli by checked period pairs and
# scans the rest, so the modulus that proves a run is always scanned.
_PROVEN_RUNS: dict[SequenceSpec, array] = {}


def _period_pair(m: int) -> tuple[int, int]:
    """The collision pair (i, j) = (pre-period, pre-period + period) that
    the period formula proposes for m >= 2: u_i = u_j mod m if the formula
    is right. Both the sweep and `collision_certificate` take their pair
    from here, and neither believes it unchecked."""
    info = salajan_period_formula(m)
    return info.pre_period, info.pre_period + info.period


def _period_pair_collides(m: int, n: int) -> bool:
    """True iff u_i = u_j mod m for the pair (i, j) that `_period_pair`
    proposes for m >= 2, and j <= n, so that m fails n. The check reads the
    two terms from the definition mod 4m (`salajan_term_mod`), so a wrong
    proposal is only rejected, never believed."""
    if m < 2:
        return False
    i, j = _period_pair(m)
    return j <= n and salajan_term_mod(i, m) == salajan_term_mod(j, m)


def _least_moduli(spec: SequenceSpec, lo: int, hi: int, search_cap: int | None) -> list[int]:
    """[D(lo), ..., D(hi)] by brute force over moduli up to
    min(search_cap, SCAN_TERM_CAP) (search_cap None: 4*hi). An n that the
    store covers is read from it, and one past the cap raises the walk's own
    CapExceeded; otherwise m walks up, one scan to the first collision each
    (limit m, since iota(m) <= m), until iota(m) >= n. For the flagship, an
    m >= 2 whose period pair collides among the first n terms
    (`_period_pair_collides`) fails n with no scan; every other m, and so
    every D(n), is scanned. The walk raises CapExceeded once the scanned
    lengths of one call, a polynomial's times its coefficient count, pass
    SWEEP_TERM_BUDGET. Every query on a generic spec, warm or cold, first
    walks its first hi exact terms for a repeat, before the store is read.
    The default cap ignores the closed form, whose D(n) < 2n for the
    flagship: the sweep stops at the first modulus that separates the terms,
    so a cap above 2n changes no correct answer.
    """
    flagship = spec.kind == SALAJAN
    if not flagship:
        _check_admissible(spec, hi)
    cap = min(4 * hi if search_cap is None else search_cap, SCAN_TERM_CAP)
    weight = len(spec.coeffs) if spec.kind == POLYNOMIAL else 1
    runs = _PROVEN_RUNS.get(spec)
    if runs is None:
        runs = _PROVEN_RUNS[spec] = array("I")

    values, spent = [], 0
    m = lo - 1 if lo < len(runs) and runs[lo] else max(max(runs[:lo], default=0), lo - 1)
    for n in range(lo, hi + 1):
        if n < len(runs) and runs[n]:
            m = runs[n]
            if m > cap:
                raise CapExceeded(f"no modulus <= {cap} separates the first {n} terms")
        else:
            k = 0
            while k < n:
                m += 1
                if m > cap:
                    raise CapExceeded(f"no modulus <= {cap} separates the first {n} terms")
                if flagship and _period_pair_collides(m, n):
                    continue   # m fails n unscanned, and k stays below n
                k = distinct_prefix_length(spec, m, m)
                spent += k * weight
                check_term_budget(spent, "sweep", "n", n)
            if k >= len(runs):
                runs.frombytes(bytes(runs.itemsize * (k + 1 - len(runs))))
            runs[n:k + 1] = array("I", (m,)) * (k + 1 - n)
        values.append(m)
    return values


def discriminator_brute(
    spec: SequenceSpec, n: int, search_cap: int | None = None
) -> DiscriminatorRecord:
    """Least m with v_1..v_n pairwise distinct mod m, by the increasing-m
    sweep that every brute-force D(n) shares, from m = n (pigeonhole) or
    above the largest D proven below n; a D(n) that an earlier sweep proved
    is read from its store, with no candidate tried. The flagship's sweep
    rules out a modulus by a checked period pair where one fits below n,
    and scans the rest, D(n) among them. The default cap is 4n
    for every sequence; raise it for sequences whose discriminator grows
    faster. No cap reaches past SCAN_TERM_CAP = 2^22: a D(n) above it would
    take more than 2^21 scans, so the sweep raises CapExceeded instead."""
    if n < 1:
        raise ValueError("n must be positive")
    if search_cap is not None and search_cap < n:
        raise ValueError("search_cap must be at least n")
    return DiscriminatorRecord(n, _least_moduli(spec, n, n, search_cap)[0], METHOD_BRUTE)


def discriminator_table(spec: SequenceSpec, n_max: int) -> list[int]:
    """D(1), ..., D(n_max) by brute force, from the same sweep as
    `discriminator_brute`, with its default cap for n_max."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    return _least_moduli(spec, 1, n_max, None)


def _closed_powers(n: int) -> tuple[int, int]:
    """(2^e, 5^f) with e least such that 2^e >= n and f least such that
    4*5^f >= 5n; bit lengths and repeated multiplication instead of
    logarithms because boundaries like n = 4*5^k + 1 sit exactly where
    floating point rounds the wrong way."""
    pow2 = 1 << (n - 1).bit_length()
    pow5 = 1
    while 4 * pow5 < 5 * n:
        pow5 *= 5
    return pow2, pow5


def salajan_discriminator_closed(n: int) -> DiscriminatorRecord:
    """Closed-form D(n) = min(2^e, 5^f), by integer comparison only."""
    if n < 1:
        raise ValueError("n must be positive")
    return DiscriminatorRecord(n, min(_closed_powers(n)), METHOD_CLOSED)


def salajan_discriminator_checked(n: int, search_cap: int | None = None) -> DiscriminatorRecord:
    """Closed form cross-checked against the brute-force engine."""
    closed = salajan_discriminator_closed(n)
    brute = discriminator_brute(salajan(), n, search_cap)
    if closed.value != brute.value:
        raise MethodsDisagree(
            f"methods disagree at n={n}: closed={closed.value} brute={brute.value}"
        )
    return DiscriminatorRecord(n, closed.value, METHOD_BOTH)


def table_ranges(n_max: int) -> list[tuple[int, int, int]]:
    """Closed-form values over 1..n_max compressed into (start, end, value) rows.

    2^e and 5^f stay fixed from n up to the next breakpoint
    min(2^e, 4*5^(f-1)), and past it the power whose breakpoint it is steps
    up once, so the walk goes from breakpoint to breakpoint with both powers
    carried along: O(log n_max) steps, not one per n.
    """
    if n_max < 1:
        raise ValueError("n_max must be positive")
    rows: list[list[int]] = []
    pow2, pow5 = _closed_powers(1)
    n = 1
    while n <= n_max:
        end = min(pow2, pow5 // 5 * 4, n_max)
        v = min(pow2, pow5)
        if rows and rows[-1][2] == v:
            rows[-1][1] = end
        else:
            rows.append([n, end, v])
        n = end + 1
        if end == pow2:
            pow2 <<= 1
        if end == pow5 // 5 * 4:
            pow5 *= 5
    return [tuple(r) for r in rows]


def image_of_discriminator(limit: int) -> list[int]:
    """All discriminator values <= limit: powers of 2, plus 5^b for b in the F-set."""
    if limit < 1:
        raise ValueError("limit must be positive")
    values = set()
    v = 1
    while v <= limit:
        values.add(v)
        v <<= 1
    b, pw = 1, 5
    while pw <= limit:
        if fset_member_interval(b).member:
            values.add(pw)
        b += 1
        pw *= 5
    return sorted(values)


def _attach_big_prime_report(d: int, witness: dict) -> None:
    # reporting aid: a prime value d would need some n >= (d+1)/2, yet any
    # prime discriminating that many terms must exceed floor(n/4)^(4/3)
    if d > BIG_PRIME_REPORT_FLOOR and is_prime(d):
        min_n = (d + 1) // 2
        witness["prime_min_n"] = min_n
        witness["prime_floor_bound"] = prime_lemma_bound(min_n)


def nonvalue_screen(d: int) -> NonValueCertificate:
    """Certify d as a non-value of the flagship discriminator, or stay undecided.

    Screens run in order: multiples of 3 are never values; a period rho(d) at
    most d/2 forces a collision among any d/2+1 consecutive indices; finally
    the incongruence index itself is computed and compared with d/2. A
    non_value verdict is sound; undecided makes no claim either way.
    """
    if d < 2:
        raise ValueError("screen expects d >= 2")
    if d % 3 == 0:
        return NonValueCertificate(d, VERDICT_NON_VALUE, REASON_DIV3, {"d_mod_3": 0})

    # from here on 3 does not divide d, so the sequence is purely periodic mod d
    rho = salajan_period_formula(d).period
    if 2 * rho <= d:
        return NonValueCertificate(d, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": rho})

    iota = incongruence_index(salajan(), d)
    witness = {"iota": iota}
    _attach_big_prime_report(d, witness)
    if 2 * iota <= d:
        return NonValueCertificate(d, VERDICT_NON_VALUE, REASON_IOTA, witness)
    return NonValueCertificate(d, VERDICT_UNDECIDED, None, witness)


def _first_collision(d: int, limit: int) -> tuple[int, int]:
    """Indices i < j of the first u_j that equals an earlier term u_i mod d,
    over u_1..u_limit; (0, limit + 1) when those terms hold no repeat. There
    are d residues, so j <= d + 1. The walk steps the odd- and even-indexed
    terms as two streams, u_{j+2} = 9u_j - 10 for odd j and 9u_j + 10 for
    even j. Only `collision_certificate` walks it; `recheck_certificate` has
    its own walk."""
    first: dict[int, int] = {}
    x, y = 2 % d, 1 % d
    for j in range(1, limit, 2):   # x = u_j, y = u_{j+1}
        if (i := first.setdefault(x, j)) != j:
            return i, j
        if (i := first.setdefault(y, j + 1)) != j + 1:
            return i, j + 1
        x = (9 * x - 10) % d
        y = (9 * y + 10) % d
    if limit % 2 and (i := first.setdefault(x, limit)) != limit:   # x = u_limit
        return i, limit
    return 0, limit + 1


def _repeats_first_at(d: int, j: int) -> bool:
    """True iff u_1..u_{j-1} are pairwise distinct mod d and u_j equals one
    of them, by the recurrence u_n = 2u_{n-1} + 3u_{n-2} from u_1 = 2,
    u_2 = 1, two terms a turn. Residues seen are marked in a bytearray(d)
    for d <= MARK_BOUND, else kept in a dict, so memory stays O(j) at a huge
    d; either way the walk reads u_1..u_j and no further."""
    seen = bytearray(d) if d <= MARK_BOUND else defaultdict(int)
    x, y = 2 % d, 1 % d
    for k in range(1, j, 2):   # x = u_k, y = u_{k+1}
        if seen[x]:
            return False
        seen[x] = 1
        if seen[y]:
            return k + 1 == j
        seen[y] = 1
        x = (2 * y + 3 * x) % d
        y = (2 * x + 3 * y) % d
    return j % 2 == 1 and seen[x] == 1   # an odd j leaves u_j in x


def recheck_certificate(cert: NonValueCertificate) -> bool:
    """Check a certificate's claim from its witness fields and the
    sequence's definition alone, sharing no code with the screen that made
    it: a period rho by one power 3^rho mod 4d, an index iota by its own
    walk of the recurrence over u_1..u_{iota+1} (`_repeats_first_at`),
    which must end on their first repeat. A malformed certificate (d < 2,
    a witness that is not a dict, a witness field missing or not an int)
    fails. The witness fields `prime_min_n` and `prime_floor_bound` are
    report-only: `discrim screen` prints them, and this check never reads
    them."""
    d, w = cert.d, cert.witness
    if cert.verdict == VERDICT_UNDECIDED:
        return True   # no claim to falsify
    if cert.verdict != VERDICT_NON_VALUE or type(d) is not int or d < 2 or type(w) is not dict:
        return False
    if cert.reason == REASON_DIV3:
        return d % 3 == 0
    if cert.reason == REASON_PERIOD:
        # two consecutive terms fix all later ones, so matching u_1, u_2 makes
        # rho a period from index 1 (any period <= d/2 forces a repeat). With
        # 4u_j = 3^j - 5(-1)^j exact and t = 3^rho mod 4d, u_{1+rho} = u_1 and
        # u_{2+rho} = u_2 mod d read 3t + 5(-1)^rho = 8 and 9t - 5(-1)^rho = 4
        # mod 4d, since 4u_1 = 8 and 4u_2 = 4
        rho = w.get("rho")
        if not (type(rho) is int and d % 3 != 0 and 1 <= rho and 2 * rho <= d):
            return False
        four_d, sign = 4 * d, -5 if rho % 2 else 5
        t = pow(3, rho, four_d)
        return (3 * t + sign - 8) % four_d == 0 and (9 * t - sign - 4) % four_d == 0
    if cert.reason == REASON_IOTA:
        iota = w.get("iota")
        # the walk stops at iota + 1 terms, so a forged index costs no more;
        # a scan that reaches scan_term_limit(d) terms raises instead, so no
        # screen reports an iota at or past it, and none is walked
        return (
            type(iota) is int
            and 2 * iota <= d
            and iota < scan_term_limit(d)
            and _repeats_first_at(d, iota + 1)
        )
    return False


def collision_certificate(start: int, value: int) -> tuple[array, array]:
    """Propose the pairs of a collision certificate for the moduli m in
    [start, value): arrays `first` and `second` with u_i = u_j mod m for
    (i, j) = (first[m - start], second[m - start]) and i < j <= start. The
    pair is `_period_pair(m)`, the proposal the sweep checks, when it fits
    below start, else the first collision of a walk over u_1..u_start, or
    (0, start + 1) if there is none. A modulus below 2 raises ValueError.
    It claims nothing: `recheck_collision_certificate` decides. For the
    reference rows, tools/theorem1_pairs.py commits its pairs as the data
    that the theorem1 suite rechecks."""
    first, second = array("I"), array("I")
    for m in range(start, value):
        i, j = _period_pair(m)
        if j > start:
            i, j = _first_collision(m, start)
        first.append(i)
        second.append(j)
    return first, second


def recheck_collision_certificate(row: tuple[int, int, int], first: array, second: array) -> bool:
    """True iff the pairs prove D(n) = v for every n in the row (a, b, v),
    from powers of 3 and `verify_discriminates` alone, sharing no code with
    the search that made them. v separates the first b terms, so D(n) <= v;
    a modulus below n fails by pigeonhole, and each m in [a, v) has its pair
    i < j <= a <= n with u_i = u_j mod m, so D(n) >= v. The moduli are
    listed here from the row, never read from the pairs. A row that is not
    three ints, a pair array with no length and a pair entry that is not an
    int each fail, and so does a row whose b exceeds scan_term_limit(v),
    true or not, since the final scan cannot read b terms mod v."""
    if not (isinstance(row, (tuple, list)) and len(row) == 3 and all(type(x) is int for x in row)):
        return False
    a, b, v = row
    if not 1 <= a <= b <= v or b > scan_term_limit(v):
        return False
    if not isinstance(first, Sized) or not isinstance(second, Sized):
        return False
    moduli = range(a, v)
    if not len(first) == len(second) == len(moduli):
        return False
    for m, i, j in zip(moduli, first, second):
        # u_i = u_j mod m iff 4u_i = 4u_j mod 4m, and 4u_i - 4u_j =
        # 3^i - 3^j + 10 for odd i and even j, -10 for even i and odd j, and
        # 3^i - 3^j when i and j have the same parity
        if type(i) is not int or type(j) is not int or not 1 <= i < j <= a:
            return False
        four_m = 4 * m
        if (pow(3, i, four_m) - pow(3, j, four_m) + 10 * ((i & 1) - (j & 1))) % four_m:
            return False
    return verify_discriminates(salajan(), b, v)
