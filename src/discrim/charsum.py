"""Additive character sums over Z_{p-1} x Z_{p-1} for the set A.

A = {(x, y) : 3g^x - g^y = 30 mod p} for a primitive root g mod p. The set
has exactly p-2 elements, its maximal nontrivial character sum |A^| sits in
[sqrt(p-2), sqrt(p)], where it equals sqrt(p) exactly (it is the modulus of
a Jacobi sum), and the standard orthogonality identity counts pairs
(b, b') with b + b' in A. These are desk-scale numeric verifications, not a
production path, so the sizes are guarded.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

from .numtheory import is_prime, mult_order, smallest_primitive_root

MAX_DIRECT_PRIME = 500     # O(p^3) enumeration guard
# the (p-1) x (p-1) grid guard of the DFT path; `build_A` checks it before its
# O(p) tables, which would take about 8 GB at p near 10^9
MAX_DFT_ORDER = 4096

# float margins of the report's checks
CHARSUM_LOWER_SLACK = 1e-6    # sqrt(|A|) lower bound, numeric slack
CHARSUM_UPPER_MARGIN = 1e-9   # |A^| <= sqrt(p) holds with equality; fp margin
IDENTITY_RELATIVE = 1e-6      # pair-count residual, relative to |G|


class CharSumReport(NamedTuple):
    p: int
    g: int
    setA_size: int
    max_nontrivial_sum: float
    sqrt_p: float
    identity_residual: float


def build_A(p: int, g: int | None = None) -> set[tuple[int, int]]:
    """The pair set {(x, y) in Z_{p-1}^2 : 3g^x - g^y = 30 mod p}, in O(p),
    for g or, when none is given, the smallest primitive root mod p.

    For each x there is exactly one residue 3g^x - 30, which is a power of g
    unless it is 0; indexing a discrete-log table turns it into the unique y.
    A group order p - 1 past MAX_DFT_ORDER is refused before the tables.
    """
    if p <= 5 or not is_prime(p):
        raise ValueError("p must be a prime > 5 (30 degenerates mod 2, 3, 5)")
    if g is None:
        g = smallest_primitive_root(p)
    elif math.gcd(g, p) != 1 or mult_order(g, p) != p - 1:
        raise ValueError(f"{g} is not a primitive root mod {p}")
    n = p - 1
    _check_dft_order(n)
    dlog = [0] * p
    cur = 1
    for x in range(n):
        dlog[cur] = x
        cur = cur * g % p
    out = set()
    cur = 1
    for x in range(n):
        rhs = (3 * cur - 30) % p
        if rhs:
            out.add((x, dlog[rhs]))
        cur = cur * g % p
    return out


def _check_dft_order(n: int) -> None:
    if n > MAX_DFT_ORDER:
        raise ValueError(f"group order {n} exceeds DFT guard {MAX_DFT_ORDER}")


def _check_pairs(pairs, n: int) -> set[tuple[int, int]]:
    """The pairs as a set; ValueError unless it is nonempty and inside Z_n x Z_n."""
    pairs = set(pairs)
    if not pairs:
        raise ValueError("character sums over an empty set are degenerate")
    for x, y in pairs:
        if not (0 <= x < n and 0 <= y < n):
            raise ValueError(f"pair {(x, y)} outside Z_{n} x Z_{n}")
    return pairs


def _indicator_grid(pairs, n: int) -> np.ndarray:
    import numpy as np

    grid = np.zeros((n, n), dtype=np.float64)
    for x, y in pairs:
        grid[x, y] += 1.0
    return grid


def max_nontrivial_char_sum(pairs, group_order: int) -> float:
    """max over (s,t) != (0,0) of |sum over (x,y) in A of e^(2pi*i(sx+ty)/n)|,
    every character evaluated at once by the DFT of the indicator grid."""
    import numpy as np

    n = group_order
    pairs = _check_pairs(pairs, n)
    if n < 2:
        raise ValueError("a group of order 1 has no nontrivial characters")
    _check_dft_order(n)
    spectrum = np.abs(np.fft.rfft2(_indicator_grid(pairs, n)))
    spectrum[0, 0] = -1.0   # trivial character excluded
    # real input: the missing half-plane mirrors the magnitudes present
    return float(spectrum.max())


def max_nontrivial_char_sum_direct(pairs, group_order: int) -> float:
    """The same maximum by multiplying out roots of unity, in O(n^2 |A|): an
    independent cross-check of `max_nontrivial_char_sum` for small orders."""
    import numpy as np

    n = group_order
    pairs = _check_pairs(pairs, n)
    if n < 2:
        raise ValueError("a group of order 1 has no nontrivial characters")
    if n + 1 > MAX_DIRECT_PRIME:
        raise ValueError(f"direct enumeration guarded at p <= {MAX_DIRECT_PRIME}")
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    xs, ys = np.array(sorted(pairs), dtype=np.int64).T
    ss = np.arange(n).reshape(-1, 1)
    ex = roots[(ss * xs) % n]   # (n, |A|) with entries e(s*x/n)
    ey = roots[(ss * ys) % n]
    sums = ex @ ey.T            # entry (s, t) = sum_k e((s*x_k + t*y_k)/n)
    mags = np.abs(sums)
    mags[0, 0] = -1.0
    return float(mags.max())


def pair_count_identity_check(pairs_a, pairs_b, group_order: int):
    """(direct_count, charsum_count, residual) for N = #{(b,b') : b+b' in A}.

    One indicator grid of A serves both sides. The direct count gathers the
    sums b + B, one b at a time, from its entries; the character side
    transforms it and evaluates
    N = (1/|G|) * sum over all characters of B^(psi)^2 * A^(psi conjugate),
    main term included. The residual is the absolute difference and must sit
    within numeric tolerance of zero.
    """
    import numpy as np

    n = group_order
    _check_dft_order(n)
    a = _check_pairs(pairs_a, n)
    b = _check_pairs(pairs_b, n)
    grid = _indicator_grid(a, n)
    in_a = grid.ravel() != 0   # (x, y) at x*n + y
    bx = np.array([x for x, _ in b], dtype=np.int64)
    by = np.array([y for _, y in b], dtype=np.int64)
    direct = 0
    for x1, y1 in zip(bx.tolist(), by.tolist()):
        direct += int(np.count_nonzero(in_a[(bx + x1) % n * n + (by + y1) % n]))
    del in_a
    fa = np.fft.fft2(grid)
    fb = fa if b == a else np.fft.fft2(_indicator_grid(b, n))   # one transform when B = A
    charsum = np.sum(np.conj(fb) ** 2 * fa) / (n * n)
    residual = abs(direct - charsum)
    return direct, float(charsum.real), float(residual)


def bplusb_bound_check(p: int, pairs_b) -> bool:
    """Check |B| <= |A^|*|G|/(|A| + |A^|) for a B with (B+B) disjoint from A,
    A built from the smallest primitive root mod p.

    Disjointness over ordered pairs is verified first and a violation is a
    rejection, not a False. A False return from the size bound itself flags a
    bug, the inequality being a theorem.
    """
    a = build_A(p)   # first: it refuses an order past the DFT guard
    n = p - 1
    b = _check_pairs(pairs_b, n)
    blist = list(b)
    for x1, y1 in blist:
        for x2, y2 in blist:
            s = ((x1 + x2) % n, (y1 + y2) % n)
            if s in a:
                raise ValueError(
                    f"B+B meets A: ({x1},{y1}) + ({x2},{y2}) = {s} lies in A"
                )
    ahat = max_nontrivial_char_sum(a, n)
    bound = ahat * (n * n) / (len(a) + ahat)
    return len(b) <= bound


def char_sum_report(p: int, g: int | None = None) -> CharSumReport:
    """Bundle the standard verifications for one prime into a report."""
    a = build_A(p, g)
    n = p - 1
    ahat = max_nontrivial_char_sum(a, n)
    _, _, residual = pair_count_identity_check(a, a, n)
    return CharSumReport(
        p=p,
        g=smallest_primitive_root(p) if g is None else g,
        setA_size=len(a),
        max_nontrivial_sum=ahat,
        sqrt_p=math.sqrt(p),
        identity_residual=residual,
    )


def charsum_bounds_hold(p: int, ahat: float) -> bool:
    """sqrt(p-2) <= |A^| <= sqrt(p), with the float margins above; the
    maximum is a Jacobi-sum modulus, so the upper bound holds with equality."""
    return math.sqrt(p - 2) - CHARSUM_LOWER_SLACK <= ahat <= math.sqrt(p) + CHARSUM_UPPER_MARGIN


def identity_residual_holds(residual: float, group_order: int) -> bool:
    """The pair-count identity's residual is float noise, relative to |G|."""
    return residual <= IDENTITY_RELATIVE * group_order**2
