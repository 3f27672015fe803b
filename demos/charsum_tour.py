"""Additive character sums over the exponent set A in Z_{p-1} x Z_{p-1}.

For a prime p > 5 with primitive root g, the set A collects the exponent
pairs (x, y) with 3 g^x - g^y = 30 (mod p); it always has p - 2 elements.
The largest nontrivial Fourier coefficient |A^| of its indicator turns out
to equal sqrt(p) exactly — each nontrivial coefficient is a Jacobi sum —
and that maximum feeds a sumset bound: any B with (B + B) disjoint from A
satisfies |B| <= |A^| |G| / (|A| + |A^|).  Runs in a few seconds.
"""

import math
import random

from discrim.charsum import (
    bplusb_bound_check,
    build_A,
    char_sum_report,
    max_nontrivial_char_sum,
    max_nontrivial_char_sum_direct,
    pair_count_identity_check,
)
from discrim.periods import prime_lemma_bound


def the_set_for_p7() -> None:
    pairs = build_A(7)
    print("A for p = 7 (g = 3):", sorted(pairs))
    print("  check: 3*3^x - 3^y = 30 (mod 7) at each pair:",
          all((3 * pow(3, x, 7) - pow(3, y, 7)) % 7 == 30 % 7 for x, y in pairs))
    print()


def saturation_survey() -> None:
    print("p      |A|    max |A^|        sqrt(p)         |A^| - sqrt(p)")
    for p in (7, 11, 13, 23, 47, 97, 151, 251):
        rep = char_sum_report(p)
        gap = rep.max_nontrivial_sum - rep.sqrt_p
        print(
            f"{p:<7}{rep.setA_size:<7}{rep.max_nontrivial_sum:<16.10f}"
            f"{rep.sqrt_p:<16.10f}{gap:+.3e}"
        )
    print("  the maximum sits on sqrt(p) to machine precision at every prime")
    print()


def dft_vs_direct() -> None:
    pairs = build_A(23)
    dft = max_nontrivial_char_sum(pairs, 22)
    direct = max_nontrivial_char_sum_direct(pairs, 22)
    print(f"p = 23: DFT sweep {dft:.12f}  vs  direct evaluation {direct:.12f}")
    print()


def counting_identity() -> None:
    rng = random.Random(7)
    n = 12
    a = {(rng.randrange(n), rng.randrange(n)) for _ in range(20)}
    b = {(rng.randrange(n), rng.randrange(n)) for _ in range(8)}
    direct, via_chars, residual = pair_count_identity_check(a, b, n)
    print(f"#{{(b, b') in B x B : b + b' in A}} on a random instance in Z_{n}^2:")
    print(f"  direct count {direct}, character side {via_chars:.9f}, "
          f"residual {residual:.2e}")
    print()


def sumset_bound() -> None:
    p = 23
    pairs_a = build_A(p)
    n = p - 1
    # grow B greedily subject to (B + B) staying disjoint from A
    b: set[tuple[int, int]] = set()
    for x in range(n):
        for y in range(n):
            trial = b | {(x, y)}
            sums = {((u + s) % n, (v + t) % n) for u, v in trial for s, t in trial}
            if not sums & pairs_a:
                b = trial
    bound = math.sqrt(p) * n * n / (len(pairs_a) + math.sqrt(p))
    print(f"p = {p}: greedy B with (B+B) disjoint from A has {len(b)} elements;")
    print(f"  bound |A^| |G| / (|A| + |A^|) = {bound:.2f}")
    print(f"  bplusb_bound_check confirms: {bplusb_bound_check(p, b)}")
    print(f"  prime floor for comparison: prime_lemma_bound({n}) = "
          f"{prime_lemma_bound(n):.2f}")


if __name__ == "__main__":
    the_set_for_p7()
    saturation_survey()
    dft_vs_direct()
    counting_identity()
    sumset_bound()
