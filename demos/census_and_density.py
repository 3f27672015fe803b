"""Prime classes, their Artin-style densities, and the exponent set F.

Odd primes p (other than 3 and 5) split by residue mod 4 and by the
multiplicative order of 3:

    P1:  p = 1 (mod 4) and ord_p(3) = p - 1
    P2:  p = 3 (mod 4) and ord_p(3) = (p - 1) / 2
    P3:  p = 3 (mod 4) and ord_p(3) = p - 1

With A the Artin constant, the predicted densities are 3A/5, 3A/5, 2A/5.
Separately, F collects the exponents b for which the interval
[4*5^(b-1), 5^b] contains no power of 2; its density is 3 - log2(5).
Runs in a few seconds.
"""

from discrim.census import (
    BETA,
    census_scan,
    classify_prime,
    fset_count,
    fset_scan_checked,
)
from discrim.numtheory import artin_constant


def classify_small_primes() -> None:
    print("classification of primes up to 100:")
    buckets = {"P1": [], "P2": [], "P3": [], "none": []}
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        rec = classify_prime(p)
        buckets[rec.pclass or "none"].append(p)
    for name, members in buckets.items():
        print(f"  {name:<5} {members}")
    print()


def density_census() -> None:
    report = census_scan(100_000)
    print(f"census at x = {report.x}: pi(x) = {report.pi_x} primes")
    print("class  count   empirical    predicted    deviation")
    for cls in ("P1", "P2", "P3"):
        print(
            f"{cls:<7}{report.counts[cls]:<8}"
            f"{report.empirical[cls]:<13.6f}{report.predicted[cls]:<13.6f}"
            f"{report.deviation[cls]:+.4f}"
        )
    print()


def artin_partials() -> None:
    print("Artin constant partial products over primes <= L:")
    for limit in (10, 100, 1_000, 10_000, 100_000):
        print(f"  L = {limit:<7} -> {artin_constant(limit):.10f}")
    print("  reference     0.3739558136...")
    print()


def fset_tour() -> None:
    print("F membership for b = 1..20 (interval test, Weyl cross-check):")
    marks = []
    for rec in fset_scan_checked(20):   # raises if Weyl or the count identity disagrees
        marks.append("y" if rec.member else ".")
        if not rec.member and rec.b <= 6:
            print(f"  b = {rec.b}: excluded, 2^k = {rec.witness} lies in the interval")
    print("  pattern:", " ".join(marks))
    count, ratio, beta = fset_count(10_000)
    print(f"  count up to 10^4: {count} (ratio {ratio:.4f}, target beta = {beta:.4f})")
    assert abs(beta - BETA) < 1e-15


if __name__ == "__main__":
    classify_small_primes()
    density_census()
    artin_partials()
    fset_tour()
