"""Certifying that a modulus is never a discriminator value.

The discriminator only ever takes values 2^e and 5^f (and 1).  For any
other d, a short chain of screens produces a machine-checkable certificate.
A value d = D(n) keeps n > d/2 terms apart, so iota(d) > d/2; each screen
shows that 2 iota(d) <= d instead:

    divisible_by_3   3 | d            (two residues collide immediately)
    period_screen    2 rho(d) <= d    (a full period pins iota(d) <= rho(d))
    iota_screen      2 iota(d) <= d   (direct prefix scan)

Every certificate carries a witness that recheck_certificate checks
against the recurrence alone, sharing no code with the screens: a period
witness by u_{1+rho} = u_1 and u_{2+rho} = u_2 mod d, an index witness by
walking the terms to their first repeat.  Powers of 2 and 5 survive all
screens, as they must: every survivor of the period screen is a power of 2
or an odd prime power p^e with 2 ord_9(p^e) = phi(p^e), so no screen on
factors or orders is needed.  Runs in a few seconds.
"""

from collections import Counter

from discrim.discriminator import (
    VERDICT_NON_VALUE,
    nonvalue_screen,
    recheck_certificate,
    table_ranges,
)


def three_specimens() -> None:
    print("specimen certificates:")
    for d in (15, 13, 7, 2063):
        cert = nonvalue_screen(d)
        print(f"  d = {d}: {cert.verdict} ({cert.reason})")
        print(f"      witness: {cert.witness}")
        print(f"      recheck: {recheck_certificate(cert)}")
    print()


def histogram_to_4096() -> None:
    reasons = Counter()
    undecided = []
    for d in range(2, 4097):
        cert = nonvalue_screen(d)
        if cert.verdict == VERDICT_NON_VALUE:
            reasons[cert.reason] += 1
        else:
            undecided.append(d)
    print("screen outcomes for 2 <= d <= 4096:")
    for reason, count in reasons.most_common():
        print(f"  {reason:<16}{count}")
    print(f"  undecided       {len(undecided)}: {undecided}")
    values = sorted({v for _, _, v in table_ranges(32768) if 2 <= v <= 4096})
    print(f"  attained values <= 4096 (all undecided, as they must be): {values}")
    assert set(values) <= set(undecided)
    print("  (625 stays undecided too: powers of 5 survive the screens even"
          " when the table skips them)")


if __name__ == "__main__":
    three_specimens()
    histogram_to_4096()
