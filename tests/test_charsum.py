"""Character sums over the residue pair set A = {(x,y) : 3g^x - g^y = 30}."""

import cmath
import math
import random
import tracemalloc

import pytest
import sympy

from discrim.charsum import (
    CharSumReport,
    bplusb_bound_check,
    build_A,
    char_sum_report,
    max_nontrivial_char_sum,
    max_nontrivial_char_sum_direct,
    pair_count_identity_check,
)


def build_A_oracle(p, g):
    """O(p^2) double loop straight from the defining congruence."""
    n = p - 1
    powers = [pow(g, k, p) for k in range(n)]
    return {
        (x, y)
        for x in range(n)
        for y in range(n)
        if (3 * powers[x] - powers[y]) % p == 30 % p
    }


def char_sum_oracle(pairs, n, s, t):
    """One character sum by direct complex exponentials."""
    return abs(sum(cmath.exp(2j * cmath.pi * (s * x + t * y) / n) for x, y in pairs))


# ------------------------------------------------------------------ the set A


@pytest.mark.parametrize("p", [7, 11, 13, 23, 47, 97])
def test_build_A_matches_double_loop(p):
    g = int(sympy.primitive_root(p))
    assert build_A(p, g) == build_A_oracle(p, g)
    assert len(build_A(p, g)) == p - 2


def test_build_A_default_root_is_smallest():
    assert build_A(7) == build_A(7, 3)       # 3 is the least primitive root mod 7
    a = build_A(7, 3)
    assert a == {(0, 0), (2, 4), (3, 2), (4, 1), (5, 3)}


def test_build_A_other_roots_still_size_p_minus_2():
    for g in (3, 5):                          # both primitive mod 7
        assert len(build_A(7, g)) == 5


def test_build_A_validation():
    with pytest.raises(ValueError):
        build_A(5)                            # 30 = 0 mod 5 degenerates
    with pytest.raises(ValueError):
        build_A(9)
    with pytest.raises(ValueError):
        build_A(7, 2)                         # ord(2 mod 7) = 3, not primitive


# ------------------------------------------------------------------ the maximum


@pytest.mark.parametrize("p", [7, 11, 13, 19, 23, 31, 43, 47])
def test_dft_and_direct_paths_agree(p):
    a = build_A(p)
    n = p - 1
    dft = max_nontrivial_char_sum(a, n)
    direct = max_nontrivial_char_sum_direct(a, n)
    assert dft == pytest.approx(direct, abs=1e-9)


def test_max_is_exactly_sqrt_p():
    # every nontrivial (s, t) with s, t, s+t all nonzero yields a Jacobi sum
    # of modulus sqrt(p); the maximum therefore saturates sqrt(p) exactly
    for p in (7, 11, 13, 23, 47, 101):
        ahat = max_nontrivial_char_sum(build_A(p), p - 1)
        assert ahat == pytest.approx(math.sqrt(p), abs=1e-9), p
        assert ahat >= math.sqrt(p - 2) - 1e-6


def test_single_character_oracle_at_p7():
    # by hand: S(1,1) over A mod 7 equals 5/2 - i*sqrt(3)/2, modulus sqrt(7)
    a = build_A(7, 3)
    assert char_sum_oracle(a, 6, 1, 1) == pytest.approx(math.sqrt(7), abs=1e-12)
    assert max_nontrivial_char_sum(a, 6) == pytest.approx(math.sqrt(7), abs=1e-12)


def test_max_nontrivial_validation():
    with pytest.raises(ValueError):
        max_nontrivial_char_sum({(0, 7)}, 6)          # outside the group
    for method in (max_nontrivial_char_sum, max_nontrivial_char_sum_direct):   # both check the same way
        with pytest.raises(ValueError):
            method(set(), 6)
        with pytest.raises(ValueError):
            method({(0, 0)}, 1)
        for pairs in ({(0, 1), (7, 2)}, {(-1, 3)}):
            with pytest.raises(ValueError, match="outside Z_6 x Z_6"):
                method(pairs, 6)
    with pytest.raises(ValueError):
        max_nontrivial_char_sum({(0, 0)}, 5000)       # beyond the DFT guard
    with pytest.raises(ValueError):
        max_nontrivial_char_sum_direct({(0, 0)}, 600)
    with pytest.raises(TypeError):
        max_nontrivial_char_sum({(0, 0)}, 6, method="direct")   # one method each


def test_max_on_known_small_sets():
    # singleton: every character sums to a unit, trivial or not
    assert max_nontrivial_char_sum({(1, 1)}, 4) == pytest.approx(1.0)
    # full group: nontrivial sums vanish
    full = {(x, y) for x in range(4) for y in range(4)}
    assert max_nontrivial_char_sum(full, 4) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------------------ the identity


def test_pair_count_identity_exact_small():
    a = build_A(7)
    n = 6
    b = {(0, 0), (1, 2)}
    direct, charsum, residual = pair_count_identity_check(a, b, n)
    expected = sum(
        1
        for x1, y1 in b
        for x2, y2 in b
        if ((x1 + x2) % n, (y1 + y2) % n) in a
    )
    assert direct == expected
    assert charsum == pytest.approx(direct, abs=1e-9)
    assert residual < 1e-9


def test_pair_count_identity_randomized():
    rng = random.Random(11)
    for p in (7, 11, 23):
        a = build_A(p)
        n = p - 1
        for _ in range(8):
            b = {
                (rng.randrange(n), rng.randrange(n))
                for _ in range(rng.randint(1, 12))
            }
            direct, charsum, residual = pair_count_identity_check(a, b, n)
            assert residual < 1e-6 * n * n
            assert round(charsum) == direct


def test_pair_count_identity_transforms_a_once_when_b_is_a(monkeypatch):
    import numpy as np

    p, n = 23, 22
    a = build_A(p)
    other = set(sorted(a)[:5]) | {(0, 1)}

    def grid(pairs):
        g = np.zeros((n, n))
        for x, y in pairs:
            g[x, y] = 1.0
        return g

    def reference(pairs_b):
        """(charsum, residual) with each grid transformed on its own."""
        direct = sum(((x1 + x2) % n, (y1 + y2) % n) in a for x1, y1 in pairs_b for x2, y2 in pairs_b)
        fa, fb = np.fft.fft2(grid(a)), np.fft.fft2(grid(pairs_b))
        charsum = np.sum(np.conj(fb) ** 2 * fa) / (n * n)
        return float(charsum.real), float(abs(direct - charsum))

    want = {id(b): reference(b) for b in (a, other)}
    calls = []
    fft2 = np.fft.fft2
    monkeypatch.setattr(np.fft, "fft2", lambda g: calls.append(g.shape) or fft2(g))
    for b, transforms in ((a, 1), (other, 2)):
        calls.clear()
        _, charsum, residual = pair_count_identity_check(a, b, n)
        assert len(calls) == transforms
        assert (charsum, residual) == want[id(b)]   # bitwise
    calls.clear()
    assert char_sum_report(p).identity_residual == want[id(a)][1]
    assert len(calls) == 1


def test_pair_count_identity_validation(monkeypatch):
    import numpy as np

    with pytest.raises(ValueError):
        pair_count_identity_check(set(), {(0, 0)}, 6)
    with pytest.raises(ValueError):
        pair_count_identity_check({(0, 0)}, set(), 6)
    for order in (0, -3):
        with pytest.raises(ValueError):
            pair_count_identity_check({(0, 0)}, {(0, 0)}, order)
    # pairs outside Z_6 x Z_6, in either set, are refused before the direct count
    counted = []
    count_nonzero = np.count_nonzero
    monkeypatch.setattr(np, "count_nonzero", lambda *a: counted.append(1) or count_nonzero(*a))
    good = {(0, 0), (1, 2)}
    for bad in ((6, 0), (0, -1)):
        for a, b in ((good | {bad}, good), (good, good | {bad})):
            with pytest.raises(ValueError, match="outside Z_6 x Z_6"):
                pair_count_identity_check(a, b, 6)
    assert counted == []


# ------------------------------------------------------------------ the B+B size bound


def test_bplusb_bound_on_disjoint_sets():
    a = build_A(7, 3)
    n = 6
    # grow a B greedily with (B+B) disjoint from A, then check the size bound
    b = set()
    for x in range(n):
        for y in range(n):
            trial = b | {(x, y)}
            sums = {
                ((x1 + x2) % n, (y1 + y2) % n)
                for x1, y1 in trial
                for x2, y2 in trial
            }
            if not (sums & a):
                b = trial
    assert b
    assert bplusb_bound_check(7, b) is True


def test_bplusb_rejects_intersecting_sums():
    # (0,3) + (0,3) = (0,0) lies in A mod 7
    with pytest.raises(ValueError):
        bplusb_bound_check(7, {(0, 3)})
    with pytest.raises(ValueError):
        bplusb_bound_check(7, set())
    for b in ({(-1, 3)}, {(1, 6)}):
        with pytest.raises(ValueError, match="outside Z_6 x Z_6"):
            bplusb_bound_check(7, b)


def test_bplusb_checks_the_dft_guard_before_building_a():
    # build_A refuses the order before its tables, and the check builds A
    # before it reads B, so the guard error comes first even for a bad B
    for b in ({(0, 0)}, set(), {(-1, 3)}):
        with pytest.raises(ValueError, match="^group order 4098 exceeds DFT guard 4096$"):
            bplusb_bound_check(4099, b)


def test_build_A_refuses_past_the_dft_guard_before_its_tables():
    # at p = 1000003 the discrete-log list alone would take 8 MB
    assert len(build_A(4093)) == 4091   # order 4092, inside the guard
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="^group order 1000002 exceeds DFT guard 4096$"):
            build_A(1_000_003)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# ------------------------------------------------------------------ the report


def test_char_sum_report_bundles_everything():
    report = char_sum_report(7)
    assert isinstance(report, CharSumReport)
    assert report.p == 7 and report.g == 3
    assert report.setA_size == 5
    assert report.sqrt_p == pytest.approx(math.sqrt(7))
    assert report.max_nontrivial_sum == pytest.approx(math.sqrt(7), abs=1e-9)
    assert report.identity_residual < 1e-9


def test_char_sum_report_proves_its_root_once(monkeypatch):
    # the report resolves g once and builds A from it: the smallest root is
    # found without mult_order, and a given g is checked by one call
    from discrim import charsum

    calls = []
    order = charsum.mult_order

    def counting(a, m):
        calls.append((a, m))
        return order(a, m)

    monkeypatch.setattr(charsum, "mult_order", counting)
    assert char_sum_report(61) == char_sum_report(61, 2)
    assert calls == [(2, 61)]
    calls.clear()
    assert build_A(61, 2) == build_A(61)
    assert calls == [(2, 61)]   # build_A still checks a caller's g
