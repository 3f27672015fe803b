"""Discriminator engines, the value table, and non-value certificates."""

import random
import time
import tracemalloc
import zlib
from array import array
from collections import defaultdict
from pathlib import Path
from unittest import mock

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from discrim import census, charsum, discriminator, numtheory, periods, sequences
from discrim.discriminator import (
    METHOD_BOTH,
    METHOD_BRUTE,
    METHOD_CLOSED,
    REASON_DIV3,
    REASON_IOTA,
    REASON_PERIOD,
    VERDICT_NON_VALUE,
    VERDICT_UNDECIDED,
    NonValueCertificate,
    collision_certificate,
    discriminator_brute,
    discriminator_table,
    image_of_discriminator,
    nonvalue_screen,
    recheck_certificate,
    recheck_collision_certificate,
    salajan_discriminator_checked,
    salajan_discriminator_closed,
    table_ranges,
    verify_discriminates,
)
from discrim.periods import (
    incongruence_index,
    iota_equals_rho_scan,
    period_brute,
    prime_lemma_bound,
    salajan_period_formula,
)
from discrim.sequences import (
    DEFAULT_EXACT_CAP,
    EXACT_TERM_BITS,
    CapExceeded,
    SequenceNotAdmissible,
    exact_terms,
    linear_recurrence,
    parse_spec,
    polynomial,
    salajan,
    salajan_term_mod,
    term_exact,
)
from discrim.verify import EXPECTED_TABLE

SEQ = salajan()
TOOLS = Path(__file__).resolve().parents[1] / "tools"


def naive_discriminator(spec, n):
    """Smallest m checked from 1 upward with an O(n^2) pairwise comparison."""
    from discrim.sequences import term_exact

    terms = [term_exact(spec, j) for j in range(1, n + 1)]
    m = 1
    while True:
        residues = [t % m for t in terms]
        if all(
            residues[i] != residues[j]
            for i in range(n)
            for j in range(i + 1, n)
        ):
            return m
        m += 1


# ------------------------------------------------------------------ closed form


@pytest.mark.parametrize(
    "n,value",
    [
        (1, 1), (2, 2), (3, 4), (4, 4), (5, 8), (16, 16), (17, 25), (20, 25),
        (21, 32), (64, 64), (65, 125), (100, 125), (101, 128), (2048, 2048),
        (2049, 3125), (2500, 3125), (2501, 4096), (12500, 15625), (32768, 32768),
    ],
)
def test_closed_form_anchors(n, value):
    rec = salajan_discriminator_closed(n)
    assert (rec.n, rec.value, rec.method) == (n, value, METHOD_CLOSED)


def test_closed_form_validation():
    with pytest.raises(ValueError):
        salajan_discriminator_closed(0)


def test_closed_form_is_min_of_power_families():
    for n in (1, 2, 3, 9, 17, 65, 99, 1024, 2049, 12501):
        value = salajan_discriminator_closed(n).value
        pow2 = 1
        while pow2 < n:
            pow2 *= 2
        pow5 = 1
        while 4 * pow5 < 5 * n:
            pow5 *= 5
        assert value == min(pow2, pow5)


# ------------------------------------------------------------------ brute force


def test_brute_matches_naive_oracle_small():
    for n in range(1, 41):
        rec = discriminator_brute(SEQ, n)
        assert rec.value == naive_discriminator(SEQ, n), n
        assert rec.method == METHOD_BRUTE


def test_brute_matches_closed_form_below_512():
    for n in range(1, 513):
        assert discriminator_brute(SEQ, n).value == salajan_discriminator_closed(n).value, n


def test_brute_generic_sequences():
    fib_like = linear_recurrence(1, 1, 1, 2)
    for n in range(1, 16):
        assert discriminator_brute(fib_like, n).value == naive_discriminator(fib_like, n)
    ident = polynomial(0, 1)        # v_j = j discriminates exactly at m = n
    for n in (1, 2, 5, 9):
        assert discriminator_brute(ident, n).value == n


def test_brute_rejects_repeating_sequences():
    with pytest.raises(SequenceNotAdmissible):
        discriminator_brute(polynomial(5), 3)            # constant
    with pytest.raises(SequenceNotAdmissible):
        discriminator_brute(polynomial(6, -5, 1), 4)     # j^2-5j+6 repeats (j=2,3 both 0)


small = st.integers(min_value=-3, max_value=3)
generic_specs = st.one_of(
    st.builds(linear_recurrence, small, small, small, small),
    st.lists(small, min_size=1, max_size=4).map(lambda cs: polynomial(*cs)),
)


@settings(max_examples=300, deadline=None)
@given(generic_specs, st.integers(min_value=1, max_value=30))
def test_admissible_exactly_when_no_two_terms_are_equal(spec, n):
    terms = [term_exact(spec, j) for j in range(1, n + 1)]
    pairs = [(i + 1, j + 1) for j in range(n) for i in range(j) if terms[i] == terms[j]]
    if not pairs:
        discriminator._check_admissible(spec, n)
        return
    # the report names the first term that repeats an earlier one
    j = min(j for _, j in pairs)
    i = min(i for i, jj in pairs if jj == j)
    with pytest.raises(SequenceNotAdmissible, match=rf"^terms {i} and {j} are both "):
        discriminator._check_admissible(spec, n)


@pytest.mark.parametrize(
    "text,n,repeat",
    [
        ("linrec:2,0,1,2", 40, None),          # c2 = 0: v_j = 2^(j-1)
        ("linrec:0,0,1,1", 3, (1, 2)),         # c1 = c2 = 0: 1, 1, 0, 0
        ("linrec:1,0,3,3", 5, (1, 2)),         # constant
        ("poly:7", 2, (1, 2)),                 # constant
        ("linrec:0,1,1,2", 3, (1, 3)),         # period 2
        ("linrec:1,-1,1,3", 7, (1, 7)),        # period 6: 1, 3, 2, -1, -3, -2, 1
        ("linrec:-1,0,1,2", 4, (2, 4)),        # 1, 2, -2, 2
        # every term a multiple of 2^61 - 1, so equal under Python's int hash
        ("linrec:2,3,4611686018427387902,2305843009213693951", 2000, None),
        ("poly:0,2305843009213693951", 2000, None),
    ],
)
def test_admissibility_of_degenerate_specs(text, n, repeat):
    spec = parse_spec(text)
    if repeat is None:
        discriminator._check_admissible(spec, n)
    else:
        with pytest.raises(SequenceNotAdmissible, match=rf"^terms {repeat[0]} and {repeat[1]} "):
            discriminator._check_admissible(spec, n)


def test_admissibility_walks_the_recurrence_once():
    spec = parse_spec("linrec:2,3,2,1")
    start = time.perf_counter()
    discriminator._check_admissible(spec, 4000)
    assert time.perf_counter() - start < 2.0      # 17 ms on 2 cores; restarting per term took 4.7 s


def test_admissibility_reports_a_repeat_before_the_exact_cap():
    n = DEFAULT_EXACT_CAP + 5
    with pytest.raises(SequenceNotAdmissible, match="^terms 1 and 2 are both 3;"):
        discriminator_brute(parse_spec("linrec:1,0,3,3"), n)
    # 1, 2, 3, ...: admissible, so the walk reaches the cap and names the
    # first index past it, as `term_exact` does
    message = f"^exact term index {DEFAULT_EXACT_CAP + 1} exceeds cap {DEFAULT_EXACT_CAP}$"
    with pytest.raises(CapExceeded, match=message):
        discriminator_brute(parse_spec("linrec:2,-1,1,2"), n)


def test_admissibility_takes_its_cap_from_the_exact_walk(monkeypatch):
    # the walk's own cap reaches the admissibility check; a repeat inside it
    # is still reported first, even at the last term before it
    monkeypatch.setattr(sequences, "DEFAULT_EXACT_CAP", 50)
    with pytest.raises(SequenceNotAdmissible, match="^terms 1 and 2 are both 3;"):
        discriminator._check_admissible(parse_spec("linrec:1,0,3,3"), 60)
    with pytest.raises(SequenceNotAdmissible, match="^terms 1 and 50 are both 0;"):
        discriminator._check_admissible(polynomial(0, 0, 50, -51, 1), 60)   # (j - 1)(j - 50)j^2
    discriminator._check_admissible(polynomial(0, 1), 50)
    for spec in (parse_spec("linrec:2,-1,1,2"), polynomial(0, 1)):
        with pytest.raises(CapExceeded, match="^exact term index 51 exceeds cap 50$"):
            discriminator._check_admissible(spec, 51)


def test_admissibility_reports_a_repeat_before_an_oversized_term():
    # (j - 1)(j - 2)·2^EXACT_TERM_BITS (+ j): term 3 is the first past the bound
    c = 1 << EXACT_TERM_BITS
    with pytest.raises(SequenceNotAdmissible, match="^terms 1 and 2 are both 0;"):
        discriminator._check_admissible(polynomial(2 * c, -3 * c, c), 3)
    with pytest.raises(CapExceeded, match=f"^exact term 3 has more than {EXACT_TERM_BITS} bits$"):
        discriminator._check_admissible(polynomial(2 * c, 1 - 3 * c, c), 3)


def test_brute_caps_and_validation():
    with pytest.raises(CapExceeded):
        discriminator_brute(SEQ, 17, search_cap=24)      # true value is 25
    with pytest.raises(ValueError):
        discriminator_brute(SEQ, 17, search_cap=10)      # cap below n
    with pytest.raises(ValueError):
        discriminator_brute(SEQ, 0)


def test_table_matches_brute_at_boundaries_and_a_sample():
    # the one-sweep table against the per-n scan: every reference row's start
    # and end up to 4096, then a seeded sample of n
    table = discriminator_table(SEQ, 4096)
    assert len(table) == 4096
    edges = {n for row in EXPECTED_TABLE for n in row[:2] if n <= 4096}
    sample = random.Random(20261018).sample(range(1, 4097), 40)
    for n in sorted(edges | set(sample)):
        # each brute call on an empty store, so it never reads the table's runs
        discriminator._PROVEN_RUNS.clear()
        assert table[n - 1] == discriminator_brute(SEQ, n).value, n


def _write_pairs(path, certificates):
    """Write (first, second) pair arrays, one per EXPECTED_TABLE row from the
    first, to path in the format of verify's committed file, by the encoder
    of tools/theorem1_pairs.py."""
    import importlib.util

    spec = importlib.util.spec_from_file_location("theorem1_pairs", TOOLS / "theorem1_pairs.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    path.write_bytes(tool.encode(certificates))
    return str(path)


def test_theorem1_goes_red_on_a_rejected_certificate(monkeypatch, tmp_path):
    # above n_max a row counts only when its committed certificate passes the
    # check; a row that fails it is named, and no sweep above n_max settles
    # it instead
    from discrim import verify

    sweep = discriminator._least_moduli
    swept = []
    certificates = []
    for (a, _, _), first, second in verify._committed_certificates():
        if a == 2049:
            second[0] = a + 1   # a pair past the row's start proves nothing
        certificates.append((first, second))

    def recording_sweep(spec, lo, hi, search_cap):
        swept.append(hi)
        return sweep(spec, lo, hi, search_cap)

    monkeypatch.setattr(discriminator, "_least_moduli", recording_sweep)
    assert verify.check_theorem1(64).passed
    assert swept == [64]
    monkeypatch.setattr(verify, "_PAIRS_FILE", _write_pairs(tmp_path / "forged.bin", certificates))
    result = verify.check_theorem1(64)
    assert swept == [64, 64]
    assert not result.passed
    assert result.detail.endswith(
        "; collision certificate rejected on 1 row(s) (start, end, value): [(2049, 2500, 3125)]; "
        "reproduce: discrim verify --suite theorem1 --nmax 64")


def test_table_generic_sequences_and_validation():
    fib_like = linear_recurrence(1, 1, 1, 2)
    assert discriminator_table(fib_like, 15) == [
        discriminator_brute(fib_like, n).value for n in range(1, 16)
    ]
    assert discriminator_table(polynomial(0, 1), 9) == list(range(1, 10))
    with pytest.raises(SequenceNotAdmissible):
        discriminator_table(polynomial(5), 3)
    with pytest.raises(ValueError):
        discriminator_table(SEQ, 0)


def _is_odd_prime(m):
    """Trial division: the oracles below share no prime test with the engine."""
    if m < 3 or m % 2 == 0:
        return False
    d = 3
    while d * d <= m:
        if m % d == 0:
            return False
        d += 2
    return True


def test_squares_table_matches_arnold_benkoski_mccabe():
    # Arnold, Benkoski and McCabe (Amer. Math. Monthly, 1985): for v_j = j^2,
    # D(n) is the least m >= 2n that is p or 2p for an odd prime p, except at
    # n = 1, 2 and 4
    def least_p_or_2p(n):
        m = 2 * n
        while not (_is_odd_prime(m) or m % 2 == 0 and _is_odd_prime(m // 2)):
            m += 1
        return m

    table = discriminator_table(polynomial(0, 0, 1), 2000)
    assert (table[0], table[1], table[3]) == (1, 2, 9)
    assert (least_p_or_2p(1), least_p_or_2p(2), least_p_or_2p(4)) == (3, 5, 10)
    for n in range(1, 2001):
        if n not in (1, 2, 4):
            assert table[n - 1] == least_p_or_2p(n), n


def _family(q):
    """v_j = (q^j - (q+2)(-1)^j)/4 for q = 3 mod 4; q = 3 gives the flagship's terms."""
    return linear_recurrence(q - 1, q, (q + 1) // 2, (q * q - q - 2) // 4)


def _family_closed(q, n):
    """min(2^e, p^f) for p = q + 2, e least with 2^e >= n and f least with
    (p-1)*p^(f-1) >= n."""
    p = q + 2
    pf = p
    while (p - 1) * (pf // p) < n:
        pf *= p
    return min(1 << (n - 1).bit_length(), pf)


@pytest.mark.parametrize("q", [11, 27])
def test_family_tables_match_min_of_powers(q):
    # the family of the paper's sequence (Browkin's discriminator conjecture)
    # where q + 2 is prime
    assert [term_exact(_family(3), j) for j in range(1, 9)] == [term_exact(SEQ, j) for j in range(1, 9)]
    table = discriminator_table(_family(q), 2000)
    assert table == [_family_closed(q, n) for n in range(1, 2001)]


def test_family_q107_leaves_min_of_powers_at_65():
    # a negative anchor: for q = 107 (p = 109) the formula first fails at
    # n = 65, so an oracle or sweep that agrees too readily is caught
    assert discriminator_table(_family(107), 64) == [_family_closed(107, n) for n in range(1, 65)]
    assert discriminator_brute(_family(107), 65).value == 128
    assert _family_closed(107, 65) == 109


def test_sweep_scans_each_modulus_once_up_to_the_last_value(monkeypatch):
    scanned = []
    scan = discriminator.distinct_prefix_length

    def counting(spec, m, limit):
        scanned.append(m)
        return scan(spec, m, limit)

    monkeypatch.setattr(discriminator, "distinct_prefix_length", counting)
    table = discriminator_table(SEQ, 512)
    assert table[-1] == salajan_discriminator_closed(512).value == 512
    assert scanned == list(range(1, 513))    # each modulus once, none above D(512)
    # the store now proves D(n) for every n <= 512, iota(512) = 512 ending
    # the last run
    scanned.clear()
    assert discriminator_brute(SEQ, 17).value == 25
    assert discriminator_table(SEQ, 512) == table
    assert scanned == []
    # on an empty store: from n up to D(n), nothing else
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})
    scanned.clear()
    assert discriminator_brute(SEQ, 17).value == 25
    assert scanned == list(range(17, 26))


def test_brute_answers_a_proven_run_without_a_scan(monkeypatch):
    # D(1036) = 2048 separates iota(2048) = 2048 terms, so D(n) = 2048 for
    # every n from 1036 to 2048, and each of those n is answered with no scan
    assert discriminator_brute(SEQ, 1036).value == 2048
    scanned = []
    scan = discriminator.distinct_prefix_length

    def counting(spec, m, limit):
        scanned.append(m)
        return scan(spec, m, limit)

    monkeypatch.setattr(discriminator, "distinct_prefix_length", counting)
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 0)   # a hit reads no terms
    for n in range(1036, 2049):
        assert discriminator_brute(SEQ, n).value == 2048, n
        assert salajan_discriminator_checked(n).value == 2048, n
    # a proven value past the call's cap raises the walk's own text, which
    # the walk on an empty store gives too
    message = "^no modulus <= 2047 separates the first 1500 terms$"
    with pytest.raises(CapExceeded, match=message):
        discriminator_brute(SEQ, 1500, search_cap=2047)
    assert scanned == []
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 1 << 28)
    with pytest.raises(CapExceeded, match=message):
        discriminator_brute(SEQ, 1500, search_cap=2047)
    assert scanned == list(range(1500, 2048))


def test_walk_starts_above_the_largest_value_proven_below_n(monkeypatch):
    # D(2064) = 3125 separates iota(3125) = 2500 terms, so 3125 fails every
    # n > 2500 and the walk for 2512 starts at 3126, as an ascending sweep does
    scanned = []
    scan = discriminator.distinct_prefix_length

    def counting(spec, m, limit):
        scanned.append(m)
        return scan(spec, m, limit)

    monkeypatch.setattr(discriminator, "distinct_prefix_length", counting)
    assert discriminator_brute(SEQ, 2064).value == 3125
    assert scanned == list(range(2064, 3126))
    scanned.clear()
    assert discriminator_brute(SEQ, 2512).value == 4096
    assert scanned == list(range(3126, 4097))


def test_warm_generic_query_walks_its_exact_terms_again(monkeypatch):
    # a warm query walks the first n exact terms as a cold one does, so it
    # refuses what a cold one refuses, and then reads D(n) from the store
    specs = [parse_spec("poly:0,0,1"), parse_spec("linrec:2,3,2,1")]
    values = [discriminator_brute(spec, 1000).value for spec in specs]
    walked, scanned = [], []
    walk, scan = discriminator.exact_terms, discriminator.distinct_prefix_length

    def counting_walk(spec, n):
        walked.append(spec)
        return walk(spec, n)

    def counting_scan(spec, m, limit):
        scanned.append(m)
        return scan(spec, m, limit)

    monkeypatch.setattr(discriminator, "exact_terms", counting_walk)
    monkeypatch.setattr(discriminator, "distinct_prefix_length", counting_scan)
    assert [discriminator_brute(spec, 1000).value for spec in specs] == values
    assert walked == specs and scanned == []
    walked.clear()
    repeat = parse_spec("linrec:1,0,3,3")
    with pytest.raises(SequenceNotAdmissible, match="^terms 1 and 2 are both 3;"):
        discriminator_brute(repeat, 5)
    assert walked == [repeat] and scanned == []


def test_warm_query_past_the_exact_caps_is_refused_as_a_cold_one():
    # K * u_j has the flagship's D(n) for K = 7^112000, so D(1100) = 2048
    # proves every n up to 2048, yet term 1622 passes EXACT_TERM_BITS: a
    # query inside the run past it still walks the terms, and is refused
    spec = linear_recurrence(2, 3, 2 * 7**112000, 7**112000)
    message = f"^exact term 1622 has more than {EXACT_TERM_BITS} bits$"
    with pytest.raises(CapExceeded, match=message):
        discriminator_brute(spec, 1700)
    assert discriminator_brute(spec, 1100).value == discriminator_brute(spec, 1621).value == 2048
    with pytest.raises(CapExceeded, match=message):
        discriminator_brute(spec, 1700)


def test_memo_keeps_no_modulus_above_its_limit(monkeypatch):
    # the sweep tries no modulus past the store's limit, whatever its cap
    monkeypatch.setattr(discriminator, "SCAN_TERM_CAP", 20)
    closed = [salajan_discriminator_closed(n).value for n in range(1, 17)]
    assert discriminator_table(SEQ, 16) == closed
    runs = discriminator._PROVEN_RUNS[SEQ]
    assert len(runs) <= 21 and list(runs[1:17]) == closed
    message = "no modulus <= 20 separates the first 17 terms"
    with pytest.raises(CapExceeded, match=message):
        discriminator_table(SEQ, 17)            # D(17) = 25
    with pytest.raises(CapExceeded, match=message):
        discriminator_brute(SEQ, 17, search_cap=30)
    assert len(runs) <= 21
    # a sweep that starts past the limit tries nothing
    with pytest.raises(CapExceeded, match="no modulus <= 20 separates the first 21 terms"):
        discriminator_brute(SEQ, 21)
    assert len(runs) <= 21


def test_sweep_refuses_past_its_term_budget(monkeypatch):
    # on an empty store the scans behind D(1..200) read iota(m) for every
    # m <= D(200) = 256, 7189 terms in all, the last of them while n = 129
    closed = [salajan_discriminator_closed(n).value for n in range(1, 201)]
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 7188)
    with pytest.raises(CapExceeded, match="^sweep scans read more than 7188 terms by n = 129$"):
        discriminator_table(SEQ, 200)
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 7189)
    assert discriminator_table(SEQ, 200) == closed
    # proven values read nothing
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 0)
    assert discriminator_table(SEQ, 200) == closed
    assert discriminator_brute(SEQ, 17).value == 25
    # each call counts only its own scans: 2050 terms up to D(100) = 125,
    # then 5139 more
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 5139)
    assert discriminator_table(SEQ, 100) == closed[:100]
    assert discriminator_table(SEQ, 200) == closed
    # a polynomial's terms count once per coefficient, one per Horner step:
    # the squares' scans behind D(1..30) read 599 terms, counted 3 * 599
    squares = polynomial(0, 0, 1)
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 3 * 599 - 1)
    with pytest.raises(CapExceeded, match="^sweep scans read more than 1796 terms by n = "):
        discriminator_table(squares, 30)
    monkeypatch.setattr(discriminator, "_PROVEN_RUNS", {})
    monkeypatch.setattr(sequences, "SWEEP_TERM_BUDGET", 3 * 599)
    assert discriminator_table(squares, 30) == [naive_discriminator(squares, n) for n in range(1, 31)]


def test_table_and_brute_run_out_of_cap_at_the_same_n():
    # D(56) = 236 > 4 * 56 for v_j = v_(j-1) + 2 v_(j-2), v = 1, 3, 5, 11, ...
    spec = parse_spec("linrec:1,2,1,3")
    assert discriminator_brute(spec, 56, search_cap=300).value == 236
    assert discriminator_table(spec, 55) == [
        discriminator_brute(spec, n).value for n in range(1, 56)
    ]
    message = "no modulus <= 224 separates the first 56 terms"
    with pytest.raises(CapExceeded, match=message):
        discriminator_table(spec, 56)
    with pytest.raises(CapExceeded, match=message):
        discriminator_brute(spec, 56)


def _brute_outcome(spec, kind, n, cap_slack):
    """What one brute-force call returns, or the type and text of what it raises."""
    try:
        if kind == "table":
            return discriminator_table(spec, n)
        cap = None if cap_slack is None else n + cap_slack
        return discriminator_brute(spec, n, cap).value
    except (CapExceeded, SequenceNotAdmissible) as exc:
        return type(exc).__name__, str(exc)


brute_calls = st.tuples(
    st.integers(min_value=0, max_value=1),
    st.sampled_from(("brute", "table")),
    st.integers(min_value=1, max_value=40),
    st.one_of(st.none(), st.integers(min_value=0, max_value=40)),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.just(SEQ), generic_specs), min_size=2, max_size=2),
       st.lists(brute_calls, min_size=1, max_size=6))
def test_shared_memo_gives_the_fresh_memo_results(specs, calls):
    # the calls in drawn order, then with n going up, then going down: every
    # call is repeated, two specs share the store, tables and single n are
    # mixed, and caps are often tight
    discriminator._PROVEN_RUNS.clear()
    by_n = sorted(calls, key=lambda call: call[2])
    for which, *call in calls + by_n + by_n[::-1]:
        shared = _brute_outcome(specs[which], *call)
        with mock.patch.object(discriminator, "_PROVEN_RUNS", {}):
            assert shared == _brute_outcome(specs[which], *call), (which, call)
    # every run entry is the D(n) a fresh store gives (with the run's value as
    # the cap, since a call with a larger cap may have proved it)
    for spec, runs in discriminator._PROVEN_RUNS.items():
        for n, value in enumerate(runs):
            if value:
                with mock.patch.object(discriminator, "_PROVEN_RUNS", {}):
                    assert value == discriminator_brute(spec, n, value).value, (spec, n)


def test_oracles_never_read_the_memo():
    def oracles():
        certs = [nonvalue_screen(d) for d in range(2, 601)]
        return (
            [incongruence_index(SEQ, m) for m in range(1, 601)],
            [period_brute(SEQ, d) for d in range(2, 601)],
            [verify_discriminates(SEQ, n, m) for n in (17, 100, 300) for m in range(n, 2 * n + 1)],
            iota_equals_rho_scan(600),
            certs,
            [recheck_certificate(cert) for cert in certs],
            [recheck_collision_certificate(row, *collision_certificate(row[0], row[2]))
             for row in EXPECTED_TABLE[:9]],
        )

    before = oracles()
    # every n poisoned: its "D(n)" is 1
    discriminator._PROVEN_RUNS[SEQ] = array("I", [1] * 1201)
    assert discriminator_brute(SEQ, 17).value == 1   # the sweep does read the poisoned entries
    assert oracles() == before
    # every n poisoned past any cap
    discriminator._PROVEN_RUNS[SEQ] = array("I", [10**9] * 1201)
    with pytest.raises(CapExceeded, match="no modulus <= 68 separates the first 17 terms"):
        discriminator_brute(SEQ, 17)
    assert oracles() == before


def test_checked_discriminator_crosses_methods():
    rec = salajan_discriminator_checked(20)
    assert (rec.n, rec.value, rec.method) == (20, 25, METHOD_BOTH)


# ------------------------------------------------------------------ single-modulus checks


def test_verify_discriminates_boundary_behavior():
    assert verify_discriminates(SEQ, 17, 25) is True
    for m in range(17, 25):
        assert verify_discriminates(SEQ, 17, m) is False, m
    assert verify_discriminates(SEQ, 5, 4) is False   # pigeonhole
    assert verify_discriminates(SEQ, 1, 1) is True
    with pytest.raises(ValueError):
        verify_discriminates(SEQ, 0, 5)
    with pytest.raises(ValueError):
        verify_discriminates(SEQ, 5, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=1, max_value=120))
def test_verify_accepts_the_closed_value_and_rejects_below(n):
    d = salajan_discriminator_closed(n).value
    assert verify_discriminates(SEQ, n, d)
    if d > n:
        assert not verify_discriminates(SEQ, n, d - 1)


# ------------------------------------------------------------------ the table and the image


def test_table_frozen_rows():
    assert table_ranges(32768) == EXPECTED_TABLE
    assert table_ranges(1) == [(1, 1, 1)]
    assert table_ranges(20) == EXPECTED_TABLE[:5] + [(17, 20, 25)]


def test_table_compresses_consistently():
    rows = table_ranges(600)
    covered = []
    for start, end, value in rows:
        assert start <= end
        for n in range(start, end + 1):
            covered.append(n)
            assert salajan_discriminator_closed(n).value == value
    assert covered == list(range(1, 601))
    with pytest.raises(ValueError):
        table_ranges(0)


def _table_per_n(n_max):
    """table_ranges' rows, rebuilt from one closed-form call per n."""
    rows = []
    for n in range(1, n_max + 1):
        v = salajan_discriminator_closed(n).value
        if rows and rows[-1][2] == v:
            rows[-1][1] = n
        else:
            rows.append([n, n, v])
    return [tuple(r) for r in rows]


def _assert_rows_follow_the_closed_form(rows, n_max):
    # D is nondecreasing, so a row whose two ends have its value holds it
    # throughout; adjacent rows must differ, or the compression is not maximal
    assert rows[0][0] == 1 and rows[-1][1] == n_max
    for (_, end, value), (start, _, nxt) in zip(rows, rows[1:]):
        assert start == end + 1 and value != nxt
    for start, end, value in rows:
        assert salajan_discriminator_closed(start).value == value
        assert salajan_discriminator_closed(end).value == value


def test_table_steps_agree_with_the_per_n_compression():
    per_n = _table_per_n(40_000)
    ends = [end for _, end, _ in per_n]
    rng = random.Random(7)
    for n_max in list(range(1, 5001)) + [32768] + [rng.randint(5001, 40_000) for _ in range(40)]:
        k = next(i for i, end in enumerate(ends) if end >= n_max)
        assert table_ranges(n_max) == per_n[:k] + [per_n[k][:1] + (n_max,) + per_n[k][2:]], n_max
    for n_max in [rng.randint(40_001, 10**6) for _ in range(200)]:
        _assert_rows_follow_the_closed_form(table_ranges(n_max), n_max)


def _table_per_row(n_max):
    """table_ranges' rows, with the powers worked out afresh for each row."""
    rows, n = [], 1
    while n <= n_max:
        pow2, pow5 = discriminator._closed_powers(n)
        end = min(pow2, pow5 // 5 * 4, n_max)
        v = min(pow2, pow5)
        if rows and rows[-1][2] == v:
            rows[-1][1] = end
        else:
            rows.append([n, end, v])
        n = end + 1
    return [tuple(r) for r in rows]


def test_table_carries_its_powers_from_row_to_row():
    rng = random.Random(21)
    edges = [x + d for k in range(1, 60) for x in (2**k, 4 * 5**k) for d in (-1, 0, 1)]
    for n_max in edges + [rng.randint(1, 10 ** rng.randint(1, 60)) for _ in range(300)] + [10**400]:
        assert table_ranges(n_max) == _table_per_row(n_max), n_max


def test_table_up_to_10_18_follows_the_closed_form():
    rows = table_ranges(10**18)
    assert rows[:20] == EXPECTED_TABLE
    _assert_rows_follow_the_closed_form(rows, 10**18)


def test_image_anchors():
    assert image_of_discriminator(700) == [1, 2, 4, 8, 16, 25, 32, 64, 125, 128, 256, 512]
    # 5 and 625 are skipped: their intervals contain 4 and 512
    assert 5 not in image_of_discriminator(700)
    assert 625 not in image_of_discriminator(700)
    assert image_of_discriminator(32768) == sorted({v for _, _, v in EXPECTED_TABLE})
    with pytest.raises(ValueError):
        image_of_discriminator(0)


def test_image_values_all_occur_in_table():
    values = {v for _, _, v in table_ranges(32768)}
    for d in image_of_discriminator(32768):
        assert d in values


# ------------------------------------------------------------------ the screen


def test_screen_reason_anchors():
    assert nonvalue_screen(15).reason == REASON_DIV3
    assert nonvalue_screen(13).reason == REASON_PERIOD          # rho(13) = 6, 12 <= 13
    assert nonvalue_screen(7).reason == REASON_IOTA             # iota(7) = 2
    assert nonvalue_screen(7).witness["iota"] == 2
    for genuine in (2, 4, 32, 25, 3125):
        assert nonvalue_screen(genuine).verdict == VERDICT_UNDECIDED, genuine
    # 5 and 625 are non-values, but the screen cannot certify a power of 5
    # whose period and index are both long; undecided is the honest verdict
    assert nonvalue_screen(5).verdict == VERDICT_UNDECIDED
    with pytest.raises(ValueError):
        nonvalue_screen(1)


def test_screen_histogram_up_to_4096():
    from collections import Counter

    hist = Counter(nonvalue_screen(d).reason for d in range(2, 4097))
    assert hist[REASON_DIV3] == 1365
    assert hist[REASON_PERIOD] == 2357
    assert hist[REASON_IOTA] == 356
    assert hist[None] == 17                       # 12 powers of 2, 5 powers of 5
    assert set(hist) == {REASON_DIV3, REASON_PERIOD, REASON_IOTA, None}


def test_screen_never_certifies_table_values():
    for value in sorted({v for _, _, v in EXPECTED_TABLE}):
        if value >= 2:
            assert nonvalue_screen(value).verdict == VERDICT_UNDECIDED, value


def test_screen_big_prime_report():
    full = nonvalue_screen(2063)
    assert full.verdict == VERDICT_NON_VALUE and full.reason == REASON_IOTA
    assert full.witness["iota"] == 161
    assert full.witness["prime_min_n"] == (2063 + 1) // 2
    assert full.witness["prime_floor_bound"] == prime_lemma_bound((2063 + 1) // 2)

    small = nonvalue_screen(7)
    assert "prime_min_n" not in small.witness     # below the reporting floor


# ------------------------------------------------------------------ certificates


def test_recheck_all_screen_output_below_600():
    for d in range(2, 601):
        cert = nonvalue_screen(d)
        assert recheck_certificate(cert), d


def _is_power(base: int, d: int) -> bool:
    while d % base == 0:
        d //= base
    return d == 1


def test_screen_complete_below_10_5_and_period_survivors_are_prime_powers():
    # the chain needs no composite or order screen after the period screen:
    # for coprime a, b > 1, rho(ab) = lcm(rho(a), rho(b)) <= rho(a) rho(b) / 2
    # <= ab/2, since every rho is even and rho(q) <= q for a prime power q;
    # and an odd prime power with 4 ord_9 > d has ord_9 = phi/2
    d_max = 10**5
    image = set(image_of_discriminator(d_max))
    holes, survivors = [], []
    for d in range(2, d_max + 1):
        cert = nonvalue_screen(d)
        if cert.verdict != VERDICT_NON_VALUE and not (d in image or _is_power(2, d) or _is_power(5, d)):
            holes.append(d)
        if cert.reason not in (REASON_DIV3, REASON_PERIOD):
            survivors.append(d)
    assert holes == []
    assert len(survivors) == 5853                 # 16 of them powers of 2
    for d in survivors:
        if not _is_power(2, d):
            (p, _), = sympy.factorint(d).items()
            assert p > 3 and 2 * sympy.n_order(9, d) == sympy.totient(d), d


# claims the recheck must reject: false witnesses, true witnesses that exceed
# d/2 (rho(5) = 4, iota(32) = 32 prove nothing), an unknown reason, and
# malformed certificates, which fail instead of raising
_REJECTED_CLAIMS = [
    NonValueCertificate(13, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": 4}),
    NonValueCertificate(7, VERDICT_NON_VALUE, REASON_IOTA, {"iota": 3}),
    NonValueCertificate(5, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": 4}),
    NonValueCertificate(32, VERDICT_NON_VALUE, REASON_IOTA, {"iota": 32}),
    NonValueCertificate(9, VERDICT_NON_VALUE, "made_up", {}),
    NonValueCertificate(0, VERDICT_NON_VALUE, REASON_IOTA, {"iota": 0}),
    NonValueCertificate(1, VERDICT_NON_VALUE, REASON_IOTA, {"iota": 0}),
    NonValueCertificate(-4, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": 1}),
    NonValueCertificate(0, VERDICT_NON_VALUE, REASON_DIV3, {"d_mod_3": 0}),
    NonValueCertificate(13, VERDICT_NON_VALUE, REASON_PERIOD, {}),
    NonValueCertificate(7, VERDICT_NON_VALUE, REASON_IOTA, {}),
    NonValueCertificate(13, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": "6"}),
    NonValueCertificate(13, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": 6.0}),
    NonValueCertificate(13, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": True}),
    NonValueCertificate(7, VERDICT_NON_VALUE, REASON_IOTA, {"iota": "3"}),
    NonValueCertificate(7, VERDICT_NON_VALUE, REASON_IOTA, {"iota": None}),
    NonValueCertificate("13", VERDICT_NON_VALUE, REASON_PERIOD, {"rho": 6}),
]


def test_recheck_rejects_tampered_witnesses():
    # the first two claims tamper with the screen's own witnesses rho(13) = 6
    # and iota(7) = 2
    assert [nonvalue_screen(d).witness for d in (13, 7)] == [{"rho": 6}, {"iota": 2}]
    assert recheck_certificate(nonvalue_screen(13)) and recheck_certificate(nonvalue_screen(7))
    undecided = nonvalue_screen(32)
    assert recheck_certificate(undecided)       # no claim made, nothing to refute
    for cert in _REJECTED_CLAIMS:
        assert recheck_certificate(cert) is False, cert


@pytest.mark.parametrize("witness", [None, [("rho", 6)], "rho", 6])
def test_recheck_rejects_a_witness_that_is_not_a_dict(witness):
    # one certificate per reason, each passing with the screen's own witness
    for d in (9, 10, 7):
        cert = nonvalue_screen(d)
        assert cert.verdict == VERDICT_NON_VALUE and recheck_certificate(cert), d
        assert recheck_certificate(cert._replace(witness=witness)) is False, d
    assert {nonvalue_screen(d).reason for d in (9, 10, 7)} == {REASON_DIV3, REASON_PERIOD, REASON_IOTA}


_TAMPERS = {"plus_one": lambda v: v + 1, "minus_one": lambda v: v - 1,
            "double": lambda v: 2 * v, "half": lambda v: v // 2}


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=2, max_value=5000), st.sampled_from(sorted(_TAMPERS)))
def test_recheck_tampered_witness_needs_a_true_period_or_index(d, how):
    cert = nonvalue_screen(d)
    assume(cert.reason in (REASON_PERIOD, REASON_IOTA))
    key = "rho" if cert.reason == REASON_PERIOD else "iota"
    value = _TAMPERS[how](cert.witness[key])
    tampered = NonValueCertificate(d, cert.verdict, cert.reason, {**cert.witness, key: value})
    if key == "rho":
        # any period <= d/2 proves the claim, not only the least one
        period = period_brute(sequences.salajan(), d).period
        still_true = value >= 1 and value % period == 0 and 2 * value <= d
    else:
        still_true = False   # the index is checked exactly
    assert recheck_certificate(tampered) == still_true


def test_recheck_accepts_exactly_the_periods_up_to_half_of_d():
    for d in range(2, 301):
        if d % 3 == 0:
            continue
        period = period_brute(sequences.salajan(), d).period
        for rho in range(d // 2 + 2):
            cert = NonValueCertificate(d, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": rho})
            assert recheck_certificate(cert) == (rho >= 1 and rho % period == 0 and 2 * rho <= d), (d, rho)


def test_recheck_period_power_matches_the_term_form():
    # the one power of 3 mod 4d decides exactly what u_{1+rho} = u_1 and
    # u_{2+rho} = u_2 mod d decide, for every rho the check reaches
    for d in range(2, 700):
        for rho in range(1, d // 2 + 1):
            cert = NonValueCertificate(d, VERDICT_NON_VALUE, REASON_PERIOD, {"rho": rho})
            want = (d % 3 != 0
                    and salajan_term_mod(1 + rho, d) == salajan_term_mod(1, d)
                    and salajan_term_mod(2 + rho, d) == salajan_term_mod(2, d))
            assert recheck_certificate(cert) == want, (d, rho)


def test_recheck_needs_no_screen_engine(monkeypatch):
    certs = [nonvalue_screen(d) for d in range(2, 601)]

    def refuse(*args, **kwargs):
        raise AssertionError("recheck called into the screen's engines")

    names = ("salajan_period_formula", "incongruence_index", "distinct_prefix_length",
             "_mark_scan", "_set_scan", "mult_order", "factorize", "_PRIME_POWER_ORDERS")
    for module in (census, charsum, discriminator, numtheory, periods, sequences):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert all(recheck_certificate(cert) for cert in certs)


def test_recheck_walks_neither_the_screen_nor_the_collision_search(monkeypatch):
    certs = [nonvalue_screen(d) for d in range(2, 601)]

    def refuse(*args, **kwargs):
        raise AssertionError("recheck called into another walk")

    names = ("salajan_period_formula", "incongruence_index", "distinct_prefix_length",
             "_mark_scan", "_set_scan", "mult_order", "factorize", "_PRIME_POWER_ORDERS",
             "_first_collision")
    for module in (census, charsum, discriminator, numtheory, periods, sequences):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert all(recheck_certificate(cert) for cert in certs)
    assert not any(recheck_certificate(cert) for cert in _REJECTED_CLAIMS)


# ------------------------------------------------------------------ collision certificates


def _collision_claim_holds(row, first, second, terms) -> bool:
    """The claim of a row and its pairs by a plain reference: exact terms
    (terms[t] is u_t), each pair by divisibility of the difference, the value
    by counting distinct residues."""
    a, b, v = row
    if not 1 <= a <= b <= v or not len(first) == len(second) == v - a:
        return False
    for m, i, j in zip(range(a, v), first, second):
        if not 1 <= i < j <= a or (terms[j] - terms[i]) % m:
            return False
    return len({t % v for t in terms[1:b + 1]}) == b


def test_certificates_prove_every_row_to_65536():
    # twice the range criterion 02 checks; the last row alone is 32767 moduli
    rows = table_ranges(65536)
    assert rows[:20] == EXPECTED_TABLE and rows[20:] == [(32769, 65536, 65536)]
    for a, b, v in rows:
        first, second = collision_certificate(a, v)
        assert len(first) == len(second) == v - a
        assert recheck_collision_certificate((a, b, v), first, second), (a, b, v)


def test_committed_certificates_are_the_searchs_pairs():
    # the file that theorem1 rechecks holds, row by row, exactly the pairs the
    # search proposes, and the checker accepts each row. Decompressed arrays
    # are compared, not the file's bytes, which another zlib may compress
    # differently
    from discrim import verify

    with open(verify._PAIRS_FILE, "rb") as f:
        raw = zlib.decompress(f.read())
    assert len(raw) == 4 * sum(v - a for a, _, v in EXPECTED_TABLE)
    rows = []
    for (a, b, v), first, second in verify._committed_certificates():
        assert (first, second) == collision_certificate(a, v), (a, b, v)
        assert recheck_collision_certificate((a, b, v), first, second), (a, b, v)
        rows.append((a, b, v))
    assert rows == EXPECTED_TABLE


def test_collision_checker_rejects_exactly_the_false_tampers():
    row = (2049, 2500, 3125)
    first, second = collision_certificate(2049, 3125)
    terms = [0, *exact_terms(SEQ, 2501)]
    assert _collision_claim_holds(row, first, second, terms)
    n = len(first)
    tampers = [
        # v - 1 with its moduli's true pairs: only the value check refutes it
        ((2049, 2500, 3124), first[:-1], second[:-1]),
        ((2049, 2500, 3126), first, second),
        ((2049, 2500, 3126), first + array("I", [1]), second + array("I", [2049])),
        ((2049, 2501, 3125), first, second),
        (row, first[:-1], second),
        (row, first, second[:-1]),
    ]
    positions = sorted({0, n - 1} | set(random.Random(13).sample(range(n), 12)))
    for k in positions:
        i, j = first[k], second[k]
        # (i + s, j + s) with j + s = a + 1 still collides when i is past the
        # pre-period, so only the bound j <= a refutes it
        s = 2050 - j
        for ti, tj in ((i - 1, j), (i + 1, j), (i, j - 1), (i, j + 1), (i + s, j + s), (j, i), (i, i)):
            f, g = array("I", first), array("I", second)
            f[k], g[k] = ti, tj
            tampers.append((row, f, g))
        for to in (k - 1, k + 1):   # the pair of m moved to m - 1 or m + 1
            if 0 <= to < n:
                f, g = array("I", first), array("I", second)
                f[to], g[to] = i, j
                tampers.append((row, f, g))
        tampers.append((row, first[:k] + first[k + 1:], second[:k] + second[k + 1:]))
    holding = []
    for t in tampers:
        holds = _collision_claim_holds(*t, terms)
        assert recheck_collision_certificate(*t) == holds, t
        holding.append(holds)
    assert sum(holding) <= 2   # a shifted index can still collide, rarely
    # malformed rows fail instead of raising
    for bad in ((0, 1, 1), (2, 1, 2), (3, 4, 3), (4, 4, 0), (2.0, 2, 2)):
        assert not recheck_collision_certificate(bad, array("I"), array("I"))


def test_collision_checker_rejects_bad_pairs_on_the_largest_rows():
    # the three largest rows of the table; at the first, middle and last
    # modulus each pair is bent so that it breaks j <= a, i < j, or the
    # collision itself: (i + 1, j) never collides, since a walked pair is the
    # first repeat and a formula pair (pre-period, pre-period + period) would
    # need a period of 1, where every period is even
    rows = EXPECTED_TABLE[-3:]
    assert rows == [(8193, 12500, 15625), (12501, 16384, 16384), (16385, 32768, 32768)]
    certs = [collision_certificate(a, v) for a, _, v in rows]
    took = 0.0
    for (a, b, v), (first, second) in zip(rows, certs):
        for k in (0, (v - a) // 2, v - a - 1):
            i, j = first[k], second[k]
            for ti, tj in ((i, a + 1), (j, i), (i, i), (i + 1, j)):
                f, g = array("I", first), array("I", second)
                f[k], g[k] = ti, tj
                start = time.perf_counter()
                assert not recheck_collision_certificate((a, b, v), f, g), ((a, b, v), k, ti, tj)
                took += time.perf_counter() - start
    assert took < 1.0


def test_collision_checker_rejects_entries_that_are_not_ints():
    row = (257, 512, 512)
    first, second = collision_certificate(257, 512)
    assert recheck_collision_certificate(row, list(first), list(second))
    one = list(first).index(1)   # True there is the same number as the entry
    bad = [([float(x) for x in first], second), (first, [float(x) for x in second])]
    for k in (0, one, len(first) - 1):
        for entry in (float(first[k]), True, None, -first[k]):
            bad.append((first[:k].tolist() + [entry] + first[k + 1:].tolist(), second))
        for entry in (float(second[k]), None, -second[k]):
            bad.append((first, second[:k].tolist() + [entry] + second[k + 1:].tolist()))
    # pair arrays with no length
    bad += [(None, None), (first, 512), (None, second)]
    for f, g in bad:
        assert recheck_collision_certificate(row, f, g) is False
    for bad_row in ((257, True, 512), (257, 512, None), (257, 512, -512), (257.0, 512, 512),
                    (257, 512), (257, 512, 512, 512), None):
        assert recheck_collision_certificate(bad_row, first, second) is False


def _first_collision_reference(m, terms=None):
    """The first colliding pair mod m from exact terms, among the first
    `terms` of them (None: m + 1, which must hold one)."""
    seen = {}
    for j, t in enumerate(exact_terms(SEQ, m + 1 if terms is None else terms), start=1):
        i = seen.setdefault(t % m, j)
        if i != j:
            return i, j
    if terms is None:
        raise AssertionError("m + 1 terms hold a repeat mod m")
    return None


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=1, max_value=4000))
def test_walked_pair_is_the_first_collision(m):
    i, j = _first_collision_reference(m)
    assert discriminator._first_collision(m, m + 1) == discriminator._first_collision(m, j) == (i, j)
    # a walk stopped short of the repeat finds none
    assert discriminator._first_collision(m, j - 1) == (0, j)


def _count_dict_storage(monkeypatch) -> list:
    """A list that grows by one each time `_repeats_first_at` keeps a dict."""
    made = []
    monkeypatch.setattr(discriminator, "defaultdict", lambda kind: made.append(kind) or defaultdict(kind))
    return made


def test_repeat_walk_matches_the_reference_on_both_storages(monkeypatch):
    made = _count_dict_storage(monkeypatch)
    walk = discriminator._repeats_first_at
    for d in range(2, 2000):
        _, first = _first_collision_reference(d)
        for j in range(1, min(d + 2, 300) + 1):
            assert walk(d, j) is (j == first), (d, j)
    assert made == []
    # the dict path, forced: every j while d < 300, then j at both ends and
    # around the first repeat (a full grid there would take twice as long)
    monkeypatch.setattr(discriminator, "MARK_BOUND", 1)
    calls = 0
    for d in range(2, 2000):
        _, first = _first_collision_reference(d)
        top = min(d + 2, 300)
        js = range(1, top + 1) if d < 300 else {1, 2, 3, first - 1, first, first + 1, top}
        for j in js:
            assert walk(d, j) is (j == first), (d, j)
            calls += 1
    assert len(made) == calls


def test_repeat_walk_keeps_a_bytearray_up_to_the_mark_bound(monkeypatch):
    made = _count_dict_storage(monkeypatch)
    monkeypatch.setattr(discriminator, "MARK_BOUND", 600)
    for d in (599, 600, 601, 602):
        before = len(made)
        _, first = _first_collision_reference(d)
        assert discriminator._repeats_first_at(d, first) and not discriminator._repeats_first_at(d, first + 1)
        assert len(made) - before == (2 if d > 600 else 0), d


@settings(max_examples=120, deadline=None)
@given(st.one_of(st.integers(min_value=2, max_value=2**25), st.integers(min_value=2**24 - 2, max_value=2**25)),
       st.integers(min_value=-2, max_value=3000))
def test_repeat_walk_matches_exact_terms_to_2_25(d, j):
    # past 2^24 the walk keeps a dict; most d first repeat past 3000 terms,
    # so the claim at the true index is checked too whenever it lies within
    pair = _first_collision_reference(d, 3000)
    first = pair[1] if pair else None
    assert discriminator._repeats_first_at(d, j) is (j == first)
    if first is not None:
        assert discriminator._repeats_first_at(d, first)


def test_collision_search_walks_no_further_than_the_row_start():
    # u_1..u_3 = 2, 1, 0 stay distinct mod 4, so a pair j <= 3 exists only mod 3
    first, second = collision_certificate(3, 5)
    assert (list(first), list(second)) == ([1, 0], [3, 4])
    assert not recheck_collision_certificate((3, 3, 5), first, second)


def _rejected_in_bounds(cert, peak_bytes):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        accepted = recheck_certificate(cert)
        took = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return accepted is False and took < 0.5 and peak < peak_bytes


def test_forged_iota_certificate_is_rejected_at_once():
    # iota(2^a) = 2^a, so each iota below is false at both d; the walk stops
    # at iota + 1 terms, and 2^23, past the scan cap that no screen reaches,
    # is rejected with no walk. The bytearray(2^24) is the largest a walk
    # allocates, and a dict walk mod 2^40 holds at most iota + 1 residues
    for d, peak_bytes in ((2**24, 20 << 20), (2**40, 1 << 20)):
        for iota in (-3, -1, 0, 1, 2, 5, 4095, 2**23):
            cert = NonValueCertificate(d, VERDICT_NON_VALUE, REASON_IOTA, {"iota": iota})
            assert _rejected_in_bounds(cert, peak_bytes), (d, iota)


def test_forged_iota_past_the_scan_bits_is_rejected_at_once():
    # a walk of 2^21 + 1 residues of 1,001 digits held about 1 GB; a walk
    # mod this d keeps at most 80,805 of them, so 2^21 is not walked
    d = 10**1000 + 7
    assert sequences.scan_term_limit(d) == 80805
    for iota in (80805, 2**21):
        cert = NonValueCertificate(d, VERDICT_NON_VALUE, REASON_IOTA, {"iota": iota})
        assert _rejected_in_bounds(cert, 1 << 20), iota


def test_true_index_certificate_above_the_mark_bound_is_accepted():
    cert = next(c for c in map(nonvalue_screen, range(2**24 + 1, 2**24 + 400)) if c.reason == REASON_IOTA)
    assert cert.d > sequences.MARK_BOUND and cert.witness["iota"] < 2**15
    assert recheck_certificate(cert)
    for iota in (cert.witness["iota"] - 1, cert.witness["iota"] + 1):
        assert not recheck_certificate(cert._replace(witness={**cert.witness, "iota": iota}))


def test_collision_checker_needs_no_search_engine(monkeypatch):
    certs = [(row, *collision_certificate(row[0], row[2])) for row in EXPECTED_TABLE[:16]]

    def refuse(*args, **kwargs):
        raise AssertionError("the checker called into the search's engines")

    names = ("salajan_period_formula", "_row_periods", "incongruence_index", "mult_order", "factorize",
             "_PRIME_POWER_ORDERS", "_first_collision", "discriminator_brute", "_least_moduli")
    for module in (census, charsum, discriminator, numtheory, periods, sequences):
        for name in names:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert all(recheck_collision_certificate(*cert) for cert in certs)


def test_poisoned_period_tables_reach_no_oracle(monkeypatch, tmp_path):
    # a smallest-prime-factor table that makes every delta a power of 2, and
    # order 7 for every power of 2: the formula then gives period 14 throughout.
    # The row pass sieves delta itself, so the order 1 recorded for every odd
    # number below the rows' values gives it period 14 throughout too
    from discrim import verify

    ds = range(2, 601)
    rows = EXPECTED_TABLE[8:15]   # (65, 100, 125) to (2049, 2500, 3125)

    def oracles(certs, pairs):
        return ([period_brute(SEQ, d) for d in ds], [incongruence_index(SEQ, d) for d in ds],
                [recheck_certificate(cert) for cert in certs],
                [recheck_collision_certificate(row, *pair) for row, pair in zip(rows * 2, pairs)])

    certs = [nonvalue_screen(d) for d in ds]
    pairs = [collision_certificate(a, v) for a, _, v in rows]
    monkeypatch.setattr(verify, "EXPECTED_TABLE", EXPECTED_TABLE[:15])
    honest = verify.check_theorem1(64)
    with monkeypatch.context() as mp:
        mp.setattr(numtheory, "_spf", array("H", [2]) * numtheory.SPF_ENTRIES)
        mp.setattr(periods, "_PRIME_POWER_ORDERS",
                   {**{2**e: 7 for e in range(1, 64)}, **{q: 1 for q in range(3, rows[-1][2], 2)}})
        assert salajan_period_formula(5) == periods.PeriodInfo(5, 1, 14)   # truly 4
        assert all((period == 14).all() for _, period in periods._row_periods(2, rows[-1][2]))
        bad_certs = [nonvalue_screen(d) for d in ds]
        bad_pairs = [collision_certificate(a, v) for a, _, v in rows]
        poisoned = oracles(certs + bad_certs, pairs + bad_pairs)
        # the suite reads the committed pairs, so the poisoned search
        # cannot move its verdict
        on_file = verify.check_theorem1(64)
        # the poisoned pairs reach it only through that file
        below = [(first, second) for _, first, second in verify._committed_certificates()][:8]
        mp.setattr(verify, "_PAIRS_FILE", _write_pairs(tmp_path / "poisoned.bin", below + bad_pairs))
        result = verify.check_theorem1(64)
    assert poisoned == oracles(certs + bad_certs, pairs + bad_pairs)
    # the checkers keep every true certificate and reject every false period
    # witness and every row's poisoned pairs
    rechecked, rows_checked = poisoned[2], poisoned[3]
    assert rechecked[:len(ds)] == [True] * len(ds)
    false = [k for k, (cert, brute) in enumerate(zip(bad_certs, poisoned[0]))
             if cert.reason == REASON_PERIOD and cert.witness["rho"] % brute.period]
    assert len(false) > 300 and not any(rechecked[len(ds) + k] for k in false)
    assert rows_checked == [True] * len(rows) + [False] * len(rows)
    # theorem1 passes on the true file, poisoned tables or not, and goes red
    # on the poisoned pairs, naming the rows above n_max, all rejected
    assert honest.passed and on_file == honest and not result.passed
    assert result.detail.endswith(
        f"; collision certificate rejected on {len(rows)} row(s) (start, end, value): "
        f"{rows[:5]}; reproduce: discrim verify --suite theorem1 --nmax 64")
