"""Sequence providers, checked against the raw recurrence as the oracle."""

import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discrim import sequences
from discrim.sequences import (
    DEFAULT_EXACT_CAP,
    EXACT_TERM_BITS,
    CapExceeded,
    SequenceSpec,
    distinct_prefix_length,
    exact_terms,
    linear_recurrence,
    parse_spec,
    polynomial,
    salajan,
    salajan_term_mod,
    term_exact,
)


def recurrence_oracle(count):
    """First `count` terms straight from u_n = 2u_{n-1} + 3u_{n-2}, u1=2, u2=1."""
    terms = [2, 1]
    while len(terms) < count:
        terms.append(2 * terms[-1] + 3 * terms[-2])
    return terms[:count]


ORACLE_400 = recurrence_oracle(400)


# ------------------------------------------------------------------ terms


def test_first_terms_match_recurrence():
    assert ORACLE_400[:9] == [2, 1, 8, 19, 62, 181, 548, 1639, 4922]
    for j in range(1, 401):
        assert term_exact(salajan(), j) == ORACLE_400[j - 1]


def test_closed_form_identity():
    # u_j = (3^j - 5(-1)^j) / 4 with an exactly divisible numerator
    for j in range(1, 200):
        num = 3**j - 5 * (-1) ** j
        assert num % 4 == 0
        assert term_exact(salajan(), j) == num // 4


def test_term_exact_generic_kinds():
    fib_like = linear_recurrence(1, 1, 1, 2)
    expected = [1, 2, 3, 5, 8, 13, 21, 34]
    assert [term_exact(fib_like, j) for j in range(1, 9)] == expected

    quad = polynomial(1, 2, 3)   # 1 + 2j + 3j^2
    assert [term_exact(quad, j) for j in range(1, 5)] == [6, 17, 34, 57]
    assert term_exact(salajan(), 7) == 548


def test_term_caps():
    with pytest.raises(CapExceeded):
        term_exact(salajan(), DEFAULT_EXACT_CAP + 1)
    with pytest.raises(CapExceeded):
        term_exact(linear_recurrence(1, 1, 0, 1), DEFAULT_EXACT_CAP + 1)
    # polynomials have no cap: evaluation is a single Horner pass
    assert term_exact(polynomial(0, 1), 10**6) == 10**6


def test_exact_walk_refuses_the_term_past_the_cap(monkeypatch):
    # every spec stops at term cap + 1, once the terms before it are out
    monkeypatch.setattr(sequences, "DEFAULT_EXACT_CAP", 50)
    for spec in (linear_recurrence(1, 1, 0, 1), polynomial(0, 0, 1)):
        terms = []
        with pytest.raises(CapExceeded, match="^exact term index 51 exceeds cap 50$"):
            terms.extend(exact_terms(spec, 60))
        assert terms == [term_exact(spec, j) for j in range(1, 51)]
        assert len(list(exact_terms(spec, 50))) == 50


def test_exact_walk_refuses_a_term_past_the_flagships_at_the_cap():
    # the bound is the flagship's own term at the cap, so the flagship and
    # any recurrence with its terms (linrec:2,3,2,1) never reach it
    assert term_exact(salajan(), DEFAULT_EXACT_CAP).bit_length() == EXACT_TERM_BITS
    top = 1 << (EXACT_TERM_BITS - 1)
    assert list(exact_terms(polynomial(top), 2)) == [top, top]
    with pytest.raises(CapExceeded, match=f"^exact term 1 has more than {EXACT_TERM_BITS} bits$"):
        next(exact_terms(polynomial(-2 * top), 1))
    # v_j has about 333 bits per step: term 957 is the first past the bound
    spec = parse_spec("linrec:" + ",".join([str(10**100)] * 2) + ",1,2")
    walk = exact_terms(spec, 5000)
    assert max(t.bit_length() for _, t in zip(range(956), walk)) <= EXACT_TERM_BITS
    with pytest.raises(CapExceeded, match=f"^exact term 957 has more than {EXACT_TERM_BITS} bits$"):
        next(walk)
    with pytest.raises(CapExceeded, match="^exact term 957 "):
        term_exact(spec, 1000)


def test_term_index_validation():
    with pytest.raises(ValueError):
        term_exact(salajan(), 0)
    with pytest.raises(ValueError):
        salajan_term_mod(0, 7)
    with pytest.raises(ValueError):
        salajan_term_mod(3, 0)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=399), st.integers(min_value=1, max_value=10**9))
def test_term_mod_matches_oracle(j, m):
    assert salajan_term_mod(j, m) == ORACLE_400[j - 1] % m


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=10**6), st.integers(min_value=1, max_value=10**6))
def test_term_mod_large_index_consistency(j, m):
    # O(log j) path against the doubling identity u_{j} mod m recomputed mod 4m
    four_m = 4 * m
    sign = -1 if j % 2 else 1
    t = (pow(3, j, four_m) - 5 * sign) % four_m
    assert salajan_term_mod(j, m) == (t >> 2) % m
    assert 0 <= salajan_term_mod(j, m) < m


# ------------------------------------------------------------------ spec objects


def test_parse_spec_round_trips():
    for text, spec in (
        ("salajan", salajan()),
        ("linrec:2,3,2,1", linear_recurrence(2, 3, 2, 1)),
        ("linrec:-1,4,0,7", linear_recurrence(-1, 4, 0, 7)),
        ("poly:1,2,3", polynomial(1, 2, 3)),
        ("poly:5", polynomial(5)),
    ):
        assert parse_spec(text) == spec
    assert parse_spec(" salajan ") == salajan()


@pytest.mark.parametrize(
    "bad",
    ["", "fib", "linrec:1,2,3", "linrec:1,2,3,4,5", "linrec:a,b,c,d", "poly:", "weird:1,2"],
)
def test_parse_spec_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_spec(bad)


def test_spec_validation():
    with pytest.raises(ValueError):
        SequenceSpec("salajan", coeffs=(1,))
    with pytest.raises(ValueError):
        SequenceSpec("linear_recurrence", coeffs=(1, 2), initial=(1,))
    with pytest.raises(ValueError):
        SequenceSpec("polynomial", coeffs=())
    with pytest.raises(ValueError):
        SequenceSpec("mystery")
    assert salajan().as_recurrence() == (2, 3, 2, 1)
    with pytest.raises(ValueError):
        polynomial(1, 1).as_recurrence()


# ------------------------------------------------------------------ distinct prefixes


def test_distinct_prefix_length_anchors():
    seq = salajan()
    # u_3 = 8 = 1 = u_2 (mod 7), so only the first two terms stay distinct
    assert distinct_prefix_length(seq, 7, 10) == 2
    assert distinct_prefix_length(seq, 1, 10) == 1
    assert distinct_prefix_length(seq, 29, 29) == 14
    # limit wins when it is smaller than the index of the first repeat
    assert distinct_prefix_length(seq, 29, 5) == 5
    assert distinct_prefix_length(seq, 7, 1) == 1
    # squares mod 5 repeat at j = 3 (1, 4, 9=4)
    assert distinct_prefix_length(polynomial(0, 0, 1), 5, 10) == 2


def test_distinct_prefix_length_validation():
    with pytest.raises(ValueError):
        distinct_prefix_length(salajan(), 0, 5)
    with pytest.raises(ValueError):
        distinct_prefix_length(salajan(), 5, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=40))
def test_distinct_prefix_length_matches_pairwise_oracle(m, limit):
    seq = salajan()
    residues = [t % m for t in recurrence_oracle(limit)]
    expected = limit
    seen = set()
    for idx, r in enumerate(residues):
        if r in seen:
            expected = idx
            break
        seen.add(r)
    assert distinct_prefix_length(seq, m, limit) == expected


# ------------------------------------------------------------------ set reference


def set_reference(c1, c2, v1, v2, m, limit):
    """min(iota(m), limit) straight from the recurrence, one set insert a term."""
    seen = set()
    x, y = v1 % m, v2 % m
    for k in range(limit):
        if x in seen:
            return k
        seen.add(x)
        x, y = y, (c1 * y + c2 * x) % m
    return limit


# coefficient pairs whose scans often run long: progressions (2, -1) and
# (-2, -1), powers of 3 (3, 0), (+-4, -1), (2, 1) and the flagship's (2, 3)
LONG_SCANS = [(2, -1), (-2, -1), (4, -1), (-4, -1), (2, 1), (3, 0), (2, 3)]

def limits(m):
    """Limits from 1..m + 1; m + 1 leaves a scan unbounded, since iota(m) <= m."""
    return st.one_of(st.just(m + 1), st.integers(min_value=1, max_value=m))


def poly_set_reference(spec, m, limit):
    """min(iota(m), limit) for a polynomial, from its exact terms."""
    seen = set()
    for k in range(limit):
        r = term_exact(spec, k + 1) % m
        if r in seen:
            return k
        seen.add(r)
    return limit


def check_against_set_reference(spec, m, limit):
    if spec.kind == "polynomial":
        want = poly_set_reference(spec, m, limit)
    else:
        want = set_reference(*spec.as_recurrence(), m, limit)
    assert distinct_prefix_length(spec, m, limit) == want


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-50, max_value=50),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=70_000),
    st.data(),
)
def test_distinct_prefix_length_matches_set_reference(c1, c2, v1, v2, m, data):
    # any recurrence, c2 = 0 and negative coefficients included; constant
    # (1, 0) and period-2 (0, 1) sequences repeat at once
    check_against_set_reference(linear_recurrence(c1, c2, v1, v2), m, data.draw(limits(m)))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(LONG_SCANS),
    st.integers(min_value=-10**6, max_value=10**6),
    st.integers(min_value=1, max_value=10**6),
    st.integers(min_value=2000, max_value=70_000),
    st.data(),
)
def test_long_scans_match_set_reference(coeffs, v1, step, m, data):
    # long scans (v2 = v1 would repeat at once)
    spec = linear_recurrence(*coeffs, v1, v1 + step)
    check_against_set_reference(spec, m, data.draw(limits(m)))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=257, max_value=70_000), st.data())
def test_salajan_prefix_length_matches_set_reference(m, data):
    # the flagship sequence itself
    check_against_set_reference(salajan(), m, data.draw(limits(m)))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.integers(min_value=-50, max_value=50), min_size=1, max_size=5),
    st.integers(min_value=1, max_value=5000),
    st.data(),
)
def test_polynomial_prefix_length_matches_set_reference(coeffs, m, data):
    # any polynomial: a constant repeats at once, and a + b*j with b a unit
    # mod m runs all m terms
    check_against_set_reference(polynomial(*coeffs), m, data.draw(limits(m)))


def test_degree_300_polynomial_matches_its_exact_terms():
    # h((j - 50)^2) takes equal values at j = 49 and j = 51 whatever the
    # modulus, so every scan repeats by its 51st term; h has random signed
    # coefficients, so the degree-300 polynomial has signed ones of up to
    # about 1,700 bits, which the scans reduce mod m once
    rng = random.Random(300)
    coeffs = [0]   # h((j - 50)^2) by Horner over h's coefficients, lowest first
    for c in [rng.randint(-10**6, 10**6) for _ in range(151)]:
        # coeffs * (j^2 - 100 j + 2500) + c
        shifted = [2500 * a for a in coeffs] + [0, 0]
        for i, a in enumerate(coeffs):
            shifted[i + 1] -= 100 * a
            shifted[i + 2] += a
        shifted[0] += c
        coeffs = shifted
    while coeffs[-1] == 0:
        coeffs.pop()
    assert len(coeffs) == 301 and min(coeffs) < 0 < max(coeffs)
    spec = polynomial(*coeffs)
    terms = [term_exact(spec, j) for j in range(1, 1011)]

    def first_repeat(m, limit):
        residues = [t % m for t in terms[:limit]]
        return next((k for k in range(limit) if residues[k] in residues[:k]), limit)

    # bytearray marks up to MARK_BOUND, a set past it
    for m in (1, 2, 97, 1009, 2**16 + 1, sequences.MARK_BOUND):
        for limit in (1, 40, min(m + 1, 1010)):
            assert distinct_prefix_length(spec, m, limit) == first_repeat(m, limit), (m, limit)
    for m in (sequences.MARK_BOUND + 1, 2**61 - 1, 10**40 + 121):
        for limit in (1, 40, 60):
            assert distinct_prefix_length(spec, m, limit) == first_repeat(m, limit), (m, limit)
    assert first_repeat(10**40 + 121, 60) == 50


@pytest.mark.parametrize(
    "c1, c2, v1, v2, m",
    [
        (2, 3, 2, 1, 20203),          # u_655 = u_650
        (-2, -1, -78, -83, 3649),     # v_3481 = v_3480
        (-3, -1, -48, -22, 67910),    # v_2452 = v_2442
        (2, 1, 61, -70, 51444),       # v_1257 = v_1255
        (1, 1, 87, -64, 61565),       # v_1654 = v_1638
        (-4, -1, 45, -34, 37038),     # v_1100 = v_1094
        (-4, -1, -92, -11, 59226),    # v_3901 = v_3899
    ],
)
def test_first_repeat_inside_one_block(c1, c2, v1, v2, m):
    # pinned long scans whose first repeat lies only a few terms back
    spec = linear_recurrence(c1, c2, v1, v2)
    assert distinct_prefix_length(spec, m, m + 1) == set_reference(c1, c2, v1, v2, m, m + 1)


def test_large_moduli_stay_in_python():
    # moduli of any size: past 2^22 (a 4 MB bytearray), and past 2^31 and near
    # 2^61, where only the set loop above MARK_BOUND can run
    for m in (2**22 + 1, 2**31 + 11, 2**61 - 1):
        assert distinct_prefix_length(linear_recurrence(2, -1, 0, 1), m, 3000) == 3000
        assert distinct_prefix_length(salajan(), m, 2000) == set_reference(2, 3, 2, 1, m, 2000)
        spec = linear_recurrence(-7, 5, 34, 15)
        assert distinct_prefix_length(spec, m, 1500) == set_reference(-7, 5, 34, 15, m, 1500)


def test_scans_stop_past_the_term_cap(monkeypatch):
    assert sequences.SCAN_TERM_CAP == 2**22
    monkeypatch.setattr(sequences, "SCAN_TERM_CAP", 64)
    # answers up to the cap stay exact, whatever the limit: iota(2^e) = 2^e
    assert distinct_prefix_length(salajan(), 29, 10**9) == 14
    assert distinct_prefix_length(salajan(), 64, 64) == 64
    assert distinct_prefix_length(salajan(), 128, 65) == 65
    for spec, m in ((salajan(), 128), (polynomial(0, 1), 1000)):
        with pytest.raises(CapExceeded, match=f"^no repeated residue within 65 terms mod {m}$"):
            distinct_prefix_length(spec, m, m)


def test_scans_past_64_bits_keep_no_more_residue_bits(monkeypatch):
    # (2^22 + 1) * 64 bits of residues, in terms of 3322 bits each
    m = 10**1000 + 7
    with pytest.raises(CapExceeded, match=f"^no repeated residue within 80805 terms mod {m}$"):
        distinct_prefix_length(salajan(), m, m)
    monkeypatch.setattr(sequences, "SCAN_TERM_CAP", 64)
    counting = linear_recurrence(2, -1, 0, 1)   # 0, 1, 2, ...: never repeats
    for m, steps in ((2**64 - 1, 65), (2**64, 64), (2**128, 32)):
        with pytest.raises(CapExceeded, match=f"^no repeated residue within {steps} terms mod {m}$"):
            distinct_prefix_length(counting, m, m)
        assert distinct_prefix_length(counting, m, steps) == steps


def test_both_storages_match_the_set_reference(monkeypatch):
    # with the bound at 1000, moduli up to 1000 are marked in a bytearray and
    # the rest kept in a set
    monkeypatch.setattr(sequences, "MARK_BOUND", 1000)
    specs = (salajan(), linear_recurrence(2, -1, 0, 1), linear_recurrence(-7, 5, 34, 15),
             polynomial(1, 1), polynomial(0, 0, 1))
    for m in (1, 7, 999, 1000, 1001, 4096):
        for limit in (1, m, m + 1):
            for spec in specs:
                check_against_set_reference(spec, m, limit)
    monkeypatch.setattr(sequences, "SCAN_TERM_CAP", 64)
    for spec, m in ((salajan(), 128), (polynomial(0, 1), 1000), (salajan(), 2048), (polynomial(0, 1), 1001)):
        with pytest.raises(CapExceeded, match=f"^no repeated residue within 65 terms mod {m}$"):
            distinct_prefix_length(spec, m, m)


def _stride_matches_generic_loops(m, steps):
    # the flagship's two-stream stride against the set loop and against the
    # generic recurrence loop of the same bytearray scan
    k = sequences._mark_scan(salajan(), m, steps)
    assert k == sequences._set_scan(salajan(), m, steps), (m, steps)
    assert k == sequences._mark_scan(linear_recurrence(2, 3, 2, 1), m, steps), (m, steps)


def test_flagship_stride_matches_the_generic_loops():
    # odd and even step counts, so the stride's last single term is met too
    for m in range(1, 5001):
        for steps in {1, 2, 3, m // 2, m // 2 + 1, m, m + 1}:
            _stride_matches_generic_loops(m, steps)


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=1 << 22), st.integers(min_value=1, max_value=4096))
def test_flagship_stride_matches_the_generic_loops_at_large_moduli(m, steps):
    _stride_matches_generic_loops(m, steps)


def test_scan_memory_does_not_grow_per_term():
    # a full scan of 2^16 terms takes one byte a residue, not a set entry a term
    m = 1 << 16
    for spec in (salajan(), polynomial(1, 1)):
        tracemalloc.start()
        try:
            assert distinct_prefix_length(spec, m, m + 1) == m
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * m + (64 << 10), (spec, peak)
