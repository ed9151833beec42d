"""Enumeration of rationals: oracle comparisons and frozen prefixes."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ordsum.rationals as rationals
from ordsum.rationals import (
    _SIEVE_CAP,
    _IndexCounter,
    _count_table,
    _sieve_limit,
    count_up_to,
    fractions_up_to,
    min_entry_in,
    min_rational_in,
    rational_at,
    rational_index,
    rational_indices,
)
from ordsum.tnorm import check_unit, parse_rational


def brute_enumeration(max_denominator: int) -> list[Fraction]:
    """Independent oracle: reduced fractions sorted by (denominator, numerator)."""
    items = []
    for d in range(1, max_denominator + 1):
        for p in range(0, d + 1):
            if gcd(p, d) == 1 and (d == 1 or 0 < p < d):
                items.append((d, p))
    return [Fraction(p, d) for d, p in items]


def sieve_counts(max_denominator: int) -> list[int]:
    """Independent oracle: counts[d] = entries with denominator <= d, by a phi sieve."""
    phi = list(range(max_denominator + 1))
    for p in range(2, max_denominator + 1):
        if phi[p] == p:
            for m in range(p, max_denominator + 1, p):
                phi[m] -= phi[m] // p
    counts = [0, 2]
    for d in range(2, max_denominator + 1):
        counts.append(counts[-1] + phi[d])
    return counts


SIEVE_LIMIT = 3000
SIEVE = sieve_counts(SIEVE_LIMIT)


def sieve_index(q: Fraction) -> int:
    """Position of q from the sieve counts and a direct numerator count."""
    p, d = q.numerator, q.denominator
    if d == 1:
        return p
    return SIEVE[d - 1] + sum(1 for k in range(1, p) if gcd(k, d) == 1)


def scan_min_entry(lo: Fraction, hi: Fraction, closed: bool) -> Fraction:
    """Independent oracle: scan denominators upward for the first member."""
    a, b = lo.numerator, lo.denominator
    c, e = hi.numerator, hi.denominator
    d = 1
    while True:
        if closed:
            p_min = -(-(a * d) // b)  # ceil(a*d/b)
            p_max = (c * d) // e
        else:
            p_min = (a * d) // b + 1
            p_max = (c * d - 1) // e
        for p in range(p_min, p_max + 1):
            if gcd(p, d) == 1:
                return Fraction(p, d)
        d += 1


def test_frozen_prefix():
    expected = [
        Fraction(0),
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
        Fraction(2, 3),
        Fraction(1, 4),
        Fraction(3, 4),
    ]
    assert [rational_at(n) for n in range(7)] == expected


def test_matches_brute_oracle():
    oracle = brute_enumeration(40)
    assert [rational_at(n) for n in range(len(oracle))] == oracle


def test_round_trip_to_ten_thousand():
    for n in range(10_001):
        assert rational_index(rational_at(n)) == n


def test_distinct_prefix():
    seen = {rational_at(n) for n in range(2000)}
    assert len(seen) == 2000


def test_min_index_in_frozen_examples():
    assert min_entry_in(Fraction(1, 3), Fraction(2, 3))[0] == 2
    assert min_entry_in(Fraction(0), Fraction(1, 2), closed=True)[0] == 0
    assert min_entry_in(Fraction(1, 2), Fraction(1))[0] == 4


def rescan_min_index(lo: Fraction, hi: Fraction, closed: bool) -> int:
    n = 0
    while True:
        q = rational_at(n)
        inside = lo <= q <= hi if closed else lo < q < hi
        if inside:
            return n
        n += 1


@pytest.mark.parametrize("closed", [False, True])
def test_min_index_matches_rescan(closed):
    cases = [
        (Fraction(0), Fraction(1)),
        (Fraction(1, 7), Fraction(2, 7)),
        (Fraction(3, 8), Fraction(5, 8)),
        (Fraction(9, 10), Fraction(1)),
        (Fraction(1, 100), Fraction(1, 50)),
        (Fraction(7, 9), Fraction(8, 9)),
        (Fraction(0), Fraction(1, 3)),
        (Fraction(0), Fraction(1, 40)),
        (Fraction(2, 3), Fraction(1)),
        (Fraction(39, 40), Fraction(1)),
        (Fraction(1, 5), Fraction(2, 5)),
        (Fraction(1, 2), Fraction(2, 3)),
    ]
    for lo, hi in cases:
        assert min_entry_in(lo, hi, closed=closed)[0] == rescan_min_index(lo, hi, closed)


@given(
    num=st.integers(min_value=0, max_value=200),
    den=st.integers(min_value=1, max_value=200),
    width_den=st.integers(min_value=2, max_value=500),
    closed=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_min_index_member_and_minimal(num, den, width_den, closed):
    lo = Fraction(min(num, den), max(num, den, 1))
    if lo == 1:
        lo = Fraction(99, 100)
    hi = min(Fraction(1), lo + Fraction(1, width_den))
    if lo >= hi:
        return
    n = min_entry_in(lo, hi, closed=closed)[0]
    q = rational_at(n)
    assert (lo <= q <= hi) if closed else (lo < q < hi)
    for m in range(n):
        earlier = rational_at(m)
        inside = (lo <= earlier <= hi) if closed else (lo < earlier < hi)
        assert not inside


def test_deep_interval_near_one():
    # Interval of width 3**-12 hugging 1; exercises the large-denominator path.
    lo = Fraction(3**12 - 2, 3**12)
    hi = Fraction(3**12 - 1, 3**12)
    n = min_entry_in(lo, hi)[0]
    q = rational_at(n)
    assert lo < q < hi
    assert q == Fraction(265720, 265721)


def test_count_up_to():
    assert count_up_to(1) == 2
    assert count_up_to(2) == 3
    assert count_up_to(4) == 7
    assert count_up_to(40) == len(brute_enumeration(40))
    assert [count_up_to(d) for d in range(1, SIEVE_LIMIT + 1)] == SIEVE[1:]
    # phi(1) + ... + phi(10**6) = 303963552392 (OEIS A064018)
    assert count_up_to(10**6) == 1 + 303963552392


def test_fractions_up_to_sorted_with_indices():
    for bound in (12, 1030):
        oracle = brute_enumeration(bound)
        assert count_up_to(bound) == len(oracle)
        items = fractions_up_to(bound)
        values = [q for q, _ in items]
        assert all(a < b for a, b in zip(values, values[1:]))
        by_index = sorted(items, key=lambda item: item[1])
        assert by_index == [(q, n) for n, q in enumerate(oracle)]
        for q, idx in items[:: 1 + len(items) // 500]:
            assert rational_at(idx) == q


def test_rational_index_matches_sieve():
    # every reduced p/d on both sides of the 1024 table edge; beyond 1100
    # the ends and every 97th numerator of each denominator up to 3000
    # (all of them would be 2.7 million calls)
    for d in range(2, SIEVE_LIMIT + 1):
        numerators = [p for p in range(1, d) if gcd(p, d) == 1]
        positions = list(range(len(numerators)))
        if d > 1100:
            positions = positions[:2] + positions[2:-2:97] + positions[-2:]
        for k in positions:
            assert rational_index(Fraction(numerators[k], d)) == SIEVE[d - 1] + k


@given(n=st.integers(min_value=0, max_value=10**13))
@example(n=count_up_to(1024) - 1)
@example(n=count_up_to(1024))
@example(n=10**13)
@settings(max_examples=20, deadline=None)
def test_round_trip_far_past_the_table(n):
    q = rational_at(n)
    assert rational_index(q) == n
    if n >= 2:
        d = q.denominator
        assert count_up_to(d - 1) <= n < count_up_to(d)


unit_fractions = st.builds(
    lambda p, d: Fraction(min(p, d), d),
    st.integers(min_value=0, max_value=1500),
    st.integers(min_value=1, max_value=1500),
)


@st.composite
def intervals(draw):
    """Intervals that are general, touch 0 or 1, or share a denominator."""
    shape = draw(st.sampled_from(["general", "zero", "one", "shared"]))
    if shape == "shared":
        d = draw(st.integers(min_value=2, max_value=1500))
        p = draw(st.integers(min_value=0, max_value=d - 1))
        r = draw(st.integers(min_value=p + 1, max_value=d))
        return Fraction(p, d), Fraction(r, d)
    a, b = draw(unit_fractions), draw(unit_fractions)
    if shape == "zero":
        a = Fraction(0)
    elif shape == "one":
        b = Fraction(1)
    if a == b:
        a, b = Fraction(0), Fraction(1)
    return min(a, b), max(a, b)


@given(interval=intervals(), closed=st.booleans())
@settings(max_examples=300, deadline=None)
def test_min_entry_matches_denominator_scan(interval, closed):
    lo, hi = interval
    # the mediant lies inside, so the answer's denominator is <= 3000
    q = scan_min_entry(lo, hi, closed)
    assert min_entry_in(lo, hi, closed) == (sieve_index(q), q)


@st.composite
def deep_intervals(draw):
    """Intervals between multiples of 3^-k, k up to 60, of any width down to 3^-k."""
    k = draw(st.integers(min_value=1, max_value=60))
    d = 3**k
    p = draw(st.integers(min_value=0, max_value=d - 1))
    r = min(d, p + 3 ** draw(st.integers(min_value=0, max_value=k)))
    return Fraction(p, d), Fraction(r, d)


def no_later_than(q: Fraction, n: int) -> bool:
    """Does q come no later than q_n?  A larger denominator always comes
    later; otherwise q's index is cheap to count."""
    return q.denominator <= rational_at(n).denominator and rational_index(q) <= n


TABLE_END = count_up_to(1024)


@given(
    interval=st.one_of(intervals(), deep_intervals()),
    closed=st.booleans(),
    n=st.one_of(
        st.integers(min_value=0, max_value=10**12),
        st.integers(min_value=TABLE_END - 100, max_value=TABLE_END + 100),
    ),
)
# 2/5 is the answer of (1/3, 1/2): q_8, after 1/5 = q_7 of the same denominator ...
@example(interval=(Fraction(1, 3), Fraction(1, 2)), closed=False, n=8)
@example(interval=(Fraction(1, 3), Fraction(1, 2)), closed=False, n=7)
@example(interval=(Fraction(1, 3), Fraction(1, 2)), closed=False, n=6)
# ... and the closed interval's answer is its endpoint 1/2, q_2
@example(interval=(Fraction(1, 3), Fraction(1, 2)), closed=True, n=2)
@example(interval=(Fraction(1, 3), Fraction(1, 2)), closed=True, n=1)
@example(interval=(Fraction(0), Fraction(1, 3**60)), closed=True, n=0)
@example(interval=(Fraction(0), Fraction(1, 3**60)), closed=False, n=10**12)
@settings(max_examples=150, deadline=None)
def test_min_rational_in_stops_at_last(interval, closed, n):
    lo, hi = interval
    q = min_rational_in(lo, hi, closed)
    want = q if no_later_than(q, n) else None
    assert min_rational_in(lo, hi, closed, last=rational_at(n)) == want


def test_min_entry_in_pairs_index_with_value():
    idx, q = min_entry_in(Fraction(1, 10), Fraction(1, 5))
    assert (idx, q) == (11, Fraction(1, 6))
    idx, q = min_entry_in(Fraction(9, 10), Fraction(1), closed=True)
    assert (idx, q) == (1, Fraction(1))
    # the huge-index case: value comes back without walking the enumeration
    idx, q = min_entry_in(Fraction(265719, 265720), Fraction(265721, 265722))
    assert q == Fraction(265720, 265721)
    assert rational_index(q) == idx


def test_parse_and_format():
    assert parse_rational("2/3") == Fraction(2, 3)
    assert parse_rational("4/6") == Fraction(2, 3)
    assert parse_rational("1") == Fraction(1)
    assert parse_rational(" 0 ") == Fraction(0)
    for bad in ["", "a", "1/2/3", "-1/2", "0.5", "1/0", "١/٢", "３", "1/٢"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


@given(st.fractions(min_value=-2, max_value=3, max_denominator=50))
@settings(max_examples=200, deadline=None)
def test_check_unit_matches_the_order_of_fractions(q):
    if 0 <= q <= 1:
        assert check_unit(q) is q
    else:
        with pytest.raises(ValueError, match="outside"):
            check_unit(q)


def test_check_unit_needs_a_fraction():
    for q in (0, 1, 0.5, "1/2"):
        with pytest.raises(ValueError, match="expected a Fraction"):
            check_unit(q)


def oracle_totient_sum(n: int, memo: dict[int, int]) -> int:
    """Phi(n) for n > 1024 as the library counted it before batches: the
    quotient recursion over the fixed 1024 table, memoised for one call."""
    total = memo.get(n)
    if total is not None:
        return total
    total = n * (n + 1) // 2
    k = 2
    while k <= n:
        quotient = n // k
        last = n // quotient  # every k' in [k, last] has n // k' == quotient
        if quotient <= 1024:
            total -= (last - k + 1) * (SIEVE[quotient] - 1)
        else:
            total -= (last - k + 1) * oracle_totient_sum(quotient, memo)
        k = last + 1
    memo[n] = total
    return total


def oracle_coprimes_below(p: int, d: int) -> int:
    """How many k in [1, p) are coprime to d, by inclusion-exclusion over
    d's prime factors, found by trial division."""
    primes, rest, f = [], d, 2
    while f * f <= rest:
        if rest % f == 0:
            primes.append(f)
            while rest % f == 0:
                rest //= f
        f += 1
    if rest > 1:
        primes.append(rest)
    return sum(
        (-1) ** r * ((p - 1) // prod(subset))
        for r in range(len(primes) + 1)
        for subset in combinations(primes, r)
    )


def oracle_index(q: Fraction) -> int:
    p, d = q.numerator, q.denominator
    if d == 1:
        return p
    below = SIEVE[d - 1] if d - 1 <= 1024 else 1 + oracle_totient_sum(d - 1, {})
    return below + oracle_coprimes_below(p, d)


def reduced(draw, d: int) -> Fraction:
    """A rational of denominator exactly d: the first numerator coprime to d
    from a drawn start."""
    if d == 1:
        return Fraction(draw(st.integers(0, 1)))
    p = draw(st.integers(1, d - 1))
    while gcd(p, d) != 1:
        p = p % (d - 1) + 1
    return Fraction(p, d)


@st.composite
def index_batches(draw):
    """An unsorted batch with repeats whose largest denominator is `top`;
    the others sit within a few of 1024, of the batch's sieve end, of the
    cap and of `top`, and count the entries of d - 1 on both sides of each."""
    top = draw(st.one_of(st.integers(1, 3000), st.integers(1025, 10**6),
                         st.integers(_SIEVE_CAP - 10, _SIEVE_CAP + 10)))
    edges = [e for e in (1024, _sieve_limit(top), _SIEVE_CAP, top) if e <= top]
    denominators = [top] + [
        min(top, max(1, draw(st.sampled_from(edges)) + draw(st.integers(-2, 3))))
        for _ in range(draw(st.integers(0, 5)))
    ]
    batch = [reduced(draw, d) for d in denominators]
    batch += draw(st.lists(st.sampled_from(batch), max_size=3))
    return draw(st.permutations(batch))


@given(batch=index_batches())
@settings(max_examples=40, deadline=None)
def test_rational_indices_match_the_old_recursion(batch):
    assert rational_indices(batch) == [oracle_index(q) for q in batch]


@given(batch=index_batches(), cap=st.integers(1025, 1100))
@example(batch=[Fraction(1, _SIEVE_CAP + 1), Fraction(5, 7), Fraction(1, _SIEVE_CAP + 1)], cap=1025)
@settings(max_examples=15, deadline=None)
def test_a_capped_sieve_still_counts_exactly(batch, cap):
    # a cap far below sqrt(d) sends the recursion past the sieve's end
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rationals, "_SIEVE_CAP", cap)
        assert rational_indices(batch) == [oracle_index(q) for q in batch]


def test_count_table_matches_a_plain_sieve():
    # past 2^17 + 2 the sieve of 2's multiples, and of 3's, takes a second slice
    n = 2**18 + 5
    assert list(_count_table(n)) == sieve_counts(n)


def test_count_table_sums_in_place():
    # the prefix sums overwrite phi a slice at a time; a second table of
    # the same size would double the peak
    tracemalloc.start()
    try:
        counts = _count_table(1 << 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * counts.itemsize * len(counts)


def test_rational_indices_of_an_empty_batch():
    assert rational_indices([]) == []


def test_the_sieve_stays_under_its_cap():
    # read off the limit alone: a capped sieve would take 32 MiB
    limits = [_sieve_limit(10**k) for k in range(0, 401, 5)]
    assert all(1024 <= n <= _SIEVE_CAP for n in limits)
    assert limits == sorted(limits) and limits[-1] == _SIEVE_CAP
    for d in (1, 1025, 10**6, 3**17):
        assert len(_IndexCounter(d)._counts) == _sieve_limit(d) + 1


def test_a_sieve_past_the_fixed_table_reads_q_n():
    # a batch to denominator 200,000 sieves to 1,709: q_n below C(1709)
    # is read off that sieve, and past it found by the estimate
    counter = _IndexCounter(200_000)
    assert len(counter._counts) == 1710
    for edge in (1024, 1709):
        for n in range(SIEVE[edge] - 3, SIEVE[edge] + 3):
            q = counter.at(n)
            assert SIEVE[q.denominator - 1] <= n < SIEVE[q.denominator]
            assert sieve_index(q) == n
            assert counter.indices([q]) == [n]


@st.composite
def deep_rationals(draw):
    """Rationals whose denominators lie between 3^13 and 3^17."""
    return reduced(draw, draw(st.integers(3**13, 3**17)))


@given(q=deep_rationals())
@example(q=Fraction(1, 3**13))
@example(q=Fraction(3**17 - 1, 3**17))
@settings(max_examples=8, deadline=None)
def test_round_trip_at_encoding_depths(q):
    assert rational_at(rational_index(q)) == q
