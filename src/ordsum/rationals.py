"""Canonical enumeration of the rationals in [0, 1].

The fixed enumeration used everywhere in this package lists reduced
fractions by increasing denominator, then increasing numerator:

    q_0 = 0, q_1 = 1, q_2 = 1/2, q_3 = 1/3, q_4 = 2/3, q_5 = 1/4, q_6 = 3/4, ...

Denominator 1 contributes 0 and 1; denominator d >= 2 contributes its
phi(d) reduced numerators in ascending order.  Every rational in [0, 1]
appears exactly once, so the enumeration has an exact inverse
(`rational_index`) and a least-index search over intervals
(`min_entry_in`).  All arithmetic is `fractions.Fraction` or `int`;
nothing here is approximate.  Checking that a point lies in [0, 1] and
parsing a rational from text are `tnorm`'s (`check_unit`,
`parse_rational`); only code that indexes rationals loads this module.

Index arithmetic never walks the enumeration across denominators.
The entries with denominator <= d number C(d) = 1 + Phi(d), where
Phi(n) = phi(1) + ... + phi(n) is the summatory totient, and

    C(n) = n(n+3)/2 - sum_{k=2..n} C(n // k),

grouped over the O(sqrt n) distinct quotients n // k.  Every lookup,
from an index to a rational or back, goes through one private counter
that serves a batch and no longer: one `rational_at`, one
`rational_index`, one `rational_indices` call or one `l1.theta` is a
batch.  The counter sieves phi up to about D^(2/3) for the batch's
largest denominator D, never below denominator 1024 and never past a
fixed cap, and memoises the recursion above the sieve in one dict, so
a batch builds one sieve and counts each denominator once.  This is
the usual n^(2/3) split for summatory arithmetic functions (Deleglise
and Rivat, "Computing the summation of the Moebius function",
Experimental Mathematics 5, 1996).  The sieve to 1024 is the one every
small batch uses, so it is built once, on first use, and kept: the
fixed table.  The position inside denominator d is an
inclusion-exclusion count over the squarefree divisors of d.  The
counter reads the denominator of an index below its sieve's end off
the sieve; past it, it estimates d from C(d) ~ 3 d^2 / pi^2 and
corrects the estimate by single totients, each the
inclusion-exclusion count of all of [1, d].  Either way it bisects
the numerator on that count.  The least-index rational of an interval
is its Stern-Brocot simplest rational, found by continued-fraction
descent in O(log d) steps.  Nothing but the fixed table outlives a
batch, so memory stays bounded by one batch's sieve however deep the
denominators go.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cache
from itertools import accumulate
from math import isqrt

from .tnorm import check_unit

__all__ = [
    "rational_at",
    "rational_index",
    "rational_indices",
    "min_rational_in",
    "min_entry_in",
    "fractions_up_to",
    "count_up_to",
]

_TABLE_LIMIT = 1024
# A batch's sieve ends near _SIEVE_SCALE * D^(2/3) for its largest
# denominator D, where building the sieve and running the recursion above
# it cost about the same, and never past _SIEVE_CAP entries (32 MiB at
# 8 bytes each): past the cap the recursion is slower, not wrong.
_SIEVE_SCALE = 0.5
_SIEVE_CAP = 1 << 22


def _count_table(limit: int) -> Sequence[int]:
    """counts[d] = entries with denominator <= d, for 0 <= d <= limit."""
    # loaded on first use, which most commands never make
    from array import array

    phi = array("q", range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] != p:
            continue
        # p is prime; sieve out its factor from all multiples, one at a
        # time when they are few, else a slice of 2^16 at a time, so no
        # list of Python ints outgrows phi
        if p > limit >> 4:
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
            continue
        for start in range(p, limit + 1, p << 16):
            part = slice(start, start + (p << 16), p)
            phi[part] = array("q", [m - m // p for m in phi[part]])
    phi[1] = 2  # denominator 1 holds two entries, 0 and 1
    # prefix sums in place, 2^16 at a time, so no second table is built
    total = 0
    for start in range(0, limit + 1, 1 << 16):
        part = slice(start, start + (1 << 16))
        sums = array("q", accumulate(phi[part], initial=total))
        total = sums[-1]
        phi[part] = sums[1:]
    return phi


@cache
def _fixed_table() -> Sequence[int]:
    """counts[d] for d <= _TABLE_LIMIT, built on first use and never changed."""
    return _count_table(_TABLE_LIMIT)


def _sieve_limit(max_denominator: int) -> int:
    """Where the sieve of a batch whose largest denominator is max_denominator ends."""
    # past 2^40 the cap holds anyway, and the float power stays finite
    scaled = int(_SIEVE_SCALE * min(max_denominator, 1 << 40) ** (2 / 3))
    return max(_TABLE_LIMIT, min(_SIEVE_CAP, scaled))


class _IndexCounter:
    """Index arithmetic for one batch of rationals, and no longer.

    It holds the entry counts up to `_sieve_limit(max_denominator)`, the
    fixed table's when that is its end, and one memo for the quotient
    recursion above them.  Counts of one denominator, or of two whose
    quotients meet, are computed once per batch.
    """

    __slots__ = ("_counts", "_memo")

    def __init__(self, max_denominator: int):
        limit = _sieve_limit(max_denominator)
        self._counts = _fixed_table() if limit == _TABLE_LIMIT else _count_table(limit)
        self._memo: dict[int, int] = {}

    @classmethod
    def up_to(cls, n: int) -> _IndexCounter:
        """A counter for a batch that reaches no further than q_n."""
        return cls(_denominator_estimate(n))

    def count(self, d: int) -> int:
        """How many entries have denominator <= d, for d >= 0.

        C(d) = 1 + Phi(d) obeys C(d) = d(d+3)/2 - sum_{j=2..d} C(d // j).
        Each j <= isqrt(d) is one term; every larger j has a quotient
        q = d // j <= isqrt(d), shared by d // q - d // (q + 1) values of j.
        """
        counts = self._counts
        if d < len(counts):
            return counts[d]
        total = self._memo.get(d)
        if total is None:
            r = isqrt(d)
            # quotients d // j below len(counts) are read off the sieve, and
            # so is every q <= d // (r + 1) unless the cap cut the sieve short
            deep = min(r, d // len(counts))
            m = d // (r + 1)
            small = counts[1 : m + 1] if m < len(counts) else map(self.count, range(1, m + 1))
            total = (
                d * (d + 3) // 2
                - sum([self.count(d // j) for j in range(2, deep + 1)])
                - sum([counts[d // j] for j in range(deep + 1, r + 1)])
                - sum([(d // q - d // (q + 1)) * c for q, c in enumerate(small, 1)])
            )
            self._memo[d] = total
        return total

    def indices(self, qs: list[Fraction]) -> list[int]:
        """The index of each rational in qs, in order.

        p/d with d >= 2 follows the count(d - 1) entries of smaller
        denominators and the numerators below p that are coprime to d.
        """
        out = []
        for q in qs:
            p, d = q.numerator, q.denominator
            n = p if d == 1 else self.count(d - 1) + _coprimes_below(p, _signed_divisors(d))
            out.append(n)
        return out

    def at(self, n: int) -> Fraction:
        """q_n, the n-th rational of the enumeration, for n >= 0."""
        counts = self._counts
        if n < 2:
            return Fraction(n)
        if n < counts[-1]:
            # the sieve reaches q_n's denominator
            d = bisect_right(counts, n)
            return _nth_coprime(d, n - counts[d - 1])
        # count(d) = 3 d^2 / pi^2 + O(d log d): start at the estimate and
        # step by single totients, keeping below == count(d - 1)
        d = _denominator_estimate(n)
        below = self.count(d - 1)
        while below > n:
            d -= 1
            below -= _coprimes_below(d + 1, _signed_divisors(d))
        while n >= below + (phi := _coprimes_below(d + 1, _signed_divisors(d))):
            below += phi
            d += 1
        return _nth_coprime(d, n - below)


def _denominator_estimate(n: int) -> int:
    """About the denominator of q_n, from count(d) ~ 3 d^2 / pi^2; never inside the table."""
    return max(_TABLE_LIMIT + 1, isqrt(n * 328986813369645 // 10**14))


def _nth_coprime(d: int, offset: int) -> Fraction:
    """p/d for the least p with more than offset coprimes to d in [1, p]."""
    divisors = _signed_divisors(d)
    p = 1 + bisect_left(
        range(1, d), True, key=lambda m: _coprimes_below(m + 1, divisors) > offset
    )
    return Fraction(p, d)


def rational_at(n: int) -> Fraction:
    """Return q_n, the n-th rational of the enumeration, from one counter."""
    if n < 0:
        raise ValueError("index must be a natural number")
    return _IndexCounter.up_to(n).at(n)


def _distinct_prime_factors(d: int) -> list[int]:
    out = []
    if d % 2 == 0:
        out.append(2)
        while d % 2 == 0:
            d //= 2
    f = 3
    while f * f <= d:
        if d % f == 0:
            out.append(f)
            while d % f == 0:
                d //= f
        f += 2
    if d > 1:
        out.append(d)
    return out


def _signed_divisors(d: int) -> list[tuple[int, int]]:
    """(k, mu(k)) for every squarefree divisor k of d."""
    out = [(1, 1)]
    for p in _distinct_prime_factors(d):
        out += [(k * p, -mu) for k, mu in out]
    return out


def _coprimes_below(p: int, divisors: list[tuple[int, int]]) -> int:
    """Count integers in [1, p) coprime to d, given d's `_signed_divisors`."""
    return sum(mu * ((p - 1) // k) for k, mu in divisors)


def rational_index(q: Fraction) -> int:
    """Inverse of `rational_at`: the unique n with q_n == q, from one counter."""
    return rational_indices([q])[0]


def rational_indices(qs: Iterable[Fraction]) -> list[int]:
    """The index of each rational of a batch, in order, from one counter."""
    qs = [check_unit(q) for q in qs]
    return _IndexCounter(max((q.denominator for q in qs), default=1)).indices(qs)


def _enumeration_key(q: Fraction) -> tuple[int, int]:
    """The enumeration's order: (denominator, numerator), which puts 0 = q_0 before 1 = q_1."""
    return q.denominator, q.numerator


def _simplest_between(lo: Fraction, hi: Fraction, max_denominator: int | None) -> Fraction | None:
    """The least-denominator rational strictly inside (lo, hi), 0 <= lo < hi <= 1.

    Stern-Brocot descent from the bounds 0/1 and 1/1: each round moves
    one bound as far toward the interval as it can go in one batch of
    equal steps, which is one continued-fraction term, so the loop runs
    O(log d) times.  The first mediant that lands inside is the answer.
    Every rational strictly between the bounds pl/ql and pr/qr has a
    denominator of at least ql + qr, so once that exceeds
    `max_denominator` the descent stops and returns None.
    """
    a, b = lo.numerator, lo.denominator
    c, e = hi.numerator, hi.denominator
    pl, ql, pr, qr = 0, 1, 1, 1
    while True:
        pm, qm = pl + pr, ql + qr
        if max_denominator is not None and qm > max_denominator:
            return None
        if pm * b <= a * qm:
            # mediant <= lo: the largest k with (pl + k pr)/(ql + k qr) <= lo
            k = (a * ql - b * pl) // (b * pr - a * qr)
            pl, ql = pl + k * pr, ql + k * qr
        elif pm * e >= c * qm:
            # mediant >= hi: the largest k with (pr + k pl)/(qr + k ql) >= hi
            k = (e * pr - c * qr) // (c * ql - e * pl)
            pr, qr = pr + k * pl, qr + k * ql
        else:
            return Fraction(pm, qm)


def min_rational_in(
    lo: Fraction, hi: Fraction, closed: bool = False, last: Fraction | None = None
) -> Fraction | None:
    """Least-index enumeration rational in (lo, hi), or [lo, hi] when closed.

    The enumeration is denominator-major, and for d >= 2 an interval
    holds at most one reduced fraction of its least denominator (two
    with the same denominator always have a smaller one between them),
    so the answer is the Stern-Brocot simplest rational of the open
    interval.  A closed interval also competes its endpoints, compared
    by `_enumeration_key`.  Given `last`, the answer is returned only
    when it comes no later than `last` in the enumeration, else None;
    the descent then stops at `last`'s denominator.  No index is
    computed.
    """
    check_unit(lo)
    check_unit(hi)
    if lo >= hi:
        raise ValueError("interval must satisfy lo < hi")
    q = _simplest_between(lo, hi, None if last is None else last.denominator)
    if closed:
        q = min((r for r in (lo, hi, q) if r is not None), key=_enumeration_key)
    if q is None or (last is not None and _enumeration_key(q) > _enumeration_key(last)):
        return None
    return q


def min_entry_in(
    lo: Fraction, hi: Fraction, closed: bool = False
) -> tuple[int, Fraction]:
    """(index, value) of `min_rational_in(lo, hi, closed)`.

    The index costs one summatory-totient evaluation, with no walk over
    the enumeration.
    """
    q = min_rational_in(lo, hi, closed)
    return rational_index(q), q


def fractions_up_to(max_denominator: int) -> list[tuple[Fraction, int]]:
    """All enumeration entries with denominator <= max_denominator.

    Returns (value, index) pairs sorted by value; used for bounded
    quantifier scans over "every rational of denominator <= D".  The
    Farey sequence of order D comes out in value order, each term from
    the two before it, so nothing is sorted.  Within one denominator d
    the numerators then arrive in increasing order, so each entry's
    index is the next one of d's run, which starts at 1 + Phi(d - 1).
    """
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    # next_index[d - 1] is the index of the next entry with denominator d
    next_index = _count_table(max_denominator)
    items = [(Fraction(0), 0)]
    a, b, c, d = 0, 1, 1, max_denominator
    while d > 1:
        items.append((Fraction(c, d), next_index[d - 1]))
        next_index[d - 1] += 1
        k = (max_denominator + b) // d
        a, b, c, d = c, d, k * c - a, k * d - b
    items.append((Fraction(1), 1))
    return items


def count_up_to(max_denominator: int) -> int:
    """How many enumeration entries have denominator <= max_denominator."""
    if max_denominator < 1:
        raise ValueError("max_denominator must be >= 1")
    return _IndexCounter(max_denominator).count(max_denominator)
