"""Canonical enumeration of the rationals in [0, 1].

The fixed enumeration used everywhere in this package lists reduced
fractions by increasing denominator, then increasing numerator:

    q_0 = 0, q_1 = 1, q_2 = 1/2, q_3 = 1/3, q_4 = 2/3, q_5 = 1/4, q_6 = 3/4, ...

Denominator 1 contributes 0 and 1; denominator d >= 2 contributes its
phi(d) reduced numerators in ascending order.  Every rational in [0, 1]
appears exactly once, so the enumeration has an exact inverse
(`rational_index`) and a least-index search over intervals
(`min_entry_in`).  All arithmetic is `fractions.Fraction` or `int`;
nothing here is approximate.

Index arithmetic never walks the enumeration across denominators.
The entries with denominator <= d number 1 + Phi(d), where
Phi(n) = phi(1) + ... + phi(n) is the summatory totient.  Up to
denominator 1024 it is read from a fixed table; beyond that it comes
from the recursion

    Phi(n) = n(n+1)/2 - sum_{k>=2} Phi(n // k),

grouped over the O(sqrt n) distinct quotients n // k and memoised in a
dict that lives for one call, which takes sublinear time.  The position
inside denominator d is an inclusion-exclusion count over the
squarefree divisors of d, listed once per call.  `rational_at` reads
the denominator of an index below the table's end off the table; past
it, it estimates d from Phi(d) ~ 3 d^2 / pi^2 and corrects the
estimate by single totients, each the inclusion-exclusion count of
all of [1, d].  Either way it bisects the numerator on that count.
The least-index rational of an interval is its Stern-Brocot
simplest rational, found by continued-fraction descent in O(log d)
steps.  No cache grows with the input: memory stays flat however deep
the denominators go.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from fractions import Fraction
from math import isqrt

__all__ = [
    "check_unit",
    "parse_rational",
    "rational_at",
    "rational_index",
    "min_rational_in",
    "min_entry_in",
    "fractions_up_to",
    "count_up_to",
]

# ASCII digits only: `\d` would also take other scripts' digits, such as "١/٢"
_RATIONAL_RE = re.compile(r"^([0-9]+)(?:/([0-9]+))?$")

_TABLE_LIMIT = 1024


def _count_table(limit: int) -> tuple[int, ...]:
    """counts[d] = entries with denominator <= d, for 0 <= d <= limit."""
    phi = list(range(limit + 1))
    for p in range(2, limit + 1):
        if phi[p] == p:  # p is prime; sieve out its factor from all multiples
            for m in range(p, limit + 1, p):
                phi[m] -= phi[m] // p
    counts = [0, 2]
    for d in range(2, limit + 1):
        counts.append(counts[-1] + phi[d])
    return tuple(counts)


# Fixed at import; counts[d] == 1 + Phi(d) for d >= 1.
_COUNTS = _count_table(_TABLE_LIMIT)


def check_unit(q: Fraction) -> Fraction:
    """Return q unchanged, raising ValueError unless 0 <= q <= 1."""
    if not isinstance(q, Fraction):
        raise ValueError(f"expected a Fraction, got {q!r}")
    # a Fraction's denominator is positive, so integer comparisons decide it
    if not 0 <= q.numerator <= q.denominator:
        raise ValueError(f"{q} lies outside [0, 1]")
    return q


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (lowest terms not required) or a bare integer."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise ValueError(f"not a rational: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise ValueError(f"zero denominator: {text!r}")
    return Fraction(num, den)


def _totient_sum(n: int, memo: dict[int, int]) -> int:
    """Phi(n) for n > _TABLE_LIMIT, by the quotient recursion over the fixed table."""
    total = memo.get(n)
    if total is not None:
        return total
    total = n * (n + 1) // 2
    k = 2
    while k <= n:
        quotient = n // k
        last = n // quotient  # every k' in [k, last] has n // k' == quotient
        if quotient <= _TABLE_LIMIT:
            total -= (last - k + 1) * (_COUNTS[quotient] - 1)
        else:
            total -= (last - k + 1) * _totient_sum(quotient, memo)
        k = last + 1
    memo[n] = total
    return total


def _count(d: int) -> int:
    """How many entries have denominator <= d, for d >= 0."""
    if d <= _TABLE_LIMIT:
        return _COUNTS[d]
    return 1 + _totient_sum(d, {})


def rational_at(n: int) -> Fraction:
    """Return q_n, the n-th rational of the enumeration."""
    if n < 0:
        raise ValueError("index must be a natural number")
    if n == 0:
        return Fraction(0)
    if n == 1:
        return Fraction(1)
    if n < _COUNTS[-1]:
        d = bisect_right(_COUNTS, n)
        below = _COUNTS[d - 1]
    else:
        # count(d) = 3 d^2 / pi^2 + O(d log d): start at the estimate and
        # step by single totients, keeping below == count(d - 1)
        d = max(_TABLE_LIMIT + 1, isqrt(n * 328986813369645 // 10**14))
        below = _count(d - 1)
        while below > n:
            d -= 1
            below -= _coprimes_below(d + 1, _signed_divisors(d))
        while n >= below + (phi := _coprimes_below(d + 1, _signed_divisors(d))):
            below += phi
            d += 1
    # the (n - below)-th numerator coprime to d: the least p with more
    # than n - below coprimes to d in [1, p]
    offset = n - below
    divisors = _signed_divisors(d)
    p = 1 + bisect_left(
        range(1, d), True, key=lambda m: _coprimes_below(m + 1, divisors) > offset
    )
    return Fraction(p, d)


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
    """Inverse of `rational_at`: the unique n with q_n == q."""
    check_unit(q)
    p, d = q.numerator, q.denominator
    if d == 1:
        return p
    return _count(d - 1) + _coprimes_below(p, _signed_divisors(d))


def _simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The least-denominator rational strictly inside (lo, hi), 0 <= lo < hi <= 1.

    Stern-Brocot descent from the bounds 0/1 and 1/1: each round moves
    one bound as far toward the interval as it can go in one batch of
    equal steps, which is one continued-fraction term, so the loop runs
    O(log d) times.  The first mediant that lands inside is the answer.
    """
    a, b = lo.numerator, lo.denominator
    c, e = hi.numerator, hi.denominator
    pl, ql, pr, qr = 0, 1, 1, 1
    while True:
        pm, qm = pl + pr, ql + qr
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


def min_rational_in(lo: Fraction, hi: Fraction, closed: bool = False) -> Fraction:
    """Least-index enumeration rational in (lo, hi), or [lo, hi] when closed.

    The enumeration is denominator-major, and for d >= 2 an interval
    holds at most one reduced fraction of its least denominator (two
    with the same denominator always have a smaller one between them),
    so the answer is the Stern-Brocot simplest rational of the open
    interval.  A closed interval also competes its endpoints, compared
    by (denominator, numerator): that order agrees with the
    enumeration, including at denominator 1, where 0 (index 0) precedes
    1 (index 1).  No index is computed.
    """
    check_unit(lo)
    check_unit(hi)
    if lo >= hi:
        raise ValueError("interval must satisfy lo < hi")
    q = _simplest_between(lo, hi)
    if closed:
        q = min((lo, hi, q), key=lambda r: (r.denominator, r.numerator))
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
    next_index = list(_count_table(max_denominator))
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
    return _count(max_denominator)
