"""Reference computations that check ordsum's outputs.

Nothing here imports ordsum.  Each routine restates the mathematics of
the paper and the README in a few lines, so the benchmark can tell a
right answer from a wrong one without trusting the code it measures:

- `evaluate`: the ordinal-sum formula on a piece list;
- `order_intervals`: the interval recurrence for linear orders;
- `least_entry`: the least-index rational of an interval, by
  Stern-Brocot descent and a summatory-totient count;
- `ORDERS`: comparators and immediate-successor tests for the named
  orders;
- `cantor_gaps`: the removed gaps of the three Cantor systems.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import floor, gcd, prod

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------- t-norms

def evaluate(pieces, x: Fraction, y: Fraction) -> Fraction:
    """x * y for the ordinal sum of `pieces`, a list of (lo, hi, "P"|"L")."""
    for lo, hi, kind in pieces:
        if lo <= x <= hi and lo <= y <= hi:
            if kind == "P":
                return lo + (x - lo) * (y - lo) / (hi - lo)
            return max(lo, x + y - hi)
    return min(x, y)


def signature(pieces) -> list[tuple[Fraction, Fraction, str]]:
    """Pieces plus the idempotent gaps (label "M") between them, left to right."""
    out = []
    cursor = ZERO
    for lo, hi, kind in sorted(pieces):
        if lo > cursor:
            out.append((cursor, lo, "M"))
        out.append((lo, hi, kind))
        cursor = hi
    if cursor < 1:
        out.append((cursor, ONE, "M"))
    return out


# ------------------------------------------------ enumeration of Q in [0,1]

_SIEVE_LIMIT = 1 << 15


def _small_totient_sums() -> list[int]:
    phi = list(range(_SIEVE_LIMIT + 1))
    for p in range(2, _SIEVE_LIMIT + 1):
        if phi[p] == p:
            for m in range(p, _SIEVE_LIMIT + 1, p):
                phi[m] -= phi[m] // p
    sums = [0] * (_SIEVE_LIMIT + 1)
    for n in range(1, _SIEVE_LIMIT + 1):
        sums[n] = sums[n - 1] + phi[n]
    return sums


_SMALL_SUMS = _small_totient_sums()


@lru_cache(maxsize=None)
def totient_sum(n: int) -> int:
    """phi(1) + ... + phi(n), from n(n+1)/2 = sum over k of Phi(n // k)."""
    if n <= _SIEVE_LIMIT:
        return _SMALL_SUMS[max(n, 0)]
    total = n * (n + 1) // 2
    k = 2
    while k <= n:
        quotient = n // k
        last = n // quotient
        total -= (last - k + 1) * totient_sum(quotient)
        k = last + 1
    return total


def _distinct_primes(d: int) -> list[int]:
    primes = []
    f = 2
    while f * f <= d:
        if d % f == 0:
            primes.append(f)
            while d % f == 0:
                d //= f
        f += 1
    if d > 1:
        primes.append(d)
    return primes


def index_of(q: Fraction) -> int:
    """Position of q in 0, 1, 1/2, 1/3, 2/3, 1/4, 3/4, 1/5, ..."""
    p, d = q.numerator, q.denominator
    if d == 1:
        return p
    primes = _distinct_primes(d)
    coprime_below = sum(
        (-1) ** r * ((p - 1) // prod(chosen))
        for r in range(len(primes) + 1)
        for chosen in combinations(primes, r)
    )
    # 0 and 1, then phi(k) entries for each denominator 2 <= k < d
    return 1 + totient_sum(d - 1) + coprime_below


def enumeration(count: int) -> list[Fraction]:
    """The first `count` rationals of the enumeration."""
    out = [ZERO, ONE]
    d = 2
    while len(out) < count:
        out.extend(Fraction(p, d) for p in range(1, d) if gcd(p, d) == 1)
        d += 1
    return out[:count]


def simplest_between(lo: Fraction, hi: Fraction) -> Fraction:
    """The rational of least denominator strictly inside (lo, hi)."""
    whole = floor(lo)
    if whole + 1 < hi:
        return Fraction(whole + 1)
    lo_r, hi_r = lo - whole, hi - whole
    # x = whole + 1/y, with y in (1/hi_r, 1/lo_r); the simplest y gives the simplest x
    if lo_r == 0:
        y = Fraction(floor(1 / hi_r) + 1)
    else:
        y = simplest_between(1 / hi_r, 1 / lo_r)
    return whole + 1 / y


def least_entry(lo: Fraction, hi: Fraction, closed: bool) -> tuple[int, Fraction]:
    """(index, value) of the least-index rational in (lo, hi), or [lo, hi] if closed."""
    q = simplest_between(lo, hi)
    if closed:
        q = min((lo, hi, q), key=lambda r: (r.denominator, r.numerator))
    return index_of(q), q


def l1_image(entries, size: int):
    """Relations of the index structure on {0..size-1}.

    `entries` holds (lo, hi, closed, label) with label "P", "L" or "M";
    each contributes its least-index rational when that index is below
    size.  Returns ({"P": set, "L": set, "M": set}, set of less pairs).
    """
    relations = {"P": set(), "L": set(), "M": set()}
    values = {}
    for lo, hi, closed, label in entries:
        index, value = least_entry(lo, hi, closed)
        if index < size:
            relations[label].add(index)
            values[index] = value
    less = {(m, n) for m in values for n in values if values[m] < values[n]}
    return relations, less


# ----------------------------------------------------------------- orders

def _zeta(n: int) -> int:
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


def _omega_omega_star(n: int) -> tuple[int, int]:
    return (0, n) if n % 2 == 0 else (1, -n)


class Order:
    """A strict order on naturals given by a sort key and a successor test."""

    def __init__(self, key, adjacent, least=None, greatest=None):
        self.key = key
        self.adjacent = adjacent
        self.least = least
        self.greatest = greatest

    def below(self, m: int, n: int) -> bool:
        return self.key(m) < self.key(n)

    def sorted(self, count: int) -> list[int]:
        return sorted(range(count), key=self.key)


class _EtaKey:
    """n compares as q_{n+2}; the enumeration prefix grows on demand."""

    def __init__(self):
        self.values = enumeration(2)

    def __call__(self, n: int) -> Fraction:
        if n + 2 >= len(self.values):
            self.values = enumeration(2 * (n + 3))
        return self.values[n + 2]


ORDERS = {
    "omega": Order(lambda n: n, lambda m, n: n == m + 1, least=0),
    "omega_star": Order(lambda n: -n, lambda m, n: n == m - 1, greatest=0),
    "zeta": Order(_zeta, lambda m, n: _zeta(n) == _zeta(m) + 1),
    "eta": Order(_EtaKey(), lambda m, n: False),
    "omega_plus_omega_star": Order(
        _omega_omega_star,
        lambda m, n: (m % 2 == n % 2 == 0 and n == m + 2)
        or (m % 2 == n % 2 == 1 and n == m - 2),
        least=0,
        greatest=1,
    ),
}


def finite_order(ranks: list[int]) -> Order:
    """Element i has rank ranks[i]; ranks are a permutation of 0..k-1."""
    ranks = list(ranks)
    return Order(
        lambda n: ranks[n],
        lambda m, n: ranks[n] == ranks[m] + 1,
        least=ranks.index(0),
        greatest=ranks.index(len(ranks) - 1),
    )


def order_intervals(order: Order, count: int) -> list[tuple[Fraction, Fraction]]:
    """(a_n, b_n) for n < count: the window left by placed neighbours, centred.

    x_n = max({0} | {b_k : k below n}), y_n = min({1} | {a_k : n below k}),
    a_n = (x_n + y_n - 3^-(n+1)) / 2 and b_n = a_n + 3^-(n+1), over k < n.
    """
    placed: list[tuple[Fraction, Fraction]] = []
    for n in range(count):
        x = max([ZERO] + [b for k, (_, b) in enumerate(placed) if order.below(k, n)])
        y = min([ONE] + [a for k, (a, _) in enumerate(placed) if order.below(n, k)])
        width = Fraction(1, 3 ** (n + 1))
        a = (x + y - width) / 2
        placed.append((a, a + width))
    return placed


def certified_gaps(order: Order, intervals) -> list[tuple[Fraction, Fraction]]:
    """Idempotent intervals that no later element's interval can enter.

    Between two positionally consecutive placed intervals when the order
    has nothing between their elements; at the ends when the order's
    least or greatest element is placed there.
    """
    by_position = sorted(range(len(intervals)), key=lambda k: intervals[k][0])
    gaps = []
    if by_position[0] == order.least:
        gaps.append((ZERO, intervals[by_position[0]][0]))
    for m, n in zip(by_position, by_position[1:]):
        if order.adjacent(m, n):
            gaps.append((intervals[m][1], intervals[n][0]))
    if by_position[-1] == order.greatest:
        gaps.append((intervals[by_position[-1]][1], ONE))
    return gaps


def ladder_pieces(anchor: str, count: int) -> list[tuple[Fraction, Fraction]]:
    """Rungs (1/(n+2), 1/(n+1)) for limit-right, mirrored onto 1 for limit-left."""
    rungs = [(Fraction(1, n + 2), Fraction(1, n + 1)) for n in range(count)]
    if anchor == "limit-left":
        rungs = [(1 - hi, 1 - lo) for lo, hi in rungs]
    return rungs


# ----------------------------------------------------------------- Cantor

def _middle_third_level(d: int):
    """Boxes at depth d: [L/3^d, (L+1)/3^d] with L a sum of digits 0 or 2."""
    scale = 3 ** d
    for j in range(2 ** d):
        left = sum(2 * 3 ** (d - 1 - i) for i in range(d) if (j >> (d - 1 - i)) & 1)
        yield Fraction(left, scale), Fraction(left + 1, scale)


def cantor_gaps(system: str, depth: int) -> list[tuple[Fraction, Fraction]]:
    """Gaps removed from every box shallower than `depth`, in removal order.

    Level by level, left to right within a level, and left to right
    within one box for the two-gap rule.
    """
    gaps = []
    if system == "middle-third":
        for d in range(depth):
            third = Fraction(1, 3 ** (d + 1))
            gaps.extend((lo + third, lo + 2 * third) for lo, _ in _middle_third_level(d))
        return gaps
    boxes = [(ZERO, ONE)]
    for d in range(depth):
        children = []
        for lo, hi in boxes:
            w = hi - lo
            if system == "svc":
                mid, g = (lo + hi) / 2, Fraction(1, 4 ** (d + 1))
                gaps.append((mid - g / 2, mid + g / 2))
                children += [(lo, mid - g / 2), (mid + g / 2, hi)]
            elif system == "non-e":
                gaps += [(lo, lo + w / 4), (lo + w / 2, lo + 3 * w / 4)]
                children += [(lo + w / 4, lo + w / 2), (lo + 3 * w / 4, hi)]
            else:
                raise ValueError(f"unknown Cantor system {system!r}")
        boxes = children
    return gaps


def cantor_first_gaps(system: str, count: int) -> list[tuple[Fraction, Fraction]]:
    """The first `count` gaps in removal order."""
    per_node = 2 if system == "non-e" else 1
    depth = 0
    while per_node * (2 ** depth - 1) < count:
        depth += 1
    return cantor_gaps(system, depth)[:count]
