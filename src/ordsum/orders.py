"""Linear orders on an initial segment of the naturals, and their t-norms.

A strict linear order on {0, 1, 2, ...} is turned into a t-norm by
assigning element n an open interval I_n of length 3^-(n+1), placed in
the middle of the window its already-placed neighbors leave open:

    x_n = max({0} union {b_k : k below n, k < n})
    y_n = min({a_k : n below k, k < n} union {1})
    a_n = (x_n + y_n - 3^-(n+1)) / 2,  b_n = a_n + 3^-(n+1)

Each I_n carries a Product piece.  The placement embeds the order:
m below n holds exactly when b_m < a_n, and the windows never collapse,
so truncating after N pieces changes the operation by at most
2 * sum of the remaining lengths = 3^-N.

The endpoints of I_n are integers over 6^(n+1), by induction on n: x_n
and y_n are 0, 1 or earlier endpoints, integers X and Y over 6^n, so
a_n = (3(X + Y) - 2^n) / 6^(n+1) and b_n = (3(X + Y) + 2^n) / 6^(n+1);
the halving keeps a factor 2, so most are not over 3^(n+1).

Because the placement embeds the order, x_n and y_n are the facing
endpoints of n's nearest placed neighbours below and above.  The placed
elements are kept sorted by position, so placing a new piece costs one
binary search of O(log n) `less` comparisons, and a lazy generator
extends its placement without recomputing any piece already placed.
Its walk reads the first n pieces off that list, left to right, with
every gap between them that no later piece can enter (`_gap_is_final`).

Three named orders are terms over omega, and each term derives its
facts from its parts.  rev(A) keeps A's numbering and swaps its
extremes.  A + B numbers A's element k as 2k + parity and B's as
2k + 1 - parity; it has a least element exactly when A has one and a
greatest exactly when B has one, its adjacent pairs are A's, B's and
(max A, min B) when both exist, and it is dense exactly when A and B
are and that pair does not exist.  A term asks its parts' `_less` and
`_adjacent`, so an element is checked once, by the outermost order.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cache

from .tnorm import (
    IDEMPOTENT,
    MAX_LAZY_PIECES,
    FinitePresentation,
    InPiece,
    Label,
    Piece,
    PieceGenerator,
    PreconditionError,
    TNorm,
    UnknownAtDepth,
    check_unit,
    parse_natural,
)

__all__ = [
    "LinearOrder",
    "FiniteOrder",
    "OmegaOrder",
    "EtaOrder",
    "NAMED_ORDERS",
    "parse_order",
    "build_intervals",
    "OrderPieceGenerator",
    "order_tnorm",
    "sampled_distance",
    "agreement_ball_check",
]


class LinearOrder(ABC):
    """Strict linear order on {0..size-1}, or on all naturals when size is None.

    The structural attributes are certificates: for every order shipped
    here, `min_element`/`max_element` are the actual extremes or None
    exactly when no extreme exists, `dense` states order density, and
    `adjacent(m, n)` decides immediate succession.  Both refuse an
    element outside the order, then ask the subclass's `_less` and
    `_adjacent`.
    """

    name: str
    size: int | None = None
    min_element: int | None = None
    max_element: int | None = None
    dense: bool = False

    def less(self, m: int, n: int) -> bool:
        self._check_index(m)
        self._check_index(n)
        return self._less(m, n)

    def adjacent(self, m: int, n: int) -> bool:
        """Whether m lies immediately below n with nothing between."""
        self._check_index(m)
        self._check_index(n)
        return self._adjacent(m, n)

    @abstractmethod
    def _less(self, m: int, n: int) -> bool:
        raise NotImplementedError

    @abstractmethod
    def _adjacent(self, m: int, n: int) -> bool:
        raise NotImplementedError

    def _check_index(self, n: int) -> None:
        if n < 0:
            raise PreconditionError(f"negative element {n}")
        if self.size is not None and n >= self.size:
            raise PreconditionError(f"element {n} outside finite order of size {self.size}")


class OmegaOrder(LinearOrder):
    """The naturals in their usual order."""

    name = "omega"
    min_element = 0

    def _less(self, m, n):
        return m < n

    def _adjacent(self, m, n):
        return n == m + 1


class EtaOrder(LinearOrder):
    """Dense order without endpoints: n compares as the rational q_{n+2}."""

    name = "eta"
    dense = True

    def __init__(self):
        from .rationals import rational_at  # only eta orders index rationals

        # placing piece n compares it with O(log n) placed pieces, each
        # asked about again for every later piece: look each q_n up once
        self._q = cache(rational_at)

    def _less(self, m, n):
        return self._q(m + 2) < self._q(n + 2)

    def _adjacent(self, m, n):
        return False


class FiniteOrder(LinearOrder):
    """Order on {0..k-1} where ranks[i] is the rank of element i."""

    def __init__(self, ranks):
        ranks = tuple(int(r) for r in ranks)
        if not ranks:
            raise PreconditionError("finite order needs at least one element")
        if len(set(ranks)) != len(ranks) or any(r < 0 for r in ranks):
            raise PreconditionError(f"ranks must be distinct naturals, got {ranks}")
        self.ranks = ranks
        self.size = len(ranks)
        ordered = sorted(range(self.size), key=lambda i: ranks[i])
        self._position = {elt: pos for pos, elt in enumerate(ordered)}
        self.min_element = ordered[0]
        self.max_element = ordered[-1]
        self.name = "finite:" + ",".join(str(r) for r in ranks)

    def _less(self, m, n):
        return self.ranks[m] < self.ranks[n]

    def _adjacent(self, m, n):
        return self._position[n] == self._position[m] + 1


class _Rev(LinearOrder):
    """A reversed, in A's numbering."""

    def __init__(self, a: LinearOrder, name: str = ""):
        self.a, self.size, self.dense, self.name = a, a.size, a.dense, name
        self.min_element, self.max_element = a.max_element, a.min_element

    def _less(self, m, n):
        return self.a._less(n, m)

    def _adjacent(self, m, n):
        return self.a._adjacent(n, m)


class _Sum(LinearOrder):
    """A + B for infinite A and B: A's k is 2k + parity, B's is 2k + 1 - parity."""

    def __init__(self, a: LinearOrder, b: LinearOrder, parity: int, name: str = ""):
        self._parts, self._parity, self.name = (a, b), parity, name
        self.min_element = None if a.min_element is None else 2 * a.min_element + parity
        self.max_element = None if b.max_element is None else 2 * b.max_element + 1 - parity
        both = a.max_element is not None and b.min_element is not None
        self._seam = (a.max_element, b.min_element) if both else None  # parts' numberings
        self.dense = a.dense and b.dense and not both

    def _less(self, m, n):
        side = (m + self._parity) % 2  # 0 in A, 1 in B
        if side != (n + self._parity) % 2:
            return side == 0
        return self._parts[side]._less(m // 2, n // 2)

    def _adjacent(self, m, n):
        side = (m + self._parity) % 2
        if side == (n + self._parity) % 2:
            return self._parts[side]._adjacent(m // 2, n // 2)
        return side == 0 and (m // 2, n // 2) == self._seam


NAMED_ORDERS = {
    "omega": OmegaOrder,
    "omega_star": lambda: _Rev(OmegaOrder(), "omega_star"),
    # rev(omega) on the odds: 0, 2, 4, ... code 0, 1, 2, ... and 1, 3, 5, ... code -1, -2, ...
    "zeta": lambda: _Sum(_Rev(OmegaOrder()), OmegaOrder(), 1, "zeta"),
    "eta": EtaOrder,
    # omega on the evens: 0, 2, 4, ... 5, 3, 1
    "omega_plus_omega_star": lambda: _Sum(OmegaOrder(), _Rev(OmegaOrder()), 0,
                                          "omega_plus_omega_star"),
}


def parse_order(spec: str) -> LinearOrder:
    """Order spec strings: a named order or "finite:3,0,2,1".

    A rank is read by `parse_natural`, as every number is.  A malformed
    spec, repeated ranks included, is a `ValueError`, so it reads as bad
    input wherever it appears; `FiniteOrder` itself refuses repeats.
    More than `MAX_LAZY_PIECES` ranks is a `PreconditionError` before any is read.
    """
    spec = spec.strip()
    if spec in NAMED_ORDERS:
        return NAMED_ORDERS[spec]()
    if spec.startswith("finite:"):
        parts = spec[len("finite:"):].split(",")
        if len(parts) > MAX_LAZY_PIECES:
            raise PreconditionError(f"{len(parts)} ranks exceed the limit of {MAX_LAZY_PIECES}")
        try:
            ranks = [parse_natural(part) for part in parts]
        except PreconditionError:
            raise
        except ValueError:
            raise ValueError(f"bad finite order spec: {spec!r}") from None
        if len(set(ranks)) != len(ranks):
            raise ValueError(f"finite order ranks must be distinct: {spec!r}")
        return FiniteOrder(ranks)
    raise ValueError(f"unknown order spec: {spec!r}")


class _Placement:
    """The intervals I_0..I_{n-1} of an order, extended one piece at a time.

    `intervals` is in index order; `by_position` lists the placed
    elements left to right and is what each new piece binary-searches.
    """

    def __init__(self, order: LinearOrder):
        self.order = order
        self.intervals: list[tuple[Fraction, Fraction]] = []
        self.by_position: list[int] = []

    def extend(self, count: int) -> None:
        less = self.order.less
        intervals = self.intervals
        by_pos = self.by_position
        for n in range(len(intervals), count):
            # by_pos[:lo] lie below n, by_pos[lo:] above it
            lo = bisect_left(by_pos, True, key=lambda k: not less(k, n))
            x = intervals[by_pos[lo - 1]][1] if lo > 0 else Fraction(0)
            y = intervals[by_pos[lo]][0] if lo < len(by_pos) else Fraction(1)
            eps = Fraction(1, 3 ** (n + 1))
            intervals.append(((x + y - eps) / 2, (x + y + eps) / 2))
            by_pos.insert(lo, n)


def build_intervals(order: LinearOrder, count: int) -> list[tuple[Fraction, Fraction]]:
    """The first `count` intervals (a_n, b_n) assigned to 0..count-1."""
    if count < 1:
        raise PreconditionError("need at least one interval")
    if order.size is not None and count > order.size:
        raise PreconditionError(f"order has only {order.size} elements")
    placement = _Placement(order)
    placement.extend(count)
    return placement.intervals


class OrderPieceGenerator(PieceGenerator):
    """Lazy pieces for an infinite order; piece n is I_n with Product label."""

    def __init__(self, order: LinearOrder):
        if order.size is not None:
            raise PreconditionError("finite orders yield finite presentations directly")
        self.order = order
        self._placement = _Placement(order)
        self._intervals = self._placement.intervals
        self.family = f"theta {order.name}"
        self.has_min_piece = order.min_element is not None
        self.has_max_piece = order.max_element is not None
        self.dense_no_endpoints = order.dense and not (self.has_min_piece or self.has_max_piece)

    def tail_length_bound(self, n: int) -> Fraction:
        # sum over k >= n of 3^-(k+1)
        return Fraction(1, 2 * 3**n)

    def _built_by_position(self, depth: int) -> list[int]:
        """Pieces 0..depth-1 left to right, however far the placement has gone."""
        self._placement.extend(depth)
        by_pos = self._placement.by_position
        if len(by_pos) == depth:
            return by_pos
        return [k for k in by_pos if k < depth]

    def locate(self, q: Fraction, depth: int):
        check_unit(q)
        if depth < 1:
            raise PreconditionError("locate depth must be >= 1")
        if q == 0 or q == 1:
            return IDEMPOTENT
        by_pos = self._built_by_position(depth)
        intervals = self._intervals
        # closed pieces are disjoint, so only the last one starting at or
        # before q can hold q, and the pieces around q are its neighbours
        i = bisect_right(by_pos, q, key=lambda k: intervals[k][0])
        left = by_pos[i - 1] if i > 0 else None
        right = by_pos[i] if i < len(by_pos) else None
        if left is not None:
            lo, hi = intervals[left]
            if lo < q < hi:
                return InPiece(left, Piece(lo, hi, Label.P))
            if q == lo or q == hi:
                return IDEMPOTENT
        if self._gap_is_final(left, right):
            return IDEMPOTENT
        return UnknownAtDepth(depth)

    def _gap_is_final(self, left: int | None, right: int | None) -> bool:
        """Whether no later piece can enter the gap between placed neighbours.

        None stands for the end of [0, 1] on that side.  A gap between
        pieces m, n is final exactly when m is immediately below n in the
        order; an outer gap is final when the order's extreme on that
        side is already placed.
        """
        if left is None:
            return right is not None and right == self.order.min_element
        if right is None:
            return left == self.order.max_element
        return self.order.adjacent(left, right)

    def _walk(self, depth: int):
        """Pieces 0..depth-1 and the gaps no later piece can enter, left to right."""
        intervals, left, gap_lo = self._intervals, None, Fraction(0)
        for k in [*self._built_by_position(depth), None]:  # None: the gap up to 1
            lo, hi = (Fraction(1), None) if k is None else intervals[k]
            if self._gap_is_final(left, k):
                yield gap_lo, lo, Label.M
            if k is not None:
                yield lo, hi, Label.P
            left, gap_lo = k, hi


def order_tnorm(order: LinearOrder) -> TNorm:
    """The t-norm encoding an order; finite orders yield finite presentations."""
    if order.size is not None:
        placement = _Placement(order)
        placement.extend(order.size)
        at = placement.intervals
        return FinitePresentation(Piece(*at[k], Label.P) for k in placement.by_position)
    return OrderPieceGenerator(order)


def sampled_distance(t1: FinitePresentation, t2: FinitePresentation, grid: int) -> Fraction:
    """Max |t1 - t2| over the grid x grid lattice {i/(grid-1)}^2."""
    if grid < 2:
        raise PreconditionError("grid needs at least two sample points per axis")
    pts = [Fraction(i, grid - 1) for i in range(grid)]
    return max(
        abs(a - b)
        for row1, row2 in zip(t1.rows(pts), t2.rows(pts))
        for a, b in zip(row1, row2)
    )


def agreement_ball_check(o1: LinearOrder, o2: LinearOrder, n: int, grid: int) -> bool:
    """Orders agreeing on {0..n-1}^2 give t-norms within 3^-n, sampled.

    Raises PreconditionError when the orders actually disagree on the
    claimed square; otherwise compares deep truncations (n + 10 pieces)
    on the lattice against the exact bound 2 * sum_{k>=n} 3^-(k+1).
    """
    if n < 1:
        raise PreconditionError("agreement square must be nonempty")
    for m in range(n):
        for k in range(n):
            if m != k and o1.less(m, k) != o2.less(m, k):
                raise PreconditionError(
                    f"orders disagree on ({m}, {k}) inside the claimed {n}x{n} square"
                )
    t1, t2 = (order_tnorm(o).truncation(n + 10) for o in (o1, o2))
    return sampled_distance(t1, t2, grid) <= Fraction(1, 3**n)
