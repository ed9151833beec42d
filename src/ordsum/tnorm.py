"""Ordinal-sum t-norms with exact rational evaluation.

A presentation is a set of disjoint open subintervals of [0, 1], each
labeled Product or Lukasiewicz.  Inside a piece (lo, hi):

    Product:      x * y = lo + (x - lo)(y - lo) / (hi - lo)
    Lukasiewicz:  x * y = max(lo, x + y - hi)

and x * y = min(x, y) whenever x and y do not share a piece.

A t-norm is its presentation, and `TNorm` is the one contract of the
two kinds: `locate`, `entries`, `truncation`, `tail_length_bound` and
`eval_approx`.  A `PieceGenerator` is a lazy presentation: it walks
its first N pieces left to right, with a certified bound on the total
length of every later piece, so evaluation at truncation N carries
the exact error bound 2 * tail_length_bound(N).  A
`FinitePresentation` lists its pieces, evaluates exactly, and answers
the rest trivially: it is its own truncation, with tail bound 0.

Every point of [0, 1] the package takes is checked here (`check_unit`),
and every number a user writes is read here (`parse_natural`), so a
command that indexes no rational never loads `rationals`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement, pairwise, product
from math import ceil, lcm

__all__ = [
    "check_unit",
    "parse_natural",
    "parse_rational",
    "Label",
    "Record",
    "Piece",
    "check_left_to_right",
    "FinitePresentation",
    "PieceGenerator",
    "InPiece",
    "IDEMPOTENT",
    "UnknownAtDepth",
    "TNorm",
    "PreconditionError",
    "check_lazy_depth",
    "AxiomReport",
    "Violation",
    "check_axioms",
    "find_idempotent_power",
    "uncovered",
    "first_shared_endpoint",
]


def check_unit(q: Fraction) -> Fraction:
    """Return q unchanged, raising ValueError unless 0 <= q <= 1."""
    if not isinstance(q, Fraction):
        raise ValueError(f"expected a Fraction, got {q!r}")
    # a Fraction's denominator is positive, so integer comparisons decide it
    if not 0 <= q.numerator <= q.denominator:
        raise ValueError(f"{q} lies outside [0, 1]")
    return q


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions."""


# the most digits of one written number: a numerator, a denominator, an
# integer word or a rank.  `int` of a long text is quadratic, and at 100
# digits `surface` of `piece 1/D (D-1)/D P` at grid 1000 takes about 6 s
# and `eval`'s value stays far below Python's 4,300-digit limit (README)
MAX_DIGITS = 100


def parse_natural(text: str) -> int:
    """The one reader of every number a user writes: ASCII digits 0-9, at most MAX_DIGITS."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError(f"not a natural number: {text!r}")
    if len(text) > MAX_DIGITS:
        raise PreconditionError(f"a number of {len(text)} digits exceeds the limit of {MAX_DIGITS}")
    return int(text)


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (lowest terms not required) or a bare integer."""
    num, slash, den = text.strip().partition("/")
    try:
        return Fraction(parse_natural(num), parse_natural(den) if slash else 1)
    except PreconditionError:
        raise
    except ValueError:
        raise ValueError(f"not a rational: {text!r}") from None
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


# piece n of an order family is 3^-(n+1) wide, its ends over 6^(n+1); at 3200
# pieces, the fewest at which theta of cantor:svc still exceeds the line limit,
# every lazy command on a shipped family takes under a second, and `iso`
# reads no signature deeper in its search for an end entry (README)
MAX_LAZY_PIECES = 3200


def check_lazy_depth(depth: int | None) -> None:
    """Refuse to truncate a lazy presentation to fewer than one piece."""
    if depth is None or depth < 1:
        raise PreconditionError("a lazy presentation needs a depth of at least one piece")


class Label(Enum):
    """Product, Lukasiewicz, or min (an interval of idempotents)."""

    P = "P"
    L = "L"
    M = "M"


class Record:
    """A record that compares and hashes by the values of its `__slots__`.

    Only records that something compares or hashes derive from it; the
    others are plain `__slots__` classes.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and other._values() == self._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):  # pragma: no cover - debug aid
        fields = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({fields})"


class Piece(Record):
    """One labeled open interval (lo, hi) of [0, 1].

    A presentation's pieces are labeled P or L; a signature also holds
    the maximal idempotent intervals, labeled M.
    """

    __slots__ = ("lo", "hi", "label")

    def __init__(self, lo: Fraction, hi: Fraction, label: Label):
        check_unit(lo)
        check_unit(hi)
        if lo >= hi:
            raise ValueError(f"piece needs lo < hi, got ({lo}, {hi})")
        self.lo, self.hi, self.label = lo, hi, label

    def nilpotency_index(self, q: Fraction) -> int:
        """Least l with the l-th power equal to lo (Lukasiewicz pieces only)."""
        if self.label is not Label.L:
            raise PreconditionError("nilpotency index exists only in Lukasiewicz pieces")
        if not self.lo <= q < self.hi:
            raise PreconditionError(f"{q} not in [{self.lo}, {self.hi})")
        return ceil((self.hi - self.lo) / (self.hi - q))


def check_left_to_right(entries) -> tuple[Piece, ...]:
    """`entries` as a tuple, checked to run left to right.

    Raises ValueError when an entry ends after the next one begins, or
    when two M entries touch, since they would be one idempotent interval.
    """
    entries = tuple(entries)
    for a, b in pairwise(entries):
        if a.hi > b.lo:
            raise ValueError(
                f"pieces overlap or are out of order: ({a.lo}, {a.hi}) and ({b.lo}, {b.hi})"
            )
        # the labels first: a P or L entry costs one Fraction comparison
        if a.label is Label.M and b.label is Label.M and a.hi == b.lo:
            raise ValueError("two adjacent M entries would merge; signature malformed")
    return entries


def uncovered(spans) -> list[tuple[Fraction, Fraction]]:
    """Maximal open intervals of [0, 1] outside the closures of `spans`.

    `spans` are (lo, hi) pairs sorted by lo and pairwise disjoint as
    open intervals; a point where two spans touch is not reported.
    """
    out, cursor, one = [], Fraction(0), Fraction(1)
    for lo, hi in (*spans, (one, one)):
        if lo > cursor:
            out.append((cursor, lo))
        cursor = hi
    return out


def first_shared_endpoint(spans) -> int | None:
    """Index of the first of `spans`, (lo, hi) sorted by lo, ending where the next begins."""
    return next((i for i, ((_, hi), (lo, _)) in enumerate(pairwise(spans)) if hi == lo), None)


class InPiece(Record):
    __slots__ = ("index", "piece")

    def __init__(self, index: int, piece: Piece):
        self.index, self.piece = index, piece


class _IdempotentMarker:
    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debug aid
        return "IDEMPOTENT"


IDEMPOTENT = _IdempotentMarker()


class UnknownAtDepth(Record):
    __slots__ = ("depth",)

    def __init__(self, depth: int):
        self.depth = depth


class TNorm(ABC):
    """A continuous t-norm: a finite or a lazy ordinal-sum presentation.

    The contract is `locate`, `entries(depth)`, `truncation(n)`,
    `tail_length_bound(n)` and `eval_approx`; exact `eval` needs a
    finite presentation.  A finite presentation ignores any depth or
    piece count, one below 1 included.
    """

    __slots__ = ()

    @abstractmethod
    def locate(self, q: Fraction, depth: int):
        """Place q relative to the first `depth` pieces.

        Returns InPiece, IDEMPOTENT (certified: q lies in no piece at
        any depth), or UnknownAtDepth.
        """
        raise NotImplementedError

    def eval_approx(self, x: Fraction, y: Fraction, n: int) -> tuple[Fraction, Fraction]:
        """(value at truncation n, certified error bound 2 * tail(n)); 0 when exact."""
        return self.truncation(n).eval(x, y), 2 * self.tail_length_bound(n)


class FinitePresentation(TNorm):
    """Finitely many P and L pieces, given left to right and pairwise disjoint as opens.

    Evaluation runs on the integer numerators and denominators of the ends.
    """

    __slots__ = ("pieces", "_ends")

    def __init__(self, pieces):
        self.pieces = check_left_to_right(pieces)
        if any(p.label is Label.M for p in self.pieces):
            raise ValueError("a piece is labeled P or L; M marks idempotent intervals")
        # (a, b, c, d) for the piece (a/b, c/d)
        self._ends = [(p.lo.numerator, p.lo.denominator, p.hi.numerator, p.hi.denominator)
                      for p in self.pieces]

    def piece_index_of(self, q: Fraction) -> int | None:
        """Index of the last piece whose closed interval contains q, else None."""
        n, d, ends = q.numerator, q.denominator, self._ends
        # the pieces whose lo is at most q come first
        k = bisect_left(ends, True, key=lambda e: n * e[1] < e[0] * d) - 1
        return k if k >= 0 and n * ends[k][3] <= ends[k][2] * d else None

    def _line(self, k: int, p: int, q: int, m: int) -> tuple[int, int, int, int]:
        """(step, base, floor, den) with x * y = max(floor, base + step * r) / den.

        This holds for x = p/q and each y = r/m in piece k's closure, x
        included: the module docstring's formula, with lo = floor / den.
        """
        a, b, c, d = self._ends[k]
        if self.pieces[k].label is Label.P:
            # (x - lo) / (hi - lo) = u / v
            u, v = (p * b - a * q) * d, q * (c * b - a * d)
            return u * b, a * m * (v - u), a * v * m, v * m * b
        return b * q * d, b * m * (p * d - c * q), a * q * d * m, b * q * d * m

    def entries(self, depth: int | None = None) -> tuple[Piece, ...]:
        """The signature entries left to right: the pieces, and as M entries the gaps.

        They are sorted but not checked: the pieces were checked when
        this presentation was made, and a `Signature` checks its entries.
        """
        gaps = (Piece(lo, hi, Label.M) for lo, hi in uncovered((p.lo, p.hi) for p in self.pieces))
        return tuple(sorted((*self.pieces, *gaps), key=lambda p: p.lo))

    def truncation(self, n: int) -> FinitePresentation:
        return self

    def tail_length_bound(self, n: int) -> Fraction:
        return Fraction(0)

    def eval(self, x: Fraction, y: Fraction) -> Fraction:
        """Exact value of x * y; min(x, y) and a piece's lo come back as they are."""
        check_unit(x)
        check_unit(y)
        k = self.piece_index_of(x)
        p, q, r, s = x.numerator, x.denominator, y.numerator, y.denominator
        if k is not None:
            a, b, c, d = self._ends[k]
            # lo <= y < hi and x < hi: at hi the formula gives min(x, y)
            if a * s <= r * b and r * d < c * s and p * d < c * q:
                step, base, floor, den = self._line(k, p, q, s)
                value = base + step * r
                return self.pieces[k].lo if value <= floor else Fraction(value, den)
        return x if p * s <= r * q else y

    def rows(self, points):
        """Yield the row [x * y for y in points] for each x in points, each when asked for."""
        pts = list(points)
        return self._rows(pts, pts, Fraction)

    def _rows(self, pts: list[Fraction], off: list, cell):
        """The rows of `rows`, with off[j] for pts[j] and cell(n, den) for n / den.

        `pts` must be strictly increasing in [0, 1]; they are checked
        before the first row.  Off x's piece, x * y is min(x, y), the
        point of smaller position.  Over one common denominator m each
        piece's closure is a range of positions, and x's line runs on
        the numerators in its piece's range.
        """
        m = lcm(*(check_unit(q).denominator for q in pts))
        rs = [q.numerator * (m // q.denominator) for q in pts]
        for (x, r), (y, s) in pairwise(zip(pts, rs)):
            if r >= s:
                raise ValueError(f"points must be strictly increasing, got {x} then {y}")
        # each point's piece and its range; a shared end goes to the later piece
        held = [(None, 0, 0)] * len(rs)
        for k, (a, b, c, d) in enumerate(self._ends):
            lo, hi = bisect_left(rs, -(-a * m // b)), bisect_right(rs, c * m // d)
            held[lo:hi] = [(k, lo, hi)] * (hi - lo)
        for i, (r, (k, lo, hi)) in enumerate(zip(rs, held)):
            row = off[:i] + [off[i]] * (len(off) - i)
            if k is not None:
                step, base, floor, den = self._line(k, r, m, m)
                row[lo:hi] = [cell(max(floor, base + step * y), den) for y in rs[lo:hi]]
            yield row

    def locate(self, q: Fraction, depth: int):
        """Exact placement; the depth is ignored."""
        check_unit(q)
        i = self.piece_index_of(q)
        end = (q.numerator, q.denominator)
        # q is in piece i's closure; in lowest terms an end is the same pair
        if i is not None and end != self._ends[i][:2] and end != self._ends[i][2:]:
            return InPiece(i, self.pieces[i])
        return IDEMPOTENT


class PieceGenerator(TNorm):
    """Lazy piece supply for an infinite ordinal sum.

    Implementations fix a deterministic enumeration of pairwise disjoint
    pieces, 0, 1, ..., and certify `tail_length_bound(n)`, an exact
    upper bound on the summed length of every piece at position >= n
    (monotone, tending to 0).  A generator defines one private walk,
    `_walk(depth)`, with `tail_length_bound` and `locate`; `TNorm`
    gives the rest of the contract.  `family` is the generator's
    presentation-file line after the word "family".  Certificates about
    the order of the entries, such as a successor pair, are read off
    `compute_signature`.

    Beside `family`, each generator sets three certified order facts
    about its complete signature: `has_min_piece` and `has_max_piece`
    (a least or greatest entry exists) and `dense_no_endpoints` (the
    entries are the generator's pieces alone, with no idempotent
    interval, ordered densely with neither end).  Each is a certificate
    either way: the construction decides it, so False is as certain as
    True.
    """

    family: str
    has_min_piece: bool
    has_max_piece: bool
    dense_no_endpoints: bool

    @abstractmethod
    def _walk(self, depth: int):
        """(lo, hi, label) of pieces 0..depth-1 and of the M gaps no later one enters, in order."""
        raise NotImplementedError

    @abstractmethod
    def tail_length_bound(self, n: int) -> Fraction:
        raise NotImplementedError

    def entries(self, depth: int) -> list[Piece]:
        """The walk's pieces and final gaps, left to right."""
        return [Piece(lo, hi, label) for lo, hi, label in self._walk(depth)]

    def truncation(self, n: int) -> FinitePresentation:
        """Finite t-norm from the first n pieces as the walk gives them, no `Piece` for a gap."""
        check_lazy_depth(n)
        return FinitePresentation(
            Piece(lo, hi, label) for lo, hi, label in self._walk(n) if label is not Label.M
        )

    def eval(self, x: Fraction, y: Fraction) -> Fraction:
        raise PreconditionError("exact eval needs a finite presentation")


class Violation(Record):
    __slots__ = ("law", "points", "left", "right")

    def __init__(self, law: str, points: tuple[Fraction, ...], left: Fraction, right: Fraction):
        self.law, self.points, self.left, self.right = law, points, left, right


class AxiomReport(Record):
    __slots__ = ("checked", "violations")

    def __init__(self, checked: int, violations: tuple[Violation, ...]):
        self.checked, self.violations = checked, violations

    @property
    def ok(self) -> bool:
        return not self.violations


def check_axioms(t, samples) -> AxiomReport:
    """Exact t-norm axiom check on a sample list.

    Verifies commutativity and associativity on all sample pairs and
    triples, monotonicity on all coordinatewise-comparable pairs of
    pairs, and neutrality of 1.  Only `t.eval` is consulted, so any
    object with a compatible eval can be audited.  Two sides that are
    one object are equal without a `Fraction` comparison; off every
    piece `FinitePresentation.eval` returns an input itself.

    The products of sample pairs are kept in a table indexed by sample
    position.  An associativity side whose inner product is itself a
    sample is read from the table instead of evaluated again.
    Monotonicity is decided on adjacent steps of the table, which by
    transitivity covers every comparable pair; the pairs are
    enumerated one by one only when a step fails, to report each
    violating pair.
    """
    pts = sorted({check_unit(q) for q in samples})
    n = len(pts)
    position = {q: i for i, q in enumerate(pts)}
    table = [[t.eval(x, y) for y in pts] for x in pts]
    # at[i][j]: the sample position of table[i][j], or None off the grid
    at = [[position.get(v) for v in row] for row in table]
    # one neutrality check per sample, one commutativity check per pair,
    # one associativity check per triple, one monotonicity check per
    # pair of comparable pairs
    checked = n + n**2 + n**3 + (n * (n + 1) // 2) ** 2
    bad: list[Violation] = []

    one = Fraction(1)
    for x in pts:
        got = t.eval(one, x)
        if got is not x and got != x:
            bad.append(Violation("neutrality", (x,), got, x))

    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if table[i][j] is not table[j][i] and table[i][j] != table[j][i]:
                bad.append(Violation("commutativity", (x, y), table[i][j], table[j][i]))

    for i, x in enumerate(pts):
        row_x = table[i]
        for j, y in enumerate(pts):
            xy, xy_at = row_x[j], at[i][j]
            row_y, at_y = table[j], at[j]
            for k, z in enumerate(pts):
                left = t.eval(xy, z) if xy_at is None else table[xy_at][k]
                yz_at = at_y[k]
                right = t.eval(x, row_y[k]) if yz_at is None else row_x[yz_at]
                if left is not right and left != right:
                    bad.append(Violation("associativity", (x, y, z), left, right))

    monotone = all(
        a is b or a <= b for row, below in pairwise(table) for a, b in zip(row, below)
    ) and all(a is b or a <= b for row in table for a, b in pairwise(row))
    if not monotone:
        steps = list(combinations_with_replacement(range(n), 2))
        for (i, i2), (j, j2) in product(steps, steps):
            lo_val, hi_val = table[i][j], table[i2][j2]
            if lo_val > hi_val:
                points = (pts[i], pts[j], pts[i2], pts[j2])
                bad.append(Violation("monotonicity", points, lo_val, hi_val))
    return AxiomReport(checked, tuple(bad))


def find_idempotent_power(t: TNorm, q: Fraction, limit: int) -> int | UnknownAtDepth | None:
    """The least exponent l with q^l idempotent, or None when no power is.

    The structural piece lookup answers beyond any iteration limit: a
    Product piece never yields an idempotent power, a Lukasiewicz piece
    yields one at the closed-form nilpotency index even when that index
    exceeds `limit`.  When a lazy locate cannot resolve q within depth
    `limit`, its UnknownAtDepth is returned.
    """
    placed = t.locate(q, limit)
    if placed is IDEMPOTENT:
        return 1
    if isinstance(placed, UnknownAtDepth):
        return placed
    return None if placed.piece.label is Label.P else placed.piece.nilpotency_index(q)
