"""Ordinal-sum t-norms with exact rational evaluation.

A presentation is a set of disjoint open subintervals of [0, 1], each
labeled Product or Lukasiewicz.  Inside a piece (lo, hi):

    Product:      x * y = lo + (x - lo)(y - lo) / (hi - lo)
    Lukasiewicz:  x * y = max(lo, x + y - hi)

and x * y = min(x, y) whenever x and y do not share a piece.  Finite
presentations evaluate exactly.  Lazy presentations are driven by a
`PieceGenerator` that enumerates pieces with a certified bound on the
total length of everything not yet enumerated, so evaluation at
truncation N carries the exact error bound 2 * tail_length_bound(N).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_right
from enum import Enum
from fractions import Fraction
from itertools import pairwise

from .rationals import check_unit

__all__ = [
    "Label",
    "Record",
    "Piece",
    "FinitePresentation",
    "PieceGenerator",
    "StructuralFacts",
    "InPiece",
    "IDEMPOTENT",
    "UnknownAtDepth",
    "TNorm",
    "PreconditionError",
    "AxiomReport",
    "Violation",
    "PowerSearch",
    "check_axioms",
    "find_idempotent_power",
    "uncovered",
    "first_shared_endpoint",
]


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions."""


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
    """One open interval (lo, hi) of an ordinal sum, labeled P or L."""

    __slots__ = ("lo", "hi", "kind")

    def __init__(self, lo: Fraction, hi: Fraction, kind: Label):
        check_unit(lo)
        check_unit(hi)
        if lo >= hi:
            raise ValueError(f"piece needs lo < hi, got ({lo}, {hi})")
        if kind is Label.M:
            raise ValueError("a piece is labeled P or L; M marks idempotent intervals")
        self.lo, self.hi, self.kind = lo, hi, kind

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains_open(self, q: Fraction) -> bool:
        return self.lo < q < self.hi

    def combine(self, x: Fraction, y: Fraction) -> Fraction:
        """The piece formula; callers guarantee x, y in [lo, hi]."""
        if self.kind is Label.P:
            return self.lo + (x - self.lo) * (y - self.lo) / (self.hi - self.lo)
        return max(self.lo, x + y - self.hi)

    def nilpotency_index(self, q: Fraction) -> int:
        """Least l with the l-th power equal to lo (Lukasiewicz pieces only)."""
        if self.kind is not Label.L:
            raise PreconditionError("nilpotency index exists only in Lukasiewicz pieces")
        if not self.lo <= q < self.hi:
            raise PreconditionError(f"{q} not in [{self.lo}, {self.hi})")
        num = self.hi - self.lo
        den = self.hi - q
        return -(-num.numerator * den.denominator // (num.denominator * den.numerator))


class FinitePresentation:
    """Finitely many pieces, kept sorted and pairwise disjoint as opens."""

    __slots__ = ("pieces", "_lows")

    def __init__(self, pieces: tuple[Piece, ...]):
        ordered = tuple(sorted(pieces, key=lambda p: p.lo))
        for a, b in zip(ordered, ordered[1:]):
            if a.hi > b.lo:
                raise ValueError(f"pieces overlap: ({a.lo}, {a.hi}) and ({b.lo}, {b.hi})")
        self.pieces = ordered
        self._lows = tuple(p.lo for p in ordered)

    def piece_index_of(self, q: Fraction) -> int | None:
        """Index of a piece whose closed interval contains q, else None."""
        i = bisect_right(self._lows, q) - 1
        if i >= 0 and q <= self.pieces[i].hi:
            return i
        return None

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        """Maximal open intervals of [0, 1] not covered by piece closures."""
        return uncovered((p.lo, p.hi) for p in self.pieces)


def uncovered(spans) -> list[tuple[Fraction, Fraction]]:
    """Maximal open intervals of [0, 1] outside the closures of `spans`.

    `spans` are (lo, hi) pairs sorted by lo and pairwise disjoint as
    open intervals; a point where two spans touch is not reported.
    """
    out = []
    cursor = Fraction(0)
    for lo, hi in spans:
        if lo > cursor:
            out.append((cursor, lo))
        cursor = hi
    if cursor < 1:
        out.append((cursor, Fraction(1)))
    return out


def first_shared_endpoint(spans) -> int | None:
    """Index of the first of `spans` that ends where the next one begins, or None.

    `spans` are (lo, hi) pairs sorted by lo.
    """
    for i, ((_, hi), (lo, _)) in enumerate(pairwise(spans)):
        if hi == lo:
            return i
    return None


class StructuralFacts:
    """Certified order facts about a lazy presentation's pieces.

    Tri-valued: True and False are certificates, None means the
    construction does not decide the question.  `dense_no_endpoints`
    asserts that the complete signature consists solely of the
    generator's pieces (no idempotent intervals), is order-dense, and
    has no least or greatest entry.
    """

    __slots__ = ("has_min_piece", "has_max_piece", "dense_no_endpoints")

    def __init__(
        self,
        has_min_piece: bool | None,
        has_max_piece: bool | None,
        dense_no_endpoints: bool | None,
    ):
        self.has_min_piece = has_min_piece
        self.has_max_piece = has_max_piece
        self.dense_no_endpoints = dense_no_endpoints


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


class PieceGenerator(ABC):
    """Lazy piece supply for an infinite ordinal sum.

    Implementations fix a deterministic enumeration piece_at(0),
    piece_at(1), ... of pairwise disjoint pieces, and certify
    `tail_length_bound(n)`, an exact upper bound on the summed length of
    every piece at position >= n (monotone, tending to 0).  `family` is
    the generator's presentation-file line after the word "family".
    The contract is `piece_at`, `tail_length_bound`, `locate` and
    `certified_m_gaps`; certificates about the order of the entries,
    such as a successor pair, are read off `compute_signature`.
    """

    facts: StructuralFacts
    family: str

    @abstractmethod
    def piece_at(self, n: int) -> Piece:
        raise NotImplementedError

    @abstractmethod
    def tail_length_bound(self, n: int) -> Fraction:
        raise NotImplementedError

    @abstractmethod
    def locate(self, q: Fraction, depth: int):
        """Place q relative to the first `depth` pieces.

        Returns InPiece, IDEMPOTENT (certified: q lies in no piece at
        any depth), or UnknownAtDepth.
        """
        raise NotImplementedError

    def certified_m_gaps(self, depth: int) -> list[tuple[Fraction, Fraction]]:
        """Maximal idempotent intervals certified final at this depth."""
        return []


class TNorm:
    """A continuous t-norm given by a finite or lazy ordinal-sum presentation."""

    def __init__(self, presentation: FinitePresentation | PieceGenerator):
        if not isinstance(presentation, (FinitePresentation, PieceGenerator)):
            raise TypeError(f"not a presentation: {presentation!r}")
        self.presentation = presentation

    @property
    def is_finite(self) -> bool:
        return isinstance(self.presentation, FinitePresentation)

    @property
    def pieces(self) -> tuple[Piece, ...]:
        if not self.is_finite:
            raise PreconditionError("lazy presentation has no finite piece list")
        return self.presentation.pieces

    @property
    def generator(self) -> PieceGenerator:
        if self.is_finite:
            raise PreconditionError("finite presentation has no generator")
        return self.presentation

    def __repr__(self):  # pragma: no cover - debug aid
        if self.is_finite:
            return f"TNorm({len(self.presentation.pieces)} pieces)"
        return f"TNorm(family {self.presentation.family})"

    def eval(self, x: Fraction, y: Fraction) -> Fraction:
        """Exact value of x * y; finite presentations only."""
        if not self.is_finite:
            raise PreconditionError("exact eval needs a finite presentation; use eval_approx")
        check_unit(x)
        check_unit(y)
        i = self.presentation.piece_index_of(x)
        if i is not None:
            piece = self.presentation.pieces[i]
            # y = hi shared with the next piece is looked up there by
            # piece_index_of, but the formula gives min(x, y) at hi anyway
            if piece.lo <= y <= piece.hi:
                return piece.combine(x, y)
        return min(x, y)

    def truncation(self, n: int) -> TNorm:
        """Finite t-norm from the first n generated pieces."""
        if self.is_finite:
            raise PreconditionError("finite presentation has no truncations")
        if n < 1:
            raise PreconditionError("empty truncation")
        pieces = tuple(self.presentation.piece_at(k) for k in range(n))
        return TNorm(FinitePresentation(pieces))

    def eval_approx(self, x: Fraction, y: Fraction, n: int) -> tuple[Fraction, Fraction]:
        """(value at truncation n, certified error bound 2 * tail(n))."""
        if self.is_finite:
            raise PreconditionError("eval_approx applies to lazy presentations")
        value = self.truncation(n).eval(x, y)
        return value, 2 * self.presentation.tail_length_bound(n)

    def locate(self, q: Fraction, depth: int):
        """Uniform locate; exact for finite presentations regardless of depth."""
        check_unit(q)
        if self.is_finite:
            pres = self.presentation
            i = pres.piece_index_of(q)
            if i is not None and pres.pieces[i].contains_open(q):
                return InPiece(i, pres.pieces[i])
            return IDEMPOTENT
        return self.presentation.locate(q, depth)


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
    object with a compatible eval can be audited.

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
        if got != x:
            bad.append(Violation("neutrality", (x,), got, x))

    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            if table[i][j] != table[j][i]:
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
                if left != right:
                    bad.append(Violation("associativity", (x, y, z), left, right))

    monotone = all(
        table[i][j] <= table[i + 1][j] for i in range(n - 1) for j in range(n)
    ) and all(table[i][j] <= table[i][j + 1] for i in range(n) for j in range(n - 1))
    if not monotone:
        for i in range(n):
            for i2 in range(i, n):
                for j in range(n):
                    for j2 in range(j, n):
                        lo_val, hi_val = table[i][j], table[i2][j2]
                        if lo_val > hi_val:
                            points = (pts[i], pts[j], pts[i2], pts[j2])
                            bad.append(Violation("monotonicity", points, lo_val, hi_val))
    return AxiomReport(checked, tuple(bad))


class PowerSearch:
    """Outcome of looking for an idempotent power: yes(l) / no / unknown."""

    __slots__ = ("outcome", "exponent")

    def __init__(self, outcome: str, exponent: int | None):
        self.outcome, self.exponent = outcome, exponent


def find_idempotent_power(t: TNorm, q: Fraction, limit: int) -> PowerSearch:
    """Does some power of q become idempotent, and at which least exponent?

    The structural piece lookup answers beyond any iteration limit: a
    Product piece never yields an idempotent power, a Lukasiewicz piece
    yields one at the closed-form nilpotency index even when that index
    exceeds `limit`.  "unknown" occurs only when a lazy locate cannot
    resolve q within depth `limit`.
    """
    placed = t.locate(q, limit)
    if placed is IDEMPOTENT:
        return PowerSearch("yes", 1)
    if isinstance(placed, UnknownAtDepth):
        return PowerSearch("unknown", None)
    piece = placed.piece
    if piece.kind is Label.P:
        return PowerSearch("no", None)
    return PowerSearch("yes", piece.nilpotency_index(q))
