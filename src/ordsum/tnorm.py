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
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .rationals import check_unit

__all__ = [
    "PieceKind",
    "Piece",
    "FinitePresentation",
    "PieceGenerator",
    "StructuralFacts",
    "InPiece",
    "IDEMPOTENT",
    "UnknownAtDepth",
    "TNorm",
    "PreconditionError",
    "LocateUnresolved",
    "AxiomReport",
    "Violation",
    "PowerSearch",
    "check_axioms",
    "find_idempotent_power",
    "classify_piece",
]


class PreconditionError(ValueError):
    """An operation was invoked outside its stated preconditions."""


class LocateUnresolved(RuntimeError):
    """A lazy locate came back unknown where a resolved answer was required."""

    def __init__(self, depth: int):
        super().__init__(f"locate unresolved at depth {depth}")
        self.depth = depth


class PieceKind(Enum):
    PRODUCT = "P"
    LUKASIEWICZ = "L"


@dataclass(frozen=True)
class Piece:
    """One labeled open interval (lo, hi) of an ordinal sum."""

    lo: Fraction
    hi: Fraction
    kind: PieceKind

    def __post_init__(self):
        check_unit(self.lo)
        check_unit(self.hi)
        if self.lo >= self.hi:
            raise ValueError(f"piece needs lo < hi, got ({self.lo}, {self.hi})")

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def contains_open(self, q: Fraction) -> bool:
        return self.lo < q < self.hi

    def contains_closed(self, q: Fraction) -> bool:
        return self.lo <= q <= self.hi

    def combine(self, x: Fraction, y: Fraction) -> Fraction:
        """The piece formula; callers guarantee x, y in [lo, hi]."""
        if self.kind is PieceKind.PRODUCT:
            return self.lo + (x - self.lo) * (y - self.lo) / (self.hi - self.lo)
        return max(self.lo, x + y - self.hi)

    def power(self, q: Fraction, exponent: int) -> Fraction:
        """q combined with itself exponent times, in closed form."""
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        if self.kind is PieceKind.PRODUCT:
            return self.lo + (q - self.lo) ** exponent / (self.hi - self.lo) ** (exponent - 1)
        return max(self.lo, self.hi - exponent * (self.hi - q))

    def nilpotency_index(self, q: Fraction) -> int:
        """Least l with the l-th power equal to lo (Lukasiewicz pieces only)."""
        if self.kind is not PieceKind.LUKASIEWICZ:
            raise PreconditionError("nilpotency index exists only in Lukasiewicz pieces")
        if not self.lo <= q < self.hi:
            raise PreconditionError(f"{q} not in [{self.lo}, {self.hi})")
        num = self.hi - self.lo
        den = self.hi - q
        return -(-num.numerator * den.denominator // (num.denominator * den.numerator))


@dataclass(frozen=True)
class FinitePresentation:
    """Finitely many pieces, kept sorted and pairwise disjoint as opens."""

    pieces: tuple[Piece, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.pieces, key=lambda p: p.lo))
        object.__setattr__(self, "pieces", ordered)
        for a, b in zip(ordered, ordered[1:]):
            if a.hi > b.lo:
                raise ValueError(f"pieces overlap: ({a.lo}, {a.hi}) and ({b.lo}, {b.hi})")
        object.__setattr__(self, "_lows", tuple(p.lo for p in ordered))

    def piece_index_of(self, q: Fraction) -> int | None:
        """Index of a piece whose closed interval contains q, else None."""
        i = bisect_right(self._lows, q) - 1
        if i >= 0 and q <= self.pieces[i].hi:
            return i
        return None

    def gaps(self) -> list[tuple[Fraction, Fraction]]:
        """Maximal open intervals of [0, 1] not covered by piece closures."""
        out = []
        cursor = Fraction(0)
        for p in self.pieces:
            if p.lo > cursor:
                out.append((cursor, p.lo))
            cursor = p.hi
        if cursor < 1:
            out.append((cursor, Fraction(1)))
        return out


@dataclass(frozen=True)
class StructuralFacts:
    """Certified order facts about a lazy presentation's pieces.

    Tri-valued: True and False are certificates, None means the
    construction does not decide the question.  `dense_no_endpoints`
    asserts that the complete signature consists solely of the
    generator's pieces (no idempotent intervals), is order-dense, and
    has no least or greatest entry.
    """

    has_min_piece: bool | None
    has_max_piece: bool | None
    dense_no_endpoints: bool | None


@dataclass(frozen=True)
class InPiece:
    index: int
    piece: Piece


class _IdempotentMarker:
    __slots__ = ()

    def __repr__(self):  # pragma: no cover - debug aid
        return "IDEMPOTENT"


IDEMPOTENT = _IdempotentMarker()


@dataclass(frozen=True)
class UnknownAtDepth:
    depth: int


class PieceGenerator(ABC):
    """Lazy piece supply for an infinite ordinal sum.

    Implementations fix a deterministic enumeration piece_at(0),
    piece_at(1), ... of pairwise disjoint pieces, all of `kind`, and
    certify `tail_length_bound(n)`, an exact upper bound on the summed
    length of every piece at position >= n (monotone, tending to 0).
    """

    kind: PieceKind
    facts: StructuralFacts
    fingerprint: tuple[str, ...]

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

    def successor_pair(self, depth: int):
        """Two signature entries sharing an endpoint, if certified; else None."""
        return None


class TNorm:
    """A continuous t-norm given by a finite or lazy ordinal-sum presentation."""

    def __init__(self, presentation: FinitePresentation | PieceGenerator):
        if not isinstance(presentation, (FinitePresentation, PieceGenerator)):
            raise TypeError(f"not a presentation: {presentation!r}")
        self.presentation = presentation
        self._truncations: dict[int, TNorm] = {}

    @classmethod
    def from_pieces(cls, pieces) -> TNorm:
        return cls(FinitePresentation(tuple(pieces)))

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
        return f"TNorm(family {' '.join(self.presentation.fingerprint)})"

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
        cached = self._truncations.get(n)
        if cached is None:
            pieces = tuple(self.presentation.piece_at(k) for k in range(n))
            cached = TNorm(FinitePresentation(pieces))
            self._truncations[n] = cached
        return cached

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

    def is_idempotent(self, q: Fraction, depth: int | None = None) -> bool | None:
        """Whether q * q == q; None when a lazy locate cannot decide."""
        if self.is_finite:
            return self.eval(q, q) == q
        if depth is None:
            raise PreconditionError("lazy idempotence check needs a locate depth")
        placed = self.presentation.locate(q, depth)
        if placed is IDEMPOTENT:
            return True
        if isinstance(placed, InPiece):
            return False
        return None

    def power(self, q: Fraction, exponent: int, depth: int | None = None) -> Fraction:
        """q * q * ... * q with exponent factors.

        Finite presentations fold eval directly.  Lazy ones resolve q's
        piece first and use the in-piece closed form; an unresolved
        locate raises LocateUnresolved.
        """
        if exponent < 1:
            raise ValueError("exponent must be >= 1")
        check_unit(q)
        if self.is_finite:
            value = q
            for _ in range(exponent - 1):
                value = self.eval(value, q)
            return value
        if depth is None:
            raise PreconditionError("lazy power needs a locate depth")
        placed = self.presentation.locate(q, depth)
        if placed is IDEMPOTENT:
            return q
        if isinstance(placed, InPiece):
            return placed.piece.power(q, exponent)
        raise LocateUnresolved(placed.depth)


@dataclass(frozen=True)
class Violation:
    law: str
    points: tuple[Fraction, ...]
    left: Fraction
    right: Fraction


@dataclass(frozen=True)
class AxiomReport:
    checked: int
    violations: tuple[Violation, ...]

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
    checked = 0
    bad: list[Violation] = []

    one = Fraction(1)
    for x in pts:
        got = t.eval(one, x)
        checked += 1
        if got != x:
            bad.append(Violation("neutrality", (x,), got, x))

    for i, x in enumerate(pts):
        for j, y in enumerate(pts):
            checked += 1
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
                checked += 1
                if left != right:
                    bad.append(Violation("associativity", (x, y, z), left, right))

    monotone = all(
        table[i][j] <= table[i + 1][j] for i in range(n - 1) for j in range(n)
    ) and all(table[i][j] <= table[i][j + 1] for i in range(n) for j in range(n - 1))
    if monotone:
        checked += (n * (n + 1) // 2) ** 2
    else:
        for i in range(n):
            for i2 in range(i, n):
                for j in range(n):
                    for j2 in range(j, n):
                        lo_val = table[i][j]
                        hi_val = table[i2][j2]
                        checked += 1
                        if lo_val > hi_val:
                            bad.append(
                                Violation(
                                    "monotonicity",
                                    (pts[i], pts[j], pts[i2], pts[j2]),
                                    lo_val,
                                    hi_val,
                                )
                            )
    return AxiomReport(checked, tuple(bad))


@dataclass(frozen=True)
class PowerSearch:
    """Outcome of looking for an idempotent power: yes(l) / no / unknown."""

    outcome: str
    exponent: int | None


def find_idempotent_power(t: TNorm, q: Fraction, limit: int, depth: int | None = None) -> PowerSearch:
    """Does some power of q become idempotent, and at which least exponent?

    The structural piece lookup answers beyond any iteration limit: a
    Product piece never yields an idempotent power, a Lukasiewicz piece
    yields one at the closed-form nilpotency index even when that index
    exceeds `limit`.  "unknown" occurs only when a lazy locate cannot
    resolve q within its depth (taken as `limit` when not given).
    """
    placed = t.locate(q, depth if depth is not None else limit)
    if placed is IDEMPOTENT:
        return PowerSearch("yes", 1)
    if isinstance(placed, UnknownAtDepth):
        return PowerSearch("unknown", None)
    piece = placed.piece
    if piece.kind is PieceKind.PRODUCT:
        return PowerSearch("no", None)
    return PowerSearch("yes", piece.nilpotency_index(q))


def classify_piece(t: TNorm, lo: Fraction, hi: Fraction, samples: int = 8) -> PieceKind:
    """Empirically classify a declared piece of a finite presentation.

    Samples interior rationals and iterates eval: a Lukasiewicz piece
    drives every sample down to exactly lo within samples+1 steps, a
    Product piece never attains lo.  Serves as a self-check oracle that
    must agree with the declared kind.
    """
    if not t.is_finite:
        raise PreconditionError("classification reads exact eval; truncate lazy presentations first")
    if samples < 1:
        raise ValueError("need at least one sample")
    reached: set[bool] = set()
    for k in range(1, samples + 1):
        q = lo + Fraction(k, samples + 1) * (hi - lo)
        if t.eval(q, q) == q:
            raise PreconditionError(f"({lo}, {hi}) is not a piece of this t-norm: {q} is idempotent")
        value = q
        hit = False
        for _ in range(samples + 1):
            value = t.eval(value, q)
            if value == lo:
                hit = True
                break
        reached.add(hit)
    if reached == {True}:
        return PieceKind.LUKASIEWICZ
    if reached == {False}:
        return PieceKind.PRODUCT
    raise PreconditionError(f"samples disagree about ({lo}, {hi}); not a single piece")
