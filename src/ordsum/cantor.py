"""Nested binary interval systems and the t-norms on their removed gaps.

A rule splits each closed box [l, r] into two disjoint closed children
and the open gaps it removes; what it removes from the box stays removed
forever, so every removed gap persists at all later depths.  Three rules
ship:

    middle-third   children [l, l+w/3], [r-w/3, r]; removes the middle third
    svc            removes a centered gap of length 4^-(d+1) at box depth d
    non-e          children [l+w/4, l+w/2], [l+3w/4, r]; removes (l, l+w/4)
                   and (l+w/2, l+3w/4), abandoning the left endpoint

Every endpoint at level d is an integer over the level's denominator,
`root[1] * scale**d`.  A rule is a row of data: its root numerators
`root` (the box [0, 1]), its per-level `scale`, its `parts` and its
`total_gap_length`.  Each part is `(k, c, is_gap)`: part i of a box
[lo, hi] ends at `scale*lo + k*(hi-lo) + c` over the next level's
denominator and starts where part i-1 ends.  The walk, `locate`, the gap
sort and the dump stay in integers; a `Fraction` is made only for a
piece the lazy family hands out.

Every box splits into the same kinds of part in the same order, and no
two gaps of a box touch, so the `is_gap` column gives every node's gap
count and the order facts of all gaps.  A gap first is a gap at every
box's left end, and the root's is the least gap; a box first keeps
every box's left end, gaps pile up toward it, and none is least.  The
right end is alike.  With a box at both ends (middle-third, svc) the
gaps are dense without endpoints.  non-e starts with a gap: (0, 1/4) is
the least gap, and each abandoned endpoint glues two gaps together into
a successor pair.

Gaps are enumerated breadth-first: level by level, left to right inside
a level.  The gap t-norm puts a Product piece on each gap, and the gap
dump sorts the same gaps left to right.
"""

from __future__ import annotations

from collections import deque, namedtuple
from collections.abc import Iterator
from fractions import Fraction
from functools import cache
from itertools import islice
from math import gcd

from .tnorm import (
    IDEMPOTENT,
    InPiece,
    Label,
    Piece,
    PieceGenerator,
    PreconditionError,
    UnknownAtDepth,
    check_unit,
    first_shared_endpoint,
)

__all__ = [
    "Gap",
    "Rule",
    "parse_system",
    "expand",
    "analyze_gap_order",
    "CantorGapGenerator",
    "format_gap_order",
]

Gap = tuple[int, int, int]  # (lo, hi, den): end numerators over the gap's level denominator
Parts = tuple[tuple[int, int, bool], ...]  # (k, c, is_gap) rows, left to right (see Rule)
GAP, BOX = True, False
MAX_EXPAND_DEPTH = 16

# part i of a box [lo, hi] ends at scale*lo + k*(hi - lo) + c and starts where
# part i-1 ends, part 0 at scale*lo; a last row (scale, 0, _) tiles the box
Rule = namedtuple("Rule", "name root scale parts total_gap_length")
_RULES = {rule.name: rule for rule in (
    Rule("middle-third", (0, 1), 3, ((1, 0, BOX), (2, 0, GAP), (3, 0, BOX)), Fraction(1)),
    # the gap at depth d is 4^-(d+1) = 2 / 2^(2d+3) wide: two units of
    # the next level's denominator, whatever the depth
    Rule("svc", (0, 2), 4, ((2, -1, BOX), (2, 1, GAP), (4, 0, BOX)), Fraction(1, 2)),
    Rule("non-e", (0, 1), 4, ((1, 0, GAP), (2, 0, BOX), (3, 0, GAP), (4, 0, BOX)), Fraction(1)),
)}


def parse_system(spec: str) -> Rule:
    """System spec strings: "cantor:middle-third", "cantor:svc", "cantor:non-e"."""
    spec = spec.strip()
    if not spec.startswith("cantor:"):
        raise ValueError(f"bad system spec: {spec!r}")
    name = spec[len("cantor:"):]
    if name not in _RULES:
        raise ValueError(f"unknown system: {name!r}")
    return _RULES[name]


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    if depth > MAX_EXPAND_DEPTH:
        raise PreconditionError(f"expansion depth capped at {MAX_EXPAND_DEPTH}")


def _walk(rule, levels: int | None = None):
    """The gaps of the first `levels` levels, or of all, in removal order.

    Each gap is `(lo, hi, den)` in integers.  The walk holds only the
    boxes it will still split.
    """
    parts, scale = rule.parts, rule.scale
    boxes = deque([rule.root])
    depth, den = 0, rule.root[1]
    while depth != levels:
        den *= scale  # the denominator of this level's parts
        depth += 1
        last = depth == levels  # the last level's children stay unsplit
        for _ in range(len(boxes)):  # exactly the boxes of this level
            lo, hi = boxes.popleft()
            a = start = scale * lo
            w = hi - lo
            for k, c, gap in parts:  # read inline: a split method per box is slower
                b = start + k * w + c
                if gap:
                    yield a, b, den
                elif not last:
                    boxes.append((a, b))
                a = b


def _left_to_right(gaps: list[Gap]) -> tuple[list[tuple[int, int]], int]:
    """Sort `gaps`, given in removal order, in place as (lo, hi) numerators
    over the last gap's denominator, which every earlier one's divides; with it."""
    den = gaps[-1][2] if gaps else 1
    for i, (a, b, d) in enumerate(gaps):
        gaps[i] = a * (k := den // d), b * k
    gaps.sort()
    return gaps, den


def expand(rule: Rule, depth: int) -> list[Gap]:
    """The gaps removed by all nodes shallower than `depth`, in removal order."""
    _check_depth(depth)
    return list(_walk(rule, depth))


def analyze_gap_order(rule: Rule, depth: int) -> tuple[list[tuple[int, int]], int]:
    """The gaps of `expand(rule, depth)` left to right, over their denominator.

    Every endpoint above level `depth` is an integer over
    `root[1] * scale**depth`, the deepest gap's denominator, so the gaps
    sort as numerators over it, and no `Fraction` is made or compared.
    Depth 0 removes no gap and hands over 1.
    """
    return _left_to_right(expand(rule, depth))


class CantorGapGenerator(PieceGenerator):
    """Product pieces on the removed gaps, level by level, left to right.

    The order facts come from the rule's `is_gap` column (module
    docstring): a gap first is a least piece, a gap last a greatest, and
    a box at both ends is property E, gaps dense without endpoints.
    """

    def __init__(self, rule: Rule):
        self.rule = rule
        self._gaps: list[Gap] = []  # gaps 0..len-1, read off self._walk
        self._walk = _walk(rule)
        self.family = f"cantor cantor:{rule.name}"
        parts = rule.parts  # as every node splits
        self._node_gaps = sum(gap for _, _, gap in parts)
        self.has_min_piece, self.has_max_piece = parts[0][2], parts[-1][2]
        self.dense_no_endpoints = not (self.has_min_piece or self.has_max_piece)

    def _first_gaps(self, count: int) -> list[Gap]:
        gaps = self._gaps
        if count > len(gaps):
            gaps.extend(islice(self._walk, count - len(gaps)))
        return gaps

    def piece_at(self, n: int) -> Piece:
        if n < 0:
            raise PreconditionError(f"negative piece index {n}")
        lo, hi, den = self._first_gaps(n + 1)[n]
        return Piece(Fraction(lo, den), Fraction(hi, den), Label.P)

    def entries(self, depth: int) -> list[Piece]:
        """Pieces 0..depth-1 sorted as integers, as the gap dump sorts them."""
        gaps, den = _left_to_right(self._first_gaps(depth)[:depth])
        return [Piece(Fraction(lo, den), Fraction(hi, den), Label.P) for lo, hi in gaps]

    def tail_length_bound(self, n: int) -> Fraction:
        """Exact: the rule's total gap length less the widths of gaps 0..n-1."""
        gaps = self._first_gaps(n)
        den = gaps[n - 1][2] if n else 1  # every earlier gap's denominator divides it
        width = sum((hi - lo) * (den // d) for lo, hi, d in islice(gaps, n))
        return self.rule.total_gap_length - Fraction(width, den)

    def locate(self, q: Fraction, depth: int):
        """Descend the box tree at most `depth` levels looking for q's gap.

        Unlike `PieceGenerator.locate`, `depth` counts tree levels, not
        pieces: it covers the gaps of `expand(rule, depth)`.
        """
        check_unit(q)
        if depth < 1:
            raise PreconditionError("locate depth must be >= 1")
        parts, scale = self.rule.parts, self.rule.scale
        # q = qn/qd against a numerator n over den: compare x = qn*den with n*qd
        qn, qd = q.numerator, q.denominator
        lo, hi = self.rule.root
        den = hi
        x = qn * den
        node_pos = 0
        for d in range(depth):
            if x == lo * qd or x == hi * qd:
                return IDEMPOTENT
            den *= scale
            x *= scale
            which = bit = 0
            a = start = scale * lo
            w = hi - lo
            for k, c, gap in parts:
                b = start + k * w + c
                if gap:
                    if a * qd < x < b * qd:
                        index = self._node_gaps * (2**d - 1 + node_pos) + which
                        return InPiece(index, Piece(Fraction(a, den), Fraction(b, den), Label.P))
                    which += 1
                elif a * qd <= x <= b * qd:
                    lo, hi = a, b
                    node_pos = 2 * node_pos + bit
                    break
                else:
                    bit += 1
                a = b
            else:
                raise RuntimeError(f"no part of the level-{d} box covers {q}")
        if x == lo * qd or x == hi * qd:
            return IDEMPOTENT
        return UnknownAtDepth(depth)


def _tri(value: bool | None) -> str:
    return "unknown" if value is None else str(value).lower()


def format_gap_order(rule: Rule, depth: int) -> Iterator[str]:
    """The gap dump, left to right, then one line per order fact of all gaps.

    Property E, `has_min` and `has_max` are the generator's order facts,
    which hold for the complete gap order at every depth; a successor
    pair among the gaps refutes density.  The lines come one at a time,
    each ending in a newline: at depth 16 the dump is megabytes.
    """
    gaps, den = analyze_gap_order(rule, depth)
    # n/den in lowest terms as str(Fraction) writes it: n // g, then "/"
    # and den // g unless g is den, for g = gcd(n, den)
    tail = cache(lambda g: f"/{den // g}" if g != den else "")
    gen = CantorGapGenerator(rule)
    property_e = gen.dense_no_endpoints
    i = first_shared_endpoint(gaps)
    # without property E only a successor pair certifies anything
    dense = True if property_e else (None if i is None else False)
    yield f"gaps depth={depth} count={len(gaps)}\n"
    for lo, hi in gaps:
        g, h = gcd(lo, den), gcd(hi, den)
        yield f"( {lo // g}{tail(g)} , {hi // h}{tail(h)} )\n"
    yield (f"property_E {_tri(property_e)}\ndense {_tri(dense)}\n"
           f"has_min {_tri(gen.has_min_piece)}\nhas_max {_tri(gen.has_max_piece)}\n")
    if i is None:
        yield "successor_witness none\n"
    else:
        a, b, c, d = (f"{n // (g := gcd(n, den))}{tail(g)}" for n in (*gaps[i], *gaps[i + 1]))
        yield f"successor_witness ( {a} , {b} ) ( {c} , {d} )\n"
