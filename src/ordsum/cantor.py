"""Nested binary interval systems and the t-norms on their removed gaps.

A rule splits each closed box [l, r] into two disjoint closed children
and the open gaps it removes; what it removes from the box stays removed
forever, so every removed gap persists at all later depths.  Three rules
ship:

    middle-third   children [l, l+w/3], [r-w/3, r]; removes the middle third
    svc            removes a centered gap of length 4^-(d+1) at box depth d
    non-e          children [l+w/4, l+w/2], [l+3w/4, r]; removes (l, l+w/4)
                   and (l+w/2, l+3w/4), abandoning the left endpoint

The first two keep both endpoints of every box (children share them), so
their gap orders are dense without endpoints.  The third drops the left
endpoint at every step: the root gap (0, 1/4) is a least gap, and each
abandoned endpoint glues two gaps together into a successor pair.

Gaps are enumerated breadth-first: level by level, left to right inside
a level.  The gap t-norm puts a Product piece on each gap.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from itertools import islice

from .rationals import check_unit
from .tnorm import (
    IDEMPOTENT,
    InPiece,
    Label,
    Piece,
    PieceGenerator,
    PreconditionError,
    UnknownAtDepth,
    first_shared_endpoint,
)

__all__ = [
    "Box",
    "MiddleThirdRule",
    "SvcRule",
    "NonERule",
    "parse_system",
    "expand",
    "analyze_gap_order",
    "CantorGapGenerator",
    "format_gap_order",
]

Box = tuple[Fraction, Fraction]
Split = tuple[tuple[Box, Box], tuple[Box, ...]]  # children, then gaps, left to right
MAX_EXPAND_DEPTH = 16


class MiddleThirdRule:
    name = "middle-third"
    keeps_left_endpoint = True
    keeps_right_endpoint = True
    gaps_per_node = 1
    total_gap_length = Fraction(1)

    def split(self, box: Box, depth: int) -> Split:
        lo, hi = box
        w = hi - lo
        a, b = lo + w / 3, hi - w / 3
        return ((lo, a), (b, hi)), ((a, b),)


class SvcRule:
    """Fat-Cantor variant: ever smaller centered removals, positive leftover."""

    name = "svc"
    keeps_left_endpoint = True
    keeps_right_endpoint = True
    gaps_per_node = 1
    total_gap_length = Fraction(1, 2)

    def split(self, box: Box, depth: int) -> Split:
        lo, hi = box
        mid = (lo + hi) / 2
        half = Fraction(1, 2 * 4 ** (depth + 1))
        a, b = mid - half, mid + half
        return ((lo, a), (b, hi)), ((a, b),)


class NonERule:
    """Children detach from the left endpoint; two gaps per node."""

    name = "non-e"
    keeps_left_endpoint = False
    keeps_right_endpoint = True
    gaps_per_node = 2
    total_gap_length = Fraction(1)

    def split(self, box: Box, depth: int) -> Split:
        lo, hi = box
        w = hi - lo
        a, b, c = lo + w / 4, lo + w / 2, lo + 3 * w / 4
        return ((a, b), (c, hi)), ((lo, a), (b, c))


_Rule = MiddleThirdRule | SvcRule | NonERule
_RULES = {rule.name: rule for rule in (MiddleThirdRule(), SvcRule(), NonERule())}


def parse_system(spec: str) -> _Rule:
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


def _walk(rule):
    """Every gap in removal order, holding only the boxes not yet split."""
    boxes = deque([(Fraction(0), Fraction(1))])
    depth = 0
    while True:
        for _ in range(len(boxes)):  # exactly the boxes of this level
            children, gaps = rule.split(boxes.popleft(), depth)
            boxes.extend(children)
            yield from gaps
        depth += 1


def _gap_index(rule, node_depth: int, node_pos: int, which: int) -> int:
    per = rule.gaps_per_node
    return per * (2**node_depth - 1) + per * node_pos + which


def expand(rule: _Rule, depth: int) -> tuple[Box, ...]:
    """The gaps removed by all nodes shallower than `depth`, in removal order."""
    _check_depth(depth)
    count = _gap_index(rule, depth, 0, 0)  # every gap above level `depth`
    return tuple(islice(_walk(rule), count))


def analyze_gap_order(rule: _Rule, depth: int) -> list[Box]:
    """The gaps of `expand(rule, depth)` left to right.

    An in-order walk of the box tree: the stack holds the parts (child
    boxes and gaps) of the nodes on the current path, O(depth) of them,
    with the leftmost part of the deepest node on top.
    """
    _check_depth(depth)
    out: list[Box] = []
    stack = [((Fraction(0), Fraction(1)), 0)] if depth else []  # (box, level) or (gap, None)
    while stack:
        span, level = stack.pop()
        if level is None:
            out.append(span)
            continue
        children, gaps = rule.split(span, level)
        if level + 1 == depth:  # the children stay whole, so this node's gaps come next
            out += gaps
        else:
            parts = [(child, level + 1) for child in children] + [(gap, None) for gap in gaps]
            parts.sort(key=lambda part: part[0][0], reverse=True)
            stack += parts
    return out


class CantorGapGenerator(PieceGenerator):
    """Product pieces on the removed gaps, level by level, left to right.

    A rule that keeps both endpoints of every box has property E: its
    gaps pile up toward every box endpoint, so their order is dense
    without endpoints.
    """

    def __init__(self, rule: _Rule):
        self.rule = rule
        self._gaps: list[Box] = []  # gaps 0..len-1, read off self._walk
        self._walk = _walk(rule)
        self.family = f"cantor cantor:{rule.name}"
        self.has_min_piece = not rule.keeps_left_endpoint
        self.has_max_piece = not rule.keeps_right_endpoint
        self.dense_no_endpoints = rule.keeps_left_endpoint and rule.keeps_right_endpoint

    def _first_gaps(self, count: int) -> list[Box]:
        gaps = self._gaps
        if count > len(gaps):
            gaps.extend(islice(self._walk, count - len(gaps)))
        return gaps

    def piece_at(self, n: int) -> Piece:
        if n < 0:
            raise PreconditionError(f"negative piece index {n}")
        lo, hi = self._first_gaps(n + 1)[n]
        return Piece(lo, hi, Label.P)

    def tail_length_bound(self, n: int) -> Fraction:
        """Exact: the rule's total gap length less the widths of gaps 0..n-1."""
        return self.rule.total_gap_length - sum(hi - lo for lo, hi in self._first_gaps(n)[:n])

    def locate(self, q: Fraction, depth: int):
        """Descend the box tree at most `depth` levels looking for q's gap.

        Unlike `PieceGenerator.locate`, `depth` counts tree levels, not
        pieces: it covers the first `gaps_per_node * (2**depth - 1)` gaps.
        """
        check_unit(q)
        if depth < 1:
            raise PreconditionError("locate depth must be >= 1")
        box: Box = (Fraction(0), Fraction(1))
        node_pos = 0
        for d in range(depth):
            if q == box[0] or q == box[1]:
                return IDEMPOTENT
            children, gaps = self.rule.split(box, d)
            for which, (lo, hi) in enumerate(gaps):
                if lo < q < hi:
                    index = _gap_index(self.rule, d, node_pos, which)
                    return InPiece(index, Piece(lo, hi, Label.P))
            for bit, child in enumerate(children):
                if child[0] <= q <= child[1]:
                    box = child
                    node_pos = 2 * node_pos + bit
                    break
            else:
                raise RuntimeError(f"box {box} does not cover {q}")
        if q == box[0] or q == box[1]:
            return IDEMPOTENT
        return UnknownAtDepth(depth)


def _tri(value: bool | None) -> str:
    return "unknown" if value is None else str(value).lower()


def format_gap_order(rule: _Rule, depth: int) -> str:
    """The gap dump, left to right, then one line per order fact of all gaps.

    Property E, `has_min` and `has_max` are the generator's order facts,
    which hold for the complete gap order at every depth; a successor
    pair among the gaps refutes density.
    """
    gaps = analyze_gap_order(rule, depth)
    gen = CantorGapGenerator(rule)
    property_e = gen.dense_no_endpoints
    i = first_shared_endpoint(gaps)
    # without property E only a successor pair certifies anything
    dense = True if property_e else (None if i is None else False)
    lines = [f"gaps depth={depth} count={len(gaps)}"]
    lines.extend(f"( {lo} , {hi} )" for lo, hi in gaps)
    lines += [
        f"property_E {_tri(property_e)}",
        f"dense {_tri(dense)}",
        f"has_min {_tri(gen.has_min_piece)}",
        f"has_max {_tri(gen.has_max_piece)}",
    ]
    if i is None:
        lines.append("successor_witness none")
    else:
        (a, b), (c, d) = gaps[i], gaps[i + 1]
        lines.append(f"successor_witness ( {a} , {b} ) ( {c} , {d} )")
    return "\n".join(lines) + "\n"
