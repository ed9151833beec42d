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
    StructuralFacts,
    TNorm,
    UnknownAtDepth,
    first_shared_endpoint,
)

__all__ = [
    "Box",
    "MiddleThirdRule",
    "SvcRule",
    "NonERule",
    "GapOrderFacts",
    "parse_system",
    "expand",
    "analyze_gap_order",
    "CantorGapGenerator",
    "gap_tnorm",
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

    def gap_length(self, depth: int) -> Fraction:
        return Fraction(1, 3 ** (depth + 1))


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
        half = self.gap_length(depth) / 2
        a, b = mid - half, mid + half
        return ((lo, a), (b, hi)), ((a, b),)

    def gap_length(self, depth: int) -> Fraction:
        return Fraction(1, 4 ** (depth + 1))


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

    def gap_length(self, depth: int) -> Fraction:
        return Fraction(1, 4 ** (depth + 1))


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


class GapOrderFacts:
    """The gaps of one expansion, left to right, and certified order facts
    about the full gap collection (None = unknown)."""

    __slots__ = (
        "depth", "gaps", "property_e", "dense", "has_min", "has_max", "successor_witness"
    )

    def __init__(
        self,
        depth: int,
        gaps: list[Box],
        property_e: bool,
        dense: bool | None,
        has_min: bool | None,
        has_max: bool | None,
        successor_witness: tuple[Box, Box] | None,
    ):
        self.depth, self.gaps, self.property_e = depth, gaps, property_e
        self.dense, self.has_min, self.has_max = dense, has_min, has_max
        self.successor_witness = successor_witness


def _in_order(rule: _Rule, depth: int) -> list[Box]:
    """The gaps of `expand(rule, depth)` left to right.

    An in-order walk of the box tree: the stack holds the parts (child
    boxes and gaps) of the nodes on the current path, O(depth) of them,
    with the leftmost part of the deepest node on top.
    """
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


def analyze_gap_order(rule: _Rule, depth: int) -> GapOrderFacts:
    """The gaps of `expand(rule, depth)` and the order facts of all gaps.

    `property_e`, `has_min` and `has_max` are the generator's
    `StructuralFacts`, which hold for the complete gap order at every depth.
    """
    _check_depth(depth)
    gaps = _in_order(rule, depth)
    facts = CantorGapGenerator(rule).facts
    i = first_shared_endpoint(gaps)
    witness = None if i is None else (gaps[i], gaps[i + 1])
    property_e = facts.dense_no_endpoints
    # a successor pair refutes density; without property E nothing certifies it
    dense = True if property_e else (False if witness is not None else None)
    return GapOrderFacts(
        depth, gaps, property_e, dense, facts.has_min_piece, facts.has_max_piece, witness
    )


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
        self.facts = StructuralFacts(
            has_min_piece=not rule.keeps_left_endpoint,
            has_max_piece=not rule.keeps_right_endpoint,
            dense_no_endpoints=rule.keeps_left_endpoint and rule.keeps_right_endpoint,
        )

    def piece_at(self, n: int) -> Piece:
        if n < 0:
            raise PreconditionError(f"negative piece index {n}")
        gaps = self._gaps
        if n >= len(gaps):
            gaps.extend(islice(self._walk, n + 1 - len(gaps)))
        lo, hi = gaps[n]
        return Piece(lo, hi, Label.P)

    def tail_length_bound(self, n: int) -> Fraction:
        tail = self.rule.total_gap_length
        per = self.rule.gaps_per_node
        depth = 0
        remaining = n
        while remaining > 0:
            level_count = per * 2**depth
            used = min(remaining, level_count)
            tail -= used * self.rule.gap_length(depth)
            remaining -= used
            depth += 1
        return tail

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


def gap_tnorm(rule: _Rule) -> TNorm:
    return TNorm(CantorGapGenerator(rule))


def _tri(value: bool | None) -> str:
    return "unknown" if value is None else str(value).lower()


def format_gap_order(facts: GapOrderFacts) -> str:
    """The gap dump, left to right, then one line per order fact."""
    lines = [f"gaps depth={facts.depth} count={len(facts.gaps)}"]
    lines.extend(f"( {lo} , {hi} )" for lo, hi in facts.gaps)
    lines += [
        f"property_E {_tri(facts.property_e)}",
        f"dense {_tri(facts.dense)}",
        f"has_min {_tri(facts.has_min)}",
        f"has_max {_tri(facts.has_max)}",
    ]
    if facts.successor_witness is None:
        lines.append("successor_witness none")
    else:
        (a, b), (c, d) = facts.successor_witness
        lines.append(f"successor_witness ( {a} , {b} ) ( {c} , {d} )")
    return "\n".join(lines) + "\n"
