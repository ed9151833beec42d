"""Nested binary interval systems and the t-norms on their removed gaps.

A rule refines each closed box [l, r] into two disjoint closed children;
what it removes from the box stays removed forever, so every removed gap
is an open interval that persists at all later depths.  Three rules ship:

    middle-third   children [l, l+w/3], [r-w/3, r]; removes the middle third
    svc            removes a centered gap of length 4^-(d+1) at box depth d
    non-e          children [l+w/4, l+w/2], [l+3w/4, r]; removes (l, l+w/4)
                   and (l+w/2, l+3w/4), abandoning the left endpoint

The first two keep both endpoints of every box (children share them), so
their gap orders are dense without endpoints.  The third drops the left
endpoint at every step: the root gap (0, 1/4) is a least gap, and each
abandoned endpoint glues two gaps together into a successor pair.

Gaps are enumerated depth-first by level, left to right inside a level,
and the gap t-norm puts a Product piece on each gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from .rationals import check_unit
from .signature import Label, SignatureEntry
from .tnorm import (
    IDEMPOTENT,
    InPiece,
    Piece,
    PieceGenerator,
    PreconditionError,
    StructuralFacts,
    TNorm,
    UnknownAtDepth,
)

__all__ = [
    "Box",
    "MiddleThirdRule",
    "SvcRule",
    "NonERule",
    "CantorSystem",
    "GapCollection",
    "GapOrderFacts",
    "parse_system",
    "expand",
    "analyze_gap_order",
    "CantorGapGenerator",
    "gap_tnorm",
    "format_gaps",
]

Box = tuple[Fraction, Fraction]
MAX_EXPAND_DEPTH = 16


class MiddleThirdRule:
    name = "middle-third"
    keeps_left_endpoint = True
    keeps_right_endpoint = True
    gaps_per_node = 1
    total_gap_length = Fraction(1)

    def children(self, box: Box, depth: int) -> tuple[Box, Box]:
        lo, hi = box
        w = hi - lo
        return (lo, lo + w / 3), (hi - w / 3, hi)

    def node_gaps(self, box: Box, depth: int) -> list[Box]:
        lo, hi = box
        w = hi - lo
        return [(lo + w / 3, hi - w / 3)]

    def gap_length(self, depth: int) -> Fraction:
        return Fraction(1, 3 ** (depth + 1))


class SvcRule:
    """Fat-Cantor variant: ever smaller centered removals, positive leftover."""

    name = "svc"
    keeps_left_endpoint = True
    keeps_right_endpoint = True
    gaps_per_node = 1
    total_gap_length = Fraction(1, 2)

    def children(self, box: Box, depth: int) -> tuple[Box, Box]:
        lo, hi = box
        g = Fraction(1, 4 ** (depth + 1))
        mid = (lo + hi) / 2
        return (lo, mid - g / 2), (mid + g / 2, hi)

    def node_gaps(self, box: Box, depth: int) -> list[Box]:
        lo, hi = box
        g = Fraction(1, 4 ** (depth + 1))
        mid = (lo + hi) / 2
        return [(mid - g / 2, mid + g / 2)]

    def gap_length(self, depth: int) -> Fraction:
        return Fraction(1, 4 ** (depth + 1))


class NonERule:
    """Children detach from the left endpoint; two gaps per node."""

    name = "non-e"
    keeps_left_endpoint = False
    keeps_right_endpoint = True
    gaps_per_node = 2
    total_gap_length = Fraction(1)

    def children(self, box: Box, depth: int) -> tuple[Box, Box]:
        lo, hi = box
        w = hi - lo
        return (lo + w / 4, lo + w / 2), (lo + 3 * w / 4, hi)

    def node_gaps(self, box: Box, depth: int) -> list[Box]:
        lo, hi = box
        w = hi - lo
        return [(lo, lo + w / 4), (lo + w / 2, lo + 3 * w / 4)]

    def gap_length(self, depth: int) -> Fraction:
        return Fraction(1, 4 ** (depth + 1))


_RULES = {rule.name: rule for rule in (MiddleThirdRule(), SvcRule(), NonERule())}


@dataclass(frozen=True)
class CantorSystem:
    rule: MiddleThirdRule | SvcRule | NonERule

    @property
    def name(self) -> str:
        return self.rule.name

    @property
    def property_e(self) -> bool:
        return self.rule.keeps_left_endpoint and self.rule.keeps_right_endpoint


def parse_system(spec: str) -> CantorSystem:
    """System spec strings: "cantor:middle-third", "cantor:svc", "cantor:non-e"."""
    spec = spec.strip()
    if not spec.startswith("cantor:"):
        raise ValueError(f"bad system spec: {spec!r}")
    name = spec[len("cantor:"):]
    if name not in _RULES:
        raise ValueError(f"unknown system: {name!r}")
    return CantorSystem(_RULES[name])


@dataclass(frozen=True)
class GapCollection:
    """Removed gaps of all nodes shallower than `depth`, in removal order."""

    gaps: tuple[Box, ...]
    depth: int

    @cached_property
    def by_position(self) -> list[Box]:
        """The gaps left to right, sorted once per collection."""
        return sorted(self.gaps)


def _check_depth(depth: int) -> None:
    if depth < 0:
        raise PreconditionError("depth must be >= 0")
    if depth > MAX_EXPAND_DEPTH:
        raise PreconditionError(f"expansion depth capped at {MAX_EXPAND_DEPTH}")


def expand(system: CantorSystem, depth: int) -> tuple[list[list[Box]], GapCollection]:
    """All boxes for levels 0..depth and the gaps removed on the way there."""
    _check_depth(depth)
    rule = system.rule
    levels: list[list[Box]] = [[(Fraction(0), Fraction(1))]]
    gaps: list[Box] = []
    for d in range(depth):
        nxt: list[Box] = []
        for box in levels[d]:
            gaps.extend(rule.node_gaps(box, d))
            nxt.extend(rule.children(box, d))
        levels.append(nxt)
    return levels, GapCollection(tuple(gaps), depth)


@dataclass(frozen=True)
class GapOrderFacts:
    """Certified order facts about the full gap collection (None = unknown)."""

    dense: bool | None
    has_min: bool | None
    has_max: bool | None
    successor_witness: tuple[Box, Box] | None
    collection: GapCollection  # the expansion the facts were read from


def _successor_witness(ordered: list[Box]) -> tuple[Box, Box] | None:
    for a, b in zip(ordered, ordered[1:]):
        if a[1] == b[0]:
            return (a, b)
    return None


def analyze_gap_order(system: CantorSystem, depth: int) -> GapOrderFacts:
    _check_depth(depth)
    rule = system.rule
    _, collection = expand(system, depth)
    gaps = list(collection.gaps)

    if any(g[0] == 0 for g in gaps):
        has_min = True
    elif rule.keeps_left_endpoint:
        # the leftmost box chain pins 0 forever, so gaps pile up toward 0
        has_min = False
    else:
        has_min = None

    if any(g[1] == 1 for g in gaps):
        has_max = True
    elif rule.keeps_right_endpoint:
        has_max = False
    else:
        has_max = None

    witness = _successor_witness(collection.by_position)
    if system.property_e:
        dense = True
    elif witness is not None:
        dense = False
    else:
        dense = None
    return GapOrderFacts(dense, has_min, has_max, witness, collection)


def _gap_index(rule, node_depth: int, node_pos: int, which: int) -> int:
    per = rule.gaps_per_node
    return per * (2**node_depth - 1) + per * node_pos + which


def _gap_coords(rule, index: int) -> tuple[int, int, int]:
    per = rule.gaps_per_node
    node_depth = 0
    while per * (2 ** (node_depth + 1) - 1) <= index:
        node_depth += 1
    rest = index - per * (2**node_depth - 1)
    return node_depth, rest // per, rest % per


def _box_at(rule, node_depth: int, node_pos: int) -> Box:
    box: Box = (Fraction(0), Fraction(1))
    for d in range(node_depth):
        bit = (node_pos >> (node_depth - 1 - d)) & 1
        box = rule.children(box, d)[bit]
    return box


class CantorGapGenerator(PieceGenerator):
    """Product pieces on the removed gaps, level by level, left to right."""

    kind = Label.P

    def __init__(self, system: CantorSystem):
        self.system = system
        self.rule = system.rule
        self.fingerprint = ("cantor", system.name)
        self.facts = StructuralFacts(
            has_min_piece=not self.rule.keeps_left_endpoint,
            has_max_piece=not self.rule.keeps_right_endpoint,
            dense_no_endpoints=system.property_e,
        )

    def piece_at(self, n: int) -> Piece:
        if n < 0:
            raise PreconditionError(f"negative piece index {n}")
        node_depth, node_pos, which = _gap_coords(self.rule, n)
        box = _box_at(self.rule, node_depth, node_pos)
        lo, hi = self.rule.node_gaps(box, node_depth)[which]
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
        """Descend the box tree at most `depth` levels looking for q's gap."""
        check_unit(q)
        if depth < 1:
            raise PreconditionError("locate depth must be >= 1")
        box: Box = (Fraction(0), Fraction(1))
        node_pos = 0
        for d in range(depth):
            if q == box[0] or q == box[1]:
                return IDEMPOTENT
            for which, (lo, hi) in enumerate(self.rule.node_gaps(box, d)):
                if lo < q < hi:
                    index = _gap_index(self.rule, d, node_pos, which)
                    return InPiece(index, Piece(lo, hi, Label.P))
            for bit, child in enumerate(self.rule.children(box, d)):
                if child[0] <= q <= child[1]:
                    box = child
                    node_pos = 2 * node_pos + bit
                    break
            else:
                raise RuntimeError(f"box {box} does not cover {q}")
        if q == box[0] or q == box[1]:
            return IDEMPOTENT
        return UnknownAtDepth(depth)

    def successor_pair(self, depth: int):
        facts = analyze_gap_order(self.system, min(depth, MAX_EXPAND_DEPTH))
        if facts.successor_witness is None:
            return None
        (a, b) = facts.successor_witness
        return (
            SignatureEntry(a[0], a[1], Label.P),
            SignatureEntry(b[0], b[1], Label.P),
        )


def gap_tnorm(system: CantorSystem) -> TNorm:
    return TNorm(CantorGapGenerator(system))


def format_gaps(collection: GapCollection) -> str:
    lines = [f"gaps depth={collection.depth} count={len(collection.gaps)}"]
    for lo, hi in collection.by_position:
        lines.append(f"( {lo} , {hi} )")
    return "\n".join(lines) + "\n"
