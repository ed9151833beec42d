"""Deciding whether two continuous t-norms are isomorphic.

Two t-norms are isomorphic exactly when their signatures match as
labeled orders, so the finite case is a label-sequence comparison plus
an explicit piecewise-affine witness (affine maps carry Product pieces
to Product pieces and Lukasiewicz to Lukasiewicz exactly).

For lazy presentations the decision is three-valued.  ISO and NOT_ISO
are only ever emitted on certificates: order facts set by each piece
generator (least/greatest entry existence, order density) and
concrete witnesses (successor pairs, the back-and-forth matching for
dense orders).  A prefix that merely fails to show a feature is never
treated as evidence of its absence; those comparisons stay UNKNOWN.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Iterator
from fractions import Fraction

from .signature import Signature, compute_signature
from .tnorm import (
    MAX_LAZY_PIECES,
    Piece,
    PieceGenerator,
    PreconditionError,
    Record,
    TNorm,
    UnknownAtDepth,
    check_lazy_depth,
    check_unit,
)

__all__ = [
    "Iso",
    "NotIso",
    "decide_iso_finite",
    "build_iso_map",
    "decide_iso_lazy",
    "back_and_forth",
    "format_verdict",
]


class Iso:
    """Matched entry pairs; `full` when they tile [0,1], as complete signatures do.

    A full matching is a piecewise-affine map of [0,1]: each entry goes
    affinely onto its partner.
    """

    __slots__ = ("entry_map", "full")

    def __init__(self, entry_map: tuple[tuple[Piece, Piece], ...], full: bool = False):
        self.entry_map, self.full = entry_map, full

    def apply(self, x: Fraction) -> Fraction:
        check_unit(x)
        if not self.full:
            raise PreconditionError("witness carries no full map")
        starts = [a.lo for a, _ in self.entry_map]
        a, b = self.entry_map[bisect_right(starts, x) - 1]
        return b.lo + (x - a.lo) * (b.hi - b.lo) / (a.hi - a.lo)


class NotIso(Record):
    """A certificate: its tag, one line of detail, and the entries it cites."""

    __slots__ = ("tag", "detail", "entries")

    def __init__(self, tag: str, detail: str, entries: tuple[Piece, ...] = ()):
        self.tag, self.detail, self.entries = tag, detail, entries


def decide_iso_finite(s1: Signature, s2: Signature) -> Iso | NotIso:
    """Label-sequence comparison of complete signatures."""
    if not (s1.complete and s2.complete):
        raise PreconditionError("finite decision needs complete signatures")
    l1, l2 = s1.labels(), s2.labels()
    if l1 == l2:
        return Iso(tuple(zip(s1.entries, s2.entries)), full=True)
    position = 0
    for a, b in zip(l1, l2):
        if a is not b:
            break
        position += 1
    return NotIso(
        f"FiniteLabelSequenceMismatch({position})",
        f"label sequences first differ at position {position}",
    )


def build_iso_map(t1: TNorm, t2: TNorm) -> Iso:
    """Piecewise-affine unit-interval map sending each entry onto its partner.

    Complete signatures tile [0,1] (entries share endpoints), so the
    per-entry affine maps glue into a strictly increasing bijection
    fixing 0 and 1; affine conjugation preserves both piece formulas, so
    the map is a monoid isomorphism, not just an order one.  A lazy
    side lists its entries only to a depth, and without one
    `compute_signature` refuses it.
    """
    verdict = decide_iso_finite(compute_signature(t1), compute_signature(t2))
    if not isinstance(verdict, Iso):
        raise PreconditionError(f"not isomorphic: {verdict.tag}")
    return verdict


def _depths(limit: int) -> list[int]:
    """1, 2, 4, ... below limit, then limit: a certificate is read at the first that shows it."""
    return [1 << k for k in range((limit - 1).bit_length())] + [limit]


def decide_iso_lazy(t1: TNorm, t2: TNorm, depth: int) -> Iso | NotIso | UnknownAtDepth:
    """Decide any pair of presentations; every verdict rests on a certificate.

    Two finite sides compare complete signatures (`decide_iso_finite`)
    and ignore the depth.  A finite side against a lazy one is NOT_ISO
    with a CardinalityMismatch: an isomorphism maps pieces bijectively,
    and a generator lists infinitely many disjoint ones.  Two lazy sides
    get ISO, NOT_ISO or UNKNOWN from the certificates below.  The name
    predates the finite case; `perfbench/tracing.py` traces it by name.
    """
    lazy_sides = sum(isinstance(t, PieceGenerator) for t in (t1, t2))
    if lazy_sides == 0:
        return decide_iso_finite(compute_signature(t1), compute_signature(t2))
    check_lazy_depth(depth)
    if lazy_sides == 1:
        return NotIso(
            "CardinalityMismatch",
            "one side has finitely many pieces; "
            "the other lists infinitely many disjoint pieces",
        )
    rounds = min(depth, 8)
    if t1.family == t2.family:
        return Iso(tuple((e, e) for e in compute_signature(t1, rounds).entries))

    # each end: the entry's position, and the endpoint of [0,1] it must touch
    ends = (
        ("Minimum", "least", t1.has_min_piece, t2.has_min_piece, 0, 0),
        ("Maximum", "greatest", t1.has_max_piece, t2.has_max_piece, -1, 1),
    )
    for name, end, has1, has2, at, bound in ends:
        if has1 == has2:
            continue
        # the certified entry may need more pieces than `depth` to show,
        # but no more than the cap on any lazy command's pieces
        for pieces in _depths(MAX_LAZY_PIECES):
            entry = compute_signature(t1 if has1 else t2, pieces).entries[at]
            if (entry.lo, entry.hi)[at] == bound:
                break
        else:
            raise PreconditionError(
                f"{end} entry certified but not visible within {MAX_LAZY_PIECES} pieces"
            )
        label = entry.label.value
        return NotIso(
            f"{name}ExistsMismatch({label})",
            f"one side has a {end} entry labeled {label}; "
            f"the other is certified to have no {end} entry",
        )

    d1, d2 = t1.dense_no_endpoints, t2.dense_no_endpoints
    if d1 and d2:
        s1, s2 = compute_signature(t1, rounds), compute_signature(t2, rounds)
        return Iso(back_and_forth(s1, s2, rounds))
    if d1 or d2:
        pairs = (compute_signature(t2 if d1 else t1, d).successor_pair() for d in _depths(depth))
        pair = next((p for p in pairs if p is not None), None)
        if pair is not None:
            a, b = pair
            return NotIso(
                f"SuccessorPairPresent(({a.lo}, {a.hi}), ({b.lo}, {b.hi}))",
                f"one side has adjacent entries sharing an endpoint: "
                f"({a.lo}, {a.hi}) {a.label.value} then ({b.lo}, {b.hi}) {b.label.value}; "
                "the other side is certified order-dense",
                pair,
            )
        return NotIso(
            "DensityMismatch", "exactly one side is certified dense without endpoints"
        )
    return UnknownAtDepth(depth)


def back_and_forth(s1: Signature, s2: Signature, k: int) -> tuple:
    """Cantor's alternating matching on two dense prefixes of one label.

    Rounds alternate sides; each matches the leftmost unmatched entry to
    the leftmost partner in the window its matched neighbours leave.  By
    induction round r matches entry r of both sides: entries 0..r-1 are
    matched to each other, and nothing right of them is.  So the first
    k rounds pair the first k entries in order.  The matching certifies
    an ISO only because both sides' `dense_no_endpoints` facts hold
    (Cantor's theorem); this prefix is its visible part.  Raises at the
    first round a truncation cannot serve, which certified-dense inputs
    only hit by being cut too shallow.
    """
    if k < 0:
        raise PreconditionError("negative round count")
    labels1, labels2 = set(s1.labels()), set(s2.labels())
    if len(labels1 | labels2) > 1:
        raise PreconditionError("back-and-forth needs one uniform shared label")
    e1, e2 = s1.entries, s2.entries
    n = min(len(e1), len(e2))
    if k > n:
        # round n picks from e1 when n is even, else from e2
        if len(e1 if n % 2 == 0 else e2) == n:
            raise PreconditionError(f"source side exhausted at round {n}")
        raise PreconditionError(f"no partner in the truncation at round {n}")
    return tuple(zip(e1[:k], e2[:k]))


def format_verdict(verdict: Iso | NotIso | UnknownAtDepth) -> Iterator[str]:
    """The verdict's lines, each ending in a newline: an ISO lists two per entry pair."""
    if isinstance(verdict, Iso):
        pairs = verdict.entry_map
        yield "ISO\n"
        for a, b in pairs:
            yield f"  ({a.lo}, {a.hi}) {a.label.value} ~ ({b.lo}, {b.hi}) {b.label.value}\n"
        if verdict.full:
            for a, b in pairs:
                yield f"  [{a.lo}, {a.hi}] -> [{b.lo}, {b.hi}]\n"
    elif isinstance(verdict, NotIso):
        yield f"NOT_ISO {verdict.tag}\n  {verdict.detail}\n"
    else:
        yield (f"UNKNOWN depth={verdict.depth}\n"
               "  no certified invariant separates the presentations at this depth\n")
