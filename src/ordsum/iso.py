"""Deciding whether two continuous t-norms are isomorphic.

Two t-norms are isomorphic exactly when their signatures match as
labeled orders, so the finite case is a label-sequence comparison plus
an explicit piecewise-affine witness (affine maps carry Product pieces
to Product pieces and Lukasiewicz to Lukasiewicz exactly).

For lazy presentations the decision is three-valued.  ISO and NOT_ISO
are only ever emitted on certificates: structural facts supplied by the
family constructors (least/greatest entry existence, order density) and
concrete witnesses (successor pairs, the back-and-forth matching for
dense orders).  A prefix that merely fails to show a feature is never
treated as evidence of its absence; those comparisons stay UNKNOWN.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from .signature import Label, Signature, SignatureEntry, compute_signature
from .tnorm import PreconditionError, TNorm

__all__ = [
    "MinimumExistsMismatch",
    "MaximumExistsMismatch",
    "SuccessorPairPresent",
    "DensityMismatch",
    "CardinalityMismatch",
    "FiniteLabelSequenceMismatch",
    "AffineSegment",
    "IsoWitness",
    "Iso",
    "NotIso",
    "Unknown",
    "decide_iso_finite",
    "build_iso_map",
    "decide_iso_lazy",
    "back_and_forth",
    "format_verdict",
]


@dataclass(frozen=True)
class MinimumExistsMismatch:
    label: Label

    @property
    def tag(self) -> str:
        return f"MinimumExistsMismatch({self.label.value})"

    @property
    def detail(self) -> str:
        return (
            f"one side has a least entry labeled {self.label.value}; "
            "the other is certified to have no least entry"
        )


@dataclass(frozen=True)
class MaximumExistsMismatch:
    label: Label

    @property
    def tag(self) -> str:
        return f"MaximumExistsMismatch({self.label.value})"

    @property
    def detail(self) -> str:
        return (
            f"one side has a greatest entry labeled {self.label.value}; "
            "the other is certified to have no greatest entry"
        )


@dataclass(frozen=True)
class SuccessorPairPresent:
    entries: tuple[SignatureEntry, SignatureEntry]

    @property
    def tag(self) -> str:
        a, b = self.entries
        return f"SuccessorPairPresent(({a.lo}, {a.hi}), ({b.lo}, {b.hi}))"

    @property
    def detail(self) -> str:
        a, b = self.entries
        return (
            f"one side has adjacent entries sharing an endpoint: "
            f"({a.lo}, {a.hi}) {a.label.value} then ({b.lo}, {b.hi}) {b.label.value}; "
            "the other side is certified order-dense"
        )


@dataclass(frozen=True)
class DensityMismatch:
    @property
    def tag(self) -> str:
        return "DensityMismatch"

    @property
    def detail(self) -> str:
        return "exactly one side is certified dense without endpoints"


@dataclass(frozen=True)
class CardinalityMismatch:
    @property
    def tag(self) -> str:
        return "CardinalityMismatch"

    @property
    def detail(self) -> str:
        return (
            "one side has finitely many pieces; "
            "the other lists infinitely many disjoint pieces"
        )


@dataclass(frozen=True)
class FiniteLabelSequenceMismatch:
    position: int

    @property
    def tag(self) -> str:
        return f"FiniteLabelSequenceMismatch({self.position})"

    @property
    def detail(self) -> str:
        return f"label sequences first differ at position {self.position}"


@dataclass(frozen=True)
class AffineSegment:
    src_lo: Fraction
    src_hi: Fraction
    dst_lo: Fraction
    dst_hi: Fraction

    def apply(self, x: Fraction) -> Fraction:
        scale = (self.dst_hi - self.dst_lo) / (self.src_hi - self.src_lo)
        return self.dst_lo + (x - self.src_lo) * scale


@dataclass(frozen=True)
class IsoWitness:
    """Matched entry pairs, plus a full unit-interval map in the finite case."""

    entry_map: tuple[tuple[SignatureEntry, SignatureEntry], ...]
    map_pieces: tuple[AffineSegment, ...] | None = None

    def apply(self, x: Fraction) -> Fraction:
        if self.map_pieces is None:
            raise PreconditionError("witness carries no full map")
        starts = [seg.src_lo for seg in self.map_pieces]
        i = max(bisect_right(starts, x) - 1, 0)
        return self.map_pieces[i].apply(x)


@dataclass(frozen=True)
class Iso:
    witness: IsoWitness


@dataclass(frozen=True)
class NotIso:
    reason: (
        MinimumExistsMismatch
        | MaximumExistsMismatch
        | SuccessorPairPresent
        | DensityMismatch
        | CardinalityMismatch
        | FiniteLabelSequenceMismatch
    )


@dataclass(frozen=True)
class Unknown:
    depth: int


def decide_iso_finite(s1: Signature, s2: Signature) -> Iso | NotIso:
    """Label-sequence comparison of complete signatures."""
    if not (s1.complete and s2.complete):
        raise PreconditionError("finite decision needs complete signatures")
    l1, l2 = s1.labels(), s2.labels()
    if l1 == l2:
        return Iso(IsoWitness(tuple(zip(s1.entries, s2.entries))))
    position = 0
    for a, b in zip(l1, l2):
        if a is not b:
            break
        position += 1
    return NotIso(FiniteLabelSequenceMismatch(position))


def build_iso_map(t1: TNorm, t2: TNorm) -> IsoWitness:
    """Piecewise-affine unit-interval map sending each entry onto its partner.

    Complete signatures tile [0,1] (entries share endpoints), so the
    per-entry affine maps glue into a strictly increasing bijection
    fixing 0 and 1; affine conjugation preserves both piece formulas, so
    the map is a monoid isomorphism, not just an order one.
    """
    if not (t1.is_finite and t2.is_finite):
        raise PreconditionError("full witness maps need finite presentations")
    verdict = decide_iso_finite(compute_signature(t1), compute_signature(t2))
    if not isinstance(verdict, Iso):
        raise PreconditionError(f"not isomorphic: {verdict.reason.tag}")
    segments = tuple(
        AffineSegment(a.lo, a.hi, b.lo, b.hi) for a, b in verdict.witness.entry_map
    )
    return IsoWitness(verdict.witness.entry_map, segments)


def _least_entry(t: TNorm, depth: int) -> SignatureEntry:
    return compute_signature(t, depth).entries[0]


def _greatest_entry(t: TNorm, depth: int) -> SignatureEntry:
    return compute_signature(t, depth).entries[-1]


def decide_iso_lazy(t1: TNorm, t2: TNorm, depth: int) -> Iso | NotIso | Unknown:
    """Certificate-driven three-valued decision when a side is lazy.

    A finite presentation against a lazy one is always NOT_ISO with a
    CardinalityMismatch: the finite side has finitely many pieces, every
    piece generator lists infinitely many disjoint ones, and an
    isomorphism maps pieces bijectively onto pieces.  Two lazy sides get
    ISO, NOT_ISO or UNKNOWN from the certificates below.  Two finite
    sides belong to `decide_iso_finite` and are refused here.
    """
    if t1.is_finite and t2.is_finite:
        raise PreconditionError("decide_iso_lazy needs a lazy presentation")
    if depth < 1:
        raise PreconditionError("depth must be >= 1")
    if t1.is_finite or t2.is_finite:
        return NotIso(CardinalityMismatch())
    g1, g2 = t1.generator, t2.generator
    f1, f2 = g1.facts, g2.facts

    if g1.fingerprint == g2.fingerprint:
        entries = compute_signature(t1, min(depth, 8)).entries
        return Iso(IsoWitness(tuple((e, e) for e in entries)))

    if f1.has_min_piece is not None and f2.has_min_piece is not None:
        if f1.has_min_piece != f2.has_min_piece:
            side = t1 if f1.has_min_piece else t2
            entry = _least_entry(side, depth)
            if entry.lo != 0:
                raise PreconditionError(
                    "least entry certified but not visible at this depth"
                )
            return NotIso(MinimumExistsMismatch(entry.label))

    if f1.has_max_piece is not None and f2.has_max_piece is not None:
        if f1.has_max_piece != f2.has_max_piece:
            side = t1 if f1.has_max_piece else t2
            entry = _greatest_entry(side, depth)
            if entry.hi != 1:
                raise PreconditionError(
                    "greatest entry certified but not visible at this depth"
                )
            return NotIso(MaximumExistsMismatch(entry.label))

    d1, d2 = f1.dense_no_endpoints, f2.dense_no_endpoints
    if d1 is True and d2 is True:
        if g1.kind is not g2.kind:
            return Unknown(depth)
        s1 = compute_signature(t1, depth)
        s2 = compute_signature(t2, depth)
        pairs = back_and_forth(s1, s2, min(8, depth))
        return Iso(IsoWitness(pairs))
    if d1 is True or d2 is True:
        other = t2 if d1 is True else t1
        pair = other.generator.successor_pair(depth)
        if pair is not None:
            return NotIso(SuccessorPairPresent(pair))
        dense_other = d2 if d1 is True else d1
        if dense_other is False:
            return NotIso(DensityMismatch())
    return Unknown(depth)


def back_and_forth(s1: Signature, s2: Signature, k: int) -> tuple:
    """Cantor's alternating matching on two dense unlabeled-alike prefixes.

    Rounds alternate sides; each round matches the leftmost unmatched
    entry against the leftmost partner lying in the position window its
    already-matched neighbors dictate.  Raises when a window is empty in
    the truncation, which certified-dense inputs only hit by being cut
    too shallow.
    """
    if k < 0:
        raise PreconditionError("negative round count")
    labels1, labels2 = set(s1.labels()), set(s2.labels())
    if len(labels1 | labels2) > 1:
        raise PreconditionError("back-and-forth needs one uniform shared label")
    e1, e2 = s1.entries, s2.entries
    matched: list[tuple[int, int]] = []

    def window(own: list[int], other: list[int], pos: int, limit: int) -> tuple[int, int]:
        lo, hi = -1, limit
        for o, p in zip(own, other):
            if o < pos:
                lo = max(lo, p)
            else:
                hi = min(hi, p)
        return lo, hi

    for round_no in range(k):
        forward = round_no % 2 == 0
        used_src = [m[0] if forward else m[1] for m in matched]
        used_dst = [m[1] if forward else m[0] for m in matched]
        src_entries = e1 if forward else e2
        dst_entries = e2 if forward else e1
        try:
            pick = next(i for i in range(len(src_entries)) if i not in used_src)
        except StopIteration:
            raise PreconditionError(f"source side exhausted at round {round_no}") from None
        lo, hi = window(used_src, used_dst, pick, len(dst_entries))
        partner = next(
            (j for j in range(lo + 1, hi) if j not in used_dst), None
        )
        if partner is None:
            raise PreconditionError(
                f"no partner in the truncation at round {round_no}"
            )
        matched.append((pick, partner) if forward else (partner, pick))
    return tuple((e1[i], e2[j]) for i, j in matched)


def format_verdict(verdict: Iso | NotIso | Unknown) -> str:
    if isinstance(verdict, Iso):
        lines = ["ISO"]
        for a, b in verdict.witness.entry_map:
            lines.append(
                f"  ({a.lo}, {a.hi}) {a.label.value} ~ ({b.lo}, {b.hi}) {b.label.value}"
            )
        if verdict.witness.map_pieces is not None:
            for seg in verdict.witness.map_pieces:
                lines.append(
                    f"  [{seg.src_lo}, {seg.src_hi}] -> [{seg.dst_lo}, {seg.dst_hi}]"
                )
    elif isinstance(verdict, NotIso):
        lines = [f"NOT_ISO {verdict.reason.tag}", f"  {verdict.reason.detail}"]
    else:
        lines = [
            f"UNKNOWN depth={verdict.depth}",
            "  no certified invariant separates the presentations at this depth",
        ]
    return "\n".join(lines) + "\n"
