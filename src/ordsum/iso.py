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
from fractions import Fraction

from .rationals import check_unit
from .signature import Signature, SignatureEntry, compute_signature
from .tnorm import PreconditionError, Record, TNorm

__all__ = [
    "Iso",
    "NotIso",
    "Unknown",
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

    def __init__(
        self, entry_map: tuple[tuple[SignatureEntry, SignatureEntry], ...], full: bool = False
    ):
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

    def __init__(self, tag: str, detail: str, entries: tuple[SignatureEntry, ...] = ()):
        self.tag, self.detail, self.entries = tag, detail, entries


class Unknown(Record):
    __slots__ = ("depth",)

    def __init__(self, depth: int):
        self.depth = depth


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
    the map is a monoid isomorphism, not just an order one.
    """
    if not (t1.is_finite and t2.is_finite):
        raise PreconditionError("full witness maps need finite presentations")
    verdict = decide_iso_finite(compute_signature(t1), compute_signature(t2))
    if not isinstance(verdict, Iso):
        raise PreconditionError(f"not isomorphic: {verdict.tag}")
    return verdict


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
        return NotIso(
            "CardinalityMismatch",
            "one side has finitely many pieces; "
            "the other lists infinitely many disjoint pieces",
        )
    g1, g2 = t1.generator, t2.generator
    f1, f2 = g1.facts, g2.facts

    if g1.family == g2.family:
        entries = compute_signature(t1, min(depth, 8)).entries
        return Iso(tuple((e, e) for e in entries))

    # each end: the entry's position, and the endpoint of [0,1] it must touch
    ends = (
        ("Minimum", "least", f1.has_min_piece, f2.has_min_piece, 0, 0),
        ("Maximum", "greatest", f1.has_max_piece, f2.has_max_piece, -1, 1),
    )
    for name, end, has1, has2, at, bound in ends:
        if has1 is None or has2 is None or has1 == has2:
            continue
        # the certified entry may need a few more pieces than `depth` to show
        for pieces in (depth << k for k in range(7)):
            entry = compute_signature(t1 if has1 else t2, pieces).entries[at]
            if entry.interval()[at] == bound:
                break
        else:
            raise PreconditionError(f"{end} entry certified but not visible at this depth")
        label = entry.label.value
        return NotIso(
            f"{name}ExistsMismatch({label})",
            f"one side has a {end} entry labeled {label}; "
            f"the other is certified to have no {end} entry",
        )

    d1, d2 = f1.dense_no_endpoints, f2.dense_no_endpoints
    if d1 is True and d2 is True:
        s1 = compute_signature(t1, depth)
        s2 = compute_signature(t2, depth)
        return Iso(back_and_forth(s1, s2, min(8, depth)))
    if d1 is True or d2 is True:
        other = t2 if d1 is True else t1
        pair = compute_signature(other, depth).successor_pair()
        if pair is not None:
            a, b = pair
            return NotIso(
                f"SuccessorPairPresent(({a.lo}, {a.hi}), ({b.lo}, {b.hi}))",
                f"one side has adjacent entries sharing an endpoint: "
                f"({a.lo}, {a.hi}) {a.label.value} then ({b.lo}, {b.hi}) {b.label.value}; "
                "the other side is certified order-dense",
                pair,
            )
        dense_other = d2 if d1 is True else d1
        if dense_other is False:
            return NotIso(
                "DensityMismatch", "exactly one side is certified dense without endpoints"
            )
    return Unknown(depth)


def back_and_forth(s1: Signature, s2: Signature, k: int) -> tuple:
    """Cantor's alternating matching on two dense unlabeled-alike prefixes.

    Rounds alternate sides; each round matches the leftmost unmatched
    entry against the leftmost partner lying in the position window its
    already-matched neighbors dictate.  The matching preserves order, so
    every matched partner lies outside that window and its leftmost
    position is free.  Raises when a window is empty in the truncation,
    which certified-dense inputs only hit by being cut too shallow.
    """
    if k < 0:
        raise PreconditionError("negative round count")
    labels1, labels2 = set(s1.labels()), set(s2.labels())
    if len(labels1 | labels2) > 1:
        raise PreconditionError("back-and-forth needs one uniform shared label")
    e1, e2 = s1.entries, s2.entries
    matched: list[tuple[int, int]] = []
    for round_no in range(k):
        forward = round_no % 2 == 0
        src_entries, dst_entries = (e1, e2) if forward else (e2, e1)
        partner_of = dict(matched if forward else ((j, i) for i, j in matched))
        try:
            pick = next(i for i in range(len(src_entries)) if i not in partner_of)
        except StopIteration:
            raise PreconditionError(f"source side exhausted at round {round_no}") from None
        # every source left of pick is matched, and the partners keep their order
        lo = partner_of.get(pick - 1, -1)
        hi = min((j for i, j in partner_of.items() if i > pick), default=len(dst_entries))
        if lo + 1 >= hi:
            raise PreconditionError(
                f"no partner in the truncation at round {round_no}"
            )
        matched.append((pick, lo + 1) if forward else (lo + 1, pick))
    return tuple((e1[i], e2[j]) for i, j in matched)


def format_verdict(verdict: Iso | NotIso | Unknown) -> str:
    if isinstance(verdict, Iso):
        pairs = verdict.entry_map
        lines = ["ISO"]
        for a, b in pairs:
            lines.append(
                f"  ({a.lo}, {a.hi}) {a.label.value} ~ ({b.lo}, {b.hi}) {b.label.value}"
            )
        if verdict.full:
            lines.extend(f"  [{a.lo}, {a.hi}] -> [{b.lo}, {b.hi}]" for a, b in pairs)
    elif isinstance(verdict, NotIso):
        lines = [f"NOT_ISO {verdict.tag}", f"  {verdict.detail}"]
    else:
        lines = [
            f"UNKNOWN depth={verdict.depth}",
            "  no certified invariant separates the presentations at this depth",
        ]
    return "\n".join(lines) + "\n"
