"""Labeled interval signatures of ordinal-sum t-norms.

The signature of a t-norm collects its Product pieces, its Lukasiewicz
pieces, and the maximal open intervals consisting of idempotents
(labeled M), ordered left to right.  Two continuous t-norms of this
class are isomorphic exactly when their signatures admit a
label-preserving order isomorphism, so the signature is the whole
story; everything downstream (isomorphism decisions, relational
encodings) reads it.
"""

from __future__ import annotations

from fractions import Fraction

from .tnorm import (
    Label,
    PieceGenerator,
    PreconditionError,
    Record,
    TNorm,
    first_shared_endpoint,
)

__all__ = [
    "Label",
    "SignatureEntry",
    "Signature",
    "compute_signature",
    "format_signature",
]


class SignatureEntry(Record):
    __slots__ = ("lo", "hi", "label")

    def __init__(self, lo: Fraction, hi: Fraction, label: Label):
        if not 0 <= lo < hi <= 1:
            raise ValueError(f"bad entry interval ({lo}, {hi})")
        self.lo, self.hi, self.label = lo, hi, label

    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.lo, self.hi)


class Signature(Record):
    """Entries sorted left to right; complete unless truncated at a depth."""

    __slots__ = ("entries", "truncation_depth")

    def __init__(self, entries: tuple[SignatureEntry, ...], truncation_depth: int | None = None):
        ordered = tuple(sorted(entries, key=lambda e: e.lo))
        for a, b in zip(ordered, ordered[1:]):
            if a.hi > b.lo:
                raise ValueError(f"entries overlap: ({a.lo}, {a.hi}) and ({b.lo}, {b.hi})")
            if a.hi == b.lo and a.label is Label.M and b.label is Label.M:
                raise ValueError("two adjacent M entries would merge; signature malformed")
        self.entries, self.truncation_depth = ordered, truncation_depth

    @property
    def complete(self) -> bool:
        return self.truncation_depth is None

    def labels(self) -> tuple[Label, ...]:
        return tuple(e.label for e in self.entries)

    def successor_pair(self) -> tuple[SignatureEntry, SignatureEntry] | None:
        """The leftmost two consecutive entries sharing an endpoint, or None.

        Sound on a truncated signature: its pieces and certified M gaps
        are all final, and nothing fits between two entries that share
        an endpoint, so they are consecutive in the complete signature.
        """
        i = first_shared_endpoint(e.interval() for e in self.entries)
        return None if i is None else (self.entries[i], self.entries[i + 1])


def compute_signature(t: TNorm, depth: int | None = None) -> Signature:
    """Signature of t: exact for finite presentations, truncated for lazy ones.

    A truncated signature lists the first `depth` generated pieces plus
    only those idempotent intervals the generator certifies as final;
    deeper pieces can only subdivide territory not yet claimed.
    """
    if t.is_finite:
        entries = [SignatureEntry(p.lo, p.hi, p.kind) for p in t.presentation.pieces]
        entries.extend(SignatureEntry(lo, hi, Label.M) for lo, hi in t.presentation.gaps())
        return Signature(tuple(entries))
    if depth is None or depth < 1:
        raise PreconditionError("lazy signatures need a positive truncation depth")
    gen: PieceGenerator = t.presentation
    entries = [SignatureEntry(p.lo, p.hi, p.kind) for p in map(gen.piece_at, range(depth))]
    entries.extend(SignatureEntry(lo, hi, Label.M) for lo, hi in gen.certified_m_gaps(depth))
    return Signature(tuple(entries), truncation_depth=depth)


def format_signature(sig: Signature) -> str:
    depth = "-" if sig.truncation_depth is None else str(sig.truncation_depth)
    lines = [f"signature v1 complete={'true' if sig.complete else 'false'} depth={depth}"]
    for e in sig.entries:
        lines.append(f"{e.label.value} {e.lo} {e.hi}")
    return "\n".join(lines) + "\n"
