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

from collections.abc import Iterable, Iterator
from itertools import pairwise

from .tnorm import (
    Label,
    Piece,
    PieceGenerator,
    Record,
    TNorm,
    check_lazy_depth,
    first_shared_endpoint,
)

__all__ = [
    "Label",
    "Signature",
    "compute_signature",
    "signature_lines",
]


class Signature(Record):
    """Pieces labeled P, L or M, checked to come left to right; complete unless truncated."""

    __slots__ = ("entries", "truncation_depth")

    def __init__(self, entries: Iterable[Piece], truncation_depth: int | None = None):
        entries = tuple(entries)
        for a, b in pairwise(entries):
            if a.hi > b.lo:
                raise ValueError(f"pieces overlap or are out of order: {a.hi} > {b.lo}")
            if a.hi == b.lo and a.label is Label.M and b.label is Label.M:
                raise ValueError("two adjacent M entries would merge; signature malformed")
        self.entries, self.truncation_depth = entries, truncation_depth

    @property
    def complete(self) -> bool:
        return self.truncation_depth is None

    def labels(self) -> tuple[Label, ...]:
        return tuple(e.label for e in self.entries)

    def successor_pair(self) -> tuple[Piece, Piece] | None:
        """The leftmost two consecutive entries sharing an endpoint, or None.

        Sound on a truncated signature: its pieces and certified M gaps
        are all final, and nothing fits between two entries that share
        an endpoint, so they are consecutive in the complete signature.
        """
        i = first_shared_endpoint((e.lo, e.hi) for e in self.entries)
        return None if i is None else (self.entries[i], self.entries[i + 1])


def compute_signature(t: TNorm, depth: int | None = None) -> Signature:
    """Signature of t: exact for finite presentations, truncated for lazy ones.

    A truncated signature lists the first `depth` generated pieces plus
    only those idempotent intervals the generator certifies as final;
    deeper pieces can only subdivide territory not yet claimed.
    """
    if not isinstance(t, PieceGenerator):  # complete, whatever the depth
        return Signature(t.entries())
    check_lazy_depth(depth)
    return Signature(t.entries(depth), depth)


def signature_lines(sig: Signature) -> Iterator[str]:
    """The signature dump, one newline-terminated line at a time."""
    depth = "-" if sig.truncation_depth is None else str(sig.truncation_depth)
    yield f"signature v1 complete={'true' if sig.complete else 'false'} depth={depth}\n"
    for e in sig.entries:
        yield f"{e.label.value} {e.lo} {e.hi}\n"
