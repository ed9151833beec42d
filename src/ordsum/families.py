"""Infinite piece ladders accumulating at one endpoint of [0,1].

The left-anchored ladder puts Product pieces on (1 - 1/(n+1), 1 - 1/(n+2)),
so the rungs start at (0, 1/2) and climb toward 1; its signature has a
least entry and no greatest one.  The right-anchored ladder mirrors this
with pieces (1/(n+2), 1/(n+1)) descending toward 0.  Consecutive rungs
share endpoints, so no idempotent interval ever appears between them,
and the shared endpoints themselves are the successor witnesses.

The order facts are read off rungs 0 and 1.  The rungs tile [0, 1]
from rung 0 toward the limit and a ladder has no M entries, so rung 0
is the entry at the far end: there is a least entry exactly when rung
0 touches 0, and a greatest exactly when it touches 1.  Rungs 0 and 1
share an endpoint, so they are a successor pair and the ladder is not
dense.
"""

from __future__ import annotations

from fractions import Fraction

from .tnorm import (
    IDEMPOTENT,
    InPiece,
    Label,
    Piece,
    PieceGenerator,
    PreconditionError,
    check_unit,
)

__all__ = ["LadderGenerator", "LADDER_NAMES"]

LADDER_NAMES = ("limit-left", "limit-right")


class LadderGenerator(PieceGenerator):
    """Product rungs accumulating at 1 (limit-left) or at 0 (limit-right)."""

    def __init__(self, name: str):
        if name not in LADDER_NAMES:
            raise ValueError(f"unknown ladder: {name!r}")
        self.family = name
        rung0, rung1 = self.piece_at(0), self.piece_at(1)
        self.has_min_piece = rung0.lo == 0
        self.has_max_piece = rung0.hi == 1
        successor_pair = rung0.hi == rung1.lo or rung1.hi == rung0.lo
        self.dense_no_endpoints = not (successor_pair or self.has_min_piece or self.has_max_piece)

    def piece_at(self, n: int) -> Piece:
        if n < 0:
            raise PreconditionError(f"negative piece index {n}")
        lo = Fraction(1, n + 2)
        hi = Fraction(1, n + 1)
        if self.family == "limit-left":
            lo, hi = 1 - hi, 1 - lo
        return Piece(lo, hi, Label.P)

    def tail_length_bound(self, n: int) -> Fraction:
        # telescoping: sum over k >= n of (1/(k+1) - 1/(k+2))
        return Fraction(1, n + 1)

    def _rung_of(self, q: Fraction) -> int:
        """The rung n whose open piece holds q, when any rung's does.

        Mirrored onto the right ladder, q's distance r from the limit lies
        in (1/(n+2), 1/(n+1)) exactly inside rung n, so n = ceil(1/r) - 2.
        """
        r = 1 - q if self.family == "limit-left" else q
        return -(-r.denominator // r.numerator) - 2

    def locate(self, q: Fraction, depth: int):
        """Closed-form placement; every unit rational resolves exactly."""
        check_unit(q)
        if q == 0 or q == 1:
            return IDEMPOTENT
        n = self._rung_of(q)
        piece = self.piece_at(n)
        if piece.lo < q < piece.hi:
            return InPiece(n, piece)
        return IDEMPOTENT
