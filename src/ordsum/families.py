"""Infinite piece ladders accumulating at one endpoint of [0,1].

The left-anchored ladder puts Product pieces on (1 - 1/(n+1), 1 - 1/(n+2)),
so the rungs start at (0, 1/2) and climb toward 1; its signature has a
least entry and no greatest one.  The right-anchored ladder mirrors this
with pieces (1/(n+2), 1/(n+1)) descending toward 0.  Consecutive rungs
share endpoints, so no idempotent interval ever appears between them,
and the shared endpoints themselves are the successor witnesses.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import check_unit
from .tnorm import (
    IDEMPOTENT,
    InPiece,
    Label,
    Piece,
    PieceGenerator,
    PreconditionError,
)

__all__ = ["LadderGenerator", "LADDER_NAMES"]

LADDER_NAMES = ("limit-left", "limit-right")


class LadderGenerator(PieceGenerator):
    """Product rungs accumulating at 1 (limit-left) or at 0 (limit-right)."""

    def __init__(self, name: str):
        if name not in LADDER_NAMES:
            raise ValueError(f"unknown ladder: {name!r}")
        self.family = name
        self.has_min_piece = name == "limit-left"
        self.has_max_piece = not self.has_min_piece
        self.dense_no_endpoints = False

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
        """Index n with q in [piece_at(n).lo, piece_at(n).hi)."""
        if self.family == "limit-left":
            # 1 - 1/(n+1) <= q  <=>  n >= 1/(1-q) - 1
            frac = 1 / (1 - q)
        else:
            # q < 1/(n+1)  <=>  n < 1/q - 1; the rung holding q has
            # 1/(n+2) <= q, so n = ceil(1/q) - 2
            frac = 1 / q
        n = frac.numerator // frac.denominator
        if self.family == "limit-left":
            return n - 1
        if frac.denominator != 1:
            n += 1
        return n - 2

    def locate(self, q: Fraction, depth: int):
        """Closed-form placement; every unit rational resolves exactly."""
        check_unit(q)
        if q == 0 or q == 1:
            return IDEMPOTENT
        n = self._rung_of(q)
        piece = self.piece_at(n)
        if piece.contains_open(q):
            return InPiece(n, piece)
        return IDEMPOTENT
