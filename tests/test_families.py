"""Ladder families: closed-form placement and structural certificates."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsum.families import LadderGenerator
from ordsum.signature import Label, compute_signature
from ordsum.tnorm import IDEMPOTENT, InPiece, check_axioms

F = Fraction


def test_rungs_tile_toward_the_anchor():
    left = LadderGenerator("limit-left")
    right = LadderGenerator("limit-right")
    assert (left.piece_at(0).lo, left.piece_at(0).hi) == (F(0), F(1, 2))
    assert (left.piece_at(1).lo, left.piece_at(1).hi) == (F(1, 2), F(2, 3))
    assert (right.piece_at(0).lo, right.piece_at(0).hi) == (F(1, 2), F(1))
    assert (right.piece_at(2).lo, right.piece_at(2).hi) == (F(1, 4), F(1, 3))
    for gen in (left, right):
        for n in range(20):
            a, b = gen.piece_at(n), gen.piece_at(n + 1)
            shared = a.hi == b.lo or b.hi == a.lo
            assert shared and a.label is Label.P


def test_tail_bound_telescopes():
    gen = LadderGenerator("limit-left")
    for n in range(1, 8):
        total = sum(p.hi - p.lo for p in map(gen.piece_at, range(n, 40)))
        assert total < gen.tail_length_bound(n) <= total + F(1, 41)


@pytest.mark.parametrize("anchor", ["limit-left", "limit-right"])
def test_locate_always_resolves(anchor):
    gen = LadderGenerator(anchor)
    for denom in range(1, 30):
        for num in range(denom + 1):
            q = F(num, denom)
            placed = gen.locate(q, 1)
            if isinstance(placed, InPiece):
                assert placed.piece.contains_open(q)
                assert gen.piece_at(placed.index) == placed.piece
            else:
                assert placed is IDEMPOTENT


@given(
    st.sampled_from(["limit-left", "limit-right"]),
    st.fractions(min_value=0, max_value=1, max_denominator=200),
)
@settings(max_examples=80, deadline=None)
def test_locate_agrees_with_rung_scan(anchor, q):
    gen = LadderGenerator(anchor)
    placed = gen.locate(q, 1)
    hits = [n for n in range(300) if gen.piece_at(n).contains_open(q)]
    if hits:
        assert isinstance(placed, InPiece) and placed.index == hits[0]
    else:
        assert placed is IDEMPOTENT


def test_structural_certificates():
    left = LadderGenerator("limit-left")
    right = LadderGenerator("limit-right")
    assert left.has_min_piece and not left.has_max_piece
    assert right.has_max_piece and not right.has_min_piece
    assert not left.dense_no_endpoints
    assert left.certified_m_gaps(10) == []

    t = LadderGenerator("limit-left")
    pair = compute_signature(t, 4).successor_pair()
    assert pair is not None
    first, second = pair
    assert first.hi == second.lo == F(1, 2)
    assert first.label is Label.P and second.label is Label.P
    assert compute_signature(t, 1).successor_pair() is None


def test_signature_prefix_and_axioms():
    t = LadderGenerator("limit-left")
    sig = compute_signature(t, depth=3)
    assert [(e.lo, e.hi) for e in sig.entries] == [
        (F(0), F(1, 2)),
        (F(1, 2), F(2, 3)),
        (F(2, 3), F(3, 4)),
    ]
    assert not sig.complete
    report = check_axioms(t.truncation(5), [F(i, 10) for i in range(11)])
    assert report.ok


def test_ladder_rejects_unknown_anchor():
    with pytest.raises(ValueError):
        LadderGenerator("limit-up")
