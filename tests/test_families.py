"""Ladder families: closed-form placement and structural certificates."""

from fractions import Fraction
from itertools import pairwise

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import generated
from ordsum.cantor import CantorGapGenerator
from ordsum.families import LadderGenerator
from ordsum.orders import OrderPieceGenerator
from ordsum.presentations import parse_presentation_text
from ordsum.signature import Label, compute_signature
from ordsum.tnorm import (
    IDEMPOTENT,
    FinitePresentation,
    InPiece,
    Piece,
    check_axioms,
    check_left_to_right,
)

F = Fraction


def test_rungs_tile_toward_the_anchor():
    left = LadderGenerator("limit-left")
    right = LadderGenerator("limit-right")
    assert left._rung(0) == (F(0), F(1, 2))
    assert left._rung(1) == (F(1, 2), F(2, 3))
    assert right._rung(0) == (F(1, 2), F(1))
    assert right._rung(2) == (F(1, 4), F(1, 3))
    for gen in (left, right):
        assert all(e.label is Label.P for e in gen.entries(21))
        for n in range(20):
            (a_lo, a_hi), (b_lo, b_hi) = gen._rung(n), gen._rung(n + 1)
            assert a_hi == b_lo or b_hi == a_lo


def test_tail_bound_telescopes():
    gen = LadderGenerator("limit-left")
    for n in range(1, 8):
        total = sum(hi - lo for lo, hi in map(gen._rung, range(n, 40)))
        assert total < gen.tail_length_bound(n) <= total + F(1, 41)


@pytest.mark.parametrize("anchor", ["limit-left", "limit-right"])
def test_locate_always_resolves(anchor):
    gen = LadderGenerator(anchor)
    for denom in range(1, 30):
        for num in range(denom + 1):
            q = F(num, denom)
            placed = gen.locate(q, 1)
            if isinstance(placed, InPiece):
                assert placed.piece.lo < q < placed.piece.hi
                assert gen._rung(placed.index) == (placed.piece.lo, placed.piece.hi)
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
    hits = [n for n in range(300) if gen._rung(n)[0] < q < gen._rung(n)[1]]
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
    assert all(e.label is not Label.M for e in left.entries(10))

    t = LadderGenerator("limit-left")
    pair = compute_signature(t, 4).successor_pair()
    assert pair is not None
    first, second = pair
    assert first.hi == second.lo == F(1, 2)
    assert first.label is Label.P and second.label is Label.P
    assert compute_signature(t, 1).successor_pair() is None


LAZY_FAMILIES = [
    "limit-left",
    "limit-right",
    "theta omega",
    "theta omega_star",
    "theta zeta",
    "theta eta",
    "theta omega_plus_omega_star",
    "cantor cantor:middle-third",
    "cantor cantor:svc",
    "cantor cantor:non-e",
]


@pytest.mark.parametrize("family", LAZY_FAMILIES)
def test_extreme_facts_match_the_signature(family):
    # an entry that touches an end of [0, 1] is a final extreme entry,
    # and every certified extreme shows within 40 pieces
    t = parse_presentation_text(f"tnorm v1\nfamily {family}\n")
    entries = compute_signature(t, 40).entries
    assert t.has_min_piece == (entries[0].lo == 0)
    assert t.has_max_piece == (entries[-1].hi == 1)


def entries_by_sorting(t, depth):
    """Pieces 0..depth-1 and the final gaps between them, sorted by lo and checked.

    The route the signature took before each presentation listed its own
    entries: a gap of an order family is final when its two sides are
    adjacent in the order, or when the side toward 0 or 1 is missing and
    the other is the order's extreme there; no other family has one.
    """
    pieces = generated(t, depth)
    gaps = []
    if isinstance(t, OrderPieceGenerator):
        order = t.order
        by_lo = sorted(range(depth), key=lambda n: pieces[n].lo)
        for m, n in pairwise([None, *by_lo, None]):
            if m is None:
                final = n == order.min_element
            elif n is None:
                final = m == order.max_element
            else:
                final = order.adjacent(m, n)
            if final:
                lo = F(0) if m is None else pieces[m].hi
                gaps.append(Piece(lo, F(1) if n is None else pieces[n].lo, Label.M))
    return check_left_to_right(sorted(pieces + gaps, key=lambda p: p.lo))


@pytest.mark.parametrize("family", LAZY_FAMILIES)
def test_entries_match_the_sorted_route(family):
    t = parse_presentation_text(f"tnorm v1\nfamily {family}\n")
    for depth in range(1, 65):
        assert compute_signature(t, depth).entries == entries_by_sorting(t, depth)


@pytest.mark.parametrize("family", LAZY_FAMILIES)
def test_truncation_matches_the_generated_pieces(family):
    # a truncation and a signature read the one walk, left to right
    t = parse_presentation_text(f"tnorm v1\nfamily {family}\n")
    pieces = generated(t, 200)
    for n in range(1, 201):
        got = t.truncation(n).pieces
        assert got == tuple(e for e in t.entries(n) if e.label is Label.P)
        assert got == FinitePresentation(sorted(pieces[:n], key=lambda p: p.lo)).pieces


def test_entries_and_truncation_are_written_once():
    # each generator defines its walk; PieceGenerator reads it for both
    for cls in (LadderGenerator, OrderPieceGenerator, CantorGapGenerator):
        assert "_walk" in vars(cls)
        assert not {"entries", "truncation", "piece_at"} & set(vars(cls)), cls


ORDER_FAMILIES_WITH_GAPS = ["theta omega", "theta omega_star", "theta zeta",
                            "theta omega_plus_omega_star"]


@pytest.mark.parametrize("family", ORDER_FAMILIES_WITH_GAPS)
def test_a_truncation_makes_no_piece_for_a_gap(family, monkeypatch):
    t = parse_presentation_text(f"tnorm v1\nfamily {family}\n")
    assert any(e.label is Label.M for e in t.entries(40))
    made = []
    init = Piece.__init__

    def counted(self, lo, hi, label):
        made.append(label)
        init(self, lo, hi, label)

    monkeypatch.setattr(Piece, "__init__", counted)
    for n in (1, 2, 40, 200):
        made.clear()
        t.truncation(n)
        assert made == [Label.P] * n, n


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
