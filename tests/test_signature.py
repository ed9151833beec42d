"""Signature extraction and its order."""

from __future__ import annotations

from fractions import Fraction as F

import pytest

from ordsum.signature import (
    Label,
    Signature,
    compute_signature,
    signature_lines,
)
from ordsum.presentations import parse_presentation_text
from ordsum.tnorm import FinitePresentation, Piece


def tn(*spec):
    return FinitePresentation(tuple(Piece(F(a), F(b), k) for a, b, k in spec))


TWO_PIECE = tn(("1/4", "1/2", Label.P), ("1/2", "3/4", Label.L))


def is_dense_cover(entries) -> bool:
    """True iff entries are nonempty, pairwise disjoint, and their closures cover [0, 1]."""
    items = sorted(entries, key=lambda e: e.lo)
    if not items:
        return False
    if items[0].lo != 0 or items[-1].hi != 1:
        return False
    for a, b in zip(items, items[1:]):
        if a.hi != b.lo:
            return False
    return True


def test_two_piece_signature():
    sig = compute_signature(TWO_PIECE)
    assert sig.complete
    assert sig.labels() == (Label.M, Label.P, Label.L, Label.M)
    assert [(e.lo, e.hi) for e in sig.entries] == [
        (F(0), F(1, 4)),
        (F(1, 4), F(1, 2)),
        (F(1, 2), F(3, 4)),
        (F(3, 4), F(1)),
    ]


def test_minimum_signature_is_single_m():
    sig = compute_signature(tn())
    assert sig.labels() == (Label.M,)
    assert (sig.entries[0].lo, sig.entries[0].hi) == (F(0), F(1))


def test_full_piece_signatures():
    assert compute_signature(tn((0, 1, Label.P))).labels() == (Label.P,)
    assert compute_signature(tn((0, 1, Label.L))).labels() == (Label.L,)


def test_shared_endpoints_leave_no_m():
    sig = compute_signature(tn((0, "1/2", Label.L), ("1/2", 1, Label.P)))
    assert sig.labels() == (Label.L, Label.P)


def test_complete_signatures_are_dense_covers():
    for t in (tn(), TWO_PIECE, tn(("1/3", "2/3", Label.P))):
        assert is_dense_cover(compute_signature(t).entries)


def test_dense_cover_rejects_gaps_and_short_families():
    assert not is_dense_cover([])
    assert not is_dense_cover([Piece(F(0), F(1, 2), Label.M)])
    assert not is_dense_cover(
        [
            Piece(F(0), F(1, 3), Label.M),
            Piece(F(1, 2), F(1), Label.P),
        ]
    )
    assert is_dense_cover([Piece(F(0), F(1), Label.M)])


def test_adjacent_m_entries_rejected():
    with pytest.raises(ValueError):
        Signature(
            (
                Piece(F(0), F(1, 2), Label.M),
                Piece(F(1, 2), F(1), Label.M),
            ),
        )


def test_overlapping_entries_rejected():
    with pytest.raises(ValueError, match="pieces overlap"):
        Signature((Piece(F(0), F(1, 2), Label.M), Piece(F(1, 3), F(1), Label.P)))


def test_entries_out_of_order_rejected():
    # the presentations hand their entries over left to right; a
    # signature checks that order and does not restore it
    with pytest.raises(ValueError, match="out of order"):
        Signature((Piece(F(1, 2), F(1), Label.P), Piece(F(0), F(1, 4), Label.M)))


def test_signature_deterministic():
    assert compute_signature(TWO_PIECE) == compute_signature(TWO_PIECE)


def test_label_partition_semantics():
    t = TWO_PIECE
    sig = compute_signature(t)
    for e in sig.entries:
        mid = (e.lo + e.hi) / 2
        assert (t.eval(mid, mid) == mid) == (e.label is Label.M)


def test_format_signature():
    sig = compute_signature(TWO_PIECE)
    assert "".join(signature_lines(sig)) == (
        "signature v1 complete=true depth=-\n"
        "M 0 1/4\n"
        "P 1/4 1/2\n"
        "L 1/2 3/4\n"
        "M 3/4 1\n"
    )


def test_dump_is_the_same_for_shared_and_equal_ends():
    # an entry reuses its left neighbour's end text only when it starts
    # on that very object; an equal but distinct end is written again
    shared = compute_signature(tn(("1/4", "1/2", Label.P), ("1/2", "3/4", Label.L)))
    assert shared.entries[1].lo is shared.entries[0].hi
    equal = [Piece(F(e.lo.numerator, e.lo.denominator), F(e.hi.numerator, e.hi.denominator), e.label)
             for e in shared.entries]
    assert not any(a.hi is b.lo for a, b in zip(equal, equal[1:]))
    assert list(signature_lines(Signature(equal))) == list(signature_lines(shared))


# each lazy family, and the first depth at which its truncated signature
# shows a successor pair (None: the family is dense and never shows one)
FIRST_SUCCESSOR_DEPTH = {
    "limit-left": 2,
    "limit-right": 2,
    "theta omega": 1,
    "theta omega_star": 1,
    "theta zeta": 2,
    "theta eta": None,
    "theta omega_plus_omega_star": 1,
    "cantor cantor:middle-third": None,
    "cantor cantor:svc": None,
    "cantor cantor:non-e": 3,
}


@pytest.mark.parametrize("family, first", FIRST_SUCCESSOR_DEPTH.items())
def test_successor_pair_is_sound_on_truncations(family, first):
    t = parse_presentation_text(f"tnorm v1\nfamily {family}\n")
    found = []
    for depth in range(1, 41):
        pair = compute_signature(t, depth).successor_pair()
        if pair is None:
            continue
        found.append(depth)
        a, b = pair
        assert a.hi == b.lo
        # deeper pieces never come between the two entries
        deeper = compute_signature(t, depth + 20).entries
        assert deeper[deeper.index(a) + 1] == b
    assert (found[0] if found else None) == first


def test_successor_pair_is_leftmost():
    sig = compute_signature(tn((0, "1/4", Label.P), ("1/2", "3/4", Label.L), ("3/4", 1, Label.P)))
    assert sig.successor_pair() == (sig.entries[0], sig.entries[1])
    apart = (Piece(F(0), F(1, 4), Label.P), Piece(F(1, 2), F(1), Label.P))
    assert Signature(apart, truncation_depth=2).successor_pair() is None
