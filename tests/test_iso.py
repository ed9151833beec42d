"""Isomorphism verdicts: finite label sequences, witnesses, lazy certificates."""

from fractions import Fraction as F

import pytest

from ordsum.cantor import gap_tnorm, parse_system
from ordsum.families import ladder_tnorm
from ordsum.iso import (
    CardinalityMismatch,
    DensityMismatch,
    FiniteLabelSequenceMismatch,
    Iso,
    IsoWitness,
    MaximumExistsMismatch,
    MinimumExistsMismatch,
    NotIso,
    SuccessorPairPresent,
    Unknown,
    back_and_forth,
    build_iso_map,
    decide_iso_finite,
    decide_iso_lazy,
    format_verdict,
)
from ordsum.orders import order_tnorm, parse_order
from ordsum.signature import Label, Signature, SignatureEntry, compute_signature
from ordsum.tnorm import (
    FinitePresentation,
    Piece,
    PieceGenerator,
    PieceKind,
    PreconditionError,
    StructuralFacts,
    TNorm,
)


def tn(*pieces):
    return TNorm(
        FinitePresentation(
            tuple(Piece(F(lo), F(hi), PieceKind(kind)) for lo, hi, kind in pieces)
        )
    )


PAIR_A = tn((F(1, 4), F(1, 2), "P"), (F(1, 2), F(3, 4), "L"))
PAIR_B = tn((F(1, 10), F(1, 5), "P"), (F(1, 5), F(9, 10), "L"))
PAIR_B_SWAPPED = tn((F(1, 10), F(1, 5), "L"), (F(1, 5), F(9, 10), "P"))
MINIMUM = tn()


class TestFiniteDecision:
    def test_matching_label_sequences(self):
        verdict = decide_iso_finite(compute_signature(PAIR_A), compute_signature(PAIR_B))
        assert isinstance(verdict, Iso)
        got = [(a.label, b.label) for a, b in verdict.witness.entry_map]
        assert got == [(Label.M, Label.M), (Label.P, Label.P), (Label.L, Label.L), (Label.M, Label.M)]

    def test_swapped_kinds_differ_at_first_piece(self):
        verdict = decide_iso_finite(
            compute_signature(PAIR_A), compute_signature(PAIR_B_SWAPPED)
        )
        assert verdict == NotIso(FiniteLabelSequenceMismatch(1))
        assert verdict.reason.tag == "FiniteLabelSequenceMismatch(1)"

    def test_prefix_mismatch_lands_at_shorter_length(self):
        # [P, M] against [P]: sequences agree through position 0
        half = tn((0, F(1, 2), "P"))
        full = tn((0, 1, "P"))
        verdict = decide_iso_finite(compute_signature(half), compute_signature(full))
        assert verdict == NotIso(FiniteLabelSequenceMismatch(1))

    def test_minimum_is_isomorphic_to_itself_only(self):
        sig = compute_signature(MINIMUM)
        assert isinstance(decide_iso_finite(sig, sig), Iso)
        other = compute_signature(tn((0, 1, "L")))
        assert decide_iso_finite(sig, other) == NotIso(FiniteLabelSequenceMismatch(0))

    def test_incomplete_signature_rejected(self):
        lazy_sig = compute_signature(ladder_tnorm("limit-left"), depth=3)
        with pytest.raises(PreconditionError):
            decide_iso_finite(lazy_sig, compute_signature(PAIR_A))


class TestWitnessMap:
    def test_map_fixes_endpoints_and_increases(self):
        witness = build_iso_map(PAIR_A, PAIR_B)
        assert witness.apply(F(0)) == 0
        assert witness.apply(F(1)) == 1
        points = [F(i, 32) for i in range(33)]
        images = [witness.apply(x) for x in points]
        assert all(u < v for u, v in zip(images, images[1:]))

    def test_map_carries_entries_onto_entries(self):
        witness = build_iso_map(PAIR_A, PAIR_B)
        assert witness.apply(F(1, 4)) == F(1, 10)
        assert witness.apply(F(1, 2)) == F(1, 5)
        assert witness.apply(F(3, 4)) == F(9, 10)

    def test_map_is_a_homomorphism(self):
        witness = build_iso_map(PAIR_A, PAIR_B)
        grid = [F(i, 8) for i in range(9)]
        for x in grid:
            for y in grid:
                lhs = witness.apply(PAIR_A.eval(x, y))
                rhs = PAIR_B.eval(witness.apply(x), witness.apply(y))
                assert lhs == rhs

    def test_non_isomorphic_pair_rejected(self):
        with pytest.raises(PreconditionError, match="FiniteLabelSequenceMismatch"):
            build_iso_map(PAIR_A, PAIR_B_SWAPPED)

    def test_lazy_input_rejected(self):
        with pytest.raises(PreconditionError):
            build_iso_map(PAIR_A, ladder_tnorm("limit-right"))

    def test_witness_without_map_cannot_apply(self):
        bare = IsoWitness(entry_map=())
        with pytest.raises(PreconditionError):
            bare.apply(F(1, 2))


class StubGenerator(PieceGenerator):
    """All structural facts unknown; used to exercise the UNKNOWN path."""

    kind = PieceKind.PRODUCT

    def __init__(self, tag):
        self.fingerprint = ("stub", tag)
        self.facts = StructuralFacts(None, None, None)

    def piece_at(self, n):
        return Piece(F(1, n + 3), F(1, n + 2), PieceKind.PRODUCT)

    def tail_length_bound(self, n):
        return F(1, n + 2)

    def locate(self, q, depth):
        raise NotImplementedError

    def __repr__(self):
        return f"StubGenerator({self.fingerprint[1]!r})"


class TestLazyDecision:
    def test_rejects_finite_inputs_and_bad_depth(self):
        lazy = ladder_tnorm("limit-left")
        with pytest.raises(PreconditionError):
            decide_iso_lazy(PAIR_A, PAIR_B, 4)
        with pytest.raises(PreconditionError):
            decide_iso_lazy(lazy, lazy, 0)
        with pytest.raises(PreconditionError):
            decide_iso_lazy(PAIR_A, lazy, 0)

    @pytest.mark.parametrize("finite", [PAIR_A, MINIMUM], ids=["pair", "minimum"])
    @pytest.mark.parametrize(
        "lazy",
        [
            ladder_tnorm("limit-left"),
            order_tnorm(parse_order("eta")),
            gap_tnorm(parse_system("cantor:middle-third")),
        ],
        ids=["ladder", "eta", "cantor"],
    )
    def test_finite_vs_lazy_is_cardinality_mismatch(self, finite, lazy):
        assert decide_iso_lazy(finite, lazy, 1) == NotIso(CardinalityMismatch())
        assert decide_iso_lazy(lazy, finite, 8) == NotIso(CardinalityMismatch())

    def test_same_fingerprint_short_circuits(self):
        t1 = order_tnorm(parse_order("omega"))
        t2 = order_tnorm(parse_order("omega"))
        verdict = decide_iso_lazy(t1, t2, 6)
        assert isinstance(verdict, Iso)
        assert all(a == b for a, b in verdict.witness.entry_map)

    def test_ladder_anchors_disagree_on_least_entry(self):
        left = ladder_tnorm("limit-left")
        right = ladder_tnorm("limit-right")
        for depth in range(4, 17):
            verdict = decide_iso_lazy(left, right, depth)
            assert verdict == NotIso(MinimumExistsMismatch(Label.P))
            assert verdict.reason.tag == "MinimumExistsMismatch(P)"
        # argument order is immaterial
        assert decide_iso_lazy(right, left, 8) == NotIso(MinimumExistsMismatch(Label.P))

    def test_order_with_least_element_shows_a_min_gap(self):
        t1 = order_tnorm(parse_order("omega"))
        t2 = ladder_tnorm("limit-right")
        verdict = decide_iso_lazy(t1, t2, 6)
        assert verdict == NotIso(MinimumExistsMismatch(Label.M))

    def test_greatest_entry_mismatch(self):
        t1 = order_tnorm(parse_order("omega"))
        t2 = order_tnorm(parse_order("omega_plus_omega_star"))
        verdict = decide_iso_lazy(t1, t2, 6)
        assert verdict == NotIso(MaximumExistsMismatch(Label.M))

    def test_cantor_middle_third_vs_svc_is_iso(self):
        t1 = gap_tnorm(parse_system("cantor:middle-third"))
        t2 = gap_tnorm(parse_system("cantor:svc"))
        verdict = decide_iso_lazy(t1, t2, 8)
        assert isinstance(verdict, Iso)
        pairs = verdict.witness.entry_map
        assert len(pairs) == 8
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                assert (a1.lo < a2.lo) == (b1.lo < b2.lo)

    def test_cantor_middle_third_vs_non_e(self):
        t1 = gap_tnorm(parse_system("cantor:middle-third"))
        t2 = gap_tnorm(parse_system("cantor:non-e"))
        for depth in range(2, 9):
            verdict = decide_iso_lazy(t1, t2, depth)
            assert verdict == NotIso(MinimumExistsMismatch(Label.P))

    def test_dense_vs_successor_witness(self):
        t1 = order_tnorm(parse_order("eta"))
        t2 = order_tnorm(parse_order("zeta"))
        verdict = decide_iso_lazy(t1, t2, 2)
        assert isinstance(verdict, NotIso)
        assert isinstance(verdict.reason, SuccessorPairPresent)
        gap, piece = verdict.reason.entries
        assert (gap.lo, gap.hi, gap.label) == (F(2, 9), F(1, 3), Label.M)
        assert (piece.lo, piece.hi, piece.label) == (F(1, 3), F(2, 3), Label.P)
        # deeper truncations keep producing a shared-endpoint witness
        for depth in range(3, 9):
            deeper = decide_iso_lazy(t1, t2, depth)
            assert isinstance(deeper.reason, SuccessorPairPresent)
            a, b = deeper.reason.entries
            assert a.hi == b.lo

    def test_dense_vs_certified_non_dense_without_witness(self):
        # at depth 1 zeta has one piece and no certified gap yet
        t1 = order_tnorm(parse_order("eta"))
        t2 = order_tnorm(parse_order("zeta"))
        assert decide_iso_lazy(t1, t2, 1) == NotIso(DensityMismatch())

    def test_dense_pairs_match_by_back_and_forth(self):
        t1 = order_tnorm(parse_order("eta"))
        t2 = gap_tnorm(parse_system("cantor:middle-third"))
        verdict = decide_iso_lazy(t1, t2, 8)
        assert isinstance(verdict, Iso)
        assert len(verdict.witness.entry_map) == 8

    def test_unknown_when_no_certificate_applies(self):
        t1 = TNorm(StubGenerator("a"))
        t2 = TNorm(StubGenerator("b"))
        assert decide_iso_lazy(t1, t2, 5) == Unknown(5)


class TestBackAndForth:
    @staticmethod
    def dense_sig(los, label=Label.P):
        entries = tuple(SignatureEntry(F(lo), F(lo) + F(1, 100), label) for lo in los)
        return Signature(entries, complete=False, truncation_depth=len(entries))

    def test_alternating_rounds_respect_order(self):
        s1 = self.dense_sig([F(i, 10) for i in range(1, 9)])
        s2 = self.dense_sig([F(i, 20) for i in range(1, 16, 2)])
        pairs = back_and_forth(s1, s2, 8)
        assert len(pairs) == 8
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                assert (a1.lo < a2.lo) == (b1.lo < b2.lo)

    def test_zero_rounds_is_empty(self):
        s = self.dense_sig([F(1, 10)])
        assert back_and_forth(s, s, 0) == ()

    def test_exhaustion_fails_fast(self):
        s = self.dense_sig([F(1, 10)])
        with pytest.raises(PreconditionError, match="exhausted"):
            back_and_forth(s, s, 3)

    def test_mixed_labels_rejected(self):
        s1 = self.dense_sig([F(1, 10), F(3, 10)])
        s2 = self.dense_sig([F(1, 10), F(3, 10)], label=Label.L)
        with pytest.raises(PreconditionError, match="uniform"):
            back_and_forth(s1, s2, 2)

    def test_negative_rounds_rejected(self):
        s = self.dense_sig([F(1, 10)])
        with pytest.raises(PreconditionError):
            back_and_forth(s, s, -1)


class TestFormatting:
    def test_iso_verdict_lists_matched_entries(self):
        verdict = decide_iso_finite(compute_signature(PAIR_A), compute_signature(PAIR_B))
        text = format_verdict(verdict)
        lines = text.splitlines()
        assert lines[0] == "ISO"
        assert lines[1] == "  (0, 1/4) M ~ (0, 1/10) M"
        assert text.endswith("\n")

    def test_not_iso_verdict_carries_tag_and_detail(self):
        text = format_verdict(NotIso(FiniteLabelSequenceMismatch(1)))
        assert text.splitlines()[0] == "NOT_ISO FiniteLabelSequenceMismatch(1)"
        assert "position 1" in text

    def test_unknown_verdict(self):
        text = format_verdict(Unknown(7))
        assert text.splitlines()[0] == "UNKNOWN depth=7"
