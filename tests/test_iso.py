"""Isomorphism verdicts: finite label sequences, witnesses, lazy certificates."""

import io
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsum.iso
import ordsum.orders
from conftest import FINITE_CORPUS
from ordsum.cantor import CantorGapGenerator, parse_system
from ordsum.cli import main
from ordsum.families import LadderGenerator
from ordsum.iso import (
    Iso,
    NotIso,
    back_and_forth,
    build_iso_map,
    decide_iso_finite,
    decide_iso_lazy,
    format_verdict,
)
from ordsum.orders import LinearOrder, order_tnorm, parse_order
from ordsum.presentations import format_presentation
from ordsum.signature import Label, Signature, compute_signature
from ordsum.tnorm import (
    MAX_LAZY_PIECES,
    FinitePresentation,
    Piece,
    PieceGenerator,
    PreconditionError,
    UnknownAtDepth,
)


def tn(*pieces):
    return FinitePresentation(
        tuple(Piece(F(lo), F(hi), Label(kind)) for lo, hi, kind in pieces)
    )


PAIR_A = tn((F(1, 4), F(1, 2), "P"), (F(1, 2), F(3, 4), "L"))
PAIR_B = tn((F(1, 10), F(1, 5), "P"), (F(1, 5), F(9, 10), "L"))
PAIR_B_SWAPPED = tn((F(1, 10), F(1, 5), "L"), (F(1, 5), F(9, 10), "P"))
MINIMUM = tn()


class TestFiniteDecision:
    def test_matching_label_sequences(self):
        verdict = decide_iso_finite(compute_signature(PAIR_A), compute_signature(PAIR_B))
        assert isinstance(verdict, Iso)
        got = [(a.label, b.label) for a, b in verdict.entry_map]
        assert got == [(Label.M, Label.M), (Label.P, Label.P), (Label.L, Label.L), (Label.M, Label.M)]

    def test_swapped_kinds_differ_at_first_piece(self):
        verdict = decide_iso_finite(
            compute_signature(PAIR_A), compute_signature(PAIR_B_SWAPPED)
        )
        assert verdict == NotIso(
            "FiniteLabelSequenceMismatch(1)", "label sequences first differ at position 1"
        )

    def test_prefix_mismatch_lands_at_shorter_length(self):
        # [P, M] against [P]: sequences agree through position 0
        half = tn((0, F(1, 2), "P"))
        full = tn((0, 1, "P"))
        verdict = decide_iso_finite(compute_signature(half), compute_signature(full))
        assert verdict.tag == "FiniteLabelSequenceMismatch(1)"

    def test_minimum_is_isomorphic_to_itself_only(self):
        sig = compute_signature(MINIMUM)
        assert isinstance(decide_iso_finite(sig, sig), Iso)
        other = compute_signature(tn((0, 1, "L")))
        assert decide_iso_finite(sig, other).tag == "FiniteLabelSequenceMismatch(0)"

    def test_incomplete_signature_rejected(self):
        lazy_sig = compute_signature(LadderGenerator("limit-left"), depth=3)
        with pytest.raises(PreconditionError):
            decide_iso_finite(lazy_sig, compute_signature(PAIR_A))


CUT_POINTS = st.integers(2, 40).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda k: F(k, d))
)


@st.composite
def isomorphic_pairs(draw):
    """One signature label sequence tiled over two random sets of cuts."""
    labels = []
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            labels.append("M")
        labels.append(draw(st.sampled_from("PL")))
    if not labels or draw(st.booleans()):
        labels.append("M")

    def tiling():
        size = len(labels) - 1
        cuts = sorted(draw(st.sets(CUT_POINTS, min_size=size, max_size=size)))
        bounds = [F(0), *cuts, F(1)]
        spans = zip(bounds, bounds[1:], labels)
        return tn(*[(lo, hi, k) for lo, hi, k in spans if k != "M"]), bounds

    return tiling(), tiling()


class TestWitnessMap:
    @given(isomorphic_pairs())
    @settings(max_examples=40, deadline=None)
    def test_random_isomorphic_pairs(self, pair):
        (t1, bounds), (t2, _) = pair
        witness = build_iso_map(t1, t2)
        grid = sorted({*bounds, *((a + b) / 2 for a, b in zip(bounds, bounds[1:]))})
        w = witness.apply
        for x in grid:
            for y in grid:
                assert w(t1.eval(x, y)) == t2.eval(w(x), w(y))
        with tempfile.TemporaryDirectory() as tmp:
            paths = [Path(tmp, name) for name in ("a.tnorm", "b.tnorm")]
            for path, t in zip(paths, (t1, t2)):
                path.write_text(format_presentation(t))
            out = io.StringIO()
            with redirect_stdout(out):
                assert main(["iso", *map(str, paths)]) == 0
        assert out.getvalue() == "".join(format_verdict(witness))

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
            build_iso_map(PAIR_A, LadderGenerator("limit-right"))

    def test_witness_without_map_cannot_apply(self):
        bare = Iso(())
        with pytest.raises(PreconditionError):
            bare.apply(F(1, 2))

    @pytest.mark.parametrize("x", [F(3, 2), F(-1), 0.5], ids=["above", "below", "float"])
    def test_map_rejects_points_outside_the_unit_interval(self, x):
        # FinitePresentation.eval rejects the same points
        with pytest.raises(ValueError):
            PAIR_A.eval(x, x)
        with pytest.raises(ValueError):
            build_iso_map(PAIR_A, PAIR_B).apply(x)


class StubGenerator(PieceGenerator):
    """Order facts False unless given; used to exercise the UNKNOWN path."""

    def __init__(self, tag, has_min_piece=False, has_max_piece=False):
        self.family = f"stub {tag}"
        self.has_min_piece, self.has_max_piece = has_min_piece, has_max_piece
        self.dense_no_endpoints = False

    def _walk(self, depth):
        return ((F(1, n + 3), F(1, n + 2), Label.P) for n in reversed(range(depth)))

    def tail_length_bound(self, n):
        return F(1, n + 2)

    def locate(self, q, depth):
        raise NotImplementedError

    def __repr__(self):
        return f"StubGenerator({self.family!r})"


class TestLazyDecision:
    def test_decides_finite_pairs_and_rejects_bad_depth(self):
        # two finite sides get decide_iso_finite's verdict at any depth
        for t1, t2 in product(FINITE_CORPUS, repeat=2):
            want = decide_iso_finite(compute_signature(t1), compute_signature(t2))
            for depth in (0, 1, 8):
                got = decide_iso_lazy(t1, t2, depth)
                assert type(got) is type(want)
                if isinstance(want, Iso):
                    assert (got.entry_map, got.full) == (want.entry_map, want.full)
                else:
                    assert got == want
        lazy = LadderGenerator("limit-left")
        with pytest.raises(PreconditionError):
            decide_iso_lazy(lazy, lazy, 0)
        with pytest.raises(PreconditionError):
            decide_iso_lazy(PAIR_A, lazy, 0)

    @pytest.mark.parametrize("finite", [PAIR_A, MINIMUM], ids=["pair", "minimum"])
    @pytest.mark.parametrize(
        "lazy",
        [
            LadderGenerator("limit-left"),
            order_tnorm(parse_order("eta")),
            CantorGapGenerator(parse_system("cantor:middle-third")),
        ],
        ids=["ladder", "eta", "cantor"],
    )
    def test_finite_vs_lazy_is_cardinality_mismatch(self, finite, lazy):
        assert decide_iso_lazy(finite, lazy, 1).tag == "CardinalityMismatch"
        assert decide_iso_lazy(lazy, finite, 8).tag == "CardinalityMismatch"

    def test_same_fingerprint_short_circuits(self):
        t1 = order_tnorm(parse_order("omega"))
        t2 = order_tnorm(parse_order("omega"))
        verdict = decide_iso_lazy(t1, t2, 6)
        assert isinstance(verdict, Iso)
        assert all(a == b for a, b in verdict.entry_map)

    def test_ladder_anchors_disagree_on_least_entry(self):
        left = LadderGenerator("limit-left")
        right = LadderGenerator("limit-right")
        for depth in range(4, 17):
            verdict = decide_iso_lazy(left, right, depth)
            assert verdict.tag == "MinimumExistsMismatch(P)"
        # argument order is immaterial
        assert decide_iso_lazy(right, left, 8).tag == "MinimumExistsMismatch(P)"

    def test_order_with_least_element_shows_a_min_gap(self):
        t1 = order_tnorm(parse_order("omega"))
        t2 = LadderGenerator("limit-right")
        verdict = decide_iso_lazy(t1, t2, 6)
        assert verdict.tag == "MinimumExistsMismatch(M)"

    def test_greatest_entry_mismatch(self):
        t1 = order_tnorm(parse_order("omega"))
        t2 = order_tnorm(parse_order("omega_plus_omega_star"))
        verdict = decide_iso_lazy(t1, t2, 6)
        assert verdict.tag == "MaximumExistsMismatch(M)"

    def test_cantor_middle_third_vs_svc_is_iso(self):
        t1 = CantorGapGenerator(parse_system("cantor:middle-third"))
        t2 = CantorGapGenerator(parse_system("cantor:svc"))
        verdict = decide_iso_lazy(t1, t2, 8)
        assert isinstance(verdict, Iso)
        pairs = verdict.entry_map
        assert len(pairs) == 8
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                assert (a1.lo < a2.lo) == (b1.lo < b2.lo)

    def test_cantor_middle_third_vs_non_e(self):
        t1 = CantorGapGenerator(parse_system("cantor:middle-third"))
        t2 = CantorGapGenerator(parse_system("cantor:non-e"))
        for depth in range(2, 9):
            verdict = decide_iso_lazy(t1, t2, depth)
            assert verdict.tag == "MinimumExistsMismatch(P)"

    def test_dense_vs_successor_witness(self):
        t1 = order_tnorm(parse_order("eta"))
        t2 = order_tnorm(parse_order("zeta"))
        verdict = decide_iso_lazy(t1, t2, 2)
        assert isinstance(verdict, NotIso)
        assert verdict.tag.startswith("SuccessorPairPresent(")
        # the leftmost shared endpoint: zeta's -1 sits at (1/9, 2/9), and
        # the certified gap up to 0's piece (1/3, 2/3) follows it
        piece, gap = verdict.entries
        assert (piece.lo, piece.hi, piece.label) == (F(1, 9), F(2, 9), Label.P)
        assert (gap.lo, gap.hi, gap.label) == (F(2, 9), F(1, 3), Label.M)
        # a deeper request still prints the shallowest witness
        for depth in (*range(3, 9), 100):
            assert decide_iso_lazy(t1, t2, depth) == verdict

    def test_dense_vs_certified_non_dense_without_witness(self):
        # at depth 1 zeta has one piece and no certified gap yet
        t1 = order_tnorm(parse_order("eta"))
        t2 = order_tnorm(parse_order("zeta"))
        assert decide_iso_lazy(t1, t2, 1).tag == "DensityMismatch"

    def test_dense_pairs_match_by_back_and_forth(self):
        t1 = order_tnorm(parse_order("eta"))
        t2 = CantorGapGenerator(parse_system("cantor:middle-third"))
        verdict = decide_iso_lazy(t1, t2, 8)
        assert isinstance(verdict, Iso)
        assert len(verdict.entry_map) == 8

    @pytest.mark.parametrize(
        "end, fact",
        [("least", "has_min_piece"), ("greatest", "has_max_piece")],
        ids=["least", "greatest"],
    )
    def test_certified_end_must_show_in_the_truncation(self, end, fact):
        # the stub's pieces (1/(n+3), 1/(n+2)) touch neither 0 nor 1
        t1 = StubGenerator("a", **{fact: True})
        t2 = StubGenerator("b", **{fact: False})
        with pytest.raises(PreconditionError, match=f"^{end} entry certified but not visible"):
            decide_iso_lazy(t1, t2, 5)

    def test_unknown_when_no_certificate_applies(self):
        t1 = StubGenerator("a")
        t2 = StubGenerator("b")
        assert decide_iso_lazy(t1, t2, 5) == UnknownAtDepth(5)


class LateLeast(LinearOrder):
    """omega with element `late` moved below 0, so that its least element is `late`."""

    def __init__(self, late):
        self.name, self.min_element = f"late_least_{late}", late

    def _key(self, n):
        return -1 if n == self.min_element else n

    def _less(self, m, n):
        return self._key(m) < self._key(n)

    def _adjacent(self, m, n):
        if m == self.min_element:
            return n == 0
        return n == m + 1 + (m + 1 == self.min_element)


def iso_against_eta(tmp_path, monkeypatch, late):
    """`ordsum iso` of theta late_least_<late> against theta eta at depth 1:
    exit code, stdout, stderr, and the depth of every signature it read."""
    monkeypatch.setitem(ordsum.orders.NAMED_ORDERS, "late", lambda: LateLeast(late))
    depths = []

    def counted(t, depth=None):
        depths.append(depth)
        return compute_signature(t, depth)

    monkeypatch.setattr(ordsum.iso, "compute_signature", counted)
    paths = []
    for name in ("late", "eta"):
        paths.append(tmp_path / f"{name}.tnorm")
        paths[-1].write_text(f"tnorm v1\nfamily theta {name}\n")
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["iso", *map(str, paths), "1"])
    return code, out.getvalue(), err.getvalue(), depths


class TestEndEntrySearch:
    def test_search_reads_no_more_than_the_piece_cap(self, tmp_path, monkeypatch):
        code, out, err, depths = iso_against_eta(tmp_path, monkeypatch, 5000)
        assert (code, out) == (3, "")
        assert err == f"error: least entry certified but not visible within {MAX_LAZY_PIECES} pieces\n"
        assert max(depths) == MAX_LAZY_PIECES

    def test_search_is_not_bound_by_the_depth(self, tmp_path, monkeypatch):
        # the least element's piece 100 lies beyond the depth, and beyond 64 times it
        code, out, err, depths = iso_against_eta(tmp_path, monkeypatch, 100)
        assert (code, err) == (0, "")
        assert out.splitlines()[0] == "NOT_ISO MinimumExistsMismatch(M)"
        assert max(depths) == 128


def oracle_back_and_forth(s1, s2, k):
    """`back_and_forth` with each round's window and partner found by search.

    The window comes from every matched pair, and the partner is the
    first window position no pair uses.  The library takes the window's
    first position, which order preservation leaves free.
    """
    if k < 0:
        raise PreconditionError("negative round count")
    if len(set(s1.labels()) | set(s2.labels())) > 1:
        raise PreconditionError("back-and-forth needs one uniform shared label")
    e1, e2 = s1.entries, s2.entries
    matched = []
    for round_no in range(k):
        forward = round_no % 2 == 0
        used_src = [m[0] if forward else m[1] for m in matched]
        used_dst = [m[1] if forward else m[0] for m in matched]
        src_entries, dst_entries = (e1, e2) if forward else (e2, e1)
        pick = next((i for i in range(len(src_entries)) if i not in used_src), None)
        if pick is None:
            raise PreconditionError(f"source side exhausted at round {round_no}")
        lo, hi = -1, len(dst_entries)
        for o, p in zip(used_src, used_dst):
            if o < pick:
                lo = max(lo, p)
            else:
                hi = min(hi, p)
        partner = next((j for j in range(lo + 1, hi) if j not in used_dst), None)
        if partner is None:
            raise PreconditionError(f"no partner in the truncation at round {round_no}")
        matched.append((pick, partner) if forward else (partner, pick))
    return tuple((e1[i], e2[j]) for i, j in matched)


@st.composite
def uniform_signature_pairs(draw):
    """Two truncated signatures of up to ten entries, all with one label."""
    label = draw(st.sampled_from([Label.P, Label.L]))

    def signature():
        n = draw(st.integers(0, 10))
        entries = tuple(
            Piece(F(i, n + 1), F(2 * i + 1, 2 * n + 2), label) for i in range(n)
        )
        return Signature(entries, truncation_depth=n + 1)

    return signature(), signature()


def matching_outcome(route, s1, s2, k):
    try:
        return route(s1, s2, k)
    except PreconditionError as err:
        return str(err)


class TestBackAndForth:
    @staticmethod
    def dense_sig(los, label=Label.P):
        entries = tuple(Piece(F(lo), F(lo) + F(1, 100), label) for lo in los)
        return Signature(entries, truncation_depth=len(entries))

    def test_alternating_rounds_respect_order(self):
        s1 = self.dense_sig([F(i, 10) for i in range(1, 9)])
        s2 = self.dense_sig([F(i, 20) for i in range(1, 16, 2)])
        pairs = back_and_forth(s1, s2, 8)
        assert len(pairs) == 8
        for a1, b1 in pairs:
            for a2, b2 in pairs:
                assert (a1.lo < a2.lo) == (b1.lo < b2.lo)

    @given(uniform_signature_pairs(), st.integers(-1, 12))
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_search_oracle(self, pair, k):
        s1, s2 = pair
        want = matching_outcome(oracle_back_and_forth, s1, s2, k)
        assert matching_outcome(back_and_forth, s1, s2, k) == want

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
        text = "".join(format_verdict(verdict))
        lines = text.splitlines()
        assert lines[0] == "ISO"
        assert lines[1] == "  (0, 1/4) M ~ (0, 1/10) M"
        assert text.endswith("\n")

    def test_not_iso_verdict_carries_tag_and_detail(self):
        verdict = decide_iso_finite(
            compute_signature(PAIR_A), compute_signature(PAIR_B_SWAPPED)
        )
        text = "".join(format_verdict(verdict))
        assert text.splitlines()[0] == "NOT_ISO FiniteLabelSequenceMismatch(1)"
        assert "position 1" in text

    def test_unknown_verdict(self):
        text = "".join(format_verdict(UnknownAtDepth(7)))
        assert text.splitlines()[0] == "UNKNOWN depth=7"


# one family file per shipped family: the ten lazy ones and one finite
FAMILIES = [
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
    "theta finite:2,0,1",
]
# `ordsum iso ROW COLUMN 30`, rows and columns in FAMILIES order:
# = ISO, m MinimumExistsMismatch, M MaximumExistsMismatch,
# c CardinalityMismatch, s SuccessorPairPresent, ? UNKNOWN
VERDICTS_AT_30 = """\
=m?mmmMmm?c
m=m?MMmMMmc
?m=mmmMmm?c
m?m=MMmMMmc
mMmM=smssmc
mMmMs=m==mc
MmMmmm=mmMc
mMmMs=m==mc
mMmMs=m==mc
?m?mmmMmm=c
cccccccccc=
"""
VERDICT_CODES = {
    "ISO": "=",
    "MinimumExistsMismatch": "m",
    "MaximumExistsMismatch": "M",
    "CardinalityMismatch": "c",
    "SuccessorPairPresent": "s",
    "UNKNOWN": "?",
}


def test_family_verdict_matrix(tmp_path):
    paths = []
    for i, family in enumerate(FAMILIES):
        path = tmp_path / f"f{i}.tnorm"
        path.write_text(f"tnorm v1\nfamily {family}\n")
        paths.append(str(path))
    rows = []
    for a in paths:
        row = ""
        for b in paths:
            out = io.StringIO()
            with redirect_stdout(out):
                code = main(["iso", a, b, "30"])
            head = out.getvalue().splitlines()[0]
            word = re.match(r"(?:NOT_ISO )?(\w+)", head)[1]
            row += VERDICT_CODES[word]
            assert code == (4 if word == "UNKNOWN" else 0)
            if word == "SuccessorPairPresent":
                _, first_hi, second_lo, _ = re.findall(r"\d+(?:/\d+)?", head)
                assert F(first_hi) == F(second_lo), head
        rows.append(row)
    assert "\n".join(rows) + "\n" == VERDICTS_AT_30
