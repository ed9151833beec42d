"""Index structures over the rational enumeration: both routes, frozen values."""

import itertools
from fractions import Fraction as F

import pytest

import ordsum.l1 as l1
from conftest import PAIR_A, PAIR_A_SWAPPED, PAIR_B, tn
from ordsum.l1 import (
    BoundInsufficiency,
    L1Structure,
    SubbasisRecord,
    format_l1,
    l1_iso_finite,
    subbasis_predicates,
    theta,
    theta_by_probing,
)
from ordsum.orders import parse_order, order_tnorm
from ordsum.rationals import rational_at
from ordsum.signature import Label
from ordsum.tnorm import PreconditionError, find_idempotent_power


class TestStructureValidation:
    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            L1Structure(4, frozenset({1}), frozenset({1}), frozenset(), frozenset())

    def test_less_on_inactive_rejected(self):
        with pytest.raises(ValueError, match="inactive"):
            L1Structure(4, frozenset({1}), frozenset(), frozenset(), frozenset({(1, 2)}))

    def test_less_must_be_linear(self):
        with pytest.raises(ValueError, match="linear"):
            L1Structure(
                4, frozenset({1, 2, 3}), frozenset(), frozenset(),
                frozenset({(1, 2), (2, 3)}),  # missing (1, 3)
            )

    def test_chain_orders_active_indices(self):
        s = theta(PAIR_A, 8)
        assert s.chain() == (0, 3, 4, 1)
        assert [s.label_of(n) for n in s.chain()] == [Label.M, Label.P, Label.L, Label.M]


class TestThetaFinite:
    def test_single_product_piece(self):
        s = theta(tn((F(1, 2), 1, "P")), 6)
        assert (s.rm, s.rp, s.rl) == (frozenset({0}), frozenset({4}), frozenset())
        assert s.less == frozenset({(0, 4)})
        assert not s.qualified

    def test_minimum(self):
        s = theta(tn(), 4)
        assert (s.rm, s.rp, s.rl) == (frozenset({0}), frozenset(), frozenset())
        assert s.less == frozenset()

    def test_two_piece_presentation(self):
        s = theta(PAIR_A, 8)
        assert s.rm == frozenset({0, 1})
        assert s.rp == frozenset({3})
        assert s.rl == frozenset({4})
        assert s.less == frozenset(
            {(0, 3), (0, 4), (0, 1), (3, 4), (3, 1), (4, 1)}
        )

    def test_narrow_product_piece_activates_late(self):
        # the witness of (1/10, 1/5) is 1/6, index 11
        s8 = theta(PAIR_B, 8)
        assert (s8.rm, s8.rp, s8.rl) == (frozenset({0, 1}), frozenset(), frozenset({2}))
        s16 = theta(PAIR_B, 16)
        assert s16.rp == frozenset({11})
        assert (11, 2) in s16.less and (0, 11) in s16.less

    def test_full_lukasiewicz(self):
        s = theta(tn((0, 1, "L")), 4)
        assert (s.rm, s.rp, s.rl) == (frozenset(), frozenset(), frozenset({2}))

    def test_size_below_one_rejected(self):
        with pytest.raises(PreconditionError):
            theta(PAIR_A, 0)


class TestThetaLazy:
    def test_depth_required(self):
        t = order_tnorm(parse_order("omega"))
        with pytest.raises(PreconditionError):
            theta(t, 4)
        with pytest.raises(PreconditionError):
            theta(t, 4, depth=0)

    def test_covered_prefix_is_unqualified(self):
        t = order_tnorm(parse_order("omega"))
        s = theta(t, 1, depth=8)
        assert (s.rm, s.qualified) == (frozenset({0}), False)

    def test_uncovered_tail_sets_qualified(self):
        t = order_tnorm(parse_order("omega"))
        s = theta(t, 8, depth=8)
        # gap [0,1/3] -> 0; piece (1/3,2/3) -> 1/2 = q_2; gap [2/3,7/9] -> 2/3 = q_4
        assert s.rm == frozenset({0, 4})
        assert s.rp == frozenset({2})
        assert s.less == frozenset({(0, 2), (0, 4), (2, 4)})
        assert s.qualified  # q_1 = 1 lies beyond every built piece

    def test_dense_order_is_qualified_from_the_start(self):
        t = order_tnorm(parse_order("eta"))
        assert theta(t, 1, depth=6).qualified

    def test_deep_pieces_dismissed_without_an_index(self, monkeypatch):
        # omega's piece n has denominator about 3^(n+1): far past size 20
        # from piece 3 on, so no index needs to be counted for it
        counted = []
        index = l1.rational_index

        def counting_index(q):
            counted.append(q)
            return index(q)

        t = order_tnorm(parse_order("omega"))
        shallow = theta(t, 20, depth=12)
        monkeypatch.setattr(l1, "rational_index", counting_index)
        assert theta(t, 20, depth=16) == shallow
        assert counted and max(q.denominator for q in counted) <= 20


class TestProbingRoute:
    def test_agrees_with_structural_route_on_corpus(self, finite_corpus):
        for t in finite_corpus:
            assert theta_by_probing(t, 16) == theta(t, 16)

    def test_single_lukasiewicz_piece_by_hand(self):
        s = theta_by_probing(tn((0, 1, "L")), 4)
        assert (s.rm, s.rp, s.rl) == (frozenset(), frozenset(), frozenset({2}))

    def test_lazy_rejected(self):
        with pytest.raises(PreconditionError):
            theta_by_probing(order_tnorm(parse_order("omega")), 4)

    def test_size_beyond_scan_prefix_rejected(self):
        with pytest.raises(BoundInsufficiency) as info:
            theta_by_probing(tn(), 10, denominator_limit=2)
        assert info.value.bound == "denominator"

    def test_unprobeable_min_region_companion_raises(self):
        # 1/5 and 6/29 are adjacent among denominator <= 32 rationals, so
        # the sliver piece between them hides from every scan; the lone
        # candidate companion for q_7 = 1/5 is unverifiable.
        t = tn((0, F(1, 5), "L"), (F(1, 5), F(6, 29), "P"), (F(6, 29), 1, "L"))
        with pytest.raises(BoundInsufficiency, match="index 7"):
            theta_by_probing(t, 8)


class TestSubbasisPredicates:
    def test_minimum_everything_idempotent(self):
        rec = subbasis_predicates(tn(), 3, 5)
        assert rec == SubbasisRecord(v_qn=True, u_mn=True, w_mn=False)

    def test_full_lukasiewicz_interior(self):
        t = tn((0, 1, "L"))
        assert subbasis_predicates(t, 2, 2).v_qn is False
        assert subbasis_predicates(t, 2, 4).w_mn is True  # 1/2 < 2/3
        assert subbasis_predicates(t, 2, 3).u_mn is False  # 1/2 * 1/3 = 0

    def test_preimage_identities_on_corpus(self, finite_corpus):
        for t in finite_corpus:
            s = theta(t, 16)
            for n in range(16):
                min_behaved = all(
                    subbasis_predicates(t, i, n).u_mn for i in range(n)
                )
                non_idem = not subbasis_predicates(t, 0, n).v_qn
                power = find_idempotent_power(t, rational_at(n), 64)
                assert (n in s.rp) == (
                    non_idem and power.outcome == "no" and min_behaved
                )
                assert (n in s.rl) == (
                    non_idem and power.outcome == "yes" and min_behaved
                )


class TestIsoOfStructures:
    def test_identity(self):
        s = theta(PAIR_A, 8)
        assert l1_iso_finite(s, s)

    def test_shared_shape_at_sixteen(self):
        assert l1_iso_finite(theta(PAIR_A, 16), theta(PAIR_B, 16))

    def test_swapped_labels_differ(self):
        assert not l1_iso_finite(theta(PAIR_A, 8), theta(PAIR_A_SWAPPED, 8))

    def test_size_mismatch_rejected(self):
        with pytest.raises(PreconditionError, match="size"):
            l1_iso_finite(theta(PAIR_A, 8), theta(PAIR_A, 16))

    def test_qualified_rejected(self):
        lazy = theta(order_tnorm(parse_order("omega")), 8, depth=8)
        assert lazy.qualified
        with pytest.raises(PreconditionError, match="qualified"):
            l1_iso_finite(lazy, lazy)

    def test_matches_exhaustive_permutation_search(self, finite_corpus):
        structures = [theta(t, 6) for t in finite_corpus[:10]]
        perms = list(itertools.permutations(range(6)))

        def brute(a, b):
            for xi in perms:
                if all(a.label_of(n) == b.label_of(xi[n]) for n in range(6)) and {
                    (xi[m], xi[n]) for m, n in a.less
                } == set(b.less):
                    return True
            return False

        for a in structures:
            for b in structures:
                assert l1_iso_finite(a, b) == brute(a, b)


class TestDumpFormat:
    def test_two_piece_dump(self):
        text = format_l1(theta(PAIR_A, 8))
        assert text == (
            "l1 v1 n=8 qualified=false\n"
            "rp: 3\n"
            "rl: 4\n"
            "rm: 0 1\n"
            "less: 0 1\n"
            "less: 0 3\n"
            "less: 0 4\n"
            "less: 3 1\n"
            "less: 3 4\n"
            "less: 4 1\n"
        )

    def test_empty_groups_render_bare(self):
        text = format_l1(theta(tn(), 4))
        assert text == "l1 v1 n=4 qualified=false\nrp:\nrl:\nrm: 0\n"

    def test_qualified_flag_shows(self):
        text = format_l1(theta(order_tnorm(parse_order("eta")), 2, depth=4))
        assert text.startswith("l1 v1 n=2 qualified=true\n")
