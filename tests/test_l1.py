"""Index structures over the rational enumeration: both routes, frozen values."""

import itertools
from bisect import bisect_left, bisect_right
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ordsum.l1 as l1
from conftest import (
    FINITE_CORPUS,
    LAZY_FAMILY_LINES,
    PAIR_A,
    PAIR_A_SWAPPED,
    PAIR_B,
    relations,
    tn,
)
from ordsum.cantor import CantorGapGenerator, parse_system
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
from ordsum.presentations import parse_presentation_text
from ordsum.rationals import (
    count_up_to,
    fractions_up_to,
    min_rational_in,
    rational_at,
    rational_index,
)
from ordsum.signature import Label, compute_signature
from ordsum.tnorm import PreconditionError, find_idempotent_power, uncovered


class TestStructureValidation:
    def test_repeated_index_rejected(self):
        with pytest.raises(ValueError, match="twice"):
            L1Structure(4, ((1, Label.P), (1, Label.L)))

    def test_index_beyond_size_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            L1Structure(4, ((1, Label.P), (4, Label.M)))

    def test_size_below_one_rejected(self):
        with pytest.raises(ValueError, match="size"):
            L1Structure(0, ())

    def test_chain_orders_active_indices(self):
        s = theta(PAIR_A, 8)
        assert s.chain() == (0, 3, 4, 1)
        assert [label for _, label in s.entries] == [Label.M, Label.P, Label.L, Label.M]


def _oracle_less(s):
    """The order relation built pair by pair from the witness values."""
    values = {n: rational_at(n) for n in s.chain()}
    return {(m, n) for m in values for n in values if values[m] < values[n]}


class TestChainAgainstPairwiseOracle:
    def test_finite_corpus(self, finite_corpus):
        for t in finite_corpus:
            for size in range(6, 41):
                s = theta(t, size)
                assert relations(s)[3] == _oracle_less(s)
                # probing costs quadratic in size; the ends and the
                # corpus size of the probing tests keep this fast
                if size in (6, 16, 40):
                    assert theta_by_probing(t, size) == s

    @pytest.mark.parametrize("t", [
        order_tnorm(parse_order("omega")),
        order_tnorm(parse_order("eta")),
        CantorGapGenerator(parse_system("cantor:svc")),
    ], ids=["omega", "eta", "cantor-svc"])
    def test_lazy_families(self, t):
        for size in (6, 20, 40):
            s = theta(t, size, depth=12)
            assert relations(s)[3] == _oracle_less(s)


class TestThetaFinite:
    def test_single_product_piece(self):
        s = theta(tn((F(1, 2), 1, "P")), 6)
        rp, rl, rm, less = relations(s)
        assert (rm, rp, rl) == (frozenset({0}), frozenset({4}), frozenset())
        assert less == frozenset({(0, 4)})
        assert not s.qualified

    def test_minimum(self):
        rp, rl, rm, less = relations(theta(tn(), 4))
        assert (rm, rp, rl) == (frozenset({0}), frozenset(), frozenset())
        assert less == frozenset()

    def test_two_piece_presentation(self):
        rp, rl, rm, less = relations(theta(PAIR_A, 8))
        assert rm == frozenset({0, 1})
        assert rp == frozenset({3})
        assert rl == frozenset({4})
        assert less == frozenset(
            {(0, 3), (0, 4), (0, 1), (3, 4), (3, 1), (4, 1)}
        )

    def test_narrow_product_piece_activates_late(self):
        # the witness of (1/10, 1/5) is 1/6, index 11
        rp8, rl8, rm8, _ = relations(theta(PAIR_B, 8))
        assert (rm8, rp8, rl8) == (frozenset({0, 1}), frozenset(), frozenset({2}))
        rp16, _, _, less16 = relations(theta(PAIR_B, 16))
        assert rp16 == frozenset({11})
        assert (11, 2) in less16 and (0, 11) in less16

    def test_full_lukasiewicz(self):
        rp, rl, rm, _ = relations(theta(tn((0, 1, "L")), 4))
        assert (rm, rp, rl) == (frozenset(), frozenset(), frozenset({2}))

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
        assert (relations(s)[2], s.qualified) == (frozenset({0}), False)

    def test_uncovered_tail_sets_qualified(self):
        t = order_tnorm(parse_order("omega"))
        s = theta(t, 8, depth=8)
        rp, _, rm, less = relations(s)
        # gap [0,1/3] -> 0; piece (1/3,2/3) -> 1/2 = q_2; gap [2/3,7/9] -> 2/3 = q_4
        assert rm == frozenset({0, 4})
        assert rp == frozenset({2})
        assert less == frozenset({(0, 2), (0, 4), (2, 4)})
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


LAZY_FAMILIES = {
    line: parse_presentation_text(f"tnorm v1\nfamily {line}\n") for line in LAZY_FAMILY_LINES
}


def oracle_theta_by_size(t, size, depth=None, cut=None):
    """`theta` with the rule it had before the cutoff: a rational is
    dismissed without an index only when its denominator exceeds `cut`
    (default: size).  Any cut at least the denominator of q_(size-1) is
    sound, since the enumeration is denominator-major."""
    sig = compute_signature(t, depth)
    cut = size if cut is None else cut

    def index_below(q):
        if q.denominator > cut:
            return None
        idx = rational_index(q)
        return idx if idx < size else None

    qualified = not sig.complete and any(
        index_below(min_rational_in(lo, hi, closed=True)) is not None
        for lo, hi in uncovered((e.lo, e.hi) for e in sig.entries)
    )
    witnesses = []
    for e in sig.entries:
        value = min_rational_in(e.lo, e.hi, closed=e.label is Label.M)
        idx = index_below(value)
        if idx is not None:
            witnesses.append((value, idx, e.label))
    return L1Structure(size, tuple((n, label) for _, n, label in sorted(witnesses)), qualified)


class TestSizeCutoff:
    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            st.tuples(st.sampled_from(FINITE_CORPUS), st.none()),
            st.tuples(st.sampled_from(sorted(LAZY_FAMILIES)).map(LAZY_FAMILIES.get),
                      st.integers(1, 40)),
        ),
        st.one_of(st.integers(1, 200), st.integers(1, 10**6)),
    )
    def test_agrees_with_dismissal_by_size(self, t_depth, size):
        t, depth = t_depth
        assert theta(t, size, depth) == oracle_theta_by_size(t, size, depth)

    @pytest.fixture
    def counted(self, monkeypatch):
        """Every rational `theta` asks `rational_index` about, in call order."""
        calls = []

        def counting_index(q):
            calls.append(q)
            return rational_index(q)

        monkeypatch.setattr(l1, "rational_index", counting_index)
        return calls

    @pytest.mark.parametrize("line", sorted(LAZY_FAMILIES))
    def test_no_index_counted_beyond_the_cutoff(self, counted, line):
        t = LAZY_FAMILIES[line]
        for size in (1, 12, 1000, 10**6):
            cut = rational_at(size - 1).denominator
            counted.clear()
            s = theta(t, size, depth=30)
            beyond = [q for q in counted if q.denominator > cut]
            assert not beyond, (size, cut, beyond)
            assert len(counted) == len(s.entries)
            assert s == oracle_theta_by_size(t, size, depth=30)

    def test_eta_counts_an_index_only_for_a_chain_entry(self, counted):
        # 30 of eta's first 400 pieces have witnesses with denominators
        # between q_(size-1)'s and the size; `theta` counts none of them
        t, size = LAZY_FAMILIES["theta eta"], 10**12
        s = theta(t, size, depth=400)
        assert len(counted) == len(s.entries) > 0
        # counting those 30 indices would take minutes (6 s for one at
        # denominator 10^9), so the oracle dismisses past q_(size-1)'s
        # denominator, which is sound because the enumeration is
        # denominator-major
        cut = rational_at(size - 1).denominator
        assert s == oracle_theta_by_size(t, size, depth=400, cut=cut)


# cuts of the random presentations sit on multiples of 1/PROBE_DEN, and
# every entry (piece or min region) is at least 3/PROBE_DEN wide, so the
# denominator-PROBE_DEN scans of theta_by_probing are definitive
PROBE_DEN = 24


@st.composite
def coarse_presentations(draw):
    cuts = [0]
    while PROBE_DEN - cuts[-1] >= 6 and draw(st.booleans()):
        cuts.append(draw(st.integers(cuts[-1] + 3, PROBE_DEN - 3)))
    cuts.append(PROBE_DEN)
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        label = draw(st.sampled_from("PLM"))
        if label != "M":  # an M segment is left to the min regions
            pieces.append((F(lo, PROBE_DEN), F(hi, PROBE_DEN), label))
    return tn(*pieces)


# exponents the oracle iterates before the closed form answers
ORACLE_POWER_LIMIT = 64


def oracle_theta_by_probing(t, size, denominator_limit=32):
    """`theta_by_probing` with every quantifier a scan over the enumeration.

    Each q_i comes from `rational_at`, each "only idempotents between"
    from bisecting the sorted scan, and a min-region companion from a
    pass over every scan position.  The library reads scan positions
    instead; the two must agree, raises included.
    """
    if size > count_up_to(denominator_limit):
        raise BoundInsufficiency(
            f"size {size} exceeds the denominator <= {denominator_limit} prefix",
        )
    scan_values = [q for q, _ in fractions_up_to(denominator_limit)]
    idem = [t.eval(q, q) == q for q in scan_values]
    prefix = [0]
    for flag in idem:
        prefix.append(prefix[-1] + (0 if flag else 1))

    def scan_between(i, j):
        """(total, non-idempotent) scan rationals at positions i..j-1."""
        return max(0, j - i), prefix[j] - prefix[i] if j > i else 0

    witnesses = []
    for n in range(size):
        qn = rational_at(n)
        if t.eval(qn, qn) != qn:
            if not all(t.eval(rational_at(i), qn) == min(rational_at(i), qn) for i in range(n)):
                continue
            value = qn
            for _ in range(2, ORACLE_POWER_LIMIT + 1):
                value = t.eval(value, qn)
                if t.eval(value, value) == value:
                    label = Label.L
                    break
            else:
                power = find_idempotent_power(t, qn, ORACLE_POWER_LIMIT)
                label = Label.P if power is None else Label.L
            witnesses.append((qn, n, label))
            continue
        witnessed = vacuous = False
        below = bisect_left(scan_values, qn)
        above = bisect_right(scan_values, qn)
        for pos in itertools.chain(range(below), range(above, len(scan_values))):
            if not idem[pos]:
                continue
            if pos < below:
                total, bad = scan_between(pos + 1, below)
            else:
                total, bad = scan_between(above, pos)
            if bad:
                continue
            if total == 0:
                vacuous = True
                continue
            witnessed = True
            break
        if not witnessed:
            if vacuous:
                raise BoundInsufficiency(
                    f"cannot certify a min-region companion for index {n}",
                )
            continue
        settled = True
        for i in range(n):
            qi = rational_at(i)
            lo, hi = min(qi, qn), max(qi, qn)
            total, bad = scan_between(
                bisect_right(scan_values, lo), bisect_left(scan_values, hi)
            )
            if bad:
                continue
            if total == 0:
                raise BoundInsufficiency(
                    f"no scan rationals between indices {i} and {n}",
                )
            settled = False
            break
        if settled:
            witnesses.append((qn, n, Label.M))
    return L1Structure(size, tuple((n, label) for _, n, label in sorted(witnesses)))


ENDPOINTS = st.integers(2, 40).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda k: F(k, d))
)


@st.composite
def fine_presentations(draw):
    """Pieces between random cuts of denominator <= 40, some far too thin to scan."""
    cuts = sorted(draw(st.sets(ENDPOINTS, max_size=6)))
    bounds = [F(0), *cuts, F(1)]
    labels = draw(st.lists(st.sampled_from("PLM"), min_size=len(bounds) - 1,
                           max_size=len(bounds) - 1))
    return tn(*[(lo, hi, k) for lo, hi, k in zip(bounds, bounds[1:], labels) if k != "M"])


def probing_outcome(route, t, size, denominator_limit):
    try:
        return route(t, size, denominator_limit=denominator_limit)
    except BoundInsufficiency as err:
        return type(err), str(err)


class TestProbingRoute:
    def test_agrees_with_structural_route_on_corpus(self, finite_corpus):
        for t in finite_corpus:
            assert theta_by_probing(t, 16) == theta(t, 16)

    @given(coarse_presentations(), st.integers(1, 60))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_structural_route_on_random_presentations(self, t, size):
        assert theta_by_probing(t, size, denominator_limit=PROBE_DEN) == theta(t, size)

    @given(fine_presentations(), st.integers(2, 32), st.data())
    @settings(max_examples=150, deadline=None)
    def test_agrees_with_scan_oracle(self, t, denominator_limit, data):
        size = data.draw(st.integers(1, count_up_to(denominator_limit) + 2))
        want = probing_outcome(oracle_theta_by_probing, t, size, denominator_limit)
        assert probing_outcome(theta_by_probing, t, size, denominator_limit) == want

    def test_single_lukasiewicz_piece_by_hand(self):
        rp, rl, rm, _ = relations(theta_by_probing(tn((0, 1, "L")), 4))
        assert (rm, rp, rl) == (frozenset(), frozenset(), frozenset({2}))

    def test_lazy_rejected(self):
        with pytest.raises(PreconditionError):
            theta_by_probing(order_tnorm(parse_order("omega")), 4)

    def test_size_beyond_scan_prefix_rejected(self):
        with pytest.raises(BoundInsufficiency, match="size 10 exceeds the denominator <= 2 prefix"):
            theta_by_probing(tn(), 10, denominator_limit=2)

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
            rp, rl, _, _ = relations(theta(t, 16))
            for n in range(16):
                min_behaved = all(
                    subbasis_predicates(t, i, n).u_mn for i in range(n)
                )
                non_idem = not subbasis_predicates(t, 0, n).v_qn
                power = find_idempotent_power(t, rational_at(n), 64)
                assert (n in rp) == (
                    non_idem and power is None and min_behaved
                )
                assert (n in rl) == (
                    non_idem and power is not None and min_behaved
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
            label_a, label_b = dict(a.entries), dict(b.entries)
            less_a, less_b = relations(a)[3], relations(b)[3]
            for xi in perms:
                if all(label_a.get(n) == label_b.get(xi[n]) for n in range(6)) and {
                    (xi[m], xi[n]) for m, n in less_a
                } == set(less_b):
                    return True
            return False

        for a in structures:
            for b in structures:
                assert l1_iso_finite(a, b) == brute(a, b)


def oracle_format_l1(s):
    """`format_l1` from the relation sets: each group sorted, every pair sorted."""
    rp, rl, rm, less = relations(s)
    lines = [f"l1 v1 n={s.size} qualified={'true' if s.qualified else 'false'}"]
    for name, group in (("rp", rp), ("rl", rl), ("rm", rm)):
        member_text = " ".join(str(n) for n in sorted(group))
        lines.append(f"{name}: {member_text}".rstrip())
    for m, n in sorted(less):
        lines.append(f"less: {m} {n}")
    return "\n".join(lines) + "\n"


@st.composite
def structures(draw):
    """A chain of distinct random indices below the size, in random order."""
    size = draw(st.one_of(st.integers(1, 40), st.integers(1, 10**12)))
    indices = draw(st.lists(st.integers(0, size - 1), unique=True, max_size=30))
    labels = draw(st.lists(st.sampled_from([Label.P, Label.L, Label.M]),
                           min_size=len(indices), max_size=len(indices)))
    return L1Structure(size, tuple(zip(indices, labels)), draw(st.booleans()))


class TestDumpFormat:
    @given(structures())
    @example(L1Structure(1, ()))
    @example(L1Structure(10**12, ((10**12 - 1, Label.L),), qualified=True))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_relation_set_oracle(self, s):
        assert format_l1(s) == oracle_format_l1(s)

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
