"""Linear orders and the intervals they pin into [0, 1]."""

import math
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsum.rationals as rationals
from ordsum.orders import (
    EtaOrder,
    FiniteOrder,
    NAMED_ORDERS,
    LinearOrder,
    OmegaOrder,
    OrderPieceGenerator,
    agreement_ball_check,
    build_intervals,
    order_tnorm,
    _Rev,
    _Sum,
    parse_order,
    sampled_distance,
)
from ordsum.presentations import parse_presentation_text
from ordsum.signature import Label, compute_signature
from ordsum.tnorm import (
    IDEMPOTENT,
    FinitePresentation,
    InPiece,
    Piece,
    PieceGenerator,
    MAX_LAZY_PIECES,
    PreconditionError,
    UnknownAtDepth,
    check_axioms,
)

F = Fraction


# The hand-written classes the three composite named orders replaced,
# kept as the oracle for the terms over omega.
class OldOmegaStarOrder(LinearOrder):
    name = "omega_star"
    max_element = 0

    def _less(self, m, n):
        return m > n

    def _adjacent(self, m, n):
        return n == m - 1


def _zeta_image(n):
    return n // 2 if n % 2 == 0 else -(n + 1) // 2


class OldZetaOrder(LinearOrder):
    """Evens code 0, 1, 2, ...; odds code -1, -2, ..."""

    name = "zeta"

    def _less(self, m, n):
        return _zeta_image(m) < _zeta_image(n)

    def _adjacent(self, m, n):
        return _zeta_image(n) == _zeta_image(m) + 1


class OldOmegaPlusOmegaStarOrder(LinearOrder):
    """Evens ascending below all odds, odds descending above: 0, 2, 4, ... 5, 3, 1."""

    name = "omega_plus_omega_star"
    min_element = 0
    max_element = 1

    @staticmethod
    def _key(n):
        return (0, n) if n % 2 == 0 else (1, -n)

    def _less(self, m, n):
        return self._key(m) < self._key(n)

    def _adjacent(self, m, n):
        if m % 2 == 0 and n % 2 == 0:
            return n == m + 2
        if m % 2 == 1 and n % 2 == 1:
            return n == m - 2
        return False


@pytest.mark.parametrize(
    "old", [OldOmegaStarOrder, OldZetaOrder, OldOmegaPlusOmegaStarOrder], ids=lambda c: c.name
)
def test_terms_over_omega_match_the_old_classes(old):
    old, new = old(), parse_order(old.name)
    assert new.name == old.name
    assert (new.min_element, new.max_element, new.dense) == (
        old.min_element,
        old.max_element,
        old.dense,
    )
    for m in range(200):
        for n in range(200):
            assert new.less(m, n) == old.less(m, n), (m, n)
            assert new.adjacent(m, n) == old.adjacent(m, n), (m, n)


def intervals_by_rescan(order, count):
    """Direct restatement of the placement rule, as an oracle."""
    placed = {}
    for n in range(count):
        below = [placed[k][1] for k in placed if order.less(k, n)]
        above = [placed[k][0] for k in placed if order.less(n, k)]
        x = max(below, default=F(0))
        y = min(above, default=F(1))
        eps = F(1, 3) ** (n + 1)
        placed[n] = ((x + y - eps) / 2, (x + y + eps) / 2)
    return [placed[n] for n in range(count)]


# Values worked out by hand from the placement rule.
FROZEN_INTERVALS = {
    "omega": {0: (F(1, 3), F(2, 3)), 1: (F(7, 9), F(8, 9)), 2: (F(25, 27), F(26, 27))},
    "omega_star": {1: (F(1, 9), F(2, 9)), 2: (F(1, 27), F(2, 27))},
    "zeta": {1: (F(1, 9), F(2, 9)), 2: (F(22, 27), F(23, 27)), 3: (F(4, 81), F(5, 81))},
    "eta": {
        1: (F(1, 9), F(2, 9)),
        2: (F(22, 27), F(23, 27)),
        3: (F(4, 81), F(5, 81)),
        4: (F(449, 486), F(451, 486)),
    },
    "omega_plus_omega_star": {
        1: (F(7, 9), F(8, 9)),
        2: (F(19, 27), F(20, 27)),
        3: (F(61, 81), F(62, 81)),
        4: (F(181, 243), F(182, 243)),
    },
}


@pytest.mark.parametrize("name", sorted(FROZEN_INTERVALS))
def test_frozen_intervals(name):
    order = parse_order(name)
    frozen = FROZEN_INTERVALS[name]
    built = build_intervals(order, max(frozen) + 1)
    for n, expected in frozen.items():
        assert built[n] == expected


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_intervals_match_rescan_oracle(name):
    order = parse_order(name)
    assert build_intervals(order, 40) == intervals_by_rescan(order, 40)


def locate_by_scan(order, intervals, q, depth):
    """The locate rule restated by linear scans over the first `depth` pieces."""
    if q == 0 or q == 1:
        return IDEMPOTENT
    placed = intervals[:depth]
    for n, (lo, hi) in enumerate(placed):
        if lo < q < hi:
            return InPiece(n, Piece(lo, hi, Label.P))
        if q == lo or q == hi:
            return IDEMPOTENT
    below = [n for n in range(depth) if placed[n][1] < q]
    above = [n for n in range(depth) if placed[n][0] > q]
    left = max(below, key=lambda n: placed[n][1], default=None)
    right = min(above, key=lambda n: placed[n][0], default=None)
    if left is None:
        final = right is not None and right == order.min_element
    elif right is None:
        final = left == order.max_element
    else:
        final = order.adjacent(left, right)
    return IDEMPOTENT if final else UnknownAtDepth(depth)


CALL_ORDER_DEPTH = 40
_RESCANNED = {
    name: intervals_by_rescan(parse_order(name), CALL_ORDER_DEPTH) for name in NAMED_ORDERS
}


def m_gaps(gen, depth):
    """The M entries at this depth, as (lo, hi) pairs."""
    return [(e.lo, e.hi) for e in gen.entries(depth) if e.label is Label.M]


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
@given(data=st.data())
@settings(max_examples=30, deadline=None)
def test_placement_does_not_depend_on_call_order(name, data):
    order = parse_order(name)
    oracle = _RESCANNED[name]
    gen = OrderPieceGenerator(order)
    depths = st.integers(1, CALL_ORDER_DEPTH)
    for _ in range(data.draw(st.integers(1, 12))):
        call = data.draw(st.sampled_from(["truncation", "locate", "m_gaps", "entries"]))
        if call == "truncation":
            k = data.draw(depths)
            assert [(p.lo, p.hi) for p in gen.truncation(k).pieces] == sorted(oracle[:k])
        elif call == "locate":
            depth = data.draw(depths)
            lo, hi = oracle[data.draw(depths) - 1]
            q = data.draw(
                st.sampled_from([lo, hi, (lo + hi) / 2, lo - (hi - lo), hi + (hi - lo)])
                | st.fractions(0, 1, max_denominator=200)
            )
            assert gen.locate(q, depth) == locate_by_scan(order, oracle, q, depth)
        else:
            depth = data.draw(depths)
            read = m_gaps if call == "m_gaps" else OrderPieceGenerator.entries
            assert read(gen, depth) == read(OrderPieceGenerator(order), depth)


def test_signature_compares_each_neighbour_pair_once(monkeypatch):
    # the entries come left to right, so no endpoints of thousands of
    # digits are sorted: one comparison makes each entry, and one checks
    # each neighbouring pair
    compared = 0
    for name in ("__lt__", "__le__", "__gt__", "__ge__"):
        def counting(a, b, method=getattr(Fraction, name)):
            nonlocal compared
            compared += 1
            return method(a, b)

        monkeypatch.setattr(Fraction, name, counting)
    sig = compute_signature(order_tnorm(parse_order("zeta")), 400)
    assert compared < 2 * len(sig.entries)


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_piece_endpoints_are_over_powers_of_six(name):
    # the induction in the module docstring; 3^(n+1) is not enough
    ends = []
    for n, (lo, hi) in enumerate(build_intervals(parse_order(name), 300)):
        assert hi - lo == Fraction(1, 3 ** (n + 1))
        for end in (lo, hi):
            assert 6 ** (n + 1) % end.denominator == 0
            ends.append(end)
    if name in ("zeta", "eta"):
        assert sum(end.denominator % 2 == 0 for end in ends) > len(ends) // 2


@pytest.mark.parametrize("name", ["zeta", "eta"])
def test_signature_comparison_budget(name):
    order = parse_order(name)
    calls = 0
    less = order.less

    def counting(m, n):
        nonlocal calls
        calls += 1
        return less(m, n)

    order.less = counting
    compute_signature(order_tnorm(order), 150)
    # one binary search per new piece; a rebuild per piece makes ~5 * 10^5
    assert 0 < calls <= 150 * 10


def placement_properties(order, count):
    ivs = build_intervals(order, count)
    for n, (a, b) in enumerate(ivs):
        eps = F(1, 3) ** (n + 1)
        assert 0 < a < b < 1
        assert b - a == eps
        assert a >= eps and 1 - b >= eps
    for m in range(count):
        for n in range(count):
            if m == n:
                continue
            if order.less(m, n):
                assert ivs[m][1] < ivs[n][0]
                # the later-placed interval keeps its own margin from the other
                assert ivs[n][0] - ivs[m][1] >= F(1, 3) ** (max(m, n) + 1)
            else:
                assert ivs[n][1] < ivs[m][0]


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_placement_properties_named(name):
    placement_properties(parse_order(name), 12)


def test_placement_properties_random_finite():
    rng = random.Random(20240817)
    for _ in range(10):
        k = rng.randint(1, 9)
        ranks = rng.sample(range(2 * k), k)
        placement_properties(FiniteOrder(ranks), k)


@given(st.permutations(list(range(5))))
@settings(max_examples=40, deadline=None)
def test_placement_embeds_any_small_order(ranks):
    order = FiniteOrder(ranks)
    ivs = build_intervals(order, order.size)
    for m in range(order.size):
        for n in range(order.size):
            if m != n:
                assert order.less(m, n) == (ivs[m][1] < ivs[n][0])


def test_sum_derives_its_facts_from_its_parts():
    # facts only: these stubs state extremes their `less` does not have
    class EtaWithMax(EtaOrder):
        max_element = 0

    class EtaWithMin(EtaOrder):
        min_element = 0

    # dense parts without a seam stay dense; a seam is an adjacent pair
    assert _Sum(EtaWithMax(), EtaOrder(), 0).dense
    capped = _Sum(EtaWithMax(), EtaWithMin(), 0)
    assert not capped.dense and capped.min_element is None and capped.max_element is None
    assert capped.adjacent(0, 1) and not capped.adjacent(2, 1)
    both = _Sum(OmegaOrder(), _Rev(OmegaOrder()), 1)
    assert (both.min_element, both.max_element) == (1, 0)


def test_order_metadata():
    omega = OmegaOrder()
    assert (omega.min_element, omega.max_element, omega.dense) == (0, None, False)
    assert omega.adjacent(3, 4) and not omega.adjacent(3, 5)

    star = parse_order("omega_star")
    assert (star.min_element, star.max_element) == (None, 0)
    assert star.adjacent(4, 3) and not star.adjacent(3, 4)

    zeta = parse_order("zeta")
    assert zeta.min_element is None and zeta.max_element is None and not zeta.dense
    assert zeta.less(1, 2) and not zeta.less(2, 1)
    assert zeta.adjacent(1, 0) and zeta.adjacent(0, 2) and zeta.adjacent(3, 1)

    eta = EtaOrder()
    assert eta.dense and eta.min_element is None and eta.max_element is None
    assert eta.less(3, 2) and not eta.less(2, 3)
    assert not eta.adjacent(0, 2)

    both = parse_order("omega_plus_omega_star")
    assert (both.min_element, both.max_element) == (0, 1)
    assert both.less(2, 3) and both.less(4, 5) and both.less(0, 1)
    assert both.adjacent(0, 2) and both.adjacent(3, 1) and not both.adjacent(2, 1)


def test_finite_order_reads_ranks_positionally():
    order = FiniteOrder([3, 0, 2, 1])
    assert order.size == 4
    assert order.min_element == 1 and order.max_element == 0
    assert order.less(1, 3) and order.less(3, 2) and order.less(2, 0)
    assert order.adjacent(1, 3) and order.adjacent(3, 2) and order.adjacent(2, 0)
    assert not order.adjacent(1, 2)
    with pytest.raises(PreconditionError):
        order.less(0, 4)
    pair = FiniteOrder([1, 0])
    with pytest.raises(PreconditionError):
        pair.adjacent(0, 5)
    with pytest.raises(PreconditionError):
        pair.adjacent(-1, 0)


@pytest.mark.parametrize("name", sorted(NAMED_ORDERS))
def test_named_orders_reject_negative_elements(name):
    order = NAMED_ORDERS[name]()
    for relation in (order.less, order.adjacent):
        for m, n in ((-3, 0), (0, -1), (-1, -2)):
            with pytest.raises(PreconditionError, match="negative"):
                relation(m, n)


def test_parse_order():
    assert parse_order("omega").name == "omega"
    assert parse_order("finite:3,0,2,1").name == "finite:3,0,2,1"
    for bad in ["", "bogus", "finite:", "finite:1,1", "finite:-1,0", "finite:a,b",
                "finite:+1,0", " finite: 1,0", "finite:1_0,0", "finite:\u0661,0"]:
        with pytest.raises(ValueError):
            parse_order(bad)


def test_finite_order_tnorm_is_finite():
    t = order_tnorm(FiniteOrder([1, 0]))
    assert isinstance(t, FinitePresentation)
    assert [(p.lo, p.hi) for p in t.pieces] == [(F(1, 9), F(2, 9)), (F(1, 3), F(2, 3))]
    assert all(p.label is Label.P for p in t.pieces)


def test_lazy_order_tnorm_basics():
    t = order_tnorm(OmegaOrder())
    assert isinstance(t, PieceGenerator)
    value, bound = t.eval_approx(F(1, 2), F(1, 2), 1)
    assert (value, bound) == (F(5, 12), F(1, 3))
    assert t.family == "theta omega"
    report = check_axioms(t.truncation(4), [F(i, 12) for i in range(13)])
    assert report.ok


LAZY_FAMILIES = [
    *(f"theta {name}" for name in NAMED_ORDERS),
    "limit-left",
    "limit-right",
    *(f"cantor cantor:{name}" for name in ("middle-third", "svc", "non-e")),
]


@pytest.mark.parametrize("family", LAZY_FAMILIES, ids=lambda f: f.split()[-1])
def test_truncations_approach_each_other_within_bound(family):
    t = parse_presentation_text(f"tnorm v1\nfamily {family}\n")
    grid = [F(i, 8) for i in range(9)]
    for n in [1, 2, 4]:
        deep = t.truncation(n + 8)
        bound = 2 * t.tail_length_bound(n)
        # grid points can all miss the pieces past n, where the two differ
        pts = grid + [(p.lo + p.hi) / 2 for p in deep.pieces]
        errors = []
        for x in pts:
            for y in pts:
                value, stated = t.eval_approx(x, y, n)
                assert stated == bound
                errors.append(abs(value - deep.eval(x, y)))
        assert 0 < max(errors) <= bound


def test_generator_facts():
    gen = OrderPieceGenerator(OmegaOrder())
    assert (gen.has_min_piece, gen.has_max_piece, gen.dense_no_endpoints) == (
        True,
        False,
        False,
    )
    gen = OrderPieceGenerator(EtaOrder())
    assert (gen.has_min_piece, gen.has_max_piece, gen.dense_no_endpoints) == (
        False,
        False,
        True,
    )
    gen = OrderPieceGenerator(parse_order("omega_plus_omega_star"))
    assert (gen.has_min_piece, gen.has_max_piece) == (True, True)


def test_certified_gaps_omega():
    gen = OrderPieceGenerator(OmegaOrder())
    assert m_gaps(gen, 3) == [
        (F(0), F(1, 3)),
        (F(2, 3), F(7, 9)),
        (F(8, 9), F(25, 27)),
    ]


def test_certified_gaps_omega_star():
    gen = OrderPieceGenerator(parse_order("omega_star"))
    assert m_gaps(gen, 3) == [
        (F(2, 27), F(1, 9)),
        (F(2, 9), F(1, 3)),
        (F(2, 3), F(1)),
    ]


def test_certified_gaps_eta_empty():
    gen = OrderPieceGenerator(EtaOrder())
    assert m_gaps(gen, 8) == []
    assert compute_signature(gen, 8).successor_pair() is None


def test_eta_looks_each_rational_up_once(monkeypatch):
    # placing piece n compares it with O(log n) placed pieces, and each of
    # them is compared again for later pieces; EtaOrder looks rational_at
    # up in `rationals` when it is made
    asked = Counter()
    rational_at = rationals.rational_at

    def counting(n):
        asked[n] += 1
        return rational_at(n)

    monkeypatch.setattr(rationals, "rational_at", counting)
    compute_signature(OrderPieceGenerator(EtaOrder()), 200)
    assert sorted(asked) == list(range(2, 202)) and max(asked.values()) == 1


def test_successor_pair_shares_endpoint():
    left, right = compute_signature(order_tnorm(OmegaOrder()), 2).successor_pair()
    assert (left.label, right.label) == (Label.M, Label.P)
    assert left.hi == right.lo == F(1, 3)


def test_locate_in_piece_and_endpoints():
    gen = OrderPieceGenerator(OmegaOrder())
    placed = gen.locate(F(1, 2), 4)
    assert isinstance(placed, InPiece) and placed.index == 0
    assert gen.locate(F(1, 3), 1) is IDEMPOTENT
    assert gen.locate(F(0), 1) is IDEMPOTENT
    assert gen.locate(F(1), 1) is IDEMPOTENT


def test_locate_certifies_final_gaps():
    gen = OrderPieceGenerator(OmegaOrder())
    assert gen.locate(F(3, 4), 2) is IDEMPOTENT
    assert gen.locate(F(1, 10), 1) is IDEMPOTENT

    star = OrderPieceGenerator(parse_order("omega_star"))
    assert star.locate(F(9, 10), 1) is IDEMPOTENT


def test_locate_unknown_until_gap_settles():
    gen = OrderPieceGenerator(parse_order("zeta"))
    placed = gen.locate(F(1, 10), 2)
    assert placed == UnknownAtDepth(2)
    assert gen.locate(F(1, 10), 4) is IDEMPOTENT
    assert isinstance(gen.locate(F(1, 2), 1), InPiece)


def test_agreement_ball_check():
    assert agreement_ball_check(OmegaOrder(), OmegaOrder(), 4, 9)
    assert agreement_ball_check(OmegaOrder(), parse_order("zeta"), 1, 17)
    with pytest.raises(PreconditionError):
        agreement_ball_check(OmegaOrder(), parse_order("omega_star"), 2, 9)


def test_sampled_distance_zero_on_same_truncation():
    t = order_tnorm(OmegaOrder())
    assert sampled_distance(t.truncation(3), t.truncation(3), 9) == 0


def test_the_lazy_cap_keeps_endpoints_printable():
    # piece n of an order family has its ends over 6^(n+1), so at the cap
    # the widest has about 2,500 digits; past the int(str) limit, 4,300 by
    # default, `signature` and `from-lo` could not print it
    digits = math.ceil((MAX_LAZY_PIECES + 1) * math.log10(6))
    limit = sys.get_int_max_str_digits()
    assert limit == 0 or digits < limit
