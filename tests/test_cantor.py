"""Box refinement rules, gap enumeration, and gap-order analysis."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from ordsum.cantor import (
    CantorGapGenerator,
    analyze_gap_order,
    expand,
    format_gap_order,
    gap_tnorm,
    parse_system,
)
from ordsum.signature import Label, compute_signature
from ordsum.tnorm import (
    IDEMPOTENT,
    InPiece,
    PreconditionError,
    TNorm,
    UnknownAtDepth,
    check_axioms,
)

F = Fraction

MT = parse_system("cantor:middle-third")
SVC = parse_system("cantor:svc")
NONE_SYS = parse_system("cantor:non-e")


def oracle_expand(rule, depth):
    """Every level of boxes 0..depth and the gaps removed on the way there.

    The library's walk keeps one level at a time; this keeps them all, so
    the tests can read the boxes and check the walk's removal order.
    """
    levels = [[(F(0), F(1))]]
    gaps = []
    for d in range(depth):
        nxt = []
        for box in levels[d]:
            children, node_gaps = rule.split(box, d)
            gaps.extend(node_gaps)
            nxt.extend(children)
        levels.append(nxt)
    return levels, tuple(gaps)


def counting_system(rule):
    """`rule`, counting how often it splits each node."""

    class Counting(type(rule)):
        def __init__(self):
            self.calls = Counter()

        def split(self, box, depth):
            self.calls[depth, box] += 1
            return super().split(box, depth)

    return Counting()


def middle_third_gap(d, p):
    """The gap of node (d, p), from p's binary digits read in base 3."""
    b = int(format(p, "b"), 3)
    return F(6 * b + 1, 3 ** (d + 1)), F(6 * b + 2, 3 ** (d + 1))


def test_parse_system():
    assert MT.name == "middle-third" and analyze_gap_order(MT, 0).property_e
    assert not analyze_gap_order(NONE_SYS, 0).property_e
    for bad in ["middle-third", "cantor:", "cantor:thirds", ""]:
        with pytest.raises(ValueError):
            parse_system(bad)


def test_middle_third_expansion():
    levels, gaps = oracle_expand(MT, 2)
    assert levels[1] == [(F(0), F(1, 3)), (F(2, 3), F(1))]
    assert sorted(gaps) == [
        (F(1, 9), F(2, 9)),
        (F(1, 3), F(2, 3)),
        (F(7, 9), F(8, 9)),
    ]


def test_svc_expansion():
    levels, gaps = oracle_expand(SVC, 2)
    assert levels[1] == [(F(0), F(3, 8)), (F(5, 8), F(1))]
    assert gaps[0] == (F(3, 8), F(5, 8))
    assert gaps[1] == (F(5, 32), F(7, 32))
    widths = {hi - lo for lo, hi in levels[2]}
    assert widths == {F(5, 32)}


def test_non_e_expansion():
    levels, gaps = oracle_expand(NONE_SYS, 2)
    assert levels[1] == [(F(1, 4), F(1, 2)), (F(3, 4), F(1))]
    assert gaps[:2] == ((F(0), F(1, 4)), (F(1, 2), F(3, 4)))
    assert (F(1, 4), F(5, 16)) in gaps


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_walk_matches_level_list_oracle(system):
    for depth in range(11):
        _, gaps = oracle_expand(system, depth)
        assert expand(system, depth) == gaps
    gen = CantorGapGenerator(system)
    order = list(range(len(gaps)))
    random.Random(8).shuffle(order)
    for n in order:
        piece = gen.piece_at(n)
        assert (piece.lo, piece.hi) == gaps[n]


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_walk_splits_each_node_once(system):
    for depth in range(11):
        counted = counting_system(system)
        expand(counted, depth)
        assert sum(counted.calls.values()) == 2**depth - 1
    counted = counting_system(system)
    gen = CantorGapGenerator(counted)
    count = 2000
    order = list(range(count))
    random.Random(8).shuffle(order)
    for n in [*range(count), *order]:
        gen.piece_at(n)
    # one walk serves every read; a descent from the root per piece would
    # split the root 2000 times
    assert max(counted.calls.values()) == 1
    assert sum(counted.calls.values()) == -(-count // system.gaps_per_node)


def test_middle_third_closed_form():
    want = [middle_third_gap(d, p) for d in range(10) for p in range(2**d)]
    gen = CantorGapGenerator(MT)
    assert [(p.lo, p.hi) for p in map(gen.piece_at, range(len(want)))] == want
    for depth in range(11):
        count = 2**depth - 1
        assert expand(MT, depth) == tuple(want[:count])
        for index, (lo, hi) in enumerate(want[:count]):
            placed = gen.locate((lo + hi) / 2, depth)
            assert placed == InPiece(index, placed.piece)
            assert (placed.piece.lo, placed.piece.hi) == (lo, hi)


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_gap_monotonicity(system):
    previous: set = set()
    for depth in range(9):
        current = set(expand(system, depth))
        assert previous <= current
        previous = current


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_boxes_nest_and_shrink(system):
    levels, _ = oracle_expand(system, 8)
    for d in range(8):
        for i, parent in enumerate(levels[d]):
            left, right = levels[d + 1][2 * i], levels[d + 1][2 * i + 1]
            assert parent[0] <= left[0] < left[1] < right[0] < right[1] <= parent[1]
    assert max(hi - lo for lo, hi in levels[8]) <= F(1, 2) ** 8


def test_middle_third_measure():
    for depth in range(1, 9):
        total = sum(hi - lo for lo, hi in expand(MT, depth))
        assert total == 1 - F(2, 3) ** depth


def test_svc_measure_stays_small():
    for depth in range(1, 9):
        total = sum(hi - lo for lo, hi in expand(SVC, depth))
        assert total <= F(1, 2)


def test_property_e():
    """property_e holds exactly when every child keeps its parent's outer endpoints."""
    for system in (MT, SVC, NONE_SYS):
        levels, _ = oracle_expand(system, 6)
        keeps = all(
            children[2 * i][0] == box[0] and children[2 * i + 1][1] == box[1]
            for parents, children in zip(levels, levels[1:])
            for i, box in enumerate(parents)
        )
        assert analyze_gap_order(system, 0).property_e == keeps
    flags = [analyze_gap_order(system, 0).property_e for system in (MT, SVC, NONE_SYS)]
    assert flags == [True, True, False]


def test_analysis_middle_third():
    facts = analyze_gap_order(MT, 6)
    assert (facts.dense, facts.has_min, facts.has_max) == (True, False, False)
    assert facts.successor_witness is None


def test_analysis_non_e():
    facts = analyze_gap_order(NONE_SYS, 2)
    assert facts.has_min is True
    assert facts.has_max is False
    assert facts.dense is False
    assert facts.successor_witness == ((F(0), F(1, 4)), (F(1, 4), F(5, 16)))


def gap_scan_facts(rule, depth):
    """(has_min, has_max) read off one expansion by scanning its gaps.

    A gap at 0 (at 1) is a least (greatest) gap.  A rule that keeps that
    endpoint pins it at every depth, so gaps pile up toward it and none
    is extreme.  Otherwise a scan that finds no such gap decides nothing.
    """
    gaps = expand(rule, depth)

    def scan(touches, keeps):
        if any(touches(g) for g in gaps):
            return True
        return False if keeps else None

    return (
        scan(lambda g: g[0] == 0, rule.keeps_left_endpoint),
        scan(lambda g: g[1] == 1, rule.keeps_right_endpoint),
    )


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_order_facts_agree_with_gap_scan(system):
    for depth in range(13):
        facts = analyze_gap_order(system, depth)
        for fact, scanned in zip((facts.has_min, facts.has_max), gap_scan_facts(system, depth)):
            if scanned is not None:
                assert fact is scanned, (depth, facts)
        gaps = facts.gaps
        if system.keeps_left_endpoint:
            assert all(lo != 0 for lo, _ in gaps)
        if system.keeps_right_endpoint:
            assert all(hi != 1 for _, hi in gaps)


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_in_order_walk_sorts_the_expansion(system):
    # analyze_gap_order walks the box tree in order; sorting the
    # removal-order expansion is the reference
    for depth in range(13):
        assert analyze_gap_order(system, depth).gaps == sorted(expand(system, depth))


@pytest.mark.parametrize("system", [MT, SVC])
def test_property_e_systems_show_no_witness(system):
    for depth in range(9):
        facts = analyze_gap_order(system, depth)
        assert facts.successor_witness is None
        assert facts.has_min is False and facts.has_max is False


def test_generator_enumeration_matches_expansion():
    for system in (MT, SVC, NONE_SYS):
        gen = CantorGapGenerator(system)
        gaps = expand(system, 4)
        pieces = [gen.piece_at(n) for n in range(len(gaps))]
        assert [(p.lo, p.hi) for p in pieces] == list(gaps)
        assert all(p.kind is Label.P for p in pieces)


def test_tail_bound_is_exact_remainder():
    for system in (MT, SVC, NONE_SYS):
        gen = CantorGapGenerator(system)
        running = gen.rule.total_gap_length
        assert gen.tail_length_bound(0) == running
        for n, (lo, hi) in enumerate(expand(system, 5)):
            running -= hi - lo
            assert gen.tail_length_bound(n + 1) == running


def test_locate_middle_third():
    gen = CantorGapGenerator(MT)
    placed = gen.locate(F(1, 2), 1)
    assert placed == InPiece(0, placed.piece)
    assert (placed.piece.lo, placed.piece.hi) == (F(1, 3), F(2, 3))
    assert gen.locate(F(0), 1) is IDEMPOTENT
    assert gen.locate(F(1, 3), 1) is IDEMPOTENT
    assert gen.locate(F(1, 4), 8) == UnknownAtDepth(8)
    deep = gen.locate(F(5, 27), 4)
    assert isinstance(deep, InPiece) and deep.piece.contains_open(F(5, 27))


def test_locate_non_e_endpoints():
    gen = CantorGapGenerator(NONE_SYS)
    assert gen.locate(F(1, 4), 3) is IDEMPOTENT
    placed = gen.locate(F(1, 8), 1)
    assert placed == InPiece(0, placed.piece)
    second = gen.locate(F(9, 16), 1)
    assert isinstance(second, InPiece) and second.index == 1


def test_locate_index_agrees_with_enumeration():
    for system in (MT, SVC, NONE_SYS):
        gen = CantorGapGenerator(system)
        for index, (lo, hi) in enumerate(expand(system, 4)):
            mid = (lo + hi) / 2
            placed = gen.locate(mid, 4)
            assert placed == InPiece(index, placed.piece)
            assert (placed.piece.lo, placed.piece.hi) == (lo, hi)


def test_generator_facts():
    mt = CantorGapGenerator(MT)
    assert mt.facts.dense_no_endpoints is True
    assert mt.facts.has_min_piece is False and mt.facts.has_max_piece is False
    # depth counts pieces: 63 are the gaps of the first 6 levels
    assert compute_signature(TNorm(mt), 63).successor_pair() is None

    ne = CantorGapGenerator(NONE_SYS)
    assert ne.facts.has_min_piece is True
    assert ne.facts.dense_no_endpoints is False
    # the two root gaps and the first gap of level 1, which meets (0, 1/4)
    pair = compute_signature(TNorm(ne), 3).successor_pair()
    assert pair is not None
    assert pair[0].hi == pair[1].lo == F(1, 4)
    assert pair[0].label is Label.P


def test_gap_tnorm_axioms_on_truncation():
    t = gap_tnorm(MT)
    report = check_axioms(t.truncation(7), [F(i, 12) for i in range(13)])
    assert report.ok
    value, bound = t.eval_approx(F(1, 2), F(1, 2), 1)
    assert value == F(1, 3) + F(1, 6) * F(1, 6) / F(1, 3)
    assert bound == 2 * (1 - F(1, 3))


def test_depth_guard():
    with pytest.raises(PreconditionError):
        expand(MT, 17)
    with pytest.raises(PreconditionError):
        analyze_gap_order(MT, -1)
    with pytest.raises(PreconditionError, match="capped at 16"):
        analyze_gap_order(MT, 17)


def test_format_gaps():
    text = format_gap_order(analyze_gap_order(NONE_SYS, 1))
    assert text == (
        "gaps depth=1 count=2\n( 0 , 1/4 )\n( 1/2 , 3/4 )\n"
        "property_E false\ndense unknown\nhas_min true\nhas_max false\n"
        "successor_witness none\n"
    )
