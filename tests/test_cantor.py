"""Box refinement rules, gap enumeration, and gap-order analysis."""

import random
import re
from bisect import insort
from collections import deque
from fractions import Fraction
from functools import cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ordsum.cantor
from conftest import LAZY_FAMILY_LINES, generated
from ordsum.cantor import (
    CantorGapGenerator,
    Rule,
    analyze_gap_order,
    expand,
    format_gap_order,
    parse_system,
)
from ordsum.presentations import parse_presentation_text
from ordsum.signature import Label, compute_signature
from ordsum.tnorm import (
    IDEMPOTENT,
    InPiece,
    Piece,
    PreconditionError,
    UnknownAtDepth,
    check_axioms,
)

F = Fraction

MT = parse_system("cantor:middle-third")
SVC = parse_system("cantor:svc")
NONE_SYS = parse_system("cantor:non-e")


def oracle_split(rule, box, depth):
    """The children and gaps of `box`, left to right, in exact rational geometry.

    The rules split numerators over a per-level denominator; this is the
    geometry those integers must reproduce, written with Fractions.  A
    corpus rule is named by its weight word: each part takes its weight's
    share of the box.
    """
    lo, hi = box
    w = hi - lo
    if word := re.findall(r"([BG])([12])", rule.name):
        total = sum(int(weight) for _, weight in word)
        children, gaps, end = [], [], lo
        for kind, weight in word:
            start, end = end, end + w * int(weight) / total
            (gaps if kind == "G" else children).append((start, end))
        return tuple(children), tuple(gaps)
    if rule.name == "middle-third":
        a, b = lo + w / 3, hi - w / 3
        return ((lo, a), (b, hi)), ((a, b),)
    if rule.name == "svc":
        mid = (lo + hi) / 2
        half = F(1, 2 * 4 ** (depth + 1))
        a, b = mid - half, mid + half
        return ((lo, a), (b, hi)), ((a, b),)
    a, b, c = lo + w / 4, lo + w / 2, lo + 3 * w / 4
    return ((a, b), (c, hi)), ((lo, a), (b, c))


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
            children, node_gaps = oracle_split(rule, box, d)
            gaps.extend(node_gaps)
            nxt.extend(children)
        levels.append(nxt)
    return levels, tuple(gaps)


def as_fractions(gaps):
    """`expand`'s integer gaps `(lo, hi, den)` as Fraction pairs, in their order."""
    return tuple((F(lo, den), F(hi, den)) for lo, hi, den in gaps)


def ordered_fractions(rule, depth):
    """`analyze_gap_order`'s numerator pairs over its denominator as Fraction pairs."""
    gaps, den = analyze_gap_order(rule, depth)
    return [(F(lo, den), F(hi, den)) for lo, hi in gaps]


def dump(rule, depth):
    """The whole `format_gap_order` text."""
    return "".join(format_gap_order(rule, depth))


def oracle_dump(rule, depth):
    """The gap dump built from the oracle's Fraction gaps with `str`.

    The order facts come from the root's split: a rule that keeps an
    endpoint of [0, 1] has no gap at that end, one that does not has its
    least (greatest) gap there, and keeping both is property E.
    """
    gaps = sorted(oracle_expand(rule, depth)[1])
    keeps_left, keeps_right = oracle_keeps(rule)
    property_e = keeps_left and keeps_right
    shared = [i for i in range(len(gaps) - 1) if gaps[i][1] == gaps[i + 1][0]]
    dense = "true" if property_e else ("false" if shared else "unknown")
    lines = [f"gaps depth={depth} count={len(gaps)}"]
    lines += [f"( {lo} , {hi} )" for lo, hi in gaps]
    lines += [
        f"property_E {str(property_e).lower()}",
        f"dense {dense}",
        f"has_min {str(not keeps_left).lower()}",
        f"has_max {str(not keeps_right).lower()}",
    ]
    if shared:
        (a, b), (c, d) = gaps[shared[0]], gaps[shared[0] + 1]
        lines.append(f"successor_witness ( {a} , {b} ) ( {c} , {d} )")
    else:
        lines.append("successor_witness none")
    return "\n".join(lines) + "\n"


def split_by_rows(rule, lo, hi):
    """The parts of the box [lo, hi] as `(lo, hi, is_gap)` numerators, by the
    formula stated at `Rule`: part i ends at scale*lo + k*(hi - lo) + c."""
    parts, a = [], rule.scale * lo
    for k, c, gap in rule.parts:
        b = rule.scale * lo + k * (hi - lo) + c
        parts.append((a, b, gap))
        a = b
    return parts


def taken_boxes(monkeypatch):
    """The boxes the walk takes off its queue to split, in order."""
    taken = []

    class Counting(deque):
        def popleft(self):
            taken.append(box := super().popleft())
            return box

    monkeypatch.setattr(ordsum.cantor, "deque", Counting)
    return taken


def breadth_first_boxes(rule, depth):
    """The oracle's boxes above level `depth`, level by level, as numerators."""
    levels, _ = oracle_expand(rule, depth)
    return [
        tuple(int(end * rule.root[1] * rule.scale**d) for end in box)
        for d, boxes in enumerate(levels[:-1])
        for box in boxes
    ]


def oracle_keeps(rule):
    """Whether the root's outer children keep its left and right endpoints."""
    children, _ = oracle_split(rule, (F(0), F(1)), 0)
    return children[0][0] == 0, children[-1][1] == 1


def middle_third_gap(d, p):
    """The gap of node (d, p), from p's binary digits read in base 3."""
    b = int(format(p, "b"), 3)
    return F(6 * b + 1, 3 ** (d + 1)), F(6 * b + 2, 3 ** (d + 1))


def printed_facts(rule, depth):
    """The order-fact lines of `format_gap_order`, by name."""
    lines = dump(rule, depth).splitlines()[-5:]
    return dict(line.split(" ", 1) for line in lines)


def test_parse_system():
    assert MT.name == "middle-third" and CantorGapGenerator(MT).dense_no_endpoints
    assert not CantorGapGenerator(NONE_SYS).dense_no_endpoints
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
        assert as_fractions(expand(system, depth)) == gaps
    gen = CantorGapGenerator(system)
    order = list(range(len(gaps)))
    random.Random(8).shuffle(order)
    # the walk's first n pieces, read at depths in any order
    for n in order[:40]:
        assert [(p.lo, p.hi) for p in gen.entries(n + 1)] == sorted(gaps[:n + 1])


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_split_matches_rational_geometry(system):
    # every box at level d is a numerator over root[1] * scale**d, and its
    # parts tile it left to right as the oracle's children and gaps
    levels, _ = oracle_expand(system, 8)
    for d, boxes in enumerate(levels[:-1]):
        den = system.root[1] * system.scale**d
        for box in boxes:
            lo, hi = (end * den for end in box)
            assert lo.denominator == hi.denominator == 1
            parts = split_by_rows(system, lo.numerator, hi.numerator)
            assert parts[0][0] == system.scale * lo and parts[-1][1] == system.scale * hi
            assert all(p[1] == q[0] for p, q in zip(parts, parts[1:]))
            spans = {True: [], False: []}
            for a, b, gap in parts:
                spans[gap].append((F(a, den * system.scale), F(b, den * system.scale)))
            children, gaps = oracle_split(system, box, d)
            assert spans[False] == list(children) and spans[True] == list(gaps)


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_walk_splits_each_node_once(system, monkeypatch):
    taken = taken_boxes(monkeypatch)
    for depth in range(11):
        taken.clear()
        expand(system, depth)
        assert taken == breadth_first_boxes(system, depth)
    count = 2000
    nodes = -(-count // len(expand(system, 1)))
    taken.clear()
    gen = CantorGapGenerator(system)
    assert taken == []  # the generator splits nothing when built
    for n in (count // 2, 1, count, 7, count):
        gen.entries(n)
        gen.truncation(n)
        gen.tail_length_bound(n)
    # one walk serves every read; a walk per read would split the root 15 times
    assert taken == breadth_first_boxes(system, 11)[:nodes]


def test_middle_third_closed_form():
    want = [middle_third_gap(d, p) for d in range(10) for p in range(2**d)]
    gen = CantorGapGenerator(MT)
    assert [(p.lo, p.hi) for p in gen.entries(len(want))] == sorted(want)
    for depth in range(11):
        count = 2**depth - 1
        assert as_fractions(expand(MT, depth)) == tuple(want[:count])
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
        total = sum(hi - lo for lo, hi in as_fractions(expand(MT, depth)))
        assert total == 1 - F(2, 3) ** depth


def test_svc_measure_stays_small():
    for depth in range(1, 9):
        total = sum(hi - lo for lo, hi in as_fractions(expand(SVC, depth)))
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
        assert CantorGapGenerator(system).dense_no_endpoints == keeps
    flags = [printed_facts(system, 0)["property_E"] for system in (MT, SVC, NONE_SYS)]
    assert flags == ["true", "true", "false"]


def test_analysis_middle_third():
    assert printed_facts(MT, 6) == {
        "property_E": "true",
        "dense": "true",
        "has_min": "false",
        "has_max": "false",
        "successor_witness": "none",
    }


def test_analysis_non_e():
    assert printed_facts(NONE_SYS, 2) == {
        "property_E": "false",
        "dense": "false",
        "has_min": "true",
        "has_max": "false",
        "successor_witness": "( 0 , 1/4 ) ( 1/4 , 5/16 )",
    }


def gap_scan_facts(rule, depth):
    """(has_min, has_max) read off one expansion by scanning its gaps.

    A gap at 0 (at 1) is a least (greatest) gap.  A rule that keeps that
    endpoint pins it at every depth, so gaps pile up toward it and none
    is extreme.  Otherwise a scan that finds no such gap decides nothing.
    """
    gaps = as_fractions(expand(rule, depth))

    def scan(touches, keeps):
        if any(touches(g) for g in gaps):
            return True
        return False if keeps else None

    return (
        scan(lambda g: g[0] == 0, oracle_keeps(rule)[0]),
        scan(lambda g: g[1] == 1, oracle_keeps(rule)[1]),
    )


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_order_facts_agree_with_gap_scan(system):
    gen = CantorGapGenerator(system)
    for depth in range(13):
        certified = (gen.has_min_piece, gen.has_max_piece)
        for fact, scanned in zip(certified, gap_scan_facts(system, depth)):
            if scanned is not None:
                assert fact is scanned, (depth, certified)
        gaps = ordered_fractions(system, depth)
        keeps_left, keeps_right = oracle_keeps(system)
        if keeps_left:
            assert all(lo != 0 for lo, _ in gaps)
        if keeps_right:
            assert all(hi != 1 for _, hi in gaps)


def weight_words():
    """Every weight word of up to five parts over {B, G}, such as `B1G2B1`:
    two B's, as the tree and `locate`'s index assume, a G, no two G's
    side by side (they would be one gap), and weights 1 and 2."""
    for length in range(3, 6):
        for kinds in product("BG", repeat=length):
            shape = "".join(kinds)
            if shape.count("B") == 2 and "G" in shape and "GG" not in shape:
                for weights in product("12", repeat=length):
                    yield "".join(map("".join, zip(kinds, weights)))


def word_rule(word):
    """The row of a weight word: part i ends at its cumulative weight, the
    scale is the sum of the weights, no constants, and the gaps fill [0, 1]."""
    parts, k = [], 0
    for kind, weight in re.findall(r"([BG])([12])", word):
        k += int(weight)
        parts.append((k, 0, kind == "G"))
    return Rule(word, (0, 1), k, tuple(parts), F(1))


ROW_CORPUS = [word_rule(word) for word in weight_words()]


@pytest.mark.parametrize("rule", ROW_CORPUS, ids=lambda rule: rule.name)
def test_row_corpus(rule):
    levels, gaps = oracle_expand(rule, 6)
    assert as_fractions(expand(rule, 6)) == gaps
    gen = CantorGapGenerator(rule)
    certified = (gen.has_min_piece, gen.has_max_piece)
    assert certified == gap_scan_facts(rule, 8)
    assert gen.dense_no_endpoints == all(oracle_keeps(rule))
    assert dump(rule, 6) == oracle_dump(rule, 6)
    for index, (lo, hi) in enumerate(gaps):
        placed = gen.locate((lo + hi) / 2, 6)
        assert placed == InPiece(index, placed.piece)
        assert (placed.piece.lo, placed.piece.hi) == (lo, hi)
    # every box keeps at most 2/3 of its parent, so the gaps fill [0, 1]
    # and what is not yet removed is the level's boxes
    for depth, boxes in enumerate(levels):
        count = gen._node_gaps * (2**depth - 1)
        assert gen.tail_length_bound(count) == sum(hi - lo for lo, hi in boxes), depth


def test_row_corpus_is_every_word():
    # BBG, BGB, GBB; BGBG, GBBG, GBGB; GBGBG, each with 2^length weightings
    assert len(ROW_CORPUS) == 3 * 8 + 3 * 16 + 32
    assert len({rule.name for rule in ROW_CORPUS}) == len(ROW_CORPUS)


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_gap_order_sorts_the_oracle_gaps(system):
    # the integer sort must order the gaps as the Fractions do, over the
    # level-`depth` denominator
    for depth in range(13):
        _, gaps = oracle_expand(system, depth)
        assert ordered_fractions(system, depth) == sorted(gaps)
        if depth:
            assert analyze_gap_order(system, depth)[1] == system.root[1] * system.scale**depth


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_dump_matches_fraction_oracle(system):
    # the digest corpus stops at depth 7
    for depth in range(13):
        assert dump(system, depth) == oracle_dump(system, depth), depth


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_dump_builds_no_fraction_per_gap(system, monkeypatch):
    made = []

    def counted(*args):
        made.append(args)
        return F(*args)

    monkeypatch.setattr(ordsum.cantor, "Fraction", counted)
    text = dump(system, 10)
    assert text.startswith(f"gaps depth=10 count={len(expand(system, 10))}\n")
    assert made == []
    # the counter sees the Fractions the lazy family does make: two per piece
    CantorGapGenerator(system).entries(5)
    assert len(made) == 10
    # one successor pair below every node but the root
    ordered, _ = analyze_gap_order(system, 10)
    shared = sum(lo == hi for (_, hi), (lo, _) in zip(ordered, ordered[1:]))
    assert shared == (0 if oracle_keeps(system)[0] else 2**10 - 2)


@pytest.mark.parametrize("system", [MT, SVC])
def test_property_e_systems_show_no_witness(system):
    for depth in range(9):
        facts = printed_facts(system, depth)
        assert facts["successor_witness"] == "none"
        assert facts["has_min"] == facts["has_max"] == "false"


def test_generator_enumeration_matches_expansion():
    for system in (MT, SVC, NONE_SYS):
        gen = CantorGapGenerator(system)
        gaps = as_fractions(expand(system, 4))
        pieces = gen.entries(len(gaps))
        assert [(p.lo, p.hi) for p in pieces] == sorted(gaps)
        assert all(p.label is Label.P for p in pieces)


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_entries_are_the_pieces_sorted(system):
    # depths that stop partway through a level included
    gen = CantorGapGenerator(system)
    gaps = as_fractions(expand(system, 10))
    ordered = []
    for depth in range(1, 601):
        insort(ordered, Piece(*gaps[depth - 1], Label.P), key=lambda p: p.lo)
        assert gen.entries(depth) == ordered, depth


@pytest.mark.parametrize("system", [MT, SVC, NONE_SYS])
def test_tail_bound_matches_fraction_oracle(system):
    gen = CantorGapGenerator(system)
    _, gaps = oracle_expand(system, 9)
    left = system.total_gap_length
    for n, (lo, hi) in enumerate(gaps):
        assert gen.tail_length_bound(n) == left, n
        left -= hi - lo


def test_tail_bound_is_exact_remainder():
    for line in LAZY_FAMILY_LINES:
        gen = parse_presentation_text(f"tnorm v1\nfamily {line}\n")
        total = gen.tail_length_bound(0)
        widths = F(0)
        for n, piece in enumerate(generated(gen, 41)):
            assert total - gen.tail_length_bound(n) == widths, (line, n)
            widths += piece.hi - piece.lo
    # the gaps not yet removed fill a level's boxes, less the set no gap
    # ever removes: svc's fat Cantor set has measure 1/2, the others none
    never_removed = {MT: 0, SVC: F(1, 2), NONE_SYS: 0}
    for system, kept in never_removed.items():
        gen = CantorGapGenerator(system)
        levels, _ = oracle_expand(system, 6)
        for depth, boxes in enumerate(levels):
            count = len(expand(system, 1)) * (2**depth - 1)
            left = sum(hi - lo for lo, hi in boxes) - kept
            assert gen.tail_length_bound(count) == left, (system.name, depth)


def test_locate_middle_third():
    gen = CantorGapGenerator(MT)
    placed = gen.locate(F(1, 2), 1)
    assert placed == InPiece(0, placed.piece)
    assert (placed.piece.lo, placed.piece.hi) == (F(1, 3), F(2, 3))
    assert gen.locate(F(0), 1) is IDEMPOTENT
    assert gen.locate(F(1, 3), 1) is IDEMPOTENT
    assert gen.locate(F(1, 4), 8) == UnknownAtDepth(8)
    deep = gen.locate(F(5, 27), 4)
    assert isinstance(deep, InPiece) and deep.piece.lo < F(5, 27) < deep.piece.hi


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
        for index, (lo, hi) in enumerate(as_fractions(expand(system, 4))):
            mid = (lo + hi) / 2
            placed = gen.locate(mid, 4)
            assert placed == InPiece(index, placed.piece)
            assert (placed.piece.lo, placed.piece.hi) == (lo, hi)


ORACLE_DEPTH = 12


@cache
def oracle_tree(rule):
    """The oracle's boxes by level and each gap's removal index, to ORACLE_DEPTH."""
    levels, gaps = oracle_expand(rule, ORACLE_DEPTH)
    return levels, {gap: i for i, gap in enumerate(gaps)}


def oracle_locate(rule, q, depth):
    """Root descent over the oracle's Fraction boxes, as `locate` promises."""
    _, index = oracle_tree(rule)
    box = (F(0), F(1))
    for d in range(depth):
        if q in box:  # an endpoint of its box
            return IDEMPOTENT
        children, gaps = oracle_split(rule, box, d)
        for lo, hi in gaps:
            if lo < q < hi:
                return InPiece(index[lo, hi], Piece(lo, hi, Label.P))
        box = next(child for child in children if child[0] <= q <= child[1])
    return IDEMPOTENT if q in box else UnknownAtDepth(depth)


@cache
def located_points(rule):
    """k/3^m, k/4^m and k/2^m; box and gap endpoints, and those +- 1/10^6; any rational."""
    levels, index = oracle_tree(rule)
    grid = st.sampled_from([2, 3, 4]).flatmap(
        lambda base: st.integers(0, 14).flatmap(
            lambda m: st.integers(0, base**m).map(lambda k: F(k, base**m))
        )
    )
    spans = st.one_of(
        st.sampled_from(sorted(index)),
        st.integers(0, ORACLE_DEPTH).flatmap(lambda d: st.sampled_from(levels[d])),
    )
    ends = spans.flatmap(st.sampled_from)
    nudged = st.tuples(ends, st.sampled_from([F(-1, 10**6), F(1, 10**6)])).map(sum)
    return st.one_of(grid, ends, nudged.filter(lambda q: 0 <= q <= 1), st.fractions(0, 1))


@settings(max_examples=400, deadline=None)
@given(data=st.data(), system=st.sampled_from([MT, SVC, NONE_SYS]), depth=st.integers(1, 12))
def test_locate_matches_root_descent_oracle(data, system, depth):
    q = data.draw(located_points(system))
    assert CantorGapGenerator(system).locate(q, depth) == oracle_locate(system, q, depth)


def test_generator_facts():
    mt = CantorGapGenerator(MT)
    assert mt.dense_no_endpoints is True
    assert mt.has_min_piece is False and mt.has_max_piece is False
    # depth counts pieces: 63 are the gaps of the first 6 levels
    assert compute_signature(mt, 63).successor_pair() is None

    ne = CantorGapGenerator(NONE_SYS)
    assert ne.has_min_piece is True
    assert ne.dense_no_endpoints is False
    # the two root gaps and the first gap of level 1, which meets (0, 1/4)
    pair = compute_signature(ne, 3).successor_pair()
    assert pair is not None
    assert pair[0].hi == pair[1].lo == F(1, 4)
    assert pair[0].label is Label.P


def test_gap_tnorm_axioms_on_truncation():
    t = CantorGapGenerator(MT)
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
    with pytest.raises(PreconditionError, match="^depth 17 exceeds the limit of 16$"):
        analyze_gap_order(MT, 17)
    # refused before the level's denominator, 2 * 4**depth, is built
    with pytest.raises(PreconditionError, match="the limit of 16$"):
        analyze_gap_order(SVC, 10**9)


def test_format_gaps():
    text = dump(NONE_SYS, 1)
    assert text == (
        "gaps depth=1 count=2\n( 0 , 1/4 )\n( 1/2 , 3/4 )\n"
        "property_E false\ndense unknown\nhas_min true\nhas_max false\n"
        "successor_witness none\n"
    )
