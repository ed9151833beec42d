"""Exact evaluation, axioms, and idempotent powers."""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction as F
from functools import cache
from itertools import pairwise, product
from types import GeneratorType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAZY_FAMILY_LINES, finite_files, generated

from ordsum.cli import GRID_21, LAZY_TRUNCATION, _parse, main
from ordsum.orders import parse_order
from ordsum.presentations import format_presentation, parse_presentation_text
from ordsum.tnorm import (
    IDEMPOTENT,
    AxiomReport,
    FinitePresentation,
    InPiece,
    Label,
    Piece,
    PieceGenerator,
    PreconditionError,
    TNorm,
    UnknownAtDepth,
    Violation,
    check_axioms,
    check_left_to_right,
    find_idempotent_power,
    parse_rational,
    uncovered,
)

P = Label.P
L = Label.L


def tn(*spec):
    return FinitePresentation(tuple(Piece(F(a), F(b), k) for a, b, k in spec))


MINIMUM = tn()
PRODUCT = tn((0, 1, P))
LUKA = tn((0, 1, L))
TWO_PIECE = tn(("1/4", "1/2", P), ("1/2", "3/4", L))


def test_eval_frozen_examples():
    assert tn(("1/3", "2/3", P)).eval(F(1, 2), F(1, 2)) == F(5, 12)
    assert LUKA.eval(F(1, 2), F(1, 2)) == F(0)
    assert TWO_PIECE.eval(F(1, 8), F(5, 8)) == F(1, 8)
    assert MINIMUM.eval(F(2, 7), F(3, 5)) == F(2, 7)


def test_eval_cross_piece_is_min():
    t = TWO_PIECE
    assert t.eval(F(3, 8), F(5, 8)) == F(3, 8)
    assert t.eval(F(5, 8), F(3, 8)) == F(3, 8)


def test_one_is_neutral():
    for t in (MINIMUM, PRODUCT, LUKA, TWO_PIECE):
        for q in (F(0), F(1, 7), F(1, 2), F(9, 10), F(1)):
            assert t.eval(F(1), q) == q


def test_shared_endpoint_is_idempotent():
    t = TWO_PIECE
    assert t.eval(F(1, 2), F(1, 2)) == F(1, 2)
    assert t.eval(F(1, 3), F(1, 3)) != F(1, 3)
    assert t.eval(F(2, 3), F(2, 3)) != F(2, 3)


def test_idempotents_absorb_to_min():
    t = TWO_PIECE
    grid = [F(i, 20) for i in range(21)]
    for q in grid:
        if t.eval(q, q) == q:
            for p in grid:
                assert t.eval(p, q) == min(p, q)


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError, match="pieces overlap"):
        tn((0, "1/2", P), ("1/3", "2/3", L))


def test_m_pieces_sort_with_the_others():
    # a finite presentation's gaps come first, between and last in its entries
    assert tn(("1/3", 1, P)).entries() == (Piece(F(0), F(1, 3), Label.M), Piece(F(1, 3), F(1), P))
    assert [e.label for e in tn((0, "1/4", L), ("1/2", "3/4", P)).entries()] == [
        L, Label.M, P, Label.M]


def piece(lo, hi, label):
    return Piece(F(lo), F(hi), label)


@pytest.mark.parametrize("entries, message", [
    ((piece(0, "1/2", P), piece("1/3", 1, L)), r"overlap or are out of order: \(0, 1/2\) and"),
    ((piece("1/2", 1, P), piece(0, "1/4", Label.M)), r"out of order: \(1/2, 1\) and \(0, 1/4\)"),
    ((piece(0, "1/2", Label.M), piece("1/2", 1, Label.M)), "two adjacent M entries would merge"),
])
def test_left_to_right_check_refuses(entries, message):
    with pytest.raises(ValueError, match=message):
        check_left_to_right(entries)


@pytest.mark.parametrize("entries", [
    (piece(0, "1/2", P), piece("1/2", 1, L)),
    (piece(0, "1/2", L), piece("1/2", 1, L)),
    (piece(0, "1/2", Label.M), piece("1/2", 1, P)),
    (piece(0, "1/3", P), piece("1/3", "2/3", Label.M), piece("2/3", 1, L)),
    (piece(0, "1/4", Label.M), piece("1/2", 1, Label.M)),
    (),
])
def test_left_to_right_check_passes_touching_entries(entries):
    assert check_left_to_right(list(entries)) == entries


def test_a_finite_presentation_takes_its_pieces_left_to_right():
    # the constructor checks the pieces as given and never sorts them
    pieces = (piece(0, "1/3", P), piece("1/2", 1, L))
    assert FinitePresentation(iter(pieces)).pieces == pieces
    want = r"^pieces overlap or are out of order: \({}\) and \({}\)$"
    with pytest.raises(ValueError, match=want.format("1/2, 1", "0, 1/3")):
        FinitePresentation(pieces[::-1])
    with pytest.raises(ValueError, match=want.format("0, 1/2", "1/3, 1")):
        FinitePresentation((piece(0, "1/2", P), piece("1/3", 1, L)))


def parent_sort_pieces(pieces):
    """`sort_pieces` as it stood before the left-to-right check had one place."""
    ordered = tuple(sorted(pieces, key=lambda p: p.lo))
    for a, b in pairwise(ordered):
        if a.hi > b.lo:
            raise ValueError(f"pieces overlap: ({a.lo}, {a.hi}) and ({b.lo}, {b.hi})")
    return ordered


@settings(max_examples=200, deadline=None)
@given(drawn=finite_files())
def test_finite_entries_come_sorted_without_a_second_check(drawn):
    _, pieces = drawn
    t = FinitePresentation(tuple(Piece(lo, hi, label) for lo, hi, label in pieces))
    gaps = (Piece(lo, hi, Label.M) for lo, hi in uncovered((p.lo, p.hi) for p in t.pieces))
    assert t.entries() == parent_sort_pieces((*t.pieces, *gaps))


def test_piece_outside_unit_rejected():
    with pytest.raises(ValueError):
        Piece(F(-1, 2), F(1, 2), P)
    with pytest.raises(ValueError):
        Piece(F(1, 2), F(3, 2), P)
    with pytest.raises(ValueError):
        Piece(F(1, 2), F(1, 2), P)


def test_piece_labeled_m_rejected():
    with pytest.raises(ValueError, match="P or L"):
        FinitePresentation((Piece(F(1, 4), F(1, 2), Label.M),))


def test_gaps():
    def gaps(t):
        return [(e.lo, e.hi) for e in t.entries() if e.label is Label.M]

    assert gaps(MINIMUM) == [(F(0), F(1))]
    assert gaps(PRODUCT) == []
    assert gaps(TWO_PIECE) == [(F(0), F(1, 4)), (F(3, 4), F(1))]


def test_check_axioms_clean():
    grid = [F(i, 10) for i in range(11)]
    for t in (MINIMUM, PRODUCT, LUKA, TWO_PIECE):
        report = check_axioms(t, grid)
        assert report.ok
        assert report.checked > 0


def _holder(t, q):
    """Index of the last piece whose closed interval holds q, by a Fraction scan."""
    held = [i for i, p in enumerate(t.pieces) if p.lo <= q <= p.hi]
    return held[-1] if held else None


def _formula(piece, x, y):
    """The module docstring's formula of `piece` at x, y in its closed interval."""
    lo, hi = piece.lo, piece.hi
    if piece.label is P:
        return lo + (x - lo) * (y - lo) / (hi - lo)
    return max(lo, x + y - hi)


class _BrokenMaxCrossPiece:
    """Evaluator that wrongly uses max across pieces; must be caught."""

    def __init__(self, base: FinitePresentation):
        self._base = base

    def eval(self, x, y):
        base = self._base
        i = _holder(base, x)
        if i is not None and i == _holder(base, y):
            return _formula(base.pieces[i], x, y)
        return max(x, y)


def test_check_axioms_flags_corruption():
    grid = [F(i, 10) for i in range(11)]
    report = check_axioms(_BrokenMaxCrossPiece(TWO_PIECE), grid)
    assert not report.ok
    laws = {v.law for v in report.violations}
    assert "neutrality" in laws or "monotonicity" in laws


def _check_axioms_by_dict(t, samples) -> AxiomReport:
    """Reference audit: a table keyed by sample pairs, every law enumerated."""
    pts = sorted(set(samples))
    table = {(x, y): t.eval(x, y) for x, y in product(pts, repeat=2)}
    checked = 0
    bad = []
    for x in pts:
        got = t.eval(F(1), x)
        checked += 1
        if got != x:
            bad.append(Violation("neutrality", (x,), got, x))
    for x, y in product(pts, repeat=2):
        checked += 1
        if table[(x, y)] != table[(y, x)]:
            bad.append(Violation("commutativity", (x, y), table[(x, y)], table[(y, x)]))
    for x, y, z in product(pts, repeat=3):
        left = t.eval(table[(x, y)], z)
        right = t.eval(x, table[(y, z)])
        checked += 1
        if left != right:
            bad.append(Violation("associativity", (x, y, z), left, right))
    n = len(pts)
    for i in range(n):
        for i2 in range(i, n):
            for j in range(n):
                for j2 in range(j, n):
                    lo_val = table[(pts[i], pts[j])]
                    hi_val = table[(pts[i2], pts[j2])]
                    checked += 1
                    if lo_val > hi_val:
                        bad.append(
                            Violation(
                                "monotonicity",
                                (pts[i], pts[j], pts[i2], pts[j2]),
                                lo_val,
                                hi_val,
                            )
                        )
    return AxiomReport(checked, tuple(bad))


class _Perturbed:
    """Evaluator that returns a fixed wrong value on a few pairs."""

    def __init__(self, base, changes):
        self._base = base
        self._changes = changes

    def eval(self, x, y):
        value = self._changes.get((x, y))
        return self._base.eval(x, y) if value is None else value


class _NonCommutative:
    """Evaluator that scales the value by x whenever x > y."""

    def __init__(self, base):
        self._base = base

    def eval(self, x, y):
        value = self._base.eval(x, y)
        return value if x <= y else value * x


class _Counting:
    def __init__(self, base):
        self._base = base
        self.calls = 0

    def eval(self, x, y):
        self.calls += 1
        return self._base.eval(x, y)


small_unit = st.fractions(min_value=0, max_value=1, max_denominator=12)


@st.composite
def _presentations(draw):
    """A finite t-norm over random cuts, and its piece endpoints."""
    cuts = sorted(set(draw(st.lists(small_unit, max_size=7))) | {F(0), F(1)})
    pieces = []
    for lo, hi in zip(cuts, cuts[1:]):
        kind = draw(st.sampled_from([None, P, L]))
        if kind is not None:
            pieces.append(Piece(lo, hi, kind))
    return FinitePresentation(tuple(pieces)), cuts


@given(data=st.data())
@settings(max_examples=120, deadline=None)
def test_check_axioms_matches_dict_oracle(data):
    t, cuts = data.draw(_presentations())
    grid = data.draw(
        st.lists(st.one_of(st.sampled_from(cuts), small_unit), min_size=1, max_size=10)
    )
    pts = sorted(set(grid))
    evaluator = t
    if data.draw(st.booleans()):
        evaluator = _BrokenMaxCrossPiece(t)
    corruption = data.draw(st.sampled_from(["none", "perturbed", "noncommutative"]))
    if corruption == "perturbed":
        rng = random.Random(data.draw(st.integers(0, 2**32)))
        changes = {
            (rng.choice(pts), rng.choice(pts)): rng.choice(pts + [F(rng.randint(0, 7), 7)])
            for _ in range(rng.randint(1, 4))
        }
        evaluator = _Perturbed(evaluator, changes)
    elif corruption == "noncommutative":
        evaluator = _NonCommutative(evaluator)
    assert check_axioms(evaluator, grid) == _check_axioms_by_dict(evaluator, grid)


def test_check_axioms_eval_budget(finite_corpus):
    counting = _Counting(MINIMUM)
    report = check_axioms(counting, GRID_21)
    # 441 table entries and 21 neutrality checks; every associativity
    # side of the minimum is a grid point and is read back
    assert (report.checked, counting.calls) == (63084, 462)
    for t in finite_corpus:
        counting = _Counting(t)
        assert check_axioms(counting, GRID_21).checked == 63084
        assert counting.calls <= 441 + 21 + 2 * 21**3


def _eval_by_two_lookups(t, x, y):
    """The plain-Fraction oracle: the formula when x and y share a piece, else min."""
    i = _holder(t, x)
    if i is not None and i == _holder(t, y):
        return _formula(t.pieces[i], x, y)
    return min(x, y)


def test_eval_matches_two_lookup_rule(finite_corpus):
    for t in finite_corpus:
        pts = set(GRID_21)
        for p in t.pieces:
            pts |= {p.lo, p.hi, (p.lo + p.hi) / 2, p.lo + (p.hi - p.lo) / 7}
        for x in pts:
            for y in pts:
                assert t.eval(x, y) == _eval_by_two_lookups(t, x, y), (t, x, y)


def test_find_idempotent_power_structural():
    assert find_idempotent_power(LUKA, F(9, 10), limit=8) == 10
    assert find_idempotent_power(PRODUCT, F(9, 10), limit=8) is None
    assert find_idempotent_power(TWO_PIECE, F(3, 4), limit=8) == 1
    # theta eta's first piece is (1/3, 2/3); the gap left of it stays open
    eta = parse_presentation_text("tnorm v1\nfamily theta eta\n")
    assert find_idempotent_power(eta, F(1, 2), limit=1) is None
    assert find_idempotent_power(eta, F(1, 10), limit=1) == UnknownAtDepth(1)


def test_nilpotency_closed_form_matches_iteration():
    piece = Piece(F(1, 5), F(4, 5), L)
    t = FinitePresentation((piece,))
    for q in (F(1, 4), F(1, 2), F(3, 5), F(7, 10), F(79, 100)):
        want = piece.nilpotency_index(q)
        value = q
        steps = 1
        while value != piece.lo:
            value = t.eval(value, q)
            steps += 1
        assert steps == want


def test_tnorm_is_the_abstract_base_of_both_kinds():
    assert isinstance(TWO_PIECE, TNorm) and issubclass(PieceGenerator, TNorm)
    assert TNorm.__slots__ == ()
    with pytest.raises(TypeError):
        TNorm()


def test_finite_locate(finite_corpus):
    for t in finite_corpus:
        pts = set(GRID_21)
        for p in t.pieces:
            pts |= {p.lo, p.hi, (p.lo + p.hi) / 2}
        for q in pts:
            placed = t.locate(q, 1)
            assert (placed is IDEMPOTENT) == (t.eval(q, q) == q), (t, q)
            if placed is not IDEMPOTENT:
                assert isinstance(placed, InPiece)
                holders = [i for i, p in enumerate(t.pieces) if p.lo < q < p.hi]
                assert holders == [placed.index] and placed.piece == t.pieces[placed.index]
        for q in (F(-1, 2), F(3, 2)):
            with pytest.raises(ValueError):
                t.locate(q, 1)


def test_a_finite_presentation_answers_the_lazy_calls_trivially(finite_corpus):
    # one contract: a finite presentation is its own truncation, at any count
    for t in finite_corpus:
        for n in (-5, 0, 1, 12):
            assert t.truncation(n) is t and t.tail_length_bound(n) == 0
            assert t.entries(n) == t.entries()
            for x, y in product(GRID_21[::4], repeat=2):
                assert t.eval_approx(x, y, n) == (t.eval(x, y), 0)


@pytest.mark.parametrize("line", LAZY_FAMILY_LINES)
def test_every_family_has_a_positive_tail_bound(line):
    # `eval` prints a bare value exactly when the bound is 0
    t = parse_presentation_text(f"tnorm v1\nfamily {line}\n")
    assert all(t.tail_length_bound(n) > 0 for n in range(1, 201))
    with pytest.raises(PreconditionError, match="^exact eval needs a finite presentation$"):
        t.eval(F(1, 2), F(1, 2))


unit = st.fractions(min_value=0, max_value=1, max_denominator=60)


@given(x=unit, y=unit, z=unit)
@settings(max_examples=150, deadline=None)
def test_laws_hold_pointwise(x, y, z):
    t = TWO_PIECE
    assert t.eval(x, y) == t.eval(y, x)
    assert t.eval(t.eval(x, y), z) == t.eval(x, t.eval(y, z))
    assert t.eval(x, y) <= min(x, y) or t.eval(x, y) == min(x, y)


@given(x=unit, x2=unit, y=unit)
@settings(max_examples=150, deadline=None)
def test_monotone_pointwise(x, x2, y):
    t = TWO_PIECE
    lo, hi = min(x, x2), max(x, x2)
    assert t.eval(lo, y) <= t.eval(hi, y)


def _rows_by_eval(t, pts):
    return [[t.eval(x, y) for y in pts] for x in pts]


def test_rows_match_eval_on_the_corpus(finite_corpus):
    for t in finite_corpus:
        pts = set(GRID_21)
        for p in t.pieces:
            pts |= {p.lo, p.hi, (p.lo + p.hi) / 2, p.lo + (p.hi - p.lo) / 7}
        pts = sorted(pts)
        rows = t.rows(pts)
        assert isinstance(rows, GeneratorType)
        assert list(rows) == _rows_by_eval(t, pts), t
        assert list(t.rows([])) == []
        assert list(t.rows([F(1, 2)])) == [[t.eval(F(1, 2), F(1, 2))]]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_rows_match_eval_on_random_presentations(data):
    # the cuts hold 0, 1 and every piece endpoint, shared ones included
    t, cuts = data.draw(_presentations())
    interior = data.draw(st.lists(unit, max_size=12))
    pts = sorted(set(cuts) | set(interior))
    assert list(t.rows(pts)) == _rows_by_eval(t, pts)


@pytest.mark.parametrize("line", LAZY_FAMILY_LINES)
def test_rows_match_eval_on_lazy_truncations(line):
    t = parse_presentation_text(f"tnorm v1\nfamily {line}\n").truncation(LAZY_TRUNCATION)
    for pts in (GRID_21, [F(i, 99) for i in range(100)]):
        assert list(t.rows(pts)) == _rows_by_eval(t, pts)


@pytest.mark.parametrize(
    "pts",
    [
        [F(1, 2), F(1, 4)],
        [F(0), F(1, 4), F(1, 4), F(1)],
        [F(-1, 2), F(1, 2)],
        [F(1, 2), F(3, 2)],
        [0, F(1)],
    ],
)
def test_rows_reject_points_not_increasing_in_the_unit_interval(pts):
    with pytest.raises(ValueError):
        list(TWO_PIECE.rows(pts))


# The integer kernel against the plain-Fraction oracle: `_holder` places a
# point by a scan of Fraction comparisons, `_formula` is the module
# docstring's formula.  Pieces come from truncations of theta zeta and
# eta at depth 40: piece n's ends are integers over 6^(n+1), and in
# lowest terms the last five have denominators of 59 to 82 bits.
DEEP = 40


@cache
def _deep_pieces(line):
    """Pieces 0..DEEP-1 of a lazy family, in index order."""
    return tuple(generated(parse_presentation_text(f"tnorm v1\nfamily {line}\n"), DEEP))


@st.composite
def _deep_presentations(draw):
    """A relabelled subset of a deep truncation, and points to evaluate at.

    Some pieces are split in two that share an end, and pieces reaching 0
    or 1 may be added.  The points are drawn from the ends, from inside
    the pieces and from between consecutive ends, in pieces or gaps.
    """
    base = _deep_pieces(draw(st.sampled_from(["theta zeta", "theta eta"])))
    # one of the five deepest pieces, and any others
    chosen = {draw(st.sampled_from(base[-5:])), *draw(st.lists(st.sampled_from(base)))}
    kinds = st.sampled_from([P, L])
    pieces = []
    for p in chosen:
        if draw(st.booleans()):
            mid = p.lo + (p.hi - p.lo) * F(draw(st.integers(1, 6)), 7)
            pieces += [Piece(p.lo, mid, draw(kinds)), Piece(mid, p.hi, draw(kinds))]
        else:
            pieces.append(Piece(p.lo, p.hi, draw(kinds)))
    pieces.sort(key=lambda p: p.lo)
    if draw(st.booleans()):
        pieces.insert(0, Piece(F(0), pieces[0].lo, draw(kinds)))
    if draw(st.booleans()):
        pieces.append(Piece(pieces[-1].hi, F(1), draw(kinds)))
    ends = sorted({F(0), F(1)} | {e for p in pieces for e in (p.lo, p.hi)})
    inside = [p.lo + (p.hi - p.lo) * F(j, 5) for p in pieces for j in (1, 4)]
    between = [(a + b) / 2 for a, b in pairwise(ends)]
    pts = draw(st.lists(st.sampled_from(sorted({*ends, *inside, *between})),
                        unique=True, min_size=1, max_size=16))
    return FinitePresentation(tuple(pieces)), sorted(pts)


def _oracle_rows(t, pts):
    held = [_holder(t, q) for q in pts]
    return [
        [_formula(t.pieces[i], x, y) if i is not None and i == k else min(x, y)
         for y, k in zip(pts, held)]
        for x, i in zip(pts, held)
    ]


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_kernel_matches_fraction_oracle(data):
    t, pts = data.draw(_deep_presentations())
    assert max(max(p.lo.denominator, p.hi.denominator) for p in t.pieces) >= 2**58
    for q in pts:
        assert t.piece_index_of(q) == _holder(t, q)
        inside = [i for i, p in enumerate(t.pieces) if p.lo < q < p.hi]
        assert t.locate(q, 1) == (InPiece(inside[0], t.pieces[inside[0]]) if inside else IDEMPOTENT)
    want = _oracle_rows(t, pts)
    for x, row in zip(pts, want):
        for y, value in zip(pts, row):
            got = t.eval(x, y)
            assert type(got) is F and got == value, (t, x, y)
            if _holder(t, x) is None or _holder(t, x) != _holder(t, y):
                # off a shared piece the value is the smaller input itself
                assert got is min(x, y)
    assert list(t.rows(pts)) == want


@given(data=st.data(), grid=st.integers(2, 50))
@settings(max_examples=100, deadline=None)
def test_surface_cells_are_fraction_text(data, grid, tmp_path_factory):
    t, _ = data.draw(_deep_presentations())
    path = tmp_path_factory.mktemp("surface") / "t.tnorm"
    path.write_text(format_presentation(t))
    pts = [F(i, grid - 1) for i in range(grid)]
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["surface", str(path), str(grid)]) == 0
    lines = ["," + ",".join(str(p) for p in pts)]
    lines += [",".join(map(str, [x, *row])) for x, row in zip(pts, _oracle_rows(t, pts))]
    # str(Fraction) writes an integer bare: 0 and 1 head the grid
    assert out.getvalue() == "\n".join(lines) + "\n"


# `parse_natural` reads every number; before it, each reader had its own
# check, restated here: the rational regex, a rank's and an integer
# word's digits.  The drawn words are short, far inside MAX_DIGITS.
NEAR_NUMBERS = "0123456789/+-.e_\u0661 "


@settings(max_examples=500, deadline=None)
@given(st.text(NEAR_NUMBERS, max_size=12))
def test_rationals_are_read_as_before(text):
    m = re.fullmatch(r"([0-9]+)(?:/([0-9]+))?", text.strip())
    want = F(int(m[1]), int(m[2] or 1)) if m and int(m[2] or 1) else None
    try:
        got = parse_rational(text)
    except ValueError:
        got = None
    assert got == want


@settings(max_examples=500, deadline=None)
@given(st.text(NEAR_NUMBERS + ",", max_size=12))
def test_finite_ranks_are_read_as_before(text):
    spec = f"finite:{text}"
    m = re.fullmatch(r"finite:([0-9]+(?:,[0-9]+)*)", spec.strip())
    ranks = tuple(int(rank) for rank in m[1].split(",")) if m else ()
    want = ranks if len(set(ranks)) == len(ranks) > 0 else None
    try:
        got = parse_order(spec).ranks
    except ValueError:
        got = None
    assert got == want


@settings(max_examples=500, deadline=None)
@given(st.text(NEAR_NUMBERS, max_size=12))
def test_integer_words_are_read_as_before(text):
    want = int(text) if re.fullmatch(r"-?[0-9]+", text) else None
    try:
        with redirect_stderr(io.StringIO()):
            got = _parse(["from-lo", "omega", text])[1][1]
    except SystemExit:
        got = None
    assert got == want
