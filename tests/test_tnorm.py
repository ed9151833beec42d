"""Exact evaluation, axioms, powers, and piece classification."""

from __future__ import annotations

import random
from fractions import Fraction as F
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ordsum.cli import GRID_21
from ordsum.tnorm import (
    AxiomReport,
    FinitePresentation,
    Piece,
    PieceKind,
    PreconditionError,
    TNorm,
    Violation,
    check_axioms,
    classify_piece,
    find_idempotent_power,
)

P = PieceKind.PRODUCT
L = PieceKind.LUKASIEWICZ


def tn(*spec):
    return TNorm.from_pieces(Piece(F(a), F(b), k) for a, b, k in spec)


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
    assert t.is_idempotent(F(1, 2))
    assert not t.is_idempotent(F(1, 3))
    assert not t.is_idempotent(F(2, 3))


def test_idempotents_absorb_to_min():
    t = TWO_PIECE
    grid = [F(i, 20) for i in range(21)]
    for q in grid:
        if t.is_idempotent(q):
            for p in grid:
                assert t.eval(p, q) == min(p, q)


def test_overlapping_pieces_rejected():
    with pytest.raises(ValueError):
        tn((0, "1/2", P), ("1/3", "2/3", L))


def test_piece_outside_unit_rejected():
    with pytest.raises(ValueError):
        Piece(F(-1, 2), F(1, 2), P)
    with pytest.raises(ValueError):
        Piece(F(1, 2), F(3, 2), P)
    with pytest.raises(ValueError):
        Piece(F(1, 2), F(1, 2), P)


def test_gaps():
    assert MINIMUM.presentation.gaps() == [(F(0), F(1))]
    assert PRODUCT.presentation.gaps() == []
    assert TWO_PIECE.presentation.gaps() == [(F(0), F(1, 4)), (F(3, 4), F(1))]


def test_check_axioms_clean():
    grid = [F(i, 10) for i in range(11)]
    for t in (MINIMUM, PRODUCT, LUKA, TWO_PIECE):
        report = check_axioms(t, grid)
        assert report.ok
        assert report.checked > 0


class _BrokenMaxCrossPiece:
    """Evaluator that wrongly uses max across pieces; must be caught."""

    def __init__(self, base: TNorm):
        self._base = base

    def eval(self, x, y):
        base = self._base
        i = base.presentation.piece_index_of(x)
        if i is not None and i == base.presentation.piece_index_of(y):
            return base.presentation.pieces[i].combine(x, y)
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
    return TNorm.from_pieces(pieces), cuts


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
    pres = t.presentation
    i = pres.piece_index_of(x)
    if i is not None and i == pres.piece_index_of(y):
        return pres.pieces[i].combine(x, y)
    return min(x, y)


def test_eval_matches_two_lookup_rule(finite_corpus):
    for t in finite_corpus:
        pts = set(GRID_21)
        for p in t.pieces:
            pts |= {p.lo, p.hi, (p.lo + p.hi) / 2, p.lo + p.width / 7}
        for x in pts:
            for y in pts:
                assert t.eval(x, y) == _eval_by_two_lookups(t, x, y), (t, x, y)


def test_power_by_iteration():
    assert LUKA.power(F(1, 2), 2) == F(0)
    assert PRODUCT.power(F(1, 2), 3) == F(1, 8)
    assert TWO_PIECE.power(F(1, 2), 5) == F(1, 2)


def test_find_idempotent_power_structural():
    got = find_idempotent_power(LUKA, F(9, 10), limit=8)
    assert (got.outcome, got.exponent) == ("yes", 10)
    got = find_idempotent_power(PRODUCT, F(9, 10), limit=8)
    assert (got.outcome, got.exponent) == ("no", None)
    got = find_idempotent_power(TWO_PIECE, F(3, 4), limit=8)
    assert (got.outcome, got.exponent) == ("yes", 1)


def test_nilpotency_closed_form_matches_iteration():
    piece = Piece(F(1, 5), F(4, 5), L)
    t = TNorm.from_pieces([piece])
    for q in (F(1, 4), F(1, 2), F(3, 5), F(7, 10), F(79, 100)):
        want = piece.nilpotency_index(q)
        value = q
        steps = 1
        while value != piece.lo:
            value = t.eval(value, q)
            steps += 1
        assert steps == want


def test_classify_piece():
    assert classify_piece(TWO_PIECE, F(1, 4), F(1, 2)) is P
    assert classify_piece(TWO_PIECE, F(1, 2), F(3, 4)) is L
    assert classify_piece(PRODUCT, F(0), F(1)) is P
    assert classify_piece(LUKA, F(0), F(1)) is L
    with pytest.raises(PreconditionError):
        classify_piece(MINIMUM, F(0), F(1))


def test_finite_has_no_truncation_or_approx():
    with pytest.raises(PreconditionError):
        TWO_PIECE.truncation(3)
    with pytest.raises(PreconditionError):
        TWO_PIECE.eval_approx(F(1, 2), F(1, 2), 4)


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
