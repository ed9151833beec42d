"""Presentation file round trips and rejection cases."""

from fractions import Fraction as F

import pytest

from conftest import LAZY_FAMILY_LINES, PAIR_A
from ordsum.presentations import (
    PresentationError,
    format_presentation,
    parse_presentation_text,
)
from ordsum.tnorm import Label


def test_finite_round_trip():
    text = "tnorm v1\npiece 1/4 1/2 P\npiece 1/2 3/4 L\n"
    t = parse_presentation_text(text)
    assert t.is_finite
    assert [(p.lo, p.hi, p.kind) for p in t.pieces] == [
        (F(1, 4), F(1, 2), Label.P),
        (F(1, 2), F(3, 4), Label.L),
    ]
    assert format_presentation(t) == text
    assert t.eval(F(3, 8), F(3, 8)) == PAIR_A.eval(F(3, 8), F(3, 8))


def test_non_reduced_rationals_accepted():
    t = parse_presentation_text("tnorm v1\npiece 2/8 2/4 P\n")
    assert format_presentation(t) == "tnorm v1\npiece 1/4 1/2 P\n"


def test_header_only_is_the_minimum():
    t = parse_presentation_text("tnorm v1\n")
    assert t.is_finite and t.pieces == ()
    assert t.eval(F(1, 3), F(1, 2)) == F(1, 3)


def test_blank_lines_skipped():
    t = parse_presentation_text("\ntnorm v1\n\npiece 0 1 L\n\n")
    assert len(t.pieces) == 1


def test_pieces_reordered_on_output():
    t = parse_presentation_text("tnorm v1\npiece 1/2 3/4 L\npiece 1/4 1/2 P\n")
    assert format_presentation(t) == "tnorm v1\npiece 1/4 1/2 P\npiece 1/2 3/4 L\n"


@pytest.mark.parametrize(
    "name",
    ["limit-left", "limit-right"],
)
def test_ladder_families(name):
    text = f"tnorm v1\nfamily {name}\n"
    t = parse_presentation_text(text)
    assert not t.is_finite
    assert t.generator.family == name
    assert format_presentation(t) == text


def test_theta_family_named_order():
    text = "tnorm v1\nfamily theta omega\n"
    t = parse_presentation_text(text)
    assert t.generator.family == "theta omega"
    assert format_presentation(t) == text


def test_theta_family_finite_order_collapses_to_pieces():
    t = parse_presentation_text("tnorm v1\nfamily theta finite:1,0\n")
    assert t.is_finite and len(t.pieces) == 2
    assert format_presentation(t) == (
        "tnorm v1\npiece 1/9 2/9 P\npiece 1/3 2/3 P\n"
    )


def test_cantor_family():
    text = "tnorm v1\nfamily cantor cantor:svc\n"
    t = parse_presentation_text(text)
    assert t.generator.family == "cantor cantor:svc"
    assert format_presentation(t) == text


@pytest.mark.parametrize("line", LAZY_FAMILY_LINES)
def test_lazy_family_round_trip(line):
    # a family's file line is its generator's `family`
    text = f"tnorm v1\nfamily {line}\n"
    t = parse_presentation_text(text)
    assert t.generator.family == line
    assert format_presentation(t) == text


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "first line"),
        ("tnorm v2\n", "first line"),
        ("tnorm v1\npiece 1/4 1/2\n", "want piece"),
        ("tnorm v1\npiece 1/4 1/2 Q\n", "want piece"),
        ("tnorm v1\npiece one 1/2 P\n", "bad rational"),
        ("tnorm v1\npiece 1/0 1/2 P\n", "bad rational"),
        ("tnorm v1\npiece 0.25 5e-1 P\n", "bad rational '0.25'"),
        ("tnorm v1\npiece 1/4 5e-1 P\n", "bad rational '5e-1'"),
        ("tnorm v1\npiece -0 1/2 P\n", "bad rational"),
        ("tnorm v1\npiece 1/4 +1/2 P\n", "bad rational"),
        ("tnorm v1\npiece 1/2 1/4 P\n", "lo < hi"),
        ("tnorm v1\npiece 1/2 3/2 P\n", "line 2"),
        ("tnorm v1\npiece 0 1/2 P\npiece 1/4 3/4 L\n", "overlap"),
        ("tnorm v1\ngap 0 1\n", "unknown directive"),
        ("tnorm v1\nfamily\n", "needs a name"),
        ("tnorm v1\nfamily escalator\n", "unknown family"),
        ("tnorm v1\nfamily limit-left extra\n", "no arguments"),
        ("tnorm v1\nfamily theta\n", "one order spec"),
        ("tnorm v1\nfamily theta sideways\n", "unknown order"),
        ("tnorm v1\nfamily theta finite:0,0\n", "distinct"),
        ("tnorm v1\nfamily cantor svc\n", "bad system spec"),
        ("tnorm v1\nfamily cantor cantor:thirds\n", "unknown system"),
        ("tnorm v1\nfamily limit-left\nfamily limit-right\n", "second family"),
        ("tnorm v1\nfamily limit-left\npiece 0 1 P\n", "after a family"),
        ("tnorm v1\npiece 0 1 P\nfamily limit-left\n", "after piece"),
        ("tnorm v1\npiece 0 1 M\n", "want piece"),
    ],
)
def test_rejects(text, fragment):
    with pytest.raises(PresentationError, match=fragment):
        parse_presentation_text(text)
