"""The benchmark's checkers in tier 1: commands in process, random inputs.

`perfbench/oracles.py` restates the mathematics without importing
`ordsum`, and `perfbench/checks.py` turns each reference answer into a
checker of a command's stdout.  Here each command runs through
`cli.main` with stdout redirected, on drawn finite presentations,
drawn finite orders and every shipped order and Cantor family, and the
matching checker must accept what it prints.
"""

import contextlib
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAZY_FAMILY_LINES, finite_files, perfbench
from ordsum.cli import main

oracles = perfbench("oracles")
checks = perfbench("checks")

ORDER_FAMILIES = [line for line in LAZY_FAMILY_LINES if line.startswith("theta ")]
CANTOR_FAMILIES = [line for line in LAZY_FAMILY_LINES if line.startswith("cantor ")]


@pytest.fixture(scope="module")
def write(tmp_path_factory):
    """Writes a presentation text to a fresh file and returns its path.

    Module-scoped: hypothesis refuses a function-scoped fixture.
    """
    folder = tmp_path_factory.mktemp("checkers")
    count = 0

    def write(text):
        nonlocal count
        count += 1
        path = folder / f"input{count}.tnorm"
        path.write_text(text)
        return str(path)
    return write


def accepted(check, *argv):
    """Run `ordsum argv` in process; it must exit 0 and `check` must accept its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([str(word) for word in argv])
    assert code == 0, f"{argv} exited {code}"
    assert checks.problem(check, out.getvalue()) is None, (argv, checks.problem(check, out.getvalue()))


def tile_text(labels, cuts):
    """(file text, pieces) of the presentation whose signature is `labels` over `cuts`."""
    pieces = [(lo, hi, label) for lo, hi, label in zip([F(0), *cuts], [*cuts, F(1)], labels)
              if label != "M"]
    lines = ["tnorm v1", *(f"piece {lo} {hi} {label}" for lo, hi, label in pieces)]
    return "\n".join(lines) + "\n", pieces


@st.composite
def other_cuts(draw, count):
    """`count` distinct points of (0, 1), ascending."""
    den = draw(st.integers(count + 2, 400))
    return sorted(F(k, den) for k in draw(
        st.lists(st.integers(1, den - 1), min_size=count, max_size=count, unique=True)))


@settings(max_examples=200, deadline=None)
@given(drawn=finite_files(), grid=st.integers(2, 9), size=st.integers(1, 200), data=st.data())
def test_finite_presentations(write, drawn, grid, size, data):
    text, drawn_pieces = drawn
    pieces = [(lo, hi, label.value) for lo, hi, label in drawn_pieces]
    path = write(text)
    accepted(checks.surface(pieces, grid), "surface", path, grid)
    accepted(checks.axioms(), "axioms", path)
    entries = [(lo, hi, label == "M", label) for lo, hi, label in oracles.signature(pieces)]
    accepted(checks.l1(size, entries), "theta", path, size)

    labels = [label for _, _, label in oracles.signature(pieces)]
    cuts = data.draw(other_cuts(len(labels) - 1))
    other_text, other_pieces = tile_text(labels, cuts)
    accepted(checks.finite_iso(pieces, other_pieces), "iso", path, write(other_text))
    flippable = [i for i, label in enumerate(labels) if label != "M"]
    if flippable:
        flip = data.draw(st.sampled_from(flippable))
        flipped = [{"P": "L", "L": "P"}.get(label, label) if i == flip else label
                   for i, label in enumerate(labels)]
        accepted(checks.finite_not_iso(flip), "iso", path, write(tile_text(flipped, cuts)[0]))


@settings(max_examples=200, deadline=None)
@given(ranks=st.integers(1, 12).flatmap(lambda k: st.permutations(range(k))), data=st.data())
def test_finite_orders(ranks, data):
    count = data.draw(st.integers(1, len(ranks)))
    spec = "finite:" + ",".join(map(str, ranks))
    order = oracles.finite_order(ranks)
    accepted(checks.from_lo(order, count), "from-lo", spec, count)
    accepted(checks.roundtrip(order, count), "roundtrip", spec, count)


@pytest.mark.parametrize("line", ORDER_FAMILIES + CANTOR_FAMILIES)
@settings(max_examples=16, deadline=None)
@given(depth=st.integers(1, 60), data=st.data())
def test_shipped_families(write, line, depth, data):
    path = write(f"tnorm v1\nfamily {line}\n")
    kind, name = line.split()
    if kind == "cantor":
        system = name.removeprefix("cantor:")
        accepted(checks.cantor_signature(system, depth), "signature", path, depth)
        return
    order = oracles.ORDERS[name]
    accepted(checks.lazy_signature(order, depth), "signature", path, depth)
    intervals = oracles.order_intervals(order, depth)
    pieces = [(lo, hi, "P") for lo, hi in intervals]
    inside = st.sampled_from(intervals).flatmap(
        lambda span: st.integers(1, 16).map(lambda k: span[0] + (span[1] - span[0]) * F(k, 17)))
    x, y = data.draw(inside), data.draw(inside)
    accepted(checks.lazy_eval(pieces, x, y, F(1, 3 ** depth)), "eval", path, x, y, depth)
