"""The benchmark's checkers in tier 1: commands in process, random inputs.

`perfbench/oracles.py` restates the mathematics without importing
`ordsum`, and `perfbench/checks.py` turns each reference answer into a
checker of a command's stdout.  Here each command runs through
`cli.main` with stdout redirected, on drawn finite presentations,
drawn finite orders, every shipped family and every pair of families
whose `iso` verdict test_iso pins, and the matching checker must accept
what it prints.
"""

import contextlib
import io
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import LAZY_FAMILY_LINES, finite_files, perfbench
from ordsum.cli import main
from test_iso import FAMILIES, VERDICT_CODES, VERDICTS_AT_30

oracles = perfbench("oracles")
checks = perfbench("checks")


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


# checks.lazy_theta indexes every entry's least rational in full, with a
# totient sum up to its denominator, which grows like 3^depth: at depth 18
# one check of omega takes about a second and at 30 one of zeta 9 s (FOUND
# "lazy_theta's oracle"), so `theta` is checked at depths up to 16
THETA_ORACLE_DEPTH = 16


@pytest.mark.parametrize("line", LAZY_FAMILY_LINES)
@settings(max_examples=16, deadline=None)
@given(depth=st.integers(1, 60), theta_depth=st.integers(1, THETA_ORACLE_DEPTH),
       size=st.integers(1, 200), data=st.data())
def test_shipped_families(write, line, depth, theta_depth, size, data):
    path = write(f"tnorm v1\nfamily {line}\n")
    kind, _, name = line.partition(" ")
    if kind == "cantor":
        system = name.removeprefix("cantor:")
        accepted(checks.cantor_signature(system, depth), "signature", path, depth)
        return
    if kind == "theta":
        order = oracles.ORDERS[name]
        accepted(checks.lazy_signature(order, depth), "signature", path, depth)
        accepted(checks.lazy_theta(order, theta_depth, size), "theta", path, size, theta_depth)
        intervals, bound = oracles.order_intervals(order, depth), F(1, 3 ** depth)
    else:
        # the rungs tile (0, 1): the tail is what the first `depth` leave
        intervals = oracles.ladder_pieces(kind, depth)
        bound = 2 * (1 - sum(hi - lo for lo, hi in intervals))
    pieces = [(lo, hi, "P") for lo, hi in intervals]
    inside = st.sampled_from(intervals).flatmap(
        lambda span: st.integers(1, 16).map(lambda k: span[0] + (span[1] - span[0]) * F(k, 17)))
    x, y = data.draw(inside), data.draw(inside)
    accepted(checks.lazy_eval(pieces, x, y, bound), "eval", path, x, y, depth)


def cantor_facts(system, depth):
    """The order facts `cantor` prints, read off the oracle's gaps.

    A rule keeps an end of [0, 1] unless its first level has a gap
    there, and keeping both is property E, which makes the gaps dense.
    Otherwise the first two gaps that share an end, left to right, are
    the successor witness, and density is unknown until one shows.
    """
    first = oracles.cantor_gaps(system, 1)
    keeps = (all(lo > 0 for lo, _ in first), all(hi < 1 for _, hi in first))
    gaps = sorted(oracles.cantor_gaps(system, depth))
    shared = [(*a, *b) for a, b in zip(gaps, gaps[1:]) if a[1] == b[0]]
    return {
        "property_E": str(all(keeps)).lower(),
        "dense": "true" if all(keeps) else "false" if shared else "unknown",
        "has_min": str(not keeps[0]).lower(),
        "has_max": str(not keeps[1]).lower(),
        "successor_witness": "( {} , {} ) ( {} , {} )".format(*shared[0]) if shared else "none",
    }


@pytest.mark.parametrize("system", ["middle-third", "svc", "non-e"])
@pytest.mark.parametrize("depth", range(13))
def test_cantor_dumps(system, depth):
    facts = cantor_facts(system, depth)
    accepted(checks.cantor(system, depth, facts), "cantor", f"cantor:{system}", depth)


ISO_DEPTH = 30  # the depth at which test_iso pins the verdict matrix
ISO_ROUNDS = 8  # decide_iso_lazy's back-and-forth rounds at any depth of 8 or more


def family_pieces(line):
    """(pieces, certified M gaps) of a family to ISO_DEPTH, by the oracles."""
    kind, _, name = line.partition(" ")
    if kind == "cantor":
        return oracles.cantor_first_gaps(name.removeprefix("cantor:"), ISO_DEPTH), []
    if kind != "theta":
        return oracles.ladder_pieces(kind, ISO_DEPTH), []
    if name.startswith("finite:"):
        ranks = [int(rank) for rank in name[len("finite:"):].split(",")]
        return oracles.order_intervals(oracles.finite_order(ranks), len(ranks)), []
    intervals = oracles.order_intervals(oracles.ORDERS[name], ISO_DEPTH)
    return intervals, oracles.certified_gaps(oracles.ORDERS[name], intervals)


def iso_check(a, b, code):
    """The checker the benchmark's `lazy` workload uses for this verdict."""
    (pieces_a, gaps_a), (pieces_b, gaps_b) = family_pieces(a), family_pieces(b)
    if code == "=" and a.startswith("theta finite:"):
        return checks.finite_iso(*([(lo, hi, "P") for lo, hi in p] for p in (pieces_a, pieces_b)))
    if code == "=":
        return checks.lazy_iso(pieces_a, pieces_b, ISO_ROUNDS)
    if code == "m":
        # the side with a least entry has a piece at 0, or a gap below its least piece
        label = "P" if any(lo == 0 for lo, _ in pieces_a + pieces_b) else "M"
        return checks.not_iso(checks.least_entry_mismatch(label))
    if code == "s":
        return checks.not_iso(checks.successor_pair(pieces_a + pieces_b, gaps_a + gaps_b))
    return checks.not_iso()  # no checker vets a maximum or a cardinality certificate


# every ordered pair that test_iso's matrix pins as ISO or NOT_ISO
ISO_CELLS = [(a, b, code) for a, row in zip(FAMILIES, VERDICTS_AT_30.split())
             for b, code in zip(FAMILIES, row) if code != VERDICT_CODES["UNKNOWN"]]
# a family against itself is ISO entry for entry, certified M gaps
# included, and lazy_iso takes P pairs only
M_PAIRS = pytest.mark.xfail(strict=True, reason="FOUND \"lazy_iso takes P pairs only\"")


@pytest.mark.parametrize("a, b, code", [
    pytest.param(a, b, code, id=f"{a}~{b}",
                 marks=[M_PAIRS] if a == b and family_pieces(a)[1] else [])
    for a, b, code in ISO_CELLS])
def test_iso_verdicts(write, a, b, code):
    paths = [write(f"tnorm v1\nfamily {line}\n") for line in (a, b)]
    accepted(iso_check(a, b, code), "iso", *paths, ISO_DEPTH)
