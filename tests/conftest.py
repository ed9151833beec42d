"""Shared finite-presentation corpus for cross-module tests.

Every piece here is wider than 1/28, so the denominator-32 probing
scans in the index-structure tests resolve all of them.  Beside it:
a hypothesis strategy for finite presentation files, and a loader for
the benchmark's own modules.
"""

import importlib.util
import sys
from fractions import Fraction as F
from itertools import pairwise
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ordsum.cantor import MAX_EXPAND_DEPTH, CantorGapGenerator, expand
from ordsum.orders import FiniteOrder, OrderPieceGenerator, build_intervals, order_tnorm
from ordsum.tnorm import FinitePresentation, Label, Piece


def tn(*pieces):
    """Finite t-norm from (lo, hi, kind) triples."""
    return FinitePresentation(
        tuple(Piece(F(lo), F(hi), Label(kind)) for lo, hi, kind in pieces)
    )


PAIR_A = tn((F(1, 4), F(1, 2), "P"), (F(1, 2), F(3, 4), "L"))
PAIR_A_SWAPPED = tn((F(1, 4), F(1, 2), "L"), (F(1, 2), F(3, 4), "P"))
PAIR_B = tn((F(1, 10), F(1, 5), "P"), (F(1, 5), F(9, 10), "L"))

FINITE_CORPUS = [
    tn(),
    tn((0, 1, "P")),
    tn((0, 1, "L")),
    tn((F(1, 2), 1, "P")),
    tn((0, F(1, 2), "L")),
    PAIR_A,
    PAIR_B,
    PAIR_A_SWAPPED,
    tn((F(1, 3), F(2, 3), "P")),
    tn((0, F(1, 3), "P"), (F(2, 3), 1, "L")),
    tn((F(1, 5), F(2, 5), "P"), (F(3, 5), F(4, 5), "P")),
    tn((0, F(1, 4), "L"), (F(1, 4), F(1, 2), "P"), (F(3, 4), 1, "L")),
    tn((F(1, 8), F(1, 4), "P"), (F(1, 2), F(5, 8), "L"), (F(7, 8), 1, "P")),
    tn((0, F(1, 2), "P"), (F(1, 2), 1, "L")),
    tn((0, F(1, 2), "L"), (F(1, 2), 1, "P")),
    tn((F(1, 6), F(1, 3), "L")),
    tn((F(2, 5), F(3, 5), "L"), (F(4, 5), F(9, 10), "P")),
    tn(
        (0, F(1, 6), "P"),
        (F(1, 6), F(1, 3), "L"),
        (F(1, 3), F(1, 2), "P"),
        (F(2, 3), F(5, 6), "L"),
    ),
    tn(
        (F(1, 12), F(1, 6), "P"),
        (F(5, 12), F(1, 2), "P"),
        (F(7, 12), F(2, 3), "L"),
        (F(5, 6), F(11, 12), "L"),
    ),
    tn((F(3, 10), F(7, 10), "L")),
    order_tnorm(FiniteOrder((2, 0, 1))),
    order_tnorm(FiniteOrder((1, 0))),
]

def relations(s):
    """(rp, rl, rm, less) of an index structure, built from its chain.

    rp, rl and rm are the indices labeled P, L and M; less holds every
    pair (m, n) with m placed before n in the chain.
    """
    rp, rl, rm = (
        frozenset(n for n, entry_label in s.entries if entry_label is label)
        for label in (Label.P, Label.L, Label.M)
    )
    indices = s.chain()
    less = frozenset((m, n) for i, m in enumerate(indices) for n in indices[i + 1:])
    return rp, rl, rm, less


def generated(t, count):
    """Pieces 0..count-1 of a shipped lazy family, in index order.

    They are read off the construction, not off the family's walk: the
    placement of an order (`build_intervals`), the removal order of a
    Cantor rule (`expand`), or a ladder's rung formula.
    """
    if isinstance(t, OrderPieceGenerator):
        ends = build_intervals(t.order, count)
    elif isinstance(t, CantorGapGenerator):
        levels = next(d for d in range(MAX_EXPAND_DEPTH + 1) if len(expand(t.rule, d)) >= count)
        ends = [(F(lo, den), F(hi, den)) for lo, hi, den in expand(t.rule, levels)[:count]]
    else:
        ends = [t._rung(n) for n in range(count)]
    return [Piece(lo, hi, Label.P) for lo, hi in ends]


# the presentation-file line of every shipped lazy family, after "family"
LAZY_FAMILY_LINES = [
    "limit-left",
    "limit-right",
    *(f"theta {name}" for name in ("omega", "omega_star", "zeta", "eta", "omega_plus_omega_star")),
    *(f"cantor cantor:{name}" for name in ("middle-third", "svc", "non-e")),
]


@pytest.fixture(scope="session")
def finite_corpus():
    return list(FINITE_CORPUS)


@st.composite
def finite_files(draw):
    """(file text, its pieces as (lo, hi, label) sorted by lo).

    Up to 40 pieces whose ends are cuts over one denominator, so
    neighbours may share an end and 0 and 1 may be ends; each end is
    written over a multiple of that denominator, and the lines come in
    any order.
    """
    den = draw(st.integers(1, 200))
    cuts = sorted(draw(st.sets(st.integers(0, den), max_size=41)))
    kept = [pair for pair in pairwise(cuts) if draw(st.booleans())]
    pieces, lines, scale = [], [], st.integers(1, 4)
    for a, b in kept:
        label, k, m = draw(st.sampled_from("PL")), draw(scale), draw(scale)
        pieces.append((F(a, den), F(b, den), Label(label)))
        lines.append(f"piece {a * k}/{den * k} {b * m}/{den * m} {label}")
    return "\n".join(["tnorm v1", *draw(st.permutations(lines))]) + "\n", pieces


PERFBENCH = Path(__file__).parents[1] / "perfbench"


def perfbench(name):
    """The benchmark's module `name`, loaded from its file and only read.

    It is registered under its own name, as the benchmark imports it,
    after `oracles`, which the benchmark's other modules import.
    """
    for each in dict.fromkeys(("oracles", name)):
        if each not in sys.modules:
            spec = importlib.util.spec_from_file_location(each, PERFBENCH / f"{each}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[each] = module
            spec.loader.exec_module(module)
    return sys.modules[name]
