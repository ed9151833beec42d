"""Shared finite-presentation corpus for cross-module tests.

Every piece here is wider than 1/28, so the denominator-32 probing
scans in the index-structure tests resolve all of them.
"""

from fractions import Fraction as F

import pytest

from ordsum.orders import FiniteOrder, order_tnorm
from ordsum.tnorm import FinitePresentation, Label, Piece, TNorm


def tn(*pieces):
    """Finite t-norm from (lo, hi, kind) triples."""
    return TNorm(
        FinitePresentation(
            tuple(Piece(F(lo), F(hi), Label(kind)) for lo, hi, kind in pieces)
        )
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
