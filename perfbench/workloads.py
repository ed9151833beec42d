"""The benchmark's workloads: seeded inputs and fixed operation lists.

`build(name, seed, workdir)` writes every input file the operations
read into `workdir` and returns the operations in the order one pass
runs them.  The same seed always gives the same files and operations.
Each operation is an argv for `op.py` (`cli ...`, `probe ...`,
`locate ...`) together with the checker for its standard output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import checks
import oracles

F = Fraction

WORKLOADS = ("audit", "encode", "lazy")

# ---------------------------------------------------------------- sizes
AXIOM_GRID = 21          # the CLI's fixed audit grid
CLI_TRUNCATION = 12      # the CLI truncates lazy families here for axioms/surface
SURFACE_GRID = 100
PROBE_SIZE = 200
PROBE_DENOMINATOR = 48
ROUNDTRIPS = (("omega", 13), ("omega_star", 12), ("omega_plus_omega_star", 13),
              ("zeta", 12), ("eta", 12))
THETA_SIZE, THETA_DEPTH = 100000, 12
FINITE_ORDER_SIZE = 12
ZETA_DEPTH = 150
ETA_DEPTH = 110
SVC_DEPTH = 2000
LOCATE_DEPTH = 150
LOCATE_CANTOR_LEVELS = 11
LOCATE_QUERIES = 80
ISO_DEPTH = 100
ISO_ROUNDS = 8           # decide_iso_lazy runs min(8, depth) back-and-forth rounds
CANTOR_DEPTH = 14

LAZY_FAMILIES = (
    "theta omega", "theta zeta", "theta eta", "theta omega_plus_omega_star",
    "limit-left", "limit-right",
    "cantor cantor:middle-third", "cantor cantor:svc", "cantor cantor:non-e",
)

# The finite side of the finite-vs-lazy iso is fixed, not seeded.  The
# program refuses that pair with exit 3 ("decide_iso_lazy needs two lazy
# presentations"), so the operation fails on every input, and its share
# of the failures must not depend on the seed.
FIXED_FINITE = [(F(1, 4), F(1, 2), "P"), (F(1, 2), F(3, 4), "L")]


@dataclass
class Op:
    """One operation: `argv` for op.py, and the checker for its output.

    An operation fails when it exits with another code than 0; its
    output is checked only when it does not fail.
    """

    argv: list[str]
    check: Callable[[str], None]

    @property
    def label(self) -> str:
        words = [Path(w).stem if w.endswith(".tnorm") else w for w in self.argv[:5]]
        return " ".join(words)[:60]


class _Inputs:
    """Writes presentation files into the work directory."""

    def __init__(self, workdir: Path):
        self.dir = workdir
        self.count = 0

    def finite(self, pieces) -> str:
        lines = ["tnorm v1"] + [f"piece {lo} {hi} {kind}" for lo, hi, kind in pieces]
        return self._write("\n".join(lines) + "\n")

    def family(self, spec: str) -> str:
        return self._write(f"tnorm v1\nfamily {spec}\n")

    def _write(self, text: str) -> str:
        self.count += 1
        path = self.dir / f"input{self.count:02d}.tnorm"
        path.write_text(text)
        return str(path)


def _family_pieces(spec: str, count: int):
    """The first `count` pieces of a lazy family, all labelled P."""
    words = spec.split()
    if words[0] == "theta":
        intervals = oracles.order_intervals(oracles.ORDERS[words[1]], count)
    elif words[0] == "cantor":
        intervals = oracles.cantor_first_gaps(words[1][len("cantor:"):], count)
    else:
        intervals = oracles.ladder_pieces(words[0], count)
    return [(lo, hi, "P") for lo, hi in intervals]


def _labels(rng: random.Random, pieces: int) -> list[str]:
    """A signature label sequence: P/L pieces with M gaps between some of them."""
    labels = []
    for i in range(pieces):
        if rng.random() < 0.5 and (i > 0 or rng.random() < 0.5):
            labels.append("M")
        labels.append(rng.choice("PL"))
    if rng.random() < 0.5:
        labels.append("M")
    return labels


def _tile(labels: list[str], cuts: list[Fraction]):
    """Pieces of the presentation whose signature is labels over the cut points."""
    bounds = [F(0)] + cuts + [F(1)]
    return [(bounds[i], bounds[i + 1], label) for i, label in enumerate(labels) if label != "M"]


def _random_cuts(rng: random.Random, count: int) -> list[Fraction]:
    cuts: set[Fraction] = set()
    while len(cuts) < count:
        q = rng.randint(2, 120)
        cuts.add(F(rng.randint(1, q - 1), q))
    return sorted(cuts)


def _grid_cuts(rng: random.Random, entries: int, grid: int, least: int) -> list[Fraction]:
    """Cut points on multiples of 1/grid, every entry at least least/grid wide."""
    widths = [least] * entries
    for _ in range(grid - least * entries):
        widths[rng.randrange(entries)] += 1
    cuts, position = [], 0
    for w in widths[:-1]:
        position += w
        cuts.append(F(position, grid))
    return cuts


def _inside(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    return lo + (hi - lo) * F(rng.randint(1, 16), 17)


def _audit(rng: random.Random, inputs: _Inputs) -> list[Op]:
    ops = []
    presentations = []
    for _ in range(2):
        labels = _labels(rng, rng.randint(1, 24))
        pieces = _tile(labels, _random_cuts(rng, len(labels) - 1))
        presentations.append((inputs.finite(pieces), pieces))
    family = rng.choice(LAZY_FAMILIES)
    presentations.append((inputs.family(family), _family_pieces(family, CLI_TRUNCATION)))
    for path, _ in presentations:
        ops.append(Op(["cli", "axioms", path], checks.axioms(AXIOM_GRID)))
    for path, pieces in presentations:
        ops.append(Op(["cli", "surface", path, str(SURFACE_GRID)], checks.surface(pieces, SURFACE_GRID)))

    labels = _labels(rng, rng.randint(2, 12))
    pieces_a = _tile(labels, _random_cuts(rng, len(labels) - 1))
    pieces_b = _tile(labels, _random_cuts(rng, len(labels) - 1))
    path_a, path_b = inputs.finite(pieces_a), inputs.finite(pieces_b)
    ops.append(Op(["cli", "iso", path_a, path_b], checks.finite_iso(pieces_a, pieces_b)))
    flip = rng.choice([i for i, label in enumerate(labels) if label != "M"])
    flipped = labels[:flip] + [{"P": "L", "L": "P"}[labels[flip]]] + labels[flip + 1:]
    path_c = inputs.finite(_tile(flipped, _random_cuts(rng, len(labels) - 1)))
    ops.append(Op(["cli", "iso", path_a, path_c], checks.finite_not_iso(flip)))

    # probing is definitive only when every piece is wider than 2/denominator;
    # gaps get the same margin so each holds scan rationals
    for _ in range(3):
        labels = _labels(rng, rng.randint(2, 5))
        pieces = _tile(labels, _grid_cuts(rng, len(labels), PROBE_DENOMINATOR, 3))
        entries = [(lo, hi, label == "M", label) for lo, hi, label in oracles.signature(pieces)]
        ops.append(Op(["probe", inputs.finite(pieces), str(PROBE_SIZE), str(PROBE_DENOMINATOR)],
                      checks.probe(PROBE_SIZE, entries)))
    return ops


def _encode(rng: random.Random, inputs: _Inputs) -> list[Op]:
    ops = []
    for name, count in ROUNDTRIPS:
        ops.append(Op(["cli", "roundtrip", name, str(count)],
                      checks.roundtrip(oracles.ORDERS[name], count)))
    ranks = list(range(FINITE_ORDER_SIZE))
    rng.shuffle(ranks)
    spec = "finite:" + ",".join(map(str, ranks))
    order = oracles.finite_order(ranks)
    ops.append(Op(["cli", "roundtrip", spec, str(FINITE_ORDER_SIZE)],
                  checks.roundtrip(order, FINITE_ORDER_SIZE)))
    ops.append(Op(["cli", "theta", inputs.family("theta omega"), str(THETA_SIZE), str(THETA_DEPTH)],
                  checks.lazy_theta(oracles.ORDERS["omega"], THETA_DEPTH, THETA_SIZE)))
    rng.shuffle(ranks)
    spec = "finite:" + ",".join(map(str, ranks))
    ops.append(Op(["cli", "from-lo", spec, str(FINITE_ORDER_SIZE)],
                  checks.from_lo(oracles.finite_order(ranks), FINITE_ORDER_SIZE)))
    return ops


def _order_locate_queries(rng, order, depth):
    intervals = oracles.order_intervals(order, depth)
    gaps = oracles.certified_gaps(order, intervals)
    answers = {}
    while len(answers) < LOCATE_QUERIES:
        n = rng.randrange(depth)
        lo, hi = intervals[n]
        roll = rng.random()
        if roll < 0.5:
            answers[str(_inside(rng, lo, hi))] = f"piece {n} {lo} {hi}"
        elif roll < 0.75 or not gaps:
            answers[str(rng.choice((lo, hi)))] = "idempotent"
        else:
            answers[str(_inside(rng, *rng.choice(gaps)))] = "idempotent"
    return answers


def _cantor_locate_queries(rng, system, levels):
    gaps = oracles.cantor_gaps(system, levels)
    answers = {}
    while len(answers) < LOCATE_QUERIES:
        n = rng.randrange(len(gaps))
        lo, hi = gaps[n]
        if rng.random() < 0.6:
            answers[str(_inside(rng, lo, hi))] = f"piece {n} {lo} {hi}"
        else:
            answers[str(rng.choice((lo, hi)))] = "idempotent"
    return answers


def _lazy(rng: random.Random, inputs: _Inputs) -> list[Op]:
    ops = []
    files = {spec: inputs.family(spec) for spec in (
        "theta zeta", "theta eta", "theta omega", "theta omega_star",
        "cantor cantor:svc", "cantor cantor:middle-third", "cantor cantor:non-e",
        "limit-left", "limit-right")}
    zeta, eta = oracles.ORDERS["zeta"], oracles.ORDERS["eta"]
    ops.append(Op(["cli", "signature", files["theta zeta"], str(ZETA_DEPTH)],
                  checks.lazy_signature(zeta, ZETA_DEPTH)))
    ops.append(Op(["cli", "signature", files["theta eta"], str(ETA_DEPTH)],
                  checks.lazy_signature(eta, ETA_DEPTH)))
    for spec, depth in (("theta zeta", ZETA_DEPTH), ("theta eta", ETA_DEPTH)):
        pieces = _family_pieces(spec, depth)
        lo, hi, _ = pieces[rng.randrange(CLI_TRUNCATION)]
        x, y = _inside(rng, lo, hi), _inside(rng, lo, hi)
        ops.append(Op(["cli", "eval", files[spec], str(x), str(y), str(depth)],
                      checks.lazy_eval(pieces, x, y, F(1, 3 ** depth))))
    ops.append(Op(["cli", "signature", files["cantor cantor:svc"], str(SVC_DEPTH)],
                  checks.cantor_signature("svc", SVC_DEPTH)))
    answers = _order_locate_queries(rng, zeta, LOCATE_DEPTH)
    ops.append(Op(["locate", files["theta zeta"], str(LOCATE_DEPTH), *answers],
                  checks.locate(answers)))
    answers = _cantor_locate_queries(rng, "svc", LOCATE_CANTOR_LEVELS)
    ops.append(Op(["locate", files["cantor cantor:svc"], str(LOCATE_CANTOR_LEVELS), *answers],
                  checks.locate(answers)))

    # eta and the middle-third gaps are both dense without endpoints:
    # isomorphic by Cantor's theorem
    ops.append(Op(["cli", "iso", files["theta eta"], files["cantor cantor:middle-third"], str(ISO_DEPTH)],
                  checks.lazy_iso(oracles.order_intervals(eta, ISO_DEPTH),
                                  oracles.cantor_first_gaps("middle-third", ISO_DEPTH), ISO_ROUNDS)))
    # NOT_ISO pairs, each with the certificate that separates them: omega's
    # least entry is the idempotent gap below its least element; the
    # left ladder and non-e start with a piece at 0; zeta has a piece
    # next to a gap, which the dense eta cannot have
    zeta_pieces = oracles.order_intervals(zeta, ISO_DEPTH)
    zeta_gaps = oracles.certified_gaps(zeta, zeta_pieces)
    for a, b, certificate in (
        ("theta omega", "theta omega_star", checks.least_entry_mismatch("M")),
        ("theta zeta", "theta eta", checks.successor_pair(zeta_pieces, zeta_gaps)),
        ("limit-left", "limit-right", checks.least_entry_mismatch("P")),
        ("cantor cantor:non-e", "cantor cantor:middle-third", checks.least_entry_mismatch("P")),
    ):
        ops.append(Op(["cli", "iso", files[a], files[b], str(ISO_DEPTH)], checks.not_iso(certificate)))
    facts = {"property_E": "true", "dense": "true", "has_min": "false",
             "has_max": "false", "successor_witness": "none"}
    ops.append(Op(["cli", "cantor", "cantor:middle-third", str(CANTOR_DEPTH)],
                  checks.cantor("middle-third", CANTOR_DEPTH, facts)))
    # a finite signature cannot match an infinite one
    ops.append(Op(["cli", "iso", inputs.finite(FIXED_FINITE), files["theta eta"], str(CLI_TRUNCATION)],
                  checks.not_iso()))
    return ops


def build(name: str, seed: int, workdir: Path) -> list[Op]:
    rng = random.Random(f"{name}:{seed}")
    return {"audit": _audit, "encode": _encode, "lazy": _lazy}[name](rng, _Inputs(workdir))
