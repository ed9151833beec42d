"""Acceptance gate: one criterion per test, one PASS/FAIL line each.

Every check is exact rational arithmetic; there are no tolerances
anywhere.  Each test collects its failures and reports a single
"A<k> <name>: PASS|FAIL" line, then asserts the collected list is
empty so pytest shows the details.
"""

import random
from fractions import Fraction as F
from functools import cmp_to_key
from itertools import combinations
from math import gcd

from conftest import PAIR_A, PAIR_A_SWAPPED, PAIR_B, relations, tn
from ordsum.cantor import CantorGapGenerator, parse_system
from ordsum.families import LadderGenerator
from ordsum.iso import (
    Iso,
    NotIso,
    build_iso_map,
    decide_iso_finite,
    decide_iso_lazy,
)
from ordsum.l1 import l1_iso_finite, theta, theta_by_probing
from ordsum.orders import (
    NAMED_ORDERS,
    FiniteOrder,
    agreement_ball_check,
    build_intervals,
    order_tnorm,
    parse_order,
)
from ordsum.rationals import min_entry_in
from ordsum.signature import compute_signature
from ordsum.tnorm import Label, Piece, check_axioms

GRID = [F(i, 20) for i in range(21)]


def _settle(tag: str, failures: list) -> None:
    print(f"{tag}: {'PASS' if not failures else 'FAIL'}")
    assert not failures, f"{tag}: " + "; ".join(failures)


def _named_orders():
    return [(name, NAMED_ORDERS[name]()) for name in sorted(NAMED_ORDERS)]


def test_a1_axiom_grid(finite_corpus):
    failures = []
    if len(finite_corpus) < 12:
        failures.append(f"corpus has only {len(finite_corpus)} presentations")
    shapes = {
        tuple((p.lo, p.hi, p.label) for p in t.pieces) for t in finite_corpus
    }
    for wanted in (
        (),
        ((F(0), F(1), Label.P),),
        ((F(0), F(1), Label.L),),
    ):
        if wanted not in shapes:
            failures.append(f"corpus lacks the basic presentation {wanted}")
    for k, t in enumerate(finite_corpus):
        report = check_axioms(t, GRID)
        if not report.ok:
            failures.append(f"presentation {k}: {len(report.violations)} violations")
    _settle("A1 axiom-grid", failures)


def test_a2_idempotents_absorb_into_min(finite_corpus):
    failures = []
    for k, t in enumerate(finite_corpus):
        idempotents = [q for q in GRID if t.eval(q, q) == q]
        for q in idempotents:
            for p in GRID:
                if t.eval(p, q) != min(p, q):
                    failures.append(f"presentation {k}: eval({p}, {q}) != min")
    _settle("A2 idempotent-min-law", failures)


def test_a3_piece_interiors_are_strict(finite_corpus):
    failures = []
    for k, t in enumerate(finite_corpus):
        for piece in t.pieces:
            inside = [q for q in GRID if piece.lo < q < piece.hi]
            for p in inside:
                for q in inside:
                    if t.eval(p, q) >= min(p, q):
                        failures.append(
                            f"presentation {k}: eval({p}, {q}) not below min"
                        )
    _settle("A3 piece-interior-strictness", failures)


def test_a4_interval_construction():
    failures = []
    rng = random.Random(54121)
    orders = [order for _name, order in _named_orders()]
    for _ in range(10):
        ranks = list(range(12))
        rng.shuffle(ranks)
        orders.append(FiniteOrder(ranks))
    for order in orders:
        ab = build_intervals(order, 12)
        for n, (a, b) in enumerate(ab):
            if not (0 < a < b < 1):
                failures.append(f"{order.name}: interval {n} touches the boundary")
            if b - a != F(1, 3 ** (n + 1)):
                failures.append(f"{order.name}: interval {n} has wrong length")
            margin = F(1, 3 ** (n + 1))
            slack = [a, 1 - b]
            for m in range(n):
                if order.less(m, n):
                    slack.append(a - ab[m][1])
                else:
                    slack.append(ab[m][0] - b)
            if min(slack) < margin:
                failures.append(f"{order.name}: interval {n} margin below {margin}")
        for m in range(12):
            for n in range(12):
                if m != n and order.less(m, n) != (ab[m][1] < ab[n][0]):
                    failures.append(f"{order.name}: order mismatch at ({m}, {n})")
    _settle("A4 interval-construction", failures)


def test_a5_agreement_ball():
    failures = []
    checked = {1: 0, 2: 0, 3: 0}
    for (name1, o1), (name2, o2) in combinations(_named_orders(), 2):
        for n in (1, 2, 3):
            agrees = all(
                o1.less(m, k) == o2.less(m, k)
                for m in range(n)
                for k in range(n)
                if m != k
            )
            if not agrees:
                continue
            checked[n] += 1
            if not agreement_ball_check(o1, o2, n, 33):
                failures.append(f"{name1} vs {name2} exceeds the bound at n={n}")
    if checked != {1: 10, 2: 4, 3: 1}:
        failures.append(f"unexpected agreement pattern {checked}")
    _settle("A5 agreement-ball", failures)


def test_a6_index_oracle_equality(finite_corpus):
    failures = []
    for k, t in enumerate(finite_corpus):
        structural = theta(t, 64)
        probed = theta_by_probing(t, 64, denominator_limit=32)
        if structural != probed:
            failures.append(f"presentation {k}: routes disagree")
    _settle("A6 index-oracle-equality", failures)


def test_a7_order_roundtrip():
    failures = []
    for name, order in _named_orders():
        witness_piece = {}
        for n, (lo, hi) in enumerate(build_intervals(order, 12)):
            idx, _value = min_entry_in(lo, hi)
            witness_piece[idx] = n
        size = 1 + max(witness_piece)
        s = theta(order_tnorm(order), size, depth=12)
        rp, rl, _, less = relations(s)
        if rl:
            failures.append(f"{name}: rl not empty")
        if rp != frozenset(witness_piece):
            failures.append(f"{name}: rp misses a piece witness")
            continue
        for i in rp:
            for j in rp:
                if i != j and ((i, j) in less) != order.less(
                    witness_piece[i], witness_piece[j]
                ):
                    failures.append(f"{name}: pair ({i}, {j}) breaks the order")
        ascending = cmp_to_key(lambda m, n: -1 if order.less(m, n) else 1)
        recovered = [witness_piece[i] for i in s.chain() if i in rp]
        if recovered != sorted(range(12), key=ascending):
            failures.append(f"{name}: recovered sequence wrong")
    _settle("A7 order-roundtrip", failures)


def test_a8_reduction_property():
    failures = []
    verdict = decide_iso_finite(compute_signature(PAIR_A), compute_signature(PAIR_B))
    if not isinstance(verdict, Iso):
        failures.append("matching label sequences not recognized as iso")
    witness = build_iso_map(PAIR_A, PAIR_B)
    phi = witness.apply
    if phi(F(0)) != 0 or phi(F(1)) != 1:
        failures.append("witness map does not fix the endpoints")
    pts = [F(i, 8) for i in range(9)]
    for x in pts:
        for y in pts:
            if phi(PAIR_A.eval(x, y)) != PAIR_B.eval(phi(x), phi(y)):
                failures.append(f"homomorphism identity fails at ({x}, {y})")
    swapped = decide_iso_finite(
        compute_signature(PAIR_A), compute_signature(PAIR_A_SWAPPED)
    )
    if not isinstance(swapped, NotIso):
        failures.append("swapped piece kinds not recognized as non-iso")
    for size in (8, 16, 32):
        same = l1_iso_finite(theta(PAIR_A, size), theta(PAIR_B, size))
        if not same:
            failures.append(f"image structures disagree for the iso pair at n={size}")
        crossed = l1_iso_finite(theta(PAIR_A, size), theta(PAIR_A_SWAPPED, size))
        if crossed:
            failures.append(f"image structures agree for the non-iso pair at n={size}")
    _settle("A8 reduction-property", failures)


def test_a9_ladder_families():
    failures = []
    left = LadderGenerator("limit-left")
    right = LadderGenerator("limit-right")
    for depth in range(4, 17):
        for t1, t2 in ((left, right), (right, left)):
            verdict = decide_iso_lazy(t1, t2, depth)
            if not isinstance(verdict, NotIso) or not verdict.tag.startswith(
                "MinimumExistsMismatch("
            ):
                failures.append(f"depth {depth}: verdict {verdict!r}")
    _settle("A9 ladder-families", failures)


def test_a10_dense_gap_systems_match():
    failures = []
    mt = CantorGapGenerator(parse_system("cantor:middle-third"))
    svc = CantorGapGenerator(parse_system("cantor:svc"))
    verdict = decide_iso_lazy(mt, svc, 8)
    if not isinstance(verdict, Iso):
        failures.append(f"verdict {verdict!r}")
    else:
        pairs = verdict.entry_map
        if len(pairs) != 8:
            failures.append(f"partial map has {len(pairs)} pairs")
        for (a1, b1), (a2, b2) in combinations(pairs, 2):
            if (a1.hi <= a2.lo) != (b1.hi <= b2.lo):
                failures.append("partial map breaks the entry order")
    _settle("A10 dense-gap-systems", failures)


def test_a11_anchored_gap_system_differs():
    failures = []
    mt = CantorGapGenerator(parse_system("cantor:middle-third"))
    anchored = CantorGapGenerator(parse_system("cantor:non-e"))
    kinds = set()
    for depth in range(2, 9):
        verdict = decide_iso_lazy(mt, anchored, depth)
        if not isinstance(verdict, NotIso):
            failures.append(f"depth {depth}: verdict {verdict!r}")
        else:
            kinds.add(verdict.tag.partition("(")[0])
    if len(kinds) > 1:
        failures.append(f"witness kind unstable across depths: {sorted(kinds)}")
    if kinds - {"MinimumExistsMismatch", "MaximumExistsMismatch", "SuccessorPairPresent"}:
        failures.append(f"not an endpoint or successor witness: {sorted(kinds)}")
    _settle("A11 anchored-gap-system", failures)


def test_a12_spot_values():
    failures = []

    # interval 1 for the usual order and its reverse, straight from the
    # two-interval recurrence
    x1, y1 = F(2, 3), F(1)
    omega_i1 = ((x1 + y1 - F(1, 9)) / 2, (x1 + y1 + F(1, 9)) / 2)
    if omega_i1 != (F(7, 9), F(8, 9)):
        failures.append("recomputed interval 1 (ascending) moved")
    if build_intervals(parse_order("omega"), 2)[1] != omega_i1:
        failures.append("ascending interval 1 mismatch")
    x1s, y1s = F(0), F(1, 3)
    star_i1 = ((x1s + y1s - F(1, 9)) / 2, (x1s + y1s + F(1, 9)) / 2)
    if star_i1 != (F(1, 9), F(2, 9)):
        failures.append("recomputed interval 1 (descending) moved")
    if build_intervals(parse_order("omega_star"), 2)[1] != star_i1:
        failures.append("descending interval 1 mismatch")

    # center values on a product piece and on the full Lukasiewicz piece
    direct = F(1, 3) + (F(1, 2) - F(1, 3)) ** 2 / (F(2, 3) - F(1, 3))
    if direct != F(5, 12):
        failures.append("recomputed product center moved")
    if tn((F(1, 3), F(2, 3), "P")).eval(F(1, 2), F(1, 2)) != F(5, 12):
        failures.append("product center mismatch")
    if tn((0, 1, "L")).eval(F(1, 2), F(1, 2)) != 0:
        failures.append("lukasiewicz center mismatch")

    # index structure of the single upper product piece, against a
    # from-scratch enumeration of the first six rationals
    brute = [F(0), F(1)]
    den = 2
    while len(brute) < 6:
        brute.extend(F(num, den) for num in range(1, den) if gcd(num, den) == 1)
        den += 1
    brute = brute[:6]
    rm = min(i for i, q in enumerate(brute) if 0 <= q <= F(1, 2))
    rp = min(i for i, q in enumerate(brute) if F(1, 2) < q < 1)
    s_rp, s_rl, s_rm, s_less = relations(theta(tn((F(1, 2), 1, "P")), 6))
    if (s_rm, s_rp, s_rl) != (frozenset({rm}), frozenset({rp}), frozenset()):
        failures.append("index structure of the upper piece mismatch")
    if (rm, rp) != (0, 4) or s_less != frozenset({(0, 4)}):
        failures.append("frozen indices of the upper piece moved")
    _settle("A12 spot-values", failures)


def test_a13_nilpotency_closed_form():
    failures = []
    rng = random.Random(98121)
    for round_no in range(20):
        den = rng.randint(5, 24)
        a, b = sorted(rng.sample(range(den + 1), 2))
        piece = Piece(F(a, den), F(b, den), Label.L)
        t = rng.randint(1, 9)
        u = rng.randint(t + 1, 10)
        q = piece.lo + (piece.hi - piece.lo) * F(t, u)
        closed = piece.nilpotency_index(q)
        value, iterated = q, 1
        while value != piece.lo:
            value = max(piece.lo, value + q - piece.hi)
            iterated += 1
        if closed != iterated:
            failures.append(
                f"round {round_no}: closed form {closed}, iteration {iterated}"
            )
    _settle("A13 nilpotency-closed-form", failures)
