"""Command-line surface.

Wires the library together behind one executable: evaluate a t-norm
from a presentation file, audit the axioms, dump signatures and index
structures, decide isomorphism, build interval systems for linear
orders, analyze Cantor-style gap systems, and export evaluation grids.

All output is plain text with rationals in lowest terms; identical
inputs produce byte-identical outputs.  Exit codes: 0 success or a
decided verdict, 1 failed check (axiom violations, roundtrip FAIL),
2 unreadable input, 3 precondition violation, 4 undecided outcome.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cmp_to_key

from .cantor import analyze_gap_order, format_gaps, parse_system
from .iso import (
    Iso,
    Unknown,
    build_iso_map,
    decide_iso_finite,
    decide_iso_lazy,
    format_verdict,
)
from .l1 import format_l1, theta
from .orders import build_intervals, order_tnorm, parse_order
from .presentations import PresentationError, load_presentation
from .rationals import min_entry_in, parse_rational
from .signature import compute_signature, format_signature
from .tnorm import LocateUnresolved, PreconditionError, check_axioms

GRID_21 = tuple(Fraction(i, 20) for i in range(21))
LAZY_TRUNCATION = 12


def _tri(value: bool | None) -> str:
    if value is None:
        return "unknown"
    return "true" if value else "false"


def _cmd_eval(args) -> int:
    t = load_presentation(args.file)
    x, y = parse_rational(args.x), parse_rational(args.y)
    if t.is_finite:
        print(t.eval(x, y))
    else:
        value, bound = t.eval_approx(x, y, args.pieces)
        print(f"value {value} error_bound {bound}")
    return 0


def _cmd_axioms(args) -> int:
    t = load_presentation(args.file)
    if not t.is_finite:
        t = t.truncation(LAZY_TRUNCATION)
    report = check_axioms(t, GRID_21)
    print(f"axioms checked={report.checked} violations={len(report.violations)}")
    for v in report.violations:
        pts = " ".join(str(p) for p in v.points)
        print(f"{v.law} at {pts}: {v.left} != {v.right}")
    return 0 if report.ok else 1


def _cmd_signature(args) -> int:
    t = load_presentation(args.file)
    sys.stdout.write(format_signature(compute_signature(t, args.depth)))
    return 0


def _cmd_iso(args) -> int:
    t1 = load_presentation(args.file_a)
    t2 = load_presentation(args.file_b)
    if t1.is_finite and t2.is_finite:
        verdict = decide_iso_finite(compute_signature(t1), compute_signature(t2))
        if isinstance(verdict, Iso):
            verdict = Iso(build_iso_map(t1, t2))
    else:
        verdict = decide_iso_lazy(t1, t2, args.depth)
    sys.stdout.write(format_verdict(verdict))
    return 4 if isinstance(verdict, Unknown) else 0


def _cmd_theta(args) -> int:
    t = load_presentation(args.file)
    if t.is_finite:
        s = theta(t, args.size)
    else:
        s = theta(t, args.size, depth=args.depth)
    sys.stdout.write(format_l1(s))
    return 0


def _cmd_from_lo(args) -> int:
    for lo, hi in build_intervals(parse_order(args.order), args.count):
        print(f"({lo}, {hi})")
    return 0


def _cmd_cantor(args) -> int:
    system = parse_system(args.system)
    facts = analyze_gap_order(system, args.depth)
    sys.stdout.write(format_gaps(facts.collection))
    print(f"property_E {_tri(system.property_e)}")
    print(f"dense {_tri(facts.dense)}")
    print(f"has_min {_tri(facts.has_min)}")
    print(f"has_max {_tri(facts.has_max)}")
    if facts.successor_witness is None:
        print("successor_witness none")
    else:
        (a, b), (c, d) = facts.successor_witness
        print(f"successor_witness ( {a} , {b} ) ( {c} , {d} )")
    return 0


def _cmd_roundtrip(args) -> int:
    order = parse_order(args.order)
    count = args.count
    t = order_tnorm(order)
    witness_piece: dict[int, int] = {}
    for n, (lo, hi) in enumerate(build_intervals(order, count)):
        idx, _value = min_entry_in(lo, hi)
        witness_piece[idx] = n
    size = 1 + max(witness_piece)
    if t.is_finite:
        s = theta(t, size)
    else:
        s = theta(t, size, depth=count)
    recovered = [witness_piece.get(idx, -1) for idx in s.chain() if idx in s.rp]
    ascending = cmp_to_key(lambda m, n: -1 if order.less(m, n) else 1)
    expected = sorted(range(count), key=ascending)
    ok = recovered == expected and not s.rl and s.rp == frozenset(witness_piece)
    print(f"pieces {count} size {size}")
    print("recovered " + " ".join(str(n) for n in recovered))
    print("expected " + " ".join(str(n) for n in expected))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_surface(args) -> int:
    t = load_presentation(args.file)
    if not t.is_finite:
        t = t.truncation(LAZY_TRUNCATION)
    if args.grid < 2:
        raise PreconditionError("grid needs at least two sample points per axis")
    pts = [Fraction(i, args.grid - 1) for i in range(args.grid)]
    print("," + ",".join(str(p) for p in pts))
    for x in pts:
        print(",".join([str(x)] + [str(t.eval(x, y)) for y in pts]))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordsum",
        description="exact ordinal-sum t-norms: evaluation, signatures, "
        "isomorphism, and order encodings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="value of x * y from a presentation file")
    p.add_argument("file")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("pieces", nargs="?", type=int, default=LAZY_TRUNCATION,
                   help="truncation size for lazy presentations (default 12)")
    p.set_defaults(run=_cmd_eval)

    p = sub.add_parser("axioms", help="exact axiom audit on the 21-point grid")
    p.add_argument("file")
    p.set_defaults(run=_cmd_axioms)

    p = sub.add_parser("signature", help="labeled interval signature dump")
    p.add_argument("file")
    p.add_argument("depth", nargs="?", type=int, default=8,
                   help="piece count for lazy presentations (default 8)")
    p.set_defaults(run=_cmd_signature)

    p = sub.add_parser("iso", help="decide whether two presentations are isomorphic")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("depth", nargs="?", type=int, default=8,
                   help="exploration depth for lazy presentations (default 8)")
    p.set_defaults(run=_cmd_iso)

    p = sub.add_parser("theta", help="index structure dump at a truncation size")
    p.add_argument("file")
    p.add_argument("size", type=int)
    p.add_argument("depth", nargs="?", type=int, default=LAZY_TRUNCATION,
                   help="piece count for lazy presentations (default 12)")
    p.set_defaults(run=_cmd_theta)

    p = sub.add_parser("from-lo", help="interval system of a linear order")
    p.add_argument("order")
    p.add_argument("count", type=int)
    p.set_defaults(run=_cmd_from_lo)

    p = sub.add_parser("cantor", help="gap dump and order analysis of a gap system")
    p.add_argument("system")
    p.add_argument("depth", type=int)
    p.set_defaults(run=_cmd_cantor)

    p = sub.add_parser("roundtrip",
                       help="encode an order, index the image, compare the orders")
    p.add_argument("order")
    p.add_argument("count", type=int)
    p.set_defaults(run=_cmd_roundtrip)

    p = sub.add_parser("surface", help="comma-separated evaluation grid")
    p.add_argument("file")
    p.add_argument("grid", type=int)
    p.set_defaults(run=_cmd_surface)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except PresentationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except LocateUnresolved as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
