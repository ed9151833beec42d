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
import re
import sys
from fractions import Fraction
from functools import cmp_to_key

# Every command loads these three modules: each reads a presentation or
# a rational, and `main` maps `PreconditionError` to exit 3.  Each
# command imports any other module it runs inside its function, so a
# command loads only what it uses.
from .presentations import load_presentation
from .rationals import parse_rational
from .tnorm import Label, PieceGenerator, PreconditionError, UnknownAtDepth, check_axioms

GRID_21 = tuple(Fraction(i, 20) for i in range(21))
LAZY_TRUNCATION = 12
# a surface prints grid^2 cells; at 1000 the worst case, one Product
# piece over [0, 1], runs the piece formula on every cell (README)
MAX_SURFACE_GRID = 1000
# a theta dump prints one `less:` line per ordered pair of chain
# entries; cantor:svc at depth 2000 prints about 2 M of them (README)
MAX_THETA_LESS_LINES = 5_000_000
# piece n of an order family is 3^-(n+1) wide, its ends over 6^(n+1); at 3200
# pieces, the fewest at which theta of cantor:svc still exceeds the line limit,
# every lazy command on a shipped family takes under a second (README)
MAX_LAZY_PIECES = 3200
# roundtrip counts the index of every piece's witness, and piece n is
# 3^-(n+1) wide in any order, so its witness's denominator can reach
# about 3^(n+1); at 20 pieces of omega the command takes about 2 s, and
# each piece more about twice as long (README)
MAX_ROUNDTRIP_PIECES = 20
# theta finds q_(size-1), whose denominator is about 1.8 sqrt(size); at
# 10^18 that takes about 1 s, and each factor 100 more about five times
# as long (README)
MAX_THETA_SIZE = 10**18


def _check_pieces(what: str, n: int, *presentations) -> None:
    """Exit 3 when n > MAX_LAZY_PIECES pieces of an order or a lazy side are asked for."""
    if n > MAX_LAZY_PIECES and (
        not presentations or any(isinstance(t, PieceGenerator) for t in presentations)
    ):
        raise PreconditionError(f"{what} {n} exceeds the limit of {MAX_LAZY_PIECES} pieces")


def _cmd_eval(args) -> int:
    t = load_presentation(args.file)
    _check_pieces("pieces", args.pieces, t)
    x, y = parse_rational(args.x), parse_rational(args.y)
    if isinstance(t, PieceGenerator):
        value, bound = t.eval_approx(x, y, args.pieces)
        print(f"value {value} error_bound {bound}")
    else:
        print(t.eval(x, y))
    return 0


def _cmd_axioms(args) -> int:
    t = load_presentation(args.file)
    if isinstance(t, PieceGenerator):
        t = t.truncation(LAZY_TRUNCATION)
    report = check_axioms(t, GRID_21)
    print(f"axioms checked={report.checked} violations={len(report.violations)}")
    for v in report.violations:
        pts = " ".join(str(p) for p in v.points)
        print(f"{v.law} at {pts}: {v.left} != {v.right}")
    return 0 if report.ok else 1


def _cmd_signature(args) -> int:
    from .signature import compute_signature, signature_lines

    t = load_presentation(args.file)
    _check_pieces("depth", args.depth, t)
    # line by line: the dump of a deep lazy signature is tens of megabytes
    sys.stdout.writelines(signature_lines(compute_signature(t, args.depth)))
    return 0


def _cmd_iso(args) -> int:
    from .iso import decide_iso_lazy, format_verdict

    t1 = load_presentation(args.file_a)
    t2 = load_presentation(args.file_b)
    _check_pieces("depth", args.depth, t1, t2)
    verdict = decide_iso_lazy(t1, t2, args.depth)
    sys.stdout.write(format_verdict(verdict))
    return 4 if isinstance(verdict, UnknownAtDepth) else 0


def _cmd_theta(args) -> int:
    from .l1 import _l1_blocks, theta

    if args.size > MAX_THETA_SIZE:
        raise PreconditionError(f"size {args.size} exceeds the limit of {MAX_THETA_SIZE}")
    # a finite presentation resolves completely and ignores the depth
    t = load_presentation(args.file)
    _check_pieces("depth", args.depth, t)
    s = theta(t, args.size, depth=args.depth)
    k = len(s.entries)
    pairs = k * (k - 1) // 2
    if pairs > MAX_THETA_LESS_LINES:
        raise PreconditionError(
            f"the dump's {pairs} less lines exceed the limit of {MAX_THETA_LESS_LINES}"
        )
    # block by block: the dump of a deep lazy structure is tens of megabytes
    for block in _l1_blocks(s):
        sys.stdout.write(block)
    return 0


def _cmd_from_lo(args) -> int:
    from .orders import build_intervals, parse_order

    _check_pieces("count", args.count)
    for lo, hi in build_intervals(parse_order(args.order), args.count):
        print(f"({lo}, {hi})")
    return 0


def _cmd_cantor(args) -> int:
    from .cantor import format_gap_order, parse_system

    sys.stdout.write(format_gap_order(parse_system(args.system), args.depth))
    return 0


def _cmd_roundtrip(args) -> int:
    from .l1 import theta
    from .orders import FiniteOrder, build_intervals, order_tnorm, parse_order
    from .rationals import _IndexCounter, min_rational_in

    count = args.count
    if count > MAX_ROUNDTRIP_PIECES:
        raise PreconditionError(f"count {count} exceeds the limit of {MAX_ROUNDTRIP_PIECES} pieces")
    order = parse_order(args.order)
    values = [min_rational_in(lo, hi) for lo, hi in build_intervals(order, count)]
    if order.size is not None:
        # theta's depth truncates only a lazy presentation, so a finite one
        # encodes just these `count` elements; placement never moves an
        # earlier interval, so their intervals are the ones above
        order = FiniteOrder(order.ranks[:count])
    t = order_tnorm(order)
    # one batch for the command: theta's witnesses have the same denominators
    counter = _IndexCounter(max(q.denominator for q in values))
    witness_piece = {idx: n for n, idx in enumerate(counter.indices(values))}
    size = 1 + max(witness_piece)
    s = theta(t, size, depth=count, counter=counter)
    rp = [idx for idx, label in s.entries if label is Label.P]
    recovered = [witness_piece.get(idx, -1) for idx in rp]
    ascending = cmp_to_key(lambda m, n: -1 if order.less(m, n) else 1)
    expected = sorted(range(count), key=ascending)
    no_l = all(label is not Label.L for _, label in s.entries)
    ok = recovered == expected and no_l and set(rp) == set(witness_piece)
    print(f"pieces {count} size {size}")
    print("recovered " + " ".join(str(n) for n in recovered))
    print("expected " + " ".join(str(n) for n in expected))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


def _cmd_surface(args) -> int:
    if args.grid < 2:
        raise PreconditionError("grid needs at least two sample points per axis")
    if args.grid > MAX_SURFACE_GRID:
        raise PreconditionError(
            f"grid {args.grid} exceeds the limit of {MAX_SURFACE_GRID} points per axis"
        )
    t = load_presentation(args.file)
    if isinstance(t, PieceGenerator):
        t = t.truncation(LAZY_TRUNCATION)
    pts = [Fraction(i, args.grid - 1) for i in range(args.grid)]
    print("," + ",".join(str(p) for p in pts))
    for x, row in zip(pts, t.rows(pts)):
        print(",".join([str(x)] + [str(v) for v in row]))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ordsum",
        description="exact ordinal-sum t-norms: evaluation, signatures, "
        "isomorphism, and order encodings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="value of x * y from a presentation file")
    # read "-1/2" as a point for parse_rational to reject, not as an option
    p._negative_number_matcher = re.compile(r"^-\d")
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

    p = sub.add_parser("surface", help="comma-separated grid of x * y at evenly spaced "
                       "points (lazy: the 12-piece truncation)")
    p.add_argument("file")
    p.add_argument("grid", type=int,
                   help=f"sample points per axis, 2 to {MAX_SURFACE_GRID}")
    p.set_defaults(run=_cmd_surface)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
