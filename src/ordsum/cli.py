"""Command-line surface.

Wires the library together behind one executable: evaluate a t-norm
from a presentation file, audit the axioms, dump signatures and index
structures, decide isomorphism, build interval systems for linear
orders, analyze Cantor-style gap systems, and export evaluation grids.

All output is plain text with rationals in lowest terms; identical
inputs produce byte-identical outputs.  Exit codes: 0 success or a
decided verdict, 1 failed check (axiom violations, roundtrip FAIL),
2 unreadable input or a usage error, 3 precondition violation,
4 undecided outcome, 5 a failed write to stdout.

A command returns its exit code and its output as newline-terminated
texts; `main` alone writes them to stdout, so a failed command writes
none there, and a reader that closes stdout ends the command quietly.
"""

from __future__ import annotations

import os
import sys
from fractions import Fraction
from itertools import chain, islice
from math import gcd

# Every command loads `tnorm`: `main` maps `PreconditionError` to exit 3.
# Each command imports any other module it runs inside its function,
# `presentations` too, so a command loads only what it uses.
from .tnorm import (
    MAX_LAZY_PIECES,
    PieceGenerator,
    PreconditionError,
    UnknownAtDepth,
    check_axioms,
    parse_natural,
    parse_rational,
)

GRID_21 = tuple(Fraction(i, 20) for i in range(21))
LAZY_TRUNCATION = 12
# a surface prints grid^2 cells; at 1000 the worst case, one Product piece
# over [0, 1], runs the integer piece formula on every cell in 0.5 s (README)
MAX_SURFACE_GRID = 1000
# a theta dump prints one `less:` line per ordered pair of chain
# entries; cantor:svc at depth 2000 prints about 2 M of them (README)
MAX_THETA_LESS_LINES = 5_000_000
# roundtrip counts the index of every piece's witness, and piece n is
# 3^-(n+1) wide in any order, so its witness's denominator can reach
# about 3^(n+1); at 20 pieces of omega the command takes about 1.1 s at
# 24 MB, and each piece more about twice as long (README)
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


def _cmd_eval(file: str, x: str, y: str, pieces: int):
    from .presentations import load_presentation

    t = load_presentation(file)
    _check_pieces("pieces", pieces, t)
    value, bound = t.eval_approx(parse_rational(x), parse_rational(y), pieces)
    # a finite presentation's bound is 0, a shipped family's never is
    return 0, [f"{value}\n" if bound == 0 else f"value {value} error_bound {bound}\n"]


def _cmd_axioms(file: str):
    from .presentations import load_presentation

    report = check_axioms(load_presentation(file).truncation(LAZY_TRUNCATION), GRID_21)
    texts = [f"axioms checked={report.checked} violations={len(report.violations)}\n"]
    for v in report.violations:
        pts = " ".join(str(p) for p in v.points)
        texts.append(f"{v.law} at {pts}: {v.left} != {v.right}\n")
    return 0 if report.ok else 1, texts


def _cmd_signature(file: str, depth: int):
    from .presentations import load_presentation
    from .signature import compute_signature, signature_lines

    t = load_presentation(file)
    _check_pieces("depth", depth, t)
    # line by line: the dump of a deep lazy signature is tens of megabytes
    return 0, signature_lines(compute_signature(t, depth))


def _cmd_iso(file_a: str, file_b: str, depth: int):
    from .iso import decide_iso_lazy, format_verdict
    from .presentations import load_presentation

    t1, t2 = load_presentation(file_a), load_presentation(file_b)
    _check_pieces("depth", depth, t1, t2)
    verdict = decide_iso_lazy(t1, t2, depth)
    return 4 if isinstance(verdict, UnknownAtDepth) else 0, format_verdict(verdict)


def _cmd_theta(file: str, size: int, depth: int):
    from .l1 import _l1_blocks, theta
    from .presentations import load_presentation

    if size > MAX_THETA_SIZE:
        raise PreconditionError(f"size {size} exceeds the limit of {MAX_THETA_SIZE}")
    # a finite presentation resolves completely and ignores the depth
    t = load_presentation(file)
    _check_pieces("depth", depth, t)
    s = theta(t, size, depth=depth)
    k = len(s.entries)
    pairs = k * (k - 1) // 2
    if pairs > MAX_THETA_LESS_LINES:
        raise PreconditionError(
            f"the dump's {pairs} less lines exceed the limit of {MAX_THETA_LESS_LINES}"
        )
    # block by block: the dump of a deep lazy structure is tens of megabytes
    return 0, _l1_blocks(s)


def _cmd_from_lo(order: str, count: int):
    from .orders import build_intervals, parse_order

    _check_pieces("count", count)
    return 0, (f"({lo}, {hi})\n" for lo, hi in build_intervals(parse_order(order), count))


def _cmd_cantor(system: str, depth: int):
    from .cantor import format_gap_order, parse_system

    # in blocks of lines: an unbuffered stdout (PYTHONUNBUFFERED) makes one
    # system call per string, and the whole dump at depth 16 is megabytes;
    # the walk runs, and a depth past the cap is refused, at the first block
    lines = format_gap_order(parse_system(system), depth)
    return 0, iter(lambda: "".join(islice(lines, 4096)), "")


def _cmd_roundtrip(order: str, count: int):
    from .l1 import order_roundtrip
    from .orders import parse_order

    if count > MAX_ROUNDTRIP_PIECES:
        raise PreconditionError(f"count {count} exceeds the limit of {MAX_ROUNDTRIP_PIECES} pieces")
    size, recovered, expected, ok = order_roundtrip(parse_order(order), count)
    lines = (f"pieces {count} size {size}", "recovered " + " ".join(map(str, recovered)),
             "expected " + " ".join(map(str, expected)), "PASS" if ok else "FAIL")
    return 0 if ok else 1, [f"{line}\n" for line in lines]


def _cmd_surface(file: str, grid: int):
    from .presentations import load_presentation

    if grid < 2:
        raise PreconditionError("grid needs at least two sample points per axis")
    if grid > MAX_SURFACE_GRID:
        raise PreconditionError(
            f"grid {grid} exceeds the limit of {MAX_SURFACE_GRID} points per axis"
        )
    t = load_presentation(file).truncation(LAZY_TRUNCATION)
    pts = [Fraction(i, grid - 1) for i in range(grid)]
    # each point's text is made once; c/den is written as str(Fraction) writes it
    texts = [str(p) for p in pts]
    text = lambda c, den: str(c // g) if (g := gcd(c, den)) == den else f"{c // g}/{den // g}"
    rows = (f"{x},{','.join(row)}\n" for x, row in zip(texts, t._rows(pts, texts, text)))
    return 0, chain(["," + ",".join(texts) + "\n"], rows)


# name: (function returning (exit code, texts), one-line help, positional
# words, defaults of the trailing optional words); a word named in
# INTEGER_WORDS is an integer
COMMANDS = {
    "eval": (_cmd_eval, "value of x * y from a presentation file; a lazy one to PIECES "
             "pieces", ("file", "x", "y", "pieces"), (LAZY_TRUNCATION,)),
    "axioms": (_cmd_axioms, "exact axiom audit on the 21-point grid", ("file",), ()),
    "signature": (_cmd_signature, "labeled interval signature dump; a lazy presentation "
                  "to DEPTH pieces", ("file", "depth"), (8,)),
    "iso": (_cmd_iso, "decide whether two presentations are isomorphic; lazy ones "
            "to DEPTH pieces", ("file_a", "file_b", "depth"), (8,)),
    "theta": (_cmd_theta, "index structure dump at truncation size SIZE; a lazy "
              "presentation to DEPTH pieces", ("file", "size", "depth"), (LAZY_TRUNCATION,)),
    "from-lo": (_cmd_from_lo, "interval system of the first COUNT elements of a linear order",
                ("order", "count"), ()),
    "cantor": (_cmd_cantor, "gap dump and order analysis of a gap system to depth DEPTH",
               ("system", "depth"), ()),
    "roundtrip": (_cmd_roundtrip, "encode COUNT elements of an order, index the image, "
                  "compare the orders", ("order", "count"), ()),
    "surface": (_cmd_surface, f"comma-separated grid of x * y at GRID evenly spaced points, "
                f"2 to {MAX_SURFACE_GRID} (lazy: 12 pieces)", ("file", "grid"), ()),
}
INTEGER_WORDS = ("pieces", "depth", "size", "count", "grid")


def _integer(word: str) -> int | None:
    """The integer word `-?[0-9]+` as an int, or None outside that grammar."""
    try:
        return parse_natural(word.removeprefix("-")) * (-1 if word.startswith("-") else 1)
    except PreconditionError:
        raise
    except ValueError:
        return None


def _parse(argv: list[str]):
    """The function of argv's command and its words, integer words converted.

    `-h` and `--help` are the only options: they print help and exit 0.
    A usage error writes the usage line and the error to stderr and exits
    2, as argparse does.  An integer word is `-?[0-9]+`, its digits read
    by `parse_natural` like a rational's and a finite order's ranks.
    """
    name, *words = argv or [""]
    if name in COMMANDS:
        run, text, names, defaults = COMMANDS[name]
        required = len(names) - len(defaults)
        shown = [w.upper() for w in names[:required]]
        optional = [f"[{w.upper()}={d}]" for w, d in zip(names[required:], defaults)]
        usage = " ".join(["usage: ordsum", name, *shown, *optional])
    else:
        usage = "usage: ordsum COMMAND WORD..."
        text = "".join(["exact ordinal-sum t-norms: evaluation, signatures, isomorphism, and "
                        "order encodings\n"] + [f"\n  {c:10} {e[1]}" for c, e in COMMANDS.items()]
                       + ["\n\nordsum COMMAND -h shows the words of one command"])
    if "-h" in argv or "--help" in argv:
        sys.stdout.write(f"{usage}\n\n{text}\n")
        raise SystemExit(0)
    if name not in COMMANDS:
        error = f"unknown command {name!r}" if name else "a command is required"
    elif len(words) < required:
        error = "missing " + " ".join(shown[len(words):])
    elif len(words) > len(names):
        error = "unexpected " + " ".join(words[len(names):])
    else:
        values = [_integer(v) if w in INTEGER_WORDS else v for w, v in zip(names, words)]
        error = next((f"{w.upper()} is not an integer: {v!r}"
                      for w, v, n in zip(names, words, values) if n is None), "")
    if error:
        sys.stderr.write(f"{usage}\nordsum: error: {error}\n")
        raise SystemExit(2)
    return run, values + list(defaults[len(words) - required:])


def main(argv=None) -> int:
    try:
        run, words = _parse(sys.argv[1:] if argv is None else argv)
        code, texts = run(*words)
        try:
            sys.stdout.writelines(texts)  # a long dump is a generator that only formats
            sys.stdout.flush()
        except BrokenPipeError:  # the reader stopped: the rest goes to the null device
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError as exc:  # any other failed write, such as a full device
            print(f"error: {exc}", file=sys.stderr)
            return 5
        return code
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, PreconditionError) else 2


if __name__ == "__main__":
    sys.exit(main())
