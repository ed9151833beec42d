"""Run one benchmark operation in this fresh interpreter.

    python3 perfbench/op.py [--spans FILE] cli ARG...
    python3 perfbench/op.py [--spans FILE] probe FILE SIZE DENOMINATOR
    python3 perfbench/op.py [--spans FILE] locate FILE DEPTH Q...

`cli` runs `ordsum.cli.main(ARG...)`.  `probe` prints the index
structure of a finite presentation twice, from `theta_by_probing` and
from `theta`.  `locate` prints where a lazy presentation places each Q
at the given depth.  With --spans, every layer function is traced and
the spans are written to FILE when the process exits.  The exit code is
the command's.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def _probe(path: str, size: str, denominator: str) -> int:
    from ordsum.l1 import format_l1, theta, theta_by_probing
    from ordsum.presentations import load_presentation

    t = load_presentation(path)
    probed = theta_by_probing(t, int(size), denominator_limit=int(denominator))
    read = theta(t, int(size))
    sys.stdout.write("probing\n" + format_l1(probed) + "theta\n" + format_l1(read))
    return 0


def _locate(path: str, depth: str, *points: str) -> int:
    from ordsum.presentations import load_presentation
    from ordsum.tnorm import IDEMPOTENT, InPiece

    t = load_presentation(path)
    for text in points:
        placed = t.locate(Fraction(text), int(depth))
        if placed is IDEMPOTENT:
            print(f"{text} idempotent")
        elif isinstance(placed, InPiece):
            print(f"{text} piece {placed.index} {placed.piece.lo} {placed.piece.hi}")
        else:
            print(f"{text} unknown {placed.depth}")
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["--spans"]:
        import tracing

        tracing.install(argv[1])
        argv = argv[2:]
    kind, args = argv[0], argv[1:]
    if kind == "cli":
        import ordsum.cli

        return ordsum.cli.main(args)
    if kind == "probe":
        return _probe(*args)
    if kind == "locate":
        return _locate(*args)
    raise SystemExit(f"unknown operation kind {kind!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
