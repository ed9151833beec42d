"""Reading and writing t-norm presentation files.

The format is line oriented.  The first line is the header "tnorm v1".
A finite presentation then lists one "piece <lo> <hi> <P|L>" line per
piece, while a lazy one names a single family:

    family limit-left
    family limit-right
    family theta <order-spec>
    family cantor <system-spec>

Rationals are read by `tnorm.parse_rational`, "p/q" in any terms or a
bare integer; `format_presentation` always writes lowest terms.  Any
other token is rejected with PresentationError, as is a malformed line.
A file of more than MAX_FILE_PIECES piece lines is refused with
PreconditionError before any piece is read, and a number of more than
`tnorm.MAX_DIGITS` digits when its line is read.
"""

from __future__ import annotations

from fractions import Fraction

from .tnorm import (
    FinitePresentation,
    Label,
    Piece,
    PieceGenerator,
    PreconditionError,
    TNorm,
    parse_rational,
)

__all__ = [
    "PresentationError",
    "parse_presentation_text",
    "load_presentation",
    "format_presentation",
]

HEADER = "tnorm v1"
# `iso` of a file against itself builds both signatures and prints a line
# per entry; at 20,000 alternating P/L pieces that takes about 0.9 s at
# 37 MB, and every command on such a file takes less (README)
MAX_FILE_PIECES = 20_000


class PresentationError(ValueError):
    """A presentation file failed to parse."""


def _fraction(token: str) -> Fraction:
    try:
        return parse_rational(token)
    except PreconditionError:
        raise
    except ValueError:
        raise ValueError(f"bad rational {token!r}") from None


def _build_family(args: list[str]) -> TNorm:
    # a family's module is imported only when a line names it, so a
    # finite file loads no family module
    if not args:
        raise ValueError("family needs a name")
    name, rest = args[0], args[1:]
    if name == "theta":
        if len(rest) != 1:
            raise ValueError("theta takes one order spec")
        from .orders import order_tnorm, parse_order

        return order_tnorm(parse_order(rest[0]))
    if name == "cantor":
        if len(rest) != 1:
            raise ValueError("cantor takes one system spec")
        from .cantor import CantorGapGenerator, parse_system

        return CantorGapGenerator(parse_system(rest[0]))
    from .families import LADDER_NAMES, LadderGenerator

    if name in LADDER_NAMES:
        if rest:
            raise ValueError(f"{name} takes no arguments")
        return LadderGenerator(name)
    raise ValueError(f"unknown family {name!r}")


def parse_presentation_text(text: str) -> TNorm:
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip()
    ]
    if not rows or rows[0][1] != HEADER:
        raise PresentationError(f'first line must be "{HEADER}"')
    count = sum(line.split(None, 1)[0] == "piece" for _, line in rows)
    if count > MAX_FILE_PIECES:
        raise PreconditionError(f"{count} piece lines exceed the limit of {MAX_FILE_PIECES}")
    pieces: list[Piece] = []
    family: TNorm | None = None
    for lineno, line in rows[1:]:
        fields = line.split()
        # every error of a line, the library's too, is reported at the line
        try:
            if fields[0] == "piece":
                if family is not None:
                    raise ValueError("piece after a family line")
                if len(fields) != 4 or fields[3] not in ("P", "L"):
                    raise ValueError("want piece <lo> <hi> <P|L>")
                pieces.append(Piece(_fraction(fields[1]), _fraction(fields[2]), Label(fields[3])))
            elif fields[0] == "family":
                if family is not None:
                    raise ValueError("second family line")
                if pieces:
                    raise ValueError("family after piece lines")
                family = _build_family(fields[1:])
            else:
                raise ValueError(f"unknown directive {fields[0]!r}")
        except ValueError as exc:
            # a number past the digit budget stays a PreconditionError: exit 3
            kind = PreconditionError if isinstance(exc, PreconditionError) else PresentationError
            raise kind(f"line {lineno}: {exc}") from None
    if family is not None:
        return family
    try:
        return FinitePresentation(tuple(pieces))
    except ValueError as exc:
        raise PresentationError(str(exc)) from None


def load_presentation(path: str) -> TNorm:
    with open(path, encoding="utf-8") as f:
        return parse_presentation_text(f.read())


def format_presentation(t: TNorm) -> str:
    lines = [HEADER]
    if isinstance(t, PieceGenerator):
        lines.append(f"family {t.family}")
    else:
        lines.extend(f"piece {p.lo} {p.hi} {p.label.value}" for p in t.pieces)
    return "\n".join(lines) + "\n"
