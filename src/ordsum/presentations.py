"""Reading and writing t-norm presentation files.

The format is line oriented.  The first line is the header "tnorm v1".
A finite presentation then lists one "piece <lo> <hi> <P|L>" line per
piece, while a lazy one names a single family:

    family limit-left
    family limit-right
    family theta <order-spec>
    family cantor <system-spec>

Rationals are written "p/q" with non-negative integers p and q > 0, in
any terms ("1/3", "2/6"), or as a bare integer ("0", "1");
`format_presentation` always writes lowest terms.  Signs, decimals,
exponents and anything else are rejected with PresentationError, as is
a malformed line.
"""

from __future__ import annotations

from fractions import Fraction

from .rationals import parse_rational
from .tnorm import FinitePresentation, Label, Piece, TNorm

__all__ = [
    "PresentationError",
    "parse_presentation_text",
    "load_presentation",
    "format_presentation",
]

HEADER = "tnorm v1"


class PresentationError(ValueError):
    """A presentation file failed to parse."""


def _fraction(token: str, where: str) -> Fraction:
    try:
        return parse_rational(token)
    except ValueError:
        raise PresentationError(f"{where}: bad rational {token!r}") from None


def _build_family(args: list[str], where: str) -> TNorm:
    # a family's module is imported only when a line names it, so a
    # finite file loads no family module
    if not args:
        raise PresentationError(f"{where}: family needs a name")
    name, rest = args[0], args[1:]
    if name == "theta":
        if len(rest) != 1:
            raise PresentationError(f"{where}: theta takes one order spec")
        from .orders import order_tnorm, parse_order

        try:
            return order_tnorm(parse_order(rest[0]))
        except ValueError as exc:
            raise PresentationError(f"{where}: {exc}") from None
    if name == "cantor":
        if len(rest) != 1:
            raise PresentationError(f"{where}: cantor takes one system spec")
        from .cantor import gap_tnorm, parse_system

        try:
            return gap_tnorm(parse_system(rest[0]))
        except ValueError as exc:
            raise PresentationError(f"{where}: {exc}") from None
    from .families import LADDER_NAMES, ladder_tnorm

    if name in LADDER_NAMES:
        if rest:
            raise PresentationError(f"{where}: {name} takes no arguments")
        return ladder_tnorm(name)
    raise PresentationError(f"{where}: unknown family {name!r}")


def parse_presentation_text(text: str) -> TNorm:
    rows = [
        (i + 1, line.strip())
        for i, line in enumerate(text.splitlines())
        if line.strip()
    ]
    if not rows or rows[0][1] != HEADER:
        raise PresentationError(f'first line must be "{HEADER}"')
    pieces: list[Piece] = []
    family: TNorm | None = None
    for lineno, line in rows[1:]:
        where = f"line {lineno}"
        fields = line.split()
        if fields[0] == "piece":
            if family is not None:
                raise PresentationError(f"{where}: piece after a family line")
            if len(fields) != 4 or fields[3] not in ("P", "L"):
                raise PresentationError(f"{where}: want piece <lo> <hi> <P|L>")
            lo = _fraction(fields[1], where)
            hi = _fraction(fields[2], where)
            try:
                pieces.append(Piece(lo, hi, Label(fields[3])))
            except ValueError as exc:
                raise PresentationError(f"{where}: {exc}") from None
        elif fields[0] == "family":
            if family is not None:
                raise PresentationError(f"{where}: second family line")
            if pieces:
                raise PresentationError(f"{where}: family after piece lines")
            family = _build_family(fields[1:], where)
        else:
            raise PresentationError(f"{where}: unknown directive {fields[0]!r}")
    if family is not None:
        return family
    try:
        return TNorm(FinitePresentation(tuple(pieces)))
    except ValueError as exc:
        raise PresentationError(str(exc)) from None


def load_presentation(path: str) -> TNorm:
    with open(path, encoding="utf-8") as f:
        return parse_presentation_text(f.read())


def format_presentation(t: TNorm) -> str:
    lines = [HEADER]
    if t.is_finite:
        lines.extend(f"piece {p.lo} {p.hi} {p.kind.value}" for p in t.pieces)
    else:
        lines.append(f"family {t.generator.family}")
    return "\n".join(lines) + "\n"
