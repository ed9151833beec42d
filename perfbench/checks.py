"""Output checkers, one factory per kind of operation.

Each factory takes what the reference computations in `oracles` say the
answer must be and returns a function of the operation's standard
output that raises `Wrong` on the first discrepancy.  No checker
compares against saved copies of earlier output.
"""

from __future__ import annotations

import re
from fractions import Fraction

import oracles

F = Fraction


class Wrong(Exception):
    """An operation's output contradicts the reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Wrong(message)


def problem(check, out: str) -> str | None:
    """Why `out` is wrong, or None when the checker accepts it."""
    try:
        check(out)
    except Wrong as exc:
        return str(exc)
    except (ValueError, IndexError, KeyError, ZeroDivisionError) as exc:
        return f"unreadable output: {exc!r}"
    return None


def _lines(out: str) -> list[str]:
    return out.splitlines()


# --------------------------------------------------------------- parsers

def _l1_block(lines: list[str]) -> tuple[int, bool, dict, set]:
    """One printed `l1 v1` structure as (size, qualified, relations, less)."""
    header = re.fullmatch(r"l1 v1 n=(\d+) qualified=(true|false)", lines[0] if lines else "")
    expect(header is not None, f"bad structure header {lines[:1]}")
    names = [line.partition(":")[0] for line in lines[1:4]]
    expect(names == ["rp", "rl", "rm"], f"want rp, rl, rm lines, got {names}")
    relations = {name: {int(t) for t in line.partition(":")[2].split()}
                 for name, line in zip(names, lines[1:4])}
    less = set()
    for line in lines[4:]:
        m = re.fullmatch(r"less: (\d+) (\d+)", line)
        expect(m is not None, f"bad less line {line!r}")
        less.add((int(m[1]), int(m[2])))
    expect(len(less) == len(lines) - 4, "repeated less line")
    return int(header[1]), header[2] == "true", relations, less


def _signature(out: str, complete: str, depth: str) -> list[tuple[F, F, str]]:
    lines = _lines(out)
    expect(lines[:1] == [f"signature v1 complete={complete} depth={depth}"],
           f"bad signature header {lines[:1]}")
    entries = []
    for line in lines[1:]:
        label, lo, hi = line.split()
        expect(label in "PLM" and len(label) == 1, f"bad label in {line!r}")
        entries.append((F(lo), F(hi), label))
    for (_, hi, _), (lo, _, _) in zip(entries, entries[1:]):
        expect(hi <= lo, f"entries overlap or are out of order at {lo}")
    return entries


_ENTRY_PAIR = re.compile(
    r"  \((\S+), (\S+)\) ([PLM]) ~ \((\S+), (\S+)\) ([PLM])")
_MAP_LINE = re.compile(r"  \[(\S+), (\S+)\] -> \[(\S+), (\S+)\]")


def _iso(out: str):
    """(entry pairs, map segments) of an ISO verdict."""
    lines = _lines(out)
    expect(lines[:1] == ["ISO"], f"verdict is {lines[:1]}, want ISO")
    pairs, segments = [], []
    for line in lines[1:]:
        m = _ENTRY_PAIR.fullmatch(line)
        if m and not segments:
            pairs.append(((F(m[1]), F(m[2]), m[3]), (F(m[4]), F(m[5]), m[6])))
            continue
        m = _MAP_LINE.fullmatch(line)
        expect(m is not None, f"bad ISO line {line!r}")
        segments.append(tuple(F(v) for v in m.groups()))
    return pairs, segments


# -------------------------------------------------------------- checkers

def axioms(grid_points: int = 21):
    """A clean audit: every check counted, none violated."""
    n = grid_points
    checked = n + n * n + n ** 3 + (n * (n + 1) // 2) ** 2

    def check(out):
        expect(_lines(out) == [f"axioms checked={checked} violations=0"],
               f"audit output {_lines(out)[:2]}, want checked={checked} violations=0")
    return check


def surface(pieces, grid: int):
    """Every cell equals the reference evaluator's value."""
    points = [F(i, grid - 1) for i in range(grid)]

    def check(out):
        rows = [line.split(",") for line in _lines(out)]
        expect(len(rows) == grid + 1, f"{len(rows)} rows, want {grid + 1}")
        expect(rows[0] == [""] + [str(p) for p in points], "bad header row")
        for x, row in zip(points, rows[1:]):
            expect(row[0] == str(x) and len(row) == grid + 1, f"bad row label {row[0]!r}")
            for y, cell in zip(points, row[1:]):
                want = oracles.evaluate(pieces, x, y)
                expect(F(cell) == want, f"{x} * {y} = {cell}, want {want}")
    return check


def finite_iso(pieces_a, pieces_b, grid: int = 24):
    """ISO, entries paired in order, and the map is a homomorphism on a grid."""
    sig_a, sig_b = oracles.signature(pieces_a), oracles.signature(pieces_b)
    points = [F(i, grid) for i in range(grid + 1)]

    def check(out):
        pairs, segments = _iso(out)
        expect(pairs == list(zip(sig_a, sig_b)), "entry pairs differ from the signatures")
        expect(len(segments) == len(pairs), "one map segment per entry pair wanted")
        expect(segments[0][0] == 0 and segments[-1][1] == 1, "map does not span [0, 1]")
        for s, t in zip(segments, segments[1:]):
            expect(s[1] == t[0] and s[3] == t[2], "map segments do not tile")
        for s in segments:
            expect(s[0] < s[1] and s[2] < s[3], "map segment not increasing")

        def f(x):
            for lo, hi, dlo, dhi in segments:
                if lo <= x <= hi:
                    return dlo + (x - lo) * (dhi - dlo) / (hi - lo)
            raise Wrong(f"map undefined at {x}")

        for x in points:
            for y in points:
                left = f(oracles.evaluate(pieces_a, x, y))
                right = oracles.evaluate(pieces_b, f(x), f(y))
                expect(left == right, f"f({x} * {y}) = {left} but f({x}) * f({y}) = {right}")
    return check


def finite_not_iso(position: int):
    def check(out):
        lines = _lines(out)
        expect(lines[:1] == [f"NOT_ISO FiniteLabelSequenceMismatch({position})"],
               f"verdict {lines[:1]}, want a label mismatch at {position}")
        expect(len(lines) == 2 and re.findall(r"\d+", lines[1]) == [str(position)],
               f"detail {lines[1:]} does not name position {position}")
    return check


def not_iso(valid_tag=None):
    """A NOT_ISO verdict; `valid_tag(tag, detail)` vets its certificate when given."""
    def check(out):
        lines = _lines(out)
        expect(len(lines) == 2 and lines[0].startswith("NOT_ISO "), f"verdict {lines[:1]}, want NOT_ISO")
        tag = lines[0][len("NOT_ISO "):]
        expect(valid_tag is None or valid_tag(tag, lines[1]), f"certificate {tag!r} does not hold")
    return check


def least_entry_mismatch(label: str):
    """The side with a least entry has one labelled `label`."""
    return lambda tag, detail: tag == f"MinimumExistsMismatch({label})" and f"labeled {label};" in detail


def successor_pair(pieces, gaps):
    """Two entries sharing an endpoint: a piece and a certified gap, in either order."""
    labelled = {(lo, hi): "P" for lo, hi in pieces} | {(lo, hi): "M" for lo, hi in gaps}

    def valid(tag, detail):
        m = re.fullmatch(r"SuccessorPairPresent\(\((\S+), (\S+)\), \((\S+), (\S+)\)\)", tag)
        if m is None:
            return False
        a, b = (F(m[1]), F(m[2])), (F(m[3]), F(m[4]))
        labels = {labelled.get(a), labelled.get(b)}
        said = f"({m[1]}, {m[2]}) {labelled.get(a)} then ({m[3]}, {m[4]}) {labelled.get(b)};"
        return a[1] == b[0] and labels == {"P", "M"} and said in detail
    return valid


def lazy_iso(left_pieces, right_pieces, rounds: int):
    """ISO whose pairs are genuine pieces on both sides, matched in order."""
    left, right = set(left_pieces), set(right_pieces)

    def check(out):
        pairs, segments = _iso(out)
        expect(not segments and len(pairs) == rounds, f"{len(pairs)} pairs, want {rounds}")
        for (alo, ahi, alabel), (blo, bhi, blabel) in pairs:
            expect(alabel == blabel == "P", "lazy pieces are all P")
            expect((alo, ahi) in left and (blo, bhi) in right, f"({alo}, {ahi}) not a piece")
        ordered = sorted(pairs)
        expect(all(a[1][1] <= b[1][0] for a, b in zip(ordered, ordered[1:])),
               "entry pairs do not preserve order")
    return check


def l1(size: int, entries, qualified: bool = False):
    """The printed structure equals the reference index structure."""
    relations, less = oracles.l1_image(entries, size)
    want = (size, qualified, {"rp": relations["P"], "rl": relations["L"], "rm": relations["M"]}, less)

    def check(out):
        expect(_l1_block(_lines(out)) == want, "index structure differs from the reference")
    return check


def probe(size: int, entries):
    """theta_by_probing and theta both print the reference structure."""
    single = l1(size, entries)

    def check(out):
        lines = _lines(out)
        expect(lines[:1] == ["probing"] and lines.count("theta") == 1, "want probing and theta blocks")
        split = lines.index("theta")
        single("\n".join(lines[1:split]))
        single("\n".join(lines[split + 1:]))
    return check


def lazy_theta(order, depth: int, size: int):
    intervals = oracles.order_intervals(order, depth)
    entries = [(lo, hi, False, "P") for lo, hi in intervals]
    entries += [(lo, hi, True, "M") for lo, hi in oracles.certified_gaps(order, intervals)]
    covered = sorted(entries)
    regions, cursor = [], oracles.ZERO
    for lo, hi, _, _ in covered:
        if lo > cursor:
            regions.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < 1:
        regions.append((cursor, oracles.ONE))
    qualified = any(oracles.least_entry(lo, hi, True)[0] < size for lo, hi in regions)
    return l1(size, entries, qualified)


def roundtrip(order, count: int):
    intervals = oracles.order_intervals(order, count)
    size = 1 + max(oracles.least_entry(lo, hi, False)[0] for lo, hi in intervals)
    ranking = " ".join(str(n) for n in order.sorted(count))

    def check(out):
        want = [f"pieces {count} size {size}", f"recovered {ranking}", f"expected {ranking}", "PASS"]
        expect(_lines(out) == want, f"roundtrip printed {_lines(out)}, want {want}")
    return check


def from_lo(order, count: int):
    """Widths 3^-(n+1), disjoint, b_m < a_n exactly when m is below n."""
    intervals = oracles.order_intervals(order, count)

    def check(out):
        got = []
        for line in _lines(out):
            m = re.fullmatch(r"\((\S+), (\S+)\)", line)
            expect(m is not None, f"bad interval line {line!r}")
            got.append((F(m[1]), F(m[2])))
        expect(len(got) == count, f"{len(got)} intervals, want {count}")
        for n, (a, b) in enumerate(got):
            expect(b - a == F(1, 3 ** (n + 1)), f"interval {n} has width {b - a}")
            for m, (c, d) in enumerate(got[:n]):
                expect(d < a or b < c, f"intervals {m} and {n} meet")
                expect((d < a) == order.below(m, n), f"intervals {m}, {n} misordered")
        expect(got == intervals, "intervals differ from the recurrence")
    return check


def lazy_signature(order, depth: int):
    """P entries are the recurrence's intervals in the order's order; M the certified gaps."""
    intervals = oracles.order_intervals(order, depth)
    gaps = sorted(oracles.certified_gaps(order, intervals))
    ranked = [intervals[n] for n in order.sorted(depth)]

    def check(out):
        entries = _signature(out, "false", str(depth))
        expect([(lo, hi) for lo, hi, label in entries if label == "P"] == ranked,
               "P entries are not the order's intervals left to right")
        expect([(lo, hi) for lo, hi, label in entries if label == "M"] == gaps,
               "M entries are not the certified gaps")
        expect(len(entries) == len(ranked) + len(gaps), "unexpected L entries")
    return check


def cantor_signature(system: str, depth: int):
    want = sorted(oracles.cantor_first_gaps(system, depth))

    def check(out):
        entries = _signature(out, "false", str(depth))
        expect(all(label == "P" for _, _, label in entries), "gap pieces are all P")
        expect([(lo, hi) for lo, hi, _ in entries] == want, "entries differ from the first gaps")
    return check


def lazy_eval(pieces, x: F, y: F, bound: F):
    want = f"value {oracles.evaluate(pieces, x, y)} error_bound {bound}"

    def check(out):
        expect(_lines(out) == [want], f"eval printed {_lines(out)}, want {want!r}")
    return check


def locate(answers: dict[str, str]):
    """Each query's placement, in query order: `piece n lo hi` or `idempotent`."""
    want = [f"{q} {placed}" for q, placed in answers.items()]

    def check(out):
        expect(_lines(out) == want, "placements differ from the reference")
    return check


def cantor(system: str, depth: int, facts: dict[str, str]):
    """The closed-form gap count and gap list, then the known order facts."""
    gaps = sorted(oracles.cantor_gaps(system, depth))
    per_node = 2 if system == "non-e" else 1
    want = [f"gaps depth={depth} count={per_node * (2 ** depth - 1)}"]
    want += [f"( {lo} , {hi} )" for lo, hi in gaps]
    want += [f"{name} {value}" for name, value in facts.items()]

    def check(out):
        got = _lines(out)
        expect(got[:1] == want[:1], f"header {got[:1]}, want {want[0]}")
        expect(got == want, "gap list or order facts differ from the closed form")
    return check
