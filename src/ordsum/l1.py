"""Truncated relational images of t-norms over the rational enumeration.

A t-norm's entry list (pieces plus min-regions) turns into a finite
relational structure over indices {0..N-1}: each entry contributes its
least-index rational as a witness, witnesses below N populate rp / rl /
rm by entry label, and the order relation compares witness values.  Two
independent routes compute the same structure: `theta` reads the entry
list geometrically, `theta_by_probing` asks only idempotence and
product questions with bounded quantifier scans.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain

from .rationals import (
    count_up_to,
    fractions_up_to,
    min_rational_in,
    rational_at,
    rational_index,
)
from .signature import Label
from .tnorm import PieceKind, PreconditionError, TNorm, find_idempotent_power

__all__ = [
    "BoundInsufficiency",
    "L1Structure",
    "SubbasisRecord",
    "theta",
    "theta_by_probing",
    "subbasis_predicates",
    "l1_iso_finite",
    "format_l1",
]

_KIND_LABEL = {PieceKind.PRODUCT: Label.P, PieceKind.LUKASIEWICZ: Label.L}


class BoundInsufficiency(RuntimeError):
    """A bounded quantifier scan could not certify its answer.

    `bound` names the insufficient parameter ("denominator" or "power")
    so the caller knows which knob to raise.
    """

    def __init__(self, bound: str, message: str):
        super().__init__(message)
        self.bound = bound


@dataclass(frozen=True)
class L1Structure:
    """Relations over {0..size-1}; indices outside rp|rl|rm are inactive.

    `qualified` is set when some index below size could not be resolved
    at the configured depth; such structures must not enter isomorphism
    comparisons.  `size` may be astronomically large: nothing here
    iterates over it.
    """

    size: int
    rp: frozenset[int]
    rl: frozenset[int]
    rm: frozenset[int]
    less: frozenset[tuple[int, int]]
    qualified: bool = False

    def __post_init__(self):
        object.__setattr__(self, "rp", frozenset(self.rp))
        object.__setattr__(self, "rl", frozenset(self.rl))
        object.__setattr__(self, "rm", frozenset(self.rm))
        object.__setattr__(self, "less", frozenset(self.less))
        if self.size < 1:
            raise ValueError("size must be >= 1")
        if self.rp & self.rl or self.rp & self.rm or self.rl & self.rm:
            raise ValueError("rp, rl, rm must be pairwise disjoint")
        active = self.active
        for group in (self.rp, self.rl, self.rm):
            for n in group:
                if not 0 <= n < self.size:
                    raise ValueError(f"index {n} outside 0..{self.size - 1}")
        for m, n in self.less:
            if m not in active or n not in active:
                raise ValueError(f"less relates inactive indices ({m}, {n})")
            if m == n:
                raise ValueError(f"less is irreflexive, got ({m}, {n})")
        # a strict linear order is exactly a chain: sort by how many
        # elements each dominates and recheck every pair
        chain = self.chain()
        expected = {
            (chain[i], chain[j])
            for i in range(len(chain))
            for j in range(i + 1, len(chain))
        }
        if set(self.less) != expected:
            raise ValueError("less is not a strict linear order on the active set")

    @property
    def active(self) -> frozenset[int]:
        return self.rp | self.rl | self.rm

    def chain(self) -> tuple[int, ...]:
        """Active indices in ascending less order."""
        below = {n: 0 for n in self.active}
        for _, n in self.less:
            below[n] += 1
        return tuple(sorted(below, key=lambda n: (below[n], n)))

    def label_of(self, n: int) -> Label | None:
        if n in self.rp:
            return Label.P
        if n in self.rl:
            return Label.L
        if n in self.rm:
            return Label.M
        return None


_Entry = tuple[Fraction, Fraction, bool, Label]  # lo, hi, closed, label


def _finite_entries(t: TNorm) -> list[_Entry]:
    out: list[_Entry] = [
        (p.lo, p.hi, False, _KIND_LABEL[p.kind]) for p in t.pieces
    ]
    out.extend((lo, hi, True, Label.M) for lo, hi in t.presentation.gaps())
    out.sort(key=lambda e: e[0])
    return out


def _lazy_entries(t: TNorm, depth: int) -> list[_Entry]:
    gen = t.generator
    label = _KIND_LABEL[gen.kind]
    out: list[_Entry] = []
    for n in range(depth):
        p = gen.piece_at(n)
        out.append((p.lo, p.hi, False, label))
    out.extend((lo, hi, True, Label.M) for lo, hi in gen.certified_m_gaps(depth))
    out.sort(key=lambda e: e[0])
    return out


def _unresolved_regions(entries: list[_Entry]) -> list[tuple[Fraction, Fraction]]:
    """Positive-length parts of [0,1] not covered by any entry.

    Isolated boundary points between touching entries (and at 0 or 1
    against a touching entry) are certifiably degenerate idempotents,
    so they resolve to inactive and are not reported.
    """
    regions: list[tuple[Fraction, Fraction]] = []
    cursor = Fraction(0)
    for lo, hi, _closed, _label in entries:
        if lo > cursor:
            regions.append((cursor, lo))
        cursor = max(cursor, hi)
    if cursor < 1:
        regions.append((cursor, Fraction(1)))
    return regions


def _index_below(q: Fraction, size: int) -> int | None:
    """The enumeration index of q when it is below size, else None."""
    # index(p/d) >= d - 1, with equality only at 0/1, so a denominator
    # above size rules q out before its index is counted
    if q.denominator > size:
        return None
    idx = rational_index(q)
    return idx if idx < size else None


def theta(t: TNorm, size: int, depth: int | None = None) -> L1Structure:
    """The index structure of t at truncation size.

    Finite presentations resolve completely.  Lazy ones read the pieces
    and certified min-regions visible at `depth`; if any index below
    size falls in territory the depth does not cover, the result is
    marked qualified rather than guessed at.
    """
    if size < 1:
        raise PreconditionError("size must be >= 1")
    if t.is_finite:
        entries = _finite_entries(t)
        qualified = False
    else:
        if depth is None:
            raise PreconditionError("lazy presentations need a locate depth")
        if depth < 1:
            raise PreconditionError("depth must be >= 1")
        entries = _lazy_entries(t, depth)
        qualified = any(
            _index_below(min_rational_in(lo, hi, closed=True), size) is not None
            for lo, hi in _unresolved_regions(entries)
        )
    rp: set[int] = set()
    rl: set[int] = set()
    rm: set[int] = set()
    values: dict[int, Fraction] = {}
    for lo, hi, closed, label in entries:
        value = min_rational_in(lo, hi, closed=closed)
        idx = _index_below(value, size)
        if idx is None:
            continue
        {Label.P: rp, Label.L: rl, Label.M: rm}[label].add(idx)
        values[idx] = value
    less = frozenset(
        (m, n) for m in values for n in values if values[m] < values[n]
    )
    return L1Structure(size, frozenset(rp), frozenset(rl), frozenset(rm), less, qualified)


def theta_by_probing(
    t: TNorm,
    size: int,
    power_limit: int = 64,
    denominator_limit: int = 32,
) -> L1Structure:
    """The same structure as `theta`, computed only by probing the operation.

    Membership tests follow the characterization through idempotence of
    powers and min-behavior against earlier indices, with the unbounded
    quantifiers cut down: power exponents run to power_limit (the
    structural closed form answers beyond it), and scans over "every
    rational" run over the denominator <= denominator_limit prefix of
    the enumeration.  The scan answers are definitive whenever every
    piece is wider than 2/denominator_limit; an acceptance that would
    rest on an unprobed region raises BoundInsufficiency instead of
    guessing.
    """
    if not t.is_finite:
        raise PreconditionError("probing needs exact idempotence tests; finite only")
    if size < 1:
        raise PreconditionError("size must be >= 1")
    if size > count_up_to(denominator_limit):
        raise BoundInsufficiency(
            "denominator",
            f"size {size} exceeds the denominator <= {denominator_limit} prefix",
        )
    scan = fractions_up_to(denominator_limit)
    scan_values = [q for q, _ in scan]
    idem = [t.eval(q, q) == q for q, _ in scan]
    # prefix counts of non-idempotent scan rationals, for O(log) interval checks
    prefix = [0]
    for flag in idem:
        prefix.append(prefix[-1] + (0 if flag else 1))

    def scan_between(i: int, j: int) -> tuple[int, int]:
        """(total, non-idempotent) scan rationals at positions i..j-1."""
        return max(0, j - i), prefix[j] - prefix[i] if j > i else 0

    def scan_count(lo: Fraction, hi: Fraction) -> tuple[int, int]:
        """(total, non-idempotent) scan rationals strictly inside (lo, hi)."""
        return scan_between(bisect_right(scan_values, lo), bisect_left(scan_values, hi))

    def min_witnessed(m: Fraction, n: Fraction) -> bool:
        return t.eval(m, n) == min(m, n)

    rp: set[int] = set()
    rl: set[int] = set()
    rm: set[int] = set()
    values: dict[int, Fraction] = {}
    for n in range(size):
        qn = rational_at(n)
        values[n] = qn
        if t.eval(qn, qn) != qn:
            if not all(min_witnessed(rational_at(i), qn) for i in range(n)):
                continue
            found = None
            value = qn
            for exponent in range(2, power_limit + 1):
                value = t.eval(value, qn)
                if t.eval(value, value) == value:
                    found = exponent
                    break
            if found is not None:
                rl.add(n)
            else:
                search = find_idempotent_power(t, qn, power_limit)
                if search.outcome == "yes":
                    rl.add(n)
                else:
                    rp.add(n)
        else:
            witnessed = False
            vacuous = False
            # scan positions below `below` hold values < qn, from `above` on > qn
            below = bisect_left(scan_values, qn)
            above = bisect_right(scan_values, qn)
            for pos in chain(range(below), range(above, len(scan))):
                if not idem[pos]:
                    continue
                if pos < below:
                    total, bad = scan_between(pos + 1, below)
                else:
                    total, bad = scan_between(above, pos)
                if bad:
                    continue
                if total == 0:
                    vacuous = True
                    continue
                witnessed = True
                break
            if not witnessed:
                if vacuous:
                    raise BoundInsufficiency(
                        "denominator",
                        f"cannot certify a min-region companion for index {n}",
                    )
                continue
            settled = True
            for i in range(n):
                qi = rational_at(i)
                lo, hi = min(qi, qn), max(qi, qn)
                total, bad = scan_count(lo, hi)
                if bad:
                    continue
                if total == 0:
                    raise BoundInsufficiency(
                        "denominator",
                        f"no scan rationals between indices {i} and {n}",
                    )
                settled = False
                break
            if settled:
                rm.add(n)
    active_values = {n: values[n] for n in rp | rl | rm}
    less = frozenset(
        (m, n)
        for m in active_values
        for n in active_values
        if active_values[m] < active_values[n]
    )
    return L1Structure(size, frozenset(rp), frozenset(rl), frozenset(rm), less, False)


@dataclass(frozen=True)
class SubbasisRecord:
    """The three pointwise predicates behind the preimage identities."""

    v_qn: bool  # q_n is idempotent
    u_mn: bool  # q_m * q_n = min(q_m, q_n)
    w_mn: bool  # q_m < q_n


def subbasis_predicates(t: TNorm, m: int, n: int) -> SubbasisRecord:
    if not t.is_finite:
        raise PreconditionError("predicates read exact eval; finite only")
    qm, qn = rational_at(m), rational_at(n)
    return SubbasisRecord(
        v_qn=t.eval(qn, qn) == qn,
        u_mn=t.eval(qm, qn) == min(qm, qn),
        w_mn=qm < qn,
    )


def _canonical(s: L1Structure) -> tuple[tuple[str, ...], int]:
    labels = tuple(s.label_of(n).value for n in s.chain())
    return labels, s.size - len(s.active)


def l1_iso_finite(a: L1Structure, b: L1Structure) -> bool:
    """Do the two structures match under some index bijection?

    Active elements form a labeled chain and inactive elements are
    indistinguishable, so the canonical form (chain label sequence,
    inactive count) decides the question.
    """
    if a.size != b.size:
        raise PreconditionError(f"size mismatch: {a.size} != {b.size}")
    if a.qualified or b.qualified:
        raise PreconditionError("qualified structures cannot be compared")
    return _canonical(a) == _canonical(b)


def format_l1(s: L1Structure) -> str:
    lines = [f"l1 v1 n={s.size} qualified={'true' if s.qualified else 'false'}"]
    for name, group in (("rp", s.rp), ("rl", s.rl), ("rm", s.rm)):
        member_text = " ".join(str(n) for n in sorted(group))
        lines.append(f"{name}: {member_text}".rstrip())
    for m, n in sorted(s.less):
        lines.append(f"less: {m} {n}")
    return "\n".join(lines) + "\n"
