"""Truncated relational images of t-norms over the rational enumeration.

A t-norm's signature (its P and L pieces and its M min-regions, left to
right) turns into a finite relational structure over indices
{0..N-1}: each entry contributes its least-index rational as a witness,
and the witnesses below N, sorted by value and labeled by entry, form
a labeled chain.  The chain is the structure: `format_l1` prints the
relations rp / rl / rm and the order relation from it.  Two
independent routes compute the same structure: `theta` reads the
signature from `compute_signature`, `theta_by_probing` asks only
idempotence and product questions with bounded quantifier scans.
`order_roundtrip` runs the order -> t-norm -> index structure leg of
the reduction and reads the order back off the chain.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from fractions import Fraction
from functools import cmp_to_key

from .rationals import _IndexCounter, count_up_to, fractions_up_to, min_rational_in, rational_at
from .signature import Label, compute_signature
from .tnorm import (
    PreconditionError,
    Record,
    TNorm,
    find_idempotent_power,
    uncovered,
)

__all__ = [
    "BoundInsufficiency",
    "L1Structure",
    "SubbasisRecord",
    "theta",
    "theta_by_probing",
    "order_roundtrip",
    "subbasis_predicates",
    "l1_iso_finite",
    "format_l1",
]

class BoundInsufficiency(RuntimeError):
    """A bounded quantifier scan could not certify its answer.

    The scan's denominator limit is too small: raise it and retry.
    """


class L1Structure(Record):
    """A labeled chain over {0..size-1}; indices off the chain are inactive.

    `entries` holds the active indices in chain order, ascending by
    witness value rather than by index, each with its label: at size 8
    a P piece on [1/4, 1/2] and an L piece on [1/2, 3/4] give the chain
    (0, 3, 4, 1).  The relations rp, rl, rm and the strict linear order
    are the label groups and the chain order, so they are disjoint and
    linear by construction.
    `qualified` is set when some index below size could not be resolved
    at the configured depth; such structures must not enter isomorphism
    comparisons.  `size` may be astronomically large: nothing here
    iterates over it.
    """

    __slots__ = ("size", "entries", "qualified")

    def __init__(self, size: int, entries: tuple[tuple[int, Label], ...], qualified: bool = False):
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size, self.entries, self.qualified = size, tuple(entries), qualified
        indices = self.chain()
        if len(set(indices)) != len(indices):
            raise ValueError("an index appears twice in the chain")
        for n in indices:
            if not 0 <= n < size:
                raise ValueError(f"index {n} outside 0..{size - 1}")

    def chain(self) -> tuple[int, ...]:
        """Active indices in chain order, ascending by witness value, not by index."""
        return tuple(n for n, _ in self.entries)


def theta(
    t: TNorm, size: int, depth: int | None = None, counter: _IndexCounter | None = None
) -> L1Structure:
    """The index structure of t at truncation size, read off its signature.

    Finite presentations resolve completely.  Lazy ones read the
    signature truncated at `depth`: the pieces and certified min-regions
    visible there.  If any index below size falls in territory the depth
    does not cover, the result is marked qualified rather than guessed at.

    The index work is one batch: q_(size-1) and the index of every kept
    witness, which comes no later than q_(size-1), share one counter.  A
    caller that has counted indices of the same denominators passes its
    own `counter`, so that the two share one sieve and one memo.
    """
    if size < 1:
        raise PreconditionError("size must be >= 1")
    sig = compute_signature(t, depth)
    if counter is None:
        counter = _IndexCounter.up_to(size - 1)
    last = counter.at(size - 1)
    # the complete signature covers [0, 1] up to isolated touching points,
    # which are degenerate idempotents and stay inactive; a truncated one
    # leaves regions that deeper pieces may still claim
    qualified = not sig.complete and any(
        min_rational_in(lo, hi, closed=True, last=last) is not None
        for lo, hi in uncovered((e.lo, e.hi) for e in sig.entries)
    )
    # the entries come sorted and disjoint, and each witness lies inside
    # its entry, closed only for M, and no two M entries touch: so the
    # kept witnesses ascend, and no two tie
    kept: list[tuple[Fraction, Label]] = []
    for e in sig.entries:
        # a min region owns its endpoints, a piece only its interior
        value = min_rational_in(e.lo, e.hi, closed=e.label is Label.M, last=last)
        if value is not None:
            kept.append((value, e.label))
    indices = counter.indices([value for value, _ in kept])
    return L1Structure(size, tuple(zip(indices, (label for _, label in kept))), qualified)


def order_roundtrip(order, count: int) -> tuple[int, list[int], list[int], bool]:
    """Encode the first `count` elements of an order, index the image, read the order back.

    `order` is a `LinearOrder`.  Each element's interval holds a P
    piece, whose least-index rational is its witness; `size` is one
    more than the largest witness index, so every witness lies below
    it.  `recovered` lists the element of each P entry of `theta` at
    that size in chain order (-1 for an index that is no witness), and
    `expected` the elements in the order's order.  `ok` holds when the
    two agree and no L entry appears: `expected` lists `count` distinct
    elements, so the P entries are then exactly the witnesses.
    """
    # on use: `theta` and the probe load no order code
    from .orders import FiniteOrder, build_intervals, order_tnorm

    values = [min_rational_in(lo, hi) for lo, hi in build_intervals(order, count)]
    if order.size is not None:
        # theta's depth truncates only a lazy presentation, so a finite one
        # encodes just these `count` elements; placement never moves an
        # earlier interval, so their intervals are the ones above
        order = FiniteOrder(order.ranks[:count])
    # one batch for the round trip: theta's witnesses have the same denominators
    counter = _IndexCounter(max(q.denominator for q in values))
    witness_piece = {idx: n for n, idx in enumerate(counter.indices(values))}
    size = 1 + max(witness_piece)
    s = theta(order_tnorm(order), size, depth=count, counter=counter)
    recovered = [witness_piece.get(idx, -1) for idx, label in s.entries if label is Label.P]
    expected = sorted(range(count), key=cmp_to_key(lambda m, n: -1 if order.less(m, n) else 1))
    ok = recovered == expected and all(label is not Label.L for _, label in s.entries)
    return size, recovered, expected, ok


def theta_by_probing(t: TNorm, size: int, denominator_limit: int = 32) -> L1Structure:
    """The same structure as `theta`, computed only by probing the operation.

    Membership tests follow the characterization through idempotence of
    powers and min-behavior against earlier indices, on exact `eval`,
    which a lazy presentation refuses.  Whether some power
    is idempotent is `find_idempotent_power`'s closed form; scans over
    "every rational" run over the denominator <= denominator_limit
    prefix of the enumeration.  A size beyond that prefix is refused, so
    every index below size is itself a scan rational, and each quantifier
    reads scan positions: q_i is the scan value at position at[i], and
    "only idempotents strictly between q_i and q_n" is a difference of
    prefix counts.  The scan answers are definitive whenever every
    piece is wider than 2/denominator_limit; an acceptance that would
    rest on an unprobed region raises BoundInsufficiency instead of
    guessing.
    """
    if size < 1:
        raise PreconditionError("size must be >= 1")
    if size > count_up_to(denominator_limit):
        raise BoundInsufficiency(
            f"size {size} exceeds the denominator <= {denominator_limit} prefix"
        )
    scan = fractions_up_to(denominator_limit)
    value = [q for q, _ in scan]
    # the scan lists every index below count_up_to(denominator_limit)
    at = [0] * len(scan)
    for pos, (_, n) in enumerate(scan):
        at[n] = pos
    # an eval that returns an input itself is equal to it without a
    # Fraction comparison; the scan is sorted, so min is the lower position
    idem = [(v := t.eval(q, q)) is q or v == q for q in value]
    # bad[j]: how many scan positions below j hold a non-idempotent
    bad = [0]
    for flag in idem:
        bad.append(bad[-1] + (not flag))

    def idempotent(pos: int) -> bool:
        return 0 <= pos < len(idem) and idem[pos]

    witnesses: list[tuple[int, int, Label]] = []
    for n in range(size):
        p = at[n]
        qn = value[p]
        if not idem[p]:
            if not all((v := t.eval(value[at[i]], qn)) is (m := value[min(at[i], p)]) or v == m
                       for i in range(n)):
                continue
            # a finite locate ignores the depth, so the search answers exactly
            power = find_idempotent_power(t, qn, 1)
            witnesses.append((p, n, Label.P if power is None else Label.L))
            continue
        # a min-region companion is an idempotent scan rational with only
        # idempotents, at least one, strictly between it and q_n: the
        # nearest such lies two positions away, on one side or the other
        if not (idempotent(p - 1) and idempotent(p - 2)
                or idempotent(p + 1) and idempotent(p + 2)):
            # an idempotent immediate neighbour leaves nothing scanned
            # between the two, so a piece could hide there
            if idempotent(p - 1) or idempotent(p + 1):
                raise BoundInsufficiency(f"cannot certify a min-region companion for index {n}")
            continue
        # q_n is the region's witness unless an earlier index shares it,
        # that is, no non-idempotent scan rational separates the two
        for i in range(n):
            lo, hi = sorted((at[i], p))
            if hi - lo == 1:
                raise BoundInsufficiency(f"no scan rationals between indices {i} and {n}")
            if bad[hi] == bad[lo + 1]:
                break
        else:
            witnesses.append((p, n, Label.M))
    return L1Structure(size, tuple((n, label) for _, n, label in sorted(witnesses)))


class SubbasisRecord(Record):
    """The three pointwise predicates behind the preimage identities.

    v_qn: q_n is idempotent; u_mn: q_m * q_n = min(q_m, q_n); w_mn: q_m < q_n.
    """

    __slots__ = ("v_qn", "u_mn", "w_mn")

    def __init__(self, v_qn: bool, u_mn: bool, w_mn: bool):
        self.v_qn, self.u_mn, self.w_mn = v_qn, u_mn, w_mn


def subbasis_predicates(t: TNorm, m: int, n: int) -> SubbasisRecord:
    qm, qn = rational_at(m), rational_at(n)
    return SubbasisRecord(
        v_qn=t.eval(qn, qn) == qn,
        u_mn=t.eval(qm, qn) == min(qm, qn),
        w_mn=qm < qn,
    )


def _canonical(s: L1Structure) -> tuple[tuple[str, ...], int]:
    labels = tuple(label.value for _, label in s.entries)
    return labels, s.size - len(s.entries)


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


def _l1_blocks(s: L1Structure) -> Iterator[str]:
    """The `theta` dump, one newline-terminated block of lines at a time."""
    groups: dict[Label, list[int]] = {label: [] for label in Label}
    for n, label in s.entries:
        groups[label].append(n)
    yield f"l1 v1 n={s.size} qualified={'true' if s.qualified else 'false'}\n"
    for name, label in (("rp", Label.P), ("rl", Label.L), ("rm", Label.M)):
        member_text = " ".join(map(str, sorted(groups[label])))
        yield f"{name}: {member_text}".rstrip() + "\n"
    # one `less: m n` line per pair, by (m, n): walking the chain right
    # to left, `after` holds the indices placed after m, ascending, and
    # `after_text` their texts, so each index is written once
    text = {n: str(n) for n in s.chain()}
    after: list[int] = []
    after_text: list[str] = []
    placed_after: dict[int, tuple[str, ...]] = {}
    for m in reversed(s.chain()):
        if after:
            placed_after[m] = tuple(after_text)
        i = bisect_left(after, m)
        after.insert(i, m)
        after_text.insert(i, text[m])
    for m in sorted(placed_after):
        head = f"less: {text[m]} "
        yield head + f"\n{head}".join(placed_after[m]) + "\n"


def format_l1(s: L1Structure) -> str:
    """The whole `theta` dump as one string."""
    return "".join(_l1_blocks(s))
