"""(p,q)-property checks and exact piercing numbers.

The piercing number equals the minimum number of parts in a partition
of the family into intersecting subfamilies: the sets served by one
piercing point always form an intersecting subfamily, and conversely
each part's joint-LP witness serves as a piercing point. Everything
here therefore reduces to one memoized intersection oracle.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from math import comb
from typing import Callable, Iterable, Optional, Sequence

from .errors import EmptySetError, MalformedInputError
from .hypergraph import Hypergraph, _tuples, hypergraph
from .lp import _int_row
from .rational import Point
from .sets import (
    ConvexSet, Family, _holds, _separating_row, contains_point, intersect_nonempty, is_bounded, is_empty, some_point,
)


class IntersectionOracle:
    """Memoized joint-intersection queries on one family.

    A key is an int bitmask over member indices. One map holds every
    known answer: a key maps to its witness point when the members
    intersect and to None when they do not. Three ways answer keys
    without an LP:

    - after each feasible LP, its witness w is substituted into every
      member's int rows (sets._holds), w as numerators over one
      denominator and each member's rows scaled once per set. The mask
      of the members holding w certifies every key inside it, with w
      as the witness;
    - an infeasible key condemns all its supersets as a false seed.
      False seeds are kept in buckets by their lowest member, and a key
      looks only in the buckets of its own members;
    - a two-member key that no mask or seed answers is tried both ways by
      sets._separating_row: a row of one member that the other, a V-rep,
      lies strictly beyond shows the pair disjoint, and the pair is
      stored as a false seed, as an LP-infeasible key is. The LP would
      have found the pair infeasible, so no mask or witness moves.

    Helly's theorem is not used: any other key is asked by LP.

    A fixed set that queries join to members (a truncating box, the
    hull of a selection) enters through `join`, which appends it to the
    family and returns its index. No stored answer, mask or false seed
    names the new index, so each stays sound.
    """

    def __init__(self, fam: Family):
        self.fam = fam
        self._answers: dict[int, Optional[Point]] = {}
        self._masks: list[tuple[int, Point]] = []
        self._false_seeds: dict[int, list[int]] = {}  # lowest member bit -> seeds

    def join(self, fixed: ConvexSet) -> int:
        """Append `fixed` as the last member, renamed if its label is
        taken, and return its index."""
        taken = set(self.fam.labels)
        label = fixed.label
        while label in taken:
            label += "'"
        self.fam = Family(self.fam.dim, self.fam.sets + (replace(fixed, label=label),))
        return len(self.fam) - 1

    def _key(self, indices: Iterable[int]) -> int:
        n = len(self.fam)
        key = 0
        for i in indices:
            if not 0 <= i < n:
                raise MalformedInputError(f"set index {i} out of range")
            key |= 1 << i
        if not key:
            raise MalformedInputError("empty index set")
        return key

    def _answer(self, key: int) -> Optional[Point]:
        if key in self._answers:
            return self._answers[key]
        for mask, w in self._masks:
            if key & mask == key:
                self._answers[key] = w
                return w
        rest = key
        while rest:  # a seed inside key has its lowest bit in key
            low = rest & -rest
            for seed in self._false_seeds.get(low, ()):
                if key & seed == seed:
                    self._answers[key] = None
                    return None
            rest ^= low
        idx = [i for i in range(key.bit_length()) if key >> i & 1]
        w = None if self._separated(idx) else intersect_nonempty(self.fam, idx)
        self._answers[key] = w
        if w is not None:
            self._masks.append((self._mask(key, w), w))
        else:
            self._false_seeds.setdefault(key & -key, []).append(key)
        return w

    def _separated(self, idx: list[int]) -> bool:
        """Is idx a pair with a row of one member that the other, a
        V-rep, lies strictly beyond (sets._separating_row)?"""
        if len(idx) != 2:
            return False
        a, b = self.fam.select(idx)
        return _separating_row(a, b) is not None or _separating_row(b, a) is not None

    def _mask(self, key: int, w: Point) -> int:
        """key plus every member that holds w."""
        x = _int_row([*w, -1])
        return key | sum(1 << i for i, s in enumerate(self.fam.sets)
                         if not key >> i & 1 and _holds(s, x))

    def intersecting(self, indices: Iterable[int]) -> bool:
        return self._answer(self._key(indices)) is not None

    def witness(self, indices: Iterable[int]) -> Optional[Point]:
        return self._answer(self._key(indices))


@dataclass(frozen=True)
class PqReport:
    p: int
    q: int
    holds: bool
    violating_tuple: Optional[tuple[int, ...]]
    checked_tuples: int


def pq_property_scan(
    n: int, p: int, q: int, query: Callable[[tuple[int, ...]], bool]
) -> tuple[bool, Optional[tuple[int, ...]], int]:
    """Core of every (p,q) check: among any p of n indices, do some q
    satisfy the query? Returns (holds, lex-first violation, tuples seen).
    Each q-subset is asked once, in the order of its first use; C(n, p)
    * C(p, q) past TUPLE_CAP raises MalformedInputError."""
    if not (1 <= q <= p):
        raise MalformedInputError("need p >= q >= 1")
    if p > n:
        raise MalformedInputError(f"p = {p} exceeds family size {n}")
    known: dict[tuple[int, ...], bool] = {}
    for checked, tup in enumerate(_tuples(n, p, comb(p, q)), 1):
        for sub in combinations(tup, q):
            hit = known.get(sub)
            if hit is None:
                hit = known[sub] = query(sub)
            if hit:
                break
        else:
            return False, tup, checked
    return True, None, checked


def has_pq_property(fam: Family, p: int, q: int) -> PqReport:
    """Exhaustive (p,q)-property verification with a memoized oracle."""
    holds, violating, checked = pq_property_scan(len(fam), p, q, IntersectionOracle(fam).intersecting)
    return PqReport(p, q, holds, violating, checked)


# ---------------------------------------------------------------------------
# partitions into intersecting parts

def _assign(oracle: IntersectionOracle, idx: Sequence[int], parts: int) -> Optional[list[list[int]]]:
    """A partition of idx into at most `parts` intersecting classes, or
    None, by depth-first search: each member tries the classes in
    creation order, a new class last."""
    classes: list[list[int]] = []
    joined: list[int] = []  # the class each placed member joined
    c = 0  # the next class to try for idx[len(joined)]
    while len(joined) < len(idx):
        if c == len(classes) < parts:
            classes.append([])  # a new class, tried last
        if c < len(classes):
            classes[c].append(idx[len(joined)])
            if oracle.intersecting(classes[c]):
                joined.append(c)
                c = 0
                continue
        elif joined:  # no class takes the member: move the one before on
            c = joined.pop()
        else:
            return None
        classes[c].pop()
        if not classes[c]:
            classes.pop()
        c += 1
    return classes


def min_partition(
    oracle: IntersectionOracle, indices: Iterable[int], limit: Optional[int] = None
) -> tuple[list[list[int]], bool]:
    """Minimum partition of the indexed members into intersecting parts,
    by iterative deepening: (parts, optimal), each part a list of family
    indices. With `limit` set and the minimum above it, the search's
    first descent with no cap on parts, a first-fit partition, is
    returned instead, marked non-optimal."""
    idx = list(indices)
    cap = len(idx) if limit is None else min(limit, len(idx))
    for parts in range(cap + 1):
        classes = _assign(oracle, idx, parts)
        if classes is not None:
            return classes, True
    classes = None if limit is None else _assign(oracle, idx, len(idx))
    if classes is None:
        raise MalformedInputError("a member is empty")
    return classes, False


@dataclass(slots=True)
class PiercingSolution:
    points: tuple[Point, ...]
    assignment: dict[int, int]
    optimal: bool


def _verified_solution(
    fam: Family, points: Iterable[Point], assignment: dict[int, int], optimal: bool
) -> PiercingSolution:
    """The solution, once each member is seen to contain its assigned point."""
    sol = PiercingSolution(tuple(points), assignment, optimal)
    for i, pi in assignment.items():
        if not contains_point(fam.sets[i], sol.points[pi]):
            raise AssertionError(
                f"{fam.sets[i].label} does not contain its assigned point"
            )
    return sol


def _require_members_nonempty(fam: Family) -> list[Point]:
    """A point of each member, by sets.some_point."""
    points = []
    for s in fam.sets:
        try:
            points.append(some_point(s))
        except EmptySetError:
            raise EmptySetError(f"cannot pierce empty set {s.label!r}") from None
    return points


def piercing_number(fam: Family, limit: Optional[int] = None) -> PiercingSolution:
    """Exact piercing number as a minimum intersecting partition.

    With `limit` set and the true number above it, falls back to a
    first-fit partition and marks the result non-optimal.
    """
    if limit is not None and limit < 1:
        raise MalformedInputError("need limit >= 1")
    _require_members_nonempty(fam)
    oracle = IntersectionOracle(fam)
    parts, optimal = min_partition(oracle, range(len(fam)), limit)
    return _verified_solution(
        fam,
        map(oracle.witness, parts),
        {i: c for c, part in enumerate(parts) for i in part},
        optimal,
    )


# ---------------------------------------------------------------------------
# derived structures

def build_GF(fam: Family, oracle: Optional[IntersectionOracle] = None) -> Hypergraph:
    """The (d+1)-uniform hypergraph, d = fam.dim, whose edges are the
    (d+1)-subsets of the family with empty intersection."""
    d = fam.dim
    oracle = oracle or IntersectionOracle(fam)
    edges = [
        tup
        for tup in _tuples(len(fam), d + 1)
        if not oracle.intersecting(tup)
    ]
    return hypergraph(len(fam), edges, arity=d + 1)


def _m_free_violation(oracle: IntersectionOracle, indices: Sequence[int], m: int) -> Optional[tuple[str, tuple]]:
    """Why the members at `indices` (sorted; each a nonempty set) are
    not m-free: ("unbounded", the unbounded members) or ("intersecting",
    the lex-first m+1 members that meet), or None when they are. The
    (m+1)-subsets are walked under TUPLE_CAP."""
    unbounded = tuple(i for i in indices if not is_bounded(oracle.fam.sets[i]))
    if unbounded:
        return "unbounded", unbounded
    for sub in _tuples(len(indices), m + 1):
        members = tuple(indices[j] for j in sub)
        if oracle.intersecting(members):
            return "intersecting", members
    return None


def is_m_free(fam: Family, indices: Iterable[int], m: int) -> bool:
    """All indexed members compact and no m+1 of them intersecting."""
    if m < 1:
        raise MalformedInputError("need m >= 1")
    idx = sorted(set(indices))
    # empty members are vacuously compact and meet no other member
    nonempty = [i for i, s in zip(idx, fam.select(idx)) if not is_empty(s)]
    return _m_free_violation(IntersectionOracle(fam), nonempty, m) is None
