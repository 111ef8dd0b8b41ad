"""(p,q)-property checks and exact piercing numbers.

The piercing number equals the minimum number of parts in a partition
of the family into intersecting subfamilies: the sets served by one
piercing point always form an intersecting subfamily, and conversely
each part's joint-LP witness serves as a piercing point. Everything
here therefore reduces to one memoized intersection oracle.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import mul
from typing import Callable, Iterable, Optional, Sequence

from .errors import EmptySetError, MalformedInputError
from .hypergraph import Hypergraph, hypergraph
from .lp import _int_row
from .rational import Point, point_json
from .sets import Family, HRep, _rows, contains_point, intersect_nonempty, is_bounded, is_empty


class IntersectionOracle:
    """Memoized joint-intersection queries on one family.

    A key is an int bitmask over member indices. One map holds every
    known answer: a key maps to its witness point when the members
    intersect and to None when they do not. Two closures answer keys
    that no LP asked:

    - after each feasible LP, its witness w is substituted into every
      member with rows (an H-rep's halfspaces, a V-rep's facets), in
      ints: w as numerators over one denominator, each member's rows
      scaled once per oracle. The mask of the members holding w, with
      the LP's own key, certifies every key inside it, with w as the
      witness;
    - an LP-infeasible key condemns all its supersets.

    A V-rep without rows joins a mask only through the LP's key. Helly's
    theorem is not used: a key outside every mask is asked by LP.

    A query that joins a fixed set to members (a truncating box, the
    hull of a selection) goes to an oracle whose family has that set as
    its last member, with the last index in every key; the closures
    stay sound because joining the fixed set is monotone in the rest.
    """

    def __init__(self, fam: Family):
        self.fam = fam
        self._answers: dict[int, Optional[Point]] = {}
        self._masks: list[tuple[int, Point]] = []
        self._false_seeds: list[int] = []
        self._int_rows = [
            None if rows is None else [_int_row([*h.normal, h.offset]) for h in rows]
            for rows in map(_rows, fam.sets)
        ]

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
        for seed in self._false_seeds:
            if key & seed == seed:
                self._answers[key] = None
                return None
        ok, w = intersect_nonempty(self.fam, [i for i in range(key.bit_length()) if key >> i & 1])
        self._answers[key] = w
        if ok:
            self._masks.append((self._mask(key, w), w))
        else:
            self._false_seeds.append(key)
        return w

    def _mask(self, key: int, w: Point) -> int:
        """key plus every member with rows that holds w."""
        x = _int_row([*w, -1])  # row . x <= 0 reads normal . w <= offset
        mask = key
        for i, rows in enumerate(self._int_rows):
            if rows is not None and not key >> i & 1 \
                    and all(sum(map(mul, row, x)) <= 0 for row in rows):
                mask |= 1 << i
        return mask

    def intersecting(self, indices: Iterable[int]) -> bool:
        return self._answer(self._key(indices)) is not None

    def witness(self, indices: Iterable[int]) -> Optional[Point]:
        return self._answer(self._key(indices))

    @property
    def lp_results(self) -> int:
        return len(self._masks) + len(self._false_seeds)


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
    satisfy the query? Returns (holds, lex-first violation, tuples seen)."""
    if not (1 <= q <= p):
        raise MalformedInputError("need p >= q >= 1")
    if p > n:
        raise MalformedInputError(f"p = {p} exceeds family size {n}")
    checked = 0
    for tup in combinations(range(n), p):
        checked += 1
        if not any(query(sub) for sub in combinations(tup, q)):
            return False, tup, checked
    return True, None, checked


def has_pq_property(
    fam: Family, p: int, q: int, oracle: Optional[IntersectionOracle] = None
) -> PqReport:
    """Exhaustive (p,q)-property verification with a memoized oracle."""
    oracle = oracle or IntersectionOracle(fam)
    holds, violating, checked = pq_property_scan(
        len(fam), p, q, oracle.intersecting
    )
    return PqReport(p, q, holds, violating, checked)


def pq_report_to_json(r: PqReport) -> dict:
    return {
        "p": r.p,
        "q": r.q,
        "holds": r.holds,
        "violating_tuple": None if r.violating_tuple is None else list(r.violating_tuple),
        "checked_tuples": r.checked_tuples,
    }


# ---------------------------------------------------------------------------
# partitions into intersecting parts

def _assign(
    i: int,
    parts: int,
    compatible: Callable[[frozenset], bool],
    classes: list[frozenset],
    assignment: list[int],
) -> bool:
    if i == len(assignment):
        return True
    for c, members in enumerate(classes):
        grown = members | {i}
        if compatible(grown):
            classes[c] = grown
            assignment[i] = c
            if _assign(i + 1, parts, compatible, classes, assignment):
                return True
            classes[c] = members
    if len(classes) < parts:
        single = frozenset({i})
        if compatible(single):
            classes.append(single)
            assignment[i] = len(classes) - 1
            if _assign(i + 1, parts, compatible, classes, assignment):
                return True
            classes.pop()
    assignment[i] = -1
    return False


def partition_search(
    n: int,
    parts: int,
    compatible: Callable[[frozenset], bool],
) -> Optional[list[int]]:
    """Assign indices 0..n-1 to at most `parts` classes, each class
    passing `compatible`. First feasible assignment in lexicographic
    branch order (classes tried in creation order, new class last)."""
    assignment = [-1] * n
    if _assign(0, parts, compatible, [], assignment):
        return assignment
    return None


def min_partition(
    n: int, compatible: Callable[[frozenset], bool]
) -> list[list[int]]:
    """Minimum partition of 0..n-1 into classes passing `compatible`
    (assumed true on singletons and closed under subsets)."""
    for parts in range(1, n + 1):
        assignment = partition_search(n, parts, compatible)
        if assignment is not None:
            out: list[list[int]] = [[] for _ in range(max(assignment) + 1)]
            for i, c in enumerate(assignment):
                out[c].append(i)
            return out
    raise MalformedInputError("an index is incompatible even on its own")


@dataclass(slots=True)
class PiercingSolution:
    points: tuple[Point, ...]
    assignment: dict[int, int]
    optimal: bool


def _verify_solution(fam: Family, sol: PiercingSolution) -> None:
    for i, pi in sol.assignment.items():
        if not contains_point(fam.sets[i], sol.points[pi]):
            raise AssertionError(
                f"{fam.sets[i].label} does not contain its assigned point"
            )


def _require_members_nonempty(fam: Family) -> None:
    for s in fam.sets:
        if isinstance(s.rep, HRep) and is_empty(s):
            raise EmptySetError(f"cannot pierce empty set {s.label!r}")


def piercing_number(fam: Family, limit: Optional[int] = None) -> PiercingSolution:
    """Exact piercing number as a minimum intersecting partition.

    With `limit` set and the true number above it, falls back to a
    greedy first-fit partition and marks the result non-optimal.
    """
    if limit is not None and limit < 1:
        raise MalformedInputError("need limit >= 1")
    _require_members_nonempty(fam)
    oracle = IntersectionOracle(fam)
    n = len(fam)
    cap = n if limit is None else min(limit, n)
    for parts in range(1, cap + 1):
        assignment = partition_search(n, parts, oracle.intersecting)
        if assignment is not None:
            return _solution_from_assignment(fam, oracle, assignment, optimal=True)
    # greedy fallback: first part whose join stays intersecting
    classes: list[frozenset] = []
    assignment = [-1] * n
    for i in range(n):
        for c, members in enumerate(classes):
            if oracle.intersecting(members | {i}):
                classes[c] = members | {i}
                assignment[i] = c
                break
        else:
            classes.append(frozenset({i}))
            assignment[i] = len(classes) - 1
    return _solution_from_assignment(fam, oracle, assignment, optimal=False)


def _solution_from_assignment(
    fam: Family, oracle: IntersectionOracle, assignment: Sequence[int], optimal: bool
) -> PiercingSolution:
    part_count = max(assignment) + 1
    points = []
    for c in range(part_count):
        members = [i for i, a in enumerate(assignment) if a == c]
        w = oracle.witness(members)
        if w is None:
            raise AssertionError("partition class lost its witness")
        points.append(w)
    sol = PiercingSolution(
        tuple(points), {i: a for i, a in enumerate(assignment)}, optimal
    )
    _verify_solution(fam, sol)
    return sol


def piercing_to_json(sol: PiercingSolution) -> dict:
    return {
        "points": [point_json(p) for p in sol.points],
        "assignment": {str(i): sol.assignment[i] for i in sorted(sol.assignment)},
        "optimal": sol.optimal,
    }


# ---------------------------------------------------------------------------
# derived structures

def build_GF(fam: Family, oracle: Optional[IntersectionOracle] = None) -> Hypergraph:
    """The (d+1)-uniform hypergraph, d = fam.dim, whose edges are the
    (d+1)-subsets of the family with empty intersection."""
    d = fam.dim
    oracle = oracle or IntersectionOracle(fam)
    edges = [
        tup
        for tup in combinations(range(len(fam)), d + 1)
        if not oracle.intersecting(tup)
    ]
    return hypergraph(len(fam), edges, arity=d + 1)


def is_m_free(
    fam: Family,
    indices: Iterable[int],
    m: int,
    oracle: Optional[IntersectionOracle] = None,
) -> bool:
    """All indexed members compact and no m+1 of them intersecting."""
    if m < 1:
        raise MalformedInputError("need m >= 1")
    idx = sorted(set(indices))
    members = fam.select(idx)
    for s in members:
        if isinstance(s.rep, HRep) and is_empty(s):
            continue  # empty members are vacuously compact
        if not is_bounded(s):
            return False
    if len(idx) <= m:
        return True
    oracle = oracle or IntersectionOracle(fam)
    return not any(
        oracle.intersecting(sub) for sub in combinations(idx, m + 1)
    )


