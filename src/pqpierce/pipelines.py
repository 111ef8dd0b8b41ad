"""Executable piercing arguments with full audit trails.

Each pipeline verifies its mathematical hypotheses on the concrete
input, then assembles a certified piercing; reports carry every check,
its witness, and the claimed bound.

Every pipeline runs through one `_Run`: it holds the run's intersection
oracle, adds the rows, places the piercing points and ends the run
with its report. A failed row ends the run with no points: the report
names the first failed row. Otherwise every point is re-verified by
exact membership in each set it serves.

The minimum-partition step stands in for the nonconstructive partition
arguments: for finite families, a subfamily is intersecting exactly
when it satisfies the (dim+1, dim+1)-property, so the exact partition
realizes the same conclusions with computable certificates.
"""
from __future__ import annotations

import sys
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations
from math import comb
from typing import Callable, Iterable, Optional, Sequence

from .bounds import catalog_lookup
from .constructions import (
    N_CAP,
    CounterexampleSpec,
    counterexample_family,
    escape_witness,
    simplex_common_point,
)
from .errors import BudgetExhaustedError, MalformedInputError
from .hypergraph import TUPLE_CAP, _tuples, transversal_number
from .lp import _int_row
from .piercing import (
    IntersectionOracle,
    PiercingSolution,
    _m_free_violation,
    _require_members_nonempty,
    _verified_solution,
    build_GF,
    min_partition,
    pq_property_scan,
)
from .rational import Point
from .sets import (
    ConvexSet,
    Family,
    _holds,
    _require_compact_box,
    convex_hull_union,
    direction_in_recession_cone,
    is_bounded,
    lifted_projection_witness,
)


@dataclass(slots=True)
class HypothesisCheck:
    description: str
    passed: bool
    witness: object = None

    def __post_init__(self):
        # a run holds many reports that repeat a few texts: share them
        self.description = sys.intern(self.description)


@dataclass(slots=True)
class BoundClaim:
    formula: str
    numeric: Optional[int]

    def __post_init__(self):
        self.formula = sys.intern(self.formula)


@dataclass(slots=True)
class PipelineReport:
    name: str
    inputs: dict
    hypothesis_checks: list[HypothesisCheck]
    piercing: Optional[PiercingSolution]
    bound_claim: Optional[BoundClaim]
    conclusion: str
    exhaustive: bool = True
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.conclusion = sys.intern(self.conclusion)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.hypothesis_checks)


# ---------------------------------------------------------------------------
# one run of a pipeline

class _Run:
    """One pipeline run on `fam`: its oracle, which a truncating box or
    a selection's hull joins, its rows in order, and the points placed
    so far with the members each serves."""

    def __init__(self, name: str, fam: Family, inputs: dict):
        self.name, self.fam, self.inputs = name, fam, inputs
        self.oracle = IntersectionOracle(fam)
        self.rows: list[HypothesisCheck] = []
        self.points: list[Point] = []
        self.assignment: dict[int, int] = {}

    def labels(self, indices: Iterable[int]) -> list[str]:
        return [self.fam.sets[i].label for i in indices]

    def add(self, description: str, passed: bool, witness: object) -> bool:
        self.rows.append(HypothesisCheck(description, passed, witness))
        return passed

    def scan(
        self, description: str, members: Sequence[int], p: int, q: int,
        query: Callable[[tuple[int, ...]], bool],
        witness: Callable[[int, Optional[list[str]]], object],
    ) -> bool:
        """Add the row of the (p,q) scan of `members`. `query` takes
        positions in `members`; witness(tuples seen, the violating
        labels or None) gives the row's witness."""
        holds, bad, checked = pq_property_scan(len(members), p, q, query)
        return self.add(
            description, holds, witness(checked, None if holds else self.labels(members[i] for i in bad))
        )

    def pierce(self, members: Iterable[int], point: Point) -> None:
        self.assignment.update((i, len(self.points)) for i in members)
        self.points.append(point)

    @property
    def failed(self) -> Optional[str]:
        """The first failed row's description; None while every row passed."""
        return next((c.description for c in self.rows if not c.passed), None)

    def report(
        self, piercing: Optional[PiercingSolution], bound_claim: Optional[BoundClaim],
        conclusion: str, **extra,
    ) -> PipelineReport:
        return PipelineReport(self.name, self.inputs, self.rows, piercing, bound_claim, conclusion, **extra)

    def stop(self) -> PipelineReport:
        """The first failed row's report: no points, no bound."""
        return self.report(None, None, f"hypothesis failed: {self.failed}")

    def end(self, bound_claim: BoundClaim) -> PipelineReport:
        """Stop at a failed row, or report the points placed, each
        re-checked in every member it serves, within the claim's numeric
        bound when it has one."""
        if self.failed:
            return self.stop()
        sol = _verified_solution(self.fam, self.points, self.assignment, False)
        within = "" if bound_claim.numeric is None else f", within the bound {bound_claim.numeric}"
        return self.report(sol, bound_claim, f"pierced by {len(self.points)} points{within}")


def _violation(checked: int, bad: Optional[list[str]]) -> Optional[dict]:
    """A piercing route's (p,q) row shows only a violation."""
    return None if bad is None else {"violating": bad}


# ---------------------------------------------------------------------------
# transversal route: (p, p-t) families with few unbounded exceptions

def pierce_via_transversal(fam: Family, t: int, p: int) -> PipelineReport:
    """Piercing through an edge transversal of the empty-(d+1)-tuple
    hypergraph: a transversal of size <= t plus one common point for
    everything else gives <= t+1 points."""
    d = fam.dim
    if t < 0:
        raise MalformedInputError("need t >= 0")
    if p > len(fam):
        raise MalformedInputError("p exceeds family size")
    if p - t < d + 1:
        raise MalformedInputError("need p - t >= dim + 1")
    points = _require_members_nonempty(fam)
    run = _Run("s1", fam, {"t": t, "p": p, "q": p - t, "dim": d, "size": len(fam)})

    bounded = [i for i in range(len(fam)) if is_bounded(fam.sets[i])]
    run.add(f"at least {t + 1} bounded members", len(bounded) >= t + 1, {"bounded": run.labels(bounded)})
    run.scan(f"({p},{p - t})-property", range(len(fam)), p, p - t, run.oracle.intersecting, _violation)
    if run.failed:
        return run.stop()
    gf = build_GF(fam, run.oracle)
    beta, cover = transversal_number(gf)
    run.add(
        f"transversal of the empty-tuple hypergraph has size at most {t}",
        beta <= t,
        {"beta": beta, "transversal": run.labels(cover), "edges": len(gf.edges)},
    )
    if run.failed:
        return run.stop()

    rest = [i for i in range(len(fam)) if i not in set(cover)]
    if rest:
        if len(rest) >= d + 1:
            run.scan(
                f"remaining members satisfy the ({d + 1},{d + 1})-property", rest, d + 1, d + 1,
                lambda sub: run.oracle.intersecting(rest[i] for i in sub), _violation,
            )
        helly_point = run.oracle.witness(rest)
        run.add(
            "remaining members share a common point",
            helly_point is not None,
            None if helly_point is None else {"point": helly_point},
        )
        run.pierce(rest, helly_point)  # a failed row ends the run at run.end
    for i in cover:
        run.pierce([i], points[i])
    return run.end(BoundClaim(f"{t} + 1", t + 1))


# ---------------------------------------------------------------------------
# free-selection and projection routes: a selection set aside, the rest
# partitioned into intersecting parts

def _hull_and_parts(run: _Run, selection: Sequence[int]) -> tuple[int, list[list[int]]]:
    """Join the selection's hull to the run's oracle, and partition the
    other members into the fewest intersecting parts."""
    hull = run.oracle.join(convex_hull_union(run.fam, selection))
    parts, _ = min_partition(run.oracle, [i for i in range(len(run.fam)) if i not in selection])
    return hull, parts


def _pierce_selection(run: _Run, selection: Sequence[int], limit: int) -> None:
    """Pierce the selection exactly, with at most `limit` points."""
    parts, _ = min_partition(run.oracle, selection)
    if run.add(f"selection pierced by at most {limit} points", len(parts) <= limit, {"used": len(parts)}):
        for part in parts:
            run.pierce(part, run.oracle.witness(part))


def pierce_via_free_family(
    fam: Family, b_indices: Sequence[int], p: int, q: int
) -> PipelineReport:
    """Piercing with a compact (q-d)-free selection: the remainder is
    partitioned into intersecting parts, each part shares a point with
    the hull of the selection, and the selection itself is pierced
    exactly with at most p-q+1 points."""
    d = fam.dim
    b = sorted(set(b_indices))
    selection = [s.label for s in fam.select(b)]
    if len(b) != p - d:
        raise MalformedInputError("selection size must be p - dim")
    if q < d + 1:
        raise MalformedInputError("need q >= dim + 1")
    if p > len(fam) or p < q:
        raise MalformedInputError("need family size >= p >= q")
    _require_members_nonempty(fam)
    run = _Run("s2", fam, {"p": p, "q": q, "dim": d, "size": len(fam), "selection": selection})

    m = q - d
    bad = _m_free_violation(run.oracle, b, m)
    run.add(f"selection is {m}-free", bad is None, None if bad is None else {bad[0]: run.labels(bad[1])})
    run.scan(f"({p},{q})-property", range(len(fam)), p, q, run.oracle.intersecting, _violation)
    if run.failed:
        return run.stop()

    hull, parts = _hull_and_parts(run, b)
    for j, part in enumerate(parts):
        w = run.oracle.witness(part + [hull])
        run.add(
            f"part {j} and the joined selection have a common point",
            w is not None,
            {"part": run.labels(part), "point": w},
        )
        run.pierce(part, w)  # a part with no point fails its row, and the run stops
    if run.failed:
        return run.stop()
    _pierce_selection(run, b, p - q + 1)
    entry = catalog_lookup("xi", (p, q, d))
    numeric = None if entry is None else entry.value + p - q + 1
    return run.end(BoundClaim(f"xi({p},{q},{d}) + {p - q + 1}", numeric))


def pierce_via_projection(
    fam: Family, compact_indices: Sequence[int], p: int, q: int
) -> PipelineReport:
    """Piercing with p-q+1 compact members set aside: the remainder is
    partitioned into intersecting parts; each part is pierced directly
    by its joint-LP point. The box-truncation counting step is verified
    on every part, matching the projection argument this realizes.

    That truncated-scan row cannot fail once the (p,q) row has passed:
    q-1 members of a part and the p-q+1 selected members make p sets,
    q of them meet, and since q >= p-q+d+1 these q include a selected
    member and at least d of the q-1, which thus meet in the selection's
    hull. The row is kept as an executed cross-check of the queries
    that join the hull to the oracle. Today's catalog gives no numeric
    bound: it knows xi(q-1, d, d-1) only for d = 2, and xi(p, q, 2)
    only for (4, 3), which fails q >= p-q+d+1."""
    d = fam.dim
    comp = sorted(set(compact_indices))
    selection = [s.label for s in fam.select(comp)]
    if len(comp) != p - q + 1:
        raise MalformedInputError("selection size must be p - q + 1")
    if q < p - q + d + 1:
        raise MalformedInputError("need q >= p - q + dim + 1")
    if p > len(fam):
        raise MalformedInputError("p exceeds family size")
    _require_members_nonempty(fam)
    run = _Run("main", fam, {"p": p, "q": q, "dim": d, "size": len(fam), "selection": selection})

    unbounded = [i for i in comp if not is_bounded(fam.sets[i])]
    run.add(
        "selected members are bounded",
        not unbounded,
        {"unbounded": run.labels(unbounded)} if unbounded else None,
    )
    run.scan(f"({p},{q})-property", range(len(fam)), p, q, run.oracle.intersecting, _violation)
    if run.failed:
        return run.stop()

    hull, parts = _hull_and_parts(run, comp)
    for j, part in enumerate(parts):
        w = run.oracle.witness(part)
        run.add(f"part {j} has a common point", w is not None, {"part": run.labels(part), "point": w})
        # among any q-1 members of the part truncated by the hull, some d intersect
        truncated = f"part {j}: truncated members satisfy the ({q - 1},{d})-property"
        if len(part) < q - 1:
            run.add(truncated, True, {"tuples": 0})
        else:
            run.scan(
                truncated, part, q - 1, d,
                lambda sub: run.oracle.intersecting([part[i] for i in sub] + [hull]),
                lambda checked, bad: {"tuples": checked}
                if bad is None
                else {"tuples": checked, "violating": bad},
            )
        run.pierce(part, w)
    if run.failed:
        return run.stop()
    _pierce_selection(run, comp, p - q + 1)
    inner = catalog_lookup("xi", (q - 1, d, d - 1))
    outer = catalog_lookup("xi", (p, q, d))
    numeric = None
    if inner is not None and outer is not None:
        numeric = inner.value * outer.value + p - q + 1
    return run.end(BoundClaim(f"xi({q - 1},{d},{d - 1}) * xi({p},{q},{d}) + {p - q + 1}", numeric))


# ---------------------------------------------------------------------------
# counterexample verifier

def verify_counterexample(
    spec: CounterexampleSpec,
    k_max: int,
    candidate_point_sets: Optional[Sequence[Sequence[Sequence]]] = None,
    n_cap: int = N_CAP,
) -> PipelineReport:
    """Exhaustively verify the escaping family's properties at desk
    scale: the (d+1+2k, d+1+k)-property for k = 0..k_max, the
    three-case classification of every tuple, and escape witnesses for
    the candidate piercing sets."""
    if k_max < 0:
        raise MalformedInputError("need k_max >= 0")
    fam = counterexample_family(spec)
    d = spec.d
    n_unbounded = spec.n_max - 1
    run = _Run("counterexample", fam, {
        "d": d,
        "n_max": spec.n_max,
        "n_bounded": spec.n_bounded,
        "margin": spec.bounded_margin,
        "k_max": k_max,
        "n_cap": n_cap,
    })
    case_totals: dict[str, int] = {"1": 0, "2": 0, "3": 0}
    missed: dict = {}  # the case points of every k, each built once
    exhaustive = True
    try:
        for k in range(0, k_max + 1):
            p, q = d + 1 + 2 * k, d + 1 + k
            if p > len(fam):
                raise MalformedInputError(
                    f"k = {k} needs tuples of size {p} but the family has {len(fam)} members"
                )
            run.scan(
                f"({p},{q})-property", range(len(fam)), p, q, run.oracle.intersecting,
                lambda checked, bad: {"tuples": checked} if bad is None else {"violating": bad},
            )
            counts, first_bad = _classification_sweep(fam, p, d, k, n_unbounded, missed)
            for c, v in counts.items():
                case_totals[c] += v
            run.add(
                f"case analysis confirmed on all size-{p} tuples",
                first_bad is None,
                {"cases": counts} if first_bad is None else {"tuple": run.labels(first_bad)},
            )
        candidates = candidate_point_sets
        if candidates is None:
            far = tuple([spec.n_max] + [0] * d)
            candidates = [[far]]
        for idx, cand in enumerate(candidates):
            w = escape_witness(spec, cand, n_cap)
            run.add(
                f"candidate point set {idx} escaped",
                w is not None,
                {"witness": w, "points": len(list(cand))}
                if w is not None
                else {"exhausted_at": n_cap},
            )
            if w is None:
                exhaustive = False
    except BudgetExhaustedError:
        exhaustive = False
        run.add("resource budget covered the sweep", False, None)
    conclusion = (
        "partial verification (budget or cap exhausted)"
        if not exhaustive
        else f"failed: {run.failed}"
        if run.failed
        else "all properties verified; every candidate set escapes"
    )
    return run.report(
        None,
        BoundClaim("piercing number unbounded over the full escaping family", None),
        conclusion,
        exhaustive=exhaustive,
        extras={"cases": case_totals},
    )


def _classification_sweep(
    fam: Family, p: int, d: int, k: int, n_unbounded: int, missed: dict
) -> tuple[dict[str, int], Optional[tuple[int, ...]]]:
    """Classify every p-tuple by the number i of escaping members it
    contains, tup[:i] as the tuple is sorted, and confirm the predicted
    intersecting subfamily, of at least d + 1 + k members, by direct
    membership certificates. Returns (tuples per case, the first
    unconfirmed tuple or None). A case's point has a key: the sorted
    escaping indices whose simplices it is common to, or the far
    point's int n. `missed`, one table for the whole run, so shared by
    every k, maps a key to the members that miss the point, which for a
    far point are sought among the escaping members only. Each point is
    built once, straight into the int row that sets._holds substitutes."""
    counts = {"1": 0, "2": 0, "3": 0}
    first_bad = None
    for tup in _tuples(len(fam), p):
        i = bisect_left(tup, n_unbounded)
        if i <= d:  # padded to d alphas with the largest, 1/(tup[0] + 2)
            case, key, asked = "1", tup[:1] * (d - i) + tup[:i] if i else (), tup
        elif i <= d + k:
            case, key, asked = "2", tup[:d], tup[:d] + tup[i:]
        else:
            case, key, asked = "3", tup[i - 1] + 2, tup[:i]
        counts[case] += 1
        out = missed.get(key)
        if out is None:
            if case == "3":
                x, members = [key] + [0] * d + [-1], range(n_unbounded)
            else:
                pt = simplex_common_point(sorted(Fraction(1, j + 2) for j in key)) if key else (0,) * d
                x, members = _int_row([0, *pt, -1]), range(len(fam))
            out = missed[key] = frozenset(j for j in members if not _holds(fam.sets[j], x))
        if first_bad is None and not out.isdisjoint(asked):
            first_bad = tup
    return counts, first_bad


# ---------------------------------------------------------------------------
# projection equivalence checker

def verify_projection_equivalence(
    fam: Family, box: ConvexSet, max_subset: int
) -> PipelineReport:
    """Boolean equality of direct and shadow intersection tests for
    every subset up to the given size, for families receding along the
    last axis truncated by a compact box. Subsets past TUPLE_CAP, all
    sizes counted, raise MalformedInputError before any LP."""
    d = fam.dim
    if d < 2:
        raise MalformedInputError("need ambient dimension >= 2")
    if max_subset < 1:
        raise MalformedInputError("need max_subset >= 1")
    _require_compact_box(box)
    if box.dim != d:
        raise MalformedInputError("box dimension mismatch")
    sizes = range(1, min(max_subset, len(fam)) + 1)
    if any(total > TUPLE_CAP for total in accumulate(comb(len(fam), size) for size in sizes)):
        raise MalformedInputError(f"subsets of up to {max_subset} of {len(fam)} pass the tuple cap {TUPLE_CAP}")
    run = _Run("corollary52", fam, {"dim": d, "size": len(fam), "max_subset": max_subset, "box": box.label})
    e_last = tuple(Fraction(1 if i == d - 1 else 0) for i in range(d))
    bad = [s.label for s in fam.sets if not direction_in_recession_cone(s, e_last)]
    if not run.add("every member recedes along the last axis", not bad, {"members": bad} if bad else None):
        return run.stop()

    box_index = run.oracle.join(box)
    total = 0
    for size in sizes:
        witness = None
        count = 0
        for sub in combinations(range(len(fam)), size):
            count += 1
            direct = run.oracle.intersecting(sub + (box_index,))
            shadow = lifted_projection_witness(fam.select(sub), box) is not None
            if direct != shadow:
                witness = {"subset": run.labels(sub), "direct": direct, "shadow": shadow}
                break
        total += count
        run.add(
            f"size-{size} subsets: direct and shadow tests agree",
            witness is None,
            witness or {"subsets": count},
        )
    return run.report(
        None,
        None,
        "projection equivalence failed" if run.failed else "projection preserves every intersection pattern",
        extras={"subsets_checked": total},
    )
