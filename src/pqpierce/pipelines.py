"""Executable piercing arguments with full audit trails.

Each pipeline verifies its mathematical hypotheses on the concrete
input, then assembles a certified piercing; reports carry every check,
its witness, and the claimed bound. A report never contains piercing
points unless all hypothesis checks passed, and every point is
re-verified by exact membership in each set it serves.

The minimum-partition step stands in for the nonconstructive partition
arguments: for finite families, a subfamily is intersecting exactly
when it satisfies the (dim+1, dim+1)-property, so the exact partition
realizes the same conclusions with computable certificates.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .bounds import catalog_lookup
from .constructions import (
    CounterexampleSpec,
    counterexample_family,
    escape_witness,
    simplex_common_point,
)
from .errors import BudgetExhaustedError, MalformedInputError
from .hypergraph import transversal_number
from .piercing import (
    IntersectionOracle,
    PiercingSolution,
    _require_members_nonempty,
    _verify_solution,
    build_GF,
    has_pq_property,
    min_partition,
    piercing_to_json,
    pq_property_scan,
)
from .rational import Point, rat_str
from .sets import (
    ConvexSet,
    Family,
    _require_compact_box,
    contains_point,
    convex_hull_union,
    direction_in_recession_cone,
    is_bounded,
    lifted_projection_witness,
    some_point,
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
class PipelineReport:
    name: str
    inputs: dict
    hypothesis_checks: list[HypothesisCheck]
    piercing: Optional[PiercingSolution]
    bound_claim: Optional[tuple[str, Optional[int]]]
    conclusion: str
    exhaustive: bool = True
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        self.conclusion = sys.intern(self.conclusion)
        if self.bound_claim is not None:
            self.bound_claim = (sys.intern(self.bound_claim[0]), self.bound_claim[1])

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.hypothesis_checks)


def _jsonable(x):
    if isinstance(x, Fraction):
        return rat_str(x)
    if isinstance(x, (tuple, list)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return x


def report_to_json(r: PipelineReport) -> dict:
    return {
        "name": r.name,
        "inputs": _jsonable(r.inputs),
        "hypothesis_checks": [
            {"description": c.description, "passed": c.passed, "witness": _jsonable(c.witness)}
            for c in r.hypothesis_checks
        ],
        "piercing": None if r.piercing is None else piercing_to_json(r.piercing),
        "bound_claim": None
        if r.bound_claim is None
        else {"formula": r.bound_claim[0], "numeric": r.bound_claim[1]},
        "conclusion": r.conclusion,
        "exhaustive": r.exhaustive,
        "extras": _jsonable(r.extras),
    }


def _failed(name, inputs, checks) -> PipelineReport:
    bad = next(c.description for c in checks if not c.passed)
    return PipelineReport(name, inputs, checks, None, None, f"hypothesis failed: {bad}")


def _labels(fam: Family, indices: Iterable[int]) -> list[str]:
    return [fam.sets[i].label for i in indices]


def _pq_check(fam: Family, p: int, q: int, oracle: IntersectionOracle) -> HypothesisCheck:
    prop = has_pq_property(fam, p, q, oracle)
    return HypothesisCheck(
        f"({p},{q})-property",
        prop.holds,
        None if prop.holds else {"violating": _labels(fam, prop.violating_tuple)},
    )


def _finish(
    name: str,
    fam: Family,
    oracle: IntersectionOracle,
    inputs: dict,
    checks: list[HypothesisCheck],
    points: list[Point],
    assignment: dict[int, int],
    bound_claim: tuple[str, Optional[int]],
    within: str,
    selection: Sequence[int] = (),
    limit: int = 0,
) -> PipelineReport:
    """Shared tail of the piercing routes: report the first failed row,
    or pierce the selection (if any) exactly with at most `limit` points
    placed after the given ones, re-check every point and report."""
    if not all(c.passed for c in checks):
        return _failed(name, inputs, checks)
    if selection:
        parts, _ = min_partition(oracle, selection)
        checks.append(
            HypothesisCheck(
                f"selection pierced by at most {limit} points",
                len(parts) <= limit,
                {"used": len(parts)},
            )
        )
        if not checks[-1].passed:
            return _failed(name, inputs, checks)
        for part in parts:
            assignment.update((i, len(points)) for i in part)
            points.append(oracle.witness(part))
    sol = PiercingSolution(tuple(points), assignment, optimal=False)
    _verify_solution(fam, sol)
    return PipelineReport(
        name, inputs, checks, sol, bound_claim, f"pierced by {len(points)} points{within}"
    )


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
    _require_members_nonempty(fam)
    inputs = {"t": t, "p": p, "q": p - t, "dim": d, "size": len(fam)}
    oracle = IntersectionOracle(fam)
    checks: list[HypothesisCheck] = []

    bounded = [i for i in range(len(fam)) if is_bounded(fam.sets[i])]
    checks.append(
        HypothesisCheck(
            f"at least {t + 1} bounded members",
            len(bounded) >= t + 1,
            {"bounded": _labels(fam, bounded)},
        )
    )
    checks.append(_pq_check(fam, p, p - t, oracle))
    gf = build_GF(fam, oracle)
    beta, cover = transversal_number(gf)
    checks.append(
        HypothesisCheck(
            f"transversal of the empty-tuple hypergraph has size at most {t}",
            beta <= t,
            {"beta": beta, "transversal": _labels(fam, cover), "edges": len(gf.edges)},
        )
    )
    if not all(c.passed for c in checks):
        return _failed("s1", inputs, checks)

    rest = [i for i in range(len(fam)) if i not in set(cover)]
    points: list[Point] = []
    assignment: dict[int, int] = {}
    if rest:
        if len(rest) >= d + 1:
            holds, violating, _ = pq_property_scan(
                len(rest), d + 1, d + 1,
                lambda sub: oracle.intersecting(rest[i] for i in sub),
            )
            checks.append(
                HypothesisCheck(
                    f"remaining members satisfy the ({d + 1},{d + 1})-property",
                    holds,
                    None if holds else {"violating": _labels(fam, [rest[i] for i in violating])},
                )
            )
        helly_point = oracle.witness(rest)
        checks.append(
            HypothesisCheck(
                "remaining members share a common point",
                helly_point is not None,
                None if helly_point is None else {"point": helly_point},
            )
        )
        if not all(c.passed for c in checks):
            return _failed("s1", inputs, checks)
        points.append(helly_point)
        assignment.update((i, 0) for i in rest)
    for i in cover:
        points.append(some_point(fam.sets[i]))
        assignment[i] = len(points) - 1
    return _finish(
        "s1", fam, oracle, inputs, checks, points, assignment,
        (f"{t} + 1", t + 1), f", within the guaranteed bound {t + 1}",
    )


# ---------------------------------------------------------------------------
# free-selection and projection routes: a selection set aside, the rest
# partitioned into intersecting parts

def _part_rows(
    fam: Family,
    oracle: IntersectionOracle,
    selection: Sequence[int],
    checks: list[HypothesisCheck],
    q: Optional[int] = None,
) -> tuple[list[Point], dict[int, int]]:
    """Join the selection's hull to the oracle, partition the other
    members into intersecting parts and add a row per part: without q
    its point must also lie in the hull; with q it is the part's own
    point, and a truncated-scan row against the hull follows."""
    hull = oracle.join(convex_hull_union(fam, selection))
    rest = [i for i in range(len(fam)) if i not in set(selection)]
    parts, _ = min_partition(oracle, rest)
    points: list[Point] = []
    assignment: dict[int, int] = {}
    for j, part in enumerate(parts):
        if q is None:
            w = oracle.witness(part + [hull])
            description = f"part {j} and the joined selection have a common point"
        else:
            w = oracle.witness(part)
            description = f"part {j} has a common point"
        checks.append(
            HypothesisCheck(description, w is not None, {"part": _labels(fam, part), "point": w})
        )
        if q is not None:
            checks.append(_truncated_scan_row(oracle, part, hull, q, f"part {j}"))
        if w is not None:
            points.append(w)
            assignment.update((i, j) for i in part)
    return points, assignment


def _truncated_scan_row(
    oracle: IntersectionOracle, members: Sequence[int], box: int, q: int, label: str
) -> HypothesisCheck:
    """Among any q-1 members truncated by the member `box`, some dim of
    them intersect."""
    d = oracle.fam.dim
    description = f"{label}: truncated members satisfy the ({q - 1},{d})-property"
    if len(members) < q - 1:
        return HypothesisCheck(description, True, {"tuples": 0})
    holds, violating, checked = pq_property_scan(
        len(members), q - 1, d,
        lambda sub: oracle.intersecting([members[i] for i in sub] + [box]),
    )
    witness = {"tuples": checked}
    if not holds:
        witness["violating"] = _labels(oracle.fam, [members[i] for i in violating])
    return HypothesisCheck(description, holds, witness)


def pierce_via_free_family(
    fam: Family, b_indices: Sequence[int], p: int, q: int
) -> PipelineReport:
    """Piercing with a compact (q-d)-free selection: the remainder is
    partitioned into intersecting parts, each part shares a point with
    the hull of the selection, and the selection itself is pierced
    exactly with at most p-q+1 points."""
    d = fam.dim
    b = sorted(set(b_indices))
    fam.select(b)
    if len(b) != p - d:
        raise MalformedInputError("selection size must be p - dim")
    if q < d + 1:
        raise MalformedInputError("need q >= dim + 1")
    if p > len(fam) or p < q:
        raise MalformedInputError("need family size >= p >= q")
    _require_members_nonempty(fam)
    inputs = {"p": p, "q": q, "dim": d, "size": len(fam), "selection": _labels(fam, b)}
    oracle = IntersectionOracle(fam)
    checks: list[HypothesisCheck] = []

    m = q - d
    unbounded = [i for i in b if not is_bounded(fam.sets[i])]
    witness = {"unbounded": _labels(fam, unbounded)} if unbounded else None
    if not unbounded:
        bad = next((sub for sub in combinations(b, m + 1) if oracle.intersecting(sub)), None)
        witness = None if bad is None else {"intersecting": _labels(fam, bad)}
    checks.append(HypothesisCheck(f"selection is {m}-free", witness is None, witness))
    checks.append(_pq_check(fam, p, q, oracle))
    if not all(c.passed for c in checks):
        return _failed("s2", inputs, checks)

    points, assignment = _part_rows(fam, oracle, b, checks)
    entry = catalog_lookup("xi", (p, q, d))
    numeric = None if entry is None else entry.value + p - q + 1
    return _finish(
        "s2", fam, oracle, inputs, checks, points, assignment,
        (f"xi({p},{q},{d}) + {p - q + 1}", numeric),
        "" if numeric is None else f", within the bound {numeric}",
        selection=b, limit=p - q + 1,
    )


def pierce_via_projection(
    fam: Family, compact_indices: Sequence[int], p: int, q: int
) -> PipelineReport:
    """Piercing with p-q+1 compact members set aside: the remainder is
    partitioned into intersecting parts; each part is pierced directly
    by its joint-LP point. The box-truncation counting step is verified
    on every part, matching the projection argument this realizes."""
    d = fam.dim
    comp = sorted(set(compact_indices))
    fam.select(comp)
    if len(comp) != p - q + 1:
        raise MalformedInputError("selection size must be p - q + 1")
    if q < p - q + d + 1:
        raise MalformedInputError("need q >= p - q + dim + 1")
    if p > len(fam):
        raise MalformedInputError("p exceeds family size")
    _require_members_nonempty(fam)
    inputs = {"p": p, "q": q, "dim": d, "size": len(fam), "selection": _labels(fam, comp)}
    oracle = IntersectionOracle(fam)
    checks: list[HypothesisCheck] = []

    unbounded = [i for i in comp if not is_bounded(fam.sets[i])]
    checks.append(
        HypothesisCheck(
            "selected members are bounded",
            not unbounded,
            None if not unbounded else {"unbounded": _labels(fam, unbounded)},
        )
    )
    checks.append(_pq_check(fam, p, q, oracle))
    if not all(c.passed for c in checks):
        return _failed("main", inputs, checks)

    points, assignment = _part_rows(fam, oracle, comp, checks, q)
    inner = catalog_lookup("xi", (q - 1, d, d - 1))
    outer = catalog_lookup("xi", (p, q, d))
    numeric = None
    if inner is not None and outer is not None:
        numeric = inner.value * outer.value + p - q + 1
    return _finish(
        "main", fam, oracle, inputs, checks, points, assignment,
        (f"xi({q - 1},{d},{d - 1}) * xi({p},{q},{d}) + {p - q + 1}", numeric), "",
        selection=comp, limit=p - q + 1,
    )


# ---------------------------------------------------------------------------
# counterexample verifier

def _case_prediction(
    fam: Family, tup: tuple[int, ...], n_unbounded: int, d: int, k: int, masks: dict
) -> tuple[int, bool]:
    """Classify one tuple by the number of escaping members it contains
    and confirm the predicted intersecting subfamily, of at least
    d + 1 + k members, by direct membership certificates. Returns
    (case, confirmed). A case's point has an int key: the sorted
    escaping indices whose simplices it is common to, or the far point's
    n; masks maps it to the bitmask of the members holding the point,
    which for a far point are tried among the escaping members only."""
    a_idx = [i for i in tup if i < n_unbounded]
    i = len(a_idx)
    if i <= d:
        # padded to d alphas with the largest, 1/(a_idx[0] + 2)
        case, key, asked = 1, tuple(a_idx[:1] * (d - i) + a_idx), tup
    elif i <= d + k:
        case, key = 2, tuple(a_idx[:d])
        asked = a_idx[:d] + [j for j in tup if j >= n_unbounded]
    else:
        case, key, asked = 3, a_idx[-1] + 2, a_idx
    mask = masks.get(key)
    if mask is None:
        if case == 3:
            pt: Point = (Fraction(key),) + (Fraction(0),) * d
            members = range(n_unbounded)
        else:
            alphas = sorted(Fraction(1, j + 2) for j in key)
            pt = (Fraction(0),) + (simplex_common_point(alphas) if key else (Fraction(0),) * d)
            members = range(len(fam))
        mask = masks[key] = sum(1 << j for j in members if contains_point(fam.sets[j], pt))
    return case, all(mask >> j & 1 for j in asked)


def verify_counterexample(
    spec: CounterexampleSpec,
    k_max: int,
    candidate_point_sets: Optional[Sequence[Sequence[Sequence]]] = None,
    n_cap: int = 1000,
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
    inputs = {
        "d": d,
        "n_max": spec.n_max,
        "n_bounded": spec.n_bounded,
        "margin": rat_str(spec.bounded_margin),
        "k_max": k_max,
        "n_cap": n_cap,
    }
    oracle = IntersectionOracle(fam)
    checks: list[HypothesisCheck] = []
    case_totals: dict[str, int] = {"1": 0, "2": 0, "3": 0}
    exhaustive = True
    try:
        for k in range(0, k_max + 1):
            p, q = d + 1 + 2 * k, d + 1 + k
            if p > len(fam):
                raise MalformedInputError(
                    f"k = {k} needs tuples of size {p} but the family has {len(fam)} members"
                )
            prop = has_pq_property(fam, p, q, oracle)
            checks.append(
                HypothesisCheck(
                    f"({p},{q})-property",
                    prop.holds,
                    {"tuples": prop.checked_tuples}
                    if prop.holds
                    else {"violating": _labels(fam, prop.violating_tuple)},
                )
            )
            counts, first_bad = _classification_sweep(fam, p, d, k, n_unbounded)
            for c, v in counts.items():
                case_totals[c] += v
            checks.append(
                HypothesisCheck(
                    f"case analysis confirmed on all size-{p} tuples",
                    first_bad is None,
                    {"cases": counts}
                    if first_bad is None
                    else {"tuple": _labels(fam, first_bad)},
                )
            )
        candidates = candidate_point_sets
        if candidates is None:
            far = tuple([spec.n_max] + [0] * d)
            candidates = [[far]]
        escapes = []
        for idx, cand in enumerate(candidates):
            w = escape_witness(spec, cand, n_cap)
            escapes.append(w)
            checks.append(
                HypothesisCheck(
                    f"candidate point set {idx} escaped",
                    w is not None,
                    {"witness": w, "points": len(list(cand))}
                    if w is not None
                    else {"exhausted_at": n_cap},
                )
            )
            if w is None:
                exhaustive = False
    except BudgetExhaustedError:
        exhaustive = False
        checks.append(
            HypothesisCheck("resource budget covered the sweep", False, None)
        )
    passed = all(c.passed for c in checks)
    conclusion = (
        "all properties verified; every candidate set escapes"
        if passed and exhaustive
        else "partial verification (budget or cap exhausted)"
        if not exhaustive
        else f"failed: {next(c.description for c in checks if not c.passed)}"
    )
    return PipelineReport(
        "counterexample",
        inputs,
        checks,
        None,
        ("piercing number unbounded over the full escaping family", None),
        conclusion,
        exhaustive=exhaustive,
        extras={"cases": case_totals},
    )


def _classification_sweep(
    fam: Family, p: int, d: int, k: int, n_unbounded: int
) -> tuple[dict[str, int], Optional[tuple[int, ...]]]:
    counts = {"1": 0, "2": 0, "3": 0}
    first_bad = None
    masks: dict = {}  # points repeat heavily across the tuples of one k
    for tup in combinations(range(len(fam)), p):
        case, ok = _case_prediction(fam, tup, n_unbounded, d, k, masks)
        counts[str(case)] += 1
        if not ok and first_bad is None:
            first_bad = tup
    return counts, first_bad


# ---------------------------------------------------------------------------
# projection equivalence checker

def verify_projection_equivalence(
    fam: Family, box: ConvexSet, max_subset: int
) -> PipelineReport:
    """Boolean equality of direct and shadow intersection tests for
    every subset up to the given size, for families receding along the
    last axis truncated by a compact box."""
    d = fam.dim
    if d < 2:
        raise MalformedInputError("need ambient dimension >= 2")
    if max_subset < 1:
        raise MalformedInputError("need max_subset >= 1")
    _require_compact_box(box)
    if box.dim != d:
        raise MalformedInputError("box dimension mismatch")
    inputs = {"dim": d, "size": len(fam), "max_subset": max_subset, "box": box.label}
    checks: list[HypothesisCheck] = []
    e_last = tuple(Fraction(1 if i == d - 1 else 0) for i in range(d))
    bad = [s.label for s in fam.sets if not direction_in_recession_cone(s, e_last)]
    checks.append(
        HypothesisCheck(
            "every member recedes along the last axis",
            not bad,
            None if not bad else {"members": bad},
        )
    )
    if bad:
        return _failed("corollary52", inputs, checks)

    oracle = IntersectionOracle(fam)
    box_index = oracle.join(box)
    total = 0
    for size in range(1, min(max_subset, len(fam)) + 1):
        agree = True
        witness: object = None
        count = 0
        for sub in combinations(range(len(fam)), size):
            count += 1
            direct = oracle.intersecting(sub + (box_index,))
            shadow = lifted_projection_witness(fam.select(sub), box)[0]
            if direct != shadow:
                agree = False
                witness = {
                    "subset": _labels(fam, sub),
                    "direct": direct,
                    "shadow": shadow,
                }
                break
        total += count
        checks.append(
            HypothesisCheck(
                f"size-{size} subsets: direct and shadow tests agree",
                agree,
                witness if witness is not None else {"subsets": count},
            )
        )
    passed = all(c.passed for c in checks)
    return PipelineReport(
        "corollary52",
        inputs,
        checks,
        None,
        None,
        "projection preserves every intersection pattern"
        if passed
        else "projection equivalence failed",
        extras={"subsets_checked": total},
    )
