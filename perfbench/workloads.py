"""The four seeded workloads of the pqpierce benchmark.

Each workload draws a fixed base list of instances, and the seed varies
them without changing the work they ask for: pierce-2d moves every
family by an exact isometry (a signed permutation of the coordinates and
an integer translation), s1-hrep by a signed permutation, shadow only
reorders its calls, and sweep-d1 takes an integer box margin from the
seed. The library receives only these inputs, built through its public
constructors. Every seed therefore has the same answers (piercing
numbers, s1 verdicts) and about the same cost, while coordinates, LP
entries and witness points differ. Drawing each seed's families afresh
made the cost of a run differ by 15% between seeds, and translating the
shadow or s1 inputs moved the simplex's pivot path enough to change an
instance's cost by up to 1.7x; both are more than this benchmark's
bounds.

Every answer is checked without trusting the simplex: reported points
are re-checked by substitution (H-reps) or by exact orientation tests
(the planar boxes and triangles), pipeline reports must be complete with
binomial tuple counts, and piercing numbers and s1 verdicts must equal
the values in expected.json, recorded by record_expected.py.

Instance mixes that combine two dimensions use a fixed 2:1 pattern, so
the median latency always falls inside the larger group.
"""
from __future__ import annotations

import json
import random
from fractions import Fraction
from math import comb
from pathlib import Path

DEFAULT_SEED = 0
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# the d=1 reference sweep of the ROADMAP: 11 escaping members plus 5 boxes
SWEEP_N_MAX = 12
SWEEP_N_BOUNDED = 5
SWEEP_K_MAX = 2

SHADOW_MAX_SUBSET = 4


def _point_key(p) -> list[str]:
    return [str(c) for c in p]


# ---------------------------------------------------------------------------
# exact isometries x -> S P x + t

class Isometry:
    def __init__(self, rng: random.Random, dim: int, shift: int):
        self.perm = rng.sample(range(dim), dim)
        self.signs = [rng.choice((-1, 1)) for _ in range(dim)]
        self.shift = [Fraction(rng.randint(-shift, shift)) for _ in range(dim)]

    def direction(self, v):
        return tuple(s * v[j] for s, j in zip(self.signs, self.perm))

    def point(self, p):
        return tuple(a + t for a, t in zip(self.direction(p), self.shift))

    def halfspace(self, normal, offset):
        """n . x <= b becomes n' . x' <= b + n' . t with n' = S P n."""
        n2 = self.direction(normal)
        return n2, offset + sum(a * t for a, t in zip(n2, self.shift))


# ---------------------------------------------------------------------------
# independent geometry (no LP, no library code)

def _orient(a, b, c) -> Fraction:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def _in_shape(shape, p) -> bool:
    kind, data = shape
    if kind == "box":
        lo, hi = data
        return all(l <= x <= h for l, x, h in zip(lo, p, hi))
    if kind == "triangle":
        a, b, c = data  # counter-clockwise
        return _orient(a, b, p) >= 0 and _orient(b, c, p) >= 0 and _orient(c, a, p) >= 0
    if kind == "hrep":
        return all(sum(n * x for n, x in zip(normal, p)) <= off for normal, off in data)
    raise ValueError(f"unknown shape kind {kind!r}")


def _check_assignment(shapes, points, assignment) -> list[str]:
    problems = []
    if sorted(assignment) != list(range(len(shapes))):
        problems.append(f"assignment covers {sorted(assignment)}, not all {len(shapes)} members")
    for i, j in assignment.items():
        if not 0 <= j < len(points):
            problems.append(f"member {i} assigned to missing point {j}")
        elif not _in_shape(shapes[i], points[j]):
            problems.append(f"member {i} does not contain point {_point_key(points[j])}")
    return problems


def _report_summary(report) -> dict:
    return {
        "conclusion": report.conclusion,
        "all_passed": report.all_passed,
        "exhaustive": report.exhaustive,
        "checks": [[c.description, c.passed, repr(c.witness)] for c in report.hypothesis_checks],
        "points": None
        if report.piercing is None
        else [_point_key(p) for p in report.piercing.points],
        "assignment": None
        if report.piercing is None
        else sorted(report.piercing.assignment.items()),
        "extras": repr(report.extras),
    }


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One seeded input list and how to run and check it.

    `instances(pq, seed)` builds the inputs, `run(pq, inst)` makes the
    one public-API call that is timed, `summary(out)` reduces its answer
    to plain data for equality checks, and `check(inst, out)` lists what
    is wrong with the answer. The traced run replays the first
    `trace_count` instances.
    """

    name = ""
    why = ""
    trace_count = 1

    def instances(self, pq, seed: int) -> list:
        raise NotImplementedError

    def run(self, pq, inst):
        raise NotImplementedError

    def summary(self, out):
        return _report_summary(out)

    def check(self, inst, out) -> list[str]:
        raise NotImplementedError

    def recorded(self, summaries: list) -> list:
        """The part of the summaries compared with expected.json."""
        return []


class SweepD1(Workload):
    name = "sweep-d1"
    why = (
        "ROADMAP reference sweep, one 18 s instance: loads piercing oracle, sets joint and "
        "V-rep verify LPs, constructions and pipelines; bypasses hypergraph and shadow LPs"
    )

    def instances(self, pq, seed):
        # integer margins keep every LP entry integral; seed 0 is the
        # ROADMAP sweep itself (margin 0)
        margin = Fraction(seed % 5)
        return [pq.constructions.CounterexampleSpec(1, SWEEP_N_MAX, SWEEP_N_BOUNDED, margin)]

    def run(self, pq, spec):
        return pq.pipelines.verify_counterexample(spec, k_max=SWEEP_K_MAX)

    def check(self, spec, report):
        problems = []
        if not (report.all_passed and report.exhaustive):
            problems.append(f"sweep not certified: {report.conclusion}")
        n = (spec.n_max - 1) + spec.n_bounded
        for k in range(SWEEP_K_MAX + 1):
            p = spec.d + 1 + 2 * k
            want = comb(n, p)
            prop = [c for c in report.hypothesis_checks if c.description.startswith(f"({p},")]
            case = [c for c in report.hypothesis_checks
                    if c.description == f"case analysis confirmed on all size-{p} tuples"]
            if len(prop) != 1 or not isinstance(prop[0].witness, dict) \
                    or prop[0].witness.get("tuples") != want:
                problems.append(f"k={k}: property scan did not cover all {want} tuples")
            if len(case) != 1 or not isinstance(case[0].witness, dict) \
                    or sum(case[0].witness.get("cases", {}).values()) != want:
                problems.append(f"k={k}: case analysis did not classify all {want} tuples")
        return problems


class Pierce2D(Workload):
    name = "pierce-2d"
    why = (
        "100 planar V-rep families of 6-9 boxes and triangles: loads partition search, the oracle "
        "and V-rep verify LPs over many short instances; bypasses hypergraph, pipelines, shadow LPs"
    )
    trace_count = 30
    count = 100

    def instances(self, pq, seed):
        base = random.Random(f"{self.name}/base")
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for _ in range(self.count):
            iso = Isometry(rng, 2, 10)
            shapes, sets = [], []
            for m in range(base.randint(6, 9)):
                if base.random() < 0.5:
                    x0, y0 = base.randint(0, 12), base.randint(0, 12)
                    x1, y1 = x0 + base.randint(3, 10), y0 + base.randint(3, 10)
                    corners = [iso.point((Fraction(x), Fraction(y)))
                               for x, y in ((x0, y0), (x1, y0), (x0, y1), (x1, y1))]
                    lo = tuple(min(c[i] for c in corners) for i in range(2))
                    hi = tuple(max(c[i] for c in corners) for i in range(2))
                    shapes.append(("box", (lo, hi)))
                else:
                    while True:
                        cx, cy = base.randint(2, 18), base.randint(2, 18)
                        tri = [(Fraction(cx + base.randint(-8, 8)), Fraction(cy + base.randint(-8, 8)))
                               for _ in range(3)]
                        if abs(_orient(*tri)) >= 12:
                            break
                    corners = [iso.point(v) for v in tri]
                    a, b, c = corners
                    shapes.append(("triangle", (a, b, c) if _orient(a, b, c) > 0 else (a, c, b)))
                sets.append(pq.sets.vrep_set(f"m{m}", corners))
            out.append((pq.sets.family(sets), shapes))
        return out

    def run(self, pq, inst):
        return pq.piercing.piercing_number(inst[0])

    def summary(self, sol):
        return {
            "number": len(sol.points),
            "optimal": sol.optimal,
            "points": [_point_key(p) for p in sol.points],
            "assignment": sorted(sol.assignment.items()),
        }

    def check(self, inst, sol):
        problems = [] if sol.optimal else ["solution not marked optimal"]
        return problems + _check_assignment(inst[1], sol.points, sol.assignment)

    def recorded(self, summaries):
        return [s["number"] for s in summaries]


class Shadow(Workload):
    name = "shadow"
    why = (
        "lifted-projection equivalence after rational coordinate changes: few large LPs (to 32x86) "
        "with real denominators load the LP layer per call; bypasses the piercing oracle entirely"
    )
    trace_count = 12  # the whole list, so the traced mix of d=1 and d=2 is fixed
    count = 12

    # (d, n_max) of family_A; every subset of up to SHADOW_MAX_SUBSET
    # members is checked, the d=2 ones reaching 32x86 tableaux
    shapes = ((1, 5), (1, 5), (2, 5))

    def instances(self, pq, seed):
        base = random.Random(f"{self.name}/base")
        rng = random.Random(f"{self.name}/{seed}")
        C = pq.constructions
        out = []
        for i in range(self.count):
            d, n_max = self.shapes[i % len(self.shapes)]
            spec = C.CounterexampleSpec(d, n_max, 2)
            fam = C.family_A(spec)
            box = pq.sets.convex_hull_union(C.family_B(spec), [0, 1])
            dim = d + 1
            while True:
                m = tuple(
                    tuple(
                        Fraction(base.randint(-2, 2), base.randint(1, 3)) if r != c
                        else Fraction(base.choice((1, 2)), base.randint(1, 2))
                        for c in range(dim)
                    )
                    for r in range(dim)
                )
                try:
                    m_inv = pq.lp.invert_matrix(m)
                except pq.errors.MalformedInputError:
                    continue
                break
            fam = pq.sets.change_coordinates_family(fam, m, m_inv)
            box = pq.sets.change_coordinates(box, m, m_inv)
            # the members recede along e_1, which m maps to its first column;
            # rotate that direction onto the last axis
            back = pq.lp.completed_basis_matrix(tuple(row[0] for row in m))
            forward = pq.lp.invert_matrix(back)
            fam = pq.sets.change_coordinates_family(fam, forward, back)
            box = pq.sets.change_coordinates(box, forward, back)
            out.append((fam, box))
        # a signed permutation of the coordinates changed the cost of a d=2
        # instance by up to 1.9x (the simplex's pivot path moves), so the
        # seed only orders the calls
        rng.shuffle(out)
        return out

    def run(self, pq, inst):
        fam, box = inst
        return pq.pipelines.verify_projection_equivalence(fam, box, max_subset=SHADOW_MAX_SUBSET)

    def check(self, inst, report):
        n = len(inst[0])
        problems = []
        if not (report.all_passed and report.exhaustive):
            problems.append(f"equivalence not certified: {report.conclusion}")
        sizes = range(1, min(SHADOW_MAX_SUBSET, n) + 1)
        want = sum(comb(n, s) for s in sizes)
        if report.extras.get("subsets_checked") != want:
            problems.append(f"checked {report.extras.get('subsets_checked')} subsets, want {want}")
        for s in sizes:
            rows = [c for c in report.hypothesis_checks if c.description.startswith(f"size-{s} subsets")]
            if len(rows) != 1 or rows[0].witness != {"subsets": comb(n, s)}:
                problems.append(f"size-{s} subsets not all compared")
        return problems


class S1HRep(Workload):
    name = "s1-hrep"
    why = (
        "s1 transversal pipeline on H-rep families in R^2 and R^3: the only user of build_GF and "
        "transversal_number, with probe LPs and substitution membership; bypasses V-rep verify LPs"
    )
    trace_count = 30
    count = 70

    def instances(self, pq, seed):
        """t far outlier boxes, nested halfspaces u.x >= k and boxes
        around a point deep inside all of them, shuffled."""
        base = random.Random(f"{self.name}/base")
        rng = random.Random(f"{self.name}/{seed}")
        out = []
        for i in range(self.count):
            d = 3 if i % 3 == 2 else 2
            t = base.randint(1, 2)
            nested = base.randint(3, 5)
            boxes = base.randint(2, 3)
            u = (Fraction(1),) + tuple(Fraction(base.randint(-1, 1)) for _ in range(d - 1))
            tail = [Fraction(base.randint(-4, 4), 2) for _ in range(d - 1)]
            lead = nested + 3 - sum(a * c for a, c in zip(u[1:], tail)) + Fraction(base.randint(0, 3), 3)
            center = (lead,) + tuple(tail)  # u . center >= nested + 3
            members = []  # (label, [(normal, offset)])
            for k in range(1, nested + 1):
                members.append((f"h{k}", [(tuple(-a for a in u), Fraction(-k))]))
            for j in range(boxes):
                half = [Fraction(base.randint(2, 4), 2) for _ in range(d)]
                shift = [Fraction(base.randint(-2, 2), 4) for _ in range(d)]
                lo = [c + s - h for c, s, h in zip(center, shift, half)]
                hi = [c + s + h for c, s, h in zip(center, shift, half)]
                members.append((f"b{j}", _box_halfspaces(lo, hi)))
            for j in range(t):
                far = [Fraction(-20 - 10 * j)] + [Fraction(0)] * (d - 1)
                lo = [c - Fraction(1, 2) for c in far]
                hi = [c + Fraction(1, 2) for c in far]
                members.append((f"o{j}", _box_halfspaces(lo, hi)))
            base.shuffle(members)
            iso = Isometry(rng, d, 0)
            members = [(label, [iso.halfspace(n, b) for n, b in hs]) for label, hs in members]
            fam = pq.sets.family([pq.sets.hrep_set(label, hs) for label, hs in members])
            out.append((fam, t, t + d + 1, [("hrep", hs) for _, hs in members]))
        return out

    def run(self, pq, inst):
        fam, t, p, _ = inst
        return pq.pipelines.pierce_via_transversal(fam, t, p)

    def summary(self, report):
        out = _report_summary(report)
        out["beta"] = next(
            (c.witness["beta"] for c in report.hypothesis_checks
             if isinstance(c.witness, dict) and "beta" in c.witness),
            None,
        )
        return out

    def check(self, inst, report):
        _, t, _, shapes = inst
        if not report.all_passed or report.piercing is None:
            return [f"s1 verdict not certified: {report.conclusion}"]
        problems = []
        if len(report.piercing.points) > t + 1:
            problems.append(f"{len(report.piercing.points)} points exceed the bound {t + 1}")
        return problems + _check_assignment(shapes, report.piercing.points, report.piercing.assignment)

    def recorded(self, summaries):
        return [[s["all_passed"], len(s["points"] or ()), s["beta"]] for s in summaries]


def _box_halfspaces(lo, hi):
    d = len(lo)
    out = []
    for i in range(d):
        e = tuple(Fraction(1 if k == i else 0) for k in range(d))
        out.append((e, hi[i]))
        out.append((tuple(-a for a in e), -lo[i]))
    return out


WORKLOADS = {w.name: w for w in (SweepD1(), Pierce2D(), Shadow(), S1HRep())}


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())
