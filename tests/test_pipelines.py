"""End-to-end checks for the piercing pipelines on small instances
where the exact piercing number is known independently."""
from dataclasses import replace
from fractions import Fraction as F
from itertools import combinations

import pytest

import pqpierce.pipelines

from pqpierce.constructions import (
    CounterexampleSpec,
    counterexample_family,
    family_A,
    family_B,
    simplex_common_point,
)
from pqpierce.errors import EmptySetError, MalformedInputError
from pqpierce.lp import completed_basis_matrix, invert_matrix, lp_budget
from pqpierce.piercing import piercing_number
from pqpierce.pipelines import (
    BoundClaim,
    _classification_sweep,
    pierce_via_free_family,
    pierce_via_projection,
    pierce_via_transversal,
    verify_counterexample,
    verify_projection_equivalence,
)
from pqpierce.rational import to_json
from pqpierce.sets import (
    change_coordinates,
    change_coordinates_family,
    contains_point,
    convex_hull_union,
    family,
    hrep_set,
    vrep_set,
)


def box2(label, x0, x1, y0, y1):
    return vrep_set(label, [(x0, y0), (x1, y0), (x0, y1), (x1, y1)])


def plane_instance_with_outlier():
    # one isolated singleton, four nested half-planes, two overlapping squares
    sets = [vrep_set("lone", [(-10, 0)])]
    for n in range(1, 5):
        sets.append(hrep_set(f"hp{n}", [((-1, 0), -n)]))
    sets.append(box2("sq1", 4, 5, 0, 1))
    sets.append(box2("sq2", F(9, 2), F(11, 2), F(1, 2), F(3, 2)))
    return family(sets)


def space_instance_with_outlier():
    def corners(xs, ys, zs):
        return [(x, y, z) for x in xs for y in ys for z in zs]

    sets = [vrep_set("lone", [(-10, 0, 0)])]
    for n in range(1, 6):
        sets.append(hrep_set(f"hs{n}", [((-1, 0, 0), -n)]))
    sets.append(vrep_set("bx1", corners((4, 5), (0, 1), (0, 1))))
    sets.append(
        vrep_set("bx2", corners((F(9, 2), F(11, 2)), (F(1, 2), F(3, 2)), (0, 1)))
    )
    sets.append(
        vrep_set("bx3", corners((F(9, 2), F(11, 2)), (0, 1), (F(1, 2), F(3, 2))))
    )
    return family(sets)


class TestTransversalPipeline:
    def test_plane_instance(self):
        fam = plane_instance_with_outlier()
        report = pierce_via_transversal(fam, t=1, p=4)
        assert report.name == "s1"
        assert report.all_passed
        assert report.bound_claim == BoundClaim("1 + 1", 2)
        assert len(report.piercing.points) <= 2
        assert not report.piercing.optimal
        assert sorted(report.piercing.assignment) == list(range(7))
        # the singleton forces two points, so the pipeline is exact here
        exact = piercing_number(fam)
        assert len(exact.points) == 2 == len(report.piercing.points)
        for i, pi in report.piercing.assignment.items():
            assert contains_point(fam.sets[i], report.piercing.points[pi])

    def test_space_instance(self):
        fam = space_instance_with_outlier()
        report = pierce_via_transversal(fam, t=1, p=5)
        assert report.all_passed
        assert len(report.piercing.points) <= 2
        descriptions = [c.description for c in report.hypothesis_checks]
        assert any("transversal" in s for s in descriptions)
        assert any("common point" in s for s in descriptions)

    def test_transversal_row_fails_when_t_too_small(self):
        fam = plane_instance_with_outlier()
        # two separated singletons cannot be covered by a 1-transversal
        # without also breaking the (5,4)-property
        sets = list(fam.sets) + [vrep_set("lone2", [(-20, 0)])]
        fam2 = family(sets)
        report = pierce_via_transversal(fam2, t=1, p=5)
        assert not report.all_passed
        assert report.piercing is None
        assert "failed" in report.conclusion

    def test_preconditions(self):
        fam = plane_instance_with_outlier()
        with pytest.raises(MalformedInputError):
            pierce_via_transversal(fam, t=-1, p=4)
        with pytest.raises(MalformedInputError):
            pierce_via_transversal(fam, t=1, p=3)  # p - t < dim + 1
        with pytest.raises(MalformedInputError):
            pierce_via_transversal(fam, t=1, p=99)

    def test_empty_member_rejected(self):
        # one shared check serves every route, before any hypothesis row
        bad = hrep_set("void", [((1,), -1), ((-1,), 0)])
        pt = vrep_set("pt", [(0,)])
        seg = vrep_set("seg", [(0,), (1,)])
        fam = family([bad, pt, seg])
        with pytest.raises(EmptySetError):
            pierce_via_transversal(fam, t=1, p=3)
        with pytest.raises(EmptySetError):
            pierce_via_free_family(fam, [1], p=2, q=2)
        with pytest.raises(EmptySetError):
            pierce_via_projection(fam, [1], p=2, q=2)


class TestFreeFamilyPipeline:
    def build(self):
        sets = [box2("b1", 0, 1, 0, 1), box2("b2", 2, 3, 0, 1)]
        for n in range(1, 5):
            sets.append(hrep_set(f"upper{n}", [((0, -1), n)]))  # y >= -n
        return family(sets)

    def test_four_three_instance(self):
        fam = self.build()
        report = pierce_via_free_family(fam, [0, 1], p=4, q=3)
        assert report.name == "s2"
        assert report.all_passed
        formula, numeric = report.bound_claim.formula, report.bound_claim.numeric
        assert formula == "xi(4,3,2) + 2"
        assert numeric == 15
        used = len(report.piercing.points)
        exact = len(piercing_number(fam).points)
        assert exact == 2
        assert exact <= used <= numeric
        for i, pi in report.piercing.assignment.items():
            assert contains_point(fam.sets[i], report.piercing.points[pi])

    def test_free_check_fails_on_overlapping_selection(self):
        sets = [box2("b1", 0, 1, 0, 1), box2("b2", F(1, 2), 2, 0, 1)]
        for n in range(1, 5):
            sets.append(hrep_set(f"upper{n}", [((0, -1), n)]))
        fam = family(sets)
        report = pierce_via_free_family(fam, [0, 1], p=4, q=3)
        assert not report.all_passed
        assert report.piercing is None
        first = report.hypothesis_checks[0]
        assert first.description == "selection is 1-free"
        assert first.witness == {"intersecting": ["b1", "b2"]}

    def test_member_named_like_the_hull(self):
        # the selection's hull joins the run's oracle under a free label
        sets = list(self.build().sets)
        sets[2] = hrep_set("hull(b1,b2)", [((0, -1), 1)])
        report = pierce_via_free_family(family(sets), [0, 1], p=4, q=3)
        assert report.all_passed
        assert report.hypothesis_checks[2].witness["part"] == [
            "hull(b1,b2)", "upper2", "upper3", "upper4"
        ]

    def test_preconditions(self):
        fam = self.build()
        with pytest.raises(MalformedInputError):
            pierce_via_free_family(fam, [0], p=4, q=3)  # wrong selection size
        with pytest.raises(MalformedInputError):
            pierce_via_free_family(fam, [0, 1], p=4, q=2)  # q < dim + 1
        with pytest.raises(MalformedInputError):
            pierce_via_free_family(fam, [0, 1], p=99, q=3)


def test_hrep_selection_gets_the_vrep_report():
    # a bounded H-rep selection's hull takes its vertices; the reports
    # equal those of the same selection written as V-reps
    def hbox(label, x0, x1, y0, y1):
        return hrep_set(label, [((1, 0), x1), ((-1, 0), -x0), ((0, 1), y1), ((0, -1), -y0)])

    uppers = [hrep_set(f"upper{n}", [((0, -1), n)]) for n in range(1, 5)]
    for selection in ([hbox("b1", 0, 1, 0, 1), hbox("b2", 2, 3, 0, 1)],
                      [hbox("b1", 0, 1, 0, 1), box2("b2", 2, 3, 0, 1)]):
        report = pierce_via_free_family(family(selection + uppers), [0, 1], p=4, q=3)
        vreport = pierce_via_free_family(
            family([box2("b1", 0, 1, 0, 1), box2("b2", 2, 3, 0, 1)] + uppers), [0, 1], p=4, q=3
        )
        assert report.all_passed and to_json(report) == to_json(vreport)
    # pierce_via_projection needs q >= p - q + dim + 1, so the golden
    # main family, its segments written as H-reps
    rays = [hrep_set(f"ray{n}", [((-1,), -n)]) for n in range(1, 4)]
    segments = [hrep_set("c1", [((1,), 2), ((-1,), 0)]), hrep_set("c2", [((1,), 3), ((-1,), -1)])]
    report = pierce_via_projection(family(segments + rays), [0, 1], p=5, q=4)
    vsegments = [vrep_set("c1", [(0,), (2,)]), vrep_set("c2", [(1,), (3,)])]
    vreport = pierce_via_projection(family(vsegments + rays), [0, 1], p=5, q=4)
    assert report.all_passed and to_json(report) == to_json(vreport)
    empty = hrep_set("b2", [((1, 0), 0), ((-1, 0), -1)])
    with pytest.raises(EmptySetError):
        pierce_via_free_family(family([hbox("b1", 0, 1, 0, 1), empty] + uppers), [0, 1], p=4, q=3)


class TestProjectionPipeline:
    def build(self):
        sets = [
            vrep_set("c1", [(0,), (2,)]),
            vrep_set("c2", [(1,), (3,)]),
        ]
        for n in range(1, 4):
            sets.append(hrep_set(f"ray{n}", [((-1,), -n)]))  # x >= n
        return family(sets)

    def test_line_instance(self):
        fam = self.build()
        report = pierce_via_projection(fam, [0, 1], p=5, q=4)
        assert report.name == "main"
        assert report.all_passed
        used = len(report.piercing.points)
        exact = len(piercing_number(fam).points)
        assert used == exact == 2
        formula, numeric = report.bound_claim.formula, report.bound_claim.numeric
        assert formula == "xi(3,1,0) * xi(5,4,1) + 2"
        assert numeric is None  # no catalog value for the inner factor
        labels = [c.description for c in report.hypothesis_checks]
        assert any("truncated members" in s for s in labels)

    def test_unbounded_selection_fails(self):
        fam = self.build()
        report = pierce_via_projection(fam, [0, 2], p=5, q=4)
        assert not report.all_passed
        assert report.hypothesis_checks[0].witness == {"unbounded": ["ray1"]}

    def test_preconditions(self):
        fam = self.build()
        with pytest.raises(MalformedInputError):
            pierce_via_projection(fam, [0], p=5, q=4)
        with pytest.raises(MalformedInputError):
            pierce_via_projection(fam, [0, 1], p=5, q=3)  # q too small


class TestCounterexampleVerifier:
    def test_small_truncation(self):
        spec = CounterexampleSpec(d=1, n_max=6, n_bounded=3)
        report = verify_counterexample(spec, k_max=1)
        assert report.name == "counterexample"
        assert report.all_passed and report.exhaustive
        assert report.piercing is None
        cases = report.extras["cases"]
        assert cases["1"] + cases["2"] + cases["3"] == 28 + 70
        descriptions = [c.description for c in report.hypothesis_checks]
        assert "(2,2)-property" in descriptions
        assert "(4,3)-property" in descriptions
        assert any(s.startswith("candidate point set 0") for s in descriptions)

    def test_escape_rows_for_supplied_candidates(self):
        spec = CounterexampleSpec(d=1, n_max=6, n_bounded=2)
        cands = [
            [(F(0), F(1, 2))],
            [(F(5), F(0)), (F(0), F(1, 3))],
        ]
        report = verify_counterexample(spec, k_max=0, candidate_point_sets=cands)
        rows = [c for c in report.hypothesis_checks if "candidate" in c.description]
        assert [r.witness["witness"] for r in rows] == [3, 6]
        assert report.all_passed

    def test_cap_exhaustion_marks_report(self):
        spec = CounterexampleSpec(d=1, n_max=6, n_bounded=2)
        report = verify_counterexample(
            spec, k_max=0, candidate_point_sets=[[(F(100), F(0))]], n_cap=50
        )
        assert not report.exhaustive
        assert not report.all_passed
        row = report.hypothesis_checks[-1]
        assert row.witness == {"exhausted_at": 50}

    def test_budget_exhaustion_partial(self):
        spec = CounterexampleSpec(d=1, n_max=6, n_bounded=3)
        with lp_budget(10):
            report = verify_counterexample(spec, k_max=1)
        assert not report.exhaustive
        assert "partial" in report.conclusion

    def test_k_too_large_rejected(self):
        spec = CounterexampleSpec(d=1, n_max=3, n_bounded=1)
        with pytest.raises(MalformedInputError):
            verify_counterexample(spec, k_max=4)


class TestProjectionEquivalence:
    def rotated_truncation(self):
        spec = CounterexampleSpec(d=1, n_max=7, n_bounded=2)
        fam = family_A(spec)
        box = convex_hull_union(family_B(spec), [0, 1])
        back = completed_basis_matrix((F(1), F(0)))
        forward = invert_matrix(back)
        rot_fam = change_coordinates_family(fam, forward, back)
        rot_box = change_coordinates(box, forward, back)
        return rot_fam, rot_box

    def test_agreement_on_rotated_truncation(self):
        rot_fam, rot_box = self.rotated_truncation()
        report = verify_projection_equivalence(rot_fam, rot_box, max_subset=5)
        assert report.name == "corollary52"
        assert report.all_passed
        assert report.extras["subsets_checked"] == 6 + 15 + 20 + 15 + 6
        assert report.piercing is None

    def test_box_named_like_a_member(self):
        rot_fam, rot_box = self.rotated_truncation()
        clash = replace(rot_box, label=rot_fam.sets[2].label)
        report = verify_projection_equivalence(rot_fam, clash, max_subset=5)
        assert report.all_passed
        assert report.inputs["box"] == "A_4"

    def test_recession_hypothesis_fails_unrotated(self):
        spec = CounterexampleSpec(d=1, n_max=5, n_bounded=2)
        fam = family_A(spec)
        box = convex_hull_union(family_B(spec), [0, 1])
        report = verify_projection_equivalence(fam, box, max_subset=3)
        assert not report.all_passed
        assert report.piercing is None
        assert len(report.hypothesis_checks) == 1

    def test_preconditions(self):
        rot_fam, rot_box = self.rotated_truncation()
        with pytest.raises(MalformedInputError):
            verify_projection_equivalence(rot_fam, rot_box, max_subset=0)
        ray = hrep_set("half", [((0, -1), 0)])
        with pytest.raises(MalformedInputError):
            verify_projection_equivalence(rot_fam, ray, max_subset=2)


class TestReportJson:
    def test_structure_and_determinism(self):
        fam = plane_instance_with_outlier()
        r1 = to_json(pierce_via_transversal(fam, t=1, p=4))
        r2 = to_json(pierce_via_transversal(fam, t=1, p=4))
        assert r1 == r2
        assert set(r1) == {
            "name",
            "inputs",
            "hypothesis_checks",
            "piercing",
            "bound_claim",
            "conclusion",
            "exhaustive",
            "extras",
        }
        assert r1["bound_claim"] == {"formula": "1 + 1", "numeric": 2}
        for row in r1["hypothesis_checks"]:
            assert isinstance(row["passed"], bool)
        assert all(
            isinstance(c, (str, int)) for pt in r1["piercing"]["points"] for c in pt
        )

    def test_failed_report_carries_no_points(self):
        spec = CounterexampleSpec(d=1, n_max=6, n_bounded=2)
        fam = counterexample_family(spec)
        # the escaping members and the innermost box share no point, so
        # the (6,6)-property fails and no piercing may be emitted
        report = pierce_via_transversal(fam, t=0, p=6)
        assert not report.all_passed
        data = to_json(report)
        assert data["piercing"] is None


@pytest.fixture
def joint_lps(monkeypatch):
    """The label sets of the joint LPs asked, in order."""
    import pqpierce.piercing

    real = pqpierce.piercing.intersect_nonempty
    asked: list[frozenset] = []

    def recording(fam, indices):
        indices = list(indices)
        asked.append(frozenset(fam.sets[i].label for i in indices))
        return real(fam, indices)

    monkeypatch.setattr(pqpierce.piercing, "intersect_nonempty", recording)
    return asked


def test_no_joint_query_twice(joint_lps):
    # every joint-intersection question of one pipeline run, box- and
    # hull-joined ones and the selection's own partition included,
    # reaches the LP at most once
    rot_fam, rot_box = TestProjectionEquivalence().rotated_truncation()
    runs = (
        lambda: pierce_via_transversal(plane_instance_with_outlier(), t=1, p=4),
        lambda: pierce_via_free_family(TestFreeFamilyPipeline().build(), [0, 1], p=4, q=3),
        lambda: pierce_via_projection(TestProjectionPipeline().build(), [0, 1], p=5, q=4),
        lambda: verify_projection_equivalence(rot_fam, rot_box, max_subset=5),
    )
    for run in runs:
        joint_lps.clear()
        assert run().all_passed
        assert joint_lps and len(set(joint_lps)) == len(joint_lps)


def test_selection_routes_share_one_oracle(joint_lps):
    # with one oracle per run, earlier witnesses answer the hull-joined
    # parts and the selection (7 and 5 joint LPs with three oracles)
    assert pierce_via_free_family(TestFreeFamilyPipeline().build(), [0, 1], p=4, q=3).all_passed
    assert len(joint_lps) <= 4
    joint_lps.clear()
    assert pierce_via_projection(TestProjectionPipeline().build(), [0, 1], p=5, q=4).all_passed
    assert len(joint_lps) <= 2



def test_counterexample_sweep_lp_count(monkeypatch):
    # the witness masks answer almost every joint query of the d = 1
    # sweep without an LP (1,620 LPs before them, 94 with them)
    import pqpierce.piercing

    real = pqpierce.piercing.intersect_nonempty
    calls = []

    def counting(fam, indices):
        calls.append(None)
        return real(fam, indices)

    monkeypatch.setattr(pqpierce.piercing, "intersect_nonempty", counting)
    report = verify_counterexample(CounterexampleSpec(1, 12, 5), k_max=2)
    assert report.all_passed and report.exhaustive
    assert len(calls) <= 100

# the joint LPs of two runs, in order, as recorded before the tuple scans
# asked each q-subset once: the scans must not change which LPs run
SWEEP_LPS = (
    "0,1 0,4 0,7 0,10 0,11 1,4 1,8 2,4 2,9 3,4 3,10 3,11 4,10 5,10 5,11 6,10 "
    "7,10 7,11 9,11 0,3,11 0,4,11 0,5,11 0,6,11 0,7,11 0,8,11 0,9,11 0,10,11 "
    "1,3,11 1,4,11 1,5,11 1,6,11 1,7,11 1,8,11 1,8,12 1,9,11 1,9,12 1,10,11 "
    "1,10,12 2,3,11 2,4,11 2,4,12 2,5,11 2,6,11 2,7,11 2,7,12 2,8,10 2,8,11 "
    "2,8,12 2,9,11 2,9,12 2,10,11 2,10,12 3,5,11 3,6,11 3,7,11 3,7,12 3,8,11 "
    "3,8,12 3,9,10 3,9,11 3,9,12 3,10,11 3,10,12 3,10,13 4,5,11 4,6,11 4,7,11 "
    "4,8,11 4,8,12 4,9,11 4,9,12 4,10,11 4,10,12 4,10,13 5,7,11 5,8,11 5,8,12 "
    "5,9,11 5,9,12 5,10,11 5,10,12 6,7,11 6,8,11 6,8,12 6,9,11 6,9,12 6,10,11 "
    "6,10,12 7,9,11 7,10,11 7,10,12 8,9,11 8,10,11 8,10,12"
)
S1_LPS = (
    "0,1,2,3 0,1,2,4 0,1,3,4 0,2,3,4 1,2,3,4 0,1,2,5 0,1,3,5 0,2,3,5 1,2,3,5 "
    "0,1,2,6 0,1,3,6 0,2,3,6 0,1,2,7 0,1,3,7 0,2,3,7 1,2,3,7 0,1,2,8 0,1,3,8 "
    "0,2,3,8 1,2,3,8 0,1,4,5 0,2,4,5 0,1,4,6 0,2,4,6 0,1,4,7 0,2,4,7 0,1,4,8 "
    "0,2,4,8 0,1,5,6 0,2,5,6 0,1,5,7 0,2,5,7 1,2,5,7 0,1,5,8 0,2,5,8 1,2,5,8 "
    "0,1,6,7 0,2,6,7 0,1,6,8 0,2,6,8 0,1,7,8 0,2,7,8 1,2,7,8 0,3,4,5 0,3,4,6 "
    "0,3,4,7 0,3,4,8 0,3,5,6 0,3,5,7 0,3,5,8 0,3,6,7 0,3,6,8 0,3,7,8 0,4,5,6 "
    "0,4,5,7 0,4,5,8 0,4,6,7 0,4,6,8 0,4,7,8 0,5,6,7 0,5,6,8 0,5,7,8 1,5,7,8 "
    "0,6,7,8"
)


@pytest.mark.parametrize("run, want", [
    (lambda: verify_counterexample(CounterexampleSpec(1, 12, 5), k_max=2), SWEEP_LPS),
    (lambda: pierce_via_transversal(space_instance_with_outlier(), t=1, p=5), S1_LPS),
], ids=["counterexample", "s1"])
def test_joint_lps_keep_their_order(monkeypatch, run, want):
    import pqpierce.piercing

    real = pqpierce.piercing.intersect_nonempty
    keys = []

    def recording(fam, indices):
        keys.append(",".join(map(str, indices)))
        return real(fam, indices)

    monkeypatch.setattr(pqpierce.piercing, "intersect_nonempty", recording)
    assert run().all_passed
    assert keys == want.split()


# --- the case sweep against a reference without a cache -----------------------

def reference_sweep(fam, p, d, k, n_unbounded):
    """The three-case classification of every p-tuple, each point built
    and each membership asked afresh (through pipelines.contains_point,
    so a patch there reaches both sweeps)."""
    counts = {"1": 0, "2": 0, "3": 0}
    first_bad = None
    for tup in combinations(range(len(fam)), p):
        a_idx = [i for i in tup if i < n_unbounded]
        b_idx = [i for i in tup if i >= n_unbounded]
        if len(a_idx) <= d:
            case, asked, pt = 1, tup, (F(0),) * (d + 1)
            if a_idx:  # padded to d alphas with the largest
                alphas = [F(1, i + 2) for i in a_idx]
                alphas += [max(alphas)] * (d - len(a_idx))
                pt = (F(0),) + simplex_common_point(sorted(alphas))
        elif len(a_idx) <= d + k:
            case, asked = 2, a_idx[:d] + b_idx
            pt = (F(0),) + simplex_common_point(sorted(F(1, i + 2) for i in a_idx[:d]))
        else:
            case, asked = 3, a_idx
            pt = (F(max(a_idx) + 2),) + (F(0),) * d
        counts[str(case)] += 1
        ok = not (case == 2 and len(asked) < d + 1 + k) and all(
            pqpierce.pipelines.contains_point(fam.sets[i], pt) for i in asked)
        if not ok and first_bad is None:
            first_bad = tup
    return counts, first_bad


def case_of(tup, d, k, n_unbounded):
    i = sum(j < n_unbounded for j in tup)
    return 1 if i <= d else 2 if i <= d + k else 3


# a denied member holds no point at all: True denies the last member, a
# bounded box unless n_bounded = 0, and "first" an escaping one, so that
# case 3, which asks only escaping members, fails first in 54 sweeps, not 10
@pytest.mark.parametrize("deny", [False, True, "first"])
def test_classification_sweep_matches_reference(monkeypatch, deny):
    cases = set()  # the cases of the first unconfirmed tuples
    for d in (1, 2):
        for n_max in range(3, 7):
            for n_bounded in range(4):
                fam = counterexample_family(CounterexampleSpec(d, n_max, n_bounded))
                if deny:
                    denied = fam.sets[0 if deny == "first" else -1]
                    monkeypatch.setattr(
                        pqpierce.pipelines, "contains_point",
                        lambda s, x: s is not denied and contains_point(s, x),
                    )
                k = 0
                while d + 1 + 2 * k <= len(fam):
                    args = (fam, d + 1 + 2 * k, d, k, n_max - 1)
                    got = _classification_sweep(*args)
                    assert got == reference_sweep(*args), (d, n_max, n_bounded, k)
                    if got[1] is not None:
                        cases.add(case_of(got[1], d, k, n_max - 1))
                    k += 1
    assert cases == ({1, 2, 3} if deny else set())  # no real spec reaches first_bad


# --- failed reports: every row up to the failure, no points ------------------

def failed_rows(report):
    """The report's rows as (description, passed, witness) after
    checking that a failed run ends with no points and no bound."""
    data = to_json(report)
    assert data["piercing"] is None and data["bound_claim"] is None
    assert data["conclusion"] == "hypothesis failed: " + next(
        c["description"] for c in data["hypothesis_checks"] if not c["passed"])
    return [(c["description"], c["passed"], c["witness"]) for c in data["hypothesis_checks"]]


def test_s1_fails_on_bounded_members_after_its_scan_row():
    # a failed row ends the run at the (p, p-t) scan, before build_GF
    report = pierce_via_transversal(plane_instance_with_outlier(), t=3, p=6)
    assert failed_rows(report) == [
        ("at least 4 bounded members", False, {"bounded": ["lone", "sq1", "sq2"]}),
        ("(6,3)-property", True, None),
    ]


def test_main_fails_on_an_unbounded_selection():
    report = pierce_via_projection(TestProjectionPipeline().build(), [0, 2], p=5, q=4)
    assert report.inputs["selection"] == ["c1", "ray1"]
    assert failed_rows(report) == [
        ("selected members are bounded", False, {"unbounded": ["ray1"]}),
        ("(5,4)-property", True, None),
    ]


def test_main_fails_on_a_truncated_scan(monkeypatch):
    # a (p,q)-family always passes this row, so a hull far from every
    # member stands in for the selection's
    far = vrep_set("far", [(-9,), (-8,)])
    monkeypatch.setattr(pqpierce.pipelines, "convex_hull_union", lambda fam, sel: far)
    report = pierce_via_projection(TestProjectionPipeline().build(), [0, 1], p=5, q=4)
    assert failed_rows(report) == [
        ("selected members are bounded", True, None),
        ("(5,4)-property", True, None),
        ("part 0 has a common point", True, {"part": ["ray1", "ray2", "ray3"], "point": [3]}),
        ("part 0: truncated members satisfy the (3,1)-property", False,
         {"tuples": 1, "violating": ["ray1", "ray2", "ray3"]}),
    ]


def test_counterexample_pq_row_fails_with_its_violation_alone(monkeypatch):
    import pqpierce.piercing

    monkeypatch.setattr(pqpierce.piercing.IntersectionOracle, "intersecting", lambda self, idx: False)
    data = to_json(verify_counterexample(CounterexampleSpec(d=1, n_max=4, n_bounded=1), k_max=0))
    assert data["piercing"] is None and data["conclusion"] == "failed: (2,2)-property"
    assert [(c["description"], c["passed"], c["witness"]) for c in data["hypothesis_checks"]] == [
        ("(2,2)-property", False, {"violating": ["A_2", "A_3"]}),
        ("case analysis confirmed on all size-2 tuples", True, {"cases": {"1": 3, "2": 0, "3": 3}}),
        ("candidate point set 0 escaped", True, {"points": 1, "witness": 5}),
    ]


def test_corollary52_fails_on_its_recession_row():
    spec = CounterexampleSpec(d=1, n_max=5, n_bounded=2)
    report = verify_projection_equivalence(
        family_A(spec), convex_hull_union(family_B(spec), [0, 1]), max_subset=3)
    assert report.extras == {}
    assert failed_rows(report) == [
        ("every member recedes along the last axis", False,
         {"members": ["A_2", "A_3", "A_4", "A_5"]}),
    ]


def test_s1_fails_on_its_transversal_row():
    # unit segments in a row: among any 3 some 2 meet, but the disjoint
    # pairs (s0,s2), (s0,s3), (s1,s3) need two vertices to cover
    fam = family([vrep_set(f"s{i}", [(i,), (i + 1,)]) for i in range(4)])
    assert failed_rows(pierce_via_transversal(fam, t=1, p=3)) == [
        ("at least 2 bounded members", True, {"bounded": ["s0", "s1", "s2", "s3"]}),
        ("(3,2)-property", True, None),
        ("transversal of the empty-tuple hypergraph has size at most 1", False,
         {"beta": 2, "transversal": ["s0", "s1"], "edges": 3}),
    ]


def test_s1_fails_on_its_common_point_row(monkeypatch):
    # by Helly the members off the cover always meet once their
    # (d+1,d+1) row passes, so an oracle with no witnesses stands in
    import pqpierce.piercing

    monkeypatch.setattr(pqpierce.piercing.IntersectionOracle, "witness", lambda self, idx: None)
    assert failed_rows(pierce_via_transversal(plane_instance_with_outlier(), t=1, p=4)) == [
        ("at least 2 bounded members", True, {"bounded": ["lone", "sq1", "sq2"]}),
        ("(4,3)-property", True, None),
        ("transversal of the empty-tuple hypergraph has size at most 1", True,
         {"beta": 1, "transversal": ["lone"], "edges": 15}),
        ("remaining members satisfy the (3,3)-property", True, None),
        ("remaining members share a common point", False, None),
    ]


def test_s2_fails_on_a_part_missing_the_hull(monkeypatch):
    # every part of a (p,q)-family meets the free selection's hull, so a
    # hull far from every member stands in for it
    far = vrep_set("far", [(-9, -9)])
    monkeypatch.setattr(pqpierce.pipelines, "convex_hull_union", lambda fam, sel: far)
    report = pierce_via_free_family(TestFreeFamilyPipeline().build(), [0, 1], p=4, q=3)
    assert failed_rows(report) == [
        ("selection is 1-free", True, None),
        ("(4,3)-property", True, None),
        ("part 0 and the joined selection have a common point", False,
         {"part": ["upper1", "upper2", "upper3", "upper4"], "point": None}),
    ]


def test_main_gives_a_part_shorter_than_q_minus_1_no_tuples(monkeypatch):
    # r3 is a part of its own, shorter than q - 1 = 2, so its truncated
    # row passes with no tuple; the far hull fails part 0's row
    fam = family([vrep_set("b1", [(0,), (1,)]), vrep_set("b2", [(-1,), (0,)]), vrep_set("r1", [(0,), (2,)]),
                  vrep_set("r2", [(0,), (3,)]), vrep_set("r3", [(10,), (11,)])])
    far = vrep_set("far", [(-9,), (-8,)])
    monkeypatch.setattr(pqpierce.pipelines, "convex_hull_union", lambda fam, sel: far)
    assert failed_rows(pierce_via_projection(fam, [0, 1], p=4, q=3)) == [
        ("selected members are bounded", True, None),
        ("(4,3)-property", True, None),
        ("part 0 has a common point", True, {"part": ["r1", "r2"], "point": [0]}),
        ("part 0: truncated members satisfy the (2,1)-property", False,
         {"tuples": 1, "violating": ["r1", "r2"]}),
        ("part 1 has a common point", True, {"part": ["r3"], "point": [10]}),
        ("part 1: truncated members satisfy the (2,1)-property", True, {"tuples": 0}),
    ]


def test_corollary52_gives_the_first_mismatch_of_each_size(monkeypatch):
    # the shadow test agrees with the direct one on every receding
    # family, so a shadow that never meets stands in
    monkeypatch.setattr(pqpierce.pipelines, "lifted_projection_witness", lambda sets, box: None)
    report = verify_projection_equivalence(*TestProjectionEquivalence().rotated_truncation(), max_subset=2)
    data = to_json(report)
    assert data["piercing"] is None and data["bound_claim"] is None
    assert data["conclusion"] == "projection equivalence failed"
    assert data["extras"] == {"subsets_checked": 2}
    assert [(c["description"], c["passed"], c["witness"]) for c in data["hypothesis_checks"]] == [
        ("every member recedes along the last axis", True, None),
        ("size-1 subsets: direct and shadow tests agree", False,
         {"subset": ["A_2"], "direct": True, "shadow": False}),
        ("size-2 subsets: direct and shadow tests agree", False,
         {"subset": ["A_2", "A_3"], "direct": True, "shadow": False}),
    ]
