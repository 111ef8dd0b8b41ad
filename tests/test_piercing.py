"""Property checks, exact piercing vs brute force, hypergraph bridge."""
import gc
import operator
import random
import sys
from fractions import Fraction
from itertools import combinations, product
from math import comb
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import pqpierce.piercing
from pqpierce.constructions import gruenbaum_line, unbounded_member
from pqpierce.errors import EmptySetError, MalformedInputError
from pqpierce.piercing import (
    IntersectionOracle,
    build_GF,
    has_pq_property,
    is_m_free,
    min_partition,
    piercing_number,
    pq_property_scan,
)
from pqpierce.hypergraph import transversal_number
from pqpierce.rational import to_json
from pqpierce.sets import HRep, contains_point, family, hrep_set, intersect_nonempty, vrep_set

import test_golden


def box2(label, x0, x1, y0, y1):
    return vrep_set(label, [(x0, y0), (x1, y0), (x0, y1), (x1, y1)])


def hbox2(label, x0, x1, y0, y1):
    return hrep_set(label, [((1, 0), x1), ((-1, 0), -x0), ((0, 1), y1), ((0, -1), -y0)])


def triangle_sides():
    # three segments bounding a triangle: pairwise meet at corners,
    # empty triple intersection
    a = vrep_set("side_a", [(0, 0), (4, 0)])
    b = vrep_set("side_b", [(0, 0), (0, 4)])
    c = vrep_set("side_c", [(4, 0), (0, 4)])
    return family([a, b, c])


def all_partitions(n):
    if n == 0:
        yield []
        return
    for rest in all_partitions(n - 1):
        i = n - 1
        for k in range(len(rest)):
            yield rest[:k] + [rest[k] + [i]] + rest[k + 1:]
        yield rest + [[i]]


def brute_piercing(fam):
    oracle = IntersectionOracle(fam)
    best = len(fam)
    for parts in all_partitions(len(fam)):
        if all(oracle.intersecting(p) for p in parts):
            best = min(best, len(parts))
    return best


def random_family(rng, n):
    sets = []
    for i in range(n):
        cx = Fraction(rng.randint(-6, 6), 2)
        cy = Fraction(rng.randint(-6, 6), 2)
        if rng.random() < 0.5:
            w = Fraction(rng.randint(1, 4), 2)
            h = Fraction(rng.randint(1, 4), 2)
            pts = [(cx - w, cy - h), (cx + w, cy - h), (cx - w, cy + h), (cx + w, cy + h)]
        else:
            pts = [
                (cx + Fraction(rng.randint(-3, 3), 2), cy + Fraction(rng.randint(-3, 3), 2))
                for _ in range(3)
            ]
        sets.append(vrep_set(f"X{i}", pts))
    return family(sets)


def joint_lps(monkeypatch) -> list[list[int]]:
    """The index lists of the joint LPs the oracle asks from now on."""
    asked = []
    joint = pqpierce.piercing.intersect_nonempty

    def recording(fam, indices):
        asked.append(indices)
        return joint(fam, indices)

    monkeypatch.setattr("pqpierce.piercing.intersect_nonempty", recording)
    return asked


def test_oracle_memoizes_and_propagates(monkeypatch):
    fam = family([box2("A", 0, 2, 0, 2), box2("B", 1, 3, 0, 2), box2("C", 0, 2, 1, 3)])
    oracle = IntersectionOracle(fam)
    asked = joint_lps(monkeypatch)
    assert oracle.intersecting([0, 1, 2])
    # subsets certified by the triple: no further LP calls
    assert oracle.intersecting([0, 1]) and oracle.intersecting([2])
    assert oracle.witness([0, 1, 2]) is not None
    assert asked == [[0, 1, 2]]


def test_oracle_condemns_supersets(monkeypatch):
    # H-rep members: no row separates the pair, so it takes an LP
    fam = family([hbox2("A", 0, 1, 0, 1), hbox2("B", 2, 3, 0, 1), hbox2("C", 0, 3, 0, 1)])
    oracle = IntersectionOracle(fam)
    asked = joint_lps(monkeypatch)
    assert not oracle.intersecting([0, 1])
    assert not oracle.intersecting([0, 1, 2])
    assert oracle.witness([0, 1]) is None
    assert asked == [[0, 1]]
    with pytest.raises(MalformedInputError):
        oracle.intersecting([])


def test_oracle_condemns_supersets_of_a_separated_pair(monkeypatch):
    # V-rep members: a row of A that every corner of B breaks answers the
    # pair, and its superset, without an LP
    fam = family([box2("A", 0, 1, 0, 1), box2("B", 2, 3, 0, 1), box2("C", 0, 3, 0, 1)])
    oracle = IntersectionOracle(fam)
    asked = joint_lps(monkeypatch)
    assert not oracle.intersecting([0, 1])
    assert not oracle.intersecting([0, 1, 2])
    assert oracle.witness([0, 1]) is None
    assert asked == []


@pytest.mark.parametrize("first_hrep", [True, False])
def test_oracle_separates_a_pair_either_way(monkeypatch, first_hrep):
    # the row may be the H-rep's or the V-rep's: both orders are tried
    h, v = hbox2("H", 0, 1, 0, 1), box2("V", 2, 3, 0, 1)
    oracle = IntersectionOracle(family([h, v] if first_hrep else [v, h]))
    asked = joint_lps(monkeypatch)
    assert not oracle.intersecting([0, 1])
    assert asked == []


def test_oracle_asks_an_lp_for_touching_pairs(monkeypatch):
    # boxes sharing an edge: two corners of each lie on the other's row
    # there, so no row is broken strictly, and the LP answers
    fam = family([box2("A", 0, 1, 0, 1), box2("B", 1, 2, 0, 1)])
    oracle = IntersectionOracle(fam)
    asked = joint_lps(monkeypatch)
    assert oracle.intersecting([0, 1])
    assert asked == [[0, 1]]


# A planar family of triangles and one box, drawn as the pierce-2d
# benchmark draws them, and the joint LPs of its piercing search in
# order. Before separated pairs were answered without an LP the search
# asked 48 keys; it asks the same keys in the same order less the 17
# disjoint pairs.
PLANAR_FAMILY = (
    [(-22, 11), (-11, 2), (-8, 13)],
    [(-14, 4), (-14, 7), (-21, 4), (-21, 7)],
    [(-18, 10), (-23, 5), (-26, 5)],
    [(-2, -3), (-5, 4), (-4, -5)],
    [(-9, 15), (-9, 3), (-3, 0)],
    [(-9, 2), (-16, 11), (-3, 18)],
    [(-19, -10), (-16, -2), (-9, -4)],
    [(-3, 6), (-9, 3), (-10, -4)],
    [(-18, 10), (-27, 17), (-22, 15)],
)
PLANAR_LPS_BEFORE = (
    "0 0,1 0,1,2 2 0,1,3 2,3 0,2 1,3 1,2 0,3 3 0,1,4 2,4 3,4 0,1,5 2,5 3,4,5 1,4 "
    "1,5 0,4 0,4,5,6 1,2,6 3,6 3,5 0,5,6 0,1,6 2,6 5,6 1,6 6 0,4,5,7 1,2,7 3,7 "
    "0,4,5,8 1,2,8 3,7,8 6,8 6,7 3,8 0,4,6 0,5,7 0,5,8 0,6 4,6 0,1,7 2,7 0,1,8 2,8"
)


def test_planar_family_asks_no_disjoint_pair(monkeypatch):
    fam = family([vrep_set(f"m{i}", pts) for i, pts in enumerate(PLANAR_FAMILY)])
    asked = joint_lps(monkeypatch)
    sol = piercing_number(fam)
    assert (len(sol.points), sol.optimal) == (5, True)
    before = [tuple(map(int, k.split(","))) for k in PLANAR_LPS_BEFORE.split()]
    disjoint = {k for k in before if len(k) == 2 and intersect_nonempty(fam, k) is None}
    assert len(before) == 48 and len(disjoint) == 17
    assert [tuple(k) for k in asked] == [k for k in before if k not in disjoint]


def test_false_seed_answers_a_key_past_its_lowest_member(monkeypatch):
    # the seed {2, 5} sits in the bucket of member 2; the key {0, 2, 5}
    # must find it there, not only in the bucket of its lowest member 0
    fam = family([hrep_set(f"I{i}", [((1,), hi), ((-1,), -lo)])
                  for i, (lo, hi) in enumerate([(0, 9), (0, 9), (0, 1), (0, 9), (0, 9), (2, 3)])])
    oracle = IntersectionOracle(fam)
    asked = joint_lps(monkeypatch)
    assert not oracle.intersecting([2, 5])
    assert oracle.witness([0, 2, 5]) is None
    assert not oracle.intersecting([2, 3, 4, 5])
    assert asked == [[2, 5]]


def test_pq_property_identical_squares():
    fam = family([box2(f"Q{i}", 0, 1, 0, 1) for i in range(4)])
    rep = has_pq_property(fam, 4, 4)
    assert rep.holds and rep.violating_tuple is None and rep.checked_tuples == 1


def test_pq_property_line_example():
    rep = has_pq_property(gruenbaum_line(3), 4, 3)
    assert rep.holds
    # a second copy of the singleton breaks the property
    rep2 = has_pq_property(gruenbaum_line(3, copies_of_f0=2), 4, 3)
    assert not rep2.holds
    assert rep2.violating_tuple == (0, 1, 2, 3)


def test_pq_downward_closure():
    fam = gruenbaum_line(4)
    assert has_pq_property(fam, 4, 3).holds
    assert has_pq_property(fam, 5, 3).holds


def test_pq_scan_validation():
    with pytest.raises(MalformedInputError):
        pq_property_scan(3, 2, 0, lambda s: True)
    with pytest.raises(MalformedInputError):
        pq_property_scan(3, 2, 3, lambda s: True)
    with pytest.raises(MalformedInputError):
        pq_property_scan(3, 4, 2, lambda s: True)


def test_pq_scan_stops_past_the_tuple_cap(monkeypatch):
    # the cap counts every q-subset of every p-tuple, checked before the scan
    # pqpierce.hypergraph names the constructor, so the module is found by name
    monkeypatch.setattr(sys.modules["pqpierce.hypergraph"], "TUPLE_CAP", comb(6, 3) * comb(3, 2))
    assert pq_property_scan(6, 3, 2, lambda s: True) == (True, None, 20)
    for n, p, q in ((7, 3, 2), (6, 4, 2)):  # more tuples, more subsets each
        with pytest.raises(MalformedInputError, match="tuple cap"):
            pq_property_scan(n, p, q, lambda s: True)


def reference_scan(n, p, q, query):
    """The plain scan: each tuple asks its q-subsets afresh, up to the
    first that holds."""
    checked = 0
    for tup in combinations(range(n), p):
        checked += 1
        if not any(query(sub) for sub in combinations(tup, q)):
            return False, tup, checked
    return True, None, checked


@st.composite
def scan_cases(draw):
    """n, p, q and an answer for each q-subset, three in four true."""
    n = draw(st.integers(1, 7))
    p = draw(st.integers(1, n))
    q = draw(st.integers(1, p))
    subs = list(combinations(range(n), q))
    answers = draw(st.lists(st.integers(0, 3).map(bool), min_size=len(subs), max_size=len(subs)))
    return n, p, q, dict(zip(subs, answers))


@settings(max_examples=300, deadline=None)
@given(scan_cases())
def test_pq_scan_asks_each_subset_once_in_the_reference_order(case):
    n, p, q, answers = case
    asked, ref_asked = [], []
    got = pq_property_scan(n, p, q, lambda sub: asked.append(sub) or answers[sub])
    assert got == reference_scan(n, p, q, lambda sub: ref_asked.append(sub) or answers[sub])
    assert len(set(asked)) == len(asked)
    assert asked == list(dict.fromkeys(ref_asked))


def test_piercing_shared_point():
    fam = family([box2("A", 0, 2, 0, 2), box2("B", 1, 3, 1, 3), box2("C", 1, 2, 1, 2)])
    sol = piercing_number(fam)
    assert len(sol.points) == 1 and sol.optimal
    assert all(contains_point(s, sol.points[0]) for s in fam.sets)


def test_piercing_triangle_sides():
    sol = piercing_number(triangle_sides())
    assert len(sol.points) == 2 and sol.optimal


def test_piercing_escaping_truncation():
    fam = family([unbounded_member(1, n) for n in range(2, 11)])
    sol = piercing_number(fam)
    assert len(sol.points) == 1
    assert contains_point(fam.sets[-1], sol.points[0])


def test_piercing_empty_member_rejected():
    fam = family([hrep_set("E", [((1, 0), -1), ((-1, 0), 0)]), box2("B", 0, 1, 0, 1)])
    with pytest.raises(EmptySetError):
        piercing_number(fam)


def test_piercing_leaves_no_reference_cycle():
    # a cycle would keep the oracle, its memo and the family alive until
    # the cyclic collector runs; allocating ints does not count towards
    # its next run, so with int rows a cycle can stay in peak memory long.
    # The pipelines run on the golden fixtures.
    fam = triangle_sides()
    gc.disable()
    try:
        gc.collect()
        assert len(piercing_number(fam).points) == 2
        assert gc.collect() == 0
        for name in ("s1", "s2", "main", "counterexample", "corollary52"):
            test_golden.CASES[name]()
            assert gc.collect() == 0, name
    finally:
        gc.enable()


def test_piercing_limit_falls_back_to_greedy():
    sol = piercing_number(triangle_sides(), limit=1)
    assert not sol.optimal
    assert len(sol.points) == 2  # first fit still finds a valid cover


def test_piercing_vs_brute_force_random():
    rng = random.Random(7)
    for _ in range(40):
        fam = random_family(rng, rng.randint(2, 5))
        sol = piercing_number(fam)
        assert sol.optimal
        assert len(sol.points) == brute_piercing(fam)


def test_piercing_monotone_under_additions():
    rng = random.Random(3)
    for _ in range(20):
        fam = random_family(rng, 4)
        bigger = family(list(fam.sets) + [vrep_set("extra", [(100, 100)])])
        assert len(piercing_number(bigger).points) >= len(piercing_number(fam).points)


def test_min_partition_rejects_bad_singletons():
    # without a limit, a member that is empty on its own fits no part
    fam = family([box2("B", 0, 1, 0, 1), hrep_set("E", [((1, 0), -1), ((-1, 0), 0)])])
    with pytest.raises(MalformedInputError):
        min_partition(IntersectionOracle(fam), range(2))


def test_min_partition_parts_are_family_indices():
    # parts list family indices in the order given, opened in that order
    fam = family([box2("A", 0, 1, 0, 1), box2("B", 3, 4, 0, 1),
                  box2("C", 6, 7, 0, 1), box2("D", 1, 2, 0, 1)])
    oracle = IntersectionOracle(fam)
    assert min_partition(oracle, [1, 3, 0, 2]) == ([[1], [3, 0], [2]], True)
    assert min_partition(oracle, []) == ([], True)


def reference_partition(oracle, indices, limit=None):
    """The recursive search with a greedy first-fit fallback that
    min_partition replaced: (parts, optimal)."""
    def assign(idx, at, parts, classes):
        if at == len(idx):
            return True
        i = idx[at]
        for members in classes:
            members.append(i)
            if oracle.intersecting(members) and assign(idx, at + 1, parts, classes):
                return True
            members.pop()
        if len(classes) < parts and oracle.intersecting([i]):
            classes.append([i])
            if assign(idx, at + 1, parts, classes):
                return True
            classes.pop()
        return False

    idx = list(indices)
    cap = len(idx) if limit is None else min(limit, len(idx))
    for parts in range(cap + 1):
        classes = []
        if assign(idx, 0, parts, classes):
            return classes, True
    classes = []
    for i in idx:
        for members in classes:
            if oracle.intersecting(members + [i]):
                members.append(i)
                break
        else:
            classes.append([i])
    return classes, False


@st.composite
def vrep_families(draw):
    """Up to 8 V-reps in R^1 or R^2, each of 1 to 3 small int points."""
    d = draw(st.integers(1, 2))
    point = st.tuples(*[st.integers(-4, 4)] * d)
    members = draw(st.lists(st.lists(point, min_size=1, max_size=3, unique=True), min_size=1, max_size=8))
    return family([vrep_set(f"V{i}", pts) for i, pts in enumerate(members)])


def _partition_and_keys(search, fam, limit):
    """search's (parts, optimal) on a fresh oracle, and the joint LPs it asked."""
    asked = []
    joint = pqpierce.piercing.intersect_nonempty
    with mock.patch("pqpierce.piercing.intersect_nonempty",
                    lambda f, indices: asked.append(indices) or joint(f, indices)):
        return search(IntersectionOracle(fam), range(len(fam)), limit), asked


def _is_subsequence(short, long):
    rest = iter(long)
    return all(key in rest for key in short)


@settings(max_examples=120, deadline=None)
@given(vrep_families(), st.sampled_from([None, 1, 2]))
def test_min_partition_matches_the_recursive_search_and_greedy_fallback(fam, limit):
    got, asked = _partition_and_keys(min_partition, fam, limit)
    expected, ref_asked = _partition_and_keys(reference_partition, fam, limit)
    assert got == expected
    if got[1]:
        assert asked == ref_asked
    else:
        # the first descent asks a singleton where it opens a class, which
        # first fit never asks; its witness's mask may answer a later key
        assert all(len(key) == 1 for key in asked if key not in ref_asked)
        assert _is_subsequence([key for key in asked if key in ref_asked], ref_asked)


def test_oracle_join_renames_and_stays_sound():
    fam = family([box2("A", 0, 2, 0, 2), box2("B", 1, 3, 1, 3)])
    oracle = IntersectionOracle(fam)
    assert oracle.intersecting([0, 1])  # its mask cannot name a later member
    box = oracle.join(box2("A", 5, 6, 5, 6))
    assert box == 2 and oracle.fam.labels == ("A", "B", "A'")
    assert not oracle.intersecting([0, box])
    assert oracle.join(box2("A", 0, 9, 0, 9)) == 3 and oracle.fam.labels[3] == "A''"
    assert contains_point(oracle.fam.sets[3], oracle.witness([0, 1, 3]))
    assert not oracle.intersecting([0, 1, 2, 3])


def test_build_GF():
    shared = family([box2(f"Q{i}", 0, 1, 0, 1) for i in range(4)])
    assert build_GF(shared).edges == ()
    line = gruenbaum_line(3)
    gf = build_GF(line)
    assert gf.edges == ((0, 1), (0, 2), (0, 3))
    assert gf.arity == 2
    assert transversal_number(gf) == (1, (0,))


def test_gf_matches_direct_subset_checks():
    rng = random.Random(19)
    fam = random_family(rng, 6)
    oracle = IntersectionOracle(fam)
    gf = build_GF(fam, oracle)
    for tup in combinations(range(6), 3):
        assert (tup in gf.edges) == (not oracle.intersecting(tup))


def test_is_m_free():
    apart = family([box2("A", 0, 1, 0, 1), box2("B", 2, 3, 0, 1)])
    assert is_m_free(apart, [0, 1], 1)
    overlap = family([box2("A", 0, 2, 0, 2), box2("B", 1, 3, 1, 3)])
    assert not is_m_free(overlap, [0, 1], 1)
    with_ray = family([box2("A", 0, 1, 0, 1), vrep_set("R", [(2, 0)], rays=[(1, 0)])])
    assert not is_m_free(with_ray, [0, 1], 1)  # unbounded member
    assert is_m_free(with_ray, [0], 1)  # below size m+1, compactness only
    with pytest.raises(MalformedInputError):
        is_m_free(apart, [0, 1], 0)
    # an empty member is vacuously compact and meets no other member
    void = hrep_set("E", [((1, 0), -1), ((-1, 0), 0)])
    with_void = family([box2("A", 0, 2, 0, 2), box2("B", 1, 3, 1, 3), void])
    assert is_m_free(with_void, [0, 2], 1)
    assert not is_m_free(with_void, [0, 1, 2], 1)
    # the C(30, 16) = 145 M subsets of 30 points pass the tuple cap
    points = family([vrep_set(f"x{i}", [(i, 0)]) for i in range(30)])
    with pytest.raises(MalformedInputError, match="tuple cap"):
        is_m_free(points, range(30), 15)


def test_piercing_json():
    sol = piercing_number(triangle_sides())
    j = to_json(sol)
    assert set(j) == {"points", "assignment", "optimal"}
    assert sorted(j["assignment"]) == ["0", "1", "2"]
    assert all(isinstance(c, (int, str)) for p in j["points"] for c in p)


# --- the oracle against coordinate comparison on intervals and boxes ----------

_END = st.integers(-3, 3).map(Fraction) | st.sampled_from([Fraction(1, 2), Fraction(-5, 3)])


@st.composite
def boxes_and_queries(draw):
    """Random rational intervals (d = 1) or axis boxes (d = 2), each a
    V-rep or an H-rep, some degenerate, with random index subsets to ask
    about. A degenerate V-rep is lower-dimensional, so it has no rows."""
    d = draw(st.integers(1, 2))
    n = draw(st.integers(1, 6))
    bounds, sets = [], []
    for i in range(n):
        box = [tuple(sorted((draw(_END), draw(_END)))) for _ in range(d)]
        if draw(st.booleans()):
            box[0] = (box[0][0], box[0][0])
        bounds.append(box)
        if draw(st.booleans()):
            sets.append(vrep_set(f"V{i}", product(*box)))
        else:
            rows = []
            for axis, (lo, hi) in enumerate(box):
                e = [int(j == axis) for j in range(d)]
                rows += [(e, hi), ([-a for a in e], -lo)]
            sets.append(hrep_set(f"H{i}", rows))
    queries = draw(st.lists(st.sets(st.integers(0, n - 1), min_size=1), min_size=1, max_size=8))
    return family(sets), bounds, queries


@settings(max_examples=150, deadline=None)
@given(boxes_and_queries())
def test_oracle_matches_coordinate_comparison(case):
    # each query's superset is asked before it and its subsets after it,
    # so answers also come from witness masks and from false seeds
    fam, bounds, queries = case
    oracle = IntersectionOracle(fam)
    asked = [sorted(set().union(*queries))]
    for q in queries:
        asked += [sorted(q)] + [list(sub) for sub in combinations(sorted(q), len(q) - 1) if sub]
    for q in asked:
        meet = all(
            max(bounds[i][axis][0] for i in q) <= min(bounds[i][axis][1] for i in q)
            for axis in range(fam.dim)
        )
        assert oracle.intersecting(q) == meet
        w = oracle.witness(q)
        assert (w is not None) == meet
        if meet:
            assert all(lo <= w[axis] <= hi for i in q for axis, (lo, hi) in enumerate(bounds[i]))
    for bad in ([-1], [0, len(fam)], [len(fam) + 5]):
        with pytest.raises(MalformedInputError):
            oracle.intersecting(bad)
        with pytest.raises(MalformedInputError):
            oracle.witness(bad)


# --- answers do not depend on the representation or on an isometry ----------

_COORD = st.integers(-2, 2)


@st.composite
def families_in_four_forms(draw):
    """One random family in R^1..R^3 of 2-7 V-reps (1-5 points each, a
    ray on about a quarter of them), as V-reps, as their H-reps, as a
    random mix of the two, and as that mix moved by an exact signed
    permutation plus a translation. Touching members are common, so
    both strict and tight separations are drawn."""
    d = draw(st.integers(1, 3))
    vreps = []
    for i in range(draw(st.integers(2, 7))):
        points = draw(st.lists(st.tuples(*[_COORD] * d), min_size=1, max_size=5))
        rays = [draw(st.tuples(*[_COORD] * d).filter(any))] if draw(st.integers(0, 3)) == 0 else []
        vreps.append(vrep_set(f"m{i}", points, rays))
    assume(all(s.rep.rows for s in vreps))
    hreps = [hrep_set(s.label, s.rep.rows, d) for s in vreps]
    mix = [draw(st.sampled_from(pair)) for pair in zip(vreps, hreps)]
    perm = draw(st.permutations(range(d)))
    signs = draw(st.lists(st.sampled_from((-1, 1)), min_size=d, max_size=d))
    shift = draw(st.lists(_COORD, min_size=d, max_size=d))

    def direction(v):
        return [sg * v[j] for sg, j in zip(signs, perm)]

    def move(s):
        if isinstance(s.rep, HRep):  # n . x <= b becomes n' . x' <= b + n' . t, n' = S P n
            return hrep_set(s.label, [
                (direction(n), b + sum(map(operator.mul, direction(n), shift))) for n, b in s.rep.rows
            ], d)
        points = [[a + t for a, t in zip(direction(p), shift)] for p in s.rep.points]
        return vrep_set(s.label, points, [direction(r) for r in s.rep.rays])

    return [family(sets) for sets in (vreps, hreps, mix, [move(s) for s in mix])]


def _path_free_answers(fam):
    """What a family's answers are, whichever path (mask, false seed,
    separating row, LP) gives them; the points may differ."""
    n = len(fam)
    oracle = IntersectionOracle(fam)
    return (
        len(piercing_number(fam).points),
        [has_pq_property(fam, p, q) for p in range(1, min(4, n) + 1) for q in range(1, p + 1)],
        build_GF(fam).edges,
        [oracle.intersecting(pair) for pair in combinations(range(n), 2)],
    )


@settings(max_examples=100, deadline=None)
@given(families_in_four_forms())
def test_answers_invariant_across_representations_and_isometries(forms):
    first, *others = map(_path_free_answers, forms)
    assert all(answers == first for answers in others)


def test_oracle_mask_takes_a_rowless_member_through_its_key(monkeypatch):
    # the point {1} is a V-rep without rows: no witness is substituted
    # into it, but an LP key that holds it puts it in that witness's mask
    fam = family([hrep_set("I", [((1,), 2), ((-1,), 0)]), vrep_set("P", [(1,)])])
    oracle = IntersectionOracle(fam)
    asked = joint_lps(monkeypatch)
    assert oracle.witness([0, 1]) == (Fraction(1),)
    assert oracle.intersecting([1]) and oracle.intersecting([0])
    assert asked == [[0, 1]]
