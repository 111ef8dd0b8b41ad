"""Geometric primitives: membership, joint intersection, recession,
projection, hulls, lifted projections, coordinate changes, JSON."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqpierce.errors import EmptySetError, MalformedInputError
from pqpierce.constructions import bounded_member
from pqpierce.lp import LinearSystem, completed_basis_matrix, invert_matrix, lp_feasible
from pqpierce.rational import dot, point, rat
from pqpierce.sets import (
    MAX_DIM,
    Family,
    VRep,
    _separating_row,
    change_coordinates,
    common_recession_direction,
    contains_point,
    convex_hull_union,
    direction_in_recession_cone,
    family,
    family_from_json,
    family_to_json,
    hrep_set,
    intersect_nonempty,
    is_bounded,
    is_empty,
    lifted_projection_witness,
    project_drop_last,
    set_from_json,
    set_to_json,
    some_point,
    vrep_set,
)

from test_lp import le


def box2(label, x0, x1, y0, y1):
    return vrep_set(label, [(x0, y0), (x1, y0), (x0, y1), (x1, y1)])


def test_vrep_membership_with_ray():
    a2 = vrep_set("A_2", [(0, "1/2"), (2, 0)], rays=[(1, 0)])
    assert contains_point(a2, (5, 0))
    assert contains_point(a2, (1, "1/4"))
    assert not contains_point(a2, (0, 0))
    assert not contains_point(a2, (-1, "1/2"))


def test_hrep_membership_direct():
    tri = hrep_set("T", [((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)])
    assert contains_point(tri, ("1/2", "1/2"))
    assert contains_point(tri, (0, 0))
    assert not contains_point(tri, (1, 1))


def test_membership_arity_checked():
    sq = box2("S", 0, 1, 0, 1)
    with pytest.raises(MalformedInputError):
        contains_point(sq, (0, 0, 0))


def test_simplex_pair_intersection_witness():
    # conv{0, (a,0), (1,a)} for a = 1/3 and a = 1/2 meet at (2/3, 1/6)
    s3 = vrep_set("S3", [(0, 0), ("1/3", 0), (1, "1/3")])
    s2 = vrep_set("S2", [(0, 0), ("1/2", 0), (1, "1/2")])
    fam = family([s3, s2])
    assert intersect_nonempty(fam, [0, 1]) is not None
    frozen = point(("2/3", "1/6"))
    assert contains_point(s3, frozen) and contains_point(s2, frozen)


def test_disjoint_squares_no_witness():
    fam = family([box2("P", 0, 1, 0, 1), box2("Q", 2, 3, 0, 1)])
    assert intersect_nonempty(fam, [0, 1]) is None


def test_intersect_mixed_reps():
    halfplane = hrep_set("H", [((-1, 0), -2)])  # x >= 2
    sq = box2("S", 0, 3, 0, 1)
    fam = family([halfplane, sq])
    w = intersect_nonempty(fam, [0, 1])
    assert w is not None
    assert w[0] >= 2 and 0 <= w[1] <= 1


def test_joint_lp_takes_the_int_rows():
    # h0 enters the LP as HRep.rows, each halfspace times the lcm of its
    # denominators; the simplex weighs each artificial variable by its
    # row's scale, so the witness is the int rows' own
    h0 = hrep_set("h0", [((-1, 0), "-3/4"), ((3, 2), "2/3")])
    h1 = hrep_set("h1", [((1, 2), -2), ((-1, 2), 2)])
    w = intersect_nonempty(family([h0, h1]), [0, 1])
    assert w == point(("4/3", "-5/3"))
    assert contains_point(h0, w) and contains_point(h1, w)


def test_intersect_empty_indices_rejected():
    fam = family([box2("S", 0, 1, 0, 1)])
    with pytest.raises(MalformedInputError):
        intersect_nonempty(fam, [])


def test_is_empty():
    assert is_empty(hrep_set("E", [((1,), -1), ((-1,), 0)]))
    assert not is_empty(hrep_set("R", [((1,), 5)]))
    assert not is_empty(vrep_set("P", [(0, 0)]))


def test_some_point_is_the_point_or_none():
    assert some_point(hrep_set("E", [((1,), -1), ((-1,), 0)])) is None
    seg = hrep_set("S", [((1,), 5), ((-1,), -2)])  # 2 <= x <= 5
    assert contains_point(seg, some_point(seg))
    assert some_point(vrep_set("P", [(1, 2), (3, 4)])) == (1, 2)


def test_direction_in_recession_cone_vrep():
    a2 = vrep_set("A_2", [(0, "1/2"), (2, 0)], rays=[(1, 0)])
    assert direction_in_recession_cone(a2, (7, 0))
    assert not direction_in_recession_cone(a2, (0, 1))


def test_direction_in_recession_cone_hrep_wedge():
    # the empty H-rep's EmptySetError is asserted on common_recession_direction
    wedge = hrep_set("W", [((0, -1), 0), ((1, -1), 3)])
    assert direction_in_recession_cone(wedge, (1, 1))
    assert direction_in_recession_cone(wedge, (1, 2))
    assert not direction_in_recession_cone(wedge, (1, 0))


def test_direction_in_recession_cone():
    a2 = vrep_set("A_2", [(0, "1/2"), (2, 0)], rays=[(1, 0)])
    assert direction_in_recession_cone(a2, (1, 0))
    assert direction_in_recession_cone(a2, (3, 0))
    assert direction_in_recession_cone(a2, (0, 0))
    assert not direction_in_recession_cone(a2, (0, 1))
    half = hrep_set("H", [((0, -1), 0)])  # y >= 0
    assert direction_in_recession_cone(half, (5, 2))
    assert not direction_in_recession_cone(half, (0, -1))


def test_common_recession_direction_probe():
    # {y >= 0, y >= x}: every valid v has v2 >= max(v1, 0)
    s = hrep_set("C", [((0, -1), 0), ((1, -1), 0)])
    fam = family([s])
    v = common_recession_direction(fam)
    assert v is not None
    assert v[1] >= v[0] and v[1] >= 0 and any(c != 0 for c in v)
    empty = hrep_set("E", [((-1, 0), -1), ((1, 0), 0)])  # x >= 1 and x <= 0
    with pytest.raises(EmptySetError):
        common_recession_direction(family([s, empty]))


def test_common_recession_direction_none_for_bounded_member():
    fam = family([box2("B", 0, 1, 0, 1), hrep_set("H", [((0, -1), 0)])])
    assert common_recession_direction(fam) is None


def test_common_recession_direction_mixed_family():
    a1 = vrep_set("A_1", [(0, 1), (1, 0)], rays=[(1, 0)])
    h = hrep_set("H", [((0, 1), 10)])  # y <= 10
    v = common_recession_direction(family([a1, h]))
    assert v is not None
    assert direction_in_recession_cone(a1, v) and direction_in_recession_cone(h, v)


def test_common_recession_direction_is_rechecked(monkeypatch):
    # x <= 0 recedes along -e1 only; an LP that answers +e1 must not pass
    fam = family([hrep_set("H", [((1, 0), 0)])])
    wrong = lambda system: (True, (Fraction(1),) + (Fraction(0),) * (system.dim - 1))
    monkeypatch.setattr("pqpierce.sets.lp_feasible", wrong)
    with pytest.raises(AssertionError, match="escaped"):
        common_recession_direction(fam)


def test_points_stay_inside_along_recession_direction():
    a1 = vrep_set("A_1", [(0, 1), (1, 0)], rays=[(1, 0)])
    h = hrep_set("H", [((0, 1), 10), ((-1, -1), 0)])
    fam = family([a1, h])
    v = common_recession_direction(fam)
    assert v is not None
    base = intersect_nonempty(fam, [0, 1])
    assert base is not None
    for t in (1, 10, 1000):
        moved = tuple(b + rat(t) * c for b, c in zip(base, v))
        assert contains_point(a1, moved) and contains_point(h, moved)


def test_is_bounded():
    assert is_bounded(box2("B", 0, 1, 0, 1))
    assert not is_bounded(vrep_set("A", [(0, 0)], rays=[(1, 0)]))
    assert not is_bounded(hrep_set("H", [((0, -1), 0)]))
    assert is_bounded(hrep_set("T", [((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)]))


def test_project_triangle_to_interval():
    tri = hrep_set("T", [((1, 1), 1), ((0, -1), 0), ((-1, 0), 0)])
    seg = project_drop_last(tri)
    assert seg.dim == 1 and seg.label == "proj(T)"
    for x, inside in [(0, True), (1, True), ("1/2", True), ("3/2", False), ("-1/10", False)]:
        assert contains_point(seg, (x,)) is inside


def test_project_vrep_drops_coordinate():
    sq = box2("S", 1, 2, 3, 4)
    seg = project_drop_last(sq)
    assert isinstance(seg.rep, VRep)
    assert set(seg.rep.points) == {point((1,)), point((2,))}
    assert contains_point(seg, ("3/2",)) and not contains_point(seg, ("5/2",))


def test_projection_agreement_between_reps():
    vbox = box2("V", 1, 2, 3, 4)
    hbox = hrep_set("H", [((1, 0), 2), ((-1, 0), -1), ((0, 1), 4), ((0, -1), -3)])
    pv, ph = project_drop_last(vbox), project_drop_last(hbox)
    for x in (1, "3/2", 2, "1/2", "5/2", 0):
        assert contains_point(pv, (x,)) == contains_point(ph, (x,))


def test_project_empty_stays_empty():
    empty = hrep_set("E", [((0, 1), -1), ((0, -1), 0)])  # y <= -1, y >= 0
    proj = project_drop_last(empty)
    assert is_empty(proj)


def test_project_unbounded_hrep():
    # y >= x and y <= 1 projects to x <= 1
    s = hrep_set("S", [((1, -1), 0), ((0, 1), 1)])
    p = project_drop_last(s)
    assert contains_point(p, (1,)) and contains_point(p, (-100,))
    assert not contains_point(p, ("11/10",))


def _random_hreps(rng):
    """120 random H-reps in R^2-R^4 with fractional rows through a point
    c, some of them empty, each drawn when asked for: (c, set)."""
    for _ in range(120):
        d = rng.randint(2, 4)
        c = [_frac(rng) for _ in range(d)]
        rows = []
        for _ in range(rng.randint(1, 7)):
            normal = [_frac(rng, 4) if rng.random() < 0.8 else 0 for _ in range(d)]
            if any(normal):
                rows.append((normal, dot(point(normal), point(c)) + Fraction(rng.randint(-2, 6), 3)))
        yield c, hrep_set("S", rows, dim=d)


def test_projection_holds_the_points_whose_line_meets_the_set():
    # x' lies in the shadow exactly when the line through (x', 0) along
    # the last axis meets the set, probed near c
    rng = random.Random(7)
    seen = set()
    for c, s in _random_hreps(rng):
        d = s.dim
        shadow = project_drop_last(s)
        up = tuple(int(i == d - 1) for i in range(d))
        for _ in range(4):
            x = tuple(a + Fraction(rng.randint(-6, 6), 4) for a in c[:-1])
            line = vrep_set("L", [(*x, 0)], rays=[up, tuple(-a for a in up)])
            inside = contains_point(shadow, x)
            assert inside == (intersect_nonempty(family([s, line]), [0, 1]) is not None), (s, x)
            seen.add(inside)
    assert seen == {True, False}


def test_projection_of_an_hrep_keeps_only_facets():
    # row i of a shadow is a facet exactly when some x meets every other
    # row and breaks row i: over (x, t), n_j . x - b_j t <= 0 for j != i,
    # t >= 1 and n_i . x - b_i t >= 1, a homogeneous system, so a point
    # breaking row i by any margin scales up to one breaking it by 1
    checked = 0
    for _, s in _random_hreps(random.Random(7)):
        if is_empty(s):
            continue
        rows = project_drop_last(s).rep.rows
        n = s.dim  # x in R^(d-1), then t
        for i, (normal, offset) in enumerate(rows):
            lp = [le([*a, -b], 0) for j, (a, b) in enumerate(rows) if j != i]
            lp += [le([0] * (n - 1) + [-1], -1), le([-a for a in normal] + [offset], -1)]
            assert lp_feasible(LinearSystem(n, tuple(lp)))[0], (s, normal, offset)
            checked += 1
    assert checked


def test_project_rejects_dim_one():
    with pytest.raises(MalformedInputError):
        project_drop_last(hrep_set("I", [((1,), 1)]))


def test_projection_of_one_halfspace_in_r199_passes_the_work_cap():
    # the image's 2 * 198 lineality rays each update every lineality
    # vector in _cone, which passes DD_WORK_CAP after a lineality row;
    # R^198 still projects. A projection that kept the lineality as such
    # would answer here, and this test would fail
    s = hrep_set("H", [((1,) + (0,) * 198, 1)])  # x_1 <= 1
    start = time.process_time()
    with pytest.raises(MalformedInputError, match="396 rows in R\\^199 passes the work cap"):
        project_drop_last(s)
    assert time.process_time() - start < 5


def test_convex_hull_union():
    a = vrep_set("P", [(0,)])
    b = vrep_set("Q", [(2,), (3,)])
    fam = family([a, b])
    hull = convex_hull_union(fam, [0, 1])
    assert hull.label == "hull(P,Q)"
    assert contains_point(hull, (1,)) and contains_point(hull, (3,))
    assert not contains_point(hull, ("-1/2",)) and not contains_point(hull, ("7/2",))


def test_convex_hull_union_dedupes_large_members_in_one_pass():
    # 4,096 corners of two boxes in R^11, then the first box again: a
    # list scan per point took 5.9 s on a 2-core x86_64 host, one dict
    # pass 0.06 s
    b1, b2 = bounded_member(10, 1), bounded_member(10, 2)
    fam = family([b1, b2, replace(b1, label="B_1'")])
    start = time.process_time()
    hull = convex_hull_union(fam, [0, 1, 2])
    assert time.process_time() - start < 1
    assert hull.rep.points == b1.rep.points + b2.rep.points


def test_convex_hull_union_takes_hrep():
    # x <= 1 has the vertex 1 and the ray -1; with the point 3: x <= 3
    fam = family([vrep_set("P", [(3,)]), hrep_set("H", [((1,), 1)])])
    hull = convex_hull_union(fam, [0, 1])
    assert hull.rep == VRep((point((3,)), point((1,))), (point((-1,)),))
    assert contains_point(hull, (-100,)) and not contains_point(hull, ("7/2",))
    # a strip with lineality: both signs of the line's direction are rays
    strip = hrep_set("S", [((0, 1), 1), ((0, -1), 0)])
    hull = convex_hull_union(family([strip]), [0])
    assert set(hull.rep.rays) == {point((1, 0)), point((-1, 0))}
    assert contains_point(hull, (-9, "1/2")) and not contains_point(hull, (0, 2))
    empty = hrep_set("E", [((1,), -1), ((-1,), 0)])
    with pytest.raises(EmptySetError):
        convex_hull_union(family([vrep_set("P", [(0,)]), empty]), [0, 1])


def test_lifted_projection_of_skew_segments():
    # parallel shifted segments: disjoint, but their shadows share [0,1]
    a = vrep_set("A", [(0, 0), (1, 1)])
    b = vrep_set("B", [(0, 1), (1, 2)])
    box = box2("box", 0, 1, -5, 5)
    fam = family([a, b])
    assert intersect_nonempty(fam, [0, 1]) is None
    x = lifted_projection_witness([a, b], box)
    assert x is not None and len(x) == 1 and 0 <= x[0] <= 1


def test_lifted_projection_respects_box():
    # the box cuts both segments' shadows down to disjoint pieces
    a = vrep_set("A", [(0, 0), (1, 0)])
    b = vrep_set("B", [(2, 0), (3, 0)])
    box = box2("box", 0, 3, -1, 1)
    assert lifted_projection_witness([a, b], box) is None


def test_lifted_projection_requires_compact_box():
    a = vrep_set("A", [(0, 0)])
    ray_box = vrep_set("rb", [(0, 0)], rays=[(1, 0)])
    with pytest.raises(MalformedInputError):
        lifted_projection_witness([a], ray_box)
    with pytest.raises(MalformedInputError):
        lifted_projection_witness([a], hrep_set("hb", [((1, 0), 1)]))


def test_change_coordinates_swap_axes():
    fwd = tuple((point((0, 1)), point((1, 0))))
    inv = invert_matrix(fwd)
    sq = box2("S", 0, 1, 2, 3)
    swapped = change_coordinates(sq, fwd, inv)
    assert contains_point(swapped, ("5/2", "1/2"))
    assert not contains_point(swapped, ("1/2", "5/2"))
    h = hrep_set("H", [((1, 0), 1), ((-1, 0), 0), ((0, 1), 3), ((0, -1), -2)])
    hs = change_coordinates(h, fwd, inv)
    assert contains_point(hs, ("5/2", "1/2"))
    assert not contains_point(hs, ("1/2", "5/2"))


def test_change_coordinates_sends_direction_to_last_axis():
    v = point((1, 2))
    inv = completed_basis_matrix(v)  # maps the last axis onto v
    fwd = invert_matrix(inv)
    ray = vrep_set("R", [(0, 0)], rays=[v])
    moved = change_coordinates(ray, fwd, inv)
    assert direction_in_recession_cone(moved, (0, 1))
    assert not direction_in_recession_cone(moved, (1, 0))


def test_family_validation():
    with pytest.raises(MalformedInputError):
        Family(2, (box2("A", 0, 1, 0, 1), box2("A", 2, 3, 0, 1)))
    with pytest.raises(MalformedInputError):
        Family(3, (box2("A", 0, 1, 0, 1),))
    fam = family([box2("A", 0, 1, 0, 1), box2("B", 2, 3, 0, 1)])
    with pytest.raises(MalformedInputError):
        fam.select([2])


def test_rep_invariants():
    with pytest.raises(MalformedInputError):
        vrep_set("Z", [(0, 0)], rays=[(0, 0)])
    with pytest.raises(MalformedInputError):
        vrep_set("Z", [])
    with pytest.raises(MalformedInputError):
        vrep_set("Z", ["12"])  # a string is not a coordinate sequence
    with pytest.raises(MalformedInputError):
        hrep_set("Z", [((0, 0), -1)])
    with pytest.raises(MalformedInputError):
        hrep_set("Z", [((0, 0), "-1/2")])
    assert hrep_set("Z", [((0, 0), 0)]).rep.rows == (((0, 0), 0),)  # vacuous rows are fine


def test_hrep_rows_are_the_halfspaces_scaled_to_ints():
    s = hrep_set("F", [(("1/2", "1/3"), 1)])
    assert s.rep.rows == (((3, 2), 6),)
    assert set_to_json(s)["hrep"] == [{"normal": [3, 2], "offset": 6}]
    assert set_from_json(set_to_json(s)) == s


def test_set_json_roundtrip():
    a2 = vrep_set("A_2", [(0, "1/2"), (2, 0)], rays=[(1, 0)])
    tri = hrep_set("T", [((1, 1), 1), ((-1, 0), 0), ((0, -1), 0)])
    for s in (a2, tri):
        again = set_from_json(set_to_json(s))
        assert again.label == s.label and again.dim == s.dim and again.rep == s.rep


def test_family_json_roundtrip():
    fam = family([box2("A", 0, 1, 0, 1), hrep_set("H", [((0, -1), 0)])])
    again = family_from_json(family_to_json(fam))
    assert again == fam


def test_json_rejects_malformed():
    with pytest.raises(MalformedInputError):
        set_from_json({"label": "X", "dim": 1})
    with pytest.raises(MalformedInputError):
        set_from_json({"label": "X", "dim": 1, "vrep": {"points": [[0]]},
                       "hrep": [{"normal": [1], "offset": 1}]})
    with pytest.raises(MalformedInputError):
        set_from_json({"label": "X", "dim": 1, "vrep": {"points": [[0.5]]}})
    with pytest.raises(MalformedInputError):
        set_from_json({"label": "X", "dim": True, "vrep": {"points": [[0]]}})
    with pytest.raises(MalformedInputError):
        set_from_json({"label": "X", "dim": MAX_DIM + 1, "hrep": []})
    with pytest.raises(MalformedInputError):
        family_from_json({"dimension": 2, "sets": [
            {"label": "A", "dim": 2, "vrep": {"points": [[0, 0]]}},
            {"label": "A", "dim": 2, "vrep": {"points": [[1, 1]]}},
        ]})


# --- rows of small V-reps against the multiplier LP ---------------------------

def multiplier_lp_member(pts, rays, x):
    """x in conv(pts) + cone(rays), as the LP over the multipliers m in
    <= rows: each equation as two rows, each m_k >= 0 as -m_k <= 0."""
    m, k = len(pts), len(rays)
    gens = list(pts) + list(rays)
    eqs = [([g[i] for g in gens], x[i]) for i in range(len(x))] + [([1] * m + [0] * k, 1)]
    rows = [le(c, b) for c, b in eqs] + [le([-a for a in c], -b) for c, b in eqs]
    rows += [le([-int(i == j) for j in range(m + k)], 0) for i in range(m + k)]
    return lp_feasible(LinearSystem(m + k, tuple(rows)))[0]


def rank(vectors):
    rows = [list(v) for v in vectors]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, len(rows)):
            f = Fraction(rows[i][c]) / rows[r][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


_COORD = st.integers(-2, 2).map(Fraction) | st.sampled_from([Fraction(1, 2), Fraction(-2, 3)])


@st.composite
def small_vrep_and_point(draw):
    d = draw(st.integers(1, 3))
    vec = st.tuples(*[_COORD] * d)
    pts = draw(st.lists(vec, min_size=1, max_size=d + 3))
    rays = draw(st.lists(vec.filter(any), max_size=2))
    return pts, rays, draw(vec)


@settings(max_examples=200, deadline=None)
@given(small_vrep_and_point())
@example(([(0, 0), (0, 1)], [(1, 0), (-1, 0)], (5, 1)))  # strip, lineality +-e1
@example(([(0, 0), (0, 1)], [(1, 0), (-1, 0)], (5, 2)))
@example(([(0, 0)], [(1, 0), (1, 1)], (2, 1)))  # pointed cone
@example(([(0, 0)], [(1, 0), (1, 1)], (1, 2)))
@example(([(0, 0), (2, 1)], [], (4, 2)))  # segment: one equation
@example(([(1, 1, 1)], [], (1, 1, 1)))  # point: three equations
def test_facets_agree_with_the_multiplier_lp(case):
    pts, rays, x = case
    s = vrep_set("V", pts, rays)
    rows = s.rep.rows
    d = s.dim
    gens = [(*p, 1) for p in s.rep.points] + [(*r, 0) for r in s.rep.rays]
    whole = all(direction_in_recession_cone(s, [sign * (i == j) for j in range(d)])
                for i in range(d) for sign in (1, -1))
    assert (rows == ()) == whole
    assert len(set(rows)) == len(rows)
    for normal, offset in rows:
        g = 0
        for a in normal + (offset,):
            assert isinstance(a, int)
            g = gcd(g, a)
        assert g == 1
        assert all(dot(normal, p) <= offset for p in s.rep.points)
        assert all(dot(normal, r) <= 0 for r in s.rep.rays)
    negated = {(tuple(-a for a in normal), -offset) for normal, offset in rows}
    equations = [h for h in rows if h in negated]
    # one equation, as two rows, per dimension the generators do not span
    assert len(equations) == 2 * (d + 1 - rank(gens))
    for normal, offset in equations:
        assert all(dot(normal, p) == offset for p in s.rep.points)
        assert all(dot(normal, r) == 0 for r in s.rep.rays)
    for normal, offset in rows:
        if (normal, offset) not in equations:
            # a facet: its generators span a flat one less than the set's
            on = [g for g in gens if dot(normal, g[:d]) == offset * g[d]]
            assert rank(on) == rank(gens) - 1
    # a point of the set, seen by a lower-dimensional set too
    inside = tuple(Fraction(sum(c), len(pts)) for c in zip(*pts))
    inside = tuple(a + sum(c) for a, *c in zip(inside, *rays))
    for y in (x, inside):
        assert contains_point(s, y) == multiplier_lp_member(pts, rays, y)
    assert contains_point(s, inside)
    # recession by substitution into the rows: v in cone(rays)
    for v in (x, *rays):
        assert direction_in_recession_cone(s, v) == multiplier_lp_member([(0,) * d], rays, v)


@st.composite
def bounded_hrep_and_points(draw):
    d = draw(st.integers(1, 3))
    box = [(tuple(sign * (i == j) for j in range(d)), 2) for i in range(d) for sign in (1, -1)]
    vec = st.tuples(*[_COORD] * d)
    cuts = draw(st.lists(st.tuples(vec.filter(any), _COORD), max_size=4))
    return d, box + cuts, draw(st.lists(vec, min_size=1, max_size=6))


@settings(max_examples=100, deadline=None)
@given(bounded_hrep_and_points())
@example((2, [((1, 0), 1), ((-1, 0), 0), ((0, 1), 1), ((0, -1), 0), ((1, 1), 1)], [(1, 0), (1, 1)]))
def test_hrep_to_vrep_and_back_keeps_membership(case):
    d, halfspaces, probes = case
    h = hrep_set("H", halfspaces, dim=d)
    if is_empty(h):
        with pytest.raises(EmptySetError):
            convex_hull_union(family([h]), [0])
        return
    v = convex_hull_union(family([h]), [0])
    assert isinstance(v.rep, VRep) and v.rep.rays == ()
    assert all(contains_point(h, p) for p in v.rep.points)
    for y in probes:
        assert contains_point(v, y) == contains_point(h, y)
    # the V-rep's rows describe the same set as the H-rep
    again = hrep_set("H2", v.rep.rows, d)
    for y in (*probes, *v.rep.points):
        assert contains_point(again, y) == contains_point(h, y)


def test_largest_counterexample_box_converts_under_the_work_cap():
    box = bounded_member(11, 1)  # 4,096 corners in R^12
    assert len(box.rep.rows) == 24
    assert contains_point(box, (0,) * 12)


# --- int substitution against the Fraction reference --------------------------

def reference_holds(rows, x, direction=False):
    """The Fraction test: normal . x <= offset (<= 0 for a direction),
    over (normal, offset) pairs."""
    return all(dot(normal, point(x)) <= (0 if direction else offset) for normal, offset in rows)


def _frac(rng, top=9):
    return Fraction(rng.randint(-top, top), rng.randint(1, top))


def _moved_out(x, normal, den):
    """x moved 1/den along the first axis the normal leans on, outward."""
    k = next(k for k, a in enumerate(normal) if a)
    return tuple(c + (Fraction(1 if normal[k] > 0 else -1, den) if i == k else 0) for i, c in enumerate(x))


def test_substitution_matches_the_fraction_reference():
    # random H-reps with fractional offsets through a point c lying on
    # row j: c is in, c moved 1/den past row j is out, and random points
    # and directions agree with rational.dot over the halfspaces
    rng = random.Random(7)
    for _ in range(150):
        d = rng.randint(1, 3)
        c = tuple(_frac(rng) for _ in range(d))
        normals = [tuple(_frac(rng) for _ in range(d)) for _ in range(rng.randint(1, 5))]
        normals = [n for n in normals if any(n)] or [(Fraction(1),) * d]
        j = rng.randrange(len(normals))
        offsets = [dot(n, c) + (0 if i == j else abs(_frac(rng))) for i, n in enumerate(normals)]
        hs = list(zip(normals, offsets))
        s = hrep_set("H", hs)
        assert contains_point(s, c) and reference_holds(hs, c)
        den = rng.randint(2, 10 ** 9)
        out = _moved_out(c, normals[j], den)
        assert not contains_point(s, out) and not reference_holds(hs, out)
        for _ in range(4):
            y = tuple(_frac(rng) for _ in range(d))
            assert contains_point(s, y) == reference_holds(hs, y)
            assert direction_in_recession_cone(s, y) == reference_holds(hs, y, direction=True)
        # a direction on row j's boundary, then 1/den past it
        n = normals[j]
        u = tuple(_frac(rng) for _ in range(d))
        v = tuple(a - dot(n, u) / dot(n, n) * b for a, b in zip(u, n))
        assert direction_in_recession_cone(s, v) == reference_holds(hs, v, direction=True)
        assert not direction_in_recession_cone(s, _moved_out(v, n, den))
    # random V-reps: every generator holds, a generator on a row moved
    # 1/den past it does not, and random points agree with the reference
    for _ in range(60):
        d = rng.randint(1, 3)
        pts = [tuple(_frac(rng) for _ in range(d)) for _ in range(rng.randint(1, d + 3))]
        rays = [r for r in (tuple(_frac(rng, 3) for _ in range(d)) for _ in range(rng.randint(0, 2))) if any(r)]
        s = vrep_set("V", pts, rays)
        rows = s.rep.rows
        assert all(contains_point(s, p) and reference_holds(rows, p) for p in pts)
        assert all(direction_in_recession_cone(s, r) for r in rays)
        for normal, offset in rows:
            den = rng.randint(2, 10 ** 9)
            on = [p for p in pts if dot(normal, p) == offset]
            along = [r for r in rays if dot(normal, r) == 0]
            for p in on:
                assert not contains_point(s, _moved_out(p, normal, den))
            for r in along:
                assert not direction_in_recession_cone(s, _moved_out(r, normal, den))
        for _ in range(4):
            y = tuple(_frac(rng) for _ in range(d))
            assert contains_point(s, y) == reference_holds(rows, y)
            assert direction_in_recession_cone(s, y) == reference_holds(rows, y, direction=True)


def test_every_vrep_row_is_tight_on_a_point():
    # every face of the set holds one of its points, so a row tight on
    # no point (the face at infinity) would only lengthen the LPs; the
    # sets lie in random flats of every dimension, points and rays alike
    rng = random.Random(11)
    cases = [
        ([(1, 2, 3)], []),
        ([(Fraction(-7, 4), Fraction(-7, 9))], []),
        ([(Fraction(-7, 9), Fraction(-1, 3), Fraction(-7, 3))], [(Fraction(3, 2), 0, 1)]),
    ]
    for _ in range(200):
        d = rng.randint(1, 3)
        c = [_frac(rng) for _ in range(d)]
        basis = [[_frac(rng) for _ in range(d)] for _ in range(rng.randint(0, d))]

        def along(top):
            coeffs = [_frac(rng, top) for _ in basis]
            return [sum(a * b[i] for a, b in zip(coeffs, basis)) for i in range(d)]

        pts = [tuple(x + y for x, y in zip(c, along(9))) for _ in range(rng.randint(1, len(basis) + 2))]
        rays = [tuple(r) for r in (along(3) for _ in range(rng.randint(0, 2))) if any(r)]
        cases.append((pts, rays))
    for pts, rays in cases:
        s = vrep_set("V", pts, rays)
        for normal, offset in s.rep.rows:
            assert any(dot(normal, p) == offset for p in s.rep.points), (pts, rays, normal, offset)


@st.composite
def vrep_pair(draw):
    """Two V-reps in R^1-R^3, with rays or without, the second moved by
    up to 3 along each axis, so that they touch, cross and miss."""
    d = draw(st.integers(1, 3))
    vec = st.tuples(*[_COORD] * d)
    shift = draw(st.tuples(*[st.integers(-3, 3)] * d))
    pairs = []
    for move in ((0,) * d, shift):
        pts = draw(st.lists(vec, min_size=1, max_size=d + 2))
        rays = draw(st.lists(vec.filter(any), max_size=2))
        pairs.append(([[a + m for a, m in zip(p, move)] for p in pts], rays))
    return pairs


@settings(max_examples=300, deadline=None)
@given(vrep_pair())
@example([([(0,), (1,)], []), ([(1,), (2,)], [])])  # touching at 1
@example([([(0,), (1,)], []), ([(2,)], [(-1,)])])  # a ray of B back into A
@example([([(0, 0), (1, 0)], []), ([(2, 0)], [(0, 1)])])  # a ray along A's row
def test_a_separating_row_shows_the_pair_disjoint(pair):
    (pa, ra), (pb, rb) = pair
    fam = family([vrep_set("A", pa, ra), vrep_set("B", pb, rb)])
    a, b = fam.sets
    meet = intersect_nonempty(fam, [0, 1]) is not None
    for s, t in ((a, b), (b, a)):
        row = _separating_row(s, t)
        if row is not None:
            normal, offset = row
            assert row in s.rep.rows and not meet
            assert all(dot(normal, p) > offset for p in t.rep.points)
            assert all(dot(normal, r) >= 0 for r in t.rep.rays)
    assert _separating_row(a, hrep_set("H", a.rep.rows, a.dim)) is None


@st.composite
def polygon_pair(draw):
    """Two full-dimensional polygons in the plane, the second moved by up
    to 6 along each axis."""
    coord = st.integers(-6, 6).map(lambda v: Fraction(v, 2))
    polygon = st.lists(st.tuples(coord, coord), min_size=3, max_size=5).filter(
        lambda pts: rank([(*p, 1) for p in pts]) == 3)
    dx, dy = draw(st.integers(-6, 6)), draw(st.integers(-6, 6))
    return draw(polygon), [(x + dx, y + dy) for x, y in draw(polygon)]


@settings(max_examples=300, deadline=None)
@given(polygon_pair())
@example(([(0, 0), (2, 0), (0, 2)], [(2, 2), (1, 2), (2, 1)]))  # apart across the hypotenuse
def test_disjoint_polygons_have_a_separating_row(pair):
    # the separating axis theorem: an edge row of one polygon separates
    fam = family([vrep_set("A", pair[0]), vrep_set("B", pair[1])])
    a, b = fam.sets
    if intersect_nonempty(fam, [0, 1]) is None:
        assert _separating_row(a, b) is not None or _separating_row(b, a) is not None
