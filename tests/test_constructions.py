"""Generators: staircase simplices, probabilistic common points, the
escaping family, line example, free flats, escape witnesses."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pqpierce.constructions import (
    CounterexampleSpec,
    bounded_member,
    counterexample_family,
    escape_witness,
    family_A,
    family_B,
    free_flats_family,
    gruenbaum_line,
    poisson_binomial_coeffs,
    sample_alphas,
    simplex_S,
    simplex_common_point,
    staircase_matrix,
    unbounded_member,
)
from pqpierce.errors import MalformedInputError
from pqpierce.piercing import IntersectionOracle, is_m_free
from pqpierce.rational import point, vec_mat
from pqpierce.sets import contains_point, direction_in_recession_cone, is_bounded

F = Fraction


def test_staircase_matrix():
    assert staircase_matrix(F(1, 2), 2) == ((F(1, 2), 0), (1, F(1, 2)))
    assert staircase_matrix(F(1, 3), 2) == ((F(1, 3), 0), (1, F(1, 3)))
    m = staircase_matrix(1, 3)
    assert m == ((1, 0, 0), (1, 1, 0), (1, 1, 1))


def test_simplex_vertices_and_range():
    s = simplex_S(1, 3)
    assert set(s.rep.points) == {point((1, 0, 0)), point((1, 1, 0)), point((1, 1, 1))}
    with pytest.raises(MalformedInputError):
        simplex_S(0, 2)
    with pytest.raises(MalformedInputError):
        simplex_S("3/2", 2)


def test_poisson_binomial_frozen():
    assert poisson_binomial_coeffs(["1/3"]) == (F(2, 3), F(1, 3))
    assert poisson_binomial_coeffs(["1/2", "1/2"]) == (F(1, 4), F(1, 2), F(1, 4))
    assert poisson_binomial_coeffs([]) == (F(1),)
    with pytest.raises(MalformedInputError):
        poisson_binomial_coeffs([0])


@given(st.lists(st.integers(1, 19), min_size=0, max_size=6))
@settings(max_examples=60, deadline=None)
def test_poisson_binomial_is_a_distribution(nums):
    alphas = [F(n, 20) for n in nums]
    dist = poisson_binomial_coeffs(alphas)
    assert len(dist) == len(alphas) + 1
    assert sum(dist) == 1
    assert all(c >= 0 for c in dist)


def test_common_point_frozen():
    assert simplex_common_point(["1/3", "1/2"]) == (F(2, 3), F(1, 6))
    assert simplex_common_point(["1/2", "1/2"]) == (F(3, 4), F(1, 4))


def test_common_point_validation():
    with pytest.raises(MalformedInputError):
        simplex_common_point(["1/2", "1/3"])  # unsorted
    with pytest.raises(MalformedInputError):
        simplex_common_point(["1/2", 1])
    with pytest.raises(MalformedInputError):
        simplex_common_point([])


def test_common_point_memberships_seeded():
    rng = random.Random(42)
    for d in (2, 3):
        for _ in range(25):
            alphas = sample_alphas(rng, d, max_den=50)
            pt = simplex_common_point(alphas)
            for a in alphas:
                assert contains_point(simplex_S(a, d), pt)


def test_coefficient_identity_seeded():
    # weights over the first d-1 events times the last vertex matrix
    # reproduce the tail-probability vector
    rng = random.Random(9)
    for d in (2, 3):
        for _ in range(25):
            alphas = sample_alphas(rng, d, max_den=50)
            coeffs = poisson_binomial_coeffs(alphas[:-1])
            produced = vec_mat(coeffs, staircase_matrix(alphas[-1], d))
            assert produced == simplex_common_point(alphas)


def test_unbounded_member_frozen():
    a2 = unbounded_member(1, 2)
    assert a2.label == "A_2" and a2.dim == 2
    assert set(a2.rep.points) == {point((0, "1/2")), point((2, 0))}
    assert a2.rep.rays == (point((1, 0)),)
    with pytest.raises(MalformedInputError):
        unbounded_member(1, 1)


def test_unbounded_member_axis_and_slice():
    a3 = unbounded_member(1, 3)
    assert contains_point(a3, (0, "1/3"))
    assert not contains_point(a3, (0, "1/2"))
    for t in (3, 10):
        assert contains_point(a3, (t, 0))
    assert not contains_point(a3, (2, 0))
    assert direction_in_recession_cone(a3, (1, 0))


def test_family_A_intersections():
    spec = CounterexampleSpec(d=2, n_max=5, n_bounded=0)
    fam = family_A(spec)
    oracle = IntersectionOracle(fam)
    # every pair meets on the far axis, every d-subset in the hyperplane
    assert oracle.intersecting(range(len(fam)))
    n_big = spec.n_max
    far = point((n_big, 0, 0))
    for s in fam.sets:
        assert contains_point(s, far)
    pt = simplex_common_point([F(1, 5), F(1, 4)])
    assert contains_point(fam.sets[2], (0,) + pt)  # A_4
    assert contains_point(fam.sets[3], (0,) + pt)  # A_5


def test_family_B_contains_cube():
    spec = CounterexampleSpec(d=2, n_max=3, n_bounded=3)
    fam = family_B(spec)
    for s in fam.sets:
        assert is_bounded(s)
        assert contains_point(s, (0, 0, 0))
        assert contains_point(s, (0, 1, 1))
    oracle = IntersectionOracle(fam)
    assert oracle.intersecting(range(3))
    assert bounded_member(1, 1).rep.points != bounded_member(1, 2).rep.points
    with pytest.raises(MalformedInputError):
        family_B(CounterexampleSpec(d=1, n_max=3, n_bounded=0))


def test_counterexample_family_shape():
    fam = counterexample_family(CounterexampleSpec(d=1, n_max=12, n_bounded=5))
    assert len(fam) == 16
    assert fam.labels[:2] == ("A_2", "A_3") and fam.labels[-1] == "B_5"
    assert fam.dim == 2


def test_gruenbaum_line():
    fam = gruenbaum_line(3)
    assert fam.labels == ("F0", "F1", "F2", "F3")
    assert contains_point(fam.sets[0], (0,))
    assert contains_point(fam.sets[2], (9,)) and not contains_point(fam.sets[2], (1,))
    two = gruenbaum_line(2, copies_of_f0=2)
    assert two.labels == ("F0", "F0_2", "F1", "F2")
    with pytest.raises(MalformedInputError):
        gruenbaum_line(0)


def test_free_flats_points():
    fam = free_flats_family(2, 1, 3, 10)
    assert len(fam) == 3
    assert all(len(s.rep.points) == 1 for s in fam.sets)
    assert is_m_free(fam, range(3), 1)


def test_free_flats_segments_plane():
    fam = free_flats_family(2, 2, 4, 10)
    assert len(fam) == 4
    assert is_m_free(fam, range(4), 2)
    again = free_flats_family(2, 2, 4, 10)
    assert again == fam  # deterministic for the default seed


def test_free_flats_segments_space():
    fam = free_flats_family(3, 2, 5, 10, seed=1)
    assert len(fam) == 5 and fam.dim == 3
    assert is_m_free(fam, range(5), 2)
    with pytest.raises(MalformedInputError):
        free_flats_family(2, 3, 2, 10)


def test_escape_witness_frozen():
    spec = CounterexampleSpec(d=1, n_max=5, n_bounded=0)
    assert escape_witness(spec, [("0", "1/2")]) == 3
    assert escape_witness(spec, [(5, 0)]) == 6
    assert escape_witness(spec, []) == 2
    for t, expected in [(2, 3), ("5/2", 3), (3, 4), (7, 8)]:
        assert escape_witness(spec, [(t, 0)]) == expected


def test_escape_witness_growth_and_cap():
    spec = CounterexampleSpec(d=1, n_max=5, n_bounded=0)
    small = [("3", "0")]
    big = small + [("6", "0")]
    assert escape_witness(spec, small) <= escape_witness(spec, big)
    assert escape_witness(spec, [(10, 0)], n_cap=9) is None
    with pytest.raises(MalformedInputError):
        escape_witness(spec, [(0, 0, 0)])
    with pytest.raises(MalformedInputError):
        escape_witness(spec, [], n_cap=1)


def test_sample_alphas():
    rng = random.Random(0)
    for d in (1, 3, 5):
        alphas = sample_alphas(rng, d, max_den=100)
        assert len(alphas) == d
        assert all(0 < a < 1 for a in alphas)
        assert list(alphas) == sorted(alphas)
        assert all(a.denominator <= 100 for a in alphas)


def test_sample_alphas_distinct_or_rejected():
    # denominators <= 3 give exactly 1/3, 1/2 and 2/3, and seed 2
    # draws 1/2 three times in its first three draws
    assert sample_alphas(random.Random(2), 3, max_den=3) == (F(1, 3), F(1, 2), F(2, 3))
    for count, max_den in ((0, 10), (1, 1), (4, 3), (12, 6)):
        with pytest.raises(MalformedInputError):
            sample_alphas(random.Random(0), count, max_den)


def test_spec_validation():
    with pytest.raises(MalformedInputError):
        CounterexampleSpec(d=0, n_max=5, n_bounded=0)
    with pytest.raises(MalformedInputError):
        CounterexampleSpec(d=1, n_max=1, n_bounded=0)
    with pytest.raises(MalformedInputError):
        CounterexampleSpec(d=1, n_max=5, n_bounded=-1)
    with pytest.raises(MalformedInputError):
        CounterexampleSpec(d=1, n_max=5, n_bounded=0, bounded_margin=Fraction(-1))
