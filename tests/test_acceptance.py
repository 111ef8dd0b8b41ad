"""Acceptance suite: ten end-to-end criteria, one test and one printed
pass/fail line each. Run with -s to see the summary lines; the -v test
status lines carry the same verdicts."""
import random
import time
from fractions import Fraction
from itertools import combinations

from pqpierce.bounds import catalog_entries, catalog_lookup, eta_tuza_bound
from pqpierce.constructions import (
    CounterexampleSpec,
    escape_witness,
    family_A,
    family_B,
    poisson_binomial_coeffs,
    sample_alphas,
    simplex_S,
    simplex_common_point,
    staircase_matrix,
)
from pqpierce.hypergraph import (
    Hypergraph,
    induced_edges,
    transversal_number,
    verify_eg_equivalence,
)
from pqpierce.lp import completed_basis_matrix, invert_matrix
from pqpierce.piercing import piercing_number
from pqpierce.pipelines import (
    pierce_via_free_family,
    pierce_via_transversal,
    verify_counterexample,
    verify_projection_equivalence,
)
from pqpierce.rational import vec_mat
from pqpierce.sets import (
    change_coordinates,
    change_coordinates_family,
    contains_point,
    convex_hull_union,
    family,
    hrep_set,
    vrep_set,
)

from test_hypergraph import brute_transversal
from test_piercing import brute_piercing, random_family


def announce(number, summary):
    print(f"CRITERION {number} PASS: {summary}")


def sampled_tuples():
    rng = random.Random(20260817)
    for d in (2, 3, 4, 5):
        for _ in range(200):
            yield d, sample_alphas(rng, d)


def test_criterion_01_simplex_common_points():
    start = time.monotonic()
    checked = 0
    for d, alphas in sampled_tuples():
        x = simplex_common_point(alphas)
        for a in alphas:
            assert contains_point(simplex_S(a, d), x)
            checked += 1
    elapsed = time.monotonic() - start
    assert elapsed < 60, f"took {elapsed:.1f}s"
    announce(1, f"{checked} exact memberships across 800 sampled tuples in {elapsed:.1f}s")


def test_criterion_02_coefficient_identity():
    count = 0
    for d, alphas in sampled_tuples():
        coeffs = poisson_binomial_coeffs(alphas[:-1])
        lhs = vec_mat(coeffs, staircase_matrix(alphas[-1], d))
        assert lhs == simplex_common_point(alphas)
        count += 1
    announce(2, f"coefficient-vector identity exact on all {count} tuples")


def test_criterion_03_exhaustive_counterexample_sweeps():
    start = time.monotonic()
    r1 = verify_counterexample(
        CounterexampleSpec(d=1, n_max=12, n_bounded=5), k_max=2
    )
    assert r1.all_passed and r1.exhaustive
    r2 = verify_counterexample(
        CounterexampleSpec(d=2, n_max=8, n_bounded=4), k_max=1
    )
    assert r2.all_passed and r2.exhaustive
    elapsed = time.monotonic() - start
    assert elapsed < 300, f"took {elapsed:.1f}s"
    tuples = sum(
        c.witness["cases"]["1"] + c.witness["cases"]["2"] + c.witness["cases"]["3"]
        for r in (r1, r2)
        for c in r.hypothesis_checks
        if c.description.startswith("case analysis")
    )
    announce(3, f"both truncations verified, {tuples} tuples classified, {elapsed:.1f}s")


def test_criterion_04_escape_witnesses():
    rng = random.Random(4)
    spec = CounterexampleSpec(d=1, n_max=12, n_bounded=5)
    for trial in range(100):
        size = rng.randint(1, 8)
        points = [
            tuple(
                Fraction(rng.randint(-200, 200), rng.randint(1, 100))
                for _ in range(2)
            )
            for _ in range(size)
        ]
        w = escape_witness(spec, points, n_cap=1000)
        assert w is not None, f"trial {trial} exhausted the cap"
        assert 2 <= w <= 1000
        from pqpierce.constructions import unbounded_member

        member = unbounded_member(spec.d, w)
        assert not any(contains_point(member, c) for c in points)
    announce(4, "100 candidate sets escaped with certified witnesses, 0 exhaustions")


def test_criterion_05_exact_solvers_vs_brute_force():
    rng = random.Random(55)
    for _ in range(300):
        fam = random_family(rng, rng.randint(3, 7))
        sol = piercing_number(fam)
        assert sol.optimal
        assert len(sol.points) == brute_piercing(fam)
    rng = random.Random(56)
    for _ in range(300):
        n = rng.randint(1, 12)
        pool = list(combinations(range(n), min(3, n)))
        m = rng.randint(0, min(12, len(pool)))
        h = Hypergraph(n, rng.sample(pool, m))
        beta, cover = transversal_number(h)
        assert beta == brute_transversal(h)[0]
        assert all(set(cover) & set(e) for e in h.edges)
    announce(5, "piercing and transversal solvers match brute force on 600 instances")


def test_criterion_06_transversal_pipeline_instances():
    # plane: singleton far away, five nested half-planes, one square
    sets = [vrep_set("lone", [(-10, 0)])]
    for n in range(1, 6):
        sets.append(hrep_set(f"hp{n}", [((-1, 0), -n)]))
    sets.append(vrep_set("sq", [(5, 0), (6, 0), (5, 1), (6, 1)]))
    plane = family(sets)
    rp = pierce_via_transversal(plane, t=1, p=6)
    assert rp.all_passed and len(rp.piercing.points) <= 2
    for i, j in rp.piercing.assignment.items():
        assert contains_point(plane.sets[i], rp.piercing.points[j])

    sets = [vrep_set("lone", [(-10, 0, 0)])]
    for n in range(1, 7):
        sets.append(hrep_set(f"hs{n}", [((-1, 0, 0), -n)]))
    cube = [(x, y, z) for x in (6, 7) for y in (0, 1) for z in (0, 1)]
    shifted = [(x, y, z) for x in (Fraction(13, 2), Fraction(15, 2))
               for y in (Fraction(1, 2), Fraction(3, 2)) for z in (0, 1)]
    sets.append(vrep_set("bx1", cube))
    sets.append(vrep_set("bx2", shifted))
    space = family(sets)
    rs = pierce_via_transversal(space, t=1, p=9)
    assert rs.all_passed and len(rs.piercing.points) <= 2
    announce(6, "plane (6,5) and space (9,8) instances pierced by at most 2 points")


def test_criterion_07_free_selection_pipeline_instance():
    sets = [
        vrep_set("b1", [(0, 0), (1, 0), (0, 1), (1, 1)]),
        vrep_set("b2", [(2, 0), (3, 0), (2, 1), (3, 1)]),
    ]
    for n in range(1, 5):
        sets.append(hrep_set(f"upper{n}", [((0, -1), n)]))
    fam = family(sets)
    report = pierce_via_free_family(fam, [0, 1], p=4, q=3)
    assert report.all_passed
    free_row = report.hypothesis_checks[0]
    assert free_row.description == "selection is 1-free" and free_row.passed
    selection_points = {
        report.piercing.assignment[0], report.piercing.assignment[1]
    }
    assert len(selection_points) <= 2  # p - q + 1
    exact = len(piercing_number(fam).points)
    used = len(report.piercing.points)
    assert used >= exact
    assert used <= report.bound_claim.numeric
    announce(7, f"(4,3) instance pierced with {used} points, exact minimum {exact}")


def test_criterion_08_projection_equivalence_on_rotations():
    total = 0
    for d, n_max in ((1, 7), (2, 5)):
        spec = CounterexampleSpec(d=d, n_max=n_max, n_bounded=2)
        fam = family_A(spec)
        box = convex_hull_union(family_B(spec), [0, 1])
        axis = tuple(Fraction(1 if i == 0 else 0) for i in range(d + 1))
        back = completed_basis_matrix(axis)
        forward = invert_matrix(back)
        rot_fam = change_coordinates_family(fam, forward, back)
        rot_box = change_coordinates(box, forward, back)
        report = verify_projection_equivalence(rot_fam, rot_box, max_subset=5)
        assert report.all_passed
        total += report.extras["subsets_checked"]
    announce(8, f"direct and shadow tests agree on all {total} subsets")


def test_criterion_09_transversal_law_regression():
    rng = random.Random(99)
    consistent_count = 0
    for _ in range(200):
        n = rng.randint(3, 10)
        pool = list(combinations(range(n), 3))
        m = rng.randint(0, min(12, len(pool)))
        h = Hypergraph(n, rng.sample(pool, m), arity=3)
        witness = verify_eg_equivalence(h, k=1)
        consistent = witness is None
        # independent brute force of both sides of the equivalence
        left = brute_transversal(h)[0] <= 1
        size = min(6, n)
        right = True
        for sub in combinations(range(n), size):
            edges = induced_edges(h, sub)
            ok = any(
                all(set(c) & set(e) for e in edges)
                for k in range(0, 2)
                for c in combinations(sub, k)
            )
            if not ok:
                right = False
                break
        assert consistent == (left == right)
        assert consistent, f"inconsistency witness {witness}"
        consistent_count += 1
    assert eta_tuza_bound(3, 3) == 15
    entry = catalog_lookup("eta", (3, 2))
    assert entry.value == 6 and entry.kind == "exact"
    announce(9, f"transversal law consistent on {consistent_count} hypergraphs; "
                "bounds 15 and 6 confirmed")


def test_criterion_10_catalog_fidelity():
    pairs = [(p, q) for p in range(2, 12) for q in range(2, p + 1)][:20]
    assert len(pairs) == 20
    for p, q in pairs:
        entry = catalog_lookup("xi", (p, q, 1))
        assert entry.value == p - q + 1 and entry.kind == "exact"
    kgt = catalog_lookup("xi", (4, 3, 2))
    assert kgt.value == 13 and kgt.kind == "upper-bound"
    assert "2001" in kgt.provenance
    import re

    for entry in catalog_entries():
        assert len(entry.provenance) >= 25
        assert re.search(r"\b(1[89]\d\d|20\d\d)\b|definition", entry.provenance)
        for banned in ("§", "paper", "section", "lemma", "theorem", "corollary"):
            assert banned not in entry.provenance.lower()
    announce(10, "line rule exact on 20 pairs, cited upper bound 13, provenance audited")
