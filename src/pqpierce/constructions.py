"""Generators for the toolkit's standard families.

The staircase simplices S_alpha live in R^d: vertex k is
e_1 + ... + e_{k-1} + alpha * e_k, so the vertex matrix is lower
staircase. Sorted tuples of parameters give simplices with a common
point whose coordinates are tail probabilities of independent events,
computed exactly from Poisson-binomial convolutions.

The escaping family embeds S_{1/n} into the hyperplane {x_1 = 0} of
R^{d+1} and drags it toward infinity along e_1: member n is the convex
hull of the embedded simplex and the point n*e_1, plus the ray e_1.
Any single point escapes all but finitely many members, which is the
finite certificate that no finite point set pierces the whole family.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb
from typing import Iterable, Optional, Sequence

from .errors import MalformedInputError
from .piercing import is_m_free
from .rational import Matrix, Point, RatLike, point, rat
from .sets import MAX_DIM, ConvexSet, Family, VRep, contains_point, vrep_set


# The most coordinates a constructed family may hold, summed over the
# generators of its members: it bounds member counts and points per
# member alike, so no size given to a constructor can make it run on.
MAX_COORDINATES = 10**5

# Defaults of the library and the CLI alike: the last member A_n that
# escape_witness tries (--n-cap), and the largest alpha denominator that
# sample_alphas draws (--max-den).
N_CAP = 1000
MAX_DEN = 1000


def check_family_size(generators: int, dim: int) -> None:
    """Reject a family of this many generators in R^dim before it is built."""
    if not 1 <= dim <= MAX_DIM:
        raise MalformedInputError(f"dimension {dim} is not in 1..{MAX_DIM}")
    if generators * dim > MAX_COORDINATES:
        raise MalformedInputError(
            f"{generators} generators in dimension {dim} exceed {MAX_COORDINATES} coordinates"
        )


def staircase_matrix(alpha: RatLike, d: int) -> Matrix:
    """Rows are the vertices of S_alpha: row k = e_1+...+e_{k-1}+alpha*e_k."""
    a = rat(alpha)
    if not 1 <= d <= MAX_DIM:
        raise MalformedInputError(f"need 1 <= d <= {MAX_DIM}")
    rows = []
    for k in range(1, d + 1):
        row = [Fraction(1)] * (k - 1) + [a] + [Fraction(0)] * (d - k)
        rows.append(tuple(row))
    return tuple(rows)


def simplex_S(alpha: RatLike, d: int) -> ConvexSet:
    a = rat(alpha)
    if not 0 < a <= 1:
        raise MalformedInputError("alpha must lie in (0, 1]")
    pts = staircase_matrix(a, d)
    return ConvexSet(f"S({a})", d, VRep(pts))


def poisson_binomial_coeffs(alphas: Sequence[RatLike]) -> tuple[Fraction, ...]:
    """Exact distribution of the number of successes among independent
    events with the given probabilities: entry k is P(exactly k)."""
    probs = [rat(a) for a in alphas]
    for a in probs:
        if not 0 < a < 1:
            raise MalformedInputError("event probabilities must lie in (0, 1)")
    dist = [Fraction(1)]
    for a in probs:
        nxt = [(1 - a) * dist[0]]
        for k in range(1, len(dist)):
            nxt.append((1 - a) * dist[k] + a * dist[k - 1])
        nxt.append(a * dist[-1])
        dist = nxt
    return tuple(dist)


def simplex_common_point(alphas: Sequence[RatLike]) -> Point:
    """The common point of S_{alpha_1}, ..., S_{alpha_d}: coordinate i
    is P(at least i of the d independent events occur). Membership in
    every simplex is re-verified before returning."""
    probs = [rat(a) for a in alphas]
    if not probs:
        raise MalformedInputError("need at least one alpha")
    for a, b in zip(probs, probs[1:]):
        if a > b:
            raise MalformedInputError("alphas must be sorted nondecreasing")
    for a in probs:
        if not 0 < a < 1:
            raise MalformedInputError("alphas must lie strictly in (0, 1)")
    d = len(probs)
    exact = poisson_binomial_coeffs(probs)
    x = []
    tail = Fraction(0)
    for k in range(d, 0, -1):  # tail sums: P(>= d), then P(>= d-1), ...
        tail += exact[k]
        x.append(tail)
    x.reverse()
    pt = tuple(x)
    for a in probs:
        if not contains_point(simplex_S(a, d), pt):
            raise AssertionError(f"common point escaped S({a})")
    return pt


@dataclass(frozen=True)
class CounterexampleSpec:
    d: int
    n_max: int
    n_bounded: int
    bounded_margin: Fraction = Fraction(0)

    def __post_init__(self):
        if self.d < 1:
            raise MalformedInputError("need d >= 1")
        if self.n_max < 2:
            raise MalformedInputError("need n_max >= 2")
        if self.n_bounded < 0:
            raise MalformedInputError("need n_bounded >= 0")
        if rat(self.bounded_margin) < 0:
            raise MalformedInputError("margin must be >= 0")
        # the first call bounds d before the 2^(d+1) corners of each box;
        # A_n has d + 1 points and a ray
        check_family_size(self.n_max - 1 + self.n_bounded, self.ambient_dim)
        corners = self.n_bounded << (self.d + 1)
        check_family_size((self.n_max - 1) * (self.d + 2) + corners, self.ambient_dim)

    @property
    def ambient_dim(self) -> int:
        return self.d + 1


def unbounded_member(d: int, n: int) -> ConvexSet:
    """Member A_n in R^{d+1}: hull of the embedded S_{1/n} and n*e_1,
    receding along e_1."""
    if n < 2:
        raise MalformedInputError("need n >= 2")
    simplex_rows = staircase_matrix(Fraction(1, n), d)
    pts = [(Fraction(0),) + row for row in simplex_rows]
    pts.append(tuple([Fraction(n)] + [Fraction(0)] * d))
    ray = tuple([Fraction(1)] + [Fraction(0)] * d)
    return ConvexSet(f"A_{n}", d + 1, VRep(tuple(pts), (ray,)))


def family_A(spec: CounterexampleSpec) -> Family:
    sets = [unbounded_member(spec.d, n) for n in range(2, spec.n_max + 1)]
    return Family(spec.ambient_dim, tuple(sets))


def bounded_member(d: int, i: int, margin: RatLike = 0) -> ConvexSet:
    """Box B_i in R^{d+1} containing the embedded unit cube of the
    hyperplane {x_1 = 0}; growing margins keep the members distinct."""
    if i < 1:
        raise MalformedInputError("need i >= 1")
    m = rat(margin) + i
    axes = [(-m, m)] + [(-m, 1 + m)] * d
    pts = tuple(point(v) for v in product(*axes))
    return ConvexSet(f"B_{i}", d + 1, VRep(pts))


def family_B(spec: CounterexampleSpec) -> Family:
    if spec.n_bounded < 1:
        raise MalformedInputError("need at least one bounded member")
    sets = [
        bounded_member(spec.d, i, spec.bounded_margin)
        for i in range(1, spec.n_bounded + 1)
    ]
    return Family(spec.ambient_dim, tuple(sets))


def counterexample_family(spec: CounterexampleSpec) -> Family:
    sets = list(family_A(spec).sets)
    if spec.n_bounded:
        sets.extend(family_B(spec).sets)
    return Family(spec.ambient_dim, tuple(sets))


def gruenbaum_line(n_max: int, copies_of_f0: int = 1) -> Family:
    """The line example: the singleton {0} (possibly repeated) together
    with the rays [n, infinity) for n = 1..n_max."""
    if n_max < 1 or copies_of_f0 < 1:
        raise MalformedInputError("need n_max >= 1 and copies >= 1")
    check_family_size(copies_of_f0 + 2 * n_max, 1)
    sets = [vrep_set("F0", [(0,)])]
    for c in range(2, copies_of_f0 + 1):
        sets.append(vrep_set(f"F0_{c}", [(0,)]))
    for n in range(1, n_max + 1):
        sets.append(vrep_set(f"F{n}", [(n,)], rays=[(1,)]))
    return Family(1, tuple(sets))


def free_flats_family(
    d: int, k: int, count: int, radius: RatLike, seed: int = 0
) -> Family:
    """count parallelotope pieces of (k-1)-dimensional flats in general
    position inside the radius box; redraws until the family verifies
    k-free (no k+1 members intersect, all compact).

    The LPs are bounded before the first draw: a draw's k-freeness check
    asks at most C(count, k+1) LPs, one per (k+1)-subset, and there are
    at most 100 draws. The size checks below bound C(count, k+1)."""
    if not 1 <= k <= d:
        raise MalformedInputError("need 1 <= k <= d")
    if count < 1:
        raise MalformedInputError("need count >= 1")
    # the first call bounds d, hence k, before 2^(k-1), the points of a member
    check_family_size(count, d)
    check_family_size(count << (k - 1), d)
    # the k-freeness check reads the 2^(k-1) points of k+1 members per subset
    check_family_size(comb(count, k + 1) * (k + 1) << (k - 1), d)
    r = rat(radius)
    if r <= 0:
        raise MalformedInputError("radius must be positive")
    rng = random.Random(seed)
    for _ in range(100):
        sets = []
        for i in range(count):
            base = [r * Fraction(rng.randint(-90, 90), 100) for _ in range(d)]
            dirs = []
            while len(dirs) < k - 1:
                v = [Fraction(rng.randint(-9, 9), 10) for _ in range(d)]
                if any(v):
                    dirs.append(v)
            pts = []
            for signs in product((-1, 1), repeat=k - 1):
                p = list(base)
                for s, v in zip(signs, dirs):
                    for j in range(d):
                        p[j] += s * r * v[j] / 2
                pts.append(tuple(p))
            unique = tuple(dict.fromkeys(pts))
            sets.append(ConvexSet(f"flat_{i + 1}", d, VRep(unique)))
        fam = Family(d, tuple(sets))
        if is_m_free(fam, range(count), k):
            return fam
    raise MalformedInputError("could not reach general position; widen the radius")


def escape_witness(
    spec: CounterexampleSpec,
    points: Iterable[Sequence[RatLike]],
    n_cap: int = N_CAP,
) -> Optional[int]:
    """Smallest n in [2, n_cap] whose member A_n avoids every candidate
    point, or None when the cap is hit (a cap problem, never a proof
    that the candidates pierce everything)."""
    if n_cap < 2:
        raise MalformedInputError("need n_cap >= 2")
    # the loop builds A_2..A_{n_cap}, counted as CounterexampleSpec counts them
    check_family_size((n_cap - 1) * (spec.d + 2), spec.ambient_dim)
    cands = [point(p) for p in points]
    for c in cands:
        if len(c) != spec.ambient_dim:
            raise MalformedInputError(
                f"candidate arity {len(c)} != ambient dimension {spec.ambient_dim}"
            )
    for n in range(2, n_cap + 1):
        member = unbounded_member(spec.d, n)
        if not any(contains_point(member, c) for c in cands):
            return n
    return None


def _fractions_in_unit(max_den: int) -> int:
    """Reduced fractions in (0,1) with denominator <= max_den: the sum
    of Euler's totient over 2..max_den, by sieve."""
    phi = list(range(max_den + 1))
    for k in range(2, max_den + 1):
        if phi[k] == k:  # k is prime
            for m in range(k, max_den + 1, k):
                phi[m] -= phi[m] // k
    return sum(phi[2:])


def sample_alphas(rng: random.Random, count: int, max_den: int = MAX_DEN) -> tuple[Fraction, ...]:
    """count distinct sorted random rationals in (0,1) with denominators
    <= max_den. Each draw takes a denominator, then a numerator; a
    repeated alpha is drawn again. The caller bounds count: the check
    that count alphas exist sieves to max_den only when count >= max_den."""
    if count < 1:
        raise MalformedInputError("need --count >= 1")
    if max_den < 2:
        raise MalformedInputError("need --max-den >= 2")
    # the max_den - 1 fractions 1/n always exist; count the rest only if needed
    if count >= max_den and count > _fractions_in_unit(max_den):
        raise MalformedInputError(
            f"--count {count} exceeds the number of distinct alphas with denominator <= {max_den}"
        )
    chosen: set[Fraction] = set()
    while len(chosen) < count:
        den = rng.randint(2, max_den)
        chosen.add(Fraction(rng.randint(1, den - 1), den))
    return tuple(sorted(chosen))
