"""Convex polyhedral sets in two exact representations, plus the
geometric primitives built on the rational LP engine.

H-representation: a finite intersection of closed halfspaces
    {x : normal . x <= offset}.
V-representation: conv(points) + cone(rays); always closed and, since
points must be nonempty, always a nonempty set.

One double-description routine, _cone, converts between the two. Every
V-rep gets <= rows from its generators, once, when first used: its
facets, and each equation of its affine hull as two rows. An H-rep gets
generators the same way when a hull or a projection needs them.
An H-rep is its int rows (`rows`, (normal, offset) pairs of ints: each
halfspace as given, times the lcm of its denominators, by _hrep); a
V-rep caches its own. They are the one row form any computation reads.
Intersections are never materialized: every member joins every LP as
its rows over free coordinates, posed by one builder, _solve;
membership and recession of a direction are one int substitution,
_holds, into them, and a row of one set that every generator of a V-rep
breaks, _separating_row, shows the two disjoint. A projection drops the
generators' last coordinate.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import mul
from typing import Iterable, Optional, Sequence

from .errors import EmptySetError, MalformedInputError
from .lp import LinearSystem, _int_row, _reduced, lp_feasible
from .rational import (
    Matrix,
    Point,
    RatLike,
    is_zero,
    mat_vec,
    point,
    rat,
    to_json,
    vec_mat,
)


# The largest dim a JSON set may declare: each coordinate is an LP column.
MAX_DIM = 1000

# The work one double-description run (_cone) may do: int entries read
# and written, pairs of rays tested for adjacency and rays scanned in
# those tests. The largest box a CounterexampleSpec admits,
# bounded_member(11, 1) with 4,096 corners in R^12, takes 1.9 M; the
# hull of B_1 and B_2 takes 4.0 M for d = 9 and 10.5 M for d = 10; the
# cross-polytope in R^12, with 4,096 facets, takes 5.8 M. A projection
# (project_drop_last) of an H-rep runs it twice, for the vertices and
# for the image's facets: the 13-cube's 8,192 vertices pass the cap.
DD_WORK_CAP = 8_000_000


@dataclass(frozen=True)
class HRep:
    """{x : normal . x <= offset for each of the rows}, each row ints:
    what every LP, membership test and projection reads."""

    rows: tuple[tuple[tuple[int, ...], int], ...]


def _hrep(halfspaces: Iterable[tuple[Iterable[RatLike], RatLike]]) -> HRep:
    """The H-rep of rational (normal, offset) pairs, each times the lcm
    of its denominators. A zero normal is only legal when the row is
    vacuous (offset >= 0)."""
    rows = []
    for normal, offset in halfspaces:
        y = _int_row([*point(normal), rat(offset)])
        if not any(y[:-1]) and y[-1] < 0:
            raise MalformedInputError("zero normal with negative offset")
        rows.append((tuple(y[:-1]), y[-1]))
    return HRep(tuple(rows))


@dataclass(frozen=True)
class VRep:
    points: tuple[Point, ...]
    rays: tuple[Point, ...] = ()

    def __post_init__(self):
        if not self.points:
            raise MalformedInputError("V-representation needs at least one point")
        for r in self.rays:
            if is_zero(r):
                raise MalformedInputError("zero ray in V-representation")

    @cached_property
    def generators(self) -> tuple[tuple[list[int], ...], tuple[list[int], ...]]:
        """(points, rays) as int rows, _int_row([*p, -1]) for a point
        and _int_row([*r, 0]) for a ray: what _cone and _separating_row
        read."""
        return (tuple(_int_row([*p, -1]) for p in self.points),
                tuple(_int_row([*r, 0]) for r in self.rays))

    @cached_property
    def rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """The set as primitive int <= rows: its facets, and each
        equation of its affine hull as a row and its negation, sorted by
        the ascending tuple of the generators each row is tight on; ()
        for the whole space."""
        gens = [*self.generators[0], *self.generators[1]]
        lin, ext = _cone(gens, len(gens[0]))
        rows = [((1 << len(gens)) - 1, y) for e in lin for y in (e, [-c for c in e])]
        # a face holds a point: drop the face at infinity, e_n modulo lineality
        rows += [(on, y) for on, y in ext if on & (1 << len(self.points)) - 1]
        rows.sort(key=lambda row: [i for i in range(len(gens)) if row[0] >> i & 1])
        return tuple((tuple(y[:-1]), y[-1]) for _, y in rows)


def _cone(rows: list[list[int]], n: int) -> tuple[list[list[int]], list[tuple[int, list[int]]]]:
    """The cone {y in R^n : row . y <= 0 for every row} by the double
    description method (Motzkin, Raiffa, Thompson and Thrall 1953;
    Fukuda and Prodon 1996, "Double description method revisited"): a
    basis of its lineality space, and its extreme rays modulo that
    space, each as (bitmask of the rows it is tight on, ray).

    Rows are added one at a time to R^n. A row that a lineality vector
    l0 leaves moves l0 into the rays and makes every other vector tight
    on it; otherwise two rays on opposite sides are combined when they
    are adjacent: no third ray is tight on every row both are. Vectors
    are ints, each a positive combination cut by its gcd, as in
    lp._exchange. Raises MalformedInputError past DD_WORK_CAP."""
    lin = [[int(i == j) for j in range(n)] for i in range(n)]
    rays: list[list[int]] = []
    tight: list[int] = []  # bitmask of the rows each ray is tight on
    work = 0
    for k, a in enumerate(rows):
        bit = 1 << k
        on_lin = [sum(map(mul, a, y)) for y in lin]
        on_rays = [sum(map(mul, a, y)) for y in rays]
        work += n * (len(lin) + len(rays))
        p = next((i for i, v in enumerate(on_lin) if v), -1)
        if p >= 0:
            l0, s = lin.pop(p), on_lin.pop(p)
            if s < 0:
                l0, s = [-c for c in l0], -s
            # y - (a . y) / s * l0, scaled by s > 0, is tight on a
            lin = [_reduced([s * c - v * e for c, e in zip(y, l0)]) if v else y
                   for y, v in zip(lin, on_lin)]
            rays = [_reduced([s * c - v * e for c, e in zip(y, l0)]) if v else y
                    for y, v in zip(rays, on_rays)]
            rays.append([-c for c in l0])
            tight = [z | bit for z in tight] + [bit - 1]
            work += n * (1 + sum(map(bool, on_lin)) + sum(map(bool, on_rays)))
        else:
            need = n - len(lin) - 2  # the fewest rows tight on a 2-face
            new = [(y, z | bit if v == 0 else z) for y, z, v in zip(rays, tight, on_rays) if v <= 0]
            neg = [j for j, v in enumerate(on_rays) if v < 0]
            for i, vi in enumerate(on_rays):
                if vi <= 0:
                    continue
                for j in neg:
                    on = tight[i] & tight[j]
                    work += 1
                    if on.bit_count() >= need:
                        for h, z in enumerate(tight):
                            if z & on == on and h != i and h != j:
                                work += h
                                break
                        else:  # adjacent: their combination tight on a
                            vj = on_rays[j]
                            new.append((_reduced([vi * c - vj * e for c, e in zip(rays[j], rays[i])]), on | bit))
                            work += len(tight) + n
                    if work > DD_WORK_CAP:
                        raise _over_cap(len(rows), n)
            rays = [y for y, _ in new]
            tight = [z for _, z in new]
        if work > DD_WORK_CAP:
            raise _over_cap(len(rows), n)
    return lin, list(zip(tight, rays))


def _over_cap(m: int, n: int) -> MalformedInputError:
    return MalformedInputError(f"converting {m} rows in R^{n} passes the work cap {DD_WORK_CAP}")


def _generators(s: ConvexSet) -> tuple[tuple[Point, ...], tuple[Point, ...]]:
    """(points, rays) with s = conv(points) + cone(rays): a V-rep's own,
    or an H-rep's by _cone on its rows [normal, -offset] and [0, -1],
    whose rays (x, t) are the points x / t for t > 0 and the rays x for
    t = 0, with both signs of each lineality vector. Raises
    EmptySetError for an empty H-rep, whose cone has no t > 0."""
    if isinstance(s.rep, VRep):
        return s.rep.points, s.rep.rays
    rows = [[*normal, -offset] for normal, offset in s.rep.rows]
    lin, ext = _cone(rows + [[0] * s.dim + [-1]], s.dim + 1)
    pts = tuple(tuple(Fraction(c, y[-1]) for c in y[:-1]) for _, y in ext if y[-1])
    if not pts:
        raise EmptySetError(f"set {s.label!r} is empty")
    rays = [y[:-1] for _, y in ext if not y[-1]] + [y[:-1] for e in lin for y in (e, [-c for c in e])]
    return pts, tuple(point(r) for r in rays)


@dataclass(frozen=True)
class ConvexSet:
    label: str
    dim: int
    rep: HRep | VRep

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise MalformedInputError("set label must be a nonempty string")
        if self.dim < 1:
            raise MalformedInputError("dimension must be >= 1")
        if isinstance(self.rep, VRep):
            what, vectors = "generator", self.rep.points + self.rep.rays
        else:
            what, vectors = "halfspace", [normal for normal, _ in self.rep.rows]
        if any(len(v) != self.dim for v in vectors):
            raise MalformedInputError(f"{self.label}: {what} arity != dim {self.dim}")


def vrep_set(
    label: str,
    points: Iterable[Iterable[RatLike]],
    rays: Iterable[Iterable[RatLike]] = (),
) -> ConvexSet:
    pts = tuple(point(p) for p in points)
    rds = tuple(point(r) for r in rays)
    if not pts:
        raise MalformedInputError("V-representation needs at least one point")
    return ConvexSet(label, len(pts[0]), VRep(pts, rds))


def hrep_set(
    label: str,
    halfspaces: Iterable[tuple[Iterable[RatLike], RatLike]],
    dim: Optional[int] = None,
) -> ConvexSet:
    rep = _hrep(halfspaces)
    if dim is None:
        if not rep.rows:
            raise MalformedInputError("dimension required for empty H-rep")
        dim = len(rep.rows[0][0])
    return ConvexSet(label, dim, rep)


@dataclass(frozen=True)
class Family:
    """A finite ordered family of convex sets in a shared ambient space."""

    dim: int
    sets: tuple[ConvexSet, ...]

    def __post_init__(self):
        labels = set()
        for s in self.sets:
            if s.dim != self.dim:
                raise MalformedInputError(
                    f"{s.label}: dim {s.dim} != family dim {self.dim}"
                )
            if s.label in labels:
                raise MalformedInputError(f"duplicate label {s.label!r}")
            labels.add(s.label)

    def __len__(self) -> int:
        return len(self.sets)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(s.label for s in self.sets)

    def select(self, indices: Iterable[int]) -> tuple[ConvexSet, ...]:
        out = []
        for i in indices:
            if not 0 <= i < len(self.sets):
                raise MalformedInputError(f"set index {i} out of range")
            out.append(self.sets[i])
        return tuple(out)


def family(sets: Sequence[ConvexSet]) -> Family:
    if not sets:
        raise MalformedInputError("empty family")
    return Family(sets[0].dim, tuple(sets))


# ---------------------------------------------------------------------------
# LPs
#
# Every LP is <= rows over free variables, and _solve alone poses one.
# A set enters as its int rows over the variables of its coordinates.
# Each row goes to lp_feasible as an int row (terms, offset) over its
# nonzero terms alone, and the simplex fills its tableau row from them:
# no dense row and no object per row is built.

def _solve(n: int, blocks: Iterable[tuple[Sequence[int], Iterable]]) -> Optional[Point]:
    """A point of n free variables meeting every block, or None. A block
    (xs, rows) is normal . x <= offset for each (normal, offset) in
    rows, x the variables xs. The rows are listed first: tuple() of a
    generator resizes its tuple, so freed systems would pile up on
    CPython's tuple free lists, up to 2,000 per size, never reused."""
    return lp_feasible(LinearSystem(n, tuple([
        ({x: a for x, a in zip(xs, normal) if a}, offset)
        for xs, rows in blocks for normal, offset in rows
    ])))[1]


# ---------------------------------------------------------------------------
# primitives

def _holds(s: ConvexSet, x: list[int]) -> bool:
    """Does normal . y + offset * t <= 0 hold for every int row of s,
    x = [*y, t]? A point p enters as _int_row([*p, -1]), a direction v
    as _int_row([*v, 0])."""
    t = x[-1]
    return all(sum(map(mul, normal, x)) + offset * t <= 0 for normal, offset in s.rep.rows)


def _separating_row(a: ConvexSet, b: ConvexSet) -> Optional[tuple[tuple[int, ...], int]]:
    """An int row (normal, offset) of a that every point of the V-rep b
    breaks strictly (normal . p > offset) and that no ray of b turns
    back into (normal . r >= 0), or None; always None for an H-rep b.
    Such a row holds all of a and none of b, so it certifies by
    substitution that a and b are disjoint. For two disjoint
    full-dimensional polygons without rays, some edge row of one of
    them always does (the separating axis theorem); in higher dimensions
    the test is sufficient only."""
    if not isinstance(b.rep, VRep):
        return None
    points, rays = b.rep.generators
    for normal, offset in a.rep.rows:
        if (all(sum(map(mul, normal, x)) + offset * x[-1] > 0 for x in points)
                and all(sum(map(mul, normal, r)) >= 0 for r in rays)):
            return normal, offset
    return None


def contains_point(s: ConvexSet, x: Sequence[RatLike]) -> bool:
    """Exact membership: substitution into the set's int rows."""
    xp = point(x)
    if len(xp) != s.dim:
        raise MalformedInputError(f"point arity {len(xp)} != dim {s.dim}")
    return _holds(s, _int_row([*xp, -1]))


def some_point(s: ConvexSet) -> Optional[Point]:
    """A point of the set: the first generator of a V-rep, an LP witness
    for an H-rep; None when the set is empty."""
    if isinstance(s.rep, VRep):
        return s.rep.points[0]
    return _solve(s.dim, [(range(s.dim), s.rep.rows)])


def is_empty(s: ConvexSet) -> bool:
    return some_point(s) is None


def intersect_nonempty(fam: Family, indices: Iterable[int]) -> Optional[Point]:
    """A common point of the indexed members by a single LP, or None
    when they do not meet. The point is re-checked against every
    indexed member by int substitution before being handed out.
    """
    idx = list(indices)
    if not idx:
        raise MalformedInputError("empty index list")
    members = fam.select(idx)
    witness = _solve(fam.dim, [(range(fam.dim), s.rep.rows) for s in members])
    if witness is None:
        return None
    x = _int_row([*witness, -1])
    for s in members:
        if not _holds(s, x):
            raise AssertionError(
                f"joint LP witness escaped {s.label}; solver invariant broken"
            )
    return witness


def direction_in_recession_cone(s: ConvexSet, v: Sequence[RatLike]) -> bool:
    """Does the set recede along v (exactly)? Substitution into its
    int rows with zero offsets."""
    vp = point(v)
    if len(vp) != s.dim:
        raise MalformedInputError("direction arity mismatch")
    return _holds(s, _int_row([*vp, 0]))


def _recession_probe(dim: int, members: Sequence[ConvexSet]) -> Optional[Point]:
    """Probe the 2*dim signed coordinate functionals in ascending
    coordinate order, positive sign first, for a nonzero v in every
    member's recession cone; each probe is one LP over the other dim - 1
    coordinates, with v[axis] = sign substituted into every row."""
    rows = [normal for s in members for normal, _ in s.rep.rows if any(normal)]
    for axis in range(dim):
        for sign in (1, -1):
            block = ((n[:axis] + n[axis + 1:], -sign * n[axis]) for n in rows)
            v = _solve(dim - 1, [(range(dim - 1), block)])
            if v is not None:
                return v[:axis] + (Fraction(sign),) + v[axis:]
    return None


def common_recession_direction(fam: Family) -> Optional[Point]:
    """Some nonzero v in every member's recession cone, or None; the
    probe order makes the answer and the returned v deterministic.
    Raises EmptySetError for an empty member, which has no cone.

    A returned v is re-checked against every member with
    direction_in_recession_cone before being handed out.
    """
    for s in fam.sets:
        if is_empty(s):
            raise EmptySetError(f"recession cone of empty set {s.label!r}")
    v = _recession_probe(fam.dim, fam.sets)
    if v is not None:
        escaped = [s.label for s in fam.sets if not direction_in_recession_cone(s, v)]
        if escaped or is_zero(v):
            raise AssertionError(
                f"probe direction {to_json(v)} escaped {escaped}; solver invariant broken"
            )
    return v


def is_bounded(s: ConvexSet) -> bool:
    """True iff the set's recession cone is {0}. H-rep callers must pass
    a nonempty set (the cone probes are meaningless otherwise)."""
    if isinstance(s.rep, VRep):
        return not s.rep.rays
    return _recession_probe(s.dim, (s,)) is None


# ---------------------------------------------------------------------------
# projection

def _empty_hrep(dim: int) -> HRep:
    e1 = (1,) + (0,) * (dim - 1)
    return HRep(((e1, -1), (tuple(-c for c in e1), 0)))


def project_drop_last(s: ConvexSet) -> ConvexSet:
    """Orthogonal projection forgetting the last coordinate: the image
    of the set's generators (an H-rep's from _generators), each point
    and each nonzero ray with its last coordinate dropped, deduplicated
    in first order. A V-rep maps to that image; an H-rep to the image's
    facets, VRep.rows, or to _empty_hrep when it is empty. Raises
    MalformedInputError past DD_WORK_CAP, in either conversion.
    """
    if s.dim < 2:
        raise MalformedInputError("cannot project a 1-dimensional ambient space")
    d = s.dim
    label = f"proj({s.label})"
    try:
        points, rays = _generators(s)
    except EmptySetError:
        return ConvexSet(label, d - 1, _empty_hrep(d - 1))
    image = VRep(tuple(dict.fromkeys(p[:-1] for p in points)),
                 tuple(dict.fromkeys(r[:-1] for r in rays if any(r[:-1]))))
    if isinstance(s.rep, VRep):
        return ConvexSet(label, d - 1, image)
    return ConvexSet(label, d - 1, HRep(image.rows))


def convex_hull_union(fam: Family, indices: Iterable[int]) -> ConvexSet:
    """conv of the union of the members: concatenate their generators,
    an H-rep's from _generators, deduplicated in first order. Raises
    EmptySetError for an empty member."""
    members = fam.select(list(indices))
    if not members:
        raise MalformedInputError("empty index list")
    gens = [_generators(s) for s in members]
    label = "hull(" + ",".join(s.label for s in members) + ")"
    return ConvexSet(label, members[0].dim, VRep(tuple(dict.fromkeys(p for pts, _ in gens for p in pts)),
                                                 tuple(dict.fromkeys(r for _, rays in gens for r in rays))))


# ---------------------------------------------------------------------------
# lifted projections (shadows of box-truncated members)

def _require_compact_box(box: ConvexSet) -> None:
    if not isinstance(box.rep, VRep) or box.rep.rays:
        raise MalformedInputError("box must be a compact V-representation")


def lifted_projection_witness(sets: Sequence[ConvexSet], box: ConvexSet) -> Optional[Point]:
    """A common point of the last-coordinate shadows of
    {A ∩ box : A in sets}, or None when the shadows do not meet.

    One LP: a shared x in R^(d-1) plus an independent height t_j per
    member, with (x, t_j) constrained into A_j and into the box. The
    shared x is returned.
    """
    _require_compact_box(box)
    if not sets:
        raise MalformedInputError("no sets given")
    d = box.dim
    for s in sets:
        if s.dim != d:
            raise MalformedInputError("dimension mismatch with box")
    if d < 2:
        raise MalformedInputError("need ambient dimension >= 2")
    xs = list(range(d - 1))
    blocks = []
    for j, s in enumerate(sets):  # x, then the height of member j
        coords = xs + [d - 1 + j]
        blocks += [(coords, s.rep.rows), (coords, box.rep.rows)]
    x = _solve(d - 1 + len(sets), blocks)
    return None if x is None else x[: d - 1]


# ---------------------------------------------------------------------------
# exact linear coordinate changes

def change_coordinates(s: ConvexSet, forward: Matrix, inverse: Matrix) -> ConvexSet:
    """Apply y = forward . x to the set (inverse must be forward^-1).

    V-reps map generator-wise through `forward`; H-rep normals pull back
    through `inverse` (n . x <= b becomes (n . inverse) . y <= b), and
    the rows are scaled to ints again.
    """
    if isinstance(s.rep, VRep):
        rep: HRep | VRep = VRep(
            tuple(mat_vec(forward, p) for p in s.rep.points),
            tuple(mat_vec(forward, r) for r in s.rep.rays),
        )
    else:
        rep = _hrep((vec_mat(normal, inverse), offset) for normal, offset in s.rep.rows)
    return ConvexSet(s.label, s.dim, rep)


def change_coordinates_family(fam: Family, forward: Matrix, inverse: Matrix) -> Family:
    return Family(fam.dim, tuple(
        change_coordinates(s, forward, inverse) for s in fam.sets
    ))


# ---------------------------------------------------------------------------
# JSON

def set_to_json(s: ConvexSet) -> dict:
    out: dict = {"label": s.label, "dim": s.dim}
    if isinstance(s.rep, VRep):
        out["vrep"] = {
            "points": to_json(s.rep.points),
            "rays": to_json(s.rep.rays),
        }
    else:
        out["hrep"] = [{"normal": to_json(normal), "offset": offset} for normal, offset in s.rep.rows]
    return out


def _json_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise MalformedInputError(f"{what} must be a list")
    return value


def _json_points(value, what: str) -> tuple[Point, ...]:
    """A JSON list of coordinate lists (points, rays)."""
    return tuple(point(_json_list(p, f"each of the {what}")) for p in _json_list(value, what))


def set_from_json(obj) -> ConvexSet:
    if not isinstance(obj, dict):
        raise MalformedInputError("set must be a JSON object")
    try:
        label = obj["label"]
        dim = obj["dim"]
    except KeyError as exc:
        raise MalformedInputError(f"set missing key {exc}") from exc
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise MalformedInputError("dim must be an integer")
    if dim > MAX_DIM:  # a family's dimension must match its sets'
        raise MalformedInputError(f"dim {dim} exceeds the maximum {MAX_DIM}")
    has_v = "vrep" in obj
    has_h = "hrep" in obj
    if has_v == has_h:
        raise MalformedInputError("set needs exactly one of vrep/hrep")
    if has_v:
        v = obj["vrep"]
        if not isinstance(v, dict) or "points" not in v:
            raise MalformedInputError("vrep needs a points list")
        pts = _json_points(v["points"], "vrep points")
        rays = _json_points(v.get("rays", []), "vrep rays")
        return ConvexSet(label, dim, VRep(pts, rays))
    hs = _json_list(obj["hrep"], "hrep")
    if not all(isinstance(h, dict) and "normal" in h and "offset" in h for h in hs):
        raise MalformedInputError("halfspace needs normal and offset")
    return ConvexSet(label, dim, _hrep((_json_list(h["normal"], "halfspace normal"), h["offset"]) for h in hs))


def family_to_json(fam: Family) -> dict:
    return {"dimension": fam.dim, "sets": [set_to_json(s) for s in fam.sets]}


def family_from_json(obj) -> Family:
    if not isinstance(obj, dict) or "dimension" not in obj or "sets" not in obj:
        raise MalformedInputError("family needs dimension and sets")
    dim = obj["dimension"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise MalformedInputError("dimension must be an integer")
    sets = tuple(set_from_json(s) for s in _json_list(obj["sets"], "sets"))
    if not sets:
        raise MalformedInputError("empty family")
    return Family(dim, sets)
