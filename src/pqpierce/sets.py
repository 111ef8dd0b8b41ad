"""Convex polyhedral sets in two exact representations, plus the
geometric primitives built on the rational LP engine.

H-representation: a finite intersection of closed halfspaces
    {x : normal . x <= offset}.
V-representation: conv(points) + cone(rays); always closed and, since
points must be nonempty, always a nonempty set.

Intersections are never materialized. A small full-dimensional V-rep
carries its facets, enumerated once from its generators; it then joins
LPs as <= rows over the ambient coordinates, as an H-rep does, and
membership and recession of a direction are substitution into those
rows. Any other V-rep enters each LP (membership, joint intersection,
projected shadows, recession) as coefficient blocks of multipliers for
its generators; only these blocks ever meet coordinates pinned to
constants.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import comb, lcm
from typing import Iterable, Optional, Sequence

from .errors import EmptySetError, MalformedInputError
from .lp import LE, EQ, Constraint, LinearSystem, _int_row, _pivot, _reduced, lp_feasible
from .rational import (
    Matrix,
    Point,
    RatLike,
    dot,
    is_zero,
    mat_vec,
    point,
    point_json,
    rat,
    rat_str,
    vec_mat,
)


# The largest dim a JSON set may declare: each coordinate is an LP column.
MAX_DIM = 1000

# Above this many d-subsets of generators a V-rep keeps its LP multipliers.
FACET_SUBSET_CAP = 64


@dataclass(frozen=True, slots=True)
class Halfspace:
    """{x : normal . x <= offset}. A zero normal is only legal when the
    constraint is vacuous (offset >= 0). Facets of a V-rep hold
    primitive int rows here in place of Fractions."""

    normal: Point
    offset: Fraction

    def __post_init__(self):
        if is_zero(self.normal) and self.offset < 0:
            raise MalformedInputError("zero normal with negative offset")


def halfspace(normal: Iterable[RatLike], offset: RatLike) -> Halfspace:
    return Halfspace(point(normal), rat(offset))


@dataclass(frozen=True)
class HRep:
    halfspaces: tuple[Halfspace, ...]


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
    def facets(self) -> Optional[tuple[Halfspace, ...]]:
        """The facet halfspaces as primitive int rows; None for a set that
        is lower-dimensional, the whole space or over FACET_SUBSET_CAP."""
        return _facets(self.points, self.rays)


def _kernel_vector(rows: list[list[int]]) -> Optional[list[int]]:
    """A nonzero int solution of rows . x = 0 when the rows have rank one
    less than their length, else None (fraction-free Gauss-Jordan on the
    list, whose rows it replaces but never mutates)."""
    n = len(rows[0])
    pivots: list[int] = []
    for c in range(n):
        k = len(pivots)
        r = next((i for i in range(k, len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[k], rows[r] = rows[r], rows[k]
        _pivot(rows, k, c)
        pivots.append(c)
    if len(pivots) < n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    # pivot row k reads p_k * x[c_k] + rows[k][free] * x[free] = 0
    den = 1
    for k, c in enumerate(pivots):
        den = lcm(den, rows[k][c])
    x = [0] * n
    x[free] = den
    for k, c in enumerate(pivots):
        x[c] = -rows[k][free] * (den // rows[k][c])
    return x


def _facets(points: tuple[Point, ...], rays: tuple[Point, ...]) -> Optional[tuple[Halfspace, ...]]:
    """Facets of conv(points) + cone(rays) by the double description idea
    (Motzkin, Raiffa, Thompson and Thrall 1953; Avis and Fukuda 1992):
    a facet's hyperplane a.x = b holds d generators, a point among them,
    that fix (a, b) up to scale, with all points on one side and all rays
    pointing into it. One holding every generator: lower-dimensional.
    Generators are int rows [p, -1] and [r, 0], scaled by positive ints."""
    d = len(points[0])
    if comb(len(points) + len(rays), d) > FACET_SUBSET_CAP:
        return None
    gens = [_int_row([*p, -1]) for p in points] + [_int_row([*r, 0]) for r in rays]
    out: dict[tuple[int, ...], Halfspace] = {}
    for sub in combinations(range(len(gens)), d):
        if sub[0] >= len(points):
            break  # combinations come in lex order: no later one holds a point
        ab = _kernel_vector([gens[i] for i in sub])
        if ab is None:
            continue
        row = _reduced(ab)
        sides = [sum(a * g for a, g in zip(row, gen)) for gen in gens]
        lo, hi = min(sides), max(sides)
        if lo == hi == 0:
            return None
        if hi > 0:
            if lo < 0:
                continue
            row = [-a for a in row]
        out.setdefault(tuple(row), Halfspace(tuple(row[:-1]), row[-1]))
    return tuple(out.values()) or None


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
            for p in self.rep.points + self.rep.rays:
                if len(p) != self.dim:
                    raise MalformedInputError(
                        f"{self.label}: generator arity != dim {self.dim}"
                    )
        else:
            for h in self.rep.halfspaces:
                if len(h.normal) != self.dim:
                    raise MalformedInputError(
                        f"{self.label}: halfspace arity != dim {self.dim}"
                    )


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
    hs = tuple(Halfspace(point(n), rat(b)) for n, b in halfspaces)
    if dim is None:
        if not hs:
            raise MalformedInputError("dimension required for empty H-rep")
        dim = len(hs[0].normal)
    return ConvexSet(label, dim, HRep(hs))


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

    def index_of(self, label: str) -> int:
        for i, s in enumerate(self.sets):
            if s.label == label:
                return i
        raise MalformedInputError(f"no set labeled {label!r}")

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
# LP assembly
#
# A set enters an LP as one of two blocks over the ambient variables xs.
# A set with rows (_rows) gives <= rows in xs alone. Any other V-rep
# gives a generator block: xs equals a combination of its generators,
# through multipliers. A recession cone is the same two blocks on other
# data: rows with zero offsets, or generators without points. Only a
# generator block ever meets a point pinned to constants, since
# membership of a pinned point in rows is decided by substitution.
# Each block row is an lp.Constraint over its nonzero terms alone, and
# the simplex fills its tableau row from them: no dense row is built.


class _SysBuilder:
    def __init__(self):
        self.nvars = 0
        self.nonneg: set[int] = set()
        self.rows: list[Constraint] = []

    def vars(self, k: int, nonneg: bool = False) -> list[int]:
        new = list(range(self.nvars, self.nvars + k))
        self.nvars += k
        if nonneg:
            self.nonneg.update(new)
        return new

    def add(self, relation: str, terms: dict[int, RatLike], rhs: RatLike):
        self.rows.append(Constraint(terms, relation, rhs))

    def system(self) -> LinearSystem:
        return LinearSystem(self.nvars, tuple(self.rows), frozenset(self.nonneg))


def _rows(s: ConvexSet) -> Optional[tuple[Halfspace, ...]]:
    """An H-rep's halfspaces, a V-rep's facets, or None for a V-rep
    that keeps its multipliers."""
    return s.rep.halfspaces if isinstance(s.rep, HRep) else s.rep.facets


def _row_block(b: _SysBuilder, rows: Iterable[tuple[Point, RatLike]], xs: Sequence[int]) -> None:
    """normal . x <= offset for each (normal, offset), x the variables xs."""
    for normal, offset in rows:
        b.add(LE, {x: a for x, a in zip(xs, normal) if a}, offset)


def _generator_block(
    b: _SysBuilder, points: Sequence[Point], rays: Sequence[Point],
    xs: Optional[Sequence[int]], at: Sequence[RatLike],
) -> None:
    """x + at in conv(points) + cone(rays), x the variables xs (none when
    xs is None); in cone(rays) alone when there are no points."""
    gens = (*points, *rays)
    mult = b.vars(len(gens), nonneg=True)
    for i, const in enumerate(at):
        terms = {m: g[i] for m, g in zip(mult, gens) if g[i]}
        if xs is not None:
            terms[xs[i]] = -1
        b.add(EQ, terms, const)
    if points:
        b.add(EQ, dict.fromkeys(mult[:len(points)], 1), 1)


def _member_rows(b: _SysBuilder, s: ConvexSet, xs: Sequence[int]) -> None:
    rows = _rows(s)
    if rows is None:
        _generator_block(b, s.rep.points, s.rep.rays, xs, (0,) * s.dim)
    else:
        _row_block(b, ((h.normal, h.offset) for h in rows), xs)


# ---------------------------------------------------------------------------
# primitives

def contains_point(s: ConvexSet, x: Sequence[RatLike]) -> bool:
    """Exact membership: substitution into the halfspaces of an H-rep
    or the facets of a V-rep, one LP for a V-rep without facets."""
    xp = point(x)
    if len(xp) != s.dim:
        raise MalformedInputError(f"point arity {len(xp)} != dim {s.dim}")
    rows = _rows(s)
    if rows is not None:
        return all(dot(h.normal, xp) <= h.offset for h in rows)
    b = _SysBuilder()
    _generator_block(b, s.rep.points, s.rep.rays, None, xp)
    ok, _ = lp_feasible(b.system())
    return ok


def is_empty(s: ConvexSet) -> bool:
    if isinstance(s.rep, VRep):
        return False
    b = _SysBuilder()
    _member_rows(b, s, b.vars(s.dim))
    ok, _ = lp_feasible(b.system())
    return not ok


def some_point(s: ConvexSet) -> Point:
    """A point of the set: the first generator of a V-rep, an LP witness
    for an H-rep. Raises EmptySetError when there is none."""
    if isinstance(s.rep, VRep):
        return s.rep.points[0]
    b = _SysBuilder()
    xs = b.vars(s.dim)
    _member_rows(b, s, xs)
    ok, sol = lp_feasible(b.system())
    if not ok:
        raise EmptySetError(f"set {s.label!r} is empty")
    return tuple(sol[j] for j in xs)


def intersect_nonempty(
    fam: Family, indices: Iterable[int]
) -> tuple[bool, Optional[Point]]:
    """Joint intersection of the indexed members via a single LP.

    The witness returned on success is re-checked against every indexed
    member with contains_point before being handed out.
    """
    idx = list(indices)
    if not idx:
        raise MalformedInputError("empty index list")
    members = fam.select(idx)
    b = _SysBuilder()
    xs = b.vars(fam.dim)
    for s in members:
        _member_rows(b, s, xs)
    ok, sol = lp_feasible(b.system())
    if not ok:
        return False, None
    witness = tuple(sol[j] for j in xs)
    for s in members:
        if not contains_point(s, witness):
            raise AssertionError(
                f"joint LP witness escaped {s.label}; solver invariant broken"
            )
    return True, witness


def recession_cone(s: ConvexSet) -> ConvexSet:
    """The set's recession cone.

    H-rep: same nonzero normals with offsets zeroed (requires
    nonemptiness, checked by LP). V-rep: the cone generated by the rays.
    """
    label = f"rc({s.label})"
    if isinstance(s.rep, VRep):
        origin = (Fraction(0),) * s.dim
        return ConvexSet(label, s.dim, VRep((origin,), s.rep.rays))
    if is_empty(s):
        raise EmptySetError(f"recession cone of empty set {s.label!r}")
    return ConvexSet(label, s.dim, HRep(tuple(
        Halfspace(h.normal, Fraction(0))
        for h in s.rep.halfspaces if not is_zero(h.normal)
    )))


def direction_in_recession_cone(s: ConvexSet, v: Sequence[RatLike]) -> bool:
    """Does the set recede along v (exactly)? Substitution into the
    rows of a set that has them, one LP over the rays otherwise."""
    vp = point(v)
    if len(vp) != s.dim:
        raise MalformedInputError("direction arity mismatch")
    if is_zero(vp):
        return True
    rows = _rows(s)
    if rows is not None:
        return all(dot(h.normal, vp) <= 0 for h in rows)
    b = _SysBuilder()
    _generator_block(b, (), s.rep.rays, None, vp)
    ok, _ = lp_feasible(b.system())
    return ok


def _recession_probe(dim: int, members: Sequence[ConvexSet]) -> Optional[Point]:
    """Probe the 2*dim signed coordinate functionals in ascending
    coordinate order, positive sign first, for a nonzero v in every
    member's recession cone; each probe is one LP."""
    for axis in range(dim):
        for sign in (1, -1):
            b = _SysBuilder()
            vs = b.vars(dim)
            for s in members:
                rows = _rows(s)
                if rows is None:
                    _generator_block(b, (), s.rep.rays, vs, (0,) * dim)
                else:
                    _row_block(b, ((h.normal, 0) for h in rows if not is_zero(h.normal)), vs)
            b.add(EQ, {vs[axis]: 1}, sign)
            ok, sol = lp_feasible(b.system())
            if ok:
                return tuple(sol[j] for j in vs)
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
                f"probe direction {point_json(v)} escaped {escaped}; solver invariant broken"
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

def _canonical_row(coeffs: tuple[Fraction, ...], off: Fraction):
    lead = next((a for a in coeffs if a != 0), None)
    if lead is None:
        return None  # vacuous or infeasible, caller inspects offset
    scale = Fraction(1) / abs(lead)
    return tuple(a * scale for a in coeffs), off * scale


def _empty_hrep(dim: int) -> HRep:
    e1 = tuple(Fraction(1 if i == 0 else 0) for i in range(dim))
    neg = tuple(-c for c in e1)
    return HRep((Halfspace(e1, Fraction(-1)), Halfspace(neg, Fraction(0))))


def project_drop_last(s: ConvexSet) -> ConvexSet:
    """Orthogonal projection forgetting the last coordinate.

    V-rep: generator-wise (the image of conv+cone is conv+cone of the
    images). H-rep: one step of Fourier-Motzkin elimination with
    structural deduplication after canonical rescaling; no LP-based
    redundancy pruning here.
    """
    if s.dim < 2:
        raise MalformedInputError("cannot project a 1-dimensional ambient space")
    d = s.dim
    label = f"proj({s.label})"
    if isinstance(s.rep, VRep):
        pts: list[Point] = []
        for p in s.rep.points:
            q = p[: d - 1]
            if q not in pts:
                pts.append(q)
        rays: list[Point] = []
        for r in s.rep.rays:
            q = r[: d - 1]
            if not is_zero(q) and q not in rays:
                rays.append(q)
        return ConvexSet(label, d - 1, VRep(tuple(pts), tuple(rays)))

    keep: list[tuple[tuple[Fraction, ...], Fraction]] = []
    pos: list[tuple[tuple[Fraction, ...], Fraction, Fraction]] = []
    neg: list[tuple[tuple[Fraction, ...], Fraction, Fraction]] = []
    for h in s.rep.halfspaces:
        c = h.normal[d - 1]
        head = h.normal[: d - 1]
        if c == 0:
            keep.append((head, h.offset))
        elif c > 0:
            pos.append((head, h.offset, c))
        else:
            neg.append((head, h.offset, c))
    derived = list(keep)
    for np_, bp, cp in pos:
        for nn, bn, cn in neg:
            coeffs = tuple((-cn) * a + cp * b for a, b in zip(np_, nn))
            derived.append((coeffs, (-cn) * bp + cp * bn))

    seen = set()
    rows: list[Halfspace] = []
    for coeffs, off in derived:
        canon = _canonical_row(coeffs, off)
        if canon is None:
            if off < 0:  # 0 <= negative: the projection is empty
                return ConvexSet(label, d - 1, _empty_hrep(d - 1))
            continue
        if canon not in seen:
            seen.add(canon)
            rows.append(Halfspace(*canon))
    return ConvexSet(label, d - 1, HRep(tuple(rows)))


def convex_hull_union(fam: Family, indices: Iterable[int]) -> ConvexSet:
    """conv of the union of V-represented members: concatenate generators."""
    members = fam.select(list(indices))
    if not members:
        raise MalformedInputError("empty index list")
    pts: list[Point] = []
    rays: list[Point] = []
    for s in members:
        if not isinstance(s.rep, VRep):
            raise MalformedInputError(
                f"convex_hull_union needs V-representations; {s.label} is H-rep"
            )
        for p in s.rep.points:
            if p not in pts:
                pts.append(p)
        for r in s.rep.rays:
            if r not in rays:
                rays.append(r)
    label = "hull(" + ",".join(s.label for s in members) + ")"
    return ConvexSet(label, members[0].dim, VRep(tuple(pts), tuple(rays)))


# ---------------------------------------------------------------------------
# lifted projections (shadows of box-truncated members)

def _require_compact_box(box: ConvexSet) -> None:
    if not isinstance(box.rep, VRep) or box.rep.rays:
        raise MalformedInputError("box must be a compact V-representation")


def lifted_projection_witness(
    sets: Sequence[ConvexSet], box: ConvexSet
) -> tuple[bool, Optional[Point]]:
    """Common point of the last-coordinate shadows of {A ∩ box : A in sets}.

    One LP: a shared x in R^(d-1) plus an independent height t_j per
    member, with (x, t_j) constrained into A_j and into the box.
    Returns (nonempty, shared x or None).
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
    b = _SysBuilder()
    xs = b.vars(d - 1)
    for s in sets:
        coords = xs + b.vars(1)
        _member_rows(b, s, coords)
        _member_rows(b, box, coords)
    ok, sol = lp_feasible(b.system())
    if not ok:
        return False, None
    return True, tuple(sol[j] for j in xs)


# ---------------------------------------------------------------------------
# exact linear coordinate changes

def change_coordinates(s: ConvexSet, forward: Matrix, inverse: Matrix) -> ConvexSet:
    """Apply y = forward . x to the set (inverse must be forward^-1).

    V-reps map generator-wise through `forward`; H-rep normals pull back
    through `inverse` (n . x <= b becomes (n . inverse) . y <= b).
    """
    if isinstance(s.rep, VRep):
        rep: HRep | VRep = VRep(
            tuple(mat_vec(forward, p) for p in s.rep.points),
            tuple(mat_vec(forward, r) for r in s.rep.rays),
        )
    else:
        rep = HRep(tuple(
            Halfspace(vec_mat(h.normal, inverse), h.offset)
            for h in s.rep.halfspaces
        ))
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
            "points": [point_json(p) for p in s.rep.points],
            "rays": [point_json(r) for r in s.rep.rays],
        }
    else:
        out["hrep"] = [
            {"normal": point_json(h.normal), "offset": rat_str(h.offset)}
            for h in s.rep.halfspaces
        ]
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
    hs = []
    for h in _json_list(obj["hrep"], "hrep"):
        if not isinstance(h, dict) or "normal" not in h or "offset" not in h:
            raise MalformedInputError("halfspace needs normal and offset")
        normal = point(_json_list(h["normal"], "halfspace normal"))
        hs.append(Halfspace(normal, rat(h["offset"])))
    return ConvexSet(label, dim, HRep(tuple(hs)))


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
