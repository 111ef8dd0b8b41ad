"""Exact linear programming and linear algebra over the rationals.

Feasibility of systems of linear equations and inequalities with
optional per-variable nonnegativity. The engine is the first phase of a
dense primal simplex with Bland's rule, so it never cycles and is fully
deterministic. All arithmetic is exact; the public surface speaks
Fraction.

Internally the tableau runs on gmpy2.mpq when that package is
importable (identical exact semantics, ~10x faster constant factor) and
falls back to Fraction otherwise.
"""
from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional

from .errors import BudgetExhaustedError, MalformedInputError
from .rational import Matrix, Point, RatLike, rat

try:  # optional fast exact backend
    from gmpy2 import mpq as _q
except ImportError:  # pragma: no cover - environment without gmpy2
    _q = Fraction

_Q0 = _q(0)
_Q1 = _q(1)

LE = "<="
EQ = "="


@dataclass(frozen=True)
class Constraint:
    """One linear constraint: coeffs . x  <=|=  rhs."""

    coeffs: Point
    relation: str
    rhs: Fraction

    def __post_init__(self):
        if self.relation not in (LE, EQ):
            raise MalformedInputError(f"bad relation {self.relation!r}")


def le(coeffs: Iterable[RatLike], rhs: RatLike) -> Constraint:
    return Constraint(tuple(rat(c) for c in coeffs), LE, rat(rhs))


def eq(coeffs: Iterable[RatLike], rhs: RatLike) -> Constraint:
    return Constraint(tuple(rat(c) for c in coeffs), EQ, rat(rhs))


@dataclass(frozen=True)
class LinearSystem:
    """A feasibility system over `dim` real variables.

    Variables listed in `nonneg` are constrained to be >= 0; the rest
    are free. Constraints are inequalities (<=) or equations (=).
    """

    dim: int
    constraints: tuple[Constraint, ...]
    nonneg: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.dim < 0:
            raise MalformedInputError("negative dimension")
        for c in self.constraints:
            if len(c.coeffs) != self.dim:
                raise MalformedInputError(
                    f"constraint arity {len(c.coeffs)} != dim {self.dim}"
                )
        for j in self.nonneg:
            if not 0 <= j < self.dim:
                raise MalformedInputError(f"nonneg index {j} out of range")


# ---------------------------------------------------------------------------
# LP-call budget (consumed by the CLI's --budget flag)

class LpBudget:
    def __init__(self, max_calls: int):
        self.remaining = max_calls
        self._lock = threading.Lock()

    def charge(self) -> None:
        with self._lock:
            if self.remaining <= 0:
                raise BudgetExhaustedError("LP call budget exhausted")
            self.remaining -= 1


_active_budget: Optional[LpBudget] = None


@contextmanager
def lp_budget(max_calls: int):
    """Limit the number of simplex invocations inside the with-block."""
    global _active_budget
    prev = _active_budget
    _active_budget = LpBudget(max_calls)
    try:
        yield _active_budget
    finally:
        _active_budget = prev


def _charge_budget() -> None:
    if _active_budget is not None:
        _active_budget.charge()


# ---------------------------------------------------------------------------
# simplex engine

def _to_q(x: Fraction):
    return _q(x.numerator, x.denominator)


def _to_fraction(x) -> Fraction:
    return Fraction(int(x.numerator), int(x.denominator))


def _simplex(system: LinearSystem) -> Optional[Point]:
    """Phase-1 simplex: a feasible point of the system, or None.

    Minimizes the sum of the artificial variables; the system is
    feasible exactly when that minimum is zero. Bland's rule (lowest
    eligible column enters; among minimum-ratio rows the one whose basic
    variable has the lowest index leaves) guarantees termination on
    degenerate systems.
    """
    _charge_budget()
    d = system.dim

    # column layout: every variable gets a + column, free ones also a -
    col_pos: list[int] = []
    col_neg: list[Optional[int]] = []
    ncol = 0
    for j in range(d):
        col_pos.append(ncol)
        ncol += 1
        if j in system.nonneg:
            col_neg.append(None)
        else:
            col_neg.append(ncol)
            ncol += 1

    m = len(system.constraints)
    slack_col: dict[int, int] = {}
    for i, c in enumerate(system.constraints):
        if c.relation == LE:
            slack_col[i] = ncol
            ncol += 1
    base_cols = ncol

    T: list[list] = []
    b: list = []
    for i, c in enumerate(system.constraints):
        row = [_Q0] * base_cols
        for j, a in enumerate(c.coeffs):
            if a:
                qa = _to_q(a)
                row[col_pos[j]] = qa
                jn = col_neg[j]
                if jn is not None:
                    row[jn] = -qa
        if i in slack_col:
            row[slack_col[i]] = _Q1
        T.append(row)
        b.append(_to_q(c.rhs))

    # make every right-hand side nonnegative
    for i in range(m):
        if b[i] < 0:
            T[i] = [-a for a in T[i]]
            b[i] = -b[i]

    # initial basis: slack where usable, artificial otherwise
    basis: list[int] = [-1] * m
    art_rows: list[int] = []
    for i in range(m):
        j = slack_col.get(i)
        if j is not None and T[i][j] == 1:
            basis[i] = j
        else:
            art_rows.append(i)
    nart = len(art_rows)
    total_cols = base_cols + nart
    for i in range(m):
        T[i].extend([_Q0] * nart)
    for k, i in enumerate(art_rows):
        col = base_cols + k
        T[i][col] = _Q1
        basis[i] = col

    # reduced costs of the sum of artificials, and its current value
    r = [_Q0] * total_cols
    for k in range(nart):
        r[base_cols + k] = _Q1
    obj = _Q0
    for i in art_rows:
        r = [a - c for a, c in zip(r, T[i])]
        obj = obj + b[i]

    while True:
        enter = -1
        for j in range(total_cols):
            if r[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = b[i] / a
                if (
                    best is None
                    or ratio < best
                    or (ratio == best and basis[i] < basis[leave])
                ):
                    best = ratio
                    leave = i
        # the phase-1 objective is bounded below by 0, so some row leaves
        piv = T[leave][enter]
        if piv != 1:
            inv = _Q1 / piv
            T[leave] = [a * inv for a in T[leave]]
            b[leave] = b[leave] * inv
        rowp = T[leave]
        bp = b[leave]
        for k in range(m):
            if k != leave:
                f = T[k][enter]
                if f:
                    T[k] = [a - f * c for a, c in zip(T[k], rowp)]
                    b[k] = b[k] - f * bp
        f = r[enter]
        r = [a - f * c for a, c in zip(r, rowp)]
        obj = obj + f * bp
        basis[leave] = enter
    if obj != 0:
        return None

    # artificials still basic sit at value 0; the point reads off the rest
    val = {basis[i]: b[i] for i in range(m)}
    out = []
    for j in range(d):
        x = val.get(col_pos[j], _Q0)
        jn = col_neg[j]
        if jn is not None:
            x = x - val.get(jn, _Q0)
        out.append(_to_fraction(x))
    return tuple(out)


def lp_feasible(system: LinearSystem) -> tuple[bool, Optional[Point]]:
    """Exact feasibility test. Returns (feasible, witness point or None)."""
    x = _simplex(system)
    return x is not None, x


# ---------------------------------------------------------------------------
# exact dense linear algebra

def invert_matrix(mat: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix (Gauss-Jordan)."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise MalformedInputError("matrix not square")
    aug = [list(row) + [Fraction(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(mat)]
    for col in range(n):
        sel = -1
        for i in range(col, n):
            if aug[i][col] != 0:
                sel = i
                break
        if sel < 0:
            raise MalformedInputError("singular matrix")
        aug[col], aug[sel] = aug[sel], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for i in range(n):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * c for a, c in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


def completed_basis_matrix(v: Point) -> Matrix:
    """A basis of R^d whose last column is v, the rest standard vectors.

    The first nonzero coordinate of v is the one whose standard vector
    is dropped, so the matrix is always invertible (det = +-v_pivot).
    Returned row-major.
    """
    d = len(v)
    pivot = next((i for i, a in enumerate(v) if a != 0), -1)
    if pivot < 0:
        raise MalformedInputError("zero vector cannot be completed to a basis")
    cols: list[Point] = []
    for i in range(d):
        if i != pivot:
            cols.append(tuple(Fraction(1 if k == i else 0) for k in range(d)))
    cols.append(v)
    return tuple(tuple(cols[j][i] for j in range(d)) for i in range(d))
