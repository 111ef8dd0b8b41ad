"""Exact linear programming and linear algebra over the rationals.

Feasibility of systems of <= rows over free variables, the one LP form
the package builds. The engine is the first phase of a dense primal
simplex with Bland's rule, so it never cycles and is fully
deterministic. A constraint's row stays sparse, terms from variable
index to nonzero coefficient, from the set block that builds it to the
simplex's tableau row; coefficients and right-hand sides are ints or
Fractions, witnesses Fractions. One fraction-free elimination step
(Edmonds 1967; Bareiss 1968), _pivot, serves the simplex tableau and
matrix inverses: rows are plain ints, cut by their gcd after every
pivot, so the simplex makes exactly the pivots and returns exactly the
witnesses of a Fraction tableau.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Optional

from .errors import BudgetExhaustedError, MalformedInputError
from .rational import Matrix, Point, RatLike, rat


@dataclass(frozen=True, slots=True)
class Constraint:
    """One linear constraint: the sum of a * x_j over terms {j: a} <= rhs.

    Unnamed variables have coefficient 0; coefficients and rhs are ints
    or Fractions. le builds one from a dense list, dropping zeros."""

    terms: Mapping[int, int | Fraction]
    rhs: int | Fraction


def le(coeffs: Iterable[RatLike], rhs: RatLike) -> Constraint:
    return Constraint({j: a for j, c in enumerate(coeffs) if (a := rat(c))}, rat(rhs))


@dataclass(frozen=True)
class LinearSystem:
    """A feasibility system of <= rows over `dim` free real variables."""

    dim: int
    constraints: tuple[Constraint, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise MalformedInputError("negative dimension")
        for c in self.constraints:
            if c.terms and not 0 <= min(c.terms) <= max(c.terms) < self.dim:
                raise MalformedInputError(f"constraint names a variable outside 0..{self.dim - 1}")


# ---------------------------------------------------------------------------
# LP-call budget (consumed by the CLI's --budget flag)

class LpBudget:
    def __init__(self, max_calls: int):
        self.remaining = max_calls

    def charge(self) -> None:
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
# fraction-free elimination
#
# _pivot is the package's one row elimination: the simplex and
# invert_matrix pivot through it, and sets._cone combines rays the same
# way. A row of ints stands for itself over a nonzero scale; a gcd cut
# is a positive one, so it moves no ratio or sign. Rows are reduced in loops,
# not by gcd(*row): a starred call leaves its argument tuple on
# CPython's free list.

def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = 0
    for a in row:
        if a:
            g = gcd(g, a)
            if g == 1:
                return row
    return [a // g for a in row] if g > 1 else row


def _pivot(rows: list[list[int]], r: int, c: int) -> None:
    """Clear column c outside row r, in place: every other row becomes
    row * p - f * rows[r], cut by its gcd, where p = rows[r][c] and f is
    the row's own entry in column c. Row r is left as it is."""
    rowp = rows[r]
    p = rowp[c]
    for k, row in enumerate(rows):
        f = row[c]
        if f and k != r:
            rows[k] = _reduced([a * p - f * b for a, b in zip(row, rowp)])


def _int_row(values) -> list[int]:
    """Rationals (ints or Fractions) times the lcm of their denominators."""
    den = 1
    for a in values:
        den = lcm(den, a.denominator)
    return [a.numerator * (den // a.denominator) for a in values]


# ---------------------------------------------------------------------------
# simplex engine
#
# Each tableau row is a list of int numerators with the right-hand side
# last. Its denominator is its entry in its basic column, always > 0, so
# the rows hold exactly the rationals of a Fraction tableau and every
# sign test and ratio comparison, hence every pivot, is the same. The
# reduced costs of the phase-1 objective are the last row; _pivot
# multiplies rows by the pivot, which is > 0, so no sign moves.
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
    cons = system.constraints

    # columns: x_j = x_j+ - x_j-, at 2j and 2j + 1; the slack of row i
    # at 2d + i; an artificial for each row with rhs < 0
    m = len(cons)
    base_cols = 2 * d + m
    art_rows = [i for i, c in enumerate(cons) if c.rhs < 0]
    art_col = {i: base_cols + k for k, i in enumerate(art_rows)}
    total_cols = base_cols + len(art_rows)

    # each row scaled by the lcm of its denominators, negated when its
    # rhs is negative; an artificial's entry is that scale, so its value is 1
    T: list[list[int]] = []
    basis: list[int] = [-1] * m
    for i, c in enumerate(cons):
        den = c.rhs.denominator
        for a in c.terms.values():
            den = lcm(den, a.denominator)
        scale = -den if c.rhs < 0 else den
        row = [0] * (total_cols + 1)
        for j, a in c.terms.items():
            v = a.numerator * (scale // a.denominator)
            row[2 * j] = v
            row[2 * j + 1] = -v
        row[2 * d + i] = scale
        row[-1] = c.rhs.numerator * (scale // c.rhs.denominator)
        k = art_col.get(i)
        if k is None:
            basis[i] = 2 * d + i
        else:
            row[k] = den
            basis[i] = k
        T.append(row)

    # the last tableau row T[m]: reduced costs of the sum of artificials
    # with -objective last, over the common denominator of the artificial
    # rows (a positive scale)
    common = 1
    for i in art_rows:
        common = lcm(common, T[i][basis[i]])
    r = [0] * (total_cols + 1)
    for i in art_rows:
        f = common // T[i][basis[i]]
        r = [a - f * c for a, c in zip(r, T[i])]
    for k in art_col.values():
        r[k] = 0
    T.append(_reduced(r))

    while True:
        enter = -1
        r = T[m]
        for j in range(total_cols):
            if r[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        # min ratio rhs/a over rows with a > 0, compared as cross products
        leave = -1
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                if leave < 0:
                    leave, best_b, best_a = i, T[i][-1], a
                    continue
                lhs = T[i][-1] * best_a
                rhs = best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, T[i][-1], a
        # the phase-1 objective is bounded below by 0, so some row leaves;
        # the pivot row stays as it is, with its entry as its new denominator
        _pivot(T, leave, enter)
        basis[leave] = enter
    if T[m][-1]:
        return None

    # artificials still basic sit at value 0; the point reads off the rest
    val = {basis[i]: Fraction(T[i][-1], T[i][basis[i]]) for i in range(m)}
    zero = Fraction(0)
    return tuple(val.get(2 * j, zero) - val.get(2 * j + 1, zero) for j in range(d))


def lp_feasible(system: LinearSystem) -> tuple[bool, Optional[Point]]:
    """Exact feasibility test. Returns (feasible, witness point or None)."""
    x = _simplex(system)
    return x is not None, x


# ---------------------------------------------------------------------------
# exact dense linear algebra

def invert_matrix(mat: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix: fraction-free
    Gauss-Jordan on [mat | I], each row scaled to ints."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise MalformedInputError("matrix not square")
    aug = [_int_row([*row, *(int(i == j) for j in range(n))]) for i, row in enumerate(mat)]
    for col in range(n):
        sel = next((i for i in range(col, n) if aug[i][col]), -1)
        if sel < 0:
            raise MalformedInputError("singular matrix")
        aug[col], aug[sel] = aug[sel], aug[col]
        _pivot(aug, col, col)
    # row i reads diag_i * (row i of the inverse)
    return tuple(tuple(Fraction(a, row[i]) for a in row[n:]) for i, row in enumerate(aug))


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
