"""Exact linear programming and linear algebra over the rationals.

Feasibility of systems of <= rows over free variables, the one LP form
the package builds, by the first phase of a primal simplex with Bland's
rule, so it never cycles and is fully deterministic. A row is the sets'
own int row (terms, rhs), sparse from the set block that builds it to
the tableau: terms from variable index to nonzero int. Only ints reach
the tableau, which is fraction-free (Edmonds 1967; Bareiss 1968) and
compact: rows over the nonbasic variables only, each with its own
denominator and cut by its gcd after every pivot; a free variable's two
halves share one column, up to sign. So the simplex makes exactly the
pivots and returns exactly the witnesses (Fractions) of a full Fraction
tableau over the same rows. Matrix inverses take the same exchange
step.
"""
from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

from .errors import BudgetExhaustedError, MalformedInputError
from .rational import Matrix, Point


_q = int  # the number type of every tableau entry

# sum of a * x_j over terms {j: a} <= rhs
Row = tuple[dict[int, int], int]


@dataclass(frozen=True)
class LinearSystem:
    """A feasibility system of int <= rows over `dim` free real variables."""

    dim: int
    constraints: tuple[Row, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise MalformedInputError("negative dimension")
        names: set[int] = set()
        total = 0  # a sum of ints is an int; a Fraction or float is not
        for terms, rhs in self.constraints:
            names.update(terms)
            total += sum(terms.values(), rhs)
        if names and not 0 <= min(names) <= max(names) < self.dim:
            raise MalformedInputError(f"constraint names a variable outside 0..{self.dim - 1}")
        if type(total) is not int:
            raise MalformedInputError("a row's entries must be ints")


# ---------------------------------------------------------------------------
# LP-call budget (consumed by the CLI's --budget flag)

class LpBudget:
    def __init__(self, max_calls: int):
        self.remaining = max_calls

    def charge(self) -> None:
        if self.remaining <= 0:
            raise BudgetExhaustedError("LP call budget exhausted")
        self.remaining -= 1


_active_budget: ContextVar[Optional[LpBudget]] = ContextVar("lp_budget", default=None)


@contextmanager
def lp_budget(max_calls: int):
    """Limit the number of simplex invocations inside the with-block."""
    budget = LpBudget(max_calls)
    token = _active_budget.set(budget)
    try:
        yield budget
    finally:
        _active_budget.reset(token)


def _charge_budget() -> None:
    budget = _active_budget.get()
    if budget is not None:
        budget.charge()


# ---------------------------------------------------------------------------
# fraction-free elimination
#
# The simplex and invert_matrix clear a column with _exchange, and
# sets._cone combines rays the same way. A row of ints stands for
# itself over a nonzero scale; _reduced,
# the one gcd cut, divides by a positive one, so it moves no ratio or
# sign. Rows are reduced in loops, not by gcd(*row): a starred call
# leaves its argument tuple on CPython's free list.

def _reduced(row: list[int]) -> list[int]:
    """The row divided by the gcd of its entries."""
    g = 0
    for a in row:
        if a:
            g = gcd(g, a)
            if g == 1:
                return row
    return [a // g for a in row] if g > 1 else row


def _int_row(values) -> list[int]:
    """Rationals (ints or Fractions) times the lcm of their denominators."""
    den = 1
    for a in values:
        den = lcm(den, a.denominator)
    return [a.numerator * (den // a.denominator) for a in values]


# ---------------------------------------------------------------------------
# simplex engine
#
# The tableau stores only the columns of nonbasic variables, one slot
# each: a row is [*slots, rhs, den], ints, where den > 0 is the row's
# entry in its basic variable's column (0 in every other row, so not
# stored). A free x_j = x_j+ - x_j- has one slot while both halves are
# nonbasic, holding the one that left the basis last (x_j+ at first);
# the other's column is its negation. The last row holds the reduced
# costs of the phase-1 objective, -objective as its rhs and den 0. Each
# row is the row of the full Fraction tableau, less its unit and
# negated columns, times a positive scale, so every sign test and ratio
# comparison, hence every pivot, is the same.

def _exchange(T: list[list[int]], basis: list[int], slots: list[int], r: int, c: int) -> None:
    """Pivot on row r and slot c: the variable in slot c enters the basis
    at row r and the leaving variable takes slot c. Every other row
    becomes row * p - f * T[r], with -f * den_r in slot c and its den
    times p, cut by its gcd; row r gets den_r in slot c and p as its den
    (p = T[r][c], f the row's own entry in slot c)."""
    rowr = T[r]
    p, den = rowr[c], rowr[-1]
    piv = rowr[:]
    piv[c] += den  # f * p - f * (p + den) = -f * den
    piv[-1] = 0  # den * p - f * 0
    for k, row in enumerate(T):
        f = row[c]
        if f and k != r:
            T[k] = _reduced([a * p - f * b for a, b in zip(row, piv)])
    rowr[c], rowr[-1] = den, p
    basis[r], slots[c] = slots[c], basis[r]


def _simplex(system: LinearSystem) -> Optional[Point]:
    """Phase-1 simplex: a feasible point of the system, or None.

    Minimizes the sum of the artificial variables; the system is
    feasible exactly when that minimum is zero. Bland's rule (lowest
    eligible variable enters; among minimum-ratio rows the one whose
    basic variable has the lowest index leaves) guarantees termination
    on degenerate systems.
    """
    _charge_budget()
    d = system.dim
    cons = system.constraints
    m = len(cons)

    # variables, numbered as the full tableau's columns: x_j+ and x_j- at
    # 2j and 2j + 1; the slack of row i at 2d + i; an artificial for each
    # row with rhs < 0, from 2d + m on. The slots hold each x_j+ and the
    # slack of each artificial row.
    art_rows = [i for i, c in enumerate(cons) if c[1] < 0]
    slots = list(range(0, 2 * d, 2))
    n = d + len(art_rows)

    # each row negated when its rhs is negative; its basic slack or
    # artificial has entry 1
    T: list[list[int]] = []
    basis: list[int] = []
    for i, (terms, rhs) in enumerate(cons):
        sign = -1 if rhs < 0 else 1
        row = [0] * (n + 2)
        for j, a in terms.items():
            row[j] = sign * a
        row[-2:] = sign * rhs, 1
        if sign < 0:
            row[len(slots)] = -1
            basis.append(2 * d + m + len(slots) - d)
            slots.append(2 * d + i)
        else:
            basis.append(2 * d + i)
        T.append(row)

    # reduced costs of the sum of artificials
    r = [0] * (n + 2)
    for i in art_rows:
        r = [a - c for a, c in zip(r, T[i])]
    r[-1] = 0
    T.append(_reduced(r))

    while True:
        # the lowest variable with a negative reduced cost enters; a free
        # slot's other half has the negated one
        eligible = [(v ^ 1 if a > 0 else v, k) for k, (a, v) in enumerate(zip(T[m], slots))
                    if a < 0 or (a > 0 and v < 2 * d)]
        if not eligible:
            break
        enter, c = min(eligible)
        if enter != slots[c]:  # the other half enters: negate the slot
            slots[c] = enter
            for row in T:
                row[c] = -row[c]
        # min ratio rhs/a over rows with a > 0, compared as cross products
        leave = -1
        for i in range(m):
            a = T[i][c]
            if a > 0:
                if leave < 0:
                    leave, best_b, best_a = i, T[i][-2], a
                    continue
                lhs = T[i][-2] * best_a
                rhs = best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
                    leave, best_b, best_a = i, T[i][-2], a
        # the phase-1 objective is bounded below by 0, so some row leaves
        _exchange(T, basis, slots, leave, c)
    if T[m][-2]:
        return None

    # artificials still basic sit at value 0; the point reads off the rest
    val = {basis[i]: Fraction(T[i][-2], T[i][-1]) for i in range(m)}
    zero = Fraction(0)
    return tuple(val.get(2 * j, zero) - val.get(2 * j + 1, zero) for j in range(d))


def lp_feasible(system: LinearSystem) -> tuple[bool, Optional[Point]]:
    """Exact feasibility test. Returns (feasible, witness point or None)."""
    x = _simplex(system)
    return x is not None, x


# ---------------------------------------------------------------------------
# exact dense linear algebra

def invert_matrix(mat: Matrix) -> Matrix:
    """Exact inverse of a square rational matrix by the simplex's
    exchange step on mat x + s = 0, each row scaled to ints: each x_j
    enters the basis in place of the slack of the first row with a
    nonzero entry in slot j. A negative pivot leaves a negative den."""
    n = len(mat)
    if any(len(r) != n for r in mat):
        raise MalformedInputError("matrix not square")
    T = [_int_row([*row, 1]) for row in mat]  # [*slots, den], no rhs
    basis, slots = list(range(n, 2 * n)), list(range(n))  # x_j is j, slack i is n + i
    for j in range(n):
        r = next((i for i in range(n) if basis[i] >= n and T[i][j]), -1)
        if r < 0:
            raise MalformedInputError("singular matrix")
        _exchange(T, basis, slots, r, j)
    # x_k's row reads den * x_k + sum over i of den * inverse[k][i] * s_i
    row_of, slot_of = sorted(range(n), key=basis.__getitem__), sorted(range(n), key=slots.__getitem__)
    return tuple(tuple(Fraction(T[r][c], T[r][-1]) for c in slot_of) for r in row_of)


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
