"""Exact LP engine tests: frozen cases first, then randomized invariants."""
from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pqpierce import lp
from pqpierce.errors import BudgetExhaustedError, MalformedInputError
from pqpierce.lp import (
    LinearSystem,
    completed_basis_matrix,
    invert_matrix,
    lp_budget,
    lp_feasible,
)
from pqpierce.rational import mat_vec, rat


F = Fraction


def le(coeffs, rhs):
    """The sparse int row of a dense row of rationals: times the lcm of
    its denominators, zeros dropped."""
    *y, b = lp._int_row([*map(rat, coeffs), rat(rhs)])
    return {j: a for j, a in enumerate(y) if a}, b


def test_empty_system_feasible_at_origin():
    ok, x = lp_feasible(LinearSystem(1, ()))
    assert ok and x == (F(0),)


def test_infeasible_interval():
    # x >= 1 and x <= 0
    sys = LinearSystem(1, (le([-1], -1), le([1], 0)))
    ok, x = lp_feasible(sys)
    assert not ok and x is None


def test_two_squares_intersection_witness_in_box():
    # [0,1]^2 meets [1/2,3/2]^2 exactly in [1/2,1]^2
    cons = (
        le([1, 0], 1), le([-1, 0], 0), le([0, 1], 1), le([0, -1], 0),
        le([1, 0], F(3, 2)), le([-1, 0], F(-1, 2)),
        le([0, 1], F(3, 2)), le([0, -1], F(-1, 2)),
    )
    ok, x = lp_feasible(LinearSystem(2, cons))
    assert ok
    assert all(F(1, 2) <= c <= F(1) for c in x)


def test_degenerate_redundant_rows_terminate():
    # the same hyperplane stacked five times plus a vertex pinned by
    # many constraints; Bland must not cycle
    cons = tuple(le([1, 1], 1) for _ in range(5)) + (
        le([-1, 0], 0), le([0, -1], 0), le([1, 0], 0),
    )
    ok, x = lp_feasible(LinearSystem(2, cons))
    assert ok and x[0] == 0


def test_budget_exhaustion_raises():
    sys = LinearSystem(1, (le([1], 1),))
    with lp_budget(2):
        lp_feasible(sys)
        lp_feasible(sys)
        with pytest.raises(BudgetExhaustedError):
            lp_feasible(sys)
    # budget gone after the with-block
    ok, _ = lp_feasible(sys)
    assert ok


def test_nested_budget_restores_the_outer_one():
    sys = LinearSystem(1, (le([1], 1),))
    with lp_budget(5) as outer:
        lp_feasible(sys)
        with lp_budget(3) as inner:
            lp_feasible(sys)
        assert (outer.remaining, inner.remaining) == (4, 2)
        with pytest.raises(BudgetExhaustedError):
            with lp_budget(1) as inner:
                lp_feasible(sys)
                lp_feasible(sys)
        lp_feasible(sys)
        assert (outer.remaining, inner.remaining) == (3, 0)
    for _ in range(6):  # no budget after the outer block
        lp_feasible(sys)


# --- the int row format -------------------------------------------------------

@pytest.mark.parametrize("var", [-1, 2])
def test_system_rejects_a_term_outside_its_variables(var):
    with pytest.raises(MalformedInputError):
        LinearSystem(2, (({0: 1, var: 1}, 0),))


@pytest.mark.parametrize("row", [
    ({0: F(1, 2)}, 0),  # a Fraction coefficient
    ({0: 1}, F(1, 2)),  # a Fraction rhs
    ({0: F(2)}, 0),  # integral, still a Fraction
    ({0: 1.0}, 0),  # a float
])
def test_system_rejects_a_non_int_entry_or_den(row):
    with pytest.raises(MalformedInputError):
        LinearSystem(1, (({0: 1}, 1), row))


def test_invert_matrix_roundtrip():
    m = tuple((rat(1), rat(2)) for _ in range(1)) + ((rat(3), rat(5)),)
    inv = invert_matrix(m)
    assert mat_vec(inv, mat_vec(m, (F(7), F(-2)))) == (F(7), F(-2))


def test_completed_basis_matrix_sends_last_axis_to_v():
    v = (F(0), F(3), F(1))
    m = completed_basis_matrix(v)
    # last column is v
    assert tuple(row[-1] for row in m) == v
    inv = invert_matrix(m)
    assert mat_vec(inv, v) == (F(0), F(0), F(1))


# --- randomized invariants ---------------------------------------------------

def _random_system(rng: random.Random) -> LinearSystem:
    dim = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
        rows.append(le(coeffs, F(rng.randint(-6, 6), rng.randint(1, 3))))
    return LinearSystem(dim, tuple(rows))


def _satisfies(sys: LinearSystem, x) -> bool:
    return all(sum((a * x[j] for j, a in terms.items()), F(0)) <= rhs for terms, rhs in sys.constraints)


def test_random_witnesses_satisfy_every_constraint_exactly():
    rng = random.Random(7)
    feasible_seen = 0
    for _ in range(300):
        sys = _random_system(rng)
        ok, x = lp_feasible(sys)
        if ok:
            feasible_seen += 1
            assert _satisfies(sys, x)
    assert feasible_seen > 50  # the sampler is not degenerate


def test_adding_a_constraint_never_revives_feasibility():
    rng = random.Random(11)
    for _ in range(200):
        sys = _random_system(rng)
        ok, _ = lp_feasible(sys)
        other = _random_system(rng)
        if other.dim != sys.dim:
            continue
        extra = other.constraints[0]
        bigger = LinearSystem(sys.dim, sys.constraints + (extra,))
        ok2, _ = lp_feasible(bigger)
        if not ok:
            assert not ok2


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.fractions(min_value=-5, max_value=5, max_denominator=6),
        min_size=2, max_size=2,
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
def test_single_halfspace_witness_property(coeffs, rhs):
    sys = LinearSystem(2, (le(coeffs, rhs),))
    ok, x = lp_feasible(sys)
    if any(c != 0 for c in coeffs) or rhs >= 0:
        assert ok and _satisfies(sys, x)
    else:
        assert not ok


# --- differential test against a Fraction tableau ----------------------------

def _fraction_simplex(system: LinearSystem):
    """Reference: the phase-1 simplex with Bland's rule on a full
    Fraction tableau, one column per variable, over the int rows as
    they are. Returns the witness (or None) and the (entering, leaving)
    variables of every pivot, which the engine must match."""
    d = system.dim
    col_pos = [2 * j for j in range(d)]
    col_neg = [2 * j + 1 for j in range(d)]
    m = len(system.constraints)
    slack_col = {i: 2 * d + i for i in range(m)}
    base_cols = 2 * d + m

    T, b = [], []
    for i, (terms, rhs) in enumerate(system.constraints):
        row = [F(0)] * base_cols
        for j, a in terms.items():
            if a:
                row[col_pos[j]] = F(a)
                row[col_neg[j]] = -F(a)
        row[slack_col[i]] = F(1)
        T.append(row)
        b.append(F(rhs))
    for i in range(m):
        if b[i] < 0:
            T[i] = [-a for a in T[i]]
            b[i] = -b[i]

    basis, art_rows = [-1] * m, []
    for i in range(m):
        j = slack_col[i]
        if T[i][j] == 1:
            basis[i] = j
        else:
            art_rows.append(i)
    nart = len(art_rows)
    total_cols = base_cols + nart
    for i in range(m):
        T[i].extend([F(0)] * nart)
    for k, i in enumerate(art_rows):
        T[i][base_cols + k] = F(1)
        basis[i] = base_cols + k

    pivots = []
    r = [F(0)] * total_cols
    for k in range(nart):
        r[base_cols + k] = F(1)
    obj = F(0)
    for i in art_rows:
        r = [a - c for a, c in zip(r, T[i])]
        obj += b[i]

    while True:
        enter = next((j for j in range(total_cols) if r[j] < 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i in range(m):
            a = T[i][enter]
            if a > 0:
                ratio = b[i] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        pivots.append((enter, basis[leave]))
        inv = 1 / T[leave][enter]
        T[leave] = [a * inv for a in T[leave]]
        b[leave] *= inv
        for k in range(m):
            f = T[k][enter]
            if k != leave and f:
                T[k] = [a - f * c for a, c in zip(T[k], T[leave])]
                b[k] -= f * b[leave]
        f = r[enter]
        r = [a - f * c for a, c in zip(r, T[leave])]
        obj += f * b[leave]
        basis[leave] = enter
    if obj != 0:
        return None, pivots
    val = {basis[i]: b[i] for i in range(m)}
    return tuple(val.get(col_pos[j], F(0)) - val.get(col_neg[j], F(0)) for j in range(d)), pivots


def _engine_pivots(system: LinearSystem):
    """lp_feasible's answer and the (entering, leaving) variables of
    every pivot it makes, numbered as the reference tableau's columns."""
    pivots = []
    exchange = lp._exchange

    def recording(T, basis, slots, r, c):
        pivots.append((slots[c], basis[r]))
        exchange(T, basis, slots, r, c)

    with mock.patch.object(lp, "_exchange", recording):
        return lp_feasible(system), pivots


# few distinct values and many zeros, so ratio-test ties (where Bland's
# rule decides) are common
_small_rationals = st.one_of(
    st.sampled_from((F(0), F(1), F(-1), F(2), F(1, 2))),
    st.fractions(min_value=-6, max_value=6, max_denominator=5),
)


@st.composite
def _systems(draw):
    dim = draw(st.integers(1, 5))
    rows = draw(st.lists(
        st.tuples(
            st.lists(_small_rationals, min_size=dim, max_size=dim),
            st.one_of(st.just(F(0)), _small_rationals),
        ),
        max_size=8,
    ))
    rows += rows[:draw(st.integers(0, 8 - len(rows)))]  # repeated rows tie too
    return LinearSystem(dim, tuple(le(c, rhs) for c, rhs in rows))


@settings(max_examples=300, deadline=None)
@given(_systems())
# x enters first with a ratio tie between rows 0 and 1; Bland's rule takes
# row 1, whose slack has the lower index, and ends at (3/2, -1), not (0, -1)
# (the last row, x >= 0, keeps the tie of the free x)
@example(LinearSystem(2, (le([-1, 2], -1), le([2, 1], 2), le([0, 1], -1), le([-1, 0], 0))))
# x- enters: the witness is (-3,)
@example(LinearSystem(1, (le([2], -2), le([1], -3))))
# a free variable leaves the basis: the witness is (-1, -3/2)
@example(LinearSystem(2, (le([-1, 2], -2), le([0, 2], -3))))
def test_witness_equals_fraction_tableau(system):
    (ok, x), pivots = _engine_pivots(system)
    expected, expected_pivots = _fraction_simplex(system)
    assert pivots == expected_pivots
    assert ok == (expected is not None)
    assert x == expected
    if ok:
        assert _satisfies(system, x)


# --- differential test of invert_matrix against a Fraction Gauss-Jordan ------

def _fraction_inverse(mat):
    """Reference: Gauss-Jordan on [mat | I] over Fractions, swapping in
    the first row with a nonzero entry in each column; None if singular."""
    n = len(mat)
    aug = [[F(a) for a in row] + [F(int(i == j)) for j in range(n)] for i, row in enumerate(mat)]
    for col in range(n):
        sel = next((i for i in range(col, n) if aug[i][col] != 0), None)
        if sel is None:
            return None
        aug[col], aug[sel] = aug[sel], aug[col]
        pv = aug[col][col]
        aug[col] = [a / pv for a in aug[col]]
        for i in range(n):
            f = aug[i][col]
            if i != col and f != 0:
                aug[i] = [a - f * c for a, c in zip(aug[i], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


# zeros make row swaps common, negatives make negative pivots
_ENTRIES = tuple(F(a) for a in (0, 0, 1, -1, 2, -3, "1/2", "-2/3", "3/4", "-5/6", "5/3", "-7/2"))


@st.composite
def _square_matrices(draw):
    n = draw(st.integers(1, 5))
    flat = draw(st.lists(st.sampled_from(_ENTRIES), min_size=n * n, max_size=n * n))
    return tuple(tuple(flat[i * n:(i + 1) * n]) for i in range(n))


@st.composite
def _invertible_or_singular(draw):
    """L U with its rows permuted, L unit lower and U upper triangular
    with a nonzero diagonal; or, half the time, such rows with one replaced
    by a rational combination of the others."""
    n = draw(st.integers(1, 5))
    entry = st.sampled_from(_ENTRIES)
    low = [[F(int(i == j)) if j >= i else draw(entry) for j in range(n)] for i in range(n)]
    up = [[draw(entry.filter(bool)) if j == i else draw(entry) if j > i else F(0) for j in range(n)]
          for i in range(n)]
    rows = [[sum(low[i][k] * up[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if draw(st.booleans()):
        coeffs = [draw(entry) for _ in range(n - 1)]
        rows[-1] = [sum((c * row[j] for c, row in zip(coeffs, rows)), F(0)) for j in range(n)]
    return tuple(map(tuple, draw(st.permutations(rows))))


def _product(a, b):
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b)) for row in a)


@settings(max_examples=400, deadline=None)
@given(_square_matrices() | _invertible_or_singular())
@example(((F(0), F(1), F(-2, 3)), (F(1, 2), F(-1, 3), F(2)), (F(-1), F(0), F(1, 2))))
@example(((F(0), F(0), F(-3)), (F(0), F(-1, 2), F(1)), (F(-2, 5), F(1), F(0))))
@example(((F(1), F(2)), (F(1, 2), F(1))))  # singular
def test_invert_matrix_equals_fraction_gauss_jordan(mat):
    expected = _fraction_inverse(mat)
    if expected is None:
        with pytest.raises(MalformedInputError):
            invert_matrix(mat)
        return
    got = invert_matrix(mat)
    assert got == expected
    assert all(type(a) is F for row in got for a in row)
    identity = tuple(tuple(F(int(i == j)) for j in range(len(mat))) for i in range(len(mat)))
    assert _product(got, mat) == identity == _product(mat, got)
