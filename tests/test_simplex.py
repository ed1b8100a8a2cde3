import numpy as np
import pytest
from scipy.optimize import linprog

from binreg import LPNumericalFailure, solve_lp
from binreg.overlap import _cone_program
from binreg.simplex import _TIE_TOL, _run_phase


def test_basic_optimum():
    # min -x1 - x2  s.t.  x1 + x2 + s = 1
    res = solve_lp(np.array([-1.0, -1.0, 0.0]), np.array([[1.0, 1.0, 1.0]]), np.array([1.0]))
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-1.0, abs=1e-12)


def test_infeasible():
    # x1 + x2 = -1 has no nonnegative solution
    res = solve_lp(np.array([1.0, 1.0]), np.array([[1.0, 1.0]]), np.array([-1.0]))
    assert res.status == "infeasible"


def test_unbounded():
    # min -x1 with x1 - x2 = 0: the ray (t, t) drives the objective down
    # forever; the cone program is bounded below, so a ray is a failure
    with pytest.raises(LPNumericalFailure, match="unbounded ray"):
        solve_lp(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))


def test_negative_rhs_normalized():
    # -x1 = -3 means x1 = 3
    res = solve_lp(np.array([1.0]), np.array([[-1.0]]), np.array([-3.0]))
    assert res.status == "optimal"
    assert res.x[0] == pytest.approx(3.0, abs=1e-12)


def test_beale_degenerate_cycle_guard():
    """Beale's classic degenerate program cycles under the steepest-descent
    pivot rule; Bland's rule must terminate at the true optimum -1/20."""
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.50, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.00, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(-0.05, abs=1e-10)


def test_beale_from_slack_basis_leaves_the_cycle():
    """From its slack basis (columns 4, 5, 6), most-negative pricing alone
    cycles on Beale's program forever; the switch to Bland's rule after a
    run of degenerate pivots must end it at -1/20."""
    A = np.array([
        [0.25, -60.0, -1.0 / 25.0, 9.0, 1.0, 0.0, 0.0],
        [0.50, -90.0, -1.0 / 50.0, 3.0, 0.0, 1.0, 0.0],
        [0.00, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0],
    ])
    b = np.array([0.0, 0.0, 1.0])
    c = np.array([-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0])
    state = np.hstack([np.eye(3), b[:, None]])
    basis = np.array([4, 5, 6])
    used = _run_phase(state, basis, c, A, max_iter=1000)
    assert 0 < used <= 1000
    assert c[basis] @ state[:, -1] == pytest.approx(-0.05, abs=1e-12)


def test_most_negative_reduced_cost_enters():
    # from the slack basis the reduced costs are c itself; one pivot, then
    # the budget stops the phase
    state = np.hstack([np.eye(2), np.array([[4.0], [6.0]])])
    basis = np.array([3, 4])
    A = np.array([[1.0, 1.0, 1.0, 1.0, 0.0], [1.0, 2.0, 3.0, 0.0, 1.0]])
    c = np.array([-1.0, -3.0, -2.0, 0.0, 0.0])
    with pytest.raises(LPNumericalFailure):
        _run_phase(state, basis, c, A, max_iter=0)
    assert 1 in basis and 0 not in basis


def test_basic_column_never_enters():
    """B^-1 as kept after rounding: the basic column's recomputed reduced
    cost, -1 + (1 - 1e-9), is below -tolerance. Entering, it would pivot
    into its own row and change nothing, so it must be left out."""
    A = np.array([[1.0, 2.0]])
    c = np.array([-1.0, -1.9])
    state = np.array([[1.0 - 1e-9, 0.5]])
    basis = np.array([0])
    assert c[1] - c[0] * state[0, 0] * A[0, 1] > 0.0  # column 1 does not improve
    before = state.copy()
    assert _run_phase(state, basis, c, A, max_iter=10) == 0
    assert list(basis) == [0]
    assert np.array_equal(state, before)


def test_redundant_rows_handled():
    # duplicated constraint leaves an artificial variable in a zero row
    A = np.array([[1.0, 1.0], [1.0, 1.0]])
    b = np.array([1.0, 1.0])
    res = solve_lp(np.array([1.0, 0.0]), A, b)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(0.0, abs=1e-12)


def test_iteration_budget_enforced():
    A = np.array([[1.0, 1.0, 1.0]])
    with pytest.raises(LPNumericalFailure):
        solve_lp(np.array([-1.0, -2.0, 0.0]), A, np.array([1.0]), max_iter=0)


@pytest.mark.parametrize("seed", range(40))
def test_matches_reference_solver_on_random_programs(seed):
    """Cross-check against an independent LP implementation on random
    standard-form programs, feasible by construction half the time."""
    rng = np.random.default_rng(seed)
    m, n = rng.integers(2, 5), rng.integers(4, 9)
    A = rng.normal(size=(m, n)).round(3)
    if seed % 2 == 0:
        x0 = rng.uniform(0.0, 2.0, size=n)
        b = A @ x0
    else:
        b = rng.normal(size=m)
    c = rng.normal(size=n).round(3)
    # bound the feasible region so the comparison is about optima, not rays
    A_full = np.hstack([np.vstack([A, np.ones(n)]), np.zeros((m + 1, 1))])
    A_full[m, n] = 1.0
    b_full = np.concatenate([b, [50.0]])
    c_full = np.concatenate([c, [0.0]])

    ours = solve_lp(c_full, A_full, b_full)
    ref = linprog(c_full, A_eq=A_full, b_eq=b_full, bounds=(0, None), method="highs")
    if ref.status == 2:
        assert ours.status == "infeasible"
    else:
        assert ref.status == 0
        assert ours.status == "optimal"
        assert ours.objective == pytest.approx(ref.fun, abs=1e-7)


@pytest.mark.parametrize("seed", range(12))
def test_duals_match_reference_multipliers(seed):
    """The returned multipliers are the equality-constraint marginals of an
    independent solver, satisfy dual feasibility A'y <= c and close the
    duality gap b'y = c'x. Some rows get a negative right-hand side, so the
    sign flip of the b >= 0 normalization is exercised."""
    rng = np.random.default_rng(1000 + seed)
    m, n = rng.integers(2, 5), rng.integers(5, 9)
    A = rng.normal(size=(m, n))
    b = A @ rng.uniform(0.5, 2.0, size=n)
    c = rng.uniform(0.1, 1.0, size=n)  # positive costs keep the program bounded
    ours = solve_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ours.status == "optimal" and ref.status == 0
    assert ours.duals == pytest.approx(ref.eqlin.marginals, abs=1e-8)
    assert b @ ours.duals == pytest.approx(ours.objective, abs=1e-9)
    assert np.all(A.T @ ours.duals <= c + 1e-9)


def test_infeasible_duals_are_a_farkas_certificate():
    # x1 + x2 = -1, x1 - x2 = 3: the first row alone has no solution x >= 0
    A = np.array([[1.0, 1.0], [1.0, -1.0]])
    b = np.array([-1.0, 3.0])
    res = solve_lp(np.array([1.0, 1.0]), A, b)
    assert res.status == "infeasible"
    assert np.all(A.T @ res.duals <= 1e-12)
    assert b @ res.duals > 0


def cone_shaped_program(rng, n, d, tie=False):
    """``overlap``'s (d+2)-row cone program on n random points, as it is
    built for ``cone_overlap`` on a design scaled like the standardized one.
    With ``tie`` the groups are split by a plane and one mid-plane point is
    put in both, so the optimal margin 1/n - s* is exactly 0."""
    if tie:
        x = rng.uniform(-1.0, 1.0, size=(n, d))
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        s = x @ w
        y = (s > np.median(s)).astype(int)
        x += np.outer(y, 0.2 * w)
        tie = x[0] - (x[0] @ w - 0.1 - np.median(s)) * w
        x[np.argmax(y == 1)] = x[np.argmax(y == 0)] = tie
    else:
        x = rng.normal(size=(n, d))
        y = (rng.random(n) < 0.5).astype(int)
    xt = np.column_stack([np.ones(n), x])
    xt /= np.max(np.abs(xt), axis=0)
    return _cone_program(xt[y == 1], xt[y == 0])


@pytest.mark.parametrize("seed", range(4))
def test_wide_cone_programs_match_reference_solver(seed):
    """n >> m, as in the cone program at large n: the optimum, primal
    feasibility and the duals agree with an independent solver."""
    rng = np.random.default_rng(2000 + seed)
    c, A, b = cone_shaped_program(rng, 3000, 1 + seed)
    ours = solve_lp(c, A, b)
    ref = linprog(c, A_eq=A, b_eq=b, bounds=(0, None), method="highs")
    assert ours.status == "optimal" and ref.status == 0
    assert ours.objective == pytest.approx(ref.fun, abs=1e-9)
    assert np.all(ours.x >= 0.0)
    assert np.max(np.abs(A @ ours.x - b)) <= 1e-9
    assert b @ ours.duals == pytest.approx(ours.objective, abs=1e-9)
    assert np.all(A.T @ ours.duals <= c + 1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_tied_cone_program_margin_is_exactly_zero(seed):
    # the optimum of a tie comes within the ratio test's tie tolerance of
    # margin 0, the residue ``cone_overlap`` reads as exactly 0
    c, A, b = cone_shaped_program(np.random.default_rng(3000 + seed), 60, 3, tie=True)
    res = solve_lp(c, A, b)
    assert res.status == "optimal"
    assert abs(1.0 / 60 - res.x[-1]) <= _TIE_TOL
