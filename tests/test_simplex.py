from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridshock import simplex
from gridshock.cli import bundled_path
from gridshock.dcopf import build_dcopf
from gridshock.network import apply_heatwave
from gridshock.simplex import (LpForm, LpProblem, LpSolution, dump_lp, finish_lp,
                               optimize_lp, solve_lp)

INF = np.inf


def test_single_lower_bound_row():
    p = LpProblem("min", [1.0], [[1.0]], [3.0], [INF], [-INF], [INF])
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.x[0] == pytest.approx(3.0, abs=1e-9)
    assert s.duals[0] == pytest.approx(1.0, abs=1e-9)
    assert s.duality_gap <= 1e-6


def test_degenerate_face():
    p = LpProblem("min", [-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0],
                  [0.0, 0.0], [INF, INF])
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(-1.0, abs=1e-9)
    assert s.duals[0] == pytest.approx(-1.0, abs=1e-9)  # upper bound active


@pytest.mark.parametrize("d,expect_g,expect_price", [
    (30.0, [30.0, 0.0, 0.0], 10.0),
    (70.0, [40.0, 30.0, 0.0], 30.0),
    (110.0, [40.0, 40.0, 30.0], 50.0),
])
def test_merit_order_dispatch(d, expect_g, expect_price):
    # hand-enumerated three-unit stack: cheapest units fill first, the
    # marginal unit sets the clearing price (the balance-row dual)
    c = [10.0, 30.0, 50.0]
    p = LpProblem("min", c, [[1.0, 1.0, 1.0]], [d], [d],
                  [0.0, 0.0, 0.0], [40.0, 40.0, 40.0])
    s = solve_lp(p)
    assert s.status == "optimal"
    np.testing.assert_allclose(s.x, expect_g, atol=1e-9)
    assert s.duals[0] == pytest.approx(expect_price, abs=1e-9)


def test_infeasible_certified():
    p = LpProblem("min", [1.0], [[1.0]], [-INF], [-1.0], [0.0], [INF])
    assert solve_lp(p).status == "infeasible"


def test_unbounded_certified():
    p = LpProblem("min", [-1.0], [[1.0]], [0.0], [INF], [-INF], [INF])
    assert solve_lp(p).status == "unbounded"


def test_max_sense_duals_mirror():
    p = LpProblem("max", [3.0, 2.0], [[2.0, 2.0]], [-INF], [3.0],
                  [0.0, 0.0], [1.0, 1.0])
    s = solve_lp(p)
    assert s.objective == pytest.approx(4.0, abs=1e-9)
    assert s.duals[0] == pytest.approx(1.0, abs=1e-9)  # active upper bound, max sense
    # reduced cost identity rc = c - A^T y holds in the caller's objective
    np.testing.assert_allclose(s.reduced_costs, p.c - p.A.T @ s.duals, atol=1e-9)


def test_ranged_rows_and_free_vars():
    p = LpProblem("min", [1.0, 0.0], [[1.0, 1.0], [1.0, -1.0]],
                  [2.0, 0.5], [2.0, 1.5], [-INF, -INF], [INF, INF])
    s = solve_lp(p)
    assert s.status == "optimal"
    assert s.objective == pytest.approx(1.25, abs=1e-9)
    assert s.max_primal_residual <= 1e-7


def test_no_rows_pure_bounds():
    c = np.array([1.0, -2.0])
    for sense, x, obj in (("min", [0.0, 4.0], -8.0), ("max", [4.0, 0.0], 4.0)):
        p = LpProblem(sense, c, np.zeros((0, 2)), np.zeros(0), np.zeros(0),
                      [0.0, 0.0], [4.0, 4.0])
        s = solve_lp(p)
        assert s.objective == pytest.approx(obj)
        assert np.array_equal(s.x, x)
        # rc = c - A^T y with no rows: the cost itself, as with one all-zero row
        assert np.array_equal(s.reduced_costs, c)


def test_validation_rejects_nan():
    with pytest.raises(ValueError):
        LpProblem("min", [np.nan], [[1.0]], [0.0], [1.0], [0.0], [1.0])


def test_validation_rejects_crossed_bounds():
    with pytest.raises(ValueError):
        LpProblem("min", [1.0], [[1.0]], [2.0], [1.0], [0.0], [1.0])


_VALID = dict(sense="min", c=[1.0], A=[[1.0]], row_lb=[0.0], row_ub=[1.0], lb=[0.0],
              ub=[1.0])


@pytest.mark.parametrize("change, message", [
    ({"c": [1.0, 2.0]}, r"cost vector has shape \(2,\), expected \(1,\)"),
    ({"row_lb": [0.0, 0.0]}, r"row_lb has shape \(2,\), expected \(1,\)"),
    ({"row_ub": [[1.0]]}, r"row_ub has shape \(1, 1\), expected \(1,\)"),
    ({"lb": []}, r"lb has shape \(0,\), expected \(1,\)"),
    ({"ub": [1.0, 1.0]}, r"ub has shape \(2,\), expected \(1,\)"),
    ({"sense": "maximize"}, "sense must be 'min' or 'max', got 'maximize'"),
    ({"c": [np.inf]}, "c contains NaN or Inf"),
    ({"A": [[np.nan]]}, "A contains NaN or Inf"),
    ({"row_lb": [np.nan]}, "row_lb contains NaN"),
    ({"row_ub": [np.nan]}, "row_ub contains NaN"),
    ({"lb": [np.nan]}, "^lb contains NaN"),
    ({"ub": [np.nan]}, "^ub contains NaN"),
    ({"ub": [np.nan], "lb": [np.nan], "row_ub": [np.nan]}, "row_ub contains NaN"),
    ({"row_lb": [2.0]}, "lower bound exceeds upper bound"),
    ({"lb": [2.0], "ub": [1.5]}, "lower bound exceeds upper bound"),
    ({"c": [np.nan], "lb": [np.nan]}, "c contains NaN or Inf"),
    ({"sense": "up", "c": [np.nan]}, "sense must be"),
])
def test_validation_names_the_first_bad_input(change, message):
    """Each check raises its own message, in the order the checks run."""
    with pytest.raises(ValueError, match=message):
        LpProblem(**{**_VALID, **change})
    LpProblem(**_VALID)  # the unchanged problem is valid


def test_determinism_bit_identical():
    rng = np.random.default_rng(11)
    A = rng.normal(size=(6, 9)).round(3)
    c = rng.normal(size=9).round(3)
    p = LpProblem("min", c, A, np.full(6, -1.0), np.full(6, 2.0),
                  np.full(9, -3.0), np.full(9, 3.0))
    s1 = solve_lp(p)
    s2 = solve_lp(p)
    assert s1.status == s2.status == "optimal"
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.duals, s2.duals)
    assert s1.objective == s2.objective


def test_random_battery_duality_and_feasibility():
    rng = np.random.default_rng(42)
    optimal = 0
    for _ in range(120):
        n = int(rng.integers(2, 14))
        m = int(rng.integers(1, 10))
        A = rng.normal(size=(m, n)).round(3)
        c = rng.normal(size=n).round(3)
        lb = np.where(rng.random(n) < 0.8, rng.uniform(-5, 0, n), -INF)
        ub = np.where(rng.random(n) < 0.8, rng.uniform(0.1, 5, n), INF)
        rl = np.where(rng.random(m) < 0.5, rng.uniform(-8, 0, m), -INF)
        ru = np.where(rng.random(m) < 0.7, rng.uniform(0.2, 8, m), INF)
        eq = rng.random(m) < 0.25
        rl = np.where(eq & np.isfinite(ru), ru, rl)
        rl = np.minimum(rl, ru)
        s = solve_lp(LpProblem("min", c, A, rl, ru, lb, ub))
        if s.status == "optimal":
            optimal += 1
            assert s.duality_gap <= 1e-6
            assert s.max_primal_residual <= 1e-6
            assert s.cs_residual <= 1e-5
    assert optimal > 40  # the battery actually exercises the optimal path


def test_dump_lp_mentions_all_labels():
    p = LpProblem("min", [1.0, 2.0], [[1.0, 1.0]], [1.0], [1.0],
                  [0.0, 0.0], [1.0, 1.0], row_labels=["bal"], col_labels=["a", "b"])
    text = dump_lp(p)
    assert "Minimize" in text and "bal" in text and " a " in text
    assert text.endswith("End\n")


def test_nonbasic_values_match_per_column_loop():
    rng = np.random.default_rng(3)
    lb = np.where(rng.random(40) < 0.7, rng.uniform(-5, 0, 40), -INF)
    ub = np.where(rng.random(40) < 0.7, rng.uniform(0, 5, 40), INF)
    status = simplex._initial_status(lb, ub)
    status[rng.random(40) < 0.3] = simplex._BASIC
    expect = []
    for s, lo, up in zip(status, lb, ub):
        expect.append(lo if s == simplex._AT_LOWER else up if s == simplex._AT_UPPER else 0.0)
    assert np.array_equal(simplex._nonbasic_values(status, lb, ub), np.array(expect))


def test_improving_matches_per_column_loop():
    rng = np.random.default_rng(5)
    n = 60
    lb = np.where(rng.random(n) < 0.7, rng.uniform(-5, 0, n), -INF)
    ub = np.where(rng.random(n) < 0.7, rng.uniform(0, 5, n), INF)
    lb[:6] = ub[:6] = 1.5  # fixed columns
    status = simplex._initial_status(lb, ub)
    # random statuses on the boxed columns, some basic columns anywhere
    boxed = np.isfinite(lb) & np.isfinite(ub)
    status[boxed] = rng.choice([simplex._AT_LOWER, simplex._AT_UPPER], int(boxed.sum()))
    status[rng.random(n) < 0.25] = simplex._BASIC
    assert {simplex._AT_LOWER, simplex._AT_UPPER, simplex._AT_ZERO,
            simplex._BASIC} <= set(status.tolist())
    rc = rng.normal(size=n)
    rc[::7] = 0.0
    tol = 0.3
    expect = []
    for r, s in zip(rc, status):
        gain = (-r if s == simplex._AT_LOWER else r if s == simplex._AT_UPPER
                else abs(r) if s == simplex._AT_ZERO else 0.0)
        expect.append(gain if gain > tol else 0.0)
    assert np.array_equal(simplex._improving(rc, status, tol), np.array(expect))


# -- warm start from an earlier basis -------------------------------------

def _certified(s):
    return (s.max_primal_residual <= 1e-6 and s.duality_gap <= 1e-6
            and s.cs_residual <= 1e-5)


def _same_answer(warm, cold):
    assert warm.status == cold.status
    if cold.status == "optimal":
        assert warm.objective == pytest.approx(cold.objective, rel=1e-9, abs=1e-9)
        assert _certified(warm)


def _with_bounds(p, lb, ub, row_lb=None, row_ub=None):
    return LpProblem(p.sense, p.c, p.A,
                     p.row_lb if row_lb is None else row_lb,
                     p.row_ub if row_ub is None else row_ub, lb, ub)


@pytest.fixture(scope="module")
def hour17(bundled_net, bundled_demand):
    demand = apply_heatwave(bundled_demand, 1.09)
    base = solve_lp(build_dcopf(bundled_net, demand, "summer", 17))
    assert base.basis is not None
    return bundled_net, demand, base.basis


fractions = st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3)


def _lowered_dispatch(net, demand, seed, keep):
    rng = np.random.default_rng(seed)
    arr = net.arrays
    pick = lambda k, p: rng.random(k) < p  # noqa: E731
    zg = np.where(pick(net.num_generators, 0.4), (1 - keep[0]) * arr.g_span, 0.0)
    zf = np.where(pick(net.num_edges, 0.3), (1 - keep[1]) * arr.f_cap, 0.0)
    zt = np.where(pick(net.num_edges, 0.2), (1 - keep[2]) * arr.t_cap, 0.0)
    return build_dcopf(net, demand, "summer", 17, zg, zf, zt)


# flow and angle limits cut to 1e-7 of their size: the cold ratio test's
# band once left a basic flow 5e-5 past its 4e-5 limit
@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), keep=fractions)
@example(seed=285415, keep=[0.0, 1e-7, 1e-7])
def test_warm_dispatch_matches_cold_under_tighter_bounds(hour17, seed, keep):
    """Lowered generator, flow and angle limits: warm equals cold."""
    net, demand, basis = hour17
    p = _lowered_dispatch(net, demand, seed, keep)
    _same_answer(solve_lp(p, basis=basis), solve_lp(p))


def _phase_one_only(mp):
    """Every solve finds its slack start (and any warm start) failing
    numerically, so it runs phase 1 of the primal simplex, then the primal
    tail."""
    def failing(*args):
        raise simplex.SolverNumericalError("start forced to fail")
    mp.setattr(simplex, "_warm_solve", failing)


def test_cold_solve_clears_basic_values_past_tiny_bounds(hour17, monkeypatch):
    """After phase 1, the primal tail's optimal basis leaves a basic value
    past its tiny bound, and its dual simplex clears that."""
    net, demand, _ = hour17
    _phase_one_only(monkeypatch)
    real = simplex._primal_infeasible
    seen = []

    def recording(tab):
        seen.append(real(tab))
        return seen[-1]
    monkeypatch.setattr(simplex, "_primal_infeasible", recording)
    cold = solve_lp(_lowered_dispatch(net, demand, 285415, [0.0, 1e-7, 1e-7]))
    assert cold.status == "optimal" and _certified(cold)
    assert seen == [True]


def _no_phase_one(*args):
    raise AssertionError("the slack start must decide this LP itself")


def _no_structured_inverse(*args):
    raise AssertionError("a basis of 51 rows must be inverted by LAPACK")


@pytest.mark.parametrize("factor", [1.0, 1.09])
def test_bundled_dispatch_hours_start_from_the_slack_basis(bundled_net, bundled_demand,
                                                           factor, monkeypatch):
    """Every bundled hour, plain and heated, solves cold from the slack basis
    without phase 1 of the primal simplex, to its certified optimum; its
    51-row bases stay on the LAPACK path of the refactorization."""
    demand = apply_heatwave(bundled_demand, factor)
    monkeypatch.setattr(simplex, "_phase_one", _no_phase_one)
    monkeypatch.setattr(simplex, "_block_triangular_inverse", _no_structured_inverse)
    for season in demand.demand:
        for h in range(demand.hours(season)):
            s = solve_lp(build_dcopf(bundled_net, demand, season, h))
            assert s.status == "optimal" and _certified(s)


def _random_lp(rng):
    n = int(rng.integers(2, 9))
    m = int(rng.integers(1, 7))
    A = rng.normal(size=(m, n)).round(3)
    c = rng.normal(size=n).round(3)
    lb = np.where(rng.random(n) < 0.8, rng.uniform(-5, 0, n), -INF)
    ub = np.where(rng.random(n) < 0.8, rng.uniform(0.1, 5, n), INF)
    rl = np.where(rng.random(m) < 0.5, rng.uniform(-8, 0, m), -INF)
    ru = np.where(rng.random(m) < 0.7, rng.uniform(0.2, 8, m), INF)
    sense = "min" if rng.random() < 0.5 else "max"
    return LpProblem(sense, c, A, rl, ru, lb, ub)


def _tightened(p, rng):
    """Raise some lower and lower some upper bounds, rows and columns alike."""
    def squeeze(lo, up):
        lo, up = lo.copy(), up.copy()
        for i in range(lo.size):
            if rng.random() < 0.4:
                a = rng.uniform(-6, 6)
                b = a + rng.choice([0.0, rng.uniform(0, 4)])
                lo[i], up[i] = max(lo[i], a), min(up[i], b)
                if lo[i] > up[i]:
                    lo[i] = up[i] = rng.choice([lo[i], up[i]])
        return lo, up
    lb, ub = squeeze(p.lb, p.ub)
    rl, ru = squeeze(p.row_lb, p.row_ub)
    return _with_bounds(p, lb, ub, rl, ru)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_warm_random_lp_matches_cold_under_tighter_bounds(seed):
    rng = np.random.default_rng(seed)
    parent = solve_lp(_random_lp(rng))
    if parent.status != "optimal" or parent.basis is None:
        return
    p = _random_lp(np.random.default_rng(seed))  # same parent problem
    child = _tightened(p, rng)
    _same_answer(solve_lp(child, basis=parent.basis), solve_lp(child))


# -- against HiGHS, and the cost-shifted dual phase ---------------------------

def _offset_lp(rng):
    """A random LP as :func:`_random_lp` draws it, with each row's range
    centred away from zero and about a third of the rows equalities: x = 0,
    which every :func:`_random_lp` instance admits, is rarely feasible, and
    many of these LPs are infeasible."""
    p = _random_lp(rng)
    m = p.num_rows
    centre = rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 8.0, m)
    half = np.where(rng.random(m) < 0.3, 0.0, rng.uniform(0.0, 3.0, m))
    rl = np.where((half == 0.0) | (rng.random(m) < 0.7), centre - half, -INF)
    ru = np.where((half == 0.0) | (rng.random(m) < 0.7), centre + half, INF)
    return LpProblem(p.sense, p.c, p.A, rl, ru, p.lb, p.ub)


_GENERATORS = {"random": _random_lp, "offset": _offset_lp}


def _highs(p, c):
    """HiGHS's dual simplex on ``p`` with the costs ``c``, without presolve
    (with it, HiGHS calls some unbounded :func:`_random_lp` instances
    infeasible)."""
    linprog = pytest.importorskip("scipy.optimize").linprog
    eq = p.row_lb == p.row_ub
    above, below = ~eq & np.isfinite(p.row_ub), ~eq & np.isfinite(p.row_lb)
    A_ub = np.vstack([p.A[above], -p.A[below]])
    b_ub = np.concatenate([p.row_ub[above], -p.row_lb[below]])
    sign = 1.0 if p.sense == "min" else -1.0
    return linprog(sign * c, A_ub=A_ub if b_ub.size else None, b_ub=b_ub if b_ub.size else None,
                   A_eq=p.A[eq] if eq.any() else None, b_eq=p.row_lb[eq] if eq.any() else None,
                   bounds=np.column_stack([p.lb, p.ub]), method="highs-ds",
                   options={"presolve": False})


def _matches_highs(s, p):
    """``s`` ends as HiGHS does on ``p``: the same status and, when optimal,
    the objective within 1e-7 relative, certified and with a basis.  An
    "infeasible" of HiGHS counts only when a zero-cost solve agrees."""
    ref = _highs(p, p.c)
    want = {0: "optimal", 2: "infeasible", 3: "unbounded"}[ref.status]
    if want == "infeasible":
        assert _highs(p, np.zeros_like(p.c)).status == 2
    assert s.status == want
    if want == "optimal":
        obj = ref.fun if p.sense == "min" else -ref.fun
        assert abs(s.objective - obj) <= 1e-7 * max(1.0, abs(obj))
        assert _certified(s) and s.basis is not None


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(_GENERATORS)))
@example(seed=0, kind="random")  # a slack basis that is not dual feasible
@example(seed=6, kind="random")  # a dual feasible slack basis
def test_cold_and_warm_solves_match_highs(seed, kind):
    """A cold solve ends as HiGHS does, without phase 1; from its optimal
    basis, a warm solve under redrawn costs ends as the cold solve does."""
    rng = np.random.default_rng(seed)
    p = _GENERATORS[kind](rng)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_phase_one", _no_phase_one)
        s = solve_lp(p)
        _matches_highs(s, p)
        if s.status == "optimal":
            q = LpProblem(p.sense, rng.normal(size=p.num_cols).round(3), p.A, p.row_lb,
                          p.row_ub, p.lb, p.ub)
            _same_answer(solve_lp(q, basis=s.basis), solve_lp(q))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(_GENERATORS)))
def test_phase_one_then_the_primal_tail_match_highs(seed, kind):
    """With every start forced to fail, phase 1 and then the primal tail end
    as HiGHS does."""
    p = _GENERATORS[kind](np.random.default_rng(seed))
    with pytest.MonkeyPatch.context() as mp:
        _phase_one_only(mp)
        _matches_highs(solve_lp(p), p)


def test_phase_one_swaps_an_artificial_left_basic_for_its_rows_activity(monkeypatch):
    """min -x0 - x1  s.t.  -x0 - x1 >= -1,  x0 + x1 = 1,  -1 <= x0 <= 1,
    0 <= x1 <= 2: phase 1 ends with row 1's artificial (column 4) basic at
    zero, and the primal tail starts with row 1's activity (column 3) in its
    place."""
    p = LpProblem("min", [-1.0, -1.0], [[-1.0, -1.0], [1.0, 1.0]], [-1.0, 1.0], [INF, 1.0],
                  [-1.0, 0.0], [1.0, 2.0])
    _phase_one_only(monkeypatch)
    real = simplex._run_verified
    ends = []

    def recording(tab, *args, **kwargs):
        out = real(tab, *args, **kwargs)
        ends.append(tab.basis.tolist())
        return out
    monkeypatch.setattr(simplex, "_run_verified", recording)
    s = solve_lp(p)
    assert s.status == "optimal" and _certified(s)
    assert s.objective == pytest.approx(-1.0, abs=1e-12)
    assert ends == [[0, 4], [0, 3]]


# x0's cost points off its bounds, so no slack basis here is dual feasible:
# x0 is free with a cost, or x0 >= 0 with a cost towards its open side;
# 0 <= x1 <= 2 (1 where x0 is one-sided)
_SHIFTED = {
    # min x0  s.t.  x0 - x1 >= 1;  x0 - x1 <= 1;  x0 - x1 >= 1 and <= 0
    "free-optimal": (LpProblem("min", [1.0, 0.0], [[1.0, -1.0]], [1.0], [INF],
                               [-INF, 0.0], [INF, 2.0]), "optimal", 1.0),
    "free-unbounded": (LpProblem("min", [1.0, 0.0], [[1.0, -1.0]], [-INF], [1.0],
                                 [-INF, 0.0], [INF, 2.0]), "unbounded", None),
    "free-infeasible": (LpProblem("min", [1.0, 0.0], [[1.0, -1.0], [1.0, -1.0]], [1.0, -INF],
                                  [INF, 0.0], [-INF, 0.0], [INF, 2.0]), "infeasible", None),
    # min -x0  s.t.  x0 + x1 <= 3;  x0 - x1 >= -1;  x0 + x1 <= 3 and >= 5
    "one-sided-optimal": (LpProblem("min", [-1.0, 0.0], [[1.0, 1.0]], [-INF], [3.0],
                                    [0.0, 0.0], [INF, 1.0]), "optimal", -3.0),
    "one-sided-unbounded": (LpProblem("min", [-1.0, 0.0], [[1.0, -1.0]], [-1.0], [INF],
                                      [0.0, 0.0], [INF, 1.0]), "unbounded", None),
    "one-sided-infeasible": (LpProblem("min", [-1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]],
                                       [-INF, 5.0], [3.0, INF], [0.0, 0.0], [INF, 1.0]),
                             "infeasible", None),
}


def _dual_phases_start_dual_feasible(mp):
    """Every dual phase must start from reduced costs that no nonbasic
    column improves on, as the dual simplex requires."""
    real = simplex._dual_simplex

    def checked(tab, c, max_iter, rc, tol):
        assert not simplex._improving(rc, tab.status, tol).any()
        return real(tab, c, max_iter, rc, tol)
    mp.setattr(simplex, "_dual_simplex", checked)


@pytest.mark.parametrize("case", list(_SHIFTED))
def test_a_cost_pointing_off_its_bounds_is_shifted_not_sent_to_phase_one(case, monkeypatch):
    p, status, objective = _SHIFTED[case]
    monkeypatch.setattr(simplex, "_phase_one", _no_phase_one)
    _dual_phases_start_dual_feasible(monkeypatch)
    s = solve_lp(p)
    assert s.status == status
    if status == "optimal":
        assert s.objective == pytest.approx(objective, abs=1e-12) and _certified(s)


def test_a_basis_that_is_not_dual_feasible_is_used_not_refused(monkeypatch):
    """The child's costs make x1, resting on its one finite bound, improving
    from the parent's optimal basis: the warm start uses that basis and ends
    at the cold answer without the cold path."""
    # min x0 + 2 x1  s.t.  x0 + x1 >= 1,  x0 - x1 <= 2,  x >= 0: x = (1, 0)
    p = LpProblem("min", [1.0, 2.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, -INF], [INF, 2.0],
                  [0.0, 0.0], [INF, INF])
    parent = solve_lp(p)
    np.testing.assert_allclose(parent.x, [1.0, 0.0], atol=1e-12)
    child = LpProblem("min", [2.0, 1.0], p.A, p.row_lb, p.row_ub, p.lb, p.ub)
    cold = solve_lp(child)
    np.testing.assert_allclose(cold.x, [0.0, 1.0], atol=1e-12)

    def no_cold(*args):
        raise AssertionError("the warm start must decide this child itself")
    monkeypatch.setattr(simplex, "_cold_solve", no_cold)
    _dual_phases_start_dual_feasible(monkeypatch)
    warm = solve_lp(child, basis=parent.basis)
    _same_answer(warm, cold)
    np.testing.assert_allclose(warm.x, cold.x, atol=1e-12)


def test_the_dual_phase_refuses_a_start_that_is_not_dual_feasible():
    """min -x0  s.t.  x0 + x1 >= 2,  x0 + x1 <= 1,  x >= 0 from the slack
    basis, with x0's cost left unshifted: the ratio test clips x0's negative
    ratio to zero and x0 enters, row 1 then has no eligible column, and the
    repricing on a fresh factorization finds t0's reduced cost of the wrong
    sign.  The phase raises, where it would have gone on to a verdict."""
    p = LpProblem("min", [-1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]], [2.0, -INF], [INF, 1.0],
                  [0.0, 0.0], [INF, INF])
    form = LpForm(p.A)
    lb, ub = np.concatenate([p.lb, p.row_lb]), np.concatenate([p.ub, p.row_ub])
    c = np.concatenate([p.c, np.zeros(2)])
    tab = simplex._Tableau(form.A_std, lb, ub, 2, form)
    tab.basis = np.array([2, 3])
    tab.status = simplex._initial_status(lb, ub)
    tab.status[tab.basis] = simplex._BASIC
    tab.refactorize()
    rc, tol = tab.reduced_costs(c), simplex._rc_tol(c)
    assert simplex._improving(rc, tab.status, tol).any()
    with pytest.raises(simplex.SolverNumericalError, match="lost dual feasibility"):
        simplex._dual_simplex(tab, c, 100, rc, tol)
    assert tab.basis.tolist() == [0, 3]  # x0 entered before the check
    assert solve_lp(p).status == "infeasible"  # the solve shifts x0's cost


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_an_lp_without_rows_rests_each_column_where_its_cost_asks(seed):
    """Each column on the bound its cost asks for, else the bound nearest
    zero (zero when free); unbounded where that bound is infinite.  The
    reduced costs are the costs."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 7))
    lb = np.where(rng.random(n) < 0.7, rng.uniform(-5, 0, n).round(2), -INF)
    ub = np.where(rng.random(n) < 0.7, rng.uniform(0, 5, n).round(2), INF)
    c = np.where(rng.random(n) < 0.3, 0.0, rng.normal(size=n).round(3))
    sense = "min" if rng.random() < 0.5 else "max"
    sc = c if sense == "min" else -c
    nearest = simplex._nonbasic_values(simplex._initial_status(lb, ub), lb, ub)
    x = np.where(sc > 0, lb, np.where(sc < 0, ub, nearest))
    s = solve_lp(LpProblem(sense, c, np.zeros((0, n)), [], [], lb, ub))
    if not np.isfinite(x).all():
        assert s.status == "unbounded"
        return
    assert s.status == "optimal"
    assert np.array_equal(s.x, x) and s.objective == float(c @ x)
    assert np.array_equal(s.reduced_costs, c) and s.duals.shape == (0,)


def test_the_empty_lp_is_optimal():
    s = solve_lp(LpProblem("min", [], np.zeros((0, 0)), [], [], [], []))
    assert (s.status, s.objective) == ("optimal", 0.0)
    assert s.x.shape == s.duals.shape == s.reduced_costs.shape == s.basis.shape == (0,)


def _knapsack_lp():
    return LpProblem("max", [3.0, 2.0, 4.0], [[2.0, 2.0, 3.0]], [-INF], [4.0],
                     np.zeros(3), np.ones(3))


def test_warm_infeasible_verdict_is_infeasible_cold(monkeypatch):
    p = _knapsack_lp()
    parent = solve_lp(p)
    # the covering row can no longer be met once every item is capped
    child = _with_bounds(p, p.lb, np.full(3, 0.2), np.array([3.5]), p.row_ub)

    def no_cold(*args, **kwargs):
        raise AssertionError("the warm path must decide this child itself")
    with monkeypatch.context() as mp:
        mp.setattr(simplex, "_cold_solve", no_cold)
        warm = solve_lp(child, basis=parent.basis)
    assert warm.status == "infeasible"
    assert solve_lp(child).status == "infeasible"


def _identical(a, b):
    assert a.status == b.status and a.iterations == b.iterations
    assert a.objective == b.objective
    for f in ("x", "duals", "reduced_costs"):
        assert np.array_equal(getattr(a, f), getattr(b, f))


def test_unusable_basis_takes_the_cold_path():
    p = _knapsack_lp()
    child = _with_bounds(p, np.array([1.0, 0.0, 0.0]), p.ub)
    cold = solve_lp(child)
    good = solve_lp(p).basis
    two_rows = LpProblem("min", [1.0], [[1.0], [2.0]], [1.0, 0.0], [2.0, 9.0], [0.0], [5.0])
    for basis in (solve_lp(two_rows).basis, np.array([4]), np.array([0.0]),
                  np.array([[0]])):
        _identical(solve_lp(child, basis=basis), cold)
    assert solve_lp(child, basis=good).iterations < cold.iterations

    # slack basis of  min -x0 - x1, x0 + x1 <= 1, x >= 0:  both reduced
    # costs point away from the only finite bound, so it is not dual
    # feasible; given as a basis, it is used just as the cold start uses it
    q = LpProblem("min", [-1.0, -1.0], [[1.0, 1.0]], [-INF], [1.0], [0.0, 0.0], [INF, INF])
    _identical(solve_lp(q, basis=np.array([2])), solve_lp(q))
    # a duplicated column makes no basis
    r = LpProblem("min", [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, -1.0], [INF, 1.0],
                  [0.0, 0.0], [INF, INF])
    _identical(solve_lp(r, basis=np.array([0, 0])), solve_lp(r))


def test_warm_start_bit_identical(hour17):
    net, demand, basis = hour17
    zg = np.zeros(net.num_generators)
    zg[:3] = 100.0
    p = build_dcopf(net, demand, "summer", 17, zg)
    a, b = solve_lp(p, basis=basis), solve_lp(p, basis=basis)
    _identical(a, b)
    assert np.array_equal(a.basis, b.basis)


def _counting(monkeypatch, *names) -> dict:
    """How often each named _Tableau method runs from here on."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _name=name, _real=getattr(simplex._Tableau, name)):
            counts[_name] += 1
            return _real(*args)
        monkeypatch.setattr(simplex._Tableau, name, counted)
    return counts


def test_a_stored_start_factorizes_nothing_and_computes_its_basic_values_once(monkeypatch):
    """The knapsack's optimal basis holds x2, with x0 on its upper bound:
    re-solved from that basis, the start moves x0 up from the bound nearest
    zero and makes no pivot.  Its inverse is in the form's store since the
    cold solve; the pricing is stored by the first warm start and reused by
    the next one under the same costs, and other costs price again."""
    p = _knapsack_lp()
    form = LpForm(p.A)
    cold = solve_lp(p, form=form)
    counts = _counting(monkeypatch, "invert", "recompute_basic_values", "reduced_costs")
    seen = []
    for costs in ([3.0, 2.0, 4.0], [3.0, 2.0, 4.0], [3.0, 2.0, 4.2]):
        q = LpProblem("max", costs, p.A, p.row_lb, p.row_ub, p.lb, p.ub)
        vertex = optimize_lp(q, basis=cold.basis, form=form)
        assert (vertex.iterations, vertex.basis.tolist()) == (1, cold.basis.tolist())
        assert np.array_equal(vertex.x, cold.x)
        seen.append(tuple(counts.values()))
        counts.update(dict.fromkeys(counts, 0))
    assert seen == [(0, 1, 1), (0, 1, 0), (0, 1, 1)]
    # the stored inverse and pricing give what a new form computes afresh
    _identical(finish_lp(optimize_lp(p, basis=cold.basis, form=form)),
               solve_lp(p, basis=cold.basis))


def test_a_bad_basis_that_is_not_stored_is_refused_on_a_shared_form():
    """On a form whose store holds the knapsack's bases, an out-of-range or
    duplicated basis is refused just as on a new form, and solved cold."""
    p = _knapsack_lp()
    q = LpProblem("min", [1.0, 1.0], [[1.0, 1.0], [1.0, -1.0]], [1.0, -1.0], [INF, 1.0],
                  [0.0, 0.0], [INF, INF])
    for lp, bad in ((p, [4]), (p, [-1]), (q, [0, 0]), (q, [2, 2]), (q, [0, 9])):
        form = LpForm(lp.A)
        cold = solve_lp(lp, form=form)
        solve_lp(lp, basis=cold.basis, form=form)
        _identical(solve_lp(lp, basis=np.array(bad), form=form), solve_lp(lp))


def test_form_must_be_built_from_the_problems_matrix():
    p, q = _knapsack_lp(), _knapsack_lp()  # equal matrices, two arrays
    with pytest.raises(ValueError, match="another constraint matrix"):
        solve_lp(p, form=LpForm(q.A))
    form = LpForm(p.A)
    _identical(solve_lp(p, form=form), solve_lp(p))
    child = _with_bounds(p, np.array([1.0, 0.0, 0.0]), p.ub)
    parent = solve_lp(p, form=form)
    for _ in range(2):  # a miss fills the slot, then a hit
        _identical(solve_lp(child, basis=parent.basis, form=form),
                   solve_lp(child, basis=parent.basis))


# -- the two stages of solve_lp --------------------------------------------

def _bitwise(a, b):
    """Every LpSolution field equal, bit for bit (dtype and -0.0 included)."""
    for f in fields(LpSolution):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if x is None or y is None:
            assert x is None and y is None, f.name
            continue
        x, y = np.asarray(x), np.asarray(y)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), f.name


def _inverted_bases(form, solve) -> list:
    """The bases that ``solve()`` factorizes afresh over ``form``: the
    misses of the form's store, in order."""
    bases = []
    real = simplex._Tableau.invert

    def counting(tab):
        if tab.form is form:
            bases.append(tab.basis.copy())
        return real(tab)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex._Tableau, "invert", counting)
        solve()
    return bases


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_finished_vertex_is_solve_lp_bit_for_bit(seed):
    """optimize_lp then finish_lp is solve_lp, cold and warm, on a shared form
    and without one, even when the vertex is finished only after later
    solves over the form have factorized other bases."""
    rng = np.random.default_rng(seed)
    p = _random_lp(rng)
    form = LpForm(p.A)
    vertices = []
    cold = _inverted_bases(form, lambda: vertices.append((optimize_lp(p, form=form),
                                                          solve_lp(p))))
    parent = solve_lp(p)

    def warm(child, basis):
        return lambda: vertices.append((optimize_lp(child, basis=basis, form=form),
                                        solve_lp(child, basis=basis)))
    if parent.status == "optimal" and parent.basis is not None:
        # the parent basis is factorized once: by the cold solve when it ran
        # from the slack basis over the form, else by the first warm start;
        # the second warm start finds it stored
        first = _inverted_bases(form, warm(_tightened(p, rng), parent.basis))
        second = _inverted_bases(form, warm(_tightened(p, rng), parent.basis))
        assert sum(np.array_equal(b, parent.basis) for b in cold + first) == 1
        assert not any(np.array_equal(b, parent.basis) for b in second)
    # a warm start from the slack basis stores its inverse, whether or not
    # that basis is dual feasible: the next one factorizes it no more
    m, n = p.A.shape
    slack = np.arange(n, n + m)
    child = _tightened(p, rng)
    _inverted_bases(form, lambda: solve_lp(child, basis=slack, form=form))
    again = _inverted_bases(form, lambda: solve_lp(child, basis=slack, form=form))
    assert not any(np.array_equal(b, slack) for b in again)
    for vertex, want in vertices:
        got = finish_lp(vertex)
        _bitwise(got, want)
        assert got.x is vertex.x and got.basis is vertex.basis
        assert (got.status, got.objective, got.iterations) == \
            (vertex.status, vertex.objective, vertex.iterations)


@pytest.mark.parametrize("sense, c, status", [
    ("min", [1.0, -2.0], "optimal"), ("max", [0.0, 3.0], "optimal"),
    ("min", [-1.0, 0.0], "unbounded")])
def test_finished_vertex_without_rows(sense, c, status):
    p = LpProblem(sense, c, np.zeros((0, 2)), [], [], [0.0, -1.0], [INF, 4.0])
    vertex = optimize_lp(p)
    assert vertex.status == status
    _bitwise(finish_lp(vertex), solve_lp(p))


# -- sparse products and the eta update ---------------------------------------

def _sparse_lp(rng):
    """A random feasible, bounded LP whose matrix is 1-10% nonzero, with
    equality, ranged, one-sided and free rows, and boxed, one-sided, free
    and fixed columns: the rows are set around the activity of a point
    within the column bounds, and only boxed and fixed columns may have a
    negative cost."""
    m = int(rng.integers(65, 111))
    n = int(rng.integers(5, 2 * m))
    A = np.where(rng.random((m, n)) < rng.uniform(0.01, 0.10),
                 rng.normal(size=(m, n)).round(3), 0.0)
    col = rng.integers(0, 4, n)  # boxed, lower only, free, fixed
    lo = rng.uniform(-3.0, 0.0, n)
    width = rng.uniform(0.5, 4.0, n)
    lb = np.where(col == 2, -INF, lo)
    ub = np.select([col == 0, col == 3], [lo + width, lo], INF)
    x0 = np.select([col == 0, col == 1, col == 2],
                   [lo + rng.random(n) * width, lo + rng.exponential(size=n),
                    rng.normal(size=n)], lo)
    act = A @ x0
    row = rng.integers(0, 4, m)  # equality, ranged, one-sided, free
    rl = np.select([row == 0, row == 1, row == 2],
                   [act, act - rng.uniform(0.0, 2.0, m), act - rng.uniform(0.0, 2.0, m)], -INF)
    ru = np.select([row == 0, row == 1], [act, act + rng.uniform(0.0, 2.0, m)], INF)
    c = rng.normal(size=n).round(3)
    c = np.select([col == 1, col == 2], [np.abs(c), 0.0], c)
    return LpProblem("min", c, A, rl, ru, lb, ub)


@pytest.fixture(scope="module")
def hour17_milp(bundled_net, bundled_demand):
    from gridshock import attack, scenarios
    cfg = scenarios.load_config(bundled_path("compound.cfg"))
    heated = apply_heatwave(bundled_demand, cfg.heatwave_factor)
    costs = scenarios.scenario_costs(cfg, bundled_net)
    return attack.build_hourly_attack_milp(bundled_net, heated, "summer", 17, costs,
                                           300.0).lp


def _dense_form(A):
    """The equilibration factors and ``[R A C | -I]`` by dense passes over
    ``A``: the reference :class:`LpForm` builds from the nonzeros."""
    m, n = A.shape
    R, C = np.ones(m), np.ones(n)
    work = np.abs(A)
    for _ in range(2):
        for axis, scale in ((1, R), (0, C)):
            big = work.max(axis=axis, initial=0.0)
            f = np.where(big > 0, np.exp2(-np.round(np.log2(np.maximum(big, 1e-300)))), 1.0)
            work = work * (f[:, None] if axis == 1 else f[None, :])
            scale *= f
    A_sc = A * R[:, None] * C[None, :]
    cols, rows = np.nonzero(A_sc.T)
    counts = np.concatenate([np.bincount(cols, minlength=n), np.ones(m, dtype=np.intp)])
    ptr = np.concatenate([[0], np.cumsum(counts)])
    return R, C, ptr, np.concatenate([rows, np.arange(m)]), \
        np.concatenate([A_sc.T[cols, rows], np.full(m, -1.0)])


def _random_sparse_matrix(rng):
    """1-30% nonzero, entries spread over twelve decades, with an all-zero
    row and an all-zero column."""
    m, n = int(rng.integers(2, 40)), int(rng.integers(2, 40))
    A = np.where(rng.random((m, n)) < rng.uniform(0.01, 0.3),
                 rng.normal(size=(m, n)) * 10.0 ** rng.integers(-6, 6, (m, n)), 0.0)
    A[rng.integers(m)] = 0.0
    A[:, rng.integers(n)] = 0.0
    return A


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_form_from_nonzeros_is_the_dense_form(hour17_milp, seed):
    """The form built from the nonzeros equals, bit for bit, the dense
    passes over the matrix: on the hour-17 MILP and on random matrices."""
    for A in (hour17_milp.A, _random_sparse_matrix(np.random.default_rng(seed))):
        form = LpForm(A)
        got = (form.R, form.C, form.A_std.ptr, form.A_std.rows, form.A_std.vals)
        for x, y in zip(got, _dense_form(A)):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


def _slack_tableau(A_std):
    m, ncols = A_std.shape
    tab = simplex._Tableau(A_std, np.zeros(ncols), np.ones(ncols), ncols - m)
    tab.basis = np.arange(ncols - m, ncols)
    tab.status[:] = simplex._AT_LOWER
    tab.status[tab.basis] = simplex._BASIC
    tab.refactorize()
    return tab


def _within_rounding(got, terms):
    """|got - want| within 1e-12 of the summed magnitudes of its terms."""
    want, scale = terms
    assert np.all(np.abs(got - want) <= 1e-12 * scale + 1e-300)


def _check_eta_against_refactorization(p, seed, steps):
    form = LpForm(p.A)
    m = p.num_rows
    dense = np.hstack([p.A * form.R[:, None] * form.C[None, :], -np.eye(m)])
    rows, cols, vals = form.A_std.column_entries(np.arange(dense.shape[1]))
    held = np.zeros_like(dense)
    held[rows, cols] = vals
    assert np.array_equal(held, dense)
    view = form.A_std
    tab = _slack_tableau(view)
    rng = np.random.default_rng(seed)
    pivots = 0
    for _ in range(steps):
        q = int(rng.choice(np.flatnonzero(tab.status != simplex._BASIC)))
        w = tab.entering_column(q)
        big = np.flatnonzero(np.abs(w) >= max(0.5 * np.abs(w).max(), 1e-3))
        if not big.size:
            continue
        # a threshold pivot: neither the eta update nor its stability test refactorizes
        tab.pivot(int(rng.choice(big)), q, 0.0, simplex._AT_LOWER, w, 10**9)
        pivots += 1
        assert tab.pivots_since_refactor == pivots
    binv = tab.binv
    fresh = _slack_tableau(view)
    fresh.basis, fresh.status = tab.basis.copy(), tab.status.copy()
    fresh.refactorize()
    assert np.abs(binv - fresh.binv).max() <= 1e-9 * max(1.0, np.abs(fresh.binv).max())

    # the products over the nonzeros against the dense formulas
    ab, adense = np.abs(binv), np.abs(dense)
    for q in rng.choice(dense.shape[1], size=8):
        _within_rounding(tab.entering_column(int(q)), (binv @ dense[:, q], ab @ adense[:, q]))
    for r in rng.choice(m, size=8):
        _within_rounding(view.tdot(binv[r]), (binv[r] @ dense, ab[r] @ adense))
    c = np.where(rng.random(dense.shape[1]) < 0.5, rng.normal(size=dense.shape[1]), 0.0)
    y = binv.T @ c[tab.basis]
    _within_rounding(tab.reduced_costs(c),
                     (c - dense.T @ y, np.abs(c) + adense.T @ (ab.T @ np.abs(c[tab.basis]))))
    x = rng.normal(size=dense.shape[1])
    _within_rounding(view.dot(x), (dense @ x, adense @ np.abs(x)))
    return pivots


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_eta_updates_match_a_fresh_refactorization_on_sparse_forms(seed):
    rng = np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as mp:  # every eta update over its nonzero pattern
        mp.setattr(simplex, "_SPARSE_ETA_COST", 0)
        mp.setattr(simplex, "_SPARSE_ETA_OVERHEAD", 0)
        assert _check_eta_against_refactorization(_sparse_lp(rng), seed, 40) > 0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_eta_updates_match_a_fresh_refactorization_on_the_hour17_milp(hour17_milp, seed):
    assert _check_eta_against_refactorization(hour17_milp, seed, 60) > 0


def _solve_with_eta_updates(p, sparse, seed):
    """Cold, then warm on a tightened child, with every eta update over
    its nonzero pattern (``sparse``) or over the whole inverse."""
    with pytest.MonkeyPatch.context() as mp:
        if sparse:
            mp.setattr(simplex, "_SPARSE_ETA_COST", 0)
            mp.setattr(simplex, "_SPARSE_ETA_OVERHEAD", 0)
        else:
            mp.setattr(simplex, "_SPARSE_ETA_OVERHEAD", np.inf)
        cold = solve_lp(p)
        warm = None
        if cold.basis is not None:
            warm = solve_lp(_tightened(p, np.random.default_rng(seed)), basis=cold.basis)
    return cold, warm


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sparse_and_dense_eta_updates_solve_alike(seed):
    """A form solves, cold and warm, to the same certified answer whichever
    eta update runs."""
    p = _sparse_lp(np.random.default_rng(seed))
    cold, warm = _solve_with_eta_updates(p, True, seed)
    cold_d, warm_d = _solve_with_eta_updates(p, False, seed)
    _same_answer(cold, cold_d)
    assert _certified(cold_d) or cold_d.status != "optimal"
    assert (warm is None) == (warm_d is None)
    if warm is not None:
        _same_answer(warm, warm_d)
        _same_answer(warm, solve_lp(_tightened(p, np.random.default_rng(seed))))


# -- refactorization edge cases ------------------------------------------------

def _basis_tableau(A, basis):
    form = LpForm(np.asarray(A, dtype=float))
    tab = _slack_tableau(form.A_std)
    tab.basis = np.asarray(basis)
    tab.status[:] = simplex._AT_LOWER
    tab.status[tab.basis] = simplex._BASIC
    return tab, np.hstack([form.A * form.R[:, None] * form.C[None, :],
                           -np.eye(form.A.shape[0])])


def test_refactorize_without_a_basic_row_activity():
    # every basic column is a structural one: A11 is the whole basis
    rng = np.random.default_rng(5)
    A = np.eye(70) * 2.0 + np.where(rng.random((70, 70)) < 0.05, rng.normal(size=(70, 70)), 0)
    tab, dense = _basis_tableau(A, np.arange(70))
    tab.refactorize()
    np.testing.assert_allclose(tab.binv @ dense[:, tab.basis], np.eye(70), atol=1e-10)


def test_refactorize_with_only_row_activities():
    tab, _ = _basis_tableau(np.ones((3, 2)), [2, 4, 3])
    tab.refactorize()
    want = np.zeros((3, 3))
    want[[0, 1, 2], [0, 2, 1]] = -1.0  # position k holds the activity of row basis[k] - 2
    assert np.array_equal(tab.binv, want)


def _twin_column_lp():
    # columns 0 and 1 are equal, so no basis holds both
    A = [[1.0, 1.0, 0.0], [2.0, 2.0, 1.0], [0.0, 0.0, 1.0]]
    return LpProblem("min", [1.0, 2.0, -1.0], A, [1.0, 0.0, -INF], [4.0, 6.0, 2.0],
                     np.zeros(3), np.full(3, 5.0))


def test_singular_a11_raises_and_the_warm_path_falls_back_cold():
    p = _twin_column_lp()
    tab, _ = _basis_tableau(p.A, [0, 1, 5])
    with pytest.raises(simplex.SolverNumericalError, match="singular basis"):
        tab.refactorize()
    cold = solve_lp(p)
    assert cold.status == "optimal"
    _identical(solve_lp(p, basis=np.array([0, 1, 5])), cold)


def test_singular_refactorization_runs_the_cold_retry_ladder(monkeypatch):
    p = _twin_column_lp()
    cold = solve_lp(p)
    _phase_one_only(monkeypatch)
    real = simplex._Tableau.refactorize
    calls = []

    def singular_first(tab):
        calls.append(tab)
        if len(calls) == 1:  # the first attempt's first factorization
            raise simplex.SolverNumericalError("singular basis during refactorization")
        return real(tab)
    monkeypatch.setattr(simplex._Tableau, "refactorize", singular_first)
    retried = solve_lp(p)
    # a second attempt on a new tableau, then the primal tail on a tableau over the form
    assert len({id(t) for t in calls}) == 3
    assert calls[-1].form is not None
    assert retried.status == "optimal"
    assert retried.objective == pytest.approx(cold.objective, abs=1e-9)

    def singular(tab):
        raise simplex.SolverNumericalError("singular basis during refactorization")
    monkeypatch.setattr(simplex._Tableau, "refactorize", singular)
    with pytest.raises(simplex.SolverNumericalError, match="singular basis"):
        solve_lp(p)


# -- the block-triangular inverse ----------------------------------------------

def _block_triangular_basis(rng, kind):
    """A random sparse nonsingular m x m matrix, its rows and columns shuffled:
    singleton chains around a dense nucleus, a dense nucleus alone (no
    singleton), or the slack basis -I."""
    m = int(rng.integers(2, 60))
    if kind == "slack":
        return -np.eye(m)
    core = m if kind == "nucleus" else int(rng.integers(0, m // 2 + 1))
    head = int(rng.integers(0, m - core + 1))
    # upper triangular apart from the nucleus block [head, head + core), with
    # pivots of magnitude 1 to 2 and sparse entries of up to 2 above them:
    # LAPACK's partial pivoting then leaves the triangular order, and its
    # inverse holds roundoff where the exact entry is zero
    M = np.triu(np.where(rng.random((m, m)) < 3.0 / m, rng.uniform(-2.0, 2.0, (m, m)), 0.0), 1)
    np.fill_diagonal(M, rng.choice([-1.0, 1.0], m) * rng.uniform(1.0, 2.0, m))
    block = slice(head, head + core)
    M[block, block] = rng.uniform(-1.0, 1.0, (core, core)) + core * np.eye(core)
    return M[rng.permutation(m)][:, rng.permutation(m)]


def _reference_order(B):
    """B's rows and columns in block-triangular order, peeling one singleton
    at a time: the column singletons, the nucleus, then the row singletons
    (the last found first); and the nucleus' ranks."""
    nz = B != 0
    rows, cols = list(range(B.shape[0])), list(range(B.shape[1]))
    head, tail = [], []
    for axis, found in ((0, head), (1, tail)):  # column singletons, then row singletons
        while True:
            live = nz[np.ix_(rows, cols)]
            ones = np.flatnonzero(live.sum(axis=axis) == 1)
            if not ones.size:
                break
            k = int(ones[0])
            if axis == 0:
                pair = (rows[int(np.flatnonzero(live[:, k])[0])], cols[k])
            else:
                pair = (rows[k], cols[int(np.flatnonzero(live[k])[0])])
            found.append(pair)
            rows.remove(pair[0])
            cols.remove(pair[1])
    order = head + list(zip(rows, cols)) + tail[::-1]
    return [i for i, _ in order], [j for _, j in order], slice(len(head), len(head) + len(rows))


def _structural_inverse_pattern(B, row_order, col_order, nucleus):
    """Where the inverse of B, its rows in ``col_order`` and its columns in
    ``row_order``, may be nonzero: where a chain of B's nonzeros leads, with
    the nucleus taken as dense."""
    reach = (B[np.ix_(row_order, col_order)] != 0) | np.eye(B.shape[0], dtype=bool)
    reach[nucleus, nucleus] = True
    while True:
        longer = reach | (reach.astype(int) @ reach.astype(int) > 0)
        if (longer == reach).all():
            return reach
        reach = longer


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["chains", "nucleus", "slack"]))
def test_block_triangular_inverse_is_lapacks_with_exact_zeros(seed, kind):
    """The structured inverse matches LAPACK's within 1e-12 relative, is
    exactly 0.0 wherever the block-triangular order makes an entry zero, and
    is exactly -I for the slack basis."""
    B = _block_triangular_basis(np.random.default_rng(seed), kind)
    rows, cols = np.nonzero(B)
    got = simplex._block_triangular_inverse(rows, cols, B[rows, cols], B.shape[0])
    want = np.linalg.inv(B)
    assert got.flags.c_contiguous
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    row_order, col_order, nucleus = _reference_order(B)
    pattern = _structural_inverse_pattern(B, row_order, col_order, nucleus)
    assert (got[np.ix_(col_order, row_order)][~pattern] == 0.0).all()
    if kind == "slack":
        assert np.array_equal(got, B)


def _singular_bases():
    chain = np.diag([2.0, -1.0, 1.5, 1.0, -2.0, 1.0]) + np.diag([0.5, 0.0, -1.0, 0.0, 0.25], 1)
    twin_singletons = chain.copy()
    twin_singletons[:, 3] = 0.0
    twin_singletons[1, 3] = 1.0  # columns 1 and 3: one nonzero each, both on row 1
    empty_column = chain.copy()
    empty_column[:, 4] = 0.0
    empty_row = chain.copy()
    empty_row[2] = 0.0
    # columns 1 and 3 single on row 1, rows 2 and 4 single on column 2, a
    # nonsingular nucleus on rows and columns 0, 3 and 5: each peel alone
    # keeps as many rows as columns
    twin_pairs = np.zeros((6, 6))
    twin_pairs[1, [1, 3]] = [1.0, -2.0]
    twin_pairs[[2, 4], 2] = [0.5, 1.0]
    twin_pairs[np.ix_([0, 3, 5], [0, 4, 5])] = [[3.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 3.0]]
    nucleus = chain.copy()
    nucleus[np.ix_([2, 3], [2, 3])] = 1.0  # a singular 2 x 2 nucleus
    return {"two column singletons on one row": twin_singletons,
            "twin column and row singletons": twin_pairs,
            "empty column": empty_column, "empty row": empty_row,
            "singular nucleus": nucleus}


@pytest.mark.parametrize("case", list(_singular_bases()))
def test_singular_basis_raises_from_the_block_triangular_inverse(case):
    B = _singular_bases()[case]
    rows, cols = np.nonzero(B)
    with pytest.raises(simplex.SolverNumericalError, match="singular basis during refactorization"):
        simplex._block_triangular_inverse(rows, cols, B[rows, cols], B.shape[0])


def test_hour17_root_factorizes_by_its_block_triangular_structure(hour17_milp):
    """The 390-row attack MILP factorizes every basis of its root solve,
    from the slack basis on, by the structured inverse."""
    real = simplex._block_triangular_inverse
    structured, inverted = [], []

    def counting(*args):
        structured.append(args[-1])
        return real(*args)
    real_invert = simplex._Tableau.invert

    def inverting(tab):
        inverted.append(tab.basis.copy())
        return real_invert(tab)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_block_triangular_inverse", counting)
        mp.setattr(simplex._Tableau, "invert", inverting)
        root = solve_lp(hour17_milp)
    assert root.status == "optimal" and _certified(root)
    assert np.array_equal(inverted[0], np.arange(hour17_milp.num_cols,
                                                 hour17_milp.num_cols + hour17_milp.num_rows))
    assert structured == [hour17_milp.num_rows] * len(inverted)
