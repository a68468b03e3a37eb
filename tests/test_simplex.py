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


def test_cold_solve_clears_basic_values_past_tiny_bounds(hour17):
    net, demand, _ = hour17
    cold = solve_lp(_lowered_dispatch(net, demand, 285415, [0.0, 1e-7, 1e-7]))
    assert cold.status == "optimal" and _certified(cold)


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
    # costs point away from the only finite bound, so it is not dual feasible
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
    vertices = [(optimize_lp(p, form=form), solve_lp(p))]
    parent = solve_lp(p)

    def warm(child, basis):
        return lambda: vertices.append((optimize_lp(child, basis=basis, form=form),
                                        solve_lp(child, basis=basis)))
    if parent.status == "optimal" and parent.basis is not None:
        # the first warm start factorizes the parent basis, the second finds it stored
        first = _inverted_bases(form, warm(_tightened(p, rng), parent.basis))
        second = _inverted_bases(form, warm(_tightened(p, rng), parent.basis))
        assert np.array_equal(first[0], parent.basis)
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
    assert np.array_equal(form.A_std.dense_columns(np.arange(dense.shape[1])), dense)
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
    real = simplex._Tableau.refactorize
    calls = []

    def singular_first(tab):
        calls.append(tab)
        if len(calls) == 1:  # the first attempt's first factorization
            raise simplex.SolverNumericalError("singular basis during refactorization")
        return real(tab)
    monkeypatch.setattr(simplex._Tableau, "refactorize", singular_first)
    retried = solve_lp(p)
    assert len({id(t) for t in calls}) == 2  # a second attempt on a new tableau
    assert retried.status == "optimal"
    assert retried.objective == pytest.approx(cold.objective, abs=1e-9)

    def singular(tab):
        raise simplex.SolverNumericalError("singular basis during refactorization")
    monkeypatch.setattr(simplex._Tableau, "refactorize", singular)
    with pytest.raises(simplex.SolverNumericalError, match="singular basis"):
        solve_lp(p)
