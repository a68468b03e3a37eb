import itertools

import numpy as np
import pytest

from gridshock import milp
from gridshock.milp import MilpNodeLimitError, MilpProblem, solve_milp
from gridshock.simplex import LpProblem, SolverNumericalError, solve_lp

INF = np.inf


def knapsack(c, w, cap):
    n = len(c)
    lp = LpProblem("max", c, [w], [-INF], [cap], np.zeros(n), np.ones(n))
    return MilpProblem(lp, list(range(n)))


def test_single_binary_rounds_down():
    p = MilpProblem(LpProblem("max", [1.0], [[1.0]], [-INF], [1.5], [0.0], [1.0]), [0])
    s = solve_milp(p)
    assert s.status == "optimal"
    assert s.x[0] == 1.0
    assert s.objective == 1.0


def test_small_knapsack():
    s = solve_milp(knapsack([3.0, 2.0], [2.0, 2.0], 3.0))
    assert s.objective == 3.0
    np.testing.assert_array_equal(s.x, [1.0, 0.0])


def test_infeasible_milp():
    lp = LpProblem("max", [1.0], [[1.0]], [2.0], [INF], [0.0], [1.0])
    s = solve_milp(MilpProblem(lp, [0]))
    assert s.status == "infeasible"


def test_node_limit_returns_incumbent():
    rng = np.random.default_rng(5)
    c = rng.uniform(1, 5, 10)
    w = rng.uniform(1, 4, 10)
    prob = knapsack(c, w, w.sum() / 2)
    warm = np.zeros(10)
    s = solve_milp(prob, node_limit=2, warm_start=warm)
    assert s.status == "feasible-limit"
    assert s.objective >= 0.0
    assert s.bound_gap >= 0.0


def test_node_limit_without_incumbent_raises():
    rng = np.random.default_rng(5)
    c = rng.uniform(1, 5, 10)
    w = rng.uniform(1, 4, 10)
    with pytest.raises(MilpNodeLimitError):
        solve_milp(knapsack(c, w, w.sum() / 2), node_limit=1)


def test_warm_start_prunes():
    c = [5.0, 4.0, 3.0]
    w = [4.0, 3.0, 2.0]
    prob = knapsack(c, w, 6.0)
    opt = solve_milp(prob)
    warm = solve_milp(prob, warm_start=opt.x)
    assert warm.objective == opt.objective
    assert warm.node_count <= opt.node_count


def test_root_pruned_by_warm_start_is_optimal_at_one_node():
    """The root relaxation is integral and the warm start already attains it:
    the search is complete at the root, whatever the node limit."""
    prob = knapsack([3.0, 2.0], [2.0, 2.0], 4.0)
    for limit in (1, 2):
        s = solve_milp(prob, node_limit=limit, warm_start=np.ones(2))
        assert s.status == "optimal"
        assert s.objective == 5.0 and s.bound_gap == 0.0 and s.node_count == 1


def test_incumbent_within_relaxation_bound():
    prob = knapsack([3.0, 2.0, 4.0], [2.0, 2.0, 3.0], 4.0)
    root = solve_lp(prob.lp)
    s = solve_milp(prob)
    assert s.objective <= root.objective + 1e-9


def pure_binary_oracles():
    rng = np.random.default_rng(17)
    for _ in range(25):
        nb = int(rng.integers(3, 9))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, nb)).round(2)
        c = rng.normal(size=nb).round(2)
        ru = rng.uniform(-1.0, 3.0, m).round(2)
        lp = LpProblem("max", c, A, np.full(m, -INF), ru, np.zeros(nb), np.ones(nb))
        yield MilpProblem(lp, list(range(nb)))


def mixed_oracles():
    rng = np.random.default_rng(23)
    for _ in range(12):
        nb, nc = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        n = nb + nc
        m = int(rng.integers(1, 5))
        A = rng.normal(size=(m, n)).round(2)
        c = rng.normal(size=n).round(2)
        ru = rng.uniform(0.0, 4.0, m).round(2)
        lb = np.concatenate([np.zeros(nb), np.full(nc, -2.0)])
        ub = np.concatenate([np.ones(nb), np.full(nc, 2.0)])
        lp = LpProblem("max", c, A, np.full(m, -INF), ru, lb, ub)
        yield MilpProblem(lp, list(range(nb)))


def test_pure_binary_exact_vs_enumeration():
    for prob in pure_binary_oracles():
        lp = prob.lp
        A, c, ru, nb = lp.A, lp.c, lp.row_ub, lp.num_cols
        s = solve_milp(prob)
        best = None
        for bits in itertools.product([0.0, 1.0], repeat=nb):
            x = np.array(bits)
            if np.all(A @ x <= ru + 1e-9):
                v = float(c @ x)
                best = v if best is None else max(best, v)
        if best is None:
            assert s.status == "infeasible"
        else:
            assert s.status == "optimal"
            assert s.objective == best  # binaries polished to exact 0/1


def test_mixed_integer_matches_fixing_enumeration():
    for prob in mixed_oracles():
        lp = prob.lp
        A, c, ru, lb, ub = lp.A, lp.c, lp.row_ub, lp.lb, lp.ub
        nb, m = len(prob.binary_indices), lp.num_rows
        s = solve_milp(prob)
        best = None
        for bits in itertools.product([0.0, 1.0], repeat=nb):
            l2, u2 = lb.copy(), ub.copy()
            l2[:nb] = bits
            u2[:nb] = bits
            r = solve_lp(LpProblem("max", c, A, np.full(m, -INF), ru, l2, u2))
            if r.status == "optimal":
                best = r.objective if best is None else max(best, r.objective)
        if best is None:
            assert s.status == "infeasible"
        else:
            assert s.objective == pytest.approx(best, rel=1e-9, abs=1e-9)


def test_determinism():
    prob = knapsack([3.0, 2.0, 4.0, 1.5], [2.0, 2.0, 3.0, 1.0], 5.0)
    s1 = solve_milp(prob)
    s2 = solve_milp(prob)
    assert np.array_equal(s1.x, s2.x)
    assert s1.objective == s2.objective
    assert s1.node_count == s2.node_count


def test_binary_bounds_validated():
    lp = LpProblem("max", [1.0], [[1.0]], [-INF], [5.0], [0.0], [2.0])
    with pytest.raises(ValueError):
        MilpProblem(lp, [0])


def test_warm_started_tree_matches_cold_started_tree(monkeypatch):
    """Children start from the parent basis: same optima, no larger trees.

    On one oracle a child LP has a tie (a zero-cost binary) and the warm
    start keeps the parent's integral value where a cold start stops on a
    fractional vertex, so that tree is smaller (3 nodes against 5).
    """
    probs = list(pure_binary_oracles()) + list(mixed_oracles())
    warm = [solve_milp(p) for p in probs]
    with monkeypatch.context() as mp:
        mp.setattr(milp, "solve_lp", lambda lp, basis=None, form=None: solve_lp(lp))
        cold = [solve_milp(p) for p in probs]
    for w, c in zip(warm, cold):
        assert w.status == c.status
        if c.status == "optimal":
            assert w.objective == pytest.approx(c.objective, rel=1e-9, abs=1e-9)
        assert w.node_count <= c.node_count
    assert sum(w.node_count != c.node_count for w, c in zip(warm, cold)) <= 1


def failing_child(monkeypatch, var: int, val: float):
    """Make every LP with ``var`` fixed at ``val`` fail on both paths."""
    def solve(lp, basis=None, form=None):
        if lp.lb[var] == lp.ub[var] == val:
            raise SolverNumericalError("singular basis during refactorization")
        return solve_lp(lp, basis=basis, form=form)
    monkeypatch.setattr(milp, "solve_lp", solve)


def test_bad_node_keeps_parent_bound(monkeypatch):
    prob = knapsack([5.0, 4.0, 3.0, 2.0], [4.0, 3.0, 2.0, 1.5], 6.0)
    exact = solve_milp(prob)
    root = solve_lp(prob.lp)
    failing_child(monkeypatch, 0, 1.0)
    s = solve_milp(prob)
    assert s.status == "feasible-limit"
    assert s.objective <= exact.objective + 1e-9
    assert milp._feasible(prob.lp, s.x)
    # the lost child's bound is its parent's, never above the root bound
    assert 0.0 < s.bound_gap <= (root.objective - s.objective) / s.objective + 1e-9


def test_bad_node_without_incumbent_reraises(monkeypatch):
    prob = knapsack([5.0, 4.0], [4.0, 3.0], 5.0)
    def solve(lp, basis=None, form=None):
        if np.any(lp.lb == lp.ub):
            raise SolverNumericalError("singular basis during refactorization")
        return solve_lp(lp, basis=basis, form=form)
    monkeypatch.setattr(milp, "solve_lp", solve)
    with pytest.raises(SolverNumericalError):
        solve_milp(prob)


def test_hour17_tree_is_pinned(bundled_net, bundled_demand):
    """Branch and bound on the bundled Compound peak hour at its whole
    budget, cut at 12 nodes: the tree and the incumbent the solver found
    before its products ran over the matrix's nonzeros."""
    from gridshock import attack, scenarios
    from gridshock.cli import bundled_path
    from gridshock.network import apply_heatwave
    cfg = scenarios.load_config(bundled_path("compound.cfg"))
    heated = apply_heatwave(bundled_demand, cfg.heatwave_factor)
    part = attack.solve_hourly_attack(bundled_net, heated, "summer", 17,
                                      scenarios.scenario_costs(cfg, bundled_net), 300.0,
                                      node_limit=12)
    assert (part.status, part.nodes) == ("feasible-limit", 13)
    assert part.objective == pytest.approx(269360.00000000006, rel=1e-12)
    assert part.spend == pytest.approx(300.0, rel=1e-12)
    assert part.certificate_ok and part.bigm_valid


def test_hour17_root_and_polish_start_from_the_slack_basis(bundled_net, bundled_demand,
                                                           monkeypatch):
    """On the bundled Compound peak hour at its whole budget, the root LP and
    the polish of the greedy warm start are solved without a basis, from the
    slack basis, never by phase 1 of the primal simplex."""
    from gridshock import attack, scenarios, simplex
    from gridshock.cli import bundled_path
    from gridshock.network import apply_heatwave
    cfg = scenarios.load_config(bundled_path("compound.cfg"))
    heated = apply_heatwave(bundled_demand, cfg.heatwave_factor)
    given = []

    def phase_one(*args):
        raise AssertionError("the slack start must decide this LP itself")

    def slack_only(lp, basis=None, form=None):
        given.append(basis)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "_phase_one", phase_one)
            return solve_lp(lp, basis=basis, form=form)
    monkeypatch.setattr(milp, "solve_lp", slack_only)
    # one node: the tree stops after the root and the polish
    part = attack.solve_hourly_attack(bundled_net, heated, "summer", 17,
                                      scenarios.scenario_costs(cfg, bundled_net), 300.0,
                                      node_limit=1)
    assert (part.status, part.nodes) == ("feasible-limit", 1)
    assert [b is None for b in given] == [True, True]
