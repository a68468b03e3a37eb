from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import gridshock.dcopf as dcopf_mod
from gridshock import simplex
from gridshock.dcopf import (OPF_BLOCKS, SeasonDispatch, build_dcopf, dispatch_form,
                             solve_day, solve_dcopf)
from gridshock.network import DemandProfile, apply_heatwave
from gridshock.reporting import solution_layout, solution_rows
from support import one_bus, profile_for, tight_two_bus, two_bus

VOLL = 1000.0


def test_lp_structure_two_bus():
    net = two_bus()
    prof = profile_for(net, [[0.0, 80.0]])
    lp = build_dcopf(net, prof, "summer", 0)
    G, E, N = net.num_generators, net.num_edges, net.num_nodes
    assert lp.num_cols == G + E + 2 * N
    assert sum(1 for lab in lp.row_labels if lab.startswith("bal")) == N
    assert sum(1 for lab in lp.row_labels if lab.startswith("flow")) == E
    assert "ref" in lp.row_labels


def test_lp_structure_bundled(bundled_net, bundled_demand):
    lp = build_dcopf(bundled_net, bundled_demand, "summer", 0)
    assert sum(1 for lab in lp.row_labels if lab.startswith("bal")) == 16
    assert sum(1 for lab in lp.row_labels if lab.startswith("flow")) == 17


def test_lp_structure_single_node():
    net = one_bus()
    lp = build_dcopf(net, profile_for(net, [[100.0]]), "summer", 0)
    assert sum(1 for lab in lp.row_labels if lab.startswith("bal")) == 1
    assert not any(lab.startswith("flow") for lab in lp.row_labels)


def test_single_bus_dispatch():
    net = one_bus(g_max=150.0, cost=20.0)
    sol = solve_dcopf(net, profile_for(net, [[100.0]]), "summer", 0)
    assert sol.g[0] == pytest.approx(100.0, abs=1e-9)
    assert sol.u[0] == pytest.approx(0.0, abs=1e-9)
    assert sol.pi_d[0] == pytest.approx(20.0, abs=1e-9)
    assert sol.objective == pytest.approx(2000.0, rel=1e-9)


def test_two_bus_congestion_splits_prices():
    # hand solution: 50 MW import fills the line, local unit serves the rest
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    np.testing.assert_allclose(sol.g, [50.0, 30.0], atol=1e-6)
    np.testing.assert_allclose(sol.f, [50.0], atol=1e-6)
    np.testing.assert_allclose(sol.u, [0.0, 0.0], atol=1e-6)
    np.testing.assert_allclose(sol.pi_d, [20.0, 90.0], atol=1e-6)
    assert sol.objective == pytest.approx(50 * 20 + 30 * 90, rel=1e-9)


def test_two_bus_shedding_priced_at_voll():
    net = two_bus(with_g2=False)
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    assert sol.u[1] == pytest.approx(30.0, abs=1e-6)
    assert sol.pi_d[1] == pytest.approx(VOLL, abs=1e-6)
    assert sol.shed_cost == pytest.approx(30.0 * VOLL, rel=1e-9)


def test_objective_identity():
    net = tight_two_bus()
    sol = solve_dcopf(net, profile_for(net, [[10.0, 80.0]]), "summer", 0)
    explicit = float(net.arrays.gen_costs @ sol.g + sol.voll @ sol.u)
    assert sol.objective == pytest.approx(explicit, rel=1e-9)


def test_capacity_relaxation_never_costs_more(bundled_net, bundled_demand):
    # randomized capacity perturbations: more room never raises cost
    rng = np.random.default_rng(2)
    base = solve_dcopf(bundled_net, bundled_demand, "summer", 17)
    for _ in range(4):
        zg = -rng.uniform(0, 50, bundled_net.num_generators)  # negative z = extra room
        zf = -rng.uniform(0, 50, bundled_net.num_edges)
        relaxed = solve_dcopf(bundled_net, bundled_demand, "summer", 17, zg, zf)
        assert relaxed.objective <= base.objective + 1e-6


def test_unlimited_grid_serves_everything(bundled_net, bundled_demand):
    zf = -np.full(bundled_net.num_edges, 1e5)  # effectively infinite lines
    sol = solve_dcopf(bundled_net, bundled_demand, "summer", 17, None, zf)
    assert sol.u.sum() == pytest.approx(0.0, abs=1e-7)


def test_nodal_price_bounds(bundled_net, bundled_demand):
    sol = solve_dcopf(bundled_net, bundled_demand, "summer", 17)
    cmin = min(g.cost for g in bundled_net.generators)
    vmax = float(sol.voll.max())
    served = sol.demand > 0
    assert np.all(sol.pi_d[served] >= cmin - 1e-6)
    assert np.all(sol.pi_d[served] <= vmax + 1e-6)


def test_solve_day_runs_all_hours(bundled_net, bundled_demand):
    sols = solve_day(bundled_net, bundled_demand, "summer")
    assert len(sols) == 24
    assert all(s.u.sum() <= 1e-7 for s in sols)


def test_point_is_read_only_and_each_name_reads_its_block(bundled_net, bundled_demand):
    net = bundled_net
    G, E, N = net.num_generators, net.num_edges, net.num_nodes
    sol = solve_dcopf(net, bundled_demand, "summer", 17)
    with pytest.raises(ValueError, match="read-only"):
        sol.point[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        sol.u[0] = 1.0
    # the blocks tile the point in OPF_BLOCKS order, each sized by its entity kind
    blocks = sol.layout.blocks
    assert list(blocks) == list(OPF_BLOCKS)
    assert [b.start for b in blocks.values()] == [0] + [b.stop for b in blocks.values()][:-1]
    assert sol.point.shape == (sol.layout.size,) == (blocks["rho_u_up"].stop,)
    for name, kind in OPF_BLOCKS.items():
        view = getattr(sol, name)
        assert view.shape == (1 if kind is None else len(getattr(net, kind)),), name
        assert np.shares_memory(view, sol.point) and np.array_equal(view, sol.point[blocks[name]])
    # each name holds its quantity of the dispatch LP's solution
    lp_sol = simplex.solve_lp(build_dcopf(net, bundled_demand, "summer", 17))
    x, y, rc = lp_sol.x, lp_sol.duals, lp_sol.reduced_costs
    assert np.array_equal(np.concatenate([sol.g, sol.f, sol.u, sol.theta]), x)
    assert np.array_equal(sol.pi_d, y[:N]) and np.array_equal(sol.pi_f, -y[N:N + E])
    assert np.array_equal(sol.delta, [-y[-1]])
    assert np.array_equal(sol.rho_g_up - sol.rho_g_lo, -rc[:G])
    assert np.array_equal(sol.rho_th_lo - sol.rho_th_up, y[N + E:N + 2 * E])
    # demand and VOLL are the profile's own read-only rows
    for have, rows in ((sol.demand, bundled_demand.demand), (sol.voll, bundled_demand.voll)):
        assert np.shares_memory(have, rows["summer"]) and not have.flags.writeable


def test_solution_rows_cover_entities(bundled_net, bundled_demand):
    sol = solve_dcopf(bundled_net, bundled_demand, "summer", 0)
    rows = solution_rows(sol, solution_layout(bundled_net))
    quantities = {r[3] for r in rows}
    assert {"g", "f", "u", "theta", "pi_d", "pi_f", "delta", "objective"} <= quantities


SHARED_HOURS = (3, 12, 17, 19)


@pytest.fixture(scope="module")
def shared_day(bundled_net, bundled_demand):
    """One dispatch form for every example, with the hours' unattacked dispatches."""
    return SeasonDispatch(bundled_net, bundled_demand, "summer", SHARED_HOURS)


def _inner_lp(call):
    """Run ``call``; return the LpSolution of the last solve_lp inside solve_dcopf."""
    seen = []
    real = dcopf_mod.solve_lp

    def record(*args, **kwargs):
        seen.append(real(*args, **kwargs))
        return seen[-1]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dcopf_mod, "solve_lp", record)
        call()
    return seen[-1]


def _draw_attack(net, base, kind, seed, share):
    """(zg, zf, zt) for ``base``'s hour: "within slack" lowers limits only
    where the unattacked dispatch ``base`` has room, "any" anywhere, and
    "over capacity" also takes one component past its capacity."""
    rng = np.random.default_rng(seed)
    arr = net.arrays
    caps = (arr.g_span, arr.f_cap, arr.t_cap)
    if kind == "within slack":
        angle = np.abs(arr.incidence @ base.theta)
        room = (arr.g_up - base.g, caps[1] - np.abs(base.f), caps[2] - angle)
    else:
        room = caps
    zs = [np.where(rng.random(r.size) < 0.3, share * rng.random(r.size) * np.maximum(r, 0.0),
                   0.0) for r in room]
    if kind == "over capacity":
        block = int(rng.integers(3))
        k = int(rng.integers(caps[block].size))
        zs[block][k] = caps[block][k] * (1.0 + share) + 1.0
    return zs


@settings(max_examples=60, deadline=None)
@given(hour=st.sampled_from(SHARED_HOURS),
       kind=st.sampled_from(("within slack", "any", "over capacity")),
       seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_shared_form_matches_one_shot_dispatch(shared_day, hour, kind, seed, share):
    """Warm re-solves on the run's shared form equal one-shot ones, bit for bit.

    "within slack" lowers limits only where the unattacked dispatch has
    room, so its basis stays optimal; "any" lowers them anywhere, so the
    re-solve pivots; "over capacity" takes one component past its
    capacity, which both paths reject.  The form and its factorization
    slot carry over from example to example.
    """
    net, demand, base = shared_day.net, shared_day.demand, shared_day.base(hour)
    zs = _draw_attack(net, base, kind, seed, share)

    def solve(**form):
        return solve_dcopf(net, demand, "summer", hour, *zs, basis=base.basis, **form)
    if kind == "over capacity":
        with pytest.raises(ValueError):
            solve()
        with pytest.raises(ValueError):
            solve(form=shared_day.form)
        return
    one = _inner_lp(solve)
    shared = _inner_lp(lambda: solve(form=shared_day.form))
    assert (shared.status, shared.objective, shared.iterations) == \
        (one.status, one.objective, one.iterations)
    for name in ("x", "duals", "reduced_costs", "basis"):
        assert np.array_equal(getattr(shared, name), getattr(one, name)), name


def _count_inversions(monkeypatch) -> list:
    """The tableaux that factorize a basis afresh (the form's store misses),
    appended as they do."""
    calls = []
    real = simplex._Tableau.invert

    def counting(tab):
        calls.append(tab)
        return real(tab)
    monkeypatch.setattr(simplex._Tableau, "invert", counting)
    return calls


def test_resolve_from_an_optimal_base_basis_factorizes_nothing(bundled_net, bundled_demand,
                                                               monkeypatch):
    """At hour 17, a re-solve whose base basis stays optimal reuses the form's
    factorization: the base's own cold solve, from the slack basis over the
    form, stores the base basis's inverse, and no re-solve factorizes it again."""
    net = bundled_net
    form = dispatch_form(net)
    base = solve_dcopf(net, bundled_demand, "summer", 17, form=form)
    # lowering the limit of the unit with the most room, within that room,
    # leaves the unattacked dispatch and its basis optimal
    g_up = net.arrays.g_up
    k = int(np.argmax(g_up - base.g))
    zg = np.zeros(net.num_generators)
    zg[k] = 0.5 * (g_up[k] - base.g[k])
    calls = _count_inversions(monkeypatch)

    def resolve():
        before = len(calls)
        lp = _inner_lp(lambda: solve_dcopf(net, bundled_demand, "summer", 17, zg,
                                           basis=base.basis, form=form))
        return lp, len(calls) - before
    first, n_first = resolve()
    second, n_second = resolve()
    assert (n_first, n_second) == (0, 0)
    assert np.array_equal(second.basis, base.basis)
    assert second.iterations == first.iterations
    assert np.array_equal(second.x, first.x)


@settings(max_examples=60, deadline=None)
@given(hour=st.sampled_from(SHARED_HOURS),
       kind=st.sampled_from(("within slack", "any", "over capacity")),
       seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_resolve_without_pivots_matches_the_full_recheck(shared_day, hour, kind, seed, share):
    """A warm re-solve equals, bit for bit, one that runs the primal core's
    pricing pass and the optimality recheck even when the dual phase made no
    pivot: "within slack" attacks mostly keep the base basis optimal, "any"
    attacks pivot, "over capacity" attacks are rejected on both paths."""
    net, demand, base = shared_day.net, shared_day.demand, shared_day.base(hour)
    zs = _draw_attack(net, base, kind, seed, share)

    def solve():
        return solve_dcopf(net, demand, "summer", hour, *zs, basis=base.basis,
                           form=shared_day.form)
    real = simplex._primal_tail

    def full_recheck(*args, priced=False, **kwargs):
        return real(*args, **kwargs)
    if kind == "over capacity":
        with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
            solve()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simplex, "_primal_tail", full_recheck)
            with pytest.raises(ValueError, match="lower bound exceeds upper bound"):
                solve()
        return
    fast = _inner_lp(solve)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "_primal_tail", full_recheck)
        checked = _inner_lp(solve)
    assert (fast.status, fast.objective, fast.iterations) == \
        (checked.status, checked.objective, checked.iterations)
    for name in ("x", "duals", "reduced_costs", "basis"):
        assert np.array_equal(getattr(fast, name), getattr(checked, name)), name


def test_resolve_without_pivots_prices_once(bundled_net, bundled_demand, monkeypatch):
    """At hour 17, a re-solve whose base basis stays optimal and is in the
    form's store, with the pricing of an earlier start from it under the
    same costs, computes no reduced costs and factorizes nothing."""
    net = bundled_net
    form = dispatch_form(net)
    base = solve_dcopf(net, bundled_demand, "summer", 17, form=form)
    g_up = net.arrays.g_up
    k = int(np.argmax(g_up - base.g))
    zg = np.zeros(net.num_generators)
    zg[k] = 0.5 * (g_up[k] - base.g[k])

    def resolve():
        return _inner_lp(lambda: solve_dcopf(net, bundled_demand, "summer", 17, zg,
                                             basis=base.basis, form=form))
    resolve()  # stores the base basis's inverse and its pricing
    priced = []
    real = simplex._Tableau.reduced_costs

    def counting(tab, c):
        priced.append(tab)
        return real(tab, c)
    monkeypatch.setattr(simplex._Tableau, "reduced_costs", counting)
    inverted = _count_inversions(monkeypatch)
    lp = resolve()
    assert (len(priced), len(inverted)) == (0, 0)
    assert lp.iterations == 1  # no dual pivot, the stored pricing pass
    assert np.array_equal(lp.basis, base.basis)


def test_form_of_another_network_is_rejected(bundled_net, bundled_demand):
    # the form carries its network's limits and costs, so it serves that network only
    twin = replace(bundled_net)  # an equal network, another object
    for form in (dispatch_form(twin), simplex.LpForm(dispatch_form(bundled_net).A)):
        with pytest.raises(ValueError, match="not the dispatch form of this network"):
            solve_dcopf(bundled_net, bundled_demand, "summer", 17, form=form)


def test_solve_day_on_a_shared_form_matches_hour_by_hour(bundled_net, bundled_demand):
    # hour 0 is solved cold, bit for bit; later hours are warm-started from
    # the hour before and land on the cold solve's vertex
    day = solve_day(bundled_net, bundled_demand, "summer")
    for h in (0, 17):
        alone = solve_dcopf(bundled_net, bundled_demand, "summer", h)
        _assert_same_vertex(day[h], alone)
        if h == 0:
            assert np.array_equal(day[h].g, alone.g) and np.array_equal(day[h].pi_d, alone.pi_d)
            assert np.array_equal(day[h].basis, alone.basis)


OPF_FIELDS = list(OPF_BLOCKS) + ["objective", "shed_cost"]


def _profiles(net, demand):
    """The bundled demand, the shipped configs' heated demand (x1.09), and a
    jittered one: every entry scaled by its own factor in [0.9, 1.15]."""
    rng = np.random.default_rng(3)
    jittered = DemandProfile(
        demand.node_ids,
        {s: a * rng.uniform(0.9, 1.15, a.shape) for s, a in demand.demand.items()},
        {s: np.array(a) for s, a in demand.voll.items()})
    return {"bundled": demand, "heated": apply_heatwave(demand, 1.09), "jittered": jittered}


def _assert_same_vertex(chained, cold):
    """Same basis set and every OpfSolution value within 1e-9."""
    assert set(chained.basis.tolist()) == set(cold.basis.tolist())
    for name in OPF_FIELDS:
        np.testing.assert_allclose(getattr(chained, name), getattr(cold, name),
                                   rtol=0, atol=1e-9, err_msg=name)


@pytest.mark.parametrize("which", ["bundled", "heated", "jittered"])
def test_chained_hours_land_on_the_cold_vertex(bundled_net, bundled_demand, which):
    """Each up-front hour, warm-started from the hour before, is optimal at
    the cold solve's basis set; hour 0 is the cold solve bit for bit."""
    prof = _profiles(bundled_net, bundled_demand)[which]
    hours = range(prof.hours("summer"))
    day = SeasonDispatch(bundled_net, prof, "summer", hours)
    for h in hours:
        cold = solve_dcopf(bundled_net, prof, "summer", h)
        _assert_same_vertex(day.base(h), cold)
        if h == 0:
            for name in OPF_FIELDS + ["basis"]:
                assert np.array_equal(getattr(day.base(h), name), getattr(cold, name)), name


def test_chain_across_voll_changes_reaches_the_cold_optimum(bundled_net, bundled_demand):
    """VOLL that changes every hour changes the LP's costs, not only its
    bounds; the chain still ends at each hour's cold optimum (the warm
    start's bound flips keep the basis dual feasible, or the hour is
    solved cold)."""
    rng = np.random.default_rng(5)
    heated = apply_heatwave(bundled_demand, 1.09)
    prof = DemandProfile(
        heated.node_ids, {s: np.array(a) for s, a in heated.demand.items()},
        {s: a * rng.uniform(0.5, 3.0, a.shape) for s, a in heated.voll.items()})
    hours = range(prof.hours("summer"))
    day = SeasonDispatch(bundled_net, prof, "summer", hours)
    for h in hours:
        cold = solve_dcopf(bundled_net, prof, "summer", h)
        assert day.base(h).objective == pytest.approx(cold.objective, rel=1e-12)
        assert day.base(h).shed_cost == pytest.approx(cold.shed_cost, rel=1e-12, abs=1e-9)
        np.testing.assert_allclose(day.base(h).u, cold.u, rtol=0, atol=1e-9)


def test_chain_falls_back_to_the_cold_solve(bundled_net, bundled_demand, monkeypatch):
    """When the warm start from the hour before fails numerically, every
    chained hour is the cold solve, bit for bit."""
    real = simplex._warm_solve

    def failing(form, lb, ub, c, basis, max_iter):
        m, ncols = form.A_std.shape
        if not np.array_equal(basis, np.arange(ncols - m, ncols)):  # the cold start's own
            raise simplex.SolverNumericalError("warm start failed")
        return real(form, lb, ub, c, basis, max_iter)
    hours = (0, 7, 17)
    cold = [solve_dcopf(bundled_net, bundled_demand, "summer", h) for h in hours]
    monkeypatch.setattr(simplex, "_warm_solve", failing)
    day = SeasonDispatch(bundled_net, bundled_demand, "summer", hours)
    for h, alone in zip(hours, cold):
        for name in OPF_FIELDS + ["basis"]:
            assert np.array_equal(getattr(day.base(h), name), getattr(alone, name)), name


def test_shared_base_is_frozen_and_its_basis_read_only(bundled_net, bundled_demand):
    """Every caller of SeasonDispatch.base gets the same solution: none can
    reassign its fields or write its basis, and that basis still warm-starts
    a re-solve."""
    day = SeasonDispatch(bundled_net, bundled_demand, "summer", (16, 17))
    base = day.base(17)
    with pytest.raises(FrozenInstanceError):
        base.shed_cost = 1e9
    assert day.base(17).shed_cost == base.shed_cost != 1e9
    assert not base.basis.flags.writeable
    lp = build_dcopf(bundled_net, bundled_demand, "summer", 17)
    assert not simplex.solve_lp(lp).basis.flags.writeable
    assert not simplex.optimize_lp(lp).basis.flags.writeable
    zg = np.zeros(bundled_net.num_generators)
    zg[0] = 0.5 * bundled_net.arrays.g_span[0]
    warm = solve_dcopf(bundled_net, bundled_demand, "summer", 17, zg, basis=base.basis,
                       form=day.form)
    cold = solve_dcopf(bundled_net, bundled_demand, "summer", 17, zg)
    assert warm.objective == pytest.approx(cold.objective, rel=1e-12)


def test_hours_solved_on_first_use_are_cold(bundled_net, bundled_demand, monkeypatch):
    """Only the up-front hours are chained: an hour asked for later is
    solved without a basis, so it does not depend on which hours came
    before it."""
    day = SeasonDispatch(bundled_net, bundled_demand, "summer", (16,))
    given = []
    real = dcopf_mod.solve_dcopf

    def recording(*args, basis=None, **kwargs):
        given.append(basis)
        return real(*args, basis=basis, **kwargs)
    monkeypatch.setattr(dcopf_mod, "solve_dcopf", recording)
    lazy = day.base(17)
    assert given == [None]
    alone = real(bundled_net, bundled_demand, "summer", 17)
    for name in OPF_FIELDS + ["basis"]:
        assert np.array_equal(getattr(lazy, name), getattr(alone, name)), name
    assert day.base(17) is lazy  # solved once


def test_up_front_hours_start_from_the_hour_before(bundled_net, bundled_demand, monkeypatch):
    given = []
    real = dcopf_mod.solve_dcopf

    def recording(*args, basis=None, **kwargs):
        given.append(basis)
        return real(*args, basis=basis, **kwargs)
    monkeypatch.setattr(dcopf_mod, "solve_dcopf", recording)
    hours = (5, 6, 6, 9)  # in the given order; a repeated hour is solved once
    day = SeasonDispatch(bundled_net, bundled_demand, "summer", hours)
    assert len(given) == 3 and given[0] is None
    assert given[1] is day.base(5).basis and given[2] is day.base(6).basis
