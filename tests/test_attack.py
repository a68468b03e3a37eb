import copy
import hashlib
import itertools
import weakref
from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest

import gridshock.attack as attack_mod
from gridshock.attack import (
    AttackCosts,
    AttackPlan,
    build_hourly_attack_milp,
    default_bigm,
    default_costs,
    greedy_attack,
    run_attack,
    solve_full_milp,
    solve_hourly_attack,
)
import gridshock.dcopf as dcopf_mod
from gridshock.dcopf import OPF_BLOCKS, OpfLayout, OpfSolution, SeasonDispatch, solve_dcopf
from gridshock.reporting import attack_rows
from gridshock.kkt import PAIR_DUALS, complementarity_pairs, kkt_residuals, verify_equilibrium
from gridshock.network import apply_heatwave
from gridshock.cli import bundled_path
from support import (chained_day, entity_limits, profile_for, tight_two_bus, triangle, two_bus,
                     with_blocks)


def uniform_costs(net, budget, gen=1.0, wire=1000.0):
    return AttackCosts(np.full(net.num_generators, gen),
                       np.full(net.num_edges, wire),
                       np.full(net.num_edges, wire * 600.0), budget)


def grid_oracle_two_bus(net, prof, budget, step=1.0):
    """Best shed over a 1 MW grid of generation-kill splits."""
    best = 0.0
    n = int(budget / step)
    for a in range(n + 1):
        zg = np.array([a * step, budget - a * step])
        sol = solve_dcopf(net, prof, "summer", 0, zg)
        best = max(best, sol.shed_cost)
    return best


def test_costs_validation():
    one = np.array([1.0])
    with pytest.raises(ValueError):
        AttackCosts(np.array([0.0]), one, one, 1.0)
    for value in (np.nan, np.inf):
        with pytest.raises(ValueError, match="cg"):
            AttackCosts(np.array([value]), one, one, 1.0)
        with pytest.raises(ValueError, match="cf"):
            AttackCosts(one, np.array([1.0, value]), one, 1.0)
        with pytest.raises(ValueError, match="ct"):
            AttackCosts(one, one, np.array([value]), 1.0)
    for budget in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="budget"):
            AttackCosts(one, one, one, budget)
    for factor in (0.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="heatwave_factor"):
            apply_heatwave(profile_for(tight_two_bus(), [[10.0, 60.0]]), factor)


def test_structural_binary_count():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    prob = build_hourly_attack_milp(net, prof, "summer", 0, costs, 30.0)
    G, E, N = net.num_generators, net.num_edges, net.num_nodes
    assert len(prob.binary_indices) == 2 * G + 4 * E + 2 * N


def test_zero_budget_milp_pins_attack_to_zero():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, 0.0)
    prob = build_hourly_attack_milp(net, prof, "summer", 0, costs, 0.0)
    z_cols = [j for j, lab in enumerate(prob.lp.col_labels)
              if lab.startswith(("zg", "zf", "zt"))]
    assert np.all(prob.lp.ub[z_cols] == 0.0)


def test_zero_budget_equals_plain_dispatch():
    net = two_bus(with_g2=False)
    prof = profile_for(net, [[0.0, 80.0]])
    costs = uniform_costs(net, 0.0)
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 0.0)
    plain = solve_dcopf(net, prof, "summer", 0)
    assert ha.objective == pytest.approx(plain.shed_cost, rel=1e-9)
    assert ha.spend == 0.0
    assert ha.certificate_ok and ha.bigm_valid
    # the flags are measured, not defaulted: the dispatch's shed price 1000
    # is above a big M of 10
    tiny = solve_hourly_attack(net, prof, "summer", 0, costs, 0.0, bigm=10.0)
    assert tiny.certificate_ok and not tiny.bigm_valid


def test_tight_two_bus_milp_matches_grid_oracle():
    # both capacity limits bind at baseline, so a 30 MW kill sheds 30 MW
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 30.0, node_limit=200_000)
    oracle = grid_oracle_two_bus(net, prof, 30.0)
    assert ha.status == "optimal"
    assert ha.objective == pytest.approx(30_000.0, rel=1e-9)
    assert ha.objective >= oracle - 1e-6
    assert ha.objective <= oracle + 2 * 1000.0  # grid quantization bound
    assert ha.certificate_ok and ha.bigm_valid
    assert ha.spend <= 30.0 + 1e-9


def test_embedded_equilibrium_certificate():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 30.0, node_limit=200_000)
    res = kkt_residuals(net, ha.opf, ha.zg, ha.zf, ha.zt)
    assert verify_equilibrium(res, 1e-5)


def test_triangle_prefers_wires_when_cheap():
    net = triangle()
    prof = profile_for(net, [[20.0, 60.0, 100.0]])
    # defended g1/g2/e12; vulnerable g3; wires at the swept price
    def costs_at(ratio, budget):
        return AttackCosts(np.array([50.0, 50.0, 1.0]),
                           np.array([50.0, ratio, ratio]),
                           np.array([50.0, ratio, ratio]) * 600.0, budget)

    dear = solve_hourly_attack(net, prof, "summer", 0, costs_at(5.0, 200.0),
                               200.0, node_limit=500_000)
    cheap = solve_hourly_attack(net, prof, "summer", 0, costs_at(0.8, 150.0),
                                150.0, node_limit=500_000)
    assert dear.status == "optimal" and cheap.status == "optimal"
    # cheap wires shift the strategy toward edge cuts
    assert cheap.zf.sum() > dear.zf.sum()
    assert dear.zg.sum() >= cheap.zg.sum() - 1e-6


def test_full_milp_concentrates_budget_on_peak_hour():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 40.0], [10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    plan = solve_full_milp(net, prof, "summer", costs, node_limit=500_000)
    spends = [h.spend for h in plan.hours]
    assert spends[1] == pytest.approx(30.0, abs=1e-6)
    assert spends[0] == pytest.approx(0.0, abs=1e-6)
    assert plan.objective == pytest.approx(30_000.0, rel=1e-6)


def test_full_milp_zero_budget_is_baseline():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 40.0], [10.0, 80.0]])
    costs = uniform_costs(net, 0.0)
    plan = solve_full_milp(net, prof, "summer", costs, node_limit=100_000)
    base = sum(solve_dcopf(net, prof, "summer", h).shed_cost for h in range(2))
    assert plan.objective == pytest.approx(base, abs=1e-6)


def test_full_milp_uniform_hours_doubles_single_hour():
    net = tight_two_bus()
    prof1 = profile_for(net, [[10.0, 80.0]])
    prof2 = profile_for(net, [[10.0, 80.0], [10.0, 80.0]])
    costs = uniform_costs(net, 60.0)
    single = solve_hourly_attack(net, prof1, "summer", 0, costs, 30.0,
                                 node_limit=200_000)
    both = solve_full_milp(net, prof2, "summer", costs, node_limit=500_000)
    assert both.objective == pytest.approx(2 * single.objective, rel=1e-6)


def even_split(net, prof, costs, budget, node_limit):
    """Every hour solved at budget / H: a start for the budget split."""
    H = prof.hours("summer")
    return AttackPlan("summer", [solve_hourly_attack(net, prof, "summer", h, costs, budget / H,
                                                     node_limit=node_limit)
                                 for h in range(H)], budget)


def test_refinement_matches_full_milp():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 40.0], [10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    full = solve_full_milp(net, prof, "summer", costs, node_limit=500_000)
    dec = even_split(net, prof, costs, 30.0, node_limit=200_000)
    ref = run_attack(chained_day(net, prof), costs, node_limit=200_000)
    assert ref.objective >= dec.objective - 1e-9  # the grid holds the even split
    assert abs(full.objective - ref.objective) <= 1e-4 * max(1.0, full.objective)


def test_refinement_identical_hours_keeps_split():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0], [10.0, 80.0]])
    costs = uniform_costs(net, 60.0)
    dec = even_split(net, prof, costs, 60.0, node_limit=200_000)
    ref = run_attack(chained_day(net, prof), costs, node_limit=200_000)
    assert ref.objective == pytest.approx(dec.objective, rel=1e-9)


def test_budget_monotonicity_geometric_ladder():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    values = []
    for budget in (5.0, 10.0, 20.0, 40.0, 80.0):
        costs = uniform_costs(net, budget)
        ha = solve_hourly_attack(net, prof, "summer", 0, costs, budget,
                                 node_limit=100_000)
        values.append(ha.objective)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_heatwave_never_reduces_disruption():
    from gridshock.network import apply_heatwave
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    hot = apply_heatwave(prof, 1.09)
    costs = uniform_costs(net, 30.0)
    base = solve_hourly_attack(net, prof, "summer", 0, costs, 30.0, node_limit=100_000)
    comp = solve_hourly_attack(net, hot, "summer", 0, costs, 30.0, node_limit=100_000)
    assert comp.objective >= base.objective - 1e-9


def test_certificate_only_mode_matches_greedy():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    zg, zf, zt, sol = greedy_attack(chained_day(net, prof), 0, costs, 30.0)
    fast = solve_hourly_attack(net, prof, "summer", 0, costs, 30.0, node_limit=0)
    assert fast.status == "heuristic"
    assert fast.objective == pytest.approx(sol.shed_cost, rel=1e-12)
    assert fast.certificate_ok and fast.bigm_valid


def test_bigm_grows_until_valid():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    tiny = 10.0  # far below the dual magnitudes
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 30.0, bigm=tiny,
                             node_limit=200_000)
    assert ha.bigm_valid
    assert ha.objective == pytest.approx(30_000.0, rel=1e-6)


def test_attack_rows_breakdown(bundled_net, bundled_demand):
    costs = default_costs(bundled_net, 300.0, 5.0)
    plan = run_attack(chained_day(bundled_net, bundled_demand), costs, node_limit=0)
    rows = attack_rows({(p.season, p.hour): {"zg": p.zg, "zf": p.zf, "zt": p.zt}
                        for p in plan.hours}, bundled_net, costs)
    assert rows, "default budget should buy a nonempty strategy"
    kinds = {r[2] for r in rows}
    assert kinds <= {"gen", "flow", "angle"}
    for _, _, _, _, z, spend in rows:
        assert z > 0 and spend > 0


def test_bundled_compound_day_is_the_best_grid_split(bundled_net, bundled_demand):
    """The shipped Compound day against every split of its budget on the grid.

    Each of the 24 hours is solved at k * 75, k = 1..4, and every way to put
    at most 4 steps on the hours is summed.  Nothing screens the hours here,
    so this checks the screen as well as the knapsack."""
    heated = apply_heatwave(bundled_demand, 1.09)
    costs = default_costs(bundled_net, 300.0, 5.0)
    hours, steps = range(24), attack_mod.BUDGET_STEPS
    assert steps == 4
    dispatch = SeasonDispatch(bundled_net, heated, "summer", hours)
    value = np.array([[dispatch.base(h).shed_cost]
                      + [solve_hourly_attack(bundled_net, heated, "summer", h, costs,
                                             k * 300.0 / steps, node_limit=0,
                                             dispatch=dispatch).objective
                         for k in range(1, steps + 1)] for h in hours])
    gain = value - value[:, :1]
    # a split is a multiset of steps over the hours; hour 24 is a step unspent
    splits = list(itertools.combinations_with_replacement(range(25), steps))
    assert len(splits) == 20_475
    best = value[:, 0].sum() + max(sum(gain[h, k] for h, k in Counter(s).items() if h < 24)
                                   for s in splits)
    plan = run_attack(chained_day(bundled_net, heated), costs, node_limit=0)
    assert plan.objective == pytest.approx(best, rel=1e-9)
    assert plan.objective == pytest.approx(287_497.6, rel=1e-9)


def test_refinement_crosses_activation_thresholds():
    # both hours are worthless at the even split (8 < the 10 MW margin) but
    # the whole budget in one hour sheds; the split must find it rather than
    # stall at zero
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 70.0], [10.0, 70.0]])
    costs = uniform_costs(net, 16.0)
    dec = even_split(net, prof, costs, 16.0, node_limit=0)
    assert dec.objective == pytest.approx(0.0, abs=1e-9)
    ref = run_attack(chained_day(net, prof), costs, node_limit=0)
    assert ref.objective == pytest.approx(6.0 * 1000.0, rel=1e-9)
    spends = sorted(h.spend for h in ref.hours)
    assert spends[0] == pytest.approx(0.0, abs=1e-9)
    assert spends[1] == pytest.approx(16.0, abs=1e-9)


def test_bigm_test_applies_to_reported_point(monkeypatch):
    # an optimal MILP point whose multiplier sits at M fails the max-norm
    # test, but the dispatch LP at the same attack passes it; that point is
    # reported instead of growing M until BigMInvalidError
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, 30.0)
    exact = solve_hourly_attack(net, prof, "summer", 0, costs, 30.0, node_limit=200_000)
    real_solve = attack_mod.solve_milp
    col = attack_mod._Layout(net, OpfLayout.of(net), 1).offsets[0]["rho_g_lo"]

    def multiplier_at_bigm(problem, **kwargs):
        res = real_solve(problem, **kwargs)
        res.x[col] = problem.lp.ub[col]  # the current M
        return res

    monkeypatch.setattr(attack_mod, "solve_milp", multiplier_at_bigm)
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 30.0, node_limit=200_000)
    assert ha.objective == pytest.approx(exact.objective, rel=1e-12)
    assert ha.bigm_valid and ha.certificate_ok
    assert ha.status == "optimal"


def test_full_milp_refuses_bundled_day_before_building(bundled_net, bundled_demand,
                                                       monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the size guard must run first")

    monkeypatch.setattr(attack_mod, "_build_attack_milp", never)
    monkeypatch.setattr(attack_mod, "greedy_attack", never)
    costs = default_costs(bundled_net, 300.0)
    with pytest.raises(ValueError, match="oracle for small instances"):
        solve_full_milp(bundled_net, bundled_demand, "summer", costs)


def _milp_digest(prob) -> str:
    """blake2b of the raw arrays (so -0.0 differs from 0.0), labels and binaries."""
    lp = prob.lp
    h = hashlib.blake2b(digest_size=16)
    for arr in (lp.c, lp.A, lp.row_lb, lp.row_ub, lp.lb, lp.ub):
        h.update(arr.tobytes())
    for labels in (lp.row_labels, lp.col_labels):
        h.update("\n".join(labels).encode())
    h.update(np.asarray(prob.binary_indices, dtype=np.int64).tobytes())
    return h.hexdigest()


def _golden_instances():
    tri = triangle()
    tri_prof = profile_for(tri, [[20.0, 60.0, 100.0]])
    tri_costs = AttackCosts(np.array([50.0, 50.0, 1.0]), np.array([50.0, 0.8, 0.8]),
                            np.array([50.0, 0.8, 0.8]) * 600.0, 150.0)
    tight = tight_two_bus()
    tight_prof = profile_for(tight, [[10.0, 80.0]])
    yield ("tight_two_bus", tight, tight_prof, [0], uniform_costs(tight, 30.0), 30.0,
           "76ca81d4e9accab5481d590aa1d7326b")
    yield ("triangle", tri, tri_prof, [0], tri_costs, 150.0,
           "71ff3d13420a0a31ba518005b614be62")
    # e12's angle pair is presolved away, e13's and e23's stay
    live_costs = AttackCosts(tri_costs.cg, tri_costs.cf, np.array([30000.0, 0.8, 0.8]),
                             150.0)
    yield ("triangle_live_angles", tri, tri_prof, [0], live_costs, 150.0,
           "d8e01b34046e6261f1e2f1d2579af2b1")
    two_hours = profile_for(tri, [[20.0, 60.0, 100.0], [30.0, 50.0, 90.0]])
    yield ("triangle_joint", tri, two_hours, [0, 1], tri_costs, 150.0,
           "e36f495ab1751457e014d4145b12e4ec")


def test_attack_milp_build_is_unchanged(bundled_net, bundled_demand):
    """Digests of the MILP as the row-at-a-time builder assembled it."""
    cases = list(_golden_instances())
    heated = apply_heatwave(bundled_demand, 1.09)
    cases.append(("bundled_h17", bundled_net, heated, [17], default_costs(bundled_net, 300.0),
                  300.0, "69b6a0ea1539caa269b4623b3c1a9fe9"))
    for name, net, prof, hours, costs, budget, expected in cases:
        prob, _ = attack_mod._build_attack_milp(net, prof, "summer", hours, costs, budget,
                                                default_bigm(net, prof), OpfLayout.of(net))
        assert _milp_digest(prob) == expected, name


def _threshold_instance():
    # the threshold instance above plus a third hour: only hour 2 sheds at
    # 4 of the 16, and all three shed at the whole budget
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 70.0], [10.0, 70.0], [10.0, 78.0]])
    return net, prof, uniform_costs(net, 16.0)


def test_run_attack_solves_each_unattacked_hour_once(monkeypatch):
    net, prof, costs = _threshold_instance()
    real = dcopf_mod.solve_dcopf
    unattacked = Counter()

    def counting(net, demand, season, hour, zg=None, zf=None, zt=None, **kwargs):
        if zg is None and zf is None and zt is None:
            unattacked[hour] += 1
        return real(net, demand, season, hour, zg, zf, zt, **kwargs)

    monkeypatch.setattr(dcopf_mod, "solve_dcopf", counting)
    monkeypatch.setattr(attack_mod, "solve_dcopf", counting)
    plan = run_attack(chained_day(net, prof), costs, node_limit=0)
    # the split puts the whole budget on hour 2: a 16 MW kill against its
    # 2 MW margin sheds 14 MW
    assert [h.spend for h in plan.hours] == pytest.approx([0.0, 0.0, 16.0], abs=1e-9)
    assert plan.objective == pytest.approx(14_000.0, rel=1e-9)
    assert unattacked == Counter({0: 1, 1: 1, 2: 1})


def test_unspent_hours_share_read_only_zero_attacks():
    net, prof, costs = _threshold_instance()
    plan = run_attack(chained_day(net, prof), costs, node_limit=0)
    zero, other, spent = plan.hours
    assert zero.spend == other.spend == 0.0 and spent.spend > 0
    for name in ("zg", "zf", "zt"):
        assert getattr(zero, name) is getattr(other, name)
        assert not getattr(zero, name).any()
    with pytest.raises(ValueError, match="read-only"):
        zero.zg[0] = 1.0
    spent.zg[0] = spent.zg[0]  # a spending hour owns its arrays


def _record_vertices(monkeypatch) -> list:
    """(status, x, basis, iterations) of every LP optimize_lp solves, in order."""
    from gridshock import simplex
    seen = []
    real = simplex.optimize_lp

    def recording(*args, **kwargs):
        v = real(*args, **kwargs)
        seen.append((v.status, None if v.x is None else v.x.tobytes(),
                     None if v.basis is None else v.basis.tobytes(), v.iterations))
        return v
    monkeypatch.setattr(simplex, "optimize_lp", recording)
    monkeypatch.setattr(dcopf_mod, "optimize_lp", recording)
    return seen


def test_store_of_inverses_changes_no_answer(bundled_net, bundled_demand, monkeypatch):
    """The greedy hour 17 at budget 300 and the 12-node hour-17 tree solve
    every LP alike, bit for bit, when the forms' stores keep no inverse."""
    from gridshock import scenarios, simplex
    cfg = scenarios.load_config(bundled_path("compound.cfg"))
    heated = apply_heatwave(bundled_demand, cfg.heatwave_factor)
    costs = scenarios.scenario_costs(cfg, bundled_net)

    seen = _record_vertices(monkeypatch)

    def run():
        seen.clear()
        greedy = solve_hourly_attack(bundled_net, heated, "summer", 17, costs, 300.0,
                                     node_limit=0)
        tree = solve_hourly_attack(bundled_net, heated, "summer", 17, costs, 300.0,
                                   node_limit=12)
        return list(seen), [_hour_fingerprint(h) + (h.opf.g.tobytes(), h.opf.pi_d.tobytes())
                            for h in (greedy, tree)]
    stored, stored_hours = run()
    monkeypatch.setattr(simplex, "_STORE_BYTES", 0)
    monkeypatch.setattr(simplex, "_STORE_MIN", 0)
    fresh, fresh_hours = run()
    assert len(stored) > 13  # the greedy's dispatches and every node LP of the tree
    assert stored == fresh
    assert stored_hours == fresh_hours
    assert stored_hours[1][5:7] == ("feasible-limit", 13)  # status and node count


def _hour_fingerprint(ha):
    return (ha.zg.tolist(), ha.zf.tolist(), ha.zt.tolist(), ha.spend, ha.objective,
            ha.status, ha.nodes, ha.bigm_valid, ha.certificate_ok, ha.opf.u.tolist())


@pytest.mark.parametrize("budget, node_limit", [(0.0, 0), (30.0, 0), (30.0, 2000)])
def test_shared_base_gives_the_same_hour(budget, node_limit):
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    costs = uniform_costs(net, budget)
    dispatch = SeasonDispatch(net, prof, "summer")
    base = dispatch.base(0)
    alone = solve_hourly_attack(net, prof, "summer", 0, costs, budget, node_limit=node_limit)
    shared = solve_hourly_attack(net, prof, "summer", 0, costs, budget,
                                 node_limit=node_limit, dispatch=dispatch)
    assert _hour_fingerprint(shared) == _hour_fingerprint(alone)
    if budget > 0:
        assert alone.objective > base.shed_cost


def test_shared_bases_are_not_modified():
    net, prof, costs = _threshold_instance()
    again = run_attack(chained_day(net, prof), costs, node_limit=0)
    dispatch = SeasonDispatch(net, prof, "summer")
    bases = [dispatch.base(h) for h in range(3)]
    before = copy.deepcopy(bases)
    # run_attack's every solve shares these bases
    ref = run_attack(dispatch, costs, node_limit=0)
    assert ([_hour_fingerprint(h) for h in ref.hours]
            == [_hour_fingerprint(h) for h in again.hours])
    for old, new in zip(before, bases):
        for fld in fields(OpfSolution):
            a, b = getattr(old, fld.name), getattr(new, fld.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), fld.name
            else:
                assert a == b, fld.name


def test_run_dispatch_dies_with_the_run():
    """The run's SeasonDispatch (dispatch form, unattacked hours) is freed when
    its caller drops it: the plan run_attack returns does not reach it."""
    net, prof, costs = _threshold_instance()
    dispatch = chained_day(net, prof)
    made = weakref.ref(dispatch)
    plan = run_attack(dispatch, costs, node_limit=0)
    del dispatch
    assert plan.objective == pytest.approx(14_000.0, rel=1e-9)
    assert made() is None


def test_dispatch_of_another_demand_is_rejected():
    net, prof, costs = _threshold_instance()
    other = profile_for(net, [[10.0, 70.0], [10.0, 70.0], [10.0, 78.0]])
    with pytest.raises(ValueError, match="another network, demand or season"):
        solve_hourly_attack(net, prof, "summer", 2, costs, 16.0, node_limit=0,
                            dispatch=SeasonDispatch(net, other, "summer"))


# -- reference copies of the greedy's zone packages and the max-norm test as
# they were before the network's index and arrays were cached
def _reference_zone_packages(net, demand, season, hour, costs, budget):
    G, E = net.num_generators, net.num_edges
    lim = entity_limits(net)
    g_lo, g_up, f_cap = lim["g_lo"], lim["g_up"], lim["f_cap"]
    d = demand.demand[season][hour]
    idx = net.node_index()
    ranked = []
    for n, node in enumerate(net.nodes):
        if d[n] <= 0:
            continue
        items = []
        for k, gen in enumerate(net.generators):
            if idx[gen.node] == n and g_up[k] - g_lo[k] > 0:
                items.append((costs.cg[k], "g", k, g_up[k] - g_lo[k]))
        for e, edge in enumerate(net.edges):
            if n in (idx[edge.from_node], idx[edge.to_node]):
                items.append((costs.cf[e], "f", e, f_cap[e]))
        floor = sum(g_lo[k] for k, gen in enumerate(net.generators) if idx[gen.node] == n)
        supply = sum(cap for _, _, _, cap in items) + floor
        margin = supply - d[n]
        if margin >= supply:
            continue
        items.sort(key=lambda t: (t[0], t[1], t[2]))
        remaining = budget
        bought = 0.0
        zg = np.zeros(G)
        zf = np.zeros(E)
        for price, kind, i, cap in items:
            amount = min(cap, remaining / price)
            if amount <= 1e-9:
                break
            (zg if kind == "g" else zf)[i] = amount
            bought += amount
            remaining -= amount * price
        est = min(max(0.0, bought - max(margin, 0.0)), d[n])
        if est > 1e-9:
            ranked.append((est, n, zg, zf))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return [(zg, zf) for _, _, zg, zf in ranked]


def _reference_max_norm(zg, zf, zt, opf):
    arrays = [zg, zf, zt] + [getattr(opf, name) for name in OPF_BLOCKS]
    return max(float(np.max(np.abs(v), initial=0.0)) for v in arrays)


def _with_must_run(net, rng):
    """``net`` with random must-run floors, some units wholly must-run."""
    gens = tuple(replace(g, g_min=float(rng.choice([0.0, 0.4 * g.g_max, g.g_max])))
                 for g in net.generators)
    return replace(net, generators=gens)


@pytest.mark.parametrize("seed", range(4))
def test_zone_packages_and_max_norm_match_their_references(bundled_net, bundled_demand, seed):
    rng = np.random.default_rng(seed)
    heated = apply_heatwave(bundled_demand, 1.09)
    for net in (bundled_net, _with_must_run(bundled_net, rng)):
        for _ in range(6):
            hour = int(rng.integers(10, 22))  # the day's peak, where zones can shed
            budget = float(rng.choice([0.0, 12.5, 300.0, 1000.0, 5000.0]))
            costs = AttackCosts(rng.uniform(0.2, 1.5, net.num_generators),
                                rng.uniform(0.5, 3.0, net.num_edges),
                                rng.uniform(0.5, 3.0, net.num_edges), budget)
            got = attack_mod._zone_packages(net, heated, "summer", hour, costs, budget)
            want = _reference_zone_packages(net, heated, "summer", hour, costs, budget)
            assert len(got) == len(want)
            for (zg, zf), (rg, rf) in zip(got, want):
                assert np.array_equal(zg, rg) and np.array_equal(zf, rf)
    for _ in range(4):
        hour = int(rng.integers(24))
        lim = entity_limits(bundled_net)
        zs = [np.where(rng.random(r.size) < 0.3, 0.5 * rng.random(r.size) * r, 0.0)
              for r in (lim["g_span"], lim["f_cap"], lim["t_cap"])]
        opf = solve_dcopf(bundled_net, heated, "summer", hour, *zs)
        opf = with_blocks(opf, delta=float(rng.normal(0, 1e4)))
        assert attack_mod._max_norm(*zs, opf) == _reference_max_norm(*zs, opf)


# -- greedy candidates ranked on their vertex -----------------------------

def _reference_greedy(net, demand, season, hour, costs, budget, dispatch):
    """The greedy as it was when every candidate was finished by solve_dcopf;
    also returns how many candidates it adopted (package and moves)."""
    form = dispatch.form
    G, E = net.num_generators, net.num_edges
    lim = entity_limits(net)
    kill_room = lim["g_up"] - lim["g_lo"]
    f_cap = lim["f_cap"]
    zg, zf, zt = np.zeros(G), np.zeros(E), np.zeros(E)
    remaining = budget
    current = dispatch.base(hour)
    basis = current.basis
    adopted = 0
    best_pack = None
    for pzg, pzf in attack_mod._zone_packages(net, demand, season, hour, costs, budget):
        sol = solve_dcopf(net, demand, season, hour, pzg, pzf, zt, basis=basis, form=form)
        if sol.shed_cost > current.shed_cost + 1e-9 and (
                best_pack is None or sol.shed_cost > best_pack[2].shed_cost):
            best_pack = (pzg, pzf, sol)
    if best_pack is not None:
        zg, zf, current = best_pack[0].copy(), best_pack[1].copy(), best_pack[2]
        remaining = budget - costs.spend(zg, zf, zt)
        adopted += 1
    for _ in range(2 * (G + E)):
        if remaining <= 1e-9:
            break
        cands = []
        for kind, room, prices, rents in (
                (0, kill_room - zg, costs.cg, current.rho_g_up),
                (1, f_cap - zf, costs.cf, np.maximum(current.rho_f_up, current.rho_f_lo))):
            for i, price in enumerate(prices):
                amount = min(room[i], remaining / price)
                if amount > 1e-9:
                    cands.append(((rents[i] + 1e-12) / price, kind, i, amount, price))
        if not cands:
            break
        cands.sort(key=lambda t: (-t[0], t[1], t[2]))
        best_gain, best = 0.0, None
        for _, kind, idx, amount, price in cands[:attack_mod.GREEDY_SHORTLIST]:
            tg, tf = zg.copy(), zf.copy()
            (tf if kind else tg)[idx] += amount
            sol = solve_dcopf(net, demand, season, hour, tg, tf, zt, basis=basis, form=form)
            gain = sol.shed_cost - current.shed_cost
            if gain > best_gain + 1e-9:
                best_gain, best = gain, (tg, tf, sol, amount * price)
        if best is None:
            break
        zg, zf, current, cost = best
        remaining -= cost
        adopted += 1
    return zg, zf, zt, current, adopted


def _assert_bitwise_opf(a, b):
    for fld in fields(OpfSolution):
        x, y = getattr(a, fld.name), getattr(b, fld.name)
        if x is None or y is None:
            assert x is None and y is None, fld.name
            continue
        x, y = np.asarray(x), np.asarray(y)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), fld.name


GREEDY_HOURS = (13, 16, 17, 18, 19)  # heated hours where attacks shed
# (budget, wire/generator price ratio); cheap wires make the greedy adopt a
# move after its package at hours 16 and 17
GREEDY_CASES = [(3.125, 5.0), (12.5, 5.0), (287.5, 5.0), (300.0, 5.0), (287.5, 0.2),
                (300.0, 0.2)]


@pytest.fixture(scope="module")
def heated(bundled_demand):
    return apply_heatwave(bundled_demand, 1.09)


@pytest.mark.parametrize("budget, cost_ratio", GREEDY_CASES)
def test_greedy_matches_the_greedy_that_finishes_every_candidate(bundled_net, heated,
                                                                 budget, cost_ratio):
    net = bundled_net
    costs = default_costs(net, budget, cost_ratio)
    dispatch = SeasonDispatch(net, heated, "summer", GREEDY_HOURS)
    for hour in GREEDY_HOURS:
        got = greedy_attack(dispatch, hour, costs, budget)
        want = _reference_greedy(net, heated, "summer", hour, costs, budget, dispatch)
        for z, rz in zip(got[:3], want[:3]):
            assert (z.dtype, z.tobytes()) == (rz.dtype, rz.tobytes())
        _assert_bitwise_opf(got[3], want[3])


@pytest.mark.parametrize("budget, cost_ratio", GREEDY_CASES)
def test_greedy_finishes_only_what_it_adopts(bundled_net, heated, budget, cost_ratio,
                                            monkeypatch):
    """One finished dispatch per adopted package or move; every other
    candidate is ranked on its vertex alone, and no vertex outlives the
    greedy call that made it."""
    net = bundled_net
    costs = default_costs(net, budget, cost_ratio)
    dispatch = SeasonDispatch(net, heated, "summer", GREEDY_HOURS)
    adopted = {hour: _reference_greedy(net, heated, "summer", hour, costs, budget,
                                       dispatch)[4] for hour in GREEDY_HOURS}
    if cost_ratio < 1.0:
        assert max(adopted.values()) == 2  # a package and a move
    real = dcopf_mod.extract_solution
    finished = Counter()

    def counting(form, demand, season, hour, lp_sol):
        finished[hour] += 1
        return real(form, demand, season, hour, lp_sol)
    monkeypatch.setattr(dcopf_mod, "extract_solution", counting)
    vertices = []

    def tracked(*args, **kwargs):
        vertex = real_vertex(*args, **kwargs)
        vertices.append(weakref.ref(vertex))
        return vertex
    real_vertex = attack_mod.dispatch_vertex
    monkeypatch.setattr(attack_mod, "dispatch_vertex", tracked)
    for hour in GREEDY_HOURS:
        greedy_attack(dispatch, hour, costs, budget)
        assert finished[hour] == adopted[hour], hour
    assert vertices and all(ref() is None for ref in vertices)


def test_greedy_skips_an_infeasible_candidate():
    """A must-run unit exporting at the line limit: the line cut the greedy
    evaluates leaves it more output than the node can take or send, so that
    candidate has no dispatch.  The greedy skips it, as the attack MILP
    admits no attack without a lower-level dispatch, and adopts the
    generator cut that sheds."""
    net = two_bus(fbar=50.0)
    gens = (net.generators[0], replace(net.generators[1], g_min=60.0))
    net = replace(net, generators=gens)
    prof = profile_for(net, [[195.0, 10.0]])
    costs = uniform_costs(net, 10.0, wire=1.0)
    assert solve_dcopf(net, prof, "summer", 0).f[0] == pytest.approx(-50.0)  # n2 to n1
    with pytest.raises(dcopf_mod.OpfInfeasibleError, match="summer/0"):
        solve_dcopf(net, prof, "summer", 0, zf=np.array([10.0]))
    zg, zf, zt, sol = greedy_attack(chained_day(net, prof), 0, costs, 10.0)
    assert not zf.any() and not zt.any()
    assert zg.tolist() == [10.0, 0.0]
    assert sol.shed_cost == pytest.approx(5_000.0, rel=1e-9)  # 5 MW of g1's 145 lost
    assert verify_equilibrium(kkt_residuals(net, sol, zg, zf, zt), 1e-5)
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 10.0, node_limit=0)
    assert ha.objective == sol.shed_cost
    assert ha.certificate_ok and ha.bigm_valid


def test_greedy_ranks_every_zone_package(bundled_net, bundled_demand):
    """Unheated hour 17 with cheap wires at budget 450: the package that wins
    had the fourth largest estimate, so ranking only the top three packages
    left 2,184,000."""
    costs = default_costs(bundled_net, 450.0, 0.2)
    ha = solve_hourly_attack(bundled_net, bundled_demand, "summer", 17, costs, 450.0,
                             node_limit=0, dispatch=chained_day(bundled_net, bundled_demand))
    assert ha.objective == pytest.approx(3_536_000.0, rel=1e-9)
    assert ha.certificate_ok and ha.bigm_valid
    assert ha.spend <= 450.0 + 1e-9


# -- the equilibrium point in the attack MILP's columns ---------------------

def test_milp_columns_hold_the_point_in_opf_blocks_order(bundled_net):
    """Each hour's columns: the attack, then the point's blocks as
    OPF_BLOCKS orders and sizes them, then the indicators; the sizes are
    those of the MILP's hand-written column table."""
    net = bundled_net
    G, E, N = net.num_generators, net.num_edges, net.num_nodes
    opf = OpfLayout.of(net)
    lay = attack_mod._Layout(net, opf, 2)
    for hp in range(2):
        names = list(lay.offsets[hp])
        assert names[3:3 + len(OPF_BLOCKS)] == list(OPF_BLOCKS)
        assert [lay.block_size[n] for n in names] == (
            [G, E, E, G, E, N, N, N, E, 1] + [G, G, E, E, E, E, N, N] * 2)
        start = lay.point(hp).start
        assert start == lay.sl(hp, "zt").stop and lay.point(hp).stop == lay.sl(hp, "rho_u_up").stop
        for name, blk in opf.blocks.items():
            assert lay.sl(hp, name) == slice(start + blk.start, start + blk.stop), name


def test_milp_point_of_a_dispatch_extracts_back_to_it(bundled_net, bundled_demand):
    """The MILP vector that _milp_point_from_dispatch writes, read back by
    _extract_hour, is the dispatch: its attack and point, except that the
    multipliers of pairs whose slack is not zero read zero."""
    net, heated = bundled_net, apply_heatwave(bundled_demand, 1.09)
    dispatch = SeasonDispatch(net, heated, "summer")
    zg, zf, zt, sol = greedy_attack(dispatch, 17, default_costs(net, 300.0), 300.0)
    assert zg.any() or zf.any()
    lay = attack_mod._Layout(net, dispatch.form.layout, 2)
    x = np.zeros(lay.n_cols)
    attack_mod._milp_point_from_dispatch(net, lay, 1, zg, zf, zt, sol, x)
    assert not x[:lay.offsets[1]["zg"]].any()  # hour 0's columns are left alone
    *zs, back = attack_mod._extract_hour(net, heated, "summer", 17, x, lay, 1)
    for got, want in zip(zs, (zg, zf, zt)):
        assert np.array_equal(got, want)
    assert back.layout is dispatch.form.layout and not back.point.flags.writeable
    assert back.shed_cost == sol.shed_cost
    slacks, _ = complementarity_pairs(net, sol, zg, zf, zt)
    zeroed = 0
    for pair, name in PAIR_DUALS.items():
        active = slacks[pair] <= 1e-7 * (1.0 + np.abs(slacks[pair]))
        assert np.array_equal(getattr(back, name), np.where(active, getattr(sol, name), 0.0))
        assert np.array_equal(x[lay.sl(1, "gam_" + pair)], active.astype(float)), pair
        zeroed += int(np.count_nonzero(getattr(sol, name)[~active]))
    for name in set(OPF_BLOCKS) - set(PAIR_DUALS.values()):
        assert np.array_equal(getattr(back, name), getattr(sol, name)), name
    assert zeroed == np.count_nonzero(sol.point != back.point)
