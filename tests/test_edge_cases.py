"""Degenerate shapes and multi-season handling."""

import numpy as np
import pytest

from gridshock.attack import AttackCosts, solve_hourly_attack
from gridshock.dcopf import solve_dcopf
from gridshock.kkt import kkt_residuals, verify_equilibrium
from gridshock.network import DemandProfile, load_demand, save_demand
from gridshock.scenarios import ScenarioConfig, run_scenario
from support import one_bus, profile_for, two_bus


def test_single_node_attack_path():
    # no edges at all: the only lever is local generation capacity
    net = one_bus(g_max=120.0, cost=20.0)
    prof = profile_for(net, [[100.0]])
    costs = AttackCosts(np.array([1.0]), np.ones(0), np.ones(0), 50.0)
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 50.0,
                             node_limit=50_000)
    # killing 50 MW leaves 70 of capacity against 100 of demand
    assert ha.objective == pytest.approx(30.0 * 1000.0, rel=1e-6)
    assert ha.certificate_ok and ha.bigm_valid
    assert verify_equilibrium(kkt_residuals(net, ha.opf, ha.zg, ha.zf, ha.zt), 1e-5)


def test_single_node_scenario():
    net = one_bus(g_max=120.0, cost=20.0)
    prof = profile_for(net, [[100.0], [110.0]])
    res = run_scenario(ScenarioConfig(kind="Cyberattack", budget=40.0,
                                      node_limit=0), net, prof)
    assert res.unserved.shape == (2, 1)
    assert res.total_unserved_mwh > 0


def test_two_season_profile(tmp_path):
    net = two_bus()
    d = {
        "summer": np.array([[0.0, 80.0], [0.0, 60.0]]),
        "winter": np.array([[0.0, 40.0]]),
    }
    v = {s: np.full_like(arr, 1000.0) for s, arr in d.items()}
    prof = DemandProfile(tuple(n.id for n in net.nodes), d, v)
    assert prof.seasons == ["summer", "winter"]
    assert prof.hours("winter") == 1

    path = tmp_path / "two_seasons.csv"
    save_demand(prof, path)
    again = load_demand(path, net)
    for s in prof.seasons:
        np.testing.assert_array_equal(again.demand[s], prof.demand[s])

    wsol = solve_dcopf(net, prof, "winter", 0)
    assert wsol.u.sum() == pytest.approx(0.0, abs=1e-9)
    res = run_scenario(ScenarioConfig(kind="Baseline", season="winter"), net, prof)
    assert res.unserved.shape == (1, 2)


def test_scenario_unknown_season_fails():
    net = two_bus()
    prof = profile_for(net, [[0.0, 80.0]])
    from gridshock.scenarios import ScenarioError
    with pytest.raises(ScenarioError, match="autumn"):
        run_scenario(ScenarioConfig(kind="Baseline", season="autumn"), net, prof)


def test_attack_with_min_generation_floor():
    # nonzero g_min: the lower generation bound pair stays honest
    from gridshock.network import PowerNetwork, Node, Edge, Generator, validate_network
    net = validate_network(PowerNetwork(
        "floor", (Node("n1", "n1", 0.5), Node("n2", "n2", 0.5)),
        (Edge("e1", "n1", "n2", 8.0, 50.0, 1.0),),
        (Generator("g1", "n1", "must_run", 20.0, 60.0, 20.0),
         Generator("g2", "n2", "dear", 0.0, 30.0, 90.0)),
        "n1", 1_000_000))
    prof = profile_for(net, [[10.0, 80.0]])
    sol = solve_dcopf(net, prof, "summer", 0)
    assert sol.g[0] >= 20.0 - 1e-9
    assert verify_equilibrium(kkt_residuals(net, sol), 1e-5)
    costs = AttackCosts(np.full(2, 1.0), np.full(1, 1000.0),
                        np.full(1, 600000.0), 20.0)
    ha = solve_hourly_attack(net, prof, "summer", 0, costs, 20.0,
                             node_limit=100_000)
    assert ha.status == "optimal"
    assert ha.zg[0] <= 40.0 + 1e-9  # attack cannot push capacity below the floor

    # budget far above the killable span: the greedy must stop at the floor
    rich = AttackCosts(np.full(2, 1.0), np.full(1, 1000.0),
                       np.full(1, 600000.0), 120.0)
    ha2 = solve_hourly_attack(net, prof, "summer", 0, rich, 120.0, node_limit=0)
    assert ha2.zg[0] <= 40.0 + 1e-9
    assert ha2.certificate_ok


def test_every_public_name_resolves():
    import gridshock
    assert len(set(gridshock.__all__)) == len(gridshock.__all__)
    assert [name for name in gridshock.__all__ if not hasattr(gridshock, name)] == []
