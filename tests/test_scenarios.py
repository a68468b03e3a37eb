import numpy as np
import pytest

import gridshock.scenarios as scenarios
from gridshock.scenarios import (
    GAMMA_WIRE_STEP,
    ScenarioConfig,
    beta_multiplier,
    beta_sweep,
    gamma_multiplier,
    gamma_sweep,
    load_config,
    run_scenario,
)
from support import profile_for, tight_two_bus

BUDGET = 30.0


@pytest.fixture(scope="module")
def small():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 60.0], [10.0, 80.0]])
    return net, prof


def cfg_for(kind, **kw):
    defaults = dict(kind=kind, budget=BUDGET, cost_ratio=5.0, node_limit=0)
    defaults.update(kw)
    return ScenarioConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(kind="Meteor")
    bad = [("heatwave_factor", 0.0), ("budget", -1.0)]
    bad += [(name, value) for name in ("heatwave_factor", "cost_ratio", "gen_attack_cost",
                                       "budget")
            for value in (np.nan, np.inf)]
    bad += [("cost_ratio", -np.inf), ("gen_attack_cost", 0.0), ("node_limit", -1)]
    for name, value in bad:
        with pytest.raises(ValueError, match=name):
            ScenarioConfig(**{name: value})


def test_baseline_and_heatwave_serve_everything(small):
    # profile with a 9% margin everywhere; the shared fixture is tight on
    # purpose and would legitimately shed under the heatwave
    net, _ = small
    prof = profile_for(net, [[10.0, 55.0], [10.0, 72.0]])
    for kind in ("Baseline", "Heatwave"):
        res = run_scenario(cfg_for(kind), net, prof)
        assert res.total_unserved_mwh == pytest.approx(0.0, abs=1e-7)
        assert res.customers_affected == 0
        assert res.plan is None


def test_cyberattack_zero_budget_is_baseline(small):
    net, prof = small
    base = run_scenario(cfg_for("Baseline"), net, prof)
    cyber = run_scenario(cfg_for("Cyberattack", budget=0.0), net, prof)
    np.testing.assert_allclose(cyber.unserved, base.unserved, atol=1e-7)


def test_compound_factor_one_is_cyberattack(small):
    net, prof = small
    cyber = run_scenario(cfg_for("Cyberattack"), net, prof)
    compound = run_scenario(cfg_for("Compound", heatwave_factor=1.0), net, prof)
    np.testing.assert_allclose(compound.unserved, cyber.unserved, atol=1e-6)
    assert compound.total_unserved_mwh == pytest.approx(
        cyber.total_unserved_mwh, abs=1e-6)


def test_compound_zero_budget_is_heatwave(small):
    net, prof = small
    heat = run_scenario(cfg_for("Heatwave"), net, prof)
    compound = run_scenario(cfg_for("Compound", budget=0.0), net, prof)
    np.testing.assert_allclose(compound.unserved, heat.unserved, atol=1e-7)


def test_customers_affected_arithmetic(small):
    net, prof = small
    res = run_scenario(cfg_for("Cyberattack"), net, prof)
    frac = res.total_unserved_mwh / res.demand_energy_mwh
    assert res.customers_affected == round(frac * net.total_customers)
    assert 0 <= res.customers_affected <= net.total_customers


def test_shock_percent_bounds(small):
    net, prof = small
    res = run_scenario(cfg_for("Compound"), net, prof)
    assert np.all(res.shock_percent >= 0.0)
    assert np.all(res.shock_percent <= 100.0 + 1e-9)
    assert 0.0 <= res.percent_unserved <= 100.0


def test_metrics_peak_hour(small):
    net, prof = small
    res = run_scenario(cfg_for("Cyberattack"), net, prof)
    hourly = res.unserved.sum(axis=1)
    assert res.peak_shed_mw == pytest.approx(hourly.max())
    assert hourly[res.peak_hour] == pytest.approx(res.peak_shed_mw)


def test_sweep_multiplier_formulas():
    assert gamma_multiplier(1) == pytest.approx(1.0)
    assert gamma_multiplier(6) == pytest.approx((0.5) / (1.5))
    assert beta_multiplier(1) == pytest.approx(1.0)
    assert beta_multiplier(6) == pytest.approx(2.0)


def test_gamma_sweep_shapes(small):
    net, prof = small
    pts = gamma_sweep(cfg_for("Cyberattack", gamma_iterations=4), net, prof)
    assert [p.iteration for p in pts] == [1, 2, 3, 4]
    assert pts[0].cost_ratio == pytest.approx(5.0)
    assert pts[3].cost_ratio == pytest.approx(5.0 * 0.7 / 1.3)
    assert pts[0].multiplier == pytest.approx(1.0)


def test_gamma_sweep_monotone_when_wires_dominate():
    # generators carry huge slack (attacking them is worthless), the line
    # binds: cheaper wires then weakly enlarge what the attacker can buy.
    # With attackable generation in the mix the ladder need not be
    # monotone (dearer generators shrink that channel); the bundled
    # network is tuned for it and checked in the acceptance suite.
    from gridshock.network import PowerNetwork, Node, Edge, Generator, validate_network
    net = validate_network(PowerNetwork(
        "wire", (Node("n1", "n1", 0.5), Node("n2", "n2", 0.5)),
        (Edge("e1", "n1", "n2", 8.0, 50.0, 1.0),),
        (Generator("g1", "n1", "big", 0.0, 200.0, 20.0),),
        "n1", 1_000_000))
    prof = profile_for(net, [[10.0, 45.0]])
    pts = gamma_sweep(cfg_for("Cyberattack", budget=60.0, gamma_iterations=6),
                      net, prof)
    series = [p.cyberattack.total_unserved_mwh for p in pts]
    assert all(b >= a - 1e-9 for a, b in zip(series, series[1:]))
    assert series[-1] > series[0]


def test_beta_sweep_budget_and_monotonicity(small):
    net, prof = small
    pts = beta_sweep(cfg_for("Compound", beta_iterations=4), net, prof)
    assert pts[0].budget == pytest.approx(BUDGET)
    assert pts[3].budget == pytest.approx(BUDGET * 1.6)
    for a, b in zip(pts, pts[1:]):
        assert b.cyberattack.total_unserved_mwh >= a.cyberattack.total_unserved_mwh - 1e-9
        assert b.compound.total_unserved_mwh >= a.compound.total_unserved_mwh - 1e-9


def test_config_file_roundtrip(tmp_path):
    path = tmp_path / "scenario.cfg"
    path.write_text(
        "# compound run\n"
        "kind = Compound\n"
        "budget = 300\n"
        "cost_ratio = 5.0\n"
        "heatwave_factor = 1.09\n"
        "node_limit = 0\n"
    )
    cfg = load_config(path)
    assert cfg.kind == "Compound"
    assert cfg.budget == 300.0
    cfg2 = load_config(path, budget=500.0)
    assert cfg2.budget == 500.0


def test_config_file_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("flux_capacitor = 1\n")
    with pytest.raises(ValueError, match="flux_capacitor"):
        load_config(path)


@pytest.mark.parametrize("line", ["refine = maybe", "budget = lots"])
def test_config_file_bad_value_names_file_and_line(tmp_path, line):
    path = tmp_path / "bad.cfg"
    path.write_text(f"kind = Compound\n{line}\n")
    with pytest.raises(ValueError, match=f"{path}:2"):
        load_config(path)


def test_config_file_refine_flag(tmp_path):
    # the budget split is always the knapsack over a grid of BUDGET_STEPS
    # steps: no key selects another split or another grid
    path = tmp_path / "flag.cfg"
    for key, value in (("refine", "off"), ("refine_steps", "4")):
        path.write_text(f"{key} = {value}\n")
        with pytest.raises(ValueError, match=f"unknown config key '{key}'"):
            load_config(path)


def test_fresh_beta_step_sheds_more_than_the_step_before(small):
    # step 3's own run puts all of its 42 on hour 1 and sheds 39.6 MWh, more
    # than step 2's 38.4, so the ladder reports it as it is
    net, prof = small
    pts = beta_sweep(cfg_for("Compound", beta_iterations=3), net, prof)
    fresh = run_scenario(cfg_for("Compound", budget=pts[2].budget), net, prof,
                         costs=pts[2].costs)
    assert pts[1].compound.total_unserved_mwh == pytest.approx(38.4, rel=1e-12)
    assert fresh.total_unserved_mwh == pytest.approx(39.6, rel=1e-12)
    assert [h.spend for h in fresh.plan.hours] == pytest.approx([0.0, 42.0], abs=1e-9)
    step3 = pts[2].compound
    assert step3.total_unserved_mwh == fresh.total_unserved_mwh
    assert [h.spend for h in step3.plan.hours] == [h.spend for h in fresh.plan.hours]


def _result_bytes(res):
    """A scenario result as bytes and numbers: its shed, then each hour's
    attack and dispatch."""
    from dataclasses import fields

    def value(v):
        return v.tobytes() if isinstance(v, np.ndarray) else v
    out = [res.unserved.tobytes(), res.total_unserved_mwh, res.customers_affected]
    for h in res.plan.hours:
        out += [value(getattr(h, f.name)) for f in fields(h) if f.name != "opf"]
        out += [value(getattr(h.opf, f.name)) for f in fields(h.opf)]
    return out


def test_beta_steps_share_one_dispatch_per_kind(small, monkeypatch):
    """A 2-step beta ladder builds one SeasonDispatch per scenario kind, and
    each of its points is the step's own run_scenario, bit for bit."""
    net, prof = small
    made = []
    real = scenarios.SeasonDispatch.__init__

    def counting(self, *args, **kwargs):
        made.append(self)
        real(self, *args, **kwargs)
    monkeypatch.setattr(scenarios.SeasonDispatch, "__init__", counting)
    cfg = cfg_for("Compound", beta_iterations=2)
    pts = beta_sweep(cfg, net, prof)
    assert len(made) == 2
    for pt in pts:
        for kind in ("Cyberattack", "Compound"):
            alone = run_scenario(cfg_for(kind, budget=pt.costs.budget), net, prof,
                                 costs=pt.costs)
            assert _result_bytes(getattr(pt, kind.lower())) == _result_bytes(alone)


def _gamma_step(cfg, net):
    """The prices of gamma ladder step 2 at ``cfg``'s budget."""
    return scenarios.scenario_costs(cfg, net).scaled(1.0 + GAMMA_WIRE_STEP,
                                                     1.0 - GAMMA_WIRE_STEP)


def _no_attack(monkeypatch):
    def attack(*args, **kwargs):
        raise AssertionError("a ladder rerun solved an attack")

    monkeypatch.setattr(scenarios, "run_attack", attack)


def test_dipping_step_reports_the_recosted_previous_plan(small, monkeypatch):
    # a hand-built dipping pair: the previous step kills 15 MW of g2 for 15,
    # which step 2's dearer generators make 16.5 of its 30; the step's result
    # is its run at half that budget, which sheds less
    net, prof = small
    cfg = cfg_for("Cyberattack")
    costs = _gamma_step(cfg, net)
    previous = run_scenario(cfg_for("Cyberattack", budget=15.0), net, prof)
    result = run_scenario(cfg, net, prof, costs=costs.scaled(budget_factor=0.5))
    assert previous.total_unserved_mwh > result.total_unserved_mwh + 1e-9
    _no_attack(monkeypatch)
    out = scenarios._monotone_rerun(cfg, net, prof, costs, previous, result)
    assert out.total_unserved_mwh == previous.total_unserved_mwh
    assert out.plan.budget == costs.budget
    for old, new in zip(previous.plan.hours, out.plan.hours):
        for name in ("zg", "zf", "zt"):
            assert np.array_equal(getattr(new, name), getattr(old, name))
        assert new.spend == costs.spend(old.zg, old.zf, old.zt)
        assert new.opf is old.opf
    assert [h.spend for h in out.plan.hours] == pytest.approx([0.0, 16.5], rel=1e-12)


def test_unaffordable_previous_plan_keeps_the_fresh_result(small, monkeypatch):
    # the previous plan buys 30 of generators; at step 2's prices it costs 33
    net, prof = small
    cfg = cfg_for("Compound")
    costs = _gamma_step(cfg, net)
    previous = run_scenario(cfg, net, prof)
    result = run_scenario(cfg, net, prof, costs=costs)
    assert previous.total_unserved_mwh > result.total_unserved_mwh + 1e-9
    assert sum(costs.spend(h.zg, h.zf, h.zt)
               for h in previous.plan.hours) == pytest.approx(33.0, rel=1e-12)
    _no_attack(monkeypatch)
    assert scenarios._monotone_rerun(cfg, net, prof, costs, previous, result) is result
