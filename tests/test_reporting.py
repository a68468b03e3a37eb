import csv
import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from gridshock.attack import AttackCosts
from gridshock.reporting import (
    export_results,
    export_sweep,
    fmt,
    read_attack_costs,
    read_attack_csv,
    read_manifest,
    read_solutions,
    shock_rows,
)
from gridshock.kkt import kkt_residuals, verify_equilibrium
from gridshock.scenarios import ScenarioConfig, beta_sweep, run_scenario, scenario_costs
from support import profile_for, tight_two_bus


@pytest.fixture(scope="module")
def small_run():
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 60.0], [10.0, 80.0]])
    cfg = ScenarioConfig(kind="Compound", budget=30.0, node_limit=0)
    costs = scenario_costs(cfg, net)
    res = run_scenario(cfg, net, prof, costs=costs)
    return net, prof, cfg, costs, res


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-1e9, max_value=1e9, allow_nan=False))
def test_fixed_precision_formatting_is_idempotent(x):
    once = float(fmt(x))
    assert float(fmt(once)) == once


def test_export_writes_manifest_and_files(tmp_path, small_run):
    net, prof, cfg, costs, res = small_run
    manifest = export_results(res, tmp_path / "run", net, costs)
    names = set(manifest["files"])
    assert {"unserved_timeseries.csv", "zonal_summary.csv", "attack_strategy.csv",
            "shock.csv", "opf_solution.csv"} <= names
    on_disk = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert on_disk["files"] == manifest["files"]
    for name, meta in manifest["files"].items():
        with open(tmp_path / "run" / name) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) - 1 == meta["rows"]


def test_unserved_timeseries_roundtrip(tmp_path, small_run):
    net, prof, cfg, costs, res = small_run
    export_results(res, tmp_path / "run", net, costs)
    seen = {}
    with open(tmp_path / "run" / "unserved_timeseries.csv") as fh:
        for row in csv.DictReader(fh):
            seen[(int(row["hour"]), row["node"])] = float(row["unserved_mw"])
    idx = {nd: j for j, nd in enumerate(res.node_ids)}
    for (h, node), val in seen.items():
        assert val == float(fmt(res.unserved[h, idx[node]]))


def test_shock_rows_arithmetic(small_run):
    net, prof, cfg, costs, res = small_run
    for j, (region, sector, pct) in enumerate(shock_rows(res)):
        assert sector == "Utilities"
        dem = res.demand_used[:, j].sum()
        uns = res.unserved[:, j].sum()
        expect = 100.0 * uns / dem if dem > 0 else 0.0
        assert abs(pct - expect) <= 1e-9
        assert 0.0 <= pct <= 100.0


def test_shock_csv_close_to_memory(tmp_path, small_run):
    net, prof, cfg, costs, res = small_run
    export_results(res, tmp_path / "run", net, costs)
    with open(tmp_path / "run" / "shock.csv") as fh:
        rows = list(csv.DictReader(fh))
    mem = {r[0]: r[2] for r in shock_rows(res)}
    for row in rows:
        assert float(row["percent_reduction"]) == pytest.approx(
            mem[row["region"]], abs=1e-9)


def test_baseline_export_all_zero(tmp_path):
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 60.0]])
    res = run_scenario(ScenarioConfig(kind="Baseline"), net, prof)
    export_results(res, tmp_path / "base", net)
    with open(tmp_path / "base" / "shock.csv") as fh:
        assert all(float(r["percent_reduction"]) == 0.0 for r in csv.DictReader(fh))
    with open(tmp_path / "base" / "unserved_timeseries.csv") as fh:
        assert all(float(r["unserved_mw"]) == 0.0 for r in csv.DictReader(fh))


def test_solution_csv_verifies_after_roundtrip(tmp_path, small_run):
    net, prof, cfg, costs, res = small_run
    export_results(res, tmp_path / "run", net, costs)
    from gridshock.network import apply_heatwave
    hot = apply_heatwave(prof, cfg.heatwave_factor)
    sols = read_solutions(tmp_path / "run" / "opf_solution.csv", net, hot, cfg.season)
    attacks = read_attack_csv(tmp_path / "run" / "attack_strategy.csv", net, costs,
                              {(sol.season, sol.hour) for sol in sols})
    assert len(sols) == 2
    for sol in sols:
        season, hour = sol.season, sol.hour
        z = attacks.get((season, hour), {})
        ok = verify_equilibrium(
            kkt_residuals(net, sol, z.get("zg"), z.get("zf"), z.get("zt")), 1e-5)
        assert ok, f"hour {hour} failed its certificate after a file roundtrip"


def test_sweep_export_layout(tmp_path):
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    cfg = ScenarioConfig(kind="Compound", budget=30.0, beta_iterations=2, node_limit=0)
    pts = beta_sweep(cfg, net, prof)
    export_sweep(pts, tmp_path / "sweep", net)
    assert (tmp_path / "sweep" / "sweep_summary.csv").exists()
    for i in (1, 2):
        assert (tmp_path / "sweep" / f"iter{i}" / "compound" / "manifest.json").exists()
        assert (tmp_path / "sweep" / f"iter{i}" / "cyberattack" / "shock.csv").exists()
    with open(tmp_path / "sweep" / "sweep_summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["iteration"]) for r in rows] == [1, 2]


# tight_two_bus prices that the hand-written attack rows below are spent at,
# and the hours of solutions they may name
ROW_PRICES = AttackCosts(np.ones(2), np.array([5.0]), np.array([600.0]), 1000.0)
ROW_HOURS = {(season, hour) for season in ("summer", "winter") for hour in (0, 1)}


def test_attack_csv_keys_by_season_and_hour(tmp_path):
    net = tight_two_bus()
    path = tmp_path / "attack_strategy.csv"
    path.write_text("season,hour,component_type,entity,z_value,spend\n"
                    "summer,0,gen,g1,5,5\n"
                    "winter,0,flow,e1,3,15\n"
                    "winter,1,angle,e1,0.25,150\n")
    attacks = read_attack_csv(path, net, ROW_PRICES, ROW_HOURS)
    assert sorted(attacks) == [("summer", 0), ("winter", 0), ("winter", 1)]
    summer, winter = attacks[("summer", 0)], attacks[("winter", 0)]
    assert summer["zg"].tolist() == [5.0, 0.0] and not summer["zf"].any()
    assert winter["zf"].tolist() == [3.0] and not winter["zg"].any()
    assert attacks[("winter", 1)]["zt"].tolist() == [0.25]


@pytest.mark.parametrize("row, message", [
    ("summer,0,gen,gX,5,5", "attack_strategy.csv:3: unknown gen entity 'gX'"),
    ("summer,0,flow,g1,5,5", "attack_strategy.csv:3: unknown flow entity 'g1'"),
    ("summer,0,load,n1,5,5", "attack_strategy.csv:3: unknown component_type 'load'"),
])
def test_attack_csv_rejects_unknown_rows(tmp_path, row, message):
    path = tmp_path / "attack_strategy.csv"
    path.write_text("season,hour,component_type,entity,z_value,spend\n"
                    f"summer,0,gen,g1,1,1\n{row}\n")
    with pytest.raises(ValueError, match=message):
        read_attack_csv(path, tight_two_bus(), ROW_PRICES, ROW_HOURS)


@pytest.mark.parametrize("row, message", [
    ("summer,0,flow,e1,nan,15", "attack_strategy.csv:2: z_value nan outside"),
    # g1 runs at 20 MW or more: only 40 of its 60 MW can be attacked away
    ("summer,0,gen,g1,50,50", "attack_strategy.csv:2: z_value 50.0 outside [0, 40.0]"),
])
def test_attack_csv_rejects_nan_and_must_run_capacity(tmp_path, row, message):
    net = tight_two_bus()
    g1, g2 = net.generators
    net = replace(net, generators=(replace(g1, g_min=20.0), g2))
    path = tmp_path / "attack_strategy.csv"
    path.write_text(f"season,hour,component_type,entity,z_value,spend\n{row}\n")
    with pytest.raises(ValueError, match=re.escape(message)):
        read_attack_csv(path, net, ROW_PRICES, ROW_HOURS)


def test_attack_csv_rejects_spends_over_the_seasonal_budget(tmp_path):
    path = tmp_path / "attack_strategy.csv"
    rows = ("season,hour,component_type,entity,z_value,spend\n"
            "summer,0,angle,e1,1,600\n"
            "winter,0,angle,e1,1,600\n")
    path.write_text(rows)
    # 600 per season: within the budget of 1000, as each season has its own
    read_attack_csv(path, tight_two_bus(), ROW_PRICES, ROW_HOURS)
    path.write_text(rows + "summer,1,angle,e1,1,600\n")
    with pytest.raises(ValueError, match=re.escape(
            "attack_strategy.csv: summer spends 1200.0 in total, more than the budget 1000.0")):
        read_attack_csv(path, tight_two_bus(), ROW_PRICES, ROW_HOURS)


def test_manifest_records_the_heatwave_factor(tmp_path, small_run):
    net, prof, cfg, costs, res = small_run
    assert res.heatwave_factor == cfg.heatwave_factor == 1.09
    export_results(res, tmp_path / "run", net, costs)
    assert read_manifest(tmp_path / "run")["heatwave_factor"] == 1.09
    cyber = run_scenario(replace(cfg, kind="Cyberattack"), net, prof, costs=costs)
    export_results(cyber, tmp_path / "cyber", net, costs)
    assert read_manifest(tmp_path / "cyber")["heatwave_factor"] == 1.0
    # a directory without a manifest has nothing to be checked against
    with pytest.raises(ValueError, match="^manifest.json: not found in "):
        read_manifest(tmp_path / "none")


def test_manifest_records_the_attack_prices(tmp_path, small_run):
    net, prof, cfg, costs, res = small_run
    export_results(res, tmp_path / "run", net, costs.scaled(1.3, 0.7, 1.2))
    back = read_attack_costs(read_manifest(tmp_path / "run"), net)
    want = costs.scaled(1.3, 0.7, 1.2)
    for name in ("cg", "cf", "ct"):
        assert getattr(back, name).tolist() == getattr(want, name).tolist()
    assert back.budget == want.budget
    export_results(res, tmp_path / "plain", net)
    assert read_attack_costs(read_manifest(tmp_path / "plain"), net) is None
