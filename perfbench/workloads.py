"""Seeded inputs, the three workloads, and the checks on their outputs.

Each workload is a closed loop: one process, one caller, each call made
after the previous one returned.  ``make_inputs`` is the set-up the
benchmark times as ``setup_s``; an iteration function is one timed sample
and returns an ``Outcome`` that the checks and metrics read.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from gridshock import attack, cli, dcopf, network, reporting, scenarios

SEASON = "summer"
# Half-width of the relative per-(hour, zone) demand perturbation.  Small
# enough that every seed keeps the bundled instance's character (the
# Compound plan spends its whole budget on the evening peak), large enough
# that each seed gives its own LPs.
DEMAND_JITTER = 0.001
LADDER_STEPS = 2
# The ladder runs on the evening hours only, so that one ladder (two budget
# steps, Cyberattack and Compound each) fits in a single timed sample.
LADDER_HOURS = range(15, 21)
BNB_HOUR = 17
BNB_BUDGET = 300.0
BNB_NODE_LIMIT = 12
SPEND_TOL = 1e-6
UNSERVED_TOL = 1e-6


@dataclass
class Inputs:
    net: network.PowerNetwork
    demand: network.DemandProfile   # the generated profile, read back from CSV
    demand_csv: Path
    ladder_demand: network.DemandProfile
    cfg: scenarios.ScenarioConfig   # the shipped Compound config


def _generated_profile(base: network.DemandProfile, seed: int,
                       hours=None) -> network.DemandProfile:
    rng = np.random.default_rng(seed)
    demand, voll = {}, {}
    for season in base.seasons:
        d = np.array(base.demand[season])
        v = np.array(base.voll[season])
        d *= 1.0 + DEMAND_JITTER * rng.uniform(-1.0, 1.0, size=d.shape)
        if hours is not None:
            d, v = d[list(hours)], v[list(hours)]
        demand[season], voll[season] = d, v
    return network.DemandProfile(base.node_ids, demand, voll)


def make_inputs(workdir: Path, seed: int) -> Inputs:
    """Load the bundled network and demand, draw the seeded demand, write it."""
    net = network.load_network(cli.bundled_path("network16.json"))
    base = network.load_demand(cli.bundled_path("demand16.csv"), net)
    workdir.mkdir(parents=True, exist_ok=True)
    demand_csv = workdir / "demand.csv"
    network.save_demand(_generated_profile(base, seed), demand_csv)
    demand = network.load_demand(demand_csv, net)
    ladder = _generated_profile(base, seed, LADDER_HOURS)
    cfg = scenarios.load_config(cli.bundled_path("compound.cfg"))
    return Inputs(net, demand, demand_csv, ladder, cfg)


@dataclass
class Attack:
    """One attack plan with what is needed to check it."""

    label: str
    plan: attack.AttackPlan
    costs: attack.AttackCosts
    profile: network.DemandProfile  # the demand the plan was computed on


@dataclass
class Outcome:
    attacks: list[Attack]
    checks: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def attack_value(self) -> float:
        return sum(a.plan.objective for a in self.attacks)

    @property
    def unserved_mwh(self) -> float:
        return float(sum(a.plan.unserved_matrix().sum() for a in self.attacks))

    def fingerprint(self) -> tuple:
        return tuple((a.label, a.plan.objective, a.plan.total_spend,
                      tuple(h.nodes for h in a.plan.hours)) for a in self.attacks)


def scenario_compound(inp: Inputs, outdir: Path) -> Outcome:
    """Compound day, export of its run directory, and `gridshock verify` on it."""
    cfg = inp.cfg
    result = scenarios.run_scenario(cfg, inp.net, inp.demand)
    costs = scenarios.scenario_costs(cfg, inp.net)
    reporting.export_results(result, outdir, inp.net, costs)
    text = io.StringIO()
    with redirect_stdout(text):
        code = cli.main(["verify", "--solution", str(outdir),
                         "--demand", str(inp.demand_csv),
                         "--heatwave-factor", repr(cfg.heatwave_factor)])
    heated = network.apply_heatwave(inp.demand, cfg.heatwave_factor)
    return Outcome([Attack("Compound", result.plan, costs, heated)],
                   [(f"verify exits 0 ({text.getvalue().strip()})", code == 0)])


def ladder_beta(inp: Inputs, outdir: Path) -> Outcome:
    """Two-step budget ladder (Cyberattack and Compound per step, warm chained)."""
    cfg = replace(inp.cfg, beta_iterations=LADDER_STEPS)
    points = scenarios.beta_sweep(cfg, inp.net, inp.ladder_demand)
    heated = network.apply_heatwave(inp.ladder_demand, cfg.heatwave_factor)
    base = scenarios.scenario_costs(cfg, inp.net)
    attacks, checks = [], []
    for pt in points:
        costs = base.scaled(budget_factor=pt.multiplier)
        attacks.append(Attack(f"beta{pt.iteration}/Cyberattack", pt.cyberattack.plan,
                              costs, inp.ladder_demand))
        attacks.append(Attack(f"beta{pt.iteration}/Compound", pt.compound.plan,
                              costs, heated))
    for kind in ("cyberattack", "compound"):
        shed = [getattr(pt, kind).total_unserved_mwh for pt in points]
        ok = all(b >= a - 1e-9 for a, b in zip(shed, shed[1:]))
        checks.append((f"{kind} unserved nondecreasing along the ladder {shed}", ok))
    return Outcome(attacks, checks)


def bnb_hour17(inp: Inputs, outdir: Path) -> Outcome:
    """Exact branch and bound on the Compound peak hour at its whole budget."""
    costs = scenarios.scenario_costs(inp.cfg, inp.net)
    heated = network.apply_heatwave(inp.demand, inp.cfg.heatwave_factor)
    part = attack.solve_hourly_attack(inp.net, heated, SEASON, BNB_HOUR, costs,
                                      BNB_BUDGET, node_limit=BNB_NODE_LIMIT)
    plan = attack.AttackPlan(SEASON, [part], BNB_BUDGET)
    return Outcome([Attack(f"hour{BNB_HOUR}", plan, costs, heated)],
                   [(f"branch and bound ran ({part.status}, {part.nodes} nodes)",
                     part.status in ("optimal", "feasible-limit") and part.nodes > 0)])


WORKLOADS = {
    "scenario_compound": scenario_compound,
    "ladder_beta": ladder_beta,
    "bnb_hour17": bnb_hour17,
}


def check_attacks(inp: Inputs, outcome: Outcome) -> tuple[int, list[str]]:
    """Check every returned attack; return (operations, failure messages).

    One operation is one hourly attack solve (failed unless certified and
    big-M valid) or one output check.
    """
    failures = []
    ops = 0

    def check(name: str, ok: bool) -> None:
        nonlocal ops
        ops += 1
        if not ok:
            failures.append(name)

    for name, ok in outcome.checks:
        check(name, ok)
    for a in outcome.attacks:
        spend = 0.0
        lowest = 0.0
        for h in a.plan.hours:
            where = f"{a.label} hour {h.hour}"
            check(f"{where}: certificate_ok={h.certificate_ok} bigm_valid={h.bigm_valid}",
                  h.certificate_ok and h.bigm_valid)
            opf = dcopf.solve_dcopf(inp.net, a.profile, h.season, h.hour,
                                    h.zg, h.zf, h.zt)
            check(f"{where}: dispatch at the attack sheds {opf.u.sum():.6f} MW, "
                  f"plan says {h.opf.u.sum():.6f}",
                  np.allclose(opf.u, h.opf.u, rtol=0.0, atol=UNSERVED_TOL))
            spend += float(a.costs.cg @ h.zg + a.costs.cf @ h.zf + a.costs.ct @ h.zt)
            lowest = min(lowest, h.zg.min(initial=0.0), h.zf.min(initial=0.0),
                         h.zt.min(initial=0.0))
        check(f"{a.label}: recomputed spend {spend} within budget {a.plan.budget}, "
              f"smallest capacity reduction {lowest}",
              spend <= a.plan.budget + SPEND_TOL * max(1.0, a.plan.budget)
              and lowest >= -SPEND_TOL)
    return ops, failures


def spending_hours(outcome: Outcome):
    """(attack, hourly result) for every hour on which an attack spends."""
    for a in outcome.attacks:
        for h in a.plan.hours:
            if h.spend > 1e-9:
                yield a, h
