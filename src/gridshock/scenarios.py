"""Scenario orchestration: Baseline, Heatwave, Cyberattack, Compound, sweeps.

Baseline and Heatwave run the plain dispatch; Cyberattack runs the
attacker on baseline demand; Compound runs the attacker on heatwave
demand.  The two sensitivity ladders rescale attacker prices (gamma: wires
10% cheaper and generators 10% dearer per step) or the budget (beta: +20%
per step), six iterations each, evaluating both attack scenarios per
iteration.

Each ladder step is a fresh attack run.  When a step sheds less than the
step before, the previous plan, re-costed at the step's prices, is refined
instead and the better of the two is kept.  A beta step is therefore never
below its predecessor (a larger budget at the same prices still affords the
previous plan); a gamma step is only while the previous plan stays
affordable at the dearer generator prices.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .attack import (
    AttackCosts,
    AttackPlan,
    default_costs,
    refine_budget_allocation,
    run_attack,
)
from .dcopf import OpfSolution, solve_day
from .network import DemandProfile, PowerNetwork, apply_heatwave

SCENARIO_KINDS = ("Baseline", "Heatwave", "Cyberattack", "Compound")
GAMMA_WIRE_STEP = 0.1
BETA_BUDGET_STEP = 0.2
SWEEP_ITERATIONS = 6


class ScenarioError(RuntimeError):
    """A solver failure annotated with scenario context."""


@dataclass(frozen=True)
class ScenarioConfig:
    kind: str = "Baseline"
    season: str = "summer"
    heatwave_factor: float = 1.09
    cost_ratio: float = 5.0       # wire attack price / generator attack price
    gen_attack_cost: float = 1.0  # budget units per MW of generation
    budget: float = 0.0
    gamma_iterations: int = SWEEP_ITERATIONS
    beta_iterations: int = SWEEP_ITERATIONS
    refine_steps: int = 4
    refine: bool = True
    node_limit: int = 0  # 0 = certificate-only attack mode (fast sweeps)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ValueError(f"unknown scenario kind {self.kind!r}")
        for name in ("heatwave_factor", "cost_ratio", "gen_attack_cost"):
            value = getattr(self, name)
            if not 0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0 <= self.budget < np.inf:
            raise ValueError(f"budget must be finite and nonnegative, got {self.budget}")
        if self.refine_steps < 1:
            raise ValueError(f"refine_steps must be at least 1, got {self.refine_steps}")
        if self.node_limit < 0:
            raise ValueError(f"node_limit must be nonnegative, got {self.node_limit}")


@dataclass
class ScenarioResult:
    kind: str
    season: str
    unserved: np.ndarray          # H x N, MW shed per hour and node
    demand_used: np.ndarray       # H x N, MW demand the scenario dispatched
    total_unserved_mwh: float
    demand_energy_mwh: float
    peak_shed_mw: float
    peak_hour: int
    customers_affected: int
    total_customers: int
    node_ids: tuple[str, ...]
    shock_percent: np.ndarray     # per node, % of that node's demand energy unserved
    plan: AttackPlan | None = None
    opf_hours: list[OpfSolution] = field(default_factory=list)
    heatwave_factor: float = 1.0  # the factor the dispatched demand was scaled by

    @property
    def percent_unserved(self) -> float:
        return percent_unserved(self.total_unserved_mwh, self.demand_energy_mwh)


def percent_unserved(total_unserved_mwh: float, demand_energy_mwh: float) -> float:
    """Unserved energy as a percent of demand energy; 0 without demand."""
    if demand_energy_mwh <= 0:
        return 0.0
    return 100.0 * total_unserved_mwh / demand_energy_mwh


def shed_metrics(unserved: np.ndarray, demand_used: np.ndarray,
                 total_customers: int) -> dict:
    """The headline numbers of a run's H x N shed and demand (MW per hour
    and node), keyed by their :class:`ScenarioResult` field: the totals,
    the peak, the customers affected and each node's shock percent."""
    total_unserved = float(unserved.sum())
    demand_energy = float(demand_used.sum())
    hourly_shed = unserved.sum(axis=1)
    peak_hour = int(np.argmax(hourly_shed)) if hourly_shed.size else 0
    peak = float(hourly_shed[peak_hour]) if hourly_shed.size else 0.0
    frac = total_unserved / demand_energy if demand_energy > 0 else 0.0
    node_demand = demand_used.sum(axis=0)
    node_unserved = unserved.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shock = np.where(node_demand > 0, 100.0 * node_unserved / node_demand, 0.0)
    return {
        "total_unserved_mwh": total_unserved,
        "demand_energy_mwh": demand_energy,
        "peak_shed_mw": peak,
        "peak_hour": peak_hour,
        "customers_affected": int(round(frac * total_customers)),
        "shock_percent": shock,
    }


def _metrics(
    cfg: ScenarioConfig,
    net: PowerNetwork,
    profile: DemandProfile,
    opf_hours: list[OpfSolution],
    plan: AttackPlan | None = None,
) -> ScenarioResult:
    season = cfg.season
    demand_used = np.array(profile.demand[season])
    unserved = np.array([s.u for s in opf_hours])
    return ScenarioResult(
        kind=cfg.kind,
        season=season,
        unserved=unserved,
        demand_used=demand_used,
        total_customers=net.total_customers,
        node_ids=tuple(nd.id for nd in net.nodes),
        plan=plan,
        opf_hours=opf_hours,
        heatwave_factor=cfg.heatwave_factor if _heated(cfg) else 1.0,
        **shed_metrics(unserved, demand_used, net.total_customers),
    )


def scenario_costs(cfg: ScenarioConfig, net: PowerNetwork) -> AttackCosts:
    return default_costs(net, cfg.budget, cfg.cost_ratio, cfg.gen_attack_cost)


def _heated(cfg: ScenarioConfig) -> bool:
    return cfg.kind in ("Heatwave", "Compound")


def scenario_profile(cfg: ScenarioConfig, demand: DemandProfile) -> DemandProfile:
    """The demand a scenario dispatches: heatwave-scaled for Heatwave and Compound."""
    return apply_heatwave(demand, cfg.heatwave_factor) if _heated(cfg) else demand


def run_scenario(
    cfg: ScenarioConfig,
    net: PowerNetwork,
    demand: DemandProfile,
    costs: AttackCosts | None = None,
) -> ScenarioResult:
    """Evaluate one scenario end to end and compute all derived metrics."""
    season = cfg.season
    if season not in demand.demand:
        raise ScenarioError(f"{cfg.kind}: season {season!r} not in demand profile")
    profile = scenario_profile(cfg, demand)
    try:
        plan = None
        if cfg.kind in ("Cyberattack", "Compound"):
            costs = costs if costs is not None else scenario_costs(cfg, net)
            plan = run_attack(net, profile, season, costs, costs.budget,
                              step_count=cfg.refine_steps, node_limit=cfg.node_limit,
                              refine=cfg.refine)
        hours = solve_day(net, profile, season) if plan is None else [h.opf for h in plan.hours]
        return _metrics(cfg, net, profile, hours, plan)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"{cfg.kind}/{season}: {exc}") from exc


def _monotone_rerun(
    cfg: ScenarioConfig,
    net: PowerNetwork,
    demand: DemandProfile,
    costs: AttackCosts,
    previous: ScenarioResult | None,
    result: ScenarioResult,
) -> ScenarioResult:
    """Refine the previous step's plan when a ladder step sheds less.

    The previous plan's hours are re-costed at this step's prices.  When
    they fit the budget, the slack is spread evenly over the hours and the
    budget refinement starts from that split (with ``cfg.refine`` off, the
    re-costed plan is reported as it is); otherwise the fresh result stands.
    Keep whichever run disrupts more.
    """
    if previous is None or previous.plan is None or result.plan is None:
        return result
    if result.total_unserved_mwh >= previous.total_unserved_mwh - 1e-9:
        return result
    hours = [replace(h, spend=costs.spend(h.zg, h.zf, h.zt)) for h in previous.plan.hours]
    slack = costs.budget - sum(h.spend for h in hours)
    if slack < 0:
        return result
    profile = scenario_profile(cfg, demand)
    plan = AttackPlan(cfg.season, hours, costs.budget)
    if cfg.refine:
        alloc = [h.spend + slack / len(hours) for h in hours]
        plan = refine_budget_allocation(net, profile, cfg.season, costs, hours,
                                        costs.budget, cfg.refine_steps,
                                        node_limit=cfg.node_limit, alloc=alloc)
    rerun = _metrics(cfg, net, profile, [h.opf for h in plan.hours], plan)
    return rerun if rerun.total_unserved_mwh > result.total_unserved_mwh else result


@dataclass
class SweepPoint:
    iteration: int
    parameter: str          # "gamma" | "beta"
    multiplier: float       # the iteration's cost or budget multiplier
    cost_ratio: float       # resulting wire/generator price ratio
    budget: float
    cyberattack: ScenarioResult
    compound: ScenarioResult
    costs: AttackCosts      # the step's prices and budget, both scenarios


def gamma_multiplier(i: int) -> float:
    """Relative attacker price ratio at ladder step i (1-based)."""
    return (1.0 - (i - 1) * GAMMA_WIRE_STEP) / (1.0 + (i - 1) * GAMMA_WIRE_STEP)


def beta_multiplier(i: int) -> float:
    """Relative attacker budget ratio at ladder step i (1-based)."""
    return 1.0 + (i - 1) * BETA_BUDGET_STEP


def _sweep(
    cfg: ScenarioConfig,
    net: PowerNetwork,
    demand: DemandProfile,
    parameter: str,
) -> list[SweepPoint]:
    """Run both attack scenarios at each step of the ``parameter`` ladder.

    Each step scales the base prices and budget by (gen, wire, budget)
    factors; the factors a ladder leaves alone are exactly 1.0.
    """
    iterations = getattr(cfg, f"{parameter}_iterations")
    if iterations < 1:
        raise ValueError(f"{parameter} sweep needs at least one iteration")
    base = scenario_costs(cfg, net)
    points = []
    prev: dict[str, ScenarioResult | None] = {"Cyberattack": None, "Compound": None}
    for i in range(1, iterations + 1):
        if parameter == "gamma":
            step = (i - 1) * GAMMA_WIRE_STEP
            gen, wire, budget, multiplier = 1.0 + step, 1.0 - step, 1.0, gamma_multiplier(i)
        else:
            gen, wire, budget = 1.0, 1.0, beta_multiplier(i)
            multiplier = budget
        costs = base.scaled(gen, wire, budget)
        results = {}
        for kind in ("Cyberattack", "Compound"):
            sub = replace(cfg, kind=kind, budget=costs.budget)
            res = run_scenario(sub, net, demand, costs=costs)
            res = _monotone_rerun(sub, net, demand, costs, prev[kind], res)
            results[kind] = res
            prev[kind] = res
        points.append(SweepPoint(i, parameter, multiplier, cfg.cost_ratio * wire / gen,
                                 costs.budget, results["Cyberattack"],
                                 results["Compound"], costs))
    return points


def gamma_sweep(cfg: ScenarioConfig, net: PowerNetwork,
                demand: DemandProfile) -> list[SweepPoint]:
    """Price ladder: wires get cheaper, generators dearer, six steps."""
    return _sweep(cfg, net, demand, "gamma")


def beta_sweep(cfg: ScenarioConfig, net: PowerNetwork,
               demand: DemandProfile) -> list[SweepPoint]:
    """Budget ladder: +20% attacker resources per step, six steps."""
    return _sweep(cfg, net, demand, "beta")


def _parse_bool(text: str) -> bool:
    word = text.strip().lower()
    if word in ("1", "true", "yes", "on"):
        return True
    if word in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


# parser of each config key, read off the ScenarioConfig annotations
_PARSERS = {"str": str, "float": float, "int": int, "bool": _parse_bool}
_CONFIG_FIELDS = {f.name: _PARSERS[f.type] for f in fields(ScenarioConfig)}


def load_config(path: str | Path, **overrides) -> ScenarioConfig:
    """Read a flat `key = value` config file; later keys win, then overrides."""
    values: dict = {}
    for ln, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected 'key = value'")
        key, val = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"{path}:{ln}: unknown config key {key!r}")
        try:
            values[key] = _CONFIG_FIELDS[key](val)
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: bad value for {key}: {exc}") from None
    values.update({k: v for k, v in overrides.items() if v is not None})
    return ScenarioConfig(**values)
