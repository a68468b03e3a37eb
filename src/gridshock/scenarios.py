"""Scenario orchestration: Baseline, Heatwave, Cyberattack, Compound, sweeps.

Baseline and Heatwave run the plain dispatch; Cyberattack runs the
attacker on baseline demand; Compound runs the attacker on heatwave
demand.  Both spend the config's ``budget`` over the day's hours in one
:func:`attack.run_attack` pass.  The two sensitivity ladders rescale
attacker prices (gamma: wires 10% cheaper and generators 10% dearer per
step) or the budget (beta: +20% per step), six iterations each,
evaluating both attack scenarios per iteration.

Each ladder step is a fresh attack run on its scenario kind's shared
:func:`scenario_dispatch`, so the kind's unattacked day is solved once
per ladder; a step's result is its :func:`run_scenario` at the step's
prices, bit for bit, and no plan passes from one step to the next.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .attack import AttackCosts, AttackPlan, default_costs, run_attack
from .dcopf import OpfSolution, SeasonDispatch
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
        if self.node_limit < 0:
            raise ValueError(f"node_limit must be nonnegative, got {self.node_limit}")
        if self.beta_iterations < 1:
            raise ValueError(f"beta_iterations must be at least 1, got {self.beta_iterations}")
        # gamma step i prices wires at 1 - (i - 1) * GAMMA_WIRE_STEP of the base
        most = int(np.ceil(1 / GAMMA_WIRE_STEP))
        if not 1 <= self.gamma_iterations <= most:
            raise ValueError(f"gamma_iterations must be between 1 and {most}, the last step "
                             f"whose wires cost more than 0, got {self.gamma_iterations}")


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
        """Unserved energy as a percent of demand energy; 0 without demand."""
        if self.demand_energy_mwh <= 0:
            return 0.0
        return 100.0 * self.total_unserved_mwh / self.demand_energy_mwh


def _metrics(
    cfg: ScenarioConfig,
    net: PowerNetwork,
    profile: DemandProfile,
    opf_hours: list[OpfSolution],
    plan: AttackPlan | None = None,
) -> ScenarioResult:
    """A run's result from its hourly dispatches on ``profile``, with its
    headline numbers: the totals, the peak, the customers affected and
    each node's shock percent."""
    season = cfg.season
    demand_used = np.array(profile.demand[season])
    unserved = np.array([s.u for s in opf_hours])
    total_unserved = float(unserved.sum())
    demand_energy = float(demand_used.sum())
    hourly_shed = unserved.sum(axis=1)
    peak_hour = int(np.argmax(hourly_shed)) if hourly_shed.size else 0
    frac = total_unserved / demand_energy if demand_energy > 0 else 0.0
    node_demand = demand_used.sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        shock = np.where(node_demand > 0, 100.0 * unserved.sum(axis=0) / node_demand, 0.0)
    return ScenarioResult(
        kind=cfg.kind,
        season=season,
        unserved=unserved,
        demand_used=demand_used,
        total_unserved_mwh=total_unserved,
        demand_energy_mwh=demand_energy,
        peak_shed_mw=float(hourly_shed[peak_hour]) if hourly_shed.size else 0.0,
        peak_hour=peak_hour,
        customers_affected=int(round(frac * net.total_customers)),
        total_customers=net.total_customers,
        node_ids=tuple(nd.id for nd in net.nodes),
        shock_percent=shock,
        plan=plan,
        opf_hours=opf_hours,
        heatwave_factor=cfg.heatwave_factor if _heated(cfg) else 1.0,
    )


def scenario_costs(cfg: ScenarioConfig, net: PowerNetwork) -> AttackCosts:
    return default_costs(net, cfg.budget, cfg.cost_ratio, cfg.gen_attack_cost)


def _heated(cfg: ScenarioConfig) -> bool:
    return cfg.kind in ("Heatwave", "Compound")


def _attacked(cfg: ScenarioConfig) -> bool:
    return cfg.kind in ("Cyberattack", "Compound")


def scenario_profile(cfg: ScenarioConfig, demand: DemandProfile) -> DemandProfile:
    """The demand a scenario dispatches: heatwave-scaled for Heatwave and Compound."""
    return apply_heatwave(demand, cfg.heatwave_factor) if _heated(cfg) else demand


def scenario_dispatch(cfg: ScenarioConfig, net: PowerNetwork,
                      demand: DemandProfile) -> SeasonDispatch:
    """The :class:`SeasonDispatch` of a scenario's day: ``net`` and the
    season on the scenario's demand (:func:`scenario_profile`), with every
    hour's unattacked dispatch solved up front, chained hour to hour.  A
    season the demand lacks is a usage error (ValueError)."""
    season = cfg.season
    profile = scenario_profile(cfg, demand)
    hours = range(profile.hours(season))
    try:
        return SeasonDispatch(net, profile, season, hours)
    except Exception as exc:
        raise ScenarioError(f"{cfg.kind}/{season}: {exc}") from exc


def run_scenario(
    cfg: ScenarioConfig,
    net: PowerNetwork,
    demand: DemandProfile,
    costs: AttackCosts | None = None,
) -> ScenarioResult:
    """Evaluate one scenario end to end and compute all derived metrics."""
    return _run_day(cfg, scenario_dispatch(cfg, net, demand), costs)


def _run_day(cfg: ScenarioConfig, dispatch: SeasonDispatch,
             costs: AttackCosts | None) -> ScenarioResult:
    """``cfg``'s run on the day of ``dispatch``, the scenario's
    :func:`scenario_dispatch`.

    A ladder builds that dispatch once per scenario kind and passes it to
    every step, so each step finds the day's unattacked dispatch solved
    and the dispatch form's store of basis inverses filled; the answer is
    the step's :func:`run_scenario`, bit for bit.
    """
    net, profile, season = dispatch.net, dispatch.demand, cfg.season
    try:
        plan = None
        if _attacked(cfg):
            costs = costs if costs is not None else scenario_costs(cfg, net)
            plan = run_attack(dispatch, costs, node_limit=cfg.node_limit)
            hours = [h.opf for h in plan.hours]
        else:
            hours = [dispatch.base(h) for h in range(profile.hours(season))]
        return _metrics(cfg, net, profile, hours, plan)
    except ScenarioError:
        raise
    except Exception as exc:
        raise ScenarioError(f"{cfg.kind}/{season}: {exc}") from exc


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
    base = scenario_costs(cfg, net)
    points = []
    kinds = ("Cyberattack", "Compound")
    # one day per kind for every step: the ladder changes prices, not demand
    days = {kind: scenario_dispatch(replace(cfg, kind=kind), net, demand) for kind in kinds}
    for i in range(1, getattr(cfg, f"{parameter}_iterations") + 1):
        if parameter == "gamma":
            step = (i - 1) * GAMMA_WIRE_STEP
            gen, wire, budget, multiplier = 1.0 + step, 1.0 - step, 1.0, gamma_multiplier(i)
        else:
            gen, wire, budget = 1.0, 1.0, beta_multiplier(i)
            multiplier = budget
        costs = base.scaled(gen, wire, budget)
        cyber, compound = (_run_day(replace(cfg, kind=kind, budget=costs.budget), days[kind],
                                    costs) for kind in kinds)
        points.append(SweepPoint(i, parameter, multiplier, cfg.cost_ratio * wire / gen,
                                 costs.budget, cyber, compound, costs))
    return points


def gamma_sweep(cfg: ScenarioConfig, net: PowerNetwork,
                demand: DemandProfile) -> list[SweepPoint]:
    """Price ladder: wires get cheaper, generators dearer, six steps."""
    return _sweep(cfg, net, demand, "gamma")


def beta_sweep(cfg: ScenarioConfig, net: PowerNetwork,
               demand: DemandProfile) -> list[SweepPoint]:
    """Budget ladder: +20% attacker resources per step, six steps."""
    return _sweep(cfg, net, demand, "beta")


# parser of each config key, read off the ScenarioConfig annotations
_PARSERS = {"str": str, "float": float, "int": int}
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
