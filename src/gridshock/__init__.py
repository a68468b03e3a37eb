"""gridshock: bilevel cyber-physical interdiction planning for power grids.

Solves hourly DC optimal power flow, certifies dispatch optimality through
its complementarity system, computes budget-constrained worst-case attacks
on generation and transmission capacity via a big-M MILP per hour and a
knapsack split of the day's budget over the hours, evaluates Heatwave /
Cyberattack / Compound scenarios, and exports regional supply-shock files
for downstream economy-wide models.
"""

from .attack import (
    AttackCosts,
    AttackPlan,
    HourlyAttack,
    build_hourly_attack_milp,
    default_bigm,
    default_costs,
    run_attack,
    solve_full_milp,
    solve_hourly_attack,
)
from .dcopf import OpfSolution, build_dcopf, solve_dcopf, solve_day
from .kkt import KktResiduals, kkt_residuals, verify_equilibrium
from .milp import MilpProblem, MilpSolution, solve_milp
from .network import (
    DemandProfile,
    PowerNetwork,
    apply_heatwave,
    load_demand,
    load_network,
    save_demand,
    save_network,
)
from .scenarios import (
    ScenarioConfig,
    ScenarioResult,
    SweepPoint,
    beta_sweep,
    gamma_sweep,
    load_config,
    run_scenario,
)
from .simplex import LpProblem, LpSolution, solve_lp

__version__ = "0.1.0"

__all__ = [
    "AttackCosts", "AttackPlan", "HourlyAttack",
    "build_hourly_attack_milp", "default_bigm", "default_costs", "run_attack", "solve_full_milp",
    "solve_hourly_attack",
    "OpfSolution", "build_dcopf", "solve_dcopf", "solve_day",
    "KktResiduals", "kkt_residuals", "verify_equilibrium",
    "MilpProblem", "MilpSolution", "solve_milp",
    "DemandProfile", "PowerNetwork", "apply_heatwave",
    "load_demand", "load_network", "save_demand", "save_network",
    "ScenarioConfig", "ScenarioResult", "SweepPoint", "beta_sweep",
    "gamma_sweep", "load_config", "run_scenario",
    "LpProblem", "LpSolution", "solve_lp",
]
