"""Command-line interface.

Subcommands: solve-opf, attack, scenario, sweep-gamma, sweep-beta, verify.
Exit codes: 0 success, 1 validation/usage error, 2 solver failure or
failed verification.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from importlib import resources
from pathlib import Path


from . import reporting
from .attack import BigMInvalidError
from .milp import MilpNodeLimitError
from .network import NetworkParseError, NetworkValidationError, load_demand, load_network
from .scenarios import (
    ScenarioConfig,
    ScenarioError,
    _attacked,
    _heated,
    scenario_profile,
    gamma_sweep,
    beta_sweep,
    load_config,
    run_scenario,
    scenario_costs,
)
from .simplex import SolverNumericalError, dump_lp

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_SOLVER = 2


def bundled_path(name: str) -> Path:
    return Path(str(resources.files("gridshock").joinpath("data", name)))


_FLAGS = {
    "network": dict(default=None, help="network JSON file (default: bundled)"),
    "demand": dict(default=None, help="demand CSV file (default: bundled)"),
    "config": dict(default=None, help="scenario config file"),
    "out": dict(default="out", help="output directory"),
    "budget": dict(type=float, default=None, help="attacker budget override"),
    "cost-ratio": dict(type=float, default=None,
                       help="wire/generator attack price ratio override"),
    "heatwave-factor": dict(type=float, help="demand scaling factor (verify: as recorded)"),
    "season": dict(default=None, help="season to run (default summer)"),
    "node-limit": dict(type=int, default=None,
                       help="branch-and-bound node limit per attack problem"),
    "dump-lp": dict(action="store_true", help="write LP-format dumps of built problems "
                    "(verify: kkt_residuals.csv of every hour)"),
    "solution": dict(required=True, help="directory containing opf_solution.csv"),
}
# each subcommand registers only the flags it reads
_RUN = "network demand config out budget cost-ratio heatwave-factor season node-limit"
_COMMANDS = (
    ("solve-opf", "solve the hourly dispatch for a whole day",
     "network demand config out heatwave-factor season dump-lp"),
    ("attack", "run the budgeted attacker (hourly screen + budget knapsack)", _RUN + " dump-lp"),
    ("scenario", "run a named scenario from a config file", _RUN),
    ("sweep-gamma", "attacker price-ratio sensitivity ladder", _RUN),
    ("sweep-beta", "attacker budget sensitivity ladder", _RUN),
    ("verify", "re-check a saved run: its certificate and every file it lists",
     "network demand out heatwave-factor dump-lp solution"),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridshock",
        description="Cyber-physical interdiction planning on transmission networks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc, flags in _COMMANDS:
        p = sub.add_parser(name, help=doc)
        for flag in flags.split():
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    return parser


def _load_inputs(args):
    net_path = args.network or bundled_path("network16.json")
    dem_path = args.demand or bundled_path("demand16.csv")
    net = load_network(net_path)
    demand = load_demand(dem_path, net)
    return net, demand


def _config(args) -> ScenarioConfig:
    # a subcommand without one of these flags leaves the config's value
    overrides = {key: vars(args).get(key) for key in
                 ("budget", "cost_ratio", "heatwave_factor", "season", "node_limit")}
    if vars(args).get("config"):
        return load_config(args.config, **overrides)
    return ScenarioConfig(**{k: v for k, v in overrides.items() if v is not None})


def _heated_run(args, cfg: ScenarioConfig) -> bool:
    """Heated demand when --heatwave-factor asks for a factor other than 1,
    or, without that flag, when the config's scenario is a heated one."""
    factor = args.heatwave_factor
    return factor != 1.0 if factor is not None else _heated(cfg)


def cmd_solve_opf(args) -> int:
    net, demand = _load_inputs(args)
    cfg = _config(args)
    cfg = replace(cfg, kind="Heatwave" if _heated_run(args, cfg) else "Baseline")
    result = run_scenario(cfg, net, demand)
    manifest = reporting.export_results(result, args.out, net)
    if args.dump_lp:
        from .dcopf import build_dcopf
        profile = scenario_profile(cfg, demand)
        for h in range(profile.hours(cfg.season)):
            text = dump_lp(build_dcopf(net, profile, cfg.season, h))
            (Path(args.out) / f"dcopf_h{h}.lp").write_text(text)
    print(f"total unserved: {result.total_unserved_mwh:.6g} MWh "
          f"({len(manifest['files'])} files in {args.out})")
    return EXIT_OK


def cmd_attack(args) -> int:
    net, demand = _load_inputs(args)
    cfg = _config(args)
    kind = "Compound" if _heated_run(args, cfg) else "Cyberattack"
    cfg = replace(cfg, kind=kind)
    costs = scenario_costs(cfg, net)
    result = run_scenario(cfg, net, demand, costs=costs)
    manifest = reporting.export_results(result, args.out, net, costs)
    if args.dump_lp and result.plan is not None:
        from .attack import build_hourly_attack_milp
        # dump the peak hour's MILP on the demand the attack was planned on,
        # at the budget the plan spends on that hour
        (part,) = (h for h in result.plan.hours if h.hour == result.peak_hour)
        prob = build_hourly_attack_milp(net, scenario_profile(cfg, demand), cfg.season,
                                        result.peak_hour, costs, part.spend)
        (Path(args.out) / f"attack_h{result.peak_hour}.lp").write_text(dump_lp(prob.lp))
    print(f"{kind}: unserved {result.total_unserved_mwh:.6g} MWh, "
          f"peak {result.peak_shed_mw:.6g} MW at hour {result.peak_hour}, "
          f"customers affected {result.customers_affected}")
    return EXIT_OK


def cmd_scenario(args) -> int:
    net, demand = _load_inputs(args)
    cfg = _config(args)
    # only a run that attacks records prices; Baseline and Heatwave have none
    costs = scenario_costs(cfg, net) if _attacked(cfg) else None
    result = run_scenario(cfg, net, demand, costs=costs)
    reporting.export_results(result, args.out, net, costs)
    print(f"{cfg.kind}: unserved {result.total_unserved_mwh:.6g} MWh "
          f"({result.percent_unserved:.4g}% of load), "
          f"customers affected {result.customers_affected}")
    return EXIT_OK


def cmd_sweep(args, parameter: str) -> int:
    net, demand = _load_inputs(args)
    cfg = _config(args)
    points = gamma_sweep(cfg, net, demand) if parameter == "gamma" \
        else beta_sweep(cfg, net, demand)
    reporting.export_sweep(points, args.out, net)
    for pt in points:
        print(f"iter {pt.iteration}: multiplier {pt.multiplier:.4g} "
              f"cyber {pt.cyberattack.total_unserved_mwh:.6g} MWh "
              f"compound {pt.compound.total_unserved_mwh:.6g} MWh")
    return EXIT_OK


def cmd_verify(args) -> int:
    net, demand = _load_inputs(args)
    _config(args)  # a bad --heatwave-factor exits 1 before any file is read
    try:
        hours, worst = reporting.verify_run(args.solution, net, demand, args.heatwave_factor,
                                            args.out if args.dump_lp else None)
    except ValueError as exc:
        print(f"FAIL {exc}")
        return EXIT_SOLVER
    print(f"verified {hours} hourly solutions, max residual {worst:.3e}")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # built per call, so a handler replaced on the module is the one that runs
    commands = {
        "solve-opf": cmd_solve_opf,
        "attack": cmd_attack,
        "scenario": cmd_scenario,
        "sweep-gamma": lambda args: cmd_sweep(args, "gamma"),
        "sweep-beta": lambda args: cmd_sweep(args, "beta"),
        "verify": cmd_verify,
    }
    try:
        return commands[args.command](args)
    except (OSError, NetworkParseError, NetworkValidationError, ValueError) as exc:
        # OSError: a missing input file or an output directory that cannot be made
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SolverNumericalError, MilpNodeLimitError, BigMInvalidError,
            ScenarioError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
