"""File outputs: time series, zonal summaries, strategy breakdowns, shock file.

All outputs are plain CSV plus one JSON manifest.  Report files format
floats at 6 significant digits; shock.csv uses 12 and the machine-exchange
files (opf_solution.csv, attack_strategy.csv z/spend columns) use 17 so
the KKT verifier can reconstruct solutions exactly.  Formats are
documented in docs/formats.md.  Row order is deterministic: node id, then
hour.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .attack import AttackCosts, attack_rows
from .dcopf import OPF_ARRAYS, OpfSolution, solution_rows
from .network import DemandProfile, PowerNetwork
from .scenarios import ScenarioResult, SweepPoint, percent_unserved, shed_metrics

SECTOR_TAG = "Utilities"
ATTACK_RTOL = 1e-9  # relative tolerance of read_attack_csv's spend and capacity checks
MANIFEST_RTOL = 1e-9  # relative tolerance of check_run_totals


def fmt(x: float, digits: int = 6) -> str:
    return format(float(x), f".{digits}g")


def _write_csv(path: Path, header: list[str], rows: list[tuple]) -> int:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    return len(rows)


def shock_rows(result: ScenarioResult) -> list[tuple[str, str, float]]:
    """Per-region percent supply reduction for the downstream economy model."""
    return [(node, SECTOR_TAG, float(result.shock_percent[j]))
            for j, node in enumerate(result.node_ids)]


def export_results(
    result: ScenarioResult,
    outdir: str | Path,
    net: PowerNetwork,
    costs: AttackCosts | None = None,
) -> dict:
    """Write the scenario's file set and return the manifest dictionary."""
    outdir = Path(outdir)
    try:
        outdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {outdir}: {exc}") from exc

    manifest: dict = {
        "scenario": result.kind,
        "season": result.season,
        # the demand's scaling, so that verify rebuilds the demand the run solved
        "heatwave_factor": result.heatwave_factor,
        "total_unserved_mwh": result.total_unserved_mwh,
        "demand_energy_mwh": result.demand_energy_mwh,
        "percent_unserved": result.percent_unserved,
        "peak_shed_mw": result.peak_shed_mw,
        "peak_hour": result.peak_hour,
        "customers_affected": result.customers_affected,
        "files": {},
    }
    if costs is not None:
        # the run's prices, so that verify checks its spends without being told them
        manifest["attack_costs"] = {
            "budget": float(costs.budget),
            "gen": dict(zip([g.id for g in net.generators], costs.cg.tolist())),
            "flow": dict(zip([e.id for e in net.edges], costs.cf.tolist())),
            "angle": dict(zip([e.id for e in net.edges], costs.ct.tolist())),
        }

    def record(name: str, count: int):
        manifest["files"][name] = {"rows": count}

    H = result.unserved.shape[0]
    node_order = sorted(range(len(result.node_ids)), key=lambda j: result.node_ids[j])

    rows = [(h, result.node_ids[j], fmt(result.unserved[h, j]))
            for j in node_order for h in range(H)]
    record("unserved_timeseries.csv",
           _write_csv(outdir / "unserved_timeseries.csv",
                      ["hour", "node", "unserved_mw"], rows))

    zrows = []
    shares = net.customer_shares()
    for j in node_order:
        dem = float(result.demand_used[:, j].sum())
        uns = float(result.unserved[:, j].sum())
        pct = 100.0 * uns / dem if dem > 0 else 0.0
        zcust = int(round((uns / dem if dem > 0 else 0.0)
                          * shares[j] * result.total_customers))
        zrows.append((result.node_ids[j], fmt(dem), fmt(uns), fmt(pct), zcust))
    record("zonal_summary.csv",
           _write_csv(outdir / "zonal_summary.csv",
                      ["node", "demand_mwh", "unserved_mwh", "percent_unserved",
                       "customers_affected"], zrows))

    arows = []
    if result.plan is not None and costs is not None:
        for season, hour, ctype, entity, z, spend in attack_rows(result.plan, net, costs):
            arows.append((season, hour, ctype, entity, fmt(z, 17), fmt(spend, 17)))
    arows.sort(key=lambda r: (r[3], r[1], r[2]))
    record("attack_strategy.csv",
           _write_csv(outdir / "attack_strategy.csv",
                      ["season", "hour", "component_type", "entity", "z_value",
                       "spend"], arows))

    srows = [(region, sector, fmt(pct, 12))
             for region, sector, pct in sorted(shock_rows(result))]
    record("shock.csv",
           _write_csv(outdir / "shock.csv",
                      ["region", "sector", "percent_reduction"], srows))

    if result.opf_hours:
        orows = []
        for sol in result.opf_hours:
            for season, hour, entity, quantity, value in solution_rows(sol, net):
                orows.append((season, hour, entity, quantity, fmt(value, 17)))
        record("opf_solution.csv",
               _write_csv(outdir / "opf_solution.csv",
                          ["season", "hour", "entity", "quantity", "value"], orows))

    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def export_sweep(
    points: list[SweepPoint],
    outdir: str | Path,
    net: PowerNetwork,
) -> dict:
    """One subdirectory per iteration plus a sweep summary CSV."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = []
    manifest: dict = {"parameter": points[0].parameter if points else "",
                      "iterations": len(points), "files": {}}
    for pt in points:
        sub = outdir / f"iter{pt.iteration}"
        for label, res in (("cyberattack", pt.cyberattack), ("compound", pt.compound)):
            export_results(res, sub / label, net, pt.costs)
        summary.append((pt.iteration, fmt(pt.multiplier, 12), fmt(pt.cost_ratio, 12),
                        fmt(pt.budget, 12),
                        fmt(pt.cyberattack.total_unserved_mwh, 12),
                        fmt(pt.compound.total_unserved_mwh, 12)))
    n = _write_csv(outdir / "sweep_summary.csv",
                   ["iteration", "multiplier", "wire_over_gen_cost_ratio", "budget",
                    "cyberattack_unserved_mwh", "compound_unserved_mwh"], summary)
    manifest["files"]["sweep_summary.csv"] = {"rows": n}
    (outdir / "manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest


def read_solution_csv(path: str | Path) -> dict[tuple[str, int], dict[str, dict[str, float]]]:
    """Load opf_solution.csv back as {(season, hour): {quantity: {entity: value}}}."""
    out: dict[tuple[str, int], dict[str, dict[str, float]]] = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            key = (row["season"], int(row["hour"]))
            out.setdefault(key, {}).setdefault(row["quantity"], {})[row["entity"]] = \
                float(row["value"])
    return out


def rebuild_opf_solution(
    net: PowerNetwork,
    season: str,
    hour: int,
    data: dict[str, dict[str, float]],
    demand: np.ndarray,
    voll: np.ndarray,
) -> OpfSolution:
    """Reassemble an OpfSolution from exported rows (for the verify command).

    Raises ValueError naming the first (quantity, entity) row that is missing.
    """
    def value(quantity: str, entity: str) -> float:
        try:
            return data[quantity][entity]
        except KeyError:
            raise ValueError(f"{season}/{hour}: no {quantity} row for {entity}") from None

    arrays = {name: np.array([value(name, item.id) for item in getattr(net, kind)])
              for kind, names in OPF_ARRAYS.items() for name in names}
    return OpfSolution(
        season=season, hour=hour, **arrays,
        delta=value("delta", "system"), objective=value("objective", "system"),
        demand=demand, voll=voll, shed_cost=float(voll @ arrays["u"]),
    )


def read_manifest(soldir: str | Path) -> dict | None:
    """A run directory's manifest.json, parsed, or None when it has none.

    Its ``heatwave_factor``, when present, is returned as a float.  Raises
    ValueError, its message starting with the file name, when the file is
    not a JSON object, its ``files`` entry is there but not an object, or
    that factor is not a finite positive number.
    """
    path = Path(soldir) / "manifest.json"
    if not path.exists():
        return None
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path.name}: not JSON ({exc})") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("files", {}), dict):
        raise ValueError(f"{path.name}: not a JSON object with a files object")
    factor = manifest.get("heatwave_factor")
    if factor is not None:
        try:
            value = float(factor)
        except (TypeError, ValueError):
            value = np.nan
        if not 0 < value < np.inf:
            raise ValueError(f"{path.name}: heatwave_factor is {factor!r}, not a finite "
                             f"positive number")
        manifest["heatwave_factor"] = value
    return manifest


def check_run_totals(soldir: str | Path, manifest: dict | None,
                     unserved: dict[tuple[str, int], np.ndarray],
                     profile: DemandProfile, net: PowerNetwork) -> None:
    """Check a run's manifest.json headline numbers and its shock.csv
    against its unserved power and demand.

    ``manifest`` is the run's manifest as :func:`read_manifest` returns it
    (None without one).  ``unserved`` maps each (season, hour) of
    opf_solution.csv to the hour's ``u`` in network node order, and
    ``profile`` is the demand the run dispatched.  Over the manifest's
    season, :func:`scenarios.shed_metrics` re-derives the numbers as the
    run derived them.  ``total_unserved_mwh``, ``peak_shed_mw``,
    ``percent_unserved`` and each region's shock.csv ``percent_reduction``
    must match within a relative ``MANIFEST_RTOL`` and
    ``customers_affected`` exactly; ``peak_hour`` must be an hour whose shed
    is that peak, within the same tolerance, and shock.csv must have one
    ``Utilities`` row per network node.  Nothing is checked without a
    manifest, and shock.csv only when it is present or the manifest lists
    it.  Raises ValueError, its message starting with the
    file name, on a mismatch or a missing entry.
    """
    if manifest is None:
        return
    path = Path(soldir) / "manifest.json"
    keys = ("total_unserved_mwh", "peak_shed_mw", "peak_hour", "percent_unserved",
            "customers_affected")
    try:
        season = manifest["season"]
        claimed = {key: float(manifest[key]) for key in keys}
    except KeyError as exc:
        raise ValueError(f"{path.name}: no entry {exc}") from None
    except (TypeError, ValueError):
        raise ValueError(f"{path.name}: {', '.join(keys)} are not all numbers") from None
    hours = sorted(h for s, h in unserved if s == season)
    if not hours:
        raise ValueError(f"{path.name}: no opf_solution.csv rows for its season {season!r}")
    u = np.array([unserved[season, h] for h in hours])
    derived = shed_metrics(u, np.asarray(profile.demand[season])[hours], net.total_customers)
    derived["percent_unserved"] = percent_unserved(derived["total_unserved_mwh"],
                                                   derived["demand_energy_mwh"])
    hourly = u.sum(axis=1)
    peak = derived["peak_shed_mw"]

    def close(a: float, b: float) -> bool:
        return abs(a - b) <= MANIFEST_RTOL * max(abs(a), abs(b))  # NaN fails too
    matches = {key: close(claimed[key], derived[key])
               for key in ("total_unserved_mwh", "peak_shed_mw", "percent_unserved")}
    matches["customers_affected"] = claimed["customers_affected"] == derived["customers_affected"]
    for key, ok in matches.items():
        if not ok:
            raise ValueError(f"{path.name}: {key} is {manifest[key]!r}, but the u rows of "
                             f"opf_solution.csv give {derived[key]!r}")
    hour = claimed["peak_hour"]
    if hour not in hours or not close(float(hourly[hours.index(hour)]), peak):
        raise ValueError(f"{path.name}: peak_hour is {manifest['peak_hour']!r}, but the u "
                         f"rows of opf_solution.csv peak at hour {hours[int(hourly.argmax())]}")

    shock = Path(soldir) / "shock.csv"
    if not shock.exists():
        if "shock.csv" in manifest.get("files", {}):
            raise ValueError(f"{shock.name}: listed in {path.name} but missing")
        return
    want = dict(zip((nd.id for nd in net.nodes), derived["shock_percent"].tolist()))
    with open(shock, newline="") as fh:
        rows = list(csv.DictReader(fh))
    regions = [row.get("region") for row in rows]
    if sorted(regions, key=str) != sorted(want):
        raise ValueError(f"{shock.name}: regions {regions} are not the network's nodes "
                         f"{sorted(want)}, one row each")
    for row in rows:
        region, text = row["region"], row.get("percent_reduction")
        try:
            value = float(text)
        except (TypeError, ValueError):
            raise ValueError(f"{shock.name}: percent_reduction of {region} is "
                             f"{text!r}, not a number") from None
        if row.get("sector") != SECTOR_TAG:
            raise ValueError(f"{shock.name}: sector of {region} is {row.get('sector')!r}, "
                             f"not {SECTOR_TAG!r}")
        if not close(value, want[region]):
            raise ValueError(f"{shock.name}: percent_reduction of {region} is {text}, "
                             f"but the u rows of opf_solution.csv give {want[region]!r}")


def read_attack_costs(manifest: dict | None, net: PowerNetwork) -> AttackCosts | None:
    """The attack prices and budget a run's manifest records, or None.

    ``manifest`` is as :func:`read_manifest` returns it.  None when it or
    its ``attack_costs`` entry is absent (a run exported without prices).
    Raises ValueError, its message starting with the file name, when the
    entry lacks the budget or the price of an entity of ``net``, or holds
    prices or a budget an attacker cannot have.
    """
    record = None if manifest is None else manifest.get("attack_costs")
    if record is None:
        return None
    kinds = (("gen", net.generators), ("flow", net.edges), ("angle", net.edges))
    try:
        return AttackCosts(*(np.array([float(record[kind][item.id]) for item in items])
                             for kind, items in kinds), float(record["budget"]))
    except KeyError as exc:
        raise ValueError(f"manifest.json: attack_costs has no entry {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest.json: attack_costs: {exc}") from None


def read_attack_csv(path: str | Path, net: PowerNetwork, costs: AttackCosts
                    ) -> dict[tuple[str, int], dict[str, np.ndarray]]:
    """Load attack_strategy.csv as {(season, hour): {zg, zf, zt}} arrays.

    Raises ValueError naming the file and line of a row whose entity the
    network lacks, whose component_type is not gen, flow or angle, whose
    z_value lies outside [0, capacity] of its component (a generator's
    capacity is what lies above its must-run floor), or whose spend is not
    z_value times the component's price in ``costs`` (both within a
    relative ``ATTACK_RTOL``); and naming the file and season when the
    season's spends add up to more than the budget in ``costs`` (within a
    relative ``ATTACK_RTOL`` too).
    """
    edges = {e.id: k for k, e in enumerate(net.edges)}
    g_lo, g_up = net.gen_limits()
    # component type -> (attack array, entity index, capacity, price)
    index = {"gen": ("zg", {g.id: k for k, g in enumerate(net.generators)},
                     g_up - g_lo, costs.cg),
             "flow": ("zf", edges, net.flow_limits(), costs.cf),
             "angle": ("zt", edges, net.angle_limits(), costs.ct)}
    out: dict[tuple[str, int], dict[str, np.ndarray]] = {}
    spent: dict[str, float] = {}  # per season: the budget is seasonal
    with open(path, newline="") as fh:
        # line 1 is the header
        for ln, row in enumerate(csv.DictReader(fh), start=2):
            kind, entity = row["component_type"], row["entity"]
            if kind not in index:
                raise ValueError(f"{path}:{ln}: unknown component_type {kind!r}")
            name, ids, capacity, price = index[kind]
            if entity not in ids:
                raise ValueError(f"{path}:{ln}: unknown {kind} entity {entity!r}")
            k = ids[entity]
            z, spend = float(row["z_value"]), float(row["spend"])
            cap = float(capacity[k])
            if not 0.0 <= z <= cap * (1.0 + ATTACK_RTOL):
                raise ValueError(f"{path}:{ln}: z_value {z!r} outside [0, {cap!r}], "
                                 f"the capacity of {kind} {entity}")
            cost = z * float(price[k])
            if not abs(spend - cost) <= ATTACK_RTOL * abs(cost):  # NaN fails too
                raise ValueError(f"{path}:{ln}: spend {spend!r} is not z_value x price "
                                 f"= {cost!r}")
            slot = out.setdefault((row["season"], int(row["hour"])), {
                "zg": np.zeros(net.num_generators),
                "zf": np.zeros(net.num_edges),
                "zt": np.zeros(net.num_edges),
            })
            slot[name][k] = z
            spent[row["season"]] = spent.get(row["season"], 0.0) + spend
    for season, total in sorted(spent.items()):
        if not total <= costs.budget * (1.0 + ATTACK_RTOL):
            raise ValueError(f"{path}: {season} spends {total!r} in total, more than "
                             f"the budget {costs.budget!r}")
    return out
