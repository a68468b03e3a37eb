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
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .attack import AttackCosts, attack_rows
from .dcopf import OPF_ARRAYS, OpfSolution, solution_rows
from .network import PowerNetwork
from .scenarios import ScenarioResult, SweepPoint

SECTOR_TAG = "Utilities"
ATTACK_RTOL = 1e-9  # relative tolerance of read_attack_csv's capacity and budget checks
SOLUTION_COLUMNS = ["season", "hour", "entity", "quantity", "value"]
ATTACK_COLUMNS = ["season", "hour", "component_type", "entity", "z_value", "spend"]


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


def _render(
    result: ScenarioResult,
    net: PowerNetwork,
    costs: AttackCosts | None,
    attacks: dict[tuple[str, int], dict[str, np.ndarray]],
    opf_rows: int | None,
) -> tuple[dict[str, tuple[list[str], list[tuple]]], dict]:
    """A run's report files, as {file name: (header, rows)}, and its manifest.

    ``attacks`` holds the attack's zg, zf and zt arrays per (season, hour),
    as :func:`read_attack_csv` returns them; their attack_strategy.csv rows
    are rendered at ``costs``, and none without prices.  ``opf_rows`` is
    the row count of the run's opf_solution.csv, None when it has none.
    :func:`export_results` writes exactly this, and ``gridshock verify``
    compares a run directory with it.
    """
    H = result.unserved.shape[0]
    node_order = sorted(range(len(result.node_ids)), key=lambda j: result.node_ids[j])
    tables = {}

    rows = [(h, result.node_ids[j], fmt(result.unserved[h, j]))
            for j in node_order for h in range(H)]
    tables["unserved_timeseries.csv"] = (["hour", "node", "unserved_mw"], rows)

    zrows = []
    shares = net.arrays.shares
    for j in node_order:
        dem = float(result.demand_used[:, j].sum())
        uns = float(result.unserved[:, j].sum())
        pct = 100.0 * uns / dem if dem > 0 else 0.0
        zcust = int(round((uns / dem if dem > 0 else 0.0)
                          * shares[j] * result.total_customers))
        zrows.append((result.node_ids[j], fmt(dem), fmt(uns), fmt(pct), zcust))
    tables["zonal_summary.csv"] = (["node", "demand_mwh", "unserved_mwh", "percent_unserved",
                                    "customers_affected"], zrows)

    arows = []
    if costs is not None:
        for season, hour, ctype, entity, z, spend in attack_rows(attacks, net, costs):
            arows.append((season, hour, ctype, entity, fmt(z, 17), fmt(spend, 17)))
    arows.sort(key=lambda r: (r[3], r[1], r[2]))
    tables["attack_strategy.csv"] = (ATTACK_COLUMNS, arows)

    srows = [(region, sector, fmt(pct, 12))
             for region, sector, pct in sorted(shock_rows(result))]
    tables["shock.csv"] = (["region", "sector", "percent_reduction"], srows)

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
        "files": {name: {"rows": len(rows)} for name, (_, rows) in tables.items()},
    }
    if opf_rows is not None:
        manifest["files"]["opf_solution.csv"] = {"rows": opf_rows}
    if costs is not None:
        # the run's prices, so that verify checks its spends without being told them
        manifest["attack_costs"] = {
            "budget": float(costs.budget),
            "gen": dict(zip([g.id for g in net.generators], costs.cg.tolist())),
            "flow": dict(zip([e.id for e in net.edges], costs.cf.tolist())),
            "angle": dict(zip([e.id for e in net.edges], costs.ct.tolist())),
        }
    return tables, manifest


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

    attacks = {} if result.plan is None else {
        (p.season, p.hour): {"zg": p.zg, "zf": p.zf, "zt": p.zt} for p in result.plan.hours}
    orows = [(season, hour, entity, quantity, fmt(value, 17))
             for sol in result.opf_hours
             for season, hour, entity, quantity, value in solution_rows(sol, net)]
    tables, manifest = _render(result, net, costs, attacks,
                               len(orows) if result.opf_hours else None)
    if result.opf_hours:
        tables["opf_solution.csv"] = (SOLUTION_COLUMNS, orows)
    for name, (header, rows) in tables.items():
        _write_csv(outdir / name, header, rows)
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


def _read_rows(path: str | Path, columns: list[str]):
    """Yield (line, {column: cell}, (season, hour)) for each row of the CSV
    file at ``path``, whose header must be ``columns``.

    Raises ValueError naming the file and line when the header is another,
    a row has more or fewer cells than the header, or its hour is not an
    integer.  Blank lines are skipped.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != columns:
            raise ValueError(f"{path}:1: expected columns {columns}, got {header}")
        for cells in reader:
            ln = reader.line_num
            if not cells:
                continue
            if len(cells) != len(columns):
                raise ValueError(f"{path}:{ln}: {len(cells)} cells where the header "
                                 f"has {len(columns)}")
            row = dict(zip(columns, cells))
            try:
                hour = int(row["hour"])
            except ValueError:
                raise ValueError(f"{path}:{ln}: hour {row['hour']!r} is not an "
                                 f"integer") from None
            yield ln, row, (row["season"], hour)


def _number(path: str | Path, ln: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{path}:{ln}: {column} {cell!r} is not a number") from None


def read_solution_csv(path: str | Path) -> dict[tuple[str, int], dict[str, dict[str, float]]]:
    """Load opf_solution.csv back as {(season, hour): {quantity: {entity: value}}}.

    Raises ValueError naming the file and line of a row :func:`_read_rows`
    rejects, a value that is not a number, or a second row for the same
    season, hour, quantity and entity.
    """
    out: dict[tuple[str, int], dict[str, dict[str, float]]] = {}
    for ln, row, key in _read_rows(path, SOLUTION_COLUMNS):
        values = out.setdefault(key, {}).setdefault(row["quantity"], {})
        if row["entity"] in values:
            raise ValueError(f"{path}:{ln}: a second {row['quantity']} row for "
                             f"{row['entity']} at {row['season']}/{row['hour']}")
        values[row["entity"]] = _number(path, ln, "value", row["value"])
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


def read_attack_csv(path: str | Path, net: PowerNetwork, costs: AttackCosts | None
                    ) -> dict[tuple[str, int], dict[str, np.ndarray]]:
    """Load attack_strategy.csv as {(season, hour): {zg, zf, zt}} arrays.

    Raises ValueError naming the file and line of a row :func:`_read_rows`
    rejects, a row whose entity the network lacks, whose component_type is
    not gen, flow or angle, whose z_value is not a number or lies outside
    [0, capacity] of its component (a generator's capacity is what lies
    above its must-run floor; within a relative ``ATTACK_RTOL``), or that
    repeats the season, hour, component_type and entity of an earlier row;
    and, given ``costs``, naming the file and season when the season's z
    values times their prices add up to more than the budget (within a
    relative ``ATTACK_RTOL`` too).  The spend column is not read.
    """
    edges = {e.id: k for k, e in enumerate(net.edges)}
    arr = net.arrays
    # component type -> (attack array, entity index, capacity)
    index = {"gen": ("zg", {g.id: k for k, g in enumerate(net.generators)}, arr.g_span),
             "flow": ("zf", edges, arr.f_cap),
             "angle": ("zt", edges, arr.t_cap)}
    out: dict[tuple[str, int], dict[str, np.ndarray]] = {}
    seen: set[tuple] = set()
    for ln, row, key in _read_rows(path, ATTACK_COLUMNS):
        kind, entity = row["component_type"], row["entity"]
        if kind not in index:
            raise ValueError(f"{path}:{ln}: unknown component_type {kind!r}")
        name, ids, capacity = index[kind]
        if entity not in ids:
            raise ValueError(f"{path}:{ln}: unknown {kind} entity {entity!r}")
        if (key, kind, entity) in seen:
            raise ValueError(f"{path}:{ln}: a second {kind} row for {entity} at "
                             f"{row['season']}/{row['hour']}")
        seen.add((key, kind, entity))
        k = ids[entity]
        z = _number(path, ln, "z_value", row["z_value"])
        cap = float(capacity[k])
        if not 0.0 <= z <= cap * (1.0 + ATTACK_RTOL):
            raise ValueError(f"{path}:{ln}: z_value {z!r} outside [0, {cap!r}], "
                             f"the capacity of {kind} {entity}")
        slot = out.setdefault(key, {
            "zg": np.zeros(net.num_generators),
            "zf": np.zeros(net.num_edges),
            "zt": np.zeros(net.num_edges),
        })
        slot[name][k] = z
    if costs is not None:
        for season in sorted({s for s, _ in out}):  # the budget is seasonal
            total = sum(costs.spend(z["zg"], z["zf"], z["zt"])
                        for (s, _), z in out.items() if s == season)
            if not total <= costs.budget * (1.0 + ATTACK_RTOL):
                raise ValueError(f"{path}: {season} spends {total!r} in total, more than "
                                 f"the budget {costs.budget!r}")
    return out


def _json_difference(have, want, where: str = "") -> str | None:
    """The key path where parsed JSON ``have`` first differs from ``want``,
    with both values; None when they are equal."""
    if isinstance(have, dict) and isinstance(want, dict):
        for key in list(want) + [k for k in have if k not in want]:
            at = f"{where}/{key}" if where else key
            if key not in have:
                return f"{at} is missing, where the re-derived run has {want[key]!r}"
            if key not in want:
                return f"{at} is {have[key]!r}, where the re-derived run has no such entry"
            diff = _json_difference(have[key], want[key], at)
            if diff is not None:
                return diff
        return None
    return None if have == want else f"{where} is {have!r}, where the re-derived run has {want!r}"


def _line_difference(header: list[str], have: list[str] | None, want: list[str] | None) -> str:
    if have is None or want is None or len(have) != len(want):
        return (f"{'no line' if have is None else have}, where the re-derived file has "
                f"{'no line' if want is None else want}")
    col = next(c for c, (a, b) in enumerate(zip(have, want)) if a != b)
    return f"{header[col]} is {have[col]!r}, where the re-derived file has {want[col]!r}"


def check_run_files(
    soldir: str | Path,
    manifest: dict,
    result: ScenarioResult,
    net: PowerNetwork,
    costs: AttackCosts | None,
    attacks: dict[tuple[str, int], dict[str, np.ndarray]],
    opf_rows: int,
) -> None:
    """Check a run directory's manifest.json, and every file it lists but
    opf_solution.csv, against what :func:`export_results` writes for
    ``result``: the manifest as parsed JSON, each CSV file line by line as
    text cells.

    ``result`` is the run re-derived from its verified rows, ``costs`` and
    ``attacks`` are read from the directory, and ``opf_rows`` is the number
    of opf_solution.csv rows read.  Raises ValueError naming the file and
    the key or line of the first difference.
    """
    tables, want = _render(result, net, costs, attacks, opf_rows)
    # compared as the file would hold it: JSON types, as json.dumps writes them
    diff = _json_difference(manifest, json.loads(json.dumps(want)))
    if diff is not None:
        raise ValueError(f"manifest.json: {diff}")
    for name, (header, rows) in tables.items():
        path = Path(soldir) / name
        if not path.exists():
            raise ValueError(f"{name}: listed in manifest.json but missing")
        with open(path, newline="") as fh:
            have = list(csv.reader(fh))
        lines = [header] + [[str(cell) for cell in row] for row in rows]
        for ln, (got, line) in enumerate(zip_longest(have, lines), start=1):
            if got != line:
                raise ValueError(f"{name}:{ln}: {_line_difference(header, got, line)}")
