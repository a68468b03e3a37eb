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

from .attack import CERT_TOL, AttackCosts
from .dcopf import OpfLayout, OpfSolution
from .kkt import kkt_residuals, residual_rows, verify_equilibrium
from .network import DemandProfile, PowerNetwork, apply_heatwave
from .scenarios import ScenarioConfig, ScenarioResult, SweepPoint, _attacked, _metrics

SECTOR_TAG = "Utilities"
ATTACK_RTOL = 1e-9  # relative tolerance of read_attack_csv's capacity and budget checks
SOLUTION_COLUMNS = ["season", "hour", "entity", "quantity", "value"]
# opf_solution.csv's quantities per entity kind (a PowerNetwork list
# attribute): one row per entity and quantity, in this order
SOLUTION_QUANTITIES = {
    "generators": ("g", "rho_g_lo", "rho_g_up"),
    "edges": ("f", "pi_f", "rho_f_lo", "rho_f_up", "rho_th_lo", "rho_th_up"),
    "nodes": ("u", "theta", "pi_d", "rho_u_lo", "rho_u_up"),
}
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


def _make_dir(path: str | Path) -> Path:
    """``path`` as a directory, made with its parents if missing; OSError
    naming the directory when it cannot be made."""
    path = Path(path)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {path}: {exc}") from exc
    return path


def solution_layout(net: PowerNetwork) -> list[tuple[str, str, int | None]]:
    """One hour's rows of opf_solution.csv, in file order, as (entity,
    quantity, position of the value in the equilibrium point of ``net``'s
    solutions); the last row, the ``system`` objective, is not in the point
    and has position None."""
    blocks = OpfLayout.of(net).blocks
    rows = [(item.id, name, blocks[name].start + k)
            for kind, names in SOLUTION_QUANTITIES.items()
            for k, item in enumerate(getattr(net, kind)) for name in names]
    return rows + [("system", "delta", blocks["delta"].start), ("system", "objective", None)]


def solution_rows(sol: OpfSolution, layout: list[tuple[str, str, int | None]]
                  ) -> list[tuple]:
    """Flatten a solution to (season, hour, entity, quantity, value) rows
    in the order of ``layout``, as :func:`solution_layout` gives it."""
    return [(sol.season, sol.hour, entity, quantity,
             sol.objective if k is None else sol.point[k])
            for entity, quantity, k in layout]


def attack_rows(attacks: dict[tuple[str, int], dict[str, np.ndarray]], net: PowerNetwork,
                costs: AttackCosts) -> list[tuple]:
    """Strategy breakdown rows: (season, hour, component type, entity, z, spend).

    ``attacks`` maps each (season, hour) to its ``zg``, ``zf`` and ``zt``
    arrays, as :func:`read_attack_csv` returns them.
    """
    rows = []
    for (season, hour), z in attacks.items():
        zg, zf, zt = z["zg"], z["zf"], z["zt"]
        for k, gen in enumerate(net.generators):
            if zg[k] > 1e-9:
                rows.append((season, hour, "gen", gen.id, zg[k], zg[k] * costs.cg[k]))
        for e, edge in enumerate(net.edges):
            if zf[e] > 1e-9:
                rows.append((season, hour, "flow", edge.id, zf[e], zf[e] * costs.cf[e]))
            if zt[e] > 1e-9:
                rows.append((season, hour, "angle", edge.id, zt[e], zt[e] * costs.ct[e]))
    return rows


def shock_rows(result: ScenarioResult) -> list[tuple[str, str, float]]:
    """Per-region percent supply reduction for the downstream economy model."""
    return [(node, SECTOR_TAG, float(result.shock_percent[j]))
            for j, node in enumerate(result.node_ids)]


def _render(
    result: ScenarioResult,
    net: PowerNetwork,
    costs: AttackCosts | None,
    attacks: dict[tuple[str, int], dict[str, np.ndarray]],
) -> tuple[dict[str, tuple[list[str], list[tuple]]], dict]:
    """A run's report files, as {file name: (header, rows)}, and its manifest.

    ``attacks`` holds the attack's zg, zf and zt arrays per (season, hour),
    as :func:`read_attack_csv` returns them; their attack_strategy.csv rows
    are rendered at ``costs``, and none without prices.  The manifest counts
    the opf_solution.csv rows of the result's hourly solutions, one
    :func:`solution_layout` per hour, and lists no such file without them.
    :func:`export_results` writes exactly this, and :func:`verify_run`
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
    if result.opf_hours:
        manifest["files"]["opf_solution.csv"] = {
            "rows": len(result.opf_hours) * len(solution_layout(net))}
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
    outdir = _make_dir(outdir)
    attacks = {} if result.plan is None else {
        (p.season, p.hour): {"zg": p.zg, "zf": p.zf, "zt": p.zt} for p in result.plan.hours}
    tables, manifest = _render(result, net, costs, attacks)
    if result.opf_hours:
        layout = solution_layout(net)
        tables["opf_solution.csv"] = (SOLUTION_COLUMNS, [
            (season, hour, entity, quantity, fmt(value, 17)) for sol in result.opf_hours
            for season, hour, entity, quantity, value in solution_rows(sol, layout)])
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
    outdir = _make_dir(outdir)
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
    """Yield (line, cells, hour) for each row of the CSV file at ``path``,
    whose header must be ``columns``; ``hour`` is the row's hour as an int.

    Raises ValueError naming the file and line when the header is another,
    a row has more or fewer cells than the header, or its hour is not an
    integer.  Blank lines are skipped.
    """
    at = columns.index("hour")
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
            try:
                hour = int(cells[at])
            except ValueError:
                raise ValueError(f"{path}:{ln}: hour {cells[at]!r} is not an "
                                 f"integer") from None
            yield ln, cells, hour


def _number(path: str | Path, ln: int, column: str, cell: str) -> float:
    try:
        return float(cell)
    except ValueError:
        raise ValueError(f"{path}:{ln}: {column} {cell!r} is not a number") from None


def read_solutions(path: str | Path, net: PowerNetwork, demand: DemandProfile,
                   season: str) -> list[OpfSolution]:
    """Read opf_solution.csv back as the hourly solutions it holds, on ``demand``.

    The file must be what :func:`export_results` writes: the hours 0..H-1
    of ``season`` in order, each hour's rows in :func:`solution_layout`
    order.  Raises ValueError naming the file and line of a row
    :func:`_read_rows` rejects, of a value that is not a number, or of the
    first row that is not the one expected, with both rows.
    """
    layout = OpfLayout.of(net)
    file_rows = solution_layout(net)
    rows = _read_rows(path, SOLUTION_COLUMNS)
    ln, sols = 1, []
    for hour in range(demand.hours(season)):
        point = np.empty(layout.size)
        hour_cell = str(hour)  # as the exporter writes it: "01" is not hour 1
        for entity, quantity, k in file_rows:
            ln, cells, _ = next(rows, (ln + 1, None, None))
            if (cells is None or cells[1] != hour_cell or cells[3] != quantity
                    or cells[2] != entity or cells[0] != season):
                found = "the end of the file" if cells is None else ",".join(cells)
                raise ValueError(f"{path}:{ln}: expected {season},{hour},{entity},{quantity}"
                                 f", found {found}")
            value = _number(path, ln, "value", cells[4])
            if k is None:
                objective = value
            else:
                point[k] = value
        d, voll = demand.at(season, hour)
        sols.append(OpfSolution(season, hour, objective, d, voll,
                                float(voll @ point[layout.blocks["u"]]), point, layout))
    for ln, cells, _ in rows:  # a row past the last hour's
        raise ValueError(f"{path}:{ln}: expected the end of the file, found {','.join(cells)}")
    return sols


def read_manifest(soldir: str | Path) -> dict:
    """A run directory's manifest.json, parsed.

    Raises ValueError, its message starting with the file name, when the
    directory has no such file, or it is not a JSON object, or its
    ``files`` entry is there but not an object.
    """
    path = Path(soldir) / "manifest.json"
    if not path.exists():
        raise ValueError(f"{path.name}: not found in {soldir}")
    try:
        manifest = json.loads(path.read_text())
    except ValueError as exc:
        raise ValueError(f"{path.name}: not JSON ({exc})") from None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("files", {}), dict):
        raise ValueError(f"{path.name}: not a JSON object with a files object")
    return manifest


def read_attack_costs(manifest: dict, net: PowerNetwork) -> AttackCosts | None:
    """The attack prices and budget a run's manifest records, or None.

    ``manifest`` is as :func:`read_manifest` returns it.  None when its
    ``attack_costs`` entry is absent (a run exported without prices).
    Raises ValueError, its message starting with the file name, when the
    entry lacks the budget or the price of an entity of ``net``, or holds
    prices or a budget an attacker cannot have.
    """
    record = manifest.get("attack_costs")
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


def read_attack_csv(path: str | Path, net: PowerNetwork, costs: AttackCosts | None,
                    hours: set[tuple[str, int]]) -> dict[tuple[str, int], dict[str, np.ndarray]]:
    """Load attack_strategy.csv as {(season, hour): {zg, zf, zt}} arrays.

    Raises ValueError naming the file and line of a row :func:`_read_rows`
    rejects, a row whose entity the network lacks, whose component_type is
    not gen, flow or angle, whose z_value is not a number or lies outside
    [0, capacity] of its component (a generator's capacity is what lies
    above its must-run floor; within a relative ``ATTACK_RTOL``), or that
    repeats the season, hour, component_type and entity of an earlier row,
    or whose season and hour are not one of ``hours``, the (season, hour)
    pairs of the run's opf_solution.csv; and, given ``costs``, naming the
    file and season when the season's z values times their prices add up
    to more than the budget (within a relative ``ATTACK_RTOL`` too).  The
    spend column is not read.
    """
    edges = {e.id: k for k, e in enumerate(net.edges)}
    arr = net.arrays
    # component type -> (attack array, entity index, capacity)
    index = {"gen": ("zg", {g.id: k for k, g in enumerate(net.generators)}, arr.g_span),
             "flow": ("zf", edges, arr.f_cap),
             "angle": ("zt", edges, arr.t_cap)}
    out: dict[tuple[str, int], dict[str, np.ndarray]] = {}
    seen: set[tuple] = set()
    for ln, (season, _, kind, entity, z_cell, _), hour in _read_rows(path, ATTACK_COLUMNS):
        key = (season, hour)
        if key not in hours:
            raise ValueError(f"{path}:{ln}: opf_solution.csv has no hour {season}/{hour}")
        if kind not in index:
            raise ValueError(f"{path}:{ln}: unknown component_type {kind!r}")
        name, ids, capacity = index[kind]
        if entity not in ids:
            raise ValueError(f"{path}:{ln}: unknown {kind} entity {entity!r}")
        if (key, kind, entity) in seen:
            raise ValueError(f"{path}:{ln}: a second {kind} row for {entity} at "
                             f"{season}/{hour}")
        seen.add((key, kind, entity))
        k = ids[entity]
        z = _number(path, ln, "z_value", z_cell)
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
    same = type(have) is type(want) and have == want  # True == 1.0 in Python, not in JSON
    return None if same else f"{where} is {have!r}, where the re-derived run has {want!r}"


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
) -> None:
    """Check a run directory's manifest.json, and every file it lists but
    opf_solution.csv, against what :func:`export_results` writes for
    ``result``: the manifest as parsed JSON, each CSV file line by line as
    text cells.

    ``result`` is the run re-derived from its verified rows, ``costs`` and
    ``attacks`` are read from the directory.  Raises ValueError naming the
    file and the key or line of the first difference.
    """
    tables, want = _render(result, net, costs, attacks)
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


def verify_run(soldir: str | Path, net: PowerNetwork, demand: DemandProfile,
               heatwave_factor: float | None = None, dump: str | Path | None = None
               ) -> tuple[int, float]:
    """Check a run directory against the manifest.json it was exported with,
    as ``gridshock verify`` does; return the number of hourly solutions in
    its opf_solution.csv and their largest KKT residual.

    The prices, budget, scenario, season and heatwave factor are read from
    the manifest before any CSV file; ``heatwave_factor``, when given, must
    be the recorded one.  Every hour :func:`read_solutions` reads must pass
    its equilibrium certificate at ``CERT_TOL`` under the attack
    :func:`read_attack_csv` reads for it; :func:`check_run_files` then
    checks the run re-derived from those hours.  Given ``dump``, every
    hour's residuals go to ``dump``/kkt_residuals.csv first, failed hours
    included.  Raises FileNotFoundError without opf_solution.csv, and
    ValueError, naming the file, at the first check that fails.
    """
    soldir = Path(soldir)
    solfile = soldir / "opf_solution.csv"
    if not solfile.exists():
        raise FileNotFoundError(f"{solfile} not found")
    manifest = read_manifest(soldir)
    costs = read_attack_costs(manifest, net)
    recorded = manifest.get("heatwave_factor")
    try:
        if not isinstance(recorded, (int, float)):
            raise ValueError(f"heatwave_factor is {recorded!r}, not a finite positive number")
        cfg = ScenarioConfig(kind=manifest.get("scenario"), season=manifest.get("season"),
                             heatwave_factor=float(recorded))
        demand.hours(cfg.season)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"manifest.json: {exc}") from None
    factor = cfg.heatwave_factor
    if heatwave_factor is not None and heatwave_factor != factor:
        raise ValueError(f"manifest.json: heatwave_factor is {factor!r}, where "
                         f"--heatwave-factor gives {heatwave_factor!r}")
    profile = apply_heatwave(demand, factor) if factor != 1.0 else demand
    sols = read_solutions(solfile, net, profile, cfg.season)
    attacks = {}
    attack_file = soldir / "attack_strategy.csv"
    if attack_file.exists():
        attacks = read_attack_csv(attack_file, net, costs, {(s.season, s.hour) for s in sols})
    if attacks and costs is None:
        raise ValueError("manifest.json: no attack_costs to price the rows of "
                         "attack_strategy.csv")
    worst, failed, dump_rows = 0.0, None, []
    for sol in sols:
        z = attacks.get((sol.season, sol.hour), {})
        res = kkt_residuals(net, sol, z.get("zg"), z.get("zf"), z.get("zt"))
        worst = max(worst, res.overall_max())
        if dump is not None:
            dump_rows += [(sol.season, sol.hour, *row) for row in residual_rows(res)]
        if failed is None and not verify_equilibrium(res, CERT_TOL):
            failed = f"{sol.season}/{sol.hour}: max residual {res.overall_max():.3e}"
    if dump is not None:
        _write_csv(_make_dir(dump) / "kkt_residuals.csv",
                   ["season", "hour", "block", "index", "residual"], dump_rows)
    if failed is not None:
        raise ValueError(failed)
    check_run_files(soldir, manifest, _metrics(cfg, net, profile, sols), net, costs,
                    attacks if _attacked(cfg) else {})
    return len(sols), worst
