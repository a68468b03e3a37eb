import csv
import json
import shutil

import numpy as np
import pytest

from gridshock.cli import bundled_path, main
from gridshock.network import save_demand, save_network
from support import profile_for, tight_two_bus


@pytest.fixture()
def files(tmp_path):
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 60.0], [10.0, 80.0]])
    net_path = tmp_path / "net.json"
    dem_path = tmp_path / "demand.csv"
    save_network(net, net_path)
    save_demand(prof, dem_path)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("kind = Compound\nbudget = 30\nnode_limit = 0\n")
    return net, net_path, dem_path, cfg_path, tmp_path


def test_scenario_subcommand(files, capsys):
    net, net_path, dem_path, cfg_path, tmp = files
    rc = main(["scenario", "--network", str(net_path), "--demand", str(dem_path),
               "--config", str(cfg_path), "--out", str(tmp / "out")])
    assert rc == 0
    manifest = json.loads((tmp / "out" / "manifest.json").read_text())
    assert len(manifest["files"]) >= 4
    assert "unserved" in capsys.readouterr().out


def test_missing_network_exits_1(files, capsys):
    net, net_path, dem_path, cfg_path, tmp = files
    rc = main(["scenario", "--network", str(tmp / "nope.json"),
               "--demand", str(dem_path), "--out", str(tmp / "x")])
    assert rc == 1
    assert "nope.json" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [
    ("--budget", "nan"), ("--budget", "inf"), ("--cost-ratio", "inf"),
    ("--heatwave-factor", "inf"), ("gen_attack_cost", "nan"), ("node_limit", "-1"),
    # gamma step 11 would price wires at 0
    ("gamma_iterations", "12"), ("gamma_iterations", "-3")])
def test_nonfinite_or_out_of_range_config_exits_1(files, capsys, key, value):
    """A command-line option (``--key``) or a config key out of range."""
    net, net_path, dem_path, cfg_path, tmp = files
    cfg = tmp / "bad.cfg"
    flags = [key, value] if key.startswith("--") else []
    cfg.write_text(cfg_path.read_text() + ("" if flags else f"{key} = {value}\n"))
    rc = main(["attack", "--network", str(net_path), "--demand", str(dem_path),
               "--config", str(cfg), "--out", str(tmp / "atk"), *flags])
    assert rc == 1
    assert key.lstrip("-").replace("-", "_") in capsys.readouterr().err
    assert not (tmp / "atk").exists()


def _infinite_flow_limit(text):
    doc = json.loads(text)
    doc["edges"][0]["flow_limit_mw"] = float("inf")  # json.dumps writes Infinity
    return json.dumps(doc)


@pytest.mark.parametrize("name, edit, command, message", [
    ("demand16.csv", lambda t: t.replace("summer,0,Z05,147.2,", "summer,0,Z05,nan,"),
     "solve-opf", ":6: demand_mw 'nan' is not a finite number"),
    ("demand16.csv", lambda t: t.replace("summer,0,Z05,147.2,", "summer,0,Z05,inf,"),
     "solve-opf", ":6: demand_mw 'inf' is not a finite number"),
    ("demand16.csv", lambda t: t.replace("summer,0,Z05,147.2,2600.0", "summer,0,Z05,147.2,inf"),
     "solve-opf", ":6: voll 'inf' is not a finite number"),
    ("network16.json", _infinite_flow_limit, "attack", ": Infinity is not a JSON number"),
], ids=["demand_nan", "demand_inf", "voll_inf", "flow_limit_infinity"])
def test_nonfinite_input_file_exits_1(tmp_path, capsys, name, edit, command, message):
    # a NaN or an infinity in an input file is bad input, named by file and line,
    # not a solver failure or a run that its own verify rejects
    path = tmp_path / name
    path.write_text(edit(bundled_path(name).read_text()))
    flag = "--demand" if name.endswith(".csv") else "--network"
    assert main([command, flag, str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {path}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _e01_flow_limit(value):
    def edit(text):
        assert text.index('"flow_limit_mw": 600.0') > text.index('"E01"')  # E01 is the first
        return text.replace('"flow_limit_mw": 600.0', f'"flow_limit_mw": {value}', 1)
    return edit


@pytest.mark.parametrize("name, edit, message", [
    ("network16.json", _e01_flow_limit("1e400"),
     ": edge 'E01' has a susceptance or a limit that is not finite and positive"),
    ("network16.json", _e01_flow_limit("-5"),
     ": edge 'E01' has a susceptance or a limit that is not finite and positive"),
    ("demand16.csv", lambda t: t.replace("summer,0,Z05,147.2,", "summer,0,Z05,-5,"),
     ":6: demand_mw '-5' is negative"),
    ("demand16.csv", lambda t: t.replace("summer,0,Z05,147.2,2600.0", "summer,0,Z05,147.2,1"),
     ":6: VOLL '1' must exceed every generator cost (max cost 121.0)"),
], ids=["flow_limit_overflow", "flow_limit_negative", "demand_negative", "voll_below_cost"])
def test_invalid_input_file_exits_1_naming_it(tmp_path, capsys, name, edit, message):
    # JSON's 1e400 reads as an infinity without passing through the NaN and
    # Infinity check, so the network's validation names the file
    path = tmp_path / name
    path.write_text(edit(bundled_path(name).read_text()))
    flag = "--demand" if name.endswith(".csv") else "--network"
    assert main(["solve-opf", flag, str(path), "--out", str(tmp_path / "out")]) == 1
    assert f"error: {path}{message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["solve-opf", "attack", "scenario", "sweep-gamma",
                                     "sweep-beta"])
def test_unknown_season_exits_1(files, capsys, command):
    net, net_path, dem_path, cfg_path, tmp = files
    rc = main([command, "--network", str(net_path), "--demand", str(dem_path),
               "--config", str(cfg_path), "--season", "winter", "--out", str(tmp / "out")])
    assert rc == 1
    assert capsys.readouterr().err == ("error: season 'winter' is not in the demand profile, "
                                       "whose seasons are summer\n")
    assert not (tmp / "out").exists()


def test_solve_opf_and_dump_lp(files):
    net, net_path, dem_path, cfg_path, tmp = files
    rc = main(["solve-opf", "--network", str(net_path), "--demand", str(dem_path),
               "--out", str(tmp / "opf"), "--dump-lp"])
    assert rc == 0
    assert (tmp / "opf" / "opf_solution.csv").exists()
    assert (tmp / "opf" / "dcopf_h0.lp").read_text().startswith("Minimize")


def test_attack_subcommand(files, capsys):
    net, net_path, dem_path, cfg_path, tmp = files
    rc = main(["attack", "--network", str(net_path), "--demand", str(dem_path),
               "--config", str(cfg_path), "--budget", "30",
               "--out", str(tmp / "atk")])
    assert rc == 0
    with open(tmp / "atk" / "attack_strategy.csv") as fh:
        assert len(list(csv.DictReader(fh))) > 0


def test_attack_dump_lp_uses_heated_demand(files):
    net, net_path, dem_path, cfg_path, tmp = files
    factor = 1.5
    rc = main(["attack", "--network", str(net_path), "--demand", str(dem_path),
               "--config", str(cfg_path), "--heatwave-factor", str(factor),
               "--out", str(tmp / "atk"), "--dump-lp"])
    assert rc == 0
    (dump,) = (tmp / "atk").glob("attack_h*.lp")
    hour = int(dump.stem[len("attack_h"):])
    balance = {}
    for line in dump.read_text().splitlines():
        if line.startswith(" bal["):
            label, rhs = line.split(":")[0].strip(), float(line.rsplit("=", 1)[1])
            balance[label] = rhs
    demand = np.array([[10.0, 60.0], [10.0, 80.0]])[hour] * factor
    assert balance == pytest.approx({f"bal[{hour}][{n}]": d for n, d in enumerate(demand)})
    # the budget row is the plan's spend on that hour, not an even share
    with open(tmp / "atk" / "attack_strategy.csv", newline="") as fh:
        spend = sum(float(r["spend"]) for r in csv.DictReader(fh) if int(r["hour"]) == hour)
    (bound,) = (float(line.rsplit("<=", 1)[1]) for line in dump.read_text().splitlines()
                if line.startswith(f" budget[{hour}]_up:"))
    assert spend > 0
    assert bound == pytest.approx(spend, rel=1e-12)


@pytest.mark.parametrize("config, flags, scenario, factor", [
    ("compound.cfg", [], "Compound", 1.09),
    ("cyberattack.cfg", [], "Cyberattack", 1.0),
    ("cyberattack.cfg", ["--heatwave-factor", "1.09"], "Compound", 1.09),
    ("compound.cfg", ["--heatwave-factor", "1.0"], "Cyberattack", 1.0),
])
def test_attack_runs_the_configs_scenario(tmp_path, config, flags, scenario, factor):
    # --heatwave-factor decides when given; otherwise the config's kind does
    out = tmp_path / "atk"
    assert main(["attack", "--config", str(bundled_path(config)), "--out", str(out),
                 *flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == scenario
    assert manifest["heatwave_factor"] == factor


@pytest.mark.parametrize("config, flags, scenario, factor", [
    ("heatwave.cfg", [], "Heatwave", 1.09),
    ("baseline.cfg", [], "Baseline", 1.0),
    ("baseline.cfg", ["--heatwave-factor", "1.09"], "Heatwave", 1.09),
    ("heatwave.cfg", ["--heatwave-factor", "1.0"], "Baseline", 1.0),
])
def test_solve_opf_runs_the_configs_scenario(tmp_path, config, flags, scenario, factor):
    # the same rule as attack's: --heatwave-factor decides when given,
    # otherwise the config's kind does
    out = tmp_path / "opf"
    assert main(["solve-opf", "--config", str(bundled_path(config)), "--out", str(out),
                 *flags]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["scenario"] == scenario
    assert manifest["heatwave_factor"] == factor


def test_scenario_without_an_attacker_records_no_prices(tmp_path, capsys):
    # Baseline attacks nothing, so its manifest names no budget or prices,
    # as solve-opf's does, and verify still accepts the run
    out = tmp_path / "baseline"
    assert main(["scenario", "--config", str(bundled_path("baseline.cfg")),
                 "--out", str(out)]) == 0
    assert "attack_costs" not in json.loads((out / "manifest.json").read_text())
    capsys.readouterr()
    assert main(["verify", "--solution", str(out)]) == 0
    assert capsys.readouterr().out.startswith("verified 24 hourly solutions")


@pytest.mark.parametrize("command, flag", [
    ("solve-opf", ["--budget", "300"]),
    ("scenario", ["--dump-lp"]),
    ("sweep-gamma", ["--dump-lp"]),
    ("sweep-beta", ["--dump-lp"]),
    ("verify", ["--config", "run.cfg", "--solution", "run"]),
])
def test_a_subcommand_rejects_a_flag_it_does_not_read(tmp_path, capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        main([command, "--out", str(tmp_path / "out"), *flag])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_verify_roundtrip_and_corruption(files):
    net, net_path, dem_path, cfg_path, tmp = files
    assert main(["attack", "--network", str(net_path), "--demand", str(dem_path),
                 "--config", str(cfg_path), "--heatwave-factor", "1.09",
                 "--out", str(tmp / "run")]) == 0
    assert main(["verify", "--network", str(net_path), "--demand", str(dem_path),
                 "--heatwave-factor", "1.09", "--solution", str(tmp / "run")]) == 0
    # corrupt one value: the certificate must catch it
    sol = tmp / "run" / "opf_solution.csv"
    rows = sol.read_text().splitlines()
    for i, row in enumerate(rows):
        parts = row.split(",")
        if len(parts) == 5 and parts[3] == "g" and float(parts[4]) > 1.0:
            parts[4] = repr(float(parts[4]) + 7.5)
            rows[i] = ",".join(parts)
            break
    sol.write_text("\n".join(rows) + "\n")
    assert main(["verify", "--network", str(net_path), "--demand", str(dem_path),
                 "--heatwave-factor", "1.09", "--solution", str(tmp / "run")]) == 2


def test_verify_rejects_missing_hour_or_row(files, capsys):
    # opf_solution.csv is read in the exporter's order: the first row out of
    # place fails, naming the line, the row expected there and the row found
    net, net_path, dem_path, cfg_path, tmp = files
    assert main(["attack", "--network", str(net_path), "--demand", str(dem_path),
                 "--config", str(cfg_path), "--out", str(tmp / "run")]) == 0
    sol = tmp / "run" / "opf_solution.csv"
    header, *rows = sol.read_text().splitlines()
    verify = ["verify", "--network", str(net_path), "--demand", str(dem_path),
              "--solution", str(tmp / "run")]
    assert main(verify) == 0
    capsys.readouterr()

    def key(row):
        return ",".join(row.split(",")[:4])

    # a whole hour gone
    hour0 = [r for r in rows if r.split(",")[1] != "1"]
    sol.write_text("\n".join([header] + hour0) + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out == (f"FAIL {sol}:{len(hour0) + 2}: expected "
                                       f"{key(rows[len(hour0)])}, found the end of the file\n")
    # one row gone whose value is zero, so a zero fill would still verify
    gone = next(i for i, r in enumerate(rows) if float(r.split(",")[4]) == 0.0)
    sol.write_text("\n".join([header] + rows[:gone] + rows[gone + 1:]) + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out == (f"FAIL {sol}:{gone + 2}: expected {key(rows[gone])}, "
                                       f"found {rows[gone + 1]}\n")
    # a second row for one value: only one of the two could be certified
    sol.write_text("\n".join([header] + rows[:gone + 1] + rows[gone:]) + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out == (f"FAIL {sol}:{gone + 3}: expected "
                                       f"{key(rows[gone + 1])}, found {rows[gone]}\n")
    # an hour the demand profile does not have
    sol.write_text("\n".join([header] + rows + [r.replace("summer,0,", "summer,2,", 1)
                                                for r in rows if r.startswith("summer,0,")])
                   + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out == (f"FAIL {sol}:{len(rows) + 2}: expected the end of "
                                       f"the file, found {rows[0].replace(',0,', ',2,', 1)}\n")
    # a season the demand profile does not have
    sol.write_text("\n".join([header] + [r.replace("summer,", "winter,", 1) for r in rows])
                   + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out == (f"FAIL {sol}:2: expected {key(rows[0])}, found "
                                       f"{rows[0].replace('summer,', 'winter,', 1)}\n")


def test_verify_rejects_unknown_attack_entity(tmp_path, capsys):
    run = tmp_path / "cyber"
    assert main(["scenario", "--config", str(bundled_path("cyberattack.cfg")),
                 "--out", str(run)]) == 0
    assert main(["verify", "--solution", str(run)]) == 0
    strategy = run / "attack_strategy.csv"
    text = strategy.read_text()
    assert ",gen,G15," in text
    strategy.write_text(text.replace(",gen,G15,", ",gen,GXX,"))
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL ") and "unknown gen entity 'GXX'" in out


@pytest.fixture(scope="module")
def cyber_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("cyber") / "run"
    assert main(["scenario", "--config", str(bundled_path("cyberattack.cfg")),
                 "--out", str(run)]) == 0
    return run


@pytest.mark.parametrize("row, message", [
    ("summer,17,flow,E15,48,800", "spend is '800', where the re-derived file has '240'"),
    ("summer,17,flow,E15,48,nan", "spend is 'nan', where the re-derived file has '240'"),
    ("summer,17,flow,E15,900,4500", "z_value 900.0 outside [0, 860.0]"),
    ("summer,17,flow,E15,-48,-240", "z_value -48.0 outside [0, 860.0]"),
], ids=["spend", "spend_nan", "above_capacity", "below_zero"])
def test_verify_rejects_a_bad_attack_row(cyber_run, tmp_path, capsys, row, message):
    run = tmp_path / "run"
    shutil.copytree(cyber_run, run)
    strategy = run / "attack_strategy.csv"
    text = strategy.read_text()
    assert "summer,17,flow,E15,48,240" in text  # line 2: rows sort by entity
    assert main(["verify", "--solution", str(run)]) == 0
    strategy.write_text(text.replace("summer,17,flow,E15,48,240", row))
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL ") and f"attack_strategy.csv:2: {message}" in out


# verify checks every run against its manifest, so each copy keeps it
WITH_MANIFEST = pytest.mark.parametrize("manifest", ["manifest.json"], ids=["manifest"])


def _copy_run(run, tmp_path, manifest="manifest.json"):
    """A copy of ``run``, which holds ``manifest``."""
    copy = tmp_path / "run"
    shutil.copytree(run, copy)
    assert (copy / manifest).exists()
    return copy


def _edit_lines(path, edit):
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")


@WITH_MANIFEST
@pytest.mark.parametrize("name, edit, line, message", [
    ("opf_solution.csv", lambda ls: [ls[0].replace("quantity", "qty")] + ls[1:], 1,
     "expected columns ['season', 'hour', 'entity', 'quantity', 'value'], got "
     "['season', 'hour', 'entity', 'qty', 'value']"),
    ("opf_solution.csv", lambda ls: ls + ["summer,3"], None,
     "2 cells where the header has 5"),
    ("attack_strategy.csv", lambda ls: [ls[0].replace("z_value", "z")] + ls[1:], 1,
     "expected columns ['season', 'hour', 'component_type', 'entity', 'z_value', "
     "'spend'], got ['season', 'hour', 'component_type', 'entity', 'z', 'spend']"),
    ("attack_strategy.csv", lambda ls: ls[:1] + ["summer,x,flow,E15,48,240"] + ls[2:], 2,
     "hour 'x' is not an integer"),
    ("attack_strategy.csv", lambda ls: ls[:1] + ["summer,17,flow,E15,a lot,240"] + ls[2:], 2,
     "z_value 'a lot' is not a number"),
], ids=["solution_header", "solution_short_row", "attack_header", "attack_hour",
        "attack_z_value"])
def test_verify_rejects_a_malformed_csv(cyber_run, tmp_path, capsys, manifest, name, edit,
                                        line, message):
    # a renamed column or a short row fails as the file and line, not as a traceback
    run = _copy_run(cyber_run, tmp_path, manifest)
    path = run / name
    _edit_lines(path, edit)
    if line is None:  # the appended last line
        line = len(path.read_text().splitlines())
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out == f"FAIL {path}:{line}: {message}\n"


@WITH_MANIFEST
def test_verify_rejects_a_repeated_attack_row(cyber_run, tmp_path, capsys, manifest):
    # a second row for one component would overwrite the first one's z_value
    run = _copy_run(cyber_run, tmp_path, manifest)
    strategy = run / "attack_strategy.csv"
    _edit_lines(strategy, lambda ls: ls[:2] + ls[1:])
    assert strategy.read_text().splitlines()[2] == "summer,17,flow,E15,48,240"
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out == (f"FAIL {strategy}:3: a second flow row for E15 at "
                                       f"summer/17\n")

@WITH_MANIFEST
@pytest.mark.parametrize("name, added, line, message", [
    # rows past the last one the exporter writes
    ("opf_solution.csv", ["summer,3,ZZZ,g,12345", "summer,3,G01,bogus,1"], None,
     "expected the end of the file, found summer,3,ZZZ,g,12345"),
    # a row for a winter hour of the summer run, spending within the budget's tolerance
    ("attack_strategy.csv", ["winter,3,gen,G01,2.0000000000000001e-09,2.0000000000000001e-09"],
     3, "opf_solution.csv has no hour winter/3"),
], ids=["unknown_entity_or_quantity", "attack_hour_without_solution"])
def test_verify_rejects_rows_the_run_does_not_hold(cyber_run, tmp_path, capsys, manifest, name,
                                                   added, line, message):
    """Rows inserted at ``line`` (None: appended) fail there, also when the
    manifest counts them."""
    run = _copy_run(cyber_run, tmp_path, manifest)
    path = run / name
    if line is None:
        line = len(path.read_text().splitlines()) + 1
    _edit_lines(path, lambda ls: ls[:line - 1] + added + ls[line - 1:])
    rows = json.loads((run / manifest).read_text())["files"][name]["rows"]
    _set_entry(run / manifest, ["files", name, "rows"], rows + len(added))
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out == f"FAIL {path}:{line}: {message}\n"


def test_verify_reads_the_hour_as_the_exporter_writes_it(cyber_run, tmp_path, capsys):
    # int() reads "01" as hour 1, but the exporter never writes it so
    run = _copy_run(cyber_run, tmp_path)
    sol = run / "opf_solution.csv"
    _edit_lines(sol, lambda ls: [ln.replace("summer,1,", "summer,01,", 1) for ln in ls])
    line = next(i for i, ln in enumerate(sol.read_text().splitlines(), start=1)
                if ln.startswith("summer,01,"))
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out.startswith(
        f"FAIL {sol}:{line}: expected summer,1,G01,g, found summer,01,G01,g,")


@pytest.mark.parametrize("factor", ["inf", "0"])
def test_verify_rejects_a_bad_heatwave_factor_flag(cyber_run, capsys, factor):
    # a bad flag is bad usage (exit 1), not a failed check of the run
    assert main(["verify", "--solution", str(cyber_run), "--heatwave-factor", factor]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: heatwave_factor must be finite and positive")


def _residual_rows(path):
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    return header, rows


def test_verify_dump_lp_writes_every_hours_residuals(cyber_run, tmp_path, capsys):
    # --dump-lp writes kkt_residuals.csv into --out, also when an hour fails
    run = tmp_path / "run"
    shutil.copytree(cyber_run, run)
    passing, failing = tmp_path / "pass", tmp_path / "fail"
    assert main(["verify", "--solution", str(run), "--dump-lp", "--out", str(passing)]) == 0
    sol = run / "opf_solution.csv"
    _edit_lines(sol, lambda ls: [ls[0], ls[1].rsplit(",", 1)[0] + ",12345"] + ls[2:])
    assert main(["verify", "--solution", str(run), "--dump-lp", "--out", str(failing)]) == 2
    assert capsys.readouterr().out.splitlines()[1].startswith("FAIL summer/0: max residual ")
    for out in (passing, failing):
        header, rows = _residual_rows(out / "kkt_residuals.csv")
        assert header == ["season", "hour", "block", "index", "residual"]
        assert sorted({(season, int(hour)) for season, hour, *_ in rows}) == [
            ("summer", h) for h in range(24)]
    # the same residual rows, but for the changed hour
    _, good = _residual_rows(passing / "kkt_residuals.csv")
    _, bad = _residual_rows(failing / "kkt_residuals.csv")
    assert len(good) == len(bad)
    assert {r[1] for r, s in zip(good, bad) if r != s} == {"0"}


def _drop_recorded_prices(run):
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["attack_costs"]
    (run / "manifest.json").write_text(json.dumps(manifest))


def test_verify_checks_spend_at_the_recorded_prices(cyber_run, tmp_path, capsys):
    # spends are re-derived at the prices the run's manifest records: at a
    # recorded E15 flow price of 4, the 48 MW cut costs 192, not the 240 spent
    run = tmp_path / "run"
    shutil.copytree(cyber_run, run)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["attack_costs"]["flow"]["E15"] == 5.0
    manifest["attack_costs"]["flow"]["E15"] = 4.0
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert ("FAIL attack_strategy.csv:2: spend is '240', where the re-derived file has "
            "'192'") in capsys.readouterr().out
    # without recorded prices the rows cannot be priced: nothing stands in
    _drop_recorded_prices(run)
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out.startswith("FAIL manifest.json: no attack_costs to price")


def test_verify_accepts_a_gamma_sweep_step(tmp_path, capsys):
    # step 2 prices generators at 1.1 and wires at 0.9 times the config's
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text(bundled_path("cyberattack.cfg").read_text()
                   .replace("gamma_iterations = 6", "gamma_iterations = 2"))
    assert main(["sweep-gamma", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    for kind, heat in (("cyberattack", []), ("compound", ["--heatwave-factor", "1.09"])):
        step = tmp_path / "sw" / "iter2" / kind
        with open(step / "attack_strategy.csv", newline="") as fh:
            assert list(csv.DictReader(fh)), f"{kind}: no attack rows"
        assert main(["verify", "--solution", str(step), *heat]) == 0
        # the step's manifest records its heatwave factor: no flag needed
        assert main(["verify", "--solution", str(step)]) == 0
        # no single config gives both step prices
        _drop_recorded_prices(step)
        capsys.readouterr()
        assert main(["verify", "--solution", str(step), *heat]) == 2
        assert capsys.readouterr().out.startswith("FAIL manifest.json: no attack_costs")


def test_verify_rejects_a_plan_over_budget(cyber_run, tmp_path, capsys):
    # every row is a valid spend at its price; together they exceed the budget
    run = tmp_path / "run"
    shutil.copytree(cyber_run, run)
    strategy = run / "attack_strategy.csv"
    text = strategy.read_text()
    assert "summer,17,flow,E15,48,240\n" in text
    assert json.loads((run / "manifest.json").read_text())["attack_costs"]["budget"] == 300.0
    strategy.write_text(text + "summer,16,flow,E15,48,240\n")
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL {strategy}: summer spends 540.0 in total, "
                          "more than the budget 300.0")


@pytest.fixture(scope="module")
def compound_run(tmp_path_factory):
    run = tmp_path_factory.mktemp("compound") / "run"
    assert main(["scenario", "--config", str(bundled_path("compound.cfg")),
                 "--out", str(run)]) == 0
    return run


def test_verify_reads_the_heatwave_factor_from_the_manifest(compound_run, tmp_path, capsys):
    manifest = json.loads((compound_run / "manifest.json").read_text())
    assert manifest["heatwave_factor"] == 1.09
    assert main(["verify", "--solution", str(compound_run)]) == 0
    # the flag names the factor the run must record; it overrides nothing
    assert main(["verify", "--solution", str(compound_run), "--heatwave-factor", "1.09"]) == 0
    capsys.readouterr()
    assert main(["verify", "--solution", str(compound_run), "--heatwave-factor", "1.0"]) == 2
    assert capsys.readouterr().out == ("FAIL manifest.json: heatwave_factor is 1.09, where "
                                       "--heatwave-factor gives 1.0\n")
    # without the record there is no demand to check the hours on, flag or not
    run = tmp_path / "run"
    shutil.copytree(compound_run, run)
    del manifest["heatwave_factor"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    for flag in ([], ["--heatwave-factor", "1.09"]):
        assert main(["verify", "--solution", str(run), *flag]) == 2
        assert capsys.readouterr().out == ("FAIL manifest.json: heatwave_factor is None, not "
                                           "a finite positive number\n")


@pytest.mark.parametrize("fixture, name, edit", [
    ("cyber_run", None, None),
    # a G02 cut spending 500 beside the plan's 300, against the budget of 300
    ("cyber_run", "attack_strategy.csv", lambda ls: ls + ["summer,17,gen,G02,500,500"]),
    ("cyber_run", "shock.csv", lambda ls: [ls[0], "Z01,Utilities,99"] + ls[2:]),
    ("compound_run", None, None),
], ids=["cyberattack", "over_budget", "shock", "compound"])
def test_verify_requires_the_runs_manifest(request, tmp_path, capsys, fixture, name, edit):
    """A run is checked against the manifest it was exported with: without
    one, verify fails naming it, whatever the other files hold."""
    run = tmp_path / "run"
    shutil.copytree(request.getfixturevalue(fixture), run)
    (run / "manifest.json").unlink()
    if edit is not None:
        _edit_lines(run / name, edit)
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out == f"FAIL manifest.json: not found in {run}\n"


def test_verify_missing_solution_dir(files):
    net, net_path, dem_path, cfg_path, tmp = files
    rc = main(["verify", "--network", str(net_path), "--demand", str(dem_path),
               "--solution", str(tmp / "absent")])
    assert rc == 1


def test_sweep_beta_subcommand(files):
    net, net_path, dem_path, cfg_path, tmp = files
    cfg2 = tmp / "sweep.cfg"
    cfg2.write_text("kind = Compound\nbudget = 30\nnode_limit = 0\n"
                    "beta_iterations = 2\n")
    rc = main(["sweep-beta", "--network", str(net_path), "--demand", str(dem_path),
               "--config", str(cfg2), "--out", str(tmp / "sw")])
    assert rc == 0
    assert (tmp / "sw" / "sweep_summary.csv").exists()


@pytest.mark.parametrize("command", ["solve-opf", "sweep-beta", "verify"])
def test_an_output_directory_that_cannot_be_made_exits_1(files, capsys, command):
    # --out is a regular file, or lies under one: bad input, not a traceback
    net, net_path, dem_path, cfg_path, tmp = files
    inputs = ["--network", str(net_path), "--demand", str(dem_path)]
    assert main(["solve-opf", *inputs, "--out", str(tmp / "run")]) == 0
    flags = {"solve-opf": [], "sweep-beta": ["--config", str(cfg_path)],
             "verify": ["--solution", str(tmp / "run"), "--dump-lp"]}[command]
    blocker = tmp / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "x"):
        capsys.readouterr()
        assert main([command, *inputs, *flags, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"error: cannot create output directory {out}: ")


@pytest.mark.parametrize("key, change, message", [
    ("total_unserved_mwh", lambda v: 10 * v, "total_unserved_mwh is "),
    ("peak_shed_mw", lambda v: v * (1 + 1e-8), "peak_shed_mw is "),
    ("peak_hour", lambda v: v - 1, "peak_hour is "),
    ("peak_hour", None, "peak_hour is missing"),
    ("peak_shed_mw", lambda v: None, "peak_shed_mw is None"),
    ("percent_unserved", lambda v: 10 * v, "percent_unserved is "),
    ("customers_affected", lambda v: 10 * v, "customers_affected is "),
    ("customers_affected", lambda v: v + 1, "customers_affected is "),
    # equal in Python, but not what the exporter writes
    ("peak_hour", float, "peak_hour is 17.0, where the re-derived run has 17"),
    ("heatwave_factor", lambda v: True,
     "heatwave_factor is True, where the re-derived run has 1.0"),
], ids=["total", "peak_shed", "peak_hour", "missing", "not_a_number", "percent",
        "customers", "customers_plus_one", "float_hour", "boolean_factor"])
def test_verify_rejects_manifest_totals_the_rows_do_not_give(cyber_run, tmp_path, capsys,
                                                             key, change, message):
    run = tmp_path / "run"
    shutil.copytree(cyber_run, run)
    manifest = json.loads((run / "manifest.json").read_text())
    assert manifest["total_unserved_mwh"] > 0 and manifest["peak_hour"] == 17
    if change is None:
        del manifest[key]
    else:
        manifest[key] = change(manifest[key])
    (run / "manifest.json").write_text(json.dumps(manifest))
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL manifest.json: ") and message in out


@pytest.mark.parametrize("text, attack_file, message", [
    (None, True, "heatwave_factor is 'hot', not a finite positive number"),
    (None, False, "heatwave_factor is 'hot', not a finite positive number"),
    ("{not json", True, "not JSON ("),
    ("{not json", False, "not JSON ("),
    ("[]", True, "not a JSON object"),
    ('{"files": 5}', False, "not a JSON object with a files object"),
    ('{"attack_costs": {"gen": 1}}', True, "attack_costs: "),
], ids=["factor", "factor_no_attack_file", "not_json", "not_json_no_attack_file",
        "not_an_object", "files_not_an_object", "bad_prices"])
def test_verify_rejects_a_malformed_manifest(cyber_run, tmp_path, capsys, text,
                                             attack_file, message):
    """Verification fails on the manifest, naming it, whether or not the run
    directory holds an attack_strategy.csv; ``text`` None sets the recorded
    heatwave factor to a word."""
    run = tmp_path / "run"
    shutil.copytree(cyber_run, run)
    if not attack_file:
        (run / "attack_strategy.csv").unlink()
    if text is None:
        manifest = json.loads((run / "manifest.json").read_text())
        manifest["heatwave_factor"] = "hot"
        text = json.dumps(manifest)
    (run / "manifest.json").write_text(text)
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL manifest.json: ") and message in out


def test_verify_checks_a_beta_sweep_steps_manifest(tmp_path, capsys):
    cfg = tmp_path / "beta.cfg"
    cfg.write_text(bundled_path("cyberattack.cfg").read_text()
                   .replace("beta_iterations = 6", "beta_iterations = 2"))
    assert main(["sweep-beta", "--config", str(cfg), "--out", str(tmp_path / "sw")]) == 0
    for kind in ("cyberattack", "compound"):
        step = tmp_path / "sw" / "iter2" / kind
        assert main(["verify", "--solution", str(step)]) == 0
        manifest = json.loads((step / "manifest.json").read_text())
        manifest["total_unserved_mwh"] *= 10
        (step / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["verify", "--solution", str(step)]) == 2
        assert capsys.readouterr().out.startswith("FAIL manifest.json: total_unserved_mwh")


def _set_cell(path, line, column, value):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[line - 1][rows[0].index(column)] = value
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set_entry(path, keys, value):
    manifest = json.loads(path.read_text())
    *outer, last = keys
    entry = manifest
    for key in outer:
        entry = entry[key]
    entry[last] = value
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("name, edit, message", [
    ("unserved_timeseries.csv", lambda p: _set_cell(p, 2, "unserved_mw", "999"),
     "2: unserved_mw is '999', where the re-derived file has '0'"),
    ("zonal_summary.csv", lambda p: _set_cell(p, 2, "customers_affected", "123456"),
     "2: customers_affected is '123456', where the re-derived file has '0'"),
    # a heated Baseline run does not exist: its recorded factor is 1
    ("manifest.json", lambda p: _set_entry(p, ["scenario"], "Baseline"),
     " heatwave_factor is 1.09, where the re-derived run has 1.0"),
    # a Heatwave run has no attack: the rows are not its own
    ("manifest.json", lambda p: _set_entry(p, ["scenario"], "Heatwave"),
     " files/attack_strategy.csv/rows is 6, where the re-derived run has 0"),
    ("manifest.json", lambda p: _set_entry(p, ["files", "zonal_summary.csv", "rows"], 17),
     " files/zonal_summary.csv/rows is 17, where the re-derived run has 16"),
    ("manifest.json", lambda p: _set_entry(p, ["files", "opf_solution.csv", "rows"], 1),
     " files/opf_solution.csv/rows is 1, where the re-derived run has "),
    ("manifest.json", lambda p: _set_entry(p, ["scenario"], "Blackout"),
     " unknown scenario kind 'Blackout'"),
    ("manifest.json", lambda p: _set_entry(p, ["season"], "winter"),
     " season 'winter' is not in the demand profile, whose seasons are summer"),
], ids=["unserved", "customers", "scenario", "scenario_without_attack", "rows",
        "opf_rows", "unknown_scenario", "unknown_season"])
def test_verify_rejects_a_file_the_run_does_not_give(compound_run, tmp_path, capsys, name,
                                                     edit, message):
    run = tmp_path / "run"
    shutil.copytree(compound_run, run)
    edit(run / name)
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out.startswith(f"FAIL {name}:{message}")


def _edit_shock(run, edit):
    shock = run / "shock.csv"
    lines = shock.read_text().splitlines()
    shock.write_text("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("edit, message", [
    (lambda ls: [ls[0], "Z01,Utilities,99"] + ls[2:], "2: percent_reduction is '99', "),
    (lambda ls: ls[:-1], "17: no line, where the re-derived file has ['Z16', "),
    (lambda ls: ls + [ls[-1]],
     "18: ['Z16', 'Utilities', '0'], where the re-derived file has no line"),
    (lambda ls: [ls[0], ls[1].replace("Utilities", "Power")] + ls[2:], "2: sector is 'Power'"),
    (lambda ls: [ls[0], "Z01,Utilities,n/a"] + ls[2:], "2: percent_reduction is 'n/a'"),
], ids=["value", "missing_row", "duplicate_row", "sector", "not_a_number"])
def test_verify_rejects_a_shock_file_the_rows_do_not_give(compound_run, tmp_path, capsys,
                                                          edit, message):
    run = tmp_path / "run"
    shutil.copytree(compound_run, run)
    _edit_shock(run, edit)
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL shock.csv:{message}")


def test_verify_checks_each_region_of_the_shock_file(compound_run, tmp_path, capsys):
    # the peak-hour attack sheds in some regions: each one's percent is
    # re-derived, to the 12 digits the file carries
    with open(compound_run / "shock.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    shed = [r for r in rows if float(r[2]) > 0]
    assert shed
    run = tmp_path / "run"
    shutil.copytree(compound_run, run)
    region, _, value = shed[0]
    edited = repr(float(value) * (1 + 1e-8))
    _edit_shock(run, lambda ls: [ln if not ln.startswith(region + ",") else
                                 f"{region},Utilities,{edited}" for ln in ls])
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    line = 2 + rows.index(shed[0])
    assert capsys.readouterr().out.startswith(
        f"FAIL shock.csv:{line}: percent_reduction is '{edited}', where the re-derived "
        f"file has '{value}'")
    (run / "shock.csv").unlink()
    assert main(["verify", "--solution", str(run)]) == 2
    assert "shock.csv: listed in manifest.json but missing" in capsys.readouterr().out
