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
    ("--heatwave-factor", "inf"), ("gen_attack_cost", "nan"), ("refine_steps", "0"),
    ("node_limit", "-1")])
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
    net, net_path, dem_path, cfg_path, tmp = files
    assert main(["attack", "--network", str(net_path), "--demand", str(dem_path),
                 "--config", str(cfg_path), "--out", str(tmp / "run")]) == 0
    sol = tmp / "run" / "opf_solution.csv"
    header, *rows = sol.read_text().splitlines()
    verify = ["verify", "--network", str(net_path), "--demand", str(dem_path),
              "--solution", str(tmp / "run")]
    assert main(verify) == 0
    capsys.readouterr()
    # a whole hour gone
    sol.write_text("\n".join([header] + [r for r in rows if r.split(",")[1] != "1"]) + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out.startswith("FAIL summer: no rows for hours [1]")
    # one row gone whose value is zero, so a zero fill would still verify
    gone = next(i for i, r in enumerate(rows) if float(r.split(",")[4]) == 0.0)
    sol.write_text("\n".join([header] + rows[:gone] + rows[gone + 1:]) + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out.startswith("FAIL summer/")
    # an hour the demand profile does not have
    sol.write_text("\n".join([header] + rows + [r.replace("summer,0,", "summer,2,", 1)
                                                for r in rows if r.startswith("summer,0,")])
                   + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out.startswith("FAIL summer: no rows for hours [], "
                                              "rows for unknown hours [2]")
    # a season the demand profile does not have
    sol.write_text("\n".join([header] + [r.replace("summer,", "winter,", 1) for r in rows])
                   + "\n")
    assert main(verify) == 2
    assert capsys.readouterr().out.startswith("FAIL winter: season not in")


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
    ("summer,17,flow,E15,48,800", "spend 800.0 is not z_value x price = 240.0"),
    ("summer,17,flow,E15,900,4500", "z_value 900.0 outside [0, 860.0]"),
    ("summer,17,flow,E15,-48,-240", "z_value -48.0 outside [0, 860.0]"),
], ids=["spend", "above_capacity", "below_zero"])
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
    assert out.startswith(f"FAIL {strategy}:2: ") and message in out


def _drop_recorded_prices(run):
    manifest = json.loads((run / "manifest.json").read_text())
    del manifest["attack_costs"]
    (run / "manifest.json").write_text(json.dumps(manifest))


def test_verify_checks_spend_at_the_recorded_prices(cyber_run, tmp_path, capsys):
    # the prices the run's manifest records win over verify's own config
    assert main(["verify", "--solution", str(cyber_run), "--cost-ratio", "4"]) == 0
    # without them, spends are checked at the config's: the run was priced
    # at cost ratio 5, so its flow spend is 48 x 5
    run = tmp_path / "run"
    shutil.copytree(cyber_run, run)
    _drop_recorded_prices(run)
    capsys.readouterr()
    assert main(["verify", "--solution", str(run), "--cost-ratio", "4"]) == 2
    assert "spend 240.0 is not z_value x price = 192.0" in capsys.readouterr().out
    assert main(["verify", "--solution", str(run), "--config",
                 str(bundled_path("cyberattack.cfg"))]) == 0


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
        assert "is not z_value x price" in capsys.readouterr().out


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
    # an explicit flag wins over the recorded factor
    capsys.readouterr()
    assert main(["verify", "--solution", str(compound_run), "--heatwave-factor", "1.0"]) == 2
    assert capsys.readouterr().out.startswith("FAIL summer/")
    # without the record, the demand is not scaled
    run = tmp_path / "run"
    shutil.copytree(compound_run, run)
    del manifest["heatwave_factor"]
    (run / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", "--solution", str(run)]) == 2
    assert main(["verify", "--solution", str(run), "--heatwave-factor", "1.09"]) == 0


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


@pytest.mark.parametrize("key, change, message", [
    ("total_unserved_mwh", lambda v: 10 * v, "total_unserved_mwh is "),
    ("peak_shed_mw", lambda v: v * (1 + 1e-8), "peak_shed_mw is "),
    ("peak_hour", lambda v: v - 1, "peak_hour is "),
    ("peak_hour", None, "no entry 'peak_hour'"),
    ("peak_shed_mw", lambda v: None, "are not all numbers"),
    ("percent_unserved", lambda v: 10 * v, "percent_unserved is "),
    ("customers_affected", lambda v: 10 * v, "customers_affected is "),
    ("customers_affected", lambda v: v + 1, "customers_affected is "),
], ids=["total", "peak_shed", "peak_hour", "missing", "not_a_number", "percent",
        "customers", "customers_plus_one"])
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


def _edit_shock(run, edit):
    shock = run / "shock.csv"
    lines = shock.read_text().splitlines()
    shock.write_text("\n".join(edit(lines)) + "\n")


@pytest.mark.parametrize("edit, message", [
    (lambda ls: [ls[0], "Z01,Utilities,99"] + ls[2:], "percent_reduction of Z01 is 99, "),
    (lambda ls: ls[:-1], "are not the network's nodes"),
    (lambda ls: ls + [ls[-1]], "are not the network's nodes"),
    (lambda ls: [ls[0], ls[1].replace("Utilities", "Power")] + ls[2:], "sector of Z01 is"),
    (lambda ls: [ls[0], "Z01,Utilities,n/a"] + ls[2:], "percent_reduction of Z01 is 'n/a'"),
], ids=["value", "missing_row", "duplicate_row", "sector", "not_a_number"])
def test_verify_rejects_a_shock_file_the_rows_do_not_give(compound_run, tmp_path, capsys,
                                                          edit, message):
    run = tmp_path / "run"
    shutil.copytree(compound_run, run)
    _edit_shock(run, edit)
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("FAIL shock.csv: ") and message in out


def test_verify_checks_each_region_of_the_shock_file(compound_run, tmp_path, capsys):
    # the peak-hour attack sheds in some regions: each one's percent is
    # re-derived, to the 12 digits the file carries
    rows = list(csv.reader((compound_run / "shock.csv").open()))[1:]
    shed = [r for r in rows if float(r[2]) > 0]
    assert shed
    run = tmp_path / "run"
    shutil.copytree(compound_run, run)
    region, _, value = shed[0]
    _edit_shock(run, lambda ls: [ln if not ln.startswith(region + ",") else
                                 f"{region},Utilities,{float(value) * (1 + 1e-8)!r}"
                                 for ln in ls])
    capsys.readouterr()
    assert main(["verify", "--solution", str(run)]) == 2
    assert capsys.readouterr().out.startswith(f"FAIL shock.csv: percent_reduction of {region}")
    (run / "shock.csv").unlink()
    assert main(["verify", "--solution", str(run)]) == 2
    assert "shock.csv: listed in manifest.json but missing" in capsys.readouterr().out
