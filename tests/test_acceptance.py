"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its measured quantity and pinned tolerance.

Shared expensive artifacts (bundled-network scenario runs and sensitivity
ladders) are computed once per module; every attack object they produce is
registered so the big-M footnote condition can be checked globally at the
end.
"""

import itertools
import time

import numpy as np
import pytest

from gridshock.attack import AttackCosts, run_attack, solve_full_milp
from gridshock.dcopf import solve_dcopf
from gridshock.kkt import kkt_residuals, verify_equilibrium
from gridshock.milp import MilpProblem, solve_milp
from gridshock.scenarios import ScenarioConfig, beta_sweep, gamma_sweep, run_scenario
from gridshock.simplex import LpProblem, solve_lp
from support import chained_day, profile_for, tight_two_bus, triangle, two_bus, one_bus

BUDGET = 300.0
VOLL = 1000.0

_REGISTRY: list = []


def _register(plan):
    _REGISTRY.extend(plan.hours)


def report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def bundled_runs(bundled_net, bundled_demand):
    runs = {}
    for label, kw in (
        ("Baseline", {"kind": "Baseline"}),
        ("Heatwave", {"kind": "Heatwave"}),
        ("Cyberattack", {"kind": "Cyberattack"}),
        ("Compound", {"kind": "Compound"}),
        ("Cyberattack0", {"kind": "Cyberattack", "budget": 0.0}),
        ("Compound1", {"kind": "Compound", "heatwave_factor": 1.0}),
    ):
        params = {"budget": BUDGET}
        params.update(kw)
        res = run_scenario(ScenarioConfig(**params), bundled_net, bundled_demand)
        if res.plan is not None:
            _register(res.plan)
        runs[label] = res
    return runs


@pytest.fixture(scope="module")
def ladders(bundled_net, bundled_demand):
    cfg = ScenarioConfig(kind="Cyberattack", budget=BUDGET)
    gamma = gamma_sweep(cfg, bundled_net, bundled_demand)
    beta = beta_sweep(cfg, bundled_net, bundled_demand)
    for pt in gamma + beta:
        for res in (pt.cyberattack, pt.compound):
            if res.plan is not None:
                _register(res.plan)
    return gamma, beta


def test_criterion_lp_milp_solver():
    """200 random LPs: duality gap <= 1e-6; 50 random MILPs: exact vs 2^n."""
    t0 = time.time()
    rng = np.random.default_rng(314)
    optimal = 0
    worst_gap = 0.0
    for _ in range(200):
        n = int(rng.integers(2, 21))
        m = int(rng.integers(1, 14))
        A = rng.normal(size=(m, n)).round(3)
        c = rng.normal(size=n).round(3)
        lb = np.where(rng.random(n) < 0.8, rng.uniform(-5, 0, n), -np.inf)
        ub = np.where(rng.random(n) < 0.8, rng.uniform(0.1, 5, n), np.inf)
        rl = np.where(rng.random(m) < 0.5, rng.uniform(-8, 0, m), -np.inf)
        ru = np.where(rng.random(m) < 0.7, rng.uniform(0.2, 8, m), np.inf)
        eq = rng.random(m) < 0.25
        rl = np.where(eq & np.isfinite(ru), ru, rl)
        rl = np.minimum(rl, ru)
        s = solve_lp(LpProblem("min", c, A, rl, ru, lb, ub))
        if s.status == "optimal":
            optimal += 1
            worst_gap = max(worst_gap, s.duality_gap)
            assert s.max_primal_residual <= 1e-6

    milp_exact = 0
    for _ in range(50):
        nb = int(rng.integers(3, 9))
        m = int(rng.integers(1, 6))
        A = rng.normal(size=(m, nb)).round(2)
        c = rng.normal(size=nb).round(2)
        ru = rng.uniform(-1.0, 3.0, m).round(2)
        lp = LpProblem("max", c, A, np.full(m, -np.inf), ru,
                       np.zeros(nb), np.ones(nb))
        s = solve_milp(MilpProblem(lp, list(range(nb))))
        best = None
        for bits in itertools.product([0.0, 1.0], repeat=nb):
            x = np.array(bits)
            if np.all(A @ x <= ru + 1e-9):
                v = float(c @ x)
                best = v if best is None else max(best, v)
        if best is None:
            assert s.status == "infeasible"
        else:
            assert s.status == "optimal" and s.objective == best
        milp_exact += 1
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-6 and milp_exact == 50 and elapsed < 60.0
    report("LP/MILP solver", ok,
           f"{optimal}/200 LPs optimal, worst gap {worst_gap:.2e} <= 1e-6; "
           f"50/50 MILPs exact vs enumeration; {elapsed:.1f}s < 60s")


def test_criterion_kkt_roundtrip(bundled_net, bundled_demand):
    """Every bundled-network hourly dispatch passes the certificate at 1e-5."""
    t0 = time.time()
    worst = 0.0
    for h in range(bundled_demand.hours("summer")):
        sol = solve_dcopf(bundled_net, bundled_demand, "summer", h)
        res = kkt_residuals(bundled_net, sol)
        worst = max(worst, res.overall_max())
        assert verify_equilibrium(res, 1e-5)
    elapsed = time.time() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report("KKT round-trip", ok,
           f"24 hours verified, worst residual {worst:.2e} <= 1e-5; "
           f"{elapsed:.1f}s < 10s")


def test_criterion_hand_solved_instances():
    """Hand-derived dispatch, duals and shed at 1e-6 MW / 1e-6 relative $."""
    checks = []

    net1 = one_bus(g_max=150.0, cost=20.0)
    s = solve_dcopf(net1, profile_for(net1, [[100.0]]), "summer", 0)
    checks.append(abs(s.g[0] - 100.0) <= 1e-6)
    checks.append(abs(s.pi_d[0] - 20.0) <= 1e-6)
    checks.append(abs(s.objective - 2000.0) <= 1e-6 * 2000.0)

    net2 = two_bus()
    s = solve_dcopf(net2, profile_for(net2, [[0.0, 80.0]]), "summer", 0)
    checks.append(np.allclose(s.g, [50.0, 30.0], atol=1e-6))
    checks.append(np.allclose(s.f, [50.0], atol=1e-6))
    checks.append(np.allclose(s.pi_d, [20.0, 90.0], atol=1e-6))
    checks.append(abs(s.objective - 3700.0) <= 1e-6 * 3700.0)

    net2b = two_bus(with_g2=False)
    s = solve_dcopf(net2b, profile_for(net2b, [[0.0, 80.0]]), "summer", 0)
    checks.append(abs(s.u[1] - 30.0) <= 1e-6)
    checks.append(abs(s.pi_d[1] - VOLL) <= 1e-6)
    checks.append(abs(s.shed_cost - 30.0 * VOLL) <= 1e-6 * 30.0 * VOLL)

    # symmetric uncongested triangle, single source: with equal edge
    # stiffness, injections (150, -60, -90) split by the loop law into
    # flows (70, 80, 10); uniform price at the marginal unit's cost
    from gridshock.network import Edge, Generator, Node, PowerNetwork, validate_network
    net3 = validate_network(PowerNetwork(
        "symtri",
        (Node("n1", "n1", 0.4), Node("n2", "n2", 0.3), Node("n3", "n3", 0.3)),
        (Edge("e12", "n1", "n2", 10.0, 200.0, 1.0),
         Edge("e13", "n1", "n3", 10.0, 200.0, 1.0),
         Edge("e23", "n2", "n3", 10.0, 200.0, 1.0)),
        (Generator("g1", "n1", "cheap", 0.0, 300.0, 10.0),),
        "n1", 1_000_000))
    s = solve_dcopf(net3, profile_for(net3, [[0.0, 60.0, 90.0]]), "summer", 0)
    checks.append(np.allclose(s.g, [150.0], atol=1e-6))
    checks.append(np.allclose(s.f, [70.0, 80.0, 10.0], atol=1e-6))
    checks.append(np.allclose(s.pi_d, [10.0, 10.0, 10.0], atol=1e-6))
    checks.append(np.allclose(s.u, 0.0, atol=1e-6))

    ok = all(checks)
    report("Hand-solved OPF instances", ok,
           f"{sum(checks)}/{len(checks)} hand values matched at 1e-6")


def test_criterion_attacker_oracle_equivalence():
    """The day's knapsack split vs joint MILP vs brute-force grids."""
    t0 = time.time()

    # 2-bus x 2 hours, generation attacks only
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 40.0], [10.0, 80.0]])
    costs = AttackCosts(np.full(2, 1.0), np.full(1, 1000.0),
                        np.full(1, 600000.0), 30.0)
    full = solve_full_milp(net, prof, "summer", costs, node_limit=500_000)
    _register(full)
    day = chained_day(net, prof)
    ref = run_attack(day, costs, node_limit=200_000)
    _register(ref)
    rel = abs(full.objective - ref.objective) / max(1.0, full.objective)

    # brute force: hourly 1 MW generation-split curves, exact budget split;
    # each grid point is solved warm from the day's unattacked dispatch
    def hour_curve(h):
        vals = np.zeros(31)
        basis = day.base(h).basis
        for spend in range(31):
            best = 0.0
            for a in range(spend + 1):
                zg = np.array([float(a), float(spend - a)])
                sol = solve_dcopf(net, prof, "summer", h, zg, basis=basis, form=day.form)
                best = max(best, sol.shed_cost)
            vals[spend] = best
        return np.maximum.accumulate(vals)

    c0, c1 = hour_curve(0), hour_curve(1)
    oracle2 = max(c0[b] + c1[30 - b] for b in range(31))
    quant2 = 2 * VOLL * 1.0  # two grid dimensions at 1 MW
    ok2 = (full.objective >= oracle2 - 1e-6 * max(1.0, oracle2)
           and full.objective <= oracle2 + quant2)

    # 3-bus x 2 hours: vulnerable g3/e13/e23, everything else defended
    net3 = triangle()
    prof3 = profile_for(net3, [[20.0, 40.0, 70.0], [20.0, 60.0, 100.0]])
    costs3 = AttackCosts(np.array([50.0, 50.0, 1.0]),
                         np.array([50.0, 2.0, 2.0]),
                         np.array([50.0, 2.0, 2.0]) * 600.0, 160.0)
    full3 = solve_full_milp(net3, prof3, "summer", costs3, node_limit=500_000)
    _register(full3)
    day3 = chained_day(net3, prof3)
    ref3 = run_attack(day3, costs3, node_limit=200_000)
    _register(ref3)
    rel3 = abs(full3.objective - ref3.objective) / max(1.0, full3.objective)

    def hour_curve3(h, bmax=161):
        # scan (zg3, zf13) at 1 MW, spend the rest on e23; keep the best
        # value at or under every budget level
        vals = np.zeros(bmax)
        basis = day3.base(h).basis
        for a in range(0, 81, 1):
            for b13 in range(0, 61, 1):
                base_spend = a * 1.0 + b13 * 2.0
                if base_spend > 160.0:
                    break
                z23 = min(60.0, (160.0 - base_spend) / 2.0)
                zg = np.array([0.0, 0.0, float(a)])
                zf = np.array([0.0, float(b13), z23])
                spend = base_spend + z23 * 2.0
                v = solve_dcopf(net3, prof3, "summer", h, zg, zf, basis=basis,
                                form=day3.form).shed_cost
                k = int(np.ceil(spend - 1e-9))
                if k < bmax:
                    vals[k] = max(vals[k], v)
        return np.maximum.accumulate(vals)

    d0, d1 = hour_curve3(0), hour_curve3(1)
    oracle3 = max(d0[b] + d1[160 - b] for b in range(161))
    quant3 = 3 * VOLL * 2.0  # three dims, up to 2 MW effective rounding
    ok3 = (full3.objective >= oracle3 - 1e-6 * max(1.0, oracle3)
           and full3.objective <= oracle3 + quant3)

    elapsed = time.time() - t0
    ok = rel <= 1e-4 and rel3 <= 1e-4 and ok2 and ok3 and elapsed < 300.0
    report("Attacker oracle equivalence", ok,
           f"2-bus split-vs-full rel {rel:.2e} <= 1e-4, grid |diff| "
           f"{abs(full.objective - oracle2):.1f} <= {quant2:.0f}; "
           f"3-bus rel {rel3:.2e} <= 1e-4, grid |diff| "
           f"{abs(full3.objective - oracle3):.1f} <= {quant3:.0f}; "
           f"{elapsed:.0f}s < 300s")


def test_criterion_scenario_algebra(bundled_runs):
    """Cyberattack(budget 0) == Baseline; Compound(factor 1) == Cyberattack."""
    base = bundled_runs["Baseline"]
    cyber0 = bundled_runs["Cyberattack0"]
    cyber = bundled_runs["Cyberattack"]
    comp1 = bundled_runs["Compound1"]
    d1 = float(np.max(np.abs(cyber0.unserved - base.unserved)))
    d2 = float(np.max(np.abs(comp1.unserved - cyber.unserved)))
    ok = d1 <= 1e-6 and d2 <= 1e-6
    report("Scenario algebra", ok,
           f"|Cyberattack(0) - Baseline| {d1:.2e} <= 1e-6; "
           f"|Compound(1.0) - Cyberattack| {d2:.2e} <= 1e-6")


def test_criterion_monotone_sweeps(ladders):
    """Nondecreasing ladders; beta roughly linear; gamma superlinear."""
    gamma, beta = ladders
    msgs = []
    ok = True
    for name, pts in (("gamma", gamma), ("beta", beta)):
        for label in ("cyberattack", "compound"):
            series = np.array([getattr(p, label).total_unserved_mwh for p in pts])
            mono = bool(np.all(np.diff(series) >= -1e-9))
            ok &= mono
            msgs.append(f"{name}/{label} mono={mono}")
            if name == "beta":
                x = np.arange(1, len(series) + 1, dtype=float)
                A = np.vstack([x, np.ones_like(x)]).T
                _, res_, *_ = np.linalg.lstsq(A, series, rcond=None)
                ss = float(np.sum((series - series.mean()) ** 2))
                r2 = 1.0 - (float(res_[0]) / ss if res_.size and ss > 0 else 0.0)
                ok &= r2 >= 0.9
                msgs.append(f"beta/{label} R2={r2:.3f}>=0.9")
            else:
                inc = np.diff(series)
                superlinear = inc[-1] > 2.0 * inc[0]
                ok &= bool(superlinear)
                msgs.append(
                    f"gamma/{label} inc[0]={inc[0]:.2f} inc[-1]={inc[-1]:.2f} "
                    f"(last > 2x first: {superlinear})")
    report("Monotone sweeps", ok, "; ".join(msgs))


def test_criterion_compounding_direction(bundled_runs):
    """Compound >= 3x Cyberattack; Heatwave alone sheds nothing."""
    heat = bundled_runs["Heatwave"].total_unserved_mwh
    cyber = bundled_runs["Cyberattack"].total_unserved_mwh
    comp = bundled_runs["Compound"].total_unserved_mwh
    ok = heat <= 1e-7 and cyber > 0 and comp >= 3.0 * cyber
    report("Compounding direction", ok,
           f"heatwave {heat:.2e} MWh = 0; compound {comp:.1f} >= 3x "
           f"cyberattack {cyber:.1f} (ratio {comp / max(cyber, 1e-9):.2f})")


def test_criterion_bigm_validity(bundled_runs, ladders):
    """Footnote condition M > |solution|_inf on every accepted attack."""
    assert _REGISTRY, "no attack solutions registered"
    bad_m = sum(1 for h in _REGISTRY if not h.bigm_valid)
    bad_cert = sum(1 for h in _REGISTRY if not h.certificate_ok)
    ok = bad_m == 0 and bad_cert == 0
    report("Big-M validity", ok,
           f"{len(_REGISTRY)} hourly attack solutions checked, "
           f"{bad_m} big-M escapes, {bad_cert} certificate failures")


# USD of unserved energy (voll . u) of the shipped days and of each ladder
# step, Cyberattack then Compound; every MWh these runs shed is valued at 2600
SHIPPED_USD = (72_800.0, 287_497.6)
GAMMA_USD = ((72_800.0, 83_200.0, 96_200.0, 790_400.0 / 7, 135_200.0, 166_400.0),
             (287_497.6, 4_364_464.0 / 15, 295_297.6, 2_166_320.0 / 7, 331_760.0, 362_960.0))
BETA_USD = tuple(tuple(usd + 31_200.0 * i for i in range(6)) for usd in SHIPPED_USD)


def test_bundled_values_are_pinned(bundled_runs, ladders):
    """The shipped days and both ladders, as the fixtures computed them.

    A change that moves an attack value (a stronger attacker, another budget
    split) updates these pins and says so."""
    gamma, beta = ladders
    runs = list(zip((bundled_runs["Cyberattack"], bundled_runs["Compound"]), SHIPPED_USD))
    for points, pins in ((gamma, GAMMA_USD), (beta, BETA_USD)):
        runs += zip([p.cyberattack for p in points], pins[0])
        runs += zip([p.compound for p in points], pins[1])
    assert len(runs) == 2 + 4 * 6
    for res, usd in runs:
        assert res.plan.objective == pytest.approx(usd, rel=1e-9)
        assert res.total_unserved_mwh == pytest.approx(usd / 2600.0, rel=1e-9)
