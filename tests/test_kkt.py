from dataclasses import replace

import numpy as np
import pytest

from gridshock.dcopf import solve_dcopf
from gridshock.kkt import kkt_residuals, residual_rows, verify_equilibrium
from support import profile_for, tight_two_bus, triangle, two_bus


def test_lp_optimum_satisfies_kkt():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    res = kkt_residuals(net, sol)
    assert res.overall_max() <= 1e-6
    assert verify_equilibrium(res, 1e-5)


def test_constructed_balance_violation():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    broken = replace(sol, g=sol.g + np.array([5.0, 0.0]))
    res = kkt_residuals(net, broken)
    assert res.primal["balance"].max() == pytest.approx(5.0, abs=1e-9)
    assert not verify_equilibrium(res, 1e-5)


def test_zero_point_residual_equals_demand():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    zero = replace(
        sol,
        g=np.zeros_like(sol.g), f=np.zeros_like(sol.f), u=np.zeros_like(sol.u),
        theta=np.zeros_like(sol.theta), pi_d=np.zeros_like(sol.pi_d),
        pi_f=np.zeros_like(sol.pi_f), delta=0.0,
        rho_g_lo=np.zeros_like(sol.rho_g_lo), rho_g_up=np.zeros_like(sol.rho_g_up),
        rho_f_lo=np.zeros_like(sol.rho_f_lo), rho_f_up=np.zeros_like(sol.rho_f_up),
        rho_th_lo=np.zeros_like(sol.rho_th_lo), rho_th_up=np.zeros_like(sol.rho_th_up),
        rho_u_lo=np.zeros_like(sol.rho_u_lo), rho_u_up=np.zeros_like(sol.rho_u_up),
    )
    res = kkt_residuals(net, zero)
    np.testing.assert_allclose(res.primal["balance"], sol.demand, atol=1e-12)


def test_verify_tolerance_boundary():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    res = kkt_residuals(net, sol)
    assert verify_equilibrium(res, 1e-5)
    broken = replace(sol, pi_d=sol.pi_d + 1e-3)
    assert not verify_equilibrium(kkt_residuals(net, broken), 1e-6)
    with pytest.raises(ValueError):
        verify_equilibrium(res, 0.0)


def test_attack_shifted_bounds():
    # the attacked dispatch only certifies against the shifted bounds
    net = tight_two_bus()
    prof = profile_for(net, [[10.0, 80.0]])
    zg = np.array([30.0, 0.0])
    attacked = solve_dcopf(net, prof, "summer", 0, zg=zg)
    assert verify_equilibrium(kkt_residuals(net, attacked, zg=zg), 1e-5)
    assert not verify_equilibrium(kkt_residuals(net, attacked), 1e-5)


def test_dimension_mismatch_raises():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    bad = replace(sol, g=np.zeros(5))
    with pytest.raises(ValueError):
        kkt_residuals(net, bad)
    # every array field of the solution is checked, multipliers included
    for name in ("rho_g_up", "rho_th_lo", "rho_u_up"):
        with pytest.raises(ValueError, match=name):
            kkt_residuals(net, replace(sol, **{name: np.zeros(7)}))


def test_bundled_roundtrip_all_hours(bundled_net, bundled_demand):
    for h in range(24):
        sol = solve_dcopf(bundled_net, bundled_demand, "summer", h)
        assert verify_equilibrium(kkt_residuals(bundled_net, sol), 1e-5)


def test_residual_rows_flatten():
    net = triangle()
    sol = solve_dcopf(net, profile_for(net, [[20.0, 60.0, 100.0]]), "summer", 0)
    rows = residual_rows(kkt_residuals(net, sol))
    blocks = {r[0] for r in rows}
    assert "stat_g" in blocks and "primal:balance" in blocks
    assert "comp:gen_up" in blocks and "dual:gen_up" in blocks
    assert all(isinstance(r[2], float) for r in rows)
