from dataclasses import replace

import numpy as np
import pytest

from gridshock.dcopf import OPF_BLOCKS, solve_dcopf
from gridshock.kkt import (PAIR_BLOCKS, PAIR_DUALS, KktResiduals, complementarity_pairs,
                           kkt_residuals, residual_rows, verify_equilibrium)
from support import (entity_gen_map, entity_incidence, entity_limits, profile_for,
                     tight_two_bus, triangle, two_bus, with_blocks)


def test_lp_optimum_satisfies_kkt():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    res = kkt_residuals(net, sol)
    assert res.overall_max() <= 1e-6
    assert verify_equilibrium(res, 1e-5)


def test_constructed_balance_violation():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    broken = with_blocks(sol, g=sol.g + np.array([5.0, 0.0]))
    res = kkt_residuals(net, broken)
    assert res.primal["balance"].max() == pytest.approx(5.0, abs=1e-9)
    assert not verify_equilibrium(res, 1e-5)


def test_zero_point_residual_equals_demand():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    zero = with_blocks(sol, **{name: 0.0 for name in OPF_BLOCKS})
    res = kkt_residuals(net, zero)
    np.testing.assert_allclose(res.primal["balance"], sol.demand, atol=1e-12)


def test_verify_tolerance_boundary():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    res = kkt_residuals(net, sol)
    assert verify_equilibrium(res, 1e-5)
    broken = with_blocks(sol, pi_d=sol.pi_d + 1e-3)
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
    # a solution of another network: one generator fewer, so every block
    # after g sits elsewhere in the point
    other = two_bus(with_g2=False)
    with pytest.raises(ValueError, match="laid out for another network"):
        kkt_residuals(other, sol)
    with pytest.raises(ValueError, match="laid out for another network"):
        kkt_residuals(net, solve_dcopf(other, profile_for(other, [[0.0, 80.0]]), "summer", 0))
    # a point that does not fill its layout makes no solution
    with pytest.raises(ValueError, match="point has shape"):
        replace(sol, point=sol.point[:-1].copy())


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


# -- the certificate as it was before the network's arrays were cached: a
# reference copy that rebuilds every array from the network's lists
def _reference_pairs(net, sol, zg, zf, zt):
    A = entity_incidence(net)
    lim = entity_limits(net)
    g_lo, g_up, f_cap, t_cap = lim["g_lo"], lim["g_up"], lim["f_cap"], lim["t_cap"]
    if zg is not None:
        g_up = g_up - np.asarray(zg, dtype=float)
    if zf is not None:
        f_cap = f_cap - np.asarray(zf, dtype=float)
    if zt is not None:
        t_cap = t_cap - np.asarray(zt, dtype=float)
    angle_diff = A @ sol.theta
    slacks = {
        "gen_lo": sol.g - g_lo, "gen_up": g_up - sol.g,
        "flow_lo": sol.f + f_cap, "flow_up": f_cap - sol.f,
        "angle_lo": angle_diff + t_cap, "angle_up": t_cap - angle_diff,
        "unserved_lo": sol.u, "unserved_up": sol.demand - sol.u,
    }
    return slacks, {pair: getattr(sol, fld) for pair, fld in PAIR_DUALS.items()}


def _reference_residuals(net, sol, zg, zf, zt):
    A = entity_incidence(net)
    lim = entity_limits(net)
    Bmw = lim["susceptance_mw"]
    M = entity_gen_map(net)
    ref = [nd.id for nd in net.nodes].index(net.reference_node)
    e_ref = np.zeros(net.num_nodes)
    e_ref[ref] = 1.0
    stationarity = {
        "stat_g": lim["costs"] - sol.rho_g_lo + sol.rho_g_up - M.T @ sol.pi_d,
        "stat_f": A @ sol.pi_d + sol.pi_f - sol.rho_f_lo + sol.rho_f_up,
        "stat_theta": A.T @ (-Bmw * sol.pi_f - sol.rho_th_lo + sol.rho_th_up)
        + e_ref * sol.delta,
        "stat_u": sol.voll - sol.rho_u_lo + sol.rho_u_up - sol.pi_d,
    }
    slacks, duals = _reference_pairs(net, sol, zg, zf, zt)
    primal = {
        "balance": np.abs(M @ sol.g + sol.u - sol.demand - A.T @ sol.f),
        "flow_law": np.abs(sol.f - Bmw * (A @ sol.theta)),
        "reference": np.array([abs(sol.theta[ref])]),
    }
    for k, s in slacks.items():
        primal[k] = np.maximum(-s, 0.0)
    complementarity = {k: np.abs(duals[k] * slacks[k]) for k in PAIR_BLOCKS}
    dual_sign = {k: np.maximum(-duals[k], 0.0) for k in PAIR_BLOCKS}
    res = KktResiduals(stationarity, primal, complementarity, dual_sign)
    return res, max(res.block_max().values(), default=0.0)


def _random_points(net, demand, seed):
    """Attacked dispatches of the bundled day and perturbed copies of them,
    so that every residual block is exercised, zero and nonzero."""
    rng = np.random.default_rng(seed)
    lim = entity_limits(net)
    for hour in rng.choice(24, size=3, replace=False):
        zs = [np.where(rng.random(r.size) < 0.3, 0.6 * rng.random(r.size) * r, 0.0)
              for r in (lim["g_span"], lim["f_cap"], lim["t_cap"])]
        sol = solve_dcopf(net, demand, "summer", int(hour), *zs)
        yield sol, zs
        yield sol, (None, None, None)
        noisy = {name: getattr(sol, name) + rng.normal(0, 1.0, getattr(sol, name).shape)
                 for name in ("g", "theta", "pi_d", "rho_f_up", "rho_u_lo")}
        yield with_blocks(sol, delta=sol.delta + 0.5, **noisy), zs


@pytest.mark.parametrize("seed", range(4))
def test_certificate_matches_its_reference_bit_for_bit(bundled_net, bundled_demand, seed):
    for sol, zs in _random_points(bundled_net, bundled_demand, seed):
        res = kkt_residuals(bundled_net, sol, *zs)
        ref, ref_max = _reference_residuals(bundled_net, sol, *zs)
        blocks = dict(res.named_blocks())
        ref_blocks = dict(ref.named_blocks())
        assert list(blocks) == list(ref_blocks)
        for key, v in ref_blocks.items():
            assert np.array_equal(blocks[key], v), key
        assert res.block_max() == ref.block_max()
        assert res.overall_max() == ref_max
        slacks, duals = complementarity_pairs(bundled_net, sol, *zs)
        ref_slacks, ref_duals = _reference_pairs(bundled_net, sol, *zs)
        for k in PAIR_BLOCKS:
            assert np.array_equal(slacks[k], ref_slacks[k]), k
            # each multiplier is the solution's own block, not a copy
            assert np.shares_memory(duals[k], sol.point), k
            assert np.array_equal(duals[k], ref_duals[k]), k


def test_overall_max_propagates_nan():
    net = two_bus()
    sol = solve_dcopf(net, profile_for(net, [[0.0, 80.0]]), "summer", 0)
    # a NaN in any block, not only the first one, fails the certificate
    broken = with_blocks(sol, rho_u_up=np.array([0.0, np.nan]))
    res = kkt_residuals(net, broken)
    assert np.isnan(res.overall_max())
    assert not verify_equilibrium(res, 1e-5)
