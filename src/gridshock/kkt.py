"""Equilibrium certificate: residuals of the dispatch KKT system.

The optimality conditions of the hourly dispatch LP form a mixed
complementarity system: stationarity equalities for (g, f, theta, u), the
primal balance / flow-law / reference equalities, and eight complementarity
pairs matching each bound family with its nonnegative multiplier.  This
module evaluates all residuals exactly (no tolerance applied) so callers
can certify solutions from the LP path or from the attacker MILP under the
attack-shifted bounds.

Complementarity is measured as the elementwise product |y2_i * F2_i|,
mirroring the bilinear form of the equivalent NLP restatement; negative
parts of F2 or y2 are reported as feasibility violations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcopf import OpfLayout, OpfSolution, attack_bounds
from .network import PowerNetwork

# the eight complementarity pairs and the OPF_BLOCKS name of each multiplier
PAIR_DUALS = {
    "gen_lo": "rho_g_lo", "gen_up": "rho_g_up", "flow_lo": "rho_f_lo", "flow_up": "rho_f_up",
    "angle_lo": "rho_th_lo", "angle_up": "rho_th_up",
    "unserved_lo": "rho_u_lo", "unserved_up": "rho_u_up",
}
PAIR_BLOCKS = tuple(PAIR_DUALS)


@dataclass
class KktResiduals:
    stationarity: dict[str, np.ndarray]
    primal: dict[str, np.ndarray]          # violation magnitudes (>= 0)
    complementarity: dict[str, np.ndarray]  # |y2 * F2| per pair
    dual_sign: dict[str, np.ndarray]        # negative parts of y2

    def named_blocks(self):
        """(name, values) per residual block; non-stationarity names carry their group."""
        for prefix, group in (("stat", self.stationarity), ("primal", self.primal),
                              ("comp", self.complementarity), ("dual", self.dual_sign)):
            for k, v in group.items():
                yield (k if k.startswith("stat") else f"{prefix}:{k}"), v

    def block_max(self) -> dict[str, float]:
        return {key: float(np.max(np.abs(v), initial=0.0)) for key, v in self.named_blocks()}

    def overall_max(self) -> float:
        """The largest block max, in one pass over every residual; a NaN
        anywhere gives NaN."""
        blocks = [np.ravel(v) for _, v in self.named_blocks()]
        return float(np.abs(np.concatenate(blocks)).max(initial=0.0))


def complementarity_pairs(
    net: PowerNetwork,
    sol: OpfSolution,
    zg: np.ndarray | None = None,
    zf: np.ndarray | None = None,
    zt: np.ndarray | None = None,
) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Slack F2 and multiplier y2 of each complementarity pair, keyed by PAIR_BLOCKS.

    ``zg, zf, zt`` shift the generation / flow / angle limits as in
    :func:`kkt_residuals`.
    """
    g_up, f_cap, t_cap = attack_bounds(net, zg, zf, zt)
    angle_diff = net.arrays.incidence @ sol.theta
    slacks = {
        "gen_lo": sol.g - net.arrays.g_lo,
        "gen_up": g_up - sol.g,
        "flow_lo": sol.f + f_cap,
        "flow_up": f_cap - sol.f,
        "angle_lo": angle_diff + t_cap,
        "angle_up": t_cap - angle_diff,
        "unserved_lo": sol.u,
        "unserved_up": sol.demand - sol.u,
    }
    return slacks, {pair: getattr(sol, fld) for pair, fld in PAIR_DUALS.items()}


def kkt_residuals(
    net: PowerNetwork,
    sol: OpfSolution,
    zg: np.ndarray | None = None,
    zf: np.ndarray | None = None,
    zt: np.ndarray | None = None,
) -> KktResiduals:
    """Evaluate every KKT residual of ``sol`` against (possibly attacked) bounds.

    Demand and VOLL are taken from the solution itself; ``zg, zf, zt``
    shift the generation / flow / angle limits the same way the attacker
    MILP does.  Raises ValueError when ``sol`` is not laid out for ``net``.
    """
    if sol.layout != OpfLayout.of(net):
        raise ValueError(f"solution is laid out for another network than {net.name!r}")
    arr = net.arrays
    A, Bmw, M, ref = arr.incidence, arr.susceptance_mw, arr.gen_node_map, arr.ref
    d = sol.demand
    voll = sol.voll

    pi_at_gen = M.T @ sol.pi_d

    stationarity = {
        "stat_g": arr.gen_costs - sol.rho_g_lo + sol.rho_g_up - pi_at_gen,
        "stat_f": A @ sol.pi_d + sol.pi_f - sol.rho_f_lo + sol.rho_f_up,
        "stat_theta": A.T @ (-Bmw * sol.pi_f - sol.rho_th_lo + sol.rho_th_up)
        + arr.e_ref * sol.delta,
        "stat_u": voll - sol.rho_u_lo + sol.rho_u_up - sol.pi_d,
    }

    slacks, duals = complementarity_pairs(net, sol, zg, zf, zt)
    angle_diff = A @ sol.theta

    primal = {
        "balance": np.abs(M @ sol.g + sol.u - d - A.T @ sol.f),
        "flow_law": np.abs(sol.f - Bmw * angle_diff),
        "reference": np.array([abs(sol.theta[ref])]),
    }
    for k, s in slacks.items():
        primal[k] = np.maximum(-s, 0.0)

    complementarity = {k: np.abs(duals[k] * slacks[k]) for k in PAIR_BLOCKS}
    dual_sign = {k: np.maximum(-duals[k], 0.0) for k in PAIR_BLOCKS}

    return KktResiduals(stationarity, primal, complementarity, dual_sign)


def verify_equilibrium(res: KktResiduals, tol: float) -> bool:
    """True iff every residual block max-norm is within ``tol``; tol > 0."""
    if not tol > 0:
        raise ValueError("tolerance must be positive")
    return res.overall_max() <= tol


def residual_rows(res: KktResiduals) -> list[tuple[str, int, float]]:
    """Flatten residuals to (block, index, value) rows for diagnostics."""
    return [(key, i, float(v)) for key, vec in res.named_blocks()
            for i, v in enumerate(np.atleast_1d(vec))]
