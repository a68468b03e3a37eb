"""Lower-level DC optimal power flow: LP construction and dual recovery.

One LP per (season, hour).  Columns are [g | f | u | theta]; rows are the
nodal balance equalities, the flow-law equalities tying flows to angle
differences, the ranged angle-difference rows, and the reference-angle
equality.  Flow orientation is start-to-end positive; with symmetric
limits this is equivalent to the opposite orientation up to a sign.

Capacity attacks enter as bound shifts: generation upper bounds drop by
``zg``, flow capacity shrinks symmetrically by ``zf``, angle-difference
limits shrink symmetrically by ``zt``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import DemandProfile, PowerNetwork, incidence_matrix
from .simplex import LpProblem, LpSolution, SolverNumericalError, solve_lp


class OpfInfeasibleError(RuntimeError):
    """The OPF should always be feasible (shedding is allowed); raised if not."""


# OpfSolution array fields per entity kind (a PowerNetwork list attribute),
# in the row order of opf_solution.csv
OPF_ARRAYS = {
    "generators": ("g", "rho_g_lo", "rho_g_up"),
    "edges": ("f", "pi_f", "rho_f_lo", "rho_f_up", "rho_th_lo", "rho_th_up"),
    "nodes": ("u", "theta", "pi_d", "rho_u_lo", "rho_u_up"),
}


@dataclass
class OpfSolution:
    """Primal and dual quantities of one hourly dispatch.

    Dual conventions match the stationarity system used across the
    package: nodal price pi_d is the balance-row dual, pi_f the flow-law
    dual, delta the reference-angle dual; rho_* are the nonnegative bound
    multipliers (lo/up per block).
    """

    season: str
    hour: int
    g: np.ndarray
    f: np.ndarray
    u: np.ndarray
    theta: np.ndarray
    pi_d: np.ndarray
    pi_f: np.ndarray
    delta: float
    rho_g_lo: np.ndarray
    rho_g_up: np.ndarray
    rho_f_lo: np.ndarray
    rho_f_up: np.ndarray
    rho_th_lo: np.ndarray
    rho_th_up: np.ndarray
    rho_u_lo: np.ndarray
    rho_u_up: np.ndarray
    objective: float
    demand: np.ndarray
    voll: np.ndarray
    shed_cost: float  # voll . u, the disruption value of this hour
    basis: np.ndarray | None = None  # optimal LP basis: warm start for this hour


def attack_bounds(
    net: PowerNetwork,
    zg: np.ndarray | None,
    zf: np.ndarray | None,
    zt: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Effective (gen upper, flow magnitude, angle magnitude) limits under attack."""
    _, g_up = net.gen_limits()
    f_cap = net.flow_limits()
    t_cap = net.angle_limits()
    if zg is not None:
        g_up = g_up - np.asarray(zg, dtype=float)
    if zf is not None:
        f_cap = f_cap - np.asarray(zf, dtype=float)
    if zt is not None:
        t_cap = t_cap - np.asarray(zt, dtype=float)
    return g_up, f_cap, t_cap


def build_dcopf(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    zg: np.ndarray | None = None,
    zf: np.ndarray | None = None,
    zt: np.ndarray | None = None,
) -> LpProblem:
    """Assemble the hourly dispatch LP with labeled rows and columns."""
    N, E, G = net.num_nodes, net.num_edges, net.num_generators
    A = incidence_matrix(net)
    Bmw = net.susceptance_mw_per_rad()
    M = net.gen_node_map()
    d = demand.demand[season][hour]
    voll = demand.voll[season][hour]
    g_lo, _ = net.gen_limits()
    g_up, f_cap, t_cap = attack_bounds(net, zg, zf, zt)
    ref = net.node_index()[net.reference_node]

    n_cols = G + E + N + N
    c = np.concatenate([net.gen_costs(), np.zeros(E), voll, np.zeros(N)])

    rows = N + E + E + 1
    Amat = np.zeros((rows, n_cols))
    row_lb = np.zeros(rows)
    row_ub = np.zeros(rows)
    labels = []

    # nodal balance: sum(g at n) + u_n - (A^T f)_n = d_n
    Amat[:N, :G] = M
    Amat[:N, G + E:G + E + N] = np.eye(N)
    Amat[:N, G:G + E] = -A.T
    row_lb[:N] = d
    row_ub[:N] = d
    labels += [f"bal[{nd.id}]" for nd in net.nodes]

    # flow law: f_e - B'_e (A theta)_e = 0
    r0 = N
    Amat[r0:r0 + E, G:G + E] = np.eye(E)
    Amat[r0:r0 + E, G + E + N:] = -Bmw[:, None] * A
    labels += [f"flow[{e.id}]" for e in net.edges]

    # angle-difference range: (A theta)_e within +-(limit - zt)
    r1 = r0 + E
    Amat[r1:r1 + E, G + E + N:] = A
    row_lb[r1:r1 + E] = -t_cap
    row_ub[r1:r1 + E] = t_cap
    labels += [f"ang[{e.id}]" for e in net.edges]

    # reference angle pinned to zero
    r2 = r1 + E
    Amat[r2, G + E + N + ref] = 1.0
    labels.append("ref")

    lb = np.concatenate([g_lo, -f_cap, np.zeros(N), np.full(N, -np.inf)])
    ub = np.concatenate([g_up, f_cap, d, np.full(N, np.inf)])
    col_labels = (
        [f"g[{g.id}]" for g in net.generators]
        + [f"f[{e.id}]" for e in net.edges]
        + [f"u[{nd.id}]" for nd in net.nodes]
        + [f"th[{nd.id}]" for nd in net.nodes]
    )
    return LpProblem("min", c, Amat, row_lb, row_ub, lb, ub, labels, col_labels)


def extract_solution(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    lp_sol: LpSolution,
) -> OpfSolution:
    """Map an optimal LP solution back to named dispatch quantities."""
    N, E, G = net.num_nodes, net.num_edges, net.num_generators
    x = lp_sol.x
    y = lp_sol.duals
    rc = lp_sol.reduced_costs
    d = demand.demand[season][hour]
    voll = demand.voll[season][hour]

    g = x[:G]
    f = x[G:G + E]
    u = x[G + E:G + E + N]
    theta = x[G + E + N:]

    pi_d = y[:N]
    pi_f = -y[N:N + E]
    y_ang = y[N + E:N + 2 * E]
    delta = float(-y[N + 2 * E])

    rc_g = rc[:G]
    rc_f = rc[G:G + E]
    rc_u = rc[G + E:G + E + N]

    return OpfSolution(
        season=season,
        hour=hour,
        g=g.copy(),
        f=f.copy(),
        u=u.copy(),
        theta=theta.copy(),
        pi_d=pi_d.copy(),
        pi_f=pi_f.copy(),
        delta=delta,
        rho_g_lo=np.maximum(rc_g, 0.0),
        rho_g_up=np.maximum(-rc_g, 0.0),
        rho_f_lo=np.maximum(rc_f, 0.0),
        rho_f_up=np.maximum(-rc_f, 0.0),
        rho_th_lo=np.maximum(y_ang, 0.0),
        rho_th_up=np.maximum(-y_ang, 0.0),
        rho_u_lo=np.maximum(rc_u, 0.0),
        rho_u_up=np.maximum(-rc_u, 0.0),
        objective=float(lp_sol.objective),
        demand=d.copy(),
        voll=voll.copy(),
        shed_cost=float(voll @ u),
        basis=lp_sol.basis,
    )


def solve_dcopf(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    zg: np.ndarray | None = None,
    zf: np.ndarray | None = None,
    zt: np.ndarray | None = None,
    basis: np.ndarray | None = None,
) -> OpfSolution:
    """Solve one hourly dispatch and recover every primal and dual quantity.

    ``basis`` is the ``basis`` of another dispatch of the same hour (same
    network and demand, any attack); it warm-starts the LP solve.
    """
    lp = build_dcopf(net, demand, season, hour, zg, zf, zt)
    sol = solve_lp(lp, basis=basis)
    if sol.status == "infeasible":
        raise OpfInfeasibleError(
            f"dispatch infeasible at {season}/{hour} (attack exceeds capacities?)")
    if sol.status != "optimal":
        raise SolverNumericalError(f"dispatch ended with status {sol.status}")
    return extract_solution(net, demand, season, hour, sol)


def solve_day(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
) -> list[OpfSolution]:
    """Solve all hours of one season independently (no intertemporal coupling)."""
    return [solve_dcopf(net, demand, season, h)
            for h in range(demand.hours(season))]


def solution_rows(sol: OpfSolution, net: PowerNetwork) -> list[tuple]:
    """Flatten a solution to (season, hour, entity, quantity, value) rows."""
    rows = [(sol.season, sol.hour, item.id, name, getattr(sol, name)[k])
            for kind, names in OPF_ARRAYS.items()
            for k, item in enumerate(getattr(net, kind)) for name in names]
    rows.append((sol.season, sol.hour, "system", "delta", sol.delta))
    rows.append((sol.season, sol.hour, "system", "objective", sol.objective))
    return rows
