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

from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .network import DemandProfile, PowerNetwork
from .simplex import (LpForm, LpProblem, LpSolution, LpVertex, SolverNumericalError,
                      finish_lp, optimize_lp, solve_lp)


class OpfInfeasibleError(RuntimeError):
    """The OPF should always be feasible (shedding is allowed); raised if not."""


# OpfSolution array fields per entity kind (a PowerNetwork list attribute),
# in the row order of opf_solution.csv
OPF_ARRAYS = {
    "generators": ("g", "rho_g_lo", "rho_g_up"),
    "edges": ("f", "pi_f", "rho_f_lo", "rho_f_up", "rho_th_lo", "rho_th_up"),
    "nodes": ("u", "theta", "pi_d", "rho_u_lo", "rho_u_up"),
}


@dataclass(slots=True)
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
    """Effective (gen upper, flow magnitude, angle magnitude) limits under attack.

    A limit no attack shifts is the network's own read-only array.
    """
    arr = net.arrays
    g_up, f_cap, t_cap = arr.g_up, arr.f_cap, arr.t_cap
    if zg is not None:
        g_up = g_up - np.asarray(zg, dtype=float)
    if zf is not None:
        f_cap = f_cap - np.asarray(zf, dtype=float)
    if zt is not None:
        t_cap = t_cap - np.asarray(zt, dtype=float)
    return g_up, f_cap, t_cap


def _dispatch_matrix(net: PowerNetwork) -> np.ndarray:
    """Constraint matrix shared by every hourly dispatch LP of ``net``.

    Rows: nodal balance, flow law, angle-difference range, reference angle;
    columns [g | f | u | theta].  Hours and attacks change only ``c`` and
    the bounds.
    """
    N, E, G = net.num_nodes, net.num_edges, net.num_generators
    arr = net.arrays
    A, Bmw = arr.incidence, arr.susceptance_mw
    Amat = np.zeros((N + E + E + 1, G + E + N + N))
    # nodal balance: sum(g at n) + u_n - (A^T f)_n = d_n
    Amat[:N, :G] = arr.gen_node_map
    Amat[:N, G + E:G + E + N] = np.eye(N)
    Amat[:N, G:G + E] = -A.T
    # flow law: f_e - B'_e (A theta)_e = 0
    Amat[N:N + E, G:G + E] = np.eye(E)
    Amat[N:N + E, G + E + N:] = -Bmw[:, None] * A
    # angle-difference range: (A theta)_e within +-(limit - zt)
    Amat[N + E:N + 2 * E, G + E + N:] = A
    # reference angle pinned to zero
    Amat[N + 2 * E, G + E + N + arr.ref] = 1.0
    return Amat


class _DispatchForm(LpForm):
    """The :class:`LpForm` of ``net``'s dispatch matrix, with the network's
    parts of every hourly dispatch LP: the vectors (c, row_lb, row_ub, lb,
    ub) whose demand, VOLL and capacity entries each hour fills in."""

    def __init__(self, net: PowerNetwork):
        super().__init__(_dispatch_matrix(net))
        self.net = net
        N, E, G = net.num_nodes, net.num_edges, net.num_generators
        arr = net.arrays
        self.vectors = (
            np.concatenate([arr.gen_costs, np.zeros(E + 2 * N)]),
            np.zeros(N + 2 * E + 1),
            np.zeros(N + 2 * E + 1),
            np.concatenate([arr.g_lo, np.zeros(E + N), np.full(N, -np.inf)]),
            np.concatenate([np.zeros(G + E + N), np.full(N, np.inf)]),
        )


def _hour_lp(
    form: _DispatchForm,
    demand: DemandProfile,
    season: str,
    hour: int,
    zg: np.ndarray | None,
    zf: np.ndarray | None,
    zt: np.ndarray | None,
) -> LpProblem:
    """The hourly dispatch LP over ``form``'s matrix, unlabeled."""
    net = form.net
    N, E, G = net.num_nodes, net.num_edges, net.num_generators
    u = slice(G + E, G + E + N)
    d, voll = demand.at(season, hour)
    c, row_lb, row_ub, lb, ub = (v.copy() for v in form.vectors)
    c[u] = voll
    row_lb[:N] = d
    row_ub[:N] = d
    ub[u] = d
    g_up, f_cap, t_cap = attack_bounds(net, zg, zf, zt)
    ub[:G] = g_up
    lb[G:G + E] = -f_cap
    ub[G:G + E] = f_cap
    row_lb[N + E:N + 2 * E] = -t_cap
    row_ub[N + E:N + 2 * E] = t_cap
    return LpProblem("min", c, form.A, row_lb, row_ub, lb, ub)


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
    lp = _hour_lp(dispatch_form(net), demand, season, hour, zg, zf, zt)
    lp.row_labels = ([f"bal[{nd.id}]" for nd in net.nodes]
                     + [f"flow[{e.id}]" for e in net.edges]
                     + [f"ang[{e.id}]" for e in net.edges] + ["ref"])
    lp.col_labels = (
        [f"g[{g.id}]" for g in net.generators]
        + [f"f[{e.id}]" for e in net.edges]
        + [f"u[{nd.id}]" for nd in net.nodes]
        + [f"th[{nd.id}]" for nd in net.nodes]
    )
    return lp


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
    d, voll = demand.at(season, hour)

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


def dispatch_form(net: PowerNetwork) -> LpForm:
    """The scaled standard form every hourly dispatch LP of ``net`` shares,
    with the network's costs and must-run floors in the LPs' vectors, built once."""
    return _DispatchForm(net)


def _dispatch_lp(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    zg: np.ndarray | None,
    zf: np.ndarray | None,
    zt: np.ndarray | None,
    form: LpForm | None,
) -> tuple[LpProblem, LpForm]:
    """The hourly dispatch LP over ``form``, :func:`dispatch_form` of ``net``
    (one is built when it is None), with that form."""
    form = form if form is not None else dispatch_form(net)
    if not (isinstance(form, _DispatchForm) and form.net is net):
        raise ValueError("form is not the dispatch form of this network")
    return _hour_lp(form, demand, season, hour, zg, zf, zt), form


def _check_status(status: str, season: str, hour: int) -> None:
    if status == "infeasible":
        raise OpfInfeasibleError(
            f"dispatch infeasible at {season}/{hour} (attack exceeds capacities?)")
    if status != "optimal":
        raise SolverNumericalError(f"dispatch ended with status {status}")


def solve_dcopf(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    zg: np.ndarray | None = None,
    zf: np.ndarray | None = None,
    zt: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    form: LpForm | None = None,
) -> OpfSolution:
    """Solve one hourly dispatch and recover every primal and dual quantity.

    ``basis`` is the ``basis`` of another dispatch of the same network: the
    same hour under any attack, or (as :class:`SeasonDispatch` chains them)
    the hour before; it warm-starts the LP solve.  ``form`` is
    :func:`dispatch_form` of ``net``, shared by the solves of one run or
    ladder; without it the solve builds its own.  The answer does not depend on it.
    Raises ValueError for a form of another network.  A caller that only
    ranks attacks by their shed uses :func:`dispatch_vertex` instead and
    finishes the one it keeps into this same solution.
    """
    lp, form = _dispatch_lp(net, demand, season, hour, zg, zf, zt, form)
    sol = solve_lp(lp, basis=basis, form=form)
    _check_status(sol.status, season, hour)
    return extract_solution(net, demand, season, hour, sol)


@dataclass
class DispatchVertex:
    """The optimal vertex of one hourly dispatch LP, with its shed cost.

    ``shed_cost`` is ``voll @ u`` at the vertex, the same float as the
    ``shed_cost`` of the finished solution; :meth:`finish` derives the
    duals and returns the :class:`OpfSolution` that :func:`solve_dcopf`
    would have returned for the same arguments, bit for bit.
    """

    net: PowerNetwork
    demand: DemandProfile
    season: str
    hour: int
    lp: LpVertex
    shed_cost: float

    def finish(self) -> OpfSolution:
        return extract_solution(self.net, self.demand, self.season, self.hour,
                                finish_lp(self.lp))


def dispatch_vertex(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    zg: np.ndarray | None = None,
    zf: np.ndarray | None = None,
    zt: np.ndarray | None = None,
    basis: np.ndarray | None = None,
    form: LpForm | None = None,
) -> DispatchVertex:
    """The optimize stage of :func:`solve_dcopf`: the dispatch's vertex and
    shed cost, without its duals.

    Takes the arguments of :func:`solve_dcopf` and raises what it raises,
    where it raises it (:class:`OpfInfeasibleError`,
    :class:`SolverNumericalError`, ValueError).  The vertex holds its
    simplex tableau until it is finished or dropped, so keep it no longer
    than the search that compares it.
    """
    lp, form = _dispatch_lp(net, demand, season, hour, zg, zf, zt, form)
    vertex = optimize_lp(lp, basis=basis, form=form)
    _check_status(vertex.status, season, hour)
    G, E, N = net.num_generators, net.num_edges, net.num_nodes
    u = vertex.x[G + E:G + E + N]
    return DispatchVertex(net, demand, season, hour, vertex,
                          float(demand.at(season, hour)[1] @ u))


class SeasonDispatch:
    """The dispatch LPs of one network, demand and season: an attack run,
    a day's unattacked dispatch, or every step of a sensitivity ladder
    over one scenario's day.

    Holds the network's :func:`dispatch_form`, which every solve passes to
    :func:`solve_dcopf`, so the solves share the form's store of basis
    inverses, and each hour's unattacked dispatch, solved once: the
    ``hours`` given up front, any other hour on first use.  ``no_attack``
    is the (zg, zf, zt) of an hour that spends nothing, read-only zero
    arrays that every such hour shares.  Nothing else it returns refers
    back to it, so it lives only as long as the run or ladder that made it.

    The up-front hours are chained: each is warm-started from the optimal
    basis of the hour before it in the given order, the first one cold.
    Consecutive hours differ only in demand and VOLL, so that basis stays
    dual feasible once the warm start has moved each boxed nonbasic column
    to the bound its reduced cost asks for, and the dual simplex needs a
    few pivots where a cold solve needs dozens.  When the basis is not dual
    feasible, is singular or fails numerically, :func:`solve_lp` solves
    the hour cold instead.  An hour solved on first use is always solved
    cold, so no result depends on the order in which callers ask for hours.
    """

    def __init__(self, net: PowerNetwork, demand: DemandProfile, season: str,
                 hours: Iterable[int] = ()):
        self.net = net
        self.demand = demand
        self.season = season
        self.form = dispatch_form(net)
        G, E = net.num_generators, net.num_edges
        self.no_attack = tuple(np.zeros(k) for k in (G, E, E))
        for z in self.no_attack:
            z.flags.writeable = False
        self._base: dict[int, OpfSolution] = {}
        basis = None
        for h in hours:
            if h not in self._base:
                self._base[h] = solve_dcopf(net, demand, season, h, basis=basis,
                                            form=self.form)
            basis = self._base[h].basis

    def base(self, hour: int) -> OpfSolution:
        """The hour's unattacked dispatch; callers must not modify it."""
        if hour not in self._base:
            self._base[hour] = solve_dcopf(self.net, self.demand, self.season, hour,
                                           form=self.form)
        return self._base[hour]


def solve_day(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
) -> list[OpfSolution]:
    """Solve all hours of one season independently (no intertemporal coupling).

    Each hour is warm-started from the previous hour's basis (see
    :class:`SeasonDispatch`) and reaches the same optimum as a cold solve.
    """
    hours = range(demand.hours(season))
    day = SeasonDispatch(net, demand, season, hours)
    return [day.base(h) for h in hours]
