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


# The blocks of an hourly equilibrium point (y1, y2) in the attack MILP's
# column order, each with the entity kind (a PowerNetwork list attribute)
# that sizes it; delta, the reference-angle dual, is a single entry
OPF_BLOCKS = {
    "g": "generators", "f": "edges", "u": "nodes", "theta": "nodes",
    "pi_d": "nodes", "pi_f": "edges", "delta": None,
    "rho_g_lo": "generators", "rho_g_up": "generators",
    "rho_f_lo": "edges", "rho_f_up": "edges",
    "rho_th_lo": "edges", "rho_th_up": "edges",
    "rho_u_lo": "nodes", "rho_u_up": "nodes",
}


@dataclass(frozen=True)
class OpfLayout:
    """Where each :data:`OPF_BLOCKS` name lies in the equilibrium point of a
    network: ``blocks`` maps it to its slice, ``size`` is the point's length."""

    blocks: dict[str, slice]
    size: int

    @classmethod
    def of(cls, net: PowerNetwork) -> "OpfLayout":
        blocks, pos = {}, 0
        for name, kind in OPF_BLOCKS.items():
            size = 1 if kind is None else len(getattr(net, kind))
            blocks[name] = slice(pos, pos + size)
            pos += size
        return cls(blocks, pos)


@dataclass(frozen=True, slots=True)
class OpfSolution:
    """Primal and dual quantities of one hourly dispatch, frozen: one
    solution may be shared by many callers (:meth:`SeasonDispatch.base`).

    ``point`` is the equilibrium (y1, y2), read-only, laid out by ``layout``
    (ValueError when it does not fit); ``sol.g`` and each other
    :data:`OPF_BLOCKS` name is a view of its block.  Dual conventions match
    the stationarity system used across the package: nodal price pi_d is
    the balance-row dual, pi_f the flow-law dual, delta the reference-angle
    dual; rho_* are the nonnegative bound multipliers (lo/up per block).
    """

    season: str
    hour: int
    objective: float
    demand: np.ndarray
    voll: np.ndarray
    shed_cost: float  # voll . u, the disruption value of this hour
    point: np.ndarray
    layout: OpfLayout
    basis: np.ndarray | None = None  # optimal LP basis, read-only: warm start for this hour

    def __post_init__(self):
        if self.point.shape != (self.layout.size,):
            raise ValueError(f"point has shape {self.point.shape}, where its layout "
                             f"has ({self.layout.size},)")
        self.point.flags.writeable = False


for _name in OPF_BLOCKS:  # sol.g and the rest: views of the point
    setattr(OpfSolution, _name, property(lambda sol, n=_name: sol.point[sol.layout.blocks[n]]))


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
    ub) whose demand, VOLL and capacity entries each hour fills in, and the
    :class:`OpfLayout` of every solution it yields."""

    def __init__(self, net: PowerNetwork):
        super().__init__(_dispatch_matrix(net))
        self.net = net
        self.layout = OpfLayout.of(net)
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
    form: _DispatchForm,
    demand: DemandProfile,
    season: str,
    hour: int,
    lp_sol: LpSolution,
) -> OpfSolution:
    """Map an optimal LP solution over ``form`` to its equilibrium point."""
    net = form.net
    N, E, G = net.num_nodes, net.num_edges, net.num_generators
    x, y, rc = lp_sol.x, lp_sol.duals, lp_sol.reduced_costs
    d, voll = demand.at(season, hour)
    # the (lo, up) multipliers of the g, f, angle and u bounds: the positive
    # and negative parts of the reduced costs or of the angle rows' duals
    signed = (rc[:G], rc[G:G + E], y[N + E:N + 2 * E], rc[G + E:G + E + N])
    rhos = [part for v in signed for part in (np.maximum(v, 0.0), np.maximum(-v, 0.0))]
    # x is [g | f | u | theta]; pi_d, pi_f and delta are the balance,
    # flow-law and reference rows' duals
    point = np.concatenate([x, y[:N], -y[N:N + E], -y[N + 2 * E:], *rhos])
    return OpfSolution(season, hour, float(lp_sol.objective), d, voll,
                       float(voll @ point[form.layout.blocks["u"]]), point, form.layout,
                       lp_sol.basis)


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
) -> tuple[LpProblem, _DispatchForm]:
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
    return extract_solution(form, demand, season, hour, sol)


@dataclass
class DispatchVertex:
    """The optimal vertex of one hourly dispatch LP, with its shed cost.

    ``shed_cost`` is ``voll @ u`` at the vertex, the same float as the
    ``shed_cost`` of the finished solution; :meth:`finish` derives the
    duals and returns the :class:`OpfSolution` that :func:`solve_dcopf`
    would have returned for the same arguments, bit for bit.
    """

    form: _DispatchForm
    demand: DemandProfile
    season: str
    hour: int
    lp: LpVertex
    shed_cost: float

    def finish(self) -> OpfSolution:
        return extract_solution(self.form, self.demand, self.season, self.hour,
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
    u = vertex.x[form.layout.blocks["u"]]  # x is [g | f | u | theta], as the point begins
    return DispatchVertex(form, demand, season, hour, vertex,
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
    few pivots where a cold solve needs dozens.  When the basis is singular
    or fails numerically, :func:`solve_lp` solves the hour cold instead.
    An hour solved on first use is always solved cold, so no result depends
    on the order in which callers ask for hours.
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
        """The hour's unattacked dispatch, shared by every caller: the
        solution is frozen and its point, demand, VOLL and basis are read-only."""
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
