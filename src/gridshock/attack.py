"""Upper level: budget-constrained disruption maximization.

The attacker chooses capacity reductions (zg per generator, zf per edge,
zt per edge angle limit) to maximize the value of unserved demand, while
the operator re-dispatches optimally.  The lower level enters through its
optimality system: stationarity and primal equalities stay as linear rows,
and each bound/multiplier complementarity pair is switched by one binary.

Two exact reformulation details beyond the plain big-M recipe:

* primal-side complementarity rows use exact structural coefficients
  (the largest slack any feasible point can show) instead of the generic
  big M; this never cuts a feasible integer point and tightens the LP
  relaxation substantially.  The configured big M still governs the dual
  side and is checked post hoc against the returned solution's max-norm.
* at any integer-feasible point where a node's shed indicator allows
  curtailment, local generators must sit exactly at compromised capacity
  (their capacity rent is strictly positive because VOLL exceeds every
  marginal cost); the corresponding logic rows are added as valid cuts.

The cross-hour step of the decomposition replaces a general nonlinear
restart with deterministic coordinate ascent on the hourly budget split:
move one budget quantum at a time from the hour losing least to the hour
gaining most, re-solving the two hourly problems, until no move improves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcopf import OpfSolution, solve_dcopf
from .kkt import kkt_residuals, verify_equilibrium
from .milp import MilpProblem, solve_milp
from .network import DemandProfile, PowerNetwork, incidence_matrix
from .simplex import LpProblem

MICRO_PENALTY = 1e-9  # prefers minimal-effort attacks among ties
CERT_TOL = 1e-5
BIGM_GROWTH = 10.0
BIGM_RETRIES = 3


class BigMInvalidError(RuntimeError):
    """Solution magnitude reached the big-M value even after retries."""


@dataclass(frozen=True)
class AttackCosts:
    """Attacker resource prices and seasonal budget.

    ``cg`` is per generator (budget units per MW), ``cf`` per edge (per
    MW), ``ct`` per edge (per rad).
    """

    cg: np.ndarray
    cf: np.ndarray
    ct: np.ndarray
    budget: float

    def __post_init__(self):
        for name in ("cg", "cf", "ct"):
            arr = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, arr)
            if np.any(arr <= 0):
                raise ValueError(f"attack costs {name} must be strictly positive")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")

    def scaled(self, gen_factor: float = 1.0, wire_factor: float = 1.0,
               budget_factor: float = 1.0) -> "AttackCosts":
        return AttackCosts(self.cg * gen_factor, self.cf * wire_factor,
                           self.ct * wire_factor, self.budget * budget_factor)


def default_costs(net: PowerNetwork, budget: float, cost_ratio: float = 5.0,
                  gen_cost: float = 1.0) -> AttackCosts:
    """Default pricing: wires cost ``cost_ratio`` times generation per MW.

    Angle costs are quoted per radian; they are priced at the radian's
    MW-equivalent (edge stiffness times the wire price) so the angle
    channel is cost-neutral against the flow channel instead of being a
    spurious cheap path to the same physical effect.
    """
    cg = np.full(net.num_generators, gen_cost)
    cf = np.full(net.num_edges, gen_cost * cost_ratio)
    ct = cf * net.susceptance_mw_per_rad()
    return AttackCosts(cg, cf, ct, budget)


@dataclass
class BigMConfig:
    m_value: float

    @staticmethod
    def for_network(net: PowerNetwork, demand: DemandProfile) -> "BigMConfig":
        volls = max(float(np.max(v)) for v in demand.voll.values())
        _, g_up = net.gen_limits()
        scale = max(volls, float(g_up.sum()), 2.0 * float(net.flow_limits().sum()))
        return BigMConfig(m_value=10.0 * scale)


@dataclass
class HourlyAttack:
    """Attack decision and resulting equilibrium for one (season, hour)."""

    season: str
    hour: int
    zg: np.ndarray
    zf: np.ndarray
    zt: np.ndarray
    spend: float
    objective: float  # voll . u at the induced equilibrium
    opf: OpfSolution
    status: str
    nodes: int = 0
    bigm_valid: bool = True
    certificate_ok: bool = True


@dataclass
class AttackPlan:
    season: str
    hours: list[HourlyAttack]
    budget: float

    @property
    def objective(self) -> float:
        return float(sum(h.objective for h in self.hours))

    @property
    def total_spend(self) -> float:
        return float(sum(h.spend for h in self.hours))

    def unserved_matrix(self) -> np.ndarray:
        return np.array([h.opf.u for h in self.hours])


class _Layout:
    """Column/row offsets of the attack MILP for a list of hours."""

    def __init__(self, net: PowerNetwork, n_hours: int):
        G, E, N = net.num_generators, net.num_edges, net.num_nodes
        self.G, self.E, self.N = G, E, N
        self.pair_sizes = {
            "gen_lo": G, "gen_up": G, "flow_lo": E, "flow_up": E,
            "angle_lo": E, "angle_up": E, "unserved_lo": N, "unserved_up": N,
        }
        self.n_y2 = 2 * G + 4 * E + 2 * N
        self.per_hour = (G + 2 * E) + (G + E + 2 * N) + (N + E + 1) + 2 * self.n_y2
        self.n_hours = n_hours
        names = ["zg", "zf", "zt", "g", "f", "u", "th", "pi_d", "pi_f", "delta",
                 "rho_gen_lo", "rho_gen_up", "rho_flow_lo", "rho_flow_up",
                 "rho_angle_lo", "rho_angle_up", "rho_unserved_lo", "rho_unserved_up",
                 "gam_gen_lo", "gam_gen_up", "gam_flow_lo", "gam_flow_up",
                 "gam_angle_lo", "gam_angle_up", "gam_unserved_lo", "gam_unserved_up"]
        sizes = [G, E, E, G, E, N, N, N, E, 1,
                 G, G, E, E, E, E, N, N,
                 G, G, E, E, E, E, N, N]
        self.block_size = dict(zip(names, sizes))
        self.offsets: list[dict[str, int]] = []
        pos = 0
        for _ in range(n_hours):
            offs = {}
            for nm, sz in zip(names, sizes):
                offs[nm] = pos
                pos += sz
            self.offsets.append(offs)
        self.n_cols = pos

    def sl(self, hour_pos: int, name: str) -> slice:
        off = self.offsets[hour_pos][name]
        return slice(off, off + self.block_size[name])


def _build_attack_milp(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hours: list[int],
    costs: AttackCosts,
    budgets: list[float] | float,
    bigm: BigMConfig,
) -> tuple[MilpProblem, _Layout]:
    """Assemble the attack MILP over the given hours.

    ``budgets`` is either one row over all hours (a float: the joint
    formulation) or one row per hour (a list: the decoupled formulation).
    """
    G, E, N = net.num_generators, net.num_edges, net.num_nodes
    A = incidence_matrix(net)
    Bmw = net.susceptance_mw_per_rad()
    Mmap = net.gen_node_map()
    g_lo, g_up = net.gen_limits()
    f_cap = net.flow_limits()
    t_cap = net.angle_limits()
    cg_op = net.gen_costs()
    ref = net.node_index()[net.reference_node]
    M = bigm.m_value
    lay = _Layout(net, len(hours))
    joint = np.isscalar(budgets)
    total_budget = float(budgets) if joint else float(sum(budgets))

    # budget presolve: no single component can absorb more than the budget
    zg_ub = np.minimum(g_up, total_budget / costs.cg)
    zf_ub = np.minimum(f_cap, total_budget / costs.cf)
    zt_ub = np.minimum(t_cap, total_budget / costs.ct)
    # angle pairs that can never bind given flow limits and affordable zt
    angle_slack = t_cap - zt_ub - f_cap / Bmw
    angle_dead = angle_slack > 1e-9

    kappa = {
        "gen_lo": g_up - g_lo, "gen_up": g_up - g_lo,
        "flow_lo": 2.0 * f_cap, "flow_up": 2.0 * f_cap,
        "angle_lo": 2.0 * t_cap, "angle_up": 2.0 * t_cap,
    }

    n = lay.n_cols
    c = np.zeros(n)
    lb = np.zeros(n)
    ub = np.zeros(n)
    col_labels = [""] * n

    rows_A: list[np.ndarray] = []
    rows_lb: list[float] = []
    rows_ub: list[float] = []
    row_labels: list[str] = []
    binaries: list[int] = []

    def add_row(coeffs: dict[int, float], lo: float, hi: float, label: str):
        r = np.zeros(n)
        for j, v in coeffs.items():
            r[j] = v
        rows_A.append(r)
        rows_lb.append(lo)
        rows_ub.append(hi)
        row_labels.append(label)

    for hp, h in enumerate(hours):
        d = demand.demand[season][h]
        voll = demand.voll[season][h]
        o = lay.offsets[hp]

        def at(name: str, i: int = 0) -> int:
            return o[name] + i

        kap_u = d.copy()

        # bounds and objective
        lb[lay.sl(hp, "zg")] = 0.0
        ub[lay.sl(hp, "zg")] = zg_ub
        lb[lay.sl(hp, "zf")] = 0.0
        ub[lay.sl(hp, "zf")] = zf_ub
        lb[lay.sl(hp, "zt")] = 0.0
        ub[lay.sl(hp, "zt")] = zt_ub
        lb[lay.sl(hp, "g")] = g_lo
        ub[lay.sl(hp, "g")] = g_up
        lb[lay.sl(hp, "f")] = -f_cap
        ub[lay.sl(hp, "f")] = f_cap
        lb[lay.sl(hp, "u")] = 0.0
        ub[lay.sl(hp, "u")] = d
        lb[lay.sl(hp, "th")] = -np.inf
        ub[lay.sl(hp, "th")] = np.inf
        lb[lay.sl(hp, "pi_d")] = -np.inf
        ub[lay.sl(hp, "pi_d")] = np.inf
        lb[lay.sl(hp, "pi_f")] = -np.inf
        ub[lay.sl(hp, "pi_f")] = np.inf
        lb[at("delta")] = -np.inf
        ub[at("delta")] = np.inf
        for blk in ("gen_lo", "gen_up", "flow_lo", "flow_up",
                    "angle_lo", "angle_up", "unserved_lo", "unserved_up"):
            lb[lay.sl(hp, "rho_" + blk)] = 0.0
            ub[lay.sl(hp, "rho_" + blk)] = M
            gsl = lay.sl(hp, "gam_" + blk)
            lb[gsl] = 0.0
            ub[gsl] = 1.0
        # dead angle pairs: multiplier and indicator pinned to zero
        for e in range(E):
            if angle_dead[e]:
                for blk in ("angle_lo", "angle_up"):
                    ub[at("rho_" + blk, e)] = 0.0
                    ub[at("gam_" + blk, e)] = 0.0

        c[lay.sl(hp, "u")] = voll
        c[lay.sl(hp, "zg")] = -MICRO_PENALTY
        c[lay.sl(hp, "zf")] = -MICRO_PENALTY
        c[lay.sl(hp, "zt")] = -MICRO_PENALTY

        # shed indicators first: the branching rule's tie-break prefers them
        for blk in ("unserved_lo", "unserved_up", "gen_lo", "gen_up",
                    "flow_lo", "flow_up", "angle_lo", "angle_up"):
            gsl = lay.sl(hp, "gam_" + blk)
            binaries.extend(range(gsl.start, gsl.stop))

        for k, gen in enumerate(net.generators):
            col_labels[at("zg", k)] = f"zg[{h}][{gen.id}]"
            col_labels[at("g", k)] = f"g[{h}][{gen.id}]"
        for e, edge in enumerate(net.edges):
            col_labels[at("zf", e)] = f"zf[{h}][{edge.id}]"
            col_labels[at("zt", e)] = f"zt[{h}][{edge.id}]"
            col_labels[at("f", e)] = f"f[{h}][{edge.id}]"

        # nodal balance and flow law (physics of the compromised grid)
        for nn in range(N):
            coeffs = {at("g", k): Mmap[nn, k] for k in range(G) if Mmap[nn, k]}
            coeffs[at("u", nn)] = 1.0
            for e in range(E):
                if A[e, nn]:
                    coeffs[at("f", e)] = -A[e, nn]
            add_row(coeffs, d[nn], d[nn], f"bal[{h}][{nn}]")
        for e in range(E):
            coeffs = {at("f", e): 1.0}
            for nn in range(N):
                if A[e, nn]:
                    coeffs[at("th", nn)] = -Bmw[e] * A[e, nn]
            add_row(coeffs, 0.0, 0.0, f"flowlaw[{h}][{e}]")
        add_row({at("th", ref): 1.0}, 0.0, 0.0, f"ref[{h}]")

        # stationarity rows
        for k in range(G):
            node = int(np.argmax(Mmap[:, k]))
            add_row({at("pi_d", node): 1.0, at("rho_gen_lo", k): 1.0,
                     at("rho_gen_up", k): -1.0}, cg_op[k], cg_op[k], f"stat_g[{h}][{k}]")
        for e in range(E):
            coeffs = {at("pi_f", e): 1.0, at("rho_flow_lo", e): -1.0,
                      at("rho_flow_up", e): 1.0}
            for nn in range(N):
                if A[e, nn]:
                    coeffs[at("pi_d", nn)] = A[e, nn]
            add_row(coeffs, 0.0, 0.0, f"stat_f[{h}][{e}]")
        for nn in range(N):
            coeffs: dict[int, float] = {}
            for e in range(E):
                if A[e, nn]:
                    coeffs[at("pi_f", e)] = -A[e, nn] * Bmw[e]
                    coeffs[at("rho_angle_lo", e)] = coeffs.get(at("rho_angle_lo", e), 0.0) - A[e, nn]
                    coeffs[at("rho_angle_up", e)] = coeffs.get(at("rho_angle_up", e), 0.0) + A[e, nn]
            if nn == ref:
                coeffs[at("delta")] = 1.0
            add_row(coeffs, 0.0, 0.0, f"stat_th[{h}][{nn}]")
        for nn in range(N):
            add_row({at("pi_d", nn): 1.0, at("rho_unserved_lo", nn): 1.0,
                     at("rho_unserved_up", nn): -1.0}, voll[nn], voll[nn],
                    f"stat_u[{h}][{nn}]")

        # attacked primal ranges (the F2 >= 0 side where z shifts a bound);
        # dead angle pairs keep generous slack whatever zt does, so their
        # range rows are redundant and skipped
        for k in range(G):
            add_row({at("g", k): 1.0, at("zg", k): 1.0}, -np.inf, g_up[k],
                    f"cap_g[{h}][{k}]")
        for e in range(E):
            add_row({at("f", e): 1.0, at("zf", e): -1.0}, -f_cap[e], np.inf,
                    f"cap_f_lo[{h}][{e}]")
            add_row({at("f", e): 1.0, at("zf", e): 1.0}, -np.inf, f_cap[e],
                    f"cap_f_up[{h}][{e}]")
            if angle_dead[e]:
                continue
            coeffs_lo = {at("zt", e): -1.0}
            coeffs_up = {at("zt", e): 1.0}
            for nn in range(N):
                if A[e, nn]:
                    coeffs_lo[at("th", nn)] = A[e, nn]
                    coeffs_up[at("th", nn)] = A[e, nn]
            add_row(coeffs_lo, -t_cap[e], np.inf, f"cap_t_lo[{h}][{e}]")
            add_row(coeffs_up, -np.inf, t_cap[e], f"cap_t_up[{h}][{e}]")

        # complementarity: slack <= (1 - gamma) * kappa, multiplier <= gamma * M
        for k in range(G):
            kp = kappa["gen_lo"][k]
            add_row({at("g", k): 1.0, at("gam_gen_lo", k): kp}, -np.inf,
                    kp + g_lo[k], f"cmp_gen_lo[{h}][{k}]")
            kp = kappa["gen_up"][k]
            add_row({at("g", k): -1.0, at("zg", k): -1.0, at("gam_gen_up", k): kp},
                    -np.inf, kp - g_up[k], f"cmp_gen_up[{h}][{k}]")
        for e in range(E):
            kp = kappa["flow_lo"][e]
            add_row({at("f", e): 1.0, at("zf", e): -1.0, at("gam_flow_lo", e): kp},
                    -np.inf, kp - f_cap[e], f"cmp_flow_lo[{h}][{e}]")
            kp = kappa["flow_up"][e]
            add_row({at("f", e): -1.0, at("zf", e): -1.0, at("gam_flow_up", e): kp},
                    -np.inf, kp - f_cap[e], f"cmp_flow_up[{h}][{e}]")
            if not angle_dead[e]:
                kp = kappa["angle_lo"][e]
                coeffs = {at("zt", e): -1.0, at("gam_angle_lo", e): kp}
                for nn in range(N):
                    if A[e, nn]:
                        coeffs[at("th", nn)] = A[e, nn]
                add_row(coeffs, -np.inf, kp - t_cap[e], f"cmp_angle_lo[{h}][{e}]")
                kp = kappa["angle_up"][e]
                coeffs = {at("zt", e): -1.0, at("gam_angle_up", e): kp}
                for nn in range(N):
                    if A[e, nn]:
                        coeffs[at("th", nn)] = -A[e, nn]
                add_row(coeffs, -np.inf, kp - t_cap[e], f"cmp_angle_up[{h}][{e}]")
        for nn in range(N):
            add_row({at("u", nn): 1.0, at("gam_unserved_lo", nn): kap_u[nn]},
                    -np.inf, kap_u[nn], f"cmp_u_lo[{h}][{nn}]")
            add_row({at("u", nn): -1.0, at("gam_unserved_up", nn): kap_u[nn]},
                    -np.inf, 0.0, f"cmp_u_up[{h}][{nn}]")

        # dual side: rho <= gamma * M
        for blk in ("gen_lo", "gen_up", "flow_lo", "flow_up",
                    "angle_lo", "angle_up", "unserved_lo", "unserved_up"):
            sz = lay.block_size["rho_" + blk]
            for i in range(sz):
                if blk.startswith("angle") and angle_dead[i]:
                    continue
                add_row({at("rho_" + blk, i): 1.0, at("gam_" + blk, i): -M},
                        -np.inf, 0.0, f"bigm_{blk}[{h}][{i}]")

        # logic cut: a node cleared for shedding pins local units to capacity
        for k in range(G):
            node = int(np.argmax(Mmap[:, k]))
            add_row({at("g", k): 1.0, at("zg", k): 1.0,
                     at("gam_unserved_lo", node): g_up[k]}, g_up[k], np.inf,
                    f"cut_sat[{h}][{k}]")

        if not joint:
            coeffs = {}
            for k in range(G):
                coeffs[at("zg", k)] = costs.cg[k]
            for e in range(E):
                coeffs[at("zf", e)] = costs.cf[e]
                coeffs[at("zt", e)] = costs.ct[e]
            add_row(coeffs, -np.inf, budgets[hp], f"budget[{h}]")

    if joint:
        coeffs = {}
        for hp in range(len(hours)):
            o = lay.offsets[hp]
            for k in range(G):
                coeffs[o["zg"] + k] = costs.cg[k]
            for e in range(E):
                coeffs[o["zf"] + e] = costs.cf[e]
                coeffs[o["zt"] + e] = costs.ct[e]
        add_row(coeffs, -np.inf, float(budgets), "budget")

    lp = LpProblem("max", c, np.array(rows_A), np.array(rows_lb), np.array(rows_ub),
                   lb, ub, row_labels, col_labels)
    return MilpProblem(lp, binaries), lay


def build_hourly_attack_milp(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    hourly_budget: float,
    bigm: BigMConfig | None = None,
) -> MilpProblem:
    """One-hour disruption MILP under an hourly budget (decoupled form)."""
    bigm = bigm or BigMConfig.for_network(net, demand)
    prob, _ = _build_attack_milp(net, demand, season, [hour], costs,
                                 [hourly_budget], bigm)
    return prob


def _extract_hour(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    x: np.ndarray,
    lay: _Layout,
    hp: int,
    costs: AttackCosts,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, OpfSolution, float]:
    zg = x[lay.sl(hp, "zg")].copy()
    zf = x[lay.sl(hp, "zf")].copy()
    zt = x[lay.sl(hp, "zt")].copy()
    d = demand.demand[season][hour]
    voll = demand.voll[season][hour]
    u = x[lay.sl(hp, "u")].copy()
    g = x[lay.sl(hp, "g")].copy()
    opf = OpfSolution(
        season=season, hour=hour,
        g=g, f=x[lay.sl(hp, "f")].copy(), u=u, theta=x[lay.sl(hp, "th")].copy(),
        pi_d=x[lay.sl(hp, "pi_d")].copy(), pi_f=x[lay.sl(hp, "pi_f")].copy(),
        delta=float(x[lay.offsets[hp]["delta"]]),
        rho_g_lo=x[lay.sl(hp, "rho_gen_lo")].copy(),
        rho_g_up=x[lay.sl(hp, "rho_gen_up")].copy(),
        rho_f_lo=x[lay.sl(hp, "rho_flow_lo")].copy(),
        rho_f_up=x[lay.sl(hp, "rho_flow_up")].copy(),
        rho_th_lo=x[lay.sl(hp, "rho_angle_lo")].copy(),
        rho_th_up=x[lay.sl(hp, "rho_angle_up")].copy(),
        rho_u_lo=x[lay.sl(hp, "rho_unserved_lo")].copy(),
        rho_u_up=x[lay.sl(hp, "rho_unserved_up")].copy(),
        objective=float(net.gen_costs() @ g + voll @ u),
        demand=d.copy(), voll=voll.copy(),
        shed_cost=float(voll @ u),
    )
    spend = float(costs.cg @ zg + costs.cf @ zf + costs.ct @ zt)
    return zg, zf, zt, opf, spend


def _solution_max_norm(x: np.ndarray, lay: _Layout) -> float:
    """Max-norm over the attack variables and the embedded (y1, y2) point."""
    worst = 0.0
    for hp in range(lay.n_hours):
        for name in ("zg", "zf", "zt", "g", "f", "u", "th", "pi_d", "pi_f", "delta",
                     "rho_gen_lo", "rho_gen_up", "rho_flow_lo", "rho_flow_up",
                     "rho_angle_lo", "rho_angle_up", "rho_unserved_lo",
                     "rho_unserved_up"):
            sl = lay.sl(hp, name)
            if sl.stop > sl.start:
                worst = max(worst, float(np.max(np.abs(x[sl]))))
    return worst


def _zone_packages(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    budget: float,
    top: int = 3,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Candidate opening purchases: cheapest supply-reduction ladder per zone.

    A zone sheds only once local generation plus import capacity drops
    below demand, so single marginal moves are blind to the first shed MW.
    For each zone, buy reductions cheapest-first (local units, then
    incident lines) until the budget runs out, and estimate the shed as
    the reduction bought beyond the zone's capacity margin.  Returns the
    (zg, zf) vectors of the best few estimates for exact evaluation.
    """
    G, E = net.num_generators, net.num_edges
    g_lo, g_up = net.gen_limits()
    f_cap = net.flow_limits()
    d = demand.demand[season][hour]
    idx = net.node_index()
    ranked = []
    for n, node in enumerate(net.nodes):
        if d[n] <= 0:
            continue
        items = []
        for k, gen in enumerate(net.generators):
            # only the span above the must-run floor is killable
            if idx[gen.node] == n and g_up[k] - g_lo[k] > 0:
                items.append((costs.cg[k], "g", k, g_up[k] - g_lo[k]))
        for e, edge in enumerate(net.edges):
            if n in (idx[edge.from_node], idx[edge.to_node]):
                items.append((costs.cf[e], "f", e, f_cap[e]))
        floor = sum(g_lo[k] for k, gen in enumerate(net.generators)
                    if idx[gen.node] == n)
        supply = sum(cap for _, _, _, cap in items) + floor
        margin = supply - d[n]
        if margin >= supply:
            continue
        items.sort(key=lambda t: (t[0], t[1], t[2]))
        remaining = budget
        bought = 0.0
        zg = np.zeros(G)
        zf = np.zeros(E)
        for price, kind, i, cap in items:
            amount = min(cap, remaining / price)
            if amount <= 1e-9:
                break
            if kind == "g":
                zg[i] = amount
            else:
                zf[i] = amount
            bought += amount
            remaining -= amount * price
        est = min(max(0.0, bought - max(margin, 0.0)), d[n])
        if est > 1e-9:
            ranked.append((est, n, zg, zf))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return [(zg, zf) for _, _, zg, zf in ranked[:top]]


def greedy_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    budget: float,
    shortlist: int = 12,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, OpfSolution]:
    """Greedy capacity-kill incumbent: zone opening package, then best moves.

    Stage one evaluates the most promising zone-isolation packages (see
    :func:`_zone_packages`) exactly.  Stage two repeatedly buys the best
    single capacity reduction, shortlisted by the current dispatch's
    capacity rents; each evaluation is one dispatch LP, warm-started from
    the unattacked dispatch's basis.  Deterministic.
    """
    G, E = net.num_generators, net.num_edges
    g_lo, g_up = net.gen_limits()
    kill_room = g_up - g_lo  # capacity below the must-run floor is untouchable
    f_cap = net.flow_limits()
    zg = np.zeros(G)
    zf = np.zeros(E)
    zt = np.zeros(E)
    remaining = budget
    current = solve_dcopf(net, demand, season, hour, zg, zf, zt)
    base = current.basis  # every candidate below re-solves this LP with lower bounds

    best_pack = None
    for pzg, pzf in _zone_packages(net, demand, season, hour, costs, budget):
        sol = solve_dcopf(net, demand, season, hour, pzg, pzf, zt, basis=base)
        if sol.shed_cost > current.shed_cost + 1e-9 and (
                best_pack is None or sol.shed_cost > best_pack[2].shed_cost):
            best_pack = (pzg, pzf, sol)
    if best_pack is not None:
        zg, zf, current = best_pack[0].copy(), best_pack[1].copy(), best_pack[2]
        remaining = budget - float(costs.cg @ zg + costs.cf @ zf)

    for _ in range(2 * (G + E)):
        if remaining <= 1e-9:
            break
        cands: list[tuple[float, int, str, int, float]] = []
        # rank by rent per budget unit; rents bound the local value of capacity
        for k in range(G):
            room = kill_room[k] - zg[k]
            amount = min(room, remaining / costs.cg[k])
            if amount > 1e-9:
                score = (current.rho_g_up[k] + 1e-12) / costs.cg[k]
                cands.append((score, 0, "g", k, amount))
        for e in range(E):
            room = f_cap[e] - zf[e]
            amount = min(room, remaining / costs.cf[e])
            if amount > 1e-9:
                rent = max(current.rho_f_up[e], current.rho_f_lo[e])
                score = (rent + 1e-12) / costs.cf[e]
                cands.append((score, 1, "f", e, amount))
        if not cands:
            break
        cands.sort(key=lambda t: (-t[0], t[1], t[3]))
        best_gain = 0.0
        best_move = None
        best_sol = None
        for _, _, kind, idx, amount in cands[:shortlist]:
            tg, tf = zg.copy(), zf.copy()
            if kind == "g":
                tg[idx] += amount
            else:
                tf[idx] += amount
            sol = solve_dcopf(net, demand, season, hour, tg, tf, zt, basis=base)
            gain = sol.shed_cost - current.shed_cost
            if gain > best_gain + 1e-9:
                best_gain = gain
                best_move = (kind, idx, amount)
                best_sol = sol
        if best_move is None:
            break
        kind, idx, amount = best_move
        if kind == "g":
            zg[idx] += amount
            remaining -= amount * costs.cg[idx]
        else:
            zf[idx] += amount
            remaining -= amount * costs.cf[idx]
        current = best_sol
    return zg, zf, zt, current


def _milp_point_from_dispatch(
    net: PowerNetwork,
    lay: _Layout,
    hp: int,
    zg: np.ndarray,
    zf: np.ndarray,
    zt: np.ndarray,
    sol: OpfSolution,
    x: np.ndarray,
    atol: float = 1e-7,
) -> None:
    """Write one hour's dispatch equilibrium into a MILP candidate vector."""
    g_lo, g_up = net.gen_limits()
    f_cap = net.flow_limits()
    t_cap = net.angle_limits()
    A = incidence_matrix(net)
    x[lay.sl(hp, "zg")] = zg
    x[lay.sl(hp, "zf")] = zf
    x[lay.sl(hp, "zt")] = zt
    x[lay.sl(hp, "g")] = sol.g
    x[lay.sl(hp, "f")] = sol.f
    x[lay.sl(hp, "u")] = sol.u
    x[lay.sl(hp, "th")] = sol.theta
    x[lay.sl(hp, "pi_d")] = sol.pi_d
    x[lay.sl(hp, "pi_f")] = sol.pi_f
    x[lay.offsets[hp]["delta"]] = sol.delta
    angle = A @ sol.theta
    slacks = {
        "gen_lo": sol.g - g_lo,
        "gen_up": (g_up - zg) - sol.g,
        "flow_lo": sol.f + (f_cap - zf),
        "flow_up": (f_cap - zf) - sol.f,
        "angle_lo": angle + (t_cap - zt),
        "angle_up": (t_cap - zt) - angle,
        "unserved_lo": sol.u,
        "unserved_up": sol.demand - sol.u,
    }
    rhos = {
        "gen_lo": sol.rho_g_lo, "gen_up": sol.rho_g_up,
        "flow_lo": sol.rho_f_lo, "flow_up": sol.rho_f_up,
        "angle_lo": sol.rho_th_lo, "angle_up": sol.rho_th_up,
        "unserved_lo": sol.rho_u_lo, "unserved_up": sol.rho_u_up,
    }
    for blk, rho in rhos.items():
        scale = 1.0 + np.abs(slacks[blk])
        active = slacks[blk] <= atol * scale
        x[lay.sl(hp, "rho_" + blk)] = np.where(active, rho, 0.0)
        x[lay.sl(hp, "gam_" + blk)] = np.where(active, 1.0, 0.0)


def solve_hourly_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    hourly_budget: float,
    bigm: BigMConfig | None = None,
    node_limit: int = 20_000,
    warm: HourlyAttack | None = None,
) -> HourlyAttack:
    """Solve the one-hour disruption problem; certify the returned point.

    The branch-and-bound search starts from a greedy incumbent (and any
    caller-provided warm plan whose spend fits the budget).  The embedded
    equilibrium is verified against the shifted bounds and the big-M
    footnote condition is enforced post hoc, growing M on failure.

    ``node_limit=0`` selects certificate-only mode: the best candidate
    attack is returned with its certified equilibrium and the search is
    skipped entirely (used by scenario sweeps where wall time matters and
    the candidate generator is already target-aware).
    """
    if hourly_budget <= 1e-12:
        opf = solve_dcopf(net, demand, season, hour)
        G, E = net.num_generators, net.num_edges
        return HourlyAttack(season, hour, np.zeros(G), np.zeros(E), np.zeros(E),
                            0.0, opf.shed_cost, opf, "optimal")

    bigm = bigm or BigMConfig.for_network(net, demand)
    zg, zf, zt, gsol = greedy_attack(net, demand, season, hour, costs, hourly_budget)
    candidates = [(zg, zf, zt, gsol)]
    if warm is not None:
        spend = float(costs.cg @ warm.zg + costs.cf @ warm.zf + costs.ct @ warm.zt)
        if spend <= hourly_budget + 1e-9:
            candidates.append(
                (warm.zg, warm.zf, warm.zt,
                 solve_dcopf(net, demand, season, hour, warm.zg, warm.zf, warm.zt,
                             basis=gsol.basis)))
    candidates.sort(key=lambda t: -t[3].shed_cost)

    if node_limit == 0:
        czg, czf, czt, csol = candidates[0]
        spend = float(costs.cg @ czg + costs.cf @ czf + costs.ct @ czt)
        cert = verify_equilibrium(kkt_residuals(net, csol, czg, czf, czt), CERT_TOL)
        norm = max(
            float(np.max(np.abs(v), initial=0.0))
            for v in (czg, czf, czt, csol.g, csol.f, csol.u, csol.theta,
                      csol.pi_d, csol.pi_f, np.array([csol.delta]),
                      csol.rho_g_lo, csol.rho_g_up, csol.rho_f_lo, csol.rho_f_up,
                      csol.rho_th_lo, csol.rho_th_up, csol.rho_u_lo, csol.rho_u_up))
        return HourlyAttack(season, hour, czg.copy(), czf.copy(), czt.copy(),
                            spend, csol.shed_cost, csol, "heuristic", 0,
                            norm < bigm.m_value, cert)

    m_value = bigm.m_value
    for attempt in range(BIGM_RETRIES + 1):
        cfg = BigMConfig(m_value)
        prob, lay = _build_attack_milp(net, demand, season, [hour], costs,
                                       [hourly_budget], cfg)
        x0 = np.zeros(lay.n_cols)
        czg, czf, czt, csol = candidates[0]
        _milp_point_from_dispatch(net, lay, 0, czg, czf, czt, csol, x0)
        res = solve_milp(prob, node_limit=node_limit, warm_start=x0)
        if res.status == "infeasible":
            # an undersized M renders even the no-attack equilibrium
            # infeasible (its duals exceed gamma * M); grow and retry
            m_value *= BIGM_GROWTH
            continue
        if res.status == "unbounded" or res.x is None:
            raise RuntimeError(f"hourly attack MILP ended {res.status}")
        norm = _solution_max_norm(res.x, lay)
        if norm < m_value:
            break
        m_value *= BIGM_GROWTH
    else:
        raise BigMInvalidError(
            f"big-M {m_value} not above solution magnitude after retries")

    zg, zf, zt, opf, spend = _extract_hour(net, demand, season, hour, res.x,
                                           lay, 0, costs)
    residuals = kkt_residuals(net, opf, zg, zf, zt)
    cert = verify_equilibrium(residuals, CERT_TOL)
    if not cert:
        # fall back to the dispatch LP at the chosen attack: always certifiable
        opf = solve_dcopf(net, demand, season, hour, zg, zf, zt)
        cert = verify_equilibrium(kkt_residuals(net, opf, zg, zf, zt), CERT_TOL)
    return HourlyAttack(season, hour, zg, zf, zt, spend, opf.shed_cost, opf,
                        res.status, res.node_count, norm < m_value, cert)


def solve_full_milp(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    budget: float,
    hours: list[int] | None = None,
    bigm: BigMConfig | None = None,
    node_limit: int = 500_000,
    warm: AttackPlan | None = None,
) -> AttackPlan:
    """Jointly optimal attack across hours (single budget row).

    Exponential in instance size; intended for small oracle instances.
    """
    hours = hours if hours is not None else list(range(demand.hours(season)))
    bigm = bigm or BigMConfig.for_network(net, demand)
    m_value = bigm.m_value

    # warm candidate: homogeneous split greedy per hour
    per_hour = budget / len(hours) if hours else 0.0
    warm_parts = []
    for h in hours:
        if warm is not None:
            match = [hh for hh in warm.hours if hh.hour == h]
            if match and match[0].spend <= budget + 1e-9:
                mh = match[0]
                warm_parts.append((mh.zg, mh.zf, mh.zt,
                                   solve_dcopf(net, demand, season, h,
                                               mh.zg, mh.zf, mh.zt)))
                continue
        zg, zf, zt, sol = greedy_attack(net, demand, season, h, costs, per_hour)
        warm_parts.append((zg, zf, zt, sol))
    total_spend = sum(float(costs.cg @ p[0] + costs.cf @ p[1] + costs.ct @ p[2])
                      for p in warm_parts)
    if total_spend > budget + 1e-9:
        warm_parts = None

    for attempt in range(BIGM_RETRIES + 1):
        cfg = BigMConfig(m_value)
        prob, lay = _build_attack_milp(net, demand, season, hours, costs,
                                       budget, cfg)
        x0 = None
        if warm_parts is not None:
            x0 = np.zeros(lay.n_cols)
            for hp, (zg, zf, zt, sol) in enumerate(warm_parts):
                _milp_point_from_dispatch(net, lay, hp, zg, zf, zt, sol, x0)
        res = solve_milp(prob, node_limit=node_limit, warm_start=x0)
        if res.status == "infeasible":
            m_value *= BIGM_GROWTH
            continue
        if res.status == "unbounded" or res.x is None:
            raise RuntimeError(f"full attack MILP ended {res.status}")
        norm = _solution_max_norm(res.x, lay)
        if norm < m_value:
            break
        m_value *= BIGM_GROWTH
    else:
        raise BigMInvalidError(
            f"big-M {m_value} not above solution magnitude after retries")

    parts = []
    for hp, h in enumerate(hours):
        zg, zf, zt, opf, spend = _extract_hour(net, demand, season, h, res.x,
                                               lay, hp, costs)
        cert = verify_equilibrium(kkt_residuals(net, opf, zg, zf, zt), CERT_TOL)
        if not cert:
            opf = solve_dcopf(net, demand, season, h, zg, zf, zt)
            cert = verify_equilibrium(kkt_residuals(net, opf, zg, zf, zt), CERT_TOL)
        parts.append(HourlyAttack(season, h, zg, zf, zt, spend, opf.shed_cost,
                                  opf, res.status, res.node_count,
                                  norm < m_value, cert))
    return AttackPlan(season, parts, budget)


def decompose_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    budget: float,
    bigm: BigMConfig | None = None,
    node_limit: int = 20_000,
    warm: AttackPlan | None = None,
) -> AttackPlan:
    """Decoupled stage: one hourly problem per hour at budget / H."""
    H = demand.hours(season)
    per_hour = budget / H
    parts = []
    for h in range(H):
        wh = None
        if warm is not None:
            match = [hh for hh in warm.hours if hh.hour == h]
            wh = match[0] if match else None
        parts.append(solve_hourly_attack(net, demand, season, h, costs, per_hour,
                                         bigm, node_limit, warm=wh))
    return AttackPlan(season, parts, budget)


def attack_with_allocation(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    alloc: list[float],
    bigm: BigMConfig | None = None,
    node_limit: int = 20_000,
    warm: AttackPlan | None = None,
) -> AttackPlan:
    """Solve each hour at a caller-chosen budget split (sum is the budget)."""
    parts = []
    for h, b in enumerate(alloc):
        wh = None
        if warm is not None:
            match = [hh for hh in warm.hours if hh.hour == h]
            wh = match[0] if match else None
        parts.append(solve_hourly_attack(net, demand, season, h, costs, b,
                                         bigm, node_limit, warm=wh))
    return AttackPlan(season, parts, float(sum(alloc)))


def refine_budget_allocation(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    hourly: list[HourlyAttack],
    budget: float,
    step_count: int = 4,
    bigm: BigMConfig | None = None,
    node_limit: int = 20_000,
    max_moves: int | None = None,
    alloc: list[float] | None = None,
) -> AttackPlan:
    """Cross-hour budget reallocation by deterministic coordinate ascent.

    Starting from the homogeneous split (or a caller-provided allocation
    matching ``hourly``), two move types are tried until none improves:

    * pooled move: hours whose attack currently adds nothing over their
      unattacked dispatch surrender their whole allocation (a provably
      lossless withdrawal, since hourly value is nondecreasing in budget)
      to the single recipient that gains most from the pooled sum;
    * quantum move: one quantum (budget / (H * step_count)) moves from
      the hour whose objective drops least to the hour that gains most.

    Both re-solve only the touched hourly problems.  The result is never
    worse than the initialization.
    """
    H = len(hourly)
    if H == 0:
        return AttackPlan(season, [], budget)
    quantum = budget / (H * step_count) if budget > 0 else 0.0
    alloc = list(alloc) if alloc is not None else [budget / H] * H
    parts = list(hourly)
    if quantum <= 0:
        return AttackPlan(season, parts, budget)
    max_moves = max_moves if max_moves is not None else 4 * H * step_count

    base_shed = [solve_dcopf(net, demand, season, p.hour).shed_cost for p in parts]
    gain_cache: dict[int, tuple[float, HourlyAttack]] = {}
    loss_cache: dict[int, tuple[float, HourlyAttack]] = {}

    def eval_at(h: int, b: float, warm_part: HourlyAttack | None) -> HourlyAttack:
        return solve_hourly_attack(net, demand, season, parts[h].hour, costs,
                                   max(b, 0.0), bigm, node_limit, warm=warm_part)

    def tol_for(h: int) -> float:
        return 1e-9 * max(1.0, abs(parts[h].objective))

    def pooled_move() -> bool:
        idle = [h for h in range(H)
                if alloc[h] > 1e-12 and parts[h].objective <= base_shed[h] + 1e-6]
        pool = sum(alloc[h] for h in idle)
        if pool <= 1e-9:
            return False
        best: tuple[float, int, HourlyAttack] | None = None
        for r in range(H):
            # idle hours are probed as recipients too: the pooled sum may
            # cross a threshold their own allocation cannot
            extra = pool - (alloc[r] if r in idle else 0.0)
            if extra <= 1e-12:
                continue
            cand = eval_at(r, alloc[r] + extra, parts[r])
            gain = cand.objective - parts[r].objective
            if gain > 1e-6 and (best is None or gain > best[0] + 1e-12):
                best = (gain, r, cand)
        if best is None:
            return False
        _, r, cand = best
        taken = 0.0
        for h in idle:
            if h == r:
                continue
            taken += alloc[h]
            alloc[h] = 0.0
            parts[h] = eval_at(h, 0.0, None)
            gain_cache.pop(h, None)
            loss_cache.pop(h, None)
        alloc[r] += taken
        parts[r] = cand
        gain_cache.pop(r, None)
        loss_cache.pop(r, None)
        return True

    def quantum_move() -> bool:
        for h in range(H):
            if h not in gain_cache:
                cand = eval_at(h, alloc[h] + quantum, parts[h])
                gain_cache[h] = (cand.objective - parts[h].objective, cand)
            if h not in loss_cache:
                if alloc[h] >= quantum - 1e-12:
                    cand = eval_at(h, alloc[h] - quantum, None)
                    loss_cache[h] = (parts[h].objective - cand.objective, cand)
                else:
                    loss_cache[h] = (np.inf, parts[h])
        order_gain = sorted(range(H), key=lambda h: (-gain_cache[h][0], h))
        for recipient in order_gain:
            gain, new_r = gain_cache[recipient]
            if gain <= 1e-9:
                return False
            donors = sorted(
                (h for h in range(H)
                 if h != recipient and np.isfinite(loss_cache[h][0])),
                key=lambda h: (loss_cache[h][0], h))
            if not donors:
                continue
            donor = donors[0]
            loss, new_d = loss_cache[donor]
            if gain - loss > tol_for(recipient):
                alloc[recipient] += quantum
                alloc[donor] -= quantum
                parts[recipient] = new_r
                parts[donor] = new_d
                for h in (recipient, donor):
                    gain_cache.pop(h, None)
                    loss_cache.pop(h, None)
                return True
        return False

    moves = 0
    while moves < max_moves:
        if pooled_move():
            moves += 1
            continue
        if quantum_move():
            moves += 1
            continue
        break
    return AttackPlan(season, parts, budget)


def run_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    budget: float,
    step_count: int = 4,
    bigm: BigMConfig | None = None,
    node_limit: int = 20_000,
    refine: bool = True,
    warm: AttackPlan | None = None,
) -> AttackPlan:
    """Decomposition driver: hourly problems at budget/H, then reallocation."""
    base = decompose_attack(net, demand, season, costs, budget, bigm,
                            node_limit, warm=warm)
    if not refine or budget <= 0:
        return base
    return refine_budget_allocation(net, demand, season, costs, base.hours,
                                    budget, step_count, bigm, node_limit)


def attack_rows(plan: AttackPlan, net: PowerNetwork,
                costs: AttackCosts) -> list[tuple]:
    """Strategy breakdown rows: (season, hour, component type, entity, z, spend)."""
    rows = []
    for part in plan.hours:
        for k, gen in enumerate(net.generators):
            if part.zg[k] > 1e-9:
                rows.append((part.season, part.hour, "gen", gen.id,
                             part.zg[k], part.zg[k] * costs.cg[k]))
        for e, edge in enumerate(net.edges):
            if part.zf[e] > 1e-9:
                rows.append((part.season, part.hour, "flow", edge.id,
                             part.zf[e], part.zf[e] * costs.cf[e]))
            if part.zt[e] > 1e-9:
                rows.append((part.season, part.hour, "angle", edge.id,
                             part.zt[e], part.zt[e] * costs.ct[e]))
    return rows
