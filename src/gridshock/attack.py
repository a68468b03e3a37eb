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
  side; the reported equilibrium's max-norm must stay below it, a post-hoc
  heuristic rather than a proof that M cuts off no optimum.
* at any integer-feasible point where a node's shed indicator allows
  curtailment, local generators must sit exactly at compromised capacity
  (their capacity rent is strictly positive because VOLL exceeds every
  marginal cost); the corresponding logic rows are added as valid cuts.

The cross-hour step of the decomposition replaces a general nonlinear
restart with deterministic coordinate ascent on the hourly budget split,
with two moves tried until neither improves: the pooled move hands the
whole allocation of every hour whose attack adds nothing over its
unattacked dispatch to the single hour that gains most from the pooled
sum; the quantum move shifts one budget quantum from the hour losing
least to the hour gaining most.  Each move re-solves only the hourly
problems it touches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcopf import OpfSolution, SeasonDispatch, dispatch_vertex, solve_dcopf
from .kkt import (PAIR_BLOCKS, PAIR_DUALS, complementarity_pairs, kkt_residuals,
                  verify_equilibrium)
from .milp import MilpProblem, solve_milp
from .network import DemandProfile, PowerNetwork, incidence_matrix
from .simplex import LpProblem

MICRO_PENALTY = 1e-9  # prefers minimal-effort attacks among ties
ZONE_PACKAGES = 3  # zone opening packages the greedy attack evaluates exactly
GREEDY_SHORTLIST = 12  # single moves per greedy step, ranked by capacity rent
REFINE_MOVES = 4  # refinement move cap per hour and budget quantum
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
            if not np.all((arr > 0) & (arr < np.inf)):
                raise ValueError(f"attack costs {name} must be finite and strictly positive")
        if not 0 <= self.budget < np.inf:
            raise ValueError(f"budget must be finite and nonnegative, got {self.budget}")

    def spend(self, zg: np.ndarray, zf: np.ndarray, zt: np.ndarray) -> float:
        """Budget units an attack (zg, zf, zt) costs."""
        return float(self.cg @ zg + self.cf @ zf + self.ct @ zt)

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
    nodes: int
    bigm_valid: bool
    certificate_ok: bool


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
    """Column offsets and a row bound of the attack MILP for a list of hours."""

    def __init__(self, net: PowerNetwork, n_hours: int):
        G, E, N = net.num_generators, net.num_edges, net.num_nodes
        names = (["zg", "zf", "zt", "g", "f", "u", "th", "pi_d", "pi_f", "delta"]
                 + ["rho_" + blk for blk in PAIR_BLOCKS] + ["gam_" + blk for blk in PAIR_BLOCKS])
        sizes = [G, E, E, G, E, N, N, N, E, 1] + [G, G, E, E, E, E, N, N] * 2
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
        # rows when no angle pair is presolved away, one budget row per hour
        self.max_rows = n_hours * (7 * G + 14 * E + 7 * N + 2)

    def sl(self, hour_pos: int, name: str) -> slice:
        off = self.offsets[hour_pos][name]
        return slice(off, off + self.block_size[name])


_Rows = tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]  # A, row_lb, row_ub, labels


def _select(rows: _Rows, keep: np.ndarray) -> _Rows:
    A, lo, hi, labels = rows
    return A[keep], lo[keep], hi[keep], [lab for lab, k in zip(labels, keep) if k]


def _interleave(*families: _Rows, keep: np.ndarray | None = None) -> _Rows:
    """Alternate the rows of equally long families: row i of each, then row i + 1.

    ``keep`` (rows x families) drops single rows from the interleaved order.
    """
    A = np.stack([f[0] for f in families], axis=1).reshape(-1, families[0][0].shape[1])
    lo = np.stack([f[1] for f in families], axis=1).ravel()
    hi = np.stack([f[2] for f in families], axis=1).ravel()
    labels = [lab for group in zip(*(f[3] for f in families)) for lab in group]
    rows = (A, lo, hi, labels)
    return rows if keep is None else _select(rows, keep.ravel())


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
    Each row family is one block of rows over the hour's column blocks.
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
    live = ~angle_dead
    every = np.ones(E, dtype=bool)
    edge_keep = np.column_stack([every, every, live, live])  # flow lo/up, angle lo/up

    k_gen = g_up - g_lo
    k_flow = 2.0 * f_cap
    k_angle = 2.0 * t_cap
    I_G, I_E, I_N = np.eye(G), np.eye(E), np.eye(N)
    e_ref = I_N[ref]

    n = lay.n_cols
    c = np.zeros(n)
    lb = np.zeros(n)
    ub = np.zeros(n)
    col_labels = [""] * n
    families: list[_Rows] = []
    binaries: list[int] = []

    prices = {"zg": costs.cg, "zf": costs.cf, "zt": costs.ct}
    for hp, h in enumerate(hours):
        d = demand.demand[season][h]
        voll = demand.voll[season][h]

        def rows(label: str, coef: dict[str, np.ndarray], lo, hi) -> _Rows:
            """One family: ``coef`` maps a column block to its (rows x block) part.

            One-dimensional parts make a single row labelled without an index.
            """
            single = next(iter(coef.values())).ndim == 1
            count = 1 if single else len(next(iter(coef.values())))
            block = np.zeros((count, n))
            for name, part in coef.items():
                block[:, lay.sl(hp, name)] = part
            labels = ([f"{label}[{h}]"] if single else
                      [f"{label}[{h}][{i}]" for i in range(count)])
            return (block, np.broadcast_to(np.asarray(lo, dtype=float), (count,)),
                    np.broadcast_to(np.asarray(hi, dtype=float), (count,)), labels)

        # bounds and objective
        for name, lo, hi in (
            ("zg", 0.0, zg_ub), ("zf", 0.0, zf_ub), ("zt", 0.0, zt_ub),
            ("g", g_lo, g_up), ("f", -f_cap, f_cap), ("u", 0.0, d),
            ("th", -np.inf, np.inf), ("pi_d", -np.inf, np.inf),
            ("pi_f", -np.inf, np.inf), ("delta", -np.inf, np.inf),
        ):
            lb[lay.sl(hp, name)] = lo
            ub[lay.sl(hp, name)] = hi
        for blk in PAIR_BLOCKS:
            # dead angle pairs: multiplier and indicator pinned to zero
            dead = angle_dead if blk.startswith("angle") else False
            ub[lay.sl(hp, "rho_" + blk)] = np.where(dead, 0.0, M)
            ub[lay.sl(hp, "gam_" + blk)] = np.where(dead, 0.0, 1.0)

        c[lay.sl(hp, "u")] = voll
        for name in ("zg", "zf", "zt"):
            c[lay.sl(hp, name)] = -MICRO_PENALTY

        # shed indicators first: the branching rule's tie-break prefers them
        for blk in ("unserved_lo", "unserved_up", "gen_lo", "gen_up",
                    "flow_lo", "flow_up", "angle_lo", "angle_up"):
            gsl = lay.sl(hp, "gam_" + blk)
            binaries.extend(range(gsl.start, gsl.stop))

        for name, ids in (("zg", net.generators), ("g", net.generators),
                          ("zf", net.edges), ("zt", net.edges), ("f", net.edges)):
            col_labels[lay.sl(hp, name)] = [f"{name}[{h}][{x.id}]" for x in ids]

        # nodal balance and flow law (physics of the compromised grid)
        families.append(rows("bal", {"g": Mmap, "u": I_N, "f": -A.T}, d, d))
        families.append(rows("flowlaw", {"f": I_E, "th": -Bmw[:, None] * A}, 0.0, 0.0))
        families.append(rows("ref", {"th": e_ref}, 0.0, 0.0))

        # stationarity rows
        families.append(rows("stat_g", {"pi_d": Mmap.T, "rho_gen_lo": I_G,
                                        "rho_gen_up": -I_G}, cg_op, cg_op))
        families.append(rows("stat_f", {"pi_f": I_E, "rho_flow_lo": -I_E,
                                        "rho_flow_up": I_E, "pi_d": A}, 0.0, 0.0))
        families.append(rows("stat_th", {"pi_f": -A.T * Bmw, "rho_angle_lo": -A.T,
                                         "rho_angle_up": A.T, "delta": e_ref[:, None]},
                             0.0, 0.0))
        families.append(rows("stat_u", {"pi_d": I_N, "rho_unserved_lo": I_N,
                                        "rho_unserved_up": -I_N}, voll, voll))

        # attacked primal ranges (the F2 >= 0 side where z shifts a bound);
        # dead angle pairs keep generous slack whatever zt does, so their
        # range rows are redundant and skipped
        families.append(rows("cap_g", {"g": I_G, "zg": I_G}, -np.inf, g_up))
        families.append(_interleave(
            rows("cap_f_lo", {"f": I_E, "zf": -I_E}, -f_cap, np.inf),
            rows("cap_f_up", {"f": I_E, "zf": I_E}, -np.inf, f_cap),
            rows("cap_t_lo", {"zt": -I_E, "th": A}, -t_cap, np.inf),
            rows("cap_t_up", {"zt": I_E, "th": A}, -np.inf, t_cap),
            keep=edge_keep))

        # complementarity: slack <= (1 - gamma) * kappa, multiplier <= gamma * M
        families.append(_interleave(
            rows("cmp_gen_lo", {"g": I_G, "gam_gen_lo": np.diag(k_gen)},
                 -np.inf, k_gen + g_lo),
            rows("cmp_gen_up", {"g": -I_G, "zg": -I_G, "gam_gen_up": np.diag(k_gen)},
                 -np.inf, k_gen - g_up)))
        families.append(_interleave(
            rows("cmp_flow_lo", {"f": I_E, "zf": -I_E, "gam_flow_lo": np.diag(k_flow)},
                 -np.inf, k_flow - f_cap),
            rows("cmp_flow_up", {"f": -I_E, "zf": -I_E, "gam_flow_up": np.diag(k_flow)},
                 -np.inf, k_flow - f_cap),
            rows("cmp_angle_lo", {"zt": -I_E, "gam_angle_lo": np.diag(k_angle), "th": A},
                 -np.inf, k_angle - t_cap),
            rows("cmp_angle_up", {"zt": -I_E, "gam_angle_up": np.diag(k_angle), "th": -A},
                 -np.inf, k_angle - t_cap),
            keep=edge_keep))
        families.append(_interleave(
            rows("cmp_u_lo", {"u": I_N, "gam_unserved_lo": np.diag(d)}, -np.inf, d),
            rows("cmp_u_up", {"u": -I_N, "gam_unserved_up": np.diag(d)}, -np.inf, 0.0)))

        # dual side: rho <= gamma * M
        for blk in PAIR_BLOCKS:
            eye = np.eye(lay.block_size["rho_" + blk])
            fam = rows(f"bigm_{blk}", {"rho_" + blk: eye, "gam_" + blk: -M * eye},
                       -np.inf, 0.0)
            families.append(_select(fam, live) if blk.startswith("angle") else fam)

        # logic cut: a node cleared for shedding pins local units to capacity
        families.append(rows("cut_sat", {"g": I_G, "zg": I_G,
                                         "gam_unserved_lo": Mmap.T * g_up[:, None]},
                             g_up, np.inf))

        if not joint:
            families.append(rows("budget", prices, -np.inf, budgets[hp]))

    if joint:
        row = np.zeros((1, n))
        for hp in range(len(hours)):
            for name, price in prices.items():
                row[0, lay.sl(hp, name)] = price
        families.append((row, np.array([-np.inf]), np.array([float(budgets)]), ["budget"]))

    # negated blocks carry -0.0 off their pattern; adding 0.0 makes every
    # structural zero +0.0, so the matrix does not depend on how it was built
    A_rows = np.vstack([f[0] for f in families]) + 0.0
    row_lb = np.concatenate([f[1] for f in families])
    row_ub = np.concatenate([f[2] for f in families])
    row_labels = [lab for f in families for lab in f[3]]
    lp = LpProblem("max", c, A_rows, row_lb, row_ub, lb, ub, row_labels, col_labels)
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


# array fields of the embedded equilibrium (OpfSolution) -> attack MILP column block
_OPF_BLOCKS = {"g": "g", "f": "f", "u": "u", "theta": "th", "pi_d": "pi_d", "pi_f": "pi_f",
               **{fld: "rho_" + pair for pair, fld in PAIR_DUALS.items()}}


def _extract_hour(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    x: np.ndarray,
    lay: _Layout,
    hp: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, OpfSolution]:
    """One hour's attack and embedded equilibrium from a MILP point."""
    d = demand.demand[season][hour]
    voll = demand.voll[season][hour]
    arrays = {fld: x[lay.sl(hp, blk)].copy() for fld, blk in _OPF_BLOCKS.items()}
    opf = OpfSolution(
        season=season, hour=hour, delta=float(x[lay.offsets[hp]["delta"]]), **arrays,
        objective=float(net.gen_costs() @ arrays["g"] + voll @ arrays["u"]),
        demand=d.copy(), voll=voll.copy(), shed_cost=float(voll @ arrays["u"]),
    )
    return x[lay.sl(hp, "zg")], x[lay.sl(hp, "zf")], x[lay.sl(hp, "zt")], opf


def _max_norm(zg: np.ndarray, zf: np.ndarray, zt: np.ndarray, opf: OpfSolution) -> float:
    """Max-norm over the attack and the embedded (y1, y2) equilibrium point."""
    arrays = [zg, zf, zt, [opf.delta]] + [getattr(opf, f) for f in _OPF_BLOCKS]
    return float(np.abs(np.concatenate(arrays)).max(initial=0.0))


def _zone_packages(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    budget: float,
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
    arr = net.arrays
    kill_room = arr.g_up - arr.g_lo  # only the span above the must-run floor is killable
    d = demand.demand[season][hour]
    ranked = []
    for n in range(net.num_nodes):
        if d[n] <= 0:
            continue
        items = [(costs.cg[k], "g", k, kill_room[k]) for k in arr.node_gens[n]
                 if kill_room[k] > 0]
        items += [(costs.cf[e], "f", e, arr.f_cap[e]) for e in arr.node_edges[n]]
        supply = sum(cap for _, _, _, cap in items) + arr.node_floor[n]
        margin = supply - d[n]
        items.sort(key=lambda t: (t[0], t[1], t[2]))
        remaining = budget
        bought = 0.0
        zg = np.zeros(G)
        zf = np.zeros(E)
        for price, kind, i, cap in items:
            amount = min(cap, remaining / price)
            if amount <= 1e-9:
                break
            (zg if kind == "g" else zf)[i] = amount
            bought += amount
            remaining -= amount * price
        est = min(max(0.0, bought - max(margin, 0.0)), d[n])
        if est > 1e-9:
            ranked.append((est, n, zg, zf))
    ranked.sort(key=lambda t: (-t[0], t[1]))
    return [(zg, zf) for _, _, zg, zf in ranked[:ZONE_PACKAGES]]


def _run_dispatch(net: PowerNetwork, demand: DemandProfile, season: str,
                  dispatch: SeasonDispatch | None) -> SeasonDispatch:
    """``dispatch`` when given, else a new one for (net, demand, season).

    An attack run makes one and hands it to every stage, so the hours share
    one dispatch form and each hour's unattacked dispatch is solved once.
    """
    if dispatch is None:
        return SeasonDispatch(net, demand, season)
    if dispatch.net is not net or dispatch.demand is not demand or dispatch.season != season:
        raise ValueError("dispatch object belongs to another network, demand or season")
    return dispatch


def greedy_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    budget: float,
    dispatch: SeasonDispatch | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, OpfSolution]:
    """Greedy capacity-kill incumbent: zone opening package, then best moves.

    Stage one evaluates the most promising zone-isolation packages (see
    :func:`_zone_packages`) exactly.  Stage two repeatedly buys the best
    single capacity reduction, shortlisted by the current dispatch's
    capacity rents; each evaluation is one dispatch LP, warm-started from
    the unattacked dispatch's basis.  Candidates are ranked on the shed of
    their optimal vertex (:func:`dispatch_vertex`); only the package and
    the moves the search adopts are finished into an :class:`OpfSolution`,
    the same one :func:`solve_dcopf` returns, and the other vertices are
    dropped as soon as they lose.  Deterministic.

    ``dispatch`` is the run's :class:`SeasonDispatch` (see
    :func:`_run_dispatch`); the search opens from its unattacked dispatch.
    """
    dispatch = _run_dispatch(net, demand, season, dispatch)
    form = dispatch.form
    G, E = net.num_generators, net.num_edges
    arr = net.arrays
    kill_room = arr.g_up - arr.g_lo  # capacity below the must-run floor is untouchable
    f_cap = arr.f_cap
    zg = np.zeros(G)
    zf = np.zeros(E)
    zt = np.zeros(E)
    remaining = budget
    current = dispatch.base(hour)
    basis = current.basis  # every candidate below re-solves this LP with lower bounds

    best_pack = None
    for pzg, pzf in _zone_packages(net, demand, season, hour, costs, budget):
        vx = dispatch_vertex(net, demand, season, hour, pzg, pzf, zt, basis=basis, form=form)
        if vx.shed_cost > current.shed_cost + 1e-9 and (
                best_pack is None or vx.shed_cost > best_pack[2].shed_cost):
            best_pack = (pzg, pzf, vx)
    if best_pack is not None:
        zg, zf, current = best_pack[0].copy(), best_pack[1].copy(), best_pack[2].finish()
        remaining = budget - costs.spend(zg, zf, zt)

    for _ in range(2 * (G + E)):
        if remaining <= 1e-9:
            break
        cands: list[tuple[float, int, int, float, float]] = []
        # rank by rent per budget unit; rents bound the local value of capacity
        for kind, room, prices, rents in (
                (0, kill_room - zg, costs.cg, current.rho_g_up),
                (1, f_cap - zf, costs.cf, np.maximum(current.rho_f_up, current.rho_f_lo))):
            for i, price in enumerate(prices):
                amount = min(room[i], remaining / price)
                if amount > 1e-9:
                    cands.append(((rents[i] + 1e-12) / price, kind, i, amount, price))
        if not cands:
            break
        cands.sort(key=lambda t: (-t[0], t[1], t[2]))
        best_gain = 0.0
        best = None
        for _, kind, idx, amount, price in cands[:GREEDY_SHORTLIST]:
            tg, tf = zg.copy(), zf.copy()
            (tf if kind else tg)[idx] += amount
            vx = dispatch_vertex(net, demand, season, hour, tg, tf, zt, basis=basis, form=form)
            gain = vx.shed_cost - current.shed_cost
            if gain > best_gain + 1e-9:
                best_gain, best = gain, (tg, tf, vx, amount * price)
        if best is None:
            break
        zg, zf, vx, cost = best
        current = vx.finish()
        remaining -= cost
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
    for name, z in (("zg", zg), ("zf", zf), ("zt", zt)):
        x[lay.sl(hp, name)] = z
    for fld, blk in _OPF_BLOCKS.items():
        x[lay.sl(hp, blk)] = getattr(sol, fld)
    x[lay.offsets[hp]["delta"]] = sol.delta
    # multipliers stay only on active pairs, each with its indicator
    slacks, rhos = complementarity_pairs(net, sol, zg, zf, zt)
    for blk in PAIR_BLOCKS:
        scale = 1.0 + np.abs(slacks[blk])
        active = slacks[blk] <= atol * scale
        x[lay.sl(hp, "rho_" + blk)] = np.where(active, rhos[blk], 0.0)
        x[lay.sl(hp, "gam_" + blk)] = np.where(active, 1.0, 0.0)


def _certified_hour(
    dispatch: SeasonDispatch,
    hour: int,
    costs: AttackCosts,
    zg: np.ndarray,
    zf: np.ndarray,
    zt: np.ndarray,
    opf: OpfSolution,
    status: str,
    nodes: int,
    m_value: float,
) -> HourlyAttack:
    """Certify one hour's attack and equilibrium; the only HourlyAttack maker.

    ``opf`` is reported when it passes the KKT certificate under the
    shifted bounds and its max-norm stays below ``m_value``; otherwise the
    dispatch LP at the same attack is.  ``bigm_valid`` is the max-norm test
    on the reported point: a post-hoc heuristic, not a proof that M is large
    enough.
    """
    net, season = dispatch.net, dispatch.season
    zg, zf, zt = (np.array(z, dtype=float) for z in (zg, zf, zt))

    def checks(sol: OpfSolution) -> tuple[bool, bool]:
        cert = verify_equilibrium(kkt_residuals(net, sol, zg, zf, zt), CERT_TOL)
        return cert, _max_norm(zg, zf, zt, sol) < m_value

    cert, valid = checks(opf)
    if not (cert and valid):
        opf = solve_dcopf(net, dispatch.demand, season, hour, zg, zf, zt, form=dispatch.form)
        cert, valid = checks(opf)
    return HourlyAttack(season, hour, zg, zf, zt, costs.spend(zg, zf, zt), opf.shed_cost, opf,
                        status, nodes, valid, cert)


def _solve_certified(
    dispatch: SeasonDispatch,
    hours: list[int],
    costs: AttackCosts,
    budgets: list[float] | float,
    bigm: BigMConfig,
    node_limit: int,
    warm_parts: list[tuple],
) -> list[HourlyAttack]:
    """Solve the attack MILP over ``hours`` and certify every hour.

    ``warm_parts`` holds one (zg, zf, zt, dispatch) candidate per hour, the
    branch-and-bound ``warm_start`` when it is feasible.  An
    infeasible MILP (an undersized M cuts off even the unattacked
    equilibrium) or a reported point whose max-norm reaches M grows M and
    solves again.
    """
    net, demand, season = dispatch.net, dispatch.demand, dispatch.season
    m_value = bigm.m_value
    for attempt in range(BIGM_RETRIES + 1):
        prob, lay = _build_attack_milp(net, demand, season, hours, costs, budgets,
                                       BigMConfig(m_value))
        x0 = np.zeros(lay.n_cols)
        for hp, (zg, zf, zt, sol) in enumerate(warm_parts):
            _milp_point_from_dispatch(net, lay, hp, zg, zf, zt, sol, x0)
        res = solve_milp(prob, node_limit=node_limit, warm_start=x0)
        if res.status == "infeasible":
            m_value *= BIGM_GROWTH
            continue
        if res.status == "unbounded" or res.x is None:
            raise RuntimeError(f"attack MILP over hours {hours} ended {res.status}")
        parts = [_certified_hour(dispatch, h, costs,
                                 *_extract_hour(net, demand, season, h, res.x, lay, hp),
                                 res.status, res.node_count, m_value)
                 for hp, h in enumerate(hours)]
        if all(p.bigm_valid for p in parts):
            return parts
        m_value *= BIGM_GROWTH
    raise BigMInvalidError(f"big-M {m_value} not above solution magnitude after retries")


def solve_hourly_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    hourly_budget: float,
    bigm: BigMConfig | None = None,
    node_limit: int = 20_000,
    dispatch: SeasonDispatch | None = None,
) -> HourlyAttack:
    """Solve the one-hour disruption problem; certify the returned point.

    The branch-and-bound search starts from the greedy incumbent
    (:func:`greedy_attack`).  The reported equilibrium is verified against
    the shifted bounds and the big-M max-norm test is applied post hoc,
    growing M on failure.

    ``dispatch`` is the run's :class:`SeasonDispatch`: the greedy search
    opens from its unattacked dispatch of the hour and a zero budget reports
    that dispatch.  Without it, the call makes its own.

    ``node_limit=0`` selects certificate-only mode: the best candidate
    attack is returned with its certified equilibrium and the search is
    skipped entirely (used by scenario sweeps where wall time matters and
    the candidate generator is already target-aware).  This mode reports
    the big-M flag and does not retry.
    """
    bigm = bigm or BigMConfig.for_network(net, demand)
    dispatch = _run_dispatch(net, demand, season, dispatch)
    if hourly_budget <= 1e-12:
        G, E = net.num_generators, net.num_edges
        return _certified_hour(dispatch, hour, costs, np.zeros(G), np.zeros(E),
                               np.zeros(E), dispatch.base(hour), "optimal", 0,
                               bigm.m_value)

    best = greedy_attack(net, demand, season, hour, costs, hourly_budget, dispatch)
    if node_limit == 0:
        return _certified_hour(dispatch, hour, costs, *best, "heuristic", 0, bigm.m_value)
    return _solve_certified(dispatch, [hour], costs, [hourly_budget], bigm, node_limit,
                            [best])[0]


# dense entries of A (rows x columns) above which solve_full_milp refuses to build
FULL_MILP_MAX_ENTRIES = 4_000_000


def solve_full_milp(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    budget: float,
    hours: list[int] | None = None,
    bigm: BigMConfig | None = None,
    node_limit: int = 500_000,
) -> AttackPlan:
    """Jointly optimal attack across hours (single budget row).

    An oracle for small instances only: the MILP is dense and exponential
    in size.  Raises ValueError, before building anything, when its
    constraint matrix could exceed ``FULL_MILP_MAX_ENTRIES`` entries (the
    bundled 24-hour day would need about 0.8 GB for the matrix alone).
    """
    hours = hours if hours is not None else list(range(demand.hours(season)))
    lay = _Layout(net, len(hours))
    if lay.max_rows * lay.n_cols > FULL_MILP_MAX_ENTRIES:
        raise ValueError(
            f"joint attack MILP over {len(hours)} hours is up to {lay.max_rows} x "
            f"{lay.n_cols} dense ({lay.max_rows * lay.n_cols * 8 / 1e6:.0f} MB); "
            f"solve_full_milp is an oracle for small instances only")
    bigm = bigm or BigMConfig.for_network(net, demand)
    dispatch = SeasonDispatch(net, demand, season)

    # warm candidate: greedy at budget / H in every hour
    warm_parts = [greedy_attack(net, demand, season, h, costs, budget / len(hours), dispatch)
                  for h in hours]
    parts = _solve_certified(dispatch, hours, costs, budget, bigm, node_limit, warm_parts)
    return AttackPlan(season, parts, budget)


def decompose_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    budget: float,
    bigm: BigMConfig | None = None,
    node_limit: int = 20_000,
    dispatch: SeasonDispatch | None = None,
) -> AttackPlan:
    """Decoupled stage: one hourly problem per hour at budget / H.

    ``dispatch`` is the run's :class:`SeasonDispatch`; every hour solves on
    its dispatch form and opens from its unattacked dispatch.  Without it,
    the call makes one.
    """
    dispatch = _run_dispatch(net, demand, season, dispatch)
    H = demand.hours(season)
    parts = [solve_hourly_attack(net, demand, season, h, costs, budget / H, bigm, node_limit,
                                 dispatch=dispatch)
             for h in range(H)]
    return AttackPlan(season, parts, budget)


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
    alloc: list[float] | None = None,
    dispatch: SeasonDispatch | None = None,
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
    worse than the initialization.  ``dispatch`` is the run's
    :class:`SeasonDispatch`, shared by every re-solve; without it the call
    makes one, so each hour's unattacked dispatch is still solved once here.
    """
    H = len(hourly)
    if H == 0:
        return AttackPlan(season, [], budget)
    quantum = budget / (H * step_count) if budget > 0 else 0.0
    alloc = list(alloc) if alloc is not None else [budget / H] * H
    parts = list(hourly)
    if quantum <= 0:
        return AttackPlan(season, parts, budget)

    dispatch = _run_dispatch(net, demand, season, dispatch)
    base_shed = [dispatch.base(p.hour).shed_cost for p in parts]
    gain_cache: dict[int, tuple[float, HourlyAttack]] = {}
    loss_cache: dict[int, tuple[float, HourlyAttack]] = {}

    def eval_at(h: int, b: float) -> HourlyAttack:
        return solve_hourly_attack(net, demand, season, parts[h].hour, costs,
                                   max(b, 0.0), bigm, node_limit, dispatch=dispatch)

    def adopt(h: int, b: float, part: HourlyAttack) -> None:
        alloc[h] = b
        parts[h] = part
        gain_cache.pop(h, None)
        loss_cache.pop(h, None)

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
            cand = eval_at(r, alloc[r] + extra)
            gain = cand.objective - parts[r].objective
            if gain > 1e-6 and (best is None or gain > best[0] + 1e-12):
                best = (gain, r, cand)
        if best is None:
            return False
        _, r, cand = best
        taken = 0.0
        for h in idle:
            if h != r:
                taken += alloc[h]
                adopt(h, 0.0, eval_at(h, 0.0))
        adopt(r, alloc[r] + taken, cand)
        return True

    def quantum_move() -> bool:
        for h in range(H):
            if h not in gain_cache:
                cand = eval_at(h, alloc[h] + quantum)
                gain_cache[h] = (cand.objective - parts[h].objective, cand)
            if h not in loss_cache:
                if alloc[h] >= quantum - 1e-12:
                    cand = eval_at(h, alloc[h] - quantum)
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
            if gain - loss > 1e-9 * max(1.0, abs(parts[recipient].objective)):
                adopt(recipient, alloc[recipient] + quantum, new_r)
                adopt(donor, alloc[donor] - quantum, new_d)
                return True
        return False

    moves = 0
    while moves < REFINE_MOVES * H * step_count:
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
) -> AttackPlan:
    """Decomposition entry point: hourly problems at budget/H, then reallocation.

    Both stages share one :class:`SeasonDispatch`: one dispatch form for
    every hour, and each hour's unattacked dispatch solved once, first.
    """
    dispatch = SeasonDispatch(net, demand, season, range(demand.hours(season)))
    plan = decompose_attack(net, demand, season, costs, budget, bigm,
                            node_limit, dispatch=dispatch)
    if not refine or budget <= 0:
        return plan
    return refine_budget_allocation(net, demand, season, costs, plan.hours,
                                    budget, step_count, bigm, node_limit,
                                    dispatch=dispatch)


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
