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

The day's plan splits one seasonal budget over the hours in a single
pass: every hour is solved at the whole budget, the hours that shed more
for it are tabulated on a grid of ``BUDGET_STEPS`` budget steps, and a
knapsack over those values picks the split with the largest total (see
:func:`run_attack`).  Among the hours the screen keeps, the split is the
best one on the grid for the hourly values the attack search reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dcopf import OpfSolution, SeasonDispatch, dispatch_vertex, solve_dcopf
from .kkt import (PAIR_BLOCKS, PAIR_DUALS, complementarity_pairs, kkt_residuals,
                  verify_equilibrium)
from .milp import MilpProblem, solve_milp
from .network import DemandProfile, PowerNetwork
from .simplex import LpProblem

MICRO_PENALTY = 1e-9  # prefers minimal-effort attacks among ties
ZONE_PACKAGES = 3  # zone opening packages the greedy attack evaluates exactly
GREEDY_SHORTLIST = 12  # single moves per greedy step, ranked by capacity rent
CERT_TOL = 1e-5
BIGM_GROWTH = 10.0
BIGM_RETRIES = 3
BUDGET_STEPS = 4  # K: a day's budget is split in steps of budget / K


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
    ct = cf * net.arrays.susceptance_mw
    return AttackCosts(cg, cf, ct, budget)


def default_bigm(net: PowerNetwork, demand: DemandProfile) -> float:
    """The attack MILP's big M: ten times the largest of the demand's top
    VOLL, the total generation capacity and twice the total flow capacity."""
    volls = max(float(np.max(v)) for v in demand.voll.values())
    arr = net.arrays
    return 10.0 * max(volls, float(arr.g_up.sum()), 2.0 * float(arr.f_cap.sum()))


@dataclass(slots=True)
class HourlyAttack:
    """Attack decision and resulting equilibrium for one (season, hour)."""

    season: str
    hour: int
    zg: np.ndarray
    zf: np.ndarray
    zt: np.ndarray
    spend: float
    opf: OpfSolution
    status: str
    nodes: int
    bigm_valid: bool
    certificate_ok: bool

    @property
    def objective(self) -> float:
        """voll . u at the induced equilibrium."""
        return self.opf.shed_cost


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
        # rows when no angle pair is presolved away, and the one budget row
        self.max_rows = n_hours * (7 * G + 14 * E + 7 * N + 1) + 1

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
    budget: float,
    M: float,
) -> tuple[MilpProblem, _Layout]:
    """Assemble the attack MILP over the given hours under one ``budget`` row,
    with big M ``M``.

    Each row family is one block of rows over the hour's column blocks; the
    budget row, last, spans every hour's attack columns.
    """
    G, E, N = net.num_generators, net.num_edges, net.num_nodes
    arr = net.arrays
    A, Bmw, Mmap, e_ref = arr.incidence, arr.susceptance_mw, arr.gen_node_map, arr.e_ref
    g_lo, g_up, f_cap, t_cap, cg_op = arr.g_lo, arr.g_up, arr.f_cap, arr.t_cap, arr.gen_costs
    lay = _Layout(net, len(hours))
    budget = float(budget)

    # budget presolve: no single component can absorb more than the budget
    zg_ub = np.minimum(g_up, budget / costs.cg)
    zf_ub = np.minimum(f_cap, budget / costs.cf)
    zt_ub = np.minimum(t_cap, budget / costs.ct)
    # angle pairs that can never bind given flow limits and affordable zt
    angle_slack = t_cap - zt_ub - f_cap / Bmw
    angle_dead = angle_slack > 1e-9
    live = ~angle_dead
    every = np.ones(E, dtype=bool)
    edge_keep = np.column_stack([every, every, live, live])  # flow lo/up, angle lo/up

    k_gen = arr.g_span
    k_flow = 2.0 * f_cap
    k_angle = 2.0 * t_cap
    I_G, I_E, I_N = np.eye(G), np.eye(E), np.eye(N)

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

    row = np.zeros((1, n))
    for hp in range(len(hours)):
        for name, price in prices.items():
            row[0, lay.sl(hp, name)] = price
    # one hour's row carries the hour like every other row of its MILP
    label = f"budget[{hours[0]}]" if len(hours) == 1 else "budget"
    families.append((row, np.array([-np.inf]), np.array([budget]), [label]))

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
    bigm: float | None = None,
) -> MilpProblem:
    """One-hour disruption MILP under an hourly budget; big M ``bigm``,
    :func:`default_bigm` when None."""
    if bigm is None:
        bigm = default_bigm(net, demand)
    prob, _ = _build_attack_milp(net, demand, season, [hour], costs, hourly_budget, bigm)
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
        objective=float(net.arrays.gen_costs @ arrays["g"] + voll @ arrays["u"]),
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
    kill_room = arr.g_span
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

    An attack run makes one and hands it to every hourly solve, so the hours
    share one dispatch form and each hour's unattacked dispatch is solved once.
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
    kill_room, f_cap = arr.g_span, arr.f_cap
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
    bigm: float,
) -> HourlyAttack:
    """Certify one hour's attack and equilibrium; the only HourlyAttack maker.

    ``opf`` is reported when it passes the KKT certificate under the
    shifted bounds and its max-norm stays below ``bigm``; otherwise the
    dispatch LP at the same attack is.  ``bigm_valid`` is the max-norm test
    on the reported point: a post-hoc heuristic, not a proof that M is large
    enough.  An attack array the caller cannot write into, such as
    ``dispatch.no_attack``, is kept as it is; any other is copied.
    """
    net, season = dispatch.net, dispatch.season
    zg, zf, zt = (z if isinstance(z, np.ndarray) and not z.flags.writeable
                  else np.array(z, dtype=float) for z in (zg, zf, zt))

    def checks(sol: OpfSolution) -> tuple[bool, bool]:
        cert = verify_equilibrium(kkt_residuals(net, sol, zg, zf, zt), CERT_TOL)
        return cert, _max_norm(zg, zf, zt, sol) < bigm

    cert, valid = checks(opf)
    if not (cert and valid):
        opf = solve_dcopf(net, dispatch.demand, season, hour, zg, zf, zt, form=dispatch.form)
        cert, valid = checks(opf)
    return HourlyAttack(season, hour, zg, zf, zt, costs.spend(zg, zf, zt), opf, status, nodes,
                        valid, cert)


def _solve_certified(
    dispatch: SeasonDispatch,
    hours: list[int],
    costs: AttackCosts,
    budget: float,
    bigm: float,
    node_limit: int,
    warm_parts: list[tuple],
) -> list[HourlyAttack]:
    """Solve the attack MILP over ``hours`` under ``budget`` and certify every hour.

    ``warm_parts`` holds one (zg, zf, zt, dispatch) candidate per hour, the
    branch-and-bound ``warm_start`` when it is feasible.  An
    infeasible MILP (an undersized M cuts off even the unattacked
    equilibrium) or a reported point whose max-norm reaches M grows M and
    solves again.
    """
    net, demand, season = dispatch.net, dispatch.demand, dispatch.season
    for attempt in range(BIGM_RETRIES + 1):
        prob, lay = _build_attack_milp(net, demand, season, hours, costs, budget, bigm)
        x0 = np.zeros(lay.n_cols)
        for hp, (zg, zf, zt, sol) in enumerate(warm_parts):
            _milp_point_from_dispatch(net, lay, hp, zg, zf, zt, sol, x0)
        res = solve_milp(prob, node_limit=node_limit, warm_start=x0)
        if res.status == "infeasible":
            bigm *= BIGM_GROWTH
            continue
        if res.status == "unbounded" or res.x is None:
            raise RuntimeError(f"attack MILP over hours {hours} ended {res.status}")
        parts = [_certified_hour(dispatch, h, costs,
                                 *_extract_hour(net, demand, season, h, res.x, lay, hp),
                                 res.status, res.node_count, bigm)
                 for hp, h in enumerate(hours)]
        if all(p.bigm_valid for p in parts):
            return parts
        bigm *= BIGM_GROWTH
    raise BigMInvalidError(f"big-M {bigm} not above solution magnitude after retries")


def solve_hourly_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    hour: int,
    costs: AttackCosts,
    hourly_budget: float,
    bigm: float | None = None,
    node_limit: int = 20_000,
    dispatch: SeasonDispatch | None = None,
) -> HourlyAttack:
    """Solve the one-hour disruption problem; certify the returned point.

    The branch-and-bound search starts from the greedy incumbent
    (:func:`greedy_attack`).  The reported equilibrium is verified against
    the shifted bounds and the big-M max-norm test is applied post hoc,
    growing M on failure.  M starts at ``bigm``, :func:`default_bigm` when
    None.

    ``dispatch`` is the run's :class:`SeasonDispatch`: the greedy search
    opens from its unattacked dispatch of the hour, and a zero budget
    reports that dispatch with the dispatch's shared ``no_attack`` arrays.
    Without it, the call makes its own.

    ``node_limit=0`` selects certificate-only mode: the best candidate
    attack is returned with its certified equilibrium and the search is
    skipped entirely (used by scenario sweeps where wall time matters and
    the candidate generator is already target-aware).  This mode reports
    the big-M flag and does not retry.
    """
    if bigm is None:
        bigm = default_bigm(net, demand)
    dispatch = _run_dispatch(net, demand, season, dispatch)
    if hourly_budget <= 1e-12:
        return _certified_hour(dispatch, hour, costs, *dispatch.no_attack, dispatch.base(hour),
                               "optimal", 0, bigm)

    best = greedy_attack(net, demand, season, hour, costs, hourly_budget, dispatch)
    if node_limit == 0:
        return _certified_hour(dispatch, hour, costs, *best, "heuristic", 0, bigm)
    return _solve_certified(dispatch, [hour], costs, hourly_budget, bigm, node_limit,
                            [best])[0]


# dense entries of A (rows x columns) above which solve_full_milp refuses to build
FULL_MILP_MAX_ENTRIES = 4_000_000


def solve_full_milp(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    hours: list[int] | None = None,
    *,
    node_limit: int = 500_000,
) -> AttackPlan:
    """Jointly optimal attack across hours under one ``costs.budget`` row.

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
    bigm = default_bigm(net, demand)
    dispatch = SeasonDispatch(net, demand, season)

    budget = costs.budget
    # warm candidate: greedy at budget / H in every hour
    warm_parts = [greedy_attack(net, demand, season, h, costs, budget / len(hours), dispatch)
                  for h in hours]
    parts = _solve_certified(dispatch, hours, costs, budget, bigm, node_limit, warm_parts)
    return AttackPlan(season, parts, budget)


def _beats(value: float, reference: float) -> bool:
    """``value`` exceeds ``reference`` by more than rounding."""
    return value > reference + 1e-9 * max(1.0, abs(reference))


def run_attack(
    net: PowerNetwork,
    demand: DemandProfile,
    season: str,
    costs: AttackCosts,
    *,
    node_limit: int = 20_000,
    dispatch: SeasonDispatch | None = None,
) -> AttackPlan:
    """A day's attack: the best split of ``costs.budget`` over the hours on a grid.

    One pass, K = ``BUDGET_STEPS`` and q = budget / K:

    * zero: every hour is solved at no budget, which certifies its
      unattacked dispatch; with no budget, that is the plan;
    * screen: every hour is solved at the whole budget; an hour that then
      sheds no more than its unattacked dispatch drops out;
    * tabulate: every remaining (live) hour is solved at k * q for
      k = 1 .. K - 1; k = 0 is the hour's zero part and k = K its screen;
    * knapsack: a dynamic program over the live hours, O(H * K^2), finds the
      split of at most K steps with the largest total, the fewest steps
      among equal totals.

    That costs H + H + live * (K - 1) hourly solves, all on one
    :class:`SeasonDispatch`: one dispatch form for every hour, and each
    hour's unattacked dispatch solved once.

    ``dispatch`` is that :class:`SeasonDispatch` of ``(net, demand,
    season)``, when the caller shares it between runs: a ladder passes one
    to each of its steps, which then solve the unattacked day once and
    share the form's store of basis inverses.  Without it the run makes its
    own, with every hour's unattacked dispatch solved first, chained hour
    to hour; build a shared one the same way for the same answer.
    """
    budget = costs.budget
    hours = range(demand.hours(season))
    dispatch = dispatch if dispatch is not None else SeasonDispatch(net, demand, season, hours)
    K = BUDGET_STEPS

    def solve(hour: int, b: float) -> HourlyAttack:
        return solve_hourly_attack(net, demand, season, hour, costs, b,
                                   node_limit=node_limit, dispatch=dispatch)

    zero = [solve(h, 0.0) for h in hours]
    if budget <= 0:
        return AttackPlan(season, zero, budget)
    full = [solve(h, budget) for h in hours]
    live = [h for h in hours if full[h].objective > dispatch.base(h).shed_cost + 1e-6]
    # grid[h][k]: live hour h's part at k steps
    grid = {h: [zero[h]] + [solve(h, k * budget / K) for k in range(1, K)] + [full[h]]
            for h in live}

    # best[s]: (total value, steps per live hour) of the best split of exactly s steps
    best: dict[int, tuple[float, tuple[int, ...]]] = {0: (0.0, ())}
    for h in live:
        nxt: dict[int, tuple[float, tuple[int, ...]]] = {}
        for s, (total, steps) in best.items():
            for k in range(K + 1 - s):
                value = total + grid[h][k].objective
                if s + k not in nxt or value > nxt[s + k][0]:
                    nxt[s + k] = (value, steps + (k,))
        best = nxt
    chosen = best[0]
    for s in sorted(best)[1:]:
        if _beats(best[s][0], chosen[0]):
            chosen = best[s]
    parts = list(zero)
    for h, k in zip(live, chosen[1]):
        parts[h] = grid[h][k]
    return AttackPlan(season, parts, budget)


def attack_rows(attacks: dict[tuple[str, int], dict[str, np.ndarray]], net: PowerNetwork,
                costs: AttackCosts) -> list[tuple]:
    """Strategy breakdown rows: (season, hour, component type, entity, z, spend).

    ``attacks`` maps each (season, hour) to its ``zg``, ``zf`` and ``zt``
    arrays, as ``reporting.read_attack_csv`` returns them.
    """
    rows = []
    for (season, hour), z in attacks.items():
        zg, zf, zt = z["zg"], z["zf"], z["zt"]
        for k, gen in enumerate(net.generators):
            if zg[k] > 1e-9:
                rows.append((season, hour, "gen", gen.id, zg[k], zg[k] * costs.cg[k]))
        for e, edge in enumerate(net.edges):
            if zf[e] > 1e-9:
                rows.append((season, hour, "flow", edge.id, zf[e], zf[e] * costs.cf[e]))
            if zt[e] > 1e-9:
                rows.append((season, hour, "angle", edge.id, zt[e], zt[e] * costs.ct[e]))
    return rows
