"""Branch-and-bound MILP solver over the LP core.

Binary variables only (bounds restricted to [0, 1]).  Search is
deterministic: most-fractional branching with lowest-index tie-breaking,
depth-first diving until the first incumbent, best-bound node selection
afterwards.  Integral candidates are polished by fixing the binaries to
exact 0/1 values and re-solving the continuous LP, so reported incumbents
carry exactly integral binaries.

Every node differs from its parent only in bounds, so each child LP and
each polish warm-starts from the basis of the node it came from (see
:mod:`gridshock.simplex`); a node stores that basis, never an inverse.  The
root LP and the polish of the caller's ``warm_start`` have no such basis
and start from the slack basis.  For the polish that is also the faster
start: a basis of mostly row activities has a sparse inverse, so its
pivots are cheap, and on the bundled hour-17 attack MILP it takes more
pivots than from the root's basis in less time.  The
LPs of one tree share one :class:`~gridshock.simplex.LpForm` of the
constraint matrix, whose store of basis inverses lets the second child of a
node reuse the factorization of the parent basis that the first child made.
A node whose LP fails numerically on both the warm and the cold path is
dropped with its parent's bound kept in the gap: the search goes on and
ends ``feasible-limit``, never ``optimal``.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from .simplex import LpForm, LpProblem, LpSolution, SolverNumericalError, solve_lp

MILP_GAP_TOL = 1e-6
ROUND_TOL = 1e-6


class MilpNodeLimitError(RuntimeError):
    """Node limit hit before any feasible incumbent was found."""


@dataclass
class MilpProblem:
    lp: LpProblem
    binary_indices: list[int] = field(default_factory=list)

    def __post_init__(self):
        n = self.lp.num_cols
        for j in self.binary_indices:
            if not (0 <= j < n):
                raise ValueError(f"binary index {j} out of range")
            if self.lp.lb[j] < -ROUND_TOL or self.lp.ub[j] > 1.0 + ROUND_TOL:
                raise ValueError(f"binary variable {j} must have bounds within [0, 1]")


@dataclass
class MilpSolution:
    status: str  # "optimal" | "feasible-limit" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    bound_gap: float
    node_count: int


def _is_better(sense: str, a: float, b: float) -> bool:
    return a < b - 1e-15 if sense == "min" else a > b + 1e-15


def _fixed(lp: LpProblem, idx: list[int], vals) -> LpProblem:
    """``lp`` with columns ``idx`` fixed at ``vals``; it shares ``lp.A``, so
    it solves on the tree's form."""
    lb, ub = lp.lb.copy(), lp.ub.copy()
    lb[idx] = ub[idx] = vals
    return LpProblem(lp.sense, lp.c, lp.A, lp.row_lb, lp.row_ub, lb, ub,
                     lp.row_labels, lp.col_labels)


def _polish(problem: MilpProblem, x: np.ndarray, basis: np.ndarray | None,
            form: LpForm) -> tuple[np.ndarray, float] | None:
    """Fix binaries to rounded values, re-solve the continuous part.

    Returns (x, objective) with exactly integral binaries, or None if the
    rounding is infeasible (can happen within tolerance of a bound).
    ``basis`` warm-starts the re-solve on ``form``, the tree's form; None
    starts it from the slack basis.
    """
    lp = problem.lp
    bidx = problem.binary_indices
    if not bidx:
        return x.copy(), float(lp.c @ x)
    vals = np.rint(x[bidx])
    sol = solve_lp(_fixed(lp, bidx, vals), basis=basis, form=form)
    if sol.status != "optimal":
        return None
    xp = sol.x.copy()
    xp[bidx] = vals  # exact 0/1 entries
    return xp, float(lp.c @ xp)


def solve_milp(
    problem: MilpProblem,
    node_limit: int = 200_000,
    warm_start: np.ndarray | None = None,
) -> MilpSolution:
    """Solve a binary MILP by branch and bound.

    ``warm_start`` seeds the incumbent with a candidate point; it is
    polished and kept only if feasible.  On hitting ``node_limit`` the best
    incumbent is returned with status ``feasible-limit``; if none exists,
    :class:`MilpNodeLimitError` is raised.  A node LP that fails
    numerically is skipped and its parent's bound kept in ``bound_gap``;
    the result is then ``feasible-limit`` (or the error is re-raised when
    no incumbent was found).
    """
    lp = problem.lp
    bidx = np.array(sorted(problem.binary_indices), dtype=np.int64)
    sense = lp.sense

    incumbent_x: np.ndarray | None = None
    incumbent_obj = np.inf if sense == "min" else -np.inf

    form = LpForm(lp.A)  # every LP of the tree is over lp.A
    root = solve_lp(lp, form=form)
    if root.status == "infeasible":
        return MilpSolution("infeasible", None, None, np.inf, 1)
    if root.status == "unbounded":
        return MilpSolution("unbounded", None, None, np.inf, 1)

    if warm_start is not None:
        res = _polish(problem, np.asarray(warm_start, dtype=float), None, form)
        if res is not None and _feasible(lp, res[0]):
            incumbent_x, incumbent_obj = res

    # bounds of nodes lost to a numerical failure, and the first such error
    lost: list[float] = []
    lost_error: SolverNumericalError | None = None

    # node entries: (fixings dict, relaxation solution)
    nodes = 1
    counter = 0
    # diving stack until first incumbent, then best-bound heap
    stack: list[tuple[dict[int, int], LpSolution]] = [({}, root)]
    heap: list[tuple[float, int, dict[int, int], LpSolution]] = []

    def bound_key(obj: float) -> float:
        return obj if sense == "min" else -obj

    def prune(obj: float) -> bool:
        if incumbent_x is None:
            return False
        slack = MILP_GAP_TOL * max(1.0, abs(incumbent_obj))
        if sense == "min":
            return obj >= incumbent_obj - slack
        return obj <= incumbent_obj + slack

    def lose(bound: float, exc: SolverNumericalError):
        nonlocal lost_error
        lost.append(bound)
        lost_error = lost_error or exc

    def accept(rel: LpSolution):
        nonlocal incumbent_x, incumbent_obj
        try:
            res = _polish(problem, rel.x, rel.basis, form)
        except SolverNumericalError as exc:
            lose(rel.objective, exc)
            return True
        if res is None:
            return False
        xp, obj = res
        if incumbent_x is None or _is_better(sense, obj, incumbent_obj):
            incumbent_x, incumbent_obj = xp, obj
        return True

    def child(fixings: dict[int, int], parent: LpSolution, j: int, val: int):
        f = {**fixings, j: val}
        return f, solve_lp(_fixed(lp, list(f), list(f.values())), basis=parent.basis,
                           form=form)

    while True:
        if incumbent_x is not None:
            # best-bound search once an incumbent exists: hand the open dive
            # nodes to the heap
            while stack:
                f, sol = stack.pop()
                if not prune(sol.objective):
                    counter += 1
                    heapq.heappush(heap, (bound_key(sol.objective), counter, f, sol))
        if not (stack or heap):
            break
        if nodes >= node_limit:
            if incumbent_x is None:
                raise MilpNodeLimitError(f"node limit {node_limit} reached with no incumbent")
            gap = _gap(sense, incumbent_obj, [rel.objective for *_, rel in heap] + lost)
            return MilpSolution("feasible-limit", incumbent_x, incumbent_obj, gap, nodes)

        fixings, rel = stack.pop() if incumbent_x is None else heapq.heappop(heap)[2:]
        if prune(rel.objective):
            continue

        frac = np.abs(rel.x[bidx] - np.rint(rel.x[bidx])) if bidx.size else np.zeros(0)
        if bidx.size == 0 or np.all(frac <= ROUND_TOL):
            if accept(rel):
                continue
            # rounding infeasible: force the most ambiguous binary both ways
            unfixed = [k for k, jj in enumerate(bidx) if int(jj) not in fixings]
            if not unfixed:
                continue
            j_local = max(unfixed, key=lambda k: (frac[k], -k))
            j = int(bidx[j_local])
            toward = int(np.rint(rel.x[j]))
        else:
            # most-fractional branching, lowest index on ties
            key = np.where(frac > ROUND_TOL,
                           np.minimum(rel.x[bidx] - np.floor(rel.x[bidx]),
                                      np.ceil(rel.x[bidx]) - rel.x[bidx]), -1.0)
            j_local = int(np.argmax(key))
            j = int(bidx[j_local])
            toward = int(np.rint(rel.x[j]))  # dive toward the nearest integer first

        kids = []
        for val in (toward, 1 - toward):
            nodes += 1
            try:
                f, sol = child(fixings, rel, j, val)
            except SolverNumericalError as exc:
                lose(rel.objective, exc)
                continue
            if sol.status == "optimal" and not prune(sol.objective):
                kids.append((f, sol))
        # push the away-branch first so the toward-branch pops next
        stack.extend(reversed(kids))

    if incumbent_x is None:
        if lost_error is not None:
            raise lost_error
        return MilpSolution("infeasible", None, None, np.inf, nodes)
    if lost:
        return MilpSolution("feasible-limit", incumbent_x, incumbent_obj,
                            _gap(sense, incumbent_obj, lost), nodes)
    return MilpSolution("optimal", incumbent_x, incumbent_obj, 0.0, nodes)


def _feasible(lp: LpProblem, x: np.ndarray, tol: float = 1e-6) -> bool:
    act = lp.A @ x
    return bool(
        np.all(act >= lp.row_lb - tol) and np.all(act <= lp.row_ub + tol)
        and np.all(x >= lp.lb - tol) and np.all(x <= lp.ub + tol)
    )


def _gap(sense: str, incumbent_obj: float, bounds: list[float]) -> float:
    if not bounds:
        return 0.0
    best = min(bounds) if sense == "min" else max(bounds)
    return abs(best - incumbent_obj) / max(1.0, abs(incumbent_obj))
