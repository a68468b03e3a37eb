"""Bounded-variable revised simplex solver with dual extraction.

Solves  min/max  c.x  subject to  row_lb <= A x <= row_ub,  lb <= x <= ub.
Rows with row_lb == row_ub are equalities; infinite bounds are allowed on
either side of rows and variables.

Internally the problem is converted to the standard bounded form

    [A | -I] [x; t] = 0,      lb <= x <= ub,   row_lb <= t <= row_ub,

where t is the row-activity variable ("slack").  The basis inverse is
kept explicitly and refactorized periodically; pivoting is deterministic
(Dantzig pricing with lowest-index tie-breaking, Bland's rule fallback
after a degenerate stall).

Cold start.  A solve without a usable basis of its own starts from the
slack basis, whose basic columns are all the row activities (the -I
columns), and runs the bounded dual simplex of the warm start (below).
Its reduced costs are the costs themselves, so once each boxed column
rests on the bound its cost asks for, it is dual feasible whenever every
column with a cost is bounded on the side that cost points to, as on the
package's dispatch and attack LPs; elsewhere the dual phase shifts the
costs that point off their bounds.  Only where the slack start fails
numerically (its "could not certify infeasibility" included) does phase 1
of the primal simplex run, with one artificial column per initially
violated row and a retry ladder of shorter refactorization intervals and
then Bland's rule.  Its "infeasible" stands; a feasible basis, each
artificial left basic swapped for its own row's activity, ends in the
primal tail of every other solve.

Sparse products, dense inverse.  The standard form ``A_std`` is held in
compressed-column form, and every product with it runs over its nonzeros:
the entering column ``B^-1 a_q`` gathers only the columns of the inverse
where ``a_q`` is nonzero, pricing forms ``y`` from the rows of the inverse
with a nonzero basic cost and ``c - A^T y`` as a segment sum, and the dual
simplex row and the basic values are segment sums too.  The basis inverse
stays a dense array.  An eta update changes only the entries in a row
where eta is nonzero and a column where the pivot row is; it updates just
those unless they cover a large share of the inverse, when the dense
update costs less.  A refactorization of a basis where that sparse update
can run (more than about 105 rows) orders the basis block-triangular by
peeling column singletons -- a basic row activity is one -- and then row
singletons, in rounds; LAPACK inverts only the dense nucleus left, and
substitution over the basis' nonzeros fills the rest of the inverse (see
:func:`_block_triangular_inverse`).  Every entry the order makes zero is
then exactly 0.0, where LAPACK on the whole block leaves roundoff: a
basis of the hour-17 attack MILP holds 3.4-6.1K nonzeros where LAPACK's
inverse holds 9.3-15.8K.  The eta update then touches only the true pattern, and the dual phase's
``reach`` guard sees no roundoff where an entry of its row is zero by
structure.  A smaller basis, such as the 16-zone dispatch LP's 51 rows,
inverts the dense block that its basic row activities leave by LAPACK (see
:meth:`_Tableau.invert`).

Warm start.  An optimal solve returns its basis: the m basic column
indices of the standard form in basis order, as an int32 array
(columns 0..n-1 are the variables, n..n+m-1 the row activities; empty
without rows), read-only: it may be the warm start of many later solves.
The nonbasic statuses are not stored, because a start sets them itself:
a column bounded on both sides rests on the bound its reduced cost asks
for (the bound nearest zero when the cost is indifferent, as in a cold
start), a one-sided column on its finite bound, a free one at zero.
Passing a basis back to :func:`solve_lp` for a problem with the same
``A`` re-optimizes from it with a bounded dual simplex.  A nonbasic
column whose reduced cost points off its bounds -- free, or one-sided
with the cost towards its open side -- has its cost shifted to a zero
reduced cost for the dual phase (Koberstein, *The dual simplex method*,
2005, ch. 4).  None does when only bounds moved, as for a
branch-and-bound child or a dispatch with lowered capacities, so a few
pivots restore primal feasibility.  The boxed columns settle before
the basic values are computed, once.  The leaving row has the largest
primal infeasibility; the ratio test uses the primal core's tolerance
band with a largest-|alpha| tie-break (lowest index first) and Bland's
rule after a stall.  It clips negative ratios to zero, so where the dual
phase refactorizes and reprices anyway, it raises if a movable column's
reduced cost has drifted to the wrong sign.  An "infeasible" verdict
stands only when it holds on a fresh factorization; it does not depend
on the costs.  A feasible basis ends in the primal tail: the primal core
with the true costs, its optimality recheck on a fresh factorization,
and the dual simplex again where the ratio test's band left a basic
value past its bounds.  The cold path runs instead when the basis has
the wrong shape, an index out of range or twice, or is singular, or on
any numerical failure, so a refused warm start ends exactly as a solve
without a basis: a basis can change the pivot count but never the trust
in the answer.

Shared form.  The scaled standard form depends on ``A`` alone, so an
:class:`LpForm` builds it once -- the equilibration factors and
``[A_sc | -I]`` -- for every re-solve over the same matrix: the hours of
a dispatch day (and the steps of a ladder over that day), the nodes of a
branch-and-bound tree.  The form also keeps a small store of basis
inverses, keyed by basis, and every factorization of a tableau over its
``A_std`` goes through it: the warm start and the slack start, the
optimality recheck, the dual phase's confirmations and the eta update's
refactorizations.  A basis found there is not factorized again, nor
checked for its indices (it was factorized, so it is valid).  That is
bit-identical to a fresh factorization, which is a pure function of
``(A_std, basis)`` for a fixed BLAS thread count; the stored inverses are
read-only, and a tableau copies one before its first pivot.  With each
inverse the store keeps the costs, reduced costs and tolerance of the
last start from its basis, read-only; a start under equal costs, as the
next candidate of an hour, takes them instead of pricing.  The store
keeps up to ``_STORE_BYTES`` of inverses, the least recently used
leaving first with its pricing, and never fewer than the ``_STORE_MIN``
most recent: a branch-and-bound child's recheck must not evict the
parent basis its sibling starts from.
Since the slack start runs over the form, the final inverse of a cold
solve is stored for the warm starts from its basis (a branch-and-bound
root's first children).  Only phase 1 factorizes over ``A_std`` with
artificial columns appended, so its tableaux stay outside the store; its
primal tail runs over the form.  The optimality recheck always runs on a
fresh factorization, but it refactorizes only when a pivot or a bound
flip happened since the last one: with neither, the inverse in hand is
that fresh factorization.  When the dual phase makes neither a pivot nor
a shift, the primal tail would price what the start priced -- same
inverse, costs and statuses -- and test the basic values the dual phase
just passed, so it does neither: the start's pricing is the answer.  A
re-solve whose starting basis stays optimal thus prices at most once,
with the same solution, basis and iteration count as the full recheck,
and not at all, nor factorizes, when its basis and costs are stored.

Two stages.  :func:`solve_lp` is :func:`optimize_lp`, which runs the
simplex and returns the optimal vertex -- status, iterations, basis, ``x``
and objective -- holding its final tableau, followed by :func:`finish_lp`,
which derives the duals, reduced costs, primal residual, duality gap and
complementarity from that tableau.  The tableau belongs to the vertex
alone, warm or cold (a stored inverse it shares is never written), so a
vertex finished later, after other solves over the same form, gives the
same answer bit for bit.  A caller that compares many candidate LPs by
their vertex finishes only the one it keeps.

Dual sign convention (documented for callers):
  * minimization: row dual y_i >= 0 when the row's lower bound is active,
    y_i <= 0 when the upper bound is active; d(obj)/d(bound) = y_i.
  * maximization: the mirror image (y_i >= 0 on an active upper bound).
  * reduced cost rc_j = c_j - y.A_j in the caller's objective; for
    minimization rc_j >= 0 at an active variable lower bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FEAS_TOL = 1e-7
_PIVOT_TOL = 1e-9
_RC_TOL = 1e-9
_REFACTOR_EVERY = 64
_STALL_LIMIT = 200
_VERIFY_ROUNDS = 6
_DUAL_FEAS_TOL = 1e-9  # relative primal infeasibility the dual phase removes
# the eta update touches only its nonzero pattern when that costs less than
# the dense update of all m^2 entries.  Timed with numpy on one core for m
# from 64 to 500, the two break even where m^2 = 6.5 to 7.8 times the
# pattern's entries plus 11,000 to 11,500: an indexed entry costs about 7
# dense ones, and the index arithmetic about 11,000, so a basis of fewer
# than 105 rows (the 16-zone dispatch LP's 51) always takes the dense one.
_SPARSE_ETA_COST = 7
_SPARSE_ETA_OVERHEAD = 11000
# a form's store of basis inverses: up to this many bytes, and never fewer
# than this many of the most recent (see the module docstring)
_STORE_BYTES = 1 << 20
_STORE_MIN = 2

_AT_LOWER = 0
_AT_UPPER = 1
_AT_ZERO = 2  # nonbasic free variable parked at zero
_BASIC = 3


class SolverNumericalError(RuntimeError):
    """Raised when the simplex cannot make progress (iteration cap, singular basis)."""


@dataclass
class LpProblem:
    """Dense LP in canonical ranged-row form.

    ``row_lb[i] == row_ub[i]`` marks an equality row.  Labels are optional
    and only used for traceability (debug dumps, error messages).
    """

    sense: str  # "min" | "max"
    c: np.ndarray
    A: np.ndarray
    row_lb: np.ndarray
    row_ub: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    row_labels: list[str] = field(default_factory=list)
    col_labels: list[str] = field(default_factory=list)

    def __post_init__(self):
        self.c = np.asarray(self.c, dtype=float)
        A = np.asarray(self.A, dtype=float)
        self.A = A if A.ndim == 2 else np.atleast_2d(A)
        self.row_lb = np.asarray(self.row_lb, dtype=float)
        self.row_ub = np.asarray(self.row_ub, dtype=float)
        self.lb = np.asarray(self.lb, dtype=float)
        self.ub = np.asarray(self.ub, dtype=float)
        m, n = self.A.shape
        if self.c.shape != (n,):
            raise ValueError(f"cost vector has shape {self.c.shape}, expected ({n},)")
        bounds = (("row_lb", self.row_lb, m), ("row_ub", self.row_ub, m),
                  ("lb", self.lb, n), ("ub", self.ub, n))
        for name, vec, size in bounds:
            if vec.shape != (size,):
                raise ValueError(f"{name} has shape {vec.shape}, expected ({size},)")
        if self.sense not in ("min", "max"):
            raise ValueError(f"sense must be 'min' or 'max', got {self.sense!r}")
        for name, arr in (("c", self.c), ("A", self.A)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains NaN or Inf")
        # all bounds in one array, the lower ones first, so each test is one call
        flat = np.concatenate([self.row_lb, self.lb, self.row_ub, self.ub])
        if np.isnan(flat).any():
            name = next(name for name, vec, _ in bounds if np.isnan(vec).any())
            raise ValueError(f"{name} contains NaN")
        if (flat[:m + n] > flat[m + n:]).any():
            raise ValueError("lower bound exceeds upper bound")

    @property
    def num_rows(self) -> int:
        return self.A.shape[0]

    @property
    def num_cols(self) -> int:
        return self.A.shape[1]


@dataclass
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    duals: np.ndarray | None
    reduced_costs: np.ndarray | None
    objective: float | None
    iterations: int = 0
    max_primal_residual: float = 0.0
    duality_gap: float = 0.0
    cs_residual: float = 0.0
    basis: np.ndarray | None = None  # basic column indices: a warm start


@dataclass
class LpVertex:
    """What :func:`optimize_lp` found: the status and, when optimal, the
    vertex ``x``, its objective and basis, with the final tableau that
    :func:`finish_lp` derives the rest of the :class:`LpSolution` from."""

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: np.ndarray | None
    objective: float | None
    iterations: int = 0
    basis: np.ndarray | None = None
    # (problem, form, tableau, costs over its columns) of an optimal vertex
    _state: tuple | None = field(default=None, repr=False, compare=False)


def dump_lp(problem: LpProblem) -> str:
    """Render a problem in LP text format for external cross-checking."""
    m, n = problem.num_rows, problem.num_cols
    cols = problem.col_labels or [f"x{j}" for j in range(n)]
    rows = problem.row_labels or [f"r{i}" for i in range(m)]
    out = ["Maximize" if problem.sense == "max" else "Minimize"]
    terms = " ".join(
        f"{'+' if cj >= 0 else '-'} {abs(cj):.12g} {cols[j]}"
        for j, cj in enumerate(problem.c) if cj != 0.0
    )
    out.append(" obj: " + (terms or "0 " + cols[0]))
    out.append("Subject To")
    for i in range(m):
        expr = " ".join(
            f"{'+' if a >= 0 else '-'} {abs(a):.12g} {cols[j]}"
            for j, a in enumerate(problem.A[i]) if a != 0.0
        ) or f"0 {cols[0]}"
        lo, up = problem.row_lb[i], problem.row_ub[i]
        if lo == up:
            out.append(f" {rows[i]}: {expr} = {lo:.12g}")
        else:
            if np.isfinite(lo):
                out.append(f" {rows[i]}_lo: {expr} >= {lo:.12g}")
            if np.isfinite(up):
                out.append(f" {rows[i]}_up: {expr} <= {up:.12g}")
    out.append("Bounds")
    for j in range(n):
        lo, up = problem.lb[j], problem.ub[j]
        lo_s = f"{lo:.12g}" if np.isfinite(lo) else "-inf"
        up_s = f"{up:.12g}" if np.isfinite(up) else "+inf"
        out.append(f" {lo_s} <= {cols[j]} <= {up_s}")
    out.append("End")
    return "\n".join(out) + "\n"


def _nonbasic_values(status: np.ndarray, lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Value of every nonbasic column at its status; basic columns read 0."""
    return np.where(status == _AT_LOWER, lb, np.where(status == _AT_UPPER, ub, 0.0))


def _initial_status(lb: np.ndarray, ub: np.ndarray) -> np.ndarray:
    """Finite bound nearest zero, free variables at zero."""
    lf, uf = np.isfinite(lb), np.isfinite(ub)
    nearer_lower = np.abs(lb) <= np.abs(ub)
    return np.where(lf & uf, np.where(nearer_lower, _AT_LOWER, _AT_UPPER),
                    np.where(lf, _AT_LOWER, np.where(uf, _AT_UPPER, _AT_ZERO))
                    ).astype(np.int8)


def _rc_tol(c: np.ndarray, factor: float = 1.0) -> float:
    """Reduced-cost tolerance, relative to the largest cost."""
    return factor * _RC_TOL * (1.0 + float(np.abs(c).max(initial=0.0)))


# the sign that turns a reduced cost into the gain of moving a column off its
# status, indexed by status: -rc at a lower bound, rc at an upper bound, none
# when basic (a free column at zero gains |rc|, set apart)
_GAIN_SIGN = np.array([-1.0, 1.0, 0.0, 0.0])


def _improving(rc: np.ndarray, status: np.ndarray, tol: float) -> np.ndarray:
    """Objective gain per unit of moving each column off its status.

    ``-rc`` at a lower bound, ``rc`` at an upper bound, ``|rc|`` for a free
    column at zero; 0 where the gain is not above ``tol`` and for basic
    columns.
    """
    gain = rc * _GAIN_SIGN[status]
    free = status == _AT_ZERO
    if free.any():
        gain[free] = np.abs(rc[free])
    return np.where(gain > tol, gain, 0.0)


def _in_band(ratios: np.ndarray) -> np.ndarray:
    """Two-pass ratio test: positions within a tolerance band of the smallest
    ratio; empty when every ratio is infinite or there is none."""
    step = float(ratios.min(initial=np.inf))
    if not math.isfinite(step):
        return np.zeros(0, dtype=np.intp)
    return (ratios <= step + 1e-9 * (1.0 + abs(step))).nonzero()[0]


class _Csc:
    """A matrix in compressed-column form, built with vectorized numpy.

    The nonzeros of column j are ``rows[ptr[j]:ptr[j + 1]]`` with values
    ``vals[ptr[j]:ptr[j + 1]]``; ``cols`` holds each nonzero's column, so
    the products with the matrix are segment sums over the nonzeros.
    """

    def __init__(self, ptr: np.ndarray, rows: np.ndarray, vals: np.ndarray, m: int):
        self.ptr, self.rows, self.vals = ptr, rows, vals
        self.shape = (m, ptr.size - 1)
        self.cols = np.repeat(np.arange(ptr.size - 1), np.diff(ptr))

    @classmethod
    def standard_form(cls, rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                      shape: tuple[int, int]) -> _Csc:
        """``[A_sc | -I]`` from the nonzeros ``vals`` of the m x n matrix
        ``A_sc`` at ``(rows, cols)``, in column-major order: the columns of
        ``A_sc``, then one -e_i per row."""
        m, n = shape
        counts = np.concatenate([np.bincount(cols, minlength=n), np.ones(m, dtype=np.intp)])
        ptr = np.zeros(n + m + 1, dtype=np.intp)
        np.cumsum(counts, out=ptr[1:])
        return cls(ptr, np.concatenate([rows, np.arange(m)]),
                   np.concatenate([vals, np.full(m, -1.0)]), m)

    def with_unit_columns(self, rows: np.ndarray, signs: np.ndarray) -> _Csc:
        """This matrix with the columns ``signs[k] * e_{rows[k]}`` appended."""
        ptr = np.concatenate([self.ptr, self.ptr[-1] + np.arange(1, rows.size + 1)])
        return _Csc(ptr, np.concatenate([self.rows, rows]),
                    np.concatenate([self.vals, signs]), self.shape[0])

    def dot(self, x: np.ndarray) -> np.ndarray:
        """``A @ x``."""
        return np.bincount(self.rows, weights=self.vals * x[self.cols], minlength=self.shape[0])

    def tdot(self, y: np.ndarray) -> np.ndarray:
        """``A.T @ y``."""
        return np.bincount(self.cols, weights=self.vals * y[self.rows], minlength=self.shape[1])

    def column_entries(self, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzeros of ``A[:, cols]``, column by column: their rows,
        their column's position in ``cols`` and their values."""
        starts = self.ptr[cols]
        counts = self.ptr[cols + 1] - starts
        owner = np.repeat(np.arange(cols.size), counts)
        nz = np.arange(counts.sum()) + np.repeat(starts - (np.cumsum(counts) - counts), counts)
        return self.rows[nz], owner, self.vals[nz]


_SINGULAR = "singular basis during refactorization"


def _peel_singletons(major: np.ndarray, minor: np.ndarray, major_free: np.ndarray,
                     minor_free: np.ndarray) -> list[np.ndarray]:
    """Peel singletons off a square matrix's free lines, in rounds.

    ``major`` and ``minor`` hold the line of each nonzero along the two
    axes: its column and row to peel column singletons, its row and column
    to peel row singletons.  Each round takes every free major line with
    one nonzero left on the free minor lines and marks both lines of that
    nonzero taken in ``major_free`` and ``minor_free``; a round's pivots
    share no line.  Returns each round's pivots as indices of nonzeros.
    Raises :class:`SolverNumericalError` where the matrix is structurally
    singular: a free major line without a nonzero left, or two singletons
    on one minor line.
    """
    rounds = []
    free = np.count_nonzero(minor_free)
    while True:
        live = major_free[major] & minor_free[minor]
        count = np.bincount(major[live], minlength=major_free.size)
        if (major_free & (count == 0)).any():
            raise SolverNumericalError(_SINGULAR)
        single = major_free & (count == 1)
        if not single.any():
            return rounds
        pivots = np.flatnonzero(live & single[major])
        major_free[major[pivots]] = False
        minor_free[minor[pivots]] = False
        if np.count_nonzero(minor_free) != free - pivots.size:
            raise SolverNumericalError(_SINGULAR)  # two singletons on one minor line
        free -= pivots.size
        rounds.append(pivots)


def _block_triangular_inverse(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                              m: int) -> np.ndarray:
    """The inverse of the m x m matrix B whose nonzeros ``vals`` lie at
    ``(rows, cols)``, exactly 0.0 wherever B's block-triangular order makes
    an entry zero.

    Column singletons are peeled in rounds (a basic row activity is one),
    then row singletons; what is left is the nucleus.  Ranked in that order
    -- the column singleton rounds, the nucleus, the row singleton rounds
    last round first -- B is upper triangular apart from the nucleus'
    diagonal block, and so is its inverse.  Back substitution fills it one
    block of ranks at a time from the last, over the nonzeros of the
    block's rows: a round's diagonal block is diagonal, and only the
    nucleus is inverted by LAPACK.  An entry of the inverse is nonzero
    only where a chain of B's nonzeros leads to it.  Raises
    :class:`SolverNumericalError` when B is structurally singular or its
    nucleus is singular.
    """
    row_free = np.ones(m, dtype=bool)
    col_free = np.ones(m, dtype=bool)
    upper = _peel_singletons(cols, rows, col_free, row_free)
    lower = _peel_singletons(rows, cols, row_free, col_free)
    # each block's rows and columns in rank order, a pivot's row and column
    # at the same rank
    blocks = ([(rows[p], cols[p]) for p in upper]
              + [(np.flatnonzero(row_free), np.flatnonzero(col_free))]
              + [(rows[p], cols[p]) for p in reversed(lower)])
    row_order = np.concatenate([r for r, _ in blocks])
    col_order = np.concatenate([c for _, c in blocks])
    edges = np.cumsum([0] + [r.size for r, _ in blocks])
    nucleus = len(upper)
    n0, n1 = edges[nucleus], edges[nucleus + 1]  # the nucleus' ranks
    row_rank = np.empty(m, dtype=np.intp)
    row_rank[row_order] = np.arange(m)
    col_rank = np.empty(m, dtype=np.intp)
    col_rank[col_order] = np.arange(m)
    e_row, e_col = row_rank[rows], col_rank[cols]
    # a nonzero is right of its row's diagonal block or in it: the pivot of
    # a round's row, or an entry of the nucleus
    right = e_col >= np.repeat(edges[1:], np.diff(edges))[e_row]
    inside = ~right
    pivot = np.empty(m)
    pivot[e_row[inside]] = vals[inside]
    pivot[n0:n1] = 1.0
    core = inside & (e_row >= n0) & (e_row < n1)
    N = np.zeros((n1 - n0, n1 - n0))
    N[e_row[core] - n0, e_col[core] - n0] = vals[core]
    try:
        inv = np.linalg.inv(N)
    except np.linalg.LinAlgError as exc:
        raise SolverNumericalError(_SINGULAR) from exc
    # the nonzeros right of the diagonal blocks by row rank, each divided by
    # minus its row's pivot, and where each row's run of them starts
    order = np.flatnonzero(right)
    order = order[np.argsort(e_row[order], kind="stable")]
    r_row, r_pos = e_row[order], cols[order]
    r_weight = vals[order] / -pivot[r_row]
    first = np.flatnonzero(np.diff(r_row, prepend=-1))
    bounds = np.searchsorted(r_row, edges)
    runs = np.searchsorted(first, bounds)
    # B^-1 with its columns in rank order (row p is basis position p): the
    # rows of a block of ranks [a, b) are nonzero only in the columns from
    # a on, and those in [a, b) are the inverse of the diagonal block
    X = np.zeros((m, m))
    X[col_order, np.arange(m)] = 1.0 / pivot
    X[col_order[n0:n1], n0:n1] = inv
    # back substitution, the last block first: a block's rows right of it
    # are its weighted nonzeros times the rows of B^-1 filled so far
    for k in range(len(blocks) - 1, -1, -1):
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi:
            continue
        b = edges[k + 1]
        run = first[runs[k]:runs[k + 1]]
        Y = np.add.reduceat(r_weight[lo:hi, None] * X[r_pos[lo:hi], b:], run - lo, axis=0)
        if k == nucleus:
            X[col_order[n0:n1], b:] = inv[:, r_row[run] - n0] @ Y
        else:
            X[col_order[r_row[run]], b:] = Y
    return np.take(X, row_rank, axis=1)  # C-contiguous, as the eta update needs


class _Tableau:
    """Working state for one simplex run on the standard bounded form.

    Columns n..n+m-1 of ``A_std`` are the row activities (-I); any columns
    after them are phase-1 artificials.  ``fresh`` says that the inverse
    and the basic values are those of a factorization of the current basis:
    no pivot and no bound flip happened since.  ``form`` is the
    :class:`LpForm` whose ``A_std`` this is, and whose store every
    factorization goes through; None over any other matrix.
    """

    def __init__(self, A_std: _Csc, lb: np.ndarray, ub: np.ndarray, n: int,
                 form: LpForm | None = None):
        self.A = A_std
        self.form = form
        self.n = n
        self.m, self.ncols = A_std.shape
        self.lb = lb
        self.ub = ub
        self.status = np.empty(self.ncols, dtype=np.int8)
        self.basis = np.empty(self.m, dtype=np.int64)
        self.binv: np.ndarray | None = None  # set by the first factorization
        self.xB = np.zeros(self.m)
        self.pivots_since_refactor = 0
        self.fresh = False

    def nonbasic_value(self, j: int) -> float:
        s = self.status[j]
        if s == _AT_LOWER:
            return self.lb[j]
        if s == _AT_UPPER:
            return self.ub[j]
        return 0.0

    def full_x(self) -> np.ndarray:
        x = _nonbasic_values(self.status, self.lb, self.ub)
        x[self.basis] = self.xB
        return x

    def refactorize(self):
        """A fresh factorization of the current basis, from the form's store
        when it holds one, and the basic values it gives."""
        self.binv = self.form.inverse(self)[0] if self.form is not None else self.invert()
        self.pivots_since_refactor = 0
        self.fresh = True
        self.recompute_basic_values()

    def invert(self) -> np.ndarray:
        """The inverse of the current basis, computed afresh.

        Where the eta update can use the zeros of the inverse (the same
        ``m * m > _SPARSE_ETA_OVERHEAD`` rule), it is built by
        :func:`_block_triangular_inverse` from the basis' nonzeros, and every
        entry its block-triangular structure makes zero is exactly 0.0.  A
        smaller basis inverts the dense block that its basic row activities
        leave, by LAPACK.
        """
        rows, pos, vals = self.A.column_entries(self.basis)
        if self.m * self.m > _SPARSE_ETA_OVERHEAD:
            return _block_triangular_inverse(rows, pos, vals, self.m)
        # A basic row activity is a column -e_i, fixed by row i once the
        # other basic values are known; so B x = b needs only the block A11
        # of the other basic columns S on the rows R without a basic
        # activity:  x_S = A11^-1 b_R  and  x_T = A21 x_S - b_T.  The
        # inverse of B holds A11^-1 and A21 A11^-1.
        basis = self.basis
        is_act = (basis >= self.n) & (basis < self.n + self.m)
        S = np.flatnonzero(~is_act)
        T = np.flatnonzero(is_act)
        rows_T = basis[T] - self.n
        uncovered = np.ones(self.m, dtype=bool)
        uncovered[rows_T] = False
        rows_R = np.flatnonzero(uncovered)
        B = np.zeros((self.m, self.m))
        B[rows, pos] = vals
        B_S = B[:, S]
        try:
            inv11 = np.linalg.inv(B_S[rows_R])
        except np.linalg.LinAlgError as exc:
            raise SolverNumericalError(_SINGULAR) from exc
        cols_R = np.empty((self.m, S.size))  # the columns rows_R of the inverse
        cols_R[S] = inv11
        cols_R[T] = B_S[rows_T] @ inv11
        binv = np.zeros((self.m, self.m))
        binv[:, rows_R] = cols_R
        binv[T, rows_T] = -1.0
        return binv

    def recompute_basic_values(self):
        """Basic values from scratch: A_N x_N + B x_B = 0."""
        x = _nonbasic_values(self.status, self.lb, self.ub)  # 0 at the basic columns
        self.xB = self.binv @ -self.A.dot(x)

    def entering_column(self, q: int) -> np.ndarray:
        """w = B^-1 a_q, from the columns of the inverse where a_q is nonzero."""
        A = self.A
        lo, hi = A.ptr[q], A.ptr[q + 1]
        return self.binv[:, A.rows[lo:hi]] @ A.vals[lo:hi]

    def reduced_costs(self, c: np.ndarray) -> np.ndarray:
        c_B = c[self.basis]
        nz = c_B.nonzero()[0]  # a zero basic cost adds nothing to y
        y = c_B[nz] @ self.binv[nz]
        return c - self.A.tdot(y)

    def pivot(self, pos: int, q: int, enter_val: float, leave_status: int,
              w: np.ndarray, refactor_every: int):
        """Column q enters at basis position ``pos`` with value ``enter_val``;
        the column it replaces leaves at ``leave_status``.  w = B^-1 a_q."""
        self.status[self.basis[pos]] = leave_status
        self.basis[pos] = q
        self.status[q] = _BASIC
        self.xB[pos] = enter_val
        self.eta_update(w, pos, refactor_every)

    def eta_update(self, w: np.ndarray, pos: int, refactor_every: int):
        """Replace basis column ``pos`` in the inverse given w = B^-1 a_q.

        Only the entries in a row where eta is nonzero and a column where
        row ``pos`` of the inverse is nonzero change; the update touches
        just those unless they make a large share of the matrix.  A
        relatively small pivot is tolerated for one step but forces an
        immediate refactorization.
        """
        piv = w[pos]
        if abs(piv) < _PIVOT_TOL:
            self.refactorize()
            return
        eta = w / -piv
        eta[pos] = 1.0 / piv
        if not self.binv.flags.writeable:
            self.binv = self.binv.copy()  # the inverse is in a form's store
        row = self.binv[pos, :].copy()
        dense = True
        if self.m * self.m > _SPARSE_ETA_OVERHEAD:
            I, J = eta.nonzero()[0], row.nonzero()[0]
            dense = _SPARSE_ETA_COST * I.size * J.size + _SPARSE_ETA_OVERHEAD >= self.m * self.m
        if dense:
            self.binv += eta[:, None] * row
        else:
            # the I x J entries through their flat indices (every inverse is
            # C-contiguous, so the reshape is a view)
            flat = (I[:, None] * self.m + J).reshape(-1)
            self.binv.reshape(-1)[flat] += np.multiply.outer(eta[I], row[J]).reshape(-1)
        self.binv[pos, :] = row / piv
        self.pivots_since_refactor += 1
        self.fresh = False
        if (self.pivots_since_refactor >= refactor_every
                or abs(piv) < 1e-6 * (1.0 + float(np.abs(w).max()))):
            self.refactorize()


def _simplex_core(tab: _Tableau, c: np.ndarray, max_iter: int,
                  refactor_every: int = _REFACTOR_EVERY,
                  bland_start: bool = False) -> tuple[str, int]:
    """Run phase-2 style iterations for objective c from a feasible basis.

    Returns (status, iterations) with status in {"optimal", "unbounded"}.
    """
    tol = _rc_tol(c)
    bland = bland_start
    stall = 0
    it = 0
    rc = None
    while True:
        it += 1
        if it > max_iter:
            raise SolverNumericalError(f"iteration limit {max_iter} exceeded")
        if rc is None:
            # a bound flip changes neither the basis nor its inverse, so the
            # reduced costs and basic bounds priced before it still hold
            rc = tab.reduced_costs(c)
            lb_b = tab.lb[tab.basis]
            ub_b = tab.ub[tab.basis]
        improv = _improving(rc, tab.status, tol)
        if not improv.any():
            return "optimal", it

        if bland:
            q = int(np.flatnonzero(improv)[0])
        else:
            q = int(improv.argmax())  # lowest index on ties (argmax picks first)
        direction = 1.0 if (tab.status[q] == _AT_LOWER or
                            (tab.status[q] == _AT_ZERO and rc[q] < 0.0)) else -1.0

        w = tab.entering_column(q)
        d = -direction * w  # basic variables move by d * step

        # ratio test: pivot on the largest direction component in the band
        absd = np.abs(d)
        caps = np.where(d > 0.0, ub_b, lb_b) - tab.xB
        ratios = np.empty(tab.m)
        ratios.fill(np.inf)
        np.divide(caps, d, out=ratios, where=absd > _PIVOT_TOL)
        ratios = np.where(np.isnan(ratios), np.inf, np.maximum(ratios, 0.0))
        in_band = _in_band(ratios)
        step, leave_pos = np.inf, -1
        if in_band.size:
            if bland:
                leave_pos = int(in_band[tab.basis[in_band].argmin()])
            else:
                leave_pos = int(in_band[absd[in_band].argmax()])
            step = float(ratios[leave_pos])
        own_range = tab.ub[q] - tab.lb[q]
        flip = False
        if tab.status[q] != _AT_ZERO and math.isfinite(own_range) and own_range < step - 1e-11:
            step = own_range
            flip = True
        if step == np.inf:
            return "unbounded", it

        obj_drop = improv[q] * step
        if obj_drop <= tol * 1e-3:
            stall += 1
            if stall >= _STALL_LIMIT and not bland:
                bland = True  # anti-cycling fallback
        else:
            stall = 0

        tab.xB += d * step
        if flip:
            tab.status[q] = _AT_UPPER if tab.status[q] == _AT_LOWER else _AT_LOWER
            tab.fresh = False
            continue

        # pivot: q enters at position leave_pos, old basic leaves to a bound
        leave = int(tab.basis[leave_pos])
        if not np.isfinite(tab.lb[leave]) and not np.isfinite(tab.ub[leave]):
            leave_status = _AT_ZERO  # free variable pivoting out lands at 0
        else:
            leave_status = _AT_UPPER if d[leave_pos] > 0.0 else _AT_LOWER
        tab.pivot(leave_pos, q, tab.nonbasic_value(q) + direction * step, leave_status,
                  w, refactor_every)
        rc = None


def _pow2_scale(work: np.ndarray, owner: np.ndarray, size: int) -> np.ndarray:
    """The power of two nearest the inverse of each owner's largest entry
    of ``work`` (1 for an owner without one)."""
    big = np.zeros(size)
    np.maximum.at(big, owner, work)
    return np.where(big > 0, np.exp2(-np.round(np.log2(np.maximum(big, 1e-300)))), 1.0)


def _equilibrate(rows: np.ndarray, cols: np.ndarray, vals: np.ndarray,
                 shape: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """Power-of-two row/column scaling factors taming the coefficient spread
    of the matrix whose nonzeros ``vals`` lie at ``(rows, cols)``."""
    m, n = shape
    R = np.ones(m)
    C = np.ones(n)
    work = np.abs(vals)
    for _ in range(2):
        r = _pow2_scale(work, rows, m)
        work = work * r[rows]
        R *= r
        c = _pow2_scale(work, cols, n)
        work = work * c[cols]
        C *= c
    return R, C


class LpForm:
    """The scaled standard form of one constraint matrix, for every LP over it.

    Holds the equilibration factors ``R``, ``C`` of ``A`` and the standard
    form ``A_std = [R A C | -I]`` in compressed-column form, built once,
    plus a store of the basis inverses factorized over it, the least
    recently used first (see the module docstring).  :func:`solve_lp`
    takes it only for a problem whose ``A`` is this very array, so build it
    from ``problem.A`` and share that array between the problems it serves.
    """

    def __init__(self, A: np.ndarray):
        self.A = A
        cols, rows = np.nonzero(A.T)  # one pass over A, in column-major order
        vals = A[rows, cols]
        self.R, self.C = _equilibrate(rows, cols, vals, A.shape)
        self.A_std = _Csc.standard_form(rows, cols, vals * self.R[rows] * self.C[cols],
                                        A.shape)
        self._inverses: dict[bytes, list] = {}
        self._stored_bytes = 0

    def inverse(self, tab: _Tableau) -> list:
        """The store's entry for ``tab``'s basis, a new factorization where
        there is none: [read-only inverse, and the costs, reduced costs and
        tolerance of the last start from it (None before one)]."""
        key = tab.basis.tobytes()
        entry = self._inverses.pop(key, None)
        if entry is None:
            entry = [tab.invert(), None, None, None]
            entry[0].flags.writeable = False
            self._stored_bytes += entry[0].nbytes
        self._inverses[key] = entry  # now the most recently used
        while len(self._inverses) > _STORE_MIN and self._stored_bytes > _STORE_BYTES:
            oldest = next(iter(self._inverses))
            self._stored_bytes -= self._inverses.pop(oldest)[0].nbytes
        return entry


def _run_verified(tab: _Tableau, c: np.ndarray, max_iter: int,
                  refactor_every: int = _REFACTOR_EVERY,
                  bland_start: bool = False) -> tuple[str, int]:
    """Iterate until an exact recheck on a fresh basis inverse confirms the
    claimed status; guards against drift-induced false optima.  The inverse
    is refactorized only when it is not fresh already.
    """
    total = 0
    for _ in range(_VERIFY_ROUNDS):
        status, it = _simplex_core(tab, c, max_iter, refactor_every, bland_start)
        total += it
        if not tab.fresh:
            tab.refactorize()
        if status != "optimal":
            return status, total
        if not _improving(tab.reduced_costs(c), tab.status, _rc_tol(c, 10.0)).any():
            return "optimal", total
    raise SolverNumericalError("optimality could not be verified after restarts")


def _primal_infeasible(tab: _Tableau) -> bool:
    """Whether a basic value is past its bounds by more than the dual
    simplex tolerates."""
    viol = np.maximum(tab.lb[tab.basis] - tab.xB, tab.xB - tab.ub[tab.basis])
    return bool((viol > _DUAL_FEAS_TOL * (1.0 + np.abs(tab.xB))).any())


def _dual_simplex(tab: _Tableau, c: np.ndarray, max_iter: int,
                  rc: np.ndarray, tol: float) -> tuple[str, int]:
    """Bounded dual simplex from a dual-feasible basis to a primal-feasible one.

    ``rc`` holds the reduced costs of the tableau's fresh factorization
    under ``c`` and ``tol`` is the reduced-cost tolerance of the solve.
    Returns (status, pivots): "optimal" once every basic value is within
    its bounds (the caller rechecks optimality with the primal core), or
    "infeasible" when a violated row admits no entering column on a fresh
    factorization.  Fixed columns never enter: their reduced cost may take
    either sign.
    """
    movable = tab.lb < tab.ub

    def reprice() -> np.ndarray:  # refusing reduced costs of the wrong sign
        tab.refactorize()
        rc = tab.reduced_costs(c)
        if (_improving(rc, tab.status, tol) * movable).any():
            raise SolverNumericalError("dual phase lost dual feasibility")
        return rc
    bland = False
    stall = 0
    it = 0
    while True:
        below = tab.lb[tab.basis] - tab.xB
        above = tab.xB - tab.ub[tab.basis]
        viol = np.maximum(below, above)
        bad = viol > _DUAL_FEAS_TOL * (1.0 + np.abs(tab.xB))
        if not bad.any():
            return "optimal", it
        # leaving row: largest primal infeasibility (lowest position on
        # ties), or the lowest basic column index under Bland's rule
        if bland:
            cand = np.flatnonzero(bad)
            r = int(cand[tab.basis[cand].argmin()])
        else:
            r = int(np.where(bad, viol, 0.0).argmax())
        to_lower = bool(below[r] > 0.0)
        alpha = tab.A.tdot(tab.binv[r])  # row r of B^-1 A
        # the step t >= 0 moves reduced costs to rc - t * ahat
        ahat = -alpha if to_lower else alpha
        st = tab.status
        low = movable & (st == _AT_LOWER)
        upp = movable & (st == _AT_UPPER)
        fre = st == _AT_ZERO
        elig = ((low & (ahat > _PIVOT_TOL)) | (upp & (ahat < -_PIVOT_TOL))
                | (fre & (np.abs(ahat) > _PIVOT_TOL)))
        if not elig.any():
            if tab.pivots_since_refactor:
                rc = reprice()  # confirm on a fresh factorization
                continue
            # a proof only if no tiny entry could still close the violation
            towards = (low & (ahat > 0.0)) | (upp & (ahat < 0.0)) | (fre & (ahat != 0.0))
            reach = float((np.abs(ahat[towards])
                           * (tab.ub[towards] - tab.lb[towards])).sum())
            if reach >= viol[r]:
                raise SolverNumericalError("dual phase could not certify infeasibility")
            return "infeasible", it
        ratios = np.empty(rc.size)
        ratios.fill(np.inf)
        np.divide(rc, ahat, out=ratios, where=elig)
        np.maximum(ratios, 0.0, out=ratios)
        # same two-pass band as the primal ratio test, largest |alpha| in it
        in_band = _in_band(ratios)
        if bland:
            q = int(in_band[0])
        else:
            q = int(in_band[np.abs(alpha[in_band]).argmax()])

        w = tab.entering_column(q)
        piv = w[r]
        if abs(piv) < _PIVOT_TOL or abs(piv - alpha[q]) > 1e-6 * (1.0 + abs(piv)):
            # row and column of the inverse disagree: it has drifted
            if not tab.pivots_since_refactor:
                raise SolverNumericalError("unstable dual pivot on a fresh factorization")
            rc = reprice()
            continue
        it += 1
        if it > max_iter:
            raise SolverNumericalError(f"dual iteration limit {max_iter} exceeded")
        if ratios[q] * viol[r] <= tol * 1e-3:
            stall += 1
            if stall >= _STALL_LIMIT:
                bland = True  # anti-cycling fallback
        else:
            stall = 0

        # x_q moves until the leaving variable sits on its violated bound
        leave = int(tab.basis[r])
        target = tab.lb[leave] if to_lower else tab.ub[leave]
        delta = (tab.xB[r] - target) / piv
        tab.xB -= delta * w
        tab.pivot(r, q, tab.nonbasic_value(q) + delta, _AT_LOWER if to_lower else _AT_UPPER,
                  w, _REFACTOR_EVERY)
        if tab.pivots_since_refactor:
            rc = rc - ratios[q] * ahat
            rc[tab.basis] = 0.0
        else:
            rc = tab.reduced_costs(c)  # the pivot refactorized


def _warm_solve(form: LpForm, lb: np.ndarray, ub: np.ndarray, c: np.ndarray,
                basis: np.ndarray, max_iter: int) -> tuple[_Tableau, str, int] | None:
    """Solve from the basic columns ``basis``, a caller's or the slack basis
    of a cold start; None when they do not fit.  The dual phase runs with
    each cost that points off its column's bounds shifted to a zero reduced
    cost, and a feasible basis ends in :func:`_primal_tail` with the true
    costs (see the module docstring).

    Returns (tableau, status, iterations) with status "optimal",
    "infeasible" or "unbounded"; raises :class:`SolverNumericalError` on
    numerical trouble.
    """
    A_std = form.A_std
    m, ncols = A_std.shape
    basic = np.asarray(basis)
    if basic.shape != (m,) or basic.dtype.kind not in "iu":
        return None
    tab = _Tableau(A_std, lb, ub, ncols - m, form)  # it only reads the bounds
    tab.basis = basic.astype(np.int64)
    if tab.basis.tobytes() not in form._inverses and (  # a stored basis is valid
            ((basic < 0) | (basic >= ncols)).any()
            or np.bincount(tab.basis, minlength=ncols).max(initial=0) > 1):
        return None
    tab.status = _initial_status(lb, ub)
    tab.status[tab.basis] = _BASIC
    boxed = (tab.status != _BASIC) & np.isfinite(lb) & np.isfinite(ub)
    entry = form.inverse(tab)
    tab.binv, tab.fresh = entry[0], True
    if not np.array_equal(entry[1], c):  # under equal costs the stored pricing holds
        entry[1:] = c, tab.reduced_costs(c), _rc_tol(c)
        entry[2].flags.writeable = False
    rc, tol = entry[2], entry[3]  # the only pricing pass when no pivot follows
    # a boxed column rests on the bound its reduced cost asks for; where
    # the cost is indifferent it stays on the bound nearest zero, as in a
    # cold start, which keeps degenerate optima (big-M multipliers) small
    want = np.where(rc < -tol, _AT_UPPER, np.where(rc > tol, _AT_LOWER, tab.status))
    moved = boxed & (want != tab.status)
    tab.status[moved] = want[moved]
    tab.recompute_basic_values()  # once, at the settled statuses
    shifted = _improving(rc, tab.status, tol) > 0.0
    c_dual = c
    if shifted.any():
        c_dual = np.where(shifted, c - rc, c)
        rc = np.where(shifted, 0.0, rc)
    status1, it1 = _dual_simplex(tab, c_dual, max_iter, rc, tol)
    if status1 == "infeasible":
        return tab, "infeasible", it1
    # without a pivot or a shift the tableau is still the fresh
    # factorization priced above, at the true costs
    status2, it2 = _primal_tail(tab, c, max_iter, priced=not (it1 or shifted.any()))
    return tab, status2, it1 + it2


def _primal_tail(tab: _Tableau, c: np.ndarray, max_iter: int,
                 priced: bool = False) -> tuple[str, int]:
    """The last stage of every solve: :func:`_run_verified` with the true
    costs ``c`` from a feasible basis, returning its (status, iterations).

    The ratio test's tolerance band can leave a basic value past its bounds
    (far past them when the bounds are tiny against the step); the optimal
    basis is dual feasible, so the dual simplex clears that before the
    answer stands.  ``priced`` says that the caller found no improving
    column under ``_rc_tol(c)`` on the fresh factorization at its statuses,
    and no basic value past its bounds: the answer is "optimal" after that
    one pricing pass, with nothing computed (see the module docstring).
    """
    if priced:
        return "optimal", 1
    status, it = _run_verified(tab, c, max_iter)
    if status == "optimal" and _primal_infeasible(tab):
        status, more = _dual_simplex(tab, c, max_iter, tab.reduced_costs(c), _rc_tol(c))
        it += more
        if status == "optimal":
            status, more = _run_verified(tab, c, max_iter)
            it += more
    return status, it


def _cold_solve(form: LpForm, lb: np.ndarray, ub: np.ndarray, c: np.ndarray,
                max_iter: int) -> tuple[_Tableau | None, str, int]:
    """Solve without a basis of the caller's: from the slack basis (every
    row activity basic), or, when that start fails numerically, by
    :func:`_phase_one` and then :func:`_primal_tail`.

    Returns (tableau, status, iterations); the tableau is None when phase 1
    proves the LP infeasible.
    """
    m, ncols = form.A_std.shape
    try:
        return _warm_solve(form, lb, ub, c, np.arange(ncols - m, ncols), max_iter)
    except SolverNumericalError:
        tab, it1 = _phase_one(form, lb, ub, max_iter)
    if tab is None:
        return None, "infeasible", it1
    status, it2 = _primal_tail(tab, c, max_iter)
    return tab, status, it1 + it2


def _phase_one(form: LpForm, lb: np.ndarray, ub: np.ndarray,
               max_iter: int) -> tuple[_Tableau | None, int]:
    """Phase 1 of the primal simplex from the slack basis, with one
    artificial column per violated row and a retry ladder of shorter
    refactorization intervals and then Bland's rule.

    Returns (tableau, iterations): None when the LP is infeasible, else a
    tableau over the form at a feasible basis, each artificial left basic
    swapped for its own row's activity (a parallel column, so the basis
    stays nonsingular).
    """
    A_std = form.A_std
    m, ncols = A_std.shape
    n = ncols - m
    rlb_sc, rub_sc = lb[n:], ub[n:]  # the row activities' bounds
    row_bounds = np.abs(np.concatenate([rlb_sc, rub_sc]))
    ph1_tol = FEAS_TOL * (1.0 + row_bounds[np.isfinite(row_bounds)].max(initial=0.0))
    statuses = _initial_status(lb, ub)
    x0 = _nonbasic_values(statuses, lb, ub)
    x0[n:] = 0.0  # the row activity of the structural columns alone
    act0 = A_std.dot(x0)
    resid = act0 - np.clip(act0, rlb_sc, rub_sc)
    # one artificial column per violated row, basic in that row's place;
    # the row activity waits on the bound it violates
    viol = np.flatnonzero(np.abs(resid) > FEAS_TOL)
    n_art = viol.size
    A_art = A_std.with_unit_columns(viol, -np.sign(resid[viol]))
    statuses[n + viol] = np.where(resid[viol] > 0, _AT_UPPER, _AT_LOWER)

    def attempt(refactor_every: int, bland_start: bool):
        """One phase 1; returns (tableau over the form or None, iterations)."""
        t = _Tableau(A_art, np.concatenate([lb, np.zeros(n_art)]),
                     np.concatenate([ub, np.full(n_art, np.inf)]), n)
        t.basis = np.arange(n, ncols, dtype=np.int64)
        t.basis[viol] = np.arange(ncols, ncols + n_art)
        t.status[:ncols] = statuses
        t.status[t.basis] = _BASIC
        it = 0
        if n_art:
            t.refactorize()
            c1 = np.zeros(ncols + n_art)
            c1[ncols:] = 1.0
            status, it = _run_verified(t, c1, max_iter, refactor_every, bland_start)
            if status != "optimal" or float(c1[t.basis] @ t.xB) > ph1_tol:
                return None, it
        tab = _Tableau(A_std, lb, ub, n, form)
        art = t.basis >= ncols
        tab.basis = t.basis.copy()
        tab.basis[art] = n + viol[t.basis[art] - ncols]
        tab.status = t.status[:ncols].copy()
        tab.status[tab.basis] = _BASIC
        tab.refactorize()
        return tab, it

    last_exc: SolverNumericalError | None = None
    for refactor_every, bland_start in ((_REFACTOR_EVERY, False), (16, False), (8, True)):
        try:
            return attempt(refactor_every, bland_start)
        except SolverNumericalError as exc:
            last_exc = exc
    raise last_exc


def optimize_lp(problem: LpProblem, basis: np.ndarray | None = None,
                form: LpForm | None = None) -> LpVertex:
    """The optimize stage of :func:`solve_lp`: its vertex, without the duals.

    Takes the same arguments, runs the same simplex -- from ``basis`` when
    it fits and solves without numerical trouble, else from the slack
    basis, with phase 1 of the primal simplex only where that start fails
    numerically -- and raises the same errors; :func:`finish_lp` turns the
    vertex into the :class:`LpSolution` that :func:`solve_lp` returns.
    """
    if form is not None and form.A is not problem.A:
        raise ValueError("form was built from another constraint matrix")
    m, n = problem.num_rows, problem.num_cols
    sign = 1.0 if problem.sense == "min" else -1.0
    # equilibrate: scaled vars x' = x / C, scaled rows R * A * C, and the
    # standard form [A_sc | -I][x; t] = 0 with t the row activity
    form = form if form is not None else LpForm(problem.A)
    R, C = form.R, form.C
    c = np.concatenate([sign * problem.c * C, np.zeros(m)])
    lb = np.concatenate([problem.lb / C, problem.row_lb * R])
    ub = np.concatenate([problem.ub / C, problem.row_ub * R])
    max_iter = 50 * (m + n) + 10_000

    solved = None
    if basis is not None:
        try:
            solved = _warm_solve(form, lb, ub, c, basis, max_iter)
        except SolverNumericalError:
            pass
    tab, status, iters = solved or _cold_solve(form, lb, ub, c, max_iter)
    if status != "optimal":
        return LpVertex(status, None, None, iterations=iters)
    x = C * tab.full_x()[:n]  # back to the caller's variable scale
    out_basis = tab.basis.astype(np.int32)
    out_basis.flags.writeable = False  # a warm start of later solves
    return LpVertex("optimal", x, float(problem.c @ x), iters, out_basis,
                    _state=(problem, form, tab, c))


def finish_lp(vertex: LpVertex) -> LpSolution:
    """The finish stage of :func:`solve_lp`: duals, reduced costs, the primal
    residual, the duality gap and complementarity of ``vertex``.

    Reads only what the vertex holds, so the answer is the same whenever
    the vertex is finished, after any other solve over its form.
    """
    if vertex.status != "optimal":
        return LpSolution(vertex.status, None, None, None, None,
                          iterations=vertex.iterations)
    problem, form, tab, c = vertex._state
    c_user, x, obj = problem.c, vertex.x, vertex.objective
    n = problem.num_cols
    sign = 1.0 if problem.sense == "min" else -1.0

    # the tableau ends on the fresh factorization of the optimality recheck
    y_int = tab.binv.T @ c[tab.basis]
    y_rows = form.R * y_int[:problem.num_rows]
    # duals of the original rows: rc of activity var t_i is +y_i (scaled back)
    rc_int = sign * c_user - problem.A.T @ y_rows
    y_user = sign * y_rows
    rc_user = sign * rc_int

    act = problem.A @ x
    # the columns, then the rows: multiplier, bounds and value
    mult = np.concatenate([rc_int, y_rows])
    lo = np.concatenate([problem.lb, problem.row_lb])
    up = np.concatenate([problem.ub, problem.row_ub])
    val = np.concatenate([x, act])
    primal_res = float(np.maximum(lo - val, val - up).max(initial=0.0))

    # dual objective in the bounded form: sum of multiplier * supported bound,
    # over the columns and then over the rows; a nonzero multiplier pointing
    # at an infinite bound is a CS violation
    scale = 1.0 + float(np.abs(c_user).max(initial=0.0))
    bound = np.where(mult > 0, lo, up)
    live = mult != 0.0
    fin = live & np.isfinite(bound)
    inf_viol = np.abs(mult[live & ~fin])
    mult_f, bound_f = mult[fin], bound[fin]
    cs = max(float(inf_viol[inf_viol > _RC_TOL * scale].max(initial=0.0)),
             float(np.abs(mult_f * (val[fin] - bound_f)).max(initial=0.0)))
    terms = mult_f * bound_f
    k = np.count_nonzero(fin[:n])  # the terms of the columns come first
    dual_obj = 0.0 + float(terms[:k].sum()) + float(terms[k:].sum())
    gap = abs(sign * obj - dual_obj) / max(1.0, abs(obj))

    return LpSolution(
        status="optimal",
        x=x,
        duals=y_user,
        reduced_costs=rc_user,
        objective=obj,
        iterations=vertex.iterations,
        max_primal_residual=primal_res,
        duality_gap=gap,
        cs_residual=cs,
        basis=vertex.basis,
    )


def solve_lp(problem: LpProblem, basis: np.ndarray | None = None,
             form: LpForm | None = None) -> LpSolution:
    """Solve an LP; optimal solutions carry duals, reduced costs, residuals
    and their basis.

    ``basis``, taken from an earlier solve of a problem with the same
    ``A`` (and usually the same ``c``), warm-starts a bounded dual simplex
    (see the module docstring); without one, or when it cannot be used,
    the same dual simplex starts from the slack basis, and phase 1 of the
    primal simplex runs only where that start fails numerically.  A
    refused or failed warm start ends exactly as a solve without a basis.
    ``form`` is an :class:`LpForm` built from ``problem.A``, shared by the
    LPs over that matrix; without one, the solve builds its own.  Either
    way the answer is the same, bit for bit.
    Deterministic for a fixed BLAS thread count: identical inputs, basis
    included, yield bit-identical outputs, but a different thread count can
    change rounding, pivots and the vertex (``OPENBLAS_NUM_THREADS=1`` gives
    reproducible B&B trees).  Raises :class:`SolverNumericalError` on
    iteration caps or singular bases, and ValueError for a form built from
    another matrix.

    The two stages, :func:`optimize_lp` and :func:`finish_lp`, run in
    sequence; a caller that ranks many LPs by their vertex alone runs the
    first on each and the second only on the ones it keeps.
    """
    return finish_lp(optimize_lp(problem, basis, form))
