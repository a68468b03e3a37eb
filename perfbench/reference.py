"""HiGHS optimum of the hourly attack MILPs, for the attacker-quality metric.

The MILP is the package's own (``build_hourly_attack_milp``), handed to
``scipy.optimize.milp`` as arrays.  scipy is a test-time tool here; the
package itself depends on numpy only.  Runs outside the timed region.
"""

from __future__ import annotations

import numpy as np

from gridshock import attack

TIME_LIMIT_S = 60.0


def hourly_optimum(net, profile, season: str, hour: int, costs, budget: float) -> float:
    """Optimal disruption value of one hour at ``budget`` (raises if unproven)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    prob = attack.build_hourly_attack_milp(net, profile, season, hour, costs, budget)
    lp = prob.lp
    integrality = np.zeros(lp.num_cols)
    integrality[prob.binary_indices] = 1
    sign = -1.0 if lp.sense == "max" else 1.0
    res = milp(sign * lp.c, integrality=integrality, bounds=Bounds(lp.lb, lp.ub),
               constraints=LinearConstraint(lp.A, lp.row_lb, lp.row_ub),
               options={"time_limit": TIME_LIMIT_S})
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not prove hour {hour} optimal: {res.message}")
    return sign * float(res.fun)
