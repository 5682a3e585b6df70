"""Independent brute-force LP oracle used by the test suite.

Solves min c@y s.t. Ay = b, y >= 0 by exhaustive basis enumeration:

1. reduce to an independent row subset (inconsistent system -> infeasible),
2. enumerate all column subsets of basis size, keep nonsingular ones whose
   basic solution is nonnegative, and take the best objective,
3. decide unboundedness by brute-forcing the normalized recession-cone LP
   min c@z s.t. Az = 0, sum(z) = 1, z >= 0 (a bounded problem), which is
   negative exactly when an improving ray exists.

Only intended for small instances (<= ~10 variables).

``full_master`` is the reference for the cut master: the epigraph LP over
every cut, solved by HiGHS."""

from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from hmpc.lp import LPStatus


def _independent_rows(A, b, tol=1e-9):
    """Greedy row selection by rank; returns (A_red, b_red, consistent)."""
    m = A.shape[0]
    keep = []
    for i in range(m):
        trial = keep + [i]
        if np.linalg.matrix_rank(A[trial], tol=tol) == len(trial):
            keep.append(i)
    A_red = A[keep]
    b_red = b[keep]
    # Consistency: rank([A|b]) must equal rank(A).
    aug = np.hstack([A, b[:, None]])
    consistent = np.linalg.matrix_rank(aug, tol=tol) == len(keep)
    return A_red, b_red, consistent


def _best_bfs(A, b, c, tol=1e-9):
    """Minimum objective over all basic feasible solutions, or None."""
    m, n = A.shape
    if m == 0:
        return 0.0 if (c >= -tol).all() else None, np.zeros(n)
    best = None
    best_x = None
    for cols in combinations(range(n), m):
        B = A[:, cols]
        if abs(np.linalg.det(B)) < 1e-10:
            continue
        xb = np.linalg.solve(B, b)
        if (xb < -1e-8).any():
            continue
        x = np.zeros(n)
        x[list(cols)] = xb
        val = float(c @ x)
        if best is None or val < best - 0.0:
            best = val
            best_x = x
    return best, best_x


def solve_by_enumeration(cost, eq_matrix, eq_rhs):
    """Returns (status, objective_or_None)."""
    c = np.asarray(cost, dtype=float)
    A = np.asarray(eq_matrix, dtype=float)
    b = np.asarray(eq_rhs, dtype=float)
    A_red, b_red, consistent = _independent_rows(A, b)
    if not consistent:
        return LPStatus.INFEASIBLE, None
    best, _ = _best_bfs(A_red, b_red, c)
    if best is None:
        if A_red.shape[0] == 0:
            # No effective constraints and some negative cost: unbounded.
            return LPStatus.UNBOUNDED, None
        return LPStatus.INFEASIBLE, None
    # Improving-ray check on the normalized recession cone.
    n = c.size
    A_ray = np.vstack([A_red, np.ones((1, n))])
    b_ray = np.concatenate([np.zeros(A_red.shape[0]), [1.0]])
    A_ray_red, b_ray_red, ray_consistent = _independent_rows(A_ray, b_ray)
    if ray_consistent:
        ray_best, _ = _best_bfs(A_ray_red, b_ray_red, c)
        if ray_best is not None and ray_best < -1e-8:
            return LPStatus.UNBOUNDED, None
    return LPStatus.OPTIMAL, best


def full_master(cuts, design_cost, box):
    """min theta over the box s.t. theta >= alpha_j + (c_w + beta_j)'w for
    every cut, by HiGHS; returns (w, theta)."""
    n = design_cost.size
    alpha = np.array([c.alpha for c in cuts])
    slopes = design_cost + np.array([c.beta for c in cuts])
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    res = linprog(
        cost,
        A_ub=np.hstack([slopes, -np.ones((len(cuts), 1))]),
        b_ub=-alpha,
        bounds=[tuple(row) for row in box] + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x[:n], float(res.fun)
