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
every cut, solved by HiGHS.  ``chained_rescale`` is the reference for the
cut arrays: one cut object per stored cut, each rescaled on its own every
period.  ``scenario_value_bound`` reads the best stored underestimate of
one stage cost, and ``scratch_cut`` is the reference for one generated
cut; both check the vertices' dual feasibility from scratch
(``fresh_mask``) instead of reading the store's verdicts."""

from itertools import combinations

import numpy as np
from scipy.optimize import linprog

from hmpc.cuts import Cut
from hmpc.lp import LPStatus
from hmpc.scenarios import collapse


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


def full_master(alpha, slopes, box):
    """min theta over the box s.t. theta >= alpha_j + slopes_j'w for every
    cut (slopes c_w + beta), by HiGHS; returns (w, theta)."""
    n = slopes.shape[1]
    cost = np.zeros(n + 1)
    cost[n] = 1.0
    res = linprog(
        cost,
        A_ub=np.hstack([slopes, -np.ones((len(alpha), 1))]),
        b_ub=-alpha,
        bounds=[tuple(row) for row in box] + [(None, None)],
        method="highs",
    )
    assert res.status == 0, res.message
    return res.x[:n], float(res.fun)


def chained_rescale(births):
    """The cuts after the last period, from the cuts as each period
    generated them: every period m rebuilds each standing cut scaled by
    (m-1)/m, then appends its own.  Returns a list of ``Cut``."""
    cuts = []
    for m, cut in enumerate(births, start=1):
        factor = (m - 1) / m
        cuts = [
            Cut(alpha=c.alpha * factor, beta=c.beta * factor, birth_period=c.birth_period)
            for c in cuts
        ]
        cuts.append(cut)
    return cuts


def fresh_mask(V, template, d):
    """Rows pi of V with W(d)'pi <= c(d) + 1e-9 (1 + |c(d)|) + 1e-12 max|pi|
    in every column: the stage solve's tolerance, round-off included."""
    c = template.cost_builder(d)
    bound = c + 1e-9 * (1.0 + np.abs(c)) + 1e-12 * np.abs(V).max(axis=1)[:, None]
    return (V @ template.matrix_builder(d) <= bound).all(axis=1)


def scenario_value_bound(store, template, d, w):
    """Best stored underestimate of h(w, d); -inf with no certificate."""
    w_vec = np.asarray(w, dtype=float)
    if len(store) == 0:
        return -np.inf
    mask = fresh_mask(store._V, template, d)
    if not mask.any():
        return -np.inf
    r = template.rhs_builder(d)
    vals = store._V @ (r - template.coupling_T @ w_vec)
    return float(np.max(vals[mask]))


def scratch_cut(V, template, history, w):
    """The cut at targets w from vertices V over ``history``: its classes
    and counts from ``collapse``, each class priced by its best vertex
    under ``fresh_mask`` (ties to the lowest index), weighted count / m and
    summed in class order.  Returns (alpha, beta)."""
    T = template.coupling_T
    m = len(history)
    alpha, beta = 0.0, np.zeros(template.n_w)
    for d, count in zip(*collapse(history)):
        r = template.rhs_builder(d)
        vals = np.where(fresh_mask(V, template, d), V @ (r - T @ w), -np.inf)
        pi = V[int(np.argmax(vals))]
        alpha += count / m * float(pi @ r)
        beta -= count / m * (T.T @ pi)
    return alpha, beta
