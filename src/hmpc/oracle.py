"""Monolithic ground-truth solves for certifying the incremental scheme.

Everything here prices targets by brute force instead of cuts:

* ``solve_saa``        min over w of c_w'w + (1/m) sum h(w, d_xi), one LP.
* ``solve_nonperiodic`` same horizon without the periodicity coupling:
  the state chains across periods (continuity), the boundary targets
  disappear, and only the peak target survives as a shared column.
* ``reference_cost``   exact finite-support expectation c_w'w + E[h(w, D)].

The extensive forms reuse the stage template's canonical blocks, so
values are directly comparable with stage solves and cut bounds (all in
canonical variables; see StageTemplate.objective_shift for money).

Identical realizations collapse into one block with a multiplicity
weight: h enters the average once per occurrence but needs solving only
once per distinct class.  The block cap therefore limits distinct
realizations for the periodic form; the non-periodic form chains
per-period blocks in sequence and caps the raw horizon.
"""

from __future__ import annotations

import numpy as np

from hmpc.lp import GeneralLP, LPStatus, solve_general
from hmpc.scenarios import ScenarioPool, collapse
from hmpc.stage import StageSolveCache, StageTemplate, Targets, solve_stage

DEFAULT_CAP = 40


class OracleCapExceeded(Exception):
    """The requested extensive form is larger than the configured cap."""


def _weighted_saa(
    template: StageTemplate,
    reps: list,
    weights: np.ndarray,
    box: np.ndarray,
    design_cost: np.ndarray,
    cap: int,
) -> tuple[np.ndarray, float]:
    if len(reps) > cap:
        raise OracleCapExceeded(f"{len(reps)} blocks exceed the cap of {cap}")
    n_w = template.n_w
    rows_b, cols_b = template.n_rows, template.n_cols
    n_rows = len(reps) * rows_b
    n_cols = n_w + len(reps) * cols_b
    A = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)
    cost = np.zeros(n_cols)
    cost[:n_w] = design_cost
    for b, (d, wt) in enumerate(zip(reps, weights)):
        r0, c0 = b * rows_b, n_w + b * cols_b
        A[r0:r0 + rows_b, :n_w] = template.coupling_T
        A[r0:r0 + rows_b, c0:c0 + cols_b] = template.matrix_builder(d)
        rhs[r0:r0 + rows_b] = template.rhs_builder(d)
        cost[c0:c0 + cols_b] = wt * template.cost_builder(d)
    lower = np.concatenate([box[:, 0], np.zeros(n_cols - n_w)])
    upper = np.concatenate([box[:, 1], np.full(n_cols - n_w, np.inf)])
    sol, vmap = solve_general(
        GeneralLP(
            cost=cost,
            ub_matrix=np.zeros((0, n_cols)),
            ub_rhs=np.zeros(0),
            eq_matrix=A,
            eq_rhs=rhs,
            lower=lower,
            upper=upper,
        )
    )
    if sol.status is not LPStatus.OPTIMAL:
        raise RuntimeError(f"extensive form came back {sol.status.name}")
    point = vmap.original_primal(sol.primal)
    return point[:n_w].copy(), vmap.original_objective(sol.objective)


def solve_saa(
    template: StageTemplate,
    history: list,
    box: np.ndarray,
    design_cost: np.ndarray,
    cap: int = DEFAULT_CAP,
) -> tuple[np.ndarray, float]:
    """Exact minimizer and value of the running sample average phi_m."""
    if not history:
        raise ValueError("history is empty")
    reps, counts = collapse(history)
    weights = np.array(counts, dtype=float) / len(history)
    return _weighted_saa(template, reps, weights, np.asarray(box, float), design_cost, cap)


def solve_pool_saa(
    template: StageTemplate,
    pool: ScenarioPool,
    box: np.ndarray,
    design_cost: np.ndarray,
    cap: int = DEFAULT_CAP,
) -> tuple[np.ndarray, float]:
    """The true stochastic-program optimum over a finite-support pool."""
    return _weighted_saa(
        template, list(pool.support), pool.weights.copy(), np.asarray(box, float), design_cost, cap
    )


def solve_nonperiodic(
    template: StageTemplate,
    history: list,
    design_cost: np.ndarray,
    cap: int = DEFAULT_CAP,
    initial_state=None,
) -> tuple[float, float]:
    """Long-horizon relaxation: continuity instead of periodicity.

    Returns (per-period cost, peak target).  The per-period convention
    charges the peak price every period and averages stage costs, so the
    value is directly comparable with ``solve_saa`` on the same history;
    any periodic solution is feasible here, which forces
    nonperiodic <= periodic.

    ``initial_state`` pins the opening state (original units); None
    leaves it free inside its variable bounds, and the closing state is
    always free.
    """
    m = len(history)
    if m == 0:
        raise ValueError("history is empty")
    if m > cap:
        raise OracleCapExceeded(f"{m} periods exceed the cap of {cap}")
    boundary = np.asarray(template.row_tags["boundary"], dtype=int)
    sf = int(template.col_tags["state_first"][0])
    sl = int(template.col_tags["state_last"][0])
    keep = np.ones(template.n_rows, dtype=bool)
    keep[boundary] = False
    if np.abs(template.coupling_T[keep, :-1]).max(initial=0.0) > 0:
        raise ValueError("state targets leak outside the boundary rows")
    rows_b = int(keep.sum())
    cols_b = template.n_cols
    lb = template.var_map.lower

    extra = (m - 1) + (1 if initial_state is not None else 0)
    n_rows = m * rows_b + extra
    n_cols = 1 + m * cols_b  # shared peak column first
    A = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)
    cost = np.zeros(n_cols)
    cost[0] = design_cost[-1]
    t_peak = template.coupling_T[keep, -1]
    for b, d in enumerate(history):
        r0, c0 = b * rows_b, 1 + b * cols_b
        A[r0:r0 + rows_b, 0] = t_peak
        A[r0:r0 + rows_b, c0:c0 + cols_b] = template.matrix_builder(d)[keep]
        rhs[r0:r0 + rows_b] = template.rhs_builder(d)[keep]
        cost[c0:c0 + cols_b] = template.cost_builder(d) / m
    row = m * rows_b
    for b in range(m - 1):
        A[row, 1 + b * cols_b + sl] = 1.0
        A[row, 1 + (b + 1) * cols_b + sf] = -1.0
        rhs[row] = lb[sf] - lb[sl]
        row += 1
    if initial_state is not None:
        A[row, 1 + sf] = 1.0
        rhs[row] = float(initial_state) - lb[sf]

    lower = np.concatenate([[0.0], np.zeros(m * cols_b)])
    upper = np.full(n_cols, np.inf)
    sol, vmap = solve_general(
        GeneralLP(
            cost=cost,
            ub_matrix=np.zeros((0, n_cols)),
            ub_rhs=np.zeros(0),
            eq_matrix=A,
            eq_rhs=rhs,
            lower=lower,
            upper=upper,
        )
    )
    if sol.status is not LPStatus.OPTIMAL:
        raise RuntimeError(f"non-periodic form came back {sol.status.name}")
    point = vmap.original_primal(sol.primal)
    return vmap.original_objective(sol.objective), float(point[0])


def reference_cost(
    template: StageTemplate,
    pool: ScenarioPool,
    design_cost: np.ndarray,
    w: Targets | np.ndarray,
    cache: StageSolveCache | None = None,
) -> float:
    """Exact expected period cost phi(w) = c_w'w + E[h(w, D)].

    Finite support makes the expectation a weighted sum of K stage
    solves; pass a StageSolveCache to amortize repeated targets.
    """
    w_vec = np.asarray(w, dtype=float)
    total = float(np.asarray(design_cost) @ w_vec)
    for d, wt in zip(pool.support, pool.weights):
        res = cache.solve(w_vec, d) if cache is not None else solve_stage(template, w_vec, d)
        total += float(wt) * res.cost_h
    return total
