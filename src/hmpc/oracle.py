"""Monolithic ground-truth solves for certifying the incremental scheme.

Everything here prices targets by brute force instead of cuts:

* ``solve_saa``        min over w of c_w'w + (1/m) sum h(w, d_xi), one LP.
* ``solve_pool_saa``   the same over a pool's support, weighted by its
  probabilities: the true stochastic-program optimum.
* ``solve_nonperiodic`` same horizon without the periodicity coupling:
  the state chains across periods (continuity), the boundary targets
  disappear, and only the peak target survives as a shared column.
* ``reference_cost``   exact finite-support expectation c_w'w + E[h(w, D)].

The three extensive forms come from one block assembler,
``_solve_extensive``: shared target columns first, then one copy of the
stage template's canonical block per day, optionally chained by
state-link rows.  Values are therefore directly comparable with stage
solves and cut bounds (all in canonical variables; see
StageTemplate.objective_shift for money).

Identical realizations collapse into one block with a multiplicity
weight: h enters the average once per occurrence but needs solving only
once per distinct class.  The block cap therefore limits distinct
realizations for the periodic forms; the non-periodic form chains
per-period blocks in sequence and caps the raw horizon.
"""

from __future__ import annotations

import numpy as np

from hmpc.lp import GeneralLP, LPError, LPStatus, solve_general
from hmpc.scenarios import ScenarioPool, collapse
from hmpc.stage import StageSolveCache, StageTemplate, solve_stage

BLOCK_CAP = 40


def _solve_extensive(
    template: StageTemplate,
    days: list,
    costs,
    keep: np.ndarray,
    shared_T: np.ndarray,
    shared_cost: np.ndarray,
    shared_box: np.ndarray,
    link: tuple[int, int, float] | None = None,
) -> tuple[np.ndarray, float]:
    """Build, solve and map back one extensive form.

    Block b holds the template rows ``keep`` and every template column
    for ``days[b]``, priced at ``costs[b]``.  The shared columns come
    first: they enter each block through ``shared_T``, are priced at
    ``shared_cost`` and lie in ``shared_box``, one (lo, hi) row each.  With
    ``link = (last, first, rhs)`` one row per consecutive pair of blocks
    sets block b's column ``last`` minus block b+1's column ``first`` to
    ``rhs``.  Returns the shared columns' values and the optimum, both in
    original variables.
    """
    k = len(days)
    if k > BLOCK_CAP:
        raise ValueError(f"{k} blocks exceed the cap of {BLOCK_CAP}")
    n_s = shared_T.shape[1]
    rows_b, cols_b = int(keep.sum()), template.n_cols
    n_rows = k * rows_b + (k - 1 if link else 0)
    n_cols = n_s + k * cols_b
    A = np.zeros((n_rows, n_cols))
    rhs = np.zeros(n_rows)
    cost = np.zeros(n_cols)
    cost[:n_s] = shared_cost
    for b, (d, c) in enumerate(zip(days, costs)):
        r0, c0 = b * rows_b, n_s + b * cols_b
        A[r0:r0 + rows_b, :n_s] = shared_T
        A[r0:r0 + rows_b, c0:c0 + cols_b] = template.matrix_builder(d)[keep]
        rhs[r0:r0 + rows_b] = template.rhs_builder(d)[keep]
        cost[c0:c0 + cols_b] = c
    if link:
        last, first, link_rhs = link
        for b in range(k - 1):
            row = k * rows_b + b
            A[row, n_s + b * cols_b + last] = 1.0
            A[row, n_s + (b + 1) * cols_b + first] = -1.0
            rhs[row] = link_rhs
    sol, vmap = solve_general(
        GeneralLP(
            cost=cost,
            ub_matrix=np.zeros((0, n_cols)),
            ub_rhs=np.zeros(0),
            eq_matrix=A,
            eq_rhs=rhs,
            lower=np.concatenate([shared_box[:, 0], np.zeros(k * cols_b)]),
            upper=np.concatenate([shared_box[:, 1], np.full(k * cols_b, np.inf)]),
        )
    )
    if sol.status is not LPStatus.OPTIMAL:
        raise LPError(f"extensive form came back {sol.status.name}")
    point = vmap.original_primal(sol.primal)
    return point[:n_s].copy(), vmap.original_objective(sol.objective)


def _weighted_saa(template, days, weights, box, design_cost):
    keep = np.ones(template.n_rows, dtype=bool)
    costs = (wt * template.cost_builder(d) for d, wt in zip(days, weights))
    return _solve_extensive(
        template, days, costs, keep, template.coupling_T, design_cost,
        np.asarray(box, float),
    )


def solve_saa(
    template: StageTemplate,
    history: list,
    box: np.ndarray,
    design_cost: np.ndarray,
) -> tuple[np.ndarray, float]:
    """Exact minimizer and value of the running sample average phi_m."""
    if not history:
        raise ValueError("history is empty")
    reps, counts = collapse(history)
    weights = np.array(counts, dtype=float) / len(history)
    return _weighted_saa(template, reps, weights, box, design_cost)


def solve_pool_saa(
    template: StageTemplate,
    pool: ScenarioPool,
    box: np.ndarray,
    design_cost: np.ndarray,
) -> tuple[np.ndarray, float]:
    """The true stochastic-program optimum over a finite-support pool."""
    return _weighted_saa(template, list(pool.support), pool.weights, box, design_cost)


def solve_nonperiodic(
    template: StageTemplate,
    history: list,
    design_cost: np.ndarray,
) -> tuple[float, float]:
    """Long-horizon relaxation: continuity instead of periodicity.

    Returns (per-period cost, peak target).  The per-period convention
    charges the peak price every period and averages stage costs, so the
    value is directly comparable with ``solve_saa`` on the same history;
    any periodic solution is feasible here, which forces
    nonperiodic <= periodic.  The opening and closing states are free
    inside their variable bounds.
    """
    m = len(history)
    if m == 0:
        raise ValueError("history is empty")
    keep = np.ones(template.n_rows, dtype=bool)
    keep[template.row_tags["boundary"]] = False
    if np.abs(template.coupling_T[keep, :-1]).max(initial=0.0) > 0:
        raise ValueError("state targets leak outside the boundary rows")
    sf = int(template.col_tags["state_first"][0])
    sl = int(template.col_tags["state_last"][0])
    lb = template.var_map.lower
    peak, value = _solve_extensive(
        template, history, (template.cost_builder(d) / m for d in history), keep,
        template.coupling_T[keep, -1:], design_cost[-1:], np.array([[0.0, np.inf]]),
        link=(sl, sf, lb[sf] - lb[sl]),
    )
    return value, float(peak[0])


def reference_cost(
    template: StageTemplate,
    pool: ScenarioPool,
    design_cost: np.ndarray,
    w: np.ndarray,
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
