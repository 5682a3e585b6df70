"""Period stage problems.

A stage problem prices one period of operation against fixed coupling
targets w = (x0, eta): the boundary state the period must start and end
at, and the peak bound the period is charged against.  w is a plain
vector, state components first and eta last.  In canonical form

    h(w, d) = min { c(d) @ y : W(d) @ y = r(d) - T @ w, y >= 0 }

where d is the period's data realization.  The coupling matrix T is fixed;
prices enter the cost vector, loads enter the rhs.  The recourse matrix W
is fixed too unless the realization's regulation-request fractions vary,
in which case only the rows containing those fractions change.

``solve_stage`` returns the optimal cost together with the dual vector of
the canonical rows, which is a vertex of the dual feasible set
{pi : W(d).T pi <= c(d)} and the raw material for retroactive cuts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from hmpc.lp import LPStatus, StandardLP, VarMap, solve_lp


class StageInfeasible(Exception):
    """A stage solve found no feasible operation for (w, d)."""


class StageUnbounded(Exception):
    """A stage solve was unbounded; the model is missing a bound."""


@dataclass(frozen=True)
class StageTemplate:
    """Immutable recipe for building one period's canonical LP.

    ``cost_builder`` / ``rhs_builder`` / ``matrix_builder`` map a
    realization to c(d), r(d), W(d).  ``coupling_T`` has one row per
    canonical row and one column per target component, so it fixes
    ``n_rows`` and ``n_w``.  ``row_tags`` holds named canonical row index
    arrays (boundary rows, peak rows, ...) and ``col_tags`` named
    canonical column index arrays, both in model terms.
    """

    n_cols: int
    coupling_T: np.ndarray
    cost_builder: Callable
    rhs_builder: Callable
    matrix_builder: Callable
    var_map: VarMap
    row_tags: dict
    col_tags: dict

    @property
    def n_rows(self) -> int:
        return self.coupling_T.shape[0]

    @property
    def n_w(self) -> int:
        return self.coupling_T.shape[1]

    def objective_shift(self, d) -> float:
        """Constant separating canonical and original-variable objectives.

        The canonical LP works in shifted variables y = x - lb, so its
        value understates the original objective by cost(d) @ lb.  All
        algorithm math lives in canonical terms; add this shift only
        when reporting money.
        """
        return float(self.cost_builder(d)[: self.var_map.n_orig] @ self.var_map.lower)


@dataclass
class StageResult:
    """Outcome of one stage solve."""

    cost_h: float
    dual_vertex: np.ndarray
    trajectories: np.ndarray
    slack_activation: float
    iterations: int = 0


def build_stage(template: StageTemplate, w: np.ndarray, d) -> StandardLP:
    """Assemble the canonical stage LP for targets w and realization d."""
    w_vec = np.asarray(w, dtype=float)
    if w_vec.size != template.n_w:
        raise ValueError(f"expected {template.n_w} target components, got {w_vec.size}")
    rhs = template.rhs_builder(d) - template.coupling_T @ w_vec
    return StandardLP(
        cost=template.cost_builder(d),
        eq_matrix=template.matrix_builder(d),
        eq_rhs=rhs,
    )


def solve_stage(template: StageTemplate, w: np.ndarray, d) -> StageResult:
    """Solve the stage LP; returns cost, dual vertex and trajectories.

    Raises StageInfeasible / StageUnbounded instead of returning a status,
    since a healthy template (elastic peak rows, boxed state) always
    admits a bounded optimum.
    """
    lp = build_stage(template, w, d)
    sol = solve_lp(lp)
    if sol.status is LPStatus.INFEASIBLE:
        raise StageInfeasible(
            "stage problem infeasible at the given targets; "
            "enable the elastic peak slack or widen the target box"
        )
    if sol.status is LPStatus.UNBOUNDED:
        raise StageUnbounded("stage problem unbounded; check price signs and bounds")
    slack_cols = template.col_tags.get("peak_slack")
    slack = float(sol.primal[slack_cols].sum()) if slack_cols is not None else 0.0
    return StageResult(
        cost_h=float(sol.objective),
        dual_vertex=sol.dual,
        trajectories=template.var_map.original_primal(sol.primal),
        slack_activation=slack,
        iterations=sol.iterations,
    )


class StageSolveCache:
    """Memoizes solve_stage by (realization key, target bytes).

    Retroactive cost audits re-solve every past period at the current
    targets; histories drawn from a finite pool repeat realizations, so
    identical (w, d) solves are answered once.  Correct because
    solve_stage is deterministic and pure.
    """

    def __init__(self, template: StageTemplate):
        self.template = template
        self._hits = 0
        self._misses = 0
        self._store: dict = {}

    def solve(self, w: np.ndarray, d) -> StageResult:
        w_vec = np.asarray(w, dtype=float)
        key = (d.key, w_vec.tobytes())
        found = self._store.get(key)
        if found is not None:
            self._hits += 1
            return found
        res = solve_stage(self.template, w_vec, d)
        self._store[key] = res
        self._misses += 1
        return res

    @property
    def stats(self) -> tuple[int, int]:
        return self._hits, self._misses
