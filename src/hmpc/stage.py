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
{pi : W(d).T pi <= c(d)} and the raw material for retroactive cuts,
certified on the LP it was read from (``dual_excess``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from hmpc.lp import LPStatus, StandardLP, VarMap, solve_lp


# Relative slack of the dual feasibility check W(d)'pi <= c(d).
_FEAS_TOL = 1e-9
# Round-off allowed in a dual vertex, relative to the terms summed: max|pi|
# for W(d)'pi, |pi|'|r - Tw| for pi'(r - Tw).  Duals of 2e7 on the arbitrage
# test fixture (elastic penalty 2e7) miss by about 1e-16 of those sizes.
_ROUND_TOL = 1e-12


class BrokenInvariant(ValueError):
    """A run-time check failed: a stage dual off its certificate, or a
    precondition of the period loop (see controller.step_period)."""


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
    iterations: int = 0
    basis: np.ndarray | None = None


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


def dual_excess(V: np.ndarray, W: np.ndarray, c: np.ndarray) -> np.ndarray:
    """For each row pi of V, the largest amount by which W'pi exceeds
    c + _FEAS_TOL (1 + |c|) + _ROUND_TOL max|pi|, column by column; pi is
    dual feasible for (W, c) where this is <= 0."""
    bound = c + _FEAS_TOL * (1.0 + np.abs(c))
    return (V @ W - bound).max(axis=1) - _ROUND_TOL * np.abs(V).max(axis=1)


def solve_stage(template: StageTemplate, w: np.ndarray, d, start=None) -> StageResult:
    """Solve the stage LP; returns cost, dual vertex, trajectories and the
    optimal basis.  ``start`` is handed to ``solve_lp``: an earlier optimal
    basis of the same class makes the solve a short run of dual pivots.

    Raises ValueError on an infeasible or unbounded stage instead of
    returning a status, since a healthy template (elastic peak rows, boxed
    state) always admits a bounded optimum.  Raises BrokenInvariant unless
    the dual pi passes ``dual_excess`` and |pi'(r - Tw) - h| <= 1e-9
    (1 + |h|) plus _ROUND_TOL |pi|'|r - Tw|.
    """
    lp = build_stage(template, w, d)
    sol = solve_lp(lp, start=start)
    if sol.status is LPStatus.INFEASIBLE:
        raise ValueError(
            "stage problem infeasible at the given targets; "
            "enable the elastic peak slack or widen the target box"
        )
    if sol.status is LPStatus.UNBOUNDED:
        raise ValueError("stage problem unbounded; check price signs and bounds")
    h, pi, b = float(sol.objective), sol.dual, lp.eq_rhs
    excess = float(dual_excess(pi[None], lp.eq_matrix, lp.cost)[0])
    if not excess <= 0:
        raise BrokenInvariant(
            "the stage dual is not dual feasible, "
            f"W(d)'pi exceeds c(d) by {excess:.3g} past the tolerance"
        )
    gap = abs(float(pi @ b) - h)
    if not gap <= 1e-9 * (1 + abs(h)) + _ROUND_TOL * float(np.abs(pi) @ np.abs(b)):
        raise BrokenInvariant(f"the stage dual prices the stage at {gap:.3g} from its cost {h:.6g}")
    return StageResult(
        cost_h=h,
        dual_vertex=pi,
        trajectories=template.var_map.original_primal(sol.primal),
        iterations=sol.iterations,
        basis=sol.basis,
    )


class StageSolveCache:
    """Memoizes solve_stage by (realization key, target bytes), and keeps
    each class's last optimal basis.

    Retroactive cost audits re-solve every past period at the current
    targets; histories drawn from a finite pool repeat realizations, so
    identical (w, d) solves are answered once.  ``solve(w, d)`` is cold,
    so a period's dual vertex, and with it the cut stream, does not depend
    on which solves came before.  ``solve(w, d, warm=True)`` is for callers
    that read only the cost (the running-cost audit and reference_cost):
    it reads any earlier answer, and otherwise starts from the class's
    last optimal basis.  Between two solves of a class only the rhs
    r(d) - Tw moves, so that basis is still dual feasible and a few dual
    pivots replace the two-phase solve.  A warm answer can be another
    optimal vertex than the cold one, with a cost that differs in its last
    bits, so each answer records whether a cold solve made it, and cold
    solves read only those.
    """

    def __init__(self, template: StageTemplate):
        self.template = template
        self._hits = 0
        self._misses = 0
        self._answers: dict = {}  # (d.key, w bytes) -> (StageResult, made cold)
        self._bases: dict = {}

    def solve(self, w: np.ndarray, d, warm: bool = False) -> StageResult:
        w_vec = np.asarray(w, dtype=float)
        key = (d.key, w_vec.tobytes())
        found, cold = self._answers.get(key, (None, False))
        if found is not None and (cold or warm):
            self._hits += 1
            return found
        start = self._bases.get(d.key) if warm else None
        res = solve_stage(self.template, w_vec, d, start=start)
        self._answers[key] = (res, start is None)
        if res.basis is not None:
            self._bases[d.key] = res.basis
        self._misses += 1
        return res

    @property
    def stats(self) -> tuple[int, int]:
        return self._hits, self._misses
