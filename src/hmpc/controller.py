"""The hierarchical period loop.

Each period m runs with targets w_m fixed: an intra-period MPC plans the
hours against a forecast, the realized data d_m is observed at the
boundary, and the retroactive layer then

1. solves the stage problem at (w_m, d_m) for a dual vertex, checks
   it, and counts d_m's class in the store's class table,
2. rescales the standing cuts by (m-1)/m and adds one cut built from
   every class of the table at w_m,
3. prices the targets: running cost phi_m(w_m) by one stage solve per
   class (memoized by targets), lower bound from the cut envelope,
4. minimizes the envelope over the target box, which yields w_{m+1};
   the master LP starts from the cuts binding at the last optimum plus
   the new cut and adds only the cuts its candidate violates.

The gap records carry both the current gap eps_m (running cost vs its
own lower bound) and, when the true distribution is available, the
overall gap epsbar_m against the exact expected cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hmpc.cuts import (
    Cut,
    VertexStore,
    dual_excess,
    generate_cut,
    lower_bound_at,
    rescale_cuts,
    solve_master,
)
from hmpc.oracle import reference_cost
from hmpc.scenarios import (
    ForecastModel,
    PeriodRealization,
    ScenarioPool,
    sample_period,
    stream,
)
from hmpc.stage import StageSolveCache, StageTemplate


# Round-off allowed in the period's own stage dual, relative to the size of
# the terms summed: max|pi| for W(d)'pi, |pi|'|r - Tw| for the dual value.
# On the arbitrage test fixture (elastic penalty 2e7) duals of 2e7 leave
# W(d)'pi 2.7e-9 past c(d) + _FEAS_TOL (1 + |c|) and pi'(r - Tw) 2.4e-6
# from a stage cost of 90; both are about 1e-16 of those sizes.
_ROUND_TOL = 1e-12


class BrokenInvariant(ValueError):
    """A run-time check of the period loop failed: a negative stage cost
    (cut rescaling needs h >= 0), a stage dual that is not dual feasible
    or misses the stage cost, or a lower bound above the running cost."""


@dataclass
class GapRecord:
    """Per-period audit row.

    ``running_cost`` (and the gaps) are None on periods where the
    quadratic-cost audit was skipped; ``lower_bound`` is the envelope at
    this period's targets, ``master_bound`` its minimum over the box
    (the value underneath next period's targets).
    """

    period: int
    targets: np.ndarray
    stage_cost: float
    lower_bound: float
    master_bound: float
    targets_next: np.ndarray
    running_cost: float | None = None
    current_gap_eps: float | None = None
    overall_gap_epsbar: float | None = None
    slack_activation: float = 0.0


@dataclass
class HierarchyState:
    """Everything the retroactive layer carries across periods.

    Template, design cost and box are checked once, here; ``targets_w``
    defaults to mid-box.  The rest starts empty and only ``step_period``
    grows it; the next period is ``len(history) + 1``.  ``store`` is the
    class table (classes, counts, vertices and their certificates) that
    the cuts and the running cost read; ``history`` keeps every day in
    order for the oracles.  The cuts are
    ``cut_alpha`` (m,) and ``cut_beta`` (m, n_w) at the current scale,
    row j-1 holding the cut born in period j.  Both are read-only and
    every update assigns new arrays, so a row handed out earlier never
    changes under its reader.  ``working_set`` indexes the cuts binding
    at the last master optimum.
    """

    template: StageTemplate
    design_cost: np.ndarray
    target_box: np.ndarray
    targets_w: np.ndarray | None = None
    store: VertexStore = field(init=False)
    cache: StageSolveCache = field(init=False)
    cut_alpha: np.ndarray = field(init=False)
    cut_beta: np.ndarray = field(init=False)
    working_set: np.ndarray = field(init=False, default_factory=lambda: np.zeros(0, dtype=int))
    history: list = field(init=False, default_factory=list)
    realized_cost_accum: float = field(init=False, default=0.0)

    def __post_init__(self):
        n_w = self.template.n_w
        self.design_cost = np.asarray(self.design_cost, dtype=float)
        box = self.target_box = np.asarray(self.target_box, dtype=float)
        if box.shape != (n_w, 2):
            raise ValueError(f"target_box must be (n_w, 2) = ({n_w}, 2), got {box.shape}")
        if (box[:, 0] > box[:, 1]).any():
            raise ValueError("target_box has lo > hi")
        if self.design_cost.size != n_w:
            raise ValueError(f"design_cost has {self.design_cost.size} entries, n_w is {n_w}")
        w = box.mean(axis=1) if self.targets_w is None else np.asarray(self.targets_w, dtype=float)
        if (w < box[:, 0] - 1e-12).any() or (w > box[:, 1] + 1e-12).any():
            raise ValueError("initial targets outside the target box")
        self.targets_w = w
        self.store = VertexStore(n_rows=self.template.n_rows)
        self.cache = StageSolveCache(self.template)
        self._set_cuts(np.zeros(0), np.zeros((0, n_w)))

    def _set_cuts(self, alpha: np.ndarray, beta: np.ndarray) -> None:
        alpha.setflags(write=False)
        beta.setflags(write=False)
        self.cut_alpha, self.cut_beta = alpha, beta

    @property
    def cuts(self) -> list:
        """Every cut as a ``Cut``, oldest first, at the current scale."""
        return [
            Cut(alpha=a, beta=b, birth_period=j)
            for j, (a, b) in enumerate(zip(self.cut_alpha.tolist(), self.cut_beta), start=1)
        ]


def initial_state(
    template: StageTemplate,
    design_cost: np.ndarray,
    target_box: np.ndarray,
    w1: np.ndarray | None = None,
) -> HierarchyState:
    """Fresh state; default first targets sit mid-box."""
    return HierarchyState(template, design_cost, target_box, targets_w=w1)


def running_cost(state: HierarchyState, w: np.ndarray) -> float:
    """phi_m(w) over the counted periods, one solve per class."""
    store = state.store
    m = sum(store.counts)
    if m == 0:
        raise ValueError("no completed periods yet")
    total = 0.0
    for d, count in zip(store.days, store.counts):
        total += count * state.cache.solve(w, d).cost_h
    return float(state.design_cost @ w) + total / m


def _certify_stage(template: StageTemplate, m: int, w: np.ndarray, d, res) -> None:
    """The period's stage solve may donate its vertex: h >= 0, W(d)'pi <=
    c(d) as ``dual_excess`` checks it, and pi'(r(d) - Tw) = h to 1e-9
    (1 + |h|); the last two also allow round-off of _ROUND_TOL."""
    h, pi = res.cost_h, res.dual_vertex
    if h < -1e-7 * (1 + abs(h)):
        raise BrokenInvariant(
            f"period {m}: stage cost {h:.6g} is negative, so the cuts would "
            "not bound the running cost; raise cost_offset in the battery parameters"
        )
    size = np.abs(pi)
    excess = float(dual_excess(pi[None], template, d)[0])
    if not excess <= _ROUND_TOL * size.max():
        raise BrokenInvariant(
            f"period {m}: the stage dual is not dual feasible, "
            f"W(d)'pi exceeds c(d) by {excess:.3g} past the tolerance"
        )
    b = template.rhs_builder(d) - template.coupling_T @ w
    gap = abs(float(pi @ b) - h)
    if not gap <= 1e-9 * (1 + abs(h)) + _ROUND_TOL * float(size @ np.abs(b)):
        raise BrokenInvariant(
            f"period {m}: the stage dual prices the stage at {gap:.3g} from its cost {h:.6g}"
        )


def step_period(
    state: HierarchyState,
    realized: PeriodRealization,
    audit: bool = True,
    pool: ScenarioPool | None = None,
) -> tuple[HierarchyState, GapRecord]:
    """Fold one observed period into the state; returns the audit row.

    ``audit=False`` skips the O(m) running-cost evaluation (the cut and
    target updates always happen).  Passing the generating pool adds the
    exact overall gap to audited rows.  A failed check (``_certify_stage``
    before the vertex is stored; on audited periods, a lower bound above
    the running cost by more than 1e-7 (1 + |phi|)) raises
    BrokenInvariant, and any exception leaves the state as it was.
    """
    m = len(state.history) + 1
    w_m = state.targets_w
    res = state.cache.solve(w_m, realized)
    _certify_stage(state.template, m, w_m, realized, res)
    n_vertices = len(state.store)
    state.store.insert(res.dual_vertex, realized)
    try:
        alpha, beta = rescale_cuts(state.cut_alpha, state.cut_beta, m)
        cut = generate_cut(state.store, w_m, state.template)
        alpha, beta = np.append(alpha, cut.alpha), np.vstack([beta, cut.beta])
        slopes = state.design_cost + beta
        lb = lower_bound_at(alpha, slopes, w_m)
        w_next, master_bound, working = solve_master(
            alpha, slopes, state.target_box, working=np.append(state.working_set, m - 1)
        )
        record = GapRecord(
            period=m,
            targets=w_m.copy(),
            stage_cost=res.cost_h,
            lower_bound=lb,
            master_bound=master_bound,
            targets_next=w_next.copy(),
            slack_activation=res.slack_activation,
        )
        if audit:
            phi = running_cost(state, w_m)
            if lb > phi + 1e-7 * (1 + abs(phi)):
                raise BrokenInvariant(
                    f"period {m}: lower bound {lb:.10g} is above the running cost "
                    f"{phi:.10g} by {lb - phi:.3g}"
                )
            record.running_cost = phi
            record.current_gap_eps = (phi - lb) / phi if phi != 0 else 0.0
            if pool is not None:
                ref = reference_cost(
                    state.template, pool, state.design_cost, w_m, cache=state.cache
                )
                record.overall_gap_epsbar = (ref - lb) / ref if ref != 0 else 0.0
    except BaseException:
        state.store.uncount(realized, n_vertices)
        raise

    state._set_cuts(alpha, beta)
    state.working_set = working
    state.history.append(realized)
    state.realized_cost_accum += res.cost_h + float(state.design_cost @ w_m)
    state.targets_w = w_next
    return state, record


def default_audit_stride(m: int, full_until: int = 100, stride: int = 5) -> bool:
    """Audit every period early on, then every ``stride``-th period."""
    return m <= full_until or m % stride == 0


@dataclass
class SimulationResult:
    records: list
    state: HierarchyState
    planned: list  # (period, targets, StageResult) for the lead-in periods


def run_simulation(
    template: StageTemplate,
    design_cost: np.ndarray,
    target_box: np.ndarray,
    pool: ScenarioPool,
    periods: int,
    seed: int = 0,
    forecast_sigma: float = 0.0,
    w1: np.ndarray | None = None,
    audit_full_until: int = 100,
    audit_stride: int = 5,
    keep_planned: int = 7,
    track_overall_gap: bool = True,
) -> SimulationResult:
    """Closed-loop run: sample, forecast, plan, observe, update."""
    if periods < 1:
        raise ValueError("periods must be at least 1")
    if audit_stride < 1:
        raise ValueError("audit_stride must be at least 1")
    state = initial_state(template, design_cost, target_box, w1=w1)
    data_rng = stream(seed)
    model = ForecastModel(noise_sigma=forecast_sigma, seed=seed + 1)
    records, planned = [], []
    for m in range(1, periods + 1):
        truth = sample_period(pool, data_rng)
        if m <= keep_planned:
            mpc = state.cache.solve(state.targets_w, model.make_forecast(truth))
            planned.append((m, state.targets_w.copy(), mpc))
        audit = default_audit_stride(m, audit_full_until, audit_stride)
        _, record = step_period(
            state, truth, audit=audit, pool=pool if track_overall_gap else None
        )
        records.append(record)
    return SimulationResult(records=records, state=state, planned=planned)
