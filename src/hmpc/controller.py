"""The hierarchical period loop.

Each period m runs with targets w_m fixed: an intra-period MPC plans the
hours against a forecast, the realized data d_m is observed at the
boundary, and the retroactive layer then

1. solves the stage problem at (w_m, d_m) for a dual vertex,
2. rescales the standing cuts by (m-1)/m and adds one cut built from
   the full history at w_m,
3. prices the targets: running cost phi_m(w_m) by re-solving all m
   stage problems (memoized per distinct realization), lower bound
   from the cut envelope,
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
    collapse,
    sample_period,
    stream,
)
from hmpc.stage import StageSolveCache, StageTemplate


class NegativeStageCost(ValueError):
    """A stage cost fell below zero, where cut rescaling is no longer valid."""


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
    grows it; the next period is ``len(history) + 1``.  The cuts are
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
    """phi_m(w) over the observed history, one solve per distinct class."""
    m = len(state.history)
    if m == 0:
        raise ValueError("no completed periods yet")
    total = 0.0
    for d, count in zip(*collapse(state.history)):
        total += count * state.cache.solve(w, d).cost_h
    return float(state.design_cost @ w) + total / m


def step_period(
    state: HierarchyState,
    realized: PeriodRealization,
    audit: bool = True,
    pool: ScenarioPool | None = None,
) -> tuple[HierarchyState, GapRecord]:
    """Fold one observed period into the state; returns the audit row.

    ``audit=False`` skips the O(m) running-cost evaluation (the cut and
    target updates always happen).  Passing the generating pool adds the
    exact overall gap to audited rows.  A negative stage cost raises
    NegativeStageCost before the state changes.
    """
    m = len(state.history) + 1
    w_m = state.targets_w
    res = state.cache.solve(w_m, realized)
    if res.cost_h < -1e-7 * (1 + abs(res.cost_h)):
        raise NegativeStageCost(
            f"period {m}: stage cost {res.cost_h:.6g} is negative, so the cuts would "
            "not bound the running cost; raise cost_offset in the battery parameters"
        )
    state.store.insert(res.dual_vertex, realized.key)
    state.history.append(realized)

    alpha, beta = rescale_cuts(state.cut_alpha, state.cut_beta, m)
    cut = generate_cut(state.store, state.history, w_m, state.template)
    state._set_cuts(np.append(alpha, cut.alpha), np.vstack([beta, cut.beta]))

    slopes = state.design_cost + state.cut_beta
    lb = lower_bound_at(state.cut_alpha, slopes, w_m)
    w_next, master_bound, state.working_set = solve_master(
        state.cut_alpha,
        slopes,
        state.target_box,
        working=np.append(state.working_set, m - 1),
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
        record.running_cost = phi
        record.current_gap_eps = (phi - lb) / phi if phi != 0 else 0.0
        if pool is not None:
            ref = reference_cost(
                state.template, pool, state.design_cost, w_m, cache=state.cache
            )
            record.overall_gap_epsbar = (ref - lb) / ref if ref != 0 else 0.0

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
