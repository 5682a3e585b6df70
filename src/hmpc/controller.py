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
4. minimizes the envelope over the target box, which yields w_{m+1}.

The gap records carry both the current gap eps_m (running cost vs its
own lower bound) and, when the true distribution is available, the
overall gap epsbar_m against the exact expected cost.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from hmpc.cuts import (
    MasterProblem,
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
    """Everything the retroactive layer carries across periods."""

    template: StageTemplate
    design_cost: np.ndarray
    target_box: np.ndarray
    targets_w: np.ndarray
    period_m: int = 1
    store: VertexStore = None
    cuts: list = field(default_factory=list)
    history: list = field(default_factory=list)
    realized_cost_accum: float = 0.0
    cache: StageSolveCache = None

    def __post_init__(self):
        self.design_cost = np.asarray(self.design_cost, dtype=float)
        self.target_box = np.asarray(self.target_box, dtype=float)
        self.targets_w = np.asarray(self.targets_w, dtype=float)
        if self.store is None:
            self.store = VertexStore(n_rows=self.template.n_rows)
        if self.cache is None:
            self.cache = StageSolveCache(self.template)

    @property
    def master(self) -> MasterProblem:
        return MasterProblem(
            cuts=self.cuts, design_cost=self.design_cost, target_box=self.target_box
        )


def initial_state(
    template: StageTemplate,
    design_cost: np.ndarray,
    target_box: np.ndarray,
    w1: np.ndarray | None = None,
) -> HierarchyState:
    """Fresh state; default first targets sit mid-box."""
    box = np.asarray(target_box, dtype=float)
    w = box.mean(axis=1) if w1 is None else np.asarray(w1, dtype=float)
    if (w < box[:, 0] - 1e-12).any() or (w > box[:, 1] + 1e-12).any():
        raise ValueError("initial targets outside the target box")
    return HierarchyState(
        template=template, design_cost=design_cost, target_box=box, targets_w=w
    )


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
    m = state.period_m
    w_m = state.targets_w
    res = state.cache.solve(w_m, realized)
    if res.cost_h < -1e-7 * (1 + abs(res.cost_h)):
        raise NegativeStageCost(
            f"period {m}: stage cost {res.cost_h:.6g} is negative, so the cuts would "
            "not bound the running cost; raise cost_offset in the battery parameters"
        )
    state.store.insert(res.dual_vertex, realized.key)
    state.history.append(realized)

    if state.cuts:
        state.cuts = rescale_cuts(state.cuts, m)
    state.cuts.append(generate_cut(state.store, state.history, w_m, state.template))

    master = state.master
    lb = lower_bound_at(master, w_m)
    w_next, master_bound = solve_master(master)

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
    state.period_m = m + 1
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
        elif forecast_sigma > 0:
            model.make_forecast(truth)  # keep the noise stream aligned
        audit = default_audit_stride(m, audit_full_until, audit_stride)
        _, record = step_period(
            state, truth, audit=audit, pool=pool if track_overall_gap else None
        )
        records.append(record)
    return SimulationResult(records=records, state=state, planned=planned)
