"""Retroactive hierarchical MPC for periodic systems.

A long-horizon periodic operation problem is split into a per-period
stage LP and a small design problem over period-coupling targets (initial
state and a peak bound).  After each completed period the realized data is
folded into an incremental cutting-plane model of the expected period
cost, and the refreshed targets steer the next period's MPC.

Modules:

- ``lp``          dense revised-simplex solver and canonicalization
- ``stage``       stage-problem templates and stage solves
- ``battery``     battery / frequency-regulation market stage model
- ``scenarios``   scenario pools, CSV ingest, forecast noise
- ``cuts``        class table and dual-vertex store, cut generation/rescaling, master LP
- ``controller``  period loop: MPC, retroactive updates, gap metrics
- ``oracle``      extensive-form benchmarks (periodic and non-periodic)
- ``cli``         command-line entry points
"""

from hmpc.lp import (
    GeneralLP,
    LPSolution,
    LPStatus,
    StandardLP,
    canonicalize,
    solve_lp,
)
from hmpc.battery import BatteryParams, BatteryTrajectory, build_template, decode_trajectory
from hmpc.controller import (
    GapRecord,
    HierarchyState,
    SimulationResult,
    initial_state,
    run_simulation,
    running_cost,
    step_period,
)
from hmpc.cuts import Cut, VertexStore, generate_cut, rescale_cuts, solve_master
from hmpc.oracle import (
    reference_cost,
    solve_nonperiodic,
    solve_pool_saa,
    solve_saa,
)
from hmpc.scenarios import ForecastModel, PeriodRealization, ScenarioPool, sample_period
from hmpc.stage import StageResult, StageTemplate, build_stage, solve_stage

__all__ = [
    "GeneralLP",
    "LPSolution",
    "LPStatus",
    "StandardLP",
    "canonicalize",
    "solve_lp",
    "StageResult",
    "StageTemplate",
    "build_stage",
    "solve_stage",
    "BatteryParams",
    "BatteryTrajectory",
    "build_template",
    "decode_trajectory",
    "ForecastModel",
    "PeriodRealization",
    "ScenarioPool",
    "sample_period",
    "Cut",
    "VertexStore",
    "generate_cut",
    "rescale_cuts",
    "solve_master",
    "GapRecord",
    "HierarchyState",
    "SimulationResult",
    "initial_state",
    "run_simulation",
    "running_cost",
    "step_period",
    "reference_cost",
    "solve_nonperiodic",
    "solve_pool_saa",
    "solve_saa",
]

__version__ = "0.1.0"
