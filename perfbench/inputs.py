"""What each workload feeds the program: sizes, pools, battery and days.

Also the set-up probe of the API workloads, run as a fresh interpreter:

    python3 perfbench/inputs.py --workload repeat-days --seed 1 [--smoke]

It imports what the program needs and nothing the benchmark's checks need
(scipy.optimize alone adds about 0.16 s), builds the workload's inputs up
to the first period and prints the ready time on the system-wide
monotonic clock.
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import dataclass

import numpy as np

from hmpc import battery, controller, scenarios

# Criterion 10's battery; the period length follows the pool.
BATTERY = dict(
    capacity_Ebar=400.0, discharge_Pbar=150.0, charge_Punder=150.0, fr_reserve_rho=0.5,
    ramp_dPbar=200.0, demand_charge_piD=0.5, elastic_penalty_M=50.0,
)
# Criterion 10's pool seed, for both pools.  The seed of a run picks the
# days stepped, never the pools, so the oracle windows of worker.py are the same
# LPs in every run: a singular basis in hmpc.lp returns NaN on some windows
# of other pools (README.md, Known faults), which would fail only on some seeds.
POOL_SEED = 4242
# The demo data of README.md, and `hmpc oracle` at demo.conf's own seed, for
# the same reason; the seed of a run goes to `hmpc run`.
DEMO_DATA_SEED = 42
# distinct-days certifies on the pool's first WINDOW support days.  Two
# days take about 0.9 s; solve_saa alone takes 5 s over four.
WINDOW = 2


@dataclass(frozen=True)
class Size:
    n_steps: int
    n_scenarios: int
    periods: int  # per loop
    oracle_periods: int = 0  # demo-cli `hmpc oracle --periods`
    highs_samples: int = 0  # repeat-days: stage LPs re-solved by HiGHS per round
    round_s: float = 1.0  # nominal wall seconds of one round


SIZES = {
    "repeat-days": Size(24, 5, 40, highs_samples=8, round_s=20.0),
    "distinct-days": Size(24, 400, 60, round_s=6.5),
    "demo-cli": Size(6, 3, 150, oracle_periods=10, round_s=24.0),
}
SMOKE = {
    "repeat-days": Size(6, 5, 40, highs_samples=3),
    "distinct-days": Size(6, 40, 12),
    "demo-cli": Size(6, 3, 12, oracle_periods=3),
}


@dataclass(frozen=True)
class ApiSetup:
    pool: object
    template: object
    box: np.ndarray
    cw: np.ndarray


def api_setup(size: Size) -> ApiSetup:
    pool = scenarios.synthetic_pool(
        n_steps=size.n_steps, n_scenarios=size.n_scenarios, seed=POOL_SEED
    )
    params = battery.with_offset(
        battery.BatteryParams(period_length_n=size.n_steps, **BATTERY), pool
    )
    template = battery.build_template(params)
    box = battery.target_box(params, float(max(d.load.max() for d in pool.support)))
    return ApiSetup(pool, template, box, battery.design_cost(params))


def day_source(workload: str, ws: ApiSetup, size: Size, seed: int):
    """Days of round r: repeat-days draws them i.i.d.; distinct-days walks
    the support in order from a start drawn once per run."""
    rng = scenarios.stream(seed)
    if workload == "repeat-days":
        return lambda r: [scenarios.sample_period(ws.pool, rng) for _ in range(size.periods)]
    k = ws.pool.size
    start = int(rng.integers(k))
    return lambda r: [ws.pool.support[(start + r * size.periods + i) % k]
                      for i in range(size.periods)]


def api_setup_probe(workload: str, size: Size, seed: int) -> float:
    """Everything before the first period; returns the ready time."""
    ws = api_setup(size)
    controller.initial_state(ws.template, ws.cw, ws.box)
    day_source(workload, ws, size, seed)(0)
    return time.monotonic()


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("repeat-days", "distinct-days"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    size = (SMOKE if args.smoke else SIZES)[args.workload]
    print(json.dumps({"ready": api_setup_probe(args.workload, size, args.seed)}))


if __name__ == "__main__":
    main()
