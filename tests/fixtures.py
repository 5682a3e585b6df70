"""Shared fixtures: pools engineered so optima are hand-derivable.

settle fixture
    Three price-scale scenarios of a pure arbitrage day (no regulation
    product).  Loads peak at 900 kW in hours 2-3; the battery can move
    at most its capacity (180 kWh) into the peak, so the best peak
    target is 900 - 180/2 = 810.  Pre-peak hours cost 0.06/kWh versus
    0.05 post-peak, so starting full strictly dominates and the state
    target pins to the 180 kWh box corner.  The expected optimum is
    w* = (180, 810) with value

        pi_D * 810 + offset - (41 + 77) * E[s]

    where 41 s is the best money revenue, 77 s the canonical shift
    (Punder * sum(pi_e)), offset = 192.5 the canonical cost floor, and
    E[s] the mean price scale (0.8 + 1.0 + 1.25)/3.

general fixture
    Five synthetic scenarios with regulation revenue and per-scenario
    request fractions; exercises scenario-dependent stage matrices.
    Moderate elastic penalty keeps dual magnitudes small.

equality fixture
    One scenario, flat 400 kW load, zero energy price.  The only value
    is regulation capacity, maxed at F = Pbar with the battery idle, so
    the best block repeats verbatim and chaining state across periods
    buys nothing: shaving the flat peak by d needs discharge at every
    sample point, trading pi_f * 5d = 0.5d of capacity payment for
    pi_D * d = 0.3d of demand charge.  Periodic and non-periodic both
    price out at pi_D * 400 + (offset - revenue) = 120 exactly.

closed-loop fixture
    The general pool with the elastic penalty dropped to 1.5, three
    times the demand rate instead of a hundred times.  While targets
    are still settling, realized days overrun the declared peak, and
    the overrun should be billed like a demand-charge exceedance, not
    at a numerics-guard rate that would swamp the realized-cost
    average with a constant of our own choosing.

full-day fixture
    Criterion 10's battery on a 24-step synthetic pool: stage LPs of
    373 rows and 447 columns, the size the benchmark runs.
"""

from dataclasses import replace

import numpy as np

from hmpc.battery import BatteryParams, design_cost, target_box, with_offset
from hmpc.scenarios import PeriodRealization, ScenarioPool, synthetic_pool

SETTLE_W_STAR = np.array([180.0, 810.0])
SETTLE_VALUE = 5 * 810.0 + 192.5 - 118.0 * (0.8 + 1.0 + 1.25) / 3


def settle_pool() -> ScenarioPool:
    shape = np.array([0.06, 0.06, 0.25, 0.25, 0.05, 0.05, 0.05])
    load = np.array([200.0, 250.0, 900.0, 900.0, 400.0, 250.0, 200.0])
    zeros = np.zeros(7)
    support = tuple(
        PeriodRealization(
            energy_price=scale * shape, fr_price=zeros, load=load, fr_request=zeros
        )
        for scale in (0.8, 1.0, 1.25)
    )
    return ScenarioPool(support=support, weights=np.full(3, 1 / 3))


def settle_params() -> BatteryParams:
    base = BatteryParams(
        capacity_Ebar=180.0,
        discharge_Pbar=100.0,
        charge_Punder=100.0,
        fr_reserve_rho=0.0,
        ramp_dPbar=250.0,
        demand_charge_piD=5.0,
        period_length_n=6,
        elastic_penalty_M=2e7,
    )
    return with_offset(base, settle_pool())


def settle_setup():
    pool = settle_pool()
    params = settle_params()
    box = target_box(params, max_load=900.0)
    return params, pool, box, design_cost(params)


def general_pool() -> ScenarioPool:
    return synthetic_pool(
        n_steps=6,
        n_scenarios=5,
        seed=42,
        base_load=500.0,
    )


def general_params() -> BatteryParams:
    base = BatteryParams(
        capacity_Ebar=400.0,
        discharge_Pbar=150.0,
        charge_Punder=150.0,
        fr_reserve_rho=0.5,
        ramp_dPbar=200.0,
        demand_charge_piD=0.5,
        period_length_n=6,
        elastic_penalty_M=50.0,
    )
    return with_offset(base, general_pool())


def general_setup():
    pool = general_pool()
    params = general_params()
    max_load = float(max(d.load.max() for d in pool.support))
    return params, pool, target_box(params, max_load), design_cost(params)


def closed_loop_setup():
    pool = general_pool()
    params = replace(general_params(), elastic_penalty_M=1.5)
    max_load = float(max(d.load.max() for d in pool.support))
    return params, pool, target_box(params, max_load), design_cost(params)


EQUALITY_VALUE = 120.0


def equality_pool() -> ScenarioPool:
    n1 = 5
    d = PeriodRealization(
        energy_price=np.zeros(n1),
        fr_price=np.full(n1, 0.1),
        load=np.full(n1, 400.0),
        fr_request=np.zeros(n1),
    )
    return ScenarioPool(support=(d,), weights=[1.0])


def equality_params() -> BatteryParams:
    base = BatteryParams(
        capacity_Ebar=200.0,
        discharge_Pbar=100.0,
        charge_Punder=100.0,
        fr_reserve_rho=0.5,
        ramp_dPbar=300.0,
        demand_charge_piD=0.3,
        period_length_n=4,
    )
    return with_offset(base, equality_pool())


def equality_setup():
    pool = equality_pool()
    params = equality_params()
    return params, pool, target_box(params, max_load=400.0), design_cost(params)


def full_day_setup(n_scenarios=5, seed=4242):
    pool = synthetic_pool(n_steps=24, n_scenarios=n_scenarios, seed=seed)
    base = BatteryParams(
        capacity_Ebar=400.0,
        discharge_Pbar=150.0,
        charge_Punder=150.0,
        fr_reserve_rho=0.5,
        ramp_dPbar=200.0,
        demand_charge_piD=0.5,
        period_length_n=24,
        elastic_penalty_M=50.0,
    )
    params = with_offset(base, pool)
    max_load = float(max(d.load.max() for d in pool.support))
    return params, pool, target_box(params, max_load), design_cost(params)
