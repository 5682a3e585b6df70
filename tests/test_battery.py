import math
import tracemalloc

import numpy as np
import pytest
from scipy.optimize import linprog

from hmpc import battery
from hmpc.battery import (
    PARAM_FIELDS,
    BatteryParams,
    InvalidParams,
    build_template,
    decode_trajectory,
    design_cost,
    load_params,
    save_params,
    suggested_cost_offset,
    target_box,
    with_offset,
)
from hmpc.lp import solve_lp
from hmpc.scenarios import PeriodRealization, synthetic_pool
from hmpc.stage import build_stage, solve_stage


def small_params(n=3, **overrides):
    kwargs = dict(
        capacity_Ebar=200.0,
        discharge_Pbar=80.0,
        charge_Punder=60.0,
        fr_reserve_rho=0.5,
        ramp_dPbar=150.0,
        demand_charge_piD=4.0,
        period_length_n=n,
        elastic_penalty_M=500.0,
    )
    kwargs.update(overrides)
    return BatteryParams(**kwargs)


def realization(n, price, fr_price, load, alpha):
    return PeriodRealization(
        energy_price=np.full(n + 1, price),
        fr_price=np.full(n + 1, fr_price),
        load=np.asarray(load, dtype=float),
        fr_request=np.full(n + 1, alpha),
    )


def scipy_stage_money(params, d, w):
    """Independent stage solve: original variables, HiGHS backend.

    Variable layout [P, F, E, d_util, s], each n+1 wide; returns the
    money objective including the additive cost offset.
    """
    n = params.period_length_n
    ns = n + 1
    nv = 5 * ns
    iP, iF, iE, iD, iS = (np.arange(ns) + k * ns for k in range(5))
    alpha = d.fr_request

    rows_eq, rhs_eq = [], []
    for t in range(n):
        row = np.zeros(nv)
        row[iE[t + 1]], row[iE[t]], row[iP[t]], row[iF[t]] = 1, -1, 1, -alpha[t]
        rows_eq.append(row)
        rhs_eq.append(0.0)
    for col in (iE[0], iE[n]):
        row = np.zeros(nv)
        row[col] = 1
        rows_eq.append(row)
        rhs_eq.append(w[0])
    for t in range(ns):
        row = np.zeros(nv)
        row[iD[t]], row[iP[t]], row[iF[t]] = 1, 1, -alpha[t]
        rows_eq.append(row)
        rhs_eq.append(d.load[t])

    rows_ub, rhs_ub = [], []

    def ub(cols, coefs, rhs):
        row = np.zeros(nv)
        row[list(cols)] = coefs
        rows_ub.append(row)
        rhs_ub.append(rhs)

    for t in range(ns):
        ub((iP[t], iF[t]), (1, 1), params.discharge_Pbar)
        ub((iP[t], iF[t]), (-1, 1), params.charge_Punder)
        ub((iF[t], iE[t]), (params.fr_reserve_rho, -1), 0.0)
        ub((iF[t], iE[t]), (params.fr_reserve_rho, 1), params.capacity_Ebar)
        ub((iD[t], iS[t]), (1, -1), w[1])
        ub((iP[t], iF[t]), (1, 1), d.load[t])
    for t in range(n):
        ub((iF[t], iE[t + 1]), (params.fr_reserve_rho, -1), 0.0)
        ub((iF[t], iE[t + 1]), (params.fr_reserve_rho, 1), params.capacity_Ebar)
        ub((iP[t + 1], iP[t]), (1, -1), params.ramp_dPbar)
        ub((iP[t], iP[t + 1]), (1, -1), params.ramp_dPbar)

    c = np.zeros(nv)
    c[iP] = -d.energy_price
    c[iF] = alpha * d.energy_price - d.fr_price
    c[iS] = params.elastic_penalty_M
    bounds = (
        [(-params.charge_Punder, params.discharge_Pbar)] * ns
        + [(0, params.discharge_Pbar)] * ns
        + [(0, params.capacity_Ebar)] * ns
        + [(0, None)] * ns
        + [(0, None)] * ns
    )
    res = linprog(
        c,
        A_ub=np.array(rows_ub),
        b_ub=np.array(rhs_ub),
        A_eq=np.array(rows_eq),
        b_eq=np.array(rhs_eq),
        bounds=bounds,
        method="highs",
    )
    assert res.status == 0, res.message
    return res.fun + params.cost_offset


def test_structural_counts_match_documented_table():
    n = 24
    tpl = build_template(small_params(n=n))
    assert tpl.n_rows == 15 * n + 13
    assert tpl.n_cols == 18 * n + 15
    assert tpl.var_map.n_orig == 5 * n + 6
    assert tpl.var_map.n_eq == 2 * n + 4
    assert tpl.var_map.n_ub == 10 * n + 6
    assert tpl.coupling_T.shape == (15 * n + 13, 2)


def documented_families(heading, n):
    """(tag, size) of each row of the module docstring's table under ``heading``."""
    table = battery.__doc__.split(heading, 1)[1].split("\n\n")[1]
    sizes = {"1": 1, "2": 2, "n": n, "n+1": n + 1}
    return [(line.split()[0], sizes[line.split()[1]]) for line in table.splitlines()]


@pytest.mark.parametrize("n", [1, 5])
def test_row_tags_are_the_documented_constraint_families(n):
    tpl = build_template(small_params(n=n))
    documented = documented_families("Constraint families", n)
    assert len(documented) == 14
    assert [(tag, rows.size) for tag, rows in tpl.row_tags.items()] == documented
    vm = tpl.var_map
    np.testing.assert_array_equal(
        np.concatenate(list(tpl.row_tags.values())), np.arange(vm.n_eq + vm.n_ub)
    )


@pytest.mark.parametrize("n", [1, 5])
def test_col_tags_are_the_documented_variable_families(n):
    params = small_params(n=n)
    tpl = build_template(params)
    documented = documented_families("Variable families", n)
    assert [(tag, tpl.col_tags[tag].size) for tag, _ in documented] == documented
    families = [tpl.col_tags[tag] for tag, _ in documented]
    np.testing.assert_array_equal(np.concatenate(families), np.arange(tpl.var_map.n_orig))
    lower = {"P": -params.charge_Punder}
    for tag, _ in documented:
        np.testing.assert_array_equal(tpl.var_map.lower[tpl.col_tags[tag]], lower.get(tag, 0.0))
    boxed = np.concatenate([tpl.col_tags[tag] for tag in ("P", "F", "E")])
    np.testing.assert_array_equal(tpl.var_map.bound_cols, boxed)


def test_coupling_sparsity_contract():
    tpl = build_template(small_params(n=5))
    state_col, peak_col = tpl.coupling_T[:, 0], tpl.coupling_T[:, 1]
    np.testing.assert_array_equal(np.flatnonzero(state_col), tpl.row_tags["boundary"])
    np.testing.assert_array_equal(np.flatnonzero(peak_col), tpl.row_tags["peak"])
    assert set(state_col[tpl.row_tags["boundary"]]) == {-1.0}
    assert set(peak_col[tpl.row_tags["peak"]]) == {-1.0}


def test_changing_targets_touches_only_their_rows():
    params = small_params(n=4)
    tpl = build_template(params)
    d = synthetic_pool(n_steps=4, n_scenarios=1, seed=0).support[0]
    base = build_stage(tpl, np.array([50.0, 400.0]), d).eq_rhs
    moved_state = build_stage(tpl, np.array([80.0, 400.0]), d).eq_rhs
    moved_peak = build_stage(tpl, np.array([50.0, 500.0]), d).eq_rhs
    assert set(np.flatnonzero(moved_state - base)) == set(tpl.row_tags["boundary"])
    assert set(np.flatnonzero(moved_peak - base)) == set(tpl.row_tags["peak"])


def test_fr_request_lands_in_matrix():
    params = small_params(n=3)
    tpl = build_template(params)
    d = realization(3, price=0.1, fr_price=0.02, load=[50.0] * 4, alpha=0.3)
    A = tpl.matrix_builder(d)
    iF = tpl.col_tags["F"]
    np.testing.assert_allclose(A[tpl.row_tags["balance"], iF[:3]], -0.3)
    np.testing.assert_allclose(A[tpl.row_tags["utility"], iF], -0.3)
    d2 = realization(3, price=0.1, fr_price=0.02, load=[60.0] * 4, alpha=0.3)
    np.testing.assert_array_equal(tpl.matrix_builder(d2), A)  # load stays out of W



def test_template_keeps_nothing_per_day():
    tpl = build_template(small_params(n=24))
    days = synthetic_pool(n_steps=24, n_scenarios=20, seed=4242).support
    tracemalloc.start()
    try:
        for d in days:
            tpl.rhs_builder(d), tpl.cost_builder(d), tpl.matrix_builder(d)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert retained < 1e6


def test_do_nothing_under_zero_prices():
    params = small_params(n=4)
    tpl = build_template(params)
    loads = np.array([40.0, 55.0, 70.0, 55.0, 40.0])
    d = realization(4, price=0.0, fr_price=0.0, load=loads, alpha=0.3)
    res = solve_stage(tpl, np.array([100.0, 80.0]), d)
    assert res.cost_h == pytest.approx(0.0, abs=1e-9)
    assert res.slack_activation == pytest.approx(0.0, abs=1e-9)
    traj = decode_trajectory(res, tpl)
    assert traj.E[0] == pytest.approx(100.0, abs=1e-9)
    assert traj.E[-1] == pytest.approx(100.0, abs=1e-9)


def test_stage_matches_independent_highs_solve():
    params = small_params(n=3)
    tpl = build_template(params)
    loads = np.array([90.0, 120.0, 160.0, 100.0])
    cases = [
        (realization(3, 0.20, 0.05, loads, 0.25), np.array([120.0, 150.0])),
        (realization(3, 0.20, 0.05, loads, 0.25), np.array([0.0, 90.0])),
        (realization(3, 0.05, 0.00, loads, 0.0), np.array([200.0, 140.0])),
        (realization(3, 0.40, 0.12, loads, 0.6), np.array([60.0, 60.0])),
    ]
    for d, w in cases:
        res = solve_stage(tpl, w, d)
        money = res.cost_h + tpl.objective_shift(d)
        assert money == pytest.approx(scipy_stage_money(params, d, w), abs=1e-6)


def test_elastic_slack_absorbs_undersized_peak():
    params = small_params(n=2)
    tpl = build_template(params)
    loads = np.array([300.0, 300.0, 300.0])  # load alone exceeds eta + battery power
    d = realization(2, price=0.0, fr_price=0.0, load=loads, alpha=0.0)
    res = solve_stage(tpl, np.array([100.0, 50.0]), d)
    assert res.slack_activation > 0
    assert res.cost_h == pytest.approx(params.elastic_penalty_M * res.slack_activation, rel=1e-9)


def test_price_homogeneity():
    params = small_params(n=3)
    tpl = build_template(params)
    loads = np.array([90.0, 120.0, 160.0, 100.0])
    w = np.array([100.0, 200.0])
    d1 = realization(3, 0.20, 0.05, loads, 0.25)
    d2 = realization(3, 0.40, 0.10, loads, 0.25)
    h1 = solve_stage(tpl, w, d1).cost_h
    h2 = solve_stage(tpl, w, d2).cost_h
    assert h2 == pytest.approx(2.0 * h1, rel=1e-9, abs=1e-9)


def test_fr_earns_nothing_without_dispatch_or_price():
    params = small_params(n=3)
    tpl = build_template(params)
    loads = np.array([90.0, 120.0, 160.0, 100.0])
    d = realization(3, 0.2, 0.0, loads, 0.0)
    w = np.array([100.0, 200.0])
    lp = build_stage(tpl, w, d)
    base = solve_lp(lp).objective
    taxed = lp.cost.copy()
    taxed[tpl.col_tags["F"]] += 1.0  # make any F > 0 strictly worse
    from hmpc.lp import StandardLP

    penalized = solve_lp(StandardLP(cost=taxed, eq_matrix=lp.eq_matrix, eq_rhs=lp.eq_rhs))
    assert penalized.objective == pytest.approx(base, abs=1e-8)


def test_trajectory_invariants_on_priced_solve():
    params = small_params(n=5)
    tpl = build_template(params)
    pool = synthetic_pool(n_steps=5, n_scenarios=3, seed=8, base_load=150.0)
    d = pool.support[1]
    w = np.array([120.0, float(d.load.max())])
    res = solve_stage(tpl, w, d)
    traj = decode_trajectory(res, tpl)
    a = d.fr_request
    balance = traj.E[1:] - traj.E[:-1] + traj.P[:-1] - a[:-1] * traj.F[:-1]
    assert np.abs(balance).max() <= 1e-6 * params.capacity_Ebar
    np.testing.assert_allclose(
        traj.d_util, d.load - traj.P + a * traj.F, atol=1e-7
    )
    tol = 1e-7
    assert (traj.E >= -tol).all() and (traj.E <= params.capacity_Ebar + tol).all()
    assert (traj.F >= -tol).all() and (traj.F <= params.discharge_Pbar + tol).all()
    assert (traj.P >= -params.charge_Punder - tol).all()
    assert (traj.P + traj.F <= params.discharge_Pbar + tol).all()
    assert (traj.P + traj.F <= d.load + tol).all()
    rho = params.fr_reserve_rho
    assert (rho * traj.F <= traj.E + tol).all()
    assert (rho * traj.F + traj.E <= params.capacity_Ebar + tol).all()
    assert (np.abs(np.diff(traj.P)) <= params.ramp_dPbar + tol).all()
    assert (traj.d_util <= w[1] + traj.peak_slack + tol).all()


def test_decode_rejects_foreign_params():
    """The column layout depends only on n: a template of another n is
    refused, one of the same n with other params decodes alike."""
    tpl = build_template(small_params(n=2))
    d = realization(2, 0.1, 0.0, [50.0, 60.0, 50.0], 0.0)
    res = solve_stage(tpl, np.array([80.0, 70.0]), d)
    with pytest.raises(ValueError, match="trajectory entries"):
        decode_trajectory(res, build_template(small_params(n=3)))
    same_n = build_template(small_params(n=2, capacity_Ebar=500.0))
    np.testing.assert_array_equal(
        decode_trajectory(res, same_n).E, decode_trajectory(res, tpl).E
    )


def test_param_validation():
    with pytest.raises(InvalidParams):
        small_params(capacity_Ebar=-1.0)
    with pytest.raises(InvalidParams):
        small_params(n=0)
    defaulted = BatteryParams(
        capacity_Ebar=100.0,
        discharge_Pbar=50.0,
        charge_Punder=50.0,
        fr_reserve_rho=0.0,
        ramp_dPbar=100.0,
        demand_charge_piD=2.0,
        period_length_n=4,
    )
    assert defaulted.elastic_penalty_M == pytest.approx(2000.0)


@pytest.mark.parametrize("name", PARAM_FIELDS)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite_values_by_name(name, bad):
    with pytest.raises(InvalidParams, match=f"^{name} must be finite and nonnegative$"):
        small_params(**{name: bad})


def test_params_file_round_trip(tmp_path):
    params = small_params(n=6, cost_offset=12.5)
    path = tmp_path / "battery.conf"
    save_params(params, path)
    assert load_params(path) == params
    path.write_text(path.read_text() + "mystery_knob = 3\n")
    with pytest.raises(InvalidParams, match="mystery_knob"):
        load_params(path)


def test_design_cost_and_box():
    params = small_params(n=4)
    np.testing.assert_allclose(design_cost(params), [0.0, 4.0])
    box = target_box(params, max_load=900.0)
    np.testing.assert_allclose(box, [[0.0, 200.0], [0.0, 960.0]])


def test_suggested_offset_keeps_stage_costs_nonnegative():
    params = small_params(n=4)
    pool = synthetic_pool(n_steps=4, n_scenarios=3, seed=5)
    lifted = with_offset(params, pool)
    assert lifted.cost_offset == pytest.approx(suggested_cost_offset(params, pool))
    tpl = build_template(lifted)
    box = target_box(params, max_load=float(max(d.load.max() for d in pool.support)))
    rng = np.random.default_rng(1)
    probes = [np.array([x, e]) for x in box[0] for e in box[1]] + [
        np.array([rng.uniform(*box[0]), rng.uniform(*box[1])]) for _ in range(8)
    ]
    for d in pool.support:
        for w in probes:
            assert solve_stage(tpl, w, d).cost_h >= -1e-9
