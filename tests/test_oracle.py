"""Extensive-form oracles against grids, hand values, and each other."""

import numpy as np
import pytest
from scipy.optimize import linprog

from fixtures import (
    EQUALITY_VALUE,
    SETTLE_VALUE,
    SETTLE_W_STAR,
    equality_setup,
    full_day_setup,
    general_setup,
    settle_setup,
)
from toys import TinyData, toy_template

from hmpc.battery import build_template
from hmpc.lp import canonicalize, solve_general
from hmpc.oracle import (
    reference_cost,
    solve_nonperiodic,
    solve_pool_saa,
    solve_saa,
)
from hmpc.scenarios import collapse
from hmpc.stage import StageSolveCache, solve_stage

TOY_BOX = np.array([[0.0, 4.0], [0.0, 2.0]])
TOY_CW = np.array([0.0, 1.0])


def test_single_period_saa_beats_a_target_grid():
    template = toy_template()
    d = TinyData(cost=(2.0, 1.0, 2.0))
    w_star, value = solve_saa(template, [d], TOY_BOX, TOY_CW)

    # phi_1 works out to 7 - 2 w1 + 2 w2 on one side of the kink and
    # 1 + w1 - w2 on the other; both floors sit at 3 on this box.
    assert value == pytest.approx(3.0, abs=1e-9)

    at_star = TOY_CW @ w_star + solve_stage(template, w_star, d).cost_h
    assert at_star == pytest.approx(value, abs=1e-9)

    grid = np.linspace(TOY_BOX[:, 0], TOY_BOX[:, 1], 21)
    for w1 in grid[:, 0]:
        for w2 in grid[:, 1]:
            w = np.array([w1, w2])
            phi = TOY_CW @ w + solve_stage(template, w, d).cost_h
            assert phi >= value - 1e-9


def test_duplicated_history_collapses_to_one_block():
    template = toy_template()
    d = TinyData(cost=(2.0, 1.0, 2.0))
    w_one, v_one = solve_saa(template, [d], TOY_BOX, TOY_CW)
    # 41 raw periods of one class must clear a cap of 40 distinct blocks
    w_many, v_many = solve_saa(template, [d] * 41, TOY_BOX, TOY_CW)
    assert v_many == pytest.approx(v_one, abs=1e-9)
    np.testing.assert_allclose(w_many, w_one, atol=1e-9)
    # classes come out in first-seen order, each standing for equal-key days
    e = TinyData(cost=(1.0, 1.0, 1.0))
    classes, counts = collapse([d, e, TinyData(cost=(2.0, 1.0, 2.0)), e, d])
    assert classes[0] is d and classes[1] is e and counts == [3, 2]


def test_distinct_block_cap_is_enforced():
    template = toy_template()
    history = [TinyData(cost=(1.0, 2.0 + i / 100, 1.0)) for i in range(41)]
    with pytest.raises(ValueError, match="41 blocks exceed the cap of 40"):
        solve_saa(template, history, TOY_BOX, TOY_CW)


def test_nonperiodic_caps_raw_periods():
    params, pool, box, cw = equality_setup()
    template = build_template(params)
    with pytest.raises(ValueError, match="41 blocks exceed the cap of 40"):
        solve_nonperiodic(template, [pool.support[0]] * 41, cw)


def test_empty_history_rejected():
    template = toy_template()
    with pytest.raises(ValueError, match="empty"):
        solve_saa(template, [], TOY_BOX, TOY_CW)
    with pytest.raises(ValueError, match="empty"):
        solve_nonperiodic(template, [], TOY_CW)


def test_pool_optimum_on_the_arbitrage_fixture():
    params, pool, box, cw = settle_setup()
    template = build_template(params)
    w_star, value = solve_pool_saa(template, pool, box, cw)
    np.testing.assert_allclose(w_star, SETTLE_W_STAR, atol=1e-6)
    assert value == pytest.approx(SETTLE_VALUE, abs=1e-6)


def test_nonperiodic_never_beats_periodic_from_above():
    params, pool, box, cw = general_setup()
    template = build_template(params)
    from hmpc.scenarios import sample_period, stream

    rng = stream(7)
    history = [sample_period(pool, rng) for _ in range(4)]
    value_np, eta_np = solve_nonperiodic(template, history, cw)
    _, value_p = solve_saa(template, history, box, cw)
    assert value_np <= value_p + 1e-6 * (1 + abs(value_p))
    assert 0.0 <= eta_np <= box[1, 1] + 1e-6


def test_flat_regulation_day_closes_the_relaxation_gap():
    # the state chain carries no value here (see fixtures), so
    # continuity and periodicity price out identically
    params, pool, box, cw = equality_setup()
    template = build_template(params)
    history = [pool.support[0]] * 6
    value_np, _ = solve_nonperiodic(template, history, cw)
    _, value_p = solve_saa(template, history, box, cw)
    assert value_p == pytest.approx(EQUALITY_VALUE, abs=1e-7)
    assert value_np == pytest.approx(value_p, rel=1e-6, abs=1e-6)


def test_reference_cost_single_scenario_is_one_stage_solve():
    params, pool, box, cw = equality_setup()
    template = build_template(params)
    w = np.array([120.0, 420.0])
    direct = cw @ w + solve_stage(template, w, pool.support[0]).cost_h
    assert reference_cost(template, pool, cw, w) == pytest.approx(direct, abs=1e-9)


def test_reference_cost_is_convex_along_a_segment():
    params, pool, box, cw = general_setup()
    template = build_template(params)
    cache = StageSolveCache(template)
    a = np.array([50.0, 400.0])
    b = np.array([350.0, 700.0])
    ref = lambda w: reference_cost(template, pool, cw, w, cache=cache)
    assert ref(0.5 * (a + b)) <= 0.5 * (ref(a) + ref(b)) + 1e-9


def test_reference_cost_matches_monte_carlo():
    params, pool, box, cw = general_setup()
    template = build_template(params)
    cache = StageSolveCache(template)
    w = np.array([200.0, 550.0])
    exact = reference_cost(template, pool, cw, w, cache=cache)

    from hmpc.scenarios import sample_period, stream

    rng = stream(11)
    draws = np.array(
        [cw @ w + cache.solve(w, sample_period(pool, rng)).cost_h for _ in range(2000)]
    )
    margin = 4 * draws.std(ddof=1) / np.sqrt(draws.size)
    assert abs(draws.mean() - exact) < margin


def test_nonperiodic_window_with_a_tiny_pivot_matches_highs(monkeypatch):
    """On these three days the ratio test meets a candidate pivot 1.5e-16
    the size of its column; taking it leaves a basis that the next
    refactorization finds singular."""
    params, pool, box, cw = full_day_setup(n_scenarios=400, seed=0)
    template = build_template(params)
    days = list(pool.support[120:123])
    forms = []

    def keep_form(gen):
        forms.append(gen)
        return solve_general(gen)

    monkeypatch.setattr("hmpc.oracle.solve_general", keep_form)
    value, _ = solve_nonperiodic(template, days, cw)
    assert np.isfinite(value)
    assert value <= solve_saa(template, days, box, cw)[1]
    std, vmap = canonicalize(forms[0])
    ref = linprog(std.cost, A_eq=std.eq_matrix, b_eq=std.eq_rhs, bounds=(0, None), method="highs")
    assert value == pytest.approx(vmap.original_objective(ref.fun), rel=1e-6)
