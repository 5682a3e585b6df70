"""Stage-problem plumbing, checked on the hand-sized toy template."""

import numpy as np
import pytest
from toys import TinyData, W_TOY, toy_template

from hmpc.stage import (
    StageSolveCache,
    build_stage,
    solve_stage,
)


def test_rhs_is_affine_in_targets():
    tpl = toy_template()
    d = TinyData(cost=(1.0, 2.0, 3.0))
    at_zero = build_stage(tpl, np.array([0.0, 0.0]), d).eq_rhs
    w = np.array([1.5, 0.5])
    shifted = build_stage(tpl, w, d).eq_rhs
    np.testing.assert_allclose(shifted - at_zero, -tpl.coupling_T @ w)


def test_wrong_target_size():
    tpl = toy_template()
    with pytest.raises(ValueError, match="target components"):
        build_stage(tpl, np.array([1.0, 2.0, 3.0]), TinyData(cost=(1, 1, 1)))


def test_dual_vertex_exact_at_generation_point():
    tpl = toy_template()
    d = TinyData(cost=(1.0, 3.0, 1.0))
    w = np.array([2.0, 1.0])
    res = solve_stage(tpl, w, d)
    r_minus_tw = np.asarray(d.rhs) - tpl.coupling_T @ w
    assert res.cost_h == pytest.approx(res.dual_vertex @ r_minus_tw, abs=1e-9)
    # dual feasibility W' pi <= c
    assert (W_TOY.T @ res.dual_vertex <= np.asarray(d.cost) + 1e-9).all()


def test_dual_vertex_bounds_other_targets_from_below():
    tpl = toy_template()
    d = TinyData(cost=(2.0, 1.0, 4.0))
    pi = solve_stage(tpl, np.array([1.0, 1.0]), d).dual_vertex
    for x0 in np.linspace(0.0, 4.0, 5):
        for eta in np.linspace(0.0, 2.0, 5):
            w = np.array([x0, eta])
            h = solve_stage(tpl, w, d).cost_h
            bound = pi @ (np.asarray(d.rhs) - tpl.coupling_T @ w)
            assert bound <= h + 1e-8


def test_value_midpoint_convexity():
    tpl = toy_template()
    d = TinyData(cost=(1.0, -1.0, 2.0))
    rng = np.random.default_rng(4)
    for _ in range(10):
        wa = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
        wb = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
        mid = 0.5 * (wa + wb)
        ha = solve_stage(tpl, wa, d).cost_h
        hb = solve_stage(tpl, wb, d).cost_h
        hm = solve_stage(tpl, mid, d).cost_h
        assert hm <= 0.5 * ha + 0.5 * hb + 1e-8


def test_infeasible_targets_raise():
    tpl = toy_template()
    with pytest.raises(ValueError, match="stage problem infeasible at the given targets"):
        solve_stage(tpl, np.array([6.0, 0.0]), TinyData(cost=(1, 1, 1)))


def test_unbounded_stage_raises():
    tpl = toy_template(matrix=np.array([[1.0, -1.0]]))
    with pytest.raises(ValueError, match="stage problem unbounded"):
        solve_stage(tpl, np.array([0.0, 0.0]), TinyData(cost=(0.0, -1.0), rhs=(2.0,)))


def test_identical_data_identical_lp():
    tpl = toy_template()
    d1 = TinyData(cost=(1.0, 2.0, 3.0))
    d2 = TinyData(cost=(1.0, 2.0, 3.0))
    w = np.array([1.0, 1.0])
    lp1 = build_stage(tpl, w, d1)
    lp2 = build_stage(tpl, w, d2)
    np.testing.assert_array_equal(lp1.cost, lp2.cost)
    np.testing.assert_array_equal(lp1.eq_rhs, lp2.eq_rhs)
    np.testing.assert_array_equal(lp1.eq_matrix, lp2.eq_matrix)


def test_solve_cache_hits_on_repeats():
    cache = StageSolveCache(toy_template())
    d = TinyData(cost=(1.0, 0.5, 2.0))
    w = np.array([1.0, 0.5])
    first = cache.solve(w, d)
    again = cache.solve(w, d)
    assert again is first
    other = cache.solve(np.array([2.0, 0.5]), d)
    assert other is not first
    assert cache.stats == (1, 2)
