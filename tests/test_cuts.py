import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from toys import TinyData, T_TOY, W_TOY, toy_template

from hmpc.cuts import (
    Cut,
    EmptyCuts,
    EmptyStore,
    MasterProblem,
    VertexStore,
    generate_cut,
    lower_bound_at,
    rescale_cuts,
    scenario_value_bound,
    solve_master,
)
from hmpc.stage import solve_stage

CW = np.array([0.0, 1.0])
BOX = np.array([[0.0, 4.0], [0.0, 2.0]])


def run_periods(history, targets):
    """Solve each period at its target, filling a store the way the
    controller does; returns the store."""
    tpl = toy_template()
    store = VertexStore(n_rows=tpl.n_rows)
    for d, w in zip(history, targets):
        res = solve_stage(tpl, w, d)
        store.insert(res.dual_vertex, d.key)
    return tpl, store


def phi_m(tpl, history, w):
    total = sum(solve_stage(tpl, w, d).cost_h for d in history)
    return float(CW @ w) + total / len(history)


def test_cut_value_includes_design_cost():
    cut = Cut(alpha=1.0, beta=np.array([0.5, -0.25]), birth_period=1)
    w = np.array([2.0, 4.0])
    assert cut.value_at(w, CW) == pytest.approx(1.0 + 0.5 * 2 + 0.75 * 4)


def test_single_period_cut_is_exact_at_its_targets():
    d = TinyData(cost=(1.0, 3.0, 2.0))
    w = np.array([1.0, 0.5])
    tpl, store = run_periods([d], [w])
    cut = generate_cut(store, [d], w, tpl)
    res = solve_stage(tpl, w, d)
    np.testing.assert_allclose(cut.alpha, res.dual_vertex @ np.asarray(d.rhs))
    np.testing.assert_allclose(cut.beta, -T_TOY.T @ res.dual_vertex)
    assert cut.value_at(w, CW) == pytest.approx(
        CW @ w + res.cost_h, abs=1e-9
    )
    assert cut.birth_period == 1


def test_two_period_cut_matches_hand_arithmetic():
    d1 = TinyData(cost=(1.0, 3.0, 2.0))
    d2 = TinyData(cost=(2.0, 1.0, 5.0), rhs=(4.0, 2.0))
    w1 = np.array([1.0, 0.5])
    w2 = np.array([2.0, 1.0])
    tpl, store = run_periods([d1, d2], [w1, w2])
    cut = generate_cut(store, [d1, d2], w2, tpl)

    V = store.as_matrix()
    alpha_hand, beta_hand = 0.0, np.zeros(2)
    for d in (d1, d2):
        r = np.asarray(d.rhs)
        c = np.asarray(d.cost)
        feasible = (V @ W_TOY <= c + 1e-9).all(axis=1)
        vals = np.where(feasible, V @ (r - T_TOY @ w2), -np.inf)
        pi = V[int(np.argmax(vals))]
        alpha_hand += 0.5 * pi @ r
        beta_hand -= 0.5 * T_TOY.T @ pi
    assert cut.alpha == pytest.approx(alpha_hand, abs=1e-12)
    np.testing.assert_allclose(cut.beta, beta_hand, atol=1e-12)


def test_cut_is_valid_everywhere_in_box():
    rng = np.random.default_rng(17)
    pool = [
        TinyData(cost=(1.0, 3.0, 2.0)),
        TinyData(cost=(2.0, 0.5, 4.0)),
        TinyData(cost=(0.5, 2.0, 1.0)),
    ]
    history = [pool[int(k)] for k in rng.integers(0, 3, size=6)]
    targets = [
        np.array([rng.uniform(0, 4), rng.uniform(0, 2)]) for _ in history
    ]
    tpl, store = run_periods(history, targets)
    cut = generate_cut(store, history, targets[-1], tpl)
    for _ in range(20):
        w = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
        bound = cut.value_at(w, CW)
        assert bound <= phi_m(tpl, history, w) + 1e-8


def test_infeasible_vertices_are_filtered():
    expensive = TinyData(cost=(10.0, 10.0, 10.0))
    cheap = TinyData(cost=(1.0, 1.0, 1.0))
    w = np.array([1.0, 0.5])
    tpl, store = run_periods([expensive], [w])
    mask = store.certified_mask(cheap, tpl)
    assert not mask.any()  # pricey duals overestimate the cheap scenario
    with pytest.raises(EmptyStore, match="certified"):
        generate_cut(store, [cheap], w, tpl)
    store.insert(solve_stage(tpl, w, cheap).dual_vertex, cheap.key)
    cut = generate_cut(store, [expensive, cheap], w, tpl)
    for x0 in np.linspace(0, 4, 9):
        for eta in np.linspace(0, 2, 5):
            probe = np.array([x0, eta])
            assert cut.value_at(probe, CW) <= phi_m(
                tpl, [expensive, cheap], probe
            ) + 1e-8


def test_store_dedups_and_inherits_certificates():
    store = VertexStore(n_rows=2)
    i = store.insert(np.array([1.0, 2.0]), "a")
    j = store.insert(np.array([1.0, 2.0 + 1e-12]), "b")
    assert i == j and len(store) == 1
    k = store.insert(np.array([1.0, 3.0]), "a")
    assert k == 1 and len(store) == 2
    with pytest.raises(ValueError):
        store.insert(np.array([1.0, 2.0, 3.0]), "a")


PROPERTY_CLASSES = [
    TinyData(cost=(1.0, 3.0, 2.0)),
    TinyData(cost=(2.0, 0.5, 4.0)),
    TinyData(cost=(0.5, 2.0, 1.0)),
    TinyData(cost=(10.0, 10.0, 10.0)),
]
PROPERTY_TARGETS = [np.array([x0, eta]) for x0 in (0.0, 1.5, 4.0) for eta in (0.0, 2.0)]


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3), st.integers(0, 5)), max_size=14))
def test_certified_mask_matches_a_fresh_check(ops):
    """Cached verdicts agree with checking every vertex from scratch, and a
    vertex stays certified for each class it was inserted under."""
    tpl = toy_template()
    store = VertexStore(n_rows=tpl.n_rows)
    inserted = set()  # (store index, class index)
    for is_insert, k, t in ops:
        d = PROPERTY_CLASSES[k]
        if is_insert:
            pi = solve_stage(tpl, PROPERTY_TARGETS[t], d).dual_vertex
            inserted.add((store.insert(pi, d.key), k))
            continue
        mask = store.certified_mask(d, tpl)
        c = np.asarray(d.cost)
        fresh = (store.as_matrix() @ W_TOY <= c + 1e-9 * (1 + np.abs(c))).all(axis=1)
        np.testing.assert_array_equal(mask, fresh)
        assert all(mask[i] for i, j in inserted if j == k)


def test_rescale_single_step():
    cut = Cut(alpha=2.0, beta=np.array([-1.0, 0.0]), birth_period=1)
    (scaled,) = rescale_cuts([cut], m=2)
    assert scaled.alpha == pytest.approx(1.0)
    np.testing.assert_allclose(scaled.beta, [-0.5, 0.0])
    assert scaled.birth_period == 1


def test_rescale_telescopes():
    cut = Cut(alpha=3.0, beta=np.array([1.5, -3.0]), birth_period=3)
    for m in range(4, 7):
        (cut,) = rescale_cuts([cut], m=m)
    assert cut.alpha == pytest.approx(3.0 * 3 / 6)
    np.testing.assert_allclose(cut.beta, np.array([1.5, -3.0]) * 0.5)


def test_rescaled_cut_still_bounds_grown_average():
    # Nonnegative stage costs are what licenses rescaling: the old cut
    # keeps bounding the average after new periods dilute it.
    rng = np.random.default_rng(3)
    pool = [
        TinyData(cost=(1.0, 3.0, 2.0)),
        TinyData(cost=(2.0, 0.5, 4.0)),
        TinyData(cost=(0.5, 2.0, 1.0)),
    ]
    history = [pool[int(k)] for k in rng.integers(0, 3, size=2)]
    targets = [np.array([1.0, 0.5]), np.array([2.0, 1.0])]
    tpl, store = run_periods(history, targets)
    cut = generate_cut(store, history, targets[-1], tpl)
    for extra in range(3):
        history.append(pool[extra])
        cut = rescale_cuts([cut], m=len(history))[0]
        for _ in range(20):
            w = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
            assert cut.value_at(w, CW) <= phi_m(tpl, history, w) + 1e-8


def test_master_single_cut_goes_to_lower_corner():
    cut = Cut(alpha=1.0, beta=np.array([0.5, 0.25]), birth_period=1)
    master = MasterProblem(cuts=[cut], design_cost=CW, target_box=BOX)
    w, lb = solve_master(master)
    np.testing.assert_allclose(w, BOX[:, 0], atol=1e-9)
    assert lb == pytest.approx(cut.value_at(BOX[:, 0], CW))


def test_master_matches_grid_search():
    rng = np.random.default_rng(11)
    cuts = [
        Cut(
            alpha=float(rng.uniform(-2, 2)),
            beta=rng.uniform(-1.5, 1.5, size=2),
            birth_period=j + 1,
        )
        for j in range(5)
    ]
    master = MasterProblem(cuts=cuts, design_cost=CW, target_box=BOX)
    w, lb = solve_master(master)
    xs = np.linspace(BOX[0, 0], BOX[0, 1], 200)
    ys = np.linspace(BOX[1, 0], BOX[1, 1], 200)
    grid_best = min(
        lower_bound_at(master, np.array([x, y])) for x in xs for y in ys
    )
    assert lb <= grid_best + 1e-9
    cell = max(BOX[0, 1] - BOX[0, 0], BOX[1, 1] - BOX[1, 0]) / 199
    max_slope = max(np.abs(CW + c.beta).sum() for c in cuts)
    assert grid_best - lb <= max_slope * cell + 1e-9
    assert lb == pytest.approx(lower_bound_at(master, w), abs=1e-9)


def test_master_is_outer_approximation():
    rng = np.random.default_rng(5)
    pool = [TinyData(cost=(1.0, 3.0, 2.0)), TinyData(cost=(0.5, 2.0, 1.0))]
    history = [pool[k % 2] for k in range(4)]
    targets = [np.array([rng.uniform(0, 4), rng.uniform(0, 2)]) for _ in history]
    tpl, store = run_periods(history, targets)
    cut = generate_cut(store, history, targets[-1], tpl)
    master = MasterProblem(cuts=[cut], design_cost=CW, target_box=BOX)
    _, lb = solve_master(master)
    for _ in range(10):
        w = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
        assert lb <= phi_m(tpl, history, w) + 1e-8


def test_lower_bound_at_basics():
    c1 = Cut(alpha=0.0, beta=np.array([1.0, 0.0]), birth_period=1)
    master = MasterProblem(cuts=[c1], design_cost=CW, target_box=BOX)
    w = np.array([2.0, 1.0])
    assert lower_bound_at(master, w) == pytest.approx(c1.value_at(w, CW))
    c2 = Cut(alpha=5.0, beta=np.array([0.0, 0.0]), birth_period=2)
    master.cuts.append(c2)
    assert lower_bound_at(master, w) >= c2.value_at(w, CW)
    with pytest.raises(EmptyCuts):
        lower_bound_at(MasterProblem(cuts=[], design_cost=CW, target_box=BOX), w)
    with pytest.raises(EmptyCuts):
        solve_master(MasterProblem(cuts=[], design_cost=CW, target_box=BOX))


def test_master_validation():
    with pytest.raises(ValueError, match="lo > hi"):
        MasterProblem(cuts=[], design_cost=CW, target_box=np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="n_w"):
        MasterProblem(cuts=[], design_cost=np.zeros(3), target_box=BOX)


def test_scenario_value_bound_tracks_store_growth():
    d = TinyData(cost=(1.0, 3.0, 2.0))
    other = TinyData(cost=(2.0, 0.5, 4.0))
    tpl = toy_template()
    store = VertexStore(n_rows=tpl.n_rows)
    w = np.array([1.5, 0.5])
    assert scenario_value_bound(store, tpl, d, w) == -np.inf

    res = solve_stage(tpl, w, d)
    store.insert(res.dual_vertex, d.key)
    h_bound = scenario_value_bound(store, tpl, d, w)
    assert h_bound == pytest.approx(res.cost_h, abs=1e-9)

    store.insert(solve_stage(tpl, np.array([3.0, 1.5]), other).dual_vertex, other.key)
    probe = np.array([2.5, 1.0])
    grown = scenario_value_bound(store, tpl, d, probe)
    assert grown <= solve_stage(tpl, probe, d).cost_h + 1e-9
