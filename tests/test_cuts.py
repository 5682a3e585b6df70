import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from bruteforce import full_master, scenario_value_bound
from toys import TinyData, T_TOY, W_TOY, toy_template

from hmpc.cuts import (
    Cut,
    VertexStore,
    generate_cut,
    lower_bound_at,
    rescale_cuts,
    solve_master,
)
from hmpc.controller import initial_state
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
        store.insert(res.dual_vertex, d)
    return tpl, store


def phi_m(tpl, history, w):
    total = sum(solve_stage(tpl, w, d).cost_h for d in history)
    return float(CW @ w) + total / len(history)


def stacked(cuts):
    """The master's arrays for a list of cuts: intercepts (m,) and slopes
    c_w + beta (m, n_w)."""
    return np.array([c.alpha for c in cuts]), CW + np.array([c.beta for c in cuts]).reshape(-1, 2)


def test_cut_value_includes_design_cost():
    cut = Cut(alpha=1.0, beta=np.array([0.5, -0.25]), birth_period=1)
    w = np.array([2.0, 4.0])
    assert cut.alpha + float((CW + cut.beta) @ w) == pytest.approx(1.0 + 0.5 * 2 + 0.75 * 4)


def test_single_period_cut_is_exact_at_its_targets():
    d = TinyData(cost=(1.0, 3.0, 2.0))
    w = np.array([1.0, 0.5])
    tpl, store = run_periods([d], [w])
    cut = generate_cut(store, w, tpl)
    res = solve_stage(tpl, w, d)
    np.testing.assert_allclose(cut.alpha, res.dual_vertex @ np.asarray(d.rhs))
    np.testing.assert_allclose(cut.beta, -T_TOY.T @ res.dual_vertex)
    assert cut.alpha + float((CW + cut.beta) @ w) == pytest.approx(
        CW @ w + res.cost_h, abs=1e-9
    )
    assert cut.birth_period == 1


def test_two_period_cut_matches_hand_arithmetic():
    d1 = TinyData(cost=(1.0, 3.0, 2.0))
    d2 = TinyData(cost=(2.0, 1.0, 5.0), rhs=(4.0, 2.0))
    w1 = np.array([1.0, 0.5])
    w2 = np.array([2.0, 1.0])
    tpl, store = run_periods([d1, d2], [w1, w2])
    cut = generate_cut(store, w2, tpl)

    V = store._V
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
    cut = generate_cut(store, targets[-1], tpl)
    for _ in range(20):
        w = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
        bound = cut.alpha + float((CW + cut.beta) @ w)
        assert bound <= phi_m(tpl, history, w) + 1e-8


def test_infeasible_vertices_are_filtered():
    expensive = TinyData(cost=(10.0, 10.0, 10.0))
    cheap = TinyData(cost=(1.0, 1.0, 1.0))
    w = np.array([1.0, 0.5])
    tpl, store = run_periods([expensive, cheap], [w, w])
    mask = store.certified_mask(1, tpl)
    assert not mask[0]  # pricey duals overestimate the cheap scenario
    assert mask[1] and store.certified_mask(0, tpl).all()
    cut = generate_cut(store, w, tpl)
    for x0 in np.linspace(0, 4, 9):
        for eta in np.linspace(0, 2, 5):
            probe = np.array([x0, eta])
            assert cut.alpha + float((CW + cut.beta) @ probe) <= phi_m(
                tpl, [expensive, cheap], probe
            ) + 1e-8


def test_generate_cut_needs_a_counted_period():
    tpl = toy_template()
    with pytest.raises(ValueError, match="no period counted yet"):
        generate_cut(VertexStore(n_rows=tpl.n_rows), np.array([1.0, 0.5]), tpl)


def test_store_dedups_and_inherits_certificates():
    a, b = TinyData(cost=(1.0, 3.0, 2.0)), TinyData(cost=(2.0, 0.5, 4.0))
    store = VertexStore(n_rows=2)
    i = store.insert(np.array([1.0, 2.0]), a)
    j = store.insert(np.array([1.0, 2.0 + 1e-12]), b)
    assert i == j and len(store) == 1
    k = store.insert(np.array([1.0, 3.0]), a)
    assert k == 1 and len(store) == 2
    with pytest.raises(ValueError):
        store.insert(np.array([1.0, 2.0, 3.0]), a)
    assert store.days == [a, b] and store.counts == [2, 1]
    np.testing.assert_array_equal(store._verdicts, [[1, 1], [1, 0]])


def test_uncount_takes_back_an_insert():
    a, b = TinyData(cost=(1.0, 3.0, 2.0)), TinyData(cost=(2.0, 0.5, 4.0))
    store = VertexStore(n_rows=2)
    store.insert(np.array([1.0, 2.0]), a)
    store.insert(np.array([1.0, 3.0]), b)
    store.uncount(b, 1)
    assert store.days == [a] and store.counts == [1] and len(store) == 1
    store.insert(np.array([1.0, 2.0]), a)
    store.uncount(a, 1)
    assert store.days == [a] and store.counts == [1] and len(store) == 1
    assert store.insert(np.array([1.0, 4.0]), b) == 1
    assert store.days == [a, b] and store.counts == [1, 1]
    np.testing.assert_array_equal(store._verdicts, [[1, 0], [0, 1]])


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
            inserted.add((store.insert(pi, d), k))
            continue
        if d not in store.days:
            continue
        mask = store.certified_mask(store.days.index(d), tpl)
        c = np.asarray(d.cost)
        fresh = (store._V @ W_TOY <= c + 1e-9 * (1 + np.abs(c))).all(axis=1)
        np.testing.assert_array_equal(mask, fresh)
        assert all(mask[i] for i, j in inserted if j == k)


def test_rescale_single_step():
    alpha, beta = np.array([2.0]), np.array([[-1.0, 0.0]])
    scaled_alpha, scaled_beta = rescale_cuts(alpha, beta, m=2)
    assert scaled_alpha[0] == pytest.approx(1.0)
    np.testing.assert_allclose(scaled_beta, [[-0.5, 0.0]])
    # new arrays; the old ones keep their values
    assert alpha[0] == 2.0 and beta[0, 0] == -1.0


def test_rescale_telescopes():
    alpha, beta = np.array([3.0]), np.array([[1.5, -3.0]])
    for m in range(4, 7):
        alpha, beta = rescale_cuts(alpha, beta, m=m)
    assert alpha[0] == pytest.approx(3.0 * 3 / 6)
    np.testing.assert_allclose(beta, np.array([[1.5, -3.0]]) * 0.5)


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
    cut = generate_cut(store, targets[-1], tpl)
    alpha, beta = np.array([cut.alpha]), cut.beta[None]
    for extra in range(3):
        history.append(pool[extra])
        alpha, beta = rescale_cuts(alpha, beta, m=len(history))
        for _ in range(20):
            w = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
            assert alpha[0] + float((CW + beta[0]) @ w) <= phi_m(tpl, history, w) + 1e-8


def test_master_single_cut_goes_to_lower_corner():
    cut = Cut(alpha=1.0, beta=np.array([0.5, 0.25]), birth_period=1)
    w, lb, _ = solve_master(*stacked([cut]), BOX)
    np.testing.assert_allclose(w, BOX[:, 0], atol=1e-9)
    assert lb == pytest.approx(cut.alpha + float((CW + cut.beta) @ BOX[:, 0]))


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
    alpha, slopes = stacked(cuts)
    w, lb, _ = solve_master(alpha, slopes, BOX)
    xs = np.linspace(BOX[0, 0], BOX[0, 1], 200)
    ys = np.linspace(BOX[1, 0], BOX[1, 1], 200)
    grid_best = min(
        lower_bound_at(alpha, slopes, np.array([x, y])) for x in xs for y in ys
    )
    assert lb <= grid_best + 1e-9
    cell = max(BOX[0, 1] - BOX[0, 0], BOX[1, 1] - BOX[1, 0]) / 199
    max_slope = max(np.abs(CW + c.beta).sum() for c in cuts)
    assert grid_best - lb <= max_slope * cell + 1e-9
    assert lb == pytest.approx(lower_bound_at(alpha, slopes, w), abs=1e-9)


@st.composite
def cut_sets(draw):
    """Cuts on BOX with small integer data, then duplicate, parallel and
    dominated copies of some, and a bundle of cuts through one point of
    the box (a degenerate vertex); with a starting working set."""
    small = st.integers(-4, 4).map(float)
    cuts = [
        Cut(alpha=a, beta=np.array([b0, b1]), birth_period=1)
        for a, b0, b1 in draw(st.lists(st.tuples(small, small, small), min_size=1, max_size=5))
    ]
    for kind, src, shift in draw(st.lists(st.tuples(
        st.sampled_from(["duplicate", "parallel", "dominated"]),
        st.integers(0, 99),
        st.sampled_from([-2.0, -0.5, 0.5, 1.0]),
    ), max_size=4)):
        c = cuts[src % len(cuts)]
        if kind == "duplicate":
            cuts.append(c)
        elif kind == "parallel":
            cuts.append(Cut(alpha=c.alpha + shift, beta=c.beta, birth_period=1))
        else:  # flat, below c's minimum over the box
            floor = c.alpha + np.minimum((CW + c.beta) * BOX[:, 0], (CW + c.beta) * BOX[:, 1]).sum()
            cuts.append(Cut(alpha=floor - abs(shift), beta=-CW, birth_period=1))
    bundle = draw(st.lists(st.tuples(small, small), max_size=4))
    if bundle:
        w0 = np.array([draw(st.integers(0, 4)), draw(st.integers(0, 2))], dtype=float)
        v0 = draw(small)
        for b0, b1 in bundle:
            beta = np.array([b0, b1])
            cuts.append(Cut(alpha=v0 - float((CW + beta) @ w0), beta=beta, birth_period=1))
    working = [i % len(cuts) for i in draw(st.lists(st.integers(0, 99), max_size=4))]
    return cuts, working


@settings(max_examples=200, deadline=None)
@given(cut_sets())
def test_working_set_master_matches_the_full_master(case):
    """Exact over every cut, from any starting working set: the bound is
    the full epigraph LP's, and the envelope at the targets equals it."""
    cuts, working = case
    alpha, slopes = stacked(cuts)
    w, lb, binding = solve_master(alpha, slopes, BOX, working=working)
    _, ref = full_master(alpha, slopes, BOX)
    assert abs(lb - ref) <= 1e-9 * max(1.0, abs(ref))
    assert abs(lower_bound_at(alpha, slopes, w) - lb) <= 1e-9 * max(1.0, abs(lb))
    assert ((w >= BOX[:, 0] - 1e-9) & (w <= BOX[:, 1] + 1e-9)).all()
    values = np.array([c.alpha + float((CW + c.beta) @ w) for c in cuts])
    assert (np.abs(values[binding] - lb) <= 1e-9 * (1.0 + abs(lb))).all()


def test_master_is_outer_approximation():
    rng = np.random.default_rng(5)
    pool = [TinyData(cost=(1.0, 3.0, 2.0)), TinyData(cost=(0.5, 2.0, 1.0))]
    history = [pool[k % 2] for k in range(4)]
    targets = [np.array([rng.uniform(0, 4), rng.uniform(0, 2)]) for _ in history]
    tpl, store = run_periods(history, targets)
    cut = generate_cut(store, targets[-1], tpl)
    _, lb, _ = solve_master(*stacked([cut]), BOX)
    for _ in range(10):
        w = np.array([rng.uniform(0, 4), rng.uniform(0, 2)])
        assert lb <= phi_m(tpl, history, w) + 1e-8


def test_lower_bound_at_basics():
    c1 = Cut(alpha=0.0, beta=np.array([1.0, 0.0]), birth_period=1)
    w = np.array([2.0, 1.0])
    assert lower_bound_at(*stacked([c1]), w) == pytest.approx(
        c1.alpha + float((CW + c1.beta) @ w)
    )
    c2 = Cut(alpha=5.0, beta=np.array([0.0, 0.0]), birth_period=2)
    assert lower_bound_at(*stacked([c1, c2]), w) >= c2.alpha + float((CW + c2.beta) @ w)
    with pytest.raises(ValueError, match="no cuts to evaluate"):
        lower_bound_at(*stacked([]), w)
    with pytest.raises(ValueError, match="master needs at least one cut"):
        solve_master(*stacked([]), BOX)


def test_master_validation():
    """The state checks the master's box and design cost once, before
    the first targets."""
    tpl = toy_template()
    with pytest.raises(ValueError, match="lo > hi"):
        initial_state(tpl, CW, np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="n_w"):
        initial_state(tpl, CW, BOX[:1])
    with pytest.raises(ValueError, match="n_w"):
        initial_state(tpl, np.zeros(3), BOX)


def test_scenario_value_bound_tracks_store_growth():
    d = TinyData(cost=(1.0, 3.0, 2.0))
    other = TinyData(cost=(2.0, 0.5, 4.0))
    tpl = toy_template()
    store = VertexStore(n_rows=tpl.n_rows)
    w = np.array([1.5, 0.5])
    assert scenario_value_bound(store, tpl, d, w) == -np.inf

    res = solve_stage(tpl, w, d)
    store.insert(res.dual_vertex, d)
    h_bound = scenario_value_bound(store, tpl, d, w)
    assert h_bound == pytest.approx(res.cost_h, abs=1e-9)

    store.insert(solve_stage(tpl, np.array([3.0, 1.5]), other).dual_vertex, other)
    probe = np.array([2.5, 1.0])
    grown = scenario_value_bound(store, tpl, d, probe)
    assert grown <= solve_stage(tpl, probe, d).cost_h + 1e-9
