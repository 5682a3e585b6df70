"""Period loop: cut bookkeeping, gap audits, settling, simulation."""

from dataclasses import replace

import numpy as np
import pytest

import hmpc.controller
import hmpc.cuts
import hmpc.stage
from bruteforce import chained_rescale, full_master, scratch_cut
from fixtures import SETTLE_W_STAR, settle_setup
from toys import TinyData, toy_template

from hmpc.battery import (
    BatteryParams,
    build_template,
    design_cost,
    load_params,
    target_box,
    with_offset,
)
from hmpc.cli import main
from hmpc.controller import (
    BrokenInvariant,
    initial_state,
    run_simulation,
    running_cost,
    step_period,
)
from hmpc.oracle import solve_saa
from hmpc.scenarios import collapse, load_pool, sample_period, stream, synthetic_pool
from hmpc.stage import dual_excess, solve_stage

TOY_BOX = np.array([[0.0, 4.0], [0.0, 2.0]])
TOY_CW = np.array([0.0, 1.0])


def mini_setup():
    """Two-step battery day, three scenarios; small enough to hammer."""
    pool = synthetic_pool(n_steps=2, n_scenarios=3, seed=5, base_load=300.0)
    base = BatteryParams(
        capacity_Ebar=100.0,
        discharge_Pbar=60.0,
        charge_Punder=60.0,
        fr_reserve_rho=0.4,
        ramp_dPbar=120.0,
        demand_charge_piD=1.0,
        period_length_n=2,
    )
    params = with_offset(base, pool)
    max_load = float(max(d.load.max() for d in pool.support))
    return params, pool, target_box(params, max_load), design_cost(params)


def test_initial_state_defaults_and_box_check():
    template = toy_template()
    state = initial_state(template, TOY_CW, TOY_BOX)
    np.testing.assert_allclose(state.targets_w, [2.0, 1.0])
    assert not state.cuts and not state.history
    with pytest.raises(ValueError, match="box"):
        initial_state(template, TOY_CW, TOY_BOX, w1=np.array([5.0, 1.0]))


def test_first_period_cut_is_tight_at_its_targets():
    template = toy_template()
    d = TinyData(cost=(2.0, 1.0, 2.0))
    state = initial_state(template, TOY_CW, TOY_BOX, w1=np.array([1.0, 1.0]))
    state, rec = step_period(state, d)

    assert len(state.cuts) == 1 and len(state.history) == 1
    phi_1 = TOY_CW @ rec.targets + solve_stage(template, rec.targets, d).cost_h
    assert rec.running_cost == pytest.approx(phi_1, abs=1e-9)
    # one cut, generated here: envelope is exact at w_1
    assert rec.lower_bound == pytest.approx(phi_1, abs=1e-9)
    assert rec.master_bound <= rec.lower_bound + 1e-9

    # master minimum agrees with a brute grid over the same single cut
    cut = state.cuts[0]
    grid = np.linspace(TOY_BOX[:, 0], TOY_BOX[:, 1], 41)
    best = min(
        cut.alpha + float((TOY_CW + cut.beta) @ np.array([a, b]))
        for a in grid[:, 0] for b in grid[:, 1]
    )
    assert rec.master_bound == pytest.approx(best, abs=1e-9)
    np.testing.assert_allclose(state.targets_w, rec.targets_next)


def test_fifty_periods_of_invariants():
    params, pool, box, cw = mini_setup()
    template = build_template(params)
    state = initial_state(template, cw, box)
    rng = stream(21)

    births = []  # (birth period, alpha at birth)
    records = []
    for m in range(1, 51):
        state, rec = step_period(state, sample_period(pool, rng))
        births.append((m, state.cuts[-1].alpha))
        records.append(rec)

    assert len(state.cuts) == 50 and len(state.history) == 50

    for rec in records:
        scale = 1 + abs(rec.running_cost)
        assert rec.running_cost >= rec.lower_bound - 1e-6 * scale
        assert rec.current_gap_eps >= -1e-6
        assert rec.master_bound <= rec.lower_bound + 1e-9 * scale

    # rescaling telescopes: a cut born at period b keeps alpha_b * b / m
    for cut, (b, alpha_birth) in zip(state.cuts, births):
        assert cut.birth_period == b
        assert cut.alpha == pytest.approx(alpha_birth * b / 50, rel=1e-12)

    paid = sum(r.stage_cost + cw @ r.targets for r in records)
    assert state.realized_cost_accum == pytest.approx(paid, rel=1e-12)


def test_master_bound_sandwiches_the_saa_optimum():
    params, pool, box, cw = mini_setup()
    template = build_template(params)
    state = initial_state(template, cw, box)
    rng = stream(3)
    for m in range(1, 9):
        state, rec = step_period(state, sample_period(pool, rng))
        _, saa_val = solve_saa(template, state.history, box, cw)
        tol = 1e-6 * (1 + abs(saa_val))
        assert rec.master_bound <= saa_val + tol
        assert saa_val <= rec.running_cost + tol


def test_targets_settle_on_the_arbitrage_fixture():
    params, pool, box, cw = settle_setup()
    template = build_template(params)
    sim = run_simulation(
        template, cw, box, pool, periods=40, seed=3, keep_planned=0,
        track_overall_gap=False,
    )
    tail = np.array([r.targets_next for r in sim.records[-10:]])
    assert np.ptp(tail, axis=0).max() <= 1e-6
    np.testing.assert_allclose(tail[-1], SETTLE_W_STAR, atol=2e-6)


@pytest.fixture(scope="module")
def arbitrage_run():
    params, pool, box, cw = settle_setup()
    template = build_template(params)
    return run_simulation(
        template, cw, box, pool, periods=40, seed=3, keep_planned=0,
        track_overall_gap=True,
    )


def test_overall_gap_closes_on_the_arbitrage_fixture(arbitrage_run):
    last = arbitrage_run.records[-1]
    assert last.overall_gap_epsbar is not None
    assert -1e-6 <= last.current_gap_eps < 0.01
    assert abs(last.overall_gap_epsbar) < 0.01


def test_simulation_is_deterministic_in_the_seed():
    params, pool, box, cw = mini_setup()
    template = build_template(params)
    kwargs = dict(periods=12, seed=9, forecast_sigma=0.1, keep_planned=3)
    a = run_simulation(template, cw, box, pool, **kwargs)
    b = run_simulation(template, cw, box, pool, **kwargs)
    assert np.array_equal([r.targets for r in a.records], [r.targets for r in b.records])
    assert a.state.realized_cost_accum == b.state.realized_cost_accum
    assert len(a.planned) == 3 and len(a.state.history) == 12
    assert [d.key for d in a.state.history] == [d.key for d in b.state.history]


def test_audit_stride_skips_running_cost():
    params, pool, box, cw = mini_setup()
    template = build_template(params)
    sim = run_simulation(
        template, cw, box, pool, periods=8, seed=2,
        audit_full_until=3, audit_stride=2, keep_planned=0,
    )
    audited = {1, 2, 3, 4, 6, 8}
    for rec in sim.records:
        if rec.period in audited:
            assert rec.running_cost is not None
            assert rec.overall_gap_epsbar is not None
        else:
            assert rec.running_cost is None
            assert rec.overall_gap_epsbar is None


def test_audits_never_move_the_cut_stream():
    """An audit solve restarts from its class's last basis and may land on
    another optimal vertex than a cold solve.  On this stream the targets
    repeat exactly, so period solves ask for (w, d) pairs that audits
    priced before; they must still get the cold answer, bit for bit."""
    params, pool, box, cw = mini_setup()
    template = build_template(params)
    runs = []
    for audit in (True, False):
        rng = stream(11)
        state = initial_state(template, cw, box)
        records = [step_period(state, sample_period(pool, rng), audit=audit, pool=pool)[1]
                   for _ in range(40)]
        runs.append((state, records))
    (audited, records), (plain, plain_records) = runs
    assert len({r.targets.tobytes() for r in records}) < len(records)
    assert records[-1].running_cost is not None and plain_records[-1].running_cost is None
    for field in ("targets", "targets_next"):
        np.testing.assert_array_equal([getattr(r, field) for r in records],
                                      [getattr(r, field) for r in plain_records])
    for field in ("cut_alpha", "cut_beta", "working_set"):
        np.testing.assert_array_equal(getattr(audited, field), getattr(plain, field))


def test_forecast_error_decays_with_sigma():
    params, pool, box, cw = mini_setup()
    template = build_template(params)

    def mean_error(sigma):
        errs = []
        for seed in range(12):
            sim = run_simulation(
                template, cw, box, pool, periods=4, seed=100 + seed,
                forecast_sigma=sigma, keep_planned=4,
                audit_full_until=0, audit_stride=10**9, track_overall_gap=False,
            )
            for (m, w, plan), truth in zip(sim.planned, sim.state.history):
                actual = sim.state.cache.solve(w, truth).cost_h
                errs.append(abs(plan.cost_h - actual))
        return np.mean(errs)

    assert mean_error(0.0) == 0.0
    assert mean_error(0.25) > mean_error(0.05) > 0.0


def test_running_cost_requires_history():
    template = toy_template()
    state = initial_state(template, TOY_CW, TOY_BOX)
    with pytest.raises(ValueError, match="period"):
        running_cost(state, state.targets_w)


def test_negative_stage_cost_is_refused_before_it_is_stored():
    template = toy_template()
    state = initial_state(template, TOY_CW, TOY_BOX)
    with pytest.raises(BrokenInvariant, match="period 1.*cost_offset"):
        step_period(state, TinyData(cost=(-1.0, 1.0, 1.0)))
    assert len(state.store) == 0 and not state.history and not state.cuts


def _snapshot(state):
    store = state.store
    return (list(store.days), list(store.counts), store._V.copy(), list(state.history),
            state.cut_alpha.copy(), state.cut_beta.copy(), state.working_set.copy(),
            state.targets_w.copy(), state.realized_cost_accum)


def _assert_same(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        if isinstance(x, np.ndarray):
            np.testing.assert_array_equal(x, y)
        else:
            assert x == y


def _two_toy_periods():
    state = initial_state(toy_template(), TOY_CW, TOY_BOX, w1=np.array([1.0, 1.0]))
    for d in (TinyData(cost=(2.0, 1.0, 2.0)), TinyData(cost=(1.0, 3.0, 2.0))):
        step_period(state, d)
    return state


@pytest.mark.parametrize("scale, shift, message", [
    (1.0, 10.0, "period 3: the stage dual is not dual feasible"),
    (0.5, 0.0, "period 3: the stage dual prices the stage at"),
])
def test_a_stage_dual_that_fails_its_check_is_refused(monkeypatch, scale, shift, message):
    """A dual vertex outside {W(d)'pi <= c(d)}, or a feasible one that is
    not optimal, stops the period before anything is stored.  The fault is
    in the LP solver, below the stage solve that certifies its dual."""
    state = _two_toy_periods()
    before = _snapshot(state)
    solve = hmpc.stage.solve_lp

    def perturbed(lp, start=None):
        sol = solve(lp, start=start)
        return replace(sol, dual=sol.dual * scale + shift)

    monkeypatch.setattr(hmpc.stage, "solve_lp", perturbed)
    with pytest.raises(BrokenInvariant, match=message):
        step_period(state, TinyData(cost=(0.5, 2.0, 1.0)))
    _assert_same(_snapshot(state), before)


def test_an_audit_solve_that_fails_its_check_is_refused(monkeypatch):
    """The audit re-solves every class at the period's targets; a dual
    that fails its certificate there stops the period too, and the state
    is as before."""
    state = initial_state(toy_template(), TOY_CW, TOY_BOX, w1=np.array([1.0, 1.0]))
    first = TinyData(cost=(2.0, 1.0, 2.0))
    step_period(state, first)
    before = _snapshot(state)
    first_cost = state.template.cost_builder(first)
    solve = hmpc.stage.solve_lp
    faulted = []

    def perturbed(lp, start=None):
        sol = solve(lp, start=start)
        if not np.array_equal(lp.cost, first_cost):
            return sol
        faulted.append(lp)
        return replace(sol, dual=sol.dual + 10.0)

    monkeypatch.setattr(hmpc.stage, "solve_lp", perturbed)
    with pytest.raises(BrokenInvariant, match="the stage dual is not dual feasible"):
        step_period(state, TinyData(cost=(1.0, 3.0, 2.0)))
    assert faulted
    _assert_same(_snapshot(state), before)


def test_a_lower_bound_above_the_running_cost_is_refused(monkeypatch):
    """An audited period whose cut lifts the envelope over phi_m stops, and
    the state, class table included, is as before: stepping the same day
    afterwards gives what a run that never failed gives."""
    state = _two_toy_periods()
    before = _snapshot(state)
    generate_cut = hmpc.controller.generate_cut

    def lifted(*args):
        cut = generate_cut(*args)
        return replace(cut, alpha=cut.alpha + 100.0)

    day = TinyData(cost=(0.5, 2.0, 1.0))
    with monkeypatch.context() as mp:
        mp.setattr(hmpc.controller, "generate_cut", lifted)
        with pytest.raises(BrokenInvariant, match="period 3: lower bound .* above the running cost"):
            step_period(state, day)
    _assert_same(_snapshot(state), before)
    _, rec = step_period(state, day)
    clean = _two_toy_periods()
    _, ref = step_period(clean, day)
    _assert_same(list(vars(rec).values()), list(vars(ref).values()))
    _assert_same(_snapshot(state), _snapshot(clean))


def test_store_verdicts_are_the_stage_test_on_the_arbitrage_fixture(arbitrage_run):
    """Every (class, vertex) verdict of the store is ``dual_excess`` at the
    class's day, whether the period's own solve or a later query set it.
    Duals of 2e7 here carry round-off past the plain tolerance, so a
    vertex with a looser test for its own class would be refused for the
    others."""
    store, template = arbitrage_run.state.store, arbitrage_run.state.template
    for k, d in enumerate(store.days):
        excess = dual_excess(store._V, template.matrix_builder(d), template.cost_builder(d))
        np.testing.assert_array_equal(store.certified_mask(k, template), excess <= 0)


def test_every_audited_gap_is_nonnegative_on_the_arbitrage_fixture(arbitrage_run):
    """The targets oscillate around the 810 kink; on its low side a stage
    LP that clipped a phase-1 round-off skipped its elastic penalty, so
    the running cost fell below its own lower bound (eps down to -2.4e-3
    in 15 of the 40 periods)."""
    audited = [r for r in arbitrage_run.records if r.current_gap_eps is not None]
    assert len(audited) == 40
    low = [(r.period, r.current_gap_eps) for r in audited if r.current_gap_eps < -1e-6]
    assert not low


def test_cuts_handed_out_are_read_only_and_keep_their_values():
    template = toy_template()
    state = initial_state(template, TOY_CW, TOY_BOX, w1=np.array([1.0, 1.0]))
    state, _ = step_period(state, TinyData(cost=(2.0, 1.0, 2.0)))
    first = state.cuts[0]
    with pytest.raises(ValueError, match="read-only"):
        first.beta[0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        state.cut_alpha[0] = 1.0
    before = first.beta.copy()
    state, _ = step_period(state, TinyData(cost=(1.0, 3.0, 2.0)))
    np.testing.assert_array_equal(first.beta, before)
    np.testing.assert_array_equal(state.cuts[0].beta, before * 0.5)


@pytest.fixture(scope="module")
def demo_inputs(tmp_path_factory):
    """Template, design cost, box and pool of the demo data (`hmpc gen-data
    --steps 6 --scenarios 3 --seed 42`)."""
    data = tmp_path_factory.mktemp("demo_data")
    args = ["gen-data", "--out", str(data), "--steps", "6", "--scenarios", "3", "--seed", "42"]
    assert main(args) == 0
    pool = load_pool(data / "pool.json")
    params = load_params(data / "battery.kv")
    box = target_box(params, float(max(d.load.max() for d in pool.support)))
    return build_template(params), design_cost(params), box, pool


# demo.conf's seed and sigma, no audits
DEMO_RUN = dict(
    seed=3, forecast_sigma=0.1, audit_full_until=0, audit_stride=1000,
    keep_planned=0, track_overall_gap=False,
)


def test_cut_arrays_equal_the_per_cut_rescale_on_the_demo_stream(demo_inputs, monkeypatch):
    """The arrays hold, bit for bit, what rebuilding every cut object each
    period gives from the same generated cuts."""
    births, generate_cut = [], hmpc.controller.generate_cut

    def recorded(*args):
        births.append(generate_cut(*args))
        return births[-1]

    monkeypatch.setattr(hmpc.controller, "generate_cut", recorded)
    state = run_simulation(*demo_inputs, periods=60, **DEMO_RUN).state
    ref = chained_rescale(births)
    np.testing.assert_array_equal(state.cut_alpha, [c.alpha for c in ref])
    np.testing.assert_array_equal(state.cut_beta, [c.beta for c in ref])
    assert [c.birth_period for c in state.cuts] == [c.birth_period for c in ref]


def test_class_table_is_the_collapsed_history_on_the_demo_stream(demo_inputs, monkeypatch):
    """After every period the store's days and counts are collapse(history),
    the same day objects in the same order, and the period's cut equals,
    bit for bit, one rebuilt from the history with fresh certificate checks."""
    template = demo_inputs[0]
    made, checked = [], []
    generate_cut, step_period = hmpc.controller.generate_cut, hmpc.controller.step_period

    def recorded(store, w, tpl):
        made.append((generate_cut(store, w, tpl), store._V, w))
        return made[-1][0]

    def checked_step(state, realized, **kwargs):
        out = step_period(state, realized, **kwargs)
        days, counts = collapse(state.history)
        assert len(state.store.days) == len(days)
        assert all(a is b for a, b in zip(state.store.days, days))
        assert state.store.counts == counts
        cut, V, w = made[-1]
        alpha, beta = scratch_cut(V, template, state.history, w)
        np.testing.assert_array_equal(cut.alpha, alpha)
        np.testing.assert_array_equal(cut.beta, beta)
        checked.append(len(state.history))
        return out

    monkeypatch.setattr(hmpc.controller, "generate_cut", recorded)
    monkeypatch.setattr(hmpc.controller, "step_period", checked_step)
    state = run_simulation(*demo_inputs, periods=60, **DEMO_RUN).state
    assert checked == list(range(1, 61))
    assert 1 < len(state.store.days) < 60


@pytest.fixture(scope="module")
def demo_masters(demo_inputs):
    """300 periods on the demo data, recording each period's master bound
    beside the full master's, and the rows of every master LP."""
    bounds, rows = [], []
    solve_master, solve_general = hmpc.controller.solve_master, hmpc.cuts.solve_general

    def checked_master(alpha, slopes, box, working=()):
        out = solve_master(alpha, slopes, box, working=working)
        bounds.append((out[1], full_master(alpha, slopes, box)[1]))
        return out

    def counted_lp(gen):
        rows.append(gen.ub_rhs.size)
        return solve_general(gen)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hmpc.controller, "solve_master", checked_master)
        mp.setattr(hmpc.cuts, "solve_general", counted_lp)
        run_simulation(*demo_inputs, periods=300, **DEMO_RUN)
    return np.array(bounds), rows


def test_working_set_master_matches_the_full_master_on_the_demo_stream(demo_masters):
    bounds, _ = demo_masters
    assert len(bounds) == 300
    ours, full = bounds.T
    assert (np.abs(ours - full) <= 1e-9 * np.maximum(1.0, np.abs(full))).all()


def test_master_lps_stay_small_on_the_demo_stream(demo_masters):
    """The full master would hand period m an LP of m cut rows; the
    working set never holds more than 5 over the 300 periods."""
    _, rows = demo_masters
    assert max(rows) == 5
