"""Ten end-to-end acceptance checks at their stated tolerances.

Each check prints one verdict line straight to the terminal (bypassing
capture), so any full run ends with a scorecard:

    acceptance 01 lp-matches-enumeration: PASS
    ...

Criteria 2, 3, 4 and 6 share one 50-period run on the five-scenario
fixture; 5 and 9 share one 150-period run on the arbitrage fixture.
The hand derivations behind the fixture optima live in fixtures.py.
"""

import time
from types import SimpleNamespace

import numpy as np
import pytest

from bruteforce import scenario_value_bound, solve_by_enumeration
from fixtures import (
    EQUALITY_VALUE,
    closed_loop_setup,
    equality_setup,
    full_day_setup,
    general_setup,
    settle_setup,
)
from test_lp import _random_standard_lp

from hmpc.battery import build_template
from hmpc.controller import initial_state, run_simulation, running_cost, step_period
from hmpc.lp import LPStatus, solve_lp
from hmpc.oracle import (
    reference_cost,
    solve_nonperiodic,
    solve_pool_saa,
    solve_saa,
)
from hmpc.scenarios import sample_period, stream
from hmpc.stage import StageSolveCache, solve_stage


def _verdict(capsys, num: int, label: str, failures: list, detail: str = "") -> None:
    status = "PASS" if not failures else "FAIL"
    extra = f" ({detail})" if detail else ""
    with capsys.disabled():
        print(f"\nacceptance {num:02d} {label}: {status}{extra}", flush=True)
    assert not failures, f"{label}: " + "; ".join(str(f) for f in failures[:5])


# ---------------------------------------------------------------------------
# shared runs


@pytest.fixture(scope="module")
def general_run():
    """50 audited periods on the five-scenario fixture, with snapshots."""
    params, pool, box, cw = general_setup()
    template = build_template(params)
    probes = stream(1001).uniform(box[:, 0], box[:, 1], size=(20, template.n_w))
    pair_w = stream(1002).uniform(box[:, 0], box[:, 1], size=(20, template.n_w))
    pairs = [(pair_w[i], pool.support[i % pool.size]) for i in range(20)]
    h_exact = [solve_stage(template, w, d).cost_h for w, d in pairs]

    state = initial_state(template, cw, box)
    rng = stream(77)
    t0 = time.monotonic()
    snapshots = []
    phi = np.empty((50, probes.shape[0]))
    bound = np.empty((50, len(pairs)))
    for m in range(1, 51):
        state, rec = step_period(state, sample_period(pool, rng), audit=True)
        snapshots.append((list(state.cuts), rec))
        for j, w in enumerate(probes):
            phi[m - 1, j] = running_cost(state, w)
        for j, (w, d) in enumerate(pairs):
            bound[m - 1, j] = scenario_value_bound(state.store, template, d, w)
    elapsed = time.monotonic() - t0
    return SimpleNamespace(
        template=template, pool=pool, box=box, cw=cw, state=state,
        probes=probes, pairs=pairs, h_exact=h_exact,
        snapshots=snapshots, phi=phi, bound=bound, elapsed=elapsed,
    )


@pytest.fixture(scope="module")
def settle_run():
    """150 periods on the arbitrage fixture, audits thinning after 100."""
    params, pool, box, cw = settle_setup()
    template = build_template(params)
    t0 = time.monotonic()
    sim = run_simulation(
        template, cw, box, pool, periods=150, seed=13, keep_planned=0,
        audit_full_until=100, audit_stride=5, track_overall_gap=False,
    )
    elapsed = time.monotonic() - t0
    return SimpleNamespace(
        sim=sim, elapsed=elapsed, template=template, pool=pool, box=box, cw=cw,
    )


# ---------------------------------------------------------------------------
# the ten checks


def test_criterion_01_lp_matches_enumeration(capsys):
    rng = np.random.default_rng(2024)
    failures = []
    t0 = time.monotonic()
    for i in range(500):
        lp = _random_standard_lp(rng)
        want_status, want_obj = solve_by_enumeration(lp.cost, lp.eq_matrix, lp.eq_rhs)
        sol = solve_lp(lp)
        if sol.status is not want_status:
            failures.append(f"instance {i}: {sol.status.name} vs {want_status.name}")
        elif want_status is LPStatus.OPTIMAL and abs(sol.objective - want_obj) > 1e-8:
            failures.append(f"instance {i}: {sol.objective} vs {want_obj}")
    elapsed = time.monotonic() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _verdict(capsys, 1, "lp-matches-enumeration", failures, f"500 instances in {elapsed:.1f}s")


def test_criterion_02_cuts_stay_below_running_average(general_run, capsys):
    r = general_run
    t0 = time.monotonic()
    failures = []
    checks = 0
    for m in range(1, 51):
        cuts, _ = r.snapshots[m - 1]
        for j, w in enumerate(r.probes):
            allowed = r.phi[m - 1, j] + 1e-6 * (1 + abs(r.phi[m - 1, j]))
            for cut in cuts:
                checks += 1
                val = cut.alpha + float((r.cw + cut.beta) @ w)
                if val > allowed:
                    failures.append(
                        f"m={m} birth={cut.birth_period} w={w}: {val} > {allowed}"
                    )
    elapsed = r.elapsed + (time.monotonic() - t0)
    if elapsed >= 120.0:
        failures.append(f"took {elapsed:.1f}s, budget 120s")
    _verdict(capsys, 2, "cuts-stay-below-running-average", failures,
             f"{checks} evaluations in {elapsed:.1f}s")


def test_criterion_03_rescaling_telescopes(general_run, capsys):
    r = general_run
    failures = []
    checks = 0
    for k in range(1, 51):
        birth = r.snapshots[k - 1][0][-1]
        if birth.birth_period != k:
            failures.append(f"snapshot {k}: newest cut born {birth.birth_period}")
            continue
        for p in (k + 1, k + 5, k + 20):
            if p > 50:
                continue
            later = r.snapshots[p - 1][0][k - 1]
            scale = k / p
            for w in r.probes[:10]:
                checks += 1
                want = scale * (birth.alpha + birth.beta @ w)
                got = later.alpha + later.beta @ w
                if abs(got - want) > 1e-9 * (1 + abs(want)):
                    failures.append(f"birth {k} at period {p}: {got} vs {want}")
    _verdict(capsys, 3, "rescaling-telescopes", failures, f"{checks} comparisons")


def test_criterion_04_vertex_bounds_grow_and_stay_below_h(general_run, capsys):
    r = general_run
    failures = []
    for j, (w, d) in enumerate(r.pairs):
        prev = -np.inf
        for m in range(1, 51):
            b = r.bound[m - 1, j]
            if np.isfinite(prev) and b < prev - 1e-8:
                failures.append(f"pair {j} m={m}: {b} < {prev}")
            if np.isfinite(b) and b > r.h_exact[j] + 1e-8:
                failures.append(f"pair {j} m={m}: {b} > h={r.h_exact[j]}")
            prev = max(prev, b)
    _verdict(capsys, 4, "vertex-bounds-grow-and-stay-below-h", failures,
             f"{len(r.pairs)} (w, d) pairs over 50 periods")


def test_criterion_05_settle_convergence(settle_run, capsys):
    r = settle_run
    failures = []
    cache = StageSolveCache(r.template)
    w_star, _ = solve_pool_saa(r.template, r.pool, r.box, r.cw)
    ref_star = reference_cost(r.template, r.pool, r.cw, w_star, cache=cache)
    for m in (10, 20, 40):
        ref_m = reference_cost(
            r.template, r.pool, r.cw, r.sim.records[m - 1].targets, cache=cache
        )
        if ref_m > 1.005 * ref_star:
            failures.append(f"m={m}: reference {ref_m} > 1.005 * {ref_star}")
    for rec in r.sim.records:
        if rec.period >= 60 and rec.current_gap_eps is not None:
            if not rec.current_gap_eps < 0.01:
                failures.append(f"m={rec.period}: eps {rec.current_gap_eps}")
    if r.elapsed >= 300.0:
        failures.append(f"took {r.elapsed:.1f}s, budget 300s")
    _verdict(capsys, 5, "settle-convergence", failures,
             f"150 periods in {r.elapsed:.1f}s, reference ratio checks at 10/20/40")


def test_criterion_06_bound_sandwich(general_run, capsys):
    r = general_run
    failures = []
    for m in range(1, 41):
        _, rec = r.snapshots[m - 1]
        saa_val = solve_saa(r.template, r.state.history[:m], r.box, r.cw)[1]
        tol = 1e-6 * (1 + abs(saa_val))
        if rec.master_bound > saa_val + tol:
            failures.append(f"m={m}: master {rec.master_bound} > SAA {saa_val}")
        if saa_val > rec.running_cost + tol:
            failures.append(f"m={m}: SAA {saa_val} > phi {rec.running_cost}")
    _verdict(capsys, 6, "bound-sandwich", failures, "periods 1..40")


def test_criterion_07_relaxation_order_and_equality(capsys):
    failures = []
    cases = []
    for name, setup, seed in (
        ("general", general_setup, 555),
        ("arbitrage", settle_setup, 556),
    ):
        params, pool, box, cw = setup()
        rng = stream(seed)
        cases.append((name, params, pool, box, cw,
                      [sample_period(pool, rng) for _ in range(10)]))
    params, pool, box, cw = equality_setup()
    cases.append(("equality", params, pool, box, cw, [pool.support[0]] * 10))

    for name, params, pool, box, cw, history in cases:
        template = build_template(params)
        value_np, _ = solve_nonperiodic(template, history, cw)
        _, value_p = solve_saa(template, history, box, cw)
        tol = 1e-6 * (1 + abs(value_p))
        if value_np > value_p + tol:
            failures.append(f"{name}: non-periodic {value_np} > periodic {value_p}")
        if name == "equality":
            if abs(value_np - value_p) > tol:
                failures.append(f"equality gap {value_np - value_p}")
            if abs(value_p - EQUALITY_VALUE) > 1e-7:
                failures.append(f"equality value {value_p} != {EQUALITY_VALUE}")
    _verdict(capsys, 7, "relaxation-order-and-equality", failures, "m=10 on three fixtures")


def test_criterion_08_closed_loop_near_perfect_information(capsys):
    params, pool, box, cw = closed_loop_setup()
    template = build_template(params)
    sim = run_simulation(
        template, cw, box, pool, periods=150, seed=31, forecast_sigma=0.1,
        keep_planned=0, audit_full_until=0, audit_stride=5, track_overall_gap=False,
    )
    realized = sim.state.realized_cost_accum / 150
    _, hindsight = solve_saa(template, sim.state.history, box, cw)
    failures = []
    if not abs(realized - hindsight) <= 0.10 * abs(hindsight):
        failures.append(f"realized {realized} vs hindsight {hindsight}")
    _verdict(capsys, 8, "closed-loop-near-perfect-information", failures,
             f"realized {realized:.2f} vs hindsight {hindsight:.2f}")


def test_criterion_09_targets_settle(settle_run, capsys):
    tail = np.array([rec.targets for rec in settle_run.sim.records[-30:]])
    spread = np.ptp(tail, axis=0)
    failures = []
    if spread.max() > 1e-6:
        failures.append(f"target spread over final 30 periods: {spread}")
    _verdict(capsys, 9, "targets-settle", failures,
             f"spread {spread.max():.2e} around ({tail[-1][0]:.0f}, {tail[-1][1]:.0f})")


def test_criterion_10_full_day_scale(capsys):
    params, pool, box, cw = full_day_setup()
    template = build_template(params)
    t0 = time.monotonic()
    sim = run_simulation(
        template, cw, box, pool, periods=300, seed=7,
        keep_planned=0, audit_full_until=100, audit_stride=5,
        track_overall_gap=False,
    )
    elapsed = time.monotonic() - t0
    failures = []
    if elapsed >= 600.0:
        failures.append(f"took {elapsed:.1f}s, budget 600s")
    if len(sim.state.cuts) != 300:
        failures.append(f"{len(sim.state.cuts)} cuts after 300 periods")
    for rec in sim.records:
        if rec.current_gap_eps is not None and rec.current_gap_eps < -1e-6:
            failures.append(f"m={rec.period}: eps {rec.current_gap_eps}")
        if not np.isfinite(rec.targets_next).all():
            failures.append(f"m={rec.period}: targets {rec.targets_next}")
    _verdict(capsys, 10, "full-day-scale", failures, f"300 periods of n=24 in {elapsed:.1f}s")
