"""Solver unit tests: simplex core, duality certificates, canonicalization."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, reject, settings, strategies as st
from hypothesis.extra import numpy as hnp
from scipy.optimize import linprog

from bruteforce import solve_by_enumeration
from fixtures import full_day_setup, settle_setup
from hmpc.lp import (
    GeneralLP,
    LPError,
    LPStatus,
    NumericalBreakdown,
    StandardLP,
    _Factor,
    _phase_one,
    _run_simplex,
    canonicalize,
    solve_lp,
)
from hmpc import oracle
from hmpc.battery import build_template
from hmpc.stage import build_stage

HIGHS_STATUS = {0: LPStatus.OPTIMAL, 2: LPStatus.INFEASIBLE, 3: LPStatus.UNBOUNDED}


def test_two_variable_vertex_optimum():
    """min -x1 - 2 x2  s.t.  x1 + x2 + s = 4, x >= 0: optimum at x2 = 4."""
    lp = StandardLP(
        cost=np.array([-1.0, -2.0, 0.0]),
        eq_matrix=np.array([[1.0, 1.0, 1.0]]),
        eq_rhs=np.array([4.0]),
    )
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(-8.0, abs=1e-10)
    np.testing.assert_allclose(sol.primal, [0.0, 4.0, 0.0], atol=1e-9)
    # Dual of the single row prices the binding resource.
    assert sol.dual[0] == pytest.approx(-2.0, abs=1e-10)


def test_infeasible_negative_rhs():
    """x1 + x2 = -1 with x >= 0 has no solution."""
    lp = StandardLP(
        cost=np.array([1.0, 1.0]),
        eq_matrix=np.array([[1.0, 1.0]]),
        eq_rhs=np.array([-1.0]),
    )
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


def test_unbounded_ray():
    """min -x1 with x1 - x2 = 0: the ray (t, t) decreases cost forever."""
    lp = StandardLP(
        cost=np.array([-1.0, 0.0]),
        eq_matrix=np.array([[1.0, -1.0]]),
        eq_rhs=np.array([0.0]),
    )
    assert solve_lp(lp).status is LPStatus.UNBOUNDED


def test_degenerate_problem_terminates():
    """Multiple rows active at the optimum; Bland fallback must not cycle."""
    A = np.array(
        [
            [1.0, 1.0, 1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 1.0, 0.0, 0.0, 1.0],
        ]
    )
    lp = StandardLP(
        cost=np.array([-1.0, -1.0, 0.0, 0.0, 0.0]),
        eq_matrix=A,
        eq_rhs=np.array([1.0, 1.0, 1.0]),
    )
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(-1.0, abs=1e-9)


def test_duplicate_row_dropped_with_zero_dual():
    lp = StandardLP(
        cost=np.array([1.0, 2.0]),
        eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
        eq_rhs=np.array([3.0, 6.0]),
    )
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.objective == pytest.approx(3.0, abs=1e-9)
    assert len(sol.dropped_rows) == 1
    assert sol.dual[sol.dropped_rows[0]] == 0.0
    assert sol.basis is None  # it would index the kept rows only
    # The surviving multiplier still certifies the objective.
    assert sol.dual @ lp.eq_rhs == pytest.approx(sol.objective, abs=1e-9)


def test_inconsistent_duplicate_row_infeasible():
    lp = StandardLP(
        cost=np.array([1.0, 2.0]),
        eq_matrix=np.array([[1.0, 1.0], [2.0, 2.0]]),
        eq_rhs=np.array([3.0, 7.0]),
    )
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


@pytest.mark.parametrize("b, status", [([0.0, 0.0], LPStatus.OPTIMAL),
                                       ([1.0, 0.0], LPStatus.INFEASIBLE)])
def test_lp_without_columns(b, status):
    """Only artificials make up phase 1's basis; zero rows are dropped."""
    sol = solve_lp(StandardLP(cost=np.zeros(0), eq_matrix=np.zeros((2, 0)),
                              eq_rhs=np.array(b)))
    assert sol.status is status
    if status is LPStatus.OPTIMAL:
        assert sol.dropped_rows == (0, 1) and sol.objective == 0.0


def test_shape_validation():
    with pytest.raises(LPError, match=r"eq_matrix shape \(1, 2\) inconsistent"):
        StandardLP(
            cost=np.array([1.0]),
            eq_matrix=np.array([[1.0, 2.0]]),
            eq_rhs=np.array([1.0]),
        )
    with pytest.raises(LPError, match="cost contains non-finite entries"):
        StandardLP(
            cost=np.array([np.nan]),
            eq_matrix=np.array([[1.0]]),
            eq_rhs=np.array([1.0]),
        )


def _random_standard_lp(rng, max_vars=8, max_rows=4):
    n = int(rng.integers(1, max_vars + 1))
    m = int(rng.integers(1, max_rows + 1))
    A = rng.integers(-5, 6, size=(m, n)).astype(float)
    b = rng.integers(-5, 6, size=m).astype(float)
    c = rng.integers(-5, 6, size=n).astype(float)
    return StandardLP(cost=c, eq_matrix=A, eq_rhs=b)


def test_matches_enumeration_on_random_batch():
    """Status and objective agree with basis enumeration on 200 small LPs."""
    rng = np.random.default_rng(42)
    for _ in range(200):
        lp = _random_standard_lp(rng)
        want_status, want_obj = solve_by_enumeration(lp.cost, lp.eq_matrix, lp.eq_rhs)
        sol = solve_lp(lp)
        assert sol.status is want_status, (lp.cost, lp.eq_matrix, lp.eq_rhs)
        if want_status is LPStatus.OPTIMAL:
            assert sol.objective == pytest.approx(want_obj, abs=1e-8)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_optimal_solutions_carry_duality_certificates(seed):
    """On every optimal solve: primal feasible, dual feasible, zero gap."""
    rng = np.random.default_rng(seed)
    lp = _random_standard_lp(rng, max_vars=7, max_rows=4)
    sol = solve_lp(lp)
    if sol.status is not LPStatus.OPTIMAL:
        return
    res = lp.eq_matrix @ sol.primal - lp.eq_rhs
    assert np.abs(res).max() < 1e-7
    assert sol.primal.min() > -1e-9
    slack = lp.cost - lp.eq_matrix.T @ sol.dual
    assert slack.min() > -1e-7
    assert sol.dual @ lp.eq_rhs == pytest.approx(sol.objective, abs=1e-7)


def test_canonicalize_shifts_bounds_into_rows():
    """{min x : -1 <= x <= 1} -> min (y - 1) with y + s = 2."""
    gen = GeneralLP(
        cost=np.array([1.0]),
        ub_matrix=np.zeros((0, 1)),
        ub_rhs=np.zeros(0),
        eq_matrix=np.zeros((0, 1)),
        eq_rhs=np.zeros(0),
        lower=np.array([-1.0]),
        upper=np.array([1.0]),
    )
    std, vmap = canonicalize(gen)
    np.testing.assert_allclose(std.eq_matrix, [[1.0, 1.0]])
    np.testing.assert_allclose(std.eq_rhs, [2.0])
    sol = solve_lp(std)
    assert sol.status is LPStatus.OPTIMAL
    assert vmap.original_objective(sol.objective) == pytest.approx(-1.0)
    np.testing.assert_allclose(vmap.original_primal(sol.primal), [-1.0])


def test_canonicalize_requires_finite_lower_bounds():
    gen = GeneralLP(
        cost=np.array([1.0]),
        ub_matrix=np.zeros((0, 1)),
        ub_rhs=np.zeros(0),
        eq_matrix=np.zeros((0, 1)),
        eq_rhs=np.zeros(0),
        lower=np.array([-np.inf]),
        upper=np.array([1.0]),
    )
    with pytest.raises(LPError, match="all variables need finite lower bounds"):
        canonicalize(gen)


def test_slack_dual_equals_inequality_multiplier():
    """max x1 + x2 (as min of negative) s.t. x1 + 2 x2 <= 4, 3 x1 + x2 <= 6.

    Optimum at the row intersection x = (8/5, 6/5); multipliers solve
    [1 3; 2 1] pi = c, giving pi = (-2/5, -1/5) in min convention."""
    gen = GeneralLP(
        cost=np.array([-1.0, -1.0]),
        ub_matrix=np.array([[1.0, 2.0], [3.0, 1.0]]),
        ub_rhs=np.array([4.0, 6.0]),
        eq_matrix=np.zeros((0, 2)),
        eq_rhs=np.zeros(0),
        lower=np.zeros(2),
        upper=np.array([np.inf, np.inf]),
    )
    std, vmap = canonicalize(gen)
    sol = solve_lp(std)
    assert sol.status is LPStatus.OPTIMAL
    assert vmap.original_objective(sol.objective) == pytest.approx(-14.0 / 5.0)
    np.testing.assert_allclose(sol.dual, [-2.0 / 5.0, -1.0 / 5.0], atol=1e-9)
    # Inequality duals of a min problem are nonpositive by construction:
    # the slack column (cost 0) prices the row.
    assert (sol.dual <= 1e-12).all()


def test_canonical_row_and_column_layout():
    gen = GeneralLP(
        cost=np.array([1.0, 2.0, 3.0]),
        ub_matrix=np.array([[1.0, 1.0, 0.0]]),
        ub_rhs=np.array([5.0]),
        eq_matrix=np.array([[0.0, 1.0, 1.0]]),
        eq_rhs=np.array([2.0]),
        lower=np.array([0.0, -1.0, 0.0]),
        upper=np.array([np.inf, 2.0, 4.0]),
    )
    std, vmap = canonicalize(gen)
    # Rows: 1 equality, 1 inequality, 2 bound rows; columns: 3 + 1 + 2.
    assert std.eq_matrix.shape == (4, 6)
    assert vmap.n_eq == 1 and vmap.n_ub == 1
    np.testing.assert_array_equal(vmap.bound_cols, [1, 2])
    # Equality rhs shifted by the lower bound of x2.
    assert std.eq_rhs[0] == pytest.approx(3.0)
    assert vmap.objective_offset == pytest.approx(-2.0)


def test_singular_basis_raises_instead_of_returning_nan():
    # Columns 0 and 1 are equal, so that basis has an exactly zero pivot.
    A = np.array([[1.0, 1.0, 0.0], [2.0, 2.0, 1.0]])
    with pytest.raises(NumericalBreakdown, match="exactly zero"):
        _Factor(A, np.array([0, 1]), np.zeros(2))
    _Factor(A, np.array([0, 2]), np.zeros(2))


@pytest.mark.parametrize(
    "A, b, c, value",
    [
        # The entering column's large entry is negative: the row with the
        # small positive one still blocks, at x3 = 0.2.
        ([[1, 0, -1e10], [0, 1, 5]], [1, 1], [0, 0, -1], -0.2),
        # Stepping past the pivot 1e-2 (1e-12 of the column) would drive
        # the second slack to -9e-3: the row blocks, at x3 = 0.1.
        ([[1, 0, 1e10], [0, 1, 1e-2]], [1e10, 1e-3], [0, 0, -1], -0.1),
        # The artificial of row 2 leaves on a pivot 1e-10 of its column;
        # dropping the row instead would give y = (0, 1e-10) and 0.
        ([[1, 1e10], [0, -1]], [1, 0], [1, 0], 1.0),
    ],
    ids=["negative-large-entry", "tiny-binding-pivot", "tiny-drive-out-pivot"],
)
def test_relative_pivot_floor_keeps_the_answer(A, b, c, value):
    lp = StandardLP(cost=np.array(c, float), eq_matrix=np.array(A, float),
                    eq_rhs=np.array(b, float))
    sol = solve_lp(lp)
    assert sol.status is LPStatus.OPTIMAL
    assert sol.dropped_rows == ()
    assert sol.objective == pytest.approx(value, rel=1e-12)
    absA = np.abs(lp.eq_matrix)
    assert (np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs)
            <= 1e-12 * (absA @ sol.primal + np.abs(lp.eq_rhs))).all()
    assert lp.eq_rhs @ sol.dual == pytest.approx(value, rel=1e-12)


@pytest.mark.xfail(strict=True, reason="tolerances are absolute, not scaled by column")
def test_absolute_tolerances_misjudge_a_1e9_column():
    """With x0 basic in row 1, x3's direction is (1e-9, 1): the absolute
    pivot tolerance ignores row 1, so x0 ends at -1e-9 and is clipped to 0,
    which leaves row 1 short by 1 and prices x5 at 0 instead of 1."""
    lp = StandardLP(
        cost=np.array([0, 0, 0, 0, 0, 1.0]),
        eq_matrix=np.array([[1e9, 0, 0, 1, 0, -1], [0, 0, 0, 1, 0, 0.0]]),
        eq_rhs=np.array([0, 1.0]),
    )
    sol = solve_lp(lp)
    assert sol.objective == pytest.approx(1.0)


@pytest.mark.xfail(strict=True, raises=NumericalBreakdown,
                   reason="tolerances are absolute, not scaled by column")
def test_phase_one_takes_a_round_off_pivot_on_a_5e6_column():
    """HiGHS finds this LP infeasible.  Phase 1's fifth pivot is a
    round-off 1.1e-9 beside entries of -2.5e6 in the same direction, and
    the next refactorization finds the basis singular."""
    lp = StandardLP(
        cost=np.zeros(8),
        eq_matrix=np.array([
            [0, 0, 0, 0, 0, 0, -1, 0],
            [-3, 0, 5e6, 0, -4, 0, 0, 0],
            [-2, 0, 0, 0, 2, 0, 0, -1],
            [4, 0, -5e6, 0, 4, 0, 0, 0],
            [-6, 0, 0, 0, 6, 0, 0, -3],
        ]),
        eq_rhs=np.array([0, -1, -1, -1, -3.0]),
    )
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


def test_phase_one_calls_a_3e6_column_unbounded():
    """HiGHS finds this LP infeasible.  Phase 1 called itself unbounded
    while it let an artificial that had left the basis enter again."""
    lp = StandardLP(
        cost=np.zeros(2),
        eq_matrix=np.array([[-3e6, 1], [3e6, -1], [-9e6, 3.0]]),
        eq_rhs=np.array([0, 0, 1.0]),
    )
    assert solve_lp(lp).status is LPStatus.INFEASIBLE


@st.composite
def mixed_sign_lps(draw):
    """Small LPs with mixed-sign rhs, +-1 unit columns, duplicated rows and
    one column scaled by up to 1e6.  The absolute tolerances misjudge a
    few of these too: about one run of the test in 12 to 24 draws such an
    LP (the strict xfail above pins one with a 5e6 column), and more once
    the scale passes 1e6; see ROADMAP item 11."""
    m = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    small = st.integers(-5, 5).map(float)
    A = draw(hnp.arrays(float, (m, n), elements=small))
    b = draw(hnp.arrays(float, m, elements=small))
    units = draw(st.lists(st.sampled_from([-1.0, 0.0, 1.0]), min_size=m, max_size=m))
    A = np.hstack([A, np.diag(units)[:, np.flatnonzero(units)]])
    for src, factor, shift in draw(st.lists(
        st.tuples(st.integers(0, m - 1), st.sampled_from([-2.0, -1.0, 1.0, 3.0]),
                  st.sampled_from([0.0, 0.0, 1.0])),
        max_size=2,
    )):
        A = np.vstack([A, factor * A[src]])
        b = np.append(b, factor * b[src] + shift)
    A[:, draw(st.integers(0, A.shape[1] - 1))] *= 10.0 ** draw(st.integers(0, 6))
    c = draw(hnp.arrays(float, A.shape[1], elements=small))
    return StandardLP(cost=c, eq_matrix=A, eq_rhs=b)


def _assert_agrees_with_highs(lp, start=None):
    """Solve `lp` from `start`; check it against HiGHS, its own primal and
    dual, and its input.  Returns the solution."""
    before = [a.copy() for a in (lp.cost, lp.eq_matrix, lp.eq_rhs)]
    sol = solve_lp(lp, start=start)
    for was, now in zip(before, (lp.cost, lp.eq_matrix, lp.eq_rhs)):
        np.testing.assert_array_equal(now, was)
    # HiGHS's simplex can end with model status Unknown (linprog status
    # 4); its interior-point method then gives the verdict.
    for method in ("highs", "highs-ipm"):
        ref = linprog(lp.cost, A_eq=lp.eq_matrix, b_eq=lp.eq_rhs, bounds=(0, None), method=method)
        if ref.status in HIGHS_STATUS:
            break
    else:
        pytest.fail(f"HiGHS gives no verdict: {ref.message}")
    assert sol.status is HIGHS_STATUS[ref.status], ref.message
    if sol.status is not LPStatus.OPTIMAL:
        return sol
    scale = max(1.0, abs(ref.fun))
    assert abs(sol.objective - ref.fun) <= 1e-7 * scale
    # Rounding, plus a basic variable up to 1e-8 below zero that the
    # solver clipped (on a 1e9 column that alone leaves a residual of 10).
    absA = np.abs(lp.eq_matrix)
    tol = 1e-7 * (1.0 + absA @ sol.primal + np.abs(lp.eq_rhs)) + 1e-8 * absA.sum(axis=1)
    assert (np.abs(lp.eq_matrix @ sol.primal - lp.eq_rhs) <= tol).all()
    slack = lp.cost - lp.eq_matrix.T @ sol.dual
    assert slack.min() >= -1e-7 * (1.0 + np.abs(lp.cost).max())
    assert abs(lp.eq_rhs @ sol.dual - sol.objective) <= 1e-7 * scale
    assert (sol.dual[list(sol.dropped_rows)] == 0.0).all()
    return sol


@settings(max_examples=200, deadline=None)
@given(mixed_sign_lps())
# HiGHS's simplex returns status 4 (model status Unknown) here; infeasible
# by its interior-point method and by solve_lp.
@example(StandardLP(
    cost=np.zeros(6),
    eq_matrix=np.array([
        [4.0, -5e6, 1.0, 0.0, 0.0, -1.0],
        [0.0, 2e6, 1.0, 0.0, 1.0, 0.0],
        [0.0, 1e6, -1.0, -1.0, 3.0, 0.0],
        [-1.0, 3e6, 2.0, 0.0, 0.0, 0.0],
    ]),
    eq_rhs=np.array([0.0, 1.0, 0.0, 3.0]),
))
def test_random_lps_agree_with_highs(lp):
    _assert_agrees_with_highs(lp)


@st.composite
def rhs_pairs(draw):
    """An LP of ``mixed_sign_lps`` and the same A and c with another rhs."""
    lp = draw(mixed_sign_lps())
    b = draw(hnp.arrays(float, lp.n_rows, elements=st.integers(-5, 5).map(float)))
    return lp, StandardLP(cost=lp.cost, eq_matrix=lp.eq_matrix, eq_rhs=b)


@settings(max_examples=150, deadline=None)
@given(rhs_pairs())
def test_a_start_from_another_rhs_agrees_with_the_cold_solve_and_highs(pair):
    """The optimal basis under one rhs stays dual feasible under another,
    so the solve restarts from it; it must reach the cold solve's verdict
    and value, and an infeasible rhs must still come back infeasible."""
    lp, other = pair
    try:
        first, cold = solve_lp(lp), solve_lp(other)
    except NumericalBreakdown:
        # Phase 1 on a scaled column, the fault of the strict xfails above;
        # this test is about the start, not about the cold path.
        reject()
    assume(first.status is LPStatus.OPTIMAL and first.basis is not None)
    start = first.basis.copy()
    warm = _assert_agrees_with_highs(other, start=start)
    np.testing.assert_array_equal(start, first.basis)
    assert warm.status is cold.status
    if cold.status is LPStatus.OPTIMAL:
        assert abs(warm.objective - cold.objective) <= 1e-7 * max(1.0, abs(cold.objective))


# With cost (0, 0, -1, 0): min -y2  s.t.  y0 + y2 = 1,  y1 - y3 = b1.
_UNIT_PAIR = [[1.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, -1.0]]


@pytest.mark.parametrize("A, b, start", [
    # Columns 0 and 1 are equal: the start is singular.
    ([[1.0, 1.0, 0.0, 1.0], [2.0, 2.0, 1.0, 0.0]], [1.0, 1.0], [0, 1]),
    # y0 = 1, y1 = -1 and y2 prices at -1: neither primal nor dual feasible.
    (_UNIT_PAIR, [1.0, -1.0], [0, 1]),
    # Not a basis: too short, repeated, or past A's columns.
    (_UNIT_PAIR, [1.0, -1.0], [0]),
    (_UNIT_PAIR, [1.0, -1.0], [2, 2]),
    (_UNIT_PAIR, [1.0, -1.0], [0, 4]),
], ids=["singular", "neither-feasible", "short", "repeated", "out-of-range"])
def test_an_unusable_start_gives_the_cold_solve_bit_for_bit(A, b, start):
    lp = StandardLP(cost=np.array([0.0, 0.0, -1.0, 0.0]), eq_matrix=np.array(A),
                    eq_rhs=np.array(b))
    cold, warm = solve_lp(lp), solve_lp(lp, start=np.array(start))
    assert cold.status is warm.status is LPStatus.OPTIMAL
    for field in ("primal", "dual", "basis"):
        np.testing.assert_array_equal(getattr(warm, field), getattr(cold, field))
    assert (warm.objective, warm.iterations) == (cold.objective, cold.iterations)


@pytest.fixture(scope="module")
def full_day():
    params, pool, box, _ = full_day_setup()
    return build_template(params), pool, box


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 4), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_stage_lps_agree_with_highs(full_day, day, f0, f1):
    template, pool, box = full_day
    w = box[:, 0] + np.array([f0, f1]) * (box[:, 1] - box[:, 0])
    _assert_agrees_with_highs(build_stage(template, w, pool.support[day]))


def test_stage_lp_pays_its_penalty_past_a_phase_one_round_off():
    """On the arbitrage fixture just below the 810 kink, phase 1 hands
    over a basis with a basic variable at -7.4e-7 that phase 2 finds
    optimal as it is; clipping it to zero skipped about 14.8 of elastic
    penalty in every class (45.0 against HiGHS's 59.8, and so on)."""
    params, pool, _, _ = settle_setup()
    template = build_template(params)
    w = np.array([180.0, 809.99999963])
    for d in pool.support:
        _assert_agrees_with_highs(build_stage(template, w, d))


def _pool_saa_lp(full_day, monkeypatch):
    """The canonical LP of `solve_pool_saa` over the full-day pool's five
    days (1867 x 2239), captured instead of solved."""
    template, pool, box = full_day
    captured = []

    def capture(gen):
        captured.append(gen)
        raise StopIteration

    monkeypatch.setattr(oracle, "solve_general", capture)
    with pytest.raises(StopIteration):
        oracle.solve_pool_saa(template, pool, box, full_day_setup()[3])
    return canonicalize(captured[0])[0]


def _assert_solve_memory_stays_near_the_matrix(lp):
    tracemalloc.start()
    try:
        solve_lp(lp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * lp.eq_matrix.nbytes


def test_stage_solve_memory_stays_near_the_matrix(full_day):
    """A solve holds one basis factor and vectors beside the caller's
    matrix: no working copy, no widened phase-1 matrix, no two factors."""
    template, pool, box = full_day
    _assert_solve_memory_stays_near_the_matrix(
        build_stage(template, box.mean(axis=1), pool.support[0]))


def test_pool_saa_solve_memory_stays_near_the_matrix(full_day, monkeypatch):
    _assert_solve_memory_stays_near_the_matrix(_pool_saa_lp(full_day, monkeypatch))


def test_restart_from_an_optimal_basis_at_other_targets(full_day):
    """An optimal basis at one target is dual feasible at any other, since
    targets move only the rhs.  The loop restarts from it with dual
    pivots and ends where a cold solve at the new target does."""
    template, pool, box = full_day
    rng = np.random.default_rng(7)
    for _ in range(12):
        day = pool.support[int(rng.integers(len(pool.support)))]
        w1, w2 = box[:, 0] + rng.random((2, 2)) * (box[:, 1] - box[:, 0])
        lp1, lp2 = build_stage(template, w1, day), build_stage(template, w2, day)
        A, c = lp1.eq_matrix, lp1.cost
        max_iter = 2000 + 40 * sum(A.shape)
        basis, dropped, _ = _phase_one(A, lp1.eq_rhs, max_iter)
        assert dropped == ()
        _run_simplex(A, lp1.eq_rhs, c, basis, max_iter)
        start = basis.copy()
        assert np.linalg.solve(A[:, basis], lp2.eq_rhs).min() < -1e-9
        status, _, x_b, _ = _run_simplex(A, lp2.eq_rhs, c, basis, max_iter)
        assert status is LPStatus.OPTIMAL
        assert x_b.min() >= -1e-9
        cold = solve_lp(lp2)
        assert c[basis] @ x_b == pytest.approx(cold.objective, rel=1e-7)
        # solve_lp takes the same restart when handed the basis.
        warm = solve_lp(lp2, start=start)
        assert warm.iterations < cold.iterations
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)
