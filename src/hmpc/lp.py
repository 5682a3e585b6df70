"""Dense linear programming core.

Solves LPs in the standard equality form

    min  cost @ y   s.t.   eq_matrix @ y = eq_rhs,   y >= 0

with a revised simplex method: dense LU factorization of the basis,
product-form eta updates between refactorizations, Dantzig pricing with a
Bland's-rule fallback once degenerate pivoting is detected, and a two-phase
start.  One loop takes every pivot: primal pivots while a reduced cost is
negative, then dual pivots while a basic variable is negative, as when
phase 1 leaves one slightly below zero.  Phase 1 runs it on the caller's
matrix: an artificial exists only as a basis entry past its columns,
standing for a unit column with the sign of its row's rhs, so the input
is never rewritten or copied.  A caller may instead hand ``solve_lp`` a
starting basis, such as the optimal basis of the same matrix and costs
under another rhs: the loop starts from it, with no phase 1, when it is
nonsingular and primal or dual feasible.  The optimal basis doubles as a
dual vertex certificate: the returned ``dual`` vector satisfies
``eq_matrix.T @ dual <= cost`` and ``dual @ eq_rhs == objective`` at
optimality, which downstream cut generation relies on.

``canonicalize`` converts the bounded inequality form

    min c @ x   s.t.  A_ub @ x <= b_ub,  A_eq @ x = b_eq,  lb <= x <= ub

into standard form by shifting variables to zero lower bounds, turning
finite upper bounds into rows, and appending slack columns.  Row order in
the canonical problem is: equality rows, general inequality rows, variable
upper-bound rows.  Column order: original variables, inequality slacks,
bound-row slacks.

All selection rules break ties toward the lowest index, so repeated solves
of the same data return bit-identical answers.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.linalg.lapack import dgetrf, dgetrs


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPError(Exception):
    """A malformed LP (shapes, non-finite data, an infinite lower bound)
    or a solve that failed; also raised for a master or extensive form
    that did not come back optimal."""


class NumericalBreakdown(LPError):
    """Factorization or pivoting failed beyond retry limits."""


def _as_array(a, name, ndim):
    a = np.asarray(a, dtype=float)
    if a.ndim != ndim:
        raise LPError(f"{name} must be {ndim}-d, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class StandardLP:
    """min cost@y  s.t.  eq_matrix@y = eq_rhs, y >= 0."""

    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        c = _as_array(self.cost, "cost", 1)
        A = _as_array(self.eq_matrix, "eq_matrix", 2)
        b = _as_array(self.eq_rhs, "eq_rhs", 1)
        if A.shape != (b.size, c.size):
            raise LPError(
                f"eq_matrix shape {A.shape} inconsistent with "
                f"{b.size} rhs entries and {c.size} cost entries"
            )
        for name, arr in (("cost", c), ("eq_matrix", A), ("eq_rhs", b)):
            if not np.all(np.isfinite(arr)):
                raise LPError(f"{name} contains non-finite entries")
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "eq_matrix", np.ascontiguousarray(A))
        object.__setattr__(self, "eq_rhs", b)

    @property
    def n_rows(self) -> int:
        return self.eq_rhs.size

    @property
    def n_cols(self) -> int:
        return self.cost.size


@dataclass
class LPSolution:
    status: LPStatus
    primal: np.ndarray | None = None
    objective: float | None = None
    dual: np.ndarray | None = None
    iterations: int = 0
    dropped_rows: tuple[int, ...] = ()
    basis: np.ndarray | None = None


class _Factor:
    """LU factorization of the basis with product-form eta updates.

    The basis after k pivots is B = B_hat @ E_1 @ ... @ E_k where B_hat is
    the matrix factored at the last refactorization and each
    E = I + (u - e_r) e_r^T replaces basis column r with ftran direction u.
    A basis entry n + i past A's n columns is phase 1's artificial of row
    i, the column sign(b_i) e_i.
    """

    def __init__(self, A: np.ndarray, basis: np.ndarray, b: np.ndarray):
        self.A = A
        self.basis = basis
        self.b = b
        self.etas: list[tuple[int, np.ndarray]] = []
        self.refactor()

    def refactor(self):
        self.lu = None  # so that two factors never live at once
        m, n = self.A.shape
        art = np.flatnonzero(self.basis >= n)
        if art.size == 0:
            B = self.A[:, self.basis]
        else:  # an artificial gathers a stand-in column, then becomes sign_i e_i
            B = self.A[:, np.minimum(self.basis, n - 1)] if n else np.zeros((m, m))
            rows = self.basis[art] - n
            B[:, art] = 0.0
            B[rows, art] = np.where(self.b[rows] < 0, -1.0, 1.0)
        # The gathered basis is a fresh array: factor it in place.  getrf
        # reports an exactly zero pivot of U through info.
        lu, piv, info = dgetrf(B, overwrite_a=True)
        if info > 0:
            raise NumericalBreakdown(
                f"basis factorization failed: Diagonal number {info} is exactly zero. "
                "Singular matrix."
            )
        self.lu = lu, piv
        self.etas.clear()

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve B x = v."""
        x = dgetrs(*self.lu, v)[0]
        for r, u in self.etas:
            t = x[r] / u[r]
            x -= u * t
            x[r] = t
        return x

    def btran(self, v: np.ndarray) -> np.ndarray:
        """Solve B^T y = v."""
        y = np.array(v, dtype=float)
        for r, u in reversed(self.etas):
            y[r] = (y[r] - u @ y + u[r] * y[r]) / u[r]
        return dgetrs(*self.lu, y, trans=1)[0]

    def row(self, r: int) -> np.ndarray:
        """Row r of B^-1 A, zero on the basic columns."""
        e = np.zeros(self.basis.size)
        e[r] = 1.0
        row = self.btran(e) @ self.A
        row[self.basis[self.basis < row.size]] = 0.0
        return row

    def update(self, r: int, u: np.ndarray):
        self.etas.append((r, u.copy()))


# Phase-1 residual, relative to the largest |rhs|, still counted feasible.
_FEAS_TOL = 1e-7
# Reduced costs above -_OPT_TOL * (1 + |c|) count as nonnegative.
_OPT_TOL = 1e-9
# Pivot elements at or below this are treated as zero, and so are those
# at or below this fraction of their column's largest entry when skipping
# them costs no more than _SKIP_TOL of primal feasibility.
_PIVOT_TOL = 1e-9
_SKIP_TOL = 1e-9
# Steps below this count as degenerate for the Bland fallback trigger.
_DEGEN_TOL = 1e-11
_REFACTOR_EVERY = 60
_BLAND_AFTER = 50


def _pivot_floor(largest):
    """Pivots at or below this are tiny beside a direction's `largest` entry."""
    return _PIVOT_TOL * max(1.0, largest)


def _leaving_row(u, x_b, basis, bland):
    """The primal ratio test along direction `u`: the row that leaves, or
    None when no entry of `u` blocks (the direction is a ray)."""
    rows_pos = np.flatnonzero(u > _PIVOT_TOL)
    if rows_pos.size == 0:
        return None
    ratios = np.maximum(x_b[rows_pos], 0.0) / u[rows_pos]
    # Step past rows with a tiny pivot unless that drives one of their
    # variables below -_SKIP_TOL; then every blocking row is a candidate.
    big = u[rows_pos] > _pivot_floor(float(u.max()))
    if not big.all():
        tiny = rows_pos[~big]
        if ratios[big].min() <= ((x_b[tiny] + _SKIP_TOL) / u[tiny]).min():
            rows_pos, ratios = rows_pos[big], ratios[big]
    rmin = ratios.min()
    tie = ratios <= rmin + 1e-9 * (1.0 + rmin)
    cand_rows = rows_pos[tie]
    if bland:
        return int(cand_rows[np.argmin(basis[cand_rows])])
    # Largest pivot magnitude for stability, then lowest row index.
    return int(cand_rows[np.argmax(u[cand_rows])])


def _run_simplex(A, b, c, basis, max_iter, start_iter=0, fact=None):
    """The one pivot loop: primal pivots while a reduced cost is negative;
    once none is, on a fresh factorization, dual pivots while a basic
    variable is below -_SKIP_TOL (the most negative leaves, the dual ratio
    test picks the lowest entering column; a row without one ends the
    loop).  So `basis` may be primal or dual feasible.  Entries of `c` past
    A's columns cost phase 1's artificials: one that leaves never
    re-enters.  `fact`, when given, is a fresh factor of `basis`.  Returns
    (status, factor, x_basic, iterations) and updates `basis` in place."""
    n = A.shape[1]
    if fact is None:
        fact = _Factor(A, basis, b)
    x_b = fact.ftran(b)
    tol_vec = _OPT_TOL * (1.0 + np.abs(c))
    reduced = np.zeros(c.size)  # stays 0 past A's columns: no artificial re-enters
    bland = False
    degen_run = 0
    dual = False  # the last pass found no reduced cost negative
    it = start_iter
    while True:
        if it > max_iter:
            raise NumericalBreakdown(f"iteration limit {max_iter} exceeded")
        fresh = not fact.etas
        pi = fact.btran(c[basis])
        np.subtract(c[:n], A.T @ pi, out=reduced[:n])
        reduced[basis] = 0.0
        viol = reduced < -tol_vec
        if viol.any():
            q = int(np.flatnonzero(viol)[0]) if bland else int(np.argmin(reduced))
            u = fact.ftran(A[:, q])
            r = _leaving_row(u, x_b, basis, bland)
            verdict, dual = LPStatus.UNBOUNDED, False
        else:
            r, q = int(np.argmin(x_b)), None
            if x_b[r] < -_SKIP_TOL and (fresh or dual):
                row = fact.row(r)
                cand = np.flatnonzero(row < -_pivot_floor(float(np.abs(row).max())))
                if cand.size:
                    ratios = np.maximum(reduced[cand], 0.0) / -row[cand]
                    q = int(cand[np.argmin(ratios)])
            verdict, dual = LPStatus.OPTIMAL, True
        if r is None or q is None:
            if fresh:
                return verdict, fact, x_b, it
            # Only trust verdicts on a fresh factorization: the eta chain
            # drifts, and the final dual must be clean.
            fact.refactor()
            x_b = fact.ftran(b)
            continue
        if dual:
            u = fact.ftran(A[:, q])
            step = x_b[r] / u[r]
        else:
            step = max(x_b[r], 0.0) / u[r]
            if step < _DEGEN_TOL:
                degen_run += 1
                if degen_run >= _BLAND_AFTER:
                    bland = True
            else:
                degen_run = 0
                bland = False
        x_b = x_b - step * u
        x_b[r] = step
        basis[r] = q
        fact.update(r, u)
        if len(fact.etas) >= _REFACTOR_EVERY:
            fact.refactor()
            x_b = fact.ftran(b)
        it += 1


def _phase_one(A, b, max_iter):
    """Find a feasible basis of A y = b, y >= 0, without rewriting A or b.

    Row i is seeded by a unit column whose nonzero equals sign(b_i) (+1
    for b_i = 0), or else by its artificial, the basis entry n + i, so the
    start x_B = |b| is feasible and the loop works on A itself. Artificials
    left basic at zero level are pivoted out; a row where none can be is
    linearly dependent and gets dropped. Returns (basis, dropped_rows,
    iterations); the basis indexes the kept rows' columns and is None when
    the problem is infeasible.
    """
    m, n = A.shape
    sign = np.where(b < 0, -1.0, 1.0)
    basis = np.full(m, -1, dtype=int)
    for j in np.flatnonzero((A != 0.0).sum(axis=0) == 1):
        i = int(np.argmax(A[:, j] != 0.0))
        if A[i, j] == sign[i] and basis[i] < 0:
            basis[i] = j
    art_rows = np.flatnonzero(basis < 0)
    if art_rows.size == 0:
        return basis, (), 0
    basis[art_rows] = n + art_rows
    c1 = np.zeros(n + m)
    c1[n:] = 1.0
    status, fact, x_b, iterations = _run_simplex(A, b, c1, basis, max_iter)
    if status is not LPStatus.OPTIMAL:
        raise NumericalBreakdown("phase 1 terminated unbounded")
    art_pos = np.flatnonzero(basis >= n)
    if x_b[art_pos].sum() > _FEAS_TOL * (1.0 + float(np.abs(b).max())):
        return None, (), iterations

    dropped = []
    for pos in art_pos:
        row = fact.row(int(pos))
        # The first column whose pivot is not tiny beside its largest
        # entry, else the first nonzero one: only a dependent row is dropped.
        pivot = None
        for j in np.flatnonzero(np.abs(row) > 1e-8):
            u = fact.ftran(A[:, j])
            if abs(u[pos]) > _pivot_floor(float(np.abs(u).max())):
                pivot = j, u
                break
            if pivot is None and abs(u[pos]) > _PIVOT_TOL:
                pivot = j, u
        if pivot is None:
            dropped.append(int(basis[pos] - n))
        else:
            basis[pos] = pivot[0]
            fact.update(int(pos), pivot[1])
    return basis[basis < n], tuple(sorted(dropped)), iterations


def _warm_start(A, b, c, start, max_iter):
    """Run the loop from `start`, a basis of A's columns, and return what
    it returns; None unless the start is nonsingular and primal or dual
    feasible and the loop ends on a primal feasible basis."""
    m, n = A.shape
    basis = np.array(start, dtype=int)
    if (basis.shape != (m,) or m == 0 or basis.min() < 0 or basis.max() >= n
            or np.unique(basis).size < m):
        return None
    try:
        fact = _Factor(A, basis, b)
    except NumericalBreakdown:
        return None
    if fact.ftran(b).min() < -_SKIP_TOL:
        reduced = c - A.T @ fact.btran(c[basis])
        reduced[basis] = 0.0
        if (reduced < -_OPT_TOL * (1.0 + np.abs(c))).any():
            return None
    status, fact, x_b, iterations = _run_simplex(A, b, c, basis, max_iter, fact=fact)
    if x_b.min() < -_SKIP_TOL:
        return None
    return status, fact, x_b, iterations


def solve_lp(lp: StandardLP, start: np.ndarray | None = None) -> LPSolution:
    """Solve a StandardLP.

    Returns an LPSolution whose ``status`` is OPTIMAL, INFEASIBLE or
    UNBOUNDED.  On OPTIMAL, ``primal``, ``objective``, ``dual`` and
    ``basis`` are set; ``dual`` has one entry per row of ``lp``, in its
    row signs, and zero for rows that phase 1 found linearly dependent and
    dropped (listed in ``dropped_rows``; ``basis`` is then None).
    ``start``, one column index per row, is a basis to begin from, such as
    the ``basis`` of an earlier solve with the same matrix and costs.  It
    is used when it is nonsingular and primal or dual feasible; any other
    start, or one from which the loop ends primal infeasible, runs the
    two-phase solve as if none were given.  The arrays of ``lp`` and
    ``start`` are never written.
    """
    A, b, c = lp.eq_matrix, lp.eq_rhs, lp.cost
    m, n = A.shape
    max_iter = 2000 + 40 * (m + n)
    warm = None if start is None else _warm_start(A, b, c, start, max_iter)
    if warm is not None:
        status, fact, x_b, iterations = warm
        basis, keep, dropped = fact.basis, slice(None), ()
    else:
        basis, dropped, iterations = _phase_one(A, b, max_iter)
        if basis is None:
            return LPSolution(LPStatus.INFEASIBLE, iterations=iterations)
        keep = np.ones(m, dtype=bool)
        keep[list(dropped)] = False
        if dropped:
            A, b = A[keep], b[keep]
        if basis.size == 0:
            # No rows left: optimum 0 at y = 0 unless some cost is negative.
            if (c < -_OPT_TOL * (1 + np.abs(c))).any():
                return LPSolution(LPStatus.UNBOUNDED, iterations=iterations)
            return LPSolution(
                LPStatus.OPTIMAL, np.zeros(n), 0.0, np.zeros(m), iterations, dropped,
                None if dropped else basis,
            )
        status, fact, x_b, iterations = _run_simplex(A, b, c, basis, max_iter, iterations)
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, iterations=iterations)
    primal = np.zeros(n)
    primal[basis] = np.maximum(x_b, 0.0)
    dual = np.zeros(m)
    dual[keep] = fact.btran(c[basis])
    return LPSolution(
        LPStatus.OPTIMAL, primal, float(c @ primal), dual, iterations, dropped,
        None if dropped else basis,
    )


@dataclass(frozen=True)
class GeneralLP:
    """min cost@x  s.t.  ub_matrix@x <= ub_rhs, eq_matrix@x = eq_rhs,
    lower <= x <= upper.  Upper bounds may be +inf; lower bounds must be
    finite (see canonicalize)."""

    cost: np.ndarray
    ub_matrix: np.ndarray
    ub_rhs: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        c = _as_array(self.cost, "cost", 1)
        n = c.size
        Au = _as_array(self.ub_matrix, "ub_matrix", 2)
        bu = _as_array(self.ub_rhs, "ub_rhs", 1)
        Ae = _as_array(self.eq_matrix, "eq_matrix", 2)
        be = _as_array(self.eq_rhs, "eq_rhs", 1)
        lo = _as_array(self.lower, "lower", 1)
        hi = _as_array(self.upper, "upper", 1)
        if Au.shape != (bu.size, n) or Ae.shape != (be.size, n):
            raise LPError("constraint matrix shapes inconsistent with cost")
        if lo.size != n or hi.size != n:
            raise LPError("bound vectors must match variable count")
        if np.any(hi < lo):
            raise LPError("upper bound below lower bound")
        for name, arr in (("cost", c), ("ub_matrix", Au), ("ub_rhs", bu),
                          ("eq_matrix", Ae), ("eq_rhs", be)):
            if not np.all(np.isfinite(arr)):
                raise LPError(f"{name} contains non-finite entries")
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "ub_matrix", Au)
        object.__setattr__(self, "ub_rhs", bu)
        object.__setattr__(self, "eq_matrix", Ae)
        object.__setattr__(self, "eq_rhs", be)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def n_vars(self) -> int:
        return self.cost.size


@dataclass(frozen=True)
class VarMap:
    """Bookkeeping from canonicalize.

    Canonical rows: [0, n_eq) equality rows, [n_eq, n_eq+n_ub) inequality
    rows, then one row per finite upper bound (variable indices in
    ``bound_cols`` order).  Canonical columns: original variables (shifted
    by ``lower``), inequality slacks, bound slacks.
    """

    n_orig: int
    n_eq: int
    n_ub: int
    lower: np.ndarray
    bound_cols: np.ndarray
    objective_offset: float

    def original_primal(self, y: np.ndarray) -> np.ndarray:
        return y[: self.n_orig] + self.lower

    def original_objective(self, std_objective: float) -> float:
        return std_objective + self.objective_offset


def canonicalize(gen: GeneralLP) -> tuple[StandardLP, VarMap]:
    """Convert a GeneralLP into the nonnegative equality standard form.

    Variables are shifted by their (finite) lower bounds, finite upper
    bounds become inequality rows, and every inequality receives a slack
    column with zero cost, so the dual of a slack's row is exactly the
    inequality's multiplier.  Objectives of the two forms differ by
    ``cost @ lower``, recorded as ``VarMap.objective_offset``.
    """
    if not np.all(np.isfinite(gen.lower)):
        raise LPError("all variables need finite lower bounds")
    n = gen.n_vars
    lo = gen.lower
    bound_cols = np.flatnonzero(np.isfinite(gen.upper))
    n_eq = gen.eq_rhs.size
    n_ub = gen.ub_rhs.size
    n_bnd = bound_cols.size
    rows = n_eq + n_ub + n_bnd
    cols = n + n_ub + n_bnd

    A = np.zeros((rows, cols))
    rhs = np.zeros(rows)
    A[:n_eq, :n] = gen.eq_matrix
    rhs[:n_eq] = gen.eq_rhs - gen.eq_matrix @ lo
    A[n_eq:n_eq + n_ub, :n] = gen.ub_matrix
    A[n_eq:n_eq + n_ub, n:n + n_ub] = np.eye(n_ub)
    rhs[n_eq:n_eq + n_ub] = gen.ub_rhs - gen.ub_matrix @ lo
    for k, j in enumerate(bound_cols):
        A[n_eq + n_ub + k, j] = 1.0
        A[n_eq + n_ub + k, n + n_ub + k] = 1.0
        rhs[n_eq + n_ub + k] = gen.upper[j] - lo[j]

    cost = np.zeros(cols)
    cost[:n] = gen.cost
    std = StandardLP(cost=cost, eq_matrix=A, eq_rhs=rhs)
    vmap = VarMap(
        n_orig=n,
        n_eq=n_eq,
        n_ub=n_ub,
        lower=lo.copy(),
        bound_cols=bound_cols.copy(),
        objective_offset=float(gen.cost @ lo),
    )
    return std, vmap


def solve_general(gen: GeneralLP) -> tuple[LPSolution, VarMap]:
    """Canonicalize then solve; objective/primal kept in canonical terms.

    Use ``vmap.original_primal`` / ``vmap.original_objective`` to map back.
    """
    std, vmap = canonicalize(gen)
    return solve_lp(std), vmap
