"""Dense linear programming core.

Solves LPs in the standard equality form

    min  cost @ y   s.t.   eq_matrix @ y = eq_rhs,   y >= 0

with a revised simplex method: dense LU factorization of the basis,
product-form eta updates between refactorizations, Dantzig pricing with a
Bland's-rule fallback once degenerate pivoting is detected, and a two-phase
start with artificial variables.  The optimal basis doubles as a dual vertex
certificate: the returned ``dual`` vector satisfies
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

import warnings
from dataclasses import dataclass, field
from enum import Enum

import numpy as np
from scipy.linalg import LinAlgWarning, lu_factor, lu_solve


class LPStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class LPError(Exception):
    """Base class for solver errors."""


class DimensionMismatch(LPError):
    """Problem arrays have inconsistent shapes or non-finite entries."""


class NumericalBreakdown(LPError):
    """Factorization or pivoting failed beyond retry limits."""


class UnboundedVariable(LPError):
    """canonicalize() requires every variable to have a finite lower bound."""


def _as_2d(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-d, got shape {a.shape}")
    return a


def _as_1d(a, name):
    a = np.asarray(a, dtype=float)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-d, got shape {a.shape}")
    return a


@dataclass(frozen=True)
class StandardLP:
    """min cost@y  s.t.  eq_matrix@y = eq_rhs, y >= 0."""

    cost: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self):
        c = _as_1d(self.cost, "cost")
        A = _as_2d(self.eq_matrix, "eq_matrix")
        b = _as_1d(self.eq_rhs, "eq_rhs")
        if A.shape != (b.size, c.size):
            raise DimensionMismatch(
                f"eq_matrix shape {A.shape} inconsistent with "
                f"{b.size} rhs entries and {c.size} cost entries"
            )
        for name, arr in (("cost", c), ("eq_matrix", A), ("eq_rhs", b)):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatch(f"{name} contains non-finite entries")
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
    """

    def __init__(self, A: np.ndarray, basis: np.ndarray):
        self.A = A
        self.basis = basis
        self.etas: list[tuple[int, np.ndarray]] = []
        self.refactor()

    def refactor(self):
        try:
            # A singular basis only warns (an exactly zero pivot of U).
            with warnings.catch_warnings():
                warnings.simplefilter("error", LinAlgWarning)
                self.lu = lu_factor(self.A[:, self.basis])
        except (LinAlgWarning, ValueError) as exc:  # ValueError: inf or NaN entries
            raise NumericalBreakdown(f"basis factorization failed: {exc}") from exc
        self.etas.clear()

    def ftran(self, v: np.ndarray) -> np.ndarray:
        """Solve B x = v."""
        x = lu_solve(self.lu, v, check_finite=False)
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
        return lu_solve(self.lu, y, trans=1, check_finite=False)

    def update(self, r: int, u: np.ndarray):
        self.etas.append((r, u.copy()))


# Phase-1 residual, relative to the largest |rhs|, still counted feasible.
_FEAS_TOL = 1e-7
# Reduced costs above -_OPT_TOL * (1 + |c|) count as nonnegative.
_OPT_TOL = 1e-9
# Pivot element magnitudes below this are treated as zero in ratio tests.
_PIVOT_TOL = 1e-9
# Steps below this count as degenerate for the Bland fallback trigger.
_DEGEN_TOL = 1e-11
_REFACTOR_EVERY = 60
_BLAND_AFTER = 50


def _run_simplex(A, b, c, basis, max_iter, start_iter=0):
    """Phase core: iterate from a basic feasible `basis` until optimal or
    unbounded. Returns (status, factor, x_basic, iterations)."""
    m, n = A.shape
    fact = _Factor(A, basis)
    x_b = fact.ftran(b)
    tol_vec = _OPT_TOL * (1.0 + np.abs(c))
    bland = False
    degen_run = 0
    it = start_iter
    while True:
        if it > max_iter:
            raise NumericalBreakdown(f"iteration limit {max_iter} exceeded")
        fresh = not fact.etas
        pi = fact.btran(c[basis])
        reduced = c - A.T @ pi
        reduced[basis] = 0.0
        viol = reduced < -tol_vec
        if not viol.any():
            if fresh:
                return LPStatus.OPTIMAL, fact, x_b, it
            # Only trust optimality verdicts on a fresh factorization: the
            # eta chain drifts, and the final dual must be clean.
            fact.refactor()
            x_b = fact.ftran(b)
            continue
        if bland:
            q = int(np.flatnonzero(viol)[0])
        else:
            q = int(np.argmin(reduced))
        u = fact.ftran(A[:, q])
        pos = u > _PIVOT_TOL
        if not pos.any():
            if fresh:
                return LPStatus.UNBOUNDED, fact, x_b, it
            fact.refactor()
            x_b = fact.ftran(b)
            continue
        ratios = np.maximum(x_b[pos], 0.0) / u[pos]
        rows_pos = np.flatnonzero(pos)
        rmin = ratios.min()
        tie = ratios <= rmin + 1e-9 * (1.0 + rmin)
        cand_rows = rows_pos[tie]
        if bland:
            r = int(cand_rows[np.argmin(basis[cand_rows])])
        else:
            # Largest pivot magnitude for stability, then lowest row index.
            r = int(cand_rows[np.argmax(u[cand_rows])])
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


def _crash_basis(A, b, n):
    """Unit columns (slacks) seed the start basis; artificial columns fill
    the remaining rows. Returns (A_aug, c_phase1, basis, artificial_rows)."""
    m = A.shape[0]
    basis = np.full(m, -1, dtype=int)
    col_nnz = (A != 0.0).sum(axis=0)
    unit_cols = np.flatnonzero(col_nnz == 1)
    for j in unit_cols:
        i = int(np.argmax(A[:, j] != 0.0))
        if A[i, j] == 1.0 and basis[i] < 0:
            basis[i] = j
    art_rows = np.flatnonzero(basis < 0)
    n_art = art_rows.size
    A_aug = np.hstack([A, np.zeros((m, n_art))])
    for k, i in enumerate(art_rows):
        A_aug[i, n + k] = 1.0
        basis[i] = n + k
    c1 = np.zeros(n + n_art)
    c1[n:] = 1.0
    return np.ascontiguousarray(A_aug), c1, basis, art_rows


def solve_lp(lp: StandardLP) -> LPSolution:
    """Solve a StandardLP.

    Returns an LPSolution whose ``status`` is OPTIMAL, INFEASIBLE or
    UNBOUNDED.  On OPTIMAL, ``primal``, ``objective``, ``dual`` and
    ``basis`` are set; ``dual`` has one entry per original row (zero for
    rows dropped as linearly dependent, listed in ``dropped_rows``).
    Linearly dependent consistent rows are detected in phase 1 and dropped
    with a warning entry in ``dropped_rows``.
    """
    c_orig = lp.cost
    A = lp.eq_matrix.copy()
    b = lp.eq_rhs.copy()
    m, n = A.shape
    max_iter = 2000 + 40 * (m + n)

    if m == 0:
        # No constraints: optimum 0 at y = 0 unless some cost is negative.
        if (c_orig < -_OPT_TOL * (1 + np.abs(c_orig))).any():
            return LPSolution(LPStatus.UNBOUNDED)
        return LPSolution(
            LPStatus.OPTIMAL, np.zeros(n), 0.0, np.zeros(0), 0, (), np.zeros(0, int)
        )

    # Phase 1 wants nonnegative rhs; remember flipped rows to unflip duals.
    flip = b < 0
    A[flip] *= -1.0
    b[flip] *= -1.0

    A1, c1, basis, art_rows = _crash_basis(A, b, n)
    iterations = 0
    drop_rows: list[int] = []
    if (basis >= n).any():
        status, fact, x_b, iterations = _run_simplex(A1, b, c1, basis, max_iter)
        if status is not LPStatus.OPTIMAL:
            raise NumericalBreakdown("phase 1 terminated unbounded")
        art_pos = np.flatnonzero(basis >= n)
        art_sum = float(x_b[art_pos].sum()) if art_pos.size else 0.0
        if art_sum > _FEAS_TOL * (1.0 + float(np.abs(b).max(initial=0.0))):
            return LPSolution(LPStatus.INFEASIBLE, iterations=iterations)

        # Pivot residual zero-level artificials out; a position whose
        # simplex row is zero over all real columns marks a linearly
        # dependent row, which gets dropped.
        for pos in art_pos:
            rho = fact.btran(_unit(m, pos))
            row = rho @ A
            basic_set = set(int(j) for j in basis if j < n)
            row[list(basic_set)] = 0.0
            pivoted = False
            for j in np.flatnonzero(np.abs(row) > 1e-8):
                u = fact.ftran(A[:, int(j)])
                if abs(u[pos]) > _PIVOT_TOL:
                    basis[pos] = int(j)
                    fact.update(int(pos), u)
                    pivoted = True
                    break
            if not pivoted:
                drop_rows.append(int(art_rows[basis[pos] - n]))

    dropped: tuple[int, ...] = ()
    if drop_rows:
        dropped = tuple(sorted(drop_rows))
        keep_mask = np.ones(m, dtype=bool)
        keep_mask[list(dropped)] = False
        new_basis = [int(j) for j in basis if j < n]
        A = np.ascontiguousarray(A[keep_mask])
        b = b[keep_mask]
        flip = flip[keep_mask]
        if A.shape[0] != len(new_basis):
            raise NumericalBreakdown("row drop left an inconsistent basis")
        basis = np.array(new_basis, dtype=int)
        if A.shape[0] == 0:
            if (c_orig < -_OPT_TOL * (1 + np.abs(c_orig))).any():
                return LPSolution(LPStatus.UNBOUNDED, iterations=iterations)
            return LPSolution(
                LPStatus.OPTIMAL, np.zeros(n), 0.0, np.zeros(m), iterations,
                dropped, basis,
            )

    status, fact, x_b, iterations = _run_simplex(
        A, b, c_orig, basis, max_iter, start_iter=iterations
    )
    if status is LPStatus.UNBOUNDED:
        return LPSolution(LPStatus.UNBOUNDED, iterations=iterations)

    primal = np.zeros(n)
    primal[basis] = np.maximum(x_b, 0.0)
    objective = float(c_orig @ primal)
    pi = fact.btran(c_orig[basis])
    # Undo row flips and reinsert zeros for dropped rows.
    pi = np.where(flip, -pi, pi)
    if dropped:
        full = np.zeros(m)
        keep_mask = np.ones(m, dtype=bool)
        keep_mask[list(dropped)] = False
        full[keep_mask] = pi
        pi = full
    return LPSolution(
        LPStatus.OPTIMAL, primal, objective, pi, iterations, dropped, basis.copy()
    )


def _unit(m, i):
    e = np.zeros(m)
    e[i] = 1.0
    return e


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
        c = _as_1d(self.cost, "cost")
        n = c.size
        Au = _as_2d(self.ub_matrix, "ub_matrix")
        bu = _as_1d(self.ub_rhs, "ub_rhs")
        Ae = _as_2d(self.eq_matrix, "eq_matrix")
        be = _as_1d(self.eq_rhs, "eq_rhs")
        lo = _as_1d(self.lower, "lower")
        hi = _as_1d(self.upper, "upper")
        if Au.shape != (bu.size, n) or Ae.shape != (be.size, n):
            raise DimensionMismatch("constraint matrix shapes inconsistent with cost")
        if lo.size != n or hi.size != n:
            raise DimensionMismatch("bound vectors must match variable count")
        if np.any(hi < lo):
            raise DimensionMismatch("upper bound below lower bound")
        for name, arr in (("cost", c), ("ub_matrix", Au), ("ub_rhs", bu),
                          ("eq_matrix", Ae), ("eq_rhs", be)):
            if not np.all(np.isfinite(arr)):
                raise DimensionMismatch(f"{name} contains non-finite entries")
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
        raise UnboundedVariable("all variables need finite lower bounds")
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
