"""Dual-vertex store, retroactive cuts, and the target master problem.

After period m the expected period cost phi(w) = c_w'w + E[h(w, D)] is
known only through its sampled history.  Each completed period donates
one dual vertex; one new cut per period is assembled from the stored
vertices and every older cut is shrunk by (m-1)/m, which keeps it a
valid (if looser) lower bound on the running sample average

    phi_m(w) = c_w'w + (1/m) sum_xi h(w, d_xi)

provided stage costs are nonnegative (see battery.suggested_cost_offset;
controller.step_period refuses a negative one).  The cuts are kept as
two stacked arrays, intercepts alpha (m,) and slopes beta (m, n_w), one
row per cut in birth order; the envelope and the master take them with
the design cost added to the slopes.  The master problem minimizes the
cut envelope over the target box and hands the argmin to the next
period.  Every cut is kept, but the master LP holds only a working set
of them: the cuts binding at the last optimum plus the new one, and any
cut the candidate violates, until none does.  Rescaling multiplies every
cut by the same factor and leaves c_w'w alone, so it does not change
which cuts bind.

The store is also the loop's class table.  Days with equal ``key`` are
one realization class; the table holds the classes in first-seen order,
each with the day that stands for it and its integer count, and
controller.step_period counts one period per ``insert``.  The cut and
the running cost weight class k by count / m.  A stored vertex pi
certifies pi'(r - Tw) <= h(w, d) only where pi is dual feasible, i.e.
W(d)' pi <= c(d).  With random prices (and random regulation fractions
in the constraint matrix) that is scenario dependent, so the table also
keeps one verdict per class and vertex: certified, refused, or not
checked yet.  The per-class argmax in generate_cut only looks at
certified vertices.  A vertex is certified for the class it was solved
under when it is inserted (stage.solve_stage checked it); other classes
check it once, by the same test, the first time they ask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hmpc.lp import GeneralLP, LPError, LPStatus, solve_general
from hmpc.stage import StageTemplate, dual_excess

# Vertices closer than this in max norm are stored once.
_DEDUP_TOL = 1e-9
# A cut above the master's theta by more than this, relative to 1 + |theta|,
# is violated; one within it of theta is binding.
_MASTER_TOL = 1e-9


class EmptyStore(ValueError):
    pass


class EmptyCuts(ValueError):
    pass


class MasterInfeasible(LPError):
    pass


@dataclass(frozen=True)
class Cut:
    """Affine recourse underestimate: alpha + beta'w <= mean stage cost.

    The design cost c_w is not baked in; evaluation adds it, so a cut's
    reading at w is alpha + (c_w + beta)'w.
    """

    alpha: float
    beta: np.ndarray
    birth_period: int


class VertexStore:
    """Grow-only class table and dual-vertex store.

    ``days[k]`` is the first day seen of realization class k (classes in
    first-seen order) and ``counts[k]`` the number of periods of that
    class; ``_index`` maps a day's ``key`` to k.  ``_V`` holds the
    vertices, one row each, and ``_verdicts[k, i]`` is 1 if vertex i is
    certified for class k, -1 if refused and 0 if not checked yet.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self._V = np.zeros((0, n_rows))
        self.days: list = []
        self.counts: list = []
        self._index: dict = {}
        self._verdicts = np.zeros((0, 0), dtype=np.int8)

    def __len__(self) -> int:
        return self._V.shape[0]

    def insert(self, pi: np.ndarray, d) -> int:
        """Count one period of d's class (adding the class if new) and
        store pi certified for it; dedups near-equal vertices.

        Returns the store index.  A duplicate within ``_DEDUP_TOL`` (max
        norm) is not re-added, but inherits the new certificate.
        """
        pi = np.asarray(pi, dtype=float)
        if pi.size != self.n_rows:
            raise ValueError(f"vertex has {pi.size} rows, store wants {self.n_rows}")
        k = self._index.setdefault(d.key, len(self.days))
        if k == len(self.days):
            self.days.append(d)
            self.counts.append(0)
            self._verdicts = np.pad(self._verdicts, ((0, 1), (0, 0)))
        self.counts[k] += 1
        hits = np.flatnonzero(np.abs(self._V - pi).max(axis=1) <= _DEDUP_TOL)
        if hits.size:
            i = int(hits[0])
        else:
            i = len(self)
            self._V = np.vstack([self._V, pi])
            self._V.setflags(write=False)
            self._verdicts = np.pad(self._verdicts, ((0, 0), (0, 1)))
        self._verdicts[k, i] = 1
        return i

    def uncount(self, d, n_vertices: int) -> None:
        """Take back the last ``insert`` of d, made when the store held
        ``n_vertices`` vertices.  A verdict it set on an older vertex for
        an older class stays."""
        k = self._index[d.key]
        self.counts[k] -= 1
        if not self.counts[k]:
            del self.days[k], self.counts[k], self._index[d.key]
        self._V = self._V[:n_vertices]
        self._verdicts = self._verdicts[: len(self.days), :n_vertices]

    def certified_mask(self, k: int, template: StageTemplate) -> np.ndarray:
        """Which vertices may price class k.

        Unchecked vertices are tested at the class's day by
        ``stage.dual_excess``, as every stage solve is, and the verdicts kept.
        """
        verdict = self._verdicts[k]
        unknown = np.flatnonzero(verdict == 0)
        if unknown.size:
            d = self.days[k]
            W, c = template.matrix_builder(d), template.cost_builder(d)
            verdict[unknown] = np.where(dual_excess(self._V[unknown], W, c) <= 0, 1, -1)
        return verdict == 1


def generate_cut(store: VertexStore, w: np.ndarray, template: StageTemplate) -> Cut:
    """One cut over every counted period at the current targets.

    Each realization class of the store's table gets the certified
    vertex maximizing pi'(r - Tw) (ties to the lowest store index),
    weighted by count / m with m the periods counted.  Every class holds
    at least the vertex of its own first period, so the argmax is over a
    nonempty set.
    """
    if not store.counts:
        raise EmptyStore("no period counted yet")
    w_vec = np.asarray(w, dtype=float)
    m = sum(store.counts)
    V = store._V
    T = template.coupling_T
    alpha = 0.0
    beta = np.zeros(template.n_w)
    for k, (d, count) in enumerate(zip(store.days, store.counts)):
        r = template.rhs_builder(d)
        vals = np.where(store.certified_mask(k, template), V @ (r - T @ w_vec), -np.inf)
        pi = V[int(np.argmax(vals))]
        weight = count / m
        alpha += weight * float(pi @ r)
        beta -= weight * (T.T @ pi)
    return Cut(alpha=alpha, beta=beta, birth_period=m)


def rescale_cuts(alpha: np.ndarray, beta: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Shrink the period-(m-1) cut arrays by (m-1)/m into new arrays; the
    design cost is untouched because it is added at evaluation, not stored."""
    if m < 1:
        raise ValueError("period index must be positive")
    factor = (m - 1) / m
    return alpha * factor, beta * factor


def lower_bound_at(alpha: np.ndarray, slopes: np.ndarray, w: np.ndarray) -> float:
    """Envelope value max_j alpha_j + slopes_j'w, with slopes c_w + beta."""
    if not len(alpha):
        raise EmptyCuts("no cuts to evaluate")
    return float((alpha + slopes @ np.asarray(w, dtype=float)).max())


def solve_master(
    alpha: np.ndarray, slopes: np.ndarray, target_box: np.ndarray, working=()
) -> tuple[np.ndarray, float, np.ndarray]:
    """Minimize the envelope of the cuts (intercepts ``alpha`` (m,),
    slopes c_w + beta (m, n_w)) over the (n_w, 2) target box; returns
    (next targets, lower bound, binding cuts).

    Epigraph form: min theta over the box with theta >= every cut.  The
    LP holds one row per cut of a working set, starting from the row
    indices ``working``.  After each solve every cut is evaluated at the
    candidate with one product; the cuts above theta by more than
    _MASTER_TOL (1 + |theta|) join the rows and the LP is solved again.
    When none is left the candidate is optimal over all cuts.  theta's
    lower bound is the largest of all the cuts' minima over the box; the
    envelope is nowhere below it on the box, so every round is bounded.
    The binding cuts (sorted indices of the rows tight at the optimum)
    are the working set to start the next master from.
    """
    if not len(alpha):
        raise EmptyCuts("master needs at least one cut")
    n_w = slopes.shape[1]
    lo, hi = target_box[:, 0], target_box[:, 1]
    floor = float((alpha + np.minimum(slopes * lo, slopes * hi).sum(axis=1)).max())
    cost = np.zeros(n_w + 1)
    cost[n_w] = 1.0
    rows = np.unique(np.asarray(working, dtype=int))
    while True:
        sol, vmap = solve_general(
            GeneralLP(
                cost=cost,
                ub_matrix=np.hstack([slopes[rows], np.full((rows.size, 1), -1.0)]),
                ub_rhs=-alpha[rows],
                eq_matrix=np.zeros((0, n_w + 1)),
                eq_rhs=np.zeros(0),
                lower=np.append(lo, floor),
                upper=np.append(hi, np.inf),
            )
        )
        if sol.status is not LPStatus.OPTIMAL:
            raise MasterInfeasible(f"master LP came back {sol.status.name}")
        point = vmap.original_primal(sol.primal)
        w_next, theta = point[:n_w].copy(), float(point[n_w])
        values = alpha + slopes @ w_next
        tol = _MASTER_TOL * (1.0 + abs(theta))
        violated = np.setdiff1d(np.flatnonzero(values > theta + tol), rows)
        if violated.size == 0:
            return w_next, theta, rows[values[rows] >= theta - tol]
        rows = np.union1d(rows, violated)
