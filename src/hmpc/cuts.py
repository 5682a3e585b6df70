"""Dual-vertex store, retroactive cuts, and the target master problem.

After period m the expected period cost phi(w) = c_w'w + E[h(w, D)] is
known only through its sampled history.  Each completed period donates
one dual vertex; one new cut per period is assembled from the stored
vertices and every older cut is shrunk by (m-1)/m, which keeps it a
valid (if looser) lower bound on the running sample average

    phi_m(w) = c_w'w + (1/m) sum_xi h(w, d_xi)

provided stage costs are nonnegative (see battery.suggested_cost_offset;
controller.step_period refuses a negative one).  The master problem
minimizes the cut envelope over the target box and hands the argmin to
the next period.

A stored vertex pi certifies pi'(r - Tw) <= h(w, d) only where pi is
dual feasible, i.e. W(d)' pi <= c(d).  With random prices (and random
regulation fractions in the constraint matrix) that is scenario
dependent, so the store keeps one verdict vector per realization class,
one entry per vertex: certified, refused, or not checked yet.  The
per-class argmax in generate_cut only looks at certified vertices.  A
vertex is always certified for the class it was solved under; other
classes check it once, the first time they ask.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hmpc.lp import GeneralLP, LPStatus, solve_general
from hmpc.scenarios import collapse
from hmpc.stage import StageTemplate

# Vertices closer than this in max norm are stored once.
_DEDUP_TOL = 1e-9
# Relative slack of the dual feasibility check W(d)'pi <= c(d).
_FEAS_TOL = 1e-9


class EmptyStore(Exception):
    pass


class EmptyCuts(Exception):
    pass


class MasterInfeasible(Exception):
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

    def __post_init__(self):
        beta = np.asarray(self.beta, dtype=float).copy()
        beta.setflags(write=False)
        object.__setattr__(self, "beta", beta)

    def value_at(self, w: np.ndarray, design_cost: np.ndarray) -> float:
        return self.alpha + float((design_cost + self.beta) @ np.asarray(w))


class VertexStore:
    """Grow-only store of dual vertices with per-class certificates.

    ``_verdicts[key][i]`` is 1 if vertex i is certified for class ``key``,
    -1 if refused and 0 if not checked yet; a vector shorter than the
    store reads 0 past its end.
    """

    def __init__(self, n_rows: int):
        self.n_rows = n_rows
        self._V = np.zeros((0, n_rows))
        self._verdicts: dict = {}

    def __len__(self) -> int:
        return self._V.shape[0]

    def as_matrix(self) -> np.ndarray:
        return self._V

    def _verdict(self, key) -> np.ndarray:
        old = self._verdicts.get(key, np.zeros(0, dtype=np.int8))
        if old.size < len(self):
            old = np.concatenate([old, np.zeros(len(self) - old.size, dtype=np.int8)])
            self._verdicts[key] = old
        return old

    def insert(self, pi: np.ndarray, class_key) -> int:
        """Add a vertex certified for ``class_key``; dedups near-equals.

        Returns the store index.  A duplicate within ``_DEDUP_TOL`` (max
        norm) is not re-added, but inherits the new certificate.
        """
        pi = np.asarray(pi, dtype=float)
        if pi.size != self.n_rows:
            raise ValueError(f"vertex has {pi.size} rows, store wants {self.n_rows}")
        hits = np.flatnonzero(np.abs(self._V - pi).max(axis=1) <= _DEDUP_TOL)
        if hits.size:
            i = int(hits[0])
        else:
            i = len(self)
            self._V = np.vstack([self._V, pi])
            self._V.setflags(write=False)
        self._verdict(class_key)[i] = 1
        return i

    def certified_mask(self, d, template: StageTemplate) -> np.ndarray:
        """Which vertices may price realization d's class.

        Unchecked vertices are tested against W(d)'pi <= c(d) with a
        per-column tolerance, and the verdicts kept for the class.
        """
        verdict = self._verdict(d.key)
        unknown = np.flatnonzero(verdict == 0)
        if unknown.size:
            W = template.matrix_builder(d)
            c = template.cost_builder(d)
            tol = _FEAS_TOL * (1.0 + np.abs(c))
            ok = ((self._V[unknown] @ W) <= c + tol).all(axis=1)
            verdict[unknown] = np.where(ok, 1, -1)
        return verdict == 1


def generate_cut(
    store: VertexStore,
    history: list,
    w: np.ndarray,
    template: StageTemplate,
) -> Cut:
    """One cut from the whole history at the current targets.

    Each realization class gets the certified vertex maximizing
    pi'(r - Tw) (ties to the lowest store index); classes repeat in the
    history, so the argmax runs once per distinct class and is weighted
    by its count.
    """
    if len(store) == 0:
        raise EmptyStore("no dual vertices stored yet")
    if not history:
        raise ValueError("history is empty")
    w_vec = np.asarray(w, dtype=float)
    m = len(history)
    V = store.as_matrix()
    T = template.coupling_T
    alpha = 0.0
    beta = np.zeros(template.n_w)
    for d, count in zip(*collapse(history)):
        r = template.rhs_builder(d)
        vals = V @ (r - T @ w_vec)
        mask = store.certified_mask(d, template)
        if not mask.any():
            raise EmptyStore(f"no certified vertex for realization class {d.key}")
        vals = np.where(mask, vals, -np.inf)
        pi = V[int(np.argmax(vals))]
        weight = count / m
        alpha += weight * float(pi @ r)
        beta -= weight * (T.T @ pi)
    return Cut(alpha=alpha, beta=beta, birth_period=m)


def rescale_cuts(cuts: list, m: int) -> list:
    """Shrink period-(m-1) cuts by (m-1)/m; the design cost is untouched
    because it is added at evaluation, not stored."""
    if m < 1:
        raise ValueError("period index must be positive")
    factor = (m - 1) / m
    return [
        Cut(alpha=c.alpha * factor, beta=c.beta * factor, birth_period=c.birth_period)
        for c in cuts
    ]


def scenario_value_bound(
    store: VertexStore, template: StageTemplate, d, w: np.ndarray
) -> float:
    """Best stored underestimate of h(w, d); -inf with no certificate."""
    w_vec = np.asarray(w, dtype=float)
    if len(store) == 0:
        return -np.inf
    mask = store.certified_mask(d, template)
    if not mask.any():
        return -np.inf
    r = template.rhs_builder(d)
    vals = store.as_matrix() @ (r - template.coupling_T @ w_vec)
    return float(np.max(vals[mask]))


@dataclass
class MasterProblem:
    """Cut envelope minimized over the compact target box.

    ``target_box`` is (n_w, 2): one (lo, hi) row per target component.
    """

    cuts: list
    design_cost: np.ndarray
    target_box: np.ndarray

    def __post_init__(self):
        self.design_cost = np.asarray(self.design_cost, dtype=float)
        self.target_box = np.asarray(self.target_box, dtype=float)
        if self.target_box.ndim != 2 or self.target_box.shape[1] != 2:
            raise ValueError("target_box must be (n_w, 2)")
        if (self.target_box[:, 0] > self.target_box[:, 1]).any():
            raise ValueError("target_box has lo > hi")
        if self.design_cost.size != self.target_box.shape[0]:
            raise ValueError("design_cost and target_box disagree on n_w")


def lower_bound_at(master: MasterProblem, w: np.ndarray) -> float:
    """Envelope value max_j alpha_j + (c_w + beta_j)'w."""
    if not master.cuts:
        raise EmptyCuts("no cuts to evaluate")
    w_vec = np.asarray(w, dtype=float)
    return max(c.value_at(w_vec, master.design_cost) for c in master.cuts)


def _envelope_floor(master: MasterProblem) -> float:
    """A finite lower bound for the epigraph variable over the box."""
    lo, hi = master.target_box[:, 0], master.target_box[:, 1]
    best = -np.inf
    for cut in master.cuts:
        slope = master.design_cost + cut.beta
        best = max(best, cut.alpha + float(np.minimum(slope * lo, slope * hi).sum()))
    return best


def solve_master(master: MasterProblem) -> tuple[np.ndarray, float]:
    """Minimize the envelope; returns (next targets, lower bound).

    Epigraph form: min theta over the box with theta >= every cut.
    """
    if not master.cuts:
        raise EmptyCuts("master needs at least one cut")
    n_w = master.design_cost.size
    n_cuts = len(master.cuts)
    A = np.zeros((n_cuts, n_w + 1))
    rhs = np.zeros(n_cuts)
    for j, cut in enumerate(master.cuts):
        A[j, :n_w] = master.design_cost + cut.beta
        A[j, n_w] = -1.0
        rhs[j] = -cut.alpha
    cost = np.zeros(n_w + 1)
    cost[n_w] = 1.0
    lower = np.concatenate([master.target_box[:, 0], [_envelope_floor(master)]])
    upper = np.concatenate([master.target_box[:, 1], [np.inf]])
    sol, vmap = solve_general(
        GeneralLP(
            cost=cost,
            ub_matrix=A,
            ub_rhs=rhs,
            eq_matrix=np.zeros((0, n_w + 1)),
            eq_rhs=np.zeros(0),
            lower=lower,
            upper=upper,
        )
    )
    if sol.status is not LPStatus.OPTIMAL:
        raise MasterInfeasible(f"master LP came back {sol.status.name}")
    point = vmap.original_primal(sol.primal)
    w_next = point[:n_w].copy()
    return w_next, float(point[n_w])
