"""Battery running a frequency-regulation market position.

The period LP is declared as two tables of indexed families, the way an
algebraic modelling language declares one; ``build_template`` derives
every column and row index, bound, rhs and tag from them.  One period
covers n hourly steps.  Variable families, in column order under their
column tags, with their widths:

    P           n+1  net discharge to the energy market, kW, in [-Punder, Pbar]
    F           n+1  regulation capacity offered, kW, in [0, Pbar]
    E           n+1  state of charge, kWh, in [0, Ebar]
    d_util      n+1  utility draw, kW, nonnegative
    peak_slack  n+1  elastic peak slack s, kW, nonnegative, penalized at M
    offset_var  1    anchor pinning the constant ``cost_offset``, nonnegative

The hourly revenue is pi_e*(P - alpha*F) + pi_f*F (regulation dispatch
claws back alpha*F of the energy sale), so the stage cost is

    sum_t [ -pi_e_t (P_t - alpha_t F_t) - pi_f_t F_t ] + M*sum(s) + offset.

The demand charge pi_D * D is deliberately NOT in the stage cost: the
peak bound D is a coupling target priced by the design cost, and stages
see it only through their peak rows.

Constraint families, in row order under their row tags, with their row
counts; t runs over all samples, or over the steps t = 0..n-1 where the
count is n:

    offset      1    offset_var = cost_offset
    balance     n    E_{t+1} - E_t + P_t - alpha_t F_t = 0
    boundary    2    E_0 = x0,  E_n = x0
    utility     n+1  d_t + P_t - alpha_t F_t = L_t
    cap_up      n+1  P_t + F_t <= Pbar
    cap_dn      n+1  -P_t + F_t <= Punder
    res_lo      n+1  rho F_t - E_t <= 0
    res_hi      n+1  rho F_t + E_t <= Ebar
    res_lo_nx   n    rho F_t - E_{t+1} <= 0
    res_hi_nx   n    rho F_t + E_{t+1} <= Ebar
    ramp_up     n    P_{t+1} - P_t <= dPbar
    ramp_dn     n    P_t - P_{t+1} <= dPbar
    peak        n+1  d_t - s_t <= D
    market      n+1  P_t + F_t <= L_t

The first four are equalities, the rest inequalities.  The coupling
matrix has -1 entries in the boundary rows (x0 column) and the peak rows
(D column); everything else is independent of the targets.  The
regulation fraction alpha is the only piece of period data that lands in
the constraint matrix, so realizations sharing an alpha vector share a
matrix.

Structural table (canonical form, n steps):

    columns: 5(n+1) trajectory + 1 anchor + (10n+6) row slacks
             + 3(n+1) bound slacks                    = 18n + 15
    rows:    2n+4 equalities + 10n+6 inequalities
             + 3(n+1) upper bounds                    = 15n + 13
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace

import numpy as np

from hmpc.kv import coerce, read_kv, write_kv
from hmpc.lp import GeneralLP, canonicalize
from hmpc.scenarios import PeriodRealization, ScenarioPool
from hmpc.stage import StageResult, StageTemplate

# In the constraint tables a coefficient is a number or _ALPHA, the day's
# -alpha_t of the column's step; a rhs is a number, _LOAD (the day's load)
# or a target name, which puts -1 in that row's column of coupling_T.
_ALPHA = "-alpha"
_LOAD = "load"
_TARGETS = ("x0", "D")


class InvalidParams(ValueError):
    """Battery parameters violate their invariants."""


@dataclass(frozen=True)
class BatteryParams:
    """Physical and tariff parameters; units kWh, kW, hours, dollars.

    ``elastic_penalty_M`` defaults to 1000 x the demand charge;
    ``cost_offset`` is an additive constant keeping stage costs
    nonnegative (see ``suggested_cost_offset``), zero by default.
    """

    capacity_Ebar: float
    discharge_Pbar: float
    charge_Punder: float
    fr_reserve_rho: float
    ramp_dPbar: float
    demand_charge_piD: float
    period_length_n: int
    elastic_penalty_M: float = None
    cost_offset: float = 0.0

    def __post_init__(self):
        if self.elastic_penalty_M is None:
            object.__setattr__(self, "elastic_penalty_M", 1e3 * self.demand_charge_piD)
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidParams(f"{f.name} must be finite and nonnegative")
        if self.period_length_n < 1:
            raise InvalidParams("period_length_n must be at least 1")
        if self.fr_reserve_rho > 0 and self.capacity_Ebar <= 0:
            raise InvalidParams("reserving energy for regulation needs positive capacity")


@dataclass(frozen=True)
class BatteryTrajectory:
    P: np.ndarray
    F: np.ndarray
    E: np.ndarray
    d_util: np.ndarray
    peak_slack: np.ndarray


def _stack(families, n_orig: int):
    """Rows of a constraint table, stacked in table order.

    Returns the matrix (_ALPHA entries left zero), the constant rhs, each
    family's row indices and the (rows, cols) of the _ALPHA entries.
    """
    blocks, rhs, rows = [], [], {}
    alpha_rows, alpha_cols = [], []
    start = 0
    for name, terms, b in families:
        k = len(terms[0][1])
        r = np.arange(start, start + k)
        rows[name] = r
        start += k
        block = np.zeros((k, n_orig))
        for coef, cols in terms:
            if coef == _ALPHA:
                alpha_rows.append(r)
                alpha_cols.append(cols)
            else:
                block[np.arange(k), cols] = coef
        blocks.append(block)
        rhs.append(np.zeros(k) if isinstance(b, str) else np.full(k, b))
    alpha = (np.concatenate(alpha_rows), np.concatenate(alpha_cols))
    return np.vstack(blocks), np.concatenate(rhs), rows, alpha


def build_template(params: BatteryParams) -> StageTemplate:
    """Compile params into an immutable stage template.

    Each builder call assembles a fresh read-only array from the
    realization; the template keeps nothing per realization.
    """
    ns = params.period_length_n + 1
    Pbar = params.discharge_Pbar
    Punder = params.charge_Punder
    Ebar = params.capacity_Ebar
    rho = params.fr_reserve_rho
    dP = params.ramp_dPbar

    variables = (
        ("P", ns, -Punder, Pbar),
        ("F", ns, 0.0, Pbar),
        ("E", ns, 0.0, Ebar),
        ("d_util", ns, 0.0, np.inf),
        ("peak_slack", ns, 0.0, np.inf),
        ("offset_var", 1, 0.0, np.inf),
    )
    starts = np.cumsum([0] + [size for _, size, _, _ in variables])
    col = {name: np.arange(s, s + size) for (name, size, _, _), s in zip(variables, starts)}
    n_orig = int(starts[-1])
    lower = np.concatenate([np.full(size, lo) for _, size, lo, _ in variables])
    upper = np.concatenate([np.full(size, up) for _, size, _, up in variables])

    P, F, E, D, S = (col[k] for k in ("P", "F", "E", "d_util", "peak_slack"))
    equalities = (
        ("offset", [(1.0, col["offset_var"])], params.cost_offset),
        ("balance", [(1.0, E[1:]), (-1.0, E[:-1]), (1.0, P[:-1]), (_ALPHA, F[:-1])], 0.0),
        ("boundary", [(1.0, E[[0, -1]])], "x0"),
        ("utility", [(1.0, D), (1.0, P), (_ALPHA, F)], _LOAD),
    )
    inequalities = (
        ("cap_up", [(1.0, P), (1.0, F)], Pbar),
        ("cap_dn", [(-1.0, P), (1.0, F)], Punder),
        ("res_lo", [(rho, F), (-1.0, E)], 0.0),
        ("res_hi", [(rho, F), (1.0, E)], Ebar),
        ("res_lo_nx", [(rho, F[:-1]), (-1.0, E[1:])], 0.0),
        ("res_hi_nx", [(rho, F[:-1]), (1.0, E[1:])], Ebar),
        ("ramp_up", [(1.0, P[1:]), (-1.0, P[:-1])], dP),
        ("ramp_dn", [(1.0, P[:-1]), (-1.0, P[1:])], dP),
        ("peak", [(1.0, D), (-1.0, S)], "D"),
        ("market", [(1.0, P), (1.0, F)], _LOAD),
    )
    families = equalities + inequalities
    # Canonical rows are the equalities, then the inequalities, so one
    # stack numbers every family's rows as canonicalize lays them out.
    A, b, row_tags, (alpha_rows, alpha_cols) = _stack(families, n_orig)
    alpha_steps = alpha_cols - F[0]
    n_eq = sum(row_tags[name].size for name, _, _ in equalities)
    # The day's load is the only rhs that varies: std0 holds the rest,
    # already shifted to canonical variables.
    std0, var_map = canonicalize(GeneralLP(
        cost=np.zeros(n_orig), ub_matrix=A[n_eq:], ub_rhs=b[n_eq:],
        eq_matrix=A[:n_eq], eq_rhs=b[:n_eq], lower=lower, upper=upper,
    ))
    n_cols = std0.n_cols
    load_rows = [row_tags[name] for name, _, rhs in families if rhs == _LOAD]

    coupling_T = np.zeros((std0.n_rows, len(_TARGETS)))
    for name, _, rhs in families:
        if rhs in _TARGETS:
            coupling_T[row_tags[name], _TARGETS.index(rhs)] = -1.0

    def rhs_builder(d: PeriodRealization) -> np.ndarray:
        out = std0.eq_rhs.copy()
        for rows in load_rows:
            out[rows] += d.load
        out.setflags(write=False)
        return out

    def cost_builder(d: PeriodRealization) -> np.ndarray:
        out = np.zeros(n_cols)
        out[P] = -d.energy_price
        out[F] = d.energy_price * d.fr_request - d.fr_price
        out[S] = params.elastic_penalty_M
        out[col["offset_var"]] = 1.0
        out.setflags(write=False)
        return out

    def matrix_builder(d: PeriodRealization) -> np.ndarray:
        out = std0.eq_matrix.copy()
        out[alpha_rows, alpha_cols] = -d.fr_request[alpha_steps]
        out.setflags(write=False)
        return out

    return StageTemplate(
        n_cols=n_cols,
        coupling_T=coupling_T,
        cost_builder=cost_builder,
        rhs_builder=rhs_builder,
        matrix_builder=matrix_builder,
        var_map=var_map,
        row_tags=row_tags,
        col_tags=dict(col, state_first=E[:1], state_last=E[-1:]),
    )


def decode_trajectory(result: StageResult, template: StageTemplate) -> BatteryTrajectory:
    """Split the trajectories by column tag; the layout depends only on n."""
    orig = result.trajectories
    if orig.size != template.var_map.n_orig:
        raise ValueError(f"{orig.size} trajectory entries do not fit this template's n")
    tags = template.col_tags
    return BatteryTrajectory(**{f.name: orig[tags[f.name]] for f in fields(BatteryTrajectory)})


def design_cost(params: BatteryParams) -> np.ndarray:
    """Target pricing c_w: the boundary state is free, the peak is billed."""
    return np.array([0.0, params.demand_charge_piD])


def target_box(params: BatteryParams, max_load: float) -> np.ndarray:
    """Bounds on (x0, D): state within capacity, peak up to worst draw."""
    return np.array([[0.0, params.capacity_Ebar], [0.0, max_load + params.charge_Punder]])


def suggested_cost_offset(params: BatteryParams, pool: ScenarioPool) -> float:
    """Smallest convenient constant keeping stage costs nonnegative.

    Cut rescaling stays a valid lower bound only while stage costs are
    nonnegative, and the algorithm prices stages in the canonical
    (shifted, y = x - lb) variables.  There every price-carrying column
    is boxed, so the canonical cost is at least

        offset - sum_t [ pi_e_t (Pbar + Punder) + pi_f_t Pbar ],

    and the pool-wide worst case of that sum is the offset to use.
    """
    span = params.discharge_Pbar + params.charge_Punder
    worst = max(
        float((d.energy_price * span + d.fr_price * params.discharge_Pbar).sum())
        for d in pool.support
    )
    return worst


def with_offset(params: BatteryParams, pool: ScenarioPool) -> BatteryParams:
    return replace(params, cost_offset=suggested_cost_offset(params, pool))


PARAM_FIELDS = tuple(f.name for f in fields(BatteryParams))


def load_params(path) -> BatteryParams:
    """Read params from a flat key = value file (keys as in PARAM_FIELDS)."""
    doc = read_kv(path)
    unknown = set(doc) - set(PARAM_FIELDS)
    if unknown:
        raise InvalidParams(f"unknown parameter keys: {sorted(unknown)}")
    try:
        kwargs = {
            key: coerce(key, raw, int if key == "period_length_n" else float)
            for key, raw in doc.items()
        }
    except ValueError as exc:
        raise InvalidParams(str(exc)) from None
    return BatteryParams(**kwargs)


def save_params(params: BatteryParams, path) -> None:
    write_kv(path, {k: getattr(params, k) for k in PARAM_FIELDS})
