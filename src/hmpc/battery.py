"""Battery running a frequency-regulation market position.

One period covers n hourly steps.  Trajectories (n+1 samples each):

    P   net discharge offered to the energy market, kW, in [-Punder, Pbar]
    F   regulation capacity offered, kW, in [0, Pbar]
    E   state of charge, kWh, in [0, Ebar]
    d   utility draw, kW, nonnegative
    s   elastic peak slack, kW, nonnegative, penalized at M

plus one anchor variable pinning the constant ``cost_offset``.  The hourly
revenue is pi_e*(P - alpha*F) + pi_f*F (regulation dispatch claws back
alpha*F of the energy sale), so the stage cost is

    sum_t [ -pi_e_t (P_t - alpha_t F_t) - pi_f_t F_t ] + M*sum(s) + offset.

The demand charge pi_D * D is deliberately NOT in the stage cost: the
peak bound D is a coupling target priced by the design cost, and stages
see it only through their peak rows.

Constraint rows, t over all samples unless noted (steps t = 0..n-1):

    balance (steps)        E_{t+1} - E_t + P_t - alpha_t F_t = 0
    boundary               E_0 = x0,  E_n = x0
    utility                d_t + P_t - alpha_t F_t = L_t
    cap_up / cap_dn        P_t + F_t <= Pbar,   -P_t + F_t <= Punder
    reserve at t           rho F_t <= E_t <= Ebar - rho F_t
    reserve at t+1 (steps) rho F_t <= E_{t+1} <= Ebar - rho F_t
    ramp (steps)           |P_{t+1} - P_t| <= dPbar
    peak                   d_t - s_t <= D
    market                 P_t + F_t <= L_t

The coupling matrix has -1 entries in the boundary rows (x0 column) and
the peak rows (D column); everything else is independent of the targets.
The regulation fraction alpha is the only piece of period data that
lands in the constraint matrix, so realizations sharing an alpha vector
share a matrix.

Structural table (canonical form, n steps):

    columns: 5(n+1) trajectory + 1 anchor + (10n+6) row slacks
             + 3(n+1) bound slacks                    = 18n + 15
    rows:    2n+4 equalities + 10n+6 inequalities
             + 3(n+1) upper bounds                    = 15n + 13
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from hmpc.kv import read_kv, write_kv
from hmpc.lp import GeneralLP, canonicalize
from hmpc.scenarios import PeriodRealization, ScenarioPool
from hmpc.stage import StageResult, StageTemplate


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
        for name in (
            "capacity_Ebar",
            "discharge_Pbar",
            "charge_Punder",
            "fr_reserve_rho",
            "ramp_dPbar",
            "demand_charge_piD",
            "elastic_penalty_M",
            "cost_offset",
        ):
            if getattr(self, name) < 0:
                raise InvalidParams(f"{name} must be nonnegative")
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


def build_template(params: BatteryParams) -> StageTemplate:
    """Compile params into an immutable stage template.

    Each builder call assembles a fresh read-only array from the
    realization; the template keeps nothing per realization.
    """
    n = params.period_length_n
    ns = n + 1
    Pbar = params.discharge_Pbar
    Punder = params.charge_Punder
    Ebar = params.capacity_Ebar
    rho = params.fr_reserve_rho

    iP = np.arange(ns)
    iF = ns + iP
    iE = 2 * ns + iP
    iD = 3 * ns + iP
    iS = 4 * ns + iP
    i_off = 5 * ns
    n_orig = 5 * ns + 1

    lower = np.zeros(n_orig)
    lower[iP] = -Punder
    upper = np.full(n_orig, np.inf)
    upper[iP] = Pbar
    upper[iF] = Pbar
    upper[iE] = Ebar

    n_eq = 2 * n + 4
    eq = np.zeros((n_eq, n_orig))
    eq[0, i_off] = 1.0
    for t in range(n):
        r = 1 + t
        eq[r, iE[t + 1]] = 1.0
        eq[r, iE[t]] = -1.0
        eq[r, iP[t]] = 1.0
        # alpha entry on iF[t] patched per realization
    r_start, r_end = n + 1, n + 2
    eq[r_start, iE[0]] = 1.0
    eq[r_end, iE[n]] = 1.0
    for t in range(ns):
        r = n + 3 + t
        eq[r, iD[t]] = 1.0
        eq[r, iP[t]] = 1.0

    n_ub = 10 * n + 6
    ub = np.zeros((n_ub, n_orig))
    off_cap_up = 0
    off_cap_dn = ns
    off_res_lo = 2 * ns
    off_res_hi = 3 * ns
    off_res_lo_nx = 4 * ns
    off_res_hi_nx = 4 * ns + n
    off_ramp_up = 4 * ns + 2 * n
    off_ramp_dn = 4 * ns + 3 * n
    off_peak = 4 * ns + 4 * n
    off_market = 5 * ns + 4 * n
    for t in range(ns):
        ub[off_cap_up + t, [iP[t], iF[t]]] = 1.0, 1.0
        ub[off_cap_dn + t, [iP[t], iF[t]]] = -1.0, 1.0
        ub[off_res_lo + t, [iF[t], iE[t]]] = rho, -1.0
        ub[off_res_hi + t, [iF[t], iE[t]]] = rho, 1.0
        ub[off_peak + t, [iD[t], iS[t]]] = 1.0, -1.0
        ub[off_market + t, [iP[t], iF[t]]] = 1.0, 1.0
    for t in range(n):
        ub[off_res_lo_nx + t, [iF[t], iE[t + 1]]] = rho, -1.0
        ub[off_res_hi_nx + t, [iF[t], iE[t + 1]]] = rho, 1.0
        ub[off_ramp_up + t, [iP[t + 1], iP[t]]] = 1.0, -1.0
        ub[off_ramp_dn + t, [iP[t], iP[t + 1]]] = 1.0, -1.0

    base = GeneralLP(
        cost=np.zeros(n_orig),
        ub_matrix=ub,
        ub_rhs=np.zeros(n_ub),
        eq_matrix=eq,
        eq_rhs=np.zeros(n_eq),
        lower=lower,
        upper=upper,
    )
    std0, var_map = canonicalize(base)
    n_rows, n_cols = std0.n_rows, std0.n_cols
    eq_shift = eq @ lower
    ub_shift = ub @ lower
    bound_rhs = upper[var_map.bound_cols] - lower[var_map.bound_cols]

    ub_const = np.zeros(n_ub)
    ub_const[off_cap_up:off_cap_up + ns] = Pbar
    ub_const[off_cap_dn:off_cap_dn + ns] = Punder
    ub_const[off_res_hi:off_res_hi + ns] = Ebar
    ub_const[off_res_hi_nx:off_res_hi_nx + n] = Ebar
    ub_const[off_ramp_up:off_ramp_up + 2 * n] = params.ramp_dPbar
    eq_const = np.zeros(n_eq)
    eq_const[0] = params.cost_offset

    coupling_T = np.zeros((n_rows, 2))
    coupling_T[[r_start, r_end], 0] = -1.0
    peak_rows = n_eq + off_peak + np.arange(ns)
    coupling_T[peak_rows, 1] = -1.0

    def rhs_builder(d: PeriodRealization) -> np.ndarray:
        eq_rhs = eq_const.copy()
        eq_rhs[n + 3:] = d.load
        ub_rhs = ub_const.copy()
        ub_rhs[off_market:off_market + ns] = d.load
        out = np.concatenate([eq_rhs - eq_shift, ub_rhs - ub_shift, bound_rhs])
        out.setflags(write=False)
        return out

    def cost_builder(d: PeriodRealization) -> np.ndarray:
        out = np.zeros(n_cols)
        out[iP] = -d.energy_price
        out[iF] = d.energy_price * d.fr_request - d.fr_price
        out[iS] = params.elastic_penalty_M
        out[i_off] = 1.0
        out.setflags(write=False)
        return out

    def matrix_builder(d: PeriodRealization) -> np.ndarray:
        out = std0.eq_matrix.copy()
        steps = np.arange(n)
        out[1 + steps, iF[steps]] = -d.fr_request[:n]
        out[n + 3 + np.arange(ns), iF] = -d.fr_request
        out.setflags(write=False)
        return out

    row_tags = {
        "offset": np.array([0]),
        "balance": 1 + np.arange(n),
        "boundary": np.array([r_start, r_end]),
        "utility": n + 3 + np.arange(ns),
        "peak": peak_rows,
        "market": n_eq + off_market + np.arange(ns),
    }
    col_tags = {
        "P": iP,
        "F": iF,
        "E": iE,
        "d_util": iD,
        "peak_slack": iS,
        "offset_var": np.array([i_off]),
        "state_first": np.array([iE[0]]),
        "state_last": np.array([iE[n]]),
    }
    return StageTemplate(
        n_cols=n_cols,
        coupling_T=coupling_T,
        cost_builder=cost_builder,
        rhs_builder=rhs_builder,
        matrix_builder=matrix_builder,
        var_map=var_map,
        row_tags=row_tags,
        col_tags=col_tags,
    )


def decode_trajectory(result: StageResult, template: StageTemplate) -> BatteryTrajectory:
    """Split the trajectories by column tag; the layout depends only on n."""
    orig = result.trajectories
    if orig.size != template.var_map.n_orig:
        raise ValueError(f"{orig.size} trajectory entries do not fit this template's n")
    tags = template.col_tags
    return BatteryTrajectory(
        P=orig[tags["P"]],
        F=orig[tags["F"]],
        E=orig[tags["E"]],
        d_util=orig[tags["d_util"]],
        peak_slack=orig[tags["peak_slack"]],
    )


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


PARAM_FIELDS = (
    "capacity_Ebar",
    "discharge_Pbar",
    "charge_Punder",
    "fr_reserve_rho",
    "ramp_dPbar",
    "demand_charge_piD",
    "period_length_n",
    "elastic_penalty_M",
    "cost_offset",
)


def load_params(path) -> BatteryParams:
    """Read params from a flat key = value file (keys as in PARAM_FIELDS)."""
    doc = read_kv(path)
    unknown = set(doc) - set(PARAM_FIELDS)
    if unknown:
        raise InvalidParams(f"unknown parameter keys: {sorted(unknown)}")
    kwargs = {}
    for key, raw in doc.items():
        kwargs[key] = int(raw) if key == "period_length_n" else float(raw)
    return BatteryParams(**kwargs)


def save_params(params: BatteryParams, path) -> None:
    write_kv(path, {k: getattr(params, k) for k in PARAM_FIELDS})
