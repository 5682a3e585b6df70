"""Command line front end.

Four subcommands cover the whole loop:

* ``gen-data``  synthesize a scenario pool plus a battery parameter file
* ``run``       closed-loop simulation, writing per-period audit tables
* ``oracle``    extensive-form prices for a sampled history
* ``gap``       recompute exact gaps for a finished run directory

Run and oracle read a flat ``key = value`` config (relative paths are
resolved against the config file); ``--horizon``, ``--seed`` and
``--sigma`` override their config counterparts.  Exit status is 0 on
success, 1 on data or domain errors, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from hmpc.battery import (
    BatteryParams,
    InvalidParams,
    build_template,
    decode_trajectory,
    design_cost,
    load_params,
    save_params,
    target_box,
    with_offset,
)
from hmpc.controller import run_simulation
from hmpc.cuts import EmptyCuts, EmptyStore, MasterInfeasible
from hmpc.kv import coerce, read_kv, write_kv
from hmpc.lp import LPError
from hmpc.oracle import (
    DEFAULT_CAP,
    OracleCapExceeded,
    reference_cost,
    solve_nonperiodic,
    solve_saa,
)
from hmpc.scenarios import (
    CSV_HEADER,
    ScenarioPool,
    SchemaError,
    load_csv,
    load_pool,
    sample_period,
    save_pool,
    stream,
    synthetic_pool,
)
from hmpc.stage import StageInfeasible, StageSolveCache, StageUnbounded

USER_ERRORS = (
    ValueError,
    KeyError,
    OSError,
    json.JSONDecodeError,
    SchemaError,
    InvalidParams,
    OracleCapExceeded,
    StageInfeasible,
    StageUnbounded,
    EmptyStore,
    EmptyCuts,
    MasterInfeasible,
    LPError,
)

RUN_KEYS = {
    "pool_file",
    "pool_csv",
    "params_file",
    "horizon",
    "seed",
    "sigma",
    "keep_planned",
    "audit_full_until",
    "audit_stride",
    "track_overall_gap",
    "w1_state",
    "w1_peak",
}

METRICS_HEADER = [
    "period",
    "E0_target",
    "peak_target",
    "running_cost",
    "lower_bound",
    "eps",
    "epsbar",
]


def _fmt(value) -> str:
    return format(float(value), ".12g")


def _opt(value) -> str:
    return "" if value is None else _fmt(value)


def _write_csv(path, header, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _parse_bool(text: str) -> bool:
    table = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
    try:
        return table[text.strip().lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {text!r}") from None


def _load_setup(config_path: Path, cfg: dict):
    """Pool, template, box and design cost from a run config."""
    base = config_path.parent
    if ("pool_file" in cfg) == ("pool_csv" in cfg):
        raise ValueError("config needs exactly one of pool_file or pool_csv")
    if "pool_file" in cfg:
        pool = load_pool(base / cfg["pool_file"])
    else:
        days = load_csv(base / cfg["pool_csv"])
        pool = ScenarioPool(support=tuple(days), weights=np.full(len(days), 1 / len(days)))
    params = load_params(base / cfg["params_file"])
    template = build_template(params)
    max_load = float(max(d.load.max() for d in pool.support))
    return pool, template, target_box(params, max_load), design_cost(params)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    pool = synthetic_pool(
        n_steps=args.steps,
        n_scenarios=args.scenarios,
        seed=args.seed,
        base_load=args.base_load,
    )
    save_pool(pool, out / "pool.json", seed=args.seed)

    bl = args.base_load
    params = with_offset(
        BatteryParams(
            capacity_Ebar=0.8 * bl,
            discharge_Pbar=0.3 * bl,
            charge_Punder=0.3 * bl,
            fr_reserve_rho=0.5,
            ramp_dPbar=0.6 * bl,
            demand_charge_piD=0.5,
            period_length_n=args.steps,
        ),
        pool,
    )
    save_params(params, out / "battery.kv")

    if args.csv:
        rows = []
        for d in pool.support:
            for t in range(d.n_steps):
                rows.append(
                    [t, _fmt(d.energy_price[t]), _fmt(d.fr_price[t]), _fmt(d.load[t]),
                     _fmt(d.fr_request[t])]
                )
        _write_csv(out / "sample.csv", CSV_HEADER, rows)
    print(f"wrote pool.json and battery.kv under {out}")
    return 0


def _run_config(args) -> tuple[Path, dict]:
    config_path = Path(args.config)
    cfg = read_kv(config_path)
    unknown = set(cfg) - RUN_KEYS
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    if getattr(args, "horizon", None) is not None:
        cfg["horizon"] = str(args.horizon)
    if args.seed is not None:
        cfg["seed"] = str(args.seed)
    if getattr(args, "sigma", None) is not None:
        cfg["sigma"] = str(args.sigma)
    return config_path, cfg


def cmd_run(args) -> int:
    config_path, cfg = _run_config(args)
    pool, template, box, cw = _load_setup(config_path, cfg)

    def number(key, default=None, kind=int):
        return coerce(key, cfg.get(key, default), kind)

    horizon = number("horizon", 100)
    seed = number("seed", 0)
    sigma = number("sigma", 0.0, float)
    keep_planned = number("keep_planned", 7)
    audit_full_until = number("audit_full_until", 100)
    audit_stride = number("audit_stride", 5)
    track = _parse_bool(cfg.get("track_overall_gap", "true"))
    if ("w1_state" in cfg) != ("w1_peak" in cfg):
        raise ValueError("w1_state and w1_peak go together")
    w1 = None
    if "w1_state" in cfg:
        w1 = np.array([number("w1_state", kind=float), number("w1_peak", kind=float)])

    sim = run_simulation(
        template,
        cw,
        box,
        pool,
        periods=horizon,
        seed=seed,
        forecast_sigma=sigma,
        w1=w1,
        audit_full_until=audit_full_until,
        audit_stride=audit_stride,
        keep_planned=keep_planned,
        track_overall_gap=track,
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    resolved = dict(cfg)
    for key in ("pool_file", "pool_csv", "params_file"):
        if key in resolved:
            resolved[key] = str((config_path.parent / resolved[key]).resolve())
    resolved.setdefault("horizon", str(horizon))
    resolved.setdefault("seed", str(seed))
    resolved.setdefault("sigma", _fmt(sigma))
    write_kv(out / "run.conf", resolved)

    _write_csv(
        out / "metrics.csv",
        METRICS_HEADER,
        [
            [r.period, _fmt(r.targets[0]), _fmt(r.targets[1]), _opt(r.running_cost),
             _fmt(r.lower_bound), _opt(r.current_gap_eps), _opt(r.overall_gap_epsbar)]
            for r in sim.records
        ],
    )
    _write_csv(
        out / "targets.csv",
        ["period", "E0_target", "peak_target", "E0_next", "peak_next"],
        [
            [r.period, _fmt(r.targets[0]), _fmt(r.targets[1]), _fmt(r.targets_next[0]),
             _fmt(r.targets_next[1])]
            for r in sim.records
        ],
    )

    rows = []
    for period, _, plan in sim.planned:
        traj = decode_trajectory(plan, template)
        for t in range(traj.E.size):
            rows.append(
                [period, t, _fmt(traj.P[t]), _fmt(traj.F[t]), _fmt(traj.E[t]),
                 _fmt(traj.d_util[t]), _fmt(traj.peak_slack[t])]
            )
    _write_csv(
        out / "trajectories.csv",
        ["period", "step", "P", "F", "E", "d_util", "peak_slack"],
        rows,
    )

    with open(out / "cuts.jsonl", "w") as fh:
        for cut in sim.state.cuts:
            fh.write(
                json.dumps(
                    {
                        "period": cut.birth_period,
                        "alpha": cut.alpha,
                        "beta": list(cut.beta),
                    },
                    sort_keys=True,
                )
                + "\n"
            )

    audited = [r for r in sim.records if r.current_gap_eps is not None]
    if audited:
        series = [("eps", [r.period for r in audited],
                   [r.current_gap_eps for r in audited])]
        with_bar = [r for r in audited if r.overall_gap_epsbar is not None]
        if with_bar:
            series.append(("epsbar", [r.period for r in with_bar],
                           [r.overall_gap_epsbar for r in with_bar]))
        from hmpc.svgchart import polyline_chart

        polyline_chart(
            series, out / "gap.svg", title="optimality gap by period",
            x_label="period", y_label="relative gap",
        )

    last = sim.records[-1]
    eps_text = "skipped" if last.current_gap_eps is None else _fmt(last.current_gap_eps)
    print(
        f"{horizon} periods: targets ({_fmt(last.targets_next[0])}, "
        f"{_fmt(last.targets_next[1])}), final eps {eps_text}"
    )
    print(f"tables under {out}")
    return 0


def cmd_oracle(args) -> int:
    config_path, cfg = _run_config(args)
    pool, template, box, cw = _load_setup(config_path, cfg)
    periods = args.periods
    seed = coerce("seed", cfg.get("seed", 0), int)

    rng = stream(seed)
    history = [sample_period(pool, rng) for _ in range(periods)]
    targets, value_p = solve_saa(template, history, box, cw, cap=args.cap)
    value_np, peak_np = solve_nonperiodic(template, history, cw, cap=args.cap)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "saa.json", "w") as fh:
        json.dump(
            {"periods": periods, "seed": seed, "targets": list(targets), "value": value_p},
            fh, indent=1, sort_keys=True,
        )
    with open(out / "nonperiodic.json", "w") as fh:
        json.dump(
            {"periods": periods, "seed": seed, "peak_target": peak_np, "value": value_np},
            fh, indent=1, sort_keys=True,
        )
    print(
        f"{periods} periods: periodic {_fmt(value_p)} at ({_fmt(targets[0])}, "
        f"{_fmt(targets[1])}), non-periodic {_fmt(value_np)}"
    )
    return 0


def cmd_gap(args) -> int:
    run_dir = Path(args.run_dir)
    cfg = read_kv(run_dir / "run.conf")
    pool, template, box, cw = _load_setup(run_dir / "run.conf", cfg)
    cache = StageSolveCache(template)

    with open(run_dir / "metrics.csv", newline="") as fh:
        metrics = list(csv.DictReader(fh))
    if not metrics:
        raise ValueError(f"{run_dir / 'metrics.csv'}: no rows")

    rows = []
    for row in metrics:
        w = np.array([float(row["E0_target"]), float(row["peak_target"])])
        ref = reference_cost(template, pool, cw, w, cache=cache)
        lb = float(row["lower_bound"])
        epsbar = (ref - lb) / ref if ref != 0 else 0.0
        rows.append(
            [row["period"], _fmt(w[0]), _fmt(w[1]), _fmt(lb), _fmt(ref), _fmt(epsbar)]
        )
    _write_csv(
        run_dir / "gap.csv",
        ["period", "E0_target", "peak_target", "lower_bound", "reference_cost",
         "epsbar_exact"],
        rows,
    )
    print(f"{len(rows)} rows, final exact gap {rows[-1][-1]}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hmpc", description="retroactive target pricing for periodic operation"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="synthesize a pool and battery parameters")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--steps", type=int, default=24, help="hours per period")
    p.add_argument("--scenarios", type=int, default=5)
    p.add_argument("--base-load", type=float, default=500.0)
    p.add_argument("--csv", action="store_true", help="also write sample.csv")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("run", help="closed-loop simulation")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--horizon", type=int, help="override config horizon")
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--sigma", type=float, help="override forecast noise")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("oracle", help="extensive-form prices for a sampled history")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--periods", type=int, default=8)
    p.add_argument("--seed", type=int, help="override config seed")
    p.add_argument("--cap", type=int, default=DEFAULT_CAP, help="extensive-form block cap")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("gap", help="recompute exact gaps for a run directory")
    p.add_argument("--run-dir", required=True)
    p.set_defaults(func=cmd_gap)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
