"""Command line front end.

Four subcommands cover the whole loop:

* ``gen-data``  synthesize a scenario pool plus a battery parameter file
* ``run``       closed-loop simulation, writing per-period audit tables
* ``oracle``    extensive-form prices for a sampled history
* ``gap``       recompute exact gaps for a finished run directory

Run and oracle read a flat ``key = value`` config by ``RUN_KEYS``
(relative paths are resolved against the config file); ``--horizon``,
``--seed`` and ``--sigma`` override their config counterparts.  Exit
status is 0 on success, 1 on data or domain errors, 2 on usage errors.
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
    build_template,
    decode_trajectory,
    design_cost,
    load_params,
    save_params,
    target_box,
    with_offset,
)
from hmpc.controller import run_simulation
from hmpc.kv import Key, read_keys, write_kv
from hmpc.lp import LPError
from hmpc.oracle import reference_cost, solve_nonperiodic, solve_saa
from hmpc.scenarios import (
    CSV_HEADER,
    ScenarioPool,
    load_csv,
    load_pool,
    sample_period,
    save_pool,
    stream,
    synthetic_pool,
)
from hmpc.stage import StageSolveCache

# Every error hmpc raises is a ValueError or an LPError.
USER_ERRORS = (ValueError, KeyError, OSError, LPError)

# The run-config keys: kind, default, least value.  The seed's rule
# (nonnegative) is scenarios.stream's.
RUN_KEYS = {
    "pool_file": Key(str, None),
    "pool_csv": Key(str, None),
    "params_file": Key(str),
    "horizon": Key(int, 100, 1),
    "seed": Key(int, 0),
    "sigma": Key(float, 0.0, 0),
    "keep_planned": Key(int, 7, 0),
    "audit_full_until": Key(int, 100, 0),
    "audit_stride": Key(int, 5, 1),
    "track_overall_gap": Key(bool, True),
    "w1_state": Key(float, None, 0),
    "w1_peak": Key(float, None, 0),
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


def _load_setup(config_path: Path, cfg: dict):
    """Pool, template, box and design cost from a run config's values."""
    base = config_path.parent
    if (cfg["pool_file"] is None) == (cfg["pool_csv"] is None):
        raise ValueError("config needs exactly one of pool_file or pool_csv")
    if cfg["pool_file"] is not None:
        pool = load_pool(base / cfg["pool_file"])
    else:
        days = load_csv(base / cfg["pool_csv"])
        pool = ScenarioPool(support=tuple(days), weights=np.full(len(days), 1 / len(days)))
    params = load_params(base / cfg["params_file"])
    n_pool = pool.support[0].n_steps
    if params.period_length_n != n_pool:
        raise ValueError(
            f"params file has period_length_n = {params.period_length_n}, "
            f"but the pool's days have {n_pool} steps"
        )
    template = build_template(params)
    max_load = float(max(d.load.max() for d in pool.support))
    return pool, template, target_box(params, max_load), design_cost(params)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(args) -> int:
    pool = synthetic_pool(
        n_steps=args.steps,
        n_scenarios=args.scenarios,
        seed=args.seed,
        base_load=args.base_load,
    )
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_pool(pool, out / "pool.json", seed=args.seed)
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


def _run_config(args) -> tuple[Path, dict, dict]:
    """A run config's path, its text with the flags on top, and its values."""
    config_path = Path(args.config)
    overrides = {key: getattr(args, key, None) for key in ("horizon", "seed", "sigma")}
    return config_path, *read_keys(config_path, RUN_KEYS, "config", overrides)


def cmd_run(args) -> int:
    config_path, text, cfg = _run_config(args)
    if (cfg["w1_state"] is None) != (cfg["w1_peak"] is None):
        raise ValueError("w1_state and w1_peak go together")
    pool, template, box, cw = _load_setup(config_path, cfg)

    sim = run_simulation(
        template,
        cw,
        box,
        pool,
        periods=cfg["horizon"],
        seed=cfg["seed"],
        forecast_sigma=cfg["sigma"],
        w1=None if cfg["w1_state"] is None else np.array([cfg["w1_state"], cfg["w1_peak"]]),
        audit_full_until=cfg["audit_full_until"],
        audit_stride=cfg["audit_stride"],
        keep_planned=cfg["keep_planned"],
        track_overall_gap=cfg["track_overall_gap"],
    )

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    resolved = dict(text)
    for key in ("pool_file", "pool_csv", "params_file"):
        if key in resolved:
            resolved[key] = str((config_path.parent / resolved[key]).resolve())
    resolved.setdefault("horizon", str(cfg["horizon"]))
    resolved.setdefault("seed", str(cfg["seed"]))
    resolved.setdefault("sigma", _fmt(cfg["sigma"]))
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
        f"{cfg['horizon']} periods: targets ({_fmt(last.targets_next[0])}, "
        f"{_fmt(last.targets_next[1])}), final eps {eps_text}"
    )
    print(f"tables under {out}")
    return 0


def cmd_oracle(args) -> int:
    config_path, _, cfg = _run_config(args)
    pool, template, box, cw = _load_setup(config_path, cfg)
    periods, seed = args.periods, cfg["seed"]

    rng = stream(seed)
    history = [sample_period(pool, rng) for _ in range(periods)]
    targets, value_p = solve_saa(template, history, box, cw)
    value_np, peak_np = solve_nonperiodic(template, history, cw)

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
    _, cfg = read_keys(run_dir / "run.conf", RUN_KEYS, "config")
    pool, template, box, cw = _load_setup(run_dir / "run.conf", cfg)
    cache = StageSolveCache(template)

    with open(run_dir / "metrics.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        metrics = list(reader)
    if not metrics:
        raise ValueError(f"{run_dir / 'metrics.csv'}: no rows")
    for column in ("period", "E0_target", "peak_target", "lower_bound"):
        if column not in reader.fieldnames:
            raise ValueError(f"{run_dir / 'metrics.csv'}: missing column {column!r}")

    def number(row, column):
        try:
            return float(row[column])
        except (TypeError, ValueError):
            raise ValueError(
                f"{run_dir / 'metrics.csv'}: period {row['period']}: "
                f"{column} is {row[column]!r}, not a number"
            ) from None

    rows = []
    for row in metrics:
        w = np.array([number(row, "E0_target"), number(row, "peak_target")])
        ref = reference_cost(template, pool, cw, w, cache=cache)
        lb = number(row, "lower_bound")
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
