"""One benchmark workload in one process.

Started by run.py with the BLAS thread count pinned and ``src`` on the
path; not meant to be run by hand.  Prints one JSON line with the raw
samples, which run.py turns into metrics:

    series     per-period wall seconds, one list per loop from a fresh state
    loop_s     wall seconds of all loops together
    certify_s  wall seconds of each round's certification phase
    setup_s    seconds from spawn to first period of fresh interpreters
               (untraced runs only)
    attempted, failed, correct, message, peak_rss_mb, layers

A run is a fixed number of whole rounds of the same operations:
``--seconds`` divided by the round's nominal length (its wall time on the
reference host, README.md), at least one.  The work of a run therefore
does not depend on how fast the host or the program is.  Each round
returns its checks, which run after the last round, once peak memory is
read; an operation that raises ends the run's rounds.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from hmpc import battery, controller, kv, oracle, scenarios
from inputs import DEMO_DATA_SEED, SIZES, SMOKE, WINDOW, ApiSetup, Size, api_setup, day_source

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
# demo-cli's `hmpc run` calls per round, all with the same seed: the rerun
# check compares their files, and the late quarters of three loops come
# from three stretches of time, which evens out the host's speed changes.
DEMO_RUNS = ("run_a", "run_b", "run_c")


@dataclass
class Tally:
    series: list = field(default_factory=list)
    loop_s: float = 0.0
    certify_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def op(self, fn, *args, **kwargs):
        """Run one counted operation; a raise counts it as failed."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            raise


# ---------------------------------------------------------------------------
# API workloads: repeat-days and distinct-days


def step_loop(ws: ApiSetup, days: list, audit: bool, tally: Tally):
    state = controller.initial_state(ws.template, ws.cw, ws.box)
    times, records = [], []
    start = time.perf_counter()
    for day in days:
        t0 = time.perf_counter()
        state, rec = tally.op(controller.step_period, state, day, audit=audit)
        times.append(time.perf_counter() - t0)
        records.append(rec)
    tally.loop_s += time.perf_counter() - start
    tally.series.append(times)
    return state, records


def repeat_days_round(ws: ApiSetup, size: Size, days: list, tally: Tally):
    state, records = step_loop(ws, days, True, tally)
    w, history = state.targets_w, list(state.history)
    t0 = time.perf_counter()
    _, v_saa = tally.op(oracle.solve_saa, ws.template, history, ws.box, ws.cw)
    ref = tally.op(oracle.reference_cost, ws.template, ws.pool, ws.cw, w)
    tally.certify_s.append(time.perf_counter() - t0)

    def verify():
        import checks

        checks.stage_costs_nonnegative([r.stage_cost for r in records])
        checks.audits_bounded([(r.period, r.lower_bound, r.running_cost) for r in records])
        reps, weights = checks.class_weights(history)
        phi = checks.highs_running_cost(ws.template, ws.cw, w, reps, weights)
        checks.at_most("final master bound <= SAA optimum", records[-1].master_bound, v_saa)
        checks.at_most("SAA optimum <= running cost at final targets", v_saa, phi)
        checks.agree("solve_saa", v_saa,
                     checks.highs_saa(ws.template, reps, weights, ws.box, ws.cw))
        support, probs = list(ws.pool.support), list(ws.pool.weights)
        v_pool = checks.highs_saa(ws.template, support, probs, ws.box, ws.cw)
        checks.agree("reference_cost", ref,
                     checks.highs_running_cost(ws.template, ws.cw, w, support, probs))
        print(f"exact cost at final targets {ref / v_pool - 1:.3%} above the optimum",
              file=sys.stderr)
        checks.near_optimum("exact cost at final targets", ref, v_pool)
        picks = np.linspace(0, len(records) - 1, size.highs_samples).round().astype(int)
        for i in sorted(set(picks.tolist())):
            rec = records[i]
            checks.agree(
                f"period {rec.period} stage cost", rec.stage_cost,
                checks.highs_stage_cost(ws.template, rec.targets, days[i]),
            )

    return verify


def distinct_days_round(ws: ApiSetup, size: Size, days: list, tally: Tally):
    state, records = step_loop(ws, days, False, tally)
    w, history, cuts = state.targets_w, list(state.history), list(state.cuts)
    window = list(ws.pool.support[:WINDOW])
    t0 = time.perf_counter()
    _, v_saa = tally.op(oracle.solve_saa, ws.template, window, ws.box, ws.cw)
    v_np, _ = tally.op(oracle.solve_nonperiodic, ws.template, window, ws.cw)
    tally.certify_s.append(time.perf_counter() - t0)

    def verify():
        import checks

        checks.stage_costs_nonnegative([r.stage_cost for r in records])
        checks.count_equals("cuts after the loop", len(cuts), len(days))
        reps, weights = checks.class_weights(history)
        checks.count_equals("realization classes", len(reps), len(days))
        phi = checks.highs_running_cost(ws.template, ws.cw, w, reps, weights)
        checks.at_most("cut envelope <= running cost at final targets",
                       checks.envelope_at(cuts, ws.cw, w), phi)
        checks.at_most("non-periodic <= periodic on the window", v_np, v_saa)
        wreps, wweights = checks.class_weights(window)
        checks.agree("solve_saa on the window", v_saa,
                     checks.highs_saa(ws.template, wreps, wweights, ws.box, ws.cw))

    return verify


# ---------------------------------------------------------------------------
# demo-cli


class CommandFailed(Exception):
    """An `hmpc` command exited with a non-zero status."""


def cli(args: list, record: Path, traced: bool = False, ready_only: bool = False):
    """Run one `hmpc` command through cli_shim.py; returns (wall s, record)."""
    cmd = [sys.executable, str(HERE / "cli_shim.py"), "--record", str(record)]
    cmd += ["--trace"] * traced + ["--ready-only"] * ready_only + ["--"] + args
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise CommandFailed(f"hmpc {args[0]} exited {proc.returncode}: {proc.stderr[-500:]}")
    with open(record) as fh:
        return wall, json.load(fh)


def demo_dir(tmp: Path, name: str, size: Size) -> Path:
    """A directory with demo.conf set to audit every period, so early and
    late periods do the same audit work (demo.conf audits every 5th period
    after the 100th)."""
    d = tmp / name
    d.mkdir(parents=True)
    conf = kv.read_kv(ROOT / "demo.conf")
    conf["audit_full_until"] = str(size.periods)
    kv.write_kv(d / "demo.conf", conf)
    return d


def gen_data(d: Path, size: Size) -> list:
    return ["gen-data", "--out", str(d / "demo_data"), "--steps", str(size.n_steps),
            "--scenarios", str(size.n_scenarios), "--seed", str(DEMO_DATA_SEED)]


def demo_round(tmp: Path, size: Size, seed: int, r: int, traced: bool, tally: Tally,
               layers: list):
    d = demo_dir(tmp, f"round{r}", size)
    conf = str(d / "demo.conf")

    def command(args, name):
        wall, rec = tally.op(cli, args, d / f"{name}.json", traced)
        layers.append(rec.get("layers"))
        return wall, rec

    command(gen_data(d, size), "gen")
    series = []
    for name in DEMO_RUNS:
        wall, rec = command(
            ["run", "--config", conf, "--out", str(d / name), "--horizon", str(size.periods),
             "--seed", str(seed)], name,
        )
        tally.loop_s += wall
        series.append(rec["period_s"])
    tally.series += series
    # Before `hmpc gap` adds gap.csv to run_a.  The worker's own memory is
    # not in demo-cli's figure, so the checks may be imported here.
    import checks

    for name in DEMO_RUNS[1:]:
        checks.same_files(d / DEMO_RUNS[0], d / name)
    cert = command(["oracle", "--config", conf, "--out", str(d / "oracle"),
                    "--periods", str(size.oracle_periods)], "oracle")[0]
    cert += command(["gap", "--run-dir", str(d / "run_a")], "gap")[0]
    tally.certify_s.append(cert)

    def verify():
        for name, periods in zip(DEMO_RUNS, series):
            checks.count_equals(f"{name} periods stepped", len(periods), size.periods)
        metrics = read_csv(d / "run_a" / "metrics.csv")
        checks.count_equals("metrics.csv rows", len(metrics), size.periods)
        with open(d / "run_a" / "cuts.jsonl") as fh:
            checks.count_equals("cuts.jsonl rows", sum(1 for _ in fh), size.periods)
        audited = [(row["period"], float(row["lower_bound"]), float(row["running_cost"]))
                   for row in metrics if row["running_cost"]]
        checks.count_equals("audited metrics.csv rows", len(audited), size.periods)
        checks.audits_bounded(audited)
        with open(d / "oracle" / "saa.json") as fh:
            periodic = json.load(fh)["value"]
        with open(d / "oracle" / "nonperiodic.json") as fh:
            nonperiodic = json.load(fh)["value"]
        checks.at_most("hmpc oracle: non-periodic <= periodic", nonperiodic, periodic)

        pool = scenarios.load_pool(d / "demo_data" / "pool.json")
        params = battery.load_params(d / "demo_data" / "battery.kv")
        template = battery.build_template(params)
        box = battery.target_box(params, float(max(x.load.max() for x in pool.support)))
        optimum = checks.highs_saa(
            template, list(pool.support), list(pool.weights), box, battery.design_cost(params)
        )
        gap_rows = read_csv(d / "run_a" / "gap.csv")
        checks.count_equals("gap.csv rows", len(gap_rows), size.periods)
        for row in gap_rows:
            checks.at_most(f"gap.csv period {row['period']}: pool optimum <= reference cost",
                           optimum, float(row["reference_cost"]))

    return verify


def read_csv(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def demo_setup_probes(tmp: Path, size: Size) -> list:
    d = demo_dir(tmp, "setup", size)
    cli(gen_data(d, size), d / "gen.json")
    out = []
    for i in range(SETUP_PROBES):
        start = time.monotonic()
        _, rec = cli(["run", "--config", str(d / "demo.conf"), "--out", str(d / "probe")],
                     d / f"probe{i}.json", ready_only=True)
        out.append(rec["ready"] - start)
    return out


# ---------------------------------------------------------------------------


def api_setup_probes(workload: str, seed: int, smoke: bool) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "inputs.py"), "--workload", workload,
               "--seed", str(seed)] + ["--smoke"] * smoke
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        out.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - start)
    return out


def fail(out: dict, where: str, exc: Exception) -> None:
    """Mark the run as not correct, keeping the message of its first failure."""
    out["correct"] = False
    out["message"] = out["message"] or f"{where}: {type(exc).__name__}: {exc}"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(SIZES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--tmp", type=Path)
    args = ap.parse_args()
    size = (SMOKE if args.smoke else SIZES)[args.workload]
    demo = args.workload == "demo-cli"

    out = {"correct": True, "message": ""}
    if not args.trace:
        try:
            out["setup_s"] = (demo_setup_probes(args.tmp, size) if demo
                              else api_setup_probes(args.workload, args.seed, args.smoke))
        except Exception as exc:  # the program failed before its first period
            fail(out, "set-up", exc)
            out["setup_s"] = []
    counters = tracing.empty()
    layers = [] if demo else [counters]
    if args.trace and not demo:
        tracing.install(counters)

    tally = Tally()
    rounds = max(1, int(args.seconds // size.round_s))
    verifies = []
    try:
        if not demo:
            ws = api_setup(size)
            days = day_source(args.workload, ws, size, args.seed)
            run_round = (repeat_days_round if args.workload == "repeat-days"
                         else distinct_days_round)
        for r in range(rounds):
            if demo:
                verifies.append(demo_round(args.tmp, size, args.seed * 1000 + r, r,
                                           bool(args.trace), tally, layers))
            else:
                verifies.append(run_round(ws, size, days(r), tally))
    except Exception as exc:  # an operation that raised, or demo-cli's rerun comparison
        fail(out, f"round {len(verifies)}", exc)

    # Read before the checks import scipy.optimize and call HiGHS in this
    # process, so that the API workloads' figure is the program's alone.
    who = resource.RUSAGE_CHILDREN if demo else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    for r, verify in enumerate(verifies):
        try:
            verify()
        except Exception as exc:  # a failed check
            fail(out, f"checks of round {r}", exc)
            break

    out.update(
        series=tally.series, loop_s=tally.loop_s, certify_s=tally.certify_s,
        attempted=tally.attempted, failed=tally.failed, rounds=len(verifies),
        peak_rss_mb=peak_rss_mb,
    )
    if args.trace:
        out["layers"] = tracing.merge([c for c in layers if c])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
