"""Benchmark of the retroactive period loop: one workload per call.

    python3 perfbench/run.py --workload repeat-days --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload demo-cli --seed 1 --seconds 5 --trace 0 --smoke

Run from anywhere inside a checkout of the repository; the program is
imported from the checkout's ``src``.  Prints the metrics as a table on
stderr and, as the last line of stdout, one JSON object with the keys
correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, ``--trace 1`` the per-layer ones.  See README.md.

This file uses only the standard library: numpy must not be loaded before
the BLAS thread count is pinned, so every process that computes is a
child started with the pinned environment below.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("repeat-days", "distinct-days", "demo-cli")

# Results depend on the BLAS thread count at n = 24 (README.md), and a
# second thread only adds contention on a two-core host.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("setup_s", "s"),
    ("periods_per_s", "1/s"),
    ("period_ms_p50", "ms"),
    ("period_ms_tail", "ms"),
    ("period_ms_late", "ms"),
    ("certify_s", "s"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER_UNITS = {"calls": "count", "pivots": "count", "lookups": "count",
                   "solves": "count", "audits": "count", "vertices": "count",
                   "cert_checks": "count", "master_pivots": "count",
                   "cache_hit_ratio": "ratio", "dense_mb": "MB"}


def timeout_s(seconds: float) -> float:
    """When run.py kills the worker: 170 s at the 20 s of BENCHMARK.json,
    growing with the number of rounds that --seconds asks for."""
    return 130.0 + 2.0 * seconds


def layer_unit(name: str) -> str:
    field = name.split(".", 1)[1]
    return "s" if field.endswith("_s") else PER_LAYER_UNITS[field]


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of n samples beyond it
    (the median for a smoke-size run with too few samples).  A run's work
    is fixed, so n and the percentile are the same in every run."""
    return max(50, math.floor(100 * (n - 10) / n))


def nearest_rank(samples: list, q: int) -> float:
    ordered = sorted(samples)
    return ordered[max(math.ceil(q / 100 * len(ordered)), 1) - 1]


def end_to_end(raw: dict) -> dict:
    """The metrics; null where a failed operation left no samples."""
    series = raw["series"]
    periods = [t for s in series for t in s]
    late = [t for s in series for t in s[len(s) - len(s) // 4:]]
    values = dict.fromkeys(name for name, _ in END_TO_END)
    values["peak_rss_mb"] = raw["peak_rss_mb"]
    if raw["setup_s"]:
        values["setup_s"] = statistics.median(raw["setup_s"])
    if raw["certify_s"]:
        values["certify_s"] = statistics.median(raw["certify_s"])
    q = None
    if periods:
        q = tail_percentile(len(periods))
        values.update(
            periods_per_s=len(periods) / raw["loop_s"],
            period_ms_p50=1e3 * statistics.median(periods),
            period_ms_tail=1e3 * nearest_rank(periods, q),
            period_ms_late=1e3 * statistics.median(late),
        )
    print(f"{len(periods)} periods in {len(series)} loops, {raw['rounds']} rounds; "
          f"tail = p{q}; loop wall {raw['loop_s']:.3f} s", file=sys.stderr)
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(raw: dict) -> dict:
    print(f"traced loop wall {raw['loop_s']:.3f} s", file=sys.stderr)
    return {name: {"value": v, "unit": layer_unit(name)} for name, v in raw["layers"].items()}


def run_worker(args, tmp: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **PINNED_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--tmp", str(tmp)] + ["--smoke"] * args.smoke
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                            start_new_session=True, text=True)
    try:
        stdout, _ = proc.communicate(timeout=timeout_s(args.seconds))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"run.py: worker exceeded {timeout_s(args.seconds):.0f} s")
    finally:
        # The worker's own children share its process group.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise SystemExit(f"run.py: worker exited {proc.returncode}")
    return json.loads(stdout.splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, for a quick try")
    args = ap.parse_args()

    needed = [ROOT / "src" / "hmpc" / "__init__.py", ROOT / "demo.conf"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        print(f"run.py: not a checkout of the repository, missing {missing}", file=sys.stderr)
        return 2

    tmp = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        raw = run_worker(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass

    metrics = per_layer(raw) if args.trace else end_to_end(raw)
    if raw["message"]:
        print(f"run.py: {raw['message']}", file=sys.stderr)
    for name, m in metrics.items():
        value = "no samples" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:24s} {value} {m['unit']}", file=sys.stderr)
    print(f"  attempted {raw['attempted']}, failed {raw['failed']}, correct {raw['correct']}",
          file=sys.stderr)
    print(json.dumps({"correct": raw["correct"], "attempted": raw["attempted"],
                      "failed": raw["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
