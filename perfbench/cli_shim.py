"""Run one `hmpc` command and record what the benchmark needs from it.

    python3 perfbench/cli_shim.py --record OUT.json [--trace] [--ready-only] -- <hmpc args>

This is ``hmpc.cli.main`` with one timer around ``step_period`` at the
name ``run_simulation`` looks it up, ``hmpc.controller.step_period``.
``--trace`` adds the per-layer wrappers of tracing.py.  ``--ready-only``
stops ``hmpc run`` when its first period is about to start and records
that moment on the system-wide monotonic clock, so the parent can time
set-up from its own spawn.  The record is written even when the command
fails; the exit status is the command's.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import tracing


class _FirstPeriodReady(Exception):
    pass


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--ready-only", action="store_true")
    ap.add_argument("hmpc_args", nargs=argparse.REMAINDER)
    args = ap.parse_args()
    argv = args.hmpc_args[1:] if args.hmpc_args[:1] == ["--"] else args.hmpc_args

    import hmpc.cli
    import hmpc.controller

    record = {"period_s": []}
    if args.trace:
        record["layers"] = tracing.empty()
        tracing.install(record["layers"])
    step = hmpc.controller.step_period

    def timed_step(*a, **kw):
        if args.ready_only:
            record["ready"] = time.monotonic()
            raise _FirstPeriodReady
        t0 = time.perf_counter()
        out = step(*a, **kw)
        record["period_s"].append(time.perf_counter() - t0)
        return out

    hmpc.controller.step_period = timed_step
    try:
        status = hmpc.cli.main(argv)
    except _FirstPeriodReady:
        status = 0
    finally:
        with open(args.record, "w") as fh:
            json.dump(record, fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
