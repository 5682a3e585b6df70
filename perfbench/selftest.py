"""Shows that each correctness check of the benchmark rejects a wrong answer.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/selftest.py

Every case hands one check a right answer, which must pass, and a wrong
one (a NaN objective, a lower bound above the running cost, a stage cost
off by 1e-4, ...), which must raise CheckFailed.  The right answers come
from short real runs at the smoke size.  Exits 1 if a check passes a
wrong answer or rejects a right one.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import sys

import checks
import inputs
import worker
from hmpc import controller, oracle, solve_stage

NAN = float("nan")


def main() -> int:
    size = inputs.SMOKE["repeat-days"]
    ws = inputs.api_setup(size)
    days = inputs.day_source("repeat-days", ws, size, 3)(0)
    state = controller.initial_state(ws.template, ws.cw, ws.box)
    records = [controller.step_period(state, d, audit=True)[1] for d in days]
    w = state.targets_w
    reps, weights = checks.class_weights(state.history)
    phi = checks.highs_running_cost(ws.template, ws.cw, w, reps, weights)
    _, v_saa = oracle.solve_saa(ws.template, state.history, ws.box, ws.cw)
    highs_saa = checks.highs_saa(ws.template, reps, weights, ws.box, ws.cw)
    h = solve_stage(ws.template, records[0].targets, days[0]).cost_h
    highs_h = checks.highs_stage_cost(ws.template, records[0].targets, days[0])
    envelope = checks.envelope_at(state.cuts, ws.cw, w)
    raised = [dataclasses.replace(c, alpha=c.alpha + 2 * abs(phi)) for c in state.cuts]
    audits = [(r.period, r.lower_bound, r.running_cost) for r in records]
    costs = [r.stage_cost for r in records]

    tmp = worker.ROOT / ".perfbench_tmp" / f"selftest-{os.getpid()}"
    a, b = tmp / "a", tmp / "b"
    for d in (a, b):
        d.mkdir(parents=True)
        (d / "metrics.csv").write_text("period,lower_bound\n1,2.5\n")

    def flip_byte():
        (b / "metrics.csv").write_text("period,lower_bound\n1,2.6\n")
        checks.same_files(a, b)

    cases = [
        ("stage costs >= 0", lambda: checks.stage_costs_nonnegative(costs),
         lambda: checks.stage_costs_nonnegative(costs[:-1] + [-1e-3])),
        ("stage cost is finite", None, lambda: checks.stage_costs_nonnegative([NAN])),
        ("lower bound <= running cost", lambda: checks.audits_bounded(audits),
         lambda: checks.audits_bounded([(7, 10.5, 10.0)])),
        ("audit reads a NaN bound", None, lambda: checks.audits_bounded([(7, NAN, 10.0)])),
        ("master bound <= SAA", lambda: checks.at_most("m", records[-1].master_bound, v_saa),
         lambda: checks.at_most("m", v_saa + 1.0, v_saa)),
        ("SAA <= running cost", lambda: checks.at_most("s", v_saa, phi),
         lambda: checks.at_most("s", phi * 1.001, phi)),
        ("solve_saa matches HiGHS", lambda: checks.agree("saa", v_saa, highs_saa),
         lambda: checks.agree("saa", v_saa * (1 + 1e-4), highs_saa)),
        ("NaN objective", None, lambda: checks.agree("saa", NAN, highs_saa)),
        ("stage cost matches HiGHS", lambda: checks.agree("h", h, highs_h),
         lambda: checks.agree("h", h * (1 + 1e-4) + 1e-3, highs_h)),
        ("exact cost within a fraction of the optimum",
         lambda: checks.near_optimum("ref", 1.14, 1.0),
         lambda: checks.near_optimum("ref", 1.16, 1.0)),
        ("exact cost >= optimum", None, lambda: checks.near_optimum("ref", 0.99, 1.0)),
        ("one cut per period", lambda: checks.count_equals("cuts", len(state.cuts), len(days)),
         lambda: checks.count_equals("cuts", len(state.cuts) - 1, len(days))),
        ("cut envelope <= running cost", lambda: checks.at_most("env", envelope, phi),
         lambda: checks.at_most("env", checks.envelope_at(raised, ws.cw, w), phi)),
        ("non-periodic <= periodic", lambda: checks.at_most("np", 99.0, 100.0),
         lambda: checks.at_most("np", 100.5, 100.0)),
        ("byte-identical reruns", lambda: checks.same_files(a, b), flip_byte),
    ]
    bad = 0
    try:
        for label, right, wrong in cases:
            if right is not None:
                try:
                    right()
                except checks.CheckFailed as exc:
                    print(f"FAIL {label}: rejected a right answer: {exc}")
                    bad += 1
            try:
                wrong()
            except checks.CheckFailed as exc:
                print(f"ok   {label}: {exc}")
            else:
                print(f"FAIL {label}: passed a wrong answer")
                bad += 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    print(f"{len(cases) - bad} of {len(cases)} checks reject wrong answers")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
