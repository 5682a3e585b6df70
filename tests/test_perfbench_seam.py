"""The traced benchmark wraps hmpc names by attribute; each must exist
and each must still be on the path its layer's work takes."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A few audited periods on a small battery, then every oracle; all calls go
# through module attributes, which is where the wrappers sit.
TRACED_RUN = """
import json
import tracing
counters = tracing.empty()
tracing.install(counters)
import hmpc.battery as battery
import hmpc.controller as controller
import hmpc.oracle as oracle
import hmpc.scenarios as scenarios
from inputs import BATTERY

pool = scenarios.synthetic_pool(n_steps=3, n_scenarios=3, seed=4242)
params = battery.with_offset(battery.BatteryParams(period_length_n=3, **BATTERY), pool)
template = battery.build_template(params)
box = battery.target_box(params, float(max(d.load.max() for d in pool.support)))
cw = battery.design_cost(params)
state = controller.initial_state(template, cw, box)
rng = scenarios.stream(11)
for _ in range(6):
    controller.step_period(state, scenarios.sample_period(pool, rng), audit=True, pool=pool)
oracle.solve_saa(template, state.history, box, cw)
oracle.solve_pool_saa(template, pool, box, cw)
oracle.solve_nonperiodic(template, state.history, cw)
oracle.reference_cost(template, pool, cw, state.targets_w)
print(json.dumps(tracing.merge([counters])))
"""


def _run(code):
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
        OPENBLAS_NUM_THREADS="1",
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_tracing_finds_every_name_it_wraps():
    _run("import tracing; tracing.install(tracing.empty())")


def test_every_traced_layer_moves():
    layers = json.loads(_run(TRACED_RUN))
    assert sorted(name for name, value in layers.items() if not value > 0) == []
