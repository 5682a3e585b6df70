"""The traced benchmark wraps hmpc names by attribute; each must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_tracing_finds_every_name_it_wraps():
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]),
    )
    proc = subprocess.run(
        [sys.executable, "-c", "import tracing; tracing.install(tracing.empty())"],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
