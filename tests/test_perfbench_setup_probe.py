"""The benchmark's set-up probe (perfbench/setup_probe.py) calls the CLI's
``build_*`` steps with fixed signatures; a changed signature would fail
only the benchmark.  This runs the probe on the shipped configs and edits
nothing under perfbench/."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_probe_builds_the_shipped_configs():
    configs = sorted(str(path) for path in (ROOT / "configs").glob("*.json"))
    assert len(configs) == 3
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"), *configs],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    timings = json.loads(done.stdout.splitlines()[-1])
    assert set(timings) == {"handler_s", "kernel_s"}
