"""The demo scripts run to completion against the package in ``src``."""

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(REPO / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_radiation_patterns_demo_steers_the_beam():
    lines = run_demo("radiation_patterns.py").splitlines()
    steered = [line for line in lines if line.startswith("steered: peak")]
    assert len(steered) == 1
    assert steered[0].endswith("at elevation +25, azimuth 120")


def test_optimizer_comparison_demo_reports_step_budgets():
    out = run_demo("optimizer_comparison.py")
    assert "IM matched the exhaustive optimum in" in out
    budget = [line.split() for line in out.splitlines() if line.lstrip().startswith("40x40")]
    assert budget == [["40x40", "IM", "3200", "steps", "stripes", "160", "steps", "(20.0x", "fewer)"]]
