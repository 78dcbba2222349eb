"""Smoke test: the demo scripts run to completion."""

import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


# 05_performance_profiles.py is left out: it takes about 18 s, more than
# half the time of the rest of the suite.
@pytest.mark.parametrize(
    "name",
    [
        "01_common_descent_direction.py",
        "02_two_solvers_quadratic_pair.py",
        "03_noise_robustness.py",
        "04_multitask_training.py",
    ],
)
def test_demo_runs(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], capture_output=True, text=True, env=src_env()
    )
    assert proc.returncode == 0, proc.stderr
