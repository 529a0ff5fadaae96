"""The scripts run end to end on a tiny grid against the package API."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "script, args",
    [
        ("run_sweep.py", ["--d-max", "2", "--m-max", "2", "--max-weight", "1"]),
    ],
)
def test_script_runs(script, args):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args], capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
