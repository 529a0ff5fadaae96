"""The scripts run end to end on a tiny grid against the package API, and
the mutant list still matches the source."""

import importlib.util
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


def test_every_mutant_fragment_matches_once():
    # scripts/mutants.py refuses a fragment that does not match its file
    # exactly once; this keeps the list in step with the source
    spec = importlib.util.spec_from_file_location("mutants", SCRIPTS / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert mutants.MUTANTS
    assert mutants.fragment_problems() == []
