"""Smoke test: each narrative demo runs to the end.

Demo 06 trains value forests for over a minute and is left out;
`test_acceptance.py` criterion 6 runs the same regression at scenario scale.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", [
    "01_simulate_economy.py", "02_decoy_policies.py",
    "03_featurize_public_chain.py", "04_spoof_recovery.py",
    "05_group_membership.py", "07_external_dump.py",
])
def test_demo_runs(name, tmp_path):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
