"""The demo scripts run to completion against the package.  Each demo
asserts every identity verdict it prints at the value its text claims, so
a false identity exits non-zero here."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = (
    "01_exact_scalars.py",
    "02_root_data_and_admissible_pairs.py",
    "03_quantum_algebra.py",
    "04_braid_operators.py",
    "05_coideal_serre_relations.py",
    "06_bar_involution_decisions.py",
)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
