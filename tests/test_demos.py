"""The demo scripts run to completion against the package.  Each demo
asserts every identity verdict it prints at the value its text claims, so
a false identity exits non-zero here, and its stdout has the digest
recorded in tests/data/demos.sha256."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = sorted(p.name for p in (ROOT / "demos").glob("*.py"))

RECORDED = dict(
    reversed(line.split())
    for line in (ROOT / "tests" / "data" / "demos.sha256").read_text().splitlines()
)


def test_every_demo_has_a_recorded_digest():
    """demos.sha256 records the stdout of every demo and nothing else."""
    assert sorted(RECORDED) == sorted(f"demos-out/{Path(d).stem}.txt" for d in DEMOS)


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    path = f"demos-out/{Path(demo).stem}.txt"
    assert hashlib.sha256(proc.stdout).hexdigest() == RECORDED[path], path
