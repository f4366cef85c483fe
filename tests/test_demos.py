"""The walkthroughs in ``demos/`` run to completion against the package in ``src/``."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_collected():
    assert {p.name for p in DEMOS} >= {"expand_series.py", "numeric_checks.py",
                                       "partition_congruence.py", "verify_catalog.py"}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(demo)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    if demo.name == "partition_congruence.py":
        assert "match: True" in done.stdout.splitlines()
