"""Smoke test: each analysis script runs to completion on a tiny instance."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("args", [
    ["stochastic_efficiency.py", "--n", "400", "--p", "10", "--seeds", "1", "--m", "50"],
    ["baseline_comparison.py", "--n", "400", "--p", "10", "--seeds", "1"],
    ["convergence_curve.py", "--iters", "20"],
])
def test_script_exits_cleanly(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / args[0]), *args[1:]],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
