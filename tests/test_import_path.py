"""What ``import repro`` and a session load: only what a step runs.

A fresh process pays for every module on the session path before its
first reading (``setup_s``).  Modules no step executes -- the Hungarian
assignment in ``scipy.optimize``, the sweep engine ``repro.exp`` -- are
imported where they are used, and ``networkx`` is not used at all.  These
checks run in subprocesses, so they see a cold ``sys.modules`` and do not
drift with machine speed.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(script: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_session_runs_without_optimize_networkx_or_sweep_engine():
    # A None entry in sys.modules makes any import of that name raise
    # ImportError, so a hidden dependency fails loudly here.  The CLI
    # and the serving tier are imported too: both start fresh processes.
    script = """
import sys
sys.modules["scipy.optimize"] = None
sys.modules["networkx"] = None

import repro
import repro.__main__
import repro.serve.service
from repro.sim.scenarios import scenario_a
from repro.sim.session import LocalizerSession

session = LocalizerSession(scenario_a(n_particles=500, n_time_steps=3), seed=4)
result = session.run()
assert len(result.steps) == 3, len(result.steps)
assert "repro.exp" not in sys.modules
print("ok")
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_deferred_names_still_resolve():
    script = """
import sys
import repro

assert repro.ospa_distance([(0.0, 0.0)], [(3.0, 4.0)]) == 5.0
missing = [name for name in repro.__all__ if not hasattr(repro, name)]
assert not missing, missing
from repro import run_sweep
assert run_sweep is sys.modules["repro.exp"].run_sweep
assert "run_sweep" in dir(repro)
print("ok")
"""
    proc = run_python(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
