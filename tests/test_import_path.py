"""What ``import repro`` and a session load: only what a step runs.

A fresh process pays for every module on the session path before its
first reading (``setup_s``).  No step needs scipy: the weight update's
log Gamma is :func:`repro.core.special.log_gamma`, and the Hungarian
assignment in ``scipy.optimize`` and the sweep engine ``repro.exp`` are
imported where they are used (end-of-run scoring, sweeps).  ``networkx``
is not used at all.  These checks run in subprocesses, so they see a
cold ``sys.modules`` and do not drift with machine speed.
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


def test_sessions_run_without_scipy_networkx_or_sweep_engine():
    # A None entry in sys.modules makes any import of that name (and of
    # every submodule under it) raise ImportError, so a hidden dependency
    # fails loudly here.  The CLI and the serving tier are imported too:
    # both start fresh processes.  Both backends run a session, since the
    # fast backend has its own likelihood kernel.
    script = """
import sys
sys.modules["scipy"] = None
sys.modules["networkx"] = None

import repro
import repro.__main__
import repro.serve.service
from repro.sim.scenarios import scenario_a
from repro.sim.session import SessionSpec

for backend in ("default", "fast"):
    session = SessionSpec(
        scenario=scenario_a(n_particles=500, n_time_steps=3),
        seed=4,
        backend=backend,
    ).open()
    result = session.run()
    assert len(result.steps) == 3, len(result.steps)
    assert session.localizer.backend.name == backend, session.localizer.backend
loaded = [
    name
    for name, module in sys.modules.items()
    if name.partition(".")[0] in ("scipy", "networkx") and module is not None
]
assert not loaded, loaded
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
