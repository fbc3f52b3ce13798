"""perfbench's layer probe must still find every callable it wraps.

``perfbench/layers.py`` times the program by monkey-patching functions
and methods by name; after a rename in ``src/`` its ``LayerProbe.wrap``
raises ``KeyError`` and the traced benchmark run crashes.  These tests
install every layer map against the current code -- ``perfbench/`` is
only imported, never edited -- and name each wrapped callable that no
longer exists.
"""

import importlib
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

INSTALLERS = (
    "install_session_layers",
    "install_serve_layers",
    "install_worker_compute",
    "install_shard_compute",
)


@pytest.fixture(scope="module")
def layers():
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("layers")
    finally:
        sys.path.remove(str(PERFBENCH))


def _checking_probe(layers):
    """A LayerProbe that records missing targets instead of raising."""

    class CheckingProbe(layers.LayerProbe):
        def __init__(self, root):
            super().__init__(root)
            self.missing = []

        def _exists(self, owner, attr):
            if attr in vars(owner):
                return True
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return False

        def wrap(self, owner, attr, name, count=None):
            if self._exists(owner, attr):
                super().wrap(owner, attr, name, count)

        def wrap_async(self, owner, attr, name):
            if self._exists(owner, attr):
                super().wrap_async(owner, attr, name)

        def wrap_roundtrip(self, owner, attr, prefix):
            if self._exists(owner, attr):
                super().wrap_roundtrip(owner, attr, prefix)

        def _patch(self, owner, attr, replacement):
            if self._exists(owner, attr):
                super()._patch(owner, attr, replacement)

        def _patch_item(self, mapping, key, replacement):
            if key in mapping:
                super()._patch_item(mapping, key, replacement)
            else:
                self.missing.append(f"[{key!r}]")

    return CheckingProbe("sim.session")


@pytest.mark.parametrize("installer", INSTALLERS)
def test_every_wrapped_callable_exists(layers, installer):
    probe = _checking_probe(layers)
    with probe:
        getattr(layers, installer)(probe)
    assert not probe.missing, (
        f"perfbench/layers.py {installer} wraps callables that no longer "
        f"exist: {', '.join(probe.missing)}"
    )


def test_plain_probe_installs_and_restores(layers):
    """The unmodified probe installs every map and undoes it on exit."""
    from repro.core import localizer
    from repro.core.particles import ParticleSet

    originals = (
        ParticleSet.grid,
        ParticleSet.indices_within_grid,
        localizer.resample_subset,
        localizer.extract_estimates,
        localizer.reweight_in_place,
    )
    with layers.LayerProbe("sim.session") as probe:
        for installer in INSTALLERS:
            getattr(layers, installer)(probe)
        assert ParticleSet.grid is not originals[0]
    assert (
        ParticleSet.grid,
        ParticleSet.indices_within_grid,
        localizer.resample_subset,
        localizer.extract_estimates,
        localizer.reweight_in_place,
    ) == originals
