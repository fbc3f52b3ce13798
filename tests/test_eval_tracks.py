"""Tests for track association."""

import numpy as np
import pytest

from repro.core.estimator import SourceEstimate
from repro.eval.tracks import Track, TrackAssociator


def est(x, y, strength=10.0):
    return SourceEstimate(x, y, strength, mass=0.1, mass_ratio=2.5, seed_count=4)


class TestTrackBasics:
    def test_positions_and_displacement(self):
        track = Track(track_id=0)
        track.history = [(0, est(0, 0)), (1, est(3, 4))]
        assert track.positions().shape == (2, 2)
        assert track.displacement() == pytest.approx(5.0)

    def test_last_accessors(self):
        track = Track(track_id=0)
        track.history = [(0, est(0, 0)), (5, est(1, 1))]
        assert track.last_step == 5
        assert track.last_estimate.x == 1


class TestAssociation:
    def test_stable_estimate_forms_one_confirmed_track(self):
        assoc = TrackAssociator(gate=10.0, confirm_after=2)
        for t in range(4):
            assoc.update(t, [est(50 + 0.3 * t, 50)])
        confirmed = assoc.confirmed_tracks()
        assert len(confirmed) == 1
        assert confirmed[0].length == 4

    def test_two_sources_two_tracks(self):
        assoc = TrackAssociator(gate=10.0, confirm_after=2)
        for t in range(3):
            assoc.update(t, [est(20, 20), est(80, 80)])
        assert assoc.active_count() == 2

    def test_one_step_ghost_never_confirmed(self):
        assoc = TrackAssociator(gate=10.0, confirm_after=2)
        assoc.update(0, [est(50, 50), est(10, 90)])   # ghost at (10, 90)
        for t in range(1, 4):
            assoc.update(t, [est(50, 50)])
        confirmed = assoc.confirmed_tracks()
        assert len(confirmed) == 1
        assert confirmed[0].last_estimate.x == pytest.approx(50)

    def test_coasting_through_misses(self):
        assoc = TrackAssociator(gate=10.0, confirm_after=2, max_coast=2)
        assoc.update(0, [est(50, 50)])
        assoc.update(1, [est(50, 50)])
        assoc.update(2, [])              # miss 1
        assoc.update(3, [])              # miss 2 (still coasting)
        assoc.update(4, [est(51, 50)])   # reacquired
        confirmed = assoc.confirmed_tracks()
        assert len(confirmed) == 1
        assert confirmed[0].length == 3

    def test_track_closes_after_max_coast(self):
        assoc = TrackAssociator(gate=10.0, confirm_after=1, max_coast=1)
        assoc.update(0, [est(50, 50)])
        assoc.update(1, [])
        assoc.update(2, [])
        assert assoc.active_count() == 0
        assert assoc.confirmed_tracks(include_closed=True)

    def test_moving_source_followed_within_gate(self):
        assoc = TrackAssociator(gate=8.0, confirm_after=2)
        for t in range(10):
            assoc.update(t, [est(10 + 4 * t, 30)])
        confirmed = assoc.confirmed_tracks()
        assert len(confirmed) == 1
        assert confirmed[0].displacement() == pytest.approx(36.0)

    def test_jump_beyond_gate_starts_new_track(self):
        assoc = TrackAssociator(gate=5.0, confirm_after=1, max_coast=0)
        assoc.update(0, [est(10, 10)])
        assoc.update(1, [est(60, 60)])
        all_tracks = assoc.confirmed_tracks(include_closed=True)
        assert len(all_tracks) == 2

    def test_greedy_matching_prefers_closest(self):
        assoc = TrackAssociator(gate=20.0, confirm_after=1)
        assoc.update(0, [est(10, 10), est(30, 10)])
        # Both new estimates are in both gates; closest pairs must win.
        assoc.update(1, [est(12, 10), est(28, 10)])
        tracks = sorted(assoc.confirmed_tracks(), key=lambda t: t.history[0][1].x)
        assert tracks[0].last_estimate.x == pytest.approx(12)
        assert tracks[1].last_estimate.x == pytest.approx(28)

    def test_validation(self):
        with pytest.raises(ValueError):
            TrackAssociator(gate=0.0)
        with pytest.raises(ValueError):
            TrackAssociator(confirm_after=0)
        with pytest.raises(ValueError):
            TrackAssociator(max_coast=-1)


class TestEndToEnd:
    def test_tracks_from_localizer_run(self):
        """Track association over a real two-source run: exactly two
        long-lived confirmed tracks, near the true sources."""
        from repro.sim.runner import run_scenario
        from repro.sim.scenarios import scenario_a

        scenario = scenario_a(strengths=(50.0, 50.0), n_time_steps=12)
        result = run_scenario(scenario, seed=3)
        assoc = TrackAssociator(gate=12.0, confirm_after=3, max_coast=2)
        for t, record in enumerate(result.steps):
            assoc.update(t, record.estimates)
        confirmed = [t for t in assoc.confirmed_tracks() if t.length >= 6]
        assert len(confirmed) == 2
        ends = sorted((t.last_estimate.x, t.last_estimate.y) for t in confirmed)
        assert np.hypot(ends[0][0] - 47, ends[0][1] - 71) < 6
        assert np.hypot(ends[1][0] - 81, ends[1][1] - 42) < 6
