"""The command line's contract: which flags each subcommand takes, and
which session each command line builds.

``TestFlagSets`` pins every subcommand's arguments -- option strings,
dest, default, choices, required, nargs and action kind, plus the
``-v``/``-q`` mutual exclusion -- so a parser refactor cannot add, drop
or re-default a flag unnoticed.  Argument ``type`` is left out on
purpose: range checks may tighten it.

``TestSessionSpecs`` drives ``run``/``record``/``run-file``/``replay``/
``resume``/``sweep`` with ``run_repeated`` and ``SessionSpec.open``
replaced by capturing stubs, and compares the captured
:class:`~repro.sim.session.SessionSpec` (and the repeat arguments) with
the spec the library call for the same intent builds.
"""

import argparse
import json
from pathlib import Path

import pytest

import repro.__main__ as cli
from repro.__main__ import build_parser, main
from repro.faults import load_fault_schedule
from repro.sim.scenarios import scenario_a
from repro.sim.serialization import load_scenario, save_scenario, scenario_to_dict
from repro.sim.session import SessionSpec, with_config
from repro.streams import read_header, scenario_from_header

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_stream_a1.stream.jsonl"


# --- flag sets ---------------------------------------------------------------


def _row(option_strings, dest, default=None, choices=None, required=False,
         nargs=None, kind="Store"):
    return (tuple(option_strings), dest, default, choices, required, nargs, kind)


def _flag(option, dest, default=None, **kw):
    return _row((option,), dest, default, **kw)


def _switch(option, dest):
    return _row((option,), dest, False, nargs=0, kind="StoreTrue")


def _positional(dest, **kw):
    kw.setdefault("required", True)
    return _row((), dest, **kw)


VERBOSITY = {
    _row(("-v", "--verbose"), "verbose", 0, nargs=0, kind="Count"),
    _row(("-q", "--quiet"), "quiet", False, nargs=0, kind="StoreTrue"),
}
SCENARIO_OPTIONS = {
    _flag("--steps", "steps", 30),
    _flag("--seed", "seed", 0),
    _flag("--strength", "strength", 10.0),
    _flag("--background", "background", 5.0),
    _switch("--obstacles", "obstacles"),
}
INSTRUMENTATION = {
    _flag("--trace", "trace"),
    _switch("--metrics", "metrics"),
    _switch("--health", "health"),
}
BACKEND = {_flag("--backend", "backend", choices=("default", "fast"))}
FAULTS = {_flag("--faults", "faults"), _switch("--integrity", "integrity")}
CHECKPOINTS = {
    _flag("--checkpoint-every", "checkpoint_every", 0),
    _flag("--checkpoint-dir", "checkpoint_dir"),
}
LEDGER = {_flag("--ledger", "ledger")}
REPEATS = {_flag("--repeats", "repeats", 3), _flag("--workers", "workers", 0)}
RECORDING = {_flag("--stream", "stream"), _flag("--flight-dir", "flight_dir")}
JSON = {_switch("--json", "as_json")}
METRIC_NAMES = {_flag("--metrics", "metrics", nargs="+")}

EXPECTED_FLAGS = {
    "run": VERBOSITY | SCENARIO_OPTIONS | INSTRUMENTATION | BACKEND | FAULTS
    | CHECKPOINTS | LEDGER | REPEATS | RECORDING | {_positional("scenario")},
    "record": VERBOSITY | SCENARIO_OPTIONS | INSTRUMENTATION | BACKEND | FAULTS
    | LEDGER | {
        _positional("scenario"),
        _flag("--out", "out", required=True),
        _flag("--stream-id", "stream_id"),
    },
    "run-file": VERBOSITY | INSTRUMENTATION | BACKEND | FAULTS | CHECKPOINTS
    | LEDGER | REPEATS | RECORDING | {
        _positional("path"),
        _flag("--seed", "seed", 0),
    },
    "replay": VERBOSITY | INSTRUMENTATION | BACKEND | FAULTS | CHECKPOINTS
    | LEDGER | {
        _positional("stream"),
        _flag("--seed", "seed"),
        _flag("--pace", "pace", "fast", choices=("fast", "wall")),
        _flag("--speed", "speed", 1.0),
        _switch("--no-faults", "no_faults"),
        _switch("--fusion-auto", "fusion_auto"),
    },
    "resume": VERBOSITY | INSTRUMENTATION | BACKEND | LEDGER | {
        _positional("checkpoint"),
        _flag("--checkpoint-every", "checkpoint_every", 0),
        _flag("--flight", "flight"),
        _flag("--stream", "stream"),
        _switch("--strict-backend", "strict_backend"),
    },
    "serve": VERBOSITY | LEDGER | {
        _positional("streams", nargs="+"),
        _flag("--shards", "shards", 2),
        _switch("--inline", "inline"),
        _flag("--tenant", "tenant", "cli"),
        _flag("--checkpoint-dir", "checkpoint_dir"),
        _flag("--checkpoint-every", "checkpoint_every", 1),
        _flag("--steps-per-call", "steps_per_call", 4),
        _flag("--step-timeout", "step_timeout", 60.0),
        _flag("--max-sessions", "max_sessions", 256),
        _flag("--health-port", "health_port"),
        _flag("--trace", "trace"),
        _switch("--metrics", "metrics"),
    },
    "layout": VERBOSITY | SCENARIO_OPTIONS | {
        _positional("scenario"),
        _flag("--cols", "cols", 72),
    },
    "sweep": VERBOSITY | SCENARIO_OPTIONS | BACKEND | FAULTS | CHECKPOINTS
    | LEDGER | REPEATS | {
        _positional("parameter", choices=("strength", "background")),
        _flag("--values", "values", required=True, nargs="+"),
    },
    "export": VERBOSITY | SCENARIO_OPTIONS | {
        _positional("scenario"),
        _flag("--out", "out", required=True),
    },
    "report": set(),
    "report trace": VERBOSITY | JSON | {_positional("path")},
    "report trends": VERBOSITY | JSON | METRIC_NAMES | {
        _positional("series", required=False, nargs="?"),
        _flag("--ledger", "ledger"),
        _flag("--source", "source"),
        _flag("--last", "last", 0),
        _flag("--stream", "stream"),
    },
    "report compare": VERBOSITY | JSON | METRIC_NAMES | {
        _positional("baseline"),
        _positional("current"),
        _flag("--tolerance", "tolerance", 0.1),
    },
    "report gate": VERBOSITY | JSON | METRIC_NAMES | {
        _flag("--baseline", "baseline", required=True),
        _flag("--current", "current"),
        _flag("--tolerance", "tolerance", 0.1),
    },
}


def _subparsers(parser, prefix=()):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield " ".join(prefix + (name,)), sub
                yield from _subparsers(sub, prefix + (name,))


def _flag_set(parser):
    rows = set()
    for action in parser._actions:
        if isinstance(action, (argparse._HelpAction, argparse._SubParsersAction)):
            continue
        rows.add(_row(
            action.option_strings,
            action.dest,
            action.default,
            None if action.choices is None else tuple(action.choices),
            action.required,
            action.nargs,
            type(action).__name__.strip("_").replace("Action", ""),
        ))
    return rows


PARSERS = dict(_subparsers(build_parser()))


class TestFlagSets:
    def test_every_subcommand_is_pinned(self):
        assert set(PARSERS) == set(EXPECTED_FLAGS)

    @pytest.mark.parametrize("command", sorted(EXPECTED_FLAGS))
    def test_flag_set(self, command):
        assert _flag_set(PARSERS[command]) == EXPECTED_FLAGS[command]

    @pytest.mark.parametrize(
        "command", sorted(c for c in EXPECTED_FLAGS if c != "report")
    )
    def test_verbose_and_quiet_exclude_each_other(self, command):
        groups = [
            {s for a in g._group_actions for s in a.option_strings}
            for g in PARSERS[command]._mutually_exclusive_groups
        ]
        assert groups == [{"-v", "--verbose", "-q", "--quiet"}]


# --- argv -> SessionSpec ------------------------------------------------------


class _Captured(Exception):
    """Raised by the stubs once the session spec is in hand."""


@pytest.fixture
def capture(monkeypatch):
    """Replace ``run_repeated`` and ``SessionSpec.open`` with capturing stubs."""
    seen = {}

    def fake_run_repeated(spec, **kwargs):
        seen["spec"], seen["kwargs"] = spec, kwargs
        raise _Captured

    def fake_open(self, *args, **kwargs):
        seen.setdefault("spec", self)
        raise _Captured

    monkeypatch.setattr(cli, "run_repeated", fake_run_repeated)
    monkeypatch.setattr(SessionSpec, "open", fake_open)
    return seen


def _run_captured(seen, argv):
    with pytest.raises(_Captured):
        main(argv)
    return seen


@pytest.fixture
def files(tmp_path):
    faults = tmp_path / "faults.json"
    faults.write_text(json.dumps({
        "seed": 9,
        "models": [{"kind": "dropout", "sensor_ids": [1, 2],
                    "start": 1, "end": 3}],
    }))
    doc = tmp_path / "scenario.json"
    save_scenario(scenario_a(strengths=(50.0, 50.0), n_time_steps=3), doc)
    checkpoint = tmp_path / "run.ckpt.json"
    checkpoint.write_text("{}")
    return {
        "faults": str(faults),
        "doc": str(doc),
        "checkpoint": str(checkpoint),
        "dir": str(tmp_path / "ckpts"),
        "out": str(tmp_path / "out.stream.jsonl"),
    }


#: The extra argv per option; ``{name}`` fields are filled from ``files``.
OPTIONS = {
    "plain": [],
    "backend": ["--backend", "fast"],
    "faults": ["--faults", "{faults}"],
    "integrity": ["--integrity"],
    "seed": ["--seed", "7"],
    "checkpoint": ["--checkpoint-every", "2", "--checkpoint-dir", "{dir}"],
    "stream": ["--stream", "{out}"],
}


def _options(argv, files):
    return [a.format(**files) for a in argv]


def _configured(scenario, option, files):
    """The scenario after the shared --faults/--integrity/--backend flags."""
    if option == "faults":
        scenario = scenario.with_faults(load_fault_schedule(files["faults"]))
    return with_config(
        scenario,
        backend="fast" if option == "backend" else None,
        integrity=option == "integrity",
    )


class TestSessionSpecs:
    @pytest.mark.parametrize(
        "option",
        ["plain", "backend", "faults", "integrity", "seed", "checkpoint", "stream"],
    )
    def test_run(self, capture, files, option):
        argv = ["run", "a", "--steps", "3", "--repeats", "1"]
        seen = _run_captured(capture, argv + _options(OPTIONS[option], files))
        scenario = _configured(scenario_a(n_time_steps=3), option, files)
        expected = SessionSpec(
            scenario=scenario,
            record_path=files["out"] if option == "stream" else None,
        )
        assert seen["spec"].to_dict() == expected.to_dict()
        self._assert_run_arguments(seen["kwargs"], option, files)

    @pytest.mark.parametrize(
        "option",
        ["plain", "backend", "faults", "integrity", "seed", "checkpoint", "stream"],
    )
    def test_run_file(self, capture, files, option):
        argv = ["run-file", files["doc"], "--repeats", "1"]
        seen = _run_captured(capture, argv + _options(OPTIONS[option], files))
        scenario = _configured(load_scenario(files["doc"]), option, files)
        expected = SessionSpec(
            scenario=scenario,
            record_path=files["out"] if option == "stream" else None,
        )
        assert seen["spec"].to_dict() == expected.to_dict()
        self._assert_run_arguments(seen["kwargs"], option, files)

    @pytest.mark.parametrize(
        "option", ["plain", "backend", "faults", "integrity", "seed", "stream"]
    )
    def test_record(self, capture, files, option):
        argv = ["record", "a", "--steps", "3", "--out", files["out"]]
        extra = (
            ["--stream-id", "sid"] if option == "stream"
            else _options(OPTIONS[option], files)
        )
        seen = _run_captured(capture, argv + extra)
        expected = SessionSpec(
            scenario=_configured(scenario_a(n_time_steps=3), option, files),
            record_path=files["out"],
            record_stream_id="sid" if option == "stream" else None,
        )
        assert seen["spec"].to_dict() == expected.to_dict()
        kwargs = seen["kwargs"]
        assert kwargs["n_repeats"] == 1
        assert kwargs["base_seed"] == (7 if option == "seed" else 0)
        assert kwargs["workers"] == 0
        assert kwargs["flight_dir"] is None
        assert kwargs["checkpoint_every"] == 0
        assert kwargs["checkpoint_dir"] is None

    @staticmethod
    def _assert_run_arguments(kwargs, option, files):
        assert kwargs["n_repeats"] == 1
        assert kwargs["base_seed"] == (7 if option == "seed" else 0)
        assert kwargs["workers"] == 0
        assert kwargs["flight_dir"] is None
        if option == "checkpoint":
            assert kwargs["checkpoint_every"] == 2
            assert kwargs["checkpoint_dir"] == files["dir"]
        else:
            assert kwargs["checkpoint_every"] == 0
            assert kwargs["checkpoint_dir"] is None

    def test_run_workers_and_flight_dir(self, capture, files):
        seen = _run_captured(capture, [
            "run", "a", "--steps", "3", "--repeats", "2", "--workers", "2",
            "--seed", "5", "--flight-dir", files["dir"],
        ])
        assert seen["kwargs"]["n_repeats"] == 2
        assert seen["kwargs"]["base_seed"] == 5
        assert seen["kwargs"]["workers"] == 2
        assert seen["kwargs"]["flight_dir"] == files["dir"]

    @pytest.mark.parametrize(
        "option", ["plain", "backend", "faults", "integrity", "seed", "checkpoint"]
    )
    def test_replay(self, capture, files, option):
        seen = _run_captured(
            capture,
            ["replay", str(GOLDEN)] + _options(OPTIONS[option], files),
        )
        header = read_header(str(GOLDEN))
        expected = SessionSpec(
            scenario=_configured(scenario_from_header(header), option, files),
            stream_path=str(GOLDEN),
            seed=7 if option == "seed" else header.seed,
            checkpoint_every=2 if option == "checkpoint" else 0,
            checkpoint_path=(
                str(Path(files["dir"]) / "replay.ckpt.json")
                if option == "checkpoint" else None
            ),
        )
        assert seen["spec"].to_dict() == expected.to_dict()

    @pytest.mark.parametrize("option", ["plain", "backend", "checkpoint", "stream"])
    def test_resume(self, capture, files, option):
        extra = {
            "plain": [],
            "backend": ["--backend", "fast"],
            "checkpoint": ["--checkpoint-every", "2"],
            "stream": ["--stream", str(GOLDEN)],
        }[option]
        seen = _run_captured(capture, ["resume", files["checkpoint"]] + extra)
        expected = SessionSpec(
            checkpoint_path=files["checkpoint"],
            checkpoint_every=2 if option == "checkpoint" else 0,
            stream_path=str(GOLDEN) if option == "stream" else None,
            backend="fast" if option == "backend" else None,
        )
        assert seen["spec"].to_dict() == expected.to_dict()

    @pytest.mark.parametrize(
        "option", ["plain", "backend", "faults", "integrity", "seed", "checkpoint"]
    )
    def test_sweep(self, capture, files, option):
        from repro.exp import SweepSpec, Variant, run_sweep

        seen = _run_captured(
            capture,
            ["sweep", "strength", "--values", "4", "10", "--steps", "3",
             "--repeats", "1"] + _options(OPTIONS[option], files),
        )
        cli_spec = seen.pop("spec")
        variants = tuple(
            Variant(
                f"strength={v:g}",
                _configured(
                    scenario_a(strengths=(v, v), n_time_steps=3), option, files
                ),
            )
            for v in (4.0, 10.0)
        )
        with pytest.raises(_Captured):
            run_sweep(
                SweepSpec(
                    variants=variants,
                    n_repeats=1,
                    base_seed=7 if option == "seed" else 0,
                ),
                workers=0,
                checkpoint_every=2 if option == "checkpoint" else 0,
                checkpoint_dir=files["dir"] if option == "checkpoint" else None,
            )
        assert cli_spec.to_dict() == seen["spec"].to_dict()

    @pytest.mark.parametrize("parameter", ["strength", "background"])
    def test_sweep_variants_keep_scenario_flags(self, monkeypatch, files, parameter):
        """--strength, --background and --obstacles reach every variant."""
        import repro.exp

        seen = {}

        def fake_run_sweep(spec, **kwargs):
            seen["spec"] = spec
            raise _Captured

        monkeypatch.setattr(repro.exp, "run_sweep", fake_run_sweep)
        _run_captured(
            seen,
            ["sweep", parameter, "--values", "4", "10", "--strength", "50",
             "--background", "40", "--obstacles", "--steps", "3", "--repeats", "1"],
        )
        for value, variant in zip((4.0, 10.0), seen["spec"].variants):
            strength, background = (
                (value, 40.0) if parameter == "strength" else (50.0, value)
            )
            expected = scenario_a(
                (strength, strength), background, with_obstacle=True, n_time_steps=3
            )
            assert scenario_to_dict(variant.scenario) == scenario_to_dict(
                _configured(expected, "plain", files)
            )
