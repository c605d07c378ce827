"""Golden-trace record/replay: round-trip, drift localisation, CLI.

The contract under test (ISSUE 6 / ROADMAP "Golden-trace replay and
drift detection"):

* ``write → read`` round-trips every event type bit-exactly, including
  NaN/inf payload floats (property-tested);
* replaying a freshly recorded golden on the same tree is clean for
  every curated scenario;
* a perturbed executor is caught with a report naming the *first*
  diverging event's index, kind and expected/actual values — never a
  bare pass/fail bit;
* truncated / corrupted / wrong-format golden files raise
  ``ConfigurationError`` (CLI exit 2), not tracebacks.
"""

import importlib
import json
import math
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.results import json_dumps_exact, json_loads_exact
from repro.cli import main
from repro.core.checkpoints import CheckpointKind
from repro.errors import ConfigurationError
from repro.goldens import (
    FORMAT,
    GOLDEN_SCENARIOS,
    TASKSET_FORMAT,
    DivergenceRecorder,
    GoldenScenario,
    JsonlTraceWriter,
    TraceEvent,
    TraceHeader,
    default_golden_dir,
    golden_names,
    read_golden,
    record_golden,
    replay,
    replay_paths,
    resolve_golden_paths,
    scenario,
    scenario_names,
    update_goldens,
)
from repro.sim.energy import EnergyModel
from repro.goldens.replay import DivergenceHalt
from repro.sim.trace import SpeedRecord, Trace, payload_diff, same_scalar

import repro.sim.executor as executor_mod


# ---------------------------------------------------------------------------
# helpers


_TASKSET_GOLDEN = Path(default_golden_dir()) / "taskset" / "bursty-edf.jsonl"


def _record_one(tmp_path, name="adaptive-scp-poisson"):
    return record_golden(scenario(name), str(tmp_path))


def _rewrite(path, lines):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def _lines(path):
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read().splitlines()


# ---------------------------------------------------------------------------
# event model


class TestEventEquality:
    def test_nan_equals_nan(self):
        assert same_scalar(float("nan"), float("nan"))

    def test_signed_zero_differs(self):
        assert not same_scalar(0.0, -0.0)

    def test_int_is_not_float(self):
        # An int smuggled where a float belongs is a codec bug, not a
        # match.
        assert not same_scalar(1, 1.0)

    def test_payload_diff_reports_absent_fields(self):
        diffs = payload_diff({"a": 1.0}, {"b": 2.0})
        assert ("a", 1.0, "<absent>") in diffs
        assert ("b", "<absent>", 2.0) in diffs

    def test_event_same_values(self):
        a = TraceEvent("fault", {"time": 1.5, "corrupting": True})
        b = TraceEvent("fault", {"time": 1.5, "corrupting": True})
        c = TraceEvent("fault", {"time": 1.5, "corrupting": False})
        assert a.same_values(b)
        assert not a.same_values(c)
        assert not a.same_values(TraceEvent("speed", dict(a.payload)))


# ---------------------------------------------------------------------------
# write → read round-trip (property)


_floats = st.floats(allow_nan=True, allow_infinity=True)

_events = st.one_of(
    st.builds(
        lambda f, s, e, c, label: TraceEvent(
            "segment",
            {"label": label, "frequency": f, "start": s, "end": e, "cycles": c},
        ),
        _floats, _floats, _floats, _floats,
        st.sampled_from(["exec", "scp", "ccp", "cscp", "rollback"]),
    ),
    st.builds(
        lambda t, k: TraceEvent("checkpoint", {"time": t, "checkpoint": k}),
        _floats, st.sampled_from(["scp", "ccp", "cscp"]),
    ),
    st.builds(
        lambda t, c: TraceEvent("fault", {"time": t, "corrupting": c}),
        _floats, st.booleans(),
    ),
    st.builds(
        lambda t, c: TraceEvent("rollback", {"time": t, "committed_cycles": c}),
        _floats, _floats,
    ),
    st.builds(
        lambda t, f: TraceEvent("speed", {"time": t, "frequency": f}),
        _floats, _floats,
    ),
    st.builds(
        lambda t, c, y: TraceEvent(
            "finish", {"time": t, "completed": c, "timely": y}
        ),
        _floats, st.booleans(), st.booleans(),
    ),
)


class TestRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(events=st.lists(_events, max_size=30), result_energy=_floats)
    def test_every_event_type_round_trips_bit_exactly(
        self, tmp_path_factory, events, result_energy
    ):
        path = str(tmp_path_factory.mktemp("golden") / "trace.jsonl")
        header = TraceHeader(
            scenario=GOLDEN_SCENARIOS[0].to_payload(), git="test-tree"
        )
        with JsonlTraceWriter(path, header) as writer:
            for event in events:
                _dispatch(writer, event)
            writer.result({"energy": result_energy, "completed": True})
        again_header, again_events = read_golden(path)
        assert again_header.git == "test-tree"
        assert len(again_events) == len(events) + 1
        for original, reloaded in zip(events, again_events):
            assert original.same_values(reloaded), (original, reloaded)
        result = again_events[-1]
        assert result.kind == "result"
        assert same_scalar(result.payload["energy"], result_energy)

    def test_writer_is_a_recorder(self, tmp_path):
        # Events written through the TraceRecorder interface match the
        # events a Trace keeps exactly.
        path = str(tmp_path / "t.jsonl")
        header = TraceHeader(scenario=GOLDEN_SCENARIOS[0].to_payload())
        reference = Trace()
        with JsonlTraceWriter(path, header) as writer:
            for recorder in (writer, reference):
                recorder.speed(0.0, 2.0)
                recorder.segment("exec", 2.0, 0.0, 1.25, 2.5)
                recorder.checkpoint(1.25, CheckpointKind.CSCP)
                recorder.fault(0.5, corrupting=True)
                recorder.rollback(1.25, 0.0)
                recorder.finish(1.25, completed=False, timely=False)
        _header, events = read_golden(path)
        assert len(events) == len(reference.events)
        for written, normalised in zip(events, reference.events):
            assert written.same_values(normalised)

    def test_closed_writer_rejects_events(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        writer = JsonlTraceWriter(
            path, TraceHeader(scenario=GOLDEN_SCENARIOS[0].to_payload())
        )
        writer.close()
        writer.close()  # idempotent
        with pytest.raises(ConfigurationError):
            writer.speed(0.0, 1.0)


def _dispatch(recorder, event):
    """Feed one TraceEvent through the recorder callback interface."""
    payload = event.payload
    if event.kind == "segment":
        recorder.segment(
            payload["label"], payload["frequency"], payload["start"],
            payload["end"], payload["cycles"],
        )
    elif event.kind == "checkpoint":
        recorder.checkpoint(
            payload["time"], CheckpointKind(payload["checkpoint"])
        )
    elif event.kind == "fault":
        recorder.fault(payload["time"], corrupting=payload["corrupting"])
    elif event.kind == "rollback":
        recorder.rollback(payload["time"], payload["committed_cycles"])
    elif event.kind == "speed":
        recorder.speed(payload["time"], payload["frequency"])
    elif event.kind == "finish":
        recorder.finish(
            payload["time"],
            completed=payload["completed"],
            timely=payload["timely"],
        )
    else:  # pragma: no cover - strategy bug
        raise AssertionError(event.kind)


# ---------------------------------------------------------------------------
# scenarios


class TestScenarios:
    def test_every_scenario_payload_round_trips(self):
        for scen in GOLDEN_SCENARIOS:
            again = GoldenScenario.from_payload(scen.to_payload())
            assert again == scen

    def test_payload_survives_json(self):
        for scen in GOLDEN_SCENARIOS:
            again = GoldenScenario.from_payload(
                json.loads(json.dumps(scen.to_payload()))
            )
            assert again.task == scen.task
            assert again.faults == scen.faults

    def test_unknown_scenario_name(self):
        with pytest.raises(ConfigurationError, match="unknown golden scenario"):
            scenario("nope")

    def test_unknown_scheme_rejected(self):
        base = GOLDEN_SCENARIOS[0]
        with pytest.raises(ConfigurationError, match="unknown scheme"):
            GoldenScenario(
                name="x", scheme="B_A_D", task=base.task, faults=base.faults,
                seed=1,
            )

    def test_names_are_unique(self):
        names = scenario_names()
        assert len(names) == len(set(names)) == len(GOLDEN_SCENARIOS)


# ---------------------------------------------------------------------------
# replay: clean path


class TestReplayClean:
    def test_fresh_recording_replays_identically(self, tmp_path):
        # Both kinds: the executor matrix plus the taskset trace.
        paths = update_goldens(str(tmp_path))
        reports = replay_paths([str(tmp_path)])
        assert len(reports) == len(paths) == len(GOLDEN_SCENARIOS) + 1 == 12
        assert sorted(r.scenario_name for r in reports) == sorted(
            golden_names()
        )
        for report in reports:
            assert report.ok, report.render()
            assert report.divergence is None
            assert report.fast_diffs is None
            assert "OK" in report.render()

    def test_committed_goldens_replay_identically(self):
        # The same check CI runs: the committed matrix against the
        # current tree.
        from repro.goldens import default_golden_dir

        reports = replay_paths([default_golden_dir()])
        drifted = [r.scenario_name for r in reports if not r.ok]
        assert not drifted, "\n\n".join(
            r.render() for r in reports if not r.ok
        )

    def test_rollback_window_carry_is_pinned(self):
        # A committed golden holds a corrupting fault inside a rollback
        # window: the restored state is corrupted and the corruption is
        # carried into the next attempt.
        header, events = read_golden(
            str(Path(default_golden_dir()) / "adaptive-scp-rollback-overhead.jsonl")
        )
        assert header.scenario["faults_during_overhead"] is True
        assert header.scenario["task"]["costs"]["rollback_cycles"] > 0
        pending = []
        carried = []
        for event in events:
            if event.kind == "fault":
                pending.append(event.payload)
            elif event.kind == "segment":
                if event.payload["label"] == "rollback":
                    carried.extend(
                        fault for fault in pending
                        if fault["corrupting"]
                        and event.payload["start"] < fault["time"]
                        <= event.payload["end"]
                    )
                pending = []
        assert carried


# ---------------------------------------------------------------------------
# replay: drift localisation (the acceptance criterion)


class TestDriftLocalisation:
    def test_flipped_energy_coefficient_is_named(self, tmp_path, monkeypatch):
        """A perturbed energy coefficient yields a report naming the
        first diverging event's index, kind and expected/actual values."""
        path = _record_one(tmp_path)
        _header, events = read_golden(path)
        perturbed = EnergyModel(
            voltage_of=lambda f: ((2.0 * f) ** 0.5) * 1.0000001,
            n_processors=2,
        )
        monkeypatch.setattr(
            executor_mod, "default_energy_model", lambda: perturbed
        )
        report = replay(path)
        assert not report.ok
        d = report.divergence
        # Energy appears in no timeline event, so the inflection point
        # is the final result record — at a definite index.
        assert d is not None
        assert d.index == len(events) - 1
        assert d.kind == "result"
        diffs = dict(
            (field, (expected, actual))
            for field, expected, actual in d.field_diffs()
        )
        assert set(diffs) == {"energy"}
        expected, actual = diffs["energy"]
        assert expected != actual
        text = report.render()
        assert "DRIFT at event" in text
        assert "field energy" in text

    def test_timing_perturbation_pinpoints_first_segment(
        self, tmp_path, monkeypatch
    ):
        path = _record_one(tmp_path)
        original = executor_mod._effective_subdivisions
        monkeypatch.setattr(
            executor_mod,
            "_effective_subdivisions",
            lambda m, cycles: original(m + 1, cycles),
        )
        report = replay(path)
        assert not report.ok
        d = report.divergence
        assert d is not None
        assert d.reason == "mismatch"
        assert d.kind == "segment"
        # The very first execution segment already has the wrong span.
        assert d.index <= 2
        fields = {field for field, _e, _a in d.field_diffs()}
        assert "end" in fields or "cycles" in fields
        # The report carries context and a rendered timeline excerpt.
        assert report.context
        assert report.timeline is not None
        assert "[unfinished]" in report.timeline

    def test_diverging_event_is_kept_for_the_timeline(self):
        # The recorder appends before it compares, so the timeline it
        # renders ends at the diverging event itself.
        recorder = DivergenceRecorder(
            [TraceEvent("speed", {"time": 0.0, "frequency": 2.0})]
        )
        with pytest.raises(DivergenceHalt):
            recorder.speed(0.0, 1.0)
        assert recorder.divergence.reason == "mismatch"
        assert recorder.matched == 0
        assert recorder.speeds == [SpeedRecord(0.0, 1.0)]

    def test_fast_path_only_drift_is_reported(self, tmp_path, monkeypatch):
        """Recorded run clean, unrecorded execute_once perturbed →
        FAST-PATH DRIFT."""
        path = _record_one(tmp_path)
        # The module, not the package's ``replay`` function.
        replay_mod = importlib.import_module("repro.goldens.replay")
        original = replay_mod.execute_once

        def perturbed(*args, **kwargs):
            outcome = original(*args, **kwargs)
            outcome.energy *= 1.0000001
            return outcome

        monkeypatch.setattr(replay_mod, "execute_once", perturbed)
        report = replay(path)
        assert report.divergence is None  # recorded replay matched
        assert report.fast_diffs
        assert not report.ok
        assert [field for field, _e, _a in report.fast_diffs] == ["energy"]
        assert "FAST-PATH DRIFT" in report.render()

    def test_trajectory_only_drift_is_reported(self, tmp_path, monkeypatch):
        """Recorded and plain unrecorded runs clean, the run through the
        cell's fault-free trajectory perturbed → FAST-PATH DRIFT on the
        labelled field."""
        path = _record_one(tmp_path)
        replay_mod = importlib.import_module("repro.goldens.replay")
        original = replay_mod.execute_once

        def perturbed(*args, **kwargs):
            outcome = original(*args, **kwargs)
            if kwargs.get("trajectory") is not None:
                outcome.checkpoints += 1
            return outcome

        monkeypatch.setattr(replay_mod, "execute_once", perturbed)
        report = replay(path)
        assert report.divergence is None
        assert [field for field, _e, _a in report.fast_diffs] == [
            "checkpoints (trajectory)"
        ]
        assert "FAST-PATH DRIFT" in report.render()

    def test_golden_with_extra_trailing_event(self, tmp_path):
        # Golden claims one more event than the run produces → the
        # report points at the first missing event, not a bare fail.
        path = _record_one(tmp_path)
        lines = _lines(path)
        sentinel = json.loads(lines[-1])
        # Duplicate the last checkpoint event before finish/result.
        duplicated = lines[-4]
        lines = lines[:-3] + [duplicated] + lines[-3:]
        sentinel["events"] += 1
        lines[-1] = json.dumps(sentinel)
        _rewrite(path, lines)
        report = replay(path)
        assert not report.ok
        assert report.divergence.reason in ("mismatch", "missing-event")

    def test_run_longer_than_golden(self, tmp_path):
        # Golden cut short (consistently: sentinel fixed up) → the
        # replay's surplus event is the inflection point.
        path = _record_one(tmp_path)
        lines = _lines(path)
        sentinel = json.loads(lines[-1])
        removed = 4
        lines = lines[: -(removed + 1)] + [lines[-1]]
        sentinel["events"] -= removed
        lines[-1] = json.dumps(sentinel)
        _rewrite(path, lines)
        report = replay(path)
        assert not report.ok
        assert report.divergence.reason == "extra-event"
        assert report.divergence.actual is not None


# ---------------------------------------------------------------------------
# malformed files → ConfigurationError (CLI exit 2)


class TestMalformedGoldens:
    def test_truncated_file(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        _rewrite(path, lines[:-1])  # drop the end sentinel
        with pytest.raises(ConfigurationError, match="truncated"):
            replay(path)

    def test_truncated_mid_line(self, tmp_path):
        path = _record_one(tmp_path)
        text = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text[: len(text) // 2])
        with pytest.raises(ConfigurationError):
            replay(path)

    def test_event_count_mismatch(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        del lines[5]  # remove an event, keep the sentinel count
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="corrupt"):
            replay(path)

    def test_invalid_json_line(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        lines[3] = '{"kind": "segment", not json'
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="line 4"):
            replay(path)

    def test_wrong_format_version(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        header = json.loads(lines[0])
        header["format"] = "repro.golden-trace/99"
        lines[0] = json.dumps(header)
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="unsupported"):
            replay(path)

    def test_missing_header(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        _rewrite(path, lines[1:])
        with pytest.raises(ConfigurationError, match="header"):
            replay(path)

    def test_unknown_event_kind(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        lines[3] = json.dumps({"kind": "quantum-leap", "time": 1.0})
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="unknown kind"):
            replay(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ConfigurationError, match="empty"):
            replay(str(path))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            replay(str(tmp_path / "nope.jsonl"))

    def test_non_object_line(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        lines[3] = "[1, 2, 3]"
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="expected a JSON object"):
            replay(path)

    def test_result_mid_stream(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        result_line = lines[-2]
        lines.insert(3, result_line)
        sentinel = json.loads(lines[-1])
        sentinel["events"] += 1
        lines[-1] = json.dumps(sentinel)
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="result record"):
            replay(path)

    def test_non_object_selection(self, tmp_path):
        lines = _lines(_TASKSET_GOLDEN)
        header = json_loads_exact(lines[0])
        header["selection"] = [1.0, True]
        lines[0] = json_dumps_exact(header)
        path = tmp_path / "bad-selection.jsonl"
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="selection"):
            replay(str(path))

    def test_malformed_scenario_payload(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        header = json.loads(lines[0])
        del header["scenario"]["task"]
        lines[0] = json.dumps(header)
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="malformed golden scenario"):
            replay(path)


# ---------------------------------------------------------------------------
# CLI verbs


class TestCli:
    def test_record_and_replay_round_trip(self, tmp_path, capsys):
        directory = str(tmp_path / "goldens")
        assert main(
            ["record-golden", "--dir", directory,
             "--scenario", "poisson-static-f1",
             "--scenario", "adaptive-scp-poisson"]
        ) == 0
        out = capsys.readouterr().out
        assert "new" in out
        assert main(["replay", directory]) == 0
        out = capsys.readouterr().out
        assert "replay identically" in out

    def test_replay_report_file(self, tmp_path):
        directory = str(tmp_path / "goldens")
        main(["record-golden", "--dir", directory,
              "--scenario", "kft-static-f2"])
        report_path = tmp_path / "drift.txt"
        assert main(
            ["replay", directory, "--report", str(report_path)]
        ) == 0
        assert "OK" in report_path.read_text()

    def test_replay_detects_drift_exit_1(self, tmp_path, monkeypatch, capsys):
        directory = str(tmp_path / "goldens")
        main(["record-golden", "--dir", directory,
              "--scenario", "adaptive-scp-poisson"])
        original = executor_mod._effective_subdivisions
        monkeypatch.setattr(
            executor_mod,
            "_effective_subdivisions",
            lambda m, cycles: original(m + 1, cycles),
        )
        report_path = tmp_path / "drift.txt"
        assert main(
            ["replay", directory, "--report", str(report_path)]
        ) == 1
        captured = capsys.readouterr()
        assert "DRIFT at event" in captured.out
        assert "drifted" in captured.err
        assert "DRIFT at event" in report_path.read_text()

    def test_replay_corrupt_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("not json at all\n")
        assert main(["replay", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_replay_empty_directory_exit_2(self, tmp_path, capsys):
        assert main(["replay", str(tmp_path)]) == 2
        assert "no golden traces" in capsys.readouterr().err

    def test_list_scenarios(self, capsys):
        assert main(["record-golden", "--list"]) == 0
        out = capsys.readouterr().out.split()
        assert out == list(golden_names())
        assert out == [*scenario_names(), "taskset-bursty-edf"]


# ---------------------------------------------------------------------------
# one engine for every committed trace kind


class TestEveryTraceKind:
    def test_replay_covers_every_committed_trace(self, capsys):
        committed = sorted(Path(default_golden_dir()).rglob("*.jsonl"))
        assert _TASKSET_GOLDEN in committed
        assert main(["replay", default_golden_dir()]) == 0
        out = capsys.readouterr().out
        assert (
            f"all {len(committed)} golden trace(s) replay identically" in out
        )
        assert "ok: taskset-bursty-edf (22/22 events)" in out

    def test_replay_explicit_taskset_path(self, capsys):
        assert main(["replay", str(_TASKSET_GOLDEN)]) == 0
        out = capsys.readouterr().out
        assert "all 1 golden trace(s) replay identically" in out

    def test_tampered_taskset_trace_exit_1(self, tmp_path, capsys):
        lines = _lines(_TASKSET_GOLDEN)
        event = json_loads_exact(lines[3])  # events start at line 2
        event["faults"] = event["faults"] + 1
        lines[3] = json_dumps_exact(event)
        tampered = tmp_path / "tampered.jsonl"
        _rewrite(tampered, lines)
        assert main(["replay", str(tampered)]) == 1
        out = capsys.readouterr().out
        assert "DRIFT at event 2 (job, mismatch)" in out
        assert "field faults: expected" in out

    def test_unknown_format_tag_exit_2(self, tmp_path, capsys):
        path = _record_one(tmp_path)
        lines = _lines(path)
        header = json.loads(lines[0])
        header["format"] = "repro.mystery-trace/1"
        lines[0] = json.dumps(header)
        _rewrite(path, lines)
        assert main(["replay", path]) == 2
        err = capsys.readouterr().err
        assert "repro.mystery-trace/1" in err
        assert FORMAT in err and TASKSET_FORMAT in err

    @pytest.mark.parametrize(
        "relative",
        sorted(
            path.relative_to(default_golden_dir()).as_posix()
            for path in Path(default_golden_dir()).rglob("*.jsonl")
        ),
    )
    def test_committed_trace_rewrites_byte_identically(self, tmp_path, relative):
        # One reader and one writer for both tags: reading a committed
        # golden and writing it back reproduces the file byte for byte.
        committed = Path(default_golden_dir()) / relative
        header, events = read_golden(str(committed))
        copy = tmp_path / "copy.jsonl"
        with JsonlTraceWriter(str(copy), header) as writer:
            for event in events:
                writer.emit(event)
        assert copy.read_bytes() == committed.read_bytes()

    def test_update_goldens_same_for_every_committed_trace(
        self, tmp_path, capsys
    ):
        committed = Path(default_golden_dir())
        copy = tmp_path / "goldens"
        shutil.copytree(committed, copy)
        assert main(["record-golden", "--dir", str(copy)]) == 0
        out = capsys.readouterr().out
        total = len(list(committed.rglob("*.jsonl")))
        same = [line for line in out.splitlines() if line.startswith("same ")]
        assert len(same) == total
        assert f"all {total} golden(s) re-recorded bit-identically" in out
        assert "same    taskset-bursty-edf: 22 events" in out
        for path in committed.rglob("*.jsonl"):
            before = _lines(path)
            after = _lines(copy / path.relative_to(committed))
            assert after[1:] == before[1:]  # events + sentinel

    def test_update_goldens_rerecords_tampered_taskset(self, tmp_path):
        directory = tmp_path / "goldens"
        target = directory / "taskset" / "bursty-edf.jsonl"
        target.parent.mkdir(parents=True)
        lines = _lines(_TASKSET_GOLDEN)
        event = json_loads_exact(lines[3])
        event["faults"] = event["faults"] + 1
        lines[3] = json_dumps_exact(event)
        _rewrite(target, lines)

        (update,) = update_goldens(str(directory), names=["taskset-bursty-edf"])
        assert not update.identical
        assert update.changed_total == 1
        assert update.changed == (
            (2, "job", (("faults", event["faults"], event["faults"] - 1),)),
        )
        assert "CHANGED taskset-bursty-edf" in update.render()
        assert _lines(target)[1:] == _lines(_TASKSET_GOLDEN)[1:]
        assert replay(str(target)).ok

    def test_resolve_walks_nested_directories(self, tmp_path):
        nested = tmp_path / "a" / "b" / "c"
        nested.mkdir(parents=True)
        for path in (
            tmp_path / "z.jsonl",
            tmp_path / "a" / "y.jsonl",
            nested / "x.jsonl",
            tmp_path / "a" / "notes.txt",
        ):
            path.write_text("")
        explicit = str(tmp_path / "elsewhere.jsonl")
        assert resolve_golden_paths([str(tmp_path), explicit]) == [
            str(nested / "x.jsonl"),
            str(tmp_path / "a" / "y.jsonl"),
            str(tmp_path / "z.jsonl"),
            explicit,
        ]

    def test_replay_dispatches_on_format_tag(self):
        reports = replay_paths([default_golden_dir()])
        formats = {Path(r.path).name: r.format for r in reports}
        assert formats.pop("bursty-edf.jsonl") == TASKSET_FORMAT
        assert set(formats.values()) == {FORMAT}
        assert all(report.ok for report in reports)


# ---------------------------------------------------------------------------
# the shared checks hold for the taskset tag too


class TestMalformedTasksetGolden:
    def _tampered(self, tmp_path, lines):
        path = tmp_path / "tampered.jsonl"
        _rewrite(path, lines)
        return str(path)

    def test_truncated_file(self, tmp_path):
        path = self._tampered(tmp_path, _lines(_TASKSET_GOLDEN)[:-1])
        with pytest.raises(ConfigurationError, match="truncated"):
            read_golden(path)

    def test_event_count_mismatch(self, tmp_path):
        lines = _lines(_TASKSET_GOLDEN)
        del lines[5]
        path = self._tampered(tmp_path, lines)
        with pytest.raises(ConfigurationError, match="declares 22 events but 21"):
            replay(path)

    def test_invalid_json_line(self, tmp_path):
        lines = _lines(_TASKSET_GOLDEN)
        lines[3] = '{"kind": "job", not json'
        path = self._tampered(tmp_path, lines)
        with pytest.raises(ConfigurationError, match="line 4"):
            replay(path)

    def test_executor_event_kind_rejected(self, tmp_path):
        lines = _lines(_TASKSET_GOLDEN)
        lines[3] = json.dumps({"kind": "speed", "time": 0.0, "frequency": 1.0})
        path = self._tampered(tmp_path, lines)
        with pytest.raises(ConfigurationError, match="event 2: unknown kind 'speed'"):
            replay(path)

    def test_taskset_event_kind_rejected_in_executor_trace(self, tmp_path):
        path = _record_one(tmp_path)
        lines = _lines(path)
        lines[3] = _lines(_TASKSET_GOLDEN)[1]
        _rewrite(path, lines)
        with pytest.raises(ConfigurationError, match="event 2: unknown kind 'job'"):
            replay(path)

    def test_malformed_scenario_payload(self, tmp_path):
        lines = _lines(_TASKSET_GOLDEN)
        header = json_loads_exact(lines[0])
        del header["scenario"]["params"]
        lines[0] = json_dumps_exact(header)
        path = self._tampered(tmp_path, lines)
        with pytest.raises(ConfigurationError, match="malformed golden scenario"):
            replay(path)

    def test_missing_selection_is_header_drift(self, tmp_path):
        lines = _lines(_TASKSET_GOLDEN)
        header = json_loads_exact(lines[0])
        recorded = header.pop("selection")
        lines[0] = json_dumps_exact(header)
        report = replay(self._tampered(tmp_path, lines))
        drift = report.divergence
        assert drift is not None
        assert (drift.index, drift.kind, drift.reason) == (-1, "selection", "header")
        assert sorted(name for name, _, _ in drift.field_diffs()) == sorted(recorded)
        assert report.events_matched == 0
