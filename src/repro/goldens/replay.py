"""Record and replay golden traces; report the first diverging event.

One engine serves both trace kinds; :func:`replay` picks the kind from
the header's ``format`` tag.

Executor traces (``repro.golden-trace/1``): :func:`record_golden` runs
a scenario through :func:`~repro.sim.executor.simulate_run` with the
golden writer as its recorder and streams every trace event (plus the
final ``result`` summary) to a JSONL golden file.  :func:`replay`
re-executes the scenario against the current tree with a
:class:`DivergenceRecorder`, a :class:`~repro.sim.trace.Trace` that
compares each event as it appends it: the moment an event disagrees
with the golden — in kind or in any bit of any float — the run halts
and the :class:`DriftReport` names the inflection point (event index,
kind, expected-vs-actual fields) with the surrounding events and a
rendered timeline excerpt, instead of the bare "bit-identity failed"
an end-of-run byte-diff gives.  The
recorded run goes through the executor's one interval loop, the loop
every Monte-Carlo cell runs.  A replay that matches event-for-event
additionally re-runs the scenario unrecorded through
:func:`~repro.sim.executor.execute_once` (the slab path's entry point)
and checks its outcome against the golden's ``result`` record, then
once more through the cell's fault-free trajectory
(:func:`~repro.sim.executor.fault_free_trajectory`), the path a
Monte-Carlo block runs.

Taskset traces (``repro.taskset-trace/1``,
:mod:`repro.goldens.taskset`): :func:`record_taskset_golden` records
one rep of the EDF workload engine; replay re-runs it, compares the
header's ``selection`` first and then the ``job``/``summary`` events,
and reports through the same :class:`Divergence` and
:class:`DriftReport`.

:func:`update_goldens` (``repro record-golden``) re-records the curated
goldens of both kinds and reports, event by event, what changed;
replay never writes a golden.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.api.results import git_describe
from repro.errors import ConfigurationError
from repro.goldens import taskset
from repro.goldens.scenarios import GOLDEN_SCENARIOS, GoldenScenario
from repro.goldens.trace_io import (
    FORMAT,
    TASKSET_FORMAT,
    JsonlTraceWriter,
    TraceHeader,
    read_golden,
)
from repro.sim.executor import (
    RunOutcome,
    RunResult,
    execute_once,
    fault_free_trajectory,
    simulate_run,
)
from repro.sim.trace import Trace, TraceEvent, payload_diff

__all__ = [
    "Divergence",
    "DivergenceRecorder",
    "DriftReport",
    "GoldenUpdate",
    "default_golden_dir",
    "golden_names",
    "record_golden",
    "record_taskset_golden",
    "replay",
    "replay_paths",
    "resolve_golden_paths",
    "run_result_payload",
    "update_goldens",
]


def default_golden_dir() -> str:
    """The committed golden directory of a source checkout."""
    return str(Path(__file__).resolve().parents[3] / "tests" / "goldens")


# ---------------------------------------------------------------------------
# recording


def run_result_payload(result: RunResult) -> Dict[str, object]:
    """The ``result`` record: every :class:`RunResult` field, JSON-flat.

    ``cycles_by_frequency`` becomes a frequency-sorted pair list (JSON
    objects cannot key on floats without losing exactness).
    """
    return {
        "completed": bool(result.completed),
        "timely": bool(result.timely),
        "finish_time": float(result.finish_time),
        "energy": float(result.energy),
        "cycles_executed": float(result.cycles_executed),
        "cycles_by_frequency": [
            [float(freq), float(cycles)]
            for freq, cycles in sorted(result.cycles_by_frequency.items())
        ],
        "detected_faults": int(result.detected_faults),
        "injected_faults": int(result.injected_faults),
        "checkpoints": int(result.checkpoints),
        "sub_checkpoints": int(result.sub_checkpoints),
        "rollbacks": int(result.rollbacks),
        "failure_reason": result.failure_reason,
    }


def _outcome_payload(outcome: RunOutcome) -> Dict[str, object]:
    """The fast-loop subset of :func:`run_result_payload`."""
    return {
        "completed": bool(outcome.completed),
        "timely": bool(outcome.timely),
        "finish_time": float(outcome.finish_time),
        "energy": float(outcome.energy),
        "detected_faults": int(outcome.detected_faults),
        "injected_faults": int(outcome.injected_faults),
        "checkpoints": int(outcome.checkpoints),
        "sub_checkpoints": int(outcome.sub_checkpoints),
        "rollbacks": int(outcome.rollbacks),
    }


def record_golden(scen: GoldenScenario, directory: str) -> str:
    """Run ``scen`` with the golden writer recording; write the file.

    Returns the written path (``<directory>/<name>.jsonl``).  The run
    and the recording happen in one pass — the writer *is* the trace
    recorder — so the golden is the execution, not a re-serialisation.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, f"{scen.name}.jsonl")
    header = TraceHeader(scenario=scen.to_payload(), git=git_describe())
    with JsonlTraceWriter(path, header) as writer:
        result = simulate_run(
            scen.task,
            scen.build_policy(),
            scen.faults,
            rng=scen.generator(),
            faults_during_overhead=scen.faults_during_overhead,
            recorder=writer,
        )
        writer.result(run_result_payload(result))
    return path


def golden_names() -> Tuple[str, ...]:
    """The curated golden names of both kinds, in recording order."""
    return tuple(name for name, _path, _record in _curated())


def record_taskset_golden(path: str) -> str:
    """Record the curated taskset scenario
    (:data:`~repro.goldens.taskset.GOLDEN_JOB`) as a golden at ``path``."""
    selection, events = taskset.simulate(taskset.GOLDEN_JOB)
    header = TraceHeader(
        scenario=taskset.scenario_payload(taskset.GOLDEN_JOB),
        git=git_describe(),
        format=TASKSET_FORMAT,
        selection=selection,
    )
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with JsonlTraceWriter(path, header) as writer:
        for event in events:
            writer.emit(event)
    return path


def _curated(
    names: Optional[Sequence[str]] = None,
) -> List[Tuple[str, str, Callable[[str], str]]]:
    """The curated goldens of both kinds (or a named subset).

    Each entry is ``(name, path under the golden directory, record)``;
    ``record(directory)`` re-records the golden there and returns its
    path.
    """
    curated: Dict[str, Tuple[str, Callable[[str], str]]] = {
        scen.name: (f"{scen.name}.jsonl", partial(record_golden, scen))
        for scen in GOLDEN_SCENARIOS
    }
    curated[taskset.GOLDEN_NAME] = (
        taskset.GOLDEN_FILE,
        lambda directory: record_taskset_golden(
            os.path.join(directory, taskset.GOLDEN_FILE)
        ),
    )
    for name in names or ():
        if name not in curated:
            raise ConfigurationError(
                f"unknown golden scenario {name!r}; valid names: "
                f"{', '.join(curated)}"
            )
    chosen = list(curated) if names is None else names
    return [(name, *curated[name]) for name in chosen]


# ---------------------------------------------------------------------------
# replay


class DivergenceHalt(Exception):
    """Internal: aborts the replayed run at the first diverging event.

    Deliberately *not* a :class:`~repro.errors.ReproError` — it must
    never be mistaken for a configuration problem by CLI error
    handling; :func:`replay` catches it by type.
    """


@dataclass(frozen=True)
class Divergence:
    """The inflection point: where replay first left the golden trace.

    ``reason`` is one of ``"mismatch"`` (event ``index`` differs),
    ``"extra-event"`` (the replay produced an event past the golden's
    end), ``"missing-event"`` (the replay finished before the golden
    did), ``"result"`` (every event matched but the final
    :class:`RunResult` summary differs — e.g. a perturbed energy
    coefficient, which no timeline event carries) or ``"header"`` (a
    taskset trace's recorded ``selection`` differs from the re-run's;
    ``index`` is -1, ahead of event 0).
    """

    index: int
    reason: str
    expected: Optional[TraceEvent]
    actual: Optional[TraceEvent]

    @property
    def kind(self) -> str:
        """The event kind at the inflection point."""
        event = self.expected or self.actual
        return event.kind if event is not None else "?"

    def field_diffs(self) -> List[Tuple[str, object, object]]:
        """Differing payload fields as ``(field, expected, actual)``."""
        if self.expected is None or self.actual is None:
            return []
        return payload_diff(self.expected.payload, self.actual.payload)


class DivergenceRecorder(Trace):
    """A :class:`~repro.sim.trace.Trace` that compares the replayed run
    to the golden's events, online.

    Each event is appended (so the rendered timeline ends at the
    diverging event), then compared bit-exactly against the next
    expected event; the first disagreement is stored as
    :attr:`divergence` before :class:`DivergenceHalt` aborts the run
    (there is nothing left to learn from the rest of a diverged
    execution).
    """

    def __init__(self, expected: Sequence[TraceEvent]) -> None:
        super().__init__()
        self._expected = list(expected)
        self.matched = 0
        self.divergence: Optional[Divergence] = None

    def outcome(self) -> Optional[Divergence]:
        """The divergence once the run has ended, halted or not: a run
        that ended short of the golden diverges at its first missing
        event."""
        if self.divergence is None and self.matched < len(self._expected):
            return Divergence(
                index=self.matched,
                reason="missing-event",
                expected=self._expected[self.matched],
                actual=None,
            )
        return self.divergence

    def emit(self, event: TraceEvent) -> None:
        """Append the next replayed event, then compare it; halt at the
        first divergence."""
        super().emit(event)
        index = self.matched
        if index >= len(self._expected):
            self.divergence = Divergence(
                index=index, reason="extra-event", expected=None, actual=event
            )
            raise DivergenceHalt()
        expected = self._expected[index]
        if not expected.same_values(event):
            self.divergence = Divergence(
                index=index, reason="mismatch", expected=expected, actual=event
            )
            raise DivergenceHalt()
        self.matched += 1


#: Events shown on each side of the inflection point in reports.
_CONTEXT_EVENTS = 3


@dataclass(frozen=True)
class DriftReport:
    """The outcome of replaying one golden file."""

    scenario_name: str
    path: str
    format: str  #: the golden's format tag (its trace kind)
    events_total: int  #: events in the golden (incl. the result record)
    events_matched: int  #: events confirmed identical before the end/halt
    divergence: Optional[Divergence]
    #: Field diffs of the unrecorded execute_once run vs the golden
    #: result record (None = identical, or not checked because the
    #: recorded replay already diverged).
    fast_diffs: Optional[List[Tuple[str, object, object]]]
    recorded_git: Optional[str]
    current_git: Optional[str]
    context: Tuple[str, ...] = ()
    timeline: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None and not self.fast_diffs

    def render(self) -> str:
        """Human-readable drift report (one block per golden file)."""
        lines = [
            f"golden {self.scenario_name} ({self.path})",
            f"  recorded by {self.recorded_git or '<unknown tree>'}, "
            f"replayed on {self.current_git or '<unknown tree>'}",
        ]
        if self.ok:
            checked = (
                "execute_once matches the result record"
                if self.format == FORMAT
                else "header selection matches"
            )
            lines.append(
                f"  OK: {self.events_matched}/{self.events_total} events "
                f"identical; {checked}"
            )
            return "\n".join(lines)
        d = self.divergence
        if d is not None:
            lines.append(
                f"  DRIFT in the header ({d.kind}) before event 0:"
                if d.index < 0
                else f"  DRIFT at event {d.index} ({d.kind}, {d.reason}) "
                f"after {self.events_matched} identical events:"
            )
            lines.append(
                f"    expected: "
                f"{d.expected.describe() if d.expected else '<end of golden>'}"
            )
            lines.append(
                f"    actual:   "
                f"{d.actual.describe() if d.actual else '<run ended>'}"
            )
            for field, expected, actual in d.field_diffs():
                lines.append(
                    f"    field {field}: expected {expected!r}, "
                    f"got {actual!r}"
                )
            if self.context:
                lines.append("  golden events around the inflection point:")
                lines.extend(f"    {line}" for line in self.context)
            if self.timeline:
                lines.append("  replayed timeline up to the divergence:")
                lines.extend(
                    f"    {line}" for line in self.timeline.splitlines()
                )
        if self.fast_diffs:
            lines.append(
                "  FAST-PATH DRIFT: the recorded run matches the golden, "
                "the unrecorded `execute_once` run differs:"
            )
            for field, expected, actual in self.fast_diffs:
                lines.append(
                    f"    field {field}: expected {expected!r}, "
                    f"got {actual!r}"
                )
        return "\n".join(lines)


def _context_lines(
    events: Sequence[TraceEvent], index: int
) -> Tuple[str, ...]:
    lo = max(0, index - _CONTEXT_EVENTS)
    hi = min(len(events), index + _CONTEXT_EVENTS + 1)
    return tuple(
        f"[{i}]{' >>' if i == index else '   '} {events[i].describe()}"
        for i in range(lo, hi)
    )


def replay(path: str) -> DriftReport:
    """Re-execute a golden file of either kind against the current tree.

    The header's ``format`` tag picks the kind.  Malformed files
    (truncated, corrupted, unknown format tag, unknown scenario
    payload) raise :class:`~repro.errors.ConfigurationError`; a
    well-formed golden whose replay drifts returns a
    non-:attr:`~DriftReport.ok` report — drift is a *finding*, not an
    error.
    """
    header, events = read_golden(path)
    return _REPLAYERS[header.format](path, header, events)


def _trajectory_diffs(
    scen: GoldenScenario, golden: Dict[str, object]
) -> List[Tuple[str, object, object]]:
    """Field diffs of the run through the cell's fault-free trajectory
    (the path Monte-Carlo blocks take), labelled ``(trajectory)``."""
    trajectory = fault_free_trajectory(
        scen.task,
        scen.build_policy(),
        faults_during_overhead=scen.faults_during_overhead,
    )
    if trajectory is None:
        return []
    outcome = execute_once(
        scen.task,
        scen.build_policy(),
        scen.faults,
        rng=scen.generator(),
        faults_during_overhead=scen.faults_during_overhead,
        trajectory=trajectory,
    )
    return [
        (f"{field} (trajectory)", expected, actual)
        for field, expected, actual in payload_diff(
            golden, _outcome_payload(outcome)
        )
    ]


def _replay_run(
    path: str, header: TraceHeader, events: List[TraceEvent]
) -> DriftReport:
    """Replay an executor trace with a comparing recorder attached,
    online, then check the unrecorded ``execute_once`` outcome."""
    scen = GoldenScenario.from_payload(header.scenario)

    expected_result: Optional[TraceEvent] = None
    callback_events = events
    if events and events[-1].kind == "result":
        expected_result = events[-1]
        callback_events = events[:-1]
    if any(event.kind == "result" for event in callback_events):
        raise ConfigurationError(
            f"golden trace {path!r} is corrupt: a result record appears "
            f"before the end of the trace"
        )

    recorder = DivergenceRecorder(callback_events)
    result: Optional[RunResult] = None
    try:
        result = simulate_run(
            scen.task,
            scen.build_policy(),
            scen.faults,
            rng=scen.generator(),
            faults_during_overhead=scen.faults_during_overhead,
            recorder=recorder,
        )
    except DivergenceHalt:
        pass

    divergence = recorder.outcome()
    if divergence is None and expected_result is not None:
        assert result is not None
        actual_result = TraceEvent("result", run_result_payload(result))
        if not expected_result.same_values(actual_result):
            divergence = Divergence(
                index=len(callback_events),
                reason="result",
                expected=expected_result,
                actual=actual_result,
            )

    fast_diffs: Optional[List[Tuple[str, object, object]]] = None
    if divergence is None and expected_result is not None:
        outcome = execute_once(
            scen.task,
            scen.build_policy(),
            scen.faults,
            rng=scen.generator(),
            faults_during_overhead=scen.faults_during_overhead,
        )
        actual_fast = _outcome_payload(outcome)
        golden_subset = {
            field: expected_result.payload[field]
            for field in actual_fast
            if field in expected_result.payload
        }
        fast_diffs = payload_diff(golden_subset, actual_fast)
        if not fast_diffs:
            fast_diffs = _trajectory_diffs(scen, golden_subset)
        fast_diffs = fast_diffs or None

    return DriftReport(
        scenario_name=scen.name,
        path=path,
        format=header.format,
        events_total=len(events),
        events_matched=recorder.matched
        + (1 if divergence is None and expected_result is not None else 0),
        divergence=divergence,
        fast_diffs=fast_diffs,
        recorded_git=header.git,
        current_git=git_describe(),
        context=(
            _context_lines(events, divergence.index)
            if divergence is not None
            else ()
        ),
        timeline=recorder.render() if divergence is not None else None,
    )


def _replay_taskset(
    path: str, header: TraceHeader, events: List[TraceEvent]
) -> DriftReport:
    """Replay a taskset trace: re-run the scenario, compare the header's
    ``selection`` (generator or selection-rule drift), then the events.

    The schedule has no recorder hook, so the comparison runs after
    the re-run finishes and the report carries no timeline excerpt.
    """
    job, rep = taskset.job_from_scenario(header.scenario)
    selection, actual = taskset.simulate(job, rep)
    recorded = TraceEvent("selection", dict(header.selection or {}))
    current = TraceEvent("selection", selection)
    recorder = DivergenceRecorder(events)
    if recorded.same_values(current):
        try:
            for event in actual:
                recorder.emit(event)
        except DivergenceHalt:
            pass
        divergence = recorder.outcome()
    else:
        divergence = Divergence(
            index=-1, reason="header", expected=recorded, actual=current
        )
    return DriftReport(
        scenario_name=str(header.scenario.get("name")),
        path=path,
        format=header.format,
        events_total=len(events),
        events_matched=recorder.matched,
        divergence=divergence,
        fast_diffs=None,
        recorded_git=header.git,
        current_git=git_describe(),
        context=(
            _context_lines(events, divergence.index)
            if divergence is not None and divergence.index >= 0
            else ()
        ),
    )


#: The replay engine of each format tag.
_REPLAYERS = {FORMAT: _replay_run, TASKSET_FORMAT: _replay_taskset}


def resolve_golden_paths(paths: Iterable[str]) -> List[str]:
    """Expand directories to every ``*.jsonl`` golden beneath them
    (recursively), sorted."""
    resolved: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            found = sorted(str(found) for found in Path(path).rglob("*.jsonl"))
            if not found:
                raise ConfigurationError(
                    f"no golden traces (*.jsonl) under {path!r}"
                )
            resolved.extend(found)
        else:
            resolved.append(path)
    if not resolved:
        raise ConfigurationError("no golden traces to replay")
    return resolved


def replay_paths(paths: Iterable[str]) -> List[DriftReport]:
    """Replay files and/or directories of goldens, in order."""
    return [replay(path) for path in resolve_golden_paths(paths)]


# ---------------------------------------------------------------------------
# regeneration


#: Per-file cap on rendered changed events (the full diff is in git).
_MAX_DIFF_EVENTS = 5


@dataclass(frozen=True)
class GoldenUpdate:
    """What re-recording one golden file changed, event by event.

    ``changed`` holds ``(index, kind, field_diffs)`` for the first
    :data:`_MAX_DIFF_EVENTS` events whose payload differs (field diffs
    as ``(field, old, new)``); ``changed_total`` counts all of them so
    the render can say how many were elided.
    """

    scenario_name: str
    path: str
    created: bool  #: no prior golden existed at the path
    events_before: int
    events_after: int
    changed: Tuple[Tuple[int, str, Tuple[Tuple[str, object, object], ...]], ...]
    changed_total: int

    @property
    def identical(self) -> bool:
        return not self.created and self.changed_total == 0

    def render(self) -> str:
        if self.created:
            return (
                f"new     {self.scenario_name}: recorded "
                f"{self.events_after} events (no prior golden)"
            )
        if self.identical:
            return (
                f"same    {self.scenario_name}: {self.events_after} events, "
                f"bit-identical to the committed golden"
            )
        lines = [
            f"CHANGED {self.scenario_name}: {self.changed_total} of "
            f"{max(self.events_before, self.events_after)} events differ "
            f"({self.events_before} -> {self.events_after} events)"
        ]
        for index, kind, diffs in self.changed:
            if not diffs:
                lines.append(f"  event {index} ({kind}): present on one side only")
                continue
            for field, old, new in diffs:
                lines.append(
                    f"  event {index} ({kind}) {field}: {old!r} -> {new!r}"
                )
        if self.changed_total > len(self.changed):
            lines.append(
                f"  ... {self.changed_total - len(self.changed)} more "
                f"changed event(s); review the full diff with git"
            )
        return "\n".join(lines)


def _diff_events(
    old: Sequence[TraceEvent], new: Sequence[TraceEvent]
) -> Tuple[
    Tuple[Tuple[int, str, Tuple[Tuple[str, object, object], ...]], ...], int
]:
    """Positional event diff: (first few changed events, total changed)."""
    shown: List[Tuple[int, str, Tuple[Tuple[str, object, object], ...]]] = []
    total = 0
    for index in range(max(len(old), len(new))):
        if index >= len(old):
            event, diffs = new[index], ()
        elif index >= len(new):
            event, diffs = old[index], ()
        else:
            if old[index].same_values(new[index]):
                continue
            event = new[index]
            if old[index].kind == new[index].kind:
                diffs = tuple(payload_diff(old[index].payload, new[index].payload))
            else:
                diffs = (("kind", old[index].kind, new[index].kind),)
        total += 1
        if len(shown) < _MAX_DIFF_EVENTS:
            shown.append((index, event.kind, diffs))
    return tuple(shown), total


def update_goldens(
    directory: Optional[str] = None, names: Optional[Sequence[str]] = None
) -> List[GoldenUpdate]:
    """Re-record the curated goldens of both kinds (or the ``names``
    subset) in place; report what changed.  ``repro record-golden``.

    The reviewable half of an *intentional* contract change: where
    :func:`replay` treats any divergence as drift, this regenerates
    each committed golden — the executor matrix and the taskset trace
    (``directory`` defaults to the checkout's ``tests/goldens/``) —
    and returns a per-file, event-level :class:`GoldenUpdate`, so the
    diff a maintainer commits is the diff they reviewed.  Old events
    are read *before* the re-record overwrites the file; a golden the
    directory does not hold yet is recorded and reported as created.
    """
    target = directory if directory is not None else default_golden_dir()
    updates: List[GoldenUpdate] = []
    for name, relative, record in _curated(names):
        path = os.path.join(target, relative)
        old_events: Optional[List[TraceEvent]] = None
        if os.path.exists(path):
            _old_header, old_events = read_golden(path)
        record(target)
        _new_header, new_events = read_golden(path)
        if old_events is None:
            updates.append(
                GoldenUpdate(
                    scenario_name=name,
                    path=path,
                    created=True,
                    events_before=0,
                    events_after=len(new_events),
                    changed=(),
                    changed_total=0,
                )
            )
            continue
        shown, total = _diff_events(old_events, new_events)
        updates.append(
            GoldenUpdate(
                scenario_name=name,
                path=path,
                created=False,
                events_before=len(old_events),
                events_after=len(new_events),
                changed=shown,
                changed_total=total,
            )
        )
    return updates
