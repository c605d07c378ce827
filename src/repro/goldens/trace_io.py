"""JSONL golden-trace files: header, one event per line, end sentinel.

Layout of an executor golden file::

    {"format": "repro.golden-trace/1", "scenario": {...}, "git": "..."}
    {"kind": "speed", "time": 0.0, "frequency": 2.0}
    {"kind": "segment", "label": "exec", ...}
    ...
    {"kind": "result", "completed": true, "energy": ..., ...}
    {"kind": "end", "events": 314}

The header's ``format`` tag names the trace kind.  A taskset golden
(:mod:`repro.goldens.taskset`) uses the same layout under
``repro.taskset-trace/1``: its header also pins the selected operating
point (``selection``), and its body holds ``job`` events and one
``summary``.  Both kinds go through the one reader and writer here.

Floats are encoded with the shared exact codec of
:mod:`repro.api.results` (shortest-repr doubles, ``NaN``/``Infinity``
literals), so every event round-trips bit-exactly.  The trailing
``end`` record carries the event count: a file cut short at a line
boundary — which would otherwise read as a complete, shorter trace —
is detected as truncation, and any malformed line surfaces as a
:class:`~repro.errors.ConfigurationError` with its line number rather
than a traceback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, TextIO, Tuple

from repro.api.results import json_dumps_exact, json_loads_exact
from repro.errors import ConfigurationError
from repro.sim.trace import TraceEvent, TraceRecorder

__all__ = [
    "EVENT_KINDS",
    "FORMAT",
    "FORMATS",
    "TASKSET_FORMAT",
    "TraceHeader",
    "JsonlTraceWriter",
    "read_golden",
]

#: Executor-trace format tag; bump on incompatible layout changes.
FORMAT = "repro.golden-trace/1"

#: Taskset-trace format tag (the multi-task EDF engine's golden).
TASKSET_FORMAT = "repro.taskset-trace/1"

#: Every kind an executor golden may contain, in no particular order.
#: ``result`` is written by the recording harness, not the executor.
EVENT_KINDS = (
    "segment",
    "checkpoint",
    "fault",
    "rollback",
    "speed",
    "finish",
    "result",
)

#: Every format tag this build reads, with the event kinds its body
#: may hold.
FORMATS: Dict[str, Tuple[str, ...]] = {
    FORMAT: EVENT_KINDS,
    TASKSET_FORMAT: ("job", "summary"),
}


@dataclass(frozen=True)
class TraceHeader:
    """First line of a golden file: what was run, by which tree.

    ``scenario`` is everything the replay engine needs to re-execute
    the run: for an executor trace the full
    :class:`~repro.goldens.scenarios.GoldenScenario` payload (scheme,
    fault process, seed, task, block parameters), for a taskset trace
    the generator parameters, seed and rep.  ``selection`` is the
    taskset trace's recorded operating point (``None`` for executor
    traces); replay compares it ahead of event 0.  ``git`` is
    provenance only (the describe string of the tree that *recorded*
    the file); replay never compares it.
    """

    scenario: Dict[str, object]
    git: Optional[str] = None
    format: str = FORMAT
    selection: Optional[Dict[str, object]] = None

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "format": self.format,
            "scenario": dict(self.scenario),
        }
        if self.selection is not None:
            record["selection"] = dict(self.selection)
        record["git"] = self.git
        return record

    @classmethod
    def from_dict(cls, payload: object) -> "TraceHeader":
        if not isinstance(payload, dict) or "format" not in payload:
            raise ConfigurationError(
                "golden trace has no header line (expected a "
                f"{{'format': {FORMAT!r}, ...}} record first)"
            )
        declared = payload["format"]
        if declared not in FORMATS:
            raise ConfigurationError(
                f"unsupported golden-trace format {declared!r} (this "
                f"build reads {' and '.join(map(repr, FORMATS))})"
            )
        scenario = payload.get("scenario")
        if not isinstance(scenario, dict):
            raise ConfigurationError(
                "golden trace header carries no scenario payload"
            )
        selection = payload.get("selection")
        if selection is not None and not isinstance(selection, dict):
            raise ConfigurationError(
                "golden trace header's selection is not a JSON object"
            )
        return cls(
            scenario=scenario,
            git=payload.get("git"),
            format=declared,
            selection=selection,
        )


class JsonlTraceWriter(TraceRecorder):
    """Streams trace events to a JSONL golden file of either kind.

    A :class:`~repro.sim.trace.TraceRecorder` whose :meth:`emit` writes
    one line: pass it straight to :func:`~repro.sim.executor.
    simulate_run` and call :meth:`result` with the finished run's
    payload, or :meth:`emit` ready-made events.  Then :meth:`close` —
    the end sentinel is only written on close, so an interrupted
    recording is detectably truncated rather than silently short.
    Usable as a context manager.
    """

    def __init__(self, path: str, header: TraceHeader) -> None:
        self.path = path
        self._count = 0
        self._handle: Optional[TextIO] = open(path, "w", encoding="utf-8")
        self._write_line(header.to_dict())

    def _write_line(self, record: Dict[str, object]) -> None:
        if self._handle is None:
            raise ConfigurationError(
                f"golden-trace writer for {self.path!r} is closed"
            )
        self._handle.write(json_dumps_exact(record) + "\n")

    def emit(self, event: TraceEvent) -> None:
        """Append one event record."""
        self._write_line(event.to_dict())
        self._count += 1

    def result(self, payload: Dict[str, object]) -> None:
        """Write the end-of-run ``result`` record (RunResult summary)."""
        self.emit(TraceEvent("result", dict(payload)))

    def close(self) -> None:
        if self._handle is None:
            return
        self._write_line({"kind": "end", "events": self._count})
        self._handle.close()
        self._handle = None

    def __enter__(self) -> "JsonlTraceWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_golden(path: str) -> Tuple[TraceHeader, List[TraceEvent]]:
    """Parse a golden file into its header and ordered event list.

    The same checks hold for every format tag.  Every malformed input
    — unreadable file, invalid JSON, missing or unknown-format header,
    an event kind the header's format does not allow, missing end
    sentinel (truncation), event-count mismatch — raises
    :class:`~repro.errors.ConfigurationError` naming the file and,
    where it applies, the line.
    """
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ConfigurationError(f"cannot read golden trace {path!r}: {exc}")

    records: List[Dict[str, object]] = []
    for number, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        record = json_loads_exact(
            line, what=f"golden trace ({path}, line {number})"
        )
        if not isinstance(record, dict):
            raise ConfigurationError(
                f"golden trace {path!r} line {number}: expected a JSON "
                f"object, got {type(record).__name__}"
            )
        records.append(record)
    if not records:
        raise ConfigurationError(f"golden trace {path!r} is empty")

    header = TraceHeader.from_dict(records[0])
    body = records[1:]
    if not body or body[-1].get("kind") != "end":
        raise ConfigurationError(
            f"golden trace {path!r} is truncated: no end sentinel "
            f"(recording was interrupted, or the file was cut short)"
        )
    sentinel = body.pop()
    declared = sentinel.get("events")
    if declared != len(body):
        raise ConfigurationError(
            f"golden trace {path!r} is corrupt: end sentinel declares "
            f"{declared!r} events but {len(body)} are present"
        )

    kinds = FORMATS[header.format]
    events: List[TraceEvent] = []
    for index, record in enumerate(body):
        kind = record.get("kind")
        if kind not in kinds:
            raise ConfigurationError(
                f"golden trace {path!r} event {index}: unknown kind {kind!r}"
            )
        events.append(TraceEvent.from_dict(record))
    return header, events
