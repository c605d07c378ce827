"""Execution traces: optional structured recording of a simulated run.

A :class:`TraceRecorder` receives callbacks from the executor (time
segments, checkpoints, faults, rollbacks, speed changes, the finish).
Each callback builds one :class:`TraceEvent` — a kind tag and a flat
payload of JSON-safe scalars — and hands it to :meth:`TraceRecorder.
emit`, the one hook a recorder overrides.  The default
:data:`NULL_RECORDER` drops every event, and the executor skips its
callbacks altogether when it is attached, so an untraced run builds no
event.  A :class:`Trace` keeps the ordered event list (the shape a
golden file stores and :mod:`repro.goldens` replays), exposes typed
views of it, and renders a compact ASCII timeline for debugging and
the examples.

Equality between events is *bit-exact* on floats (NaN equals NaN,
``-0.0`` differs from ``0.0``), so a replay can call two runs identical
event by event and name the first event where they are not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.checkpoints import CheckpointKind

__all__ = [
    "TraceEvent",
    "TraceRecorder",
    "NULL_RECORDER",
    "Trace",
    "SegmentRecord",
    "CheckpointRecord",
    "FaultRecord",
    "RollbackRecord",
    "SpeedRecord",
    "same_scalar",
    "payload_diff",
]


def same_scalar(a: object, b: object) -> bool:
    """Bit-exact scalar equality: NaN == NaN, ``-0.0`` != ``0.0``.

    Non-float values fall back to ``==`` with a type guard (so ``1``
    and ``1.0`` — an int smuggled where a float belongs — do not
    compare equal and mask a codec bug).
    """
    if isinstance(a, float) or isinstance(b, float):
        if not (isinstance(a, float) and isinstance(b, float)):
            return False
        if math.isnan(a) or math.isnan(b):
            return math.isnan(a) and math.isnan(b)
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(
            same_scalar(x, y) for x, y in zip(a, b)
        )
    return a == b


def payload_diff(
    expected: Dict[str, object], actual: Dict[str, object]
) -> List[Tuple[str, object, object]]:
    """Fields whose values differ, as ``(field, expected, actual)``.

    Fields present on only one side appear with the sentinel string
    ``"<absent>"`` on the other.
    """
    diffs: List[Tuple[str, object, object]] = []
    for field in list(expected) + [f for f in actual if f not in expected]:
        if field not in expected:
            diffs.append((field, "<absent>", actual[field]))
        elif field not in actual:
            diffs.append((field, expected[field], "<absent>"))
        elif not same_scalar(expected[field], actual[field]):
            diffs.append((field, expected[field], actual[field]))
    return diffs


@dataclass(frozen=True)
class TraceEvent:
    """One recorder callback (or a harness-level record), flattened."""

    kind: str
    payload: Dict[str, object]

    def same_values(self, other: "TraceEvent") -> bool:
        """Kind and payload identity, bit-exact on floats."""
        return (
            self.kind == other.kind
            and not payload_diff(self.payload, other.payload)
        )

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {"kind": self.kind}
        record.update(self.payload)
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "TraceEvent":
        payload = dict(record)
        kind = payload.pop("kind")
        return cls(kind=kind, payload=payload)

    def describe(self) -> str:
        """One-line human rendering, ``kind(field=value, ...)``."""
        fields = ", ".join(f"{k}={v!r}" for k, v in self.payload.items())
        return f"{self.kind}({fields})"


class TraceRecorder:
    """Callback interface: each callback builds one event for :meth:`emit`.

    The callbacks are the single normalisation point — what a callback
    serialises as is defined here once.  Subclasses override
    :meth:`emit`; the base class drops every event.
    """

    def emit(self, event: TraceEvent) -> None:
        """Receive one event, in run order."""

    def segment(
        self, label: str, frequency: float, start: float, end: float, cycles: float
    ) -> None:
        """A contiguous span of execution or overhead."""
        self.emit(
            TraceEvent(
                "segment",
                {
                    "label": label,
                    "frequency": float(frequency),
                    "start": float(start),
                    "end": float(end),
                    "cycles": float(cycles),
                },
            )
        )

    def checkpoint(self, time: float, kind: CheckpointKind) -> None:
        """A checkpoint operation completed at ``time``."""
        self.emit(
            TraceEvent(
                "checkpoint", {"time": float(time), "checkpoint": kind.value}
            )
        )

    def fault(self, time: float, *, corrupting: bool) -> None:
        """A fault arrived (``corrupting`` per the overhead setting)."""
        self.emit(
            TraceEvent(
                "fault", {"time": float(time), "corrupting": bool(corrupting)}
            )
        )

    def rollback(self, time: float, committed_cycles: float) -> None:
        """A detected fault rolled the pair back."""
        self.emit(
            TraceEvent(
                "rollback",
                {
                    "time": float(time),
                    "committed_cycles": float(committed_cycles),
                },
            )
        )

    def speed(self, time: float, frequency: float) -> None:
        """The DVS policy (re)selected a speed."""
        self.emit(
            TraceEvent(
                "speed", {"time": float(time), "frequency": float(frequency)}
            )
        )

    def finish(self, time: float, *, completed: bool, timely: bool) -> None:
        """The run terminated."""
        self.emit(
            TraceEvent(
                "finish",
                {
                    "time": float(time),
                    "completed": bool(completed),
                    "timely": bool(timely),
                },
            )
        )


NULL_RECORDER = TraceRecorder()


@dataclass(frozen=True)
class SegmentRecord:
    label: str
    frequency: float
    start: float
    end: float
    cycles: float

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class CheckpointRecord:
    time: float
    kind: CheckpointKind


@dataclass(frozen=True)
class FaultRecord:
    time: float
    corrupting: bool


@dataclass(frozen=True)
class RollbackRecord:
    time: float
    committed_cycles: float


@dataclass(frozen=True)
class SpeedRecord:
    time: float
    frequency: float


class Trace(TraceRecorder):
    """Captures the complete event history of one run, in order.

    :attr:`events` is the record; the typed lists and the finish fields
    are read-only views of it.
    """

    def __init__(self) -> None:
        self.events: List[TraceEvent] = []

    def emit(self, event: TraceEvent) -> None:
        self.events.append(event)

    def _payloads(self, kind: str) -> List[Dict[str, object]]:
        return [event.payload for event in self.events if event.kind == kind]

    @property
    def segments(self) -> List[SegmentRecord]:
        return [SegmentRecord(**p) for p in self._payloads("segment")]

    @property
    def checkpoints(self) -> List[CheckpointRecord]:
        return [
            CheckpointRecord(p["time"], CheckpointKind(p["checkpoint"]))
            for p in self._payloads("checkpoint")
        ]

    @property
    def faults(self) -> List[FaultRecord]:
        return [FaultRecord(**p) for p in self._payloads("fault")]

    @property
    def rollbacks(self) -> List[RollbackRecord]:
        return [RollbackRecord(**p) for p in self._payloads("rollback")]

    @property
    def speeds(self) -> List[SpeedRecord]:
        return [SpeedRecord(**p) for p in self._payloads("speed")]

    def _finish(self, field: str) -> Optional[object]:
        finishes = self._payloads("finish")
        return finishes[-1][field] if finishes else None

    @property
    def finish_time(self) -> Optional[float]:
        return self._finish("time")

    @property
    def completed(self) -> Optional[bool]:
        return self._finish("completed")

    @property
    def timely(self) -> Optional[bool]:
        return self._finish("timely")

    @property
    def total_overhead_time(self) -> float:
        """Time spent on checkpoint/rollback operations."""
        return sum(s.duration for s in self.segments if s.label != "exec")

    @property
    def total_execution_time(self) -> float:
        """Time spent on useful (possibly later discarded) work."""
        return sum(s.duration for s in self.segments if s.label == "exec")

    def render(self, width: int = 72) -> str:
        """Compact ASCII timeline of the run.

        One character per time bucket: ``=`` execution, ``s``/``c``/``#``
        SCP/CCP/CSCP overhead, ``r`` rollback, ``!`` marks a bucket with
        a corrupting fault.  A header line reports outcome and totals.
        """
        segments = self.segments
        if not segments:
            return "(empty trace)"
        horizon = max(s.end for s in segments)
        if horizon <= 0:
            return "(empty trace)"
        scale = width / horizon
        chars = [" "] * width
        order = {"exec": 0, "scp": 1, "ccp": 1, "cscp": 2, "rollback": 3}
        glyph = {"exec": "=", "scp": "s", "ccp": "c", "cscp": "#", "rollback": "r"}
        for seg in segments:
            lo = min(width - 1, int(seg.start * scale))
            hi = min(width - 1, int(max(seg.start, seg.end - 1e-12) * scale))
            for i in range(lo, hi + 1):
                current = chars[i]
                if current == " " or order.get(seg.label, 0) > _glyph_order(current):
                    chars[i] = glyph.get(seg.label, "?")
        faults = self.faults
        fault_order = _glyph_order("!")
        for fault in faults:
            if fault.corrupting:
                i = min(width - 1, int(fault.time * scale))
                # Same priority ordering as the segment pass, so the
                # timeline is stable regardless of event insertion order.
                if fault_order > _glyph_order(chars[i]):
                    chars[i] = "!"
        if self.finish_time is None:
            # A run that never called finish() (aborted, still in
            # flight, or cut short at a divergence) still renders.
            header = "[unfinished] t=?"
        else:
            outcome = (
                "timely"
                if self.timely
                else ("late" if self.completed else "failed")
            )
            header = f"[{outcome}] t={self.finish_time:.1f}"
        header += (
            f" faults={sum(1 for f in faults if f.corrupting)} "
            f"rollbacks={len(self.rollbacks)} cscp={sum(1 for c in self.checkpoints if c.kind is CheckpointKind.CSCP)}"
        )
        return header + "\n" + "".join(chars)


def _glyph_order(char: str) -> int:
    return {"=": 0, "s": 1, "c": 1, "#": 2, "r": 3, "!": 4}.get(char, 0)
