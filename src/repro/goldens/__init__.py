"""Golden-trace record/replay: regression infrastructure for the
determinism contract.

The executor's bit-identity promise was enforced only by end-of-run
byte-diffs; this package turns :mod:`repro.sim.trace`'s ordered
:class:`~repro.sim.trace.TraceEvent` record into per-event regression
checks.  ``repro record-golden`` re-records the curated scheme ×
fault-process matrix (and the taskset trace) as JSONL goldens under
``tests/goldens/`` and prints an event-level diff against what was
there before; ``repro replay`` re-executes goldens against the current
tree, writes nothing, and reports the *first diverging event* — index,
kind, expected-vs-actual payload, surrounding context and a rendered
timeline — instead of a bare bit-identity failure.  It doubles as a
user-facing audit tool for replaying production runs.

It is the one trace engine of the repository: the multi-task EDF
engine's golden (:mod:`repro.goldens.taskset`, format tag
``repro.taskset-trace/1``) shares the reader, writer, replay and drift
reports, and ``repro replay`` picks the kind from each file's header.
"""

from repro.goldens.replay import (
    Divergence,
    DivergenceRecorder,
    DriftReport,
    GoldenUpdate,
    default_golden_dir,
    golden_names,
    record_golden,
    record_taskset_golden,
    replay,
    replay_paths,
    resolve_golden_paths,
    run_result_payload,
    update_goldens,
)
from repro.goldens.scenarios import (
    GOLDEN_SCENARIOS,
    GoldenScenario,
    scenario,
    scenario_names,
)
from repro.goldens.trace_io import (
    FORMAT,
    TASKSET_FORMAT,
    JsonlTraceWriter,
    TraceHeader,
    read_golden,
)
from repro.sim.trace import TraceEvent, payload_diff

__all__ = [
    "FORMAT",
    "GOLDEN_SCENARIOS",
    "Divergence",
    "DivergenceRecorder",
    "DriftReport",
    "GoldenScenario",
    "GoldenUpdate",
    "JsonlTraceWriter",
    "TASKSET_FORMAT",
    "TraceEvent",
    "TraceHeader",
    "default_golden_dir",
    "golden_names",
    "payload_diff",
    "read_golden",
    "record_golden",
    "record_taskset_golden",
    "replay",
    "replay_paths",
    "resolve_golden_paths",
    "run_result_payload",
    "scenario",
    "scenario_names",
    "update_goldens",
]
