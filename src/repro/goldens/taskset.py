"""The taskset trace kind: an event-level golden for the EDF engine.

The executor goldens localise drift in the single-task executor; a
taskset golden does the same for the multi-task workload engine.  One
curated scenario — generator params, seed, selected operating point,
and one rep of the schedule simulation — is recorded under the
``repro.taskset-trace/1`` tag: the header pins the scenario and its
``selection``, the body holds one ``job`` event per
:class:`~repro.rts.scheduler.JobRecord` in deterministic order and a
``summary`` (energy, busy time, makespan).

Only what differs from the executor kind lives here: the curated job,
scenario payload ↔ job, and the re-run with its events.  Reading,
writing, replay and drift reports are the shared ones of
:mod:`repro.goldens`, so ``repro replay`` localises a behavioural
change in the generator, the selection rule or the scheduler to its
first diverging event like any other golden.
"""

from __future__ import annotations

import os
from typing import Dict, List, Tuple

from repro.core.checkpoints import CostModel
from repro.errors import ConfigurationError
from repro.rts.generators import WorkloadParams
from repro.rts.scheduler import simulate_schedule
from repro.sim.energy import EnergyModel
from repro.sim.trace import TraceEvent
from repro.workloads.engine import TasksetCellJob, _rep_seed

__all__ = [
    "GOLDEN_FILE",
    "GOLDEN_JOB",
    "GOLDEN_NAME",
    "job_from_scenario",
    "scenario_payload",
    "simulate",
]

#: The curated scenario committed under ``tests/goldens/``: a bursty
#: 3-task workload at moderate load — exercises constrained deadlines,
#: preemption, fault rollbacks, and the frequency-selection rule.
GOLDEN_JOB = TasksetCellJob(
    params=WorkloadParams(
        pattern="bursty",
        n_tasks=3,
        utilization=0.55,
        fault_rate=2e-4,
        fault_budget=2,
    ),
    horizon=20_000.0,
    policy="edf",
    frequencies=(1.0, 2.0),
    reps=1,
    seed=200610,
)

#: Where :data:`GOLDEN_JOB`'s trace lives under the golden directory.
GOLDEN_FILE = os.path.join("taskset", "bursty-edf.jsonl")


def scenario_payload(job: TasksetCellJob, rep: int = 0) -> Dict[str, object]:
    """The header ``scenario`` that pins one rep of ``job``."""
    params = job.params
    return {
        "name": f"taskset-{params.pattern}-{job.policy}",
        "rep": rep,
        "seed": job.seed,
        "horizon": job.horizon,
        "policy": job.policy,
        "frequencies": list(job.frequencies),
        "params": {
            "pattern": params.pattern,
            "n_tasks": params.n_tasks,
            "utilization": params.utilization,
            "fault_rate": params.fault_rate,
            "fault_budget": params.fault_budget,
            "period_scale": params.period_scale,
            "costs": {
                "store_cycles": params.costs.store_cycles,
                "compare_cycles": params.costs.compare_cycles,
                "rollback_cycles": params.costs.rollback_cycles,
            },
        },
    }


def job_from_scenario(scenario: Dict[str, object]) -> Tuple[TasksetCellJob, int]:
    """Inverse of :func:`scenario_payload`: the job and rep to re-run."""
    try:
        raw = dict(scenario["params"])  # type: ignore[arg-type]
        costs = dict(raw.pop("costs"))
        job = TasksetCellJob(
            params=WorkloadParams(costs=CostModel(**costs), **raw),
            horizon=scenario["horizon"],  # type: ignore[arg-type]
            policy=scenario["policy"],  # type: ignore[arg-type]
            frequencies=tuple(scenario["frequencies"]),  # type: ignore[arg-type]
            reps=1,
            seed=scenario["seed"],  # type: ignore[arg-type]
        )
        return job, int(scenario["rep"])  # type: ignore[arg-type]
    except (KeyError, TypeError) as exc:
        raise ConfigurationError(f"malformed golden scenario: {exc!r}")


#: The curated trace's scenario name, as its header records it.
GOLDEN_NAME = str(scenario_payload(GOLDEN_JOB)["name"])


def simulate(
    job: TasksetCellJob, rep: int = 0
) -> Tuple[Dict[str, object], List[TraceEvent]]:
    """Run one rep of ``job``: its ``selection`` payload and its events."""
    taskset, config, overrides = job.scenario()
    result = simulate_schedule(
        taskset,
        horizon=job.horizon,
        policy=job.policy,
        frequency=config.frequency,
        seed=_rep_seed(job.seed, rep),
        energy_model=EnergyModel.paper_dmr(),
        drop_late_jobs=job.drop_late_jobs,
        chunk_overrides=overrides,
    )
    selection = {
        "frequency": config.frequency,
        "feasible": config.feasible,
        "checkpoint_counts": [list(pair) for pair in config.checkpoint_counts],
    }
    events = [
        TraceEvent(
            "job",
            {
                "task": record.task_name,
                "release": record.release,
                "deadline": record.absolute_deadline,
                "completed_at": record.completed_at,
                "deadline_met": record.deadline_met,
                "faults": record.faults,
                "preemptions": record.preemptions,
                "checkpoints": record.checkpoints,
            },
        )
        for record in result.jobs
    ]
    events.append(
        TraceEvent(
            "summary",
            {
                "jobs": len(result.jobs),
                "energy": result.energy,
                "busy_time": result.busy_time,
                "makespan": result.makespan,
                "horizon": result.horizon,
            },
        )
    )
    return selection, events
