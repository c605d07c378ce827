"""The four benchmark workloads.

Every workload is a closed loop driven from this one process: each
client waits for its reply before it sends the next op.  A workload
builds its inputs from the run's seed only, runs its ops through the
program's public entry points (``python -m repro``, ``repro.api`` and
``repro serve`` with :func:`repro.service.submit_study`), and checks
every output after the window so a wrong answer counts as a failed op.

A window is a fixed amount of work, ``cycles`` cycles of ops per 10 s
of ``--seconds``, sized to take about that long on the reference box
(2 vCPUs).  A fixed op count keeps which sample is the median and which
the tail the same from run to run, however fast the host is that day.

============  =======  ==========================================  =====  ======
workload      clients  one op                                      cycle  cycles
============  =======  ==========================================  =====  ======
cold-cli      1        one cold ``python -m repro`` command            3       3
paper-tables  1        one paper table on a process pool               8       4
service-mix   2        one ``submit_study`` to a ``repro serve``      12      20
taskset-edf   1        one ``taskset`` or ``frontier`` study           3      13
============  =======  ==========================================  =====  ======

``BENCHMARK.json`` lists cold-cli and paper-tables, the two whose figures
hold steady on the reference box; service-mix and taskset-edf run by
hand and in the self-tests.  Why each exists, which layers it loads and
why two are left out of ``BENCHMARK.json`` is in ``rationale.json``.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from harness import OpFailed, OpLog, Tracer

#: Rep count of every paper table; one pass over the eight tables takes
#: ~3 s on the 2-worker pool of the reference box.
TABLE_REPS = 84
#: Reps per cell of the service's warm specs and of its fresh rows.
SERVICE_REPS = 64
#: The service's warm tables: one SCP and one CCP table of 32 cells each,
#: fixed so that set-up cost and hit latency do not depend on the seed.
WARM_TABLES = ("1a", "3a")
#: Table of the frontier study, fixed for the same reason.
FRONTIER_TABLE = "1a"
#: Reps per cell of the taskset (12 cells) and frontier (10 cells)
#: studies: ~0.2 s and ~0.4 s serial, so the taskset studies are the
#: lower two thirds of the latency order and the frontiers the top third.
TASKSET_REPS = 32
FRONTIER_REPS = 768

SERVE_READY = "repro-serve: listening on "

_TABLES = ("1a", "1b", "2a", "2b", "3a", "3b", "4a", "4b")
#: Traffic figures only the workloads that drive their layer report;
#: on the others they read 0.
TRAFFIC = (
    "server.rejected", "scheduler.hits", "scheduler.misses",
    "scheduler.hit_ratio", "scheduler.wait_share", "cache.entries",
    "cache.bytes", "backends.messages", "backends.blocks_per_message_mean",
    "backends.busy_share", "backends.inprocess_blocks", "core.num_ccp_calls",
    "core.num_scp_calls", "core.checkpoint_interval_calls",
    "core.replans_per_run",
    *(f"backends.blocks_per_message_max.{table}" for table in _TABLES),
    *(f"core.share.{table}" for table in _TABLES),
)


@dataclass
class Context:
    """What every workload gets: where the program is, and the run's seed."""

    root: str
    seed: int
    workdir: str

    @property
    def src(self) -> str:
        return os.path.join(self.root, "src")

    def env(self) -> Dict[str, str]:
        return dict(os.environ, PYTHONPATH=self.src)

    def rng(self, purpose: str) -> random.Random:
        """A generator for one purpose, a pure function of the seed."""
        return random.Random(f"{purpose}/{self.seed}")


class Workload:
    """One benchmark workload (see the module table)."""

    name = ""
    clients = 1
    #: Ops in one cycle of the op sequence, and cycles per 10 s window.
    cycle = 1
    cycles = 1
    #: Layer of the span around one op in a traced pass.
    op_layer = "bench"

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx

    def setup(self) -> None:
        """Everything before the first timed op."""

    def op_source(self, pass_index: int) -> Callable[[], object]:
        """Endless seeded op sequence for one pass over the workload."""
        raise NotImplementedError

    def window(self, seconds: float, pass_index: int) -> List[object]:
        """The ops of one window of ``seconds``."""
        count = self.cycle * max(1, round(self.cycles * seconds / 10.0))
        source = self.op_source(pass_index)
        return [source() for _ in range(count)]

    def run_op(self, op: object) -> object:
        """Run one op and return what its check needs; raise on failure."""
        raise NotImplementedError

    def reps(self, op: object, output: object) -> int:
        """Monte-Carlo reps the program computed for one op."""
        return 0

    def check(self, log: OpLog) -> None:
        """Fail every op of ``log`` whose output is wrong."""

    def compare(self, first: OpLog, second: OpLog) -> None:
        """Fail ops of ``second`` whose output differs from ``first``'s."""

    def before_trace(self) -> None:
        """Reset what the traced pass's figures are measured against."""

    def trace_targets(self, tracer: Tracer):
        """``(targets, hooks)`` to install for the traced pass."""
        return trace_targets(), []

    def traffic(self, tracer: Tracer, log: OpLog) -> Dict[str, float]:
        """Per-layer figures measured on this workload's traced pass."""
        return {}

    def after_trace(self, tracer: Tracer) -> None:
        """Extra traced work once the traced pass is over."""

    def notes(self) -> List[str]:
        """Lines the report prints under the op counts."""
        return []

    def teardown(self) -> None:
        """Stop every process and release every resource setup made."""


def cycled(make_cycle: Callable[[], List[object]]) -> Callable[[], object]:
    """An endless op source that concatenates ``make_cycle()`` results."""
    queue: List[object] = []

    def next_op() -> object:
        if not queue:
            queue.extend(make_cycle())
        return queue.pop(0)

    return next_op


# -- the study service as a subprocess ------------------------------------


class ServeProcess:
    """``python -m repro serve`` on an OS-assigned loopback port."""

    def __init__(self, ctx: Context, cache_dir: str) -> None:
        self.cache_dir = cache_dir
        self._stderr = open(os.path.join(ctx.workdir, "serve.stderr"), "ab")
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--cache", cache_dir,
                "--serve-url", "http://127.0.0.1:0",
            ],
            cwd=ctx.root,
            env=ctx.env(),
            stdout=subprocess.PIPE,
            stderr=self._stderr,
        )
        self.url = ""

    def wait_ready(self, timeout: float = 60.0) -> str:
        """Block until the readiness line; return the service URL."""
        deadline = time.monotonic() + timeout
        line = b""
        while not line.endswith(b"\n"):
            left = deadline - time.monotonic()
            if left <= 0 or self.proc.poll() is not None:
                raise RuntimeError("repro serve did not become ready")
            readable, _, _ = select.select([self.proc.stdout], [], [], left)
            if readable:
                chunk = os.read(self.proc.stdout.fileno(), 1)
                if not chunk:
                    raise RuntimeError("repro serve exited before it was ready")
                line += chunk
        text = line.decode("utf-8")
        if not text.startswith(SERVE_READY):
            raise RuntimeError(f"unexpected readiness line: {text!r}")
        self.url = text[len(SERVE_READY):].split()[0]
        return self.url

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


def directory_bytes(path: str) -> int:
    total = 0
    for folder, _dirs, files in os.walk(path):
        for name in files:
            try:
                total += os.path.getsize(os.path.join(folder, name))
            except OSError:
                pass
    return total


def batch_wall(result: Dict) -> float:
    """Wall seconds of the distinct batches that computed a result's cells."""
    batches = {
        record["provenance"]["batch"]: record["provenance"]["wall_seconds"]
        for record in result["records"]
    }
    return sum(batches.values())


def service_traffic(url: str, cache_dir: str, before: Dict) -> Dict[str, float]:
    """Scheduler and cache counters a traced pass added, from ``/stats``."""
    from repro.service import fetch_stats

    after = fetch_stats(url)
    hits = after["scheduler"]["hits"] - before["scheduler"]["hits"]
    misses = after["scheduler"]["misses"] - before["scheduler"]["misses"]
    return {
        "scheduler.hits": hits,
        "scheduler.misses": misses,
        "scheduler.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "server.rejected": after["rejected"] - before["rejected"],
        "cache.entries": after["cache"]["entries"],
        "cache.bytes": directory_bytes(cache_dir),
    }


# -- cold-cli --------------------------------------------------------------


class ColdCli(Workload):
    """Cold ``python -m repro`` commands, one at a time.

    A cycle is a seeded order of ``list``, ``run`` and ``submit``.  With
    three cycles the median falls among the ``run``/``submit`` commands
    and, with no ten samples above any percentile, the tail is the
    slowest command.
    """

    name = "cold-cli"
    cycle = 3
    cycles = 3
    op_layer = "cli"

    def setup(self) -> None:
        ctx = self.ctx
        with open(os.path.join(ctx.root, "examples", "table_a.spec.json")) as handle:
            spec = json.load(handle)
        spec["seed"] = ctx.rng("cold-cli/spec").randrange(1, 2**31)
        self.spec_path = os.path.join(ctx.workdir, "table_a.spec.json")
        with open(self.spec_path, "w") as handle:
            json.dump(spec, handle)
        self.cache_dir = os.path.join(ctx.workdir, "cli-cache")
        self.server = ServeProcess(ctx, self.cache_dir)
        from repro.api import ResultSet
        from repro.service import submit_study

        self.url = self.server.wait_ready()
        self.reference = ResultSet.from_dict(submit_study(self.url, spec)["result"])
        self.commands = 0

    def op_source(self, pass_index: int) -> Callable[[], object]:
        rng = self.ctx.rng(f"cold-cli/order/{pass_index}")

        def make_cycle() -> List[object]:
            commands = ["list", "run", "submit"]
            rng.shuffle(commands)
            return commands

        return cycled(make_cycle)

    def run_op(self, op: object) -> object:
        self.commands += 1
        out = os.path.join(self.ctx.workdir, f"{op}-{self.commands}.json")
        argv = {
            "list": ["list"],
            "run": ["run", self.spec_path, "--quiet", "--out", out],
            "submit": ["submit", self.spec_path, "--url", self.url, "--out", out],
        }[op]
        done = subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            cwd=self.ctx.root,
            env=self.ctx.env(),
            capture_output=True,
            text=True,
            timeout=120,
        )
        if done.returncode != 0:
            raise OpFailed(f"exit {done.returncode}: {done.stderr.strip()[-200:]}")
        if op == "submit" and "(0 computed," not in done.stdout:
            raise OpFailed(f"submit computed cells: {done.stdout.strip()}")
        return done.stdout if op == "list" else out

    def reps(self, op: object, output: object) -> int:
        from repro.api import ResultSet

        if op != "run":
            return 0
        return sum(record.estimate.reps for record in ResultSet.load(output))

    def check(self, log: OpLog) -> None:
        from repro.api import ResultSet

        listing: Optional[str] = None
        for index, op, output in list(log.succeeded()):
            if op == "list":
                listing = output if listing is None else listing
                if output != listing or len(output.splitlines()) != 8:
                    log.fail(index, "list output differs")
                continue
            if not ResultSet.load(output).same_values(self.reference):
                log.fail(index, f"{op} --out differs from the first answer")

    def before_trace(self) -> None:
        from repro.service import fetch_stats

        self.stats_before = fetch_stats(self.url)

    def traffic(self, tracer: Tracer, log: OpLog) -> Dict[str, float]:
        return service_traffic(self.url, self.cache_dir, self.stats_before)

    def teardown(self) -> None:
        if hasattr(self, "server"):
            self.server.stop()


# -- paper-tables ----------------------------------------------------------


class PaperTables(Workload):
    """The eight paper tables on one process pool per pass, like ``validate``.

    A cycle opens a ``Session(backend="process")``, runs tables 1a … 4b
    back to back and closes it, so every cycle starts with the pool's
    dispatch average empty, as a ``repro validate --workers 0`` user does.
    Four cycles (32 ops) put the tail on the 22nd op in latency order,
    among the big SCP tables, not among the small ones dispatch dominates.
    """

    name = "paper-tables"
    cycle = 8
    cycles = 4

    def setup(self) -> None:
        from repro.api import StudySpec
        from repro.experiments.paper_data import TABLE_IDS

        self.workers = os.cpu_count() or 1
        self.table_ids = list(TABLE_IDS)
        seed = self.ctx.rng("paper-tables/seed").randrange(1, 2**31)
        self.specs = {
            table: StudySpec(kind="table", table=table, reps=TABLE_REPS, seed=seed)
            for table in self.table_ids
        }
        self.session = None
        self.serial: Dict[str, object] = {}

    def op_source(self, pass_index: int) -> Callable[[], object]:
        return cycled(lambda: list(self.table_ids))

    def run_op(self, op: object) -> object:
        from repro.api import Session, Study

        if op == self.table_ids[0]:
            self.session = Session(backend="process", workers=self.workers)
        try:
            return Study(self.specs[op]).run(self.session)
        finally:
            if op == self.table_ids[-1]:
                self.session.close()

    def reps(self, op: object, output: object) -> int:
        return len(output) * TABLE_REPS

    def serial_reference(self, tracer: Optional[Tracer] = None) -> None:
        """Each table once, in process on a serial session."""
        from repro.api import Session, Study

        with Session() as session:
            for position, table in enumerate(self.table_ids):
                study = Study(self.specs[table])
                if tracer is None:
                    self.serial[table] = study.run(session)
                else:
                    with tracer.op(SERIAL_OP_BASE + position):
                        self.serial[table] = study.run(session)

    def check(self, log: OpLog) -> None:
        from repro.experiments.report import shape_checks
        from repro.experiments.tables import assemble_table_result

        if not self.serial:
            self.serial_reference()
        self.shape_passed = self.shape_total = 0
        for index, table, output in list(log.succeeded()):
            if not output.same_values(self.serial[table]):
                log.fail(index, f"table {table} differs from the serial run")
        for table, results in self.serial.items():
            spec = self.specs[table]
            verdicts = shape_checks(
                assemble_table_result(
                    spec.resolve_table(),
                    reps=spec.reps,
                    seed=spec.seed,
                    estimates=[record.estimate for record in results],
                )
            )
            self.shape_total += len(verdicts)
            self.shape_passed += sum(check.passed for check in verdicts)

    def notes(self) -> List[str]:
        return [f"shape checks passed: {self.shape_passed}/{self.shape_total}"]

    def trace_targets(self, tracer: Tracer):
        return trace_targets(), [pool_submit_hook(tracer)]

    def after_trace(self, tracer: Tracer) -> None:
        self.serial_reference(tracer)

    def traffic(self, tracer: Tracer, log: OpLog) -> Dict[str, float]:
        figures: Dict[str, float] = {}
        window_ops = range(len(log.issued))
        messages = tracer.events["backends.message"]
        sizes = [size for _op_id, size in messages]
        figures["backends.messages"] = len(sizes)
        figures["backends.blocks_per_message_mean"] = (
            sum(sizes) / len(sizes) if sizes else 0.0
        )
        largest = dict.fromkeys(self.table_ids, 0)
        for op_id, size in messages:
            table = log.issued[op_id]
            largest[table] = max(largest[table], size)
        for table, size in largest.items():
            figures[f"backends.blocks_per_message_max.{table}"] = size
        cycles = len(log.issued) / len(self.table_ids)
        serial_compute = tracer.total_seconds(
            "BatchRunner.run_cells",
            [SERIAL_OP_BASE + i for i in range(len(self.table_ids))],
        )
        pool_wall = tracer.total_seconds("BatchRunner.run_cells", window_ops)
        figures["backends.busy_share"] = (
            serial_compute * cycles / (self.workers * pool_wall) if pool_wall else 0.0
        )
        figures["backends.inprocess_blocks"] = tracer.total_calls(
            "execute_block", window_ops
        )
        figures.update(core_traffic(tracer, self.table_ids))
        return figures

    def teardown(self) -> None:
        if self.session is not None:
            self.session.close()


#: Op ids of the traced serial reference pass, apart from the window's.
SERIAL_OP_BASE = 100_000


def core_traffic(tracer: Tracer, table_ids: List[str]) -> Dict[str, float]:
    """``core`` figures from the traced serial pass over the tables."""
    serial_ops = [SERIAL_OP_BASE + i for i in range(len(table_ids))]
    runs = tracer.total_calls("execute_once", serial_ops)
    replans = tracer.total_calls("num_scp", serial_ops) + tracer.total_calls(
        "num_ccp", serial_ops
    )
    figures: Dict[str, float] = {
        "core.num_ccp_calls": tracer.total_calls("num_ccp", serial_ops),
        "core.num_scp_calls": tracer.total_calls("num_scp", serial_ops),
        "core.checkpoint_interval_calls": tracer.total_calls(
            "checkpoint_interval", serial_ops
        ),
        "core.replans_per_run": replans / runs if runs else 0.0,
    }
    for op_id, table in zip(serial_ops, table_ids):
        optimiser = tracer.total_seconds("num_scp", [op_id]) + tracer.total_seconds(
            "num_ccp", [op_id]
        )
        executed = tracer.total_seconds("execute_once", [op_id])
        figures[f"core.share.{table}"] = optimiser / executed if executed else 0.0
    return figures


# -- service-mix -----------------------------------------------------------


class ServiceMix(Workload):
    """Two clients submitting to one ``repro serve`` with a warm cache.

    A cycle of 12 submissions holds 9 resubmissions of warm specs (6 of
    a warm table, 3 of a warm row), 2 row specs with fresh seeds, and one
    of those fresh specs again right after it, so two clients race on
    the same cells.  Table hits are the middle of the latency order, so
    the median sits inside them and the tail among the fresh rows.
    """

    name = "service-mix"
    clients = 2
    cycle = 12
    cycles = 20

    def setup(self) -> None:
        ctx = self.ctx
        self.cache_dir = os.path.join(ctx.workdir, "mix-cache")
        self.server = ServeProcess(ctx, self.cache_dir)
        from repro.api.results import json_dumps_exact
        from repro.experiments.config import table_spec
        from repro.experiments.paper_data import TABLE_IDS
        from repro.service import submit_study

        rng = ctx.rng("service-mix/warm")
        warm_seed = rng.randrange(1, 2**31)
        others = [table for table in TABLE_IDS if table not in WARM_TABLES]
        self.warm_tables = [self._table_spec(table, warm_seed) for table in WARM_TABLES]
        # Rows of the warm tables share their cells with the tables.
        self.warm_rows = []
        for table in [*WARM_TABLES, *rng.sample(others, 2)]:
            u, lam = rng.choice(table_spec(table).rows)
            self.warm_rows.append(self._row_spec(table, u, lam, warm_seed))
        warm = self.warm_tables + self.warm_rows
        self.row_choices = [
            (table, u, lam) for table in TABLE_IDS for u, lam in table_spec(table).rows
        ]
        self.url = self.server.wait_ready()
        self.warm_bytes = {
            json.dumps(spec, sort_keys=True): json_dumps_exact(
                submit_study(self.url, spec)["result"]
            )
            for spec in warm
        }

    @staticmethod
    def _table_spec(table: str, seed: int) -> Dict:
        return {"kind": "table", "table": table, "reps": SERVICE_REPS,
                "seed": seed, "kernel": "fast"}

    @staticmethod
    def _row_spec(table: str, u: float, lam: float, seed: int) -> Dict:
        return {"kind": "row", "table": table, "u": u, "lam": lam,
                "reps": SERVICE_REPS, "seed": seed, "kernel": "fast"}

    def op_source(self, pass_index: int) -> Callable[[], object]:
        # Every pass draws the same ops; only the fresh seeds differ, so a
        # traced pass computes as much as the untraced one, all of it new.
        rng = self.ctx.rng("service-mix/ops")
        seeds = self.ctx.rng(f"service-mix/fresh/{pass_index}")

        def make_cycle() -> List[object]:
            slots = [("warm", table) for table in self.warm_tables for _ in range(3)]
            slots += [("warm", rng.choice(self.warm_rows)) for _ in range(3)]
            for _ in range(2):
                table, u, lam = rng.choice(self.row_choices)
                fresh = self._row_spec(table, u, lam, seeds.randrange(1, 2**31))
                slots.append(("fresh", fresh))
            rng.shuffle(slots)
            first_fresh = next(i for i, slot in enumerate(slots) if slot[0] == "fresh")
            slots.insert(first_fresh + 1, ("fresh", slots[first_fresh][1]))
            return slots

        return cycled(make_cycle)

    def run_op(self, op: object) -> object:
        from repro.service import submit_study

        _kind, spec = op
        return submit_study(self.url, spec, retries=3)

    def reps(self, op: object, output: object) -> int:
        return output["computed"] * SERVICE_REPS

    def check(self, log: OpLog) -> None:
        from repro.api import ResultSet, Session, Study
        from repro.api.results import json_dumps_exact

        fresh: Dict[str, List[int]] = {}
        for index, (kind, spec) in enumerate(log.ops):
            if kind == "fresh":
                fresh.setdefault(json.dumps(spec, sort_keys=True), []).append(index)
        for index, (kind, spec), envelope in list(log.succeeded()):
            if kind != "warm":
                continue
            if envelope["computed"] != 0:
                log.fail(index, "a warm resubmission computed cells")
            elif json_dumps_exact(envelope["result"]) != self.warm_bytes[
                json.dumps(spec, sort_keys=True)
            ]:
                log.fail(index, "a warm resubmission is not byte-identical")
        with Session() as session:
            for key, indices in fresh.items():
                answered = [i for i in indices if log.errors[i] is None]
                if not answered:
                    continue
                local = Study(json.loads(key)).run(session)
                for index in answered:
                    served = ResultSet.from_dict(log.outputs[index]["result"])
                    if not served.same_values(local):
                        log.fail(index, "a fresh answer differs from Study.run")
                computed = sum(log.outputs[i]["computed"] for i in answered)
                if len(answered) == len(indices) and computed != len(local):
                    for index in answered:
                        log.fail(index, "a fresh spec was not computed exactly once")

    def before_trace(self) -> None:
        from repro.service import fetch_stats

        self.stats_before = fetch_stats(self.url)

    def trace_targets(self, tracer: Tracer):
        return trace_targets(), [urlopen_hook(tracer)]

    def traffic(self, tracer: Tracer, log: OpLog) -> Dict[str, float]:
        figures = service_traffic(self.url, self.cache_dir, self.stats_before)
        latency = waited = 0.0
        for index, (kind, _spec), envelope in log.succeeded():
            if kind == "fresh" and envelope["computed"]:
                latency += log.latencies[index]
                waited += log.latencies[index] - batch_wall(envelope["result"])
        figures["scheduler.wait_share"] = waited / latency if latency else 0.0
        return figures

    def teardown(self) -> None:
        if hasattr(self, "server"):
            self.server.stop()


# -- taskset-edf -----------------------------------------------------------


class TasksetEdf(Workload):
    """``taskset`` and ``frontier`` studies through ``Study.run``, serial.

    A cycle is a seeded order of two taskset studies and one frontier:
    the median falls among the taskset studies and, from 36 ops up, the
    tail among the frontiers.
    """

    name = "taskset-edf"
    cycle = 3
    cycles = 13

    def setup(self) -> None:
        from repro.api import Session, StudySpec

        rng = self.ctx.rng("taskset-edf/specs")
        self.specs = {
            "taskset": StudySpec(
                kind="taskset",
                patterns=("light", "bursty", "heavy", "uunifast"),
                u_grid=(0.5, 0.7, 0.9),
                n_tasks=4,
                reps=TASKSET_REPS,
                seed=rng.randrange(1, 2**31),
            ),
            "frontier": StudySpec(
                kind="frontier",
                table=FRONTIER_TABLE,
                reps=FRONTIER_REPS,
                seed=rng.randrange(1, 2**31),
            ),
        }
        self.session = Session()

    def op_source(self, pass_index: int) -> Callable[[], object]:
        rng = self.ctx.rng(f"taskset-edf/order/{pass_index}")

        def make_cycle() -> List[object]:
            kinds = ["taskset", "taskset", "frontier"]
            rng.shuffle(kinds)
            return kinds

        return cycled(make_cycle)

    def run_op(self, op: object) -> object:
        from repro.api import Study

        return Study(self.specs[op]).run(self.session)

    def reps(self, op: object, output: object) -> int:
        return sum(record.estimate.reps for record in output)

    def check(self, log: OpLog) -> None:
        from repro.api import Session, Study

        with Session() as session:
            reference = {
                kind: Study(spec).run(session)
                for kind, spec in self.specs.items()
            }
        for index, kind, output in list(log.succeeded()):
            if not output.same_values(reference[kind]):
                log.fail(index, f"{kind} estimates differ from a fresh session's")

    def compare(self, first: OpLog, second: OpLog) -> None:
        untraced = {op: output for _i, op, output in first.succeeded()}
        for index, kind, output in list(second.succeeded()):
            if kind in untraced and not output.same_values(untraced[kind]):
                second.fail(index, f"traced {kind} estimates differ from untraced")

    def teardown(self) -> None:
        if hasattr(self, "session"):
            self.session.close()


WORKLOADS = {
    workload.name: workload
    for workload in (ColdCli, PaperTables, ServiceMix, TasksetEdf)
}


# -- what a traced pass wraps ----------------------------------------------


def trace_targets():
    """Public calls of each layer, wrapped from outside the program.

    Calls made thousands of times per op are only counted and timed
    (``keep_span=False``); the rest also become spans.
    """
    from repro.api import plans, results, scheduler, session, spec, study
    from repro.core import intervals, optimizer
    from repro.rts import scheduler as rts_scheduler
    from repro.service import client
    from repro.sim import backends, executor, montecarlo, parallel
    from repro.workloads import engine

    return [
        (client, "submit_study", "submit_study", "service", True),
        (study.Study, "run", "Study.run", "api", True),
        (session.Session, "run_cells", "Session.run_cells", "api", True),
        (scheduler.CellScheduler, "run_plans", "CellScheduler.run_plans", "api", True),
        (spec.StudySpec, "cells", "StudySpec.cells", "api", True),
        (plans, "cell_identity", "cell_identity", "api", False),
        (results.ResultSet, "to_dict", "ResultSet.to_dict", "api", True),
        (parallel.BatchRunner, "run_cells", "BatchRunner.run_cells", "backends", True),
        (backends, "execute_block", "execute_block", "backends", False),
        (montecarlo, "accumulate_range", "accumulate_range", "montecarlo", False),
        (executor, "execute_once", "execute_once", "executor", False),
        (optimizer, "num_scp", "num_scp", "core", False),
        (optimizer, "num_ccp", "num_ccp", "core", False),
        (intervals, "checkpoint_interval", "checkpoint_interval", "core", False),
        (engine.TasksetCellJob, "run_block", "TasksetCellJob.run_block", "workloads", True),
        (engine.TasksetCellJob, "scenario", "TasksetCellJob.scenario", "workloads", False),
        (rts_scheduler, "simulate_schedule", "simulate_schedule", "rts", False),
    ]


def pool_submit_hook(tracer: Tracer):
    """Count the blocks in every message the process pool is sent."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.sim.backends import execute_batch

    parent = os.getpid()

    def make(original):
        def submit(self, fn, *args, **kwargs):
            if fn is execute_batch and os.getpid() == parent:
                tracer.note("backends.message", len(args[0]))
            return original(self, fn, *args, **kwargs)

        return submit

    return (ProcessPoolExecutor, "submit", make)


def urlopen_hook(tracer: Tracer):
    """Count every HTTP attempt ``submit_study`` makes (retries included)."""
    from repro.service import client

    def make(original):
        def urlopen(*args, **kwargs):
            tracer.note("client.attempts", 1)
            return original(*args, **kwargs)

        return urlopen

    return (client, "urlopen", make)
