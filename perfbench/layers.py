"""Per-layer probes: each layer's public calls, timed on fixed inputs.

A traced run measures two kinds of per-layer figures.  Traffic figures
come from the workload's own traced pass (see ``Workload.traffic``);
they read 0 where the workload never calls that layer from the benchmark's
own process.
Probe figures, made here, call one layer directly on inputs derived
from the run's seed, so they read the same way on every workload and
move only when that layer's code does.

Every figure is a median or a mean over several calls; ``rationale.json``
names, per figure, the module it times and the end-to-end figure it
should move.
"""

from __future__ import annotations

import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from typing import Callable, Dict, List

from harness import Tracer
from workloads import batch_wall

#: Schemes of the paper's tables; A_D_S heads tables 1–2 and A_D_C 3–4.
SCHEMES = ("Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C")
#: Reps in one probe block.
PROBE_REPS = 64


def median_seconds(call: Callable[[], object], rounds: int) -> float:
    samples = []
    for _ in range(rounds):
        started = time.perf_counter()
        call()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


# -- cli + imports ---------------------------------------------------------

_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)")


def import_profile(stderr: str) -> Dict[str, float]:
    """Import times in ms from ``-X importtime`` output.

    A package's figure is the cumulative time of its outermost imports,
    so it includes what those imports pull in first (numpy under scipy,
    for instance); ``cli.import_ms`` is the cumulative time of every
    top-level import.
    """
    entries = []  # (package, cumulative us, parent index)
    parents: Dict[int, int] = {}
    waiting: Dict[int, List[int]] = {}
    for line in stderr.splitlines():
        match = _IMPORT_LINE.match(line)
        if not match:
            continue
        depth = (len(match.group(3)) - 1) // 2
        index = len(entries)
        entries.append((match.group(4).split(".")[0], int(match.group(2)), depth))
        # Children are printed before their parent, one level deeper.
        for child in waiting.pop(depth + 1, []):
            parents[child] = index
        waiting.setdefault(depth, []).append(index)

    def outermost(index: int) -> bool:
        package = entries[index][0]
        while index in parents:
            index = parents[index]
            if entries[index][0] == package:
                return False
        return True

    def package_ms(package: str) -> float:
        return sum(
            cumulative for index, (name, cumulative, _depth) in enumerate(entries)
            if name == package and outermost(index)
        ) / 1e3

    return {
        "cli.import_ms": sum(c for _n, c, depth in entries if depth == 0) / 1e3,
        "cli.import_scipy_ms": package_ms("scipy"),
        "cli.import_numpy_ms": package_ms("numpy"),
        "cli.import_repro_ms": package_ms("repro"),
        "cli.modules": len(entries),
    }


def probe_cli(root: str, env: Dict[str, str]) -> Dict[str, float]:
    def run(argv: List[str]) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, *argv], cwd=root, env=env, capture_output=True,
            text=True, timeout=120, check=True,
        )

    figures = {
        "cli.python_ms": median_seconds(lambda: run(["-c", "pass"]), 5) * 1e3
    }
    profiles = [
        import_profile(run(["-X", "importtime", "-m", "repro", "list"]).stderr)
        for _ in range(3)
    ]
    for name in profiles[0]:
        figures[name] = statistics.median(profile[name] for profile in profiles)
    return figures


# -- service, scheduler, cache, plans, results ----------------------------


def probe_service(rng: random.Random, workdir: str) -> Dict[str, float]:
    from repro.api import ResultSet, StudySpec
    from repro.api.plans import cell_identity
    from repro.api.results import json_dumps_exact
    from repro.service import submit_study
    from repro.service.cache import CellCache
    from repro.service.server import StudyService, make_server

    seed = rng.randrange(1, 2**31)
    table = {"kind": "table", "table": "1a", "reps": PROBE_REPS, "seed": seed,
             "kernel": "fast"}
    u, lam = StudySpec(kind="table", table="1a").resolve_table().rows[0]
    row = {"kind": "row", "table": "1a", "u": u, "lam": lam, "reps": PROBE_REPS,
           "seed": seed, "kernel": "fast"}
    figures: Dict[str, float] = {}
    with tempfile.TemporaryDirectory(dir=workdir) as cache_dir:
        with StudyService(cache_dir=cache_dir) as service:
            envelope = service.submit(table)
            service.submit(row)
            waits = []
            for _ in range(5):
                fresh = dict(row, seed=rng.randrange(1, 2**31))
                started = time.perf_counter()
                answer = service.submit(fresh)
                waits.append(time.perf_counter() - started - batch_wall(answer["result"]))
            figures["scheduler.wait_ms"] = statistics.median(waits) * 1e3
            figures["server.submit_hit_ms.table"] = (
                median_seconds(lambda: service.submit(table), 7) * 1e3
            )
            figures["server.submit_hit_ms.row"] = (
                median_seconds(lambda: service.submit(row), 7) * 1e3
            )
            server = make_server(service, "http://127.0.0.1:0")
            thread = threading.Thread(target=server.serve_forever)
            thread.start()
            try:
                host, port = server.server_address[:2]
                url = f"http://{host}:{port}"
                http = median_seconds(lambda: submit_study(url, table), 7) * 1e3
            finally:
                server.shutdown()
                server.server_close()
                thread.join()
        figures["server.http_ms"] = http - figures["server.submit_hit_ms.table"]
        figures["server.response_kb"] = len(json_dumps_exact(envelope) + "\n") / 1024

        spec = StudySpec.from_dict(table)
        figures["plans.cells_ms"] = median_seconds(spec.cells, 7) * 1e3
        jobs = [plan.job for plan in spec.cells()]
        identities = [cell_identity(job, block_size=256) for job in jobs]
        figures["plans.identity_us"] = (
            median_seconds(
                lambda: [cell_identity(job, block_size=256) for job in jobs], 7
            ) / len(jobs) * 1e6
        )
        results = ResultSet.from_dict(envelope["result"])
        text = results.to_json()
        figures["results.to_json_ms"] = median_seconds(results.to_json, 7) * 1e3
        figures["results.from_json_ms"] = (
            median_seconds(lambda: ResultSet.from_json(text), 7) * 1e3
        )

        memory = CellCache(cache_dir)
        disk = CellCache(cache_dir, memory=False)
        memory.get(identities[0])
        figures["cache.get_ms"] = (
            median_seconds(lambda: [memory.get(i) for i in identities], 7)
            / len(identities) * 1e3
        )
        figures["cache.get_disk_ms"] = (
            median_seconds(lambda: [disk.get(i) for i in identities], 7)
            / len(identities) * 1e3
        )
        record = results.records[0]
        fresh = [f"{index:064x}" for index in range(1, 1 + 4 * len(identities))]
        batches = [fresh[i::4] for i in range(4)]
        put = [
            median_seconds(lambda batch=batch: [memory.put(i, record) for i in batch], 1)
            for batch in batches
        ]
        figures["cache.put_ms"] = statistics.median(put) / len(identities) * 1e3
    return figures


def probe_dispatch(rng: random.Random) -> Dict[str, float]:
    """Pool wall minus serial compute per worker, on one small table."""
    from repro.api import Session, Study, StudySpec

    spec = StudySpec(kind="table", table="2b", reps=PROBE_REPS,
                     seed=rng.randrange(1, 2**31))
    with Session() as serial:
        started = time.perf_counter()
        Study(spec).run(serial)
        compute = time.perf_counter() - started
    workers = os.cpu_count() or 1
    with Session(backend="process", workers=workers) as pool:
        started = time.perf_counter()
        Study(spec).run(pool)
        wall = time.perf_counter() - started
    return {"backends.dispatch_overhead_s": wall - compute / workers}


def probe_study(rng: random.Random) -> Dict[str, float]:
    """``Study.run`` wall minus ``Session.run_cells`` wall, serial."""
    from repro.api import Session, Study, StudySpec
    from repro.api import session as session_module

    spec = StudySpec(kind="table", table="1a", reps=PROBE_REPS,
                     seed=rng.randrange(1, 2**31), fast_static=True)
    tracer = Tracer()
    with Session() as session:
        Study(spec).run(session)
        targets = [
            (Study, "run", "Study.run", "api", True),
            (session_module.Session, "run_cells", "Session.run_cells", "api", True),
        ]
        with tracer.wrapped(targets):
            for _ in range(5):
                Study(spec).run(session)
    overhead = tracer.total_seconds("Study.run") - tracer.total_seconds(
        "Session.run_cells"
    )
    return {"study.overhead_ms": overhead / 5 * 1e3}


# -- montecarlo, executor, rng, core, kernel, fastpath --------------------


def _scheme_jobs(rng: random.Random, *tables: str):
    """One exact ``CellJob`` per scheme, from the first row of each table."""
    from repro.api.plans import row_cells
    from repro.experiments.config import table_spec

    seed = rng.randrange(1, 2**31)
    jobs = {}
    for table in tables:
        spec = table_spec(table)
        for plan in row_cells(spec, *spec.rows[0], reps=PROBE_REPS, seed=seed):
            jobs.setdefault(dict(plan.axes)["scheme"], plan.job)
    return jobs


def probe_blocks(rng: random.Random) -> Dict[str, float]:
    import dataclasses

    from repro.core import intervals, optimizer
    from repro.sim import executor, kernel, montecarlo
    from repro.sim.rng import RandomSource

    figures: Dict[str, float] = {}
    jobs = _scheme_jobs(rng, "1a", "3a")
    tracer = Tracer()
    targets = [
        (montecarlo, "accumulate_range", "accumulate_range", "montecarlo", False),
        (executor, "execute_once", "execute_once", "executor", False),
        (optimizer, "num_scp", "num_scp", "core", False),
        (optimizer, "num_ccp", "num_ccp", "core", False),
        (intervals, "checkpoint_interval", "checkpoint_interval", "core", False),
    ]
    with tracer.wrapped(targets):
        for scheme in SCHEMES:
            seconds = median_seconds(
                lambda: jobs[scheme].run_block(0, 0, PROBE_REPS), 3
            )
            figures[f"block.reps_per_s.{scheme}"] = PROBE_REPS / seconds
    runs = tracer.total_seconds("execute_once")
    folds = tracer.total_seconds("accumulate_range")
    figures["executor.us_per_run"] = tracer.mean_us("execute_once")
    figures["montecarlo.fold_share"] = (folds - runs) / folds
    figures["core.num_ccp_us"] = tracer.mean_us("num_ccp")
    figures["core.num_scp_us"] = tracer.mean_us("num_scp")

    source = RandomSource(rng.randrange(1, 2**31))
    figures["rng.substream_us"] = (
        median_seconds(lambda: [source.substream(i) for i in range(500)], 5)
        / 500 * 1e6
    )

    fallbacks = []

    def count_fallbacks(original):
        def kernel_supported(*args, **kwargs):
            supported = original(*args, **kwargs)
            if not supported:
                fallbacks.append(1)
            return supported

        return kernel_supported

    with Tracer().wrapped([], [(kernel, "kernel_supported", count_fallbacks)]):
        for scheme in SCHEMES:
            fast = dataclasses.replace(jobs[scheme], kernel="fast")
            fast.run_block(0, 0, PROBE_REPS)
            warm = median_seconds(lambda: fast.run_block(0, 0, PROBE_REPS), 3)
            figures[f"kernel.reps_per_s.{scheme}"] = PROBE_REPS / warm
        # Table 2a runs the fast kernel nowhere else in this process, so
        # its first block fills a fresh ReplanTable.
        fresh = dataclasses.replace(_scheme_jobs(rng, "2a")["A_D_S"], kernel="fast")
        first = median_seconds(lambda: fresh.run_block(0, 0, PROBE_REPS), 1)
        warm = median_seconds(lambda: fresh.run_block(0, 0, PROBE_REPS), 3)
        figures["kernel.table_fill_ms"] = (first - warm) * 1e3
    figures["kernel.exact_fallback_blocks"] = len(fallbacks)
    return figures


def probe_fastpath(rng: random.Random) -> Dict[str, float]:
    from repro.api.plans import table_cells
    from repro.experiments.config import table_spec

    reps = 1024
    plans = table_cells(table_spec("1a"), reps=reps, seed=rng.randrange(1, 2**31),
                        fast_static=True)
    job = plans[0].job  # Poisson, a static scheme
    seconds = median_seconds(lambda: job.run_block(0, 0, 256), 5)
    return {"fastpath.reps_per_s": 256 / seconds}


# -- workloads.engine, rts, energy ----------------------------------------


def probe_edf(rng: random.Random) -> Dict[str, float]:
    from repro.rts.scheduler import simulate_schedule
    from repro.sim import energy
    from repro.workloads import engine
    from repro.api.plans import taskset_cells

    reps = 48
    job = taskset_cells(
        ["bursty"], [0.7], 1e-4, n_tasks=4, horizon=20_000.0, sched="edf",
        freqs=(1.0, 2.0), reps=reps, seed=rng.randrange(1, 2**31),
    )[0].job
    figures = {"edf.scenario_ms": median_seconds(job.scenario, 5) * 1e3}
    block = median_seconds(lambda: job.run_block(0, 0, reps), 3)
    taskset, config, overrides = job.scenario()
    model = energy.EnergyModel.paper_dmr()
    jobs_seen: List[int] = []

    def per_rep() -> None:
        for index in range(reps):
            result = simulate_schedule(
                taskset,
                horizon=job.horizon,
                policy=job.policy,
                frequency=config.frequency,
                seed=engine._rep_seed(job.seed, index),
                energy_model=model,
                drop_late_jobs=job.drop_late_jobs,
                chunk_overrides=overrides,
            )
            jobs_seen.append(len(result.jobs))

    per = median_seconds(per_rep, 3)
    figures["edf.block_reps_per_s"] = reps / block
    figures["edf.per_rep_reps_per_s"] = reps / per
    figures["edf.block_over_per_rep"] = per / block
    tracer = Tracer()
    jobs_seen.clear()
    with tracer.wrapped(
        [(energy.EnergyModel, "segment_energy", "segment_energy", "energy", False)]
    ):
        per_rep()
    figures["energy.segment_energy_calls_per_rep"] = (
        tracer.total_calls("segment_energy") / reps
    )
    figures["edf.jobs_per_rep"] = sum(jobs_seen) / reps
    return figures


def probes(root: str, env: Dict[str, str], seed: int, workdir: str) -> Dict[str, float]:
    """Every probe figure, from inputs derived from ``seed``; files go to ``workdir``."""
    rng = random.Random(f"probes/{seed}")
    figures: Dict[str, float] = {}
    figures.update(probe_cli(root, env))
    figures.update(probe_service(rng, workdir))
    figures.update(probe_study(rng))
    figures.update(probe_dispatch(rng))
    figures.update(probe_blocks(rng))
    figures.update(probe_fastpath(rng))
    figures.update(probe_edf(rng))
    return figures
