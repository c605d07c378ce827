"""Fault injection against the distributed backend.

Correctness for a distributed transport *is* its failure behaviour, so
every scenario here ends the same way: whatever was killed, dropped or
never started, the merged :class:`~repro.sim.montecarlo.CellEstimate`\\ s
must be bit-identical to the :class:`~repro.sim.backends.SerialBackend`
pass over the same mixed (exact + fast kernel) grid, with exact rep
counts (nothing lost, nothing double-merged).  Every job samples, so a
block merged twice, out of order or from the wrong recompute would
change the answer.

Deterministic injection uses the worker's ``max_tasks`` crash hook
(complete N blocks, then drop the connection — mid-batch if the cap
lands there); one scenario also SIGKILLs a live worker mid-run, where
*any* interleaving must still converge to the identical answer.

The merge-idempotence property test pins the contract clause that
makes all of this sound: a recomputed block is byte-equal to the
original, so at-least-once delivery plus resolve-once collection
cannot change the moments.
"""

import os
import random
import shutil
import signal
import socket
import subprocess
import threading
import time
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.checkpoints import CostModel
from repro.core.schemes import KFaultTolerantPolicy, PoissonArrivalPolicy
from repro.errors import ConfigurationError
from repro.sim.backends import (
    CellJob,
    DistributedBackend,
    SerialBackend,
    execute_block,
    plan_blocks,
)
from repro.sim.distributed import (
    Coordinator,
    LocalCluster,
    TLSConfig,
    serve_worker,
    _authenticate_as_worker,
    _recv_msg,
    _send_msg,
)
from repro.sim.montecarlo import CellAccumulator
from repro.sim.parallel import BatchRunner
from repro.sim.task import TaskSpec

CHUNK = 8


def _task() -> TaskSpec:
    return TaskSpec(
        cycles=7600.0,
        deadline=10_000.0,
        fault_budget=5,
        fault_rate=1.4e-3,
        costs=CostModel.scp_favourable(),
    )


def _grid_jobs():
    """The mixed grid every scenario replays (fresh instances)."""
    task = _task()
    return [
        CellJob(
            task=task,
            policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=120,
            seed=4,
            kernel="fast",
        ),
        CellJob(
            task=task,
            policy_factory=partial(PoissonArrivalPolicy, 1.0),
            reps=60,
            seed=4,
        ),
        CellJob(
            task=task,
            policy_factory=partial(KFaultTolerantPolicy, 1.0),
            reps=80,
            seed=9,
            kernel="fast",
        ),
    ]


@pytest.fixture(scope="module")
def serial_reference():
    return BatchRunner(chunk_size=CHUNK).run_cells(_grid_jobs())


def _assert_identical_to_serial(estimates, serial_reference):
    jobs = _grid_jobs()
    assert [cell.reps for cell in estimates] == [job.reps for job in jobs]
    assert all(
        ours.same_values(ref)
        for ours, ref in zip(estimates, serial_reference)
    )


def _run_distributed(backend: DistributedBackend):
    runner = BatchRunner(backend=backend, chunk_size=CHUNK)
    try:
        return runner.run_cells(_grid_jobs())
    finally:
        runner.close()


def _fake_worker(url, replies):
    """Serve one connection over the real wire protocol (TCP, HMAC
    handshake, pickle frames), answering each block with the frames
    ``replies(epoch, index, accumulator)`` returns."""
    from repro.sim.distributed import parse_url

    host, port = parse_url(url)
    with socket.create_connection((host, port), timeout=30.0) as sock:
        sock.settimeout(30.0)
        _authenticate_as_worker(sock, b"")
        _send_msg(sock, ("hello", os.getpid()))
        try:
            while True:
                message = _recv_msg(sock)
                kind = message[0]
                if kind == "shutdown":
                    return
                if kind == "ping":
                    _send_msg(sock, ("pong",))
                    continue
                if kind != "tasks":
                    continue
                _, epoch, batch = message
                for index, block_task in batch:
                    accumulator = execute_block(block_task)
                    for frame in replies(epoch, index, accumulator):
                        _send_msg(sock, frame)
        except (ConnectionError, OSError):
            return


def _merge_through(coordinator, tasks):
    """Run block tasks on an existing coordinator, merged in block
    order (the same fold BatchRunner.run_cells performs)."""
    results = coordinator.run_tasks(tasks)
    merged = {}
    for block_task, shard in zip(tasks, results):
        if block_task.job_index in merged:
            merged[block_task.job_index].merge(shard)
        else:
            merged[block_task.job_index] = shard
    return [merged[index].finalize() for index in range(len(merged))]


class TestWorkerFailures:
    def test_worker_killed_mid_grid(self, serial_reference):
        """One of two workers crashes after three blocks; its in-flight
        tasks requeue to the survivor and the answer is unchanged."""
        backend = DistributedBackend(
            cluster=LocalCluster(2, max_tasks=(3, None))
        )
        estimates = _run_distributed(backend)
        _assert_identical_to_serial(estimates, serial_reference)

    def test_connection_drop_after_partial_results(self, serial_reference):
        """A worker streams part of a batch, then drops the link.

        ``batch_size=4`` with ``max_tasks=2`` guarantees the crash
        lands mid-batch: two accumulators made it back, two did not.
        The delivered ones must be kept (not recomputed *and* merged
        twice), the undelivered ones must be re-run — byte-equality
        with serial proves both at once.
        """
        backend = DistributedBackend(
            cluster=LocalCluster(1, max_tasks=2), batch_size=4
        )
        estimates = _run_distributed(backend)
        _assert_identical_to_serial(estimates, serial_reference)

    def test_all_workers_die(self, serial_reference):
        """Every worker crashes almost immediately; the coordinator
        finishes the grid in-process rather than failing."""
        backend = DistributedBackend(cluster=LocalCluster(2, max_tasks=1))
        estimates = _run_distributed(backend)
        _assert_identical_to_serial(estimates, serial_reference)

    def test_zero_workers_from_the_start(self, serial_reference):
        """No cluster, nobody ever connects: the backend must still
        succeed anywhere SerialBackend would (pure local fallback)."""
        backend = DistributedBackend()
        estimates = _run_distributed(backend)
        _assert_identical_to_serial(estimates, serial_reference)

    def test_crashed_worker_respawns_and_grid_is_identical(
        self, serial_reference
    ):
        """Auto-respawn: the cluster's only worker is SIGKILLed, the
        monitor replaces it, the replacement connects to the same
        coordinator, and a grid run afterwards is bit-identical to
        serial (respawn is pure availability — seeding and merge order
        never see it)."""
        from repro.sim.distributed import Coordinator

        coordinator = Coordinator()
        cluster = LocalCluster(1, max_respawns=4, respawn_poll=0.05)
        try:
            cluster.start(coordinator.url)
            assert coordinator.wait_for_workers(1, timeout=30.0) == 1
            cluster.kill_worker(0)
            deadline = time.monotonic() + 30.0
            while cluster.respawns < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert cluster.respawns >= 1, "the dead worker was never replaced"
            deadline = time.monotonic() + 30.0
            while cluster.alive() < 1 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert cluster.alive() == 1, "the replacement did not come up"
            estimates = _merge_through(
                coordinator, plan_blocks(_grid_jobs(), CHUNK)
            )
            _assert_identical_to_serial(estimates, serial_reference)
        finally:
            cluster.close()
            coordinator.close()

    def test_respawn_budget_is_bounded(self):
        """A crash-looping worker stops being replaced once the
        cluster-wide budget is spent."""
        from repro.sim.distributed import Coordinator

        coordinator = Coordinator()
        cluster = LocalCluster(1, max_respawns=2, respawn_poll=0.05)
        try:
            cluster.start(coordinator.url)
            assert coordinator.wait_for_workers(1, timeout=30.0) == 1
            for expected in (1, 2):
                cluster.kill_worker(0)
                deadline = time.monotonic() + 30.0
                while (cluster.respawns < expected
                       and time.monotonic() < deadline):
                    time.sleep(0.05)
                assert cluster.respawns == expected
            cluster.kill_worker(0)  # budget exhausted: stays dead
            time.sleep(0.5)
            assert cluster.respawns == 2
            assert cluster.alive() == 0
        finally:
            cluster.close()
            coordinator.close()

    def test_clean_exits_do_not_burn_respawn_budget(self):
        """Exit-0 workers (idle timeout, the max_tasks crash hook) are
        normal lifecycle, not crashes: the monitor leaves them down
        and keeps the budget for genuine failures."""
        from repro.sim.distributed import Coordinator

        coordinator = Coordinator()
        cluster = LocalCluster(
            1, max_tasks=1, max_respawns=4, respawn_poll=0.05
        )
        try:
            cluster.start(coordinator.url)
            assert coordinator.wait_for_workers(1, timeout=30.0) == 1
            estimates = _merge_through(
                coordinator, plan_blocks(_grid_jobs(), CHUNK)
            )
            assert [cell.reps for cell in estimates] == [
                job.reps for job in _grid_jobs()
            ]
            # The worker completed one block and exited cleanly; give
            # the monitor time to (wrongly) react, then check it kept
            # its hands off.
            deadline = time.monotonic() + 10.0
            while cluster.alive() and time.monotonic() < deadline:
                time.sleep(0.05)
            time.sleep(0.5)
            assert cluster.respawns == 0
        finally:
            cluster.close()
            coordinator.close()

    def test_respawn_off_by_default(self):
        cluster = LocalCluster(2)
        assert cluster.max_respawns == 0 and cluster.respawns == 0

    def test_sigkill_mid_run(self, serial_reference):
        """A live worker is SIGKILLed while the grid is in flight.

        Unlike the ``max_tasks`` scenarios the kill point is not
        deterministic — which is the point: *every* interleaving
        (killed before, during or after its batches) must converge to
        the identical estimates.
        """
        cluster = LocalCluster(2)
        backend = DistributedBackend(cluster=cluster)
        runner = BatchRunner(backend=backend, chunk_size=CHUNK)
        outcome = {}

        def run():
            outcome["estimates"] = runner.run_cells(_grid_jobs())

        thread = threading.Thread(target=run)
        thread.start()
        try:
            time.sleep(1.0)  # let workers connect and claim work
            cluster.kill_worker(0)
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "batch never completed after kill"
        finally:
            runner.close()
        _assert_identical_to_serial(outcome["estimates"], serial_reference)


class TestMergeIdempotence:
    """Property: coordinator-side recompute cannot change the moments.

    Randomized (cells × blocks) plans where each block is recomputed
    0–2 extra times — the accumulator actually merged is the *last*
    recompute, exactly what a requeued-and-retried block looks like at
    the coordinator.  The merged estimates must be byte-equal to the
    single-execution fold, pinning the "idempotent recompute" clause
    of the DistributedBackend contract.
    """

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_recomputed_blocks_merge_identically(self, seed):
        rng = random.Random(seed)
        task = _task()
        jobs = []
        for index in range(rng.randint(2, 4)):
            reps = rng.randint(15, 60)
            job_seed = rng.randint(0, 10_000)
            policy = rng.choice([PoissonArrivalPolicy, KFaultTolerantPolicy])
            jobs.append(
                CellJob(
                    task=task,
                    policy_factory=partial(policy, 1.0),
                    reps=reps,
                    seed=job_seed,
                    kernel=rng.choice(["exact", "fast"]),
                )
            )
        chunk = rng.choice([8, 16, 32])
        tasks = plan_blocks(jobs, chunk)
        baseline = BatchRunner(chunk_size=chunk).run_cells(jobs)

        merged = {}
        for block_task in tasks:
            accumulator = execute_block(block_task)
            for _ in range(rng.randint(0, 2)):
                accumulator = execute_block(block_task)  # retried delivery
            if block_task.job_index in merged:
                merged[block_task.job_index].merge(accumulator)
            else:
                merged[block_task.job_index] = accumulator
        replayed = [merged[index].finalize() for index in range(len(jobs))]
        assert all(
            ours.same_values(ref) for ours, ref in zip(replayed, baseline)
        )

    def test_duplicate_result_is_dropped_not_merged_twice(self):
        """Resolve-once at the accumulator level: merging a block's
        duplicate would inflate the rep count — the coordinator instead
        drops it, which the conformance rep checks also pin.  Here the
        unit-level statement: two executions of one BlockTask are
        byte-equal, so dropping either is sound."""
        tasks = plan_blocks(_grid_jobs(), CHUNK)
        chosen = tasks[len(tasks) // 2]
        first = execute_block(chosen)
        second = execute_block(chosen)
        assert isinstance(first, CellAccumulator)
        assert repr(first.finalize()) == repr(second.finalize())

    def test_local_fallback_matches_worker_execution(self):
        """The no-workers path runs the very same execute_block the
        workers run — byte-equal accumulators per task."""
        tasks = plan_blocks(_grid_jobs(), CHUNK)
        local = SerialBackend().run_tasks(tasks)
        backend = DistributedBackend()
        try:
            fallback = backend.run_tasks(tasks)
        finally:
            backend.close()
        assert [repr(a.finalize()) for a in fallback] == [
            repr(a.finalize()) for a in local
        ]


# ---------------------------------------------------------------------------
# transport security: TLS under the HMAC handshake


def _make_self_signed(directory, name):
    """One self-signed cert+key pair via the openssl CLI."""
    cert = str(directory / f"{name}-cert.pem")
    key = str(directory / f"{name}-key.pem")
    subprocess.run(
        [
            "openssl", "req", "-x509", "-newkey", "rsa:2048",
            "-keyout", key, "-out", cert, "-days", "2", "-nodes",
            "-subj", f"/CN=repro-test-{name}",
        ],
        check=True,
        capture_output=True,
    )
    return cert, key


@pytest.fixture(scope="module")
def tls_material(tmp_path_factory):
    """(cert, key) for the cluster plus an unrelated decoy cert."""
    if shutil.which("openssl") is None:
        pytest.skip("openssl CLI not available to mint test certificates")
    directory = tmp_path_factory.mktemp("tls")
    cert, key = _make_self_signed(directory, "cluster")
    decoy_cert, _decoy_key = _make_self_signed(directory, "decoy")
    return cert, key, decoy_cert


class TestTLS:
    def test_tls_cluster_grid_is_identical_to_serial(
        self, tls_material, serial_reference
    ):
        """Full stack over TLS — LocalCluster workers verify the
        coordinator against its own self-signed cert — and the merged
        estimates are byte-equal to serial (encryption is pure
        transport, invisible to seeding and merge order)."""
        cert, key, _ = tls_material
        config = TLSConfig(cert=cert, key=key)
        backend = DistributedBackend(
            cluster=LocalCluster(2, tls=config), tls=config
        )
        estimates = _run_distributed(backend)
        _assert_identical_to_serial(estimates, serial_reference)

    def test_worker_rejects_coordinator_with_untrusted_cert(
        self, tls_material
    ):
        """A worker whose CA anchor does not sign the coordinator's
        certificate refuses the connection — cleanly, as a
        ConfigurationError, before any handshake bytes are trusted."""
        cert, key, decoy_cert = tls_material
        with Coordinator(tls=TLSConfig(cert=cert, key=key)) as coordinator:
            with pytest.raises(ConfigurationError, match="TLS handshake"):
                serve_worker(
                    coordinator.url,
                    tls=TLSConfig(ca=decoy_cert),
                    secret=b"",
                    connect_timeout=10.0,
                )

    def test_plaintext_worker_against_tls_coordinator_fails_fast(
        self, tls_material
    ):
        """A plaintext worker dialing a TLS coordinator deadlocks at the
        protocol level (both sides wait for the other's first byte);
        the worker's bounded handshake phase turns that into a prompt
        ConnectionError instead of an idle_timeout hang."""
        cert, key, _ = tls_material
        with Coordinator(tls=TLSConfig(cert=cert, key=key)) as coordinator:
            started = time.monotonic()
            with pytest.raises(
                ConnectionError, match="did not complete the handshake"
            ):
                serve_worker(
                    coordinator.url, secret=b"", connect_timeout=1.0
                )
            assert time.monotonic() - started < 10.0

    def test_tls_worker_against_plaintext_coordinator_fails_cleanly(
        self, tls_material
    ):
        """The reverse mismatch: the plaintext coordinator answers the
        ClientHello with its HMAC nonce, which is not a TLS record —
        the worker must surface a ConfigurationError, not garbage."""
        cert, _, _ = tls_material
        with Coordinator() as coordinator:
            with pytest.raises(ConfigurationError, match="TLS handshake"):
                serve_worker(
                    coordinator.url,
                    tls=TLSConfig(ca=cert),
                    secret=b"",
                    connect_timeout=5.0,
                )

    def test_tls_config_validation(self, tls_material, tmp_path):
        cert, key, _ = tls_material
        with pytest.raises(ConfigurationError, match="together"):
            TLSConfig(cert=cert)  # cert without key
        with pytest.raises(ConfigurationError, match="at least one"):
            TLSConfig()
        with pytest.raises(ConfigurationError, match="not found"):
            TLSConfig(ca=str(tmp_path / "missing.pem"))
        with pytest.raises(ConfigurationError, match="certificate and key"):
            TLSConfig(ca=cert).server_context()  # serving needs a cert
        # The happy paths build real ssl contexts.
        assert TLSConfig(cert=cert, key=key).server_context() is not None
        assert TLSConfig(ca=cert).client_context() is not None


# ---------------------------------------------------------------------------
# stragglers: detection, speculation, resolve-once


class TestStragglers:
    def test_sigstop_mid_batch_completes_via_speculation(
        self, serial_reference
    ):
        """The hole keepalive cannot see: a SIGSTOPped worker's kernel
        still ACKs probes while its claimed blocks sit frozen forever.
        The straggler scan must flag them, speculate duplicates, and
        finish the grid byte-identical to serial."""
        coordinator = Coordinator(straggler_grace=1.0, straggler_factor=4.0)
        # Worker 0 sleeps 5 s per block so it is guaranteed mid-block
        # (tasks claimed, none returned) when the SIGSTOP lands.
        cluster = LocalCluster(2, delay=(5.0, None))
        stopped = None
        try:
            cluster.start(coordinator.url)
            assert coordinator.wait_for_workers(2, timeout=30.0) == 2
            outcome = {}

            def run():
                outcome["estimates"] = _merge_through(
                    coordinator, plan_blocks(_grid_jobs(), CHUNK)
                )

            thread = threading.Thread(target=run)
            thread.start()
            time.sleep(0.5)  # both workers have claimed their batches
            stopped = cluster.processes[0].pid
            os.kill(stopped, signal.SIGSTOP)
            thread.join(timeout=120.0)
            assert not thread.is_alive(), "grid never completed after SIGSTOP"
            assert coordinator.speculations >= 1
            _assert_identical_to_serial(
                outcome["estimates"], serial_reference
            )
        finally:
            if stopped is not None:
                # A stopped process never sees SIGTERM; kill it outright
                # so cluster.close() does not burn its terminate grace.
                try:
                    os.kill(stopped, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            cluster.close()
            coordinator.close()

    def test_slow_loris_worker_is_speculated_around(self, serial_reference):
        """A worker whose link is perfectly healthy but whose compute
        barely moves (the delay hook) must not gate the batch: after
        the grace its blocks are speculated and the grid finishes at
        local speed."""
        coordinator = Coordinator(straggler_grace=0.5)
        cluster = LocalCluster(1, delay=30.0)
        try:
            cluster.start(coordinator.url)
            assert coordinator.wait_for_workers(1, timeout=30.0) == 1
            started = time.monotonic()
            estimates = _merge_through(
                coordinator, plan_blocks(_grid_jobs(), CHUNK)
            )
            elapsed = time.monotonic() - started
            assert coordinator.speculations >= 1
            assert elapsed < 25.0  # nowhere near the 30 s/block worker
            _assert_identical_to_serial(estimates, serial_reference)
        finally:
            cluster.close()
            coordinator.close()

    def test_speculation_disabled_runs_like_the_legacy_coordinator(
        self, serial_reference
    ):
        """straggler_factor=0 at the backend maps to None at the
        coordinator: no scans, no speculations, results unchanged."""
        backend = DistributedBackend(
            cluster=LocalCluster(1), straggler_factor=0
        )
        runner = BatchRunner(backend=backend, chunk_size=CHUNK)
        try:
            estimates = runner.run_cells(_grid_jobs())
            coordinator = backend._coordinator
            assert coordinator is not None
            assert coordinator.straggler_factor is None
            assert coordinator.speculations == 0
        finally:
            runner.close()
        _assert_identical_to_serial(estimates, serial_reference)

    def test_wait_for_workers_default_is_configurable(self):
        """How long the backend waits for workers is the coordinator's
        wait_timeout."""
        with Coordinator(wait_timeout=0.3) as coordinator:
            started = time.monotonic()
            assert coordinator.wait_for_workers(1) == 0  # nobody connects
            elapsed = time.monotonic() - started
            assert 0.2 <= elapsed < 5.0


class TestSpeculativeDuplicates:
    """Property: resolve-once collection absorbs any duplication.

    A fake worker speaks the real wire protocol (TCP, HMAC handshake,
    pickle frames) and delivers every block's result 1 + k times, k
    drawn per block — exactly what a speculated task whose original
    copy also finishes looks like.  Whatever the duplication pattern,
    each cell resolves exactly once and the merged estimates are
    byte-identical to serial.
    """

    JOBS_SEED = 11

    @staticmethod
    def _property_jobs():
        task = _task()
        return [
            CellJob(
                task=task,
                policy_factory=partial(PoissonArrivalPolicy, 1.0),
                reps=24,
                seed=11,
                kernel="fast",
            ),
            CellJob(
                task=task,
                policy_factory=partial(KFaultTolerantPolicy, 1.0),
                reps=24,
                seed=12,
                kernel="fast",
            ),
        ]

    @classmethod
    def _serial_baseline(cls):
        if not hasattr(cls, "_baseline"):
            cls._baseline = BatchRunner(chunk_size=CHUNK).run_cells(
                cls._property_jobs()
            )
        return cls._baseline

    @settings(max_examples=8, deadline=None)
    @given(dups=st.lists(st.integers(0, 2), min_size=6, max_size=6))
    def test_duplicate_deliveries_resolve_once_bit_identical(self, dups):
        jobs = self._property_jobs()
        tasks = plan_blocks(jobs, CHUNK)
        assert len(tasks) == 6  # the strategy's min/max_size pin this
        copies_per_index = {index: k for index, k in enumerate(dups)}
        coordinator = Coordinator(secret=b"", straggler_factor=None)

        def replies(epoch, index, accumulator):
            copies = 1 + copies_per_index.get(index, 0)
            return [("result", epoch, index, accumulator, 0.001)] * copies

        worker = threading.Thread(
            target=_fake_worker,
            args=(coordinator.url, replies),
            daemon=True,
        )
        try:
            worker.start()
            assert coordinator.wait_for_workers(1, timeout=30.0) == 1
            estimates = _merge_through(coordinator, tasks)
        finally:
            coordinator.close()
            worker.join(timeout=10.0)
        baseline = self._serial_baseline()
        assert [cell.reps for cell in estimates] == [
            job.reps for job in jobs
        ]
        assert all(
            ours.same_values(ref)
            for ours, ref in zip(estimates, baseline)
        )


class TestMalformedReplies:
    def test_four_field_result_frame_drops_the_link(self, serial_reference):
        """A worker whose ``result`` frames lack the compute-seconds
        field is a broken link: the coordinator drops it and requeues
        its tasks, and the grid still merges bit-identically to serial."""
        coordinator = Coordinator(secret=b"", straggler_factor=None)
        worker = threading.Thread(
            target=_fake_worker,
            args=(
                coordinator.url,
                lambda epoch, index, accumulator: [
                    ("result", epoch, index, accumulator)
                ],
            ),
            daemon=True,
        )
        try:
            worker.start()
            assert coordinator.wait_for_workers(1, timeout=30.0) == 1
            estimates = _merge_through(
                coordinator, plan_blocks(_grid_jobs(), CHUNK)
            )
            assert coordinator.workers == 0
        finally:
            coordinator.close()
            worker.join(timeout=10.0)
        assert not worker.is_alive()
        _assert_identical_to_serial(estimates, serial_reference)
