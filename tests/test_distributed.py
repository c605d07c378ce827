"""Unit tests for the socket transport plumbing itself.

The conformance and fault-injection suites prove end-to-end behaviour;
this module pins the smaller moving parts — URL parsing, framing,
worker lifecycle (idle timeout, bad addresses), coordinator lifecycle
(wait timeout, closed-state errors) and cluster validation.
"""

import socket
import struct
import threading

import pytest

from repro.errors import ParameterError, SimulationError
from repro.sim.backends import DistributedBackend
from repro.sim.distributed import (
    DEFAULT_PORT,
    Coordinator,
    LocalCluster,
    _recv_msg,
    _send_msg,
    parse_url,
    serve_worker,
)


class TestParseUrl:
    def test_full_tcp_url(self):
        assert parse_url("tcp://10.0.0.5:8642") == ("10.0.0.5", 8642)

    def test_bare_host_port(self):
        assert parse_url("localhost:17") == ("localhost", 17)

    def test_port_defaults(self):
        assert parse_url("tcp://somehost") == ("somehost", DEFAULT_PORT)

    def test_port_zero_allowed_for_bind(self):
        assert parse_url("tcp://127.0.0.1:0") == ("127.0.0.1", 0)

    @pytest.mark.parametrize(
        "bad", ["http://h:1", "tcp://:4", "tcp://h:notaport", "tcp://h:70000"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ParameterError):
            parse_url(bad)


class TestFraming:
    def test_roundtrip_over_socketpair(self):
        left, right = socket.socketpair()
        try:
            message = ("result", 3, 7, {"payload": list(range(50))})
            _send_msg(left, message)
            assert _recv_msg(right) == message
        finally:
            left.close()
            right.close()

    def test_eof_raises_connection_error(self):
        left, right = socket.socketpair()
        left.close()
        try:
            with pytest.raises(ConnectionError):
                _recv_msg(right)
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall(struct.pack(">Q", 1 << 40))
            with pytest.raises(ConnectionError, match="protocol limit"):
                _recv_msg(right)
        finally:
            left.close()
            right.close()


class TestWorkerLoop:
    def test_idle_timeout_exits_cleanly(self):
        """A worker nobody talks to gives up after idle_timeout."""
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        listener.listen()
        host, port = listener.getsockname()
        hello = {}

        def silent_coordinator():
            from repro.sim.distributed import _authenticate_as_server

            conn, _ = listener.accept()
            assert _authenticate_as_server(conn, b"")
            hello["msg"] = _recv_msg(conn)
            # ... and then say nothing at all.
            threading.Event().wait(2.0)
            conn.close()

        server = threading.Thread(target=silent_coordinator, daemon=True)
        server.start()
        try:
            code = serve_worker(
                f"tcp://127.0.0.1:{port}", idle_timeout=0.3
            )
            assert code == 0
            assert hello["msg"][0] == "hello"
        finally:
            listener.close()

    def test_rejects_port_zero(self):
        with pytest.raises(ParameterError):
            serve_worker("tcp://127.0.0.1:0")

    def test_unreachable_coordinator_raises_oserror(self):
        listener = socket.socket()
        listener.bind(("127.0.0.1", 0))
        port = listener.getsockname()[1]
        listener.close()  # nothing listens here any more
        with pytest.raises(OSError):
            serve_worker(f"tcp://127.0.0.1:{port}", connect_timeout=0.5)


class TestCoordinatorLifecycle:
    def test_reports_resolved_url(self):
        with Coordinator("tcp://127.0.0.1:0") as coordinator:
            assert coordinator.url.startswith("tcp://127.0.0.1:")
            assert coordinator.port != 0
            assert coordinator.workers == 0

    def test_wait_for_workers_times_out_to_zero(self):
        with Coordinator("tcp://127.0.0.1:0") as coordinator:
            assert coordinator.wait_for_workers(1, timeout=0.2) == 0

    def test_empty_batch_needs_no_workers(self):
        with Coordinator("tcp://127.0.0.1:0") as coordinator:
            assert coordinator.run_tasks([]) == []

    def test_run_after_close_raises(self):
        coordinator = Coordinator("tcp://127.0.0.1:0")
        coordinator.close()
        coordinator.close()  # idempotent
        with pytest.raises(SimulationError, match="closed"):
            coordinator.run_tasks([object()])

    def test_validates_parameters(self):
        with pytest.raises(ParameterError):
            Coordinator("tcp://127.0.0.1:0", batch_size=0)
        with pytest.raises(ParameterError):
            Coordinator("tcp://127.0.0.1:0", max_retries=0)

    @pytest.mark.parametrize(
        "knob", ["wait_timeout", "straggler_factor", "straggler_grace"]
    )
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0.0])
    def test_rejects_non_finite_timing_knobs(self, knob, bad):
        # A NaN speculation threshold re-dispatches every task in
        # flight; a NaN or inf wait spins or overflows the clock.
        with pytest.raises(ParameterError, match=knob):
            Coordinator("tcp://127.0.0.1:0", **{knob: bad})


class TestLocalCluster:
    def test_validates_worker_count(self):
        with pytest.raises(ParameterError):
            LocalCluster(-1)

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_rejects_non_integer_worker_count(self, bad):
        with pytest.raises(ParameterError, match="integer"):
            LocalCluster(bad)

    def test_validates_max_tasks_length(self):
        with pytest.raises(ParameterError):
            LocalCluster(2, max_tasks=(1,))

    def test_scalar_max_tasks_broadcasts(self):
        cluster = LocalCluster(3, max_tasks=5)
        assert cluster.max_tasks == [5, 5, 5]

    def test_close_before_start_is_fine(self):
        cluster = LocalCluster(2)
        cluster.close()
        cluster.close()
        assert cluster.alive() == 0


class TestAuthentication:
    """Nothing gets unpickled from a peer that fails the handshake."""

    def test_worker_with_wrong_secret_is_rejected(self):
        with Coordinator("tcp://127.0.0.1:0", secret=b"right") as coordinator:
            with pytest.raises(ConnectionError):
                serve_worker(
                    coordinator.url, secret=b"wrong", idle_timeout=2.0
                )
            assert coordinator.workers == 0

    def test_matched_secret_connects(self):
        with Coordinator("tcp://127.0.0.1:0", secret=b"s3cret") as coordinator:
            done = {}

            def worker():
                done["code"] = serve_worker(
                    coordinator.url, secret=b"s3cret", idle_timeout=30.0
                )

            thread = threading.Thread(target=worker, daemon=True)
            thread.start()
            assert coordinator.wait_for_workers(1, timeout=10.0) == 1
        thread.join(timeout=10.0)  # close() releases the worker
        assert done.get("code") == 0

    def test_non_loopback_bind_requires_secret(self):
        with pytest.raises(ParameterError, match="secret"):
            Coordinator("tcp://0.0.0.0:0")

    def test_non_loopback_bind_with_secret_allowed(self):
        with Coordinator("tcp://0.0.0.0:0", secret=b"k") as coordinator:
            assert coordinator.port != 0

    def test_env_var_is_the_default_secret(self, monkeypatch):
        from repro.sim.distributed import SECRET_ENV, _default_secret

        monkeypatch.setenv(SECRET_ENV, "from-env")
        assert _default_secret() == b"from-env"
        coordinator = Coordinator("tcp://0.0.0.0:0")  # env secret suffices
        coordinator.close()


class TestClusterSpawnFailure:
    def test_no_worker_ever_connecting_fails_loudly(self):
        """A cluster whose workers cannot even start must raise, not
        silently compute the whole grid in-process (that would let a
        worker-entry-point regression masquerade as a passing run)."""
        from functools import partial

        from repro.core.checkpoints import CostModel
        from repro.core.schemes import PoissonArrivalPolicy
        from repro.sim.backends import CellJob, plan_blocks
        from repro.sim.task import TaskSpec

        task = TaskSpec(
            cycles=7600.0,
            deadline=10_000.0,
            fault_budget=5,
            fault_rate=1.4e-3,
            costs=CostModel.scp_favourable(),
        )
        jobs = [
            CellJob(
                task=task,
                policy_factory=partial(PoissonArrivalPolicy, 1.0),
                reps=40,
                seed=1,
                kernel="fast",
            )
        ]
        backend = DistributedBackend(
            cluster=LocalCluster(2, python="/bin/false"),
            connect_timeout=1.0,
        )
        try:
            with pytest.raises(SimulationError, match="connected"):
                backend.run_tasks(plan_blocks(jobs, 32))
        finally:
            backend.close()
