"""Socket transport behind :class:`~repro.sim.backends.DistributedBackend`.

The off-host contract documented on the backend (picklable
:class:`~repro.sim.backends.BlockTask`\\ s in, O(1)
:class:`~repro.sim.montecarlo.CellAccumulator`\\ s out, idempotent
recompute) is narrow enough that the transport can stay small: frames
are an 8-byte big-endian length prefix followed by a pickle, flowing
over plain TCP — or TLS when a :class:`TLSConfig` is given (layered
*under* the mutual-HMAC handshake, so the channel is encrypted and the
peer still proves knowledge of the cluster secret before any pickle is
parsed).  Three pieces ship here:

* :func:`serve_worker` — the worker process's serve loop: connect to a
  coordinator, receive task batches, :func:`~repro.sim.backends.
  execute_block` each and *stream* the accumulators back one by one
  (so a connection lost mid-batch loses only the unsent tail).  Replies
  to heartbeat pings; exits after ``idle_timeout`` seconds of silence.
* :class:`Coordinator` — the dispatch side :meth:`~repro.sim.backends.
  DistributedBackend.run_tasks` delegates to: a task queue, per-worker
  in-flight tracking, requeue-on-disconnect with bounded retries, and
  in-process recompute for whatever cannot (or can no longer) run
  remotely — unpicklable jobs, tasks past their retry budget, and the
  whole remainder when no workers are connected.  It therefore never
  fails where :class:`~repro.sim.backends.SerialBackend` would have
  succeeded, and fails with the genuine exception where serial would
  fail (worker-side errors are reproduced locally, not wrapped).
* :class:`LocalCluster` — spawns N worker subprocesses on loopback for
  tests and the CLI (``--backend distributed --cluster-workers N``).

Failure semantics (pinned by ``tests/test_distributed_faults.py``): a
worker that dies mid-batch has its unfinished tasks requeued to the
survivors; results that already streamed back are kept; a task is
resolved exactly once, so nothing is lost or double-merged; and because
every block re-derives its random streams from the task payload alone,
a recomputed block is bit-identical to the one the dead worker would
have sent — the merged estimates match the serial pass exactly.  The
same resolve-once property powers *straggler speculation*: a task in
flight far past its kind's expected block time (a SIGSTOPped or
slow-loris worker that keepalive cannot see) is speculatively
re-dispatched to an idle worker or the coordinator's own local lane,
and whichever copy lands first wins.

Wire protocol (every frame: ``>Q`` length prefix + pickle of a tuple):

===========================  =========================================
coordinator → worker          ``("tasks", epoch, [(index, BlockTask)…])``,
                              ``("ping",)``, ``("shutdown",)``
worker → coordinator          ``("hello", pid)``,
                              ``("result", epoch, index,
                              CellAccumulator, seconds)`` (the trailing
                              compute-seconds float feeds adaptive
                              claim sizing),
                              ``("error", epoch, index, text)``,
                              ``("pong",)``
===========================  =========================================

A ``result`` or ``error`` frame of any other shape is a broken link:
the coordinator drops the worker and requeues its in-flight tasks.

``epoch`` tags each :meth:`Coordinator.run_tasks` batch so a result
that straggles in after its batch ended (e.g. the batch already failed
over locally) is ignored instead of polluting the next one.
"""

from __future__ import annotations

import hmac
import math
import os
import pickle
import secrets as _secrets
import socket
import ssl
import struct
import subprocess
import sys
import threading
import time
import traceback
import weakref
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Sequence, Set, Tuple, Union

from repro.errors import ConfigurationError, ParameterError, SimulationError
from repro.sim.backends import (
    BlockTask,
    DispatchStats,
    dispatch_kind,
    execute_block,
    partition_shippable,
)
from repro.sim.montecarlo import CellAccumulator

__all__ = [
    "Coordinator",
    "LocalCluster",
    "TLSConfig",
    "serve_worker",
    "parse_url",
    "SECRET_ENV",
    "DEFAULT_PORT",
    "DEFAULT_BATCH_SIZE",
    "DEFAULT_MAX_RETRIES",
    "DEFAULT_HEARTBEAT",
    "DEFAULT_IDLE_TIMEOUT",
    "DEFAULT_WAIT_TIMEOUT",
    "DEFAULT_STRAGGLER_FACTOR",
    "DEFAULT_STRAGGLER_GRACE",
]

#: Default coordinator port when a URL omits one.
DEFAULT_PORT = 8642
#: Tasks handed to a worker per claim; small keeps load-balance tight
#: while amortising a frame per batch.
DEFAULT_BATCH_SIZE = 4
#: Dispatch attempts per task before the coordinator stops trusting
#: workers with it and recomputes in-process.
DEFAULT_MAX_RETRIES = 3
#: Seconds between coordinator pings on an idle worker link.
DEFAULT_HEARTBEAT = 5.0
#: Seconds of silence after which a worker exits its serve loop.
DEFAULT_IDLE_TIMEOUT = 120.0
#: Default :meth:`Coordinator.wait_for_workers` timeout (seconds).
DEFAULT_WAIT_TIMEOUT = 10.0
#: A task in flight longer than ``straggler_factor ×`` its kind's EWMA
#: block latency is speculatively re-dispatched.
DEFAULT_STRAGGLER_FACTOR = 4.0
#: Minimum in-flight seconds before any task counts as straggling —
#: also the absolute threshold while the EWMA has no sample yet (a
#: fleet that is entirely stuck never reports a latency to learn from).
DEFAULT_STRAGGLER_GRACE = 10.0

_HEADER = struct.Struct(">Q")
#: Refuse absurd frames (a corrupt prefix would otherwise try to
#: allocate petabytes).  Task batches and accumulators are kilobytes.
_MAX_FRAME = 256 * 1024 * 1024

#: Environment variable carrying the cluster's shared secret; the
#: coordinator and every worker read it as their default ``secret``.
SECRET_ENV = "REPRO_CLUSTER_SECRET"
_NONCE_BYTES = 32
_DIGEST = "sha256"
_DIGEST_BYTES = 32
_LOOPBACK_HOSTS = frozenset({"127.0.0.1", "localhost"})


def _default_secret() -> bytes:
    return os.environ.get(SECRET_ENV, "").encode()


def _authenticate_as_server(sock: socket.socket, secret: bytes) -> bool:
    """Challenge a connecting worker before parsing any pickle.

    The handshake is raw fixed-length bytes on purpose: frames are
    pickles, and :func:`pickle.loads` on attacker-controlled bytes is
    code execution — so nothing gets unpickled until the peer has
    proven knowledge of the shared secret.  Mutual: the worker checks
    our response digest before it parses our frames, so a rogue
    coordinator cannot feed a worker pickles either.  (With the default
    empty secret — loopback clusters — the exchange still happens but
    proves nothing; non-loopback binds therefore *require* a secret.)
    """
    nonce = _secrets.token_bytes(_NONCE_BYTES)
    sock.sendall(nonce)
    reply = _recv_exact(sock, _DIGEST_BYTES)
    expected = hmac.new(secret, nonce + b"worker", _DIGEST).digest()
    if not hmac.compare_digest(reply, expected):
        return False
    sock.sendall(hmac.new(secret, nonce + b"server", _DIGEST).digest())
    return True


def _authenticate_as_worker(sock: socket.socket, secret: bytes) -> None:
    nonce = _recv_exact(sock, _NONCE_BYTES)
    sock.sendall(hmac.new(secret, nonce + b"worker", _DIGEST).digest())
    reply = _recv_exact(sock, _DIGEST_BYTES)
    expected = hmac.new(secret, nonce + b"server", _DIGEST).digest()
    if not hmac.compare_digest(reply, expected):
        raise ConnectionError("coordinator failed mutual authentication")


# -- transport security ------------------------------------------------


@dataclass(frozen=True)
class TLSConfig:
    """Opt-in TLS for the coordinator socket, layered *under* HMAC.

    One config describes both ends of a cluster so a single triple of
    paths can be handed to the coordinator and every worker alike:

    * coordinator (server side): ``cert`` + ``key`` are required; when
      ``ca`` is also set, workers must present certificates signed by
      it (mutual TLS).
    * worker (client side): the server certificate is verified against
      ``ca`` — or against ``cert`` itself for self-signed single-cert
      clusters — and ``cert``/``key`` are presented to coordinators
      that demand client certificates.

    Hostname checking is off: clusters connect by address with private
    CAs, so the trust anchor — not a public name — is the identity.
    TLS protects the *channel* (confidentiality, integrity, server
    identity); the HMAC handshake that still runs inside it proves
    knowledge of the cluster secret before any pickle is parsed.
    """

    cert: Optional[str] = None
    key: Optional[str] = None
    ca: Optional[str] = None

    def __post_init__(self) -> None:
        if not (self.cert or self.key or self.ca):
            raise ConfigurationError(
                "TLSConfig needs at least one of cert/key/ca"
            )
        if bool(self.cert) != bool(self.key):
            raise ConfigurationError(
                "TLS cert and key must be provided together "
                f"(got cert={self.cert!r}, key={self.key!r})"
            )
        for label, path in (
            ("cert", self.cert), ("key", self.key), ("ca", self.ca)
        ):
            if path is not None and not os.path.isfile(path):
                raise ConfigurationError(
                    f"TLS {label} file not found: {path!r}"
                )

    def server_context(self) -> ssl.SSLContext:
        """Context for the coordinator's accepted sockets."""
        if not self.cert:
            raise ConfigurationError(
                "serving TLS requires a certificate and key "
                "(--tls-cert/--tls-key)"
            )
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        try:
            context.load_cert_chain(self.cert, self.key)
            if self.ca:
                context.load_verify_locations(cafile=self.ca)
                context.verify_mode = ssl.CERT_REQUIRED
        except (ssl.SSLError, OSError) as exc:
            raise ConfigurationError(f"failed to load TLS material: {exc}")
        return context

    def client_context(self) -> ssl.SSLContext:
        """Context for a worker's connection to the coordinator."""
        anchor = self.ca or self.cert
        if not anchor:
            raise ConfigurationError(
                "connecting with TLS requires a CA (or the server's own "
                "certificate) to verify the coordinator against (--tls-ca)"
            )
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_CLIENT)
        context.check_hostname = False
        context.verify_mode = ssl.CERT_REQUIRED
        try:
            context.load_verify_locations(cafile=anchor)
            if self.cert:
                context.load_cert_chain(self.cert, self.key)
        except (ssl.SSLError, OSError) as exc:
            raise ConfigurationError(f"failed to load TLS material: {exc}")
        return context


# -- framing -----------------------------------------------------------


def _enable_keepalive(sock: socket.socket) -> None:
    """Arm TCP keepalive so a *silently* dead peer surfaces.

    The link threads deliberately block in ``recv`` without an
    application timeout while a batch is in flight (a slow adaptive
    block is legitimate and unbounded).  That leaves one failure mode
    the app layer cannot see: a peer that vanishes without FIN/RST
    (cable pull, dropped route).  Kernel keepalive probes turn that
    into ``ECONNRESET`` within ~75 s here, which the normal
    broken-link path handles (requeue + fallback).  A SIGSTOPped peer
    still ACKs probes — that case is invisible here and is handled one
    layer up by the coordinator's straggler speculation instead.
    """
    sock.setsockopt(socket.SOL_SOCKET, socket.SO_KEEPALIVE, 1)
    # Per-protocol knobs are Linux-specific; degrade to plain keepalive
    # (kernel defaults, ~2 h) where they do not exist.
    for option, value in (
        ("TCP_KEEPIDLE", 30),
        ("TCP_KEEPINTVL", 15),
        ("TCP_KEEPCNT", 3),
    ):
        if hasattr(socket, option):
            try:
                sock.setsockopt(
                    socket.IPPROTO_TCP, getattr(socket, option), value
                )
            except OSError:  # pragma: no cover - platform quirk
                pass


def _recv_exact(sock: socket.socket, n: int) -> bytes:
    buf = bytearray()
    while len(buf) < n:
        chunk = sock.recv(n - len(buf))
        if not chunk:
            raise ConnectionError("peer closed the connection")
        buf += chunk
    return bytes(buf)


def _recv_msg(sock: socket.socket) -> tuple:
    (length,) = _HEADER.unpack(_recv_exact(sock, _HEADER.size))
    if length > _MAX_FRAME:
        raise ConnectionError(f"frame of {length} bytes exceeds protocol limit")
    payload = _recv_exact(sock, length)
    try:
        return pickle.loads(payload)
    except Exception as exc:
        # A frame we cannot decode (version-skewed peer, corrupt
        # stream) is a broken link, whatever exception pickle raised —
        # normalise so every caller's broken-link path handles it.
        raise ConnectionError(f"undecodable frame from peer: {exc!r}")


def _send_msg(sock: socket.socket, message: tuple) -> None:
    payload = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
    sock.sendall(_HEADER.pack(len(payload)) + payload)


def parse_url(url: str) -> Tuple[str, int]:
    """``"tcp://host:port"`` (or plain ``host:port``) → ``(host, port)``.

    Port ``0`` is valid for a coordinator bind address (the OS picks);
    the resolved port is what :attr:`Coordinator.url` reports.
    """
    text = url.strip()
    if "//" in text:
        scheme, _, rest = text.partition("//")
        if scheme not in ("tcp:", ""):
            raise ParameterError(f"unsupported URL scheme in {url!r} (use tcp://)")
        text = rest
    host, sep, port_text = text.rpartition(":")
    if not sep:
        host, port_text = text, str(DEFAULT_PORT)
    if not host:
        raise ParameterError(f"no host in URL {url!r}")
    if ":" in host:
        raise ParameterError(
            f"IPv6 addresses are not supported in {url!r}; use an IPv4 "
            f"address or hostname"
        )
    try:
        port = int(port_text)
    except ValueError:
        raise ParameterError(f"invalid port in URL {url!r}")
    if not 0 <= port <= 65535:
        raise ParameterError(f"port out of range in URL {url!r}")
    return host, port


# -- worker ------------------------------------------------------------


def serve_worker(
    url: str,
    *,
    idle_timeout: float = DEFAULT_IDLE_TIMEOUT,
    max_tasks: Optional[int] = None,
    connect_timeout: float = 10.0,
    secret: Optional[bytes] = None,
    tls: Optional[TLSConfig] = None,
    delay: float = 0.0,
) -> int:
    """Serve blocks for the coordinator at ``url`` until told to stop.

    The loop: receive a task batch, execute each block, stream its
    accumulator back immediately (never buffering the whole batch, so a
    crash loses only unsent work).  Pings are answered with pongs; after
    ``idle_timeout`` seconds without any frame the worker exits cleanly
    (a live coordinator pings idle workers well inside that window).

    ``max_tasks`` caps how many blocks this worker completes before it
    *abruptly* drops the connection — mid-batch if the cap lands there.
    That is deliberately crash-shaped: it exists so the fault-injection
    suite can kill workers at exact, reproducible points.

    ``delay`` sleeps that many seconds before each block — the
    slow-loris fault-injection hook: the link stays perfectly healthy
    (pings answered, keepalive happy) while claimed work barely moves,
    which is exactly the pathology straggler speculation exists to
    absorb.

    ``secret`` is the cluster's shared secret for the mutual HMAC
    handshake (default: the ``REPRO_CLUSTER_SECRET`` environment
    variable; empty = unauthenticated, loopback-only coordinators).
    ``tls`` wraps the connection before the handshake (the coordinator
    must be serving TLS too).

    Returns the process exit code (0 — disconnects and idle timeouts,
    including a coordinator that vanishes mid-block, are normal worker
    lifecycle, not errors).  Only a failure to *establish* the
    connection (unreachable host, failed handshake, TLS rejection)
    raises.
    """
    host, port = parse_url(url)
    if port == 0:
        raise ParameterError("worker needs an explicit coordinator port, got 0")
    if secret is None:
        secret = _default_secret()
    if delay < 0:
        raise ParameterError(f"delay must be >= 0, got {delay}")
    completed = 0
    with socket.create_connection((host, port), timeout=connect_timeout) as raw_sock:
        if tls is not None:
            context = tls.client_context()
            try:
                sock = context.wrap_socket(raw_sock, server_hostname=host)
            except (ssl.SSLError, socket.timeout) as exc:
                raise ConfigurationError(
                    f"TLS handshake with coordinator {host}:{port} failed: "
                    f"{exc} (is the coordinator serving TLS, and does its "
                    f"certificate match the CA?)"
                )
        else:
            sock = raw_sock
        # The application handshake should be near-instant; keep it on
        # the (short) connect timeout so a protocol-mismatched peer —
        # e.g. a TLS coordinator we are speaking plaintext to, which
        # will never send the HMAC nonce — fails fast instead of
        # hanging a full idle_timeout.
        sock.settimeout(connect_timeout)
        _enable_keepalive(sock)
        try:
            _authenticate_as_worker(sock, secret)
        except socket.timeout:
            raise ConnectionError(
                f"coordinator {host}:{port} did not complete the handshake "
                f"within {connect_timeout}s (TLS/plaintext mismatch?)"
            )
        sock.settimeout(idle_timeout)
        try:
            _send_msg(sock, ("hello", os.getpid()))
            while True:
                try:
                    message = _recv_msg(sock)
                except socket.timeout:
                    return 0  # idle: the coordinator has forgotten us
                kind = message[0]
                if kind == "shutdown":
                    return 0
                if kind == "ping":
                    _send_msg(sock, ("pong",))
                    continue
                if kind != "tasks":
                    continue  # unknown frame: ignore, stay compatible
                _, epoch, batch = message
                for index, block_task in batch:
                    if max_tasks is not None and completed >= max_tasks:
                        return 0  # injected crash: abandon rest of batch
                    if delay:
                        time.sleep(delay)
                    started = time.perf_counter()
                    try:
                        accumulator = execute_block(block_task)
                    except Exception:
                        _send_msg(
                            sock, ("error", epoch, index, traceback.format_exc())
                        )
                    else:
                        # The measured compute seconds feed the
                        # coordinator's latency-adaptive batch sizing.
                        _send_msg(
                            sock,
                            (
                                "result",
                                epoch,
                                index,
                                accumulator,
                                time.perf_counter() - started,
                            ),
                        )
                        completed += 1
        except (ConnectionError, OSError):
            return 0  # coordinator gone (even mid-send): nothing to serve


# -- coordinator -------------------------------------------------------


@dataclass
class _Link:
    """One connected worker: its socket, liveness, and in-flight set."""

    sock: socket.socket
    pid: int
    wid: int
    in_flight: Set[Tuple[int, int]] = field(default_factory=set)
    send_lock: threading.Lock = field(default_factory=threading.Lock)
    reported_error: bool = False

    def send(self, message: tuple) -> None:
        with self.send_lock:
            _send_msg(self.sock, message)


class Coordinator:
    """Accepts worker connections and dispatches block-task batches.

    One instance serves many :meth:`run_tasks` batches (workers persist
    across them).  Within a batch every task index is resolved exactly
    once — by a worker result or by in-process recompute — and results
    come back aligned with input order, which is all the
    :class:`~repro.sim.backends.ExecutionBackend` protocol asks for.

    Thread model: one accept thread, one handler thread per worker
    link, and the caller's thread running :meth:`run_tasks` (which also
    executes the local-fallback work).  All shared state sits behind a
    single condition variable; sockets get a per-link send lock so
    ``close()`` can interject a shutdown frame safely.
    """

    def __init__(
        self,
        url: str = "tcp://127.0.0.1:0",
        *,
        batch_size: int = DEFAULT_BATCH_SIZE,
        max_retries: int = DEFAULT_MAX_RETRIES,
        heartbeat: float = DEFAULT_HEARTBEAT,
        poll_interval: float = 0.05,
        secret: Optional[bytes] = None,
        wait_timeout: float = DEFAULT_WAIT_TIMEOUT,
        tls: Optional[TLSConfig] = None,
        straggler_factor: Optional[float] = DEFAULT_STRAGGLER_FACTOR,
        straggler_grace: float = DEFAULT_STRAGGLER_GRACE,
    ) -> None:
        if batch_size < 1:
            raise ParameterError(f"batch_size must be >= 1, got {batch_size}")
        if max_retries < 1:
            raise ParameterError(f"max_retries must be >= 1, got {max_retries}")
        if not 0 < wait_timeout < math.inf:
            raise ParameterError(
                f"wait_timeout must be a finite value > 0, got {wait_timeout}"
            )
        if straggler_factor is not None and not 0 < straggler_factor < math.inf:
            raise ParameterError(
                f"straggler_factor must be a finite value > 0 (or None to "
                f"disable speculation), got {straggler_factor}"
            )
        if not 0 < straggler_grace < math.inf:
            raise ParameterError(
                f"straggler_grace must be a finite value > 0, got "
                f"{straggler_grace}"
            )
        self.batch_size = int(batch_size)
        self.max_retries = int(max_retries)
        self.wait_timeout = float(wait_timeout)
        #: Straggler speculation: a task in flight longer than
        #: ``straggler_factor ×`` its kind's EWMA block latency (or
        #: ``straggler_grace`` seconds absolute while no latency sample
        #: exists) is re-queued for whichever idle worker — or the
        #: coordinator's own local lane — gets there first; the
        #: epoch-tagged resolve-once collection keeps whichever copy
        #: lands first and drops the other.  Safe because a block is a
        #: pure function of its task payload: the duplicate is
        #: bit-identical.  ``None`` disables speculation.
        self.straggler_factor = (
            None if straggler_factor is None else float(straggler_factor)
        )
        self.straggler_grace = float(straggler_grace)
        #: Speculative re-dispatches performed (telemetry for tests).
        self.speculations = 0
        # Built eagerly so a bad cert path fails at construction, not
        # at first connect.
        self._ssl_context = None if tls is None else tls.server_context()
        #: Latency-adaptive claim sizing (see :class:`~repro.sim.
        #: backends.DispatchStats`): workers report per-block compute
        #: seconds with each result, and once a kind has a latency
        #: sample a claim takes up to ``target/EWMA`` consecutive
        #: same-kind tasks instead of ``batch_size``.  Dispatch-only —
        #: results are bit-identical whatever the claim size.
        self.dispatch_stats = DispatchStats()
        self.heartbeat = float(heartbeat)
        self.poll_interval = float(poll_interval)
        self._secret = _default_secret() if secret is None else secret
        host, port = parse_url(url)
        if host not in _LOOPBACK_HOSTS and not self._secret:
            raise ParameterError(
                f"binding the coordinator to non-loopback {host!r} requires "
                f"a shared secret (set {SECRET_ENV} on the coordinator and "
                f"every worker): the wire format is pickle, and accepting "
                f"unauthenticated pickles is remote code execution"
            )
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind((host, port))
        listener.listen()
        self._listener = listener
        self.host, self.port = listener.getsockname()[:2]
        self._cond = threading.Condition()
        self._links: Dict[int, _Link] = {}
        self._next_wid = 0
        self._closed = False
        # Per-batch state, valid while _active (all guarded by _cond).
        self._active = False
        self._epoch = 0
        self._tasks: Sequence[BlockTask] = ()
        self._queue: Deque[int] = deque()
        self._local_pending: List[int] = []
        self._attempts: Dict[int, int] = {}
        self._results: Dict[int, CellAccumulator] = {}
        self._resolved: Set[int] = set()
        # Straggler bookkeeping (per batch, guarded by _cond):
        # dispatch timestamps per (epoch, index), indices already
        # speculated once, and whether the last scan saw any overdue
        # in-flight task (which opens the coordinator's local lane).
        self._dispatched: Dict[Tuple[int, int], float] = {}
        self._speculated: Set[int] = set()
        self._stalled = False
        self._batch_lock = threading.Lock()
        self._finalizer = weakref.finalize(self, _close_socket, listener)
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="repro-coordinator-accept", daemon=True
        )
        self._accept_thread.start()

    # -- public surface ------------------------------------------------

    @property
    def url(self) -> str:
        """The resolved ``tcp://host:port`` workers should connect to."""
        return f"tcp://{self.host}:{self.port}"

    @property
    def workers(self) -> int:
        """Currently connected worker count."""
        with self._cond:
            return len(self._links)

    def wait_for_workers(
        self, count: int, timeout: Optional[float] = None
    ) -> int:
        """Block until ``count`` workers are connected (or timeout).

        ``timeout`` defaults to the coordinator's ``wait_timeout``
        (itself :data:`DEFAULT_WAIT_TIMEOUT` unless configured — slow
        CI hosts raise it via ``--connect-timeout``).  Returns the
        number actually connected — never raises: running short-handed
        (even zero-handed) is a supported degraded mode, the batch just
        leans on the in-process fallback.
        """
        if timeout is None:
            timeout = self.wait_timeout
        deadline = time.monotonic() + timeout
        with self._cond:
            while len(self._links) < count and not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            return len(self._links)

    def run_tasks(self, tasks: Sequence[BlockTask]) -> List[CellAccumulator]:
        """Evaluate one batch; one accumulator per task, input order."""
        tasks = list(tasks)
        if not tasks:
            return []
        with self._batch_lock:
            with self._cond:
                if self._closed:
                    raise SimulationError("coordinator is closed")
            remote, unshippable = partition_shippable(tasks)
            with self._cond:
                if self._closed:  # re-check: close() may have raced us
                    raise SimulationError("coordinator is closed")
                self._epoch += 1
                epoch = self._epoch
                self._active = True
                self._tasks = tasks
                self._queue.clear()
                self._queue.extend(remote)
                self._local_pending = list(unshippable)
                self._attempts = {}
                self._results = {}
                self._resolved = set()
                self._dispatched = {}
                self._speculated = set()
                self._stalled = False
                self._cond.notify_all()
            try:
                while True:
                    with self._cond:
                        if len(self._resolved) == len(tasks):
                            break
                        if self._closed:
                            raise SimulationError(
                                "coordinator closed while a batch was running"
                            )
                        self._scan_stragglers_locked()
                        local = self._take_local_locked()
                        if not local:
                            self._cond.wait(self.poll_interval)
                            self._scan_stragglers_locked()
                            local = self._take_local_locked()
                    for index in local:
                        # Runs the genuine job code in this process: a
                        # deterministic job error surfaces here exactly
                        # as SerialBackend would raise it.
                        accumulator = execute_block(tasks[index])
                        self._record(None, epoch, index, accumulator)
                return [self._results[index] for index in range(len(tasks))]
            finally:
                with self._cond:
                    self._active = False
                    self._tasks = ()
                    self._queue.clear()
                    self._local_pending = []
                    self._dispatched = {}
                    self._speculated = set()
                    self._stalled = False
                    self._cond.notify_all()

    def close(self) -> None:
        """Shut down: stop accepting, release workers (idempotent)."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            links = list(self._links.values())
            self._cond.notify_all()
        self._finalizer()  # closes the listener; accept loop exits
        for link in links:
            try:
                link.sock.settimeout(1.0)
                link.send(("shutdown",))
            except OSError:
                pass
            _close_socket(link.sock)

    def __enter__(self) -> "Coordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- accept / per-link threads -------------------------------------

    def _accept_loop(self) -> None:
        while True:
            try:
                sock, _addr = self._listener.accept()
            except OSError:
                return  # listener closed
            with self._cond:
                if self._closed:
                    _close_socket(sock)
                    return
            threading.Thread(
                target=self._serve_link,
                args=(sock,),
                name="repro-coordinator-link",
                daemon=True,
            ).start()

    def _serve_link(self, sock: socket.socket) -> None:
        link: Optional[_Link] = None
        try:
            sock.settimeout(self.heartbeat * 4)
            if self._ssl_context is not None:
                # TLS first, HMAC inside it: a peer that cannot
                # complete the TLS handshake (no cert, wrong CA,
                # plaintext) is dropped before a single application
                # byte — let alone a pickle — is read.
                try:
                    sock = self._ssl_context.wrap_socket(
                        sock, server_side=True
                    )
                except (ssl.SSLError, socket.timeout, OSError):
                    return
            _enable_keepalive(sock)
            if not _authenticate_as_server(sock, self._secret):
                return  # failed the challenge: never unpickle its bytes
            hello = _recv_msg(sock)
            if not (
                isinstance(hello, tuple)
                and len(hello) == 2
                and hello[0] == "hello"
            ):
                return
            sock.settimeout(None)
            with self._cond:
                if self._closed:
                    return
                link = _Link(sock=sock, pid=hello[1], wid=self._next_wid)
                self._next_wid += 1
                self._links[link.wid] = link
                self._cond.notify_all()
            while True:
                claimed = self._claim(link)
                if claimed is None:
                    return  # coordinator closing
                epoch, batch = claimed
                if not batch:
                    # Idle: heartbeat so dead peers surface and live
                    # workers' idle clocks keep resetting.
                    sock.settimeout(self.heartbeat * 4)
                    link.send(("ping",))
                    while _recv_msg(sock)[0] != "pong":
                        pass
                    sock.settimeout(None)
                    continue
                link.send(("tasks", epoch, batch))
                remaining = {index for index, _ in batch}
                while remaining:
                    message = _recv_msg(sock)
                    kind = message[0]
                    if kind not in ("result", "error"):
                        continue
                    if len(message) != (5 if kind == "result" else 4):
                        # A reply of the wrong shape is a broken link:
                        # the finally clause drops it and requeues.
                        return
                    if kind == "result":
                        _, ep, index, accumulator, seconds = message
                        self._record(link, ep, index, accumulator, seconds)
                    else:
                        _, ep, index, text = message
                        self._record_error(link, ep, index, text)
                    remaining.discard(index)
        except (ConnectionError, OSError, EOFError, socket.timeout,
                pickle.PickleError, struct.error):
            pass  # broken link: _drop_link requeues whatever it held
        finally:
            self._drop_link(link)
            _close_socket(sock)

    # -- shared-state helpers (all take/hold self._cond) ----------------

    def _claim(self, link: _Link) -> Optional[Tuple[int, List[Tuple[int, BlockTask]]]]:
        """Next batch for ``link``: None to stop, [] to heartbeat."""
        deadline = time.monotonic() + self.heartbeat
        with self._cond:
            while True:
                if self._closed:
                    return None
                if self._active:
                    # Speculated entries whose original already
                    # resolved are dead weight: drop them here so the
                    # adaptive head-kind probe below sees a live task.
                    while self._queue and self._queue[0] in self._resolved:
                        self._queue.popleft()
                if self._active and self._queue:
                    epoch = self._epoch
                    # Latency-adaptive claim sizing: take consecutive
                    # same-kind tasks worth ~the dispatch target of
                    # estimated compute.  The configured batch_size
                    # stays the pre-observation claim size (an
                    # explicitly tuned value keeps working on
                    # high-latency links); once the kind has a latency
                    # sample the EWMA sizing takes over.  A claim never
                    # mixes kinds, so a cheap run of analytic blocks
                    # cannot hide an expensive executor block inside a
                    # big claim.
                    head_kind = dispatch_kind(self._tasks[self._queue[0]])
                    if self.dispatch_stats.block_latency(head_kind) is None:
                        size = self.batch_size
                    else:
                        size = self.dispatch_stats.batch_size(head_kind)
                    batch: List[Tuple[int, BlockTask]] = []
                    while self._queue and len(batch) < size:
                        index = self._queue[0]
                        if index in self._resolved:
                            # A speculated task whose original copy won
                            # the race while it sat queued: nothing to
                            # dispatch.
                            self._queue.popleft()
                            continue
                        if batch and dispatch_kind(self._tasks[index]) != head_kind:
                            break
                        self._queue.popleft()
                        self._attempts[index] = self._attempts.get(index, 0) + 1
                        link.in_flight.add((epoch, index))
                        self._dispatched[(epoch, index)] = time.monotonic()
                        batch.append((index, self._tasks[index]))
                    if not batch:
                        continue  # queue held only resolved leftovers
                    return epoch, batch
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return self._epoch, []
                self._cond.wait(remaining)

    def _record(
        self,
        link: Optional[_Link],
        epoch: int,
        index: int,
        accumulator: CellAccumulator,
        seconds: Optional[float] = None,
    ) -> None:
        """Resolve a task exactly once; stale or duplicate results drop.

        ``seconds`` is the worker-measured compute time of the block
        (None for local recomputes); it feeds the latency EWMA behind
        adaptive claim sizing.
        """
        with self._cond:
            if link is not None:
                link.in_flight.discard((epoch, index))
            self._dispatched.pop((epoch, index), None)
            if not self._active or epoch != self._epoch or index in self._resolved:
                return
            if isinstance(seconds, float):
                self.dispatch_stats.observe(
                    dispatch_kind(self._tasks[index]), seconds
                )
            self._results[index] = accumulator
            self._resolved.add(index)
            self._cond.notify_all()

    def _record_error(
        self, link: _Link, epoch: int, index: int, text: str
    ) -> None:
        """A worker-side exception: recompute locally for serial parity.

        The remote traceback is surfaced on stderr (once per link, not
        once per block — a broken worker environment fails every block
        the same way).  The local recompute then either produces the
        genuine result (worker-environment problem) or raises the
        genuine exception (job problem), so nothing is lost — but
        without the warning, an all-broken cluster would silently
        degrade to serial-speed fallback with zero diagnostics.
        """
        with self._cond:
            link.in_flight.discard((epoch, index))
            warn = not link.reported_error
            link.reported_error = True
            if not self._active or epoch != self._epoch or index in self._resolved:
                return
            if index not in self._local_pending:
                self._local_pending.append(index)
            self._cond.notify_all()
        if warn:
            print(
                f"repro: warning: worker pid={link.pid} failed a block; "
                f"recomputing in-process.  Remote traceback:\n{text}",
                file=sys.stderr,
            )

    def _drop_link(self, link: Optional[_Link]) -> None:
        """Deregister a dead worker and requeue its in-flight tasks."""
        if link is None:
            return
        with self._cond:
            self._links.pop(link.wid, None)
            for epoch, index in link.in_flight:
                self._dispatched.pop((epoch, index), None)
                if (
                    not self._active
                    or epoch != self._epoch
                    or index in self._resolved
                ):
                    continue
                if self._attempts.get(index, 0) >= self.max_retries:
                    if index not in self._local_pending:
                        self._local_pending.append(index)
                else:
                    self._queue.append(index)
            link.in_flight.clear()
            self._cond.notify_all()

    def _scan_stragglers_locked(self) -> None:
        """Flag overdue in-flight tasks and speculatively requeue them.

        Called with ``_cond`` held from the :meth:`run_tasks` loop.  A
        task is overdue when it has been in flight longer than
        ``straggler_factor ×`` its kind's EWMA block latency — or
        longer than ``straggler_grace`` seconds while the EWMA has no
        sample (a wholly stuck fleet never reports one), with the grace
        also acting as a floor so microsecond-block EWMAs cannot turn
        scheduling jitter into speculation storms.  Each overdue task
        is requeued at most once per batch; idle workers claim the
        copy, and ``_stalled`` opens the coordinator's local execution
        lane (see :meth:`_take_local_locked`) so the batch drains even
        when *every* worker is stuck.  Whichever copy resolves first
        wins; :meth:`_record` drops the loser.
        """
        if self.straggler_factor is None or not self._active:
            return
        self._stalled = False
        if not self._dispatched:
            return
        now = time.monotonic()
        for (epoch, index), started in list(self._dispatched.items()):
            if epoch != self._epoch or index in self._resolved:
                continue
            kind = dispatch_kind(self._tasks[index])
            ewma = self.dispatch_stats.block_latency(kind)
            if ewma is None:
                threshold = self.straggler_grace
            else:
                threshold = max(
                    self.straggler_factor * ewma, self.straggler_grace
                )
            if now - started <= threshold:
                continue
            self._stalled = True
            if index not in self._speculated:
                self._speculated.add(index)
                self.speculations += 1
                self._queue.append(index)
                self._cond.notify_all()

    def _take_local_locked(self) -> List[int]:
        """Indices the caller's thread should compute in-process now.

        Always the designated-local backlog (unpicklable jobs, retry
        exhaustion, worker errors); plus *one* task off the queue when
        either (a) no workers are connected, or (b) the last straggler
        scan found an overdue in-flight task — a stalled fleet means
        the queue is not draining, so the coordinator host's CPUs join
        the pool instead of idling behind a SIGSTOPped worker that
        still looks alive to keepalive.  One task, not all: the batch
        progresses at least at serial speed while a worker that
        connects (or recovers) mid-batch still finds the rest of the
        queue waiting for it.
        """
        local = self._local_pending
        self._local_pending = []
        take_from_queue = not self._links or self._stalled
        if take_from_queue:
            while self._queue:
                index = self._queue.popleft()
                if index in self._resolved:
                    continue  # a speculated copy already resolved
                local.append(index)
                break
        return local


# -- local cluster -----------------------------------------------------


class LocalCluster:
    """N worker subprocesses on loopback, for tests and the CLI.

    Workers are spawned lazily by :meth:`start` (the backend calls it
    with its coordinator's URL) as ``python -m repro worker <url>``,
    with the package root on ``PYTHONPATH``.  ``max_tasks`` — an int
    for all workers or one value per worker (``None`` = unlimited) —
    makes a worker crash after completing that many blocks; that is the
    fault-injection hook the test suite drives.

    ``max_respawns`` enables crash recovery: a monitor thread watches
    the worker processes and replaces any that *crashes* (non-zero
    exit — SIGKILL, OOM, a failed connect) while the cluster is
    running, same slot configuration, same coordinator URL, up to
    ``max_respawns`` replacements across the cluster's lifetime.
    Clean exits (code 0: idle timeout, coordinator shutdown, an
    injected ``max_tasks`` crash — deliberately exit-0 so fault
    scenarios that *want* a permanently dead worker stay undisturbed)
    never consume the budget.  Respawn changes *availability only* —
    the coordinator requeues a dead worker's in-flight blocks either
    way, and every block re-derives its streams from the task payload,
    so results are bit-identical with or without respawn
    (``tests/test_distributed_faults.py``).
    """

    def __init__(
        self,
        workers: int = 2,
        *,
        idle_timeout: float = 60.0,
        max_tasks: Union[None, int, Sequence[Optional[int]]] = None,
        python: Optional[str] = None,
        max_respawns: int = 0,
        respawn_poll: float = 0.2,
        tls: Optional[TLSConfig] = None,
        delay: Union[None, float, Sequence[Optional[float]]] = None,
        connect_timeout: Optional[float] = None,
    ) -> None:
        if workers < 0:
            raise ParameterError(f"workers must be >= 0, got {workers}")
        if max_respawns < 0:
            raise ParameterError(
                f"max_respawns must be >= 0, got {max_respawns}"
            )
        if respawn_poll <= 0:
            raise ParameterError(
                f"respawn_poll must be > 0, got {respawn_poll}"
            )
        if connect_timeout is not None and not 0 < connect_timeout < math.inf:
            raise ParameterError(
                f"connect_timeout must be a finite value > 0, got "
                f"{connect_timeout}"
            )
        self.size = int(workers)
        self.idle_timeout = float(idle_timeout)
        if max_tasks is None or isinstance(max_tasks, int):
            self.max_tasks: List[Optional[int]] = [max_tasks] * self.size
        else:
            self.max_tasks = list(max_tasks)
            if len(self.max_tasks) != self.size:
                raise ParameterError(
                    f"max_tasks needs one entry per worker "
                    f"({self.size}), got {len(self.max_tasks)}"
                )
        #: ``delay`` — seconds a worker sleeps before each block, one
        #: value or one per worker — is the slow-loris injection hook:
        #: the link stays healthy while claimed work crawls.
        if delay is None or isinstance(delay, (int, float)):
            self.delay: List[Optional[float]] = [delay] * self.size
        else:
            self.delay = list(delay)
            if len(self.delay) != self.size:
                raise ParameterError(
                    f"delay needs one entry per worker "
                    f"({self.size}), got {len(self.delay)}"
                )
        #: TLS material forwarded to each spawned worker (the
        #: coordinator these workers connect to must serve TLS).
        self.tls = tls
        #: Advisory wait-for-workers timeout for whoever starts this
        #: cluster (slow CI hosts set it higher than the default).
        self.connect_timeout = (
            None if connect_timeout is None else float(connect_timeout)
        )
        self.python = python or sys.executable
        self.max_respawns = int(max_respawns)
        self.respawn_poll = float(respawn_poll)
        #: Replacements actually performed (telemetry for tests/users).
        self.respawns = 0
        self._respawn_budget = self.max_respawns
        self._procs: List[subprocess.Popen] = []
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._monitor: Optional[threading.Thread] = None
        self._finalizer: Optional[weakref.finalize] = None

    def _spawn(self, url: str, index: int, env) -> subprocess.Popen:
        command = [
            self.python, "-m", "repro", "worker", url,
            "--idle-timeout", str(self.idle_timeout),
        ]
        cap = self.max_tasks[index]
        if cap is not None:
            command += ["--max-tasks", str(cap)]
        delay = self.delay[index]
        if delay:
            command += ["--delay", str(delay)]
        if self.tls is not None:
            # Workers verify the coordinator against the CA — or the
            # coordinator's own cert for self-signed clusters — and
            # present the cert/key pair for mutual TLS when one is
            # configured.
            anchor = self.tls.ca or self.tls.cert
            if anchor:
                command += ["--tls-ca", anchor]
            if self.tls.cert:
                command += ["--tls-cert", self.tls.cert,
                            "--tls-key", self.tls.key]
        return subprocess.Popen(command, env=env, stdout=subprocess.DEVNULL)

    def start(self, url: str) -> None:
        """Spawn the workers against ``url`` (no-op while running)."""
        if self._procs:
            return
        env = dict(os.environ)
        package_root = os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))
        )
        src_root = os.path.dirname(package_root)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            src_root if not existing else src_root + os.pathsep + existing
        )
        with self._lock:
            self._procs = [
                self._spawn(url, index, env) for index in range(self.size)
            ]
        self._finalizer = weakref.finalize(
            self, _terminate_procs, list(self._procs)
        )
        if self.max_respawns and self.size:
            self._stopping.clear()
            # The thread holds only a weak reference to the cluster:
            # a strong one would keep a dropped cluster alive forever,
            # defeating the weakref.finalize GC safety net that reaps
            # the worker processes.
            self._monitor = threading.Thread(
                target=_cluster_respawn_loop,
                args=(weakref.ref(self), self._stopping,
                      self.respawn_poll, url, env),
                name="repro-cluster-respawn",
                daemon=True,
            )
            self._monitor.start()

    def _respawn_scan(self, url: str, env) -> bool:
        """One monitor pass; returns True when the loop should stop.

        Only *crashed* workers (non-zero exit) are replaced — clean
        exits are normal worker lifecycle (idle timeout, shutdown,
        the deliberately exit-0 ``max_tasks`` crash hook) and must not
        burn the crash-recovery budget.  The budget is cluster-wide,
        so a crash-looping worker cannot respawn forever.
        """
        with self._lock:
            if self._stopping.is_set():
                return True
            for index, proc in enumerate(self._procs):
                if self._respawn_budget <= 0:
                    return True
                if proc.poll() is None or proc.returncode == 0:
                    continue
                self._procs[index] = self._spawn(url, index, env)
                self.respawns += 1
                self._respawn_budget -= 1
                # Keep the GC safety net current: the finalizer must
                # terminate the *live* processes, not corpses.
                if self._finalizer is not None:
                    self._finalizer.detach()
                self._finalizer = weakref.finalize(
                    self, _terminate_procs, list(self._procs)
                )
            return self._respawn_budget <= 0

    @property
    def processes(self) -> List[subprocess.Popen]:
        """The live worker process handles (for fault injection)."""
        with self._lock:
            return list(self._procs)

    def alive(self) -> int:
        """How many workers are still running."""
        with self._lock:
            return sum(1 for proc in self._procs if proc.poll() is None)

    def kill_worker(self, index: int) -> None:
        """SIGKILL one worker (fault injection; waits for the corpse)."""
        with self._lock:
            proc = self._procs[index]
        proc.kill()
        proc.wait()

    def close(self) -> None:
        """Terminate every worker and reap it (idempotent)."""
        self._stopping.set()
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        if self._finalizer is not None:
            self._finalizer.detach()
            self._finalizer = None
        with self._lock:
            procs, self._procs = self._procs, []
        _terminate_procs(procs)

    def __enter__(self) -> "LocalCluster":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def _cluster_respawn_loop(
    cluster_ref: "weakref.ref[LocalCluster]",
    stopping: threading.Event,
    poll: float,
    url: str,
    env,
) -> None:
    """Monitor-thread body (module level so it cannot pin the cluster).

    Dereferences the cluster afresh each pass — and drops the strong
    reference *before* sleeping, so the thread never pins the cluster
    while idle — and exits as soon as it is gone (its finalizer has
    already reaped the workers), stopped, or out of respawn budget.
    """
    if stopping.wait(poll):
        return
    while True:
        cluster = cluster_ref()
        if cluster is None or cluster._respawn_scan(url, env):
            return
        del cluster
        if stopping.wait(poll):
            return


def _terminate_procs(procs: List[subprocess.Popen]) -> None:
    for proc in procs:
        if proc.poll() is None:
            proc.terminate()
    for proc in procs:
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _close_socket(sock: socket.socket) -> None:
    try:
        sock.close()
    except OSError:
        pass
