"""The study service daemon: HTTP front end over one shared scheduler.

Architecture (the service-vs-core split):

* :class:`StudyService` is the core — no HTTP anywhere in it.  It owns
  one :class:`~repro.api.session.Session` (the execution resources),
  one :class:`~repro.service.cache.CellCache`, and one
  :class:`~repro.api.scheduler.CellScheduler` tying them together.
  :meth:`StudyService.submit` takes a spec payload and returns the
  completed :class:`~repro.api.results.ResultSet` plus hit/miss
  accounting; concurrent submissions are safe — the scheduler
  arbitrates claims so each unique cell is computed exactly once even
  when two clients race on it.
* :class:`_Handler`/:func:`make_server` are the HTTP skin: a
  threaded stdlib server (one thread per connection — request threads
  spend their time blocked on the scheduler, so threads are the right
  concurrency unit) translating JSON bodies to submissions and
  :class:`~repro.errors.ConfigurationError` to clean ``4xx`` responses.

Endpoints::

    GET  /healthz            liveness + identity of the serving session
    GET  /stats              cache + scheduler counters
    POST /studies            StudySpec JSON -> result envelope
    POST /studies?stream=1   same, as NDJSON progress events, then the
                             result envelope as the final event

The result envelope embeds the full ``ResultSet`` dict — exact floats,
NaN literals included — so ``repro submit --out`` saves a file
byte-compatible with ``repro run --out`` of the same study.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Iterator, Optional, Tuple
from urllib.parse import urlparse

from repro.api.results import json_dumps_exact, json_loads_exact
from repro.api.scheduler import CellScheduler
from repro.api.session import Session
from repro.api.study import Study
from repro.errors import ConfigurationError, ReproError, ServiceUnavailableError
from repro.experiments.config import ExecutionSettings
from repro.service.cache import CellCache
from repro.service.client import DEFAULT_URL

__all__ = [
    "StudyService",
    "make_server",
    "serve_forever",
    "parse_service_url",
    "DEFAULT_URL",
    "DEFAULT_MAX_PENDING",
    "DEFAULT_FAIR_SHARE",
    "DEFAULT_REQUEST_TIMEOUT",
]

#: Submission body cap — a StudySpec is a few hundred bytes; anything
#: megabytes-long is a mistake or abuse, rejected before parsing.
MAX_BODY_BYTES = 1 << 20

#: ``repro serve`` defaults (the daemon entry point; a bare
#: :class:`StudyService` keeps the historical unbounded/monolithic
#: behaviour unless told otherwise).  ``--max-pending 0`` &c. disable.
DEFAULT_MAX_PENDING = 32
DEFAULT_FAIR_SHARE = 8
DEFAULT_REQUEST_TIMEOUT = 60.0

#: ``Retry-After`` seconds advertised with a 503.  Deliberately short:
#: the queue bound trips on concurrency spikes, not sustained overload,
#: and submissions are idempotent so an early retry is harmless.
RETRY_AFTER_SECONDS = 2


def parse_service_url(url: str) -> Tuple[str, int]:
    """``(host, port)`` from an ``http://host:port`` service URL."""
    parsed = urlparse(url if "//" in url else f"http://{url}")
    if parsed.scheme not in ("http", ""):
        raise ConfigurationError(
            f"service URL must be http://host:port, got {url!r}"
        )
    if not parsed.hostname:
        raise ConfigurationError(f"service URL has no host: {url!r}")
    return parsed.hostname, parsed.port if parsed.port is not None else 80


class StudyService:
    """Submission handling over one session, scheduler and cell cache.

    Parameters
    ----------
    settings:
        :class:`~repro.experiments.config.ExecutionSettings` for the
        serving session (``None`` = serial defaults).  Ignored when
        ``session`` is given.
    cache_dir:
        Directory for the content-addressed cell store.  Mutually
        exclusive with ``cache``; one of the two is required.
    session / cache:
        Pre-built collaborators (the test seam).  A passed-in session
        is borrowed — :meth:`close` leaves it to its owner.
    max_pending:
        Admission bound: at most this many submissions may be inside
        :meth:`admission` at once; the next one raises
        :class:`~repro.errors.ServiceUnavailableError` (HTTP 503 +
        ``Retry-After``) instead of queueing without limit.  ``None``
        (default) admits everything — the historical behaviour, and
        what embedded/test uses want.
    fair_share:
        Forwarded to the scheduler: cells per compute turn, so
        concurrent submissions round-robin instead of queueing whole
        studies.  ``None`` (default) keeps monolithic batches.
    """

    def __init__(
        self,
        settings: Optional[ExecutionSettings] = None,
        *,
        cache_dir: Optional[str] = None,
        cache: Optional[CellCache] = None,
        session: Optional[Session] = None,
        max_pending: Optional[int] = None,
        fair_share: Optional[int] = None,
    ) -> None:
        if (cache is None) == (cache_dir is None):
            raise ConfigurationError(
                "pass exactly one of cache_dir= or cache="
            )
        if max_pending is not None and max_pending < 1:
            raise ConfigurationError(
                f"max_pending must be >= 1 (or None for unbounded "
                f"admission), got {max_pending}"
            )
        self.cache = cache if cache is not None else CellCache(cache_dir)
        self._owns_session = session is None
        self.session = (
            session if session is not None else Session(settings)
        )
        self.scheduler = CellScheduler(
            self.session, cache=self.cache, fair_share=fair_share
        )
        self.max_pending = max_pending
        self._lock = threading.Lock()
        self.submissions = 0
        self.active = 0
        self.rejected = 0

    # -- admission -----------------------------------------------------

    @contextmanager
    def admission(self) -> Iterator[None]:
        """Claim one admission slot for the duration of a submission.

        Raises :class:`~repro.errors.ServiceUnavailableError` when
        ``max_pending`` submissions are already in flight — *before*
        any compute is queued, so a saturated service answers fast and
        clients back off instead of piling onto the turnstile.
        """
        with self._lock:
            if self.max_pending is not None and self.active >= self.max_pending:
                self.rejected += 1
                raise ServiceUnavailableError(
                    f"study service is at capacity ({self.active} "
                    f"submissions in flight, max_pending="
                    f"{self.max_pending}); retry shortly"
                )
            self.active += 1
        try:
            yield
        finally:
            with self._lock:
                self.active -= 1

    # -- submissions ---------------------------------------------------

    def submit(self, payload: object, progress=None) -> Dict[str, object]:
        """Run one StudySpec payload; return the result envelope.

        ``payload`` is the parsed JSON body — anything malformed
        raises :class:`~repro.errors.ConfigurationError` (the HTTP
        layer's 400).  ``progress(plan, record, cached)`` fires as
        cells resolve, on the calling thread.
        """
        study = Study(payload)  # validates; dict -> StudySpec
        counts = {"computed": 0, "cached": 0}
        counts_lock = threading.Lock()

        def counting_progress(plan, record, cached):
            with counts_lock:
                counts["cached" if cached else "computed"] += 1
            if progress is not None:
                progress(plan, record, cached)

        result = study.run(scheduler=self.scheduler, progress=counting_progress)
        with self._lock:
            self.submissions += 1
        return {
            "spec_hash": study.spec_hash,
            "kind": study.spec.kind,
            "cells": len(result),
            "computed": counts["computed"],
            "cached": counts["cached"],
            "result": result.to_dict(),
        }

    def cell_count(self, payload: object) -> Tuple[str, int]:
        """(spec_hash, cell count) of a payload without running it."""
        study = Study(payload)
        return study.spec_hash, len(study.cells())

    # -- introspection -------------------------------------------------

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = {
                "submissions": self.submissions,
                "active": self.active,
                "rejected": self.rejected,
            }
        return {
            **counters,
            "max_pending": self.max_pending,
            "session": self.session.describe(),
            "kernel": self.session.kernel,
            "scheduler": self.scheduler.stats(),
            "cache": self.cache.stats(),
        }

    # -- lifecycle -----------------------------------------------------

    def close(self) -> None:
        if self._owns_session:
            self.session.close()

    def __enter__(self) -> "StudyService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Handler(BaseHTTPRequestHandler):
    """HTTP skin over the server's :class:`StudyService`."""

    protocol_version = "HTTP/1.1"
    server_version = "repro-serve/1"

    @property
    def service(self) -> StudyService:
        return self.server.service  # type: ignore[attr-defined]

    def setup(self) -> None:
        """Arm the per-connection socket timeout before any read.

        A client that connects and then trickles (or stops sending) a
        request would otherwise pin its handler thread forever; with a
        timeout the blocked read raises ``TimeoutError``, which the
        stdlib request loop turns into a clean connection close.
        """
        super().setup()
        timeout = getattr(self.server, "request_timeout", None)
        if timeout:
            self.connection.settimeout(timeout)

    # -- routing -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        path = self.path.split("?", 1)[0]
        if path == "/healthz":
            self._send_json(200, {"ok": True, **self.service.stats()})
        elif path == "/stats":
            self._send_json(200, self.service.stats())
        else:
            self._send_json(404, {"error": f"no such endpoint: {path}"})

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        path, _, query = self.path.partition("?")
        if path != "/studies":
            self._send_json(404, {"error": f"no such endpoint: {path}"})
            return
        stream = "stream=1" in query.split("&") if query else False
        try:
            payload = self._read_body()
            with self.service.admission():
                if stream:
                    self._submit_streaming(payload)
                else:
                    envelope = self.service.submit(payload)
                    self._send_json(200, envelope)
        except ServiceUnavailableError as exc:
            self._send_json(
                503,
                {"error": str(exc)},
                extra_headers={"Retry-After": str(RETRY_AFTER_SECONDS)},
            )
        except ConfigurationError as exc:
            self._send_json(400, {"error": str(exc)})
        except ReproError as exc:
            self._send_json(500, {"error": str(exc)})

    # -- helpers -------------------------------------------------------

    def _read_body(self) -> object:
        # Parse Content-Length strictly — digits only — and *before*
        # rfile.read: ``-1`` reaches socket reads as "until EOF" and a
        # hostile sender could hold the connection open feeding bytes.
        raw = self.headers.get("Content-Length")
        if raw is None:
            raise ConfigurationError(
                "a study submission needs a JSON body (the StudySpec)"
            )
        raw = raw.strip()
        if not (raw.isascii() and raw.isdigit()):
            raise ConfigurationError(
                f"malformed Content-Length header: {raw!r} (must be a "
                f"non-negative decimal integer)"
            )
        length = int(raw)
        if length == 0:
            raise ConfigurationError(
                "a study submission needs a JSON body (the StudySpec)"
            )
        if length > MAX_BODY_BYTES:
            raise ConfigurationError(
                f"submission body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit"
            )
        text = self.rfile.read(length).decode("utf-8", errors="replace")
        return json_loads_exact(text, what="study submission")

    def _submit_streaming(self, payload: object) -> None:
        """NDJSON: accepted, one event per cell, then the envelope.

        The response is length-delimited by connection close
        (``Connection: close``), so no chunked framing is needed and
        any HTTP client that reads to EOF — urllib included — parses
        it.  Spec validation happens *before* the 200 status goes out,
        so malformed submissions still get their clean 400.
        """
        spec_hash, total = self.service.cell_count(payload)
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Connection", "close")
        self.end_headers()
        done = {"count": 0}
        write_lock = threading.Lock()
        # Once the client side of the stream dies (reset, timeout, a
        # reader that closed early) further writes are pointless — and
        # must not raise out of the progress callback, which runs on
        # the thread computing cells *other submissions share*.
        reader_gone = threading.Event()

        def emit(event: Dict[str, object]) -> None:
            if reader_gone.is_set():
                return
            line = json_dumps_exact(event) + "\n"
            with write_lock:
                if reader_gone.is_set():
                    return
                try:
                    self.wfile.write(line.encode("utf-8"))
                    self.wfile.flush()
                except OSError:
                    reader_gone.set()

        emit({"event": "accepted", "spec_hash": spec_hash, "cells": total})

        def progress(plan, record, cached):
            done["count"] += 1
            emit(
                {
                    "event": "cell",
                    "key": plan.key,
                    "cached": cached,
                    "done": done["count"],
                    "total": total,
                }
            )

        try:
            envelope = self.service.submit(payload, progress=progress)
        except ReproError as exc:
            # Too late for an HTTP error status; the stream carries it.
            emit({"event": "error", "error": str(exc)})
            self.close_connection = True
            return
        emit({"event": "result", **envelope})
        self.close_connection = True

    def _send_json(
        self,
        status: int,
        payload: Dict[str, object],
        *,
        extra_headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (json_dumps_exact(payload) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        for name, value in (extra_headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if getattr(self.server, "verbose", False):
            super().log_message(format, *args)


def make_server(
    service: StudyService,
    url: str = DEFAULT_URL,
    *,
    verbose: bool = False,
    request_timeout: Optional[float] = None,
) -> ThreadingHTTPServer:
    """A threaded HTTP server bound per ``url``, serving ``service``.

    Port 0 binds an OS-assigned port (the test path); the bound
    address is ``server.server_address``.  Call ``serve_forever()`` /
    ``shutdown()`` as usual.  ``request_timeout`` arms a per-connection
    socket timeout (seconds) so stalled clients cannot pin handler
    threads; ``None``/``0`` leaves connections unbounded.
    """
    if request_timeout is not None and request_timeout < 0:
        raise ConfigurationError(
            f"request_timeout must be >= 0, got {request_timeout}"
        )
    host, port = parse_service_url(url)
    server = ThreadingHTTPServer((host, port), _Handler)
    server.daemon_threads = True
    server.service = service  # type: ignore[attr-defined]
    server.verbose = verbose  # type: ignore[attr-defined]
    server.request_timeout = request_timeout or None  # type: ignore[attr-defined]
    return server


def serve_forever(
    settings: Optional[ExecutionSettings],
    cache_dir: str,
    url: str = DEFAULT_URL,
    *,
    verbose: bool = False,
    ready: Optional[threading.Event] = None,
    max_pending: Optional[int] = DEFAULT_MAX_PENDING,
    fair_share: Optional[int] = DEFAULT_FAIR_SHARE,
    request_timeout: Optional[float] = DEFAULT_REQUEST_TIMEOUT,
) -> int:
    """Run the daemon until interrupted (the ``repro serve`` body).

    Prints one machine-greppable readiness line (``repro-serve:
    listening on http://host:port cache=DIR``) once the socket is
    bound, so wrappers — the CI smoke job, tests — can wait for it.

    Unlike a bare :class:`StudyService`, the daemon defaults to
    defensive settings — bounded admission, fair-share scheduling,
    per-connection timeouts; pass ``None`` (CLI: ``0``) to disable
    any of them.
    """
    with StudyService(
        settings,
        cache_dir=cache_dir,
        max_pending=max_pending,
        fair_share=fair_share,
    ) as service:
        server = make_server(
            service, url, verbose=verbose, request_timeout=request_timeout
        )
        host, port = server.server_address[:2]
        print(
            f"repro-serve: listening on http://{host}:{port} "
            f"cache={service.cache.directory}",
            flush=True,
        )
        if ready is not None:
            ready.set()
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("repro-serve: shutting down", flush=True)
        finally:
            server.server_close()
    return 0
