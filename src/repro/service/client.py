"""The client half of the study service: ``repro submit`` internals.

Thin stdlib-``urllib`` wrappers over the daemon's HTTP API — no
third-party HTTP dependency, matching the repo's no-new-deps rule.
Service-side validation failures (HTTP 4xx) surface as
:class:`~repro.errors.ConfigurationError` and execution failures (5xx)
as :class:`~repro.errors.SimulationError`, so CLI error handling is
the same for remote and local runs: one ``ReproError`` → exit 2 path.
"""

from __future__ import annotations

import json
import random
import time
from typing import Callable, Dict, Optional
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from repro.api.results import json_dumps_exact, json_loads_exact
from repro.errors import (
    ConfigurationError,
    ServiceUnavailableError,
    SimulationError,
)

__all__ = ["submit_study", "fetch_stats", "wait_until_ready", "DEFAULT_URL"]

#: Where ``repro serve`` binds and ``repro submit`` connects without a URL.
DEFAULT_URL = "http://127.0.0.1:8750"

#: Per-request ceiling; a submission holds the connection open while
#: the service computes, so this bounds one whole study, not one RTT.
DEFAULT_TIMEOUT = 600.0

#: Transient-failure retries (connection refused during a service
#: restart, 503 from a saturated admission queue) before giving up.
#: Safe to retry by construction: a submission is idempotent — the
#: content-addressed cache means a duplicate costs lookups, not
#: recomputation — and both failure modes happen before any response
#: body, so a stream is never half-consumed.
DEFAULT_RETRIES = 3

_BACKOFF_BASE = 0.2  # seconds; doubles per attempt
_BACKOFF_CAP = 5.0
_RETRY_AFTER_CAP = 10.0  # never sleep longer than this on a 503 hint

#: Stream event callback: the decoded NDJSON event dict.
EventCallback = Callable[[Dict[str, object]], None]


def _service_error(exc: HTTPError) -> Exception:
    """Map an HTTP error response to the repo's error taxonomy."""
    try:
        detail = json.loads(exc.read().decode("utf-8", errors="replace"))
        message = detail.get("error", "") if isinstance(detail, dict) else ""
    except (ValueError, OSError):
        message = ""
    message = message or f"HTTP {exc.code} from the study service"
    if exc.code == 503:
        return ServiceUnavailableError(
            f"study service is saturated: {message}"
        )
    if 400 <= exc.code < 500:
        return ConfigurationError(f"service rejected the submission: {message}")
    return SimulationError(f"service failed running the study: {message}")


def _retry_delay(attempt: int, retry_after: Optional[str] = None) -> float:
    """Jittered exponential backoff, stretched to any ``Retry-After``.

    Jitter (0.5×–1.5×) keeps a burst of rejected clients from
    re-arriving in lockstep and tripping the admission bound again in
    unison.  A parseable ``Retry-After`` raises the floor (capped — a
    confused server must not park clients for minutes).
    """
    delay = min(_BACKOFF_BASE * (2 ** attempt), _BACKOFF_CAP)
    if retry_after is not None:
        try:
            hinted = float(retry_after)
        except ValueError:
            hinted = 0.0
        delay = max(delay, min(hinted, _RETRY_AFTER_CAP))
    return delay * (0.5 + random.random())


def submit_study(
    url: str,
    spec_payload: object,
    *,
    stream: bool = False,
    on_event: Optional[EventCallback] = None,
    timeout: float = DEFAULT_TIMEOUT,
    retries: int = DEFAULT_RETRIES,
) -> Dict[str, object]:
    """POST one StudySpec payload to a running service; return the envelope.

    The envelope is the service's response dict: ``spec_hash``,
    ``cells``, ``computed``, ``cached``, and ``result`` (a full
    :meth:`~repro.api.results.ResultSet.to_dict` payload — feed it to
    ``ResultSet.from_dict`` and the set is byte-compatible with a
    local ``Study.run`` save of the same study).

    With ``stream=True`` the submission uses the NDJSON endpoint;
    ``on_event`` fires per decoded event (``accepted``, one ``cell``
    per resolved cell, then ``result``) and the ``result`` event —
    minus its ``event`` tag — is returned.

    Transient failures — connection errors and 503 rejections from a
    saturated service — are retried up to ``retries`` times with
    jittered exponential backoff (honouring ``Retry-After``, capped).
    Pass ``retries=0`` to fail fast.  Non-transient errors (4xx
    validation, 5xx execution failures, mid-stream errors) never
    retry.
    """
    if retries < 0:
        raise ConfigurationError(f"retries must be >= 0, got {retries}")
    endpoint = url.rstrip("/") + "/studies" + ("?stream=1" if stream else "")
    body = json_dumps_exact(spec_payload).encode("utf-8")
    for attempt in range(retries + 1):
        request = Request(
            endpoint, data=body, headers={"Content-Type": "application/json"}
        )
        try:
            with urlopen(request, timeout=timeout) as response:
                if not stream:
                    text = response.read().decode("utf-8")
                    envelope = json_loads_exact(text, what="service response")
                    if not isinstance(envelope, dict):
                        raise ConfigurationError(
                            "service response is not a JSON object"
                        )
                    return envelope
                return _consume_stream(response, on_event)
        except HTTPError as exc:
            if exc.code != 503 or attempt >= retries:
                raise _service_error(exc) from exc
            delay = _retry_delay(attempt, exc.headers.get("Retry-After"))
        except URLError as exc:
            if attempt >= retries:
                raise ConfigurationError(
                    f"cannot reach the study service at {url!r}"
                    + (f" after {attempt + 1} attempts" if retries else "")
                    + f": {exc.reason}"
                ) from exc
            delay = _retry_delay(attempt)
        time.sleep(delay)
    raise AssertionError("unreachable: the retry loop returns or raises")


def _consume_stream(response, on_event: Optional[EventCallback]) -> Dict[str, object]:
    """Drain an NDJSON study stream; return the final result envelope."""
    envelope: Optional[Dict[str, object]] = None
    for raw_line in response:
        line = raw_line.decode("utf-8").strip()
        if not line:
            continue
        event = json_loads_exact(line, what="service stream event")
        if not isinstance(event, dict):
            raise ConfigurationError("service stream event is not an object")
        if on_event is not None:
            on_event(event)
        tag = event.get("event")
        if tag == "error":
            raise SimulationError(
                f"service failed mid-stream: {event.get('error', 'unknown')}"
            )
        if tag == "result":
            envelope = {k: v for k, v in event.items() if k != "event"}
    if envelope is None:
        raise SimulationError(
            "service stream ended without a result event"
        )
    return envelope


def fetch_stats(url: str, *, timeout: float = 10.0) -> Dict[str, object]:
    """The service's ``/stats`` payload (cache + scheduler counters)."""
    endpoint = url.rstrip("/") + "/stats"
    try:
        with urlopen(endpoint, timeout=timeout) as response:
            payload = json_loads_exact(
                response.read().decode("utf-8"), what="service stats"
            )
    except HTTPError as exc:
        raise _service_error(exc) from exc
    except URLError as exc:
        raise ConfigurationError(
            f"cannot reach the study service at {url!r}: {exc.reason}"
        ) from exc
    if not isinstance(payload, dict):
        raise ConfigurationError("service stats response is not a JSON object")
    return payload


def wait_until_ready(
    url: str, *, timeout: float = 10.0, interval: float = 0.05
) -> None:
    """Block until ``/healthz`` answers, or raise after ``timeout``.

    The test/CI helper for "start the daemon, then submit": polls the
    liveness endpoint so callers need no sleep guesswork.
    """
    endpoint = url.rstrip("/") + "/healthz"
    deadline = time.monotonic() + timeout
    last_error: Optional[Exception] = None
    while time.monotonic() < deadline:
        try:
            with urlopen(endpoint, timeout=interval + 1.0) as response:
                if response.status == 200:
                    return
        except (URLError, OSError) as exc:
            last_error = exc
        time.sleep(interval)
    raise ConfigurationError(
        f"study service at {url!r} did not become ready within "
        f"{timeout:g}s" + (f" (last error: {last_error})" if last_error else "")
    )
