"""Benchmark plumbing shared by every workload.

* :class:`OpLog` keeps every op attempted in a window with its latency,
  outcome and output, so a check that runs after the window can still
  fail the op it belongs to.
* :func:`latency_summary` gives the median and the tail: the highest
  order statistic that still has :data:`TAIL_BEYOND` samples above it.
* :func:`closed_loop` drives the ops of one seeded sequence with a fixed
  number of client threads, each waiting for its reply.
* :func:`peak_rss_mb` reads the peak resident memory of this process and
  of every process it started.
* :class:`Tracer` wraps public calls of the program from outside it and
  records spans (name, layer, start, end, parent, op) in memory, call
  counts and inclusive time per op, and self time per layer.
"""

from __future__ import annotations

import itertools
import json
import os
import resource
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

#: Samples that must lie above the reported tail latency.
TAIL_BEYOND = 10


class OpFailed(Exception):
    """An op that ran but produced a wrong or failed result."""


# -- statistics ----------------------------------------------------------


def tail_index(count: int) -> int:
    """Ascending index of the reported tail among ``count`` samples.

    The highest sample with :data:`TAIL_BEYOND` samples above it; with
    too few samples for any such percentile, the maximum.
    """
    if count < 1:
        raise ValueError("no samples")
    if count <= TAIL_BEYOND:
        return count - 1
    return count - TAIL_BEYOND - 1


def latency_summary(seconds: Sequence[float]) -> Dict[str, float]:
    """Median and tail latency in ms, the tail's percentile and sample count."""
    ordered = sorted(seconds)
    if not ordered:
        raise ValueError("no successful op to take a latency from")
    index = tail_index(len(ordered))
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[index] * 1e3,
        "tail_percentile": 100.0 * (index + 1) / len(ordered),
        "beyond": len(ordered) - index - 1,
        "samples": len(ordered),
    }


# -- op accounting -------------------------------------------------------


class OpLog:
    """Every op attempted in a window: op, latency, error and output.

    An op fails at most once: on an exception while it ran, or when a
    later check calls :meth:`fail` on its index.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.ops: List[object] = []
        self.latencies: List[float] = []
        self.errors: List[Optional[str]] = []
        self.outputs: List[object] = []
        #: Ops in the order they were issued; an op's position here is
        #: the op id its trace spans carry.
        self.issued: List[object] = []

    def record(
        self, op: object, seconds: float, error: Optional[str], output: object
    ) -> int:
        with self._lock:
            self.ops.append(op)
            self.latencies.append(seconds)
            self.errors.append(error)
            self.outputs.append(output)
            return len(self.ops) - 1

    def fail(self, index: int, reason: str) -> None:
        with self._lock:
            if self.errors[index] is None:
                self.errors[index] = reason

    @property
    def attempted(self) -> int:
        return len(self.ops)

    @property
    def failed(self) -> int:
        return sum(error is not None for error in self.errors)

    def succeeded(self) -> Iterator[Tuple[int, object, object]]:
        """``(index, op, output)`` of every op that has not failed."""
        for index, (op, error, output) in enumerate(
            zip(self.ops, self.errors, self.outputs)
        ):
            if error is None:
                yield index, op, output

    def ok_latencies(self) -> List[float]:
        return [
            seconds
            for seconds, error in zip(self.latencies, self.errors)
            if error is None
        ]

    def failure_reasons(self) -> List[str]:
        return [error for error in self.errors if error is not None]


def closed_loop(
    next_op: Callable[[], Optional[object]],
    run_op: Callable[[object], object],
    *,
    clients: int,
    log: OpLog,
    tracer: Optional["Tracer"] = None,
    op_layer: str = "bench",
) -> float:
    """Run every op of a sequence; return the wall time it took.

    Each client thread takes the next op from one shared sequence and
    waits for it before taking another; ``next_op`` returns ``None``
    when the sequence ends.  ``run_op`` returns the op's output or
    raises; any exception counts as one failed op.  With a ``tracer``,
    each op is a span of layer ``op_layer`` whose op id is its position
    in :attr:`OpLog.issued`.
    """
    lock = threading.Lock()
    started = time.perf_counter()

    def client() -> None:
        while True:
            with lock:
                op = next_op()
                if op is None:
                    return
                index = len(log.issued)
                log.issued.append(op)
            began = time.perf_counter()
            error: Optional[str] = None
            output: object = None
            try:
                if tracer is None:
                    output = run_op(op)
                else:
                    with tracer.op(index, op_layer):
                        output = run_op(op)
            except Exception as exc:  # one failed op, not a failed run
                error = f"{type(exc).__name__}: {exc}"
            log.record(op, time.perf_counter() - began, error, output)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - started


# -- memory --------------------------------------------------------------


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _descendants(root: int) -> List[int]:
    """Live descendants of ``root``, from ``/proc`` (Linux)."""
    children: Dict[int, List[int]] = defaultdict(list)
    try:
        entries = os.listdir("/proc")
    except OSError:
        return []
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as handle:
                stat = handle.read()
        except OSError:
            continue
        # The command name may hold spaces; the ppid follows its ')'.
        fields = stat.rsplit(")", 1)[-1].split()
        if len(fields) > 1:
            children[int(fields[1])].append(int(entry))
    found: List[int] = []
    frontier = [root]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, ()):
            found.append(child)
            frontier.append(child)
    return found


def peak_rss_mb() -> float:
    """Peak RSS of the largest process in this run so far, in MB.

    Covers this process, every child already waited for (CLI commands,
    joined pool workers) and every live descendant (the service).
    """
    peaks_kb = [
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    ]
    peaks_kb.extend(_status_kb(pid, "VmHWM") for pid in _descendants(os.getpid()))
    return max(peaks_kb) / 1024.0


# -- tracing -------------------------------------------------------------

#: (id, parent id, name, layer, start, end, op id)
Span = Tuple[int, int, str, str, float, float, int]

#: What to wrap: (owner, attribute, name, layer, keep_span).  ``owner``
#: is a module or a class; hot calls pass ``keep_span=False`` and are
#: only counted and timed.
Target = Tuple[object, str, str, str, bool]


class Tracer:
    """Times and counts wrapped public calls, kept in memory until the end.

    Every wrapped call is a frame on a per-thread stack: its duration
    goes to its own name (per op) and, minus the time of the calls it
    made, to its layer's self time.  Frames with ``keep_span`` also
    become spans.  Calls made in another process (a forked pool worker
    inherits the wrappers) bypass the tracer.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.calls: Counter = Counter()  # (op, name) -> calls
        self.seconds: Counter = Counter()  # (op, name) -> inclusive seconds
        self.self_seconds: Counter = Counter()  # layer -> self seconds
        self.events: Dict[str, List[object]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._pid = os.getpid()

    # -- frames ----------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []  # open frames, innermost last (see _enter)
            local.op = 0
        return local

    @contextmanager
    def op(self, op_id: int, layer: str = "bench") -> Iterator[None]:
        """Attribute every call on this thread to op ``op_id``."""
        state = self._state()
        previous = state.op
        state.op = op_id
        try:
            with self.frame("op", layer, keep_span=True):
                yield
        finally:
            state.op = previous

    @contextmanager
    def frame(self, name: str, layer: str, *, keep_span: bool) -> Iterator[None]:
        entry = self._enter(keep_span)
        try:
            yield
        finally:
            self._exit(entry, name, layer)

    def _enter(self, keep_span: bool) -> list:
        state = self._state()
        stack = state.stack
        parent = stack[-1][0] if stack else 0
        # [span id, child seconds, parent span id, start]
        entry = [next(self._ids) if keep_span else 0, 0.0, parent, 0.0]
        stack.append(entry)
        entry[3] = time.perf_counter()
        return entry

    def _exit(self, entry: list, name: str, layer: str) -> None:
        ended = time.perf_counter()
        state = self._local
        stack = state.stack
        stack.pop()
        duration = ended - entry[3]
        if stack:
            stack[-1][1] += duration
        op_id = state.op
        with self._lock:
            self.calls[(op_id, name)] += 1
            self.seconds[(op_id, name)] += duration
            self.self_seconds[layer] += duration - entry[1]
            if entry[0]:
                self.spans.append(
                    (entry[0], entry[2], name, layer, entry[3], ended, op_id)
                )

    def note(self, key: str, value: object) -> None:
        """Record one observation of ``key`` (e.g. a message size)."""
        with self._lock:
            self.events[key].append((self._state().op, value))

    # -- wrapping --------------------------------------------------------

    def _wrapper(self, original: Callable, name: str, layer: str, keep_span: bool):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return original(*args, **kwargs)
            entry = tracer._enter(keep_span)
            try:
                return original(*args, **kwargs)
            finally:
                tracer._exit(entry, name, layer)

        traced.__wrapped__ = original  # type: ignore[attr-defined]
        return traced

    @contextmanager
    def wrapped(
        self,
        targets: Sequence[Target],
        hooks: Sequence[Tuple[object, str, Callable]] = (),
    ) -> Iterator[None]:
        """Install wrappers on ``targets`` and ``hooks``; restore on exit.

        A module function is also replaced in every ``repro`` module that
        imported it by name, so every caller goes through the wrapper.
        A hook ``(owner, attribute, make)`` installs ``make(original)``.
        """
        restore: List[Tuple[object, str, object]] = []

        def replace(owner: object, attribute: str, wrapper: object) -> None:
            original = vars(owner)[attribute]
            holders = [owner]
            if not isinstance(owner, type):
                holders.extend(
                    module
                    for module_name, module in list(sys.modules.items())
                    if module_name.startswith("repro") and module is not owner
                )
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        restore.append((holder, key, value))
                        setattr(holder, key, wrapper)

        try:
            for owner, attribute, name, layer, keep_span in targets:
                original = vars(owner)[attribute]
                if isinstance(original, (staticmethod, classmethod)):
                    raise TypeError(f"cannot trace {name}: not a plain function")
                replace(owner, attribute, self._wrapper(original, name, layer, keep_span))
            for owner, attribute, make in hooks:
                replace(owner, attribute, make(vars(owner)[attribute]))
            yield
        finally:
            for holder, key, value in reversed(restore):
                setattr(holder, key, value)

    # -- derived figures -------------------------------------------------

    def total_calls(self, name: str, ops: Optional[Sequence[int]] = None) -> int:
        return sum(
            count
            for (op_id, key), count in self.calls.items()
            if key == name and (ops is None or op_id in ops)
        )

    def total_seconds(self, name: str, ops: Optional[Sequence[int]] = None) -> float:
        return sum(
            seconds
            for (op_id, key), seconds in self.seconds.items()
            if key == name and (ops is None or op_id in ops)
        )

    def mean_us(self, name: str) -> float:
        calls = self.total_calls(name)
        return self.total_seconds(name) / calls * 1e6 if calls else 0.0

    def write(self, path: str) -> None:
        """Write every span once, as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, layer, start, end, op in self.spans:
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "name": name,
                            "layer": layer,
                            "start": start,
                            "end": end,
                            "op": op,
                        }
                    )
                    + "\n"
                )
