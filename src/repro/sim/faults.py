"""Fault-arrival processes for the DMR simulator.

The paper's evaluation injects "faults into system using a Poisson
process" — a single stream of state-divergence events at rate ``λ``
(:class:`PoissonFaults`).  For sensitivity studies the library also
provides:

* :class:`DualPoissonFaults` — independent per-processor streams of
  rate ``λ`` each; any event diverges the pair, so the merged stream is
  Poisson at ``2λ`` (the rate the paper's *analysis* uses);
* :class:`WeibullFaults` — renewal process with Weibull inter-arrivals
  (shape 1 reduces to Poisson); models infant-mortality/wear-out;
* :class:`BurstyFaults` — a two-state Markov-modulated Poisson process
  for radiation-burst environments (e.g. South Atlantic Anomaly
  crossings of the paper's motivating space systems);
* :class:`ScriptedFaults` — an explicit list of arrival times, used by
  the unit tests to exercise exact rollback semantics.

A *process* is an immutable description; calling :meth:`stream` with a
generator yields a :class:`FaultStream` — a stateful iterator of
strictly increasing arrival times in wall-clock time units.  Fault
arrivals are in wall-clock time and therefore independent of the
processor speed, matching the paper's DVS model (slower execution means
longer exposure).

Batching
--------
:class:`FaultStream` pre-draws inter-arrival gaps in chunks — from the
*same* generator in the *same* order a one-gap-at-a-time iterator would
consume them — and keeps a buffer of upcoming arrival times.  Arrival
values are bit-identical to the sequential iterator's: NumPy fills a
``size=n`` draw by repeating the scalar routine against the same bit
stream, and the anchored running sum (``itertools.accumulate`` over
the drawn list) performs the exact left-to-right float additions
``((clock + g₀) + g₁) + …`` the scalar loop performs
(``tests/test_fault_batching.py`` pins this event-for-event for every
process).  Pre-drawing ahead is safe because the stream is its
generator's only consumer: the gap *values* do not depend on when they
are drawn, and each Monte-Carlo rep gets a fresh substream, so
over-drawn gaps are simply discarded with the stream.

On top of ``peek``/``pop`` the buffer enables :meth:`take_until` — all
arrivals inside a time segment in one ``searchsorted`` — which is what
lets the executor hot loop resolve a segment's faults without one
Python call per event.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Iterable, List, Optional

import numpy as np

from repro.errors import ParameterError

__all__ = [
    "FaultStream",
    "FaultProcess",
    "PoissonFaults",
    "DualPoissonFaults",
    "WeibullFaults",
    "BurstyFaults",
    "ScriptedFaults",
]


#: First chunk of gaps pre-drawn by a growing stream; doubles per
#: refill up to :data:`_MAX_CHUNK`.  Small, because the typical rep
#: sees only a handful of faults and over-drawing costs a little time
#: (never correctness — see module docstring).
_INITIAL_CHUNK = 16
_MAX_CHUNK = 4096

_NO_TIMES: List[float] = []


class FaultStream:
    """Stateful view of one realisation of a fault process.

    ``peek()`` returns the next arrival time without consuming it;
    ``pop()`` consumes and returns it; :meth:`take_until` consumes and
    returns every arrival inside a segment at once.  Arrivals are
    strictly increasing; an exhausted stream reports ``inf``.

    Gaps are pre-drawn in chunks (vectorised via ``draw_gaps`` when the
    process provides it, otherwise by looping ``draw_gap``) and turned
    into arrival times with an anchored running sum — bit-identical
    to the sequential ``clock + gap`` iterator, whatever mix of
    ``peek``/``pop``/``take_until`` the caller interleaves.  ``chunk``
    fixes the pre-draw size (``chunk=1`` reproduces the legacy
    one-at-a-time laziness exactly); ``None`` grows it geometrically.
    """

    __slots__ = (
        "_draw_gap",
        "_draw_gaps",
        "_clock",
        "_times",
        "_pos",
        "_exhausted",
        "_chunk",
        "_fixed_chunk",
    )

    def __init__(
        self,
        draw_gap: Callable[[], Optional[float]],
        start: float = 0.0,
        *,
        draw_gaps: Optional[Callable[[int], np.ndarray]] = None,
        chunk: Optional[int] = None,
    ) -> None:
        if chunk is not None and chunk < 1:
            raise ParameterError(f"chunk must be >= 1, got {chunk}")
        self._draw_gap = draw_gap
        self._draw_gaps = draw_gaps
        self._clock = float(start)
        self._times: List[float] = _NO_TIMES
        self._pos = 0
        self._exhausted = False
        self._chunk = chunk if chunk is not None else _INITIAL_CHUNK
        self._fixed_chunk = chunk is not None

    def _refill(self) -> bool:
        """Pre-draw the next chunk of gaps; False once exhausted."""
        if self._exhausted:
            return False
        n = self._chunk
        if not self._fixed_chunk and self._chunk < _MAX_CHUNK:
            self._chunk = min(self._chunk * 2, _MAX_CHUNK)
        if self._draw_gaps is not None:
            drawn = self._draw_gaps(n).tolist()
        else:
            drawn = []
            draw = self._draw_gap
            for _ in range(n):
                gap = draw()
                if gap is None:
                    self._exhausted = True
                    break
                drawn.append(float(gap))
            if not drawn:
                return False
        # Anchored running sum: exactly the scalar iterator's
        # ((clock + g0) + g1) + … left-to-right float additions.  The
        # buffer is a plain list: arrival consumption is per-event
        # Python code in the executor, where list indexing and
        # bisection beat NumPy scalar access by several times.
        drawn[0] += self._clock
        times = list(accumulate(drawn))
        self._clock = times[-1]
        self._times = times
        self._pos = 0
        return True

    def peek(self) -> float:
        """Time of the next fault (``inf`` if none will ever occur)."""
        if self._pos >= len(self._times) and not self._refill():
            return math.inf
        return self._times[self._pos]

    def pop(self) -> float:
        """Consume and return the next fault time."""
        if self._pos >= len(self._times) and not self._refill():
            return math.inf
        value = self._times[self._pos]
        self._pos += 1
        return value

    def take_until(self, time: float) -> List[float]:
        """Consume and return every arrival at or before ``time``.

        The executor hot path: one binary search (``searchsorted``
        semantics, ``side='right'``) per buffered chunk instead of a
        ``peek``/``pop`` call pair per event.  Returns the arrivals in
        order (possibly empty).  Equivalent to popping while
        ``peek() <= time``.
        """
        taken: Optional[List[float]] = None
        while True:
            times = self._times
            pos = self._pos
            if pos >= len(times):
                if not self._refill():
                    break
                continue
            idx = bisect_right(times, time, pos)
            if idx <= pos:
                break
            if taken is None:
                taken = times[pos:idx]
            else:
                taken.extend(times[pos:idx])
            self._pos = idx
            if idx < len(times):
                break
        # A fresh list on the empty path: callers own the return value,
        # and handing out a shared sentinel would let one caller's
        # mutation corrupt every stream in the process.
        return [] if taken is None else taken

    def drain_until(self, time: float):
        """``(take_until(time), peek())`` in one call.

        The executor's per-segment shape: consume the segment's
        arrivals *and* learn the next pending arrival without a second
        method call.  The common case — everything needed is already
        buffered — is a single bisection.
        """
        times = self._times
        pos = self._pos
        if pos < len(times):
            idx = bisect_right(times, time, pos)
            if idx < len(times):  # next arrival still buffered
                self._pos = idx
                return times[pos:idx], times[idx]
        return self.take_until(time), self.peek()

    def advance_past(self, time: float) -> int:
        """Consume every arrival at or before ``time``; return count."""
        return int(len(self.take_until(time)))


class FaultProcess:
    """Base class: a distribution over fault-arrival traces.

    ``stream(rng)`` yields a batched :class:`FaultStream`;
    ``stream(rng, chunk=1)`` pins the pre-draw size (``1`` reproduces
    the legacy one-gap-at-a-time laziness, the conformance tests'
    reference) — either way the arrival sequence is identical.
    """

    def stream(
        self, rng: np.random.Generator, *, chunk: Optional[int] = None
    ) -> FaultStream:
        raise NotImplementedError

    def block_gaps(
        self, rng: np.random.Generator, rows: int, cols: int
    ) -> Optional[np.ndarray]:
        """A ``(rows, cols)`` matrix of inter-arrival gaps, or ``None``.

        The fast kernel's bulk pre-draw (:mod:`repro.sim.kernel`): one
        vectorised draw covers a whole rep block, one row per rep.
        Processes whose gaps are i.i.d. override this; processes with
        per-gap state machines (:class:`BurstyFaults`) return ``None``
        and the kernel falls back to the exact per-rep path.  The draw
        order (row-major from one generator) is part of fast mode's
        block-determinism contract — it must not depend on which rep
        triggered the draw.
        """
        return None

    @property
    def mean_rate(self) -> float:
        """Long-run average arrivals per time unit (for analysis)."""
        raise NotImplementedError


@dataclass(frozen=True)
class PoissonFaults(FaultProcess):
    """Single Poisson stream at rate ``rate`` (the paper's injector)."""

    rate: float

    def __post_init__(self) -> None:
        if self.rate < 0:
            raise ParameterError(f"rate must be >= 0, got {self.rate}")

    def stream(
        self, rng: np.random.Generator, *, chunk: Optional[int] = None
    ) -> FaultStream:
        if self.rate == 0:
            return FaultStream(lambda: None, chunk=chunk)
        scale = 1.0 / self.rate
        return FaultStream(
            lambda: rng.exponential(scale),
            draw_gaps=lambda n: rng.exponential(scale, size=n),
            chunk=chunk,
        )

    def block_gaps(
        self, rng: np.random.Generator, rows: int, cols: int
    ) -> Optional[np.ndarray]:
        if self.rate == 0:
            return np.full((rows, cols), math.inf)
        return rng.exponential(1.0 / self.rate, size=(rows, cols))

    @property
    def mean_rate(self) -> float:
        return self.rate


@dataclass(frozen=True)
class DualPoissonFaults(FaultProcess):
    """Independent Poisson faults on each of the two processors.

    Any single-processor fault diverges the pair state, so the merged
    divergence stream is Poisson with rate ``2·rate_per_processor``.
    """

    rate_per_processor: float

    def __post_init__(self) -> None:
        if self.rate_per_processor < 0:
            raise ParameterError(
                f"rate_per_processor must be >= 0, got {self.rate_per_processor}"
            )

    def stream(
        self, rng: np.random.Generator, *, chunk: Optional[int] = None
    ) -> FaultStream:
        merged = 2.0 * self.rate_per_processor
        if merged == 0:
            return FaultStream(lambda: None, chunk=chunk)
        scale = 1.0 / merged
        return FaultStream(
            lambda: rng.exponential(scale),
            draw_gaps=lambda n: rng.exponential(scale, size=n),
            chunk=chunk,
        )

    def block_gaps(
        self, rng: np.random.Generator, rows: int, cols: int
    ) -> Optional[np.ndarray]:
        merged = 2.0 * self.rate_per_processor
        if merged == 0:
            return np.full((rows, cols), math.inf)
        return rng.exponential(1.0 / merged, size=(rows, cols))

    @property
    def mean_rate(self) -> float:
        return 2.0 * self.rate_per_processor


@dataclass(frozen=True)
class WeibullFaults(FaultProcess):
    """Renewal process with Weibull(shape, scale) inter-arrival times.

    ``shape < 1`` models infant mortality (bursty early failures),
    ``shape > 1`` wear-out.  ``shape = 1`` is exponential with rate
    ``1/scale``.
    """

    shape: float
    scale: float

    def __post_init__(self) -> None:
        if self.shape <= 0:
            raise ParameterError(f"shape must be > 0, got {self.shape}")
        if self.scale <= 0:
            raise ParameterError(f"scale must be > 0, got {self.scale}")

    def stream(
        self, rng: np.random.Generator, *, chunk: Optional[int] = None
    ) -> FaultStream:
        shape, scale = self.shape, self.scale
        return FaultStream(
            lambda: scale * rng.weibull(shape),
            draw_gaps=lambda n: scale * rng.weibull(shape, size=n),
            chunk=chunk,
        )

    def block_gaps(
        self, rng: np.random.Generator, rows: int, cols: int
    ) -> Optional[np.ndarray]:
        return self.scale * rng.weibull(self.shape, size=(rows, cols))

    @property
    def mean_rate(self) -> float:
        return 1.0 / (self.scale * math.gamma(1.0 + 1.0 / self.shape))


@dataclass(frozen=True)
class BurstyFaults(FaultProcess):
    """Two-state MMPP: quiet rate / burst rate with exponential dwell.

    The process alternates between a quiet state (arrival rate
    ``quiet_rate``, mean dwell ``quiet_dwell``) and a burst state
    (``burst_rate``, ``burst_dwell``).  Arrivals inside each state are
    Poisson.  Models environments such as orbital radiation-belt
    crossings.
    """

    quiet_rate: float
    burst_rate: float
    quiet_dwell: float
    burst_dwell: float

    def __post_init__(self) -> None:
        if self.quiet_rate < 0 or self.burst_rate < 0:
            raise ParameterError("rates must be >= 0")
        if self.quiet_dwell <= 0 or self.burst_dwell <= 0:
            raise ParameterError("dwell times must be > 0")

    def stream(
        self, rng: np.random.Generator, *, chunk: Optional[int] = None
    ) -> FaultStream:
        state = {"bursting": False, "until": rng.exponential(self.quiet_dwell)}
        process = self

        def draw_gap() -> float:
            # Piece together exponential fragments across state changes
            # (memorylessness makes restarting the draw in the new state
            # statistically exact).  state["until"] holds the remaining
            # dwell time of the current regime.
            gap = 0.0
            while True:
                rate = process.burst_rate if state["bursting"] else process.quiet_rate
                window = state["until"]
                candidate = rng.exponential(1.0 / rate) if rate > 0 else math.inf
                if candidate <= window:
                    state["until"] = window - candidate
                    return gap + candidate
                gap += window
                state["bursting"] = not state["bursting"]
                dwell = (
                    process.burst_dwell if state["bursting"] else process.quiet_dwell
                )
                state["until"] = rng.exponential(dwell)

        # The MMPP state machine consumes a variable number of draws
        # per gap, so gaps stay scalar; the stream still pre-draws and
        # buffers them in chunks.
        return FaultStream(draw_gap, chunk=chunk)

    @property
    def mean_rate(self) -> float:
        total = self.quiet_dwell + self.burst_dwell
        return (
            self.quiet_rate * self.quiet_dwell + self.burst_rate * self.burst_dwell
        ) / total


@dataclass(frozen=True)
class ScriptedFaults(FaultProcess):
    """Deterministic fault times — the unit tests' scalpel."""

    times: tuple

    def __init__(self, times: Iterable[float]) -> None:
        ordered = tuple(float(t) for t in times)
        if any(b <= a for a, b in zip(ordered, ordered[1:])):
            raise ParameterError("scripted fault times must be strictly increasing")
        if any(t < 0 for t in ordered):
            raise ParameterError("scripted fault times must be >= 0")
        object.__setattr__(self, "times", ordered)

    def stream(
        self,
        rng: np.random.Generator = None,  # noqa: ARG002
        *,
        chunk: Optional[int] = None,
    ) -> FaultStream:
        remaining: List[float] = list(self.times)
        last = [0.0]

        def draw_gap() -> Optional[float]:
            if not remaining:
                return None
            nxt = remaining.pop(0)
            gap = nxt - last[0]
            last[0] = nxt
            return gap

        return FaultStream(draw_gap, chunk=chunk)

    @property
    def mean_rate(self) -> float:
        if not self.times:
            return 0.0
        horizon = self.times[-1]
        return len(self.times) / horizon if horizon > 0 else math.inf
