"""Exception hierarchy for the :mod:`repro` library.

Every error raised deliberately by the library derives from
:class:`ReproError`, so callers can catch library failures without
accidentally swallowing genuine programming errors.  :func:`require_count`
is the one rule for what a count (reps, seed, block size, workers) is.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ParameterError(ReproError, ValueError):
    """A model parameter is outside its mathematically valid domain."""


class InfeasibleError(ReproError):
    """The requested configuration can never meet its deadline.

    Raised by analytical routines when asked for a quantity that does
    not exist (for example a finite checkpoint interval for a task whose
    fault-free execution time already exceeds the deadline).  The
    simulator never raises this: an infeasible run simply completes with
    ``timely=False``.
    """


class SimulationError(ReproError):
    """The simulator detected an internal inconsistency.

    This signals a bug (e.g. the event loop exceeded its safety bound),
    never an ordinary task failure.
    """


class ConfigurationError(ReproError):
    """An experiment/table specification is malformed or unknown."""


class ServiceUnavailableError(ReproError):
    """The study service is saturated; retry after backing off.

    Raised when a submission arrives while the service's bounded
    admission queue is full.  The HTTP layer maps it to ``503`` with a
    ``Retry-After`` header, and the client's retry loop honours it —
    resubmitting is always safe because study submissions are
    idempotent (content-addressed cell cache, deterministic results).
    """


def require_count(
    name: str, value: int, minimum: int, error: type = ParameterError
) -> int:
    """``value`` if it is an int >= ``minimum``; otherwise raise ``error``.

    Floats and bools are refused, not truncated: a count sizes a pool or
    a block, seeds a study or sets its rep count, and ``int(100.7)``
    would run a different study.
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise error(f"{name} must be >= {minimum}, got {value}")
    return value
