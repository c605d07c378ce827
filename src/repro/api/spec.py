"""Declarative study specifications: one dataclass for every experiment.

A :class:`StudySpec` expresses an experiment the way the paper's own
harness would — as data: which kind of study, which published table
anchors the costs and schemes, which grid axes, how many reps, which
seed.  It serialises to/from JSON (``repro run spec.json``), hashes
stably (:attr:`StudySpec.spec_hash` — the provenance tag every
:class:`~repro.api.results.ResultSet` record carries), and expands to
the canonical cell list via :mod:`repro.api.plans`.  The kinds are
:data:`STUDY_KINDS`, each summarised in :data:`KIND_SUMMARIES`
(``repro run --list-kinds``).

Unset ``reps``/``seed`` (and kind-specific axes) resolve to per-kind
defaults (:meth:`StudySpec.resolved`), so a minimal spec like
``{"kind": "table", "table": "1a"}`` is table 1a at 2000 reps and
seed 2006, and hashes like its spelled-out twin.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, fields, replace
from typing import Dict, List, Optional, Tuple

from repro.api.plans import (
    CellPlan,
    fixed_m_cells,
    frontier_cells,
    operating_map_cells,
    rate_factor_cells,
    row_cells,
    table_cells,
    taskset_cells,
    utilization_cells,
)
from repro.choices import KERNEL_NAMES, KIND_SUMMARIES, STUDY_KINDS
from repro.errors import ConfigurationError, ParameterError
from repro.experiments.config import TableSpec, table_spec
from repro.rts.generators import WORKLOAD_PATTERNS

__all__ = ["StudySpec", "STUDY_KINDS", "KIND_SUMMARIES"]

#: Per-kind (reps, seed) defaults.  A minimal spec resolves to them
#: before hashing, so changing one changes what existing specs mean.
_KIND_DEFAULTS = {
    "table": (2000, 2006),
    "row": (2000, 2006),
    "fixed_m": (1000, 0),
    "rate_factor": (1000, 0),
    "utilization": (500, 0),
    "operating_map": (300, 0),
    "taskset": (200, 0),
    "frontier": (1000, 0),
}

#: Default fixed subdivisions (the CLI's ablation grid).
_DEFAULT_MS = (1, 2, 4, 8, 16)
#: Default analysis-rate factors: the simulation's λ and the paper's
#: equations' 2λ.
_DEFAULT_FACTORS = (1.0, 2.0)
#: Taskset-study defaults: the curated pattern mix, a moderate
#: utilization grid, and the workload engine's own parameters.
_DEFAULT_PATTERNS = ("light", "bursty", "heavy")
_DEFAULT_TASKSET_U_GRID = (0.5, 0.7, 0.9)
_DEFAULT_TASKSET_LAM = 1e-4
_DEFAULT_N_TASKS = 4
_DEFAULT_HORIZON = 20_000.0
_DEFAULT_SCHED = "edf"
#: Candidate frequency ladder (taskset selection / frontier sweep axis).
_DEFAULT_FREQS = (1.0, 2.0)

#: Axis fields each kind may set.  Anything else is rejected at
#: construction: a stray axis would be silently ignored by ``cells()``
#: but still change ``spec_hash``, making two identical studies refuse
#: to resume from each other.
_KIND_AXES = {
    "table": frozenset(),
    "row": frozenset({"u", "lam"}),
    "fixed_m": frozenset({"u", "lam", "ms"}),
    "rate_factor": frozenset({"u", "lam", "factors"}),
    "utilization": frozenset({"lam", "u_grid"}),
    "operating_map": frozenset({"u_grid", "lam_grid"}),
    "taskset": frozenset(
        {"lam", "u_grid", "patterns", "n_tasks", "horizon", "sched", "freqs"}
    ),
    "frontier": frozenset({"u", "lam", "ms", "freqs"}),
}
_AXIS_FIELDS = (
    "u",
    "lam",
    "u_grid",
    "lam_grid",
    "ms",
    "factors",
    "patterns",
    "n_tasks",
    "horizon",
    "sched",
    "freqs",
)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _coerce(value, kind):
    """``value`` as an exact int/finite float, or raise (never truncate).

    A seed of ``1.5`` silently truncated to ``1`` would compute the
    estimates of seed 1 under a different spec hash — refuse instead.
    """
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigurationError(f"not a number: {value!r}")
    if kind is int:
        if isinstance(value, float):
            raise ConfigurationError(f"not an integer: {value!r}")
        return value
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigurationError(f"not a finite number: {value!r}")
    return number


@dataclass(frozen=True)
class StudySpec:
    """Declarative description of one study (see module docstring).

    Parameters
    ----------
    kind:
        One of :data:`STUDY_KINDS`.
    table:
        Published table id (``"1a"`` … ``"4b"``) anchoring costs,
        fault budget, frequencies and scheme columns.
    reps / seed:
        Monte-Carlo repetitions per cell and the root seed.  ``None``
        resolves to the kind's default (``_KIND_DEFAULTS``).
    u / lam:
        The single (U, λ) point of a ``row`` study; the task anchor of
        ``fixed_m`` / ``rate_factor`` studies (``None`` = the table's
        first row); the fixed λ of a ``utilization`` study (``u``
        unused there).
    u_grid / lam_grid:
        Grid axes of ``utilization`` (``u_grid``) and ``operating_map``
        (both) studies.
    ms / factors:
        The fixed subdivisions of a ``fixed_m`` study and the analysis-
        rate factors of a ``rate_factor`` study.  For a ``frontier``
        study ``ms`` is the checkpoint-count axis of the sweep.
    patterns / n_tasks / horizon / sched / freqs:
        ``taskset``-study knobs: the workload patterns to generate
        (see :data:`repro.rts.generators.WORKLOAD_PATTERNS`), tasks per
        workload, simulated horizon (time units), scheduling policy
        (``"edf"``/``"rm"``), and the candidate frequency ladder for
        feasibility-then-lowest-energy selection.  ``u_grid`` is the
        target-utilization axis and ``lam`` the per-task fault rate
        there.  A ``frontier`` study uses ``freqs`` as the frequency
        axis of its ``(f, n)`` sweep.
    fast_static:
        Compute static-scheme cells in closed form (grid kinds only):
        every field is exact mode's expectation, with zero-width
        intervals and ``reps`` as requested
        (:class:`~repro.sim.backends.AnalyticCellJob`).
    faults_during_overhead:
        Inject faults during checkpoint overhead (``table``/``row``
        kinds; incompatible with ``fast_static``).
    kernel:
        Executor engine for the study's executor cells: ``"exact"``
        (default, bit-identical, golden-pinned) or ``"fast"`` (the
        vectorised kernel — statistically equivalent, block-
        deterministic).  ``"exact"`` is elided from the canonical
        payload, so pre-existing spec hashes are unchanged; ``"fast"``
        changes :attr:`spec_hash`, which is what keeps exact and fast
        partials from silently merging.
    """

    kind: str
    table: str = "1a"
    reps: Optional[int] = None
    seed: Optional[int] = None
    u: Optional[float] = None
    lam: Optional[float] = None
    u_grid: Tuple[float, ...] = ()
    lam_grid: Tuple[float, ...] = ()
    ms: Tuple[int, ...] = ()
    factors: Tuple[float, ...] = ()
    patterns: Tuple[str, ...] = ()
    n_tasks: Optional[int] = None
    horizon: Optional[float] = None
    sched: Optional[str] = None
    freqs: Tuple[float, ...] = ()
    fast_static: bool = False
    faults_during_overhead: bool = False
    kernel: str = "exact"

    def __post_init__(self) -> None:
        if self.kind not in STUDY_KINDS:
            raise ConfigurationError(
                f"unknown study kind {self.kind!r}; valid kinds: "
                f"{', '.join(STUDY_KINDS)}"
            )
        if not isinstance(self.table, str):
            raise ConfigurationError(
                f"table must be a table id string, got {self.table!r}"
            )
        # Field types are validated (and floats canonicalised) here so
        # a malformed JSON spec fails with a clean ConfigurationError,
        # and so equivalent spellings ("ms": [1, 2] vs [1.0, 2.0])
        # hash identically.
        for name, kind in (("u_grid", float), ("lam_grid", float),
                           ("factors", float), ("ms", int),
                           ("freqs", float)):
            value = getattr(self, name)
            try:
                coerced = tuple(_coerce(item, kind) for item in value)
            except (TypeError, ConfigurationError):
                raise ConfigurationError(
                    f"{name} must be a sequence of {kind.__name__}s, "
                    f"got {value!r}"
                )
            if len(set(coerced)) != len(coerced):
                # A duplicate grid value would duplicate cell keys —
                # caught only after the whole study has been computed.
                raise ConfigurationError(
                    f"{name} contains duplicate values: {value!r}"
                )
            object.__setattr__(self, name, coerced)
        for name in ("reps", "seed"):
            value = getattr(self, name)
            if value is not None and not _is_int(value):
                raise ConfigurationError(
                    f"{name} must be an integer, got {value!r}"
                )
        for name in ("u", "lam", "horizon"):
            value = getattr(self, name)
            if value is not None:
                try:
                    object.__setattr__(self, name, _coerce(value, float))
                except (TypeError, ConfigurationError):
                    raise ConfigurationError(
                        f"{name} must be a number, got {value!r}"
                    )
        if not isinstance(self.patterns, (tuple, list)) or not all(
            isinstance(item, str) for item in self.patterns
        ):
            raise ConfigurationError(
                f"patterns must be a sequence of strings, got {self.patterns!r}"
            )
        object.__setattr__(self, "patterns", tuple(self.patterns))
        unknown_patterns = [
            p for p in self.patterns if p not in WORKLOAD_PATTERNS
        ]
        if unknown_patterns:
            raise ConfigurationError(
                f"unknown workload pattern(s) "
                f"{', '.join(map(repr, unknown_patterns))}; valid "
                f"patterns: {', '.join(WORKLOAD_PATTERNS)}"
            )
        if len(set(self.patterns)) != len(self.patterns):
            raise ConfigurationError(
                f"patterns contains duplicate values: {self.patterns!r}"
            )
        if self.n_tasks is not None and (
            not _is_int(self.n_tasks) or self.n_tasks < 1
        ):
            raise ConfigurationError(
                f"n_tasks must be a positive integer, got {self.n_tasks!r}"
            )
        if self.horizon is not None and self.horizon <= 0:
            raise ConfigurationError(
                f"horizon must be > 0, got {self.horizon}"
            )
        if self.sched is not None and self.sched not in ("edf", "rm"):
            raise ConfigurationError(
                f"sched must be 'edf' or 'rm', got {self.sched!r}"
            )
        for name in ("fast_static", "faults_during_overhead"):
            if not isinstance(getattr(self, name), bool):
                raise ConfigurationError(
                    f"{name} must be a boolean, got {getattr(self, name)!r}"
                )
        if self.kernel not in KERNEL_NAMES:
            raise ConfigurationError(
                f"kernel must be 'exact' or 'fast', got {self.kernel!r}"
            )
        if self.reps is not None and self.reps <= 0:
            raise ConfigurationError(f"reps must be > 0, got {self.reps}")
        allowed = _KIND_AXES[self.kind]
        stray = [
            name
            for name in _AXIS_FIELDS
            if name not in allowed
            and getattr(self, name) not in (None, ())
        ]
        if stray:
            raise ConfigurationError(
                f"field(s) {', '.join(stray)} do not apply to a "
                f"{self.kind!r} study"
            )
        if self.kind == "row" and (self.u is None or self.lam is None):
            raise ConfigurationError("a 'row' study needs both u and lam")
        if self.kind == "utilization":
            if not self.u_grid:
                raise ConfigurationError(
                    "a 'utilization' study needs a non-empty u_grid"
                )
            if self.lam is None:
                raise ConfigurationError("a 'utilization' study needs lam")
        if self.kind == "operating_map" and not (self.u_grid and self.lam_grid):
            raise ConfigurationError(
                "an 'operating_map' study needs non-empty u_grid and lam_grid"
            )
        if any(f <= 0 for f in self.freqs):
            raise ConfigurationError(
                f"freqs must all be > 0, got {self.freqs!r}"
            )
        if any(m < 1 for m in self.ms):
            raise ConfigurationError(
                f"a {self.kind!r} study needs checkpoint counts >= 1 in ms, "
                f"got {self.ms!r}"
            )
        if self.fast_static and self.kind in ("fixed_m", "rate_factor"):
            raise ConfigurationError(
                f"fast_static does not apply to {self.kind!r} studies "
                f"(every cell is an adaptive executor cell)"
            )
        if self.fast_static and self.kind in ("taskset", "frontier"):
            raise ConfigurationError(
                f"fast_static does not apply to {self.kind!r} studies"
            )
        if self.kernel == "fast" and self.kind == "taskset":
            # The schedule simulator has no fast twin; accepting the
            # flag would fork the spec hash without changing a single
            # estimate, so two identical studies could refuse to merge.
            raise ConfigurationError(
                "kernel='fast' does not apply to 'taskset' studies"
            )
        if self.faults_during_overhead and self.kind not in ("table", "row"):
            raise ConfigurationError(
                "faults_during_overhead only applies to table/row studies"
            )

    # -- resolution ----------------------------------------------------

    def resolve_table(self) -> TableSpec:
        """The :class:`TableSpec` this study is anchored to."""
        return table_spec(self.table)

    def resolved(self) -> "StudySpec":
        """A copy with every defaulted field made explicit.

        This is the canonical form: what :attr:`spec_hash` hashes and
        what :meth:`to_dict` serialises, so a minimal spec and its
        fully spelled-out twin are the same study.
        """
        default_reps, default_seed = _KIND_DEFAULTS[self.kind]
        updates: Dict[str, object] = {}
        if self.reps is None:
            updates["reps"] = default_reps
        if self.seed is None:
            updates["seed"] = default_seed
        if self.kind in ("fixed_m", "rate_factor", "frontier") and (
            self.u is None or self.lam is None
        ):
            u, lam = self.resolve_table().rows[0]
            updates.setdefault("u", self.u if self.u is not None else u)
            updates.setdefault(
                "lam", self.lam if self.lam is not None else lam
            )
        if self.kind in ("fixed_m", "frontier") and not self.ms:
            updates["ms"] = _DEFAULT_MS
        if self.kind == "rate_factor" and not self.factors:
            updates["factors"] = _DEFAULT_FACTORS
        if self.kind in ("taskset", "frontier") and not self.freqs:
            updates["freqs"] = _DEFAULT_FREQS
        if self.kind == "taskset":
            if not self.patterns:
                updates["patterns"] = _DEFAULT_PATTERNS
            if not self.u_grid:
                updates["u_grid"] = _DEFAULT_TASKSET_U_GRID
            if self.lam is None:
                updates["lam"] = _DEFAULT_TASKSET_LAM
            if self.n_tasks is None:
                updates["n_tasks"] = _DEFAULT_N_TASKS
            if self.horizon is None:
                updates["horizon"] = _DEFAULT_HORIZON
            if self.sched is None:
                updates["sched"] = _DEFAULT_SCHED
        return replace(self, **updates) if updates else self

    # -- expansion -----------------------------------------------------

    def cells(self) -> List[CellPlan]:
        """The study's ordered cell list (see :mod:`repro.api.plans`).

        A value the model rejects (``lam < 0``, a rate that overflows
        the cell seed label) raises
        :class:`~repro.errors.ConfigurationError` naming the spec.
        """
        try:
            return self._expand()
        except (ParameterError, OverflowError) as exc:
            raise ConfigurationError(
                f"{self.kind} study {self.spec_hash} cannot expand its "
                f"cells: {exc}"
            ) from exc

    def _expand(self) -> List[CellPlan]:
        spec = self.resolved()
        tspec = spec.resolve_table()
        if spec.kind == "table":
            return table_cells(
                tspec,
                reps=spec.reps,
                seed=spec.seed,
                faults_during_overhead=spec.faults_during_overhead,
                fast_static=spec.fast_static,
            )
        if spec.kind == "row":
            return row_cells(
                tspec,
                spec.u,
                spec.lam,
                reps=spec.reps,
                seed=spec.seed,
                faults_during_overhead=spec.faults_during_overhead,
                fast_static=spec.fast_static,
            )
        if spec.kind == "fixed_m":
            return fixed_m_cells(
                tspec.task(spec.u, spec.lam),
                spec.ms,
                reps=spec.reps,
                seed=spec.seed,
            )
        if spec.kind == "rate_factor":
            return rate_factor_cells(
                tspec.task(spec.u, spec.lam),
                spec.factors,
                reps=spec.reps,
                seed=spec.seed,
            )
        if spec.kind == "utilization":
            return utilization_cells(
                tspec,
                spec.u_grid,
                spec.lam,
                reps=spec.reps,
                seed=spec.seed,
                fast_static=spec.fast_static,
            )
        if spec.kind == "taskset":
            return taskset_cells(
                spec.patterns,
                spec.u_grid,
                spec.lam,
                n_tasks=spec.n_tasks,
                horizon=spec.horizon,
                sched=spec.sched,
                freqs=spec.freqs,
                reps=spec.reps,
                seed=spec.seed,
            )
        if spec.kind == "frontier":
            return frontier_cells(
                tspec.task(spec.u, spec.lam),
                spec.freqs,
                spec.ms,
                reps=spec.reps,
                seed=spec.seed,
            )
        return operating_map_cells(
            tspec,
            spec.u_grid,
            spec.lam_grid,
            reps=spec.reps,
            seed=spec.seed,
            fast_static=spec.fast_static,
        )

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """The canonical (resolved, defaults-elided) JSON payload."""
        spec = self.resolved()
        payload: Dict[str, object] = {}
        for field in fields(spec):
            value = getattr(spec, field.name)
            if value is None or value == ():
                continue
            if field.name in ("fast_static", "faults_during_overhead") and not value:
                continue
            if field.name == "kernel" and value == "exact":
                # Elided so every pre-kernel spec hash is unchanged.
                continue
            payload[field.name] = list(value) if isinstance(value, tuple) else value
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "StudySpec":
        if not isinstance(payload, dict):
            raise ConfigurationError(
                f"a study spec must be a JSON object, got {type(payload).__name__}"
            )
        known = {field.name for field in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown study spec field(s): {', '.join(unknown)}; "
                f"valid fields: {', '.join(sorted(known))}"
            )
        if "kind" not in payload:
            raise ConfigurationError("a study spec needs a 'kind' field")
        return cls(**payload)

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "StudySpec":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"invalid study spec JSON: {exc}")
        return cls.from_dict(payload)

    @classmethod
    def from_file(cls, path: str) -> "StudySpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read study spec {path!r}: {exc}")
        return cls.from_json(text)

    @property
    def spec_hash(self) -> str:
        """Stable content hash of the resolved spec (provenance tag).

        Two specs describing the same study — whether defaults were
        spelled out or not — hash identically; any change to the grid,
        seed, reps or execution-relevant flags changes the hash, which
        is what makes resume/merge safe to gate on it.
        """
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]
