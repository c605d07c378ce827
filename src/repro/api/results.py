"""First-class study results: serialisable, mergeable, resumable.

A :class:`ResultSet` is the output of :meth:`repro.api.study.Study.run`:
one :class:`CellRecord` per study cell, each carrying the full
:class:`~repro.sim.metrics.CellEstimate` *and* its provenance — the
spec hash, the cell's derived seed, the block size (part of the
determinism contract), the backend it ran on, ``git describe`` of the
working tree, and the wall/compute seconds of the run that produced it.

Serialisation is exact: floats round-trip through JSON via Python's
shortest-repr float encoding, and NaN (the paper's own convention for
the timely-energy mean of a cell with no timely run) is emitted as the
JSON-extension ``NaN`` literal — ``from_json(to_json(rs))`` rebuilds
estimates that are bit-identical under
:meth:`~repro.sim.metrics.CellEstimate.same_values`
(``tests/test_resultset.py`` pins this with a property test).

Merging is set-union over cell keys, gated on the spec hash: two
partial runs of the *same* study (e.g. sharded across machines by
key range) combine into one ResultSet; overlapping or foreign records
are rejected rather than silently preferred.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional

from repro.errors import ConfigurationError
from repro.sim.metrics import CellEstimate, MeanEstimate, ProportionEstimate

__all__ = [
    "CellRecord",
    "ResultSet",
    "git_describe",
    "json_dumps_exact",
    "json_loads_exact",
]

#: Serialisation format tag; bump on incompatible layout changes.
FORMAT = "repro.resultset/1"


def json_dumps_exact(payload: object, *, indent: Optional[int] = None) -> str:
    """JSON text whose floats round-trip bit-exactly.

    Python's shortest-repr float encoding is lossless for every finite
    double, and ``allow_nan`` emits the ``NaN``/``Infinity`` literals
    for the rest — the one float codec shared by :class:`ResultSet`
    and the golden-trace JSONL files of :mod:`repro.goldens`, so a
    value written by either serialiser reloads as the same double.
    """
    return json.dumps(payload, indent=indent, allow_nan=True)


def json_loads_exact(text: str, *, what: str = "payload") -> object:
    """Parse :func:`json_dumps_exact` output; clean error on bad input.

    A :class:`~repro.errors.ConfigurationError` (not a raw
    ``JSONDecodeError``) keeps malformed files an exit-2 configuration
    problem at the CLI instead of a traceback.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"invalid {what} JSON: {exc}")

_GIT_DESCRIBE: Optional[str] = None
_GIT_DESCRIBE_RAN = False


def git_describe() -> Optional[str]:
    """``git describe --always --dirty`` of the *repro* checkout, or None.

    Run from this package's own directory — provenance must describe
    the code that produced the estimates, not whatever repository the
    user happened to launch from.  Cached per process (stamping must
    not fork git once per cell); a tree that is not a checkout is a
    normal condition (installed package), not an error.
    """
    global _GIT_DESCRIBE, _GIT_DESCRIBE_RAN
    if not _GIT_DESCRIBE_RAN:
        _GIT_DESCRIBE_RAN = True
        try:
            out = subprocess.run(
                ["git", "describe", "--always", "--dirty"],
                capture_output=True,
                text=True,
                timeout=5.0,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            )
            _GIT_DESCRIBE = out.stdout.strip() or None if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            _GIT_DESCRIBE = None
    return _GIT_DESCRIBE


@dataclass(frozen=True)
class CellRecord:
    """One study cell's estimate plus everything needed to trust it."""

    key: str
    axes: Dict[str, object]
    estimate: CellEstimate
    spec_hash: str
    seed: int  #: the cell job's derived seed (not the study root seed)
    block_size: int
    backend: str
    git: Optional[str]
    wall_seconds: float  #: wall clock of the run() batch this cell was in
    compute_seconds: float  #: coordinator CPU seconds of that batch
    #: Opaque id of the ``run()`` batch that computed this cell; cells
    #: of one batch share it.  ``None`` only for records loaded from
    #: files written before the field existed.
    batch: Optional[str] = None
    #: Executor kernel that produced the estimate: ``"exact"`` (the
    #: bit-identical per-rep engine) or ``"fast"`` (the vectorised
    #: block-deterministic engine).  Files written before the field
    #: existed load as ``"exact"`` — the only kernel that existed then.
    kernel: str = "exact"

    def to_dict(self) -> Dict[str, object]:
        return {
            "key": self.key,
            "axes": dict(self.axes),
            "estimate": _estimate_to_dict(self.estimate),
            "provenance": {
                "spec_hash": self.spec_hash,
                "seed": self.seed,
                "block_size": self.block_size,
                "backend": self.backend,
                "git": self.git,
                "wall_seconds": self.wall_seconds,
                "compute_seconds": self.compute_seconds,
                "batch": self.batch,
                "kernel": self.kernel,
            },
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "CellRecord":
        try:
            provenance = payload["provenance"]
            return cls(
                key=payload["key"],
                axes=dict(payload["axes"]),
                estimate=_estimate_from_dict(payload["estimate"]),
                spec_hash=provenance["spec_hash"],
                seed=provenance["seed"],
                block_size=provenance["block_size"],
                backend=provenance["backend"],
                git=provenance.get("git"),
                wall_seconds=provenance["wall_seconds"],
                compute_seconds=provenance["compute_seconds"],
                batch=provenance.get("batch"),
                kernel=provenance.get("kernel", "exact"),
            )
        except (KeyError, TypeError) as exc:
            raise ConfigurationError(f"malformed cell record: {exc!r}")


def _mean_to_dict(estimate: MeanEstimate) -> Dict[str, object]:
    return {
        "value": estimate.value,
        "low": estimate.low,
        "high": estimate.high,
        "count": estimate.count,
    }


def _estimate_to_dict(estimate: CellEstimate) -> Dict[str, object]:
    p = estimate.p_timely
    return {
        "p_timely": {
            "value": p.value,
            "low": p.low,
            "high": p.high,
            "trials": p.trials,
        },
        "energy_timely": _mean_to_dict(estimate.energy_timely),
        "energy_all": _mean_to_dict(estimate.energy_all),
        "mean_finish_time_timely": estimate.mean_finish_time_timely,
        "mean_detected_faults": estimate.mean_detected_faults,
        "mean_checkpoints": estimate.mean_checkpoints,
        "mean_sub_checkpoints": estimate.mean_sub_checkpoints,
        "reps": estimate.reps,
    }


def _mean_from_dict(payload: Dict[str, object]) -> MeanEstimate:
    return MeanEstimate(
        value=payload["value"],
        low=payload["low"],
        high=payload["high"],
        count=payload["count"],
    )


def _estimate_from_dict(payload: Dict[str, object]) -> CellEstimate:
    p = payload["p_timely"]
    return CellEstimate(
        p_timely=ProportionEstimate(
            value=p["value"], low=p["low"], high=p["high"], trials=p["trials"]
        ),
        energy_timely=_mean_from_dict(payload["energy_timely"]),
        energy_all=_mean_from_dict(payload["energy_all"]),
        mean_finish_time_timely=payload["mean_finish_time_timely"],
        mean_detected_faults=payload["mean_detected_faults"],
        mean_checkpoints=payload["mean_checkpoints"],
        mean_sub_checkpoints=payload["mean_sub_checkpoints"],
        reps=payload["reps"],
    )


class ResultSet:
    """An ordered, keyed collection of :class:`CellRecord`\\ s.

    Construction validates that every record carries the set's spec
    hash and that keys are unique; insertion order is preserved (for a
    study run, that is the study's canonical cell order).
    """

    def __init__(
        self,
        spec_hash: str,
        records: Iterable[CellRecord] = (),
        *,
        spec: Optional[Dict[str, object]] = None,
    ) -> None:
        self.spec_hash = spec_hash
        #: The resolved :class:`~repro.api.spec.StudySpec` payload this
        #: set was produced from (None for studies over custom
        #: TableSpec objects, which have no declarative form).
        self.spec = spec
        self._records: Dict[str, CellRecord] = {}
        kernel: Optional[str] = None
        for record in records:
            if record.spec_hash != spec_hash:
                raise ConfigurationError(
                    f"record {record.key!r} carries spec hash "
                    f"{record.spec_hash!r}, expected {spec_hash!r}"
                )
            if record.key in self._records:
                raise ConfigurationError(f"duplicate cell key {record.key!r}")
            if kernel is None:
                kernel = record.kernel
            elif record.kernel != kernel:
                raise ConfigurationError(
                    f"record {record.key!r} was computed by the "
                    f"{record.kernel!r} kernel but the set holds "
                    f"{kernel!r} records; exact and fast estimates have "
                    f"different determinism contracts and cannot share "
                    f"a result set"
                )
            self._records[record.key] = record

    # -- access --------------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, key: str) -> bool:
        return key in self._records

    def __iter__(self) -> Iterator[CellRecord]:
        return iter(self._records.values())

    def keys(self) -> List[str]:
        return list(self._records)

    @property
    def records(self) -> List[CellRecord]:
        return list(self._records.values())

    @property
    def kernel(self) -> Optional[str]:
        """The kernel every record was computed by; None when empty.

        Construction enforces homogeneity, so the first record speaks
        for the set.
        """
        for record in self._records.values():
            return record.kernel
        return None

    def record(self, key: str) -> CellRecord:
        if key not in self._records:
            raise ConfigurationError(
                f"no cell {key!r} in result set; have {len(self._records)} "
                f"cells"
            )
        return self._records[key]

    def estimate(self, key: str) -> CellEstimate:
        """The :class:`CellEstimate` of one cell, by key."""
        return self.record(key).estimate

    def same_values(self, other: "ResultSet") -> bool:
        """Cell-for-cell estimate identity (NaN == NaN), keys aligned."""
        if self.keys() != other.keys():
            return False
        return all(
            mine.estimate.same_values(other.record(key).estimate)
            for key, mine in self._records.items()
        )

    @property
    def wall_seconds(self) -> float:
        """Total batch wall seconds across the set's records.

        Records produced by one ``run()`` call share that batch's wall
        clock, so summing per record would overcount; each batch is
        counted once instead (resumed sets accumulate across runs).
        Batches are identified by the provenance ``batch`` id — two
        distinct batches that happen to report equal wall clocks both
        count.  Records from files written before the batch id existed
        fall back to grouping on the ``(wall_seconds, compute_seconds)``
        value pair.
        """
        seen = set()
        total = 0.0
        for record in self._records.values():
            key = (
                ("batch", record.batch)
                if record.batch is not None
                else ("values", record.wall_seconds, record.compute_seconds)
            )
            if key not in seen:
                seen.add(key)
                total += record.wall_seconds
        return total

    # -- merge / resume ------------------------------------------------

    def merge(self, other: "ResultSet") -> "ResultSet":
        """Union of two disjoint partial results of the same study."""
        if other.spec_hash != self.spec_hash:
            raise ConfigurationError(
                f"cannot merge result sets of different studies "
                f"(spec hashes {self.spec_hash!r} vs {other.spec_hash!r})"
            )
        overlap = [key for key in other._records if key in self._records]
        if overlap:
            raise ConfigurationError(
                f"cannot merge overlapping result sets; "
                f"{len(overlap)} shared cell(s), first: {overlap[0]!r}"
            )
        mine, theirs = self.kernel, other.kernel
        if mine is not None and theirs is not None and mine != theirs:
            raise ConfigurationError(
                f"cannot merge a {mine!r}-kernel result set with a "
                f"{theirs!r}-kernel one; rerun one side so both partials "
                f"use the same kernel"
            )
        return ResultSet(
            self.spec_hash,
            list(self._records.values()) + list(other._records.values()),
            spec=self.spec or other.spec,
        )

    # -- serialisation -------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": FORMAT,
            "spec_hash": self.spec_hash,
            "spec": self.spec,
            "records": [record.to_dict() for record in self._records.values()],
        }

    def to_json(self, *, indent: Optional[int] = 2) -> str:
        """Exact JSON form (NaN emitted as the ``NaN`` literal)."""
        return json_dumps_exact(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ResultSet":
        if not isinstance(payload, dict) or "spec_hash" not in payload:
            raise ConfigurationError("malformed result set payload")
        declared = payload.get("format", FORMAT)
        if declared != FORMAT:
            raise ConfigurationError(
                f"unsupported result set format {declared!r} "
                f"(this build reads {FORMAT!r})"
            )
        records = payload.get("records", [])
        # A string would "work" here — iterating it per character into
        # CellRecord.from_dict — and an int would die with an opaque
        # TypeError deep in the loop; both must be one clean
        # configuration error (the service's 400 for a mangled body).
        if not isinstance(records, (list, tuple)):
            raise ConfigurationError(
                f"result set 'records' must be a list of cell records, "
                f"got {type(records).__name__}"
            )
        return cls(
            payload["spec_hash"],
            [CellRecord.from_dict(item) for item in records],
            spec=payload.get("spec"),
        )

    @classmethod
    def from_json(cls, text: str) -> "ResultSet":
        return cls.from_dict(json_loads_exact(text, what="result set"))

    def save(self, path: str) -> None:
        """Write the JSON form atomically (temp file + rename).

        ``--out r.json --resume r.json`` retry loops must never be able
        to truncate the only copy of prior progress: a crash mid-write
        leaves either the old file or the new one, never a torn JSON.
        """
        _atomic_write(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "ResultSet":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise ConfigurationError(f"cannot read result set {path!r}: {exc}")
        return cls.from_json(text)

    def to_csv(self) -> str:
        """Flat CSV: axis columns, headline stats, key provenance.

        NaN cells render as empty fields (spreadsheet convention); the
        JSON form is the lossless one.
        """
        axis_names: List[str] = []
        for record in self._records.values():
            for name in record.axes:
                if name not in axis_names:
                    axis_names.append(name)
        columns = axis_names + [
            "p",
            "p_low",
            "p_high",
            "e",
            "e_low",
            "e_high",
            "e_all",
            "reps",
            "seed",
            "block_size",
            "backend",
            "kernel",
            "spec_hash",
            "git",
        ]
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(columns)
        for record in self._records.values():
            estimate = record.estimate
            row: List[object] = [
                record.axes.get(name, "") for name in axis_names
            ]
            row += [
                _csv_float(estimate.p),
                _csv_float(estimate.p_timely.low),
                _csv_float(estimate.p_timely.high),
                _csv_float(estimate.e),
                _csv_float(estimate.energy_timely.low),
                _csv_float(estimate.energy_timely.high),
                _csv_float(estimate.energy_all.value),
                estimate.reps,
                record.seed,
                record.block_size,
                record.backend,
                record.kernel,
                record.spec_hash,
                record.git or "",
            ]
            writer.writerow(row)
        return buffer.getvalue()

    def save_csv(self, path: str) -> None:
        _atomic_write(path, self.to_csv())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ResultSet(spec_hash={self.spec_hash!r}, "
            f"cells={len(self._records)})"
        )


def _csv_float(value: float) -> object:
    return "" if isinstance(value, float) and math.isnan(value) else repr(value)


def _atomic_write(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp + rename.

    OSErrors surface as :class:`ConfigurationError` (matching
    :meth:`ResultSet.load` / spec loading), so an unwritable ``--out``
    path is a clean exit-2 configuration problem, not a traceback.
    """
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    handle = None
    try:
        fd, temp_path = tempfile.mkstemp(
            dir=directory, prefix=os.path.basename(path) + ".", suffix=".tmp"
        )
        handle = os.fdopen(fd, "w", encoding="utf-8", newline="")
        handle.write(text)
        handle.close()
        os.replace(temp_path, path)
    except OSError as exc:
        if handle is not None:
            try:
                handle.close()
                os.unlink(temp_path)
            except OSError:
                pass
        raise ConfigurationError(f"cannot write {path!r}: {exc}")
