"""Experiment specifications for the paper's tables.

A :class:`TableSpec` captures everything needed to regenerate one of the
paper's tables: checkpoint costs, fault budget ``k``, the speed at which
the static baselines run, the reference speed defining utilisation
(``U = N/(f_ref·D)``), and the (U, λ) grid.  :func:`table_spec` returns
the spec for a published table id; :func:`all_table_specs` enumerates
all eight.

Common parameters (paper §4): ``D = 10000``, ``c = 22``, ``t_r = 0``,
``f1 = 1``, ``f2 = 2``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.checkpoints import CostModel
from repro.core.schemes import (
    AdaptiveCCPPolicy,
    AdaptiveConfig,
    AdaptiveDVSPolicy,
    AdaptiveSCPPolicy,
    CheckpointPolicy,
    KFaultTolerantPolicy,
    PoissonArrivalPolicy,
)
from repro.choices import BACKEND_NAMES, KERNEL_NAMES
from repro.errors import ConfigurationError
from repro.experiments import paper_data
from repro.sim.backends import AnalyticCellJob, CellJob, DistributedBackend
from repro.sim.task import TaskSpec

__all__ = [
    "TableSpec",
    "table_spec",
    "all_table_specs",
    "DEADLINE",
    "ExecutionSettings",
]

#: The paper's deadline, shared by every experiment.
DEADLINE = 10_000.0


@dataclass(frozen=True)
class ExecutionSettings:
    """The one validated *where-does-it-run* selector.

    Every entry point that takes execution flags (the CLI's ``table`` /
    ``validate`` / ``sweep`` commands, scripts building their own
    runners) funnels them through this dataclass instead of re-deriving
    "``--workers`` implies a process pool" by hand.  Validation happens
    at construction — this is the only place that decides which option
    suits which backend — and :meth:`make_runner` is the only code that
    turns the options into a backend: it builds the matching
    :class:`~repro.sim.parallel.BatchRunner` (or ``None`` for the
    implicit serial default, which callers treat identically).

    Parameters
    ----------
    backend:
        ``None`` (infer from ``workers``: unset/1 → serial, anything
        else → process pool — the historical behaviour) or an explicit
        name from :data:`~repro.sim.backends.BACKEND_NAMES`.
    workers:
        Process-pool size.  ``None`` means unspecified (serial when
        inferred; one per CPU for an explicit ``"process"``); ``0``
        means one per CPU; ``1`` with an explicit ``"process"`` is a
        genuine single-process pool.
    chunk_size:
        Reps per block (the determinism-contract knob); ``None`` =
        default block size.
    cluster_workers:
        Loopback worker subprocesses to spawn for the distributed
        backend (``0`` = none; workers then connect externally via
        ``repro worker``).
    url:
        Coordinator bind address for the distributed backend.
    kernel:
        Executor engine: ``"exact"`` (default) is the bit-identical
        per-rep path pinned by golden replay; ``"fast"`` opts into the
        vectorised kernel (:mod:`repro.sim.kernel`) — statistically
        equivalent, deterministic per block rather than per rep.
    tls_cert / tls_key / tls_ca:
        Distributed-backend TLS: the coordinator serves TLS with
        ``tls_cert``/``tls_key`` (always together) and — with
        ``tls_ca`` — demands worker certificates signed by that CA
        (mutual TLS).  Loopback cluster workers spawned from these
        settings receive the matching flags automatically; external
        workers pass ``--tls-ca`` (and ``--tls-cert/--tls-key`` for
        mTLS) to ``repro worker``.
    connect_timeout:
        Seconds the distributed backend waits for workers to join
        before starting (``None`` = the coordinator default,
        :data:`~repro.sim.distributed.DEFAULT_WAIT_TIMEOUT`); raise it
        on slow CI hosts.
    straggler_factor:
        Straggler-speculation multiplier for the distributed backend:
        a task in flight longer than this × its kind's EWMA block
        latency is speculatively re-dispatched (idle worker or the
        coordinator's local lane), with the resolve-once collection
        deduplicating whichever copy finishes first.  ``None`` = the
        coordinator default; ``0`` disables speculation.  Dispatch
        only — results are bit-identical regardless.
    """

    backend: Optional[str] = None
    workers: Optional[int] = None
    chunk_size: Optional[int] = None
    cluster_workers: int = 0
    url: Optional[str] = None
    kernel: str = "exact"
    tls_cert: Optional[str] = None
    tls_key: Optional[str] = None
    tls_ca: Optional[str] = None
    connect_timeout: Optional[float] = None
    straggler_factor: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kernel not in KERNEL_NAMES:
            raise ConfigurationError(
                f"unknown kernel {self.kernel!r}; valid names: "
                f"{', '.join(KERNEL_NAMES)}"
            )
        if self.backend is not None and self.backend not in BACKEND_NAMES:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; valid names: "
                f"{', '.join(BACKEND_NAMES)}"
            )
        if self.workers is not None and self.workers < 0:
            raise ConfigurationError(
                f"workers must be >= 0 (0 = one per CPU), got {self.workers}"
            )
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ConfigurationError(
                f"chunk_size must be >= 1, got {self.chunk_size}"
            )
        if self.cluster_workers < 0:
            raise ConfigurationError(
                f"cluster_workers must be >= 0, got {self.cluster_workers}"
            )
        if self.backend == "serial" and self.workers not in (None, 1):
            raise ConfigurationError(
                "backend 'serial' runs in-process; drop --workers or use "
                "--backend process"
            )
        if self.backend == "distributed" and self.workers is not None:
            raise ConfigurationError(
                "backend 'distributed' does not take --workers; use "
                "--cluster-workers for loopback workers"
            )
        if self.backend != "distributed":
            if self.cluster_workers:
                raise ConfigurationError(
                    "--cluster-workers requires --backend distributed"
                )
            if self.url is not None:
                raise ConfigurationError(
                    "a coordinator URL requires --backend distributed"
                )
            if self.tls_cert or self.tls_key or self.tls_ca:
                raise ConfigurationError(
                    "--tls-cert/--tls-key/--tls-ca require "
                    "--backend distributed"
                )
            if self.connect_timeout is not None:
                raise ConfigurationError(
                    "--connect-timeout requires --backend distributed"
                )
            if self.straggler_factor is not None:
                raise ConfigurationError(
                    "--straggler-factor requires --backend distributed"
                )
        if bool(self.tls_cert) != bool(self.tls_key):
            raise ConfigurationError(
                "--tls-cert and --tls-key must be provided together"
            )
        if self.tls_ca and not self.tls_cert:
            raise ConfigurationError(
                "--tls-ca on the coordinator side requires --tls-cert/"
                "--tls-key (serving TLS needs a certificate; the CA only "
                "adds mutual-TLS client verification)"
            )
        timeout, factor = self.connect_timeout, self.straggler_factor
        if timeout is not None and not 0 < timeout < math.inf:
            raise ConfigurationError(
                f"connect_timeout must be a finite value > 0, got {timeout}"
            )
        if factor is not None and not 0 <= factor < math.inf:
            raise ConfigurationError(
                f"straggler_factor must be a finite value >= 0 (0 disables "
                f"speculation), got {factor}"
            )

    @classmethod
    def from_cli_args(cls, args) -> "ExecutionSettings":
        """Settings from a parsed CLI namespace (shared execution flags).

        Tolerates namespaces that lack some flags (subcommands opt into
        the shared flag group), so every command funnels through the
        same validation instead of re-reading ``args`` by hand.
        """
        return cls(
            backend=getattr(args, "backend", None),
            workers=getattr(args, "workers", None),
            chunk_size=getattr(args, "chunk_size", None),
            cluster_workers=getattr(args, "cluster_workers", 0),
            url=getattr(args, "url", None),
            kernel=getattr(args, "kernel", None) or "exact",
            tls_cert=getattr(args, "tls_cert", None),
            tls_key=getattr(args, "tls_key", None),
            tls_ca=getattr(args, "tls_ca", None),
            connect_timeout=getattr(args, "connect_timeout", None),
            straggler_factor=getattr(args, "straggler_factor", None),
        )

    @property
    def resolved_backend(self) -> str:
        """The backend name after inference (never ``None``)."""
        if self.backend is not None:
            return self.backend
        return "serial" if self.workers in (None, 1) else "process"

    def make_runner(self):
        """The :class:`~repro.sim.parallel.BatchRunner` these settings
        describe, or ``None`` for the implicit serial default (byte-
        identical to passing no runner at all)."""
        from repro.sim.parallel import BatchRunner

        resolved = self.resolved_backend
        if resolved == "serial":
            if self.chunk_size is None:
                return None
            return BatchRunner.serial(chunk_size=self.chunk_size)
        if resolved == "process":
            # An explicitly requested process pool honours workers
            # verbatim (unset/0 → one per CPU, 1 → a 1-process pool);
            # the inferred path (backend None) keeps the historical
            # mapping where workers > 1 sized the pool and 0 meant one
            # per CPU — serial on a 1-CPU host.
            return BatchRunner(
                None if self.workers in (None, 0) else self.workers,
                chunk_size=self.chunk_size,
                backend=self.backend,
            )
        tls = None
        if self.tls_cert or self.tls_ca:
            from repro.sim.distributed import TLSConfig

            tls = TLSConfig(
                cert=self.tls_cert, key=self.tls_key, ca=self.tls_ca
            )
        return BatchRunner(
            chunk_size=self.chunk_size,
            backend=DistributedBackend(
                url=self.url,
                cluster=self.cluster_workers or None,
                tls=tls,
                connect_timeout=self.connect_timeout,
                straggler_factor=self.straggler_factor,
            ),
        )


@dataclass(frozen=True)
class TableSpec:
    """Declarative description of one table of the evaluation."""

    table_id: str
    title: str
    costs: CostModel
    fault_budget: int
    static_frequency: float
    reference_frequency: float
    rows: Tuple[Tuple[float, float], ...]
    adaptive_variant: str  # 'scp' or 'ccp'
    deadline: float = DEADLINE
    adaptive_config: AdaptiveConfig = field(default_factory=AdaptiveConfig)

    def __post_init__(self) -> None:
        if self.adaptive_variant not in ("scp", "ccp"):
            raise ConfigurationError(
                f"adaptive_variant must be 'scp' or 'ccp', got "
                f"{self.adaptive_variant!r}"
            )

    @property
    def schemes(self) -> Tuple[str, ...]:
        """Column order, matching the paper."""
        last = "A_D_S" if self.adaptive_variant == "scp" else "A_D_C"
        return ("Poisson", "k-f-t", "A_D", last)

    def task(self, u: float, lam: float) -> TaskSpec:
        """The task of row (U, λ): ``N = U·f_ref·D`` cycles."""
        return TaskSpec.from_utilization(
            u,
            deadline=self.deadline,
            frequency=self.reference_frequency,
            fault_budget=self.fault_budget,
            fault_rate=lam,
            costs=self.costs,
        )

    def policy_factory(self, scheme: str) -> Callable[[], CheckpointPolicy]:
        """Fresh-policy factory for a scheme column.

        Factories are :func:`functools.partial` objects over module-level
        policy classes — picklable, so whole cell grids can ship to the
        worker processes of :class:`repro.sim.parallel.BatchRunner`.
        """
        if scheme == "Poisson":
            return partial(PoissonArrivalPolicy, self.static_frequency)
        if scheme == "k-f-t":
            return partial(KFaultTolerantPolicy, self.static_frequency)
        if scheme == "A_D":
            return partial(AdaptiveDVSPolicy, self.adaptive_config)
        if scheme == "A_D_S":
            return partial(AdaptiveSCPPolicy, self.adaptive_config)
        if scheme == "A_D_C":
            return partial(AdaptiveCCPPolicy, self.adaptive_config)
        raise ConfigurationError(f"unknown scheme {scheme!r}")

    def cell_job(
        self,
        u: float,
        lam: float,
        scheme: str,
        *,
        reps: int,
        seed: int,
        fast_static: bool = False,
        faults_during_overhead: bool = False,
    ):
        """The fully-specified job of one (row, scheme) cell.

        The single builder behind every grid dispatcher (tables,
        sweeps, sensitivity): an executor :class:`~repro.sim.backends.
        CellJob`, or — with ``fast_static`` and a static scheme — an
        :class:`~repro.sim.backends.AnalyticCellJob`, the cell's exact
        expectation in closed form.
        """
        task = self.task(u, lam)
        factory = self.policy_factory(scheme)
        if fast_static and scheme in ("Poisson", "k-f-t"):
            if faults_during_overhead:
                raise ConfigurationError(
                    "fast_static assumes the paper's convention that faults "
                    "during overhead are ignored; it cannot be combined "
                    "with faults_during_overhead=True"
                )
            return AnalyticCellJob(
                task=task, policy_factory=factory, reps=reps, seed=seed
            )
        return CellJob(
            task=task,
            policy_factory=factory,
            reps=reps,
            seed=seed,
            faults_during_overhead=faults_during_overhead,
        )

    def with_adaptive_config(self, config: AdaptiveConfig) -> "TableSpec":
        """Copy of this spec with different adaptive-scheme knobs."""
        return replace(self, adaptive_config=config)


def _rows_a() -> Tuple[Tuple[float, float], ...]:
    return tuple(
        (u, lam) for u in (0.76, 0.78, 0.80, 0.82) for lam in (1.4e-3, 1.6e-3)
    )


def _rows_b_f1() -> Tuple[Tuple[float, float], ...]:
    return tuple((u, lam) for u in (0.92, 0.95, 1.00) for lam in (1e-4, 2e-4))


def _rows_b_f2() -> Tuple[Tuple[float, float], ...]:
    return tuple((u, lam) for u in (0.92, 0.95) for lam in (1e-4, 2e-4))


def _build_specs() -> Dict[str, TableSpec]:
    scp_costs = CostModel.scp_favourable()
    ccp_costs = CostModel.ccp_favourable()
    specs = [
        TableSpec(
            table_id="1a",
            title=paper_data.TABLE_TITLES["1a"],
            costs=scp_costs,
            fault_budget=5,
            static_frequency=1.0,
            reference_frequency=1.0,
            rows=_rows_a(),
            adaptive_variant="scp",
        ),
        TableSpec(
            table_id="1b",
            title=paper_data.TABLE_TITLES["1b"],
            costs=scp_costs,
            fault_budget=1,
            static_frequency=1.0,
            reference_frequency=1.0,
            rows=_rows_b_f1(),
            adaptive_variant="scp",
        ),
        TableSpec(
            table_id="2a",
            title=paper_data.TABLE_TITLES["2a"],
            costs=scp_costs,
            fault_budget=5,
            static_frequency=2.0,
            reference_frequency=2.0,
            rows=_rows_a(),
            adaptive_variant="scp",
        ),
        TableSpec(
            table_id="2b",
            title=paper_data.TABLE_TITLES["2b"],
            costs=scp_costs,
            fault_budget=1,
            static_frequency=2.0,
            reference_frequency=2.0,
            rows=_rows_b_f2(),
            adaptive_variant="scp",
        ),
        TableSpec(
            table_id="3a",
            title=paper_data.TABLE_TITLES["3a"],
            costs=ccp_costs,
            fault_budget=5,
            static_frequency=1.0,
            reference_frequency=1.0,
            rows=_rows_a(),
            adaptive_variant="ccp",
        ),
        TableSpec(
            table_id="3b",
            title=paper_data.TABLE_TITLES["3b"],
            costs=ccp_costs,
            fault_budget=1,
            static_frequency=1.0,
            reference_frequency=1.0,
            rows=_rows_b_f1(),
            adaptive_variant="ccp",
        ),
        TableSpec(
            table_id="4a",
            title=paper_data.TABLE_TITLES["4a"],
            costs=ccp_costs,
            fault_budget=5,
            static_frequency=2.0,
            reference_frequency=2.0,
            rows=_rows_a(),
            adaptive_variant="ccp",
        ),
        TableSpec(
            table_id="4b",
            title=paper_data.TABLE_TITLES["4b"],
            costs=ccp_costs,
            fault_budget=1,
            static_frequency=2.0,
            reference_frequency=2.0,
            rows=_rows_b_f2(),
            adaptive_variant="ccp",
        ),
    ]
    return {spec.table_id: spec for spec in specs}


_SPECS = _build_specs()


def table_spec(table_id: str) -> TableSpec:
    """The spec of a published table id ('1a' ... '4b')."""
    if table_id not in _SPECS:
        raise ConfigurationError(
            f"unknown table {table_id!r}; valid ids: "
            f"{', '.join(paper_data.TABLE_IDS)}"
        )
    return _SPECS[table_id]


def all_table_specs() -> List[TableSpec]:
    """All eight published table specs, in order."""
    return [_SPECS[tid] for tid in paper_data.TABLE_IDS]
