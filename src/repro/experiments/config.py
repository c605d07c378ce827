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
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.checkpoints import CostModel
from repro.core.schemes import (
    SCHEMES,
    AdaptiveConfig,
    CheckpointPolicy,
    _StaticPolicy,
    scheme_factory,
)
from repro.choices import BACKEND_NAMES, KERNEL_NAMES
from repro.errors import ConfigurationError, require_count
from repro.experiments import paper_data
from repro.sim.backends import (
    AnalyticCellJob,
    CellJob,
    DistributedBackend,
    ProcessBackend,
    SerialBackend,
    default_workers,
)
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
    ``validate`` / ``sweep`` / ``run`` commands, a
    :class:`~repro.api.Session`) funnels them through this dataclass.
    Validation happens at construction — this is the only place that
    decides which option suits which backend — and :meth:`make_runner`
    is the only resolver: the one code that turns the options into a
    backend object and the :class:`~repro.sim.parallel.BatchRunner`
    over it.  The layers below take objects, not options.

    Parameters
    ----------
    backend:
        ``None`` (infer from ``workers``: unset/1 → serial, anything
        else → process pool, or serial where that pool would hold one
        process) or an explicit name from
        :data:`~repro.sim.backends.BACKEND_NAMES`.
    workers:
        Process-pool size, an int.  ``None`` means unspecified (serial
        when inferred; one per CPU for an explicit ``"process"``);
        ``0`` means one per CPU; ``1`` with an explicit ``"process"``
        is a genuine single-process pool.
    chunk_size:
        Reps per block (the determinism-contract knob), an int;
        ``None`` = default block size.  Never truncated: the block
        size fixes the reduction tree.
    cluster_workers:
        Loopback worker subprocesses to spawn for the distributed
        backend, an int (``0`` = none; workers then connect externally
        via ``repro worker``).
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
        # workers=0 is one per CPU; cluster_workers=0 is no local cluster.
        for name, minimum in (
            ("workers", 0), ("chunk_size", 1), ("cluster_workers", 0)
        ):
            value = getattr(self, name)
            if value is not None:
                require_count(name, value, minimum, ConfigurationError)
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

    def _pool_size(self) -> int:
        """``workers``, with unset or ``0`` read as one per CPU."""
        return self.workers or default_workers()

    @property
    def resolved_backend(self) -> str:
        """The name of the backend :meth:`make_runner` builds.

        Without an explicit ``backend``, a pool that would hold one
        process runs in-process instead (``workers=0`` on a one-CPU
        host is serial).
        """
        if self.backend is not None:
            return self.backend
        if self.workers is None or self._pool_size() == 1:
            return "serial"
        return "process"

    def make_runner(self):
        """The :class:`~repro.sim.parallel.BatchRunner` these settings
        describe, over the backend :attr:`resolved_backend` names."""
        from repro.sim.parallel import BatchRunner

        resolved = self.resolved_backend
        if resolved == "serial":
            backend = SerialBackend()
        elif resolved == "process":
            backend = ProcessBackend(self._pool_size())
        else:
            # Imported here so that only a distributed run loads the
            # socket transport and ssl.
            from repro.sim.distributed import LocalCluster, TLSConfig

            tls = None
            if self.tls_cert or self.tls_ca:
                tls = TLSConfig(
                    cert=self.tls_cert, key=self.tls_key, ca=self.tls_ca
                )
            cluster = None
            if self.cluster_workers:
                cluster = LocalCluster(self.cluster_workers, tls=tls)
            backend = DistributedBackend(
                url=self.url,
                cluster=cluster,
                tls=tls,
                connect_timeout=self.connect_timeout,
                straggler_factor=self.straggler_factor,
            )
        return BatchRunner(backend, chunk_size=self.chunk_size)


@dataclass(frozen=True)
class TableSpec:
    """Declarative description of one table of the evaluation.

    The eight published specs (:func:`table_spec`) are built from
    :data:`~repro.experiments.paper_data.TABLE_DESIGN`, with the
    published (U, λ) rows and the variant's cost model.
    """

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
        if self.adaptive_variant not in paper_data.COLUMNS:
            raise ConfigurationError(
                f"adaptive_variant must be 'scp' or 'ccp', got "
                f"{self.adaptive_variant!r}"
            )

    @property
    def schemes(self) -> Tuple[str, ...]:
        """Column order, matching the paper."""
        return paper_data.COLUMNS[self.adaptive_variant]

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
        """Fresh-policy factory for a scheme column (picklable, see
        :func:`~repro.core.schemes.scheme_factory`)."""
        return scheme_factory(
            scheme, frequency=self.static_frequency,
            config=self.adaptive_config,
        )

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
        if fast_static and issubclass(SCHEMES[scheme], _StaticPolicy):
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


def _build_specs() -> Dict[str, TableSpec]:
    return {
        table_id: TableSpec(
            table_id=table_id,
            title=paper_data.TABLE_TITLES[table_id],
            costs=CostModel.favouring(variant),
            fault_budget=k,
            static_frequency=speed,
            reference_frequency=speed,
            rows=tuple(paper_data.paper_rows(table_id)),
            adaptive_variant=variant,
        )
        for table_id, (variant, speed, k) in paper_data.TABLE_DESIGN.items()
    }


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
