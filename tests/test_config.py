"""Unit tests for the experiment table specs."""

import pytest

from repro.core.checkpoints import CostModel
from repro.core.schemes import (
    SCHEMES,
    AdaptiveCCPPolicy,
    AdaptiveConfig,
    AdaptiveDVSPolicy,
    AdaptiveSCPPolicy,
    KFaultTolerantPolicy,
    PoissonArrivalPolicy,
)
from repro.errors import ConfigurationError
from repro.experiments.config import DEADLINE, all_table_specs, table_spec
from repro.experiments.paper_data import COLUMNS, TABLE_IDS


class TestTableSpecs:
    def test_all_published_ids_resolvable(self):
        for table_id in TABLE_IDS:
            assert table_spec(table_id).table_id == table_id

    def test_unknown_id_rejected(self):
        with pytest.raises(ConfigurationError):
            table_spec("5a")

    def test_cost_families(self):
        assert table_spec("1a").costs.store_cycles == 2
        assert table_spec("2b").costs.store_cycles == 2
        assert table_spec("3a").costs.store_cycles == 20
        assert table_spec("4b").costs.compare_cycles == 2

    def test_static_frequencies(self):
        assert table_spec("1a").static_frequency == 1.0
        assert table_spec("2a").static_frequency == 2.0
        assert table_spec("3b").static_frequency == 1.0
        assert table_spec("4a").static_frequency == 2.0

    def test_fault_budgets(self):
        assert table_spec("1a").fault_budget == 5
        assert table_spec("1b").fault_budget == 1
        assert table_spec("4a").fault_budget == 5
        assert table_spec("4b").fault_budget == 1

    def test_scheme_columns(self):
        assert table_spec("1a").schemes == ("Poisson", "k-f-t", "A_D", "A_D_S")
        assert table_spec("3a").schemes == ("Poisson", "k-f-t", "A_D", "A_D_C")

    @pytest.mark.parametrize(
        "table_id, variant, speed, k, title",
        [
            ("1a", "scp", 1.0, 5, "adapchp-dvs-SCPs vs baselines; static schemes at f1; k=5 (paper Tab. 1a)"),
            ("1b", "scp", 1.0, 1, "adapchp-dvs-SCPs vs baselines; static schemes at f1; k=1 (paper Tab. 1b)"),
            ("2a", "scp", 2.0, 5, "adapchp-dvs-SCPs vs baselines; static schemes at f2; k=5 (paper Tab. 2a)"),
            ("2b", "scp", 2.0, 1, "adapchp-dvs-SCPs vs baselines; static schemes at f2; k=1 (paper Tab. 2b)"),
            ("3a", "ccp", 1.0, 5, "adapchp-dvs-CCPs vs baselines; static schemes at f1; k=5 (paper Tab. 3a)"),
            ("3b", "ccp", 1.0, 1, "adapchp-dvs-CCPs vs baselines; static schemes at f1; k=1 (paper Tab. 3b)"),
            ("4a", "ccp", 2.0, 5, "adapchp-dvs-CCPs vs baselines; static schemes at f2; k=5 (paper Tab. 4a)"),
            ("4b", "ccp", 2.0, 1, "adapchp-dvs-CCPs vs baselines; static schemes at f2; k=1 (paper Tab. 4b)"),
        ],
    )
    def test_published_design(self, table_id, variant, speed, k, title):
        # The whole design of every published table, spelled out here
        # rather than read from paper_data.
        spec = table_spec(table_id)
        assert spec.adaptive_variant == variant
        # repr, so that an int speed (which would change every static
        # cell's identity) fails too.
        assert repr(
            (spec.static_frequency, spec.reference_frequency, spec.fault_budget)
        ) == repr((speed, speed, k))
        if variant == "scp":
            costs, proposed = CostModel.scp_favourable(), "A_D_S"
        else:
            costs, proposed = CostModel.ccp_favourable(), "A_D_C"
        assert spec.costs == costs
        assert spec.schemes == ("Poisson", "k-f-t", "A_D", proposed)
        assert spec.title == title

    def test_scheme_map_holds_exactly_the_column_names(self):
        # `repro demo --scheme` offers the COLUMNS names (no numpy at
        # parse time) and builds them through SCHEMES.
        assert set(SCHEMES) == {name for names in COLUMNS.values() for name in names}

    def test_task_cycles_use_reference_frequency(self):
        # Tables 1/3: N = U·f1·D; tables 2/4: N = U·f2·D.
        assert table_spec("1a").task(0.76, 1.4e-3).cycles == pytest.approx(7600)
        assert table_spec("2a").task(0.76, 1.4e-3).cycles == pytest.approx(15200)

    def test_task_carries_row_parameters(self):
        task = table_spec("1b").task(0.92, 2e-4)
        assert task.fault_rate == 2e-4
        assert task.fault_budget == 1
        assert task.deadline == DEADLINE

    def test_policy_factories_build_fresh_instances(self):
        spec = table_spec("1a")
        factory = spec.policy_factory("A_D_S")
        a, b = factory(), factory()
        assert isinstance(a, AdaptiveSCPPolicy)
        assert a is not b

    def test_policy_factory_types(self):
        spec_scp = table_spec("2a")
        spec_ccp = table_spec("4a")
        assert isinstance(spec_scp.policy_factory("Poisson")(), PoissonArrivalPolicy)
        assert isinstance(spec_scp.policy_factory("k-f-t")(), KFaultTolerantPolicy)
        assert isinstance(spec_scp.policy_factory("A_D")(), AdaptiveDVSPolicy)
        assert isinstance(spec_ccp.policy_factory("A_D_C")(), AdaptiveCCPPolicy)

    def test_static_policies_use_spec_frequency(self):
        policy = table_spec("2a").policy_factory("Poisson")()
        assert policy.frequency == 2.0

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ConfigurationError):
            table_spec("1a").policy_factory("bogus")

    def test_with_adaptive_config(self):
        spec = table_spec("1a").with_adaptive_config(
            AdaptiveConfig(analysis_rate_factor=2.0)
        )
        policy = spec.policy_factory("A_D_S")()
        assert policy.config.analysis_rate_factor == 2.0

    def test_all_table_specs_ordered(self):
        assert [s.table_id for s in all_table_specs()] == list(TABLE_IDS)

    def test_invalid_variant_rejected(self):
        from repro.experiments.config import TableSpec
        from repro.core.checkpoints import CostModel

        with pytest.raises(ConfigurationError):
            TableSpec(
                table_id="x",
                title="bad",
                costs=CostModel.scp_favourable(),
                fault_budget=1,
                static_frequency=1.0,
                reference_frequency=1.0,
                rows=((0.5, 1e-4),),
                adaptive_variant="nope",
            )


class TestExecutionSettings:
    """The one validated where-does-it-run selector behind the CLI."""

    def _settings(self, **kwargs):
        from repro.experiments.config import ExecutionSettings

        return ExecutionSettings(**kwargs)

    def test_default_is_implicit_serial(self):
        from repro.sim.parallel import DEFAULT_BLOCK_SIZE

        settings = self._settings()
        assert settings.resolved_backend == "serial"
        runner = settings.make_runner()
        assert runner.backend.name == "serial"
        assert runner.block_size == DEFAULT_BLOCK_SIZE

    def test_workers_imply_process(self):
        settings = self._settings(workers=4)
        assert settings.resolved_backend == "process"
        runner = settings.make_runner()
        assert runner.backend.workers == 4
        runner.close()

    def test_workers_one_stays_serial_when_inferred(self):
        settings = self._settings(workers=1)
        assert settings.resolved_backend == "serial"
        assert settings.make_runner().backend.name == "serial"

    def test_explicit_process_honours_workers_verbatim(self):
        from repro.sim.backends import default_workers

        unspecified = self._settings(backend="process").make_runner()
        assert unspecified.backend.name == "process"
        assert unspecified.backend.workers == default_workers()
        unspecified.close()
        single = self._settings(backend="process", workers=1).make_runner()
        assert single.backend.name == "process"
        assert single.backend.workers == 1  # a genuine 1-process pool
        single.close()

    def test_workers_zero_means_all_cpus(self):
        from repro.sim.backends import default_workers

        runner = self._settings(workers=0).make_runner()
        assert runner.backend.workers == default_workers()
        runner.close()

    def test_workers_zero_on_one_cpu_runs_serial(self, monkeypatch):
        # The inferred path sizes the pool from the CPU count, and a
        # one-CPU host gets the in-process backend, not a 1-process pool.
        monkeypatch.setattr(
            "repro.experiments.config.default_workers", lambda: 1
        )
        settings = self._settings(workers=0)
        assert settings.resolved_backend == "serial"
        runner = settings.make_runner()
        assert runner.backend.name == "serial"
        assert runner.backend.workers == 1
        # An explicit process backend still gets a pool, of one process.
        pool = self._settings(backend="process", workers=0).make_runner()
        assert pool.backend.name == "process"
        assert pool.backend.workers == 1
        pool.close()

    def test_chunk_size_alone_stays_serial(self):
        runner = self._settings(chunk_size=64).make_runner()
        assert runner is not None
        assert runner.block_size == 64
        assert runner.backend.name == "serial"

    def test_distributed_with_cluster(self):
        settings = self._settings(backend="distributed", cluster_workers=2)
        assert settings.resolved_backend == "distributed"
        runner = settings.make_runner()
        try:
            assert runner.backend.name == "distributed"
            assert runner.backend.cluster.size == 2
        finally:
            runner.close()

    def test_distributed_url_passthrough(self):
        settings = self._settings(backend="distributed", url="tcp://127.0.0.1:0")
        runner = settings.make_runner()
        try:
            assert runner.backend.url == "tcp://127.0.0.1:0"
            assert runner.backend.cluster is None
        finally:
            runner.close()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(backend="quantum"),
            dict(workers=-1),
            dict(chunk_size=0),
            dict(cluster_workers=-2),
            dict(backend="serial", workers=4),
            dict(backend="distributed", workers=2),
            dict(backend="distributed", workers=1),
            dict(backend="process", cluster_workers=2),
            dict(cluster_workers=2),
            dict(url="tcp://x:1"),
            dict(backend="serial", url="tcp://x:1"),
            dict(tls_cert="c.pem", tls_key="k.pem"),
            dict(connect_timeout=5.0),
            dict(backend="process", straggler_factor=2.0),
            dict(backend="distributed", tls_cert="c.pem"),
            dict(backend="distributed", tls_ca="ca.pem"),
            dict(backend="distributed", connect_timeout=0),
            dict(backend="distributed", straggler_factor=-1),
            dict(backend="distributed", connect_timeout=float("nan")),
            dict(backend="distributed", connect_timeout=float("inf")),
            dict(backend="distributed", straggler_factor=float("nan")),
            dict(backend="distributed", straggler_factor=float("inf")),
            dict(chunk_size=100.7),
            dict(workers=2.5),
            dict(workers=True),
            dict(backend="distributed", cluster_workers=1.5),
        ],
    )
    def test_contradictions_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            self._settings(**kwargs)
