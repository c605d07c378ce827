"""Public-API integrity: everything advertised exists and works."""

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"__all__ advertises missing {name}"

    def test_version(self):
        assert repro.__version__ == "1.0.0"

    @pytest.mark.parametrize(
        "module",
        [
            "repro.core",
            "repro.core.analysis",
            "repro.core.checkpoints",
            "repro.core.dvs",
            "repro.core.intervals",
            "repro.core.optimizer",
            "repro.core.renewal",
            "repro.core.schemes",
            "repro.sim",
            "repro.sim.energy",
            "repro.sim.executor",
            "repro.sim.faults",
            "repro.sim.metrics",
            "repro.sim.montecarlo",
            "repro.sim.rng",
            "repro.sim.state",
            "repro.sim.task",
            "repro.sim.trace",
            "repro.rts",
            "repro.rts.feasibility",
            "repro.rts.scheduler",
            "repro.rts.taskset",
            "repro.extensions",
            "repro.extensions.multi_speed",
            "repro.extensions.security",
            "repro.extensions.tmr",
            "repro.experiments",
            "repro.experiments.config",
            "repro.experiments.paper_data",
            "repro.experiments.report",
            "repro.experiments.sensitivity",
            "repro.experiments.sweeps",
            "repro.experiments.tables",
            "repro.cli",
            "repro.errors",
        ],
    )
    def test_module_imports(self, module):
        imported = importlib.import_module(module)
        assert imported.__doc__, f"{module} lacks a module docstring"

    def test_module_all_lists_resolve(self):
        for module_name in (
            "repro.core.analysis",
            "repro.core.intervals",
            "repro.core.renewal",
            "repro.core.optimizer",
            "repro.core.schemes",
            "repro.sim.executor",
            "repro.sim.faults",
            "repro.experiments.sensitivity",
        ):
            module = importlib.import_module(module_name)
            for name in module.__all__:
                assert hasattr(module, name), f"{module_name}.{name} missing"

    def test_readme_quickstart_runs(self):
        # The literal README snippet, at tiny reps.
        from repro import (
            AdaptiveDVSPolicy,
            AdaptiveSCPPolicy,
            CostModel,
            TaskSpec,
            estimate,
        )

        task = TaskSpec(
            cycles=7600,
            deadline=10_000,
            fault_budget=5,
            fault_rate=1.4e-3,
            costs=CostModel.scp_favourable(),
        )
        paper = estimate(task, AdaptiveSCPPolicy, reps=120, seed=42)
        base = estimate(task, AdaptiveDVSPolicy, reps=120, seed=42)
        assert paper.p > 0.95 and base.p > 0.95
        assert paper.e < base.e

    def test_public_classes_have_docstrings(self):
        for name in repro.__all__:
            if name.startswith("__"):
                continue
            obj = getattr(repro, name)
            if isinstance(obj, type) or callable(obj):
                assert getattr(obj, "__doc__", None), f"{name} lacks a docstring"


class TestStartUp:
    def test_runtime_never_imports_scipy(self):
        # scipy would cost every cold `repro` command about a second; only
        # the tests load it, closed forms included.  A fresh interpreter,
        # because this one has imported it for tests.
        code = textwrap.dedent(
            """
            import sys

            import repro, repro.cli, repro.service
            from repro.core.analysis import (
                static_schedule,
                static_timely_probability,
            )
            from repro.experiments.config import table_spec

            repro.num_ccp(177.0, rate=2.8e-3, store=2.0, compare=20.0)
            spec = table_spec("3a")
            u, lam = spec.rows[-1]
            repro.estimate(
                spec.task(u, lam), spec.policy_factory("A_D_C"), reps=4, seed=2006
            )
            static_timely_probability(
                static_schedule(1000.0, 100.0, checkpoint_cost=22.0, rate=2e-3),
                1600.0,
            )
            study = repro.StudySpec(
                kind="table", table="1a", reps=4, seed=2006, fast_static=True
            )
            repro.Study(study).run()
            print([m for m in sys.modules if m == "scipy" or m.startswith("scipy.")])
            """
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"
