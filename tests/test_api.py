"""Public-API integrity: everything advertised exists and works."""

import importlib
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import repro
from tests.conftest import repro_env

#: The packages whose names resolve on first access (PEP 562).
LAZY_PACKAGES = ["repro", "repro.api", "repro.service", "repro.sim", "repro.core"]

#: Where the exported constants are defined (classes, functions and
#: submodules name their own module).
CONSTANT_HOMES = {
    "BACKEND_NAMES": "repro.choices",
    "DEFAULT_BLOCK_SIZE": "repro.sim.parallel",
    "STUDY_KINDS": "repro.choices",
    "__version__": "repro",
}


class TestPublicSurface:
    def test_all_names_resolve(self):
        assert len(set(repro.__all__)) == len(repro.__all__) == 70
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
            "repro.experiments",
            "repro.experiments.config",
            "repro.experiments.paper_data",
            "repro.experiments.report",
            "repro.experiments.sensitivity",
            "repro.experiments.sweeps",
            "repro.experiments.tables",
            "repro.cli",
            "repro.errors",
            "repro.api",
            "repro.service",
            "repro.service.client",
            "repro.goldens",
            "repro.workloads",
            "repro.choices",
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
            "repro.api.results",
            "repro.sim.metrics",
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


class TestLazySurfaces:
    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_each_name_is_its_defining_modules_object(self, package):
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            if isinstance(value, types.ModuleType):
                assert value is sys.modules[f"{package}.{name}"]
                continue
            home = CONSTANT_HOMES.get(name) or value.__module__
            assert getattr(importlib.import_module(home), name) is value, name

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_dir_lists_every_name(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    @pytest.mark.parametrize("package", LAZY_PACKAGES)
    def test_unknown_name_raises_attribute_error_naming_the_package(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match=f"module '{package}' has no"):
            module.no_such_name

    def test_moved_definitions_keep_their_import_paths(self):
        from repro import choices
        from repro.api import spec
        from repro.service import client, server
        from repro.sim import backends, kernel, metrics, montecarlo

        assert backends.BACKEND_NAMES is choices.BACKEND_NAMES
        assert repro.BACKEND_NAMES is choices.BACKEND_NAMES
        assert kernel.KERNEL_NAMES is choices.KERNEL_NAMES
        assert spec.STUDY_KINDS is choices.STUDY_KINDS
        assert spec.KIND_SUMMARIES is choices.KIND_SUMMARIES
        assert montecarlo.CellEstimate is metrics.CellEstimate
        assert metrics.CellEstimate.__module__ == "repro.sim.metrics"
        assert server.DEFAULT_URL is client.DEFAULT_URL

    @pytest.mark.parametrize(
        "module",
        [
            *LAZY_PACKAGES,
            "repro.cli",
            "repro.api.results",
            "repro.service.client",
            "repro.sim.metrics",
            "repro.choices",
        ],
    )
    def test_imports_first_in_a_fresh_interpreter(self, module):
        # Lazy package inits change the import order, so an import cycle
        # that an eager ``repro/__init__`` hid would show only here.
        code = (
            f"import {module} as m\n"
            "for name in getattr(m, '__all__', ()):\n"
            "    getattr(m, name)\n"
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=repro_env(),
        )
        assert done.returncode == 0, done.stderr


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

    def test_serial_and_process_studies_never_load_the_socket_transport(self):
        # Only a distributed run needs the socket transport and ssl; the
        # resolver imports them on that branch alone, so a serial or
        # process-pool study starts without paying for either.
        code = textwrap.dedent(
            """
            import sys

            import repro

            spec = repro.StudySpec(kind="table", table="1a", reps=4, seed=2006)
            repro.Study(spec).run()
            with repro.Session(backend="process", workers=2) as session:
                repro.Study(spec).run(session)
            print([m for m in ("repro.sim.distributed", "ssl") if m in sys.modules])
            """
        )
        done = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            timeout=120,
            env=repro_env(),
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_numpy_blocker_blocks(self, numpy_blocked_env):
        done = subprocess.run(
            [sys.executable, "-c", "import numpy"],
            capture_output=True,
            text=True,
            timeout=60,
            env=numpy_blocked_env,
        )
        assert done.returncode != 0
        assert "No module named 'numpy'" in done.stderr

    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["list"],
            ["run", "--list-kinds"],
            ["submit", "--help"],
            ["cache", "stats", "--cache", "CACHE"],
        ],
    )
    def test_commands_that_compute_nothing_never_import_numpy(
        self, argv, tmp_path, numpy_blocked_env
    ):
        argv = [str(tmp_path / "cells") if arg == "CACHE" else arg for arg in argv]

        def run(env):
            return subprocess.run(
                [sys.executable, "-m", "repro", *argv],
                capture_output=True,
                text=True,
                timeout=60,
                env=env,
            )

        blocked = run(numpy_blocked_env)
        assert blocked.returncode == 0, blocked.stderr
        assert blocked.stdout == run(repro_env()).stdout
