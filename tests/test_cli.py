"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import _make_runner, build_parser, main
from repro.sim.parallel import BatchRunner, default_workers


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table_defaults(self):
        args = build_parser().parse_args(["table", "1a"])
        assert args.table_id == "1a"
        assert args.reps == 2000
        assert args.seed == 2006

    def test_rejects_unknown_table(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "7q"])


class TestCommands:
    def test_list(self, capsys):
        from repro.experiments.config import all_table_specs

        assert main(["list"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            f"{spec.table_id}: {spec.title}" for spec in all_table_specs()
        ]

    def test_table_text(self, capsys):
        assert main(["table", "2b", "--reps", "25", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "Table 2b" in out
        assert "A_D_S" in out

    def test_table_json(self, capsys):
        assert main(["table", "2b", "--reps", "25", "--seed", "1", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["table"] == "2b"
        assert len(payload["rows"]) == 4
        first = payload["rows"][0]["cells"]["Poisson"]
        assert set(first) == {"p", "e", "paper_p", "paper_e"}

    def test_table_markdown(self, capsys):
        assert main(["table", "2b", "--reps", "25", "--markdown"]) == 0
        assert "| U | λ | scheme |" in capsys.readouterr().out

    def test_table_without_paper_columns(self, capsys):
        assert main(["table", "2b", "--reps", "25", "--no-paper"]) == 0
        assert "P paper" not in capsys.readouterr().out

    def test_demo(self, capsys):
        assert main(["demo", "--scheme", "A_D_S", "--seed", "4"]) == 0
        out = capsys.readouterr().out
        assert "completed=" in out

    def test_demo_every_scheme(self, capsys):
        for scheme in ("Poisson", "k-f-t", "A_D", "A_D_S", "A_D_C"):
            assert main(["demo", "--scheme", scheme, "--seed", "1"]) == 0
        assert "scheme=" in capsys.readouterr().out

    def test_json_nan_serialised_as_null(self, capsys):
        # Table 1b has U=1.0 rows with NaN energies for static schemes.
        assert main(["table", "1b", "--reps", "25", "--seed", "2", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        u1_rows = [r for r in payload["rows"] if r["u"] == 1.0]
        assert u1_rows
        assert u1_rows[0]["cells"]["Poisson"]["e"] is None


class TestWorkersFlag:
    def test_defaults_to_serial(self):
        args = build_parser().parse_args(["table", "1a"])
        assert args.workers is None  # unspecified, distinct from --workers 1
        assert _make_runner(args) is None

    def test_explicit_workers_one_is_serial_too(self):
        args = build_parser().parse_args(["table", "1a", "--workers", "1"])
        assert _make_runner(args) is None

    def test_parses_worker_count(self):
        args = build_parser().parse_args(["table", "1a", "--workers", "4"])
        assert args.workers == 4
        runner = _make_runner(args)
        assert isinstance(runner, BatchRunner)
        assert runner.workers == 4

    def test_zero_means_cpu_count(self):
        args = build_parser().parse_args(["validate", "--workers", "0"])
        assert _make_runner(args).workers == default_workers()

    def test_accepted_on_validate_and_sweep(self):
        assert build_parser().parse_args(
            ["validate", "--workers", "2"]
        ).workers == 2
        assert build_parser().parse_args(
            ["sweep", "fixed-m", "--workers", "2"]
        ).workers == 2

    def test_table_output_byte_identical_across_worker_counts(self, capsys):
        base = ["table", "2b", "--reps", "20", "--seed", "3"]
        assert main(base + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        pooled_out = capsys.readouterr().out
        assert pooled_out == serial_out

    def test_json_output_byte_identical_across_worker_counts(self, capsys):
        base = ["table", "1b", "--reps", "15", "--seed", "9", "--json"]
        assert main(base) == 0  # omitted flag = serial fallback
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "3"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_sweep_fixed_m_with_workers(self, capsys):
        assert main(
            ["sweep", "fixed-m", "--reps", "20", "--workers", "2"]
        ) == 0
        assert "adaptive" in capsys.readouterr().out


class TestChunkSizeFlag:
    def test_defaults_to_none(self):
        args = build_parser().parse_args(["table", "1a"])
        assert args.chunk_size is None

    def test_parses_block_size(self):
        args = build_parser().parse_args(
            ["table", "1a", "--chunk-size", "128"]
        )
        assert args.chunk_size == 128
        runner = _make_runner(args)
        assert isinstance(runner, BatchRunner)
        assert runner.block_size == 128
        assert runner.workers == 1  # block size alone keeps serial

    def test_combines_with_workers(self):
        args = build_parser().parse_args(
            ["validate", "--workers", "3", "--chunk-size", "50"]
        )
        runner = _make_runner(args)
        assert runner.workers == 3
        assert runner.block_size == 50

    @pytest.mark.parametrize("bad", ["0", "-4", "two"])
    def test_rejects_invalid_values(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "1a", "--chunk-size", bad])

    def test_accepted_on_validate_and_sweep(self):
        assert build_parser().parse_args(
            ["validate", "--chunk-size", "99"]
        ).chunk_size == 99
        assert build_parser().parse_args(
            ["sweep", "fixed-m", "--chunk-size", "99"]
        ).chunk_size == 99

    def test_output_byte_identical_across_workers_for_fixed_block(
        self, capsys
    ):
        base = ["table", "2b", "--reps", "20", "--seed", "3",
                "--chunk-size", "7"]
        assert main(base + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out


class TestFastStaticFlag:
    def test_table_runs_with_fast_static(self, capsys):
        assert main(
            ["table", "1a", "--reps", "30", "--seed", "1", "--fast-static"]
        ) == 0
        out = capsys.readouterr().out
        assert "Poisson" in out and "A_D_S" in out

    def test_fast_static_json_shape_unchanged(self, capsys):
        assert main(
            ["table", "2b", "--reps", "25", "--seed", "1", "--json",
             "--fast-static"]
        ) == 0
        import json as json_mod

        payload = json_mod.loads(capsys.readouterr().out)
        first = payload["rows"][0]["cells"]["Poisson"]
        assert set(first) == {"p", "e", "paper_p", "paper_e"}


class TestRunCommand:
    """The declarative study runner and the --out/--resume flags."""

    def _write_spec(self, tmp_path, payload):
        path = tmp_path / "study.spec.json"
        path.write_text(json.dumps(payload))
        return str(path)

    def test_run_table_spec_renders_and_saves(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path,
            {"kind": "table", "table": "2b", "reps": 16, "seed": 1,
             "fast_static": True},
        )
        out = str(tmp_path / "results.json")
        assert main(["run", spec, "--out", out]) == 0
        text = capsys.readouterr().out
        assert "16 cells (16 computed, 0 reused)" in text
        assert "Table 2b" in text
        from repro.api import ResultSet

        saved = ResultSet.load(out)
        assert len(saved) == 16

    def test_run_resume_reuses_everything(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path,
            {"kind": "fixed_m", "table": "1a", "ms": [1, 2], "reps": 16,
             "seed": 3},
        )
        out = str(tmp_path / "results.json")
        assert main(["run", spec, "--out", out, "--quiet"]) == 0
        assert main(["run", spec, "--out", out, "--resume", out,
                     "--quiet"]) == 0
        text = capsys.readouterr().out
        assert "(0 computed, 3 reused)" in text

    def test_run_resume_missing_file_starts_fresh(self, tmp_path, capsys):
        spec = self._write_spec(
            tmp_path,
            {"kind": "rate_factor", "table": "1a", "factors": [1.0],
             "reps": 16, "seed": 3},
        )
        missing = str(tmp_path / "nope.json")
        assert main(["run", spec, "--resume", missing, "--quiet"]) == 0
        captured = capsys.readouterr()
        assert "starting fresh" in captured.err
        assert "(1 computed, 0 reused)" in captured.out

    def test_run_csv_export(self, tmp_path):
        spec = self._write_spec(
            tmp_path,
            {"kind": "rate_factor", "table": "1a", "factors": [1.0],
             "reps": 16, "seed": 3},
        )
        csv_path = tmp_path / "results.csv"
        assert main(["run", spec, "--csv", str(csv_path), "--quiet"]) == 0
        lines = csv_path.read_text().splitlines()
        assert len(lines) == 2 and lines[0].startswith("factor,")

    def test_run_bad_spec_exits_2(self, tmp_path, capsys):
        spec = self._write_spec(tmp_path, {"kind": "warp-drive"})
        assert main(["run", spec]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "payload",
        [
            {"kind": "utilization", "table": "1a", "u_grid": 5,
             "lam": 1e-4},
            {"kind": "table", "table": "1a", "reps": "lots"},
            {"kind": "table", "table": "1a", "seed": 1.5},
        ],
    )
    def test_run_malformed_spec_types_exit_2(self, tmp_path, capsys,
                                             payload):
        spec = self._write_spec(tmp_path, payload)
        assert main(["run", spec]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_missing_spec_file_exits_2(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "absent.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_run_unwritable_out_fails_before_computing(self, tmp_path,
                                                       capsys):
        spec = self._write_spec(
            tmp_path,
            {"kind": "rate_factor", "table": "1a", "factors": [1.0],
             "reps": 16, "seed": 3},
        )
        bad = str(tmp_path / "absent-dir" / "r.json")
        assert main(["run", spec, "--out", bad, "--quiet"]) == 2
        err = capsys.readouterr().err
        assert "does not exist" in err

    def test_table_out_and_resume_round_trip(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["table", "2b", "--reps", "16", "--fast-static",
                     "--out", out]) == 0
        first = capsys.readouterr().out
        assert main(["table", "2b", "--reps", "16", "--fast-static",
                     "--resume", out]) == 0
        second = capsys.readouterr().out
        # Resume reused every cell; the rendered table is identical.
        assert first == second

    def test_resume_from_different_study_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "t.json")
        assert main(["table", "2b", "--reps", "16", "--fast-static",
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["table", "2b", "--reps", "17", "--fast-static",
                     "--resume", out]) == 2
        assert "different study" in capsys.readouterr().err

    def test_run_resume_hash_mismatch_names_both_hashes(self, tmp_path,
                                                        capsys):
        """``run --resume`` against a foreign result file: exit 2 and a
        message naming the file's spec hash AND this study's, so the
        user can see which side to fix."""
        from repro.api import Study

        payload_a = {"kind": "fixed_m", "table": "1a", "ms": [1, 2],
                     "reps": 16, "seed": 3}
        payload_b = dict(payload_a, seed=4)
        spec_a = self._write_spec(tmp_path, payload_a)
        out = str(tmp_path / "a.json")
        assert main(["run", spec_a, "--out", out, "--quiet"]) == 0
        capsys.readouterr()

        path_b = tmp_path / "b.spec.json"
        path_b.write_text(json.dumps(payload_b))
        assert main(["run", str(path_b), "--resume", out, "--quiet"]) == 2
        err = capsys.readouterr().err
        hash_a = Study(payload_a).spec_hash
        hash_b = Study(payload_b).spec_hash
        assert hash_a != hash_b
        assert hash_a in err and hash_b in err
        assert "different study" in err


class TestSweepCommand:
    def test_cost_ratio(self, capsys):
        assert main(["sweep", "cost-ratio"]) == 0
        out = capsys.readouterr().out
        assert "m_SCP" in out and "m_CCP" in out

    def test_benefit(self, capsys):
        assert main(["sweep", "benefit"]) == 0
        out = capsys.readouterr().out
        assert "λ·T" in out
        assert "%" in out

    def test_fixed_m(self, capsys):
        assert main(["sweep", "fixed-m", "--reps", "30"]) == 0
        out = capsys.readouterr().out
        assert "adaptive" in out

    def test_operating_map(self, capsys):
        assert main(["sweep", "operating-map", "--reps", "20"]) == 0
        out = capsys.readouterr().out
        assert "winner per" in out

    def test_sweep_out_resume(self, tmp_path, capsys):
        out = str(tmp_path / "fm.json")
        assert main(["sweep", "fixed-m", "--reps", "20", "--out", out]) == 0
        first = capsys.readouterr().out
        assert main(["sweep", "fixed-m", "--reps", "20", "--resume", out]) == 0
        assert capsys.readouterr().out == first

    def test_analytic_sweep_rejects_out(self, tmp_path, capsys):
        assert main(["sweep", "cost-ratio", "--out",
                     str(tmp_path / "x.json")]) == 2
        assert "only apply to Monte-Carlo" in capsys.readouterr().err

    def test_unknown_study_rejected(self):
        import pytest

        with pytest.raises(SystemExit):
            main(["sweep", "bogus"])


class TestBackendFlag:
    def test_defaults(self):
        args = build_parser().parse_args(["table", "1a"])
        assert args.backend is None
        assert args.cluster_workers == 0

    def test_explicit_process_backend(self):
        args = build_parser().parse_args(
            ["table", "1a", "--backend", "process", "--workers", "3"]
        )
        runner = _make_runner(args)
        assert runner.workers == 3
        assert runner.backend.name == "process"
        runner.close()

    def test_explicit_serial_backend_is_implicit_default(self):
        args = build_parser().parse_args(["table", "1a", "--backend", "serial"])
        assert _make_runner(args) is None

    def test_explicit_process_backend_without_workers_uses_all_cpus(self):
        args = build_parser().parse_args(["table", "1a", "--backend", "process"])
        runner = _make_runner(args)
        try:
            assert runner.backend.name == "process"
            assert runner.workers == default_workers()
        finally:
            runner.close()

    def test_explicit_process_backend_with_one_worker_is_a_real_pool(self):
        args = build_parser().parse_args(
            ["table", "1a", "--backend", "process", "--workers", "1"]
        )
        runner = _make_runner(args)
        try:
            assert runner.backend.name == "process"
            assert runner.workers == 1
        finally:
            runner.close()

    def test_distributed_backend_builds_cluster_runner(self):
        args = build_parser().parse_args(
            ["table", "1a", "--backend", "distributed", "--cluster-workers", "2"]
        )
        runner = _make_runner(args)
        try:
            assert runner.backend.name == "distributed"
            assert runner.backend.cluster.size == 2
        finally:
            runner.close()

    def test_rejects_unknown_backend(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table", "1a", "--backend", "quantum"])

    def test_contradictory_flags_exit_2(self):
        assert main(
            ["table", "1a", "--backend", "serial", "--workers", "4"]
        ) == 2
        assert main(
            ["table", "1a", "--backend", "distributed", "--workers", "4"]
        ) == 2
        assert main(["table", "1a", "--cluster-workers", "2"]) == 2

    @pytest.mark.parametrize("bad", ["nan", "inf", "-1", "soon"])
    def test_rejects_non_finite_straggler_factor(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["table", "1a", "--backend", "distributed",
                 "--straggler-factor", bad]
            )
        assert build_parser().parse_args(
            ["table", "1a", "--straggler-factor", "0"]
        ).straggler_factor == 0.0

    def test_accepted_on_validate_and_sweep(self):
        assert build_parser().parse_args(
            ["validate", "--backend", "process"]
        ).backend == "process"
        assert build_parser().parse_args(
            ["sweep", "fixed-m", "--backend", "distributed",
             "--cluster-workers", "1"]
        ).cluster_workers == 1

    def test_table_output_byte_identical_distributed_vs_serial(self, capsys):
        """The CLI acceptance path: a 2-worker loopback cluster renders
        the very bytes the serial run renders."""
        base = ["table", "2b", "--reps", "24", "--seed", "3",
                "--chunk-size", "8", "--no-paper"]
        assert main(base) == 0
        serial_out = capsys.readouterr().out
        assert main(base + ["--backend", "distributed",
                            "--cluster-workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out


class TestWorkerCommand:
    def test_parses_url_and_flags(self):
        args = build_parser().parse_args(
            ["worker", "tcp://10.1.2.3:8642", "--idle-timeout", "7.5",
             "--max-tasks", "3"]
        )
        assert args.url == "tcp://10.1.2.3:8642"
        assert args.idle_timeout == 7.5
        assert args.max_tasks == 3

    def test_invalid_url_exits_2(self):
        assert main(["worker", "http://nope:1"]) == 2

    @pytest.mark.parametrize("bad", ["0", "-3", "soon"])
    def test_rejects_nonpositive_idle_timeout(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["worker", "tcp://h:1", "--idle-timeout", bad]
            )

    def test_unreachable_coordinator_exits_1(self):
        import socket

        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
        probe.close()  # guaranteed-free port: nobody listens
        assert main(["worker", f"tcp://127.0.0.1:{port}"]) == 1


class TestRemovedFlags:
    def test_no_adaptive_batch_flag_is_rejected(self):
        # Adaptive dispatch is the only dispatch, so there is no flag
        # to turn it off: argparse rejects it with exit code 2.
        with pytest.raises(SystemExit) as exited:
            main(["table", "1a", "--reps", "8", "--no-adaptive-batch"])
        assert exited.value.code == 2
