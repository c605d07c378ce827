"""Self-tests of the benchmark harness.

Run from the root of a checkout (takes a few minutes, most of it the
smoke runs of every workload)::

    python3 perfbench/selftest.py
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

from harness import TAIL_BEYOND, OpLog, closed_loop, latency_summary, tail_index  # noqa: E402
from workloads import WORKLOADS, ColdCli, Context, TasksetEdf  # noqa: E402


def scratch_dir(test: unittest.TestCase) -> str:
    base = os.path.join(ROOT, ".perfbench")
    os.makedirs(base, exist_ok=True)
    path = tempfile.mkdtemp(prefix="selftest-", dir=base)
    test.addCleanup(shutil.rmtree, path, True)
    return path


def declared(section: str):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return [entry["name"] for entry in json.load(handle)[section]]


class TailTest(unittest.TestCase):
    def test_tail_keeps_ten_samples_beyond_it(self):
        for count in range(TAIL_BEYOND + 1, 2000):
            index = tail_index(count)
            self.assertEqual(count - index - 1, TAIL_BEYOND, count)

    def test_tail_is_the_maximum_below_eleven_samples(self):
        for count in range(1, TAIL_BEYOND + 1):
            self.assertEqual(tail_index(count), count - 1)

    def test_summary_reports_what_lies_beyond(self):
        samples = [float(i) for i in range(100)]
        summary = latency_summary(samples)
        self.assertEqual(summary["beyond"], TAIL_BEYOND)
        self.assertEqual(summary["tail_ms"], 89_000.0)
        self.assertEqual(summary["samples"], 100)


class FailedOpTest(unittest.TestCase):
    def test_wrong_estimate_is_one_failed_op(self):
        from repro.api import StudySpec

        ctx = Context(root=ROOT, seed=3, workdir=scratch_dir(self))
        workload = TasksetEdf(ctx)
        workload.setup()
        self.addCleanup(workload.teardown)
        workload.specs = {
            "taskset": StudySpec(kind="taskset", patterns=("light",),
                                 u_grid=(0.5,), reps=4, seed=5),
            "frontier": StudySpec(kind="frontier", table="1a", ms=(1, 2),
                                  reps=8, seed=6),
        }
        ops = iter(["taskset", "frontier", "taskset", "frontier"])
        log = OpLog()
        closed_loop(lambda: next(ops, None), workload.run_op, clients=1, log=log)
        self.assertEqual(log.failed, 0)
        results = log.outputs[1]
        first = results.records[0]
        other = log.outputs[0].records[0]
        wrong = dataclasses.replace(first, estimate=other.estimate)
        log.outputs[1] = type(results)(
            results.spec_hash, [wrong, *results.records[1:]], spec=results.spec
        )
        workload.check(log)
        self.assertEqual(log.failed, 1)
        self.assertIsNotNone(log.errors[1])

    def test_non_zero_exit_is_one_failed_op(self):
        ctx = Context(root=ROOT, seed=3, workdir=scratch_dir(self))
        workload = ColdCli(ctx)
        workload.spec_path = os.path.join(ctx.workdir, "no-such.spec.json")
        workload.url = "http://127.0.0.1:9"
        workload.commands = 0
        ops = iter(["list", "run", "list"])
        log = OpLog()
        closed_loop(lambda: next(ops, None), workload.run_op, clients=1, log=log)
        self.assertEqual(log.failed, 1)
        self.assertTrue(log.errors[1].startswith("OpFailed: exit 2"), log.errors[1])


class SmokeTest(unittest.TestCase):
    """A seconds-long run of every workload emits every metric name."""

    def run_benchmark(self, cwd: str, *args: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "perfbench/run.py", *args],
            cwd=cwd, capture_output=True, text=True, timeout=900,
        )

    def check_run(self, workload: str, trace: int, section: str) -> None:
        done = self.run_benchmark(
            ROOT, "--workload", workload, "--seed", "1", "--seconds", "1",
            "--trace", str(trace),
        )
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = json.loads(done.stdout.strip().splitlines()[-1])
        self.assertEqual(
            sorted(result), ["attempted", "correct", "failed", "metrics"]
        )
        self.assertTrue(result["correct"], done.stdout[-2000:])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        self.assertEqual(sorted(result["metrics"]), sorted(declared(section)))
        report = "\n".join(done.stdout.strip().splitlines()[:-1])
        for name in declared(section):
            self.assertIn(name, report)

    def test_every_workload_emits_every_metric(self):
        for workload in sorted(WORKLOADS):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    self.check_run(workload, trace, section)

    def test_without_the_program_it_fails_without_a_result(self):
        bare = scratch_dir(self)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = self.run_benchmark(
            bare, "--workload", "cold-cli", "--seed", "1", "--seconds", "1",
            "--trace", "0",
        )
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
