"""Self-tests of the benchmark harness itself (not of gaussl1).

    python3 perfbench/selftest.py

Checks that the tracer wraps every namespace that imported a function and
removes every wrapper afterwards, that traced jobs give the same outputs as
untraced ones, that per-layer self times plus the unattributed remainder
add up to the job wall time, that a traced run reports every declared
per-layer metric including the tracing overhead, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import unittest
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(1, str(ROOT / "src"))
# learn caps the planned degree on purpose
warnings.simplefilter("ignore", RuntimeWarning)

import gaussl1  # noqa: E402
import gaussl1.cli  # noqa: E402,F401
from gaussl1 import approx, checks, concepts, hermite, sign_series  # noqa: E402

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def _run_bench(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=170,
    )


class TracerTests(unittest.TestCase):
    def test_wraps_every_importing_namespace_and_removes_all(self):
        original = hermite.hermite_upto
        batch = concepts.Concept.__dict__["batch"]
        before = tracing.snapshot()
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for namespace in (hermite, approx, sign_series, gaussl1):
                self.assertIsNot(namespace.hermite_upto, original)
                self.assertIs(namespace.hermite_upto.__wrapped__, original)
            self.assertIsNot(concepts.Concept.__dict__["batch"], batch)
            self.assertEqual(len(checks.ALL_CHECKS), len(layers.CHECK_NAMES))
        finally:
            tracer.remove()
        self.assertEqual(tracing.snapshot(), before)
        self.assertIs(approx.hermite_upto, original)

    def test_self_times_account_for_wall(self):
        jobs = workloads.audit_jobs(3)[:5]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            runner = worker.Runner()
            for job in jobs:
                runner.run(job, tracer)
        finally:
            tracer.remove()
        stats = tracer.export()
        wall = sum(r[1] for r in runner.records)
        metrics = layers.per_layer_metrics(stats, {"trace.job_wall_s": wall})
        layer_sum = sum(metrics[f"layer.{name}.self_s"]["value"] for name in layers.LAYERS)
        unattributed = metrics["trace.unattributed_s"]["value"]
        self.assertTrue(math.isclose(layer_sum + unattributed, wall, rel_tol=1e-9))
        self.assertGreater(layer_sum, 0.95 * wall)


class OutputTests(unittest.TestCase):
    def _assert_same_outputs(self, plain_jobs, traced_jobs, tracer=None):
        for job, twin in zip(plain_jobs, traced_jobs):
            a = worker.Runner().run(job)
            b = worker.Runner().run(twin, tracer)
            self.assertIsNone(a[3])
            self.assertIsNone(b[3])
            self.assertEqual(job.canonical(a[2]), twin.canonical(b[2]), job.key)

    def test_traced_outputs_identical_in_process(self):
        selected = [
            workloads.audit_jobs(5)[:5],
            [j for j in workloads.learn_jobs(5) if j.kind in ("1d30", "2d10")][:2],
            [j for j in workloads.sign_jobs(5) if j.key in ("l1:41", "remainder:1000")],
        ]
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for jobs in selected:
                self._assert_same_outputs(jobs, jobs, tracer)
        finally:
            tracer.remove()

    def test_traced_outputs_identical_cli(self):
        workdir = ROOT / ".bench_run" / f"selftest-{os.getpid()}"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        try:
            workloads.write_cli_inputs(workdir)
            pick = [j for j in workloads.cli_jobs(7, workdir, env) if j.key in ("plan", "approx")]
            twins = [j for j in workloads.cli_jobs(7, workdir, env, traced=True)
                     if j.key in ("plan", "approx")]
            self._assert_same_outputs(pick, twins)
            outcome = twins[0].run()
            self.assertEqual(outcome.code, 0)
            self.assertIn("cli.main", outcome.stats["calls"])
            self.assertIn("cli.import", outcome.stats["calls"])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


class BenchmarkTests(unittest.TestCase):
    def test_declared_metrics_have_sources(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual(sorted(m["name"] for m in spec["per_layer"]), sorted(layers.SOURCES))
        names = tuple(fn.__name__.lstrip("_") for fn in checks.ALL_CHECKS)
        self.assertEqual(names, layers.CHECK_NAMES)
        predictions = json.loads((HERE / "predictions.json").read_text(encoding="utf-8"))
        workloads_declared = {w["name"] for w in spec["workloads"]}
        end_to_end = {m["name"] for m in spec["end_to_end"]} | {"train_l1_loss"}
        for entry in predictions["layers"]:
            self.assertIn(entry["layer"], layers.LAYERS)
            for workload, metrics in entry["moves"].items():
                self.assertIn(workload, workloads_declared)
                self.assertLessEqual(set(metrics), end_to_end)

    def test_traced_run_reports_every_layer_metric_and_overhead(self):
        proc = _run_bench(["--workload", "sign", "--seed", "1", "--seconds", "1",
                           "--trace", "1"], ROOT)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(result["failed"], 0)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in layers.declared()])
        self.assertIn("trace.overhead_s", result["metrics"])
        self.assertGreater(result["metrics"]["trace.job_wall_s"]["value"], 0)

    def test_refuses_to_run_without_sources(self):
        bare = ROOT / ".bench_run" / f"bare-{os.getpid()}"
        try:
            bare.mkdir(parents=True)
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, bare / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _run_bench(["--workload", "audit", "--seed", "1", "--seconds", "1",
                               "--trace", "0"], bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
