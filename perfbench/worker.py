"""One benchmark process: set up a workload, run it, check it, report it.

Started by ``run.py`` in a fresh interpreter.  It prints ``READY`` once
``gaussl1`` is imported and the workload's inputs exist (``run.py`` times
the span from spawn to that line as ``setup_s``), then runs the job list in
passes until ``--seconds`` have elapsed, checks every output outside the
timed region, and prints one JSON line with the raw results.

With ``--trace 1`` every job is run twice, untraced and traced with the same
inputs: the outputs must be identical, the difference in wall time is the
tracing overhead, and the traced runs give the per-layer metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

_clock = time.perf_counter


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": importlib.metadata.version("scipy"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
        "seed": seed,
    }


def scipy_import_seconds(env: dict) -> float:
    """Cumulative time of the scipy subtrees in ``-X importtime`` of gaussl1."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import gaussl1"],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    rows = []
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        depth = len(parts[2]) - len(parts[2].lstrip())
        rows.append((depth, parts[2].strip(), int(parts[1])))
    total_us = 0
    for i, (depth, name, cumulative) in enumerate(rows):
        if name.split(".")[0] != "scipy":
            continue
        # importtime prints children before their parent, one level deeper
        parent = next((r for r in rows[i + 1:] if r[0] < depth), None)
        if parent is None or parent[1].split(".")[0] != "scipy":
            total_us += cumulative
    return total_us / 1e6


class Runner:
    """Runs jobs, keeping their wall times and outputs for the checks."""

    def __init__(self):
        self.records = []  # (job, seconds, result, error)

    def run(self, job, tracer=None):
        if tracer is not None:
            tracer.active = True
        start = _clock()
        try:
            result, error = job.run(), None
        except Exception as exc:  # a job that raises is a failed job
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = _clock() - start
        if tracer is not None:
            tracer.active = False
        record = (job, elapsed, result, error)
        self.records.append(record)
        return record


def check_records(records, rerun_single: bool) -> tuple[list[bool], list[str]]:
    """Correctness and reproducibility of every record, outside the timing.

    Runs of the same input must give identical output; with
    ``rerun_single`` an input that ran only once is run again to compare.
    """
    texts: dict[str, str] = {}
    seen: dict[str, int] = {}
    for job, _, result, error in records:
        seen[job.key] = seen.get(job.key, 0) + 1
    ok, failures = [], []
    for job, _, result, error in records:
        reason = error or job.check(result)
        if reason is None and rerun_single and seen[job.key] == 1:
            try:
                texts[job.key] = job.canonical(job.run())
            except Exception as exc:
                reason = f"rerun raised {type(exc).__name__}: {exc}"
        if reason is None:
            first = texts.setdefault(job.key, job.canonical(result))
            if job.canonical(result) != first:
                reason = "output differs from another run of the same input"
        ok.append(reason is None)
        if reason is not None:
            failures.append(f"{job.key}: {reason}")
    return ok, failures


def build_jobs(workload: str, seed: int, workdir: Path, env: dict, traced: bool = False):
    import workloads

    if workload == "audit":
        return workloads.audit_jobs(seed)
    if workload == "learn":
        return workloads.learn_jobs(seed)
    if workload == "sign":
        return workloads.sign_jobs(seed)
    workloads.write_cli_inputs(workdir)
    return workloads.cli_jobs(seed, workdir, env, traced)


def extras(workload: str, traced_records) -> dict:
    """Workload-level values for the per-layer report."""
    import numpy as np

    out = {}
    if workload == "sign":
        pts = [
            (int(job.key.split(":")[1]), result[0])
            for job, _, result, error in traced_records
            if error is None and job.kind == "l1"
        ]
        if len(pts) >= 2:
            d, err = np.array(pts, dtype=float).T
            out["sign_series.l1_slope"] = float(np.polyfit(np.log(d), np.log(err), 1)[0])
    if workload == "learn":
        excess = [r.excess for _, _, r, e in traced_records if e is None]
        if excess:
            out["learner.excess"] = statistics.fmean(excess)
    if workload == "cli":
        out["cli.output_bytes"] = sum(
            len(r.stdout) + sum(len(b) for b in r.files.values())
            for _, _, r, e in traced_records
            if e is None
        )
    return out


def run_untraced(workload, jobs, seconds) -> dict:
    runner = Runner()
    start = _clock()
    passes = 0
    while passes == 0 or _clock() - start < seconds:
        for job in jobs:
            runner.run(job)
        passes += 1
    ok, failures = check_records(runner.records, rerun_single=True)
    rusage = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    out = {
        "times": [r[1] for r in runner.records],
        "ok": ok,
        "failures": failures,
        "passes": passes,
        "peak_rss_kb": resource.getrusage(rusage).ru_maxrss,
    }
    if workload == "learn":
        losses = [r.train_l1_loss for _, _, r, e in runner.records if e is None]
        out["train_l1_loss"] = statistics.fmean(losses) if losses else None
    return out


def run_traced(workload, seed, workdir, env, jobs, seconds) -> dict:
    import layers
    import tracer as tracing

    in_process = workload != "cli"
    traced_jobs = jobs if in_process else build_jobs(workload, seed, workdir, env, True)
    tracer = tracing.Tracer()
    before = tracing.snapshot()
    stats: dict = {}
    plain, traced = Runner(), Runner()
    mismatched = []  # indices of traced records whose output differs
    if in_process:
        tracer.install()
    try:
        start = _clock()
        passes = 0
        while passes == 0 or _clock() - start < seconds:
            for job, twin in zip(jobs, traced_jobs):
                # alternate which twin runs first, so warm caches favour neither
                if passes % 2:
                    b = traced.run(twin, tracer if in_process else None)
                    a = plain.run(job)
                else:
                    a = plain.run(job)
                    b = traced.run(twin, tracer if in_process else None)
                if a[3] is None and b[3] is None and job.canonical(a[2]) != twin.canonical(b[2]):
                    mismatched.append(len(traced.records) - 1)
                if not in_process and b[3] is None and b[2].stats is not None:
                    tracing.merge(stats, b[2].stats)
            passes += 1
    finally:
        tracer.remove()
    if tracing.snapshot() != before:
        raise RuntimeError("tracer left wrappers installed after remove()")
    if in_process:
        stats = tracer.export()
    # each traced record is a second run of its untraced twin, so the pair
    # is the reproducibility check and nothing is rerun
    ok_a, fail_a = check_records(plain.records, rerun_single=False)
    ok_b, fail_b = check_records(traced.records, rerun_single=False)
    for i in mismatched:
        ok_b[i] = False
        fail_b.append(f"{traced.records[i][0].key}: traced output differs from untraced")
    plain_wall = sum(r[1] for r in plain.records)
    traced_wall = sum(r[1] for r in traced.records)
    extra = extras(workload, traced.records)
    extra["trace.job_wall_s"] = traced_wall
    extra["trace.overhead_s"] = traced_wall - plain_wall
    extra["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    extra["cli.import_scipy_s"] = statistics.median(
        scipy_import_seconds(env) for _ in range(3)
    )
    return {
        "times": [r[1] for r in traced.records],
        "ok": ok_a + ok_b,
        "failures": fail_a + fail_b,
        "passes": passes,
        "per_layer": layers.per_layer_metrics(stats, extra),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("audit", "learn", "sign", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import warnings

    import gaussl1  # noqa: F401  (the import is part of setup)

    # learn caps the planned degree on purpose; the warning would flood stderr
    warnings.simplefilter("ignore", RuntimeWarning)
    env = dict(os.environ)
    workdir = Path(args.workdir)
    jobs = build_jobs(args.workload, args.seed, workdir, env)
    print("READY", flush=True)
    if args.setup_only:
        return 0
    if args.trace:
        out = run_traced(args.workload, args.seed, workdir, env, jobs, args.seconds)
    else:
        out = run_untraced(args.workload, jobs, args.seconds)
    out["env"] = environment(args.seed)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
