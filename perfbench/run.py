"""gaussl1 benchmark: seeded closed-loop workloads with end-to-end metrics.

    python3 perfbench/run.py --workload {audit,learn,sign,cli,all} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  One client runs one job at a time.  Each
workload's job list is drawn from ``--seed`` and repeated in whole passes
until ``--seconds`` of wall time have elapsed, so every pass mix is the
same across runs.  Outputs are checked outside the timed region.
``sign`` runs by hand and with ``all`` but is not a workload of
BENCHMARK.json: its Python-bound recurrences swing with the load of a shared
host by more than the bounds there allow.

``--trace 0`` prints the end-to-end metrics (setup_s, jobs_per_s, job_s_p50,
job_s_p90, peak_rss_mb, plus fail_frac and, for learn, train_l1_loss) with
units and sample counts; ``--trace 1`` runs every job untraced and traced
and prints the per-layer metrics BENCHMARK.json declares.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

The package is run from ``src/`` of the checkout, with BLAS pinned to one
thread for this process and every child.  ``setup_s`` is the median over
several fresh interpreters of the time from spawn to ``gaussl1`` imported
and inputs generated; the bytecode cache is warmed before any of them.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("audit", "learn", "sign", "cli")
# set-up-only interpreters before and after the measuring one: ten samples,
# spread over the run so a slow phase of a shared machine weighs less
SETUP_RUNS_BEFORE = 4
SETUP_RUNS_AFTER = 5
WORKER_TIMEOUT = 150.0
BLAS_THREADS = 1


class BenchError(RuntimeError):
    pass


def pinned_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    proc = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
    )
    return proc.stdout.strip() or "unknown"


def spawn_worker(argv: list[str], env: dict) -> tuple[float, str]:
    """Start a worker; return (seconds until READY, rest of its stdout)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or code != 0:
        raise BenchError(f"worker {' '.join(argv)} failed with exit code {code}")
    return ready, rest


def run_workload(workload: str, seed: int, seconds: float, trace: bool, env: dict) -> dict:
    workdir = ROOT / ".bench_run" / f"{workload}-{os.getpid()}"
    argv = ["--workload", workload, "--seed", str(seed), "--workdir", str(workdir)]
    setup_only = [*argv, "--seconds", "0", "--setup-only"]
    try:
        setups = []
        for _ in range(0 if trace else SETUP_RUNS_BEFORE):
            setups.append(spawn_worker(setup_only, env)[0])
        ready, rest = spawn_worker(
            [*argv, "--seconds", str(seconds), "--trace", str(int(trace))], env
        )
        setups.append(ready)
        for _ in range(0 if trace else SETUP_RUNS_AFTER):
            setups.append(spawn_worker(setup_only, env)[0])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    raw = json.loads(rest.strip().splitlines()[-1])
    raw["setups"] = setups
    return raw


def end_to_end(raw: dict, workload: str) -> tuple[dict, list[str]]:
    """Metrics for the result line, and report lines with sample counts."""
    times, ok = raw["times"], raw["ok"]
    n, passed = len(times), sum(ok)
    timed = sum(times)
    p90 = statistics.quantiles(times, n=10)[8]
    beyond = sum(t > p90 for t in times)
    metrics = {
        "setup_s": (statistics.median(raw["setups"]), "s", f"n={len(raw['setups'])}"),
        "jobs_per_s": (passed / timed, "1/s", f"n={passed} passing jobs in {timed:.2f} s"),
        "job_s_p50": (statistics.median(times), "s", f"n={n}"),
        "job_s_p90": (p90, "s", f"n={n}, {beyond} beyond"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB",
                        "largest child" if workload == "cli" else "worker process"),
    }
    report = {
        "fail_frac": ((len(ok) - passed) / len(ok), "ratio", f"n={len(ok)}"),
    }
    if raw.get("train_l1_loss") is not None:
        report["train_l1_loss"] = (raw["train_l1_loss"], "1", f"mean over n={n} learn jobs")
    lines = [
        f"  {name:<14} {value:>12.6g} {unit:<6} ({note})"
        for name, (value, unit, note) in {**metrics, **report}.items()
    ]
    return {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}, lines


def report(workload: str, seed: int, trace: bool, raw: dict) -> dict:
    """Print the human-readable report of one workload; return its result."""
    attempted = len(raw["ok"])
    failed = attempted - sum(raw["ok"])
    print(f"workload {workload}  seed {seed}  trace {int(trace)}  passes {raw['passes']}")
    env = dict(raw["env"], git_sha=git_sha())
    print("  env " + json.dumps(env, sort_keys=True))
    if trace:
        metrics = raw["per_layer"]
        for name, m in metrics.items():
            print(f"  {name:<52} {m['value']:>14.6g} {m['unit']}")
    else:
        metrics, lines = end_to_end(raw, workload)
        print("\n".join(lines))
    for reason in raw["failures"][:20]:
        print(f"  FAILED {reason}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "gaussl1" / "__init__.py").is_file():
        print(f"run.py: no gaussl1 sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # a terminated run unwinds, so spawn_worker's cleanup stops its worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    env = pinned_env()
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", "src/gaussl1", "perfbench"],
        cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    trace = bool(args.trace)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            raw = run_workload(name, args.seed, args.seconds, trace, env)
            results[name] = report(name, args.seed, trace, raw)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
