"""The names the benchmark harness (perfbench/) calls in the package.

The benchmark's audit, learn and cli runs reach the package through
perfbench/workloads.py and its per-layer metrics through perfbench/layers.py;
a package change that drops or renames what they call would only show when
the benchmark runs.  These tests run one job of each kind, quickly.
"""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

from gaussl1 import approx, checks, hermite
from gaussl1.cli import build_parser

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
layers = _load("layers")


def test_the_checks_and_the_traced_namespaces_are_the_declared_ones():
    names = tuple(check.__name__.lstrip("_") for check in checks.ALL_CHECKS)
    assert names == layers.CHECK_NAMES
    # the tracer wraps hermite_upto in every namespace that imported it
    assert approx.hermite_upto is hermite.hermite_upto


def test_one_audit_job_of_each_kind_passes_its_check():
    jobs = {}
    for job in workloads.audit_jobs(1):
        jobs.setdefault(job.kind, job)
    assert sorted(jobs) == sorted(["hs1", "hs2", "ball2", "int3", "ball4"])
    for job in jobs.values():
        result = job.run()
        assert job.check(result) is None, job.key
        assert job.canonical(result) == job.canonical(job.run()), job.key


@pytest.mark.filterwarnings("ignore:planned degree")
def test_the_cheapest_learn_job_passes_its_check():
    # cost about m_train x basis size, over the pool's classes
    cost = {label: m_train * math.comb(n + degree, degree)
            for label, n, degree, m_train, _ in workloads.LEARN_CLASSES}
    job = min(workloads.learn_jobs(1), key=lambda job: cost[job.kind])
    assert job.check(job.run()) is None, job.key


def test_every_cli_command_parses():
    parser = build_parser()
    for name, argv, _ in workloads.cli_commands(1):
        assert parser.parse_args(argv).command == name
