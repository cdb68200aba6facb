"""Seeded job lists for the benchmark workloads and the checks on their outputs.

Each workload turns the run seed into a fixed list of jobs (one pass); a run
repeats the pass.  Every job returns a result, a canonical text of that
result (equal job keys must give equal text: that is the reproducibility
check) and a correctness check run outside the timed region.

Why the inputs are drawn the way they are:

* ``audit`` draws its halfspaces from the seed; their check is exact (the 1-D
  quadrature of the same profile, by rotation invariance).  Balls and
  intersections have no such oracle, so they come from a fixed pool of
  ``POOL_SIZE`` variants whose values were recorded at the seed commit
  (``reference.json``); the seed picks which variants run.
* ``learn`` solve cost moves by up to +-35% with the dataset (IRLS iteration
  counts), so seed-drawn datasets would move the timing medians across runs
  by more than their bounds.  The datasets are a fixed pool; the seed orders
  it.
* ``sign`` has no randomness; the seed orders the degree sweep.
* ``cli`` runs the README commands with seed-drawn ``--seed`` values, each
  in a fresh interpreter through ``launch.py``, and ``check`` twice a pass.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gaussl1
from gaussl1 import approx, concepts, learner, sign_series

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

POOL_SEED = 20261017
POOL_SIZE = 16

# audit: plans with degree <= 15.  Monte-Carlo budgets are half a chunk
# (mc.CHUNK_SIZE = 2^17), except the 2-D halfspace, whose L1, L2 and GNS
# passes each stream two chunks, so chunked streaming is measured; a pass of
# 20 jobs takes about 3.3 s and a 30 s run holds about 200.  The package
# default (10^6 samples, about 8 chunks) would make hs2 alone 1.7 s a job.
AUDIT_PLANS = {
    "hs1": (0.6, 0.3),  # degree 15
    "hs2": (0.6, 0.3),
    "ball2": (0.6, 0.3),
    "int3": (0.7, 0.25),  # degree 6
    "ball4": (0.9, 0.3),  # degree 4
}
AUDIT_ERROR_BUDGET = 1 << 16
HS2_ERROR_BUDGET = 1 << 18
INT3_COEFF_BUDGET = 60  # 60^3 tensor nodes
BALL4_COEFF_BUDGET = 1 << 15
AUDIT_ROUNDS = 4
QUAD_TOL = 1e-6

# learn: (label, dimension, degree, m_train, copies in the pool).  The 1-D
# class runs at the full m_train = 20000 (about 0.2 s a job); the others are
# cut so a pass of 25 jobs takes about 5 s and a 30 s run holds 150.  Sorted
# by cost, the copies put the median inside the 1d30 jobs and the 90th
# percentile inside the 5d4 jobs, not on an edge between two classes.
LEARN_CLASSES = (
    ("1d30", 1, 30, 20000, 8),
    ("2d10", 2, 10, 2000, 6),
    ("3d6", 3, 6, 1000, 4),
    ("5d4", 5, 4, 1000, 6),
    ("10d3", 10, 3, 400, 1),
)
LEARN_ETAS = (0.0, 0.05, 0.1, 0.2)
LEARN_EPSILON = 0.5
# a fit may not end with a training loss above the recorded one by more than
# this share; IRLS stops once the loss moves less than 1e-6 in five steps
LEARN_LOSS_RTOL = 1e-3
LEARN_GAMMA = 1.0  # plans degree 278, so degree_cap sets the fitted degree
LEARN_M_TEST = 4000

# sign: odd degrees of the truncation-error sweep, and remainder degrees
# evaluated at two points of [0, 1].  25 inputs a pass put the median and
# the 90th percentile in the middle of one input's runs (l1 at degree 641
# for the latter), not on the edge between two inputs.
SIGN_L1_DEGREES = (11, 21, 41, 81, 161, 321, 641, 1281, 2001)
SIGN_REMAINDER_DEGREES = (
    1000, 1500, 2000, 2500, 3000, 3500, 4000, 4500,
    5000, 5500, 6000, 7000, 8000, 8500, 9000, 10000,
)
SIGN_GRID = (0.5, 1.0)
SIGN_TOL = 1e-7

README_GAMMA = "0.3989422804014327"


@dataclass
class Job:
    key: str
    kind: str
    run: Callable[[], object]
    canonical: Callable[[object], str]
    check: Callable[[object], str | None]


def _unit(rng: np.random.Generator, n: int) -> list[float]:
    v = rng.standard_normal(n)
    return [float(x) for x in v / np.linalg.norm(v)]


def _finite(value) -> bool:
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# audit


POOL_KINDS = ("ball2", "int3", "ball4")


def pool_job_input(kind: str, variant: int):
    """Concept and bound_check seed of one recorded pool variant."""
    rng = np.random.default_rng([POOL_SEED, POOL_KINDS.index(kind), variant])
    if kind == "ball2":
        c = concepts.ball(float(rng.uniform(0.8, 2.0)), 2)
    elif kind == "int3":
        c = concepts.intersection(
            [concepts.halfspace(_unit(rng, 3), float(rng.uniform(0.0, 0.8))) for _ in range(3)]
        )
    else:
        c = concepts.ball(float(rng.uniform(1.6, 2.8)), 4)
    return c, int(rng.integers(2**62))


def audit_call(kind: str, c, seed: int):
    aplan = approx.plan(*AUDIT_PLANS[kind])
    budget = {"int3": INT3_COEFF_BUDGET, "ball4": BALL4_COEFF_BUDGET}.get(kind)
    error_budget = HS2_ERROR_BUDGET if kind == "hs2" else AUDIT_ERROR_BUDGET
    return lambda: approx.bound_check(
        c, aplan, coeff_budget=budget, error_budget=error_budget, seed=seed
    )


def _report_text(report) -> str:
    return json.dumps(report.to_dict(), sort_keys=True)


@functools.lru_cache(maxsize=None)
def _halfspace_reference(offset: float, aplan) -> float:
    """E|f - p| of the same profile in 1-D: exact for any unit normal."""
    fhat = approx.halfspace_expansion([1.0], offset, aplan.degree)
    p = approx.build(fhat, aplan, complete_through=aplan.degree)
    return approx.l1_error_quad_1d(concepts.halfspace([1.0], offset), p, abs_tol=QUAD_TOL)


def _audit_check(reference: Callable[[], float]):
    def check(report) -> str | None:
        if not _finite(report.to_dict()):
            return "non-finite value in report"
        if not report.passed:
            return f"verdict failed: l1 {report.measured_l1.mean} > bound {report.bound}"
        allowance = 4.0 * math.hypot(report.measured_l1.stderr, 2.0 * report.gns_stderr)
        expected = reference()
        if abs(report.measured_l1.mean - expected) > allowance + QUAD_TOL:
            return (
                f"l1 {report.measured_l1.mean} differs from reference {expected} "
                f"by more than {allowance}"
            )
        return None

    return check


def audit_jobs(seed: int) -> list[Job]:
    reference = _load_reference()
    rng = np.random.default_rng([seed, 0])
    offsets = rng.integers(POOL_SIZE, size=len(POOL_KINDS))
    jobs = []
    for r in range(AUDIT_ROUNDS):
        rr = np.random.default_rng([seed, 1, r])
        for kind, w in (("hs1", [float(rr.choice([-1.0, 1.0]))]), ("hs2", _unit(rr, 2))):
            offset = float(rr.uniform(-0.6, 0.6))
            aplan = approx.plan(*AUDIT_PLANS[kind])
            c = concepts.halfspace(w, offset)
            ref = functools.partial(_halfspace_reference, offset, aplan)
            jobs.append(
                Job(f"{kind}:{r}", kind, audit_call(kind, c, int(rr.integers(2**62))),
                    _report_text, _audit_check(ref))
            )
        for kind, off in zip(POOL_KINDS, offsets):
            variant = int((off + r) % POOL_SIZE)
            c, job_seed = pool_job_input(kind, variant)
            recorded = reference["audit"][kind][variant]["l1"]
            jobs.append(
                Job(f"{kind}:{variant}", kind, audit_call(kind, c, job_seed),
                    _report_text, _audit_check(lambda v=recorded: v))
            )
    return jobs


# ---------------------------------------------------------------------------
# learn


def learn_pool() -> list[tuple]:
    """The fixed learn inputs: (label, concept, degree, m_train, eta, seed)."""
    rng = np.random.default_rng([POOL_SEED, 100])
    pool = []
    i = 0
    for label, n, degree, m_train, copies in LEARN_CLASSES:
        for _ in range(copies):
            if label == "3d6":
                c = concepts.intersection(
                    [concepts.halfspace(_unit(rng, n), float(rng.uniform(0.0, 0.6)))
                     for _ in range(2)]
                )
            else:
                c = concepts.halfspace(_unit(rng, n), float(rng.uniform(-0.5, 0.5)))
            eta = LEARN_ETAS[i % len(LEARN_ETAS)]
            pool.append((label, c, degree, m_train, eta, int(rng.integers(2**62))))
            i += 1
    return pool


def learn_call(entry):
    _, c, degree, m_train, eta, job_seed = entry
    return lambda: learner.learn(c, LEARN_EPSILON, LEARN_GAMMA, eta, m_train, LEARN_M_TEST,
                                 job_seed, degree_cap=degree)


def _learn_check(eta: float, recorded: dict):
    """The guarantee's limit, and no worse a fit than the recorded one."""

    def check(result) -> str | None:
        if not _finite(result.to_dict()):
            return "non-finite value in learn result"
        stderr4 = 4.0 * result.test_error.stderr
        limit = eta + LEARN_EPSILON + stderr4
        if result.test_error.mean > limit:
            return f"test error {result.test_error.mean} > {limit}"
        loss_limit = recorded["train_l1_loss"] * (1.0 + LEARN_LOSS_RTOL)
        if result.train_l1_loss > loss_limit:
            return f"train L1 loss {result.train_l1_loss} > recorded limit {loss_limit}"
        error_limit = recorded["test_error"] + stderr4
        if result.test_error.mean > error_limit:
            return f"test error {result.test_error.mean} > recorded limit {error_limit}"
        return None

    return check


def learn_jobs(seed: int) -> list[Job]:
    reference = _load_reference()
    pool = learn_pool()
    order = np.random.default_rng([seed, 2]).permutation(len(pool))
    jobs = []
    for index in order:
        entry = pool[int(index)]
        label, eta = entry[0], entry[4]
        jobs.append(
            Job(f"{label}:{index}", label, learn_call(entry),
                lambda r: json.dumps(r.to_dict(), sort_keys=True),
                _learn_check(eta, reference["learn"][int(index)]))
        )
    return jobs


# ---------------------------------------------------------------------------
# sign


def sign_l1_values(d: int) -> list[float]:
    return [sign_series.truncation_l1_error(d), sign_series.parseval_residual(d)]


def sign_remainder_values(d: int) -> list[list[float]]:
    out = []
    for x in SIGN_GRID:
        sample = sign_series.plancherel_rotach_remainder(d, x)
        out.append([sample.remainder, sample.envelope])
    return out


def _sign_check(expected):
    flat_expected = np.ravel(expected)

    def check(values) -> str | None:
        got = np.ravel(values)
        if got.shape != flat_expected.shape or not np.all(np.isfinite(got)):
            return "malformed sign-series values"
        worst = float(np.max(np.abs(got - flat_expected)))
        if worst > SIGN_TOL:
            return f"sign-series values differ from the recorded table by {worst:.2e}"
        return None

    return check


def sign_jobs(seed: int) -> list[Job]:
    reference = _load_reference()
    jobs = []
    for d in SIGN_L1_DEGREES:
        jobs.append(Job(f"l1:{d}", "l1", lambda d=d: sign_l1_values(d), repr,
                        _sign_check(reference["sign"]["l1"][str(d)])))
    for d in SIGN_REMAINDER_DEGREES:
        jobs.append(Job(f"remainder:{d}", "remainder", lambda d=d: sign_remainder_values(d),
                        repr, _sign_check(reference["sign"]["remainder"][str(d)])))
    order = np.random.default_rng([seed, 3]).permutation(len(jobs))
    return [jobs[int(i)] for i in order]


# ---------------------------------------------------------------------------
# cli


@dataclass
class CliOutcome:
    code: int
    stdout: bytes
    files: dict[str, bytes]
    stats: dict | None


def cli_commands(seed: int) -> list[tuple[str, list[str], list[str]]]:
    """README commands as (name, argv, primary output files)."""
    rng = np.random.default_rng([seed, 4])
    s = [str(int(v)) for v in rng.integers(1, 2**31, size=4)]
    return [
        ("plan", ["plan", "--epsilon", "0.5", "--gamma", README_GAMMA], []),
        ("approx", ["approx", "--concept", "hs.json", "--epsilon", "0.5", "--gamma",
                    README_GAMMA, "--seed", s[0], "--output", "approx.json",
                    "--csv", "approx.csv"], ["approx.json", "approx.csv"]),
        ("gns", ["gns", "--concept", "hs.json", "--delta", "0.1", "--samples", "1000000",
                 "--seed", s[1], "--output", "gns.json"], ["gns.json"]),
        ("gsa", ["gsa", "--concept", "hs.json", "--deltas", "0.04,0.02", "--samples",
                 "1000000", "--seed", s[2], "--output", "gsa.json"], ["gsa.json"]),
        ("learn", ["learn", "--concept", "hs.json", "--epsilon", "0.5", "--gamma", "1.0",
                   "--eta", "0.05", "--mtrain", "4000", "--mtest", "20000", "--seed", s[3],
                   "--output", "learn.json", "--csv", "learn.csv"],
         ["learn.json", "learn.csv"]),
        ("sign-study", ["sign-study", "--dmax", "21", "--output", "sign.csv"], ["sign.csv"]),
        ("asymptotics", ["asymptotics", "--dlist", "11,101", "--grid-points", "21",
                         "--output", "rem.csv", "--report", "rem.json"],
         ["rem.csv", "rem.json"]),
        ("check", ["check"], []),
    ]


def write_cli_inputs(workdir: Path) -> None:
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "hs.json").write_text(
        json.dumps({"kind": "halfspace", "w": [1.0], "c": 0.0}) + "\n", encoding="utf-8"
    )


def _cli_run(argv: list[str], outputs: list[str], workdir: Path, env: dict, traced: bool):
    def run() -> CliOutcome:
        for name in outputs:
            (workdir / name).unlink(missing_ok=True)
        stats_path = workdir / "trace.json"
        launcher = [sys.executable, str(HERE / "launch.py")]
        if traced:
            launcher += ["--trace-out", str(stats_path)]
        proc = subprocess.run(
            [*launcher, "--", *argv], cwd=workdir, env=env, capture_output=True, timeout=120
        )
        files = {}
        for name in outputs:
            path = workdir / name
            if path.is_file():
                files[name] = path.read_bytes()
        stats = None
        if traced and stats_path.is_file():
            stats = json.loads(stats_path.read_text(encoding="utf-8"))
            stats_path.unlink()
        return CliOutcome(proc.returncode, proc.stdout, files, stats)

    return run


def _cli_text(outcome: CliOutcome) -> str:
    digest = hashlib.sha256(outcome.stdout)
    for name in sorted(outcome.files):
        digest.update(name.encode())
        digest.update(outcome.files[name])
    return digest.hexdigest()


def _cli_check(outputs: list[str]):
    def check(outcome: CliOutcome) -> str | None:
        if outcome.code != 0:
            return f"exit code {outcome.code}, documented success is 0"
        missing = [name for name in outputs if name not in outcome.files]
        if missing:
            return f"missing outputs {missing}"
        for name, data in outcome.files.items():
            if name.endswith(".json"):
                meta = json.loads(data)["meta"]
                if meta["version"] != gaussl1.__version__:
                    return f"{name}: version {meta['version']!r}"
        return None

    return check


def cli_jobs(seed: int, workdir: Path, env: dict, traced: bool = False) -> list[Job]:
    commands = cli_commands(seed)
    # check is the slowest command by far and the only one that runs the
    # checks layer; running it twice a pass puts the 90th percentile in the
    # middle of its runs, not next to the fastest one
    commands += [command for command in commands if command[0] == "check"]
    order = np.random.default_rng([seed, 5]).permutation(len(commands))
    jobs = []
    for index in order:
        name, argv, outputs = commands[int(index)]
        jobs.append(Job(name, name, _cli_run(argv, outputs, workdir, env, traced),
                        _cli_text, _cli_check(outputs)))
    return jobs
