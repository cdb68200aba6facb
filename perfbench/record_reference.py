"""Record the reference values the benchmark checks outputs against.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/record_reference.py

Writes ``perfbench/reference.json``: the bound_check L1 value of every
audit pool variant (balls and intersections, which have no exact oracle),
the training L1 loss and test error of every learn pool entry, and the
sign-series values of the whole sweep.  These were recorded once
with the code the benchmark was introduced against; re-record only when a
change is meant to alter these values, and say so where the change is
described.
"""

from __future__ import annotations

import json
import subprocess
import warnings
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent


def main() -> None:
    audit = {}
    for kind in workloads.POOL_KINDS:
        rows = []
        for variant in range(workloads.POOL_SIZE):
            c, seed = workloads.pool_job_input(kind, variant)
            report = workloads.audit_call(kind, c, seed)()
            rows.append({"l1": report.measured_l1.mean, "stderr": report.measured_l1.stderr,
                         "pass": report.passed})
        audit[kind] = rows
    warnings.simplefilter("ignore", RuntimeWarning)  # learn caps the degree on purpose
    learn = []
    for entry in workloads.learn_pool():
        result = workloads.learn_call(entry)()
        learn.append({"key": entry[0], "train_l1_loss": result.train_l1_loss,
                      "test_error": result.test_error.mean})
    sign = {
        "l1": {str(d): workloads.sign_l1_values(d) for d in workloads.SIGN_L1_DEGREES},
        "remainder": {
            str(d): workloads.sign_remainder_values(d) for d in workloads.SIGN_REMAINDER_DEGREES
        },
    }
    sha = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=HERE, capture_output=True, text=True
    ).stdout.strip()
    payload = {"recorded_at_commit": sha, "audit": audit, "learn": learn, "sign": sign}
    (HERE / "reference.json").write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
