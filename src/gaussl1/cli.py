"""Command line interface.

Subcommands::

    plan         degree/smoothing schedule for a target accuracy
    approx       build a smoothed truncated expansion and audit its L1 bound
    sign-study   truncation error and Parseval residual of the sign series
    asymptotics  oscillatory remainder vs envelope over a degree list
    gns          Monte Carlo Gaussian noise sensitivity of a concept
    gsa          shell-extrapolation Gaussian surface area of a concept
    learn        agnostic polynomial-threshold learner on synthetic data
    check        deterministic invariant suite

Outputs are reproducible byte for byte: every payload embeds the tool
version, the exact command line, and the master seed, while wall-clock
metadata goes to a ``<output>.meta.json`` sidecar so the primary file never
changes across reruns.  Exit codes: 0 success, 1 a bound or check failed,
2 invalid input.
"""

from __future__ import annotations

import argparse
import datetime
import json
import shlex
import sys
from typing import Iterable, Sequence

import numpy as np

from . import __version__, approx, checks, concepts, learner, sign_series
from .errors import GaussL1Error, NodeBudgetError, ValidationError
from .hermite import MC_CHUNK_CELLS
from .mc import check_integer
from .quadrature1d import _check_first_sweeps


def _meta(argv: Sequence[str], seed: int | None) -> dict:
    return {
        "tool": "gaussl1",
        "version": __version__,
        "command": shlex.join(["gaussl1", *argv]),
        "master_seed": seed,
    }


def _write_sidecar(path: str) -> None:
    stamp = datetime.datetime.now(datetime.timezone.utc).isoformat()
    with open(path + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump({"written_at": stamp}, fh, indent=2)
        fh.write("\n")


def _write(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
        _write_sidecar(output)


def _emit_json(payload: dict, output: str | None) -> None:
    _write(json.dumps(payload, indent=2) + "\n", output)


def _emit_csv(
    meta: dict, header: Iterable[str], rows: Iterable[Iterable], output: str | None
) -> None:
    lines = [f"# {key}={value}" for key, value in meta.items()]
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(v) if isinstance(v, float) else str(v) for v in row))
    _write("\n".join(lines) + "\n", output)


def _parse_list(text: str, convert: type) -> list:
    try:
        values = [convert(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad {convert.__name__} list {text!r}") from exc
    if not values:
        raise ValidationError(f"empty {convert.__name__} list {text!r}")
    return values


def _cmd_plan(args, argv) -> int:
    p = approx.plan(args.epsilon, args.gamma)
    payload = {"meta": _meta(argv, None), "plan": p.to_dict()}
    _emit_json(payload, args.output)
    return 0


def _cmd_approx(args, argv) -> int:
    concept = concepts.load_concept(args.concept)
    p = approx.plan(args.epsilon, args.gamma)
    report = approx.bound_check(
        concept,
        p,
        coeff_budget=args.coeff_budget,
        error_budget=args.error_budget,
        seed=args.seed,
    )
    payload = {"meta": _meta(argv, args.seed), "report": report.to_dict()}
    _emit_json(payload, args.output)
    if args.csv is not None:
        row = {
            "epsilon": args.epsilon,
            "gamma": args.gamma,
            "rho": p.rho,
            "degree": p.degree,
            "l1_error": report.measured_l1.mean,
            "stderr": report.measured_l1.stderr,
            "bound": report.bound,
            "passed": report.passed,
        }
        _emit_csv(_meta(argv, args.seed), row.keys(), [row.values()], args.csv)
    return 0 if report.passed else 1


def _cmd_sign_study(args, argv) -> int:
    dmax = check_integer("dmax", args.dmax, 1)
    degrees = range(1, dmax + 1, 2)
    sweeps = [sign_series._l1_error_sweep(d) for d in degrees]
    _check_first_sweeps(f"sign-study --dmax {dmax}", sweeps)
    rows = []
    for d in degrees:
        err = sign_series.truncation_l1_error(d)
        res = sign_series.parseval_residual(d)
        rows.append((d, err, res))
    _emit_csv(
        _meta(argv, None), ["degree", "l1_error", "parseval_residual"], rows, args.output
    )
    return 0


def _cmd_asymptotics(args, argv) -> int:
    grid_points = check_integer("grid-points", args.grid_points, 1)
    dlist = _parse_list(args.dlist, int)
    if any(d < 3 for d in dlist):
        raise ValidationError("degrees must be >= 3")
    # every remainder grid is a degree-d recurrence over the grid points
    cells = grid_points * sum(d + 1 for d in dlist)
    if cells > MC_CHUNK_CELLS:
        raise NodeBudgetError(f"--dlist and --grid-points need {cells} recurrence cells, more "
                              f"than the budget of {MC_CHUNK_CELLS}")
    xs = np.linspace(0.0, 1.0, grid_points)
    rows = []
    sup_by_degree = {}
    for d in dlist:
        remainder, envelope = sign_series.remainder_grid(d, xs)
        rows.extend(zip([d] * grid_points, xs.tolist(), remainder.tolist(), envelope.tolist()))
        sup_by_degree[d] = float(np.abs(remainder).max())
    _emit_csv(
        _meta(argv, None), ["degree", "x", "remainder", "envelope"], rows, args.output
    )
    if args.report is not None:
        ratios = {}
        ordered = sorted(sup_by_degree)
        for a, b in zip(ordered, ordered[1:]):
            ratios[f"{b}/{a}"] = sup_by_degree[b] / sup_by_degree[a]
        payload = {
            "meta": _meta(argv, None),
            "sup_remainder": {str(d): sup_by_degree[d] for d in ordered},
            "sup_ratios": ratios,
        }
        _emit_json(payload, args.report)
    return 0


def _emit_estimate(args, argv, key: str, value, est, closed: float | None) -> int:
    payload = {"meta": _meta(argv, args.seed), key: value, "estimate": est.to_dict()}
    if closed is not None:
        payload["closed_form"] = closed
    _emit_json(payload, args.output)
    return 0


def _cmd_gns(args, argv) -> int:
    concept = concepts.load_concept(args.concept)
    # the closed form first: a delta its series cannot reach fails before sampling
    closed = None if concept.gns_closed_form is None else concept.gns_closed_form(args.delta)
    est = concepts.gns_mc(concept, args.delta, args.samples, args.seed)
    return _emit_estimate(args, argv, "delta", args.delta, est, closed)


def _cmd_gsa(args, argv) -> int:
    concept = concepts.load_concept(args.concept)
    deltas = _parse_list(args.deltas, float)
    est = concepts.gsa_mc(concept, deltas, args.samples, args.seed)
    return _emit_estimate(args, argv, "deltas", deltas, est, concept.gsa_closed_form)


def _cmd_learn(args, argv) -> int:
    concept = concepts.load_concept(args.concept)
    result = learner.learn(
        concept,
        epsilon=args.epsilon,
        gamma=args.gamma,
        eta=args.eta,
        m_train=args.m_train,
        m_test=args.m_test,
        seed=args.seed,
        degree_cap=args.degree_cap,
    )
    payload = {"meta": _meta(argv, args.seed), "result": result.to_dict()}
    _emit_json(payload, args.output)
    if args.csv is not None:
        row = {
            "epsilon": args.epsilon,
            "gamma": args.gamma,
            "eta": args.eta,
            "degree": result.degree,
            "capped": result.capped,
            "train_l1_loss": result.train_l1_loss,
            "test_error": result.test_error.mean,
            "stderr": result.test_error.stderr,
            "excess": result.excess,
        }
        _emit_csv(_meta(argv, args.seed), row.keys(), [row.values()], args.csv)
    return 0


def _cmd_check(args, argv) -> int:
    results = checks.run_all()
    failed = [res.name for res in results if not res.passed]
    if args.json:
        entries = [
            {"name": r.name, "pass": bool(r.passed), "detail": r.detail, "seconds": r.seconds}
            for r in results
        ]
        _emit_json({"meta": _meta(argv, None), "checks": entries}, None)
        return 1 if failed else 0
    for res in results:
        print(f"{'PASS' if res.passed else 'FAIL'}  {res.name}: {res.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _option(flag: str, **kwargs) -> argparse.ArgumentParser:
    # a parent parser declaring one option that several subcommands share
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(flag, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaussl1", description="Smoothed polynomial approximation toolkit"
    )
    parser.add_argument("--version", action="version", version=f"gaussl1 {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    output = _option("--output", default=None)
    concept = _option("--concept", required=True, help="concept JSON file")
    seed = _option("--seed", type=int, required=True)
    epsilon = _option("--epsilon", type=float, required=True)
    gamma = _option("--gamma", type=float, required=True)
    samples = _option("--samples", type=int, default=10**6)
    csv = _option("--csv", default=None, help="one-row summary CSV path")

    p = sub.add_parser(
        "plan", parents=[epsilon, gamma, output], help="compute the smoothing/degree schedule"
    )
    p.set_defaults(run=_cmd_plan)

    p = sub.add_parser(
        "approx",
        parents=[concept, epsilon, gamma, seed, output, csv],
        help="build an approximation and audit its bound",
    )
    p.add_argument("--coeff-budget", type=int, default=None)
    p.add_argument(
        "--error-budget", type=int, default=10**6,
        help="samples of the Monte-Carlo error pass (and of a GNS estimate without a closed "
        "form) of a concept without a profile; a ridge's error is a 1-D integral",
    )
    p.set_defaults(run=_cmd_approx)

    p = sub.add_parser("sign-study", parents=[output], help="sign truncation error vs degree")
    p.add_argument("--dmax", type=int, required=True)
    p.set_defaults(run=_cmd_sign_study)

    p = sub.add_parser("asymptotics", parents=[output], help="oscillatory remainder vs envelope")
    p.add_argument("--dlist", required=True, help="comma separated degrees")
    p.add_argument("--grid-points", type=int, default=21)
    p.add_argument("--report", default=None, help="summary JSON path")
    p.set_defaults(run=_cmd_asymptotics)

    p = sub.add_parser(
        "gns", parents=[concept, samples, seed, output], help="Monte Carlo noise sensitivity"
    )
    p.add_argument("--delta", type=float, required=True)
    p.set_defaults(run=_cmd_gns)

    p = sub.add_parser(
        "gsa", parents=[concept, samples, seed, output], help="shell-extrapolated surface area"
    )
    p.add_argument("--deltas", default="0.04,0.02", help="two shrinking widths")
    p.set_defaults(run=_cmd_gsa)

    p = sub.add_parser(
        "learn",
        parents=[concept, epsilon, gamma, seed, output, csv],
        help="agnostic polynomial threshold learner",
    )
    p.add_argument("--eta", type=float, default=0.0, help="label flip rate")
    p.add_argument("--mtrain", type=int, required=True, dest="m_train")
    p.add_argument("--mtest", type=int, required=True, dest="m_test")
    p.add_argument("--degree-cap", type=int, default=learner.DEGREE_CAP)
    p.set_defaults(run=_cmd_learn)

    p = sub.add_parser("check", help="run the deterministic invariant suite")
    p.add_argument("--json", action="store_true", help="one JSON object with per-check seconds")
    p.set_defaults(run=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args, argv)
    except ValidationError as exc:
        print(f"gaussl1: invalid input: {exc}", file=sys.stderr)
        return 2
    except (GaussL1Error, OSError) as exc:
        print(f"gaussl1: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
