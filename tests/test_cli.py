"""Command-line interface tests: schemas, exit codes, reproducibility."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from gaussl1 import sign_series
from gaussl1.cli import main
from gaussl1.concepts import (
    concept_to_dict,
    gns_ball_closed_form,
    gns_halfspace_closed_form,
    halfspace,
)

SEED = 31


def _write_halfspace(tmp_path, name="hs.json", w=(1.0,), c=0.0):
    path = tmp_path / name
    path.write_text(json.dumps(concept_to_dict(halfspace(list(w), c))))
    return str(path)


def _read_csv(path):
    meta = {}
    rows = []
    header = None
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            key, _, value = line[1:].strip().partition("=")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return meta, header, rows


# ---------------------------------------------------------------------------
# plan


def test_plan_stdout(capsys):
    assert main(["plan", "--epsilon", "0.5", "--gamma", "0.3989422804014327"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["plan"]["rho"] == 0.96875
    assert payload["plan"]["degree"] == 44
    assert payload["meta"]["tool"] == "gaussl1"
    assert payload["meta"]["master_seed"] is None
    assert payload["meta"]["command"].startswith("gaussl1 plan ")


def test_plan_zero_gamma(capsys):
    assert main(["plan", "--epsilon", "1", "--gamma", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["plan"]["degree"] == 0
    assert payload["plan"]["rho"] == 0.0


def test_plan_invalid_epsilon_exit_2(capsys):
    assert main(["plan", "--epsilon", "-1", "--gamma", "0.3"]) == 2
    err = capsys.readouterr().err
    assert "epsilon" in err


@pytest.mark.parametrize(
    "command",
    [["plan", "--epsilon", "1e-300", "--gamma", "1"],
     ["plan", "--epsilon", "0.5", "--gamma", "1e200"],
     ["approx", "--concept", "{hs}", "--epsilon", "0.5", "--gamma", "1e-300", "--seed", "1"]],
    ids=["epsilon-squared-underflows", "degree-overflows", "scale-underflows"],
)
def test_plan_outside_the_float_range_exit_2(tmp_path, capsys, command):
    hs = _write_halfspace(tmp_path)
    assert main([arg.format(hs=hs) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("gaussl1: invalid input: epsilon = ")
    assert "gamma = " in err


def test_plan_output_file_and_sidecar(tmp_path):
    out = tmp_path / "plan.json"
    assert main(["plan", "--epsilon", "0.5", "--gamma", "1.0", "--output", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["plan"]["degree"] == 278
    side = json.loads((tmp_path / "plan.json.meta.json").read_text())
    assert "written_at" in side


# ---------------------------------------------------------------------------
# concept-file handling


def test_missing_concept_file_exit_2(tmp_path, capsys):
    code = main(
        ["gns", "--concept", str(tmp_path / "nope.json"), "--delta", "0.1",
         "--samples", "1000", "--seed", "1"]
    )
    assert code == 2
    assert capsys.readouterr().err != ""


def test_malformed_concept_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["gns", "--concept", str(bad), "--delta", "0.1",
                 "--samples", "1000", "--seed", "1"])
    assert code == 2
    assert "JSON" in capsys.readouterr().err


def test_wrong_concept_payload_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"kind": "dodecahedron"}))
    code = main(["gns", "--concept", str(bad), "--delta", "0.1",
                 "--samples", "1000", "--seed", "1"])
    assert code == 2


# ---------------------------------------------------------------------------
# gns / gsa


def test_gns_closed_form_and_estimate(tmp_path):
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "gns.json"
    code = main(["gns", "--concept", concept, "--delta", "0.1",
                 "--samples", "200000", "--seed", str(SEED), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    want = math.acos(0.9) / math.pi
    assert payload["closed_form"] == pytest.approx(want, abs=1e-15)
    est = payload["estimate"]
    assert abs(est["mean"] - want) <= 4.0 * est["stderr"]
    assert payload["meta"]["master_seed"] == SEED


def test_gns_off_centre_halfspace_writes_closed_form(tmp_path):
    concept = _write_halfspace(tmp_path, w=(0.6, 0.8), c=0.5)
    out = tmp_path / "gns.json"
    code = main(["gns", "--concept", concept, "--delta", "0.1",
                 "--samples", "200000", "--seed", str(SEED), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    want = gns_halfspace_closed_form(0.1, 0.5)
    assert payload["closed_form"] == want
    est = payload["estimate"]
    assert abs(est["mean"] - want) <= 4.0 * est["stderr"]


def test_gns_ball_writes_closed_form(tmp_path, capsys):
    concept = tmp_path / "ball.json"
    concept.write_text(json.dumps({"kind": "ball", "radius": 2.2, "dimension": 4}))
    out = tmp_path / "gns.json"
    code = main(["gns", "--concept", str(concept), "--delta", "0.1",
                 "--samples", "200000", "--seed", str(SEED), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["closed_form"] == gns_ball_closed_form(0.1, 2.2, 4)
    est = payload["estimate"]
    assert abs(est["mean"] - payload["closed_form"]) <= 4.0 * est["stderr"]
    # below delta ~ 1e-5 the series needs more than NODE_BUDGET terms
    code = main(["gns", "--concept", str(concept), "--delta", "1e-7",
                 "--samples", "1000", "--seed", str(SEED), "--output", str(out)])
    assert code == 2
    assert "budget" in capsys.readouterr().err


def test_gns_ball_with_a_non_integer_dimension_exit_2(tmp_path, capsys):
    concept = tmp_path / "ball.json"
    concept.write_text(json.dumps({"kind": "ball", "radius": 1.0, "dimension": 2.5}))
    code = main(["gns", "--concept", str(concept), "--delta", "0.1",
                 "--samples", "1000", "--seed", str(SEED), "--output", str(tmp_path / "g.json")])
    assert code == 2
    assert "dimension" in capsys.readouterr().err


def test_gsa_estimate(tmp_path):
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "gsa.json"
    code = main(["gsa", "--concept", concept, "--deltas", "0.04,0.02",
                 "--samples", "400000", "--seed", str(SEED), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    phi0 = 1.0 / math.sqrt(2.0 * math.pi)
    assert payload["closed_form"] == pytest.approx(phi0, abs=1e-15)
    assert abs(payload["estimate"]["mean"] - phi0) <= 0.05 * phi0


@pytest.mark.parametrize("deltas", ["nan,0.02", "0.02,inf", "0.04,0.02,nan"])
def test_gsa_non_finite_deltas_exit_2(tmp_path, capsys, deltas):
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "gsa.json"
    code = main(["gsa", "--concept", concept, "--deltas", deltas,
                 "--samples", "1000", "--seed", "1", "--output", str(out)])
    assert code == 2
    assert "deltas must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_gsa_non_numeric_deltas_exit_2(tmp_path, capsys):
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "gsa.json"
    code = main(["gsa", "--concept", concept, "--deltas", "0.04,x",
                 "--samples", "1000", "--seed", "1", "--output", str(out)])
    assert code == 2
    assert "invalid input: bad float list '0.04,x'" in capsys.readouterr().err
    assert not out.exists()


def test_gsa_deltas_outside_the_float_range_exit_2(tmp_path, capsys):
    concept = _write_halfspace(tmp_path)
    code = main(["gsa", "--concept", concept, "--deltas", "1e-200,2e-200",
                 "--samples", "1000", "--seed", "3"])
    assert code == 2
    assert "invalid input: deltas 1e-200 and 2e-200" in capsys.readouterr().err


def test_gsa_deltas_whose_second_moment_overflows_exit_2(tmp_path, capsys):
    concept = _write_halfspace(tmp_path)
    code = main(["gsa", "--concept", concept, "--deltas", "1e-160,2e-160",
                 "--samples", "1000", "--seed", "3"])
    assert code == 2
    assert "invalid input: deltas 1e-160 and 2e-160" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# approx / learn


def test_approx_past_the_node_budget_exit_2(tmp_path, capsys):
    # epsilon = 1e-9 plans degree 1.7e20: the exact route refuses the series
    concept = _write_halfspace(tmp_path)
    code = main(["approx", "--concept", concept, "--epsilon", "1e-9", "--gamma", "0.4",
                 "--seed", "1"])
    assert code == 2
    assert "gaussl1: invalid input: more than 2000000 coefficients" in capsys.readouterr().err


def test_approx_past_the_error_quadrature_budget_exit_2(tmp_path, capsys):
    # epsilon = 0.01 plans degree 426115: inside NODE_BUDGET, but the ridge's
    # L1 quadrature refuses it before its first sweep
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "approx.json"
    code = main(["approx", "--concept", concept, "--epsilon", "0.01", "--gamma", "0.4",
                 "--seed", "1", "--output", str(out)])
    assert code == 2
    assert "more than the budget of 134217728" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "payload",
    [{"kind": "constant", "dimension": 1, "value": 1},
     {"kind": "halfspace", "w": [1.0], "c": math.inf}],
    ids=["constant", "halfspace-inf"],
)
def test_approx_passes_a_constant_ridge_past_the_quadrature_budget(tmp_path, payload):
    # plan degree 11867: a one-cut ridge is refused, but p of a constant is +-1
    concept = tmp_path / "const.json"
    concept.write_text(json.dumps(payload))
    out = tmp_path / "approx.json"
    code = main(["approx", "--concept", str(concept), "--epsilon", "0.05", "--gamma", "0.4",
                 "--seed", "1", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["plan"]["degree"] == 11867 and report["verdict"] == "pass"
    assert report["measured_l1"]["mean"] == 0.0


def test_gns_on_a_ptf_past_one_block_a_point_exit_2_at_once(tmp_path, capsys):
    # degree 200,000 ran a 200,001-step recurrence per point, past 20 s at
    # 1000 samples; two samples keep a regression short (degree 10^9, which
    # asks 7.45 GiB a point, is tested without evaluation in test_concepts)
    concept = tmp_path / "ptf.json"
    concept.write_text(json.dumps(
        {"kind": "ptf", "dimension": 1, "terms": [{"alpha": [200_000], "coeff": 1.0}]}))
    start = time.perf_counter()
    code = main(["gns", "--concept", str(concept), "--delta", "0.1", "--samples", "2",
                 "--seed", "1"])
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "more than the block size of 131072" in capsys.readouterr().err


def test_approx_json_and_csv(tmp_path):
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "report.json"
    csv = tmp_path / "report.csv"
    code = main(["approx", "--concept", concept, "--epsilon", "0.5",
                 "--gamma", "0.3989422804014327", "--seed", str(SEED),
                 "--output", str(out), "--csv", str(csv)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["report"]["pass"] is True
    assert payload["report"]["plan"]["degree"] == 44
    assert payload["report"]["measured_l1"]["mean"] <= 0.5
    meta, header, rows = _read_csv(csv)
    assert meta["tool"] == "gaussl1"
    assert header[:4] == ["epsilon", "gamma", "rho", "degree"]
    assert len(rows) == 1
    # floats round-trip through repr
    assert float(rows[0][2]) == payload["report"]["plan"]["rho"]
    assert float(rows[0][4]) == payload["report"]["measured_l1"]["mean"]


def _approx_ball(tmp_path, radius, dimension, gamma):
    concept = tmp_path / "ball.json"
    concept.write_text(json.dumps({"kind": "ball", "radius": radius, "dimension": dimension}))
    out = tmp_path / "ball-report.json"
    code = main(["approx", "--concept", str(concept), "--epsilon", "0.5",
                 "--gamma", repr(gamma), "--seed", "1", "--output", str(out)])
    return code, json.loads(out.read_text())["report"] if code == 0 else None


def test_approx_1d_ball_at_the_plan_degree_is_exact(tmp_path):
    # degree 65: the tensor-quadrature coefficients made the error quadrature
    # exceed its interval budget; the exact profile series passes
    code, report = _approx_ball(tmp_path, 1.0, 1, 0.4839414490382868)
    assert code == 0
    assert report["plan"]["degree"] == 65
    assert report["coeff_method"] == "exact"
    assert report["measured_l1"]["mean"] == pytest.approx(0.16931, abs=1e-5)
    assert report["bound"] == pytest.approx(0.40166, abs=1e-5)
    assert report["pass"] is True


def test_approx_2d_ball_at_the_plan_degree(tmp_path):
    # degree 66 with the default 400-point rule: the weights times H_k gave a
    # measured L1 of 3.9e12; with the Christoffel products it is about 0.1685
    code, report = _approx_ball(tmp_path, 1.5, 2, 1.5 * math.exp(-1.125))
    assert code == 0
    assert report["plan"]["degree"] == 66
    assert report["coeff_method"] == "quadrature"
    assert report["measured_l1"]["mean"] == pytest.approx(0.1685, abs=1e-3)
    assert report["pass"] is True


def test_approx_20d_halfspace_at_the_plan_degree(tmp_path):
    # degree 44 in 20-D: the n-D lift has C(64, 44) terms, past the
    # multi-index budget; p is q(<w, x>), and its error is the profile's
    # 1-D integral ("quadrature"), which draws no samples
    concept = _write_halfspace(tmp_path, w=[1.0 / math.sqrt(20.0)] * 20)
    out = tmp_path / "hs20-report.json"
    code = main(["approx", "--concept", concept, "--epsilon", "0.5",
                 "--gamma", "0.3989422804014327", "--error-budget", "200000",
                 "--seed", str(SEED), "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["plan"]["degree"] == 44
    assert (report["coeff_method"], report["error_method"]) == ("exact", "quadrature")
    assert report["measured_l1"]["samples"] == 0
    assert report["pass"] is True


def test_approx_inconclusive_verdict_exits_1(tmp_path):
    # a 4-D ball from 200 Monte-Carlo samples: its error lies past the
    # allowance, within only the coefficient-noise slack
    concept = tmp_path / "ball4.json"
    concept.write_text(json.dumps({"kind": "ball", "radius": 2.2, "dimension": 4}))
    out = tmp_path / "ball4-report.json"
    code = main(["approx", "--concept", str(concept), "--epsilon", "0.6", "--gamma", "0.3",
                 "--coeff-budget", "200", "--error-budget", "100000", "--seed", "7",
                 "--output", str(out)])
    assert code == 1
    report = json.loads(out.read_text())["report"]
    assert (report["pass"], report["verdict"]) == (False, "inconclusive")
    assert report["slack"] > report["measured_l1"]["mean"] - report["bound"]


def test_approx_on_a_halfspace_at_an_infinite_offset_exits_0(tmp_path):
    # the constant +1 read through its profile: an infinite offset leaves no
    # cut, and the series is exactly H_0
    concept = tmp_path / "hs-inf.json"
    concept.write_text('{"kind": "halfspace", "w": [1.0], "c": Infinity}')
    out = tmp_path / "hs-inf-report.json"
    code = main(["approx", "--concept", str(concept), "--epsilon", "0.5",
                 "--gamma", "0.3989422804014327", "--seed", "1", "--output", str(out)])
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert (report["coeff_method"], report["error_method"]) == ("exact", "quadrature")
    assert report["measured_l1"]["mean"] == 0.0 and report["gns_term"] == 0.0
    assert (report["pass"], report["verdict"]) == (True, "pass")
    assert main(["gns", "--concept", str(concept), "--delta", "0.1", "--samples", "20000",
                 "--seed", "1", "--output", str(tmp_path / "hs-inf-gns.json")]) == 0


def test_learn_json_and_csv(tmp_path):
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "learn.json"
    csv = tmp_path / "learn.csv"
    code = main(["learn", "--concept", concept, "--epsilon", "0.8", "--gamma", "0.2",
                 "--eta", "0.1", "--mtrain", "2000", "--mtest", "10000",
                 "--seed", str(SEED), "--output", str(out), "--csv", str(csv)])
    assert code == 0
    payload = json.loads(out.read_text())
    result = payload["result"]
    assert result["test_error"]["mean"] <= 0.1 + 0.8 + 4.0 * result["test_error"]["stderr"]
    meta, header, rows = _read_csv(csv)
    assert header[-1] == "excess"
    assert float(rows[0][6]) == result["test_error"]["mean"]


# ---------------------------------------------------------------------------
# study commands


def test_sign_study_csv(tmp_path):
    out = tmp_path / "sign.csv"
    assert main(["sign-study", "--dmax", "9", "--output", str(out)]) == 0
    meta, header, rows = _read_csv(out)
    assert header == ["degree", "l1_error", "parseval_residual"]
    assert [int(r[0]) for r in rows] == [1, 3, 5, 7, 9]
    # values are the library's own, printed round-trippably
    want = sign_series.truncation_l1_error(5)
    got = float(rows[2][1])
    assert got == want


@pytest.mark.parametrize("dmax", ["0", "-3"])
def test_sign_study_validates_dmax(tmp_path, capsys, dmax):
    out = tmp_path / "sign.csv"
    assert main(["sign-study", "--dmax", dmax, "--output", str(out)]) == 2
    assert "dmax" in capsys.readouterr().err
    assert not out.exists()


def test_asymptotics_csv_and_report(tmp_path):
    out = tmp_path / "asym.csv"
    rep = tmp_path / "asym.json"
    code = main(["asymptotics", "--dlist", "11,101", "--grid-points", "5",
                 "--output", str(out), "--report", str(rep)])
    assert code == 0
    meta, header, rows = _read_csv(out)
    assert header == ["degree", "x", "remainder", "envelope"]
    assert len(rows) == 10
    payload = json.loads(rep.read_text())
    assert set(payload["sup_remainder"]) == {"11", "101"}
    assert "101/11" in payload["sup_ratios"]
    assert payload["sup_ratios"]["101/11"] < 1.0


@pytest.mark.parametrize("points", [1, 2, 21, 101])
def test_asymptotics_rows_and_sups_are_the_remainder_grid(tmp_path, points):
    out = tmp_path / "asym.csv"
    rep = tmp_path / "asym.json"
    degrees = [3, 11, 101, 1001]
    code = main(["asymptotics", "--dlist", ",".join(map(str, degrees)),
                 "--grid-points", str(points), "--output", str(out), "--report", str(rep)])
    assert code == 0
    _, _, rows = _read_csv(out)
    sups = json.loads(rep.read_text())["sup_remainder"]
    xs = np.linspace(0.0, 1.0, points)
    for i, d in enumerate(degrees):
        remainder, envelope = sign_series.remainder_grid(d, xs)
        block = rows[i * points:(i + 1) * points]
        assert [int(r[0]) for r in block] == [d] * points
        assert [float(r[1]) for r in block] == xs.tolist()
        assert [float(r[2]) for r in block] == remainder.tolist()
        assert [float(r[3]) for r in block] == envelope.tolist()
        assert sups[str(d)] == float(np.abs(remainder).max())
    assert len(rows) == len(degrees) * points


def test_asymptotics_validates_degrees(capsys):
    assert main(["asymptotics", "--dlist", "1,11"]) == 2
    assert main(["asymptotics", "--dlist", "foo"]) == 2
    capsys.readouterr()
    assert main(["asymptotics", "--dlist", "11,1.5"]) == 2
    assert "bad int list '11,1.5'" in capsys.readouterr().err


@pytest.mark.parametrize("points", ["0", "-1"])
def test_asymptotics_validates_grid_points(tmp_path, capsys, points):
    rep = tmp_path / "asym.json"
    code = main(["asymptotics", "--dlist", "11,101", "--grid-points", points,
                 "--output", str(tmp_path / "asym.csv"), "--report", str(rep)])
    assert code == 2
    assert "grid-points" in capsys.readouterr().err
    assert not rep.exists()


def test_python_m_gaussl1_matches_console_script():
    # `python -m gaussl1` runs the entry point the `gaussl1` console script
    # is generated from (gaussl1.cli:main in pyproject.toml), byte for byte
    src = Path(sign_series.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    argv = ["plan", "--epsilon", "0.5", "--gamma", "0.3989422804014327"]
    script = "import sys\nfrom gaussl1.cli import main\nsys.exit(main())\n"
    runs = [
        subprocess.run(prefix + argv, env=env, capture_output=True, timeout=120)
        for prefix in ([sys.executable, "-m", "gaussl1"], [sys.executable, "-c", script])
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout and runs[0].stdout == runs[1].stdout
    assert runs[0].stderr == runs[1].stderr == b""


# ---------------------------------------------------------------------------
# determinism


def _run_twice(tmp_path, argv_template):
    # the command line is embedded in the payload, so a faithful rerun must
    # repeat the exact argv, output path included
    out = tmp_path / "out.json"
    argv = [part.replace("@OUT@", str(out)) for part in argv_template]
    assert main(argv) in (0, 1)
    first = out.read_bytes()
    out.unlink()
    assert main(argv) in (0, 1)
    return first, out.read_bytes()


def test_byte_identical_outputs(tmp_path):
    concept = _write_halfspace(tmp_path)
    cases = [
        ["gns", "--concept", concept, "--delta", "0.2", "--samples", "50000",
         "--seed", "5", "--output", "@OUT@"],
        ["gsa", "--concept", concept, "--deltas", "0.04,0.02", "--samples", "50000",
         "--seed", "5", "--output", "@OUT@"],
        ["approx", "--concept", concept, "--epsilon", "0.6", "--gamma", "0.25",
         "--seed", "5", "--output", "@OUT@"],
        ["learn", "--concept", concept, "--epsilon", "0.9", "--gamma", "0.15",
         "--eta", "0.05", "--mtrain", "500", "--mtest", "2000", "--seed", "5",
         "--output", "@OUT@"],
    ]
    for case in cases:
        workdir = tmp_path / case[0]
        workdir.mkdir()
        a, b = _run_twice(workdir, case)
        assert a == b, case[0]


def test_rerun_same_path_is_byte_identical(tmp_path):
    concept = _write_halfspace(tmp_path)
    out = tmp_path / "gns.json"
    argv = ["gns", "--concept", concept, "--delta", "0.1", "--samples", "50000",
            "--seed", "11", "--output", str(out)]
    assert main(argv) == 0
    first = out.read_bytes()
    assert main(argv) == 0
    assert out.read_bytes() == first


# ---------------------------------------------------------------------------
# the check suite


def test_check_command_passes(capsys):
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
    assert len(lines) >= 15
    assert "checks passed" in out


def test_check_json_lists_every_check(capsys):
    assert main(["check", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["checks"]
    assert len(entries) == 18
    assert len({entry["name"] for entry in entries}) == 18
    assert all(entry["pass"] is True for entry in entries)
    assert all(entry["seconds"] >= 0.0 and entry["detail"] for entry in entries)


# ---------------------------------------------------------------------------
# dependencies


def test_runtime_imports_no_scipy():
    # numpy is the only runtime dependency: no path the checks, the envelope
    # integrals or a large Gauss-Hermite rule take may import scipy
    src = Path(sign_series.__file__).resolve().parents[1]
    code = (
        "import sys\n"
        "import gaussl1\n"
        "from gaussl1 import checks, hermite, sign_series\n"
        "assert all(r.passed for r in checks.run_all())\n"
        "sign_series.truncation_integral_envelopes(101, 3.0)\n"
        "hermite.gauss_hermite_rule(400)\n"
        "gaussl1.concepts.ball(2.2, 4).gns_closed_form(0.1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["gns", "approx"])
@pytest.mark.parametrize(
    "payload",
    [
        {"kind": "halfspace", "w": [1.0], "c": "x"},
        {"kind": "halfspace", "w": "ab", "c": 0.0},
        {"kind": "intersection", "halfspaces": [{"w": [1.0], "c": 0.0}, 5]},
        {"kind": "ptf", "dimension": 1, "terms": [{"alpha": [1], "coeff": "x"}]},
        {"kind": "constant", "dimension": 2.5, "value": 1},
    ],
    ids=["c", "w", "halfspaces", "coeff", "dimension"],
)
def test_malformed_concept_field_exit_2(tmp_path, capsys, command, payload):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    if command == "gns":
        argv = ["gns", "--concept", str(bad), "--delta", "0.1", "--samples", "1000"]
    else:
        argv = ["approx", "--concept", str(bad), "--epsilon", "0.5", "--gamma", "0.4",
                "--error-budget", "1000"]
    assert main(argv + ["--seed", "1"]) == 2
    assert "gaussl1: invalid input:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# ridges and balls read their closed forms off their profile or radius


def test_gsa_prints_the_closed_form_of_an_interval(tmp_path):
    concept = tmp_path / "interval.json"
    concept.write_text(json.dumps({"kind": "intersection", "halfspaces": [
        {"w": [1.0], "c": 0.5}, {"w": [-1.0], "c": 0.3}]}))
    out = tmp_path / "gsa.json"
    code = main(["gsa", "--concept", str(concept), "--deltas", "0.04,0.02",
                 "--samples", "200000", "--seed", str(SEED), "--output", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    phi = [math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi) for t in (-0.3, 0.5)]
    assert payload["closed_form"] == pytest.approx(phi[0] + phi[1], rel=1e-15)


def test_gns_on_a_300_dimensional_ball_exits_0(tmp_path):
    # its surface area r^(n-1) / Gamma(n/2) overflowed as two factors
    concept = tmp_path / "ball.json"
    concept.write_text(json.dumps({"kind": "ball", "radius": 17.0, "dimension": 300}))
    out = tmp_path / "gns.json"
    code = main(["gns", "--concept", str(concept), "--delta", "0.1",
                 "--samples", "1000", "--seed", str(SEED), "--output", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["closed_form"] == gns_ball_closed_form(0.1, 17.0, 300)


def test_check_text_and_json_print_the_same_timed_run(monkeypatch, capsys):
    from gaussl1 import checks

    calls = []

    def fake(name, passed):
        def check():
            calls.append(name)
            return checks.CheckResult(name, passed, f"{name} detail")
        return check

    monkeypatch.setattr(checks, "ALL_CHECKS", (fake("one", True), fake("two", True)))
    results = checks.run_all()
    assert [r.name for r in results] == ["one", "two"]
    assert all(r.seconds > 0.0 for r in results)
    assert results[0] == checks.CheckResult("one", True, "one detail")  # time is not compared
    calls.clear()
    assert main(["check", "--json"]) == 0
    entries = json.loads(capsys.readouterr().out)["checks"]
    assert [list(e) for e in entries] == [["name", "pass", "detail", "seconds"]] * 2
    assert calls == ["one", "two"]
    monkeypatch.setattr(checks, "ALL_CHECKS", (fake("one", True), fake("two", False)))
    assert main(["check"]) == 1
    assert capsys.readouterr().out == (
        "PASS  one: one detail\nFAIL  two: two detail\n1/2 checks passed\n"
    )
    assert main(["check", "--json"]) == 1
    assert [e["pass"] for e in json.loads(capsys.readouterr().out)["checks"]] == [True, False]
