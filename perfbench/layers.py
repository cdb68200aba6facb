"""Per-layer metrics computed from the tracer's spans and counters.

``BENCHMARK.json`` declares the per-layer metrics (name, unit, better);
``SOURCES`` says where each one's value comes from, and
:func:`per_layer_metrics` produces every declared one for any workload, with
zero for layers a workload does not touch.
"""

from __future__ import annotations

import json
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

LAYERS = (
    "hermite",
    "quadrature1d",
    "sign_series",
    "mc",
    "concepts",
    "noise",
    "approx",
    "learner",
    "checks",
    "cli",
)

# entries of gaussl1.checks.ALL_CHECKS, without the leading underscore
CHECK_NAMES = (
    "orthonormality",
    "zero_values",
    "serialization",
    "smoothing_algebra",
    "tail_bound",
    "eigen",
    "noise_distance",
    "gns_gsa_closed_forms",
    "gsa_estimator",
    "sign_coefficients",
    "dual_form",
    "christoffel_darboux",
    "oscillatory_magnitude",
    "sine_integral",
    "plan_example",
    "construction_bound",
    "learner_small",
    "determinism",
)

# metric -> source: ("self"|"total"|"calls", span), ("count", counter) or
# ("extra", key) for values the worker computes.  Units and directions are
# declared once, in BENCHMARK.json.
SOURCES = dict([
    ("hermite.hermite_upto.calls", ("calls", "hermite.hermite_upto")),
    ("hermite.hermite_upto.self_s", ("self", "hermite.hermite_upto")),
    ("hermite.hermite_upto.values", ("count", "hermite.hermite_upto.values")),
    ("hermite.expansion_eval_batch.calls", ("calls", "hermite.expansion_eval_batch")),
    ("hermite.expansion_eval_batch.self_s", ("self", "hermite.expansion_eval_batch")),
    ("hermite.expansion_eval_batch.term_points",
     ("count", "hermite.expansion_eval_batch.term_points")),
    ("hermite.basis_matrix.self_s", ("self", "hermite.basis_matrix")),
    ("hermite.basis_matrix.cells", ("count", "hermite.basis_matrix.cells")),
    ("hermite.multi_indices_upto.self_s", ("self", "hermite.multi_indices_upto")),
    ("hermite.multi_indices_upto.indices", ("count", "hermite.multi_indices_upto.indices")),
    ("quadrature1d.integrate_adaptive.calls", ("calls", "quadrature1d.integrate_adaptive")),
    ("quadrature1d.integrate_adaptive.self_s", ("self", "quadrature1d.integrate_adaptive")),
    ("quadrature1d.integrand_s", ("self", "quadrature1d.integrand")),
    ("quadrature1d.nodes", ("count", "quadrature1d.nodes")),
    ("quadrature1d.intervals", ("extra", "quadrature1d.intervals")),
    ("sign_series.truncation_eval_direct.self_s", ("self", "sign_series.truncation_eval_direct")),
    ("sign_series.truncation_eval_direct.recurrence_steps",
     ("count", "sign_series.truncation_eval_direct.recurrence_steps")),
    ("sign_series.truncation_l1_error.self_s", ("self", "sign_series.truncation_l1_error")),
    ("sign_series.plancherel_rotach_remainder.self_s",
     ("self", "sign_series.plancherel_rotach_remainder")),
    # the remainder's recurrence runs in remainder_grid, called by the above
    ("sign_series.remainder_grid.self_s", ("self", "sign_series.remainder_grid")),
    ("sign_series.l1_slope", ("extra", "sign_series.l1_slope")),
    ("mc.mc_mean.calls", ("calls", "mc.mc_mean")),
    ("mc.mc_mean.self_s", ("self", "mc.mc_mean")),
    ("mc.mc_fraction.self_s", ("self", "mc.mc_fraction")),
    ("mc.samples", ("count", "mc.samples")),
    ("mc.chunks", ("count", "mc.chunks")),
    ("mc.chunk_rngs.wait_s", ("self", "mc.chunk_rngs")),
    ("concepts.batch.calls", ("calls", "concepts.batch")),
    ("concepts.batch.points", ("count", "concepts.batch.points")),
    ("concepts.batch.self_s", ("self", "concepts.batch")),
    ("concepts.gns_mc.self_s", ("self", "concepts.gns_mc")),
    ("concepts.gsa_mc.self_s", ("self", "concepts.gsa_mc")),
    ("noise.apply_to_expansion.self_s", ("self", "noise.apply_to_expansion")),
    ("noise.eigen_check.self_s", ("self", "noise.eigen_check")),
    ("approx.bound_check.self_s", ("self", "approx.bound_check")),
    ("approx.halfspace_expansion.self_s", ("self", "approx.halfspace_expansion")),
    ("approx.halfspace_expansion.terms", ("count", "approx.halfspace_expansion.terms")),
    ("approx.estimate_coefficients.quadrature.self_s",
     ("self", "approx.estimate_coefficients.quadrature")),
    ("approx.estimate_coefficients.monte_carlo.self_s",
     ("self", "approx.estimate_coefficients.monte_carlo")),
    ("approx.build.self_s", ("self", "approx.build")),
    ("approx.l1_error.self_s", ("self", "approx.l1_error")),
    ("approx.l1_error.samples", ("count", "approx.l1_error.samples")),
    ("approx.l2_error.self_s", ("self", "approx.l2_error")),
    ("approx.l2_error.samples", ("count", "approx.l2_error.samples")),
    ("approx.l1_error_quad_1d.self_s", ("self", "approx.l1_error_quad_1d")),
    ("approx.l2_error_quad_1d.self_s", ("self", "approx.l2_error_quad_1d")),
    ("learner.fit_l1.calls", ("calls", "learner.fit_l1")),
    ("learner.fit_l1.self_s", ("self", "learner.fit_l1")),
    ("learner.fit_l1.iterations", ("count", "learner.fit_l1.iterations")),
    ("learner.fit_l1.s_per_iteration", ("extra", "learner.fit_l1.s_per_iteration")),
    ("learner.fit_l1.converged_frac", ("extra", "learner.fit_l1.converged_frac")),
    ("learner.fit_l1.ops_computed", ("count", "learner.fit_l1.ops_computed")),
    ("learner.choose_threshold.self_s", ("self", "learner.choose_threshold")),
    ("learner.evaluate.self_s", ("self", "learner.evaluate")),
    ("learner.generate_agnostic_data.self_s", ("self", "learner.generate_agnostic_data")),
    ("learner.excess", ("extra", "learner.excess")),
    ("checks.run_all.self_s", ("self", "checks.run_all")),
    *[(f"checks.{name}.s", ("total", f"checks.{name}")) for name in CHECK_NAMES],
    ("cli.import_s", ("total", "cli.import")),
    ("cli.import_scipy_s", ("extra", "cli.import_scipy_s")),
    ("cli.main.self_s", ("self", "cli.main")),
    ("cli.output_bytes", ("extra", "cli.output_bytes")),
    *[(f"layer.{layer}.self_s", ("extra", f"layer.{layer}.self_s")) for layer in LAYERS],
    ("trace.job_wall_s", ("extra", "trace.job_wall_s")),
    ("trace.unattributed_s", ("extra", "trace.unattributed_s")),
    ("trace.overhead_s", ("extra", "trace.overhead_s")),
    ("trace.overhead_frac", ("extra", "trace.overhead_frac")),
])


def declared() -> list[dict]:
    """The ``per_layer`` entries of BENCHMARK.json (name, unit, better)."""
    with open(BENCHMARK, encoding="utf-8") as fh:
        return json.load(fh)["per_layer"]


def per_layer_metrics(stats: dict, extra: dict) -> dict:
    """Every declared per-layer metric as ``{name: {"value": v, "unit": u}}``.

    ``stats`` is a merged :meth:`tracer.Tracer.export`; ``extra`` holds the
    workload-level values (job wall times, overhead, informational values).
    """
    self_time = stats.get("self", {})
    counts = stats.get("counts", {})
    calls = stats.get("calls", {})
    derived = dict(extra)
    derived["quadrature1d.intervals"] = counts.get("quadrature1d.nodes", 0) / 31.0
    iterations = counts.get("learner.fit_l1.iterations", 0)
    fits = calls.get("learner.fit_l1", 0)
    derived["learner.fit_l1.s_per_iteration"] = (
        self_time.get("learner.fit_l1", 0.0) / iterations if iterations else 0.0
    )
    derived["learner.fit_l1.converged_frac"] = (
        counts.get("learner.fit_l1.converged", 0) / fits if fits else 0.0
    )
    for layer in LAYERS:
        derived[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_time.items() if k.startswith(layer + ".")
        )
    wall = extra["trace.job_wall_s"]
    derived["trace.unattributed_s"] = wall - stats.get("top_level", 0.0)
    out = {}
    for metric in declared():
        name = metric["name"]
        source, key = SOURCES[name]
        if source == "extra":
            value = derived.get(key, 0.0)
        elif source == "count":
            value = counts.get(key, 0)
        else:
            value = stats.get(source, {}).get(key, 0)
        out[name] = {"value": value, "unit": metric["unit"]}
    return out
