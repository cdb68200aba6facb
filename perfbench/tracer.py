"""Timing and counting wrappers installed around gaussl1 from outside.

The package is never edited.  :meth:`Tracer.install` replaces every public
function of every loaded ``gaussl1`` module with a wrapper that records a
span, in *every* module namespace that holds a reference to it (so
``hermite_upto`` is wrapped in ``gaussl1.hermite``, ``gaussl1.approx``,
``gaussl1.sign_series`` and the package namespace alike).  Three things are
not plain module functions and get their own wrappers: ``Concept.batch`` (a
method), ``chunk_rngs`` (a generator: each ``next`` is timed, which is the
RNG construction) and the entries of ``checks.ALL_CHECKS`` (private
functions held in a tuple).  The integrand handed to ``integrate_adaptive``
is wrapped too, so its evaluations count as nodes.

A span's self time is its duration minus the durations of its direct
children; summed over all spans it equals the total duration of the
top-level spans, so per-layer self times plus the unattributed remainder
(job wall time minus top-level spans) add up to the job wall time.

Wrappers only record while ``active`` is true, so correctness checks run
between jobs call straight through.  :meth:`Tracer.remove` restores every
patched attribute.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


def _loaded_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "gaussl1" or name.startswith("gaussl1."))
    ]


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _count_hermite_upto(counts, args, kwargs, result):
    counts["hermite.hermite_upto.values"] += result.size


def _count_eval_batch(counts, args, kwargs, result):
    p = _arg(args, kwargs, 0, "p")
    counts["hermite.expansion_eval_batch.term_points"] += len(p.terms) * result.shape[0]


def _count_basis_matrix(counts, args, kwargs, result):
    counts["hermite.basis_matrix.cells"] += result.size


def _count_multi_indices(counts, args, kwargs, result):
    counts["hermite.multi_indices_upto.indices"] += len(result)


def _count_truncation_eval(counts, args, kwargs, result):
    t = _arg(args, kwargs, 0, "t")
    size = getattr(result, "size", 1)
    counts["sign_series.truncation_eval_direct.recurrence_steps"] += t.degree * size


def _count_batch(counts, args, kwargs, result):
    counts["concepts.batch.points"] += len(result)


def _count_halfspace_expansion(counts, args, kwargs, result):
    counts["approx.halfspace_expansion.terms"] += len(result.terms)


def _count_l1_error(counts, args, kwargs, result):
    counts["approx.l1_error.samples"] += result.samples


def _count_l2_error(counts, args, kwargs, result):
    counts["approx.l2_error.samples"] += result.samples


def _count_fit(counts, args, kwargs, result):
    data = _arg(args, kwargs, 0, "data")
    counts["learner.fit_l1.iterations"] += result.iterations
    counts["learner.fit_l1.converged"] += int(bool(result.converged))
    counts["learner.fit_l1.ops_computed"] += (
        result.iterations * data.x.shape[0] * len(result.alphas) ** 2
    )


_COUNTERS = {
    "hermite.hermite_upto": _count_hermite_upto,
    "hermite.expansion_eval_batch": _count_eval_batch,
    "hermite.basis_matrix": _count_basis_matrix,
    "hermite.multi_indices_upto": _count_multi_indices,
    "sign_series.truncation_eval_direct": _count_truncation_eval,
    "concepts.batch": _count_batch,
    "approx.halfspace_expansion": _count_halfspace_expansion,
    "approx.l1_error": _count_l1_error,
    "approx.l2_error": _count_l2_error,
    "learner.fit_l1": _count_fit,
}


def _coefficient_span(args, kwargs):
    method = _arg(args, kwargs, 2, "method", "quadrature")
    return f"approx.estimate_coefficients.{method}"


_NAMERS = {"approx.estimate_coefficients": _coefficient_span}


class Tracer:
    """Span and counter store plus the patching that feeds it."""

    def __init__(self):
        self.active = False
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> None:
        self._stack.append([name, _clock(), 0.0])

    def _exit(self) -> None:
        name, start, child = self._stack.pop()
        duration = _clock() - start
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration - child
        if self._stack:
            self._stack[-1][2] += duration
        else:
            self.top_level += duration

    def record(self, name: str, duration: float) -> None:
        """Record a finished top-level span measured by the caller."""
        self.calls[name] += 1
        self.total[name] += duration
        self.self_time[name] += duration
        self.top_level += duration

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)
        namer = _NAMERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            self._enter(namer(args, kwargs) if namer else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit()
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return wrapper

    def _wrap_integrator(self, fn):
        @functools.wraps(fn)
        def wrapper(f, *args, **kwargs):
            if not self.active:
                return fn(f, *args, **kwargs)

            def integrand(x):
                self.counts["quadrature1d.nodes"] += x.size
                self._enter("quadrature1d.integrand")
                try:
                    return f(x)
                finally:
                    self._exit()

            self._enter("quadrature1d.integrate_adaptive")
            try:
                return fn(integrand, *args, **kwargs)
            finally:
                self._exit()

        return wrapper

    def _wrap_chunks(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            chunks = fn(*args, **kwargs)
            return self._timed_chunks(chunks) if self.active else chunks

        return wrapper

    def _timed_chunks(self, chunks):
        while True:
            self._enter("mc.chunk_rngs")
            try:
                item = next(chunks)
            except StopIteration:
                return
            finally:
                self._exit()
            self.counts["mc.chunks"] += 1
            self.counts["mc.samples"] += item[1]
            yield item

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public function of the loaded gaussl1 modules."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _loaded_modules()
        wrappers = {}
        for mod in modules:
            short = mod.__name__.partition(".")[2]
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name == "quadrature1d.integrate_adaptive":
                    wrappers[id(obj)] = (obj, self._wrap_integrator(obj))
                elif name == "mc.chunk_rngs":
                    wrappers[id(obj)] = (obj, self._wrap_chunks(obj))
                else:
                    wrappers[id(obj)] = (obj, self._wrap(name, obj))
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
        concepts = sys.modules.get("gaussl1.concepts")
        if concepts is not None:
            cls = concepts.Concept
            self._patch(cls, "batch", self._wrap("concepts.batch", cls.batch))
        checks = sys.modules.get("gaussl1.checks")
        if checks is not None:
            wrapped = tuple(
                self._wrap(f"checks.{fn.__name__.lstrip('_')}", fn)
                for fn in checks.ALL_CHECKS
            )
            self._patch(checks, "ALL_CHECKS", wrapped)

    def remove(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results ------------------------------------------------------------

    def export(self) -> dict:
        return {
            "calls": dict(self.calls),
            "total": dict(self.total),
            "self": dict(self.self_time),
            "counts": dict(self.counts),
            "top_level": self.top_level,
        }


def snapshot() -> dict:
    """Identity of every attribute the tracer may patch, for restore checks."""
    state = {}
    for mod in _loaded_modules():
        for attr, obj in vars(mod).items():
            state[(mod.__name__, attr)] = id(obj)
    concepts = sys.modules.get("gaussl1.concepts")
    if concepts is not None:
        state[("Concept", "batch")] = id(concepts.Concept.__dict__["batch"])
    checks = sys.modules.get("gaussl1.checks")
    if checks is not None:
        state[("checks", "ALL_CHECKS")] = tuple(id(fn) for fn in checks.ALL_CHECKS)
    return state


def merge(into: dict, part: dict) -> dict:
    """Add the exported stats ``part`` into ``into`` (both export() dicts)."""
    for key in ("calls", "total", "self", "counts"):
        bucket = into.setdefault(key, {})
        for name, value in part.get(key, {}).items():
            bucket[name] = bucket.get(name, 0) + value
    into["top_level"] = into.get("top_level", 0.0) + part.get("top_level", 0.0)
    return into
