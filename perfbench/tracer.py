"""Spans and counters around the calls into each algdiff module.

The tracer replaces public functions with wrappers at every place the
package holds them: modules import each other with ``from .x import y``, so
one function object can sit in several module namespaces (and in the
package namespace).  Every attribute of every loaded ``algdiff`` module that
is the original object is swapped, and `Tracer.restore` puts each one back.

Wrappers only record while a job is open (`Tracer.job`), so output checks
made between jobs are not counted.  Spans are kept in memory as
``(name, start, end, parent, job)`` and turned into per-layer metrics, and
written out, after the run.
"""

from __future__ import annotations

import csv
import functools
import gzip
import sys
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# span name -> (module, attribute) pairs whose calls it times
SPANS = {
    "estimator.estimate_series": (("estimator", "estimate_series"),),
    "kernel.build": (("kernel", "minimal_kernel"), ("kernel", "affine_kernel")),
    "kernel.discretize": (("kernel", "discretize"),),
    "specfun.smallest_root": (("specfun", "smallest_root"),),
    "specfun.beta_fn": (("specfun", "beta_fn"),),
    "analysis.sweep_surface": (("analysis", "sweep_surface"),),
    "analysis.discrete_moments": (("analysis", "discrete_moments"),),
    "analysis.continuous_variance": (
        ("analysis", "variance_minimal"),
        ("analysis", "variance_affine_n1"),
    ),
    "stochastic.mc_noise_samples": (("stochastic", "mc_noise_samples"),),
    "stochastic.gen_path": (("stochastic", "gen_path"),),
    "stochastic.calibrate_snr": (("stochastic", "calibrate_snr"),),
    "cli.main": (("cli", "main"),),
    "cli.run_experiment": (("cli", "run_experiment"),),
    "cli.mc_report": (("cli", "mc_report"),),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.digits_max = 0
        self.builds: dict[int, list] = defaultdict(list)  # job -> configs built
        self.job_id: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing and removing wrappers ---------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "algdiff"]
        for span, targets in SPANS.items():
            hook = _HOOKS.get(span)
            for mod, attr in targets:
                original = getattr(sys.modules.get(f"algdiff.{mod}"), attr, None)
                if original is not None:
                    self._swap(modules, original, self._span_wrapper(span, original, hook))
        # estimate_at calls are counted, not timed: too many and too short for a span each
        estimate_at = sys.modules["algdiff.estimator"].estimate_at
        self._swap(modules, estimate_at,
                   self._count_wrapper("estimator.estimate_at.calls", estimate_at))
        rng_seed = sys.modules["algdiff.stochastic"].RngSeed
        generator = rng_seed.__dict__["generator"]
        self._undo.append((rng_seed, "generator", generator))
        rng_seed.generator = self._count_wrapper("stochastic.generators_built", generator)

    def _swap(self, modules, original, wrapper) -> None:
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._undo.append((module, name, original))
                    setattr(module, name, wrapper)

    def restore(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def job(self, job_id: int):
        self.job_id = job_id
        try:
            yield
        finally:
            self.job_id = None
            self._stack.clear()

    def _span_wrapper(self, name, fn, hook):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job_id is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job_id)
            if hook is not None:
                hook(self, args, result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.job_id is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self, overhead_ratio: float, jobs: int) -> dict[str, float]:
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        total_s: dict[str, float] = defaultdict(float)
        for (name, start, end, _, _), own in zip(self.spans, self_times(self.spans)):
            calls[name] += 1
            self_s[name] += own
            total_s[name] += end - start
        c = self.counts
        builds = sum(len(cfgs) for cfgs in self.builds.values())
        distinct = sum(len(set(cfgs)) for cfgs in self.builds.values())
        apply_s = self_s["estimator.estimate_series"]
        out = {
            "trace.jobs": jobs,
            "trace.overhead_ratio": overhead_ratio,
            "estimator.outputs": c["estimator.outputs"],
            "estimator.flops_computed": c["estimator.flops_computed"],
            "estimator.gflops": _ratio(c["estimator.flops_computed"], apply_s) * 1e-9,
            "estimator.estimate_at.calls": c["estimator.estimate_at.calls"],
            "kernel.build.useful_ratio": _ratio(distinct, builds),
            "kernel.coeff_digits_max": self.digits_max,
            "analysis.sweep_surface.cells": c["analysis.sweep_surface.cells"],
            "analysis.continuous_band.available_ratio": _ratio(
                c["analysis.continuous_band.available"], c["analysis.continuous_band.reports"]
            ),
            "stochastic.trials": c["stochastic.trials"],
            "stochastic.us_per_trial": _ratio(
                total_s["stochastic.mc_noise_samples"], c["stochastic.trials"]
            ) * 1e6,
            "stochastic.generators_built": c["stochastic.generators_built"],
            "cli.output_bytes": c["cli.output_bytes"],
        }
        for span in SPANS:
            out[f"{span}.calls"] = calls[span]
            out[f"{span}.self_s"] = self_s[span]
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("index", "name", "start_s", "end_s", "parent", "job"))
            for index, (name, start, end, parent, job) in enumerate(self.spans):
                writer.writerow((index, name, repr(start), repr(end), parent, job))


def _ratio(num: float, den: float) -> float:
    """num / den, reported as 0 when nothing was measured."""
    return num / den if den else 0.0


def self_times(spans) -> list[float]:
    """Duration of each span minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(index, ())):
            lo, hi = max(c_start, reach), min(c_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


# -- hooks: counts taken where the work happens, from arguments and results --


def _series_hook(tracer, args, series):
    outputs = len(series.estimates)
    tracer.counts["estimator.outputs"] += outputs
    tracer.counts["estimator.flops_computed"] += 2 * outputs * (series.config.m + 1)


def _build_hook(tracer, args, kernel):
    tracer.builds[tracer.job_id].append(args[0])
    digits = max(len(str(c.denominator)) for c in kernel.coeffs)
    tracer.digits_max = max(tracer.digits_max, digits)


def _sweep_hook(tracer, args, grid):
    tracer.counts["analysis.sweep_surface.cells"] += grid.size


def _samples_hook(tracer, args, samples):
    tracer.counts["stochastic.trials"] += len(samples)


def _report_hook(tracer, args, report):
    # only Wiener and Poisson noise have a continuous-limit variance
    if type(args[1]).__name__ in ("Wiener", "Poisson"):
        tracer.counts["analysis.continuous_band.reports"] += 1
        if report["bands"]["continuous"] is not None:
            tracer.counts["analysis.continuous_band.available"] += 1


_HOOKS = {
    "estimator.estimate_series": _series_hook,
    "kernel.build": _build_hook,
    "analysis.sweep_surface": _sweep_hook,
    "stochastic.mc_noise_samples": _samples_hook,
    "cli.mc_report": _report_hook,
}
