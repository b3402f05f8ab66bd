"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def ad():
    return workloads.load_algdiff(ROOT / "src", with_cli=True)


def _same(a, b) -> bool:
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed(ad, name):
    first, second, other = (workloads.CLASSES[name](ad, s) for s in (7, 7, 8))
    jobs = range(3 * first.cycle)
    assert all(_same(first.inputs(i), second.inputs(i)) for i in jobs)
    assert not all(_same(first.inputs(i), other.inputs(i)) for i in jobs)
    if name == "stream":
        assert np.array_equal(first.signal, second.signal)


def test_inputs_do_not_depend_on_access_order(ad):
    forward, backward = workloads.Design(ad, 3), workloads.Design(ad, 3)
    late = backward.inputs(40)
    assert forward.inputs(40) == late
    assert [forward.inputs(i) for i in range(40)] == [backward.inputs(i) for i in range(40)]


def test_design_never_repeats_a_design(ad):
    wl = workloads.Design(ad, 5)
    keys = [wl.inputs(i)[:4] for i in range(3000)]  # job 0 is the warm-up
    assert len(set(keys)) == len(keys)


def test_design_job_0_has_one_pair_for_every_seed(ad):
    assert {workloads.Design(ad, seed).inputs(0)[:2] for seed in range(20)} == {(2, 1)}
    wl = workloads.Design(ad, 4)
    assert sorted(wl.inputs(i)[:2] for i in range(wl.cycle)) == sorted(workloads.DESIGN_PAIRS)


def test_design_redraws_a_repeated_centre(ad):
    wl = workloads.Design(ad, 5)
    real = wl.rng
    draws = iter([np.array([0.1, 0.2])] * 2 * len(workloads.DESIGN_PAIRS) + [None] * 10**4)

    class Repeating:
        def permutation(self, k):
            return np.zeros(k, dtype=int)  # always (n, q) = (1, 0)

        def choice(self, options):
            return real.choice(options)

        def uniform(self, lo, hi, size):
            fixed = next(draws)
            return fixed if fixed is not None else real.uniform(lo, hi, size)

    wl.rng = Repeating()
    keys = [wl.inputs(i)[:4] for i in range(20)]
    assert keys[0] == (1, 0, 0.1, 0.2)
    assert len(set(keys)) == len(keys)


def test_p90_keeps_ten_samples_beyond():
    assert measure.min_jobs(0.9) == 100
    rng = np.random.default_rng(0)
    for n in range(measure.min_jobs(0.9), 400):
        values = list(rng.permutation(n).astype(float))
        value, tail = measure.nearest_rank(values, 0.9)
        assert tail >= measure.TAIL_SAMPLES
        assert sum(v > value for v in values) == tail
    _, tail = measure.nearest_rank(list(range(99)), 0.9)
    assert tail < measure.TAIL_SAMPLES  # 100 is the fewest that will do


class Sleepy(workloads.Workload):
    """Jobs that sleep 2 ms; the final check reruns two of them."""

    name = "stream"

    def call(self, i):
        return lambda: time.sleep(0.002)

    def check(self, i, out):
        return None

    def final_check(self, done):
        return 2, []


def test_short_run_fails_and_reruns_count_as_attempted(monkeypatch):
    import run

    monkeypatch.setattr(run, "HARD_CAP_S", 0.02)
    phase, result = run.timed_run(Sleepy(None, 1), seconds=0.0, probe=lambda: 0.5)
    assert 0 < len(phase.jobs) < measure.min_jobs(0.9)
    assert [job for job, _ in phase.failures] == [-1]
    assert result["attempted"] == 1 + len(phase.jobs) + 2
    assert result["setup_samples"] == [0.5] * run.SETUP_PROBES


def test_timings_are_corrected_for_host_speed(monkeypatch):
    import run

    ref = measure.CALIBRATION_REFERENCE_S
    assert measure.local_speeds([ref, ref, 3 * ref]) == [1.0, 2.0]
    monkeypatch.setattr(measure, "calibrate", lambda: 2 * ref)
    phase, result = run.timed_run(Sleepy(None, 1), seconds=0.0, probe=lambda: 0.5)
    assert len(phase.calibrations) == len(phase.jobs) + 1
    assert result["host_speed"] == 2.0
    corrected, measured = result["metrics"], result["measured"]
    assert corrected["throughput"] == pytest.approx(2 * measured["throughput"])
    for name in ("latency_p50_ms", "latency_p90_ms"):
        assert corrected[name] == pytest.approx(measured[name] / 2)
    assert corrected["setup_s"] == 0.25
    assert "peak_rss_mb" in corrected and "peak_rss_mb" not in measured


def test_self_time_of_nested_spans():
    spans = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 8.0, 0, 0),
        ("e", 20.0, 21.0, -1, 1),
    ]
    assert self_times(spans) == [4.0, 2.0, 1.0, 3.0, 1.0]


def test_tracer_records_nesting_and_restores_every_name(ad):
    names = lambda: {(m, a): v for m in sys.modules if m.split(".")[0] == "algdiff"  # noqa: E731
                     for a, v in vars(sys.modules[m]).items()}
    before = names()
    generator = ad.stochastic.RngSeed.generator
    cfg = ad.kernel.EstimatorConfig(n=1, T=0.04, m=40)
    signal = ad.estimator.SampledSignal(0.0, 1e-3, np.sin(np.arange(100) * 1e-3))
    tracer = Tracer()
    tracer.install()
    try:
        assert ad.package.estimate_series is ad.estimator.estimate_series
        assert ad.estimator.estimate_series is not before["algdiff.estimator", "estimate_series"]
        ad.estimator.estimate_series(signal, cfg)  # outside a job: not recorded
        with tracer.job(1):
            ad.estimator.estimate_series(signal, cfg)
            ad.stochastic.RngSeed(1).generator()
    finally:
        tracer.restore()
    after = names()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert ad.stochastic.RngSeed.generator is generator

    names_of = [s[0] for s in tracer.spans]
    series = names_of.index("estimator.estimate_series")
    build = names_of.index("kernel.build")
    assert tracer.spans[build][3] == series and tracer.spans[series][3] == -1
    assert all(s[4] == 1 for s in tracer.spans)
    metrics = tracer.layer_metrics(1.0, 1)
    assert metrics["estimator.estimate_series.calls"] == 1
    assert metrics["estimator.estimate_at.calls"] == metrics["estimator.outputs"] == 60
    assert metrics["stochastic.generators_built"] == 1
    assert {m["name"] for m in SPEC["per_layer"]} == set(metrics)


def test_end_to_end_metrics_are_the_declared_ones():
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert names == ["throughput", "latency_p50_ms", "latency_p90_ms", "setup_s", "peak_rss_mb"]


def test_verdicts():
    parent = [100.0 + i % 3 for i in range(10)]
    assert measure.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1) == "improved"
    assert measure.verdict(parent, list(parent), "higher", 0.1) == "no worse"
    assert measure.verdict(parent, [v * 0.8 for v in parent], "higher", 0.1) == "regressed"
    assert measure.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "improved"
    noisy = [50.0, 150.0] * 5
    assert measure.verdict(noisy, list(reversed(noisy)), "higher", 0.1) == "unresolved"
    assert measure.verdict(parent[:9], parent[:9], "higher", 0.1) == "unresolved"
