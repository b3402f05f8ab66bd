"""The package namespace re-exports exactly the public names of its modules,
and the modules keep the names the benchmark reaches."""

from __future__ import annotations

import numpy as np
import pytest

import algdiff
from algdiff import analysis, cli, estimator, kernel, specfun, stochastic

MODULES = (specfun, kernel, estimator, analysis, stochastic)


def test_package_exports_the_union_of_the_module_exports():
    union = {name for module in MODULES for name in module.__all__}
    assert len(algdiff.__all__) == len(set(algdiff.__all__))
    assert set(algdiff.__all__) == union | {"__version__"}


def test_every_exported_name_resolves():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(algdiff, name) is getattr(module, name), f"{module.__name__}.{name}"
    assert isinstance(algdiff.__version__, str)


# names the benchmark under perfbench/ reaches by module and attribute; a
# change that drops one fails here rather than in a benchmark run
BENCHMARK_API = {
    kernel: ("minimal_kernel", "affine_kernel", "discretize", "wpoly_moment", "EstimatorConfig"),
    estimator: ("estimate_at", "estimate_series", "SampledSignal"),
    analysis: ("sweep_surface", "discrete_moments"),
    stochastic: ("RngSeed", "WhiteGaussian", "Wiener"),
    cli: ("main", "run_experiment", "mc_report"),
}


@pytest.mark.parametrize(
    "module,name",
    [(module, name) for module, names in BENCHMARK_API.items() for name in names],
    ids=lambda v: v if isinstance(v, str) else v.__name__.removeprefix("algdiff."),
)
def test_benchmark_names_are_callable(module, name):
    assert callable(getattr(module, name))


def test_generator_is_the_seed_class_own_method():
    # the benchmark counts generators by replacing RngSeed.__dict__["generator"]
    assert callable(stochastic.RngSeed.__dict__["generator"])
    assert isinstance(stochastic.RngSeed(1).generator(), np.random.Generator)


@pytest.mark.parametrize(
    "quantity,design",
    [("xi", dict(n=2, q=1)), ("variance_minimal", dict(n=2)), ("variance_affine", dict(n=1, q=1))],
)
def test_sweep_surface_quantities_of_the_benchmark(quantity, design):
    grid = analysis.sweep_surface(quantity, np.array([0.0, 0.5]), np.array([0.0, 1.0]), **design)
    assert grid.shape == (2, 2) and np.isfinite(grid).all()


def test_mc_report_takes_the_noise_model_second(monkeypatch, capsys):
    # the benchmark reads the model of each report from its second positional argument
    calls = []

    def recording(*args, **kwargs):
        calls.append(args)
        return report(*args, **kwargs)

    report = cli.mc_report
    monkeypatch.setattr(cli, "mc_report", recording)
    assert cli.main(["mc", "--model", "wiener", "--trials", "100", "--m", "40"]) == 0
    assert [type(args[1]) for args in calls] == [stochastic.Wiener]


def test_package_estimate_series_is_the_estimator_one():
    assert algdiff.estimate_series is estimator.estimate_series
