"""Acceptance checklist: one test per shipped guarantee, one PASS line each.

Each test prints a single ``PASS`` line (visible with ``pytest -s`` or in the
captured output) summarizing the measured figure against its bound, so the
whole checklist can be audited at a glance.
"""

from __future__ import annotations

import math
import time

import numpy as np

from algdiff.analysis import (
    affine_delay,
    chebyshev_band,
    discrete_moments,
    sweep_surface,
    theoretical_delay,
    variance_continuous,
)
from algdiff.cli import run_preset_pair
from algdiff.estimator import SampledSignal, estimate_at
from algdiff.kernel import (
    EstimatorConfig,
    WeightedPoly,
    affine_kernel,
    discretize,
    minimal_kernel,
    wpoly_eval,
    wpoly_moment,
)
from algdiff.specfun import JacobiIndex, smallest_root
from algdiff.stochastic import (
    Poisson,
    RngSeed,
    Wiener,
    WhiteGaussian,
    mc_noise_error,
    mc_noise_samples,
)
from oracles import jacobi_eval, wpoly_derivative


def make_kernel(cfg: EstimatorConfig):
    kernel = minimal_kernel(cfg) if cfg.q == 0 else affine_kernel(cfg)
    return discretize(kernel, cfg)


def test_01_benchmark_delays_to_four_decimals():
    """The eight benchmark delay figures, deterministic and instant."""
    ts1, ts2 = 1.0 / 200.0, math.pi / 100.0
    cases = [
        (lambda: theoretical_delay(1, 0.0, 0.0, 18 * ts1), 0.045),
        (lambda: theoretical_delay(1, -0.79, 0.0, 30 * ts1), 0.0565),
        (lambda: affine_delay(1, 0.0, 0.0, 30 * ts1, 0.276), 0.0414),
        (lambda: affine_delay(1, -0.78, -0.6, 46 * ts1, 0.218), 0.0501),
        (lambda: theoretical_delay(1, 0.0, 0.0, 25 * ts2), 0.3927),
        (lambda: theoretical_delay(1, -0.75, 0.0, 25 * ts2), 0.3021),
        (lambda: affine_delay(1, 0.0, 0.0, 38 * ts2, 0.276), 0.3295),
        (lambda: affine_delay(1, -0.7, -0.66, 32 * ts2, 0.234), 0.2352),
    ]
    for fn, _ in cases:  # warm-up pass
        fn()
    start = time.perf_counter()
    values = [fn() for fn, _ in cases]
    elapsed = time.perf_counter() - start
    worst = 0.0
    for value, expected in zip(values, (c[1] for c in cases)):
        worst = max(worst, abs(value - expected))
        assert abs(value - expected) < 5e-5, (value, expected)
    assert elapsed < 1e-3, f"delay computations took {elapsed * 1e3:.3f} ms"
    print(
        f"PASS 01 benchmark delays: 8/8 match to 4 decimals "
        f"(worst |diff| {worst:.2e}, {elapsed * 1e6:.0f} us)"
    )


def test_02_affine_abscissa_presets():
    """Evaluation abscissas for the two affine benchmark configs, with tiny
    root residuals."""
    cases = [
        ((0.0, 0.0), 0.276),
        ((-0.78, -0.6), 0.218),
    ]
    worst_res = 0.0
    for (kappa, mu), expected in cases:
        idx = JacobiIndex(2, mu + 1.0, kappa + 1.0)
        xi = smallest_root(idx)
        residual = abs(jacobi_eval(idx, xi))
        worst_res = max(worst_res, residual)
        assert abs(xi - expected) < 5e-4, (xi, expected)
        assert residual <= 1e-9
    print(f"PASS 02 affine abscissas: 0.276 / 0.218 to 3 decimals (worst residual {worst_res:.1e})")


def test_03_moment_identities_whole_grid():
    """Annihilation and normalization moments for every kernel order on the
    exponent grid, via exact Beta-function expansion."""
    grid = (-0.5, -0.25, 0.0, 1.0)
    checked = 0
    worst = 0.0
    start = time.perf_counter()
    for n in (1, 2, 3):
        for q in (0, 1, 2):
            for mu in grid:
                for kappa in grid:
                    for beta in (-1, 1):
                        cfg = EstimatorConfig(
                            n=n, q=q, mu=mu, kappa=kappa, beta=beta, T=1.0,
                            xi=0.3 if q else 0.0, m=n + q + 1,
                        )
                        p = minimal_kernel(cfg) if q == 0 else affine_kernel(cfg)
                        for low in range(n):
                            err = abs(wpoly_moment(p, low))
                            worst = max(worst, err)
                            assert err <= 1e-10
                        target = math.factorial(n) / (beta * cfg.T) ** n
                        err = abs(wpoly_moment(p, n) - target)
                        worst = max(worst, err)
                        assert err <= 1e-10
                        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"moment grid took {elapsed:.2f} s"
    print(
        f"PASS 03 moment identities: {checked} kernels, worst |error| {worst:.1e} "
        f"({elapsed * 1e3:.0f} ms)"
    )


def test_04_weight_derivative_identity():
    """n-fold derivative of the raised weight equals (-1)^n n! times the
    weighted degree-n polynomial, pointwise."""
    grid = (-0.5, -0.25, 0.0, 1.0)
    pts = np.linspace(0.05, 0.95, 19)
    worst = 0.0
    for n in (1, 2, 3):
        for mu in grid:
            for kappa in grid:
                p = WeightedPoly.of(mu + n, kappa + n, [1])
                for _ in range(n):
                    p = wpoly_derivative(p)
                sign = (-1) ** n * math.factorial(n)
                idx = JacobiIndex(n, mu, kappa)
                for t in pts:
                    lhs = wpoly_eval(p, float(t))
                    rhs = sign * (1 - t) ** mu * t**kappa * jacobi_eval(idx, float(t))
                    worst = max(worst, abs(lhs - rhs))
                    assert abs(lhs - rhs) <= 1e-9
    print(f"PASS 04 weight-derivative identity: n <= 3, worst pointwise |diff| {worst:.1e}")


def test_05_closed_form_variance_vs_monte_carlo():
    """Monte-Carlo noise-error variance lands within 5% of the closed forms:
    first-order single-term, first-order affine, and second-order."""
    trials, t0 = 10_000, 2.0
    runs = [
        (
            "order-1",
            EstimatorConfig(n=1, mu=0.0, kappa=0.0, beta=-1, T=1.0, m=400),
            variance_continuous(EstimatorConfig(n=1), 1.0),
            RngSeed(11),
        ),
        (
            "affine",
            EstimatorConfig(n=1, q=1, mu=0.0, kappa=0.0, beta=-1, T=1.0, xi=0.276, m=400),
            variance_continuous(EstimatorConfig(n=1, q=1, xi=0.276), 1.0),
            RngSeed(21),
        ),
        (
            "order-2",
            EstimatorConfig(n=2, mu=0.0, kappa=0.0, beta=-1, T=1.0, m=400),
            variance_continuous(EstimatorConfig(n=2), 1.0),
            RngSeed(22),
        ),
    ]
    start = time.perf_counter()
    report = []
    for label, cfg, target, seed in runs:
        _, var, _ = mc_noise_error(cfg, Wiener(1.0), t0, trials, seed)
        rel = abs(var - target) / target
        assert rel <= 0.05, (label, var, target)
        report.append(f"{label} {var:.4f} vs {target:.4f} ({rel * 100:.1f}%)")
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"variance Monte Carlo took {elapsed:.1f} s"
    print(f"PASS 05 variance vs Monte Carlo: {'; '.join(report)} ({elapsed:.1f} s)")


def test_06_counting_noise_mean():
    """Counting-process noise shifts the first derivative by its rate and
    leaves higher orders unbiased."""
    trials, t0, nu = 10_000, 2.0, 1.5
    start = time.perf_counter()
    cfg1 = EstimatorConfig(n=1, mu=0.0, kappa=0.0, beta=-1, T=1.0, m=400)
    mean1, var1, _ = mc_noise_error(cfg1, Poisson(nu), t0, trials, RngSeed(13))
    se1 = math.sqrt(var1 / trials)
    assert abs(mean1 - nu) <= 4 * se1, (mean1, nu, se1)

    cfg2 = EstimatorConfig(n=2, mu=0.0, kappa=0.0, beta=-1, T=1.0, m=400)
    mean2, var2, _ = mc_noise_error(cfg2, Poisson(nu), t0, trials, RngSeed(14))
    se2 = math.sqrt(var2 / trials)
    assert abs(mean2) <= 4 * se2, (mean2, se2)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"counting-noise Monte Carlo took {elapsed:.1f} s"
    print(
        f"PASS 06 counting-noise mean: order 1 {mean1:.4f} vs {nu} "
        f"({abs(mean1 - nu) / se1:.2f} SE), order 2 {mean2:.4f} "
        f"({abs(mean2) / se2:.2f} SE) ({elapsed:.1f} s)"
    )


def test_07_probabilistic_band_coverage():
    """With band width factor 2 the guaranteed coverage is 75%; the measured
    coverage clears it for both the continuous and the discrete band."""
    trials, t0, gamma = 10_000, 2.0, 2.0
    cfg = EstimatorConfig(n=1, mu=0.0, kappa=0.0, beta=-1, T=1.0, m=400)
    samples = mc_noise_samples(cfg, Wiener(1.0), t0, trials, RngSeed(11))

    lo_c, hi_c = chebyshev_band(0.0, variance_continuous(cfg, 1.0), gamma)
    frac_c = float(np.mean((samples > lo_c) & (samples < hi_c)))
    assert frac_c >= 0.75, frac_c

    rep = discrete_moments(make_kernel(cfg), Wiener(1.0), t0, gamma)
    frac_d = float(np.mean((samples > rep.cheb_low) & (samples < rep.cheb_high)))
    assert frac_d >= 0.75, frac_d
    print(
        f"PASS 07 band coverage at width factor 2: continuous {frac_c:.4f}, "
        f"discrete {frac_d:.4f} (bound 0.75)"
    )


def test_08_white_noise_variance_halves_with_m():
    """Doubling the tap count halves the white-noise error variance whenever
    both exponents exceed -1/2."""
    pairs = [(-0.25, -0.25), (0.0, 0.0), (0.5, 1.0)]
    ratios = []
    for kappa, mu in pairs:
        for m in (100, 200, 400):
            var = {}
            for mm in (m, 2 * m):
                cfg = EstimatorConfig(n=1, mu=mu, kappa=kappa, beta=-1, T=1.0, m=mm)
                var[mm] = discrete_moments(make_kernel(cfg), WhiteGaussian(1.0), 2.0, 2.0).variance
            ratio = var[2 * m] / var[m]
            ratios.append(ratio)
            assert 0.4 <= ratio <= 0.6, (kappa, mu, m, ratio)
    print(
        f"PASS 08 white-noise variance halving: {len(ratios)} ratios in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] (bound [0.4, 0.6])"
    )


def test_09_polynomial_exactness_and_delay_bias_law():
    """Degree-n inputs are recovered almost exactly; one degree higher the
    error is the predicted delay bias."""
    # exactness: integer exponents, tap counts chosen so the trapezoid error
    # sits below the bound (fractional exponents converge too slowly to reach
    # it at sane m; see the kernel tests for their decay rates)
    coeffs = (0.7, -1.3, 0.9, 0.4)
    m_for = {1: 40_000, 2: 200_000, 3: 2_000_000}
    worst_exact = 0.0
    for n, m in m_for.items():
        ts = 1.0 / m
        t = np.arange(m + 1) * ts
        values = sum(c * t**i for i, c in enumerate(coeffs[: n + 1]))
        truth = math.factorial(n) * coeffs[n]
        for mu in (0.0, 1.0):
            for kappa in (0.0, 1.0):
                cfg = EstimatorConfig(n=n, mu=mu, kappa=kappa, beta=-1, T=1.0, m=m)
                est = estimate_at(SampledSignal(0.0, ts, values), make_kernel(cfg), m)
                err = abs(est - truth)
                worst_exact = max(worst_exact, err)
                assert err <= 1e-8, (n, mu, kappa, err)

    # bias law: degree-(n+1) signal, error equals beta * delay * next derivative
    worst_rel = 0.0
    for n, taps, power in ((1, 2_000, 2), (2, 20_000, 3)):
        ts = 1.0 / taps
        t = np.arange(2 * taps + 1) * ts
        sig = SampledSignal(0.0, ts, t**power)
        cfg = EstimatorConfig(n=n, mu=0.0, kappa=0.0, beta=-1, T=1.0, m=taps)
        est = estimate_at(sig, make_kernel(cfg), 2 * taps)
        t0 = 2.0
        dn = math.factorial(power) / math.factorial(power - n) * t0 ** (power - n)
        dn1 = math.factorial(power)  # constant next derivative
        predicted_bias = cfg.beta * theoretical_delay(n, 0.0, 0.0, 1.0) * dn1
        rel = abs((est - dn) - predicted_bias) / abs(predicted_bias)
        worst_rel = max(worst_rel, rel)
        assert rel <= 1e-4, (n, rel)
    print(
        f"PASS 09 degree-n exactness worst |err| {worst_exact:.1e} (bound 1e-8); "
        f"delay-bias law worst rel {worst_rel:.1e} (bound 1e-4)"
    )


def test_10_second_order_recurrence():
    """A second-derivative estimate decomposes into three first-derivative
    estimates with exponent-shifted kernels."""
    worst = 0.0
    for mu, kappa in ((0.0, 0.0), (1.0, 0.5)):
        n, beta, T, m = 2, -1, 0.5, 250
        ts = T / m
        t = np.arange(1501) * ts
        sig = SampledSignal(0.0, ts, np.sin(2 * t) + 0.3 * np.exp(0.5 * t))
        cfg2 = EstimatorConfig(n=2, mu=mu, kappa=kappa, beta=beta, T=T, m=m)
        k2 = make_kernel(cfg2)

        def first_order(mm, kk):
            return make_kernel(EstimatorConfig(n=1, mu=mm, kappa=kk, beta=beta, T=T, m=m))

        A = (mu + kappa + 2 * n + 1) * (mu + kappa + 2 * n) / (2 * beta * T * (n + mu))
        B = -(mu + kappa + 2 * n + 1) * (mu + kappa + 2 * n) / (2 * beta * T * (n + kappa))
        for i0 in (400, 900, 1400):
            lhs = estimate_at(sig, k2, i0)
            rhs = (
                -(A + B) * estimate_at(sig, first_order(mu, kappa), i0)
                + A * estimate_at(sig, first_order(mu, kappa + 1), i0)
                + B * estimate_at(sig, first_order(mu + 1, kappa), i0)
            )
            rel = abs(lhs - rhs) / abs(lhs)
            worst = max(worst, rel)
            assert rel <= 1e-4, (mu, kappa, i0, rel)
    print(f"PASS 10 order-2 recurrence: worst rel diff {worst:.1e} (bound 1e-4)")


def test_11_extended_exponents_beat_integer_presets():
    """Across the four benchmark presets, extended exponents cut the total
    error at least fivefold for at least 9 of 10 noise seeds."""
    start = time.perf_counter()
    summary = []
    for preset in ("table1-a", "table1-b", "table2-a", "table2-b"):
        ratios = []
        for seed in range(10):
            pair = run_preset_pair(preset, RngSeed(seed))
            ratios.append(pair["error_ratio"])
        wins = sum(r >= 5.0 for r in ratios)
        assert wins >= 9, (preset, sorted(ratios))
        summary.append(f"{preset} {wins}/10 (min ratio {min(ratios):.1f})")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"preset sweep took {elapsed:.1f} s"
    print(f"PASS 11 extended vs integer presets: {'; '.join(summary)} ({elapsed:.1f} s)")


def test_12_design_surfaces():
    """Delay rises with kappa and falls with mu; noise-error variance falls
    toward negative exponents for both estimator families."""
    grid = -1.0 + 2.0 * np.arange(1, 42) / 41.0  # half-open (-1, 1]

    delay = sweep_surface("delay", grid, grid, n=1)
    assert np.all(np.diff(delay, axis=0) > 0)  # increasing in kappa
    assert np.all(np.diff(delay, axis=1) < 0)  # decreasing in mu

    mins = {}
    for quantity in ("variance_minimal", "variance_affine"):
        surface = sweep_surface(quantity, grid, grid, n=1, q=1)
        assert np.all(np.isfinite(surface)) and np.all(surface > 0)
        i, j = np.unravel_index(np.argmin(surface), surface.shape)
        assert grid[i] < 0 and grid[j] < 0, (quantity, grid[i], grid[j])
        mins[quantity] = (round(float(grid[i]), 3), round(float(grid[j]), 3))
        # strict decrease along the diagonal toward negative exponents
        diag = [(1.0, 1.0), (0.0, 0.0), (-0.5, -0.5)]
        q = 0 if quantity == "variance_minimal" else 1  # q = 0 ignores xi
        vals = []
        for k, u in diag:
            xi = smallest_root(JacobiIndex(2, u + 1, k + 1))
            vals.append(variance_continuous(EstimatorConfig(n=1, q=q, mu=u, kappa=k, xi=xi), 1.0))
        assert vals[0] > vals[1] > vals[2] > 0
    print(
        "PASS 12 design surfaces: delay monotone; variance minima at "
        f"(kappa, mu) = {mins['variance_minimal']} and {mins['variance_affine']}"
    )
