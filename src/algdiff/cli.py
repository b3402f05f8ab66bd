"""Command-line harness: estimator runs, benchmark experiments, kernel and
surface dumps, and Monte-Carlo reports.

Machine-facing output is CSV (series, kernels, grids) or a single JSON
document on stdout; human-facing comparison tables go to stderr.  All runs
are deterministic given the seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Callable, TextIO, get_type_hints

import numpy as np

from .analysis import (
    affine_delay,
    chebyshev_band,
    discrete_moments,
    poisson_mean,
    sweep_surface,
    theoretical_delay,
    variance_continuous,
)
from .estimator import SampledSignal, estimate_series
from .kernel import EstimatorConfig, kernel_taps
from .stochastic import (
    NoiseModel,
    Poisson,
    PolyMean,
    RngSeed,
    WhiteGaussian,
    Wiener,
    _sample_moments,
    calibrate_snr,
    gen_path,
    mc_noise_samples,
)

__all__ = [
    "ExperimentSpec",
    "RunReport",
    "run_experiment",
    "run_preset_pair",
    "dump_kernel",
    "dump_surface",
    "mc_report",
    "main",
    "PRESETS",
]


# ---------------------------------------------------------------------------
# benchmark signals

EXPSIN_TS = 1.0 / 200.0
SIN2T_TS = math.pi / 100.0

# name -> (s, sign, ts, count) of the signal x(t) = sign * Im exp(s t)
_NAMED_SIGNALS = {
    # exp(-t/1.2) sin(6t + pi)
    "expsin": (complex(-1.0 / 1.2, 6.0), -1.0, EXPSIN_TS, 1001),
    # sin(2t)
    "sin2t": (complex(0.0, 2.0), 1.0, SIN2T_TS, 446),
}


def _exp_signal(
    s: complex, sign: float, ts: float, count: int
) -> tuple[SampledSignal, Callable[[np.ndarray, int], np.ndarray]]:
    def deriv(t: np.ndarray, n: int) -> np.ndarray:
        return sign * np.imag(s**n * np.exp(s * t))

    t = np.arange(count) * ts
    return SampledSignal(0.0, ts, deriv(t, 0)), deriv


def _polynomial_signal(
    coeffs: tuple[float, ...], ts: float, count: int
) -> tuple[SampledSignal, Callable[[np.ndarray, int], np.ndarray]]:
    poly = np.polynomial.polynomial

    def deriv(t: np.ndarray, n: int) -> np.ndarray:
        return poly.polyval(t, poly.polyder(np.asarray(coeffs, dtype=float), n))

    t = np.arange(count) * ts
    return SampledSignal(0.0, ts, deriv(t, 0)), deriv


def _csv_signal(path: str) -> SampledSignal:
    rows = np.genfromtxt(path, delimiter=",", names=True)
    try:
        t = np.atleast_1d(rows["t"]).astype(float)
        v = np.atleast_1d(rows["value"]).astype(float)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"CSV {path} must have columns t,value") from exc
    if len(t) < 2:
        raise ValueError("CSV signal needs at least 2 samples")
    steps = np.diff(t)
    ts = float(steps[0])
    if np.max(np.abs(steps - ts)) > 1e-9 * max(abs(ts), 1.0):
        raise ValueError("CSV signal must be uniformly sampled")
    return SampledSignal(float(t[0]), ts, v)


# ---------------------------------------------------------------------------
# experiment specification and report


@dataclass(frozen=True)
class ExperimentSpec:
    """One benchmark run: signal, optional calibrated noise, estimator, window."""

    signal: str  # expsin | sin2t | polynomial | csv
    estimator: EstimatorConfig
    coeffs: tuple[float, ...] = ()
    csv_path: str | None = None
    ts: float | None = None  # polynomial signals only
    count: int | None = None
    noise: NoiseModel | None = None
    target_snr_db: float | None = None
    window: tuple[float, float] | None = None
    seed: RngSeed = RngSeed(42)
    gamma: float = 2.0
    label: str = "run"
    out_dir: str | None = None


@dataclass(frozen=True)
class RunReport:
    total_error: float | None
    snr_db: float | None
    delay_s: float
    band_low: float
    band_high: float
    gamma: float
    config: EstimatorConfig
    seed: RngSeed
    window: tuple[float, float]
    label: str
    series_paths: dict[str, str]


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(out: TextIO, header: list[str], rows) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


def _build_signal(spec: ExperimentSpec):
    if spec.signal in _NAMED_SIGNALS:
        return _exp_signal(*_NAMED_SIGNALS[spec.signal])
    if spec.signal == "polynomial":
        if not spec.coeffs:
            raise ValueError("polynomial signal requires coefficients")
        ts = spec.ts if spec.ts is not None else 0.01
        count = spec.count if spec.count is not None else 1001
        return _polynomial_signal(spec.coeffs, ts, count)
    if spec.signal == "csv":
        if spec.csv_path is None:
            raise ValueError("csv signal requires a path")
        return _csv_signal(spec.csv_path), None
    raise ValueError(f"unknown signal kind {spec.signal!r}")


def run_experiment(spec: ExperimentSpec) -> RunReport:
    """Generate signal and noise, estimate, and score on the metrics window.

    The pointwise error is estimate(t) - x^(n)(t), unshifted; total_error is
    ts * sum of squares over the window.  The estimate SNR applies the
    calibration log-ratio to the noisy estimate series against its deviation
    from the noiseless run.
    """
    clean, deriv = _build_signal(spec)
    cfg = spec.estimator

    scale = 0.0
    noisy = clean
    if spec.noise is not None:
        path = gen_path(spec.noise, clean.ts, len(clean.values), spec.seed)
        if spec.target_snr_db is not None:
            scale = calibrate_snr(clean, path, spec.target_snr_db)
        else:
            scale = 1.0
        noisy = SampledSignal(clean.t_start, clean.ts, clean.values + scale * path.values)

    series_noisy = estimate_series(noisy, cfg)
    series_clean = series_noisy if spec.noise is None else estimate_series(clean, cfg)

    times = series_noisy.times
    lo = times[0] if spec.window is None else max(spec.window[0], times[0])
    hi = times[-1] if spec.window is None else min(spec.window[1], times[-1])
    mask = (times >= lo - 1e-12) & (times <= hi + 1e-12)
    if not np.any(mask):
        raise ValueError(f"metrics window [{lo}, {hi}] contains no estimates")
    window = (float(times[mask][0]), float(times[mask][-1]))

    total_error = None
    truth = None
    if deriv is not None:
        truth = deriv(times, cfg.n)
        err = series_noisy.estimates[mask] - truth[mask]
        total_error = float(clean.ts * np.sum(err**2))

    snr_db = None
    if spec.noise is not None:
        noise_part = series_noisy.estimates[mask] - series_clean.estimates[mask]
        signal_part = series_noisy.estimates[mask]
        denom = float(noise_part @ noise_part)
        if denom > 0.0:
            snr_db = float(10.0 * math.log10(float(signal_part @ signal_part) / denom))

    delay = (
        theoretical_delay(cfg.n, cfg.kappa, cfg.mu, cfg.T)
        if cfg.q == 0
        else affine_delay(cfg.n, cfg.kappa, cfg.mu, cfg.T, cfg.xi)
    )

    dk = kernel_taps(cfg)
    if spec.noise is not None:
        base = discrete_moments(dk, spec.noise, window[0], spec.gamma)
        band_low, band_high = chebyshev_band(
            scale * base.mean, scale**2 * base.variance, spec.gamma
        )
    else:
        band_low = band_high = 0.0

    series_paths: dict[str, str] = {}
    if spec.out_dir is not None:
        out_dir = Path(spec.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        named = {"estimate_noisy": series_noisy.estimates, "estimate_noiseless": series_clean.estimates}
        if truth is not None:
            named["truth"] = truth
        for name, values in named.items():
            path = out_dir / f"{spec.label}_{name}.csv"
            with path.open("w") as fh:
                _write_csv(fh, ["t", "estimate"], zip(times, values))
            series_paths[name] = str(path)

    return RunReport(
        total_error=total_error,
        snr_db=snr_db,
        delay_s=delay,
        band_low=float(band_low),
        band_high=float(band_high),
        gamma=spec.gamma,
        config=cfg,
        seed=spec.seed,
        window=window,
        label=spec.label,
        series_paths=series_paths,
    )


# ---------------------------------------------------------------------------
# presets: the benchmark parameter pairs (integer exponents vs extended)


def _presets() -> dict[str, dict]:
    t1 = dict(
        signal="expsin",
        noise=("wiener", 1.0),
        target_snr_db=16.0,
        window=(50 * EXPSIN_TS, 5.0),
        ts=EXPSIN_TS,
    )
    t2 = dict(
        signal="sin2t",
        noise=("white", 1.0),
        target_snr_db=20.0,
        window=(38 * SIN2T_TS, 14.0),
        ts=SIN2T_TS,
    )
    return {
        "table1-a": {
            **t1,
            "integer": dict(n=1, q=0, mu=0.0, kappa=0.0, m=18, F=0.1),
            "extended": dict(n=1, q=0, mu=0.0, kappa=-0.79, m=30, F=0.1),
        },
        "table1-b": {
            **t1,
            "integer": dict(n=1, q=1, mu=0.0, kappa=0.0, m=30, xi=0.276, F=0.1),
            "extended": dict(n=1, q=1, mu=-0.6, kappa=-0.78, m=46, xi=0.218, F=0.1),
        },
        "table2-a": {
            **t2,
            "integer": dict(n=1, q=0, mu=0.0, kappa=0.0, m=25, F=0.5),
            "extended": dict(n=1, q=0, mu=0.0, kappa=-0.75, m=25, F=0.5),
        },
        "table2-b": {
            **t2,
            "integer": dict(n=1, q=1, mu=0.0, kappa=0.0, m=38, xi=0.276, F=0.5),
            "extended": dict(n=1, q=1, mu=-0.66, kappa=-0.7, m=32, xi=0.234, F=0.5),
        },
    }


PRESETS = _presets()


# noise kind -> model class; each class's one field is its intensity parameter
_NOISE_KINDS = {"white": WhiteGaussian, "wiener": Wiener, "poisson": Poisson}


def _noise_class(kind: str):
    if kind not in _NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    return _NOISE_KINDS[kind]


def _intensity_name(kind: str) -> str:
    """Name of the model's intensity parameter: sigma2, or nu for poisson."""
    return fields(_noise_class(kind))[0].name


def run_preset_pair(name: str, seed: RngSeed, out_dir: str | None = None, gamma: float = 2.0) -> dict:
    """Run a preset's integer-exponent and extended-exponent configs on the
    same noise realization and return the paired report."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    p = PRESETS[name]
    kind, intensity = p["noise"]
    reports = []
    for label in ("integer", "extended"):
        cfg = EstimatorConfig(beta=-1, T=p[label]["m"] * p["ts"], **p[label])
        spec = ExperimentSpec(
            signal=p["signal"],
            estimator=cfg,
            noise=_noise_class(kind)(intensity),
            target_snr_db=p["target_snr_db"],
            window=p["window"],
            seed=seed,
            gamma=gamma,
            label=f"{name}_{label}",
            out_dir=out_dir,
        )
        reports.append(run_experiment(spec))
    ratio = None
    if reports[0].total_error and reports[1].total_error:
        ratio = reports[0].total_error / reports[1].total_error
    return {
        "preset": name,
        "seed": asdict(seed),
        "runs": [asdict(r) for r in reports],
        "error_ratio": ratio,
    }


def _render_pair_table(pair: dict, out: TextIO) -> None:
    rows = []
    for run in pair["runs"]:
        cfg = run["config"]
        rows.append(
            (
                run["label"],
                f"mu={cfg['mu']:g} kappa={cfg['kappa']:g} T={cfg['T']:.4g}",
                f"{run['total_error']:.4e}" if run["total_error"] is not None else "-",
                f"{run['snr_db']:.2f}" if run["snr_db"] is not None else "-",
                f"{run['delay_s']:.4f}",
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(5)]
    header = ("run", "parameters", "total_error", "snr_db", "delay_s")
    widths = [max(w, len(h)) for w, h in zip(widths, header)]
    for line in (header, *rows):
        out.write("  ".join(str(c).ljust(w) for c, w in zip(line, widths)).rstrip() + "\n")
    if pair["error_ratio"] is not None:
        out.write(f"error ratio (integer/extended): {pair['error_ratio']:.2f}\n")


# ---------------------------------------------------------------------------
# dumps and Monte-Carlo report


def dump_kernel(cfg: EstimatorConfig, out: TextIO) -> None:
    """CSV of the discrete taps: i, abscissa, tap."""
    rows = ((i, i / cfg.m, tap) for i, tap in enumerate(kernel_taps(cfg).taps))
    _write_csv(out, ["i", "abscissa", "tap"], rows)


def dump_surface(
    quantity: str,
    kappa_grid,
    mu_grid,
    out: TextIO,
    *,
    n: int = 1,
    q: int = 1,
    T: float = 1.0,
    eta: float = 1.0,
) -> None:
    """CSV grid of a design quantity: header row of mu, first column kappa."""
    grid = sweep_surface(quantity, kappa_grid, mu_grid, n=n, q=q, T=T, eta=eta)
    out.write("," + ",".join(_fmt(mu) for mu in mu_grid) + "\n")
    for kappa, row in zip(kappa_grid, grid):
        out.write(_fmt(kappa) + "," + ",".join(_fmt(v) for v in row) + "\n")


def mc_report(
    cfg: EstimatorConfig,
    model: NoiseModel,
    t0: float,
    trials: int,
    gamma: float,
    seed: RngSeed,
) -> dict:
    """Empirical noise-error moments with closed-form and discrete bands.

    Each band carries the fraction of trials it contains; the closed-form
    (continuous-limit) band exists for every Wiener or Poisson process.
    """
    if trials < 100:
        raise ValueError("trials must be at least 100")
    samples = mc_noise_samples(cfg, model, t0, trials, seed)
    emp_mean, emp_var, stderr_var = _sample_moments(samples)

    def band(mean: float, variance: float) -> dict:
        low, high = chebyshev_band(mean, variance, gamma)
        return {
            "mean": mean,
            "variance": variance,
            "band_low": low,
            "band_high": high,
            "fraction_inside": float(np.mean((samples > low) & (samples < high))),
        }

    continuous = None
    if isinstance(model, Wiener):
        continuous = band(0.0, variance_continuous(cfg, model.sigma2))
    elif isinstance(model, Poisson):
        continuous = band(poisson_mean(cfg.n, model.nu), variance_continuous(cfg, model.nu))
    rep = discrete_moments(kernel_taps(cfg), model, t0, gamma)
    bands = {"continuous": continuous, "discrete": band(rep.mean, rep.variance)}

    return {
        "emp_mean": emp_mean,
        "emp_var": emp_var,
        "stderr_var": stderr_var,
        "trials": trials,
        "gamma": gamma,
        "t0": t0,
        "bands": bands,
        "config": asdict(cfg),
        "seed": asdict(seed),
        "model": _model_dict(model),
    }


def _model_dict(model: NoiseModel) -> dict:
    if isinstance(model, PolyMean):
        return {"kind": "polymean", "coeffs": list(model.coeffs), "base": _model_dict(model.base)}
    kind = next(k for k, cls in _NOISE_KINDS.items() if isinstance(model, cls))
    return {"kind": kind, **asdict(model)}


# ---------------------------------------------------------------------------
# spec files and argument plumbing

_SPEC_KEYS = {
    "signal", "coeffs", "csv_path", "ts", "count", "noise", "sigma2", "nu",
    "target_snr_db", "n", "q", "mu", "kappa", "beta", "T", "xi", "F", "m",
    "endpoint", "window_lo", "window_hi", "seed", "stream", "gamma", "label",
}


def _parse_spec_file(path: str) -> dict:
    values: dict[str, str] = {}
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad spec line (expected key = value): {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SPEC_KEYS:
            raise ValueError(f"unknown spec key {key!r}")
        values[key] = value
    return values


def _pick(values: dict, ns: argparse.Namespace, key: str, cast, default=None):
    """A flag if given, else the spec-file value, else ``default``."""
    flag = getattr(ns, key, None)
    if flag is not None:
        return flag
    if key in values:
        return cast(values[key])
    return default


_CONFIG_TYPES = get_type_hints(EstimatorConfig)


def _resolve_config(
    values: dict, ns: argparse.Namespace, ts: float | None = None
) -> EstimatorConfig:
    """Estimator from flags over spec-file values over the dataclass defaults.

    With a sampling period ``ts`` the window must be set by m (taps) or T
    (seconds), and either gives the other; without one, each defaults alone.
    """
    given = {}
    for f in fields(EstimatorConfig):
        value = _pick(values, ns, f.name, _CONFIG_TYPES[f.name])
        if value is not None:
            given[f.name] = value
    given.setdefault("n", 1)
    if ts is not None:
        if "m" not in given and "T" not in given:
            raise ValueError("set m (taps) or T (window length)")
        if "m" not in given:
            given["m"] = round(given["T"] / ts)
        if "T" not in given:
            given["T"] = given["m"] * ts
    return EstimatorConfig(**given)


def _spec_from_mapping(values: dict, overrides: argparse.Namespace) -> ExperimentSpec:
    def pick(key: str, cast, default=None):
        return _pick(values, overrides, key, cast, default)

    signal = pick("signal", str, "expsin")
    ts = _NAMED_SIGNALS[signal][2] if signal in _NAMED_SIGNALS else pick("ts", float, 0.01)

    kind = pick("noise", str, "none")
    noise: NoiseModel | None = None
    if kind not in ("none", ""):
        noise = _noise_class(kind)(pick(_intensity_name(kind), float, 1.0))

    window = None
    lo = pick("window_lo", float)
    hi = pick("window_hi", float)
    if lo is not None or hi is not None:
        window = (lo if lo is not None else -math.inf, hi if hi is not None else math.inf)

    coeffs_text = values.get("coeffs", "")
    coeffs = tuple(float(c) for c in coeffs_text.split(",") if c.strip()) if coeffs_text else ()

    return ExperimentSpec(
        signal=signal,
        estimator=_resolve_config(values, overrides, ts),
        coeffs=coeffs,
        csv_path=values.get("csv_path"),
        ts=ts if signal == "polynomial" else None,
        count=pick("count", int),
        noise=noise,
        target_snr_db=pick("target_snr_db", float),
        window=window,
        seed=RngSeed(pick("seed", int, 42), pick("stream", int, 0)),
        gamma=pick("gamma", float, 2.0),
        label=pick("label", str, "run"),
        out_dir=getattr(overrides, "out_dir", None),
    )


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--n", type=int, default=None, help="derivative order")
    parser.add_argument("--q", type=int, default=None, help="series terms beyond minimal")
    parser.add_argument("--mu", type=float, default=None, help="(1-t) weight exponent")
    parser.add_argument("--kappa", type=float, default=None, help="t weight exponent")
    parser.add_argument("--beta", type=int, default=None, choices=(-1, 1), help="window direction")
    parser.add_argument("--T", type=float, default=None, help="window length, seconds")
    parser.add_argument("--xi", type=float, default=None, help="evaluation abscissa (q >= 1)")
    parser.add_argument("--F", type=float, default=None, help="endpoint regularization fraction")
    parser.add_argument("--m", type=int, default=None, help="tap count (window = m+1 samples)")
    parser.add_argument("--endpoint", choices=("f-rule", "suppress"), default=None)


def _half_open_grid(lo: float, hi: float, points: int) -> np.ndarray:
    # points cells on (lo, hi]: lo + k*(hi-lo)/points, k = 1..points
    step = (hi - lo) / points
    return lo + step * np.arange(1, points + 1)


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _print_json(document: dict) -> None:
    sys.stdout.write(json.dumps(document, indent=2, sort_keys=True, allow_nan=False) + "\n")


def _cmd_estimate(ns: argparse.Namespace) -> int:
    signal = _csv_signal(ns.input)
    series = estimate_series(signal, _resolve_config({}, ns, ts=signal.ts))
    with _open_out(ns.out) as out:
        _write_csv(out, ["t", "estimate"], zip(series.times, series.estimates))
    return 0


def _cmd_experiment(ns: argparse.Namespace) -> int:
    if ns.target in PRESETS:
        seed = RngSeed(_pick({}, ns, "seed", int, 42), _pick({}, ns, "stream", int, 0))
        pair = run_preset_pair(ns.target, seed, out_dir=ns.out_dir,
                               gamma=_pick({}, ns, "gamma", float, 2.0))
        _render_pair_table(pair, sys.stderr)
        document = pair
    else:
        if not Path(ns.target).exists():
            raise ValueError(
                f"{ns.target!r} is neither a preset ({sorted(PRESETS)}) nor a spec file"
            )
        spec = _spec_from_mapping(_parse_spec_file(ns.target), ns)
        document = asdict(run_experiment(spec))
    _print_json(document)
    return 0


def _cmd_kernel(ns: argparse.Namespace) -> int:
    cfg = _resolve_config({}, ns)
    with _open_out(ns.out) as out:
        dump_kernel(cfg, out)
    return 0


def _cmd_surface(ns: argparse.Namespace) -> int:
    if ns.points < 1:
        raise ValueError(f"--points must be at least 1, got {ns.points}")
    kappa_grid = _half_open_grid(ns.kappa_lo, ns.kappa_hi, ns.points)
    mu_grid = _half_open_grid(ns.mu_lo, ns.mu_hi, ns.points)
    # unset flags fall back to dump_surface's own defaults (q = 1 here)
    given = {key: getattr(ns, key) for key in ("n", "q", "T") if getattr(ns, key) is not None}
    with _open_out(ns.out) as out:
        dump_surface(ns.quantity, kappa_grid, mu_grid, out, eta=ns.eta, **given)
    return 0


def _cmd_mc(ns: argparse.Namespace) -> int:
    model = _noise_class(ns.model)(getattr(ns, _intensity_name(ns.model)))
    seed = RngSeed(ns.seed, ns.stream)
    _print_json(mc_report(_resolve_config({}, ns), model, ns.t0, ns.trials, ns.gamma, seed))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="algdiff",
        description="Sliding-window derivative estimation for noisy signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate a derivative series from a CSV signal")
    p_est.add_argument("--in", dest="input", required=True, help="CSV with columns t,value")
    p_est.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_config_flags(p_est)
    p_est.set_defaults(func=_cmd_estimate)

    p_exp = sub.add_parser("experiment", help="run a benchmark preset or a spec file")
    p_exp.add_argument("target", help=f"preset name ({', '.join(sorted(PRESETS))}) or spec-file path")
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--stream", type=int, default=None)
    p_exp.add_argument("--gamma", type=float, default=None)
    p_exp.add_argument("--out-dir", dest="out_dir", default=None, help="directory for series CSVs")
    _add_config_flags(p_exp)
    p_exp.set_defaults(func=_cmd_experiment)

    p_ker = sub.add_parser("kernel", help="dump discrete kernel taps as CSV")
    p_ker.add_argument("--out", default=None)
    _add_config_flags(p_ker)
    p_ker.set_defaults(func=_cmd_kernel)

    p_sur = sub.add_parser("surface", help="dump a design-quantity grid as CSV")
    p_sur.add_argument("quantity", choices=("delay", "xi", "variance_minimal", "variance_affine"))
    p_sur.add_argument("--points", type=int, default=41)
    p_sur.add_argument("--kappa-lo", dest="kappa_lo", type=float, default=-1.0)
    p_sur.add_argument("--kappa-hi", dest="kappa_hi", type=float, default=1.0)
    p_sur.add_argument("--mu-lo", dest="mu_lo", type=float, default=-1.0)
    p_sur.add_argument("--mu-hi", dest="mu_hi", type=float, default=1.0)
    p_sur.add_argument("--eta", type=float, default=1.0)
    p_sur.add_argument("--out", default=None)
    _add_config_flags(p_sur)
    p_sur.set_defaults(func=_cmd_surface)

    p_mc = sub.add_parser("mc", help="Monte-Carlo noise-error report as JSON")
    p_mc.add_argument("--model", choices=tuple(_NOISE_KINDS), default="wiener")
    p_mc.add_argument("--sigma2", type=float, default=1.0)
    p_mc.add_argument("--nu", type=float, default=1.0)
    p_mc.add_argument("--t0", type=float, default=2.0)
    p_mc.add_argument("--trials", type=int, default=10_000)
    p_mc.add_argument("--seed", type=int, default=42)
    p_mc.add_argument("--stream", type=int, default=0)
    p_mc.add_argument("--gamma", type=float, default=2.0)
    _add_config_flags(p_mc)
    p_mc.set_defaults(func=_cmd_mc)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    try:
        return ns.func(ns)
    except (
        ValueError, IndexError, OSError, TypeError, ArithmeticError, MemoryError
    ) as exc:
        # a bare MemoryError has an empty message
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
