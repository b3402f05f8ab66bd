"""Command-line harness: estimator runs, benchmark experiments, kernel and
surface dumps, and Monte-Carlo reports.

Machine-facing output is CSV (series, kernels, grids) or a single JSON
document on stdout, one line with sorted keys (``python -m json.tool``
indents it); human-facing comparison tables go to stderr.  All runs are
deterministic given the seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import warnings
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path
from typing import Callable, NamedTuple, TextIO, get_type_hints

import numpy as np

from .analysis import (
    _QUANTITIES,
    _beyond_float_range,
    _in_float_range,
    _variance_at_fault,
    chebyshev_band,
    continuous_moments,
    delay,
    discrete_moments,
    sweep_surface,
)
from .estimator import SampledSignal, estimate_series
from .kernel import _ENDPOINTS, EstimatorConfig, kernel_taps
from .stochastic import (
    NoiseModel,
    Poisson,
    RngSeed,
    WhiteGaussian,
    Wiener,
    _record,
    _sample_moments,
    calibrate_snr,
    gen_path,
    mc_noise_samples,
)

__all__ = ["run_experiment", "run_preset_pair", "mc_report", "main", "PRESETS"]


# ---------------------------------------------------------------------------
# benchmark signals

EXPSIN_TS = 1.0 / 200.0
SIN2T_TS = math.pi / 100.0

# truth(k): a signal's exact k-th derivative at its sample times
_Truth = Callable[[int], np.ndarray]


# name -> (s, sign, ts, count) of the signal x(t) = sign * Im exp(s t), t = ts * arange(count)
_NAMED_SIGNALS = {
    "expsin": (complex(-1.0 / 1.2, 6.0), -1.0, EXPSIN_TS, 1001),  # exp(-t/1.2) sin(6t + pi)
    "sin2t": (complex(0.0, 2.0), 1.0, SIN2T_TS, 446),  # sin(2t)
}


def _csv_signal(path: str) -> SampledSignal:
    with warnings.catch_warnings():
        warnings.filterwarnings("error", message="genfromtxt: Empty input file")
        try:
            rows = np.genfromtxt(path, delimiter=",", names=True)
        except UserWarning:
            raise ValueError(f"CSV {path} is empty") from None
    try:
        t = np.atleast_1d(rows["t"]).astype(float)
        v = np.atleast_1d(rows["value"]).astype(float)
    except (KeyError, ValueError) as exc:
        raise ValueError(f"CSV {path} must have columns t,value") from exc
    if len(t) < 2:
        raise ValueError("CSV signal needs at least 2 samples")
    steps = np.diff(t)
    ts = float(steps[0])
    # a nan step fails every comparison, so the check is written as "not <="
    if not np.max(np.abs(steps - ts)) <= 1e-9 * max(abs(ts), 1.0):
        raise ValueError("CSV signal must be uniformly sampled")
    return SampledSignal(float(t[0]), ts, v)


# ---------------------------------------------------------------------------
# experiment run and report

# run defaults, each stated once: a preset or spec-file value overrides one,
# and a flag overrides both
_DEFAULTS = {
    "signal": "expsin", "ts": 0.01, "count": 1001, "noise": "none", "sigma2": 1.0,
    "nu": 1.0, "window_lo": -math.inf, "window_hi": math.inf, "n": 1, "seed": 42,
    "stream": 0, "gamma": 2.0, "label": "run",
}


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_csv(out: TextIO, header: list[str], rows) -> None:
    out.write(",".join(header) + "\n")
    for row in rows:
        out.write(",".join(_fmt(v) for v in row) + "\n")


class _Drawn(NamedTuple):
    """A run's noisy signal: the clean samples and their derivatives on the
    sample grid (None for a CSV signal), the noise model (None for none), the
    seed, the calibrated noise scale (0 without noise) and the noisy samples."""

    clean: SampledSignal
    truth: _Truth | None
    noise: NoiseModel | None
    seed: RngSeed
    scale: float
    noisy: SampledSignal


def _draw(values: dict) -> tuple[EstimatorConfig, _Drawn]:
    """A run's estimator and noisy signal: resolve the signal, the noise and
    the config (so a bad config is named before the seed), then key the
    generator, draw the noise path and scale it to the target SNR."""
    clean, truth = _signal(values)
    noise = _noise(values)
    cfg = _config(values, clean)
    seed = RngSeed(values["seed"], values["stream"])
    scale = 0.0
    noisy = clean
    if noise is not None:
        path = gen_path(noise, clean.ts, len(clean.values), seed)
        target_snr_db = values.get("target_snr_db")
        scale = 1.0 if target_snr_db is None else calibrate_snr(clean, path, target_snr_db)
        noisy = SampledSignal(clean.t_start, clean.ts, clean.values + scale * path.values)
    return cfg, _Drawn(clean, truth, noise, seed, scale, noisy)


def run_experiment(values: dict, out_dir: str | None = None) -> dict:
    """Generate signal and noise, estimate, and score on the metrics window.

    ``values`` are a run's resolved spec values (see `_resolve`).  The
    pointwise error is estimate(t) - x^(n)(t), unshifted; total_error is
    ts * sum of squares over the window.  The estimate SNR applies the
    calibration log-ratio to the noisy estimate series against its deviation
    from the noiseless run.  With ``out_dir`` the series are written there as
    CSVs named after the run's label.
    """
    return _score(values, *_draw(values), out_dir)


def _score(values: dict, cfg: EstimatorConfig, drawn: _Drawn, out_dir: str | None) -> dict:
    """`run_experiment`'s report of the estimator ``cfg`` on the noisy signal ``drawn``."""
    clean, noise, scale = drawn.clean, drawn.noise, drawn.scale
    gamma = values["gamma"]
    series_noisy = estimate_series(drawn.noisy, cfg)
    series_clean = series_noisy if noise is None else estimate_series(clean, cfg)

    for key in ("window_lo", "window_hi"):
        if math.isnan(values[key]):
            raise ValueError(f"{key} must be a number, got nan")
    # the estimates within 1e-12 of the window [lo, hi], a slice of the sorted times
    times = series_noisy.times
    lo = max(values["window_lo"], times[0])
    hi = min(values["window_hi"], times[-1])
    first = int(np.searchsorted(times, lo - 1e-12))
    stop = int(np.searchsorted(times, hi + 1e-12, "right"))
    if first >= stop:
        raise ValueError(f"metrics window [{lo}, {hi}] contains no estimates")
    in_window = slice(first, stop)
    window = (float(times[first]), float(times[stop - 1]))

    total_error = None
    truth = None
    if drawn.truth is not None:
        start = cfg.m if cfg.beta == -1 else 0  # the sample of estimate 0
        truth = drawn.truth(cfg.n)[start : start + len(times)]
        err = series_noisy.estimates[in_window] - truth[in_window]
        total_error = float(clean.ts * np.sum(err**2))

    snr_db = None
    mean = variance = 0.0
    if noise is not None:
        # contiguous: a dot over the reversed view of a beta = -1 series sums in another order
        signal_part = np.ascontiguousarray(series_noisy.estimates[in_window])
        noise_part = signal_part - series_clean.estimates[in_window]
        denom = float(noise_part @ noise_part)
        if denom > 0.0:
            snr_db = float(10.0 * math.log10(float(signal_part @ signal_part) / denom))
        base = discrete_moments(kernel_taps(cfg), noise, window[0])
        mean, variance = scale * base.mean, scale**2 * base.variance
    band_low, band_high = chebyshev_band(mean, variance, gamma)

    series_paths: dict[str, str] = {}
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        named = {"estimate_noisy": series_noisy.estimates, "estimate_noiseless": series_clean.estimates}
        if truth is not None:
            named["truth"] = truth
        for name, estimates in named.items():
            csv_path = out_dir / f"{values['label']}_{name}.csv"
            with csv_path.open("w") as fh:
                _write_csv(fh, ["t", "estimate"], zip(times, estimates))
            series_paths[name] = str(csv_path)

    return {
        "total_error": total_error,
        "snr_db": snr_db,
        "delay_s": delay(cfg),
        "band_low": band_low,
        "band_high": band_high,
        "gamma": gamma,
        "config": _record(cfg),
        "seed": _record(drawn.seed),
        "window": window,
        "label": values["label"],
        "series_paths": series_paths,
    }


# ---------------------------------------------------------------------------
# presets: the benchmark parameter pairs (integer exponents vs extended)


_TABLE1 = dict(signal="expsin", noise="wiener", target_snr_db=16.0,
               window_lo=50 * EXPSIN_TS, window_hi=5.0, n=1, F=0.1)
_TABLE2 = dict(signal="sin2t", noise="white", target_snr_db=20.0,
               window_lo=38 * SIN2T_TS, window_hi=14.0, n=1, F=0.5)

# preset -> its "integer" and "extended" runs, each a built-in spec file
PRESETS = {
    "table1-a": {
        "integer": dict(_TABLE1, q=0, mu=0.0, kappa=0.0, m=18),
        "extended": dict(_TABLE1, q=0, mu=0.0, kappa=-0.79, m=30),
    },
    "table1-b": {
        "integer": dict(_TABLE1, q=1, mu=0.0, kappa=0.0, m=30, xi=0.276),
        "extended": dict(_TABLE1, q=1, mu=-0.6, kappa=-0.78, m=46, xi=0.218),
    },
    "table2-a": {
        "integer": dict(_TABLE2, q=0, mu=0.0, kappa=0.0, m=25),
        "extended": dict(_TABLE2, q=0, mu=0.0, kappa=-0.75, m=25),
    },
    "table2-b": {
        "integer": dict(_TABLE2, q=1, mu=0.0, kappa=0.0, m=38, xi=0.276),
        "extended": dict(_TABLE2, q=1, mu=-0.66, kappa=-0.7, m=32, xi=0.234),
    },
}


# noise kind -> model class; each class's one field is its intensity parameter
_NOISE_KINDS = {"white": WhiteGaussian, "wiener": Wiener, "poisson": Poisson}
# noise kind -> the spec key of its intensity, the one such key its model reads
_INTENSITY = {kind: fields(model)[0].name for kind, model in _NOISE_KINDS.items()}


def run_preset_pair(name: str, flags: dict, out_dir: str | None = None) -> dict:
    """Run a preset's integer-exponent and extended-exponent configs on the
    same noise realization and return the paired report.

    ``flags`` (spec keys, e.g. ``{"seed": 3}``) override both runs' values.
    The two runs share every value that defines the noisy signal, so it is
    drawn and calibrated once, and each report equals `run_experiment`'s.
    """
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; choose from {sorted(PRESETS)}")
    integer, extended = (_resolve(flags, dict(values, label=f"{name}_{label}"))
                         for label, values in PRESETS[name].items())
    cfg, drawn = _draw(integer)
    runs = [_score(integer, cfg, drawn, out_dir)]
    runs.append(_score(extended, _config(extended, drawn.clean), drawn, out_dir))
    ratio = None
    if runs[0]["total_error"] and runs[1]["total_error"]:
        ratio = runs[0]["total_error"] / runs[1]["total_error"]
    return {"preset": name, "seed": runs[0]["seed"], "runs": runs, "error_ratio": ratio}


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
    header = ("run", "parameters", "total_error", "snr_db", "delay_s")
    widths = [max(len(line[i]) for line in (header, *rows)) for i in range(5)]
    for line in (header, *rows):
        out.write("  ".join(str(c).ljust(w) for c, w in zip(line, widths)).rstrip() + "\n")
    if pair["error_ratio"] is not None:
        out.write(f"error ratio (integer/extended): {pair['error_ratio']:.2f}\n")


# ---------------------------------------------------------------------------
# Monte-Carlo report


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
    discrete = discrete_moments(kernel_taps(cfg), model, t0)
    emp_mean, emp_var, stderr_var = _sample_moments(samples)
    if emp_var == math.inf:
        raise _beyond_float_range(model)

    def band(mean: float, variance: float) -> dict:
        low, high = chebyshev_band(mean, variance, gamma)
        return {
            "mean": mean,
            "variance": variance,
            "band_low": low,
            "band_high": high,
            "fraction_inside": float(np.mean((samples > low) & (samples < high))),
        }

    continuous = continuous_moments(cfg, model)
    bands = {
        "continuous": None if continuous is None else band(continuous.mean, continuous.variance),
        "discrete": band(discrete.mean, discrete.variance),
    }

    return {
        "emp_mean": emp_mean,
        "emp_var": emp_var,
        "stderr_var": stderr_var,
        "trials": trials,
        "gamma": gamma,
        "t0": t0,
        "bands": bands,
        "config": _record(cfg),
        "seed": _record(seed),
        "model": {"kind": next(k for k, c in _NOISE_KINDS.items() if isinstance(model, c)),
                  **_record(model)},
    }


# ---------------------------------------------------------------------------
# spec files and argument plumbing

def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(c) for c in text.split(",") if c.strip())


_CONFIG_KEYS = tuple(f.name for f in fields(EstimatorConfig))

# spec key -> the type its value is cast to, once, when a spec file is read;
# the same keys name the flags that override them
_SPEC_TYPES = {
    **get_type_hints(EstimatorConfig),
    **{key: type(value) for key, value in _DEFAULTS.items()},
    "coeffs": _floats, "csv_path": str, "target_snr_db": float,
}


def _parse_spec_file(path: str) -> dict:
    values = {}
    for raw_line in Path(path).read_text().splitlines():
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"bad spec line (expected key = value): {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _SPEC_TYPES:
            raise ValueError(f"unknown spec key {key!r}")
        if key in values:
            raise ValueError(f"spec key {key!r} is given twice")
        try:
            values[key] = _SPEC_TYPES[key](value)
        except ValueError as exc:
            raise ValueError(f"spec key {key!r}: {exc}") from None
    return values


def _flags(ns: argparse.Namespace) -> dict:
    """The spec keys set on the command line."""
    return {
        key: value for key, value in vars(ns).items() if key in _SPEC_TYPES and value is not None
    }


def _resolve(flags: dict, spec: dict | None = None) -> dict:
    """A run's values: flag over spec-file (or preset) value over default.

    The window is one value, set by m or T: a window flag replaces the
    spec's m and T together, so `_config` derives the other from ts.  A
    noise model reads one intensity key; the other, given, is refused.
    """
    spec = spec or {}
    if "m" in flags or "T" in flags:
        spec = {key: value for key, value in spec.items() if key not in ("m", "T")}
    values = {**_DEFAULTS, **spec, **flags}
    read = _INTENSITY.get(values["noise"])
    for key in _INTENSITY.values():
        if read and key != read and (key in flags or key in spec):
            raise ValueError(f"{key} does not apply to noise {values['noise']!r}, which reads {read}")
    return values


def _config(values: dict, signal: SampledSignal | None = None) -> EstimatorConfig:
    """Estimator from resolved values over the dataclass defaults.

    Against a ``signal`` the window must be set by m (taps) or T (seconds),
    either gives the other at the signal's sampling period, and the window
    must fit in the signal; without one, each defaults alone.
    """
    given = {key: values[key] for key in _CONFIG_KEYS if key in values}
    if signal is None:
        return EstimatorConfig(**given)
    ts, count = signal.ts, len(signal.values)
    if "m" not in given and "T" not in given:
        raise ValueError("set m (taps) or T (window length)")
    if "m" not in given:  # check T at the least m, so a bad T is named as T
        least = given.get("n", 1) + given.get("q", 0) + 1
        T = EstimatorConfig(**{**given, "m": least}).T
        taps = T / ts
        if not (taps < math.inf and least <= round(taps) < count):
            what = f"{taps:.6g} taps" if taps < math.inf else "a tap count beyond the float range"
            raise ValueError(f"T = {T!r} over the sampling period {ts!r} gives {what}; "
                             f"a signal of {count} samples allows {least} to {count - 1} taps")
        given["m"] = round(taps)
    elif "T" not in given:  # m is checked right after n and q, so a bad m is named as m
        given["T"] = given["m"] * ts
    cfg = EstimatorConfig(**given)
    if cfg.m >= count:
        raise ValueError(f"m = {cfg.m} needs a window of {cfg.m + 1} samples; the signal has {count}")
    return cfg


def _noise(values: dict) -> NoiseModel | None:
    kind = values["noise"]
    if kind in ("none", ""):
        return None
    if kind not in _NOISE_KINDS:
        raise ValueError(f"unknown noise kind {kind!r}")
    return _NOISE_KINDS[kind](values[_INTENSITY[kind]])


def _signal(values: dict) -> tuple[SampledSignal, _Truth | None]:
    """The run's samples and the signal's derivatives on the sample grid,
    None when they are unknown (a CSV signal)."""
    kind = values["signal"]
    if kind == "csv":
        if "csv_path" not in values:
            raise ValueError("csv signal requires a path")
        return _csv_signal(values["csv_path"]), None
    if kind in _NAMED_SIGNALS:
        return _named_signal(kind)
    if kind != "polynomial":
        raise ValueError(f"unknown signal kind {kind!r}")
    if not values.get("coeffs"):
        raise ValueError("polynomial signal requires coefficients")
    ts, count = values["ts"], values["count"]
    if count < 1:
        raise ValueError(f"polynomial signal requires count >= 1, got count = {count!r}")
    # SampledSignal names a bad ts, and the check below the inputs behind
    # samples that are not finite, so NumPy's warnings add nothing
    poly = np.polynomial.polynomial
    coeffs = np.asarray(values["coeffs"], dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        grid = np.arange(count) * ts
        truth = lambda k: poly.polyval(grid, poly.polyder(coeffs, k))
        samples = truth(0)
    if 0 < ts < math.inf and not np.isfinite(samples).all():
        raise ValueError(
            f"coeffs = {values['coeffs']!r} with ts = {ts!r} and count = {count!r} "
            "give samples that are not finite"
        )
    return SampledSignal(0.0, ts, samples), truth


@functools.cache
def _named_signal(kind: str) -> tuple[SampledSignal, _Truth]:
    """`_signal` of a named signal, built once per process: its samples, and
    the exponential that its ``truth(k)`` reads, are read-only."""
    s, sign, ts, count = _NAMED_SIGNALS[kind]
    e = np.exp(s * (np.arange(count) * ts))
    e.setflags(write=False)
    truth = lambda k: sign * np.imag(s**k * e)
    samples = truth(0)
    samples.setflags(write=False)
    return SampledSignal(0.0, ts, samples), truth


_FLAG_HELP = {
    "n": "derivative order", "q": "series terms beyond minimal",
    "mu": "(1-t) weight exponent", "kappa": "t weight exponent", "beta": "window direction",
    "T": "window length, seconds", "xi": "evaluation abscissa (q >= 1)",
    "F": "endpoint regularization fraction", "m": "tap count (window = m+1 samples)",
}
_FLAG_CHOICES = {"beta": (-1, 1), "endpoint": _ENDPOINTS}


def _add_flags(parser: argparse.ArgumentParser, *keys: str) -> None:
    """A flag for each spec key, typed by `_SPEC_TYPES`; an unset flag is None."""
    for key in keys:
        parser.add_argument(f"--{key}", type=_SPEC_TYPES[key],
                            choices=_FLAG_CHOICES.get(key), help=_FLAG_HELP.get(key))


# the default (lo, hi] of each exponent axis of `surface`
_AXIS_BOUNDS = (-1.0, 1.0)


def _surface_axis(name: str, lo: float, hi: float, points: int) -> np.ndarray:
    """The half-open grid (lo, hi] of one exponent, checked against its flags."""
    for end, value in (("lo", lo), ("hi", hi)):
        if not math.isfinite(value):
            raise ValueError(f"--{name}-{end} must be finite, got {value!r}")
    # points cells on (lo, hi]: lo + k*(hi-lo)/points, k = 1..points
    grid = lo + (hi - lo) / points * np.arange(1, points + 1)
    bad = grid[~(np.isfinite(grid) & (grid > -1))]
    if bad.size:
        raise ValueError(
            f"--{name}-lo {lo!r} and --{name}-hi {hi!r} give {name} = {float(bad[0])!r}; "
            f"every {name} must be finite and exceed -1"
        )
    return grid


@contextmanager
def _open_out(path: str | None):
    if path is None or path == "-":
        yield sys.stdout
    else:
        with open(path, "w") as fh:
            yield fh


def _print_json(document: dict) -> None:
    sys.stdout.write(json.dumps(document, sort_keys=True, allow_nan=False) + "\n")


def _cmd_estimate(ns: argparse.Namespace) -> int:
    signal = _csv_signal(ns.input)
    series = estimate_series(signal, _config(_resolve(_flags(ns)), signal))
    with _open_out(ns.out) as out:
        _write_csv(out, ["t", "estimate"], zip(series.times, series.estimates))
    return 0


def _cmd_experiment(ns: argparse.Namespace) -> int:
    if ns.target in PRESETS:
        document = run_preset_pair(ns.target, _flags(ns), ns.out_dir)
        _render_pair_table(document, sys.stderr)
    elif Path(ns.target).exists():
        document = run_experiment(_resolve(_flags(ns), _parse_spec_file(ns.target)), ns.out_dir)
    else:
        raise ValueError(
            f"{ns.target!r} is neither a preset ({sorted(PRESETS)}) nor a spec file"
        )
    _print_json(document)
    return 0


def _cmd_kernel(ns: argparse.Namespace) -> int:
    cfg = _config(_resolve(_flags(ns)))
    taps = kernel_taps(cfg).taps
    with _open_out(ns.out) as out:
        _write_csv(out, ["i", "abscissa", "tap"], ((i, i / cfg.m, t) for i, t in enumerate(taps)))
    return 0


def _cmd_surface(ns: argparse.Namespace) -> int:
    if ns.points < 1:
        raise ValueError(f"--points must be at least 1, got {ns.points}")
    kappa_grid = _surface_axis("kappa", ns.kappa_lo, ns.kappa_hi, ns.points)
    mu_grid = _surface_axis("mu", ns.mu_lo, ns.mu_hi, ns.points)
    # unset flags fall back to sweep_surface's own defaults (q = 1 there)
    design = {k: getattr(ns, k) for k in ("n", "q", "T", "eta") if getattr(ns, k) is not None}

    def sweep(kappa=kappa_grid, mu=mu_grid, **args) -> np.ndarray:
        return sweep_surface(ns.quantity, kappa, mu, **{**design, **args})

    try:
        grid = sweep()
    except (FloatingPointError, OverflowError) as exc:
        key = _variance_at_fault(lambda eta, T: sweep(eta=eta, T=T), design.get("T", 1.0))
        if key:
            at_fault = f"{key} = {design[key]!r}"
        else:
            # the axis whose bounds, set back to their defaults, bring the grid
            # back in range, or both when neither alone does; of each, the
            # bound of larger magnitude, hi on a tie
            bounds = {"kappa": (ns.kappa_lo, ns.kappa_hi), "mu": (ns.mu_lo, ns.mu_hi)}
            axes = [axis for axis in bounds if _in_float_range(
                sweep, eta=1.0, T=1.0, **{axis: _surface_axis(axis, *_AXIS_BOUNDS, ns.points)}
            )] or list(bounds)
            at_fault = ", ".join(
                f"--{axis}-lo {lo!r}" if abs(lo) > abs(hi) else f"--{axis}-hi {hi!r}"
                for axis, (lo, hi) in bounds.items() if axis in axes
            )
        raise ValueError(f"{ns.quantity} leaves the float range for {at_fault}: {exc}") from None
    # header row of mu, first column kappa
    with _open_out(ns.out) as out:
        header = ["", *(_fmt(mu) for mu in mu_grid)]
        _write_csv(out, header, ((kappa, *row) for kappa, row in zip(kappa_grid, grid)))
    return 0


def _cmd_mc(ns: argparse.Namespace) -> int:
    values = _resolve(_flags(ns))
    model = _noise(values)
    seed = RngSeed(values["seed"], values["stream"])
    _print_json(mc_report(_config(values), model, ns.t0, ns.trials, values["gamma"], seed))
    return 0


class _Parser(argparse.ArgumentParser):
    """Raises on a usage error, so `main` reports it as one JSON line, and reads
    -5e-1 or -inf as a number, not a flag; its subparsers share the class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)

    def error(self, message: str):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parse_args keeps no state between calls
    parser = _Parser(
        prog="algdiff",
        description="Sliding-window derivative estimation for noisy signals",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_est = sub.add_parser("estimate", help="estimate a derivative series from a CSV signal")
    p_est.add_argument("--in", dest="input", required=True, help="CSV with columns t,value")
    p_est.set_defaults(func=_cmd_estimate)

    p_exp = sub.add_parser("experiment", help="run a benchmark preset or a spec file")
    p_exp.add_argument("target", help=f"preset name ({', '.join(sorted(PRESETS))}) or spec-file path")
    _add_flags(p_exp, "seed", "stream", "gamma")
    p_exp.add_argument("--out-dir", help="directory for series CSVs")
    p_exp.set_defaults(func=_cmd_experiment)

    p_ker = sub.add_parser("kernel", help="dump discrete kernel taps as CSV")
    p_ker.set_defaults(func=_cmd_kernel)

    p_sur = sub.add_parser("surface", help="dump a design-quantity grid as CSV")
    p_sur.add_argument("quantity", choices=_QUANTITIES)
    p_sur.add_argument("--points", type=int, default=41)
    for axis in ("kappa", "mu"):
        for end, default in zip(("lo", "hi"), _AXIS_BOUNDS):
            p_sur.add_argument(f"--{axis}-{end}", type=float, default=default)
    _add_flags(p_sur, "n", "q", "T")
    p_sur.add_argument("--eta", type=float)
    p_sur.set_defaults(func=_cmd_surface)

    p_mc = sub.add_parser("mc", help="Monte-Carlo noise-error report as JSON")
    p_mc.add_argument("--model", dest="noise", choices=tuple(_NOISE_KINDS), default="wiener")
    _add_flags(p_mc, "sigma2", "nu")
    p_mc.add_argument("--t0", type=float, default=2.0)
    p_mc.add_argument("--trials", type=int, default=10_000)
    _add_flags(p_mc, "seed", "stream", "gamma")
    p_mc.set_defaults(func=_cmd_mc)

    for subparser in (p_est, p_ker, p_sur):
        subparser.add_argument("--out", help="output CSV path (default stdout)")
    # surface reads only n, q and T
    for subparser in (p_est, p_exp, p_ker, p_mc):
        _add_flags(subparser, *_CONFIG_KEYS)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
        status = ns.func(ns)
        sys.stdout.flush()  # a reader that closed stdout early is met here, not at exit
        return status
    except BrokenPipeError:
        # not an input error: exit 1 as Python does on EPIPE, with stdout on
        # os.devnull so the flush at exit writes nowhere (`signal` docs, "Note on SIGPIPE")
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (
        ValueError, IndexError, OSError, TypeError, ArithmeticError, MemoryError
    ) as exc:
        # a bare MemoryError has an empty message
        print(json.dumps({"error": str(exc) or type(exc).__name__}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
