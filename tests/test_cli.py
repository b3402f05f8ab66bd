"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from algdiff import analysis, cli
from algdiff.cli import SIN2T_TS, main
from algdiff.analysis import variance_continuous
from algdiff.estimator import estimate_series
from algdiff.kernel import EstimatorConfig, discretize, kernel_taps, minimal_kernel
from algdiff.specfun import _least_zero
from algdiff.stochastic import Wiener
from oracles import exact_discrete_moments


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_one_line_error(capsys, argv, fragment):
    """Exit 2, nothing on stdout, and one JSON line naming the problem on stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert fragment in json.loads(lines[0])["error"]


def run_json(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def strict_json(text):
    """The JSON document ``text``, refusing NaN and infinities."""
    def refuse(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=refuse)


def run_captured(argv):
    """Exit code, stdout and stderr of one in-process run, without a fixture."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


class TestKernelCommand:
    def test_three_tap_dump(self, tmp_path, capsys):
        out = tmp_path / "taps.csv"
        rc = main(
            ["kernel", "--n", "1", "--beta", "1", "--T", "1.0", "--m", "2", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["i", "abscissa", "tap"]
        assert len(rows) == 4
        taps = [float(r[2]) for r in rows[1:]]
        np.testing.assert_allclose(taps, [-1.5, 0.0, 1.5], rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose([float(r[1]) for r in rows[1:]], [0.0, 0.5, 1.0])

    def test_regularized_endpoint_matches_library(self, tmp_path):
        out = tmp_path / "taps.csv"
        args = ["kernel", "--n", "1", "--kappa", "-0.79", "--beta", "-1",
                "--T", "0.15", "--m", "30", "--F", "0.1", "--out", str(out)]
        assert main(args) == 0
        rows = read_csv(out)
        cfg = EstimatorConfig(n=1, kappa=-0.79, beta=-1, T=0.15, m=30, F=0.1)
        expect = discretize(minimal_kernel(cfg), cfg).taps
        got = np.array([float(r[2]) for r in rows[1:]])
        np.testing.assert_allclose(got, expect, rtol=1e-16)
        assert np.all(np.isfinite(got))
        assert got[0] != 0.0  # the singular endpoint is regularized, not dropped

    def test_stdout_fallback(self, capsys):
        rc = main(["kernel", "--n", "1", "--m", "4"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "i,abscissa,tap"
        assert len(lines) == 6


class TestSurfaceCommand:
    def run_surface(self, tmp_path, quantity, points=4):
        out = tmp_path / f"{quantity}.csv"
        rc = main(
            ["surface", quantity, "--points", str(points),
             "--kappa-lo", "-1", "--kappa-hi", "1", "--mu-lo", "-1", "--mu-hi", "1",
             "--out", str(out)]
        )
        assert rc == 0
        return read_csv(out)

    def test_delay_grid_layout_and_center(self, tmp_path):
        rows = self.run_surface(tmp_path, "delay")
        # half-open grids exclude the singular -1 edge: 4 points land on
        # -0.5, 0, 0.5, 1 along each axis
        assert rows[0][0] == ""
        mus = [float(v) for v in rows[0][1:]]
        kappas = [float(r[0]) for r in rows[1:]]
        np.testing.assert_allclose(mus, [-0.5, 0.0, 0.5, 1.0])
        np.testing.assert_allclose(kappas, [-0.5, 0.0, 0.5, 1.0])
        body = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
        assert body[1, 1] == pytest.approx(0.5, rel=1e-12)  # (kappa, mu) = (0, 0)
        assert np.all(np.diff(body, axis=0) > 0)
        assert np.all(np.diff(body, axis=1) < 0)

    def test_abscissa_grid_center(self, tmp_path):
        rows = self.run_surface(tmp_path, "xi")
        assert float(rows[2][2]) == pytest.approx(0.276, abs=5e-4)

    def test_variance_grid_center(self, tmp_path):
        rows = self.run_surface(tmp_path, "variance_minimal")
        assert float(rows[2][2]) == pytest.approx(1.2, rel=1e-9)

    def test_variance_affine_any_order(self, capsys):
        rc = main(["surface", "variance_affine", "--points", "2", "--n", "2", "--q", "1"])
        assert rc == 0
        rows = [line.split(",") for line in capsys.readouterr().out.splitlines()]
        mus = [float(v) for v in rows[0][1:]]
        for row in rows[1:]:
            kappa = float(row[0])
            for mu, cell in zip(mus, row[1:]):
                xi = float(_least_zero(2, mu + 2, kappa + 2))
                cfg = EstimatorConfig(n=2, q=1, mu=mu, kappa=kappa, xi=xi)
                assert float(cell) == variance_continuous(cfg, 1.0)

    def test_variance_affine_fine_grid_is_finite(self):
        # 41 x 41 cells at q = 3 reach within 0.05 of the singular kappa, mu = -1 edges
        rc, out, err = run_captured(["surface", "variance_affine", "--n", "2", "--q", "3",
                                     "--points", "41"])
        assert (rc, err) == (0, "")
        cells = np.array([line.split(",")[1:] for line in out.splitlines()[1:]], dtype=float)
        assert cells.shape == (41, 41)
        assert np.all(np.isfinite(cells)) and np.all(cells > 0)

    @pytest.mark.parametrize(
        "flags", [["--mu", "0.5"], ["--m", "7"], ["--beta", "1"], ["--xi", "0.3"]]
    )
    def test_refuses_flags_it_does_not_read(self, capsys, flags):
        # argparse names the flag it cannot place, in the one JSON error line
        assert_one_line_error(capsys, ["surface", "delay", "--points", "3", *flags], flags[0])


class TestEstimateCommand:
    def test_ramp_csv_roundtrip(self, tmp_path):
        src = tmp_path / "ramp.csv"
        with open(src, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "value"])
            for i in range(200):
                writer.writerow([f"{i * 0.01:.6f}", f"{i * 0.01:.6f}"])
        out = tmp_path / "est.csv"
        rc = main(
            ["estimate", "--in", str(src), "--n", "1", "--T", "0.2", "--m", "20",
             "--beta", "-1", "--out", str(out)]
        )
        assert rc == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "estimate"]
        assert len(rows) == 1 + (200 - 20)
        estimates = np.array([float(r[1]) for r in rows[1:]])
        np.testing.assert_allclose(estimates, 1.005, rtol=1e-6)

    def test_missing_input_fails_cleanly(self, tmp_path, capsys):
        rc = main(["estimate", "--in", str(tmp_path / "nope.csv"), "--n", "1"])
        assert rc == 2
        err = capsys.readouterr().err.strip().splitlines()[-1]
        assert "error" in json.loads(err)

    def test_nan_sample_exits_2(self, tmp_path, capsys):
        # one nan in a 60-row ramp used to print nan for every window over it
        src = tmp_path / "ramp.csv"
        rows = [f"{i * 0.01!r},{'nan' if i == 30 else repr(i * 0.01)}" for i in range(60)]
        src.write_text("t,value\n" + "\n".join(rows) + "\n")
        argv = ["estimate", "--in", str(src), "--n", "1", "--m", "10"]
        assert_one_line_error(capsys, argv, "sample 30 is nan")

    def test_empty_csv_exits_2_without_a_warning(self, tmp_path, capsys):
        # NumPy's empty-file warning used to precede "list index out of range"
        src = tmp_path / "empty.csv"
        src.write_text("")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_one_line_error(capsys, ["estimate", "--in", str(src), "--m", "2"], "is empty")

    def test_overflowing_samples_exit_2_without_a_warning(self, tmp_path, capsys):
        # 200 samples alternating +-1e308: every window sum overflows, and
        # the estimates used to be printed as nan with exit 0
        src = tmp_path / "huge.csv"
        rows = [f"{i / 100!r},{1e308 if i % 2 == 0 else -1e308!r}" for i in range(200)]
        src.write_text("t,value\n" + "\n".join(rows) + "\n")
        argv = ["estimate", "--in", str(src), "--m", "2"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert_one_line_error(capsys, argv, "samples up to |x| = 1e+308 overflow")

    def test_nan_time_exits_2(self, tmp_path, capsys):
        # a nan step used to pass the uniform-sampling check
        src = tmp_path / "nan_t.csv"
        src.write_text("t,value\n0,1\n0.1,2\nnan,3\n0.3,4\n0.4,5\n")
        argv = ["estimate", "--in", str(src), "--m", "2"]
        assert_one_line_error(capsys, argv, "uniformly sampled")


class TestExperimentCommand:
    def test_preset_pair_structure(self, tmp_path, capsys):
        rc = main(["experiment", "table1-a", "--seed", "3"])
        assert rc == 0
        captured = capsys.readouterr()
        pair = json.loads(captured.out)
        assert pair["preset"] == "table1-a"
        assert pair["seed"] == {"seed": 3, "stream": 0}
        assert len(pair["runs"]) == 2
        for run in pair["runs"]:
            for key in ("total_error", "snr_db", "delay_s", "band_low", "band_high",
                        "config", "seed"):
                assert key in run
            assert run["total_error"] >= 0
        integer_run, extended_run = pair["runs"]
        assert extended_run["total_error"] < integer_run["total_error"]
        assert pair["error_ratio"] == pytest.approx(
            integer_run["total_error"] / extended_run["total_error"], rel=1e-12
        )
        # the comparison table goes to stderr, data to stdout
        assert "total error" in captured.err or "total_error" in captured.err

    def test_preset_rerun_is_byte_identical(self, capsys):
        assert main(["experiment", "table2-a", "--seed", "5"]) == 0
        first = capsys.readouterr().out
        assert main(["experiment", "table2-a", "--seed", "5"]) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_preset_seed_changes_output(self, capsys):
        assert main(["experiment", "table1-a", "--seed", "3"]) == 0
        a = json.loads(capsys.readouterr().out)
        assert main(["experiment", "table1-a", "--seed", "4"]) == 0
        b = json.loads(capsys.readouterr().out)
        assert a["runs"][0]["total_error"] != b["runs"][0]["total_error"]

    def test_config_flags_override_both_preset_runs(self, capsys):
        # the flags used to be dropped for presets without a word
        pair = run_json(capsys, ["experiment", "table1-a", "--seed", "3", "--m", "50"])
        for run in pair["runs"]:
            assert (run["config"]["m"], run["config"]["T"]) == (50, 50 * cli.EXPSIN_TS)
        assert run["config"]["kappa"] == -0.79  # the spec values the flags leave alone

    def test_T_flag_replaces_the_preset_window(self, capsys):
        # each run used to keep its preset m, so T/m missed the sampling period
        argv = ["experiment", "table1-a", "--seed", "3", "--T", "0.3"]
        pair = run_json(capsys, argv)
        for run in pair["runs"]:
            assert (run["config"]["m"], run["config"]["T"]) == (60, 0.3)
        assert pair == run_json(capsys, [*argv, "--m", "60"])

    @pytest.mark.parametrize("flags", [{}, {"m": 50}, {"stream": 7}, {"beta": 1}, {"n": 2}],
                             ids=["preset", "m-50", "stream-7", "beta-1", "n-2"])
    @pytest.mark.parametrize("seed", [0, 3, 63])
    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    def test_pair_equals_two_independent_runs(self, tmp_path, name, seed, flags):
        # the pair draws its noisy signal once; each run's report and series
        # CSVs are those of a run_experiment call of its own
        flags = {"seed": seed, **flags}
        resolved = [cli._resolve(flags, dict(values, label=f"{name}_{label}"))
                    for label, values in cli.PRESETS[name].items()]
        pair = cli.run_preset_pair(name, flags, str(tmp_path))
        written = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
        assert len(written) == 6
        assert pair["runs"] == [cli.run_experiment(values, str(tmp_path)) for values in resolved]
        assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == written

    def test_pair_draws_and_calibrates_once(self, monkeypatch):
        calls = {"gen_path": 0, "calibrate_snr": 0}
        for name in calls:
            def counted(*args, _original=getattr(cli, name), _name=name):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(cli, name, counted)
        cli.run_preset_pair("table1-b", {"seed": 3})
        assert calls == {"gen_path": 1, "calibrate_snr": 1}

    def test_pair_writes_six_series_csvs(self, tmp_path, capsys):
        pair = run_json(capsys, ["experiment", "table1-b", "--seed", "3", "--out-dir", str(tmp_path)])
        paths = sorted(path for run in pair["runs"] for path in run["series_paths"].values())
        assert len(paths) == 6
        assert sorted(str(path) for path in tmp_path.iterdir()) == paths

    def test_pair_builds_one_config_per_run(self, monkeypatch):
        built = []
        post_init = EstimatorConfig.__post_init__

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(EstimatorConfig, "__post_init__", counted)
        assert run_captured(["experiment", "table1-a", "--seed", "3"])[0] == 0
        assert len(built) == 2

    @pytest.mark.parametrize("m", [0, -3, 2.5, math.nan])
    def test_bad_m_is_named_as_m(self, capsys, m):
        # the run's T is m * ts, and EstimatorConfig checks m before T
        message = f"m must be an integer >= n + q + 1 = 2, got {m!r}"
        values = cli._resolve({"m": m}, cli.PRESETS["table1-a"]["integer"])
        with pytest.raises(ValueError, match=re.escape(message)):
            cli.run_experiment(values)
        if isinstance(m, int):  # the command line reads m as an integer
            assert_one_line_error(capsys, ["experiment", "table1-a", "--m", str(m)], message)

    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    def test_preset_runs_share_the_noisy_signal(self, name):
        # every key that defines the noisy signal, so one draw serves both runs
        keys = ("signal", "ts", "count", "coeffs", "csv_path", "noise", "sigma2", "nu",
                "seed", "stream", "target_snr_db")
        integer, extended = (cli._resolve({}, values) for values in cli.PRESETS[name].values())
        assert {key: integer.get(key) for key in keys} == {key: extended.get(key) for key in keys}

    @pytest.mark.parametrize("name", sorted(cli.PRESETS))
    def test_named_signal_cache_leaks_nothing_between_runs(self, tmp_path, name):
        # a named signal is sampled once per process; the report of a run is
        # the same whether it runs first or after any other run
        argv = ["experiment", name, "--seed", "11"]
        cli._named_signal.cache_clear()
        first = run_captured(argv)
        assert first[0] == 0 and first[1].count("\n") == 1
        others = [["experiment", other, "--seed", "11"] for other in sorted(cli.PRESETS) if other != name]
        for before in (*others, [*argv, "--beta", "1"], [*argv, "--m", "50"],
                       [*argv, "--out-dir", str(tmp_path)]):
            assert run_captured(before)[0] == 0
            assert run_captured(argv) == first, before

    @pytest.mark.parametrize("signal", sorted(cli._NAMED_SIGNALS))
    def test_cached_samples_are_read_only(self, signal):
        clean, truth = cli._signal(dict(signal=signal))
        assert cli._signal(dict(signal=signal))[0] is clean
        with pytest.raises(ValueError, match="read-only"):
            clean.values[0] = 1.0
        # each derivative is a new array, so a caller that writes to one changes no other run
        assert truth(1) is not truth(1)

    @pytest.mark.parametrize("signal", sorted(cli._NAMED_SIGNALS))
    def test_named_signal_truth_is_its_closed_form_derivative(self, signal):
        clean, truth = cli._signal(dict(signal=signal))
        t = np.arange(len(clean.values)) * clean.ts
        if signal == "sin2t":
            # 2**k sin(2t + k pi/2)
            closed = [np.sin(2 * t), 2 * np.cos(2 * t), -4 * np.sin(2 * t)]
            s, sign, ts, count = complex(0.0, 2.0), 1.0, math.pi / 100.0, 446
        else:
            # exp(a t) sin(6t + pi), a = -1/1.2, differentiated by hand
            a, env, sin, cos = -1.0 / 1.2, np.exp(-t / 1.2), -np.sin(6 * t), -np.cos(6 * t)
            closed = [env * sin, env * (a * sin + 6 * cos), env * ((a * a - 36) * sin + 12 * a * cos)]
            s, sign, ts, count = complex(-1.0 / 1.2, 6.0), -1.0, 1.0 / 200.0, 1001
        for k, want in enumerate(closed):
            # within 4 ulps of the scale |s|**k of the k-th derivative
            assert np.max(np.abs(truth(k) - want)) <= 4 * np.finfo(float).eps * abs(s) ** k, k
        # bit for bit the expression the signal has always been sampled with
        e = np.exp(s * (np.arange(count) * ts))
        assert clean.ts == ts and np.array_equal(clean.values, sign * np.imag(e))
        for k in range(4):
            assert np.array_equal(truth(k), sign * np.imag(s**k * e)), k

    def test_unknown_preset(self, capsys):
        rc = main(["experiment", "table9-z"])
        assert rc == 2
        assert "error" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])

    def test_library_call_names_an_unknown_preset(self):
        # the command line sends a name that is not a preset to the spec route
        with pytest.raises(ValueError, match="unknown preset 'table9-z'; choose from"):
            cli.run_preset_pair("table9-z", {})

    def test_sine_spec_file_reports_reference_delay(self, tmp_path, capsys):
        spec = tmp_path / "sine.spec"
        spec.write_text(
            "signal = sin2t\n"
            "m = 25\n"
            "# noiseless minimal estimator with the flat weight\n"
            "noise = none\n"
        )
        rc = main(["experiment", str(spec)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["delay_s"] == pytest.approx(0.3927, abs=5e-5)
        assert report["snr_db"] is None
        assert report["total_error"] > 0

    def test_linear_polynomial_spec_file_is_exact(self, tmp_path, capsys):
        spec = tmp_path / "lin.spec"
        spec.write_text(
            "signal = polynomial\n"
            "coeffs = 1, 2\n"
            "ts = 0.001\n"
            "count = 4001\n"
            "m = 2000\n"
            "window_lo = 2.5\n"
            "window_hi = 3.5\n"
        )
        rc = main(["experiment", str(spec)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["total_error"] <= 1e-10

    def test_csv_spec_takes_sampling_period_from_file(self, tmp_path, capsys):
        # with no ts line, T used to follow from a default ts = 0.01, so a
        # file sampled every 0.005 s exited 2 with a period mismatch
        src = tmp_path / "ramp.csv"
        src.write_text("t,value\n" + "".join(f"{i * 0.005!r},{i * 0.01!r}\n" for i in range(100)))
        spec = tmp_path / "csv.spec"
        spec.write_text(f"signal = csv\ncsv_path = {src}\nm = 20\n")
        report = run_json(capsys, ["experiment", str(spec)])
        assert (report["config"]["m"], report["config"]["T"]) == (20, 20 * 0.005)
        assert report["total_error"] is None  # a csv signal has no known derivative

    def test_series_csvs_written(self, tmp_path, capsys):
        spec = tmp_path / "sine.spec"
        spec.write_text("signal = sin2t\nm = 25\nnoise = white\ntarget_snr_db = 20\nlabel = demo\n")
        rc = main(["experiment", str(spec), "--out-dir", str(tmp_path)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["series_paths"] == {
            kind: str(tmp_path / f"demo_{kind}.csv")
            for kind in ("estimate_noisy", "estimate_noiseless", "truth")
        }
        for path in report["series_paths"].values():
            rows = read_csv(path)
            assert len(rows) > 100
            assert rows[0] == ["t", "estimate"]
            assert len(rows[1]) == 2

    @pytest.mark.parametrize("beta,n", [(-1, 1), (1, 2)])
    def test_polynomial_truth_csv_is_the_polynomial_at_its_times(self, tmp_path, capsys, beta, n):
        # the truth is evaluated on the sample grid and sliced to the series:
        # sample j + m (beta = -1) or j (beta = +1) for estimate j
        coeffs = (1.0, 2.0, 3.0, 0.5)
        spec = tmp_path / "poly.spec"
        spec.write_text(f"signal = polynomial\ncoeffs = {', '.join(map(str, coeffs))}\n"
                        f"ts = 0.01\ncount = 401\nm = 40\nbeta = {beta}\nn = {n}\nlabel = poly\n")
        report = run_json(capsys, ["experiment", str(spec), "--out-dir", str(tmp_path)])
        rows = np.array(read_csv(report["series_paths"]["truth"])[1:], dtype=float)
        times = np.array(read_csv(report["series_paths"]["estimate_noisy"])[1:], dtype=float)[:, 0]
        assert len(rows) == 401 - 40
        assert np.array_equal(rows[:, 0], times)
        assert times[0] == (0.4 if beta == -1 else 0.0)
        poly = np.polynomial.polynomial
        want = poly.polyval(rows[:, 0], poly.polyder(coeffs, n))
        assert np.all(np.abs(rows[:, 1] - want) <= 4 * np.spacing(np.abs(want)))


def _mask_window(times, window_lo, window_hi):
    """The metrics window as a boolean mask over the estimate times: the rule
    that `_score`'s slice of the sorted times must follow."""
    lo, hi = max(window_lo, times[0]), min(window_hi, times[-1])
    return (times >= lo - 1e-12) & (times <= hi + 1e-12)


class TestMetricsWindow:
    """The window is a slice of the sorted times; a boolean mask is the oracle."""

    # name -> the window's (lo, hi) from the estimate times t
    ENDS = {
        "on-samples": lambda t: (t[10], t[-10]),
        "beyond-the-series": lambda t: (-1.0, t[-1] + 5.0),
        "unbounded": lambda t: (-math.inf, math.inf),
        "first-and-last": lambda t: (t[0], t[-1]),
        "between-samples": lambda t: ((t[3] + t[4]) / 2, (t[20] + t[21]) / 2),
        "one-sample": lambda t: (t[7], t[7]),
        "reversed": lambda t: (t[20], t[10]),
        "past-the-end": lambda t: (t[-1] + 1.0, t[-1] + 2.0),
    }

    def check(self, beta, ends):
        """Score noisy sin2t at m = 25 on the window ``ends(times)`` of its estimate times."""
        values = cli._resolve({"beta": beta}, {"signal": "sin2t", "m": 25, "noise": "white",
                                               "target_snr_db": 20.0})
        cfg, drawn = cli._draw(values)
        clean, truth = drawn.clean, drawn.truth
        series = estimate_series(clean, cfg)
        noisy = estimate_series(drawn.noisy, cfg)
        times = series.times
        lo, hi = ends(times)
        values.update(window_lo=lo, window_hi=hi)
        mask = _mask_window(times, lo, hi)
        if not mask.any():
            with pytest.raises(ValueError, match=r"\] contains no estimates"):
                cli.run_experiment(values)
            return
        report = cli.run_experiment(values)
        assert report["window"] == (times[mask][0], times[mask][-1])
        start = 25 if beta == -1 else 0
        err = noisy.estimates[mask] - truth(1)[start : start + len(times)][mask]
        assert report["total_error"] == float(clean.ts * np.sum(err**2))
        signal_part = noisy.estimates[mask]
        noise_part = signal_part - series.estimates[mask]
        ratio = float(signal_part @ signal_part) / float(noise_part @ noise_part)
        assert report["snr_db"] == float(10.0 * math.log10(ratio))

    @pytest.mark.parametrize("hi_shift", [-2e-12, -1e-12, 0.0, 1e-12, 2e-12])
    @pytest.mark.parametrize("lo_shift", [-2e-12, -1e-12, 0.0, 1e-12, 2e-12])
    @pytest.mark.parametrize("beta", [-1, 1])
    def test_ends_at_and_near_a_sample_time(self, beta, lo_shift, hi_shift):
        self.check(beta, lambda t: (t[10] + lo_shift, t[-10] + hi_shift))

    @pytest.mark.parametrize("ends", sorted(ENDS))
    @pytest.mark.parametrize("beta", [-1, 1])
    def test_window_ends(self, beta, ends):
        self.check(beta, self.ENDS[ends])


@pytest.mark.parametrize("argv", [
    ["experiment", "table2-b", "--seed", "3", "--beta", "1"],
    ["experiment", "table1-a", "--seed", "3"],
    ["mc", "--trials", "100", "--m", "40"],
    # a window of 100 001 draws per trial, and an anchor half a step off the sample grid
    ["mc", "--trials", "100", "--m", "100000", "--T", "1.0", "--t0", "2.0"],
    ["mc", "--trials", "100", "--m", "40", "--t0", "2.0125"],
], ids=["experiment-table2-b", "experiment-table1-a", "mc", "mc-wide-window", "mc-t0-off-grid"])
def test_json_report_is_one_line_of_strict_json(capsys, argv):
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.endswith("\n") and out.count("\n") == 1
    assert isinstance(strict_json(out), dict)
    assert run_captured(argv)[1] == out  # a rerun prints the same bytes


class TestMcCommand:
    def test_brownian_report(self, capsys):
        rc = main(
            ["mc", "--model", "wiener", "--sigma2", "1.0", "--t0", "2.0",
             "--trials", "2000", "--seed", "11", "--gamma", "2.0",
             "--n", "1", "--T", "1.0", "--m", "400", "--beta", "-1"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["trials"] == 2000
        assert report["emp_var"] == pytest.approx(1.2, rel=0.05)
        for band_name in ("continuous", "discrete"):
            band = report["bands"][band_name]
            assert band["fraction_inside"] >= 0.75
            assert band["band_low"] < 0 < band["band_high"]
        assert report["bands"]["continuous"]["variance"] == pytest.approx(1.2, rel=1e-9)

    def test_wide_band_coverage(self, capsys):
        rc = main(
            ["mc", "--model", "wiener", "--trials", "1000", "--seed", "19",
             "--gamma", "10.0", "--n", "1", "--T", "1.0", "--m", "200"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bands"]["discrete"]["fraction_inside"] >= 0.99

    def test_white_noise_has_no_continuous_band(self, capsys):
        rc = main(
            ["mc", "--model", "white", "--sigma2", "0.5", "--trials", "500",
             "--seed", "7", "--n", "1", "--T", "1.0", "--m", "100"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bands"]["continuous"] is None
        assert report["bands"]["discrete"]["fraction_inside"] >= 0.75

    @pytest.mark.parametrize(
        "model,flag,eta", [("wiener", "--sigma2", 0.5), ("poisson", "--nu", 2.0)]
    )
    def test_second_order_two_terms_has_continuous_band(self, capsys, model, flag, eta):
        report = run_json(
            capsys,
            ["mc", "--model", model, flag, str(eta), "--trials", "400", "--seed", "5",
             "--n", "2", "--q", "1", "--xi", "0.3", "--T", "1.0", "--m", "200"],
        )
        band = report["bands"]["continuous"]
        assert band["mean"] == 0.0  # the counting-process mean vanishes for n >= 2
        # 2168/35 per unit intensity at T = 1, up to the binary value of 0.3
        assert band["variance"] == pytest.approx(eta * 2168 / 35, rel=1e-13)
        assert band["band_low"] < 0 < band["band_high"]

    def test_counting_report_mean(self, capsys):
        rc = main(
            ["mc", "--model", "poisson", "--nu", "1.5", "--trials", "2000",
             "--seed", "13", "--n", "1", "--T", "1.0", "--m", "400"]
        )
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bands"]["continuous"]["mean"] == pytest.approx(1.5, rel=1e-12)
        assert report["emp_mean"] == pytest.approx(1.5, abs=4 * math.sqrt(report["emp_var"] / 2000))

    def test_rerun_is_byte_identical(self, capsys):
        args = ["mc", "--model", "wiener", "--trials", "500", "--seed", "3",
                "--n", "1", "--T", "1.0", "--m", "100"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert first == capsys.readouterr().out

    @pytest.mark.parametrize("trials,m", [(100, 40), (300, 400)], ids=["one-block", "blocks"])
    def test_rerun_across_the_stream_wrap_is_byte_identical(self, trials, m):
        # trial k draws on stream + k mod 2**64: from 2**64 - 56 the keys wrap,
        # and 300 trials at m = 400 fill several blocks of draws
        argv = ["mc", "--trials", str(trials), "--m", str(m), "--stream", str(2**64 - 56),
                "--seed", "5"]
        first = run_captured(argv)
        assert first[0] == 0 and first[2] == ""
        assert json.loads(first[1])["trials"] == trials
        assert run_captured(argv) == first

    def test_calls_share_one_parser_and_no_state(self):
        assert cli._build_parser() is cli._build_parser()
        args = ["mc", "--seed", "3", "--trials", "200", "--n", "1", "--T", "1.0", "--m", "100"]
        first = run_captured(args)
        assert run_captured(["kernel", "--m", "50"])[0] == 0
        assert run_captured(args) == first
        # --m 50 does not carry over: the kernel is back to the default 400 taps
        rc, out, _ = run_captured(["kernel"])
        assert rc == 0 and len(out.splitlines()) == 1 + 401

    @pytest.mark.parametrize("t0", ["1e6", "1e12"])
    def test_t0_past_the_old_path_cap_is_accepted(self, capsys, t0):
        # a trial drew the path from t = 0 and refused more than 2**24 samples;
        # it now draws its window alone, and the empirical variance is the
        # discrete one's within 6 standard errors
        report = run_json(capsys, ["mc", "--trials", "2000", "--m", "40", "--t0", t0])
        discrete = report["bands"]["discrete"]["variance"]
        assert abs(report["emp_var"] - discrete) <= 6.0 * report["stderr_var"]

    @pytest.mark.parametrize("t0", ["1e15", "1e300"])
    def test_t0_past_the_old_sample_cap_is_accepted(self, capsys, t0):
        # mc refused a window more than 2**46 steps from t = 0, where the tap
        # times rounded at ulp(t0); its discrete variance is now the exact one
        # within 1e-13 relative
        report = run_json(capsys, ["mc", "--trials", "100", "--m", "40", "--t0", t0])
        k = kernel_taps(EstimatorConfig(**report["config"]))
        exact = float(exact_discrete_moments(k, Wiener(1.0), float(t0))[1])
        assert abs(report["bands"]["discrete"]["variance"] - exact) <= 1e-13 * exact

    def test_too_few_trials(self, capsys):
        rc = main(["mc", "--trials", "50", "--n", "1", "--T", "1.0", "--m", "100"])
        assert rc == 2
        assert "error" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])


# name -> text of the input files that `test_rejected_input` names as {tmp}/name
INPUT_FILES = {
    "columns.csv": "time,value\n0,1\n0.1,2\n",
    "one-sample.csv": "t,value\n0,1\n",
    "empty-window.spec": "signal = sin2t\nm = 4\nwindow_lo = 100\n",
    "nan-window-lo.spec": "signal = sin2t\nm = 4\nwindow_lo = nan\n",
    "nan-window-hi.spec": "signal = sin2t\nm = 4\nwindow_hi = nan\n",
    "bad-line.spec": "signal = sin2t\nm 4\n",
    "unknown-key.spec": "signal = sin2t\ntaps = 4\n",
    "noise-kind.spec": "signal = sin2t\nm = 4\nnoise = pink\n",
    "signal-kind.spec": "signal = square\nm = 4\n",
    "csv-no-path.spec": "signal = csv\nm = 4\n",
    "polynomial-no-coeffs.spec": "signal = polynomial\nm = 4\n",
    "m-zero.spec": "signal = sin2t\nm = 0\n",
    "poisson-sigma2.spec": "signal = sin2t\nm = 4\nnoise = poisson\nsigma2 = 5\n",
    "two-samples.csv": "t,value\n0,1\n0.1,2\n",
    "ramp.csv": "t,value\n" + "".join(f"{i * 0.01!r},{i * i * 1e-4!r}\n" for i in range(60)),
}


class TestErrorHandling:
    def test_bad_config_value(self, capsys):
        rc = main(["kernel", "--n", "0", "--m", "10"])
        assert rc == 2
        msg = json.loads(capsys.readouterr().err.strip().splitlines()[-1])["error"]
        assert "n" in msg

    @pytest.mark.parametrize(
        "argv,fragment",
        [
            (["surface", "xi", "--points", "0"], "points"),
            (["kernel", "--mu", "inf"], "mu"),
            (["kernel", "--T", "inf"], "T"),
            (["kernel", "--xi", "nan"], "xi"),
            (["mc", "--sigma2", "nan", "--trials", "100", "--m", "50"], "sigma2"),
            (["mc", "--model", "poisson", "--nu", "inf", "--trials", "100", "--m", "50"], "nu"),
            (["mc", "--gamma", "inf", "--trials", "100", "--m", "50"],
             "gamma must be finite and positive, got inf"),
            (["experiment", "table1-a", "--gamma", "inf"],
             "gamma must be finite and positive, got inf"),
            (["mc", "--trials", "100", "--m", "40", "--gamma", "1e308", "--sigma2", "100"],
             "gamma = 1e+308 and variance ="),
            (["mc", "--trials", "100", "--m", "40", "--t0", "nan"], "t0"),
            (["mc", "--trials", "100", "--m", "40", "--t0", "inf"], "t0"),
            (["surface", "xi", "--points", "2", "--T", "-1"], "T"),
            (["surface", "xi", "--points", "2", "--eta", "-1"],
             "eta must be finite and nonnegative, got -1.0"),
            (["surface", "delay", "--points", "2", "--kappa-lo", "nan"],
             "--kappa-lo must be finite, got nan"),
            (["surface", "delay", "--points", "2", "--mu-hi=-inf"],
             "--mu-hi must be finite, got -inf"),
            (["surface", "delay", "--points", "2", "--kappa-lo", "1", "--kappa-hi", "-3"],
             "--kappa-lo 1.0 and --kappa-hi -3.0 give kappa = -1.0"),
            (["surface", "variance_affine", "--points", "2", "--n", "2", "--q", "2",
              "--kappa-hi", "1e60", "--mu-hi", "1e60"],
             "variance_affine leaves the float range for --kappa-hi 1e+60, --mu-hi 1e+60"),
            (["kernel", "--m", "4", "--mu", "800", "--kappa", "800"],
             "mu = 800.0 and kappa = 800.0 give taps that are not finite"),
            (["mc", "--trials", "100", "--m", "40", "--mu", "1e60", "--kappa", "1e60"],
             "mu = 1e+60 and kappa = 1e+60 give taps that are not finite"),
            (["kernel", "--m", "4", "--mu", "1e300", "--kappa", "1"],
             "mu = 1e+300 and kappa = 1.0 give taps that are all zero"),
            (["kernel", "--m", "4", "--n", "2", "--q", "1", "--xi", "0.5", "--mu", "1e20",
              "--kappa", "3"],
             "mu = 1e+20 and kappa = 3.0 give taps that are all zero"),
            (["kernel", "--m", "4", "--n", "3", "--mu", "1e200", "--kappa", "1e200"],
             "mu = 1e+200 and kappa = 1e+200 give kernel coefficients beyond the float range"),
            (["kernel", "--m", "4", "--n", "3", "--T", "1e-300"],
             "T = 1e-300 gives kernel coefficients beyond the float range at n = 3"),
            # usage errors, from a subcommand's parser and from the top one
            (["kernel", "--m", "abc"], "argument --m: invalid int value: 'abc'"),
            (["fit"], "argument command: invalid choice: 'fit'"),
            ([], "the following arguments are required: command"),
            # the exponents are at fault, not T: the kernel at T = 1 is out of range too
            (["kernel", "--m", "4", "--mu", "800", "--kappa", "800", "--T", "2"],
             "mu = 800.0 and kappa = 800.0 give taps that are not finite"),
            # the f-rule end tap (F/m)**kappa takes sum(taps**2) past the float range
            (["kernel", "--m", "40", "--kappa", "-0.7", "--F", "1e-300"],
             "F = 1e-300 and kappa = -0.7 give an end tap of 1.48e+209"),
            (["experiment", "table2-b", "--F", "1e-300"], "F = 1e-300 and kappa = -0.7"),
            (["experiment", "table1-a", "--F", "1e-300"], "F = 1e-300 and kappa = -0.79"),
            (["mc", "--trials", "100", "--m", "40", "--kappa", "-0.7", "--F", "1e-300"],
             "F = 1e-300 and kappa = -0.7"),
            # bad input files, written by the test from INPUT_FILES
            (["estimate", "--in", "{tmp}/columns.csv", "--m", "2"], "must have columns t,value"),
            (["estimate", "--in", "{tmp}/one-sample.csv", "--m", "2"],
             "CSV signal needs at least 2 samples"),
            (["experiment", "{tmp}/empty-window.spec"], "] contains no estimates"),
            # nan fails every comparison, so it would sort past every time
            (["experiment", "{tmp}/nan-window-lo.spec"], "window_lo must be a number, got nan"),
            (["experiment", "{tmp}/nan-window-hi.spec"], "window_hi must be a number, got nan"),
            (["experiment", "{tmp}/bad-line.spec"],
             "bad spec line (expected key = value): 'm 4'"),
            (["experiment", "{tmp}/unknown-key.spec"], "unknown spec key 'taps'"),
            (["experiment", "{tmp}/noise-kind.spec"], "unknown noise kind 'pink'"),
            (["experiment", "{tmp}/signal-kind.spec"], "unknown signal kind 'square'"),
            (["experiment", "{tmp}/csv-no-path.spec"], "csv signal requires a path"),
            (["experiment", "{tmp}/polynomial-no-coeffs.spec"],
             "polynomial signal requires coefficients"),
            # an output path that cannot be written, unlike a closed stdout, is an input error
            (["kernel", "--m", "4", "--out", "{tmp}"], "Is a directory: '"),
            # a noise model reads one intensity key and refuses the other
            (["experiment", "{tmp}/poisson-sigma2.spec"],
             "sigma2 does not apply to noise 'poisson', which reads nu"),
            (["mc", "--model", "poisson", "--sigma2", "5"],
             "sigma2 does not apply to noise 'poisson', which reads nu"),
            (["mc", "--model", "white", "--nu", "3"],
             "nu does not apply to noise 'white', which reads sigma2"),
            (["mc", "--nu", "3"], "nu does not apply to noise 'wiener', which reads sigma2"),
            # T = m * ts is derived from a bad m, so the error names m; a bad T is named as T
            (["experiment", "table1-a", "--m", "0"], "m must be an integer >= n + q + 1 = 2, got 0"),
            (["experiment", "table1-a", "--m", "-5"], "m must be an integer >= n + q + 1 = 2, got -5"),
            # a preset pair checks each input where two runs made one by one check
            # it: the config before the seed, and the extended config (here with
            # m = 32 < n + q + 1) after the integer run is drawn and scored
            (["experiment", "table1-a", "--seed", "-1", "--m", "0"],
             "m must be an integer >= n + q + 1 = 2, got 0"),
            (["experiment", "table1-a", "--stream", "18446744073709551616", "--m", "0"],
             "m must be an integer >= n + q + 1 = 2, got 0"),
            (["experiment", "table2-b", "--n", "31", "--seed", "-1"],
             "seed must fit in an unsigned 64-bit integer"),
            (["experiment", "table2-b", "--n", "31", "--gamma", "-1"],
             "gamma must be finite and positive, got -1.0"),
            (["experiment", "table2-b", "--n", "31"], "m must be an integer >= n + q + 1 = 33, got 32"),
            (["estimate", "--in", "{tmp}/two-samples.csv", "--m", "0"], "m must be an integer"),
            (["experiment", "{tmp}/m-zero.spec"], "m must be an integer >= n + q + 1 = 2, got 0"),
            (["experiment", "table1-a", "--T", "0"], "T must be positive, got 0.0"),
            (["estimate", "--in", "{tmp}/two-samples.csv", "--T", "0"], "T must be positive"),
            # a negative value that argparse's own pattern misses is a value, not a flag
            (["kernel", "--m", "4", "--F", "-inf"], "F must be finite, got -inf"),
            (["mc", "--trials", "100", "--m", "40", "--t0", "-inf"], "t0 must be finite"),
            (["surface", "delay", "--points", "2", "--kappa-lo", "-inf"],
             "--kappa-lo must be finite, got -inf"),
            # the noise-error variance leaves the float range: the intensity is at fault
            (["mc", "--trials", "100", "--m", "40", "--sigma2", "1e300", "--n", "3", "--T", "0.01"],
             "sigma2 = 1e+300 gives a noise-error variance beyond the float range"),
            (["mc", "--trials", "100", "--m", "40", "--sigma2", "1e300", "--n", "3", "--T", "0.01",
              "--model", "white"],
             "sigma2 = 1e+300 gives a noise-error variance beyond the float range"),
            (["mc", "--model", "poisson", "--nu", "1e300", "--trials", "100", "--m", "40"],
             "nu = 1e+300 at step 0.025 passes NumPy's Poisson limit"),
            # the discrete variance is in range, but not the trials' or the continuous one
            (["mc", "--trials", "100", "--m", "40", "--seed", "2", "--sigma2", "1.4e308"],
             "sigma2 = 1.4e+308 gives a noise-error variance beyond the float range"),
            (["mc", "--trials", "100", "--m", "4", "--mu", "1", "--kappa", "0.5", "--F", "0.1",
              "--sigma2", "1.3e308"],
             "sigma2 = 1.3e+308 gives a noise-error variance beyond the float range"),
            # the variance grows with t0 by sigma2 * t_s * sum(taps)**2: t0 is named too
            (["mc", "--trials", "100", "--m", "40", "--kappa", "-0.7", "--sigma2", "1e300",
              "--t0", "1e10"],
             "sigma2 = 1e+300 at t0 = 10000000000.0 (in range at t0 = 1.0) gives a noise-error "
             "variance beyond the float range"),
            # the count before the window, Poisson(nu * t_s), passes NumPy's limit
            (["mc", "--model", "poisson", "--nu", "1e9", "--trials", "100", "--m", "40",
              "--t0", "1e10"],
             "nu = 1000000000.0 at t0 = 10000000000.0, whose window starts at t = 9999999999.0"),
            # inputs that once gave a message naming none of them
            (["kernel", "--mu", "1e308"], "mu = 1e+308 and kappa = 0.0 give a Beta divisor"),
            (["kernel", "--kappa", "1e308"], "mu = 0.0 and kappa = 1e+308 give a Beta divisor"),
            (["estimate", "--in", "{tmp}/two-samples.csv", "--T", "nan"], "T must be finite, got nan"),
            (["estimate", "--in", "{tmp}/ramp.csv", "--T", "inf"], "T must be finite, got inf"),
            (["estimate", "--in", "{tmp}/two-samples.csv", "--T", "-inf"], "T must be finite, got -inf"),
            (["estimate", "--in", "{tmp}/two-samples.csv", "--T", "1e308"],
             "T = 1e+308 over the sampling period 0.1 gives a tap count beyond the float range"),
            (["mc", "--trials", "100", "--mu", "1e300"],
             "mu = 1e+300 and kappa = 0.0 are out of the float range for the continuous"),
            (["mc", "--trials", "100", "--m", "40", "--T", "1e300", "--xi", "1e300", "--t0", "1e300"],
             "T = 1e+300 is out of the float range for the continuous noise-error variance at n = 1"),
            # a window that does not fit the signal names T, or m, with no long number
            (["estimate", "--in", "{tmp}/ramp.csv", "--T", "1e300"],
             "T = 1e+300 over the sampling period 0.01 gives 1e+302 taps; "
             "a signal of 60 samples allows 2 to 59 taps"),
            (["estimate", "--in", "{tmp}/ramp.csv", "--m", "100"],
             "m = 100 needs a window of 101 samples; the signal has 60"),
            (["estimate", "--in", "{tmp}/ramp.csv", "--T", "1e-300"],
             "T = 1e-300 over the sampling period 0.01 gives 1e-298 taps"),
            # the default t0 puts a window of huge T before t = 0: t0 and T are named
            (["mc", "--trials", "100", "--m", "5", "--T", "1e300"],
             "t0 = 2.0 puts the window before t = 0, where the noise process starts; "
             "need t0 >= T = 1e+300"),
            # a surface overflow names eta when the same grid at eta = 1 stays in
            # range, T when it does at T = 1 as well, else the bound of larger
            # magnitude of the axis whose default bounds bring the grid back in
            # range, or of both axes when neither alone does
            (["surface", "variance_minimal", "--points", "3", "--mu-lo", "1e308"],
             "variance_minimal leaves the float range for --mu-lo 1e+308:"),
            (["surface", "xi", "--points", "2", "--mu-hi", "1e308", "--eta", "1e308",
              "--T", "1e300"],
             "xi leaves the float range for --mu-hi 1e+308:"),
            # the one-point Gauss rule of n = 1 has no off-diagonal entry, yet overflows
            (["surface", "variance_minimal", "--points", "2", "--n", "1", "--mu-hi", "1e300"],
             "variance_minimal leaves the float range for --mu-hi 1e+300:"),
            (["surface", "variance_minimal", "--points", "2", "--kappa-hi", "1e300",
              "--mu-hi", "1e300"],
             "variance_minimal leaves the float range for --kappa-hi 1e+300, --mu-hi 1e+300:"),
            (["surface", "variance_minimal", "--points", "2", "--T", "1e-300", "--n", "2"],
             "variance_minimal leaves the float range for T = 1e-300"),
            (["surface", "variance_minimal", "--points", "2", "--T", "1e300"],
             "variance_minimal leaves the float range for T = 1e+300"),
            (["surface", "variance_affine", "--points", "2", "--eta", "1e308"],
             "variance_affine leaves the float range for eta = 1e+308"),
            # eta * T overflowed silently: exit 0 and inf in every cell
            (["surface", "variance_minimal", "--points", "2", "--eta", "1e308", "--T", "2"],
             "variance_minimal leaves the float range for eta = 1e+308"),
            # neither eta = 1 nor T = 1 alone brings the grid back in range, both
            # together do: T is named, not the default exponent bounds
            (["surface", "variance_minimal", "--eta", "1e308", "--T", "1e-300", "--n", "2",
              "--points", "2"],
             "variance_minimal leaves the float range for T = 1e-300"),
        ],
        ids=["points-0", "mu-inf", "T-inf", "xi-nan", "sigma2-nan", "nu-inf", "gamma-inf",
             "experiment-gamma-inf", "mc-band-overflows",
             "t0-nan", "t0-inf", "surface-T-negative",
             "surface-eta-negative", "surface-kappa-lo-nan", "surface-mu-hi-inf",
             "surface-kappa-grid-reaches-minus-one", "surface-variance-overflow",
             "kernel-taps-not-finite", "mc-taps-not-finite", "kernel-taps-all-zero",
             "affine-kernel-taps-all-zero", "coefficients-overflow-exponents",
             "coefficients-overflow-T", "usage-not-an-int", "usage-unknown-command",
             "usage-no-command", "kernel-taps-not-finite-T-not-at-fault",
             "kernel-f-rule-gain", "experiment-f-rule-gain", "experiment-f-rule-gain-table1",
             "mc-f-rule-gain", "csv-columns", "csv-one-sample", "empty-metrics-window",
             "metrics-window-lo-nan", "metrics-window-hi-nan",
             "spec-bad-line", "spec-unknown-key", "spec-noise-kind",
             "spec-signal-kind", "spec-csv-without-path", "spec-polynomial-without-coeffs",
             "kernel-out-is-a-directory",
             "spec-poisson-sigma2", "mc-poisson-sigma2", "mc-white-nu", "mc-wiener-nu",
             "experiment-m-zero", "experiment-m-negative", "experiment-m-before-seed",
             "experiment-m-before-stream", "experiment-seed-before-extended-m",
             "experiment-gamma-before-extended-m", "experiment-extended-m",
             "estimate-m-zero", "spec-m-zero",
             "experiment-T-zero", "estimate-T-zero", "kernel-F-minus-inf", "mc-t0-minus-inf",
             "surface-kappa-lo-minus-inf", "mc-wiener-variance-overflow",
             "mc-white-variance-overflow", "mc-poisson-rate-too-large",
             "mc-empirical-variance-overflow", "mc-continuous-variance-overflow",
             "mc-variance-overflow-names-t0", "mc-poisson-anchor-names-t0",
             "kernel-mu-beta-divisor", "kernel-kappa-beta-divisor", "estimate-T-nan",
             "estimate-T-inf", "estimate-T-minus-inf", "estimate-T-tap-count-overflow",
             "mc-continuous-variance-names-mu", "mc-continuous-variance-names-T",
             "estimate-T-beyond-the-signal", "estimate-m-beyond-the-signal",
             "estimate-T-below-one-tap", "mc-off-grid-names-T-and-m",
             "surface-overflow-names-the-larger-bound", "surface-overflow-names-one-axis",
             "surface-size-one-gauss-rule-overflow", "surface-overflow-names-both-axes",
             "surface-overflow-names-small-T",
             "surface-overflow-names-large-T", "surface-overflow-names-eta",
             "surface-eta-times-T-overflows", "surface-eta-and-T-overflow-names-T"],
    )
    def test_rejected_input(self, capsys, tmp_path, argv, fragment):
        for arg in argv:
            name = arg.removeprefix("{tmp}/")
            if name != arg:
                (tmp_path / name).write_text(INPUT_FILES[name])
        argv = [arg.replace("{tmp}", str(tmp_path)) for arg in argv]
        assert_one_line_error(capsys, argv, fragment)

    @pytest.mark.parametrize("quantity", ["variance_minimal", "variance_affine"])
    def test_surface_refuses_infinite_eta(self, capsys, quantity):
        # an infinite intensity made every cell inf, with exit 0
        argv = ["surface", quantity, "--eta", "inf", "--points", "2"]
        assert_one_line_error(capsys, argv, "eta must be finite and nonnegative, got inf")

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["kernel", "--help"])
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("usage: algdiff kernel") and captured.err == ""

    def test_extreme_exponents_keep_the_delay(self):
        # every delay cell on this grid is finite and the far corner is T/2
        rc, out, err = run_captured(
            ["surface", "delay", "--points", "2", "--kappa-hi", "1e308", "--mu-hi", "1e308"]
        )
        assert (rc, err) == (0, "")
        rows = [[float(c) for c in line.split(",")[1:]] for line in out.splitlines()[1:]]
        assert rows == [[0.5, pytest.approx(1 / 3)], [pytest.approx(2 / 3), 0.5]]

    @pytest.mark.parametrize(
        "spaced,joined",
        [(["kernel", "--m", "4", "--kappa", "-5e-1"], ["kernel", "--m", "4", "--kappa=-0.5"]),
         (["surface", "delay", "--points", "2", "--kappa-lo", "-5e-1"],
          ["surface", "delay", "--points", "2", "--kappa-lo=-0.5"])],
        ids=["kernel-kappa", "surface-kappa-lo"],
    )
    def test_negative_exponent_value_reads_as_a_number(self, spaced, joined):
        # argparse alone took -5e-1 for a flag: "expected one argument"
        rc, out, err = run_captured(spaced)
        assert (rc, err) == (0, "")
        assert (rc, out, err) == run_captured(joined)

    def test_variance_near_the_float_limit_is_reported(self):
        # a discrete variance of 5e307: the squares of the samples' deviations
        # overflowed in the empirical variance, with a RuntimeWarning
        rc, out, err = run_captured(
            ["mc", "--trials", "100", "--m", "40", "--sigma2", "4.16015991654719e+307"]
        )
        assert (rc, err) == (0, "")
        report = json.loads(out)
        assert report["bands"]["discrete"]["variance"] == pytest.approx(5e307, rel=1e-12)
        assert 0.0 < report["stderr_var"] < report["emp_var"] < math.inf

    def test_huge_noise_intensity_reports_a_finite_stderr(self):
        rc, out, err = run_captured(["mc", "--trials", "100", "--m", "40", "--sigma2", "1e300"])
        assert (rc, err) == (0, "")
        report = json.loads(out)
        assert 0.0 < report["stderr_var"] < report["emp_var"] < math.inf

    def test_closed_stdout_exits_1_quietly(self):
        # a reader that stops early is no input error: exit 1, nothing on stderr,
        # not even an "Exception ignored" line from the flush at exit
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.Popen([sys.executable, "-m", "algdiff.cli", "kernel", "--m", "100000"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline() == b"i,abscissa,tap\n"
        proc.stdout.close()
        err = proc.communicate(timeout=60)[1]
        assert (proc.returncode, err) == (1, b"")

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        def overflow(cfg):
            raise OverflowError("too large")

        monkeypatch.setattr(cli, "kernel_taps", overflow)
        assert_one_line_error(capsys, ["kernel"], "too large")

    @pytest.mark.parametrize(
        "exc,fragment",
        [(MemoryError("Unable to allocate 80.0 GiB"), "Unable to allocate"),
         (MemoryError(), "MemoryError")],
        ids=["message", "bare"],
    )
    def test_memory_error_exits_2(self, capsys, monkeypatch, exc, fragment):
        def exhausted(cfg):
            raise exc

        monkeypatch.setattr(cli, "kernel_taps", exhausted)
        assert_one_line_error(capsys, ["kernel"], fragment)


class TestConfigResolver:
    """Flags over spec-file values over the EstimatorConfig defaults."""

    def write_spec(self, tmp_path, text, name="run.spec"):
        spec = tmp_path / name
        spec.write_text("signal = sin2t\n" + text)
        return str(spec)

    def test_spec_with_only_T_derives_m(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, f"T = {25 * SIN2T_TS!r}\n")
        config = run_json(capsys, ["experiment", spec])["config"]
        assert config["m"] == 25
        assert config["T"] == 25 * SIN2T_TS
        assert (config["n"], config["q"], config["mu"], config["F"]) == (1, 0, 0.0, 0.5)

    def test_flag_overrides_spec_value(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, "m = 25\nmu = 0.5\nkappa = 0.25\n")
        config = run_json(capsys, ["experiment", spec, "--mu", "-0.25"])["config"]
        assert (config["mu"], config["kappa"], config["m"]) == (-0.25, 0.25, 25)

    def test_poisson_reads_nu_not_sigma2(self, tmp_path, capsys):
        base = "m = 25\nnoise = poisson\n"
        nu = run_json(capsys, ["experiment", self.write_spec(tmp_path, base + "nu = 3\n")])
        default = run_json(capsys, ["experiment", self.write_spec(tmp_path, base)])
        assert nu["band_high"] != default["band_high"]
        # with nu given too, sigma2 is still refused, not ignored
        both = self.write_spec(tmp_path, base + "nu = 3\nsigma2 = 7\n")
        assert_one_line_error(capsys, ["experiment", both],
                              "sigma2 does not apply to noise 'poisson', which reads nu")

    def test_spec_stream_applies_without_flag(self, tmp_path, capsys):
        base = "m = 25\nnoise = white\ntarget_snr_db = 20\n"
        spec_stream = run_json(capsys, ["experiment", self.write_spec(tmp_path, base + "stream = 5\n")])
        flag_stream = run_json(capsys, ["experiment", self.write_spec(tmp_path, base), "--stream", "5"])
        default = run_json(capsys, ["experiment", self.write_spec(tmp_path, base)])
        assert spec_stream == flag_stream
        assert spec_stream["total_error"] != default["total_error"]

    @pytest.mark.parametrize("window,flag,want", [
        ("m = 25\n", ["--T", repr(20 * SIN2T_TS)], (20, 20 * SIN2T_TS)),
        (f"T = {25 * SIN2T_TS!r}\n", ["--m", "20"], (20, 20 * SIN2T_TS)),
        (f"m = 25\nT = {25 * SIN2T_TS!r}\n", ["--m", "20"], (20, 20 * SIN2T_TS)),
    ], ids=["m-then-T", "T-then-m", "both-then-m"])
    def test_window_flag_replaces_the_spec_window(self, tmp_path, capsys, window, flag, want):
        # m and T set one window: a flag for either replaces both spec keys
        spec = self.write_spec(tmp_path, window + "noise = white\ntarget_snr_db = 20\n")
        config = run_json(capsys, ["experiment", spec, *flag])["config"]
        assert (config["m"], config["T"]) == want

    def test_spec_window_off_the_sample_grid_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, "m = 25\nT = 1.0\nnoise = white\ntarget_snr_db = 20\n")
        assert_one_line_error(capsys, ["experiment", spec], "does not match the sampling period")

    def test_spec_without_window_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, "noise = none\n")
        assert_one_line_error(capsys, ["experiment", spec], "set m (taps) or T")

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("m = 2.5\n", "spec key 'm'"),
            # ts is unused by a named signal, but is still checked
            ("m = 25\nts = abc\n", "spec key 'ts'"),
            ("m = 25\nm = 30\n", "spec key 'm' is given twice"),
        ],
        ids=["non-integer-m", "unused-bad-ts", "repeated-key"],
    )
    def test_spec_value_checked_when_read(self, tmp_path, capsys, text, fragment):
        assert_one_line_error(capsys, ["experiment", self.write_spec(tmp_path, text)], fragment)

    @pytest.mark.parametrize(
        "grid,fragment",
        [
            ("coeffs = 1,2\nts = inf\n", "ts must be finite and positive, got inf"),
            ("coeffs = 1,2\nts = nan\n", "ts must be finite and positive, got nan"),
            # the error names the inputs, not the first sample that overflows
            ("coeffs = 1e308,1e308\nts = 0.01\n",
             "coeffs = (1e+308, 1e+308) with ts = 0.01 and count = 1001 give samples that are"),
            # SampledSignal's "values must be a nonempty 1-D sequence" named no spec key
            ("coeffs = 1,2\ncount = 0\n", "polynomial signal requires count >= 1, got count = 0"),
        ],
        ids=["ts-inf", "ts-nan", "samples-overflow", "count-0"],
    )
    def test_polynomial_grid_refused_without_a_warning(self, tmp_path, capsys, grid, fragment):
        spec = tmp_path / "poly.spec"
        spec.write_text("signal = polynomial\nm = 4\n" + grid)
        assert_one_line_error(capsys, ["experiment", str(spec)], fragment)

    def test_csv_spec_with_nan_time_exits_2(self, tmp_path, capsys):
        src = tmp_path / "nan_t.csv"
        src.write_text("t,value\n0,1\n0.1,2\nnan,3\n0.3,4\n0.4,5\n")
        spec = tmp_path / "csv.spec"
        spec.write_text(f"signal = csv\ncsv_path = {src}\nm = 2\n")
        assert_one_line_error(capsys, ["experiment", str(spec)], "uniformly sampled")

    def test_estimate_without_window_exits_2(self, tmp_path, capsys):
        src = tmp_path / "ramp.csv"
        src.write_text("t,value\n" + "".join(f"{i * 0.01},{i}\n" for i in range(50)))
        assert_one_line_error(capsys, ["estimate", "--in", str(src), "--n", "1"], "set m (taps) or T")


# spec key -> valid values; str() round-trips a float, so the spec file and
# the flag parse the same text
RUN_VALUES = {
    "n": st.integers(1, 2),
    "q": st.integers(0, 1),
    "mu": st.floats(-0.9, 1.0),
    "kappa": st.floats(-0.9, 1.0),
    "beta": st.sampled_from((-1, 1)),
    "xi": st.floats(0.0, 1.0),
    "F": st.floats(0.05, 1.0),
    "endpoint": st.sampled_from(("f-rule", "suppress")),
    "seed": st.integers(0, 2**64 - 1),
    "stream": st.integers(0, 2**64 - 1),
    "gamma": st.floats(0.5, 5.0),
}


class TestOneRoute:
    """Flags, spec files and defaults resolve through one route."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.fixed_dictionaries({"m": st.integers(10, 60)}, optional=RUN_VALUES),
        st.data(),
    )
    def test_moving_a_key_to_the_command_line_keeps_the_output(
        self, tmp_path_factory, values, data
    ):
        moved = data.draw(st.sets(st.sampled_from(sorted(values)), min_size=1))
        spec = tmp_path_factory.mktemp("route") / "run.spec"

        def run(in_file):
            lines = ["signal = sin2t", "noise = white", "target_snr_db = 20"]
            lines += [f"{key} = {values[key]}" for key in in_file]
            spec.write_text("\n".join(lines) + "\n")
            flags = [f"--{key}={values[key]}" for key in values if key not in in_file]
            return run_captured(["experiment", str(spec), *flags])

        spec_only = run(set(values))
        assert spec_only[0] == 0, spec_only[2]
        assert run(set(values) - moved) == spec_only

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(1, 4),
        *(st.sampled_from(edges) | st.floats(lo, hi) for edges, lo, hi in (
            ((0.0, 1e-300, 1.0, 1e100, 1e300, 1e308), 0.0, 1e308),  # eta
            ((1e-300, 1e-100, 1e-10, 1.0, 1e10, 1e100, 1e300), 1e-300, 1e300),  # T
            ((-0.999999, -0.5, 0.0, 1.0, 1e20, 1e60, 1e200, 1e308), -0.999999, 1e308),  # mu
            ((-0.999999, -0.5, 0.0, 1.0, 1e20, 1e60, 1e200, 1e308), -0.999999, 1e308),  # kappa
        )),
    )
    def test_surface_and_continuous_moments_name_the_same_input(self, n, eta, T, mu, kappa):
        # one rule names the input at fault for both: the intensity, then T, else the exponents
        def fault(message):
            first = re.search(r"\b(sigma2|eta|T|mu) = |--(kappa|mu)-", message).group()
            return {"sigma2 = ": "intensity", "eta = ": "intensity", "T = ": "T"}.get(first, "exponents")

        try:
            report = analysis.continuous_moments(
                EstimatorConfig(n=n, mu=mu, kappa=kappa, T=T), Wiener(eta))
            library = ("ok", report.variance)
        except ValueError as exc:
            library = ("refused", fault(str(exc)))
        rc, out, err = run_captured([
            "surface", "variance_minimal", "--points", "1", "--n", str(n), f"--T={T!r}",
            f"--eta={eta!r}", f"--kappa-lo={kappa!r}", f"--kappa-hi={kappa!r}",
            f"--mu-lo={mu!r}", f"--mu-hi={mu!r}",
        ])
        if rc == 0:
            surface = ("ok", float(out.splitlines()[1].split(",")[1]))
        else:
            surface = ("refused", fault(json.loads(err)["error"]))
        assert surface == library, (surface, library)

    @settings(max_examples=10, deadline=None)
    @given(st.sampled_from(("white", "wiener", "poisson")), st.integers(10, 60))
    def test_mc_defaults_written_out_keep_the_output(self, model, m):
        argv = ["mc", "--model", model, "--trials", "100", "--m", str(m)]
        defaults = [f"--{key}={cli._DEFAULTS[key]}"
                    for key in ("seed", "stream", "gamma", cli._INTENSITY[model])]
        implicit = run_captured(argv)
        assert implicit[0] == 0, implicit[2]
        assert run_captured(argv + defaults) == implicit


# flag -> values of the hostile-input property: the edges of the float range
# and of each domain, with n, q <= 4, m <= 400, 100 trials and <= 3 points so
# that one run stays cheap
EDGES = ("nan", "inf", "-inf", "1e300", "-1e300", "1e308", "1e-300", "-0.999999", "-1", "0",
         "0.5", "1", "2", "abc")
HOSTILE_VALUES = {
    **dict.fromkeys(("mu", "kappa", "T", "xi", "F", "sigma2", "nu", "gamma", "t0", "eta",
                     "kappa-lo", "kappa-hi", "mu-lo", "mu-hi"), EDGES),
    "n": ("-1", "0", "1", "2", "4", "abc"),
    "q": ("-1", "0", "1", "4", "nan"),
    "m": ("0", "1", "5", "40", "400", "1e300"),
    "beta": ("-1", "0", "1"),
    "endpoint": ("f-rule", "suppress", "none"),
    "seed": ("0", "-1", str(2**64 - 1), str(2**64), "abc"),
    "stream": ("0", "-1", str(2**64 - 1), str(2**64), "abc"),
    "points": ("-1", "0", "1", "3", "abc"),
    "model": ("white", "wiener", "poisson", "pink"),
}
# subcommand -> (its fixed words, the flags the property may add)
HOSTILE_COMMANDS = {
    "estimate": (["--in", "{csv}"], cli._CONFIG_KEYS),
    "experiment": ([st.sampled_from((*cli.PRESETS, "no-such-preset"))],
                   (*cli._CONFIG_KEYS, "seed", "stream", "gamma")),
    "kernel": ([], cli._CONFIG_KEYS),
    "surface": ([st.sampled_from((*analysis._QUANTITIES, "bias"))],
                ("points", "kappa-lo", "kappa-hi", "mu-lo", "mu-hi", "n", "q", "T", "eta")),
    "mc": (["--trials", st.sampled_from(("99", "100", "abc"))],
           ("model", "sigma2", "nu", "t0", "seed", "stream", "gamma", *cli._CONFIG_KEYS)),
}


# refusals that can name no input of the argv: what they ask for is absent
INPUT_FREE = (
    "set m (taps) or T (window length)",
    "the following arguments are required",
)


def names_an_input(message: str, argv: list[str]) -> bool:
    """Whether ``message`` contains the name of a flag of ``argv``, as a word,
    or one of its values: a number as any number equal to it, other text as
    written."""
    numbers = re.findall(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:e[-+]?\d+)?|inf|nan)(?!\w)", message)
    for word in argv[1:]:
        if word.startswith("--"):
            named = re.search(rf"(?<!\w){re.escape(word[2:])}(?![\w-])", message)
        else:
            try:
                value = float(word)
            except ValueError:
                named = word in message
            else:
                named = any(float(x) == value or (x == "nan" and value != value) for x in numbers)
        if named:
            return True
    return False


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(HOSTILE_COMMANDS)))
    words, flags = HOSTILE_COMMANDS[command]
    argv = [command, *(word if isinstance(word, str) else draw(word) for word in words)]
    for flag in draw(st.lists(st.sampled_from(flags), unique=True, max_size=5)):
        argv += [f"--{flag}", draw(st.sampled_from(HOSTILE_VALUES[flag]))]
    return argv


class TestHostileInput:
    """README's promise: exit 0 with finite output, or exit 2 with one JSON line."""

    @pytest.fixture(scope="class")
    def csv_in(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("hostile") / "ramp.csv"
        path.write_text("t,value\n" + "".join(f"{i * 0.01!r},{i * i * 1e-4!r}\n" for i in range(60)))
        return str(path)

    @settings(max_examples=250, deadline=None)
    @given(hostile_argv())
    def test_every_argv_exits_0_or_2_with_one_json_line(self, csv_in, argv):
        argv = [csv_in if word == "{csv}" else word for word in argv]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc, out, err = run_captured(argv)
        assert rc in (0, 2)
        if rc == 2:
            assert out == ""
            (line,) = err.splitlines()
            message = json.loads(line)["error"]
            assert names_an_input(message, argv) or message.startswith(INPUT_FREE), message
        else:
            assert not re.search(r"(?i)\b(nan|inf|infinity)\b", out)
