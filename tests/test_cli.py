"""End-to-end tests for the command-line interface."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

from algdiff import cli
from algdiff.cli import SIN2T_TS, main
from algdiff.analysis import variance_continuous
from algdiff.kernel import EstimatorConfig, discretize, minimal_kernel
from algdiff.specfun import JacobiIndex, smallest_root


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
                xi = smallest_root(JacobiIndex(2, mu + 2, kappa + 2))
                cfg = EstimatorConfig(n=2, q=1, mu=mu, kappa=kappa, xi=xi)
                assert float(cell) == variance_continuous(cfg, 1.0)


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

    def test_unknown_preset(self, capsys):
        rc = main(["experiment", "table9-z"])
        assert rc == 2
        assert "error" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])

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

    def test_too_few_trials(self, capsys):
        rc = main(["mc", "--trials", "50", "--n", "1", "--T", "1.0", "--m", "100"])
        assert rc == 2
        assert "error" in json.loads(capsys.readouterr().err.strip().splitlines()[-1])


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
            (["mc", "--gamma", "inf", "--trials", "100", "--m", "50"], "JSON"),
        ],
        ids=["points-0", "mu-inf", "T-inf", "xi-nan", "sigma2-nan", "nu-inf", "gamma-inf"],
    )
    def test_rejected_input(self, capsys, argv, fragment):
        assert_one_line_error(capsys, argv, fragment)

    def test_arithmetic_error_exits_2(self, capsys, monkeypatch):
        def overflow(cfg, out):
            raise OverflowError("too large")

        monkeypatch.setattr(cli, "dump_kernel", overflow)
        assert_one_line_error(capsys, ["kernel"], "too large")

    @pytest.mark.parametrize(
        "exc,fragment",
        [(MemoryError("Unable to allocate 80.0 GiB"), "Unable to allocate"),
         (MemoryError(), "MemoryError")],
        ids=["message", "bare"],
    )
    def test_memory_error_exits_2(self, capsys, monkeypatch, exc, fragment):
        def exhausted(cfg, out):
            raise exc

        monkeypatch.setattr(cli, "dump_kernel", exhausted)
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
        both = run_json(capsys, ["experiment", self.write_spec(tmp_path, base + "nu = 3\nsigma2 = 7\n")])
        nu = run_json(capsys, ["experiment", self.write_spec(tmp_path, base + "nu = 3\n")])
        sigma2 = run_json(capsys, ["experiment", self.write_spec(tmp_path, base + "sigma2 = 3\n")])
        assert both == nu
        assert sigma2["band_high"] != nu["band_high"]

    def test_spec_stream_applies_without_flag(self, tmp_path, capsys):
        base = "m = 25\nnoise = white\ntarget_snr_db = 20\n"
        spec_stream = run_json(capsys, ["experiment", self.write_spec(tmp_path, base + "stream = 5\n")])
        flag_stream = run_json(capsys, ["experiment", self.write_spec(tmp_path, base), "--stream", "5"])
        default = run_json(capsys, ["experiment", self.write_spec(tmp_path, base)])
        assert spec_stream == flag_stream
        assert spec_stream["total_error"] != default["total_error"]

    def test_spec_window_off_the_sample_grid_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, "m = 25\nT = 1.0\nnoise = white\ntarget_snr_db = 20\n")
        assert_one_line_error(capsys, ["experiment", spec], "does not match the sampling period")

    def test_spec_without_window_exits_2(self, tmp_path, capsys):
        spec = self.write_spec(tmp_path, "noise = none\n")
        assert_one_line_error(capsys, ["experiment", spec], "set m (taps) or T")

    def test_estimate_without_window_exits_2(self, tmp_path, capsys):
        src = tmp_path / "ramp.csv"
        src.write_text("t,value\n" + "".join(f"{i * 0.01},{i}\n" for i in range(50)))
        assert_one_line_error(capsys, ["estimate", "--in", str(src), "--n", "1"], "set m (taps) or T")
