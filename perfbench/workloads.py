"""The four benchmark workloads: seeded inputs, one job per call, output checks.

Every workload is a closed loop with one client: the runner prepares job
``i`` (cheap, outside the timed region), times the call into ``algdiff``, and
checks the output (again outside the timed region).  Job inputs are a pure
function of ``(workload seed, i)``, drawn lazily in order, so any job can be
replayed and two runs with one seed see identical inputs.

Jobs come in fixed cycles (one entry per config, preset or (n, q) pair), and
the runner stops only at a cycle boundary, so the mix behind each latency
percentile is the same in every run.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

WORKLOADS = ("stream", "design", "montecarlo", "presets")
EPS = float(np.finfo(float).eps)


@dataclass
class Algdiff:
    """The modules of one source tree, imported from that tree only."""

    package: object
    kernel: object
    estimator: object
    analysis: object
    stochastic: object
    cli: object | None


def load_algdiff(src: Path, with_cli: bool) -> Algdiff:
    """Import ``algdiff`` from ``src``; refuse any other copy on the path."""
    src = Path(src).resolve()
    if not (src / "algdiff" / "__init__.py").is_file():
        raise FileNotFoundError(f"no algdiff package under {src}")
    sys.path.insert(0, str(src))
    package = importlib.import_module("algdiff")
    if Path(package.__file__).resolve().parent != src / "algdiff":
        raise ImportError(f"imported algdiff from {package.__file__}, not from {src}")
    mods = {
        name: importlib.import_module(f"algdiff.{name}")
        for name in ("kernel", "estimator", "analysis", "stochastic")
    }
    cli = importlib.import_module("algdiff.cli") if with_cli else None
    return Algdiff(package, cli=cli, **mods)


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def run_cli(ad: Algdiff, argv: list[str]) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = ad.cli.main(argv)
    return rc, out.getvalue()


def _build_kernel(ad: Algdiff, cfg):
    k = ad.kernel
    return k.minimal_kernel(cfg) if cfg.q == 0 else k.affine_kernel(cfg)


class Workload:
    """Base class: lazily drawn, seed-determined job inputs."""

    name = ""
    unit = ""  # what one work unit is, e.g. "estimates"
    uses_cli = False
    cycle = 1  # jobs per cycle of the fixed mix
    trace_cycles = 1  # cycles in each phase of a traced run

    def __init__(self, ad: Algdiff | None, seed: int) -> None:
        self.ad = ad
        self.rng = np.random.default_rng([seed, WORKLOADS.index(self.name)])
        self._inputs: list = []

    def inputs(self, i: int):
        while len(self._inputs) <= i:
            self._inputs.append(self.draw(len(self._inputs)))
        return self._inputs[i]

    def draw(self, i: int):
        raise NotImplementedError

    def call(self, i: int):
        """Return a zero-argument callable that runs job ``i``."""
        raise NotImplementedError

    def units(self, out) -> float:
        return 1.0

    def output_bytes(self, out) -> int:
        """Bytes the job wrote to stdout (CLI jobs only)."""
        return 0

    def check(self, i: int, out) -> str | None:
        """None when the output of job ``i`` is correct, else the reason."""
        raise NotImplementedError

    def final_check(self, done: list[int]) -> tuple[int, list[tuple[int, str]]]:
        """Checks that need more than one job: (jobs rerun, (job, reason) per failure)."""
        return 0, []


# ---------------------------------------------------------------------------
# stream: the apply layer on long noisy signals

STREAM_TS = 1e-3
STREAM_SAMPLES = 20_010  # ten windows of the largest config (m = 2000)
STREAM_SPAN = 20_000  # jobs take windows of one signal this much longer
STREAM_CHECKED = 16  # estimates checked per job
STREAM_ULPS = 16  # |estimate - reference| <= ULPS * eps * sum|tap * x|
STREAM_CONFIGS = (
    dict(n=1, q=0, mu=0.0, kappa=0.0, beta=-1, m=40),
    dict(n=1, q=1, mu=-0.6, kappa=-0.78, beta=-1, m=40, xi=0.218, F=0.1),
    dict(n=2, q=0, mu=0.25, kappa=-0.6, beta=1, m=400),
    dict(n=1, q=1, mu=0.0, kappa=0.0, beta=-1, m=400, xi=0.276),
    dict(n=1, q=0, mu=0.0, kappa=-0.79, beta=-1, m=2000, F=0.1),
    dict(n=2, q=1, mu=-0.4, kappa=0.35, beta=1, m=2000, xi=0.3),
)


class Stream(Workload):
    name = "stream"
    unit = "estimates"
    cycle = len(STREAM_CONFIGS)
    trace_cycles = 4

    def __init__(self, ad, seed):
        super().__init__(ad, seed)
        count = STREAM_SAMPLES + STREAM_SPAN
        t = np.arange(count) * STREAM_TS
        amp = self.rng.uniform(0.5, 2.0, 3)
        omega = self.rng.uniform(0.5, 5.0, 3)
        phase = self.rng.uniform(0.0, 2 * np.pi, 3)
        clean = (amp[:, None] * np.sin(omega[:, None] * t + phase[:, None])).sum(axis=0)
        self.signal = clean + self.rng.normal(0.0, 1e-2, count)
        self._configs = None
        self._taps: dict[int, np.ndarray] = {}

    def configs(self):
        if self._configs is None:
            cls = self.ad.kernel.EstimatorConfig
            self._configs = [cls(T=c["m"] * STREAM_TS, **c) for c in STREAM_CONFIGS]
        return self._configs

    def draw(self, i):
        offset = int(self.rng.integers(0, STREAM_SPAN + 1))
        return i % self.cycle, offset, self.rng.random(STREAM_CHECKED - 2)

    def call(self, i):
        which, offset, _ = self.inputs(i)
        cfg = self.configs()[which]
        signal = self.ad.estimator.SampledSignal(
            offset * STREAM_TS, STREAM_TS, self.signal[offset : offset + STREAM_SAMPLES]
        )
        return lambda: self.ad.estimator.estimate_series(signal, cfg)

    def units(self, out):
        return float(len(out.estimates))

    def reference_taps(self, which: int) -> np.ndarray:
        if which not in self._taps:
            cfg = self.configs()[which]
            dk = self.ad.kernel.discretize(_build_kernel(self.ad, cfg), cfg)
            self._taps[which] = np.array(dk.taps)
        return self._taps[which]

    def check(self, i, out):
        which, offset, fractions = self.inputs(i)
        cfg = self.configs()[which]
        est = np.asarray(out.estimates)
        count = STREAM_SAMPLES - cfg.m
        if est.shape != (count,):
            return f"expected {count} estimates, got shape {est.shape}"
        taps = self.reference_taps(which)
        x = self.signal[offset : offset + STREAM_SAMPLES]
        picks = np.concatenate(([0, count - 1], (fractions * count).astype(int)))
        for j in picks:
            anchor = j + cfg.m if cfg.beta == -1 else j
            window = x[anchor + cfg.beta * np.arange(cfg.m + 1)]
            products = taps * window
            ref = math.fsum(products)
            tol = STREAM_ULPS * EPS * math.fsum(np.abs(products))
            if not abs(est[j] - ref) <= tol:
                return f"estimate {j} = {est[j]!r}, direct dot product {ref!r} (tol {tol:.3g})"
        return None


# ---------------------------------------------------------------------------
# design: exponent tuning with the exact error calculus, no apply step

DESIGN_PAIRS = tuple((n, q) for n in range(1, 5) for q in range(4))
# job 0 is also the job of the set-up probes: its (n, q) is the same for every
# seed, since the first job's cost, and so setup_s, varies by +-20% across pairs
DESIGN_FIRST = DESIGN_PAIRS.index((2, 1))
DESIGN_OFFSETS = np.linspace(-0.08, 0.08, 5)  # 5 x 5 neighbourhood of the centre
DESIGN_M = (400, 2000)
DESIGN_T0 = 2.0


class Design(Workload):
    name = "design"
    unit = "designs"
    cycle = len(DESIGN_PAIRS)
    trace_cycles = 8

    def __init__(self, ad, seed):
        super().__init__(ad, seed)
        self._seen: set[tuple] = set()
        self._order: list[int] = []

    def draw(self, i):
        if i % self.cycle == 0:
            self._order = list(self.rng.permutation(self.cycle))
            if i == 0:  # a stable sort that moves DESIGN_FIRST to the front
                self._order.sort(key=lambda k: k != DESIGN_FIRST)
        n, q = DESIGN_PAIRS[self._order[i % self.cycle]]
        beta = int(self.rng.choice((-1, 1)))
        while True:
            mu, kappa = (float(v) for v in self.rng.uniform(-0.8, 0.8, 2))
            if (n, q, mu, kappa) not in self._seen:
                break
        self._seen.add((n, q, mu, kappa))
        return n, q, mu, kappa, beta

    def call(self, i):
        return lambda: self._design(*self.inputs(i))

    def _design(self, n, q, mu, kappa, beta):
        ad = self.ad
        an, st = ad.analysis, ad.stochastic
        kappas, mus = kappa + DESIGN_OFFSETS, mu + DESIGN_OFFSETS
        xi_grid = an.sweep_surface("xi", kappas, mus, n=n, q=q) if q >= 1 else None
        if (n, q) == (1, 1):
            var_grid = an.sweep_surface("variance_affine", kappas, mus, n=1, q=1)
        else:
            var_grid = an.sweep_surface("variance_minimal", kappas, mus, n=n)
        r, c = np.unravel_index(int(np.argmin(var_grid)), var_grid.shape)
        xi = float(xi_grid[r, c]) if q >= 1 else 0.0
        cfg = ad.kernel.EstimatorConfig(
            n=n, q=q, mu=float(mus[c]), kappa=float(kappas[r]), beta=beta, T=1.0, xi=xi,
            m=DESIGN_M[0],
        )
        kernel = _build_kernel(ad, cfg)
        variances = []
        for m in DESIGN_M:
            dk = ad.kernel.discretize(kernel, replace(cfg, m=m))
            for noise in (st.WhiteGaussian(1.0), st.Wiener(1.0)):
                variances.append(an.discrete_moments(dk, noise, DESIGN_T0).variance)
        return cfg, kernel, variances

    def check(self, i, out):
        cfg, kernel, variances = out
        n = cfg.n
        for j in range(n):
            value = self.ad.kernel.wpoly_moment(kernel, j)
            if value != 0.0:
                return f"moment {j} of {cfg} is {value!r}, not exactly 0.0"
        expect = float(Fraction(math.factorial(n)) / (Fraction(cfg.beta) * Fraction(cfg.T)) ** n)
        value = self.ad.kernel.wpoly_moment(kernel, n)
        if value != expect:
            return f"moment {n} of {cfg} is {value!r}, not {expect!r}"
        if not all(math.isfinite(v) and v >= 0.0 for v in variances):
            return f"discrete variances {variances} not finite and nonnegative"
        return None


# ---------------------------------------------------------------------------
# montecarlo: `algdiff mc` in process, dominated by the per-trial path loop

MC_TRIALS = 2000
MC_SIGMAS = 6  # |emp_var - discrete variance| <= MC_SIGMAS * stderr_var
MC_REPLAYS = 2  # jobs rerun after the loop for the byte-identity check
MC_CONFIGS = (
    (("--model", "wiener", "--sigma2", "1.0"), dict(n=1, q=0, mu=0.0, kappa=0.0)),
    (("--model", "wiener", "--sigma2", "1.0"), dict(n=1, q=1, mu=-0.6, kappa=-0.78, xi=0.218)),
    (("--model", "white", "--sigma2", "1.0"), dict(n=1, q=0, mu=0.0, kappa=-0.75)),
    (("--model", "poisson", "--nu", "20.0"), dict(n=2, q=1, mu=0.0, kappa=0.0, xi=0.3)),
    (("--model", "wiener", "--sigma2", "1.0"), dict(n=2, q=1, mu=-0.4, kappa=0.25, xi=0.3)),
    (("--model", "poisson", "--nu", "20.0"), dict(n=1, q=0, mu=0.5, kappa=-0.5)),
)


class CliWorkload(Workload):
    """Jobs are in-process ``algdiff.cli.main`` calls with stdout captured."""

    uses_cli = True
    units_per_run = 1.0

    def call(self, i):
        argv = self.inputs(i)
        return lambda: run_cli(self.ad, argv)

    def units(self, out):
        return self.units_per_run if out[0] == 0 else 0.0

    def output_bytes(self, out) -> int:
        return len(out[1].encode())

    def check(self, i, out):
        rc, text = out
        if rc != 0:
            return f"exit code {rc}"
        try:
            doc = _strict_json(text)
        except ValueError as exc:
            return f"stdout is not strict JSON: {exc}"
        return self.check_document(i, doc, text)

    def check_document(self, i: int, doc: dict, text: str) -> str | None:
        raise NotImplementedError


class MonteCarlo(CliWorkload):
    name = "montecarlo"
    unit = "trials"
    units_per_run = float(MC_TRIALS)
    cycle = len(MC_CONFIGS)
    trace_cycles = 5

    def __init__(self, ad, seed):
        super().__init__(ad, seed)
        self.outputs: dict[int, str] = {}

    def draw(self, i):
        model, flags = MC_CONFIGS[i % self.cycle]
        argv = ["mc", *model, "--t0", "2.0", "--T", "1.0", "--m", "400",
                "--trials", str(MC_TRIALS), "--seed", str(int(self.rng.integers(0, 2**31)))]
        for key, value in flags.items():
            argv += [f"--{key}", str(value)]
        return argv

    def check_document(self, i, doc, text):
        self.outputs[i] = text
        emp, stderr = doc["emp_var"], doc["stderr_var"]
        exact = doc["bands"]["discrete"]["variance"]
        if not abs(emp - exact) <= MC_SIGMAS * stderr:
            return f"emp_var {emp!r} is more than {MC_SIGMAS} stderr ({stderr!r}) from {exact!r}"
        return None

    def final_check(self, done):
        failures = []
        replayed = [j for j in done if j in self.outputs][:MC_REPLAYS]
        for i in replayed:
            rc, text = run_cli(self.ad, self.inputs(i))
            if rc != 0 or text != self.outputs[i]:
                failures.append((i, "rerun of an identical job gave different output"))
        return len(replayed), failures


# ---------------------------------------------------------------------------
# presets: `algdiff experiment <preset>` in process; short signals, small m

PRESET_NAMES = ("table1-a", "table1-b", "table2-a", "table2-b")
PRESET_SEEDS = 64  # job seeds are drawn from 0..63, the recorded reference pool
PRESET_RTOL = 1e-6  # total_error against the recorded reference values
PRESET_REFERENCE = Path(__file__).resolve().parent / "preset_reference.json"


class Presets(CliWorkload):
    name = "presets"
    unit = "runs"
    cycle = len(PRESET_NAMES)
    trace_cycles = 40

    def __init__(self, ad, seed):
        super().__init__(ad, seed)
        self.reference = json.loads(PRESET_REFERENCE.read_text())["total_error"]

    def draw(self, i):
        seed = int(self.rng.integers(0, PRESET_SEEDS))
        return ["experiment", PRESET_NAMES[i % self.cycle], "--seed", str(seed)]

    def check_document(self, i, doc, text):
        ratio = doc["error_ratio"]
        if ratio is None or not ratio > 1.0:
            return f"error_ratio {ratio!r} is not above 1"
        _, preset, _, seed = self.inputs(i)
        expect = self.reference[preset][int(seed)]
        got = [run["total_error"] for run in doc["runs"]]
        if len(got) != len(expect) or not all(
            g is not None and abs(g - e) <= PRESET_RTOL * e for g, e in zip(got, expect)
        ):
            return f"total_error {got} differs from the reference {expect}"
        return None


CLASSES = {cls.name: cls for cls in (Stream, Design, MonteCarlo, Presets)}
