"""Run one algdiff benchmark workload and print its metrics.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 27 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 27 --trace 0

Run it from anywhere; it benchmarks the ``algdiff`` sources in ``src/`` next
to this directory (or in ``--src``) and never an installed copy.

``--trace 0`` measures the end-to-end metrics: a warm-up job, then a closed
loop of jobs for ``--seconds`` (at least enough jobs for ten samples beyond
p90, ending on a whole cycle of the workload's mix), with set-up time probed
in fresh interpreters between its cycles and the host's speed calibrated
before and after every job.  Timings are reported corrected to the
reference host speed (see `measure.calibrate`); the text output also prints
them as measured.  ``--trace 1`` runs a fixed list of jobs traced, each next
to an untraced twin, and reports the per-layer metrics.  Every output is
checked outside the timed region.  The last line of stdout is the JSON
result; ``--record FILE`` also appends the full record, with the environment,
for `compare.py`.
"""

from __future__ import annotations

import os

BLAS_THREADS = "1"  # one client, one thread: steadier on a shared 2-CPU host
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import measure  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 21  # fresh interpreters timed per run
P90 = 0.9
MIN_JOBS = measure.min_jobs(P90)
HARD_CAP_S = 120.0  # the timed loop stops here even short of MIN_JOBS
OUT_DIR = HERE / "out"


@dataclass
class Phase:
    jobs: list[int] = field(default_factory=list)
    latencies: list[float] = field(default_factory=list)
    units: float = 0.0
    failures: list[tuple[int, str]] = field(default_factory=list)
    calibrations: list[float] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.units / sum(self.latencies)


def run_job(wl, i: int, phase: Phase, tracer: Tracer | None = None) -> None:
    call = wl.call(i)
    with tracer.job(i) if tracer else nullcontext():
        start = perf_counter()
        try:
            out, error = call(), None
        except Exception as exc:  # a failed job is counted, and the loop goes on
            out, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - start
    phase.jobs.append(i)
    phase.latencies.append(latency)
    if error is None:
        if tracer:
            tracer.counts["cli.output_bytes"] += wl.output_bytes(out)
        try:
            error = wl.check(i, out)
        except Exception as exc:
            error = f"output check raised {type(exc).__name__}: {exc}"
    if error is None:
        phase.units += wl.units(out)
    else:
        phase.failures.append((i, error))


def run_phase(wl, first: int, done) -> Phase:
    """Jobs first, first+1, ... until ``done(jobs, elapsed_s)`` at a cycle end.

    Calibration passes bracket every job: one runs before the first job and
    one after each job.
    """
    phase = Phase()
    start = perf_counter()
    i = first
    phase.calibrations.append(measure.calibrate())
    while True:
        run_job(wl, i, phase)
        phase.calibrations.append(measure.calibrate())
        i += 1
        count = len(phase.jobs)
        if count % wl.cycle == 0 and done(count, perf_counter() - start):
            return phase


def setup_probe(workload: str, seed: int, src: Path):
    """A callable giving the seconds from a fresh interpreter to the first job's result."""
    cmd = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
           "--seed", str(seed), "--src", str(src)]

    def probe() -> float:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        return float(proc.stdout.strip().splitlines()[-1])

    return probe


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timing_metrics(units: float, latencies: list[float], setup: list[float]) -> dict:
    p90 = measure.nearest_rank(latencies, P90)[0]
    return {
        "throughput": units / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup),
    }


def timed_run(wl, seconds: float, probe) -> tuple[Phase, dict]:
    warm = Phase()
    run_job(wl, 0, warm)
    rss_mb, setup = [], []

    def done(jobs: int, elapsed: float) -> bool:
        # peak RSS is read after the same number of jobs in every run: the
        # program's caches grow with every job, so a faster program would
        # otherwise show more memory
        if jobs >= MIN_JOBS and not rss_mb:
            rss_mb.append(_peak_rss_mb())
        # set-up probes are spread over the run, not taken back to back: the
        # host's speed drifts over seconds, and a cluster of probes sees one
        # moment of it where the timed jobs see the whole run
        if len(setup) < SETUP_PROBES and elapsed >= seconds * len(setup) / SETUP_PROBES:
            setup.append(probe())
        return (jobs >= MIN_JOBS and elapsed >= seconds) or elapsed >= HARD_CAP_S

    phase = run_phase(wl, 1, done)
    while len(setup) < SETUP_PROBES:
        setup.append(probe())
    peak_rss_mb = rss_mb[0] if rss_mb else _peak_rss_mb()
    if len(phase.jobs) < MIN_JOBS:
        phase.failures.append((-1, f"only {len(phase.jobs)} jobs in {HARD_CAP_S:g} s; "
                                   f"p90 needs {MIN_JOBS}"))
    reruns, rerun_failures = wl.final_check(phase.jobs)
    phase.failures += warm.failures + rerun_failures
    # the host's speed moves the program's timings and the calibration's
    # alike, so dividing it out leaves the program's own cost: each job by
    # the passes on either side of it, the set-up probes (other processes,
    # between cycles) by the run's mean
    speed = measure.host_speed(phase.calibrations)
    corrected = [t / s for t, s in zip(phase.latencies, measure.local_speeds(phase.calibrations))]
    measured = timing_metrics(phase.units, phase.latencies, setup)
    metrics = timing_metrics(phase.units, corrected, [t / speed for t in setup])
    metrics["peak_rss_mb"] = peak_rss_mb
    tail = measure.nearest_rank(phase.latencies, P90)[1]
    attempted = 1 + len(phase.jobs) + reruns
    return phase, {"metrics": metrics, "measured": measured, "host_speed": speed,
                   "calibrations": len(phase.calibrations), "p90_tail_samples": tail,
                   "attempted": attempted, "setup_samples": setup}


def _namespaces() -> dict:
    mods = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "algdiff"}
    names = {(n, a): v for n, m in mods.items() for a, v in vars(m).items()}
    rng_seed = sys.modules["algdiff.stochastic"].RngSeed
    names.update({("RngSeed", a): v for a, v in vars(rng_seed).items()})
    return names


def _traced_job(wl, i: int, phase: Phase, tracer: Tracer) -> None:
    tracer.install()
    try:
        run_job(wl, i, phase, tracer)
    finally:
        tracer.restore()


def traced_run(wl, seed: int) -> tuple[Phase, dict]:
    jobs = wl.cycle * wl.trace_cycles
    warm, reference, traced = Phase(), Phase(), Phase()
    run_job(wl, 0, warm)
    before = _namespaces()
    tracer = Tracer()
    # jobs 1..J run traced, each next to a job of an untraced twin list
    # J+1..2J with the same mix, so drifts in machine speed cancel in the
    # overhead; the wrappers are in place only around the traced jobs
    for k in range(jobs):
        pair = [lambda: run_job(wl, jobs + 1 + k, reference),
                lambda: _traced_job(wl, 1 + k, traced, tracer)]
        for step in pair if k % 2 == 0 else reversed(pair):
            step()
    after = _namespaces()
    if after.keys() != before.keys() or any(after[k] is not v for k, v in before.items()):
        traced.failures.append((-1, "tracer left wrappers in place"))
    tracer.write_spans(OUT_DIR / f"spans-{wl.name}-seed{seed}.csv.gz")
    overhead = reference.throughput / traced.throughput if traced.units else 0.0
    metrics = tracer.layer_metrics(overhead, jobs)
    reruns, rerun_failures = wl.final_check(traced.jobs)
    traced.failures = warm.failures + reference.failures + traced.failures + rerun_failures
    attempted = 1 + len(reference.jobs) + len(traced.jobs) + reruns
    return traced, {"metrics": metrics, "attempted": attempted}


# ---------------------------------------------------------------------------
# environment record


def _blas() -> tuple[str | None, int | None]:
    """BLAS library name and version, and the thread count it reports."""
    info = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    name = f"{info.get('name')} {info.get('version')}" if info else None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        try:
            handle = ctypes.CDLL(str(lib))
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment(src: Path, args, jobs: int) -> dict:
    files = sorted((src / "algdiff").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.relative_to(src).as_posix().encode() + b"\0" + data)
        lines += len(data.splitlines())
    commit = None
    if (src.parent / ".git").exists():
        proc = subprocess.run(["git", "-C", str(src.parent), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() if proc.returncode == 0 else None
    blas, threads = _blas()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "jobs": jobs,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_env": BLAS_THREADS,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", default=None, help="source tree to benchmark (default: src/)")
    parser.add_argument("--record", default=None, help="append the full record to this file")
    return parser.parse_args(argv)


def run_all(args) -> int:
    """Every workload in its own process; their tables, then one JSON line of results."""
    results = {}
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        for flag, value in (("--src", args.src), ("--record", args.record)):
            if value:
                cmd += [flag, value]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        *table, last = proc.stdout.splitlines()
        print("\n".join(table))
        results[name] = json.loads(last)
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = Path(args.src).resolve() if args.src else ROOT / "src"
    if not (src / "algdiff" / "__init__.py").is_file():
        print(f"error: no algdiff sources under {src}", file=sys.stderr)
        return 2
    cls = workloads.CLASSES[args.workload]
    wl = cls(workloads.load_algdiff(src, cls.uses_cli), args.seed)
    if args.trace:
        phase, result = traced_run(wl, args.seed)
        declared = spec["per_layer"]
    else:
        phase, result = timed_run(wl, args.seconds, setup_probe(args.workload, args.seed, src))
        declared = spec["end_to_end"]
    values = result["metrics"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not produced: {missing}")
    attempted, failed = result["attempted"], len(phase.failures)
    env = environment(src, args, len(phase.jobs))

    units = {"throughput": f"{cls.unit}/s"}
    print(f"workload {wl.name}  seed {args.seed}  jobs {len(phase.jobs)}"
          f"  ({len(phase.jobs) // wl.cycle} cycles of {wl.cycle})")
    if not args.trace:
        print(f"  host speed {result['host_speed']:.4g} x the reference (mean of "
              f"{result['calibrations']} calibrations); timings corrected, measured in brackets")
    for m in declared:
        note = ""
        if m["name"] in result.get("measured", {}):
            note = f"  [{result['measured'][m['name']]:.6g}]"
        if m["name"] == "latency_p90_ms":
            note += f"  ({result['p90_tail_samples']} of {len(phase.jobs)} samples above)"
        elif m["name"] == "setup_s":
            note += f"  (median of {len(result['setup_samples'])} fresh interpreters)"
        print(f"  {m['name']:<44} {values[m['name']]:>14.6g} {units.get(m['name'], m['unit'])}{note}")
    print(f"  {'failed_ratio':<44} {failed / attempted:>14.6g} ({failed} of {attempted} jobs)")
    for job, reason in phase.failures[:5]:
        print(f"  failed job {job}: {reason}")
    print("env " + json.dumps(env, sort_keys=True))

    if args.record:
        record = {**env, "metrics": values, "attempted": attempted, "failed": failed,
                  "failures": phase.failures[:20], "setup_samples": result.get("setup_samples"),
                  "measured": result.get("measured"), "host_speed": result.get("host_speed"),
                  "p90_tail_samples": result.get("p90_tail_samples")}
        with open(args.record, "a") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
