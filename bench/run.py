"""Benchmark of reservoirq experiment runs, end to end and layer by layer.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed becomes the config's master seed. The workload is called
repeatedly, in one warmed process, for S seconds; every call's outputs are
checked. With --trace 0 the last stdout line reports the end-to-end metrics
(tracing off), with timings scaled to the baseline machine's speed. With
--trace 1 it reports the per-layer metrics of bench/tracing.py. The line
before it holds the machine facts and sample counts. See bench/README.md.
"""

import argparse
import ctypes
import dataclasses
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CONFIGS = ROOT / "fixtures" / "configs"
PROBE = Path(__file__).resolve().parent / "setup_probe.py"

SETUP_PROBES = 9
MIN_CALLS = 3
# The host's speed drifts by up to ~1.8x over minutes, unseen by this guest,
# and it slows interpreted Python far more than dense BLAS (bench/README.md).
# So a timed figure of Python-bound work is divided by the time of a fixed
# reference taken next to it, and multiplied by that reference's median time
# on the baseline machine: seconds at the baseline machine's speed. Calls of
# a Workload with per_step=True are scaled by calibrate()'s kernel; set-up
# probes by a fresh interpreter that runs REFERENCE_START.
REFERENCE_KERNEL_S = 0.0084
REFERENCE_START_S = 0.425
REFERENCE_START = ("import sys, time; import numpy, scipy.linalg; "
                   "print(time.monotonic() - float(sys.argv[1]))")
# README benchmark table, at 4 decimals.
PINNED_MEAN_NMSE = {("narma_esqn", 1): "0.0924"}


@dataclasses.dataclass(frozen=True)
class Workload:
    config: str           # file in fixtures/configs
    overrides: dict       # config fields replaced before the run
    sizes: tuple = ()     # non-empty: reservoir_size_sweep over these sizes
    per_step: bool = True  # Python-bound: calls are scaled by calibrate()

    def trials_per_call(self, config):
        return config.trials * max(1, len(self.sizes))


WORKLOADS = {
    # the paper's headline experiment; per-step state collection dominates
    "narma_esqn": Workload("narma_esqn.cfg", {}),
    # wide ESN reservoirs; penalty selection and the eigensolve dominate
    "sweep_esn_wide": Workload("narma_esn.cfg", {"trials": 5}, sizes=(200, 400),
                               per_step=False),
    # 62 rows; fixed per-trial cost and the K < D ridge branch dominate
    "ukerna_esqn": Workload("ukerna_esqn.cfg", {}),
}
TINY = {
    "narma_esqn": Workload("narma_esqn.cfg", {"train_size": 150, "validation_size": 50,
                                              "reservoir_size": 10, "trials": 2}),
    "sweep_esn_wide": Workload("narma_esn.cfg", {"train_size": 150, "validation_size": 50,
                                                 "trials": 2}, sizes=(10, 20),
                               per_step=False),
    "ukerna_esqn": Workload("ukerna_esqn.cfg", {"reservoir_size": 10, "trials": 2}),
}


def import_package():
    """Import reservoirq from this checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import reservoirq
    from reservoirq import harness, metrics, readout
    if not Path(reservoirq.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"reservoirq imported from {reservoirq.__file__}, not {SRC}")
    return harness, readout, metrics


class Checker:
    """Checks each call's outcomes and tallies attempted and failed trials.

    A call fails its checks if it raised, if a result is non-finite, if the
    failure tally does not add up, if its results CSV differs by one byte
    from the first call's (every call runs the same seed), or if a pinned
    mean NMSE does not match. All trials of a failing call count as failed.
    """

    def __init__(self, results_csv, trials_per_call, pinned_mean):
        self.results_csv = results_csv
        self.trials_per_call = trials_per_call
        self.pinned_mean = pinned_mean
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, outcomes):
        self.attempted += self.trials_per_call
        problems = ["the call raised"] if outcomes is None else self._problems(outcomes)
        if problems:
            self.failed += self.trials_per_call
            self.problems += [p for p in problems if p not in self.problems]
        else:
            self.failed += sum(o.summary.failures for o in outcomes)

    def _problems(self, outcomes):
        problems = []
        for o in outcomes:
            s = o.summary
            values = [r.nmse for r in o.results] + [r.ridge_lambda for r in o.results]
            values += [s.mean_nmse] + ([] if s.ci_halfwidth is None else [s.ci_halfwidth])
            if not all(math.isfinite(v) for v in values) or not all(
                    math.isfinite(v) for row in o.trace for v in row):
                problems.append("non-finite result")
            if s.failures + len(o.results) != o.config.trials or s.n_trials != len(o.results):
                problems.append("trial tally does not add up")
        text = "".join(self.results_csv(o.results) for o in outcomes)
        if self.reference is None:
            self.reference = text
        elif text != self.reference:
            problems.append("results.csv differs between calls at the same seed")
        mean = f"{outcomes[0].summary.mean_nmse:.4f}"
        if self.pinned_mean is not None and mean != self.pinned_mean:
            problems.append(f"mean NMSE {mean}, expected {self.pinned_mean}")
        return problems


def attempt(call):
    try:
        return call()
    except Exception:  # a failing call is counted, and the run goes on
        traceback.print_exc()
        return None


def calibrate():
    """Wall seconds of a fixed kernel: how fast the host runs right now.

    The kernel mimics one model step (input checks, two 80 x 80 matrix-vector
    products, a division, a copy) but forms the products without BLAS, so
    the program's threading cannot change it. Median of five runs.
    """
    import numpy as np
    rng = np.random.default_rng(0)
    w_in = rng.random((80, 2))
    w_num, w_den = rng.random((80, 80)) / 80, rng.random((80, 80)) / 80
    times = []
    for _ in range(5):
        start = time.perf_counter()
        state = np.full(80, 0.5)
        for i in range(150):
            u = np.atleast_1d(np.asarray([0.1 * (i % 7), 0.2], dtype=float))
            if not np.all(np.isfinite(u)) or np.any(u < 0):
                raise AssertionError("calibration input")
            drive = (w_in * u).sum(axis=1)
            state = (drive + (w_num * state).sum(axis=1)) / (
                1.0 + drive + (w_den * state).sum(axis=1))
            np.any(state > 1.0)
            state = state.copy()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def setup_prober(workload, overrides):
    """Returns a function that times one fresh interpreter from spawn to
    prepared data, then one that only starts and imports numpy and scipy;
    it returns both, in seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    args = [str(CONFIGS / workload.config), json.dumps(overrides)]

    def spawn(*argv):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, *argv, repr(start)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        return float(proc.stdout)

    def probe():
        return spawn(str(PROBE), *args), spawn("-c", REFERENCE_START)
    return probe


def describe(values):
    """Sample count, median, quartiles and the highest listed percentile
    with at least ten samples beyond it."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    out = {"n": len(values), "min": min(values), "q1": q1, "median": q2, "q3": q3}
    for p in (99, 95, 90):
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def openblas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import numpy
    for path in sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*")):
        lib = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn()
    return None


def machine_facts():
    import numpy
    import scipy
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": openblas_threads(),
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
                       if k in os.environ},
    }


def timed(call, checker, tracer=None):
    """Run one call; returns (wall s, CPU s of all threads)."""
    cpu0, wall0 = time.process_time(), time.perf_counter()
    if tracer is None:
        outcomes = attempt(call)
    else:
        with tracer.call():
            outcomes = attempt(call)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    checker.record(outcomes)
    return wall, cpu


def measure(name, seed, seconds, trace, tiny=False):
    """Run one workload; returns ({metric: (value, unit)}, Checker, details)."""
    harness, readout, metrics = import_package()
    workload = (TINY if tiny else WORKLOADS)[name]
    overrides = dict(workload.overrides, seed=seed)
    config = dataclasses.replace(
        harness.ExperimentConfig.from_file(CONFIGS / workload.config), **overrides)
    if workload.sizes:
        def call():
            return [o for _, o in harness.reservoir_size_sweep(config, workload.sizes)]
    else:
        def call():
            return [harness.run_experiment(config)]
    checker = Checker(metrics.results_csv, workload.trials_per_call(config),
                      None if tiny else PINNED_MEAN_NMSE.get((name, seed)))

    probe = setup_prober(workload, overrides)
    timed(call, checker)  # warm-up: lazy imports, allocator and caches
    start = time.perf_counter()
    deadline = start + seconds
    plain, traced, setup = [], [], []
    # kernel times around each call (see calibrate())
    scaling = workload.per_step and not trace
    kernel = [calibrate()] if scaling else []
    scaled = []

    tracer = tracing.Tracer()
    while True:
        plain.append(timed(call, checker))
        if trace:
            with tracer.installed(harness, readout):
                traced.append(timed(call, checker, tracer))
        else:
            factor = 1.0
            if scaling:
                kernel.append(calibrate())
                factor = REFERENCE_KERNEL_S / statistics.mean(kernel[-2:])
            scaled.append(tuple(t * factor for t in plain[-1]))
            # set-up probes spread over the window, between calls, so that
            # they meet the host in the state the calls meet it
            due = math.ceil(SETUP_PROBES * (time.perf_counter() - start) / seconds)
            while len(setup) < min(due, SETUP_PROBES):
                setup.append(probe())
                if scaling:  # so the next call's kernel time is taken just before it
                    kernel.append(calibrate())
        per_round = statistics.median(w for w, _ in plain) + (
            statistics.median(w for w, _ in traced) if trace else 0.0)
        if len(plain) >= MIN_CALLS and time.perf_counter() + per_round > deadline:
            break
    while not trace and len(setup) < SETUP_PROBES:
        setup.append(probe())

    walls = [w for w, _ in plain]
    if trace:
        result = tracing.layer_metrics(tracer.calls)
        # each traced call follows an untraced one; pairing cancels drift
        result["tracing_overhead_s"] = (
            statistics.median(t - u for (t, _), (u, _) in zip(traced, plain)), "s")
        samples = {"untraced_call_s": describe(walls),
                   "traced_call_s": describe([w for w, _ in traced])}
    else:
        scaled_setup = [p * REFERENCE_START_S / r for p, r in setup]
        result = {
            "run_s": (statistics.median(w for w, _ in scaled), "s"),
            "cpu_s": (statistics.median(c for _, c in scaled), "s"),
            "setup_s": (statistics.median(scaled_setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "ok_ratio": ((checker.attempted - checker.failed) / checker.attempted, "ratio"),
        }
        samples = {"run_s": describe([w for w, _ in scaled]),
                   "cpu_s": describe([c for _, c in scaled]),
                   "setup_s": describe(scaled_setup),
                   "unscaled_run_s": describe(walls),
                   "unscaled_cpu_s": describe([c for _, c in plain]),
                   "unscaled_setup_s": describe([p for p, _ in setup]),
                   "reference_start_s": describe([r for _, r in setup]),
                   **({"kernel_s": describe(kernel)} if kernel else {})}
    details = {"workload": name, "seed": seed, "tiny": tiny, "machine": machine_facts(),
               "samples": samples, "problems": checker.problems,
               "computed_not_counted": [k for k in result if k.endswith(("flop", "gflops"))]}
    return result, checker, details


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    result, checker, details = measure(args.workload, args.seed, args.seconds,
                                       bool(args.trace))
    print(json.dumps(details))
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result.items()},
    }))


if __name__ == "__main__":
    main()
