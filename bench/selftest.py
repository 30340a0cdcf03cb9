"""Self-test of the benchmark: every workload at a tiny size, both modes.

Usage (from the repository root): python3 bench/selftest.py

Checks that each run passes its output checks, that it emits exactly the
metrics BENCHMARK.json names with the units it gives, that every traced
wrapper fired, that the ESQN overload count repeats exactly, and that
tracing refuses to start when a layer name disappears from
reservoirq.harness or reservoirq.readout. Exits 1 on the first failure.
"""

import json
import math
import sys

import run
import tracing

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def fail(message):
    raise SystemExit(f"selftest FAILED: {message}")


def check_run(name, trace):
    result, checker, _ = run.measure(name, seed=1, seconds=0.01, trace=trace, tiny=True)
    if checker.problems or checker.failed or checker.attempted < 1:
        fail(f"{name}: output checks {checker.problems}, "
             f"{checker.failed}/{checker.attempted} failed")
    expected = {(m["name"], m["unit"]) for m in SPEC["per_layer" if trace else "end_to_end"]}
    emitted = {(key, unit) for key, (_, unit) in result.items()}
    if emitted != expected:
        fail(f"{name}: (metric, unit) pairs differ from BENCHMARK.json: "
             f"missing {sorted(expected - emitted)}, extra {sorted(emitted - expected)}")
    not_finite = [key for key, (value, _) in result.items() if not math.isfinite(value)]
    if not_finite:
        fail(f"{name}: non-finite metrics {not_finite}")
    if trace:
        silent = [layer for layer in tracing.LAYERS if not result[f"{layer}.calls"][0] > 0]
        if silent:
            fail(f"{name}: wrappers never fired: {silent}")
        if not result["numerics.ridge_solve.calls_per_trial"][0] > 0:
            fail(f"{name}: no ridge solves recorded")
    return result


def check_missing_layer_is_loud():
    harness, readout, _ = run.import_package()
    with tracing.Tracer().installed(harness, readout):
        pass  # raises, naming the layer, if the package lost one
    for module, attr, _ in tracing.WRAPPED:
        target = harness if module == "harness" else readout
        original = getattr(target, attr)
        delattr(target, attr)
        try:
            with tracing.Tracer().installed(harness, readout):
                pass
        except AttributeError as exc:
            if attr not in str(exc):
                fail(f"error for missing {module}.{attr} does not name it: {exc}")
        else:
            fail(f"tracing started without {module}.{attr}")
        finally:
            setattr(target, attr, original)


def main():
    check_missing_layer_is_loud()
    for name in run.WORKLOADS:
        check_run(name, trace=False)
        first = check_run(name, trace=True)
        second = check_run(name, trace=True)
        if first["esqn.overload_steps"] != second["esqn.overload_steps"]:
            fail(f"{name}: esqn.overload_steps moved between identical runs")
        print(f"selftest {name}: ok")
    print("selftest: all workloads ok")


if __name__ == "__main__":
    sys.exit(main())
