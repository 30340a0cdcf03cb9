import importlib
import importlib.util
import inspect
import os
import re

import reservoirq

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")


def load_bench(module):
    """Load bench/<module>.py as it is, without importing it as a package."""
    spec = importlib.util.spec_from_file_location(f"bench_{module}",
                                                  os.path.join(BENCH, f"{module}.py"))
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def test_star_import_binds_every_export():
    namespace = {}
    exec("from reservoirq import *", namespace)
    assert set(reservoirq.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(reservoirq.__all__) == len(set(reservoirq.__all__))


def test_readme_export_list_is_all():
    # every export is listed in the README's "The package root exports"
    # list, and every listed name the package binds is exported (the list
    # also quotes shapes and argument names)
    with open(os.path.join(ROOT, "README.md")) as fh:
        text = fh.read()
    start = text.index("\n\n", text.index("The package root exports")) + 2
    named = set(re.findall(r"`([^`]+)`", text[start:text.index("\n\n", start)]))
    assert set(reservoirq.__all__) <= named
    assert {name for name in named if hasattr(reservoirq, name)} <= set(reservoirq.__all__)


def test_bench_wrapped_names_are_bound():
    # bench/tracing.py times each layer by replacing these module
    # attributes and reads the listed parameters by name; a prune that
    # drops one would break only the traced bench run
    tracing = load_bench("tracing")
    assert tracing.WRAPPED
    for module, attr, layer in tracing.WRAPPED:
        fn = getattr(importlib.import_module(f"reservoirq.{module}"), attr, None)
        assert callable(fn), f"reservoirq.{module}.{attr} (layer {layer})"
    params = {name: set(inspect.signature(
        getattr(reservoirq.readout, name)).parameters)
        for name in ("collect_states", "select_penalty")}
    assert {"model", "inputs"} <= params["collect_states"]
    assert {"regressors", "targets", "grid", "holdout_fraction"} <= params["select_penalty"]


def test_traced_bench_runs_every_layer(monkeypatch):
    # the bench's tiny traced run of each workload, as bench/selftest.py
    # makes it: a change under src/ that breaks how the bench calls or
    # wraps a layer shows here, not only in the manual self-test
    monkeypatch.syspath_prepend(BENCH)  # run.py imports tracing.py by name
    run = load_bench("run")
    for name in run.TINY:
        result, checker, _ = run.measure(name, seed=1, seconds=0.01, trace=True, tiny=True)
        assert not checker.problems and checker.failed == 0, (name, checker.problems)
        silent = [layer for layer in run.tracing.LAYERS
                  if not result[f"{layer}.calls"][0] > 0]
        assert not silent, (name, silent)
