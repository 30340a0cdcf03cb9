import importlib
import importlib.util
import inspect
import os

import reservoirq

BENCH_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "bench", "tracing.py")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from reservoirq import *", namespace)
    assert set(reservoirq.__all__) <= set(namespace)


def test_all_has_no_duplicates():
    assert len(reservoirq.__all__) == len(set(reservoirq.__all__))


def test_bench_wrapped_names_are_bound():
    # bench/tracing.py times each layer by replacing these module
    # attributes and reads the listed parameters by name; a prune that
    # drops one would break only the traced bench run
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH_TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    for module, attr, layer in tracing.WRAPPED:
        fn = getattr(importlib.import_module(f"reservoirq.{module}"), attr, None)
        assert callable(fn), f"reservoirq.{module}.{attr} (layer {layer})"
    params = {name: set(inspect.signature(
        getattr(reservoirq.readout, name)).parameters)
        for name in ("collect_states", "select_penalty")}
    assert {"model", "inputs"} <= params["collect_states"]
    assert {"regressors", "targets", "grid", "holdout_fraction"} <= params["select_penalty"]
