import copy
import importlib
import importlib.util
import os
import pkgutil
import re

import numpy as np

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


def test_readme_rule_owners_resolve():
    # each owner in the README's "Input rules" table names a function or a
    # constant of reservoirq by its module path, so a rename or a prune
    # cannot leave the table pointing at nothing
    with open(os.path.join(ROOT, "README.md")) as fh:
        section = fh.read().split("## Input rules", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[2] for line in section.splitlines()
            if line.startswith("| ") and not line.startswith(("| input", "| ---"))]
    assert rows
    for cell in rows:
        owners = re.findall(r"`([^`]+)`", cell)
        assert owners, cell
        for owner in owners:
            module, *attrs = owner.split(".")
            obj = importlib.import_module(f"reservoirq.{module}")
            for attr in attrs:
                obj = getattr(obj, attr)
            assert callable(obj) or isinstance(obj, (int, float)), owner


def test_no_module_defines_an_exception_class():
    # the package raises builtin exceptions only (ValueError, RuntimeError,
    # and FloatingPointError for a failed trial), so callers catch by the
    # builtin class and no module defines its own
    modules = [reservoirq] + [importlib.import_module(f"reservoirq.{info.name}")
                              for info in pkgutil.iter_modules(reservoirq.__path__)]
    assert len(modules) > 1
    for module in modules:
        own = [name for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == module.__name__]
        assert not own, (module.__name__, own)


def test_a_run_changes_no_model_field():
    # a reservoir is its weights: a run reads them, its inputs and the state
    # it starts from, and writes only an ESQN's overload tally
    inputs = reservoirq.seeded_rng(3).uniform(0.0, 1.0, (20, 2))
    for cls in (reservoirq.EsnModel, reservoirq.EsqnModel):
        model = cls.random(2, 6, reservoirq.seeded_rng(4))
        before = copy.deepcopy(vars(model))
        model.run(inputs, np.full(6, 0.5))
        after = {name: value for name, value in vars(model).items()
                 if name != "overload_steps"}
        assert after.keys() == before.keys() - {"overload_steps"}
        for name, value in after.items():
            np.testing.assert_array_equal(value, before[name], err_msg=name)


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


def test_readme_python_blocks_run(monkeypatch, capsys):
    # every ```python block of the README runs as written, from the repo
    # root its paths are relative to, and the G-network block prints the
    # verdicts the README states: unstable in all 20 trials
    monkeypatch.chdir(ROOT)
    with open(os.path.join(ROOT, "README.md")) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert len(blocks) == 3
    printed = []
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
        printed.append(capsys.readouterr().out.splitlines())
    assert [line.split() for line in printed[2]] == [[str(t), "False"] for t in range(20)]
