"""Layer spans recorded from outside reservoirq, by wrapping the names its
modules bind.

``Tracer.installed()`` replaces the layer functions that
``reservoirq.harness`` and ``reservoirq.readout`` look up at call time with
wrappers that record one span per call: name, wall start and end, process
CPU start and end (all threads, so BLAS worker time counts), parent span
and trial id. Spans stay in memory; ``layer_metrics`` turns the spans of a
set of workload calls into per-layer figures. Nothing under ``src/`` is
changed: the wrappers go away when the context exits.
"""

import contextlib
import functools
import inspect
import statistics
import time

# (module attribute, layer name). The harness calls every layer through its
# own module globals and the readout calls ridge_solve through its globals,
# so these are the names to replace. The layer name is where the function
# is defined.
WRAPPED = (
    ("harness", "run_experiment", "harness.run_experiment"),
    ("harness", "prepare_data", "harness.prepare_data"),
    ("harness", "run_trial", "harness.run_trial"),
    ("harness", "build_model", "harness.build_model"),
    ("harness", "collect_states", "readout.collect_states"),
    ("harness", "select_penalty", "readout.select_penalty"),
    ("harness", "fit_readout", "readout.fit_readout"),
    ("readout", "ridge_solve", "numerics.ridge_solve"),
)
# run_trial makes exactly two state collections: training, then validation.
COLLECT_PARTS = ("train", "validation")
LAYERS = tuple(layer for _, _, layer in WRAPPED) + tuple(
    f"readout.collect_states.{part}" for part in COLLECT_PARTS)
CALL = "bench.call"


class Span:
    __slots__ = ("name", "start", "end", "cpu_start", "cpu_end", "parent",
                 "trial", "info", "children")

    def __init__(self, name, parent, trial):
        self.name = name
        self.parent = parent
        self.trial = trial
        self.info = {}
        self.children = []
        self.cpu_start = time.process_time()
        self.start = time.perf_counter()
        self.end = self.cpu_end = None

    @property
    def wall(self):
        return self.end - self.start

    @property
    def cpu(self):
        return self.cpu_end - self.cpu_start

    @property
    def self_wall(self):
        return self.wall - sum(child.wall for child in self.children)

    def descendants(self):
        stack = list(self.children)
        while stack:
            span = stack.pop()
            yield span
            stack.extend(span.children)


def matvec_flop(model):
    """Computed flop of one reservoir step: 2 per multiply-add of its
    matrix-vector products; elementwise work is not counted."""
    n_res, n_in = model.n_res, model.n_in
    if hasattr(model, "w_plus_res"):  # ESQN: two input and two recurrent blocks
        return 2 * 2 * n_res * (n_in + n_res)
    return 2 * n_res * (1 + n_in + n_res)  # ESN: [1; a] drive plus recurrence


def ridge_flop(d, k, n_out):
    """Computed flop of one ridge_solve on a D x K regressor matrix, using
    the Gram side that ridge_solve picks (dense GEMM counts, Cholesky
    n^3/3)."""
    if d <= k:
        return 2 * d * d * k + 2 * n_out * d * k + d ** 3 / 3 + 2 * 2 * d * d * n_out
    return 2 * k * k * d + k ** 3 / 3 + 2 * 2 * k * k * n_out + 2 * n_out * k * d


class Tracer:
    """Span recorder for one process; spans of a workload call share a
    root span named ``bench.call``."""

    def __init__(self):
        self.calls = []
        self._stack = []
        self._trials = 0
        self._model = None
        self._collects = 0

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, parent, parent.trial if parent is not None else None)
        if parent is not None:
            parent.children.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        span.cpu_end = time.process_time()
        self._stack.pop()

    @contextlib.contextmanager
    def call(self):
        """Root span around one workload call."""
        span = self._open(CALL)
        try:
            yield span
        finally:
            self._close(span)
            self.calls.append(span)

    def _wrap(self, layer, fn):
        annotate = getattr(self, "_annotate_" + layer.rsplit(".", 1)[1], None)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(layer)
            if layer == "harness.run_trial":
                span.trial = self._trials
                self._trials += 1
                self._collects = 0
                self._model = None
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                self._close(span)
                if annotate is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    annotate(span, bound.arguments, result)
        return wrapper

    # Annotations run as the span closes, also when the call raised (then
    # result is None), so every span carries the fields layer_metrics reads.
    # They get the call's arguments by parameter name, defaults filled in.
    def _annotate_build_model(self, span, args, model):
        self._model = model

    def _annotate_run_trial(self, span, args, result):
        span.info["overload_steps"] = getattr(self._model, "overload_steps", 0)

    def _annotate_collect_states(self, span, args, result):
        if self._collects >= len(COLLECT_PARTS):
            raise RuntimeError("run_trial collected states more than twice")
        span.info["part"] = COLLECT_PARTS[self._collects]
        self._collects += 1
        steps = args["inputs"].shape[0]
        span.info["steps"] = steps
        span.info["flop"] = steps * matvec_flop(args["model"])

    def _annotate_select_penalty(self, span, args, result):
        # The layer's task costed by the direct method, from its arguments
        # alone: for each penalty, a fit on the leading columns and scoring
        # on the held-out tail, split as select_penalty splits them.
        d, k = args["regressors"].shape
        n_out = args["targets"].shape[0]
        n_hold = max(2, round(args["holdout_fraction"] * k))
        span.info["flop"] = len(args["grid"]) * (
            ridge_flop(d, k - n_hold, n_out) + 2 * n_out * d * n_hold)

    @contextlib.contextmanager
    def installed(self, harness, readout):
        """Replace the layer names for the duration of the block.

        Raises AttributeError naming the layer if a module no longer binds
        one of them, so a renamed layer cannot go silently untimed.
        """
        modules = {"harness": harness, "readout": readout}
        for mod, attr, layer in WRAPPED:
            if not callable(getattr(modules[mod], attr, None)):
                raise AttributeError(
                    f"reservoirq.{mod} no longer binds {attr!r} (layer {layer})")
        originals = [(modules[mod], attr, getattr(modules[mod], attr))
                     for mod, attr, _ in WRAPPED]
        try:
            for (module, attr, fn), (_, _, layer) in zip(originals, WRAPPED):
                setattr(module, attr, self._wrap(layer, fn))
            yield self
        finally:
            for module, attr, fn in originals:
                setattr(module, attr, fn)


def layer_metrics(calls):
    """Per-layer figures over the traced workload calls (root spans).

    Times and counts are per workload call (median over calls); cpu_util
    pools all calls. Raises RuntimeError if some layer never ran.
    """
    per_call = []
    for root in calls:
        by_layer = {layer: [] for layer in LAYERS}
        for span in root.descendants():
            by_layer[span.name].append(span)
            if span.name == "readout.collect_states":
                by_layer[f"{span.name}.{span.info['part']}"].append(span)
        per_call.append(by_layer)
    silent = [layer for layer in LAYERS if not per_call or not per_call[0][layer]]
    if silent:
        raise RuntimeError(f"traced layers never ran: {', '.join(silent)}")

    def med(fn):
        return statistics.median(fn(by_layer) for by_layer in per_call)

    out = {}
    for layer in LAYERS:
        out[f"{layer}.busy_s"] = (med(lambda c: sum(s.wall for s in c[layer])), "s")
        out[f"{layer}.self_s"] = (med(lambda c: sum(s.self_wall for s in c[layer])), "s")
        out[f"{layer}.calls"] = (med(lambda c: len(c[layer])), "count")
        wall = sum(s.wall for c in per_call for s in c[layer])
        cpu = sum(s.cpu for c in per_call for s in c[layer])
        out[f"{layer}.cpu_util"] = (cpu / wall, "cpu_s/s")

    collect = "readout.collect_states"
    for part in COLLECT_PARTS:
        name = f"{collect}.{part}"
        steps = med(lambda c: sum(s.info["steps"] for s in c[name]))
        out[f"{name}.steps"] = (steps, "count")
        out[f"{name}.us_per_step"] = (out[f"{name}.busy_s"][0] / steps * 1e6, "us")
    for layer in (collect, "readout.select_penalty"):
        flop = med(lambda c: sum(s.info["flop"] for s in c[layer]))
        out[f"{layer}.flop"] = (flop, "flop")
        out[f"{layer}.gflops"] = (flop / out[f"{layer}.busy_s"][0] / 1e9, "GFLOP/s")

    ridge = "numerics.ridge_solve"
    out[f"{ridge}.calls_per_trial"] = (
        out[f"{ridge}.calls"][0] / out["harness.run_trial.calls"][0], "count")
    trial_walls = [s.wall for c in per_call for s in c["harness.run_trial"]]
    out["harness.run_trial.p50_s"] = (statistics.median(trial_walls), "s")
    out["harness.run_trial.p90_s"] = (statistics.quantiles(trial_walls, n=10)[8], "s")
    out["esqn.overload_steps"] = (
        med(lambda c: sum(s.info["overload_steps"] for s in c["harness.run_trial"])),
        "count")
    return out
