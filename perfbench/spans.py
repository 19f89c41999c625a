"""Spans recorded around calls into xdboost, from outside the package.

A Tracer replaces chosen module functions and methods with wrappers that
record one span per call: name, start, end, parent span and run id. Spans
stay in memory until the run ends; run.py then derives the per-layer
metrics from them and writes them out as JSON lines. Nothing inside
``src/`` is edited: every wrapper is installed by attribute assignment and
removed again by ``uninstall``.

Span names are ``<layer>.<what>``; the layer is the first dotted part and
is one of LAYERS (``op`` marks the benchmark's own operation spans).
"""

import inspect
import json
import time
from contextlib import contextmanager

LAYERS = ("synth", "data", "net", "kernels", "loop", "metrics", "cli", "op")

# Names installed on every pass. They cost one span per fit or experiment,
# which is how train_rows_per_s and the output checks see fits and the
# reference net without tracing the inner loop.
LIGHT = frozenset({"net.fit", "cli.run_experiment", "loop.train_unboosted"})


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "run", "attrs")

    def __init__(self, id, name, start, end, parent, run):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.run = run
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Records the spans of one pass (its run id); ``captured`` keeps the
    results of chosen calls for the output checks."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.captured = {}
        self.paused = False
        self._stack = []
        self._patches = []

    def _open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, time.perf_counter(), 0.0, parent, self.run_id)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """Span around a block of the benchmark's own code."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def pause(self):
        """Calls made inside the block record nothing (used for checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrapper(self, fn, name, info=None, capture=False):
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if info is not None:
                span.attrs.update(info(args, kwargs, result))
            if capture:
                self.captured.setdefault(name, []).append((args, kwargs, result))
            return result
        return traced

    def patch(self, owner, attr, name, info=None, capture=False, aliases=()):
        """Wrap ``owner.attr``, and every module in ``aliases`` that imported it."""
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            wrapped = classmethod(self.wrapper(raw.__func__, name, info, capture))
        else:
            wrapped = self.wrapper(raw, name, info, capture)
        self._patches.append((owner, attr, raw))
        setattr(owner, attr, wrapped)
        for module in aliases:
            for alias, value in list(vars(module).items()):
                if value is raw:
                    self._patches.append((module, alias, raw))
                    setattr(module, alias, wrapped)

    def uninstall(self):
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def take(self, name):
        """Pop the captured (args, kwargs, result) tuples of one wrapper."""
        return self.captured.pop(name, [])


def _fit_info(args, kwargs, history):
    net, X = args[0], args[1]
    return {"head": net.config.head, "rows": X.n_rows,
            "epochs": history.epochs_run, "best_epoch": history.best_epoch,
            "max_epochs": net.config.epochs}


def _predict_info(args, kwargs, result):
    return {"head": args[0].config.head, "rows": args[1].n_rows}


def _len_arg(args, kwargs, result):
    return {"rows": len(args[0])}


def _len_result(args, kwargs, result):
    return {"rows": len(result)}


def _public_functions(module):
    return [name for name, value in vars(module).items()
            if inspect.isfunction(value) and value.__module__ == module.__name__
            and not name.startswith("_")]


def install(tracer, full):
    """Install the wrappers: all of them when ``full``, else only LIGHT."""
    from xdboost import boosting, cli, data, kernels, metrics, models, nn, synth

    modules = (synth, data, nn, kernels, models, boosting, metrics, cli)
    specs = []
    for module, layer in ((synth, "synth"), (data, "data"), (kernels, "kernels"),
                          (boosting, "loop")):
        for fn in _public_functions(module):
            specs.append((module, fn, f"{layer}.{fn}"))
    specs += [
        (nn.DenseLayer, "forward", "net.dense_forward"),
        (nn.DenseLayer, "backward", "net.dense_backward"),
        (nn.Adam, "step", "net.adam_step"),
        (models.BaseNet, "fit", "net.fit"),
        (models.BaseNet, "eval_loss", "net.eval_loss"),
        (models.BaseNet, "predict_matrix", "net.predict_matrix"),
        (metrics, "evaluate", "metrics.evaluate"),
        (boosting.XDBoostModel, "save_bundle", "cli.bundle_save"),
        (boosting.XDBoostModel, "load_bundle", "cli.bundle_load"),
        (cli, "run_experiment", "cli.run_experiment"),
    ]
    info = {"net.fit": _fit_info, "net.predict_matrix": _predict_info,
            "data.encode": _len_arg, "data.records_hash": _len_arg,
            "data.ingest_csv": _len_result}
    capture = {"cli.run_experiment", "loop.train_unboosted"}
    for owner, attr, name in specs:
        if full or name in LIGHT:
            tracer.patch(owner, attr, name, info.get(name), name in capture,
                         aliases=modules if inspect.ismodule(owner) else ())


def write_jsonl(spans, path):
    """One JSON object per span: id, name, start, end, parent, run, attrs."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({"id": s.id, "name": s.name, "start": s.start,
                                 "end": s.end, "parent": s.parent, "run": s.run,
                                 **s.attrs}) + "\n")


# ---- analysis ---------------------------------------------------------------

def self_times(spans):
    """Span id -> duration minus the time its direct children cover.

    Children of one span run one after another on one thread, so their
    durations add up to the part of the parent's interval they cover.
    """
    child_time = {}
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    return {s.id: s.duration - child_time.get(s.id, 0.0) for s in spans}


def layer_self_times(spans):
    """Layer -> summed self time of its spans; every layer in LAYERS appears."""
    own = self_times(spans)
    out = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        out[s.layer] = out.get(s.layer, 0.0) + own[s.id]
    return out
