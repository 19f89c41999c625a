"""Metrics from the passes of one run: end to end, and per layer from spans.

Which end-to-end metric each per-layer metric should move, and where:

* ``synth.*``, ``data.*``: ``wall_s`` and ``peak_rss_mb`` on csv-200k; no
  change expected on readme-train.
* ``net.dense_*``: ``train_rows_per_s`` and ``wall_s`` on readme-train, not
  on gate-small-net.
* ``net.adam_*``, ``kernels.adam_update_calls`` (calls per step = tensor
  count): ``wall_s`` on gate-small-net.
* ``kernels.scatter_*``: ``wall_s`` on gate-small-net, then readme-train.
* ``net.validation_*``: ``wall_s`` on gate-small-net; ``net.predict_*``:
  ``score_rows_per_s`` on csv-200k.
* ``net.fit_*``, ``net.epochs_run``, early stops, rollbacks and
  ``net.useful_epoch_ratio``: ``train_rows_per_s`` on readme-train and
  gate-small-net.
* ``loop.*``: ``wall_s`` on readme-train and gate-small-net.
* ``metrics.evaluate_s``, ``cli.*``: ``score_rows_per_s`` and ``wall_s`` on
  csv-200k.
"""

import statistics
from collections import defaultdict

from spans import LAYERS, layer_self_times, self_times

QUALITY = ("test_auc_boosted", "test_auc_reference",
           "test_logloss_boosted", "test_logloss_reference")


def _rate(amount, seconds):
    return amount / seconds if seconds > 0 else 0.0


def _median_or_zero(values):
    return statistics.median(values) if values else 0.0


def train_rows_per_s(spans):
    """Sum of train rows x epochs run over every fit / summed fit seconds."""
    fits = [s for s in spans if s.name == "net.fit"]
    return _rate(sum(s.attrs["rows"] * s.attrs["epochs"] for s in fits),
                 sum(s.duration for s in fits))


def end_to_end(passes, setup_s, peak_rss_mb):
    """Timings are medians over passes; ``score_rows_per_s`` of a pass is the
    median rows/s over its scoring calls. Quality is from the first pass (the
    run checks that later passes reproduce it exactly)."""
    attempted = sum(len(p.ops) for p in passes)
    failed = sum(op.failed for p in passes for op in p.ops)
    quality = passes[0].median_quality()
    out = {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall_s for p in passes),
        "train_rows_per_s": statistics.median(train_rows_per_s(p.tracer.spans)
                                              for p in passes),
        "score_rows_per_s": statistics.median(_median_or_zero(p.score_rates)
                                              for p in passes),
        "peak_rss_mb": peak_rss_mb,
        "ok_fraction": 1.0 - failed / attempted if attempted else 0.0,
    }
    out.update({k: quality.get(k, float("nan")) for k in QUALITY})
    return out, attempted, failed


def per_layer(untraced, traced):
    """Per-layer metrics from the traced pass; overhead against the untraced one."""
    spans = traced.tracer.spans
    by_id = {s.id: s for s in spans}
    named = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
        if s.parent is not None:
            children[s.parent].append(s)
    own = self_times(spans)

    def parent_is(s, name):
        return s.parent is not None and by_id[s.parent].name == name

    def total(name, keep=lambda s: True):
        return sum((s.duration for s in named[name] if keep(s)), 0.0)

    fits = named["net.fit"]
    epochs = sum(s.attrs["epochs"] for s in fits)
    ref_first_fit_epochs = 0
    for ref in named["loop.train_unboosted"]:
        first = [c for c in children[ref.id] if c.name == "net.fit"][:1]
        ref_first_fit_epochs += sum(c.attrs["epochs"] for c in first)

    not_in_schema_encode = lambda s: not parent_is(s, "data.build_schema_and_encode")
    not_validation = lambda s: not parent_is(s, "net.eval_loss")
    in_boosting = lambda s: parent_is(s, "loop.train_xdboost")
    ingest_s = total("data.ingest_csv")
    out = {
        "synth.generate_s": total("synth.generate_records"),
        "synth.write_csv_s": total("synth.write_csv"),
        "data.ingest_s": ingest_s,
        "data.ingest_rows_per_s": _rate(sum(s.attrs["rows"] for s in named["data.ingest_csv"]),
                                        ingest_s),
        "data.split_s": total("data.chronological_split") + total("data.sub_training"),
        "data.schema_encode_s": (total("data.build_schema_and_encode")
                                 + total("data.build_schema", not_in_schema_encode)
                                 + total("data.encode", not_in_schema_encode)),
        "data.encode_calls": len(named["data.encode"]),
        "data.encode_rows": sum(s.attrs["rows"] for s in named["data.encode"]),
        "data.records_hash_s": total("data.records_hash"),
        "net.dense_forward_s": total("net.dense_forward"),
        "net.dense_backward_s": total("net.dense_backward"),
        "net.dense_calls": len(named["net.dense_forward"]) + len(named["net.dense_backward"]),
        "net.adam_step_s": total("net.adam_step"),
        "net.adam_steps": len(named["net.adam_step"]),
        "kernels.adam_update_s": total("kernels.adam_update"),
        "kernels.adam_update_calls": len(named["kernels.adam_update"]),
        "kernels.scatter_rows_s": total("kernels.scatter_add_rows"),
        "kernels.scatter_rows_calls": len(named["kernels.scatter_add_rows"]),
        "kernels.scatter_scalars_s": total("kernels.scatter_add_scalars"),
        "kernels.scatter_scalars_calls": len(named["kernels.scatter_add_scalars"]),
        "net.validation_s": total("net.eval_loss"),
        "net.validation_calls": len(named["net.eval_loss"]),
        "net.predict_s": total("net.predict_matrix", not_validation),
        "net.predict_rows": sum(s.attrs["rows"] for s in named["net.predict_matrix"]
                                if not_validation(s)),
        "net.fit_calls": len(fits),
        "net.fit_s": total("net.fit"),
        "net.fit_self_s": sum(own[s.id] for s in fits),
        "net.epochs_run": epochs,
        "net.early_stops": sum(0 < s.attrs["epochs"] < s.attrs["max_epochs"] for s in fits),
        "net.rollbacks": sum(s.attrs["epochs"] > 0 and s.attrs["best_epoch"] == -1
                             for s in fits),
        # epochs up to and including best_epoch; a rollback (-1) counts zero
        "net.useful_epoch_ratio": _rate(sum(s.attrs["best_epoch"] + 1 for s in fits), epochs),
        "loop.classifier_fit_s": total(
            "net.fit", lambda s: in_boosting(s) and s.attrs["head"] == "sigmoid"),
        "loop.residual_fit_s": total(
            "net.fit", lambda s: in_boosting(s) and s.attrs["head"] == "tanh"),
        "loop.placeholder_write_s": total(
            "net.predict_matrix", lambda s: in_boosting(s) and s.attrs["head"] == "tanh"),
        "loop.train_boosted_s": total("loop.train_xdboost"),
        "loop.train_reference_s": total("loop.train_unboosted"),
        "loop.predict_s": total("loop.predict_xdboost"),
        "loop.duplicate_fit_share": _rate(ref_first_fit_epochs, epochs),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "cli.bundle_save_s": total("cli.bundle_save"),
        "cli.bundle_load_s": total("cli.bundle_load"),
        "cli.predict_self_s": sum((own[s.id] for s in named["cli.predict"]), 0.0),
        "trace.spans": len(spans),
        "trace.overhead_s": traced.wall_s - untraced.wall_s,
        "trace.overhead_share": _rate(traced.wall_s - untraced.wall_s, untraced.wall_s),
    }
    layer_self = layer_self_times(spans)
    out.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS if layer != "op"})
    return out
