"""Benchmark the compiled kernels against the pure numpy fallbacks.

Times the two scatter-add kernels and the fused Adam update at a few
realistic shapes, then an end-to-end model fit with each backend. Both
paths are checked for bit-identical results before any timing is reported,
so the speedup column is a like-for-like comparison. Without the compiled
extension only the numpy fallback is timed.

Run from the repository root:

    python3 benchmarks/bench_kernels.py
    python3 benchmarks/bench_kernels.py --rows 16384 --repeats 50
"""

import argparse
import time

import numpy as np

from xdboost import kernels, synth
from xdboost.data import SplitSpec, build_schema_and_encode, chronological_split
from xdboost.models import BaseNet, BaseNetConfig

try:
    from xdboost import _native
except ImportError:
    _native = None


def best_of(fn, repeats):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def time_pair(native_fn, numpy_fn, make_buffers, repeats):
    """(native, numpy) best times on buffers from make_buffers; native is
    None without the extension. Results are compared bit for bit first."""
    numpy_args = make_buffers()
    if _native is None:
        return None, best_of(lambda: numpy_fn(*numpy_args), repeats)
    native_args = make_buffers()
    native_fn(*native_args)
    numpy_fn(*numpy_args)
    for x, y in zip(native_args, numpy_args):
        if isinstance(x, np.ndarray) and not np.array_equal(x, y):
            raise AssertionError("backends disagree; refusing to time them")
    return (best_of(lambda: native_fn(*native_args), repeats),
            best_of(lambda: numpy_fn(*numpy_args), repeats))


def bench_scatter_rows(args, rng):
    idx = rng.integers(0, args.vocab, size=args.rows).astype(np.int64)
    rows = rng.standard_normal((args.rows, args.dim))

    def buffers():
        return [np.zeros((args.vocab, args.dim)), idx, rows]

    t_native, t_numpy = time_pair(getattr(_native, "scatter_add_rows", None),
                                  kernels._scatter_add_rows_np, buffers, args.repeats)
    return ("scatter_add_rows", f"{args.rows}x{args.dim} into {args.vocab}",
            t_native, t_numpy)


def bench_scatter_scalars(args, rng):
    idx = rng.integers(0, args.vocab, size=args.rows).astype(np.int64)
    vals = rng.standard_normal(args.rows)

    def buffers():
        return [np.zeros(args.vocab), idx, vals]

    t_native, t_numpy = time_pair(getattr(_native, "scatter_add_scalars", None),
                                  kernels._scatter_add_scalars_np, buffers, args.repeats)
    return ("scatter_add_scalars", f"{args.rows} into {args.vocab}",
            t_native, t_numpy)


def bench_adam(args, rng):
    size = args.params
    grad = rng.standard_normal(size)
    hyper = (1e-3, 0.9, 0.999, 1e-8, 1.0 - 0.9 ** 3, 1.0 - 0.999 ** 3)

    def buffers():
        r = np.random.default_rng(0)
        return [r.standard_normal(size), grad, np.abs(r.standard_normal(size)) * 0.1,
                np.abs(r.standard_normal(size)) * 0.1, *hyper]

    t_native, t_numpy = time_pair(getattr(_native, "adam_update", None),
                                  kernels._adam_update_np, buffers, args.repeats)
    return ("adam_update", f"{size} params", t_native, t_numpy)


def bench_end_to_end(args):
    """Best of two full fits per backend, flipping the dispatch flag in
    between; the second round runs the backends in the opposite order."""
    records, _ = synth.generate_records(
        synth.SynthConfig(n_rows=args.fit_rows, seed=7))
    train, val, _ = chronological_split(records, SplitSpec())
    schema, encoded = build_schema_and_encode(
        train, {"train": train, "val": val}, synth.field_spec(), True)
    X_train, y_train, _ = encoded["train"]
    X_val, y_val, _ = encoded["val"]
    config = BaseNetConfig(embedding_dim=16, hidden_layers=(32,),
                           learning_rate=1e-3, epochs=args.fit_epochs,
                           patience=args.fit_epochs, batch_size=512)

    backends = ["numpy"] if _native is None else ["native", "numpy"]
    times = dict.fromkeys(backends, float("inf"))
    predictions = []
    original = kernels.BACKEND
    try:
        for order in (backends, backends[::-1]):
            for backend in order:
                kernels.BACKEND = backend
                net = BaseNet(schema, config, seed=1)
                t0 = time.perf_counter()
                net.fit(X_train, y_train, val=(X_val, y_val))
                times[backend] = min(times[backend], time.perf_counter() - t0)
                predictions.append(net.predict_matrix(X_val))
    finally:
        kernels.BACKEND = original
    if not all(np.array_equal(predictions[0], p) for p in predictions):
        raise AssertionError("end-to-end fits disagree between backends")
    return ("full fit", f"{X_train.n_rows} rows x {args.fit_epochs} epochs",
            times.get("native"), times["numpy"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rows", type=int, default=8192,
                        help="scatter batch size (default 8192)")
    parser.add_argument("--vocab", type=int, default=2000,
                        help="embedding rows scattered into (default 2000)")
    parser.add_argument("--dim", type=int, default=64,
                        help="embedding width (default 64)")
    parser.add_argument("--params", type=int, default=200000,
                        help="Adam tensor size (default 200000)")
    parser.add_argument("--repeats", type=int, default=200,
                        help="timing repetitions, best is kept (default 200)")
    parser.add_argument("--fit-rows", type=int, default=4000,
                        help="rows for the end-to-end fit (default 4000)")
    parser.add_argument("--fit-epochs", type=int, default=3,
                        help="epochs for the end-to-end fit (default 3)")
    args = parser.parse_args()

    if _native is None:
        print("compiled extension is not available; timing the numpy fallback alone")
    elif kernels.BACKEND != "native":
        print("note: XDBOOST_FORCE_NUMPY is set; timing the extension anyway")

    rng = np.random.default_rng(0)
    results = [
        bench_scatter_rows(args, rng),
        bench_scatter_scalars(args, rng),
        bench_adam(args, rng),
        bench_end_to_end(args),
    ]
    width = max(len(name) for name, *_ in results)
    print(f"{'kernel':<{width}}  {'shape':<28} {'native':>10} {'numpy':>10} "
          f"{'speedup':>8}")
    for name, shape, t_native, t_numpy in results:
        native, speedup = "-", "-"
        if t_native is not None:
            native, speedup = f"{t_native * 1e3:.3f}ms", f"{t_numpy / t_native:.2f}x"
        print(f"{name:<{width}}  {shape:<28} {native:>10} {t_numpy * 1e3:>8.3f}ms "
              f"{speedup:>8}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
