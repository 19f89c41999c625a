"""Run one xdboost benchmark workload and print its metrics.

    python3 perfbench/run.py --workload gate-small-net --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; xdboost is imported from ``src/``.
The workload's inputs are made from ``--seed``. With ``--trace 0`` the run
repeats whole passes of the workload while the next one is expected to end
within ``--seconds`` (at least one pass) and prints the end-to-end metrics
of BENCHMARK.json. With ``--trace 1`` it runs one untraced and one traced
pass of the same inputs and prints the per-layer metrics, including the
tracing overhead. Every pass checks its outputs; a failed check counts its
operation as failed.

Standard output ends with a report line (provenance, checks, prediction
digests) and then the result line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# setup_s is a median over at least SETUP_RUNS fresh processes, and over as
# many more as fit in SETUP_SECONDS, so that short set-ups get more samples.
SETUP_RUNS = 5
SETUP_SECONDS = 3.0
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("readme-train", "gate-small-net", "csv-200k"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure_setup(name, seed, workdir, toy):
    """Median time from starting a fresh process to its inputs being ready.

    The child prints the system-wide monotonic clock once the inputs are
    built, so interpreter teardown and the wait for its exit are not counted.
    """
    argv = [sys.executable, str(HERE / "prepare.py"), name, str(seed), str(workdir)]
    if toy:
        argv.append("--toy")
    times = []
    start = time.perf_counter()
    while len(times) < SETUP_RUNS or (time.perf_counter() - start < SETUP_SECONDS
                                      and len(times) < 5 * SETUP_RUNS):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        done = subprocess.run(argv, check=True, timeout=120, capture_output=True, text=True)
        times.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(times)


def run_passes(workload, inputs, workdir, seconds, trace):
    """Untraced passes until the next would overrun (two passes when tracing:
    untraced, then traced). Later passes must reproduce the first exactly."""
    from spans import Tracer, install
    from workloads import PassLog

    passes = []
    t0 = time.perf_counter()
    while True:
        tracer = Tracer(run_id=len(passes))
        install(tracer, full=trace and len(passes) == 1)
        log = PassLog(tracer)
        out = workdir / f"pass{len(passes)}"
        try:
            workload.run_pass(inputs, log, out)
        finally:
            tracer.uninstall()
            shutil.rmtree(out, ignore_errors=True)
        if passes and log.ops:
            same = (log.digests == passes[0].digests and log.quality == passes[0].quality)
            log.check(log.ops[-1], "pass_repeats_first", same)
        passes.append(log)
        elapsed = time.perf_counter() - t0
        if trace:
            if len(passes) == 2:
                return passes
        elif elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def check_counts(passes):
    """Check name -> {"passed": n, "failed": n} over every pass."""
    counts = {}
    for p in passes:
        for name, ok in p.checks:
            tally = counts.setdefault(name, {"passed": 0, "failed": 0})
            tally["passed" if ok else "failed"] += 1
    return counts


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance(seed, nproc):
    import numpy as np
    import xdboost

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"backend": xdboost.BACKEND, "python": platform.python_version(),
            "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(os.environ[BLAS_VARS[0]]), "nproc": nproc,
            "git_commit": git_commit(), "seed": seed}


def main(argv=None, toy=False):
    args = parse_args(argv)
    if not (ROOT / "src" / "xdboost" / "__init__.py").is_file():
        print(f"error: no xdboost sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ[var] = str(nproc)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import report
    import workloads

    workload = workloads.make(args.workload, toy)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_s = (None if args.trace
                   else measure_setup(args.workload, args.seed, workdir / "setup", toy))
        inputs = workload.prepare(args.seed, workdir / "inputs")
        passes = run_passes(workload, inputs, workdir, args.seconds, args.trace)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values, attempted, failed = report.end_to_end(passes, setup_s, peak_rss_mb)
    declared = spec["end_to_end"]
    if args.trace:
        values = report.per_layer(passes[0], passes[1])
        declared = spec["per_layer"]
    if set(values) != {m["name"] for m in declared}:
        print(f"error: computed metrics {sorted(values)} differ from BENCHMARK.json",
              file=sys.stderr)
        return 3
    report_line = {
        "workload": args.workload, "trace": args.trace, "seconds": args.seconds,
        "passes": len(passes),
        "provenance": provenance(args.seed, nproc),
        "prediction_digests": passes[0].digests,
        "pass_wall_s": [p.wall_s for p in passes],
        "checks": check_counts(passes),
    }
    if args.trace:
        from spans import write_jsonl

        span_file = ROOT / ".bench_work" / f"spans-{args.workload}-{args.seed}.jsonl"
        write_jsonl((s for p in passes for s in p.tracer.spans), span_file)
        report_line["spans_file"] = str(span_file.relative_to(ROOT))
    print(json.dumps({"report": report_line}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
