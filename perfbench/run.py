#!/usr/bin/env python3
"""Benchmark of floersplit: one workload, run serially by one caller in a
closed loop, with every output checked against independent computations.

    python3 perfbench/run.py --workload sweep-default --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the engine is imported from its
``src`` directory.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  See README.md in this directory.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import spans
import speed
from quantiles import hd_quantile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# At least this many operations per run, so that at least ten latency
# samples lie beyond p90; a run goes on past --seconds until it has them.
MIN_OPS = 100
# Fewest operations in the traced run's untraced pass, which lasts half the
# run length before the same operations are replayed traced.
MIN_TRACED_OPS = 10


class EngineMissing(Exception):
    """The checkout holds no floersplit sources to benchmark."""


def load_engine() -> None:
    """Put the checkout's ``src`` first on the path and import floersplit
    from it; refuse any other copy."""
    pkg = ROOT / "src" / "floersplit"
    if not (pkg / "__init__.py").is_file():
        raise EngineMissing(f"no floersplit sources under {pkg.parent}")
    sys.path.insert(0, str(pkg.parent))
    import floersplit

    if Path(floersplit.__file__).resolve().parent != pkg.resolve():
        raise EngineMissing(f"floersplit imported from {floersplit.__file__}, not {pkg}")


def run_loop(workload, op, seconds: float, min_ops: int, count: int | None = None) -> dict:
    """Call ``op(0), op(1), ...`` with one calibration pass before each,
    until ``seconds`` have passed, at least ``min_ops`` calls were made
    and the workload's current round of inputs is whole; or exactly
    ``count`` calls.

    Returns the CPU time of each call and its speed factor, the
    workload's record of each output by index (taken outside the timed
    call), and the number of calls that failed.  The run length is wall
    time; operations are timed in process CPU time, which leaves out the
    time the hypervisor gives this VM's cores to other guests.
    """
    latencies, calibrations, outputs, failed = [], [], {}, 0
    start = time.perf_counter()
    i = 0
    while count is None or i < count:
        calibrations.append(speed.calibrate())
        t0 = time.process_time()
        try:
            out = op(i)
        except Exception:
            out = None
            failed += 1
            if failed == 1:
                traceback.print_exc(file=sys.stderr)
        latencies.append(time.process_time() - t0)
        end = time.perf_counter()
        if out is not None:
            outputs[i] = workload.record(out)
        i += 1
        if count is None and end - start >= seconds and i >= min_ops and workload.round_ends(i):
            break
    return {
        "latencies": latencies,
        "factors": speed.factors(calibrations),
        "outputs": outputs,
        "failed": failed,
    }


def scaled_time(loop: dict) -> float:
    """Total operation time in reference seconds."""
    return sum(t * f for t, f in zip(loop["latencies"], loop["factors"]))


def check_outputs(workload, outputs) -> list[str]:
    problems = []
    for i, rec in outputs.items():
        problems += [f"operation {i}: {p}" for p in workload.check(rec)]
    return problems


def end_to_end(setup_s: float, loop: dict, peak_rss_mb: float) -> dict:
    ms = [t * f * 1e3 for t, f in zip(loop["latencies"], loop["factors"])]
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (len(ms) / scaled_time(loop), "1/s"),
        "latency_p50_ms": (hd_quantile(ms, 0.5), "ms"),
        "latency_p90_ms": (hd_quantile(ms, 0.9), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(rec, loop: dict, untraced_s: float) -> dict:
    ops = len(loop["latencies"])
    # one speed factor for the whole traced pass: spans are not split by operation
    factor = statistics.median(loop["factors"])
    traced_s = scaled_time(loop)
    out = {}
    for metric, _, _ in spans.TRACED:
        k = rec.names.index(metric)
        out[f"{metric}.calls"] = (rec.calls[k] / ops, "count")
        out[f"{metric}.self_ms"] = (rec.self_ns[k] * factor / 1e6 / ops, "ms")
    out["qlinalg.matmul.scalar_mults"] = (rec.scalar_mults / ops, "count")
    out["qlinalg.matmul.zero_factor_share"] = (
        1 - rec.nonzero_products / rec.scalar_mults if rec.scalar_mults else 0.0, "ratio"
    )
    out["qlinalg.max_entry_bits"] = (rec.max_entry_bits, "bits")
    out["trace.overhead_ms"] = ((traced_s - untraced_s) * 1e3 / ops, "ms")
    out["trace.overhead_share"] = ((traced_s - untraced_s) / untraced_s, "ratio")
    out["trace.spans"] = (len(rec.spans) / ops, "count")
    return out


def run_untraced(workload, seconds: float, setup_calibrations: list[float]) -> tuple[dict, list[str], int, int]:
    workload.warm_up()
    setup_s = time.process_time()  # from process start, interpreter start-up included
    setup_calibrations.append(speed.calibrate())
    setup_s *= speed.REFERENCE_S / statistics.median(setup_calibrations)
    loop = run_loop(workload, workload.op, seconds, MIN_OPS)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = end_to_end(setup_s, loop, peak_rss_mb)
    raw = len(loop["latencies"]) / sum(loop["latencies"])
    print(f"unscaled instances_per_s {raw:.4f}, mean speed factor {statistics.mean(loop['factors']):.4f}")
    return metrics, check_outputs(workload, loop["outputs"]), len(loop["latencies"]), loop["failed"]


def run_traced(workload, seconds: float, dump_path: Path) -> tuple[dict, list[str], int, int]:
    """Time an untraced pass for half the run, then replay the same
    operations with every traced function wrapped."""
    workload.warm_up()
    untraced = run_loop(workload, workload.op, seconds / 2, MIN_TRACED_OPS)
    ops = len(untraced["latencies"])
    rec = spans.Recorder()
    rec.install()
    try:
        op = rec.wrap("bench.op", workload.op)
        workload.warm_up()
        rec.reset()
        traced = run_loop(workload, op, 0, 0, count=ops)
    finally:
        rec.uninstall()
    rec.dump(dump_path)
    problems = check_outputs(workload, traced["outputs"])
    spans_counted = rec.count(workload.count_span)
    if spans_counted != ops:
        problems.append(f"{spans_counted} {workload.count_span} spans for {ops} operations")
    if traced["failed"] != untraced["failed"]:
        problems.append(f"{traced['failed']} traced failures against {untraced['failed']} untraced")
    return per_layer(rec, traced, scaled_time(untraced)), problems, ops, traced["failed"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=["sweep-default", "sweep-chain", "verify-docs"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # speed samples across set-up, to scale set-up time like the operations
    setup_calibrations = [speed.calibrate()]
    try:
        load_engine()
    except EngineMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    import workloads

    workload = workloads.WORKLOADS[args.workload]()
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=OUT))
    # A failing operation may write failure dumps to the working
    # directory; keep them out of the checkout.
    old_cwd = os.getcwd()
    os.chdir(workdir)
    try:
        setup_calibrations.append(speed.calibrate())
        workload.setup(args.seed, workdir, ROOT)
        setup_calibrations.append(speed.calibrate())
        if args.trace:
            dump = OUT / f"trace-{args.workload}-{args.seed}.json.gz"
            metrics, problems, attempted, failed = run_traced(workload, args.seconds, dump)
        else:
            metrics, problems, attempted, failed = run_untraced(workload, args.seconds, setup_calibrations)
    finally:
        os.chdir(old_cwd)
        shutil.rmtree(workdir, ignore_errors=True)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
