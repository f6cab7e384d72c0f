"""Benchmark of the ``tribranch`` checkout this file lives in.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Each run sets the workload up in fresh worker processes (``worker.py``)
several times and reports the median set-up time, then measures the last
worker.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (name -> value and unit).  The full result, with the sha256 of
every report, is also written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# Set-ups per run: at least MIN_SETUPS, and more, up to MAX_SETUPS, as long
# as they fit in SETUP_SECONDS at the pace of the first, so that the median
# of a cheap set-up rests on more samples.
MIN_SETUPS, MAX_SETUPS, SETUP_SECONDS = 5, 15, 4.0
END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
# A run, all of its workers included, is stopped after this many seconds.
RUN_LIMIT_S = 170


def spawn(args, work, setup_only, deadline):
    """Start a worker, time it until it is ready, wait for it.

    Returns the set-up time in seconds.
    """
    argv = [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work]
    if setup_only:
        argv.append("--setup-only")
    os.makedirs(work)
    # The program's own stderr (error messages of malformed inputs) goes to a log.
    log_path = os.path.join(work, "stderr.log")
    with open(log_path, "w", encoding="utf-8") as log:
        begin = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True)
        watchdog = threading.Timer(max(deadline - time.monotonic(), 0), proc.kill)
        watchdog.start()
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            code = proc.wait()
        finally:
            watchdog.cancel()
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or code != 0:
        with open(log_path, encoding="utf-8") as log:
            sys.stderr.write(log.read()[-4000:])
        raise RuntimeError(f"worker for {args.workload} failed (exit {code})")
    return ready - begin


def run(args):
    deadline = time.monotonic() + RUN_LIMIT_S
    base = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-s{args.seed}")
    shutil.rmtree(base, ignore_errors=True)
    try:
        setups, refs, count = [], [], MIN_SETUPS
        while len(setups) < count:
            refs += [worker.reference_ns() for _ in range(worker.REF_WINDOW)]
            work = os.path.join(base, f"worker{len(setups)}")
            setups.append(spawn(args, work, len(setups) < count - 1, deadline))
            if len(setups) == 1:
                count = min(max(MIN_SETUPS, math.ceil(SETUP_SECONDS / setups[0])), MAX_SETUPS)
        with open(os.path.join(work, "result.json"), encoding="utf-8") as handle:
            result = json.load(handle)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    # Scaled to the reference speed like the latencies, by the median of the
    # reference times taken just before each set-up.
    result["raw_setup_s"] = statistics.median(setups)
    result["setup_s"] = result["raw_setup_s"] * worker.REF_NOMINAL_MS / (statistics.median(refs) / 1e6)
    if args.trace:
        units = dict(tracer.metric_names())
        metrics = {name: {"value": result["layers"][name], "unit": unit}
                   for name, unit in units.items()}
    else:
        metrics = {name: {"value": result[name], "unit": unit} for name, unit in END_TO_END}
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    out = os.path.join(out_dir, f"{args.workload}-s{args.seed}-t{args.trace}.json")
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)

    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} operations over {result['distinct_inputs']} inputs")
    print(f"fail_frac {failed / attempted:.6f} ({failed} of {attempted})")
    for error in result["errors"]:
        print(f"  failed: {error}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    raw = ("setup_s",) if args.trace else ("ops_per_s", "op_ms_p50", "op_ms_p90", "setup_s")
    print("at wall speed: " + ", ".join(f"{k} {result['raw_' + k]:.6g}" for k in raw))
    print(f"report digests: {len(result['digests'])} inputs, full list in {os.path.relpath(out, ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="check the benchmark's own generators and run every "
                             "workload once on a tiny input set")
    args = parser.parse_args()
    if not os.path.isdir(os.path.join(ROOT, "src", "tribranch")):
        print(f"no tribranch package under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    # One CPU for this process and every worker and command it starts, so
    # that the reference loop runs where the measured work runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.selftest:
        import selftest

        return selftest.main()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
