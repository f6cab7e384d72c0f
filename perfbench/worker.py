"""One workload in a fresh process: set up, then time or trace its operations.

Started by ``run.py``; prints ``ready`` on stdout when set-up (imports, input
generation and warm-up) is done, then, unless ``--setup-only``, runs the
workload and writes its result as JSON to ``WORK/result.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WARMUP_OPS = 3
MAX_ERRORS = 5

# Timings are reported at a fixed reference speed.  The host's CPU speed
# drifts by 10-30% over tens of seconds, which no run length within the
# benchmark's time budget averages out; a fixed piece of pure-Python work
# timed between operations tracks that drift.  A latency L measured while the
# reference took R (median of the REF_WINDOW + 1 reference times around the
# operation) is reported as L * REF_NOMINAL_MS / R: the latency on a machine
# where the reference takes REF_NOMINAL_MS.  Set-up times are scaled the same
# way.  Raw wall times are printed too and kept in the result file.
REF_NOMINAL_MS = 1.0
REF_WINDOW = 9
_REF_TABLE = {i: i * 7919 % 1009 for i in range(1009)}
_REF_LIST = [i * 7919 % 10007 for i in range(3000)]


def reference_ns():
    """Time of the reference work; it allocates no garbage-collected objects
    but one list, so that the program's heap cannot change its cost."""
    begin = time.perf_counter_ns()
    n, acc = 1, 0
    for k in range(300):
        n = n * 1000003 + k
    for i in range(1500):
        acc += _REF_TABLE[i % 1009] + len(str(i))
    sorted(_REF_LIST)
    return time.perf_counter_ns() - begin


def import_checkout():
    """Import the package from this checkout's src/, and prove it did."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    import tribranch

    where = os.path.abspath(tribranch.__file__)
    if not where.startswith(src + os.sep):
        raise SystemExit(f"tribranch imported from {where}, not from {src}")


def check_cli_import(env):
    """The command line subprocesses must import the same src/."""
    out = subprocess.run([sys.executable, "-c", "import tribranch; print(tribranch.__file__)"],
                         cwd=ROOT, env=env, capture_output=True, text=True, check=True)
    where = os.path.abspath(out.stdout.strip())
    if not where.startswith(os.path.join(ROOT, "src") + os.sep):
        raise SystemExit(f"the CLI imports tribranch from {where}")


class Runner:
    """Executes operations, checks them and tracks digests of their outputs."""

    def __init__(self):
        self.digests = {}
        self.failed = 0
        self.attempted = 0
        self.errors = []

    def execute(self, op, traced=False):
        """Run one operation; returns its latency in ns (check excluded)."""
        call = op.traced_call if traced and op.traced_call else op.call
        self.attempted += 1
        begin = time.perf_counter_ns()
        try:
            result = call()
        except (Exception, SystemExit) as err:  # an uncaught error is a failed op
            elapsed = time.perf_counter_ns() - begin
            self.fail(op, f"{type(err).__name__}: {err}")
            return elapsed
        elapsed = time.perf_counter_ns() - begin
        try:
            error, digest = op.check(result)
        except Exception as err:  # malformed output is a failed op
            error, digest = f"check raised {type(err).__name__}: {err}", None
        if digest is not None:
            first = self.digests.setdefault(op.name, digest)
            if first != digest and error is None:
                error = "output differs from an earlier run of the same input"
        if error is not None:
            self.fail(op, error)
        return elapsed

    def fail(self, op, error):
        self.failed += 1
        if len(self.errors) < MAX_ERRORS:
            self.errors.append(f"{op.name}: {error}")


def measure(ops, runner, deadline=None, tracer=None):
    """Run operations in order, with the reference timed between them.

    Runs one pass over ``ops`` or, with a deadline, until it passes.  Returns
    the latencies in ms at the reference speed, the raw ones and the
    reference times in ns.
    """
    raw, refs = [], []
    while (len(raw) < len(ops) if deadline is None
           else not raw or time.perf_counter() < deadline):
        refs.append(reference_ns())
        if tracer is not None:
            tracer.op_id = len(raw)
        raw.append(runner.execute(ops[len(raw) % len(ops)], traced=tracer is not None))
    refs.append(reference_ns())
    half = REF_WINDOW // 2
    ms = [x / 1e6 * REF_NOMINAL_MS / (statistics.median(refs[max(0, i - half): i + half + 2]) / 1e6)
          for i, x in enumerate(raw)]
    return ms, [x / 1e6 for x in raw], refs


def timed(ops, runner, seconds):
    """Closed loop, one client: the next operation starts when one ends.

    Latency percentiles use every operation; the throughput uses the complete
    passes over the input set, so that its mix does not depend on where the
    deadline cut the last pass.
    """
    ms, raw, refs = measure(ops, runner, deadline=time.perf_counter() + seconds)
    per_input = {}
    for i, x in enumerate(raw):
        per_input.setdefault(ops[i % len(ops)].name, []).append(x)
    out = {"ops": len(ms), "passes": len(ms) / len(ops),
           "reference_ms_p50": statistics.median(refs) / 1e6,
           "per_input_raw_ms_p50": {k: statistics.median(v) for k, v in per_input.items()}}
    for prefix, xs in (("", ms), ("raw_", raw)):
        whole = xs[: len(xs) - len(xs) % len(ops)] or xs
        out[prefix + "ops_per_s"] = len(whole) / (sum(whole) / 1000)
        out[prefix + "op_ms_p50"] = statistics.median(xs)
        out[prefix + "op_ms_p90"] = statistics.quantiles(xs, n=10)[8] if len(xs) >= 2 else xs[0]
    return out


def traced(ops, runner, ctx):
    """One untraced pass, then the same pass traced; spans become layer metrics."""
    import tracer as tracing

    plain = sum(measure(ops, runner)[0])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        spent = sum(measure(ops, runner, tracer=tracer)[0])
    finally:
        tracer.uninstall()
    spans, counters, proc = tracer.spans, tracer.counters, None
    if ctx.probes:
        spans, counters, proc = merge_probes(ctx.probes, counters)
    return tracing.layer_metrics(spans, len(ops), counters, proc, spent / plain - 1)


def merge_probes(probes, counters):
    """Spans and process timings of the traced command line subprocesses."""
    spans = []
    proc = {"interp_ms": 0.0, "import_ms": 0.0, "work_ms": 0.0}
    for op_id, doc in enumerate(probes):
        offset = len(spans)
        for name, start, end, parent, _op, excluded in doc["spans"]:
            spans.append([name, start, end, parent + offset if parent >= 0 else -1,
                          op_id, excluded])
        counters["snf_cells"] += doc["counters"]["snf_cells"]
        counters["snf_bits_max"] = max(counters["snf_bits_max"], doc["counters"]["snf_bits_max"])
        counters["search_found"] += doc["counters"]["search_found"]
        proc["interp_ms"] += (doc["started_ns"] - doc["spawned_ns"]) / 1e6
        proc["import_ms"] += doc["import_ns"] / 1e6
        proc["work_ms"] += doc["work_ns"] / 1e6
    return spans, counters, {k: v / len(probes) for k, v in proc.items()}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import_checkout()
    import workloads

    os.makedirs(args.work, exist_ok=True)
    ctx = workloads.Context(ROOT, args.work, args.seed)
    if args.workload == "cli-cold":
        check_cli_import(workloads.cli_env(ROOT))
    ops = workloads.build(args.workload, ctx)
    runner = Runner()
    for op in ops[:WARMUP_OPS]:
        runner.execute(op)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "distinct_inputs": len(ops)}
    if args.trace:
        result["layers"] = traced(ops, runner, ctx)
    else:
        result.update(timed(ops, runner, args.seconds))
    usage = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    result["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024
    result.update(attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
                  digests=dict(sorted(runner.digests.items())))
    with open(os.path.join(args.work, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
