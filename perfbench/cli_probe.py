"""One traced ``tribranch`` command line run, for the traced cli-cold workload.

Usage: ``python cli_probe.py OUT.json VERB SPEC [flags...]``.  Behaves like
``python -m tribranch VERB SPEC [flags...]`` (same stdout, stderr and exit
code) and also writes to OUT.json the process timestamps (monotonic clock,
comparable with the parent's) and the spans of the traced functions.
"""

import time

STARTED_NS = time.monotonic_ns()

import json  # noqa: E402
import sys  # noqa: E402

import tribranch.cli  # noqa: E402

IMPORTED_NS = time.monotonic_ns()

from tracer import Tracer  # noqa: E402


def main():
    out, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    begin = time.monotonic_ns()
    try:
        code = tribranch.cli.main(argv)
    finally:
        end = time.monotonic_ns()
        tracer.uninstall()
        with open(out, "w", encoding="utf-8") as handle:
            json.dump({"started_ns": STARTED_NS, "import_ns": IMPORTED_NS - STARTED_NS,
                       "work_ns": end - begin, "spans": tracer.spans,
                       "counters": tracer.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
