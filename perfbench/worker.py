"""One benchmark process: set up one workload, measure it, print a JSON line.

Started by ``run.py`` as a fresh interpreter, so ``setup_s`` covers the
whole process start: interpreter, imports, inputs and warm-up.  It is
measured against the orchestrator's ``time.monotonic()`` at spawn, which
on Linux is one clock for every process.

    python3 perfbench/worker.py --workload fig5-small --seed 1 --process 0 \\
        --budget 4 --spawned-at <monotonic> [--trace --spans FILE]

``--budget`` is the measured time in seconds; without it the process
does the workload's fixed amount of work (the traced runs).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from dataclasses import asdict

from speed import THREAD_VARIABLES
from workloads import WORKLOADS


def environment() -> dict:
    import numpy
    import scipy

    from repro.core.kernels import current_tier

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "kernel_tier": current_tier(),
        "thread_variables": {
            name: os.environ[name] for name in THREAD_VARIABLES if name in os.environ
        },
    }


def trace_summary(tracer, wall: float) -> dict:
    from tracing import coverage, self_times

    factorization = {"hits": 0, "misses": 0, "updates": 0, "downdates": 0}
    reduction = dict(factorization)
    for engine in tracer.engines.values():
        info = engine.cache_info()
        for key in factorization:
            factorization[key] += getattr(info["factorization"], key)
            reduction[key] += getattr(info["reduction"], key)
    counters = dict(tracer.counters)
    for key, value in factorization.items():
        counters[f"core.factorization_{key}"] = value
    for key, value in reduction.items():
        counters[f"core.reduction_{key}"] = value
    counters["monitor.refreshes"] = sum(
        m.variance_refreshes for m in tracer.monitors.values()
    )
    counters["monitor.solves_skipped"] = sum(
        m.variance_solves_skipped for m in tracer.monitors.values()
    )
    other_s, covered = coverage(tracer.spans, wall)
    return {
        "self_s": self_times(tracer.spans),
        "counters": counters,
        "samples": dict(tracer.samples),
        "other_s": other_s,
        "coverage": covered,
        "spans": len(tracer.spans),
        "missing": tracer.missing,
        "failures": tracer.failures,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--process", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--budget", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="JSON-lines file for the spans")
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    workload.load()
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer(run=f"{args.workload}/{args.seed}/{os.getpid()}")
        tracer.install()
    window_start = time.perf_counter()
    if tracer is not None:
        tracer.started = window_start
    workload.prepare(args.seed, args.process)
    setup_s = time.monotonic() - args.spawned_at
    # The traced window has no room for the speed reference: it would count
    # as time no layer covers.
    measured = workload.measure(args.budget, reference=tracer is None)
    window_s = time.perf_counter() - window_start
    if tracer is not None:
        tracer.uninstall()
    workload.score(measured)

    record = {
        "workload": args.workload,
        "process": args.process,
        "setup_s": setup_s,
        "window_s": window_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "environment": environment(),
        **asdict(measured),
    }
    if tracer is not None:
        record["trace"] = trace_summary(tracer, window_s)
        if args.spans:
            tracer.write_spans(args.spans)
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
