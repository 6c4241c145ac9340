"""End-to-end benchmark of the loss-inference pipeline, with a per-layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload fig5-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all

``--trace 0`` measures the end-to-end metrics with tracing off: a few
fresh worker processes (``processes`` of the workload) each set up the
workload and measure it for an equal share of ``--seconds``.  Its times
are rescaled to a nominal machine speed by a reference loop timed between
the operations, and the workers run with one BLAS thread unless the caller
set the thread variables (``speed.py``).  ``--trace 1`` runs the
workload's fixed amount of work three times in fresh processes, once
untraced and twice traced, and reports per-layer self times and exact
counters; it checks that all three give the same answers and that the
two traced runs give the same counters.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Everything else
(the environment stamp, per-process records) goes to the lines before it
and to ``.perfbench-out/`` in the repository root.  The exit code is 0
when every check passed, 1 when a check failed and 2 when there is no
program to benchmark.  Workload definitions: ``workloads.py`` and
``WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import fmean, median
from typing import Dict, Optional, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from speed import NOMINAL_S, THREAD_VARIABLES, worker_environment  # noqa: E402
from stats import tail  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"
#: A whole invocation must end within this many seconds.
DEADLINE_S = 170.0

#: ``(name, unit, better)`` of every end-to-end metric.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    ("detection_rate", "fraction", "higher"),
    ("precision", "fraction", "higher"),
    ("peak_rss_mib", "MiB", "lower"),
)

#: Self time of each wrapped call, by span name.
SPAN_METRICS = (
    "topology.generate", "topology.paths", "topology.routing", "topology.fluttering",
    "lossmodel.sample", "probing.campaign", "netsim.sample", "core.pairs",
    "core.phase1", "core.reduce", "core.phase2", "api.evaluate", "monitor.observe",
)
#: Exact counters, as counts, with the direction a saving moves them:
#: less work is lower, more reuse is higher.
COUNTERS = (
    ("topology.fluttering_pairs", "lower"), ("topology.paths_removed", "lower"),
    ("lossmodel.link_slots", "lower"), ("probing.snapshots", "lower"),
    ("netsim.events", "lower"), ("netsim.probe_drops", "lower"),
    ("core.pair_equations", "lower"), ("core.phase1_calls", "lower"),
    ("core.phase1_unknowns", "lower"), ("core.kept_columns", "lower"),
    ("core.factorization_hits", "higher"), ("core.factorization_misses", "lower"),
    ("core.factorization_updates", "higher"), ("core.factorization_downdates", "higher"),
    ("core.reduction_hits", "higher"), ("core.reduction_misses", "lower"),
    ("core.reduction_updates", "higher"), ("core.reduction_downdates", "higher"),
    ("monitor.refreshes", "lower"), ("monitor.solves_skipped", "higher"),
    ("monitor.localizations", "lower"),
)
#: ``(name, unit, better)`` of every per-layer metric, in report order.
PER_LAYER = (
    *((f"{name}_s", "s", "lower") for name in SPAN_METRICS),
    ("runner.overhead_s", "s", "lower"),
    ("other_s", "s", "lower"),
    *((name, "count", better) for name, better in COUNTERS),
    ("netsim.events_per_s", "1/s", "higher"),
    ("core.factorization_hit_ratio", "fraction", "higher"),
    ("monitor.refresh_ms_p50", "ms", "lower"),
    ("monitor.steady_ms_p50", "ms", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.coverage", "fraction", "higher"),
    ("trace.overhead", "fraction", "lower"),
)

#: Per workload kind: the name of ``ops_per_s``, the prefix of the latency
#: percentiles, and what DR and FPR score.
OPERATION = {
    "campaign": ("trials_per_s", "trial_ms", "trials of each process's first command"),
    "monitor": ("snapshots_per_s", "observe_ms", "warm snapshots that returned rates"),
}


class WorkerFailed(RuntimeError):
    pass


def code_digest() -> str:
    """Content hash of the program's sources (the checkout may not be a git repo)."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> Optional[str]:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
        timeout=30,
    )
    return done.stdout.strip() if done.returncode == 0 else None


def stamp(seen_by_worker: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "thread_variables_inherited": {
            name: os.environ[name] for name in THREAD_VARIABLES if name in os.environ
        },
        **seen_by_worker,
        "git_commit": git_commit(),
        "code_sha256": code_digest(),
    }


def spawn(
    workload: str,
    seed: int,
    process: int,
    deadline: float,
    budget: Optional[float] = None,
    trace: bool = False,
    spans: Optional[Path] = None,
) -> dict:
    """Run one worker process to completion and return its record."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--process", str(process),
    ]
    if budget is not None:
        command += ["--budget", repr(budget)]
    if trace:
        command.append("--trace")
    if spans is not None:
        command += ["--spans", str(spans)]
    env = worker_environment(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])]
    )
    command += ["--spawned-at", repr(time.monotonic())]
    child = subprocess.Popen(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        stdout, stderr = child.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        raise WorkerFailed(f"{workload} process {process} passed the deadline")
    lines = stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise WorkerFailed(
            f"{workload} process {process} exited {child.returncode}:\n"
            + "\n".join(stderr.strip().splitlines()[-15:])
        )
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError as error:
        raise WorkerFailed(f"{workload} process {process} printed no record: {error}")


def measure(name: str, seed: int, seconds: float, deadline: float) -> Tuple[dict, dict]:
    """``--trace 0``: end-to-end metrics over the workload's fresh processes."""
    workload = WORKLOADS[name]
    records = [
        spawn(name, seed, process, deadline, budget=seconds / workload.processes)
        for process in range(workload.processes)
    ]
    latencies = [v for r in records for v in r["latencies_ms"]]
    dr = [v for r in records for v in r["detection_rates"]]
    fpr = [v for r in records for v in r["false_positive_rates"]]
    ops = sum(r["ops"] for r in records)
    if not (latencies and dr):
        raise WorkerFailed(f"{name}: no operation completed and was scored")
    # Times at nominal machine speed (speed.py).  Setup is rescaled by the
    # median reference loop of its process.
    metrics = {
        "setup_s": median(
            [r["setup_s"] * NOMINAL_S / median(r["reference_s"]) for r in records]
        ),
        "ops_per_s": ops / sum(r["scaled_seconds"] for r in records),
        "detection_rate": fmean(dr),
        "precision": 1.0 - fmean(fpr),
        "peak_rss_mib": median([r["peak_rss_mib"] for r in records]),
    }
    # The workload's own names for the same figures, plus the latency
    # percentiles, which are reported but not gated (see WORKLOADS.md).
    throughput, latency, scored = OPERATION[workload.kind]
    percentile, value = tail(latencies)
    info = {
        # As measured, in wall-clock seconds of this machine.
        throughput: ops / sum(r["seconds"] for r in records),
        "measured_setup_s": median([r["setup_s"] for r in records]),
        "reference_ms": [round(median(r["reference_s"]) * 1e3, 2) for r in records],
        f"{latency}_p50": median(latencies),
        **({f"{latency}_p{percentile}": value} if percentile is not None else {}),
        "latency_samples": len(latencies),
        "false_positive_rate": fmean(fpr),
        "scored": f"{len(dr)} {scored}",
        "setup_s_each": [r["setup_s"] for r in records],
    }
    if workload.kind == "monitor":
        flags = [f for r in records for f in r["refreshed"]]
        refresh = [v for v, f in zip(latencies, flags) if f]
        steady = [v for v, f in zip(latencies, flags) if not f]
        info["refresh_ms_p50"] = median(refresh) if refresh else None
        info["steady_ms_p50"] = median(steady) if steady else None
    summary = {
        "attempted": ops,
        "failed": sum(r["failed"] for r in records),
        "errors": [e for r in records for e in r["errors"]],
        "problems": [],
        "metrics": metrics,
        "info": info,
        "environment": records[0]["environment"],
    }
    return summary, {"records": records}


def _layer_metrics(record: dict, untraced_seconds: float) -> Dict[str, float]:
    trace = record["trace"]
    self_s, counters, samples = trace["self_s"], trace["counters"], trace["samples"]
    metrics: Dict[str, float] = {}
    for name in SPAN_METRICS:
        metrics[f"{name}_s"] = self_s.get(name, 0.0)
    metrics["runner.overhead_s"] = self_s.get("runner.run", 0.0)
    metrics["other_s"] = trace["other_s"]
    for name, _ in COUNTERS:
        metrics[name] = counters.get(name, 0)
    netsim_s = self_s.get("netsim.sample", 0.0)
    metrics["netsim.events_per_s"] = (
        counters.get("netsim.events", 0) / netsim_s if netsim_s > 0 else 0.0
    )
    requests = sum(
        counters.get(f"core.factorization_{key}", 0)
        for key in ("hits", "misses", "updates", "downdates")
    )
    metrics["core.factorization_hit_ratio"] = (
        counters.get("core.factorization_hits", 0) / requests if requests else 0.0
    )
    for kind in ("refresh", "steady"):
        values = samples.get(f"monitor.{kind}_ms", [])
        metrics[f"monitor.{kind}_ms_p50"] = median(values) if values else 0.0
    metrics["trace.wall_s"] = record["window_s"]
    metrics["trace.coverage"] = trace["coverage"]
    metrics["trace.overhead"] = record["seconds"] / untraced_seconds - 1.0
    return metrics


def traced(name: str, seed: int, deadline: float) -> Tuple[dict, dict]:
    """``--trace 1``: per-layer metrics from two traced runs checked against an untraced one."""
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{name}-seed{seed}.jsonl"
    untraced_run = spawn(name, seed, 0, deadline)
    first = spawn(name, seed, 0, deadline, trace=True, spans=spans)
    second = spawn(name, seed, 0, deadline, trace=True)
    runs = (untraced_run, first, second)

    problems = []
    for key in ("digest", "detection_rates", "false_positive_rates"):
        if not all(run[key] == untraced_run[key] for run in runs):
            problems.append(f"traced and untraced runs differ in {key}")
    if first["trace"]["counters"] != second["trace"]["counters"]:
        changed = sorted(
            key for key in set(first["trace"]["counters"]) | set(second["trace"]["counters"])
            if first["trace"]["counters"].get(key) != second["trace"]["counters"].get(key)
        )
        problems.append(f"counters differ across two runs of one seed: {changed}")
    for run in (first, second):
        problems.extend(run["trace"]["failures"])

    summary = {
        "attempted": sum(run["ops"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "errors": [e for run in runs for e in run["errors"]],
        "problems": problems,
        "metrics": _layer_metrics(first, untraced_run["seconds"]),
        "info": {
            "missing_targets": first["trace"]["missing"],
            "spans": first["trace"]["spans"],
            "spans_file": str(spans.relative_to(ROOT)),
            "self_s": first["trace"]["self_s"],
        },
        "environment": untraced_run["environment"],
    }
    return summary, {"records": list(runs)}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    started = time.monotonic()
    try:
        if trace:
            summary, detail = traced(name, seed, deadline)
        else:
            summary, detail = measure(name, seed, seconds, deadline)
    except WorkerFailed as error:
        summary = {
            "attempted": 1, "failed": 1, "errors": [str(error)], "problems": [],
            "metrics": {}, "info": {}, "environment": {},
        }
        detail = {}
    summary["environment"] = stamp(summary["environment"])
    summary["wall_s"] = time.monotonic() - started
    summary["correct"] = (
        summary["failed"] == 0 and not summary["problems"] and bool(summary["metrics"])
    )
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps({**summary, **detail}, indent=1, default=str) + "\n")
    return summary


def _info_unit(key: str) -> Optional[Tuple[str, str]]:
    """Unit and direction of a reported, ungated figure."""
    if key.endswith("_per_s"):
        return "1/s", "higher"
    if "_ms_" in key:
        return "ms", "lower"
    if key.endswith("_s"):
        return "s", "lower"
    if key == "false_positive_rate":
        return "fraction", "lower"
    return None


def report(name: str, summary: dict, trace: bool) -> None:
    """Human-readable lines: environment, metrics with unit and direction, checks."""
    print(f"== {name} ({'traced' if trace else 'untraced'}, {summary['wall_s']:.1f} s) ==")
    print("environment: " + json.dumps(summary["environment"], sort_keys=True))
    units = {n: (u, b) for n, u, b in (PER_LAYER if trace else END_TO_END)}
    for key, value in summary["metrics"].items():
        unit, better = units[key]
        print(f"  {key:32s} {value:14.6g} {unit:9s} {better}")
    for key, value in summary["info"].items():
        unit = _info_unit(key)
        if unit is not None and isinstance(value, float):
            print(f"  {key:32s} {value:14.6g} {unit[0]:9s} {unit[1]}, not gated")
        elif key != "self_s":
            print(f"  ({key}: {value})")
    print(f"  attempted {summary['attempted']}, failed {summary['failed']}")
    for line in (summary["problems"] + summary["errors"])[:10]:
        print(f"  CHECK FAILED: {line}")


def result_line(summary: dict, trace: bool) -> dict:
    units = {n: u for n, u, _ in (PER_LAYER if trace else END_TO_END)}
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            key: {"value": value, "unit": units[key]}
            for key, value in summary["metrics"].items()
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    trace = bool(args.trace)
    results = {}
    for name in names:
        summary = run_workload(name, args.seed, args.seconds, trace)
        report(name, summary, trace)
        results[name] = result_line(summary, trace)
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{key}": metric
                for name, r in results.items() for key, metric in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
