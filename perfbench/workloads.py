"""The benchmark's workloads: what one fresh process sets up and measures.

Why each workload exists, which layer each should stress and the shares
measured when the benchmark was defined are in ``WORKLOADS.md`` beside
this file.  The program is reached only through its public API, the way
the experiment modules and ``examples/`` use it; this module imports
``repro`` lazily, so the orchestrator can read the workload table
without loading the program.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from statistics import fmean
from dataclasses import dataclass, field
from typing import Any, List, Optional

from speed import Gauge

#: Fresh worker processes per measured run; ``setup_s`` is their median.
PROCESSES = 3


def input_seed(seed: int, *parts: object) -> int:
    """A 31-bit input seed derived from the run seed by the benchmark itself.

    The benchmark owns this derivation, so a program change to its own
    seed helpers cannot change the benchmark's inputs.
    """
    text = "/".join(str(part) for part in (seed, *parts))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "big") >> 1


@dataclass
class Measured:
    """What one process measured: operations, latencies and answers."""

    ops: int = 0
    failed: int = 0
    seconds: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    #: Per scored unit: each trial of the process's first command, or each
    #: warm snapshot that returned rates; fixed for a seed.
    detection_rates: List[float] = field(default_factory=list)
    false_positive_rates: List[float] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    digest: str = ""
    #: Monitor only: whether each observe re-learned variances.
    refreshed: List[bool] = field(default_factory=list)
    #: ``seconds`` at nominal machine speed (``speed.Gauge``); ``None`` when traced.
    scaled_seconds: Optional[float] = None
    #: Times of the machine-speed reference loop taken between operations.
    reference_s: List[float] = field(default_factory=list)


def _finite(value: Any) -> bool:
    """True when every number in a nested payload is finite."""
    import numpy as np

    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, (int, float, np.ndarray, np.number)):
        return bool(np.isfinite(value).all())
    return True


def _canonical(value: Any) -> Any:
    if hasattr(value, "tolist"):
        return value.tolist()
    raise TypeError(f"cannot digest {type(value).__name__}")


class Campaign:
    """An experiment module's ``run(scale="small", seed=…)``, closed loop and serial.

    One *operation* is one experiment trial.  The runner is what ``repro
    experiments <id>`` uses by default: ``ParallelRunner`` with the serial
    backend, no cache and the in-memory store.  Its backend is the serial
    one, subclassed only to timestamp each finished trial.
    """

    kind = "campaign"

    def __init__(
        self,
        name: str,
        module: str,
        why: str,
        warmup: dict,
        traced_commands: int,
        processes: int = PROCESSES,
    ):
        self.name = name
        #: Worker processes of a measured run.
        self.processes = processes
        self.module_name = module
        self.why = why
        #: Params of the one trial run untimed in setup.
        self.warmup = warmup
        #: Commands of the traced run, whose counters must repeat exactly.
        self.traced_commands = traced_commands

    def load(self) -> None:
        from repro.runner.backends import SerialBackend

        self.module = importlib.import_module(self.module_name)

        class TimedSerialBackend(SerialBackend):
            """The serial backend, recording each trial's wall time.

            The speed reference loop runs after each trial, outside its time.
            """

            def __init__(self, gauge: Gauge):
                super().__init__()
                self.gauge = gauge
                self.latencies_ms: List[float] = []

            def run_shards(self, trial_fn, shards):
                start = time.perf_counter()
                for item in super().run_shards(trial_fn, shards):
                    latency = time.perf_counter() - start
                    self.latencies_ms.append(latency * 1e3)
                    self.gauge.add(latency)
                    self.gauge.reference()
                    yield item
                    start = time.perf_counter()

        self._backend_type = TimedSerialBackend

    def prepare(self, seed: int, process: int) -> None:
        """Warm-up: one trial, untimed.

        It loads lazy imports and takes the process through its first
        dense solves of the measured size; in some fresh processes those
        stall on waking OpenBLAS threads, and the stall belongs to setup.
        """
        from repro.runner import TrialSpec

        self.seed, self.process = seed, process
        self.module.trial(
            TrialSpec(
                self.name, 0, seed=input_seed(seed, self.name, "warmup", process),
                params=self.warmup,
            )
        )

    def measure(self, budget_s: Optional[float], reference: bool = True) -> Measured:
        """Run commands until *budget_s* has been measured, or ``traced_commands`` when ``None``.

        With *reference*, the speed reference loop runs before the first
        trial and after every trial, outside the measured time.
        """
        from repro.runner import ParallelRunner

        out = Measured()
        gauge = Gauge(enabled=reference)
        gauge.reference()
        self._results = []
        while True:
            backend = self._backend_type(gauge)
            runner = ParallelRunner(n_jobs=1, backend=backend)
            run_seed = input_seed(self.seed, self.name, self.process, len(self._results))
            in_loop = gauge.reference_total
            start = time.perf_counter()
            try:
                result = self.module.run(scale="small", seed=run_seed, runner=runner)
            except Exception as error:  # failed operations; the loop goes on
                result = f"{type(error).__name__}: {error}"
            command_s = time.perf_counter() - start - (gauge.reference_total - in_loop)
            # The command's time outside its trials: the runner's and the
            # experiment's own work.
            gauge.add(command_s - sum(backend.latencies_ms) / 1e3)
            trials = runner.last_stats.trials_total or 1
            self._results.append((run_seed, trials, result))
            out.ops += trials
            out.latencies_ms.extend(backend.latencies_ms)
            if budget_s is None:
                if len(self._results) >= self.traced_commands:
                    break
            elif gauge.seconds >= budget_s:
                break
        gauge.reference()
        out.seconds = gauge.seconds
        if reference:
            out.scaled_seconds, out.reference_s = gauge.scaled_seconds, gauge.references
        return out

    def score(self, out: Measured) -> None:
        """Check every command's output; score the first one's answers."""
        digest = hashlib.sha256()
        for command, (run_seed, trials, result) in enumerate(self._results):
            if isinstance(result, str):
                problems = [result]
            else:
                problems = self.check(result.data)
                digest.update(result.render().encode())
                digest.update(
                    json.dumps(result.data, default=_canonical, sort_keys=True).encode()
                )
                if command == 0:
                    dr, fpr = self.accuracy(result.data)
                    out.detection_rates.extend(dr)
                    out.false_positive_rates.extend(fpr)
            if problems:
                out.failed += trials
                out.errors.extend(f"seed {run_seed}: {p}" for p in problems)
        out.digest = digest.hexdigest()

    def check(self, data: dict) -> List[str]:
        return [] if _finite(data) else ["non-finite value in the experiment payload"]

    def accuracy(self, data: dict):
        raise NotImplementedError


class Fig5(Campaign):
    def accuracy(self, data):
        m = max(data["grid"])
        return data["lia_dr"][m], data["lia_fpr"][m]

    def check(self, data):
        problems = super().check(data)
        m = max(data["grid"])
        lia_dr, lia_fpr = fmean(data["lia_dr"][m]), fmean(data["lia_fpr"][m])
        scfs_dr, scfs_fpr = fmean(data["scfs_dr"]), fmean(data["scfs_fpr"])
        if not (lia_dr > scfs_dr and lia_fpr < scfs_fpr):
            problems.append(
                f"LIA does not beat SCFS at m={m}: DR {lia_dr:.3f} vs {scfs_dr:.3f}, "
                f"FPR {lia_fpr:.3f} vs {scfs_fpr:.3f}"
            )
        return problems


class Table2(Campaign):
    def accuracy(self, data):
        dr = [v for kind in data.values() for v in kind["dr"]]
        fpr = [v for kind in data.values() for v in kind["fpr"]]
        return dr, fpr


class Congestion(Campaign):
    def accuracy(self, data):
        return data["congestion"]["dr"], data["congestion"]["fpr"]


class MonitorStream:
    """A persistent-congestion probe stream replayed through ``OnlineLossMonitor``.

    One *operation* is one warm ``observe``.  Setup builds the tree
    deployment and draws each process's congestion truth (which links are
    congested, snapshot by snapshot), both the same for every run seed: the
    congested set fixes how many columns the reduction keeps, and so the
    size of every refresh's systems, which varied the cost of a stream by
    1.4x between seeds.  The run seed draws the probe outcomes.  Setup then
    simulates the start of this process's stream at packet fidelity and
    fills the monitor's window, which runs its first, cold refresh.  The rest of the stream is
    simulated in chunks, each observed back to back (closed loop) right
    after it is simulated, and scored at the end.
    """

    kind = "monitor"
    tree_nodes = 500
    #: The stream's truth keeps each link's congestion mark with this
    #: probability per snapshot (``ProberConfig.persistence``).  See
    #: WORKLOADS.md for why 0.99.
    persistence = 0.99
    #: Warm observes per process; 1800 per run give the p99 more than ten
    #: samples beyond.  450 per process spread 0.10 over ten seeds, 600 0.02.
    observes = 600
    #: Snapshots simulated, then observed, at a time.  Interleaving the
    #: untimed simulation with the timed replays spreads the measured
    #: observes over the whole process, so a drift in machine speed
    #: averages out over a run instead of landing on its last quarter.
    chunk = 100
    #: Probes per snapshot: the small scale's S, as in the other workloads.
    probes = 600

    def __init__(self, name: str, why: str):
        self.name = name
        self.why = why
        self.processes = PROCESSES

    def load(self) -> None:
        """Import everything ``prepare`` and ``score`` use, outside the traced window."""
        import repro.experiments.base  # noqa: F401
        import repro.lossmodel.assignment  # noqa: F401
        import repro.metrics  # noqa: F401
        import repro.monitor  # noqa: F401
        import repro.probing  # noqa: F401
        import repro.topology.prepare  # noqa: F401

    def prepare(self, seed: int, process: int) -> None:
        import numpy as np

        from repro.experiments.base import scale_params
        from repro.lossmodel import LLRD1
        from repro.monitor import OnlineLossMonitor
        from repro.probing import ProberConfig, ProbingSimulator
        from repro.topology.prepare import prepare_topology

        params = scale_params("small").sized(tree_nodes=self.tree_nodes)
        self.prepared = prepare_topology(
            "tree", params, input_seed(0, self.name, "topology")
        )
        self.simulator = ProbingSimulator(
            self.prepared.paths,
            self.prepared.topology.network.num_links,
            model=LLRD1,
            config=ProberConfig(
                probes_per_snapshot=self.probes,
                congestion_probability=0.10,
                fidelity="packet",
                truth_mode="persistent",
                persistence=self.persistence,
            ),
        )
        self._truth_rng = np.random.default_rng(input_seed(0, self.name, "truth", process))
        self._rng = np.random.default_rng(input_seed(seed, self.name, "stream", process))
        self._truth = None
        self.monitor = OnlineLossMonitor(self.prepared.routing)
        for snapshot in self.simulate(self.monitor.window):
            self.monitor.observe(snapshot)
        self.stream = []

    def simulate(self, count: int) -> list:
        """The stream's next *count* snapshots.

        ``ProbingSimulator.run_campaign``'s persistent-truth steps, taken a
        snapshot at a time so the stream can continue between timed
        replays, with the truth drawn from its own generator.
        """
        from repro.lossmodel.assignment import (
            draw_snapshot_truth,
            persistent_congestion_truth,
        )

        simulator, config = self.simulator, self.simulator.config
        snapshots = []
        for _ in range(count):
            if self._truth is None:
                self._truth = draw_snapshot_truth(
                    simulator.num_physical_links, config.congestion_probability,
                    simulator.model, seed=self._truth_rng,
                )
            else:
                self._truth = persistent_congestion_truth(
                    self._truth, simulator.model,
                    redraw_fraction=1.0 - config.persistence, seed=self._truth_rng,
                )
            snapshots.append(simulator.run_snapshot(seed=self._rng, truth=self._truth))
        return snapshots

    def measure(self, budget_s: Optional[float], reference: bool = True) -> Measured:
        """Replay the whole stream; its length, not *budget_s*, fixes the work.

        With *reference*, the speed reference loop runs before every timed
        chunk and after the last, outside the measured time.
        """
        monitor = self.monitor
        out = Measured()
        gauge = Gauge(enabled=reference)
        self._reports = []
        for _ in range(self.observes // self.chunk):
            chunk = self.simulate(self.chunk)
            gauge.reference()
            self.stream.extend(chunk)
            start = time.perf_counter()
            for snapshot in chunk:
                refreshes = monitor.variance_refreshes
                t0 = time.perf_counter()
                try:
                    report = monitor.observe(snapshot)
                except Exception as error:  # a failed operation; the stream goes on
                    report = f"{type(error).__name__}: {error}"
                out.latencies_ms.append((time.perf_counter() - t0) * 1e3)
                self._reports.append(report)
                out.refreshed.append(monitor.variance_refreshes > refreshes)
            gauge.add(time.perf_counter() - start)
        gauge.reference()
        out.seconds = gauge.seconds
        if reference:
            out.scaled_seconds, out.reference_s = gauge.scaled_seconds, gauge.references
        out.ops = len(self.stream)
        return out

    def score(self, out: Measured) -> None:
        """DR and FPR of every warm snapshot that returned rates."""
        import numpy as np

        from repro.lossmodel import LLRD1
        from repro.metrics import evaluate_location

        routing = self.prepared.routing
        digest = hashlib.sha256()
        for snapshot, report in zip(self.stream, self._reports):
            if isinstance(report, str):
                out.failed += 1
                out.errors.append(report)
                continue
            if report.loss_rates is None:
                continue
            if not np.isfinite(report.loss_rates).all():
                out.failed += 1
                out.errors.append(f"t={report.time_index}: non-finite loss rates")
                continue
            digest.update(report.loss_rates.tobytes())
            digest.update(repr([str(event) for event in report.events]).encode())
            outcome = evaluate_location(
                report.loss_rates, snapshot.virtual_congested(routing), routing,
                LLRD1.threshold,
            )
            out.detection_rates.append(outcome.detection_rate)
            out.false_positive_rates.append(outcome.false_positive_rate)
        out.digest = digest.hexdigest()


WORKLOADS = {
    w.name: w
    for w in (
        Fig5(
            "fig5-small",
            "repro.experiments.fig5_tree_accuracy",
            "the paper's headline figure; Gilbert sampling dominates; "
            "the control for netsim and monitor changes",
            warmup={"scale": "small", "grid": [10, 30, 50]},
            traced_commands=2,
        ),
        Table2(
            "table2-small",
            "repro.experiments.table2_mesh_accuracy",
            "six mesh kinds: the only workload where fluttering removal does real work",
            warmup={"scale": "small", "kind": "barabasi-albert"},
            traced_commands=1,
        ),
        Congestion(
            "congestion-small",
            "repro.experiments.congestion_vs_analytic",
            "the packet simulator does nearly all the work; a netsim change shows only here",
            # Its LIA systems are tiny; a tiny-scale trial loads the
            # simulator's code paths at a fraction of a small trial's cost.
            warmup={"scale": "tiny"},
            traced_commands=1,
            # One command (3 trials) per process.  A fourth process adds
            # samples where the run-to-run spread is widest; a fifth did
            # not narrow it further (0.093 against 0.088 over ten seeds).
            processes=4,
        ),
        MonitorStream(
            "monitor-stream",
            "online monitor on a 500-node tree: phase 1 from running moments, "
            "reduction and the factorization caches",
        ),
    )
}
