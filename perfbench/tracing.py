"""Outside-in span tracing of the pipeline's public calls.

The traced worker wraps the public functions listed in :data:`TARGETS`.
Each name is patched in the module that calls it, so the program's own
control flow runs unchanged and only the traced process pays for the
spans.  A span records its name, start, end, parent and the run id;
spans stay in memory and are written out when the run ends.

A span's *self time* is its duration minus the time of its child spans.
Self time is summed per span name; the first component of the name is
its layer.  Time no layer span covers is ``other``.

A target that no longer exists is listed in :attr:`Tracer.missing`, not
raised: the benchmark must keep running while the program changes.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

#: The program's modules on the hot path; anything else is ``other``.
LAYERS = (
    "topology", "lossmodel", "probing", "netsim", "core", "api", "runner", "monitor",
)


@dataclass
class Span:
    id: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    run: str

    @property
    def duration(self) -> float:
        return self.end - self.start


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "other"


def self_times(spans: Sequence[Span]) -> Dict[str, float]:
    """Summed self time per span name: duration minus child durations."""
    children: Dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            children[span.parent] += span.duration
    totals: Dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += span.duration - children[span.id]
    return dict(totals)


def coverage(spans: Sequence[Span], wall: float) -> Tuple[float, float]:
    """``(other_s, covered share)`` of a traced window of *wall* seconds.

    Covered time is the self time of spans that belong to a layer;
    ``other`` is everything else: non-layer spans and time no span covers.
    """
    covered = sum(
        seconds for name, seconds in self_times(spans).items()
        if layer_of(name) != "other"
    )
    return wall - covered, (covered / wall if wall > 0 else 0.0)


class Tracer:
    """In-memory span recorder with counters and per-call samples."""

    def __init__(self, run: str, clock: Callable[[], float] = time.perf_counter):
        self.run = run
        self.clock = clock
        self.spans: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.missing: List[str] = []
        self.failures: List[str] = []
        #: Objects whose own counters are read when the run ends, by id.
        self.engines: Dict[int, object] = {}
        self.monitors: Dict[int, object] = {}
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []
        self.started = clock()

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(len(self.spans), parent, name, self.clock(), math.nan, self.run)
        self.spans.append(record)
        self._stack.append(record.id)
        try:
            yield record
        finally:
            self._stack.pop()
            record.end = self.clock()

    def wrap(
        self,
        fn: Callable,
        name: str,
        hook: Optional[Callable] = None,
        rewrite: Optional[Callable] = None,
    ) -> Callable:
        """*fn* timed as span *name*.

        ``hook(tracer, *args, **kwargs)`` runs before the call and may
        return ``finish(result, span)``, run after the span closes, so its
        bookkeeping is charged to the caller rather than to the span.
        ``rewrite(tracer, args, kwargs)`` returns the arguments to call with.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if rewrite is not None:
                args, kwargs = rewrite(self, args, kwargs)
            finish = hook(self, *args, **kwargs) if hook is not None else None
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if finish is not None:
                finish(result, record)
            return result

        return traced

    def patch(self, target: "Target") -> bool:
        """Replace ``module.attribute`` (``Class.method`` allowed) by a traced wrapper."""
        try:
            owner = importlib.import_module(target.module)
            *path, leaf = target.attribute.split(".")
            for part in path:
                owner = getattr(owner, part)
            raw = inspect.getattr_static(owner, leaf)
        except (ImportError, AttributeError):
            self.missing.append(f"{target.module}:{target.attribute}")
            return False
        wrap = functools.partial(
            self.wrap, name=target.span, hook=target.hook, rewrite=target.rewrite
        )
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(wrap(raw.__func__))
        else:
            replacement = wrap(raw)
        self._patches.append((owner, leaf, owner.__dict__.get(leaf, _ABSENT)))
        setattr(owner, leaf, replacement)
        return True

    def install(self, targets=None) -> None:
        for target in targets if targets is not None else TARGETS:
            self.patch(target)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, leaf, original = self._patches.pop()
            if original is _ABSENT:
                delattr(owner, leaf)
            else:
                setattr(owner, leaf, original)

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                record = asdict(span)
                record["start"] -= self.started
                record["end"] -= self.started
                out.write(json.dumps(record) + "\n")


_ABSENT = object()


@dataclass(frozen=True)
class Target:
    """One wrapped call: where it is looked up and what its span is named."""

    module: str
    attribute: str
    span: str
    hook: Optional[Callable] = None
    rewrite: Optional[Callable] = None


# -- hooks: exact counters read at the layer boundaries ----------------------


def _count_fluttering(tracer, *args, **kwargs):
    def finish(result, span):
        tracer.counters["topology.fluttering_pairs"] += len(result)
    return finish


def _count_removed(tracer, *args, **kwargs):
    def finish(result, span):
        tracer.counters["topology.paths_removed"] += len(result[1])
    return finish


def _count_link_slots(tracer, *args, **kwargs):
    def finish(result, span):
        tracer.counters["lossmodel.link_slots"] += int(result.size)
    return finish


def _count_snapshots(tracer, *args, **kwargs):
    def finish(result, span):
        tracer.counters["probing.snapshots"] += 1
    return finish


def _count_events(tracer, process, *args, **kwargs):
    def finish(result, span):
        trace = process.last_trace
        tracer.counters["netsim.events"] += int(trace.events)
        tracer.counters["netsim.probe_drops"] += int(trace.probe_drops)
    return finish


def _count_pairs(tracer, *args, **kwargs):
    def finish(result, span):
        tracer.counters["core.pair_equations"] += int(result.num_pairs)
    return finish


def _phase1(tracer, *args, **kwargs):
    if args and hasattr(args[0], "cache_info"):
        tracer.engines.setdefault(id(args[0]), args[0])

    def finish(result, span):
        tracer.counters["core.phase1_calls"] += 1
        tracer.counters["core.phase1_unknowns"] += int(result.variances.size)
    return finish


def _reduce(tracer, engine, *args, **kwargs):
    tracer.engines.setdefault(id(engine), engine)

    def finish(result, span):
        tracer.counters["core.kept_columns"] += len(result.kept_columns)
    return finish


def _check_finite(tracer, rates, what: str) -> None:
    if not np.isfinite(rates).all():
        tracer.failures.append(f"non-finite {what}")


def _infer(tracer, engine, *args, **kwargs):
    tracer.engines.setdefault(id(engine), engine)

    def finish(result, span):
        results = result if isinstance(result, list) else [result]
        for one in results:
            _check_finite(tracer, one.loss_rates, "LIA estimate")
    return finish


def _trace_trials(tracer, args, kwargs):
    """Swap ``ParallelRunner.run``'s trial function for a traced one.

    Each trial then is a child span, so the runner's self time is its own
    overhead: sharding, payload normalisation and the result store.
    """
    if "trial_fn" in kwargs:
        kwargs = dict(kwargs, trial_fn=tracer.wrap(kwargs["trial_fn"], "experiments.trial"))
    else:
        args = args[:2] + (tracer.wrap(args[2], "experiments.trial"),) + args[3:]
    return args, kwargs


def _observe(tracer, monitor, *args, **kwargs):
    tracer.monitors.setdefault(id(monitor), monitor)
    before = monitor.variance_refreshes

    def finish(report, span):
        kind = "refresh" if monitor.variance_refreshes > before else "steady"
        tracer.samples[f"monitor.{kind}_ms"].append(span.duration * 1e3)
        if report.loss_rates is not None:
            tracer.counters["monitor.localizations"] += 1
            _check_finite(tracer, report.loss_rates, "monitor estimate")
    return finish


#: Every wrapped call.  A name is patched where it is *called*: the
#: ``intersecting_pairs`` imports of the engine, phase 1 and the delay
#: estimator, the topology front end's imports in ``repro.topology.prepare``.
TARGETS = (
    Target("repro.topology.prepare", "make_topology", "topology.generate"),
    Target("repro.topology.prepare", "build_paths", "topology.paths"),
    Target("repro.topology.routing", "RoutingMatrix.from_paths", "topology.routing"),
    Target("repro.topology.prepare", "find_fluttering_pairs", "topology.fluttering",
           _count_fluttering),
    Target("repro.topology.prepare", "remove_fluttering_paths", "topology.fluttering",
           _count_removed),
    Target("repro.lossmodel.gilbert", "GilbertProcess.sample_states", "lossmodel.sample",
           _count_link_slots),
    Target("repro.probing.prober", "ProbingSimulator.run_campaign", "probing.campaign"),
    # The monitor's stream is simulated a snapshot at a time; inside a
    # campaign these are child spans of the same name, so the name's self
    # time is the probing layer's either way.
    Target("repro.probing.prober", "ProbingSimulator.run_snapshot", "probing.campaign",
           _count_snapshots),
    Target("repro.lossmodel.congestion", "CongestionLossProcess.sample_states",
     "netsim.sample", _count_events),
    Target("repro.core.engine", "intersecting_pairs", "core.pairs", _count_pairs),
    Target("repro.core.variance", "intersecting_pairs", "core.pairs", _count_pairs),
    Target("repro.delay.inference", "intersecting_pairs", "core.pairs", _count_pairs),
    Target("repro.core.engine", "InferenceEngine.learn_variances", "core.phase1", _phase1),
    Target("repro.monitor.online", "estimate_link_variances_from_moments", "core.phase1",
           _phase1),
    Target("repro.core.engine", "InferenceEngine.reduce", "core.reduce", _reduce),
    Target("repro.core.engine", "InferenceEngine.infer", "core.phase2", _infer),
    Target("repro.core.engine", "InferenceEngine.infer_batch", "core.phase2", _infer),
    Target("repro.api.scenario", "Scenario.evaluate", "api.evaluate"),
    Target("repro.runner.core", "ParallelRunner.run", "runner.run", rewrite=_trace_trials),
    Target("repro.monitor.online", "OnlineLossMonitor.observe", "monitor.observe", _observe),
)
