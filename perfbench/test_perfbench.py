"""Tests of the benchmark's own logic (not of the program it measures).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import speed  # noqa: E402
from stats import nearest_rank, tail, tail_percentile  # noqa: E402
from tracing import Span, Target, Tracer, coverage, layer_of, self_times  # noqa: E402
from workloads import WORKLOADS, input_seed  # noqa: E402


class FakeClock:
    """A clock the test advances by hand."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _beyond(count: int, percentile: int) -> int:
    rank = max(1, -(-percentile * count // 100))
    return count - rank


# -- the tail rule ------------------------------------------------------------


def test_tail_percentile_is_the_highest_with_ten_samples_beyond():
    for count in range(11, 3000):
        p = tail_percentile(count)
        assert _beyond(count, p) >= 10, count
        if p < 99:
            assert _beyond(count, p + 1) < 10, count


@pytest.mark.parametrize(
    "count, expected", [(0, None), (10, None), (11, 9), (100, 90), (1000, 99), (1050, 99)]
)
def test_tail_percentile_values(count, expected):
    assert tail_percentile(count) == expected


def test_tail_uses_nearest_rank():
    values = list(range(1, 1001))  # 1..1000
    assert tail(values) == (99, 990)
    assert tail(values[:10]) == (None, None)
    assert nearest_rank([5.0, 1.0, 3.0], 50) == 3.0
    assert nearest_rank([5.0, 1.0, 3.0], 0) == 1.0


# -- spans: self time, other, coverage ----------------------------------------


def _nested_trace():
    clock = FakeClock()
    tracer = Tracer("t", clock=clock)
    with tracer.span("runner.run"):
        clock.now += 1.0
        with tracer.span("experiments.trial"):
            clock.now += 0.5
            with tracer.span("core.phase1"):
                clock.now += 2.0
                with tracer.span("core.pairs"):
                    clock.now += 0.25
            clock.now += 0.25
        clock.now += 1.0
    clock.now += 3.0  # covered by no span
    return tracer, clock.now


def test_self_time_subtracts_child_spans():
    tracer, _ = _nested_trace()
    times = self_times(tracer.spans)
    assert times == pytest.approx(
        {
            "runner.run": 2.0,
            "experiments.trial": 0.75,
            "core.phase1": 2.0,
            "core.pairs": 0.25,
        }
    )
    parents = {span.name: span.parent for span in tracer.spans}
    ids = {span.name: span.id for span in tracer.spans}
    assert parents["core.pairs"] == ids["core.phase1"]
    assert parents["runner.run"] is None


def test_self_time_sums_repeated_names():
    spans = [
        Span(0, None, "core.phase2", 0.0, 1.0, "r"),
        Span(1, 0, "core.reduce", 0.2, 0.5, "r"),
        Span(2, None, "core.phase2", 2.0, 2.5, "r"),
    ]
    assert self_times(spans) == pytest.approx({"core.phase2": 1.2, "core.reduce": 0.3})


def test_other_is_uncovered_time_plus_non_layer_spans():
    tracer, wall = _nested_trace()
    other, covered = coverage(tracer.spans, wall)
    # 3.0 s outside every span plus the trial's own 0.75 s.
    assert other == pytest.approx(3.75)
    assert covered == pytest.approx(4.25 / 8.0)
    assert layer_of("experiments.trial") == "other"
    assert layer_of("core.phase1") == "core"


def test_spans_are_written_relative_to_the_trace_start(tmp_path):
    tracer, _ = _nested_trace()
    path = tmp_path / "spans.jsonl"
    tracer.write_spans(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert [r["name"] for r in records][:2] == ["runner.run", "experiments.trial"]
    assert records[0]["start"] == 0.0 and records[0]["end"] == 8.0 - 3.0
    assert {r["run"] for r in records} == {"t"}


# -- wrapping -----------------------------------------------------------------


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("perfbench_fake_target")

    def compute(x):
        return [x, x]

    class Engine:
        @classmethod
        def build(cls, n):
            return cls, n

        def run(self, experiment, trial_fn, items):
            return [trial_fn(item) for item in items]

    module.compute = compute
    module.Engine = Engine
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def test_missing_target_is_reported_not_raised(fake_module):
    tracer = Tracer("t")
    tracer.install(
        [
            Target("perfbench_no_such_module", "compute", "core.x"),
            Target(fake_module.__name__, "no_such_function", "core.x"),
            Target(fake_module.__name__, "Engine.no_such_method", "core.x"),
            Target(fake_module.__name__, "compute", "core.x"),
        ]
    )
    assert tracer.missing == [
        "perfbench_no_such_module:compute",
        f"{fake_module.__name__}:no_such_function",
        f"{fake_module.__name__}:Engine.no_such_method",
    ]
    assert fake_module.compute(3) == [3, 3]
    assert [span.name for span in tracer.spans] == ["core.x"]
    tracer.uninstall()


def test_patch_counts_and_uninstall_restores(fake_module):
    original_compute = fake_module.compute
    original_build = fake_module.Engine.__dict__["build"]

    def count(tracer, *args, **kwargs):
        def finish(result, span):
            tracer.counters["core.items"] += len(result)
        return finish

    tracer = Tracer("t")
    tracer.install(
        [
            Target(fake_module.__name__, "compute", "core.compute", count),
            Target(fake_module.__name__, "Engine.build", "core.build"),
        ]
    )
    assert fake_module.compute(1) == [1, 1]
    assert fake_module.Engine.build(4) == (fake_module.Engine, 4)
    assert tracer.counters["core.items"] == 2
    assert [span.name for span in tracer.spans] == ["core.compute", "core.build"]
    tracer.uninstall()
    assert fake_module.compute is original_compute
    assert fake_module.Engine.__dict__["build"] is original_build


def test_runner_rewrite_makes_trials_child_spans(fake_module):
    from tracing import _trace_trials

    tracer = Tracer("t")
    tracer.install(
        [Target(fake_module.__name__, "Engine.run", "runner.run", rewrite=_trace_trials)]
    )
    engine = fake_module.Engine()
    assert engine.run("e", lambda item: item * 2, [1, 2, 3]) == [2, 4, 6]
    assert engine.run("e", trial_fn=lambda item: -item, items=[4]) == [-4]
    tracer.uninstall()
    names = [span.name for span in tracer.spans]
    assert names == ["runner.run"] + ["experiments.trial"] * 3 + [
        "runner.run", "experiments.trial"
    ]
    assert [span.parent for span in tracer.spans] == [None, 0, 0, 0, None, 4]


# -- the benchmark's definition -------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(
        run.END_TO_END
    )
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(
        run.PER_LAYER
    )
    assert next(m for m in spec["end_to_end"] if m["name"] == "setup_s")["bound"] == max(
        m["bound"] for m in spec["end_to_end"]
    )


def test_input_seeds_are_fixed_by_the_run_seed():
    assert input_seed(1, "fig5-small", 0, 0) == input_seed(1, "fig5-small", 0, 0)
    assert input_seed(1, "fig5-small", 0, 0) != input_seed(2, "fig5-small", 0, 0)
    assert 0 <= input_seed(7, "x") < 2**31


def test_monitor_truth_is_fixed_and_the_seed_draws_the_probes(monkeypatch):
    """Every run seed sees a process's congestion truth; the probe outcomes differ."""
    np = pytest.importorskip("numpy")
    monkeypatch.syspath_prepend(str(HERE.parent / "src"))
    workload = WORKLOADS["monitor-stream"]
    monkeypatch.setattr(workload, "tree_nodes", 80)
    workload.load()
    streams = {}
    for seed, process in ((5, 1), (6, 1), (5, 2)):
        workload.prepare(seed, process)
        streams[seed, process] = workload.simulate(10) + workload.simulate(20)
    for a, b in zip(streams[5, 1], streams[6, 1], strict=True):
        np.testing.assert_array_equal(a.truth.congested, b.truth.congested)
    assert any(
        not np.array_equal(a.path_transmission, b.path_transmission)
        for a, b in zip(streams[5, 1], streams[6, 1])
    )
    assert any(
        not np.array_equal(a.truth.congested, b.truth.congested)
        for a, b in zip(streams[5, 1], streams[5, 2])
    )
    # The truth churns over the stream, as a persistent campaign's does.
    first, *rest = streams[5, 1]
    assert any(not np.array_equal(first.truth.congested, s.truth.congested) for s in rest)


def test_gauge_scales_each_stretch_by_the_references_around_it(monkeypatch):
    loops = iter([0.02, 0.06, 0.04])
    monkeypatch.setattr(speed, "reference_s", lambda: next(loops))
    gauge = speed.Gauge()
    gauge.reference()
    gauge.add(1.0)
    gauge.add(1.0)
    gauge.reference()
    gauge.add(3.0)
    gauge.reference()
    assert gauge.seconds == 5.0
    assert gauge.references == [0.02, 0.06, 0.04]
    nominal = speed.NOMINAL_S
    assert gauge.scaled_seconds == pytest.approx(2.0 * nominal / 0.04 + 3.0 * nominal / 0.05)


def test_disabled_gauge_only_sums():
    gauge = speed.Gauge(enabled=False)
    gauge.reference()
    gauge.add(2.0)
    gauge.reference()
    assert (gauge.seconds, gauge.scaled_seconds, gauge.references) == (2.0, 0.0, [])
