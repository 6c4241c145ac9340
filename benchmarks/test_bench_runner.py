"""Benchmarks of the parallel sharded runner itself.

Times the fig8 sweep (the widest trial grid at tiny scale) through the
sequential backend, the cache-hit path that production sweeps lean on
(a warmed cache must make a re-run dramatically cheaper than executing,
because sweep iteration is exactly re-running with overlap), and the
streaming JSONL store (the spill-to-disk overhead buys flat peak RSS — see
``scripts/bench_store_memory.py`` for the RSS side of the trade).
"""

from __future__ import annotations

from benchmarks.conftest import run_once
from repro.experiments import EXPERIMENTS
from repro.runner import ParallelRunner


def test_runner_sequential_fig8(benchmark):
    runner = ParallelRunner(n_jobs=1)
    result = run_once(
        benchmark, EXPERIMENTS["fig8"], scale="tiny", seed=0, runner=runner
    )
    assert runner.last_stats.trials_executed == runner.last_stats.trials_total
    assert result.data["p_sweep"]


def test_runner_streamed_store_fig8(benchmark, tmp_path):
    runner = ParallelRunner(n_jobs=1, store_dir=tmp_path)
    result = run_once(
        benchmark, EXPERIMENTS["fig8"], scale="tiny", seed=0, runner=runner
    )
    assert runner.last_stats.trials_executed == runner.last_stats.trials_total
    assert result.data["p_sweep"]
    assert list(tmp_path.glob("fig8-*.jsonl"))


def test_runner_cache_hit_replay(benchmark, tmp_path):
    warm = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
    EXPERIMENTS["fig8"](scale="tiny", seed=0, runner=warm)
    assert warm.last_stats.trials_executed > 0

    replay = ParallelRunner(n_jobs=1, cache_dir=tmp_path)
    run_once(
        benchmark, EXPERIMENTS["fig8"], scale="tiny", seed=0, runner=replay
    )
    assert replay.last_stats.trials_executed == 0
    assert replay.last_stats.trials_cached == replay.last_stats.trials_total
