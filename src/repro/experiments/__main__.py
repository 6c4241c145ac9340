"""Command-line entry point for the experiment harness.

Examples::

    python -m repro.experiments fig5
    python -m repro.experiments table2 --scale paper --seed 7
    python -m repro.experiments all --scale tiny
    python -m repro.experiments fig8 --scale paper --jobs -1 \
        --cache-dir ~/.cache/repro-experiments
    python -m repro.experiments fig5 --jobs 4 --backend process \
        --store-dir /tmp/repro-results
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Optional, Sequence

from repro.experiments import EXPERIMENTS, SCALES
from repro.runner import ParallelRunner
from repro.runner.args import add_runner_arguments, runner_from_args


def run_experiments(
    names: Sequence[str],
    scale: str,
    seed: Optional[int],
    runner: ParallelRunner,
) -> None:
    """Run experiments in order, printing each result and runner stats.

    Every experiment — timing and duration included — routes its trials
    through ``runner.run()``, so ``last_stats`` always describes the
    experiment just printed.
    """
    for name in names:
        start = time.perf_counter()
        result = EXPERIMENTS[name](scale=scale, seed=seed, runner=runner)
        elapsed = time.perf_counter() - start
        print(result.render())
        stats = runner.last_stats
        print(
            f"[{name} finished in {elapsed:.1f}s: "
            f"{stats.trials_executed} trials executed, "
            f"{stats.trials_cached} recalled from cache, "
            f"backend={runner.backend.name}, jobs={runner.n_jobs}]"
        )
        print()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=sorted(EXPERIMENTS) + ["all"],
        help="experiment id (table/figure number) or 'all'",
    )
    parser.add_argument(
        "--scale",
        choices=SCALES,
        default="small",
        help="parameter preset: tiny (smoke), small (minutes), paper",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")
    add_runner_arguments(parser)
    args = parser.parse_args(argv)

    names = sorted(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    run_experiments(names, args.scale, args.seed, runner_from_args(args))
    return 0


if __name__ == "__main__":
    sys.exit(main())
