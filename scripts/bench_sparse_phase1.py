#!/usr/bin/env python
"""10k-link phase-1 bench: the sparse normal equations vs the dense Gram matrix.

Solves the phase-1 system ``Sigma_hat* = A v`` over a topology from the
repo's own generator at a scale — 10 000 virtual links by default —
where the historical dense normal-equation path would allocate an
800 MB ``A^T A`` before factorizing.  ``A`` is the real
intersecting-pairs matrix of a ``tree_nodes = links + 1`` random tree
(~10k paths, several million covariance equations); ``b`` is planted as
``A v_true`` plus observation noise, the shape phase 1 sees after
covariance estimation and negative-equation filtering.  Each solve
runs in a fresh subprocess so ``ru_maxrss`` is an honest per-solver
high-water mark, mirroring ``scripts/bench_store_memory.py``:

* **sparse** — CSC ``A^T A`` + SuperLU
  (`repro.core.variance.solve_normal_sparse`), the path
  ``"wls"``/``"normal"`` take above ``SPARSE_AUTO_THRESHOLD`` columns;
* **normal-dense** — the dense path ``"normal"`` takes below the
  threshold, run at ``--verify-links`` (not the full size) both as a
  timing reference and to assert the sparse solution matches it within
  1e-8 relative error.

The report prints build time, solve time, peak RSS and the relative
error versus the planted ``v_true`` per solver; under GitHub Actions it
appends the same table to ``$GITHUB_STEP_SUMMARY``.  The headline
acceptance: the sparse path completes the 10k-link solve without ever
materializing a dense ``n_c x n_c`` Gram matrix.

Usage::

    python scripts/bench_sparse_phase1.py [--links 10000]
    python scripts/bench_sparse_phase1.py --mode sparse   # child entry
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time

#: Child-mode solve paths.
SOLVERS = ("sparse", "normal-dense")


def build_system(num_links: int, seed: int):
    """The phase-1 system of a ``num_links``-link random tree.

    Returns ``(A, b, v_true, build_seconds)``: ``A`` is the
    intersecting-pairs matrix of the generated topology's routing matrix
    and ``b = A v_true + noise`` with loss-variance-scaled ``v_true``.
    """
    import numpy as np

    from repro.core.augmented import intersecting_pairs
    from repro.experiments.base import prepare_topology, scale_params

    start = time.perf_counter()
    params = scale_params("paper").sized(tree_nodes=num_links + 1)
    prepared = prepare_topology("tree", params, seed)
    pairs = intersecting_pairs(prepared.routing.matrix)
    build_seconds = time.perf_counter() - start

    rng = np.random.default_rng(seed + 1)
    v_true = rng.uniform(0.001, 0.1, size=pairs.num_links)
    b = pairs.matrix @ v_true + rng.normal(0.0, 1e-8, size=pairs.num_pairs)
    return pairs.matrix, b, v_true, build_seconds


def run_child(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.core.variance import _solve, solve_normal_sparse

    dense = args.mode == "normal-dense"
    num_links = args.verify_links if dense else args.links
    A, b, v_true, build_seconds = build_system(num_links, args.seed)

    start = time.perf_counter()
    v = _solve(A, b, "normal") if dense else solve_normal_sparse(A, b)
    elapsed = time.perf_counter() - start

    relative_error = float(np.linalg.norm(v - v_true) / np.linalg.norm(v_true))
    # ru_maxrss is KiB on Linux but bytes on macOS.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    peak_mib = peak / (1024.0 * 1024.0) if sys.platform == "darwin" else peak / 1024.0
    print(
        json.dumps(
            {
                "mode": args.mode,
                "links": num_links,
                "equations": int(A.shape[0]),
                "build_s": build_seconds,
                "elapsed_s": elapsed,
                "peak_rss_mib": peak_mib,
                "relative_error": relative_error,
            }
        )
    )
    return 0


def verify_agreement(args: argparse.Namespace) -> float:
    """In-process check: sparse equals dense 'normal' at a size both run."""
    import numpy as np

    from repro.core.variance import _solve, solve_normal_sparse

    A, b, _, _ = build_system(args.verify_links, args.seed)
    dense = _solve(A, b, "normal")
    via_sparse = solve_normal_sparse(A, b)
    return float(np.linalg.norm(via_sparse - dense) / np.linalg.norm(dense))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--links", type=int, default=10_000)
    parser.add_argument("--verify-links", type=int, default=1500,
                        help="size of the dense reference + agreement check")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--mode", choices=SOLVERS, default=None,
        help="internal: run one solver in-process and print its JSON record",
    )
    args = parser.parse_args(argv)
    if args.mode is not None:
        return run_child(args)

    agreement = verify_agreement(args)
    if agreement > 1e-8:
        print(
            f"error: sparse vs dense normal disagreement {agreement:.2e} "
            "exceeds 1e-8",
            file=sys.stderr,
        )
        return 1
    print(
        f"sparse == dense 'normal' at {args.verify_links} links "
        f"(relative difference {agreement:.2e})"
    )

    records = {}
    for mode in SOLVERS:
        result = subprocess.run(
            [
                sys.executable, os.path.abspath(__file__),
                "--mode", mode,
                "--links", str(args.links),
                "--verify-links", str(args.verify_links),
                "--seed", str(args.seed),
            ],
            capture_output=True,
            text=True,
        )
        if result.returncode != 0:
            sys.stderr.write(result.stderr)
            return 1
        records[mode] = json.loads(result.stdout.strip().splitlines()[-1])

    width = max(len(m) for m in records)
    print(
        f"{'solver':<{width}}  {'links':>7}  {'equations':>10}  "
        f"{'build':>7}  {'solve':>8}  {'peak RSS':>10}  {'rel. error':>10}"
    )
    for mode, rec in records.items():
        print(
            f"{mode:<{width}}  {rec['links']:>7}  {rec['equations']:>10}  "
            f"{rec['build_s']:>6.1f}s  {rec['elapsed_s']:>7.2f}s  "
            f"{rec['peak_rss_mib']:>7.1f} MiB  {rec['relative_error']:>10.2e}"
        )
    dense_gram_mib = args.links * args.links * 8 / (1024.0 * 1024.0)
    print(
        f"a dense A^T A at {args.links} links would add {dense_gram_mib:.0f} "
        "MiB on top of the system itself; the sparse factorization never "
        "allocates it"
    )

    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        lines = [
            "## Sparse phase-1 solve: 10k-link topology",
            "",
            f"{args.links} virtual links (dense reference at "
            f"{args.verify_links}); sparse == dense 'normal' to "
            f"{agreement:.2e}",
            "",
            "| solver | links | equations | build | solve | peak RSS "
            "| rel. error |",
            "|---|---:|---:|---:|---:|---:|---:|",
        ]
        for mode, rec in records.items():
            lines.append(
                f"| {mode} | {rec['links']} | {rec['equations']} | "
                f"{rec['build_s']:.1f} s | {rec['elapsed_s']:.2f} s | "
                f"{rec['peak_rss_mib']:.1f} MiB | {rec['relative_error']:.2e} |"
            )
        lines += [
            "",
            f"A dense Gram matrix at this width would add "
            f"**{dense_gram_mib:.0f} MiB**; the sparse factorization "
            "never allocates it.",
            "",
        ]
        with open(summary, "a", encoding="utf-8") as handle:
            handle.write("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
