"""Argparse glue for the runner knobs.

Shared by ``python -m repro.experiments`` and the ``repro experiments``
verb so both expose identical ``--jobs``/``--backend``/``--cache-dir``/
``--shard-size``/``--store-dir`` flags with parse-time validation.
:class:`RunnerArgs` is the typed form of those flags — the one record a
caller (CLI, notebook, service config) needs to hold to rebuild the
same :class:`ParallelRunner`.  Lives in ``repro.runner`` (not the
experiments package) so building a parser never has to import the
experiment modules and their scipy/netsim dependency stack.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from typing import Optional

from repro.runner.backends import available_backends
from repro.runner.core import ParallelRunner

def _jobs(value: str) -> int:
    jobs = int(value)
    if jobs == 0 or jobs < -1:
        raise argparse.ArgumentTypeError(
            "must be a positive count or -1 (all cores)"
        )
    return jobs


def _dir_path(value: str) -> str:
    if os.path.exists(value) and not os.path.isdir(value):
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return value


def _workers_spec(value: str) -> str:
    if not value.strip():
        raise argparse.ArgumentTypeError("must name at least one worker")
    return value


def positive_int(value: str) -> int:
    """Argparse ``type=`` for count flags: an integer of at least 1."""
    count = int(value)
    if count <= 0:
        raise argparse.ArgumentTypeError("must be a positive count")
    return count


@dataclass(frozen=True)
class RunnerArgs:
    """The runner configuration one command line (or service) carries.

    ``backend=None`` defers to the runner's default: ``serial`` for
    ``jobs=1``, ``process`` otherwise.  ``store_dir=None`` keeps
    payloads in RAM; a directory streams them to a JSONL spill file as
    workers finish (larger-than-memory campaigns).  ``workers``/
    ``remote_workers``/``bind`` configure the ``remote`` backend only:
    an expected externally-started fleet (count or comma-separated
    names), an auto-spawned localhost fleet, and the coordinator's
    listen address.
    """

    jobs: int = 1
    backend: Optional[str] = None
    cache_dir: Optional[str] = None
    shard_size: int = 1
    store_dir: Optional[str] = None
    workers: Optional[str] = None
    remote_workers: Optional[int] = None
    bind: Optional[str] = None

    @classmethod
    def from_namespace(cls, args: argparse.Namespace) -> "RunnerArgs":
        return cls(
            jobs=args.jobs,
            backend=args.backend,
            cache_dir=args.cache_dir,
            shard_size=args.shard_size,
            store_dir=args.store_dir,
            workers=getattr(args, "workers", None),
            remote_workers=getattr(args, "remote_workers", None),
            bind=getattr(args, "bind", None),
        )

    def backend_options(self) -> dict:
        """The remote-backend factory options these flags imply."""
        options: dict = {}
        if self.workers is not None:
            options["workers"] = self.workers
        if self.remote_workers is not None:
            options["spawn_workers"] = self.remote_workers
        if self.bind is not None:
            options["bind"] = self.bind
        if options and self.backend != "remote":
            raise ValueError(
                "--workers/--remote-workers/--bind require --backend remote"
            )
        return options

    def build(self) -> ParallelRunner:
        return ParallelRunner(
            n_jobs=self.jobs,
            backend=self.backend,
            cache_dir=self.cache_dir,
            shard_size=self.shard_size,
            store_dir=self.store_dir,
            backend_options=self.backend_options() or None,
        )


def add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the runner knobs to *parser*."""
    parser.add_argument(
        "--jobs",
        type=_jobs,
        default=1,
        help="worker count (1 = sequential, -1 = all cores)",
    )
    parser.add_argument(
        "--backend",
        choices=available_backends(),
        default=None,
        help=(
            "execution backend (default: serial for --jobs 1, process "
            "otherwise)"
        ),
    )
    parser.add_argument(
        "--cache-dir",
        type=_dir_path,
        default=None,
        help="directory for the shard result cache (default: no caching)",
    )
    parser.add_argument(
        "--shard-size",
        type=positive_int,
        default=1,
        help="trials per shard / cache entry (default 1)",
    )
    parser.add_argument(
        "--store-dir",
        type=_dir_path,
        default=None,
        help=(
            "stream shard payloads to a JSONL file under this directory as "
            "workers finish instead of holding them in RAM (default: in-RAM)"
        ),
    )
    parser.add_argument(
        "--workers",
        type=_workers_spec,
        default=None,
        help=(
            "[remote backend] expected externally-started `repro worker` "
            "fleet: a count or comma-separated worker names; the run waits "
            "for that many handshakes before dispatching"
        ),
    )
    parser.add_argument(
        "--remote-workers",
        type=positive_int,
        default=None,
        help=(
            "[remote backend] auto-spawn this many `repro worker` "
            "subprocesses on localhost (turnkey single-machine mode)"
        ),
    )
    parser.add_argument(
        "--bind",
        default=None,
        help=(
            "[remote backend] coordinator listen address host:port "
            "(default: 127.0.0.1:0 when auto-spawning, 0.0.0.0:7787 when "
            "waiting for an external fleet)"
        ),
    )


def runner_from_args(args: argparse.Namespace) -> ParallelRunner:
    return RunnerArgs.from_namespace(args).build()
