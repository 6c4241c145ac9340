"""The remote execution backend: framing, fault tolerance, identity.

Three layers of test double:

* raw ``socket.socketpair`` for the frame codec;
* in-thread :func:`run_worker` loops (plus hand-rolled saboteur sockets)
  against a :class:`RemoteCoordinator`, for protocol and re-queue paths;
* real ``repro worker`` subprocesses through ``ParallelRunner`` for the
  end-to-end contract — payload identity with ``serial``, traceback
  transport, shard-cache resume, and a worker killed mid-run.
"""

from __future__ import annotations

import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.runner import ParallelRunner, ShardExecutionError, TrialSpec
from repro.runner.backends import execute_shard
from repro.runner.cache import compute_code_version
from repro.runner.remote import (
    DEFAULT_PORT,
    MAX_FRAME_BYTES,
    PROTOCOL,
    _LENGTH,
    FrameError,
    RemoteBackend,
    RemoteCoordinator,
    parse_address,
    recv_frame,
    resolve_trial_fn,
    run_worker,
    send_frame,
    trial_fn_reference,
)

SRC_ROOT = str(Path(repro.__file__).resolve().parent.parent)
TESTS_DIR = str(Path(__file__).resolve().parent)


# -- module-level trial functions (workers import them by reference) -----------


def wire_trial(spec: TrialSpec) -> dict:
    return {"value": spec.seed * 3, "tag": spec.params.get("tag"), "index": spec.index}


def remote_fragile_trial(spec: TrialSpec) -> dict:
    if spec.index == 1:
        raise ValueError("remote boom in trial 1")
    return {"ok": spec.index}


def sleepy_trial(spec: TrialSpec) -> dict:
    time.sleep(spec.params["sleep"])
    return {"slept": spec.params["sleep"]}


def make_specs(n: int) -> list:
    return [
        TrialSpec("remote-unit", i, seed=i + 11, params={"tag": f"t{i % 2}"})
        for i in range(n)
    ]


def make_shards(specs) -> list:
    return [(i, [spec]) for i, spec in enumerate(specs)]


def worker_env() -> dict:
    """Environment for externally-spawned `repro worker` subprocesses."""
    path = os.pathsep.join(
        p for p in (SRC_ROOT, TESTS_DIR, os.environ.get("PYTHONPATH", "")) if p
    )
    return {**os.environ, "PYTHONPATH": path}


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def start_worker_thread(address: str, **kwargs):
    """Run :func:`run_worker` in-thread; returns (thread, result dict)."""
    outcome: dict = {}
    defaults = dict(
        retry_seconds=10.0, max_runs=1, heartbeat_interval=0.2,
        log=lambda line: None,
    )
    defaults.update(kwargs)

    def _run():
        outcome["exit"] = run_worker(address, **defaults)

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    return thread, outcome


# -- framing -------------------------------------------------------------------


class TestFraming:
    def _pair(self):
        return socket.socketpair()

    def test_round_trip(self):
        a, b = self._pair()
        with a, b:
            send_frame(a, {"type": "hello", "blob": [1, 2, {"x": None}]})
            assert recv_frame(b) == {"type": "hello", "blob": [1, 2, {"x": None}]}

    def test_clean_close_is_none(self):
        a, b = self._pair()
        with b:
            a.close()
            assert recv_frame(b) is None

    def test_mid_prefix_close_raises(self):
        a, b = self._pair()
        with b:
            a.sendall(b"\x00\x00")  # half a length prefix
            a.close()
            with pytest.raises(FrameError, match="mid-length-prefix"):
                recv_frame(b)

    def test_truncated_body_raises(self):
        a, b = self._pair()
        with b:
            a.sendall(_LENGTH.pack(5000) + b"only this much")
            a.close()
            with pytest.raises(FrameError, match="mid-frame"):
                recv_frame(b)

    def test_oversized_announcement_raises(self):
        a, b = self._pair()
        with a, b:
            a.sendall(_LENGTH.pack(MAX_FRAME_BYTES + 1))
            with pytest.raises(FrameError, match="oversized"):
                recv_frame(b)

    def test_non_json_body_raises(self):
        a, b = self._pair()
        with a, b:
            body = b"definitely not json"
            a.sendall(_LENGTH.pack(len(body)) + body)
            with pytest.raises(FrameError, match="not valid JSON"):
                recv_frame(b)

    def test_untyped_message_raises(self):
        a, b = self._pair()
        with a, b:
            body = b'{"no_type": 1}'
            a.sendall(_LENGTH.pack(len(body)) + body)
            with pytest.raises(FrameError, match="typed message"):
                recv_frame(b)

    def test_send_refuses_oversized_frame(self):
        a, b = self._pair()
        with a, b:
            with pytest.raises(FrameError, match="refusing to send"):
                send_frame(a, {"type": "x", "pad": "y" * (MAX_FRAME_BYTES + 1)})


class TestReferences:
    def test_reference_round_trip(self):
        reference = trial_fn_reference(wire_trial)
        assert reference.endswith(":wire_trial")
        assert resolve_trial_fn(reference) is wire_trial

    def test_non_module_level_rejected(self):
        with pytest.raises(ValueError, match="module-level"):
            trial_fn_reference(lambda spec: spec)

        def nested(spec):
            return spec

        with pytest.raises(ValueError, match="module-level"):
            trial_fn_reference(nested)

    def test_parse_address(self):
        assert parse_address("10.0.0.7:9000") == ("10.0.0.7", 9000)
        assert parse_address("bastion") == ("bastion", DEFAULT_PORT)
        with pytest.raises(ValueError):
            parse_address("host:70000")

    def test_spec_wire_round_trip(self):
        spec = TrialSpec(
            "exp", 4, seed=None, params={"a": [1, 2]}, cacheable=False
        )
        clone = TrialSpec.from_wire(spec.to_wire())
        assert clone == spec
        assert clone.index == 4 and clone.cacheable is False


# -- coordinator protocol (in-thread workers) ----------------------------------


class TestCoordinator:
    def test_serve_collects_all_shards(self):
        specs = make_specs(4)
        shards = make_shards(specs)
        with RemoteCoordinator(expected_workers=1, connect_timeout=15.0) as coord:
            start_worker_thread(coord.address)
            outcomes = dict(coord.serve(wire_trial, shards))
        assert set(outcomes) == {0, 1, 2, 3}
        for index, (status, payloads) in outcomes.items():
            assert status == "ok"
            assert payloads == execute_shard(wire_trial, shards[index][1])
        assert coord.workers_lost == 0 and coord.requeued == []

    def test_trial_error_travels_as_traceback_text(self):
        shards = make_shards(make_specs(2))
        with RemoteCoordinator(expected_workers=1, connect_timeout=15.0) as coord:
            start_worker_thread(coord.address)
            outcomes = dict(coord.serve(remote_fragile_trial, shards))
        status, detail = outcomes[1]
        assert status == "error"
        assert "remote boom in trial 1" in detail
        assert "Traceback (most recent call last)" in detail

    def test_missing_fleet_fails_loud(self):
        with RemoteCoordinator(expected_workers=1, connect_timeout=0.5) as coord:
            with pytest.raises(RuntimeError, match="only 0 of 1 workers"):
                list(coord.serve(wire_trial, make_shards(make_specs(1))))

    def test_code_version_mismatch_rejects_worker(self):
        with RemoteCoordinator(
            expected_workers=1, connect_timeout=2.0, code_version="not-yours"
        ) as coord:
            thread, outcome = start_worker_thread(coord.address)
            with pytest.raises(RuntimeError, match="1 rejected"):
                list(coord.serve(wire_trial, make_shards(make_specs(1))))
        thread.join(timeout=10)
        assert outcome["exit"] == 2  # rejected, not retrying
        assert coord.workers_rejected == 1

    def test_heartbeat_keeps_slow_trials_alive(self):
        # The trial outlives worker_timeout; pings must keep the worker
        # from being declared dead mid-execution.
        specs = [TrialSpec("remote-unit", 0, seed=1, params={"sleep": 1.5})]
        with RemoteCoordinator(
            expected_workers=1, connect_timeout=15.0, worker_timeout=0.6
        ) as coord:
            start_worker_thread(coord.address, heartbeat_interval=0.15)
            outcomes = dict(coord.serve(sleepy_trial, make_shards(specs)))
        assert outcomes[0][0] == "ok"
        assert coord.workers_lost == 0

    def _saboteur(self, address: str, payload: bytes, holding: threading.Event):
        """Handshake, take one shard, emit *payload* instead of a result."""
        sock = socket.create_connection(parse_address(address), timeout=10.0)
        try:
            send_frame(sock, {
                "type": "hello", "protocol": PROTOCOL,
                "code_version": compute_code_version(), "worker": "saboteur",
            })
            assert recv_frame(sock)["type"] == "welcome"
            send_frame(sock, {"type": "ready"})
            assert recv_frame(sock)["type"] == "shard"
            holding.set()
            if payload:
                sock.sendall(payload)
        finally:
            sock.close()

    @pytest.mark.parametrize(
        "payload",
        [
            pytest.param(_LENGTH.pack(MAX_FRAME_BYTES + 1), id="oversized"),
            pytest.param(_LENGTH.pack(4096) + b"stub", id="truncated"),
            pytest.param(
                _LENGTH.pack(15) + b'{"type": "wat"}', id="unknown-type"
            ),
            pytest.param(b"", id="vanish"),
        ],
    )
    def test_corrupt_worker_requeues_shard(self, payload):
        # A worker that emits garbage (or nothing) after taking a shard
        # must cost a re-queue, never a hang or a lost shard.
        specs = make_specs(3)
        shards = make_shards(specs)
        holding = threading.Event()
        with RemoteCoordinator(
            expected_workers=1, connect_timeout=15.0, worker_timeout=10.0
        ) as coord:
            saboteur = threading.Thread(
                target=self._saboteur, args=(coord.address, payload, holding),
                daemon=True,
            )
            saboteur.start()

            def _relief():
                holding.wait(timeout=15.0)
                run_worker(
                    coord.address, retry_seconds=10.0, max_runs=1,
                    heartbeat_interval=0.2, log=lambda line: None,
                )

            threading.Thread(target=_relief, daemon=True).start()
            outcomes = dict(coord.serve(wire_trial, shards))
        assert set(outcomes) == {0, 1, 2}
        for index, (status, payloads) in outcomes.items():
            assert status == "ok"
            assert payloads == execute_shard(wire_trial, shards[index][1])
        assert coord.workers_lost == 1
        assert len(coord.requeued) == 1

    def test_silent_worker_times_out(self):
        # No EOF, no pings, shard in flight: the worker_timeout reaper is
        # the only thing standing between a hung machine and a stuck run.
        specs = make_specs(2)
        holding = threading.Event()
        release = threading.Event()

        def _hang(address):
            sock = socket.create_connection(parse_address(address), timeout=10.0)
            try:
                send_frame(sock, {
                    "type": "hello", "protocol": PROTOCOL,
                    "code_version": compute_code_version(), "worker": "hung",
                })
                assert recv_frame(sock)["type"] == "welcome"
                send_frame(sock, {"type": "ready"})
                assert recv_frame(sock)["type"] == "shard"
                holding.set()
                release.wait(timeout=30.0)  # hold the socket open, silent
            finally:
                sock.close()

        with RemoteCoordinator(
            expected_workers=1, connect_timeout=15.0, worker_timeout=0.8
        ) as coord:
            threading.Thread(
                target=_hang, args=(coord.address,), daemon=True
            ).start()

            def _relief():
                holding.wait(timeout=15.0)
                run_worker(
                    coord.address, retry_seconds=10.0, max_runs=1,
                    heartbeat_interval=0.2, log=lambda line: None,
                )

            threading.Thread(target=_relief, daemon=True).start()
            try:
                outcomes = dict(coord.serve(wire_trial, make_shards(specs)))
            finally:
                release.set()
        assert {status for status, _ in outcomes.values()} == {"ok"}
        assert coord.workers_lost == 1 and len(coord.requeued) == 1


# -- end-to-end through ParallelRunner (subprocess workers) --------------------


class TestRemoteBackend:
    def test_registered(self):
        from repro.runner import available_backends

        assert "remote" in available_backends()

    def test_workers_option_parsing(self):
        # --workers accepts a count or comma-separated names (the list's
        # length is the expected fleet size — workers dial in, the
        # coordinator cannot dial out to names).
        assert RemoteBackend(workers=3).expected_workers == 3
        assert RemoteBackend(workers="3").expected_workers == 3
        assert RemoteBackend(workers="mach-a, mach-b").expected_workers == 2
        assert RemoteBackend(workers=["a", "b", "c"]).expected_workers == 3
        # neither workers nor spawn_workers: n_jobs localhost workers
        assert RemoteBackend(n_jobs=4).spawn_workers == 4
        # external fleets default to the well-known port; spawn mode
        # binds loopback-ephemeral
        assert RemoteBackend(workers=2).bind == f"0.0.0.0:{DEFAULT_PORT}"
        assert RemoteBackend().bind == "127.0.0.1:0"
        with pytest.raises(ValueError, match="names no workers"):
            RemoteBackend(workers=" , ")
        with pytest.raises(ValueError):
            RemoteBackend(spawn_workers=-1)

    def test_spawned_workers_match_serial(self):
        specs = make_specs(5)
        expected = ParallelRunner(n_jobs=1).run("remote-unit", wire_trial, specs)
        runner = ParallelRunner(
            n_jobs=2, backend="remote",
            backend_options={"spawn_workers": 2, "connect_timeout": 60.0},
        )
        got = runner.run("remote-unit", wire_trial, specs)
        assert list(got) == list(expected)
        assert runner.backend.name == "remote"
        # backend_options reach the factory: the fleet size came through.
        assert runner.backend.spawn_workers == 2
        assert runner.last_stats.shards_executed == 5

    def test_remote_error_carries_worker_traceback(self):
        runner = ParallelRunner(
            n_jobs=1, backend="remote",
            backend_options={"spawn_workers": 1, "connect_timeout": 60.0},
        )
        with pytest.raises(ShardExecutionError) as excinfo:
            runner.run("remote-unit", remote_fragile_trial, make_specs(2))
        error = excinfo.value
        assert error.backend == "remote"
        assert "remote boom in trial 1" in error.worker_traceback
        assert "Traceback (most recent call last)" in str(error)

    def test_cache_resume_needs_no_workers(self, tmp_path):
        specs = make_specs(3)
        first = ParallelRunner(
            n_jobs=1, backend="remote", cache_dir=tmp_path,
            backend_options={"spawn_workers": 1, "connect_timeout": 60.0},
        )
        expected = first.run("remote-unit", wire_trial, specs)
        assert first.last_stats.shards_stored == 3
        # Fully cached: run_shards is never called, so a zero-second
        # connect window cannot bite — resume is coordinator-side only.
        resumed = ParallelRunner(
            n_jobs=1, backend="remote", cache_dir=tmp_path,
            backend_options={"spawn_workers": 1, "connect_timeout": 0.001},
        )
        got = resumed.run("remote-unit", wire_trial, specs)
        assert list(got) == list(expected)
        assert resumed.last_stats.shards_executed == 0
        assert resumed.last_stats.shards_cached == 3

    def test_killed_worker_shard_is_requeued(self):
        # One worker dies via os._exit the moment it receives a shard
        # (--die-after 0); the fleet still finishes every shard and the
        # payloads still match serial.
        port = free_port()
        address = f"127.0.0.1:{port}"
        env = worker_env()
        command = [sys.executable, "-m", "repro", "worker", address,
                   "--max-runs", "1"]
        workers = [
            subprocess.Popen(command + ["--die-after", "0"], env=env),
            subprocess.Popen(command, env=env),
        ]
        try:
            specs = make_specs(4)
            expected = ParallelRunner(n_jobs=1).run(
                "remote-unit", wire_trial, specs
            )
            runner = ParallelRunner(
                n_jobs=2, backend="remote",
                backend_options={
                    "workers": 2, "bind": address,
                    "connect_timeout": 60.0, "worker_timeout": 30.0,
                },
            )
            got = runner.run("remote-unit", wire_trial, specs)
            assert list(got) == list(expected)
        finally:
            codes = [w.wait(timeout=30) for w in workers]
        assert codes[0] == 3  # died by injection, mid-shard
        assert codes[1] == 0  # survivor finished the campaign


class TestWorkerCLI:
    def test_no_coordinator_exits_one(self):
        port = free_port()
        code = run_worker(
            f"127.0.0.1:{port}", retry_seconds=0.3, log=lambda line: None
        )
        assert code == 1

    def test_cli_verb_runs_worker(self):
        # `repro worker` end to end: spawn the verb, then serve one
        # campaign through it.
        port = free_port()
        address = f"127.0.0.1:{port}"
        process = subprocess.Popen(
            [sys.executable, "-m", "repro", "worker", address,
             "--max-runs", "1", "--name", "verb-check"],
            env=worker_env(), stdout=subprocess.PIPE, text=True,
        )
        try:
            specs = make_specs(2)
            shards = make_shards(specs)
            with RemoteCoordinator(
                bind=address, expected_workers=1, connect_timeout=60.0
            ) as coord:
                outcomes = dict(coord.serve(wire_trial, shards))
            assert {status for status, _ in outcomes.values()} == {"ok"}
        finally:
            out, _ = process.communicate(timeout=30)
        assert process.returncode == 0
        assert "verb-check" in out
