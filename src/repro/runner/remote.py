"""The ``remote`` execution backend: a TCP work-stealing scheduler.

The runner's other backends fan shards across pools inside one machine;
this module crosses the machine boundary with nothing heavier than a
TCP socket and JSON.  Two roles:

:class:`RemoteCoordinator`
    Binds a socket and hands out shards.  Workers *pull*: after the
    handshake each worker announces ``ready`` and receives one shard at
    a time, so a fast machine naturally steals more work than a slow
    one.  A worker that disconnects, times out, or sends a corrupt
    frame is dropped and its in-flight shard goes back on the queue —
    a killed worker loses time, never results.
``repro worker <host:port>``
    The worker loop (:func:`run_worker`): connect (retrying until the
    coordinator is up), handshake, then pull shards, run the trial
    function, and stream results back, pinging while a shard executes
    so slow trials are distinguishable from dead workers.

Wire format — length-prefixed JSON frames: a 4-byte big-endian length
followed by that many bytes of UTF-8 JSON (one object per frame).
Frames above :data:`MAX_FRAME_BYTES` and frames that do not parse are
protocol violations (:class:`FrameError`), treated like a disconnect.

Handshake — the worker opens with ``hello`` carrying its protocol tag
and the :func:`~repro.runner.cache.compute_code_version` hash of its
``repro`` sources; the coordinator rejects any worker whose hash
differs from its own.  Trial functions are shipped *by reference*
(``module:qualname``, mirroring what pickling does for the ``process``
backend), so identical sources on both ends are a correctness
requirement, not a nicety.

Everything stateful — shard cache, result store, payload merging —
stays coordinator-side in :class:`~repro.runner.core.ParallelRunner`,
so crashed remote campaigns resume from the shard cache exactly as
``process`` campaigns do, and payloads are seed-for-seed identical
across ``serial``/``process``/``remote``.
"""

from __future__ import annotations

import importlib
import json
import os
import selectors
import socket
import struct
import subprocess
import sys
import threading
import time
import traceback
from collections import deque
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.runner.backends import (
    ExecutionBackend,
    ShardJob,
    ShardOutcome,
    TrialFunction,
    execute_shard,
)
from repro.runner.cache import compute_code_version
from repro.runner.spec import TrialSpec, canonical_json

PROTOCOL = "repro-remote/1"
#: Default coordinator port for multi-machine runs (workers on other
#: hosts need a knowable address; single-machine runs bind ephemeral).
DEFAULT_PORT = 7787
#: Hard ceiling on one frame.  Shard payloads beyond this indicate a
#: runaway trial function (or a corrupt length prefix), not real work.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_LENGTH = struct.Struct(">I")


class FrameError(ConnectionError):
    """A frame violated the protocol: oversized, truncated, or not JSON."""


class WorkerRejected(RuntimeError):
    """The coordinator refused this worker's handshake."""


# -- framing -------------------------------------------------------------------


def send_frame(sock: socket.socket, message: Dict[str, Any]) -> None:
    """Write one length-prefixed JSON frame."""
    body = canonical_json(message).encode("utf-8")
    if len(body) > MAX_FRAME_BYTES:
        raise FrameError(
            f"refusing to send a {len(body)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    sock.sendall(_LENGTH.pack(len(body)) + body)


def _recv_exactly(sock: socket.socket, count: int) -> bytes:
    chunks = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            raise FrameError(
                f"connection closed mid-frame ({count - remaining} of "
                f"{count} bytes received)"
            )
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    """Read one frame; ``None`` on a clean close at a frame boundary."""
    header = b""
    while len(header) < _LENGTH.size:
        chunk = sock.recv(_LENGTH.size - len(header))
        if not chunk:
            if header:
                raise FrameError("connection closed mid-length-prefix")
            return None
        header += chunk
    (length,) = _LENGTH.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameError(
            f"oversized frame announced ({length} bytes, "
            f"limit {MAX_FRAME_BYTES})"
        )
    body = _recv_exactly(sock, length)
    try:
        message = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as error:
        raise FrameError(f"frame is not valid JSON: {error}") from None
    if not isinstance(message, dict) or "type" not in message:
        raise FrameError("frame is not a typed message object")
    return message


def trial_fn_reference(trial_fn: TrialFunction) -> str:
    """``module:qualname`` reference a worker can import (pickle's rule)."""
    module = getattr(trial_fn, "__module__", None)
    qualname = getattr(trial_fn, "__qualname__", None)
    if not module or not qualname or "<" in qualname or "." in qualname:
        raise ValueError(
            f"trial function {trial_fn!r} is not a module-level function; "
            "the remote backend ships functions by module:name reference"
        )
    return f"{module}:{qualname}"


def resolve_trial_fn(reference: str) -> TrialFunction:
    """Import the trial function a coordinator named."""
    module_name, _, qualname = reference.partition(":")
    module = importlib.import_module(module_name)
    return getattr(module, qualname)


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` (or bare ``host``, implying :data:`DEFAULT_PORT`)."""
    host, _, port_text = address.rpartition(":")
    if not host:
        host, port_text = port_text, ""
    port = int(port_text) if port_text else DEFAULT_PORT
    if not 0 <= port <= 65535:
        raise ValueError(f"port {port} out of range in address {address!r}")
    return host, port


# -- coordinator ---------------------------------------------------------------


class _WorkerConnection:
    """Coordinator-side state of one connected worker."""

    __slots__ = ("sock", "peer", "name", "ready", "shard_index", "last_seen")

    def __init__(self, sock: socket.socket, peer: str) -> None:
        self.sock = sock
        self.peer = peer
        self.name: Optional[str] = None  # None until the handshake lands
        self.ready = False
        self.shard_index: Optional[int] = None  # in-flight shard, if any
        self.last_seen = time.monotonic()

    @property
    def label(self) -> str:
        return self.name or self.peer


class RemoteCoordinator:
    """Bind a socket, admit workers, hand out shards, collect results.

    Parameters
    ----------
    bind:
        ``host:port`` to listen on.  Port ``0`` binds an ephemeral port;
        the resolved address is :attr:`address`.
    expected_workers:
        How many workers must complete the handshake before the first
        shard is dispatched.  Late joiners are admitted mid-run (work
        stealing); early leavers only lose their in-flight shard.
    connect_timeout:
        Seconds to wait for the expected workers; fewer than expected by
        the deadline aborts the run loudly (a silently half-sized fleet
        would just look slow).
    worker_timeout:
        Seconds of silence from a worker *holding a shard* before it is
        declared dead and its shard re-queued.  Workers ping every few
        seconds while executing, so this bounds failure detection for
        hung machines; killed ones are caught immediately via EOF.
    code_version:
        Source hash workers must match (default: this process's own
        :func:`compute_code_version`).
    """

    def __init__(
        self,
        bind: str = "127.0.0.1:0",
        expected_workers: int = 1,
        connect_timeout: float = 30.0,
        worker_timeout: float = 60.0,
        code_version: Optional[str] = None,
    ) -> None:
        if expected_workers < 1:
            raise ValueError("expected_workers must be at least 1")
        self.expected_workers = expected_workers
        self.connect_timeout = connect_timeout
        self.worker_timeout = worker_timeout
        self.code_version = (
            code_version if code_version is not None else compute_code_version()
        )
        host, port = parse_address(bind)
        self._listener = socket.create_server(
            (host, port), reuse_port=False, backlog=16
        )
        self._listener.setblocking(False)
        self.address = "%s:%d" % self._listener.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._selector.register(self._listener, selectors.EVENT_READ)
        self._workers: Dict[socket.socket, _WorkerConnection] = {}
        self._reference: Optional[str] = None
        self._jobs: Dict[int, ShardJob] = {}
        self._results: "deque[Tuple[int, ShardOutcome]]" = deque()
        self.workers_seen = 0
        self.workers_rejected = 0
        self.workers_lost = 0
        #: shard indices that were re-queued after a worker loss.
        self.requeued: List[int] = []

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Shut down every worker connection and the listener."""
        for connection in list(self._workers.values()):
            self._drop(connection, requeue=None)
        try:
            self._selector.unregister(self._listener)
        except (KeyError, ValueError):
            pass
        self._listener.close()
        self._selector.close()

    def __enter__(self) -> "RemoteCoordinator":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- serving -------------------------------------------------------------

    def serve(
        self, trial_fn: TrialFunction, shards: Sequence[ShardJob]
    ) -> Iterator[Tuple[int, ShardOutcome]]:
        """Yield ``(shard_index, outcome)`` as workers finish shards."""
        self._reference = trial_fn_reference(trial_fn)
        queue: "deque[ShardJob]" = deque(shards)
        self._jobs = {job[0]: job for job in shards}
        self._results.clear()
        remaining = set(self._jobs)
        self._await_fleet()
        last_progress = time.monotonic()
        try:
            while remaining:
                self._pump(queue, dispatch=True)
                progressed = bool(self._results)
                while self._results:
                    shard_index, outcome = self._results.popleft()
                    remaining.discard(shard_index)
                    yield shard_index, outcome
                now = time.monotonic()
                if progressed or self._workers:
                    last_progress = now
                elif now - last_progress > self.connect_timeout:
                    # Every worker is gone and none came back: fail loud
                    # instead of spinning forever on an empty fleet.
                    raise RuntimeError(
                        f"remote backend: all workers lost with "
                        f"{len(remaining)} shard(s) outstanding and none "
                        f"reconnected to {self.address} within "
                        f"{self.connect_timeout:.0f}s"
                    )
        finally:
            self._shutdown_workers()

    def _await_fleet(self) -> None:
        """Block until the expected workers have handshaked."""
        deadline = time.monotonic() + self.connect_timeout
        while self.workers_seen < self.expected_workers:
            if time.monotonic() >= deadline:
                raise RuntimeError(
                    f"remote backend: only {self.workers_seen} of "
                    f"{self.expected_workers} workers connected to "
                    f"{self.address} within {self.connect_timeout:.0f}s "
                    f"({self.workers_rejected} rejected by the code-version "
                    "handshake); start workers with "
                    f"`repro worker {self.address}`"
                )
            self._pump(queue=None, dispatch=False)

    # -- event loop ----------------------------------------------------------

    def _pump(
        self, queue: "Optional[deque[ShardJob]]", dispatch: bool
    ) -> None:
        """One select round: accept, read frames, reap the dead, dispatch."""
        for key, _ in self._selector.select(timeout=0.1):
            if key.fileobj is self._listener:
                self._accept()
            else:
                self._read(self._workers[key.fileobj], queue)
        now = time.monotonic()
        for connection in list(self._workers.values()):
            if (
                connection.shard_index is not None
                and now - connection.last_seen > self.worker_timeout
            ):
                self._drop(connection, requeue=queue, reason="timed out")
        if dispatch and queue:
            self._dispatch(queue)

    def _accept(self) -> None:
        try:
            sock, peer = self._listener.accept()
        except OSError:
            return
        sock.setblocking(True)
        sock.settimeout(self.worker_timeout)
        connection = _WorkerConnection(sock, "%s:%d" % peer[:2])
        self._workers[sock] = connection
        self._selector.register(sock, selectors.EVENT_READ)

    def _read(
        self, connection: _WorkerConnection, queue: "Optional[deque[ShardJob]]"
    ) -> None:
        """Consume one frame from *connection*; drop it on any violation."""
        try:
            message = recv_frame(connection.sock)
        except (FrameError, OSError) as error:
            self._drop(connection, requeue=queue, reason=str(error))
            return
        if message is None:  # clean EOF
            self._drop(connection, requeue=queue, reason="disconnected")
            return
        connection.last_seen = time.monotonic()
        kind = message.get("type")
        if connection.name is None:
            if kind != "hello":
                self._drop(connection, requeue=queue, reason="no handshake")
                return
            self._handshake(connection, message, queue)
        elif kind == "ready":
            connection.ready = True
        elif kind == "ping":
            pass  # last_seen already refreshed
        elif kind == "result":
            self._store_result(connection, message, queue)
        else:
            self._drop(
                connection, requeue=queue, reason=f"unknown frame {kind!r}"
            )

    def _handshake(
        self,
        connection: _WorkerConnection,
        hello: Dict[str, Any],
        queue: "Optional[deque[ShardJob]]",
    ) -> None:
        protocol = hello.get("protocol")
        version = hello.get("code_version")
        if protocol != PROTOCOL or version != self.code_version:
            reason = (
                f"protocol mismatch: worker speaks {protocol!r}, "
                f"coordinator {PROTOCOL!r}"
                if protocol != PROTOCOL
                else (
                    f"code-version mismatch: worker runs {version!r}, "
                    f"coordinator {self.code_version!r} — deploy identical "
                    "repro sources on every machine"
                )
            )
            try:
                send_frame(connection.sock, {"type": "reject", "reason": reason})
            except OSError:
                pass
            self.workers_rejected += 1
            self._drop(connection, requeue=queue, reason=reason)
            return
        connection.name = str(hello.get("worker", connection.peer))
        self.workers_seen += 1
        # The welcome carries everything a worker needs to start pulling.
        send_frame(
            connection.sock,
            {"type": "welcome", "trial_fn": self._reference},
        )

    def _dispatch(self, queue: "deque[ShardJob]") -> None:
        for connection in self._workers.values():
            if not queue:
                return
            if connection.name is None or not connection.ready:
                continue
            if connection.shard_index is not None:
                continue
            shard_index, shard = queue.popleft()
            try:
                send_frame(
                    connection.sock,
                    {
                        "type": "shard",
                        "shard_index": shard_index,
                        "trials": [spec.to_wire() for spec in shard],
                    },
                )
            except OSError as error:
                queue.appendleft((shard_index, shard))
                self._drop(connection, requeue=queue, reason=str(error))
                continue
            connection.ready = False
            connection.shard_index = shard_index
            self._jobs[shard_index] = (shard_index, shard)

    def _store_result(
        self,
        connection: _WorkerConnection,
        message: Dict[str, Any],
        queue: "Optional[deque[ShardJob]]",
    ) -> None:
        shard_index = message.get("shard_index")
        outcome = message.get("outcome")
        if (
            shard_index != connection.shard_index
            or not isinstance(outcome, list)
            or len(outcome) != 2
            or outcome[0] not in ("ok", "error")
        ):
            self._drop(connection, requeue=queue, reason="malformed result")
            return
        connection.shard_index = None
        self._results.append((int(shard_index), (outcome[0], outcome[1])))

    def _drop(
        self,
        connection: _WorkerConnection,
        requeue: "Optional[deque[ShardJob]]",
        reason: str = "closing",
    ) -> None:
        """Disconnect a worker; its in-flight shard goes back on the queue."""
        if connection.sock not in self._workers:
            return
        del self._workers[connection.sock]
        try:
            self._selector.unregister(connection.sock)
        except (KeyError, ValueError):
            pass
        try:
            connection.sock.close()
        except OSError:
            pass
        if connection.shard_index is not None:
            self.workers_lost += 1
            if requeue is not None:
                job = self._jobs[connection.shard_index]
                requeue.append(job)
                self.requeued.append(connection.shard_index)
            connection.shard_index = None

    def _shutdown_workers(self) -> None:
        for connection in list(self._workers.values()):
            try:
                send_frame(connection.sock, {"type": "shutdown"})
            except OSError:
                pass
            self._drop(connection, requeue=None)


class RemoteBackend(ExecutionBackend):
    """The ``remote`` :class:`ExecutionBackend`: shards over TCP workers.

    Options (all reachable through ``ParallelRunner(backend="remote",
    backend_options={...})`` and the CLI flags in parentheses):

    ``bind`` (``--bind``)
        Coordinator listen address; defaults to ``127.0.0.1:0`` when
        workers are auto-spawned and ``0.0.0.0:7787`` otherwise.
    ``workers`` (``--workers``)
        Expected externally-started fleet: an int count or a
        comma-separated list of worker names (the *length* sets the
        count — the coordinator cannot dial out, workers dial in).
    ``spawn_workers`` (``--remote-workers``)
        Auto-spawn this many ``repro worker`` subprocesses on localhost,
        pointed at the coordinator.  The turnkey single-machine mode.

    With neither ``workers`` nor ``spawn_workers``, ``n_jobs`` localhost
    workers are spawned — ``--backend remote --jobs 4`` just works.
    """

    name = "remote"

    def __init__(
        self,
        n_jobs: int = 1,
        mp_context: Optional[str] = None,
        bind: Optional[str] = None,
        workers: Union[int, str, Sequence[str], None] = None,
        spawn_workers: int = 0,
        connect_timeout: float = 30.0,
        worker_timeout: float = 60.0,
        code_version: Optional[str] = None,
    ) -> None:
        del mp_context  # remote workers are their own processes
        expected = 0
        if workers is not None:
            if isinstance(workers, str) and workers.strip().isdigit():
                workers = int(workers)
            if isinstance(workers, int):
                expected = workers
            else:
                names = (
                    [w.strip() for w in workers.split(",") if w.strip()]
                    if isinstance(workers, str)
                    else list(workers)
                )
                expected = len(names)
            if expected < 1:
                raise ValueError(f"workers={workers!r} names no workers")
        self.spawn_workers = int(spawn_workers)
        if self.spawn_workers < 0:
            raise ValueError("spawn_workers must be non-negative")
        if expected == 0 and self.spawn_workers == 0:
            self.spawn_workers = max(1, n_jobs)
        self.expected_workers = expected + self.spawn_workers
        if bind is None:
            bind = (
                "127.0.0.1:0" if expected == 0 else f"0.0.0.0:{DEFAULT_PORT}"
            )
        self.bind = bind
        self.connect_timeout = connect_timeout
        self.worker_timeout = worker_timeout
        self.code_version = code_version

    def _spawn(
        self, address: str, trial_fn: TrialFunction
    ) -> List[subprocess.Popen]:
        # Localhost workers must import the same repro tree *and* the
        # trial function's module; external workers are on their own
        # (the code-version handshake catches a mismatched tree).
        paths = [str(_repro_src_root())]
        module = sys.modules.get(getattr(trial_fn, "__module__", ""))
        module_file = getattr(module, "__file__", None)
        if module_file:
            paths.append(os.path.dirname(os.path.abspath(module_file)))
        paths.append(os.environ.get("PYTHONPATH", ""))
        command = [
            sys.executable,
            "-m",
            "repro",
            "worker",
            address,
            "--retry-seconds",
            str(max(5.0, self.connect_timeout)),
            "--max-runs",
            "1",
        ]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
        return [
            subprocess.Popen(command, env=env)
            for _ in range(self.spawn_workers)
        ]

    def run_shards(self, trial_fn, shards):
        if not shards:
            return
        coordinator = RemoteCoordinator(
            bind=self.bind,
            expected_workers=self.expected_workers,
            connect_timeout=self.connect_timeout,
            worker_timeout=self.worker_timeout,
            code_version=self.code_version,
        )
        spawned: List[subprocess.Popen] = []
        try:
            with coordinator:
                spawned = self._spawn(coordinator.address, trial_fn)
                yield from coordinator.serve(trial_fn, shards)
        finally:
            for process in spawned:
                try:
                    process.wait(timeout=10)
                except subprocess.TimeoutExpired:
                    process.terminate()
                    try:
                        process.wait(timeout=5)
                    except subprocess.TimeoutExpired:
                        process.kill()


def _repro_src_root():
    """Directory to put on a spawned worker's PYTHONPATH."""
    import repro

    from pathlib import Path

    return Path(repro.__file__).resolve().parent.parent


# -- worker --------------------------------------------------------------------


class _Heartbeat:
    """Daemon thread pinging the coordinator while a shard executes."""

    def __init__(
        self, sock: socket.socket, lock: threading.Lock, interval: float
    ) -> None:
        self._sock = sock
        self._lock = lock
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                with self._lock:
                    send_frame(self._sock, {"type": "ping"})
            except OSError:
                return

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def _connect_with_retry(
    address: str, retry_seconds: float
) -> Optional[socket.socket]:
    """Dial the coordinator, retrying until the window closes."""
    host, port = parse_address(address)
    deadline = time.monotonic() + retry_seconds
    while True:
        try:
            return socket.create_connection((host, port), timeout=10.0)
        except OSError:
            if time.monotonic() >= deadline:
                return None
            time.sleep(0.2)


def _serve_one_run(
    sock: socket.socket,
    worker_name: str,
    code_version: str,
    heartbeat_interval: float,
    die_after: Optional[int],
) -> None:
    """Handshake and pull shards until the coordinator says shutdown."""
    sock.settimeout(None)
    send_lock = threading.Lock()
    send_frame(
        sock,
        {
            "type": "hello",
            "protocol": PROTOCOL,
            "code_version": code_version,
            "worker": worker_name,
        },
    )
    welcome = recv_frame(sock)
    if welcome is None:
        raise FrameError("coordinator closed during handshake")
    if welcome["type"] == "reject":
        raise WorkerRejected(welcome.get("reason", "rejected"))
    if welcome["type"] != "welcome":
        raise FrameError(f"expected welcome, got {welcome['type']!r}")
    trial_fn = resolve_trial_fn(welcome["trial_fn"])

    shards_received = 0
    while True:
        with send_lock:
            send_frame(sock, {"type": "ready"})
        message = recv_frame(sock)
        if message is None or message["type"] == "shutdown":
            return
        if message["type"] != "shard":
            raise FrameError(f"expected shard, got {message['type']!r}")
        shards_received += 1
        if die_after is not None and shards_received > die_after:
            # Fault injection for the re-queue path: die *holding* the
            # shard, exactly like a machine lost mid-run.  os._exit skips
            # every atexit/finally so nothing polite reaches the socket.
            os._exit(3)
        shard = [TrialSpec.from_wire(entry) for entry in message["trials"]]
        with _Heartbeat(sock, send_lock, heartbeat_interval):
            try:
                outcome: List[Any] = ["ok", execute_shard(trial_fn, shard)]
            except BaseException:
                outcome = ["error", traceback.format_exc()]
        with send_lock:
            send_frame(
                sock,
                {
                    "type": "result",
                    "shard_index": message["shard_index"],
                    "outcome": outcome,
                },
            )


def run_worker(
    address: str,
    retry_seconds: float = 30.0,
    max_runs: Optional[int] = None,
    heartbeat_interval: float = 2.0,
    die_after: Optional[int] = None,
    worker_name: Optional[str] = None,
    log: Callable[[str], None] = lambda line: print(line, flush=True),
) -> int:
    """The ``repro worker`` verb: serve campaigns from *address*.

    Connects (retrying for *retry_seconds* so workers can be launched
    before the coordinator), serves one campaign, and loops — a worker
    outlives coordinators and picks up the next campaign on the same
    address.  Exit codes: ``0`` after a clean shutdown (or an idle
    retry window with at least one campaign served), ``1`` when no
    coordinator ever appeared, ``2`` when the handshake was rejected.
    """
    name = worker_name or f"{socket.gethostname()}:{os.getpid()}"
    runs_served = 0
    while max_runs is None or runs_served < max_runs:
        sock = _connect_with_retry(address, retry_seconds)
        if sock is None:
            if runs_served:
                log(f"worker {name}: no coordinator at {address}; done")
                return 0
            log(f"worker {name}: no coordinator at {address} "
                f"within {retry_seconds:.0f}s")
            return 1
        try:
            with sock:
                log(f"worker {name}: serving {address}")
                _serve_one_run(
                    sock, name, compute_code_version(),
                    heartbeat_interval, die_after,
                )
                runs_served += 1
        except WorkerRejected as error:
            log(f"worker {name}: rejected by coordinator: {error}")
            return 2
        except (FrameError, OSError) as error:
            # Coordinator crashed or the link broke: reconnect and serve
            # whatever campaign comes next (its shard was re-queued).
            log(f"worker {name}: connection lost ({error}); reconnecting")
    log(f"worker {name}: served {runs_served} campaign(s); done")
    return 0
