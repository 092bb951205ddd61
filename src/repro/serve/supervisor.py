"""Supervised multi-process generation workers for ``repro serve``.

The single-process service runs ``GenerationStream.advance`` on an executor
thread of the serving process: a segfault, an OOM kill, or a wedged solver
takes the whole daemon down with it.  This module moves advancement into a
**child process** under a supervisor that treats worker death as a
first-class event:

* :func:`_worker_main` — the child: owns the trained pipeline and the
  generation stream, answers ``advance`` commands over a duplex pipe, and
  emits heartbeats from a side thread so the parent can tell *dead* from
  *slow* from *busy*.
* :class:`SupervisedWorker` — the parent-side handle: spawns/respawns the
  child, watches heartbeats and per-call wall-clock budgets, and on a crash
  or hang kills the child, restarts it, **resyncs it to the committed
  stream frontier**, and resubmits the in-flight window.
* :class:`SupervisedStreamBatcher` — a drop-in
  :class:`~repro.serve.StreamBatcher` whose engine calls go through the
  worker.

The child opens its stream with the batcher's own
:func:`~repro.serve.batcher.open_plan_stream` and answers each advance with
the :class:`~repro.pipeline.StreamChunk` itself: the served graph retains
no raw topologies, so the chunk pickles to the patterns, their
attribution and the chunk's accounting — the same object the in-process
batcher caches and persists.

**Why resubmission is safe (the determinism argument).**  A generation
stream's entire future is determined by three counters — ``next_start``,
``next_chunk`` and ``num_kept`` — because every sample owns
``SeedSequence(sample_seed, index)`` and every kept topology owns
``SeedSequence(legal_seed, kept_index)``; there is no other carried state.
The batcher therefore keeps the **committed frontier**: the counters as of
the last chunk that was persisted and folded into the pattern cache (the
base class's ``_committed``, shared with the in-process batcher).  A
restarted worker seeks its stream to exactly that frontier
(:meth:`~repro.pipeline.GenerationStream.seek`), so recomputing the window
that was in flight when the old worker died reproduces it bit for bit —
the client-visible stream is indistinguishable from a run with no failure
at all (gated by ``tests/test_serve_chaos.py`` at every registered fault
point).

Two idempotence latches close the remaining races:

* the child caches its **last computed chunk** and resends it when the
  parent retries the same ``(start, size)`` — so a reply lost to a pipe
  error is not recomputed, and a worker that advanced past the parent's
  view is never double-advanced;
* the parent sends its **expected start** with every advance — a child
  whose counters disagree (e.g. a stale pre-restart process) answers
  ``desync`` and is resynced instead of generating the wrong window.

Start method: **fork** where available (Linux — inherits the installed
fault hook and closure-based pipeline factories), ``spawn`` otherwise
(factories must then be picklable; fault plans travel via the
``REPRO_FAULTS`` environment variable, see :mod:`repro.faults`).
"""

from __future__ import annotations

import multiprocessing
import threading
import time
from dataclasses import dataclass

from ..faults import InjectedCrash, declare_fault_points, fault_point
from .batcher import StreamBatcher, open_plan_stream, stream_fingerprint

__all__ = [
    "SupervisedStreamBatcher",
    "SupervisedWorker",
    "WorkerConfig",
    "WorkerCrash",
    "WorkerError",
    "WorkerFailure",
]

declare_fault_points("worker:warmup", "worker:advance", "worker:send")


class WorkerCrash(RuntimeError):
    """The child died or went silent; the supervisor may restart it."""


class WorkerError(RuntimeError):
    """The child reported a deterministic failure; the child is still alive."""


class WorkerFailure(RuntimeError):
    """The restart budget is exhausted; the stream cannot make progress."""


@dataclass
class WorkerConfig:
    """Supervision knobs for one worker process.

    Parameters
    ----------
    heartbeat_interval:
        Cadence of the child's liveness beacon.
    heartbeat_timeout:
        Silence (no heartbeat, no reply) after which the child is declared
        dead.  Generous by default: warmup trains a model, and the beacon
        thread beats straight through it.
    advance_timeout:
        Optional wall-clock budget for one ``advance`` call.  Heartbeats
        prove the process is *alive*, not that it is *making progress*; this
        cap is what catches a wedged solver or an injected delay.  ``None``
        (default) trusts heartbeats alone.
    warmup_timeout:
        Same, for the warmup call (``None``: heartbeats only — training
        legitimately takes minutes at paper scale).
    max_restarts:
        Worker restarts tolerated **per advance call** before the failure is
        surfaced to the admission layer (which has its own retry budget).
    restart_backoff:
        Base of the exponential backoff slept before each respawn.
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` when the
        platform offers it, else ``spawn``.
    """

    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 30.0
    advance_timeout: "float | None" = None
    warmup_timeout: "float | None" = None
    max_restarts: int = 2
    restart_backoff: float = 0.05
    start_method: "str | None" = None

    def resolved_start_method(self) -> str:
        if self.start_method is not None:
            return self.start_method
        return "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"


# --------------------------------------------------------------------------- #
# the child
# --------------------------------------------------------------------------- #
def _worker_main(conn, plan, pipeline_factory, heartbeat_interval: float) -> None:
    """Child process body: heartbeat thread + command loop over ``conn``.

    Commands are ``(verb, payload)`` tuples; every reply is too.  A
    deterministic exception is reported as ``("error", message)`` and the
    loop continues; an :class:`~repro.faults.InjectedCrash` hard-exits the
    process (that is the failure it simulates).
    """
    import os

    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.wait(heartbeat_interval):
            try:
                send(("hb", time.monotonic()))
            except OSError:
                return

    threading.Thread(target=beat, name="worker-heartbeat", daemon=True).start()

    stream = None
    #: Idempotent-resend latch: ``(start, size, StreamChunk)`` of the last
    #: computed chunk, until the next command proves the parent moved on.
    last = None
    while True:
        try:
            verb, payload = conn.recv()
        except (EOFError, OSError):
            break
        try:
            if verb == "warmup":
                fault_point("worker:warmup")
                if stream is None:
                    stream = open_plan_stream(plan, pipeline_factory)
                send(("ready", stream_fingerprint(stream)))
            elif verb == "sync":
                stream.seek(payload)
                last = None
                send(("synced", payload))
            elif verb == "advance":
                size, expected_start = payload
                if last is not None and (last[0], last[1]) == (expected_start, size):
                    send(("chunk", last[2]))
                elif stream.next_start == expected_start:
                    fault_point("worker:advance")
                    chunk = stream.advance(size)
                    last = (expected_start, size, chunk)
                    fault_point("worker:send")
                    send(("chunk", chunk))
                else:
                    send(("desync", (stream.next_start, expected_start)))
            elif verb == "ping":
                send(("pong", None))
            elif verb == "stop":
                send(("stopped", None))
                break
            else:
                send(("error", f"unknown command {verb!r}"))
        except InjectedCrash:
            # Simulated process death: no reply, no unwinding past here.
            os._exit(70)
        except Exception as error:  # noqa: BLE001 - reported, worker survives
            send(("error", f"{type(error).__name__}: {error}"))
    stop_beat.set()
    conn.close()


# --------------------------------------------------------------------------- #
# the parent-side handle
# --------------------------------------------------------------------------- #
class SupervisedWorker:
    """Owns one child worker process: spawn, watch, restart, resubmit.

    All methods run on the service's executor thread (never the event
    loop).  The restart loop lives in :meth:`advance`: a crash or hang is
    retried against a fresh child synced to ``committed`` — the stream
    frontier as of the last chunk the batcher durably exposed — up to
    ``config.max_restarts`` times per call.
    """

    def __init__(self, plan, pipeline_factory=None, config: "WorkerConfig | None" = None,
                 metrics=None) -> None:
        self.plan = plan
        self.pipeline_factory = pipeline_factory
        self.config = config or WorkerConfig()
        self.metrics = metrics
        #: Lifetime restart count (exported on ``/metrics`` via the service).
        self.restarts = 0
        #: Windows recomputed after a restart.
        self.resubmissions = 0
        self._ctx = multiprocessing.get_context(self.config.resolved_start_method())
        self._process = None
        self._conn = None

    # -- lifecycle -------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def start(self, committed: "tuple[int, int, int]" = (0, 0, 0)) -> dict:
        """Spawn the child, run warmup, sync to ``committed``.

        Returns the stream fingerprint the child resolved — the parent has
        no stream of its own, so this is what the persistent library binds
        against.
        """
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        self._process = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.plan, self.pipeline_factory,
                  self.config.heartbeat_interval),
            name="repro-serve-worker",
            daemon=True,
        )
        self._process.start()
        child_conn.close()
        self._conn = parent_conn
        kind, payload = self._request(("warmup", None), self.config.warmup_timeout)
        if kind != "ready":
            raise WorkerCrash(f"warmup answered {kind!r}: {payload}")
        self.sync(committed)
        return payload

    def stop(self) -> None:
        """Terminate the child (graceful stop, then SIGTERM/SIGKILL)."""
        process, conn = self._process, self._conn
        self._process = self._conn = None
        if conn is not None:
            try:
                conn.send(("stop", None))
            except OSError:
                pass
        if process is not None:
            process.join(timeout=2.0)
            if process.is_alive():
                process.terminate()
                process.join(timeout=2.0)
            if process.is_alive():
                process.kill()
                process.join()
        if conn is not None:
            conn.close()

    # -- protocol --------------------------------------------------------- #
    def _request(self, message, timeout: "float | None"):
        """Send one command and wait for its reply through the heartbeats.

        ``timeout`` caps the *whole call* (hang detection); independently,
        heartbeat silence longer than ``heartbeat_timeout`` declares the
        child dead even with no call budget set.
        """
        conn = self._conn
        if conn is None:
            raise WorkerCrash("worker is not running")
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            conn.send(message)
            last_beat = time.monotonic()
            while True:
                now = time.monotonic()
                if deadline is not None and now >= deadline:
                    raise WorkerCrash(
                        f"worker exceeded its {timeout:.1f}s call budget"
                    )
                wait = self.config.heartbeat_timeout - (now - last_beat)
                if wait <= 0:
                    raise WorkerCrash(
                        f"no heartbeat for {self.config.heartbeat_timeout:.1f}s"
                    )
                if deadline is not None:
                    wait = min(wait, deadline - now)
                if not conn.poll(wait):
                    continue
                reply = conn.recv()
                if isinstance(reply, tuple) and reply and reply[0] == "hb":
                    last_beat = time.monotonic()
                    continue
                return reply
        except (EOFError, BrokenPipeError, ConnectionResetError, OSError) as error:
            raise WorkerCrash(f"worker connection lost: {error}") from error

    def sync(self, committed: "tuple[int, int, int]") -> None:
        """Pin the child's stream counters to the committed frontier."""
        kind, payload = self._request(("sync", tuple(committed)),
                                      self.config.heartbeat_timeout)
        if kind != "synced":
            raise WorkerCrash(f"sync answered {kind!r}: {payload}")

    # -- the supervised call ---------------------------------------------- #
    def advance(self, size: int, committed: "tuple[int, int, int]"):
        """One supervised advance of ``size`` samples at the committed frontier.

        Returns the child's :class:`~repro.pipeline.StreamChunk`, unpickled.
        Crashes and hangs consume the per-call restart budget; a restarted
        child is resynced to ``committed`` and the window is recomputed —
        bit-identical, per the stream's counter-determinism.  A
        deterministic child-side exception raises :class:`WorkerError`
        without a restart (the child is fine; the admission layer owns that
        retry policy).
        """
        expected_start = int(committed[0])
        restarts_used = 0
        resyncs = 0
        while True:
            try:
                if not self.alive:
                    raise WorkerCrash("worker process is not alive")
                kind, payload = self._request(
                    ("advance", (size, expected_start)), self.config.advance_timeout
                )
                if kind == "chunk":
                    return payload
                if kind == "error":
                    raise WorkerError(payload)
                if kind == "desync":
                    # Alive but at the wrong frontier (lost sync reply, stale
                    # process): repin and retry.  Bounded: a child that keeps
                    # desyncing after a successful sync is broken.
                    resyncs += 1
                    if resyncs > self.config.max_restarts + 1:
                        raise WorkerCrash(f"worker desynced {resyncs} times")
                    self.sync(committed)
                    continue
                raise WorkerCrash(f"advance answered {kind!r}: {payload}")
            except WorkerCrash as crash:
                restarts_used += 1
                if restarts_used > self.config.max_restarts:
                    raise WorkerFailure(
                        f"worker failed {restarts_used} times advancing "
                        f"[{expected_start}, {expected_start + size}); "
                        f"last cause: {crash}"
                    ) from crash
                self._restart(committed, restarts_used)

    def _restart(self, committed: "tuple[int, int, int]", attempt: int) -> None:
        self.stop()
        self.restarts += 1
        self.resubmissions += 1
        if self.metrics is not None:
            self.metrics.record_worker_restart()
        time.sleep(self.config.restart_backoff * (2 ** (attempt - 1)))
        self.start(committed)


# --------------------------------------------------------------------------- #
# the batcher over the worker
# --------------------------------------------------------------------------- #
class SupervisedStreamBatcher(StreamBatcher):
    """A :class:`~repro.serve.StreamBatcher` whose engines run out-of-process.

    Same ledger, same cache, same committed frontier, same
    persistent-library protocol — but :meth:`ensure_ready` spawns a
    supervised child instead of opening a local stream, and each advance
    round-trips the worker.  The base class's committed frontier is the
    sync point every worker (re)start pins the child to; because the base
    class latches computed-but-uncommitted chunks, a parent-side failure
    between compute and commit replays the same chunk rather than advancing
    the frontier twice.
    """

    def __init__(self, plan, pipeline_factory=None, max_batch: int = 64,
                 library_root=None, metrics=None,
                 worker_config: "WorkerConfig | None" = None) -> None:
        super().__init__(plan, pipeline_factory, max_batch=max_batch,
                         library_root=library_root, metrics=metrics)
        self.worker_config = worker_config or WorkerConfig()
        self._worker: "SupervisedWorker | None" = None

    @property
    def ready(self) -> bool:
        return self._worker is not None

    @property
    def worker(self) -> "SupervisedWorker | None":
        return self._worker

    def ensure_ready(self) -> None:
        """Spawn + warm the supervised worker.  Idempotent."""
        if self._worker is not None:
            return
        fault_point("serve:warmup")
        worker = SupervisedWorker(
            self.plan,
            pipeline_factory=self._pipeline_factory,
            config=self.worker_config,
            metrics=self.metrics,
        )
        fingerprint = worker.start(self._committed)
        self._worker = worker
        if self.library_root is not None:
            self._attach_library(fingerprint)
            # Restored chunks moved the committed frontier; the child is
            # still at the pre-restore counters.
            worker.sync(self._committed)

    def _compute_chunk(self, size: int):
        if self._worker is None:
            raise RuntimeError("SupervisedStreamBatcher.advance before ensure_ready")
        return self._worker.advance(size, self._committed)

    def close(self) -> None:
        """Stop the worker process (idempotent)."""
        worker, self._worker = self._worker, None
        if worker is not None:
            worker.stop()
