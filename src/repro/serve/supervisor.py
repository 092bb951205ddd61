"""Supervised multi-process generation workers for ``repro serve``.

The single-process service runs ``GenerationStream.advance`` on an executor
thread of the serving process: a segfault, an OOM kill, or a wedged solver
takes the whole daemon down with it.  This module moves advancement into a
**child process** under a supervisor that treats worker death as a
first-class event:

* :func:`_worker_main` — the child: a stateless advance server.  It owns
  the trained pipeline and an open generation stream, answers each
  ``advance`` by seeking the stream to the frontier the command carries
  and advancing it, and emits heartbeats from a side thread so the parent
  can tell *dead* from *slow* from *busy*.
* :class:`SupervisedWorker` — the parent-side handle: spawns/respawns the
  child, watches heartbeats and per-call wall-clock budgets, and on a crash
  or hang kills the child, restarts it and resubmits the in-flight advance.
* :class:`SupervisedStreamBatcher` — a drop-in
  :class:`~repro.serve.StreamBatcher` whose engine calls go through the
  worker.

The protocol has three verbs: ``warmup`` (open the stream; the reply
carries its fingerprint), ``advance`` with payload ``(size, frontier)``,
and ``stop``.  The child opens its stream with the batcher's own
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
Those counters as of the last chunk the batcher committed — the
**committed frontier**, the base class's ``_committed`` — travel with every
advance, and the child seeks to them before it advances
(:meth:`~repro.pipeline.GenerationStream.seek`), exactly like the
in-process batcher.  A child can therefore only compute the window at the
frontier it is sent, and a retried or resubmitted advance — against the
same child or a restarted one — recomputes that window bit for bit: the
client-visible stream is indistinguishable from a run with no failure at
all (gated by ``tests/test_serve_chaos.py`` at every registered fault
point).  The served stream's state lives only in the batcher.

Start method: **fork** where available (Linux — inherits the installed
fault hook and closure-based pipeline factories), ``spawn`` otherwise
(factories must then be picklable; fault plans travel via the
``REPRO_FAULTS`` environment variable, see :mod:`repro.faults`).
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
from dataclasses import dataclass

from ..faults import InjectedCrash, declare_fault_points, fault_point
from ..legalization import scipy_optimize
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

#: Call budget of the warmup command: none, heartbeats alone — training
#: legitimately takes minutes at paper scale.
WARMUP_TIMEOUT = None


class WorkerCrash(RuntimeError):
    """The child died or went silent; the supervisor may restart it."""


class WorkerError(RuntimeError):
    """The child reported a deterministic failure; the child is still alive."""


class WorkerFailure(RuntimeError):
    """The restart budget is exhausted; the stream cannot make progress."""


@dataclass
class WorkerConfig:
    """Supervision knobs for one worker process, range-checked on creation.

    Parameters
    ----------
    heartbeat_interval:
        Cadence of the child's liveness beacon (finite, > 0).
    heartbeat_timeout:
        Silence (no heartbeat, no reply) after which the child is declared
        dead; finite and longer than ``heartbeat_interval``.  Generous by
        default: warmup trains a model, and the beacon thread beats straight
        through it.
    advance_timeout:
        Optional wall-clock budget for one ``advance`` call (finite, > 0).
        Heartbeats prove the process is *alive*, not that it is *making
        progress*; this cap is what catches a wedged solver or an injected
        delay.  ``None`` (default) trusts heartbeats alone.
    max_restarts:
        Worker restarts tolerated **per advance call** before the failure is
        surfaced to the admission layer (which has its own retry budget);
        >= 0.
    restart_backoff:
        Base of the exponential backoff slept before each respawn (finite,
        >= 0).
    start_method:
        ``multiprocessing`` start method; ``None`` picks ``fork`` when the
        platform offers it, else ``spawn``.
    """

    heartbeat_interval: float = 0.2
    heartbeat_timeout: float = 30.0
    advance_timeout: "float | None" = None
    max_restarts: int = 2
    restart_backoff: float = 0.05
    start_method: "str | None" = None

    def __post_init__(self) -> None:
        # Each check is false for NaN (it fails every comparison) and for
        # inf (above the largest float), so neither disables a budget.
        top = sys.float_info.max
        if not (self.advance_timeout is None or 0 < self.advance_timeout <= top):
            raise ValueError(
                f"advance_timeout must be finite and > 0, got {self.advance_timeout}"
            )
        if not 0 < self.heartbeat_interval <= top:
            raise ValueError(
                f"heartbeat_interval must be finite and > 0, got {self.heartbeat_interval}"
            )
        if not self.heartbeat_interval < self.heartbeat_timeout <= top:
            raise ValueError(
                "heartbeat_timeout must be finite and > heartbeat_interval "
                f"({self.heartbeat_interval}), got {self.heartbeat_timeout}"
            )
        if not self.max_restarts >= 0:
            raise ValueError(f"max_restarts must be >= 0, got {self.max_restarts}")
        if not 0 <= self.restart_backoff <= top:
            raise ValueError(
                f"restart_backoff must be finite and >= 0, got {self.restart_backoff}"
            )

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
            elif verb == "advance":
                size, frontier = payload
                fault_point("worker:advance")
                stream.seek(frontier)
                chunk = stream.advance(size)
                fault_point("worker:send")
                send(("chunk", chunk))
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
    retried against a fresh child, up to ``config.max_restarts`` times per
    call.  The child holds no frontier of its own, so a fresh child needs
    nothing but its warmup.
    """

    def __init__(self, plan, pipeline_factory=None, config: "WorkerConfig | None" = None,
                 metrics=None) -> None:
        self.plan = plan
        self.pipeline_factory = pipeline_factory
        self.config = config or WorkerConfig()
        self.metrics = metrics
        self._ctx = multiprocessing.get_context(self.config.resolved_start_method())
        self._process = None
        self._conn = None

    # -- lifecycle -------------------------------------------------------- #
    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.is_alive()

    def start(self) -> dict:
        """Spawn the child and run its warmup.

        Returns the stream fingerprint the child resolved — the parent has
        no stream of its own, so this is what the persistent library binds
        against.  A child whose warmup fails is stopped before the error
        propagates.
        """
        # An ``slsqp`` plan solves every topology with SciPy: a forked child
        # inherits it, so a restarted worker's first solve does not spend its
        # hang budget importing it.  The supervising parent never legalizes,
        # so an ``auto`` plan loads nothing here; a child that does reach the
        # SLSQP tail imports SciPy once, inside that advance (whose budget,
        # ``advance_timeout``, is None by default).
        if self.plan.config.solver_mode == "slsqp":
            scipy_optimize()
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
        try:
            kind, payload = self._request(("warmup", None), WARMUP_TIMEOUT)
            if kind != "ready":
                raise WorkerCrash(f"warmup answered {kind!r}: {payload}")
        except WorkerCrash:
            self.stop()
            raise
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

    # -- the supervised call ---------------------------------------------- #
    def advance(self, size: int, frontier: "tuple[int, int, int]"):
        """One supervised advance of ``size`` samples at ``frontier``.

        Returns the child's :class:`~repro.pipeline.StreamChunk`, unpickled.
        Crashes and hangs consume the per-call restart budget; the same
        command is resubmitted to a restarted child and recomputes the same
        window, bit for bit.  A deterministic child-side exception raises
        :class:`WorkerError` without a restart (the child is fine; the
        admission layer owns that retry policy).
        """
        message = ("advance", (int(size), tuple(frontier)))
        restarts_used = 0
        while True:
            try:
                if not self.alive:
                    raise WorkerCrash("worker process is not alive")
                kind, payload = self._request(message, self.config.advance_timeout)
                if kind == "chunk":
                    return payload
                if kind == "error":
                    raise WorkerError(payload)
                raise WorkerCrash(f"advance answered {kind!r}: {payload}")
            except WorkerCrash as crash:
                restarts_used += 1
                if restarts_used > self.config.max_restarts:
                    start = int(frontier[0])
                    raise WorkerFailure(
                        f"worker failed {restarts_used} times advancing "
                        f"[{start}, {start + size}); last cause: {crash}"
                    ) from crash
                self._restart(restarts_used)

    def _restart(self, attempt: int) -> None:
        self.stop()
        if self.metrics is not None:
            self.metrics.record_worker_restart()
        time.sleep(self.config.restart_backoff * (2 ** (attempt - 1)))
        self.start()


# --------------------------------------------------------------------------- #
# the batcher over the worker
# --------------------------------------------------------------------------- #
class SupervisedStreamBatcher(StreamBatcher):
    """A :class:`~repro.serve.StreamBatcher` whose engines run out-of-process.

    Same ledger, same cache, same committed frontier, same
    persistent-library protocol — but opening the stream spawns and warms a
    supervised child, and each advance round-trips the worker with the
    committed frontier.  Because the base class latches
    computed-but-uncommitted chunks, a parent-side failure between compute
    and commit replays the same chunk rather than advancing the frontier
    twice.
    """

    def __init__(self, plan, pipeline_factory=None, max_batch: int = 64,
                 library_root=None, metrics=None,
                 worker_config: "WorkerConfig | None" = None) -> None:
        super().__init__(plan, pipeline_factory, max_batch=max_batch,
                         library_root=library_root, metrics=metrics)
        self._worker = SupervisedWorker(
            plan,
            pipeline_factory=pipeline_factory,
            config=worker_config,
            metrics=metrics,
        )

    def _open(self) -> dict:
        return self._worker.start()

    def _compute_chunk(self, size: int):
        return self._worker.advance(size, self._committed)

    def close(self) -> None:
        """Stop the worker process (idempotent)."""
        self._worker.stop()
