"""Minimal HTTP/1.1 transport over the generation service.

``python -m repro serve`` (also installed as the ``repro-serve`` console
script, :func:`repro.cli.serve_main`) runs :class:`ServeServer`: a
dependency-free asyncio HTTP daemon — stdlib only, hand-rolled request
parsing over :func:`asyncio.start_server` — exposing

* ``GET /healthz`` — combined health: service state (``ok`` / ``degraded``
  / ``stopping``), liveness, readiness and the pending-request gauge;
* ``GET /healthz/live`` — **liveness** alone: 200 whenever the process
  answers (a live-but-degraded daemon must not be restarted by its
  orchestrator — restarts don't fix a failing backing store);
* ``GET /healthz/ready`` — **readiness**: 200 only when new live-generation
  work is being accepted, 503 while degraded or stopping (take the
  instance out of rotation, don't kill it);
* ``GET /metrics`` — the :meth:`~repro.serve.ServeMetrics.snapshot` JSON;
* ``GET /scenarios`` — the registry with per-scenario servability notes;
* ``POST /generate`` — a :class:`~repro.serve.protocol.GenerateRequest`
  JSON body, answered as a **chunked NDJSON stream**: one line per
  :class:`~repro.serve.protocol.ChunkPayload` as each shared batch
  completes, terminated by the request's
  :class:`~repro.serve.protocol.RequestSummary` line.  A client that
  disconnects mid-stream has its request cancelled: pending work is
  dropped, the batch slot is released, metrics/cache stay consistent.

Error mapping: malformed body / unknown scenario → 400, backpressure
rejection → 429 with a ``Retry-After`` hint, service stopping or degraded
(circuit breaker open) → 503 (degraded also carries ``Retry-After``),
unknown path → 404.  See ``docs/serving.md`` for the full lifecycle and
failure model.
"""

from __future__ import annotations

import asyncio
import json
import signal

from ..scenarios import ScenarioError
from .protocol import GenerateRequest, ProtocolError, RequestSummary
from .service import (
    GenerationService,
    ServiceBusyError,
    ServiceClosedError,
    ServiceDegradedError,
)
from .supervisor import WorkerConfig

__all__ = ["ServeServer", "scenario_listing", "servable_note", "service_from_args"]

_MAX_BODY = 4 * 1024 * 1024


def servable_note(spec) -> str:
    """One-line servability note for a resolved scenario spec.

    Every registered scenario is servable with overrides; the note tells an
    operator what the first request will cost — the service trains the
    scenario's pipeline on demand, and a non-``tiny`` preset makes that
    warmup heavy.
    """
    preset = spec.preset or "tiny"
    if preset == "tiny":
        return "servable (tiny preset: fast warmup on first request)"
    return f"servable ({preset} preset: heavy warmup, trains at first request)"


def scenario_listing(registry) -> "list[dict]":
    """The ``GET /scenarios`` payload: name, description, servability."""
    listing = []
    for name in registry.names():
        spec = registry.resolve(name)
        listing.append(
            {
                "name": name,
                "description": spec.description,
                "preset": spec.preset or "tiny",
                "servable": servable_note(spec),
            }
        )
    return listing


class ServeServer:
    """The HTTP daemon: parses requests, maps them onto the service."""

    def __init__(self, service: GenerationService, host: str = "127.0.0.1", port: int = 8181) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: "asyncio.base_events.Server | None" = None

    async def start(self) -> None:
        """Start the service worker and begin accepting connections.

        With ``port=0`` the OS picks a free port; :attr:`port` is updated to
        the bound value (how the tests run an ephemeral server).
        """
        await self.service.start()
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def stop(self) -> None:
        """Stop accepting, then stop the service cleanly (mid-stream safe)."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.stop()

    # ------------------------------------------------------------------ #
    # request handling
    # ------------------------------------------------------------------ #
    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        try:
            try:
                method, path, body = await self._read_request(reader)
            except (ValueError, asyncio.IncompleteReadError) as error:
                await self._respond(writer, 400, {"error": f"malformed request: {error}"})
                return
            await self._route(method, path, body, writer, reader)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to clean up
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        request_line = (await reader.readline()).decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3:
            raise ValueError(f"bad request line {request_line!r}")
        method, path, _version = parts
        headers: "dict[str, str]" = {}
        while True:
            line = (await reader.readline()).decode("latin-1")
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0"))
        if length < 0 or length > _MAX_BODY:
            raise ValueError(f"content-length {length} out of bounds")
        body = await reader.readexactly(length) if length else b""
        return method.upper(), path, body

    async def _route(
        self, method: str, path: str, body: bytes, writer, reader=None
    ) -> None:
        if method == "GET" and path == "/healthz":
            await self._respond(
                writer,
                200,
                {
                    "status": self.service.state,
                    "live": True,
                    "ready": self.service.ready,
                    "pending": self.service.pending,
                    "worker_restarts": self.service.metrics.worker_restarts,
                },
            )
        elif method == "GET" and path == "/healthz/live":
            # Liveness is the process answering at all — degraded included:
            # restarting a daemon whose *backing store* fails fixes nothing.
            await self._respond(writer, 200, {"live": True})
        elif method == "GET" and path == "/healthz/ready":
            ready = self.service.ready
            await self._respond(
                writer,
                200 if ready else 503,
                {"ready": ready, "status": self.service.state},
            )
        elif method == "GET" and path == "/metrics":
            await self._respond(writer, 200, self.service.metrics.snapshot())
        elif method == "GET" and path == "/scenarios":
            await self._respond(
                writer, 200, {"scenarios": scenario_listing(self.service.registry)}
            )
        elif method == "POST" and path == "/generate":
            await self._generate(body, writer, reader)
        else:
            await self._respond(writer, 404, {"error": f"no route {method} {path}"})

    @staticmethod
    def _retry_after_headers(error) -> "dict[str, str]":
        seconds = max(1, int(-(-float(getattr(error, "retry_after", 1.0)) // 1)))
        return {"Retry-After": str(seconds)}

    async def _generate(self, body: bytes, writer, reader=None) -> None:
        try:
            request = GenerateRequest.from_dict(json.loads(body.decode("utf-8")))
            ticket = self.service.submit(request)
        except (json.JSONDecodeError, UnicodeDecodeError) as error:
            await self._respond(writer, 400, {"error": f"invalid JSON body: {error}"})
            return
        except (ProtocolError, ScenarioError) as error:
            await self._respond(writer, 400, {"error": str(error)})
            return
        except ServiceBusyError as error:
            await self._respond(
                writer, 429, {"error": str(error)},
                headers=self._retry_after_headers(error),
            )
            return
        except ServiceDegradedError as error:
            await self._respond(
                writer, 503, {"error": str(error)},
                headers=self._retry_after_headers(error),
            )
            return
        except ServiceClosedError as error:
            await self._respond(writer, 503, {"error": str(error)})
            return

        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        # Race each event against connection EOF: a client that hangs up
        # mid-stream gets its request cancelled (slot released, pending
        # work dropped) instead of generating into a dead socket.
        eof = (
            asyncio.ensure_future(reader.read()) if reader is not None else None
        )
        try:
            while True:
                getter = asyncio.ensure_future(ticket._events.get())
                waiting = {getter} if eof is None else {getter, eof}
                done, _ = await asyncio.wait(
                    waiting, return_when=asyncio.FIRST_COMPLETED
                )
                if getter not in done:
                    getter.cancel()
                    self.service.cancel(ticket, reason="client disconnected")
                    return
                event = getter.result()
                if isinstance(event, RequestSummary):
                    ticket.summary = event
                    break
                await self._write_chunk(writer, event.as_dict())
            await self._write_chunk(writer, ticket.summary.as_dict())
            writer.write(b"0\r\n\r\n")
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            self.service.cancel(ticket, reason="client disconnected")
            raise
        finally:
            if eof is not None:
                eof.cancel()
                if eof.done() and not eof.cancelled():
                    eof.exception()  # consume a ConnectionResetError, if any

    @staticmethod
    async def _write_chunk(writer, document: dict) -> None:
        data = (json.dumps(document) + "\n").encode("utf-8")
        writer.write(f"{len(data):x}\r\n".encode("latin-1") + data + b"\r\n")
        await writer.drain()

    @staticmethod
    async def _respond(
        writer, status: int, document: dict, headers: "dict[str, str] | None" = None
    ) -> None:
        reason = {200: "OK", 400: "Bad Request", 404: "Not Found", 429: "Too Many Requests", 503: "Service Unavailable"}.get(status, "Error")
        data = json.dumps(document).encode("utf-8")
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        writer.write(
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(data)}\r\n"
            f"{extra}"
            f"Connection: close\r\n\r\n".encode("latin-1")
            + data
        )
        await writer.drain()


# ---------------------------------------------------------------------- #
# entry point (``python -m repro serve`` parses the options)
# ---------------------------------------------------------------------- #
def service_from_args(args, registry) -> GenerationService:
    """Construct the :class:`GenerationService` a parsed CLI asks for."""
    worker_config = None
    if args.supervised:
        worker_config = WorkerConfig(
            advance_timeout=args.advance_timeout,
            max_restarts=args.max_restarts,
        )
    return GenerationService(
        registry=registry,
        max_pending=args.max_pending,
        max_batch=args.max_batch,
        library_root=args.library,
        worker_config=worker_config,
        deadline_seconds=args.deadline,
        retry_budget=args.retry_budget,
    )


async def _serve_until_interrupted(server: ServeServer) -> None:
    await server.start()
    print(f"repro serve listening on http://{server.host}:{server.port}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except NotImplementedError:  # non-Unix event loops
            pass
    await stop.wait()
    print("repro serve: shutting down", flush=True)
    await server.stop()
