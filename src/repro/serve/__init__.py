"""Long-running generation service with cross-request batching.

``repro serve`` turns the one-shot DiffPattern CLI into a daemon: concurrent
clients ask for sample windows of a named scenario, the service coalesces
every waiting window into shared sampling/legalization batches over one
:class:`~repro.pipeline.GenerationStream` per scenario identity, streams
per-chunk results back as they complete, answers repeat windows from a
pattern cache, and rejects load beyond a bounded pending count instead
of queueing it.

Layering (one module per concern):

* :mod:`repro.serve.protocol` — the request/response schema and the
  lossless JSON pattern codec;
* :mod:`repro.serve.batcher` — per-stream warmup, window ledger,
  coalesced generation and the pattern cache;
* :mod:`repro.serve.supervisor` — the supervised multi-process worker
  pool: generation runs in child processes, crashes and hangs restart the
  worker, and the in-flight window is resubmitted deterministically;
* :mod:`repro.serve.service` — admission, backpressure, deadlines,
  retries and the circuit breaker, the worker that coalesces and routes,
  clean shutdown;
* :mod:`repro.serve.metrics` — the ``/metrics`` counters;
* :mod:`repro.serve.server` / :mod:`repro.serve.client` — the stdlib
  HTTP/1.1 transport and its retrying client.

The service inherits the pipeline's determinism contract: any window
``[a, b)`` it serves is bit-identical to samples ``[a, b)`` of a one-shot
``repro generate`` run of the same scenario/seed — including through
injected worker crashes (see ``docs/serving.md`` and :mod:`repro.faults`).
"""

from .batcher import CachedChunk, StreamBatcher, stream_key
from .client import ServeClient, ServeHTTPError
from .metrics import ServeMetrics
from .protocol import (
    ChunkPayload,
    GenerateRequest,
    ProtocolError,
    RequestSummary,
    pattern_from_json,
    pattern_to_json,
)
from .server import ServeServer, scenario_listing, servable_note, service_from_args
from .service import (
    GenerationService,
    RequestTicket,
    ServedWindow,
    ServiceBusyError,
    ServiceClosedError,
    ServiceDegradedError,
)
from .supervisor import (
    SupervisedStreamBatcher,
    SupervisedWorker,
    WorkerConfig,
    WorkerCrash,
    WorkerError,
    WorkerFailure,
)

__all__ = [
    "CachedChunk",
    "ChunkPayload",
    "GenerateRequest",
    "GenerationService",
    "ProtocolError",
    "RequestSummary",
    "RequestTicket",
    "ServeClient",
    "ServeHTTPError",
    "ServeMetrics",
    "ServeServer",
    "ServedWindow",
    "ServiceBusyError",
    "ServiceClosedError",
    "ServiceDegradedError",
    "StreamBatcher",
    "SupervisedStreamBatcher",
    "SupervisedWorker",
    "WorkerConfig",
    "WorkerCrash",
    "WorkerError",
    "WorkerFailure",
    "pattern_from_json",
    "pattern_to_json",
    "scenario_listing",
    "servable_note",
    "service_from_args",
    "stream_key",
]
