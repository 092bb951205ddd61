"""Request/response schema of the ``repro serve`` generation service.

Everything that crosses the service boundary — in-process through
:class:`~repro.serve.GenerationService`, or over HTTP through
:class:`~repro.serve.ServeClient` — is one of three JSON-serialisable
shapes:

* :class:`GenerateRequest` — what a client asks for: a scenario name, the
  optional section overrides :meth:`~repro.scenarios.ScenarioSpec.with_overrides`
  accepts, and a sample window (``count`` topologies starting at ``start``).
* :class:`ChunkPayload` — one streamed slice of results: the legal patterns
  whose source samples fall inside the request's window, delivered as each
  shared generation chunk completes (or straight from the cache).
* :class:`RequestSummary` — the terminal event of every request: totals,
  cache accounting, and the error message when the request did not finish.

Patterns travel in the :meth:`~repro.squish.SquishPattern.as_arrays` layout
with arrays flattened to nested lists (:func:`pattern_to_json` /
:func:`pattern_from_json`), so a decoded pattern is bit-identical to the
generated one — the wire format is part of the determinism contract.

Malformed payloads raise :class:`ProtocolError`, which the HTTP layer maps
to a 400 response.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from typing import Any, Mapping

import numpy as np

from ..squish import SquishPattern

__all__ = [
    "ChunkPayload",
    "GenerateRequest",
    "ProtocolError",
    "RequestSummary",
    "pattern_from_json",
    "pattern_to_json",
]


class ProtocolError(ValueError):
    """A request or response payload does not match the schema."""


def pattern_to_json(pattern: SquishPattern) -> dict:
    """Encode one pattern as a JSON-safe dict (lossless).

    The arrays of :meth:`~repro.squish.SquishPattern.as_arrays` become
    nested lists; dtypes are implied by the squish codec (uint8 topology,
    int64 deltas and origin) and restored exactly on decode.
    """
    arrays = pattern.as_arrays()
    return {
        "topology": np.asarray(arrays["topology"], dtype=np.uint8).tolist(),
        "delta_x": np.asarray(arrays["delta_x"], dtype=np.int64).tolist(),
        "delta_y": np.asarray(arrays["delta_y"], dtype=np.int64).tolist(),
        "origin": np.asarray(arrays["origin"], dtype=np.int64).tolist(),
    }


def pattern_from_json(data: Mapping[str, Any], source: str = "payload") -> SquishPattern:
    """Decode :func:`pattern_to_json` output back into a pattern.

    Raises
    ------
    ProtocolError
        When the payload is not a mapping or fails the squish-codec
        validation (missing arrays, shape mismatches).
    """
    if not isinstance(data, Mapping):
        raise ProtocolError(f"{source}: pattern must be a mapping")
    try:
        return SquishPattern.from_arrays(
            {
                "topology": np.asarray(data.get("topology"), dtype=np.uint8),
                "delta_x": np.asarray(data.get("delta_x"), dtype=np.int64),
                "delta_y": np.asarray(data.get("delta_y"), dtype=np.int64),
                "origin": np.asarray(data.get("origin", (0, 0)), dtype=np.int64),
            },
            source=source,
        )
    except (TypeError, ValueError) as error:
        raise ProtocolError(f"{source}: {error}") from error


def _int_field(data: Mapping[str, Any], key: str, minimum: int) -> "int | None":
    value = data.get(key)
    if value is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(f"{key} must be an integer, got {value!r}")
    if value < minimum:
        raise ProtocolError(f"{key} must be >= {minimum}, got {value}")
    return value


@dataclass(frozen=True)
class GenerateRequest:
    """One client request against the generation service.

    Parameters
    ----------
    scenario:
        Name of a registered scenario (builtin or loaded from a scenario
        file at service start).
    count:
        Number of topology samples requested.  ``None`` uses the scenario's
        own ``run.num_generated``.
    start:
        Absolute sample index the window begins at.  ``None`` (the default)
        asks the service for the next unclaimed window of the scenario's
        sample stream — the tail allocation that makes concurrent clients
        compose into one deterministic run.  An explicit ``start`` re-reads
        an already-generated window (a repeat request), served from the
        pattern cache when possible.
    overrides:
        Scenario section overrides, validated exactly like a scenario file
        (:meth:`~repro.scenarios.ScenarioSpec.with_overrides`).  Overrides
        are part of the stream identity: two requests with different
        overrides never share a batch.
    deadline:
        Optional per-request deadline in seconds.  A request that has not
        reached its summary within the budget is cancelled cleanly: it
        receives a terminal summary with ``error_code="deadline_exceeded"``,
        chunks already delivered stay valid, and its batch slot is released.
        ``None`` falls back to the service-wide default (which may also be
        ``None``: no deadline).
    """

    scenario: str
    count: "int | None" = None
    start: "int | None" = None
    overrides: Mapping[str, Mapping[str, Any]] = field(default_factory=dict)
    deadline: "float | None" = None

    @classmethod
    def from_dict(cls, data: Any) -> "GenerateRequest":
        """Validate a decoded JSON body into a request.

        Raises
        ------
        ProtocolError
            On a non-mapping body, unknown keys, a missing/invalid
            ``scenario``, or malformed ``count`` / ``start`` / ``overrides``.
        """
        if not isinstance(data, Mapping):
            raise ProtocolError("request body must be a JSON object")
        unknown = set(data) - {"scenario", "count", "start", "overrides", "deadline"}
        if unknown:
            raise ProtocolError(f"unknown request key(s): {sorted(unknown)}")
        scenario = data.get("scenario")
        if not isinstance(scenario, str) or not scenario:
            raise ProtocolError("scenario must be a non-empty string")
        overrides = data.get("overrides", {})
        if not isinstance(overrides, Mapping):
            raise ProtocolError("overrides must be a mapping of scenario sections")
        deadline = data.get("deadline")
        if deadline is not None:
            if isinstance(deadline, bool) or not isinstance(deadline, (int, float)):
                raise ProtocolError(f"deadline must be a number, got {deadline!r}")
            # json.loads accepts NaN and Infinity; NaN fails every comparison.
            if not 0 < deadline <= sys.float_info.max:
                raise ProtocolError(f"deadline must be a finite number > 0, got {deadline}")
            deadline = float(deadline)
        return cls(
            scenario=scenario,
            count=_int_field(data, "count", 1),
            start=_int_field(data, "start", 0),
            overrides=overrides,
            deadline=deadline,
        )

    def as_dict(self) -> dict:
        """The inverse of :meth:`from_dict` (the HTTP request body)."""
        payload: dict[str, Any] = {"scenario": self.scenario}
        if self.count is not None:
            payload["count"] = int(self.count)
        if self.start is not None:
            payload["start"] = int(self.start)
        if self.overrides:
            payload["overrides"] = {
                section: dict(values) for section, values in self.overrides.items()
            }
        if self.deadline is not None:
            payload["deadline"] = float(self.deadline)
        return payload


@dataclass
class ChunkPayload:
    """One streamed slice of a request's results.

    Sample indices are *absolute* positions in the scenario's sample stream
    (the same indices ``SeedSequence(seed, index)`` owns), so a client can
    splice payloads from any mix of cached and live chunks into one
    deterministic sequence.
    """

    #: Absolute sample window ``[start, end)`` this payload covers.
    start: int
    end: int
    #: Legal patterns whose source sample lies in the window, in stream order.
    patterns: list = field(default_factory=list)
    #: Absolute source sample index per pattern.
    sources: list = field(default_factory=list)
    #: DRC verdict per pattern.
    clean: list = field(default_factory=list)
    #: True when the slice was served from the pattern cache.
    cached: bool = False

    def as_dict(self) -> dict:
        return {
            "kind": "chunk",
            "start": int(self.start),
            "end": int(self.end),
            "patterns": [pattern_to_json(p) for p in self.patterns],
            "sources": [int(s) for s in self.sources],
            "clean": [bool(c) for c in self.clean],
            "cached": bool(self.cached),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChunkPayload":
        if not isinstance(data, Mapping) or data.get("kind") != "chunk":
            raise ProtocolError("chunk payload must be a mapping with kind='chunk'")
        try:
            return cls(
                start=int(data["start"]),
                end=int(data["end"]),
                patterns=[
                    pattern_from_json(p, source="chunk pattern")
                    for p in data.get("patterns", [])
                ],
                sources=[int(s) for s in data.get("sources", [])],
                clean=[bool(c) for c in data.get("clean", [])],
                cached=bool(data.get("cached", False)),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed chunk payload: {error}") from error


@dataclass
class RequestSummary:
    """Terminal event of a request: what was served, and how.

    ``ok=False`` means the request ended early — ``error`` says why (a
    human-readable message) and ``error_code`` says why *mechanically*
    (``"service_stopped"``, ``"deadline_exceeded"``, ``"cancelled"``,
    ``"warmup_failed"``, ``"generation_failed"``, ``"degraded"``) so
    clients can branch on failure class without parsing prose; every chunk
    delivered before the failure is still valid.
    """

    ok: bool
    scenario: str
    start: int
    end: int
    num_patterns: int = 0
    num_clean: int = 0
    #: Samples of the window served from the pattern cache.
    cached_samples: int = 0
    #: Live generation chunks that contributed to the window.
    live_chunks: int = 0
    elapsed_seconds: float = 0.0
    error: "str | None" = None
    #: Machine-readable failure class (``None`` when ``ok``).
    error_code: "str | None" = None

    def as_dict(self) -> dict:
        payload = {
            "kind": "summary",
            "ok": bool(self.ok),
            "scenario": self.scenario,
            "start": int(self.start),
            "end": int(self.end),
            "num_patterns": int(self.num_patterns),
            "num_clean": int(self.num_clean),
            "cached_samples": int(self.cached_samples),
            "live_chunks": int(self.live_chunks),
            "elapsed_seconds": float(self.elapsed_seconds),
        }
        if self.error is not None:
            payload["error"] = str(self.error)
        if self.error_code is not None:
            payload["error_code"] = str(self.error_code)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "RequestSummary":
        if not isinstance(data, Mapping) or data.get("kind") != "summary":
            raise ProtocolError("summary payload must be a mapping with kind='summary'")
        try:
            return cls(
                ok=bool(data["ok"]),
                scenario=str(data["scenario"]),
                start=int(data["start"]),
                end=int(data["end"]),
                num_patterns=int(data.get("num_patterns", 0)),
                num_clean=int(data.get("num_clean", 0)),
                cached_samples=int(data.get("cached_samples", 0)),
                live_chunks=int(data.get("live_chunks", 0)),
                elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
                error=data.get("error"),
                error_code=data.get("error_code"),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed summary payload: {error}") from error
