"""In-memory span tracer installed around the public functions of each layer.

The tracer patches class attributes (``Class.method``) with thin wrappers
that record one span per call: name, start, end, parent span and thread.
Nothing under ``src/`` is edited; a wrapper only times the call and, for a
few functions, reads counts off the arguments or the returned report.

A target that no longer exists is recorded in :attr:`Tracer.absent` instead
of raising, and a count whose field is gone is recorded as ``None``, so a
refactor that deletes or renames a function or a report field turns the
affected metrics into "missing" rather than crashing the run or reading 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path

#: Span name -> (module, qualified attribute).  Names are what the per-layer
#: metrics are derived from; the targets are the public entry points each
#: layer exposes.
TARGETS: dict[str, tuple[str, str]] = {
    "data.synthesize": ("repro.pipeline", "DiffPatternPipeline.prepare_data"),
    "train.fit": ("repro.pipeline", "DiffPatternPipeline.train"),
    "train.forward": ("repro.diffusion", "DiscreteDiffusion.loss"),
    "train.backward": ("repro.nn", "Tensor.backward"),
    "train.optimizer": ("repro.nn", "Adam.step"),
    "sample": ("repro.pipeline", "SamplingEngine.sample_with_report"),
    "prefilter": ("repro.prefilter", "TopologyPrefilter.reject_reason"),
    "legalize": ("repro.legalization", "LegalizationEngine.legalize_batch_with_report"),
    "drc": ("repro.drc", "DesignRuleChecker.legality_mask"),
    "stream.advance": ("repro.pipeline", "GenerationStream.advance"),
    "library.append": ("repro.library", "PatternLibrary.append_chunk"),
    "library.plan": ("repro.library", "PatternLibrary.plan_chunk"),
    "library.query": ("repro.library", "PatternLibrary.query"),
    "library.load": ("repro.library", "PatternHandle.load"),
    "serve.advance": ("repro.serve", "StreamBatcher.advance"),
    "serve.encode": ("repro.serve", "ChunkPayload.as_dict"),
    "serve.decode": ("repro.serve", "ChunkPayload.from_dict"),
}


# --------------------------------------------------------------------------- #
# probes: counts read off a call's arguments / result.  Each field is read on
# its own and is None when it cannot be read; a probe that raises leaves the
# span's info as None, so every count of that span reads as missing.
# --------------------------------------------------------------------------- #
def _field(obj, name: str):
    """``obj.name`` as a number, or ``None`` when it is gone or not a number."""
    try:
        return float(getattr(obj, name))
    except (AttributeError, TypeError, ValueError):
        return None


def _probe_fit(args, kwargs, result, before):
    losses = [float(entry["loss"]) for entry in result]
    tail = losses[-max(1, len(losses) // 10):]
    return {
        "iterations": len(losses) or None,
        "final_loss": sum(tail) / len(tail) if tail else None,
    }


def _probe_sample(args, kwargs, result, before):
    report = result[1]
    return {
        "samples": _field(report, "num_samples"),
        "model_s": _field(report, "model_seconds"),
        "mixing_s": _field(report, "mixing_seconds"),
        "model_evals": _field(report, "model_evals"),
    }


def _probe_prefilter(args, kwargs, result, before):
    return {"kept": int(result is None)}


def _cache_counts():
    from repro.legalization import compilation_cache_info

    info = compilation_cache_info()
    return float(info["hits"]), float(info["misses"])


def _probe_legalize(args, kwargs, result, before):
    report = result[1]
    stats = getattr(report, "stats", None)
    after = _safe(_cache_counts)
    cache = before is not None and after is not None
    return {
        "topologies": _field(report, "num_topologies"),
        "attempted": _field(stats, "attempted"),
        "solved": _field(stats, "solved"),
        "solutions": _field(stats, "solutions"),
        "fast_path": _field(stats, "fast_path_solutions"),
        "tail_solves": _field(stats, "batched_tail_solves"),
        "cache_hits": after[0] - before[0] if cache else None,
        "cache_misses": after[1] - before[1] if cache else None,
    }


def _probe_drc(args, kwargs, result, before):
    return {"patterns": len(result)}


def _probe_append(args, kwargs, result, before):
    record = args[1] if len(args) > 1 else kwargs.get("record")
    patterns = args[2] if len(args) > 2 else kwargs.get("patterns")
    return {
        "offered": len(patterns) if patterns is not None else None,
        "duplicates": _field(record, "duplicates_skipped"),
    }


PROBES = {
    "train.fit": (None, _probe_fit),
    "sample": (None, _probe_sample),
    "prefilter": (None, _probe_prefilter),
    "legalize": (lambda args, kwargs: _cache_counts(), _probe_legalize),
    "drc": (None, _probe_drc),
    "library.append": (None, _probe_append),
}


class Tracer:
    """Collects spans in memory; :meth:`dump` writes them out at the end."""

    def __init__(self) -> None:
        #: One ``[name, start, end, parent_record, thread_id, info]`` list per
        #: call, in start order.  ``list.append`` is atomic, so the serve
        #: event-loop and executor threads can share the list.
        self.spans: list[list] = []
        #: Span name -> why its target could not be wrapped.
        self.absent: dict[str, str] = {}
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, info=None) -> list:
        stack = self._stack()
        record = [name, time.perf_counter(), None, stack[-1] if stack else None,
                  threading.get_ident(), info]
        self.spans.append(record)
        stack.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    @contextmanager
    def span(self, name: str):
        """A span for the benchmark's own phases; yields its info dict."""
        record = self._open(name, {})
        try:
            yield record[5]
        finally:
            self._close(record)

    # ------------------------------------------------------------------ #
    def install(self, names=None) -> None:
        """Wrap every target in ``names`` (default: all of :data:`TARGETS`)."""
        for name in names or TARGETS:
            module, qualname = TARGETS[name]
            try:
                owner = importlib.import_module(module)
                *path, attr = qualname.split(".")
                for part in path:
                    owner = getattr(owner, part)
                raw = inspect.getattr_static(owner, attr)
            except (ImportError, AttributeError) as error:
                self.absent[name] = f"{module}.{qualname}: {error}"
                continue
            kind = type(raw) if isinstance(raw, (classmethod, staticmethod)) else None
            func = raw.__func__ if kind is not None else raw
            if not callable(func):
                self.absent[name] = f"{module}.{qualname} is not callable"
                continue
            wrapper = self._wrapper(name, func)
            setattr(owner, attr, kind(wrapper) if kind is not None else wrapper)
            self._restore.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Put every original attribute back."""
        while self._restore:
            owner, attr, raw = self._restore.pop()
            setattr(owner, attr, raw)

    def _wrapper(self, name: str, func):
        before_hook, probe = PROBES.get(name, (None, None))
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            before = _safe(before_hook, args, kwargs) if before_hook else None
            record = tracer._open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._close(record)
            if probe is not None:
                record[5] = _safe(probe, args, kwargs, result, before)
            return result

        return traced

    # ------------------------------------------------------------------ #
    def export(self) -> dict:
        """Spans as plain JSON data (parents as indices into the list)."""
        index = {id(record): i for i, record in enumerate(self.spans)}
        spans = [
            {
                "name": name,
                "start": start,
                "end": end if end is not None else start,
                "parent": index.get(id(parent)) if parent is not None else None,
                "thread": thread,
                "info": info,
            }
            for name, start, end, parent, thread, info in self.spans
        ]
        return {"spans": spans, "absent": dict(self.absent)}

    def dump(self, path: "str | Path") -> None:
        Path(path).write_text(json.dumps(self.export()))


def _safe(fn, *args):
    try:
        return fn(*args)
    except Exception:  # a probe must never break the workload it observes
        return None


# --------------------------------------------------------------------------- #
# analysis
# --------------------------------------------------------------------------- #
class SpanSet:
    """Aggregates over one process's exported spans."""

    def __init__(self, data: "dict | None") -> None:
        data = data or {"spans": [], "absent": {}}
        self.spans = data["spans"]
        self.absent = dict(data.get("absent", {}))
        self.children: dict[int, list[int]] = {}
        for i, span in enumerate(self.spans):
            if span["parent"] is not None:
                self.children.setdefault(span["parent"], []).append(i)

    @staticmethod
    def duration(span: dict) -> float:
        return span["end"] - span["start"]

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def total(self, name: str) -> float:
        return sum(self.duration(s) for s in self.named(name))

    def self_time(self, name: str) -> float:
        """Span time minus the time covered by its (sequential) child spans."""
        total = 0.0
        for i, span in enumerate(self.spans):
            if span["name"] != name:
                continue
            covered = sum(self.duration(self.spans[c]) for c in self.children.get(i, ()))
            total += self.duration(span) - covered
        return total

    def outermost(self, names: set) -> list[dict]:
        """Spans named in ``names`` with no ancestor named in ``names``."""
        found = []
        for span in self.spans:
            if span["name"] not in names:
                continue
            parent = span["parent"]
            while parent is not None and self.spans[parent]["name"] not in names:
                parent = self.spans[parent]["parent"]
            if parent is None:
                found.append(span)
        return found

    def info_sum(self, name: str, key: str) -> "float | None":
        """Sum of count ``key`` over ``name`` spans; ``None`` if any could not read it."""
        values = [(s["info"] or {}).get(key) for s in self.named(name)]
        if any(value is None for value in values):
            return None
        return sum(values)

    def nested_total(self, root_name: str, name: str) -> float:
        """Time in ``name`` spans nested at any depth under a ``root_name`` span."""
        total = 0.0
        for span in self.spans:
            if span["name"] != name:
                continue
            parent = span["parent"]
            while parent is not None:
                if self.spans[parent]["name"] == root_name:
                    total += self.duration(span)
                    break
                parent = self.spans[parent]["parent"]
        return total


def covered_seconds(intervals, window: "tuple | None" = None) -> float:
    """Length of the union of ``(start, end)`` intervals, clipped to ``window``."""
    clipped = []
    for start, end in intervals:
        if window is not None:
            start, end = max(start, window[0]), min(end, window[1])
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total, cursor = 0.0, None
    for start, end in clipped:
        if cursor is None or start > cursor:
            total += end - start
            cursor = end
        elif end > cursor:
            total += end - cursor
            cursor = end
    return total
