"""Per-layer metrics of a traced run, derived from its spans.

Each metric is measured at one wrapped function (:data:`SOURCE`).  A metric
whose function the workload never calls by design (the serve layer on the
batch workloads, the library reads on cold-generate) is *not exercised*.  A
metric is *missing* when its function should be called (:data:`EXPECTED`)
but saw no calls or no longer exists, or when a count it is derived from
could not be read off the program's report.  Both kinds are reported as
``-1`` in the JSON result, never as a zero, and are named in the printed
report; ``trace.missing`` counts the missing ones.
"""

from __future__ import annotations

from tracing import TARGETS, SpanSet, covered_seconds

_TRAIN = ("data.synthesize", "train.fit", "train.forward", "train.backward", "train.optimizer")
_GENERATE = ("sample", "prefilter", "legalize", "drc", "stream.advance")

#: Wrapped functions each workload must call.
EXPECTED = {
    "cold-generate": _TRAIN + _GENERATE + ("library.append",),
    "hotspot-library": _TRAIN + _GENERATE
    + ("library.append", "library.plan", "library.query", "library.load"),
    "serve-mixed": _TRAIN + _GENERATE + ("serve.advance", "serve.encode", "serve.decode"),
}

#: The benchmark's own phase spans whose wall time a workload measures.
PHASES = {
    "cold-generate": ("phase.run",),
    "hotspot-library": ("phase.run", "phase.read"),
}

#: Per-layer metric -> the wrapped function it is measured at.
SOURCE = {
    "data.synthesize_s": "data.synthesize",
    "train.fit_s": "train.fit",
    "train.iters_per_s": "train.fit",
    "train.forward_s": "train.forward",
    "train.backward_s": "train.backward",
    "train.optimizer_s": "train.optimizer",
    "train.self_s": "train.fit",
    "train.final_loss": "train.fit",
    "sample.s": "sample",
    "sample.calls": "sample",
    "sample.samples": "sample",
    "sample.samples_per_s": "sample",
    "sample.model_s": "sample",
    "sample.mixing_s": "sample",
    "sample.model_evals": "sample",
    "prefilter.s": "prefilter",
    "prefilter.keep_rate": "prefilter",
    "legalize.s": "legalize",
    "legalize.topologies": "legalize",
    "legalize.topologies_per_s": "legalize",
    "legalize.fast_path_rate": "legalize",
    "legalize.tail_solves": "legalize",
    "legalize.success_rate": "legalize",
    "legalize.compile_cache_hit_rate": "legalize",
    "drc.s": "drc",
    "drc.patterns_per_s": "drc",
    "stream.advance_s": "stream.advance",
    "stream.chunks": "stream.advance",
    "stream.self_s": "stream.advance",
    "library.append_s": "library.append",
    "library.plan_s": "library.plan",
    "library.duplicate_rate": "library.append",
    "library.bytes_per_pattern": "library.append",
    "library.query_s": "library.query",
    "library.load_dense_per_s": "library.load",
    "library.load_sparse_per_s": "library.load",
    "serve.advance_s": "serve.advance",
    "serve.busy_share": "serve.advance",
    "serve.batches": "serve.advance",
    "serve.batch_size_mean": "serve.advance",
    "serve.batch_occupancy_mean": "serve.advance",
    "serve.cache_hit_rate": "serve.advance",
    "serve.rejected": "serve.advance",
    "serve.encode_s": "serve.encode",
    "serve.decode_s": "serve.decode",
}


def _ratio(numerator, denominator):
    """``numerator / denominator``; ``None`` when either is unknown or the base is 0."""
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _band_load_rates(spans: SpanSet):
    """Patterns loaded per second in the dense and the sparse band."""
    per_band: dict = {}
    for i, span in enumerate(spans.spans):
        if span["name"] != "bench.read":
            continue
        load_s = sum(
            spans.duration(spans.spans[c])
            for c in spans.children.get(i, ())
            if spans.spans[c]["name"] == "library.load"
        )
        info = span["info"] or {}
        entry = per_band.setdefault(info.get("band"), [0, 0.0])
        entry[0] += info.get("loaded", 0)
        entry[1] += load_s
    bands = [(loaded, seconds) for loaded, seconds in per_band.values() if loaded and seconds > 0]
    if not bands:
        return None, None
    dense, sparse = max(bands), min(bands)
    return dense[0] / dense[1], sparse[0] / sparse[1]


def layer_metrics(workload: str, spans: SpanSet, windows, extras: dict):
    """``(values, missing, not_exercised)`` for one traced workload instance.

    ``windows`` are the ``(start, end)`` intervals of the measured phase(s);
    ``extras`` carries what spans cannot: ``overhead_s`` (traced minus
    untraced ``wall_s``), ``library_bytes``/``stored`` and, for serve-mixed,
    the server's ``/metrics`` snapshot and the closed loop's window.
    ``values`` holds ``None`` wherever nothing was measured; ``missing``
    names every expected function without calls and every metric whose
    count could not be read.
    """
    s = spans
    called = {name for name in TARGETS if s.calls(name)}
    expected = set(EXPECTED[workload])
    v: dict = {}

    v["data.synthesize_s"] = s.total("data.synthesize")
    fit_s = s.total("train.fit")
    fits = s.named("train.fit")
    v["train.fit_s"] = fit_s
    v["train.iters_per_s"] = _ratio(s.info_sum("train.fit", "iterations"), fit_s)
    v["train.forward_s"] = s.total("train.forward")
    v["train.backward_s"] = s.total("train.backward")
    v["train.optimizer_s"] = s.total("train.optimizer")
    v["train.self_s"] = s.self_time("train.fit")
    v["train.final_loss"] = (fits[-1]["info"] or {}).get("final_loss") if fits else None

    sample_s = s.total("sample")
    samples = s.info_sum("sample", "samples")
    v["sample.s"] = sample_s
    v["sample.calls"] = s.calls("sample")
    v["sample.samples"] = samples
    v["sample.samples_per_s"] = _ratio(samples, sample_s)
    v["sample.model_s"] = s.info_sum("sample", "model_s")
    v["sample.mixing_s"] = s.info_sum("sample", "mixing_s")
    v["sample.model_evals"] = s.info_sum("sample", "model_evals")

    v["prefilter.s"] = s.total("prefilter")
    v["prefilter.keep_rate"] = _ratio(s.info_sum("prefilter", "kept"), s.calls("prefilter"))

    legalize_s = s.total("legalize")
    topologies = s.info_sum("legalize", "topologies")
    hits = s.info_sum("legalize", "cache_hits")
    misses = s.info_sum("legalize", "cache_misses")
    v["legalize.s"] = legalize_s
    v["legalize.topologies"] = topologies
    v["legalize.topologies_per_s"] = _ratio(topologies, legalize_s)
    v["legalize.fast_path_rate"] = _ratio(
        s.info_sum("legalize", "fast_path"), s.info_sum("legalize", "solutions")
    )
    v["legalize.tail_solves"] = s.info_sum("legalize", "tail_solves")
    v["legalize.success_rate"] = _ratio(
        s.info_sum("legalize", "solved"), s.info_sum("legalize", "attempted")
    )
    v["legalize.compile_cache_hit_rate"] = (
        None if hits is None or misses is None else _ratio(hits, hits + misses)
    )

    drc_s = s.total("drc")
    v["drc.s"] = drc_s
    v["drc.patterns_per_s"] = _ratio(s.info_sum("drc", "patterns"), drc_s)

    v["stream.advance_s"] = s.total("stream.advance")
    v["stream.chunks"] = s.calls("stream.advance")
    v["stream.self_s"] = s.self_time("stream.advance")

    v["library.append_s"] = s.total("library.append")
    v["library.plan_s"] = s.total("library.plan")
    v["library.duplicate_rate"] = _ratio(
        s.info_sum("library.append", "duplicates"), s.info_sum("library.append", "offered")
    )
    v["library.bytes_per_pattern"] = _ratio(extras.get("library_bytes"), extras.get("stored"))
    v["library.query_s"] = s.total("library.query")
    v["library.load_dense_per_s"], v["library.load_sparse_per_s"] = _band_load_rates(s)

    snapshot = extras.get("serve_metrics") or {}
    advances = [(x["start"], x["end"]) for x in s.named("serve.advance")]
    loop = extras.get("loop_window")
    v["serve.advance_s"] = s.total("serve.advance")
    v["serve.busy_share"] = (
        _ratio(covered_seconds(advances, loop), loop[1] - loop[0]) if loop else None
    )
    v["serve.batches"] = snapshot.get("batches")
    v["serve.batch_size_mean"] = snapshot.get("batch_size_mean")
    v["serve.batch_occupancy_mean"] = snapshot.get("batch_occupancy_mean")
    v["serve.cache_hit_rate"] = snapshot.get("cache_hit_rate")
    v["serve.rejected"] = snapshot.get("requests_rejected")
    v["serve.encode_s"] = s.total("serve.encode")
    v["serve.decode_s"] = s.total("serve.decode")

    unreadable = []
    for metric, source in SOURCE.items():
        if source not in called:
            v[metric] = None
        elif v[metric] is None:
            unreadable.append(metric)
    missing = [
        f"{name} ({s.absent.get(name, 'no calls')})" for name in sorted(expected - called)
    ] + [f"{metric} (count not readable)" for metric in unreadable]
    not_exercised = sorted(set(TARGETS) - expected - called)

    outermost = [(x["start"], x["end"]) for x in s.outermost(set(TARGETS))]
    measured = sum(hi - lo for lo, hi in windows)
    attributed = sum(covered_seconds(outermost, window) for window in windows)
    v["trace.overhead_s"] = extras.get("overhead_s")
    v["trace.unattributed_s"] = measured - attributed
    v["trace.missing"] = len(missing)
    return v, missing, not_exercised


def dominance(workload: str, spans: SpanSet) -> list[tuple[str, bool]]:
    """The layer-dominance statements the traced run is expected to show."""
    s = spans
    if workload == "cold-generate":
        run = s.total("phase.run")
        totals = {name: s.nested_total("phase.run", name) for name in TARGETS}
        top = {n: t for n, t in totals.items() if n not in ("train.forward", "train.backward", "train.optimizer")}
        largest = max(top, key=top.get)
        share = _ratio(top[largest], run) or 0.0
        return [(f"largest span of the run is {largest} ({share:.0%} of it)", largest == "train.fit")]
    if workload == "serve-mixed":
        inside = {n: s.nested_total("serve.advance", n) for n in ("sample", "prefilter", "legalize", "drc")}
        largest = max(inside, key=inside.get)
        share = _ratio(inside[largest], s.total("serve.advance")) or 0.0
        return [(f"largest span inside serve advances is {largest} ({share:.0%} of them)", largest == "sample")]
    build = s.total("phase.build")
    assess = sum(s.nested_total("phase.build", n) for n in ("legalize", "drc", "library.append"))
    share = _ratio(assess, build) or 0.0
    return [(f"legalize + DRC + library writes are {share:.0%} of the build phase", share > 0.5)]
