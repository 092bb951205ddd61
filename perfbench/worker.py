"""One batch workload instance (or the traced server), run in a fresh process.

``run.py`` starts this script with ``src/`` on ``PYTHONPATH`` and the BLAS
thread count pinned::

    python3 perfbench/worker.py cold-setup --t0 T --seed S --result FILE
    python3 perfbench/worker.py cold --t0 T --seed S --out DIR --result FILE [--spans FILE]
    python3 perfbench/worker.py hotspot-setup --t0 T --seed S --samples N --result FILE
    python3 perfbench/worker.py hotspot --t0 T --seed S --samples N --out DIR --result FILE [--spans FILE]
    python3 perfbench/worker.py serve --spans FILE -- <python -m repro serve arguments>

The batch modes write one JSON document to ``--result``: the outputs, the
output checks and the phase times ``start_s`` (spawn until the plan is
lowered), ``train_s`` (data and training), ``generate_s`` (the library
build) and, for hotspot, ``read_s``.  The ``-setup`` modes stop after their
workload's set-up: ``cold-setup`` once the plan is lowered,
``hotspot-setup`` once the model is trained.  ``--spans`` turns tracing on
and names the file the spans are written to when the instance ends.
``serve`` is the traced server: it installs the wrappers, then runs the
CLI's ``serve`` until SIGTERM.
``--t0`` is the parent's ``time.perf_counter()`` taken just before the
spawn (a system-wide monotonic clock on Linux), so ``start_s`` includes
interpreter start-up.
"""

from __future__ import annotations

import argparse
import json
import resource
import time
from pathlib import Path

import plans
from tracing import Tracer

#: Shortest read phase of hotspot-library: whole passes over the finished
#: library are read until this much time has passed, so the read rate is
#: timed over seconds whatever the library's size or the host's speed.
READ_MIN_SECONDS = 2.0


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tracer(args) -> Tracer:
    tracer = Tracer()
    if args.spans is not None:
        tracer.install()
    return tracer


def _finish_trace(tracer: Tracer, args) -> None:
    if args.spans is not None:
        tracer.uninstall()
        tracer.dump(args.spans)


def band_counts(root) -> dict:
    """Stored patterns per total complexity ``cx + cy`` (no shard is loaded)."""
    from repro.library import PatternLibrary

    counts: dict[int, int] = {}
    for cx, cy, count in PatternLibrary(root).pattern_histogram().as_records():
        counts[cx + cy] = counts.get(cx + cy, 0) + count
    return counts


def _split_bands(counts: dict) -> tuple[tuple[int, int], tuple[int, int]]:
    """A dense bulk band and a sparse tail band that together cover the library.

    The tail is the fewest top total complexities holding at least 15 % of the
    patterns, so both bands reach into every shard and a pass costs the same
    shard parsing whatever the seed; the bulk is everything below it.
    """
    total, tail, split = sum(counts.values()), 0, max(counts)
    for value in sorted(counts, reverse=True):
        tail += counts[value]
        split = value
        if tail >= 0.15 * total:
            break
    return (min(counts), split - 1), (split, max(counts))


def read_back(root, tracer: Tracer) -> dict:
    """The read phase: passes over a dense and a sparse band for ``READ_MIN_SECONDS``.

    Each band read is what a consumer process pulling one training slice
    does: open the library afresh (empty shard cache), query the complexity
    band and load every handle.  The dense band loads many patterns per shard
    it parses, the sparse one few.
    """
    from repro.library import PatternLibrary

    counts = band_counts(root)
    bands = _split_bands(counts)
    loaded, passes, patterns, complete = 0, 0, [], True
    with tracer.span("phase.read"):
        tic = time.perf_counter()
        while passes == 0 or time.perf_counter() - tic < READ_MIN_SECONDS:
            for lo, hi in bands:
                with tracer.span("bench.read") as info:
                    library = PatternLibrary(root)
                    batch = [h.load() for h in library.query(complexity_band=(lo, hi))]
                    info.update(band=f"{lo}:{hi}", loaded=len(batch))
                loaded += len(batch)
                indexed = sum(n for value, n in counts.items() if lo <= value <= hi)
                complete = complete and len(batch) == indexed
                if passes == 0:
                    patterns.extend(batch)
            passes += 1
        read_s = time.perf_counter() - tic
    return {
        "loaded": loaded, "passes": passes, "read_s": read_s,
        "patterns": patterns, "complete": complete,
    }


def build_library(pipeline, plan, args):
    """Stream the plan's samples into a fresh v2 library: ``(result, seconds)``."""
    from repro.library import PatternLibrary
    from repro.utils import as_rng

    tic = time.perf_counter()
    library = PatternLibrary(args.out, dedup=plan.dedup, writer=plans.WRITER)
    graph = pipeline.generation_graph(
        num_solutions=plan.num_solutions,
        retain_topologies=plan.retain_topologies,
        library=library,
    )
    result = graph.run(plan.num_generated, seed=as_rng(args.seed))
    return result, time.perf_counter() - tic


def batch_result(plan, result, root, read: "dict | None") -> dict:
    """Outputs, output checks and the library's footprint of a batch run."""
    from repro.drc import DesignRuleChecker
    from repro.library import PatternLibrary

    library = PatternLibrary(root)
    summary = library.summary()
    patterns = read["patterns"] if read is not None else library.load_patterns()
    stats = result.legalization_report.stats if result.legalization_report else None
    checks = {
        "patterns > 0": result.num_patterns > 0,
        "legality = 1": result.legality == 1.0,
        "reopened summary() patterns match the run": summary["patterns"] == result.num_patterns,
        "reopened summary() H matches the run": abs(
            summary["diversity"] - result.pattern_diversity
        ) <= 1e-9,
        "reopened summary() legality = 1": summary["legality"] == 1.0,
        "reloaded patterns pass DRC": bool(patterns)
        and bool(DesignRuleChecker(plan.config.rules).legality_mask(patterns).all()),
    }
    if read is not None:
        checks["band reads return the indexed counts"] = read["complete"]
    return {
        "patterns": result.num_patterns,
        "legality": result.legality,
        "diversity_h": result.pattern_diversity,
        "attempted": stats.attempted if stats is not None else 0,
        "unsolved": result.unsolved,
        "checks": checks,
        "library_bytes": sum(p.stat().st_size for p in Path(root).rglob("*") if p.is_file()),
        "peak_rss_mb": _peak_rss_mb(),
    }


def batch(args) -> dict:
    """Train, stream the plan's samples into a fresh v2 library, read it back (hotspot)."""
    from repro.pipeline import DiffPatternPipeline
    from repro.utils import as_rng

    if args.mode.startswith("hotspot"):
        plan = plans.lower(plans.HOTSPOT_SCENARIO, plans.hotspot_overrides(args.samples))
    else:
        plan = plans.lower(plans.COLD_SCENARIO, plans.cold_overrides())
    start_s = time.perf_counter() - args.t0
    if args.mode == "cold-setup":
        return {"start_s": start_s}

    tracer = _tracer(args)
    with tracer.span("phase.run"):
        tic = time.perf_counter()
        pipeline = DiffPatternPipeline(plan.config)
        gen = as_rng(plan.seed)
        pipeline.prepare_data(plan.num_training_patterns, rng=gen)
        pipeline.train(rng=gen)
        train_s = time.perf_counter() - tic
        if args.mode == "hotspot-setup":
            return {"train_s": train_s}
        with tracer.span("phase.build"):
            result, generate_s = build_library(pipeline, plan, args)
    read = read_back(args.out, tracer) if args.mode == "hotspot" else None
    _finish_trace(tracer, args)

    out = batch_result(plan, result, args.out, read)
    out.update(start_s=start_s, train_s=train_s, generate_s=generate_s)
    if read is not None:
        out.update(read_s=read["read_s"], loaded=read["loaded"], passes=read["passes"])
    return out


def serve(args, serve_args: list) -> int:
    """The CLI's ``serve`` with every layer wrapped; spans written at exit."""
    tracer = Tracer()
    tracer.install()
    from repro.cli import main as cli_main

    serve_args = [a for a in serve_args if a != "--"]
    try:
        return cli_main(["serve", *serve_args])
    finally:
        tracer.uninstall()
        tracer.dump(args.spans)


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark workload instance")
    parser.add_argument("mode", choices=("cold-setup", "cold", "hotspot-setup", "hotspot", "serve"))
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--samples", type=int, default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--result", type=Path, default=None)
    parser.add_argument("--spans", type=Path, default=None)
    args, rest = parser.parse_known_args(argv)
    if args.mode == "serve":
        return serve(args, rest)
    if rest:
        parser.error(f"unrecognized arguments: {' '.join(rest)}")
    args.result.write_text(json.dumps(batch(args)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
