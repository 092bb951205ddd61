"""``python -m repro`` — the scenario-driven command-line front end.

Subcommands:

* ``list-scenarios``  — names, descriptions and key knobs of every registered
  scenario (built-ins plus any ``--scenario-file``).
* ``generate``        — lower a scenario and run it end to end (data →
  train → streamed sample/prefilter/legalize/DRC), optionally persisting a
  resumable :class:`~repro.library.PatternLibrary` with ``--out``.
* ``resume``          — continue a killed ``generate --out`` run from its
  manifest; completed chunks are folded from disk, never re-generated.
* ``inspect-library`` — summarise an on-disk library (chunks, patterns,
  unique topologies, diversity H, legality, per-chunk accounting) and run
  indexed queries (``--band``/``--topology``/``--regime``/``--from-writer``).
* ``compact-library`` — migrate a v1 or version-2 library to the columnar
  shard codec, then merge small shards, drop superseded duplicates and
  rebuild the on-disk index.
* ``bench``           — run a scenario and report per-stage throughput
  (sampling, legalization, graph), optionally as machine-readable JSON.
* ``serve``           — run the long-lived generation daemon: concurrent
  requests are coalesced into shared sampling/legalization batches, results
  stream back per chunk, repeat windows are answered from the pattern cache
  (see ``docs/serving.md``).

Every subcommand accepts ``--scenario-file`` (repeatable, TOML or JSON) to
register user scenarios next to the built-ins; ``generate``/``resume``/
``bench`` accept knob flags (``--generate``, ``--seed``, ``--workers``, ...)
that layer over the named scenario exactly like an ``extends`` child.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .scenarios import (
    RunPlan,
    ScenarioError,
    ScenarioRegistry,
    builtin_registry,
    load_scenarios,
)

__all__ = ["main", "serve_main", "build_parser", "knob_overrides"]


# --------------------------------------------------------------------------- #
# parser
# --------------------------------------------------------------------------- #
def _add_scenario_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scenario-file",
        action="append",
        default=[],
        metavar="FILE",
        help="register extra scenarios from a TOML/JSON file (repeatable); "
        "file scenarios may extend the built-ins",
    )


def _add_run_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scenario", required=True, help="scenario name to run")
    parser.add_argument(
        "--generate", type=int, default=None, metavar="N", help="override run.num_generated"
    )
    parser.add_argument(
        "--solutions", type=int, default=None, metavar="N", help="override run.num_solutions"
    )
    parser.add_argument("--seed", type=int, default=None, help="override run.seed")
    parser.add_argument(
        "--train-iterations", type=int, default=None, metavar="N",
        help="override training.iterations",
    )
    parser.add_argument(
        "--training-patterns", type=int, default=None, metavar="N",
        help="override training.num_patterns",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="override engine.workers (0 = auto-size to host CPUs)",
    )
    parser.add_argument(
        "--chunk-size", type=int, default=None, metavar="N",
        help="override engine.sample_batch_size (memory knob only)",
    )
    parser.add_argument(
        "--solver-mode", choices=("auto", "slsqp"), default=None,
        help="override engine.solver_mode (auto = repair-first fast path, "
        "slsqp = full solve, bit-identical to the historical solver)",
    )
    parser.add_argument(
        "--steps", type=int, default=None, metavar="N",
        help="override sampling.steps: denoising steps per sample on the "
        "evenly respaced chain (0 = full trained chain; fewer steps = "
        "fewer U-Net evaluations, see docs/sampling.md)",
    )
    parser.add_argument(
        "--dedup", action="store_true",
        help="skip exact-duplicate patterns when persisting with --out",
    )
    parser.add_argument(
        "--writer", default=None, metavar="ID",
        help="writer id for --out (default: main); each writer keeps its "
        "own manifest ledger, so several producers can append to one "
        "library concurrently.  `--writer legacy` continues the history of "
        "a v1 library that compact-library has migrated",
    )


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Scenario-driven DiffPattern generation CLI",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser(
        "list-scenarios", help="list registered scenarios and their knobs"
    )
    _add_scenario_options(p_list)
    p_list.add_argument(
        "--verbose", action="store_true", help="print each resolved spec as JSON"
    )

    p_gen = sub.add_parser(
        "generate", help="run a scenario end to end (train + generate + assess)"
    )
    _add_scenario_options(p_gen)
    _add_run_options(p_gen)
    p_gen.add_argument(
        "--out", type=Path, default=None, metavar="DIR",
        help="persist a resumable pattern library (npz shards + manifest)",
    )
    p_gen.add_argument(
        "--resume", action="store_true",
        help="continue a killed --out run from its manifest",
    )

    p_res = sub.add_parser(
        "resume", help="shorthand for `generate --resume` on an existing library"
    )
    _add_scenario_options(p_res)
    _add_run_options(p_res)
    p_res.add_argument(
        "--out", type=Path, required=True, metavar="DIR",
        help="library directory of the run to continue",
    )

    p_ins = sub.add_parser("inspect-library", help="summarise an on-disk pattern library")
    p_ins.add_argument(
        "library", type=Path,
        help="library directory (holds manifests/)",
    )
    p_ins.add_argument(
        "--chunks", action="store_true", help="print the per-chunk accounting table"
    )
    p_ins.add_argument(
        "--band", default=None, metavar="LO:HI",
        help="query: inclusive complexity band on cx+cy (either end may be "
        "empty, e.g. ':24' or '16:')",
    )
    p_ins.add_argument(
        "--topology", default=None, metavar="HASH",
        help="query: exact topology hash (sha1 hex)",
    )
    p_ins.add_argument(
        "--regime", default=None, metavar="SUBSTR",
        help="query: substring matched against the owning run's rule/"
        "fingerprint regime (e.g. 'space_min.: 2')",
    )
    p_ins.add_argument(
        "--from-writer", default=None, metavar="ID",
        help="query: only patterns appended by this writer",
    )
    p_ins.add_argument(
        "--limit", type=int, default=20, metavar="N",
        help="print at most N query matches (default 20)",
    )

    p_cmp = sub.add_parser(
        "compact-library",
        help="migrate a v1 or version-2 library to the columnar shard codec, "
        "then merge small shards, drop superseded duplicates and rebuild "
        "the index",
    )
    p_cmp.add_argument("library", type=Path, help="library directory")
    p_cmp.add_argument(
        "--target-shard-patterns", type=int, default=512, metavar="N",
        help="pack merged shards up to N patterns each (default 512)",
    )
    p_cmp.add_argument(
        "--keep-duplicates", action="store_true",
        help="never drop patterns, even when the library was written with "
        "dedup (compaction then only merges shards and rebuilds the index)",
    )

    p_bench = sub.add_parser(
        "bench", help="run a scenario and report per-stage throughput"
    )
    _add_scenario_options(p_bench)
    _add_run_options(p_bench)
    p_bench.add_argument(
        "--metrics", type=Path, default=None, metavar="FILE",
        help="also write machine-readable metrics JSON",
    )

    p_serve = sub.add_parser(
        "serve",
        help="run the long-lived generation daemon (cross-request batching, "
        "streamed results, /healthz + /metrics; see docs/serving.md)",
    )
    _add_scenario_options(p_serve)
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8181, help="0 picks a free port"
    )
    p_serve.add_argument(
        "--max-pending", type=int, default=8, metavar="N",
        help="backpressure bound: in-flight requests before submits get 429",
    )
    p_serve.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="largest coalesced sampling/legalization batch (memory knob)",
    )
    p_serve.add_argument(
        "--library", type=Path, default=None, metavar="DIR",
        help="pattern-library directory backing the serve cache: generated "
        "chunks are persisted per stream writer and restored on restart",
    )
    p_serve.add_argument(
        "--supervised", action="store_true",
        help="run generation in supervised child worker processes: crashes "
        "and hangs are detected, the worker restarts, and the in-flight "
        "window is resubmitted deterministically",
    )
    p_serve.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="default per-request deadline, finite and > 0 (requests may "
        "set their own)",
    )
    p_serve.add_argument(
        "--retry-budget", type=int, default=2, metavar="N",
        help="failed warmup/advance calls retried up to N times with "
        "exponential backoff before the request group fails (default 2)",
    )
    p_serve.add_argument(
        "--advance-timeout", type=float, default=None, metavar="SECONDS",
        help="supervised mode: a worker advance slower than this is treated "
        "as hung and the worker is restarted",
    )
    p_serve.add_argument(
        "--max-restarts", type=int, default=2, metavar="N",
        help="supervised mode: worker restarts allowed per advance before "
        "the failure is surfaced (default 2)",
    )
    return parser


# --------------------------------------------------------------------------- #
# scenario resolution
# --------------------------------------------------------------------------- #
def _registry_for(args: argparse.Namespace) -> ScenarioRegistry:
    registry = builtin_registry()
    for path in getattr(args, "scenario_file", []):
        load_scenarios(path, registry=registry)
    return registry


def knob_overrides(
    *,
    generate: "int | None" = None,
    solutions: "int | None" = None,
    seed: "int | None" = None,
    train_iterations: "int | None" = None,
    training_patterns: "int | None" = None,
    workers: "int | None" = None,
    chunk_size: "int | None" = None,
    solver_mode: "str | None" = None,
    steps: "int | None" = None,
    dedup: bool = False,
) -> dict:
    """Knob values as a spec-override mapping (empty sections omitted).

    ``None`` means "keep the scenario's value", and ``dedup`` only
    overrides when set — a scenario's own choice is never silently forced
    back to the default.
    Shared by the CLI flag handling and ``examples/quickstart.py`` so the
    two cannot drift.
    """
    training = {}
    if train_iterations is not None:
        training["iterations"] = train_iterations
    if training_patterns is not None:
        training["num_patterns"] = training_patterns
    engine = {}
    if workers is not None:
        engine["workers"] = workers
    if chunk_size is not None:
        engine["sample_batch_size"] = chunk_size
    if solver_mode is not None:
        engine["solver_mode"] = solver_mode
    sampling = {}
    if steps is not None:
        # 0 keeps the TOML convention: "no null literal" -> full chain.
        sampling["steps"] = steps
    run = {}
    if generate is not None:
        run["num_generated"] = generate
    if solutions is not None:
        run["num_solutions"] = solutions
    if seed is not None:
        run["seed"] = seed
    if dedup:
        run["dedup"] = True
    overrides = {}
    if training:
        overrides["training"] = training
    if engine:
        overrides["engine"] = engine
    if sampling:
        overrides["sampling"] = sampling
    if run:
        overrides["run"] = run
    return overrides


def _overrides_from(args: argparse.Namespace) -> dict:
    """The parsed knob flags as a spec-override mapping."""
    return knob_overrides(
        generate=args.generate,
        solutions=args.solutions,
        seed=args.seed,
        train_iterations=args.train_iterations,
        training_patterns=args.training_patterns,
        workers=args.workers,
        chunk_size=args.chunk_size,
        solver_mode=args.solver_mode,
        steps=args.steps,
        dedup=args.dedup,
    )


def _plan_for(args: argparse.Namespace) -> RunPlan:
    spec = _registry_for(args).resolve(args.scenario)
    overrides = _overrides_from(args)
    if overrides:
        spec = spec.with_overrides(overrides)
    return spec.lower()


# --------------------------------------------------------------------------- #
# subcommands
# --------------------------------------------------------------------------- #
def _cmd_list_scenarios(args: argparse.Namespace) -> int:
    from .serve.server import servable_note

    registry = _registry_for(args)
    for name in registry.names():
        spec = registry.resolve(name)
        plan = spec.lower()
        print(f"{name:<20} {spec.description}")
        steps = plan.config.sampling_steps
        sampler = (
            f"  sampler={steps}/{plan.config.diffusion.num_steps} steps"
            if steps is not None
            else ""
        )
        print(
            f"{'':<20} preset={spec.preset or 'tiny'}  "
            f"generate={plan.num_generated}x{plan.num_solutions}  "
            f"rules(space={plan.config.rules.space_min}, "
            f"area<={plan.config.rules.area_max})  "
            f"train={plan.config.train_iterations} it{sampler}"
        )
        print(f"{'':<20} {servable_note(spec)}")
        if args.verbose:
            print(json.dumps(spec.as_dict(), indent=2, sort_keys=True))
    return 0


def _execute_plan(
    plan: RunPlan, out: "Path | None", resume: bool, writer: "str | None" = None
) -> tuple:
    """Run a lowered plan end to end; returns ``(result, library)``.

    Mirrors :meth:`~repro.pipeline.DiffPatternPipeline.run` (one rng drives
    data → train → generate, so a resumed run replays the identical seeds)
    with the plan's dedup / retention knobs applied.  The library opens
    before any data is synthesised, so a bad writer id, a corrupt ledger or
    an unmigrated v1 directory fails at once; the fingerprint is checked
    once generation binds the run.
    """
    from .library import PatternLibrary
    from .pipeline import DiffPatternPipeline
    from .utils import as_rng

    if resume and out is None:
        raise ScenarioError("--resume needs --out: the manifest is what a run resumes from")
    if writer is not None and out is None:
        raise ScenarioError("--writer needs --out: a writer id names a library ledger")
    library = None
    if out is not None:
        try:
            library = PatternLibrary(out, dedup=plan.dedup, writer=writer)
        except ValueError as error:  # an unsafe --writer id
            raise ScenarioError(str(error)) from None
    pipeline = DiffPatternPipeline(plan.config)
    gen = as_rng(plan.seed)
    print(f"[1/3] dataset: {plan.num_training_patterns} synthetic training patterns ...")
    pipeline.prepare_data(plan.num_training_patterns, rng=gen)
    print(f"[2/3] training: {plan.config.train_iterations} iterations ...")
    pipeline.train(rng=gen)
    print(
        f"[3/3] generation graph: {plan.num_generated} topologies "
        f"x {plan.num_solutions} solution(s) ..."
    )
    result = pipeline.generate_and_legalize(
        plan.num_generated,
        num_solutions=plan.num_solutions,
        rng=gen,
        retain_topologies=plan.retain_topologies,
        library=library,
        resume=resume,
    )
    return result, library


def _print_result(plan: RunPlan, result, library, out: "Path | None") -> None:
    print()
    print(plan.summary())
    print()
    print(f"legal patterns         : {result.num_patterns}")
    print(f"prefilter reject rate  : {result.prefilter_reject_rate:.1%}")
    print(f"unsolved topologies    : {result.unsolved}")
    print(f"legality (DRC)         : {result.legality:.1%}")
    print(f"pattern diversity H    : {result.pattern_diversity:.4f}")
    if library is not None:
        print(f"library at {out}: {library.summary()}")
        print("(kill a generate run and use `python -m repro resume` to continue it)")


def _cmd_generate(args: argparse.Namespace, resume: "bool | None" = None) -> int:
    plan = _plan_for(args)
    resume = args.resume if resume is None else resume
    result, library = _execute_plan(plan, args.out, resume, writer=args.writer)
    _print_result(plan, result, library, args.out)
    return 0


def _parse_band(text: str) -> tuple:
    """``'LO:HI'`` → an inclusive ``(lo, hi)`` band; empty ends stay open."""
    lo_text, sep, hi_text = text.partition(":")
    if not sep:
        raise ScenarioError(f"--band wants LO:HI (either end may be empty), got {text!r}")
    try:
        lo = int(lo_text) if lo_text else None
        hi = int(hi_text) if hi_text else None
    except ValueError as error:
        raise ScenarioError(f"--band bounds must be integers: {error}") from None
    return lo, hi


def _open_existing_library(root: Path):
    """Open ``root`` as a pattern library; a clean error if it holds none.

    A v1 ``manifest.json`` counts as a library here, so opening it (or a
    version-2 one) raises the store's error naming ``compact-library``.
    """
    from .library import MANIFEST_DIR, LibraryError, PatternLibrary

    manifest = root / "manifest.json"
    manifests = root / MANIFEST_DIR
    if not manifest.exists() and not manifests.is_dir():
        raise LibraryError(
            f"{root} holds no pattern library (missing {manifest} and {manifests}/)"
        )
    return PatternLibrary(root)


def _cmd_inspect_library(args: argparse.Namespace) -> int:
    library = _open_existing_library(args.library)
    summary = library.summary()
    print(f"pattern library at {args.library}")
    for key, value in summary.items():
        rendered = f"{value:.4f}" if isinstance(value, float) else str(value)
        print(f"  {key:<18} {rendered}")
    print(f"  {'writers':<18} {', '.join(library.writers)}")
    stats = library.index_stats()
    print(
        f"  {'index':<18} covered_seq={stats['covered_seq']} "
        f"merged={stats['merged_patterns']} "
        f"delta_chunks={stats['delta_chunks']}"
    )
    if library.fingerprint:
        print("  fingerprint:")
        for key, value in sorted(library.fingerprint.items()):
            print(f"    {key:<16} {value}")
    if args.chunks:
        print()
        header = (
            f"{'chunk':>5} {'seq':>5} {'writer':>14} {'start':>6} {'sampled':>8} "
            f"{'kept':>5} {'patterns':>9} {'stored':>7} {'clean':>6} {'shard'}"
        )
        print(header)
        print("-" * len(header))
        for record in library.records_in_order():
            print(
                f"{record.chunk:>5} {record.seq:>5} "
                f"{(record.writer or '-'):>14} "
                f"{record.start:>6} {record.num_sampled:>8} "
                f"{record.num_kept:>5} {record.num_patterns:>9} "
                f"{record.num_stored:>7} {record.num_clean:>6} {record.shard or '-'}"
            )
    if args.band or args.topology or args.regime or args.from_writer:
        band = _parse_band(args.band) if args.band else None
        handles = library.query(
            complexity_band=band,
            rule_regime=args.regime,
            topology_hash=args.topology,
            writer=args.from_writer,
        )
        print()
        print(f"query matched {len(handles)} pattern(s)")
        for handle in handles[: max(args.limit, 0)]:
            print(
                f"  seq={handle.record.seq:>4} chunk={handle.record.chunk:>4} "
                f"pos={handle.position:>4} cx+cy={handle.cx + handle.cy:>3} "
                f"topology={handle.topology_hash[:12]} "
                f"pattern={handle.pattern_hash[:12]}"
            )
        if len(handles) > args.limit > 0:
            print(f"  ... {len(handles) - args.limit} more (raise --limit)")
    return 0


def _cmd_compact_library(args: argparse.Namespace) -> int:
    from .library import migrate_library

    migrated = migrate_library(args.library)
    library = _open_existing_library(args.library)
    report = library.compact(
        target_shard_patterns=args.target_shard_patterns,
        drop_duplicates=False if args.keep_duplicates else None,
    )
    print(f"compacted pattern library at {args.library}")
    for key, value in sorted({**report.as_dict(), "migrated": migrated}.items()):
        print(f"  {key:<22} {value}")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    plan = _plan_for(args)
    result, library = _execute_plan(plan, None, resume=False)
    _print_result(plan, result, library, None)
    sampling = result.sampling_report
    legalization = result.legalization_report
    if sampling is not None:
        print("\nsampling stage:")
        print(sampling.format())
    if legalization is not None and legalization.num_topologies:
        print("\nlegalization stage:")
        print(legalization.format())
    if args.metrics is not None:
        metrics = {
            "scenario": plan.scenario,
            "num_generated": plan.num_generated,
            "num_patterns": result.num_patterns,
            "legality": result.legality,
            "pattern_diversity": result.pattern_diversity,
            "sampling_samples_per_second": (
                sampling.samples_per_second if sampling is not None else None
            ),
            "sampling_steps": (
                sampling.num_steps if sampling is not None else None
            ),
            "sampling_chain_steps": (
                sampling.chain_steps if sampling is not None else None
            ),
            "sampling_model_evals": (
                sampling.model_evals if sampling is not None else None
            ),
            "legalize_topologies_per_second": (
                legalization.topologies_per_second
                if legalization is not None and legalization.num_topologies
                else None
            ),
        }
        args.metrics.parent.mkdir(parents=True, exist_ok=True)
        args.metrics.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
        print(f"\nmetrics written to {args.metrics}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the generation daemon until interrupted (see docs/serving.md)."""
    import asyncio

    from .serve import ServeServer
    from .serve.server import _serve_until_interrupted, service_from_args

    registry = _registry_for(args)
    try:
        service = service_from_args(args, registry)
    except ValueError as error:  # an out-of-range option, e.g. --deadline nan
        print(f"error: {error}", file=sys.stderr)
        return 1
    server = ServeServer(service, host=args.host, port=args.port)
    try:
        asyncio.run(_serve_until_interrupted(server))
    except KeyboardInterrupt:
        pass
    return 0


# --------------------------------------------------------------------------- #
def main(argv: "list[str] | None" = None) -> int:
    """CLI entry point; returns the process exit code.

    Scenario/library errors print one diagnostic line on stderr and exit 1;
    argparse usage errors exit 2 as usual.
    """
    from .library import LibraryError

    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "list-scenarios": _cmd_list_scenarios,
        "generate": _cmd_generate,
        "resume": lambda a: _cmd_generate(a, resume=True),
        "inspect-library": _cmd_inspect_library,
        "compact-library": _cmd_compact_library,
        "bench": _cmd_bench,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except (ScenarioError, LibraryError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # Downstream closed early (`... | head`); not an error.  Point
        # stdout at devnull so interpreter shutdown doesn't re-raise while
        # flushing the dead pipe.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0


def serve_main(argv: "list[str] | None" = None) -> int:
    """The ``repro-serve`` console script: ``python -m repro serve ARGS``."""
    return main(["serve", *(sys.argv[1:] if argv is None else argv)])


if __name__ == "__main__":
    raise SystemExit(main())
