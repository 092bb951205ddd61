"""Quickstart: run a registry scenario end to end and generate legal patterns.

Runs the full framework — synthesise a DRC-clean training library, train the
discrete diffusion model, stream generation through the stage graph
(sample -> prefilter -> legalize -> DRC chunk by chunk), report legality /
diversity and draw one generated pattern as ASCII art.

The workload comes from the scenario registry (``repro.scenarios``): pass
``--scenario NAME`` to run any registered regime.  ``python -m repro
list-scenarios`` shows what ships; the default here is a quickstart-scale
regime close to the ``smoke`` scenario but trained long enough to produce a
healthy pattern yield.  Flags layer over the scenario exactly like the CLI's.

Streaming + persistence walkthrough (mirrors ``python -m repro generate``)::

    python examples/quickstart.py --chunk-size 8                   # bounded memory
    python examples/quickstart.py --library out/lib                # persist chunks
    # kill it halfway (Ctrl-C), then pick up where it stopped:
    python examples/quickstart.py --library out/lib --resume

A resumed run reloads completed chunks from ``out/lib/manifests/main.json``
(the ledger of the default writer, ``main``) and their npz shards instead of
re-generating them, and reproduces the uninterrupted run exactly (same
patterns, same diversity H, same legality).  The same
library is then readable with ``python -m repro inspect-library out/lib``.

Usage::

    python examples/quickstart.py [--scenario smoke] [--iterations 600]
        [--generate 16] [--chunk-size 8]
        [--library DIR] [--resume]

Flags left unset fall back to the scenario's own values.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.cli import knob_overrides
from repro.library import PatternLibrary
from repro.pipeline import DiffPatternPipeline, render_pattern
from repro.scenarios import builtin_registry
from repro.utils import as_rng


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--scenario",
        default="smoke",
        help="registry scenario to run (see `python -m repro list-scenarios`)",
    )
    parser.add_argument(
        "--iterations", type=int, default=None,
        help="training iterations (default: the scenario's)",
    )
    parser.add_argument(
        "--generate", type=int, default=None,
        help="topologies to sample (default: the scenario's)",
    )
    parser.add_argument("--training-patterns", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="legalization process-pool width (1 = serial, 0 = auto; results "
        "are identical for any value)",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        help="samples denoised per reverse pass and pulled per streamed "
        "graph step (memory knob only — the generated patterns are "
        "identical for any value; the --generate count runs one barrier "
        "chunk)",
    )
    parser.add_argument(
        "--library",
        type=Path,
        default=None,
        help="directory to persist the pattern library (npz shards + manifest)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a killed --library run from its manifest",
    )
    args = parser.parse_args()
    if args.resume and args.library is None:
        parser.error("--resume needs --library: the manifest is what a run resumes from")

    # The scenario names the regime; explicitly-passed quickstart flags layer
    # over it through the exact helper the `python -m repro` knob flags use.
    overrides = knob_overrides(
        generate=args.generate,
        seed=args.seed,
        train_iterations=args.iterations,
        training_patterns=args.training_patterns,
        workers=args.workers,
        chunk_size=args.chunk_size,
    )
    spec = builtin_registry().resolve(args.scenario)
    if overrides:
        spec = spec.with_overrides(overrides)
    plan = spec.lower()
    pipeline = DiffPatternPipeline(plan.config)
    rng = as_rng(plan.seed)

    print(f"scenario '{plan.scenario}': {plan.description}")
    print("[1/4] synthesising the training library ...")
    dataset = pipeline.prepare_data(plan.num_training_patterns, rng=rng)
    print(f"      {len(dataset)} patterns, tensor shape "
          f"{dataset.topology_tensors('train').shape[1:]}")

    print(f"[2/4] training the discrete diffusion model "
          f"({plan.config.train_iterations} iterations) ...")
    start = time.perf_counter()
    history = pipeline.train(rng=rng)
    print(f"      done in {time.perf_counter() - start:.1f}s, "
          f"final loss {history[-1]['loss']:.4f}")

    library = (
        PatternLibrary(args.library, dedup=plan.dedup)
        if args.library is not None
        else None
    )
    print(f"[3/4] generation graph: sample -> prefilter -> legalize -> DRC "
          f"(chunks of {plan.config.sample_batch_size}, "
          f"workers={plan.config.workers}) ...")
    result = pipeline.generate_and_legalize(
        plan.num_generated,
        num_solutions=plan.num_solutions,
        rng=rng,
        retain_topologies=plan.retain_topologies,
        library=library,
        resume=args.resume,
    )

    print("[4/4] legal pattern assessment (DiffPattern-S) ...")
    print(f"      pre-filter reject rate : {result.prefilter_reject_rate:.1%}")
    print(f"      unsolved topologies    : {result.unsolved}")
    print(f"      legal patterns         : {result.num_patterns}")
    print(f"      legality (DRC)         : {result.legality:.1%}")
    print(f"      pattern diversity H    : {result.pattern_diversity:.4f}")

    if result.sampling_report is not None:
        print("\nsampling engine report:")
        print(result.sampling_report.format())
    report = result.legalization_report
    if report is not None and report.num_topologies:
        print("\nlegalization engine report:")
        print(report.format())
    if library is not None:
        print(f"\npattern library at {args.library}: {library.summary()}")
        print("      (kill this run and pass --resume to continue it; "
              f"`python -m repro inspect-library {args.library}` reads it back)")

    if result.patterns:
        print("\none generated legal pattern (ASCII rendering):")
        print(render_pattern(result.patterns[0], width=48))
    else:
        print("\nno topology survived at this training budget -- increase --iterations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
