"""Scenario: expand a pattern library for hotspot-detection training data.

The paper's motivation (Section I) is that DFM applications such as layout
hotspot detection need large, diverse, *legal* pattern libraries, and that
producing them from real designs is slow.  This example mimics that workflow:

* a small "existing" library plays the role of the patterns harvested from a
  real design,
* DiffPattern-L generates many legal patterns per topology, multiplying the
  library size without re-running the generator,
* the expanded library is compared with the seed library on size, diversity
  and legality — the three quantities Table I reports,
* the expansion is persisted into a sharded v2 :class:`~repro.library.
  PatternLibrary` and the hotspot training slice is selected with the
  indexed :meth:`~repro.library.PatternLibrary.query` API — a complexity
  band around the library median, served from sidecar metadata without
  loading shards, then materialised lazily per handle.

The regime (rules, solutions per topology) comes from the registry's
``hotspot-expansion`` scenario; ``--solutions-per-topology`` overrides it.

Usage::

    python examples/hotspot_library_expansion.py [--solutions-per-topology 8]
        [--library DIR] [--band LO:HI]
"""

from __future__ import annotations

import argparse
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.data import DatasetConfig, LayoutPatternDataset
from repro.drc import DesignRuleChecker
from repro.legalization import LegalizationEngine
from repro.library import ChunkRecord, PatternLibrary
from repro.metrics import ComplexityHistogram, pattern_complexity, pattern_diversity
from repro.prefilter import TopologyPrefilter
from repro.scenarios import builtin_registry


def persist_expansion(root: Path, rules, patterns, chunk_size: int = 64) -> PatternLibrary:
    """Write the expanded patterns into a sharded v2 library.

    One ``hotspot`` writer appends in chunks, exactly like a generation run
    would; the on-disk index then answers the training-slice queries below
    without rescanning shards.
    """
    library = PatternLibrary(root, dedup=True, writer="hotspot")
    library.bind({"regime": repr(rules), "source": "hotspot-expansion"})
    for chunk, start in enumerate(range(0, len(patterns), chunk_size)):
        batch = patterns[start : start + chunk_size]
        histogram = ComplexityHistogram([pattern_complexity(p) for p in batch])
        record = ChunkRecord(
            chunk=chunk,
            start=start,
            num_sampled=len(batch),
            num_kept=len(batch),
            num_rejected=0,
            unsolved=0,
            num_patterns=len(batch),
            num_stored=0,
            duplicates_skipped=0,
            num_clean=len(batch),
            shard=None,
            pattern_complexity_counts=histogram.as_records(),
        )
        library.append_chunk(record, batch)
    return library


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed-library", type=int, default=96, help="size of the existing library")
    parser.add_argument(
        "--solutions-per-topology", type=int, default=None,
        help="geometric solutions per topology (default: the scenario's)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--library", type=Path, default=None,
        help="persist the expansion into this v2 pattern library "
        "(default: a temporary directory)",
    )
    parser.add_argument(
        "--band", default=None, metavar="LO:HI",
        help="complexity band (cx+cy) for the hotspot training slice "
        "(default: median +/- 2)",
    )
    args = parser.parse_args()

    plan = builtin_registry().resolve("hotspot-expansion").lower()
    rules = plan.config.rules
    if args.solutions_per_topology is None:
        args.solutions_per_topology = plan.num_solutions
    dataset = LayoutPatternDataset.synthesize(
        args.seed_library, DatasetConfig(matrix_size=16, channels=4, rules=rules), rng=args.seed
    )
    seed_patterns = dataset.real_patterns("all")
    checker = DesignRuleChecker(rules)
    print(f"seed library: {len(seed_patterns)} patterns, "
          f"diversity H = {pattern_diversity(seed_patterns):.4f}, "
          f"legality = {checker.legality_rate(seed_patterns):.1%}")

    # In a production run the topologies would come from the trained diffusion
    # model (see quickstart.py).  The expansion step itself only needs a pool
    # of pre-filtered topologies, so here we reuse the seed topologies to keep
    # the example fast and deterministic.
    prefilter = TopologyPrefilter()
    topologies = prefilter.filter(list(dataset.topology_matrices("all"))).kept

    engine = LegalizationEngine(rules, reference_geometries=dataset.reference_geometries("all"))
    expanded = engine.legal_patterns(
        topologies, num_solutions=args.solutions_per_topology, seed=args.seed
    )

    print(f"expanded library: {len(expanded)} patterns "
          f"({args.solutions_per_topology} geometries per topology)")
    print(f"  diversity H = {pattern_diversity(expanded):.4f}")
    print(f"  legality    = {checker.legality_rate(expanded):.1%}")
    print(f"  solver success rate = {engine.stats.success_rate:.1%}, "
          f"avg {engine.stats.average_time_per_solution * 1e3:.1f} ms per solution")

    root = args.library or Path(tempfile.mkdtemp(prefix="hotspot-library-"))
    library = persist_expansion(root, rules, expanded)
    print(f"persisted at {root}: {library.summary()}")

    # The hotspot training slice: an indexed complexity-band query.  The
    # selection runs over sidecar metadata alone; shards are only read when
    # a handle is materialised.
    everything = library.query(rule_regime=repr(rules))
    if args.band is not None:
        lo_text, _, hi_text = args.band.partition(":")
        lo = int(lo_text) if lo_text else None
        hi = int(hi_text) if hi_text else None
    else:
        median = int(statistics.median(h.cx + h.cy for h in everything))
        lo, hi = median - 2, median + 2
    slice_handles = library.query(complexity_band=(lo, hi))
    print(f"training slice (complexity band {lo}..{hi}): "
          f"{len(slice_handles)}/{len(everything)} patterns")
    if slice_handles:
        sample = slice_handles[0].load()
        print(f"  first handle materialised: topology {sample.topology.shape}, "
              f"DRC clean = {checker.check_pattern(sample).clean}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
