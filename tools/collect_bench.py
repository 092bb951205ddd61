"""Snapshot benchmark metrics into a committed ``BENCH_<label>.json``.

Each PR that touches performance commits one snapshot of the machine-readable
benchmark metrics it was validated against, so the repository carries a
throughput paper trail next to the code (``BENCH_PR6.json`` was the first).
This helper makes every snapshot the same shape: it collects the
``benchmarks/results/metrics_*.json`` files a harness run produced and folds
them into one document keyed by benchmark name.

Usage::

    REPRO_BENCH_FAST=1 python -m pytest benchmarks/ -q --benchmark-disable
    python tools/collect_bench.py PR7                 # writes BENCH_PR7.json
    python tools/collect_bench.py PR7 --only fewstep_sampling table2
    python tools/collect_bench.py LABEL --perfbench RESULTS_DIR

The fast-mode part records no timestamps or host details on purpose:
fast-mode metrics are deterministic per seed, so re-running the harnesses
must reproduce that part bit-for-bit (timing-valued metrics are the
exception and are expected to drift — the regression gate, not the snapshot,
bounds those).

``--perfbench RESULTS_DIR`` also folds in the results ``perfbench/run.py``
saved under ``--results RESULTS_DIR``: per workload, the median of every
end-to-end metric of ``BENCHMARK.json`` with its unit, the seeds and run
count, the attempted/failed totals and the runs' ``host`` blocks (CPU,
BLAS, thread pin, commit, source digest).  Wall-clock medians are only
comparable between snapshots whose host blocks agree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"


def collect(results_dir: Path, only: "list[str] | None" = None) -> dict:
    """All ``metrics_<name>.json`` documents keyed by ``<name>``.

    ``only`` restricts the snapshot to the named benchmarks; naming one with
    no metrics file is an error (a silent miss would commit a hole).
    """
    metrics: dict[str, dict] = {}
    for path in sorted(results_dir.glob("metrics_*.json")):
        name = path.stem.removeprefix("metrics_")
        if only and name not in only:
            continue
        metrics[name] = json.loads(path.read_text())
    if only:
        missing = sorted(set(only) - set(metrics))
        if missing:
            raise FileNotFoundError(
                f"no metrics for {', '.join(missing)} under {results_dir}; "
                "run the corresponding benchmark harness first"
            )
    if not metrics:
        raise FileNotFoundError(
            f"no metrics_*.json under {results_dir}; run the benchmark "
            "harnesses first (see README.md)"
        )
    return metrics


def collect_perfbench(results_dir: Path, benchmark: Path = BENCHMARK_JSON) -> dict:
    """Per-workload medians of the correct, untraced perfbench results.

    Traced runs are skipped (they report per-layer spans, not the gated
    metrics); a workload whose runs used different ``--seconds`` did
    different amounts of work, so its medians would mean nothing.
    """
    units = {m["name"]: m["unit"] for m in json.loads(benchmark.read_text())["end_to_end"]}
    runs: dict[str, list[dict]] = {}
    for path in sorted(results_dir.rglob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0 and result.get("correct"):
            runs.setdefault(result["workload"], []).append(result)
    if not runs:
        raise FileNotFoundError(
            f"no correct untraced perfbench results under {results_dir}; run "
            "perfbench/run.py --trace 0 --results DIR first"
        )
    snapshot: dict[str, dict] = {}
    for workload, results in sorted(runs.items()):
        seconds = sorted({r["seconds"] for r in results})
        if len(seconds) > 1:
            raise ValueError(f"{workload}: runs mix --seconds {seconds}")
        hosts: list[dict] = []
        for result in results:
            if result["host"] not in hosts:
                hosts.append(result["host"])
        snapshot[workload] = {
            "seconds": seconds[0],
            "seeds": sorted({r["seed"] for r in results}),
            "runs": len(results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {
                name: {
                    "median": statistics.median(r["metrics"][name] for r in results),
                    "unit": unit,
                }
                for name, unit in units.items()
            },
            "hosts": hosts,
        }
    return snapshot


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "label",
        help="snapshot label, e.g. PR7 -> BENCH_PR7.json at the repo root",
    )
    parser.add_argument("--results", type=Path, default=RESULTS_DIR)
    parser.add_argument(
        "--out", type=Path, default=None,
        help="output path (default: BENCH_<label>.json at the repo root)",
    )
    parser.add_argument(
        "--only", nargs="+", default=None, metavar="NAME",
        help="restrict the snapshot to these benchmark names",
    )
    parser.add_argument(
        "--perfbench", type=Path, default=None, metavar="DIR",
        help="also fold in the perfbench results saved under DIR (run.py --results DIR)",
    )
    args = parser.parse_args(argv)

    try:
        metrics = collect(args.results, args.only)
        snapshot = {"label": args.label, "benchmarks": metrics}
        if args.perfbench is not None:
            snapshot["perfbench"] = collect_perfbench(args.perfbench)
    except (FileNotFoundError, ValueError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    out = args.out if args.out is not None else REPO_ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    print(f"{out}: {len(metrics)} benchmark(s) snapshotted: {', '.join(sorted(metrics))}")
    if "perfbench" in snapshot:
        print(f"  perfbench workloads: {', '.join(snapshot['perfbench'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
