"""Repository benchmark: cold generate, hotspot library build, mixed serve traffic.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload cold-generate --seed 1 --seconds 10 --trace 0

It prints a report (host/commit metadata, output checks, sample counts and
every metric with its unit) followed, as the last line of standard output,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}`` holding
every end-to-end metric of ``BENCHMARK.json`` (``--trace 0``) or every
per-layer metric (``--trace 1``).  The full result, with its metadata and
the workload's own ungated metrics, is also saved under ``--results``
(default ``.perfbench-out/results``), one file per run.

Compare two sets of saved results, per workload and metric::

    python3 perfbench/run.py --compare RESULTS_A RESULTS_B

See ``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

import meta
import workloads

ROOT = Path(__file__).resolve().parent.parent
WORK_DIR = ROOT / ".perfbench-out"
#: Value a per-layer metric reports when nothing was measured for it.
NOT_MEASURED = -1


def _report(args, outcome, specs, values, host) -> None:
    print(f"perfbench {args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    print(
        f"host    {host['cpu_model']} x{host['cpu_count']}; python {host['python']}, "
        f"numpy {host['numpy']}, scipy {host['scipy']}; BLAS {host['blas']} "
        f"pinned to {host['blas_threads']} thread(s)"
    )
    print(
        f"source  commit {host['commit'] or 'unknown'} (dirty: {host['dirty']}), "
        f"src sha256 {host['source_digest'][:16]}"
    )
    print("samples " + ", ".join(f"{k}={v}" for k, v in outcome.samples.items()))
    for name, ok in outcome.checks.items():
        print(f"check   {'ok  ' if ok else 'FAIL'} {name}")
    for statement, ok in outcome.dominance:
        print(f"trace   {'ok  ' if ok else 'FAIL'} {statement}")
    if outcome.missing:
        print(f"trace   missing: {', '.join(outcome.missing)}")
    if outcome.not_exercised:
        print(f"trace   not exercised by this workload: {', '.join(outcome.not_exercised)}")
    error_rate = outcome.failed / outcome.attempted if outcome.attempted else 0.0
    print(f"{'error_rate':<34} {error_rate:>14.6g} ratio  ({outcome.failed}/{outcome.attempted})")
    for spec in specs:
        value = values[spec["name"]]
        shown = "n/a" if value == NOT_MEASURED and args.trace else f"{value:.6g}"
        print(f"{spec['name']:<34} {shown:>14} {spec['unit']}")
    for name, value in outcome.ungated.items():
        print(f"{name:<34} {value:>14.6g} {workloads.UNGATED[name][0]}  (not gated)")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description="DiffPattern repository benchmark")
    parser.add_argument("--workload", default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--results", type=Path, default=WORK_DIR / "results",
        help="directory each run's full result is saved under",
    )
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A", "B"))
    args = parser.parse_args(argv)

    bench_file = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not bench_file.is_file():
        print(f"error: {ROOT} holds no repro source tree and BENCHMARK.json", file=sys.stderr)
        return 2
    bench = json.loads(bench_file.read_text())
    if args.compare is not None:
        from compare import compare

        return compare(args.compare[0], args.compare[1], bench)
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in names or args.seed is None or args.seconds < 1:
        parser.error(f"--workload (one of {', '.join(names)}), --seed and --seconds >= 1 are required")

    # A SIGTERM unwinds like an error, so every worker and server is stopped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Pin BLAS threads before numpy is first imported, here and in every child.
    os.environ.update(meta.pinned_environment(ROOT))
    sys.path.insert(0, str(ROOT / "src"))

    work = WORK_DIR / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        outcome = workloads.WORKLOADS[args.workload](
            workloads.Run(ROOT, work, args.seed, args.seconds, bool(args.trace), dict(os.environ))
        )
    except workloads.BenchError as error:
        print(f"error: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    produced = outcome.layers if args.trace else outcome.metrics
    if set(produced) != {spec["name"] for spec in specs}:
        print(f"error: metrics {sorted(produced)} do not match BENCHMARK.json", file=sys.stderr)
        return 1
    values = {
        name: NOT_MEASURED if value is None else value for name, value in produced.items()
    }
    correct = all(outcome.checks.values())
    host = meta.host_metadata(ROOT)
    _report(args, outcome, specs, values, host)

    saved = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": values,
        "ungated_metrics": outcome.ungated,
        "samples": outcome.samples,
        "checks": outcome.checks,
        "missing": outcome.missing,
        "host": host,
    }
    stamp = time.strftime("%Y%m%dT%H%M%S")
    out = args.results / args.workload / (
        f"seed{args.seed}-seconds{args.seconds}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    )
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(saved, indent=2) + "\n")

    metrics = (
        {spec["name"]: {"value": values[spec["name"]], "unit": spec["unit"]} for spec in specs}
        if correct
        else {}
    )
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
