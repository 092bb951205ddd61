"""CI benchmark-regression gate.

Compares the machine-readable metrics the benchmark harnesses wrote to
``benchmarks/results/metrics_*.json`` against the committed baselines in
``benchmarks/baselines.json``, and exits non-zero on any regression.

Baseline format — one entry per benchmark, one spec per gated metric::

    {
      "table1": {
        "real_legality":  {"baseline": 1.0, "min": 1.0},
        "real_patterns":  {"baseline": 48,  "exact": true},
        "legalize_topologies_per_second": {"baseline": 140.0, "min_ratio": 0.25}
      },
      "training": {
        "iterations_per_second": {"baseline": 56.5, "min_ratio": 0.4},
        "loss_decreased":        {"baseline": true, "exact": true}
      }
    }

``training`` is written by ``benchmarks/bench_training.py``, which times
``DiscreteDiffusion.fit`` — the set-up every generation run waits on.

Spec keys (any combination; every present bound must hold):

* ``exact``      — measured value must equal ``baseline``,
* ``min`` / ``max``            — absolute bounds on the measured value,
* ``min_ratio`` / ``max_ratio`` — bounds relative to ``baseline`` (the
  tolerance band for throughput numbers, which vary with the host).

A measured value of ``null`` means the benchmark could not produce the
metric in this environment (e.g. a parallel speedup on a single-core host)
and skips the gate for that metric with a notice.  Metrics present in the
results but absent from the baselines are ignored; baselined metrics missing
from the results fail the gate.  Baselines were recorded in fast mode
(``REPRO_BENCH_FAST=1``); results from a different mode are rejected.

Usage::

    python benchmarks/check_regression.py [--results benchmarks/results]
        [--baselines benchmarks/baselines.json]
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

HERE = Path(__file__).resolve().parent


def load_results(results_dir: Path) -> dict[str, dict]:
    """All ``metrics_<name>.json`` files keyed by ``<name>``."""
    metrics: dict[str, dict] = {}
    for path in sorted(results_dir.glob("metrics_*.json")):
        name = path.stem.removeprefix("metrics_")
        metrics[name] = json.loads(path.read_text())
    return metrics


def check_metric(name: str, measured: "float | int", spec: dict) -> "str | None":
    """One gate check; returns a failure message or ``None`` when it passes.

    ``None`` measurements never reach here — the caller skips them first.
    """
    baseline = spec.get("baseline")
    if spec.get("exact") and measured != baseline:
        return f"{name}: expected exactly {baseline!r}, measured {measured!r}"
    if "min" in spec and measured < spec["min"]:
        return f"{name}: measured {measured!r} < allowed minimum {spec['min']!r}"
    if "max" in spec and measured > spec["max"]:
        return f"{name}: measured {measured!r} > allowed maximum {spec['max']!r}"
    if "min_ratio" in spec:
        floor = spec["min_ratio"] * baseline
        if measured < floor:
            return (
                f"{name}: measured {measured!r} < {spec['min_ratio']:.2f} x "
                f"baseline {baseline!r} (= {floor:.4g})"
            )
    if "max_ratio" in spec:
        ceiling = spec["max_ratio"] * baseline
        if measured > ceiling:
            return (
                f"{name}: measured {measured!r} > {spec['max_ratio']:.2f} x "
                f"baseline {baseline!r} (= {ceiling:.4g})"
            )
    return None


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--results", type=Path, default=HERE / "results")
    parser.add_argument("--baselines", type=Path, default=HERE / "baselines.json")
    args = parser.parse_args(argv)

    baselines = json.loads(args.baselines.read_text())
    expected_fast = bool(baselines.pop("_fast_mode", True))
    results = load_results(args.results)

    failures: list[str] = []
    checked = 0
    skipped = 0
    for bench_name, specs in baselines.items():
        bench_metrics = results.get(bench_name)
        if bench_metrics is None:
            failures.append(f"{bench_name}: no metrics_{bench_name}.json in {args.results}")
            continue
        if bool(bench_metrics.get("fast_mode", True)) != expected_fast:
            failures.append(
                f"{bench_name}: metrics were produced in "
                f"{'fast' if bench_metrics.get('fast_mode') else 'full'} mode but the "
                f"baselines are {'fast' if expected_fast else 'full'}-mode numbers"
            )
            continue
        for metric_name, spec in specs.items():
            qualified = f"{bench_name}.{metric_name}"
            if metric_name not in bench_metrics:
                failures.append(f"{qualified}: metric missing from benchmark output")
                continue
            measured = bench_metrics[metric_name]
            if measured is None:
                print(f"SKIP  {qualified}: not measurable in this environment")
                skipped += 1
                continue
            message = check_metric(qualified, measured, spec)
            checked += 1
            if message is None:
                print(f"OK    {qualified}: {measured!r} (baseline {spec.get('baseline')!r})")
            else:
                failures.append(message)

    print()
    if failures:
        print(f"REGRESSION: {len(failures)} gate(s) failed ({checked} checked, {skipped} skipped)")
        for message in failures:
            print(f"  FAIL  {message}")
        return 1
    print(f"benchmark-regression gate passed: {checked} metric(s) checked, {skipped} skipped")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
