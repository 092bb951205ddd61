"""Shared helpers and scale constants for the benchmark harness."""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: Fast mode (``REPRO_BENCH_FAST=1``) shrinks every scale constant so each
#: benchmark file finishes in seconds — it is what the CI smoke job runs.
#: The numbers it produces are *not* meaningful reproductions, only proof
#: that every harness still executes end to end.
FAST_MODE = os.environ.get("REPRO_BENCH_FAST", "").strip().lower() in ("1", "true", "yes")

#: Scale of the benchmark run.  The default values give a clearly-learning
#: model in a few minutes of CPU time; the paper-scale configuration is
#: ``DiffPatternConfig.paper()`` and is documented in EXPERIMENTS.md.
if FAST_MODE:
    # 150 like the ``smoke`` scenario: at 30 (or 100) iterations the
    # DiffPattern-S row loses every sample to the pre-filter and its
    # legalization gates measure nothing.
    TRAIN_ITERATIONS = 150
    TRAIN_PATTERNS = 48
    DIFFUSION_STEPS = 8
    NUM_GENERATED = 8
else:
    TRAIN_ITERATIONS = 900
    TRAIN_PATTERNS = 256
    DIFFUSION_STEPS = 32
    NUM_GENERATED = 24


#: Worker count the benchmarks use for parallel legalisation.  The CI
#: bench-regression job sets ``REPRO_BENCH_WORKERS=4``; the default of 1
#: keeps local runs serial (and timing noise-free) unless asked otherwise.
BENCH_WORKERS = max(1, int(os.environ.get("REPRO_BENCH_WORKERS", "1") or 1))

#: The registry scenario every table/figure harness runs under.  The
#: benchmark conftest lowers it (with the fast-mode / worker scales above
#: layered as overrides) instead of hand-rolling a config literal.
BENCH_SCENARIO = "paper-tables"


def bench_plan():
    """The lowered run plan of the benchmark scenario at the active scale.

    ``BENCH_SCENARIO`` is resolved from the builtin registry and the module's
    scale constants (which shrink under ``REPRO_BENCH_FAST``) plus
    ``BENCH_WORKERS`` are layered over it exactly like an ``extends`` child —
    in a full-scale run the overrides coincide with the scenario's own values,
    so the benchmark regime *is* the registry regime.
    """
    from repro.scenarios import builtin_registry

    spec = builtin_registry().resolve(BENCH_SCENARIO).with_overrides(
        {
            "diffusion": {"num_steps": DIFFUSION_STEPS},
            "training": {"iterations": TRAIN_ITERATIONS, "num_patterns": TRAIN_PATTERNS},
            "engine": {"workers": BENCH_WORKERS},
            "run": {"num_generated": NUM_GENERATED},
        }
    )
    return spec.lower()


def write_result(name: str, text: str) -> Path:
    """Persist a benchmark artefact under ``benchmarks/results`` and echo it."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / name
    path.write_text(text + "\n")
    print(f"\n=== {name} ===\n{text}\n")
    return path


def write_metrics(name: str, metrics: dict) -> Path:
    """Persist machine-readable metrics for the CI bench-regression gate.

    Written as ``benchmarks/results/metrics_<name>.json``;
    ``benchmarks/check_regression.py`` compares them against the committed
    ``benchmarks/baselines.json``.  A metric value of ``None`` means "not
    measurable in this environment" and is skipped by the gate.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"metrics_{name}.json"
    path.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    return path
