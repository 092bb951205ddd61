"""The scenario each workload runs, derived from the built-in registry.

Every workload starts from a shipped scenario and layers only the knobs the
benchmark needs on top, exactly like a ``--scenario-file`` child would:

* cold-generate:   ``paper-tables`` as ``repro generate --generate 384``
  runs it (900 training iterations, full 32-step chain, pinned ``slsqp``
  solver);
* hotspot-library: ``hotspot-expansion`` (6-step respaced sampler,
  repair-first ``auto`` solver, 8 solutions per topology, dedup) with a
  shorter training schedule and a larger sample count;
* serve-mixed:     ``paper-tables`` extended with the solver set back to
  ``auto`` and the same shorter training schedule, served by
  ``python -m repro serve``.

The trained model is the scenario's own: its ``run.seed`` (0 for all three)
drives data synthesis, U-Net initialisation and training, so every run
trains the same model from scratch.  The workload seed drives what the
model is asked for: the generation seed of cold-generate and
hotspot-library, and the request mix of serve-mixed (which requests are
live, which windows are re-read).  A model trained per workload seed would
make the work itself swing with that model's yield (stored patterns varied
by +-25% across five seeds), which no run-to-run bound could absorb.
"""

from __future__ import annotations

import hashlib

COLD_SCENARIO = "paper-tables"
HOTSPOT_SCENARIO = "hotspot-expansion"
SERVE_SCENARIO = "perfbench-serve"

#: Training schedule of the two warm workloads.  Long enough that the
#: prefilter keeps a steady share of the samples (at 150 iterations it keeps
#: almost none of the served chain's), short enough that each run can set
#: up twice and report the median.
WARM_ITERATIONS = 200

#: Samples cold-generate draws (``paper-tables`` itself draws 24).  Twelve
#: graph chunks instead of one keep the stored pattern count and the
#: generate phase large enough for steady run-to-run numbers, at a few
#: seconds of a run that training dominates.
COLD_SAMPLES = 384

#: Writer id of the v2 libraries the batch workloads persist.
WRITER = "perfbench"


def workload_seed(seed: int, workload: str) -> int:
    """The generation (or request-mix) seed of ``workload`` for benchmark seed ``seed``."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def cold_overrides() -> dict:
    return {"run": {"num_generated": COLD_SAMPLES}}


def hotspot_overrides(samples: int) -> dict:
    return {
        "training": {"iterations": WARM_ITERATIONS},
        "run": {"num_generated": samples},
    }


def serve_scenarios(window: int) -> dict:
    """The ``--scenario-file`` payload the served scenario is loaded from."""
    return {
        SERVE_SCENARIO: {
            "extends": COLD_SCENARIO,
            "description": "paper-tables served with the repair-first solver",
            "engine": {"solver_mode": "auto"},
            "training": {"iterations": WARM_ITERATIONS},
            "run": {"num_generated": window, "num_solutions": 1},
        }
    }


def lower(scenario: str, overrides: dict):
    """Resolve a built-in scenario, apply ``overrides`` and lower it."""
    from repro.scenarios import builtin_registry

    return builtin_registry().resolve(scenario).with_overrides(overrides).lower()
