"""Cold start: a fresh process loads SciPy at its first SLSQP solve, not before.

``scipy.optimize`` costs about half a second and 50 MB to import, and only
the SLSQP tail of the legalization solve uses it.  The package imports it in
:func:`repro.legalization.scipy_optimize`, which the tail calls and which
the engine's pools call before they fork, so that the children inherit the
module.  A supervised serve worker's parent calls it only for an ``slsqp``
plan: an ``auto`` child rarely reaches the tail, and imports SciPy there.

Each check runs in a fresh interpreter: this test session has long since
imported SciPy itself.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

#: Shared preamble: records, at every ``os.fork``, whether the parent had
#: ``scipy.optimize`` loaded, and a few topologies the solver can take.
PREAMBLE = """
import os
import sys

import numpy as np

FORKS = []
os.register_at_fork(before=lambda: FORKS.append("scipy.optimize" in sys.modules))


def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def topologies(count):
    out = []
    for i in range(count):
        topology = np.zeros((4, 4), dtype=np.uint8)
        topology[1 : 2 + i % 2, 1:3] = 1
        out.append(topology)
    return out
"""


def run_fresh(body: str) -> str:
    """Run ``PREAMBLE + body`` in a new interpreter; return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    completed = subprocess.run(
        [sys.executable, "-c", PREAMBLE + textwrap.dedent(body)],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    return completed.stdout


def test_scipy_loads_at_the_first_slsqp_solve(tmp_path):
    out = run_fresh(
        f"""
        import repro
        import repro.cli
        from repro.legalization import LegalizationEngine
        from repro.library import PatternLibrary
        from repro.pipeline import DiffPatternPipeline
        from repro.scenarios import builtin_registry

        registry = builtin_registry()
        for name in registry.names():
            registry.resolve(name).lower()
        plan = registry.resolve("smoke").lower()
        pipeline = DiffPatternPipeline(plan.config)
        pipeline.prepare_data(plan.num_training_patterns, rng=plan.seed)
        pipeline.train(iterations=3, rng=plan.seed)
        sampled = pipeline.generate_topologies(4, rng=plan.seed)
        assert sampled.shape[0] == 4
        PatternLibrary({str(tmp_path / "library")!r}).summary()
        assert scipy_modules() == [], scipy_modules()

        engine = LegalizationEngine(plan.config.rules, solver_mode="slsqp")
        (result,) = engine.legalize_batch(topologies(1))
        assert result.solutions[0].method == "slsqp"
        assert "scipy.optimize" in sys.modules
        print("ok")
        """
    )
    assert out.strip() == "ok"


def test_a_held_pool_loads_scipy_before_it_forks():
    out = run_fresh(
        """
        from repro.legalization import NORMAL_RULES, LegalizationEngine

        engine = LegalizationEngine(NORMAL_RULES, workers=2)
        assert "scipy.optimize" not in sys.modules
        with engine.pool():
            assert "scipy.optimize" in sys.modules
            engine.legalize_batch(topologies(4))
        print(FORKS)
        """
    )
    forks = ast.literal_eval(out)
    assert forks and all(forks)


def test_a_per_call_pool_loads_scipy_before_it_forks():
    out = run_fresh(
        """
        from repro.legalization import NORMAL_RULES, LegalizationEngine

        engine = LegalizationEngine(NORMAL_RULES, workers=2)
        assert "scipy.optimize" not in sys.modules
        engine.legalize_batch(topologies(4))
        print(FORKS)
        """
    )
    forks = ast.literal_eval(out)
    assert forks and all(forks)


def test_a_supervised_worker_inherits_scipy():
    # Only an ``slsqp`` plan loads SciPy before the fork; an ``auto`` child
    # imports it at its first SLSQP tail solve, which most never reach.
    for mode in ("auto", "slsqp"):
        out = run_fresh(
            f"""
            from repro.scenarios import builtin_registry
            from repro.serve import SupervisedWorker, WorkerCrash

            def report(_plan):
                # Runs in the child at warmup; the message comes back as the reply.
                raise RuntimeError(f"child loaded scipy.optimize: {{'scipy.optimize' in sys.modules}}")

            spec = builtin_registry().resolve("smoke")
            plan = spec.with_overrides({{"engine": {{"solver_mode": {mode!r}}}}}).lower()
            worker = SupervisedWorker(plan, pipeline_factory=report)
            assert "scipy.optimize" not in sys.modules
            try:
                worker.start()
            except WorkerCrash as crash:
                print(crash)
            print(FORKS)
            print(scipy_modules() != [])
            """
        )
        message, forks, parent_loaded = out.strip().splitlines()
        loaded = mode == "slsqp"
        assert f"child loaded scipy.optimize: {loaded}" in message, mode
        forks = ast.literal_eval(forks)
        assert forks and all(fork == loaded for fork in forks), mode
        assert parent_loaded == str(loaded), mode
