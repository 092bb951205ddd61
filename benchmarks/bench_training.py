"""Training throughput — ``DiscreteDiffusion.fit`` at the benchmark scale.

Every generation run waits for training first, and on the shipped scenarios
it is most of the wall time.  This harness trains a fresh model of the
benchmark scenario on the shared dataset and records:

* ``iterations_per_second`` — fit throughput (host-dependent, ratio-gated),
* ``loss_decreased`` — whether the hybrid loss on a fixed evaluation batch
  (fixed noise, every chain step) fell over the fit.
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import FAST_MODE, TRAIN_ITERATIONS, write_metrics, write_result

from repro.pipeline import DiffPatternPipeline


def _evaluation_loss(diffusion, batch) -> float:
    """Mean loss over every chain step on one batch with fixed noise draws."""
    steps = range(1, diffusion.config.num_steps + 1)
    return float(np.mean([diffusion.loss(batch, rng=step, k=step)[1]["loss"] for step in steps]))


def bench_training_fit(benchmark, bench_config, bench_dataset):
    """Time one fit of ``TRAIN_ITERATIONS`` steps from fresh weights."""
    pipeline = DiffPatternPipeline(bench_config)
    pipeline.prepare_data(dataset=bench_dataset)
    diffusion = pipeline.build_model()
    tensors = bench_dataset.topology_tensors("train")
    batch = tensors[: bench_config.batch_size]

    loss_before = _evaluation_loss(diffusion, batch)

    def fit() -> float:
        start = time.perf_counter()
        diffusion.fit(tensors, TRAIN_ITERATIONS, batch_size=bench_config.batch_size, rng=0)
        return time.perf_counter() - start

    seconds = benchmark.pedantic(fit, rounds=1, iterations=1)
    loss_after = _evaluation_loss(diffusion, batch)
    throughput = TRAIN_ITERATIONS / seconds

    write_result(
        "training.txt",
        "\n".join(
            [
                f"fit: {TRAIN_ITERATIONS} iterations in {seconds:.2f} s "
                f"({throughput:.1f} it/s, batch {bench_config.batch_size})",
                f"evaluation loss: {loss_before:.5f} -> {loss_after:.5f}",
            ]
        ),
    )
    write_metrics(
        "training",
        {
            "fast_mode": FAST_MODE,
            "iterations": TRAIN_ITERATIONS,
            "iterations_per_second": throughput,
            "loss_before": loss_before,
            "loss_after": loss_after,
            "loss_decreased": loss_after < loss_before,
        },
    )
    assert loss_after < loss_before
