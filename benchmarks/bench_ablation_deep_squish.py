"""Ablation — Deep Squish channel folding vs. a flat one-channel topology.

Section III-B motivates Deep Squish with the observation that diffusion-model
cost is dominated by the spatial input size, not the channel count.  This
ablation times a U-Net training step on the *same* topology information
presented two ways:

* flat:  1 channel  x 16 x 16 (the plain squish matrix),
* deep:  4 channels x  8 x  8 (the deep-squish folded tensor),
* deeper: 16 channels x 4 x 4.

The deep representations should be clearly faster per step while remaining
lossless (verified by the fold/unfold roundtrip in the test suite).
"""

from __future__ import annotations

import time

import numpy as np

from _bench_utils import write_result

from repro.diffusion import DiffusionConfig, DiscreteDiffusion
from repro.nn import UNet, UNetConfig
from repro.squish import fold


def _training_step_time(channels: int, matrix_size: int, matrices: np.ndarray, steps: int = 3) -> float:
    """Average seconds of one loss+backward step at the given folding."""
    spatial = matrix_size // int(np.sqrt(channels))
    config = UNetConfig(
        in_channels=channels,
        num_classes=2,
        image_size=spatial,
        model_channels=16,
        channel_mult=(1, 2),
        num_res_blocks=1,
        attention_resolutions=(),
        dropout=0.0,
        seed=0,
    )
    model = DiscreteDiffusion(UNet(config), DiffusionConfig(num_steps=16, lambda_ce=0.05))
    tensors = np.stack([fold(m, channels) for m in matrices], axis=0).astype(np.int64)
    # warm-up
    backward, _ = model.loss(tensors[:4], rng=0, k=8)
    backward()
    start = time.perf_counter()
    for _ in range(steps):
        model.model.zero_grad()
        backward, _ = model.loss(tensors[:4], rng=0, k=8)
        backward()
    return (time.perf_counter() - start) / steps


def bench_ablation_deep_squish_folding(benchmark, bench_dataset):
    matrices = bench_dataset.topology_matrices("train")[:8]
    matrix_size = matrices.shape[1]

    flat_time = _training_step_time(1, matrix_size, matrices)
    deep_time = benchmark.pedantic(
        lambda: _training_step_time(4, matrix_size, matrices), rounds=1, iterations=1
    )
    deeper_time = _training_step_time(16, matrix_size, matrices)

    lines = [
        "representation            channels  spatial  sec/step  speedup vs flat",
        f"{'flat squish matrix':<26}{1:>9}{matrix_size:>9}{flat_time:>10.4f}{1.0:>17.2f}x",
        f"{'deep squish (C=4)':<26}{4:>9}{matrix_size // 2:>9}{deep_time:>10.4f}{flat_time / deep_time:>17.2f}x",
        f"{'deep squish (C=16)':<26}{16:>9}{matrix_size // 4:>9}{deeper_time:>10.4f}{flat_time / deeper_time:>17.2f}x",
    ]
    write_result("ablation_deep_squish.txt", "\n".join(lines))

    # The claim being reproduced: shrinking the spatial size (while growing
    # channels losslessly) reduces per-step cost.
    assert deep_time < flat_time
    assert deeper_time < flat_time
