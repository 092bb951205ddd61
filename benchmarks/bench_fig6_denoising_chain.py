"""Fig. 6 — illustration of the reverse (denoising) diffusion chain.

The paper shows flattened samples of the chain T_K -> ... -> T̂_0: the state
starts as uniform salt-and-pepper noise (fill ratio ~0.5) and progressively
organises into a sparse, blocky layout topology.  The reproduction records the
fill ratio and bow-tie count of the intermediate states and renders the first
and final state as ASCII art.

The recorded chain is ``T_K``, the state after every ``stride``-th reverse
jump (``stride = max(1, K // 8)``) and ``T̂_0``, each labelled with its
timestep: ``K = 1000`` gives 1000, 875, ..., 125, 0.
"""

from __future__ import annotations

import numpy as np

from _bench_utils import write_result

from repro.geometry import has_bowtie
from repro.pipeline import render_topology, run_denoising_chain


def bench_fig6_denoising_chain(benchmark, trained_pipeline):
    """Sample one reverse chain (the timed body) and report its statistics."""
    stride = max(1, trained_pipeline.config.diffusion.num_steps // 8)

    chain = benchmark.pedantic(
        lambda: run_denoising_chain(trained_pipeline, chain_stride=stride, rng=0),
        rounds=1,
        iterations=1,
    )

    fills = chain.fill_ratios()
    lines = ["  timestep  fill_ratio  has_bowtie"]
    for step, matrix, fill in zip(chain.steps, chain.matrices, fills):
        lines.append(f"{step:>10}  {fill:>10.3f}  {str(has_bowtie(matrix)):>10}")
    lines.append("")
    lines.append("initial state (T_K):")
    lines.append(render_topology(chain.matrices[0]))
    lines.append("")
    lines.append("final state (T̂_0):")
    lines.append(render_topology(chain.matrices[-1]))
    write_result("fig6_denoising_chain.txt", "\n".join(lines))

    # Shape check: the chain starts near the uniform stationary distribution
    # and ends markedly sparser (layout topologies are information-sparse).
    assert 0.35 < fills[0] < 0.65
    assert fills[-1] < fills[0]
    assert np.isfinite(fills).all()
