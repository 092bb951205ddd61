"""Golden record of the Table I baselines: training and generation.

Each baseline trains on the NumPy ``repro.nn`` stack.  This file pins what a
small fixed-seed fit on the 48 training topologies of the ``tiny_dataset``
fixture produces, so a change to a layer kernel or to the module protocol
that moves a baseline's numbers fails here even when two code paths still
agree with each other.  The values were computed with every layer on the
per-layer tape (before ``Module.forward`` became one node over ``infer``)
and held identically under one and two BLAS threads:

* CAE, VCAE and the LegalGAN post-processor: SHA-256 of the trained
  parameters (in ``parameters()`` order) and of one output — ``generate``
  for the generators, ``legalize`` for LegalGAN.  These must hold bit for
  bit.
* The Gaussian-diffusion ablation: SHA-256 of the parameters after a
  20-iteration fit on the ``tiny_dataset`` tensors (re-recorded when the
  loss began to build the noised batch in float32 instead of float64;
  identical under one and two BLAS threads), and of one ``sample`` call on
  an untrained model.
* LayouTransformer: the per-iteration training loss at ``atol=1e-5`` (its
  ``LayerNorm`` gradient moved at rounding level when the layer got a
  closed-form VJP) and the digest of one ``generate`` call on the untrained
  model, whose forward did not move.

The trainers now compute their loss gradients in closed form; every digest
above still holds bit for bit.  Generation runs ``infer`` without a cache.
A failure prints the new values, ready to paste here once a change of
numerics is intended and documented in ``docs/architecture.md``.
"""

import hashlib

import numpy as np
import pytest

from repro.baselines import (
    CAEConfig,
    CAEGenerator,
    LayouTransformerConfig,
    LayouTransformerGenerator,
    LegalGANConfig,
    LegalGANPostProcessor,
    VCAEConfig,
    VCAEGenerator,
)
from repro.diffusion.gaussian import (
    GaussianDiffusionConfig,
    GaussianTopologyDiffusion,
    gaussian_unet_config,
)
from repro.nn import UNet

LOSS_ATOL = 1e-5

PARAM_DIGESTS = {
    "cae": "8fdbd99d6122b0ce2564dbaf48bdf4b23de2452abb73369963162d728494412a",
    "vcae": "2eddfe55ccb0ecbe23946d83a99deb63c9d69c83350685afd0e9c3ac771f4c4e",
    "legalgan": "2cc877019760cb202d27b6c82efa6f98a3cbdd5fedda8d1177ec6742d2ac6585",
    "gaussian": "a0deb7a033c9a0c40c28051fb6a112a346b876e0644f29a5d9cf7856fdd7c564",
}

#: The baselines whose trained model produces a pinned output.
BASELINES = ("cae", "legalgan", "vcae")

OUTPUT_DIGESTS = {
    "cae": "4df86572010fa1325b81c8b9e51573e7db5009709f29dd2c28ba66ab45daaf9e",
    "vcae": "1a638ff9c58e8e8a17f899476d526ec6966e6c68256061ac3ff3ecba0a419d26",
    "legalgan": "b5c6a74b8c43f2ecdfb202c43d55f5afd6653b954d107383ab708f07bf711b26",
    "gaussian": "3ba11b6d0fb86b8b9777c2fea1c5e6ab60f0638383d73b6bd36d569f851108f8",
    "layoutransformer": "58046ed5ee46047c88d67316a8c5113971d3421261e1f7e0eba0a72a99449354",
}

TRANSFORMER_LOSSES = [
    2.97722363, 2.9660151, 2.95450401, 2.90251875, 2.84822226, 2.80558395,
    2.84535241, 2.82146621, 2.65490937, 2.87556052, 2.82475424, 2.65320992,
    2.67452121, 2.75862956, 2.50343204, 2.59240198, 2.7802887, 2.59295177,
    2.61542583, 2.61776924,
]


def _digest(arrays) -> str:
    sha = hashlib.sha256()
    for array in arrays:
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


@pytest.fixture(scope="module")
def train_matrices(tiny_dataset):
    matrices = tiny_dataset.topology_matrices("train")
    assert matrices.shape[0] == 48
    return matrices


def _corrupted(matrices):
    flips = np.random.default_rng(5).random(matrices.shape) < 0.08
    return np.abs(matrices.astype(np.int64) - flips).astype(np.uint8)


def _fit(name, matrices, tensors):
    """``(trained parameters, zero-argument output call)`` of one baseline."""
    if name == "gaussian":
        _, channels, size, _ = tensors.shape
        config = gaussian_unet_config(
            channels, size, model_channels=8, channel_mult=(1, 2), num_res_blocks=1,
            attention_resolutions=(4,), dropout=0.1, seed=2,
        )
        model = GaussianTopologyDiffusion(UNet(config), GaussianDiffusionConfig(num_steps=6))
        model.fit(tensors, iterations=20, batch_size=8, rng=0)
        return list(model.model.parameters()), None
    if name == "cae":
        model = CAEGenerator(CAEConfig(iterations=20, base_channels=8, latent_dim=8, threshold=None))
        model.fit(matrices, rng=0)
        params = [*model.encoder.parameters(), *model.decoder.parameters()]
        return params, lambda: model.generate(6, rng=1)
    if name == "vcae":
        model = VCAEGenerator(VCAEConfig(iterations=20, base_channels=8, latent_dim=8, threshold=None))
        model.fit(matrices, rng=0)
        params = [
            *model.encoder.parameters(),
            *model.mu_head.parameters(),
            *model.logvar_head.parameters(),
            *model.decoder.parameters(),
        ]
        return params, lambda: model.generate(6, rng=1)
    model = LegalGANPostProcessor(LegalGANConfig(iterations=20, base_channels=8, threshold=0.42))
    model.fit(matrices, rng=0)
    return list(model._model.parameters()), lambda: model.legalize(_corrupted(matrices[:6]))


@pytest.fixture(scope="module")
def fitted(tiny_dataset, train_matrices):
    tensors = tiny_dataset.topology_tensors("train")
    return {name: _fit(name, train_matrices, tensors) for name in PARAM_DIGESTS}


@pytest.mark.parametrize("name", sorted(PARAM_DIGESTS))
def test_trained_parameters(fitted, name):
    digest = _digest(p.data for p in fitted[name][0])
    assert digest == PARAM_DIGESTS[name], f"new parameter digest for {name}: {digest}"


@pytest.mark.parametrize("name", BASELINES)
def test_output_runs_off_the_tape(fitted, name):
    digest = _digest([fitted[name][1]()])
    assert digest == OUTPUT_DIGESTS[name], f"new output digest for {name}: {digest}"


def test_gaussian_sample_runs_off_the_tape():
    config = gaussian_unet_config(
        4, 8, model_channels=8, channel_mult=(1, 2), num_res_blocks=1,
        attention_resolutions=(4,), dropout=0.1, seed=2,
    )
    diffusion = GaussianTopologyDiffusion(UNet(config), GaussianDiffusionConfig(num_steps=6))
    digest = _digest([diffusion.sample(3, rng=0)])
    assert digest == OUTPUT_DIGESTS["gaussian"], f"new output digest for gaussian: {digest}"


def _transformer_config(iterations):
    return LayouTransformerConfig(iterations=iterations, dim=16, layers=1, max_runs=10)


def test_layoutransformer_generate_runs_off_the_tape(train_matrices):
    model = LayouTransformerGenerator(_transformer_config(0)).fit(train_matrices, rng=0)
    digest = _digest([model.generate(3, rng=1)])
    assert digest == OUTPUT_DIGESTS["layoutransformer"], (
        f"new output digest for layoutransformer: {digest}"
    )


def test_layoutransformer_training_losses(train_matrices):
    model = LayouTransformerGenerator(_transformer_config(20)).fit(train_matrices, rng=0)
    losses = [entry["loss"] for entry in model.training_history]
    np.testing.assert_allclose(
        losses,
        TRANSFORMER_LOSSES,
        rtol=0,
        atol=LOSS_ATOL,
        err_msg="new losses: " + ", ".join(f"{v:.9g}" for v in losses),
    )
