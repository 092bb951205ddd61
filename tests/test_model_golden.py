"""Golden record of the U-Net forward pass and the start of a training run.

The bit-identity tests elsewhere compare one implementation with another, so
a change that moves both the same way passes them.  This file pins values
instead.  They were computed with the per-layer tape (before ``UNet.forward``
became one node over ``infer``) and held identically under one and two BLAS
threads there:

* SHA-256 digests of ``UNet.infer`` outputs for three models — the
  hotspot-expansion model, a three-level model (two res blocks per level,
  attention at 8, dropout 0.1) and a ``num_classes=1`` Gaussian model — each
  at batch 5 with one shared timestep, batch 5 with mixed timesteps, and
  batch 1.  Sampling must reproduce these bit for bit.
* The per-iteration loss of the first 100 hotspot-expansion training
  iterations.  Training numerics may move at rounding level (reduction
  order in the reverse pass and the gradient-norm clip), so the trajectory
  is checked at the documented tolerance of ``atol=1e-5``.
* The SHA-256 of the hotspot-expansion U-Net parameters after those 100
  iterations, computed with the tape-glued loss and held identically under
  one and two BLAS threads.  The losses alone would let the weights drift
  at rounding level; this pins them bit for bit.

A failure prints the new values, ready to paste here once a change of
numerics is intended and documented in ``docs/architecture.md``.
"""

import hashlib

import numpy as np
import pytest

from repro.diffusion.gaussian import gaussian_unet_config
from repro.nn import UNet, UNetConfig
from repro.pipeline import DiffPatternPipeline
from repro.scenarios import builtin_registry

LOSS_ATOL = 1e-5


def _configs() -> dict[str, UNetConfig]:
    return {
        "hotspot": builtin_registry().resolve("hotspot-expansion").lower().config.unet_config(),
        "three_level": UNetConfig(
            in_channels=2, num_classes=2, image_size=16, model_channels=8,
            channel_mult=(1, 2, 2), num_res_blocks=2, attention_resolutions=(8,),
            dropout=0.1, seed=3,
        ),
        "gaussian": gaussian_unet_config(
            3, 8, model_channels=8, channel_mult=(1, 2), num_res_blocks=1,
            attention_resolutions=(4,), dropout=0.0, seed=1,
        ),
    }


TIMESTEPS = {
    "equal5": np.full(5, 7, dtype=np.int64),
    "mixed5": np.array([1, 9, 4, 4, 16], dtype=np.int64),
    "single": np.array([12], dtype=np.int64),
}

INFER_DIGESTS = {
    "hotspot/equal5": "7c21d20ccfc71c1193d9c96dd1b25f08895003e00b8be05aa41c3ac012c14342",
    "hotspot/mixed5": "0fec1e360711ab530b12f177e978b29e15731f1bf86109fc099134450fec09cb",
    "hotspot/single": "77e9f798a5b3dd8dbcb90c5176178d48b773e5611fb8ff5914454e0ad1966650",
    "three_level/equal5": "50e58ed9f3fda4a121abdbe005ad85f7640ebcdce6cbd07f82b7bd087abbed11",
    "three_level/mixed5": "f664123d3ffa85ab42aec3659f4fb6a8792731fe0c848075404268b0e216d723",
    "three_level/single": "d6f3ac8a40ddb2f5d44b57174f7125395607c8941aca4fbe47217240c8c23f09",
    "gaussian/equal5": "d4a623b636e2d94bdae00bd837252f4d9933d79109f70d140fb9d075438011e2",
    "gaussian/mixed5": "570cbd179f10a96f797127d17585372a4d23d0b144fc2a7a922c1e8da3feed33",
    "gaussian/single": "bc38676358c2fbbc9ed05c707ad7458217cb6b35c0427331343e634d9acad604",
}

HOTSPOT_TRAINED_DIGEST = "93723425ce3c94c95c689e1c24c9e4b1c6e3472b2c94239beb9822cfcf75f4be"

HOTSPOT_LOSSES = [
    0.134785891, 0.470250547, 0.0342468023, 0.0345108807, 0.0337505452, 0.0342782177,
    0.0338575952, 0.0336983688, 0.0338603668, 0.0336146764, 0.0342575274, 0.132764861,
    0.0744031519, 0.0337519161, 0.0412205271, 0.0335042737, 0.0336632542, 0.0572432578,
    0.0332771242, 0.0342623368, 0.44983682, 0.231542677, 0.0329642855, 0.44468224,
    0.033064831, 0.0330350883, 0.129527599, 0.0333363377, 0.169222206, 0.0571824089,
    0.0327550657, 0.0326208211, 0.0331132077, 0.0333444439, 0.038674023, 0.0320217051,
    0.0549271293, 0.0315817557, 0.0954527631, 0.0333497897, 0.0324663706, 0.0320280753,
    0.0316006504, 0.0320612341, 0.0324228406, 0.0319612548, 0.031541612, 0.052879028,
    0.0314280204, 0.0319241062, 0.0313639008, 0.0319147259, 0.296028733, 0.12011686,
    0.163823307, 0.0314068682, 0.0340619907, 0.0311280824, 0.0924175978, 0.0308595449,
    0.031160254, 0.0311075039, 0.0369220451, 0.0306922253, 0.0510056615, 0.0304205697,
    0.0303728823, 0.634962857, 0.0305705313, 0.0504327714, 0.0415435918, 0.157836869,
    0.0297369789, 0.0306453947, 0.0298932251, 0.0297472365, 0.0292155575, 0.0297951233,
    0.0654112548, 0.0295344535, 0.0305037647, 0.392035961, 0.281414747, 0.0302994382,
    0.0311006904, 0.112351008, 0.0330672711, 0.0295481961, 0.204127073, 0.0306497402,
    0.589828551, 0.0349890813, 0.0291006751, 0.0297003891, 0.029954711, 0.197247818,
    0.0290468577, 0.028606683, 0.028753629, 0.029325841,
]


@pytest.fixture(scope="module")
def models() -> dict[str, UNet]:
    return {name: UNet(config) for name, config in _configs().items()}


@pytest.mark.parametrize("key", sorted(INFER_DIGESTS))
def test_infer_digest(models, key):
    name, case = key.split("/")
    net = models[name]
    config = net.config
    steps = TIMESTEPS[case]
    rng = np.random.default_rng([len(name), steps.size, int(steps.sum())])
    x = rng.random(
        (steps.size, config.in_channels * config.num_classes, config.image_size, config.image_size),
        dtype=np.float32,
    )
    out = np.ascontiguousarray(net.infer(x, steps), dtype=np.float32)
    digest = hashlib.sha256(out.tobytes()).hexdigest()
    assert digest == INFER_DIGESTS[key], f"new digest for {key}: {digest}"


@pytest.fixture(scope="module")
def hotspot_fit():
    """``(per-iteration losses, trained U-Net)`` of the hotspot-expansion fit."""
    plan = builtin_registry().resolve("hotspot-expansion").lower()
    pipeline = DiffPatternPipeline(plan.config)
    pipeline.prepare_data(num_patterns=plan.num_training_patterns)
    losses = [entry["loss"] for entry in pipeline.train(iterations=len(HOTSPOT_LOSSES))]
    return losses, pipeline.diffusion.model


def test_hotspot_training_losses(hotspot_fit):
    losses, _ = hotspot_fit
    np.testing.assert_allclose(
        losses,
        HOTSPOT_LOSSES,
        rtol=0,
        atol=LOSS_ATOL,
        err_msg="new losses: " + ", ".join(f"{v:.9g}" for v in losses),
    )


def test_hotspot_trained_parameters(hotspot_fit):
    sha = hashlib.sha256()
    for param in hotspot_fit[1].parameters():
        sha.update(np.ascontiguousarray(param.data).tobytes())
    digest = sha.hexdigest()
    assert digest == HOTSPOT_TRAINED_DIGEST, f"new trained-parameter digest: {digest}"
