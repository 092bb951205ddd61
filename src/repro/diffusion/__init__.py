"""Discrete (and continuous-ablation) diffusion models for topology tensors."""

from .d3pm import DiffusionConfig, DiscreteDiffusion
from .gaussian import (
    GaussianDiffusionConfig,
    GaussianTopologyDiffusion,
    gaussian_unet_config,
)
from .respacing import RespacedSchedule, respaced_timesteps
from .schedule import NoiseSchedule, linear_schedule
from .transition import (
    DiscreteTransitionModel,
    binary_flip_probability,
    categorical_from_uniforms,
    one_hot,
    sample_categorical,
)

__all__ = [
    "NoiseSchedule",
    "linear_schedule",
    "DiscreteTransitionModel",
    "sample_categorical",
    "categorical_from_uniforms",
    "one_hot",
    "binary_flip_probability",
    "RespacedSchedule",
    "respaced_timesteps",
    "DiffusionConfig",
    "DiscreteDiffusion",
    "GaussianDiffusionConfig",
    "GaussianTopologyDiffusion",
    "gaussian_unet_config",
]
