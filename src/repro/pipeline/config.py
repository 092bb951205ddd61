"""Configuration objects for the end-to-end DiffPattern pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..data import DatasetConfig
from ..diffusion import DiffusionConfig
from ..legalization import DesignRules
from ..nn import UNetConfig
from ..prefilter import PrefilterConfig


@dataclass
class DiffPatternConfig:
    """Everything needed to train and run the full DiffPattern framework.

    Three preset scales are provided:

    * :meth:`tiny` — seconds-scale settings used by the unit tests,
    * :meth:`laptop` — the default, minutes-scale and CPU-friendly,
    * :meth:`paper` — the configuration reported in the paper
      (16x32x32 tensors, K=1000, 128-channel U-Net, 0.5 M iterations);
      valid but only practical with substantial compute.

    Config literals are normally not written by hand: a
    :class:`~repro.scenarios.ScenarioSpec` names a preset plus per-section
    overrides and lowers into this class (see ``docs/scenarios.md``).
    """

    #: Active design rules; single-sourced — ``__post_init__`` re-threads
    #: them into :attr:`dataset` so legaliser, DRC and data agree.
    rules: DesignRules = field(default_factory=DesignRules)
    #: Topology-dataset shape and split (matrix size, channels, test split).
    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    #: Discrete-diffusion hyper-parameters (steps, betas, loss weights).
    diffusion: DiffusionConfig = field(default_factory=DiffusionConfig)
    #: Which rule-based screens run before the legalisation solve.
    prefilter: PrefilterConfig = field(default_factory=PrefilterConfig)
    #: Base channel width of the U-Net denoiser.
    model_channels: int = 32
    #: Per-resolution channel multipliers (also sets the U-Net depth).
    channel_mult: tuple[int, ...] = (1, 2, 2)
    #: Residual blocks per U-Net resolution level.
    num_res_blocks: int = 2
    #: Spatial sizes at which the U-Net applies self-attention.
    attention_resolutions: tuple[int, ...] = (4,)
    #: Dropout rate inside the U-Net residual blocks.
    dropout: float = 0.1
    #: Default optimisation steps for :meth:`DiffPatternPipeline.train`.
    train_iterations: int = 200
    #: Training mini-batch size.
    batch_size: int = 16
    #: Samples denoised per reverse pass of the sampling engine, and pulled
    #: per step of the streaming generation graph.  Purely a
    #: memory/throughput trade-off — the generated samples are identical for
    #: any value (per-sample seeding).
    sample_batch_size: int = 32
    #: Process-pool width of the legalization engine.  ``1`` legalises
    #: serially in-process; ``None`` sizes the pool to the host CPU count
    #: (capped at 8 — see ``repro.legalization.default_workers``).  Output is
    #: element-wise identical for any value (per-index seeding).
    workers: "int | None" = 1
    #: Legalisation solve strategy: ``"auto"`` tries the deterministic repair
    #: projection before falling back to SLSQP (fastest; deterministic per
    #: seed), ``"slsqp"`` always runs the full solve (bit-identical to the
    #: historical solver — the ``paper-tables`` scenario pins it).
    solver_mode: str = "auto"
    #: Denoising steps the sampler walks per sample.  ``None`` walks the
    #: full trained chain; a smaller value samples the evenly respaced
    #: few-step chain (that many U-Net evaluations per sample — see
    #: ``docs/sampling.md``).  Unlike the batch/worker knobs this *changes
    #: the sampled values* (except at the full chain length, which is
    #: bit-identical to ``None``); the few-step quality gate in
    #: ``benchmarks/bench_fewstep_sampling.py`` bounds the cost.
    sampling_steps: "int | None" = None
    #: Base random seed: drives dataset synthesis, weight init, training
    #: order, and generation when no explicit ``rng`` is passed.
    seed: int = 0

    def __post_init__(self) -> None:
        from ..legalization import SOLVER_MODES

        if self.solver_mode not in SOLVER_MODES:
            raise ValueError(
                f"solver_mode must be one of {SOLVER_MODES}, got {self.solver_mode!r}"
            )
        if self.sampling_steps is not None and not (
            1 <= self.sampling_steps <= self.diffusion.num_steps
        ):
            raise ValueError(
                f"sampling_steps must lie in [1, {self.diffusion.num_steps}] "
                f"(the trained chain length), got {self.sampling_steps}"
            )
        if self.dataset.rules != self.rules:
            # Keep one source of truth for the rules across the pipeline.
            self.dataset = DatasetConfig(
                matrix_size=self.dataset.matrix_size,
                channels=self.dataset.channels,
                test_fraction=self.dataset.test_fraction,
                rules=self.rules,
            )

    # ------------------------------------------------------------------ #
    @property
    def tensor_size(self) -> int:
        """Spatial side of the deep-squish topology tensor."""
        return self.dataset.tensor_size

    def unet_config(self) -> UNetConfig:
        """The U-Net configuration implied by this pipeline configuration."""
        return UNetConfig(
            in_channels=self.dataset.channels,
            num_classes=self.diffusion.num_states,
            image_size=self.tensor_size,
            model_channels=self.model_channels,
            channel_mult=self.channel_mult,
            num_res_blocks=self.num_res_blocks,
            attention_resolutions=self.attention_resolutions,
            dropout=self.dropout,
            seed=self.seed,
        )

    # ------------------------------------------------------------------ #
    @classmethod
    def tiny(cls, rules: "DesignRules | None" = None) -> "DiffPatternConfig":
        """Seconds-scale configuration for tests and CI."""
        rules = rules if rules is not None else DesignRules()
        return cls(
            rules=rules,
            dataset=DatasetConfig(matrix_size=16, channels=4, rules=rules),
            diffusion=DiffusionConfig(num_steps=8, lambda_ce=0.05),
            model_channels=8,
            channel_mult=(1, 2),
            num_res_blocks=1,
            attention_resolutions=(4,),
            dropout=0.0,
            train_iterations=10,
            batch_size=8,
        )

    @classmethod
    def laptop(cls, rules: "DesignRules | None" = None) -> "DiffPatternConfig":
        """Minutes-scale configuration: the repository default for examples."""
        rules = rules if rules is not None else DesignRules()
        return cls(
            rules=rules,
            dataset=DatasetConfig(matrix_size=32, channels=16, rules=rules),
            diffusion=DiffusionConfig(num_steps=64, lambda_ce=0.01),
            model_channels=32,
            channel_mult=(1, 2, 2),
            num_res_blocks=2,
            attention_resolutions=(4,),
            dropout=0.1,
            train_iterations=300,
            batch_size=16,
        )

    @classmethod
    def paper(cls, rules: "DesignRules | None" = None) -> "DiffPatternConfig":
        """The configuration reported in Section IV-A of the paper."""
        rules = rules if rules is not None else DesignRules()
        return cls(
            rules=rules,
            dataset=DatasetConfig(matrix_size=128, channels=16, rules=rules),
            diffusion=DiffusionConfig(num_steps=1000, lambda_ce=0.001),
            model_channels=128,
            channel_mult=(1, 2, 2, 2),
            num_res_blocks=2,
            attention_resolutions=(16,),
            dropout=0.1,
            train_iterations=500_000,
            batch_size=128,
        )
