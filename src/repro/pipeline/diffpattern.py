"""End-to-end DiffPattern pipeline (Fig. 4 of the paper).

Chains the three phases of the framework:

1. **Deep Squish Pattern Representation** — dataset patterns are padded to a
   fixed matrix size and folded into topology tensors.
2. **Topology Tensor Generation** — a discrete diffusion model is trained on
   the tensors and sampled to produce fresh topologies.
3. **2D Legal Pattern Assessment** — generated topologies are pre-filtered and
   legalised under the active design rules, yielding the final pattern
   library together with diversity / legality metrics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..baselines.base import TopologyGenerator
from ..data import LayoutPatternDataset
from ..diffusion import DiscreteDiffusion
from ..drc import DesignRuleChecker
from ..legalization import LegalizationEngine, LegalizationReport, SolverOptions
from ..metrics import pattern_diversity, topology_diversity
from ..nn import UNet
from ..prefilter import TopologyPrefilter
from ..squish import SquishPattern, unfold
from ..utils import as_rng
from .config import DiffPatternConfig
from .sampling_engine import SamplingEngine, SamplingReport


@dataclass
class GenerationResult:
    """Everything produced by one generation run."""

    topologies: np.ndarray                       # raw generated matrices (N, H, W)
    kept_topologies: list[np.ndarray] = field(default_factory=list)
    prefilter_reject_rate: float = 0.0
    patterns: list[SquishPattern] = field(default_factory=list)
    unsolved: int = 0
    topology_diversity: float = 0.0
    pattern_diversity: float = 0.0
    legality: float = 0.0
    #: Throughput / statistics of the legalization engine run that produced
    #: ``patterns``.
    legalization_report: "LegalizationReport | None" = field(default=None, repr=False)
    #: Throughput of the sampling engine run that produced ``topologies``
    #: (``None`` for assessment-only results, e.g. :meth:`DiffPatternPipeline.legalize`).
    sampling_report: "SamplingReport | None" = field(default=None, repr=False)

    @property
    def num_patterns(self) -> int:
        return len(self.patterns)


class DiffPatternPipeline:
    """Train-and-generate orchestration for the DiffPattern framework."""

    def __init__(self, config: "DiffPatternConfig | None" = None) -> None:
        self.config = config if config is not None else DiffPatternConfig()
        self.dataset: "LayoutPatternDataset | None" = None
        self.diffusion: "DiscreteDiffusion | None" = None
        self.prefilter = TopologyPrefilter(self.config.prefilter)
        self.checker = DesignRuleChecker(self.config.rules)
        self.training_history: list[dict[str, float]] = []
        self._engine: "SamplingEngine | None" = None
        self._engine_key: "tuple | None" = None
        self._sampling_report: "SamplingReport | None" = None
        self._legalization_report: "LegalizationReport | None" = None
        self._legalization_engine: "LegalizationEngine | None" = None
        self._legalization_engine_key: "tuple | None" = None
        self._legalization_engine_dataset: "LayoutPatternDataset | None" = None

    # ------------------------------------------------------------------ #
    # phase 1: data
    # ------------------------------------------------------------------ #
    def prepare_data(
        self,
        num_patterns: int = 200,
        dataset: "LayoutPatternDataset | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> LayoutPatternDataset:
        """Synthesize (or adopt) the training dataset.

        Parameters
        ----------
        num_patterns:
            Library size to synthesize; ignored when ``dataset`` is given.
        dataset:
            An already-built dataset to adopt instead of synthesizing.
        rng:
            Seed or generator for synthesis (``config.seed`` by default).

        Returns
        -------
        LayoutPatternDataset
            The dataset now bound to the pipeline (also at :attr:`dataset`).
        """
        if dataset is not None:
            self.dataset = dataset
        else:
            self.dataset = LayoutPatternDataset.synthesize(
                num_patterns, self.config.dataset, rng=rng if rng is not None else self.config.seed
            )
        return self.dataset

    # ------------------------------------------------------------------ #
    # phase 2: diffusion training / sampling
    # ------------------------------------------------------------------ #
    def build_model(self) -> DiscreteDiffusion:
        """Instantiate the diffusion generator (fresh U-Net weights)."""
        self.diffusion = DiscreteDiffusion(UNet(self.config.unet_config()), self.config.diffusion)
        return self.diffusion

    def train(
        self,
        iterations: "int | None" = None,
        rng: "int | np.random.Generator | None" = None,
    ) -> list[dict[str, float]]:
        """Train the diffusion model on the prepared dataset.

        Parameters
        ----------
        iterations:
            Optimisation steps (``config.train_iterations`` by default).
        rng:
            Seed or generator driving batching and noise draws.

        Returns
        -------
        list[dict[str, float]]
            Per-logging-step loss history of this call (also appended to
            :attr:`training_history`).

        Raises
        ------
        RuntimeError
            If :meth:`prepare_data` has not been called.
        """
        if self.dataset is None:
            raise RuntimeError("prepare_data must be called before train")
        if self.diffusion is None:
            self.build_model()
        tensors = self.dataset.topology_tensors("train")
        history = self.diffusion.fit(
            tensors,
            iterations=iterations if iterations is not None else self.config.train_iterations,
            batch_size=self.config.batch_size,
            rng=rng if rng is not None else self.config.seed,
        )
        self.training_history.extend(history)
        return history

    def sampling_engine(self) -> SamplingEngine:
        """The batched inference engine over the pipeline's diffusion model.

        Built lazily and rebuilt if the underlying model is replaced (e.g. by
        :meth:`build_model` after a checkpoint load) or a sampler knob
        (:attr:`DiffPatternConfig.sample_batch_size`,
        :attr:`DiffPatternConfig.sampling_steps`) changes.  The engine walks
        the full chain unless ``sampling_steps`` asks for a respaced
        few-step schedule.

        Raises
        ------
        RuntimeError
            If no diffusion model exists yet (call :meth:`train` or
            :meth:`build_model` first).
        """
        if self.diffusion is None:
            raise RuntimeError("train (or build_model) must be called before sampling")
        key = (self.config.sample_batch_size, self.config.sampling_steps)
        if (
            self._engine is None
            or self._engine.diffusion is not self.diffusion
            or self._engine_key != key
        ):
            self._engine = SamplingEngine(
                self.diffusion,
                batch_size=self.config.sample_batch_size,
                steps=self.config.sampling_steps,
            )
            self._engine_key = key
        return self._engine

    @property
    def last_sampling_report(self) -> "SamplingReport | None":
        """Per-phase throughput of the most recent generation run.

        For a streamed run this is the aggregate over every chunk (the
        engine's own ``last_report`` only covers the final chunk).
        """
        if self._sampling_report is not None:
            return self._sampling_report
        return self._engine.last_report if self._engine is not None else None

    def generate_topologies(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        """Sample topology tensors and unfold them into flat matrices.

        Returns
        -------
        numpy.ndarray
            ``(count, H, W)`` binary topology matrices, element-wise
            identical for any engine batch size (per-index seeding).
        """
        engine = self.sampling_engine()
        tensors = engine.sample(count, seed=rng)
        self._sampling_report = engine.last_report
        return np.stack([unfold(t) for t in tensors], axis=0)

    # ------------------------------------------------------------------ #
    # checkpointing
    # ------------------------------------------------------------------ #
    def save_model(self, path) -> None:
        """Save the trained U-Net weights to an ``.npz`` checkpoint.

        Raises
        ------
        RuntimeError
            If no model exists (call :meth:`train` or :meth:`build_model`).
        """
        if self.diffusion is None:
            raise RuntimeError("there is no model to save; call train or build_model first")
        from ..nn import save_checkpoint

        save_checkpoint(self.diffusion.model, path)

    def load_model(self, path) -> None:
        """Load U-Net weights saved by :meth:`save_model`.

        The pipeline configuration must match the checkpoint's architecture;
        a shape mismatch raises immediately instead of silently degrading.
        """
        from ..nn import load_checkpoint

        if self.diffusion is None:
            self.build_model()
        load_checkpoint(self.diffusion.model, path)
        # A loaded model counts as trained for the purposes of run().
        if not self.training_history:
            self.training_history.append({"loss": float("nan"), "iteration": -1.0})

    # ------------------------------------------------------------------ #
    # phase 3: assessment
    # ------------------------------------------------------------------ #
    def legalization_engine(
        self,
        use_reference_geometries: bool = True,
        workers: "int | None" = None,
    ) -> LegalizationEngine:
        """A legalization engine configured for this pipeline.

        ``workers`` defaults to :attr:`DiffPatternConfig.workers`.  The
        engine is cached until the dataset or a knob changes, so repeated
        legalise calls skip re-extracting the reference geometries from the
        dataset (the engine itself re-buckets them once per batch call).
        """
        workers = workers if workers is not None else self.config.workers
        # The dataset is compared by identity (and retained, so a freed
        # object's address can never alias it); dataclass equality would
        # compare whole pattern arrays.
        key = (use_reference_geometries, workers, self.config.solver_mode)
        if (
            self._legalization_engine is None
            or self._legalization_engine_dataset is not self.dataset
            or self._legalization_engine_key != key
        ):
            references = (
                self.dataset.reference_geometries("train")
                if (use_reference_geometries and self.dataset is not None)
                else None
            )
            self._legalization_engine = LegalizationEngine(
                self.config.rules,
                reference_geometries=references,
                options=SolverOptions(solver_mode=self.config.solver_mode),
                workers=workers,
            )
            self._legalization_engine_key = key
            self._legalization_engine_dataset = self.dataset
        return self._legalization_engine

    @property
    def last_legalization_report(self) -> "LegalizationReport | None":
        """Per-phase throughput of the most recent legalisation run."""
        return self._legalization_report

    def legalize(
        self,
        topologies: np.ndarray,
        num_solutions: int = 1,
        use_reference_geometries: bool = True,
        rng: "int | np.random.Generator | None" = None,
        workers: "int | None" = None,
    ) -> GenerationResult:
        """Pre-filter and legalise generated topologies into a pattern library.

        ``num_solutions=1`` is DiffPattern-S; larger values give DiffPattern-L.
        The batch is sharded across ``workers`` processes (config default);
        results are element-wise identical for any worker count.

        Returns
        -------
        GenerationResult
            Patterns plus diversity / legality metrics and the
            legalization report (no sampling report: the topologies were
            supplied, not sampled here).
        """
        filtered = self.prefilter.filter(list(topologies))
        engine = self.legalization_engine(
            use_reference_geometries=use_reference_geometries, workers=workers
        )
        results, report = engine.legalize_batch_with_report(
            filtered.kept, num_solutions=num_solutions, seed=rng
        )
        self._legalization_report = report
        patterns = [p for r in results for p in r.patterns]
        unsolved = sum(1 for r in results if not r.solved)
        result = GenerationResult(
            topologies=np.asarray(topologies),
            kept_topologies=filtered.kept,
            prefilter_reject_rate=filtered.reject_rate,
            patterns=patterns,
            unsolved=unsolved,
            topology_diversity=topology_diversity(list(topologies)) if len(topologies) else 0.0,
            pattern_diversity=pattern_diversity(patterns) if patterns else 0.0,
            legality=self.checker.legality_rate(patterns) if patterns else 0.0,
            legalization_report=report,
        )
        return result

    # ------------------------------------------------------------------ #
    # streaming generation graph
    # ------------------------------------------------------------------ #
    def generation_graph(
        self,
        chunk_size: "int | None" = None,
        num_solutions: int = 1,
        workers: "int | None" = None,
        retain_topologies: bool = True,
        library=None,
        on_chunk=None,
    ):
        """A :class:`~repro.pipeline.GenerationGraph` over this pipeline's stages.

        ``chunk_size`` defaults to :attr:`DiffPatternConfig.sample_batch_size`;
        it only bounds peak memory — the generated result is element-wise
        identical for any value.
        ``on_chunk`` is forwarded to the graph: a callback fired with each
        live :class:`~repro.pipeline.StreamChunk` as it completes.
        """
        from .stages import GenerationGraph

        return GenerationGraph(
            self.sampling_engine(),
            self.prefilter,
            self.legalization_engine(workers=workers),
            self.checker,
            chunk_size=chunk_size if chunk_size is not None else self.config.sample_batch_size,
            num_solutions=num_solutions,
            retain_topologies=retain_topologies,
            library=library,
            on_chunk=on_chunk,
        )

    def generate_and_legalize(
        self,
        num_generated: int,
        num_solutions: int = 1,
        rng: "int | np.random.Generator | None" = None,
        workers: "int | None" = None,
        chunk_size: "int | None" = None,
        retain_topologies: bool = True,
        library=None,
        resume: bool = False,
    ) -> GenerationResult:
        """Sample, prefilter, legalise and score through the stage graph.

        ``chunk_size`` (see :meth:`generation_graph`) only bounds memory: the
        result is element-wise identical for any value, and
        ``chunk_size=num_generated`` is one barrier chunk (sample
        everything, then assess everything).
        """
        graph = self.generation_graph(
            chunk_size=chunk_size,
            num_solutions=num_solutions,
            workers=workers,
            retain_topologies=retain_topologies,
            library=library,
        )
        result = graph.run(num_generated, seed=rng, resume=resume)
        self._sampling_report = result.sampling_report
        self._legalization_report = result.legalization_report
        return result

    # ------------------------------------------------------------------ #
    # one-call convenience
    # ------------------------------------------------------------------ #
    def run(
        self,
        num_training_patterns: int = 200,
        num_generated: int = 32,
        num_solutions: int = 1,
        train_iterations: "int | None" = None,
        rng: "int | np.random.Generator | None" = None,
        chunk_size: "int | None" = None,
        library=None,
        resume: bool = False,
    ) -> GenerationResult:
        """Full pipeline: data -> train -> stream(sample -> legalise) -> metrics.

        Generation runs through the streaming stage graph in chunks of
        ``chunk_size`` samples (identical output for any value).  Pass
        ``library`` (a :class:`~repro.library.PatternLibrary`)
        to persist every completed chunk, and ``resume=True`` to continue a
        killed run from its manifest without re-generating finished chunks.

        One generator seeded from ``rng`` (``config.seed`` by default)
        drives data synthesis, training and generation in sequence, so a
        rerun — or a resume — with the same seed replays the identical run.

        Returns
        -------
        GenerationResult
            Patterns, metrics and the per-stage engine reports.

        Raises
        ------
        repro.library.LibraryError
            If ``library`` holds an incompatible fingerprint, or completed
            chunks without ``resume=True``.
        """
        gen = as_rng(rng if rng is not None else self.config.seed)
        if self.dataset is None:
            self.prepare_data(num_training_patterns, rng=gen)
        if not self.training_history:
            self.train(iterations=train_iterations, rng=gen)
        return self.generate_and_legalize(
            num_generated,
            num_solutions=num_solutions,
            rng=gen,
            chunk_size=chunk_size,
            library=library,
            resume=resume,
        )


class DiffPatternTopologyGenerator(TopologyGenerator):
    """Adapter exposing the diffusion pipeline through the baseline interface.

    Lets the Table I harness treat DiffPattern exactly like the baselines for
    the *topology generation* part, while legality is still obtained through
    the white-box legaliser.
    """

    name = "DiffPattern"

    def __init__(self, pipeline: DiffPatternPipeline) -> None:
        self.pipeline = pipeline

    def fit(
        self, matrices: np.ndarray, rng: "int | np.random.Generator | None" = None
    ) -> "DiffPatternTopologyGenerator":
        # The pipeline trains on its own dataset representation; `matrices`
        # are accepted for interface compatibility but the pipeline's dataset
        # takes precedence when already prepared.
        if self.pipeline.dataset is None:
            raise RuntimeError(
                "DiffPatternTopologyGenerator requires a pipeline with prepared data"
            )
        if not self.pipeline.training_history:
            self.pipeline.train(rng=rng)
        return self

    def generate(
        self, count: int, rng: "int | np.random.Generator | None" = None
    ) -> np.ndarray:
        return self.pipeline.generate_topologies(count, rng=rng)
