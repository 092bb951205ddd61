"""Pattern-library diversity (Definition 1 / Eq. 4 of the paper).

Diversity ``H`` is the Shannon entropy of the joint distribution of pattern
complexities ``(cx, cy)`` over the library.  A larger ``H`` means the library
covers a wider variety of pattern structures.

:class:`ComplexityHistogram` is the one implementation of that
distribution: an incremental count table the streaming generation graph
folds one chunk at a time into, and the library manifest persists for
resume.  The list functions (:func:`complexity_distribution`,
:func:`diversity_from_complexities`) are views over a histogram built from
their pairs, so a streamed run and a whole-library computation agree bit
for bit.
"""

from __future__ import annotations

import numpy as np

from ..squish import SquishPattern
from .complexity import pattern_complexity, topology_complexity


def shannon_entropy(probabilities: np.ndarray, base: float = 2.0) -> float:
    """Entropy of a (possibly unnormalised) non-negative distribution."""
    probs = np.asarray(probabilities, dtype=np.float64).ravel()
    if (probs < 0).any():
        raise ValueError("probabilities must be non-negative")
    total = probs.sum()
    if total <= 0:
        return 0.0
    probs = probs / total
    nonzero = probs[probs > 0]
    return float(-(nonzero * (np.log(nonzero) / np.log(base))).sum())


class ComplexityHistogram:
    """Incremental joint histogram of pattern complexities ``(cx, cy)``.

    Supports streaming insertion, merging (for sharded accumulation), exact
    diversity evaluation at any point, and a JSON-safe record form used by
    the :class:`~repro.library.PatternLibrary` manifest for resume.
    """

    def __init__(
        self, pairs: "list[tuple[int, int]] | None" = None
    ) -> None:
        self._counts: dict[tuple[int, int], int] = {}
        self._total = 0
        if pairs:
            self.add_pairs(pairs)

    # ------------------------------------------------------------------ #
    # insertion
    # ------------------------------------------------------------------ #
    def add(self, cx: int, cy: int, count: int = 1) -> None:
        """Record ``count`` occurrences of complexity ``(cx, cy)``."""
        if count < 1:
            raise ValueError("count must be >= 1")
        key = (int(cx), int(cy))
        self._counts[key] = self._counts.get(key, 0) + int(count)
        self._total += int(count)

    def add_pairs(self, pairs: "list[tuple[int, int]]") -> None:
        """Record a batch of complexity pairs."""
        for cx, cy in pairs:
            self.add(cx, cy)

    def merge(self, other: "ComplexityHistogram") -> "ComplexityHistogram":
        """Fold another histogram into this one (shard aggregation)."""
        for (cx, cy), count in other._counts.items():
            self.add(cx, cy, count)
        return self

    # ------------------------------------------------------------------ #
    # introspection
    # ------------------------------------------------------------------ #
    @property
    def total(self) -> int:
        """Number of recorded patterns (with multiplicity)."""
        return self._total

    @property
    def num_distinct(self) -> int:
        """Number of distinct complexity pairs observed."""
        return len(self._counts)

    def count(self, cx: int, cy: int) -> int:
        """Occurrences of one complexity pair."""
        return self._counts.get((int(cx), int(cy)), 0)

    def pairs(self) -> list[tuple[int, int]]:
        """The recorded pairs expanded with multiplicity, in sorted order."""
        expanded: list[tuple[int, int]] = []
        for key in sorted(self._counts):
            expanded.extend([key] * self._counts[key])
        return expanded

    def max_coordinate(self) -> int:
        """Largest ``cx`` or ``cy`` observed (``-1`` when empty).

        O(distinct) — use this instead of ``max(pairs())`` so sizing a
        histogram grid never expands the multiset.
        """
        return max((max(key) for key in self._counts), default=-1)

    def __len__(self) -> int:
        return self._total

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ComplexityHistogram):
            return NotImplemented
        return self._counts == other._counts

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"ComplexityHistogram(total={self._total}, "
            f"distinct={self.num_distinct})"
        )

    # ------------------------------------------------------------------ #
    # metrics
    # ------------------------------------------------------------------ #
    def diversity(self, base: float = 2.0) -> float:
        """Diversity H (Eq. 4): the entropy of the counts in sorted-key order.

        The order is lexicographic in ``(cx, cy)``, the order
        ``np.unique(pairs, axis=0)`` would give, so the float64 summation
        is fixed by the multiset of pairs alone.
        """
        if not self._counts:
            return 0.0
        counts = np.array(
            [self._counts[key] for key in sorted(self._counts)], dtype=np.int64
        )
        return shannon_entropy(counts.astype(np.float64), base=base)

    def distribution(
        self, bins: "int | None" = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Joint empirical distribution ``(probabilities, x_values, y_values)``.

        ``probabilities`` is a 2-D array over the observed ``cx`` (rows)
        and ``cy`` (columns) values.  With ``bins`` set, a fixed
        ``bins x bins`` grid starting at zero is used instead (as in Fig. 9,
        which uses a 128x128 grid); pairs outside it are dropped.  Built
        directly from the count table (O(distinct) memory).
        """
        if not self._counts:
            raise ValueError("complexity list is empty")
        keys = sorted(self._counts)
        if bins is None:
            x_values = np.unique(np.asarray([cx for cx, _ in keys], dtype=np.int64))
            y_values = np.unique(np.asarray([cy for _, cy in keys], dtype=np.int64))
        else:
            x_values = np.arange(bins)
            y_values = np.arange(bins)
        counts = np.zeros((len(x_values), len(y_values)), dtype=np.float64)
        x_index = {v: i for i, v in enumerate(x_values.tolist())}
        y_index = {v: i for i, v in enumerate(y_values.tolist())}
        for (cx, cy), count in self._counts.items():
            xi = x_index.get(cx)
            yi = y_index.get(cy)
            if xi is not None and yi is not None:
                counts[xi, yi] += float(count)
        total = counts.sum()
        probabilities = counts / total if total else counts
        return probabilities, x_values, y_values

    # ------------------------------------------------------------------ #
    # persistence (manifest records)
    # ------------------------------------------------------------------ #
    def as_records(self) -> list[list[int]]:
        """JSON-safe ``[cx, cy, count]`` rows, sorted by key."""
        return [[cx, cy, self._counts[(cx, cy)]] for cx, cy in sorted(self._counts)]

    @classmethod
    def from_records(cls, records: "list[list[int]]") -> "ComplexityHistogram":
        """Rebuild a histogram from :meth:`as_records` output."""
        histogram = cls()
        for cx, cy, count in records:
            histogram.add(cx, cy, count)
        return histogram


def complexity_distribution(
    complexities: "list[tuple[int, int]]", bins: "int | None" = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Joint empirical distribution of complexity pairs
    (:meth:`ComplexityHistogram.distribution`)."""
    return ComplexityHistogram(complexities).distribution(bins)


def diversity_from_complexities(
    complexities: "list[tuple[int, int]]", base: float = 2.0
) -> float:
    """Diversity H of a library described by its complexity pairs
    (:meth:`ComplexityHistogram.diversity`)."""
    return ComplexityHistogram(complexities).diversity(base)


def pattern_diversity(patterns: "list[SquishPattern]", base: float = 2.0) -> float:
    """Diversity H of a library of squish patterns."""
    return diversity_from_complexities([pattern_complexity(p) for p in patterns], base=base)


def topology_diversity(topologies: "list[np.ndarray] | np.ndarray", base: float = 2.0) -> float:
    """Diversity H of a set of bare topology matrices.

    Used for the 'Generated Topology' column of Table I, where geometric
    vectors have not been assigned yet.
    """
    return diversity_from_complexities(
        [topology_complexity(t) for t in topologies], base=base
    )
