"""Squish pattern representation (Section II-B of the paper).

A squish pattern losslessly encodes a rectilinear layout clip as a binary
topology matrix plus two geometric vectors ``delta_x`` and ``delta_y``.  Scan
lines are placed along every polygon edge (and the window boundary); the
intervals between adjacent scan lines become the matrix columns/rows, and a
cell is 1 when the corresponding region of the layout is covered by a shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..geometry import Layout, validate_grid


@dataclass
class SquishPattern:
    """Lossless (topology, delta_x, delta_y) encoding of a layout clip.

    Attributes
    ----------
    topology:
        Binary matrix of shape ``(len(delta_y), len(delta_x))``.
    delta_x, delta_y:
        Positive interval lengths (nm) between adjacent scan lines.
    origin:
        Lower-left corner of the encoded window (defaults to (0, 0)).
    """

    topology: np.ndarray
    delta_x: np.ndarray
    delta_y: np.ndarray
    origin: tuple[int, int] = (0, 0)

    def __post_init__(self) -> None:
        self.topology = validate_grid(self.topology)
        self.delta_x = np.asarray(self.delta_x, dtype=np.int64)
        self.delta_y = np.asarray(self.delta_y, dtype=np.int64)
        if self.delta_x.ndim != 1 or self.delta_y.ndim != 1:
            raise ValueError("delta vectors must be 1-D")
        if self.topology.shape != (self.delta_y.shape[0], self.delta_x.shape[0]):
            raise ValueError(
                "topology shape "
                f"{self.topology.shape} does not match delta vector lengths "
                f"({self.delta_y.shape[0]}, {self.delta_x.shape[0]})"
            )
        if (self.delta_x <= 0).any() or (self.delta_y <= 0).any():
            raise ValueError("delta vector entries must be strictly positive")

    @property
    def width(self) -> int:
        """Window width in nm."""
        return int(self.delta_x.sum())

    @property
    def height(self) -> int:
        """Window height in nm."""
        return int(self.delta_y.sum())

    @property
    def complexity(self) -> tuple[int, int]:
        """Pattern complexity ``(cx, cy)``: scan-line counts minus one.

        With ``n`` columns there are ``n + 1`` x scan lines; the paper defines
        complexity as the number of scan lines minus one, i.e. the number of
        intervals, excluding the trailing window boundary interval when the
        pattern was padded.  Here we simply report the interval counts, which
        matches the definition for unpadded patterns.
        """
        return int(self.delta_x.shape[0]), int(self.delta_y.shape[0])

    def to_layout(self) -> Layout:
        """Decode back to a :class:`repro.geometry.Layout` (lossless)."""
        return Layout.from_grid(self.topology, self.delta_x, self.delta_y, self.origin)

    @classmethod
    def from_layout(cls, layout: Layout) -> "SquishPattern":
        """Encode a layout clip into its squish representation."""
        grid, dx, dy = layout.occupancy_grid()
        return cls(
            topology=grid,
            delta_x=dx,
            delta_y=dy,
            origin=(layout.window.x1, layout.window.y1),
        )

    # ------------------------------------------------------------------ #
    # persistence
    # ------------------------------------------------------------------ #
    def as_arrays(self) -> dict[str, np.ndarray]:
        """The pattern as a flat ``name -> array`` dict (the npz codec).

        This is the canonical single-pattern form: :meth:`save` writes
        exactly these arrays to a ``.npz`` file and the serve protocol sends
        them (library shards store many patterns as columns instead; see
        :func:`repro.library.save_shard`).
        """
        return {
            "topology": self.topology,
            "delta_x": self.delta_x,
            "delta_y": self.delta_y,
            "origin": np.asarray(self.origin, dtype=np.int64),
        }

    @classmethod
    def from_arrays(cls, arrays: "dict[str, np.ndarray]", source: str = "arrays") -> "SquishPattern":
        """Rebuild a pattern from :meth:`as_arrays` output.

        Missing keys and shape-mismatched components raise a ``ValueError``
        naming ``source`` (e.g. the offending file) instead of a bare
        constructor error.
        """
        missing = [key for key in ("topology", "delta_x", "delta_y") if key not in arrays]
        if missing:
            raise ValueError(
                f"{source} is not a squish pattern: missing array(s) {', '.join(missing)}"
            )
        origin = arrays.get("origin")
        if origin is not None:
            origin_array = np.asarray(origin, dtype=np.int64).ravel()
            if origin_array.shape != (2,):
                raise ValueError(f"{source} has a malformed origin (expected 2 values)")
            origin_tuple = (int(origin_array[0]), int(origin_array[1]))
        else:
            origin_tuple = (0, 0)
        try:
            return cls(
                topology=np.asarray(arrays["topology"]),
                delta_x=np.asarray(arrays["delta_x"]),
                delta_y=np.asarray(arrays["delta_y"]),
                origin=origin_tuple,
            )
        except ValueError as error:
            raise ValueError(f"{source} holds an invalid squish pattern: {error}") from error

    def save(self, path) -> None:
        """Write the pattern to a single-pattern ``.npz`` file (lossless)."""
        np.savez_compressed(path, **self.as_arrays())

    @classmethod
    def load(cls, path) -> "SquishPattern":
        """Load a pattern saved by :meth:`save`.

        Files whose topology does not match the delta-vector lengths (or with
        missing components) are rejected with a ``ValueError`` that names the
        file.
        """
        with np.load(path) as data:
            arrays = {key: data[key] for key in data.files}
        return cls.from_arrays(arrays, source=str(path))

    def is_equivalent_to(self, other: "SquishPattern") -> bool:
        """Geometric equivalence: both describe the same physical layout.

        Two squish factorisations of the same layout (e.g. before and after
        fixed-size padding) may use different scan-line sets; comparing their
        canonical forms (all mergeable rows/columns collapsed) removes that
        ambiguity.
        """
        from .padding import canonicalize  # local import to avoid a cycle

        mine = canonicalize(self)
        theirs = canonicalize(other)
        return (
            mine.origin == theirs.origin
            and np.array_equal(mine.topology, theirs.topology)
            and np.array_equal(mine.delta_x, theirs.delta_x)
            and np.array_equal(mine.delta_y, theirs.delta_y)
        )
