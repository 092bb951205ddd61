"""Nonlinear-system solver for the 2D legal pattern assessment (Eq. 14).

The system's unknowns are the geometric vectors ``delta_x`` (one entry per
topology column) and ``delta_y`` (one per row).  The constraints are

* positivity of every interval,
* both vectors summing to the pattern window size,
* linear lower bounds for every width / space run,
* nonlinear two-sided bounds on every polygon area.

The constraint system is compiled once per topology into the stacked-array
kernel of :mod:`repro.legalization.compiled`, then solved in one of two
modes (``SolverOptions.solver_mode``):

* ``"slsqp"`` — SLSQP (scipy) over the compiled vectorized ``fun``/``jac``
  pair; bit-identical to the historical per-constraint lambda formulation.
  The objective is a least-squares pull towards a *target* geometry, which
  makes the solution set explorable: different random targets give different
  legal geometries for the same topology (DiffPattern-L), while targets from
  existing dataset geometries give the accelerated ``Solving-E`` variant of
  Table II.
* ``"auto"`` — repair-first: a deterministic projection of the target onto
  the sum equality and the per-index interval lower bounds, rounded and
  verified exactly; only topologies the projection cannot legalise fall back
  to the full SLSQP solve.  Outputs remain deterministic per seed and always
  pass the exact integer verification, but are *not* bit-identical to
  ``"slsqp"``.

Both modes run in :func:`~repro.legalization.solve_geometry_chunk`; the
functions here solve one topology as a chunk of one.
"""

from __future__ import annotations

import numpy as np

from ..utils import as_rng
from .batched import GeometrySolution, SolverOptions, solve_geometry_chunk
from .compiled import CompiledConstraints, compile_constraints
from .constraints import TopologyConstraints, extract_constraints
from .rules import DesignRules


def solve_geometry(
    constraints: "TopologyConstraints | CompiledConstraints",
    rules: DesignRules,
    target_x: "np.ndarray | None" = None,
    target_y: "np.ndarray | None" = None,
    rng: "int | np.random.Generator | None" = None,
    options: "SolverOptions | None" = None,
) -> GeometrySolution:
    """Find legal integer geometric vectors for one topology.

    ``target_x`` / ``target_y`` steer the least-squares objective; when omitted
    random targets are drawn (``Solving-R``).  Supplying geometry vectors from
    an existing pattern gives ``Solving-E``.  ``constraints`` may be a raw
    :class:`TopologyConstraints` (compiled here) or an already-compiled
    :class:`~repro.legalization.CompiledConstraints` (e.g. from the
    topology-hash cache), which skips recompilation across restart attempts
    and multi-solution solves.
    """
    if not isinstance(constraints, CompiledConstraints):
        constraints = compile_constraints(constraints, rules)
    outcome = solve_geometry_chunk(
        [constraints],
        rules,
        [as_rng(rng)],
        options,
        initial_targets=lambda _i, _rng: (target_x, target_y),
    )
    return outcome.solutions[0][0]


def solve_topology(
    topology: np.ndarray,
    rules: DesignRules,
    target_x: "np.ndarray | None" = None,
    target_y: "np.ndarray | None" = None,
    rng: "int | np.random.Generator | None" = None,
    options: "SolverOptions | None" = None,
) -> GeometrySolution:
    """Convenience wrapper: extract constraints from ``topology`` and solve."""
    constraints = extract_constraints(topology, rules.width_min, rules.space_min)
    return solve_geometry(
        constraints, rules, target_x=target_x, target_y=target_y, rng=rng, options=options
    )
