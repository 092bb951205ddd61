"""One topology legalized alone: a chunk of one through ``solve_geometry_chunk``.

The legalization engine solves its chunks with
:func:`repro.legalization.solve_geometry_chunk`, and a topology's solutions
must not depend on the chunk around it.  These helpers call the chunk solve
directly on a single topology, which is the reference the engine's chunked,
pooled and warm-started output is compared with.
"""

import numpy as np

from repro.legalization import (
    CompiledConstraints,
    LegalizedTopology,
    ReferenceIndex,
    compiled_for_topology,
    solve_geometry_chunk,
)
from repro.squish import SquishPattern
from repro.utils import as_rng, child_rng


def solve_alone(topology, rules, rng=None, options=None, target_x=None, target_y=None):
    """The single solution of one topology (a grid or its compiled constraints).

    ``target_x`` / ``target_y`` steer the first attempt (``Solving-E``);
    when omitted the targets are drawn from ``rng`` (``Solving-R``).
    """
    if not isinstance(topology, CompiledConstraints):
        topology = compiled_for_topology(topology, rules)
    outcome = solve_geometry_chunk(
        [topology],
        rules,
        [as_rng(rng)],
        options,
        initial_targets=lambda _i, _rng: (target_x, target_y),
    )
    return outcome.solutions[0][0]


def legalize_alone(topologies, rules, seed, num_solutions=1, options=None, references=None):
    """Each topology legalized alone on its ``(seed, index)`` stream and
    warm-started from ``references`` the way the engine picks them: the
    results every engine call must reproduce element-wise."""
    index = ReferenceIndex(references)
    results = []
    for position, topology in enumerate(topologies):
        compiled = compiled_for_topology(topology, rules)
        outcome = solve_geometry_chunk(
            [compiled],
            rules,
            [child_rng(seed, position)],
            options,
            num_solutions=num_solutions,
            initial_targets=lambda _i, gen: index.pick(compiled.shape, gen),
        )
        result = LegalizedTopology(topology=np.asarray(topology, dtype=np.uint8))
        for solution in outcome.solutions[0]:
            if solution.success:
                result.solutions.append(solution)
                result.patterns.append(
                    SquishPattern(result.topology, solution.delta_x, solution.delta_y)
                )
        results.append(result)
    return results
