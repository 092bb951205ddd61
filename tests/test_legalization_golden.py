"""Golden legalization record: pinned outcomes of fixed topologies and seeds.

Every other legalization test compares two paths of the same code (chunk 1
against chunk 7, one worker against two), so a kernel change that moves
every path at once would pass them all.  This file pins the outcome itself:
for three rule sets and both solver modes it hashes a canonical record of
three runs and compares each with a digest committed below:

* ``solve_geometry/*`` — ``solve_geometry_chunk`` on one topology per chunk,
  each on its own ``np.random.default_rng(seed)``;
* ``legalize_topology/*`` — the same one-topology chunks threading one
  shared generator, warm-started by ``ReferenceIndex.pick``;
* ``engine/*`` — ``LegalizationEngine.legalize_batch`` at several chunk
  sizes.

The first two keys name the single-topology front ends the records were
first computed with.

Only fields the BLAS thread count cannot move are pinned.  The continuous
SLSQP iterate depends on it (``OPENBLAS_NUM_THREADS=1`` against two threads
changes the rounded geometry of a few percent of SLSQP solutions, their
iteration counts and the float objective), so the record keeps, per
solution slot, ``success``, ``method`` and ``attempts``; the integer deltas
of ``method == "repair"`` solutions only; and the run's
``attempted``/``solved``/``failed``/``solutions``/``fast_path_solutions``
counters.  CI runs this file under both thread settings.

A failing case prints the new digest.  A deliberate change to legalization
output updates the matching entry of ``GOLDEN`` in the same commit, so the
diff shows in review.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.legalization import (
    LARGER_SPACE_RULES,
    SMALLER_AREA_RULES,
    DesignRules,
    LegalizationEngine,
    ReferenceIndex,
    compiled_for_topology,
    solve_geometry_chunk,
)

RULES = {
    "normal": DesignRules(),
    "larger-space": LARGER_SPACE_RULES,
    "smaller-area": SMALLER_AREA_RULES,
}
MODES = ("auto", "slsqp")


def _grid(picture: str) -> np.ndarray:
    rows = picture.split()
    return np.array([[ch == "#" for ch in row] for row in rows], dtype=np.uint8)


#: Mixed shapes and polygon sizes.  Small polygons on a fine grid pass the
#: repair projection or its area-lift rounds under the normal and
#: larger-space rules, larger ones and the smaller-area rules push solutions
#: into the SLSQP tail, and the all-ones window's single polygon exceeds
#: every ``area_max`` (unsolvable: every slot fails after ``max_attempts``
#: restarts).
TOPOLOGIES = [
    _grid(
        """
        ............
        .#...##..#..
        .#.......#..
        ............
        ....#....##.
        ............
        .##...#.....
        ......#..#..
        ............
        .#..##......
        .#.......#..
        ............
        """
    ),
    _grid(
        """
        ........
        .###....
        .###....
        .###....
        ........
        ..#####.
        ..#####.
        ........
        """
    ),
    _grid(
        """
        ..........
        .##.......
        .##.......
        .#####....
        ..........
        ......##..
        .#....##..
        .#........
        ..........
        ..........
        """
    ),
    _grid(
        """
        ......
        .#.#..
        .#.#..
        ......
        ....#.
        .##.#.
        ......
        .#..#.
        .#....
        ......
        """
    ),
    _grid(
        """
        .........
        .#.......
        ..#......
        ...#.....
        ....#....
        .....#...
        ......#..
        .......#.
        .........
        """
    ),
    np.ones((1, 1), dtype=np.uint8),
]


def _references(rules: DesignRules) -> list[tuple[np.ndarray, np.ndarray]]:
    """Warm-start geometries for the 12x12, 10x6 and 8x8 topologies."""
    rng = np.random.default_rng(5)
    total = rules.pattern_size
    return [
        (rng.dirichlet(np.full(cols, 2.0)) * total, rng.dirichlet(np.full(rows, 2.0)) * total)
        for rows, cols in ((12, 12), (10, 6), (12, 12), (8, 8))
    ]


def _slot(solution) -> list:
    record = [bool(solution.success), solution.method, int(solution.attempts)]
    if solution.success and solution.method == "repair":
        record += [solution.delta_x.tolist(), solution.delta_y.tolist()]
    return record


def _stats(stats) -> list[int]:
    return [
        stats.attempted,
        stats.solved,
        stats.failed,
        stats.solutions,
        stats.fast_path_solutions,
    ]


def _slot_stats(slots) -> list[int]:
    """:func:`_stats` of a run given as per-topology solution slot lists."""
    solved = sum(any(s.success for s in topology_slots) for topology_slots in slots)
    successes = [s for topology_slots in slots for s in topology_slots if s.success]
    return [
        len(slots),
        solved,
        len(slots) - solved,
        len(successes),
        sum(s.method == "repair" for s in successes),
    ]


def _digest(record) -> str:
    return hashlib.sha256(json.dumps(record, separators=(",", ":")).encode()).hexdigest()


def _check(key: str, record) -> None:
    digest = _digest(record)
    assert digest == GOLDEN[key], f"golden record {key!r} changed; new digest {digest}"


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rules_name", list(RULES))
def test_solve_geometry(rules_name, mode):
    rules = RULES[rules_name]
    record = []
    for seed, topology in enumerate(TOPOLOGIES):
        outcome = solve_geometry_chunk(
            [compiled_for_topology(topology, rules)],
            rules,
            [np.random.default_rng(seed)],
            mode,
        )
        record.append(_slot(outcome.solutions[0][0]))
    _check(f"solve_geometry/{rules_name}/{mode}", record)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rules_name", list(RULES))
def test_legalize_topology_shared_generator(rules_name, mode):
    rules = RULES[rules_name]
    record = []
    for references in (None, _references(rules)):
        index = ReferenceIndex(references)
        for num_solutions in (1, 3):
            gen = np.random.default_rng(11)
            slots = []
            for topology in TOPOLOGIES:
                compiled = compiled_for_topology(topology, rules)
                outcome = solve_geometry_chunk(
                    [compiled],
                    rules,
                    [gen],
                    mode,
                    num_solutions=num_solutions,
                    initial_targets=lambda _i, rng: index.pick(compiled.shape, rng),
                )
                slots.append(outcome.solutions[0])
            # A topology's record keeps its successful solutions only.
            solved = [[_slot(s) for s in topology_slots if s.success] for topology_slots in slots]
            record.append([solved, _slot_stats(slots)])
    _check(f"legalize_topology/{rules_name}/{mode}", record)


@pytest.mark.parametrize("chunk", [1, 7, None])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("rules_name", list(RULES))
def test_engine_legalize_batch(rules_name, mode, chunk):
    rules = RULES[rules_name]
    # Twelve topologies (each twice), so chunk 7 splits the batch.
    batch = TOPOLOGIES + TOPOLOGIES
    engine = LegalizationEngine(
        rules,
        reference_geometries=_references(rules),
        solver_mode=mode,
        workers=1,
        chunk_size=chunk if chunk is not None else len(batch),
    )
    results = engine.legalize_batch(batch, num_solutions=2, seed=3)
    record = [[_slot(s) for s in result.solutions] for result in results]
    record.append(_stats(engine.stats))
    _check(f"engine/{rules_name}/{mode}", record)


#: Recorded while the per-topology serial solver and the whole-chunk solve
#: both existed and agreed bit for bit, identical under one and two BLAS
#: threads.  The four ``auto`` entries of the normal and larger-space rules
#: that are not ``solve_geometry/*`` were re-recorded when the repair sweep
#: gained its area-lift rounds: slots the SLSQP tail used to solve now lift
#: in numpy, which skips those slots' restart draws.
GOLDEN = {
    "solve_geometry/normal/auto": "490d6b3186e17089a74b1affdce86a52bb4548426cf2ee20c4fb5145549f0443",
    "solve_geometry/normal/slsqp": "1c7a65c1f471d3fdd8b6dfb196d55da4ee5fd51bd1eb1b368f2630c4d3ca1a1f",
    "solve_geometry/larger-space/auto": "abd68c18eead9a957ee0a1e3ddeca6ca2831bd8eb8dffb833abbf504ce59249b",
    "solve_geometry/larger-space/slsqp": "1c7a65c1f471d3fdd8b6dfb196d55da4ee5fd51bd1eb1b368f2630c4d3ca1a1f",
    "solve_geometry/smaller-area/auto": "1c7a65c1f471d3fdd8b6dfb196d55da4ee5fd51bd1eb1b368f2630c4d3ca1a1f",
    "solve_geometry/smaller-area/slsqp": "1c7a65c1f471d3fdd8b6dfb196d55da4ee5fd51bd1eb1b368f2630c4d3ca1a1f",
    "legalize_topology/normal/auto": "b1d032dc8fe361cefff12998786e4baf825e055d3ec0331adb506f154e18c301",
    "legalize_topology/normal/slsqp": "4ad1048f89955666e297e5517a4ca82c1d059e90dd1bf24d30ac99b2e177de56",
    "legalize_topology/larger-space/auto": "b8ed4cdbc7b85090c72121d9b92439e96c83724d17c7e96a6157c006b20e95bc",
    "legalize_topology/larger-space/slsqp": "4ad1048f89955666e297e5517a4ca82c1d059e90dd1bf24d30ac99b2e177de56",
    "legalize_topology/smaller-area/auto": "16891b78d383f13ace0bbc98303dc304d02019be31fe31b5aa055f1c8795fbdd",
    "legalize_topology/smaller-area/slsqp": "4ad1048f89955666e297e5517a4ca82c1d059e90dd1bf24d30ac99b2e177de56",
    "engine/normal/auto": "6a333c9a45f0e859f211853a16754f20543806140fbe9913737d5f90e926ddaa",
    "engine/normal/slsqp": "d2ae0297e52b61d8d3bfdcc62390e2f177e63fad574d303295b8d83636a98967",
    "engine/larger-space/auto": "5abf2f3eeb932f37e4d909d1a598fd1242e7929247a91431a0937c9fc94001f8",
    "engine/larger-space/slsqp": "d2ae0297e52b61d8d3bfdcc62390e2f177e63fad574d303295b8d83636a98967",
    "engine/smaller-area/auto": "c77eeabc0ccfccf4bb38167e0644721045aa7d2eb1915dfc5e7a0bdf68ff4832",
    "engine/smaller-area/slsqp": "d2ae0297e52b61d8d3bfdcc62390e2f177e63fad574d303295b8d83636a98967",
}
