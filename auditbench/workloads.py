"""Benchmark workloads and the seeded config generator.

`bundled` replays the six shipped scenarios with the benchmark seed as the
seed override, exactly as `chronolab all --seed N` does.  `dense_grid` and
`wide_clock` are generated: the seed draws distinct integer grid
frequencies, the generator writes an `explicit-matrix` config in the public
config grammar, and chronolab sees only that text through `parse_config`.

The two generated workloads share the extended dimension n * M = 1024 but
load it differently: `dense_grid` is level-heavy (16 levels on 64 clock
bins, all five quantum suites, so dense H_ex work dominates), `wide_clock`
is clock-heavy (2 levels on 512 bins, POVM suites only, so the O(M^2)
PM-defect loop dominates).  A POVM change should move only `wide_clock`; a
dense-path change moves both, in proportion to their `eigh` counts.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

WORKLOADS = ("bundled", "dense_grid", "wide_clock")

QUANTUM_SUITES = ("quantum-equivalence", "constraint-solve", "povm-audit",
                  "time-distribution", "covariance")
POVM_SUITES = ("povm-audit", "time-distribution")

DELTA_T = 0.25
# The config grammar and numpy's seeding both want a non-negative seed.
SEED_MODULUS = 2 ** 31


@dataclass(frozen=True)
class Grid:
    """A generated commensurate spectrum: n_levels distinct grid frequencies."""

    n_levels: int
    M: int
    suites: tuple


GRIDS = {
    "dense_grid": Grid(16, 64, QUANTUM_SUITES),
    "wide_clock": Grid(2, 512, POVM_SUITES),
}

# Reduced sizes for the self-test only: same suites, a fraction of the work.
TOY_GRIDS = {
    "dense_grid": Grid(4, 32, QUANTUM_SUITES),
    "wide_clock": Grid(2, 64, POVM_SUITES),
}


def grid_config_text(name: str, grid: Grid, seed: int) -> str:
    """Config text for `grid` with frequencies and sign drawn from `seed`.

    Each level sits exactly on -sigma * w_k for a distinct integer k kept
    off the grid edge, so every level is matched under either sign and the
    physical subspace has dimension n_levels.
    """
    seed %= SEED_MODULUS
    rng = random.Random(seed)
    ks = sorted(rng.sample(range(-grid.M // 2 + 1, grid.M // 2), grid.n_levels))
    sigma = rng.choice((1, -1))
    step = 2 * math.pi / (grid.M * DELTA_T)
    energies = ", ".join(repr(-sigma * k * step) for k in ks)
    return "\n".join((
        f"# {name}: {grid.n_levels} grid frequencies on M = {grid.M}, seed {seed}",
        f"scenario = {name}",
        f"suites = {', '.join(grid.suites)}",
        f"seed = {seed}",
        "system.kind = explicit-matrix",
        f"system.energies = {energies}",
        f"clock.M = {grid.M}",
        f"clock.deltaT = {DELTA_T!r}",
        f"clock.sigma = {sigma}",
        f"constraint.expected_dim = {grid.n_levels}",
    )) + "\n"


def load(chronolab, workload: str, seed: int, toy: bool = False):
    """Parsed configs of one pass and the seed override to run them with."""
    if workload == "bundled":
        return list(chronolab.bundled_scenarios()), seed % SEED_MODULUS
    grid = (TOY_GRIDS if toy else GRIDS)[workload]
    return [chronolab.parse_config(grid_config_text(workload, grid, seed))], None
