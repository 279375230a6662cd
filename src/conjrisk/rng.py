"""Seeded, counter-based random streams for reproducible simulation.

All stochastic code in the package draws from Philox streams derived from a
single user-supplied seed. Trials are partitioned into fixed-size blocks,
each backed by its own substream, so aggregate results do not depend on how
blocks are scheduled or ordered.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from .errors import InputValidationError

#: Trials per substream block. Fixed so results are partition-independent.
BLOCK_SIZE = 65536


def validate_seed(seed: int | None) -> int:
    if seed is None:
        raise InputValidationError("a seed is required for stochastic computations")
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool):
        raise InputValidationError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise InputValidationError(f"seed must be non-negative, got {seed}")
    return int(seed)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Philox generator for substream ``index`` of ``seed``."""
    seq = np.random.SeedSequence(validate_seed(seed), spawn_key=(index,))
    return np.random.Generator(np.random.Philox(seq))


def blocks(seed: int, n_trials: int) -> Iterator[tuple[np.random.Generator, int]]:
    """Yield ``(generator, block_length)`` pairs covering ``n_trials`` trials.

    Block ``i`` always maps to substream ``i`` of ``seed`` regardless of the
    total trial count, so partial runs and full runs agree on shared blocks.
    """
    if n_trials <= 0:
        raise InputValidationError(f"n_trials must be positive, got {n_trials}")
    index = 0
    remaining = n_trials
    while remaining > 0:
        length = min(BLOCK_SIZE, remaining)
        yield stream(seed, index), length
        index += 1
        remaining -= length
