"""Seeded, counter-based random streams for reproducible simulation.

All stochastic code in the package draws from Philox streams derived from a
single user-supplied seed. Trials are partitioned into fixed-size blocks,
each backed by its own substream, so aggregate results do not depend on how
blocks are scheduled or ordered.

``reduce_blocks`` is the one Monte Carlo loop. It scores the blocks on every
available core, and its integer sums are bit-identical for any core count.
So a ``score`` function, and the rules and sampling models it calls, may run
on several blocks at once and must not mutate shared state.
"""

from __future__ import annotations

import os
import threading
from collections.abc import Callable, Iterator

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


def _cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def reduce_blocks(seed: int, n_trials: int,
                  score: Callable[[np.random.Generator, int], np.ndarray]):
    """The sum of ``score(generator, length)`` over ``blocks(seed, n_trials)``.

    ``min(cores, blocks)`` threads, the calling one included, take block
    indices from one counter, so a single block runs inline. The calling
    thread makes every generator first, at about 12 µs each; the others
    only draw and score, where numpy releases the interpreter lock. The
    integer counts are summed in block order. ``np.errstate`` does not
    cross into a new thread: ``score`` enters any it needs.

    Raises:
        Exception: the lowest-index failure, as the sequential loop raises
            it. After a failure no thread takes a block, and every thread
            has ended when this returns.
    """
    work = list(blocks(seed, n_trials))
    results: list = [None] * len(work)
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()
    order = iter(range(len(work)))

    def drain():
        while True:
            with lock:
                i = None if failures else next(order, None)
            if i is None:
                return
            try:
                results[i] = score(*work[i])
            except BaseException as exc:  # re-raised by the calling thread
                with lock:
                    failures[i] = exc
                return

    helpers = [threading.Thread(target=drain) for _ in range(min(_cores(), len(work)) - 1)]
    for thread in helpers:
        thread.start()
    try:
        drain()
    finally:
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return sum(results[1:], results[0])
