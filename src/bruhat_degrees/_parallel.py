"""Order-preserving parallel work over picklable blocks.

``map_blocks`` applies one function to a list of blocks and returns the
results in block order.  It is built on ``process_pool``, which a caller can
also use directly to keep one pool busy with the blocks of several functions
while it does other work, reading each future when it needs the result
(``verification.run_all`` at jobs > 1).  A pool starts blocks in the order
they were submitted.

``concurrent.futures`` is imported only when a pool starts, so a caller
whose work is one block, or runs at one job, never loads it.  Open pools and
submit to them from the main thread only, one pool at a time: a fork pool
forks all of its workers on the first submit, before its manager thread
starts, and a fork made while another thread runs may copy a lock that
thread holds.
"""
from __future__ import annotations

import contextlib
import os
from typing import Any, Callable, Iterator, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")


def default_jobs() -> int:
    """The number of CPUs this process may run on: its affinity set where the
    platform reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def resolve_jobs(jobs: int | None) -> int:
    """The worker count that a --jobs value asks for: None means every CPU
    this process may run on; a count that is no int, or is below 1, is refused."""
    if jobs is None:
        return default_jobs()
    if type(jobs) is not int:
        raise ValueError(f"--jobs must be an integer, got {jobs!r}")
    if jobs < 1:
        raise ValueError(f"--jobs must be >= 1, got {jobs}")
    return jobs


def block_sizes(total: int, size: int) -> list[int]:
    """Sizes of the consecutive blocks that split total items into runs of
    at most size; only the last block may be smaller."""
    full, rest = divmod(max(total, 0), size)
    return [size] * full + ([rest] if rest else [])


@contextlib.contextmanager
def process_pool(workers: int) -> Iterator[Any]:
    """A pool of worker processes, shut down however the block ends: blocks
    not yet started are cancelled and running ones are waited for.  Workers
    fork where the platform can, whatever its default (forkserver on Linux
    from Python 3.14): callers' preloads, such as numpy.random, and the forks
    at the first submit, before the pool starts a thread, both assume fork."""
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
    pool = ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context(method))
    try:
        yield pool
    finally:
        pool.shutdown(cancel_futures=True)


def map_blocks(fn: Callable[[A], B], blocks: Sequence[A], jobs: int | None) -> list[B]:
    """Apply fn to each block; results come back in block order regardless of
    scheduling, so any downstream reduction is deterministic."""
    jobs = resolve_jobs(jobs)
    if jobs == 1 or len(blocks) <= 1:
        return [fn(block) for block in blocks]
    with process_pool(min(jobs, len(blocks))) as pool:
        futures = [pool.submit(fn, block) for block in blocks]
        return [future.result() for future in futures]
