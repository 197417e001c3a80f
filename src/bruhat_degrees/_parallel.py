"""Tiny helper for order-preserving parallel map over picklable blocks.

``concurrent.futures`` is imported only when a pool starts, so a caller
whose work is one block, or runs at one job, never loads it.
"""
from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

A = TypeVar("A")
B = TypeVar("B")


def default_jobs() -> int:
    """The number of CPUs this process may run on: its affinity set where the
    platform reports one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def block_sizes(total: int, size: int) -> list[int]:
    """Sizes of the consecutive blocks that split total items into runs of
    at most size; only the last block may be smaller."""
    full, rest = divmod(max(total, 0), size)
    return [size] * full + ([rest] if rest else [])


def map_blocks(fn: Callable[[A], B], blocks: Sequence[A], jobs: int | None) -> list[B]:
    """Apply fn to each block; results come back in block order regardless of
    scheduling, so any downstream reduction is deterministic."""
    jobs = default_jobs() if jobs is None else max(1, jobs)
    if jobs == 1 or len(blocks) <= 1:
        return [fn(block) for block in blocks]
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=min(jobs, len(blocks))) as pool:
        return list(pool.map(fn, blocks))
