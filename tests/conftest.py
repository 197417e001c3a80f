import itertools
from collections import deque
from functools import lru_cache

import pytest

from bruhat_degrees.perm import Permutation


def all_perms(n):
    for vals in itertools.permutations(range(1, n + 1)):
        yield Permutation(vals)


def shuffled(n, rng):
    """A uniform permutation of S_n, drawn by rng.shuffle (rng a random.Random)."""
    vals = list(range(1, n + 1))
    rng.shuffle(vals)
    return Permutation(vals)


@lru_cache(maxsize=None)
def bfs_coxeter_lengths(n):
    """Distance from the identity in the Cayley graph of the adjacent
    transpositions: the Coxeter length, computed without inversion counts."""
    start = tuple(range(1, n + 1))
    dist = {start: 0}
    queue = deque([start])
    while queue:
        w = queue.popleft()
        for i in range(n - 1):
            nxt = list(w)
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = dist[w] + 1
                queue.append(nxt)
    return dist


@pytest.fixture(scope="session")
def length_oracle():
    return bfs_coxeter_lengths
