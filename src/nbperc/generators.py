"""Deterministic graph families used by tests, experiments, and the CLI.

Undirected families are symmetrized: every undirected edge becomes two
opposite arcs, matching the mapping from undirected to directed site
percolation used throughout.
"""
from __future__ import annotations

import heapq

import numpy as np

from .errors import GraphStructureError
from .graph import DiGraph


def _sym(n, u, v):
    """Graph on n vertices with arcs u[i] -> v[i] and v[i] -> u[i], in that
    order, for each edge i in turn."""
    return DiGraph.from_arrays(n, np.stack([u, v], 1).ravel(), np.stack([v, u], 1).ravel())


def gen_cycle(n):
    """Directed n-cycle, n >= 3."""
    if n < 3:
        raise GraphStructureError(f"cycle needs n >= 3, got {n}")
    ids = np.arange(n)
    return DiGraph.from_arrays(n, ids, (ids + 1) % n)


def gen_complete_sym(n):
    """Complete graph on n vertices, both arc directions."""
    if n < 2:
        raise GraphStructureError(f"complete graph needs n >= 2, got {n}")
    tails, heads = np.divmod(np.arange(n * n), n)
    off = tails != heads
    return DiGraph.from_arrays(n, tails[off], heads[off])


def gen_path_sym(n):
    """Path on n vertices, symmetrized."""
    if n < 1:
        raise GraphStructureError(f"path needs n >= 1, got {n}")
    ids = np.arange(n - 1)
    return _sym(n, ids, ids + 1)


def gen_star_sym(k):
    """Star with center 0 and k leaves, symmetrized (2k arcs)."""
    if k < 1:
        raise GraphStructureError(f"star needs k >= 1 leaves, got {k}")
    return _sym(k + 1, np.zeros(k, dtype=np.int64), np.arange(1, k + 1))


def gen_random_regular_sym(n, d, seed):
    """Random d-regular graph by configuration-model pairing, symmetrized.

    Pairings producing self-loops or multi-edges are rejected wholesale
    and redrawn, so the accepted graph is uniform over simple d-regular
    graphs and exactly reproducible per seed.
    """
    if d >= n:
        raise GraphStructureError(f"need d < n, got d={d}, n={n}")
    if d < 1:
        raise GraphStructureError(f"need d >= 1, got d={d}")
    if (n * d) % 2 != 0:
        raise GraphStructureError(f"n*d must be even, got n={n}, d={d}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    stubs = np.repeat(np.arange(n, dtype=np.int64), d)
    for _ in range(20000):
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        if np.any(u == v):
            continue
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        key = lo * n + hi
        if len(np.unique(key)) != len(key):
            continue
        order = np.argsort(key, kind="stable")
        return _sym(n, lo[order], hi[order])
    raise GraphStructureError(
        f"no simple pairing found in 20000 attempts (n={n}, d={d})"
    )


def gen_erdos_renyi_digraph(n, arc_prob, seed):
    """Each ordered pair (u, v), u != v, is an arc independently with
    probability arc_prob."""
    if not 0.0 <= arc_prob <= 1.0:
        raise GraphStructureError(f"arc_prob {arc_prob} outside [0,1]")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    # The draws of a block of rows at a time, about 2 MB: Generator.random
    # fills row by row, so the blocks draw the same uniforms as one n x n
    # call, and the arcs come out in the same row-major order.
    rows = max(1, (1 << 18) // max(n, 1))
    keys = [np.zeros(0, dtype=np.int64)]
    for r0 in range(0, n, rows):
        mask = rng.random((min(rows, n - r0), n)) < arc_prob
        keys.append(np.flatnonzero(mask) + r0 * n)
    tails, heads = np.divmod(np.concatenate(keys), max(n, 1))
    loop = tails == heads
    return DiGraph.from_arrays(n, tails[~loop], heads[~loop])


def gen_random_tree_sym(n, seed):
    """Uniform random labeled tree via Pruefer decoding, symmetrized."""
    if n < 1:
        raise GraphStructureError(f"tree needs n >= 1, got {n}")
    if n == 1:
        return DiGraph(1, [])
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    seq = rng.integers(0, n, size=n - 2)
    degree = np.bincount(seq, minlength=n) + 1
    leaves = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaves)
    # Edge i joins the i-th leaf taken to seq[i]; the last two leaves
    # left make the final edge.
    taken = []
    for v in seq.tolist():
        taken.append(heapq.heappop(leaves))
        degree[v] -= 1
        if degree[v] == 1:
            heapq.heappush(leaves, v)
    taken.append(heapq.heappop(leaves))
    return _sym(n, taken, seq.tolist() + [heapq.heappop(leaves)])
