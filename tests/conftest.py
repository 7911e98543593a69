"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the production code paths: dense
eigensolves go through numpy, the non-backtracking matrix and the
oriented line graph through the rule on every pair of arcs, reachability
through boolean closure, walk
counts through explicit enumeration over arc sequences, out-component
probabilities through one capped depth-first search per trial (and,
on small graphs, exactly from every open set, and on at most 10
vertices by one breadth-first search per open set), sweep
statistics through one strong-component solve per grid point, and robust
strong connectivity through one strong-component solve per symmetric arc.
"""
from collections import deque
from fractions import Fraction

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from nbperc import DiGraph, gen_complete_sym, gen_cycle, gen_path_sym, gen_star_sym
from nbperc.graph import _scc_labels, _symmetric_arcs, is_strongly_connected
from nbperc.percolation import STAT_NAMES, _reach_counts, sample_open_set, trial_rng


@pytest.fixture
def c3():
    return gen_cycle(3)


@pytest.fixture
def p3sym():
    return gen_path_sym(3)


@pytest.fixture
def k4sym():
    return gen_complete_sym(4)


@pytest.fixture
def star3sym():
    return gen_star_sym(3)


@pytest.fixture
def chord():
    # Directed triangle plus the chord arc 0->2 paired with 2->0.
    return DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)])


def arc_pairs(g):
    """(tail, head) per arc, in arc-id order, read from the arc arrays."""
    return list(zip(g.tails.tolist(), g.heads.tolist()))


def grid_edge_text(side):
    """Edge list of the side x side grid that lists every horizontal edge
    before any vertical one.  Read with --undirected, an interior vertex
    gets its in-arcs from its left, right, upper and lower neighbours in
    that arc order, which is not tail order."""
    ids = np.arange(side * side).reshape(side, side)
    pairs = [(ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])]
    return "".join(f"{u} {v}\n" for a, b in pairs
                   for u, v in zip(a.ravel().tolist(), b.ravel().tolist()))


def dense_hashimoto(g):
    """Dense 0/1 non-backtracking matrix built straight from the rule."""
    m = g.n_arcs
    mat = np.zeros((m, m))
    arcs = arc_pairs(g)
    for u, (i, j) in enumerate(arcs):
        for v, (jp, l) in enumerate(arcs):
            if jp == j and l != i:
                mat[u, v] = 1.0
    return mat


def build_olg(g):
    """Oriented line graph straight from the rule: one vertex per arc of g
    and an arc u -> v for every arc v that may follow arc u."""
    arcs = arc_pairs(g)
    return DiGraph(len(arcs), [(u, v) for u, (i, j) in enumerate(arcs)
                               for v, (jp, l) in enumerate(arcs) if jp == j and l != i])


def operator_pairs(g, operator):
    """(dim, src, dst) of operator "A" or "H" of g: its pairs src -> dst in
    the order its products sum them, A's arcs in arc order and H's
    transitions as the arcs of build_olg(g), by u, then by v."""
    if operator == "A":
        return g.n, g.tails, g.heads
    olg = build_olg(g)
    return olg.n, olg.tails, olg.heads


def dense_adjacency(g):
    mat = np.zeros((g.n, g.n))
    for t, h in arc_pairs(g):
        mat[t, h] = 1.0
    return mat


def dense_rho(mat):
    if mat.size == 0:
        return 0.0
    return float(np.max(np.abs(np.linalg.eigvals(mat))))


def reachability_closure(g):
    """Boolean transitive closure (with self-reachability)."""
    reach = np.eye(g.n, dtype=bool)
    for t, h in arc_pairs(g):
        reach[t, h] = True
    for _ in range(g.n):
        new = reach | (reach @ reach)
        if (new == reach).all():
            break
        reach = new
    return reach


def brute_scc_partition(g):
    """SCC partition via mutual reachability; frozen sets for comparison."""
    reach = reachability_closure(g)
    mutual = reach & reach.T
    return {frozenset(np.flatnonzero(mutual[v]).tolist()) for v in range(g.n)}


def brute_closed_nb_walks(g, s):
    """Count closed non-backtracking walks of length s by enumerating arc
    sequences directly from the graph (no operator involved)."""
    arcs = arc_pairs(g)
    m = len(arcs)

    def count_from(start, current, steps):
        if steps == 0:
            return 1 if current == start else 0
        ci, cj = arcs[current]
        total = 0
        for nxt in range(m):
            ni, nj = arcs[nxt]
            if ni == cj and nj != ci:
                total += count_from(start, nxt, steps - 1)
        return total

    return sum(count_from(e, e, s) for e in range(m))


def brute_robust(g):
    """is_robustly_strongly_connected by deleting each member of every
    symmetric pair in turn and re-solving the whole graph."""
    if not is_strongly_connected(g):
        return False
    for drop in np.concatenate(_symmetric_arcs(g)).tolist():
        keep = np.ones(g.n_arcs, dtype=bool)
        keep[drop] = False
        ncomp, _ = _scc_labels(g.n, g.tails[keep], g.heads[keep])
        if ncomp != 1:
            return False
    return True


def capped_dfs_out_prob(g, v, p, m_max, trials, seed):
    """(p_hat, stderr) of estimate_out_prob, by one depth-first search per
    trial that stops once m_max open vertices are reached.

    All trials are drawn in one block: Generator.random fills row by row,
    so this is the same stream estimate_out_prob draws in blocks.
    """
    opens = trial_rng(seed, v).random((trials, g.n)) < p
    heads, ptr = g.heads[g.out_order], g.out_ptr
    size_hist = np.zeros(m_max + 1, dtype=np.int64)  # index: capped reach size
    for row in opens:
        if not row[v]:
            size_hist[0] += 1
            continue
        seen = {v}
        stack = [v]
        count = 1
        while stack and count < m_max:
            u = stack.pop()
            for w in heads[ptr[u]:ptr[u + 1]].tolist():
                if w not in seen and row[w]:
                    seen.add(w)
                    count += 1
                    if count >= m_max:
                        break
                    stack.append(w)
        size_hist[count] += 1
    at_least = np.cumsum(size_hist[::-1])[::-1]
    p_hat = at_least[1:] / trials
    return p_hat, np.sqrt(p_hat * (1.0 - p_hat) / trials)


def exact_out_prob(g, v, p, m_max):
    """The P_m that estimate_out_prob estimates, m = 1..m_max, exactly on
    a graph of at most VERTEX_CAP vertices: the sum of c[k, r] p^k
    (1-p)^(n-k) over k and r >= m, with c from _reach_counts."""
    k = np.arange(g.n + 1)
    per_reach = (p ** k * (1.0 - p) ** (g.n - k)) @ _reach_counts(g, v)  # index: r
    return np.array([per_reach[m:].sum() for m in range(1, m_max + 1)])


def brute_reach_counts(g, v):
    """c[k][r], as percolation._reach_counts counts it, on at most 10
    vertices: one breadth-first search over the open vertices per open set
    that holds v, along the arc list."""
    n = g.n
    assert n <= 10
    succ = [[] for _ in range(n)]
    for t, h in arc_pairs(g):
        succ[t].append(h)
    counts = [[0] * (n + 1) for _ in range(n + 1)]
    for word in range(1 << n):
        if not word >> v & 1:
            continue
        seen = {v}
        queue = deque([v])
        while queue:
            for w in succ[queue.popleft()]:
                if word >> w & 1 and w not in seen:
                    seen.add(w)
                    queue.append(w)
        counts[bin(word).count("1")][len(seen)] += 1
    return counts


def fraction_out_prob(counts, p, m):
    """P(v open and >= m open vertices reachable from v) at the float p,
    exactly, from the counts of brute_reach_counts: a Fraction sum of
    p^k (1-p)^(n-k) over the open sets."""
    p = Fraction(p)
    n = len(counts) - 1
    return sum(c * p ** k * (1 - p) ** (n - k)
               for k, row in enumerate(counts) for r, c in enumerate(row) if r >= m)


def per_point_sweep_stats(g, config):
    """sweep(g, config).stats, measuring one grid point at a time: one
    strong-component solve of the open induced subgraph, and one
    depth-first search per condensation source for the reach masses."""
    stats = {name: np.zeros((len(config.p_grid), config.trials), dtype=np.int64)
             for name in STAT_NAMES}
    for t in range(config.trials):
        draws = trial_rng(config.master_seed, t).random(g.n)
        for i, p in enumerate(config.p_grid):
            if config.coupled:
                mask = draws < p
            else:
                mask = sample_open_set(g.n, p, trial_rng(config.master_seed, i, t))
            row = _point_stats(g, mask, config.giant_fraction)
            for name, value in zip(STAT_NAMES, row):
                stats[name][i, t] = value
    return stats


def _point_stats(g, mask, giant_fraction):
    k = int(mask.sum())
    if k == 0:
        return 0, 0, 0, 0, 0
    new_id = np.cumsum(mask) - 1
    keep = mask[g.tails] & mask[g.heads]
    t2, h2 = new_id[g.tails[keep]], new_id[g.heads[keep]]
    adj = csr_matrix((np.ones(len(t2)), (t2, h2)), shape=(k, k))
    ncomp, labels = connected_components(adj, directed=True, connection="strong")
    sizes = np.bincount(labels, minlength=ncomp)
    top = sorted(sizes.tolist())
    largest, second = top[-1], (top[-2] if ncomp > 1 else 0)
    giant = int((sizes > giant_fraction * g.n).sum())
    succ = [set() for _ in range(ncomp)]
    pred = [set() for _ in range(ncomp)]
    for a, b in zip(labels[t2].tolist(), labels[h2].tolist()):
        if a != b:
            succ[a].add(b)
            pred[b].add(a)
    return (largest, second, _max_reach(succ, pred, sizes),
            _max_reach(pred, succ, sizes), giant)


def _max_reach(succ, pred, sizes):
    """Largest vertex mass reachable from one condensation node, searched
    from every node with no predecessor."""
    best = 0
    for s in range(len(succ)):
        if pred[s]:
            continue
        seen = {s}
        stack = [s]
        while stack:
            for b in succ[stack.pop()]:
                if b not in seen:
                    seen.add(b)
                    stack.append(b)
        best = max(best, int(sizes[list(seen)].sum()))
    return best
