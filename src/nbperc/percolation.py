"""Seeded Monte-Carlo site percolation on digraphs.

Per-trial randomness comes from splittable seed streams derived from the
master seed and the trial (and grid) index, so results are bit-identical
however the trials are grouped into blocks.  The coupled sweep
mode draws one uniform per vertex per trial and reuses it across the whole
probability grid, which makes every component statistic monotone in p
within a trial and roughly halves threshold-location variance.

One kernel measures every sweep.  A coupled trial's open subgraphs nest
as p grows, so it walks its grid once in ascending p: each grid point
contracts the previous point's strong components to weighted nodes, adds
what opens, and solves that small graph.  A block of trials runs this pass
together, one strong-component solve per grid point.  An independent
trial's grid points are the rows of the same pass, each with its own draws
shifted by its p onto the one grid point 0, so a block of them is one
strong-component solve.  sweep runs both modes through one block loop;
measure_components is one row with every vertex open.  The largest out-
and in-component masses are those that the condensation's sources reach,
one SciPy breadth-first search per source.

A fully symmetric graph (every arc's reverse is an arc) has only
symmetric open subgraphs, whose strong components are their connected
components.  Its pass takes the arcs with tail < head and makes one
undirected solve per grid point; no arc joins two components, so none is
carried and no reach mass is searched: the largest out- and in-components
are the largest strong one.  The block size still counts every arc of
the graph, which keeps a block's rows, and the sweep's peak memory, those
of the strong pass.

Out-component probability estimates (simulate --roots, and bounds-check
above 16 vertices) count each trial's reach by one capped search that
advances a block of trials together.  bounds-check on at most 16
vertices samples nothing: _reach_counts grows the reach of each of the
root's open sets, held as 16-bit words, and counts the sets by size and
reach, which gives the probabilities exactly.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order
from scipy.sparse.csgraph import connected_components as _cc

from .errors import NoCrossingError
from .graph import _csr_pattern, _offsets

STAT_NAMES = ("largest_scc", "second_scc", "largest_out", "largest_in", "giant_count")

# Entries per block: the uniforms of one _out_probs draw, or the vertices
# and arcs of the rows of one _nested_stats pass: the trials of a coupled
# block or the grid points of an independent one.  Bounds their memory at
# a few MB whatever the grid, trial count and graph.
BLOCK_ENTRIES = 1 << 18
# The number of set bits of each byte value.
_BYTE_BITS = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint16)


@dataclass(frozen=True)
class PercolationConfig:
    p_grid: tuple
    trials: int
    master_seed: int
    giant_fraction: float = 0.01
    coupled: bool = True

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.giant_fraction < 1.0:
            raise ValueError(f"giant_fraction must lie in (0,1), got {self.giant_fraction}")
        for p in self.p_grid:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0,1]")


@dataclass(frozen=True)
class ComponentStats:
    largest_scc: int
    second_scc: int
    largest_out: int
    largest_in: int
    giant_count: int


@dataclass
class SweepResult:
    """Component statistics per (grid point, trial) plus per-p summaries."""

    p_grid: tuple
    n: int
    trials: int
    giant_fraction: float
    coupled: bool
    master_seed: int
    stats: dict = field(default_factory=dict)  # name -> (n_p, trials) int array
    means: dict = field(default_factory=dict)
    stderrs: dict = field(default_factory=dict)

    def finalize(self):
        for name, arr in self.stats.items():
            self.means[name] = arr.mean(axis=1)
            if self.trials > 1:
                self.stderrs[name] = arr.std(axis=1, ddof=1) / np.sqrt(self.trials)
            else:
                self.stderrs[name] = np.zeros(len(self.p_grid))
        return self


@dataclass
class OutProbEstimate:
    """P(v open and root of an out-component of size >= m), per m."""

    vertex: int
    p: float
    trials: int
    m_values: np.ndarray
    p_hat: np.ndarray
    stderr: np.ndarray


@dataclass
class MultiplicityProbe:
    """Observational second-to-largest cluster statistics per grid point."""

    p_grid: tuple
    n: int
    trials: int
    giant_fraction: float
    ratios: np.ndarray       # (n_p, trials): second_scc / largest_scc (0 when empty)
    giant_counts: np.ndarray  # (n_p, trials)


def trial_rng(master_seed, *key):
    """Deterministic per-trial generator: a stream split off the master seed."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def sample_open_set(n, p, rng):
    """Boolean open mask: each vertex open independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0,1]")
    return rng.random(n) < p


def _nested_stats(n, tails, heads, draws, grid, giant, symmetric):
    """Component statistics of a block of open subgraph sequences at every
    point of the ascending grid, in one pass.

    Row b of draws holds one uniform per vertex, and vertex v of row b is
    open at the grid points above draws[b, v]; the arcs, sorted by
    tail, are open where both ends are.  Within a row the open subgraphs
    nest as the grid point grows, and a strongly connected set stays so
    when vertices and arcs are added.  So each grid point solves a small
    graph: the previous point's strong components as nodes weighted by
    their sizes, the vertices that open at this point, the arcs that open
    with them, and the previous point's arcs between components, through
    which a new arc can close a cycle.  The rows' graphs form one disjoint
    union, with one strong-component solve per grid point.  A component
    is giant when it holds more than giant vertices.

    symmetric says the arcs are the tail < head halves of a graph whose
    every arc has its reverse (see _kernel_arcs).  Then each open subgraph
    is symmetric too: its strong components are the connected components
    of the halves, one undirected solve per grid point finds them, and no
    arc ever joins two of them, so none is carried.

    Returns a (len(draws), len(grid), len(STAT_NAMES)) int64 array, as
    _component_stats.
    """
    rows, k, m = len(draws), len(grid), len(tails)
    # The first grid index at which each vertex b * n + v and each arc
    # b * m + a is open (k: never): the number of grid points at or below
    # its draw.  A comparison per point runs a few times faster than
    # searchsorted's binary search on sweep grids, and the loop below
    # already spends a pass over the vertices per point.  A small int type
    # gets a radix sort from the stable argsorts.
    vstep = np.zeros(draws.shape, dtype=np.min_scalar_type(k))
    for p in grid:
        vstep += draws >= p
    astep = np.maximum(vstep.take(tails, axis=1), vstep.take(heads, axis=1)).ravel()
    v_by_step, v_ptr = _by_step(vstep.ravel(), k)
    a_by_step, a_ptr = _by_step(astep, k)
    del vstep, astep
    # The node of each open vertex, int32 as SciPy's component labels.
    node = np.zeros(rows * n, dtype=np.int32)
    sizes = node_row = np.zeros(0, dtype=np.int64)  # node_row: the node's row
    ct = ch = np.zeros(0, dtype=np.int32)  # the arcs between components
    stats = np.zeros((k, rows, len(STAT_NAMES)), dtype=np.int64)
    for i in range(k):
        new = v_by_step[v_ptr[i]:v_ptr[i + 1]]
        if len(new) == 0:  # nothing opens: the previous point again
            if i:
                stats[i] = stats[i - 1]
            continue
        old, nodes = len(sizes), len(sizes) + len(new)
        node[new] = np.arange(old, nodes)
        node_row = np.concatenate((node_row, new // n))
        opened = a_by_step[a_ptr[i]:a_ptr[i + 1]]
        row = opened // m  # floor division and a product: np.divmod is slower
        arc = opened - row * m
        row *= n
        t, h = node[row + tails[arc]], node[row + heads[arc]]
        if old:
            # Sorted keys give the CSR order.  Repeats are dropped: SciPy's
            # strong connected_components never returns on a CSR row that
            # holds a column twice.
            key = np.concatenate((ct, t)).astype(np.int64) * nodes + np.concatenate((ch, h))
            key.sort()
            key = key[np.diff(key, prepend=-1) != 0]
            t = key // nodes
            h = key - t * nodes
        # Else the new nodes are numbered in vertex order and the arcs come
        # by tail and then by head, without repeats: already the CSR order.
        contracted = csr_matrix((np.broadcast_to(1.0, len(h)), h, _offsets(t, nodes)),
                                shape=(nodes, nodes))
        ncomp, comp = _cc(contracted, directed=not symmetric, connection="strong")
        weights = np.concatenate((sizes, np.ones(len(new), dtype=np.int64)))
        sizes = np.bincount(comp, weights=weights, minlength=ncomp).astype(np.int64)
        comp_row = np.empty(ncomp, dtype=np.int64)
        comp_row[comp] = node_row
        node, node_row = comp[node], comp_row
        if not symmetric:
            ct, ch = comp[t], comp[h]
            cross = ct != ch
            ct, ch = ct[cross], ch[cross]
        stats[i] = _component_stats(rows, comp_row, sizes, ct, ch, giant)
    return stats.transpose(1, 0, 2)


def _by_step(step, k):
    """The entries with step below k, stably sorted by step, and the CSR
    pointer of that order over the k steps."""
    live = np.flatnonzero(step < k)
    if k == 1:
        return live, np.array([0, len(live)])
    step = step[live]
    order = np.argsort(step, kind="stable")
    return live[order], np.searchsorted(step[order], np.arange(k + 1))


def _component_stats(k, comp_row, sizes, ct, ch, giant):
    """Statistics of k open subgraphs from their strong components.

    Component c holds sizes[c] vertices of subgraph comp_row[c], and ct[j]
    -> ch[j] are the arcs between components, repeats allowed.  Returns a
    (k, len(STAT_NAMES)) int64 array.  Sizes are absolute vertex counts;
    "giant" means holding more than giant vertices.
    """
    # Row i's component sizes, ascending, end at ascending[ends[i] + 1]:
    # one sort of the keys row * top + size, as every size is below top.
    counts = np.bincount(comp_row, minlength=k)
    ends = np.cumsum(counts)
    top = int(sizes.max(initial=0)) + 1
    ascending = np.concatenate(([0, 0], np.sort(comp_row * top + sizes) % top))
    largest = np.where(counts > 0, ascending[ends + 1], 0)
    second = np.where(counts > 1, ascending[ends], 0)
    giants = np.bincount(comp_row[sizes > giant], minlength=k)
    stats = np.stack((largest, second, largest, largest, giants), axis=1)
    if len(ct):
        for col, src, dst in ((2, ct, ch), (3, ch, ct)):
            sources, masses = _source_masses(len(sizes), src, dst, sizes)
            np.maximum.at(stats[:, col], comp_row[sources], masses)
    return stats


def _source_masses(ncomp, src, dst, sizes):
    """Condensation sources with out-arcs, and the vertex mass each reaches.

    Reachable sets are nested along condensation arcs, so the largest
    reach mass in a subgraph is a source's (or, with no arcs, a component's
    own size); one SciPy breadth-first search per source, each O(ncomp +
    arcs), finds them.
    """
    a, b = np.divmod(np.unique(src.astype(np.int64) * ncomp + dst), ncomp)
    sources = np.setdiff1d(a, b)
    pattern = _csr_pattern(ncomp, _offsets(a, ncomp), b)
    masses = [sizes[breadth_first_order(pattern, s, return_predecessors=False)].sum()
              for s in sources.tolist()]
    return sources, np.array(masses, dtype=np.int64)


def measure_components(g_open, giant_fraction=0.01, n_reference=None):
    """Component statistics of an (induced) digraph with all vertices open."""
    if n_reference is None:
        n_reference = g_open.n
    tails, heads, symmetric = _kernel_arcs(g_open)
    # Draws of -1 open every vertex at the one grid point 0.
    stats = _nested_stats(g_open.n, tails, heads, np.full((1, g_open.n), -1.0), (0.0,),
                          giant_fraction * n_reference, symmetric)
    return ComponentStats(*stats[0, 0].tolist())


def _kernel_arcs(g):
    """(tails, heads, symmetric): the arcs _nested_stats takes for g, in
    g's out-CSR order, by tail and then by head.  When every arc of g has
    its reverse (symmetric), they are the arcs with tail < head, one per
    pair; else all of g's arcs."""
    tails = np.repeat(np.arange(g.n), np.diff(g.out_ptr))
    heads = g.out_heads.astype(np.int64)
    if 2 * g.symmetric_pair_count == g.n_arcs:
        half = tails < heads
        return tails[half], heads[half], True
    return tails, heads, False


def sweep(g, config):
    """Run the full (p_grid x trials) measurement, deterministically.

    Each row of a _nested_stats pass is one trial on some grid columns.  A
    coupled row is trial t on every column, drawn from the stream (t,),
    over the ascending grid.  An independent row is column j of trial t,
    drawn from the stream (j, t) and shifted by p_j, over the one-point
    grid 0: draw - p < 0 exactly when draw < p, as the sign of a float
    subtraction is exact.  A row's statistics depend only on its stream,
    so the result does not depend on the block size."""
    p_grid = tuple(float(p) for p in config.p_grid)
    n = g.n
    gf = config.giant_fraction
    tails, heads, symmetric = _kernel_arcs(g)
    # A block holds at most BLOCK_ENTRIES vertices and arcs, and its rows
    # (trial, grid columns, stream key, shift) come from one unit: all
    # trials (coupled), or one trial's grid points (independent).  It
    # counts all of g's arcs even when a symmetric g passes half of them:
    # sizing by the halves would double a lattice block's rows and the
    # sweep's peak memory.
    per_block = max(1, BLOCK_ENTRIES // max(g.n_arcs, n, 1))
    if config.coupled:
        order = np.argsort(p_grid, kind="stable")
        grid = np.asarray(p_grid)[order]
        units = [[(t, order, (t,), 0.0) for t in range(config.trials)]]
    else:
        grid = (0.0,)
        units = [[(t, [j], (j, t), p) for j, p in enumerate(p_grid)]
                 for t in range(config.trials)]
    stats = np.empty((config.trials, len(p_grid), len(STAT_NAMES)), dtype=np.int64)
    for unit in units:
        for i in range(0, len(unit), per_block):
            block = unit[i:i + per_block]
            draws = np.array([trial_rng(config.master_seed, *key).random(n) - shift
                              for _, _, key, shift in block])
            block_stats = _nested_stats(n, tails, heads, draws, grid, gf * n, symmetric)
            for (t, cols, _, _), row in zip(block, block_stats):
                stats[t, cols] = row
    result = SweepResult(
        p_grid=p_grid,
        n=g.n,
        trials=config.trials,
        giant_fraction=gf,
        coupled=config.coupled,
        master_seed=config.master_seed,
    )
    for j, name in enumerate(STAT_NAMES):
        result.stats[name] = stats[:, :, j].T.copy()
    return result.finalize()


def estimate_out_prob(g, v, p, m_max, trials, seed):
    """Monte-Carlo estimate of P(v open and >= m open vertices reachable
    from v), for m = 1..m_max, with binomial standard errors.

    simulate --roots reaches this through _out_probs, as does bounds-check
    on graphs above 16 vertices; bounds-check on smaller graphs counts
    the probabilities exactly with _reach_counts instead.  Each draw block
    of trials goes through one capped search, _search_counts.  A trial's
    count is min(reach size, m_max), which leaves every P-hat exact.  A
    block holds at most BLOCK_ENTRIES draws, and a search round scans at
    most BLOCK_ENTRIES arcs, unless one trial alone needs more.
    """
    return _out_probs(g, v, (p,), m_max, trials, seed)[0]


def _out_probs(g, v, ps, m_max, trials, seed):
    """estimate_out_prob(g, v, p, m_max, trials, seed) for each p of ps, in
    order, from one pass over the draws.

    The stream trial_rng(seed, v) does not depend on p, so each block of
    uniforms is drawn once and serves every p: the open sets of p are the
    draws below p, one p at a time.
    """
    if not 0 <= v < g.n:
        raise ValueError(f"root {v} outside 0..{g.n - 1}")
    for p in ps:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} outside [0,1]")
    if m_max < 1 or trials < 1:
        raise ValueError("m_max and trials must be >= 1")
    rng = trial_rng(seed, v)
    n = g.n
    heads, ptr = g.out_heads, g.out_ptr
    size_hist = np.zeros((len(ps), m_max + 1), dtype=np.int64)  # index: p, capped reach size
    # A search round scans the arcs of at most m_max - 1 distinct vertices
    # per trial.
    widest = min(g.n_arcs, (m_max - 1) * int(np.diff(ptr).max(initial=0)))
    # Generator.random fills row by row, so the block size leaves the
    # draws, and every P-hat, unchanged.
    rows = max(1, BLOCK_ENTRIES // max(n, widest, 1))
    stamp = np.empty(rows * n, dtype=np.int64)  # deduplicates one round's keys
    remaining = trials
    while remaining > 0:
        batch = min(rows, remaining)
        remaining -= batch
        draws = rng.random((batch, n))
        for i, (hist, p) in enumerate(zip(size_hist, ps)):
            opens = draws < p
            if i == len(ps) - 1:
                # The last search runs with the draws freed: one-p calls
                # run about a tenth faster than with them held.
                del draws
            hist += np.bincount(_search_counts(ptr, heads, v, m_max, opens, stamp),
                                minlength=m_max + 1)
    # P-hat_m = fraction of trials with capped size >= m.
    at_least = np.cumsum(size_hist[:, ::-1], axis=1)[:, ::-1]
    m_values = np.arange(1, m_max + 1)
    estimates = []
    for p, counts in zip(ps, at_least):
        p_hat = counts[1:] / trials
        stderr = np.sqrt(p_hat * (1.0 - p_hat) / trials)
        estimates.append(OutProbEstimate(vertex=v, p=float(p), trials=trials,
                                         m_values=m_values.copy(), p_hat=p_hat, stderr=stderr))
    return estimates


def _reach_counts(g, v):
    """c[k, r]: the number of open sets of g (n <= 16) that hold v
    and k open vertices in all, from which v reaches exactly r open
    vertices, as an (n + 1, n + 1) int64 array.

    So P(v open and >= m open vertices reachable from v) is the sum of
    c[k, r] p^k (1-p)^(n-k) over k and r >= m, exactly, for every p.  The
    2**(n-1) sets that hold v are uint16 words, bit u for vertex u, each
    a counter with bit v inserted.  Each round ORs into every set's reach
    the out-masks of its reached vertices, one lookup in a closure table
    of 2**n words, and keeps the open bits, until no reach grows.
    """
    n = g.n
    if n > 16:
        raise ValueError(f"exact reach counts need n <= 16, got {n}")
    one = np.uint16(1)
    out_mask = np.zeros(n, dtype=np.uint16)  # bit h for each out-neighbour h
    np.bitwise_or.at(out_mask, g.tails, np.left_shift(one, g.heads.astype(np.uint16)))
    # table[w]: the OR of the out-masks of the vertices whose bits are set
    # in w.
    table = np.zeros(1 << n, dtype=np.uint16)
    for i in range(n):  # the entries whose highest set bit is bit i
        table[1 << i:2 << i] = table[:1 << i] | out_mask[i]
    byte, eight = np.uint16(255), np.uint16(8)
    bit = np.left_shift(one, np.uint16(v))
    below = bit - one  # the counter's bits that stay below bit v
    k = np.arange(1 << (n - 1), dtype=np.uint16)
    words = (k & below) | ((k & ~below) << one) | bit
    reach = np.full(words.size, bit)
    while True:
        grown = reach | table.take(reach)
        grown &= words
        if np.array_equal(grown, reach):
            break
        reach = grown
    both = np.stack([words, reach])
    size, reached = _BYTE_BITS.take(both & byte) + _BYTE_BITS.take(both >> eight)
    key = size * np.uint16(n + 1) + reached  # at most 16 * 17 + 16
    return np.bincount(key, minlength=(n + 1) ** 2).reshape(n + 1, n + 1)


def _search_counts(ptr, heads, v, m_max, opens, stamp):
    """min(number of open vertices reachable from v, m_max), per row of
    opens; heads holds the arcs' heads grouped by tail, as ptr indexes
    them, in any order within a tail: the capped count does not depend on it.

    One search advances all trials together, a round of array operations
    at a time.  A round scans, per reached vertex, at most as many out-arcs
    as its trial still lacks vertices, and a trial stops at m_max.
    """
    batch, n = opens.shape
    count = opens[:, v].astype(np.int64)
    free = opens.ravel()  # open and not yet reached; keys are t*n + u
    key = np.flatnonzero(count) * n + v  # reached vertices with arcs to scan
    nxt = np.full(key.size, ptr[v])  # the next arc each of them scans
    free[key] = False
    while True:
        t, u = np.divmod(key, n)
        short = m_max - count[t]
        left = ptr[u + 1] - nxt
        live = (short > 0) & (left > 0)
        if not live.any():
            return np.minimum(count, m_max)  # a round can overshoot m_max
        key, u, nxt = key[live], u[live], nxt[live]
        d = np.minimum(left[live], short[live])
        ends = np.cumsum(d)
        arcs = np.arange(ends[-1]) + np.repeat(nxt - ends + d, d)
        new = np.repeat(key - u, d) + heads[arcs]
        new = new[free[new]]
        order = np.arange(new.size)
        stamp[new] = order
        new = new[stamp[new] == order]
        free[new] = False
        count += np.bincount(new // n, minlength=batch)
        key = np.concatenate((key, new))
        nxt = np.concatenate((nxt + d, ptr[new % n]))


def estimate_threshold(sr, criterion="giant-fraction-crossing", target="scc"):
    """Locate the percolation transition from a sweep.

    criterion "giant-fraction-crossing": linear interpolation of the mean
    largest-component fraction across the giant_fraction level.
    criterion "susceptibility-peak": grid argmax of the mean second-largest
    component size with 3-point quadratic refinement.
    Both read the grid points in ascending p, whatever the sweep's grid
    order; a p that appears twice raises ValueError, as the slope over a
    zero-width step is undefined.
    Returns (p_c estimate, uncertainty).
    """
    stat = {"scc": "largest_scc", "out": "largest_out", "in": "largest_in"}.get(target)
    if stat is None:
        raise ValueError(f"unknown target {target!r}")
    order = np.argsort(sr.p_grid, kind="stable")
    p = np.asarray(sr.p_grid, dtype=np.float64)[order]
    if (np.diff(p) == 0).any():
        raise ValueError("the sweep's grid repeats a probability")
    if criterion == "giant-fraction-crossing":
        frac = sr.means[stat][order] / sr.n
        err = sr.stderrs[stat][order] / sr.n
        level = sr.giant_fraction
        for i in range(len(p) - 1):
            lo, hi = frac[i], frac[i + 1]
            if lo < level <= hi:
                slope = (hi - lo) / (p[i + 1] - p[i])
                pc = p[i] + (level - lo) / slope
                unc = 0.5 * (p[i + 1] - p[i])
                if slope > 0:
                    unc += (err[i] + err[i + 1]) / slope
                return float(pc), float(unc)
        raise NoCrossingError(
            f"mean {stat} fraction never crosses {level} on the grid"
        )
    if criterion == "susceptibility-peak":
        chi = sr.means["second_scc"][order]
        i = int(np.argmax(chi))
        pc, unc = float(p[i]), float(np.max(np.diff(p)) if len(p) > 1 else 0.0)
        if 0 < i < len(p) - 1:
            y0, y1, y2 = chi[i - 1], chi[i], chi[i + 1]
            denom = y0 - 2 * y1 + y2
            if denom < 0:
                pc = float(p[i] - 0.5 * (p[i + 1] - p[i]) * (y2 - y0) / denom)
        return pc, unc
    raise ValueError(f"unknown criterion {criterion!r}")


def multiplicity_probe(g, p_grid, trials, seed, giant_fraction=0.01):
    """Distribution of second-to-largest cluster ratio and giant-cluster
    count per grid point.  Purely observational output."""
    config = PercolationConfig(
        p_grid=tuple(p_grid), trials=trials, master_seed=seed,
        giant_fraction=giant_fraction,
    )
    sr = sweep(g, config)
    largest = sr.stats["largest_scc"].astype(np.float64)
    second = sr.stats["second_scc"].astype(np.float64)
    ratios = np.where(largest > 0, second / np.maximum(largest, 1), 0.0)
    return MultiplicityProbe(
        p_grid=sr.p_grid, n=g.n, trials=trials, giant_fraction=giant_fraction,
        ratios=ratios, giant_counts=sr.stats["giant_count"],
    )
