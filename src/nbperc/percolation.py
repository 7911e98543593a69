"""Seeded Monte-Carlo site percolation on digraphs.

Per-trial randomness comes from splittable seed streams derived from the
master seed and the trial (and grid) index, so results are bit-identical
regardless of how trials are scheduled across workers.  The coupled sweep
mode draws one uniform per vertex per trial and reuses it across the whole
probability grid, which makes every component statistic monotone in p
within a trial and roughly halves threshold-location variance.
"""
from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc

from .errors import NoCrossingError

STAT_NAMES = ("largest_scc", "second_scc", "largest_out", "largest_in", "giant_count")

# Uniforms drawn per block by estimate_out_prob: bounds its memory at a
# few MB whatever the trial count and graph size.
OUT_PROB_BLOCK = 1 << 18


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


def _measure(n_ref, tails, heads, open_mask, giant_fraction):
    """Component statistics of the open induced subgraph.

    Sizes are absolute vertex counts; "giant" means exceeding
    giant_fraction * n_ref where n_ref is the original vertex count.
    """
    k = int(open_mask.sum())
    if k == 0:
        return ComponentStats(0, 0, 0, 0, 0)
    new_id = np.cumsum(open_mask) - 1
    amask = open_mask[tails] & open_mask[heads]
    t2 = new_id[tails[amask]]
    h2 = new_id[heads[amask]]
    if len(t2):
        m = csr_matrix((np.ones(len(t2), dtype=np.int8), (t2, h2)), shape=(k, k))
        ncomp, labels = _cc(m, directed=True, connection="strong")
    else:
        ncomp, labels = k, np.arange(k)
    sizes = np.bincount(labels, minlength=ncomp)
    if ncomp == 1:
        largest, second = int(sizes[0]), 0
    else:
        top = np.partition(sizes, ncomp - 2)
        largest, second = int(top[-1]), int(top[-2])
    giant_count = int((sizes > giant_fraction * n_ref).sum())
    cross = labels[t2] != labels[h2]
    if not cross.any():
        out_max = in_max = largest
    else:
        ct = labels[t2[cross]]
        ch = labels[h2[cross]]
        out_max = max(largest, _max_reach_mass(ncomp, ct, ch, sizes))
        in_max = max(largest, _max_reach_mass(ncomp, ch, ct, sizes))
    return ComponentStats(largest, second, out_max, in_max, giant_count)


def _max_reach_mass(ncomp, src, dst, sizes):
    """Max over condensation nodes of total vertex mass reachable from it.

    Reachable sets are nested along condensation arcs, so the maximum is
    attained at an in-degree-zero node; a DFS per source suffices.
    """
    succ = [[] for _ in range(ncomp)]
    indeg = np.zeros(ncomp, dtype=np.int64)
    for a, b in set(zip(src.tolist(), dst.tolist())):
        succ[a].append(b)
        indeg[b] += 1
    best = 0
    for s in np.flatnonzero(indeg == 0):
        seen = {int(s)}
        stack = [int(s)]
        mass = int(sizes[s])
        while stack:
            c = stack.pop()
            for b in succ[c]:
                if b not in seen:
                    seen.add(b)
                    mass += int(sizes[b])
                    stack.append(b)
        best = max(best, mass)
    return best


def measure_components(g_open, giant_fraction=0.01, n_reference=None):
    """Component statistics of an (induced) digraph with all vertices open."""
    if n_reference is None:
        n_reference = g_open.n
    mask = np.ones(g_open.n, dtype=bool)
    return _measure(n_reference, g_open.tails, g_open.heads, mask, giant_fraction)


def _worker_count():
    """NBPERC_THREADS, capped at the CPU count: the executor starts up to
    that many threads, one per submitted trial, and threads beyond the
    cores add no parallelism."""
    try:
        w = int(os.environ.get("NBPERC_THREADS", ""))
    except ValueError:
        return 1
    return min(w, os.cpu_count() or 1) if w > 0 else 1


def sweep(g, config):
    """Run the full (p_grid x trials) measurement, deterministically.

    Trials are independent work units with their own seed streams; the
    reduction order is fixed, so the result does not depend on the worker
    count (NBPERC_THREADS)."""
    p_grid = tuple(float(p) for p in config.p_grid)
    n_p = len(p_grid)
    tails, heads = g.tails, g.heads
    gf = config.giant_fraction

    def run_trial(t):
        rows = []
        if config.coupled:
            rng = trial_rng(config.master_seed, t)
            draws = rng.random(g.n)
            for p in p_grid:
                rows.append(_measure(g.n, tails, heads, draws < p, gf))
        else:
            for i, p in enumerate(p_grid):
                rng = trial_rng(config.master_seed, i, t)
                mask = sample_open_set(g.n, p, rng)
                rows.append(_measure(g.n, tails, heads, mask, gf))
        return rows

    workers = _worker_count()
    if workers == 1:
        per_trial = [run_trial(t) for t in range(config.trials)]
    else:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            per_trial = list(ex.map(run_trial, range(config.trials)))

    result = SweepResult(
        p_grid=p_grid,
        n=g.n,
        trials=config.trials,
        giant_fraction=gf,
        coupled=config.coupled,
        master_seed=config.master_seed,
    )
    for name in STAT_NAMES:
        arr = np.empty((n_p, config.trials), dtype=np.int64)
        for t, rows in enumerate(per_trial):
            for i, st in enumerate(rows):
                arr[i, t] = getattr(st, name)
        result.stats[name] = arr
    return result.finalize()


def estimate_out_prob(g, v, p, m_max, trials, seed):
    """Monte-Carlo estimate of P(v open and >= m open vertices reachable
    from v), for m = 1..m_max, with binomial standard errors.

    One search advances all trials of a draw block together, a round of
    array operations at a time.  A round scans, per reached vertex, at most
    as many out-arcs as its trial still lacks vertices, and a trial stops at
    m_max: its count is min(reach size, m_max), which leaves every P-hat
    exact.  A block holds at most OUT_PROB_BLOCK draws, and a round scans at
    most OUT_PROB_BLOCK arcs, unless one trial alone needs more.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability {p} outside [0,1]")
    if m_max < 1 or trials < 1:
        raise ValueError("m_max and trials must be >= 1")
    rng = trial_rng(seed, v)
    n = g.n
    heads, ptr = g.heads[g.out_order], g.out_ptr
    size_hist = np.zeros(m_max + 1, dtype=np.int64)  # index: capped reach size
    # A round scans the arcs of at most m_max - 1 distinct vertices per trial.
    widest = min(g.n_arcs, (m_max - 1) * int(np.diff(ptr).max(initial=0)))
    # Generator.random fills row by row, so the block size leaves the
    # draws, and every P-hat, unchanged.
    rows = max(1, OUT_PROB_BLOCK // max(n, widest, 1))
    stamp = np.empty(rows * n, dtype=np.int64)  # deduplicates one round's keys
    remaining = trials
    while remaining > 0:
        batch = min(rows, remaining)
        remaining -= batch
        opens = rng.random((batch, n)) < p
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
                break
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
        size_hist += np.bincount(np.minimum(count, m_max), minlength=m_max + 1)
    # P-hat_m = fraction of trials with capped size >= m.
    at_least = np.cumsum(size_hist[::-1])[::-1]
    m_values = np.arange(1, m_max + 1)
    p_hat = at_least[1:] / trials
    stderr = np.sqrt(p_hat * (1.0 - p_hat) / trials)
    return OutProbEstimate(vertex=v, p=float(p), trials=trials,
                           m_values=m_values, p_hat=p_hat, stderr=stderr)


def estimate_threshold(sr, criterion="giant-fraction-crossing", target="scc"):
    """Locate the percolation transition from a sweep.

    criterion "giant-fraction-crossing": linear interpolation of the mean
    largest-component fraction across the giant_fraction level.
    criterion "susceptibility-peak": grid argmax of the mean second-largest
    component size with 3-point quadratic refinement.
    Returns (p_c estimate, uncertainty).
    """
    stat = {"scc": "largest_scc", "out": "largest_out", "in": "largest_in"}.get(target)
    if stat is None:
        raise ValueError(f"unknown target {target!r}")
    p = np.asarray(sr.p_grid)
    if criterion == "giant-fraction-crossing":
        frac = sr.means[stat] / sr.n
        err = sr.stderrs[stat] / sr.n
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
        chi = sr.means["second_scc"]
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
