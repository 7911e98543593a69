"""Non-backtracking transition operator on arcs and its oriented line graph.

The operator is stored as the arrays of one CSR pattern of its
transitions: arc v follows arc u = i->j iff tail(v) = j and head(v) != i.
Those transitions are exactly the arcs of the oriented line graph (OLG),
so one structure serves both roles.  The SciPy matrix over those arrays
and the OLG's strong components are made on first use and cached; the
components come from g's structure where a theorem settles them, and
from a solve otherwise.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .errors import CapExceededError, DimensionMismatchError
from .graph import _csr_pattern, _index_dtype, _one_component, _split, _strong_labels

EXACT_TRACE_CAP = 5000
# Transition budget: the most candidate transitions, sum over arcs of
# out-degree(head), that an operator takes.  An analyze peaks at about
# 45 bytes per candidate (stars of up to 2,500 leaves), so this budget
# keeps its peak near 1.9 GB.  It stays below 2**31, so the build holds
# candidate positions in the arc ids' dtype.
MAX_TRANSITIONS = 40_000_000


class HashimotoOperator:
    """Non-backtracking operator of a simple digraph g.

    The build stores every transition (v follows u) once, as the row
    pointer and int32 column ids of an n_arcs x n_arcs CSR matrix, row u
    holding the arcs that follow u in ascending arc id; ``pattern`` is
    that matrix, of float64 ones.  The rule on arrays: the candidates
    after arc u are the arcs leaving head(u), listed per u in out-CSR
    (arc-id) order; the one that returns to tail(u) is dropped.  More
    than MAX_TRANSITIONS candidates raise CapExceededError before any
    candidate-sized array is allocated.  The pattern's products sum each
    entry's terms in stored order, so ``pattern.T @ x`` is bitwise equal
    to np.bincount(pair_v, weights=x[pair_u]).
    """

    def __init__(self, g):
        # Arc ids and out-CSR offsets are at most n_arcs, and candidate
        # positions below MAX_TRANSITIONS < 2**31 once the budget is
        # checked: the build's arrays are int32 when n_arcs < 2**31.
        index = _index_dtype(g.n_arcs + 1)
        ptr = g.out_ptr.astype(index)
        first = ptr[g.heads]
        fan = ptr[1:][g.heads] - first
        candidates = int(fan.sum())
        if candidates > MAX_TRANSITIONS:
            raise CapExceededError(
                f"operator needs up to {candidates} transitions, over the budget "
                f"MAX_TRANSITIONS = {MAX_TRANSITIONS}"
            )
        # Candidate k of u sits at out_order[first[u] + k - (start of u's run)].
        # Loading a graph peaks here, so at most three candidate-sized arrays
        # are alive at once, besides the intp copy that take makes of its
        # indices, and none of them holds u.  Fancy indexing would skip
        # that copy but has no fast path for int32 indices.
        v = np.repeat(first - (np.cumsum(fan, dtype=index) - fan), fan)
        v += np.arange(len(v), dtype=index)
        v = g.out_order.astype(index).take(v)
        keep = g.heads.astype(index).take(v) != np.repeat(g.tails.astype(index), fan)
        # Arc u drops a candidate iff it has a reverse arc, and drops that
        # reverse.  Reversal maps the arcs that have a reverse onto
        # themselves, so the dropped candidates are exactly those arcs,
        # each once: half their count is g's symmetric_pair_count.
        # np.compress: a boolean index is several times slower on a mask
        # without long runs.
        indices = np.compress(keep, v)
        fan -= np.bincount(np.compress(~keep, v), minlength=g.n_arcs)  # kept per u
        indptr = np.zeros(g.n_arcs + 1, dtype=index)
        np.cumsum(fan, out=indptr[1:])
        g.__dict__.setdefault("symmetric_pair_count", (candidates - len(indices)) // 2)
        self.graph = g
        self.n_arcs = g.n_arcs
        self._csr = indptr, indices

    @property
    def dim(self):
        return self.n_arcs

    @cached_property
    def pattern(self):
        """The CSR matrix of the transitions, over the row pointer and
        column ids that the build stored, without a copy.  It is made on
        first read: SciPy's constructor and the float64 ones cost a small
        graph about as much again as the rest of its build."""
        return _csr_pattern(self.n_arcs, *self._csr)

    @property
    def pair_u(self):
        """The transitions' u as a fresh int64 array, sorted: row ids of
        the pattern's entries in stored order."""
        return np.repeat(np.arange(self.n_arcs, dtype=np.int64), np.diff(self.pattern.indptr))

    @property
    def pair_v(self):
        """The transitions' v as a fresh int64 array, ascending within each
        u: the pattern's column ids in stored order."""
        return self.pattern.indices.astype(np.int64)

    @cached_property
    def strong_labels(self):
        """(component count, read-only int64 label per arc) of the OLG's
        strong components; every strong-component query on H reads it.

        The OLG is strongly connected, and its labels all 0, without a
        solve when g is fully symmetric and strongly connected, every
        out-degree is at least 2 and n_arcs > 2n: H of a connected
        undirected graph of minimum degree 2 is irreducible iff the graph
        is not a cycle, and a cycle has n_arcs = 2n (Terras, Zeta
        Functions of Graphs, 2011).  Any other graph's operator is solved."""
        g = self.graph
        if (2 * g.symmetric_pair_count == g.n_arcs and g.n_arcs > 2 * g.n
                and np.diff(g.out_ptr).min() >= 2 and g.strong_labels[0] == 1):
            return _one_component(self.n_arcs)
        return _strong_labels(self.pattern)

    def apply(self, x):
        """y_v = sum over u with v following u of x_u (forward transition)."""
        return self.pattern.T @ self._checked(x)

    def apply_transpose(self, x):
        """y_u = sum over v following u of x_v (reverse transition)."""
        return self.pattern @ self._checked(x)

    def _checked(self, x):
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.n_arcs,):
            raise DimensionMismatchError(
                f"expected vector of length {self.n_arcs}, got shape {x.shape}"
            )
        return x


def build_hashimoto(g):
    """The non-backtracking operator of g."""
    return HashimotoOperator(g)


def trace_powers(h, s_max):
    """Exact [Tr H^1, ..., Tr H^s_max] by integer basis-vector propagation.

    Uses arbitrary-precision integers: closed non-backtracking walk counts
    exceed 64 bits already at moderate lengths on small dense graphs.
    """
    if s_max < 1:
        raise ValueError(f"s_max must be >= 1, got {s_max}")
    if h.n_arcs > EXACT_TRACE_CAP:
        raise CapExceededError(
            f"exact trace needs n_arcs <= {EXACT_TRACE_CAP}, got {h.n_arcs}"
        )
    succ = _split(h.pattern.indices.tolist(), h.pattern.indptr)
    traces = [0] * (s_max + 1)
    for e0 in range(h.n_arcs):
        vec = {e0: 1}
        for s in range(1, s_max + 1):
            nxt = {}
            for u, c in vec.items():
                for v in succ[u]:
                    nxt[v] = nxt.get(v, 0) + c
            vec = nxt
            if not vec:
                break
            traces[s] += vec.get(e0, 0)
    return traces[1:]


def trace_power(h, s):
    """Exact Tr H^s: closed non-backtracking walks of length s (with start)."""
    return trace_powers(h, s)[-1]
