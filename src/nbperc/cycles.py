"""Exact elementary-circuit census and expected self-avoiding-cycle counts.

Circuits are enumerated by rooted depth-first search in Johnson's rooting
scheme: the root of every reported circuit is its minimal vertex and only
larger vertices may appear after it, so each circuit is produced exactly
once up to cyclic rotation.  A self-avoiding cycle (SAC) is an elementary
circuit of length >= 3; length-2 circuits are backtracking and invisible
to closed non-backtracking walk counts, so keeping them out is the only
reading under which the exact census stays below the trace series
termwise.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError
from .graph import _split
from .hashimoto import trace_power

VERTEX_CAP = 16
SAC_MIN_LEN = 3


def _check_vertex_cap(n):
    """Raise CapExceededError unless a census of n vertices is inside the cap."""
    if n > VERTEX_CAP:
        raise CapExceededError(f"circuit enumeration needs n <= {VERTEX_CAP}, got {n}")


@dataclass
class CycleReport:
    """Census of elementary circuits (canonical: minimal vertex first)."""

    circuits: list
    counts_by_length: dict
    sac_count_by_length: dict


def enumerate_elementary_circuits(g, max_len=None):
    """All elementary circuits of length <= max_len, each reported once.

    The circuit count explodes combinatorially, hence the hard vertex cap.
    """
    _check_vertex_cap(g.n)
    if max_len is None:
        max_len = g.n
    neighbors = _split(g.out_heads.tolist(), g.out_ptr)
    circuits = []
    path = []
    on_path = [False] * g.n

    def extend(root, v):
        path.append(v)
        on_path[v] = True
        for w in neighbors[v]:
            if w == root and len(path) >= 2:
                circuits.append(tuple(path))
            elif w > root and not on_path[w] and len(path) < max_len:
                extend(root, w)
        on_path[v] = False
        path.pop()

    for root in range(g.n):
        if max_len >= 2:
            extend(root, root)
    counts = {}
    for c in circuits:
        counts[len(c)] = counts.get(len(c), 0) + 1
    sac_counts = {s: k for s, k in counts.items() if s >= SAC_MIN_LEN}
    return CycleReport(circuits=circuits, counts_by_length=counts,
                       sac_count_by_length=sac_counts)


def expected_sac_count(report, p):
    """Expected number of SACs surviving site percolation: a length-s SAC
    survives iff all s of its vertices are open."""
    return sum(k * (p ** s) for s, k in report.sac_count_by_length.items())


def nb_cycle_count(h, s):
    """Tr H^s / s: non-backtracking directed cycles of length s, counted
    up to starting-arc rotation.  Exact rational; for prime s the count is
    necessarily integral (no closed NB walk of prime length is periodic),
    which is asserted."""
    if s < 1:
        raise ValueError(f"s must be >= 1, got {s}")
    tr = trace_power(h, s)
    if _is_prime(s) and tr % s != 0:
        raise AssertionError(
            f"Tr H^{s} = {tr} not divisible by prime {s}; operator corrupt"
        )
    return Fraction(tr, s)


def _is_prime(s):
    if s < 2:
        return False
    d = 2
    while d * d <= s:
        if s % d == 0:
            return False
        d += 1
    return True
