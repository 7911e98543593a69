"""Closed-form percolation bounds derived from spectral quantities.

Every bound here is evaluated strictly inside its validity domain; a
violated domain raises BoundDomainError instead of clamping, so a void
bound can never masquerade as a finite number in a validation sweep.
Truncated series come with a rigorous geometric tail certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundDomainError
from .hashimoto import EXACT_TRACE_CAP, trace_powers
from .spectral import induced_norms


@dataclass
class BoundsReport:
    """Threshold lower bounds plus bound curves on a probability grid.

    Curve entries are None where the bound is void (domain violated) or
    unavailable (missing gamma_L, trace cap exceeded).
    """

    pc_spectral: float
    pc_out: float
    pc_in: float
    p_grid: tuple
    theorem1_out: list = field(default_factory=list)
    theorem1_in: list = field(default_factory=list)
    improved_out: list = field(default_factory=list)
    sac_closed: list = field(default_factory=list)
    sac_trace: list = field(default_factory=list)
    sac_trace_tail: list = field(default_factory=list)
    trace_cutoff: int | None = None


def pc_lower_bounds(sr):
    """(1/rho_H, 1/norm_row, 1/norm_col); a vanishing quantity maps to +inf
    ("never percolates by this bound")."""
    pc_spectral = math.inf if sr.rho_H == 0 else 1.0 / sr.rho_H
    pc_out = math.inf if sr.norm_row == 0 else 1.0 / sr.norm_row
    pc_in = math.inf if sr.norm_col == 0 else 1.0 / sr.norm_col
    return pc_spectral, pc_out, pc_in


def out_component_probability_bound(p, norm):
    """Upper bound (1 - p*norm)^-1 on m * P(root of out-component >= m),
    valid for p*norm < 1."""
    if not 0.0 <= p <= 1.0:
        raise BoundDomainError(f"probability {p} outside [0,1]")
    if p * norm >= 1.0:
        raise BoundDomainError(f"bound void: p*norm = {p * norm} >= 1")
    return 1.0 / (1.0 - p * norm)


def improved_out_bound(p, rho_h, gamma_l):
    """gamma_L / (1 - p*rho_H), valid for p*rho_H < 1 and a strongly
    connected oriented line graph (gamma_L defined)."""
    if gamma_l is None:
        raise BoundDomainError("gamma_L unavailable (OLG not strongly connected)")
    if not 0.0 <= p <= 1.0:
        raise BoundDomainError(f"probability {p} outside [0,1]")
    if p * rho_h >= 1.0:
        raise BoundDomainError(f"bound void: p*rho_H = {p * rho_h} >= 1")
    return gamma_l / (1.0 - p * rho_h)


def sac_bound_closed(p, rho_h, n_arcs):
    """n_E * |ln(1 - p*rho_H)|, valid for p*rho_H < 1."""
    if not 0.0 <= p <= 1.0:
        raise BoundDomainError(f"probability {p} outside [0,1]")
    if p * rho_h >= 1.0:
        raise BoundDomainError(f"bound void: p*rho_H = {p * rho_h} >= 1")
    return n_arcs * abs(math.log1p(-p * rho_h))


def sac_bound_trace(p, h, cutoff, rho_h, cap=EXACT_TRACE_CAP, traces=None):
    """Truncated series sum_{s<=cutoff} p^s Tr H^s / s with a tail bound.

    Returns (value, tail) where tail = n_E * sum_{s>cutoff} (p*rho)^s / s
    certifies the truncation error of the dominating closed form.  Pass
    ``traces`` (exact Tr H^s for s = 1..cutoff) to reuse a prior census.
    """
    if not 0.0 <= p <= 1.0:
        raise BoundDomainError(f"probability {p} outside [0,1]")
    if p * rho_h >= 1.0:
        raise BoundDomainError(f"bound void: p*rho_H = {p * rho_h} >= 1")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    if traces is None:
        traces = trace_powers(h, cutoff, cap=cap)
    value = 0.0
    for s, tr in enumerate(traces, start=1):
        if tr:
            value += (p ** s) * float(tr) / s
    x = p * rho_h
    head = sum((x ** s) / s for s in range(1, cutoff + 1))
    tail = h.n_arcs * max(0.0, -math.log1p(-x) - head)
    return value, tail


def nb_walk_generating_sum(h, v, p, cutoff, norm_row=None):
    """Truncated generating sum of non-backtracking walk counts rooted at v.

    Term m is p^m times the number of length-m NB walks whose first arc
    leaves v (m = 0 contributes 1).  Returns (value, tail) with the
    geometric tail certificate outdeg(v) * p^(M+1) * norm^M / (1 - p*norm).
    Valid for p * norm_row < 1.
    """
    g = h.graph
    if norm_row is None:
        norm_row = induced_norms(h)[0]
    if not 0.0 <= p <= 1.0:
        raise BoundDomainError(f"probability {p} outside [0,1]")
    if p * norm_row >= 1.0:
        raise BoundDomainError(f"bound void: p*norm_row = {p * norm_row} >= 1")
    if cutoff < 0:
        raise ValueError(f"cutoff must be >= 0, got {cutoff}")
    w = np.zeros(h.n_arcs)
    w[g.out_order[g.out_ptr[v]:g.out_ptr[v + 1]]] = 1.0
    outdeg = g.out_degree(v)
    value = 1.0
    for m in range(1, cutoff + 1):
        total = float(w.sum())
        if total == 0.0:
            break
        value += (p ** m) * total
        w = h.apply(w)
    x = p * norm_row
    tail = outdeg * (p ** (cutoff + 1)) * (norm_row ** cutoff) / (1.0 - x) if outdeg else 0.0
    return value, tail


def compute_bounds_report(sr, h, p_grid, trace_cutoff=None, trace_cap=EXACT_TRACE_CAP):
    """Evaluate every bound curve on the grid; void entries become None."""
    pc_spectral, pc_out, pc_in = pc_lower_bounds(sr)
    p_grid = tuple(float(p) for p in p_grid)
    if trace_cutoff is None:
        trace_cutoff = max(h.graph.n, 32)
    report = BoundsReport(
        pc_spectral=pc_spectral,
        pc_out=pc_out,
        pc_in=pc_in,
        p_grid=p_grid,
        trace_cutoff=trace_cutoff,
    )
    traces = None
    if 0 < h.n_arcs <= trace_cap:
        traces = trace_powers(h, trace_cutoff, cap=trace_cap)
    for p in p_grid:
        report.theorem1_out.append(_try(out_component_probability_bound, p, sr.norm_row))
        report.theorem1_in.append(_try(out_component_probability_bound, p, sr.norm_col))
        report.improved_out.append(_try(improved_out_bound, p, sr.rho_H, sr.gamma_L))
        report.sac_closed.append(_try(sac_bound_closed, p, sr.rho_H, h.n_arcs))
        if traces is not None:
            pair = _try(sac_bound_trace, p, h, trace_cutoff, sr.rho_H, trace_cap, traces)
            report.sac_trace.append(pair[0] if pair else None)
            report.sac_trace_tail.append(pair[1] if pair else None)
        else:
            report.sac_trace.append(None)
            report.sac_trace_tail.append(None)
    return report


def _try(fn, *args):
    try:
        return fn(*args)
    except BoundDomainError:
        return None
