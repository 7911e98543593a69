"""Closed-form percolation bounds derived from spectral quantities.

Every bound here is evaluated strictly inside its validity domain; a
violated domain raises BoundDomainError instead of clamping, so a void
bound can never masquerade as a finite number in a validation sweep.
The trace series of the self-avoiding-cycle bound is summed in closed
form, -ln det(I - pH); truncated series come with a rigorous geometric
tail certificate.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import identity
from scipy.sparse.linalg import splu

from .errors import BoundDomainError, CapExceededError
from .hashimoto import EXACT_TRACE_CAP, trace_powers


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


def pc_lower_bounds(sr):
    """(1/rho_H, 1/norm_row, 1/norm_col); a vanishing quantity maps to +inf
    ("never percolates by this bound")."""
    pc_spectral = math.inf if sr.rho_H == 0 else 1.0 / sr.rho_H
    pc_out = math.inf if sr.norm_row == 0 else 1.0 / sr.norm_row
    pc_in = math.inf if sr.norm_col == 0 else 1.0 / sr.norm_col
    return pc_spectral, pc_out, pc_in


def _check_domain(p, x, name):
    """Raise BoundDomainError unless 0 <= p <= 1 and p*x < 1."""
    if not 0.0 <= p <= 1.0:
        raise BoundDomainError(f"probability {p} outside [0,1]")
    if p * x >= 1.0:
        raise BoundDomainError(f"bound void: p*{name} = {p * x} >= 1")


def out_component_probability_bound(p, norm):
    """Upper bound (1 - p*norm)^-1 on m * P(root of out-component >= m),
    valid for p*norm < 1."""
    _check_domain(p, norm, "norm")
    return 1.0 / (1.0 - p * norm)


def improved_out_bound(p, rho_h, gamma_l):
    """gamma_L / (1 - p*rho_H), valid for p*rho_H < 1 and a strongly
    connected oriented line graph (gamma_L defined)."""
    if gamma_l is None:
        raise BoundDomainError("gamma_L unavailable (OLG not strongly connected)")
    _check_domain(p, rho_h, "rho_H")
    return gamma_l / (1.0 - p * rho_h)


def sac_bound_closed(p, rho_h, n_arcs):
    """n_E * |ln(1 - p*rho_H)|, valid for p*rho_H < 1."""
    _check_domain(p, rho_h, "rho_H")
    return n_arcs * abs(math.log1p(-p * rho_h))


def sac_bound_logdet(p, h, rho_h):
    """-ln det(I - pH) = sum_s p^s Tr H^s / s, valid for p*rho_H < 1.

    The whole trace series in closed form (the Ihara-Hashimoto zeta
    identity), from one sparse LU of I - pH: det(I - pH) > 0 inside the
    domain, so it is the product of |diag U|.  rho_H = 0 means H is
    nilpotent, so det(I - pH) = 1 and nothing is factorised.  The series
    has no negative term, so rounding below zero (and -0.0 at p = 0) is
    returned as +0.0.  Above EXACT_TRACE_CAP arcs, where LU fill-in can
    exhaust memory, raises CapExceededError.
    """
    _check_domain(p, rho_h, "rho_H")
    k = h.n_arcs
    if k > EXACT_TRACE_CAP:
        raise CapExceededError(
            f"log-determinant needs n_arcs <= {EXACT_TRACE_CAP}, got {k}"
        )
    if rho_h == 0.0:
        return 0.0
    lu = splu(identity(k, format="csc") - (p * h.pattern).tocsc())
    return max(0.0, -float(np.log(np.abs(lu.U.diagonal())).sum()))


def sac_bound_trace(p, h, cutoff, rho_h):
    """Truncated series sum_{s<=cutoff} p^s Tr H^s / s with a tail bound,
    from exact traces: the reference that sac_bound_logdet sums in full.

    Returns (value, tail) where tail = n_E * sum_{s>cutoff} (p*rho)^s / s
    certifies the truncation error of the dominating closed form.
    """
    _check_domain(p, rho_h, "rho_H")
    if cutoff < 1:
        raise ValueError(f"cutoff must be >= 1, got {cutoff}")
    value = 0.0
    for s, tr in enumerate(trace_powers(h, cutoff), start=1):
        if tr:
            value += (p ** s) * float(tr) / s
    x = p * rho_h
    head = sum((x ** s) / s for s in range(1, cutoff + 1))
    tail = h.n_arcs * max(0.0, -math.log1p(-x) - head)
    return value, tail


def compute_bounds_report(sr, h, p_grid):
    """Evaluate every bound curve on the grid; void entries become None,
    and so does sac_trace when the operator is empty or above the cap."""
    p_grid = tuple(float(p) for p in p_grid)
    report = BoundsReport(*pc_lower_bounds(sr), p_grid=p_grid)
    for p in p_grid:
        report.theorem1_out.append(_try(out_component_probability_bound, p, sr.norm_row))
        report.theorem1_in.append(_try(out_component_probability_bound, p, sr.norm_col))
        report.improved_out.append(_try(improved_out_bound, p, sr.rho_H, sr.gamma_L))
        report.sac_closed.append(_try(sac_bound_closed, p, sr.rho_H, h.n_arcs))
        report.sac_trace.append(_try(sac_bound_logdet, p, h, sr.rho_H) if h.n_arcs else None)
    return report


def _try(fn, *args):
    try:
        return fn(*args)
    except (BoundDomainError, CapExceededError):
        return None
