"""Spectral radius, induced norms, and left Perron-Frobenius data.

The spectral radius of a nonnegative 0/1 operator equals the maximum over
the strongly connected blocks of its digraph, so the engine decomposes
into blocks first and runs shifted power iteration with a Collatz-
Wielandt bracket on each irreducible block.  The shift (+I) makes every
block primitive, which turns the bracket convergence geometric even on
periodic structures like pure cycles.  A bracket the first step leaves
open restarts the steps from ARPACK's estimate of the Perron vector when
that estimate is positive (slow-mixing blocks such as lattices then close
in a few steps); a block power iteration still cannot close (long cycles
with few chords narrow at 1 - O(1/L^2) per step) is finished by shifted
inverse iteration.  Whatever proposed the vector, every reported value is
the bracket of a positive vector.  An acyclic (nilpotent) operator
is detected structurally and reported as an exact zero.  One solve of H
also yields OLG strong connectivity and the left Perron vector.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse import csc_matrix, identity
from scipy.sparse.linalg import ArpackError, LinearOperator, eigs, splu

from .errors import NonConvergenceError, NotStronglyConnectedError
from .graph import DiGraph, _scc_labels
from .hashimoto import HashimotoOperator, build_hashimoto

DEFAULT_TOL = 1e-10
INVERSE_STEPS = 32
ARPACK_NCV = 12  # Arnoldi basis size: ARPACK keeps this many block-length vectors

METHOD_POWER = "power-shifted"
METHOD_INVERSE = "inverse-shifted"
METHOD_NILPOTENT = "nilpotent-detected"


@dataclass
class SpectralReport:
    """Spectral summary of a digraph and its non-backtracking operator."""

    rho_H: float
    rho_A: float
    norm_row: int
    norm_col: int
    olg_strongly_connected: bool
    left_pf: np.ndarray | None
    gamma_L: float | None
    iterations: int
    residual: float
    method: str


@dataclass(frozen=True)
class SpectralRadiusResult:
    rho: float
    method: str
    residual: float
    iterations: int


def _operator_pairs(op):
    """(dim, src, dst) arc pairs of the operator's digraph."""
    if isinstance(op, HashimotoOperator):
        return op.n_arcs, op.pair_u, op.pair_v
    if isinstance(op, DiGraph):
        return op.n, op.tails, op.heads
    raise TypeError(f"unsupported operator type {type(op).__name__}")


def _arpack_candidate(k, src, dst, x, max_iter):
    """ARPACK's estimate |Re v| of the Perron vector of one block, started
    from ``x`` with about ``max_iter`` matrix-vector products; None when
    ARPACK fails or the estimate has a non-positive entry.  The fixed
    ``rng`` draws the restart vector after a breakdown, so the estimate is
    the same in every run."""
    op = LinearOperator(
        (k, k), matvec=lambda v: np.bincount(dst, weights=v[src], minlength=k), dtype=float
    )
    try:
        v = eigs(op, k=1, which="LR", v0=x, ncv=min(ARPACK_NCV, k),
                 maxiter=max(1, max_iter // ARPACK_NCV), tol=0, rng=0)[1]
    except ArpackError:  # ArpackNoConvergence is a subclass
        return None
    v = np.abs(v[:, 0].real)
    return v / v.sum() if (v > 0).all() else None


def _perron(k, src, dst, tol, max_iter):
    """Certified Perron root bracket and vector of one irreducible block.

    Collatz-Wielandt: for positive x and (Bx)_v = sum of x_u over the
    pairs u -> v,  min_i (Bx)_i / x_i  <=  rho(B)  <=  max_i (Bx)_i / x_i.
    Up to ``max_iter`` shifted power steps x <- (B + I)x, the first one
    from the uniform vector and the rest, if it leaves the bracket open,
    from ARPACK's positive estimate when there is one; then, while the
    bracket is wider than ``tol``, up to INVERSE_STEPS solves
    x <- (sigma I - B)^-1 x, sigma = hi + (hi - lo) > rho: that inverse,
    sum_j B^j / sigma^(j+1), is positive with B's Perron vector, so x
    stays positive and every bracket certified.  Returns (lo, hi, x, steps).
    """
    x = np.full(k, 1.0 / k)
    lo, hi = 0.0, float(k)
    for it in range(1, max_iter + 1):
        y = np.bincount(dst, weights=x[src], minlength=k) + x
        r = y / x
        lo, hi = float(r.min()) - 1.0, float(r.max()) - 1.0
        x = y / y.sum()
        if hi - lo < tol:
            return lo, hi, x, it
        if it == 1 and k > 2:  # ARPACK needs dim >= 3 for one eigenpair
            cand = _arpack_candidate(k, src, dst, x, max_iter)
            x = x if cand is None else cand
    b = csc_matrix((np.ones(len(src)), (dst, src)), shape=(k, k))
    eye = identity(k, format="csc")
    for it in range(max_iter + 1, max_iter + INVERSE_STEPS + 1):
        try:
            y = splu((hi + (hi - lo)) * eye - b).solve(x)
        except RuntimeError:  # the shift met an eigenvalue by rounding
            break
        if not (y > 0).all():
            break
        r = np.bincount(dst, weights=y[src], minlength=k) / y
        lo, hi = max(lo, float(r.min())), min(hi, float(r.max()))
        x = y / y.sum()
        if hi - lo < tol:
            break
    return lo, hi, x, it


def _smallest_block_member(labels, sizes):
    """First member of the smallest block; None with at most one block."""
    if len(sizes) <= 1:
        return None
    return int(np.flatnonzero(labels == int(np.argmin(sizes)))[0])


def _solve(op, tol, max_iter):
    """Label the blocks of ``op`` once and run _perron on each nontrivial
    one; a bracket still wider than ``tol`` raises NonConvergenceError.
    Returns (SpectralRadiusResult, a member of the smallest block or None,
    the Perron vector when ``op`` is a single block else None)."""
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    dim, src, dst = _operator_pairs(op)
    if max_iter is None:
        max_iter = 10 * dim + 1000
    ncomp, labels = _scc_labels(dim, src, dst)
    sizes = np.bincount(labels, minlength=ncomp)
    nontrivial = np.flatnonzero(sizes > 1)
    best_lo = best_hi = 0.0
    total_it, converged, inverse = 0, True, False
    x = np.ones(1)  # the Perron vector of a one-element operator
    comp_src = labels[src]
    same = comp_src == labels[dst]
    for comp in nontrivial:
        mask = same & (comp_src == comp)
        members = np.flatnonzero(labels == comp)
        local = np.full(dim, -1, dtype=np.int64)
        local[members] = np.arange(len(members))
        lo, hi, x, it = _perron(
            len(members), local[src[mask]], local[dst[mask]], tol, max_iter
        )
        total_it += it
        converged &= hi - lo < tol
        inverse |= it > max_iter
        if hi > best_hi:
            best_lo, best_hi = lo, hi
    if not converged:
        raise NonConvergenceError(
            f"spectral radius bracket did not converge: [{best_lo}, {best_hi}]",
            bracket=(best_lo, best_hi),
        )
    # No nontrivial block: no arcs, or singletons without self-loops, so
    # the operator digraph is acyclic, hence nilpotent.
    method = METHOD_INVERSE if inverse else METHOD_POWER if len(nontrivial) else METHOD_NILPOTENT
    res = SpectralRadiusResult(0.5 * (best_lo + best_hi), method, best_hi - best_lo, total_it)
    return res, _smallest_block_member(labels, sizes), x if ncomp == 1 else None


def spectral_radius(op, tol=DEFAULT_TOL, max_iter=None):
    """Perron-Frobenius spectral radius of a DiGraph (adjacency action) or
    a HashimotoOperator; a bracket left open raises NonConvergenceError."""
    return _solve(op, tol, max_iter)[0]


def adjacency_spectral_radius(g, tol=DEFAULT_TOL, max_iter=None):
    """rho(A(g)) by the same engine."""
    return spectral_radius(g, tol=tol, max_iter=max_iter).rho


def induced_norms(h):
    """(max row sum, max column sum) of the operator, exact integers.

    Row sum of arc u is its successor count; column sum of arc v is its
    predecessor count.
    """
    if h.n_arcs == 0:
        return 0, 0
    norm_row = int(np.bincount(h.pair_u, minlength=h.n_arcs).max())
    norm_col = int(np.bincount(h.pair_v, minlength=h.n_arcs).max())
    return norm_row, norm_col


def olg_strongly_connected(h):
    """Check strong connectivity of the oriented line graph; returns
    (flag, offending_arc_id or None)."""
    ncomp, labels = _scc_labels(h.n_arcs, h.pair_u, h.pair_v)
    arc_id = _smallest_block_member(labels, np.bincount(labels, minlength=ncomp))
    return arc_id is None, arc_id


def left_perron_vector(h, tol=DEFAULT_TOL, max_iter=None):
    """Left Perron-Frobenius vector xi (unit 1-norm) and principal ratio.

    Requires the oriented line graph to be strongly connected; the error
    names an arc outside the dominant component otherwise.
    """
    ok, arc_id = olg_strongly_connected(h)
    if not ok:
        arc = (int(h.graph.tails[arc_id]), int(h.graph.heads[arc_id]))
        raise NotStronglyConnectedError(
            f"oriented line graph is not strongly connected (e.g. arc {arc})",
            arc=arc,
        )
    if h.n_arcs == 0:
        raise NotStronglyConnectedError("empty operator has no Perron vector")
    res, _, xi = _solve(h, tol, max_iter)
    return _checked_left_perron(h, res, xi, tol)


def _checked_left_perron(h, res, xi, tol):
    """xi and gamma_L from a solve of H, checked: |H xi - rho xi|_1 <= tol."""
    if float(np.abs(h.apply(xi) - res.rho * xi).sum()) > tol:
        raise NonConvergenceError(
            f"left Perron vector did not converge within {res.iterations} iterations"
        )
    return xi, float(xi.max() / xi.min())


def compute_spectral_report(g, h=None, tol=DEFAULT_TOL, max_iter=None):
    """Full spectral summary: rho(H), rho(A), induced norms, OLG strong
    connectivity and, when it holds, left_pf and gamma_L; H solved once."""
    if h is None:
        h = build_hashimoto(g)
    res_h, outside, xi = _solve(h, tol, max_iter)
    rho_a = adjacency_spectral_radius(g, tol=tol, max_iter=max_iter)
    norm_row, norm_col = induced_norms(h)
    left_pf = gamma = None
    if outside is None and h.n_arcs:
        left_pf, gamma = _checked_left_perron(h, res_h, xi, tol)
    return SpectralReport(
        rho_H=res_h.rho,
        rho_A=rho_a,
        norm_row=norm_row,
        norm_col=norm_col,
        olg_strongly_connected=outside is None,
        left_pf=left_pf,
        gamma_L=gamma,
        iterations=res_h.iterations,
        residual=res_h.residual,
        method=res_h.method,
    )
