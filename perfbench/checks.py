"""Independent oracles and output checks for the CLI's outputs.

Nothing here imports nbperc.  The non-backtracking matrix is rebuilt from
the rule "arc v = j->l follows arc u = i->j iff l != i" with numpy and
scipy; its spectral radius comes from ARPACK and -ln det(I - pH) from a
sparse LU.  Every check returns a list of failure messages, empty when
the output passes.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np
from scipy.sparse import csc_matrix, csr_matrix, identity
from scipy.sparse.linalg import eigs, splu

RHO_TOL = 1e-8          # |rho_H - ARPACK oracle|
REGULAR3_TOL = 1e-9     # |rho_H - 2| on 3-regular inputs
RHO_ORDER_SLACK = 1e-9  # rho_H <= rho_A, up to the certified bracket widths
PC_REL_TOL = 1e-9       # pc_spectral = 1 / rho_H
LOGDET_REL_TOL = 1e-9   # sac_trace = -ln det(I - pH)
CROSSING_TOL = 0.05     # giant-fraction crossing vs 1 / rho_H


def nb_matrix(n, tails, heads):
    """Sparse 0/1 matrix with H[u, v] = 1 iff arc v follows arc u without
    backtracking; built by grouping arcs by tail, not from nbperc."""
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    m = len(tails)
    by_tail = np.argsort(tails, kind="stable")
    start = np.concatenate([[0], np.cumsum(np.bincount(tails, minlength=n))])
    fan = start[heads + 1] - start[heads]            # candidate successors of u
    u = np.repeat(np.arange(m, dtype=np.int64), fan)
    offset = np.arange(len(u)) - np.repeat(np.cumsum(fan) - fan, fan)
    v = by_tail[start[heads[u]] + offset]
    keep = heads[v] != tails[u]
    return csr_matrix((np.ones(int(keep.sum())), (u[keep], v[keep])), shape=(m, m))


def dense_nb_matrix(arcs):
    """The same matrix straight from the rule, for small graphs."""
    m = len(arcs)
    mat = np.zeros((m, m))
    for a, (i, j) in enumerate(arcs):
        for b, (jp, l) in enumerate(arcs):
            if jp == j and l != i:
                mat[a, b] = 1.0
    return mat


def oracle_rho(h):
    """Perron root of the nonnegative matrix h.  ARPACK's largest-real-part
    eigenvalue is the Perron root; largest magnitude would return -rho on
    bipartite graphs."""
    vals = eigs(h, k=1, which="LR", v0=np.ones(h.shape[0]), return_eigenvectors=False)
    return float(vals[0].real)


def oracle_neg_logdet(h, p):
    """-ln det(I - p h) by sparse LU; det > 0 whenever p * rho(h) < 1."""
    lu = splu(csc_matrix(identity(h.shape[0], format="csc") - p * h))
    return -float(np.log(np.abs(lu.U.diagonal())).sum())


def _num(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def check_analyze(doc, rho_oracle, regular3=False, neg_logdet=None):
    """Checks on an ``analyze --format json`` document.

    ``neg_logdet(p)`` gives the oracle for every non-void sac_trace entry.
    """
    fails = []
    sp, bd = doc["spectral"], doc["bounds"]
    rho_h, rho_a = sp["rho_H"], sp["rho_A"]
    if not (_num(rho_h) and _num(rho_a)):
        return [f"analyze: rho_H={rho_h!r}, rho_A={rho_a!r} not numbers"]
    if abs(rho_h - rho_oracle) > RHO_TOL:
        fails.append(f"analyze: rho_H={rho_h!r} vs ARPACK oracle {rho_oracle!r}")
    if rho_h > rho_a + RHO_ORDER_SLACK:
        fails.append(f"analyze: rho_H={rho_h!r} > rho_A={rho_a!r}")
    pc = bd["pc_spectral"]
    if rho_h > 0 and not (_num(pc) and math.isclose(pc, 1.0 / rho_h, rel_tol=PC_REL_TOL)):
        fails.append(f"analyze: pc_spectral={pc!r} != 1/rho_H={1.0 / rho_h!r}")
    if regular3 and abs(rho_h - 2.0) > REGULAR3_TOL:
        fails.append(f"analyze: 3-regular input but rho_H={rho_h!r}")
    for p, tr, cl in zip(bd["p_grid"], bd["sac_trace"], bd["sac_closed"]):
        if not _num(tr):
            continue
        if neg_logdet is not None:
            want = neg_logdet(p)
            if abs(tr - want) > LOGDET_REL_TOL * abs(want):
                fails.append(f"analyze: sac_trace({p})={tr!r} vs -ln det(I-pH)={want!r}")
        if not (_num(cl) and tr <= cl):
            fails.append(f"analyze: sac_trace({p})={tr!r} > sac_closed={cl!r}")
    return fails


def simulate_rows(text):
    """Per-(p, trial) rows of ``simulate`` CSV output, as dicts of numbers."""
    body = text.split("\n#", 1)[0]
    rows = []
    for rec in csv.DictReader(io.StringIO(body)):
        rows.append({k: float(v) if k == "p" else int(v) for k, v in rec.items()})
    return rows


def check_simulate(rows, steps, trials):
    """Component-size ordering in every row and, in the coupled mode,
    monotonicity in p within every trial."""
    fails = []
    if len(rows) != steps * trials:
        fails.append(f"simulate: {len(rows)} rows, expected {steps * trials}")
    for r in rows:
        if not r["second_scc"] <= r["largest_scc"] <= min(r["largest_out"], r["largest_in"]):
            fails.append(f"simulate: component order broken at p={r['p']} trial={r['trial']}")
    by_trial = {}
    for r in rows:
        by_trial.setdefault(r["trial"], []).append(r)
    for t, trs in by_trial.items():
        trs.sort(key=lambda r: r["p"])
        for key in ("largest_scc", "largest_out", "largest_in"):
            seq = [r[key] for r in trs]
            if any(b < a for a, b in zip(seq, seq[1:])):
                fails.append(f"simulate: {key} decreases with p in trial {t}")
    return fails


def giant_crossing(rows, n, level=0.01):
    """p where the mean largest-SCC fraction first crosses ``level``,
    interpolated linearly between grid points; None without a crossing."""
    sums = {}
    for r in rows:
        s, k = sums.get(r["p"], (0, 0))
        sums[r["p"]] = (s + r["largest_scc"], k + 1)
    grid = sorted(sums)
    frac = [sums[p][0] / sums[p][1] / n for p in grid]
    for i in range(len(grid) - 1):
        lo, hi = frac[i], frac[i + 1]
        if lo < level <= hi:
            return grid[i] + (level - lo) * (grid[i + 1] - grid[i]) / (hi - lo)
    return None


def check_crossing(rows, n, rho_h):
    pc = giant_crossing(rows, n)
    if pc is None or abs(pc - 1.0 / rho_h) > CROSSING_TOL:
        return [f"simulate: giant-fraction crossing {pc!r} not within "
                f"{CROSSING_TOL} of 1/rho_H={1.0 / rho_h!r}"]
    return []


def check_bounds_check(text, n_p):
    """One row per probability and no "violation" verdict."""
    rows = list(csv.DictReader(io.StringIO(text)))
    fails = []
    if len(rows) != n_p:
        fails.append(f"bounds-check: {len(rows)} rows, expected {n_p}")
    for r in rows:
        for col in ("theorem1_verdict", "sac_verdict"):
            if r.get(col) == "violation":
                fails.append(f"bounds-check: {col}=violation at p={r['p']}")
    return fails
