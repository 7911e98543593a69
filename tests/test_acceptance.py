"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
PASS/FAIL lines as they complete.
"""
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

import nbperc as nb
from conftest import brute_closed_nb_walks, dense_adjacency, dense_hashimoto, dense_rho


def report(name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"{tag} {name}" + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def big_regular():
    return nb.gen_random_regular_sym(100000, 3, 2024)


def test_criterion_1_spectral_oracle_equivalence():
    start = time.time()
    worst = 0.0
    for seed in range(50):
        n = 4 + seed % 9  # n <= 12
        g = nb.gen_erdos_renyi_digraph(n, 0.3, 7000 + seed)
        h = nb.build_hashimoto(g)
        rho_h = nb.spectral_radius(h).rho
        rho_a = nb.adjacency_spectral_radius(g)
        worst = max(worst, abs(rho_h - dense_rho(dense_hashimoto(g))))
        worst = max(worst, abs(rho_a - dense_rho(dense_adjacency(g))))
    elapsed = time.time() - start
    report(
        "criterion 1: iterative rho(H), rho(A) match dense eigensolver (50 digraphs)",
        worst < 1e-6 and elapsed < 10.0,
        f"max |diff| = {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_regular_identity_and_tree_nilpotency():
    worst = 0.0
    for d in (3, 4, 5):
        for seed in (0, 1, 2):
            g = nb.gen_random_regular_sym(1000, d, 100 * d + seed)
            rho = nb.spectral_radius(nb.build_hashimoto(g)).rho
            worst = max(worst, abs(rho - (d - 1)))
    trees_exact = True
    for n, seed in ((10, 0), (100, 1), (1000, 2)):
        res = nb.spectral_radius(nb.build_hashimoto(nb.gen_random_tree_sym(n, seed)))
        trees_exact &= res.rho == 0.0 and res.method == "nilpotent-detected"
    report(
        "criterion 2: |rho(H) - (d-1)| <= 1e-3 on regular graphs; trees exactly 0",
        worst <= 1e-3 and trees_exact,
        f"max deviation {worst:.2e}",
    )


def test_criterion_3_inequality_suite():
    no_sym_equal = True
    all_ineq = True
    zero_sym_seen = 0
    for seed in range(200):
        n = 5 + seed % 26  # n <= 30
        g = nb.gen_erdos_renyi_digraph(n, 0.12, 20000 + seed)
        h = nb.build_hashimoto(g)
        sr = nb.compute_spectral_report(g, h)
        all_ineq &= sr.rho_H <= sr.rho_A + 1e-9
        all_ineq &= sr.rho_H <= min(sr.norm_row, sr.norm_col) + 1e-9
        if not nb.symmetric_arc_pairs(g):
            zero_sym_seen += 1
            no_sym_equal &= abs(sr.rho_H - sr.rho_A) < 1e-6
    strict_gap = True
    for g in (nb.gen_path_sym(3), nb.gen_complete_sym(4), nb.gen_star_sym(3)):
        sr = nb.compute_spectral_report(g)
        strict_gap &= sr.rho_A - sr.rho_H > 1e-6
    report(
        "criterion 3: rho(H) <= rho(A), <= norms; equality iff no symmetric pairs",
        all_ineq and no_sym_equal and strict_gap and zero_sym_seen > 0,
        f"{zero_sym_seen} symmetric-free graphs in sample",
    )


@pytest.fixture(scope="module")
def theorem1_graphs():
    graphs = [nb.gen_complete_sym(4)]
    graphs += [nb.gen_erdos_renyi_digraph(100, 0.08, 1000 + s) for s in range(10)]
    return graphs


def test_criterion_4_theorem1_monte_carlo(theorem1_graphs):
    start = time.time()
    ok = True
    for g in theorem1_graphs:
        h = nb.build_hashimoto(g)
        norm_row, _ = nb.induced_norms(h)
        p = 0.8 / norm_row
        bound = nb.out_component_probability_bound(p, norm_row)
        for v in (0, 1, 2):
            est = nb.estimate_out_prob(g, v, p, 20, 100000, 321)
            lhs = est.m_values * est.p_hat
            rhs = bound + 3.0 * est.m_values * est.stderr
            ok &= bool((lhs <= rhs).all())
    elapsed = time.time() - start
    report(
        "criterion 4: m*P-hat_m <= (1-p*norm)^-1 + 3*sigma*m at p = 0.8/norm",
        ok and elapsed < 120.0,
        f"{elapsed:.1f}s, 11 graphs x 3 roots x 1e5 trials",
    )


def test_criterion_5_improved_bound(theorem1_graphs):
    k4 = theorem1_graphs[0]
    _, gamma_k4 = nb.left_perron_vector(nb.build_hashimoto(k4))
    gamma_ok = abs(gamma_k4 - 1.0) <= 1e-9
    ok = True
    checked = 0
    for g in theorem1_graphs:
        h = nb.build_hashimoto(g)
        sc, _ = nb.olg_strongly_connected(h)
        if not sc:
            continue
        checked += 1
        sr = nb.compute_spectral_report(g, h)
        p = 0.8 / sr.norm_row
        bound = nb.improved_out_bound(p, sr.rho_H, sr.gamma_L)
        for v in (0, 1, 2):
            est = nb.estimate_out_prob(g, v, p, 20, 100000, 321)
            lhs = est.m_values * est.p_hat
            rhs = bound + 3.0 * est.m_values * est.stderr
            ok &= bool((lhs <= rhs).all())
    report(
        "criterion 5: m*P-hat_m <= gamma_L*(1-p*rho)^-1 on OLG-strongly-connected graphs",
        ok and gamma_ok and checked >= 1,
        f"gamma_L(K4sym) = {gamma_k4!r}, {checked} graphs",
    )


def test_criterion_6_sac_chain():
    fixtures = [nb.gen_cycle(3), nb.gen_complete_sym(4)]
    fixtures += [nb.gen_erdos_renyi_digraph(8, 0.3, 40 + s) for s in range(4)]
    ok = True
    for g in fixtures:
        h = nb.build_hashimoto(g)
        rho = nb.spectral_radius(h).rho
        if rho == 0.0 or h.n_arcs == 0:
            continue
        census = nb.enumerate_elementary_circuits(g)
        for target in (0.25, 0.5, 0.75, 0.95):
            p = target / rho
            exact = nb.expected_sac_count(census, p)
            trace_val, _ = nb.sac_bound_trace(p, h, 64, rho)
            closed = nb.sac_bound_closed(p, rho, h.n_arcs)
            ok &= exact <= trace_val + 1e-9 <= closed + 2e-9
    # C3 at p = 0.5: exact chain values.
    c3 = nb.gen_cycle(3)
    h3 = nb.build_hashimoto(c3)
    exact = nb.expected_sac_count(nb.enumerate_elementary_circuits(c3), 0.5)
    trace_val, _ = nb.sac_bound_trace(0.5, h3, 64, 1.0)
    closed = nb.sac_bound_closed(0.5, 1.0, 3)
    c3_ok = (
        exact == 0.125
        and abs(trace_val - 0.13353) < 1e-3
        and abs(closed - 3 * math.log(2)) < 1e-12
        and exact <= trace_val <= closed
    )
    report(
        "criterion 6: E[N] <= truncated trace sum (S=64) <= n_E|ln(1-p rho)|",
        ok and c3_ok,
        f"C3: 0.125 <= {trace_val:.5f} <= {closed:.5f}",
    )


def test_criterion_7_threshold_reproduction(big_regular):
    start = time.time()
    grid = tuple(np.linspace(0.3, 0.7, 20).tolist())
    config = nb.PercolationConfig(p_grid=grid, trials=50, master_seed=7)
    sr = nb.sweep(big_regular, config)
    pc, unc = nb.estimate_threshold(sr, criterion="giant-fraction-crossing", target="scc")
    elapsed = time.time() - start
    report(
        "criterion 7: 3-regular n=1e5 coupled sweep reproduces p_c = 1/rho(H) = 0.5",
        abs(pc - 0.5) <= 0.03 and elapsed < 300.0,
        f"p_c estimate {pc:.4f} +- {unc:.4f}, {elapsed:.1f}s",
    )


def test_criterion_8_cycle_census_oracle():
    k4 = nb.gen_complete_sym(4)
    rep = nb.enumerate_elementary_circuits(k4)
    census_ok = (
        rep.sac_count_by_length == {3: 8, 4: 6}
        and rep.counts_by_length[2] == 6
        and nb.nb_cycle_count(nb.build_hashimoto(k4), 3) == Fraction(8)
    )
    walks_ok = True
    fixtures = [nb.gen_cycle(3), k4] + [
        nb.gen_erdos_renyi_digraph(6, 0.4, 60 + s) for s in range(3)
    ]
    for g in fixtures:
        h = nb.build_hashimoto(g)
        if h.n_arcs == 0:
            continue
        traces = nb.trace_powers(h, 8)
        for s in range(1, 9):
            walks_ok &= traces[s - 1] == brute_closed_nb_walks(g, s)
    report(
        "criterion 8: K4sym census {3:8, 4:6}, 6 2-circuits; traces match walk brute force",
        census_ok and walks_ok,
    )


def test_criterion_9_simulate_determinism(tmp_path):
    graph_file = tmp_path / "g.txt"
    subprocess.run(
        [sys.executable, "-m", "nbperc.cli", "gen", "regular", "60", "3",
         "--seed", "5", "-o", str(graph_file)],
        check=True,
    )
    args = [sys.executable, "-m", "nbperc.cli", "simulate", str(graph_file),
            "--p-min", "0.2", "--p-max", "0.8", "--steps", "5",
            "--trials", "10", "--seed", "13", "--roots", "0,1", "--m-max", "5"]
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run(args, capture_output=True, env=env, check=True)
        outputs.append(proc.stdout)
    report(
        "criterion 9: cmd_simulate prints the same non-empty bytes under 1 and 2 BLAS threads",
        outputs[0] == outputs[1] and len(outputs[0]) > 0,
        f"{len(outputs[0])} bytes",
    )


def test_criterion_10_conjecture_probe(big_regular):
    # p*rho(H) in {0.8, 1.2} with rho(H) = 2 for the 3-regular graph.
    probe = nb.multiplicity_probe(big_regular, [0.4, 0.6], 20, 99)
    sub = probe.ratios[0]
    sup = probe.ratios[1]
    print(
        "criterion 10 ratio distribution: "
        f"subcritical (p rho = 0.8) mean {sub.mean():.4f} max {sub.max():.4f}; "
        f"supercritical (p rho = 1.2) mean {sup.mean():.4f} max {sup.max():.4f}"
    )
    config = nb.PercolationConfig(p_grid=(0.4,), trials=20, master_seed=99)
    sr = nb.sweep(big_regular, config)
    small_frac = float((sr.stats["largest_scc"][0] < 0.05 * big_regular.n).mean())
    report(
        "criterion 10: subcritical largest SCC < 5% of n in >= 95% of trials",
        small_frac >= 0.95,
        f"fraction of small-cluster trials {small_frac:.2f}",
    )
