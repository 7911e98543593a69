import json
import math
import os
import subprocess
import sys
from pathlib import Path

import networkx as nx
import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import ArpackNoConvergence, eigs

from nbperc import (
    DiGraph,
    adjacency_spectral_radius,
    build_hashimoto,
    compute_spectral_report,
    gen_complete_sym,
    gen_cycle,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_random_tree_sym,
    gen_star_sym,
    induced_norms,
    left_perron_vector,
    olg_strongly_connected,
    parse_edge_list,
    serialize_edge_list,
    spectral_radius,
    symmetric_arc_pairs,
)
from nbperc import spectral
from nbperc.cli import build_analysis_document
from nbperc.errors import NonConvergenceError, NotStronglyConnectedError
from nbperc.spectral import DEFAULT_TOL, METHOD_INVERSE

from conftest import dense_adjacency, dense_hashimoto, dense_rho


class TestSpectralRadius:
    def test_nilpotent_path(self, p3sym):
        res = spectral_radius(build_hashimoto(p3sym))
        assert res.rho == 0.0
        assert res.method == "nilpotent-detected"

    def test_cycle_permutation(self, c3):
        res = spectral_radius(build_hashimoto(c3))
        assert abs(res.rho - 1.0) < 1e-9

    def test_complete_sym(self, k4sym):
        h = build_hashimoto(k4sym)
        res = spectral_radius(h)
        assert abs(res.rho - dense_rho(dense_hashimoto(k4sym))) < 1e-6
        assert abs(res.rho - 2.0) < 1e-6

    def test_random_vs_dense_oracle(self):
        for seed in range(30):
            g = gen_erdos_renyi_digraph(4 + seed % 8, 0.35, seed)
            h = build_hashimoto(g)
            rho_h = spectral_radius(h).rho
            rho_a = adjacency_spectral_radius(g)
            assert abs(rho_h - dense_rho(dense_hashimoto(g))) < 1e-6
            assert abs(rho_a - dense_rho(dense_adjacency(g))) < 1e-6

    def test_tied_reducible_blocks(self):
        # Two disjoint directed triangles feeding one another's shadow: the
        # operator is reducible with two blocks of equal radius.
        from nbperc import DiGraph

        g = DiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        res = spectral_radius(build_hashimoto(g))
        assert abs(res.rho - 1.0) < 1e-8

    CHORD4 = "0 1\n1 2\n2 3\n3 0\n0 2\n"

    def test_stalled_bracket_closed_by_inverse_steps(self):
        # Symmetrized 4-cycle with the chord 0-2: one power step leaves an
        # open bracket, and max_iter=1 ends the power steps right after
        # the ARPACK candidate, so the inverse steps must close it.
        g = parse_edge_list(self.CHORD4, undirected=True)
        true_rho = dense_rho(dense_hashimoto(g))
        assert true_rho == pytest.approx(1.52138, abs=1e-5)
        res = spectral_radius(build_hashimoto(g), max_iter=1)
        assert res.method == METHOD_INVERSE
        assert res.residual < 1e-10
        assert abs(res.rho - true_rho) < 1e-9

    def test_unconverged_bracket_raises(self):
        g = parse_edge_list(self.CHORD4, undirected=True)
        with pytest.raises(NonConvergenceError) as info:
            spectral_radius(build_hashimoto(g), tol=1e-300, max_iter=2)
        lo, hi = info.value.bracket
        true_rho = dense_rho(dense_hashimoto(g))
        assert lo - 1e-12 <= true_rho <= hi + 1e-12

    def test_long_cycle_with_chord(self):
        # Directed 1000-cycle plus the chord 0 -> 501: power iteration
        # narrows at 1 - O(1/L^2) per step and stalls at the default
        # max_iter.  The cycles have lengths 1000 and 500, so
        # rho^-1000 + rho^-500 = 1, i.e. rho = phi^(1/500).
        n = 1000
        g = DiGraph(n, [(i, (i + 1) % n) for i in range(n)] + [(0, 501)])
        h = build_hashimoto(g)
        want = ((1 + 5**0.5) / 2) ** (1 / 500)
        sr = compute_spectral_report(g, h)
        assert sr.method == METHOD_INVERSE
        assert abs(sr.rho_H - want) < 1e-10
        assert abs(sr.rho_A - want) < 1e-10
        xi, _ = left_perron_vector(h)
        assert np.abs(h.apply(xi) - sr.rho_H * xi).sum() <= 1e-10


    @pytest.mark.parametrize("operator", ["A", "H"])
    def test_constant_bracket_width_plateau(self, operator):
        # 80 x 80 torus with the edge (0,0)-(0,1) replaced by a path of 300
        # new vertices.  For well over 100 power steps the bracket width is
        # exactly constant: hi comes from torus vertices the perturbation
        # has not reached, lo from the middle of the path.  The bracket
        # still closes later, so a width that stops shrinking must not end
        # the power steps.
        side, length = 80, 300
        i, j = np.divmod(np.arange(side * side), side)
        right = i * side + (j + 1) % side
        down = ((i + 1) % side) * side + j
        u = np.concatenate([np.arange(side * side)] * 2)
        v = np.concatenate([right, down])
        keep = ~((u == 0) & (v == 1))
        chain = np.concatenate([[0], side * side + np.arange(length), [1]])
        u = np.concatenate([u[keep], chain[:-1]])
        v = np.concatenate([v[keep], chain[1:]])
        g = DiGraph.from_arrays(side * side + length, np.r_[u, v], np.r_[v, u])
        if operator == "A":
            op = g
            mat = csr_matrix((np.ones(len(g.tails)), (g.tails, g.heads)), shape=(g.n, g.n))
        else:
            op = build_hashimoto(g)
            mat = csr_matrix(
                (np.ones(len(op.pair_u)), (op.pair_u, op.pair_v)), shape=(op.n_arcs,) * 2
            )
        want = float(eigs(mat, k=1, which="LR", return_eigenvectors=False)[0].real)
        res = spectral_radius(op)
        assert res.method == "power-shifted"
        assert abs(res.rho - want) < 1e-8


def _grid(side):
    ids = np.arange(side * side).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return DiGraph.from_arrays(side * side, np.r_[u, v], np.r_[v, u])


def _counting_eigs(monkeypatch, fake=None):
    """Replace spectral.eigs by ``fake`` (default: the real one) and
    return the list its calls are recorded in."""
    calls = []
    real = spectral.eigs

    def wrapper(*args, **kwargs):
        calls.append(args[0].shape)
        return (fake or real)(*args, **kwargs)

    monkeypatch.setattr(spectral, "eigs", wrapper)
    return calls


class TestArpackCandidate:
    """ARPACK only proposes the starting vector; _perron certifies it, and
    a failed or non-positive proposal leaves the power steps as they were."""

    @staticmethod
    def _uncandidated(op, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(spectral, "_arpack_candidate", lambda *args: None)
            return spectral_radius(op)

    @pytest.mark.parametrize("failure", ["no-convergence", "zero-entry"])
    @pytest.mark.parametrize("operator", ["A", "H"])
    def test_failed_candidate_keeps_power_steps(self, failure, operator, monkeypatch):
        g = _grid(8)
        op = g if operator == "A" else build_hashimoto(g)
        want = self._uncandidated(op, monkeypatch)

        def fake(a, **kwargs):
            if failure == "no-convergence":
                raise ArpackNoConvergence("no convergence", np.zeros(0), np.zeros((a.shape[0], 0)))
            v = np.ones((a.shape[0], 1), dtype=complex)
            v[3] = 0.0
            return np.ones(1, dtype=complex), v

        calls = _counting_eigs(monkeypatch, fake)
        res = spectral_radius(op)
        assert len(calls) == 1
        assert res == want
        assert res.iterations > 10
        mat = dense_adjacency(g) if operator == "A" else dense_hashimoto(g)
        assert abs(res.rho - dense_rho(mat)) < 1e-9

    @pytest.mark.parametrize("operator", ["A", "H"])
    def test_candidate_closes_grid_bracket(self, operator, monkeypatch):
        g = _grid(8)
        op = g if operator == "A" else build_hashimoto(g)
        calls = _counting_eigs(monkeypatch)
        res = spectral_radius(op)
        assert len(calls) == 1
        assert res.iterations <= 10
        assert res.residual < DEFAULT_TOL
        mat = dense_adjacency(g) if operator == "A" else dense_hashimoto(g)
        assert abs(res.rho - dense_rho(mat)) < 1e-9

    def test_regular_graph_never_calls_arpack(self, monkeypatch):
        # Regular graphs close at the first step from the uniform vector,
        # so the expander and validate inputs never reach ARPACK.
        g = gen_random_regular_sym(100, 3, 1)
        calls = _counting_eigs(monkeypatch)
        assert spectral_radius(build_hashimoto(g)).iterations == 1
        assert spectral_radius(g).iterations == 1
        compute_spectral_report(g)
        assert calls == []

    def test_star_adjacency_closes_at_once(self):
        # The bracket of the 2,499-leaf star's rho_A sits at its rounding
        # floor under plain power steps; from the candidate it closes.
        res = spectral_radius(gen_star_sym(2499))
        assert abs(res.rho - math.sqrt(2499)) < 1e-9
        assert res.iterations <= 10


class TestDeterminism:
    def test_repeated_reports_bitwise_equal(self):
        g = _grid(80)
        h = build_hashimoto(g)
        a, b = compute_spectral_report(g, h), compute_spectral_report(g, h)
        assert a.rho_H == b.rho_H and a.rho_A == b.rho_A
        assert np.array_equal(a.left_pf, b.left_pf)

    def test_blas_thread_count_stays_inside_tol(self, tmp_path):
        # 120 x 120 is large enough for OpenBLAS to thread the Arnoldi
        # products; the last digits may move, but within the certified tol.
        path = tmp_path / "grid.txt"
        g = _grid(120)
        path.write_text(serialize_edge_list(g))
        src = str(Path(spectral.__file__).resolve().parents[1])
        rhos = []
        for threads in ("1", None):
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            env["PYTHONPATH"] = src
            if threads:
                env["OPENBLAS_NUM_THREADS"] = threads
            out = subprocess.run(
                [sys.executable, "-m", "nbperc.cli", "analyze", str(path), "--p", "0.1"],
                env=env, capture_output=True, text=True, check=True,
            ).stdout
            spec = json.loads(out)["spectral"]
            rhos.append((spec["rho_H"], spec["rho_A"]))
        (h1, a1), (h2, a2) = rhos
        assert abs(h1 - h2) < DEFAULT_TOL and abs(a1 - a2) < DEFAULT_TOL


SINGLE_SOLVE_GRAPHS = {
    "empty": DiGraph(3, []),
    "one-arc": DiGraph(2, [(0, 1)]),
    "2-cycle": DiGraph(2, [(0, 1), (1, 0)]),
    "C3": gen_cycle(3),
    "K4sym": gen_complete_sym(4),
    "path": gen_path_sym(4),
    "star": gen_star_sym(3),
    "dag": DiGraph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]),
    "chord4sym": parse_edge_list("0 1\n1 2\n2 3\n3 0\n0 2\n", undirected=True),
    "cycle1000-chord": DiGraph(1000, [(i, (i + 1) % 1000) for i in range(1000)] + [(0, 501)]),
}


def _nontrivial_blocks(n, src, dst):
    d = nx.DiGraph()
    d.add_nodes_from(range(n))
    d.add_edges_from(zip(src.tolist(), dst.tolist()))
    return sum(len(c) > 1 for c in nx.strongly_connected_components(d))


class TestSingleSolve:
    """compute_spectral_report takes rho_H, the OLG flag, left_pf and
    gamma_L from one solve of H, equal to the standalone entry points."""

    @pytest.mark.parametrize("name", list(SINGLE_SOLVE_GRAPHS))
    def test_matches_standalone_calls(self, name):
        g = SINGLE_SOLVE_GRAPHS[name]
        h = build_hashimoto(g)
        sr = compute_spectral_report(g, h)
        res = spectral_radius(h)
        assert (sr.rho_H, sr.method, sr.iterations) == (res.rho, res.method, res.iterations)
        assert sr.residual == res.residual
        try:
            xi, gamma = left_perron_vector(h)
        except NotStronglyConnectedError:
            assert sr.left_pf is None and sr.gamma_L is None
        else:
            assert np.array_equal(sr.left_pf, xi)
            assert sr.gamma_L == gamma
        flag = olg_strongly_connected(h)[0]
        assert sr.olg_strongly_connected == flag
        doc = build_analysis_document(g, [0.5])
        assert doc["graph"]["olg_strongly_connected"] == flag

    @pytest.mark.parametrize("name", list(SINGLE_SOLVE_GRAPHS))
    def test_one_perron_call_per_nontrivial_block(self, name, monkeypatch):
        g = SINGLE_SOLVE_GRAPHS[name]
        h = build_hashimoto(g)
        calls = []
        perron = spectral._perron

        def counting(*args):
            calls.append(args[0])
            return perron(*args)

        monkeypatch.setattr(spectral, "_perron", counting)
        compute_spectral_report(g, h)
        want = (_nontrivial_blocks(h.n_arcs, h.pair_u, h.pair_v)
                + _nontrivial_blocks(g.n, g.tails, g.heads))
        assert len(calls) == want


class TestAdjacency:
    def test_cycle(self, c3):
        assert abs(adjacency_spectral_radius(c3) - 1.0) < 1e-9

    def test_complete_sym(self, k4sym):
        assert abs(adjacency_spectral_radius(k4sym) - 3.0) < 1e-6

    def test_path_sym(self, p3sym):
        assert abs(adjacency_spectral_radius(p3sym) - math.sqrt(2)) < 1e-6


class TestInducedNorms:
    def test_cycle(self, c3):
        assert induced_norms(build_hashimoto(c3)) == (1, 1)

    def test_complete_sym(self, k4sym):
        assert induced_norms(build_hashimoto(k4sym)) == (2, 2)

    def test_star_norm_strictly_above_rho(self, star3sym):
        h = build_hashimoto(star3sym)
        assert induced_norms(h) == (2, 2)
        res = spectral_radius(h)
        assert res.rho == 0.0


class TestLeftPerron:
    def test_complete_sym_uniform(self, k4sym):
        xi, gamma = left_perron_vector(build_hashimoto(k4sym))
        assert abs(gamma - 1.0) < 1e-9
        assert np.allclose(xi, 1.0 / 12)

    def test_cycle_uniform(self, c3):
        xi, gamma = left_perron_vector(build_hashimoto(c3))
        assert abs(gamma - 1.0) < 1e-9

    def test_chord_rejected_with_arc(self, chord):
        with pytest.raises(NotStronglyConnectedError) as exc:
            left_perron_vector(build_hashimoto(chord))
        assert exc.value.arc in chord.arcs

    def test_reducible_rejected_before_solving(self, monkeypatch):
        # Two directed triangles joined by one arc: H has two nontrivial
        # blocks, and the error comes from the labelling, not a solve.
        def no_solve(*args):
            raise AssertionError("_perron ran on a reducible operator")

        monkeypatch.setattr(spectral, "_perron", no_solve)
        g = DiGraph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3)])
        with pytest.raises(NotStronglyConnectedError) as exc:
            left_perron_vector(build_hashimoto(g), tol=1e-300, max_iter=2)
        assert exc.value.arc in g.arcs

    def test_eigen_residual_contract(self):
        tol = 1e-10
        for seed in (1, 5, 9):
            g = gen_random_regular_sym(40, 3, seed)
            h = build_hashimoto(g)
            xi, gamma = left_perron_vector(h, tol=tol)
            rho = spectral_radius(h).rho
            assert abs(xi.sum() - 1.0) < 1e-12
            assert (xi > 0).all()
            assert np.abs(h.apply(xi) - rho * xi).sum() <= tol
            assert gamma >= 1.0


class TestPaperInequalities:
    def test_rho_h_below_rho_a_and_norms(self):
        for seed in range(60):
            g = gen_erdos_renyi_digraph(5 + seed % 16, 0.25, seed)
            h = build_hashimoto(g)
            sr = compute_spectral_report(g, h)
            assert sr.rho_H <= sr.rho_A + 1e-9
            assert sr.rho_H <= min(sr.norm_row, sr.norm_col) + 1e-9

    def test_equality_iff_no_symmetric_pairs(self):
        saw_equal = saw_gap = False
        for seed in range(60):
            g = gen_erdos_renyi_digraph(5 + seed % 12, 0.2, seed)
            h = build_hashimoto(g)
            sr = compute_spectral_report(g, h)
            if not symmetric_arc_pairs(g):
                assert abs(sr.rho_H - sr.rho_A) < 1e-6
                saw_equal = True
            elif sr.rho_A > 1e-6 and spectral_radius(g).rho > 0:
                saw_gap = True
        assert saw_equal

    def test_regular_identity_small(self):
        for d, seed in ((3, 0), (4, 1), (5, 2)):
            g = gen_random_regular_sym(200, d, seed)
            rho = spectral_radius(build_hashimoto(g)).rho
            assert abs(rho - (d - 1)) < 1e-3

    def test_regular_identity_large(self):
        g = gen_random_regular_sym(10000, 3, 7)
        rho = spectral_radius(build_hashimoto(g)).rho
        assert abs(rho - 2.0) < 1e-3

    def test_tree_nilpotent(self):
        for n, seed in ((10, 0), (100, 1), (1000, 2)):
            g = gen_random_tree_sym(n, seed)
            res = spectral_radius(build_hashimoto(g))
            assert res.rho == 0.0
            assert res.method == "nilpotent-detected"
