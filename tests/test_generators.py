import tracemalloc

import numpy as np
import pytest

from nbperc import (
    build_hashimoto,
    gen_complete_sym,
    gen_cycle,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_random_tree_sym,
    gen_star_sym,
    spectral_radius,
    strongly_connected_components,
)
from nbperc.errors import GraphStructureError

from conftest import arc_pairs


class TestFixedFamilies:
    def test_cycle(self):
        g = gen_cycle(3)
        assert arc_pairs(g) == [(0, 1), (1, 2), (2, 0)]
        with pytest.raises(GraphStructureError):
            gen_cycle(2)

    def test_complete_sym(self):
        g = gen_complete_sym(4)
        assert g.n_arcs == 12
        arcs = set(arc_pairs(g))
        assert all((v, u) in arcs for u, v in arcs)

    def test_star_sym(self):
        g = gen_star_sym(3)
        assert g.n == 4 and g.n_arcs == 6
        assert g.out_degree(0) == 3

    def test_path_sym(self):
        g = gen_path_sym(5)
        assert g.n_arcs == 8


class TestRandomRegular:
    def test_degrees(self):
        g = gen_random_regular_sym(100, 3, 0)
        assert all(g.out_degree(v) == 3 for v in range(100))
        assert np.bincount(g.heads, minlength=100).tolist() == [3] * 100

    def test_two_regular_disjoint_cycles(self):
        g = gen_random_regular_sym(6, 2, 5)
        assert all(g.out_degree(v) == 2 for v in range(6))
        lab = strongly_connected_components(g)
        assert (lab.sizes >= 3).all()
        assert lab.sizes.sum() == 6

    def test_odd_product_rejected(self):
        with pytest.raises(GraphStructureError):
            gen_random_regular_sym(5, 3, 0)

    def test_deterministic(self):
        a = gen_random_regular_sym(60, 3, 42)
        b = gen_random_regular_sym(60, 3, 42)
        assert a == b

    def test_regular_spectral_identity(self):
        g = gen_random_regular_sym(1000, 3, 11)
        rho = spectral_radius(build_hashimoto(g)).rho
        assert abs(rho - 2.0) < 1e-3


class TestErdosRenyi:
    def test_empty_and_complete(self):
        assert gen_erdos_renyi_digraph(10, 0.0, 0).n_arcs == 0
        assert gen_erdos_renyi_digraph(10, 1.0, 0).n_arcs == 90

    def test_arc_count_concentration(self):
        g = gen_erdos_renyi_digraph(30, 0.1, 3)
        mean = 0.1 * 30 * 29
        sigma = (mean * 0.9) ** 0.5
        assert abs(g.n_arcs - mean) < 4 * sigma

    def test_deterministic(self):
        assert gen_erdos_renyi_digraph(20, 0.2, 9) == gen_erdos_renyi_digraph(20, 0.2, 9)

    @pytest.mark.parametrize("n, arc_prob, seed", [
        (0, 0.5, 0), (1, 0.5, 0), (2, 1.0, 1), (40, 0.2, 2), (300, 0.01, 3), (1000, 0.003, 4),
    ])
    def test_arcs_match_one_draw_of_all_pairs(self, n, arc_prob, seed):
        # The row blocks draw the uniforms of one n x n call, in its order.
        draws = np.random.default_rng(np.random.SeedSequence(seed)).random((n, n))
        mask = draws < arc_prob
        np.fill_diagonal(mask, False)
        us, vs = np.nonzero(mask)
        g = gen_erdos_renyi_digraph(n, arc_prob, seed)
        assert g.tails.tolist() == us.tolist() and g.heads.tolist() == vs.tolist()

    def test_memory_is_not_quadratic(self):
        # One n x n draw took 72 MB at n = 3,000, and its mask 9 MB more.
        tracemalloc.start()
        try:
            g = gen_erdos_renyi_digraph(3000, 0.001, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert g.n_arcs > 0
        assert peak < 8e6


class TestRandomTree:
    def test_sizes(self):
        assert gen_random_tree_sym(1, 0).n_arcs == 0
        assert gen_random_tree_sym(2, 0).n_arcs == 2
        for n in (3, 10, 50):
            g = gen_random_tree_sym(n, n)
            assert g.n_arcs == 2 * (n - 1)
            assert strongly_connected_components(g).count == 1

    def test_three_vertex_shapes(self):
        for seed in range(5):
            g = gen_random_tree_sym(3, seed)
            degs = sorted(g.out_degree(v) for v in range(3))
            assert degs == [1, 1, 2]

    def test_always_nilpotent(self):
        for seed in range(5):
            g = gen_random_tree_sym(64, seed)
            res = spectral_radius(build_hashimoto(g))
            assert res.rho == 0.0
            assert res.method == "nilpotent-detected"

    def test_deterministic(self):
        assert gen_random_tree_sym(30, 4) == gen_random_tree_sym(30, 4)
