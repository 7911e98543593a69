import tracemalloc

import numpy as np
import pytest

from nbperc import (
    build_hashimoto,
    build_olg,
    gen_erdos_renyi_digraph,
    gen_random_regular_sym,
    strongly_connected_components,
    symmetric_arc_pairs,
    trace_power,
    trace_powers,
)
from nbperc.errors import CapExceededError, DimensionMismatchError

from conftest import arc_pairs, dense_hashimoto


def successors(h, u):
    """Ids of the arcs that may follow arc u, read from the transition arrays."""
    return h.pair_v[h.pair_u == u].tolist()


class TestBuild:
    def test_cycle_is_permutation(self, c3):
        h = build_hashimoto(c3)
        # arc (0,1) -> (1,2) -> (2,0) -> (0,1)
        assert [successors(h, u) for u in range(3)] == [[1], [2], [0]]

    def test_path_sym_successors(self, p3sym):
        h = build_hashimoto(p3sym)
        idx = arc_pairs(p3sym).index
        assert successors(h, idx((0, 1))) == [idx((1, 2))]
        assert successors(h, idx((2, 1))) == [idx((1, 0))]
        assert successors(h, idx((1, 0))) == []
        assert successors(h, idx((1, 2))) == []

    def test_chord_arc_isolated(self, chord):
        h = build_hashimoto(chord)
        a = arc_pairs(chord).index((0, 2))
        assert successors(h, a) == []
        assert a not in h.pair_v.tolist()

    def test_no_successor_is_reverse(self):
        for seed in range(20):
            g = gen_erdos_renyi_digraph(8, 0.3, seed)
            h = build_hashimoto(g)
            arcs = arc_pairs(g)
            for u, (t, hd) in enumerate(arcs):
                if (hd, t) in arcs:
                    assert arcs.index((hd, t)) not in successors(h, u)

    def test_stored_pair_count_formula(self):
        for seed in range(20):
            g = gen_erdos_renyi_digraph(10, 0.25, seed)
            h = build_hashimoto(g)
            arcs = arc_pairs(g)
            expected = sum(
                g.out_degree(j) - (1 if (j, i) in arcs else 0)
                for i, j in arcs
            )
            assert len(h.pair_u) == expected

    def test_matches_dense_rule(self):
        for seed in range(10):
            g = gen_erdos_renyi_digraph(7, 0.35, seed)
            h = build_hashimoto(g)
            dense = dense_hashimoto(g)
            mat = np.zeros_like(dense)
            for u in range(h.n_arcs):
                mat[u, successors(h, u)] = 1.0
            assert (mat == dense).all()

    def test_pair_order_is_by_u_then_v(self):
        # The power iteration sums transitions in this order, so it fixes
        # every printed digit of rho(H).
        for seed in range(20):
            g = gen_erdos_renyi_digraph(9, 0.3, seed)
            h = build_hashimoto(g)
            assert (np.diff(h.pair_u) >= 0).all()
            same_u = h.pair_u[1:] == h.pair_u[:-1]
            assert (np.diff(h.pair_v)[same_u] > 0).all()
            u, v = np.nonzero(dense_hashimoto(g))  # row-major: by u, then v
            assert h.pair_u.tolist() == u.tolist()
            assert h.pair_v.tolist() == v.tolist()

    def test_build_memory_is_bounded(self):
        # Loading a graph peaks in this build.  In units of one int64 array
        # per candidate (arcs after arc u: out-degree of head(u)), the build
        # holds at most three candidate arrays at once and returns two
        # thirds of one each for pair_u and pair_v here: about 4.0 in all.
        # Holding u and v alongside both comparison operands read 5.8.
        g = gen_random_regular_sym(20000, 3, 1)
        candidates = int(np.diff(g.out_ptr)[g.heads].sum())
        tracemalloc.start()
        try:
            build_hashimoto(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * 8 * candidates



class TestOlg:
    def test_cycle_olg_is_cycle(self, c3):
        olg = build_olg(c3)
        assert olg.n == 3 and olg.n_arcs == 3
        lab = strongly_connected_components(olg)
        assert lab.count == 1

    def test_complete_sym_olg(self, k4sym):
        olg = build_olg(k4sym)
        assert olg.n == 12
        assert all(olg.out_degree(v) == 2 for v in range(12))
        assert strongly_connected_components(olg).count == 1

    def test_chord_olg_not_strongly_connected(self, chord):
        olg = build_olg(chord)
        assert strongly_connected_components(olg).count > 1

    def test_olg_adjacency_equals_apply(self):
        for seed in range(10):
            g = gen_erdos_renyi_digraph(8, 0.3, seed)
            h = build_hashimoto(g)
            if h.n_arcs == 0 or h.n_arcs > 200:
                continue
            olg = build_olg(g)
            for u in range(h.n_arcs):
                e = np.zeros(h.n_arcs)
                e[u] = 1.0
                y = h.apply(e)
                heads = sorted(olg.heads[olg.tails == u].tolist())
                assert sorted(np.flatnonzero(y).tolist()) == heads

    def test_degree_formulas(self):
        for seed in range(10):
            g = gen_erdos_renyi_digraph(9, 0.3, seed)
            olg = build_olg(g)
            arcs = arc_pairs(g)
            for aid, (i, j) in enumerate(arcs):
                back = 1 if (j, i) in arcs else 0
                assert olg.out_degree(aid) == g.out_degree(j) - back
            sym = symmetric_arc_pairs(g)
            if not sym:
                for aid, (i, j) in enumerate(arcs):
                    assert olg.out_degree(aid) == g.out_degree(j)


class TestApply:
    def test_basis_transition(self, c3):
        h = build_hashimoto(c3)
        e = np.zeros(3)
        idx = arc_pairs(c3).index
        e[idx((0, 1))] = 1.0
        y = h.apply(e)
        expected = np.zeros(3)
        expected[idx((1, 2))] = 1.0
        assert (y == expected).all()

    def test_path_sym_all_ones(self, p3sym):
        h = build_hashimoto(p3sym)
        y = h.apply(np.ones(4))
        idx = arc_pairs(p3sym).index
        expected = np.zeros(4)
        expected[idx((1, 2))] = 1.0
        expected[idx((1, 0))] = 1.0
        assert (y == expected).all()

    def test_zero_vector(self, k4sym):
        h = build_hashimoto(k4sym)
        assert (h.apply(np.zeros(12)) == 0).all()

    def test_dimension_mismatch(self, c3):
        h = build_hashimoto(c3)
        with pytest.raises(DimensionMismatchError):
            h.apply(np.ones(4))

    def test_transpose_adjoint(self):
        rng = np.random.default_rng(0)
        for seed in range(5):
            g = gen_erdos_renyi_digraph(8, 0.3, seed)
            h = build_hashimoto(g)
            if h.n_arcs == 0:
                continue
            x = rng.random(h.n_arcs)
            y = rng.random(h.n_arcs)
            assert np.isclose(h.apply(x) @ y, x @ h.apply_transpose(y))


class TestTrace:
    def test_cycle_traces(self, c3):
        h = build_hashimoto(c3)
        assert trace_powers(h, 3) == [0, 0, 3]

    def test_length_two_always_zero(self):
        for seed in range(15):
            g = gen_erdos_renyi_digraph(8, 0.35, seed)
            h = build_hashimoto(g)
            if h.n_arcs == 0:
                continue
            assert trace_power(h, 1) == 0
            assert trace_power(h, 2) == 0

    def test_complete_sym_triangles(self, k4sym):
        h = build_hashimoto(k4sym)
        assert trace_power(h, 3) == 24  # 8 directed triangles x 3 starting arcs

    def test_matches_dense_powers(self):
        for seed in range(8):
            g = gen_erdos_renyi_digraph(7, 0.4, seed)
            h = build_hashimoto(g)
            if h.n_arcs == 0:
                continue
            dense = dense_hashimoto(g).astype(object)
            traces = trace_powers(h, 6)
            mat = np.eye(h.n_arcs, dtype=object)
            for s in range(1, 7):
                mat = mat @ dense
                assert traces[s - 1] == int(np.trace(mat))

    def test_cap(self, k4sym):
        h = build_hashimoto(k4sym)
        with pytest.raises(CapExceededError):
            trace_power(h, 3, cap=5)
