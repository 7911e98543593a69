import tracemalloc

import numpy as np
import pytest

from nbperc import (
    DiGraph,
    HashimotoOperator,
    build_hashimoto,
    gen_cycle,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_random_tree_sym,
    gen_star_sym,
    left_perron_vector,
    olg_strongly_connected,
    strongly_connected_components,
    symmetric_arc_pairs,
    trace_power,
    trace_powers,
)
from nbperc import cli, graph, hashimoto
from nbperc.cli import build_analysis_document
from nbperc.errors import CapExceededError, DimensionMismatchError, NotStronglyConnectedError
from nbperc.graph import _strong_labels
from nbperc.spectral import _smallest_block_member

from conftest import arc_pairs, build_olg, dense_hashimoto


def successors(h, u):
    """Ids of the arcs that may follow arc u, read from row u of the pattern."""
    ptr = h.pattern.indptr
    return h.pattern.indices[ptr[u]:ptr[u + 1]].tolist()


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
        assert a not in h.pattern.indices.tolist()

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
            assert h.pattern.nnz == expected

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
            ptr, cols = h.pattern.indptr, h.pattern.indices
            rows = np.repeat(np.arange(h.n_arcs), np.diff(ptr))
            assert (np.diff(cols)[rows[1:] == rows[:-1]] > 0).all()
            u, v = np.nonzero(dense_hashimoto(g))  # row-major: by u, then v
            assert rows.tolist() == u.tolist()
            assert cols.tolist() == v.tolist()

    def test_rows_follow_arc_ids_whatever_the_heads(self):
        # The build sorts g's arcs by tail, then arc id, itself: arcs listed
        # in random order, so that a tail's arc ids and heads disagree, a
        # hub whose out-arcs all share their tail, one vertex and none.
        rng = np.random.default_rng(3)
        pairs = rng.permutation(np.argwhere(~np.eye(30, dtype=bool)))[:400]
        spokes, hub = np.arange(1, 20), np.zeros(19, dtype=np.int64)
        star = rng.permutation(np.concatenate((np.stack([hub, spokes], 1),
                                               np.stack([spokes, hub], 1))))
        for g in (DiGraph(30, pairs), DiGraph(20, star), DiGraph(1, []), DiGraph(0, [])):
            h = build_hashimoto(g)
            ptr, cols = h.pattern.indptr, h.pattern.indices
            rows = np.repeat(np.arange(h.n_arcs), np.diff(ptr))
            u, v = np.nonzero(dense_hashimoto(g))  # row-major: by u, then v
            assert rows.tolist() == u.tolist()
            assert cols.tolist() == v.tolist()

    @pytest.mark.parametrize("reversed_share", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("seed", range(4))
    def test_build_counts_pairs_of_random_digraphs(self, reversed_share, seed):
        # Random digraphs whose arcs have a reverse never, sometimes or always.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        key = rng.choice(n * n, size=int(rng.integers(0, 4 * n)), replace=False)
        u, v = key // n, key % n
        u, v = np.minimum(u, v)[u != v], np.maximum(u, v)[u != v]
        _, first = np.unique(u * n + v, return_index=True)
        u, v = u[first], v[first]
        flip = rng.random(len(u)) < 0.5
        u, v = np.where(flip, v, u), np.where(flip, u, v)
        both = rng.random(len(u)) < reversed_share
        order = rng.permutation(len(u) + int(both.sum()))
        tails, heads = np.r_[u, v[both]][order], np.r_[v, u[both]][order]
        self.check_pair_count(DiGraph.from_arrays(n, tails, heads))

    @pytest.mark.parametrize("g", [
        pytest.param(DiGraph(2, [(0, 1), (1, 0)]), id="2-cycle"),
        pytest.param(DiGraph(6, [(0, 1), (1, 0), (2, 3), (3, 2), (4, 5), (5, 4), (1, 2)]),
                     id="three-2-cycles"),
        pytest.param(DiGraph(0, []), id="empty"),
        pytest.param(DiGraph(3, []), id="no-arcs"),
        pytest.param(gen_erdos_renyi_digraph(300, 0.02, 3), id="er"),
        pytest.param(gen_random_regular_sym(100, 3, 2), id="regular"),
    ])
    def test_build_counts_pairs_of_fixed_graphs(self, g):
        self.check_pair_count(g)

    @staticmethod
    def check_pair_count(g):
        """symmetric_pair_count read after the build equals the sparse
        product's on a fresh graph without H."""
        fresh = DiGraph.from_arrays(g.n, g.tails, g.heads)
        build_hashimoto(g)
        assert "symmetric_pair_count" in vars(g)  # filled by the build, not read yet
        assert g.symmetric_pair_count == fresh.symmetric_pair_count
        assert g.symmetric_pair_count == len(symmetric_arc_pairs(g))

    def test_operator_is_made_from_its_graph_only(self, k4sym):
        # No operator holds other transitions than all of its graph's, so
        # its strong labels may come from the graph's structure.
        h, made = HashimotoOperator(k4sym), build_hashimoto(k4sym)
        assert h.graph is k4sym
        assert np.array_equal(h.pattern.indptr, made.pattern.indptr)
        assert np.array_equal(h.pattern.indices, made.pattern.indices)
        with pytest.raises(TypeError):
            HashimotoOperator(k4sym, made.pattern.indptr, made.pattern.indices[::2])

    def test_build_memory_is_bounded(self):
        # Loading a graph peaks in this build.  In units of one int32 array
        # per candidate (arcs after arc u: out-degree of head(u)), the
        # int32 build peaked at 5.1 on this graph, two of them the intp
        # copy that take makes of its indices.  The int64 build read 8.0.
        g = gen_random_regular_sym(100000, 3, 1)
        candidates = int(np.diff(g.out_ptr)[g.heads].sum())
        tracemalloc.start()
        try:
            build_hashimoto(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5.5 * 4 * candidates

    def test_operator_holds_one_csr_built_once(self, monkeypatch):
        # The operator keeps its transitions once, in the CSR that every
        # solve and bound reads: at most float64 ones and int32 column ids
        # per transition, plus a row pointer.  Pair arrays held beside it
        # read 16 bytes per transition more.
        g = gen_random_regular_sym(20000, 3, 1)
        tracemalloc.start()
        try:
            h = build_hashimoto(g)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        pattern = h.pattern
        assert held <= pattern.data.nbytes + pattern.indices.nbytes + pattern.indptr.nbytes + 2**16
        # An analysis of g reads that same CSR and builds no other.
        built = []
        monkeypatch.setattr(cli, "build_hashimoto", lambda graph: built.append(graph) or h)
        monkeypatch.setattr(hashimoto, "_csr_pattern", lambda *args: pytest.fail("a second CSR"))
        build_analysis_document(g, [0.5])
        assert built == [g] and h.pattern is pattern

    def test_transition_budget_checked_before_the_build(self):
        # 10^8 candidates would take about 4.5 GB; the check reads only
        # two arc-sized arrays.
        g = gen_star_sym(10000)
        candidates = int(np.diff(g.out_ptr)[g.heads].sum())
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError) as err:
                build_hashimoto(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2 ** 20
        assert str(candidates) in str(err.value)
        assert str(hashimoto.MAX_TRANSITIONS) in str(err.value)

    def test_transition_budget_is_inclusive(self, k4sym, monkeypatch):
        candidates = int(np.diff(k4sym.out_ptr)[k4sym.heads].sum())
        monkeypatch.setattr(hashimoto, "MAX_TRANSITIONS", candidates)
        assert build_hashimoto(k4sym).pattern.nnz == 24
        monkeypatch.setattr(hashimoto, "MAX_TRANSITIONS", candidates - 1)
        with pytest.raises(CapExceededError):
            build_hashimoto(k4sym)



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

    def test_cap(self):
        h = build_hashimoto(gen_cycle(hashimoto.EXACT_TRACE_CAP + 1))
        with pytest.raises(CapExceededError):
            trace_power(h, 3)


def _sym(n, edges):
    return DiGraph(n, [arc for u, v in edges for arc in ((u, v), (v, u))])


def _cycle_edges(vertices):
    return list(zip(vertices, vertices[1:] + vertices[:1]))


def _lattice(side):
    ids = np.arange(side * side).reshape(side, side)
    edges = [(int(a), int(b)) for x, y in [(ids[:, :-1], ids[:, 1:]), (ids[:-1, :], ids[1:, :])]
             for a, b in zip(x.ravel(), y.ravel())]
    return _sym(side * side, edges)


def _oriented_chords(n, step):
    """Directed n-cycle plus the arcs i -> i + step (mod n): strongly
    connected, with no symmetric pair for 1 < step < n - 1, 2 step != n."""
    return DiGraph(n, [(i, (i + 1) % n) for i in range(n)]
                   + [(i, (i + step) % n) for i in range(n)])


# (graph, which certificates hold: "g" for g's labels, "H" for H's).
CERTIFICATE_CASES = [
    pytest.param(gen_cycle(7), "", id="oriented-cycle"),
    pytest.param(_sym(6, _cycle_edges(list(range(6)))), "g", id="sym-cycle"),
    pytest.param(gen_random_tree_sym(30, 1), "g", id="tree"),
    pytest.param(gen_path_sym(6), "g", id="path"),
    pytest.param(gen_star_sym(5), "g", id="star"),
    pytest.param(_sym(5, _cycle_edges([0, 1, 2]) + _cycle_edges([0, 3, 4])), "gH",
                 id="figure-eight"),
    pytest.param(_sym(7, [(0, 2), (2, 1), (0, 3), (3, 1), (0, 4), (4, 5), (5, 6), (6, 1)]),
                 "gH", id="theta"),
    pytest.param(gen_path_sym(2), "g", id="K2"),
    pytest.param(DiGraph(1, []), "g", id="n1"),
    pytest.param(DiGraph(0, []), "", id="n0"),
    pytest.param(DiGraph(4, []), "", id="no-arcs"),
    pytest.param(_sym(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3), (3, 4)]), "g",
                 id="leaf"),
    pytest.param(_sym(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]), "", id="isolated"),
    pytest.param(_sym(6, _cycle_edges([0, 1, 2]) + _cycle_edges([3, 4, 5])), "",
                 id="two-triangles"),
    pytest.param(_sym(8, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]
                      + [(4, 5), (5, 6), (6, 7), (7, 4), (4, 6)]), "", id="two-thetas"),
    pytest.param(_lattice(8), "gH", id="lattice8"),
    *[pytest.param(gen_random_regular_sym(60, d, s), "gH", id=f"regular60-{d}-{s}")
      for d in (3, 4) for s in range(2)],
    pytest.param(_oriented_chords(9, 2), "", id="oriented-chords"),
    pytest.param(_oriented_chords(12, 5), "", id="oriented-chords5"),
    pytest.param(DiGraph(4, [(0, 1), (1, 2), (2, 0), (2, 3)]), "", id="oriented-sink"),
    pytest.param(DiGraph(4, [(0, 1), (1, 2), (2, 3)]), "", id="oriented-path"),
    pytest.param(DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]), "", id="mixed-chord"),
    pytest.param(DiGraph(4, [(0, 1), (1, 0), (1, 2), (2, 3), (3, 1)]), "", id="mixed-lollipop"),
    *[pytest.param(gen_erdos_renyi_digraph(20, 0.3, s), "", id=f"mixed-er-{s}")
      for s in range(3)],
]


def _solves(monkeypatch):
    """A list of the matrices of each strong-component solve from here on;
    clear it to start a new count."""
    calls = []
    real = graph._cc

    def counted(csgraph, *args, **kwargs):
        if kwargs.get("connection") == "strong":
            calls.append(csgraph)
        return real(csgraph, *args, **kwargs)

    monkeypatch.setattr(graph, "_cc", counted)
    return calls


def _assert_same_labels(got, expected):
    assert got[0] == expected[0]
    assert got[1].dtype == np.int64 and not got[1].flags.writeable
    assert np.array_equal(got[1], expected[1])


class TestStrongLabelCertificates:
    """g's and H's strong labels from the graph's structure equal the
    solve's, and the solve runs exactly where no certificate holds."""

    @pytest.mark.parametrize("g, certified", CERTIFICATE_CASES)
    def test_labels_equal_the_solve(self, g, certified, monkeypatch):
        h = build_hashimoto(g)
        g_solved, h_solved = _strong_labels(g.pattern), _strong_labels(h.pattern)
        calls = _solves(monkeypatch)
        _assert_same_labels(g.strong_labels, g_solved)
        _assert_same_labels(h.strong_labels, h_solved)
        solved = [id(m) for m in calls]
        assert solved.count(id(g.pattern)) == ("g" not in certified and g.n > 0)
        assert solved.count(id(h.pattern)) == ("H" not in certified and h.n_arcs > 0)
        assert len(calls) == solved.count(id(g.pattern)) + solved.count(id(h.pattern))

    def test_random_symmetric(self, monkeypatch):
        rng = np.random.default_rng(0)
        calls = _solves(monkeypatch)
        certified = 0
        for _ in range(300):
            n = int(rng.integers(2, 14))
            pairs = rng.integers(0, n, size=(int(rng.integers(1, 4 * n)), 2))
            g = _sym(n, sorted({(min(u, v), max(u, v)) for u, v in pairs.tolist() if u != v}))
            self._check(g, calls)
            certified += not calls
        assert 50 < certified < 250, certified  # both paths are exercised

    @staticmethod
    def _check(g, calls):
        """Compare both labelings with the solve; ``calls`` is left holding
        the solves that the labelings made."""
        h = build_hashimoto(g)
        expected = _strong_labels(g.pattern), _strong_labels(h.pattern)
        calls.clear()
        _assert_same_labels(g.strong_labels, expected[0])
        _assert_same_labels(h.strong_labels, expected[1])

    @pytest.mark.parametrize("g", [
        pytest.param(case.values[0], id=case.id) for case in CERTIFICATE_CASES
        if "H" not in case.values[1]
    ])
    def test_fallback_names_the_same_arc(self, g):
        h = build_hashimoto(g)
        ncomp, labels = _strong_labels(h.pattern)
        arc_id = _smallest_block_member(labels, np.bincount(labels, minlength=ncomp))
        assert olg_strongly_connected(h) == (arc_id is None, arc_id)
        if arc_id is not None:
            with pytest.raises(NotStronglyConnectedError) as err:
                left_perron_vector(h)
            assert err.value.arc == (int(g.tails[arc_id]), int(g.heads[arc_id]))
