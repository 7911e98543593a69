import tracemalloc

import numpy as np
import pytest

from nbperc import (
    DiGraph,
    PercolationConfig,
    SweepResult,
    estimate_out_prob,
    estimate_threshold,
    gen_complete_sym,
    gen_cycle,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_star_sym,
    induced_subgraph,
    measure_components,
    multiplicity_probe,
    sample_open_set,
    sweep,
    trial_rng,
)
from nbperc import percolation
from nbperc.cycles import VERTEX_CAP
from nbperc.errors import NoCrossingError
from nbperc.percolation import STAT_NAMES


def grid_sym(side):
    """side x side grid graph with both directions of every edge."""
    arcs = []
    for v in range(side * side):
        r, c = divmod(v, side)
        if c + 1 < side:
            arcs += [(v, v + 1), (v + 1, v)]
        if r + 1 < side:
            arcs += [(v, v + side), (v + side, v)]
    return DiGraph(side * side, arcs)


def shuffled_arcs(g, seed):
    """g with its arc ids permuted."""
    order = np.random.default_rng(seed).permutation(g.n_arcs)
    return DiGraph.from_arrays(g.n, g.tails[order], g.heads[order])


def without_arc(g, a):
    """g without arc a."""
    keep = np.arange(g.n_arcs) != a
    return DiGraph.from_arrays(g.n, g.tails[keep], g.heads[keep])


def sym_islands():
    """A symmetric path, triangle and edge among 20 vertices, 11 of them
    isolated."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (8, 9), (9, 10), (8, 10), (14, 15)]
    return DiGraph(20, [arc for u, v in edges for arc in ((u, v), (v, u))])


def fan(sources):
    """sources vertices 0.., each with one arc to the head of a chain of
    sources more vertices."""
    chain = np.arange(sources, 2 * sources)
    return DiGraph.from_arrays(2 * sources, np.concatenate((np.arange(sources), chain[:-1])),
                               np.concatenate((np.full(sources, sources), chain[1:])))


def diamond_chain(k):
    """k diamonds in series, vertex 3i forking to 3i + 1 and 3i + 2, which
    join at 3i + 3: 2**k paths from vertex 0 to vertex 3k."""
    base = 3 * np.arange(k)
    tails = np.stack((base, base, base + 1, base + 2), axis=1).ravel()
    heads = np.stack((base + 1, base + 2, base + 3, base + 3), axis=1).ravel()
    return DiGraph.from_arrays(3 * k + 1, tails, heads)


class TestSampling:
    def test_extremes(self):
        rng = trial_rng(0, 0)
        assert not sample_open_set(50, 0.0, rng).any()
        assert sample_open_set(50, 1.0, rng).all()

    def test_binomial_concentration(self):
        rng = trial_rng(123, 0)
        counts = [sample_open_set(10000, 0.3, rng).sum() for _ in range(20)]
        sigma = (10000 * 0.3 * 0.7) ** 0.5
        for c in counts:
            assert abs(c - 3000) < 5 * sigma

    def test_stream_determinism(self):
        a = sample_open_set(100, 0.5, trial_rng(7, 1, 2))
        b = sample_open_set(100, 0.5, trial_rng(7, 1, 2))
        assert (a == b).all()


class TestMeasure:
    def test_cycle_all_open(self, c3):
        st = measure_components(c3)
        assert (st.largest_scc, st.largest_out, st.largest_in) == (3, 3, 3)

    def test_cycle_one_closed(self, c3):
        sub, _ = induced_subgraph(c3, {0, 2})
        st = measure_components(sub, n_reference=3)
        assert st.largest_scc == 1
        assert st.largest_out == 2  # root 2 reaches {2, 0}
        assert st.largest_in == 2

    def test_empty(self):
        st = measure_components(DiGraph(0, []))
        assert st == type(st)(0, 0, 0, 0, 0)

    def test_giant_count_is_relative_to_n_reference(self):
        # 5 vertices exceed 0.1 of 5 but not 0.1 of 100.
        c5 = gen_cycle(5)
        assert measure_components(c5, giant_fraction=0.1).giant_count == 1
        assert measure_components(c5, giant_fraction=0.1, n_reference=100).giant_count == 0

    def test_out_in_dominate_scc(self):
        for seed in range(15):
            g = gen_erdos_renyi_digraph(40, 0.06, seed)
            for coupled in (True, False):
                config = PercolationConfig(p_grid=(0.5, 0.7, 0.9), trials=3,
                                           master_seed=seed, coupled=coupled)
                stats = sweep(g, config).stats
                assert (stats["largest_out"] >= stats["largest_scc"]).all()
                assert (stats["largest_in"] >= stats["largest_scc"]).all()

    def test_directed_path_reaches_every_vertex(self):
        # 50,000 one-vertex components: condensation keys of arc pairs
        # exceed the int32 range of the component labels.
        n = 50000
        g = DiGraph.from_arrays(n, np.arange(n - 1), np.arange(1, n))
        st = measure_components(g)
        assert (st.largest_scc, st.second_scc, st.largest_out, st.largest_in) == (1, 1, n, n)

    def test_fan_reach_masses(self):
        # 2,000 condensation sources, each reaching the 2,000-vertex chain.
        st = measure_components(fan(2000))
        assert (st.largest_out, st.largest_in) == (2001, 4000)

    @pytest.mark.parametrize("g", [
        pytest.param(grid_sym(10), id="lattice10"),
        pytest.param(shuffled_arcs(gen_random_regular_sym(60, 3, 5), 1), id="regular60-shuffled"),
        pytest.param(sym_islands(), id="sym-islands20"),
        pytest.param(without_arc(grid_sym(10), 11), id="lattice10-one-way"),
        pytest.param(without_arc(gen_complete_sym(8), 3), id="complete8-one-way"),
    ])
    def test_matches_point_oracle(self, g):
        # Open induced subgraphs of symmetric inputs are symmetric; those of
        # the one-way inputs are symmetric unless both ends of the missing
        # arc's reverse are open, as at p = 1.
        from conftest import _point_stats

        symmetric = []
        for p in (0.4, 0.7, 1.0):
            for seed in range(4):
                mask = sample_open_set(g.n, p, trial_rng(seed, 3))
                sub, _ = induced_subgraph(g, np.flatnonzero(mask))
                symmetric.append(2 * sub.symmetric_pair_count == sub.n_arcs)
                expected = percolation.ComponentStats(*_point_stats(g, mask, 0.05))
                assert measure_components(sub, 0.05, n_reference=g.n) == expected
        assert all(symmetric) == (2 * g.symmetric_pair_count == g.n_arcs)

    def test_out_component_matches_bruteforce(self):
        from conftest import reachability_closure

        for seed in range(15):
            g = gen_erdos_renyi_digraph(12, 0.15, seed)
            rng = trial_rng(seed, 1)
            mask = sample_open_set(g.n, 0.8, rng)
            sub, _ = induced_subgraph(g, np.flatnonzero(mask))
            st = measure_components(sub, n_reference=g.n)
            if sub.n == 0:
                assert st.largest_out == 0
                continue
            reach = reachability_closure(sub)
            assert st.largest_out == int(reach.sum(axis=1).max())
            assert st.largest_in == int(reach.sum(axis=0).max())


def search_only(monkeypatch):
    """Make the exact counts fail the test if they run, and return the
    list that records the runs of _search_counts: one per draw block and
    p.  The sampler never counts exactly, whatever the graph's size and
    the number of rows."""
    search, calls = percolation._search_counts, []

    def run(*args):
        calls.append(None)
        return search(*args)

    monkeypatch.setattr(percolation, "_reach_counts",
                        lambda *args: pytest.fail("_reach_counts ran in _out_probs"))
    monkeypatch.setattr(percolation, "_search_counts", run)
    return calls


class TestOutProb:
    def test_p_zero(self, c3):
        est = estimate_out_prob(c3, 0, 0.0, 3, 100, 0)
        assert (est.p_hat == 0).all()

    def test_p_one_deterministic(self, c3):
        est = estimate_out_prob(c3, 0, 1.0, 5, 50, 0)
        assert (est.p_hat[:3] == 1.0).all()
        assert (est.p_hat[3:] == 0.0).all()

    def test_cycle_exact_p2(self, c3):
        # P(size >= 2 from root 0) = P(0 open) * P(1 open) = 0.25.
        est = estimate_out_prob(c3, 0, 0.5, 3, 100000, 12345)
        assert abs(est.p_hat[1] - 0.25) < 3 * max(est.stderr[1], 1e-4)

    def test_monotone_in_m(self):
        g = gen_erdos_renyi_digraph(30, 0.1, 0)
        est = estimate_out_prob(g, 0, 0.4, 10, 5000, 3)
        assert (np.diff(est.p_hat) <= 1e-12).all()

    def test_matches_reachability_oracle(self):
        # Replay each trial's draws and count the open vertices reachable
        # from the root by boolean closure on the open-open arcs.
        from conftest import reachability_closure

        m_max, trials, seed = 5, 300, 11
        for s in range(5):
            g = gen_erdos_renyi_digraph(12, 0.2, s)
            for v in (0, 7):
                for p in (0.3, 0.6, 0.9):
                    opens = trial_rng(seed, v).random((trials, g.n)) < p
                    sizes = []
                    for row in opens:
                        if not row[v]:
                            sizes.append(0)
                            continue
                        keep = row[g.tails] & row[g.heads]
                        sub = DiGraph.from_arrays(g.n, g.tails[keep], g.heads[keep])
                        sizes.append(min(int(reachability_closure(sub)[v].sum()), m_max))
                    expected = [sum(k >= m for k in sizes) / trials for m in range(1, m_max + 1)]
                    est = estimate_out_prob(g, v, p, m_max, trials, seed)
                    assert est.p_hat.tolist() == expected

    def test_block_size_leaves_estimate_unchanged(self, monkeypatch):
        g = gen_erdos_renyi_digraph(30, 0.1, 0)  # through the search
        default = estimate_out_prob(g, 0, 0.5, 10, 3000, 3)
        for block in (1, 77):  # one row per block; two rows per block
            monkeypatch.setattr(percolation, "BLOCK_ENTRIES", block)
            est = estimate_out_prob(g, 0, 0.5, 10, 3000, 3)
            assert est.p_hat.tolist() == default.p_hat.tolist()

    @pytest.mark.parametrize("g, v", [
        *[pytest.param(gen_erdos_renyi_digraph(40, 0.08, s), v, id=f"er40-{s}-root{v}")
          for s in range(5) for v in (0, 18)],  # out-degree 0: root 0 at s = 4, 18 at s = 2
        *[pytest.param(gen_random_regular_sym(16, 3, s), v, id=f"regular16-{s}-root{v}")
          for s in range(2) for v in range(3)],  # the shape of the validate benchmark
        pytest.param(gen_random_regular_sym(60, 3, 1), 0, id="regular60"),
        pytest.param(gen_star_sym(50), 0, id="star50-hub"),
        pytest.param(gen_star_sym(50), 1, id="star50-leaf"),
        pytest.param(gen_path_sym(30), 0, id="path30"),
        pytest.param(DiGraph(1, []), 0, id="one-vertex"),
        # Open sets of 63 vertices fit in an int64 with the sign bit clear;
        # of 64 they do not.  The search takes both.
        pytest.param(gen_path_sym(63), 0, id="path63"),  # 62 rounds at p = 1
        pytest.param(gen_erdos_renyi_digraph(63, 0.05, 1), 0, id="er63"),
        pytest.param(DiGraph(63, [(u, 0) for u in range(1, 63)]), 0, id="in-star63-hub"),
        pytest.param(gen_path_sym(64), 0, id="path64"),
        pytest.param(gen_erdos_renyi_digraph(64, 0.05, 1), 0, id="er64"),
        pytest.param(DiGraph(64, [(u, 0) for u in range(1, 64)]), 0, id="in-star64-hub"),
    ])
    def test_matches_capped_dfs(self, g, v, monkeypatch):
        # Bitwise against one capped depth-first search per trial, with the
        # trials in one block, one row per block, and a few rows per block,
        # all through the search.
        from conftest import capped_dfs_out_prob

        calls = search_only(monkeypatch)
        for block in (percolation.BLOCK_ENTRIES, 1, 77, 1000):
            monkeypatch.setattr(percolation, "BLOCK_ENTRIES", block)
            for m_max in (1, 2, 20, g.n + 1):
                for p in (0.0, 0.35, 1.0):
                    est = estimate_out_prob(g, v, p, m_max, 200, 9)
                    p_hat, stderr = capped_dfs_out_prob(g, v, p, m_max, 200, 9)
                    assert est.p_hat.tobytes() == p_hat.tobytes()
                    assert est.stderr.tobytes() == stderr.tobytes()
        assert calls

    @pytest.mark.parametrize("g, trials", [
        # Both sides of 2**(n-1) <= trials, where the open sets that hold
        # the root are no more than the rows, with a byte boundary between
        # 8 and 9 vertices, and past VERTEX_CAP.
        pytest.param(DiGraph(1, []), 1, id="n1-at"),
        pytest.param(gen_erdos_renyi_digraph(8, 0.3, 2), 127, id="n8-under"),
        pytest.param(gen_erdos_renyi_digraph(8, 0.3, 2), 128, id="n8-at"),
        pytest.param(gen_erdos_renyi_digraph(9, 0.3, 2), 255, id="n9-under"),
        pytest.param(gen_erdos_renyi_digraph(9, 0.3, 2), 256, id="n9-at"),
        pytest.param(gen_random_regular_sym(16, 3, 4), 2**15 - 1, id="n16-under"),
        pytest.param(gen_random_regular_sym(16, 3, 4), 2**15, id="n16-at"),
        pytest.param(gen_erdos_renyi_digraph(17, 0.2, 1), 2**16, id="n17"),
    ])
    def test_kernel_rule_matches_capped_dfs(self, g, trials, monkeypatch):
        # Bitwise against one capped depth-first search per trial, through
        # the search on each side of that boundary.
        from conftest import capped_dfs_out_prob

        calls = search_only(monkeypatch)
        for m_max in (2, g.n + 1):
            for p in (0.35, 0.8):
                est = estimate_out_prob(g, 0, p, m_max, trials, 9)
                p_hat, stderr = capped_dfs_out_prob(g, 0, p, m_max, trials, 9)
                assert est.p_hat.tobytes() == p_hat.tobytes()
                assert est.stderr.tobytes() == stderr.tobytes()
        assert len(calls) >= 4  # at least one search per call

    @pytest.mark.parametrize("g", [
        pytest.param(gen_erdos_renyi_digraph(8, 0.3, 2), id="er8"),
        pytest.param(gen_erdos_renyi_digraph(12, 0.2, 3), id="er12"),
        pytest.param(gen_random_regular_sym(16, 3, 4), id="regular16"),
        pytest.param(gen_erdos_renyi_digraph(63, 0.05, 1), id="er63"),
        pytest.param(gen_erdos_renyi_digraph(64, 0.05, 1), id="er64"),
        pytest.param(gen_star_sym(80), id="star80-hub"),
    ])
    def test_p_list_matches_one_call_per_p(self, g, monkeypatch):
        # One draw per block for the whole p list, unsorted with repeats
        # and both ends, is bitwise the same as one call per p, however
        # many blocks the trials span; and the same as one capped
        # depth-first search per trial.  The 2,400 rows of the list are
        # more than the open sets that hold the root up to 12 vertices.
        from conftest import capped_dfs_out_prob

        ps = (0.6, 0.0, 0.35, 1.0, 0.35, 0.15)
        oracle = {p: capped_dfs_out_prob(g, 0, p, 12, 400, 7) for p in ps}
        for block, blocks in ((percolation.BLOCK_ENTRIES, 1), (1, 400), (2000, 2)):
            monkeypatch.setattr(percolation, "BLOCK_ENTRIES", block)
            with pytest.MonkeyPatch.context() as mp:
                calls = search_only(mp)
                together = percolation._out_probs(g, 0, ps, 12, 400, 7)
            assert len(calls) >= blocks * len(ps)  # one search per block and p
            assert len(together) == len(ps)
            for p, est in zip(ps, together):
                alone = estimate_out_prob(g, 0, p, 12, 400, 7)
                assert (est.vertex, est.p, est.trials) == (0, p, 400)
                assert est.m_values.tobytes() == alone.m_values.tobytes()
                assert est.p_hat.tobytes() == alone.p_hat.tobytes()
                assert est.stderr.tobytes() == alone.stderr.tobytes()
                assert est.p_hat.tobytes() == oracle[p][0].tobytes()

    @pytest.mark.parametrize("n, v", [(16, 16), (16, -1), (200, 200), (200, -1)])
    def test_root_is_checked(self, n, v):
        # The root is checked before any draw, on 16 vertices at 2**15
        # trials as on 200.
        g = gen_random_regular_sym(n, 3, 1)
        with pytest.raises(ValueError, match=rf"root {v} outside 0\.\.{n - 1}"):
            estimate_out_prob(g, v, 0.5, 5, 2 ** 15, 0)

    def test_p_list_is_checked(self, c3):
        with pytest.raises(ValueError, match="probability 1.5 outside"):
            percolation._out_probs(c3, 0, (0.5, 1.5), 3, 10, 0)

    @pytest.mark.parametrize("g, m_max", [
        pytest.param(gen_complete_sym(200), 200, id="complete200"),
        pytest.param(gen_star_sym(5000), 5001, id="star5000-hub"),
    ])
    def test_search_memory_is_bounded(self, g, m_max):
        # Blocks sized by vertices alone would hold 1,310 trials of the
        # complete graph, each scanning up to 199 × 199 arcs in one round;
        # the hub root scans 5,000 arcs per trial in one round.
        tracemalloc.start()
        try:
            estimate_out_prob(g, 0, 0.9, m_max, 3000, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("g", [
        *[pytest.param(gen_erdos_renyi_digraph(n, 2.5 / n, n), id=f"er{n}")
          for n in (50, 120, 500)],
        pytest.param(gen_random_regular_sym(16, 3, 4), id="regular16"),
    ])
    def test_counts_do_not_depend_on_scan_order(self, g):
        # The search may scan a vertex's out-arcs in any order: the capped
        # count min(reach, m_max) is the same whichever arcs a round takes.
        # The graph's out-CSR lists them by head, the arc ids by id, and a
        # seeded shuffle at random.
        rng = np.random.default_rng(7)
        ptr = g.out_ptr
        tails = np.repeat(np.arange(g.n), np.diff(ptr))
        shuffled = g.out_heads[np.lexsort((rng.random(g.n_arcs), tails))]
        by_id = g.heads[np.argsort(g.tails, kind="stable")]
        for v in (0, g.n - 1):
            opens = trial_rng(3, v).random((300, g.n)) < 0.6
            for m_max in (1, 3, 20):
                counts = [percolation._search_counts(ptr, heads, v, m_max, opens.copy(),
                                                     np.empty(opens.size, dtype=np.int64))
                          for heads in (g.out_heads, by_id, shuffled)]
                assert counts[0].tolist() == counts[1].tolist() == counts[2].tolist()
                assert counts[0].max() >= min(m_max, 3)  # searches run past the root

    def test_table_memory_is_bounded(self):
        # The largest graph of the exact counts, with every vertex reaching
        # every other: sampled at 10**5 trials by the search, and counted
        # from the 2**15 uint16 words of the sets that hold the root.
        g = gen_complete_sym(VERTEX_CAP)
        for count in (lambda: percolation._out_probs(g, 0, (0.1, 0.2, 0.3, 0.4, 0.45),
                                                     20, 100000, 1),
                      lambda: percolation._reach_counts(g, 0)):
            tracemalloc.start()
            try:
                count()
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 2 * 2**20

    def test_draw_memory_is_bounded(self):
        # 20,000 trials on 2,000 vertices would be 320 MB of uniforms in
        # one draw.
        g = gen_random_regular_sym(2000, 3, 1)
        tracemalloc.start()
        try:
            estimate_out_prob(g, 0, 0.4, 20, 20000, 5)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestReachCounts:
    @pytest.mark.parametrize("g", [
        *[pytest.param(gen_erdos_renyi_digraph(8, 0.25, s), id=f"er8-{s}") for s in range(3)],
        pytest.param(gen_erdos_renyi_digraph(8, 0.3, 1), id="er8"),
        pytest.param(gen_erdos_renyi_digraph(9, 0.25, 2), id="er9"),
        pytest.param(gen_erdos_renyi_digraph(10, 0.2, 3), id="er10"),
        pytest.param(gen_erdos_renyi_digraph(7, 0.4, 5), id="er7"),
        pytest.param(DiGraph(8, [(u, 0) for u in range(1, 8)]), id="in-star8"),
        pytest.param(DiGraph(8, [(u, u + 1) for u in range(7)]), id="path8"),
        pytest.param(gen_path_sym(6), id="path6-sym"),
        pytest.param(DiGraph(1, []), id="one-vertex"),
        pytest.param(DiGraph(2, [(0, 1)]), id="two-vertices"),
        *[pytest.param(name, id=name) for name in ("c3", "p3sym", "k4sym", "star3sym",
                                                    "chord")],
    ])
    def test_matches_one_search_per_open_set(self, g, request):
        from conftest import brute_reach_counts

        if isinstance(g, str):
            g = request.getfixturevalue(g)
        for v in range(g.n):
            counts = percolation._reach_counts(g, v)
            assert counts.dtype == np.int64
            assert counts.tolist() == brute_reach_counts(g, v)
            # Every open set that holds v, counted once.
            assert counts.sum() == 2 ** (g.n - 1)

    def test_rejects_more_than_16_vertices(self):
        with pytest.raises(ValueError, match="n <= 16, got 17"):
            percolation._reach_counts(gen_cycle(17), 0)

    @pytest.mark.parametrize("g, v", [
        pytest.param(gen_erdos_renyi_digraph(12, 0.2, 0), 0, id="er12-root0"),
        pytest.param(gen_erdos_renyi_digraph(12, 0.2, 0), 7, id="er12-root7"),
        pytest.param(gen_erdos_renyi_digraph(10, 0.3, 4), 3, id="er10"),
        pytest.param(DiGraph(9, [(u, 0) for u in range(1, 9)]), 0, id="in-star9-hub"),
        pytest.param(DiGraph(9, [(u, 0) for u in range(1, 9)]), 4, id="in-star9-leaf"),
        pytest.param(gen_path_sym(11), 5, id="path11"),
        pytest.param(gen_random_regular_sym(16, 3, 4), 1, id="regular16"),
        pytest.param(gen_complete_sym(5), 2, id="complete5"),
    ])
    def test_estimate_within_4_sigma_of_exact(self, g, v):
        from conftest import exact_out_prob

        trials = 100000
        for p in (0.2, 0.5, 0.85):
            exact = exact_out_prob(g, v, p, g.n + 1)
            est = estimate_out_prob(g, v, p, g.n + 1, trials, 2024)
            sigma = np.sqrt(exact * (1.0 - exact) / trials)
            assert (np.abs(est.p_hat - exact) <= 4 * sigma + 1e-12).all(), (p, est.p_hat, exact)

    def test_exact_theorem1_curve_on_validate_graph(self):
        # `nbperc gen regular 16 3 --seed 4`, roots 0-2, m up to 20: the
        # exact max_m m * P_m at three p.
        from conftest import exact_out_prob

        g = gen_random_regular_sym(16, 3, 4)
        m = np.arange(1, 21)
        for p, expected in ((0.1, 0.100000), (0.3, 0.396819), (0.45, 1.083044)):
            worst = max(float((m * exact_out_prob(g, v, p, 20)).max()) for v in range(3))
            assert round(worst, 6) == expected


class TestSweep:
    def test_trivial_full(self, c3):
        sr = sweep(c3, PercolationConfig(p_grid=(1.0,), trials=1, master_seed=0))
        assert sr.stats["largest_scc"][0, 0] == 3
        assert sr.means["largest_scc"][0] == 3.0

    def test_p_zero_all_zero(self, k4sym):
        sr = sweep(k4sym, PercolationConfig(p_grid=(0.0,), trials=4, master_seed=0))
        for name in STAT_NAMES:
            assert (sr.stats[name] == 0).all()

    def test_determinism_across_workers(self, monkeypatch, k4sym):
        # A NBPERC_THREADS left in the environment changes nothing.
        config = PercolationConfig(p_grid=(0.2, 0.6), trials=8, master_seed=99)
        monkeypatch.setenv("NBPERC_THREADS", "1")
        a = sweep(k4sym, config)
        monkeypatch.setenv("NBPERC_THREADS", "4")
        b = sweep(k4sym, config)
        for name in STAT_NAMES:
            assert (a.stats[name] == b.stats[name]).all()

    def test_coupled_monotone_per_trial(self):
        g = gen_erdos_renyi_digraph(50, 0.08, 2)
        config = PercolationConfig(
            p_grid=(0.2, 0.4, 0.6, 0.8, 1.0), trials=6, master_seed=5
        )
        sr = sweep(g, config)
        for name in ("largest_scc", "largest_out", "largest_in"):
            assert (np.diff(sr.stats[name], axis=0) >= 0).all()

    def test_independent_mode_differs_from_coupled(self, k4sym):
        base = dict(p_grid=(0.5, 0.7), trials=16, master_seed=3)
        a = sweep(k4sym, PercolationConfig(coupled=True, **base))
        b = sweep(k4sym, PercolationConfig(coupled=False, **base))
        assert a.coupled and not b.coupled

    @pytest.mark.parametrize("g", [
        *[pytest.param(gen_erdos_renyi_digraph(40, 0.06, s), id=f"er40-{s}") for s in (0, 1)],
        *[pytest.param(gen_erdos_renyi_digraph(12, 0.2, s), id=f"er12-{s}") for s in (0, 1)],
        pytest.param(grid_sym(12), id="lattice12"),
        pytest.param(gen_star_sym(8), id="star8"),
        pytest.param(DiGraph(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (1, 5)]),
                     id="dag6"),
        pytest.param(fan(8), id="fan16"),
        pytest.param(diamond_chain(20), id="diamonds20"),
        pytest.param(DiGraph(1, []), id="one-vertex"),
        pytest.param(DiGraph(0, []), id="empty"),
        pytest.param(shuffled_arcs(gen_random_regular_sym(30, 3, 2), 0), id="regular30-shuffled"),
        pytest.param(sym_islands(), id="sym-islands20"),
        pytest.param(without_arc(grid_sym(6), 7), id="lattice6-one-way"),
    ])
    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "independent"])
    def test_matches_per_point_oracle(self, g, coupled, monkeypatch):
        # Bitwise against one strong-component solve per grid point, with
        # one grid point (independent) or trial (coupled) per block, a few
        # per block and the default.  Both modes scatter each row into its
        # grid columns, and the coupled pass walks the grid in ascending
        # order, so they also run on grids that are unsorted, repeat a p or
        # are descending; the coupled pass also on more points than a uint8
        # step index holds.
        from conftest import per_point_sweep_stats

        grids = [(0.0, 0.3, 0.55, 0.8, 0.9, 1.0), (0.8, 0.0, 0.55, 1.0, 0.3, 0.9),
                 (0.3, 0.55, 0.9, 0.55, 1.0, 0.3), (1.0, 0.9, 0.8, 0.55, 0.3, 0.0)]
        if coupled:
            grids.append(tuple(np.linspace(0, 1, 301).tolist()))
        for p_grid in grids:
            config = PercolationConfig(p_grid=p_grid, trials=5, master_seed=7,
                                       coupled=coupled)
            expected = SweepResult(p_grid=config.p_grid, n=g.n, trials=config.trials,
                                   giant_fraction=config.giant_fraction, coupled=coupled,
                                   master_seed=config.master_seed,
                                   stats=per_point_sweep_stats(g, config)).finalize()
            for block in (percolation.BLOCK_ENTRIES, 1, 77):
                monkeypatch.setattr(percolation, "BLOCK_ENTRIES", block)
                sr = sweep(g, config)
                for name in STAT_NAMES:
                    assert sr.stats[name].tobytes() == expected.stats[name].tobytes()
                    assert sr.means[name].tobytes() == expected.means[name].tobytes()
                    assert sr.stderrs[name].tobytes() == expected.stderrs[name].tobytes()

    def test_oracle_inputs_run_reach_mass(self):
        # The directed inputs above have arcs between open strong
        # components, so the reach-mass pass is exercised.
        for s in (0, 1):
            st = measure_components(gen_erdos_renyi_digraph(40, 0.06, s))
            assert st.largest_out > st.largest_scc

    @pytest.mark.parametrize("g", [
        pytest.param(gen_star_sym(30), id="star30"),
        pytest.param(DiGraph(31, [arc for v in range(1, 31) for arc in
                                  ((0, v), (v, 0), (v, v % 30 + 1), (v % 30 + 1, v))]),
                     id="wheel30"),
        pytest.param(gen_complete_sym(12), id="complete12"),
        pytest.param(gen_erdos_renyi_digraph(60, 0.05, 3), id="er60"),
    ])
    def test_solves_see_no_repeated_arcs(self, g, monkeypatch):
        # SciPy's strong connected_components never returns on a CSR row
        # that holds a column twice.  The coupled pass contracts strong
        # components, which makes parallel arcs: a new vertex with arcs into
        # one older component (the wheel's hub, any vertex of the complete
        # graph), and arcs between components that merge (the digraph).
        # The star's hub, whose leaves stay apart, makes none.
        solves = []

        def checked_cc(csgraph, **kwargs):
            rows = np.repeat(np.arange(csgraph.shape[0]), np.diff(csgraph.indptr))
            key = rows * csgraph.shape[1] + csgraph.indices
            assert (np.diff(key) > 0).all(), "repeated or unsorted column in a CSR row"
            solves.append(csgraph.nnz)
            return real_cc(csgraph, **kwargs)

        real_cc = percolation._cc
        monkeypatch.setattr(percolation, "_cc", checked_cc)
        sweep(g, PercolationConfig(p_grid=tuple(np.linspace(0.05, 1, 20).tolist()),
                                   trials=10, master_seed=2))
        assert sum(solves) > 0

    def test_wide_block_matches_per_point_oracle(self):
        # 65 trials of 2,000 disjoint 2-cycles share a block.  At p = 0.9
        # the contracted graph has about 200,000 nodes, so its keys
        # tail * nodes + head pass 2**31.
        from conftest import per_point_sweep_stats

        g = DiGraph(4000, [arc for v in range(0, 4000, 2) for arc in ((v, v + 1), (v + 1, v))])
        config = PercolationConfig(p_grid=(0.5, 0.9), trials=70, master_seed=3)
        assert percolation.BLOCK_ENTRIES // g.n_arcs == 65
        sr = sweep(g, config)
        expected = per_point_sweep_stats(g, config)
        for name in STAT_NAMES:
            assert sr.stats[name].tobytes() == expected[name].tobytes()

    def test_sweep_memory_is_bounded(self):
        # Blocks sized by vertices alone would hold all 11 grid points of
        # the complete graph, 2.7 million arcs in one solve (52 MB).
        g = gen_complete_sym(500)
        config = PercolationConfig(p_grid=tuple(np.linspace(0.3, 1.0, 11).tolist()),
                                   trials=2, master_seed=1)
        tracemalloc.start()
        try:
            sweep(g, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20

    @pytest.mark.parametrize("coupled", [True, False], ids=["coupled", "independent"])
    def test_block_memory_is_bounded(self, coupled):
        # A block holds at most BLOCK_ENTRIES vertices and arcs (42 trials,
        # or all 9 grid points of a trial, here); all 400 coupled trials in
        # one block would peak near 70 MB.
        g = grid_sym(40)
        config = PercolationConfig(p_grid=tuple(np.linspace(0.4, 0.8, 9).tolist()),
                                   trials=400, master_seed=1, coupled=coupled)
        tracemalloc.start()
        try:
            sweep(g, config)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


SYMMETRIC_INPUTS = [
    pytest.param(grid_sym(9), id="lattice9"),
    pytest.param(gen_star_sym(15), id="star15"),
    pytest.param(gen_complete_sym(10), id="complete10"),
    pytest.param(gen_random_regular_sym(50, 3, 3), id="regular50"),
    pytest.param(shuffled_arcs(gen_random_regular_sym(50, 3, 3), 2), id="regular50-shuffled"),
]


class TestPathSelection:
    """Which solve runs, counted per call rather than timed."""

    def _record(self, monkeypatch, g, run):
        """run() with recorders on the component solve and the reach-mass
        search of percolation.  Returns (solves, searches): per solve its
        (directed, connection, stored arcs, whether its CSR rows are sorted
        without repeats, open arcs of g in its block at its grid point),
        and the number of reach-mass searches."""
        solves, bounds, searches = [], [], []
        real_cc, real_nested = percolation._cc, percolation._nested_stats
        real_masses = percolation._source_masses

        def cc(csgraph, **kwargs):
            rows = np.repeat(np.arange(csgraph.shape[0]), np.diff(csgraph.indptr))
            ordered = bool((np.diff(rows * csgraph.shape[1] + csgraph.indices) > 0).all())
            solves.append((kwargs["directed"], kwargs.get("connection"), csgraph.nnz, ordered))
            return real_cc(csgraph, **kwargs)

        def nested(n, tails, heads, draws, grid, *args):
            # A pass solves once at each grid point where some vertex opens.
            opens = draws[:, :, None] < np.asarray(grid)  # (rows, n, grid points)
            open_vertices = opens.sum(axis=(0, 1))
            open_arcs = (opens[:, g.tails] & opens[:, g.heads]).sum(axis=(0, 1))
            bounds.extend(open_arcs[np.diff(open_vertices, prepend=0) > 0].tolist())
            return real_nested(n, tails, heads, draws, grid, *args)

        def masses(*args):
            searches.append(args)
            return real_masses(*args)

        monkeypatch.setattr(percolation, "_cc", cc)
        monkeypatch.setattr(percolation, "_nested_stats", nested)
        monkeypatch.setattr(percolation, "_source_masses", masses)
        run()
        assert len(solves) == len(bounds) > 0
        return [s + (b,) for s, b in zip(solves, bounds)], len(searches)

    @staticmethod
    def _runs(g):
        config = dict(p_grid=tuple(np.linspace(0.1, 1.0, 10).tolist()), trials=6,
                      master_seed=4)
        return {
            "coupled": lambda: sweep(g, PercolationConfig(coupled=True, **config)),
            "independent": lambda: sweep(g, PercolationConfig(coupled=False, **config)),
            "measure": lambda: measure_components(g),
        }

    @pytest.mark.parametrize("mode", ["coupled", "independent", "measure"])
    @pytest.mark.parametrize("g", SYMMETRIC_INPUTS)
    def test_symmetric_inputs_solve_half_the_arcs_undirected(self, g, mode, monkeypatch):
        solves, searches = self._record(monkeypatch, g, self._runs(g)[mode])
        assert all(directed is False for directed, _, _, _, _ in solves)
        assert all(ordered for _, _, _, ordered, _ in solves)
        assert all(2 * nnz <= open_arcs for _, _, nnz, _, open_arcs in solves)
        assert any(nnz for _, _, nnz, _, _ in solves)
        assert searches == 0

    @pytest.mark.parametrize("mode", ["coupled", "independent", "measure"])
    @pytest.mark.parametrize("g", SYMMETRIC_INPUTS)
    def test_one_missing_reverse_arc_solves_strong(self, g, mode, monkeypatch):
        g = without_arc(g, 0)
        solves, _ = self._record(monkeypatch, g, self._runs(g)[mode])
        assert all(s[:2] == (True, "strong") for s in solves)
        assert all(ordered for _, _, _, ordered, _ in solves)


class TestThreshold:
    def _synthetic(self, p_grid, fracs, n=1000):
        sr = SweepResult(
            p_grid=tuple(p_grid), n=n, trials=10, giant_fraction=0.01,
            coupled=True, master_seed=0,
        )
        arr = np.tile((np.asarray(fracs) * n)[:, None], (1, 10)).astype(np.int64)
        for name in STAT_NAMES:
            sr.stats[name] = arr
        return sr.finalize()

    def test_interpolation_example(self):
        sr = self._synthetic([0.48, 0.52], [0.005, 0.02])
        pc, unc = estimate_threshold(sr)
        assert pc == pytest.approx(0.49333, abs=1e-4)
        assert unc > 0

    def test_no_crossing(self):
        sr = self._synthetic([0.1, 0.2], [0.0, 0.0])
        with pytest.raises(NoCrossingError):
            estimate_threshold(sr)

    def test_grid_order_is_irrelevant(self):
        # A coupled sweep draws the same vertices whatever its grid order,
        # so both estimates equal those of the ascending grid exactly.
        g = gen_random_regular_sym(2000, 3, 1)
        estimates = []
        for p_grid in ((0.3, 0.4, 0.5, 0.6, 0.7), (0.7, 0.6, 0.5, 0.4, 0.3),
                       (0.5, 0.3, 0.7, 0.4, 0.6)):
            sr = sweep(g, PercolationConfig(p_grid=p_grid, trials=20, master_seed=1))
            estimates.append([estimate_threshold(sr, criterion=c)
                              for c in ("giant-fraction-crossing", "susceptibility-peak")])
        assert estimates[0][0] == pytest.approx((0.3233, 0.0714), abs=1e-4)
        assert estimates[0][1][1] > 0
        assert estimates[1] == estimates[0]
        assert estimates[2] == estimates[0]

    @pytest.mark.parametrize("criterion", ["giant-fraction-crossing", "susceptibility-peak"])
    def test_repeated_p_is_rejected(self, criterion):
        sr = self._synthetic([0.1, 0.2, 0.2, 0.3], [0.001, 0.003, 0.02, 0.05])
        with pytest.raises(ValueError, match="repeats"):
            estimate_threshold(sr, criterion=criterion)

    def test_susceptibility_peak(self):
        sr = self._synthetic([0.1, 0.2, 0.3], [0.001, 0.003, 0.001])
        pc, _ = estimate_threshold(sr, criterion="susceptibility-peak")
        assert pc == pytest.approx(0.2, abs=1e-9)


class TestMultiplicity:
    def test_full_graph(self, c3):
        probe = multiplicity_probe(c3, [1.0], 3, 0)
        assert (probe.ratios == 0).all()
        assert (probe.giant_counts == 1).all()

    def test_empty(self, c3):
        probe = multiplicity_probe(c3, [0.0], 3, 0)
        assert (probe.ratios == 0).all()
        assert (probe.giant_counts == 0).all()
