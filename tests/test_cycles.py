from fractions import Fraction

import pytest

from nbperc import (
    build_hashimoto,
    enumerate_elementary_circuits,
    expected_sac_count,
    gen_erdos_renyi_digraph,
    nb_cycle_count,
    trace_power,
)
from nbperc.errors import CapExceededError

from conftest import arc_pairs


class TestEnumeration:
    def test_cycle_single_circuit(self, c3):
        rep = enumerate_elementary_circuits(c3)
        assert rep.circuits == [(0, 1, 2)]
        assert rep.sac_count_by_length == {3: 1}

    def test_path_sym_two_length2(self, p3sym):
        rep = enumerate_elementary_circuits(p3sym)
        assert rep.counts_by_length == {2: 2}
        assert rep.sac_count_by_length == {}

    def test_complete_sym_census(self, k4sym):
        rep = enumerate_elementary_circuits(k4sym, max_len=4)
        assert rep.counts_by_length == {2: 6, 3: 8, 4: 6}
        assert rep.sac_count_by_length == {3: 8, 4: 6}
        assert len(rep.circuits) == 20

    def test_max_len_filters(self, k4sym):
        rep = enumerate_elementary_circuits(k4sym, max_len=3)
        assert rep.counts_by_length == {2: 6, 3: 8}

    def test_canonical_forms_unique(self):
        for seed in range(10):
            g = gen_erdos_renyi_digraph(7, 0.35, seed)
            rep = enumerate_elementary_circuits(g)
            canon = set()
            for c in rep.circuits:
                assert c[0] == min(c)
                assert len(set(c)) == len(c)
                canon.add(c)
            assert len(canon) == len(rep.circuits)

    def test_matches_networkx(self):
        import networkx as nx

        for seed in range(12):
            g = gen_erdos_renyi_digraph(8, 0.3, seed)
            d = nx.DiGraph()
            d.add_nodes_from(range(g.n))
            d.add_edges_from(arc_pairs(g))
            expected = {
                tuple(c[c.index(min(c)):] + c[:c.index(min(c))])
                for c in nx.simple_cycles(d)
            }
            rep = enumerate_elementary_circuits(g)
            assert set(rep.circuits) == expected

    def test_vertex_cap(self):
        g = gen_erdos_renyi_digraph(20, 0.1, 0)
        with pytest.raises(CapExceededError):
            enumerate_elementary_circuits(g)


class TestExpectedSac:
    def test_cycle(self, c3):
        rep = enumerate_elementary_circuits(c3)
        assert expected_sac_count(rep, 0.5) == pytest.approx(0.125)

    def test_p_zero(self, k4sym):
        rep = enumerate_elementary_circuits(k4sym)
        assert expected_sac_count(rep, 0.0) == 0.0

    def test_complete_sym(self, k4sym):
        rep = enumerate_elementary_circuits(k4sym)
        assert expected_sac_count(rep, 0.3) == pytest.approx(0.2646, abs=1e-10)


class TestNbCycleCount:
    def test_complete_sym_triangles(self, k4sym):
        assert nb_cycle_count(build_hashimoto(k4sym), 3) == Fraction(8)

    def test_cycle(self, c3):
        assert nb_cycle_count(build_hashimoto(c3), 3) == Fraction(1)

    def test_length_two_zero(self, k4sym):
        assert nb_cycle_count(build_hashimoto(k4sym), 2) == 0

    def test_length3_equals_sac_count(self):
        for seed in range(10):
            g = gen_erdos_renyi_digraph(8, 0.3, seed)
            h = build_hashimoto(g)
            if h.n_arcs == 0:
                continue
            rep = enumerate_elementary_circuits(g)
            assert nb_cycle_count(h, 3) == rep.sac_count_by_length.get(3, 0)

    def test_sac_counts_below_walk_counts(self):
        for seed in range(8):
            g = gen_erdos_renyi_digraph(7, 0.35, seed)
            h = build_hashimoto(g)
            if h.n_arcs == 0:
                continue
            rep = enumerate_elementary_circuits(g)
            for s in range(3, g.n + 1):
                walks = Fraction(trace_power(h, s), s)
                assert rep.sac_count_by_length.get(s, 0) <= walks
