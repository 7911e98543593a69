import random
import re
import tracemalloc

import numpy as np
import pytest

from nbperc import (
    DiGraph,
    build_hashimoto,
    gen_erdos_renyi_digraph,
    gen_random_regular_sym,
    induced_subgraph,
    is_robustly_strongly_connected,
    parse_edge_list,
    serialize_edge_list,
    strongly_connected_components,
    symmetric_arc_pairs,
)
from nbperc import graph
from nbperc.errors import GraphStructureError, ParseError
from nbperc.graph import _parse_bytes, _parse_lines

from conftest import arc_pairs, brute_scc_partition


class TestParse:
    def test_directed_transcription(self):
        g = parse_edge_list("0 1\n1 2\n2 0")
        assert g.n == 3
        assert arc_pairs(g) == [(0, 1), (1, 2), (2, 0)]

    def test_undirected_symmetrization(self):
        g = parse_edge_list("0 1\n1 2", undirected=True)
        assert arc_pairs(g) == [(0, 1), (1, 0), (1, 2), (2, 1)]

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\n0 0")
        assert exc.value.line == 2

    def test_duplicate_arc_rejected(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\n0 1")
        assert exc.value.line == 2

    def test_malformed_line_reports_number(self):
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\nbogus line here")
        assert exc.value.line == 2

    def test_header_fixes_vertex_count(self):
        g = parse_edge_list("#n 5\n0 1")
        assert g.n == 5

    def test_header_too_small(self):
        with pytest.raises(ParseError):
            parse_edge_list("#n 2\n0 3")

    def test_comments_ignored(self):
        g = parse_edge_list("# a comment\n0 1\n\n# another\n1 0")
        assert arc_pairs(g) == [(0, 1), (1, 0)]

    def test_roundtrip(self):
        for seed in range(5):
            g = gen_erdos_renyi_digraph(12, 0.2, seed)
            g2 = parse_edge_list(serialize_edge_list(g))
            assert g2.n == g.n
            assert arc_pairs(g2) == arc_pairs(g)

    def test_int_tokens_and_line_breaks_as_python_reads_them(self):
        g = parse_edge_list("0 1\r\n+2\t1_0\x0b\u0663 0\r\n\n  #n 12  ")
        assert g.n == 12
        assert arc_pairs(g) == [(0, 1), (2, 10), (3, 0)]
        with pytest.raises(ParseError) as exc:
            parse_edge_list("0 1\r\n1 2\r0 x")
        assert exc.value.line == 3


def _read_lines(text, undirected):
    """Line-by-line reading of valid edge-list text: (declared n, arcs)."""
    declared_n, arcs = None, []
    for raw in text.splitlines():
        line = raw.strip()
        if line.startswith("#"):
            parts = line[1:].split()
            if parts[:1] == ["n"]:
                declared_n = int(parts[1])
        elif line:
            u, v = (int(tok) for tok in line.split())
            arcs += [(u, v), (v, u)] if undirected else [(u, v)]
    return declared_n, arcs


def test_bulk_parse_matches_line_by_line_reading():
    rng = random.Random(7)
    spaces = [" ", "\t", "  ", "\x1f", "\u3000"]
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x1c", "\u2028", "\n\n"]
    spellings = [
        str,
        lambda x: f"+{x}",
        lambda x: f"00{x}",
        lambda x: "_".join(str(x)),
        lambda x: "".join(chr(0x660 + int(d)) for d in str(x)),  # Arabic-Indic digits
    ]
    for _ in range(200):
        undirected = rng.random() < 0.5
        n = rng.randint(2, 30)
        pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 40))}
        pairs = [p if undirected or rng.random() < 0.5 else p[::-1] for p in sorted(pairs)]
        lines = []
        for u, v in pairs:
            if rng.random() < 0.1:
                lines.append(rng.choice(["", "# note", f"#n {n + rng.randint(0, 3)}", "#n5"]))
            spell_u, spell_v = rng.choice(spellings), rng.choice(spellings)
            lines.append(rng.choice(["", " "]) + spell_u(u) + rng.choice(spaces)
                         + spell_v(v) + rng.choice(["", "\t"]))
        text = "".join(line + rng.choice(breaks) for line in lines)
        declared_n, arcs = _read_lines(text, undirected)
        g = parse_edge_list(text, undirected=undirected)
        max_id = max((max(a) for a in arcs), default=-1)
        assert g.n == (max_id + 1 if declared_n is None else declared_n)
        assert arc_pairs(g) == arcs


# (text, undirected, exact message, line); the message carries the line.
PARSE_ERRORS = [
    ("0 1\n1 x", False, "line 2: non-integer vertex id in '1 x'", 2),
    ("0 1\n\n-1 2", False, "line 3: negative vertex id in '-1 2'", 3),
    ("0 1 2", False, "line 1: expected two vertex ids, got 3 tokens", 1),
    ("0 1\n#n", False, "line 2: malformed '#n' header", 2),
    ("#n x\n0 1", False, "line 1: bad vertex count 'x'", 1),
    ("#n -3\n0 1", False, "line 1: negative vertex count -3", 1),
    ("#n 2\n0 1\n1 2", False, "vertex id 2 exceeds declared count 2", None),
    ("0 1\n1 0", True, "line 2: duplicate arc (1, 0)", 2),
    ("#n 3\n0 1\n2 2\n5 x\n0 1\n7 8", False, "line 3: self-loop (2,2)", 3),
    ("0 1\n9223372036854775808 1", False,
     "line 2: vertex id too large in '9223372036854775808 1'", 2),
    # Just above the vertex budget: refused before any vertex-sized array.
    (f"0 1\n{graph.MAX_VERTICES} 1", False,
     f"line 2: vertex id too large in '{graph.MAX_VERTICES} 1'", 2),
    (f"#n {graph.MAX_VERTICES + 1}\n0 1", False,
     f"line 1: vertex count {graph.MAX_VERTICES + 1} too large", 1),
]


@pytest.mark.parametrize("text,undirected,message,line", PARSE_ERRORS)
def test_parse_error_message_and_line(text, undirected, message, line):
    with pytest.raises(ParseError) as exc:
        parse_edge_list(text, undirected=undirected)
    assert str(exc.value) == message
    assert exc.value.line == line


@pytest.mark.parametrize("text,undirected,message,line", PARSE_ERRORS)
def test_line_scan_error_message_and_line(text, undirected, message, line):
    with pytest.raises(ParseError) as exc:
        _parse_lines(text, undirected)
    assert str(exc.value) == message
    assert exc.value.line == line


def test_vertex_budget_checked_before_allocation():
    # An input just above the budget would need two int64 arrays of 128 MiB.
    assert graph._header(f"#n {graph.MAX_VERTICES}", 1) == graph.MAX_VERTICES
    for text in (f"0 {graph.MAX_VERTICES}\n", f"#n {graph.MAX_VERTICES + 1}\n0 1\n"):
        tracemalloc.start()
        try:
            with pytest.raises(ParseError, match="too large"):
                parse_edge_list(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def test_byte_classes_match_str_methods():
    for byte in range(128):
        c = chr(byte)
        expected = (graph._BREAK if len(f"a{c}b".splitlines()) == 2
                    else graph._SPACE if c.isspace()
                    else graph._DIGIT if c in "0123456789" else graph._OTHER)
        assert graph._BYTE_CLASS[byte] == expected, repr(c)


def _plain_ascii_edge_list(rng):
    """(text, undirected): plain ASCII edge-list text in every spelling the
    byte reader takes; mostly valid, invalid where a line gets a '#' or
    two more ids after its two ids."""
    breaks = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\n\n"]
    spaces = [" ", "\t", "\x1f", " \t"]
    comments = ["", "# n 7", "#n5", "# a 1 2", "#", "  # a # b", "#n 7"]
    undirected = rng.random() < 0.5
    n = rng.randint(2, 7)  # under the "# n 7" header
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 15))}
    pairs = [p if undirected or rng.random() < 0.5 else p[::-1] for p in sorted(pairs)]
    padded = rng.random() < 0.3
    lines = ["#n 7"] if padded else []
    for u, v in pairs:
        if rng.random() < 0.2:
            lines.append(rng.choice(comments))
        u, v = (str(x).zfill(18) if padded else rng.choice(["", "0", "00"]) + str(x)
                for x in (u, v))
        tail = rng.choice([" # mid-line", " 0 1"] if rng.random() < 0.02 else ["", " ", "\t"])
        lines.append(rng.choice(["", " ", "\x1f"]) + u + rng.choice(spaces) + v + tail)
    return "".join(line + rng.choice(breaks) for line in lines), undirected


def _outcome(parse, text, undirected):
    try:
        g = parse(text, undirected)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)
    return g.n, arc_pairs(g)


def test_plain_ascii_is_read_in_bulk(monkeypatch):
    rng = random.Random(11)
    inputs = [_plain_ascii_edge_list(rng) for _ in range(400)]
    expected = [_outcome(_parse_lines, text, undirected) for text, undirected in inputs]
    monkeypatch.setattr(graph, "_parse_lines", lambda *args: pytest.fail("line scan"))
    valid = 0
    for (text, undirected), want in zip(inputs, expected):
        if isinstance(want[0], int):
            valid += 1
            assert _outcome(parse_edge_list, text, undirected) == want, repr(text)
    assert valid > 300


def test_corrupted_plain_ascii_fails_as_the_line_scan_does():
    rng = random.Random(12)
    checked = 0
    for _ in range(400):
        text, undirected = _plain_ascii_edge_list(rng)
        assert (_outcome(parse_edge_list, text, undirected)
                == _outcome(_parse_lines, text, undirected)), repr(text)
        if not text:
            continue
        at = rng.randrange(len(text))
        text = text[:at] + chr(rng.randrange(128)) + text[at + 1:]
        # A digit can join ids into one large id, and a graph with that
        # many vertices would not fit in memory.
        if max(map(int, re.findall("[0-9]+", text)), default=0) >= 10**6:
            continue
        checked += 1
        assert (_outcome(parse_edge_list, text, undirected)
                == _outcome(_parse_lines, text, undirected)), repr(text)
    assert checked > 200


def test_byte_reader_width_limit():
    # 18 digits are read in bulk, all of them ...
    with pytest.raises(ValueError, match="vertex id 999999999999999999 exceeds declared count 5"):
        _parse_bytes("#n 5\n0 999999999999999999", False)
    # ... and a 19-digit token goes to the line scan.
    with pytest.raises(ValueError, match="longer than 18 digits"):
        _parse_bytes("0000000000000000001 0", False)
    assert arc_pairs(parse_edge_list("0000000000000000001 0")) == [(1, 0)]


def test_parse_memory_is_bounded():
    # One Python str per token read 75 MB; the byte reader keeps a few
    # arrays per byte (uint8) and per word (int64).
    text = serialize_edge_list(gen_random_regular_sym(100000, 3, 1))
    tracemalloc.start()
    try:
        parse_edge_list(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 50 * 2**20


class TestDiGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphStructureError):
            DiGraph(2, [(0, 0)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphStructureError):
            DiGraph(2, [(0, 1), (0, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphStructureError):
            DiGraph(2, [(0, 2)])

    def test_reports_earliest_offending_arc(self):
        cases = [
            ([(0, 1), (1, 1), (0, 5), (0, 1)], "self-loop (1,1) not allowed"),
            ([(0, 1), (0, 1), (2, 2)], "duplicate arc (0,1)"),
            ([(0, 1), (3, 3), (1, 1)], "arc (3,3) references vertex outside 0..2"),
            ([(0, 1), (2**64, 0)], f"arc ({2**64},0) references vertex outside 0..2"),
        ]
        for arcs, message in cases:
            with pytest.raises(GraphStructureError) as exc:
                DiGraph(3, arcs)
            assert str(exc.value) == message

    def test_from_arrays_equals_pairs(self, chord):
        g = DiGraph.from_arrays(chord.n, chord.tails, chord.heads)
        assert g == chord and arc_pairs(g) == arc_pairs(chord)

    def test_out_csr_and_transitions(self, c3, chord):
        # The arcs leaving v are out_order[out_ptr[v]:out_ptr[v + 1]], in
        # arc-id order.
        assert c3.out_ptr.tolist() == [0, 1, 2, 3]
        assert c3.out_order.tolist() == [0, 1, 2]
        assert chord.out_ptr.tolist() == [0, 2, 3, 4]
        assert chord.out_order.tolist() == [0, 3, 1, 2]
        h = build_hashimoto(c3)
        assert h.pair_u.tolist() == [0, 1, 2]
        assert h.pair_v.tolist() == [1, 2, 0]

    def test_out_order_is_stable_argsort_of_tails(self):
        rng = np.random.default_rng(3)
        pairs = rng.permutation(np.argwhere(~np.eye(30, dtype=bool)))[:400]
        star = [(0, h) for h in rng.permutation(np.arange(1, 20)).tolist()]  # equal tails
        for g in (DiGraph(30, pairs), DiGraph(20, star), DiGraph(1, []), DiGraph(0, [])):
            assert g.out_order.tolist() == np.argsort(g.tails, kind="stable").tolist()


class TestComponents:
    def test_cycle_single_component(self, c3):
        lab = strongly_connected_components(c3)
        assert lab.count == 1
        assert lab.sizes.tolist() == [3]

    def test_disjoint_arcs_all_singletons(self):
        g = DiGraph(4, [(0, 1), (2, 3)])
        lab = strongly_connected_components(g)
        assert lab.count == 4
        assert sorted(lab.sizes.tolist()) == [1, 1, 1, 1]

    def test_chord_single_component(self, chord):
        lab = strongly_connected_components(chord)
        assert lab.count == 1
        assert lab.sizes.tolist() == [3]

    def test_condensation_order_is_topological(self):
        for seed in range(20):
            g = gen_erdos_renyi_digraph(10, 0.15, seed)
            lab = strongly_connected_components(g)
            pos = {c: i for i, c in enumerate(lab.condensation_order)}
            for t, h in arc_pairs(g):
                ct, ch = int(lab.component_id[t]), int(lab.component_id[h])
                if ct != ch:
                    assert pos[ct] < pos[ch]

    def test_matches_bruteforce_closure(self):
        for seed in range(40):
            n = 3 + seed % 5  # n <= 7
            g = gen_erdos_renyi_digraph(n, 0.3, seed)
            lab = strongly_connected_components(g)
            ours = {
                frozenset(np.flatnonzero(lab.component_id == c).tolist())
                for c in range(lab.count)
            }
            assert ours == brute_scc_partition(g)


class TestInduced:
    def test_identity(self, c3):
        sub, kept = induced_subgraph(c3, range(3))
        assert sub == c3
        assert kept == [0, 1, 2]

    def test_remap(self, c3):
        sub, kept = induced_subgraph(c3, {0, 2})
        assert kept == [0, 2]
        assert arc_pairs(sub) == [(1, 0)]  # old (2, 0) after dense relabel

    def test_empty(self, k4sym):
        sub, kept = induced_subgraph(k4sym, set())
        assert sub.n == 0 and sub.n_arcs == 0 and kept == []


class TestSymmetricPairs:
    def test_cycle_has_none(self, c3):
        assert symmetric_arc_pairs(c3) == []

    def test_path_pairs(self, p3sym):
        pairs = symmetric_arc_pairs(p3sym)
        assert len(pairs) == 2
        arcs = arc_pairs(p3sym)
        for a, b in pairs:
            t, h = arcs[a]
            assert arcs[b] == (h, t)

    def test_chord_single_pair(self, chord):
        pairs = symmetric_arc_pairs(chord)
        assert len(pairs) == 1
        a, b = pairs[0]
        arcs = arc_pairs(chord)
        assert {arcs[a], arcs[b]} == {(0, 2), (2, 0)}


class TestRobustStrongConnectivity:
    def test_complete_sym_true(self, k4sym):
        assert is_robustly_strongly_connected(k4sym)

    def test_chord_false(self, chord):
        # Deleting (2,0) leaves vertex 2 with no way back to 0.
        assert not is_robustly_strongly_connected(chord)

    def test_cycle_vacuous_true(self, c3):
        assert is_robustly_strongly_connected(c3)

    def test_matches_bruteforce_deletions(self):
        for seed in range(15):
            g = gen_erdos_renyi_digraph(8, 0.3, seed)
            expected = _nx_robust(g)
            assert is_robustly_strongly_connected(g) == expected


def _nx_robust(g):
    import networkx as nx

    def sc(arcs):
        d = nx.DiGraph()
        d.add_nodes_from(range(g.n))
        d.add_edges_from(arcs)
        return nx.is_strongly_connected(d)

    all_arcs = arc_pairs(g)
    if not sc(all_arcs):
        return False
    for aid, (t, h) in enumerate(all_arcs):
        if (h, t) in all_arcs:
            arcs = [a for i, a in enumerate(all_arcs) if i != aid]
            if not sc(arcs):
                return False
    return True
