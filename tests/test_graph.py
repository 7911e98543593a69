import random
import re
import tracemalloc

import numpy as np
import pytest

from nbperc import (
    DiGraph,
    build_hashimoto,
    gen_complete_sym,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_random_tree_sym,
    gen_star_sym,
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

from conftest import arc_pairs, brute_robust, brute_scc_partition


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


def _wide_gap_edge_list(rng):
    """(text, undirected): plain ASCII edge-list text whose words are
    parted by gaps of several bytes ("\r\n", blank lines, runs of spaces
    and tabs, runs of \x1c-\x1e breaks), with comments and '#n' headers
    right after such gaps.  A header below the largest id, or malformed,
    makes the text invalid."""
    breaks = ["\r\n", "\n\n", "\r\n\r\n", "\n \n", "\n\t\t\n", "\x1c\x1d", "\x1e\x1e\x1e",
              "\x1d\r\n", "\n", "\x1c"]
    spaces = [" ", "  ", "\t\t", " \t ", "\x1f\x1f", "\t"]
    undirected = rng.random() < 0.5
    n = rng.randint(2, 9)
    pairs = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(1, 12))}
    pairs = [p if undirected or rng.random() < 0.5 else p[::-1] for p in sorted(pairs)]
    top = max(max(p) for p in pairs)
    headers = [f"#n {top + 1}", f"#n {top + 3}", "# a 1 2", "#", "#\t1"]
    if rng.random() < 0.2:
        headers += [f"#n {top}", "#n", "#n 4 5", "#n x"]
    words = []
    for u, v in pairs:
        if rng.random() < 0.3:
            words.append(rng.choice(breaks) + rng.choice(["", " ", "\t  "]) + rng.choice(headers))
        words.append(rng.choice(breaks) + rng.choice(["", "  ", "\t"]) + str(u)
                     + rng.choice(spaces) + str(v) + rng.choice(["", "  ", "\t"]))
    if rng.random() < 0.5:  # the text opens with a word, or spaces then a word
        words[0] = words[0].lstrip("\r\n\x1c\x1d\x1e")
    return "".join(words) + rng.choice(["", "\r\n\r\n", " \n"]), undirected


def _error_text(outcome):
    """A parse outcome with an error's line prefix removed: the bulk
    reader counts "\r\n" as two breaks."""
    if isinstance(outcome[0], int):
        return outcome
    return re.sub(r"^line [0-9]+: ", "", outcome[1])


def test_bulk_reader_numbers_lines_across_wide_gaps():
    # The bulk reader finds a word's line from the byte before it where
    # that is its whole gap, and searches the breaks for wider gaps.
    rng = random.Random(13)
    valid = 0
    for _ in range(400):
        text, undirected = _wide_gap_edge_list(rng)
        want = _outcome(_parse_lines, text, undirected)
        got = _outcome(_parse_bytes, text, undirected)
        assert _error_text(got) == _error_text(want), repr(text)
        valid += isinstance(want[0], int)
    assert 200 < valid < 400


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
    # arrays per byte (uint8) and per word (int32), and peaked at 27.1 MB
    # here (38.6 MB with int64 positions).  Hashing the input's bytes adds
    # no copy of them.
    text = serialize_edge_list(gen_random_regular_sym(100000, 3, 1))
    for digest in (False, True):
        tracemalloc.start()
        try:
            g = parse_edge_list(text, digest=digest)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert ("input_digest" in vars(g)) == digest
        assert peak < 29 * 2**20


def test_positions_are_int32_under_2_gib(monkeypatch):
    # A text of 2**31 bytes is not made: the parser asks _index_dtype for
    # positions up to its length, and that switches at 2**31.
    for size, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
        assert graph._index_dtype(size + 1) is dtype
    text = serialize_edge_list(gen_erdos_renyi_digraph(40, 0.2, 1))
    asked = []
    real = graph._index_dtype
    monkeypatch.setattr(graph, "_index_dtype", lambda top: asked.append(top) or real(top))
    expected = arc_pairs(_parse_bytes(text, False))
    assert len(text) + 1 in asked
    # The int64 positions read the same graph.
    monkeypatch.setattr(graph, "_index_dtype", lambda top: np.int64)
    assert arc_pairs(_parse_bytes(text, False)) == expected


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
        assert h.pattern.indptr.tolist() == [0, 1, 2, 3]
        assert h.pattern.indices.tolist() == [1, 2, 0]

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

    @pytest.mark.parametrize("g", [
        pytest.param(DiGraph(3, [(0, 1), (1, 2), (2, 0)]), id="cycle3"),
        pytest.param(DiGraph(3, [(0, 1), (1, 2), (2, 0), (0, 2)]), id="chord"),
        pytest.param(gen_path_sym(3), id="path3"),
        pytest.param(gen_complete_sym(7), id="complete7"),
        pytest.param(gen_star_sym(9), id="star9"),
        pytest.param(gen_random_regular_sym(100, 3, 2), id="regular100"),
        pytest.param(gen_random_tree_sym(40, 1), id="tree40"),
        *[pytest.param(gen_erdos_renyi_digraph(30, d, s), id=f"er30-{d}-{s}")
          for d in (0.05, 0.3, 0.8) for s in range(3)],
        pytest.param(DiGraph(0, []), id="empty"),
        pytest.param(DiGraph(4, []), id="no-arcs"),
    ])
    def test_count_matches_pairs(self, g):
        assert g.symmetric_pair_count == len(symmetric_arc_pairs(g))


def _sym(n, edges):
    return DiGraph(n, [arc for u, v in edges for arc in ((u, v), (v, u))])


def _k4_edges(first):
    return [(first + i, first + j) for i in range(4) for j in range(i + 1, 4)]


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

    @pytest.mark.parametrize("n", range(6, 13))
    @pytest.mark.parametrize("density", (0.2, 0.3, 0.45, 0.6))
    def test_matches_per_arc_solves_on_er(self, n, density):
        for seed in range(8):
            g = gen_erdos_renyi_digraph(n, density, seed)
            assert is_robustly_strongly_connected(g) == brute_robust(g)

    @pytest.mark.parametrize("g, expected", [
        pytest.param(gen_path_sym(6), False, id="path"),
        pytest.param(gen_star_sym(5), False, id="star"),
        pytest.param(gen_random_tree_sym(30, 2), False, id="tree"),
        pytest.param(_sym(6, [(i, (i + 1) % 6) for i in range(6)]), True, id="cycle"),
        pytest.param(gen_complete_sym(4), True, id="K4"),
        # Two K4s joined by the bridge 3-4.
        pytest.param(_sym(8, [*_k4_edges(0), *_k4_edges(4), (3, 4)]), False, id="two-K4-bridge"),
        pytest.param(_sym(8, [*_k4_edges(0), *_k4_edges(4), (3, 4), (0, 7)]), True,
                     id="two-K4-two-edges"),
        pytest.param(gen_random_regular_sym(40, 3, 1), True, id="regular3"),
        pytest.param(_sym(2, [(0, 1)]), False, id="one-edge"),
    ])
    def test_fully_symmetric_families(self, g, expected):
        # With every arc paired, the predicate is "connected and bridgeless".
        assert brute_robust(g) == expected
        assert is_robustly_strongly_connected(g) == expected

    @pytest.mark.parametrize("arcs, expected", [
        # The bridge 0-1 with a one-way detour each way: 0->2->1, 1->3->0.
        pytest.param([(0, 1), (1, 0), (0, 2), (2, 1), (1, 3), (3, 0)], True, id="both-ways"),
        # A detour 0->2->1 only: deleting 1->0 cuts 1 off from 0.
        pytest.param([(0, 1), (1, 0), (0, 2), (2, 1), (1, 3), (3, 1)], False, id="one-way"),
        # A symmetric path 0-1-2 closed by the one-way cycle 2->3->0, 0->4->2.
        pytest.param([(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0), (0, 4), (4, 2)], True,
                     id="path-closed-both-ways"),
        pytest.param([(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 0)], False,
                     id="path-closed-one-way"),
    ])
    def test_bridge_bypassed_by_one_way_arcs(self, arcs, expected):
        g = DiGraph(max(max(a) for a in arcs) + 1, arcs)
        assert brute_robust(g) == expected
        assert is_robustly_strongly_connected(g) == expected

    def test_skeleton_with_several_components(self):
        # Two detour gadgets, 0-1 and 4-5, joined by 2->4 and 6->0: the
        # skeleton has two edges, each its own component, and four
        # isolated vertices.
        gadget = [(0, 1), (1, 0), (0, 2), (2, 1), (1, 3), (3, 0)]
        arcs = gadget + [(t + 4, h + 4) for t, h in gadget] + [(2, 4), (6, 0)]
        g = DiGraph(8, arcs)
        assert brute_robust(g)
        assert is_robustly_strongly_connected(g)
        # Dropping the detour 5->7->4 leaves 4-5 bypassed one way only.
        g = DiGraph(8, [a for a in arcs if a not in ((5, 7), (7, 4))] + [(5, 6)])
        assert not brute_robust(g)
        assert not is_robustly_strongly_connected(g)

    def test_random_skeletons_with_several_components(self):
        # A directed Hamiltonian cycle keeps each graph strongly connected;
        # symmetric pairs inside a few disjoint clusters give skeletons of
        # several components, with isolated vertices between them.
        rng = np.random.default_rng(3)
        seen = set()
        for _ in range(150):
            n = int(rng.integers(6, 14))
            perm = rng.permutation(n).tolist()
            arcs = {(perm[i], perm[(i + 1) % n]) for i in range(n)}
            for cluster in np.array_split(rng.permutation(n), int(rng.integers(2, 4))):
                for u in cluster.tolist():
                    for v in cluster.tolist():
                        if u < v and rng.random() < 0.5:
                            arcs |= {(u, v), (v, u)}
            for _ in range(int(rng.integers(0, n))):
                u, v = rng.integers(0, n, 2).tolist()
                if u != v:
                    arcs.add((u, v))
            g = DiGraph(n, sorted(arcs))
            expected = brute_robust(g)
            seen.add(expected)
            assert is_robustly_strongly_connected(g) == expected
        assert seen == {True, False}

    @pytest.mark.parametrize("g, expected", [
        pytest.param(DiGraph(0, []), True, id="n0"),
        pytest.param(DiGraph(1, []), True, id="n1"),
        pytest.param(DiGraph(2, []), False, id="n2-no-arcs"),
        pytest.param(DiGraph(3, [(0, 1), (1, 0)]), False, id="isolated-vertex"),
    ])
    def test_tiny_graphs(self, g, expected):
        assert brute_robust(g) == expected
        assert is_robustly_strongly_connected(g) == expected

    @pytest.mark.parametrize("small, large", [
        pytest.param(gen_random_regular_sym(100, 3, 0), gen_random_regular_sym(1666, 3, 0),
                     id="regular3"),
        pytest.param(gen_random_tree_sym(40, 0), gen_random_tree_sym(400, 0), id="tree"),
    ])
    def test_solve_count_does_not_grow_with_n(self, small, large, monkeypatch):
        # Per-arc re-solves made 4,998 strong-component solves on the
        # 1,666-vertex graph; the bridge pass makes a fixed few.
        calls = []

        def counted(*args, **kwargs):
            calls.append(None)
            return cc(*args, **kwargs)

        cc = graph._cc
        expected = [brute_robust(g) for g in (small, large)]
        monkeypatch.setattr(graph, "_cc", counted)
        counts = []
        for g, flag in zip((small, large), expected):
            calls.clear()
            assert is_robustly_strongly_connected(g) == flag
            counts.append(len(calls))
        assert counts[0] == counts[1]


class TestSkeletonBridges:
    def test_matches_networkx(self):
        import networkx as nx

        rng = np.random.default_rng(5)
        for k in range(300):
            n = int(rng.integers(1, 30))
            G = nx.gnm_random_graph(n, int(rng.integers(0, 2 * n)), seed=k)
            edges = np.array(list(G.edges()), dtype=np.int64).reshape(-1, 2)
            flags = graph._skeleton_bridges(n, edges[:, 0], edges[:, 1])
            found = {frozenset(e) for e, f in zip(edges.tolist(), flags) if f}
            assert found == {frozenset(e) for e in nx.bridges(G)}

    def test_edge_orientation_does_not_matter(self):
        u = np.array([0, 1, 2, 3, 2], dtype=np.int64)
        v = np.array([1, 2, 0, 2, 4], dtype=np.int64)
        expected = [False, False, False, True, True]
        assert graph._skeleton_bridges(5, u, v).tolist() == expected
        assert graph._skeleton_bridges(5, v, u).tolist() == expected

    def test_no_edges(self):
        empty = np.zeros(0, dtype=np.int64)
        assert graph._skeleton_bridges(4, empty, empty).tolist() == []


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
