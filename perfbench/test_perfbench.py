"""Tests of the benchmark's own code: oracles, output checks, span
arithmetic and input generators.  Run with `python -m pytest perfbench`."""
import hashlib
import math

import numpy as np
import pytest

import checks
import spans
import workloads


def _arcs(el):
    return list(zip(el.tails.tolist(), el.heads.tolist()))


def _sym(edges):
    return [a for u, v in edges for a in ((u, v), (v, u))]


TINY_GRAPHS = {
    "triangle_chord": (3, [(0, 1), (1, 2), (2, 0), (0, 2)]),
    "path_sym": (4, _sym([(0, 1), (1, 2), (2, 3)])),
    "k4_sym": (4, [(u, v) for u in range(4) for v in range(4) if u != v]),
    "even_cycle_sym": (6, _sym([(i, (i + 1) % 6) for i in range(6)])),
    "star_sym": (4, _sym([(0, 1), (0, 2), (0, 3)])),
}


def _tiny(name):
    n, arcs = TINY_GRAPHS[name]
    t, h = zip(*arcs)
    return n, arcs, np.array(t), np.array(h)


@pytest.mark.parametrize("name", sorted(TINY_GRAPHS))
def test_nb_matrix_equals_dense_rule(name):
    n, arcs, t, h = _tiny(name)
    assert np.array_equal(checks.nb_matrix(n, t, h).toarray(), checks.dense_nb_matrix(arcs))


def test_nb_matrix_equals_dense_rule_on_random_digraph():
    el = workloads.erdos_renyi(12, 0.3, seed=5, tag=0)
    assert np.array_equal(checks.nb_matrix(el.n, el.tails, el.heads).toarray(),
                          checks.dense_nb_matrix(_arcs(el)))


@pytest.mark.parametrize("name", ["k4_sym", "even_cycle_sym", "triangle_chord"])
def test_oracles_match_dense_linear_algebra(name):
    n, arcs, t, h = _tiny(name)
    dense = checks.dense_nb_matrix(arcs)
    rho = float(np.max(np.abs(np.linalg.eigvals(dense))))
    assert checks.oracle_rho(checks.nb_matrix(n, t, h)) == pytest.approx(rho, abs=1e-10)
    p = 0.5 / max(rho, 1.0)
    sign, logdet = np.linalg.slogdet(np.eye(len(arcs)) - p * dense)
    assert sign > 0
    assert checks.oracle_neg_logdet(checks.nb_matrix(n, t, h), p) == pytest.approx(-logdet)


def _valid_analyze_doc():
    """An analyze document for a 3-regular graph filled from the oracles."""
    el = workloads.random_regular3(16, seed=1, tag=0)
    h = checks.nb_matrix(el.n, el.tails, el.heads)
    rho = checks.oracle_rho(h)
    grid = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    trace = [checks.oracle_neg_logdet(h, p) if p * rho < 1 else "void" for p in grid]
    closed = [el.n_arcs * abs(math.log1p(-p * rho)) if p * rho < 1 else "void" for p in grid]
    doc = {"spectral": {"rho_H": rho, "rho_A": 3.0},
           "bounds": {"pc_spectral": 1.0 / rho, "p_grid": grid,
                      "sac_trace": trace, "sac_closed": closed}}
    return doc, rho, (lambda p: checks.oracle_neg_logdet(h, p))


def test_check_analyze_accepts_oracle_values():
    doc, rho, logdet = _valid_analyze_doc()
    assert rho == pytest.approx(2.0, abs=1e-12)
    assert checks.check_analyze(doc, rho, regular3=True, neg_logdet=logdet) == []


@pytest.mark.parametrize("section,key,index,perturb", [
    ("spectral", "rho_H", None, lambda x: x + 2e-8),          # vs ARPACK and vs 2
    ("spectral", "rho_A", None, lambda x: 1.9),               # rho_H <= rho_A
    ("bounds", "pc_spectral", None, lambda x: x * (1 + 1e-8)),
    ("bounds", "sac_trace", 1, lambda x: x * (1 + 1e-8)),     # vs -ln det
    ("bounds", "sac_closed", 2, None),                        # trace <= closed
])
def test_check_analyze_rejects_perturbed_value(section, key, index, perturb):
    doc, rho, logdet = _valid_analyze_doc()
    if perturb is None:
        doc[section][key][index] = doc["bounds"]["sac_trace"][index] * (1 - 1e-6)
    elif index is None:
        doc[section][key] = perturb(doc[section][key])
    else:
        doc[section][key][index] = perturb(doc[section][key][index])
    assert checks.check_analyze(doc, rho, regular3=True, neg_logdet=logdet)


def test_check_analyze_rejects_non_two_rho_on_3_regular_input():
    doc, rho, logdet = _valid_analyze_doc()
    doc["spectral"]["rho_H"] = 2.0 + 5e-9   # inside RHO_TOL of the oracle
    doc["bounds"]["pc_spectral"] = 1.0 / doc["spectral"]["rho_H"]
    assert checks.check_analyze(doc, 2.0, regular3=False, neg_logdet=logdet) == []
    assert checks.check_analyze(doc, 2.0, regular3=True, neg_logdet=logdet)


def _rows(n=1000):
    """Two coupled trials on a 3-point grid; crossing of 1% near p = 0.5."""
    rows = []
    for trial in (0, 1):
        for p, big in ((0.4, 2), (0.5, 10 + trial), (0.6, 300)):
            rows.append({"p": p, "trial": trial, "largest_scc": big, "second_scc": 1,
                         "largest_out": big + 5, "largest_in": big + 3, "giant_count": 0})
    return rows


def test_check_simulate_accepts_consistent_rows():
    assert checks.check_simulate(_rows(), steps=3, trials=2) == []
    assert checks.check_crossing(_rows(), 1000, rho_h=2.0) == []


@pytest.mark.parametrize("row,key,value", [
    (1, "second_scc", 20),     # second > largest
    (2, "largest_out", 299),   # largest > largest_out
    (5, "largest_in", 1),      # largest > largest_in
    (2, "largest_scc", 1),     # largest_scc falls as p rises
    (4, "largest_out", 2),     # largest_out falls as p rises
])
def test_check_simulate_rejects_perturbed_row(row, key, value):
    rows = _rows()
    rows[row][key] = value
    assert checks.check_simulate(rows, steps=3, trials=2)


def test_check_simulate_rejects_missing_rows():
    assert checks.check_simulate(_rows()[:-1], steps=3, trials=2)


def test_check_crossing_rejects_far_or_missing_crossing():
    assert checks.check_crossing(_rows(), 1000, rho_h=1.5)       # 1/rho = 0.667
    assert checks.check_crossing(_rows(), 10**6, rho_h=2.0)      # never crosses


def test_simulate_rows_reads_cli_csv():
    text = ("p,trial,largest_scc,second_scc,largest_out,largest_in,giant_count\n"
            "0.5,0,3,1,4,3,0\n# summary\np,stat,mean,stderr\n0.5,largest_scc,3.0,0.0\n")
    assert checks.simulate_rows(text) == [
        {"p": 0.5, "trial": 0, "largest_scc": 3, "second_scc": 1, "largest_out": 4,
         "largest_in": 3, "giant_count": 0}]


BOUNDS_CSV = ("p,theorem1_bound,max_m_phat,theorem1_verdict,expected_sac,sac_trace,"
              "sac_closed,sac_verdict\n"
              "0.1,1.25,0.1,ok,0.01,0.02,0.03,ok\n"
              "0.45,,0.0,void,,,,void\n")


def test_check_bounds_check():
    assert checks.check_bounds_check(BOUNDS_CSV, 2) == []
    assert checks.check_bounds_check(BOUNDS_CSV, 3)
    assert checks.check_bounds_check(BOUNDS_CSV.replace("0.1,ok,", "0.1,violation,"), 2)
    assert checks.check_bounds_check(BOUNDS_CSV.replace("0.03,ok", "0.03,violation"), 2)


def _span(sid, parent, start, end, name="x"):
    return {"id": sid, "name": name, "parent": parent, "run": "r", "start": start,
            "end": end, "counts": {}}


def test_self_times_on_synthetic_tree():
    tree = [
        _span(0, None, 0.0, 10.0, "root"),
        _span(1, 0, 1.0, 4.0, "a"),
        _span(2, 0, 3.0, 5.0, "a"),       # overlaps span 1 on [3, 4]
        _span(3, 0, 6.0, 9.0, "b"),
        _span(4, 3, 6.5, 8.0, "c"),
        _span(5, 3, 7.5, 9.5, "c"),       # runs past its parent's end
    ]
    own = spans.self_times(tree)
    assert own[0] == pytest.approx(10.0 - 4.0 - 3.0)   # children cover [1, 5] and [6, 9]
    assert own[1] == pytest.approx(3.0)
    assert own[3] == pytest.approx(3.0 - 2.5)          # [6.5, 9] covered
    assert own[4] == pytest.approx(1.5)
    totals = spans.totals_by_name(tree)
    assert totals["a"] == (pytest.approx(5.0), 2)
    assert totals["c"] == (pytest.approx(3.5), 2)


def test_tracer_records_nesting():
    tr = spans.Tracer("run-1")
    with tr.span("outer"):
        with tr.span("inner") as s:
            s["counts"]["k"] = 2
        with tr.span("inner"):
            pass
    outer, first, second = tr.spans
    assert outer["parent"] is None and first["parent"] == 0 and second["parent"] == 0
    assert first["counts"] == {"k": 2} and {s["run"] for s in tr.spans} == {"run-1"}
    assert outer["start"] <= first["start"] <= first["end"] <= second["start"] <= outer["end"]
    own = spans.self_times(tr.spans)
    assert own[0] == pytest.approx(
        (outer["end"] - outer["start"]) - sum(s["end"] - s["start"] for s in tr.spans[1:]))


def _digest(els):
    return {k: hashlib.sha256(el.text().encode()).hexdigest() for k, el in els.items()}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_inputs_reproducible_per_seed(name):
    first = workloads.inputs(name, 7)
    assert _digest(first) == _digest(workloads.inputs(name, 7))
    other = _digest(workloads.inputs(name, 8))
    if name == "lattice":
        assert other == _digest(first)   # the lattice takes no seed
    else:
        assert all(other[k] != d for k, d in _digest(first).items())
    assert workloads.commands(name, 7) == workloads.commands(name, 7)


def test_workload_inputs_have_documented_shape():
    exp = workloads.inputs("expander", 1)["graph"]
    assert (exp.n, exp.n_arcs) == (100_000, 300_000)
    assert (np.bincount(exp.tails) == 3).all() and (np.bincount(exp.heads) == 3).all()
    assert len(set(_arcs(exp))) == exp.n_arcs
    lat = workloads.inputs("lattice", 1)["graph"]
    assert (lat.n, lat.n_arcs, lat.undirected) == (6400, 25280, True)
    er = workloads.inputs("er-deep", 1)["graph"]
    assert er.n == 4000 and 5500 < er.n_arcs < 6500
    assert not (er.tails == er.heads).any() and len(set(_arcs(er))) == er.n_arcs
    val = workloads.inputs("validate", 1)
    assert (val["graph"].n_arcs, val["small"].n_arcs) == (300, 48)


def test_undirected_text_lists_each_edge_once():
    lat = workloads.lattice(3)
    lines = lat.text().splitlines()
    assert lines[0] == "#n 9" and len(lines) - 1 == lat.n_arcs // 2


def test_cli_argv():
    cmd = workloads.Command("simulate", "graph", (("p_min", 0.3), ("roots", "0")))
    facts = {"graph": {"path": "g.txt", "undirected": True}}
    assert workloads.cli_argv(cmd, facts, "o.csv") == [
        "simulate", "g.txt", "--undirected", "--p-min", "0.3", "--roots", "0", "-o", "o.csv"]
    analyze = workloads.cli_argv(workloads.Command("analyze", "graph"), facts, "o.json")
    assert analyze == ["analyze", "g.txt", "--undirected", "--format", "json", "-o", "o.json"]
