"""Child process that runs one workload against nbperc and times it.

Usage: python3 perfbench/runner.py SPEC.json RESULT.json

run.py starts this in a fresh process with PYTHONPATH pointing at the
checkout's src/ and NBPERC_THREADS unset, so the process's peak RSS is
that of this workload alone.  Modes:

  e2e    set-up repetitions, then repetitions of the workload's CLI
         commands through nbperc.cli.main, until the time is used up;
  trace  one untraced pass of the commands, then traced passes that call
         each module's public functions in the order the commands call
         them, with spans around the calls.

Garbage collection stays as the program runs it; a gc.collect() before
each timed call only clears what earlier repetitions left behind.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import spans
import workloads

from nbperc.bounds import (
    compute_bounds_report,
    out_component_probability_bound,
    sac_bound_closed,
    sac_bound_trace,
)
from nbperc.cli import ROBUST_CHECK_BUDGET, build_analysis_document, main
from nbperc.cycles import VERTEX_CAP, enumerate_elementary_circuits, expected_sac_count
from nbperc.errors import BoundDomainError
from nbperc.graph import (
    DiGraph,
    induced_subgraph,
    is_robustly_strongly_connected,
    parse_edge_list,
    strongly_connected_components,
    symmetric_arc_pairs,
)
from nbperc.hashimoto import EXACT_TRACE_CAP, build_hashimoto, trace_powers
from nbperc.percolation import (
    PercolationConfig,
    estimate_out_prob,
    measure_components,
    sweep,
    trial_rng,
)
from nbperc.spectral import (
    compute_spectral_report,
    left_perron_vector,
    olg_strongly_connected,
    spectral_radius,
)

# The CLI's default `analyze --p` grid, which the workloads use.
ANALYZE_P_GRID = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
MIN_ROUNDS = 2
TRACED_ANALYZE = "traced-analyze.json"
QUANTUM_S = 0.5   # a step shorter than this is repeated within a round


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _time_setup(path, undirected):
    text = Path(path).read_text(encoding="ascii")
    gc.collect()
    t0 = time.perf_counter()
    g = parse_edge_list(text, undirected=undirected)
    h = build_hashimoto(g)
    dt = time.perf_counter() - t0
    del g, h
    return dt


def _run_command(i, cmd, inputs, workdir, rep):
    """One run of command ``i`` through nbperc.cli.main; only the first
    repetition's output file is kept for the checks."""
    path = Path(workdir) / f"out-{i}-{cmd.name}-{rep}"
    argv = workloads.cli_argv(cmd, inputs, path)
    gc.collect()
    err = None
    t0 = time.perf_counter()
    try:
        rc = main(argv)
    except Exception:  # a crash is a failed command, not a failed benchmark
        rc, err = None, traceback.format_exc()
    dt = time.perf_counter() - t0
    digest = _sha256(path) if path.exists() else None
    if rep > 0 and path.exists():
        path.unlink()
    return {"index": i, "command": cmd.name, "argv": argv, "rc": rc, "seconds": dt,
            "sha256": digest, "output": str(path), "error": err}


def _repeat(k, step):
    """Run ``step`` k times; return the wall time per run, overhead included."""
    t0 = time.perf_counter()
    for _ in range(k):
        step()
    return (time.perf_counter() - t0) / k


def run_e2e(spec, cmds):
    """Rounds of [set-up, each command] until --seconds are used (at least
    MIN_ROUNDS), closed by one more set-up, so every metric samples the
    whole run.  Steps shorter than QUANTUM_S are repeated within a round."""
    seconds = spec["seconds"]
    primary = spec["inputs"]["graph"]
    setup, runs = [], []
    reps = [0] * len(cmds)

    def do_setup():
        setup.append(_time_setup(primary["path"], primary["undirected"]))

    def do_command(i):
        runs.append(_run_command(i, cmds[i], spec["inputs"], spec["workdir"], reps[i]))
        reps[i] += 1

    k_setup, k_cmd = 1, [1] * len(cmds)
    start = time.perf_counter()
    round_times = []
    while (len(round_times) < MIN_ROUNDS
           or time.perf_counter() - start + statistics.median(round_times) <= seconds):
        t0 = time.perf_counter()
        k_setup = max(1, round(QUANTUM_S / _repeat(k_setup, do_setup)))
        for i in range(len(cmds)):
            k_cmd[i] = max(1, round(QUANTUM_S / _repeat(k_cmd[i], lambda: do_command(i))))
        round_times.append(time.perf_counter() - t0)
    _repeat(k_setup, do_setup)
    return {"setup_seconds": setup, "runs": runs}


@contextmanager
def _threads(value):
    """NBPERC_THREADS=value for the body, restored afterwards."""
    old = os.environ.get("NBPERC_THREADS")
    os.environ["NBPERC_THREADS"] = str(value)
    try:
        yield
    finally:
        if old is None:
            del os.environ["NBPERC_THREADS"]
        else:
            os.environ["NBPERC_THREADS"] = old


def _parse(tr, facts):
    text = Path(facts["path"]).read_text(encoding="ascii")
    with tr.span("graph.parse"):
        return parse_edge_list(text, undirected=facts["undirected"])


def trace_analyze(tr, cmd, inputs, workdir, state):
    """`analyze` as cmd_analyze runs it, then the layers of the document
    in build_analysis_document's order, then probes of single calls."""
    with tr.span("cli.analyze"):
        g = _parse(tr, inputs[cmd.input])
        with tr.span("cli.analyze_doc"):
            doc = build_analysis_document(g, ANALYZE_P_GRID)
        (Path(workdir) / TRACED_ANALYZE).write_text(json.dumps(doc, indent=2) + "\n")
    with tr.span("probe.analyze_doc"):
        with tr.span("hashimoto.build"):
            h = build_hashimoto(g)
        with tr.span("graph.scc"):
            strongly_connected_components(g)
        with tr.span("graph.symmetric_pairs"):
            pairs = symmetric_arc_pairs(g)
        with tr.span("spectral.olg_check"):
            olg_strongly_connected(h)
        if len(pairs) * g.n <= ROBUST_CHECK_BUDGET:
            with tr.span("graph.robust"):
                is_robustly_strongly_connected(g)
        else:
            state["absent"]["graph.robust_s"] = "symmetric pairs x n above ROBUST_CHECK_BUDGET"
        with tr.span("spectral.report"):
            sr = compute_spectral_report(g, h)
        with tr.span("bounds.report"):
            compute_bounds_report(sr, h, ANALYZE_P_GRID)
    with tr.span("probe.spectral"):
        with tr.span("spectral.rho_H") as s:
            r = spectral_radius(h)
            s["counts"].update(iterations=r.iterations, width=r.residual)
        with tr.span("spectral.rho_A") as s:
            s["counts"]["iterations"] = spectral_radius(g).iterations
        ok, _ = olg_strongly_connected(h)
        if ok:
            with tr.span("spectral.left_pf"):
                left_perron_vector(h)
        else:
            state["absent"]["spectral.left_pf_s"] = "oriented line graph not strongly connected"
    arcs = list(zip(g.tails.tolist(), g.heads.tolist()))
    x = np.ones(h.dim)
    with tr.span("probe.graph"):
        with tr.span("graph.digraph"):
            DiGraph(g.n, arcs)
        with tr.span("hashimoto.apply") as s:
            transitions = int(round(float(h.apply(x).sum())))
        # Computed, not measured: two int64 index arrays and the gathered
        # float64 values written and read per transition, x and y per arc.
        s["counts"].update(transitions=transitions, bytes=32 * transitions + 16 * h.dim)
        if h.n_arcs <= EXACT_TRACE_CAP:
            with tr.span("hashimoto.trace"):
                trace_powers(h, max(g.n, 32))
        else:
            state["absent"]["hashimoto.trace_s"] = "n_arcs above EXACT_TRACE_CAP"


def trace_simulate(tr, cmd, inputs, workdir, state):
    """`simulate` as cmd_simulate runs it (output formatting left out),
    then the sweep again with two threads and one measurement probe."""
    steps, p_min, p_max = cmd.opt("steps"), cmd.opt("p_min"), cmd.opt("p_max")
    trials, seed, m_max = cmd.opt("trials"), cmd.opt("seed"), cmd.opt("m_max", 20)
    roots = [int(r) for r in str(cmd.opt("roots", "")).split(",") if r.strip()]
    p_grid = (float(p_min),) if steps == 1 else tuple(np.linspace(p_min, p_max, steps).tolist())
    config = PercolationConfig(p_grid=p_grid, trials=trials, master_seed=seed)
    with tr.span("cli.simulate"):
        g = _parse(tr, inputs[cmd.input])
        with _threads(1), tr.span("percolation.sweep") as s:
            one = sweep(g, config)
            s["counts"]["measures"] = len(p_grid) * trials
        for v in roots:
            for p in p_grid:
                with tr.span("percolation.out_prob"):
                    estimate_out_prob(g, v, p, m_max, trials, seed)
    if not roots:
        state["absent"].update(dict.fromkeys(
            ("percolation.out_prob_s", "percolation.out_prob_calls"),
            "simulate runs without --roots"))
    with tr.span("probe.sweep_2t"):
        with _threads(2), tr.span("percolation.sweep_2t"):
            two = sweep(g, config)
    if not all(np.array_equal(one.stats[k], two.stats[k]) for k in one.stats):
        state["failures"].append("simulate: sweep output differs between NBPERC_THREADS=1 and 2")
    with tr.span("probe.measure"):
        # Trial 0's coupled draws at the grid's top p: the open subgraph the
        # sweep measured last in that trial.
        mask = trial_rng(seed, 0).random(g.n) < p_grid[-1]
        g_open, _ = induced_subgraph(g, np.flatnonzero(mask))
        with tr.span("percolation.measure"):
            measure_components(g_open, n_reference=g.n)
        with tr.span("percolation.measure_scc"):
            strongly_connected_components(g_open)


def trace_bounds_check(tr, cmd, inputs, workdir, state):
    """`bounds-check` as cmd_bounds_check runs it (formatting left out)."""
    p_list = [float(x) for x in cmd.opt("p").split(",")]
    trials, seed, m_max = cmd.opt("trials"), cmd.opt("seed"), cmd.opt("m_max", 20)
    with tr.span("cli.bounds_check"):
        g = _parse(tr, inputs[cmd.input])
        with tr.span("hashimoto.build"):
            h = build_hashimoto(g)
        with tr.span("spectral.report"):
            sr = compute_spectral_report(g, h)
        roots = range(min(3, g.n))
        census = None
        if g.n <= VERTEX_CAP and 0 < g.n_arcs <= EXACT_TRACE_CAP:
            with tr.span("cycles.census") as s:
                census = enumerate_elementary_circuits(g)
                s["counts"]["circuits"] = len(census.circuits)
        for p in p_list:
            try:
                out_component_probability_bound(p, sr.norm_row)
            except BoundDomainError:
                pass
            else:
                for v in roots:
                    with tr.span("percolation.out_prob"):
                        estimate_out_prob(g, v, p, m_max, trials, seed)
            if census is None:
                continue
            try:
                with tr.span("cycles.expected_sac"):
                    expected_sac_count(census, p)
                with tr.span("bounds.sac_trace"):
                    sac_bound_trace(p, h, max(g.n, 32), sr.rho_H)
                with tr.span("bounds.sac_closed"):
                    sac_bound_closed(p, sr.rho_H, g.n_arcs)
            except BoundDomainError:
                pass


TRACERS = {"analyze": trace_analyze, "simulate": trace_simulate,
           "bounds-check": trace_bounds_check}

# Per-layer metric -> (span name, count key or None for self seconds).
LAYER_METRICS = {
    "graph.parse_s": ("graph.parse", None),
    "graph.digraph_s": ("graph.digraph", None),
    "graph.scc_s": ("graph.scc", None),
    "graph.symmetric_pairs_s": ("graph.symmetric_pairs", None),
    "graph.robust_s": ("graph.robust", None),
    "hashimoto.build_s": ("hashimoto.build", None),
    "hashimoto.transitions": ("hashimoto.apply", "transitions"),
    "hashimoto.apply_s": ("hashimoto.apply", None),
    "hashimoto.apply_bytes": ("hashimoto.apply", "bytes"),
    "hashimoto.trace_s": ("hashimoto.trace", None),
    "spectral.rho_H_s": ("spectral.rho_H", None),
    "spectral.rho_H_iterations": ("spectral.rho_H", "iterations"),
    "spectral.rho_H_width": ("spectral.rho_H", "width"),
    "spectral.rho_A_s": ("spectral.rho_A", None),
    "spectral.rho_A_iterations": ("spectral.rho_A", "iterations"),
    "spectral.left_pf_s": ("spectral.left_pf", None),
    "bounds.report_s": ("bounds.report", None),
    "cycles.census_s": ("cycles.census", None),
    "cycles.circuits": ("cycles.census", "circuits"),
    "percolation.sweep_s": ("percolation.sweep", None),
    "percolation.measures": ("percolation.sweep", "measures"),
    "percolation.measure_s": ("percolation.measure", None),
    "percolation.measure_scc_s": ("percolation.measure_scc", None),
    "percolation.out_prob_s": ("percolation.out_prob", None),
    "percolation.sweep_2t_s": ("percolation.sweep_2t", None),
    "cli.analyze_doc_s": ("cli.analyze_doc", None),
}
ABSENT_WITHOUT = {
    "simulate": ("percolation.sweep_s", "percolation.measures", "percolation.measure_s",
                 "percolation.measure_scc_s", "percolation.sweep_2t_s",
                 "percolation.thread_efficiency"),
    "bounds-check": ("cycles.census_s", "cycles.circuits"),
}


def pass_metrics(spans_, untraced_s):
    """Per-layer metrics of one traced pass; absent layers read 0."""
    totals = spans.totals_by_name(spans_)
    counts = {}
    for s in spans_:
        for key, value in s["counts"].items():
            counts[(s["name"], key)] = counts.get((s["name"], key), 0) + value
    metrics = {}
    for metric, (name, key) in LAYER_METRICS.items():
        if key is None:
            metrics[metric] = totals.get(name, (0.0, 0))[0]
        else:
            metrics[metric] = counts.get((name, key), 0)
    metrics["percolation.out_prob_calls"] = totals.get("percolation.out_prob", (0.0, 0))[1]
    two = metrics["percolation.sweep_2t_s"]
    metrics["percolation.thread_efficiency"] = (
        metrics["percolation.sweep_s"] / (2 * two) if two > 0 else 0.0)
    roots = [s for s in spans_ if s["parent"] is None and s["name"].startswith("cli.")]
    metrics["cli.self_s"] = sum(totals[n][0] for n in {s["name"] for s in roots})
    traced = sum(s["end"] - s["start"] for s in roots)
    metrics["trace.total_s"] = traced
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = traced - untraced_s
    return metrics


def run_trace(spec, cmds):
    seconds = spec["seconds"]
    start = time.perf_counter()
    untraced = [_run_command(i, c, spec["inputs"], spec["workdir"], 0)
                for i, c in enumerate(cmds)]
    untraced_s = sum(c["seconds"] for c in untraced)
    names = {c.name for c in cmds}
    passes, pass_times = [], []
    while not passes or time.perf_counter() - start + statistics.median(pass_times) <= seconds:
        tr = spans.Tracer(f"{spec['workload']}/seed={spec['seed']}/pass={len(passes)}")
        state = {"absent": {}, "failures": []}
        for command, metrics in ABSENT_WITHOUT.items():
            if command not in names:
                state["absent"].update({m: f"workload runs no {command}" for m in metrics})
        t0 = time.perf_counter()
        for cmd in cmds:
            gc.collect()
            try:
                TRACERS[cmd.name](tr, cmd, spec["inputs"], spec["workdir"], state)
            except Exception:  # reported as a failed command, like a crash in e2e
                state["failures"].append(f"traced {cmd.name}: {traceback.format_exc()}")
        pass_times.append(time.perf_counter() - t0)
        traced_doc = Path(spec["workdir"]) / TRACED_ANALYZE
        for c in untraced:
            if c["command"] == "analyze" and traced_doc.exists() and (
                    c["sha256"] != _sha256(traced_doc)):
                state["failures"].append("traced analyze wrote other bytes than the CLI")
        passes.append({"metrics": pass_metrics(tr.spans, untraced_s),
                       "absent": state["absent"], "failures": state["failures"],
                       "spans": tr.spans})
    return {"runs": untraced, "passes": passes}


def main_child(spec_path, result_path):
    spec = json.loads(Path(spec_path).read_text())
    cmds = workloads.commands(spec["workload"], spec["seed"])
    run = run_trace if spec["mode"] == "trace" else run_e2e
    result = run(spec, cmds)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main_child(sys.argv[1], sys.argv[2])
