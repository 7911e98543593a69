"""Command-line surface: analyze, simulate, bounds-check, gen.

Exit codes: 0 ok, 2 usage/parse error, 3 numeric non-convergence.  JSON is
the machine format, CSV the analysis format; the same run always carries
identical numeric values in both.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import sys

import numpy as np

from . import __version__
from .bounds import (
    compute_bounds_report,
    out_component_probability_bound,
    improved_out_bound,
    sac_bound_closed,
    sac_bound_logdet,
)
from .cycles import VERTEX_CAP, enumerate_elementary_circuits, expected_sac_count
from .errors import BoundDomainError, NbpercError, NonConvergenceError, ParseError
from .generators import (
    gen_complete_sym,
    gen_cycle,
    gen_erdos_renyi_digraph,
    gen_path_sym,
    gen_random_regular_sym,
    gen_random_tree_sym,
    gen_star_sym,
)
from .graph import (
    _arc_lines,
    _symmetric_arcs,
    is_robustly_strongly_connected,
    parse_edge_list,
    serialize_edge_list,
    strongly_connected_components,
)
from .hashimoto import build_hashimoto
from .percolation import STAT_NAMES, PercolationConfig, estimate_out_prob, sweep
from .spectral import compute_spectral_report

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3

# Robust-strong-connectivity re-checks the graph once per symmetric arc;
# skip (report null) beyond this work estimate.
ROBUST_CHECK_BUDGET = 10_000_000

# BoundsReport curves, in document order; a void entry prints as "void".
CURVES = ("theorem1_out", "theorem1_in", "improved_out", "sac_closed", "sac_trace")


def _input_digest(g):
    payload = f"{g.n}\n" + _arc_lines(g)
    return hashlib.sha256(payload.encode("ascii")).hexdigest()


def _fmt(x):
    """Serialize a float exactly (17 significant digits round-trips)."""
    if x is None:
        return None
    if isinstance(x, float):
        if math.isinf(x):
            return "inf"
        return float(f"{x:.17g}")
    return x


def _load_graph(path, undirected):
    with open(path, "r", encoding="ascii") as fh:
        return parse_edge_list(fh.read(), undirected=undirected)


def _parse_p_list(text):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ParseError(f"bad probability list {text!r}") from None
    for p in values:
        if not 0.0 <= p <= 1.0:
            raise ParseError(f"probability {p} outside [0,1]")
    return values


def _parse_roots(text, n):
    """Comma list of root vertices, each checked against 0..n-1."""
    roots = tuple(int(tok) for tok in text.split(",") if tok.strip())
    for r in roots:
        if not 0 <= r < n:
            raise ParseError(f"root {r} outside 0..{n - 1}")
    return roots


def _write_output(text, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="ascii", newline="") as fh:
            fh.write(text)


def build_analysis_document(g, p_grid, cycles_max_len=None):
    """Full analysis pipeline: graph summary, spectral report, bounds, and
    an optional cycle census."""
    h = build_hashimoto(g)
    labeling = strongly_connected_components(g)
    sym_count = len(_symmetric_arcs(g)[0])
    robust = is_robustly_strongly_connected(g) if sym_count * g.n <= ROBUST_CHECK_BUDGET else None
    sr = compute_spectral_report(g, h)
    br = compute_bounds_report(sr, h, p_grid)
    doc = {
        "tool": "nbperc",
        "version": __version__,
        "input_digest": _input_digest(g),
        "graph": {
            "n": g.n,
            "n_arcs": g.n_arcs,
            "symmetric_pair_count": sym_count,
            "scc_count": labeling.count,
            "robustly_strongly_connected": robust,
            "olg_strongly_connected": sr.olg_strongly_connected,
        },
        "spectral": {
            "rho_H": _fmt(sr.rho_H),
            "rho_A": _fmt(sr.rho_A),
            "norm_row": sr.norm_row,
            "norm_col": sr.norm_col,
            "gamma_L": _fmt(sr.gamma_L),
            "iterations": sr.iterations,
            "residual": _fmt(sr.residual),
            "method": sr.method,
        },
        "bounds": {
            "pc_spectral": _fmt(br.pc_spectral),
            "pc_out": _fmt(br.pc_out),
            "pc_in": _fmt(br.pc_in),
            "p_grid": [_fmt(p) for p in br.p_grid],
            **{name: [_fmt(x) if x is not None else "void" for x in getattr(br, name)]
               for name in CURVES},
        },
    }
    if cycles_max_len is not None:
        report = enumerate_elementary_circuits(g, max_len=cycles_max_len)
        doc["cycles"] = {
            "circuit_count": len(report.circuits),
            "counts_by_length": {str(k): v for k, v in sorted(report.counts_by_length.items())},
            "sac_count_by_length": {str(k): v for k, v in sorted(report.sac_count_by_length.items())},
            "circuits": [list(c) for c in report.circuits],
        }
    return doc


def _doc_to_csv(doc):
    out = io.StringIO()
    out.write("section,key,value\n")

    def emit(section, key, value):
        out.write(f"{section},{key},{value}\n")

    for section in ("graph", "spectral", "bounds", "cycles"):
        body = doc.get(section)
        if body is None:
            continue
        for key, value in body.items():
            if isinstance(value, list):
                emit(section, key, ";".join(str(v) for v in value))
            elif isinstance(value, dict):
                emit(section, key, ";".join(f"{k}:{v}" for k, v in value.items()))
            else:
                emit(section, key, value)
    emit("meta", "version", doc["version"])
    emit("meta", "input_digest", doc["input_digest"])
    return out.getvalue()


def cmd_analyze(args):
    g = _load_graph(args.input, args.undirected)
    p_grid = _parse_p_list(args.p)
    doc = build_analysis_document(
        g, p_grid, cycles_max_len=args.cycles
    )
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _doc_to_csv(doc)
    _write_output(text, args.output)
    return EXIT_OK


def cmd_simulate(args):
    g = _load_graph(args.input, args.undirected)
    if args.steps < 1:
        raise ParseError(f"--steps must be >= 1, got {args.steps}")
    if args.steps == 1:
        p_grid = (float(args.p_min),)
    else:
        p_grid = tuple(np.linspace(args.p_min, args.p_max, args.steps).tolist())
    roots = _parse_roots(args.roots, g.n)
    config = PercolationConfig(
        p_grid=p_grid,
        trials=args.trials,
        master_seed=args.seed,
        giant_fraction=args.giant_fraction,
        coupled=not args.independent,
    )
    sr = sweep(g, config)
    estimates = [
        estimate_out_prob(g, v, p, args.m_max, args.trials, args.seed)
        for v in roots
        for p in p_grid
    ]
    if args.format == "json":
        text = _simulate_json(sr, estimates)
    else:
        text = _simulate_csv(sr, estimates)
    _write_output(text, args.output)
    return EXIT_OK


def _simulate_csv(sr, estimates):
    out = io.StringIO()
    out.write(",".join(("p", "trial") + STAT_NAMES) + "\n")
    for i, p in enumerate(sr.p_grid):
        for t in range(sr.trials):
            row = [repr(_fmt(p)), str(t), *(str(sr.stats[name][i, t]) for name in STAT_NAMES)]
            out.write(",".join(row) + "\n")
    out.write("# summary\n")
    out.write("p,stat,mean,stderr\n")
    for i, p in enumerate(sr.p_grid):
        for name in STAT_NAMES:
            out.write(
                f"{_fmt(p)!r},{name},{_fmt(float(sr.means[name][i]))!r},"
                f"{_fmt(float(sr.stderrs[name][i]))!r}\n"
            )
    if estimates:
        out.write("# out_prob\n")
        out.write("vertex,p,m,p_hat,stderr\n")
        for est in estimates:
            for m, ph, se in zip(est.m_values, est.p_hat, est.stderr):
                out.write(
                    f"{est.vertex},{_fmt(est.p)!r},{m},{_fmt(float(ph))!r},{_fmt(float(se))!r}\n"
                )
    return out.getvalue()


def _simulate_json(sr, estimates):
    doc = {
        "p_grid": [_fmt(p) for p in sr.p_grid],
        "n": sr.n,
        "trials": sr.trials,
        "giant_fraction": _fmt(sr.giant_fraction),
        "coupled": sr.coupled,
        "master_seed": sr.master_seed,
        "stats": {name: arr.tolist() for name, arr in sr.stats.items()},
        "means": {name: [_fmt(float(x)) for x in arr] for name, arr in sr.means.items()},
        "stderrs": {name: [_fmt(float(x)) for x in arr] for name, arr in sr.stderrs.items()},
        "out_prob": [
            {
                "vertex": est.vertex,
                "p": _fmt(est.p),
                "m": est.m_values.tolist(),
                "p_hat": [_fmt(float(x)) for x in est.p_hat],
                "stderr": [_fmt(float(x)) for x in est.stderr],
            }
            for est in estimates
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


def cmd_bounds_check(args):
    g = _load_graph(args.input, args.undirected)
    p_list = _parse_p_list(args.p)
    h = build_hashimoto(g)
    sr = compute_spectral_report(g, h)
    roots = _parse_roots(args.roots, g.n) if args.roots else tuple(range(min(3, g.n)))
    census = None
    if g.n <= VERTEX_CAP and g.n_arcs:  # n <= 16: at most 240 arcs, inside the trace cap
        census = enumerate_elementary_circuits(g)
    out = io.StringIO()
    out.write(
        "p,theorem1_bound,max_m_phat,theorem1_verdict,"
        "expected_sac,sac_trace,sac_closed,sac_verdict\n"
    )
    for p in p_list:
        try:
            t1 = out_component_probability_bound(p, sr.norm_row)
        except BoundDomainError:
            t1 = None
        max_mp = 0.0
        verdict = "void"
        if t1 is not None:
            worst = 0.0
            ok = True
            for v in roots:
                est = estimate_out_prob(g, v, p, args.m_max, args.trials, args.seed)
                mp = est.m_values * est.p_hat
                worst = max(worst, float(mp.max()))
                slack = t1 + 3.0 * est.m_values * est.stderr - mp
                if (slack < 0).any():
                    ok = False
            max_mp = worst
            verdict = "ok" if ok else "violation"
        sac_cells = ["", "", "", ""]
        if census is not None:
            try:
                e_n = expected_sac_count(census, p)
                tr_val = sac_bound_logdet(p, h, sr.rho_H)
                cl = sac_bound_closed(p, sr.rho_H, g.n_arcs)
                sac_ok = e_n <= tr_val + 1e-12 and tr_val <= cl + 1e-9
                sac_cells = [
                    repr(_fmt(e_n)), repr(_fmt(tr_val)), repr(_fmt(cl)),
                    "ok" if sac_ok else "violation",
                ]
            except BoundDomainError:
                sac_cells = ["", "", "", "void"]
        t1_cell = repr(_fmt(t1)) if t1 is not None else ""
        out.write(
            f"{_fmt(p)!r},{t1_cell},{_fmt(max_mp)!r},{verdict},"
            + ",".join(sac_cells) + "\n"
        )
    _write_output(out.getvalue(), args.output)
    return EXIT_OK


# gen family -> (generator, its (name, type) parameters, takes --seed)
GEN_FAMILIES = {
    "cycle": (gen_cycle, (("n", int),), False),
    "complete": (gen_complete_sym, (("n", int),), False),
    "path": (gen_path_sym, (("n", int),), False),
    "star": (gen_star_sym, (("k", int),), False),
    "regular": (gen_random_regular_sym, (("n", int), ("d", int)), True),
    "er": (gen_erdos_renyi_digraph, (("n", int), ("arc_prob", float)), True),
    "tree": (gen_random_tree_sym, (("n", int),), True),
}


def cmd_gen(args):
    gen, spec, seeded = GEN_FAMILIES[args.family]
    if len(args.params) != len(spec):
        raise ParseError(f"{args.family} needs " + " ".join(f"<{name}>" for name, _ in spec))
    params = [kind(text) for (_, kind), text in zip(spec, args.params)]
    g = gen(*params, seed=args.seed) if seeded else gen(*params)
    _write_output(serialize_edge_list(g), args.output)
    return EXIT_OK


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="nbperc",
        description="Non-backtracking spectral quantities and percolation bounds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="spectral + bounds pipeline")
    pa.add_argument("input")
    pa.add_argument("--undirected", action="store_true")
    pa.add_argument("--cycles", type=int, default=None, metavar="MAX_LEN",
                    help="also run the elementary-circuit census")
    pa.add_argument("--p", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    pa.add_argument("--format", choices=("json", "csv"), default="json")
    pa.add_argument("-o", "--output", default=None)
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="Monte-Carlo percolation sweep")
    ps.add_argument("input")
    ps.add_argument("--undirected", action="store_true")
    ps.add_argument("--p-min", type=float, required=True)
    ps.add_argument("--p-max", type=float, required=True)
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--trials", type=int, default=100)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--giant-fraction", type=float, default=0.01)
    ps.add_argument("--independent", action="store_true",
                    help="draw fresh vertex states per grid point (default: coupled)")
    ps.add_argument("--roots", default="",
                    help="comma list of root vertices for out-probability estimates")
    ps.add_argument("--m-max", type=int, default=20)
    ps.add_argument("--format", choices=("json", "csv"), default="csv")
    ps.add_argument("-o", "--output", default=None)
    ps.set_defaults(func=cmd_simulate)

    pb = sub.add_parser("bounds-check", help="bound vs Monte-Carlo verdict table")
    pb.add_argument("input")
    pb.add_argument("--undirected", action="store_true")
    pb.add_argument("--p", required=True)
    pb.add_argument("--trials", type=int, default=10000)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--roots", default="")
    pb.add_argument("--m-max", type=int, default=20)
    pb.add_argument("-o", "--output", default=None)
    pb.set_defaults(func=cmd_bounds_check)

    pg = sub.add_parser("gen", help="write a deterministic test-family edge list")
    pg.add_argument("family", choices=tuple(GEN_FAMILIES))
    pg.add_argument("params", nargs="+")
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("-o", "--output", default=None)
    pg.set_defaults(func=cmd_gen)
    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else EXIT_OK
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"nbperc: numeric failure: {exc}", file=sys.stderr)
        if exc.bracket is not None:
            print(f"nbperc: certified bracket: {exc.bracket}", file=sys.stderr)
        return EXIT_NUMERIC
    except (NbpercError, ValueError, OSError) as exc:
        print(f"nbperc: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
