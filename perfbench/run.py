"""nbperc benchmark: one workload, timed end to end or traced by layer.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload expander --seed 1 --seconds 30 --trace 0

Workloads: expander, lattice, er-deep, validate (see perfbench/README.md).
The inputs are generated from --seed by the benchmark's own code and
written as edge-list files.  A fresh child process (perfbench/runner.py)
runs the workload against the checkout's src/; this process then checks
every output against independent oracles and prints a report whose last
line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
A record with run facts, input digests, output digests and (traced runs)
every span is written to perfbench/results/.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

import checks
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"setup_s": "s", "analyze_s": "s", "commands_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS_BY_SUFFIX = {"_s": "s", "_bytes": "bytes", "_width": "ratio",
                         "_efficiency": "ratio"}


def _layer_unit(metric):
    for suffix, unit in LAYER_UNITS_BY_SUFFIX.items():
        if metric.endswith(suffix):
            return unit
    return "count"


def run_facts():
    caches = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")) if base.is_dir() else ():
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{level}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "NBPERC_THREADS": "unset in timed runs",
        "gc": "enabled, as the program runs",
    }


def code_digest():
    """sha256 over the package sources: outputs of one code version must
    be byte-identical across runs with the same seed."""
    h = hashlib.sha256()
    for path in sorted((SRC / "nbperc").rglob("*.py")):
        h.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def run_child(spec, workdir):
    spec_path, result_path = workdir / "spec.json", workdir / "result.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if k != "NBPERC_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, str(HERE / "runner.py"), str(spec_path), str(result_path)],
        env=env, stdout=sys.stderr, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"runner exited with code {proc.returncode}")
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return json.loads(result_path.read_text()), peak_mb


def content_checks(cmds, els, outputs):
    """Failures of each command's first output, by command index."""
    g = els["graph"]
    h = checks.nb_matrix(g.n, g.tails, g.heads)
    rho = checks.oracle_rho(h)
    regular3 = bool((np.bincount(g.tails, minlength=g.n) == 3).all()
                    and (np.bincount(g.heads, minlength=g.n) == 3).all())
    def check(cmd, text):
        if cmd.name == "analyze":
            return checks.check_analyze(
                json.loads(text), rho, regular3=regular3,
                neg_logdet=lambda p: checks.oracle_neg_logdet(h, p))
        if cmd.name == "simulate":
            rows = checks.simulate_rows(text)
            found = checks.check_simulate(rows, cmd.opt("steps"), cmd.opt("trials"))
            return found + (checks.check_crossing(rows, g.n, rho) if regular3 else [])
        return checks.check_bounds_check(text, len(cmd.opt("p").split(",")))

    fails = {}
    for i, cmd in enumerate(cmds):
        if outputs[i] is None:
            fails[i] = [f"{cmd.name}: no output"]
            continue
        try:
            fails[i] = check(cmd, Path(outputs[i]).read_text())
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            fails[i] = [f"{cmd.name}: malformed output ({exc!r})"]
    return fails, rho


def remember_outputs(key, digests, fails):
    """Add to ``fails`` where an earlier run of the same code and seed
    wrote different bytes; the digests are recorded for later runs."""
    index_path = HERE / "results" / "output-digests.json"
    index = json.loads(index_path.read_text()) if index_path.exists() else {}
    for i, digest in enumerate(digests):
        seen = index.setdefault(key, {}).setdefault(str(i), digest)
        if digest is not None and seen != digest:
            fails.setdefault(i, []).append(
                f"command {i}: output differs from an earlier run with this seed")
    tmp = index_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(index, indent=1, sort_keys=True))
    tmp.replace(index_path)


def first_runs(runs):
    """The first run of each command, by command index."""
    first = {}
    for r in runs:
        first.setdefault(r["index"], r)
    return [first[i] for i in sorted(first)]


def score(runs, first_fails):
    """(attempted, failed, messages): every command run is an attempt; it
    fails on a non-zero exit, an output that differs from the command's
    first run, or a failed check of that first output."""
    first = first_runs(runs)
    attempted = failed = 0
    messages = []
    for r in runs:
        attempted += 1
        if r["rc"] != 0:
            messages.append(f"{r['command']}: exit code {r['rc']} {r['error'] or ''}".strip())
        elif r["sha256"] != first[r["index"]]["sha256"]:
            messages.append(f"{r['command']}: output not byte-identical across repetitions")
        if (r["rc"] != 0 or r["sha256"] is None or r["sha256"] != first[r["index"]]["sha256"]
                or first_fails.get(r["index"])):
            failed += 1
    for msgs in first_fails.values():
        messages.extend(msgs)
    return attempted, failed, messages


def median_seconds(runs, index):
    vals = [r["seconds"] for r in runs if r["index"] == index]
    return statistics.median(vals), len(vals)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "nbperc" / "cli.py").is_file():
        print(f"perfbench: no nbperc sources under {SRC}", file=sys.stderr)
        return 2

    (HERE / "results").mkdir(exist_ok=True)
    (HERE / ".work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir):
    t0 = time.perf_counter()
    facts, els = workloads.write_inputs(args.workload, args.seed, workdir)
    cmds = workloads.commands(args.workload, args.seed)
    spec = {"mode": "trace" if args.trace else "e2e", "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "inputs": facts,
            "workdir": str(workdir)}
    result, peak_mb = run_child(spec, workdir)
    runs = result["runs"]
    first = first_runs(runs)
    first_fails, rho = content_checks(
        cmds, els, [c["output"] if c["sha256"] else None for c in first])
    key = f"{args.workload}|seed={args.seed}|code={code_digest()}"
    remember_outputs(key, [c["sha256"] for c in first], first_fails)
    attempted, failed, messages = score(runs, first_fails)
    for p in result.get("passes", ()):
        attempted += 1
        if p["failures"]:
            failed += 1
            messages.extend(p["failures"])

    w = args.workload
    print(f"# perfbench workload={w} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds} wall={time.perf_counter() - t0:.1f}s")
    facts_run = run_facts()
    print(f"# run facts: {json.dumps(facts_run)}")
    for key_, f in facts.items():
        print(f"# input {key_}: n={f['n']} n_arcs={f['n_arcs']} sha256={f['sha256']}"
              + (" (read with --undirected)" if f["undirected"] else ""))
    print(f"# oracle rho_H (ARPACK, LR) = {rho!r}")
    for i, c in enumerate(first):
        print(f"# output {i} {c['command']}: sha256={c['sha256']}")

    if args.trace:
        metrics, absent = _layer_metrics(result["passes"])
        for name, m in metrics.items():
            note = f"  [absent: {absent[name]}]" if name in absent else ""
            print(f"{w} {name} {m['value']!r} {m['unit']}{note}")
    else:
        metrics = _e2e_metrics(result["setup_seconds"], runs, cmds, peak_mb, w)
    print(f"{w} failed_frac {failed / attempted!r} ratio ({failed}/{attempted} commands)")
    for msg in messages:
        print(f"# FAILED: {msg}")

    record = {"workload": w, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "run_facts": facts_run, "inputs": facts,
              "outputs": [{"command": c["command"], "sha256": c["sha256"]} for c in first],
              "oracle_rho_H": rho, "metrics": metrics, "failures": messages,
              "raw": {k: v for k, v in result.items() if k != "passes"},
              "passes": result.get("passes", [])}
    (HERE / "results" / f"{w}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _e2e_metrics(setup, runs, cmds, peak_mb, w):
    medians = [median_seconds(runs, i) for i in range(len(cmds))]
    values = {
        "setup_s": statistics.median(setup),
        "analyze_s": next(m for (m, _), c in zip(medians, cmds) if c.name == "analyze"),
        "commands_s": sum(m for m, _ in medians),
        "peak_rss_mb": peak_mb,
    }
    print(f"{w} setup_s {values['setup_s']!r} s  (median of {len(setup)} set-ups)")
    for (med, k), cmd in zip(medians, cmds):
        print(f"{w} {cmd.name.replace('-', '_')}_s {med!r} s  (median of {k} runs)")
    print(f"{w} commands_s {values['commands_s']!r} s  (sum of the command medians)")
    print(f"{w} peak_rss_mb {peak_mb!r} MB")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def _layer_metrics(passes):
    names = passes[0]["metrics"].keys()
    absent = {}
    for p in passes:
        absent.update(p["absent"])
    metrics = {}
    for n in names:
        unit = _layer_unit(n)
        median = statistics.median_low if unit in ("count", "bytes") else statistics.median
        metrics[n] = {"value": median([p["metrics"][n] for p in passes]), "unit": unit}
    return metrics, absent


if __name__ == "__main__":
    sys.exit(main())
