"""Seeded input generators and the command sequence of each workload.

The generators are the benchmark's own numpy code, not nbperc.generators,
so a change to the package's generators cannot silently change what a
workload measures.  Each input is written as an edge-list file that the CLI
reads; its sha256, n and arc count are recorded beside the results.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

NAMES = ("expander", "lattice", "er-deep", "validate")

EXPANDER_N = 100_000
LATTICE_SIDE = 80
ER_N = 4_000
ER_MEAN_OUT_DEGREE = 1.5
VALIDATE_ANALYZE_N = 100
VALIDATE_CHECK_N = 16


@dataclass(frozen=True)
class EdgeList:
    """One generated input: every arc, plus how the file encodes them.

    With ``undirected`` set the file holds each edge once (arcs 2k and
    2k+1 are its two directions) and the CLI is given --undirected.
    """

    n: int
    tails: np.ndarray
    heads: np.ndarray
    undirected: bool = False

    @property
    def n_arcs(self):
        return len(self.tails)

    def text(self):
        step = 2 if self.undirected else 1
        pairs = zip(self.tails[::step].tolist(), self.heads[::step].tolist())
        return "\n".join([f"#n {self.n}", *(f"{t} {h}" for t, h in pairs)]) + "\n"


@dataclass(frozen=True)
class Command:
    """One CLI invocation: subcommand, input name, and options in CLI order."""

    name: str
    input: str
    options: tuple = ()  # ((option, value), ...), e.g. (("p_min", 0.3),)

    def opt(self, key, default=None):
        return dict(self.options).get(key, default)


def _rng(seed, tag):
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _symmetrize(n, u, v, undirected=False):
    """Each edge (u, v) becomes the arcs u->v, v->u, adjacent in arc order."""
    tails = np.column_stack([u, v]).ravel().astype(np.int64)
    heads = np.column_stack([v, u]).ravel().astype(np.int64)
    return EdgeList(n, tails, heads, undirected)


def random_regular3(n, seed, tag):
    """Uniform simple 3-regular graph: configuration-model pairings that
    contain a self-loop or a multi-edge are redrawn whole."""
    rng = _rng(seed, tag)
    stubs = np.repeat(np.arange(n, dtype=np.int64), 3)
    while True:
        perm = rng.permutation(stubs)
        u, v = perm[0::2], perm[1::2]
        if np.any(u == v):
            continue
        key = np.minimum(u, v) * n + np.maximum(u, v)
        if len(np.unique(key)) == len(key):
            return _symmetrize(n, u, v)


def lattice(side):
    """side x side grid, each vertex joined to its right and lower neighbour."""
    ids = np.arange(side * side, dtype=np.int64).reshape(side, side)
    u = np.concatenate([ids[:, :-1].ravel(), ids[:-1, :].ravel()])
    v = np.concatenate([ids[:, 1:].ravel(), ids[1:, :].ravel()])
    return _symmetrize(side * side, u, v, undirected=True)


def erdos_renyi(n, arc_prob, seed, tag):
    """Each ordered pair (i, j), i != j, is an arc with probability arc_prob:
    a binomial arc count, then that many distinct pairs uniformly."""
    rng = _rng(seed, tag)
    pairs = n * (n - 1)
    k = np.sort(rng.choice(pairs, size=rng.binomial(pairs, arc_prob), replace=False))
    tails = k // (n - 1)
    heads = k % (n - 1)
    heads = heads + (heads >= tails)
    return EdgeList(n, tails.astype(np.int64), heads.astype(np.int64))


def inputs(name, seed):
    """{input name: EdgeList} of workload ``name``; "graph" is the primary
    input, the one every command loads and setup_s times."""
    if name == "expander":
        return {"graph": random_regular3(EXPANDER_N, seed, 1)}
    if name == "lattice":
        return {"graph": lattice(LATTICE_SIDE)}
    if name == "er-deep":
        return {"graph": erdos_renyi(ER_N, ER_MEAN_OUT_DEGREE / ER_N, seed, 2)}
    if name == "validate":
        return {"graph": random_regular3(VALIDATE_ANALYZE_N, seed, 3),
                "small": random_regular3(VALIDATE_CHECK_N, seed, 4)}
    raise ValueError(f"unknown workload {name!r}")


def commands(name, seed):
    """The workload's CLI command sequence; the workload seed also seeds
    the Monte-Carlo commands."""
    analyze = Command("analyze", "graph")
    if name == "expander":
        return (analyze, Command("simulate", "graph", (
            ("p_min", 0.3), ("p_max", 0.7), ("steps", 11), ("trials", 10),
            ("roots", "0"), ("m_max", 20), ("seed", seed))))
    if name == "lattice":
        return (analyze, Command("simulate", "graph", (
            ("p_min", 0.45), ("p_max", 0.75), ("steps", 16), ("trials", 100),
            ("seed", seed))))
    if name == "er-deep":
        return (analyze, Command("simulate", "graph", (
            ("p_min", 0.5), ("p_max", 1.0), ("steps", 11), ("trials", 1),
            ("seed", seed))))
    if name == "validate":
        return (analyze, Command("bounds-check", "small", (
            ("p", "0.1,0.2,0.3,0.4,0.45"), ("trials", 100000), ("m_max", 20),
            ("seed", seed))))
    raise ValueError(f"unknown workload {name!r}")


def write_inputs(name, seed, directory):
    """Generate and write every input file of the workload.

    Returns {input name: {"path", "undirected", "sha256", "n", "n_arcs"}}
    and the EdgeLists themselves (the oracles need the arcs).
    """
    els = inputs(name, seed)
    facts = {}
    for key, el in els.items():
        data = el.text().encode("ascii")
        path = directory / f"{name}-{key}.txt"
        path.write_bytes(data)
        facts[key] = {"path": str(path), "undirected": el.undirected,
                      "sha256": hashlib.sha256(data).hexdigest(),
                      "n": el.n, "n_arcs": el.n_arcs}
    return facts, els


def cli_argv(command, input_facts, output):
    """argv for nbperc.cli.main that runs ``command`` and writes ``output``."""
    facts = input_facts[command.input]
    argv = [command.name, facts["path"]]
    if facts["undirected"]:
        argv.append("--undirected")
    if command.name == "analyze":
        argv += ["--format", "json"]
    for key, value in command.options:
        argv += ["--" + key.replace("_", "-"), str(value)]
    return argv + ["-o", str(output)]
