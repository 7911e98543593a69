"""Simple digraph container with dense ids, edge-list I/O, and component analysis.

The graph is immutable after construction: vertex ids are dense 0-based
integers, arcs are stored in insertion order and the arc id is the position
in that order.  Self-loops and duplicate arcs are rejected outright; every
downstream formula assumes a simple digraph.  The arcs are held as two
int64 arrays plus an out-CSR, and validation, parsing and the derived
structures work on those arrays in bulk.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components as _cc
from scipy.sparse.csgraph import breadth_first_order, depth_first_order

from .errors import GraphStructureError, ParseError


class DiGraph:
    """Immutable simple digraph stored as arc arrays.

    Attributes:
        n: number of vertices.
        tails / heads: read-only int64 arc endpoints; position is the arc id.
        out_ptr / out_order: out-CSR; the arcs leaving v are
            out_order[out_ptr[v]:out_ptr[v + 1]], in arc-id order
            (out_order is a stable argsort of tails).

    These arrays are the whole representation; callers that walk the
    graph slice them.  ``pattern``, ``symmetric_pair_count``,
    ``strong_labels`` and ``input_digest`` are derived on first use and
    cached.
    """

    def __init__(self, n, arcs):
        """``arcs`` is an iterable of (tail, head) pairs."""
        arcs = arcs if isinstance(arcs, np.ndarray) else list(arcs)
        try:
            a = np.array(arcs, dtype=np.int64)
        except OverflowError:
            # Ids beyond int64 are out of range for any n: clamp them to
            # -1 or n so the checks still find the earliest offending arc,
            # whose message quotes the input.
            a = np.array([[min(max(int(x), -1), n) for x in arc] for arc in arcs],
                         dtype=np.int64)
        if a.size == 0:
            a = a.reshape(0, 2)
        if a.ndim != 2 or a.shape[1] != 2:
            raise ValueError("arcs must be (tail, head) pairs")
        self._build(n, a[:, 0], a[:, 1], arcs)

    @classmethod
    def from_arrays(cls, n, tails, heads):
        """Graph with arc i = tails[i] -> heads[i]; validated like DiGraph()."""
        g = cls.__new__(cls)
        g._build(n, tails, heads, None)
        return g

    def _build(self, n, tails, heads, shown):
        if n < 0:
            raise GraphStructureError(f"negative vertex count {n}")
        tails = np.array(tails, dtype=np.int64)
        heads = np.array(heads, dtype=np.int64)
        found, keys = _first_invalid_arc(n, tails, heads)
        if found is not None:
            aid, reason = found
            t, h = (int(x) for x in (shown[aid] if shown is not None
                                     else (tails[aid], heads[aid])))
            raise GraphStructureError({
                "range": f"arc ({t},{h}) references vertex outside 0..{n - 1}",
                "loop": f"self-loop ({t},{h}) not allowed",
                "duplicate": f"duplicate arc ({t},{h})",
            }[reason])
        out_ptr = _offsets(tails, n)
        # A stable argsort of tails as one sort of distinct keys.  tails *
        # m + arc id < n·m < 2**63: a larger n·m needs 8(n + 1) bytes of
        # out_ptr plus 16m of arcs, at least 64 GiB when n·m >= 2**63.
        m = len(tails)
        out_order = np.sort(tails * m + np.arange(m)) % m
        for arr in (tails, heads, out_ptr, out_order):
            arr.flags.writeable = False
        self.n = n
        self.tails = tails
        self.heads = heads
        self.out_ptr = out_ptr
        self.out_order = out_order
        # The sorted keys tail·n + head are the pattern's entries in row
        # order, so their heads are its column ids.
        self._pattern_cols = np.empty(m, dtype=_index_dtype(n))  # ids below n fit
        np.remainder(keys, max(n, 1), out=self._pattern_cols, casting="unsafe")

    @property
    def n_arcs(self):
        return len(self.tails)

    @cached_property
    def pattern(self):
        """Adjacency as an n x n CSR matrix of float64 ones over the out-CSR
        and the column ids built with the graph, made on first read.  Its
        rows are sorted by head: SciPy numbers strong components in search
        order, and sorted rows keep the numbering of a matrix built from
        (tail, head) pairs."""
        return _csr_pattern(self.n, self.out_ptr, self._pattern_cols)

    @cached_property
    def symmetric_pair_count(self):
        """len(symmetric_arc_pairs(g)).  build_hashimoto(g) fills it from
        the candidates its build drops; otherwise it comes from one sparse
        product: an arc whose reverse is an arc too is an entry of the
        pattern and of its transpose, and each pair gives two such entries
        (a graph has no self-loops)."""
        return self.pattern.multiply(self.pattern.T).nnz // 2

    @cached_property
    def strong_labels(self):
        """(component count, read-only int64 label per vertex) of the strong
        components; every strong-component query on the graph reads it.

        A fully symmetric graph (every arc's reverse is an arc) is strongly
        connected iff it is connected, so when one breadth-first search
        from vertex 0 reaches every vertex the labels are all 0 without a
        strong-component solve.  Any other graph is solved."""
        if (self.n and 2 * self.symmetric_pair_count == self.n_arcs
                and len(breadth_first_order(self.pattern, 0, return_predecessors=False))
                == self.n):
            return _one_component(self.n)
        return _strong_labels(self.pattern)

    @cached_property
    def input_digest(self):
        """The analyze document's input_digest: sha256 of f"{n}\n" and the
        arcs' "t h" lines in arc order, without the final newline.
        parse_edge_list(..., digest=True) fills it from the input's bytes
        where they are that listing."""
        return _input_digest(self)

    def out_degree(self, v):
        return int(self.out_ptr[v + 1] - self.out_ptr[v])

    def __eq__(self, other):
        return (isinstance(other, DiGraph) and self.n == other.n
                and np.array_equal(self.tails, other.tails)
                and np.array_equal(self.heads, other.heads))

    def __hash__(self):
        return hash((self.n, self.tails.tobytes(), self.heads.tobytes()))

    def __repr__(self):
        return f"DiGraph(n={self.n}, n_arcs={self.n_arcs})"


def _first_invalid_arc(n, tails, heads):
    """(found, keys): found is the (arc id, reason) of the earliest arc
    that leaves 0..n-1, is a self-loop or repeats an earlier arc, or None
    when every arc is valid, and then keys are the arcs' tails·n + heads,
    sorted.  At one arc the reasons are checked in that order."""
    outside = (tails < 0) | (tails >= n) | (heads < 0) | (heads >= n)
    loop = tails == heads
    # Out-of-range arcs get distinct negative keys, so they repeat nothing.
    key = np.where(outside, -1 - np.arange(len(tails)), tails * n + heads)
    repeat = np.zeros(len(tails), dtype=bool)
    sorted_key = np.sort(key)
    if (sorted_key[1:] == sorted_key[:-1]).any():
        order = np.argsort(key, kind="stable")  # the first of equal keys is not a repeat
        repeat[order[1:][key[order[1:]] == key[order[:-1]]]] = True
    bad = np.flatnonzero(outside | loop | repeat)
    if len(bad) == 0:
        return None, sorted_key
    aid = int(bad[0])
    return (aid, "range" if outside[aid] else "loop" if loop[aid] else "duplicate"), None


def _index_dtype(top):
    """np.int32 for indices and positions below top when top <= 2**31,
    else np.int64."""
    return np.int32 if top <= 2**31 else np.int64


def _offsets(keys, size):
    """CSR pointer of keys in 0..size-1: with the entries sorted by key,
    those with key v sit at ptr[v]:ptr[v + 1]."""
    ptr = np.zeros(size + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=size), out=ptr[1:])
    return ptr


def _split(flat, ptr):
    """flat[ptr[v]:ptr[v + 1]] for every v, as Python lists."""
    bounds = ptr.tolist()
    return [flat[a:b] for a, b in zip(bounds, bounds[1:])]


@dataclass(frozen=True)
class ComponentLabeling:
    """Strongly connected component labels.

    component_id: per-vertex component label (numpy int array).
    sizes: per-component vertex counts, indexed by label.
    """

    component_id: np.ndarray
    sizes: np.ndarray

    @property
    def count(self):
        return len(self.sizes)


# Vertex budget: the most vertices an input may imply, by its largest id
# or its '#n' header.  The parser checks it before it allocates anything
# vertex-sized, such as the two int64 arrays of the CSR offsets, which take
# at most 256 MiB under it.
MAX_VERTICES = 1 << 24
# Byte classes of the bulk reader: the ASCII bytes where str.splitlines()
# breaks, the rest of str.split()'s ASCII whitespace, digits, and the rest.
# The table is a bytes.translate table: one C pass maps every byte to its
# class without widening it to an index.
_BREAK, _SPACE, _DIGIT, _OTHER = range(4)
_BYTE_CLASS = bytes(_BREAK if b in b"\n\r\x0b\x0c\x1c\x1d\x1e"
                    else _SPACE if b in b" \t\x1f"
                    else _DIGIT if b in b"0123456789" else _OTHER for b in range(256))
# Longest id the bulk reader converts: 10**18 - 1 fits in int64.
_MAX_DIGITS = 18


def parse_edge_list(text, undirected=False, digest=False):
    """Parse whitespace-separated edge-list text into a DiGraph.

    Lines starting with '#' are comments, except an optional header
    "#n <N>" that fixes the vertex count.  With ``undirected`` set, each
    input line (u, v) yields both arcs u->v and v->u.

    An input may imply at most MAX_VERTICES vertices.

    Plain ASCII text with digit-only ids is read in bulk from its bytes.
    Any other text, valid or not, is read line by line, which takes every
    spelling int() takes and raises the ParseError of the first bad line.

    With ``digest`` set, a text read in bulk that is the canonical arc
    listing (an optional comment line, then exactly "t h\n" per arc, read
    without ``undirected``) gives the graph's input_digest from its own
    bytes, so no arc is formatted and no input byte is held afterwards.
    """
    try:
        return _parse_bytes(text, undirected, digest)
    except ValueError:  # ParseError, GraphStructureError and UnicodeError too
        return _parse_lines(text, undirected)


def _parse_bytes(text, undirected, digest=False):
    """parse_edge_list of plain ASCII text whose ids are digits only, read
    from its bytes in bulk.  Raises ValueError for any other text, valid
    or not; line numbers in its errors are not meaningful.

    Loading a graph peaks here, so the per-byte arrays are uint8 or bool,
    the per-word positions int32 (on texts under 2**31 bytes), and each
    array is dropped once used.  Gathers by int32 positions use take:
    NumPy's fancy indexing has no fast path for them and runs two to
    three times slower."""
    raw = text.encode("ascii")
    data = np.frombuffer(raw, np.uint8)
    cls = np.frombuffer(raw.translate(_BYTE_CLASS), np.uint8)
    # A word is a run of digit and other bytes: its start and end are
    # consecutive edges of that class.
    in_word = np.zeros(len(data) + 2, dtype=bool)
    np.greater_equal(cls, _DIGIT, out=in_word[1:-1])
    edges = np.flatnonzero(in_word[1:] != in_word[:-1])
    del in_word
    # NumPy gives positions as intp only: they are narrowed here, before
    # any other per-word array is made.
    edges = edges.astype(_index_dtype(len(data) + 1))
    starts, ends = edges.reshape(-1, 2).T
    breaks = np.flatnonzero(cls == _BREAK)
    other = np.flatnonzero(cls == _OTHER)
    # A word's line (lines count "\r\n" as two breaks) is the previous
    # word's, plus the breaks in the gap between them.  A one-byte gap is a
    # break or a space; only a wider one needs a search of the breaks.
    gap = np.empty_like(ends)  # where each word's gap starts: the previous word's end
    gap[:1] = 0  # the first word's gap is all the text before it
    gap[1:] = ends[:-1]
    line = (cls.take(gap) == _BREAK).astype(edges.dtype)
    del cls
    wide = np.flatnonzero(starts - gap != 1)
    line[wide] = np.searchsorted(breaks, starts[wide]) - np.searchsorted(breaks, gap[wide])
    np.cumsum(line, dtype=line.dtype, out=line)
    del gap
    first = np.ones(len(starts), dtype=bool)  # the word opens its line
    np.not_equal(line[1:], line[:-1], out=first[1:])
    comment = first & (data.take(starts) == ord("#"))
    comment_lines = line[comment]
    is_comment = np.zeros(len(breaks) + 1, dtype=bool)  # per line
    is_comment[comment_lines] = True
    declared_n = None
    for at, lineno in zip(starts[comment].tolist(), comment_lines.tolist()):
        stop = int(breaks[lineno]) if lineno < len(breaks) else len(data)
        count = _header(text[at:stop], lineno + 1)
        if count is not None:
            declared_n = count
    if not is_comment[np.searchsorted(breaks, other)].all():
        raise ValueError("a non-digit byte outside comments")
    body = ~is_comment.take(line)
    ends, lens, line = ends[body], (ends - starts)[body], line[body]
    del edges, starts
    if len(line) % 2 or (line[0::2] != line[1::2]).any() or (line[2::2] == line[1:-1:2]).any():
        raise ValueError("a line without exactly two vertex ids")
    width = int(lens.max(initial=0))
    if width > _MAX_DIGITS:
        raise ValueError(f"an id longer than {_MAX_DIGITS} digits")
    ids = np.zeros(len(ends), dtype=np.int64)
    for k in range(width, 0, -1):  # the k-th digit from each word's end
        ids *= 10
        digit = np.take(data, ends - k, mode="clip")
        digit -= ord("0")
        digit *= lens >= k
        ids += digit
    max_id = int(ids.max(initial=-1))
    if declared_n is not None and max_id >= declared_n:
        raise ValueError(f"vertex id {max_id} exceeds declared count {declared_n}")
    if max_id >= MAX_VERTICES:
        raise ValueError(f"vertex id {max_id} over the vertex budget")
    n = max_id + 1 if declared_n is None else declared_n
    input_digest = None
    if digest and not undirected:
        start = int(breaks[0]) + 1 if is_comment[0] and len(breaks) else 0  # after a comment line
        if _canonical_body(data, start, ends, ids, width):
            sha = hashlib.sha256(f"{n}\n".encode("ascii"))
            sha.update(memoryview(raw)[start:-1])
            input_digest = sha.hexdigest()
    # Only the ids stay alive while the graph is built.
    del raw, data, breaks, ends, lens, line, body, first, comment
    tails, heads = ids[0::2], ids[1::2]
    if undirected:
        tails, heads = np.stack([tails, heads], 1).ravel(), np.stack([heads, tails], 1).ravel()
    g = DiGraph.from_arrays(n, tails, heads)
    if input_digest is not None:
        g.__dict__["input_digest"] = input_digest
    return g


def _canonical_body(data, start, ends, ids, width):
    """Whether data[start:] is exactly "t h\n" per arc for the ids that
    its words spell, each word ending just before ends[i].

    Each tail word is followed by a space and each head word by a newline
    (a head word at the end of the text fails that), at distinct
    positions, and no id word is shorter than its canonical spelling.  So
    the body holds at least the canonical digits plus 2m bytes, and
    exactly that many only when no id has a leading zero and the body
    holds nothing else: no other comment, blank line, tab or CR."""
    digits = len(ids) + sum(int(np.count_nonzero(ids >= 10 ** k)) for k in range(1, width))
    return (len(data) - start == digits + len(ends)
            and bool((data.take(ends[0::2]) == ord(" ")).all())
            and bool((np.take(data, ends[1::2], mode="clip") == ord("\n")).all()))


def _header(line, lineno):
    """Vertex count of a '#n <N>' header, None for any other comment line."""
    parts = line[1:].split()
    if not parts or parts[0] != "n":
        return None
    if len(parts) != 2:
        raise ParseError("malformed '#n' header", lineno)
    try:
        declared_n = int(parts[1])
    except ValueError:
        raise ParseError(f"bad vertex count {parts[1]!r}", lineno) from None
    if declared_n < 0:
        raise ParseError(f"negative vertex count {declared_n}", lineno)
    if declared_n > MAX_VERTICES:
        raise ParseError(f"vertex count {declared_n} too large", lineno)
    return declared_n


def _parse_lines(text, undirected):
    """parse_edge_list one line at a time.  Raises the ParseError of the
    first invalid line of text, or the declared-count error if every line
    is valid."""
    declared_n = None
    arcs = {}  # insertion-ordered, so its keys are the arcs in input order
    max_id = -1
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            count = _header(line, lineno)
            if count is not None:
                declared_n = count
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"expected two vertex ids, got {len(parts)} tokens", lineno)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError(f"non-integer vertex id in {line!r}", lineno) from None
        if u < 0 or v < 0:
            raise ParseError(f"negative vertex id in {line!r}", lineno)
        if max(u, v) >= MAX_VERTICES:
            raise ParseError(f"vertex id too large in {line!r}", lineno)
        if u == v:
            raise ParseError(f"self-loop ({u},{v})", lineno)
        for pair in [(u, v), (v, u)] if undirected else [(u, v)]:
            if pair in arcs:
                raise ParseError(f"duplicate arc {pair}", lineno)
            arcs[pair] = None
        max_id = max(max_id, u, v)
    if declared_n is not None and max_id >= declared_n:
        raise ParseError(f"vertex id {max_id} exceeds declared count {declared_n}")
    return DiGraph(max_id + 1 if declared_n is None else declared_n, list(arcs))


# Arcs per block of the formatter: a block makes two Python ints per arc,
# about 120 bytes per arc with their list, tuple and text.  Blocks of
# 2**16 arcs raised the 80 x 80 lattice analyze's peak RSS by 1.3 MB.
_FORMAT_BLOCK = 1 << 12


def _arc_blocks(tails, heads):
    """The ASCII bytes of "%d %d\n" % (t, h) for every arc, in arc order,
    yielded in blocks of _FORMAT_BLOCK arcs."""
    for i in range(0, len(tails), _FORMAT_BLOCK):
        ids = np.stack([tails[i:i + _FORMAT_BLOCK], heads[i:i + _FORMAT_BLOCK]], 1).ravel()
        yield (b"%d %d\n" * (len(ids) // 2)) % tuple(ids.tolist())


def _input_digest(g):
    """DiGraph.input_digest of anything with n, tails and heads, fed to
    sha256 one formatted block at a time."""
    digest = hashlib.sha256(f"{g.n}\n".encode("ascii"))
    last = b""
    for block in _arc_blocks(g.tails, g.heads):
        digest.update(last)
        last = block
    digest.update(memoryview(last)[:-1])
    return digest.hexdigest()


def serialize_edge_list(g):
    """Inverse of parse_edge_list (directed form); preserves arc order."""
    return f"#n {g.n}\n" + b"".join(_arc_blocks(g.tails, g.heads)).decode("ascii")


def _csr_pattern(size, ptr, cols):
    """size x size CSR matrix of float64 ones whose row r holds the columns
    cols[ptr[r]:ptr[r + 1]], stored in that order."""
    return csr_matrix((np.ones(len(cols)), cols, ptr), shape=(size, size))


def _strong_labels(pattern):
    """(component count, read-only int64 labels) of the strong components of
    a sparse matrix's digraph, by compiled sparse graph machinery.  No row
    may hold a column twice: SciPy's solve never returns on one."""
    if pattern.shape[0] == 0:
        ncomp, labels = 0, np.zeros(0, dtype=np.int64)
    else:
        ncomp, labels = _cc(pattern, directed=True, connection="strong")
        labels = labels.astype(np.int64)
    labels.flags.writeable = False
    return ncomp, labels


def _one_component(size):
    """_strong_labels of a strongly connected digraph on size >= 1 vertices."""
    labels = np.zeros(size, dtype=np.int64)
    labels.flags.writeable = False
    return 1, labels


def _scc_labels(n, tails, heads):
    """_strong_labels of the digraph on n vertices with the given arcs."""
    return _strong_labels(csr_matrix(
        (np.ones(len(tails), dtype=np.int8), (tails, heads)), shape=(n, n)))


def strongly_connected_components(g):
    """Label maximal mutually-reachable vertex sets."""
    ncomp, labels = g.strong_labels
    sizes = np.bincount(labels, minlength=ncomp)
    return ComponentLabeling(labels, sizes)


def is_strongly_connected(g):
    return g.n == 0 or g.strong_labels[0] == 1


def induced_subgraph(g, open_vertices):
    """Subgraph induced by the open vertex set, with dense relabeling.

    Returns (subgraph, kept) where kept[new_id] = old_id.
    """
    kept = np.unique(np.fromiter(open_vertices, dtype=np.int64))
    outside = kept[(kept < 0) | (kept >= g.n)]
    if len(outside):
        raise GraphStructureError(f"vertex {outside[0]} outside 0..{g.n - 1}")
    remap = np.full(g.n, -1, dtype=np.int64)
    remap[kept] = np.arange(len(kept))
    t, h = remap[g.tails], remap[g.heads]
    inside = (t >= 0) & (h >= 0)
    return DiGraph.from_arrays(len(kept), t[inside], h[inside]), kept.tolist()


def symmetric_arc_pairs(g):
    """All unordered pairs {u->v, v->u} present in g, as (arc_id, arc_id).

    Each pair appears once, with the smaller arc id first; empty iff the
    graph has no symmetric edges.
    """
    aid, bid = _symmetric_arcs(g)
    return list(zip(aid.tolist(), bid.tolist()))


def _symmetric_arcs(g):
    """symmetric_arc_pairs as two arrays: aid[i] < bid[i] are reverse arcs."""
    if g.n_arcs == 0:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    key = g.tails * g.n + g.heads
    reverse_key = g.heads * g.n + g.tails
    order = np.argsort(key)
    by_reverse = np.argsort(reverse_key)  # sorted needles keep the search cache-friendly
    at = np.searchsorted(key[order], reverse_key[by_reverse])
    rev = np.empty(g.n_arcs, dtype=np.int64)  # the reverse arc, where there is one
    rev[by_reverse] = order[np.minimum(at, g.n_arcs - 1)]
    aid = np.flatnonzero((key[rev] == reverse_key) & (np.arange(g.n_arcs) < rev))
    return aid, rev[aid]


def is_robustly_strongly_connected(g):
    """True iff g is strongly connected and stays so after deleting either
    member of any symmetric arc pair (one at a time).

    Only the pairs whose edge is a bridge of the symmetric skeleton (the
    undirected graph of the symmetric pairs) need a check: any other edge
    {u, v} lies on a skeleton cycle, whose arcs give u a path to v that
    avoids u->v, and v one to u that avoids v->u.  Each bridge arc costs
    one strong-component solve, and the first failure ends the checks.
    """
    if not is_strongly_connected(g):
        return False
    aid, bid = _symmetric_arcs(g)
    bridge = _skeleton_bridges(g.n, g.tails[aid], g.heads[aid])
    for drop in np.concatenate((aid[bridge], bid[bridge])).tolist():
        keep = np.ones(g.n_arcs, dtype=bool)
        keep[drop] = False
        ncomp, _ = _scc_labels(g.n, g.tails[keep], g.heads[keep])
        if ncomp != 1:
            return False
    return True


def _skeleton_bridges(n, u, v):
    """Which edges {u[i], v[i]} of a simple undirected graph on n vertices
    are bridges, as a boolean array.

    One depth-first search, from a virtual root n that points at the
    lowest vertex of each component with an edge, orients tree edges from
    parent to child and every other edge, which joins a vertex to one of
    its ancestors, from the later to the earlier preorder.  An edge is a
    bridge iff its ends fall in different strong components of that
    orientation (Robbins 1939; Tarjan 1974).  SciPy's search rescans a
    vertex's list each time it returns to it, so it takes O(sum of
    squared degrees) steps.
    """
    if len(u) == 0:
        return np.zeros(0, dtype=bool)
    t, h = np.concatenate((u, v)), np.concatenate((v, u))
    _, comp = _cc(csr_matrix((np.ones(len(t), dtype=np.int8), (t, h)), shape=(n, n)),
                  directed=False)
    _, lowest = np.unique(comp, return_index=True)
    roots = lowest[np.isin(lowest, t)]
    rooted = csr_matrix((np.ones(len(t) + len(roots), dtype=np.int8),
                         (np.concatenate((t, np.full(len(roots), n))),
                          np.concatenate((h, roots)))), shape=(n + 1, n + 1))
    order, parent = depth_first_order(rooted, n, directed=True, return_predecessors=True)
    pre = np.zeros(n + 1, dtype=np.int64)
    pre[order] = np.arange(len(order))
    first = pre[u] < pre[v]
    early, late = np.where(first, u, v), np.where(first, v, u)
    tree = parent[late] == early
    _, labels = _scc_labels(n, np.where(tree, early, late), np.where(tree, late, early))
    return labels[u] != labels[v]
