"""Bitset-backed simple graphs: graph6 I/O, complement, BFS metrics, isomorphism.

A graph lives on vertices 0..n-1 (n <= 64) with one machine-word neighbour
bitmask per vertex, so complements and edge tests are a handful of integer
operations.  Every distance matrix and diameter comes from one kernel,
`distance_matrices`, which runs BFS from all vertices of a stack of
same-order graphs at once by Boolean matrix products; so does every
D(G^c): one function, `verify._complements`, builds it from this kernel on
a stack of complements, and one, `verify.eigenpairs`, solves it.
`is_connected` is a flood fill from vertex 0 over the bitsets.
Isomorphism has one primitive too, `orbit_minima`, for n <= 16: a
batched search for each graph's least relabeling, returned as canonical
rows (equal exactly for isomorphic graphs) with its automorphism count,
which needs no table of the n! relabelings.  `least_masks` packs
canonical rows into graph6 edge masks where those fit a machine word,
n <= 11.  All functions are pure and graphs are immutable, so values can
be shared freely.
"""

import numpy as np

MAX_VERTICES = 64
ISO_MAX_VERTICES = 16    # the search keeps vertex sets and canonical rows in uint16


class Graph6Error(ValueError):
    """Malformed graph6 input."""


class DisconnectedGraph(ValueError):
    """The operation needs a connected graph."""


NOT_CONNECTED = "vertex 0 does not reach all vertices"    # why a graph has no distance matrix


class TooLarge(ValueError):
    """Graph exceeds the size cap of the requested operation."""


class Graph:
    """Simple undirected graph as per-vertex neighbour bitsets.

    Invariants: adjacency is symmetric and irreflexive, and every bitset
    uses only bits 0..n-1.  `from_edges` and the graph6 decoder enforce
    both; code constructing `Graph` directly must do the same.  A plain
    class, as `spectra.IntPolynomial` is: graphs are compared and hashed
    by (n, adj), so they are never changed after construction.
    """

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: tuple[int, ...]):
        if not 1 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 1..{MAX_VERTICES}")
        if len(adj) != n:
            raise ValueError("adjacency tuple length differs from n")
        self.n = n
        self.adj = adj

    def __eq__(self, other):
        if other.__class__ is not Graph:
            return NotImplemented
        return self.n == other.n and self.adj == other.adj

    def __hash__(self):
        return hash((self.n, self.adj))

    def __repr__(self):
        return f"Graph(n={self.n!r}, adj={self.adj!r})"

    def has_edge(self, u: int, v: int) -> bool:
        return bool((self.adj[u] >> v) & 1)

    def degree(self, v: int) -> int:
        return bin(self.adj[v]).count("1")

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in _bits(self.adj[u]) if u < v]

    def edge_count(self) -> int:
        return sum(self.degree(v) for v in range(self.n)) // 2


def _bits(mask: int):
    """Yield the set bit positions of `mask` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def from_edges(n: int, edges) -> Graph:
    """Build a graph from an edge list, rejecting loops and out-of-range labels."""
    adj = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) outside 0..{n - 1}")
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return Graph(n, tuple(adj))


def g6_pairs(n: int) -> list[tuple[int, int]]:
    """Vertex pairs in graph6 bit order: column-major upper triangle."""
    return [(i, j) for j in range(1, n) for i in range(j)]


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph from an edge bitmask laid out in g6_pairs order."""
    adj = [0] * n
    for e, (i, j) in enumerate(g6_pairs(n)):
        if (mask >> e) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    return Graph(n, tuple(adj))


def to_edge_mask(g: Graph) -> int:
    """Edge bitmask of g in g6_pairs order."""
    mask = 0
    for e, (i, j) in enumerate(g6_pairs(g.n)):
        if g.has_edge(i, j):
            mask |= 1 << e
    return mask


# --- graph6 ----------------------------------------------------------------


G6_HEADER = ">>graph6<<"


def from_graph6(text: str) -> Graph:
    """Decode one graph6 record (n <= 64)."""
    s = text.strip()
    if s.startswith(G6_HEADER):
        s = s[len(G6_HEADER):]
    if not s:
        raise Graph6Error("empty graph6 record")
    data = [ord(c) - 63 for c in s]
    if any(not 0 <= d <= 63 for d in data):
        raise Graph6Error(f"character outside graph6 alphabet in {s!r}")
    if data[0] < 63:
        n, body = data[0], data[1:]
    else:
        if len(data) >= 2 and data[1] == 63:
            raise Graph6Error("8-byte graph6 order field: n > 64 unsupported")
        if len(data) < 4:
            raise Graph6Error("truncated graph6 order field")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]
    if not 1 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 1..{MAX_VERTICES}")
    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise Graph6Error(f"expected {(nbits + 5) // 6} data characters, got {len(body)}")
    adj = [0] * n
    k = 0
    for i, j in g6_pairs(n):
        if (body[k // 6] >> (5 - k % 6)) & 1:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
        k += 1
    # trailing padding bits must be zero
    while k < 6 * len(body):
        if (body[k // 6] >> (5 - k % 6)) & 1:
            raise Graph6Error("nonzero trailing bits in graph6 record")
        k += 1
    return Graph(n, tuple(adj))


def to_graph6(g: Graph) -> str:
    """Encode the labeled graph in graph6 (not isomorphism-canonical)."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    else:
        head = "~" + chr((n >> 12) + 63) + chr(((n >> 6) & 63) + 63) + chr((n & 63) + 63)
    bits = 0
    k = 0
    out = []
    for i, j in g6_pairs(n):
        bits = (bits << 1) | ((g.adj[i] >> j) & 1)
        k += 1
        if k % 6 == 0:
            out.append(chr(bits + 63))
            bits = 0
    if k % 6:
        out.append(chr((bits << (6 - k % 6)) + 63))
    return head + "".join(out)


def _graph6_error(text: str) -> str:
    """The message `from_graph6` rejects a record with."""
    try:
        from_graph6(text)
    except Graph6Error as exc:
        return str(exc)
    raise AssertionError(f"the batch decoder rejected the valid record {text!r}")


def decode_graph6_lines(lines) -> tuple[dict[int, tuple[np.ndarray, np.ndarray]],
                                       list[tuple[int, str]]]:
    """Decode the graph6 lines of a stream together, with no `Graph` per line.

    Lines are numbered from 1, and blank ones are skipped.  The records of
    one length become one uint8 array, whose alphabet, order field, length
    and zero padding are checked in vectorised form; each order's records
    then become one (m, n, n) uint8 adjacency stack, as `distance_matrices`
    takes it, by `stack_from_bits`.  Returns (orders, errors): `orders` maps
    each vertex count to the line numbers of its records, ascending, and
    their adjacency stack; `errors` holds (line number, `from_graph6`'s
    message) for every line that `from_graph6` rejects, in line order.
    """
    numbers: list[int] = []             # the line number of each non-blank line
    texts: list[str] = []               # the line, stripped
    records: list[str] = []             # the stripped line without its header
    by_length: dict[int, list[int]] = {}    # record length -> indices into texts
    bad: list[int] = []
    for lineno, line in enumerate(lines, start=1):
        s = line.strip()
        if not s:
            continue
        rec = s[len(G6_HEADER):] if s.startswith(G6_HEADER) else s
        if rec and rec.isascii():
            by_length.setdefault(len(rec), []).append(len(texts))
        else:
            bad.append(len(texts))
        numbers.append(lineno)
        texts.append(s)
        records.append(rec)
    parts: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for length, index in by_length.items():
        data = np.frombuffer("".join([records[k] for k in index]).encode("ascii"), dtype=np.uint8)
        index = np.array(index)
        data = data.reshape(len(index), length).astype(np.int64) - 63
        ok = ((data >= 0) & (data <= 63)).all(axis=1)
        n = data[:, 0].copy()
        head = np.ones(len(index), dtype=np.int64)
        if length >= 4:
            # the 4-byte order field; an 8-byte one gives n >= 63 << 12
            wide = n == 63
            n[wide] = (data[wide, 1] << 12) | (data[wide, 2] << 6) | data[wide, 3]
            head[wide] = 4
        # a shorter "~" record reads as n = 63, whose length check fails
        ok &= (n >= 1) & (n <= MAX_VERTICES) & (head + (n * (n - 1) // 2 + 5) // 6 == length)
        bad += index[~ok].tolist()
        for order, h in sorted(set(zip(n[ok].tolist(), head[ok].tolist()))):
            rows = np.flatnonzero(ok & (n == order) & (head == h))
            body = data[rows, h:].astype(np.uint8)
            # six bits per character, most significant first
            bits = np.unpackbits(body[:, :, None], axis=2)[:, :, 2:].reshape(len(rows), -1)
            nbits = order * (order - 1) // 2
            padded = bits[:, nbits:].any(axis=1)
            bad += index[rows[padded]].tolist()
            if padded.all():
                continue
            adj = stack_from_bits(bits[~padded, :nbits], order)
            parts.setdefault(order, []).append((index[rows[~padded]], adj))
    orders = {}
    for order in sorted(parts):
        index = np.concatenate([k for k, _ in parts[order]])
        line_order = np.argsort(index)
        orders[order] = (np.array(numbers)[index[line_order]],
                         np.concatenate([a for _, a in parts[order]])[line_order])
    return orders, [(numbers[k], _graph6_error(texts[k])) for k in sorted(bad)]


# --- basic operations -------------------------------------------------------


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    return Graph(g.n, tuple((full & ~(g.adj[v] | (1 << v))) for v in range(g.n)))


def adjacency_stack(graphs) -> np.ndarray:
    """0/1 adjacency matrices of same-order graphs as one (m, n, n) int64 tensor."""
    n = graphs[0].n
    rows = np.array([g.adj for g in graphs], dtype=np.uint64)
    bits = np.arange(n, dtype=np.uint64)
    return ((rows[:, :, None] >> bits) & np.uint64(1)).astype(np.int64)


def stack_from_bits(bits, n: int) -> np.ndarray:
    """(m, n, n) uint8 adjacency stack from (m, n(n-1)/2) 0/1 edge bits in
    g6_pairs order."""
    adj = np.zeros((len(bits), n, n), dtype=np.uint8)
    hi, lo = np.tril_indices(n, -1)     # g6_pairs order: (lo, hi) by hi, then lo
    adj[:, lo, hi] = bits
    adj[:, hi, lo] = bits
    return adj


def graphs_from_stack(adj) -> list[Graph]:
    """Same-order graphs from their stacked 0/1 adjacency matrices (m, n, n):
    the inverse of `adjacency_stack`."""
    n = adj.shape[-1]
    rows = (np.asarray(adj, dtype=np.uint64) << np.arange(n, dtype=np.uint64)).sum(
        axis=-1, dtype=np.uint64)
    return [Graph(n, tuple(r)) for r in rows.tolist()]


def adjacency_matrix(g: Graph) -> np.ndarray:
    return adjacency_stack([g])[0]


def distance_matrices(adj) -> np.ndarray:
    """BFS hop distances of 0/1 adjacency matrices stacked as (..., n, n), n <= 64.

    Breadth-first search by Boolean matrix products (Seidel, JCSS 51,
    1995): row u of `seen` is the ball around u, and one product
    seen . A grows every ball by one hop.  An entry of the product counts
    at most n vertices, so float64 holds it exactly.  A pair enters `seen`
    at its hop distance, which is its entry; pairs never reached are -1.
    """
    a = np.asarray(adj, dtype=np.float64)
    diag = np.arange(a.shape[-1])
    seen = a > 0                        # the balls of radius 1
    seen[..., diag, diag] = True
    dist = np.where(seen, np.int64(1), np.int64(-1))
    dist[..., diag, diag] = 0
    depth = 1
    while True:
        depth += 1
        new = (np.matmul(seen, a) > 0) & ~seen
        if not new.any():
            return dist
        dist[new] = depth
        seen |= new


def distance_matrix(g: Graph) -> np.ndarray:
    """BFS hop distances as an n x n integer matrix: `distance_matrices` of one graph."""
    d = distance_matrices(adjacency_matrix(g))
    if d.min() < 0:
        # no vertex of a disconnected graph reaches all the others
        raise DisconnectedGraph(NOT_CONNECTED)
    return d


def is_connected(g: Graph) -> bool:
    """Whether vertex 0 reaches every vertex, by a bitset flood fill."""
    full = (1 << g.n) - 1
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for v in _bits(frontier):
            nxt |= g.adj[v]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def diameter(g: Graph) -> int:
    return int(distance_matrix(g).max())


# --- isomorphism ------------------------------------------------------------


MINIMA_BLOCK_ENTRIES = 1 << 16      # (graphs x n^2) per block of the orbit-minimum search


def _minima_block(rows: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """`orbit_minima` of one block of graphs."""
    bit = np.uint16(1) << np.arange(n, dtype=np.uint16)
    pos = np.arange(n)
    # the twins of each vertex, itself included: the vertices with its open
    # or its closed neighbourhood.  Swapping two is an automorphism, and no
    # vertex has both kinds, so the twin classes partition the vertices.
    closed = rows | bit
    twins = sum(((rows == rows[:, w, None]) | (closed == closed[:, w, None])) * bit[w]
                for w in range(n))
    # one row per live branch: its graph, its labelings per branch, and its
    # ordered partition as the cell bitset at each cell's first position
    graph = np.arange(len(rows))
    weight = np.ones(len(rows), dtype=np.int64)
    cells = np.zeros((len(rows), n), dtype=np.uint16)
    cells[:, 0] = (1 << n) - 1
    canon = np.zeros((len(rows), n - 1), dtype=np.uint16)
    for k in range(n - 1):
        first = cells[:, k]
        tw = twins[graph] & first[:, None]
        # one candidate per twin class in the first cell: its lowest member
        b, v = np.nonzero((first[:, None] & bit != 0) & (tw & (bit - np.uint16(1)) == 0))
        graph, weight, cells = graph[b], weight[b] * np.bitwise_count(tw[b, v]), cells[b]
        cells[:, k + 1] |= cells[:, k] & ~bit[v]
        hood = rows[graph, v][:, None]
        rest = cells[:, k + 1:]
        # v's row: each later cell puts its cnt neighbours of v last
        cnt = np.bitwise_count(rest & hood).astype(np.int64)
        end = pos[k + 1:] + np.bitwise_count(rest)
        row = (((1 << cnt) - 1) << (n - end)).sum(axis=1)
        starts = np.flatnonzero(np.r_[True, graph[1:] != graph[:-1]])
        best = np.minimum.reduceat(row, starts)
        canon[:, k] = best
        keep = row == np.repeat(best, np.diff(np.r_[starts, len(row)]))
        graph, weight, cells, hood = graph[keep], weight[keep], cells[keep], hood[keep]
        # split every later cell: non-neighbours of v first, then neighbours
        rest = cells[:, k + 1:]
        lo, hi = rest & ~hood, rest & hood
        at = np.concatenate([np.broadcast_to(pos[k + 1:], lo.shape),
                             pos[k + 1:] + np.bitwise_count(lo)], axis=1)
        parts = np.concatenate([lo, hi], axis=1)
        i, j = np.nonzero(parts)
        cells[:, k + 1:] = 0
        cells[i, at[i, j]] = parts[i, j]
    starts = np.flatnonzero(np.r_[True, graph[1:] != graph[:-1]])
    return canon, np.add.reduceat(weight, starts)


def orbit_minima(rows, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Canonical rows of each graph's least relabeling, and |Aut| (n <= 16).

    `rows` is an (m, n) array of neighbour bitsets, the `Graph.adj` layout;
    returns (canon, aut), an (m, n - 1) uint16 and an int64 array aligned
    with it.  Two graphs are isomorphic exactly when their canonical rows
    are equal, and a graph's S_n orbit has n!/|Aut| members.  Compared
    lexicographically, canonical rows order graphs as their least graph6
    edge masks do, and `least_masks` packs them into those masks.

    Read from its top bit, a g6 mask is the row-major upper triangle in the
    vertex order n-1, n-2, ..., 0, and canonical row k is the row of
    position k, n - 1 - k bits.  Position k takes the vertex of the first
    cell of an ordered partition whose row, the sum over the later cells of
    (2^cnt - 1) << (n - end), is least (cnt: its neighbours in the cell;
    end: the cell's end position), and each cell then splits,
    non-neighbours first.  Tied branches advance together, level by level
    over a block of graphs (McKay & Piperno, "Practical graph isomorphism,
    II", J. Symb. Comput. 60, 2014).  Twins share a cell and tie, so a twin
    class branches once, weighted by its size there; the surviving weight
    is |Aut|.  Cells are uint16 vertex sets, whence ISO_MAX_VERTICES = 16.
    """
    if n > ISO_MAX_VERTICES:
        raise TooLarge(f"isomorphism supported up to n={ISO_MAX_VERTICES}")
    rows = np.asarray(rows, dtype=np.uint16).reshape(-1, n)
    if len(rows) == 0:
        return np.zeros((0, n - 1), dtype=np.uint16), np.zeros(0, dtype=np.int64)
    size = max(1, MINIMA_BLOCK_ENTRIES // (n * n))
    parts = [_minima_block(rows[i:i + size], n) for i in range(0, len(rows), size)]
    return np.concatenate([m for m, _ in parts]), np.concatenate([a for _, a in parts])


def least_masks(canon: np.ndarray) -> np.ndarray:
    """The least graph6 edge masks (uint64) that `orbit_minima`'s canonical
    rows encode, for n <= 11: an order-12 mask has 66 bits."""
    n = canon.shape[1] + 1
    if n > 11:
        raise ValueError(f"a graph6 edge mask of order {n} does not fit in 64 bits")
    # row k is followed by rows of n - 2 - k, ..., 1 bits
    shift = np.array([(n - 2 - k) * (n - 1 - k) // 2 for k in range(n - 1)], dtype=np.uint64)
    return (canon.astype(np.uint64) << shift).sum(axis=1, dtype=np.uint64)


def is_isomorphic(g: Graph, h: Graph) -> bool:
    """Whether g and h have equal canonical rows (n <= ISO_MAX_VERTICES)."""
    if g.n != h.n:
        return False
    canon, _ = orbit_minima([g.adj, h.adj], g.n)
    return bool(np.array_equal(canon[0], canon[1]))


def relabel(g: Graph, perm) -> Graph:
    """Image of g under the vertex bijection v -> perm[v]."""
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])
