"""Exhaustive enumeration of diameter->3 graphs and claim verification.

The exhaustive scan works on isomorphism classes, never on the labeled
graphs.  A generator builds the connected graphs of diameter greater than
three on n vertices one vertex at a time, up to isomorphism: each level
extends the previous one by a new vertex with every non-empty
neighbourhood, filters the candidates with numpy-vectorized bitset BFS,
and keeps one smallest edge mask per S_n orbit, with the orbit's size.
Every generated class member has Lemma 2.1's identity checked.  D(G^c) is
then solved once per class, and every count is weighted by the class's
orbit size.  The generator runs in one process, so results are
byte-identical for any worker count; worker processes scan only the
labeled chunks of Lemma 2.1's diameter-3 half.  A witness is the smallest
edge mask of its class, a labeling that does not depend on eigensolver
rounding.

Every lemma and theorem checker returns a VerificationReport whose status
is measured, never assumed: claims that fail are `refuted` with witnesses,
claims whose true direction opposes the stated one are
`confirmed-with-reversed-direction`.
"""

import random
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from itertools import permutations, repeat

import numpy as np

from cdspectra import quotients
from cdspectra.families import (
    FAMILIES,
    build_T1,
    build_T2,
    build_path,
    build_star,
)
from cdspectra.graphcore import (
    ISO_MAX_VERTICES,
    DisconnectedGraph,
    Graph,
    Graph6Error,
    adjacency_stack,
    complement,
    distance_matrices,
    distance_matrix,
    from_edge_mask,
    from_edges,
    from_graph6,
    g6_pairs,
    is_isomorphic,
    to_graph6,
)
from cdspectra.spectra import (
    CHAR_POLY_MAX_N,
    certify_root_order,
    char_poly_exact,
    sym_eigenvalues,
)

CHUNK_BITS = 20                     # fixed: labeled scan results must not depend on workers
STREAM_BLOCK_ENTRIES = 1 << 18      # matrix entries per kernel call on a graph6 stream
CLUSTER_TOL = 1e-9
STRICT_MARGIN = 1e-9
EXACT_RECHECK_BELOW = 1e-6
RECHECK_WINDOW = 1e-11              # rescan window around a near-tie value
ZERO_TOL = 1e-9                     # eigenvector entry treated as zero
DEGENERATE_GAP = 1e-8

CLAIM_IDS = (
    "2.1", "2.3", "2.5", "2.6", "2.7",
    "3.1", "3.4", "3.5", "3.6", "3.9", "3.11", "3.12",
    "T2.4", "T2.8", "T3.7", "T3.13",
    "quotient-consistency",
)


@dataclass
class SignPartition:
    """Vertex classes by sign of the least-eigenvalue eigenvector of D(g^c)."""

    plus: tuple[int, ...]
    zero: tuple[int, ...]
    minus: tuple[int, ...]
    p: int
    q: int
    degenerate: bool


@dataclass
class VerificationReport:
    claim_id: str
    status: str                     # confirmed | refuted | confirmed-with-reversed-direction
    params: dict
    extremal: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)
    margin: float | None = None
    counterexamples: list = field(default_factory=list)
    notes: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "claim": self.claim_id,
            "status": self.status,
            "params": self.params,
            "extremal": self.extremal,
            "witnesses": self.witnesses,
            "margin": self.margin,
            "counterexamples": self.counterexamples,
            "notes": self.notes,
            "details": self.details,
        }


# --- vectorized mask enumeration ---------------------------------------------


def _selfbits(n: int) -> np.ndarray:
    return np.array([1 << v for v in range(n)], dtype=np.uint8)[:, None]


def _adj_rows(masks: np.ndarray, n: int) -> np.ndarray:
    """Neighbour bitsets of shape (n, m): one contiguous row per vertex."""
    adj = np.zeros((n, len(masks)), dtype=np.uint8)
    # split the masks into bytes once, so the per-edge work runs on uint8
    edge_bytes = [((masks >> np.uint32(8 * k)) & np.uint32(0xFF)).astype(np.uint8)
                  for k in range((len(g6_pairs(n)) + 7) // 8)]
    bit = np.empty(len(masks), dtype=np.uint8)
    for e, (i, j) in enumerate(g6_pairs(n)):
        np.right_shift(edge_bytes[e >> 3], np.uint8(e & 7), out=bit)
        bit &= np.uint8(1)
        adj[i] |= bit << np.uint8(j)
        adj[j] |= bit << np.uint8(i)
    return adj


def _spread(ball: np.ndarray, adj: np.ndarray, n: int) -> np.ndarray:
    """Union of the rows adj[w] over the bits w set in each ball."""
    out = np.zeros_like(ball)
    term = np.empty_like(ball)
    for w in range(n):
        np.right_shift(ball, np.uint8(w), out=term)
        term &= np.uint8(1)
        term *= adj[w]
        out |= term
    return out


def _expand_one(ball: np.ndarray, adj: np.ndarray, n: int) -> np.ndarray:
    return ball | _spread(ball, adj, n)


def _expand_all(balls: np.ndarray, adj: np.ndarray, n: int) -> np.ndarray:
    return np.stack([_expand_one(balls[v], adj, n) for v in range(n)])


def _ball_radius(adj: np.ndarray, n: int, radius: int) -> np.ndarray:
    balls = adj | _selfbits(n)
    for _ in range(radius - 1):
        balls = _expand_all(balls, adj, n)
    return balls


def _connected_mask(adj: np.ndarray, n: int) -> np.ndarray:
    full = np.uint8((1 << n) - 1)
    r = adj[0] | np.uint8(1)
    for _ in range(n - 2):
        r = _expand_one(r, adj, n)
    return r == full


def _complement_rows(adj: np.ndarray, n: int) -> np.ndarray:
    full = np.uint8((1 << n) - 1)
    return (~(adj | _selfbits(n))) & full


def _adjacency_tensor(rows: np.ndarray, n: int) -> np.ndarray:
    """Bitset rows (n, m) as a C-contiguous 0/1 tensor t[k, u, v] = bit v of rows[u, k]."""
    shifts = np.arange(n, dtype=np.uint8)[None, :, None]
    bits = (rows[:, None, :] >> shifts) & np.uint8(1)
    return bits.transpose(2, 0, 1).astype(np.int8, order="C")


def _distance_from_balls(b1, b2, n: int) -> np.ndarray:
    """Distances 1..3 from nested ball membership; caller checks coverage."""
    d = 3 - _adjacency_tensor(b1, n) - _adjacency_tensor(b2, n)
    d[:, np.arange(n), np.arange(n)] = 0
    return d


def _complement_distances(adj: np.ndarray, n: int):
    """D(G^c) as an (m, n, n) int8 tensor, and which complements have diameter <= 3."""
    comp = _complement_rows(adj, n)
    cb2 = _expand_all(comp | _selfbits(n), comp, n)
    cb3 = _expand_all(cb2, comp, n)
    covered = np.bitwise_and.reduce(cb3, axis=0) == np.uint8((1 << n) - 1)
    return _distance_from_balls(comp, cb2, n), covered


def _chunk_masks(n: int, index: int) -> np.ndarray:
    nbits = n * (n - 1) // 2
    total = 1 << nbits
    lo = index << CHUNK_BITS
    hi = min(total, (index + 1) << CHUNK_BITS)
    return np.arange(lo, hi, dtype=np.uint32)


def _chunk_count(n: int) -> int:
    nbits = n * (n - 1) // 2
    return ((1 << nbits) + (1 << CHUNK_BITS) - 1) >> CHUNK_BITS


def _class_keep(adj: np.ndarray, n: int) -> np.ndarray:
    """Which graphs are connected with diameter > 3."""
    full = np.uint8((1 << n) - 1)
    diam_le3 = np.bitwise_and.reduce(_ball_radius(adj, n, 3), axis=0) == full
    return _connected_mask(adj, n) & ~diam_le3


def _survivor_adj(masks: np.ndarray, n: int):
    """Connected, diameter > 3 filter; returns (masks, adjacency rows)."""
    adj = _adj_rows(masks, n)
    keep = _class_keep(adj, n)
    return masks[keep], adj[:, keep]


def _cluster(values: np.ndarray, keys: np.ndarray, mode: str) -> dict | None:
    """Extremal cluster of (value, key) pairs plus nearest runner-up value."""
    if values.size == 0:
        return None
    if mode == "min":
        v = float(values.min())
        sel = values <= v + CLUSTER_TOL
        rest = values[~sel]
        runner = float(rest.min()) if rest.size else None
    else:
        v = float(values.max())
        sel = values >= v - CLUSTER_TOL
        rest = values[~sel]
        runner = float(rest.max()) if rest.size else None
    pairs = sorted((float(val), int(k)) for val, k in zip(values[sel], keys[sel]))
    return {"value": v, "pairs": pairs, "runner_up": runner}


def _map_chunks(fn, n: int, workers: int) -> list:
    """fn(n, index) for every chunk, in chunk order, run in at most `workers`
    processes and never in more processes than there are chunks."""
    indices = range(_chunk_count(n))
    if workers > 1 and len(indices) > 1:
        with ProcessPoolExecutor(max_workers=min(workers, len(indices))) as pool:
            return list(pool.map(fn, repeat(n), indices))
    return [fn(n, i) for i in indices]


@lru_cache(maxsize=None)
def _perm_edge_bits(n: int) -> np.ndarray:
    """Row e holds, for each permutation of S_n, the mask bit of edge e's image."""
    pairs = np.array(g6_pairs(n)).T
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    a, b = perms[:, pairs[0]].T, perms[:, pairs[1]].T
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    # (lo, hi) is edge hi(hi-1)/2 + lo in g6_pairs order
    return np.left_shift(np.uint32(1), (hi * (hi - 1) // 2 + lo).astype(np.uint32))


def _orbit_masks(n: int, mask) -> np.ndarray:
    """Edge mask of the graph `mask` relabeled by each permutation of S_n, as uint32.

    uint32 is the candidate dtype: searchsorted with wider keys would convert
    the whole candidate array on every call.
    """
    mask = int(mask)
    edges = [e for e in range(n * (n - 1) // 2) if (mask >> e) & 1]
    return _perm_edge_bits(n)[edges].sum(axis=0, dtype=np.uint32)


def _orbit(n: int, mask) -> np.ndarray:
    """The distinct relabelings of the graph `mask`, ascending.

    A sort and a neighbour compare: `np.unique` takes several times longer
    on these arrays of n! uint32 masks.
    """
    images = np.sort(_orbit_masks(n, mask))
    return images[np.r_[True, images[1:] != images[:-1]]]


def _extend(parents: np.ndarray, k: int) -> np.ndarray:
    """Every graph made from a parent on k vertices by adding vertex k with a
    non-empty neighbourhood, as sorted distinct edge masks on k + 1 vertices.

    The edges of vertex k are the top k bits of a g6_pairs mask, so a child
    is its parent's mask with the neighbourhood shifted above it.
    """
    hoods = np.arange(1, 1 << k, dtype=np.uint32) << np.uint32(k * (k - 1) // 2)
    return np.unique(parents[:, None] | hoods[None, :])


def _orbit_classes(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The S_n orbits that meet the sorted distinct masks: (reps, sizes).

    Walks the masks in order.  The smallest one not yet seen starts an orbit,
    and every mask in that orbit is marked seen.  reps holds the smallest
    member of each orbit, ascending, and sizes n!/|Aut| of each.
    """
    seen = np.zeros(len(masks), dtype=bool)
    reps: list[int] = []
    sizes: list[int] = []
    for k in range(len(masks)):
        if seen[k]:
            continue
        orbit = _orbit(n, masks[k])
        pos = np.minimum(np.searchsorted(masks, orbit), len(masks) - 1)
        seen[pos[masks[pos] == orbit]] = True
        reps.append(int(orbit[0]))
        sizes.append(len(orbit))
    order = np.argsort(reps)
    return np.array(reps, dtype=np.uint32)[order], np.array(sizes, dtype=np.int64)[order]


def _generate(n: int) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """The connected diameter>3 classes on n vertices, by one vertex at a time.

    Returns (reps, sizes, violations): the smallest edge mask of each class
    in ascending order, its orbit size n!/|Aut|, and every labeled member of
    a class that breaks Lemma 2.1's identity D(G^c) = J - I + A(G).

    Parent lemma: a connected graph G of diameter D >= 3 has a non-cut
    vertex w such that G - w is connected and not complete, and G - w has
    diameter >= 3 when D >= 4.  Proof: take u, v with d(u, v) = D.  A
    connected graph has at least two non-cut vertices (the leaves of a
    spanning tree).  If one of them, w, is neither u nor v, then G - w is
    connected and d_{G-w}(u, v) >= D.  Otherwise u and v are the only
    ones; delete u, and let u' be u's neighbour on a shortest u-v path.
    Then d_{G-u}(u', v) >= d_G(u', v) = D - 1, which is >= 2 (G - u is not
    complete) and >= 3 when D >= 4.  Every connected graph on k + 1
    vertices has a non-cut vertex too, so it extends a connected graph on
    k vertices.

    So the classes come from three extensions by one vertex joined to every
    non-empty neighbourhood (`_extend`): the connected graphs up to order
    n - 2, starting from K1; the diameter >= 3 graphs at n - 1, from the
    non-complete ones at n - 2; and the class at n, from those.  Each level
    is filtered by the bitset kernel and reduced to its orbits by
    `_orbit_classes`, in the manner of canonical augmentation (McKay,
    "Isomorph-free exhaustive generation", J. Algorithms 26, 1998).  Every
    generated member of the class has its complement's diameter asserted
    and the identity checked; the identity is relabeling-equivariant, so a
    class that breaks it is listed with its whole orbit.
    """
    level = np.zeros(1, dtype=np.uint32)         # K1
    for k in range(1, n - 2):
        level, _ = _orbit_classes(_extend(level, k), k + 1)
    complete = np.uint32((1 << ((n - 2) * (n - 3) // 2)) - 1)
    masks = _extend(level[level != complete], n - 2)
    balls = _ball_radius(_adj_rows(masks, n - 1), n - 1, 2)
    diam_le2 = np.bitwise_and.reduce(balls, axis=0) == np.uint8((1 << (n - 1)) - 1)
    level, _ = _orbit_classes(masks[~diam_le2], n - 1)
    masks, adj = _survivor_adj(_extend(level, n - 1), n)
    d, covered = _complement_distances(adj, n)
    if not covered.all():
        raise AssertionError(
            f"complement not within diameter 3 for masks {masks[~covered][:5].tolist()}")
    expected = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    holds = np.all(d == expected[None, :, :] + _adjacency_tensor(adj, n), axis=(1, 2))
    violations: set[int] = set()
    for m in masks[~holds]:
        if int(m) not in violations:
            violations.update(_orbit(n, m).tolist())
    reps, sizes = _orbit_classes(masks, n)
    return reps, sizes, sorted(violations)


def _solve(masks: np.ndarray, n: int):
    """Eigenvalues of D(G^c) per mask, ascending, with the q and degenerate flag of each.

    q is the smaller side of the sign split of the least eigenvector;
    degenerate flags a least eigenvalue whose gap is below DEGENERATE_GAP.
    """
    d, _ = _complement_distances(_adj_rows(masks, n), n)
    w, vecs = np.linalg.eigh(d.astype(np.float64))
    x = vecs[:, :, 0]
    q = np.minimum((x < -ZERO_TOL).sum(axis=1), (x > ZERO_TOL).sum(axis=1))
    return w, q, w[:, 1] - w[:, 0] < DEGENERATE_GAP


@dataclass
class _Classes:
    """The isomorphism classes of the connected diameter>3 graphs on n vertices."""

    n: int
    reps: np.ndarray                # the smallest member of each class, ascending
    sizes: np.ndarray               # labeled members per class
    l1: np.ndarray                  # lambda_1 of D(G^c) per class
    ln: np.ndarray                  # lambda_n of D(G^c) per class
    q1: np.ndarray                  # labeled members with q = 1 per class
    summary: dict                   # what class_scan returns

    @cached_property
    def _labeled(self) -> tuple[np.ndarray, np.ndarray]:
        orbits = [_orbit(self.n, r) for r in self.reps]
        masks = np.concatenate(orbits)
        masks.sort()
        index = np.empty(len(masks), dtype=np.int32)
        for k, orbit in enumerate(orbits):
            index[np.searchsorted(masks, orbit)] = k
        return masks, index

    @property
    def masks(self) -> np.ndarray:
        """Every labeled member, ascending, built from the class orbits on first use."""
        return self._labeled[0]

    @property
    def index(self) -> np.ndarray:
        """The class of each labeled member."""
        return self._labeled[1]


_SCAN_CACHE: dict[int, _Classes] = {}


def class_scan(n: int) -> dict:
    """Labeled counts over all connected diameter>3 graphs on n vertices.

    The classes are generated one vertex at a time (`_generate`), without
    visiting the labeled graphs, and D(G^c) is solved once per class; a
    class whose least eigenvalue is degenerate has its members solved one
    by one, since q is not a class invariant there.  The summary holds the
    class size, the Lemma 2.1 violations, the q histogram, the degenerate
    count and the q = 1 count, every count over labeled graphs.  The
    per-class record, which the claim checkers read, is `_classes(n)`.
    """
    if not 5 <= n <= 8:
        raise ValueError("exhaustive scans support 5 <= n <= 8")
    hit = _SCAN_CACHE.get(n)
    if hit is not None:
        return hit.summary
    reps, sizes, violations = _generate(n)
    w, q, degenerate = _solve(reps, n)
    # q is a class invariant only where the least eigenvalue is simple; the
    # members of a degenerate class are solved one by one
    hist: Counter = Counter()
    q1 = np.where(q == 1, sizes, 0)
    for k in np.flatnonzero(~degenerate):
        hist[int(q[k])] += int(sizes[k])
    degenerate_count = 0
    for k in np.flatnonzero(degenerate):
        _, mq, mdeg = _solve(_orbit(n, reps[k]), n)
        degenerate_count += int(mdeg.sum())
        hist.update(mq.tolist())
        q1[k] = int((mq == 1).sum())
    summary = {
        "n": n,
        "count": int(sizes.sum()),
        "lemma21_violations": violations,
        "q_hist": dict(sorted(hist.items())),
        "degenerate": degenerate_count,
        "q1_count": int(q1.sum()),
    }
    _SCAN_CACHE[n] = _Classes(n, reps, sizes, w[:, -1], w[:, 0], q1, summary)
    return summary


def _classes(n: int) -> _Classes:
    """The class record at order n, built by class_scan on first use."""
    class_scan(n)
    return _SCAN_CACHE[n]


def enumerate_diam_gt3(n: int | None = None, sink=None, source=None) -> int:
    """Deliver every connected diameter>3 graph exactly once; return the count.

    Internal exhaustive enumeration runs for 5 <= n <= 8; alternatively an
    iterable of graph6 lines can be ingested (any order <= 64), in which
    case graphs failing the class conditions are skipped.  A stream is
    decoded whole, then filtered in one batch per order by the distance
    kernel, and its members reach `sink` in line order.
    """
    if source is not None:
        graphs = []
        for lineno, line in enumerate(source, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                g = from_graph6(line)
            except Graph6Error as exc:
                raise Graph6Error(f"line {lineno}: {exc}") from exc
            if n is None or g.n == n:
                graphs.append(g)
        members = [g for g, keep in zip(graphs, _class_members(graphs)) if keep]
        if sink is not None:
            for g in members:
                sink(g)
        return len(members)
    if n is None or not 5 <= n <= 8:
        raise ValueError("internal enumeration supports 5 <= n <= 8")
    count = 0
    for i in range(_chunk_count(n)):
        masks, _ = _survivor_adj(_chunk_masks(n, i), n)
        count += len(masks)
        if sink is not None:
            for m in masks:
                sink(from_edge_mask(n, int(m)))
    return count


def _blocks(items: list, n: int) -> list[list]:
    """`items` in runs of at most STREAM_BLOCK_ENTRIES / n^2, so that one
    run's (m, n, n) tensors stay small at any order."""
    size = max(1, STREAM_BLOCK_ENTRIES // (n * n))
    return [items[i:i + size] for i in range(0, len(items), size)]


def _class_members(graphs: list[Graph]) -> np.ndarray:
    """Which graphs are connected with diameter > 3, by the distance kernel per order."""
    keep = np.zeros(len(graphs), dtype=bool)
    by_order: dict[int, list[int]] = {}
    for i, g in enumerate(graphs):
        by_order.setdefault(g.n, []).append(i)
    for order, index in by_order.items():
        for block in _blocks(index, order):
            d = distance_matrices(adjacency_stack([graphs[i] for i in block]))
            keep[block] = (d.min(axis=(1, 2)) >= 0) & (d.max(axis=(1, 2)) > 3)
    return keep


# --- witness handling ---------------------------------------------------------


def _dedup_isomorphic(graphs: list[Graph]) -> list[Graph]:
    """One representative per isomorphism class, in first-seen order."""
    buckets: dict[tuple, list[Graph]] = {}
    reps: list[Graph] = []
    for g in graphs:
        key = tuple(sorted(g.degree(v) for v in range(g.n)))
        found = False
        for r in buckets.setdefault(key, []):
            if is_isomorphic(g, r):
                found = True
                break
        if not found:
            buckets[key].append(g)
            reps.append(g)
    return reps


def complement_distance_spectrum(g: Graph):
    """Spectrum of D(g^c); raises DisconnectedGraph if the complement is not connected."""
    return sym_eigenvalues(distance_matrix(complement(g)).astype(np.float64))


def complement_distance_extremes(graphs: list[Graph]) -> dict:
    """lambda_1 and lambda_n of D(G^c) for same-order graphs, solved in one batch.

    D(G^c) comes from the distance kernel on the stacked complements, and
    each block of them is solved by one stacked `numpy.linalg.eigh`, whose
    values are bitwise those of `complement_distance_spectrum`.  Returns
    {"l1": [...], "ln": [...]} aligned with `graphs`.
    """
    n = graphs[0].n
    l1: list[float] = []
    ln: list[float] = []
    for block in _blocks(graphs, n):
        d = distance_matrices(1 - np.eye(n, dtype=np.int64) - adjacency_stack(block))
        if d.min() < 0:
            k = int(np.argmax(d.min(axis=(1, 2)) < 0))
            raise DisconnectedGraph(f"complement of {to_graph6(block[k])} is disconnected")
        values = np.linalg.eigh(d.astype(np.float64))[0]
        l1 += values[:, -1].tolist()
        ln += values[:, 0].tolist()
    return {"l1": l1, "ln": ln}


@lru_cache(maxsize=None)
def _family_spectrum(family: str, params: tuple[int, ...]):
    """Spectrum of D(X^c) for the family graph X(params), solved once per process."""
    return complement_distance_spectrum(FAMILIES[family].build(*params))


def _exact_order(g: Graph, bound_poly, side: str) -> int:
    """Exact order of g's extreme D(g^c) eigenvalue against the bound polynomial's root."""
    return certify_root_order(char_poly_exact(distance_matrix(complement(g))), bound_poly, side)


def _exact_orders(graphs, bound_graph: Graph, side: str) -> set[int]:
    """Exact root orders of the graphs against the bound graph, its char poly built once."""
    bound_poly = char_poly_exact(distance_matrix(complement(bound_graph)))
    return {_exact_order(g, bound_poly, side) for g in graphs}


def sign_partition(g: Graph, spec=None) -> SignPartition:
    """Partition by sign of the least-eigenvalue unit eigenvector of D(g^c).

    Oriented so that p = |V+ u V0| >= q = |V-|; entries within 1e-9 of zero
    go to V0.  `degenerate` flags a near-degenerate least eigenvalue, where
    the partition is not well defined.  `spec` is D(g^c)'s spectrum when the
    caller has already solved it.
    """
    if spec is None:
        spec = complement_distance_spectrum(g)
    x = spec.vectors[:, -1]
    neg = [v for v in range(g.n) if x[v] < -ZERO_TOL]
    pos = [v for v in range(g.n) if x[v] > ZERO_TOL]
    zero = [v for v in range(g.n) if abs(x[v]) <= ZERO_TOL]
    if len(neg) > len(pos):
        neg, pos = pos, neg
    degenerate = bool(len(spec.values) > 1
                      and spec.values[-2] - spec.values[-1] < DEGENERATE_GAP)
    return SignPartition(
        plus=tuple(pos), zero=tuple(zero), minus=tuple(neg),
        p=len(pos) + len(zero), q=len(neg), degenerate=degenerate,
    )


# --- extremal scans and theorem checks ----------------------------------------


@dataclass
class _Extremum:
    """One objective's extremal cluster over a witness source: the class or a sample."""

    value: float
    witnesses: list[Graph]          # one per isomorphism class, in source order
    runner_up: float | None
    near: object                    # value -> one graph per class within RECHECK_WINDOW of it
    params: dict
    details: dict

    @property
    def margin(self) -> float | None:
        return None if self.runner_up is None else abs(self.runner_up - self.value)


def _class_extremum(n: int, objective: str) -> _Extremum:
    if objective not in ("min_l1", "max_l1", "min_ln", "max_ln"):
        raise ValueError(f"unknown objective {objective!r}")
    classes = _classes(n)
    values = classes.l1 if objective.endswith("l1") else classes.ln
    cluster = _cluster(values, np.arange(len(values)), objective[:3])
    ids = [k for _, k in cluster["pairs"]]      # (value, rep) order: reps ascend
    return _Extremum(
        value=cluster["value"],
        witnesses=[from_edge_mask(n, int(classes.reps[k])) for k in ids],
        runner_up=cluster["runner_up"],
        near=lambda v: [from_edge_mask(n, int(m))
                        for m in classes.reps[np.abs(values - v) <= RECHECK_WINDOW]],
        params={"n": n},
        details={
            "class_size": classes.summary["count"],
            "labeled_witnesses": int(classes.sizes[ids].sum()),
            "runner_up": cluster["runner_up"],
        },
    )


def _sample_extremum(n: int, graphs: list[Graph], values: dict, objective: str) -> _Extremum:
    arr = np.asarray(values[objective[-2:]])
    cluster = _cluster(arr, np.arange(len(arr)), objective[:3])
    if cluster is None:
        raise ValueError("empty sample")
    witnesses = [graphs[i] for i in sorted(i for _, i in cluster["pairs"])]
    return _Extremum(
        value=cluster["value"],
        witnesses=_dedup_isomorphic(witnesses) if n <= ISO_MAX_VERTICES else witnesses,
        runner_up=cluster["runner_up"],
        near=lambda v: [graphs[i] for i in np.flatnonzero(np.abs(arr - v) <= RECHECK_WINDOW)],
        params={"n": n, "sample": len(graphs)},
        details={},
    )


def scan_extremal(n: int, objective: str) -> VerificationReport:
    """Extremal value of lambda_1 or lambda_n of D(G^c) over the class."""
    ext = _class_extremum(n, objective)
    return VerificationReport(
        claim_id=f"scan:{objective}",
        status="confirmed",
        params={"n": n, "objective": objective},
        extremal={objective: ext.value},
        witnesses=[to_graph6(g) for g in ext.witnesses],
        margin=ext.margin,
        details=ext.details,
    )


def _balanced_H(n: int):
    s = (n - 2) // 2
    return s, n - 2 - s


def _balanced_pq(n: int):
    return (n + 1) // 2, n // 2


# theorem id -> (objective, extremal key of the bound, bound family, its parameters at order n)
_THEOREMS = {
    "2.4": ("max_l1", "bound_l1_Hc", "H", _balanced_H),
    "2.8": ("min_l1", "l1_Pnc", "path", lambda n: (n,)),
    "3.7": ("min_ln", "bound_ln_B1c", "B1", _balanced_pq),
    "3.13": ("max_ln", "ln_Lc_balanced", "L", _balanced_pq),
}


def _theorem_order_guard(tid: str, n: int) -> str:
    """The bare theorem id, once it is known and n is in its stated range."""
    tid = tid.lstrip("T")
    if tid not in _THEOREMS:
        raise ValueError(f"unknown theorem id {tid!r}")
    if tid in ("2.4", "2.8") and n < 5:
        raise ValueError("theorems 2.4/2.8 need n >= 5")
    if tid in ("3.7", "3.13") and n < 7:
        raise ValueError("theorems 3.7/3.13 are stated for n >= 7")
    return tid


def _theorem_verdict(tid: str, n: int, ext: _Extremum) -> VerificationReport:
    """Decide theorem `tid` at order n from its objective's extremum over any source."""
    objective, key, family, bound_params = _THEOREMS[tid]
    params = bound_params(n)
    args = ",".join(map(str, params))
    bound_graph = FAMILIES[family].build(*params)
    spec = complement_distance_spectrum(bound_graph)
    side = "max" if objective.endswith("l1") else "min"
    bound = spec.lambda1 if side == "max" else spec.lambda_n
    value, witnesses = ext.value, ext.witnesses
    notes: list[str] = []
    counterexamples: list[Graph] = []
    if tid in ("2.4", "3.7"):
        # the bound graph has diameter 3, so no class member may reach it
        margin = bound - value if side == "max" else value - bound
        notes.append(f"bound graph {family}({args}) has diameter 3: outside the class, "
                     "strictness expected")
        orders = _escalate_margin(margin, lambda: witnesses, bound_graph, side, notes,
                                  "witness graphs")
        below = -1 if side == "max" else 1      # the witnesses' side of the bound
        ok = orders == {below} if orders is not None else margin > STRICT_MARGIN
    elif tid == "2.8":
        # the minimum is attained by P_n only; a sample without P_n only has to stay above it
        margin = ext.margin
        orders = _escalate_margin(margin, lambda: ext.near(ext.runner_up), bound_graph, side,
                                  notes, "runner-up graphs")
        strict = orders == {1} if orders is not None else margin is None or margin > STRICT_MARGIN
        paths_only = (abs(value - bound) <= CLUSTER_TOL
                      and all(is_isomorphic(w, bound_graph) for w in witnesses))
        if not paths_only and value <= bound + CLUSTER_TOL:
            counterexamples = witnesses
            notes.append("non-path witness attains the minimum")
        ok = not counterexamples and strict
        notes.append(f"unique up to isomorphism: {len(witnesses) == 1 and paths_only}")
    else:
        # 3.13: an overshoot refutes; otherwise the bound must be attained
        margin = value - bound
        orders = _escalate_margin(margin, lambda: witnesses, bound_graph, side, notes,
                                  "witness graphs")
        over = 1 in orders if orders is not None else margin > CLUSTER_TOL
        if over:
            counterexamples = witnesses
            if orders is None and n <= CHAR_POLY_MAX_N:
                orders = _exact_orders(witnesses, bound_graph, side)
            notes += [
                f"max lambda_n over the class exceeds lambda_n({family}^c({args})) by {margin:.6g}",
                f"exact char-poly comparison confirms witness root > bound root: {orders == {1}}"
                if orders is not None else
                f"exact char-poly comparison not run: it supports n <= {CHAR_POLY_MAX_N}",
            ]
            ok = False
        else:
            tie = 0 in orders if orders is not None else abs(margin) <= CLUSTER_TOL
            ok = tie and any(is_isomorphic(w, bound_graph) for w in witnesses)
            margin = abs(margin)
            notes.append(f"unique up to isomorphism: {len(witnesses) == 1 and ok}")
    return VerificationReport(
        claim_id=f"T{tid}", status="confirmed" if ok else "refuted", params=ext.params,
        extremal={objective: value, key: bound},
        witnesses=[to_graph6(g) for g in witnesses], margin=margin,
        counterexamples=[to_graph6(g) for g in counterexamples],
        notes=notes, details=ext.details,
    )


def check_theorem(tid: str, n: int) -> VerificationReport:
    """Exhaustive check of one of the four extremal theorems at order n."""
    tid = _theorem_order_guard(tid, n)
    return _theorem_verdict(tid, n, _class_extremum(n, _THEOREMS[tid][0]))


def check_theorem_on_values(tid: str, n: int, graphs: list[Graph],
                            values: dict) -> VerificationReport:
    """Theorem check over an externally supplied class sample.

    `values` carries per-graph lambda_1 and lambda_n of D(G^c) aligned with
    `graphs`.  The verdict is the exhaustive check's, `_theorem_verdict`,
    applied to the sample's extremum instead of the class's.  Confirmations
    are conditional on the sample; refutations are conclusive because every
    witness is a genuine class member.
    """
    tid = _theorem_order_guard(tid, n)
    return _theorem_verdict(tid, n, _sample_extremum(n, graphs, values, _THEOREMS[tid][0]))


def _escalate_margin(margin: float | None, graphs, bound_graph: Graph, side: str,
                     notes: list, what: str) -> set[int] | None:
    """Exact root orders of graphs() against the bound graph, for a near-tie margin.

    None when |margin| exceeds EXACT_RECHECK_BELOW, or when the order is
    beyond char_poly_exact; the float margin then decides.
    """
    if margin is None or abs(margin) > EXACT_RECHECK_BELOW or bound_graph.n > CHAR_POLY_MAX_N:
        return None
    orders = _exact_orders(graphs(), bound_graph, side)
    notes.append(
        f"margin {margin:.3e} <= {EXACT_RECHECK_BELOW:.0e}: exact char-poly "
        f"re-check of {what} vs bound gives orders {sorted(orders)}")
    return orders


# --- lemma checks --------------------------------------------------------------


def _lemma_2_1(n: int, workers: int = 1) -> VerificationReport:
    """Distance/complement identity (diam>3) and inequality (diam=3)."""
    scan = class_scan(n)
    ident_bad = scan["lemma21_violations"]
    ineq = _lemma21_diam3_scan(n, workers)
    status = "confirmed" if not ident_bad and not ineq["violations"] else "refuted"
    return VerificationReport(
        claim_id="2.1", status=status, params={"n": n},
        counterexamples=[to_graph6(from_edge_mask(n, m)) for m in ident_bad]
        + [to_graph6(from_edge_mask(n, m)) for m in ineq["violations"]],
        notes=[
            f"diam>3: identity D(G^c) = J - I + A(G) checked on {scan['count']} graphs",
            f"diam=3: entrywise >= checked on {ineq['count']} graphs "
            f"({ineq['complement_not_small']} with complement outside diameter<=3)",
        ],
        details={
            "class_size_diam_gt3": scan["count"],
            "identity_violations": len(ident_bad),
            "diam3_count": ineq["count"],
            "inequality_violations": len(ineq["violations"]),
            "diam3_complement_exceptions": ineq["complement_not_small"],
        },
    )


def _diam3_chunk(n: int, index: int) -> tuple[int, int, list[int]]:
    """One chunk's diameter-exactly-3 graphs: how many have a complement of
    diameter <= 3, how many do not, and which of the former violate
    D(G^c) >= J - I + A(G) entrywise."""
    full = np.uint8((1 << n) - 1)
    masks = _chunk_masks(n, index)
    adj = _adj_rows(masks, n)
    b2 = _ball_radius(adj, n, 2)
    b3 = _expand_all(b2, adj, n)
    # every radius-3 ball full already implies connected
    diam3 = ((np.bitwise_and.reduce(b3, axis=0) == full)
             & (np.bitwise_and.reduce(b2, axis=0) != full))
    masks, adj = masks[diam3], adj[:, diam3]
    if len(masks) == 0:
        return 0, 0, []
    d, covered = _complement_distances(adj, n)
    masks, adj, d = masks[covered], adj[:, covered], d[covered]
    amat = _adjacency_tensor(adj, n)
    expected = np.ones((n, n), dtype=np.int8) - np.eye(n, dtype=np.int8)
    ok = np.all(d >= expected[None, :, :] + amat, axis=(1, 2))
    return len(masks), int((~covered).sum()), [int(m) for m in masks[~ok]]


def _lemma21_diam3_scan(n: int, workers: int = 1) -> dict:
    """Entrywise D(G^c) >= J - I + A(G) over all diameter-exactly-3 graphs."""
    chunks = _map_chunks(_diam3_chunk, n, workers)
    return {
        "count": sum(count for count, _, _ in chunks),
        "violations": [m for _, _, bad in chunks for m in bad],
        "complement_not_small": sum(not_small for _, not_small, _ in chunks),
    }


def _lemma_2_3(n: int) -> VerificationReport:
    """Ordering of lambda_1(H^c(s,t)) as (s,t) moves toward balance."""
    if n < 6:
        # below n = 6 there is no step (s-1, t+1) -> (s, t) with 2 <= s <= t
        raise ValueError("Lemma 2.3 needs n >= 6")
    values = {}
    for s in range(1, n - 2):
        t = n - 2 - s
        values[(s, t)] = _family_spectrum("H", (s, t)).lambda1
    sb, tb = _balanced_H(n)
    vmax = values[(sb, tb)]
    step_ok = True
    min_step = None
    for (s, t), v in values.items():
        if 2 <= s <= t:
            gap = v - values[(s - 1, t + 1)]
            step_ok &= gap > STRICT_MARGIN
            min_step = gap if min_step is None else min(min_step, gap)
    bal_ok = all(v <= vmax + CLUSTER_TOL for v in values.values())
    ident = all(
        quotients.check_identity_H_step(s, t).matches
        for s in range(2, 21) for t in range(1, 21)
    )
    status = "confirmed" if step_ok and bal_ok and ident else "refuted"
    return VerificationReport(
        claim_id="2.3", status=status, params={"n": n},
        extremal={"l1_balanced": vmax},
        margin=min_step,
        notes=[
            "measured: lambda_1(H^c(s,t)) strictly increases as (s,t) approaches balance"
            f" (min step {min_step:.6g}); consistent with the balanced maximum",
            f"difference identity lambda(s-t-1)(5 lambda+4) exact on 2<=s<=20, 1<=t<=20: {ident}",
        ],
        details={"l1_by_split": {f"{s},{t}": v for (s, t), v in sorted(values.items())}},
    )


def _lemma_2_5(n: int) -> VerificationReport:
    """Measured direction of lambda_1(G^c) under edge deletion keeping diam>3.

    Every labeled pair (G, G - e) with both graphs in the class counts; each
    graph's lambda_1 is its class's.
    """
    classes = _classes(n)
    masks = classes.masks
    graph, edge, minus = [], [], []           # (G, e, G - e) with G - e in the class
    for e in range(n * (n - 1) // 2):
        bit = np.uint32(1 << e)
        g = masks[(masks & bit) != 0]
        g2 = g ^ bit
        keep = masks[np.minimum(np.searchsorted(masks, g2), len(masks) - 1)] == g2
        graph.append(g[keep])
        edge.append(np.full(int(keep.sum()), e))
        minus.append(g2[keep])
    graph, edge, minus = np.concatenate(graph), np.concatenate(edge), np.concatenate(minus)
    if len(graph) == 0:
        raise ValueError(f"no edge deletion keeps a graph in the class at n={n}")
    order = np.lexsort((edge, graph))          # pairs in (mask, edge) order
    graph, minus = graph[order], minus[order]
    v = classes.l1[classes.index[np.searchsorted(masks, graph)]]
    v2 = classes.l1[classes.index[np.searchsorted(masks, minus)]]
    tie = np.abs(v - v2) <= CLUSTER_TOL
    rev = ~tie & (v > v2)
    ties, reversed_holds = int(tie.sum()), int(rev.sum())
    stated_holds = len(graph) - ties - reversed_holds
    worst = example = None
    if reversed_holds:
        k = np.flatnonzero(rev)[np.argmin((v - v2)[rev])]
        worst = v[k] - v2[k]
        example = (to_graph6(from_edge_mask(n, int(graph[k]))),
                   to_graph6(from_edge_mask(n, int(minus[k]))))
    status = ("confirmed-with-reversed-direction"
              if stated_holds == 0 and ties == 0 and reversed_holds else "refuted")
    return VerificationReport(
        claim_id="2.5", status=status, params={"n": n},
        margin=worst,
        notes=[
            f"measured on {len(graph)} (G, G-e) pairs with d(G-e)>3: "
            f"lambda_1(G^c) > lambda_1((G-e)^c) in {reversed_holds}, "
            f"ties {ties}, stated direction {stated_holds}",
            "the statement's <= opposes its own proof; deleting an edge strictly decreases lambda_1(G^c)",
        ],
        details={"example_pair": example},
    )


def _lemma_2_6(n: int, samples: int = 200, trees_per_graph: int = 3) -> VerificationReport:
    """lambda_1(G^c) >= lambda_1(T^c) over seeded random spanning trees.

    The graphs are every stride-th labeled class member in ascending mask order.
    """
    masks = _classes(n).masks
    rng = random.Random(20240 + n)
    stride = max(1, len(masks) // samples)
    worst = None
    checked = 0
    bad: list[str] = []
    for m in masks[::stride]:
        g = from_edge_mask(n, int(m))
        v = complement_distance_spectrum(g).lambda1
        edges = g.edges()
        for _ in range(trees_per_graph):
            shuffled = edges[:]
            rng.shuffle(shuffled)
            parent = list(range(n))

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            tree_edges = []
            for a, b in shuffled:
                ra, rb = find(a), find(b)
                if ra != rb:
                    parent[ra] = rb
                    tree_edges.append((a, b))
            t = from_edges(n, tree_edges)
            vt = complement_distance_spectrum(t).lambda1
            checked += 1
            gap = v - vt
            is_tree = g.edge_count() == n - 1
            if gap < -CLUSTER_TOL:
                bad.append(to_graph6(g))
            elif abs(gap) <= CLUSTER_TOL and not is_tree:
                bad.append(to_graph6(g))
            elif gap > 0 and (worst is None or gap < worst) and not is_tree:
                worst = gap
    status = "confirmed" if not bad else "refuted"
    return VerificationReport(
        claim_id="2.6", status=status, params={"n": n, "samples": checked},
        margin=worst, counterexamples=sorted(set(bad)),
        notes=[f"{checked} (graph, spanning tree) pairs; equality only when G is its own tree"],
    )


# --- tree enumeration (for Lemma 2.7) -----------------------------------------


def _ahu_key(g: Graph) -> str:
    """Canonical string for a tree: AHU encoding rooted at the center(s)."""
    degs = [g.degree(v) for v in range(g.n)]
    if g.n == 1:
        return "()"
    # peel leaves to find the center
    level = {v: 0 for v in range(g.n) if degs[v] <= 1}
    deg = degs[:]
    frontier = sorted(level)
    remaining = g.n
    while remaining > 2:
        nxt = []
        remaining -= len(frontier)
        for v in frontier:
            for u in range(g.n):
                if g.has_edge(u, v) and u not in level:
                    deg[u] -= 1
                    if deg[u] == 1:
                        level[u] = level[v] + 1
                        nxt.append(u)
        frontier = sorted(set(nxt))
    centers = [v for v in range(g.n) if v not in level] or frontier

    def code(v: int, parent: int) -> str:
        parts = sorted(code(u, v) for u in range(g.n) if g.has_edge(u, v) and u != parent)
        return "(" + "".join(parts) + ")"

    return min(code(c, -1) for c in centers)


def free_trees(n: int) -> list[Graph]:
    """All unlabeled trees on n vertices, one labeled representative each."""
    trees = {"()": Graph(1, (0,))}
    for _ in range(n - 1):
        grown: dict[str, Graph] = {}
        for t in trees.values():
            for v in range(t.n):
                g2 = Graph(t.n + 1, tuple(
                    (t.adj[u] | (1 << t.n)) if u == v else t.adj[u]
                    for u in range(t.n)) + ((1 << v),))
                grown.setdefault(_ahu_key(g2), g2)
        trees = grown
    return [trees[k] for k in sorted(trees)]


def _lemma_2_7(n_max: int = 9) -> VerificationReport:
    """lambda_1(T^c) >= lambda_1(P_n^c) over all non-star trees, 4 <= n <= n_max."""
    bad: list[str] = []
    worst = None
    total = 0
    for n in range(4, n_max + 1):
        pn = build_path(n)
        star = build_star(n)
        base = complement_distance_spectrum(pn).lambda1
        for t in free_trees(n):
            if is_isomorphic(t, star):
                continue
            total += 1
            v = complement_distance_spectrum(t).lambda1
            gap = v - base
            if gap < -CLUSTER_TOL:
                bad.append(to_graph6(t))
            elif abs(gap) <= CLUSTER_TOL:
                if not is_isomorphic(t, pn):
                    bad.append(to_graph6(t))
            elif worst is None or gap < worst:
                worst = gap
    if not total:
        raise ValueError("Lemma 2.7 needs n >= 4: no non-star tree was checked")
    status = "confirmed" if not bad else "refuted"
    return VerificationReport(
        claim_id="2.7", status=status, params={"n_max": n_max},
        margin=worst, counterexamples=bad,
        notes=[f"{total} non-star trees checked; equality exactly at P_n"],
    )


def _grid_reports(pairs, fn) -> tuple[list[dict], float | None, list[dict]]:
    if not pairs:
        raise ValueError("the parameter grid is empty")
    rows = []
    worst = None
    bad = []
    for pq in pairs:
        row = fn(*pq)
        rows.append(row)
        m = row["margin"]
        if m is not None and (worst is None or m < worst):
            worst = m
        if not row["ok"]:
            bad.append(row)
    return rows, worst, bad


def _lemma_3_1(a_max: int = 9, b_max: int = 9) -> VerificationReport:
    """Chain lambda_n(T1^c) >= lambda_n(T2^c) > lambda_n(T^c(a+1,b))."""
    def point(a, b):
        t1 = _family_spectrum("T1", (a, b)).lambda_n
        t2 = _family_spectrum("T2", (a, b)).lambda_n
        t0 = _family_spectrum("T", (a + 1, b)).lambda_n
        iso = is_isomorphic(build_T1(a, b), build_T2(a, b)) if a + b + 3 <= 10 else None
        tie = abs(t1 - t2) <= CLUSTER_TOL
        ok = (t1 - t2 > -CLUSTER_TOL) and (t2 - t0 > STRICT_MARGIN) and (
            not tie or iso is not False)
        return {"params": (a, b), "lns": (t1, t2, t0), "tie": tie, "iso": iso,
                "margin": min(t1 - t2 if not tie else t2 - t0, t2 - t0), "ok": ok}

    pairs = [(a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)
             if a + b + 3 <= 24]
    rows, worst, bad = _grid_reports(pairs, point)
    ties = [r["params"] for r in rows if r["tie"]]
    return VerificationReport(
        claim_id="3.1", status="confirmed" if not bad else "refuted",
        params={"a_max": a_max, "b_max": b_max, "points": len(rows)},
        margin=worst,
        counterexamples=[str(r["params"]) for r in bad],
        notes=[f"equality T1=T2 at {ties}; these parameter pairs give isomorphic trees"],
    )


def _lemma_3_4(p_max: int = 12) -> VerificationReport:
    """lambda_n(B1^c) < lambda_n(B2^c) < -3, plus the (lambda+1)-power verdict."""
    def point(p, q):
        b1 = _family_spectrum("B1", (p, q)).lambda_n
        b2 = _family_spectrum("B2", (p, q)).lambda_n
        m = min(b2 - b1, -3.0 - b2)
        return {"params": (p, q), "margin": m, "ok": m > STRICT_MARGIN,
                "lns": (b1, b2)}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)]
    rows, worst, bad = _grid_reports(pairs, point)
    ident = all(quotients.check_identity_B2_vs_B1(p, q).matches for p, q in pairs)
    power = quotients.power_discrepancy_verdict(6, 4)
    status = "confirmed" if not bad and ident else "refuted"
    return VerificationReport(
        claim_id="3.4", status=status,
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[
            f"printed cubic equals varphi - (lambda+1)^1 phi exactly: {ident}",
            f"power verdict at (6,4): consistent power = {power['consistent_power']} "
            "(the (lambda+1)^2 form is positive on [lambda_n(B2^c), -3), "
            "the printed ^1 form is negative there)",
        ],
        details={"power_verdict": power},
    )


def _lemma_3_5(p_max: int = 12) -> VerificationReport:
    """lambda_n(B1^c(p,q)) < lambda_n(T^c(n-3,1)) < -3 at n = p+q."""
    def point(p, q):
        b1 = _family_spectrum("B1", (p, q)).lambda_n
        t = _family_spectrum("T", (p + q - 3, 1)).lambda_n
        m = min(t - b1, -3.0 - t)
        return {"params": (p, q), "margin": m, "ok": m > STRICT_MARGIN}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)]
    rows, worst, bad = _grid_reports(pairs, point)
    ident = all(quotients.check_identity_B1_vs_T(p, q).matches for p, q in pairs)
    return VerificationReport(
        claim_id="3.5", status="confirmed" if not bad and ident else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[f"difference identity phi - psi exact on the grid: {ident}"],
    )


def _lemma_3_6(p_max: int = 12) -> VerificationReport:
    """Balance minimizes lambda_n(B1^c); equality only at the balanced split."""
    def point(p, q):
        n = p + q
        pb, qb = _balanced_pq(n)
        v = _family_spectrum("B1", (p, q)).lambda_n
        vb = _family_spectrum("B1", (pb, qb)).lambda_n
        balanced = (p, q) == (pb, qb)
        m = v - vb
        ok = m > STRICT_MARGIN or (balanced and abs(m) <= CLUSTER_TOL)
        return {"params": (p, q), "margin": None if balanced else m, "ok": ok}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)]
    rows, worst, bad = _grid_reports(pairs, point)
    ident = all(quotients.check_identity_B1_step(p, q).matches
                for p, q in pairs if p >= 3)
    return VerificationReport(
        claim_id="3.6", status="confirmed" if not bad and ident else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[f"step identity exact on the grid: {ident}"],
    )


def _lemma_3_9(n: int, n_max: int = 20) -> VerificationReport:
    """q=1 bound by lambda_n(L'^c) plus the L'' vs L' comparison.

    The L''-vs-L' sub-claim is measured; exact computation shows it holds
    in the direction opposite to the printed one at every order.
    """
    classes = _classes(n)
    bound = _family_spectrum("Lprime", (n,)).lambda_n
    notes = [f"q histogram at n={n}: {classes.summary['q_hist']}"]
    counterexamples: list[str] = []
    q1_ok = True
    has_q1 = np.flatnonzero(classes.q1)
    if has_q1.size == 0:
        notes.append(f"no diameter>3 graph on {n} vertices has q = 1: "
                     "the q=1 claim is vacuous at this order")
        q1_margin = None
    else:
        cluster = _cluster(classes.ln[has_q1], has_q1, "max")
        q1_margin = bound - cluster["value"]
        q1_ok = q1_margin >= -CLUSTER_TOL
        if not q1_ok:
            counterexamples = [to_graph6(from_edge_mask(n, int(classes.reps[k])))
                               for _, k in cluster["pairs"]]
        notes.append(f"max lambda_n over q=1 members: {cluster['value']:.12g} "
                     f"vs lambda_n(L'^c) {bound:.12g}")
    sub = []
    sub_margin = None
    for m in range(7, n_max + 1):
        lp = _family_spectrum("Lprime", (m,)).lambda_n
        lpp = _family_spectrum("Ldprime", (m,)).lambda_n
        gap = lpp - lp     # printed claim: <= 0
        sub.append({"n": m, "ln_Lprime": lp, "ln_Ldprime": lpp})
        sub_margin = gap if sub_margin is None else min(sub_margin, gap)
    reversed_sub = sub_margin is not None and sub_margin > STRICT_MARGIN
    ident = all(quotients.check_identity_Lprime_vs_Ldprime(m).matches
                for m in range(7, n_max + 1))
    if reversed_sub:
        notes.append(
            "measured: lambda_n(L''^c) > lambda_n(L'^c) at every order "
            f"7..{n_max} (min gap {sub_margin:.6g}); the printed direction is reversed")
    notes.append(f"Psi - Psi' printed identity exact: {ident}")
    status = ("refuted" if not q1_ok
              else "confirmed-with-reversed-direction" if reversed_sub
              else "confirmed")
    return VerificationReport(
        claim_id="3.9", status=status, params={"n": n, "sub_claim_n_max": n_max},
        extremal={"ln_Lprime_c": bound},
        margin=q1_margin if q1_margin is not None else sub_margin,
        counterexamples=counterexamples,
        notes=notes,
        details={"q1_count": int(classes.q1.sum()), "lprime_vs_ldprime": sub},
    )


def _lemma_3_11(p_max: int = 12) -> VerificationReport:
    """lambda_n(L'^c(n)) < lambda_n(L^c(p,q)) at n = p+q >= 7."""
    def point(p, q):
        l = _family_spectrum("L", (p, q)).lambda_n
        lp = _family_spectrum("Lprime", (p + q,)).lambda_n
        # least roots of the quotient polynomials are the two lambda_n values
        exact = certify_root_order(quotients.Phi_L(p, q), quotients.Psi_Lprime(p + q), "min")
        return {"params": (p, q), "margin": l - lp, "ok": exact == 1, "exact": exact}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1) if p + q >= 7]
    rows, worst, bad = _grid_reports(pairs, point)
    ident_pts = {pq: quotients.check_identity_L_vs_Lprime(*pq).matches for pq in pairs}
    only_q2 = all(v == (pq[1] == 2) for pq, v in ident_pts.items())
    notes = [
        "printed Phi - Psi identity matches exactly iff q = 2 "
        f"(verified across the grid: {only_q2}); derived difference kept as ground truth",
    ]
    if bad:
        p0, q0 = bad[0]["params"]
        exact = bad[0]["exact"]
        notes.append(
            f"counterexample certified exactly at ({p0},{q0}): least root of "
            f"Phi is {'below' if exact == -1 else 'not below'} the least root of Psi, "
            "so lambda_n(L^c) < lambda_n(L'^c) there and the stated inequality fails")
    return VerificationReport(
        claim_id="3.11", status="confirmed" if not bad else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p, p+q>=7", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=notes,
        details={"identity_matches": {f"{p},{q}": v for (p, q), v in sorted(ident_pts.items())}},
    )


def _lemma_3_12(p_max: int = 12) -> VerificationReport:
    """Balance maximizes lambda_n(L^c); equality only at the balanced split."""
    def point(p, q):
        n = p + q
        pb, qb = _balanced_pq(n)
        v = _family_spectrum("L", (p, q)).lambda_n
        vb = _family_spectrum("L", (pb, qb)).lambda_n
        balanced = (p, q) == (pb, qb)
        m = vb - v
        ok = m > STRICT_MARGIN or (balanced and abs(m) <= CLUSTER_TOL)
        return {"params": (p, q), "margin": None if balanced else m, "ok": ok}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)
             if p + q >= 7 and _balanced_pq(p + q)[0] >= 4]
    rows, worst, bad = _grid_reports(pairs, point)
    ident_any = any(quotients.check_identity_L_step(p, q).matches
                    for p, q in pairs if p > q and p >= 5)
    return VerificationReport(
        claim_id="3.12", status="confirmed" if not bad else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p, p+q>=7", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[
            "printed step-difference polynomial never matches Eq.(5)'s exact difference "
            f"(any match on grid: {ident_any}); the monotonicity conclusion itself holds",
        ],
    )


def _quotient_consistency_claim(orders=range(7, 21), tol: float = 1e-9) -> VerificationReport:
    reports = []
    for n in orders:
        sb, tb = _balanced_H(n)
        pb, qb = _balanced_pq(n)
        reports.append(quotients.quotient_consistency("H", (sb, tb), tol))
        reports.append(quotients.quotient_consistency("B1", (pb, qb), tol))
        reports.append(quotients.quotient_consistency("B2", (pb, qb), tol))
        reports.append(quotients.quotient_consistency("T", (n,), tol))
        if pb >= 4:
            reports.append(quotients.quotient_consistency("L", (pb, qb), tol))
        reports.append(quotients.quotient_consistency("Lprime", (n,), tol))
        reports.append(quotients.quotient_consistency("Ldprime", (n,), tol))
    bad = [r for r in reports if not r.ok()]
    mismatched = [r for r in reports if not r.poly_matches]
    ln_missing = [r for r in reports if not r.lambda_n_is_root]
    return VerificationReport(
        claim_id="quotient-consistency",
        status="confirmed" if not bad else "refuted",
        params={"orders": [min(orders), max(orders)], "cases": len(reports)},
        counterexamples=[f"{r.family_id}{r.params}" for r in bad],
        notes=[
            f"printed-vs-derived coefficient mismatches: "
            f"{[f'{r.family_id}{r.params}' for r in mismatched] or 'none'}",
            f"lambda_n outside quotient roots: "
            f"{[f'{r.family_id}{r.params}' for r in ln_missing] or 'never'}",
        ],
        details={"summaries": [r.summary() for r in reports]},
    )


def check_lemma(claim_id: str, n: int | None = None, p_max: int = 12,
                workers: int = 1) -> VerificationReport:
    """Dispatch a lemma claim check at the given order / grid size."""
    if claim_id == "2.1":
        return _lemma_2_1(n or 6, workers)
    if claim_id == "2.3":
        return _lemma_2_3(n or 12)
    if claim_id == "2.5":
        return _lemma_2_5(n or 6)
    if claim_id == "2.6":
        return _lemma_2_6(n or 7)
    if claim_id == "2.7":
        return _lemma_2_7(n or 9)
    if claim_id == "3.1":
        return _lemma_3_1()
    if claim_id == "3.4":
        return _lemma_3_4(p_max)
    if claim_id == "3.5":
        return _lemma_3_5(p_max)
    if claim_id == "3.6":
        return _lemma_3_6(p_max)
    if claim_id == "3.9":
        return _lemma_3_9(n or 7)
    if claim_id == "3.11":
        return _lemma_3_11(p_max)
    if claim_id == "3.12":
        return _lemma_3_12(p_max)
    if claim_id == "quotient-consistency":
        return _quotient_consistency_claim()
    raise ValueError(f"unknown claim id {claim_id!r}")


def run_claim(claim_id: str, n: int | None = None, p_max: int = 12,
              workers: int = 1) -> VerificationReport:
    """Run any registered claim (lemma or theorem) by id."""
    if claim_id not in CLAIM_IDS:
        raise ValueError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    if claim_id.startswith("T"):
        default_n = 7
        return check_theorem(claim_id, n or default_n)
    return check_lemma(claim_id, n=n, p_max=p_max, workers=workers)
