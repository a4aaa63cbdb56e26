"""Exhaustive enumeration of diameter->3 graphs and claim verification.

The exhaustive scan works on isomorphism classes, never on the labeled
graphs.  A generator builds the connected graphs of diameter greater than
three on n vertices one vertex at a time, up to isomorphism: each level
extends the previous one by a new vertex with every non-empty
neighbourhood, filters the candidates with numpy-vectorized bitset BFS,
and keeps one smallest edge mask per S_n orbit, with the orbit's size.
Both come from `graphcore.orbit_minima`, a search for each candidate's
least relabeling and automorphism count; no table of relabelings is built.
The bitset BFS only decides which candidates stay.  Every order-n D(G^c)
is built by `_complements`, and those of the scan and the graph6 streams
are solved by `eigenpairs`, a stacked `numpy.linalg.eigh`; a family graph
of the grids and the theorem bounds is solved as its k x k cell quotient
(`_family_spectra`), with no order-n matrix, and only quotient-consistency
solves family graphs at order n.  D(G^c) is
built, solved and checked against Lemma 2.1's identity once per class,
and every labeled count is a sum over the classes weighted by orbit size:
the spectrum is a class invariant, and so is every relation the checks
count, since relabeling commutes with complement, distance and edge
deletion.  Lemma 2.1's diameter-3 half and the edge deletions of Lemmas
2.5 and 2.6 are read at the class level too, no list of labeled members
is built, nothing walks S_n, and everything runs in one process.
A witness, or a class that breaks a claim, is given by the smallest edge
mask of its class, a labeling that does not depend on eigensolver
rounding.  A stream's witnesses are merged by the same search, up to
order `ISO_MAX_VERTICES`.

`CLAIMS` names each claim's check, here, in `lemmas` or in
`family_lemmas`, and `run_claim` runs it.  Every check returns a
VerificationReport whose status is measured, never assumed: claims that
fail are `refuted` with witnesses, claims whose true direction opposes
the stated one are `confirmed-with-reversed-direction`.
"""

import importlib
import math
from collections import Counter

import numpy as np

from cdspectra.families import cell_groups, cell_matrices, cell_quotient, family_stacks
from cdspectra.graphcore import (
    ISO_MAX_VERTICES,
    DisconnectedGraph,
    Graph,
    adjacency_stack,
    distance_matrices,
    from_edge_mask,
    g6_pairs,
    graphs_from_stack,
    least_masks,
    orbit_minima,
    stack_from_bits,
    to_graph6,
)
from cdspectra.spectra import (
    CHAR_POLY_MAX_N,
    IntPolynomial,
    certify_root_orders,
    char_polys_exact,
)

STREAM_BLOCK_ENTRIES = 1 << 18      # matrix entries per kernel call on a graph6 stream
CLUSTER_TOL = 1e-9
STRICT_MARGIN = 1e-9
EXACT_RECHECK_BELOW = 1e-6
RECHECK_WINDOW = 1e-11              # rescan window around a near-tie value
ZERO_TOL = 1e-9                     # eigenvector entry treated as zero
DEGENERATE_GAP = 1e-8

# claim id -> (module of its check, the check, its default): an order n, "p_max"
# for a claim that reads the grid bound, or None for one that reads neither
CLAIMS = {
    "2.1": ("lemmas", "_lemma_2_1", 6),
    "2.3": ("family_lemmas", "_lemma_2_3", 12),
    "2.5": ("lemmas", "_lemma_2_5", 6),
    "2.6": ("lemmas", "_lemma_2_6", 7),
    "2.7": ("family_lemmas", "_lemma_2_7", 9),
    "3.1": ("family_lemmas", "_lemma_3_1", None),
    "3.4": ("family_lemmas", "_lemma_3_4", "p_max"),
    "3.5": ("family_lemmas", "_lemma_3_5", "p_max"),
    "3.6": ("family_lemmas", "_lemma_3_6", "p_max"),
    "3.9": ("lemmas", "_lemma_3_9", 7),
    "3.11": ("family_lemmas", "_lemma_3_11", "p_max"),
    "3.12": ("family_lemmas", "_lemma_3_12", "p_max"),
    "T2.4": ("verify", "check_theorem", 7),
    "T2.8": ("verify", "check_theorem", 7),
    "T3.7": ("verify", "check_theorem", 7),
    "T3.13": ("verify", "check_theorem", 7),
    "quotient-consistency": ("family_lemmas", "_quotient_consistency_claim", None),
}
CLAIM_IDS = tuple(CLAIMS)
ORDER_CLAIMS = tuple(c for c, (_, _, default) in CLAIMS.items() if type(default) is int)
GRID_CLAIMS = tuple(c for c, (_, _, default) in CLAIMS.items() if default == "p_max")


class VerificationReport:
    """One claim's verdict, as `to_dict` prints it.

    A plain class: a dataclass runs generated code at import, which every
    command would pay for.  The collection fields left out start empty.
    """

    __slots__ = ("claim_id", "status", "params", "extremal", "witnesses", "margin",
                 "counterexamples", "notes", "details")

    def __init__(self, claim_id: str, status: str, params: dict, extremal: dict | None = None,
                 witnesses: list | None = None, margin: float | None = None,
                 counterexamples: list | None = None, notes: list | None = None,
                 details: dict | None = None):
        self.claim_id = claim_id
        self.status = status            # confirmed | refuted | confirmed-with-reversed-direction
        self.params = params
        self.extremal = {} if extremal is None else extremal
        self.witnesses = [] if witnesses is None else witnesses
        self.margin = margin
        self.counterexamples = [] if counterexamples is None else counterexamples
        self.notes = [] if notes is None else notes
        self.details = {} if details is None else details

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


def _class_keep(adj: np.ndarray, n: int) -> np.ndarray:
    """Which graphs are connected with diameter > 3."""
    full = np.uint8((1 << n) - 1)
    diam_le3 = np.bitwise_and.reduce(_ball_radius(adj, n, 3), axis=0) == full
    return _connected_mask(adj, n) & ~diam_le3


def _mask_stack(masks: np.ndarray, n: int) -> np.ndarray:
    """Edge masks in g6_pairs order as an (m, n, n) uint8 adjacency stack."""
    bits = (masks[:, None] >> np.arange(n * (n - 1) // 2, dtype=np.uint32)) & np.uint32(1)
    return stack_from_bits(bits, n)


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


def _extend(parents: np.ndarray, k: int) -> np.ndarray:
    """Every graph made from a parent on k vertices by adding vertex k with a
    non-empty neighbourhood, as sorted distinct edge masks on k + 1 vertices.

    The edges of vertex k are the top k bits of a g6_pairs mask, so a child
    is its parent's mask with the neighbourhood shifted above it.
    """
    hoods = np.arange(1, 1 << k, dtype=np.uint32) << np.uint32(k * (k - 1) // 2)
    # a sort and a neighbour compare: `np.unique` takes several times longer
    # on these uint32 mask arrays, and loads `numpy.ma` on its first call
    out = np.sort(parents[:, None] | hoods[None, :], axis=None)
    keep = np.ones(len(out), dtype=bool)
    np.not_equal(out[1:], out[:-1], out=keep[1:])
    return out[keep]


def _orbit_classes(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The S_n orbits that meet the masks: (reps, sizes).

    reps holds the smallest member of each orbit, ascending, and sizes
    n!/|Aut| of each, both from `orbit_minima`.
    """
    canon, aut = orbit_minima(_adj_rows(masks, n).T, n)
    minima = least_masks(canon)
    order = np.argsort(minima)
    minima, aut = minima[order], aut[order]
    first = np.ones(len(minima), dtype=bool)
    np.not_equal(minima[1:], minima[:-1], out=first[1:])
    return minima[first].astype(np.uint32), math.factorial(n) // aut[first]


def _noncomplete_connected(k: int) -> np.ndarray:
    """The smallest edge mask of each class of connected, non-complete graphs
    on k vertices, ascending.

    Every connected graph on j + 1 vertices extends one on j vertices (see
    `_generate`), so the levels grow from K1 by `_extend`, each reduced to
    its orbits.
    """
    level = np.zeros(1, dtype=np.uint32)         # K1
    for j in range(1, k):
        level, _ = _orbit_classes(_extend(level, j), j + 1)
    return level[level != np.uint32((1 << (k * (k - 1) // 2)) - 1)]


def _generate(n: int) -> tuple[np.ndarray, np.ndarray, list[int], np.ndarray, np.ndarray]:
    """The connected diameter>3 classes on n vertices, by one vertex at a time.

    Returns (reps, sizes, violations, values, vectors): the smallest edge
    mask of each class in ascending order, its orbit size n!/|Aut|, the
    representatives of the classes that break Lemma 2.1's identity
    D(G^c) = J - I + A(G), and the eigenpairs of each representative's
    D(G^c) as `complement_spectra` returns them.

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
    n - 2, starting from K1 (`_noncomplete_connected`); the diameter >= 3
    graphs at n - 1, from the non-complete ones at n - 2; and the class at
    n, from those.  Each level is filtered by the bitset kernel and reduced
    to its orbits by `_orbit_classes`: the orbit minimum of every candidate
    from the `orbit_minima` search, one per distinct minimum, in the manner
    of canonical augmentation (McKay, "Isomorph-free exhaustive generation",
    J. Algorithms 26, 1998).  Then one `complement_spectra` call gives
    D(G^c) of every class representative, whose diameter is asserted to be
    at most 3 and on which the identity is checked, once per class: the
    identity commutes with relabeling, so a class breaks it in every member
    or in none, and the labeled counts come from `sizes`.
    """
    masks = _extend(_noncomplete_connected(n - 2), n - 2)
    balls = _ball_radius(_adj_rows(masks, n - 1), n - 1, 2)
    diam_le2 = np.bitwise_and.reduce(balls, axis=0) == np.uint8((1 << (n - 1)) - 1)
    level, _ = _orbit_classes(masks[~diam_le2], n - 1)
    masks = _extend(level, n - 1)
    reps, sizes = _orbit_classes(masks[_class_keep(_adj_rows(masks, n), n)], n)
    adj = _mask_stack(reps, n)
    dc, values, vectors = complement_spectra(adj)
    wide = dc.max(axis=(1, 2)) > 3
    if wide.any():
        raise AssertionError(
            f"complement not within diameter 3 for masks {reps[wide][:5].tolist()}")
    holds = np.all(dc == 1 - np.eye(n, dtype=np.int64) + adj, axis=(1, 2))
    return reps, sizes, reps[~holds].tolist(), values, vectors


def _least_split(values: np.ndarray, vectors: np.ndarray):
    """q and the degenerate flag of each graph, from its D(G^c) eigenpairs
    as `complement_spectra` returns them.

    q is the smaller side of the sign split of the least eigenvector, whose
    entries within ZERO_TOL of zero join neither side; degenerate flags a
    least eigenvalue whose gap is below DEGENERATE_GAP, never the one
    eigenvalue of a graph on one vertex.
    """
    x = vectors[:, :, 0]
    q = np.minimum((x < -ZERO_TOL).sum(axis=1), (x > ZERO_TOL).sum(axis=1))
    return q, (values[:, 1:2] - values[:, :1] < DEGENERATE_GAP).any(axis=1)


class _Classes:
    """The isomorphism classes of the connected diameter>3 graphs on n vertices.

    One entry per class; a count over labeled graphs weights each class by
    its size.
    """

    __slots__ = ("n", "reps", "sizes", "l1", "ln", "q1", "summary")

    def __init__(self, n: int, reps: np.ndarray, sizes: np.ndarray, l1: np.ndarray,
                 ln: np.ndarray, q1: np.ndarray, summary: dict):
        self.n = n
        self.reps = reps            # the smallest member of each class, ascending
        self.sizes = sizes          # labeled members per class
        self.l1 = l1                # lambda_1 of D(G^c) per class
        self.ln = ln                # lambda_n of D(G^c) per class
        self.q1 = q1                # labeled members with q = 1 per class, 0 if degenerate
        self.summary = summary      # what class_scan returns


_SCAN_CACHE: dict[int, _Classes] = {}


def class_scan(n: int) -> dict:
    """Labeled counts over all connected diameter>3 graphs on n vertices.

    The classes are generated one vertex at a time (`_generate`), without
    visiting the labeled graphs, and D(G^c) is solved once per class.  The
    summary holds the class size, the representatives of the classes that
    break Lemma 2.1's identity (ascending), the q histogram, the degenerate
    count and the q = 1 count, every count over labeled graphs.  q, the
    smaller side of the least eigenvector's sign split, is a class
    invariant only where the least eigenvalue is simple:
    the q histogram and the q = 1 count cover those classes alone, and
    `degenerate` counts the members of the others.  The per-class record,
    which the claim checkers read, is `_classes(n)`.
    """
    if not 5 <= n <= 8:
        raise ValueError("exhaustive scans support 5 <= n <= 8")
    hit = _SCAN_CACHE.get(n)
    if hit is not None:
        return hit.summary
    reps, sizes, violations, w, vectors = _generate(n)
    q, degenerate = _least_split(w, vectors)
    hist: Counter = Counter()
    for k in np.flatnonzero(~degenerate):
        hist[int(q[k])] += int(sizes[k])
    q1 = np.where((q == 1) & ~degenerate, sizes, 0)
    summary = {
        "n": n,
        "count": int(sizes.sum()),
        "lemma21_violations": violations,
        "q_hist": dict(sorted(hist.items())),
        "degenerate": int(sizes[degenerate].sum()),
        "q1_count": int(q1.sum()),
    }
    _SCAN_CACHE[n] = _Classes(n, reps, sizes, w[:, -1], w[:, 0], q1, summary)
    return summary


def _classes(n: int) -> _Classes:
    """The class record at order n, built by class_scan on first use."""
    class_scan(n)
    return _SCAN_CACHE[n]


def enumerate_diam_gt3(n: int) -> int:
    """The number of labeled connected diameter>3 graphs on n vertices, for
    5 <= n <= 8: the sum of the orbit sizes of the class record
    `_classes(n)`, which lists no labeled member."""
    if not 5 <= n <= 8:
        raise ValueError("internal enumeration supports 5 <= n <= 8")
    return int(_classes(n).sizes.sum())


def _blocks(items, n: int) -> list:
    """`items`, a list or an array, in runs of at most STREAM_BLOCK_ENTRIES / n^2,
    so that one run's (m, n, n) tensors stay small at any order."""
    size = max(1, STREAM_BLOCK_ENTRIES // (n * n))
    return [items[i:i + size] for i in range(0, len(items), size)]


def graph_diameters(adj) -> np.ndarray:
    """The diameter of every graph of a same-order (m, n, n) 0/1 adjacency
    stack, -1 where the graph is disconnected, by `distance_matrices` in
    `_blocks`."""
    adj = np.asarray(adj)
    out = [np.zeros(0, dtype=np.int64)]
    for block in _blocks(adj, adj.shape[-1]):
        d = distance_matrices(block)
        out.append(np.where(d.min(axis=(1, 2)) < 0, -1, d.max(axis=(1, 2))))
    return np.concatenate(out)


# --- witness handling ---------------------------------------------------------


def _dedup_isomorphic(graphs: list[Graph]) -> list[Graph]:
    """One representative per isomorphism class of same-order graphs
    (n <= ISO_MAX_VERTICES), in first-seen order: the first graph of each
    distinct set of canonical rows."""
    canon, _ = orbit_minima([g.adj for g in graphs], graphs[0].n)
    first: dict[bytes, Graph] = {}
    for key, g in zip(canon, graphs):
        first.setdefault(key.tobytes(), g)
    return list(first.values())


def _complements(adj) -> np.ndarray:
    """D(G^c) as int64 for every graph of a same-order (m, n, n) 0/1
    adjacency stack, -1 off the diagonal where the complement is
    disconnected: the one place the program builds an order-n D(G^c).

    It is `distance_matrices` of the complements 1 - I - A, in `_blocks`,
    so that the kernel's temporaries stay small at any order.
    """
    adj = np.asarray(adj)
    n = adj.shape[-1]
    return np.concatenate([np.zeros((0, n, n), dtype=np.int64)]
                          + [distance_matrices(1 - np.eye(n, dtype=np.int64) - block)
                             for block in _blocks(adj, n)])


def complement_distances(adj) -> np.ndarray:
    """`_complements` of a stack whose complements are all connected.

    Raises DisconnectedGraph naming the first graph whose complement is
    disconnected.
    """
    dc = _complements(adj)
    bad = np.flatnonzero(dc.min(axis=(1, 2)) < 0)
    if len(bad):
        g = graphs_from_stack(np.asarray(adj)[bad[:1]])[0]
        raise DisconnectedGraph(f"complement of {to_graph6(g)} is disconnected")
    return dc


def eigenpairs(dc) -> tuple[np.ndarray, np.ndarray]:
    """The eigenpairs of every matrix of an (m, n, n) stack of D(G^c):
    (values, vectors), by one stacked `numpy.linalg.eigh`, the one place
    the program solves a graph's D(G^c) with its eigenvectors.

    LAPACK still solves the matrices one at a time, so each graph's values
    are bitwise those `sym_eigenvalues` gives it alone, in reverse.  The
    values are ascending, and vectors[k][:, j] is the eigenvector of
    values[k, j].
    """
    a = np.asarray(dc, dtype=np.float64)
    if not np.array_equal(a, a.swapaxes(1, 2)):
        raise ValueError("matrix must be exactly symmetric")
    return np.linalg.eigh(a)


def complement_spectra(adj) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`complement_distances` of a stack and their `eigenpairs`: (dc, values, vectors)."""
    dc = complement_distances(adj)
    return (dc, *eigenpairs(dc))


class _FamilySolution:
    """The eigenvalues of D(X^c) for a family graph X, from X's cells."""

    __slots__ = ("quotient", "sizes", "dist", "lambda1", "lambda_n")

    def __init__(self, quotient: list[float], sizes: list[int], dist: np.ndarray,
                 lambda1: float, lambda_n: float):
        self.quotient = quotient    # the k eigenvalues of M, ascending
        self.sizes = sizes          # the sizes and X^c distances of X's non-empty cells,
        self.dist = dist            # as `cell_groups` gives them
        self.lambda1, self.lambda_n = lambda1, lambda_n

    @property
    def values(self) -> np.ndarray:
        """All n eigenvalues, non-increasing: M's and each -d_ii s_i - 1 times."""
        twins = -self.dist.diagonal().repeat(np.array(self.sizes) - 1)
        return np.sort(np.concatenate([self.quotient, twins]))[::-1]

    def char_poly(self) -> IntPolynomial:
        """Exactly, the `cell_quotient`'s char poly times each (x + d_ii)^(s_i - 1)."""
        poly = char_polys_exact(cell_quotient(self.sizes, self.dist)[None])[0]
        twins = zip(self.sizes, self.dist.diagonal().tolist())
        return math.prod((IntPolynomial((d, 1)) for s, d in twins for _ in range(s - 1)), start=poly)


_FAMILY_STORE: dict[tuple[str, tuple[int, ...]], _FamilySolution] = {}


def _family_spectra(keys) -> list[_FamilySolution]:
    """The eigenvalues of D(X^c) for each (family, params) key, solved once per process.

    By the equitable partition into X's cells (Brouwer & Haemers, "Spectra
    of Graphs", 2012), they are those of the k x k `families.cell_matrices`
    M and -d_ii with multiplicity s_i - 1 for each cell, from one stacked
    `eigvalsh` per family and capped cell shape (`cell_groups`), which fixes
    the cells with twins: lambda_1 and lambda_n are M's extremes against
    those -d_ii.  A claim fills the store with its whole grid at once.
    """
    keys = list(keys)
    missing = list(dict.fromkeys(k for k in keys if k not in _FAMILY_STORE))
    groups = cell_groups(missing)
    cut = [min(ats) for ats, _, dist in groups if dist.min() < 0]
    if cut:                 # X^c is disconnected: raise what its D(X^c) raises
        complement_distances(*(adj for _, adj in family_stacks([missing[min(cut)]]).values()))
    for ats, sizes, dist in groups:
        values = np.linalg.eigvalsh(cell_matrices(sizes, dist))
        twins = -dist.diagonal()[sizes[0] > 1].astype(np.float64)
        high = np.maximum(values[:, -1], twins.max(initial=-np.inf)).tolist()
        low = np.minimum(values[:, 0], twins.min(initial=np.inf)).tolist()
        for at, s, v, l1, ln in zip(ats, sizes.tolist(), values.tolist(), high, low):
            _FAMILY_STORE[missing[at]] = _FamilySolution(v, s, dist, l1, ln)
    return [_FAMILY_STORE[k] for k in keys]


def _family_spectrum(family: str, params: tuple[int, ...]) -> _FamilySolution:
    """The eigenvalues of D(X^c) for the family graph X(params), from the store."""
    key = (family, params)
    return _FAMILY_STORE.get(key) or _family_spectra([key])[0]


def _exact_orders(graphs, bound: _FamilySolution, side: str) -> set[int]:
    """Exact root orders of the graphs against the bound's `char_poly`, at
    one order n <= CHAR_POLY_MAX_N: the graphs' char polys from one stack,
    seeded by its `eigvalsh` and the bound's stored eigenvalues."""
    dc = complement_distances(adjacency_stack(graphs))
    polys, bound_poly = char_polys_exact(dc), bound.char_poly()
    seeds = dict(zip(polys, np.linalg.eigvalsh(dc.astype(np.float64)).tolist()))
    seeds[bound_poly] = bound.values.tolist()
    return set(certify_root_orders([(p, bound_poly) for p in polys], side, seeds))


# --- extremal scans and theorem checks ----------------------------------------


class _Extremum:
    """One objective's extremal cluster over a witness source: the class or a sample."""

    __slots__ = ("value", "witnesses", "runner_up", "near", "params", "details")

    def __init__(self, value: float, witnesses: list[Graph], runner_up: float | None,
                 near, params: dict, details: dict):
        self.value = value
        self.witnesses = witnesses  # one per isomorphism class, in source order
        self.runner_up = runner_up
        self.near = near            # value -> one graph per class within RECHECK_WINDOW of it
        self.params = params
        self.details = details

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


def _is_L(g: Graph, p: int, q: int) -> bool:
    """Whether g is L(p, q), at any order: it has C(p,2) + C(q,2) edges and
    a bridge u-v whose v side is a clique on q vertices and whose u side is
    a clique on p vertices but for one edge, at u.

    v's side is then N[v] - u, each of its vertices w has the closed
    neighbourhood N[w] = that side (plus u for w = v), and the edge count
    leaves the u side one edge short of K_p, so u having p - 2 neighbours
    there places the missing edge at u.
    """
    if g.n != p + q or g.edge_count() != p * (p - 1) // 2 + q * (q - 1) // 2:
        return False
    for a, b in g.edges():
        for u, v in ((a, b), (b, a)):
            side = (g.adj[v] | 1 << v) & ~(1 << u)
            if (bin(side).count("1") == q
                    and bin(g.adj[u] & ~side).count("1") == p - 2
                    and all(g.adj[w] | 1 << w == side | (1 << u if w == v else 0)
                            for w in range(g.n) if side >> w & 1)):
                return True
    return False


def _theorem_verdict(tid: str, n: int, ext: _Extremum) -> VerificationReport:
    """Decide theorem `tid` at order n from its objective's extremum over any source."""
    objective, key, family, bound_params = _THEOREMS[tid]
    params = bound_params(n)
    args = ",".join(map(str, params))
    spec = _family_spectrum(family, params)
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
        orders = _escalate_margin(margin, lambda: witnesses, spec, side, notes,
                                  "witness graphs")
        below = -1 if side == "max" else 1      # the witnesses' side of the bound
        ok = orders == {below} if orders is not None else margin > STRICT_MARGIN
    elif tid == "2.8":
        # the minimum is attained by P_n only; a sample without P_n only has to stay above it
        margin = ext.margin
        orders = _escalate_margin(margin, lambda: ext.near(ext.runner_up), spec, side,
                                  notes, "runner-up graphs")
        strict = orders == {1} if orders is not None else margin is None or margin > STRICT_MARGIN
        # a witness is connected, so it is P_n exactly when it has n - 1 edges
        # and no vertex of degree above 2, at any order
        paths_only = (abs(value - bound) <= CLUSTER_TOL
                      and all(w.edge_count() == n - 1 and max(map(w.degree, range(n))) <= 2
                              for w in witnesses))
        if not paths_only and value <= bound + CLUSTER_TOL:
            counterexamples = witnesses
            notes.append("non-path witness attains the minimum")
        ok = not counterexamples and strict
        notes.append(f"unique up to isomorphism: {len(witnesses) == 1 and paths_only}")
    else:
        # 3.13: an overshoot refutes; otherwise the bound must be attained
        margin = value - bound
        orders = _escalate_margin(margin, lambda: witnesses, spec, side, notes,
                                  "witness graphs")
        over = 1 in orders if orders is not None else margin > CLUSTER_TOL
        if over:
            counterexamples = witnesses
            if orders is None and n <= CHAR_POLY_MAX_N:
                orders = _exact_orders(witnesses, spec, side)
            notes += [
                f"max lambda_n over the class exceeds lambda_n({family}^c({args})) by {margin:.6g}",
                f"exact char-poly comparison confirms witness root > bound root: {orders == {1}}"
                if orders is not None else
                f"exact char-poly comparison not run: it supports n <= {CHAR_POLY_MAX_N}",
            ]
            ok = False
        else:
            tie = 0 in orders if orders is not None else abs(margin) <= CLUSTER_TOL
            ok = tie and any(_is_L(w, *params) for w in witnesses)
            # a tie shown exactly, or by L as the one witness, is a zero margin
            margin = 0.0 if orders == {0} or (ok and len(witnesses) == 1) else abs(margin)
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


def _escalate_margin(margin: float | None, graphs, bound: _FamilySolution, side: str,
                     notes: list, what: str) -> set[int] | None:
    """Exact root orders of graphs() against the bound from the family store,
    for a near-tie margin.

    None when |margin| exceeds EXACT_RECHECK_BELOW, or when the order is
    beyond char_polys_exact; the float margin then decides.
    """
    if margin is None or abs(margin) > EXACT_RECHECK_BELOW or sum(bound.sizes) > CHAR_POLY_MAX_N:
        return None
    orders = _exact_orders(graphs(), bound, side)
    notes.append(
        f"margin {margin:.3e} <= {EXACT_RECHECK_BELOW:.0e}: exact char-poly "
        f"re-check of {what} vs bound gives orders {sorted(orders)}")
    return orders


def run_claim(claim_id: str, n: int | None = None, p_max: int | None = None) -> VerificationReport:
    """Run any claim of `CLAIMS` by id: a theorem through `check_theorem`,
    a claim that reads an order at n (None takes its default), one that
    reads the grid at p_max (None takes 12), and any other with no argument.

    The lemma checks live in two modules, split by the data they read:
    `lemmas` holds those of the class record, and `family_lemmas` those of
    the family graphs and their quotients.  A row's module is imported on
    the first call for it, so a run compiles only the lemma checks it runs,
    and a run that checks only theorems loads neither module nor `quotients`.
    """
    if claim_id not in CLAIMS:
        raise ValueError(f"unknown claim id {claim_id!r}; known: {', '.join(CLAIM_IDS)}")
    module, name, default = CLAIMS[claim_id]
    check = getattr(importlib.import_module(f"cdspectra.{module}"), name)
    if default == "p_max":
        return check(12 if p_max is None else p_max)
    if default is None:
        return check()
    n = default if n is None else n
    return check(claim_id, n) if name == "check_theorem" else check(n)
