"""Constructors for the extremal graph families, with diameters asserted.

Every family graph is a blow-up of a small pattern: a row of `FAMILIES`
lists cells, each a clique (K) or an independent set (I) of a size given
by the parameters, and the pairs of cells joined completely.  Cells take
consecutive labels in the order listed, so the table is the labeling
(the quotients module reads its partitions off it):

  path(n):   n single cells, each joined to the next.
  star(n):   centre 0; leaves 1..n-1 (I).
  H(s,t):    A = 0..s-1 (K), B = s..s+t-1 (K), u = s+t, v = s+t+1;
             A-B, u-A, v-B.  So u, v are nonadjacent.
  T(a,b):    double star: centres 0, 1; a pendants (I) on 0, then b on 1.
  T1(a,b):   path 0-1-2; a pendants 3..a+2 (I) on 0, then b on 2.
  T2(a,b):   T(a,b) whose first a-side pendant 2 carries one more pendant,
             the last vertex a+b+2: cells 0, 1, 2, the other a-1 pendants
             on 0 (empty at a = 1), the b pendants on 1, a+b+2.
  B1(p,q):   K_{p,q} minus the edge u v: u = 0, U' = 1..p-1, v = p,
             V' = p+1..p+q-1 (all I); u-V', U'-v, U'-V'.
  B2(p,q):   B1 with every edge at w = 1 deleted but w v: u = 0, w = 1,
             U'' = 2..p-1, v = p, V' (all I); u-V', w-v, U''-v, U''-V'.
  L(p,q):    K_p minus w u (w = 0, u = 1), K_q on v = p and Q' (K), and
             the bridge u v: w, u, P' = 2..p-1 (K), v, Q' = p+1..p+q-1 (K);
             w-P', u-P', u-v, v-Q'.
  L'(n):     K_{n-2} minus w u (w = 0, u = 1), pendant w' = n-2 on w and
             v = n-1 on u: w, u, R = 2..n-3 (K), w', v.
  L''(n):    K_{n-2} minus w' u' (w' = 0, u' = 1) plus the path
             u' - (n-2) - (n-1): w', u', R (K), n-2, n-1.

A graph's adjacency is the pattern P (its diagonal marks the cliques)
with each row and column repeated as often as its cell is large, with a
zero diagonal (`_blow_up`).  `cell_groups` checks the declared
diameters and gives D(X^c) as k x k distances between the non-empty
cells, once per family and capped cell shape.  `family_stacks` stacks
the adjacency of many graphs once per order; `build_many` returns them as
`Graph`s, a `build_*` a batch of one.
"""

from functools import lru_cache

import numpy as np

from cdspectra.graphcore import (
    NOT_CONNECTED,
    DisconnectedGraph,
    Graph,
    distance_matrices,
    graphs_from_stack,
)


class _Family:
    """A family's pattern: parameter names with their least values and the
    error text when one is below it, the name in labels, the cell sizes as
    a function of the parameters, the clique cells, the joined cell pairs
    (None: each cell joined to the next) and the declared diameter (None:
    unchecked)."""

    __slots__ = ("param_names", "least", "rule", "name", "sizes", "cliques", "joins",
                 "diameter")

    def __init__(self, param_names, least, rule, name, sizes, cliques, joins, diameter):
        self.param_names, self.least, self.rule, self.name = param_names, least, rule, name
        self.sizes, self.cliques, self.joins, self.diameter = sizes, cliques, joins, diameter


FAMILIES: dict[str, _Family] = {
    "path": _Family(("n",), (1,), "path needs n >= 1", "path",
                    lambda n: (1,) * n, (), None, None),
    "star": _Family(("n",), (1,), "star needs n >= 1", "star",
                    lambda n: (1, n - 1), (), ((0, 1),), None),
    "H": _Family(("s", "t"), (1, 1), "H(s,t) needs s, t >= 1", "H",
                 lambda s, t: (s, t, 1, 1), (0, 1), ((0, 1), (0, 2), (1, 3)), 3),
    "T": _Family(("a", "b"), (1, 1), "T(a,b) needs a, b >= 1", "T",
                 lambda a, b: (1, 1, a, b), (), ((0, 1), (0, 2), (1, 3)), 3),
    "T1": _Family(("a", "b"), (1, 1), "T1(a,b) needs a, b >= 1", "T1",
                  lambda a, b: (1, 1, 1, a, b), (), ((0, 1), (1, 2), (0, 3), (2, 4)), 4),
    "T2": _Family(("a", "b"), (1, 1), "T2(a,b) needs a, b >= 1", "T2",
                  lambda a, b: (1, 1, 1, a - 1, b, 1), (),
                  ((0, 1), (0, 2), (0, 3), (1, 4), (2, 5)), 4),
    "B1": _Family(("p", "q"), (2, 2), "B1(p,q) needs p, q >= 2", "B1",
                  lambda p, q: (1, p - 1, 1, q - 1), (), ((0, 3), (1, 2), (1, 3)), 3),
    "B2": _Family(("p", "q"), (3, 2), "B2(p,q) needs p >= 3, q >= 2", "B2",
                  lambda p, q: (1, 1, p - 2, 1, q - 1), (),
                  ((0, 4), (1, 3), (2, 3), (2, 4)), 4),
    "L": _Family(("p", "q"), (4, 2), "L(p,q) needs p >= 4, q >= 2", "L",
                 lambda p, q: (1, 1, p - 2, 1, q - 1), (2, 4),
                 ((0, 2), (1, 2), (1, 3), (3, 4)), 4),
    "Lprime": _Family(("n",), (7,), "L'(n) needs n >= 7", "L'",
                      lambda n: (1, 1, n - 4, 1, 1), (2,), ((0, 2), (1, 2), (0, 3), (1, 4)), 4),
    "Ldprime": _Family(("n",), (7,), "L''(n) needs n >= 7", "L''",
                       lambda n: (1, 1, n - 4, 1, 1), (2,), ((0, 2), (1, 2), (1, 3), (3, 4)), 4),
}


@lru_cache(maxsize=None)
def _pattern(family: str, k: int) -> np.ndarray:
    """The k x k 0/1 pattern of a family: joined cells, and 1 on the diagonal at cliques."""
    row = FAMILIES[family]
    joins = row.joins if row.joins is not None else [(c, c + 1) for c in range(k - 1)]
    p = np.zeros((k, k), dtype=np.uint8)
    for i, j in joins:
        p[i, j] = p[j, i] = 1
    p[list(row.cliques), list(row.cliques)] = 1
    p.flags.writeable = False       # shared by every caller through the cache
    return p


def _blow_up(family: str, sizes) -> np.ndarray:
    """The uint8 adjacency of the family graph whose cells have the sizes."""
    adj = _pattern(family, len(sizes)).repeat(sizes, axis=0).repeat(sizes, axis=1)
    np.fill_diagonal(adj, 0)
    return adj


@lru_cache(maxsize=None)
def _cell_distances(family: str, shape: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """X's diameter (-1: disconnected) and X^c's distances (-1: none) from the
    first vertex of each non-empty cell to the last of each, so d_ii joins two
    twins, for the family graph X whose cell sizes, capped at 2, are `shape`."""
    adj = _blow_up(family, shape)
    dx, dxc = distance_matrices(np.stack([adj, 1 - np.eye(len(adj), dtype=np.uint8) - adj]))
    live, ends = np.flatnonzero(shape), np.cumsum(shape)
    dxc = dxc[np.ix_(ends[live] - np.array(shape)[live], ends[live] - 1)]
    dxc.flags.writeable = False     # shared by every caller through the cache
    return (int(dx.max()) if dx.min() >= 0 else -1), dxc


def cell_groups(keys) -> list[tuple[list[int], np.ndarray, np.ndarray]]:
    """The (family, params) keys by family and capped cell shape, as (the keys'
    positions, the (m, k) sizes of their non-empty cells, the `_cell_distances`
    d between them), once the parameters (ValueError) and declared diameters
    hold, else the first failing key's error.  Parameters are checked and
    sized as columns, shapes grouped by sorting."""
    keys = list(keys)
    by_family: dict = {}
    for at, (family, params) in enumerate(keys):
        # a path has one cell per vertex, so its keys are sized one order at a time
        by_family.setdefault((family, params if FAMILIES[family].joins is None else ()),
                             []).append(at)
    groups, failures = [], []
    for (family, _), ats in by_family.items():
        row, ats = FAMILIES[family], np.array(ats)
        params = np.array([keys[at][1] for at in ats], dtype=np.int64).reshape(len(ats), -1)
        bad = (params < row.least).any(axis=1)
        if bad.any():
            failures.append((int(ats[bad][0]), ValueError(row.rule)))
            if bad.all():
                continue
            ats, params = ats[~bad], params[~bad]
        cols = row.sizes(*params[0]) if row.joins is None else row.sizes(*params.T)
        sizes = np.empty((len(ats), len(cols)), dtype=np.int64)
        for i, col in enumerate(cols):
            sizes[:, i] = col
        capped = np.minimum(sizes, 2)
        order = np.lexsort(capped.T)
        capped, sizes, ats = capped[order], sizes[order], ats[order]
        cuts = (np.flatnonzero((capped[1:] != capped[:-1]).any(axis=1)) + 1).tolist()
        ats, shapes = ats.tolist(), capped[[0] + cuts].tolist()
        for lo, hi, shape in zip([0] + cuts, cuts + [len(ats)], shapes):
            got, dxc = _cell_distances(family, tuple(shape))
            at = min(ats[lo:hi])
            if row.diameter is not None and got != row.diameter:
                failures.append((at, DisconnectedGraph(NOT_CONNECTED) if got < 0 else
                                 AssertionError(f"{row.name}({','.join(map(str, keys[at][1]))}): "
                                                f"expected diameter {row.diameter}, got {got}")))
            groups.append((ats[lo:hi], sizes[lo:hi, [i for i, s in enumerate(shape) if s]], dxc))
    if failures:
        raise min(failures, key=lambda f: f[0])[1]
    return groups


def cell_matrices(sizes: np.ndarray, dist: np.ndarray) -> np.ndarray:
    """M_ij = sqrt(s_i s_j) d_ij, M_ii = (s_i - 1) d_ii for each row s of the
    (m, k) sizes: symmetric, and similar to the `cell_quotient`."""
    s, d = np.asarray(sizes, dtype=np.float64), np.asarray(dist, dtype=np.float64)
    m = d * np.sqrt(s[:, :, None] * s[:, None, :])
    cell = np.arange(s.shape[1])
    m[:, cell, cell] = (s - 1) * d.diagonal(axis1=-2, axis2=-1)
    return m


def cell_quotient(sizes: list[int], dist: np.ndarray) -> np.ndarray:
    """The integer quotient of D(X^c) over the cells of one `cell_groups` row:
    Q_ij = s_j d_ij and Q_ii = (s_i - 1) d_ii."""
    q = dist * np.array(sizes)
    np.fill_diagonal(q, (np.array(sizes) - 1) * dist.diagonal())
    return q


def family_stacks(keys) -> dict[int, tuple[list[int], np.ndarray]]:
    """The graph of each (family, params) key that `cell_groups` has checked,
    as {order: (the keys' positions, their (m, n, n) uint8 adjacency stack)}."""
    by_order: dict[int, tuple[list[int], list[np.ndarray]]] = {}
    for at, (family, params) in enumerate(keys):
        adj = _blow_up(family, FAMILIES[family].sizes(*params))
        ats, adjs = by_order.setdefault(len(adj), ([], []))
        ats.append(at)
        adjs.append(adj)
    return {n: (ats, np.stack(adjs)) for n, (ats, adjs) in by_order.items()}


def build_many(keys) -> list[Graph]:
    """The family graph of each (family, params) key, in key order:
    `family_stacks` as `Graph`s, once `cell_groups` passes them.  A
    single graph is `build_many([(family, params)])[0]`."""
    keys = list(keys)
    cell_groups(keys)
    out: list = [None] * len(keys)
    for ats, adj in family_stacks(keys).values():
        for at, g in zip(ats, graphs_from_stack(adj)):
            out[at] = g
    return out


def build_path(n: int) -> Graph:
    return build_many([("path", (n,))])[0]


def build_star(n: int) -> Graph:
    return build_many([("star", (n,))])[0]


def build_H(s: int, t: int) -> Graph:
    """Clique K_{s+t} plus nonadjacent u, v joined to s resp. t clique vertices."""
    return build_many([("H", (s, t))])[0]


def build_T(a: int, b: int) -> Graph:
    """Double star: adjacent centers with a and b pendant vertices."""
    return build_many([("T", (a, b))])[0]


def build_T1(a: int, b: int) -> Graph:
    """Path P3 with a pendants on one end vertex and b on the other."""
    return build_many([("T1", (a, b))])[0]


def build_T2(a: int, b: int) -> Graph:
    """T(a,b) with one extra pendant edge hung on an a-side pendant vertex."""
    return build_many([("T2", (a, b))])[0]


def build_B1(p: int, q: int) -> Graph:
    """Complete bipartite K_{p,q} minus one edge."""
    return build_many([("B1", (p, q))])[0]


def build_B2(p: int, q: int) -> Graph:
    """B1(p,q) further pruned at w, leaving only the edge w v."""
    return build_many([("B2", (p, q))])[0]


def build_L(p: int, q: int) -> Graph:
    """K_p minus one edge, bridged by a single edge into K_q."""
    return build_many([("L", (p, q))])[0]


def build_Lprime(n: int) -> Graph:
    """K_{n-2} minus one edge, with a pendant vertex on each deleted endpoint."""
    return build_many([("Lprime", (n,))])[0]


def build_Ldprime(n: int) -> Graph:
    """K_{n-2} minus one edge, with a 2-vertex path appended to one endpoint."""
    return build_many([("Ldprime", (n,))])[0]
