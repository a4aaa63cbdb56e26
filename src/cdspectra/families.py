"""Constructors for the extremal graph families, with diameters asserted.

Every family graph is a blow-up of a small pattern: a row of `FAMILIES`
lists cells, each a clique (K) or an independent set (I) of a size given
by the parameters, and the pairs of cells joined completely.  Cells take
consecutive labels in the order listed, so the table is the labeling
(the quotients module reads its orbit classes off it):

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
with each row and column repeated as often as its cell is large, that
is P[owner][:, owner] for owner mapping each vertex to its cell, with a
zero diagonal.  `family_stacks` builds the adjacency stacks of many
graphs, of any families, as one batch: parameters are validated, each
order is stacked once, and the declared diameters of each order are
checked with one `distance_matrices` call.  `build_many` returns them as
`Graph`s, and a single `build_*` is a batch of one.
"""

from functools import lru_cache
from itertools import accumulate

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

    def order(self, *params) -> int:
        return sum(self.sizes(*params))


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


def cells(family: str, params: tuple[int, ...]) -> list[list[int]]:
    """The vertices of each cell of the family graph, in table order."""
    ends = list(accumulate(FAMILIES[family].sizes(*params), initial=0))
    return [list(range(a, b)) for a, b in zip(ends, ends[1:])]


def family_stacks(keys) -> dict[int, tuple[list[int], np.ndarray]]:
    """The family graph of each (family, params) key as {order: (the keys'
    positions, their (m, n, n) uint8 adjacency stack)}.

    Every key's parameters are validated first (ValueError).  Then the
    declared diameters of each order are checked by one `distance_matrices`
    call, and the first key that fails raises what a check of it alone
    raises: DisconnectedGraph, or AssertionError naming the graph.
    """
    keys = list(keys)
    by_order: dict[int, tuple[list[int], list[np.ndarray]]] = {}
    for at, (family, params) in enumerate(keys):
        row = FAMILIES[family]
        if any(x < least for x, least in zip(params, row.least)):
            raise ValueError(row.rule)
        sizes = row.sizes(*params)
        ats, adjs = by_order.setdefault(sum(sizes), ([], []))
        ats.append(at)
        adjs.append(_pattern(family, len(sizes)).repeat(sizes, axis=0).repeat(sizes, axis=1))
    stacks, failures = {}, {}
    for n, (ats, adjs) in by_order.items():
        adj = np.stack(adjs)
        adj[:, np.arange(n), np.arange(n)] = 0
        stacks[n] = ats, adj
        checked = [i for i, at in enumerate(ats) if FAMILIES[keys[at][0]].diameter is not None]
        d = distance_matrices(adj[checked])
        for i, low, got in zip(checked, d.min(axis=(1, 2)).tolist(), d.max(axis=(1, 2)).tolist()):
            family, params = keys[ats[i]]
            row = FAMILIES[family]
            if low < 0:
                failures[ats[i]] = DisconnectedGraph(NOT_CONNECTED)
            elif got != row.diameter:
                failures[ats[i]] = AssertionError(
                    f"{row.name}({','.join(map(str, params))}): "
                    f"expected diameter {row.diameter}, got {got}")
    if failures:
        raise failures[min(failures)]
    return stacks


def build_many(keys) -> list[Graph]:
    """The family graph of each (family, params) key, in key order:
    `family_stacks` as `Graph`s.  A single graph is
    `build_many([(family, params)])[0]`."""
    keys = list(keys)
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
