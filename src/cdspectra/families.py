"""Constructors for the extremal graph families, with diameters asserted.

Labeling is fixed per family so that quotient orbit classes occupy
contiguous index ranges (the quotients module relies on this):

  H(s,t):    clique 0..s+t-1; u = s+t adjacent to 0..s-1; v = s+t+1
             adjacent to s..s+t-1; u,v nonadjacent.
  T(a,b):    double star; centers 0,1; a pendants 2..a+1 on 0; b pendants
             a+2..a+b+1 on 1.
  T1(a,b):   path 0-1-2; a pendants 3..a+2 on 0; b pendants on 2.
  T2(a,b):   T(a,b) plus one pendant (vertex a+b+2) on the first a-side
             pendant (vertex 2).
  B1(p,q):   K_{p,q} minus the edge u v, u = 0 in U = 0..p-1,
             v = p in V = p..p+q-1.
  B2(p,q):   B1 with all edges at w = 1 deleted except w v.
  L(p,q):    K_p (0..p-1) minus the edge w u (w=0, u=1), K_q
             (p..p+q-1), plus the bridge u v (v=p).
  L'(n):     K_{n-2} (0..n-3) minus w u (w=0, u=1), pendant w' = n-2 on
             w, pendant v = n-1 on u.
  L''(n):    K_{n-2} minus w' u' (w'=0, u'=1), plus the 2-vertex path
             u' - (n-2) - (n-1).

Every constructor is deterministic and checks its declared diameter.
`build_many` builds many graphs, of any families, as one batch: the
diameters of each order are checked with one `distance_matrices` call,
and a single `build_*` is a batch of one.
"""

from cdspectra.graphcore import (
    DisconnectedGraph,
    Graph,
    adjacency_stack,
    distance_matrices,
    from_edges,
)

# A maker validates its parameters (ValueError) and returns the graph
# unchecked, as (label, graph, declared diameter or None).
_Made = tuple[str, Graph, int | None]


def _checked(made: list[_Made]) -> list[Graph]:
    """The graphs made, once every declared diameter is checked.

    The graphs of one order go through one `distance_matrices` call.  The
    first graph in input order that fails raises what a check of it alone
    raises: DisconnectedGraph, or AssertionError naming the graph.
    """
    by_order: dict[int, list[int]] = {}
    for k, (_, g, want) in enumerate(made):
        if want is not None:
            by_order.setdefault(g.n, []).append(k)
    failures: dict[int, Exception] = {}
    for ks in by_order.values():
        d = distance_matrices(adjacency_stack([made[k][1] for k in ks]))
        lowest, diameters = d.min(axis=(1, 2)).tolist(), d.max(axis=(1, 2)).tolist()
        for k, low, got in zip(ks, lowest, diameters):
            name, _, want = made[k]
            if low < 0:
                failures[k] = DisconnectedGraph("vertex 0 does not reach all vertices")
            elif got != want:
                failures[k] = AssertionError(f"{name}: expected diameter {want}, got {got}")
    if failures:
        raise failures[min(failures)]
    return [g for _, g, _ in made]


def build_many(keys) -> list[Graph]:
    """The family graph of each (family, params) key, in key order, built as
    one batch: every key's parameters are validated by the family's maker,
    then the diameters are checked with one `distance_matrices` call per
    order.  A single graph is `build_many([(family, params)])[0]`."""
    return _checked([FAMILIES[family].make(*params) for family, params in keys])


def _path(n: int) -> _Made:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return f"path({n})", from_edges(n, [(i, i + 1) for i in range(n - 1)]), None


def _star(n: int) -> _Made:
    if n < 1:
        raise ValueError("star needs n >= 1")
    return f"star({n})", from_edges(n, [(0, i) for i in range(1, n)]), None


def _H(s: int, t: int) -> _Made:
    if s < 1 or t < 1:
        raise ValueError("H(s,t) needs s, t >= 1")
    k = s + t
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k, i) for i in range(s)]
    edges += [(k + 1, i) for i in range(s, k)]
    return f"H({s},{t})", from_edges(k + 2, edges), 3


def _T(a: int, b: int) -> _Made:
    if a < 1 or b < 1:
        raise ValueError("T(a,b) needs a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return f"T({a},{b})", from_edges(a + b + 2, edges), 3


def _T1(a: int, b: int) -> _Made:
    if a < 1 or b < 1:
        raise ValueError("T1(a,b) needs a, b >= 1")
    edges = [(0, 1), (1, 2)]
    edges += [(0, 3 + i) for i in range(a)]
    edges += [(2, 3 + a + i) for i in range(b)]
    return f"T1({a},{b})", from_edges(a + b + 3, edges), 4


def _T2(a: int, b: int) -> _Made:
    if a < 1 or b < 1:
        raise ValueError("T2(a,b) needs a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    edges += [(2, a + b + 2)]
    return f"T2({a},{b})", from_edges(a + b + 3, edges), 4


def _B1(p: int, q: int) -> _Made:
    if p < 2 or q < 2:
        raise ValueError("B1(p,q) needs p, q >= 2")
    edges = [(i, p + j) for i in range(p) for j in range(q) if not (i == 0 and j == 0)]
    return f"B1({p},{q})", from_edges(p + q, edges), 3


def _B2(p: int, q: int) -> _Made:
    if p < 3 or q < 2:
        raise ValueError("B2(p,q) needs p >= 3, q >= 2")
    edges = [
        (i, p + j)
        for i in range(p)
        for j in range(q)
        if not (i == 0 and j == 0) and not (i == 1 and j != 0)
    ]
    return f"B2({p},{q})", from_edges(p + q, edges), 4


def _L(p: int, q: int) -> _Made:
    if p < 4 or q < 2:
        raise ValueError("L(p,q) needs p >= 4, q >= 2")
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if (i, j) != (0, 1)]
    edges += [(p + i, p + j) for i in range(q) for j in range(i + 1, q)]
    edges += [(1, p)]
    return f"L({p},{q})", from_edges(p + q, edges), 4


def _Lprime(n: int) -> _Made:
    if n < 7:
        raise ValueError("L'(n) needs n >= 7")
    k = n - 2
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) != (0, 1)]
    edges += [(0, n - 2), (1, n - 1)]
    return f"L'({n})", from_edges(n, edges), 4


def _Ldprime(n: int) -> _Made:
    if n < 7:
        raise ValueError("L''(n) needs n >= 7")
    k = n - 2
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) != (0, 1)]
    edges += [(1, n - 2), (n - 2, n - 1)]
    return f"L''({n})", from_edges(n, edges), 4


def build_path(n: int) -> Graph:
    return _checked([_path(n)])[0]


def build_star(n: int) -> Graph:
    return _checked([_star(n)])[0]


def build_H(s: int, t: int) -> Graph:
    """Clique K_{s+t} plus nonadjacent u, v joined to s resp. t clique vertices."""
    return _checked([_H(s, t)])[0]


def build_T(a: int, b: int) -> Graph:
    """Double star: adjacent centers with a and b pendant vertices."""
    return _checked([_T(a, b)])[0]


def build_T1(a: int, b: int) -> Graph:
    """Path P3 with a pendants on one end vertex and b on the other."""
    return _checked([_T1(a, b)])[0]


def build_T2(a: int, b: int) -> Graph:
    """T(a,b) with one extra pendant edge hung on an a-side pendant vertex."""
    return _checked([_T2(a, b)])[0]


def build_B1(p: int, q: int) -> Graph:
    """Complete bipartite K_{p,q} minus one edge."""
    return _checked([_B1(p, q)])[0]


def build_B2(p: int, q: int) -> Graph:
    """B1(p,q) further pruned at w, leaving only the edge w v."""
    return _checked([_B2(p, q)])[0]


def build_L(p: int, q: int) -> Graph:
    """K_p minus one edge, bridged by a single edge into K_q."""
    return _checked([_L(p, q)])[0]


def build_Lprime(n: int) -> Graph:
    """K_{n-2} minus one edge, with a pendant vertex on each deleted endpoint."""
    return _checked([_Lprime(n)])[0]


def build_Ldprime(n: int) -> Graph:
    """K_{n-2} minus one edge, with a 2-vertex path appended to one endpoint."""
    return _checked([_Ldprime(n)])[0]


class _Family:
    """A family's parameter names, its order as a function of them, and its
    unchecked maker; graphs are built through `build_many`."""

    __slots__ = ("param_names", "order", "make")

    def __init__(self, param_names: tuple[str, ...], order, make):
        self.param_names = param_names
        self.order = order
        self.make = make


FAMILIES: dict[str, _Family] = {
    "path": _Family(("n",), lambda n: n, _path),
    "star": _Family(("n",), lambda n: n, _star),
    "H": _Family(("s", "t"), lambda s, t: s + t + 2, _H),
    "T": _Family(("a", "b"), lambda a, b: a + b + 2, _T),
    "T1": _Family(("a", "b"), lambda a, b: a + b + 3, _T1),
    "T2": _Family(("a", "b"), lambda a, b: a + b + 3, _T2),
    "B1": _Family(("p", "q"), lambda p, q: p + q, _B1),
    "B2": _Family(("p", "q"), lambda p, q: p + q, _B2),
    "L": _Family(("p", "q"), lambda p, q: p + q, _L),
    "Lprime": _Family(("n",), lambda n: n, _Lprime),
    "Ldprime": _Family(("n",), lambda n: n, _Ldprime),
}
