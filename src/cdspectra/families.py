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
"""

from dataclasses import dataclass

from cdspectra.graphcore import Graph, diameter, from_edges


def _check(name: str, g: Graph, want_diameter: int) -> Graph:
    d = diameter(g)
    if d != want_diameter:
        raise AssertionError(f"{name}: expected diameter {want_diameter}, got {d}")
    return g


def build_path(n: int) -> Graph:
    if n < 1:
        raise ValueError("path needs n >= 1")
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def build_star(n: int) -> Graph:
    if n < 1:
        raise ValueError("star needs n >= 1")
    return from_edges(n, [(0, i) for i in range(1, n)])


def build_H(s: int, t: int) -> Graph:
    """Clique K_{s+t} plus nonadjacent u, v joined to s resp. t clique vertices."""
    if s < 1 or t < 1:
        raise ValueError("H(s,t) needs s, t >= 1")
    k = s + t
    edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
    edges += [(k, i) for i in range(s)]
    edges += [(k + 1, i) for i in range(s, k)]
    return _check(f"H({s},{t})", from_edges(k + 2, edges), 3)


def build_T(a: int, b: int) -> Graph:
    """Double star: adjacent centers with a and b pendant vertices."""
    if a < 1 or b < 1:
        raise ValueError("T(a,b) needs a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    return _check(f"T({a},{b})", from_edges(a + b + 2, edges), 3)


def build_T1(a: int, b: int) -> Graph:
    """Path P3 with a pendants on one end vertex and b on the other."""
    if a < 1 or b < 1:
        raise ValueError("T1(a,b) needs a, b >= 1")
    edges = [(0, 1), (1, 2)]
    edges += [(0, 3 + i) for i in range(a)]
    edges += [(2, 3 + a + i) for i in range(b)]
    return _check(f"T1({a},{b})", from_edges(a + b + 3, edges), 4)


def build_T2(a: int, b: int) -> Graph:
    """T(a,b) with one extra pendant edge hung on an a-side pendant vertex."""
    if a < 1 or b < 1:
        raise ValueError("T2(a,b) needs a, b >= 1")
    edges = [(0, 1)]
    edges += [(0, 2 + i) for i in range(a)]
    edges += [(1, 2 + a + i) for i in range(b)]
    edges += [(2, a + b + 2)]
    return _check(f"T2({a},{b})", from_edges(a + b + 3, edges), 4)


def build_B1(p: int, q: int) -> Graph:
    """Complete bipartite K_{p,q} minus one edge."""
    if p < 2 or q < 2:
        raise ValueError("B1(p,q) needs p, q >= 2")
    edges = [(i, p + j) for i in range(p) for j in range(q) if not (i == 0 and j == 0)]
    return _check(f"B1({p},{q})", from_edges(p + q, edges), 3)


def build_B2(p: int, q: int) -> Graph:
    """B1(p,q) further pruned at w, leaving only the edge w v."""
    if p < 3 or q < 2:
        raise ValueError("B2(p,q) needs p >= 3, q >= 2")
    edges = [
        (i, p + j)
        for i in range(p)
        for j in range(q)
        if not (i == 0 and j == 0) and not (i == 1 and j != 0)
    ]
    return _check(f"B2({p},{q})", from_edges(p + q, edges), 4)


def build_L(p: int, q: int) -> Graph:
    """K_p minus one edge, bridged by a single edge into K_q."""
    if p < 4 or q < 2:
        raise ValueError("L(p,q) needs p >= 4, q >= 2")
    edges = [(i, j) for i in range(p) for j in range(i + 1, p) if (i, j) != (0, 1)]
    edges += [(p + i, p + j) for i in range(q) for j in range(i + 1, q)]
    edges += [(1, p)]
    return _check(f"L({p},{q})", from_edges(p + q, edges), 4)


def build_Lprime(n: int) -> Graph:
    """K_{n-2} minus one edge, with a pendant vertex on each deleted endpoint."""
    if n < 7:
        raise ValueError("L'(n) needs n >= 7")
    k = n - 2
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) != (0, 1)]
    edges += [(0, n - 2), (1, n - 1)]
    return _check(f"L'({n})", from_edges(n, edges), 4)


def build_Ldprime(n: int) -> Graph:
    """K_{n-2} minus one edge, with a 2-vertex path appended to one endpoint."""
    if n < 7:
        raise ValueError("L''(n) needs n >= 7")
    k = n - 2
    edges = [(i, j) for i in range(k) for j in range(i + 1, k) if (i, j) != (0, 1)]
    edges += [(1, n - 2), (n - 2, n - 1)]
    return _check(f"L''({n})", from_edges(n, edges), 4)


@dataclass(frozen=True)
class _Family:
    build: object
    param_names: tuple[str, ...]
    order: object


FAMILIES: dict[str, _Family] = {
    "path": _Family(build_path, ("n",), lambda n: n),
    "star": _Family(build_star, ("n",), lambda n: n),
    "H": _Family(build_H, ("s", "t"), lambda s, t: s + t + 2),
    "T": _Family(build_T, ("a", "b"), lambda a, b: a + b + 2),
    "T1": _Family(build_T1, ("a", "b"), lambda a, b: a + b + 3),
    "T2": _Family(build_T2, ("a", "b"), lambda a, b: a + b + 3),
    "B1": _Family(build_B1, ("p", "q"), lambda p, q: p + q),
    "B2": _Family(build_B2, ("p", "q"), lambda p, q: p + q),
    "L": _Family(build_L, ("p", "q"), lambda p, q: p + q),
    "Lprime": _Family(build_Lprime, ("n",), lambda n: n),
    "Ldprime": _Family(build_Ldprime, ("n",), lambda n: n),
}
