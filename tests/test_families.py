"""Family constructors: orders, edge counts, diameters, symmetries."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from cdspectra import families
from cdspectra.families import (
    FAMILIES,
    build_B1,
    build_B2,
    build_H,
    build_L,
    build_Ldprime,
    build_Lprime,
    build_T,
    build_T1,
    build_T2,
    build_many,
    build_path,
    build_star,
)
from cdspectra.graphcore import (
    DisconnectedGraph,
    Graph,
    adjacency_stack,
    complement,
    diameter,
    from_edges,
    is_connected,
    is_isomorphic,
)


@dataclass(frozen=True)
class FamilySpec:
    """A family name plus its integer parameters, resolvable to a Graph."""

    family_id: str
    params: tuple[int, ...]

    def build(self) -> Graph:
        return build_many([(self.family_id, self.params)])[0]

    @property
    def order(self) -> int:
        return sum(FAMILIES[self.family_id].sizes(*self.params))

    def label(self) -> str:
        return f"{self.family_id}({','.join(str(p) for p in self.params)})"


def test_path_and_star():
    assert build_path(2).edges() == [(0, 1)]
    assert diameter(build_path(5)) == 4
    assert is_isomorphic(build_star(4), build_star(4))
    assert build_star(4).degree(0) == 3
    assert diameter(build_star(6)) == 2


def test_H_family():
    h22 = build_H(2, 2)
    assert h22.n == 6 and h22.edge_count() == 10 and diameter(h22) == 3
    assert is_isomorphic(build_H(1, 1), build_path(4))
    assert is_isomorphic(build_H(2, 3), build_H(3, 2))
    with pytest.raises(ValueError):
        build_H(0, 2)


def test_T_family_diameter_chain():
    # d(T(a+1,b)) + 1 = d(T1(a,b)) = d(T2(a,b)) = 4
    for a, b in [(2, 1), (1, 1), (3, 2)]:
        assert diameter(build_T(a + 1, b)) == 3
        assert diameter(build_T1(a, b)) == 4
        assert diameter(build_T2(a, b)) == 4
    assert is_isomorphic(build_T(1, 1), build_path(4))
    assert is_isomorphic(build_T1(1, 1), build_path(5))
    assert is_isomorphic(build_T2(1, 1), build_path(5))
    assert build_T(3, 2).n == 7
    assert build_T1(3, 2).n == 8 and build_T2(3, 2).n == 8


def test_B_family():
    b1 = build_B1(4, 2)
    assert b1.n == 6 and b1.edge_count() == 7 and diameter(b1) == 3
    b2 = build_B2(4, 2)
    assert b2.n == 6 and b2.edge_count() == 6 and diameter(b2) == 4
    # pq - 1 and pq - q edges in general
    for p, q in [(3, 2), (5, 3), (4, 4)]:
        assert build_B1(p, q).edge_count() == p * q - 1
        assert build_B2(p, q).edge_count() == p * q - q
        assert diameter(build_B1(p, q)) + 1 == diameter(build_B2(p, q)) == 4
    assert is_isomorphic(build_B1(4, 2), build_B1(2, 4))
    with pytest.raises(ValueError):
        build_B2(2, 2)


def test_L_family():
    assert diameter(build_L(4, 4)) == 4
    assert diameter(build_Lprime(7)) == 4
    assert diameter(build_Ldprime(7)) == 4
    assert build_L(4, 3).n == 7
    for n in (7, 9, 12):
        lp = build_Lprime(n)
        assert lp.n == n
        assert lp.edge_count() == math.comb(n - 2, 2) - 1 + 2
        ldp = build_Ldprime(n)
        assert ldp.n == n
        assert ldp.edge_count() == math.comb(n - 2, 2) - 1 + 2
    with pytest.raises(ValueError):
        build_L(3, 2)
    with pytest.raises(ValueError):
        build_Lprime(6)


def test_every_family_connected_with_connected_complement():
    cases = [
        build_path(6), build_H(2, 3), build_T(3, 1), build_T1(2, 2),
        build_T2(2, 1), build_B1(4, 3), build_B2(4, 3), build_L(4, 3),
        build_Lprime(8), build_Ldprime(8),
    ]
    for g in cases:
        assert is_connected(g)
        assert is_connected(complement(g))


def test_constructors_deterministic():
    assert build_H(3, 4) == build_H(3, 4)
    assert build_L(5, 3) == build_L(5, 3)
    assert build_T2(2, 3) == build_T2(2, 3)


def test_family_spec_registry():
    spec = FamilySpec("H", (2, 3))
    g = spec.build()
    assert g.n == spec.order == 7
    assert spec.label() == "H(2,3)"
    assert set(FAMILIES) == {
        "path", "star", "H", "T", "T1", "T2", "B1", "B2", "L", "Lprime", "Ldprime"}
    assert FAMILIES["B2"].param_names == ("p", "q")
    assert sum(FAMILIES["Lprime"].sizes(9)) == 9


def test_build_many_equals_the_single_builds():
    keys = [("H", (2, 3)), ("T", (3, 1)), ("B1", (4, 3)), ("L", (4, 3)), ("path", (7,)),
            ("Lprime", (9,)), ("T1", (2, 2)), ("star", (5,)), ("H", (2, 3))]
    single = {"H": build_H, "T": build_T, "B1": build_B1, "L": build_L, "path": build_path,
              "Lprime": build_Lprime, "T1": build_T1, "star": build_star}
    assert build_many(keys) == [single[f](*params) for f, params in keys]
    assert build_many([]) == []
    with pytest.raises(ValueError, match=r"^L\(p,q\) needs p >= 4, q >= 2$"):
        build_many([("H", (2, 3)), ("L", (3, 2))])


# --- the edge lists the families were first built from, as a reference -------


def _reference(family: str, params: tuple[int, ...]) -> tuple[int, list[tuple[int, int]]]:
    """(order, edge list) of a family graph, made one edge at a time with the
    documented labeling; ValueError with the family's text on bad parameters."""
    if family in ("path", "star"):
        (n,) = params
        if n < 1:
            raise ValueError(f"{family} needs n >= 1")
        if family == "path":
            return n, [(i, i + 1) for i in range(n - 1)]
        return n, [(0, i) for i in range(1, n)]
    if family == "H":
        s, t = params
        if s < 1 or t < 1:
            raise ValueError("H(s,t) needs s, t >= 1")
        k = s + t
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        return k + 2, edges + [(k, i) for i in range(s)] + [(k + 1, i) for i in range(s, k)]
    if family in ("T", "T1", "T2"):
        a, b = params
        if a < 1 or b < 1:
            raise ValueError(f"{family}(a,b) needs a, b >= 1")
        if family == "T1":
            return a + b + 3, ([(0, 1), (1, 2)] + [(0, 3 + i) for i in range(a)]
                               + [(2, 3 + a + i) for i in range(b)])
        edges = [(0, 1)] + [(0, 2 + i) for i in range(a)] + [(1, 2 + a + i) for i in range(b)]
        return (a + b + 2, edges) if family == "T" else (a + b + 3, edges + [(2, a + b + 2)])
    if family in ("B1", "B2"):
        p, q = params
        if family == "B1" and (p < 2 or q < 2):
            raise ValueError("B1(p,q) needs p, q >= 2")
        if family == "B2" and (p < 3 or q < 2):
            raise ValueError("B2(p,q) needs p >= 3, q >= 2")
        return p + q, [(i, p + j) for i in range(p) for j in range(q)
                       if (i, j) != (0, 0) and not (family == "B2" and i == 1 and j != 0)]
    if family == "L":
        p, q = params
        if p < 4 or q < 2:
            raise ValueError("L(p,q) needs p >= 4, q >= 2")
        edges = [(i, j) for i in range(p) for j in range(i + 1, p) if (i, j) != (0, 1)]
        return p + q, edges + [(p + i, p + j) for i in range(q) for j in range(i + 1, q)] + [(1, p)]
    (n,) = params
    name = {"Lprime": "L'", "Ldprime": "L''"}[family]
    if n < 7:
        raise ValueError(f"{name}(n) needs n >= 7")
    edges = [(i, j) for i in range(n - 2) for j in range(i + 1, n - 2) if (i, j) != (0, 1)]
    tail = [(0, n - 2), (1, n - 1)] if family == "Lprime" else [(1, n - 2), (n - 2, n - 1)]
    return n, edges + tail


def _grid(family: str, top: int):
    return itertools.product(range(top), repeat=len(FAMILIES[family].param_names))


def test_blow_ups_equal_the_edge_list_reference():
    # every family on a parameter grid that starts below the least valid
    # values, one key at a time and as one batch of every order
    valid = []
    for family in FAMILIES:
        for params in _grid(family, 11):
            try:
                n, edges = _reference(family, params)
            except ValueError as exc:
                with pytest.raises(ValueError) as info:
                    build_many([(family, params)])
                assert str(info.value) == str(exc), (family, params)
                continue
            want = from_edges(n, edges)
            assert build_many([(family, params)]) == [want], (family, params)
            assert sum(FAMILIES[family].sizes(*params)) == n
            valid.append(((family, params), want))
    assert len(valid) == 644
    assert build_many(key for key, _ in valid) == [g for _, g in valid]
    # the stacks hold the same adjacency, up to order 64
    keys = [("path", (64,)), ("star", (40,)), ("H", (30, 32)), ("T2", (1, 60)), ("B1", (32, 32)),
            ("B2", (33, 31)), ("L", (32, 32)), ("L", (60, 4)), ("Lprime", (64,)), ("Ldprime", (50,))]
    for ats, adj in families.family_stacks(keys).values():
        assert adj.dtype == np.uint8
        for at, a in zip(ats, adj):
            assert np.array_equal(a, adjacency_stack([from_edges(*_reference(*keys[at]))])[0])


def test_cells_are_twin_classes_in_label_order():
    # a cell is a clique of true twins or an independent set of false
    # twins, and the cells cover 0..n-1 in order
    for family, row in FAMILIES.items():
        for params in _grid(family, 7):
            if any(x < least for x, least in zip(params, row.least)):
                continue
            ends = list(itertools.accumulate(row.sizes(*params), initial=0))
            found = [list(range(a, b)) for a, b in zip(ends, ends[1:])]
            (g,) = build_many([(family, params)])
            assert [v for c in found for v in c] == list(range(g.n))
            for k, cell in enumerate(found):
                for u in cell:
                    closed = g.adj[u] | 1 << u if k in row.cliques else g.adj[u]
                    assert all((g.adj[v] | 1 << v if k in row.cliques else g.adj[v]) == closed
                               for v in cell), (family, params, cell)


def _declaring(family: str, want: int | None):
    """FAMILIES[family] with the declared diameter `want`."""
    row = FAMILIES[family]
    return families._Family(row.param_names, row.least, row.rule, row.name, row.sizes,
                            row.cliques, row.joins, want)


def test_failing_diameter_in_a_batch_raises_the_per_graph_text(monkeypatch):
    monkeypatch.setitem(FAMILIES, "T", _declaring("T", 4))
    # the first failure in key order wins, though its order's check runs second
    keys = [("H", (2, 3)), ("T", (3, 3)), ("B1", (4, 3)), ("T", (3, 2))]
    with pytest.raises(AssertionError) as info:
        build_many(keys)
    assert str(info.value) == "T(3,3): expected diameter 4, got 3"
    # a pattern whose graph is disconnected (2K2: two cliques, no join)
    # raises what that graph's own diameter raises
    monkeypatch.setitem(FAMILIES, "2K", families._Family(
        ("n",), (1,), "2K(n) needs n >= 1", "2K", lambda n: (n, n), (0, 1), (), 2))
    two = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph) as batch:
        build_many([("H", (1, 1)), ("2K", (2,))])
    with pytest.raises(DisconnectedGraph) as alone:
        diameter(two)
    assert str(batch.value) == str(alone.value)
    monkeypatch.setitem(FAMILIES, "2K", _declaring("2K", None))
    assert build_many([("2K", (2,))]) == [two]
