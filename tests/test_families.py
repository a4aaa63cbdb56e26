"""Family constructors: orders, edge counts, diameters, symmetries."""

import math
from dataclasses import dataclass

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
        return FAMILIES[self.family_id].order(*self.params)

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
    assert FAMILIES["Lprime"].order(9) == 9


def test_build_many_equals_the_single_builds():
    keys = [("H", (2, 3)), ("T", (3, 1)), ("B1", (4, 3)), ("L", (4, 3)), ("path", (7,)),
            ("Lprime", (9,)), ("T1", (2, 2)), ("star", (5,)), ("H", (2, 3))]
    single = {"H": build_H, "T": build_T, "B1": build_B1, "L": build_L, "path": build_path,
              "Lprime": build_Lprime, "T1": build_T1, "star": build_star}
    assert build_many(keys) == [single[f](*params) for f, params in keys]
    assert build_many([]) == []
    with pytest.raises(ValueError, match=r"^L\(p,q\) needs p >= 4, q >= 2$"):
        build_many([("H", (2, 3)), ("L", (3, 2))])


def _declaring(family: str, want: int):
    """FAMILIES[family] with its maker declaring the diameter `want`."""
    make = FAMILIES[family].make

    def declared(*params):
        label, graph, _ = make(*params)
        return label, graph, want

    return families._Family(FAMILIES[family].param_names, FAMILIES[family].order, declared)


def test_failing_diameter_in_a_batch_raises_the_per_graph_text(monkeypatch):
    monkeypatch.setitem(FAMILIES, "T", _declaring("T", 4))
    # the first failure in key order wins, though its order's check runs second
    keys = [("H", (2, 3)), ("T", (3, 3)), ("B1", (4, 3)), ("T", (3, 2))]
    with pytest.raises(AssertionError) as info:
        build_many(keys)
    assert str(info.value) == "T(3,3): expected diameter 4, got 3"
    # a disconnected graph raises what its own diameter raises
    two = from_edges(4, [(0, 1), (2, 3)])
    with pytest.raises(DisconnectedGraph) as batch:
        families._checked([FAMILIES["H"].make(1, 1), ("2K2", two, 2)])
    with pytest.raises(DisconnectedGraph) as alone:
        diameter(two)
    assert str(batch.value) == str(alone.value)
