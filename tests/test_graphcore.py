"""Graph representation, graph6 codec, BFS metrics, isomorphism."""

import random
from itertools import islice, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cdspectra import cli
from cdspectra.graphcore import (
    DisconnectedGraph,
    Graph,
    Graph6Error,
    TooLarge,
    adjacency_matrix,
    adjacency_stack,
    complement,
    decode_graph6_lines,
    diameter,
    distance_matrices,
    distance_matrix,
    from_edge_mask,
    from_edges,
    from_graph6,
    g6_pairs,
    graphs_from_stack,
    is_connected,
    is_isomorphic,
    orbit_minima,
    relabel,
    to_graph6,
)
from cdspectra.families import build_B2, build_H, build_path, build_star


def all_relabelings(g: Graph):
    """Every labeled copy of g (factorial in n)."""
    for perm in permutations(range(g.n)):
        yield relabel(g, perm)


def test_graph6_format_defined_examples():
    g = from_graph6("D?{")
    assert g.n == 5
    assert sorted(g.edges()) == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert from_graph6("A_").edges() == [(0, 1)]
    assert to_graph6(from_edges(2, [(0, 1)])) == "A_"
    single = from_graph6("@")
    assert single.n == 1 and single.edge_count() == 0
    assert to_graph6(Graph(1, (0,))) == "@"


def test_graph6_roundtrip_exhaustive_small():
    for n in range(1, 6):
        nbits = n * (n - 1) // 2
        for mask in range(1 << nbits):
            g = from_edge_mask(n, mask)
            assert from_graph6(to_graph6(g)) == g


def test_graph6_roundtrip_random_large():
    rng = random.Random(7)
    for n in (10, 30, 62, 63, 64):
        edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rng.random() < 0.3]
        g = from_edges(n, edges)
        s = to_graph6(g)
        assert from_graph6(s) == g
        # string re-encode is the identity on the record
        assert to_graph6(from_graph6(s)) == s


def test_graph6_roundtrip_through_path_constructor():
    g = from_graph6(to_graph6(build_path(7)))
    assert is_isomorphic(g, build_path(7))


def test_graph6_malformed():
    with pytest.raises(Graph6Error):
        from_graph6("")
    with pytest.raises(Graph6Error):
        from_graph6("A" + chr(200))
    with pytest.raises(Graph6Error):
        from_graph6("A")          # missing data character
    with pytest.raises(Graph6Error):
        from_graph6("A" + chr(63 + 16))   # nonzero trailing bits for n=2
    with pytest.raises(Graph6Error):
        from_graph6("~~~")        # 8-byte order field unsupported
    with pytest.raises(Graph6Error):
        from_graph6("~still-too-big")


def test_graph6_oversized_order_rejected():
    # n = 65 > cap, long form header
    s = "~" + chr(63) + chr(64) + chr(64)
    with pytest.raises(Graph6Error):
        from_graph6(s)


def test_complement_involution_and_c5():
    for n in range(1, 6):
        for mask in range(0, 1 << (n * (n - 1) // 2), 7):
            g = from_edge_mask(n, mask)
            assert complement(complement(g)) == g
    c5 = from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert is_isomorphic(complement(c5), c5)
    k4 = from_edges(4, [(i, j) for i in range(4) for j in range(i + 1, 4)])
    assert complement(k4).edge_count() == 0


def test_is_connected():
    assert is_connected(build_path(5))
    assert not is_connected(from_edges(4, [(0, 1), (2, 3)]))
    assert not is_connected(from_edges(3, []))


def test_connected_complement_when_diameter_gt3():
    # exhaustive over all labeled graphs on n <= 6
    for n in (5, 6):
        for mask in range(1 << (n * (n - 1) // 2)):
            g = from_edge_mask(n, mask)
            if is_connected(g) and diameter(g) > 3:
                assert is_connected(complement(g))


def test_distance_matrix_path_and_complete():
    d = distance_matrix(build_path(4))
    assert d.tolist() == [[0, 1, 2, 3], [1, 0, 1, 2], [2, 1, 0, 1], [3, 2, 1, 0]]
    k5 = from_edges(5, [(i, j) for i in range(5) for j in range(i + 1, 5)])
    assert np.array_equal(distance_matrix(k5), np.ones((5, 5), dtype=int) - np.eye(5, dtype=int))
    with pytest.raises(DisconnectedGraph):
        distance_matrix(from_edges(4, [(0, 1), (2, 3)]))


def test_distance_complement_identity_diam_gt3():
    # D(G^c) = J - I + A(G) whenever diam(G) > 3 (exhaustive n=6)
    n = 6
    j_minus_i = np.ones((n, n), dtype=int) - np.eye(n, dtype=int)
    checked = 0
    for mask in range(1 << (n * (n - 1) // 2)):
        g = from_edge_mask(n, mask)
        if not is_connected(g) or diameter(g) <= 3:
            continue
        checked += 1
        assert np.array_equal(
            distance_matrix(complement(g)), j_minus_i + adjacency_matrix(g))
    assert checked == 3240


@st.composite
def diameter_gt3_graphs(draw, min_n=9, max_n=14):
    """Connected graphs of diameter > 3, randomly labeled.

    Vertex 0 gets BFS layer 0 and every other vertex a layer 1..depth with
    depth >= 4, each layer used.  Every vertex has a neighbour one layer
    up and edges join only equal or adjacent layers, so the layer is the
    distance from vertex 0 and the vertex in layer 4 is at distance 4.
    Every connected graph of diameter > 3 arises this way.
    """
    n = draw(st.integers(min_n, max_n))
    depth = draw(st.integers(4, n - 1))
    extra = draw(st.lists(st.integers(1, depth), min_size=n - 1 - depth, max_size=n - 1 - depth))
    layer = [0, *range(1, depth + 1), *extra]
    edges = set()
    for v in range(1, n):
        up = [u for u in range(n) if layer[u] == layer[v] - 1]
        edges.add((draw(st.sampled_from(up)), v))
    near = [(u, v) for u in range(n) for v in range(u + 1, n) if abs(layer[u] - layer[v]) <= 1]
    edges |= draw(st.sets(st.sampled_from(near)))
    perm = draw(st.permutations(range(n)))
    return from_edges(n, [(perm[u], perm[v]) for u, v in edges])


@settings(max_examples=80)
@given(diameter_gt3_graphs())
def test_distance_complement_identity_beyond_exhaustive_range(g):
    # D(G^c) = J - I + A(G) for 9 <= n <= 14, where no exhaustive scan reaches
    assert is_connected(g) and diameter(g) > 3
    j_minus_i = np.ones((g.n, g.n), dtype=int) - np.eye(g.n, dtype=int)
    assert np.array_equal(distance_matrix(complement(g)), j_minus_i + adjacency_matrix(g))


def _reference_distances(g: Graph) -> np.ndarray:
    """Per-vertex bitmask BFS, as distance_matrix computed it before the
    matrix-product kernel; unreached pairs are -1."""
    n = g.n
    out = np.full((n, n), -1, dtype=np.int64)
    for s in range(n):
        out[s, s] = 0
        seen = frontier = 1 << s
        depth = 0
        while frontier:
            nxt = 0
            for v in range(n):
                if (frontier >> v) & 1:
                    nxt |= g.adj[v]
            frontier = nxt & ~seen
            seen |= frontier
            depth += 1
            for v in range(n):
                if (frontier >> v) & 1:
                    out[s, v] = depth
    return out


def _reference_distance_matrix(g: Graph) -> np.ndarray:
    d = _reference_distances(g)
    for s in range(g.n):
        if (d[s] < 0).any():
            raise DisconnectedGraph(f"vertex {s} does not reach all vertices")
    return d


@st.composite
def random_graphs(draw, min_n=1, max_n=64):
    """Labeled graphs of every density: sparse ones are often disconnected."""
    n = draw(st.integers(min_n, max_n))
    p = draw(st.sampled_from([0.0, 0.01, 0.03, 0.06, 0.1, 0.3, 0.7, 1.0]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    return from_edges(n, [(i, j) for j in range(1, n) for i in range(j) if rng.random() < p])


@settings(max_examples=60)
@given(random_graphs())
def test_distance_kernel_equals_per_vertex_bfs(g):
    ref = _reference_distances(g)
    assert np.array_equal(distance_matrices(adjacency_matrix(g)[None])[0], ref)
    try:
        want = _reference_distance_matrix(g)
    except DisconnectedGraph as exc:
        with pytest.raises(DisconnectedGraph) as got:
            distance_matrix(g)
        assert str(got.value) == str(exc)
        assert not is_connected(g)
    else:
        got = distance_matrix(g)
        assert got.dtype == np.int64 and np.array_equal(got, want)
        assert is_connected(g) and diameter(g) == want.max()


def test_distance_kernel_on_paths():
    for n in range(1, 65):
        p = build_path(n)
        assert np.array_equal(distance_matrix(p), _reference_distance_matrix(p))
        assert diameter(p) == n - 1


@settings(max_examples=25)
@given(st.data())
def test_distance_kernel_batch_mixing_members_and_non_members(data):
    n = data.draw(st.integers(9, 14))
    members = data.draw(st.lists(diameter_gt3_graphs(n, n), min_size=1, max_size=4))
    others = data.draw(st.lists(random_graphs(n, n), min_size=1, max_size=6))
    graphs = data.draw(st.permutations(members + others))
    d = distance_matrices(adjacency_stack(graphs))
    assert d.shape == (len(graphs), n, n)
    refs = [_reference_distances(g) for g in graphs]
    assert all(np.array_equal(dk, ref) for dk, ref in zip(d, refs))
    member = (d.min(axis=(1, 2)) >= 0) & (d.max(axis=(1, 2)) > 3)
    assert member.tolist() == [(r >= 0).all() and r.max() > 3 for r in refs]
    assert member.sum() >= len(members)


@pytest.mark.parametrize("order", [None, 62, 63, 64])
@settings(max_examples=20)
@given(data=st.data())
def test_graph6_roundtrip_property(order, data):
    # n = 62 has a one-byte size header; 63 and 64 take "~" plus three bytes
    g = data.draw(random_graphs(order or 1, order or 64))
    text = to_graph6(g)
    assert from_graph6(text) == g
    assert len(text) == (1 if g.n <= 62 else 4) + (g.n * (g.n - 1) // 2 + 5) // 6
    assert (text[0] == "~") == (g.n > 62)


def test_complement_diameter_at_most_3_when_diameter_ge_3():
    for n in (5, 6):
        for mask in range(0, 1 << (n * (n - 1) // 2), 3):
            g = from_edge_mask(n, mask)
            if is_connected(g) and diameter(g) >= 3:
                gc = complement(g)
                assert is_connected(gc) and diameter(gc) <= 3


def test_diameter_examples():
    assert diameter(build_path(5)) == 4
    assert diameter(build_H(2, 2)) == 3
    assert diameter(build_B2(4, 2)) == 4


def test_adjacency_matrix():
    assert adjacency_matrix(from_edges(2, [(0, 1)])).tolist() == [[0, 1], [1, 0]]
    assert adjacency_matrix(from_edges(3, [])).tolist() == [[0] * 3] * 3
    g = from_edge_mask(6, 0b101011001)
    n = g.n
    total = adjacency_matrix(g) + adjacency_matrix(complement(g))
    assert np.array_equal(total, np.ones((n, n), dtype=int) - np.eye(n, dtype=int))


def test_isomorphism():
    p4 = build_path(4)
    assert is_isomorphic(p4, relabel(p4, [2, 0, 3, 1]))
    assert not is_isomorphic(p4, build_star(4))
    assert is_isomorphic(build_path(5), build_path(5))
    assert not is_isomorphic(build_path(4), build_path(5))
    assert is_isomorphic(build_path(16), relabel(build_path(16), list(range(15, -1, -1))))
    with pytest.raises(TooLarge):
        is_isomorphic(build_path(17), build_path(17))


def _random_graph(rng: random.Random, n: int, kind: int) -> list:
    """The edges of a random order-n graph: a circulant (|Aut| >= 2n), a
    sparse graph with isolated vertices and edges, or a denser one."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if kind == 0:
        steps = rng.sample(range(1, n // 2 + 1), rng.randint(1, 4))
        return [(u, v) for u, v in pairs if min(v - u, n - v + u) in steps]
    density = 0.15 if kind == 1 else rng.uniform(0.3, 0.7)
    return [e for e in pairs if rng.random() < density]


AUT_COUNT_CAP = 1500        # automorphisms networkx lists per graph at most


@pytest.mark.parametrize("n", range(11, 17))
def test_orbit_minima_agree_with_networkx(n):
    # above order 11 a g6 mask outgrows 64 bits, and the canonical rows hold it
    nx = pytest.importorskip("networkx")
    rng = random.Random(n)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]

    def nx_graph(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        return h

    def edge_moved(edges):
        edges = list(edges)
        edges.remove(rng.choice(edges))
        return from_edges(n, edges + [rng.choice([e for e in pairs if e not in edges])])

    # each pair is a graph with one edge moved, and either its relabeling or
    # a relabeling of the same graph with an edge moved elsewhere
    firsts, seconds = [], []
    for i in range(300):
        edges = _random_graph(rng, n, i % 3)
        g = edge_moved(edges)
        other = edge_moved(edges) if rng.random() < 0.5 else g
        firsts.append(g)
        seconds.append(relabel(other, rng.sample(range(n), n)))
    canon, _ = orbit_minima([g.adj for g in firsts + seconds], n)
    same = [nx.is_isomorphic(nx_graph(g), nx_graph(h)) for g, h in zip(firsts, seconds)]
    assert (canon[:300] == canon[300:]).all(axis=1).tolist() == same
    assert 100 < sum(same) < 200
    # |Aut| of circulants and of sparse graphs; networkx lists at most
    # AUT_COUNT_CAP + 1 automorphisms, which bounds |Aut| from below
    graphs = [from_edges(n, _random_graph(rng, n, i % 2)) for i in range(40)]
    _, aut = orbit_minima([g.adj for g in graphs], n)
    for g, a in zip(graphs, aut.tolist()):
        count = sum(1 for _ in islice(nx.vf2pp_all_isomorphisms(nx_graph(g), nx_graph(g)),
                                      AUT_COUNT_CAP + 1))
        assert a == count if count <= AUT_COUNT_CAP else a > AUT_COUNT_CAP
    # more than a circulant's dihedral group, at every order
    assert aut.max() > 2 * n


def _cayley_z4z4(steps) -> Graph:
    """The Cayley graph of Z4 x Z4 with the connection set `steps`, closed under negation."""
    def index(x, y):
        return 4 * (x % 4) + y % 4
    return from_edges(16, {tuple(sorted((index(x, y), index(x + dx, y + dy))))
                           for x in range(4) for y in range(4) for dx, dy in steps})


@pytest.mark.parametrize("g,aut", [
    pytest.param(from_edges(16, [(v, v ^ 1 << b) for v in range(16) for b in range(4)
                                 if v < v ^ 1 << b]), 384, id="Q4"),
    pytest.param(_cayley_z4z4([(1, 0), (0, 1), (1, 1), (3, 0), (0, 3), (3, 3)]), 192,
                 id="Shrikhande"),
    pytest.param(_cayley_z4z4([(a, 0) for a in (1, 2, 3)] + [(0, b) for b in (1, 2, 3)]), 1152,
                 id="K4xK4"),
    pytest.param(from_edges(16, [(v, (v + 1) % 16) for v in range(16)]), 32, id="C16"),
    pytest.param(from_edges(13, [(u, v) for u in range(13) for v in range(u + 1, 13)
                                 if (v - u) % 13 in {x * x % 13 for x in range(1, 13)}]), 78,
                 id="Paley13"),
    pytest.param(from_edges(16, [(5 * c + v, 5 * c + (v + 1) % 5) for c in range(3)
                                 for v in range(5)]), 6000, id="3C5+K1"),
])
def test_orbit_minima_count_automorphisms_up_to_order_16(g, aut):
    # vertex-transitive graphs, and one with three equal components
    perm = random.Random(g.n).sample(range(g.n), g.n)
    canon, auts = orbit_minima([g.adj, relabel(g, perm).adj], g.n)
    assert auts.tolist() == [aut, aut]
    assert np.array_equal(canon[0], canon[1])


def test_isomorphism_same_degree_sequence_nonisomorphic():
    # C6 vs two triangles: both 2-regular on 6 vertices
    c6 = from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    tri2 = from_edges(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])
    assert not is_isomorphic(c6, tri2)


def test_relabelings_all_isomorphic():
    g = build_star(5)
    seen = set()
    for h in all_relabelings(g):
        seen.add(h.adj)
        assert is_isomorphic(g, h)
    assert len(seen) == 5   # one choice of center


def test_edge_mask_roundtrip():
    for n in (4, 7):
        pairs = g6_pairs(n)
        assert len(pairs) == n * (n - 1) // 2
        mask = 0b1011 if n == 4 else 0b101100111000101
        g = from_edge_mask(n, mask)
        from cdspectra.graphcore import to_edge_mask
        assert to_edge_mask(g) == mask


def test_from_edges_rejects_bad_input():
    with pytest.raises(ValueError):
        from_edges(3, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(3, [(0, 3)])
    with pytest.raises(ValueError):
        Graph(0, ())
    with pytest.raises(ValueError):
        Graph(65, tuple(0 for _ in range(65)))


def _order_field(n: int) -> str:
    """The 4-byte graph6 order field, "~" and n in three 6-bit characters."""
    return "~" + "".join(chr(((n >> shift) & 63) + 63) for shift in (12, 6, 0))


@st.composite
def graph6_lines(draw):
    """One stream line: a graph6 record with n <= 64, maybe damaged, or a line
    holding no record."""
    # orders 62 to 64 often, where the order field changes form
    g = draw(st.one_of(random_graphs(), random_graphs(62, 64)))
    text = to_graph6(g)
    body = text[1:] if g.n <= 62 else text[4:]
    kind = draw(st.sampled_from([
        "record", "record", "header", "spaces", "wide order", "blank", "header only",
        "bad character", "short", "long", "padding", "8-byte order", "order 0", "order 65",
    ]))
    if kind == "header":
        return ">>graph6<<" + text
    if kind == "spaces":
        return draw(st.sampled_from([" ", "\t", "  "])) + text + draw(st.sampled_from(["\n", " \r\n"]))
    if kind == "wide order":
        return _order_field(g.n) + body
    if kind == "blank":
        return draw(st.sampled_from(["", "\n", "  \t"]))
    if kind == "header only":
        return ">>graph6<<"
    if kind == "bad character":
        k = draw(st.integers(0, len(text) - 1))
        return text[:k] + draw(st.sampled_from([" ", "!", "0", "\x7f", "\x00", "é", "\u20ac"])) + text[k + 1:]
    if kind == "short":
        return text[:-1]
    if kind == "long":
        return text + draw(st.sampled_from(["?", "~", "A"]))
    if kind == "padding":
        # set the last padding bit, where the record has one
        return text[:-1] + chr((ord(text[-1]) - 63 | 1) + 63) if g.n * (g.n - 1) // 2 % 6 else text
    if kind == "8-byte order":
        return "~~" + text
    if kind == "order 0":
        return "?" + body
    return _order_field(draw(st.one_of(st.just(65), st.integers(65, 64**3 - 1)))) + body


@settings(max_examples=200)
@given(st.lists(graph6_lines(), max_size=12))
def test_batch_decoder_agrees_with_from_graph6(lines):
    graphs, errors = {}, []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            graphs[lineno] = from_graph6(line)
        except Graph6Error as exc:
            errors.append((lineno, str(exc)))
    orders, got_errors = decode_graph6_lines(lines)
    assert got_errors == errors
    got = {}
    for n, (linenos, adj) in orders.items():
        assert adj.dtype == np.uint8 and adj.shape == (len(linenos), n, n)
        assert np.all(linenos[1:] > linenos[:-1])
        assert np.array_equal(adj, adjacency_stack(graphs_from_stack(adj)))
        got.update(zip(linenos.tolist(), graphs_from_stack(adj)))
    assert got == graphs
    if errors:
        # `verify --stdin` names the first bad line
        with pytest.raises(cli.SystemExit2) as exc:
            cli._read_stream(lines)
        assert str(exc.value) == "input stream: line {}: {}".format(*errors[0])
