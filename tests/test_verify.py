"""Enumeration engine, extremal scans, sign partitions, claim checkers."""

import functools
import importlib
import math
import random
from collections import Counter
from itertools import combinations, permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_families import _declaring

from cdspectra import family_lemmas, lemmas, verify
from cdspectra.families import (
    FAMILIES, _Family, build_B1, build_H, build_L, build_Ldprime, build_Lprime, build_many,
    build_path, cell_groups,
)
from cdspectra.graphcore import (
    DisconnectedGraph,
    Graph,
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
    least_masks,
    orbit_minima,
    relabel,
    to_edge_mask,
    to_graph6,
)
from cdspectra.spectra import sym_eigenvalues


def _spectrum(g):
    """The per-graph oracle: D(g^c) solved alone by `sym_eigenvalues`."""
    return sym_eigenvalues(distance_matrix(complement(g)))


def _sign_split(g):
    """(plus, zero, minus, degenerate): the vertices by the sign of the least
    eigenvector of D(g^c), solved alone, with entries within ZERO_TOL of
    zero in `zero` and |minus| <= |plus|, and whether the least eigenvalue
    is closer than DEGENERATE_GAP to the next."""
    spec = _spectrum(g)
    x = spec.vectors[:, -1]
    minus = frozenset(v for v in range(g.n) if x[v] < -verify.ZERO_TOL)
    plus = frozenset(v for v in range(g.n) if x[v] > verify.ZERO_TOL)
    if len(minus) > len(plus):
        minus, plus = plus, minus
    zero = frozenset(range(g.n)) - plus - minus
    degenerate = g.n > 1 and spec.values[-2] - spec.values[-1] < verify.DEGENERATE_GAP
    return plus, zero, minus, degenerate


def scan_extremal(n: int, objective: str) -> verify.VerificationReport:
    """Extremal value of lambda_1 or lambda_n of D(G^c) over the class."""
    ext = verify._class_extremum(n, objective)
    return verify.VerificationReport(
        claim_id=f"scan:{objective}",
        status="confirmed",
        params={"n": n, "objective": objective},
        extremal={objective: ext.value},
        witnesses=[to_graph6(g) for g in ext.witnesses],
        margin=ext.margin,
        details=ext.details,
    )


@functools.cache
def _slow_class_masks(n: int) -> frozenset[int]:
    """Independent oracle: filter every labeled graph one at a time (built once per n)."""
    return frozenset(mask for mask in range(1 << (n * (n - 1) // 2))
                     if is_connected(g := from_edge_mask(n, mask)) and diameter(g) > 3)


def test_enumeration_oracle_n5():
    slow = _slow_class_masks(5)
    assert verify.enumerate_diam_gt3(5) == len(slow) == 60
    assert all(is_connected(complement(from_edge_mask(5, m))) for m in slow)
    # at n=5 the whole class is the 60 labelings of P5: one class
    (rep,) = verify._classes(5).reps
    assert is_isomorphic(from_edge_mask(5, int(rep)), build_path(5))
    assert set(_ref_orbit_masks(5, rep).tolist()) == slow


def test_enumeration_oracle_n6_count():
    assert verify.enumerate_diam_gt3(6) == len(_slow_class_masks(6))


def _stream_members(lines) -> list:
    """The diameter > 3 graphs of a graph6 stream, in line order, as
    `cli._read_stream` selects them: `decode_graph6_lines`, then
    `graph_diameters` of each order's stack."""
    members = []
    for linenos, adj in decode_graph6_lines(lines)[0].values():
        keep = verify.graph_diameters(adj) > 3
        members += zip(linenos[keep].tolist(), graphs_from_stack(adj[keep]))
    return [g for _, g in sorted(members, key=lambda item: item[0])]


def test_enumeration_from_external_source():
    lines = [to_graph6(build_path(9)), to_graph6(build_H(3, 4)),  # H has diameter 3
             to_graph6(build_Lprime(9)), "", to_graph6(build_path(3)), "@",
             to_graph6(from_edges(9, [(0, 1), (2, 3)]))]
    seen = _stream_members(lines)
    assert seen == [build_path(9), build_Lprime(9)]
    adj = adjacency_stack([from_graph6(line) for line in lines[:3]] + [from_graph6(lines[-1])])
    assert verify.graph_diameters(adj).tolist() == [8, 3, 4, -1]
    assert verify.graph_diameters(adjacency_stack([from_graph6("@")])).tolist() == [0]
    assert verify.graph_diameters(np.zeros((0, 4, 4), dtype=np.uint8)).shape == (0,)
    with pytest.raises(ValueError):
        verify.enumerate_diam_gt3(12)


def test_stream_is_filtered_and_solved_in_one_batch(monkeypatch):
    # every order-7 class relabeled at random, among rejects of orders 3, 7 and 9
    # and one member of order 9, which must be selected in line order too
    rng = random.Random(11)
    lines = []
    for m in verify._classes(7).reps:
        g = from_edge_mask(7, int(m))
        lines += [to_graph6(relabel(g, rng.sample(range(7), 7))) for _ in range(2)]
    lines += [to_graph6(from_edge_mask(7, rng.getrandbits(21))) for _ in range(80)]
    lines += [to_graph6(build_path(3)), to_graph6(build_H(3, 4)), to_graph6(build_path(9)), ""]
    rng.shuffle(lines)
    # three graphs per kernel block, so the stream is cut into many blocks
    monkeypatch.setattr(verify, "STREAM_BLOCK_ENTRIES", 3 * 49)
    graphs = _stream_members(lines)
    decoded = [from_graph6(line) for line in lines if line]
    want = [g for g in decoded if is_connected(g) and diameter(g) > 3]
    assert graphs == want
    assert [g.n for g in graphs].count(9) == 1
    graphs = [g for g in graphs if g.n == 7]
    _, values, _ = verify.complement_spectra(adjacency_stack(graphs))
    spectra = [_spectrum(g) for g in graphs]
    # bitwise: the stacked eigh gives the per-graph values
    assert values[:, -1].tolist() == [s.lambda1 for s in spectra]
    assert values[:, 0].tolist() == [s.lambda_n for s in spectra]


def test_class_scan_counts_and_lemma21():
    scan = verify.class_scan(6)
    assert scan["count"] == 3240
    assert scan["lemma21_violations"] == []
    scan5 = verify.class_scan(5)
    assert scan5["count"] == 60
    # all survivors at n=5 share one lambda_1 (single isomorphism class)
    ext = scan_extremal(5, "min_l1")
    assert ext.margin is None and ext.details["runner_up"] is None
    assert ext.details["labeled_witnesses"] == 60


def test_scan_extremal_min_l1_is_path():
    for n in (5, 6):
        rep = scan_extremal(n, "min_l1")
        assert len(rep.witnesses) == 1
        assert is_isomorphic(from_graph6(rep.witnesses[0]), build_path(n))
        want = sym_eigenvalues(
            distance_matrix(complement(build_path(n))).astype(float)).lambda1
        assert rep.extremal["min_l1"] == pytest.approx(want, abs=1e-9)
    with pytest.raises(ValueError):
        scan_extremal(6, "max_everything")


def test_scan_values_match_direct_solver_spot():
    # class-solved cluster values equal a direct per-graph eigensolve
    rep = scan_extremal(6, "max_ln")
    g = from_graph6(rep.witnesses[0])
    direct = sym_eigenvalues(distance_matrix(complement(g)).astype(float)).lambda_n
    assert rep.extremal["max_ln"] == pytest.approx(direct, abs=1e-10)


def test_relabeling_invariance_spot_check_n6():
    # extremal values over labeled graphs match those over relabeled copies
    rep = scan_extremal(6, "min_l1")
    g = from_graph6(rep.witnesses[0])
    for perm in ([1, 0, 2, 3, 4, 5], [5, 4, 3, 2, 1, 0], [2, 3, 4, 5, 0, 1]):
        h = relabel(g, perm)
        v = sym_eigenvalues(distance_matrix(complement(h)).astype(float)).lambda1
        assert v == pytest.approx(rep.extremal["min_l1"], abs=1e-9)


def test_check_theorem_2_8_and_2_4_n6():
    rep = verify.check_theorem("2.8", 6)
    assert rep.status == "confirmed"
    assert rep.margin is not None and rep.margin > 1e-9
    rep = verify.check_theorem("T2.4", 6)
    assert rep.status == "confirmed"
    assert rep.extremal["bound_l1_Hc"] == pytest.approx(10.0, abs=1e-9)


def test_check_theorem_bad_inputs():
    with pytest.raises(ValueError):
        verify.check_theorem("2.8", 4)
    with pytest.raises(ValueError):
        verify.check_theorem("3.13", 6)
    with pytest.raises(ValueError):
        verify.check_theorem("9.9", 7)


def test_theorem_3_13_refuted_at_7():
    rep = verify.check_theorem("3.13", 7)
    assert rep.status == "refuted"
    assert rep.counterexamples
    w = from_graph6(rep.counterexamples[0])
    # the counterexample is a genuine class member beating the bound
    assert diameter(w) > 3
    direct = sym_eigenvalues(distance_matrix(complement(w)).astype(float)).lambda_n
    bound = sym_eigenvalues(
        distance_matrix(complement(build_L(4, 3))).astype(float)).lambda_n
    assert direct > bound + 1e-6
    assert rep.extremal["max_ln"] == pytest.approx(direct, abs=1e-9)


def test_check_theorem_on_values_stream():
    # every labeled member: the merged orbits of the class representatives
    members = np.unique(np.concatenate([_ref_orbit_masks(6, r) for r in verify._classes(6).reps]))
    graphs = [from_edge_mask(6, int(m)) for m in members]
    values = {
        "l1": [_spectrum(g).lambda1 for g in graphs],
        "ln": [_spectrum(g).lambda_n for g in graphs],
    }
    rep = verify.check_theorem_on_values("2.8", 6, graphs, values)
    assert rep.status == "confirmed"
    rep = verify.check_theorem_on_values("2.4", 6, graphs, values)
    assert rep.status == "confirmed"


def _least_split_of(graphs) -> list[tuple[int, bool]]:
    """(q, degenerate) of each graph from the stacked solve, as `spectrum` reports them."""
    q, degenerate = verify._least_split(*verify.complement_spectra(adjacency_stack(graphs))[1:])
    return list(zip(q.tolist(), degenerate.tolist()))


def test_sign_partition_p7():
    plus, zero, minus, degenerate = _sign_split(build_path(7))
    assert len(plus) + len(zero) + len(minus) == 7
    assert len(plus) + len(zero) >= 4 and len(minus) <= len(plus)
    assert not degenerate
    assert _least_split_of([build_path(7)]) == [(len(minus), False)]


def test_sign_partition_relabel_invariant():
    g = build_Lprime(8)
    perm = [3, 1, 0, 2, 5, 4, 7, 6]
    h = relabel(g, perm)
    plus, zero, minus, _ = _sign_split(g)
    plus2, zero2, minus2, _ = _sign_split(h)
    assert len(plus) != len(minus)
    assert {perm[v] for v in minus} == minus2 and {perm[v] for v in zero} == zero2
    assert _least_split_of([g, h]) == [(len(minus), False)] * 2


@settings(max_examples=40)
@given(st.data())
def test_spectrum_and_sign_partition_relabel_invariant(data):
    n = data.draw(st.sampled_from([6, 7]))
    masks = _ref_class_record(n)["masks"]
    g = from_edge_mask(n, int(masks[data.draw(st.integers(0, len(masks) - 1))]))
    perm = data.draw(st.permutations(range(n)))
    h = relabel(g, perm)
    assert np.allclose(_spectrum(g).values, _spectrum(h).values, atol=1e-10)
    a, b = _sign_split(g), _sign_split(h)
    # the stacked solve reads the same q and flag as each graph solved alone
    assert _least_split_of([g, h]) == [(len(a[2]), a[3]), (len(b[2]), b[3])]
    assert a[3] == b[3]
    if a[3]:
        return      # the least eigenvector, and so the partition, is not unique

    def moved(vs):
        return frozenset(perm[v] for v in vs)

    plus, zero, minus, _ = a
    assert (len(plus), len(minus)) == (len(b[0]), len(b[2]))
    assert moved(zero) == b[1]
    # the eigenvector's sign is free; it is fixed only where |V+| != |V-|
    assert {moved(plus), moved(minus)} == {b[0], b[2]}
    if len(plus) != len(minus):
        assert moved(minus) == b[2]


def test_free_trees_counts():
    # OEIS A000055
    assert [len(family_lemmas.free_trees(k)) for k in range(1, 13)] == [
        1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551]
    for t in family_lemmas.free_trees(7):
        assert t.edge_count() == 6
        assert is_connected(t)


def test_lemma_2_1():
    rep = verify.run_claim("2.1", n=6)
    assert rep.status == "confirmed"
    assert rep.details["identity_violations"] == 0
    assert rep.details["inequality_violations"] == 0
    assert rep.details["diam3_complement_exceptions"] == 0
    assert rep.details["class_size_diam_gt3"] == 3240


def test_lemma_2_3_monotone_toward_balance():
    rep = verify.run_claim("2.3", n=10)
    assert rep.status == "confirmed"
    vals = rep.details["l1_by_split"]
    assert vals["4,4"] >= vals["3,5"] >= vals["2,6"] >= vals["1,7"]


def test_lemma_2_5_direction_reversed():
    rep = verify.run_claim("2.5", n=6)
    assert rep.status == "confirmed-with-reversed-direction"
    assert rep.margin is not None and rep.margin > 0
    assert rep.details["example_pair"] is not None


def test_lemma_2_6_spanning_trees():
    rep = verify.run_claim("2.6", n=6)
    assert rep.status == "confirmed"
    assert not rep.counterexamples


def test_lemma_2_7_trees():
    rep = verify.run_claim("2.7")
    assert rep.status == "confirmed"
    assert rep.margin is not None and rep.margin > 1e-9


def test_lemma_2_7_above_the_isomorphism_cap():
    # the star and the path are named by their degrees, so no tree order is capped
    rep = verify.run_claim("2.7", n=12)
    assert rep.status == "confirmed" and rep.counterexamples == []
    assert rep.params == {"n_max": 12}
    # the trees on 4..12 vertices, 1 + 2 + 5 + 10 + 22 + 46 + 105 + 234 + 550
    # of them without the stars
    assert rep.notes == ["975 non-star trees checked; equality exactly at P_n"]
    # the least gap over the trees shrinks as the order grows
    assert 1e-9 < rep.margin < verify.run_claim("2.7").margin


def test_lemma_3_1_chain():
    rep = verify.run_claim("3.1")
    assert rep.status == "confirmed"
    assert rep.margin > 1e-9


def test_lemma_3_1_compares_the_trees_at_every_tie(monkeypatch):
    # T1(a, b) and T2(a, b) tie at (1, 1), ..., (1, 9), orders 5 to 13, and
    # each tie is allowed only as an isomorphism, which is checked there alone
    real = family_lemmas.is_isomorphic
    seen = []

    def recorded(g, h):
        same = real(g, h)
        seen.append((g.n, same))
        return same

    monkeypatch.setattr(family_lemmas, "is_isomorphic", recorded)
    rep = verify.run_claim("3.1")
    assert rep.status == "confirmed"
    assert seen == [(b + 4, True) for b in range(1, 10)]
    assert rep.notes == [f"equality T1=T2 at {[(1, b) for b in range(1, 10)]}; "
                         "these parameter pairs give isomorphic trees"]
    monkeypatch.setattr(family_lemmas, "is_isomorphic", lambda g, h: False)
    rep = verify.run_claim("3.1")
    assert rep.status == "refuted"
    assert rep.counterexamples == [str((1, b)) for b in range(1, 10)]


def test_lemma_3_4_and_3_5_grids():
    rep = verify.run_claim("3.4", p_max=8)
    assert rep.status == "confirmed"
    assert rep.margin > 1e-9
    assert rep.details["power_verdict"]["consistent_power"] == 2
    rep = verify.run_claim("3.5", p_max=8)
    assert rep.status == "confirmed"
    assert rep.margin > 1e-9


def test_lemma_3_6_balance():
    rep = verify.run_claim("3.6", p_max=8)
    assert rep.status == "confirmed"


def test_lemma_3_9_vacuous_q1_and_reversed_subclaim():
    rep = verify.run_claim("3.9", n=7)
    assert rep.status == "confirmed-with-reversed-direction"
    assert rep.details["q1_count"] == 0
    assert any("vacuous" in note for note in rep.notes)
    table = rep.details["lprime_vs_ldprime"]
    assert all(row["ln_Ldprime"] > row["ln_Lprime"] for row in table)


def test_lemma_3_11_refuted_with_certificate():
    rep = verify.run_claim("3.11", p_max=12)
    assert rep.status == "refuted"
    assert "(11, 4)" in rep.counterexamples
    assert any("certified exactly" in note for note in rep.notes)
    # identity matches exactly at q=2 only
    assert rep.details["identity_matches"]["5,2"] is True
    assert rep.details["identity_matches"]["5,3"] is False


def test_lemma_3_11_isolates_each_polynomial_once(monkeypatch):
    # 62 root orders compare 124 extreme roots of 80 distinct polynomials:
    # Psi_Lprime(p + q) recurs along each anti-diagonal of the grid.  Each is
    # isolated once, seeded by the family store's quotient eigenvalues, and
    # only Psi_Lprime(12), whose double root 0 no seed claims, is bisected by
    # Sturm counts
    from cdspectra import quotients, spectra
    isolated, bisected = [], []
    grid, claims = spectra._grid_roots, spectra._root_cells

    def recording_grid(p, lo, hi, tol, seeds):
        assert seeds is not None
        isolated.append(p)
        return grid(p, lo, hi, tol, seeds)

    def recording_claims(p, *args):
        found = claims(p, *args)
        if found is None:
            bisected.append(p)
        return found

    monkeypatch.setattr(spectra, "_grid_roots", recording_grid)
    monkeypatch.setattr(spectra, "_root_cells", recording_claims)
    verify.run_claim("3.11", p_max=12)
    assert len(isolated) == len(set(isolated)) == 80
    assert bisected == [quotients.Psi_Lprime(12)]


def test_lemma_3_12_note_follows_its_verdict():
    # the grid up to p = 15 reaches (15, 2), where lambda_n(L^c) overshoots
    # the balanced split; the default grid confirms the claim
    rep = verify.run_claim("3.12", p_max=15)
    assert rep.status == "refuted" and rep.counterexamples == ["(15, 2)"]
    assert rep.notes[-1].endswith("the monotonicity conclusion itself fails at (15, 2)")
    rep = verify.run_claim("3.12", p_max=12)
    assert rep.status == "confirmed"
    assert rep.notes[-1].endswith("the monotonicity conclusion itself holds")


def test_lemma_3_11_confirmed_on_small_grid():
    rep = verify.run_claim("3.11", p_max=10)
    assert rep.status == "confirmed"
    assert rep.margin > 1e-9


def test_lemma_3_12_balance():
    rep = verify.run_claim("3.12", p_max=10)
    assert rep.status == "confirmed"
    assert rep.margin > 1e-9


def test_family_store_matches_the_per_graph_spectrum(monkeypatch):
    # every family graph the family lemmas read, paths (one cell per vertex)
    # and T2(1, b) (an empty cell), solved as cell quotients, against one
    # graph at a time
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    for claim in ("2.3", "3.1", "3.4", "3.5", "3.6", "3.9", "3.11", "3.12"):
        verify.run_claim(claim, n=7)
    verify._family_spectra([("path", (1,))] + [("path", (n,)) for n in range(4, 13)])
    store = verify._FAMILY_STORE
    assert len(store) > 300
    assert ("T2", (1, 9)) in store
    families = {"H", "T", "T1", "T2", "B1", "B2", "L", "Lprime", "Ldprime", "path"}
    assert {family for family, _ in store} == families
    for (family, params), solved in store.items():
        (g,) = build_many([(family, params)])
        want = _spectrum(g).values
        assert sum(solved.sizes) == len(solved.values) == g.n
        assert np.all(np.abs(solved.values - want) <= 1e-12 * np.maximum(1, np.abs(want))), \
            (family, params)
    # a disconnected complement in a batch is named
    with pytest.raises(DisconnectedGraph) as batch:
        verify._family_spectra([("H", (2, 2)), ("path", (3,)), ("path", (8,))])
    assert str(batch.value) == f"complement of {to_graph6(build_path(3))} is disconnected"


def test_family_char_poly_is_that_of_the_order_n_matrix(monkeypatch):
    # charpoly(Q) (x + d_ii)^(s_i - 1), from the cells, is the exact char poly
    # of the order-n D(X^c) for every family graph of order <= 16 that the
    # theorem bounds and the family lemmas read
    from cdspectra.spectra import CHAR_POLY_MAX_N, char_polys_exact
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    for claim in ("2.3", "3.1", "3.9") + verify.GRID_CLAIMS:
        verify.run_claim(claim, n=7)
    bounds = [(family, make(n)) for n in range(7, CHAR_POLY_MAX_N + 1)
              for _, _, family, make in verify._THEOREMS.values()]
    verify._family_spectra(bounds)
    keys = [key for key, solved in verify._FAMILY_STORE.items()
            if len(solved.values) <= CHAR_POLY_MAX_N]
    assert len(keys) > 300 and set(bounds) <= set(keys)
    by_order: dict[int, list] = {}
    for key in keys:
        by_order.setdefault(len(verify._FAMILY_STORE[key].values), []).append(key)
    for group in by_order.values():
        dc = np.stack([distance_matrix(complement(g)) for g in build_many(group)])
        for key, want in zip(group, char_polys_exact(dc)):
            assert verify._FAMILY_STORE[key].char_poly() == want, key


def test_grid_claims_and_theorem_bounds_solve_no_order_n_matrix(monkeypatch):
    # the five grid claims and the four theorem bounds read each family graph
    # as its k x k cell quotient, exact re-checks included, so they run with
    # the order-n solves and family stacks broken; quotient-consistency keeps
    # an order-n solve of its own, from one family_stacks call
    from cdspectra import families, quotients
    for n in (7, 8):
        verify.class_scan(n)            # the class records, solved before the break
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    monkeypatch.setattr(verify, "EXACT_RECHECK_BELOW", 10.0)

    def broken(*args):
        raise AssertionError("an order-n family matrix was built or solved")

    with monkeypatch.context() as patched:
        for module, name in ((verify, "complement_spectra"), (verify, "eigenpairs"),
                             (families, "family_stacks"), (quotients, "family_stacks")):
            patched.setattr(module, name, broken)
        statuses = {c: verify.run_claim(c).status for c in verify.GRID_CLAIMS}
        theorems = [verify.check_theorem(t, n).status
                    for n in (7, 8) for t in ("2.4", "2.8", "3.7", "3.13")]
    assert statuses == {"3.4": "confirmed", "3.5": "confirmed", "3.6": "confirmed",
                        "3.11": "refuted", "3.12": "confirmed"}
    assert theorems == ["confirmed", "confirmed", "confirmed", "refuted"] * 2
    calls = []
    stacks = quotients.family_stacks
    monkeypatch.setattr(quotients, "family_stacks",
                        lambda keys: calls.append(list(keys)) or stacks(calls[-1]))
    monkeypatch.setattr(verify, "complement_spectra", broken)
    monkeypatch.setattr(verify, "eigenpairs", broken)
    assert verify.run_claim("quotient-consistency").status == "confirmed"
    assert [len(keys) for keys in calls] == [98]


def test_grid_claims_build_no_graph(monkeypatch):
    # the store reads the family cells and the quotient-consistency claim
    # the family stacks, so they run from an empty store without a Graph
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})

    def no_graph(self, n, adj):
        raise AssertionError("a Graph was built")

    monkeypatch.setattr(Graph, "__init__", no_graph)
    statuses = {c: verify.run_claim(c, p_max=12).status
                for c in ("quotient-consistency",) + verify.GRID_CLAIMS}
    assert statuses == {"quotient-consistency": "confirmed", "3.4": "confirmed",
                        "3.5": "confirmed", "3.6": "confirmed", "3.11": "refuted",
                        "3.12": "confirmed"}
    assert len(verify._FAMILY_STORE) == 254      # the grids' 226, and quotient-consistency's H and L''


def test_family_store_solves_orders_above_64(monkeypatch):
    # L(40, 30) and L'(70) have 70 vertices, more than a Graph holds; the
    # store still solves them, and lambda_n of L^c is Phi_L's least root
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    from cdspectra import quotients
    from cdspectra.spectra import cauchy_root_bound, sturm_real_roots
    l, lp = verify._family_spectra([("L", (40, 30)), ("Lprime", (70,))])
    assert len(l.values) == len(lp.values) == 70
    phi = quotients.Phi_L(40, 30)
    bound = float(cauchy_root_bound(phi))
    assert abs(l.lambda_n - sturm_real_roots(phi, -bound, bound, 1e-12)[0]) < 1e-9
    with pytest.raises(ValueError, match="^vertex count 70 outside 1..64$"):
        build_L(40, 30)


def _one_key_solve(family: str, params: tuple[int, ...]):
    """lambda_1, lambda_n and the quotient eigenvalues of one family graph from
    its own k x k M, built here, and its whole spectrum sorted, as one key at
    a time was solved before the store grouped its keys by shape."""
    sizes = [s for s in FAMILIES[family].sizes(*params) if s]
    ((_, _, dist),) = cell_groups([(family, params)])
    s = np.array(sizes, dtype=np.float64)
    m = dist * np.sqrt(np.outer(s, s))
    np.fill_diagonal(m, (s - 1) * dist.diagonal())
    quotient = np.linalg.eigvalsh(m)
    values = np.sort(np.concatenate([quotient, -dist.diagonal().repeat(s.astype(int) - 1)]))
    return float(values[-1]), float(values[0]), quotient.tolist(), values[::-1]


def test_the_store_equals_one_key_solves_bitwise(monkeypatch):
    # every key of the grid claims up to p = 60, T2(1, b) with its empty
    # cell, the paths and the one star whose complement is connected:
    # lambda_1, lambda_n, the quotient eigenvalues and the whole spectrum
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    for claim in verify.GRID_CLAIMS:
        verify.run_claim(claim, p_max=60)
    verify._family_spectra([("T2", (1, b)) for b in range(1, 31)] + [("star", (1,))]
                           + [("path", (n,)) for n in (1, *range(4, 41))])
    store = verify._FAMILY_STORE
    assert len(store) == 5599
    # no family graph above has a twin eigenvalue -d_ii as lambda_n: the
    # independent set n K1, whose complement K_n has lambda_n = -1 from its
    # one cell's twins, does
    monkeypatch.setitem(FAMILIES, "I", _Family(("n",), (1,), "I(n) needs n >= 1", "I",
                                               lambda n: (n,), (), (), None))
    for n, solved in zip(range(1, 6), verify._family_spectra([("I", (n,)) for n in range(1, 6)])):
        assert (solved.lambda1, solved.lambda_n) == (n - 1.0, -1.0 if n > 1 else 0.0)
    for key, solved in store.items():
        l1, ln, quotient, values = _one_key_solve(*key)
        assert (solved.lambda1, solved.lambda_n, solved.quotient) == (l1, ln, quotient), key
        assert solved.values.tobytes() == values.tobytes(), key


def _family_keys():
    """Keys of every family with a connected complement, valid or not, in a
    mixed order: the grid families, T2(1, b), paths and star(1)."""
    keys = [(f, (p, q)) for p in range(1, 14) for q in range(1, 14)
            for f in ("B1", "B2", "L", "T", "T1", "T2", "H")]
    keys += [(f, (n,)) for n in range(3, 30) for f in ("Lprime", "Ldprime")]
    return keys + [("path", (n,)) for n in (1, 5, 9, 5)] + [("star", (1,))]


def test_a_fill_solves_each_family_and_shape_group_once(monkeypatch):
    # one stacked eigvalsh per (family, capped cell shape), as `cell_groups`
    # gives them, and the shapes are the table's sizes capped at 2
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    keys = [(f, params) for f, params in _family_keys()
            if all(x >= least for x, least in zip(params, FAMILIES[f].least))]
    shapes = {(f, tuple(min(s, 2) for s in FAMILIES[f].sizes(*params))) for f, params in keys}
    calls = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(len(a)) or solve(a))
    verify._family_spectra(keys)
    assert len(calls) == len(shapes) == len(cell_groups(keys))
    assert sum(calls) == len(set(keys)) == len(verify._FAMILY_STORE)
    # a second fill of the same keys solves nothing
    verify._family_spectra(keys)
    assert len(calls) == len(shapes)


def test_store_errors_name_the_first_failing_key(monkeypatch):
    # a parameter below a family's least value, a declared diameter the graph
    # misses, and a disconnected complement: the store raises what one key at
    # a time raised, for the first failing key in key order
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    monkeypatch.setitem(FAMILIES, "T", _declaring("T", 4))
    star = build_many([("star", (5,))])[0]
    cases = [
        ([("H", (2, 2)), ("T", (3, 3)), ("B1", (1, 3)), ("T", (3, 2))],
         AssertionError, "T(3,3): expected diameter 4, got 3"),
        ([("H", (2, 2)), ("B1", (1, 3)), ("T", (3, 3))], ValueError, "B1(p,q) needs p, q >= 2"),
        # B1's keys are grouped first, but T(3, 3) comes before B1(1, 3)
        ([("B1", (4, 4)), ("T", (3, 3)), ("B1", (1, 3))],
         AssertionError, "T(3,3): expected diameter 4, got 3"),
        ([("B1", (4, 4)), ("star", (5,)), ("path", (3,))], DisconnectedGraph,
         f"complement of {to_graph6(star)} is disconnected"),
        ([("path", (3,)), ("T", (2, 2))], AssertionError, "T(2,2): expected diameter 4, got 3"),
    ]
    for keys, error, text in cases:
        with pytest.raises(error) as raised:
            verify._family_spectra(keys)
        assert str(raised.value) == text, keys
    assert verify._FAMILY_STORE == {}


def test_claims_share_the_family_store(monkeypatch):
    # a claim fills the store for its whole grid at once; the other claims
    # read the graphs already solved
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    solved = []
    cells = verify.cell_groups

    def counting_cells(keys):
        keys = list(keys)
        solved.append(len(keys))
        return cells(keys)

    monkeypatch.setattr(verify, "cell_groups", counting_cells)
    verify.run_claim("3.11")
    first = sum(solved)
    assert first == len(verify._FAMILY_STORE) and len(solved) == 1
    verify.run_claim("3.12")
    verify.run_claim("3.11")
    assert sum(solved) == len(verify._FAMILY_STORE) < 2 * first


def test_a_theorem_run_makes_each_family_graph_once(monkeypatch):
    # the bound's float value and its exact char poly both come from the
    # family store, so no bound graph's cells are read twice
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    monkeypatch.setattr(verify, "EXACT_RECHECK_BELOW", 10.0)
    made = Counter()
    cells = verify.cell_groups

    def counted(keys):
        keys = list(keys)
        made.update(keys)
        return cells(keys)

    monkeypatch.setattr(verify, "cell_groups", counted)
    reports = [verify.check_theorem(tid, 7) for tid in ("2.4", "2.8", "3.7", "3.13")]
    assert all(any("exact char-poly re-check" in note for note in rep.notes) for rep in reports)
    assert [rep.status for rep in reports] == ["confirmed", "confirmed", "confirmed", "refuted"]
    assert made == Counter({("H", (2, 3)): 1, ("path", (7,)): 1, ("B1", (4, 3)): 1,
                            ("L", (4, 3)): 1})


def test_quotient_consistency_claim():
    rep = verify.run_claim("quotient-consistency")
    assert rep.status == "confirmed"
    assert rep.params["cases"] == 98
    under = [s for s in rep.details["summaries"] if not s["poly_matches_printed"]]
    assert under == []


def test_run_claim_registry():
    with pytest.raises(ValueError):
        verify.run_claim("nope")
    rep = verify.run_claim("T2.8", n=6)
    assert rep.claim_id == "T2.8"


def test_claims_table_gives_the_registries_checks_and_default_orders():
    # the three id tuples come from `CLAIMS` in table order, every row names
    # a check its module has, and run_claim with no n runs each order claim
    # at its documented default
    assert verify.CLAIM_IDS == (
        "2.1", "2.3", "2.5", "2.6", "2.7", "3.1", "3.4", "3.5", "3.6", "3.9", "3.11", "3.12",
        "T2.4", "T2.8", "T3.7", "T3.13", "quotient-consistency")
    assert verify.ORDER_CLAIMS == (
        "2.1", "2.3", "2.5", "2.6", "2.7", "3.9", "T2.4", "T2.8", "T3.7", "T3.13")
    assert verify.GRID_CLAIMS == ("3.4", "3.5", "3.6", "3.11", "3.12")
    for module, name, _ in verify.CLAIMS.values():
        assert callable(getattr(importlib.import_module(f"cdspectra.{module}"), name))
    orders = {c: verify.run_claim(c).params for c in verify.ORDER_CLAIMS}
    assert {c: params.get("n", params.get("n_max")) for c, params in orders.items()} == {
        "2.1": 6, "2.3": 12, "2.5": 6, "2.6": 7, "2.7": 9, "3.9": 7,
        "T2.4": 7, "T2.8": 7, "T3.7": 7, "T3.13": 7}
    assert verify.run_claim("3.4").params["grid"] == "4<=p<=12, 2<=q<=p"


def test_scan_invalid_n():
    with pytest.raises(ValueError):
        verify.class_scan(9)


def _random_masks(n: int, count: int, seed: int) -> np.ndarray:
    """Seeded masks over a spread of edge densities, so sparse class members occur."""
    rng = random.Random(seed)
    pairs = n * (n - 1) // 2
    out = []
    for _ in range(count):
        density = rng.uniform(0.1, 0.6)
        out.append(sum(1 << e for e in range(pairs) if rng.random() < density))
    return np.array(out, dtype=np.uint32)


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_survivor_filter_matches_graphcore_oracle(n):
    if n == 5:
        masks = np.arange(1 << 10, dtype=np.uint32)
    else:
        masks = _random_masks(n, 2000, seed=7000 + n)
    want = [int(m) for m in masks
            if is_connected(g := from_edge_mask(n, int(m))) and diameter(g) > 3]
    assert len(want) >= 20              # the sample reaches into the class
    adj = verify._adj_rows(masks, n)
    for k in range(0, len(masks), 97):
        assert adj[:, k].tolist() == list(from_edge_mask(n, int(masks[k])).adj)
    got = masks[verify._class_keep(adj, n)]
    assert got.tolist() == want
    # the members' stack, and D(G^c) from it, equal per-graph BFS on the complement
    stack = verify._mask_stack(got, n)
    assert stack.dtype == np.uint8
    assert np.array_equal(stack, adjacency_stack([from_edge_mask(n, m) for m in want]))
    dc = verify.complement_distances(stack)
    assert dc.shape == (len(want), n, n) and dc.max() <= 3
    for k, m in enumerate(want):
        assert np.array_equal(dc[k], distance_matrix(complement(from_edge_mask(n, m))))


def test_complement_spectra_is_bitwise_the_per_graph_spectrum(monkeypatch):
    # class representatives and family graphs of order 7, in blocks of three,
    # against one graph at a time
    monkeypatch.setattr(verify, "STREAM_BLOCK_ENTRIES", 3 * 49)
    graphs = [from_edge_mask(7, int(m)) for m in verify._classes(7).reps[:20]]
    graphs += [build_H(2, 3), build_B1(4, 3), build_L(4, 3), build_Lprime(7)]
    dc, values, vectors = verify.complement_spectra(adjacency_stack(graphs))
    assert dc.dtype == np.int64 and values.shape == (len(graphs), 7)
    for g, d, w, x in zip(graphs, dc, values, vectors):
        want = _spectrum(g)
        assert np.array_equal(d, distance_matrix(complement(g)))
        assert w[::-1].tobytes() == want.values.tobytes()
        # the same eigenvectors, but for the sign that sym_eigenvalues fixes
        assert np.array_equal(np.abs(x[:, ::-1]), np.abs(want.vectors))
    # an empty stack gives empty arrays of the stack's order
    dc, values, vectors = verify.complement_spectra(np.zeros((0, 5, 5), dtype=np.uint8))
    assert dc.shape == (0, 5, 5) and values.shape == (0, 5) and vectors.shape == (0, 5, 5)
    # the first graph with a disconnected complement is named, in a later block
    star = from_edges(7, [(0, v) for v in range(1, 7)])
    bad = [build_path(7)] * 4 + [star, build_H(2, 3), star]
    with pytest.raises(DisconnectedGraph) as raised:
        verify.complement_spectra(adjacency_stack(bad))
    assert str(raised.value) == f"complement of {to_graph6(star)} is disconnected"


def _relabeled_masks(classes: list[str], copies: int, seed: int) -> list[int]:
    rng = random.Random(seed)
    masks = []
    for text in classes:
        g = from_graph6(text)
        for _ in range(copies):
            perm = list(range(g.n))
            rng.shuffle(perm)
            masks.append(to_edge_mask(relabel(g, perm)))
    rng.shuffle(masks)
    return masks


def test_orbit_dedup_matches_pairwise_isomorphism():
    # the orbit partition's representatives are pairwise non-isomorphic
    for n in (6, 7):
        reps = [from_edge_mask(n, int(m)) for m in verify._classes(n).reps]
        assert [g.adj for g in verify._dedup_isomorphic(reps)] == [g.adj for g in reps]
    classes = [to_graph6(build_path(7)), "FZ?Z_", to_graph6(build_L(4, 3)),
               to_graph6(build_Lprime(7)), to_graph6(build_Ldprime(7))]
    masks = _relabeled_masks(classes, copies=6, seed=11)
    got = verify._dedup_isomorphic([from_edge_mask(7, m) for m in masks])
    assert len(got) == len(classes)
    # one class per S_n orbit, and the first copy of each class in walk order
    canon, _ = orbit_minima([from_edge_mask(7, m).adj for m in masks], 7)
    assert len(np.unique(canon, axis=0)) == len(classes)
    assert [to_edge_mask(g) for g in got] == [
        m for i, m in enumerate(masks)
        if not any(is_isomorphic(from_edge_mask(7, m), from_edge_mask(7, p))
                   for p in masks[:i])]


@settings(max_examples=60)
@given(st.data())
def test_orbit_contains_every_relabeling(data):
    n = data.draw(st.integers(min_value=5, max_value=8))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    perm = data.draw(st.permutations(range(n)))
    orbit = set(_ref_orbit_masks(n, mask).tolist())
    assert mask in orbit
    assert to_edge_mask(relabel(from_edge_mask(n, mask), perm)) in orbit
    canon, aut = orbit_minima([from_edge_mask(n, mask).adj], n)
    assert least_masks(canon).tolist() == [min(orbit)]
    assert aut.tolist() == [math.factorial(n) // len(orbit)]


def test_t28_near_tie_decided_by_exact_recheck(monkeypatch):
    monkeypatch.setattr(verify, "EXACT_RECHECK_BELOW", 10.0)
    rep = verify.check_theorem("2.8", 6)
    assert any("exact char-poly re-check" in note for note in rep.notes)
    assert rep.status == "confirmed"
    # an exact tie with a runner-up overrides the float margin
    monkeypatch.setattr(verify, "certify_root_orders", lambda pairs, side, seeds=None: [0] * len(pairs))
    rep = verify.check_theorem("2.8", 6)
    assert rep.margin > verify.STRICT_MARGIN
    assert rep.status == "refuted"


@pytest.mark.parametrize("tid,n", [("2.4", 6), ("3.7", 7)])
def test_strict_bound_near_tie_decided_by_exact_recheck(monkeypatch, tid, n):
    monkeypatch.setattr(verify, "EXACT_RECHECK_BELOW", 10.0)
    rep = verify.check_theorem(tid, n)
    assert any("exact char-poly re-check of witness graphs" in note for note in rep.notes)
    assert rep.status == "confirmed"
    # a witness tying the bound exactly overrides the float margin
    monkeypatch.setattr(verify, "certify_root_orders", lambda pairs, side, seeds=None: [0] * len(pairs))
    rep = verify.check_theorem(tid, n)
    assert rep.margin > verify.STRICT_MARGIN
    assert rep.status == "refuted"


def test_t313_tie_decided_by_exact_order(monkeypatch):
    lc = build_L(4, 3)
    values = {"l1": [_spectrum(lc).lambda1],
              "ln": [_spectrum(lc).lambda_n]}
    rep = verify.check_theorem_on_values("3.13", 7, [lc], values)
    assert rep.status == "confirmed" and rep.margin == 0
    assert any("gives orders [0]" in note for note in rep.notes)
    # an exact overshoot refutes although the float values tie
    monkeypatch.setattr(verify, "certify_root_orders", lambda pairs, side, seeds=None: [1] * len(pairs))
    rep = verify.check_theorem_on_values("3.13", 7, [lc], values)
    assert rep.status == "refuted"
    assert rep.counterexamples == [to_graph6(lc)]


@pytest.mark.parametrize("n", [7, 8])
def test_L_is_told_by_its_structure_as_by_isomorphism(n):
    p, q = verify._balanced_pq(n)
    bound = build_L(p, q)
    reps = _class_representatives(n)
    told = [g for g in reps if verify._is_L(g, p, q)]
    assert told == [g for g in reps if is_isomorphic(g, bound)] and len(told) == 1
    others = [build_Lprime(n), build_Ldprime(n), build_B1(p, q), build_path(n)]
    assert not any(verify._is_L(g, p, q) for g in others)


def test_L_is_told_above_the_isomorphism_cap():
    rng = random.Random(13)
    for n in range(7, 30):
        p, q = verify._balanced_pq(n)
        g = build_L(p, q)
        assert verify._is_L(g, p, q)
        assert verify._is_L(relabel(g, rng.sample(range(n), n)), p, q), n
        # the bridge moved off the missing edge, and a lopsided L, are not L(p, q)
        moved = from_edges(n, [e for e in g.edges() if e != (1, p)] + [(2, p)])
        assert not verify._is_L(relabel(moved, rng.sample(range(n), n)), p, q), n
        assert not verify._is_L(build_L(p + 1, q - 1), p, q), n


def _class_representatives(n: int) -> list:
    return [from_edge_mask(n, int(m)) for m in verify._classes(n).reps]


def _pairwise_isomorphic(a: list[str], b: list[str]) -> bool:
    return len(a) == len(b) and all(
        is_isomorphic(from_graph6(x), from_graph6(y)) for x, y in zip(a, b))


@pytest.mark.parametrize("n,tids", [(6, ("2.4", "2.8")), (7, ("2.4", "2.8", "3.7", "3.13"))])
def test_sample_of_every_class_gives_the_exhaustive_verdict(n, tids):
    graphs = _class_representatives(n)
    assert len(graphs) == {6: 9, 7: 92}[n]
    spectra = [_spectrum(g) for g in graphs]
    values = {"l1": [s.lambda1 for s in spectra], "ln": [s.lambda_n for s in spectra]}
    for tid in tids:
        want = verify.check_theorem(tid, n)
        got = verify.check_theorem_on_values(tid, n, graphs, values)
        assert got.status == want.status, tid
        assert got.notes == want.notes, tid
        assert got.extremal.keys() == want.extremal.keys()
        for key, v in want.extremal.items():
            assert got.extremal[key] == pytest.approx(v, abs=1e-9), (tid, key)
        assert got.margin == pytest.approx(want.margin, abs=1e-9), tid
        assert _pairwise_isomorphic(got.witnesses, want.witnesses), tid
        assert _pairwise_isomorphic(got.counterexamples, want.counterexamples), tid


@pytest.mark.parametrize("n,classes,labeled", [(5, 1, 60), (6, 9, 3240), (7, 92, 224280)])
def test_orbit_partition_sizes(n, classes, labeled):
    part = verify._classes(n)
    ref = _ref_class_record(n)
    assert len(part.reps) == len(part.sizes) == classes
    assert int(part.sizes.sum()) == len(ref["masks"]) == labeled
    assert all(math.factorial(n) % int(s) == 0 for s in part.sizes)
    # each representative is the smallest member of its class, and owns it
    for k, r in enumerate(part.reps):
        members = ref["masks"][ref["index"] == k]
        assert len(members) == part.sizes[k] and members[0] == r
        assert members.tolist() == np.unique(_ref_orbit_masks(n, r)).tolist()


def _cluster_reference(values: np.ndarray, masks: np.ndarray, mode: str) -> dict | None:
    if values.size == 0:
        return None
    v = values.min() if mode == "min" else values.max()
    inside = np.abs(values - v) <= verify.CLUSTER_TOL
    rest = values[~inside]
    runner = None if rest.size == 0 else rest.min() if mode == "min" else rest.max()
    return {"value": v, "masks": sorted(masks[inside].tolist()), "runner_up": runner}


def _labeled_reference(n: int) -> dict:
    """class_scan's spectral fields from eigh on every labeled survivor."""
    masks = np.array(sorted(_slow_class_masks(n)), dtype=np.uint32)
    d = np.array([distance_matrix(complement(from_edge_mask(n, int(m)))) for m in masks],
                 dtype=np.float64)
    w, vecs = np.linalg.eigh(d)
    x = vecs[:, :, 0]
    q = np.minimum((x < -verify.ZERO_TOL).sum(axis=1), (x > verify.ZERO_TOL).sum(axis=1))
    return {
        "objectives": {name: _cluster_reference(w[:, col], masks, name[:3])
                       for name, col in (("min_l1", -1), ("max_l1", -1),
                                         ("min_ln", 0), ("max_ln", 0))},
        "q_hist": {int(k): int((q == k).sum()) for k in np.unique(q)},
        "degenerate": int((w[:, 1] - w[:, 0] < verify.DEGENERATE_GAP).sum()),
        "q1_count": int((q == 1).sum()),
        "q1_masks": masks[q == 1].tolist(),
        "q1_max_ln": _cluster_reference(w[q == 1, 0], masks[q == 1], "max"),
    }


def _class_members(part, ids) -> list[int]:
    """The labeled members of the classes `ids`, ascending, from the labeled scan."""
    ref = _ref_class_record(part.n)
    return sorted(m for k in ids for m in ref["masks"][ref["index"] == k].tolist())


def _assert_cluster_matches(part, values, ids, runner_up, want: dict | None):
    """The classes `ids` expand to the labeled reference cluster `want`."""
    if want is None:
        assert len(ids) == 0
        return
    assert _class_members(part, ids) == want["masks"]
    assert all(values[k] == pytest.approx(want["value"], abs=1e-12) for k in ids)
    if want["runner_up"] is None:
        assert runner_up is None
    else:
        assert runner_up == pytest.approx(want["runner_up"], abs=1e-12)


@pytest.mark.parametrize("n", [5, 6])
def test_class_scan_equals_labeled_reference(n):
    scan = verify.class_scan(n)
    part = verify._classes(n)
    ref = _ref_class_record(n)
    want = _labeled_reference(n)
    for name, cluster in want["objectives"].items():
        rep = scan_extremal(n, name)
        ids = [int(ref["index"][np.searchsorted(ref["masks"], to_edge_mask(from_graph6(w)))])
               for w in rep.witnesses]
        values = part.l1 if name.endswith("l1") else part.ln
        assert rep.extremal[name] == pytest.approx(cluster["value"], abs=1e-12)
        _assert_cluster_matches(part, values, ids, rep.details["runner_up"], cluster)
        assert rep.details["labeled_witnesses"] == len(cluster["masks"])
    # q1 counts each class's labeled members with q = 1
    for k in range(len(part.reps)):
        members = set(_class_members(part, [k]))
        assert part.q1[k] == len(members.intersection(want["q1_masks"]))
    # so the q = 1 cluster over classes expands to the labeled one
    q1_ids = np.flatnonzero(part.q1)
    q1_max = verify._cluster(part.ln[q1_ids], q1_ids, "max") or {"pairs": [], "runner_up": None}
    _assert_cluster_matches(part, part.ln, [k for _, k in q1_max["pairs"]],
                            q1_max["runner_up"], want["q1_max_ln"])
    for key in ("q_hist", "degenerate", "q1_count"):
        assert scan[key] == want[key], key


def test_degenerate_classes_are_left_out_of_the_q_counts(monkeypatch):
    # q is not defined where the least eigenvalue is repeated: with every
    # least eigenvalue degenerate, and every eigenvector read as q = 1,
    # every class leaves the q counts, and 3.9 says how many graphs it left out
    monkeypatch.setattr(verify, "_SCAN_CACHE", {})
    solve = verify._least_split

    def degenerate_q1(values, vectors):
        q, _ = solve(values, vectors)
        return np.ones_like(q), np.ones(len(values), dtype=bool)

    monkeypatch.setattr(verify, "_least_split", degenerate_q1)
    for n, count in ((6, 3240), (7, 224280)):
        scan = verify.class_scan(n)
        assert scan["degenerate"] == scan["count"] == count
        assert scan["q_hist"] == {} and scan["q1_count"] == 0
        assert not verify._classes(n).q1.any()
    monkeypatch.setattr(verify, "_least_split", solve)
    rep = verify.run_claim("3.9", n=7)
    assert rep.notes[:3] == [
        "q histogram at n=7: {}",
        "224280 graphs with a repeated least eigenvalue, where q is not defined, "
        "are left out of the q counts",
        "no diameter>3 graph on 7 vertices has q = 1: the q=1 claim is vacuous at this order"]
    # where every least eigenvalue is simple, the counts are the labeled ones
    # and 3.9 prints no such note
    monkeypatch.setattr(verify, "_SCAN_CACHE", {})
    scan = verify.class_scan(6)
    want = _labeled_reference(6)
    assert scan["degenerate"] == want["degenerate"] == 0
    assert scan["q_hist"] == want["q_hist"] and scan["q1_count"] == want["q1_count"]
    assert not any("repeated least eigenvalue" in note
                   for note in verify.run_claim("3.9", n=7).notes)


@settings(max_examples=40)
@given(st.data())
def test_relabeled_survivor_stays_in_its_class(data):
    ref = _ref_class_record(7)
    masks, index = ref["masks"], ref["index"]
    i = data.draw(st.integers(min_value=0, max_value=len(masks) - 1))
    perm = data.draw(st.permutations(range(7)))
    image = to_edge_mask(relabel(from_edge_mask(7, int(masks[i])), perm))
    j = int(np.searchsorted(masks, image))
    assert masks[j] == image
    assert index[j] == index[i]


def test_near_tie_recheck_solves_one_graph_per_class(monkeypatch):
    monkeypatch.setattr(verify, "EXACT_RECHECK_BELOW", 10.0)
    calls = []
    real = verify.certify_root_orders
    monkeypatch.setattr(verify, "certify_root_orders",
                        lambda pairs, side, seeds: calls.extend(pairs) or real(pairs, side, seeds))
    rep = verify.check_theorem("2.8", 6)
    assert rep.status == "confirmed"
    # the runner-up value is one class of 360 labeled graphs
    assert len(calls) == 1


def test_lemma_2_5_example_pair_is_an_edge_deletion():
    rep = verify.run_claim("2.5", n=6)
    g, h = (from_graph6(text) for text in rep.details["example_pair"])
    removed = to_edge_mask(g) ^ to_edge_mask(h)
    assert to_edge_mask(h) & removed == 0 and bin(removed).count("1") == 1
    assert diameter(g) > 3 and diameter(h) > 3
    gap = (_spectrum(g).lambda1
           - _spectrum(h).lambda1)
    assert gap == pytest.approx(rep.margin, abs=1e-12)


def test_witnesses_list_every_class_of_the_cluster(monkeypatch):
    part = verify._classes(7)
    monkeypatch.setattr(verify, "CLUSTER_TOL", math.inf)
    rep = scan_extremal(7, "max_ln")
    want = [to_graph6(from_edge_mask(7, m))
            for _, m in sorted(zip(part.ln.tolist(), part.reps.tolist()))]
    assert len(want) == 92
    assert rep.witnesses == want
    assert rep.details["labeled_witnesses"] == 224280


def test_lemma_3_9_q1_class_above_the_bound_refutes(monkeypatch):
    # no class has q = 1 for n <= 8, so mark the max-lambda_n class as one
    part = verify._classes(7)
    k = int(np.argmax(part.ln))
    q1 = np.zeros_like(part.q1)
    q1[k] = part.sizes[k]
    monkeypatch.setitem(verify._SCAN_CACHE, 7, verify._Classes(
        part.n, part.reps, part.sizes, part.l1, part.ln, q1, part.summary))
    rep = verify.run_claim("3.9", n=7)
    assert rep.status == "refuted"
    assert rep.counterexamples == [to_graph6(from_edge_mask(7, int(part.reps[k])))]
    assert rep.details["q1_count"] == part.sizes[k]
    assert rep.margin == pytest.approx(rep.extremal["ln_Lprime_c"] - part.ln[k], abs=1e-12)
    assert rep.margin < 0


# --- the labeled scan, as an oracle for the generator --------------------------
# The labeled path that built the class record and Lemma 2.1's diameter-3 half
# before they were generated: filter every labeled mask block by block, then
# partition the class members into S_n orbits.

_REF_MASK_BLOCK = 1 << 18


def _ref_mask_blocks(n: int):
    """Every edge mask on n vertices, ascending, in blocks of _REF_MASK_BLOCK."""
    total = 1 << (n * (n - 1) // 2)
    for lo in range(0, total, _REF_MASK_BLOCK):
        yield np.arange(lo, min(total, lo + _REF_MASK_BLOCK), dtype=np.uint32)


@functools.cache
def _ref_perm_edge_table(n: int) -> np.ndarray:
    """Row k maps each edge index to its image under the k-th permutation of S_n."""
    pairs = np.array(g6_pairs(n)).T
    perms = np.array(list(permutations(range(n))), dtype=np.int64)
    a, b = perms[:, pairs[0]], perms[:, pairs[1]]
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    return (hi * (hi - 1) // 2 + lo).astype(np.uint32)


def _ref_orbit_masks(n: int, mask) -> np.ndarray:
    table = _ref_perm_edge_table(n)
    bits = (np.uint32(mask) >> np.arange(table.shape[1], dtype=np.uint32)) & np.uint32(1)
    return (bits << table).sum(axis=1, dtype=np.uint32)


def test_orbit_minima_equal_the_int64_reference():
    # every graph on up to 5 vertices, and 300 random ones on 6, 7 and 8
    rng = random.Random(5)
    for n in range(2, 9):
        edges = n * (n - 1) // 2
        masks = range(1 << edges) if n <= 5 else [rng.randrange(1 << edges) for _ in range(300)]
        canon, aut = orbit_minima([from_edge_mask(n, m).adj for m in masks], n)
        assert canon.dtype == np.uint16 and canon.shape == (len(masks), n - 1)
        assert aut.dtype == np.int64
        minima = least_masks(canon)
        assert minima.dtype == np.uint64
        orbits = [np.unique(_ref_orbit_masks(n, m)) for m in masks]
        assert minima.tolist() == [int(o[0]) for o in orbits], n
        assert (math.factorial(n) // aut).tolist() == [len(o) for o in orbits], n


@settings(max_examples=200)
@given(st.data())
def test_orbit_minimum_is_the_least_relabeling(data):
    n = data.draw(st.integers(min_value=2, max_value=8))
    mask = data.draw(st.integers(min_value=0, max_value=(1 << (n * (n - 1) // 2)) - 1))
    perm = data.draw(st.permutations(range(n)))
    g = from_edge_mask(n, mask)
    orbit = np.unique(_ref_orbit_masks(n, mask))
    canon, aut = orbit_minima([g.adj, relabel(g, perm).adj], n)
    assert least_masks(canon).tolist() == [int(orbit[0])] * 2
    assert aut.tolist() == [math.factorial(n) // len(orbit)] * 2


def _complete_bipartite(p: int, q: int):
    return from_edges(p + q, [(u, p + v) for u in range(p) for v in range(q)])


@pytest.mark.parametrize("n", range(1, 11))
def test_orbit_minima_of_twin_heavy_graphs(n):
    # all vertices twins (K_n, the empty graph), all leaves twins (the star),
    # and two twin classes (K_{p,q}), with |Aut| known in closed form
    full = (1 << (n * (n - 1) // 2)) - 1
    graphs = [(from_edge_mask(n, full), math.factorial(n), full),
              (from_edge_mask(n, 0), math.factorial(n), 0)]
    if n >= 3:
        graphs.append((from_edges(n, [(0, v) for v in range(1, n)]), math.factorial(n - 1), None))
    for p in range(1, n // 2 + 1):
        q = n - p
        aut = math.factorial(p) * math.factorial(q) * (2 if p == q else 1)
        graphs.append((_complete_bipartite(p, q), aut, None))
    rng = random.Random(n)
    for g, aut, least in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        canon, auts = orbit_minima([g.adj, relabel(g, perm).adj], n)
        minima = least_masks(canon)
        assert auts.tolist() == [aut, aut]
        assert minima[0] == minima[1]
        if least is not None:
            assert minima[0] == least
        if 2 <= n <= 8:
            assert minima[0] == _ref_orbit_masks(n, to_edge_mask(g)).min()


@pytest.mark.parametrize("family,params", [
    ("H", (1, 2)), ("H", (2, 3)), ("H", (3, 5)), ("H", (4, 4)),
    ("B1", (3, 2)), ("B1", (4, 3)), ("B1", (5, 4)), ("B1", (5, 5)),
    ("L", (4, 3)), ("L", (4, 4)), ("L", (5, 4)), ("L", (5, 5)),
    ("Lprime", (7,)), ("Lprime", (8,)), ("Lprime", (9,)), ("Lprime", (10,)),
])
def test_orbit_minima_of_the_families_under_relabeling(family, params):
    (g,) = build_many([(family, params)])
    rng = random.Random(g.n)
    copies = [g]
    for _ in range(6):
        perm = list(range(g.n))
        rng.shuffle(perm)
        copies.append(relabel(g, perm))
    canon, aut = orbit_minima([h.adj for h in copies], g.n)
    minima = least_masks(canon)
    assert len(set(minima.tolist())) == 1 and len(set(aut.tolist())) == 1
    assert minima[0] <= min(to_edge_mask(h) for h in copies)
    # the graph the minimum encodes is a labeling of g, so its minimum is itself
    canon, _ = orbit_minima([from_edge_mask(g.n, int(minima[0])).adj], g.n)
    assert least_masks(canon)[0] == minima[0]
    if g.n <= 8:
        orbit = np.unique(_ref_orbit_masks(g.n, to_edge_mask(g)))
        assert minima[0] == orbit[0] and math.factorial(g.n) // aut[0] == len(orbit)


def _ref_complement_distances(masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The adjacency stack of each mask and D(G^c) by BFS on the complements,
    4096 graphs per `distance_matrices` call."""
    adj = verify._mask_stack(masks, n)
    comp = 1 - np.eye(n, dtype=np.int64) - adj
    return adj, np.concatenate([comp[:0], *(distance_matrices(comp[i:i + 4096])
                                            for i in range(0, len(comp), 4096))])


def _ref_filter_block(n: int, masks: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """One block's class members and their Lemma 2.1 identity violations."""
    masks = masks[verify._class_keep(verify._adj_rows(masks, n), n)]
    adj, d = _ref_complement_distances(masks, n)
    assert d.min(initial=0) >= 0 and d.max(initial=0) <= 3
    holds = np.all(d == 1 - np.eye(n, dtype=np.int64) + adj, axis=(1, 2))
    return masks, [int(m) for m in masks[~holds]]


_REF_FREE_BLOCK = 1 << 14


def _ref_orbit_partition(masks: np.ndarray, n: int):
    """S_n orbits of the sorted class masks: (reps, index, sizes)."""
    index = np.full(len(masks), -1, dtype=np.int32)
    reps: list[int] = []
    sizes: list[int] = []
    k = 0
    while k < len(masks):
        free = np.flatnonzero(index[k:k + _REF_FREE_BLOCK] < 0)
        if free.size == 0:
            k += _REF_FREE_BLOCK
            continue
        k += int(free[0])
        orbit = np.unique(_ref_orbit_masks(n, masks[k]))
        pos = np.searchsorted(masks, orbit)
        assert pos[-1] < len(masks) and np.array_equal(masks[pos], orbit)
        index[pos] = len(reps)
        reps.append(int(masks[k]))
        sizes.append(len(orbit))
    assert sum(sizes) == len(masks)
    return np.array(reps, dtype=np.uint32), index, np.array(sizes, dtype=np.int64)


@functools.cache
def _ref_class_record(n: int) -> dict:
    """Every _Classes field and the summary, from the labeled scan."""
    chunks = [_ref_filter_block(n, masks) for masks in _ref_mask_blocks(n)]
    masks = np.concatenate([m for m, _ in chunks])
    reps, index, sizes = _ref_orbit_partition(masks, n)
    w, vectors = np.linalg.eigh(_ref_complement_distances(reps, n)[1].astype(np.float64))
    q, degenerate = verify._least_split(w, vectors)
    # q counts only the classes whose least eigenvalue is simple
    hist = Counter({int(v): int(sizes[(q == v) & ~degenerate].sum()) for v in q[~degenerate]})
    q1 = np.where((q == 1) & ~degenerate, sizes, 0)
    return {
        "masks": masks, "index": index, "reps": reps, "sizes": sizes,
        "l1": w[:, -1], "ln": w[:, 0], "q1": q1,
        "summary": {
            "n": n,
            "count": len(masks),
            "lemma21_violations": sorted({int(reps[index[np.searchsorted(masks, v)]])
                                          for _, bad in chunks for v in bad}),
            "q_hist": dict(sorted(hist.items())),
            "degenerate": int(sizes[degenerate].sum()),
            "q1_count": int(q1.sum()),
        },
    }


@pytest.mark.parametrize("n", [5, 6, 7])
def test_generated_classes_equal_the_labeled_scan(n):
    want = _ref_class_record(n)
    part = verify._classes(n)
    for name in ("reps", "sizes", "l1", "ln", "q1"):
        got = getattr(part, name)
        assert got.dtype == want[name].dtype, name
        assert got.tobytes() == want[name].tobytes(), name
    # the class orbits, merged, are the labeled members, and each orbit is
    # the labeled scan's class of its representative
    orbits = [np.unique(_ref_orbit_masks(n, r)) for r in part.reps]
    members = np.sort(np.concatenate(orbits))
    assert members.dtype == want["masks"].dtype
    assert members.tobytes() == want["masks"].tobytes()
    for k, orbit in enumerate(orbits):
        assert np.all(want["index"][np.searchsorted(want["masks"], orbit)] == k)
    assert part.summary == want["summary"]


def test_generated_classes_n8():
    part = verify._classes(8)
    assert len(part.reps) == len(part.sizes) == 1165
    assert np.all(part.reps[1:] > part.reps[:-1])
    assert all(math.factorial(8) % int(s) == 0 for s in part.sizes)
    assert int(part.sizes.sum()) == part.summary["count"] == 25_130_280
    # the labeled count, read from the class record as the benchmark's tracer reads it
    assert verify.enumerate_diam_gt3(n=8) == 25_130_280
    # each representative is the smallest member of its orbit, which has sizes[k] members
    for r, s in zip(part.reps[::50], part.sizes[::50]):
        orbit = np.unique(_ref_orbit_masks(8, r))
        assert orbit[0] == r and len(orbit) == s


def test_lemma21_violation_lists_the_class_representative(monkeypatch):
    # break D(G^c) on the paths P6 only: the identity is checked on P6's
    # class representative alone, which the violations list, and the
    # count covers all 360 labelings
    real = verify.complement_spectra
    flagged = []

    def broken(adj):
        d, values, vectors = real(adj)
        degrees = adj.sum(axis=2)
        path = (degrees.max(axis=1) <= 2) & (degrees.sum(axis=1) == 2 * (adj.shape[-1] - 1))
        flagged.append(int(path.sum()))
        d[path, 0, 1] += 1
        return d, values, vectors

    monkeypatch.setattr(verify, "_SCAN_CACHE", {})
    monkeypatch.setattr(verify, "complement_spectra", broken)
    scan = verify.class_scan(6)
    p6 = {to_edge_mask(relabel(build_path(6), perm)) for perm in permutations(range(6))}
    assert len(p6) == 360
    assert scan["lemma21_violations"] == [min(p6)]
    assert flagged == [1]                       # one class representative
    rep = verify.run_claim("2.1", n=6)
    assert rep.status == "refuted" and rep.details["identity_violations"] == 360
    assert rep.counterexamples == [to_graph6(from_edge_mask(6, min(p6)))]


def _ref_diam3_block(n: int, masks: np.ndarray) -> tuple[int, int, list[int]]:
    """One block's diameter-exactly-3 graphs: how many have a complement of
    diameter <= 3, how many do not, and which of the former violate
    D(G^c) >= J - I + A(G) entrywise."""
    full = np.uint8((1 << n) - 1)
    adj = verify._adj_rows(masks, n)
    b2 = verify._ball_radius(adj, n, 2)
    b3 = verify._expand_all(b2, adj, n)
    # every radius-3 ball full already implies connected
    diam3 = ((np.bitwise_and.reduce(b3, axis=0) == full)
             & (np.bitwise_and.reduce(b2, axis=0) != full))
    masks = masks[diam3]
    adj, d = _ref_complement_distances(masks, n)
    covered = (d.min(axis=(1, 2), initial=0) >= 0) & (d.max(axis=(1, 2), initial=0) <= 3)
    masks, adj, d = masks[covered], adj[covered], d[covered]
    ok = np.all(d >= 1 - np.eye(n, dtype=np.int64) + adj, axis=(1, 2))
    return len(masks), int((~covered).sum()), [int(m) for m in masks[~ok]]


@functools.cache
def _ref_diam3_scan(n: int) -> dict:
    """Lemma 2.1's diameter-3 half over every labeled graph."""
    blocks = [_ref_diam3_block(n, masks) for masks in _ref_mask_blocks(n)]
    bad = [m for _, _, violating in blocks for m in violating]
    return {
        "count": sum(count for count, _, _ in blocks),
        "violations": sorted({int(_ref_orbit_masks(n, m).min()) for m in bad}),
        "labeled_violations": len(bad),
        "complement_not_small": sum(not_small for _, not_small, _ in blocks),
    }


@pytest.mark.parametrize("n,count", [(5, 300), (6, 12540), (7, 965520)])
def test_diameter_3_half_equals_the_labeled_scan(n, count):
    want = _ref_diam3_scan(n)
    assert want["count"] == count
    assert lemmas._lemma21_diam3_scan(n) == want
    rep = verify.run_claim("2.1", n=n)
    assert rep.details["diam3_count"] == count
    assert rep.details["diam3_complement_exceptions"] == want["complement_not_small"]
    assert rep.details["inequality_violations"] == want["labeled_violations"]


def test_lemma21_inequality_violation_lists_the_class_representative(monkeypatch):
    # break D(G^c) >= J - I + A(G) on the 6-cycles only, the 2-regular
    # diameter-3 graphs on six vertices: one class is checked, the
    # violations list its representative, and the count covers all 60 of
    # its labelings
    real = lemmas.complement_distances
    flagged = []

    def broken(adj):
        d = real(adj)
        cycle = np.all(adj.sum(axis=2) == 2, axis=1)
        flagged.append(int(cycle.sum()))
        d[cycle, 0, 1] = 0
        return d

    monkeypatch.setattr(lemmas, "complement_distances", broken)
    c6 = from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
    c6s = {to_edge_mask(relabel(c6, perm)) for perm in permutations(range(6))}
    assert len(c6s) == 60
    scan = lemmas._lemma21_diam3_scan(6)
    assert flagged == [1]
    assert scan["violations"] == [min(c6s)] and scan["labeled_violations"] == 60
    assert scan["count"] == 12540 and scan["complement_not_small"] == 0
    rep = verify.run_claim("2.1", n=6)
    assert rep.status == "refuted" and rep.details["inequality_violations"] == 60
    assert rep.counterexamples == [to_graph6(from_edge_mask(6, min(c6s)))]


def _ref_lemma_2_5(n: int) -> dict:
    """Lemma 2.5's counts over every labeled pair (G, G - e) of class members,
    each graph's lambda_1 read from its class in the labeled scan."""
    ref = _ref_class_record(n)
    masks, l1 = ref["masks"], ref["l1"][ref["index"]]
    graph, edge, minus = [], [], []
    for e in range(n * (n - 1) // 2):
        bit = np.uint32(1 << e)
        g = masks[(masks & bit) != 0]
        g2 = g ^ bit
        keep = masks[np.minimum(np.searchsorted(masks, g2), len(masks) - 1)] == g2
        graph += g[keep].tolist()
        edge += [e] * int(keep.sum())
        minus += g2[keep].tolist()
    order = np.lexsort((edge, graph))          # pairs in (mask, edge) order
    graph, minus = np.array(graph)[order], np.array(minus)[order]
    gap = l1[np.searchsorted(masks, graph)] - l1[np.searchsorted(masks, minus)]
    tie = np.abs(gap) <= verify.CLUSTER_TOL
    rev = ~tie & (gap > 0)
    k = np.flatnonzero(rev)[np.argmin(gap[rev])]
    return {"pairs": len(graph), "ties": int(tie.sum()), "reversed": int(rev.sum()),
            "margin": gap[k],
            "example_pair": (to_graph6(from_edge_mask(n, int(graph[k]))),
                             to_graph6(from_edge_mask(n, int(minus[k]))))}


@pytest.mark.parametrize("n", [6, 7])
def test_lemma_2_5_equals_the_labeled_pair_walk(n):
    want = _ref_lemma_2_5(n)
    rep = verify.run_claim("2.5", n=n)
    stated = want["pairs"] - want["ties"] - want["reversed"]
    assert rep.notes[0] == (
        f"measured on {want['pairs']} (G, G-e) pairs with d(G-e)>3: "
        f"lambda_1(G^c) > lambda_1((G-e)^c) in {want['reversed']}, "
        f"ties {want['ties']}, stated direction {stated}")
    assert rep.margin == want["margin"]
    assert rep.details["example_pair"] == want["example_pair"]


def test_lemma_2_6_equals_every_spanning_tree_by_brute_force():
    # every 5-edge subset of each class representative that is a tree
    n = 6
    part = verify._classes(n)
    margin, bad = math.inf, []
    for r, v in zip(part.reps.tolist(), part.l1.tolist()):
        g = from_edge_mask(n, r)
        trees = [t for sub in combinations(g.edges(), n - 1)
                 if is_connected(t := from_edges(n, list(sub)))]
        if g.edge_count() == n - 1:
            continue
        gap = v - max(_spectrum(t).lambda1 for t in trees)
        margin = min(margin, gap)
        if gap <= verify.CLUSTER_TOL:
            bad.append(to_graph6(g))
    rep = verify.run_claim("2.6", n=n)
    assert rep.status == "confirmed" and rep.counterexamples == bad == []
    assert rep.margin == pytest.approx(margin, abs=1e-12)
    assert rep.notes == ["every spanning tree of all 3240 graphs; "
                         "equality only when G is its own tree"]
    assert rep.params == {"n": n}


def test_lemma_2_6_refutes_when_trees_rise_above_their_graphs(monkeypatch):
    # lift every tree class above every other class: each non-tree class is
    # a counterexample, and the margin is the least gap, now negative
    part = verify._classes(6)
    trees = np.array([bin(m).count("1") == 5 for m in part.reps.tolist()])
    l1 = np.where(trees, part.l1.max() + 1, part.l1)
    monkeypatch.setitem(verify._SCAN_CACHE, 6, verify._Classes(
        part.n, part.reps, part.sizes, l1, part.ln, part.q1, part.summary))
    rep = verify.run_claim("2.6", n=6)
    assert rep.status == "refuted"
    assert rep.counterexamples == [to_graph6(from_edge_mask(6, int(m)))
                                   for m in part.reps[~trees]]
    assert rep.margin == float(part.l1[~trees].min() - part.l1.max() - 1)
    # a tree that ties its graph refutes too, since equality is allowed only
    # when G is its own tree: move every tree class to the least non-tree
    # lambda_1, which only that class's graph then ties
    k = int(np.argmin(np.where(trees, np.inf, part.l1)))
    l1 = np.where(trees, part.l1[k], part.l1)
    monkeypatch.setitem(verify._SCAN_CACHE, 6, verify._Classes(
        part.n, part.reps, part.sizes, l1, part.ln, part.q1, part.summary))
    rep = verify.run_claim("2.6", n=6)
    assert rep.status == "refuted" and rep.margin == 0
    assert rep.counterexamples == [to_graph6(from_edge_mask(6, int(part.reps[k])))]


def test_lemmas_2_5_and_2_6_at_n8():
    rep = verify.run_claim("2.5", n=8)
    assert rep.status == "confirmed-with-reversed-direction"
    assert rep.notes[0].startswith("measured on 220513440 (G, G-e) pairs")
    g, h = (from_graph6(text) for text in rep.details["example_pair"])
    removed = to_edge_mask(g) ^ to_edge_mask(h)
    assert to_edge_mask(h) & removed == 0 and bin(removed).count("1") == 1
    assert diameter(g) > 3 and diameter(h) > 3
    gap = (_spectrum(g).lambda1
           - _spectrum(h).lambda1)
    assert gap == pytest.approx(rep.margin, abs=1e-12)
    rep = verify.run_claim("2.6", n=8)
    assert rep.status == "confirmed" and rep.counterexamples == []
    assert rep.margin == pytest.approx(0.226120, abs=5e-7)
