"""Quotient matrices, printed polynomials, and exact difference identities."""

import itertools

import numpy as np
import pytest

from cdspectra import family_lemmas
from cdspectra import quotients as q
from cdspectra.families import FAMILIES, build_many
from cdspectra.graphcore import complement, distance_matrix
from cdspectra.spectra import IntPolynomial, char_poly_exact

QUOTIENT_FAMILIES = ("H", "B1", "B2", "T", "L", "Lprime", "Ldprime")


def _reference_quotient(dmat, classes):
    """Class-wise row sums entry by entry, the first unequal (i, j) raising."""
    k = len(classes)
    out = np.zeros((k, k), dtype=np.int64)
    for i, ci in enumerate(classes):
        for j, cj in enumerate(classes):
            sums = {int(sum(int(dmat[r, c]) for c in cj if c != r)) for r in ci}
            if len(sums) != 1:
                raise ValueError(f"partition not equitable between classes {i} and {j}: {sums}")
            out[i, j] = sums.pop()
    return out


def _graph_quotient(family_id: str, params) -> np.ndarray:
    """`_reference_quotient` of the model graph's order-n D(X^c) over its
    cells, in printed order: the divisor matrix derived from the graph."""
    key = q.model_graph_key(family_id, params)
    (graph,) = build_many([key])
    ends = list(itertools.accumulate(FAMILIES[key[0]].sizes(*key[1]), initial=0))
    found = [list(range(a, b)) for a, b in zip(ends, ends[1:])]
    return _reference_quotient(distance_matrix(complement(graph)),
                               [found[i] for i in q._PRINTED_CELLS[family_id]])


def quotient_matrix(family_id: str, params) -> np.ndarray:
    """The family's integer divisor matrix as the package derives it from the
    pattern, asserted equal to the one derived from the graph itself.

    For H, B2, T, L and L' this reproduces the printed closed-form matrix;
    B1 and L'' have no printed matrix and are defined by their partitions.
    """
    derived = q.quotient_consistency(family_id, params).derived_matrix
    assert np.array_equal(derived, _graph_quotient(family_id, params)), (family_id, params)
    return derived


def test_quotient_matrix_H22_as_printed():
    expect = [[0, 4, 2, 1], [2, 2, 6, 1], [1, 6, 2, 2], [1, 2, 4, 0]]
    assert quotient_matrix("H", (2, 2)).tolist() == expect
    assert q.printed_quotient_matrix("H", (2, 2)).tolist() == expect


def test_quotient_matrix_T_and_Lprime_rows():
    # first row (x_u) values quoted for n = 7
    assert quotient_matrix("T", (7,))[0].tolist() == [0, 3, 8, 1]
    assert quotient_matrix("Lprime", (7,))[0].tolist() == [0, 2, 1, 1, 6]


def test_derived_equals_printed_matrices_everywhere():
    cases = [("H", (2, 3)), ("H", (4, 4)), ("B2", (4, 3)), ("B2", (6, 2)),
             ("T", (5,)), ("T", (10,)), ("L", (4, 3)), ("L", (6, 5)),
             ("Lprime", (7,)), ("Lprime", (11,))]
    for fam, params in cases:
        pm = q.printed_quotient_matrix(fam, params)
        assert np.array_equal(quotient_matrix(fam, params), pm), (fam, params)


def test_pattern_quotients_equal_the_graph_quotients():
    # every quotient-consistency case at orders 7 to 20: the quotient taken
    # from the pattern's cells is the class-wise row sums of the order-n
    # D(X^c), entry by entry
    cases = family_lemmas._quotient_cases(range(7, 21))
    reports = q.quotient_reports(cases)
    assert len(reports) == 98
    for (family, params), rep in zip(cases, reports):
        assert np.array_equal(rep.derived_matrix, _graph_quotient(family, params)), (family, params)


def test_quotient_reports_reach_orders_above_40():
    # no order limit: L(30, 30) has 60 vertices, L'(64) 64
    for family, params, order in (("L", (30, 30), 60), ("Lprime", (64,), 64)):
        rep = q.quotient_consistency(family, params)
        assert rep.order == order
        assert rep.poly_matches and rep.ok() and rep.lambda_n_is_root


def test_phi_H_values_and_symmetry():
    assert q.phi_H(2, 2).coeffs == (-20, -68, -53, -4, 1)
    for s, t in [(1, 4), (2, 7), (3, 3)]:
        assert q.phi_H(s, t).coeffs == q.phi_H(t, s).coeffs
    # derived from the actual graph at several grid points
    for s, t in [(1, 1), (2, 4), (5, 3)]:
        assert char_poly_exact(quotient_matrix("H", (s, t))).coeffs == q.phi_H(s, t).coeffs


def test_phi_B1_values_and_symmetry():
    assert q.phi_B1(4, 2).coeffs == (-28, -76, -48, -2, 1)
    assert q.phi_B1(5, 3).coeffs == q.phi_B1(3, 5).coeffs
    for p, qq in [(2, 2), (4, 3), (6, 2)]:
        assert char_poly_exact(quotient_matrix("B1", (p, qq))).coeffs == q.phi_B1(p, qq).coeffs


def test_psi_T_values():
    assert q.psi_T(7).coeffs == (-12, -50, -38, -3, 1)
    for n in range(5, 12):
        assert q.psi_T(n).coeffs[0] == -12
        assert char_poly_exact(quotient_matrix("T", (n,))).coeffs == q.psi_T(n).coeffs


def test_Psi_Lprime_zero_constant_term_is_genuine():
    assert q.Psi_Lprime(7).coeffs == (0, -20, -70, -42, -4, 1)
    for n in (7, 9, 14):
        derived = char_poly_exact(quotient_matrix("Lprime", (n,)))
        assert derived.coeffs == q.Psi_Lprime(n).coeffs
        assert derived.coeffs[0] == 0      # the quotient really has eigenvalue 0


def test_Psi2_Ldprime_matches_derived():
    for n in (7, 10, 13):
        derived = char_poly_exact(quotient_matrix("Ldprime", (n,)))
        assert derived.coeffs == q.Psi2_Ldprime(n).coeffs


def test_Phi_L_values():
    assert q.Phi_L(4, 4).coeffs == (66, 101, -14, -40, -6, 1)
    for p, qq in [(4, 3), (5, 5), (7, 2)]:
        assert char_poly_exact(quotient_matrix("L", (p, qq))).coeffs == q.Phi_L(p, qq).coeffs


def test_identity_H_step_exact_on_grid():
    # phi_{s,t} - phi_{s-1,t+1} = lambda (s-t-1)(5 lambda + 4)
    for s in range(2, 21):
        for t in range(1, 21):
            chk = q.check_identity_H_step(s, t)
            assert chk.matches, (s, t, chk.residual)


def test_identity_B1_T_B2_exact_on_grid():
    # p = 2 evaluates psi_T(4), phi_B1(1, t + 1) and varphi_B2(2, t), all outside
    # the family domains; the identities are polynomial and must hold there too
    for p in range(2, 21):
        for t in range(2, 21):
            assert q.check_identity_B2_vs_B1(p, t).matches
            assert q.check_identity_B1_vs_T(p, t).matches
            assert q.check_identity_B1_step(p, t).matches


def test_printed_polynomials_keep_family_guards():
    with pytest.raises(ValueError):
        q.phi_B1(1, 3)
    with pytest.raises(ValueError):
        q.printed_poly("B1", (1, 3))
    with pytest.raises(ValueError):
        q.psi_T(4)


def test_identity_Lprime_Ldprime_exact():
    for n in range(7, 41):
        assert q.check_identity_Lprime_vs_Ldprime(n).matches


def test_identity_L_vs_Lprime_only_q2():
    # the printed Lemma 3.11 difference is an identity exactly when q = 2
    for p in range(4, 16):
        for qq in range(2, 16):
            if p + qq < 7:
                continue
            chk = q.check_identity_L_vs_Lprime(p, qq)
            assert chk.matches == (qq == 2), (p, qq)
            if qq != 2:
                assert not chk.derived_minus_printed.is_zero()


def test_identity_L_step_never_matches():
    for p in range(5, 14):
        for qq in range(2, 14):
            chk = q.check_identity_L_step(p, qq)
            assert not chk.matches
            # residual is the honest derived-minus-printed correction
            assert chk.derived_minus_printed.degree >= 0


def _grid_claim_points(p_max: int):
    """The (p, q) points of the grid claims 3.4-3.6, 3.11 and 3.12 up to p_max."""
    pairs = [(p, qq) for p in range(4, p_max + 1) for qq in range(2, p + 1)]
    low = [(p, qq) for p, qq in pairs if p + qq >= 7]
    return {q.check_identity_B2_vs_B1: pairs, q.check_identity_B1_vs_T: pairs,
            q.check_identity_B1_step: pairs, q.check_identity_L_vs_Lprime: low,
            q.check_identity_L_step: [(p, qq) for p, qq in low if p > qq and p >= 5]}


def test_grid_wide_identity_checks_equal_the_per_point_checks():
    # each identity over a claim's whole grid in one call, on int64 columns,
    # against the per-point check on ints: the full --p-max 60 grids, the
    # Lemma 2.3 and 3.9 ranges, points outside the family domains, and
    # parameters beyond int64's exact range, which are evaluated as ints
    grids = _grid_claim_points(60)
    grids[q.check_identity_H_step] = [(s, t) for s in range(2, 21) for t in range(1, 21)]
    grids[q.check_identity_Lprime_vs_Ldprime] = [(n,) for n in range(7, 41)]
    assert len(grids[q.check_identity_L_vs_Lprime]) == 1766
    for check, points in grids.items():
        got = q.identities_hold(check, points)
        assert got.dtype == bool and got.shape == (len(points),)
        assert got.tolist() == [check(*point).matches for point in points], check.__name__
    wide = [(2**40 + 3, 2), (2**40, 2**40 + 1), (5, 2), (5, 3)]
    for check in (q.check_identity_L_vs_Lprime, q.check_identity_B1_step):
        assert q.identities_hold(check, wide).tolist() == [check(*pt).matches for pt in wide]
    assert q.identities_hold(q.check_identity_L_step, []).tolist() == []
    # a column call keeps each point's residual
    chk = q.check_identity_L_vs_Lprime(np.array([5, 6]), np.array([3, 3]))
    for k, p in enumerate((5, 6)):
        column = IntPolynomial(np.broadcast_to(c, 2)[k] for c in chk.residual)
        assert column == q.check_identity_L_vs_Lprime(p, 3).derived_minus_printed


def test_power_discrepancy_verdict():
    v = q.power_discrepancy_verdict(6, 4)
    assert v["printed_cubic_is_power1"] is True
    assert v["power1_positive_on_operative_range"] is False
    assert v["power2_positive_on_operative_range"] is True
    assert v["power2_positive_at_minus_1e6"] is False   # not positive on all of lambda < -3
    assert v["consistent_power"] == 2
    for p, qq in [(4, 2), (5, 5), (9, 3)]:
        assert q.power_discrepancy_verdict(p, qq)["consistent_power"] == 2


def test_quotient_consistency_reports():
    rep = q.quotient_consistency("H", (2, 2))
    assert rep.poly_matches and rep.matrix_matches
    assert rep.roots_matched and rep.lambda1_is_root and rep.lambda_n_is_root
    assert rep.order == 6
    rep = q.quotient_consistency("B2", (4, 3))
    assert rep.lambda_n_is_root      # least eigenvalue is a quotient root
    assert rep.roots_matched and rep.lambda1_is_root
    rep = q.quotient_consistency("B1", (4, 2))
    assert rep.printed_matrix is None and rep.matrix_matches is None
    assert rep.poly_matches
    summary = rep.summary()
    assert summary["family"] == "B1" and summary["poly_matches_printed"] is True


def test_quotient_consistency_coeff_diff_surfaced():
    # a deliberately perturbed printed polynomial must be reported, not hidden
    rep = q.quotient_consistency("H", (3, 3))
    assert rep.coeff_diff == (0,)
    perturbed = rep.derived_poly - IntPolynomial((1,))
    assert (rep.derived_poly - perturbed).coeffs == (1,)


def test_unsupported_family():
    with pytest.raises(q.UnsupportedFamily):
        quotient_matrix("T1", (2, 2))
    with pytest.raises(q.UnsupportedFamily):
        q.printed_poly("path", (5,))


def test_quotient_reports_build_a_sturm_chain_for_Lprime_12_only():
    # float seeds certify the roots of 97 of the 98 default quotient
    # polynomials; Psi_L'(12) = x^2 (x^3 - 14 x^2 - 92 x - 120) has the
    # double root 0, which no cell record holds, so only it gets a chain
    from cdspectra import spectra, verify
    spectra._squarefree_chains.cache_clear()
    assert verify.run_claim("quotient-consistency").status == "confirmed"
    info = spectra._squarefree_chains.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    # L'(12) alone asks for its chain again, and finds it cached
    lp12 = q.quotient_consistency("Lprime", (12,)).derived_poly
    assert lp12.coeffs[:3] == (0, 0, -120)
    assert spectra._squarefree_chains.cache_info().misses == 1
