"""Acceptance criteria, one test per criterion, one printed line each.

Criteria 5 and the Lemma-3.11 leg of criterion 8 assert the program's
certified refutations of the paper's claims: exhaustive enumeration at n=7
finds a class member whose lambda_n strictly exceeds the balanced-L bound of
Theorem 3.13, and the L'-vs-L inequality of Lemma 3.11 fails at exactly 15
points of the grid 4<=p<=12, 2<=q<=p, (11, 4..9) and (12, 4..12), including
the balanced split (12, 12).  Both verdicts are checked against exact
characteristic-polynomial root orders, so a program that confirmed either
claim, or refuted it at the wrong points, fails here.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from cdspectra import quotients, verify
from cdspectra.families import build_B1, build_H, build_L, build_path
from cdspectra.graphcore import (
    complement,
    diameter,
    distance_matrix,
    from_edge_mask,
    from_graph6,
    is_connected,
    is_isomorphic,
)
from cdspectra.spectra import certify_root_order, char_poly_exact, sym_eigenvalues


def record(num: str, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE CRITERION {num}: {'PASS' if ok else 'FAIL'} - {desc}", flush=True)
    assert ok, f"criterion {num}: {desc}"


def _ln_of(g) -> float:
    return sym_eigenvalues(distance_matrix(complement(g)).astype(float)).lambda_n


def _l1_of(g) -> float:
    return sym_eigenvalues(distance_matrix(complement(g)).astype(float)).lambda1


def test_criterion_01_lemma21_identity_exact():
    t0 = time.time()
    ok = True
    for n in (6, 7):
        scan = verify.class_scan(n)
        ok &= scan["lemma21_violations"] == []
    elapsed = time.time() - t0
    ok &= elapsed < 60.0
    record("1", ok, f"D(G^c) = J - I + A(G) integer-exact on all diam>3 graphs, "
                    f"n=6 and n=7 ({elapsed:.1f}s)")


def test_criterion_02_theorem_2_8_minimum_at_path():
    ok = True
    msgs = []
    for n in (5, 6, 7):
        rep = verify.check_theorem("2.8", n)
        unique = (len(rep.witnesses) == 1
                  and is_isomorphic(from_graph6(rep.witnesses[0]), build_path(n)))
        margin_ok = rep.margin is None or rep.margin > 1e-9
        ok &= rep.status == "confirmed" and unique and margin_ok
        msgs.append(f"n={n} margin={'none (single class)' if rep.margin is None else f'{rep.margin:.3g}'}")
    record("2", ok, "min lambda_1(G^c) attained uniquely by P_n at n=5,6,7; " + ", ".join(msgs))


def test_criterion_03_theorem_2_4_upper_bound_strict():
    rep = verify.check_theorem("2.4", 7)
    ok = rep.status == "confirmed" and rep.margin > 1e-9
    record("3", ok, f"max lambda_1(G^c) at n=7 is {rep.extremal['max_l1']:.10g} "
                    f"< lambda_1(H^c(2,3)) = {rep.extremal['bound_l1_Hc']:.10g} "
                    f"(margin {rep.margin:.6g})")


def test_criterion_04_theorem_3_7_lower_bound_strict():
    rep = verify.check_theorem("3.7", 7)
    ok = rep.status == "confirmed" and rep.margin > 1e-9
    record("4", ok, f"min lambda_n(G^c) at n=7 is {rep.extremal['min_ln']:.10g} "
                    f"> lambda_n(B1^c(4,3)) = {rep.extremal['bound_ln_B1c']:.10g} "
                    f"(margin {rep.margin:.6g})")


def test_criterion_05_theorem_3_13_maximum_at_L():
    # the claimed maximum of lambda_n(G^c) at n=7, lambda_n(L^c(4,3)), is beaten
    # by a single class; its value is the networkx graph-atlas maximum over the
    # 92 classes of connected order-7 graphs with diameter > 3
    atlas_max_ln = -2.745174173887439
    rep = verify.check_theorem("3.13", 7)
    value, bound = rep.extremal["max_ln"], rep.extremal["ln_Lc_balanced"]
    bound_graph = build_L(4, 3)
    w = from_graph6(rep.witnesses[0]) if len(rep.witnesses) == 1 else None
    member = (w is not None and is_connected(w) and diameter(w) > 3
              and not is_isomorphic(w, bound_graph))
    values_ok = (member and abs(value - _ln_of(w)) <= 1e-9
                 and abs(value - atlas_max_ln) <= 1e-9
                 and abs(bound - _ln_of(bound_graph)) <= 1e-9)
    order = None
    if member:
        order = certify_root_order(char_poly_exact(distance_matrix(complement(w))),
                                   char_poly_exact(distance_matrix(complement(bound_graph))),
                                   "min")
    ok = rep.status == "refuted" and values_ok and order == 1
    record("5", ok, f"T3.13 refuted at n=7: witness {rep.witnesses} has max lambda_n = "
                    f"{value:.10g} > lambda_n(L^c(4,3)) = {bound:.10g}; exact least-root "
                    f"order of the char polys (witness vs L^c(4,3)) is {order}")


def test_criterion_06_quotient_consistency():
    rep = verify.run_claim("quotient-consistency")
    summaries = rep.details["summaries"]
    by_family: dict[str, int] = {}
    for s in summaries:
        if s["poly_matches_printed"]:
            by_family[s["family"]] = by_family.get(s["family"], 0) + 1
    formulas_ok = all(by_family.get(f, 0) >= 3 for f in ("H", "B1", "T", "L"))
    ok = rep.status == "confirmed" and formulas_ok
    record("6", ok, f"quotient roots within 1e-9 of full spectra and lambda_1 always a "
                    f"root across {rep.params['cases']} cases (orders 7..20); printed "
                    f"formulas match derived at >=3 grid points per family {by_family}")


def test_criterion_07_polynomial_identities_exact_or_flagged():
    grid = [(a, b) for a in range(2, 21) for b in range(2, 21)]
    exact_23 = all(quotients.check_identity_H_step(s, t).matches for s, t in grid)
    exact_35 = all(quotients.check_identity_B1_vs_T(p, q).matches for p, q in grid)
    exact_36 = all(quotients.check_identity_B1_step(p, q).matches for p, q in grid)
    exact_39 = all(quotients.check_identity_Lprime_vs_Ldprime(n).matches
                   for n in range(7, 21))
    # Lemma 3.11 and 3.12: not identities as printed; must be flagged with the
    # exact derived difference rather than silently accepted
    flag_311 = all(
        quotients.check_identity_L_vs_Lprime(p, q).matches == (q == 2)
        and (q == 2 or quotients.check_identity_L_vs_Lprime(p, q).residual != (0,))
        for p, q in grid if p >= 4 and q <= p and p + q >= 7)
    flag_312 = all(
        not quotients.check_identity_L_step(p, q).matches
        and quotients.check_identity_L_step(p, q).residual != (0,)
        for p, q in grid if p >= 5 and q <= p)
    ok = exact_23 and exact_35 and exact_36 and exact_39 and flag_311 and flag_312
    record("7", ok, "difference identities for L2.3/L3.5/L3.6/L3.9 exact as printed; "
                    "L3.11 matches only at q=2 and L3.12 never matches, both flagged "
                    "with exact derived residuals")


LEMMA_3_11_FAILURES = [(11, q) for q in range(4, 10)] + [(12, q) for q in range(4, 13)]
EXPECTED_GRID_STATUS = {"3.4": "confirmed", "3.5": "confirmed", "3.1": "confirmed",
                        "3.11": "refuted", "3.12": "confirmed"}


@pytest.mark.parametrize("claim", ["3.4", "3.5", "3.1", "3.11", "3.12"])
def test_criterion_08_inequality_grids(claim):
    rep = verify.run_claim(claim, p_max=12)
    expected = EXPECTED_GRID_STATUS[claim]
    desc = (f"lemma {claim} inequality grid 4<=p<=12, 2<=q<=p: status {rep.status} "
            f"(expected {expected}), min margin {rep.margin}")
    if claim == "3.11":
        # exact least-root order of Phi_L(p,q) vs Psi_Lprime(p+q): -1 exactly
        # where lambda_n(L^c(p,q)) < lambda_n(L'^c(p+q)), i.e. where the lemma fails
        grid = [(p, q) for p in range(4, 13) for q in range(2, p + 1) if p + q >= 7]
        orders = {pq: certify_root_order(quotients.Phi_L(*pq),
                                         quotients.Psi_Lprime(sum(pq)), "min")
                  for pq in grid}
        certified = all(orders[pq] == (-1 if pq in LEMMA_3_11_FAILURES else 1)
                        for pq in grid)
        ok = (rep.status == expected
              and rep.counterexamples == [str(pq) for pq in LEMMA_3_11_FAILURES]
              and certified)
        desc += (f"; counterexamples {rep.counterexamples}, each certified exactly "
                 f"(order -1) and every other grid point certified +1: {certified}")
    else:
        ok = rep.status == expected and rep.margin is not None and rep.margin > 1e-9
    record(f"8[{claim}]", ok, desc)


def test_criterion_09_spectral_sanity():
    exact_one = sym_eigenvalues(distance_matrix(build_path(2)).astype(float)).lambda1 == 1.0
    p4 = sym_eigenvalues(distance_matrix(build_path(4)).astype(float)).lambda_n < -3
    p5 = sym_eigenvalues(distance_matrix(build_path(5)).astype(float)).lambda_n < -5
    rng = np.random.default_rng(909)
    traces_ok = True
    for _ in range(25):
        n = int(rng.integers(2, 12))
        m = rng.integers(-4, 5, size=(n, n)).astype(float)
        m = m + m.T
        s = sym_eigenvalues(m)
        traces_ok &= abs(s.values.sum() - np.trace(m)) < 1e-9
    inter_ok = True
    trials = 0
    rng = np.random.default_rng(77)
    while trials < 1000:
        n = int(rng.integers(3, 9))
        g = from_edge_mask(n, int(rng.integers(1, 1 << (n * (n - 1) // 2))))
        try:
            d = distance_matrix(g).astype(float)
        except Exception:
            continue
        k = int(rng.integers(1, n))
        keep = sorted(rng.choice(n, size=k, replace=False).tolist())
        full = np.sort(np.linalg.eigvalsh(d))[::-1]
        part = np.sort(np.linalg.eigvalsh(d[np.ix_(keep, keep)]))[::-1]
        for i in range(k):
            inter_ok &= full[i] >= part[i] - 1e-9 and part[i] >= full[i + n - k] - 1e-9
        trials += 1
    ok = exact_one and p4 and p5 and traces_ok and inter_ok
    record("9", ok, "lambda_1(D(P2)) == 1 exactly; lambda_4(D(P4)) < -3; "
                    "lambda_5(D(P5)) < -5; eigenvalue sums match traces; "
                    "interlacing holds on 1000 random principal submatrices")


def test_criterion_10_inconsistency_ledger_verdicts():
    rep25 = verify.run_claim("2.5", n=6)
    verdict_25 = (rep25.status == "confirmed-with-reversed-direction"
                  and any("opposes its own proof" in note for note in rep25.notes))
    rep23 = verify.run_claim("2.3", n=12)
    verdict_23 = any("strictly increases" in note for note in rep23.notes)
    power = quotients.power_discrepancy_verdict(6, 4)
    verdict_34 = (power["consistent_power"] == 2
                  and power["printed_cubic_is_power1"] is True)
    ok = verdict_25 and verdict_23 and verdict_34
    record("10", ok, "measured verdicts emitted: L2.5 direction reversed (deletion "
                     "decreases lambda_1), L2.3 monotone toward balance, L3.4's "
                     "positivity claim matches the (lambda+1)^2 form on the operative range")


def test_criterion_11_determinism_across_workers():
    cmd = [sys.executable, "-m", "cdspectra.cli", "verify", "--claims", "T2.8", "--n", "7"]
    runs = []
    for workers in ("1", "8"):
        proc = subprocess.run(cmd + ["--workers", workers],
                              capture_output=True, text=True, timeout=540)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout)
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    record("11", ok, "verify --claims T2.8 --n 7 produces byte-identical JSON "
                     "with 1 and 8 workers")
