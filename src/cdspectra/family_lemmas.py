"""The lemma checks of the family graphs: Lemmas 2.3, 2.7, 3.1, 3.4, 3.5,
3.6, 3.11 and 3.12, and the quotient-consistency claim.

Each reads family graphs over a parameter grid, or all trees of small
orders (Lemma 2.7), through the per-process family store
(`verify._family_spectra`), and most check the paper's difference
identities exactly in `quotients`.  None reads the class record: the
checks that do live in `lemmas`.  `verify.run_claim`, the entry point,
imports this module on the first call for one of its claims, so a class
scan never compiles these checks.  Each check returns a
VerificationReport whose status is measured, never assumed, as the
theorem checks in `verify` do.
"""

from cdspectra import quotients
from cdspectra.families import build_many, build_path
from cdspectra.graphcore import Graph, adjacency_stack, is_isomorphic, to_graph6
from cdspectra.spectra import certify_root_orders
from cdspectra.verify import (
    CLUSTER_TOL,
    STRICT_MARGIN,
    VerificationReport,
    _balanced_H,
    _balanced_pq,
    _family_spectra,
    _family_spectrum,
    complement_spectra,
)


def _lemma_2_3(n: int) -> VerificationReport:
    """Ordering of lambda_1(H^c(s,t)) as (s,t) moves toward balance."""
    if n < 6:
        # below n = 6 there is no step (s-1, t+1) -> (s, t) with 2 <= s <= t
        raise ValueError("Lemma 2.3 needs n >= 6")
    splits = [(s, n - 2 - s) for s in range(1, n - 2)]
    solved = _family_spectra(("H", st) for st in splits)
    values = {st: spec.lambda1 for st, spec in zip(splits, solved)}
    sb, tb = _balanced_H(n)
    vmax = values[(sb, tb)]
    step_ok = True
    min_step = None
    for (s, t), v in values.items():
        if 2 <= s <= t:
            gap = v - values[(s - 1, t + 1)]
            step_ok &= gap > STRICT_MARGIN
            min_step = gap if min_step is None else min(min_step, gap)
    bal_ok = all(v <= vmax + CLUSTER_TOL for v in values.values())
    ident = bool(quotients.identities_hold(quotients.check_identity_H_step, [
        (s, t) for s in range(2, 21) for t in range(1, 21)]).all())
    status = "confirmed" if step_ok and bal_ok and ident else "refuted"
    return VerificationReport(
        claim_id="2.3", status=status, params={"n": n},
        extremal={"l1_balanced": vmax},
        margin=min_step,
        notes=[
            "measured: lambda_1(H^c(s,t)) strictly increases as (s,t) approaches balance"
            f" (min step {min_step:.6g}); consistent with the balanced maximum",
            f"difference identity lambda(s-t-1)(5 lambda+4) exact on 2<=s<=20, 1<=t<=20: {ident}",
        ],
        details={"l1_by_split": {f"{s},{t}": v for (s, t), v in sorted(values.items())}},
    )


# --- tree enumeration (for Lemma 2.7) -----------------------------------------


def _ahu_key(g: Graph) -> str:
    """Canonical string for a tree: AHU encoding rooted at the center(s)."""
    centers = set(range(g.n))
    while len(centers) > 2:
        # strip every leaf of the tree that is left
        live = sum(1 << v for v in centers)
        centers -= {v for v in centers if bin(g.adj[v] & live).count("1") <= 1}

    def code(v: int, parent: int) -> str:
        parts = sorted(code(u, v) for u in range(g.n) if g.has_edge(u, v) and u != parent)
        return "(" + "".join(parts) + ")"

    return min(code(c, -1) for c in centers)


def free_trees(n: int) -> list[Graph]:
    """All unlabeled trees on n vertices, one labeled representative each."""
    trees = {"()": Graph(1, (0,))}
    for _ in range(n - 1):
        grown: dict[str, Graph] = {}
        for t in trees.values():
            for v in range(t.n):
                g2 = Graph(t.n + 1, tuple(
                    (t.adj[u] | (1 << t.n)) if u == v else t.adj[u]
                    for u in range(t.n)) + ((1 << v),))
                grown.setdefault(_ahu_key(g2), g2)
        trees = grown
    return [trees[k] for k in sorted(trees)]


def _lemma_2_7(n_max: int) -> VerificationReport:
    """lambda_1(T^c) >= lambda_1(P_n^c) over all non-star trees, 4 <= n <= n_max.

    Among trees on n vertices the star is the one with a vertex of degree
    n - 1, and the path the one of maximum degree <= 2.  Each order's
    non-star trees are solved by one `complement_spectra` call, together
    with `build_path(n)`, the bound.
    """
    bad: list[str] = []
    worst = None
    total = 0
    for n in range(4, n_max + 1):
        trees = [(t, max(map(t.degree, range(n)))) for t in free_trees(n)]
        trees = [(t, top) for t, top in trees if top < n - 1]
        l1 = complement_spectra(adjacency_stack([build_path(n)] + [t for t, _ in trees]))[1][:, -1]
        total += len(trees)
        for (t, top), gap in zip(trees, (l1[1:] - l1[0]).tolist()):
            if gap < -CLUSTER_TOL:
                bad.append(to_graph6(t))
            elif abs(gap) <= CLUSTER_TOL:
                if top > 2:
                    bad.append(to_graph6(t))
            elif worst is None or gap < worst:
                worst = gap
    if not total:
        raise ValueError("Lemma 2.7 needs n >= 4: no non-star tree was checked")
    status = "confirmed" if not bad else "refuted"
    return VerificationReport(
        claim_id="2.7", status=status, params={"n_max": n_max},
        margin=worst, counterexamples=bad,
        notes=[f"{total} non-star trees checked; equality exactly at P_n"],
    )


def _grid_reports(pairs, fn) -> tuple[list[dict], float | None, list[dict]]:
    if not pairs:
        raise ValueError("the parameter grid is empty")
    rows = [fn(*pq) for pq in pairs]
    worst = min((row["margin"] for row in rows if row["margin"] is not None), default=None)
    return rows, worst, [row for row in rows if not row["ok"]]


def _lemma_3_1(a_max: int = 9, b_max: int = 9) -> VerificationReport:
    """Chain lambda_n(T1^c) >= lambda_n(T2^c) > lambda_n(T^c(a+1,b)); a tie
    holds only where T1 and T2 are one tree, so only ties build them."""
    def point(a, b):
        t1 = _family_spectrum("T1", (a, b)).lambda_n
        t2 = _family_spectrum("T2", (a, b)).lambda_n
        t0 = _family_spectrum("T", (a + 1, b)).lambda_n
        tie = abs(t1 - t2) <= CLUSTER_TOL
        ok = (t1 - t2 > -CLUSTER_TOL) and (t2 - t0 > STRICT_MARGIN) and (
            not tie or is_isomorphic(*build_many([("T1", (a, b)), ("T2", (a, b))])))
        return {"params": (a, b), "lns": (t1, t2, t0), "tie": tie,
                "margin": min(t1 - t2 if not tie else t2 - t0, t2 - t0), "ok": ok}

    pairs = [(a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)
             if a + b + 3 <= 24]
    _family_spectra(key for a, b in pairs
                    for key in (("T1", (a, b)), ("T2", (a, b)), ("T", (a + 1, b))))
    rows, worst, bad = _grid_reports(pairs, point)
    ties = [r["params"] for r in rows if r["tie"]]
    return VerificationReport(
        claim_id="3.1", status="confirmed" if not bad else "refuted",
        params={"a_max": a_max, "b_max": b_max, "points": len(rows)},
        margin=worst,
        counterexamples=[str(r["params"]) for r in bad],
        notes=[f"equality T1=T2 at {ties}; these parameter pairs give isomorphic trees"],
    )


def _lemma_3_4(p_max: int) -> VerificationReport:
    """lambda_n(B1^c) < lambda_n(B2^c) < -3, plus the (lambda+1)-power verdict."""
    def point(p, q):
        b1 = _family_spectrum("B1", (p, q)).lambda_n
        b2 = _family_spectrum("B2", (p, q)).lambda_n
        m = min(b2 - b1, -3.0 - b2)
        return {"params": (p, q), "margin": m, "ok": m > STRICT_MARGIN,
                "lns": (b1, b2)}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)]
    _family_spectra(key for pq in pairs for key in (("B1", pq), ("B2", pq)))
    rows, worst, bad = _grid_reports(pairs, point)
    ident = bool(quotients.identities_hold(quotients.check_identity_B2_vs_B1, pairs).all())
    power = quotients.power_discrepancy_verdict(6, 4)
    status = "confirmed" if not bad and ident else "refuted"
    return VerificationReport(
        claim_id="3.4", status=status,
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[
            f"printed cubic equals varphi - (lambda+1)^1 phi exactly: {ident}",
            f"power verdict at (6,4): consistent power = {power['consistent_power']} "
            "(the (lambda+1)^2 form is positive on [lambda_n(B2^c), -3), "
            "the printed ^1 form is negative there)",
        ],
        details={"power_verdict": power},
    )


def _lemma_3_5(p_max: int) -> VerificationReport:
    """lambda_n(B1^c(p,q)) < lambda_n(T^c(n-3,1)) < -3 at n = p+q."""
    def point(p, q):
        b1 = _family_spectrum("B1", (p, q)).lambda_n
        t = _family_spectrum("T", (p + q - 3, 1)).lambda_n
        m = min(t - b1, -3.0 - t)
        return {"params": (p, q), "margin": m, "ok": m > STRICT_MARGIN}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)]
    _family_spectra(key for p, q in pairs for key in (("B1", (p, q)), ("T", (p + q - 3, 1))))
    rows, worst, bad = _grid_reports(pairs, point)
    ident = bool(quotients.identities_hold(quotients.check_identity_B1_vs_T, pairs).all())
    return VerificationReport(
        claim_id="3.5", status="confirmed" if not bad and ident else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[f"difference identity phi - psi exact on the grid: {ident}"],
    )


def _lemma_3_6(p_max: int) -> VerificationReport:
    """Balance minimizes lambda_n(B1^c); equality only at the balanced split."""
    def point(p, q):
        n = p + q
        pb, qb = _balanced_pq(n)
        v = _family_spectrum("B1", (p, q)).lambda_n
        vb = _family_spectrum("B1", (pb, qb)).lambda_n
        balanced = (p, q) == (pb, qb)
        m = v - vb
        ok = m > STRICT_MARGIN or (balanced and abs(m) <= CLUSTER_TOL)
        return {"params": (p, q), "margin": None if balanced else m, "ok": ok}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)]
    _family_spectra(key for pq in pairs for key in (("B1", pq), ("B1", _balanced_pq(sum(pq)))))
    rows, worst, bad = _grid_reports(pairs, point)
    ident = bool(quotients.identities_hold(
        quotients.check_identity_B1_step, [pq for pq in pairs if pq[0] >= 3]).all())
    return VerificationReport(
        claim_id="3.6", status="confirmed" if not bad and ident else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[f"step identity exact on the grid: {ident}"],
    )


def _lemma_3_11(p_max: int) -> VerificationReport:
    """lambda_n(L'^c(n)) < lambda_n(L^c(p,q)) at n = p+q >= 7."""
    def point(p, q):
        l = _family_spectrum("L", (p, q)).lambda_n
        lp = _family_spectrum("Lprime", (p + q,)).lambda_n
        exact = orders[p, q]
        return {"params": (p, q), "margin": l - lp, "ok": exact == 1, "exact": exact}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1) if p + q >= 7]
    solved = _family_spectra(key for p, q in pairs for key in (("L", (p, q)), ("Lprime", (p + q,))))
    # least roots of the quotient polynomials are the two lambda_n values, and
    # the store's quotient eigenvalues seed them
    polys = [(quotients.Phi_L(p, q), quotients.Psi_Lprime(p + q)) for p, q in pairs]
    seeds = dict(zip([f for pair in polys for f in pair], [s.quotient for s in solved]))
    orders = dict(zip(pairs, certify_root_orders(polys, "min", seeds)))
    rows, worst, bad = _grid_reports(pairs, point)
    ident_pts = dict(zip(pairs, quotients.identities_hold(
        quotients.check_identity_L_vs_Lprime, pairs).tolist()))
    only_q2 = all(v == (pq[1] == 2) for pq, v in ident_pts.items())
    notes = [
        "printed Phi - Psi identity matches exactly iff q = 2 "
        f"(verified across the grid: {only_q2}); derived difference kept as ground truth",
    ]
    if bad:
        p0, q0 = bad[0]["params"]
        exact = bad[0]["exact"]
        notes.append(
            f"counterexample certified exactly at ({p0},{q0}): least root of "
            f"Phi is {'below' if exact == -1 else 'not below'} the least root of Psi, "
            "so lambda_n(L^c) < lambda_n(L'^c) there and the stated inequality fails")
    return VerificationReport(
        claim_id="3.11", status="confirmed" if not bad else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p, p+q>=7", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=notes,
        details={"identity_matches": {f"{p},{q}": v for (p, q), v in sorted(ident_pts.items())}},
    )


def _lemma_3_12(p_max: int) -> VerificationReport:
    """Balance maximizes lambda_n(L^c); equality only at the balanced split."""
    def point(p, q):
        n = p + q
        pb, qb = _balanced_pq(n)
        v = _family_spectrum("L", (p, q)).lambda_n
        vb = _family_spectrum("L", (pb, qb)).lambda_n
        balanced = (p, q) == (pb, qb)
        m = vb - v
        ok = m > STRICT_MARGIN or (balanced and abs(m) <= CLUSTER_TOL)
        return {"params": (p, q), "margin": None if balanced else m, "ok": ok}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)
             if p + q >= 7 and _balanced_pq(p + q)[0] >= 4]
    _family_spectra(key for pq in pairs for key in (("L", pq), ("L", _balanced_pq(sum(pq)))))
    rows, worst, bad = _grid_reports(pairs, point)
    ident_any = bool(quotients.identities_hold(
        quotients.check_identity_L_step, [(p, q) for p, q in pairs if p > q and p >= 5]).any())
    return VerificationReport(
        claim_id="3.12", status="confirmed" if not bad else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p, p+q>=7", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[
            "printed step-difference polynomial never matches Eq.(5)'s exact difference "
            f"(any match on grid: {ident_any}); the monotonicity conclusion itself "
            + (f"fails at {bad[0]['params']}" if bad else "holds"),
        ],
    )


def _quotient_cases(orders) -> list[tuple[str, tuple[int, ...]]]:
    """The (family, params) cases of the quotient-consistency claim at the orders."""
    cases = []
    for n in orders:
        pb, qb = _balanced_pq(n)
        cases += [("H", _balanced_H(n)), ("B1", (pb, qb)), ("B2", (pb, qb)), ("T", (n,))]
        if pb >= 4:
            cases.append(("L", (pb, qb)))
        cases += [("Lprime", (n,)), ("Ldprime", (n,))]
    return cases


def _quotient_consistency_claim(orders=range(7, 21), tol: float = 1e-9) -> VerificationReport:
    reports = quotients.quotient_reports(_quotient_cases(orders), tol)
    bad = [r for r in reports if not r.ok()]
    mismatched = [r for r in reports if not r.poly_matches]
    ln_missing = [r for r in reports if not r.lambda_n_is_root]
    return VerificationReport(
        claim_id="quotient-consistency",
        status="confirmed" if not bad else "refuted",
        params={"orders": [min(orders), max(orders)], "cases": len(reports)},
        counterexamples=[f"{r.family_id}{r.params}" for r in bad],
        notes=[
            f"printed-vs-derived coefficient mismatches: "
            f"{[f'{r.family_id}{r.params}' for r in mismatched] or 'none'}",
            f"lambda_n outside quotient roots: "
            f"{[f'{r.family_id}{r.params}' for r in ln_missing] or 'never'}",
        ],
        details={"summaries": [r.summary() for r in reports]},
    )
