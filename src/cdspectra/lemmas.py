"""The lemma checks: Lemmas 2.1 to 3.12 and the quotient-consistency claim.

`verify.check_lemma`, the entry point, imports this module on its first
call, so a run that checks only theorems, or reads a graph6 stream, never
compiles these checks or loads the `quotients` layer most of them use.
Each check returns a VerificationReport whose status is measured, never
assumed, as the theorem checks in `verify` do.
"""

from functools import lru_cache

import numpy as np

from cdspectra import quotients
from cdspectra.families import build_many, build_path
from cdspectra.graphcore import (
    Graph,
    adjacency_stack,
    from_edge_mask,
    is_isomorphic,
    orbit_minima,
    to_graph6,
)
from cdspectra.spectra import certify_root_orders
from cdspectra.verify import (
    CLUSTER_TOL,
    STRICT_MARGIN,
    VerificationReport,
    _adj_rows,
    _balanced_H,
    _balanced_pq,
    _ball_radius,
    _class_keep,
    _classes,
    _cluster,
    _expand_all,
    _extend,
    _family_spectra,
    _family_spectrum,
    _mask_stack,
    _noncomplete_connected,
    _orbit,
    _orbit_classes,
    class_scan,
    complement_distances,
    complement_spectra,
)


def _lemma_2_1(n: int) -> VerificationReport:
    """Distance/complement identity (diam>3) and inequality (diam=3)."""
    scan = class_scan(n)
    ident_bad = scan["lemma21_violations"]
    ineq = _lemma21_diam3_scan(n)
    status = "confirmed" if not ident_bad and not ineq["violations"] else "refuted"
    return VerificationReport(
        claim_id="2.1", status=status, params={"n": n},
        counterexamples=[to_graph6(from_edge_mask(n, m)) for m in ident_bad]
        + [to_graph6(from_edge_mask(n, m)) for m in ineq["violations"]],
        notes=[
            f"diam>3: identity D(G^c) = J - I + A(G) checked on {scan['count']} graphs",
            f"diam=3: entrywise >= checked on {ineq['count']} graphs "
            f"({ineq['complement_not_small']} with complement outside diameter<=3)",
        ],
        details={
            "class_size_diam_gt3": scan["count"],
            "identity_violations": len(ident_bad),
            "diam3_count": ineq["count"],
            "inequality_violations": len(ineq["violations"]),
            "diam3_complement_exceptions": ineq["complement_not_small"],
        },
    )


def _lemma21_diam3_scan(n: int) -> dict:
    """Entrywise D(G^c) >= J - I + A(G) over all diameter-exactly-3 graphs.

    By the parent lemma of `verify._generate` with D = 3, each one extends a
    connected, non-complete graph on n - 1 vertices by one vertex.  So the
    extensions (`_extend`) of diameter 3 are reduced to their S_n orbits,
    and the inequality, which is relabeling-equivariant, is checked once
    per class, on D(G^c) from one `complement_distances` call.  The counts
    are over labeled graphs: those with a complement of diameter <= 3,
    those without, and every member of a violating class.
    """
    full = np.uint8((1 << n) - 1)
    masks = _extend(_noncomplete_connected(n - 1), n - 1)
    adj = _adj_rows(masks, n)
    b2 = _ball_radius(adj, n, 2)
    b3 = _expand_all(b2, adj, n)
    # every radius-3 ball full already implies connected
    diam3 = ((np.bitwise_and.reduce(b3, axis=0) == full)
             & (np.bitwise_and.reduce(b2, axis=0) != full))
    reps, sizes = _orbit_classes(masks[diam3], n)
    adj = _mask_stack(reps, n)
    dc = complement_distances(adj)
    covered = dc.max(axis=(1, 2)) <= 3
    ok = np.all(dc >= 1 - np.eye(n, dtype=np.int64) + adj, axis=(1, 2))
    return {
        "count": int(sizes[covered].sum()),
        "violations": _orbit(n, reps[covered & ~ok]).tolist(),
        "complement_not_small": int(sizes[~covered].sum()),
    }


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
    ident = all(
        quotients.check_identity_H_step(s, t).matches
        for s in range(2, 21) for t in range(1, 21)
    )
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


@lru_cache(maxsize=None)
def _deletion_pairs(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The class-level edge deletions that stay in the class: (k, e, k2).

    One triple per class k and edge e of its representative with
    reps[k] - e in the class, where it lies in class k2, read off its orbit
    minimum (one `orbit_minima` call for all of them); in (reps[k], e)
    order.  Deleting an edge commutes with relabeling, so a labeled member
    of class k has an edge into class k2 exactly as often as reps[k] does,
    and a count over the labeled pairs (G, G - e) weights each triple by
    sizes[k].
    """
    classes = _classes(n)
    k, e = np.nonzero(classes.reps[:, None] >> np.arange(n * (n - 1) // 2, dtype=np.uint32) & 1)
    minus = classes.reps[k] ^ np.left_shift(np.uint32(1), e.astype(np.uint32))
    adj = _adj_rows(minus, n)
    keep = _class_keep(adj, n)
    smallest, _ = orbit_minima(adj[:, keep].T, n)
    return k[keep], e[keep], np.searchsorted(classes.reps, smallest.astype(np.uint32))


def _lemma_2_5(n: int) -> VerificationReport:
    """Measured direction of lambda_1(G^c) under edge deletion keeping diam>3.

    Every labeled pair (G, G - e) with both graphs in the class counts, as
    its class triple from `_deletion_pairs` weighted by the size of G's
    class; each graph's lambda_1 is its class's.  The example is the first
    pair of least gap in (mask, edge) order: the smallest such G is the
    representative of its class, and the pair is its first edge of least
    gap, so the first minimising triple.
    """
    classes = _classes(n)
    k, e, k2 = _deletion_pairs(n)
    if len(k) == 0:
        raise ValueError(f"no edge deletion keeps a graph in the class at n={n}")
    gap = classes.l1[k] - classes.l1[k2]
    weight = classes.sizes[k]
    tie = np.abs(gap) <= CLUSTER_TOL
    rev = ~tie & (gap > 0)
    pairs, ties, reversed_holds = int(weight.sum()), int(weight[tie].sum()), int(weight[rev].sum())
    stated_holds = pairs - ties - reversed_holds
    worst = example = None
    if reversed_holds:
        i = np.flatnonzero(rev)[np.argmin(gap[rev])]
        worst = gap[i]
        g = int(classes.reps[k[i]])
        example = tuple(to_graph6(from_edge_mask(n, m)) for m in (g, g ^ 1 << int(e[i])))
    status = ("confirmed-with-reversed-direction"
              if stated_holds == 0 and ties == 0 and reversed_holds else "refuted")
    return VerificationReport(
        claim_id="2.5", status=status, params={"n": n},
        margin=worst,
        notes=[
            f"measured on {pairs} (G, G-e) pairs with d(G-e)>3: "
            f"lambda_1(G^c) > lambda_1((G-e)^c) in {reversed_holds}, "
            f"ties {ties}, stated direction {stated_holds}",
            "the statement's <= opposes its own proof; deleting an edge strictly decreases lambda_1(G^c)",
        ],
        details={"example_pair": example},
    )


def _lemma_2_6(n: int) -> VerificationReport:
    """lambda_1(G^c) >= lambda_1(T^c) for every spanning tree T of every class member.

    Every graph H with T <= H <= G contains the spanning tree T, so it is
    connected, and lies inside G, so its distances are at least G's and
    its diameter exceeds three: H is in the class.  So the spanning trees
    of G are exactly the trees that a chain of class deletions reaches
    from G, and one pass over the classes in ascending edge count, along
    `_deletion_pairs`, gives the largest tree lambda_1 below each class.
    Equality is allowed only when G is its own tree.
    """
    classes = _classes(n)
    k, _, k2 = _deletion_pairs(n)
    edges = np.array([bin(m).count("1") for m in classes.reps.tolist()])
    tree = edges == n - 1
    below = np.where(tree, classes.l1, -np.inf)       # max lambda_1 of a spanning tree
    for count in range(n, int(edges.max()) + 1):
        at = edges[k] == count
        np.maximum.at(below, k[at], below[k2[at]])
    gap = (classes.l1 - below)[~tree]
    bad = classes.reps[~tree][gap <= CLUSTER_TOL]
    return VerificationReport(
        claim_id="2.6", status="confirmed" if not len(bad) else "refuted", params={"n": n},
        margin=float(gap.min()) if len(gap) else None,
        counterexamples=[to_graph6(from_edge_mask(n, int(m))) for m in bad],
        notes=[f"every spanning tree of all {classes.summary['count']} graphs; "
               "equality only when G is its own tree"],
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


def _lemma_2_7(n_max: int = 9) -> VerificationReport:
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
    rows = []
    worst = None
    bad = []
    for pq in pairs:
        row = fn(*pq)
        rows.append(row)
        m = row["margin"]
        if m is not None and (worst is None or m < worst):
            worst = m
        if not row["ok"]:
            bad.append(row)
    return rows, worst, bad


def _lemma_3_1(a_max: int = 9, b_max: int = 9) -> VerificationReport:
    """Chain lambda_n(T1^c) >= lambda_n(T2^c) > lambda_n(T^c(a+1,b))."""
    def point(a, b):
        t1 = _family_spectrum("T1", (a, b)).lambda_n
        t2 = _family_spectrum("T2", (a, b)).lambda_n
        t0 = _family_spectrum("T", (a + 1, b)).lambda_n
        iso = (is_isomorphic(trees["T1", (a, b)], trees["T2", (a, b)])
               if a + b + 3 <= 10 else None)
        tie = abs(t1 - t2) <= CLUSTER_TOL
        ok = (t1 - t2 > -CLUSTER_TOL) and (t2 - t0 > STRICT_MARGIN) and (
            not tie or iso is not False)
        return {"params": (a, b), "lns": (t1, t2, t0), "tie": tie, "iso": iso,
                "margin": min(t1 - t2 if not tie else t2 - t0, t2 - t0), "ok": ok}

    pairs = [(a, b) for a in range(1, a_max + 1) for b in range(1, b_max + 1)
             if a + b + 3 <= 24]
    _family_spectra(key for a, b in pairs
                    for key in (("T1", (a, b)), ("T2", (a, b)), ("T", (a + 1, b))))
    # T1 and T2 are compared up to isomorphism where is_isomorphic reaches
    small = [(f, (a, b)) for a, b in pairs if a + b + 3 <= 10 for f in ("T1", "T2")]
    trees = dict(zip(small, build_many(small)))
    rows, worst, bad = _grid_reports(pairs, point)
    ties = [r["params"] for r in rows if r["tie"]]
    return VerificationReport(
        claim_id="3.1", status="confirmed" if not bad else "refuted",
        params={"a_max": a_max, "b_max": b_max, "points": len(rows)},
        margin=worst,
        counterexamples=[str(r["params"]) for r in bad],
        notes=[f"equality T1=T2 at {ties}; these parameter pairs give isomorphic trees"],
    )


def _lemma_3_4(p_max: int = 12) -> VerificationReport:
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
    ident = all(quotients.check_identity_B2_vs_B1(p, q).matches for p, q in pairs)
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


def _lemma_3_5(p_max: int = 12) -> VerificationReport:
    """lambda_n(B1^c(p,q)) < lambda_n(T^c(n-3,1)) < -3 at n = p+q."""
    def point(p, q):
        b1 = _family_spectrum("B1", (p, q)).lambda_n
        t = _family_spectrum("T", (p + q - 3, 1)).lambda_n
        m = min(t - b1, -3.0 - t)
        return {"params": (p, q), "margin": m, "ok": m > STRICT_MARGIN}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1)]
    _family_spectra(key for p, q in pairs for key in (("B1", (p, q)), ("T", (p + q - 3, 1))))
    rows, worst, bad = _grid_reports(pairs, point)
    ident = all(quotients.check_identity_B1_vs_T(p, q).matches for p, q in pairs)
    return VerificationReport(
        claim_id="3.5", status="confirmed" if not bad and ident else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[f"difference identity phi - psi exact on the grid: {ident}"],
    )


def _lemma_3_6(p_max: int = 12) -> VerificationReport:
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
    ident = all(quotients.check_identity_B1_step(p, q).matches
                for p, q in pairs if p >= 3)
    return VerificationReport(
        claim_id="3.6", status="confirmed" if not bad and ident else "refuted",
        params={"grid": f"4<=p<={p_max}, 2<=q<=p", "points": len(rows)},
        margin=worst, counterexamples=[str(r["params"]) for r in bad],
        notes=[f"step identity exact on the grid: {ident}"],
    )


def _lemma_3_9(n: int, n_max: int = 20) -> VerificationReport:
    """q=1 bound by lambda_n(L'^c) plus the L'' vs L' comparison.

    The L''-vs-L' sub-claim is measured; exact computation shows it holds
    in the direction opposite to the printed one at every order.
    """
    classes = _classes(n)
    _family_spectra([("Lprime", (n,))] + [(f, (m,)) for m in range(7, n_max + 1)
                                          for f in ("Lprime", "Ldprime")])
    bound = _family_spectrum("Lprime", (n,)).lambda_n
    notes = [f"q histogram at n={n}: {classes.summary['q_hist']}"]
    if classes.summary["degenerate"]:
        notes.append(f"{classes.summary['degenerate']} graphs with a repeated least "
                     "eigenvalue, where q is not defined, are left out of the q counts")
    counterexamples: list[str] = []
    q1_ok = True
    has_q1 = np.flatnonzero(classes.q1)
    if has_q1.size == 0:
        notes.append(f"no diameter>3 graph on {n} vertices has q = 1: "
                     "the q=1 claim is vacuous at this order")
        q1_margin = None
    else:
        cluster = _cluster(classes.ln[has_q1], has_q1, "max")
        q1_margin = bound - cluster["value"]
        q1_ok = q1_margin >= -CLUSTER_TOL
        if not q1_ok:
            counterexamples = [to_graph6(from_edge_mask(n, int(classes.reps[k])))
                               for _, k in cluster["pairs"]]
        notes.append(f"max lambda_n over q=1 members: {cluster['value']:.12g} "
                     f"vs lambda_n(L'^c) {bound:.12g}")
    sub = []
    sub_margin = None
    for m in range(7, n_max + 1):
        lp = _family_spectrum("Lprime", (m,)).lambda_n
        lpp = _family_spectrum("Ldprime", (m,)).lambda_n
        gap = lpp - lp     # printed claim: <= 0
        sub.append({"n": m, "ln_Lprime": lp, "ln_Ldprime": lpp})
        sub_margin = gap if sub_margin is None else min(sub_margin, gap)
    reversed_sub = sub_margin is not None and sub_margin > STRICT_MARGIN
    ident = all(quotients.check_identity_Lprime_vs_Ldprime(m).matches
                for m in range(7, n_max + 1))
    if reversed_sub:
        notes.append(
            "measured: lambda_n(L''^c) > lambda_n(L'^c) at every order "
            f"7..{n_max} (min gap {sub_margin:.6g}); the printed direction is reversed")
    notes.append(f"Psi - Psi' printed identity exact: {ident}")
    status = ("refuted" if not q1_ok
              else "confirmed-with-reversed-direction" if reversed_sub
              else "confirmed")
    return VerificationReport(
        claim_id="3.9", status=status, params={"n": n, "sub_claim_n_max": n_max},
        extremal={"ln_Lprime_c": bound},
        margin=q1_margin if q1_margin is not None else sub_margin,
        counterexamples=counterexamples,
        notes=notes,
        details={"q1_count": int(classes.q1.sum()), "lprime_vs_ldprime": sub},
    )


def _lemma_3_11(p_max: int = 12) -> VerificationReport:
    """lambda_n(L'^c(n)) < lambda_n(L^c(p,q)) at n = p+q >= 7."""
    def point(p, q):
        l = _family_spectrum("L", (p, q)).lambda_n
        lp = _family_spectrum("Lprime", (p + q,)).lambda_n
        exact = orders[p, q]
        return {"params": (p, q), "margin": l - lp, "ok": exact == 1, "exact": exact}

    pairs = [(p, q) for p in range(4, p_max + 1) for q in range(2, p + 1) if p + q >= 7]
    _family_spectra(key for p, q in pairs for key in (("L", (p, q)), ("Lprime", (p + q,))))
    # least roots of the quotient polynomials are the two lambda_n values
    orders = dict(zip(pairs, certify_root_orders(
        [(quotients.Phi_L(p, q), quotients.Psi_Lprime(p + q)) for p, q in pairs], "min")))
    rows, worst, bad = _grid_reports(pairs, point)
    ident_pts = {pq: quotients.check_identity_L_vs_Lprime(*pq).matches for pq in pairs}
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


def _lemma_3_12(p_max: int = 12) -> VerificationReport:
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
    ident_any = any(quotients.check_identity_L_step(p, q).matches
                    for p, q in pairs if p > q and p >= 5)
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


def check(claim_id: str, n: int | None, p_max: int) -> VerificationReport:
    """Run one lemma check at the given order / grid size; n = None takes
    the claim's default order."""
    def order(default: int) -> int:
        return default if n is None else n

    if claim_id == "2.1":
        return _lemma_2_1(order(6))
    if claim_id == "2.3":
        return _lemma_2_3(order(12))
    if claim_id == "2.5":
        return _lemma_2_5(order(6))
    if claim_id == "2.6":
        return _lemma_2_6(order(7))
    if claim_id == "2.7":
        return _lemma_2_7(order(9))
    if claim_id == "3.1":
        return _lemma_3_1()
    if claim_id == "3.4":
        return _lemma_3_4(p_max)
    if claim_id == "3.5":
        return _lemma_3_5(p_max)
    if claim_id == "3.6":
        return _lemma_3_6(p_max)
    if claim_id == "3.9":
        return _lemma_3_9(order(7))
    if claim_id == "3.11":
        return _lemma_3_11(p_max)
    if claim_id == "3.12":
        return _lemma_3_12(p_max)
    if claim_id == "quotient-consistency":
        return _quotient_consistency_claim()
    raise ValueError(f"unknown claim id {claim_id!r}")
