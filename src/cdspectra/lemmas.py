"""The lemma checks that read the class record: Lemmas 2.1, 2.5, 2.6 and 3.9.

Each reads `verify._classes(n)`, the isomorphism classes of the connected
diameter>3 graphs on n vertices with their D(G^c) spectra, and Lemma 2.1
also scans the diameter-3 graphs.  The checks of the family graphs and
their quotient polynomials live in `family_lemmas`.  `verify.run_claim`,
the entry point, imports the one module that holds the claim on its first
call, so a run compiles only the lemma checks it runs, and a run that
checks only theorems, or reads a graph6 stream, compiles neither.  Each
check returns a VerificationReport whose status is measured, never
assumed, as the theorem checks in `verify` do.
"""

from functools import lru_cache

import numpy as np

from cdspectra.graphcore import from_edge_mask, least_masks, orbit_minima, to_graph6
from cdspectra.verify import (
    CLUSTER_TOL,
    STRICT_MARGIN,
    VerificationReport,
    _adj_rows,
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
    _orbit_classes,
    complement_distances,
)


def _lemma_2_1(n: int) -> VerificationReport:
    """Distance/complement identity (diam>3) and inequality (diam=3)."""
    classes = _classes(n)
    scan = classes.summary
    ident_bad = scan["lemma21_violations"]
    ident_count = int(classes.sizes[np.searchsorted(classes.reps, ident_bad)].sum())
    ineq = _lemma21_diam3_scan(n)
    status = "confirmed" if not ident_bad and not ineq["violations"] else "refuted"
    return VerificationReport(
        claim_id="2.1", status=status, params={"n": n},
        counterexamples=[to_graph6(from_edge_mask(n, m)) for m in ident_bad + ineq["violations"]],
        notes=[
            f"diam>3: identity D(G^c) = J - I + A(G) checked on {scan['count']} graphs",
            f"diam=3: entrywise >= checked on {ineq['count']} graphs "
            f"({ineq['complement_not_small']} with complement outside diameter<=3)",
        ],
        details={
            "class_size_diam_gt3": scan["count"],
            "identity_violations": ident_count,
            "diam3_count": ineq["count"],
            "inequality_violations": ineq["labeled_violations"],
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
    those without, and the members of the violating classes, which are
    listed by their representatives, ascending.
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
    bad = covered & ~np.all(dc >= 1 - np.eye(n, dtype=np.int64) + adj, axis=(1, 2))
    return {
        "count": int(sizes[covered].sum()),
        "violations": reps[bad].tolist(),
        "labeled_violations": int(sizes[bad].sum()),
        "complement_not_small": int(sizes[~covered].sum()),
    }


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
    smallest = least_masks(orbit_minima(adj[:, keep].T, n)[0])
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
    from cdspectra import quotients     # imported here: no other check of this module uses it

    ident = bool(quotients.identities_hold(
        quotients.check_identity_Lprime_vs_Ldprime, [(m,) for m in range(7, n_max + 1)]).all())
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
