"""Command-line surface: spectra, claim verification, polynomials, families.

Output contract: one JSON object per line on stdout with sorted keys and
floats fixed at 12 significant digits, so identical runs are byte-identical;
the human-readable summary goes to stderr.
Exit codes: 0 all claims confirmed, 2 refuted, 3 reversed-direction only,
1 usage or input errors.

`spectrum` and `verify --stdin` read graph6 alike: `decode_graph6_lines`,
then `verify.graph_diameters` of each order's stack.  Neither solves a
graph alone: D(G^c) is built by `verify._complements` and solved by
`verify.eigenpairs`, for a stream's blocks and a family graph alike.

How a process ends: the `cdspectra` script and `python -m cdspectra.cli`
both run `console_main`, which calls `gc.freeze()` once `main` has
returned.  The interpreter's shutdown collections would otherwise free
every cyclic object of numpy and of this package (functions, classes,
module dicts) one at a time, although the operating system reclaims that
memory at exit anyway; frozen objects sit in the permanent generation,
which those collections skip.  The process
still exits through `sys.exit`, so stdout and stderr are flushed and
`atexit` handlers and enclosing `finally` blocks run.  `main` itself
leaves the collector alone, since tests and tools call it in-process.
"""

import argparse
import gc
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii

import numpy as np

from cdspectra import verify
from cdspectra.families import FAMILIES, build_many
from cdspectra.graphcore import (
    NOT_CONNECTED,
    Graph,
    adjacency_stack,
    decode_graph6_lines,
    diameter,
    graphs_from_stack,
    to_graph6,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_REFUTED = 2
EXIT_REVERSED = 3


def to_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 12 significant digits, strings
    escaped to ASCII as `json.dumps` does.  Built-in types dispatch on their
    exact type; other values (numpy, subclasses) become the one `_PLAIN` names."""
    kind = type(obj)
    if kind is str:
        return encode_basestring_ascii(obj)
    if kind is float:
        return format(obj, ".12g")
    if kind is dict:
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join([encode_basestring_ascii(str(k)) + ":" + to_json(v)
                               for k, v in items]) + "}"
    if kind is list or kind is tuple:
        return "[" + ",".join([to_json(v) for v in obj]) + "]"
    if kind is int:
        return str(obj)
    if obj is None or kind is bool:
        return "null" if obj is None else "true" if obj else "false"
    plain = next((cast for kinds, cast in _PLAIN if isinstance(obj, kinds)), None)
    if plain is None:
        raise TypeError(f"unserializable type {type(obj)!r}")
    return to_json(plain(obj))


_PLAIN = (((int, np.integer), int), ((float, np.floating), float), (str, str.__str__),
          ((list, tuple), list), (np.ndarray, np.ndarray.tolist), (dict, dict))


def emit(obj, out=None) -> None:
    print(to_json(obj), file=out or sys.stdout)


def _family_params(args, family: str, names: tuple[str, ...]) -> tuple[int, ...]:
    vals = []
    for name in names:
        v = getattr(args, name, None)
        if v is None:
            raise SystemExit2(f"family {family} needs --{name}")
        vals.append(int(v))
    return tuple(vals)


class SystemExit2(Exception):
    """Usage error carrying exit code 1."""


def _build_family_graph(args) -> Graph:
    family = args.family
    if family not in FAMILIES:
        raise SystemExit2(f"unknown family {family!r}; known: {', '.join(sorted(FAMILIES))}")
    params = _family_params(args, family, FAMILIES[family].param_names)
    try:
        return build_many([(family, params)])[0]
    except ValueError as exc:
        raise SystemExit2(f"family {family}: {exc}") from exc


def _records(labels: list[str], adj: np.ndarray) -> list[dict | None]:
    """The spectrum record of each graph of a same-order adjacency stack,
    labelled in turn by `labels`; None for a graph that is disconnected or
    whose complement is.

    The diameters come from `verify.graph_diameters`, D(G^c) from
    `verify._complements`, and one `verify.eigenpairs` call solves the
    connected complements.  q, the smaller side of the least eigenvector's
    sign split, comes from `verify._least_split`, and p = n - q.
    """
    n = adj.shape[-1]
    diameters = verify.graph_diameters(adj)
    dc = verify._complements(adj)
    ok = (diameters >= 0) & (dc.min(axis=(1, 2)) >= 0)
    values, vectors = verify.eigenpairs(dc[ok])
    q, degenerate = verify._least_split(values, vectors)
    solved = iter([{
        "input": label, "n": n, "diameter": d,
        "lambda1_complement": w[0], "lambda_n_complement": w[-1], "complement_spectrum": w,
        "p": n - k, "q": k, "degenerate_least_eigenvalue": flat, "graph6": to_graph6(g),
    } for label, d, w, k, flat, g in zip(
        compress(labels, ok), diameters[ok].tolist(), values[:, ::-1].tolist(), q.tolist(),
        degenerate.tolist(), graphs_from_stack(adj[ok]))])
    return [next(solved) if good else None for good in ok.tolist()]


def _stream_records(lines) -> list[dict]:
    """One record per non-blank graph6 line, in line order.

    Every line is decoded first, into one adjacency stack per order
    (`decode_graph6_lines`), and each order's stack goes through `_records`
    in `verify._blocks`.  A line that does not decode, or whose graph or
    complement is disconnected, gets an `error` record instead.
    """
    orders, errors = decode_graph6_lines(lines)
    records = {lineno: {"line": lineno, "error": message} for lineno, message in errors}
    for n, (linenos, stack) in orders.items():
        for numbers, adj in zip(verify._blocks(linenos.tolist(), n), verify._blocks(stack, n)):
            for lineno, rec in zip(numbers, _records([f"line {k}" for k in numbers], adj)):
                records[lineno] = rec or {"line": lineno, "error": NOT_CONNECTED}
    return [records[k] for k in sorted(records)]


def cmd_spectrum(args) -> int:
    if args.family:
        g = _build_family_graph(args)
        records = _records([args.family], adjacency_stack([g]))
        if records[0] is None:
            raise SystemExit2(f"family {args.family}: complement is disconnected: {NOT_CONNECTED}")
    else:
        records = _stream_records(sys.stdin)
    errors = sum("error" in r for r in records)
    for r in records:
        emit(r)
    print(f"spectrum: {len(records) - errors} graphs, {errors} errors", file=sys.stderr)
    return EXIT_USAGE if errors else EXIT_OK


def cmd_poly(args) -> int:
    from cdspectra import quotients     # imported here: no other command uses it

    family = args.family
    if family not in quotients.QUOTIENT_PARAMS:
        raise SystemExit2(
            f"family {family!r} has no quotient model; "
            f"supported: {', '.join(sorted(quotients.QUOTIENT_PARAMS))}")
    params = _family_params(args, family, quotients.QUOTIENT_PARAMS[family])
    try:
        rep = quotients.quotient_consistency(family, params, args.tol)
    except ValueError as exc:
        raise SystemExit2(f"poly {family}: {exc}") from exc
    emit({
        "family": family,
        "params": list(params),
        "printed_coefficients": list(rep.printed_poly.coeffs),
        "derived_coefficients": list(rep.derived_poly.coeffs),
        "match": rep.poly_matches,
        "matrix_matches_printed": rep.matrix_matches,
        "roots": rep.quotient_roots,
        "roots_in_full_spectrum": rep.roots_matched,
        "lambda1_is_quotient_root": rep.lambda1_is_root,
        "lambda_n_is_quotient_root": rep.lambda_n_is_root,
    })
    print(f"poly {family}{params}: printed==derived: {rep.poly_matches}", file=sys.stderr)
    return EXIT_OK


def cmd_family(args) -> int:
    g = _build_family_graph(args)
    print(to_graph6(g))
    print(f"family {args.family}: n={g.n}, edges={g.edge_count()}, "
          f"diameter={diameter(g)}", file=sys.stderr)
    return EXIT_OK


def _read_stream(lines: list[str]) -> tuple[int, list[Graph], dict]:
    """Decode an external graph6 stream once: its order, members and their values.

    The members are the graphs of diameter > 3 (`verify.graph_diameters`),
    in line order, and a `Graph` is built for them alone.  The values are
    lambda_1 and lambda_n of D(G^c) per member, solved for all members by
    one `complement_spectra` call and shared by every claim of the run.
    """
    orders, errors = decode_graph6_lines(lines)
    if errors:
        lineno, message = errors[0]
        raise SystemExit2(f"input stream: line {lineno}: {message}")
    members = [adj[verify.graph_diameters(adj) > 3] for _, adj in orders.values()]
    members = [adj for adj in members if len(adj)]
    if not members:
        raise SystemExit2("no diameter>3 graphs in the input stream")
    if len(members) > 1:
        raise SystemExit2("input stream mixes graph orders")
    adj = members[0]
    _, values, _ = verify.complement_spectra(adj)
    graphs = graphs_from_stack(adj)
    return graphs[0].n, graphs, {"l1": values[:, -1].tolist(), "ln": values[:, 0].tolist()}


def _stream_theorem(tid: str, stream: tuple[int, list[Graph], dict]) -> verify.VerificationReport:
    """Theorem check over an external graph6 stream instead of enumeration."""
    rep = verify.check_theorem_on_values(tid, *stream)
    rep.notes.append("external graph6 stream: verdict covers the supplied graphs only")
    return rep


def cmd_verify(args) -> int:
    claims = [c.strip() for c in (args.claims or "").split(",") if c.strip()]
    if not claims:
        raise SystemExit2("no claims given; use --claims id[,id...]")
    if args.workers < 1:
        raise SystemExit2(f"--workers must be at least 1, got {args.workers}")
    # the grids solve k x k cell quotients at any order, but 3.4, 3.5, 3.6 and 3.12
    # are decided by float margins, the least of them to p = 60 (5.0e-5) 10^9 times the error
    if args.p_max is not None and args.p_max > 60:
        raise SystemExit2(f"--p-max must be at most 60, got {args.p_max}")
    for i, c in enumerate(claims):
        if c not in verify.CLAIM_IDS:
            raise SystemExit2(
                f"unknown claim id {c!r}; known: {', '.join(verify.CLAIM_IDS)}")
        if c in claims[:i]:
            raise SystemExit2(f"claim {c} is given more than once")
        if args.stdin and not c.startswith("T"):
            raise SystemExit2("--stdin supports theorem claims only")
    if args.stdin and args.n is not None:
        raise SystemExit2("--stdin takes the order from the stream; --n does not apply")
    if args.n is not None and not set(claims) & set(verify.ORDER_CLAIMS):
        raise SystemExit2(
            f"--n does not apply: none of {', '.join(claims)} reads an order "
            f"(those that do: {', '.join(verify.ORDER_CLAIMS)})")
    if args.p_max is not None and not set(claims) & set(verify.GRID_CLAIMS):
        raise SystemExit2(
            f"--p-max does not apply: none of {', '.join(claims)} reads the grid bound "
            f"(those that do: {', '.join(verify.GRID_CLAIMS)})")
    # every claim sees the whole stream, so it is read and solved once
    stream = _read_stream(sys.stdin.readlines()) if args.stdin else None
    reports = []
    for c in claims:
        try:
            if stream is not None:
                rep = _stream_theorem(c, stream)
            else:
                rep = verify.run_claim(c, n=args.n, p_max=args.p_max)
        except ValueError as exc:
            raise SystemExit2(f"claim {c}: {exc}") from exc
        reports.append(rep)
        emit(rep.to_dict())
        print(f"{rep.claim_id}: {rep.status}"
              + (f" (margin {rep.margin:.12g})" if rep.margin is not None else ""),
              file=sys.stderr)
    if args.csv:
        try:
            _write_csv(args.csv, reports)
        except OSError as exc:
            raise SystemExit2(f"--csv: {exc}") from exc
    statuses = {r.status for r in reports}
    if "refuted" in statuses:
        return EXIT_REFUTED
    if "confirmed-with-reversed-direction" in statuses:
        return EXIT_REVERSED
    return EXIT_OK


def _write_csv(path: str, reports) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["claim", "status", "margin", "witnesses", "counterexamples", "notes"])
        for r in reports:
            w.writerow([
                r.claim_id, r.status,
                "" if r.margin is None else format(r.margin, ".12g"),
                ";".join(r.witnesses), ";".join(r.counterexamples),
                " | ".join(r.notes),
            ])


def _add_family_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--family", help="family id (path, star, H, T, T1, T2, B1, B2, L, Lprime, Ldprime)")
    for name in ("n", "s", "t", "a", "b", "p", "q"):
        p.add_argument(f"--{name}", type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cdspectra",
        description="Distance spectra of complements of diameter>3 graphs: "
                    "families, quotient polynomials, exhaustive verification.")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    sp = sub.add_parser("spectrum", help="per-graph complement distance spectrum")
    _add_family_args(sp)

    pp = sub.add_parser("poly", help="quotient polynomial coefficients and roots")
    _add_family_args(pp)
    pp.add_argument("--tol", type=float, default=1e-9)

    fp = sub.add_parser("family", help="materialize a family graph as graph6")
    _add_family_args(fp)

    vp = sub.add_parser("verify", help="verify lemma/theorem claims")
    vp.add_argument("--claims", required=True,
                    help="comma-separated ids, e.g. T2.8,3.4,quotient-consistency")
    vp.add_argument("--n", type=int, default=None, help="order for scans")
    vp.add_argument("--p-max", type=int, default=None,
                    help="grid upper bound for p (default 12)")
    vp.add_argument("--workers", type=int, default=1,
                    help="accepted and ignored: every check runs in this process "
                         "(must be at least 1)")
    vp.add_argument("--stdin", action="store_true",
                    help="read class members as graph6 lines from stdin")
    vp.add_argument("--csv", default=None, help="write a CSV summary table here")
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:       # argparse exits 0 after --help and 2 on a usage error
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if args.subcommand == "spectrum":
            return cmd_spectrum(args)
        if args.subcommand == "poly":
            return cmd_poly(args)
        if args.subcommand == "family":
            return cmd_family(args)
        if args.subcommand == "verify":
            return cmd_verify(args)
        raise SystemExit2(f"unknown subcommand {args.subcommand!r}")
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def console_main() -> int:
    """The process entry point: `main` on sys.argv, then `gc.freeze()`, so
    that the interpreter's shutdown collections find nothing to free."""
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(console_main())
