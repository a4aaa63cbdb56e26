"""CLI subcommands: flags, JSON output determinism, exit codes."""

import ast
import gc
import io
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cdspectra import cli, verify
from cdspectra.graphcore import from_graph6, is_isomorphic
from cdspectra.families import FAMILIES, build_H, build_path


def run_cli(capsys, *argv, stdin=None, monkeypatch=None):
    if stdin is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


SRC = Path(cli.__file__).resolve().parents[1]


def run_python(*args, stdin=b""):
    """`python ARGS` in a fresh interpreter that imports this package;
    stdout and stderr as bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, check=False, timeout=300)


def _no_claim_runs(*args, **kwargs):
    raise AssertionError("a claim ran")


def test_poly_examples(capsys):
    code, out, _ = run_cli(capsys, "poly", "--family", "H", "--s", "2", "--t", "2")
    assert code == 0
    rec = json.loads(out)
    assert rec["printed_coefficients"] == [-20, -68, -53, -4, 1]
    assert rec["match"] is True

    code, out, _ = run_cli(capsys, "poly", "--family", "T", "--n", "7")
    assert json.loads(out)["printed_coefficients"] == [-12, -50, -38, -3, 1]

    code, out, _ = run_cli(capsys, "poly", "--family", "L", "--p", "4", "--q", "4")
    rec = json.loads(out)
    assert rec["printed_coefficients"] == [66, 101, -14, -40, -6, 1]
    assert rec["roots_in_full_spectrum"] is True and rec["lambda1_is_quotient_root"] is True


def test_poly_usage_errors(capsys):
    code, _, err = run_cli(capsys, "poly", "--family", "T1", "--a", "2", "--b", "2")
    assert code == 1 and "no quotient model" in err
    code, _, err = run_cli(capsys, "poly", "--family", "H", "--s", "2")
    assert code == 1 and "needs --t" in err
    for tol in ("0", "-1"):
        code, out, err = run_cli(capsys, "poly", "--family", "H", "--s", "2", "--t", "2",
                                 "--tol", tol)
        assert (code, out, err) == (1, "", "error: poly H: need tol > 0\n")


def test_family_subcommand(capsys):
    code, out, err = run_cli(capsys, "family", "--family", "H", "--s", "2", "--t", "3")
    assert code == 0
    g = from_graph6(out.strip())
    assert is_isomorphic(g, build_H(2, 3))
    assert "diameter=3" in err
    code, _, err = run_cli(capsys, "family", "--family", "nope")
    assert code == 1 and "unknown family" in err


def test_spectrum_family(capsys):
    code, out, _ = run_cli(capsys, "spectrum", "--family", "path", "--n", "7")
    assert code == 0
    rec = json.loads(out)
    assert rec["n"] == 7 and rec["diameter"] == 6
    assert rec["p"] + rec["q"] == 7
    assert rec["lambda1_complement"] == pytest.approx(7.7375879994, abs=1e-9)
    assert len(rec["complement_spectrum"]) == 7


def test_spectrum_stdin_error_for_p2(capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "spectrum", stdin="A_\n", monkeypatch=monkeypatch)
    assert code == 1
    rec = json.loads(out)
    assert rec["line"] == 1 and "error" in rec


def test_spectrum_stdin_mixed(capsys, monkeypatch):
    from cdspectra.graphcore import to_graph6
    lines = to_graph6(build_path(6)) + "\nnot-a-graph6-\x7f\n"
    code, out, _ = run_cli(capsys, "spectrum", stdin=lines, monkeypatch=monkeypatch)
    assert code == 1
    recs = [json.loads(line) for line in out.splitlines()]
    assert recs[0]["diameter"] == 5
    assert "error" in recs[1]


def test_verify_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claims", "T2.8", "--n", "6")
    assert code == 0
    assert json.loads(out)["status"] == "confirmed"

    code, out, _ = run_cli(capsys, "verify", "--claims", "2.5", "--n", "6")
    assert code == 3
    assert json.loads(out)["status"] == "confirmed-with-reversed-direction"

    code, out, _ = run_cli(capsys, "verify", "--claims", "T3.13", "--n", "7")
    assert code == 2
    assert json.loads(out)["status"] == "refuted"

    code, _, err = run_cli(capsys, "verify", "--claims", "T9.8")
    assert code == 1 and "unknown claim" in err


def test_verify_multiple_claims_worst_code(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claims", "T2.8,2.5", "--n", "6")
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["claim"] == "T2.8"


def test_verify_deterministic_output(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--claims", "T2.8", "--n", "6")
    code2, out2, _ = run_cli(capsys, "verify", "--claims", "T2.8", "--n", "6")
    assert code1 == code2 == 0
    assert out1 == out2


PINNED_EXIT_CODES = {"verify_lemmas_n6.out": 3, "verify_lemma21_n7.out": 0,
                     "verify_lemma25_n7.out": 3, "verify_lemma21_n8.out": 0,
                     "verify_lemmas25_26_n8.out": 3, "spectrum_stream_n7.out": 1,
                     "spectrum_mixed.out": 1, "spectrum_family_L53.out": 0,
                     "verify_lemmas23_27_31.out": 0}
# the stdin of each run that reads one
PINNED_STDIN = {"verify_stream_n7.out": "stream_n7.g6", "spectrum_stream_n7.out": "stream_n7.g6",
                "spectrum_mixed.out": "spectrum_mixed.g6"}
EXPECTED = Path(__file__).parent / "expected"
PINNED_RUNS = [
    (("verify", "--claims", "quotient-consistency,3.4,3.5,3.6,3.11,3.12"),
     "verify_exact_grid.out"),
    (("verify", "--claims", "T2.4,T2.8,T3.7,T3.13,3.9", "--n", "7", "--workers", "1"),
     "verify_theorems_n7.out"),
    (("verify", "--claims", "2.1,2.5,2.6", "--n", "6"), "verify_lemmas_n6.out"),
    (("verify", "--claims", "2.1", "--n", "7"), "verify_lemma21_n7.out"),
    (("verify", "--claims", "3.11", "--p-max", "32"), "verify_lemma311_p32.out"),
    (("verify", "--claims", "2.5", "--n", "7"), "verify_lemma25_n7.out"),
    (("verify", "--claims", "T2.4,T2.8,T3.7,T3.13,3.9", "--n", "8"), "verify_theorems_n8.out"),
    (("verify", "--claims", "2.1", "--n", "8"), "verify_lemma21_n8.out"),
    (("verify", "--claims", "2.5,2.6", "--n", "8"), "verify_lemmas25_26_n8.out"),
    # the 92 classes at n = 7, each relabeled at random, among 8 rejects
    (("verify", "--stdin", "--claims", "T2.4,T2.8,T3.7,T3.13"), "verify_stream_n7.out"),
    (("spectrum",), "spectrum_stream_n7.out"),
    # orders 1 to 12 drawn with random.Random(20): K1, disconnected graphs and
    # complements, a ">>graph6<<" header and malformed lines
    (("spectrum",), "spectrum_mixed.out"),
    (("spectrum", "--family", "L", "--p", "5", "--q", "3"), "spectrum_family_L53.out"),
    (("verify", "--claims", "2.3,2.7,3.1"), "verify_lemmas23_27_31.out"),
    (("verify", "--claims", "3.4,3.5,3.6,3.12", "--p-max", "32"), "verify_grids_p32.out"),
]
# each family at its least parameters (T2(1, b) has an empty cell) and at a
# larger set; family_graph6.out holds their graph6 lines in this order
FAMILY_PINS = [
    ("path", (1,)), ("star", (1,)), ("H", (1, 1)), ("T", (1, 1)), ("T1", (1, 1)), ("T2", (1, 1)),
    ("B1", (2, 2)), ("B2", (3, 2)), ("L", (4, 2)), ("Lprime", (7,)), ("Ldprime", (7,)),
    ("path", (9,)), ("star", (8,)), ("H", (3, 5)), ("T", (4, 3)), ("T1", (3, 4)), ("T2", (5, 2)),
    ("B1", (6, 4)), ("B2", (6, 5)), ("L", (9, 7)), ("Lprime", (13,)), ("Ldprime", (12,)),
]


@pytest.mark.parametrize("argv,expected", PINNED_RUNS)
def test_verify_stdout_is_pinned(capsys, monkeypatch, argv, expected):
    # the exact layer's roots and orders (492 of them on the 3.11 grid to
    # p = 32), the n = 7 and n = 8 scans, Lemma 2.1's, 2.5's and 2.6's counts,
    # a graph6 stream's verdicts and the spectrum records reach stdout byte
    # for byte; a drift fails on the first differing JSON line
    stdin = (EXPECTED / PINNED_STDIN[expected]).read_text() if expected in PINNED_STDIN else None
    code, out, _ = run_cli(capsys, *argv, stdin=stdin, monkeypatch=monkeypatch)
    want = (EXPECTED / expected).read_text()
    assert code == PINNED_EXIT_CODES.get(expected, 2)
    assert out.splitlines() == want.splitlines()
    assert out == want


def test_family_graph6_is_pinned(capsys):
    out = []
    for family, params in FAMILY_PINS:
        names = FAMILIES[family].param_names
        args = [arg for name, v in zip(names, params) for arg in (f"--{name}", str(v))]
        code, text, _ = run_cli(capsys, "family", "--family", family, *args)
        assert code == 0
        out.append(text)
    assert "".join(out) == (EXPECTED / "family_graph6.out").read_text()


@pytest.mark.parametrize("expected", ["verify_theorems_n7.out", "verify_stream_n7.out",
                                      "verify_exact_grid.out"])
def test_benchmark_commands_are_pinned_in_a_process(expected):
    # the benchmark's three commands, each in its own interpreter, so the pins
    # also cover what runs after `main` returns, up to the process's exit
    argv = {name: argv for argv, name in PINNED_RUNS}[expected]
    stdin = (EXPECTED / PINNED_STDIN[expected]).read_bytes() if expected in PINNED_STDIN else b""
    res = run_python("-m", "cdspectra.cli", *argv, stdin=stdin)
    assert res.returncode == PINNED_EXIT_CODES.get(expected, 2), res.stderr
    assert res.stdout == (EXPECTED / expected).read_bytes()


def test_main_leaves_the_collector_alone(capsys):
    # tests and tools call `main` in-process; only `console_main` freezes
    before = gc.get_freeze_count(), gc.isenabled()
    assert run_cli(capsys, "verify", "--claims", "T2.8", "--n", "6")[0] == 0
    assert run_cli(capsys, "verify", "--claims", "T2.8,T2.8")[0] == 1
    assert (gc.get_freeze_count(), gc.isenabled()) == before


def test_a_process_ends_with_complete_output(tmp_path, capsys):
    argv = ("verify", "--claims", "T2.8", "--n", "6", "--csv")
    res = run_python("-m", "cdspectra.cli", *argv, str(tmp_path / "process.csv"))
    code, out, err = run_cli(capsys, *argv, str(tmp_path / "in_process.csv"))
    assert res.returncode == code == 0
    assert res.stdout.decode() == out and res.stderr.decode() == err
    csv = (tmp_path / "process.csv").read_text()
    assert csv == (tmp_path / "in_process.csv").read_text()
    assert csv.splitlines()[1].startswith("T2.8,confirmed,")


def test_the_script_and_python_m_share_one_entry_point():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    module, name = pyproject["project"]["scripts"]["cdspectra"].split(":")
    assert module == "cdspectra.cli"
    tree = ast.parse(Path(cli.__file__).read_text())
    block = next(node for node in tree.body if isinstance(node, ast.If)
                 and ast.unparse(node.test) == "__name__ == '__main__'")
    assert [ast.unparse(node) for node in block.body] == [f"sys.exit({name}())"]
    # and the entry point freezes the collector once the run is done
    res = run_python("-c", "import gc, sys; from cdspectra import cli; "
                           "sys.argv[1:] = ['family', '--family', 'path', '--n', '5']; "
                           f"print(cli.{name}(), gc.get_freeze_count() > 0)")
    assert res.stdout.splitlines()[-1] == b"0 True", res.stderr


def test_verify_csv(tmp_path, capsys):
    path = tmp_path / "summary.csv"
    code, _, _ = run_cli(capsys, "verify", "--claims", "T2.8", "--n", "5",
                         "--csv", str(path))
    assert code == 0
    body = path.read_text().splitlines()
    assert body[0].startswith("claim,status")
    assert body[1].startswith("T2.8,confirmed")


@pytest.mark.parametrize("where", ["missing directory", "directory"])
def test_verify_csv_that_cannot_be_written_is_one_error_line(tmp_path, capsys, where):
    path = tmp_path / "missing" / "x.csv" if where == "missing directory" else tmp_path
    code, out, err = run_cli(capsys, "verify", "--claims", "2.7", "--csv", str(path))
    assert code == 1
    assert json.loads(out)["claim"] == "2.7"
    assert err.splitlines()[-1].startswith("error: --csv: [Errno ")
    assert str(path) in err.splitlines()[-1] and "Traceback" not in err


def test_verify_stdin_stream(capsys, monkeypatch):
    from itertools import permutations

    from cdspectra.graphcore import from_edge_mask, relabel, to_graph6
    # feed the full n=6 class as an external stream: same verdict as internal
    masks = sorted({to_graph6(relabel(from_edge_mask(6, int(r)), perm))
                    for r in verify._classes(6).reps for perm in permutations(range(6))})
    assert len(masks) == verify.enumerate_diam_gt3(6) == 3240
    code, out, _ = run_cli(capsys, "verify", "--claims", "T2.8", "--stdin",
                           stdin="\n".join(masks), monkeypatch=monkeypatch)
    assert code == 0
    rec = json.loads(out)
    assert rec["status"] == "confirmed"
    assert "supplied graphs only" in " ".join(rec["notes"])
    code, _, err = run_cli(capsys, "verify", "--claims", "2.1", "--stdin",
                           stdin="", monkeypatch=monkeypatch)
    assert code == 1


def test_verify_stdin_malformed_line_is_usage_error(capsys, monkeypatch):
    from cdspectra.graphcore import to_graph6
    lines = to_graph6(build_path(7)) + "\n\nnot-a-graph6-\x7f\n"
    code, out, err = run_cli(capsys, "verify", "--claims", "T2.8", "--stdin",
                             stdin=lines, monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "line 3" in err and "Traceback" not in err


def test_verify_stdin_order_guard_is_usage_error(capsys, monkeypatch):
    from cdspectra.graphcore import to_graph6
    code, out, err = run_cli(capsys, "verify", "--claims", "T3.13", "--stdin",
                             stdin=to_graph6(build_path(6)) + "\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert "n >= 7" in err


def test_verify_stdin_rejects_an_order(capsys, monkeypatch):
    # a stream's order is its graphs' order, so --n cannot be honoured there
    from cdspectra.families import build_L
    from cdspectra.graphcore import to_graph6
    code, out, err = run_cli(capsys, "verify", "--claims", "T3.13", "--stdin", "--n", "8",
                             stdin=to_graph6(build_L(4, 3)) + "\n", monkeypatch=monkeypatch)
    assert code == 1
    assert out == ""
    assert err == "error: --stdin takes the order from the stream; --n does not apply\n"


def test_verify_stdin_shared_by_every_claim(capsys, monkeypatch):
    from cdspectra.families import build_L
    from cdspectra.graphcore import to_graph6
    lines = "\n".join([to_graph6(build_path(7)), "FZ?Z_", to_graph6(build_L(4, 3))]) + "\n"
    code, out, _ = run_cli(capsys, "verify", "--claims", "T3.13,T2.8", "--stdin",
                           stdin=lines, monkeypatch=monkeypatch)
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["claim"] for r in recs] == ["T3.13", "T2.8"]
    assert [r["params"]["sample"] for r in recs] == [3, 3]
    assert recs[0]["status"] == "refuted" and recs[1]["status"] == "confirmed"
    assert code == 2


def test_verify_stdin_solves_each_member_once(capsys, monkeypatch):
    from cdspectra import verify
    from cdspectra.families import build_L
    from cdspectra.graphcore import to_graph6
    batches = []
    real_batch = verify.complement_spectra
    monkeypatch.setattr(verify, "_FAMILY_STORE", {})
    monkeypatch.setattr(verify, "complement_spectra",
                        lambda adj: batches.append(len(adj)) or real_batch(adj))
    lines = "\n".join([to_graph6(build_path(7)), "FZ?Z_", to_graph6(build_L(4, 3)),
                       to_graph6(build_path(4))]) + "\n"
    code, out, _ = run_cli(capsys, "verify", "--claims", "T3.13,T2.8,T3.7", "--stdin",
                           stdin=lines, monkeypatch=monkeypatch)
    assert code == 2
    assert len(out.splitlines()) == 3
    # the three members in one batch; the bound graphs come from the family store's cells
    assert batches == [3]
    assert set(verify._FAMILY_STORE) == {("L", (4, 3)), ("path", (7,)), ("B1", (4, 3))}


def _least_eigenvector_split(g) -> tuple[int, int]:
    """(p, q) of the least eigenvector of D(g^c), solved alone: q counts its
    smaller sign side, p the rest."""
    from cdspectra.graphcore import complement, distance_matrix
    from cdspectra.spectra import sym_eigenvalues
    x = sym_eigenvalues(distance_matrix(complement(g))).vectors[:, -1]
    q = min(int((x < -1e-9).sum()), int((x > 1e-9).sum()))
    return g.n - q, q


def test_spectrum_solves_each_graph_once(capsys, monkeypatch):
    from cdspectra import spectra, verify
    from cdspectra.graphcore import from_edge_mask, to_graph6
    reps = [to_graph6(from_edge_mask(7, int(m))) for m in verify._classes(7).reps]
    calls, stacks = [], []
    real, real_stack = spectra.sym_eigenvalues, verify.eigenpairs

    def counted(m):
        calls.append(m)
        return real(m)

    def counted_stack(dc):
        stacks.append(len(dc))
        return real_stack(dc)

    monkeypatch.setattr(spectra, "sym_eigenvalues", counted)
    monkeypatch.setattr(verify, "eigenpairs", counted_stack)
    code, out, _ = run_cli(capsys, "spectrum", stdin="\n".join(reps) + "\n",
                           monkeypatch=monkeypatch)
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["graph6"] for r in recs] == reps
    # all 92 graphs in one stacked solve, and none on its own
    assert stacks == [92] and calls == []
    # the sign split read from the shared solve is the one of each graph alone
    monkeypatch.undo()
    for rec, text in zip(recs, reps):
        assert (rec["p"], rec["q"]) == _least_eigenvector_split(from_graph6(text))


def test_verify_stdin_t313_tie_above_isomorphism_cap(capsys, monkeypatch):
    # T3.13 tells L(p, q) by its structure, so a stream of order 17 is decided
    from cdspectra.families import build_L
    from cdspectra.graphcore import ISO_MAX_VERTICES, to_graph6
    assert ISO_MAX_VERTICES == 16
    code, out, err = run_cli(capsys, "verify", "--claims", "T3.13", "--stdin",
                             stdin=to_graph6(build_L(9, 8)) + "\n", monkeypatch=monkeypatch)
    assert code == 0 and "error:" not in err
    rep = json.loads(out)
    assert rep["status"] == "confirmed" and rep["params"] == {"n": 17, "sample": 1}
    assert rep["margin"] == 0 and "unique up to isomorphism: True" in rep["notes"]


def test_verify_stdin_t28_above_isomorphism_cap(capsys, monkeypatch):
    # T2.8 tells P_n by its degrees, so a stream of order 17 is decided
    assert from_graph6("PhCGGC@?G?_@?@??_?G?@??C") == build_path(17)
    code, out, err = run_cli(capsys, "verify", "--claims", "T2.8", "--stdin",
                             stdin="PhCGGC@?G?_@?@??_?G?@??C\n", monkeypatch=monkeypatch)
    assert code == 0 and "error:" not in err
    rep = json.loads(out)
    assert rep["status"] == "confirmed" and rep["params"] == {"n": 17, "sample": 1}
    assert "unique up to isomorphism: True" in rep["notes"]


def test_verify_stdin_merges_order_11_witnesses(capsys, monkeypatch):
    # two relabelings of L(p, q) are one witness up to isomorphism, at
    # order 11 and up to the isomorphism cap, 16
    from cdspectra.families import build_L
    from cdspectra.graphcore import relabel, to_graph6
    for p, q in ((6, 5), (8, 7), (8, 8)):
        g = build_L(p, q)
        perm = random.Random(3).sample(range(g.n), g.n)
        lines = [to_graph6(g), to_graph6(relabel(g, perm))]
        assert lines[0] != lines[1]
        code, out, _ = run_cli(capsys, "verify", "--claims", "T3.13", "--stdin",
                               stdin="\n".join(lines) + "\n", monkeypatch=monkeypatch)
        rep = json.loads(out)
        assert code == 0 and rep["params"] == {"n": g.n, "sample": 2}
        assert rep["witnesses"] == lines[:1]
        assert "unique up to isomorphism: True" in rep["notes"]


def test_verify_stdin_above_char_poly_cap_still_decides(capsys, monkeypatch):
    from cdspectra.families import build_L
    from cdspectra.graphcore import to_graph6
    lines = "\n".join([to_graph6(build_L(9, 8)), to_graph6(build_path(17))]) + "\n"
    code, out, _ = run_cli(capsys, "verify", "--claims", "T3.13,T3.7", "--stdin",
                           stdin=lines, monkeypatch=monkeypatch)
    assert code == 2
    recs = [json.loads(line) for line in out.splitlines()]
    assert [(r["claim"], r["status"]) for r in recs] == [("T3.13", "refuted"), ("T3.7", "confirmed")]
    assert recs[0]["counterexamples"] == [to_graph6(build_path(17))]
    assert "exact char-poly comparison not run: it supports n <= 16" in recs[0]["notes"]


def test_parser_errors_are_usage_errors(capsys):
    code, _, err = run_cli(capsys, "verify")
    assert code == 1 and "--claims" in err
    code, _, err = run_cli(capsys, "verify", "--claims", "T2.8", "--n", "x")
    assert code == 1 and "invalid int value" in err
    code, _, _ = run_cli(capsys, "spectrum", "--family", "path", "--n", "7", "--tol", "1e-9")
    assert code == 1
    code, out, _ = run_cli(capsys, "verify", "--help")
    assert code == 0 and "--claims" in out


def test_verify_lemma_2_6_outside_exhaustive_orders_is_usage_error(capsys):
    for claim in ("2.5", "2.6"):
        for n in ("4", "9"):
            code, out, err = run_cli(capsys, "verify", "--claims", claim, "--n", n)
            assert code == 1 and out == ""
            assert "exhaustive scans support 5 <= n <= 8" in err and "Traceback" not in err


def test_verify_lemma_2_3_below_its_first_step_is_usage_error(capsys):
    for n in ("2", "3", "4", "5"):
        code, out, err = run_cli(capsys, "verify", "--claims", "2.3", "--n", n)
        assert code == 1 and out == ""
        assert "error: claim 2.3: Lemma 2.3 needs n >= 6" in err and "Traceback" not in err
    code, out, _ = run_cli(capsys, "verify", "--claims", "2.3", "--n", "6")
    assert code == 0 and json.loads(out)["status"] == "confirmed"


def _per_graph_record(label: str, g) -> dict:
    """The spectrum record of one graph, from per-graph calls alone; raises
    DisconnectedGraph where the graph or its complement is disconnected."""
    from cdspectra.graphcore import complement, diameter, distance_matrix, to_graph6
    from cdspectra.spectra import sym_eigenvalues
    d = diameter(g)
    spec = sym_eigenvalues(distance_matrix(complement(g)))
    p, q = _least_eigenvector_split(g)
    return {
        "input": label, "n": g.n, "diameter": d,
        "lambda1_complement": spec.lambda1, "lambda_n_complement": spec.lambda_n,
        "complement_spectrum": spec.values.tolist(), "p": p, "q": q,
        "degenerate_least_eigenvalue": bool(g.n > 1 and spec.values[-2] - spec.values[-1] < 1e-8),
        "graph6": to_graph6(g),
    }


def test_spectrum_stdin_batch_equals_per_graph_records(capsys, monkeypatch):
    # orders 1..9 mixed, with bad lines and disconnected graphs and complements,
    # cut into kernel blocks of a few graphs each
    import random

    from cdspectra import verify
    from cdspectra.graphcore import from_edge_mask, to_graph6
    rng = random.Random(5)
    lines = [to_graph6(from_edge_mask(n, rng.getrandbits(n * (n - 1) // 2)))
             for n in rng.choices(range(2, 10), k=120)]
    lines += [to_graph6(build_path(n)) for n in range(1, 10)]
    lines += ["", "not_g6", "FZ?Z", "  ", "~??~"]
    rng.shuffle(lines)
    monkeypatch.setattr(verify, "STREAM_BLOCK_ENTRIES", 4 * 49)
    got = cli._stream_records(line + "\n" for line in lines)
    want = []
    for lineno, line in enumerate(lines, start=1):
        if line.strip():
            try:
                want.append(_per_graph_record(f"line {lineno}", from_graph6(line)))
            except ValueError as exc:
                want.append({"line": lineno, "error": str(exc)})
    assert [cli.to_json(r) for r in got] == [cli.to_json(r) for r in want]
    # the stream holds both kinds of record
    assert 20 < sum("error" in r for r in got) < len(got) - 20


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_workers_below_one_is_usage_error(capsys, workers):
    code, out, err = run_cli(capsys, "verify", "--claims", "T2.8", "--n", "6",
                             "--workers", workers)
    assert code == 1 and out == ""
    assert err == f"error: --workers must be at least 1, got {workers}\n"


@pytest.mark.parametrize("claim", verify.ORDER_CLAIMS)
def test_verify_order_zero_is_usage_error(capsys, claim):
    # n = 0 is an order like any other, not "use the default"
    code, out, err = run_cli(capsys, "verify", "--claims", claim, "--n", "0")
    assert code == 1 and out == ""
    assert err.startswith(f"error: claim {claim}: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("3.11", "--p-max", "3"),
    ("3.4", "--p-max", "2"),
    ("3.5", "--p-max", "2"),
    ("3.6", "--p-max", "2"),
    ("3.12", "--p-max", "3"),
    ("2.7", "--n", "3"),
])
def test_verify_empty_lemma_grid_is_usage_error(capsys, argv):
    # a claim checked over no point is not confirmed
    code, out, err = run_cli(capsys, "verify", "--claims", *argv)
    assert code == 1 and out == ""
    assert err.startswith(f"error: claim {argv[0]}: ") and "Traceback" not in err


def test_verify_lemma_2_7_runs_above_the_isomorphism_cap(capsys):
    # Lemma 2.7 tells the star and the path by their degrees, so n = 12 runs
    code, out, err = run_cli(capsys, "verify", "--claims", "2.7", "--n", "12")
    assert code == 0 and "error:" not in err
    rep = json.loads(out)
    assert rep["status"] == "confirmed" and rep["params"] == {"n_max": 12}


@pytest.mark.parametrize("claim", ["3.4", "3.5", "3.6", "3.11", "3.12"])
def test_verify_p_max_above_32_is_rejected_before_any_grid_work(capsys, monkeypatch, claim):
    # the cap is now 60, where the float margins of the grids were last
    # checked against their solve error; one above it is rejected
    with monkeypatch.context() as patched:
        patched.setattr(verify, "run_claim", _no_claim_runs)
        code, out, err = run_cli(capsys, "verify", "--claims", claim, "--p-max", "61")
    assert code == 1 and out == ""
    assert err == "error: --p-max must be at most 60, got 61\n"
    code, out, err = run_cli(capsys, "verify", "--claims", claim, "--p-max", "33")
    assert code in (0, 2) and "Traceback" not in err
    rep = json.loads(out)
    assert rep["claim"] == claim and rep["params"]["grid"].startswith("4<=p<=33,")


def test_verify_grids_at_p_max_60(capsys):
    # orders up to 120, solved as cell quotients: 3.11 fails at most points
    # and 3.12 past the orders of the default grid
    code, out, err = run_cli(capsys, "verify", "--claims", "3.4,3.5,3.6,3.11,3.12",
                             "--p-max", "60")
    assert code == 2 and "Traceback" not in err
    recs = {r["claim"]: r for r in map(json.loads, out.splitlines())}
    got = {c: (r["status"], r["params"]["points"], len(r["counterexamples"]))
           for c, r in recs.items()}
    assert got == {"3.4": ("confirmed", 1767, 0), "3.5": ("confirmed", 1767, 0),
                   "3.6": ("confirmed", 1767, 0), "3.11": ("refuted", 1766, 1670),
                   "3.12": ("refuted", 1766, 196)}


@pytest.mark.parametrize("claim", [c for c in verify.CLAIM_IDS if c not in verify.ORDER_CLAIMS])
def test_verify_order_that_no_claim_reads_is_usage_error(capsys, monkeypatch, claim):
    # the grid lemmas read --p-max, and 3.1 reads nothing: an order given to
    # them alone would be ignored
    with monkeypatch.context() as patched:
        patched.setattr(verify, "run_claim", _no_claim_runs)
        code, out, err = run_cli(capsys, "verify", "--claims", claim, "--n", "99")
    assert code == 1 and out == ""
    assert err == (f"error: --n does not apply: none of {claim} reads an order (those that do: "
                   "2.1, 2.3, 2.5, 2.6, 2.7, 3.9, T2.4, T2.8, T3.7, T3.13)\n")


def test_verify_order_read_by_one_claim_of_a_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claims", "T2.4,3.4", "--n", "7")
    assert code == 0
    assert [json.loads(line)["claim"] for line in out.splitlines()] == ["T2.4", "3.4"]


@pytest.mark.parametrize("claim", [c for c in verify.CLAIM_IDS if c not in verify.GRID_CLAIMS])
def test_verify_grid_bound_that_no_claim_reads_is_usage_error(capsys, monkeypatch, claim):
    # only the grid lemmas read --p-max: given to any other claim alone, it
    # would be ignored
    argv = ["--n", "6"] if claim in verify.ORDER_CLAIMS else []
    with monkeypatch.context() as patched:
        patched.setattr(verify, "run_claim", _no_claim_runs)
        code, out, err = run_cli(capsys, "verify", "--claims", claim, *argv, "--p-max", "20")
    assert code == 1 and out == ""
    assert err == (f"error: --p-max does not apply: none of {claim} reads the grid bound "
                   "(those that do: 3.4, 3.5, 3.6, 3.11, 3.12)\n")


def test_verify_grid_bound_read_by_one_claim_of_a_list(capsys):
    code, out, _ = run_cli(capsys, "verify", "--claims", "2.7,3.4", "--p-max", "5")
    assert code == 0
    recs = [json.loads(line) for line in out.splitlines()]
    assert [r["claim"] for r in recs] == ["2.7", "3.4"]
    assert recs[1]["params"]["grid"] == "4<=p<=5, 2<=q<=p"


def test_verify_repeated_claim_is_usage_error(capsys, monkeypatch):
    with monkeypatch.context() as patched:
        patched.setattr(verify, "run_claim", _no_claim_runs)
        code, out, err = run_cli(capsys, "verify", "--claims", "T2.4,T2.8,T2.4", "--n", "6")
    assert code == 1 and out == ""
    assert err == "error: claim T2.4 is given more than once\n"


@pytest.mark.parametrize("argv", [
    ("spectrum", "--family", "path", "--n", "3"),
    ("spectrum", "--family", "star", "--n", "5"),
    ("spectrum", "--family", "path", "--n", "70"),
    ("poly", "--family", "L", "--p", "3", "--q", "3"),
    ("family", "--family", "H", "--s", "0", "--t", "3"),
])
def test_domain_guard_is_one_error_line(capsys, argv):
    # a disconnected complement or a parameter outside a family's domain
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_json_formatting_fixed_digits():
    assert cli.to_json({"x": 1.0}) == '{"x":1}'
    assert cli.to_json(7.737587999399938) == "7.7375879994"
    assert cli.to_json([True, None, "a"]) == '[true,null,"a"]'
    assert cli.to_json({"b": 1, "a": 2}) == '{"a":2,"b":1}'
    with pytest.raises(TypeError):
        cli.to_json(object())


def _listed_rules_json(obj) -> str:
    """JSON by the rules as they read before the writer dispatched on type:
    an isinstance chain with `json.dumps` for every string."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return format(float(obj), ".12g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_listed_rules_json(v) for v in obj) + "]"
    if isinstance(obj, np.ndarray):
        return _listed_rules_json(obj.tolist())
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        return "{" + ",".join(f"{json.dumps(str(k))}:{_listed_rules_json(v)}" for k, v in items) + "}"
    raise TypeError(f"unserializable type {type(obj)!r}")


def test_json_writer_keeps_the_listed_rules():
    # numpy ints, floats, bools and arrays, tuples, None, non-string keys,
    # escapes and non-ASCII strings, empty containers and subclasses
    class Label(str):
        pass

    nested = {
        "ints": [np.int64(-3), np.int32(7), np.uint8(255), 2**70, True, False],
        "floats": (np.float64(1 / 3), np.float32(0.1), 1e-300, -0.0, float("inf"), float("nan")),
        "arrays": [np.arange(3), np.array([[0.5, 2.0]]), np.array([True, False]), np.zeros((0, 2))],
        3: None, 2.5: "quote \" tab\t line\n", (1, 2): "é∑😀", Label("k"): Label("v"),
        "empty": [{}, [], ()], "nested": {"b": {"a": [None, {"z": 1, "y": np.float64(2.0)}]}},
    }
    assert cli.to_json(nested) == _listed_rules_json(nested)
    assert cli.to_json(verify.run_claim("3.4", p_max=6).to_dict()) == _listed_rules_json(
        verify.run_claim("3.4", p_max=6).to_dict())
    for bad in (np.bool_(True), object(), {1, 2}):
        with pytest.raises(TypeError):
            cli.to_json(bad)
        with pytest.raises(TypeError):
            _listed_rules_json(bad)


def test_verify_theorems_exhaustive_n8(capsys, monkeypatch):
    from cdspectra import verify
    monkeypatch.setattr(verify, "_SCAN_CACHE", {})
    code, out, _ = run_cli(capsys, "verify", "--claims", "T2.4,T2.8,T3.7,T3.13,3.9",
                           "--n", "8", "--workers", "2")
    assert code == 2
    recs = {r["claim"]: r for r in map(json.loads, out.splitlines())}
    for claim, margin in (("T2.4", 3.677), ("T2.8", 0.0221), ("T3.7", 3.216)):
        assert recs[claim]["status"] == "confirmed", claim
        assert recs[claim]["margin"] == pytest.approx(margin, abs=5e-4), claim
    t313 = recs["T3.13"]
    assert t313["status"] == "refuted"
    assert len(t313["counterexamples"]) == 1
    assert is_isomorphic(from_graph6(t313["counterexamples"][0]), from_graph6("GwwNo_"))
    # T2.8's cluster is one class of 20,160 labeled members
    for claim, labeled in (("T2.4", 840), ("T2.8", 20160), ("T3.7", 3360), ("T3.13", 6720)):
        assert recs[claim]["details"]["labeled_witnesses"] == labeled, claim
    # one class of 10,080 members has a degenerate least eigenvalue, where q is
    # not defined, so the q counts leave it out
    notes = recs["3.9"]["notes"]
    assert notes[:2] == ["q histogram at n=8: {2: 1206240, 3: 11229120, 4: 12684840}",
                         "10080 graphs with a repeated least eigenvalue, where q is not "
                         "defined, are left out of the q counts"]
    assert recs["3.9"]["details"]["q1_count"] == 0
    assert verify.class_scan(8)["degenerate"] == 10080
