"""Import budget: a `cdspectra` process loads only what its command runs.

Each case runs in a fresh interpreter, since this test process has long
since loaded everything.  The child prints the watched modules it has
loaded, as JSON, and the assertions run here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from cdspectra.families import build_Lprime, build_path
from cdspectra.graphcore import to_graph6

SRC = Path(__file__).resolve().parents[1] / "src"
WATCHED = ("concurrent.futures", "multiprocessing", "numpy.ma", "dataclasses",
           "cdspectra.quotients", "cdspectra.lemmas", "cdspectra.family_lemmas")
LEMMA_MODULES = {"cdspectra.lemmas", "cdspectra.family_lemmas"}
RUN_CLI = """
import contextlib, io, json, sys
from cdspectra import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
"""
REPORT = f"""
print(json.dumps({{"code": code, "loaded": [m for m in {WATCHED!r} if m in sys.modules]}}))
"""


def _child(code: str, *argv: str, stdin: str = "") -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    res = subprocess.run([sys.executable, "-c", code, *argv], input=stdin, env=env,
                         capture_output=True, text=True, check=False, timeout=300)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


def test_importing_the_cli_loads_no_pool_and_no_masked_arrays():
    got = _child("import json, sys\nimport cdspectra.cli\ncode = None\n" + REPORT)
    assert not {"concurrent.futures", "multiprocessing", "numpy.ma"} & set(got["loaded"])


def test_importing_the_cli_loads_no_dataclasses():
    # the package's records are plain classes: defining a dataclass runs
    # generated code in every process
    got = _child("import json, sys\nimport cdspectra.cli\ncode = None\n" + REPORT)
    assert "dataclasses" not in got["loaded"]


def test_the_class_scan_loads_no_pool_and_no_masked_arrays():
    got = _child(RUN_CLI + REPORT, "verify", "--claims", "T2.4,T2.8,T3.7,T3.13,3.9", "--n", "7")
    assert got["code"] == 2
    assert not {"concurrent.futures", "numpy.ma"} & set(got["loaded"])
    # Lemma 3.9 reads the class record: the family checks are not compiled
    assert "cdspectra.lemmas" in got["loaded"]
    assert "cdspectra.family_lemmas" not in got["loaded"]


def test_the_exact_grid_loads_no_class_record_lemmas():
    got = _child(RUN_CLI + REPORT, "verify", "--claims",
                 "quotient-consistency,3.4,3.5,3.6,3.11,3.12")
    assert got["code"] == 2
    assert "cdspectra.family_lemmas" in got["loaded"]
    assert "cdspectra.lemmas" not in got["loaded"]
    # the family store groups keys by shape by sorting: `np.unique` would
    # load the masked arrays
    assert "numpy.ma" not in got["loaded"]


def test_a_stream_run_loads_no_lemma_checks_and_no_quotients():
    lines = [to_graph6(build_path(7)), "FZ?Z_", to_graph6(build_Lprime(7)), "Fhc?G"]
    got = _child(RUN_CLI + REPORT, "verify", "--stdin", "--claims", "T3.13",
                 stdin="\n".join(lines) + "\n")
    assert got["code"] == 2
    assert not {"cdspectra.quotients", *LEMMA_MODULES} & set(got["loaded"])


def test_a_spectrum_run_loads_no_lemma_checks_and_no_quotients():
    lines = [to_graph6(build_path(7)), "FZ?Z_", "@", "A_", "not_g6", to_graph6(build_Lprime(9))]
    got = _child(RUN_CLI + REPORT, "spectrum", stdin="\n".join(lines) + "\n")
    assert got["code"] == 1
    assert not {"cdspectra.quotients", *LEMMA_MODULES} & set(got["loaded"])


def test_lemma_2_1_with_two_workers_loads_no_pool():
    # every scan runs in this process, so --workers starts nothing
    got = _child(RUN_CLI + REPORT, "verify", "--claims", "2.1", "--n", "6", "--workers", "2")
    assert got["code"] == 0
    assert not {"concurrent.futures", "multiprocessing"} & set(got["loaded"])


def test_the_lemma_checks_load_no_masked_arrays():
    # Lemmas 2.1, 2.5 and 2.6 reduce their candidates by the orbit-minimum
    # search, which finds runs by sorting instead of `np.unique`
    got = _child(RUN_CLI + REPORT, "verify", "--claims", "2.1,2.5,2.6", "--n", "6")
    assert got["code"] == 3
    assert "numpy.ma" not in got["loaded"]
    # only Lemma 3.9 of the class-record checks reads `quotients`, and imports it itself
    assert "cdspectra.quotients" not in got["loaded"]
