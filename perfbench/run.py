"""End-to-end benchmark of the `cdspectra verify` CLI, with a per-layer trace.

Usage (from the repository root):

    python3 perfbench/run.py --workload {scan_stream_n7,exact_grid} \
        --seed N --seconds S --trace {0,1}

A workload is a session of `cdspectra verify` commands.  Every command runs
as one child process (closed loop, one client: the next child starts when
the previous one has ended); the session is repeated while the next round
should end within S seconds.  Each child's exit code, verdicts and stderr
are checked against `reference.json`; on the `stream_n7` command the
extremal value is also checked against a numpy + networkx oracle.
`--trace 0` reports the end-to-end metrics; `--trace 1` alternates
untraced children with children of `tracer.py`, which calls `cli.main`
in-process with a span around each layer call, and reports per-layer
metrics.  The last stdout line is the JSON result; provenance and failures
go to stderr.  See NOTES.md for why each workload was chosen.
"""

import argparse
import json
import os
import select
import shutil
import signal
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from statistics import mean, median

# Pin BLAS to one thread before numpy loads: idle OpenBLAS threads in this
# process would compete with the measured child for the cores.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

from fractions import Fraction  # noqa: E402

import numpy as np  # noqa: E402

import streams  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_DEADLINE_S = 170.0          # every child is killed before the run exceeds this
SETUP_REPEATS = 7
TRACEBACK = "Traceback (most recent call last)"
# Time of `calibrate()` on a quiet host: reported times are scaled to it.
REF_CALIB_S = 0.25

# Each command is `verify --claims ...` plus these arguments; `reference.json`
# holds its expected exit code and verdicts under the same name.
COMMANDS = {
    "scan_n7": (["T2.4", "T2.8", "T3.7", "T3.13", "3.9"], ["--n", "7"]),
    "stream_n7": (["T3.13"], ["--stdin"]),
    "exact_grid": (["quotient-consistency", "3.4", "3.5", "3.6", "3.11", "3.12"], []),
}
# Two workloads, not one per command: the time limit on all runs then allows
# windows long enough for steady figures (NOTES.md, "Run-to-run spread").
WORKLOADS = {"scan_stream_n7": ("scan_n7", "stream_n7"), "exact_grid": ("exact_grid",)}
PROBE_N = {"scan_n7": 7}        # labeled-mask enumeration probe in the traced run
WORKERS_CHECK = "scan_n7"       # its --workers 2 stdout must equal its --workers 1 stdout

# Metric names and units come from BENCHMARK.json, the benchmark's contract.
_SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}
# Layer metrics that sum every function with the prefix, e.g. all build_*.
GROUPS = {"families.build": "families.build_", "quotients.check_identity": "quotients.check_identity_"}


@dataclass
class Command:
    name: str
    argv: list                  # `verify` arguments, without --workers
    expected: dict
    stdin: Path | None = None
    oracle: tuple | None = None
    probe_n: int | None = None
    candidates: int = 0         # enumeration candidates: stream lines or probe masks


@dataclass
class Child:
    rc: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str
    problems: list = field(default_factory=list)


class Runner:
    """Spawns children with a pinned environment and per-child rusage."""

    def __init__(self, workdir: Path, started: float):
        self.workdir = workdir
        self.started = started
        self.children = []

    def env(self, workers: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["CDSPECTRA_WORKERS"] = str(workers)
        env["OPENBLAS_NUM_THREADS"] = "1"
        return env

    def spawn(self, argv: list, workers: int = 1, stdin: Path | None = None) -> Child:
        """Run `python argv...` to completion; read its CPU time and peak RSS from wait4."""
        out, err = self.workdir / "stdout", self.workdir / "stderr"
        wr = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, str(stdin or os.devnull), os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, str(out), wr, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, str(err), wr, 0o644),
        ]
        timeout = RUN_DEADLINE_S - (time.perf_counter() - self.started)
        t0 = time.perf_counter()
        pid = os.posix_spawn(sys.executable, [sys.executable, *argv], self.env(workers),
                             file_actions=actions)
        pidfd = os.pidfd_open(pid)
        try:
            killed = not select.select([pidfd], [], [], max(timeout, 0.0))[0]
            if killed:
                os.kill(pid, signal.SIGKILL)
            _, status, usage = os.wait4(pid, 0)
        finally:
            os.close(pidfd)
        wall = time.perf_counter() - t0
        child = Child(
            rc=os.waitstatus_to_exitcode(status), wall_s=wall,
            cpu_s=usage.ru_utime + usage.ru_stime, peak_rss_mb=usage.ru_maxrss / 1024.0,
            stdout=out.read_text(errors="replace"), stderr=err.read_text(errors="replace"))
        if killed:
            child.problems.append(f"killed after {wall:.1f} s: run deadline reached")
        if TRACEBACK in child.stderr:
            child.problems.append("traceback on stderr")
        self.children.append(child)
        label = " ".join(Path(a).name if a.startswith("/") else a for a in argv)
        print(json.dumps({"child": label[:160], "exit": child.rc, "wall_s": wall, "cpu_s": child.cpu_s,
                          "ru_maxrss_mb": child.peak_rss_mb}), file=sys.stderr)
        return child

    def time_left(self) -> bool:
        return time.perf_counter() - self.started < RUN_DEADLINE_S


_CALIB_BATCH = np.random.default_rng(0).random((300, 7, 7))
_CALIB_BATCH = _CALIB_BATCH + _CALIB_BATCH.transpose(0, 2, 1)


def calibrate() -> float:
    """Wall time of a fixed mix of the work cdspectra does, none of it from cdspectra.

    Rational and big-integer arithmetic, an integer loop, dict updates and
    batched LAPACK calls on 7x7 matrices.  Run on the CPU the children use,
    right next to them, it tracks how fast the shared host is running.
    """
    t0 = time.perf_counter()
    for _ in range(3):
        x = Fraction(1, 3)
        for i in range(3000):
            x = x * Fraction(i + 2, i + 1) + Fraction(1, i + 2)
        acc = 0
        for i in range(300_000):
            acc += i * i % 7
        counts = {}
        for i in range(100_000):
            counts[i % 1000] = counts.get(i % 1000, 0) + i
        for _ in range(10):
            np.linalg.eigvalsh(_CALIB_BATCH)
    return time.perf_counter() - t0


def check_verify(child: Child, expected: dict, oracle: tuple | None) -> None:
    """Exit code, claim/status pairs and (on a stream) the extremal value."""
    if child.rc != expected["exit"]:
        child.problems.append(f"exit code {child.rc}, expected {expected['exit']}")
    try:
        reports = [json.loads(line) for line in child.stdout.splitlines() if line.strip()]
        got = {r["claim"]: r["status"] for r in reports}
        if oracle is not None:
            (rep,) = reports
            sample, max_ln = rep["params"]["sample"], rep["extremal"]["max_ln"]
    except (ValueError, KeyError, TypeError) as exc:
        child.problems.append(f"unparsable verify output: {exc!r}")
        return
    if got != expected["status"]:
        child.problems.append(f"verdicts {got} differ from reference {expected['status']}")
    if oracle is not None:
        if sample != oracle[0]:
            child.problems.append(f"sample {sample}, oracle counts {oracle[0]} members")
        if abs(max_ln - oracle[1]) > 1e-9:
            child.problems.append(f"max_ln {max_ln} vs oracle {oracle[1]}")


def merge_spans(span_lists: list) -> list:
    """Concatenate the spans of several traced children, keeping parent links."""
    merged = []
    for spans in span_lists:
        offset = len(merged)
        merged += [[name, start, end, parent + offset if parent >= 0 else -1, units]
                   for name, start, end, parent, units in spans]
    return merged


def self_times(spans: list) -> list:
    """Each span's duration minus the time its child spans cover."""
    child_time = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    return [end - start - covered for (_, start, end, _, _), covered in zip(spans, child_time)]


def layer_metrics(spans: list, candidates: int, stream, stream_spans: list) -> dict:
    """Per-layer calls, self time and work from the spans of one traced round."""
    own = self_times(spans)
    calls, self_s, work, incl = {}, {}, {}, {}
    for i, (name, start, end, _, units) in enumerate(spans):
        keys = [name] + [g for g, prefix in GROUPS.items() if name.startswith(prefix)]
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + own[i]
            work[key] = work.get(key, 0) + units
            incl[key] = incl.get(key, 0.0) + (end - start)
    m = {}
    for metric in PER_LAYER:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = calls.get(layer, 0)
        elif kind == "self_s":
            m[metric] = self_s.get(layer, 0.0)
        elif kind == "matrices":
            m[metric] = work.get(layer, 0)
    enum = "verify.enumerate_diam_gt3"
    found = work.get(enum, 0)
    m[f"{enum}.graphs_per_s"] = found / incl[enum] if incl.get(enum) else 0.0
    m["verify.survivor_ratio"] = found / candidates if candidates else 0.0
    spectra_calls = sum(name == "verify.complement_distance_spectrum" for name, *_ in stream_spans)
    m["verify.spectra_per_graph"] = spectra_calls / stream.members if stream else 0.0
    m["verify.stream_member_ratio"] = stream.member_ratio if stream else 0.0
    m["verify.stream_distinct_ratio"] = stream.distinct_ratio if stream else 0.0
    m["trace_self_sum_s"] = sum(own)
    return m


def provenance(workload: str, seed: int, nproc: int, stream) -> dict:
    import hashlib
    import platform
    import subprocess

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True, check=False)
            commit = res.stdout.strip() or None
        except OSError:
            pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    rec = {
        "workload": workload, "seed": seed,
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "git_commit": commit, "src_sha256": digest.hexdigest(),
    }
    if stream:
        rec["stream"] = {"lines": len(stream.lines), "member_ratio": stream.member_ratio,
                         "distinct_ratio": stream.distinct_ratio}
    return rec


def repeat(op, seconds: float, runner: Runner) -> list:
    """Run `op` at least once, then again while the next run should end within `seconds`."""
    t0 = time.perf_counter()
    results = [op()]
    while runner.time_left():
        elapsed = time.perf_counter() - t0
        if elapsed * (len(results) + 1) / len(results) > seconds:
            break
        results.append(op())
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "cdspectra" / "cli.py").is_file():
        print(f"error: {SRC / 'cdspectra'} not found; run from a repository checkout", file=sys.stderr)
        return 1
    reference = json.loads((BENCH / "reference.json").read_text())

    names = WORKLOADS[args.workload]
    stream = streams.make_stream(args.seed) if "stream_n7" in names else None
    cpus = os.sched_getaffinity(0)
    nproc = len(cpus)
    # One CPU for this process and every child, so that the calibration runs
    # where the children run and sees the same contention from the host.
    os.sched_setaffinity(0, {max(cpus)})
    print(json.dumps(provenance(args.workload, args.seed, nproc, stream)), file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    try:
        runner = Runner(workdir, started)
        commands = []
        for name in names:
            claims, extra = COMMANDS[name]
            cmd = Command(name, ["verify", "--claims", ",".join(claims), *extra], reference[name],
                          probe_n=PROBE_N.get(name))
            if "--stdin" in extra:
                cmd.stdin = workdir / "stream.g6"
                cmd.stdin.write_text("\n".join(stream.lines) + "\n")
                cmd.oracle = streams.oracle_max_ln(stream.lines)
                cmd.candidates = len(stream.lines)
            elif cmd.probe_n:
                cmd.candidates = 1 << cmd.probe_n * (cmd.probe_n - 1) // 2
            commands.append(cmd)

        def verify(cmd: Command, workers: int = 1) -> Child:
            """`python -m cdspectra.cli verify ...`, through child.py for its own peak RSS."""
            rss_path = workdir / "rss"
            rss_path.unlink(missing_ok=True)
            child = runner.spawn([str(BENCH / "child.py"), str(rss_path), *cmd.argv,
                                  "--workers", str(workers)], workers, cmd.stdin)
            try:
                child.peak_rss_mb = int(rss_path.read_text()) / 1024.0
            except (OSError, ValueError) as exc:
                child.problems.append(f"no peak RSS record: {exc!r}")
            check_verify(child, cmd.expected, cmd.oracle)
            return child

        def import_only() -> Child:
            child = runner.spawn(["-c", "import cdspectra.cli"])
            if child.rc != 0:
                child.problems.append(f"import exit code {child.rc}")
            return child

        def traced(cmd: Command, plain: Child) -> tuple[list, float, float]:
            """Spans of one traced child, its wall time without the probe, and the probe's time."""
            spans_path = workdir / "spans.json"
            spans_path.unlink(missing_ok=True)
            probe = [str(cmd.probe_n)] if cmd.probe_n else []
            child = runner.spawn([str(BENCH / "tracer.py"), str(spans_path), *probe, "--",
                                  *cmd.argv, "--workers", "1"], 1, cmd.stdin)
            check_verify(child, cmd.expected, cmd.oracle)
            if child.stdout != plain.stdout:
                child.problems.append("traced stdout differs from untraced stdout")
            try:
                spans = json.loads(spans_path.read_text())
            except (OSError, ValueError) as exc:
                child.problems.append(f"no span file: {exc!r}")
                spans = []
            probe_s = sum(end - start for name, start, end, parent, _ in spans
                          if parent < 0 and name != "cli.main")
            if sum(self_times(spans)) > child.wall_s:
                child.problems.append("summed self times exceed the traced wall time")
            return spans, child.wall_s - probe_s, probe_s

        # Warm-up: the first import compiles bytecode, which users pay once.
        import_only()
        if args.trace == 0:
            # A calibration runs first and after every child.  Times are scaled by
            # REF_CALIB_S over the mean calibration of the window, which takes out
            # the speed of the shared host (NOTES.md, "Run-to-run spread").
            calib = [calibrate()]

            def then_calibrate(child: Child) -> Child:
                calib.append(calibrate())
                return child

            # Setup samples are spread over the window, so they see the same machine load.
            setup = []

            def one_round() -> list:
                runs = []
                for cmd in commands:
                    setup.append(then_calibrate(import_only()).wall_s)
                    runs.append(then_calibrate(verify(cmd)))
                return runs

            rounds = repeat(one_round, args.seconds, runner)
            while len(setup) < SETUP_REPEATS:
                setup.append(then_calibrate(import_only()).wall_s)
            for i, cmd in enumerate(commands):
                if cmd.name == WORKERS_CHECK and nproc >= 2 and runner.time_left():
                    two = verify(cmd, workers=2)
                    if two.stdout != rounds[0][i].stdout:
                        two.problems.append("--workers 2 stdout differs from --workers 1 stdout")
            # A session's time is the sum over its commands.  Means over the few
            # runs of a window were steadier than medians (NOTES.md).
            per_command = list(zip(*rounds))
            scale = REF_CALIB_S / mean(calib)
            metrics = {
                "wall_ref_s": scale * sum(mean(c.wall_s for c in runs) for runs in per_command),
                "cpu_ref_s": scale * sum(mean(c.cpu_s for c in runs) for runs in per_command),
                "setup_s": REF_CALIB_S * median(setup) / median(calib),
                "peak_rss_mb": max(median(c.peak_rss_mb for c in runs) for runs in per_command),
            }
            print(json.dumps({
                "unscaled_wall_s": sum(mean(c.wall_s for c in runs) for runs in per_command),
                "calib_s": calib}), file=sys.stderr)
            units = END_TO_END
        else:
            def one_round() -> tuple[float, dict]:
                calib_s = calibrate()
                plain_s, traced_s, probe_s, span_lists, stream_spans = 0.0, 0.0, 0.0, [], []
                for cmd in commands:
                    plain = verify(cmd)
                    spans, wall, probe = traced(cmd, plain)
                    plain_s += plain.wall_s
                    traced_s += wall
                    probe_s += probe
                    span_lists.append(spans)
                    if cmd.stdin:
                        stream_spans = spans
                m = layer_metrics(merge_spans(span_lists), sum(c.candidates for c in commands),
                                  stream, stream_spans)
                # The probe runs after the CLI and is not part of the traced wall time.
                m["trace_wall_s"] = traced_s
                m["trace_self_sum_s"] -= probe_s
                m["calib_s"] = calib_s
                return plain_s, m

            rounds = repeat(one_round, args.seconds, runner)
            layers = [m for _, m in rounds]
            metrics = {k: median([m[k] for m in layers]) for k in PER_LAYER if k != "trace_overhead_s"}
            metrics["trace_overhead_s"] = metrics["trace_wall_s"] - median([p for p, _ in rounds])
            units = PER_LAYER
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = [c for c in runner.children if c.problems]
    for c in failed:
        print(f"failed run (exit {c.rc}): {'; '.join(c.problems)}\n{c.stderr[-2000:]}", file=sys.stderr)
    print(json.dumps({
        "correct": not failed,
        "attempted": len(runner.children),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
