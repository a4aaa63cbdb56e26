"""Run `cdspectra.cli.main` in this process with a span around every layer call.

Usage: python3 perfbench/tracer.py SPANS_JSON [PROBE_N] -- CLI_ARGS...

Each public function of the package modules (the layers) is wrapped, and
the wrapper is rebound wherever the original is referenced: in every
`cdspectra` module that imported it and in module-level registries of
dataclass records (such as `families.FAMILIES`).  `numpy.linalg.eigvalsh`
and `eigh` are wrapped too, counting the matrices in each batch.  Spans
(name, start, end, parent, work) stay in memory and are written to
SPANS_JSON after the run.  With PROBE_N, the labeled-mask enumeration
`verify.enumerate_diam_gt3(n=PROBE_N)` runs after the CLI as its own root
span.  Stdout carries only the CLI's output; the exit code is the CLI's.
"""

import dataclasses
import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("graphcore", "spectra", "families", "quotients", "verify", "cli")
# Serialisation helpers stay inside `cli.emit`'s self time; to_json is recursive.
UNWRAPPED = {"cli.to_json", "cli.fmt_float"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []         # [name, start, end, parent index, work]
        self._stack = [-1]

    def wrap(self, name: str, fn, work=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1], 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if work is not None:
                span[4] = work(args, kwargs, result)
            return result

        return traced


def _matrices(args, kwargs, result) -> int:
    a = args[0] if args else kwargs["a"]
    count = 1
    for d in a.shape[:-2]:
        count *= d
    return count


def _returned_count(args, kwargs, result) -> int:
    return int(result)


def install(tracer: Tracer) -> None:
    import numpy as np

    modules = {name: importlib.import_module(f"cdspectra.{name}") for name in LAYERS}
    wrapped: dict[int, object] = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{short}.{attr}"
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in UNWRAPPED):
                continue
            work = _returned_count if name == "verify.enumerate_diam_gt3" else None
            wrapped[id(obj)] = tracer.wrap(name, obj, work)

    package = [m for key, m in sys.modules.items() if key == "cdspectra" or key.startswith("cdspectra.")]
    for mod in package:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])
            elif isinstance(obj, dict):
                for record in obj.values():
                    _rebind_fields(record, wrapped)

    for attr in ("eigvalsh", "eigh"):
        setattr(np.linalg, attr, tracer.wrap(f"numpy.linalg.{attr}", getattr(np.linalg, attr), _matrices))


def _rebind_fields(record, wrapped: dict[int, object]) -> None:
    if not dataclasses.is_dataclass(record) or isinstance(record, type):
        return
    for f in dataclasses.fields(record):
        replacement = wrapped.get(id(getattr(record, f.name)))
        if replacement is not None:
            object.__setattr__(record, f.name, replacement)


def main(argv: list[str]) -> int:
    split = argv.index("--")
    spans_path, probe = argv[0], argv[1:split]
    tracer = Tracer()
    install(tracer)
    from cdspectra import cli, verify

    try:
        rc = cli.main(argv[split + 1:])
        sys.stdout.flush()
        if probe:
            verify.enumerate_diam_gt3(n=int(probe[0]))
    finally:
        with open(spans_path, "w") as fh:
            json.dump(tracer.spans, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
