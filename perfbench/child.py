"""Run `python -m cdspectra.cli ARGS...` and record this process's own peak RSS.

Usage: python3 perfbench/child.py RSS_FILE ARGS...

`ru_maxrss` from `wait4` also counts the process that spawned the child:
Linux keeps the peak of the address space it replaces at exec, which is the
benchmark's own.  `VmHWM` in /proc/self/status covers only the address
space of this program, so it is written (in KiB) to RSS_FILE at exit.
"""

import os
import runpy
import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> None:
    rss_path = sys.argv[1]
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    sys.path[0] = os.getcwd()           # as `python -m` sets it
    try:
        runpy.run_module("cdspectra.cli", run_name="__main__", alter_sys=True)
    finally:
        with open(rss_path, "w") as fh:
            fh.write(str(peak_rss_kib()))


if __name__ == "__main__":
    main()
