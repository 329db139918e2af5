"""Run one library operation of the benchmark in a fresh process.

    PYTHONPATH=src python3 perfbench/worker.py <select_basis|basis_verify> <table.npz>

Prints the operation's result as JSON on stdout and, as the last line of
stderr, its wall and CPU seconds (user + sys of every thread of this process),
measured around the call only.  run.py reads peak RSS from wait4.
"""

import json
import resource
import sys
import time

import catassoc  # noqa: F401  imported before the timer starts

from workloads import API_OPS, load_table


def main() -> None:
    name, path = sys.argv[1], sys.argv[2]
    names, sizes, records = load_table(path)
    r0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    result = API_OPS[name](names, sizes, records)
    wall = time.perf_counter() - t0
    r1 = resource.getrusage(resource.RUSAGE_SELF)
    cpu = (r1.ru_utime - r0.ru_utime) + (r1.ru_stime - r0.ru_stime)
    sys.stdout.write(json.dumps(result, sort_keys=True) + "\n")
    sys.stderr.write(json.dumps({"wall_s": wall, "cpu_s": cpu}) + "\n")


if __name__ == "__main__":
    main()
