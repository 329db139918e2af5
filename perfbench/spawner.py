"""Start the benchmark's child processes and report their wait4 records.

run.py keeps one of these running for the whole run and sends it one JSON
request per line on stdin: {"argv": [...], "out": path, "err": path,
"timeout": seconds}.  It answers each with one JSON line on stdout:
{"code", "wall_s", "cpu_s", "rss_mb"}.

It is a separate, small process because on Linux a child started with
vfork (as posix_spawn does) begins with its spawner's peak RSS as its own:
spawned from the benchmark process, whose set-up can peak at hundreds of MB,
every child would report at least that peak.  This process never imports
numpy, so it stays below the peak of any child it starts.
"""

import json
import os
import select
import signal
import sys
import time


def run(argv, out, err, timeout):
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, out, flags, 0o600),
               (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o600)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        ready, _, _ = select.select([pidfd], [], [], max(0.0, timeout))
        if not ready:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    wall = time.perf_counter() - t0
    return {"code": os.waitstatus_to_exitcode(status) if ready else "timeout",
            "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0}


def main():
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(**json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
