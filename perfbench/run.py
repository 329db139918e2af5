"""catassoc benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload cli-select-1m --seed 1 --seconds 20 --trace 0

The workload's inputs are generated from --seed into a scratch directory of
the checkout (removed on exit), several times, and the median generation time
is ``setup_s``.  Then the workload's fixed operation sequence (a pass) runs
again and again, one operation at a time, until the next pass would end after
--seconds (at least two passes, or one untraced/traced pair).  Every output is
checked against the workload's oracle, and the stdout of an operation must be
byte-identical across the run.  An operation fails on a nonzero exit, a
traceback, an exception or a failed check.

--trace 0: each operation runs in a child process, ``python -m catassoc.cli``
or worker.py for library calls, with PYTHONPATH=src, started by spawner.py.
CPU and peak RSS come from that child's wait4 record.  Metrics: median over
passes of wall_s, cpu_s and peak_rss_mb, plus setup_s.

--trace 1: passes run in this process (CLI operations through
catassoc.cli.main with stdout captured), alternating untraced and traced.
Metrics: the per-layer metrics of tracing.py (median over traced passes),
``cli.startup_s`` (a child that only imports catassoc.cli) and
``trace.overhead_s`` (traced minus untraced pass wall).

--smoke shrinks every input so that a run takes seconds.
--spans FILE writes the traced run's spans as JSON lines.

The next-to-last stdout line records the environment and the per-pass values;
the last line is {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from workloads import API_OPS, WORKLOADS, load_table

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run must end within 180 s: no pass starts that would end after
# PASS_BUDGET_S, and a child still running at KILL_AFTER_S is killed.
PASS_BUDGET_S = 150.0
KILL_AFTER_S = 170.0
MIN_SETUP_S = 0.5
MIN_SETUP_REPS = 3
MAX_SETUP_REPS = 500
STARTUP_REPS = 3


@dataclass
class Outcome:
    """One executed operation."""

    name: str
    out: bytes
    error: str | None
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0


class Spawner:
    """The spawner.py process of a run: it starts every child and returns
    the child's exit code, wall time and wait4 CPU and peak RSS."""

    def __init__(self, workdir: Path):
        self.out, self.err = workdir / "child.out", workdir / "child.err"
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=dict(os.environ, PYTHONPATH=str(SRC)))

    def run(self, argv: list[str], deadline: float):
        req = {"argv": [sys.executable, *argv], "out": str(self.out),
               "err": str(self.err), "timeout": deadline - time.monotonic()}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        rec = json.loads(self.proc.stdout.readline())
        return rec, self.out.read_bytes(), self.err.read_bytes()

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)


def run_child(op, spawner: Spawner, deadline: float) -> Outcome:
    if op.api:
        argv = [str(HERE / "worker.py"), op.name, *op.args]
    else:
        argv = ["-m", "catassoc.cli", *op.args]
    rec, out, err = spawner.run(argv, deadline)
    res = Outcome(op.name, out, None, rec["wall_s"], rec["cpu_s"], rec["rss_mb"])
    if rec["code"] != 0 or b"Traceback" in err:
        res.error = f"exit {rec['code']}: {err.decode(errors='replace')[-400:]}"
    elif op.api:  # time the library call only, as measured inside the worker
        try:
            timing = json.loads(err.decode().strip().splitlines()[-1])
            res.wall_s, res.cpu_s = timing["wall_s"], timing["cpu_s"]
        except (IndexError, ValueError, KeyError):
            res.error = f"no timing from the worker: {err.decode(errors='replace')[-400:]}"
    return res


def run_inprocess(op, tables) -> Outcome:
    try:
        if op.api:
            result = API_OPS[op.name](*tables[op.args[0]])
            return Outcome(op.name, (json.dumps(result, sort_keys=True) + "\n").encode(), None)
        import catassoc.cli
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = catassoc.cli.main(list(op.args))
        error = None if code == 0 else f"exit {code}: {err.getvalue()[-400:]}"
        return Outcome(op.name, out.getvalue().encode(), error)
    except Exception as e:  # any exception is a failed operation, not a crash
        return Outcome(op.name, b"", f"{type(e).__name__}: {e}")


class Checker:
    """Counts operations and failures; checks outputs and their stability."""

    def __init__(self, wl):
        self.wl = wl
        self.first: dict[str, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def __call__(self, op, res: Outcome) -> None:
        self.attempted += 1
        error = res.error
        if error is None:
            try:
                error = self.wl.check(op, res.out)
            except (ValueError, KeyError, TypeError) as e:
                error = f"unreadable output: {type(e).__name__}: {e}"
        if error is None and self.first.setdefault(op.name, res.out) != res.out:
            error = "stdout differs from the first run of this operation"
        if error is not None:
            self.failed += 1
            self.errors.append(f"{op.name}: {error}")


def _median(xs):
    return float(statistics.median(xs))


def timed_setup(wl):
    """Generate the inputs several times; return the sizes and the median time."""
    times = []
    while True:
        t0 = time.perf_counter()
        sizes = wl.setup()
        times.append(time.perf_counter() - t0)
        if len(times) >= MAX_SETUP_REPS or (
                len(times) >= MIN_SETUP_REPS and sum(times) >= MIN_SETUP_S):
            return sizes, _median(times)


def _keep_going(durations, t_start, seconds, min_passes, t_process):
    """Start another pass only if it should end within --seconds (after the
    first ``min_passes``) and within the run's budget."""
    now = time.monotonic()
    est = _median(durations)
    if now - t_process + est > PASS_BUDGET_S:
        return False
    return len(durations) < min_passes or now - t_start + est <= seconds


def measure_untraced(ops, seconds, spawner, check, t_process):
    deadline = t_process + KILL_AFTER_S
    passes, durations = [], []
    t_start = time.monotonic()
    while True:
        t0 = time.perf_counter()
        results = [run_child(op, spawner, deadline) for op in ops]
        durations.append(time.perf_counter() - t0)
        for op, res in zip(ops, results):
            check(op, res)
        passes.append({"wall_s": sum(r.wall_s for r in results),
                       "cpu_s": sum(r.cpu_s for r in results),
                       "peak_rss_mb": max(r.rss_mb for r in results),
                       "op_wall_s": {r.name: r.wall_s for r in results}})
        if not _keep_going(durations, t_start, seconds, 2, t_process):
            return passes


def measure_traced(wl, ops, seconds, check, t_process, spans_path):
    import catassoc.cli  # noqa: F401  import outside every timed pass
    from tracing import Tracer

    tables = {op.args[0]: load_table(op.args[0]) for op in ops if op.api}
    tracer = Tracer()
    pairs, durations = [], []
    t_start = time.monotonic()
    while True:
        t0 = time.perf_counter()
        results = [run_inprocess(op, tables) for op in ops]
        untraced = time.perf_counter() - t0
        run_id = f"{type(wl).__name__}:{wl.seed}:{len(pairs)}"
        with tracer.installed():
            t1 = time.perf_counter()
            with tracer.root(run_id):
                results += [run_inprocess(op, tables) for op in ops]
            traced = time.perf_counter() - t1
        durations.append(untraced + traced)
        for op, res in zip(ops + ops, results):
            check(op, res)
        metrics = tracer.metrics(run_id)
        metrics["trace.overhead_s"] = traced - untraced
        pairs.append(metrics)
        if not _keep_going(durations, t_start, seconds, 1, t_process):
            break
    if spans_path:
        tracer.dump(spans_path)
    return pairs


def cli_startup_s(spawner: Spawner) -> float:
    walls = []
    for _ in range(STARTUP_REPS):
        rec, _, err = spawner.run(["-c", "import catassoc.cli"], time.monotonic() + 30.0)
        if rec["code"] != 0:
            raise RuntimeError(f"import catassoc.cli failed: {err.decode(errors='replace')}")
        walls.append(rec["wall_s"])
    return _median(walls)


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            model = next((ln.split(":", 1)[1].strip() for ln in f
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "platform": platform.platform()}


UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def _unit(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith("_ms") or "_ms_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_share") else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for the test")
    p.add_argument("--spans", default=None, help="write traced spans to this file")
    args = p.parse_args(argv)
    t_process = time.monotonic()
    if not (SRC / "catassoc" / "__init__.py").is_file():
        print(f"error: no catassoc sources under {SRC}", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    spawner = Spawner(workdir)
    try:
        wl = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        sizes, setup_s = timed_setup(wl)
        ops = wl.ops()
        check = Checker(wl)
        if args.trace:
            per_pass = measure_traced(wl, ops, args.seconds, check, t_process, args.spans)
            metrics = {k: _median([m[k] for m in per_pass]) for k in per_pass[0]}
            metrics["cli.startup_s"] = cli_startup_s(spawner)
        else:
            per_pass = measure_untraced(ops, args.seconds, spawner, check, t_process)
            metrics = {k: _median([m[k] for m in per_pass])
                       for k in ("wall_s", "cpu_s", "peak_rss_mb")}
            metrics["setup_s"] = setup_s
    finally:
        spawner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    for e in check.errors[:10]:
        print(f"check failed: {e}", file=sys.stderr)
    detail = {"env": environment(), "workload": args.workload, "seed": args.seed,
              "trace": args.trace, "smoke": args.smoke, "sizes": sizes,
              "setup_s": setup_s, "passes": per_pass}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
