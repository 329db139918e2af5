"""Run a fixed corpus of ``catassoc`` commands and record what each prints.

    python tools/cli_corpus.py SRC OUT.json
    python tools/cli_corpus.py --compare A.json B.json

The first form imports ``catassoc`` from the directory ``SRC`` (the
``src`` folder of a checkout), runs every command of the corpus in-process
through ``catassoc.cli.main`` and writes, per command, its exit code, its
stdout, its stderr and the bytes of any ``--out`` file to ``OUT.json``.  An
exception that escapes ``main`` is recorded as the command's result, with
the code ``"exception"`` and the exception's type and message as stderr.
The inputs are written to a temporary directory, whose path reads
``{dir}`` in the commands and in what they print, so two checkouts give
comparable files.  The second form lists the commands whose records
differ and, for JSON reports, the fields that differ and by how much.  It
exits 1 when any command differs.

The corpus covers every subcommand and format, error paths, the five
bundled fixtures, 60 seeded random CSVs, 3 wide ones, two administrative
ones with many repeated records, CSVs with a constant column, two
with CRLF or no final newline, a blank line, long lines and labels that
are not ASCII, and three of 2^16 + 8 records with a new label, a
missing cell or a ragged row just past read_csv's first block of lines,
and one of 160,000 records whose validate test split spans three blocks
of test records, with cells unseen in training in each:
about 3,300 commands, recorded in about 25 s on a 2-core Xeon virtual
machine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np

FIXTURE_COLUMNS = {
    "loan": ["On-Time", "Age", "Income", "Credit", "Risk"],
    "survey": ["X", "Y"],
    "sevenths": ["X1", "X2", "Y"],
    "sixths": ["X1", "X2", "Y"],
    "tenths": ["X1", "X2", "Y"],
}
N_GENERATED = 60
N_WIDE = 3


def _write_inputs(root: Path) -> dict[str, list[str]]:
    """Write the CSV inputs into ``root``; return each data input's columns."""
    def csv(name, header, rows):
        (root / name).write_text(
            ",".join(header) + "\n" + "".join(",".join(r) + "\n" for r in rows),
            encoding="utf-8")
        return name

    inputs = {}
    for k in range(N_GENERATED):
        rng = np.random.default_rng(1000 + k)
        n = int(rng.integers(20, 400))
        sizes = rng.integers(2, [8, 6, 30, 5])
        cols = [rng.integers(0, s, n) for s in sizes]
        # Y leans on A and B, so degrees are neither 0 nor 1.
        noise = rng.random(n) < rng.uniform(0.1, 0.9)
        cols[3] = np.where(noise, cols[3], (cols[0] + cols[1]) % sizes[3])
        header = ["A", "B", "C", "Y"]
        rows = [[f"{h.lower()}{v}" for h, v in zip(header, r)] for r in zip(*cols)]
        inputs[csv(f"gen{k:02d}.csv", header, rows)] = header
    rng = np.random.default_rng(7)
    y = [f"y{v}" for v in rng.integers(0, 3, 60)]
    z = [f"z{v}" for v in rng.integers(0, 4, 60)]
    # Y shares of 1/5, 1/5 and 3/5: a constant X once scored lifts of 3.5e-17.
    shares = [("y0", "y1", "y2", "y2", "y2")[i % 5] for i in range(60)]
    inputs[csv("const_x.csv", ["X", "Z", "Y"], zip(["k"] * 60, z, shares))] = ["X", "Z", "Y"]
    inputs[csv("const_y.csv", ["X", "Z", "Y"], zip(z, y, ["k"] * 60))] = ["X", "Z", "Y"]
    inputs[csv("one_col.csv", ["Y"], [["k"]] * 5)] = ["Y"]
    inputs[csv("rare.csv", ["X", "Y"], [["c", "a"]] * 5 + [["c", "b"]] * 5
               + [["d", "a"]])] = ["X", "Y"]
    # X1 and X2 determine each other and Y.
    inputs[csv("determined.csv", ["X1", "X2", "Y"],
               [[f"p{i % 6}", f"q{(i % 6) * 7 % 6}", f"y{i % 3}"] for i in range(36)])] = \
        ["X1", "X2", "Y"]
    # 150 categories in W: the first select step counts 3 x 150 keys, past
    # 255, so the search counts both uint8 and uint16 step keys.
    rng = np.random.default_rng(9)
    w, a, b = rng.integers(0, [150, 3, 4], (2000, 3)).T
    y = np.where(rng.random(2000) < 0.7, (w + a) % 3, rng.integers(0, 3, 2000))
    csv("wide.csv", ["W", "A", "B", "Y"], ([f"w{p}", f"a{q}", f"b{r}", f"y{s}"]
                                           for p, q, r, s in zip(w, a, b, y)))
    # 12-16 columns of 2-40 categories: select and basis steps count their
    # candidates in several groups, and wide candidates alone.
    for k in range(N_WIDE):
        rng = np.random.default_rng(2000 + k)
        sizes = rng.integers(2, 41, int(rng.integers(12, 17)))
        cols = [rng.integers(0, s, 3000) for s in sizes]
        cols[-1] = np.where(rng.random(3000) < 0.8, (cols[0] + cols[1]) % sizes[-1], cols[-1])
        header = [f"V{j}" for j in range(len(cols) - 1)] + ["Y"]
        csv(f"wide{k}.csv", header, ([f"c{v}" for v in r] for r in zip(*cols)))
    # Administrative tables: three base columns and three columns derived
    # from them, 3,000 records over at most 120 distinct rows.  In
    # admin_bad.csv one record breaks D2, so D2 is determined only within eps.
    rng = np.random.default_rng(11)
    b1, b2, b3 = rng.integers(0, [5, 4, 6], (3000, 3)).T
    d2 = (b1 + b3) % 3
    bad = d2.copy()
    bad[1717] = (bad[1717] + 1) % 3
    for name, col in (("admin.csv", d2), ("admin_bad.csv", bad)):
        csv(name, ["B1", "B2", "B3", "D1", "D2", "D3"],
            ([f"b{p}", f"c{q}", f"e{r}", f"d{s}", f"f{t}", f"g{v}"] for p, q, r, s, t, v
             in zip(b1, b2, b3, b1 * 4 + b2, col, np.maximum(b2, b3))))
    # Ingest shapes: CRLF line ends around a blank line, and LF line ends
    # with no final newline; lines past 16 bytes and labels that are not ASCII.
    rows = [[f"a{i % 3}", ("gr\u00fcn-\u00e9t\u00e9-long-label-" if i % 4 else "b") + str(i % 2),
             f"y{(i % 3 + i % 2) % 2}"] for i in range(40)]
    lines = [",".join(r) for r in [["A", "B", "Y"]] + rows]
    (root / "crlf.csv").write_bytes("\r\n".join(lines[:21] + [""] + lines[21:] + [""]).encode())
    (root / "no_eol.csv").write_bytes("\n".join(lines).encode())
    inputs["crlf.csv"] = inputs["no_eol.csv"] = ["A", "B", "Y"]
    (root / "missing.csv").write_text("A,B,Y\na,,0\nb,x,1\n,y,0\na,x,1\nb,y,0\n",
                                      encoding="utf-8")
    inputs["missing.csv"] = ["A", "B", "Y"]
    (root / "quoted.csv").write_bytes(b'X1,"X2",Y\n"a,b",x,0\nc,"y ""z""",1\nc,x,1\n')
    inputs["quoted.csv"] = ["X1", "X2", "Y"]
    # 2^16 + 8 records, so that read_csv's first block of lines ends within
    # each file: a label first seen, a missing cell or a ragged row is the
    # first line after it (data line 2^16 + 1) and again three lines on.
    rows = [[f"a{i % 3}", f"b{i % 4}", f"y{(i % 3 + (i % 5 == 0)) % 2}"] for i in range(2**16 + 6)]
    for name, row in (("block_late.csv", ["a9", "b1", "y1"]), ("block_gap.csv", ["a1", "", "y0"]),
                      ("block_ragged.csv", ["a1", "b0", "y0", "z"])):
        csv(name, ["A", "B", "Y"], rows[:2**16] + [row] + rows[2**16:2**16 + 2] + [row]
            + rows[2**16 + 2:])
    inputs["block_late.csv"] = inputs["block_gap.csv"] = ["A", "B", "Y"]
    # 160,000 records: validate --train 0.1 draws and tallies 144,000 test
    # records in three blocks of 2^16, and rare X cells absent from the
    # training split occur in each of them.
    rng = np.random.default_rng(13)
    x = np.where(rng.random(160_000) < 0.98, rng.integers(0, 10, 160_000),
                 rng.integers(10, 1510, 160_000))
    y = np.where(rng.random(160_000) < 0.6, x % 3, rng.integers(0, 3, 160_000))
    csv("validate_blocks.csv", ["X", "Y"], ([f"x{p}", f"y{q}"] for p, q in zip(x, y)))
    (root / "latin1.csv").write_bytes(b"A,Y\na,0\n\xff,1\n")
    (root / "ragged.csv").write_bytes(b"A,B,Y\na,b,0\nc,1\n")
    (root / "dup.csv").write_bytes(b"A,A,Y\na,b,0\n")
    (root / "empty.csv").write_bytes(b"")
    (root / "w3.csv").write_text("1,2,3\n", encoding="utf-8")
    (root / "w_bad.csv").write_text("1,x\n", encoding="utf-8")
    (root / "w_nan.csv").write_text("0.5,nan,0.5\n", encoding="utf-8")
    return inputs


def _data_commands(source: str, cols: list[str], full: bool) -> list[list[str]]:
    """Commands over one input whose last column is the response (or the
    only one, also as the explanatory variable).  ``full`` adds every
    format and scheme; otherwise one of each command."""
    y, xs = cols[-1], cols[:-1] or cols
    i = ["-i", source]
    fmts = ["text", "json", "csv"] if full else ["json"]
    schemes = ["gk", "ew", "ipw"] if full else ["gk"]
    out = []
    for x in xs + ([",".join(xs[:2])] if len(xs) > 1 else []):
        for cmd in ("matrix", "vector"):
            out += [[cmd, *i, "--x", x, "--y", y, "--format", f] for f in fmts]
        out += [["tau", *i, "--x", x, "--y", y, "--weights", w, "--format", f]
                for w in schemes for f in ("text", "json")]
    if len(xs) > 1:
        for w in schemes:
            for tol in (["--tol", "0"], []):
                out += [["equiv", *i, "--x1", xs[0], "--x2", xs[1], "--y", y,
                         "--weights", w, *tol, "--format", f] for f in ("text", "json")]
    out += [["select", *i, "--response", y, "--weights", w, "--eps", e, "--format", f]
            for w in schemes for e in ("0", "0.01") for f in ("text", "json")]
    out += [["basis", *i, *m, "--eps", e, "--format", f] for m in ([], ["--minimal"])
            for e in ("0", "1e-9") for f in (("text", "json") if full else ("json",))]
    out += [["validate", *i, "--x", xs[0], "--y", y, "--seed", "3", "--format", f]
            for f in ("text", "json")]
    for stat, sub in (("retention", xs[:1]), ("tau", xs[:2])):
        out += [["bootstrap", *i, "--stat", stat, "--response", y, "--subset", ",".join(sub),
                 "--B", "40", "--seed", "5", "--weights", w, "--format", f]
                for w in schemes for f in ("text", "json")]
    return out


def corpus(inputs: dict[str, list[str]]) -> list[tuple[list[str], dict]]:
    """(argv, environment overrides) of every command, in a fixed order."""
    cmds = []
    for name, cols in FIXTURE_COLUMNS.items():
        cmds += _data_commands(name, cols, full=True)
    for name, cols in inputs.items():
        cmds += _data_commands("{dir}/" + name, cols, full=not name.startswith(("gen", "block")))
    d = "{dir}/"
    cmds += [
        ["tau", "-i", d + "missing.csv", "--missing", "as_category", "--x", "A", "--y", "Y"],
        ["tau", "-i", d + "block_gap.csv", "--missing", "as_category", "--x", "B", "--y", "Y"],
        ["validate", "-i", d + "block_gap.csv", "--missing", "as_category", "--x", "A,B",
         "--y", "Y", "--seed", "3", "--format", "json"],
        ["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--weights-file", d + "w3.csv"],
        ["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--weights-file", d + "w_bad.csv"],
        ["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--weights-file", d + "w_nan.csv"],
        ["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--weights-file", d + "nope.csv"],
        ["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--out", d + "out.txt"],
        ["tau", "-i", "loan", "--x", "Age", "--y", "Risk", "--out", d + "no/out.txt"],
        ["vector", "-i", "loan", "--x", "Age", "--y", "Risk", "--format", "json",
         "--out", d + "out.json"],
        ["bootstrap", "-i", "loan", "--stat", "retention", "--response", "Risk",
         "--subset", "Age", "--B", "200", "--n", "100", "--seed", "1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--B", "0", "--seed", "1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--level", "1.5", "--seed", "1"],
        ["bootstrap", "-i", "loan", "--stat", "retention", "--response", "Risk",
         "--subset", "Nope", "--seed", "1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk", "--seed", "-1"],
        ["validate", "-i", "loan", "--x", "Age", "--y", "Risk", "--train", "1.5",
         "--seed", "1"],
        ["validate", "-i", "loan", "--x", "Age", "--y", "Risk"],
        ["select", "-i", "loan", "--response", "Risk", "--eps", "nan"],
        ["select", "-i", "loan", "--response", "Risk", "--eps", "-1"],
        ["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2", "--y", "Y", "--tol", "inf"],
        ["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X1", "--y", "Y"],
        ["equiv", "-i", "tenths", "--x1", "X1", "--x2", "Nope", "--y", "Y"],
        ["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2", "--y", "X1"],
        ["simulate", "flu", "--n", "30", "--seed", "2"],
        ["simulate", "flu", "--n", "30", "--seed", "2", "--format", "json"],
        ["simulate", "flu", "--n", "0", "--seed", "2"],
        # sizes numpy refuses before it allocates anything
        ["simulate", "flu", "--n", str(10**20), "--seed", "1"],
        ["simulate", "flu", "--n", str(2**62), "--seed", "1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--B", str(10**20), "--seed", "1"],
        ["bootstrap", "-i", "loan", "--stat", "tau", "--response", "Risk",
         "--B", str(2**62), "--seed", "1"],
        ["simulate", "nope", "--n", "3", "--seed", "2"],
        ["fixtures", "--name", "nope"],
        ["nope"],
        [],
    ]
    cmds += [["select", "-i", d + "wide.csv", "--response", "Y", "--weights", w, "--eps", e,
              "--format", "json"] for w in ("gk", "ew", "ipw") for e in ("0", "0.01")]
    cmds += [["basis", "-i", d + "wide.csv", *m, "--eps", e, "--format", "json"]
             for m in ([], ["--minimal"]) for e in ("0", "1e-9")]
    cmds += [["basis", "-i", d + name, *m, "--eps", e, "--format", f]
             for name in ("admin.csv", "admin_bad.csv") for m in ([], ["--minimal"])
             for e in ("0", "1e-9", "0.01") for f in ("text", "json")]
    cmds += [["validate", "-i", d + "validate_blocks.csv", "--x", "X", "--y", "Y",
              "--train", "0.1", "--seed", seed, "--format", f]
             for seed in ("3", "8") for f in ("text", "json")]
    for k in range(N_WIDE):
        cmds += [["select", "-i", f"{d}wide{k}.csv", "--response", "Y", "--weights", w,
                  "--eps", e, "--format", "json"]
                 for w in ("gk", "ew", "ipw") for e in ("0", "0.01")]
        cmds += [["basis", "-i", f"{d}wide{k}.csv", "--eps", e, "--format", "json"]
                 for e in ("0", "1e-9")]
    for name in FIXTURE_COLUMNS:
        cmds += [["fixtures", "--name", name, "--format", f] for f in ("text", "json")]
    for x, y in (("Nope", "Risk"), ("Age", "Nope"), ("Risk", "Risk"), ("Age,Age", "Risk"),
                 ("Nope", "Nope"), (",", "Risk")):
        cmds += [[c, "-i", "loan", "--x", x, "--y", y] for c in
                 ("matrix", "vector", "tau", "validate")]
    for src in ("latin1.csv", "ragged.csv", "block_ragged.csv", "dup.csv", "empty.csv",
                "nope.csv"):
        cmds += [["tau", "-i", d + src, "--x", "A", "--y", "Y"],
                 ["basis", "-i", d + src]]
    for c in ("const_y.csv", "one_col.csv"):
        cmds += [["tau", "-i", d + c, "--x", "Y", "--y", "Y"],
                 ["select", "-i", d + c, "--response", "Y"],
                 ["equiv", "-i", d + c, "--x1", "Y", "--x2", "Y", "--y", "Y"],
                 ["bootstrap", "-i", d + c, "--stat", "retention", "--response", "Y",
                  "--subset", "Nope", "--seed", "1"]]
    cmds = [(argv, {}) for argv in cmds]
    cmds += [(["tau", "-i", "loan", "--x", "Age", "--y", "Risk"], {"CATASSOC_TOL": "abc"}),
             (["equiv", "-i", "tenths", "--x1", "X1", "--x2", "X2", "--y", "Y"],
              {"CATASSOC_TOL": "0.5"}),
             (["select", "-i", "loan", "--response", "Risk"], {"CATASSOC_EPS": "0.01"})]
    return cmds


def _key(argv: list[str], env: dict) -> str:
    return " ".join([*(f"{k}={v}" for k, v in sorted(env.items())), "catassoc", *argv])


def record(src: str) -> dict[str, dict]:
    """Run the corpus against the package in ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    from catassoc.cli import main

    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for argv, env in corpus(_write_inputs(root)):
            real = [a.replace("{dir}", tmp) for a in argv]
            out_path = next((b for a, b in zip(real, real[1:]) if a == "--out"), None)
            # Only the command's own overrides of the tolerance defaults apply.
            environ = {k: v for k, v in os.environ.items() if not k.startswith("CATASSOC_")}
            stdout, stderr, error = io.StringIO(), io.StringIO(), None
            with mock.patch.dict(os.environ, environ | env, clear=True), \
                    contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                    warnings.catch_warnings():
                warnings.simplefilter("always")
                try:
                    code = main(real)
                except SystemExit as e:
                    code = e.code
                except Exception as e:  # recorded, so that every command is compared
                    code, error = "exception", f"{type(e).__name__}: {e}\n"
            rec = {"code": code, "stdout": stdout.getvalue().replace(tmp, "{dir}"),
                   "stderr": (error or stderr.getvalue()).replace(tmp, "{dir}")}
            if out_path and os.path.exists(out_path):
                rec["out"] = Path(out_path).read_text(encoding="utf-8").replace(tmp, "{dir}")
                os.remove(out_path)
            results[_key(argv, env)] = rec
    return results


def _json_diffs(a, b, path=""):
    """Paths of the leaves that differ between two parsed JSON values, with
    the absolute difference of numeric leaves."""
    if isinstance(a, dict) and isinstance(b, dict) and a.keys() == b.keys():
        return [d for k in a for d in _json_diffs(a[k], b[k], f"{path}.{k}")]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        return [d for k, (u, v) in enumerate(zip(a, b)) for d in _json_diffs(u, v, f"{path}[{k}]")]
    if a == b:
        return []
    numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (a, b))
    return [f"{path} ({abs(a - b):.3g})" if numeric else f"{path}: {a!r} -> {b!r}"]


def compare(a: dict, b: dict) -> list[str]:
    """One line per command whose records differ."""
    lines = []
    for key in sorted(a.keys() | b.keys()):
        ra, rb = a.get(key), b.get(key)
        if ra == rb:
            continue
        if ra is None or rb is None:
            lines.append(f"{key}: only in {'B' if ra is None else 'A'}")
            continue
        parts = []
        for field in ("code", "stderr", "stdout", "out"):
            if ra.get(field) == rb.get(field):
                continue
            try:
                diffs = _json_diffs(json.loads(ra[field]), json.loads(rb[field]))
                parts.append(f"{field} JSON " + ", ".join(diffs))
            except (TypeError, KeyError, ValueError):
                parts.append(field)
        lines.append(f"{key}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 3 and argv[0] == "--compare":
        a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in argv[1:])
        lines = compare(a, b)
        print("\n".join(lines + [f"{len(lines)} of {len(a.keys() | b.keys())} commands differ"]))
        return 1 if lines else 0
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    results = record(argv[0])
    Path(argv[1]).write_text(json.dumps(results, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    print(f"{len(results)} commands recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
