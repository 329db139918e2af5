"""Command-line front end.

Subcommands: matrix, vector, tau, equiv, select, basis, validate,
bootstrap, simulate, fixtures.  Input is a UTF-8 CSV with a header row;
all cells are opaque category labels and empty cells are missing.

Every command is deterministic given its flags; randomized commands
require an explicit ``--seed`` and embed it in their JSON report, which
also carries the full configuration so a run can be reproduced from its
output alone.  Exit codes: 0 success, 2 usage error, 3 data error,
4 numeric-domain error.

Defaults for the tolerance flags can be overridden with the
``CATASSOC_TOL`` and ``CATASSOC_EPS`` environment variables.
"""

from __future__ import annotations

import argparse
import csv as _csv
import io
import math
import os
import sys
from dataclasses import asdict, dataclass, fields

import numpy as np

from . import report as rep
from .association import association_matrix, association_vector, make_weights
from .basis import minimal_basis, structural_basis, verify_basis
from .dataset import Dataset, _decode, contingency, read_csv
from .equivalence import equivalence_levels
from .errors import DataError, NumericDomainError
from .fixtures import FIXTURES, fixture
from .predict import split_validate
from .resample import count_bootstrap
from .selection import SelectionTrace, select_basis, tau_joint
from .simgen import gen_flu

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_DOMAIN = 4


def _env_float(name: str, default: float) -> float:
    raw = os.environ.get(name)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise DataError(f"environment variable {name} is not a number: {raw!r}")


@dataclass
class RunConfig:
    """Everything needed to reproduce a run; embedded in JSON reports."""

    command: str
    input: str | None = None
    x: list[str] | None = None
    y: str | None = None
    x2: str | None = None
    weights: str = "gk"
    weights_file: str | None = None
    tol: float = 1e-9
    eps: float = 1e-9
    seed: int | None = None
    train_frac: float | None = None
    B: int | None = None
    n: int | None = None
    stat: str | None = None
    subset: list[str] | None = None
    level: float | None = None
    name: str | None = None
    minimal: bool = False
    format: str = "text"
    out: str | None = None
    missing: str = "drop_row"


def _nonnegative_int(raw: str) -> int:
    """Argument type for seeds and record counts."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {raw!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative: {raw}")
    return value


def _split_vars(raw: str) -> list[str]:
    """Argument type for comma-separated variable lists."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise argparse.ArgumentTypeError(f"empty variable list: {raw!r}")
    return parts


def _load(cfg: RunConfig) -> Dataset:
    if cfg.input is None:
        raise DataError("this command needs --input")
    if cfg.input in FIXTURES:
        return fixture(cfg.input)
    return read_csv(cfg.input, missing_policy=cfg.missing)


def _weights_for(cfg: RunConfig):
    """The custom weights of ``--weights-file``, else the ``--weights`` name."""
    if not cfg.weights_file:
        return cfg.weights
    with open(cfg.weights_file, "rb") as f:
        data = f.read()
    try:
        rows = _csv.reader(io.StringIO(_decode(data), newline=""))
        vals = [float(c) for row in rows for c in row if c.strip()]
    except (DataError, _csv.Error, ValueError) as e:
        raise DataError(f"weights file {cfg.weights_file}: {e}") from None
    return make_weights("custom", custom=np.asarray(vals))


def _emit(cfg: RunConfig, text: str) -> None:
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _json_out(cfg: RunConfig, result: dict) -> str:
    return rep.stable_json({"config": asdict(cfg), "result": result})


def _dataset_csv(ds: Dataset) -> str:
    buf = io.StringIO()
    w = _csv.writer(buf, lineterminator="\n")
    w.writerow(ds.names)
    w.writerows(zip(*(ds.labels(nm) for nm in ds.names)))
    return buf.getvalue()


def _cmd_matrix(cfg: RunConfig) -> str:
    ds = _load(cfg)
    j = contingency(ds, cfg.x, cfg.y)
    if cfg.format == "json":
        return _json_out(cfg, rep.association_report(j))
    gamma = association_matrix(j)
    if cfg.format == "csv":
        return rep.matrix_csv(gamma.gamma, gamma.y_domain)
    return rep.matrix_text(gamma.gamma, gamma.y_domain, gamma.y_domain)


def _cmd_vector(cfg: RunConfig) -> str:
    ds = _load(cfg)
    j = contingency(ds, cfg.x, cfg.y)
    if cfg.format == "json":
        return _json_out(cfg, rep.association_report(j))
    theta = association_vector(j)
    if cfg.format == "csv":
        return rep.matrix_csv(theta.theta[None, :], theta.y_domain)
    return rep.matrix_text(theta.theta[None, :], theta.y_domain)


def _cmd_tau(cfg: RunConfig) -> str:
    ds = _load(cfg)
    value = tau_joint(ds, cfg.y, cfg.x, alpha=_weights_for(cfg))
    if cfg.format == "json":
        return _json_out(cfg, {"tau": value, "weights": cfg.weights})
    return rep.fmt4(value)


def _cmd_equiv(cfg: RunConfig) -> str:
    ds = _load(cfg)
    levels = equivalence_levels(ds, cfg.x[0], cfg.x2, cfg.y,
                                alpha=_weights_for(cfg), tol=cfg.tol)
    result = rep.equivalence_report(levels)
    if cfg.format == "json":
        return _json_out(cfg, result)
    lines = [f"pair: {cfg.x[0]}, {cfg.x2}   response: {cfg.y}   tol: {cfg.tol:g}"]
    for i in range(1, 6):
        lines.append(f"  level {i}: {'yes' if result[f'e{i}'] else 'no'}")
    lines.append(f"  strongest: {result['strongest']}")
    return "\n".join(lines)


def _steps_text(trace: SelectionTrace) -> list[str]:
    """The forward steps under a header naming the metric, then the pruned."""
    lines = [f"{'step':>4}  {'variable':<12}  {trace.metric}"]
    for k, s in enumerate(trace.forward_steps, 1):
        lines.append(f"{k:>4}  {s.variable:<12}  {rep.fmt4(s.value)}")
    lines.append(f"pruned: {', '.join(trace.pruned) or '(none)'}")
    return lines


def _cmd_select(cfg: RunConfig) -> str:
    ds = _load(cfg)
    trace = select_basis(ds, cfg.y, alpha=_weights_for(cfg), eps_gain=cfg.eps)
    if cfg.format == "json":
        return _json_out(cfg, rep.trace_report(trace))
    lines = _steps_text(trace)
    lines.append(f"basis: {', '.join(trace.basis)}")
    lines.append(f"tau_final: {rep.fmt4(trace.final)}")
    return "\n".join(lines)


def _cmd_basis(cfg: RunConfig) -> str:
    ds = _load(cfg)
    trace = structural_basis(ds, eps=cfg.eps)
    basis = list(trace.basis)
    if cfg.minimal:
        basis = list(minimal_basis(ds, eps=cfg.eps))
    check = verify_basis(ds, basis, eps=cfg.eps)
    result = rep.trace_report(trace)
    result["basis"] = basis
    result["verified"] = check.passed
    if cfg.format == "json":
        return _json_out(cfg, result)
    lines = _steps_text(trace)
    lines.append(f"basis: {', '.join(basis)}")
    lines.append(f"verified: {'yes' if check.passed else 'no'}")
    return "\n".join(lines)


def _cmd_validate(cfg: RunConfig) -> str:
    ds = _load(cfg)
    res = split_validate(ds, cfg.x, cfg.y,
                         train_frac=cfg.train_frac, seed=cfg.seed)
    if cfg.format == "json":
        result = {
            "train_gamma": res.train_gamma.gamma.tolist(),
            "test_confusion": res.test_confusion.counts.tolist(),
            "test_confusion_rates": res.test_confusion.normalized.tolist(),
            "max_abs_diff": res.max_abs_diff,
            "n_train": res.n_train,
            "n_test": res.n_test,
            "skipped_unseen": res.skipped_unseen,
            "seed": res.seed,
            "y_domain": list(res.train_gamma.y_domain),
        }
        return _json_out(cfg, result)
    body = rep.gamma_vs_confusion_text(res.train_gamma,
                                       res.test_confusion.normalized,
                                       res.train_gamma.y_domain)
    return (body + f"\nmax_abs_diff: {rep.fmt4(res.max_abs_diff)}"
            f"   skipped_unseen: {res.skipped_unseen}")


def _cmd_bootstrap(cfg: RunConfig) -> str:
    ds = _load(cfg)
    if cfg.n is not None and cfg.n < ds.n_records:
        rng = np.random.default_rng(cfg.seed)
        ds = ds.take(rng.choice(ds.n_records, size=cfg.n, replace=False))
    explanatory = [nm for nm in ds.names if nm != cfg.y]
    if cfg.stat == "retention":
        fullset, subset = explanatory, cfg.subset or explanatory
    else:
        fullset, subset = cfg.subset or explanatory, None
    res = count_bootstrap(ds, cfg.y, fullset, subset,
                          alpha=_weights_for(cfg),
                          B=cfg.B, level=cfg.level, seed=cfg.seed)
    result = {
        "stat": cfg.stat,
        "point": res.point,
        "mean": res.mean,
        "ci_low": res.ci_low,
        "ci_high": res.ci_high,
        "level": res.level,
        "B": cfg.B,
        "n": ds.n_records,
        "seed": res.seed,
    }
    if cfg.format == "json":
        return _json_out(cfg, result)
    return ("stat: {stat}   point: {p}   mean: {m}   "
            "ci: [{lo}, {hi}]   B: {B}   n: {n}   seed: {seed}").format(
        stat=cfg.stat, p=rep.fmt4(res.point), m=rep.fmt4(res.mean),
        lo=rep.fmt4(res.ci_low), hi=rep.fmt4(res.ci_high),
        B=cfg.B, n=ds.n_records, seed=res.seed)


def _cmd_simulate(cfg: RunConfig) -> str:
    ds = gen_flu(cfg.n, cfg.seed)
    if cfg.format == "json":
        return _json_out(cfg, {"n": ds.n_records, "seed": cfg.seed,
                               "columns": list(ds.names)})
    return _dataset_csv(ds)


def _cmd_fixtures(cfg: RunConfig) -> str:
    ds = fixture(cfg.name)
    if cfg.format == "json":
        return _json_out(cfg, {"name": cfg.name, "n": ds.n_records,
                               "columns": list(ds.names)})
    return _dataset_csv(ds)


_COMMANDS = {
    "matrix": _cmd_matrix,
    "vector": _cmd_vector,
    "tau": _cmd_tau,
    "equiv": _cmd_equiv,
    "select": _cmd_select,
    "basis": _cmd_basis,
    "validate": _cmd_validate,
    "bootstrap": _cmd_bootstrap,
    "simulate": _cmd_simulate,
    "fixtures": _cmd_fixtures,
}


def run(cfg: RunConfig) -> int:
    """Dispatch one configured command, writing its report."""
    try:
        if not all(math.isfinite(t) and t >= 0 for t in (cfg.tol, cfg.eps)):
            raise DataError("tolerances must be finite and nonnegative")
        _emit(cfg, _COMMANDS[cfg.command](cfg))
    except NumericDomainError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DOMAIN
    except (DataError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA
    except MemoryError:
        print(f"error: {cfg.command}: not enough memory for this input",
              file=sys.stderr)
        return EXIT_DATA
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    tol_default = _env_float("CATASSOC_TOL", 1e-9)
    eps_default = _env_float("CATASSOC_EPS", 1e-9)

    p = argparse.ArgumentParser(prog="catassoc",
                                description="Association analysis for categorical data")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, needs_input=True):
        if needs_input:
            sp.add_argument("--input", "-i", required=True,
                            help="CSV path, or a bundled fixture name "
                                 f"({', '.join(sorted(FIXTURES))})")
            sp.add_argument("--missing", choices=["drop_row", "as_category"],
                            default="drop_row")
        sp.add_argument("--format", choices=["text", "json", "csv"], default="text")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("matrix", help="association matrix of Y given X")
    common(sp)
    sp.add_argument("--x", required=True, type=_split_vars,
                    help="explanatory variable(s), comma-separated")
    sp.add_argument("--y", required=True)

    sp = sub.add_parser("vector", help="association vector of Y given X")
    common(sp)
    sp.add_argument("--x", required=True, type=_split_vars)
    sp.add_argument("--y", required=True)

    sp = sub.add_parser("tau", help="weighted association degree of Y given X")
    common(sp)
    sp.add_argument("--x", required=True, type=_split_vars)
    sp.add_argument("--y", required=True)
    sp.add_argument("--weights", choices=["gk", "ew", "ipw"], default="gk")
    sp.add_argument("--weights-file", default=None, dest="weights_file",
                    help="CSV of custom nonnegative weights")

    sp = sub.add_parser("equiv", help="equivalence levels of two explanatory variables")
    common(sp)
    sp.add_argument("--x1", required=True)
    sp.add_argument("--x2", required=True)
    sp.add_argument("--y", required=True)
    sp.add_argument("--weights", choices=["gk", "ew", "ipw"], default="gk")
    sp.add_argument("--tol", type=float, default=tol_default)

    sp = sub.add_parser("select", help="forward-backward feature selection")
    common(sp)
    sp.add_argument("--response", required=True, dest="y")
    sp.add_argument("--weights", choices=["gk", "ew", "ipw"], default="gk")
    sp.add_argument("--eps", type=float, default=eps_default)

    sp = sub.add_parser("basis", help="structural basis without a response")
    common(sp)
    sp.add_argument("--eps", type=float, default=eps_default)
    sp.add_argument("--minimal", action="store_true",
                    help="exhaustive smallest-basis search (<= 20 variables)")

    sp = sub.add_parser("validate", help="train/test proportional-prediction check")
    common(sp)
    sp.add_argument("--x", required=True, type=_split_vars)
    sp.add_argument("--y", required=True)
    sp.add_argument("--train", type=float, default=0.8, dest="train_frac")
    sp.add_argument("--seed", type=_nonnegative_int, required=True)

    sp = sub.add_parser("bootstrap", help="stratified bootstrap of a statistic")
    common(sp)
    sp.add_argument("--stat", choices=["retention", "tau"], required=True)
    sp.add_argument("--response", required=True, dest="y")
    sp.add_argument("--subset", default=None, type=_split_vars,
                    help="comma-separated variables for the statistic")
    sp.add_argument("--B", type=int, default=1000)
    sp.add_argument("--n", type=_nonnegative_int, default=None,
                    help="subsample this many records first (seeded)")
    sp.add_argument("--level", type=float, default=0.95)
    sp.add_argument("--weights", choices=["gk", "ew", "ipw"], default="gk")
    sp.add_argument("--seed", type=_nonnegative_int, required=True)

    sp = sub.add_parser("simulate", help="generate synthetic data")
    sp.add_argument("model", choices=["flu"])
    common(sp, needs_input=False)
    sp.add_argument("--n", type=_nonnegative_int, required=True)
    sp.add_argument("--seed", type=_nonnegative_int, required=True)

    sp = sub.add_parser("fixtures", help="export a bundled dataset")
    common(sp, needs_input=False)
    sp.add_argument("--name", required=True, choices=sorted(FIXTURES))

    return p


def main(argv=None) -> int:
    try:
        ns = _build_parser().parse_args(argv)
    except DataError as e:  # bad env-var override
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    d = vars(ns)
    if ns.command == "equiv":
        d["x"] = [d["x1"]]
    cfg = RunConfig(**{f.name: d[f.name] for f in fields(RunConfig) if f.name in d})
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
