"""Workloads of the catassoc benchmark: input generators, operations, oracles.

Inputs depend only on the workload seed and on the generators in this file,
never on catassoc's own simulators, so a change to the program cannot change
what is measured.  Every output is checked against an oracle computed here
with plain numpy.  Why each workload exists is recorded in ``WHY`` and in
BENCHMARK.json; NOTES.md maps them to the ROADMAP Baseline rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WHY = {
    "cli-select-1m": "CLI select then validate on a 1M-row flu CSV: the headline "
                     "user wait, where CSV ingest dominates",
    "api-select-wide": "select_basis on 1M flu rows plus 20 noise columns, in a "
                       "library call: composite encoding dominates, ingest is bypassed",
    "api-basis-admin": "structural_basis then verify_basis on a 100k-row administrative "
                       "table: dense count tables and the kernel dominate",
    "cli-bootstrap-500": "CLI retention bootstrap, B=8000, on 500 rows: 16,000 tiny "
                         "tables expose per-call cost and the resample layer",
}

# The flu screening model (same parameters as catassoc.simgen.DEFAULT_FLU).
FLU_NAMES = ("Y", "X1", "X2", "R3", "R4", "S5")
FLU_SIZES = (3, 2, 2, 2, 2, 2)
_P_CELL = np.array([9 / 16, 3 / 16, 3 / 16, 1 / 16])
_COND_Y = np.array([[0.95, 0.05, 0.00],
                    [0.50, 0.50, 0.00],
                    [0.30, 0.70, 0.00],
                    [0.00, 0.05, 0.95]])
CARRY_PROB = 0.90
Z_PROB = 0.80

SELECT_EPS = "0.005"


def flu_codes(n: int, rng: np.random.Generator) -> np.ndarray:
    """``n`` records of the flu model as an (n, 6) uint8 code matrix."""
    cdf = np.cumsum(_P_CELL)
    cdf[-1] = 1.0
    cell = np.searchsorted(cdf, rng.random(n), side="right")
    x1, x2 = cell // 2, cell % 2
    cdf_y = np.cumsum(_COND_Y, axis=1)
    cdf_y[:, -1] = 1.0
    y = (rng.random(n)[:, None] >= cdf_y[cell]).sum(axis=1)
    r3 = x1 * (rng.random(n) < CARRY_PROB)
    r4 = x2 * (rng.random(n) < CARRY_PROB)
    s5 = x1 * x2 * (rng.random(n) < Z_PROB)
    return np.column_stack([y, x1, x2, r3, r4, s5]).astype(np.uint8)


def admin_codes(n: int, k: int, rng: np.random.Generator):
    """Administrative table: four independent base columns with ``k``
    categories and six columns that are deterministic functions of them.
    D1 encodes the pair (B1, B2), so a structural basis has three columns."""
    b1, b2, b3, b4 = rng.integers(0, k, size=(4, n))
    cols = [b1, b2, b3, b4, b1 * k + b2, (b1 + b2) % k, (b3 + b4) % k,
            (b1 * b3) % k, (b2 + 2 * b4) % k, np.maximum(b3, b4)]
    names = ("B1", "B2", "B3", "B4", "D1", "D2", "D3", "D4", "D5", "D6")
    sizes = (k, k, k, k, k * k, k, k, k, k, k)
    return np.column_stack(cols).astype(np.uint8), names, sizes


def mixed_key(codes: np.ndarray, sizes) -> tuple[np.ndarray, int]:
    """Dense mixed-radix key of each row of ``codes``, and the key count."""
    key = np.zeros(codes.shape[0], dtype=np.int64)
    n = 1
    for j, s in enumerate(sizes):
        key = key * s + codes[:, j]
        n *= s
    return key, n


def gk_tau(x: np.ndarray, nx: int, y: np.ndarray, ny: int) -> float:
    """Goodman-Kruskal tau of y given x from its closed form on the count table."""
    t = np.bincount(x * ny + y, minlength=nx * ny).reshape(nx, ny)
    p = t / t.sum()
    px, py = p.sum(axis=1), p.sum(axis=0)
    seen = px > 0
    ep_y = float(py @ py)
    return (float((p[seen] ** 2 / px[seen, None]).sum()) - ep_y) / (1.0 - ep_y)


def flu_tau(codes: np.ndarray, parts) -> float:
    """GK tau of Y given the composite of the named flu columns."""
    idx = [FLU_NAMES.index(nm) for nm in parts]
    x, nx = mixed_key(codes[:, idx].astype(np.int64), [FLU_SIZES[j] for j in idx])
    return gk_tau(x, nx, codes[:, 0].astype(np.int64), FLU_SIZES[0])


def batch_gk_tau(t: np.ndarray) -> np.ndarray:
    """GK tau of each (nx, ny) count table in a (B, nx, ny) stack."""
    p = t / t.sum(axis=(1, 2), keepdims=True)
    px, py = p.sum(axis=2), p.sum(axis=1)
    ep_y = (py * py).sum(axis=1)
    cond = (p * p / np.where(px > 0, px, 1.0)[..., None]).sum(axis=(1, 2))
    return (cond - ep_y) / (1.0 - ep_y)


def retention_replicates(codes: np.ndarray, B: int, rng: np.random.Generator) -> np.ndarray:
    """Stratified bootstrap replicates of the retention ratio of (X1, X2)
    within all flu columns, drawn at count level: resampling the records of
    a response stratum with replacement is one multinomial draw over that
    stratum's cells of the full composite."""
    full, n_full = mixed_key(codes[:, 1:].astype(np.int64), FLU_SIZES[1:])
    y = codes[:, 0]
    tables = np.empty((B, n_full, FLU_SIZES[0]))
    for k in range(FLU_SIZES[0]):
        cells = np.bincount(full[y == k], minlength=n_full)
        tables[:, :, k] = rng.multinomial(cells.sum(), cells / cells.sum(), size=B)
    # X1 and X2 are the leading digits of the full key, so the (X1, X2)
    # table sums each group of n_full // 4 consecutive cells.
    subset = tables.reshape(B, 4, n_full // 4, -1).sum(axis=2)
    return batch_gk_tau(subset) / batch_gk_tau(tables)


def write_csv(path: Path, names, codes: np.ndarray) -> None:
    """Write label codes as a CSV whose labels are the decimal codes."""
    base = int(codes.max()) + 1
    key, n = mixed_key(codes.astype(np.int64), [base] * codes.shape[1])
    digits = np.array(np.unravel_index(np.arange(n), [base] * codes.shape[1])).T
    lines = np.array([",".join(map(str, row)) + "\n" for row in digits], dtype=object)
    with open(path, "w", encoding="utf-8", newline="") as f:
        f.write(",".join(names) + "\n")
        f.write("".join(lines[key].tolist()))


def save_table(path: Path, names, sizes, codes: np.ndarray) -> None:
    np.savez(path, records=codes, names=np.array(names), sizes=np.array(sizes))


def load_table(path):
    with np.load(path, allow_pickle=False) as z:
        return [str(s) for s in z["names"]], [int(s) for s in z["sizes"]], z["records"]


# Library operations, shared by worker.py (untraced) and the traced run.
# Each builds the Dataset from codes inside the timed call, so work moved
# into Dataset construction still counts.

def _dataset(names, sizes, records):
    from catassoc import Dataset, Variable
    variables = [Variable(nm, tuple(str(c) for c in range(s)))
                 for nm, s in zip(names, sizes)]
    return Dataset(variables, records)


def op_select_basis(names, sizes, records) -> dict:
    from catassoc import select_basis
    trace = select_basis(_dataset(names, sizes, records), "Y", alpha="gk",
                         eps_gain=float(SELECT_EPS))
    return {"basis": list(trace.basis), "tau_final": trace.final}


def op_basis_verify(names, sizes, records) -> dict:
    from catassoc import structural_basis, verify_basis
    ds = _dataset(names, sizes, records)
    trace = structural_basis(ds)
    report = verify_basis(ds, trace.basis)
    return {"basis": list(trace.basis), "ep_final": trace.final,
            "passed": report.passed}


API_OPS = {"select_basis": op_select_basis, "basis_verify": op_basis_verify}


@dataclass(frozen=True)
class Op:
    """One operation of a pass: CLI arguments, or a library call on a table."""

    name: str
    args: tuple[str, ...]
    api: bool = False


class Workload:
    """A fixed operation sequence (one pass) on inputs generated from a seed.

    ``setup`` writes the inputs into ``workdir`` and records the oracles;
    ``check`` returns an error message for a wrong output, or None.
    """

    def __init__(self, seed: int, workdir: Path, smoke: bool):
        self.seed, self.workdir, self.smoke = seed, workdir, smoke

    def _report(self, op: Op, out: bytes) -> dict:
        data = json.loads(out)
        return data["result"] if not op.api else data


class CliSelect(Workload):
    def setup(self) -> dict:
        n = 20_000 if self.smoke else 1_000_000
        codes = flu_codes(n, np.random.default_rng(self.seed))
        self.csv = self.workdir / "flu.csv"
        write_csv(self.csv, FLU_NAMES, codes)
        self.n = n
        self.tau = flu_tau(codes, ("X1", "X2"))
        return {"rows": n, "columns": len(FLU_NAMES), "csv_bytes": self.csv.stat().st_size}

    def ops(self):
        return [Op("select", ("select", "-i", str(self.csv), "--response", "Y",
                              "--eps", SELECT_EPS, "--format", "json")),
                Op("validate", ("validate", "-i", str(self.csv), "--x", "X1,X2",
                                "--y", "Y", "--seed", str(self.seed),
                                "--format", "json"))]

    def check(self, op, out):
        r = self._report(op, out)
        if op.name == "select":
            return _check_select(r, self.tau)
        if r["n_train"] + r["n_test"] != self.n:
            return f"n_train + n_test = {r['n_train'] + r['n_test']}, expected {self.n}"
        if r["skipped_unseen"] != 0:
            return f"skipped_unseen = {r['skipped_unseen']}"
        return None


def _check_select(r: dict, tau: float):
    if r["basis"] != ["X1", "X2"]:
        return f"basis {r['basis']}, expected ['X1', 'X2']"
    if abs(r["tau_final"] - tau) > 1e-12:
        return f"tau_final {r['tau_final']!r}, oracle {tau!r}"
    return None


class ApiSelectWide(Workload):
    def setup(self) -> dict:
        n, k = (20_000, 4) if self.smoke else (1_000_000, 20)
        rng = np.random.default_rng(self.seed)
        flu = flu_codes(n, rng)
        noise = rng.integers(0, 4, size=(n, k), dtype=np.uint8)
        names = FLU_NAMES + tuple(f"N{i + 1}" for i in range(k))
        self.table = self.workdir / "wide.npz"
        save_table(self.table, names, FLU_SIZES + (4,) * k, np.hstack([flu, noise]))
        self.tau = flu_tau(flu, ("X1", "X2"))
        return {"rows": n, "columns": len(names)}

    def ops(self):
        return [Op("select_basis", (str(self.table),), api=True)]

    def check(self, op, out):
        return _check_select(self._report(op, out), self.tau)


class ApiBasisAdmin(Workload):
    def setup(self) -> dict:
        n, k = (3_000, 3) if self.smoke else (100_000, 7)
        codes, names, sizes = admin_codes(n, k, np.random.default_rng(self.seed))
        self.table = self.workdir / "admin.npz"
        save_table(self.table, names, sizes, codes)
        self.codes, self.names, self.sizes = codes, names, sizes
        self.full_rows = self._distinct(names)
        return {"rows": n, "columns": len(names), "base_categories": k}

    def _distinct(self, cols) -> int:
        idx = [self.names.index(c) for c in cols]
        key, _ = mixed_key(self.codes[:, idx].astype(np.int64),
                           [self.sizes[j] for j in idx])
        return int(np.unique(key).size)

    def ops(self):
        return [Op("basis_verify", (str(self.table),), api=True)]

    def check(self, op, out):
        r = self._report(op, out)
        basis = r["basis"]
        if not r["passed"]:
            return f"verify_basis failed for basis {basis}"
        if self._distinct(basis) != self.full_rows:
            return f"basis {basis} does not separate the {self.full_rows} distinct rows"
        for v in basis:
            rest = [b for b in basis if b != v]
            if rest and self._distinct(rest) == self.full_rows:
                return f"basis {basis} is not minimal: {v} is redundant"
        return None


class CliBootstrap(Workload):
    ORACLE_B = 32_000
    LEVEL = 0.95  # the CLI's default --level

    def setup(self) -> dict:
        n, self.B = 500, 200 if self.smoke else 8000
        rng = np.random.default_rng(self.seed)
        codes = flu_codes(n, rng)
        self.csv = self.workdir / "flu500.csv"
        write_csv(self.csv, FLU_NAMES, codes)
        self.point = flu_tau(codes, ("X1", "X2")) / flu_tau(codes, FLU_NAMES[1:])
        self.reps = retention_replicates(codes, self.ORACLE_B, rng)
        return {"rows": n, "columns": len(FLU_NAMES), "B": self.B}

    def ops(self):
        return [Op("bootstrap", ("bootstrap", "-i", str(self.csv), "--stat", "retention",
                                 "--response", "Y", "--subset", "X1,X2",
                                 "--B", str(self.B), "--seed", str(self.seed),
                                 "--format", "json"))]

    def check(self, op, out):
        r = self._report(op, out)
        if abs(r["point"] - self.point) > 1e-12:
            return f"point {r['point']!r}, oracle retention {self.point!r}"
        # The program's replicates and the oracle's are independent samples
        # of one distribution: compare them within six standard errors.
        reps = self.reps
        inv_n = 1.0 / self.B + 1.0 / reps.size
        if abs(r["mean"] - reps.mean()) > 6 * reps.std() * np.sqrt(inv_n):
            return f"replicate mean {r['mean']!r}, oracle {reps.mean()!r}"
        tail = (1.0 - self.LEVEL) / 2.0
        for q, v in ((tail, r["ci_low"]), (1.0 - tail, r["ci_high"])):
            share = (np.count_nonzero(reps < v) + 0.5 * np.count_nonzero(reps == v)) / reps.size
            if abs(share - q) > 6 * np.sqrt(q * (1.0 - q) * inv_n):
                return f"interval end {v!r} is the oracle's {share:.4f} quantile, not {q}"
        return None


WORKLOADS = {
    "cli-select-1m": CliSelect,
    "api-select-wide": ApiSelectWide,
    "api-basis-admin": ApiBasisAdmin,
    "cli-bootstrap-500": CliBootstrap,
}
