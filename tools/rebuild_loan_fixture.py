"""Rebuild the bundled loan.csv from its documented pairwise frequency tables.

The loan dataset ships as a frozen 650-record CSV under
``src/catassoc/data/``.  Only its pairwise frequency tables against Risk
and Credit are documented (``LOAN_TABLES`` and ``LOAN_DOMAINS`` in
:mod:`catassoc.fixtures`); this script searches for a record-level table
consistent with all of them and freezes the result.  The procedure:

1. For each of On-Time, Age, Income, solve a small integer 3-way
   transportation problem so that the (X, Risk), (X, Credit) and
   (Risk, Credit) margins all match exactly.  Backtracking search,
   value-ordered by closeness to the continuous IPF solution.
2. Within every (Risk, Credit) cell, zip the per-variable category
   multisets into records (ascending order; the coupling between
   variables inside a cell is not pinned down by the margins).
3. Reorder records so that each column's first occurrences follow the
   canonical domain order, making CSV ingestion reproduce the canonical
   category indexing.

Deterministic; run only when the fixture needs regenerating:

    python tools/rebuild_loan_fixture.py
"""

import collections
import sys
from pathlib import Path

import numpy as np

# This checkout's package, ahead of any other on the path.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from catassoc.fixtures import LOAN_DOMAINS, LOAN_TABLES  # noqa: E402

COLUMNS = ("On-Time", "Age", "Income", "Credit", "Risk")
HUB = np.array(LOAN_TABLES[("Risk", "Credit")])


def ipf3(a, b, hub, iters=3000):
    """Continuous 3-way table with 2-way margins a=(x,r), b=(x,c), hub=(r,c)."""
    t = np.ones((a.shape[0], 3, 3))
    for _ in range(iters):
        m = t.sum(axis=2)
        t *= np.where(m > 0, a / np.where(m == 0, 1, m), 0)[:, :, None]
        m = t.sum(axis=1)
        t *= np.where(m > 0, b / np.where(m == 0, 1, m), 0)[:, None, :]
        m = t.sum(axis=0)
        t *= np.where(m > 0, hub / np.where(m == 0, 1, m), 0)[None, :, :]
    return t


def solve_integer_table(a, b, hub, force_pos=((0, 0, 0),)):
    """Backtracking search for an integer 3-way table with the given margins.

    ``force_pos`` cells are required to be >= 1 so that the final record
    stream starts with a row introducing every column's first category.
    """
    nx = a.shape[0]
    continuous = ipf3(a, b, hub)
    cells = [(x, r, c) for x in range(nx) for r in range(3) for c in range(3)]
    rem_a = a.astype(int).copy()
    rem_b = b.astype(int).copy()
    rem_hub = hub.astype(int).copy()
    table = np.zeros((nx, 3, 3), int)
    sys.setrecursionlimit(10000)

    def bt(k):
        if k == len(cells):
            return rem_a.sum() == 0 and rem_b.sum() == 0 and rem_hub.sum() == 0
        x, r, c = cells[k]
        last_a = not any(x2 == x and r2 == r for (x2, r2, c2) in cells[k + 1:])
        last_b = not any(x2 == x and c2 == c for (x2, r2, c2) in cells[k + 1:])
        last_h = not any(r2 == r and c2 == c for (x2, r2, c2) in cells[k + 1:])
        hi = min(rem_a[x, r], rem_b[x, c], rem_hub[r, c])
        forced = set()
        lows = [0]
        if last_a:
            forced.add(rem_a[x, r])
            lows.append(rem_a[x, r])
        if last_b:
            forced.add(rem_b[x, c])
            lows.append(rem_b[x, c])
        if last_h:
            forced.add(rem_hub[r, c])
            lows.append(rem_hub[r, c])
        if len(forced) > 1:
            return False
        lo = max(lows)
        if (x, r, c) in force_pos:
            lo = max(lo, 1)
        if lo > hi:
            return False
        if forced:
            v0 = forced.pop()
            vals = [v0] if v0 >= lo else []
        else:
            target = continuous[x, r, c]
            vals = sorted(range(lo, hi + 1), key=lambda v: (abs(v - target), v))
        for v in vals:
            table[x, r, c] = v
            rem_a[x, r] -= v
            rem_b[x, c] -= v
            rem_hub[r, c] -= v
            if bt(k + 1):
                return True
            rem_a[x, r] += v
            rem_b[x, c] += v
            rem_hub[r, c] += v
            table[x, r, c] = 0
        return False

    if not bt(0):
        raise RuntimeError("no integer table consistent with the margins")
    return table


def canonical_order(records, canon):
    """Reorder records so first occurrences follow the canonical domains."""
    codes = [tuple(canon[j].index(rec[j]) for j in range(5)) for rec in records]
    remaining = list(range(len(records)))
    need = [0] * 5
    introduced = [set() for _ in range(5)]
    order = []
    while remaining:
        pick = None
        for idx in remaining:
            if all(codes[idx][j] in introduced[j] or codes[idx][j] == need[j]
                   for j in range(5)):
                pick = idx
                break
        if pick is None:
            raise RuntimeError("cannot order records canonically")
        order.append(pick)
        remaining.remove(pick)
        for j in range(5):
            cj = codes[pick][j]
            if cj not in introduced[j]:
                introduced[j].add(cj)
                while need[j] in introduced[j]:
                    need[j] += 1
    return [records[i] for i in order]


def main():
    sols = {}
    for name in ("On-Time", "Age", "Income"):
        risk = np.array(LOAN_TABLES[(name, "Risk")])
        credit = np.array(LOAN_TABLES[(name, "Credit")])
        t = solve_integer_table(risk, credit, HUB)
        assert (t.sum(2) == risk).all()
        assert (t.sum(1) == credit).all()
        assert (t.sum(0) == HUB).all()
        sols[name] = t

    canon = [LOAN_DOMAINS[name] for name in COLUMNS]
    records = []
    for r in range(3):
        for c in range(3):
            per_var = []
            for name in ("On-Time", "Age", "Income"):
                vals = []
                for x in range(sols[name].shape[0]):
                    vals += [x] * sols[name][x, r, c]
                per_var.append(vals)
            for i in range(HUB[r, c]):
                records.append((
                    canon[0][per_var[0][i]],
                    canon[1][per_var[1][i]],
                    canon[2][per_var[2][i]],
                    canon[3][c],
                    canon[4][r],
                ))
    assert len(records) == 650

    records = canonical_order(records, canon)

    for (x, y), counts in LOAN_TABLES.items():
        ix, iy = COLUMNS.index(x), COLUMNS.index(y)
        cnt = collections.Counter((rec[ix], rec[iy]) for rec in records)
        assert [[cnt[(a, b)] for b in LOAN_DOMAINS[y]] for a in LOAN_DOMAINS[x]] == counts

    out = "src/catassoc/data/loan.csv"
    with open(out, "w", encoding="utf-8") as f:
        f.write(",".join(COLUMNS) + "\n")
        for rec in records:
            f.write(",".join(rec) + "\n")
    print(f"wrote {out} ({len(records)} records)")


if __name__ == "__main__":
    main()
