"""Structural basis discovery without a response variable.

The concentration functional Ep of a (possibly joint) variable is the
sum of squared cell probabilities.  It never increases when variables
are added to a composite, and it stops decreasing exactly when the
variables already present determine everything else.  That gives a
response-free selection procedure: grow a composite by always adding the
variable that minimizes Ep, stop when no candidate lowers it, then drop
members whose removal leaves Ep unchanged.  The surviving set is a
structural basis: every variable in the dataset is a deterministic
function of it, so all conditional probabilities given a basis cell are
0 or 1, and no proper subset has that property.

Intended for deterministic or administrative data; under sampling noise
exact functional dependence is rare and the ``eps`` tolerance must be
chosen by the caller.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .association import _determination
from .dataset import Dataset, _cells, _distinct_rows, _fold, _pair_counts, _parts
from .errors import DataError, _check_tol
from .selection import SelectionTrace, _forward_backward

#: Default tolerance for Ep comparisons on exact data.
DEFAULT_EPS = 1e-12


@dataclass(frozen=True)
class EpValue:
    """Concentration of a composite: sum of squared cell probabilities.

    Bounded below by the reciprocal of the observed domain size (equality
    iff the composite is uniform) and above by 1.
    """

    value: float
    vars: tuple[str, ...]


@dataclass(frozen=True)
class BasisReport:
    """Verification results for a claimed structural basis."""

    basis: tuple[str, ...]
    determined: dict[str, bool]
    subsets_ok: bool
    conditionals_01: bool
    minimal: bool

    @property
    def passed(self) -> bool:
        return (all(self.determined.values()) and self.subsets_ok
                and self.conditionals_01 and self.minimal)


def _pair_ep(pairs: tuple[np.ndarray, np.ndarray, np.ndarray]) -> float:
    """Ep from the pair counts of a composite's observed cells."""
    p = pairs[0] / pairs[0].sum()
    return float(p @ p)


def ep(ds: Dataset, vars: Sequence[str]) -> EpValue:
    """Sum of squared plug-in probabilities over the observed cells of a
    composite.

    Counted from the folded codes of ``vars``, as
    :func:`structural_basis` scores candidates, so both give equal values
    for one variable set.
    """
    vars = _parts(vars)
    return EpValue(_pair_ep(_pair_counts(*_fold(ds, vars))), vars)


def structural_basis(ds: Dataset, eps: float = DEFAULT_EPS) -> SelectionTrace:
    """Forward-backward search for a minimal determining variable set.

    Forward: add the variable minimizing the composite's Ep (ties broken
    by smaller resulting Ep, then smaller single-variable domain, then
    smaller column index); stop when no candidate decreases Ep by more
    than ``eps``.  Backward: in reverse pick order, drop variables whose
    removal leaves Ep within ``eps``.  A forward step counts its candidates
    in groups, one count per group.  The counts run over the distinct
    records, each weighted by how often it occurs, when they are at most
    half the records: every (cell, value) count is that of the records, so
    every score, forward and backward, equals :func:`ep` bitwise.
    """
    _check_tol(eps, "eps")
    names = list(ds.names)
    if not names:
        raise DataError("dataset has no variables")
    rows, w = _distinct_rows(ds)
    # Ep of no variables is 1: all mass in one cell.
    return _forward_backward(
        rows, names, _pair_ep, None,
        minimize=True, start=1.0, eps=eps, metric="ep", weights=w)


def verify_basis(ds: Dataset, basis: Sequence[str], eps: float = 1e-9) -> BasisReport:
    """Check the defining properties of a structural basis.

    (a) every variable is completely determined by the basis composite;
    (b) up to 32 random variable subsets, drawn with seed 0, are as
        composites also completely determined (spot check of closure);
    (c) every conditional probability given a basis cell is 0 or 1;
    (d) minimality: removing any single member breaks (a).

    Determined means tau >= 1 - ``eps`` for ``eps`` >= 0, exact at 0, and
    0 or 1 means within ``eps``.  When every basis cell holds one value of
    every variable, it holds one value of every composite of them too, so
    (b) holds and no subset is drawn.  The checks count the distinct
    records as :func:`structural_basis` does: the counts, and so every
    verdict, are those of the records.  Memory is linear in the records.
    """
    _check_tol(eps, "eps")
    if not basis:
        raise DataError("empty basis")
    names = list(ds.names)
    ds, w = _distinct_rows(ds)
    basis, cells_b = _cells(ds, basis)[:2]
    columns = [ds.codes(nm) for nm in names]

    verdicts = [_determination(cells_b, c, eps, w) for c in columns]  # (a) and (c)
    determined = {nm: v[0] for nm, v in zip(names, verdicts)}
    conditionals_01 = all(v[1] for v in verdicts)

    # (b) random subsets as composite responses, implied by exact (a)
    subsets_ok = True
    if not all(v[3] for v in verdicts):
        rng = np.random.default_rng(0)
        for _ in range(min(32, 2 ** len(names) - 1)):
            k = int(rng.integers(1, len(names) + 1))
            sub = [names[i] for i in sorted(rng.choice(len(names), size=k, replace=False))]
            if not _determination(cells_b, _cells(ds, sub)[1], eps, w)[0]:
                subsets_ok = False
                break

    # (d) minimality; the composite of no variables is one cell
    reduced = (_cells(ds, [nm for nm in basis if nm != v])[1]
               if len(basis) > 1 else np.zeros_like(cells_b) for v in basis)
    minimal = not any(all(_determination(cells, c, eps, w)[0] for c in columns)
                      for cells in reduced)

    return BasisReport(tuple(basis), determined, subsets_ok, conditionals_01, minimal)


def minimal_basis(ds: Dataset, eps: float = DEFAULT_EPS) -> tuple[str, ...]:
    """Exhaustive search for a smallest determining subset.

    Exponential in the variable count; refused above 20 variables.  The
    greedy :func:`structural_basis` is the default deliverable; this
    exists for when a provably smallest basis matters.  A subset is
    accepted when its Ep is within ``eps`` of the full set's, counted over
    the distinct records as :func:`structural_basis` counts.  At ``eps`` 0
    the test is exact: the subset has as many observed cells as the full
    set, since Ep strictly drops whenever a cell splits.
    """
    _check_tol(eps, "eps")
    names = list(ds.names)
    if len(names) > 20:
        raise DataError("exhaustive basis search is limited to 20 variables")
    rows, w = _distinct_rows(ds)
    full = _pair_counts(*_fold(rows, names), weights=w)
    n_full, ep_full = full[0].size, _pair_ep(full)
    for k in range(1, len(names)):
        for sub in itertools.combinations(names, k):
            pairs = _pair_counts(*_fold(rows, sub), weights=w)
            if (pairs[0].size == n_full if eps == 0
                    else abs(_pair_ep(pairs) - ep_full) <= eps):
                return sub
    return tuple(names)
