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
from .dataset import Dataset, _compact, _distinct_rows, _fold, _pair_counts
from .errors import DataError
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
    vars = [vars] if isinstance(vars, str) else list(vars)
    if not vars:
        raise DataError("ep needs at least one variable")
    return EpValue(_pair_ep(_pair_counts(*_fold(ds, vars))), tuple(vars))


def structural_basis(ds: Dataset, eps: float = DEFAULT_EPS) -> SelectionTrace:
    """Forward-backward search for a minimal determining variable set.

    Forward: add the variable minimizing the composite's Ep (ties broken
    by smaller resulting Ep, then smaller single-variable domain, then
    smaller column index); stop when no candidate decreases Ep by more
    than ``eps``.  Backward: in reverse pick order, drop variables whose
    removal leaves Ep within ``eps``.  A forward step counts its candidates
    in groups, one count over the records per group; every score, forward
    and backward, is counted as :func:`ep` counts it and equals ``ep``.
    """
    if not eps >= 0:
        raise DataError("eps must be nonnegative")
    names = list(ds.names)
    if not names:
        raise DataError("dataset has no variables")
    # Ep of no variables is 1: all mass in one cell.
    return _forward_backward(
        ds, names, _pair_ep, None,
        minimize=True, start=1.0, eps=eps, metric="ep")


def verify_basis(ds: Dataset, basis: Sequence[str], eps: float = 1e-9) -> BasisReport:
    """Check the defining properties of a structural basis.

    (a) every variable is completely determined by the basis composite;
    (b) up to 32 random variable subsets, drawn with seed 0, are as
        composites also completely determined (spot check of closure);
    (c) every conditional probability given a basis cell is 0 or 1;
    (d) minimality: removing any single member breaks (a).

    Determined means tau >= 1 - ``eps`` for ``eps`` >= 0, exact at 0, and
    0 or 1 means within ``eps``.  Every check runs over the distinct
    records, each counted as often as it occurs: the counts, and so every
    verdict, are those of the records.  Memory is linear in the records.
    """
    if not eps >= 0:
        raise DataError("eps must be nonnegative")
    basis = list(basis)
    if not basis:
        raise DataError("empty basis")
    names = list(ds.names)
    ds, w = _distinct_rows(ds)
    cells_b = _compact(*_fold(ds, basis))[0]
    columns = [ds.codes(nm) for nm in names]

    verdicts = [_determination(cells_b, c, eps, w) for c in columns]  # (a) and (c)
    determined = {nm: d for nm, (d, _, _) in zip(names, verdicts)}
    conditionals_01 = all(c01 for _, c01, _ in verdicts)

    # (b) random subsets as composite responses
    rng = np.random.default_rng(0)
    subsets_ok = True
    for _ in range(min(32, 2 ** len(names) - 1)):
        k = int(rng.integers(1, len(names) + 1))
        sub = [names[i] for i in sorted(rng.choice(len(names), size=k, replace=False))]
        if not _determination(cells_b, _compact(*_fold(ds, sub))[0], eps, w)[0]:
            subsets_ok = False
            break

    # (d) minimality; the composite of no variables is one cell
    reduced = (_compact(*_fold(ds, [nm for nm in basis if nm != v]))[0]
               if len(basis) > 1 else np.zeros_like(cells_b) for v in basis)
    minimal = not any(all(_determination(cells, c, eps, w)[0] for c in columns)
                      for cells in reduced)

    return BasisReport(tuple(basis), determined, subsets_ok, conditionals_01, minimal)


def minimal_basis(ds: Dataset, eps: float = DEFAULT_EPS) -> tuple[str, ...]:
    """Exhaustive search for a smallest determining subset.

    Exponential in the variable count; refused above 20 variables.  The
    greedy :func:`structural_basis` is the default deliverable; this
    exists for when a provably smallest basis matters.
    """
    if not eps >= 0:
        raise DataError("eps must be nonnegative")
    names = list(ds.names)
    if len(names) > 20:
        raise DataError("exhaustive basis search is limited to 20 variables")
    full = ep(ds, names).value
    for k in range(1, len(names)):
        for sub in itertools.combinations(names, k):
            if abs(ep(ds, list(sub)).value - full) <= eps:
                return tuple(sub)
    return tuple(names)
