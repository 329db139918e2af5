"""Stratified bootstrap confidence intervals for dataset statistics.

Each replicate resamples records with replacement *within* each stratum,
preserving stratum sizes exactly; with the response as the stratifying
variable this keeps every response category present in every replicate.
Intervals use the percentile method.  Replicate b draws from the b-th
child seed of the caller's seed, so results are deterministic given
(seed, B, dataset order), and replicate b is the same for every B > b.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .association import WeightVector
from .dataset import Dataset, _frozen
from .errors import DataError, NumericDomainError
from .selection import tau_joint


@dataclass(frozen=True)
class BootstrapResult:
    """Point estimate, replicate distribution, and percentile interval."""

    point: float
    replicates: np.ndarray
    ci_low: float
    ci_high: float
    mean: float
    level: float
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "replicates", _frozen(self.replicates, np.float64))


def stratified_bootstrap(ds: Dataset, strata_var: str,
                         stat: Callable[[Dataset], float],
                         B: int, level: float = 0.95,
                         seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap of ``stat`` with resampling inside strata.

    ``strata_var`` partitions the records; every replicate draws, within
    each stratum, as many records (with replacement) as the stratum
    holds.  ``B`` replicates, two-sided percentile interval at ``level``.
    """
    if B < 1:
        raise DataError("B must be at least 1")
    if not 0.0 < level < 1.0:
        raise DataError("level must be strictly between 0 and 1")
    codes = ds.codes(strata_var)
    strata = [np.flatnonzero(codes == k) for k in range(ds.var(strata_var).size)]
    if any(s.size == 0 for s in strata):
        raise DataError("empty stratum")

    point = float(stat(ds))
    children = np.random.SeedSequence(seed).spawn(B)
    reps = np.empty(B)
    for b in range(B):
        rng = np.random.default_rng(children[b])
        parts = [s[rng.integers(0, s.size, s.size)] for s in strata]
        reps[b] = stat(ds.take(np.concatenate(parts)))

    lo, hi = np.quantile(reps, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
    return BootstrapResult(point, reps, float(lo), float(hi),
                           float(reps.mean()), level, seed)


def retention_ratio(ds: Dataset, y: str, subset: Sequence[str],
                    fullset: Sequence[str],
                    alpha: WeightVector | str | None = None) -> float:
    """Share of the full variable set's association kept by a subset.

    Ratio of the response's association degree given the subset composite
    to the degree given the full composite.  At most 1 up to rounding,
    since adding variables never decreases the degree.
    """
    subset = [subset] if isinstance(subset, str) else list(subset)
    fullset = [fullset] if isinstance(fullset, str) else list(fullset)
    if not set(subset) <= set(fullset):
        raise DataError("subset must be contained in fullset")
    return _degree_ratio(ds, y, subset, fullset, alpha)


def _degree_ratio(ds: Dataset, y: str, subset: Sequence[str],
                  fullset: Sequence[str], alpha: WeightVector | str | None) -> float:
    """:func:`retention_ratio` without its check that ``fullset`` holds
    ``subset``."""
    denom = tau_joint(ds, y, fullset, alpha=alpha)
    if denom <= 0:
        raise NumericDomainError("full-set association degree is zero")
    return tau_joint(ds, y, subset, alpha=alpha) / denom
