"""Stratified bootstrap confidence intervals for dataset statistics.

Each replicate resamples records with replacement *within* each stratum,
preserving stratum sizes exactly; with the response as the stratifying
variable this keeps every response category present in every replicate.
Intervals use the percentile method.

:func:`stratified_bootstrap` draws records for any statistic; replicate b
draws from the b-th child seed of the caller's seed.  :func:`count_bootstrap`,
which the ``bootstrap`` command runs, draws the same resamples at count
level for the degree of a variable set or a subset's retention of it: a
stratum's resample is one multinomial draw over its observed (full-set
cell, response) pairs.  Its replicates differ from
:func:`stratified_bootstrap`'s for the same seed.  Either way results are
deterministic given (seed, dataset), and the first b replicates are the
same for every B >= b.  :func:`count_bootstrap` draws at most ``_CHUNK``
counts (or one replicate) at once, so a chunk's memory is bounded by
the pair count, not by B; a replicate in which the full set has zero association
raises :class:`NumericDomainError` (CLI exit 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

import numpy as np

from .association import WeightVector, _group_sum, _pair_tau
from .dataset import Dataset, _cells, _compact, _count, _frozen, _join, _parts, _strata, _unique
from .errors import DataError, NumericDomainError, _check_size
from .selection import _resolve_weights, tau_joint

#: Largest number of (replicate, pair) counts drawn at once.
_CHUNK = 2**16


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


def _check_draws(B: int, level: float) -> None:
    _check_size(B, "B")
    if not 0.0 < level < 1.0:
        raise DataError("level must be strictly between 0 and 1")


def _percentile(point: float, reps: np.ndarray, level: float, seed: int) -> BootstrapResult:
    """The interval ends equal ``np.quantile(reps, [(1 - level) / 2,
    (1 + level) / 2])`` bitwise: numpy's "linear" method, its index rules
    and its interpolation, over one sort.  (``np.quantile`` itself imports
    all of ``numpy.ma``, through ``np.unique`` with no ``return_*`` flag; a
    call with one, as every call in the package is, does not.)"""
    ordered = np.sort(reps)
    top = ordered.size - 1
    ends = []
    for q in ((1.0 - level) / 2.0, (1.0 + level) / 2.0):
        at = top * q
        # At the last index (one replicate, or q rounded to 1) numpy takes
        # the last value on both sides and measures the weight from index -1.
        i, j = (int(at), int(at) + 1) if at < top else (-1, -1)
        a, b, t = float(ordered[i]), float(ordered[j]), at - i
        ends.append(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    if np.isnan(ordered[-1]):  # NaN sorts last; any NaN gives NaN ends
        ends = [float(ordered[-1])] * 2
    return BootstrapResult(point, reps, ends[0], ends[1],
                           float(reps.mean()), level, seed)


def stratified_bootstrap(ds: Dataset, strata_var: str,
                         stat: Callable[[Dataset], float],
                         B: int, level: float = 0.95,
                         seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap of ``stat`` with resampling inside strata.

    ``strata_var`` partitions the records; every replicate draws, within
    each stratum, as many records (with replacement) as the stratum
    holds.  ``B`` replicates, two-sided percentile interval at ``level``.
    """
    _check_draws(B, level)
    strata = _strata(ds.codes(strata_var), ds.var(strata_var).size)
    if any(s.size == 0 for s in strata):
        raise DataError("empty stratum")

    point = float(stat(ds))
    reps = np.empty(B)
    for b in range(B):
        # Child b of SeedSequence(seed).spawn(B), bitwise, without the list of all B.
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(b,)))
        parts = [s[rng.integers(0, s.size, s.size)] for s in strata]
        reps[b] = stat(ds.take(np.concatenate(parts)))
    return _percentile(point, reps, level, seed)


def _pair_draws(n_is: np.ndarray, s: np.ndarray, n_y: int, B: int,
                seed: int) -> Iterator[np.ndarray]:
    """``B`` stratified resamples of the observed pairs with counts ``n_is``
    and response codes ``s``, as (replicates, pairs) count chunks.  Chunk k
    draws from child k of ``seed`` and each stratum from its own child of
    that, so a replicate does not depend on ``B``."""
    per_chunk = max(1, _CHUNK // n_is.size)
    strata = _strata(s, n_y)
    for k, child in enumerate(np.random.SeedSequence(seed).spawn(-(-B // per_chunk))):
        counts = np.empty((min(per_chunk, B - k * per_chunk), n_is.size), np.int64)
        for pairs, stream in zip(strata, child.spawn(n_y)):
            n_s = n_is[pairs].sum()
            counts[:, pairs] = np.random.default_rng(stream).multinomial(
                n_s, n_is[pairs] / n_s, size=len(counts))
        yield counts


def count_bootstrap(ds: Dataset, y: str, fullset: Sequence[str],
                    subset: Sequence[str] | None = None,
                    alpha: WeightVector | str | None = None, B: int = 1000,
                    level: float = 0.95, seed: int = 0) -> BootstrapResult:
    """Percentile bootstrap, within response strata, of ``tau_joint(ds, y,
    fullset)`` or, given ``subset``, of ``retention_ratio(ds, y, subset,
    fullset)``.  The errors of ``alpha`` come first, then the statistic's,
    then those of ``B`` and ``level``.  The point estimate encodes each set
    through that statistic; the replicates encode it once more (:func:`_cells`),
    rank the observed (full-set cell, response) pairs in key order and count them
    (:func:`_compact`, :func:`_count`), and a set's pairs in each replicate are
    sums of the full set's pair counts."""
    weights = _resolve_weights(ds, y, alpha)
    if subset is None:
        sets, point = [fullset], tau_joint(ds, y, fullset, alpha=weights)
    else:
        sets, point = [fullset, subset], retention_ratio(ds, y, subset, fullset, alpha=weights)
    _check_draws(B, level)
    y_domain = ds.var(y).domain
    n_y = len(y_domain)
    coded = [_cells(ds, names)[1:] for names in sets]
    ranks, n_pairs = _compact(*_join(*coded[0], ds.codes(y), n_y))
    first = np.empty(n_pairs, np.int64)
    first[ranks] = np.arange(ranks.size)  # one record of each full-set pair
    n_is, s = _count(ranks, n_pairs), ds.codes(y)[first]
    # Each set's pairs in key order, and the one holding each full-set pair.
    groups = [_unique(_join(codes[first], size, s, n_y)[0]) for codes, size in coded]
    degrees = np.empty((len(coded), B))
    done = 0
    for counts in _pair_draws(n_is, s, n_y, B, seed):
        for (set_keys, holder), out in zip(groups, degrees):
            cells, set_s = np.divmod(set_keys, n_y)
            c_is = _group_sum(counts, holder, set_keys.size)
            c_i = np.maximum(_group_sum(c_is, cells, int(cells[-1]) + 1), 1)[:, cells]
            out[done:done + len(counts)] = _pair_tau((c_is, c_i, set_s), y_domain, weights)
        done += len(counts)
    if subset is None:
        return _percentile(point, degrees[0], level, seed)
    if (degrees[0] <= 0).any():
        raise NumericDomainError("full-set association degree is zero")
    return _percentile(point, degrees[1] / degrees[0], level, seed)


def retention_ratio(ds: Dataset, y: str, subset: Sequence[str],
                    fullset: Sequence[str],
                    alpha: WeightVector | str | None = None) -> float:
    """Share of the full variable set's association kept by a subset.

    Ratio of the response's association degree given the subset composite
    to the degree given the full composite.  At most 1 up to rounding,
    since adding variables never decreases the degree.
    """
    if not set(_parts(subset)) <= set(_parts(fullset)):
        raise DataError("subset must be contained in fullset")
    denom = tau_joint(ds, y, fullset, alpha=alpha)
    if denom <= 0:
        raise NumericDomainError("full-set association degree is zero")
    return tau_joint(ds, y, subset, alpha=alpha) / denom
