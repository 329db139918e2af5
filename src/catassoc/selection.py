"""Greedy forward-backward feature selection for a categorical response.

The forward pass grows a set of explanatory variables, at each step
adding the candidate that maximizes the weighted association degree of
the response given the composite of the chosen set.  Adding a variable
can never decrease that degree, so the pass stops once the best
remaining improvement falls at or below ``eps_gain``.  The backward pass
then deletes, in reverse pick order, any variable whose removal changes
the degree by at most ``eps_gain``.  What remains reproduces the
association of the full variable set up to ``eps_gain`` and is minimal
in the same sense.

Ties in the forward pass are broken by smaller single-variable domain
size, then by smaller column index, which makes the whole procedure
deterministic.  Each candidate is scored from the observed (chosen cell,
candidate value, response) triples, counted or, if too wide, sorted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .association import WeightVector, _pair_tau, make_weights
from .dataset import (Dataset, _compact, _count, _distinct_rows, _fold, _join, _pair_counts,
                      _parts, _step_pairs)
from .errors import DataError, _check_tol

#: Default improvement threshold on exact (non-sampled) data.
DEFAULT_EPS_GAIN = 1e-9


@dataclass(frozen=True)
class ForwardStep:
    """One forward pick: the variable chosen, the objective after adding
    it, and the objective each candidate would have produced."""

    variable: str
    value: float
    scores: dict[str, float] = field(repr=False)


@dataclass(frozen=True)
class SelectionTrace:
    """Full record of a greedy selection run.

    ``forward_steps`` values are non-decreasing for association-based
    selection (non-increasing for the concentration-based structural
    search, which reuses this type with ``metric="ep"``).
    ``basis`` is the forward picks minus the pruned variables, in pick
    order.
    """

    forward_steps: tuple[ForwardStep, ...]
    pruned: tuple[str, ...]
    basis: tuple[str, ...]
    final: float
    metric: str = "tau"

    @property
    def picked(self) -> tuple[str, ...]:
        return tuple(s.variable for s in self.forward_steps)


def y_marginal(ds: Dataset, y: str) -> np.ndarray:
    """Plug-in marginal distribution of one variable, counted over the rows
    a dataset stores (:func:`_distinct_rows`) with their weights."""
    rows, weights = _distinct_rows(ds, fold=False)
    return _count(rows.codes(y), rows.var(y).size, weights) / ds.n_records


def _resolve_weights(ds: Dataset, y: str, alpha) -> WeightVector:
    """Weight vector for the response, fixed once so every candidate set
    is scored on the same scale."""
    if isinstance(alpha, WeightVector):
        return alpha
    scheme = "gk" if alpha is None else alpha
    return make_weights(scheme, p_y=y_marginal(ds, y))


def tau_joint(ds: Dataset, y: str, xs: Sequence[str],
              alpha: WeightVector | str | None = None) -> float:
    """Association degree of the response given the composite of ``xs``.

    Counted from the observed (cell, value) pairs of ``xs`` against ``y``
    as :func:`select_basis` scores candidates, over the same rows, so both
    give equal values for one variable set; memory is linear in the records.
    """
    w = _resolve_weights(ds, y, alpha)
    rows, weights = _distinct_rows(ds, fold=False)
    pairs = _pair_counts(*_fold(rows, _parts(xs, y)), rows.codes(y), rows.var(y).size, weights)
    return _pair_tau(pairs, ds.var(y).domain, w)


def first_pick_tiebreak(ds: Dataset, candidates: Sequence[str]) -> str:
    """Among candidates with equal scores, prefer the smallest domain,
    then the smallest column index."""
    if not candidates:
        raise DataError("empty tie set")
    return min(candidates, key=lambda nm: (ds.var(nm).size, ds.position(nm)))


def _forward_backward(ds: Dataset, candidates: list[str],
                      score_pairs: Callable[[tuple], float],
                      y: str | None, minimize: bool, start: float, eps: float,
                      metric: str, weights: np.ndarray | None = None) -> SelectionTrace:
    """Greedy search of :func:`select_basis` and :func:`structural_basis`.

    Every variable set is scored by ``score_pairs`` on the
    :func:`_pair_counts` of its composite against ``y``.  Forward: add the
    candidate with the largest score (smallest if ``minimize``), ties to
    :func:`first_pick_tiebreak`, until the best one improves on the
    current score (``start`` for no variables) by at most ``eps``.  A step
    counts each candidate as the last part of the chosen composite, in
    groups of candidates whose joint range is small enough to count at
    once (:func:`_step_pairs`): one narrow key and one ``bincount`` per
    group; a pick joins the narrow chosen cells (:func:`_join`).  Backward: in
    reverse pick order, drop each variable whose removal moves the score of the
    kept set by at most ``eps``.  Records count by ``weights`` as in :func:`_pair_counts`.
    """
    y_codes, n_y = (ds.codes(y), ds.var(y).size) if y is not None else (None, 1)
    chosen: list[str] = []
    codes, n_cells = np.broadcast_to(np.uint8(0), ds.n_records), 1  # no variables: one cell
    steps: list[ForwardStep] = []
    current = start
    remaining = list(candidates)
    while remaining:
        parts = [(ds.codes(c), ds.var(c).size) for c in remaining]
        scores = dict(zip(remaining, map(score_pairs, _step_pairs(
            codes, n_cells, y_codes, n_y, parts, weights)), strict=True))
        best_val = min(scores.values()) if minimize else max(scores.values())
        tied = [c for c in remaining if scores[c] == best_val]
        pick = first_pick_tiebreak(ds, tied)
        gain = current - best_val if minimize else best_val - current
        if chosen and gain <= eps:
            break
        chosen.append(pick)
        remaining.remove(pick)
        steps.append(ForwardStep(pick, best_val, scores))
        current = best_val
        codes, n_cells = _compact(*_join(codes, n_cells, ds.codes(pick), ds.var(pick).size))

    kept = list(chosen)
    pruned: list[str] = []
    for v in reversed(chosen):
        if len(kept) <= 1:
            break
        trial = [nm for nm in kept if nm != v]
        val = score_pairs(_pair_counts(*_fold(ds, trial), y_codes, n_y, weights))
        if abs(current - val) <= eps:
            kept = trial
            pruned.append(v)
            current = val

    return SelectionTrace(tuple(steps), tuple(pruned), tuple(kept), current,
                          metric=metric)


def select_basis(ds: Dataset, y: str,
                 alpha: WeightVector | str | None = None,
                 eps_gain: float = DEFAULT_EPS_GAIN) -> SelectionTrace:
    """Forward-backward search for a minimal variable set whose composite
    carries the full set's association with the response.

    ``eps_gain`` is the smallest improvement (forward) or largest
    tolerated change (backward) treated as real; raise it on sampled
    data where plug-in estimates carry noise.  Nothing bounds the
    composite's observed domain, and the plug-in degree over mostly
    singleton cells is inflated, so a near-unique column can be picked.
    A forward step costs one narrow key and one ``bincount`` over the
    records per group of candidates whose joint (cell, response, values)
    range is at most 2^16 (a sort for a candidate too wide to count), and
    memory is linear in the records; every score, forward and backward,
    equals ``tau_joint`` of its variable set bitwise.  A dataset held
    counts-first is searched over its distinct rows with their counts as
    weights (:func:`_distinct_rows`): the same counts, so the same trace.
    """
    _check_tol(eps_gain, "eps_gain")
    y_domain, weights = ds.var(y).domain, _resolve_weights(ds, y, alpha)
    explanatory = [nm for nm in ds.names if nm != y]
    if not explanatory:
        raise DataError("no explanatory variables")
    rows, w = _distinct_rows(ds, fold=False)
    return _forward_backward(
        rows, explanatory, lambda pairs: _pair_tau(pairs, y_domain, weights),
        y, minimize=False, start=0.0, eps=eps_gain, metric="tau", weights=w)
