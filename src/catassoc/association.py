"""Proportional association measures between categorical variables.

Given the joint distribution of an explanatory variable X and a response
Y, this module computes:

* the association matrix: the row-stochastic matrix whose (s, t) entry
  is the probability of predicting ``Y = t`` when the truth is ``Y = s``
  under proportional prediction (sampling from the conditional
  distribution of Y given X);
* the association vector: the normalized diagonal of that matrix, one
  expected accuracy-lift rate per response category;
* weighted global association degrees: convex combinations of the
  vector's components under a caller-chosen weight vector, of which the
  classical Goodman-Kruskal tau is the special case weighted by each
  category's share of the response's Gini variation.

Every vector and degree, from a dense table or from observed pairs, is
scored by one function, :func:`_theta`.  The closed forms are oracles
only: the direct Goodman-Kruskal tau (:func:`gk_tau_direct`) and the
rationals of :mod:`catassoc.exact` are computed independently, and must
agree with the vector route to near machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from .dataset import (ContingencyTable, JointDistribution, _compact, _frozen, _pair_counts,
                      to_joint)
from .errors import DataError, NumericDomainError

#: Default tolerance for algebraic identities checked in tests.
IDENTITY_ATOL = 1e-12
#: Default tolerance when matching 4-decimal reference prints.
PRINT_ATOL = 5e-4

JointLike = Union[JointDistribution, ContingencyTable]

_SCHEME_ALIASES = {"equal": "ew", "ew": "ew", "gk": "gk", "ipw": "ipw"}


@dataclass(frozen=True)
class AssociationMatrix:
    """Row-stochastic matrix of proportional prediction rates.

    Row s gives the distribution of predicted categories when the true
    category is s; the diagonal is the per-category expected accuracy.
    """

    gamma: np.ndarray
    y_domain: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", _frozen(self.gamma, np.float64))

    @property
    def n_y(self) -> int:
        return self.gamma.shape[0]


@dataclass(frozen=True)
class AssociationVector:
    """Per-category accuracy lift of predicting with X over the Y marginal.

    Components live in [0, 1]: 0 when the category is independent of X,
    1 when X determines membership in the category exactly.  The vectors
    of several bootstrap replicates may be stacked along leading axes.
    """

    theta: np.ndarray
    y_domain: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta, np.float64))

    @property
    def n_y(self) -> int:
        return self.theta.shape[-1]


@dataclass(frozen=True)
class WeightVector:
    """Normalized nonnegative weights over response categories.

    ``regular`` is true when every component is strictly positive, the
    condition under which a weighted association degree of 0 or 1
    characterizes independence or complete determination.
    """

    alpha: np.ndarray
    regular: bool

    def __post_init__(self):
        object.__setattr__(self, "alpha", _frozen(self.alpha, np.float64))


@dataclass(frozen=True)
class GiniStats:
    """Concentration of a marginal: expected probability and Gini variation."""

    ep_y: float
    v_g: float


def _as_joint(j: JointLike) -> JointDistribution:
    if isinstance(j, ContingencyTable):
        return to_joint(j)
    if isinstance(j, JointDistribution):
        return j
    raise DataError(f"expected a joint distribution or contingency table, got {type(j)!r}")


def _table(j: JointLike) -> np.ndarray:
    """A table's entries, rows X and columns Y: counts, or a joint's probabilities."""
    return j.counts if isinstance(j, ContingencyTable) else _as_joint(j).p_xy


def _checked_marginals(j: JointLike) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Marginals plus the conditional-ready joint (a table's plug-in joint)
    restricted to observed X rows."""
    p = _as_joint(j).p_xy
    p_x, p_y = p.sum(axis=1), p.sum(axis=0)
    if (p_y <= 0).any():
        raise NumericDomainError(
            "response has a zero-probability category; drop unused categories first"
        )
    mask = p_x > 0
    return p[mask], p_x[mask], p_y


def association_matrix(j: JointLike) -> AssociationMatrix:
    """Row-stochastic matrix of expected prediction rates per true category.

    Entry (s, t) sums, over explanatory cells with positive mass, the
    product of the cell's joint masses with categories s and t, scaled by
    the cell mass and the marginal of s.  Explanatory cells with zero
    probability contribute nothing.
    """
    p, p_x, p_y = _checked_marginals(j)
    cond = p / p_x[:, None]              # p(Y=t | X=i) on observed rows
    gamma = (cond.T @ p) / p_y[:, None]  # rows: true category s
    return AssociationMatrix(gamma, j.y_domain)


def association_vector(j: JointLike) -> AssociationVector:
    """Accuracy-lift rate for each response category.

    Component s is the diagonal entry of the association matrix for s,
    normalized from its independence baseline (the marginal of s) to 1,
    scored by :func:`_theta` as every degree is.  Undefined when Y is
    constant.
    """
    t = np.ascontiguousarray(_table(j))  # each row sums as its entries do in _theta
    rows, s = np.nonzero(t)
    return AssociationVector(_theta(t[rows, s], t.sum(axis=1)[rows], s, t.shape[1]),
                             j.y_domain)


def make_weights(scheme: str, p_y=None, custom=None) -> WeightVector:
    """Build a normalized weight vector over response categories.

    ``scheme`` is one of:

    * ``"gk"`` -- each category weighted by its share of the response's
      Gini variation, p(1-p) normalized; reproduces Goodman-Kruskal tau.
    * ``"ew"`` (alias ``"equal"``) -- uniform weights.
    * ``"ipw"`` -- inverse-probability weights, emphasizing rare
      categories.
    * ``"custom"`` -- normalize the provided nonnegative ``custom``
      vector.

    The named schemes require a strictly positive marginal ``p_y``.
    """
    if scheme == "custom":
        if custom is None:
            raise DataError("custom scheme needs a weight vector")
        a = np.asarray(custom, dtype=np.float64)
        if not np.isfinite(a).all() or (a < 0).any():
            raise NumericDomainError("custom weights must be finite and nonnegative")
        s = a.sum()
        if s <= 0:
            raise NumericDomainError("custom weights sum to zero")
        a = a / s
        return WeightVector(a, bool((a > 0).all()))

    key = _SCHEME_ALIASES.get(scheme)
    if key is None:
        raise DataError(f"unknown weight scheme {scheme!r}")
    if p_y is None:
        raise DataError(f"scheme {scheme!r} needs the response marginal")
    p = np.asarray(p_y, dtype=np.float64)
    if (p <= 0).any():
        raise NumericDomainError(
            "weight schemes require all response categories to have positive probability"
        )
    if key == "ew":
        a = np.full(p.shape, 1.0 / p.size)
    elif key == "gk":
        w = p * (1.0 - p)
        total = w.sum()
        if total <= 0:
            raise NumericDomainError("response is constant; gk weights undefined")
        a = w / total
    else:  # ipw
        w = 1.0 / p
        a = w / w.sum()
    return WeightVector(a, True)


def tau(theta: AssociationVector, alpha: WeightVector):
    """Weighted global association degree: alpha-weighted mean of the lifts,
    exactly 1 where every lift is 1.

    A float; an array of one degree per row when ``theta`` stacks the
    vectors of several replicates along leading axes."""
    if alpha.alpha.shape != theta.theta.shape[-1:]:
        raise DataError("weight vector length does not match response categories")
    # a row-by-column product per row: each sums as the 1-D dot does
    value = (theta.theta[..., None, :] @ alpha.alpha[:, None])[..., 0, 0]
    # the weights sum to 1 only up to rounding
    value = np.where((theta.theta == 1.0).all(axis=-1), 1.0, value)
    return float(value) if value.ndim == 0 else value


def _column_marginal(j: JointLike) -> np.ndarray:
    """The response marginal that named weights of a table come from: its
    column sums over its total, as ``tau_joint`` weights the same variables."""
    col = _table(j).sum(axis=0)
    return col / col.sum()


def tau_scheme(j: JointLike, scheme: str = "gk", custom=None) -> float:
    """Association degree of Y on X under a named weight scheme, weighted
    from the table's column marginal: ``tau_joint`` of the same variables."""
    th = association_vector(j)
    return tau(th, make_weights(scheme, p_y=_column_marginal(j), custom=custom))


def gk_tau_direct(j: JointLike) -> float:
    """Goodman-Kruskal tau from its closed form, bypassing the vector route.

    Relative reduction of the response's Gini variation achieved by
    conditioning on X.  Kept as an independent oracle: it must agree with
    ``tau(association_vector(j), gk weights)`` to near machine precision.
    """
    p, p_x, p_y = _checked_marginals(j)
    ep_y = float(p_y @ p_y)
    if 1.0 - ep_y <= 0:
        raise NumericDomainError("response is constant; tau undefined")
    cond_ep = float((p * p / p_x[:, None]).sum())
    return (cond_ep - ep_y) / (1.0 - ep_y)


def _group_sum(w: np.ndarray, groups: np.ndarray, n_groups: int) -> np.ndarray:
    """Float sums of ``w`` by ``groups``, one group index per entry of its
    last axis, per row of a 2-D ``w``; each sum adds its entries in order."""
    if w.ndim == 1:
        return np.bincount(groups, w, minlength=n_groups)
    rows = len(w)
    keys = (np.arange(rows)[:, None] * n_groups + groups).ravel()
    return np.bincount(keys, w.ravel(), minlength=rows * n_groups).reshape(rows, n_groups)


def _theta(n_is: np.ndarray, n_i: np.ndarray, s: np.ndarray, n_y: int) -> np.ndarray:
    """The association vector from a table's positive entries ``n_is``
    (counts or probabilities) in row-major order, each with its row total
    ``n_i`` and response code ``s``.  A determined category's lift is
    exactly 1, and one observed cell leaves every lift exactly 0.

    ``n_is`` and ``n_i`` may carry a leading replicate axis over the same
    entries, for one vector per replicate; an entry a replicate leaves
    empty needs a positive ``n_i``."""
    n_s = _group_sum(n_is, s, n_y)
    if not n_s.all():
        raise NumericDomainError(
            "response has a zero-probability category; drop unused categories first"
        )
    if n_y < 2:  # otherwise every category holds less than the whole table
        raise NumericDomainError("response is constant; association vector undefined")
    n = n_is.sum(axis=-1, keepdims=True)
    p_y = n_s / n
    # n_is / n_i first: exactly 1 where X determines s, so that lift is exactly 1.
    gamma_ss = _group_sum(n_is * (n_is / n_i), s, n_y) / n_s
    theta = (gamma_ss - p_y) / (1.0 - p_y)
    one_cell = n_i.max(axis=-1) == n[..., 0]  # gamma_ss is p_y, up to rounding
    if one_cell.any():
        theta[one_cell] = 0.0
    return theta


def _pair_tau(pairs: tuple[np.ndarray, np.ndarray, np.ndarray],
              y_domain: tuple[str, ...], weights: WeightVector):
    """:func:`tau` from the observed pairs of ``dataset._pair_counts``: the
    table's positive entries in row-major order, as :func:`_theta` takes them."""
    return tau(AssociationVector(_theta(*pairs, len(y_domain)), y_domain), weights)


def _determination(cells: np.ndarray, target: np.ndarray, eps: float,
                   weights: np.ndarray | None = None) -> tuple[bool, bool, float, bool]:
    """Whether codes ``target`` are a function of composite codes ``cells``:
    Goodman-Kruskal tau >= 1 - eps, every conditional probability within
    ``eps`` of 0 or 1, tau itself, and whether every cell holds one value,
    from the observed (cell, value) pairs only.  Tau is exactly 1 when every
    cell holds one value, an integer test that decides eps 0.  A record of
    integer ``weights`` counts as that many, so the distinct rows weighted by
    their counts give the records' verdicts and tau in memory linear in the
    records."""
    n_is, n_i, t = _pair_counts(cells, int(cells.max()) + 1, target, int(target.max()) + 1,
                                weights)
    cond = n_is / n_i
    conditionals_01 = bool(np.all((cond <= eps) | (cond >= 1.0 - eps)))
    if np.array_equal(n_is, n_i):
        return True, conditionals_01, 1.0, True
    s, n_t = _compact(t, int(t.max()) + 1)  # over the observed target values
    # The pairs' total is the record count, or the weights' sum.
    alpha = make_weights("gk", p_y=np.bincount(s, n_is) / n_is.sum())
    tau_t = _pair_tau((n_is, n_i, s), range(n_t), alpha)
    return bool(eps > 0 and tau_t >= 1.0 - eps), conditionals_01, tau_t, False


def gini(p_y) -> GiniStats:
    """Expected probability (sum of squares) and Gini variation of a marginal."""
    p = np.asarray(p_y, dtype=np.float64)
    ep = float(p @ p)
    return GiniStats(ep_y=ep, v_g=1.0 - ep)
