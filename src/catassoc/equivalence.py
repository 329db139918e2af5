"""Nested equivalence relations between explanatory variables.

Two explanatory variables can be interchangeable with respect to a
response at five successively weaker levels:

* level 1: the variables determine each other completely and either one
  determines the response;
* level 2: each variable determines the response completely;
* level 3: equal association matrices;
* level 4: equal association vectors;
* level 5: equal weighted association degrees for a given weight vector.

Each level implies the next, and for a binary response levels 3-5
coincide.  Comparisons are tolerance-based by default (the float route)
but can be made exact on integer-count data via ``exact=True``, which is
what the hierarchy property tests use.  Both routes share one definition
of the levels, and both decide levels 1 and 2 and their taus from the
observed (given, target) pairs, exactly at tolerance 0.  The float route
scores with the kernel every degree uses; the closed forms of
:mod:`catassoc.exact` are the oracle, used only by the exact route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact as _exact
from .association import (WeightVector, _determination, association_matrix,
                          association_vector, tau)
from .dataset import Dataset, _count, contingency
from .errors import DataError, NumericDomainError
from .selection import _resolve_weights

#: Default tolerance for equality of association quantities.
DEFAULT_TOL = 1e-9

LEVELS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class EquivalenceReport:
    """Which equivalence levels hold for one variable pair.

    ``levels[i]`` is the verdict for level ``i`` (keys 1..5);
    ``strongest`` is the smallest level that holds, or ``None``.
    ``details`` carries the measured quantities behind each verdict.
    """

    x1: str
    x2: str
    y: str
    levels: dict[int, bool]
    strongest: int | None
    tol: float
    details: dict[str, float]


def e2prime(ds: Dataset, x1: str, x2: str, tol: float = DEFAULT_TOL) -> bool:
    """Mutual complete determination of two variables.

    True when both cross-variable Goodman-Kruskal taus are at least
    ``1 - tol`` (``tol`` >= 0).  Only observed (x1, x2) pairs are counted,
    so memory is linear in the records; ``tol`` 0 is exact.  Sits between
    levels 1 and 3 in the hierarchy.
    """
    if x1 == x2:
        raise DataError("e2prime needs two distinct variables")
    a, b = ds.codes(x1), ds.codes(x2)
    return _determination(b, a, tol)[0] and _determination(a, b, tol)[0]


def equivalence_levels(ds: Dataset, x1: str, x2: str, y: str,
                       alpha: WeightVector | str | None = None,
                       tol: float = DEFAULT_TOL,
                       exact: bool = False) -> EquivalenceReport:
    """Evaluate all five equivalence levels for a pair of explanatory variables.

    ``alpha`` parameterizes level 5 and takes what ``tau_joint`` takes: a
    weight vector, or a scheme name weighted from the response's marginal
    (default ``"gk"``).  With ``exact=True`` all comparisons are performed
    in rational arithmetic at tolerance zero (level 5 then always uses the
    exact Gini-share weights); otherwise ``tol`` >= 0.

    Levels 1-2 and the four ``tau_*`` details come from observed pairs
    (a determined pair's tau is exactly 1); apart from the y|x1 and y|x2
    count tables of levels 3-5, memory is linear in the records.  Under gk
    weights an undetermined ``tau_y_x1`` equals ``tau_alpha_x1`` bitwise.
    """
    if len({x1, x2, y}) != 3:
        raise DataError("x1, x2, y must be three distinct variables")
    for nm in (x1, x2, y):
        ds.var(nm)
    if exact:
        tol = 0.0
    elif not tol >= 0:  # a negative tol would let level 1 hold without level 3
        raise DataError("tol must be nonnegative")
    for nm in (y, x1, x2):  # each is the response of a tau below
        n = _count(ds.codes(nm), ds.var(nm).size)
        if not n.all():
            raise NumericDomainError("response has a zero-probability category"
                                     + ("" if exact else "; drop unused categories first"))
        if n.size < 2:
            raise NumericDomainError("response is constant" + ("" if exact else "; tau undefined"))

    # y given x1, y given x2, x1 given x2, x2 given x1
    verdicts = [_determination(ds.codes(given), ds.codes(target), tol)
                for given, target in ((x1, y), (x2, y), (x2, x1), (x1, x2))]
    y_x1, y_x2, x1_x2, x2_x1 = (v[0] for v in verdicts)
    tau_y_x1, tau_y_x2, tau_x1_x2, tau_x2_x1 = (v[2] for v in verdicts)
    tables = [contingency(ds, x, y) for x in (x1, x2)]
    if exact:
        counts = [t.counts for t in tables]
        g1, g2 = (_exact.gamma_exact(c) for c in counts)
        th1, th2 = (_exact.theta_exact(c) for c in counts)
        t1, t2 = (_exact.tau_exact(c) for c in counts)
    else:
        g1, g2 = (association_matrix(t).gamma for t in tables)
        v1, v2 = (association_vector(t) for t in tables)
        th1, th2 = v1.theta, v2.theta
        alpha = _resolve_weights(ds, y, alpha)
        if not alpha.regular:
            raise NumericDomainError("level-5 comparison needs a regular weight vector")
        t1, t2 = tau(v1, alpha), tau(v2, alpha)

    # Object arrays of Fractions keep the exact route exact at tol 0.
    gamma_diff = np.abs(np.asarray(g1) - np.asarray(g2)).max()
    theta_diff = np.abs(np.asarray(th1) - np.asarray(th2)).max()
    levels = {
        1: x1_x2 and x2_x1 and y_x1,
        2: y_x1 and y_x2,
        3: gamma_diff <= tol,
        4: theta_diff <= tol,
        5: abs(t1 - t2) <= tol,
    }
    levels = {i: bool(v) for i, v in levels.items()}
    details = {
        "tau_y_x1": tau_y_x1, "tau_y_x2": tau_y_x2,
        "tau_x1_x2": tau_x1_x2, "tau_x2_x1": tau_x2_x1,
        "max_gamma_diff": gamma_diff, "max_theta_diff": theta_diff,
        "tau_alpha_x1": t1, "tau_alpha_x2": t2,
    }
    details = {k: float(v) for k, v in details.items()}
    strongest = next((i for i in LEVELS if levels[i]), None)
    return EquivalenceReport(x1, x2, y, levels, strongest, tol, details)
