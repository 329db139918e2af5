"""Synthetic categorical data generators with exact population oracles.

The flagship generator is a two-test disease-screening model: a
three-valued outcome Y (healthy / common strain / severe strain) driven
by two dependent binary tests X1 and X2, plus three derived columns that
carry no information beyond (X1, X2):

* R3, R4 -- degraded one-sided copies of X1 and X2: a positive parent
  registers with probability ``carry_prob``, a negative parent never
  registers;
* S5 -- the conjunction of both tests thinned by an independent
  Bernoulli coin, so it flags exactly the high-risk joint state.

:func:`population_joint_flu` materializes the model's exact distribution
over all six columns, which lets tests compare sampled estimates against
closed-form population values.  :func:`sample_joint` draws records from
any two-way joint distribution; it backs the split-validation study at
scale.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .association import _as_joint
from .dataset import (
    ContingencyTable,
    Dataset,
    JointDistribution,
    Variable,
    WeightedPopulation,
)
from .errors import PROB_ATOL, DataError, _check_size
from .predict import _draw

_CELLS = ((0, 0), (0, 1), (1, 0), (1, 1))


@dataclass(frozen=True)
class FluSpec:
    """Parameters of the screening model.

    ``p_x1x2`` gives the probability of each (X1, X2) state in the order
    (0,0), (0,1), (1,0), (1,1); ``cond_y`` the conditional distribution
    of Y per state, in the same order.  ``carry_prob`` is the chance a
    positive parent carries through to its degraded copy; ``z_prob`` the
    thinning coin for the conjunction column.
    """

    p_x1x2: tuple[float, ...] = (9 / 16, 3 / 16, 3 / 16, 1 / 16)
    cond_y: tuple[tuple[float, ...], ...] = (
        (0.95, 0.05, 0.00),
        (0.50, 0.50, 0.00),
        (0.30, 0.70, 0.00),
        (0.00, 0.05, 0.95),
    )
    carry_prob: float = 0.90
    z_prob: float = 0.80

    def __post_init__(self):
        # Plain Python (DEFAULT_FLU runs it at import); ``not 0 <= p`` refuses NaN.
        rows = [("p_x1x2", self.p_x1x2), ("carry_prob", (self.carry_prob, 1 - self.carry_prob)),
                ("z_prob", (self.z_prob, 1 - self.z_prob))]
        for name, row in rows + [("every conditional row of cond_y", r) for r in self.cond_y]:
            if not all(0 <= p for p in row):
                raise DataError(f"{name} must lie in [0, 1]")
            if abs(sum(row) - 1.0) > PROB_ATOL:
                raise DataError(f"{name} must sum to 1")


DEFAULT_FLU = FluSpec()


def _flu_variables() -> tuple[Variable, ...]:
    return (
        Variable("Y", ("0", "1", "2")),
        Variable("X1", ("0", "1")),
        Variable("X2", ("0", "1")),
        Variable("R3", ("0", "1")),
        Variable("R4", ("0", "1")),
        Variable("S5", ("0", "1")),
    )


def gen_flu(n: int, seed: int, spec: FluSpec = DEFAULT_FLU) -> Dataset:
    """Sample ``n`` records from the screening model.

    Column order is Y, X1, X2, R3, R4, S5 with pinned domains, so the
    category indexing never depends on the seed.
    """
    _check_size(n, "n")
    rng = np.random.default_rng(seed)
    cell = _draw(np.asarray(spec.p_x1x2), rng.random(n))
    x1 = np.asarray([c[0] for c in _CELLS])[cell]
    x2 = np.asarray([c[1] for c in _CELLS])[cell]
    y = _draw(np.asarray(spec.cond_y), rng.random(n), cell)
    r3 = np.where(x1 == 1, (rng.random(n) < spec.carry_prob).astype(int), 0)
    r4 = np.where(x2 == 1, (rng.random(n) < spec.carry_prob).astype(int), 0)
    z = (rng.random(n) < spec.z_prob).astype(int)
    s5 = x1 * x2 * z
    records = np.stack([y, x1, x2, r3, r4, s5], axis=1)
    return Dataset(_flu_variables(), records)


def population_joint_flu(spec: FluSpec = DEFAULT_FLU) -> WeightedPopulation:
    """Exact joint distribution of (Y, X1, X2, R3, R4, S5).

    Enumerates the full product support and multiplies the factorized
    probabilities; zero-mass cells are dropped.
    """
    # A copy reads 1 with probability p if its parent is positive, else never.
    copy = lambda bit, parent, p: (p if bit else 1 - p) if parent else float(not bit)
    cells, probs = [], []
    for (ci, (x1, x2)), y, r3, r4, s5 in itertools.product(
            enumerate(_CELLS), range(3), (0, 1), (0, 1), (0, 1)):
        factors = (spec.cond_y[ci][y], copy(r3, x1, spec.carry_prob),
                   copy(r4, x2, spec.carry_prob), copy(s5, x1 and x2, spec.z_prob))
        if 0 not in factors:
            cells.append((y, x1, x2, r3, r4, s5))
            probs.append(math.prod(factors, start=spec.p_x1x2[ci]))
    return WeightedPopulation(_flu_variables(), np.array(cells), np.array(probs))


def sample_joint(j: JointDistribution | ContingencyTable, n: int, seed: int,
                 x_name: str = "X", y_name: str = "Y") -> Dataset:
    """Draw ``n`` records from a two-way joint distribution.

    Cell probabilities are flattened and sampled by inverse CDF; the
    resulting dataset has two columns with the joint's domains pinned,
    so the coding is seed-independent.  Composite x-categories become
    single labels joined by ``|``.
    """
    _check_size(n, "n")
    j = _as_joint(j)
    rng = np.random.default_rng(seed)
    flat = j.p_xy.ravel()
    idx = _draw(flat, rng.random(n))
    xi, yi = np.unravel_index(idx, j.p_xy.shape)
    x_labels = tuple(
        "|".join(map(str, d)) if isinstance(d, tuple) else str(d)
        for d in j.x_domain
    )
    variables = (Variable(x_name, x_labels), Variable(y_name, tuple(j.y_domain)))
    return Dataset(variables, np.stack([xi, yi], axis=1))


def add_independent_noise(ds: Dataset, k: int, n_categories: int,
                          seed: int, prefix: str = "N") -> Dataset:
    """Append ``k`` independent uniform categorical columns to a dataset.

    Used to stress feature selection: the new columns carry no
    information about anything and must never enter a selected basis.
    """
    _check_size(k, "k")
    rng = np.random.default_rng(seed)
    m = ds.n_records
    new_vars = list(ds.variables)
    new_cols = [ds.records]
    for i in range(k):
        name = f"{prefix}{i + 1}"
        if name in ds.names:
            raise DataError(f"variable {name!r} already exists")
        new_vars.append(Variable(name, tuple(str(c) for c in range(n_categories))))
        new_cols.append(rng.integers(0, n_categories, size=(m, 1)))
    return Dataset(new_vars, np.hstack(new_cols))
