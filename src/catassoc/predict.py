"""Proportional prediction and split-sample validation.

A proportional predictor draws the predicted category from the
conditional distribution of the response given the observed explanatory
value (conditional Monte Carlo), rather than always answering with the
conditional mode.  Its expected confusion matrix equals the association
matrix, which is what :func:`split_validate` demonstrates empirically:
fit the matrix on a training split, predict proportionally on the test
split, and compare the tallied confusion rates against the matrix.

Every inverse-CDF draw of the package, here and in :mod:`.simgen`, goes
through ``_draw``, whose memory is linear in the number of draws and in
the size of the distributions; :func:`split_validate` draws in blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .association import AssociationMatrix, JointLike, _as_joint, association_matrix
from .dataset import (_BLOCK, Dataset, _cells, _code_dtype, _count, _distinct_rows, _frozen,
                      _join, _per_record, _strata, joint_from_counts)
from .errors import DataError


@dataclass(frozen=True)
class ConfusionMatrix:
    """Prediction tallies by true category (rows) and predicted category
    (columns), plus row-normalized rates."""

    counts: np.ndarray
    y_domain: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "counts", _frozen(self.counts, np.int64))

    @property
    def normalized(self) -> np.ndarray:
        rows = self.counts.sum(axis=1, keepdims=True)
        safe = np.where(rows > 0, rows, 1)
        return self.counts / safe


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of a train/test proportional-prediction check."""

    train_gamma: AssociationMatrix
    test_confusion: ConfusionMatrix
    max_abs_diff: float
    n_train: int
    n_test: int
    skipped_unseen: int
    seed: int


def proportional_predict(j: JointLike, x_value, rng: np.random.Generator) -> str:
    """Draw one predicted response category for an observed X value.

    The prediction is sampled from the conditional distribution of the
    response given ``x_value``; degenerate conditionals therefore always
    return the determined category.
    """
    j = _as_joint(j)
    try:
        i = j.x_domain.index(x_value)
    except ValueError:
        raise DataError(f"unseen explanatory value {x_value!r}") from None
    row = j.p_xy[i]
    mass = row.sum()
    if mass <= 0:
        raise DataError(f"unseen explanatory value {x_value!r}")
    t = _draw(row / mass, rng.random(1))[0]
    return j.y_domain[t]


def _draw(cond: np.ndarray, u: np.ndarray, rows=0) -> np.ndarray:
    """Inverse-CDF draws: ``u[k]`` is drawn from row ``rows[k]`` of ``cond``.

    ``cond`` is one distribution or a stack of them; ``rows`` defaults to
    row 0 for every draw.  A draw is the number of CDF entries at or below
    u, so u = 0.0 never selects a zero-probability category behind a flat
    CDF prefix.  Memory: the CDFs and, for a stack, their complex keys (16
    bytes an entry), plus a few complex and intp arrays per draw.
    """
    cdf = np.cumsum(np.atleast_2d(cond), axis=1)
    cdf[:, -1] = 1.0
    if np.ndim(rows) == 0:  # one row: a float search of its CDF is the same count
        return np.searchsorted(cdf[rows], u, side="right")
    # Numpy orders complex numbers by real part, then imaginary part, so
    # the keys r + 1j*cdf[r] are sorted row after row and one search
    # places each u exactly within its own row, with no float offsets.
    keys = np.arange(cdf.shape[0])[:, None] + 1j * cdf
    return np.searchsorted(keys.ravel(), rows + 1j * u, side="right") - rows * cdf.shape[1]


def split_validate(ds: Dataset, x, y: str, train_frac: float = 0.8,
                   seed: int = 0, stratify: bool = False) -> ValidationResult:
    """Compare the training association matrix with a test confusion matrix.

    Records are split uniformly at random (optionally stratified by the
    response).  The association matrix is fitted on the training share;
    every test record then gets one proportional prediction from the
    training conditionals, tallied by its true category.  Test records
    whose explanatory value never occurs in training cannot be predicted
    and are skipped (counted in ``skipped_unseen``).  ``max_abs_diff``
    compares matrix entries over test rows with at least one record.

    The narrow index is shuffled per stratum, and test records are drawn and
    tallied in blocks of at least 65,536 and the training table's size: a split,
    stratified or not, grows about 7 bytes a record (gen_flu, 200k to 1M records).
    On a dataset held counts-first, the cells and responses are those of its
    distinct rows, read for each record by its row rank (:func:`_per_record`).
    """
    if not 0.0 < train_frac < 1.0:
        raise DataError("train_frac must be strictly between 0 and 1")
    m, rows = ds.n_records, _distinct_rows(ds, fold=False)[0]
    rng = np.random.default_rng(seed)
    # rng.shuffle permutes a stratum in place as indexing it by rng.permutation would.
    strata = (_strata(_per_record(ds, rows.codes(y)), ds.var(y).size) if stratify
              else [np.arange(m, dtype=_code_dtype([m]))])
    train_idx, test_idx = [], []
    for members in strata:
        rng.shuffle(members)
        k = int(round(train_frac * members.size))
        train_idx.append(members[:k])
        test_idx.append(members[k:])
    train_idx, test_idx = (p[0] if len(p) == 1 else np.concatenate(p)
                           for p in (train_idx, test_idx))
    del strata, members  # stratified, only the concatenated indices stay
    if train_idx.size < 1 or test_idx.size < 1:
        raise DataError("split leaves an empty train or test set")

    cells, nx = _cells(rows, x, y)[1:]
    cells, y_codes = _per_record(ds, cells), _per_record(ds, rows.codes(y))
    ny = ds.var(y).size

    counts_train = _count(_join(cells[train_idx], nx, y_codes[train_idx], ny)[0],
                          nx * ny).reshape(nx, ny)
    if (counts_train.sum(axis=0) == 0).any():
        raise DataError("a response category is absent from the training split")
    train_gamma = association_matrix(joint_from_counts(counts_train,
                                                       y_domain=ds.var(y).domain))

    row_mass = counts_train.sum(axis=1)
    seen = row_mass > 0
    cond = counts_train / np.maximum(row_mass, 1)[:, None]

    # Consecutive blocks of rng.random are one call's draws, bitwise.
    confusion, skipped, step = np.zeros(ny * ny, np.int64), 0, max(_BLOCK, cond.size)
    for i in range(0, test_idx.size, step):
        block = test_idx[i:i + step]
        tx = cells[block]
        usable = seen[tx]
        tx, block = tx[usable], block[usable]
        skipped += usable.size - tx.size
        preds = _draw(cond, rng.random(tx.size), tx.astype(np.intp))
        confusion += _count(_join(y_codes[block], ny, preds, ny)[0], ny * ny)
    cm = ConfusionMatrix(confusion.reshape(ny, ny), ds.var(y).domain)

    occupied = cm.counts.sum(axis=1) > 0
    diff = np.abs(train_gamma.gamma[occupied] - cm.normalized[occupied])
    max_abs_diff = float(diff.max()) if diff.size else 0.0

    return ValidationResult(train_gamma, cm, max_abs_diff,
                            int(train_idx.size), int(test_idx.size), skipped, seed)
