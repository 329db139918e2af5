"""Bundled reference datasets used by the test suite, demos, and CLI.

* ``loan``: a 650-record consumer-loan dataset with five categorical
  attributes (On-Time, Age, Income, Credit, Risk).  Ships as a frozen
  CSV whose pairwise tables against Risk and Credit match the documented
  cross-tabulations exactly (see ``tools/rebuild_loan_fixture.py``).
* ``survey``: a 7x6 cross-classification of two administrative variables
  over 24,000 observations, kept as a contingency table.
* ``sevenths`` / ``sixths`` / ``tenths``: small exact joint
  distributions over (Y, X1, X2) with probabilities in sevenths, sixths
  and tenths.  Each one separates two adjacent equivalence levels: the
  sevenths table has both variables perfectly predictive without mutual
  determination, the sixths table has equal association vectors but
  different matrices, and the tenths table has equal weighted degrees
  but permuted vectors.
"""

from __future__ import annotations

from importlib import resources
from typing import Callable

import numpy as np

from .dataset import ContingencyTable, Dataset, Variable, read_csv
from .errors import DataError

#: Pairwise counts for the loan data; rows follow the x variable's
#: canonical domain, columns the y variable's.
LOAN_TABLES: dict[tuple[str, str], list[list[int]]] = {
    ("On-Time", "Risk"): [[11, 2, 52], [306, 24, 255]],
    ("Age", "Risk"): [[13, 9, 246], [291, 17, 61], [13, 0, 0]],
    ("Income", "Risk"): [[19, 8, 45], [211, 17, 209], [87, 1, 53]],
    ("Credit", "Risk"): [[35, 2, 40], [98, 9, 93], [184, 15, 174]],
    ("On-Time", "Credit"): [[19, 30, 16], [58, 170, 357]],
    ("Age", "Credit"): [[40, 80, 148], [34, 118, 217], [3, 2, 8]],
    ("Income", "Credit"): [[7, 20, 45], [54, 137, 246], [16, 43, 82]],
    ("Risk", "Credit"): [[35, 98, 184], [2, 9, 15], [40, 93, 174]],
}

LOAN_DOMAINS = {
    "On-Time": ("No", "Yes"),
    "Age": ("young", "med", "sen"),
    "Income": ("low", "mid", "hi"),
    "Credit": ("red", "yellow", "green"),
    "Risk": ("low", "med", "hi"),
}

#: 7x6 cross-classification counts, 24,000 observations.
SURVEY_COUNTS = np.array([
    [16, 1, 0, 0, 0, 0],
    [1199, 1274, 346, 66, 33, 1],
    [640, 2363, 1363, 343, 103, 7],
    [381, 2203, 2646, 949, 402, 18],
    [182, 1131, 2038, 1369, 762, 55],
    [79, 407, 937, 1047, 1286, 206],
    [2, 5, 14, 20, 51, 55],
])

#: Association matrix of a six-category response against a mildly
#: informative explanatory variable, rounded to two decimals; used as a
#: visual reference in the validation demo.
SIXCAT_REFERENCE_GAMMA = np.array([
    [.26, .47, .15, .06, .04, .01],
    [.05, .48, .28, .11, .07, .01],
    [.02, .36, .34, .15, .11, .02],
    [.02, .32, .35, .17, .12, .02],
    [.02, .30, .35, .18, .14, .03],
    [.03, .29, .33, .18, .15, .03],
])

# Small joint distributions as (Y, X1, X2, weight) rows; weights are in
# units of the common denominator, so expanding each row `weight` times
# gives a dataset whose plug-in distribution is exact.
_SEVENTHS_ROWS = [
    ("1", "1", "2", 2),
    ("0", "2", "3", 2),
    ("0", "3", "1", 2),
    ("1", "4", "2", 1),
]
_SIXTHS_ROWS = [
    ("1", "1", "1", 1),
    ("2", "1", "3", 1),
    ("2", "2", "2", 1),
    ("4", "2", "3", 1),
    ("3", "3", "1", 1),
    ("4", "3", "2", 1),
]
_TENTHS_ROWS = [
    ("1", "1", "2", 1),
    ("1", "1", "1", 2),
    ("2", "2", "1", 1),
    ("3", "3", "1", 1),
    ("1", "4", "4", 1),
    ("2", "1", "1", 2),
    ("3", "1", "3", 1),
    ("2", "4", "4", 1),
]


def _weighted_rows_dataset(rows) -> Dataset:
    *cols, weights = zip(*rows)
    distinct = Dataset.from_label_columns(dict(zip(("Y", "X1", "X2"), cols)))
    return distinct.take(np.repeat(np.arange(len(rows)), weights))


def loan_dataset() -> Dataset:
    """The bundled 650-record loan dataset, ingested from package data."""
    path = resources.files("catassoc").joinpath("data/loan.csv")
    with resources.as_file(path) as p:
        return read_csv(p)


def loan_pair_table(x: str, y: str) -> ContingencyTable:
    """One of the documented pairwise tables of the loan data."""
    key = (x, y)
    if key not in LOAN_TABLES:
        raise DataError(f"no documented table for pair {key!r}")
    return ContingencyTable(x, y, LOAN_DOMAINS[x], LOAN_DOMAINS[y],
                            np.array(LOAN_TABLES[key]))


def survey_table() -> ContingencyTable:
    """The 24,000-observation 7x6 cross-classification, as counts."""
    xd = tuple(str(i) for i in range(1, 8))
    yd = tuple(str(i) for i in range(1, 7))
    return ContingencyTable("X", "Y", xd, yd, SURVEY_COUNTS)


def survey_dataset() -> Dataset:
    """The survey table expanded to 24,000 two-column records."""
    ct = survey_table()
    cells = Dataset((Variable("X", ct.x_domain), Variable("Y", ct.y_domain)),
                    np.indices(ct.counts.shape).reshape(2, -1).T)
    return cells.take(np.repeat(np.arange(ct.counts.size), ct.counts.ravel()))


def sevenths_dataset() -> Dataset:
    """Both explanatory variables determine Y, yet neither determines the
    other: separates perfect mutual prediction from joint perfection."""
    return _weighted_rows_dataset(_SEVENTHS_ROWS)


def sixths_dataset() -> Dataset:
    """Equal association vectors (all lifts 1/2) with different
    association matrices."""
    return _weighted_rows_dataset(_SIXTHS_ROWS)


def tenths_dataset() -> Dataset:
    """Equal weighted association degrees with permuted association
    vectors."""
    return _weighted_rows_dataset(_TENTHS_ROWS)


FIXTURES: dict[str, Callable[[], Dataset]] = {
    "loan": loan_dataset,
    "survey": survey_dataset,
    "sevenths": sevenths_dataset,
    "sixths": sixths_dataset,
    "tenths": tenths_dataset,
}


def fixture(name: str) -> Dataset:
    """Look up a bundled dataset by name."""
    try:
        return FIXTURES[name]()
    except KeyError:
        raise DataError(
            f"unknown fixture {name!r}; available: {sorted(FIXTURES)}"
        ) from None
