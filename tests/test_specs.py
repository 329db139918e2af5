"""Variable specs: every function that takes a variable set reads a name,
names or a composite the same way, and rejects a bad set with one message."""

import dataclasses

import numpy as np
import pytest

from catassoc import (
    DataError,
    WeightedPopulation,
    composite,
    contingency,
    count_bootstrap,
    ep,
    gen_flu,
    retention_ratio,
    split_validate,
    tau_joint,
    verify_basis,
)
from catassoc.cli import EXIT_DATA, main
from catassoc.dataset import _cells, _fold
from catassoc.fixtures import loan_dataset


def _plain(value):
    """``value`` with dataclasses as dicts and arrays as lists, to compare by ``==``."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def _contingency(ds, x):
    """Counts and cells of ``contingency``: a plain variable's cells are its
    labels, a composite's the label tuples."""
    ct = contingency(ds, x, "Risk")
    cells = [(c,) if isinstance(x, str) else c for c in ct.x_domain]
    return ct.counts.tolist(), cells, ct.y_domain


def _joint(ds, x):
    pop = WeightedPopulation(ds.variables, ds.records,
                             np.full(ds.n_records, 1.0 / ds.n_records))
    return pop.joint(x, "Risk")


TAKES_A_SET = {
    "composite": composite,
    "contingency": _contingency,
    "tau_joint": lambda ds, x: tau_joint(ds, "Risk", x),
    "ep": ep,
    "retention_ratio subset": lambda ds, x: retention_ratio(ds, "Risk", x, ["Age", "Income"]),
    "retention_ratio fullset": lambda ds, x: retention_ratio(ds, "Risk", x, x),
    "count_bootstrap fullset": lambda ds, x: count_bootstrap(ds, "Risk", x, B=20, seed=3),
    "count_bootstrap subset": lambda ds, x: count_bootstrap(ds, "Risk", ["Age", "Credit"], x,
                                                            B=20, seed=3),
    "verify_basis": verify_basis,
    "split_validate": lambda ds, x: split_validate(ds, x, "Risk", seed=2),
    "WeightedPopulation.joint": _joint,
}


def _bootstrap_bytes(ds, full, sub=None):
    res = count_bootstrap(ds, "Y", full, sub, B=50, seed=1)
    return res.point, res.replicates.tobytes()


#: Callers of a set on the flu data, each scored for the composite of
#: (X1, X2) built on another dataset and for the names themselves.
ON_ANOTHER_DATASET = {
    "composite": lambda ds, x: _plain(composite(ds, x)),
    "contingency": lambda ds, x: _plain(contingency(ds, x, "Y")),
    "split_validate": lambda ds, x: _plain(split_validate(ds, x, "Y", seed=1)),
    "count_bootstrap fullset": _bootstrap_bytes,
    "count_bootstrap subset": lambda ds, x: _bootstrap_bytes(ds, ["X1", "X2", "R3"], x),
    "verify_basis": lambda ds, x: _plain(verify_basis(ds.take(np.arange(500)), x)),
}


class TestCompositeOfAnotherDataset:
    """A composite is read by its part names on the dataset it is passed with,
    never by the codes it stores for the dataset it was built on."""

    @pytest.mark.parametrize("call", ON_ANOTHER_DATASET.values(), ids=ON_ANOTHER_DATASET.keys())
    def test_same_as_its_names(self, call):
        c, ds = composite(gen_flu(1000, 1), ["X1", "X2"]), gen_flu(1000, 2)
        assert call(ds, c) == call(ds, ["X1", "X2"])


class TestBareName:
    @pytest.mark.parametrize("call", TAKES_A_SET.values(), ids=TAKES_A_SET.keys())
    def test_name_is_its_one_element_set(self, call):
        ds = loan_dataset()
        result = _plain(call(ds, "Age"))
        assert result == _plain(call(ds, ["Age"])) == _plain(call(ds, ("Age",)))


#: Callers of a set; all but ``_fold`` are given the response "Risk".
CHECKED = {
    "_fold": _fold,
    "_cells": lambda ds, x: _cells(ds, x, "Risk"),
    "tau_joint": lambda ds, x: tau_joint(ds, "Risk", x),
    "contingency": lambda ds, x: contingency(ds, x, "Risk"),
    "split_validate": lambda ds, x: split_validate(ds, x, "Risk"),
}
BAD_SETS = [
    ([], "composite needs at least one variable"),
    (["Age", "Income", "Age"], "composite parts must be distinct"),
    (["Age", "Risk"], "response 'Risk' overlaps the explanatory parts"),
    ("Risk", "response 'Risk' overlaps the explanatory parts"),
]


class TestBadSets:
    @pytest.mark.parametrize("caller, x, message", [
        (caller, x, message) for caller in CHECKED for x, message in BAD_SETS
        if caller != "_fold" or "Risk" not in x])
    def test_one_message_everywhere(self, caller, x, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            CHECKED[caller](loan_dataset(), x)

    @pytest.mark.parametrize("x", ["Nope", ["Age", "Nope"]])
    def test_unknown_name_before_overlap(self, x):
        with pytest.raises(DataError, match="unknown variable 'Nope'"):
            contingency(loan_dataset(), x, "Nope")

    def test_cli_unknown_name_before_overlap(self, capsys):
        assert main(["matrix", "-i", "loan", "--x", "Nope", "--y", "Nope"]) == EXIT_DATA
        assert "unknown variable 'Nope'" in capsys.readouterr().err
