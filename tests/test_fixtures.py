"""Bundled reference datasets: internal consistency."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from catassoc import DataError, contingency, to_joint
from catassoc.fixtures import (
    LOAN_TABLES,
    SIXCAT_REFERENCE_GAMMA,
    fixture,
    loan_dataset,
    loan_pair_table,
    sevenths_dataset,
    sixths_dataset,
    survey_dataset,
    survey_table,
    tenths_dataset,
)


class TestLoan:
    def test_every_documented_pair_matches_records(self):
        ds = loan_dataset()
        for (x, y), counts in LOAN_TABLES.items():
            ct = contingency(ds, x, y)
            assert ct.counts.tolist() == counts, (x, y)

    def test_totals(self):
        ds = loan_dataset()
        assert ds.n_records == 650
        assert loan_pair_table("On-Time", "Risk").total == 650

    def test_domains_canonical(self):
        ds = loan_dataset()
        assert ds.var("Risk").domain == ("low", "med", "hi")
        assert ds.var("On-Time").domain == ("No", "Yes")
        assert ds.var("Credit").domain == ("red", "yellow", "green")

    def test_unknown_pair(self):
        with pytest.raises(DataError):
            loan_pair_table("Age", "Income")

    def test_rebuild_tool_reproduces_shipped_csv(self, tmp_path):
        # The tool writes this path relative to its working directory.
        csv = Path("src", "catassoc", "data", "loan.csv")
        root = Path(__file__).resolve().parent.parent
        (tmp_path / csv).parent.mkdir(parents=True)
        p = subprocess.run([sys.executable, str(root / "tools" / "rebuild_loan_fixture.py")],
                           cwd=tmp_path, capture_output=True, text=True, timeout=120)
        assert p.returncode == 0, p.stderr
        assert (tmp_path / csv).read_bytes() == (root / csv).read_bytes()


class TestSurvey:
    def test_total(self):
        assert survey_table().total == 24000

    def test_column_sums(self):
        ct = survey_table()
        assert ct.counts.sum(axis=0).tolist() == [2499, 7384, 7344, 3794, 2637, 342]

    def test_marginal_print(self):
        # 342/24000 = 0.01425 sits exactly on the half-up boundary
        j = to_joint(survey_table())
        want = [0.1041, 0.3077, 0.3060, 0.1581, 0.1099, 0.0143]
        assert np.abs(j.p_y - want).max() <= 5e-5 + 1e-12

    def test_expansion_roundtrip(self):
        ds = survey_dataset()
        assert ds.n_records == 24000
        ct = contingency(ds, "X", "Y")
        assert (ct.counts == survey_table().counts).all()


class TestSmallJointFixtures:
    def test_sevenths_mass(self):
        ds = sevenths_dataset()
        assert ds.n_records == 7

    def test_sixths_mass(self):
        ds = sixths_dataset()
        assert ds.n_records == 6
        assert ds.var("Y").size == 4

    def test_tenths_mass_and_weights(self):
        ds = tenths_dataset()
        assert ds.n_records == 10
        j = to_joint(contingency(ds, "X1", "Y"))
        # marginal (2/5, 2/5, 1/5) in label order 1, 2, 3
        got = dict(zip(j.y_domain, j.p_y))
        assert abs(got["1"] - 0.4) <= 1e-12
        assert abs(got["2"] - 0.4) <= 1e-12
        assert abs(got["3"] - 0.2) <= 1e-12


class TestRegistry:
    def test_names(self):
        for name in ("loan", "survey", "sevenths", "sixths", "tenths"):
            ds = fixture(name)
            assert ds.n_records >= 1

    def test_unknown(self):
        with pytest.raises(DataError):
            fixture("nope")


class TestReferenceGamma:
    def test_row_stochastic_at_print_precision(self):
        assert np.abs(SIXCAT_REFERENCE_GAMMA.sum(axis=1) - 1.0).max() <= 0.02
