"""Equivalence levels between explanatory variables and their hierarchy."""

import tracemalloc

import numpy as np
import pytest

from catassoc import (
    DataError,
    Dataset,
    NumericDomainError,
    association_vector,
    contingency,
    e2prime,
    equivalence_levels,
)
from catassoc.fixtures import sevenths_dataset, sixths_dataset, tenths_dataset

from conftest import random_triple_dataset


def with_extra_copy(ds, src, new):
    cols = {nm: list(ds.labels(nm)) for nm in ds.names}
    cols[new] = list(ds.labels(src))
    return Dataset.from_label_columns(cols)


class TestCounterexampleFixtures:
    def test_sixths_level4_without_level3(self):
        rep = equivalence_levels(sixths_dataset(), "X1", "X2", "Y", exact=True)
        assert rep.levels[4] and not rep.levels[3]
        assert rep.strongest == 4

    def test_sixths_gamma_values(self):
        from catassoc import association_matrix, contingency, to_joint
        ds = sixths_dataset()
        j1 = to_joint(contingency(ds, "X1", "Y"))
        j2 = to_joint(contingency(ds, "X2", "Y"))
        g1 = association_matrix(j1)
        g2 = association_matrix(j2)
        # all diagonal entries are 1/2 for both variables
        assert np.abs(np.diag(g1.gamma) - 0.5).max() <= 1e-12
        assert np.abs(np.diag(g2.gamma) - 0.5).max() <= 1e-12
        # but the (1,2) off-diagonal separates the matrices
        i1, i2 = g1.y_domain.index("1"), g1.y_domain.index("2")
        assert abs(g1.gamma[i1, i2] - 0.5) <= 1e-12
        assert abs(g2.gamma[i1, i2] - 0.0) <= 1e-12

    def test_tenths_level5_without_level4(self):
        rep = equivalence_levels(tenths_dataset(), "X1", "X2", "Y", exact=True)
        assert rep.levels[5] and not rep.levels[4]
        assert rep.strongest == 5

    def test_sevenths_level2_without_level1(self):
        rep = equivalence_levels(sevenths_dataset(), "X1", "X2", "Y", exact=True)
        assert rep.levels[2] and not rep.levels[1]
        assert rep.strongest == 2

    def test_sevenths_e2prime_false(self):
        ds = sevenths_dataset()
        from catassoc import tau_joint
        assert tau_joint(ds, "Y", ["X1"]) >= 1 - 1e-12
        assert tau_joint(ds, "Y", ["X2"]) >= 1 - 1e-12
        assert not e2prime(ds, "X1", "X2")


class TestE2Prime:
    def test_bijective_relabeling(self):
        ds = tenths_dataset()
        cols = {nm: list(ds.labels(nm)) for nm in ds.names}
        relabel = {"1": "d", "2": "c", "3": "b", "4": "a"}
        cols["X1b"] = [relabel[v] for v in cols["X1"]]
        ds2 = Dataset.from_label_columns(cols)
        assert e2prime(ds2, "X1", "X1b")

    def test_independent_false(self):
        ds = Dataset.from_label_columns({
            "A": ["0", "0", "1", "1"],
            "B": ["0", "1", "0", "1"],
        })
        assert not e2prime(ds, "A", "B")

    def test_same_variable_rejected(self):
        with pytest.raises(DataError):
            e2prime(tenths_dataset(), "X1", "X1")

    @pytest.mark.parametrize("tol", [-1.0, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # as equivalence_levels refuses it
        with pytest.raises(DataError, match="tol must be nonnegative"):
            e2prime(tenths_dataset(), "X1", "X2", tol=tol)

    def test_infinite_tol_accepted(self):
        assert e2prime(tenths_dataset(), "X1", "X2", tol=float("inf"))

    def test_relabeled_copy_at_tol_zero(self):
        rng = np.random.default_rng(12)
        for _ in range(200):
            m, k = int(rng.integers(10, 2000)), int(rng.integers(2, 12))
            a = rng.integers(0, k, m)
            ds = Dataset.from_label_columns({
                "A": [str(v) for v in a],
                "B": [str(v) for v in rng.permutation(k)[a]],
            })
            assert e2prime(ds, "A", "B", tol=0.0) and e2prime(ds, "B", "A", tol=0.0)

    def test_constant_variable_symmetric(self):
        ds = Dataset.from_label_columns({
            "C": ["0", "0", "0", "0"],
            "D": ["1", "1", "1", "1"],
            "X": ["0", "1", "0", "1"],
        })
        assert not e2prime(ds, "C", "X") and not e2prime(ds, "X", "C")
        assert e2prime(ds, "C", "D", tol=0.0) and e2prime(ds, "D", "C", tol=0.0)

    def test_unobserved_category_ignored(self):
        ds = Dataset.from_label_columns(
            {"A": ["0", "1", "0", "1"], "B": ["b", "a", "b", "a"]},
            domains={"A": ["0", "1", "2"]})
        assert e2prime(ds, "A", "B", tol=0.0) and e2prime(ds, "B", "A", tol=0.0)


class TestReflexivityAndSymmetry:
    def test_copy_is_equivalent_at_all_weak_levels(self):
        ds = with_extra_copy(tenths_dataset(), "X1", "X1c")
        rep = equivalence_levels(ds, "X1", "X1c", "Y", exact=True)
        assert rep.levels[3] and rep.levels[4] and rep.levels[5]

    def test_symmetry(self):
        rng = np.random.default_rng(8)
        for _ in range(25):
            ds = random_triple_dataset(rng)
            a = equivalence_levels(ds, "X1", "X2", "Y", exact=True)
            b = equivalence_levels(ds, "X2", "X1", "Y", exact=True)
            # levels 2-5 are symmetric by definition; level 1 as stated
            # pins the response condition to the first variable, and the
            # remaining conditions force it for the other one too
            for i in (2, 3, 4, 5):
                assert a.levels[i] == b.levels[i]


class TestHierarchy:
    def test_chain_on_random_triples(self):
        rng = np.random.default_rng(9)
        fired = {i: 0 for i in (1, 2, 3, 4)}
        for _ in range(400):
            ds = random_triple_dataset(rng)
            rep = equivalence_levels(ds, "X1", "X2", "Y", exact=True)
            for i in (1, 2, 3, 4):
                if rep.levels[i]:
                    fired[i] += 1
                    assert rep.levels[i + 1], (
                        f"level {i} held without level {i + 1}: {rep.details}"
                    )
        # the ensemble is structured so every implication is exercised
        assert all(v > 0 for v in fired.values()), fired

    def test_e2prime_implies_level3(self):
        rng = np.random.default_rng(10)
        fired = 0
        for _ in range(300):
            ds = random_triple_dataset(rng)
            if e2prime(ds, "X1", "X2", tol=0.0):
                fired += 1
                rep = equivalence_levels(ds, "X1", "X2", "Y", exact=True)
                assert rep.levels[3]
        assert fired > 0

    def test_binary_response_levels_3_4_5_coincide(self):
        rng = np.random.default_rng(11)
        seen = 0
        for _ in range(300):
            ds = random_triple_dataset(rng)
            if ds.var("Y").size != 2:
                continue
            seen += 1
            rep = equivalence_levels(ds, "X1", "X2", "Y", exact=True)
            assert rep.levels[3] == rep.levels[4] == rep.levels[5], rep.details
        assert seen > 30


    def test_determined_pairs_at_tol_zero(self):
        # A and B each refine Y, so level 2 holds; both association
        # matrices are the identity and every lift is exactly 1, so the
        # float route must find levels 3-5 at tol 0 as well.
        rng = np.random.default_rng(8)
        for _ in range(300):
            m, n_y = int(rng.integers(20, 3000)), int(rng.integers(2, 5))
            k1, k2 = (int(v) for v in rng.integers(1, 10, 2))
            y = rng.integers(0, n_y, m)
            ds = Dataset.from_label_columns({
                "A": [str(v) for v in y * k1 + rng.integers(0, k1, m)],
                "B": [str(v) for v in y * k2 + rng.integers(0, k2, m)],
                "Y": [str(v) for v in y],
            })
            rep = equivalence_levels(ds, "A", "B", "Y", tol=0.0)
            assert rep.levels[2], rep.details
            assert rep.levels[3] and rep.levels[4] and rep.levels[5], rep.details
            for x in ("A", "B"):
                assert (association_vector(contingency(ds, x, "Y")).theta == 1.0).all()


class TestFloatMatchesExact:
    """The float route, which ``catassoc equiv`` runs, decides every level as
    the exact route does on the ensemble and the counterexample fixtures."""

    def test_random_triples(self):
        rng = np.random.default_rng(12)
        for _ in range(1000):
            ds = random_triple_dataset(rng)
            fast = equivalence_levels(ds, "X1", "X2", "Y")
            exact = equivalence_levels(ds, "X1", "X2", "Y", exact=True)
            assert fast.levels == exact.levels, (fast.details, exact.details)

    @pytest.mark.parametrize("make", [sevenths_dataset, sixths_dataset, tenths_dataset])
    def test_fixtures(self, make):
        ds = make()
        for x1, x2 in (("X1", "X2"), ("X2", "X1")):
            fast = equivalence_levels(ds, x1, x2, "Y")
            exact = equivalence_levels(ds, x1, x2, "Y", exact=True)
            assert fast.levels == exact.levels
            assert fast.strongest == exact.strongest

    @pytest.mark.parametrize("exact", [False, True])
    def test_refinement_is_level_2_not_level_1(self, exact):
        # A is a function of B, but B is not a function of A
        rng = np.random.default_rng(14)
        a = rng.integers(0, 4, 300)
        ds = Dataset.from_label_columns({
            "A": [str(v) for v in a],
            "B": [str(v) for v in 2 * a + rng.integers(0, 2, a.size)],
            "Y": [str(v) for v in a % 3],
        })
        for x1, x2 in (("A", "B"), ("B", "A")):
            rep = equivalence_levels(ds, x1, x2, "Y", tol=0.0, exact=exact)
            assert rep.levels[2] and not rep.levels[1]

    def test_relabeled_copy_at_tol_zero(self):
        # B is a relabeled copy of A and Y a function of A, so levels 1 and 2
        # hold exactly and every tau behind them is exactly 1.
        rng = np.random.default_rng(13)
        seen = 0
        for _ in range(200):
            m, k = int(rng.integers(10, 2000)), int(rng.integers(2, 12))
            a = rng.integers(0, k, m)
            y = rng.integers(0, 3, k)[a]
            if len(set(y)) < 2:
                continue
            seen += 1
            ds = Dataset.from_label_columns({
                "A": [str(v) for v in a],
                "B": [str(v) for v in rng.permutation(k)[a]],
                "Y": [str(v) for v in y],
            })
            rep = equivalence_levels(ds, "A", "B", "Y", tol=0.0)
            assert rep.levels[1] and rep.levels[2], rep.details
            assert all(rep.details[k] == 1.0 for k in
                       ("tau_y_x1", "tau_y_x2", "tau_x1_x2", "tau_x2_x1")), rep.details
        assert seen > 150


class TestMemory:
    def test_wide_pair_memory_is_linear_in_records(self):
        # Two 3,000-category columns: a dense x1-by-x2 table would take
        # hundreds of MB, the observed pairs take a few.
        rng = np.random.default_rng(0)
        a = rng.integers(0, 3000, 10_000)
        ds = Dataset.from_label_columns({
            "A": [str(v) for v in a],
            "B": [str(v) for v in rng.permutation(3000)[a]],
            "Y": [str(v) for v in a % 4],
        })
        tracemalloc.start()
        try:
            rep = equivalence_levels(ds, "A", "B", "Y", tol=0.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.strongest == 1
        assert peak < 50e6, peak


class TestValidation:
    @pytest.mark.parametrize("tol", [-1e-9, float("nan")])
    def test_bad_tol_rejected(self, tol):
        # levels 1-2 would be decided as at tol 0 while 3-5 all fail
        with pytest.raises(DataError, match="tol must be nonnegative"):
            equivalence_levels(tenths_dataset(), "X1", "X2", "Y", tol=tol)

    def test_distinct_variables_required(self):
        ds = tenths_dataset()
        with pytest.raises(DataError):
            equivalence_levels(ds, "X1", "X1", "Y")

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("name", ["Y", "X1", "X2"])
    @pytest.mark.parametrize("flaw", ["constant", "unheld category"])
    def test_degenerate_variable_rejected(self, flaw, name, exact):
        cols = {"X1": ["a", "b", "a", "b", "c"], "X2": ["p", "p", "q", "q", "q"],
                "Y": ["0", "1", "1", "0", "1"]}
        domains = {}
        if flaw == "constant":
            cols[name] = ["k"] * 5
            message = "response is constant" + ("" if exact else "; tau undefined")
        else:
            domains[name] = list(dict.fromkeys(cols[name])) + ["unheld"]
            message = ("response has a zero-probability category"
                       + ("" if exact else "; drop unused categories first"))
        ds = Dataset.from_label_columns(cols, domains=domains)
        with pytest.raises(NumericDomainError) as err:
            equivalence_levels(ds, "X1", "X2", "Y", exact=exact)
        assert str(err.value) == message

    def test_non_regular_alpha_rejected(self):
        from catassoc import make_weights
        ds = tenths_dataset()
        w = make_weights("custom", custom=[1.0, 0.0, 0.0])
        with pytest.raises(Exception):
            equivalence_levels(ds, "X1", "X2", "Y", alpha=w)
