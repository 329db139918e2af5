"""Association matrix, vector, weights, weighted degrees, and their identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catassoc import (
    ContingencyTable,
    DataError,
    Dataset,
    NumericDomainError,
    association_matrix,
    association_vector,
    gini,
    gk_tau_direct,
    joint_from_counts,
    make_weights,
    tau,
    tau_scheme,
    to_joint,
    contingency,
    equivalence_levels,
    tau_joint,
)
from catassoc.association import IDENTITY_ATOL, _pair_tau
from catassoc.exact import tau_exact
from catassoc.fixtures import (
    loan_pair_table,
    tenths_dataset,
)

from conftest import (coded_datasets, outcome, random_joint, random_triple_dataset,
                      table_pairs)

LOAN_RISK_GAMMA_ONTIME = np.array([
    [.5108, .0407, .4485],
    [.4959, .0402, .4639],
    [.4631, .0393, .4976],
])


def product_joint(p_x, p_y):
    return joint_from_counts(np.outer(p_x, p_y))


def functional_joint(n):
    return joint_from_counts(np.eye(n) / n)


class TestAssociationMatrix:
    def test_loan_ontime_risk(self):
        j = to_joint(loan_pair_table("On-Time", "Risk"))
        g = association_matrix(j)
        assert abs(g.gamma[0, 0] - 0.5108) <= 5e-4
        assert np.abs(g.gamma - LOAN_RISK_GAMMA_ONTIME).max() <= 5e-4

    def test_independence_rows_equal_marginal(self):
        rng = np.random.default_rng(0)
        p_x = rng.dirichlet(np.ones(4))
        p_y = rng.dirichlet(np.ones(3))
        g = association_matrix(product_joint(p_x, p_y))
        for row in g.gamma:
            assert np.allclose(row, p_y, atol=1e-12)

    def test_determined_is_identity(self):
        g = association_matrix(functional_joint(4))
        assert np.allclose(g.gamma, np.eye(4), atol=1e-12)

    def test_zero_y_category_rejected(self):
        j = joint_from_counts(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(NumericDomainError):
            association_matrix(j)

    def test_zero_x_rows_skipped(self):
        base = np.array([[2.0, 1.0], [0.0, 0.0], [1.0, 3.0]])
        dense = np.array([[2.0, 1.0], [1.0, 3.0]])
        g1 = association_matrix(joint_from_counts(base))
        g2 = association_matrix(joint_from_counts(dense))
        assert np.allclose(g1.gamma, g2.gamma, atol=1e-15)

    def test_accepts_contingency_table_directly(self):
        ct = loan_pair_table("On-Time", "Risk")
        assert np.allclose(association_matrix(ct).gamma,
                           association_matrix(to_joint(ct)).gamma, atol=0)
        assert gk_tau_direct(ct) == gk_tau_direct(to_joint(ct))


class TestAssociationVector:
    def test_loan_ontime_risk(self):
        j = to_joint(loan_pair_table("On-Time", "Risk"))
        th = association_vector(j)
        assert np.abs(th.theta - [.0451, .0002, .0479]).max() <= 5e-4

    def test_independence_zero(self):
        rng = np.random.default_rng(1)
        th = association_vector(product_joint(rng.dirichlet(np.ones(5)),
                                              rng.dirichlet(np.ones(4))))
        assert np.abs(th.theta).max() <= 1e-12

    def test_tenths_exact(self):
        ds = tenths_dataset()
        j = to_joint(contingency(ds, "X1", "Y"))
        th = association_vector(j)
        want = {"1": 1 / 6, "2": 17 / 72, "3": 23 / 48}
        got = dict(zip(th.y_domain, th.theta))
        for lab, val in want.items():
            assert abs(got[lab] - val) <= 1e-12

    def test_constant_y_rejected(self):
        j = joint_from_counts(np.array([[1.0], [2.0]]))
        with pytest.raises(NumericDomainError):
            association_vector(j)


class TestWeights:
    def test_equal(self):
        w = make_weights("equal", p_y=np.array([0.5, 0.3, 0.2]))
        assert np.allclose(w.alpha, 1 / 3)
        assert w.regular

    def test_ew_alias(self):
        w = make_weights("ew", p_y=np.array([0.5, 0.5]))
        assert np.allclose(w.alpha, 0.5)

    def test_gk_loan_marginal(self):
        # direct evaluation of the Gini-share formula, frozen to 4 dp
        p = np.array([.4877, .0400, .4723])
        w = make_weights("gk", p_y=p)
        direct = p * (1 - p) / (p * (1 - p)).sum()
        assert np.allclose(w.alpha, direct, atol=1e-15)
        assert np.abs(w.alpha - [0.4649, 0.0714, 0.4637]).max() <= 5e-5

    def test_ipw_is_normalized_reciprocal(self):
        p = np.array([.6875, .2531, .0594])
        w = make_weights("ipw", p_y=p)
        direct = (1 / p) / (1 / p).sum()
        assert np.allclose(w.alpha, direct, atol=1e-15)

    def test_custom(self):
        w = make_weights("custom", custom=[2.0, 1.0, 1.0])
        assert np.allclose(w.alpha, [0.5, 0.25, 0.25])
        assert w.regular
        w0 = make_weights("custom", custom=[1.0, 0.0])
        assert not w0.regular

    def test_custom_errors(self):
        with pytest.raises(NumericDomainError):
            make_weights("custom", custom=[0.0, 0.0])
        with pytest.raises(NumericDomainError):
            make_weights("custom", custom=[1.0, -0.5])
        with pytest.raises(DataError):
            make_weights("nope", p_y=np.array([0.5, 0.5]))


class TestTau:
    def test_loan_gk(self):
        j = to_joint(loan_pair_table("On-Time", "Risk"))
        assert abs(tau_scheme(j, "gk") - 0.0432) <= 5e-5

    def test_zero_vector(self):
        from catassoc import AssociationVector, WeightVector
        th = AssociationVector(np.zeros(3), ("a", "b", "c"))
        w = WeightVector(np.array([0.2, 0.5, 0.3]), True)
        assert tau(th, w) == 0.0

    def test_dimension_mismatch(self):
        from catassoc import AssociationVector, WeightVector
        th = AssociationVector(np.zeros(3), ("a", "b", "c"))
        w = WeightVector(np.array([0.5, 0.5]), True)
        with pytest.raises(DataError):
            tau(th, w)

    def test_tenths_equal_degrees(self):
        # both explanatory variables give the same degree for every
        # named scheme (the lift vectors are permutations of each other
        # and the weights are symmetric in the tied categories)
        ds = tenths_dataset()
        j1 = to_joint(contingency(ds, "X1", "Y"))
        j2 = to_joint(contingency(ds, "X2", "Y"))
        for scheme in ("gk", "ew", "ipw"):
            assert abs(tau_scheme(j1, scheme) - tau_scheme(j2, scheme)) <= 1e-12
        # frozen exact value of the gk degree for this fixture
        assert abs(tau_scheme(j1, "gk") - 13 / 48) <= 1e-12


class TestGkTauDirect:
    def test_loan(self):
        j = to_joint(loan_pair_table("On-Time", "Risk"))
        assert abs(gk_tau_direct(j) - 0.0432) <= 5e-5

    def test_extremes(self):
        assert abs(gk_tau_direct(functional_joint(3)) - 1.0) <= 1e-12
        rng = np.random.default_rng(2)
        j = product_joint(rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(4)))
        assert abs(gk_tau_direct(j)) <= 1e-12

    def test_oracle_identity_ensemble(self):
        # closed form vs weighted-vector route on random joints
        rng = np.random.default_rng(42)
        for k in range(300):
            j = random_joint(rng, int(rng.integers(2, 8)), int(rng.integers(2, 8)),
                             zeros=(k % 3 == 0))
            lhs = gk_tau_direct(j)
            rhs = tau(association_vector(j), make_weights("gk", p_y=j.p_y))
            assert abs(lhs - rhs) <= 1e-12


class TestGini:
    def test_uniform(self):
        for k in (2, 3, 7):
            g = gini(np.full(k, 1 / k))
            assert abs(g.ep_y - 1 / k) <= 1e-12

    def test_loan_risk(self):
        # direct sum of squares of the marginal, frozen to 4 dp
        g = gini(np.array([.4877, .0400, .4723]))
        assert abs(g.ep_y - 0.4625) <= 5e-5

    def test_point_mass(self):
        g = gini(np.array([1.0]))
        assert g.ep_y == 1.0 and g.v_g == 0.0


counts_matrices = st.integers(2, 5).flatmap(
    lambda nx: st.integers(2, 5).flatmap(
        lambda ny: st.lists(
            st.lists(st.integers(0, 20), min_size=ny, max_size=ny),
            min_size=nx, max_size=nx,
        )
    )
)


def _valid(counts):
    c = np.array(counts, float)
    return c.sum() > 0 and (c.sum(axis=0) > 0).all() and (c.sum(axis=1) > 0).all() \
        and (c.sum(axis=0) < c.sum()).all()


class TestAlgebraicProperties:
    @given(counts_matrices.filter(_valid))
    @settings(max_examples=150, deadline=None)
    def test_row_stochastic_and_bounds(self, counts):
        j = joint_from_counts(np.array(counts, float))
        g = association_matrix(j).gamma
        assert (g >= -1e-15).all()
        assert np.abs(g.sum(axis=1) - 1.0).max() <= 1e-10
        th = association_vector(j).theta
        assert (th >= -1e-12).all() and (th <= 1 + 1e-12).all()

    @given(counts_matrices.filter(_valid))
    @settings(max_examples=150, deadline=None)
    def test_diagonal_identity(self, counts):
        # gamma_ss == (1 - p_s) * theta_s + p_s
        j = joint_from_counts(np.array(counts, float))
        g = association_matrix(j).gamma
        th = association_vector(j).theta
        p = j.p_y
        assert np.abs(np.diag(g) - ((1 - p) * th + p)).max() <= 1e-12

    @given(counts_matrices.filter(_valid))
    @settings(max_examples=150, deadline=None)
    def test_two_theta_forms_agree(self, counts):
        # normalized-diagonal form vs second-moment form
        j = joint_from_counts(np.array(counts, float))
        p, px, py = j.p_xy, j.p_x, j.p_y
        mask = px > 0
        e_sq = (p[mask] ** 2 / px[mask, None]).sum(axis=0)
        second_moment = (e_sq - py ** 2) / (py * (1 - py))
        th = association_vector(j).theta
        assert np.abs(th - second_moment).max() <= 1e-12

    @given(counts_matrices.filter(_valid))
    @settings(max_examples=150, deadline=None)
    def test_gk_identity(self, counts):
        j = joint_from_counts(np.array(counts, float))
        lhs = gk_tau_direct(j)
        rhs = tau(association_vector(j), make_weights("gk", p_y=j.p_y))
        assert abs(lhs - rhs) <= 1e-12

    def test_binary_collapse(self):
        # binary response: every lift equals every weighted degree
        rng = np.random.default_rng(5)
        for _ in range(200):
            j = random_joint(rng, int(rng.integers(2, 7)), 2)
            th = association_vector(j).theta
            assert abs(th[0] - th[1]) <= 1e-12
            for _ in range(3):
                w = make_weights("custom", custom=rng.random(2) + 0.01)
                assert abs(tau(association_vector(j), w) - th[0]) <= 1e-12

    def test_tau_zero_iff_independent_and_one_iff_determined(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            nx, ny = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            jp = product_joint(rng.dirichlet(np.ones(nx)), rng.dirichlet(np.ones(ny)))
            assert abs(tau_scheme(jp, "ipw")) <= 1e-12
            # random functional joint: each x row concentrated on one y
            p_x = rng.dirichlet(np.ones(max(nx, ny)))
            assign = rng.permutation(max(nx, ny)) % ny
            m = np.zeros((max(nx, ny), ny))
            m[np.arange(max(nx, ny)), assign] = p_x
            if (m.sum(axis=0) > 0).all():
                assert abs(tau_scheme(joint_from_counts(m), "ew") - 1.0) <= 1e-12


class TestPairKernel:
    """Selection, tau_joint and the slow scorers score a table from its
    nonzero entries alone; that must agree with the vector route, and for
    gk weights with the exact rational tau."""

    @given(counts_matrices.filter(_valid), st.sampled_from(["gk", "ew", "ipw"]))
    @settings(max_examples=200, deadline=None)
    def test_matches_vector_route_and_exact(self, counts, scheme):
        table = np.array(counts, dtype=np.int64)
        j = to_joint(ContingencyTable("X", "Y", tuple(range(table.shape[0])),
                                      tuple(map(str, range(table.shape[1]))), table))
        w = make_weights(scheme, p_y=j.p_y)
        fast = _pair_tau(table_pairs(table), j.y_domain, w)
        assert abs(fast - tau(association_vector(j), w)) <= IDENTITY_ATOL
        if scheme == "gk":
            assert abs(fast - float(tau_exact(table))) <= IDENTITY_ATOL

    def test_determined_categories_score_exactly_one(self):
        # each row holds one category, so every lift is exactly 1
        table = np.array([[3, 0, 0], [0, 7, 0], [0, 0, 1], [0, 5, 0]])
        for scheme in ("gk", "ew", "ipw"):
            w = make_weights(scheme, p_y=table.sum(axis=0) / table.sum())
            assert _pair_tau(table_pairs(table), ("a", "b", "c"), w) == float(w.alpha @ np.ones(3))

    @given(st.integers(1, 6), st.integers(2, 4), st.integers(1, 8), st.integers(0, 2**32))
    @settings(max_examples=100, deadline=None)
    def test_replicate_axis_scores_each_row_as_its_own_pairs(self, n_x, n_y, reps, seed):
        # Rows of pair counts over the cells of one table, with pairs and
        # whole cells left empty; each row scores bitwise as its nonzero pairs.
        rng = np.random.default_rng(seed)
        cells, s = np.divmod(np.arange(n_x * n_y), n_y)
        n_is = rng.integers(0, 4, (reps, n_x * n_y)) * (rng.random((reps, n_x * n_y)) < 0.6)
        n_is[:, :n_y] += 1  # every category observed in every row
        n_i = np.stack([np.bincount(cells, row, n_x)[cells] for row in n_is])
        w = make_weights("custom", custom=rng.random(n_y) + 0.1)
        y_domain = tuple(map(str, range(n_y)))
        batch = _pair_tau((n_is, np.maximum(n_i, 1), s), y_domain, w)
        assert batch.shape == (reps,)
        for row, value in zip(n_is, batch):
            seen = row > 0
            table = np.bincount(cells[seen] * n_y + s[seen], row[seen], n_x * n_y)
            assert value == _pair_tau(table_pairs(table.reshape(n_x, n_y).astype(np.int64)),
                                      y_domain, w)

    @pytest.mark.parametrize("scheme", ["gk", "ew", "ipw"])
    def test_one_observed_cell_scores_exactly_zero(self, scheme):
        # every one-row table of two categories and fewer than 60 records
        for n in range(2, 60):
            for k in range(1, n):
                table = np.array([[n - k, k]])
                w = make_weights(scheme, p_y=table[0] / n)
                assert _pair_tau(table_pairs(table), ("u", "v"), w) == 0.0, (n, k)

    @pytest.mark.parametrize("counts, alpha", [
        ([[2, 0], [3, 0]], [0.5, 0.5]),         # a category never observed
        ([[2], [3]], [1.0]),                    # constant response
        ([[2, 0], [0, 3]], [0.2, 0.3, 0.5]),    # weights of the wrong length
        ([[2, 0, 0], [3, 0, 0]], [0.5, 0.5]),   # unobserved beats wrong length
    ])
    def test_errors_match_vector_route(self, counts, alpha):
        table = np.array(counts)
        y_domain = tuple(map(str, range(table.shape[1])))
        w = make_weights("custom", custom=alpha)
        slow = outcome(lambda: tau(association_vector(joint_from_counts(table)), w))
        assert outcome(lambda: _pair_tau(table_pairs(table), y_domain, w)) == slow
        assert isinstance(slow, tuple)


class TestOneKernel:
    """A dense table, its observed pairs and a determination tau are scored
    by one function from one marginal, so every route gives one table one
    value, bitwise."""

    @given(coded_datasets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_table_route_equals_pair_route(self, ds, data):
        y = data.draw(st.sampled_from(ds.names))
        xs = data.draw(st.lists(st.sampled_from([nm for nm in ds.names if nm != y]),
                                min_size=1, unique=True))
        for scheme in ("gk", "ew", "ipw"):
            table = outcome(lambda: tau_scheme(contingency(ds, xs, y), scheme))
            pairs = outcome(lambda: tau_joint(ds, y, xs, scheme))
            if isinstance(table, tuple):  # they check the response in another order
                assert isinstance(pairs, tuple) and pairs[0] == table[0] == "NumericDomainError"
            else:
                assert table == pairs, scheme

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_equivalence_taus_equal_tau_joint(self, seed):
        ds = random_triple_dataset(np.random.default_rng(seed))
        d = equivalence_levels(ds, "X1", "X2", "Y").details
        for x, k in (("X1", "x1"), ("X2", "x2")):
            value = tau_joint(ds, "Y", x)
            assert d[f"tau_alpha_{k}"] == value
            assert d[f"tau_y_{k}"] == value

    def test_determined_table_scores_exactly_one(self):
        # X determines Y: every lift is exactly 1, and so is every degree,
        # although the weights sum to 1 only up to rounding
        rng = np.random.default_rng(14)
        for _ in range(400):
            m, k_x, k_y = (int(v) for v in rng.integers([8, 2, 2], [61, 6, 6]))
            x = rng.permutation(np.arange(m) % k_x)
            f = rng.permutation(np.arange(max(k_x, k_y)) % k_y)[:k_x]
            ds = Dataset.from_label_columns({"X": list(map(str, x)), "Y": list(map(str, f[x]))})
            for scheme in ("gk", "ew", "ipw"):
                if ds.var("Y").size > 1:
                    assert tau_joint(ds, "Y", "X", scheme) == 1.0, scheme

    def test_one_row_scores_exactly_zero(self):
        # one observed row, of counts or of probabilities in either layout
        rng = np.random.default_rng(11)
        for _ in range(300):
            k = int(rng.integers(2, 20))
            counts, row = rng.integers(1, 50, (1, k)), rng.random(k) + 1e-3
            padded = np.vstack([np.zeros(k), row, np.zeros(k)])
            table = ContingencyTable("X", "Y", ("x",), tuple(map(str, range(k))), counts)
            for j in (table, joint_from_counts(row[None]), joint_from_counts(padded),
                      joint_from_counts(np.asfortranarray(padded))):
                assert association_vector(j).theta.tolist() == [0.0] * k
                assert [tau_scheme(j, s) for s in ("gk", "ew", "ipw")] == [0.0] * 3
