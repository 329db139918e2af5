"""Structural basis discovery via the concentration functional."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catassoc import (
    DataError,
    Dataset,
    ep,
    minimal_basis,
    structural_basis,
    verify_basis,
)

from conftest import coded_datasets, outcome, random_dataset, reference_forward_backward, slow_ep


def planted_dataset(order=None, seed=17):
    """Six variables, two of which jointly determine everything.

    V1 (3 categories) and V2 (4 categories) are the planted basis; the
    rest are a lossy function of both, relabelings, and a coarsening.
    Cell multiplicities vary so concentration orderings are generic.
    """
    rng = np.random.default_rng(seed)
    combos = [(i, j) for i in range(3) for j in range(4)]
    reps = rng.integers(1, 6, len(combos))
    v1, v2 = [], []
    for (i, j), r in zip(combos, reps):
        v1 += [i] * int(r)
        v2 += [j] * int(r)
    v1 = np.array(v1)
    v2 = np.array(v2)
    relabel1 = np.array([2, 0, 1])
    relabel2 = np.array([3, 2, 1, 0])
    cols = {
        "V1": [str(v) for v in v1],
        "V2": [str(v) for v in v2],
        "V3": [str(v) for v in (v1 + v2) % 3],     # lossy joint function
        "V4": [str(relabel1[v]) for v in v1],      # relabeling of V1
        "V5": [str(relabel2[v]) for v in v2],      # relabeling of V2
        "V6": [str(min(v, 1)) for v in v1],        # coarsening of V1
    }
    if order:
        cols = {k: cols[k] for k in order}
    return Dataset.from_label_columns(cols)


class TestEp:
    def test_uniform(self):
        ds = Dataset.from_label_columns({"A": [str(i) for i in range(5)] * 4})
        assert abs(ep(ds, ["A"]).value - 1 / 5) <= 1e-12

    def test_loan_risk_marginal(self):
        from catassoc.fixtures import loan_dataset
        ds = loan_dataset()
        # frozen: direct sum of squares of (317, 26, 307)/650
        assert abs(ep(ds, ["Risk"]).value - 0.4625) <= 5e-5

    def test_never_increases_with_more_variables(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            ds = random_dataset(rng, n_vars=3, m_range=(8, 50))
            e1 = ep(ds, ["V0"]).value
            e12 = ep(ds, ["V0", "V1"]).value
            e123 = ep(ds, ["V0", "V1", "V2"]).value
            assert e12 <= e1 + 1e-12
            assert e123 <= e12 + 1e-12

    def test_lower_bound_by_domain_size(self):
        from catassoc import composite
        rng = np.random.default_rng(2)
        for _ in range(200):
            ds = random_dataset(rng, n_vars=2, m_range=(8, 50))
            e = ep(ds, ["V0", "V1"]).value
            k = composite(ds, ["V0", "V1"]).size
            assert 1 / k - 1e-12 <= e <= 1 + 1e-12

    def test_equality_cases(self):
        # deterministic relation: ep unchanged when the determined
        # variable joins; uniform joint: lower bound attained
        v = [str(i) for i in range(4)] * 3
        ds = Dataset.from_label_columns({
            "A": v,
            "B": [str(int(lbl) % 2) for lbl in v],
        })
        assert abs(ep(ds, ["A"]).value - ep(ds, ["A", "B"]).value) <= 1e-15
        uni = Dataset.from_label_columns({
            "A": ["0", "0", "1", "1"],
            "B": ["0", "1", "0", "1"],
        })
        assert abs(ep(uni, ["A", "B"]).value - 0.25) <= 1e-15

    def test_empty_rejected(self):
        ds = random_dataset(np.random.default_rng(3))
        with pytest.raises(DataError):
            ep(ds, [])


class TestStructuralBasis:
    def test_planted_two_variable_basis(self):
        ds = planted_dataset()
        trace = structural_basis(ds)
        assert len(trace.basis) == 2
        # the basis must be one variable from each planted family
        fam1 = {"V1", "V4"}  # V6 is lossy, cannot replace V1
        fam2 = {"V2", "V5"}
        assert (set(trace.basis) & fam1) and (set(trace.basis) & fam2)

    def test_relabeling_collapses_to_one(self):
        rng = np.random.default_rng(4)
        v = rng.integers(0, 4, 40)
        relabel = np.array([3, 1, 0, 2])
        ds = Dataset.from_label_columns({
            "A": [str(x) for x in v],
            "B": [str(relabel[x]) for x in v],
        })
        trace = structural_basis(ds)
        assert len(trace.basis) == 1
        assert trace.basis[0] in {"A", "B"}

    def test_deterministic_function_excluded(self):
        rng = np.random.default_rng(5)
        v1 = rng.integers(0, 3, 60)
        v2 = rng.integers(0, 3, 60)
        ds = Dataset.from_label_columns({
            "V1": [str(x) for x in v1],
            "V2": [str(x) for x in v2],
            "V3": [str((a * 3 + b) % 2) for a, b in zip(v1, v2)],
        })
        trace = structural_basis(ds)
        assert set(trace.basis) == {"V1", "V2"}

    def test_tiebreak_order_changes_pick_not_cardinality(self):
        from catassoc import composite
        d1 = planted_dataset()
        d2 = planted_dataset(order=["V4", "V5", "V3", "V1", "V2", "V6"])
        t1 = structural_basis(d1)
        t2 = structural_basis(d2)
        c1 = composite(d1, list(t1.basis)).size
        c2 = composite(d2, list(t2.basis)).size
        assert c1 == c2  # any two bases have equal composite cardinality

    def test_forward_values_nonincreasing(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            ds = random_dataset(rng, n_vars=4, m_range=(20, 60))
            trace = structural_basis(ds)
            vals = [s.value for s in trace.forward_steps]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
            assert trace.metric == "ep"

    @pytest.mark.parametrize("eps", [-1e-9, float("nan")])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(DataError, match="eps must be nonnegative"):
            structural_basis(planted_dataset(), eps=eps)


def reference_structural(ds, eps):
    """structural_basis with every candidate set scored by the slow scorer."""
    return reference_forward_backward(
        ds, list(ds.names), lambda vs: slow_ep(ds, vs),
        minimize=True, start=1.0, eps=eps, metric="ep")


class TestStructuralBasisAgainstEp:
    """Both passes and ep count folded codes; scoring each candidate set
    from scratch with np.unique over the stacked code rows is the
    reference.  Scores are compared with ==, so cell order must match
    np.unique's."""

    @given(coded_datasets(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_ep_matches_slow_scorer(self, ds, rnd):
        names = rnd.sample(list(ds.names), rnd.randint(1, len(ds.names)))
        assert ep(ds, names).value == slow_ep(ds, names)

    @given(coded_datasets(), st.sampled_from([0.0, 1e-12, 1e-9, 0.01]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, ds, eps):
        fast = outcome(lambda: structural_basis(ds, eps=eps))
        assert fast == outcome(lambda: reference_structural(ds, eps))

    def test_matches_reference_at_scale(self):
        rng = np.random.default_rng(18)
        m = 20_000
        b = rng.integers(0, 6, (m, 3))
        cols = {"B0": b[:, 0], "B1": b[:, 1], "B2": b[:, 2],
                "D0": b[:, 0] * 6 + b[:, 1], "D1": (b[:, 1] + b[:, 2]) % 4,
                "ID": rng.integers(0, 3000, m), "N": rng.integers(0, 2, m)}
        ds = Dataset.from_label_columns({k: [str(v) for v in c] for k, c in cols.items()})
        for eps in (0.0, 1e-4):
            assert structural_basis(ds, eps=eps) == reference_structural(ds, eps)


class TestVerifyBasis:
    def test_planted_basis_passes(self):
        ds = planted_dataset()
        trace = structural_basis(ds)
        report = verify_basis(ds, trace.basis)
        assert report.passed
        assert all(report.determined.values())
        assert report.subsets_ok and report.conditionals_01 and report.minimal

    def test_full_set_satisfies_determination(self):
        ds = planted_dataset()
        report = verify_basis(ds, list(ds.names))
        assert all(report.determined.values())
        assert report.conditionals_01
        assert not report.minimal  # far from minimal

    def test_member_removal_fails(self):
        ds = planted_dataset()
        trace = structural_basis(ds)
        reduced = list(trace.basis)[:-1]
        report = verify_basis(ds, reduced)
        assert not all(report.determined.values())

    def test_scheme_independence_of_determination(self):
        # the set of determined variables does not depend on the weight
        # scheme: degree 1 means complete determination for any regular
        # weights, so the gk check is representative
        from catassoc import association_vector, contingency, to_joint, make_weights, tau
        ds = planted_dataset()
        trace = structural_basis(ds)
        for nm in ds.names:
            j = to_joint(contingency(ds, list(trace.basis), nm)) \
                if nm not in trace.basis else None
            if j is None:
                continue
            th = association_vector(j)
            for scheme in ("gk", "ew", "ipw"):
                w = make_weights(scheme, p_y=j.p_y)
                assert tau(th, w) >= 1 - 1e-12


class TestMinimalBasis:
    def test_matches_planted_size(self):
        ds = planted_dataset()
        mb = minimal_basis(ds)
        assert len(mb) == 2

    def test_refuses_wide_datasets(self):
        cols = {f"W{i}": ["0", "1"] for i in range(21)}
        ds = Dataset.from_label_columns(cols)
        with pytest.raises(DataError):
            minimal_basis(ds)
