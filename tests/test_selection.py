"""Forward-backward selection with a response: monotonicity and recovery."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catassoc import (
    DataError,
    Dataset,
    Variable,
    add_independent_noise,
    association_vector,
    contingency,
    first_pick_tiebreak,
    gen_flu,
    make_weights,
    select_basis,
    tau_joint,
    to_joint,
)

from conftest import (MIXED_SIZES, coded_datasets, mixed_domain_datasets, mixed_domain_dataset,
                      outcome, random_dataset, reference_forward_backward, slow_tau,
                      slow_weights)


def dataset_with_cond_independence(rng, m=400):
    """Y depends on X1 only; X2 is conditionally independent noise."""
    x1 = rng.integers(0, 3, m)
    x2 = rng.integers(0, 2, m)
    f = np.array([0, 1, 1])
    y = f[x1]
    return Dataset.from_label_columns({
        "X1": [str(v) for v in x1],
        "X2": [str(v) for v in x2],
        "Y": [str(v) for v in y],
    })


class TestTauJoint:
    def test_copy_of_response_gives_one(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 3, 50)
        ds = Dataset.from_label_columns({
            "C": [str(v) for v in y],
            "Y": [str(v) for v in y],
        })
        assert tau_joint(ds, "Y", ["C"]) >= 1 - 1e-12

    def test_errors(self):
        ds = random_dataset(np.random.default_rng(1))
        with pytest.raises(DataError):
            tau_joint(ds, "V0", [])
        with pytest.raises(DataError):
            tau_joint(ds, "V0", ["V0", "V1"])

    @pytest.mark.parametrize("k", [2, 3, 7, 500])
    def test_relabeled_copy_of_response_sums_the_weights(self, k):
        # every lift is exactly 1, so the degree is the weights' sum: exactly
        # 1, where their float sum may miss it by rounding
        rng = np.random.default_rng(k)
        y = rng.permutation(np.arange(2000) % k)
        ds = Dataset.from_label_columns({
            "C": [str(v) for v in rng.permutation(k)[y]],
            "N": [str(v) for v in rng.integers(0, 3, y.size)],
            "Y": [str(v) for v in y],
        })
        for scheme in ("gk", "ew", "ipw"):
            assert tau_joint(ds, "Y", ["C"], alpha=scheme) == 1.0
            assert tau_joint(ds, "Y", ["N", "C"], alpha=scheme) == 1.0

    def test_wide_response_memory_linear_in_records(self):
        # A dense (observed cells x response categories) table would be
        # over 7 GB here.
        rng = np.random.default_rng(20)
        m, k = 60_000, 20_000
        x = rng.integers(0, 10, (m, 5))
        y = rng.permutation(np.arange(m) % k)
        variables = [Variable("Y", tuple(map(str, range(k))))]
        variables += [Variable(f"X{j}", tuple(map(str, range(10)))) for j in range(5)]
        ds = Dataset(variables, np.column_stack([y, x]))
        tracemalloc.start()
        try:
            value = tau_joint(ds, "Y", ["X0", "X1"])
            tau_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            trace = select_basis(ds, "Y")
            select_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert tau_peak < 200 * 2**20 and select_peak < 200 * 2**20
        assert 0 <= value < 1 and trace.final == tau_joint(ds, "Y", list(trace.basis))

    def test_step_keys_freed_before_the_pick_compaction(self):
        # 200k x 26 uint8 codes: the search peaks at about three int64
        # columns, among other places while a pick's cells are compacted;
        # a step key kept until then would add an eighth of a column
        ds = add_independent_noise(gen_flu(200_000, seed=3), 20, 4, seed=4)
        assert ds.records.dtype == np.uint8
        tracemalloc.start()
        try:
            trace = select_basis(ds, "Y", eps_gain=0.005)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert trace.basis == ("X1", "X2")
        assert peak <= 3.1 * 8 * ds.n_records

    def test_matches_manual_composite(self):
        rng = np.random.default_rng(2)
        ds = random_dataset(rng, n_vars=4)
        j = to_joint(contingency(ds, ["V1", "V2"], "V0"))
        w = make_weights("gk", p_y=j.p_y)
        manual = float(w.alpha @ association_vector(j).theta)
        assert abs(tau_joint(ds, "V0", ["V1", "V2"]) - manual) <= 1e-15


class TestMonotonicity:
    def test_adding_never_decreases(self):
        rng = np.random.default_rng(3)
        for _ in range(300):
            ds = random_dataset(rng, n_vars=3, m_range=(10, 50))
            th1 = association_vector(to_joint(contingency(ds, "V1", "V0"))).theta
            th12 = association_vector(
                to_joint(contingency(ds, ["V1", "V2"], "V0"))).theta
            assert (th12 >= th1 - 1e-12).all()
            for scheme in ("gk", "ew", "ipw"):
                t1 = tau_joint(ds, "V0", ["V1"], alpha=scheme)
                t12 = tau_joint(ds, "V0", ["V1", "V2"], alpha=scheme)
                assert t12 >= t1 - 1e-12

    def test_equality_iff_conditionally_independent(self):
        rng = np.random.default_rng(4)
        ds = dataset_with_cond_independence(rng)
        t1 = tau_joint(ds, "Y", ["X1"])
        t12 = tau_joint(ds, "Y", ["X1", "X2"])
        assert abs(t12 - t1) <= 1e-12
        # and a genuinely informative second variable strictly improves
        x1 = rng.integers(0, 2, 500)
        x2 = rng.integers(0, 2, 500)
        y = (x1 ^ x2)
        ds2 = Dataset.from_label_columns({
            "X1": [str(v) for v in x1],
            "X2": [str(v) for v in x2],
            "Y": [str(v) for v in y],
        })
        assert tau_joint(ds2, "Y", ["X1", "X2"]) > tau_joint(ds2, "Y", ["X1"]) + 0.5


class TestTiebreak:
    def test_prefers_smaller_domain(self):
        ds = Dataset.from_label_columns({
            "A": ["0", "1", "2", "0", "1"],
            "B": ["0", "1", "2", "3", "4"],
            "Y": ["0", "1", "0", "1", "0"],
        })
        assert first_pick_tiebreak(ds, ["B", "A"]) == "A"

    def test_prefers_smaller_index_on_equal_domains(self):
        cols = {
            "P": ["0", "1"] * 4,
            "Q": ["0", "0", "1", "1"] * 2,
            "R": ["0", "1", "1", "0"] * 2,
        }
        ds = Dataset.from_label_columns(cols)
        assert first_pick_tiebreak(ds, ["R", "Q"]) == "Q"

    def test_single_candidate(self):
        ds = random_dataset(np.random.default_rng(5))
        assert first_pick_tiebreak(ds, ["V2"]) == "V2"

    def test_empty_rejected(self):
        ds = random_dataset(np.random.default_rng(6))
        with pytest.raises(DataError):
            first_pick_tiebreak(ds, [])


class TestSelectBasis:
    def test_single_explanatory(self):
        rng = np.random.default_rng(7)
        x = rng.integers(0, 3, 60)
        y = (x > 0).astype(int)
        ds = Dataset.from_label_columns({
            "X": [str(v) for v in x],
            "Y": [str(v) for v in y],
        })
        trace = select_basis(ds, "Y")
        assert trace.basis == ("X",)

    def test_copy_of_response_wins(self):
        rng = np.random.default_rng(8)
        y = rng.integers(0, 3, 80)
        ds = Dataset.from_label_columns({
            "A": [str(v) for v in rng.integers(0, 2, 80)],
            "C": [str(v) for v in y],
            "B": [str(v) for v in rng.integers(0, 4, 80)],
            "Y": [str(v) for v in y],
        })
        trace = select_basis(ds, "Y")
        assert trace.basis == ("C",)
        assert trace.final >= 1 - 1e-12

    def test_redundant_variable_pruned(self):
        rng = np.random.default_rng(9)
        x1 = rng.integers(0, 2, 300)
        x2 = rng.integers(0, 2, 300)
        y = x1 ^ x2
        ds = Dataset.from_label_columns({
            "X1": [str(v) for v in x1],
            "X2": [str(v) for v in x2],
            "R": [str(v) for v in x1],  # exact copy of X1
            "Y": [str(v) for v in y],
        })
        trace = select_basis(ds, "Y")
        assert set(trace.basis) == {"X1", "X2"}
        assert trace.final >= 1 - 1e-12

    def test_forward_values_nondecreasing(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            ds = random_dataset(rng, n_vars=4, m_range=(30, 80))
            trace = select_basis(ds, "V0")
            vals = [s.value for s in trace.forward_steps]
            assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
            assert set(trace.basis) <= set(trace.picked)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        ds = random_dataset(rng, n_vars=5, m_range=(50, 60))
        t1 = select_basis(ds, "V0", eps_gain=1e-9)
        t2 = select_basis(ds, "V0", eps_gain=1e-9)
        assert t1 == t2

    def test_tb_conditions_up_to_eps(self):
        # TB1: basis reproduces the full set's degree; TB2: every member matters
        rng = np.random.default_rng(13)
        eps = 1e-9
        for _ in range(10):
            ds = random_dataset(rng, n_vars=4, m_range=(40, 90))
            y = "V0"
            trace = select_basis(ds, y, eps_gain=eps)
            full = tau_joint(ds, y, [nm for nm in ds.names if nm != y])
            assert trace.final >= full - 10 * eps  # TB1 (greedy, so allow slack)
            if len(trace.basis) > 1:
                for v in trace.basis:
                    rest = [nm for nm in trace.basis if nm != v]
                    # on these small discrete datasets a genuine drop is
                    # macroscopic, far above the pruning tolerance
                    assert trace.final - tau_joint(ds, y, rest) > 10 * eps

    def test_no_explanatory_rejected(self):
        ds = Dataset.from_label_columns({"Y": ["0", "1", "0"]})
        with pytest.raises(DataError):
            select_basis(ds, "Y")

    @pytest.mark.parametrize("eps", [-1e-9, float("nan")])
    def test_bad_eps_rejected(self, eps):
        # A NaN eps would let the forward pass add every variable.
        with pytest.raises(DataError, match="eps_gain must be nonnegative"):
            select_basis(random_dataset(np.random.default_rng(0)), "V0", eps_gain=eps)


def reference_select(ds, y, alpha, eps_gain):
    """select_basis with every candidate set scored by the slow scorer."""
    weights = slow_weights(ds, y, alpha or "gk")
    return reference_forward_backward(ds, [nm for nm in ds.names if nm != y],
                                      lambda xs: slow_tau(ds, y, xs, weights),
                                      minimize=False, start=0.0,
                                      eps=eps_gain, metric="tau")


class TestSelectBasisAgainstTauJoint:
    """Both passes and tau_joint count folded codes; scoring each candidate
    set from scratch with np.unique over the stacked code rows is the
    reference.  Scores are compared with ==, so cell order must match
    np.unique's."""

    @given(coded_datasets(), st.sampled_from(["gk", "ew", "ipw"]), st.data())
    @settings(max_examples=300, deadline=None)
    def test_tau_joint_matches_slow_scorer(self, ds, alpha, data):
        xs = data.draw(st.lists(st.sampled_from(ds.names[1:]), min_size=1,
                                unique=True))
        fast = outcome(lambda: tau_joint(ds, "V0", xs, alpha=alpha))
        assert fast == outcome(lambda: slow_tau(ds, "V0", xs,
                                                slow_weights(ds, "V0", alpha)))

    @given(coded_datasets(), st.sampled_from(["gk", "ew", "ipw"]),
           st.sampled_from([0.0, 1e-9, 0.01]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, ds, alpha, eps):
        fast = outcome(lambda: select_basis(ds, "V0", alpha=alpha, eps_gain=eps))
        assert fast == outcome(lambda: reference_select(ds, "V0", alpha, eps))

    def test_matches_reference_at_scale(self):
        # 20,000 records, 9 columns: one of 3,000 categories, so the
        # candidate tables outgrow the dense count and are ranked by sorting
        rng = np.random.default_rng(14)
        m = 20_000
        x = rng.integers(0, 3, (m, 6))
        y = (x[:, 0] + x[:, 1] * (rng.random(m) < 0.8)) % 3
        cols = {"Y": y, "ID": rng.integers(0, 3000, m),
                "C": x[:, 0] * 2 + x[:, 1] % 2}
        cols.update({f"X{j}": x[:, j] for j in range(6)})
        ds = Dataset.from_label_columns({k: [str(v) for v in c] for k, c in cols.items()})
        for eps in (0.0, 0.01):
            trace = select_basis(ds, "Y", eps_gain=eps)
            assert trace == reference_select(ds, "Y", None, eps)

    @given(mixed_domain_datasets(), st.sampled_from(["gk", "ew", "ipw"]),
           st.sampled_from([0.0, 1e-9, 0.01]))
    @settings(max_examples=200, deadline=None)
    def test_grouped_steps_match_reference(self, ds, alpha, eps):
        fast = outcome(lambda: select_basis(ds, "Y", alpha=alpha, eps_gain=eps))
        assert fast == outcome(lambda: reference_select(ds, "Y", alpha, eps))

    @pytest.mark.parametrize("alpha", ["gk", "ew", "ipw"])
    def test_grouped_steps_match_reference_at_scale(self, alpha):
        # 25,000 records, so up to 101,024 keys are counted: the 2^16 cap
        # ends groups first (a third step's 600 cells x 3 x 6 x 7 keys), a
        # 72,000-key candidate is counted alone and the fourth step sorts
        ds = mixed_domain_dataset(np.random.default_rng(8), 25_000, MIXED_SIZES)
        trace = select_basis(ds, "Y", alpha=alpha, eps_gain=0.01)
        assert trace == reference_select(ds, "Y", alpha, 0.01)
