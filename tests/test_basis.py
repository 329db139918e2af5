"""Structural basis discovery via the concentration functional."""

import itertools
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catassoc import (
    DataError,
    Dataset,
    Variable,
    ep,
    minimal_basis,
    structural_basis,
    verify_basis,
)
from catassoc import basis as basis_module
from catassoc import dataset as dataset_module
from catassoc import selection as selection_module
from catassoc.exact import tau_exact

from conftest import (
    MIXED_SIZES,
    coded_datasets,
    mixed_domain_dataset,
    mixed_domain_datasets,
    outcome,
    random_dataset,
    reference_structural,
    reference_verify_basis,
    slow_cells,
    slow_ep,
    slow_table,
)


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

    @given(mixed_domain_datasets(), st.sampled_from([0.0, 1e-9, 0.01]))
    @settings(max_examples=200, deadline=None)
    def test_grouped_steps_match_reference(self, ds, eps):
        fast = outcome(lambda: structural_basis(ds, eps=eps))
        assert fast == outcome(lambda: reference_structural(ds, eps))

    def test_grouped_steps_match_reference_at_scale(self):
        # 25,000 records, so up to 101,024 keys are counted: the 2^16 cap
        # ends groups first (the second step's 300 cells x 30 x 8), candidates
        # of 73,752 and 84,288 keys are counted alone and one of 316,080 sorted
        ds = mixed_domain_dataset(np.random.default_rng(8), 25_000, MIXED_SIZES)
        assert structural_basis(ds, eps=1e-4) == reference_structural(ds, 1e-4)

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

    @pytest.mark.parametrize("eps", [-1e-9, float("nan")])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(DataError, match="eps must be nonnegative"):
            verify_basis(planted_dataset(), ["V1", "V2"], eps=eps)

    def test_unobserved_category_in_subset(self):
        ds = planted_dataset()
        # records without V1 == "2": V1 and V4 keep a category no record holds
        sub = ds.take(np.flatnonzero(ds.labels("V1") != "2"))
        assert sub.var("V1").size == 3
        report = verify_basis(sub, ["V1", "V2"])
        assert report.passed

    def test_unobserved_category_in_pinned_domain(self):
        ds = Dataset.from_label_columns(
            {"A": ["0", "1", "0", "1"], "B": ["x", "x", "y", "y"],
             "C": ["u", "u", "u", "u"]},
            domains={"B": ["x", "y", "z"], "C": ["u", "v"]})
        report = verify_basis(ds, ["A", "B"], eps=0.0)
        assert report.passed
        assert report.determined == {"A": True, "B": True, "C": True}
        assert not verify_basis(ds, ["A"]).determined["B"]

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


def admin_dataset(seed):
    """Four independent base columns and six deterministic functions of
    them, so B1..B4 is a structural basis."""
    rng = np.random.default_rng(seed)
    n, k = int(rng.integers(50, 3000)), int(rng.integers(2, 8))
    b1, b2, b3, b4 = rng.integers(0, k, size=(4, n))
    cols = {"B1": b1, "B2": b2, "B3": b3, "B4": b4, "D1": b1 * k + b2,
            "D2": (b1 + b2) % k, "D3": (b3 + b4) % k, "D4": (b1 * b3) % k,
            "D5": (b2 + 2 * b4) % k, "D6": np.maximum(b3, b4)}
    return Dataset.from_label_columns({nm: [str(v) for v in c] for nm, c in cols.items()})


class TestVerifyBasisCounts:
    """verify_basis counts only observed (cell, value) pairs.  For eps > 0
    the dense tables of the reference must give an equal report; at eps 0
    determination must be exact."""

    @given(coded_datasets(), st.randoms(use_true_random=False),
           st.sampled_from([1e-12, 1e-9, 0.0137]))
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_reference(self, ds, rnd, eps):
        basis = rnd.sample(list(ds.names), rnd.randint(1, len(ds.names)))
        assert verify_basis(ds, basis, eps=eps) == reference_verify_basis(ds, basis, eps)

    @given(coded_datasets(), st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_exact_at_eps_zero(self, ds, rnd):
        basis = rnd.sample(list(ds.names), rnd.randint(1, len(ds.names)))
        report = verify_basis(ds, basis, eps=0.0)
        cells = slow_cells(ds, basis)
        for nm in ds.names:
            table = slow_table(cells, ds.codes(nm))
            # a constant variable is determined by anything
            assert report.determined[nm] == (table.shape[1] < 2 or tau_exact(table) == 1)

    def test_near_determination_within_eps(self):
        # one record in 500 breaks Y = X, so tau of Y is just below 1
        x = np.arange(500) % 5
        y = x.copy()
        y[0] = 1
        ds = Dataset.from_label_columns({"X": [str(v) for v in x], "Y": [str(v) for v in y]})
        for eps in (1e-9, 0.05):
            assert verify_basis(ds, ["X"], eps=eps) == reference_verify_basis(ds, ["X"], eps)
        assert verify_basis(ds, ["X"], eps=0.05).passed
        assert not verify_basis(ds, ["X"], eps=0.0).determined["Y"]
        assert not verify_basis(ds, ["X"], eps=1e-9).conditionals_01

    def test_true_basis_passes_at_eps_zero(self):
        failed = [seed for seed in range(40) if not verify_basis(
            admin_dataset(seed), ["B1", "B2", "B3", "B4"], eps=0.0).passed]
        assert failed == []

    def test_wide_id_memory_linear_in_records(self):
        # A dense (basis cells x ID categories) table would be over 9 GB.
        rng = np.random.default_rng(19)
        m, k = 60_000, 20_000
        cols = {"ID": rng.integers(0, k, m), "X1": rng.integers(0, 4, m),
                "X2": rng.integers(0, 4, m)}
        cols["Y"] = (cols["X1"] + cols["X2"]) % 3
        sizes = {"ID": k, "X1": 4, "X2": 4, "Y": 3}
        ds = Dataset([Variable(nm, tuple(map(str, range(sizes[nm])))) for nm in cols],
                     np.column_stack(list(cols.values())))
        tracemalloc.start()
        try:
            report = verify_basis(ds, ["ID", "X1", "X2"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 200 * 2**20
        assert report.passed


def repeating_admin_dataset(seed):
    """:func:`admin_dataset`, each record twice where over half its records
    are distinct, so the distinct rows carry weights."""
    ds = admin_dataset(seed)
    if dataset_module._distinct_rows(ds)[1] is None:
        ds = ds.take(np.repeat(np.arange(ds.n_records), 2))
    return ds


def admin_bad_dataset(seed):
    """:func:`admin_dataset` with D2 changed in one record whose B1..B4 cell
    holds others: B1..B4 determine D2 only within eps, so verify_basis
    draws its subsets."""
    ds = admin_dataset(seed)
    cells = slow_cells(ds, ["B1", "B2", "B3", "B4"])
    i = np.flatnonzero(np.bincount(cells)[cells] > 1)[0]
    records = ds.records.copy()
    d2 = ds.position("D2")
    records[i, d2] = (records[i, d2] + 1) % ds.var("D2").size
    return Dataset(ds.variables, records)


def benchmark_admin_dataset(n, k, seed):
    """The administrative table of the ``api-basis-admin`` benchmark: B1..B4
    of ``k`` categories, D1 = (B1, B2) and five more functions of them."""
    b1, b2, b3, b4 = np.random.default_rng(seed).integers(0, k, size=(4, n))
    cols = [b1, b2, b3, b4, b1 * k + b2, (b1 + b2) % k, (b3 + b4) % k,
            (b1 * b3) % k, (b2 + 2 * b4) % k, np.maximum(b3, b4)]
    names = ("B1", "B2", "B3", "B4", "D1", "D2", "D3", "D4", "D5", "D6")
    sizes = (k,) * 4 + (k * k,) + (k,) * 5
    return Dataset([Variable(nm, tuple(map(str, range(s)))) for nm, s in zip(names, sizes)],
                   np.column_stack(cols))


def repeated_rows(ds, data):
    """``ds`` with each record drawn 1-4 times, in a drawn order."""
    reps = data.draw(st.lists(st.integers(1, 4), min_size=ds.n_records,
                              max_size=ds.n_records))
    order = data.draw(st.permutations(range(sum(reps))))
    return ds.take(np.repeat(np.arange(ds.n_records), reps)[order])


def record_verdicts(ds, basis, eps):
    """verify_basis over every record, one count each: the path the
    distinct weighted rows must match bit for bit."""
    with mock.patch.object(basis_module, "_distinct_rows", lambda d: (d, None)):
        return verify_basis(ds, basis, eps=eps)


def check_report(ds, basis, eps):
    """verify_basis against the record-level path and against the dense
    reference, which always draws the subsets and is exact at eps 0."""
    report = verify_basis(ds, basis, eps=eps)
    assert report == record_verdicts(ds, basis, eps)
    assert report == reference_verify_basis(ds, basis, eps)
    return report


def record_trace(ds, eps):
    """structural_basis over every record, one count each."""
    with mock.patch.object(basis_module, "_distinct_rows", lambda d: (d, None)):
        return structural_basis(ds, eps=eps)


class TestStructuralBasisDistinctRows:
    """structural_basis searches the distinct records, each weighted by how
    often it occurs.  Every count is that of the records, so every score,
    tie, prune and the final Ep are too: the traces pickle to equal bytes."""

    @pytest.mark.parametrize("seed", range(8))
    def test_admin_tables(self, seed):
        ds = repeating_admin_dataset(seed)
        assert dataset_module._distinct_rows(ds)[1] is not None
        for eps in (0.0, 1e-9, 0.0137):
            assert (pickle.dumps(structural_basis(ds, eps))
                    == pickle.dumps(record_trace(ds, eps)))

    @given(coded_datasets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_repeated_coded_rows(self, ds, data):
        ds = repeated_rows(ds, data)
        for eps in (0.0, 1e-9, 0.0137):
            fast = outcome(lambda: pickle.dumps(structural_basis(ds, eps)))
            assert fast == outcome(lambda: pickle.dumps(record_trace(ds, eps)))


class TestVerifyBasisDistinctRows:
    """verify_basis counts the distinct records, each weighted by how often
    it occurs; every count, and so the report, is that of the records."""

    @pytest.mark.parametrize("seed", range(8))
    def test_admin_tables(self, seed):
        ds = repeating_admin_dataset(seed)
        assert dataset_module._distinct_rows(ds)[1] is not None  # rows repeat
        # B1..B4 and (D1, B3, B4) determine every column of ds exactly, so
        # no subset is drawn; in the bad table they determine D2 only
        # within eps, and the subsets are drawn
        for table in (ds, admin_bad_dataset(seed)):
            for basis in (["B1", "B2", "B3", "B4"], ["B1", "B2", "B3"], ["D2", "D3"],
                          ["D1", "B3", "B4"]):
                for eps in (0.0, 1e-9, 0.0137):
                    check_report(table, basis, eps)

    @given(coded_datasets(), st.randoms(use_true_random=False), st.data())
    @settings(max_examples=200, deadline=None)
    def test_repeated_coded_rows(self, ds, rnd, data):
        ds = repeated_rows(ds, data)
        basis = rnd.sample(list(ds.names), rnd.randint(1, len(ds.names)))
        for b in (basis, list(ds.names), basis[:-1] or list(ds.names)[:1]):
            for eps in (0.0, 1e-9, 0.0137):
                check_report(ds, b, eps)

    def test_all_distinct_table_takes_the_record_path(self):
        ds = admin_dataset(3).take(np.arange(300))
        ds = Dataset(ds.variables + (Variable("ID", tuple(map(str, range(300)))),),
                     np.column_stack([ds.records, np.arange(300)]))
        assert dataset_module._distinct_rows(ds) == (ds, None)
        seen = []

        def spy(cells, target, eps, weights=None):
            seen.append(weights)
            return determination(cells, target, eps, weights)

        determination = basis_module._determination
        with mock.patch.object(basis_module, "_determination", spy):
            for basis in (["ID"], ["B1", "B2", "B3", "B4"], ["D2", "D3"]):
                for eps in (0.0, 1e-9, 0.0137):
                    check_report(ds, basis, eps)
        assert seen and all(w is None for w in seen)

    def test_one_fold_over_the_records(self):
        ds = admin_bad_dataset(0)
        sizes = []

        def spy(d, names, most=None):
            sizes.append(d.n_records)
            return fold(d, names, most)

        fold = dataset_module._fold
        with mock.patch.object(dataset_module, "_fold", spy), \
                mock.patch.object(basis_module, "_fold", spy):
            report = verify_basis(ds, ["B1", "B2", "B3", "B4"], eps=0.01)
        assert report.subsets_ok and report.determined["D2"]
        assert not verify_basis(ds, ["B1", "B2", "B3", "B4"], 0.0).determined["D2"]
        distinct = dataset_module._distinct_rows(ds)[0].n_records
        assert distinct < ds.n_records
        assert sizes.count(ds.n_records) == 1 and len(sizes) > 30  # the subsets are drawn
        assert set(sizes) == {ds.n_records, distinct}

    @pytest.mark.parametrize("basis, message", [
        (["B1", "Nope"], "unknown variable 'Nope'"),
        (["B1", "B1"], "composite parts must be distinct"),
        ([], "empty basis"),
    ])
    def test_bad_basis_rejected(self, basis, message):
        # Bad eps: TestVerifyBasis.test_bad_eps_rejected
        with pytest.raises(DataError, match=message):
            verify_basis(admin_dataset(5), basis)


class TestSubsetCheck:
    """(b) draws up to 32 subsets, unless every basis cell holds one value
    of every variable: then it holds one value of every composite of them,
    and (b) holds without a draw."""

    def test_exact_basis_draws_no_subsets(self):
        ds, bad = repeating_admin_dataset(0), admin_bad_dataset(0)
        distinct = dataset_module._distinct_rows(ds)[0].n_records
        basis = ["B1", "B2", "B3", "B4"]
        sizes = []

        def spy(d, names, most=None):
            sizes.append(d.n_records)
            return fold(d, names, most)

        fold = dataset_module._fold
        with mock.patch("numpy.random.default_rng", wraps=np.random.default_rng) as rng, \
                mock.patch.object(dataset_module, "_fold", spy):
            for eps in (0.0, 1e-9, 0.0137):
                assert verify_basis(ds, basis, eps=eps).passed
            assert rng.call_count == 0
            assert sizes == [distinct] * (1 + len(basis)) * 3  # the basis, then (d)
            assert verify_basis(bad, basis, eps=0.01).subsets_ok
            assert rng.call_count == 1


class TestDistinctRowsShared:
    """The three searches share one collapse of a dataset's records."""

    def test_one_fold_for_every_search(self):
        ds = admin_dataset(0)
        sizes = []

        def spy(d, names, most=None):
            sizes.append(d.n_records)
            return fold(d, names, most)

        fold = dataset_module._fold
        with mock.patch.object(dataset_module, "_fold", spy), \
                mock.patch.object(basis_module, "_fold", spy), \
                mock.patch.object(selection_module, "_fold", spy):
            trace = structural_basis(ds)
            verify_basis(ds, minimal_basis(ds))
            verify_basis(ds, trace.basis)
        distinct = dataset_module._distinct_rows(ds)[0].n_records
        assert distinct < ds.n_records
        assert sizes.count(ds.n_records) == 1
        assert set(sizes) == {ds.n_records, distinct}


def reference_minimal_basis(ds):
    """The first smallest subset, in combination order, with as many
    distinct code rows as the full set."""
    names = list(ds.names)

    def n_rows(sub):
        return len(np.unique(ds.records[:, [ds.position(nm) for nm in sub]], axis=0))

    full = n_rows(names)
    for k in range(1, len(names)):
        for sub in itertools.combinations(names, k):
            if n_rows(sub) == full:
                return sub
    return tuple(names)


def float_minimal_basis(ds, eps):
    """The first smallest subset whose :func:`ep` is within ``eps`` of the
    full set's."""
    names = list(ds.names)
    full = ep(ds, names).value
    for k in range(1, len(names)):
        for sub in itertools.combinations(names, k):
            if abs(ep(ds, sub).value - full) <= eps:
                return sub
    return tuple(names)


class TestMinimalBasis:
    def test_matches_planted_size(self):
        ds = planted_dataset()
        mb = minimal_basis(ds)
        assert len(mb) == 2

    def test_exact_at_eps_zero(self):
        # the float Ep sum of (B3, B4, D1) is an ulp above the full set's,
        # so compared as floats at eps 0 it lost to (B1, B2, B3, B4)
        ds = benchmark_admin_dataset(100_000, 7, 5150)
        assert minimal_basis(ds, 0.0) == minimal_basis(ds, 1e-12) == ("B3", "B4", "D1")

    @given(coded_datasets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_integer_reference(self, ds, data):
        ds = repeated_rows(ds, data)
        assert minimal_basis(ds, 0.0) == reference_minimal_basis(ds)
        for eps in (1e-9, 0.0137):
            assert minimal_basis(ds, eps) == float_minimal_basis(ds, eps)

    @pytest.mark.parametrize("eps", [-1e-9, float("nan")])
    def test_bad_eps_rejected(self, eps):
        with pytest.raises(DataError, match="eps must be nonnegative"):
            minimal_basis(planted_dataset(), eps=eps)

    def test_refuses_wide_datasets(self):
        cols = {f"W{i}": ["0", "1"] for i in range(21)}
        ds = Dataset.from_label_columns(cols)
        with pytest.raises(DataError):
            minimal_basis(ds)
