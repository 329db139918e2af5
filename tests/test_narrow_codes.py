"""Codes stored as uint8 or uint16 must count as int64 codes do.

A dataset stores its codes in the narrowest unsigned dtype, and numpy keeps
``uint8 * int`` as uint8, wrapping it around.  Every table below has code
products (x * n_Y, or one part times the next part's domain size) past 255
or 65,535, and every count is checked against an int64 reference over
np.unique that shares no encoding code with the library.  Composite keys
and their ranks are built at the narrowest width of their range as well
(``dataset._join`` and ``dataset._compact``), so these are checked at each
width's boundaries too.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catassoc import (
    ContingencyTable,
    Dataset,
    DataError,
    Variable,
    WeightedPopulation,
    association_matrix,
    association_vector,
    contingency,
    count_bootstrap,
    e2prime,
    equivalence_levels,
    gen_flu,
    gk_tau_direct,
    joint_from_counts,
    make_weights,
    retention_ratio,
    select_basis,
    split_validate,
    structural_basis,
    tau,
    tau_joint,
)

from catassoc import resample
from catassoc.dataset import _compact, _fold, _join, _pair_counts, _step_pairs

from conftest import (outcome, reference_forward_backward, reference_population_joint,
                      reference_structural, slow_cells, slow_tau, slow_weights, table_pairs)


#: Labels of the largest domain below; a domain of k categories is a prefix.
_LABELS = tuple(map(str, range(65537)))


def _dataset(columns: dict[str, tuple[int, np.ndarray]]) -> Dataset:
    """Dataset of (domain size, int64 codes) columns."""
    variables = [Variable(nm, _LABELS[:k]) for nm, (k, _) in columns.items()]
    return Dataset(variables, np.stack([c for _, c in columns.values()], axis=1))


@st.composite
def top_code_datasets(draw):
    """A response ``Y`` whose categories each hold at least four records,
    and columns ``A``, ``B``, ``C`` whose domains fill more than half of a
    storage width (256 or 65,536 categories).  Their codes come from a few
    values near the top spaced ``width // n_Y`` apart, so that x * n_Y + y
    taken modulo the width sends distinct cells to one key."""
    width = draw(st.sampled_from([256, 65536]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_y = draw(st.sampled_from([2, 3, 4, 5, 8, 17, 24]))
    m = 4 * n_y + draw(st.integers(0, 40))
    columns = {"Y": (n_y, rng.permutation(np.arange(m) % n_y))}
    for nm in "ABC":
        k = draw(st.integers(width // 2 + 1, width))
        pool = np.arange(k - 1, -1, -(width // n_y))[:4]
        pool = np.concatenate([pool, rng.integers(0, k, draw(st.integers(0, 3)))])
        columns[nm] = (k, rng.choice(pool, m))
    ds = _dataset(columns)
    assert ds.records.dtype == (np.uint8 if width == 256 else np.uint16)
    return ds


@st.composite
def observed_code_datasets(draw):
    """``X1``, ``X2`` and ``Y`` with every category observed: 17-40
    categories (stored as uint8) or 257-300 (stored as uint16), so the
    products of two columns' codes pass 255 or 65,535.  ``X2`` may be a
    relabeled copy of ``X1`` and ``Y`` a function of it, so that the
    equivalence levels hold in some tables."""
    low, high = draw(st.sampled_from([(17, 40), (257, 300)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k1, k2, k_y = (draw(st.integers(low, high)) for _ in range(3))
    m = max(k1, k2, k_y) + draw(st.integers(0, 60))
    x1 = rng.permutation(np.arange(m) % k1)
    if draw(st.booleans()):
        k2, x2 = k1, rng.permutation(k1)[x1]
    else:
        x2 = rng.permutation(np.arange(m) % k2)
    if draw(st.booleans()):
        k_y = min(k_y, k1)
        y = rng.permutation(np.arange(k1) % k_y)[x1]
    else:
        y = rng.permutation(np.arange(m) % k_y)
    return _dataset({"X1": (k1, x1), "X2": (k2, x2), "Y": (k_y, y)})


def reference_table(ds, x, y):
    """Dense counts of ``x`` against ``y`` from np.unique over int64 code
    rows.  The rows of a plain variable are its domain; those of a list of
    parts are its observed code rows in sorted order."""
    if isinstance(x, str):
        cells, n_x = ds.codes(x).astype(np.int64), ds.var(x).size
    else:
        cells = slow_cells(ds, x)
        n_x = int(cells.max()) + 1
    pairs, counts = np.unique(np.stack([cells, ds.codes(y).astype(np.int64)], axis=1),
                              axis=0, return_counts=True)
    table = np.zeros((n_x, ds.var(y).size), dtype=np.int64)
    table[pairs[:, 0], pairs[:, 1]] = counts
    return table


def determines(ds, given, target):
    """Whether every observed value of ``given`` occurs with one value of ``target``."""
    rows = np.stack([ds.codes(given), ds.codes(target)], axis=1)
    return len(np.unique(rows, axis=0)) == len(np.unique(ds.codes(given)))


def reference_split(ds, x, y, train_frac, seed):
    """split_validate's unstratified split, train counts and test confusion
    from int64 codes, one proportional draw per test record."""
    m = ds.n_records
    n_train = int(round(train_frac * m))
    rng = np.random.default_rng(seed)
    perm = rng.permutation(m)
    train_idx, test_idx = perm[:n_train], perm[n_train:]
    xc, yc = ds.codes(x).astype(np.int64), ds.codes(y).astype(np.int64)
    n_y = ds.var(y).size
    train = np.zeros((ds.var(x).size, n_y), dtype=np.int64)
    pairs, counts = np.unique(np.stack([xc[train_idx], yc[train_idx]], axis=1), axis=0,
                              return_counts=True)
    train[pairs[:, 0], pairs[:, 1]] = counts
    if (train.sum(axis=0) == 0).any():
        raise DataError("a response category is absent from the training split")
    usable = [i for i in test_idx if train[xc[i]].sum() > 0]
    confusion = np.zeros((n_y, n_y), dtype=np.int64)
    for i, u in zip(usable, rng.random(len(usable))):
        cdf = np.cumsum(train[xc[i]] / train[xc[i]].sum())
        cdf[-1] = 1.0
        confusion[yc[i], int(np.searchsorted(cdf, u, side="right"))] += 1
    return train, confusion, len(test_idx) - len(usable)


class TestTopCodes:
    @given(top_code_datasets())
    @settings(max_examples=150, deadline=None)
    def test_contingency(self, ds):
        for x in ("A", ["A"], ["A", "B"], ["C", "B", "A"]):
            assert np.array_equal(contingency(ds, x, "Y").counts,
                                  reference_table(ds, x, "Y")), x

    @given(top_code_datasets(), st.sampled_from(["gk", "ew", "ipw"]))
    @settings(max_examples=150, deadline=None)
    def test_tau_joint(self, ds, alpha):
        weights = slow_weights(ds, "Y", alpha)
        for xs in (["A"], ["A", "B"], ["C", "B", "A"]):
            assert tau_joint(ds, "Y", xs, alpha=alpha) == slow_tau(ds, "Y", xs, weights), xs

    @given(top_code_datasets())
    @settings(max_examples=150, deadline=None)
    def test_select_basis_forward_scores(self, ds):
        weights = slow_weights(ds, "Y", "gk")
        ref = reference_forward_backward(ds, ["A", "B", "C"],
                                         lambda xs: slow_tau(ds, "Y", xs, weights),
                                         minimize=False, start=0.0, eps=1e-9, metric="tau")
        assert select_basis(ds, "Y", alpha="gk") == ref

    @given(top_code_datasets(), st.sampled_from([0.0, 1e-9]))
    @settings(max_examples=150, deadline=None)
    def test_structural_basis_forward_scores(self, ds, eps):
        # no response: a step's keys cell * size + code pass 255 or 65,535
        assert structural_basis(ds, eps=eps) == reference_structural(ds, eps)

    @given(top_code_datasets(), st.integers(0, 2**16))
    @settings(max_examples=150, deadline=None)
    def test_split_validate_counts(self, ds, seed):
        res = outcome(lambda: split_validate(ds, "A", "Y", train_frac=0.8, seed=seed))
        ref = outcome(lambda: reference_split(ds, "A", "Y", 0.8, seed))
        if isinstance(ref[0], str):  # the error both raise
            assert res == ref
            return
        train, confusion, skipped = ref
        gamma = association_matrix(joint_from_counts(train)).gamma
        assert np.array_equal(res.train_gamma.gamma, gamma)
        assert res.test_confusion.counts.tolist() == confusion.tolist()
        assert res.skipped_unseen == skipped

    @given(top_code_datasets(), st.integers(0, 2**16))
    @settings(max_examples=100, deadline=None)
    def test_population_joint(self, ds, seed):
        w = np.random.default_rng(seed).random(ds.n_records) + 0.01
        pop = WeightedPopulation(ds.variables, ds.records, w / w.sum())
        for xs in (["A"], ["A", "B"], ["C", "B", "A"]):
            p, x_domain = reference_population_joint(pop, xs, "Y")
            j = pop.joint(xs, "Y")
            assert np.array_equal(j.p_xy, p) and j.x_domain == x_domain, xs


class TestObservedCodes:
    @given(observed_code_datasets())
    @settings(max_examples=100, deadline=None)
    def test_composite_counts(self, ds):
        # 17-40 categories a part: the fold is counted, not ranked first
        weights = slow_weights(ds, "Y", "gk")
        for xs in (["X1", "X2"], ["X2", "X1"]):
            assert np.array_equal(contingency(ds, xs, "Y").counts,
                                  reference_table(ds, xs, "Y")), xs
            assert tau_joint(ds, "Y", xs) == slow_tau(ds, "Y", xs, weights), xs

    def test_uint16_fold_at_scale(self):
        # 25,000 records, parts of 300 categories: the 90,000 keys of the
        # fold are counted, not ranked first, and pass 65,535
        rng = np.random.default_rng(12)
        m = 25_000
        ds = _dataset({"X1": (300, rng.integers(0, 300, m)),
                       "X2": (300, rng.integers(0, 300, m)),
                       "Y": (3, rng.permutation(np.arange(m) % 3))})
        assert ds.records.dtype == np.uint16
        xs = ["X1", "X2"]
        assert np.array_equal(contingency(ds, xs, "Y").counts, reference_table(ds, xs, "Y"))
        assert tau_joint(ds, "Y", xs) == slow_tau(ds, "Y", xs, slow_weights(ds, "Y", "gk"))

    def test_step_keys_at_scale(self):
        # 25,000 records, parts of 300 categories: the structural search
        # counts its second step's 90,000 keys in uint32, select_basis its
        # first step's 900 in uint16 and sorts its second step's 270,000
        rng = np.random.default_rng(14)
        m = 25_000
        ds = _dataset({"X1": (300, rng.integers(0, 300, m)),
                       "X2": (300, rng.integers(0, 300, m)),
                       "Y": (3, rng.permutation(np.arange(m) % 3))})
        assert structural_basis(ds, eps=0.0) == reference_structural(ds, 0.0)
        weights = slow_weights(ds, "Y", "gk")
        ref = reference_forward_backward(ds, ["X1", "X2"],
                                         lambda xs: slow_tau(ds, "Y", xs, weights),
                                         minimize=False, start=0.0, eps=0.0, metric="tau")
        assert select_basis(ds, "Y", alpha="gk", eps_gain=0.0) == ref

    @given(observed_code_datasets())
    @settings(max_examples=100, deadline=None)
    def test_e2prime(self, ds):
        assert e2prime(ds, "X1", "X2", tol=0.0) == \
            (determines(ds, "X1", "X2") and determines(ds, "X2", "X1"))

    @given(observed_code_datasets())
    @settings(max_examples=100, deadline=None)
    def test_equivalence_levels(self, ds):
        report = equivalence_levels(ds, "X1", "X2", "Y", tol=0.0)
        y_x1, y_x2 = determines(ds, "X1", "Y"), determines(ds, "X2", "Y")
        assert report.levels[1] == (determines(ds, "X1", "X2")
                                    and determines(ds, "X2", "X1") and y_x1)
        assert report.levels[2] == (y_x1 and y_x2)
        tables = [ContingencyTable(x, "Y", ds.var(x).domain, ds.var("Y").domain,
                                   reference_table(ds, x, "Y")) for x in ("X1", "X2")]
        g1, g2 = (association_matrix(t).gamma for t in tables)
        v1, v2 = (association_vector(t) for t in tables)
        n_y = tables[0].counts.sum(axis=0)
        alpha = make_weights("gk", p_y=n_y / n_y.sum())
        d = report.details
        assert d["max_gamma_diff"] == np.abs(g1 - g2).max()
        assert d["max_theta_diff"] == np.abs(v1.theta - v2.theta).max()
        assert (d["tau_alpha_x1"], d["tau_alpha_x2"]) == (tau(v1, alpha), tau(v2, alpha))
        for key, given_, target in (("tau_y_x1", "X1", "Y"), ("tau_y_x2", "X2", "Y"),
                                    ("tau_x1_x2", "X2", "X1"), ("tau_x2_x1", "X1", "X2")):
            ref = gk_tau_direct(joint_from_counts(reference_table(ds, given_, target)))
            assert d[key] == pytest.approx(ref, rel=1e-9, abs=1e-12), key


class TestStepGroups:
    """A forward step counts its candidates in groups whose joint (cell,
    response, candidate values) range is at most 2^16, in the narrowest
    key dtype: uint16 at exactly 2^16.  Records are enough to count past
    the cap, so the cap, not the count limit, ends a group."""

    @staticmethod
    def _first_step(ds, y, names, monkeypatch):
        """Pairs of each candidate of a first step, and (key dtype, range,
        largest key) of each count over the records."""
        counts, bincount = [], np.bincount

        def spy(keys, weights=None, minlength=0):
            if weights is None:
                counts.append((keys.dtype, minlength, int(keys.max())))
            return bincount(keys, weights, minlength)

        monkeypatch.setattr(np, "bincount", spy)
        keys = np.zeros(ds.n_records, np.int64)
        y_codes, n_y = (ds.codes(y), ds.var(y).size) if y else (None, 1)
        pairs = list(_step_pairs(keys, 1, y_codes, n_y,
                                 [(ds.codes(nm), ds.var(nm).size) for nm in names]))
        monkeypatch.undo()
        return pairs, counts

    @staticmethod
    def _table(m, columns, seed):
        """``m`` records of (name, size) columns, the last record holding
        each column's top code."""
        rng = np.random.default_rng(seed)
        codes = {nm: (k, rng.integers(0, k, m)) for nm, k in columns}
        for k, c in codes.values():
            c[-1] = k - 1
        return _dataset(codes)

    @staticmethod
    def _slow_pairs(ds, y, x):
        n_y = ds.var(y).size if y else 1
        y_codes = ds.codes(y).astype(np.int64) if y else 0
        cells = slow_cells(ds, [x])
        return table_pairs(np.bincount(cells * n_y + y_codes).reshape(-1, n_y))

    def _check(self, ds, y, names, monkeypatch):
        pairs, counts = self._first_step(ds, y, names, monkeypatch)
        for nm, got in zip(names, pairs, strict=True):
            assert all(map(np.array_equal, got, self._slow_pairs(ds, y, nm))), nm
        if y is None:
            assert structural_basis(ds, eps=0.0) == reference_structural(ds, 0.0)
        else:
            weights = slow_weights(ds, y, "gk")
            ref = reference_forward_backward(ds, [nm for nm in ds.names if nm != y],
                                             lambda xs: slow_tau(ds, y, xs, weights),
                                             minimize=False, start=0.0, eps=0.0, metric="tau")
            assert select_basis(ds, y, alpha="gk", eps_gain=0.0) == ref
        return counts

    @pytest.mark.parametrize("y, columns", [
        (None, [("A", 256), ("B", 256)]),
        ("Y", [("Y", 2), ("A", 128), ("B", 256)])])
    def test_group_range_at_the_cap(self, y, columns, monkeypatch):
        # 20,000 records count up to 81,024 keys; A and B fill 2^16 exactly
        ds = self._table(20_000, columns, seed=1)
        counts = self._check(ds, y, ["A", "B"], monkeypatch)
        assert counts == [(np.uint16, 65536, 65535)]

    @pytest.mark.parametrize("y, columns", [
        (None, [("A", 256), ("B", 256), ("C", 2)]),
        ("Y", [("Y", 2), ("A", 128), ("B", 256), ("C", 2)])])
    def test_next_candidate_past_the_cap_starts_a_group(self, y, columns, monkeypatch):
        # 40,000 records count up to 161,024 keys, but C would take the
        # group to 2^17
        ds = self._table(40_000, columns, seed=2)
        counts = self._check(ds, y, ["A", "B", "C"], monkeypatch)
        n_c = 2 * ds.var(y).size if y else 2
        assert counts == [(np.uint16, 65536, 65535), (np.uint8, n_c, n_c - 1)]

    @pytest.mark.parametrize("k, dtype", [(256, np.uint8), (65536, np.uint16)])
    def test_lone_candidate_filling_its_key_dtype(self, k, dtype, monkeypatch):
        # no cells and no response before it: the all-zero key is scaled by
        # k, a factor past the key's dtype
        ds = self._table(20_000, [("A", k)], seed=3)
        assert self._check(ds, None, ["A"], monkeypatch) == [(dtype, k, k - 1)]


#: Key ranges at each width's boundaries, as (n_keys, size) factors.
BOUNDARY_FACTORS = [
    (15, 17), (1, 255), (16, 16), (1, 256), (256, 1), (257, 1), (1, 257),
    (255, 257), (256, 256), (1, 65536), (65536, 1), (65537, 1), (1, 65537),
    (65535, 65537), (65536, 65536), (1, 2**32), (641, 6700417), (1, 2**32 + 1)]


def _width(top):
    """Narrowest unsigned dtype holding ``top``; int64 past uint32."""
    for t in (np.uint8, np.uint16, np.uint32):
        if top <= np.iinfo(t).max:
            return np.dtype(t)
    return np.dtype(np.int64)


def _codes(rng, m, n, dtype=None):
    """``m`` codes in ``range(n)``, both ends included, at the width of ``n``."""
    codes = rng.integers(0, n, m)
    codes[:2] = 0, n - 1
    return codes.astype(dtype or _width(n - 1))


class TestKeyWidths:
    """Keys and ranks are built at the narrowest width of their range (and
    of the factor a key is divided by), and equal int64 keys ranked by
    np.unique, at and around 2^8, 2^16 and 2^32."""

    @pytest.mark.parametrize("n_keys, size", BOUNDARY_FACTORS)
    @pytest.mark.parametrize("signed_x", [False, True])
    def test_join(self, n_keys, size, signed_x):
        rng = np.random.default_rng(n_keys + size)
        keys = _codes(rng, 50, n_keys)
        x = _codes(rng, 50, size, np.int64 if signed_x else None)
        joined, n = _join(keys, n_keys, x, size)
        assert n == n_keys * size
        assert joined.dtype == _width(max(n - 1, size))
        assert joined.tolist() == (keys.astype(np.int64) * size + x).tolist()

    @pytest.mark.parametrize("k", [255, 256, 257, 65535, 65536, 65537])
    @pytest.mark.parametrize("spread", [1, 2**32 - 1, 2**32, 2**32 + 1])
    def test_compact(self, k, spread):
        # k observed keys over a range of k * spread: counted, or sorted
        n_keys = k * spread
        observed = np.arange(k, dtype=np.int64) * spread
        keys = np.random.default_rng(k).permutation(np.concatenate(
            [observed, observed[np.arange(300) % k]])).astype(_width(n_keys - 1))
        ranks, n = _compact(keys, n_keys)
        assert n == k and ranks.dtype == _width(k - 1)
        assert ranks.tolist() == np.unique(keys.astype(np.int64), return_inverse=True)[1].tolist()

    @pytest.mark.parametrize("n_keys, size", [f for f in BOUNDARY_FACTORS if max(f) <= 65537])
    def test_fold(self, n_keys, size):
        # every category observed, so the parts' ranges are kept
        rng = np.random.default_rng(n_keys + size)
        m = max(n_keys, size) + 50
        a, b = (rng.permutation(np.arange(m) % k) for k in (n_keys, size))
        ds = _dataset({"A": (n_keys, a), "B": (size, b)})
        keys, n = _fold(ds, ["A", "B"])
        assert n == n_keys * size and keys.dtype == _width(max(n - 1, size))
        ref = np.unique(a * size + b, return_inverse=True)[1]
        assert np.unique(keys, return_inverse=True)[1].tolist() == ref.tolist()
        ranks, n_cells = _compact(keys, n)
        assert ranks.dtype == _width(n_cells - 1) and ranks.tolist() == ref.tolist()

    @pytest.mark.parametrize("n_keys, n_y", BOUNDARY_FACTORS)
    def test_pair_counts(self, n_keys, n_y):
        # 60 records: ranges past 1,264 keys are sorted, not counted
        rng = np.random.default_rng(n_keys + n_y)
        keys, y = _codes(rng, 60, n_keys), _codes(rng, 60, n_y)
        pairs, n_is = np.unique(keys.astype(np.int64) * n_y + y, return_counts=True)
        cells = np.unique(pairs // n_y, return_inverse=True)[1]
        n_i = np.bincount(cells, n_is)[cells]
        got = _pair_counts(keys, n_keys, y, n_y)
        assert [a.tolist() for a in got] == [n_is.tolist(), n_i.tolist(), (pairs % n_y).tolist()]


class TestBootstrapKeyWidths:
    """count_bootstrap keys each variable set's (cell, response) pairs at the
    narrowest width; the set's pairs in a replicate are the pairs of the
    records that the replicate's pair counts stand for."""

    @pytest.mark.parametrize("k", [85, 86, 256, 300])
    def test_subset_of_many_cells(self, k):
        # k subset cells of 3 responses: keys in uint8 up to 85 cells
        rng = np.random.default_rng(k)
        m = 3 * k
        x, z = rng.permutation(np.arange(m) % k), rng.integers(0, 2, m)
        y = (x + rng.integers(0, 2, m)) % 3
        ds = _dataset({"X": (k, x), "Z": (2, z), "Y": (3, y)})
        weights = slow_weights(ds, "Y", "gk")
        B, seed = 12, 5
        got = count_bootstrap(ds, "Y", ["X", "Z"], ["X"], alpha=weights, B=B, seed=seed)
        pairs, first, n_is = np.unique(slow_cells(ds, ["X", "Z"]) * 3 + y,
                                       return_index=True, return_counts=True)
        draws = np.concatenate(list(resample._pair_draws(n_is, pairs % 3, 3, B, seed)))
        expected = [retention_ratio(ds.take(np.repeat(first, counts)), "Y", ["X"], ["X", "Z"],
                                    alpha=weights) for counts in draws]
        assert got.replicates.tolist() == expected


class TestSearchMemory:
    """With the chosen cells, the step keys and the pair keys all at the
    narrowest width of their range, a search over 200k flu records (uint8
    codes) peaks at 12 bytes a record or less: int64 chosen cells or pair
    keys would take 8 bytes a record each."""

    @pytest.mark.parametrize("search", [
        lambda ds: select_basis(ds, "Y", eps_gain=1e-9),
        lambda ds: structural_basis(ds)], ids=["select_basis", "structural_basis"])
    def test_peak_per_record(self, search):
        ds = gen_flu(200_000, seed=3)
        tracemalloc.start()
        try:
            search(ds)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 12 * ds.n_records, peak / ds.n_records
