"""Proportional prediction and split-sample validation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catassoc import (
    DataError,
    Dataset,
    Variable,
    association_matrix,
    composite,
    gen_flu,
    joint_from_counts,
    population_joint_flu,
    proportional_predict,
    sample_joint,
    split_validate,
)
from catassoc import dataset as dataset_module
from catassoc import predict as predict_module
from catassoc.predict import _draw


def strong_joint(n=5, hit=0.9):
    """Diagonal-heavy joint: X uniform, conditional concentrated."""
    miss = (1 - hit) / (n - 1)
    m = np.full((n, n), miss)
    np.fill_diagonal(m, hit)
    return joint_from_counts(m / n * n)


class TestProportionalPredict:
    def test_degenerate_conditional(self):
        j = joint_from_counts(np.array([[0.0, 1.0], [0.0, 3.0]]),
                              x_domain=("a", "b"), y_domain=("u", "v"))
        rng = np.random.default_rng(0)
        assert all(proportional_predict(j, "a", rng) == "v" for _ in range(20))

    def test_uniform_conditional_frequencies(self):
        j = joint_from_counts(np.ones((1, 4)),
                              x_domain=("a",), y_domain=("1", "2", "3", "4"))
        rng = np.random.default_rng(1)
        draws = [proportional_predict(j, "a", rng) for _ in range(8000)]
        freq = np.array([draws.count(c) for c in "1234"]) / 8000
        assert np.abs(freq - 0.25).max() < 0.03

    def test_flu_severe_state(self):
        pop = population_joint_flu()
        j = pop.joint(["X1", "X2"], "Y")
        i = j.x_domain.index(("1", "1"))
        cond = j.p_xy[i] / j.p_xy[i].sum()
        assert abs(cond[j.y_domain.index("2")] - 0.95) <= 1e-12
        rng = np.random.default_rng(2)
        draws = [proportional_predict(j, ("1", "1"), rng) for _ in range(4000)]
        assert abs(draws.count("2") / 4000 - 0.95) < 0.02

    def test_unseen_value_rejected(self):
        j = joint_from_counts(np.ones((2, 2)), x_domain=("a", "b"))
        with pytest.raises(DataError):
            proportional_predict(j, "zzz", np.random.default_rng(0))


class TestSplitValidate:
    def test_functional_relation_gives_identity_and_zero_diff(self):
        rng = np.random.default_rng(3)
        x = rng.integers(0, 4, 3000)
        ds_cols = {
            "X": [str(v) for v in x],
            "Y": [str(v % 3) for v in x],
        }
        from catassoc import Dataset
        ds = Dataset.from_label_columns(ds_cols)
        res = split_validate(ds, "X", "Y", train_frac=0.8, seed=0)
        assert np.allclose(res.train_gamma.gamma, np.eye(3), atol=1e-12)
        assert res.max_abs_diff <= 1e-12

    def test_independent_rows_near_marginal(self):
        j = joint_from_counts(np.outer([0.3, 0.3, 0.4], [0.5, 0.3, 0.2]))
        ds = sample_joint(j, 20000, seed=4)
        res = split_validate(ds, "X", "Y", train_frac=0.8, seed=4)
        marg = np.array([0.5, 0.3, 0.2])
        for row in res.train_gamma.gamma:
            assert np.abs(row - marg).max() < 0.03

    def test_close_at_example_scale(self):
        # 24,000 records, 80/20 split: confusion tracks the matrix
        ds = sample_joint(strong_joint(6, 0.95), 24000, seed=5)
        res = split_validate(ds, "X", "Y", train_frac=0.8, seed=5)
        assert res.max_abs_diff <= 0.02
        assert res.n_train == 19200 and res.n_test == 4800

    def test_seed_determinism(self):
        ds = sample_joint(strong_joint(4, 0.8), 2000, seed=6)
        a = split_validate(ds, "X", "Y", seed=9)
        b = split_validate(ds, "X", "Y", seed=9)
        assert a.max_abs_diff == b.max_abs_diff
        assert (a.test_confusion.counts == b.test_confusion.counts).all()

    def test_missing_train_category_rejected(self):
        from catassoc import Dataset
        ds = Dataset.from_label_columns({
            "X": ["a"] * 50 + ["b"],
            "Y": ["0"] * 50 + ["1"],
        })
        with pytest.raises(DataError):
            # the single "1" response record cannot be in every train split
            for seed in range(20):
                split_validate(ds, "X", "Y", train_frac=0.5, seed=seed)

    def test_bad_fraction_rejected(self):
        ds = sample_joint(strong_joint(3), 100, seed=7)
        with pytest.raises(DataError):
            split_validate(ds, "X", "Y", train_frac=1.0, seed=0)
        with pytest.raises(DataError):
            split_validate(ds, "X", "Y", train_frac=0.0, seed=0)

    def test_stratified_split_keeps_categories(self):
        ds = sample_joint(strong_joint(5, 0.9), 600, seed=8)
        res = split_validate(ds, "X", "Y", train_frac=0.8, seed=8, stratify=True)
        assert (res.test_confusion.counts.sum(axis=1) > 0).all()

    def test_composite_explanatory(self):
        from catassoc.fixtures import loan_dataset
        ds = loan_dataset()
        res = split_validate(ds, ["Age", "Income"], "Risk",
                             train_frac=0.8, seed=12)
        assert res.n_train + res.n_test == 650
        rows = res.test_confusion.counts.sum(axis=1)
        norm = res.test_confusion.normalized
        assert np.allclose(norm[rows > 0].sum(axis=1), 1.0, atol=1e-12)


def _permutation_split(ds, y, train_frac, seed, stratify):
    """split_validate's generator, training and test records, drawn by ``rng.permutation``."""
    rng = np.random.default_rng(seed)
    if stratify:
        halves = []
        for cat in range(ds.var(y).size):
            members = np.flatnonzero(ds.codes(y) == cat)
            members = members[rng.permutation(members.size)]
            k = int(round(train_frac * members.size))
            halves.append((members[:k], members[k:]))
        train, test = (np.concatenate(h) for h in zip(*halves))
    else:
        perm = rng.permutation(ds.n_records)
        n_train = int(round(train_frac * ds.n_records))
        train, test = perm[:n_train], perm[n_train:]
    return rng, train, test


def _permutation_split_validate(ds, x, y, train_frac, seed, stratify):
    """split_validate's split drawn by ``rng.permutation``, and its counts
    and predictions taken through ``composite()``'s int64 cell codes, with
    every test record's draw taken in one call."""
    rng, train, test = _permutation_split(ds, y, train_frac, seed, stratify)
    comp = composite(ds, [x] if isinstance(x, str) else x)
    cells, codes, ny = comp.codes, ds.codes(y).astype(np.int64), ds.var(y).size
    counts = np.bincount(cells[train] * ny + codes[train], minlength=comp.size * ny)
    counts = counts.reshape(comp.size, ny)
    mass = counts.sum(axis=1)
    usable = mass[cells[test]] > 0
    preds = _draw(counts / np.maximum(mass, 1)[:, None], rng.random(int(usable.sum())),
                  cells[test][usable])
    confusion = np.bincount(codes[test][usable] * ny + preds, minlength=ny * ny)
    return (association_matrix(joint_from_counts(counts)).gamma.tolist(),
            confusion.reshape(ny, ny).tolist(), train.size, test.size, int((~usable).sum()))


class TestSplitAsPermutation:
    """split_validate shuffles a narrow arange and counts narrow cell codes;
    the split, the fitted matrix and every prediction are those of
    ``rng.permutation`` and ``composite()``."""

    @pytest.mark.parametrize("m,seed", [(2, 0), (255, 11), (257, 12345), (3000, 7),
                                        (65_537, 3)])
    def test_shuffled_arange_is_the_permutation(self, m, seed):
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        perm = np.arange(m, dtype=np.min_scalar_type(m - 1))
        b.shuffle(perm)
        assert perm.tolist() == a.permutation(m).tolist()
        assert a.random() == b.random()

    @pytest.mark.parametrize("m,seed", [(40, 0), (257, 11), (3000, 12345), (65_537, 5)])
    @pytest.mark.parametrize("x", ["X", ["X", "Z"], ["Z", "X", "W"]])
    @pytest.mark.parametrize("stratify", [False, True])
    @pytest.mark.parametrize("block", [None, 5])
    def test_matches_permutation_and_composite(self, monkeypatch, m, seed, x, stratify, block):
        """With ``block`` set, the test records are drawn and tallied in blocks of
        at least that many records and the training table's size."""
        if block is not None:
            monkeypatch.setattr(predict_module, "_BLOCK", block)
            monkeypatch.setattr(dataset_module, "_BLOCK", block)
        rng = np.random.default_rng(seed)
        sizes = {"X": 4, "Z": 3, "W": 90, "Y": 3}
        codes = rng.integers(0, list(sizes.values()), (m, 4))
        codes[:, 3] = np.where(rng.random(m) < 0.7, codes[:, 0] % 3, codes[:, 3])
        codes[:3, 3] = [0, 1, 2]  # every response category occurs
        ds = Dataset([Variable(nm, tuple(map(str, range(k)))) for nm, k in sizes.items()], codes)
        res = split_validate(ds, x, "Y", train_frac=0.7, seed=seed, stratify=stratify)
        expected = _permutation_split_validate(ds, x, "Y", 0.7, seed, stratify)
        assert (res.train_gamma.gamma.tolist(), res.test_confusion.counts.tolist(),
                res.n_train, res.n_test, res.skipped_unseen) == expected

    @pytest.mark.parametrize("stratify", [False, True])
    def test_unseen_cells_in_many_blocks(self, monkeypatch, stratify):
        """Test records of cells absent from training are skipped in several
        blocks; the draws of the others are still those of one call."""
        monkeypatch.setattr(predict_module, "_BLOCK", 5)
        monkeypatch.setattr(dataset_module, "_BLOCK", 5)
        rng = np.random.default_rng(8)
        m, n_x = 3000, 60
        x = np.where(rng.random(m) < 0.97, 0, rng.integers(1, n_x, m))  # a tail of rare cells
        y = np.where(rng.random(m) < 0.6, x % 3, rng.integers(0, 3, m))
        ds = Dataset([Variable("X", tuple(map(str, range(n_x)))), Variable("Y", ("0", "1", "2"))],
                     np.stack([x, y], 1))
        res = split_validate(ds, "X", "Y", train_frac=0.7, seed=8, stratify=stratify)
        expected = _permutation_split_validate(ds, "X", "Y", 0.7, 8, stratify)
        assert (res.train_gamma.gamma.tolist(), res.test_confusion.counts.tolist(),
                res.n_train, res.n_test, res.skipped_unseen) == expected
        _, train, test = _permutation_split(ds, "Y", 0.7, 8, stratify)
        unseen = np.flatnonzero(~np.isin(x[test], x[train]))
        step = np.unique(x).size * 3  # the training table's size, here more than the block
        assert res.skipped_unseen == unseen.size and np.unique(unseen // step).size > 1


class TestExpectedConfusionEqualsMatrix:
    def test_many_draws_per_cell(self):
        # with 50,000 draws per explanatory cell, the tallied confusion
        # approaches the matrix everywhere
        j = joint_from_counts(np.array([
            [0.20, 0.05, 0.05],
            [0.04, 0.30, 0.06],
            [0.02, 0.08, 0.20],
        ]))
        gamma = association_matrix(j).gamma
        cond = j.p_xy / j.p_x[:, None]
        n = 50_000
        rng = np.random.default_rng(10)
        pred_freq = np.zeros((3, 3))
        for i in range(3):
            draws = _draw(cond, rng.random(n), np.full(n, i))
            pred_freq[i] = np.bincount(draws, minlength=3) / n
        # weight each cell's empirical prediction rates by p(X=i | Y=s)
        p_x_given_y = (j.p_xy / j.p_y[None, :]).T  # rows: s
        confusion = p_x_given_y @ pred_freq
        assert np.abs(confusion - gamma).max() <= 0.01

    def test_diagonal_and_columns_estimate_rates(self):
        # diagonal: per-category accuracy; off-diagonal columns: rates of
        # predicting t when truth is s != t; both follow the matrix
        ds = sample_joint(strong_joint(4, 0.85), 40000, seed=11)
        res = split_validate(ds, "X", "Y", train_frac=0.5, seed=11)
        g = res.train_gamma.gamma
        c = res.test_confusion.normalized
        assert np.abs(np.diag(g) - np.diag(c)).max() < 0.02
        off = ~np.eye(4, dtype=bool)
        assert np.abs(g[off] - c[off]).max() < 0.02


def slow_draw(cond, u, rows):
    """One ``np.searchsorted`` per draw, on that draw's own row."""
    cond = np.atleast_2d(cond)
    out = []
    for uk, r in zip(u, np.broadcast_to(rows, u.shape)):
        cdf = np.cumsum(cond[r])
        cdf[-1] = 1.0
        out.append(np.searchsorted(cdf, uk, side="right"))
    return np.array(out, dtype=np.intp)


class TestDraw:
    """The single inverse-CDF sampler against a per-row reference."""

    def random_rows(self, rng, n_rows, n_cat):
        cond = rng.random((n_rows, n_cat)) * (rng.random((n_rows, n_cat)) < 0.6)
        cond[rng.random(n_rows) < 0.3, : n_cat // 2] = 0.0  # zero prefixes
        cond[rng.random(n_rows) < 0.1] = 0.0                 # all-zero rows
        mass = cond.sum(axis=1, keepdims=True)
        return cond / np.where(mass > 0, mass, 1)

    def queries(self, rng, cond, rows, n):
        # uniform values, u = 0.0 and values equal to CDF entries
        u = rng.random(n)
        u[rng.random(n) < 0.1] = 0.0
        cdf = np.cumsum(np.atleast_2d(cond), axis=1)[rows]
        hit = rng.random(n) < 0.3
        col = rng.integers(0, cdf.shape[-1], n)
        u[hit] = np.minimum(cdf[np.arange(n), col][hit], np.nextafter(1.0, 0.0))
        return u

    def test_stacks_match_per_row_search(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n_rows, n_cat, n = (int(v) for v in rng.integers(1, 12, 3))
            cond = self.random_rows(rng, n_rows, n_cat)
            rows = rng.integers(0, n_rows, n)
            u = self.queries(rng, cond, rows, n)
            assert (_draw(cond, u, rows) == slow_draw(cond, u, rows)).all()

    def test_one_distribution_matches_search(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            n_cat, n = (int(v) for v in rng.integers(1, 12, 2))
            cond = self.random_rows(rng, 1, n_cat)[0]
            u = self.queries(rng, cond, np.zeros(n, dtype=int), n)
            assert (_draw(cond, u) == slow_draw(cond, u, 0)).all()

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_one_row_equals_complex_key_search(self, seed):
        # A scalar row is searched on its float CDF; an array of rows takes
        # the complex-key search.  Zero categories, flat CDF prefixes, u = 0.0
        # and u on a CDF entry are all drawn.
        rng = np.random.default_rng(seed)
        n_rows, n_cat, n = (int(v) for v in rng.integers(1, 12, 3))
        cond = self.random_rows(rng, n_rows, n_cat)
        r = int(rng.integers(0, n_rows))
        u = self.queries(rng, cond, np.full(n, r), n)
        got = _draw(cond, u, r)
        assert got.dtype == np.intp
        assert got.tolist() == _draw(cond, u, np.full(n, r)).tolist()

    def test_zero_never_selects_an_empty_category(self):
        cond = np.array([[0.0, 0.0, 0.5, 0.5], [0.0, 0.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0]])
        u = np.zeros(3)
        assert _draw(cond, u, np.arange(3)).tolist() == [2, 3, 0]
        assert _draw(cond[0], u).tolist() == [2, 2, 2]


class TestSplitValidateMemory:
    def test_wide_response_memory_is_linear_in_draws(self):
        # 20,000 test draws over 500 categories: a (draws x categories)
        # table alone would take 80 MB.
        rng = np.random.default_rng(3)
        m = 100_000
        x = rng.integers(0, 20, m)
        y = (25 * x + rng.integers(0, 60, m)) % 500
        ds = Dataset([Variable("X", tuple(map(str, range(20)))),
                      Variable("Y", tuple(map(str, range(500))))], np.stack([x, y], 1))
        tracemalloc.start()
        try:
            res = split_validate(ds, "X", "Y", seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.test_confusion.counts.sum() == res.n_test == 20_000
        assert peak < 30 * 2**20, peak

    def test_flu_split_memory_is_per_record(self):
        """A split of 200k flu records over the composite (X1, X2) holds the
        cell codes and the permutation at their narrowest width."""
        ds = gen_flu(200_000, seed=4)
        tracemalloc.start()
        try:
            res = split_validate(ds, ["X1", "X2"], "Y", seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.n_train + res.n_test == ds.n_records
        assert peak < 20 * ds.n_records, peak

    @pytest.mark.parametrize("stratify", [False, True])
    def test_flu_split_memory_slope(self, stratify):
        """Past 200k records, a 1M-record split adds at most 8 bytes a record:
        the permutation's 4 and the training split's narrow codes.  The test
        records are drawn and tallied in blocks, and every count is blocked
        (13.4 bytes a record when neither was).  A stratified split keeps only
        its concatenated narrow indices (15.7 bytes a record with int64 ones)."""
        peaks = []
        for m in (200_000, 1_000_000):
            ds = gen_flu(m, seed=4)
            tracemalloc.start()
            try:
                split_validate(ds, ["X1", "X2"], "Y", seed=4, stratify=stratify)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 8 * 800_000, peaks

