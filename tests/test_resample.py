"""Stratified bootstrap and the retention-ratio statistic."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from catassoc import (
    DataError,
    Dataset,
    NumericDomainError,
    Variable,
    count_bootstrap,
    gen_flu,
    retention_ratio,
    stratified_bootstrap,
    tau_joint,
)
from catassoc import resample
from catassoc.cli import EXIT_DOMAIN, main
from catassoc.dataset import _cells, _dense

from conftest import count_replicates, random_dataset


class TestStratifiedBootstrap:
    @pytest.mark.parametrize("B", [10**20, 2**62])
    def test_impossible_B_is_out_of_memory(self, B):
        def stat(d):  # B is checked before any work, and before B seeds are spawned
            raise AssertionError("the statistic ran")
        with pytest.raises(MemoryError):
            stratified_bootstrap(random_dataset(np.random.default_rng(0)), "V0", stat, B=B)

    def test_constant_statistic(self):
        ds = random_dataset(np.random.default_rng(0))
        res = stratified_bootstrap(ds, "V0", lambda d: 7.5, B=50, seed=1)
        assert res.ci_low == res.ci_high == res.mean == 7.5

    def test_single_replicate(self):
        ds = random_dataset(np.random.default_rng(1))
        res = stratified_bootstrap(ds, "V0", lambda d: d.n_records * 0.0 +
                                   float(np.mean(d.codes("V1"))), B=1, seed=2)
        assert res.ci_low == res.ci_high == res.replicates[0]

    def test_stratum_sizes_preserved(self):
        ds = random_dataset(np.random.default_rng(2), n_vars=2, m_range=(40, 60))
        base = np.bincount(ds.codes("V0"), minlength=ds.var("V0").size)

        def stat(d):
            counts = np.bincount(d.codes("V0"), minlength=d.var("V0").size)
            assert (counts == base).all()
            return 0.0

        stratified_bootstrap(ds, "V0", stat, B=25, seed=3)

    def test_deterministic_given_seed(self):
        ds = random_dataset(np.random.default_rng(3))
        stat = lambda d: float(np.mean(d.codes("V1") == 0))
        a = stratified_bootstrap(ds, "V0", stat, B=40, seed=9)
        b = stratified_bootstrap(ds, "V0", stat, B=40, seed=9)
        assert (a.replicates == b.replicates).all()
        c = stratified_bootstrap(ds, "V0", stat, B=40, seed=10)
        assert not (a.replicates == c.replicates).all()

    def test_ci_widens_with_level(self):
        ds = random_dataset(np.random.default_rng(4), m_range=(30, 50))
        stat = lambda d: float(np.mean(d.codes("V1")))
        lo = stratified_bootstrap(ds, "V0", stat, B=200, level=0.5, seed=5)
        hi = stratified_bootstrap(ds, "V0", stat, B=200, level=0.99, seed=5)
        assert hi.ci_high - hi.ci_low >= lo.ci_high - lo.ci_low
        assert lo.ci_low <= lo.mean <= lo.ci_high

    def test_replicate_b_draws_from_child_b(self):
        """Child b of ``SeedSequence(seed).spawn(B)``, bitwise, as before the
        children were derived one at a time."""
        ds = random_dataset(np.random.default_rng(6))
        stat = lambda d: float(np.mean(d.codes("V1") == 0) + np.mean(d.codes("V2")))
        strata = [np.flatnonzero(ds.codes("V0") == k) for k in range(ds.var("V0").size)]
        expected = []
        for child in np.random.SeedSequence(11).spawn(30):
            rng = np.random.default_rng(child)
            expected.append(stat(ds.take(np.concatenate(
                [s[rng.integers(0, s.size, s.size)] for s in strata]))))
        res = stratified_bootstrap(ds, "V0", stat, B=30, seed=11)
        assert res.replicates.tolist() == expected

    def test_memory_does_not_hold_a_seed_per_replicate(self):
        """5,000 replicates of a four-record table: the replicates and a sort of
        them, not 5,000 seed sequences (about 1.9 MB before)."""
        ds = Dataset([Variable("S", ("a", "b")), Variable("V", ("u", "v"))],
                     [[0, 0], [1, 1], [0, 1], [1, 0]])
        stratified_bootstrap(ds, "S", lambda d: 0.0, B=2)  # imports done
        tracemalloc.start()
        try:
            stratified_bootstrap(ds, "S", lambda d: 0.0, B=5000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 8 * 5000, peak

    def test_errors(self):
        ds = random_dataset(np.random.default_rng(5))
        with pytest.raises(DataError):
            stratified_bootstrap(ds, "V0", lambda d: 0.0, B=0, seed=0)
        with pytest.raises(DataError):
            stratified_bootstrap(ds, "V0", lambda d: 0.0, B=10, level=1.0, seed=0)


# Replicates with ties (a few values drawn many times), spread over scales
# 1e-5..1e4, sometimes with NaN.  Drawn zeros are +0.0: -0.0 == 0.0, so
# sort and numpy's partition may order mixed zeros either way.
@st.composite
def replicate_arrays(draw):
    scale = 10.0 ** draw(st.integers(-5, 4))
    pool = draw(st.lists(st.floats(-scale, scale).map(lambda x: x + 0.0),
                         min_size=1, max_size=6))
    reps = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=60))
    if draw(st.booleans()) and draw(st.booleans()):
        reps.insert(draw(st.integers(0, len(reps))), float("nan"))
    return np.array(reps)


LEVELS = st.one_of(st.floats(1e-16, 1e-3),
                   st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                   st.floats(1 - 1e-3, 1.0, exclude_max=True), st.just(0.95))


class TestPercentile:
    @given(replicate_arrays(), LEVELS)
    @example(np.array([0.25]), 0.95)
    @example(np.array([-0.0]), 0.5)  # one value: numpy's weight from index -1
    @example(np.array([0.5, 0.25]), 0.95)
    @example(np.array([0.5, 0.25]), 1e-16)
    @example(np.array([0.5, 0.25]), 1 - 2**-53)
    @example(np.array([0.5, np.nan]), 0.5)
    @example(np.array([0.1, 0.1, 0.7, 0.7, 0.7]), 0.5)
    @settings(max_examples=800, deadline=None)
    def test_ends_equal_numpy_quantile_bitwise(self, reps, level):
        res = resample._percentile(0.0, reps, level, 0)
        expected = np.quantile(reps, [(1.0 - level) / 2.0, (1.0 + level) / 2.0])
        ends = np.array([res.ci_low, res.ci_high])
        nan = np.isnan(expected)
        assert (np.isnan(ends) == nan).all()
        assert (ends.view(np.int64)[~nan] == expected.view(np.int64)[~nan]).all()


class TestRetentionRatio:
    def test_subset_equals_fullset(self):
        ds = gen_flu(4000, seed=0)
        full = ["X1", "X2", "R3", "R4", "S5"]
        assert abs(retention_ratio(ds, "Y", full, full) - 1.0) <= 1e-12

    def test_bounded_by_one(self):
        ds = gen_flu(4000, seed=1)
        full = ["X1", "X2", "R3", "R4", "S5"]
        r = retention_ratio(ds, "Y", ["X1", "X2"], full)
        assert r <= 1.0 + 1e-12

    def test_single_variable_ratio_near_table(self):
        # frozen from the population values: 0.2320 / 0.4986
        ds = gen_flu(100_000, seed=2)
        full = ["X1", "X2", "R3", "R4", "S5"]
        r = retention_ratio(ds, "Y", ["X1"], full)
        assert abs(r - 0.4653) <= 0.02

    def test_subset_must_be_contained(self):
        ds = gen_flu(500, seed=3)
        with pytest.raises(DataError):
            retention_ratio(ds, "Y", ["X1", "R3"], ["X1", "X2"])

    def test_zero_fullset_rejected(self):
        from catassoc import Dataset
        rng = np.random.default_rng(6)
        ds = Dataset.from_label_columns({
            "A": [str(v) for v in [0, 1] * 20],
            "Y": [str(v) for v in ([0] * 20 + [1] * 20)],
        })
        # A is exactly balanced within each Y level: zero association
        with pytest.raises(NumericDomainError):
            retention_ratio(ds, "Y", ["A"], ["A"])


FLU_FULL = ["X1", "X2", "R3", "R4", "S5"]


class TestCountBootstrap:
    def test_deterministic_given_seed(self):
        ds = gen_flu(400, seed=11)
        a = count_bootstrap(ds, "Y", FLU_FULL, ["X1"], B=300, seed=4)
        b = count_bootstrap(ds, "Y", FLU_FULL, ["X1"], B=300, seed=4)
        c = count_bootstrap(ds, "Y", FLU_FULL, ["X1"], B=300, seed=5)
        assert a.replicates.tobytes() == b.replicates.tobytes()
        assert (a.point, a.mean, a.ci_low, a.ci_high) == (b.point, b.mean, b.ci_low, b.ci_high)
        assert not (a.replicates == c.replicates).all()

    @pytest.mark.parametrize("chunk", [resample._CHUNK, 200])
    def test_first_replicates_do_not_depend_on_B(self, chunk, monkeypatch):
        # 200 counts a chunk makes a chunk a few replicates of this table.
        monkeypatch.setattr(resample, "_CHUNK", chunk)
        ds = gen_flu(400, seed=12)
        longest = count_bootstrap(ds, "Y", FLU_FULL, ["X1", "X2"], B=5000, seed=6).replicates
        for B in (1, 7, 333, 1500, 4999):
            reps = count_bootstrap(ds, "Y", FLU_FULL, ["X1", "X2"], B=B, seed=6).replicates
            assert reps.tobytes() == longest[:B].tobytes()

    def test_strata_keep_their_sizes_and_draw_independently(self):
        # Both strata hold the same pair counts, so equal streams would give
        # equal draws.
        n_is, s = np.array([3, 3, 5, 5, 1, 1]), np.array([0, 1, 0, 1, 0, 1])
        chunks = list(resample._pair_draws(n_is, s, 2, 3000, seed=2))
        counts = np.concatenate(chunks)
        assert len(chunks) == 1 and counts.shape == (3000, 6)
        assert (counts[:, s == 0].sum(axis=1) == 9).all()
        assert (counts[:, s == 1].sum(axis=1) == 9).all()
        assert (counts[:, s == 0] != counts[:, s == 1]).any(axis=1).mean() > 0.5

    def test_statistic_errors_come_first(self):
        ds = gen_flu(200, seed=13)
        with pytest.raises(DataError, match="subset must be contained"):
            count_bootstrap(ds, "Y", ["X1"], ["X2"], B=0, seed=0)
        with pytest.raises(DataError, match="unknown variable"):
            count_bootstrap(ds, "Y", ["Q"], B=0, seed=0)
        with pytest.raises(DataError, match="B must be at least 1"):
            count_bootstrap(ds, "Y", FLU_FULL, B=0, level=2.0, seed=0)
        with pytest.raises(DataError, match="level must be strictly"):
            count_bootstrap(ds, "Y", FLU_FULL, B=5, level=1.0, seed=0)

    @pytest.mark.parametrize("B", [10**20, 2**62])
    def test_impossible_B_is_out_of_memory(self, B):
        # sizes numpy refuses before it allocates anything
        with pytest.raises(MemoryError):
            count_bootstrap(gen_flu(200, seed=13), "Y", FLU_FULL, B=B, seed=0)

    def test_replicate_with_zero_full_degree_rejected(self):
        # A replicate that misses the one "d" record has a constant X.
        ds = Dataset.from_label_columns({"X": ["c"] * 10 + ["d"],
                                         "Y": ["a", "b"] * 5 + ["a"]})
        with pytest.raises(NumericDomainError, match="full-set association degree is zero"):
            count_bootstrap(ds, "Y", ["X"], ["X"], B=20, seed=1)
        assert count_bootstrap(ds, "Y", ["X"], B=20, seed=1).ci_low == 0.0

    @pytest.mark.parametrize("subset", [None, ["A"]], ids=["tau", "retention"])
    def test_sort_route_replicates_are_their_records_statistics(self, subset):
        # 300 records in nearly distinct (A, B) cells against 40 responses,
        # every one observed: a pair range too wide to count, so it is sorted.
        rng = np.random.default_rng(15)
        ds = Dataset.from_label_columns({
            "A": [f"a{v}" for v in rng.integers(0, 60, 300)],
            "B": [f"b{v}" for v in rng.integers(0, 60, 300)],
            "Y": [f"y{v}" for v in np.concatenate([np.arange(40), rng.integers(0, 40, 260)])]})
        assert not _dense(_cells(ds, ["A", "B"])[2] * 40, ds.n_records)
        res = count_bootstrap(ds, "Y", ["A", "B"], subset, B=40, seed=7)
        if subset is None:
            expected = [tau_joint(d, "Y", ["A", "B"]) for d in
                        count_replicates(ds, "Y", ["A", "B"], 40, 7)]
        else:
            expected = [retention_ratio(d, "Y", subset, ["A", "B"]) for d in
                        count_replicates(ds, "Y", ["A", "B"], 40, 7)]
        assert res.replicates.tolist() == expected

    def test_memory_is_bounded_by_the_chunk(self):
        # 20,000 records in 20,000 full-set cells: one (replicates x pairs)
        # array of all 200 replicates would take 32 MB.
        rng = np.random.default_rng(14)
        m = 20_000
        z, y = rng.integers(0, 5, m), rng.integers(0, 3, m)
        ds = Dataset([Variable("ID", tuple(map(str, range(m)))),
                      Variable("Z", tuple("abcde")), Variable("Y", ("u", "v", "w"))],
                     np.stack([np.arange(m), z, (y + z) % 3], 1))
        tracemalloc.start()
        try:
            res = count_bootstrap(ds, "Y", ["ID", "Z"], ["Z"], B=200, seed=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.replicates.shape == (200,)
        assert peak < 12 * 2**20, peak


# Every table whose one explanatory variable is constant, with two response
# categories and fewer than 60 records.
ONE_CELL = [(n, k) for n in range(2, 60) for k in range(1, n)]


def _one_cell(n, k):
    return Dataset.from_label_columns({"X": ["x"] * n, "Y": ["u"] * (n - k) + ["v"] * k})


class TestOneCellComposite:
    """One observed cell carries no association: tau is exactly 0, not a
    rounding residue of either sign, so a retention over it is undefined."""

    def test_tau_is_exactly_zero_and_retention_undefined(self):
        for n, k in ONE_CELL:
            ds = _one_cell(n, k)
            for scheme in ("gk", "ew", "ipw"):
                assert tau_joint(ds, "Y", ["X"], alpha=scheme) == 0.0, (n, k, scheme)
            with pytest.raises(NumericDomainError, match="degree is zero"):
                retention_ratio(ds, "Y", ["X"], ["X"])

    def test_bootstrap_exit_code(self, tmp_path, capsys):
        path = tmp_path / "one_cell.csv"
        for n, k in ONE_CELL[:171]:  # the tables of fewer than 20 records
            path.write_text("X,Y\n" + "x,u\n" * (n - k) + "x,v\n" * k, encoding="utf-8")
            assert main(["bootstrap", "-i", str(path), "--stat", "retention",
                         "--response", "Y", "--B", "5", "--seed", "1"]) == EXIT_DOMAIN, (n, k)
            assert capsys.readouterr().err == "error: full-set association degree is zero\n"
