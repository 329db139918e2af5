"""Datasets held counts-first: a CSV's distinct code rows, their counts and a
row rank per record, against the same records held as records."""

import io
import pickle

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from catassoc import (
    Dataset,
    Variable,
    ingest_records,
    minimal_basis,
    read_csv,
    select_basis,
    structural_basis,
    tau_joint,
    verify_basis,
)
from catassoc import cli
from catassoc import dataset as dataset_module
from catassoc.dataset import _distinct_rows
from catassoc.predict import split_validate
from catassoc.resample import count_bootstrap

from conftest import coded_datasets, outcome
from test_dataset import csv_texts


def _results(make):
    """Pickles of every public score on ``make()``, the last column the
    response, or of the error each call raises; then of its records and of
    a subset it takes, with that subset's ``select_basis`` trace.  Each
    call has a dataset of its own ``make()``, so no fold of one is seen by
    the next.  The counts come before anything that expands the records of a
    dataset held counts-first, and whether they expanded it is returned too."""
    ds = make()
    names = list(ds.names)
    y, xs = names[-1], names[:-1]
    calls = [lambda d, a=a, e=e: select_basis(d, y, alpha=a, eps_gain=e)
             for a in ("gk", "ew", "ipw") for e in (0.0, 1e-9)]
    calls += [lambda d, x=x: tau_joint(d, y, x) for x in [[nm] for nm in xs] + [xs]]
    calls += [lambda d, e=e: structural_basis(d, eps=e) for e in (0.0, 1e-12)]
    calls += [lambda d, e=e: verify_basis(d, structural_basis(d).basis, eps=e)
              for e in (0.0, 1e-9)]
    calls += [lambda d, e=e: minimal_basis(d, eps=e) for e in (0.0, 1e-12)]
    calls += [lambda d, s=s, b=b: split_validate(d, xs[:1] or names, y, seed=s, stratify=b)
              for s in (1, 2) for b in (False, True)]
    out = [pickle.dumps(outcome(lambda: call(make()))) for call in calls]
    expanded = ds._records is not None
    out += [pickle.dumps(outcome(lambda s=s: count_bootstrap(make(), y, xs, s, B=12, seed=3)))
            for s in (None, xs[:1])]
    sub = ds.take(np.arange(ds.n_records)[::-2])  # a child counts its own records
    out += [pickle.dumps((ds.records, sub.records, sub.n_records,
                          outcome(lambda: select_basis(sub, y, eps_gain=0.0)),
                          [(ds.codes(nm), ds.labels(nm)) for nm in names]))]
    return expanded, out


def _check_counts_first(read):
    """A dataset that ``read()`` gives, against the same records in a
    ``Dataset``: held counts-first exactly when its distinct rows are at most
    half its records, never expanded by a count, and equal in every result;
    which of the three it is."""
    ds = outcome(read)
    if isinstance(ds, tuple):  # refused input: nothing to compare
        return "refused"
    records = read().records
    n_rows = len(np.unique(records, axis=0))
    assert (ds._ranks is not None) == (2 * n_rows <= ds.n_records)
    expanded, got = _results(lambda: ds)
    assert not (expanded and ds._ranks is not None)
    assert got == _results(lambda: Dataset(ds.variables, records))[1]
    if ds._ranks is not None:
        rows, w = _distinct_rows(ds)
        assert rows.n_records == n_rows and int(w.sum()) == ds.n_records
        assert rows.records.tolist() == np.unique(records, axis=0).tolist()
        return "counts-first"
    return "records"


@st.composite
def repeated_csv_texts(draw):
    """:func:`coded_datasets` as CSV text, each record one to four times in a
    drawn order; one label of one column may be written as a blank cell in
    some records and as ``NA`` in the others."""
    ds = draw(coded_datasets())
    reps = draw(st.lists(st.integers(1, 4), min_size=ds.n_records, max_size=ds.n_records))
    order = draw(st.permutations(range(sum(reps))))
    rows = np.repeat(np.arange(ds.n_records), reps)[order]
    cols = [ds.labels(nm)[rows] for nm in ds.names]
    if draw(st.booleans()):
        col = cols[draw(st.integers(0, len(cols) - 1))]
        hits = np.flatnonzero(col == col[0])
        blank = draw(st.lists(st.booleans(), min_size=hits.size, max_size=hits.size))
        col[hits] = np.where(blank, "", "NA")
    return ",".join(ds.names) + "\n" + "".join(",".join(r) + "\n" for r in zip(*cols))


def _losing_slots(mp):
    """Every line hash in one slot and blocks of three lines: a line seen in
    an earlier block whose slot another hash took is ranked again, so equal
    lines get a second index."""
    real = dataset_module._line_hashes
    mp.setattr(dataset_module, "_line_hashes", lambda *a: real(*a) << 32)
    mp.setattr(dataset_module, "_BLOCK", 3)


class TestCountsFirstEqualsRecords:
    @given(repeated_csv_texts(), st.sampled_from(["drop_row", "as_category"]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_repeated_coded_records(self, text, policy, slot_loss):
        with pytest.MonkeyPatch.context() as mp:
            if slot_loss:
                _losing_slots(mp)
            event(_check_counts_first(lambda: read_csv(io.StringIO(text), policy)))

    @given(csv_texts(), st.integers(1, 4), st.sampled_from(["drop_row", "as_category"]),
           st.booleans())
    @settings(max_examples=200, deadline=None)  # most texts are refused
    def test_repeated_csv_texts(self, text, k, policy, slot_loss):
        head, _, body = (text if text.endswith("\n") else text + "\n").partition("\n")
        text = head + "\n" + body * k
        with pytest.MonkeyPatch.context() as mp:
            if slot_loss:
                _losing_slots(mp)
            event(_check_counts_first(lambda: read_csv(io.StringIO(text), policy)))

    @pytest.mark.parametrize("policy", ["drop_row", "as_category"])
    def test_ingest_records(self, policy):
        rows = [["A", "B", "Y"]] + [["a", "", "u"], ["a", "NA", "u"], ["b", "c", "v"]] * 5
        assert _check_counts_first(lambda: ingest_records(rows, policy)) == "counts-first"


class TestRows:
    def test_blank_cell_and_na_give_one_row(self):
        text = "A,B\n" + "x,\nx,NA\ny,NA\nx,\n" * 3
        ds = read_csv(io.StringIO(text), "as_category")
        rows, w = _distinct_rows(ds)
        assert rows.records.tolist() == [[0, 0], [1, 0]] and w.tolist() == [9, 3]
        assert ds.codes("B").tolist() == [0] * 12 and ds.var("B").domain == ("NA",)

    def test_lines_of_a_lost_slot_give_one_row(self, monkeypatch):
        """Equal lines ranked twice are one row, counted once per record."""
        lines = ["a,u", "b,v", "c,u", "a,u", "b,v", "c,u", "a,u"]
        text = "A,B\n" + "\n".join(lines) + "\n"
        _losing_slots(monkeypatch)
        n_lines, real = [], dataset_module._factorize_lines

        def factorize_lines(*args):
            distinct, inverse = real(*args)
            n_lines.append(len(distinct))
            return distinct, inverse
        monkeypatch.setattr(dataset_module, "_factorize_lines", factorize_lines)
        ds = read_csv(io.StringIO(text))
        assert n_lines[0] > 3  # some line was ranked twice
        rows, w = _distinct_rows(ds)
        assert rows.records.tolist() == [[0, 0], [1, 1], [2, 0]] and w.tolist() == [3, 2, 2]
        assert ds.labels("A").tolist() == [line[0] for line in lines]

    @pytest.mark.parametrize("m, distinct", [(10, 5), (10, 6), (11, 5), (11, 6), (1, 1), (2, 1)])
    def test_counts_first_at_most_half_distinct(self, m, distinct):
        ds = read_csv(io.StringIO("A\n" + "".join(f"a{i % distinct}\n" for i in range(m))))
        assert (ds._records is None) == (2 * distinct <= m)
        assert ds.n_records == m

    def test_more_than_half_distinct_keeps_its_records(self, monkeypatch):
        """Records gathered as before, and known to have no rows to count:
        no fold when a basis command asks for them."""
        text = "ID,V\n" + "".join(f"r{i},{i % 3}\n" for i in range(30)) + "r1,1\nr2,2\n"
        ds = read_csv(io.StringIO(text))
        assert ds._ranks is None and ds.records.shape == (32, 2)
        assert ds.records.flags.f_contiguous and not ds.records.flags.writeable

        def no_fold(*args, **kwargs):
            raise AssertionError("folded")

        monkeypatch.setattr(dataset_module, "_fold", no_fold)
        assert _distinct_rows(ds) == (ds, None)

    def test_records_expand_once(self):
        ds = read_csv(io.StringIO("A,B\n" + "x,u\ny,v\nx,v\n" * 4))
        assert ds._records is None and ds.n_records == 12
        records = ds.records
        assert ds.records is records and not records.flags.writeable
        assert records.flags.f_contiguous and records.dtype == np.uint8
        assert records.tolist() == [[0, 0], [1, 1], [0, 1]] * 4

    def test_a_folded_records_dataset_counts_as_before(self):
        """A basis command folds a ``Dataset`` of records to its rows; the
        searches and splits that follow count those, with the same results."""
        records = np.random.default_rng(5).integers(0, 3, (300, 3))
        variables = [Variable(nm, ("0", "1", "2")) for nm in ("A", "B", "Y")]
        ds = Dataset(variables, records)
        structural_basis(ds)
        assert _distinct_rows(ds)[0].n_records == 27
        for run in [lambda d: select_basis(d, "Y", alpha="ipw", eps_gain=0.0),
                    lambda d: tau_joint(d, "Y", ["A", "B"])] + [
                lambda d, b=b: split_validate(d, ["A"], "Y", seed=2, stratify=b)
                for b in (False, True)]:
            assert pickle.dumps(run(ds)) == pickle.dumps(run(Dataset(variables, records)))

    def test_a_records_dataset_is_not_folded_by_select(self, monkeypatch):
        """A search or split counts a ``Dataset`` of records as it is: on a
        wide table the fold can cost as much as the search."""
        ds = Dataset([Variable("A", ("a", "b")), Variable("Y", ("u", "v"))], [[0, 0], [1, 1]] * 4)
        calls = []
        real = dataset_module._rows
        monkeypatch.setattr(dataset_module, "_rows", lambda *a: calls.append(a) or real(*a))
        select_basis(ds, "Y")
        tau_joint(ds, "Y", ["A"])
        split_validate(ds, ["A"], "Y", seed=1)
        assert calls == [] and ds._distinct is None


def test_counting_commands_never_expand_records(monkeypatch, tmp_path, capsys):
    """The CLI commands count over the rows read_csv holds, and read each
    record's cell and response by its row rank; so do ``tau`` and ``basis``."""
    rng = np.random.default_rng(3)
    codes = rng.integers(0, 3, (2000, 4))
    path = tmp_path / "t.csv"
    path.write_text("A,B,C,Y\n" + "".join(",".join(map(str, r)) + "\n" for r in codes.tolist()))
    read = []
    monkeypatch.setattr(cli, "read_csv", lambda *a, **k: read.append(
        dataset_module.read_csv(*a, **k)) or read[-1])
    assert cli.main(["select", "-i", str(path), "--response", "Y"]) == cli.EXIT_OK
    assert cli.main(["validate", "-i", str(path), "--x", "A,B", "--y", "Y", "--seed", "4"]) \
        == cli.EXIT_OK
    for argv in (["tau", "--x", "A,B", "--y", "Y", "--weights", "ipw"], ["basis"],
                 ["basis", "--minimal"]):
        assert cli.main(argv + ["-i", str(path)]) == cli.EXIT_OK
    capsys.readouterr()
    assert len(read) == 5 and all(ds._ranks is not None and ds._records is None for ds in read)
