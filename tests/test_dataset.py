"""Dataset ingestion, contingency tables, joints, composites."""

import csv
import gc
import io
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from catassoc import (
    AssociationMatrix,
    AssociationVector,
    BootstrapResult,
    ConfusionMatrix,
    ContingencyTable,
    DataError,
    Dataset,
    JointDistribution,
    NumericDomainError,
    Variable,
    WeightedPopulation,
    WeightVector,
    composite,
    contingency,
    ingest_records,
    joint_from_counts,
    read_csv,
    to_joint,
)
from catassoc import dataset as dataset_module
from catassoc.dataset import (_GROUP_CAP, _cells, _count, _dense, _distinct_rows, _pair_counts,
                              _step_pairs, _strata, _unique)
from catassoc.fixtures import loan_dataset

from conftest import coded_datasets, random_dataset


class TestIngest:
    def test_loan_csv_shape(self):
        ds = loan_dataset()
        assert ds.n_records == 650
        assert len(ds.variables) == 5

    def test_single_row(self):
        ds = ingest_records([["A", "B"], ["a", "b"]])
        assert ds.n_records == 1
        assert ds.var("A").domain == ("a",)
        assert ds.var("B").domain == ("b",)

    def test_drop_row_missing(self):
        rows = [["A", "B"], ["a", "b"], ["a", ""], ["c", "d"]]
        ds = ingest_records(rows, missing_policy="drop_row")
        assert ds.n_records == 2

    def test_as_category_missing(self):
        rows = [["A", "B"], ["a", "b"], ["a", ""]]
        ds = ingest_records(rows, missing_policy="as_category")
        assert ds.n_records == 2
        assert "NA" in ds.var("B").domain

    def test_first_occurrence_order(self):
        rows = [["A"], ["z"], ["a"], ["z"], ["m"]]
        ds = ingest_records(rows)
        assert ds.var("A").domain == ("z", "a", "m")

    def test_deterministic(self):
        rows = [["A", "B"], ["x", "u"], ["y", "v"], ["x", "v"]]
        d1 = ingest_records(rows)
        d2 = ingest_records(rows)
        assert d1.names == d2.names
        assert (d1.records == d2.records).all()
        assert all(v1.domain == v2.domain
                   for v1, v2 in zip(d1.variables, d2.variables))

    def test_errors(self):
        with pytest.raises(DataError):
            ingest_records([])
        with pytest.raises(DataError):
            ingest_records([["A", "A"], ["a", "b"]])
        with pytest.raises(DataError):
            ingest_records([["A", "B"], ["a"]])
        with pytest.raises(DataError):
            ingest_records([["A", "B"], ["", ""]], missing_policy="drop_row")

    def test_factorize_leaves_no_reference_cycle(self):
        """The dict that ranks the keys is freed with the result, not left to
        the cycle collector: a dict whose default factory refers to it (such
        as ``index.__len__``) would keep 100k distinct labels' entries."""
        labels = [f"r{i}" for i in range(100_000)]
        enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = dataset_module._factorize(labels)
            del result
            left = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
            if enabled:
                gc.enable()
        assert left < 2**20, left

    def test_read_csv_roundtrip(self):
        text = "A,B\nx,u\ny,v\n"
        ds = read_csv(io.StringIO(text))
        assert ds.n_records == 2
        assert ds.var("A").domain == ("x", "y")

    def test_read_csv_sources(self, tmp_path):
        """A str, bytes or os.PathLike path, and a binary or text stream."""
        path = tmp_path / "x.csv"
        path.write_bytes(b"A,B\nx,y\nz,y\n")
        with open(path, "rb") as binary, open(path, encoding="utf-8") as text:
            outcomes = [_outcome(lambda: read_csv(src)) for src in (
                path, str(path), bytes(path), io.BytesIO(path.read_bytes()),
                io.StringIO(path.read_text()), binary, text)]
        assert outcomes == [(("A", "B"), [("x", "z"), ("y",)], [[0, 0], [1, 0]])] * 7

    @pytest.mark.parametrize("reported", [0, 5, 1000])
    def test_read_csv_path_of_another_reported_size(self, monkeypatch, tmp_path, reported):
        """A pipe reports no size, and a file may grow or shrink while read."""
        path = tmp_path / "x.csv"
        path.write_bytes(b"A,B\nx,y\nz,y\n")
        fstat = dataset_module.os.fstat
        monkeypatch.setattr(dataset_module.os, "fstat", lambda fd: os.stat_result(
            fstat(fd)[:6] + (reported,) + fstat(fd)[7:]))
        expected = (("A", "B"), [("x", "z"), ("y",)], [[0, 0], [1, 0]])
        assert _outcome(lambda: read_csv(path)) == expected

    def test_binary_stream_is_checked_as_utf8(self):
        with pytest.raises(DataError, match="byte 0xff at offset 6"):
            read_csv(io.BytesIO(b"A,B\nx,\xff\n"))

    def test_text_stream_with_lone_surrogates(self):
        """A text stream is taken as it is: lone surrogates (a str decoded with
        "surrogateescape", say) are labels like any other."""
        text = "A,B\r\nx\udcff,y\ud83d\ude00\r\nx,y\r\nx\udcff,y\ud83d\ude00\r\n"
        fast = _outcome(lambda: read_csv(io.StringIO(text)))
        assert fast[1] == [("x\udcff", "x"), ("y\ud83d\ude00", "y")]
        assert (fast, fast) == _reference_outcomes(text, "drop_row")


def _reference_label_columns(columns, domains):
    """Domains and codes of ``from_label_columns`` by ``dict.fromkeys`` and a
    lookup of every label, or the error it gives."""
    result = []
    for name, col in columns.items():
        dom = tuple(domains.get(name, dict.fromkeys(col)))
        missing = [lab for lab in col if lab not in dom]
        if missing:
            return f"label {missing[0]!r} not in pinned domain of {name!r}"
        result.append((dom, [dom.index(lab) for lab in col]))
    return result


@st.composite
def label_columns(draw):
    """One to three label columns of equal length, each pinned or not to a
    domain that may lack observed labels or hold unobserved ones."""
    labels = ["a", "b", "c", "q", "\u00e9", ""]
    m = draw(st.integers(1, 20))
    columns, domains = {}, {}
    for name in ["A", "B", "C"][:draw(st.integers(1, 3))]:
        columns[name] = draw(st.lists(st.sampled_from(labels), min_size=m, max_size=m))
        if draw(st.booleans()):
            domains[name] = draw(st.permutations(labels))[:draw(st.integers(1, len(labels)))]
    return columns, domains


class TestFromLabelColumns:
    @given(label_columns())
    @settings(max_examples=300, deadline=None)
    def test_equals_dict_reference(self, case):
        columns, domains = case
        try:
            ds = Dataset.from_label_columns(columns, domains or None)
        except DataError as e:
            got = str(e)
        else:
            got = [(v.domain, ds.codes(v.name).tolist()) for v in ds.variables]
        assert got == _reference_label_columns(columns, domains)

    def test_names_first_label_missing_from_pinned_domain(self):
        with pytest.raises(DataError, match="^label 'q' not in pinned domain of 'A'$"):
            Dataset.from_label_columns({"A": ["x", "q", "r", "q"]}, domains={"A": ["x"]})

    def test_unequal_lengths(self):
        with pytest.raises(DataError, match="^columns have unequal lengths$"):
            Dataset.from_label_columns({"A": ["x", "y"], "B": ["u"]})


def _loop_ingest(rows, missing_policy):
    """Row-by-row reference for ingestion: every record is checked and
    encoded on its own."""
    it = iter(rows)
    try:
        header = [str(h) for h in next(it)]
    except StopIteration:
        raise DataError("empty input: no header row") from None
    if not header:
        raise DataError("empty header row")
    if len(set(header)) != len(header):
        raise DataError("duplicate variable names in header")
    kept = []
    for lineno, row in enumerate(it, start=2):
        row = [str(c) for c in row]
        if not row:
            continue
        if len(row) != len(header):
            raise DataError(
                f"row {lineno} has {len(row)} cells, expected {len(header)}")
        if "" in row:
            if missing_policy == "drop_row":
                continue
            row = ["NA" if c == "" else c for c in row]
        kept.append(row)
    if not kept:
        raise DataError("no data rows after missing-value handling")
    return Dataset.from_label_columns(
        {h: [row[j] for row in kept] for j, h in enumerate(header)})


def _outcome(ingest):
    """Names, domains and records of a dataset, or the DataError message."""
    try:
        ds = ingest()
    except DataError as e:
        return str(e)
    return ds.names, [v.domain for v in ds.variables], ds.records.tolist()


def _reference_outcomes(text, policy):
    def rows():
        return csv.reader(io.StringIO(text, newline=""))
    return (_outcome(lambda: ingest_records(rows(), policy)),
            _outcome(lambda: _loop_ingest(rows(), policy)))


@st.composite
def csv_texts(draw):
    """CSV texts over a small label alphabet with empty cells, duplicate
    header names, blank lines, ragged rows and mixed line endings; some
    hold quoted fields (with commas and line breaks) or a lone CR.  Cells
    may hold characters that ``str.splitlines`` would break on."""
    cells = ["a", "b", "c", "NA", "x y", "p\u2028q\x1cr", ""]
    # Alone on a line: 7, 8, 9, 16 and 17 bytes; a NUL that zero padding must
    # not drop; 2-, 3- and 4-byte UTF-8 characters across byte 8.
    cells += ["abcdefg", "abcdefgh", "abcdefghi", "abcdefghijklmnop",
              "abcdefghijklmnopq", "a\x00", "abcdefg\u00e9", "abcdef\u20ac",
              "abcde\U0001F600"]
    if draw(st.booleans()):
        cells += ['"a,b"', '"c\nd"', '"e""f"', '"g\r\nh"', '"a"']
    endings = ["\n", "\r\n"] + (["\r"] if draw(st.booleans()) else [])
    n = draw(st.integers(1, 3))
    header = draw(st.lists(st.sampled_from(["A", "B", "C", "D", "E", "a"]),
                           min_size=n, max_size=n))
    widths = [n] * 6 + ([0, n + 1, n - 1] if draw(st.booleans()) else [])
    rows = [header]
    for _ in range(draw(st.integers(1, 16))):
        width = draw(st.sampled_from(widths))
        rows.append(draw(st.lists(st.sampled_from(cells),
                                  min_size=width, max_size=width)))
    text = "".join(",".join(row) + draw(st.sampled_from(endings)) for row in rows)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


def _check_file_and_stream(path: Path, text: str, policy: str = "drop_row"):
    """read_csv of ``text`` written as UTF-8 bytes to ``path``, as the CLI
    reads it, equals both references, and read_csv of ``text`` as a text
    stream gives the same."""
    path.write_bytes(text.encode("utf-8"))
    from_file = _outcome(lambda: read_csv(path, policy))
    from_stream = _outcome(lambda: read_csv(io.StringIO(text), policy))
    assert (from_file, from_file) == _reference_outcomes(text, policy)
    assert from_stream == from_file


class TestReadCsvAgainstCsvReader:
    """read_csv parses each distinct line once; csv.reader over the whole
    text, through ingest_records and through the row loop, is the reference."""

    @given(csv_texts(), st.sampled_from(["drop_row", "as_category"]))
    @settings(max_examples=400, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference(self, tmp_path, text, policy):
        _check_file_and_stream(tmp_path / "t.csv", text, policy)

    @pytest.mark.parametrize("text", ["", "\n", "\r\n", "A,B", "A,B\n",
                                      "A,B\n\n", "\nA,B\nx,y\n", "A,B\r\rx,y",
                                      "A\na\na\x00\n", "A\r\n\r\nabcdefgh\r\n"])
    def test_edge_texts(self, tmp_path, text):
        _check_file_and_stream(tmp_path / "t.csv", text)

    # Records map to distinct rows directly when every distinct row is kept,
    # and through a renumbering of the kept ones when some row is dropped.
    @pytest.mark.parametrize("text,policy,n_records", [
        ("A,B\nx,y\nz,y\nx,y\n", "drop_row", 3),
        ("A,B\nx,y\nz,\nx,y\nw,y\nz,\n", "drop_row", 3),
        ("A,B\nx,y\nz,\nx,y\nw,y\nz,\n", "as_category", 5),
        ("A,B\nx,y\n\nz,y\nx,y\n\nw,y\n", "drop_row", 4),
        ("A,B\n\nx,y\nz,\n\nz,y\nx,y\n", "drop_row", 3)])
    def test_kept_and_dropped_rows(self, tmp_path, text, policy, n_records):
        _check_file_and_stream(tmp_path / "t.csv", text, policy)
        assert read_csv(io.StringIO(text), policy).n_records == n_records

    @pytest.mark.parametrize("policy", ["drop_row", "as_category"])
    def test_repeated_lines_at_scale(self, policy):
        lines = ["x,u,1", "y,u,2", "x,v,", "z,w,3", "y,v,1"]
        picks = np.random.default_rng(5).integers(0, len(lines), 50_000)
        text = "A,B,C\r\n" + "".join(lines[i] + "\r\n" for i in picks)
        ds = read_csv(io.StringIO(text), policy)
        expected = picks.size - (policy == "drop_row") * int((picks == 2).sum())
        assert ds.n_records == expected
        fast = _outcome(lambda: ds)
        assert (fast, fast) == _reference_outcomes(text, policy)


def _spy(monkeypatch, name):
    """Record the arguments and the result of each call of ``dataset.<name>``."""
    calls, real = [], getattr(dataset_module, name)

    def spy(*args):
        calls.append((args, real(*args)))
        return calls[-1][1]
    monkeypatch.setattr(dataset_module, name, spy)
    return calls


class TestLineHashCollisions:
    """read_csv ranks lines by a 64-bit hash and then checks every line
    against the first line of its rank, so a weak hash changes the route,
    never the result.  The hashes are weakened here by patching; each text
    is read from a file and from a text stream."""

    # Lines of one length that differ only in their second word, or only
    # past the words read as columns; lines that differ only by a final NUL;
    # blank lines.  Equal lines are followed by different bytes.
    TEXTS = ["A,B\nabcdefgh,1\nabcdefgh,2\nabcdefgh,1\n",
             "A\n" + "x" * 69 + "1\n" + "x" * 69 + "2\n" + "x" * 69 + "1\n",
             "A\na\na\x00\na\n",
             "A\n\nb\n\nb\n"]

    @staticmethod
    def first_ranks(text):
        """The rank of each data line of ``text`` among the distinct data
        lines in the order they first occur."""
        rank = {}
        return [rank.setdefault(line, len(rank)) for line in text.split("\n")[1:-1]]

    @pytest.mark.parametrize("text", TEXTS)
    def test_equal_lines_share_a_rank(self, monkeypatch, tmp_path, text):
        """The bytes after a line do not enter its hash."""
        ranks = _spy(monkeypatch, "_factorize_lines")
        (tmp_path / "t.csv").write_bytes(text.encode())
        read_csv(tmp_path / "t.csv")
        [(_, (_, inverse))] = ranks
        assert inverse.tolist() == self.first_ranks(text)

    @pytest.mark.parametrize("text", TEXTS)
    def test_shared_slots_are_ranked_by_sorting(self, monkeypatch, tmp_path, text):
        """Low bits all zero: every line falls in one slot, so the hashes
        that the slot does not hold are ranked by sorting."""
        real = dataset_module._line_hashes
        monkeypatch.setattr(dataset_module, "_line_hashes", lambda *a: real(*a) << 32)
        ranks, checks = _spy(monkeypatch, "_factorize_lines"), _spy(monkeypatch, "_same_lines")
        _check_file_and_stream(tmp_path / "t.csv", text)
        assert [inverse.tolist() for _, (_, inverse) in ranks] == [self.first_ranks(text)] * 2
        assert [same for _, same in checks] == [True, True]

    @pytest.mark.parametrize("text", TEXTS)
    def test_colliding_hashes_fall_back_to_the_lines(self, monkeypatch, tmp_path, text):
        """Every line hashes to 0: the check finds distinct lines of one hash,
        and the whole text is parsed by csv.reader instead, through
        ingest_records, once for the file and once for the stream."""
        real = dataset_module._line_hashes
        monkeypatch.setattr(dataset_module, "_line_hashes", lambda *a: real(*a) * 0)
        checks, ingests = _spy(monkeypatch, "_same_lines"), _spy(monkeypatch, "ingest_records")
        _check_file_and_stream(tmp_path / "t.csv", text)
        assert [same for _, same in checks] == [False, False]
        assert len(ingests) == 2


    def test_lines_that_differ_in_two_words_hash_apart(self):
        """Two lines of a flu table with an ID column that differ in two
        words: their terms must not cancel in the sum, or a file holding
        both is parsed whole by csv.reader."""
        a, b = b"r869706,1,1,0,1,0,0", b"r869709,1,1,0,0,0,0"
        buf = bytearray(a + b"\n" + b + b"\n" + bytes(dataset_module._PAD))
        view = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))
        h = dataset_module._line_hashes(view, np.array([0, len(a) + 1]),
                                        np.array([len(a), len(b)]))
        assert h[0] != h[1]


def _colliding_lengths(length):
    """``_line_hashes`` with every line of ``length`` bytes hashed to 7: two
    distinct lines of that length share a hash."""
    real = dataset_module._line_hashes

    def hashes(view, starts, lengths):
        h = real(view, starts, lengths)
        h[lengths == length] = 7
        return h
    return hashes


class TestBlockEnds:
    """read_csv takes the lines in blocks of ``_BLOCK`` lines, searching
    ``_WINDOW`` bytes for line ends at a time.  Both are patched down here so
    that block ends fall between the lines of small texts: what happens on
    either side of one must not change the result or the row an error names."""

    @given(csv_texts(), st.sampled_from(["drop_row", "as_category"]),
           st.integers(1, 4), st.sampled_from([1, 3, 8, 2**20]), st.booleans())
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_small_blocks_match_reference(self, tmp_path, text, policy, block, window, collide):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_module, "_BLOCK", block)
            mp.setattr(dataset_module, "_WINDOW", window)
            if collide:  # e.g. "a" and "b", or "c,b" and "a,a"
                mp.setattr(dataset_module, "_line_hashes", _colliding_lengths(len("c,b")))
            _check_file_and_stream(tmp_path / "t.csv", text, policy)

    # Ten data lines of five bytes; the event takes data line ``at`` (and the
    # line before it, for a pair).  With blocks of 4 lines, data lines 3 and
    # 4 end and start a block; a 1-byte window makes every line a block.
    EVENTS = {
        "first occurrence": ["zz,ww"],
        "missing cell": ["xx,"],
        "ragged row": ["xx,yy,zz"],
        "two ragged rows": ["x,y,z", "xx"],
        "hash collision": ["a,1", "b,2"],
        "hash collision, then a ragged row": ["a,1", "b,2", "xx,yy,zz"],
    }

    @pytest.mark.parametrize("block,window", [(4, 2**20), (2**16, 1), (3, 13)])
    @pytest.mark.parametrize("at", [3, 4, 5])
    @pytest.mark.parametrize("event", sorted(EVENTS))
    @pytest.mark.parametrize("policy", ["drop_row", "as_category"])
    def test_events_around_a_block_end(self, monkeypatch, tmp_path, block, window, at,
                                       event, policy):
        lines = ["xx,yy", "xx,vv"] * 5
        pair = self.EVENTS[event]
        lines[at - len(pair) + 1:at + 1] = pair
        collision = event.startswith("hash collision")
        if not collision:
            lines[at + 2] = pair[0]  # and once more, two lines on
        text = "A,B\n" + "\n".join(lines) + "\n"
        monkeypatch.setattr(dataset_module, "_BLOCK", block)
        monkeypatch.setattr(dataset_module, "_WINDOW", window)
        if collision:
            monkeypatch.setattr(dataset_module, "_line_hashes", _colliding_lengths(3))
        checks = _spy(monkeypatch, "_same_lines")
        _check_file_and_stream(tmp_path / "t.csv", text, policy)
        outcome = _outcome(lambda: read_csv(io.StringIO(text), policy))
        row = {"ragged row": at + 2, "two ragged rows": at + 1,
               "hash collision, then a ragged row": at + 2}.get(event)  # header: row 1
        if row:
            assert outcome == f"row {row} has 3 cells, expected 2"
        if collision:
            assert False in [same for _, same in checks]  # caught, then parsed by csv.reader

    @pytest.mark.parametrize("n_distinct, block, window", [(300, 64, 2**20), (70_000, 1000, 4096)])
    def test_distinct_lines_past_a_rank_width(self, monkeypatch, tmp_path, n_distinct, block,
                                              window):
        """More distinct lines than 256 or 65,536, met a few at a time: each
        block's ranks are stored at the width of the running count of
        distinct lines, which outgrows uint8 or uint16 between blocks.  The
        checks are watched, so the text is seen to stay off the csv.reader
        route, whose result is the same."""
        rng = np.random.default_rng(n_distinct)
        ids = np.concatenate([np.arange(n_distinct), rng.integers(0, n_distinct, n_distinct // 4)])
        rng.shuffle(ids)
        text = "ID,V\n" + "".join(f"r{i},{i % 7}\n" for i in ids.tolist())
        monkeypatch.setattr(dataset_module, "_BLOCK", block)
        monkeypatch.setattr(dataset_module, "_WINDOW", window)
        checks = _spy(monkeypatch, "_same_lines")
        _check_file_and_stream(tmp_path / "t.csv", text)
        assert checks and all(same for _, same in checks)
        assert read_csv(io.StringIO(text)).var("ID").size == n_distinct

    def test_read_csv_memory_follows_bytes_and_codes(self, tmp_path):
        """200k lines of a flu-like table: besides the file's bytes and the
        codes, only one block's temporaries (about a hundred bytes a line)."""
        rng = np.random.default_rng(11)
        codes = np.column_stack([rng.integers(0, 3, 200_000), rng.integers(0, 2, (200_000, 5))])
        path = tmp_path / "flu.csv"
        path.write_text("Y,X1,X2,R3,R4,S5\n" + "".join(",".join(map(str, r)) + "\n"
                                                      for r in codes.tolist()))
        tracemalloc.start()
        try:
            ds = read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(ds.labels(nm).tolist() == list(map(str, codes[:, j]))
                   for j, nm in enumerate(ds.names))
        bound = path.stat().st_size + 2 * ds.records.nbytes + 100 * dataset_module._BLOCK
        assert peak < bound, (peak, bound)


class TestContingency:
    def test_loan_ontime_risk_counts(self):
        ds = loan_dataset()
        ct = contingency(ds, "On-Time", "Risk")
        assert ct.counts.tolist() == [[11, 2, 52], [306, 24, 255]]
        assert ct.total == 650

    def test_single_record(self):
        ds = ingest_records([["A", "B"], ["a", "b"]])
        ct = contingency(ds, "A", "B")
        assert ct.counts.sum() == 1
        assert (ct.counts == 1).sum() == 1

    def test_total_equals_record_count(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            ds = random_dataset(rng)
            ct = contingency(ds, "V0", "V1")
            assert ct.total == ds.n_records

    def test_overlap_rejected(self):
        ds = loan_dataset()
        with pytest.raises(DataError):
            contingency(ds, ["Age", "Risk"], "Risk")


class TestToJoint:
    def test_loan_risk_marginal(self):
        ds = loan_dataset()
        j = to_joint(contingency(ds, "On-Time", "Risk"))
        assert np.allclose(j.p_y, [0.4877, 0.0400, 0.4723], atol=5e-5)

    def test_uniform_2x2(self):
        from catassoc import ContingencyTable
        ct = ContingencyTable("A", "B", ("a", "b"), ("u", "v"),
                              np.array([[1, 1], [1, 1]]))
        j = to_joint(ct)
        assert np.allclose(j.p_xy, 0.25)

    def test_sums_and_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            ds = random_dataset(rng)
            j = to_joint(contingency(ds, "V0", "V1"))
            assert abs(j.p_xy.sum() - 1.0) <= 1e-12
            assert np.allclose(j.p_x, j.p_xy.sum(axis=1), atol=1e-12)
            assert np.allclose(j.p_y, j.p_xy.sum(axis=0), atol=1e-12)

    def test_empty_rejected(self):
        from catassoc import ContingencyTable
        ct = ContingencyTable("A", "B", ("a",), ("u",), np.array([[0]]))
        with pytest.raises(NumericDomainError):
            to_joint(ct)


_AB = (Variable("A", ("a", "b")), Variable("B", ("u", "v")))


class TestValueTypes:
    # (build from an array, the stored array) for each immutable value type;
    # every input below has a dtype other than the stored one.
    @pytest.mark.parametrize("build, stored, given", [
        (lambda a: Dataset(_AB, a), lambda v: v.records, np.array([[0, 1], [1, 0]], np.int32)),
        (lambda a: ContingencyTable("A", "B", ("a", "b"), ("u", "v"), a),
         lambda v: v.counts, np.array([[1, 2], [3, 4]], np.int32)),
        (lambda a: JointDistribution(a, ("a", "b"), ("u", "v")),
         lambda v: v.p_xy, np.full((2, 2), 0.25, np.float32)),
        (lambda a: AssociationMatrix(a, ("u", "v")), lambda v: v.gamma,
         np.array([[1, 0], [0, 1]])),
        (lambda a: AssociationVector(a, ("u", "v")), lambda v: v.theta, np.array([1, 0])),
        (lambda a: WeightVector(a, False), lambda v: v.alpha, np.array([1, 0])),
        (lambda a: ConfusionMatrix(a, ("u", "v")), lambda v: v.counts,
         np.array([[1, 2], [3, 4]], np.int32)),
        (lambda a: BootstrapResult(0.5, a, 0.0, 1.0, 0.5, 0.95, 0), lambda v: v.replicates,
         np.array([0, 1], np.int32)),
    ], ids=["Dataset", "ContingencyTable", "JointDistribution", "AssociationMatrix",
            "AssociationVector", "WeightVector", "ConfusionMatrix", "BootstrapResult"])
    def test_stores_a_read_only_copy_of_another_dtype(self, build, stored, given):
        arr = stored(build(given))
        assert not arr.flags.writeable
        assert given.flags.writeable and not np.shares_memory(arr, given)
        assert (arr == given).all()

    def test_out_of_range_codes_name_the_first_bad_column(self):
        # columns 2 and 3 are out of range, one above and one below
        variables = (Variable("C", ("c",)),) + _AB
        with pytest.raises(DataError, match="out of range for 'A'"):
            Dataset(variables, [[0, 2, -1]])

    @pytest.mark.parametrize("build, given", [
        (lambda a: Dataset(_AB, a), np.asfortranarray([[0, 1], [1, -1]])),
        (lambda a: Dataset(_AB, a), np.asfortranarray([[0, 1], [2, 0]], np.uint8)),
        (lambda a: Dataset(_AB, a), np.array([[0, 1], [2, 0]], np.uint8)),
        (lambda a: ContingencyTable("A", "B", ("a", "b"), ("u", "v"), a),
         np.array([[1, 2], [-3, 4]])),
        (lambda a: JointDistribution(a, ("a", "b"), ("u", "v")),
         np.array([[0.5, 0.5], [0.5, -0.5]])),
    ], ids=["Dataset-int64", "Dataset-stored-dtype", "Dataset-stored-dtype-row-major",
            "ContingencyTable", "JointDistribution"])
    def test_rejected_input_stays_writeable(self, build, given):
        # an accepted input of the stored dtype and layout is frozen in place
        with pytest.raises(DataError):
            build(given)
        assert given.flags.writeable


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestCountsAndProbabilities:
    """Counts are finite and nonnegative, and whole where stored as integers;
    probabilities also sum to 1.  A refused value raises no RuntimeWarning first."""

    @pytest.mark.parametrize("counts, message", [
        ([[_NAN, 1], [1, 1]], "counts must be finite"),
        ([[_INF, 1], [1, 1]], "counts must be finite"),
        ([[-1, 1], [1, 1]], "negative counts"),
    ])
    def test_joint_from_counts(self, counts, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            joint_from_counts(counts)

    def test_joint_from_zero_sum_counts(self):
        with pytest.raises(NumericDomainError, match="counts sum to zero"):
            joint_from_counts([[-1, 1], [0, 0]])

    @pytest.mark.parametrize("p, message", [
        ([[_NAN, 0.5], [0.25, 0.25]], "probabilities must be finite"),
        ([[_INF, 0.5], [0.25, 0.25]], "probabilities must be finite"),
        ([[0.5, 0.5], [0.5, -0.5]], "negative probabilities"),
        ([[0.5, 0.5], [0.5, 0.5]], "joint probabilities do not sum to 1"),
    ])
    def test_joint_distribution(self, p, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            JointDistribution(p, ("a", "b"), ("u", "v"))

    @pytest.mark.parametrize("counts, message", [
        ([[2.5, 1], [1, 3.7]], "counts must be whole numbers"),
        ([[_NAN, 1], [1, 3]], "counts must be finite"),
        ([[_INF, 1], [1, 3]], "counts must be finite"),
        ([[-2.5, 1], [1, 3]], "negative counts"),
        ([[-2, 1], [1, 3]], "negative counts"),
    ])
    def test_contingency_table(self, counts, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            ContingencyTable("A", "B", ("a", "b"), ("u", "v"), counts)

    def test_contingency_table_takes_whole_floats(self):
        ct = ContingencyTable("A", "B", ("a", "b"), ("u", "v"), [[2.0, 1.0], [1.0, 3.0]])
        assert ct.counts.dtype == np.int64 and ct.counts.tolist() == [[2, 1], [1, 3]]

    @pytest.mark.parametrize("probs, message", [
        ((-0.5, 1.0, 0.5), "negative probabilities"),
        ((_NAN, 0.5, 0.5), "probabilities must be finite"),
        ((0.5, 0.5, 0.5), "population probabilities do not sum to 1"),
    ])
    def test_weighted_population(self, probs, message):
        with pytest.raises(DataError, match=f"^{message}$"):
            WeightedPopulation((Variable("X", ("a", "b")),), np.array([[0], [1], [1]]), probs)


class TestCodeDtype:
    """Codes are stored in the narrowest unsigned dtype that holds every
    code below the largest domain size."""

    @pytest.mark.parametrize("size, dtype", [
        (2, np.uint8), (256, np.uint8), (257, np.uint16), (65536, np.uint16),
        (65537, np.uint32)])
    def test_boundaries(self, size, dtype):
        variables = [Variable("S", ("a", "b")), Variable("W", tuple(map(str, range(size))))]
        ds = Dataset(variables, np.array([[0, 0], [1, size - 1]]))
        assert ds.records.dtype == dtype
        assert ds.records.flags.f_contiguous and not ds.records.flags.writeable
        assert ds.codes("W").tolist() == [0, size - 1]
        sub = ds.take([1, 1, 0])
        assert sub.records.dtype == dtype and sub.codes("W").tolist() == [size - 1] * 2 + [0]

    def test_stored_dtype_and_layout_is_not_copied(self):
        given = np.asfortranarray([[0, 1], [1, 0]], dtype=np.uint8)
        ds = Dataset(_AB, given)
        assert np.shares_memory(ds.records, given)

    @pytest.mark.parametrize("step", [1, 2])
    def test_row_major_stored_dtype_laid_out_column_major(self, step):
        # 10,000 rows, contiguous or every other one: copied in blocks of
        # rows, the last one partial, and range-checked after the copy
        given = np.random.default_rng(5).integers(0, 2, (10_000 * step, 2), np.uint8)[::step]
        ds = Dataset(_AB, given)
        assert ds.records.flags.f_contiguous and not np.shares_memory(ds.records, given)
        assert np.array_equal(ds.records, given)
        given[-1, 1] = 2
        with pytest.raises(DataError, match="out of range for 'B'"):
            Dataset(_AB, given)
        assert given.flags.writeable

    def test_negative_code_does_not_wrap(self):
        # -1 as uint8 is 255, in range for 256 categories
        variables = [Variable("W", tuple(map(str, range(256))))]
        with pytest.raises(DataError, match="out of range for 'W'"):
            Dataset(variables, np.array([[0], [-1]]))

    @pytest.mark.parametrize("codes", [np.array([[0.7], [1.9]]), np.array([[0.0], [1.0]]),
                                       np.array([[True], [False]])])
    def test_non_integer_codes_rejected(self, codes):
        with pytest.raises(DataError, match="record codes must be integers"):
            Dataset([Variable("A", ("a", "b"))], codes)

    def test_ingest_stores_narrow_codes(self):
        rows = [["A", "W"]] + [["a", str(i)] for i in range(300)]
        ds = ingest_records(rows)
        assert ds.records.dtype == np.uint16 and ds.records.flags.f_contiguous
        assert ds.codes("W").tolist() == list(range(300))
        assert ingest_records(rows[:10]).records.dtype == np.uint8


class TestComposite:
    def test_self_composite_size(self):
        ds = loan_dataset()
        assert composite(ds, ["Age"]).size == ds.var("Age").size

    def test_two_coins_all_pairs(self):
        ds = Dataset.from_label_columns({
            "A": ["0", "0", "1", "1"],
            "B": ["0", "1", "0", "1"],
        })
        assert composite(ds, ["A", "B"]).size == 4

    def test_loan_age_income_observed_pairs(self):
        # frozen by enumerating distinct (Age, Income) pairs in the fixture
        ds = loan_dataset()
        comp = composite(ds, ["Age", "Income"])
        expected = len({tuple(rec) for rec in
                        zip(ds.labels("Age"), ds.labels("Income"))})
        assert comp.size == expected == 7
        assert comp.size <= 9

    def test_monotone_domain_growth(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            ds = random_dataset(rng, n_vars=3)
            a = composite(ds, ["V0"]).size
            b = composite(ds, ["V1"]).size
            ab = composite(ds, ["V0", "V1"]).size
            assert ab >= max(a, b)
            assert ab <= a * b

    def test_unknown_variable(self):
        ds = loan_dataset()
        with pytest.raises(DataError):
            composite(ds, ["Age", "Nope"])

    def test_bare_name_is_one_part(self):
        ds = loan_dataset()
        comp = composite(ds, "Age")
        assert comp.parts == ("Age",)
        assert comp.domain == composite(ds, ["Age"]).domain
        assert comp.codes.tolist() == ds.codes("Age").tolist()

    @pytest.mark.parametrize("spec", ["Age", ["Age"], ["Age", "Income"], ("Income", "Age")])
    def test_cells_are_composite_without_labels(self, spec):
        ds = loan_dataset()
        comp = composite(ds, spec)
        for x in (spec, comp):
            parts, codes, size = _cells(ds, x)
            assert (parts, size) == (comp.parts, comp.size)
            assert codes.tolist() == comp.codes.tolist()


class TestStrata:
    @given(st.lists(st.integers(0, 5), min_size=1, max_size=300), st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_ascending_indices_of_each_code(self, codes, extra):
        codes = np.array(codes, np.uint8)
        n = int(codes.max()) + 1 + extra
        strata = _strata(codes, n)
        assert len(strata) == n
        for k, members in enumerate(strata):
            assert members.dtype == (np.uint8 if codes.size <= 256 else np.uint16)
            assert members.tolist() == np.flatnonzero(codes == k).tolist()


class TestCompositeAgainstUnique:
    """composite ranks folded integer keys by counting; np.unique over the
    stacked code rows is the reference for domain order and codes."""

    @given(coded_datasets(), st.randoms(use_true_random=False))
    @settings(max_examples=300, deadline=None)
    def test_matches_unique_rows(self, ds, rnd):
        names = rnd.sample(list(ds.names), rnd.randint(1, len(ds.names)))
        comp = composite(ds, names)
        cols = np.stack([ds.codes(nm) for nm in names], axis=1)
        rows, inverse = np.unique(cols, axis=0, return_inverse=True)
        domain = tuple(tuple(ds.var(nm).domain[c] for nm, c in zip(names, row))
                       for row in rows.tolist())
        assert comp.domain == domain
        assert comp.codes.tolist() == inverse.ravel().tolist()

    def test_records_are_column_major(self):
        records = np.ascontiguousarray(np.arange(12).reshape(6, 2) % 3)
        ds = Dataset([Variable("A", ("0", "1", "2")), Variable("B", ("0", "1", "2"))],
                     records)
        assert ds.codes("A").flags.c_contiguous
        assert ds.records.tolist() == records.tolist()


class TestTake:
    """take skips the range check of a new Dataset: a row subset of checked
    records cannot break it.  Everything else must be what the constructor
    gives the same rows."""

    @given(coded_datasets(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_constructor(self, ds, data):
        idx = np.array(data.draw(st.lists(st.integers(0, ds.n_records - 1),
                                          min_size=1, max_size=60)))
        got, ref = ds.take(idx), Dataset(ds.variables, ds.records[idx])
        assert got.records.dtype == ref.records.dtype == ds.records.dtype
        assert got.records.flags.f_contiguous and not got.records.flags.writeable
        assert got.records.tolist() == ref.records.tolist()
        assert got.variables == ref.variables and got.names == ref.names
        assert [got.position(nm) for nm in got.names] == list(range(len(got.names)))
        assert all((got.codes(nm) == ref.codes(nm)).all() for nm in got.names)

    def test_mask_and_empty_subsets(self):
        ds = Dataset(_AB, [[0, 1], [1, 0], [1, 1]])
        assert ds.take(np.array([True, False, True])).records.tolist() == [[0, 1], [1, 1]]
        for empty in ([], np.zeros(3, bool)):
            with pytest.raises(DataError, match="record subset is empty"):
                ds.take(empty)

    @pytest.mark.parametrize("bad", [np.ones(2, bool), np.ones(4, bool),
                                     np.ones((3, 2), bool), [[0, 1]]])
    def test_malformed_subsets_rejected(self, bad):
        ds = Dataset(_AB, [[0, 1], [1, 0], [1, 1]])
        with pytest.raises(DataError, match="record"):
            ds.take(bad)

    def test_subset_written_once(self):
        # Fancy indexing of column-major records gives a C-order copy, and
        # storing it column-major a second one.
        rng = np.random.default_rng(3)
        ds = Dataset([Variable(f"V{j}", tuple(map(str, range(200)))) for j in range(6)],
                     np.asfortranarray(rng.integers(0, 200, (200_000, 6), dtype=np.uint8)))
        idx = rng.integers(0, ds.n_records, 100_000)
        tracemalloc.start()
        try:
            sub = ds.take(idx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sub.records.tolist() == ds.records[idx].tolist()
        assert peak < 1.5 * sub.records.nbytes, peak


class TestCount:
    """Every count over the records is taken in blocks: ``_count`` equals one
    ``np.bincount``, bitwise and in dtype, for keys of each width, with and
    without integer weights, on either side of a block end."""

    @given(st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]),
           st.integers(1, 8), st.integers(0, 5), st.integers(-1, 1), st.integers(1, 20),
           st.booleans(), st.integers(0, 2**32 - 1))
    @settings(max_examples=400, deadline=None)
    def test_equals_bincount(self, dtype, block, multiple, offset, n, weighted, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, n, max(block * multiple + offset, 0)).astype(dtype)
        # integer weights up to 2^40: their float sums stay exact, so no block order rounds
        weights = rng.integers(1, 2**40, keys.size) if weighted else None
        want = np.bincount(keys, weights, minlength=n)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataset_module, "_BLOCK", block)
            got = _count(keys, n, weights)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_memory_is_a_block(self):
        """``np.bincount`` of 1M uint8 keys makes an 8 MB intp copy of them."""
        keys = np.random.default_rng(3).integers(0, 12, 1_000_000).astype(np.uint8)
        tracemalloc.start()
        try:
            counts = _count(keys, 12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts.tolist() == np.bincount(keys, minlength=12).tolist()
        assert peak < 2**20, peak

    @given(st.sampled_from([np.uint8, np.uint16, np.uint32, np.int64]),
           st.lists(st.integers(0, 255), max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_unique_ranks_equal_numpys(self, dtype, values):
        keys = np.array(values, dtype=dtype)
        got, want = _unique(keys), np.unique(keys, return_inverse=True)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
        assert [a.dtype for a in got] == [a.dtype for a in want]


class TestPairCountsAgainstUnique:
    """The pair counter behind every score: np.unique over the stacked
    (key, response) rows is the reference for the order and counts of the
    observed pairs, also when the product of the two ranges passes int64."""

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 6)), min_size=1,
                    max_size=80),
           st.sampled_from([(61, 7), (61, 2**30), (2**40, 7), (2**40, 2**30)]),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_matches_unique_rows(self, rows, ranges, with_y):
        n_keys, n_y = ranges if with_y else (ranges[0], 1)
        # spread the small draws over the whole range, keeping their order
        keys = np.array([k for k, _ in rows], dtype=np.int64) * ((n_keys - 1) // 60)
        y = np.array([v for _, v in rows], dtype=np.int64) * ((n_y - 1) // 6)
        n_is, n_i, s = _pair_counts(keys, n_keys, y if with_y else None, n_y)
        pairs, counts = np.unique(np.stack([keys, y if with_y else 0 * y], 1), axis=0,
                                  return_counts=True)
        cells, cell_counts = np.unique(keys, return_counts=True)
        assert n_is.tolist() == counts.tolist()
        assert s.tolist() == pairs[:, 1].tolist()
        assert n_i.dtype == np.int64
        assert n_i.tolist() == cell_counts[np.searchsorted(cells, pairs[:, 0])].tolist()


class TestWeightedPairCounts:
    """A record of weight w counts as w records: the weighted count of a
    few keys equals the count of the keys repeated by their weights."""

    @given(st.lists(st.tuples(st.integers(0, 60), st.integers(0, 6), st.integers(1, 5)),
                    min_size=1, max_size=80),
           st.sampled_from([(61, 7), (61, 2**30), (2**40, 7), (2**40, 2**30)]),
           st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_repeated_records(self, rows, ranges, with_y):
        n_keys, n_y = ranges if with_y else (ranges[0], 1)
        keys = np.array([k for k, _, _ in rows], dtype=np.int64) * ((n_keys - 1) // 60)
        y = np.array([v for _, v, _ in rows], dtype=np.int64) * ((n_y - 1) // 6)
        w = np.array([c for _, _, c in rows], dtype=np.int64)
        # Counted over the observed cells, a response range of 2^30 is
        # still too wide, so those pairs are sorted; all others are counted.
        assert _dense(np.unique(keys).size * n_y, keys.size) == (n_y < 2**30)
        got = _pair_counts(keys, n_keys, y if with_y else None, n_y, weights=w)
        ref = _pair_counts(np.repeat(keys, w), n_keys,
                           np.repeat(y, w) if with_y else None, n_y)
        assert [a.tolist() for a in got] == [a.tolist() for a in ref]
        assert got[0].dtype == got[1].dtype == np.int64


class TestWeightedStepPairs:
    """A forward step's counts with weights equal its counts of the keys
    repeated by their weights, on each branch: a group of small candidates
    counted at once, a candidate counted alone past the group cap, and a
    candidate too wide to count, sorted."""

    # (chosen cells, candidate sizes, branch of the first candidate)
    CASES = [(10, (2, 3, 4, 5), "group"), (250, (300, 2), "alone"),
             (100, (10**6,), "sorted")]

    @given(st.integers(0, 2**32 - 1), st.sampled_from(CASES), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_equals_repeated_records(self, seed, case, with_y):
        n_keys, sizes, branch = case
        rng = np.random.default_rng(seed)
        m, n_y = 60_000, 3 if with_y else 1
        keys = rng.integers(0, n_keys, m)
        y = rng.integers(0, n_y, m).astype(np.uint8) if with_y else None
        parts = [(rng.integers(0, s, m).astype(np.min_scalar_type(s - 1)), s) for s in sizes]
        w = rng.integers(1, 5, m)
        n = n_keys * n_y * sizes[0]
        assert _dense(n, m) == (branch != "sorted") and (n > _GROUP_CAP) == (branch != "group")
        got = list(_step_pairs(keys, n_keys, y, n_y, parts, weights=w))
        ref = list(_step_pairs(np.repeat(keys, w), n_keys,
                               None if y is None else np.repeat(y, w), n_y,
                               [(np.repeat(x, w), s) for x, s in parts]))
        assert len(got) == len(sizes)
        for g, r in zip(got, ref, strict=True):
            assert [a.tolist() for a in g] == [a.tolist() for a in r]
            assert g[0].dtype == g[1].dtype == np.int64


class TestDistinctRows:
    """A dataset is collapsed to its distinct rows once, and only when they
    are at most half its records."""

    def test_folded_once_and_kept(self, monkeypatch):
        ds = Dataset(_AB, [[1, 0], [0, 1], [1, 0], [0, 1], [1, 0]])
        rows, w = _distinct_rows(ds)
        assert rows.records.tolist() == [[0, 1], [1, 0]] and w.tolist() == [2, 3]
        assert not w.flags.writeable and not rows.records.flags.writeable

        def no_fold(*args):
            raise AssertionError("folded again")

        monkeypatch.setattr(dataset_module, "_fold", no_fold)
        again = _distinct_rows(ds)
        assert again[0] is rows and again[1] is w

    def test_take_child_folds_its_own(self):
        ds = Dataset(_AB, [[1, 0], [0, 1], [1, 0], [1, 0], [0, 1], [1, 1]])
        assert _distinct_rows(ds)[1].tolist() == [2, 3, 1]
        child = ds.take(np.array([0, 2, 3, 1]))
        rows, w = _distinct_rows(child)
        assert rows.records.tolist() == [[0, 1], [1, 0]] and w.tolist() == [1, 3]
        assert _distinct_rows(ds)[0].n_records == 3

    def test_fold_ends_at_a_prefix_over_half(self):
        # A is re-ranked before B joins it, and already has more observed
        # keys than half the records; doubled, the records fold to the end
        m, rng = 3000, np.random.default_rng(4)
        ds = Dataset([Variable("A", tuple(map(str, range(m)))), Variable("B", tuple("01234"))],
                     np.column_stack([rng.permutation(m), rng.integers(0, 5, m)]))
        assert dataset_module._fold(ds, ds.names, most=m // 2) is None
        assert _distinct_rows(ds) == (ds, None)
        rows, w = _distinct_rows(ds.take(np.repeat(np.arange(m), 2)))
        assert rows.n_records == m and w.tolist() == [2] * m

    @pytest.mark.parametrize("m, distinct", [(10, 5), (10, 6), (11, 5), (11, 6), (1, 1),
                                             (2, 1), (3, 2)])
    def test_weights_only_at_most_half_distinct(self, m, distinct):
        codes = np.arange(m) % distinct
        ds = Dataset([Variable("A", tuple(map(str, range(distinct))))], codes[:, None])
        rows, w = _distinct_rows(ds)
        if 2 * distinct > m:
            assert rows is ds and w is None
        else:
            assert rows.records.ravel().tolist() == list(range(distinct))
            assert w.tolist() == np.bincount(codes).tolist()
