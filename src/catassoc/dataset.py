"""Record-level categorical data and its derived tables.

A :class:`Dataset` stores records of category labels over named variables,
encoded as dense integer codes.  From it one builds composite variables
(observed joint values of several columns), contingency tables, and
plug-in joint distributions.  Association matrices, vectors and
prediction consume the tables and joints produced here; the scores of
selection and bases count observed (cell, value) pairs instead.

All estimation is plug-in: probabilities are empirical frequencies, with
no smoothing.  Categories never observed in the data do not exist as far
as this module is concerned; domains list observed labels only, in first
occurrence order, which makes every derived matrix reproducible from the
input bytes alone.
"""

from __future__ import annotations

import csv
import io
import os
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import compress, count, repeat
from operator import contains, itemgetter
from typing import Iterable, Iterator, Sequence, Union

import numpy as np

from .errors import PROB_ATOL, DataError, NumericDomainError, _check_counts, _check_probs

MISSING = ""
MISSING_LABEL = "NA"


@dataclass(frozen=True)
class Variable:
    """A named categorical variable with an ordered domain of labels.

    The dense index of a category is its position in ``domain``.
    """

    name: str
    domain: tuple[str, ...]

    def __post_init__(self):
        if not self.domain:
            raise DataError(f"variable {self.name!r} has an empty domain")
        if len(set(self.domain)) != len(self.domain):
            raise DataError(f"variable {self.name!r} has duplicate categories")

    @property
    def size(self) -> int:
        return len(self.domain)


@dataclass(frozen=True)
class CompositeVariable:
    """The joint value of several source variables, over observed tuples only.

    ``domain`` lists the label tuples that occur in at least one record;
    ``codes`` gives each record's dense index into that domain.  Keeping
    only observed tuples bounds the domain by the record count, no matter
    how many parts the composite has.
    """

    parts: tuple[str, ...]
    domain: tuple[tuple[str, ...], ...]
    codes: np.ndarray = field(repr=False, compare=False)

    @property
    def name(self) -> str:
        return "(" + ",".join(self.parts) + ")"

    @property
    def size(self) -> int:
        return len(self.domain)


def _frozen(a, dtype, order: str = "K") -> np.ndarray:
    """Read-only ``a`` of ``dtype`` in ``order``, for value types to store once
    checked.  An input already of that dtype and layout is frozen in place, not
    copied, so check it before freezing: a rejected input stays writeable."""
    a = np.asarray(a, dtype=dtype, order=order)
    a.setflags(write=False)
    return a


def _code_dtype(sizes: Iterable[int]) -> np.dtype:
    """Narrowest dtype holding every code below the largest of ``sizes``: uint8 up to
    256, uint16 up to 65,536, uint32 up to 2^32, then int64 (bincount takes no uint64)."""
    top = max(sizes, default=1) - 1
    return np.min_scalar_type(top) if top < 2**32 else np.dtype(np.int64)


class Dataset:
    """Immutable table of categorical records.

    Parameters
    ----------
    variables : sequence of Variable
        Column definitions; order fixes the column order of ``records``.
    records : ndarray of shape (m, n)
        Dense integer category codes; ``records[i, j]`` indexes into
        ``variables[j].domain``.  Stored column-major, so each variable's
        code column is contiguous, in the narrowest unsigned dtype that
        holds codes below the largest domain size (uint8 up to 256
        categories, uint16 up to 65,536, uint32 above).  An input already
        of that dtype and layout is stored without a copy.  Numpy wraps
        ``uint8 * int`` around: widen the codes before arithmetic.
    """

    def __init__(self, variables: Sequence[Variable], records: np.ndarray):
        variables = tuple(variables)
        records = np.asarray(records)
        if records.ndim != 2 or records.shape[1] != len(variables):
            raise DataError("records shape does not match variable count")
        if records.shape[0] < 1:
            raise DataError("dataset needs at least one record")
        names = [v.name for v in variables]
        if len(set(names)) != len(names):
            raise DataError("duplicate variable names")
        if records.dtype.kind not in "iu":
            raise DataError(f"record codes must be integers, not {records.dtype}")
        sizes = [v.size for v in variables]
        dtype = _code_dtype(sizes)
        if records.dtype == dtype and not records.flags.f_contiguous:
            # Laid out as stored first (columns reduce fast), in cache-sized row blocks
            stored = np.empty(records.shape, dtype, order="F")
            for i in range(0, records.shape[0], 4096):
                stored[i:i + 4096] = records[i:i + 4096]
            records = stored
        # Checked at the input's own dtype: narrowed first, -1 would pass as 255.
        bad = records.max(axis=0) >= sizes
        if records.dtype.kind == "i":
            bad |= records.min(axis=0) < 0
        bad = np.flatnonzero(bad)
        if bad.size:
            raise DataError(f"record codes out of range for {names[bad[0]]!r}")
        self._variables = variables
        self._records = _frozen(records, dtype, order="F")
        self._index = {v.name: j for j, v in enumerate(variables)}
        self._distinct = None  # see _distinct_rows

    @property
    def variables(self) -> tuple[Variable, ...]:
        return self._variables

    @property
    def records(self) -> np.ndarray:
        return self._records

    @property
    def n_records(self) -> int:
        return self._records.shape[0]

    @property
    def names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self._variables)

    def var(self, name: str) -> Variable:
        return self._variables[self.position(name)]

    def position(self, name: str) -> int:
        """Column index of a variable, used for index tie-breaks."""
        if name not in self._index:
            raise DataError(f"unknown variable {name!r}")
        return self._index[name]

    def codes(self, name: str) -> np.ndarray:
        """Dense code column for one variable, in the stored dtype of ``records``."""
        return self._records[:, self.position(name)]

    def labels(self, name: str) -> np.ndarray:
        """Label column for one variable (decoded)."""
        v = self.var(name)
        return np.asarray(v.domain, dtype=object)[self.codes(name)]

    def take(self, indices: np.ndarray) -> "Dataset":
        """New dataset from a record subset (indices or a boolean mask),
        written once, column by column; domains and the code dtype are kept.
        Codes of checked records stay in range, so they are not re-checked."""
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (self.n_records,):
                raise DataError("record mask does not match the records")
            indices = np.flatnonzero(indices)
        if indices.ndim != 1 or indices.size == 0:
            raise DataError("record subset is empty or not one-dimensional")
        records = np.empty((indices.size, len(self._variables)), self._records.dtype, "F")
        for j in range(records.shape[1]):
            np.take(self._records[:, j], indices, out=records[:, j])
        records.setflags(write=False)
        sub = object.__new__(Dataset)
        sub._variables, sub._records, sub._index = self._variables, records, self._index
        sub._distinct = None
        return sub

    @classmethod
    def from_label_columns(cls, columns: dict[str, Sequence[str]],
                           domains: dict[str, Sequence[str]] | None = None) -> "Dataset":
        """Build a dataset from label columns.

        Domains default to first-occurrence order of the observed labels;
        pass ``domains`` to pin an explicit ordering.  Each column is factorized
        (:func:`_factorize`) and only its distinct labels are looked up in a domain.
        """
        if not columns:
            raise DataError("no columns given")
        variables = []
        code_cols = []
        m = None
        for name, col in columns.items():
            labels, codes = _factorize(list(col))
            if m is None:
                m = codes.size
            elif codes.size != m:
                raise DataError("columns have unequal lengths")
            dom = tuple(domains[name]) if domains and name in domains else tuple(labels)
            lut = {lab: i for i, lab in enumerate(dom)}
            try:  # labels are in first-occurrence order: the first missing one is named
                code_cols.append(np.array([lut[lab] for lab in labels], np.int64)[codes])
            except KeyError as e:
                raise DataError(f"label {e.args[0]!r} not in pinned domain of {name!r}") from None
            variables.append(Variable(name, dom))
        # The transpose of a C-order array is column-major, as stored.
        return cls(variables, np.array(code_cols, _code_dtype(v.size for v in variables)).T)

    def __repr__(self):
        return f"Dataset({self.n_records} records, variables={list(self.names)})"


@dataclass(frozen=True)
class ContingencyTable:
    """Cross-classification counts of an explanatory variable against a response.

    ``x_domain`` entries are labels for a plain variable or label tuples
    for a composite; rows of ``counts`` follow ``x_domain`` and columns
    follow ``y_domain``.
    """

    x_name: str
    y_name: str
    x_domain: tuple
    y_domain: tuple[str, ...]
    counts: np.ndarray

    def __post_init__(self):
        counts = _check_counts(self.counts, dtype=np.int64)
        object.__setattr__(self, "counts", _frozen(counts, np.int64))

    @property
    def total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class JointDistribution:
    """Plug-in joint distribution of (X, Y), marginals summed on each access.

    Invariants (checked on construction): all entries finite and nonnegative,
    and total mass 1 within ``PROB_ATOL``.
    """

    p_xy: np.ndarray
    x_domain: tuple
    y_domain: tuple[str, ...]

    def __post_init__(self):
        p = np.asarray(self.p_xy, dtype=np.float64)
        if p.ndim != 2:
            raise DataError("p_xy must be a matrix")
        object.__setattr__(self, "p_xy", _frozen(_check_probs(p, "joint"), np.float64))

    @property
    def p_x(self) -> np.ndarray:
        return self.p_xy.sum(axis=1)

    @property
    def p_y(self) -> np.ndarray:
        return self.p_xy.sum(axis=0)


def _factorize(keys: Sequence) -> tuple[list, np.ndarray]:
    """Distinct keys in first-occurrence order and the index of each key into them."""
    # Not ``index.__len__``: a dict whose default factory refers to it is a
    # reference cycle, kept alive with all its keys until the collector runs.
    index = defaultdict(count().__next__)
    codes = np.fromiter(map(index.__getitem__, keys), np.int64, len(keys))
    return list(index), codes


def _dataset(header: Sequence[str] | None, rows: list[Sequence[str]],
             inverse: np.ndarray, missing_policy: str) -> Dataset:
    """Validate factorized rows and expand them to a dataset.

    ``rows`` holds the distinct data rows in first-occurrence order; the
    list is emptied, so the rows are freed once encoded.  ``inverse`` maps
    each data row of the input to its distinct row.  As the distinct rows
    first occur in their order, the first offending one names the first
    offending row in an error (the header is row 1).
    """
    if missing_policy not in ("drop_row", "as_category"):
        raise DataError(f"unknown missing_policy {missing_policy!r}")
    if header is None:
        raise DataError("empty input: no header row")
    if not header:
        raise DataError("empty header row")
    if len(set(header)) != len(header):
        raise DataError("duplicate variable names in header")

    n = len(header)
    lengths = np.fromiter(map(len, rows), dtype=np.int64, count=len(rows))
    ragged = np.flatnonzero((lengths != n) & (lengths != 0))
    if ragged.size:
        k = ragged[0]
        row = int(np.argmax(inverse == k)) + 2
        raise DataError(f"row {row} has {lengths[k]} cells, expected {n}")
    keep = lengths == n  # blank rows have no cells and are skipped
    missing = np.fromiter(map(contains, rows, repeat(MISSING)),
                          dtype=bool, count=len(rows)) & keep
    if missing_policy == "drop_row":
        keep &= ~missing
    else:
        for k in np.flatnonzero(missing):
            rows[k] = [MISSING_LABEL if c == MISSING else c for c in rows[k]]
    n_kept = int(np.count_nonzero(keep))
    if not n_kept:
        raise DataError("no data rows after missing-value handling")

    # Distinct rows are in first-occurrence order, so labels met scanning
    # them are in first-occurrence order over the records as well.
    kept = list(compress(rows, keep.tolist()))
    rows.clear()
    variables, columns = [], []
    for j, name in enumerate(header):
        domain, codes = _factorize(list(map(itemgetter(j), kept)))
        variables.append(Variable(name, tuple(domain)))
        columns.append(codes.astype(_code_dtype([len(domain)])))
    del kept
    # Written once, column-major and at the width Dataset stores, so the
    # constructor keeps this array rather than copying it.
    record_rows = inverse
    if n_kept < keep.size:  # renumber the kept rows, drop the others' records
        record_rows = (np.cumsum(keep) - 1)[inverse[keep[inverse]]]
    records = np.empty((record_rows.size, n), _code_dtype(v.size for v in variables), "F")
    for j, codes in enumerate(columns):
        records[:, j] = codes[record_rows]
    return Dataset(variables, records)


def ingest_records(rows: Iterable[Sequence[str]],
                   missing_policy: str = "drop_row") -> Dataset:
    """Build a dataset from a header row followed by label rows.

    Cells equal to the empty string are missing.  ``missing_policy`` is
    either ``"drop_row"`` (discard records with any missing cell) or
    ``"as_category"`` (recode missing cells as the label ``"NA"``).
    Domains are the distinct observed labels per column in first
    occurrence order, so ingestion is deterministic.  Rows without cells
    are skipped.
    """
    it = iter(rows)
    header = next(it, None)
    if header is not None:
        header = [str(h) for h in header]
    distinct, inverse = _factorize([tuple(map(str, row)) for row in it])
    return _dataset(header, distinct, inverse, missing_policy)


def _decode(data, errors: str = "strict") -> str:
    """UTF-8 text of the bytes-like ``data``."""
    try:
        return str(data, "utf-8", errors)
    except UnicodeDecodeError as e:
        raise DataError(
            f"input is not valid UTF-8: byte 0x{data[e.start]:02x} at offset {e.start}"
        ) from None


#: Words of a line read as columns, one word of every line at a time; the
#: further words of a longer line are read as one flat run (:func:`_tail`).
_WIDE = 8
#: Zero bytes kept after the input by :func:`read_csv`, so that each word of
#: a column is read inside the buffer, also past the last line's end.
_PAD = 8 * _WIDE
#: Lines found, hashed, ranked and checked at a time by :func:`read_csv`, so
#: that besides the buffer only a narrow rank per line grows with the input;
#: also the fewest keys :func:`_count` counts at a time.
_BLOCK = 2**16
#: Bytes searched for line ends at a time (:func:`_line_blocks`).
_WINDOW = 2**20
#: ``_MASKS[r]`` keeps the first ``r`` bytes of a little-endian word, and
#: ``_COLUMN_MASKS[k][c]`` those of word ``k`` of a line of ``c`` bytes.
_MASKS = np.array([(1 << 8 * r) - 1 for r in range(9)], dtype=np.uint64)
_COLUMN_MASKS = _MASKS[np.clip(np.arange(_PAD + 1) - 8 * np.arange(_WIDE)[:, None], 0, 8)]
#: Most slots of the table of distinct line hashes that :func:`_factorize_lines`
#: looks each line up in (:func:`_slot_table`, 4 MB).
_SLOTS = 2**18


def _read_bytes(source) -> tuple[bytearray, int, str]:
    """The bytes of ``source``, followed by :data:`_PAD` zero bytes, their
    count, and the error handler that decodes them back.  A path is read
    straight into the buffer.  Text read from a stream is encoded with
    ``"surrogatepass"``, so decoding gives back the same ``str``, lone
    surrogates included."""
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            buf = bytearray(size + _PAD)
            n = f.readinto(memoryview(buf)[:size])
            rest = f.read()  # a file that grew, or a pipe, which reports no size
        if rest:
            buf[n:n] = rest
        return buf, n + len(rest), "strict"
    data, errors = source.read(), "strict"
    if isinstance(data, str):
        data, errors = data.encode("utf-8", "surrogatepass"), "surrogatepass"
    buf = bytearray(len(data) + _PAD)
    buf[:len(data)] = data
    return buf, len(data), errors


def _line_blocks(buf: bytearray, lo: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Start and length in bytes of each line of ``buf[lo:n]``, in blocks of
    at most :data:`_BLOCK` lines: the lines that ``str.split("\\n")`` gives
    once CRLF is LF, where a CR before an LF is not part of the line and a
    final newline ends the last line.  Line ends are searched
    :data:`_WINDOW` bytes at a time; the zero bytes past ``n`` hold none."""
    arr = np.frombuffer(buf, np.uint8)
    cr = b"\r" in buf
    for w in range(lo, n, _WINDOW):
        ends = np.flatnonzero(arr[w:w + _WINDOW] == 10) + w
        for i in range(0, ends.size, _BLOCK):
            e = ends[i:i + _BLOCK]
            starts = np.concatenate(([lo], e[:-1] + 1))
            lengths = e - starts - (arr[e - 1] == 13) if cr else e - starts
            lo = int(e[-1]) + 1
            yield starts, lengths
    if lo < n:
        yield np.array([lo]), np.array([n - lo])


def _column(view: np.ndarray, starts: np.ndarray, capped: np.ndarray,
            k: int) -> np.ndarray:
    """Word ``k`` of the lines at ``starts``, bytes past a line's end zeroed;
    ``capped`` is each line's length, at most :data:`_PAD`, and ``view[i]``
    is the little-endian word at byte ``i``."""
    words = view[starts + 8 * k]
    words &= _COLUMN_MASKS[k][capped]
    return words


def _columns(lengths: np.ndarray) -> range:
    """The word columns of lines of ``lengths`` bytes."""
    return range(min((int(lengths.max(initial=0)) + 7) >> 3, _WIDE))


def _tail(view: np.ndarray, starts: np.ndarray, lengths: np.ndarray):
    """The words of the lines past their first :data:`_WIDE`, as one flat
    run, bytes past a line's end zeroed; the lines that have such words,
    where each one's words begin in the run, and each word's index in its
    line.  The run grows with the lines' bytes."""
    rows = np.flatnonzero(lengths > _PAD)
    lengths = lengths[rows]
    nw = ((lengths + 7) >> 3) - _WIDE
    seg = np.cumsum(nw) - nw
    k = np.arange(_WIDE, _WIDE + nw.sum()) - np.repeat(seg, nw)
    words = view[np.repeat(starts[rows], nw) + 8 * k]
    words &= _MASKS[np.minimum(np.repeat(lengths, nw) - 8 * k, 8)]
    return words, rows, seg, k


def _term(words: np.ndarray, k) -> np.ndarray:
    """What words ``k`` (an index, or one per word) add to their lines'
    hashes, in place.  A zero word adds 0, so the columns past a line's end
    add nothing."""
    words *= (np.asarray(k, np.uint64).reshape(-1) << 1 | 1) * 0x9E3779B97F4A7C15
    words ^= words >> 30  # two rounds, as SplitMix64: with one, high bytes could cancel
    words *= 0xBF58476D1CE4E5B9
    words ^= words >> 27
    return words


def _line_hashes(view: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """A 64-bit hash of each line's bytes and length."""
    capped = np.minimum(lengths, _PAD)
    h = np.zeros(starts.size, np.uint64)
    for k in _columns(lengths):
        h += _term(_column(view, starts, capped, k), k)
    words, rows, seg, k = _tail(view, starts, lengths)
    if rows.size:
        h[rows] += np.add.reduceat(_term(words, k), seg)
    h ^= lengths.view(np.uint64)
    h ^= h >> 33  # MurmurHash3's 64-bit finalizer, so the low bits are mixed
    h *= 0xFF51AFD7ED558CCD
    h ^= h >> 33
    h *= 0xC4CEB9FE1A85EC53
    h ^= h >> 33
    return h


def _same_lines(view: np.ndarray, starts: np.ndarray, lengths: np.ndarray,
                f_starts: np.ndarray, f_lengths: np.ndarray) -> bool:
    """Whether each line equals the line of ``f_lengths`` bytes at ``f_starts``."""
    if not np.array_equal(lengths, f_lengths):
        return False
    capped = np.minimum(lengths, _PAD)
    if not all(np.array_equal(_column(view, starts, capped, k), _column(view, f_starts, capped, k))
               for k in _columns(lengths)):
        return False
    words, rows, _, _ = _tail(view, starts, lengths)
    return not rows.size or np.array_equal(words, _tail(view, f_starts[rows], lengths[rows])[0])


def _slot_table(hashes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``hashes`` by their low bits, in at least four slots each up to :data:`_SLOTS`:
    each slot's hash (``~slot`` if empty: no hash of the slot ends in it) and
    index.  Of two hashes that share a slot, the later one is kept."""
    n_slots = 1 << min(_SLOTS.bit_length() - 1, (4 * hashes.size + 1024).bit_length())
    slot_hash, slot_index = ~np.arange(n_slots, dtype=np.uint64), np.zeros(n_slots, np.int64)
    slot = (hashes & (n_slots - 1)).view(np.int64)
    slot_hash[slot], slot_index[slot] = hashes, np.arange(hashes.size)
    return slot_hash, slot_index


def _factorize_lines(buf: bytearray, lo: int, n: int, errors: str
                     ) -> tuple[list[tuple], np.ndarray] | None:
    """The distinct lines of ``buf[lo:n]`` parsed as rows, in first-occurrence
    order, and the index of each line into them, as :func:`_factorize` and
    :func:`csv.reader` give them; None if a line differs from the first line
    of its hash.

    The lines are taken in blocks, in input order.  A line whose hash is in
    the slot table of the distinct hashes takes its index; the others are
    ranked by sorting their hashes, in the order of each hash's first line,
    and that line is parsed at once.  Every line is checked to equal the
    first line of its index.  A hash that lost its slot gives equal lines a
    second index: same records."""
    view = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))
    f_starts = f_lengths = np.empty(0, np.int64)
    f_hashes = np.empty(0, np.uint64)
    slot_hash, slot_index = _slot_table(f_hashes)
    rows, inverse = [], [np.empty(0, np.uint8)]
    for starts, lengths in _line_blocks(buf, lo, n):
        h = _line_hashes(view, starts, lengths)
        slot = (h & (slot_hash.size - 1)).view(np.int64)
        index, new = slot_index[slot], np.flatnonzero(slot_hash[slot] != h)
        if new.size:
            _, firsts, codes = np.unique(h[new], return_index=True, return_inverse=True)
            order = np.argsort(firsts)
            rank = np.empty_like(order)
            rank[order] = np.arange(order.size) + f_starts.size
            index[new] = rank[codes]
            new = new[firsts[order]]
            f_starts = np.concatenate((f_starts, starts[new]))
            f_lengths = np.concatenate((f_lengths, lengths[new]))
            f_hashes = np.concatenate((f_hashes, h[new]))
            if slot_hash.size < min(4 * f_hashes.size + 1024, _SLOTS):  # at least doubles
                slot_hash, slot_index = _slot_table(f_hashes)
            else:
                slot_hash[slot[new]], slot_index[slot[new]] = h[new], index[new]
            rows += map(tuple, csv.reader(_lines(buf, starts, lengths, new, errors)))
        if new.size < starts.size and not _same_lines(view, starts, lengths,
                                                      f_starts[index], f_lengths[index]):
            return None
        inverse.append(index.astype(_code_dtype([f_starts.size])))
    return rows, np.concatenate(inverse)


def _lines(buf: bytearray, starts: np.ndarray, lengths: np.ndarray,
           rows: np.ndarray, errors: str) -> list[str]:
    """The text of lines ``rows`` of a block of consecutive lines of ``buf``,
    which start at ``starts`` and are ``lengths`` bytes long.  Up to half of
    the lines are decoded one by one; more, by decoding the block once and
    splitting it, as that makes a million lines in ~0.15 s where one by one
    takes ~0.4 s (2-core Xeon VM)."""
    if 2 * rows.size <= starts.size:
        return [buf[s:s + k].decode("utf-8", errors)
                for s, k in zip(starts[rows].tolist(), lengths[rows].tolist())]
    text = _decode(memoryview(buf)[starts[0]:starts[-1] + lengths[-1]], errors)
    lines = (text.replace("\r\n", "\n") if "\r" in text else text).split("\n")
    return [lines[i] for i in rows.tolist()]


def read_csv(source: Union[str, os.PathLike, io.IOBase],
             missing_policy: str = "drop_row") -> Dataset:
    """Ingest a UTF-8 CSV file: first row is the header, all cells are
    opaque category labels, empty cells are missing.

    ``source`` is a path, a binary stream or a text stream.  The input is
    read as bytes.  Its lines are found, hashed and ranked against the
    distinct lines seen so far in blocks of :data:`_BLOCK`, in input order;
    each line is checked to equal the first line of its rank, and each
    distinct line is decoded and parsed once, in the block where it first
    occurs.  So the cost of ingest grows with the input's bytes and the
    number of distinct lines, not with one Python string per record, and
    besides the bytes only a narrow rank per record outlives its block.  An
    input holding a quote character (a quoted field may span lines), a lone
    carriage return (a line break to the csv module) or two distinct lines
    that share a hash is parsed whole by :func:`csv.reader` instead.  Either
    way the result equals ``ingest_records(csv.reader(f))`` over the file
    opened with ``newline=""``.  Bytes that are not UTF-8 and fields the csv
    module rejects raise :class:`DataError`; a text stream is taken as it is.
    """
    buf, n, errors = _read_bytes(source)
    if errors == "strict" and not buf.isascii():
        _decode(memoryview(buf)[:n])  # raises at the first byte that is not UTF-8
    try:
        if b'"' not in buf and (b"\r" not in buf or buf.count(b"\r") == buf.count(b"\r\n")):
            # Every record is one line.  Parse the header and each distinct line once.
            end = buf.find(b"\n", 0, n) % (n + 1)  # n if no line ends
            head = _decode(memoryview(buf)[:end - (buf[end - 1] == 13)], errors)
            header = next(csv.reader([head]), None) if n else None
            ranked = _factorize_lines(buf, end + 1, n, errors)
            if ranked is not None:  # else two distinct lines share a hash
                del buf
                return _dataset(header, *ranked, missing_policy)
        text = _decode(memoryview(buf)[:n], errors)
        del buf
        return ingest_records(csv.reader(io.StringIO(text, newline="")), missing_policy)
    except csv.Error as e:
        raise DataError(f"malformed CSV: {e}") from None


def _dense(n_keys: int, n_records: int) -> bool:
    """Whether keys in ``range(n_keys)`` are few enough to count, not sort."""
    return n_keys <= 4 * n_records + 1024


def _count(keys: np.ndarray, n: int, weights: np.ndarray | None = None) -> np.ndarray:
    """``np.bincount(keys, weights, minlength=n)`` of ``keys`` in ``range(n)``, in blocks of
    at least :data:`_BLOCK` and ``n`` keys, as ``bincount`` copies narrow keys to intp; integer
    ``weights`` summing below 2^53 keep every partial sum exact, so the sums are equal."""
    step = max(_BLOCK, n)
    counts = np.bincount(keys[:step], None if weights is None else weights[:step], minlength=n)
    for i in range(step, keys.size, step):
        counts += np.bincount(keys[i:i + step], None if weights is None else weights[i:i + step],
                              minlength=n)
    return counts


def _unique(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_inverse=True)``, sorted stably (``return_index``): a radix
    sort for keys of 16 bits or fewer, ~3x faster than numpy's default quicksort of them."""
    observed, *_, inverse = np.unique(keys, return_index=keys.itemsize <= 2, return_inverse=True)
    return observed, inverse


def _compact(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, int]:
    """Rank of each key among the observed keys in sorted order (the inverse
    ``np.unique`` returns) at its narrowest width, and the number of observed
    keys.  ``keys`` lie in ``range(n_keys)``; a dense range is ranked by counting."""
    if _dense(n_keys, keys.size):
        seen = _count(keys, n_keys) > 0
        n = int(np.count_nonzero(seen))
        # Summed at the ranks' width, modulo which an observed key's sum less 1 is its rank.
        return (np.cumsum(seen, dtype=_code_dtype([n])) - 1)[keys], n
    observed, codes = _unique(keys)
    return codes.astype(_code_dtype([observed.size])), observed.size


def _join(keys: np.ndarray, n_keys: int, x: np.ndarray, size: int) -> tuple[np.ndarray, int]:
    """Key ``keys * size + x`` of ``keys`` in ``range(n_keys)`` and ``x`` in ``range(size)``,
    and its range: every composite key is built here, at the narrowest width holding both."""
    joined = keys.astype(_code_dtype([n_keys * size, size + 1]))
    joined *= size
    np.add(joined, x, out=joined, casting="unsafe")  # drawn codes x are signed
    return joined, n_keys * size


def _fold(ds: Dataset, names: Sequence[str],
          most: int | None = None) -> tuple[np.ndarray, int] | None:
    """Mixed-radix key of each record's codes over ``names``, joined part by part
    (:func:`_join`), and the key range; keys sort as the code tuples do.  The key is
    re-ranked by :func:`_compact` only when the next part would make its range too large
    to count: a few passes over the records per part.  None once a re-ranked prefix of
    ``names`` has more than ``most`` observed keys: the whole composite has as many or more."""
    names = _parts(names)
    sizes = [ds.var(nm).size for nm in names]
    keys, n_keys = ds.codes(names[0]), sizes[0]
    for nm, size in zip(names[1:], sizes[1:]):
        if not _dense(n_keys * size, ds.n_records):
            keys, n_keys = _compact(keys, n_keys)
            if most is not None and n_keys > most:
                return None
        keys, n_keys = _join(keys, n_keys, ds.codes(nm), size)
    return keys, n_keys


def _pair_counts(keys: np.ndarray, n_keys: int, y: np.ndarray | None = None,
                 n_y: int = 1, weights: np.ndarray | None = None
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Observed (cell, response) pairs of a composite in sorted key order, as
    :func:`composite` orders cells: each pair's count n_is, its cell's count
    n_i and its response code (0 without one).  ``keys`` lie in ``range(n_keys)``,
    joined to ``y`` by :func:`_join`; memory is linear in the records.  A record of
    positive integer ``weights`` counts as that many (exact while they sum below 2^53)."""
    if not _dense(n_keys * n_y, keys.size):
        keys, n_keys = _compact(keys, n_keys)
    if y is not None:
        keys, n_keys = _join(keys, n_keys, y, n_y)
    if _dense(n_keys, keys.size):
        n_is = _count(keys, n_keys, weights)
        return _table_pairs(n_is.astype(np.int64, copy=False), n_y)
    if weights is None:
        pairs, n_is = np.unique(keys, return_counts=True)
    else:
        pairs, inverse = _unique(keys)
        n_is = _count(inverse, pairs.size, weights).astype(np.int64)
    return _table_pairs(n_is, n_y, pairs)


def _distinct_rows(ds: Dataset) -> tuple[Dataset, np.ndarray | None]:
    """The distinct records of ``ds``, in sorted code order, and how often
    each occurs: every count over them, weighted so, is the count over
    ``ds``.  Unless they are at most half the records, ``ds`` itself and no
    weights: a weighted ``bincount`` costs about 2.5 times an unweighted one
    (1M uint16 keys: 7.3 against 2.9 ms, 2-core Xeon VM), and the fold stops
    at the first prefix of the columns with more rows than that.  Folded once
    per dataset and kept on it, as its records are frozen; a
    :meth:`Dataset.take` child folds its own."""
    if ds._distinct is None:
        ds._distinct = None, None  # not ``ds``: no reference cycle
        folded = _fold(ds, ds.names, most=ds.n_records // 2)
        if folded is not None:
            rows, n_rows = _compact(*folded)
            if 2 * n_rows <= ds.n_records:
                one = np.empty(n_rows, dtype=np.int64)
                one[rows] = np.arange(rows.size)  # one record of each row
                ds._distinct = ds.take(one), _frozen(_count(rows, n_rows), np.int64)
    rows, weights = ds._distinct
    return (ds if rows is None else rows), weights


def _table_pairs(n_is: np.ndarray, n_y: int, pairs: np.ndarray | None = None):
    """:func:`_pair_counts` from the counts of all pair keys cell * n_y +
    response, or of the sorted observed keys ``pairs``."""
    if pairs is None:
        pairs = np.flatnonzero(n_is)
        n_is = n_is[pairs]
    cells, s = np.divmod(pairs, n_y)
    return n_is, np.bincount(cells, n_is).astype(np.int64)[cells], s


#: Largest joint range of a group in :func:`_step_pairs`: the key fits in
#: uint16 and the int64 table (512 KB) stays in cache.  On 1M records and 25
#: small candidates, caps of 2^12, 2^14, ..., 2^22 took about 100, 90, 80,
#: 120, 155 and 350 ms of ``select_basis`` (2-core Xeon VM).
_GROUP_CAP = 2**16


def _step_pairs(keys: np.ndarray, n_keys: int, y: np.ndarray | None, n_y: int,
                parts: list[tuple[np.ndarray, int]],
                weights: np.ndarray | None = None) -> Iterator[tuple]:
    """The :func:`_pair_counts` of the composite with cells ``keys * size +
    x`` against ``y``, for each candidate ``(x, size)`` of ``parts`` in turn;
    ``keys`` lie in ``range(n_keys)`` and records count by ``weights`` as in
    :func:`_pair_counts`.  A group of candidates grows while its
    (cell, response, x_1, ..., x_k) range is countable and within
    :data:`_GROUP_CAP`; its key ``((cell * n_y + response) * s_1 + x_1) *
    s_2 ...`` is built in place, in the narrowest dtype holding the range,
    and counted once.  Each candidate's pairs are that table summed over the
    other candidates' axes.  A candidate too wide to count is sorted alone."""
    i = 0
    while i < len(parts):
        j, n = i + 1, n_keys * n_y * parts[i][1]
        while j < len(parts) and (m := n * parts[j][1]) <= _GROUP_CAP and _dense(m, keys.size):
            j, n = j + 1, m
        group, i = parts[i:j], j
        if not _dense(n, keys.size):
            yield _pair_counts(*_join(keys, n_keys, *group[0]), y, n_y, weights)
            continue
        key = keys.astype(_code_dtype([n]))
        for x, size in [(y, n_y)] * (y is not None) + group:
            key *= min(size, n - 1)  # only an all-zero key meets size == n
            key += x
        table = _count(key, n, weights).astype(np.int64, copy=False)
        table = table.reshape(n_keys, n_y, *(s for _, s in group))
        del key  # not held while the candidates are scored
        for k in range(2, table.ndim):
            others = tuple(a for a in range(2, table.ndim) if a != k)
            part = table.sum(axis=others) if others else table
            yield _table_pairs(part.transpose(0, 2, 1).ravel(), n_y)


VarSpec = Union[str, Sequence[str], CompositeVariable]


def _parts(x: VarSpec, y: str | None = None) -> tuple[str, ...]:
    """The part names of ``x`` (a name, names or a composite), some and distinct, and
    without the response ``y`` if one is given: the one place a variable spec becomes names."""
    parts = (x.parts if isinstance(x, CompositeVariable)
             else (x,) if isinstance(x, str) else tuple(x))
    if not parts:
        raise DataError("composite needs at least one variable")
    if len(set(parts)) != len(parts):
        raise DataError("composite parts must be distinct")
    if y in parts:
        raise DataError(f"response {y!r} overlaps the explanatory parts")
    return parts


def _cells(ds: Dataset, x: VarSpec,
           y: str | None = None) -> tuple[tuple[str, ...], np.ndarray, int]:
    """:func:`composite`'s parts (:func:`_parts`), cell codes and cell count for ``x``
    without its labels: the one place a variable spec becomes cells.  A composite is
    read by its part names, folded from ``ds``, whatever dataset it was built on."""
    parts = _parts(x, y)
    return (parts, *_compact(*_fold(ds, parts)))


def _strata(codes: np.ndarray, n: int) -> list[np.ndarray]:
    """The record indices of each code in ``range(n)``, ascending, at the narrowest
    width holding them: the one builder of the records of each category."""
    dtype = _code_dtype([codes.size])
    return [np.flatnonzero(codes == k).astype(dtype) for k in range(n)]


def composite(ds: Dataset, names: VarSpec) -> CompositeVariable:
    """Observed-tuple composite of several variables (or of one, given its name),
    on ``ds``: a composite given as ``names`` is rebuilt from its part names.

    The domain holds only tuples that occur in the data, sorted by part
    codes; its size is bounded by both the record count and the product
    of part domain sizes.  The parts are folded into one integer key
    (:func:`_fold`) and ranked (:func:`_compact`) by :func:`_cells`; labels
    are read from one record per cell.  Scores that need only the counts of
    the cells skip the labels and count the observed pairs of the folded key
    directly (:func:`_pair_counts`).
    """
    names, codes, size = _cells(ds, names)
    # One record of each cell gives the cell's labels.
    rows = np.empty(size, dtype=np.int64)
    rows[codes] = np.arange(codes.size)
    labels = [list(map(ds.var(nm).domain.__getitem__, ds.codes(nm)[rows].tolist()))
              for nm in names]
    return CompositeVariable(names, tuple(zip(*labels)), codes.astype(np.int64))


def contingency(ds: Dataset, x: VarSpec, y: str) -> ContingencyTable:
    """Cross-classify X (variable, over its full domain, or composite) against a response Y."""
    xv = ds.var(x) if isinstance(x, str) else composite(ds, x)
    x_codes = ds.codes(x) if isinstance(x, str) else xv.codes
    _parts(x, y)  # once the names resolve: an unknown name is reported first
    yv = ds.var(y)
    nx, ny = xv.size, yv.size
    counts = _count(_join(x_codes, nx, ds.codes(y), ny)[0], nx * ny).reshape(nx, ny)
    return ContingencyTable(xv.name, y, tuple(xv.domain), yv.domain, counts)


def to_joint(ct: ContingencyTable) -> JointDistribution:
    """Plug-in joint distribution from counts: every cell divided by the total."""
    total = ct.total
    if total < 1:
        raise NumericDomainError("contingency table is empty")
    return JointDistribution(ct.counts / total, ct.x_domain, ct.y_domain)


def joint_from_counts(counts, x_domain=None, y_domain=None) -> JointDistribution:
    """Convenience: plug-in joint straight from a count (or weight) matrix."""
    counts = np.asarray(counts, dtype=np.float64)
    total = counts.sum()
    if total <= 0:
        raise NumericDomainError("counts sum to zero")
    _check_counts(counts)
    nx, ny = counts.shape
    xd = tuple(x_domain) if x_domain is not None else tuple(str(i) for i in range(nx))
    yd = tuple(y_domain) if y_domain is not None else tuple(str(i) for i in range(ny))
    return JointDistribution(counts / total, xd, yd)


class WeightedPopulation:
    """Exact finite population: support cells with probabilities.

    Use this for analytic (infinite-sample) calculations.  The support
    cells are the records of a :class:`Dataset` (``support``); :meth:`joint`
    weights each by its probability where :func:`contingency` +
    :func:`to_joint` would count it once.
    """

    def __init__(self, variables: Sequence[Variable], cells: np.ndarray,
                 probs: np.ndarray):
        self.support = Dataset(variables, cells)
        self.probs = np.asarray(probs, dtype=np.float64)
        if self.probs.shape != (self.support.n_records,):
            raise DataError("one probability per support cell is needed")
        _check_probs(self.probs, "population")

    def marginal(self, name: str) -> np.ndarray:
        return np.bincount(self.support.codes(name), self.probs,
                           minlength=self.support.var(name).size)

    def joint(self, xs: Sequence[str], y: str) -> JointDistribution:
        """Exact two-way joint of the composite of ``xs`` against ``y``."""
        x, yv = composite(self.support, _parts(xs, y)), self.support.var(y)
        p = np.bincount(_join(x.codes, x.size, self.support.codes(y), yv.size)[0], self.probs,
                        minlength=x.size * yv.size).reshape(x.size, yv.size)
        return JointDistribution(p / p.sum(), x.domain, yv.domain)
