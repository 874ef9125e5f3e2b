"""Numeric tables with missing cells: masks, pattern summaries, CSV interchange.

The two core containers are :class:`MissMask` (a binary indicator matrix,
1 = missing) and :class:`DataMatrix` (values plus mask plus column names).
Missing cells are stored as NaN so that nothing downstream can consume a
stale value by accident; use the observed-cell accessors or an imputed copy.
"""

from __future__ import annotations

import csv
from contextlib import ExitStack
from dataclasses import dataclass
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


# Rows per BLAS product in joint_counts: a block's counts are at most this,
# far below 2**53, so float64 sums them exactly in any order.
_COUNT_BLOCK_ROWS = 2048


def joint_counts(bits: np.ndarray, js: np.ndarray | None = None,
                 ks: np.ndarray | None = None) -> np.ndarray:
    """Exact int64 counts of rows where an indicator and column l of the 0/1
    array ``bits`` are both 1. The indicators are the columns of ``bits``,
    or ``bits[:, js] & bits[:, ks]``, built a block of rows at a time."""
    out = np.zeros((bits.shape[1] if js is None else len(js), bits.shape[1]), np.int64)
    for lo in range(0, len(bits), _COUNT_BLOCK_ROWS):
        block = bits[lo:lo + _COUNT_BLOCK_ROWS].astype(np.float64)
        left = block if js is None else block[:, js] * block[:, ks]
        out += (left.T @ block).astype(np.int64)
    return out


def _binary(a, what: str) -> np.ndarray:
    """``a`` as uint8, checked to hold only 0 and 1 before the cast (which
    would wrap 256 or -1 and truncate 0.5)."""
    a = np.asarray(a)
    if not ((a == 0) | (a == 1)).all():
        raise ValueError(f"{what} must be 0 or 1")
    return a.astype(np.uint8)


@dataclass(frozen=True)
class MissMask:
    """Binary missingness indicator matrix, 1 = missing, with at least one
    row (as the CSV readers require).

    ``logical`` optionally flags a subset of the missing cells as logically
    missing (no underlying value exists, e.g. a test that cannot apply to a
    subject); imputers must leave those cells empty.
    """

    bits: np.ndarray
    logical: np.ndarray | None = None

    def __post_init__(self):
        bits = _binary(self.bits, "mask entries")
        if bits.ndim != 2:
            raise ValueError("mask must be 2-dimensional")
        if not len(bits):
            raise ValueError("mask has no rows")
        object.__setattr__(self, "bits", _readonly(bits))
        if self.logical is not None:
            logical = _binary(self.logical, "logical flags")
            if logical.shape != bits.shape:
                raise ValueError("logical flags must match mask dimensions")
            if np.any(logical > bits):
                raise ValueError("logical cells must be a subset of missing cells")
            object.__setattr__(self, "logical", _readonly(logical))

    @property
    def n(self) -> int:
        return self.bits.shape[0]

    @property
    def p(self) -> int:
        return self.bits.shape[1]

    def column_rates(self) -> np.ndarray:
        """Fraction missing per column."""
        return self.bits.mean(axis=0)

    def overall_rate(self) -> float:
        return float(self.bits.mean())

    def pair_counts(self) -> np.ndarray:
        """Exact (p, p) int64 counts of rows where both columns are missing;
        the diagonal holds each column's missing count. Every 2x2 table of
        two indicators follows from it by integer subtraction."""
        return joint_counts(self.bits)

    def logical_bits(self) -> np.ndarray:
        if self.logical is None:
            return np.zeros_like(self.bits)
        return self.logical


@dataclass(frozen=True)
class DataMatrix:
    """An n-by-p real matrix with a missingness mask.

    Missing cells hold NaN internally.
    """

    values: np.ndarray
    missing: MissMask
    col_names: tuple[str, ...]

    def __post_init__(self):
        values = np.array(self.values, dtype=float)
        if values.ndim != 2:
            raise ValueError("values must be 2-dimensional")
        if values.shape != self.missing.bits.shape:
            raise ValueError(
                f"values shape {values.shape} does not match mask shape "
                f"{self.missing.bits.shape}"
            )
        if len(self.col_names) != values.shape[1]:
            raise ValueError("need one column name per column")
        # Sentinel for flagged cells: unreachable except via accessors.
        values[self.missing.bits == 1] = np.nan
        if np.isnan(values[self.missing.bits == 0]).any():
            raise ValueError("observed cells must hold finite-representable values")
        object.__setattr__(self, "values", _readonly(values))
        object.__setattr__(self, "col_names", tuple(self.col_names))

    @classmethod
    def complete(
        cls, values: np.ndarray, col_names: Sequence[str] | None = None
    ) -> "DataMatrix":
        """Wrap a fully observed matrix."""
        values = np.asarray(values, dtype=float)
        if col_names is None:
            col_names = default_names(values.shape[1])
        mask = MissMask(np.zeros(values.shape, dtype=np.uint8))
        return cls(values, mask, tuple(col_names))

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def p(self) -> int:
        return self.values.shape[1]

    def is_complete(self) -> bool:
        return not self.missing.bits.any()

    def observed_column(self, j: int) -> np.ndarray:
        """Values of column ``j`` restricted to observed rows."""
        return self.values[self.missing.bits[:, j] == 0, j]


@dataclass(frozen=True)
class PatternSummary:
    """Row-pattern census of a mask."""

    distinct_patterns: tuple[tuple[tuple[int, ...], int], ...]
    per_column_rate: np.ndarray
    monotone: bool
    file_matching_pairs: tuple[tuple[int, int], ...]


def default_names(p: int) -> tuple[str, ...]:
    return tuple(f"X{j + 1}" for j in range(p))


def monotone_rows(bits: np.ndarray, ordering: Sequence[int]) -> np.ndarray:
    """Per row: do its missing cells form a suffix under ``ordering``? A row
    fails iff an observed cell follows a missing one."""
    arranged = bits[:, list(ordering)]
    seen_missing = np.maximum.accumulate(arranged, axis=1)
    return ~np.any((arranged == 0) & (seen_missing == 1), axis=1)


def _distinct_rows(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of a 0/1 matrix in lexicographic order, and how
    many times each occurs: ``np.unique(bits, axis=0, return_counts=True)``
    by integer sort. Each row is packed into big-endian 64-bit words, whose
    numeric order is the rows' lexicographic order; a matrix with no columns
    has one word per row, so its rows form one empty pattern."""
    n, p = bits.shape
    packed = np.zeros((n, 8 * max(1, (p + 63) // 64)), dtype=np.uint8)
    packed[:, :(p + 7) // 8] = np.packbits(bits, axis=1)
    keys = packed.view(">u8").astype(np.uint64)
    order = np.lexsort(keys.T[::-1])
    keys = keys[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (keys[1:] != keys[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    return bits[order[starts]], np.diff(starts, append=n)


def pattern_summary(
    m: MissMask, ordering: Sequence[int] | None = None
) -> PatternSummary:
    """Summarise the missing-data pattern of a mask.

    ``file_matching_pairs`` lists column pairs that are never simultaneously
    observed in any row, which leaves their joint distribution unidentified.
    ``monotone`` is judged under ``ordering`` (storage order by default).
    """
    bits = m.bits
    n, p = bits.shape
    if ordering is None:
        ordering = tuple(range(p))
    rows, counts = _distinct_rows(bits)
    both = m.pair_counts()
    miss = both.diagonal()
    j, k = np.triu_indices(p, 1)
    never_together = n - miss[j] - miss[k] + both[j, k] == 0  # rows with both observed
    return PatternSummary(
        distinct_patterns=tuple(zip(map(tuple, rows.tolist()), counts.tolist())),
        per_column_rate=m.column_rates(),
        monotone=bool(monotone_rows(bits, ordering).all()),
        file_matching_pairs=tuple(zip(j[never_together].tolist(),
                                      k[never_together].tolist())),
    )


# ---------------------------------------------------------------------------
# CSV interchange: header row of column names, empty field = missing,
# period-decimal reals, fields in storage order. Every CSV misslab reads or
# writes goes through this section.
# ---------------------------------------------------------------------------


def format_value(v: float) -> str:
    """Shortest round-trip decimal representation (deterministic)."""
    return repr(float(v))


def format_cell(v) -> str:
    """The one cell rule: a float by :func:`format_value`, NaN as an empty
    field, anything else by ``str``."""
    if isinstance(v, float):
        return "" if v != v else format_value(v)
    return str(v)


# Rows of a float array formatted per block: bounds the text held at once.
_FLOAT_BLOCK_ROWS = 4096
# Bytes of whole lines parsed per block: bounds the text and fields held at once.
_READ_BLOCK_BYTES = 1 << 16
# Files write_float_tables holds open at once, whatever the number of arrays.
_OPEN_FILES = 64


def write_float_tables(paths: Sequence[str | Path], header: Sequence[str],
                       arrays: Sequence[np.ndarray]) -> None:
    """Write same-shape 2-D float arrays, one per path, to the bytes
    :func:`write_table` gives their rows as lists. A block of rows at a time,
    formatting a cell whose bits agree in every array (an observed value,
    say) once for all of them."""
    arrays = [np.asarray(a, dtype=np.float64) for a in arrays]
    for at in range(0, len(arrays), _OPEN_FILES):
        with ExitStack() as stack:
            files = [stack.enter_context(open(path, "w", newline=""))
                     for path in paths[at:at + _OPEN_FILES]]
            _write_float_rows(files, header, arrays[at:at + _OPEN_FILES])


def _float_text(values: np.ndarray) -> list[str]:
    # The C repr of a list formats every value by float repr.
    return repr(values.tolist())[1:-1].split(", ") if len(values) else []


def _write_float_rows(files, header: Sequence[str], arrays: list[np.ndarray]) -> None:
    for fh in files:
        csv.writer(fh, lineterminator="\n").writerow(header)
    # NaN is an empty field, quoted when it is the whole row as the CSV
    # writer quotes it. No float repr needs quoting; only NaN's holds "nan".
    blank = '""' if arrays[0].shape[1] == 1 else ""
    for lo in range(0, len(arrays[0]), _FLOAT_BLOCK_ROWS):
        blocks = [a[lo:lo + _FLOAT_BLOCK_ROWS] for a in arrays]
        bits = np.stack(blocks).view(np.uint64)
        shared = (bits == bits[0]).all(axis=0)
        own = ~shared
        cells = np.empty(shared.shape, dtype=object)
        cells[shared] = _float_text(blocks[0][shared])
        for fh, block in zip(files, blocks):
            cells[own] = _float_text(block[own])
            fh.write("\n".join(map(",".join, cells.tolist())).replace("nan", blank) + "\n")


def _write_bit_rows(path: str | Path, header: Sequence[str], bits: np.ndarray) -> None:
    # Each row is its p digits at even offsets, commas between them and a
    # newline last; a row of no fields is the newline alone.
    bits = _binary(bits, "bit table entries")
    n, p = bits.shape
    text = np.full((n, max(2 * p, 1)), ord(","), np.uint8)
    text[:, 0:2 * p:2] = bits + ord("0")
    text[:, -1] = ord("\n")
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(header)
        fh.write(text.tobytes().decode("ascii"))


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence] | np.ndarray) -> None:
    """Write a header row and then ``rows``, each cell by :func:`format_cell`.

    A 2-D float64 array goes through :func:`write_float_tables`, and a 2-D
    uint8 array of 0/1 bits is written as bytes in one piece, both instead
    of cell by cell and to the same bytes."""
    if isinstance(rows, np.ndarray) and rows.ndim == 2:
        if rows.dtype == np.float64:
            write_float_tables([path], header, [rows])
            return
        if rows.dtype == np.uint8:
            _write_bit_rows(path, header, rows)
            return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([format_cell(v) for v in row] for row in rows)


# The grammar of a data or mask CSV. The header is read by the csv module
# (quoting allowed, a UTF-8 BOM stripped, names stripped of white space) and
# must name every column once. The body is checked as bytes, a block of whole
# lines at a time: a line ends in "\n" or "\r\n", and every row holds exactly
# p comma-separated fields. A data field is empty or '""' (missing) or an
# ASCII decimal real as Python's float spells it, "inf" included; a mask
# field is one byte, 0 or 1. No data byte is an "a", so no field can spell
# NaN, and a NaN read back is an empty field.
_DATA_BYTES = b"0123456789+-.eEinftyINFTY\",\n"
_MASK_BYTES = b"01,\n"
_DATA_WHAT = "data fields must be numbers or empty"
_MASK_WHAT = "mask entries must be 0/1"
_COMMA_TO_SPACE = bytes.maketrans(b",", b" ")


class _BadRow(Exception):
    """Row ``row`` of a block breaks the grammar, as ``what`` says."""

    def __init__(self, row: int, what: str):
        self.row, self.what = int(row), what


def _data_values(block: bytes, ends: np.ndarray, p: int) -> np.ndarray:
    # Missing: an empty field, or the '""' the writer gives a single empty
    # field. Every other field goes through float.
    a = np.frombuffer(block, np.uint8)
    size = np.diff(ends, prepend=-1) - 1
    missing = size == 0
    two = ends[size == 2]
    missing[size == 2] = (a[two - 1] == ord('"')) & (a[two - 2] == ord('"'))
    present = np.flatnonzero(~missing)
    # The checked rows hold no white space: splitting on it after commas
    # become spaces yields every non-empty field.
    tokens = block[:ends[-1] if len(ends) else 0].translate(_COMMA_TO_SPACE).split()
    if b'"' in block:
        tokens = list(compress(tokens, (~missing[size > 0]).tolist()))
    values = np.full(len(ends), np.nan)
    try:
        values[present] = np.fromiter(map(float, tokens), np.float64, len(tokens))
    except ValueError:
        for k, token in enumerate(tokens):
            try:
                float(token)
            except ValueError:
                raise _BadRow(present[k] // p, _DATA_WHAT) from None
        raise
    return values.reshape(-1, p)


def _mask_values(block: bytes, ends: np.ndarray, p: int) -> np.ndarray:
    # Every byte is 0, 1 or a separator: a field is valid iff it is one byte.
    long = np.flatnonzero(np.diff(ends, prepend=-1) != 2)
    if len(long):
        raise _BadRow(long[0] // p, _MASK_WHAT)
    return (np.frombuffer(block, np.uint8)[ends - 1] - ord("0")).reshape(-1, p)


# A grammar: the byte class, the message for a field outside it, and the
# field parser.
_DATA = (_DATA_BYTES, _DATA_WHAT, _data_values)
_MASK = (_MASK_BYTES, _MASK_WHAT, _mask_values)


def _parse_block(block: bytes, p: int, grammar: tuple) -> np.ndarray:
    """The rows of a block of whole lines as a (rows, p) array, or
    :class:`_BadRow` for the first row that breaks the grammar: a row of
    other than p fields, a byte outside the grammar's class, or a field
    the grammar rejects, in that order within a row."""
    allowed, what, values = grammar
    if b"\r" in block:
        block = block.replace(b"\r\n", b"\n")
    a = np.frombuffer(block, np.uint8)
    ends = np.flatnonzero((a == ord(",")) | (a == ord("\n")))  # the byte after each field
    last = np.flatnonzero(a[ends] == ord("\n"))  # each row's last field
    fields = np.diff(last, prepend=-1)
    fields[(fields == 1) & (np.diff(ends, prepend=-1)[last] == 1)] = 0  # an empty line
    wrong = np.flatnonzero(fields != p)
    rows = int(wrong[0]) if len(wrong) else len(last)
    bad = _BadRow(rows, f"expected {p} fields, got {fields[rows]}") if len(wrong) else None
    stray = block.translate(None, allowed)
    if stray:
        row = int(np.searchsorted(ends[last], block.index(stray[:1])))
        if row < rows:
            rows, bad = row, _BadRow(row, what)
    # The first rows hold p fields each, so their fields are the first rows * p.
    out = values(block, ends[:rows * p], p)
    if bad is not None:
        raise bad
    return out


def _read_header(fh, path) -> tuple[tuple[str, ...], int]:
    """Column names from the header and the number of lines it spans."""
    first = fh.readline()
    if not first:
        raise ValueError(f"{path}: empty CSV")
    lines = 0

    def decoded():
        # One line at a time, as the csv reader asks: the body stays unread.
        nonlocal lines
        for raw in chain([first.removeprefix(b"\xef\xbb\xbf")], fh):
            lines += 1
            yield raw.decode()

    try:
        names = tuple(h.strip() for h in next(csv.reader(decoded(), strict=True)))
    except (csv.Error, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}:{lines}: header: {exc}") from None
    if not names or not all(names):
        raise ValueError(f"{path}:1: header: every column needs a name")
    if len(set(names)) < len(names):
        twice = sorted({h for h in names if names.count(h) > 1})
        raise ValueError(f"{path}:1: header: duplicate column names {twice}")
    return names, lines


def _line_blocks(fh):
    """The rest of ``fh`` in blocks of whole lines, the last line ended."""
    rest = b""
    while chunk := fh.read(_READ_BLOCK_BYTES):
        cut = chunk.rfind(b"\n") + 1
        if cut:
            yield rest + chunk[:cut]
            rest = chunk[cut:]
        else:
            rest += chunk
    if rest:
        yield rest + b"\n"


def _read_rows(path: str | Path, grammar: tuple) -> tuple[tuple[str, ...], np.ndarray]:
    """Header names and the body as an (n, p) array, read a block of lines at
    a time; a row that breaks the grammar raises naming ``path:line``."""
    with open(path, "rb") as fh:
        names, line = _read_header(fh, path)
        blocks = []
        for block in _line_blocks(fh):
            try:
                blocks.append(_parse_block(block, len(names), grammar))
            except _BadRow as bad:
                raise ValueError(f"{path}:{line + bad.row + 1}: {bad.what}") from None
            line += len(blocks[-1])
    if not blocks:
        raise ValueError(f"{path}: no rows after the header")
    return names, np.concatenate(blocks)


def read_flags(path: str | Path) -> np.ndarray:
    """A headerless file of one 0/1 entry per line, by the mask grammar, as
    a uint8 vector."""
    body = Path(path).read_bytes()
    if body and not body.endswith(b"\n"):
        body += b"\n"
    try:
        return _parse_block(body, 1, _MASK).ravel()
    except _BadRow as bad:
        raise ValueError(f"{path}:{bad.row + 1}: {bad.what}") from None


def write_csv(d: DataMatrix, path: str | Path) -> None:
    # Missing cells hold NaN (the DataMatrix invariant): written empty.
    write_table(path, d.col_names, d.values)


def read_csv(path: str | Path) -> DataMatrix:
    names, values = _read_rows(path, _DATA)
    return DataMatrix(values, MissMask(np.isnan(values)), names)


def write_mask_csv(m: MissMask, path: str | Path,
                   col_names: Sequence[str] | None = None) -> None:
    names = tuple(col_names) if col_names is not None else default_names(m.p)
    write_table(path, names, m.bits)


def read_mask_csv(path: str | Path) -> tuple[MissMask, tuple[str, ...]]:
    names, bits = _read_rows(path, _MASK)
    return MissMask(bits), names


def read_ordering(path: str | Path, col_names: Sequence[str]) -> tuple[int, ...]:
    """Read a column ordering file: entries separated by commas or line ends
    (LF or CRLF), each a column name exactly or a column index in ASCII
    decimal without sign, leading zero or white space. An entry outside that
    grammar, empty ones and blank lines included, raises naming
    ``path:line``."""
    names = list(col_names)
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: {exc}") from None
    text = text.replace("\r\n", "\n").removesuffix("\n")
    order: list[int] = []
    for line, row in enumerate(text.split("\n"), 1):
        for t in row.split(","):
            if t in names:
                order.append(names.index(t))
            elif t.isascii() and t.isdigit() and (t == "0" or t[0] != "0"):
                order.append(int(t))
            else:
                what = f"{t!r} is not a column name or index" if t else "empty entry"
                raise ValueError(f"{path}:{line}: {what}")
    if sorted(order) != list(range(len(col_names))):
        raise ValueError(f"{path}: ordering must be a permutation of all columns")
    return tuple(order)
