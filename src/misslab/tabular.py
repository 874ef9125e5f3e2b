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
    """Binary missingness indicator matrix, 1 = missing.

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

    def n_patterns(self) -> int:
        return len(self.distinct_patterns)


def default_names(p: int) -> tuple[str, ...]:
    return tuple(f"X{j + 1}" for j in range(p))


def monotone_rows(bits: np.ndarray, ordering: Sequence[int]) -> np.ndarray:
    """Per row: do its missing cells form a suffix under ``ordering``? A row
    fails iff an observed cell follows a missing one."""
    arranged = bits[:, list(ordering)]
    seen_missing = np.maximum.accumulate(arranged, axis=1)
    return ~np.any((arranged == 0) & (seen_missing == 1), axis=1)


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
    rows, counts = np.unique(bits, axis=0, return_counts=True)
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


def write_table(path: str | Path, header: Sequence[str],
                rows: Iterable[Sequence] | np.ndarray) -> None:
    """Write a header row and then ``rows``, each cell by :func:`format_cell`.

    A 2-D float64 array goes through :func:`write_float_tables` instead of
    cell by cell, to the same bytes."""
    if isinstance(rows, np.ndarray) and rows.dtype == np.float64 and rows.ndim == 2:
        write_float_tables([path], header, [rows])
        return
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        w.writerows([format_cell(v) for v in row] for row in rows)


def _read_table(path: str | Path, parse, what: str) -> tuple[tuple[str, ...], list]:
    """Header names and the rows of fields mapped through ``parse``. A row of
    the wrong length, or a field ``parse`` rejects, raises naming ``path:line``."""
    with open(path, "r", newline="") as fh:
        r = csv.reader(fh)
        header = next(r, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        names = tuple(h.strip() for h in header)
        rows = []
        for line_no, rec in enumerate(r, start=2):
            if len(rec) != len(names):
                raise ValueError(
                    f"{path}:{line_no}: expected {len(names)} fields, got {len(rec)}"
                )
            try:
                rows.append([parse(f) for f in rec])
            except ValueError:
                raise ValueError(f"{path}:{line_no}: {what}") from None
    return names, rows


def _data_field(f: str) -> float:
    # Only an empty field is missing; a field spelled "nan" is rejected.
    f = f.strip()
    if not f:
        return np.nan
    v = float(f)
    if v != v:
        raise ValueError(f)
    return v


def _mask_field(f: str) -> int:
    v = int(f)
    if v not in (0, 1):
        raise ValueError(f)
    return v


def write_csv(d: DataMatrix, path: str | Path) -> None:
    # Missing cells hold NaN (the DataMatrix invariant): written empty.
    write_table(path, d.col_names, d.values)


def read_csv(path: str | Path) -> DataMatrix:
    names, rows = _read_table(path, _data_field, "data fields must be numbers or empty")
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return DataMatrix(values, MissMask(np.isnan(values)), names)


def write_mask_csv(m: MissMask, path: str | Path,
                   col_names: Sequence[str] | None = None) -> None:
    names = tuple(col_names) if col_names is not None else default_names(m.p)
    write_table(path, names, m.bits.tolist())


def read_mask_csv(path: str | Path) -> tuple[MissMask, tuple[str, ...]]:
    names, rows = _read_table(path, _mask_field, "mask entries must be 0/1")
    bits = np.array(rows, dtype=np.uint8).reshape(len(rows), len(names))
    return MissMask(bits), names


def read_ordering(path: str | Path, col_names: Sequence[str]) -> tuple[int, ...]:
    """Read a column ordering file: one name or index per line / comma list."""
    text = Path(path).read_text()
    tokens = [t.strip() for chunk in text.splitlines() for t in chunk.split(",")]
    tokens = [t for t in tokens if t]
    order: list[int] = []
    for t in tokens:
        if t in col_names:
            order.append(list(col_names).index(t))
        else:
            try:
                order.append(int(t))
            except ValueError:
                raise ValueError(f"{path}: unknown column {t!r}") from None
    if sorted(order) != list(range(len(col_names))):
        raise ValueError(f"{path}: ordering must be a permutation of all columns")
    return tuple(order)
