import csv
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from misslab import tabular
from misslab.analyzer import pairwise_dependence
from misslab.impute import ImputationConfig, fcs_impute
from misslab.tabular import (
    DataMatrix,
    MissMask,
    check_names,
    default_names,
    format_cell,
    joint_counts,
    pattern_summary,
    read_csv,
    read_flags,
    read_mask_csv,
    write_csv,
    write_float_tables,
    write_mask_csv,
    write_table,
)


def dm(values, bits, names=None):
    values = np.asarray(values, dtype=float)
    names = names or tuple(f"X{j+1}" for j in range(values.shape[1]))
    return DataMatrix(values, MissMask(np.asarray(bits, dtype=np.uint8)), names)


masks = st.integers(2, 6).flatmap(
    lambda p: st.integers(1, 8).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(0, 1), min_size=p, max_size=p),
            min_size=n,
            max_size=n,
        )
    )
)


def loop_census(bits, ordering):
    """Reference for the mask census, one row at a time: the pattern counts,
    whether every row's missing cells form a suffix under ``ordering``, and
    the column pairs no row observes together."""
    patterns = {}
    monotone = True
    for row in bits.tolist():
        patterns[tuple(row)] = patterns.get(tuple(row), 0) + 1
        arranged = [row[j] for j in ordering]
        if 1 in arranged and 0 in arranged[arranged.index(1):]:
            monotone = False
    p = bits.shape[1]
    pairs = tuple((j, k) for j in range(p) for k in range(j + 1, p)
                  if not any(row[j] == 0 and row[k] == 0 for row in bits.tolist()))
    return tuple(sorted(patterns.items())), monotone, pairs


@pytest.mark.parametrize("shape", [(0, 3), (0, 0), (3, 0)])
def test_mask_with_no_rows_rejected(shape):
    # The CSV readers refuse a file with no rows or no names, so no mask may
    # have none: its rates would be NaN, and its file would not read back.
    message = "mask has no rows" if shape[0] == 0 else "mask has no columns"
    with pytest.raises(ValueError, match=message):
        MissMask(np.zeros(shape, dtype=np.uint8))
    with pytest.raises(ValueError, match=message):
        DataMatrix(np.zeros(shape), MissMask(np.zeros(shape, dtype=np.uint8)),
                   default_names(shape[1]))


class TestPatternSummary:
    def test_file_matching_pair(self):
        summary = pattern_summary(MissMask([[0, 1], [1, 0], [0, 1]]))
        assert summary.file_matching_pairs == ((0, 1),)

    def test_all_observed(self):
        summary = pattern_summary(MissMask(np.zeros((4, 3), dtype=np.uint8)))
        assert summary.monotone
        assert summary.file_matching_pairs == ()

    def test_counts_sum_to_n(self):
        summary = pattern_summary(MissMask([[0, 1], [0, 1], [1, 1]]))
        assert sum(c for _, c in summary.distinct_patterns) == 3
        assert len(summary.distinct_patterns) == 2

    def test_rates_match_column_means(self):
        bits = np.array([[0, 1, 1], [0, 0, 1]], dtype=np.uint8)
        summary = pattern_summary(MissMask(bits))
        assert np.allclose(summary.per_column_rate, bits.mean(axis=0))

    def test_monotone_requires_suffix(self):
        assert pattern_summary(MissMask([[0, 1, 1], [0, 0, 1]])).monotone
        assert not pattern_summary(MissMask([[1, 0, 1]])).monotone

    def test_monotone_respects_ordering(self):
        # Missing set {0} is a suffix only under the reversed order.
        m = MissMask([[1, 0, 0]])
        assert not pattern_summary(m).monotone
        assert pattern_summary(m, ordering=(2, 1, 0)).monotone

    @given(masks)
    @settings(max_examples=50, deadline=None)
    def test_row_permutation_leaves_pattern_multiset(self, bits):
        bits = np.array(bits, dtype=np.uint8)
        rng = np.random.default_rng(0)
        perm = rng.permutation(bits.shape[0])
        a = pattern_summary(MissMask(bits))
        b = pattern_summary(MissMask(bits[perm]))
        assert a.distinct_patterns == b.distinct_patterns

    @given(masks, st.randoms(use_true_random=False))
    @settings(max_examples=200, deadline=None)
    def test_equals_row_loop_reference(self, bits, random):
        bits = np.array(bits, dtype=np.uint8)
        ordering = list(range(bits.shape[1]))
        random.shuffle(ordering)
        summary = pattern_summary(MissMask(bits), ordering)
        reference = loop_census(bits, ordering)
        assert repr((summary.distinct_patterns, summary.monotone,
                     summary.file_matching_pairs)) == repr(reference)
        assert summary.per_column_rate.tolist() == bits.mean(axis=0).tolist()

    # Widths around the 64-bit word boundaries; rows drawn from a small pool
    # so that patterns repeat. A mask has rows and columns.
    @given(st.integers(1, 130).flatmap(lambda p: st.tuples(
        arrays(np.uint8, st.tuples(st.integers(1, 6), st.just(p)),
               elements=st.integers(0, 1)),
        st.lists(st.integers(0, 5), min_size=1, max_size=30))))
    @settings(max_examples=200, deadline=None)
    def test_distinct_patterns_equal_numpy_unique(self, case):
        pool, picks = case
        bits = pool[np.array(picks, dtype=np.intp) % pool.shape[0]]
        rows, counts = np.unique(bits, axis=0, return_counts=True)
        want = tuple(zip(map(tuple, rows.tolist()), counts.tolist()))
        assert repr(pattern_summary(MissMask(bits)).distinct_patterns) == repr(want)


class TestCsv:
    def test_round_trip(self, tmp_path):
        d = dm([[1.5, np.nan], [-2.25, 0.125]], [[0, 1], [0, 0]], ("a", "b"))
        path = tmp_path / "t.csv"
        write_csv(d, path)
        back = read_csv(path)
        assert back.col_names == ("a", "b")
        assert np.array_equal(back.missing.bits, d.missing.bits)
        obs = d.missing.bits == 0
        assert np.array_equal(back.values[obs], d.values[obs])

    def test_write_is_deterministic(self, tmp_path):
        d = dm([[0.1, 2.0]], [[0, 0]])
        write_csv(d, tmp_path / "a.csv")
        write_csv(d, tmp_path / "b.csv")
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_text() == "X1,X2\n0.1,2.0\n"

    def test_mask_round_trip(self, tmp_path):
        m = MissMask([[0, 1], [1, 1]])
        write_mask_csv(m, tmp_path / "m.csv", ("u", "v"))
        back, names = read_mask_csv(tmp_path / "m.csv")
        assert names == ("u", "v")
        assert np.array_equal(back.bits, m.bits)

    def test_ragged_row_rejected(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1.0\n")
        with pytest.raises(ValueError, match="expected 2 fields"):
            read_csv(tmp_path / "bad.csv")

    def test_awkward_header_names_round_trip(self, tmp_path):
        names = ("a,b", 'c"d', 'e,"f"')
        d = dm([[1.0, np.nan, 3.0]], [[0, 1, 0]], names)
        write_csv(d, tmp_path / "d.csv")
        assert read_csv(tmp_path / "d.csv").col_names == names
        write_mask_csv(d.missing, tmp_path / "m.csv", names)
        assert read_mask_csv(tmp_path / "m.csv")[1] == names

    @pytest.mark.parametrize("field", [
        "abc", "nan", "NaN", " nan ", "1_000", "١٢", "１", '"5', '"1.5"', " 1.5", " ",
        "1\r5", "1e", "--1",
    ])
    def test_bad_data_field_names_file_and_line(self, tmp_path, field):
        # Only an empty field is missing: "nan" is not a spelling of it.
        # Digit separators, non-ASCII digits, quotes, white space and a bare
        # carriage return are not numbers either.
        path = tmp_path / "d.csv"
        path.write_text(f"a,b\n1.0,2.0\n3.0,{field}\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: data fields must be numbers"):
            read_csv(path)

    def test_write_table_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        write_table(path, ("f", "i", "s"),
                    [(0.1, 3, "x"), (np.nan, np.int64(-2), "y,z"), (np.float64(2.0), 7, "")])
        assert path.read_text() == 'f,i,s\n0.1,3,x\n,-2,"y,z"\n2.0,7,\n'

    @settings(max_examples=200, deadline=None)
    @given(values=arrays(
        np.float64, array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
        elements=st.one_of(
            st.floats(allow_subnormal=True),
            st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
                             -2.225073858507201e-308, 1e16, 0.1]),
        ),
    ))
    def test_float_array_rows_follow_the_cell_rule(self, tmp_path_factory, values):
        # A float array takes the block path; its rows as lists take the
        # cell-by-cell path through format_cell.
        d = tmp_path_factory.mktemp("w")
        header = [f"c{j}" for j in range(values.shape[1])]
        write_table(d / "block.csv", header, values)
        write_table(d / "cells.csv", header, values.tolist())
        assert (d / "block.csv").read_bytes() == (d / "cells.csv").read_bytes()

    def test_float_array_rows_across_blocks(self, tmp_path):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(2 * 4096 + 3, 3)) * 10.0 ** rng.integers(-300, 300, (1, 3))
        values[rng.random(values.shape) < 0.3] = np.nan
        write_table(tmp_path / "block.csv", "abc", values)
        write_table(tmp_path / "cells.csv", "abc", values.tolist())
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "cells.csv").read_bytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_several_arrays_write_as_each_alone(self, tmp_path_factory, data):
        # Arrays that share some cells (NaN among them) and differ in others,
        # over blocks and file groups far smaller than the real ones, against
        # each array written alone through the CSV writer and format_cell.
        value = st.one_of(
            st.floats(allow_subnormal=True),
            st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324,
                             -2.225073858507201e-308, 1e16, 0.1]),
        )
        n, p = data.draw(st.integers(0, 13)), data.draw(st.integers(0, 4))
        base = data.draw(arrays(np.float64, (n, p), elements=value))
        group = []
        for _ in range(data.draw(st.integers(1, 4))):
            own = data.draw(arrays(np.bool_, (n, p)))
            group.append(np.where(own, data.draw(arrays(np.float64, (n, p), elements=value)),
                                  base))
        d = tmp_path_factory.mktemp("w")
        header = [f"c{j}" for j in range(p)]
        paths = [d / f"imp{k}.csv" for k in range(len(group))]
        with mock.patch.object(tabular, "_FLOAT_BLOCK_ROWS", data.draw(st.integers(1, 5))), \
                mock.patch.object(tabular, "_OPEN_FILES", data.draw(st.integers(1, 3))):
            write_float_tables(paths, header, group)
        for path, values in zip(paths, group):
            with open(d / "alone.csv", "w", newline="") as fh:
                w = csv.writer(fh, lineterminator="\n")
                w.writerow(header)
                w.writerows([format_cell(v) for v in row] for row in values.tolist())
            assert path.read_bytes() == (d / "alone.csv").read_bytes()

    def test_format_value_round_trips(self):
        for v in (0.1, 1 / 3, -2.5e-17, 123456.789):
            assert float(format_cell(v)) == v



def reference_read_table(path, parse, what):
    """Reference reader, one ``parse`` call per field of the csv module's
    rows: header names and rows, or ValueError naming path:line."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
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


def reference_data_field(f):
    f = f.strip()
    if not f:
        return np.nan
    v = float(f)
    if v != v:
        raise ValueError(f)
    return v


def reference_mask_field(f):
    v = int(f)
    if v not in (0, 1):
        raise ValueError(f)
    return v


FLOATS = st.one_of(
    st.floats(allow_subnormal=True),
    st.sampled_from([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324,
                     2.225073858507201e-308, 1.7976931348623157e308, -1e300, 0.1]),
)


def bits_of(values):
    # NaN is read back as the one NaN that stands for missing.
    return np.where(np.isnan(values), np.nan, values).view(np.uint64)


def valid_text(data, p, mask):
    """A table the writers could have written, as bytes: p names and rows of
    0/1 entries or of float reprs and empty fields."""
    n = data.draw(st.integers(1, 6))
    rows = []
    for _ in range(n):
        if mask:
            fields = [str(data.draw(st.integers(0, 1))) for _ in range(p)]
        else:
            fields = [format_cell(data.draw(FLOATS)) for _ in range(p)]
            if fields == [""]:
                fields = ['""']
        rows.append(",".join(fields))
    return ("\n".join([",".join(default_names(p))] + rows) + "\n").encode()


def mutated(data, text):
    """``text`` with a few bytes inserted, deleted or replaced."""
    text = bytearray(text)
    alphabet = b'01,\n\r" .e+-_anif\xef\xbb\xbfx9\x00\xd9\xa1'
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(text)))
        op = data.draw(st.sampled_from(["insert", "delete", "replace"]))
        byte = data.draw(st.sampled_from(alphabet))
        if op == "insert":
            text[at:at] = bytes([byte])
        elif at < len(text):
            text[at:at + 1] = b"" if op == "delete" else bytes([byte])
    return bytes(text)


class TestReader:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_float_arrays_read_back_bit_for_bit(self, tmp_path_factory, data):
        n, p = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 4))
        group = [data.draw(arrays(np.float64, (n, p), elements=FLOATS))
                 for _ in range(data.draw(st.integers(1, 3)))]
        for values in group:
            values[data.draw(arrays(np.bool_, n)), :] = np.nan  # whole rows missing
        d = tmp_path_factory.mktemp("r")
        paths = [d / f"imp{k}.csv" for k in range(len(group))]
        with mock.patch.object(tabular, "_FLOAT_BLOCK_ROWS", data.draw(st.integers(1, 4))), \
                mock.patch.object(tabular, "_READ_BLOCK_BYTES", data.draw(st.integers(1, 64))):
            write_float_tables(paths, default_names(p), group)
            write_csv(DataMatrix(group[0], MissMask(np.isnan(group[0])), default_names(p)),
                      d / "one.csv")
            assert (d / "one.csv").read_bytes() == paths[0].read_bytes()
            for path, values in zip(paths, group):
                back = read_csv(path)
                assert back.col_names == default_names(p)
                np.testing.assert_array_equal(bits_of(back.values), bits_of(values))
                np.testing.assert_array_equal(back.missing.bits, np.isnan(values))

    @settings(max_examples=200, deadline=None)
    @given(bits=arrays(np.uint8, st.tuples(st.integers(1, 7), st.integers(1, 7)),
                       elements=st.integers(0, 1)),
           block=st.integers(1, 20))
    def test_mask_bytes_equal_the_cell_writer(self, tmp_path_factory, bits, block):
        d = tmp_path_factory.mktemp("m")
        names = default_names(bits.shape[1])
        write_mask_csv(MissMask(bits), d / "bytes.csv")
        write_table(d / "cells.csv", names, bits.tolist())
        assert (d / "bytes.csv").read_bytes() == (d / "cells.csv").read_bytes()
        with mock.patch.object(tabular, "_READ_BLOCK_BYTES", block):
            back, back_names = read_mask_csv(d / "bytes.csv")
        assert back_names == names
        np.testing.assert_array_equal(back.bits, bits)

    def test_bit_writer_refuses_other_entries(self, tmp_path):
        with pytest.raises(ValueError, match="must be 0 or 1"):
            write_table(tmp_path / "m.csv", ("a",), np.array([[2]], np.uint8))

    @settings(max_examples=500, deadline=None)
    @given(data=st.data(), mask=st.booleans())
    def test_reads_as_the_reference_or_raises_naming_the_path(self, tmp_path_factory,
                                                              data, mask):
        # Random bytes, or a valid table with a few bytes changed. Every input
        # reads or raises ValueError naming the file; every input both this
        # reader and the csv-module reference accept reads the same. The
        # reference keeps a UTF-8 BOM in the first name, which this reader
        # strips, so it reads the text after the BOM.
        if data.draw(st.booleans()):
            text = data.draw(st.binary(max_size=60))
        else:
            text = mutated(data, valid_text(data, data.draw(st.integers(1, 3)), mask))
        d = tmp_path_factory.mktemp("f")
        path, plain = d / "in.csv", d / "plain.csv"
        path.write_bytes(text)
        plain.write_bytes(text.removeprefix(b"\xef\xbb\xbf"))
        read, parse, what = ((read_mask_csv, reference_mask_field, "mask entries must be 0/1")
                             if mask else (read_csv, reference_data_field, "data fields"))
        try:
            got = read(path)
        except ValueError as exc:
            assert str(path) in str(exc)
            return
        names, values = (got[1], got[0].bits) if mask else (got.col_names, got.values)
        try:
            ref_names, rows = reference_read_table(plain, parse, what)
        except (ValueError, csv.Error):
            return
        assert ref_names == names
        ref = np.array(rows, dtype=values.dtype).reshape(len(rows), len(names))
        if mask:
            np.testing.assert_array_equal(ref, values)
        else:
            np.testing.assert_array_equal(bits_of(ref), bits_of(values))

    @pytest.mark.parametrize("text, message", [
        ("a,a\n1,2\n", r"d\.csv:1: header: duplicate column names \['a'\]"),
        (" a,a \n1,2\n", r"d\.csv:1: header: duplicate column names \['a'\]"),
        ("a,\n1,2\n", r"d\.csv:1: header: every column needs a name"),
        ("\n1\n", r"d\.csv:1: header: every column needs a name"),
        ('a,"b\n1,2\n', r"d\.csv:2: header: unexpected end of data"),
        ("a,b\n", r"d\.csv: no rows after the header"),
        ("", r"d\.csv: empty CSV"),
    ])
    def test_bad_header_or_no_rows_names_the_file(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=message):
            read_csv(path)
        with pytest.raises(ValueError, match=message):
            read_mask_csv(path)

    def test_non_utf8_header_names_the_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,\xff\n1,2\n")
        with pytest.raises(ValueError, match=r"d\.csv:1: header: 'utf-8' codec"):
            read_csv(path)

    def test_bom_stripped_and_crlf_read_as_lf(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_bytes(b'a,"b,c"\n1.5,\n-2,inf\n')
        variant = tmp_path / "variant.csv"
        variant.write_bytes(b'\xef\xbb\xbfa,"b,c"\r\n1.5,\r\n-2,inf')
        for path in (plain, variant):
            d = read_csv(path)
            assert d.col_names == ("a", "b,c")
            assert np.array_equal(d.values, [[1.5, np.nan], [-2.0, np.inf]], equal_nan=True)

    def test_quoted_empty_field_is_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('a\n1.5\n""\n')
        assert np.array_equal(read_csv(path).values, [[1.5], [np.nan]], equal_nan=True)
        path.write_text('a,b\n1.5,""\n')
        assert np.array_equal(read_csv(path).values, [[1.5, np.nan]], equal_nan=True)

    def test_empty_line_is_a_row_of_no_fields(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a\n1.5\n\n")
        with pytest.raises(ValueError, match=r"d\.csv:3: expected 1 fields, got 0"):
            read_csv(path)

    @pytest.mark.parametrize("bad_line, bad", [(2, "x"), (7, "1,2"), (9, "1e"), (11, ".")])
    def test_first_bad_line_found_across_blocks(self, tmp_path, bad_line, bad):
        # A later row breaking the grammar another way does not hide it.
        rows = [f"{k}.5,{k}" for k in range(12)]
        rows[bad_line - 2] = f"{bad},1" if bad != "1,2" else "1,2,3"
        rows[-1] = "9,_"
        path = tmp_path / "d.csv"
        path.write_text("a,b\n" + "\n".join(rows) + "\n")
        for block in (1, 2, 7, 16, 1 << 20):
            with mock.patch.object(tabular, "_READ_BLOCK_BYTES", block):
                with pytest.raises(ValueError, match=rf"d\.csv:{bad_line}: "):
                    read_csv(path)

    def test_multiline_header_counts_its_lines(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"a\nb",c\n1,2\nx,2\n')
        with pytest.raises(ValueError, match=r"d\.csv:4: data fields"):
            read_csv(path)

    @pytest.mark.parametrize("text, flags", [
        (b"0\n1\n1\n", [0, 1, 1]), (b"1\r\n0", [1, 0]), (b"", []),
    ])
    def test_flags_read(self, tmp_path, text, flags):
        (tmp_path / "f.txt").write_bytes(text)
        assert read_flags(tmp_path / "f.txt").tolist() == flags

    @pytest.mark.parametrize("text, line", [
        (b"0\n+1\n", 2), (b"01\n", 1), (b" 1\n", 1), (b"0\n\n1\n", 2), (b"0 1\n", 1),
        ("0\n٠\n".encode(), 2),
    ])
    def test_flags_outside_the_mask_grammar(self, tmp_path, text, line):
        (tmp_path / "f.txt").write_bytes(text)
        with pytest.raises(ValueError, match=rf"f\.txt:{line}: "):
            read_flags(tmp_path / "f.txt")


def test_joint_counts_equal_integer_sums():
    # Several count blocks, rows of the pairs' joint indicators included.
    rng = np.random.default_rng(3)
    bits = (rng.random((5000, 6)) < 0.4).astype(np.uint8)
    js, ks = np.array([0, 0, 2, 4]), np.array([1, 3, 5, 5])
    np.testing.assert_array_equal(
        joint_counts(bits), np.einsum("nj,nk->jk", bits, bits, dtype=np.int64))
    np.testing.assert_array_equal(
        joint_counts(bits, js, ks),
        np.einsum("nq,nl->ql", bits[:, js] & bits[:, ks], bits, dtype=np.int64))
    assert joint_counts(bits[:0]).tolist() == [[0] * 6] * 6


class TestInvariants:
    def test_missing_cells_hold_no_value(self):
        d = dm([[1.0, 2.0]], [[0, 1]])
        assert np.isnan(d.values[0, 1])

    def test_values_are_read_only(self):
        d = dm([[1.0, 2.0]], [[0, 0]])
        with pytest.raises(ValueError):
            d.values[0, 0] = 9.0

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            DataMatrix(np.zeros((2, 2)), MissMask(np.zeros((2, 3), dtype=np.uint8)),
                       ("a", "b"))

    def test_logical_must_be_subset(self):
        with pytest.raises(ValueError, match="subset"):
            MissMask([[0, 1]], logical=[[1, 0]])

    @pytest.mark.parametrize("bad", [0.5, 256, -1, np.nan])
    def test_non_binary_entries_rejected_before_cast(self, bad):
        # A uint8 cast first would turn 0.5 and 256 into 0 and -1 into 255.
        with pytest.raises(ValueError, match="mask entries must be 0 or 1"):
            MissMask(np.array([[bad, 1.0]]))
        with pytest.raises(ValueError, match="logical flags must be 0 or 1"):
            MissMask([[1, 1]], logical=np.array([[bad, 1.0]]))

    def test_boolean_mask_accepted(self):
        m = MissMask(np.array([[True, False]]))
        assert m.bits.dtype == np.uint8
        assert m.bits.tolist() == [[1, 0]]

    @pytest.mark.parametrize("entry", ["-1", "256", "2", "+1", "01", " 1", "1 ", "٠", ""])
    def test_mask_csv_out_of_range_entry_names_file_and_line(self, tmp_path, entry):
        path = tmp_path / "m.csv"
        path.write_text(f"a,b\n0,1\n1,{entry}\n")
        with pytest.raises(ValueError, match=r"m\.csv:3: mask entries must be 0/1"):
            read_mask_csv(path)


# Names as a header can hold them: separators, quotes, line ends, white
# space the reader strips, byte-order marks and non-ASCII text.
NAME_TEXT = st.text(st.one_of(st.sampled_from(',"\n\r\t \xa0\ufeff'), st.characters()),
                    max_size=4)


class TestNames:
    # Each would be written as a header that read_csv refuses or renames.
    @pytest.mark.parametrize("names", [
        ("a", "a"), ("", "b"), ("a\r", "b"), (" a", "b"), ("a", "b\t"), ("a\xa0", "b"),
        ("\ufeffa", "b"),
    ])
    def test_names_a_header_cannot_hold_are_refused(self, tmp_path, names):
        mask = MissMask(np.zeros((1, 2), np.uint8))
        refused = "every column needs a name|duplicate column|the CSV reader would alter"
        with pytest.raises(ValueError, match=refused):
            DataMatrix(np.zeros((1, 2)), mask, names)
        with pytest.raises(ValueError, match=refused):
            write_mask_csv(mask, tmp_path / "m.csv", names)
        assert not (tmp_path / "m.csv").exists()

    @pytest.mark.parametrize("names, p, message", [
        ((), None, "every column needs a name"),
        (("a", ""), None, "every column needs a name"),
        (("a",), 2, "need one column name per column"),
        (("b", "a", "b"), 3, r"duplicate column names \['b'\]"),
        (("a ", "b"), None, r"the CSV reader would alter \['a '\]"),
    ])
    def test_one_rule_names_each_fault(self, names, p, message):
        with pytest.raises(ValueError, match=message):
            check_names(names, p)

    @settings(max_examples=300, deadline=None)
    @given(names=st.lists(NAME_TEXT, min_size=1, max_size=4), data=st.data())
    @example(names=[" a", "b"], data=None)
    @example(names=["a", "\ufeffb"], data=None)
    def test_admitted_names_read_back(self, tmp_path_factory, names, data):
        p = len(names)
        bits = np.eye(2, p, dtype=np.uint8) if data is None else data.draw(
            arrays(np.uint8, (2, p), elements=st.integers(0, 1)))
        values = np.arange(2.0 * p).reshape(2, p) - 1.5
        try:
            d = DataMatrix(values, MissMask(bits), names)
        except ValueError:
            return
        path = tmp_path_factory.mktemp("n") / "d.csv"
        write_csv(d, path)
        back = read_csv(path)
        assert back.col_names == tuple(names)
        np.testing.assert_array_equal(back.missing.bits, bits)
        np.testing.assert_array_equal(bits_of(back.values), bits_of(d.values))
        write_mask_csv(d.missing, path, names)
        assert read_mask_csv(path)[1] == tuple(names)


@settings(max_examples=300, deadline=None)
@given(n=st.integers(0, 3), p=st.integers(0, 3), method=st.sampled_from(["norm", "pmm"]),
       data=st.data())
def test_every_table_shape_gives_a_result_or_a_value_error(tmp_path_factory, n, p,
                                                           method, data):
    # The containers hold at least one row and one column, as a CSV does.
    # Inside that domain each public table function returns a defined
    # result or raises ValueError, and what a writer writes reads back.
    bits = data.draw(arrays(np.uint8, (n, p), elements=st.integers(0, 1)))
    if not n or not p:
        with pytest.raises(ValueError, match="mask has no (rows|columns)"):
            MissMask(bits)
        return
    mask = MissMask(bits)
    values = data.draw(arrays(np.float64, (n, p), elements=st.floats(-1e3, 1e3)))
    d = DataMatrix(values, mask, default_names(p))
    summary = pattern_summary(mask)
    assert sum(count for _, count in summary.distinct_patterns) == n
    assert summary.per_column_rate.tolist() == bits.mean(axis=0).tolist()
    try:
        report = pairwise_dependence(mask)
    except ValueError:
        assert n < 2
    else:
        assert len(report.pairs) == p * (p - 1) // 2
        for pair in report.pairs:
            assert pair.flag == "undetermined" or 0.0 <= pair.p_value <= 1.0
    out = tmp_path_factory.mktemp("s")
    write_csv(d, out / "d.csv")
    back = read_csv(out / "d.csv")
    np.testing.assert_array_equal(bits_of(back.values), bits_of(d.values))
    write_mask_csv(mask, out / "m.csv", d.col_names)
    back_mask, back_names = read_mask_csv(out / "m.csv")
    np.testing.assert_array_equal(back_mask.bits, bits)
    assert back_names == d.col_names
    try:
        result = fcs_impute(d, ImputationConfig(m=2, maxit=2, method=method, donors=1,
                                                seed=0))
    except ValueError:
        return
    for completed in result.completed:
        assert np.isfinite(completed).all()
        np.testing.assert_array_equal(completed[bits == 0], values[bits == 0])
