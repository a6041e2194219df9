"""RowRenderer: column-wise CSV/JSON text, byte-identical to the stdlib.

The oracle is what the server rendered before the renderer existed:
``csv.writer`` over :func:`decoded_rows`, and one compact ``json.dumps``
per decoded row.
"""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import RENDER_ROWS, RowRenderer, decoded_rows, json_array
from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.table import Table

#: Characters that make csv.writer quote, plus non-ASCII text (one of
#: them outside the BMP, which JSON escapes as a surrogate pair).
ALPHABET = st.sampled_from(list('ab ,"\r\n;\'é€😀\\\t'))
WORDS = st.text(ALPHABET, max_size=6)
LARGEST = float(np.finfo(np.float64).max)


def csv_oracle(table: Table) -> bytes:
    buffer = io.StringIO()
    csv.writer(buffer).writerows(decoded_rows(table))
    return buffer.getvalue().encode("utf-8")


def ndjson_oracle(table: Table) -> bytes:
    return b"".join(json.dumps(row, separators=(",", ":")).encode() + b"\n"
                    for row in decoded_rows(table))


@st.composite
def column_specs(draw, index: int):
    kind = draw(st.sampled_from(list(ColumnKind)))
    categories = ()
    if kind is ColumnKind.CATEGORICAL:
        categories = tuple(draw(st.lists(WORDS, min_size=1, max_size=5,
                                         unique=True)))
    return ColumnSpec(f"c{index}", kind, ColumnRole.SENSITIVE, categories)


@st.composite
def cell_values(draw, spec: ColumnSpec, rows: int):
    if spec.kind is ColumnKind.CATEGORICAL:
        # Fractional and out-of-range codes: decoding rounds and clips.
        values = st.floats(-2.0, spec.n_categories + 1.0)
    elif spec.kind is ColumnKind.DISCRETE:
        values = st.one_of(st.integers(-10**6, 10**6).map(float),
                           st.integers(-2**66, 2**66).map(float),
                           st.floats(-LARGEST, LARGEST))
    else:
        values = st.one_of(st.floats(allow_nan=True, allow_infinity=True),
                           st.floats(-1e-300, 1e-300),
                           st.floats(-1e300, 1e300))
    return draw(st.lists(values, min_size=rows, max_size=rows))


@st.composite
def tables(draw, max_rows: int = 40):
    n_columns = draw(st.integers(1, 4))
    specs = [draw(column_specs(i)) for i in range(n_columns)]
    rows = draw(st.integers(0, max_rows))
    columns = [draw(cell_values(spec, rows)) for spec in specs]
    values = np.array(columns, dtype=np.float64).T.reshape(rows, n_columns)
    return Table(values, TableSchema(specs))


def widest_row(schema: TableSchema, oracle) -> np.ndarray:
    """The row whose ``oracle`` text is the longest the schema can give:
    numbers at their widest float64 text, each categorical at its widest
    vocabulary entry."""
    row = [-LARGEST if spec.kind is ColumnKind.DISCRETE
           else -2.2250738585072014e-308 for spec in schema.columns]
    for j, spec in enumerate(schema.columns):
        if spec.kind is ColumnKind.CATEGORICAL:
            def width(code, j=j):
                trial = list(row)
                trial[j] = float(code)
                return len(oracle(Table(np.array([trial]), schema)))
            row[j] = float(max(range(spec.n_categories), key=width))
    return np.array([row])


class TestByteIdentity:
    @settings(max_examples=200, deadline=None)
    @given(tables())
    def test_matches_csv_writer_and_json_dumps(self, table):
        renderer = RowRenderer(table.schema)
        assert renderer.csv(table.values) == csv_oracle(table)
        ndjson = renderer.ndjson(table.values)
        assert ndjson == ndjson_oracle(table)
        if table.n_rows:
            assert json_array(ndjson) == json.dumps(
                decoded_rows(table), separators=(",", ":")).encode()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(WORDS, min_size=1, max_size=4, unique=True))
    def test_header_matches_csv_writer(self, names):
        names = [f"n{name}" for name in names]  # column names are non-empty
        schema = TableSchema([ColumnSpec(n, ColumnKind.CONTINUOUS,
                                         ColumnRole.SENSITIVE)
                              for n in names])
        buffer = io.StringIO()
        csv.writer(buffer).writerow(names)
        assert RowRenderer(schema).header == buffer.getvalue().encode()

    def test_lone_empty_field_is_quoted(self):
        # csv.writer writes a one-field row holding "" as '""', so the
        # row does not read back as a blank line.
        spec = ColumnSpec("c", ColumnKind.CATEGORICAL, ColumnRole.SENSITIVE,
                          ("", "x"))
        table = Table(np.array([[0.0], [1.0], [0.0]]), TableSchema([spec]))
        expected = b'""\r\nx\r\n""\r\n'
        assert RowRenderer(table.schema).csv(table.values) == expected
        assert csv_oracle(table) == expected

    def test_huge_discrete_and_exponent_floats(self):
        schema = TableSchema([
            ColumnSpec("d", ColumnKind.DISCRETE, ColumnRole.SENSITIVE),
            ColumnSpec("f", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE)])
        # Around int64's edge (2**63) and far beyond it.
        table = Table(np.array([[1e300, 1e-7], [-2.0**70, 1e22],
                                [2.0**62, float("nan")], [2.0**63, 0.5],
                                [-2.0**63, -0.0], [3.0 * 2**64, 1e16]]),
                      schema)
        renderer = RowRenderer(schema)
        assert renderer.csv(table.values) == csv_oracle(table)
        assert renderer.ndjson(table.values) == ndjson_oracle(table)
        for i in range(table.n_rows):  # each row alone, too
            row = table.take([i])
            assert renderer.csv(row.values) == csv_oracle(row)
            assert renderer.ndjson(row.values) == ndjson_oracle(row)
        assert b"1e-07" in renderer.csv(table.values)
        assert b"NaN" in renderer.ndjson(table.values)

    def test_steps_of_render_rows_join_seamlessly(self, adult_bundle):
        table = adult_bundle.train
        rows = 2 * RENDER_ROWS + 37
        part = table.take(np.arange(rows) % table.n_rows)
        renderer = RowRenderer(part.schema)
        steps = list(renderer.render(part.values))
        assert len(steps) == 3
        assert all(len(csv_lengths) <= RENDER_ROWS
                   for _, csv_lengths, _, _ in steps)
        assert renderer.csv(part.values) == csv_oracle(part)
        assert renderer.ndjson(part.values) == ndjson_oracle(part)


class TestRenderInto:
    @settings(max_examples=100, deadline=None)
    @given(tables(max_rows=2 * RENDER_ROWS + 10))
    def test_offsets_delimit_each_row_within_the_bound(self, table):
        renderer = RowRenderer(table.schema)
        n = table.n_rows
        csv_buf = np.zeros(n * renderer.max_csv_row_bytes, np.uint8)
        json_buf = np.zeros(n * renderer.max_json_row_bytes, np.uint8)
        csv_offsets = np.zeros(n + 1, np.int64)
        json_offsets = np.zeros(n + 1, np.int64)
        renderer.render_into(table.values, csv_buf, csv_offsets, json_buf,
                             json_offsets)
        assert np.all(np.diff(csv_offsets) <= renderer.max_csv_row_bytes)
        assert np.all(np.diff(json_offsets) <= renderer.max_json_row_bytes)
        assert csv_buf[:csv_offsets[-1]].tobytes() == csv_oracle(table)
        assert json_buf[:json_offsets[-1]].tobytes() == ndjson_oracle(table)
        for i in {0, n // 2, n - 1} if n else ():
            row = table.values[i:i + 1]
            assert csv_buf[csv_offsets[i]:csv_offsets[i + 1]].tobytes() == \
                renderer.csv(row)
            assert json_buf[json_offsets[i]:json_offsets[i + 1]].tobytes() == \
                renderer.ndjson(row)

    def test_overflow_fails_instead_of_truncating(self, adult_bundle):
        table = adult_bundle.train.head(8)
        renderer = RowRenderer(table.schema)
        need = len(renderer.csv(table.values))
        csv_buf = np.zeros(need - 1, np.uint8)
        json_buf = np.zeros(8 * renderer.max_json_row_bytes, np.uint8)
        with pytest.raises(ValueError, match="bytes"):
            renderer.render_into(table.values, csv_buf,
                                 np.zeros(9, np.int64), json_buf,
                                 np.zeros(9, np.int64))
        assert not csv_buf.any()  # nothing written, not a truncated prefix


class TestRowWidthBound:
    @settings(max_examples=100, deadline=None)
    @given(tables(max_rows=0))
    def test_bound_is_the_widest_possible_row(self, table):
        renderer = RowRenderer(table.schema)
        csv_row = widest_row(table.schema, csv_oracle)
        json_row = widest_row(table.schema, ndjson_oracle)
        assert len(renderer.csv(csv_row)) == renderer.max_csv_row_bytes
        assert len(renderer.ndjson(json_row)) == renderer.max_json_row_bytes

    @settings(max_examples=300, deadline=None)
    @given(st.floats(allow_nan=True, allow_infinity=True))
    def test_no_float_renders_wider_than_the_bound(self, value):
        schema = TableSchema([
            ColumnSpec("f", ColumnKind.CONTINUOUS, ColumnRole.SENSITIVE),
            ColumnSpec("d", ColumnKind.DISCRETE, ColumnRole.SENSITIVE)])
        renderer = RowRenderer(schema)
        discrete = value if np.isfinite(value) else 0.0
        row = np.array([[value, discrete]])
        assert len(renderer.csv(row)) <= renderer.max_csv_row_bytes
        assert len(renderer.ndjson(row)) <= renderer.max_json_row_bytes
