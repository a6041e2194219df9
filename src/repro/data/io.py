"""CSV import/export: apply table-GAN to user-supplied data.

The evaluation pipeline generates its four datasets synthetically, but a
downstream user wants to point the library at their own table.  This
module reads a CSV into a schema-valid :class:`~repro.data.table.Table`
(with column kinds inferred or declared), and writes Tables back out with
categorical codes decoded.

:class:`RowRenderer` is the one place decoded rows become text: CSV
lines for files, sinks and CSV responses, and newline-ended JSON rows
for JSON/NDJSON responses.  It renders column by column, so each
cell's text is built once and shared by both formats, and it is
byte-identical to ``csv.writer`` over :func:`decoded_rows` and to
``json.dumps`` of each decoded row.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from repro.data.schema import ColumnKind, ColumnRole, ColumnSpec, TableSchema
from repro.data.table import Table


def _parse_numeric(values: list[str]) -> np.ndarray | None:
    """Parse strings to floats, or None if any value is non-numeric."""
    out = np.empty(len(values))
    for i, raw in enumerate(values):
        try:
            out[i] = float(raw)
        except ValueError:
            return None
    return out


def infer_column(name: str, values: list[str], role: ColumnRole,
                 force_categorical: bool = False) -> tuple[ColumnSpec, np.ndarray]:
    """Infer one column's kind and produce its numeric representation.

    Numeric columns become CONTINUOUS (or DISCRETE when every value is an
    integer); non-numeric or forced columns become CATEGORICAL with a
    sorted vocabulary and integer codes.
    """
    numeric = None if force_categorical else _parse_numeric(values)
    if numeric is not None:
        if np.allclose(numeric, np.rint(numeric)):
            return ColumnSpec(name, ColumnKind.DISCRETE, role), numeric
        return ColumnSpec(name, ColumnKind.CONTINUOUS, role), numeric
    vocabulary = tuple(sorted(set(values)))
    index = {v: i for i, v in enumerate(vocabulary)}
    codes = np.array([index[v] for v in values], dtype=np.float64)
    spec = ColumnSpec(name, ColumnKind.CATEGORICAL, role, vocabulary)
    return spec, codes


def read_csv(path, qids=(), label: str | None = None,
             categorical=(), identifiers=(),
             regression_target: str | None = None) -> Table:
    """Read a CSV file into a Table, inferring column kinds.

    Parameters
    ----------
    path:
        CSV file with a header row.
    qids:
        Column names to mark as quasi-identifiers.
    label:
        Name of the binary ground-truth column (enables the classifier
        network and the model-compatibility tests).
    categorical:
        Columns to force to CATEGORICAL even if their values parse as
        numbers (e.g. ZIP codes).
    identifiers:
        Columns to *drop* entirely (SSNs etc.; never synthesized).
    regression_target:
        Continuous column for regression compatibility tests.
    """
    qids = set(qids)
    categorical = set(categorical)
    identifiers = set(identifiers)
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path} is empty") from None
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path} has a header but no data rows")
    for row in rows:
        if len(row) != len(header):
            raise ValueError(
                f"ragged CSV: row with {len(row)} cells, header has {len(header)}"
            )
    known = set(header)
    for group, group_name in ((qids, "qids"), (categorical, "categorical"),
                              (identifiers, "identifiers")):
        missing = group - known
        if missing:
            raise KeyError(f"{group_name} not in CSV header: {sorted(missing)}")
    if label is not None and label not in known:
        raise KeyError(f"label {label!r} not in CSV header")

    columns, data = [], []
    for j, name in enumerate(header):
        if name in identifiers:
            continue
        values = [row[j] for row in rows]
        if name == label:
            role = ColumnRole.LABEL
        elif name in qids:
            role = ColumnRole.QID
        else:
            role = ColumnRole.SENSITIVE
        spec, column = infer_column(name, values, role, name in categorical)
        columns.append(spec)
        data.append(column)
    schema = TableSchema(columns, regression_target=regression_target)
    return Table(np.column_stack(data), schema)


def decoded_rows(table: Table) -> list[list]:
    """Every row of ``table`` as a list with categoricals decoded.

    The Python values whose text :class:`RowRenderer` writes: cell for
    cell what ``csv.writer`` and ``json.dumps`` render identically.
    """
    decoded = [table.decode_column(name) for name in table.schema.names]
    return [list(row) for row in zip(*decoded)]


#: Rows rendered per step: bounds the per-cell strings alive at once, so
#: rendering memory does not grow with the block size.
RENDER_ROWS = 256
#: Widest text one numeric cell can render to: a float64 ``repr``
#: (``-2.2250738585072014e-308``), and the integer nearest the largest
#: finite float64 with its sign.
_FLOAT_WIDTH = 24
_INT_WIDTH = len(str(int(-np.finfo(np.float64).max)))
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _csv_field(text: str, alone: bool) -> str:
    """``text`` exactly as ``csv.writer`` writes it as one field.

    ``alone`` marks the only field of a row, where ``csv.writer`` quotes
    an empty string so the row does not read back as a blank line.
    """
    buffer = io.StringIO()
    csv.writer(buffer).writerow([text] if alone else [text, ""])
    line = buffer.getvalue()
    return line[:-2] if alone else line[:-3]


def json_array(ndjson: bytes) -> bytes:
    """The JSON array of newline-ended JSON rows.

    Safe as a byte replace because JSON text never holds a raw newline
    (strings escape it).
    """
    return b"[" + ndjson[:-1].replace(b"\n", b",") + b"]"


class RowRenderer:
    """Column-wise CSV and JSON text for decoded value blocks of one schema.

    The output is byte-identical to ``csv.writer(...).writerows(
    decoded_rows(table))`` and to one ``json.dumps(row, separators=(",",
    ":"))`` plus a newline per decoded row.  Categorical text is rendered
    once per vocabulary entry; numeric cells are formatted once per value
    and shared by both formats.

    :attr:`max_csv_row_bytes` and :attr:`max_json_row_bytes` bound the
    encoded size of any row this schema can render, whatever the values
    (categorical codes are clipped into the vocabulary, numbers are
    float64).
    """

    def __init__(self, schema: TableSchema):
        self.schema = schema
        alone = schema.n_columns == 1
        kinds = [spec.kind for spec in schema.columns]
        self._continuous = [j for j, kind in enumerate(kinds)
                            if kind is ColumnKind.CONTINUOUS]
        self._discrete = [j for j, kind in enumerate(kinds)
                          if kind is ColumnKind.DISCRETE]
        #: ``(column, CSV vocabulary, JSON vocabulary)`` per categorical.
        self._categorical = []
        csv_width = json_width = 0
        for j, spec in enumerate(schema.columns):
            if spec.kind is ColumnKind.CATEGORICAL:
                csv_vocab = [_csv_field(c, alone) for c in spec.categories]
                json_vocab = [json.dumps(c) for c in spec.categories]
                csv_width += max(len(t.encode("utf-8")) for t in csv_vocab)
                json_width += max(map(len, json_vocab))
                self._categorical.append(
                    (j, np.array(csv_vocab, dtype=object),
                     np.array(json_vocab, dtype=object)))
        numeric_width = (_FLOAT_WIDTH * len(self._continuous)
                         + _INT_WIDTH * len(self._discrete))
        commas = schema.n_columns - 1
        self.max_csv_row_bytes = csv_width + numeric_width + commas + 2
        self.max_json_row_bytes = json_width + numeric_width + commas + 3
        self._ascii = all(t.isascii() for _, vocab, _ in self._categorical
                          for t in vocab)
        self.header = (",".join(_csv_field(name, alone)
                                for name in schema.names)
                       + "\r\n").encode("utf-8")

    def _cells(self, values: np.ndarray) -> tuple[list, list]:
        """Per column, the CSV and the JSON text of each cell.

        Numeric columns are formatted together (one ``tolist`` per kind)
        and their text serves both formats.
        """
        n = self.schema.n_columns
        csv_cells, json_cells = [None] * n, [None] * n
        if self._continuous:
            block = values[:, self._continuous]
            texts = [list(map(repr, col)) for col in block.T.tolist()]
            json_texts = texts
            if not np.isfinite(block).all():
                json_texts = [[_JSON_NONFINITE.get(t, t) for t in col]
                              for col in texts]
            for j, text, json_text in zip(self._continuous, texts,
                                          json_texts):
                csv_cells[j], json_cells[j] = text, json_text
        if self._discrete:
            rounded = np.rint(values[:, self._discrete])
            if np.abs(rounded).max(initial=0.0) < 2.0 ** 62:
                columns = rounded.astype(np.int64).T.tolist()
            else:  # int64 would overflow (or NaN, which int() rejects)
                columns = [[int(v) for v in col]
                           for col in rounded.T.tolist()]
            for j, col in zip(self._discrete, columns):
                csv_cells[j] = json_cells[j] = list(map(str, col))
        for j, csv_vocab, json_vocab in self._categorical:
            codes = np.clip(np.rint(values[:, j]).astype(int), 0,
                            len(csv_vocab) - 1)
            csv_cells[j] = csv_vocab[codes].tolist()
            json_cells[j] = json_vocab[codes].tolist()
        return csv_cells, json_cells

    def render(self, values, with_csv: bool = True, with_json: bool = True):
        """Yield ``(csv, csv_lengths, ndjson, json_lengths)`` per
        :data:`RENDER_ROWS` rows: encoded text and each row's byte length
        (``None`` for a format not asked for)."""
        values = np.asarray(values, dtype=np.float64)
        for start in range(0, values.shape[0], RENDER_ROWS):
            csv_cells, json_cells = self._cells(
                values[start:start + RENDER_ROWS])
            csv_text = csv_lengths = json_text = json_lengths = None
            if with_csv:
                lines = list(map(",".join, zip(*csv_cells)))
                if self._ascii:
                    csv_text = ("\r\n".join(lines) + "\r\n").encode("ascii")
                    csv_lengths = np.fromiter(map(len, lines), np.int64,
                                              len(lines)) + 2
                else:
                    encoded = [line.encode("utf-8") for line in lines]
                    csv_text = b"\r\n".join(encoded) + b"\r\n"
                    csv_lengths = np.fromiter(map(len, encoded), np.int64,
                                              len(encoded)) + 2
            if with_json:
                rows = list(map(",".join, zip(*json_cells)))
                json_text = ("[" + "]\n[".join(rows) + "]\n").encode("ascii")
                json_lengths = np.fromiter(map(len, rows), np.int64,
                                           len(rows)) + 3
            yield csv_text, csv_lengths, json_text, json_lengths

    def csv(self, values) -> bytes:
        """CSV lines of ``values`` (no header)."""
        return b"".join(text for text, _, _, _ in
                        self.render(values, with_json=False))

    def ndjson(self, values) -> bytes:
        """Newline-ended JSON rows of ``values``."""
        return b"".join(text for _, _, text, _ in
                        self.render(values, with_csv=False))

    def render_into(self, values, csv_buf, csv_offsets, json_buf,
                    json_offsets) -> None:
        """Render ``values`` into preallocated byte buffers.

        ``csv_buf``/``json_buf`` are 1-D ``uint8`` arrays; row ``i``'s text
        lands at ``buf[offsets[i]:offsets[i + 1]]`` (``offsets`` holds
        ``n_rows + 1`` entries).  Text that would not fit raises
        ``ValueError`` rather than being truncated.
        """
        csv_offsets[0] = json_offsets[0] = 0
        row = 0
        for csv_text, csv_lengths, json_text, json_lengths in self.render(
                values):
            n = len(csv_lengths)
            for buf, offsets, text, lengths in (
                    (csv_buf, csv_offsets, csv_text, csv_lengths),
                    (json_buf, json_offsets, json_text, json_lengths)):
                pos = int(offsets[row])
                end = pos + len(text)
                if end > len(buf):
                    raise ValueError(
                        f"rendered rows need {end} bytes; the buffer holds "
                        f"{len(buf)}")
                buf[pos:end] = np.frombuffer(text, dtype=np.uint8)
                np.cumsum(lengths, out=offsets[row + 1:row + 1 + n])
                offsets[row + 1:row + 1 + n] += pos
            row += n


def write_csv(table: Table, path) -> None:
    """Write a Table to CSV, decoding categorical codes to their strings."""
    renderer = RowRenderer(table.schema)
    with open(path, "wb") as handle:
        handle.write(renderer.header)
        for text, _, _, _ in renderer.render(table.values, with_json=False):
            handle.write(text)
