"""File formats: MatrixMarket readers, vector files, and trace CSV.

Traces are written as RFC-4180 CSV (CRLF lines, '.' decimal, scientific
notation with 17 significant digits so doubles round-trip exactly), with a
schema-version line ahead of the column header.
"""

from __future__ import annotations

import csv
import io
import math
import typing

import numpy as np
import scipy.io
import scipy.sparse as sp

from .errors import UnsupportedFormat
from .solver import TRACE_COLUMNS, TraceRow

TRACE_SCHEMA = "lsbe-trace v1"
# Column name -> type (int or float), from the TraceRow fields.
_COLUMN_TYPES = typing.get_type_hints(TraceRow)


def load_matrix(path: str):
    """Read a MatrixMarket matrix; coordinate files come back in
    compressed-column form, array files dense.  Complex and pattern fields
    are rejected."""
    _, _, _, _, field, _ = scipy.io.mminfo(path)
    if field not in ("real", "integer"):
        raise UnsupportedFormat(
            f"{path}: MatrixMarket field {field!r} not supported "
            "(only real or integer)")
    M = scipy.io.mmread(path)
    if sp.issparse(M):
        return M.tocsc().astype(float)
    return np.asarray(M, dtype=float)


def load_dense(path: str) -> np.ndarray:
    """Read a dense vector or matrix: MatrixMarket array format when the
    file carries the banner, whitespace-separated text otherwise."""
    with open(path, "rb") as fh:
        head = fh.read(15)
    if head.startswith(b"%%MatrixMarket"):
        M = load_matrix(path)
        if sp.issparse(M):
            M = M.toarray()
        return np.asarray(M, dtype=float)
    return np.atleast_1d(np.loadtxt(path, dtype=float))


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def write_trace_csv(rows: list[TraceRow], path: str) -> None:
    """Serialize trace rows; deterministic byte-for-byte for equal rows."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# {TRACE_SCHEMA}\r\n")
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([_fmt(getattr(row, col))
                             for col in TRACE_COLUMNS])


def read_trace_csv(path: str) -> list[TraceRow]:
    """Parse a trace CSV back into rows (exact round trip)."""
    with open(path, "r", newline="") as fh:
        text = fh.read()
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    reader = csv.reader(io.StringIO("\n".join(lines)))
    header = next(reader)
    if header != TRACE_COLUMNS:
        raise UnsupportedFormat(f"{path}: unexpected trace columns {header}")
    return [TraceRow(**{col: _COLUMN_TYPES[col](value)
                        for col, value in zip(TRACE_COLUMNS, rec)})
            for rec in reader if rec]


def trace_schema_of(path: str) -> str:
    with open(path, "r", newline="") as fh:
        first = fh.readline().strip()
    return first[1:].strip() if first.startswith("#") else ""


def fmt_float(x: float) -> str:
    """17-significant-digit rendering used across reports."""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return _fmt(x)


__all__ = ["load_matrix", "load_dense", "write_trace_csv", "read_trace_csv",
           "trace_schema_of", "fmt_float", "TRACE_SCHEMA"]
