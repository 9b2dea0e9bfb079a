"""National input-output table ingestion.

The normalized table is a CSV with the exact header

    industry_index,industry_name,X_1,...,X_m,final_consumption,gcf_inventory,export,import,gross_output

and one row per supplying industry k (``X_i`` is the value of good k used
by industry i).  Final consumption and gross capital formation / inventory
changes are kept as separate columns for auditability; the model consumes
their sum.  A ``meta.csv`` in the same directory carries the header
``country,year,currency`` and one row of those three cells; the country
names the report files, so it must be a single path component.  An input
file that cannot be opened, decoded or split into cells is a
:class:`SchemaError`, and rows of blank cells are skipped.

The ``m + 5`` numeric cells of the body rows form one ``(m, m + 5)``
block: ``X`` followed by the five fixed columns, which fill the table
fields ``fc, gcf, E, Imp, Xout``.  The parser reads each row of the block
in one pass and names a faulty cell by its header column; the serializer
writes one row of the same block per industry.

Upstream spreadsheets vary by vintage, so this module parses only the
normalized layout; converting a published workbook into it is a documented,
user-side step.  Totals are recomputed internally and never trusted from
the file.  Negative cells fail loudly unless clamping is explicitly
requested.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from .errors import NegativeValue, SchemaError
from .exchange import _nonneg_square, _vector
from .leontief import IOAccounts

__all__ = ["NiotTable", "parse_niot", "serialize_niot"]

# The columns after the X block, and the NiotTable field each one fills.
_FIXED_COLUMNS = ("final_consumption", "gcf_inventory", "export", "import", "gross_output")
_FIXED_FIELDS = ("fc", "gcf", "E", "Imp", "Xout")


@dataclass(frozen=True)
class NiotTable:
    """Parsed national table in value units.

    ``indices`` are the declared industry indices from the file (the
    published numbering); ``fc`` and ``gcf`` stay separate, with
    ``final_consumption`` as their sum.
    """

    country: str
    year: int
    currency: str
    indices: tuple[int, ...]
    names: tuple[str, ...]
    X: np.ndarray
    fc: np.ndarray
    gcf: np.ndarray
    E: np.ndarray
    Imp: np.ndarray
    Xout: np.ndarray

    @property
    def m(self) -> int:
        return self.X.shape[0]

    @property
    def final_consumption(self) -> np.ndarray:
        return self.fc + self.gcf

    def to_accounts(self, pi=1.0) -> IOAccounts:
        """Value-form accounts with the taxation shares ``pi`` (scalar
        broadcast or per-industry vector, as :class:`IOAccounts` takes
        them)."""
        return IOAccounts(
            X=self.X,
            Xout=self.Xout,
            Cf=self.final_consumption,
            E=self.E,
            Imp=self.Imp,
            pi=pi,
        )


def _expected_header(m: int) -> list[str]:
    return (
        ["industry_index", "industry_name"]
        + [f"X_{i}" for i in range(1, m + 1)]
        + list(_FIXED_COLUMNS)
    )


def _read_rows(path: Path, what: str = "") -> list[list[str]]:
    """The CSV rows of ``path`` that have a non-blank cell."""
    try:
        with path.open(newline="") as fh:
            return [r for r in csv.reader(fh) if any(cell.strip() for cell in r)]
    except (OSError, UnicodeError, csv.Error) as e:
        raise SchemaError(None, None, f"cannot read {what}{path}: {e}") from e


def _parse_cell(text: str, row: int, col: str, clamp_negative: bool) -> float:
    try:
        value = float(text)
    except ValueError:
        raise SchemaError(row, col, f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise SchemaError(row, col, f"non-finite value {text!r}")
    if value < 0:
        if not clamp_negative:
            raise NegativeValue(row, col, value)
        warnings.warn(
            f"clamping negative cell at row {row}, column {col}: {value!r}",
            RuntimeWarning,
            stacklevel=3,
        )
        value = 0.0
    return value


def parse_niot(path, clamp_negative: bool = False) -> NiotTable:
    """Parse a normalized table CSV (and ``meta.csv`` beside it)."""
    path = Path(path)
    rows = _read_rows(path)
    if not rows:
        raise SchemaError(None, None, "empty table file")

    header = [h.strip() for h in rows[0]]
    m = len(header) - 2 - len(_FIXED_COLUMNS)
    if m < 1 or header != _expected_header(m):
        raise SchemaError(0, None, f"header does not match the normalized schema: {header}")
    body = rows[1:]
    if len(body) != m:
        raise SchemaError(None, None, f"expected {m} industry rows, found {len(body)}")

    first_row: dict[int, int] = {}  # declared index -> its row, in file order
    names: list[str] = []
    columns = header[2:]  # the numeric block's column names, checked above
    block = np.empty((m, len(columns)))
    for k, row in enumerate(body, start=1):
        if len(row) != len(header):
            raise SchemaError(k, None, f"expected {len(header)} cells, found {len(row)}")
        try:
            index = int(row[0])
        except ValueError:
            raise SchemaError(k, "industry_index", f"not an integer: {row[0]!r}") from None
        if index in first_row:
            raise SchemaError(
                k, "industry_index", f"duplicate index {index} (first on row {first_row[index]})"
            )
        first_row[index] = k
        names.append(row[1].strip())
        # map adds no frame, so the clamping warning still names parse_niot's caller
        block[k - 1] = list(map(_parse_cell, row[2:], repeat(k), columns, repeat(clamp_negative)))

    country, year, currency = "XXX", 0, "value units"
    meta_path = path.parent / "meta.csv"
    if not meta_path.exists():
        warnings.warn(
            f"no meta.csv beside {path}: country XXX and year 0, so reports are named XXX_0_*",
            RuntimeWarning,
            stacklevel=2,
        )
    else:
        meta_rows = _read_rows(meta_path)
        if len(meta_rows) < 2 or [h.strip() for h in meta_rows[0]] != ["country", "year", "currency"]:
            raise SchemaError(0, None, "meta.csv must have header country,year,currency")
        if len(meta_rows[1]) != 3:
            raise SchemaError(1, None, f"expected 3 cells, found {len(meta_rows[1])}")
        country = meta_rows[1][0].strip()
        # the country names the report files, so it must stay one path component
        if any(c in country for c in (os.sep, os.altsep, "\0") if c):
            raise SchemaError(1, "country", f"not a single path component: {country!r}")
        try:
            year = int(meta_rows[1][1])
        except ValueError:
            raise SchemaError(1, "year", f"not an integer: {meta_rows[1][1]!r}") from None
        currency = meta_rows[1][2].strip()

    return NiotTable(
        country=country,
        year=year,
        currency=currency,
        indices=tuple(first_row),
        names=tuple(names),
        X=block[:, :m].copy(),
        **{name: block[:, m + j].copy() for j, name in enumerate(_FIXED_FIELDS)},
    )


def serialize_niot(table: NiotTable, path) -> None:
    """Write a table back in the normalized layout, with its ``meta.csv``
    beside it.

    Floats are written with ``repr``, which round-trips exactly.  Before
    any file is created, ValueError is raised unless ``X`` is square,
    every array is finite and nonnegative with one entry per industry, and
    ``indices`` and ``names`` have one entry per industry with no index
    repeated, so that :func:`parse_niot` can read the table back.
    """
    X = _nonneg_square(table.X, "X")
    m = X.shape[0]
    fixed = [_vector(getattr(table, name), m, name) for name in _FIXED_FIELDS]
    block = np.column_stack([X, *fixed])
    for name in ("indices", "names"):
        labels = getattr(table, name)
        if len(labels) != m:
            raise ValueError(f"{name} must have length {m}, got {len(labels)}")
    if len(set(table.indices)) != m:
        repeated = next(i for k, i in enumerate(table.indices) if i in table.indices[:k])
        raise ValueError(f"duplicate index {repeated}")
    path = Path(path)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_expected_header(m))
        for index, name, values in zip(table.indices, table.names, block.tolist()):
            writer.writerow([index, name, *map(repr, values)])
    with (path.parent / "meta.csv").open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["country", "year", "currency"])
        writer.writerow([table.country, table.year, table.currency])


def parse_pi(text: str) -> float | np.ndarray:
    """Interpret a --pi argument: a scalar literal or a CSV file of values."""
    try:
        return float(text)
    except ValueError:
        pass
    path = Path(text)
    cells = [c for row in _read_rows(path, "pi file ") for c in row if c.strip()]
    if not cells:
        raise SchemaError(None, None, f"pi file {path} is empty")
    try:
        return np.array([float(c) for c in cells])
    except ValueError as e:
        raise SchemaError(None, None, f"pi file {path}: {e}") from e


def parse_blocks(path) -> tuple[tuple[int, ...], ...]:
    """Read an aggregation map: one block per line of comma-separated
    1-based industry indices."""
    path = Path(path)
    try:
        lines = path.read_text().splitlines()
    except (OSError, UnicodeError) as e:
        raise SchemaError(None, None, f"cannot read map file {path}: {e}") from e
    blocks = []
    for ln, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            members = tuple(int(tok) - 1 for tok in line.split(","))
        except ValueError:
            raise SchemaError(ln, None, f"bad block line: {line!r}") from None
        blocks.append(members)
    if not blocks:
        raise SchemaError(None, None, f"map file {path} has no blocks")
    return tuple(blocks)
