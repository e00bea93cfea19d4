"""Flat tabular sources: the CSV side of the conversion.

Cells are either NULL or text, and the two are different things: an
unquoted empty CSV field is NULL (no value collected), while a quoted
empty field `""` is the empty string. Python's csv module collapses the
two, so parsing is done here by hand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from .errors import CsvError, DuplicateHeaderError, RaggedRowError

Cell = Optional[str]
Row = dict[str, Cell]


@dataclass(slots=True)
class TableSource:
    """One named table: ordered columns, rows as column->cell dicts."""

    name: str
    columns: tuple[str, ...]
    rows: list[Row] = field(default_factory=list)

    def __post_init__(self):
        self.columns = tuple(self.columns)
        if len(set(self.columns)) != len(self.columns):
            raise DuplicateHeaderError(_first_duplicate(self.columns))
        want = set(self.columns)
        for i, row in enumerate(self.rows, start=1):
            if set(row) != want:
                raise CsvError(f"row {i} does not match the table columns")


def _first_duplicate(names: Iterable[str]) -> str:
    seen = set()
    for n in names:
        if n in seen:
            return n
        seen.add(n)
    return ""


def _parse_records(text: str) -> list[list[Cell]]:
    """Split CSV text into records of cells; NULL for unquoted empties."""
    if text.startswith("﻿"):
        text = text[1:]
    records: list[list[Cell]] = []
    record: list[Cell] = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == '"':
            # Quoted field: doubled quotes collapse, newlines pass through.
            parts: list[str] = []
            i += 1
            while True:
                end = text.find('"', i)
                if end < 0:
                    raise CsvError(f"unterminated quoted field in record {len(records) + 1}")
                parts.append(text[i:end])
                if text.startswith('""', end):
                    parts.append('"')
                    i = end + 2
                    continue
                i = end + 1
                break
            record.append("".join(parts))
            if i < n and text[i] not in ",\r\n":
                raise CsvError(
                    f"unexpected character {text[i]!r} after quoted field "
                    f"in record {len(records) + 1}"
                )
        else:
            end = i
            while end < n and text[end] not in ",\r\n":
                end += 1
            record.append(text[i:end] if end > i else None)
            i = end
        if i >= n:
            break
        if text[i] == ",":
            i += 1
            if i >= n:  # trailing comma: one final NULL field
                record.append(None)
            continue
        if text[i] == "\r":
            i += 2 if text.startswith("\r\n", i) else 1
        else:
            i += 1
        records.append(record)
        record = []
    if record:
        records.append(record)
    return records


def load_csv(text: str, name: str = "") -> TableSource:
    """Parse RFC 4180 CSV text; the first record is the header."""
    records = _parse_records(text)
    if not records:
        raise CsvError("empty input: no header record")
    header = tuple("" if c is None else c for c in records[0])
    seen: set[str] = set()
    for col in header:
        if col in seen:
            raise DuplicateHeaderError(col)
        seen.add(col)
    rows: list[Row] = []
    for number, record in enumerate(records[1:], start=2):
        if len(record) != len(header):
            raise RaggedRowError(number, len(header), len(record))
        rows.append(dict(zip(header, record)))
    return TableSource(name=name, columns=header, rows=rows)


def _format_field(cell: Cell) -> str:
    if cell is None:
        return ""
    if cell == "":
        return '""'
    if any(c in cell for c in ',"\r\n'):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def write_csv(table: TableSource) -> str:
    """Render a table as CSV text (LF line endings, NULL as bare empty)."""
    lines = [",".join(_format_field(c) for c in table.columns)]
    for row in table.rows:
        lines.append(",".join(_format_field(row[c]) for c in table.columns))
    return "\n".join(lines) + "\n"
