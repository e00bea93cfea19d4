"""Flat tabular sources: the CSV side of the conversion.

Cells are either NULL or text, and the two are different things: an
unquoted empty CSV field is NULL (no value collected), while a quoted
empty field `""` is the empty string. Python's csv module collapses the
two, so records are read here, in one of two ways:

- A text with no `"` holds no quoted field, so each of its lines (LF,
  CRLF or a lone CR ends one) is a record, split at its commas, and an
  empty field is NULL. A last empty line, after the final line end, is
  no record. Such a text always splits into records.
- Any other text is read by one compiled pattern that matches a field
  and the separator after it; it gives the same records on a text both
  ways could read, and raises CsvError on a malformed quoted field.

`TableSource` is the one place a header is checked; `load_csv` builds
it from the header record first.

`write_csv` writes a column at a time. A column with no NULL, no empty
string and no `,`, `"`, CR or LF in any cell (one search of its joined
cells) is written as it is; only the cells of any other column go
through the per-field rule: NULL as a bare empty field, the empty
string as `""`, and a cell holding one of those four characters quoted
with its `"` doubled. The records are the columns zipped and joined by
`,`, each ended by LF.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Optional

from .errors import CsvError, DuplicateHeaderError, RaggedRowError
from .lexer import split_lines

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


# One field and the separator after it. A quoted body is pairs of `""` and
# other characters; an unquoted field may hold `"` but not start with one.
# A character other than `"` right after a quoted field is caught as `junk`;
# a quoted field with no closing quote does not match at all.
_FIELD = re.compile(
    r'(?:"([^"]*(?:""[^"]*)*)"|([^",\r\n][^,\r\n]*))?(?:(,|\r\n|\n|\r|\Z)|([^"]))'
)


def _parse_records(text: str) -> list[list[Cell]]:
    """Split CSV text into records of cells; NULL for unquoted empties."""
    if '"' not in text:
        lines = split_lines(text)
        if not lines[-1]:
            lines.pop()  # the text ended with a line end, or was empty
        records = [line.split(",") for line in lines]
        return [[f or None for f in r] if "" in r else r for r in records]
    if text.startswith("\ufeff"):
        text = text[1:]
    records: list[list[Cell]] = []
    record: list[Cell] = []
    end = 0
    for m in _FIELD.finditer(text):
        if m.start() != end:  # a quote at `end` opened a field that never closes
            raise CsvError(f"unterminated quoted field in record {len(records) + 1}")
        quoted, bare, sep, junk = m.groups()
        if junk is not None:
            raise CsvError(
                f"unexpected character {junk!r} after quoted field in record {len(records) + 1}"
            )
        if not record and m.start() == m.end():
            break  # the input ended right after a record
        end = m.end()
        record.append(bare if quoted is None else quoted.replace('""', '"'))
        if sep != ",":
            records.append(record)
            record = []
            if not sep:
                break
    return records


def load_csv(text: str, name: str = "") -> TableSource:
    """Parse RFC 4180 CSV text; the first record is the header."""
    records = _parse_records(text)
    if not records:
        raise CsvError("empty input: no header record")
    table = TableSource(name, tuple("" if c is None else c for c in records[0]))
    header = table.columns
    body = records[1:]
    width = len(header)
    if any(map(width.__ne__, map(len, body))):
        number, record = next((n, r) for n, r in enumerate(body, 2) if len(r) != width)
        raise RaggedRowError(number, width, len(record))
    table.rows = list(map(dict, map(zip, repeat(header), body)))
    return table


# A character that only a quoted field can hold.
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_field(cell: Cell) -> str:
    if cell is None:
        return ""
    if cell == "":
        return '""'
    if _NEEDS_QUOTES.search(cell):
        return '"' + cell.replace('"', '""') + '"'
    return cell


def _format_column(cells: list[Cell]) -> list[str]:
    """Each cell's CSV field. A column with no NULL, no empty string and
    no character to quote is its own list of fields, returned as it is."""
    if None in cells or "" in cells or _NEEDS_QUOTES.search("".join(cells)):
        return list(map(_format_field, cells))
    return cells


def write_csv(table: TableSource) -> str:
    """Render a table as CSV text (LF line endings, NULL as bare empty)."""
    rows = table.rows
    columns = [_format_column(list(map(itemgetter(c), rows))) for c in table.columns]
    lines = [",".join(map(_format_field, table.columns))]
    lines += map(",".join, zip(*columns)) if columns else repeat("", len(rows))
    return "\n".join(lines) + "\n"
