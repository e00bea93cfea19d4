"""RFC 4180 CSV parsing with the NULL / empty-string distinction."""

import random

import pytest

from triplify import TableSource, load_csv, write_csv
from triplify.errors import CsvError, DuplicateHeaderError, RaggedRowError

from genutil import mutated_csv_texts, random_quote_free_csv
from oracles import load_every_field


class TestLoadCsv:
    def test_basic(self):
        t = load_csv("ID,AGE\n1,63\n")
        assert t.columns == ("ID", "AGE")
        assert t.rows == [{"ID": "1", "AGE": "63"}]

    def test_quoted_comma(self):
        t = load_csv('ID,NOTE\n1,"a,b"\n')
        assert t.rows[0]["NOTE"] == "a,b"

    def test_unquoted_empty_is_null(self):
        t = load_csv("ID,AGE\n1,\n")
        assert t.rows[0]["AGE"] is None

    def test_quoted_empty_is_empty_string(self):
        t = load_csv('ID,AGE\n1,""\n')
        assert t.rows[0]["AGE"] == ""

    def test_doubled_quotes(self):
        t = load_csv('ID,NOTE\n1,"say ""hi"""\n')
        assert t.rows[0]["NOTE"] == 'say "hi"'

    def test_quoted_newline(self):
        t = load_csv('ID,NOTE\n1,"line1\nline2"\n')
        assert t.rows[0]["NOTE"] == "line1\nline2"

    def test_crlf_records(self):
        t = load_csv("ID,AGE\r\n1,63\r\n2,64\r\n")
        assert len(t.rows) == 2

    def test_no_trailing_newline(self):
        t = load_csv("ID,AGE\n1,63")
        assert t.rows == [{"ID": "1", "AGE": "63"}]

    def test_ragged_row(self):
        with pytest.raises(RaggedRowError) as err:
            load_csv("ID,AGE\n1,63,extra\n")
        assert err.value.record == 2

    def test_duplicate_header(self):
        with pytest.raises(DuplicateHeaderError):
            load_csv("ID,ID\n1,2\n")

    def test_junk_after_quoted_field(self):
        with pytest.raises(CsvError):
            load_csv('ID\n"a"b\n')

    def test_unterminated_quote(self):
        with pytest.raises(CsvError):
            load_csv('ID\n"abc\n')

    def test_bom_tolerated(self):
        t = load_csv("﻿ID\n1\n")
        assert t.columns == ("ID",)

    def test_empty_text_has_no_header(self):
        with pytest.raises(CsvError):
            load_csv("")

    def test_header_only_file(self):
        t = load_csv("ID,AGE\n")
        assert t.columns == ("ID", "AGE")
        assert t.rows == []

    def test_blank_body_line_is_one_null_row(self):
        t = load_csv("ID\n1\n\n2\n")
        assert t.rows == [{"ID": "1"}, {"ID": None}, {"ID": "2"}]

    def test_cr_only_record_ends(self):
        t = load_csv("ID,AGE\r1,63\r2,64\r")
        assert t.rows == [{"ID": "1", "AGE": "63"}, {"ID": "2", "AGE": "64"}]

    def test_trailing_comma_after_quoted_field(self):
        assert load_csv('ID,AGE\n"1",\n').rows == [{"ID": "1", "AGE": None}]
        assert load_csv('ID,AGE\n"1",').rows == [{"ID": "1", "AGE": None}]

    def test_quote_inside_unquoted_field(self):
        t = load_csv('ID,NOTE\n1,say "hi"\n')
        assert t.rows[0]["NOTE"] == 'say "hi"'

    def test_duplicate_header_wins_over_ragged_row(self):
        with pytest.raises(DuplicateHeaderError):
            load_csv("ID,ID\n1\n")


class TestWriteCsv:
    def test_round_trip_preserves_null_vs_empty(self):
        table = TableSource(
            "T",
            ("A", "B", "C"),
            [
                {"A": "plain", "B": None, "C": ""},
                {"A": "with,comma", "B": 'quo"te', "C": "two\nlines"},
                {"A": "café", "B": "63", "C": None},
            ],
        )
        again = load_csv(write_csv(table), "T")
        assert again.columns == table.columns
        assert again.rows == table.rows

    def test_header_only(self):
        table = TableSource("T", ("A", "B"), [])
        assert write_csv(table) == "A,B\n"


class TestTableSource:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(DuplicateHeaderError):
            TableSource("T", ("A", "A"), [])

    def test_row_shape_enforced(self):
        with pytest.raises(CsvError):
            TableSource("T", ("A", "B"), [{"A": "1"}])


def _outcome(load, text):
    """The table load reads from text, or the type and message of its error."""
    try:
        table = load(text, "T")
    except CsvError as exc:
        return type(exc), str(exc)
    return table.columns, table.rows


class TestQuoteFreeReader:
    """A text with no `"` is split at line ends and commas; every text
    gives the table, or the error, of the reader that matches each field
    with the one field pattern."""

    @pytest.mark.parametrize(
        "text",
        [
            "\ufeffID,AGE\n1,63\n",
            '\ufeffID,NOTE\n1,"a,b"\n',  # a BOM before a text that holds a quote
            "ID,AGE\n1,63\n2,64\n",
            "ID,AGE\r\n1,63\r\n2,64\r\n",
            "ID,AGE\r1,63\r2,64\r",
            "ID,AGE\r\n1,63\n2,64\r3,65",
            "ID,AGE\n1,63",
            "ID,AGE\n1,\n,\n",
            "ID,AGE\n1,",
            "ID\n1\n\n2\n\n",
            "ID\n\n",
            "\n",
            "\r\n\r\n",
            "",
            "\ufeff",
            "ID,NOTE\n1,\ud800\n",
            "ID,AGE\n1,63,extra\n",
            "ID,AGE\n1\n",
            "ID,AGE\n\n",
            "ID,ID\n1\n",
            'ID,AGE\n1,""\n',
            'ID,AGE\n"1",\n2,\r\n',
            'ID,NOTE\n1,say "hi"\n',
        ],
    )
    def test_hand_written(self, text):
        assert _outcome(load_csv, text) == _outcome(load_every_field, text)

    def test_random_quote_free_tables(self):
        rng = random.Random(6131)
        for _ in range(1000):
            text = random_quote_free_csv(rng)
            assert '"' not in text
            assert _outcome(load_csv, text) == _outcome(load_every_field, text), repr(text)

    def test_mutated_csv(self):
        for text in mutated_csv_texts():
            assert _outcome(load_csv, text) == _outcome(load_every_field, text), repr(text)
