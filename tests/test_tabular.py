"""RFC 4180 CSV parsing with the NULL / empty-string distinction."""

import pytest

from triplify import TableSource, load_csv, write_csv
from triplify.errors import CsvError, DuplicateHeaderError, RaggedRowError


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
