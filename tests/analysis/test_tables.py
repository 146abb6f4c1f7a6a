"""Unit tests for the fixed-width table formatter."""

from __future__ import annotations

import pytest

from repro.analysis import format_table


class TestFormatTable:
    def test_basic_layout(self):
        text = format_table(["name", "n"], [["alice", 1], ["bob", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 4

    def test_title_prepended(self):
        text = format_table(["x"], [[1]], title="my table")
        assert text.splitlines()[0] == "my table"

    def test_numeric_columns_right_aligned(self):
        text = format_table(["n"], [[1], [100]])
        rows = text.splitlines()[2:]
        assert rows[0] == "  1"
        assert rows[1] == "100"

    def test_text_columns_left_aligned(self):
        text = format_table(["name"], [["ab"], ["abcd"]])
        rows = text.splitlines()[2:]
        assert rows[0] == "ab  "

    def test_floats_compact(self):
        text = format_table(["p"], [[0.3333333333]])
        assert "0.3333" in text

    def test_integral_floats_rendered_as_ints(self):
        text = format_table(["v"], [[140.0]])
        assert "140" in text
        assert "140.0" not in text

    def test_nan_rendered(self):
        text = format_table(["v"], [[float("nan")]])
        assert "nan" in text

    def test_infinity_rendered(self):
        text = format_table(["v"], [[float("inf")], [float("-inf")]])
        assert "inf" in text
        assert "-inf" in text

    def test_bools_rendered_as_words(self):
        text = format_table(["ok"], [[True], [False]])
        assert "True" in text
        assert "False" in text

    def test_ragged_rows_rejected(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])

    def test_empty_rows_ok(self):
        text = format_table(["a"], [])
        assert len(text.splitlines()) == 2

    def test_generator_rows_accepted(self):
        text = format_table(["a"], ([i] for i in range(3)))
        assert len(text.splitlines()) == 5
