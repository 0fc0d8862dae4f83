"""Sectioned key=value config files used for run reproduction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdcnet.configfile import format_value, parse_value, read_config, write_config
from fdcnet.errors import FileFormatError


class TestParseValue:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("true", True),
            ("False", False),
            ("42", 42),
            ("-7", -7),
            ("0.5", 0.5),
            ("1e-3", 1e-3),
            ("hello", "hello"),
            ("/some/path.fdcd", "/some/path.fdcd"),
            ("'quoted'", "quoted"),
            ('"also quoted"', "also quoted"),
            ("  padded  ", "padded"),
        ],
    )
    def test_cases(self, text, expected):
        got = parse_value(text)
        assert got == expected and type(got) is type(expected)

    def test_int_before_float(self):
        assert type(parse_value("3")) is int
        assert type(parse_value("3.0")) is float


class TestFormatValue:
    def test_bool_not_int(self):
        assert format_value(True) == "true"
        assert format_value(False) == "false"
        assert format_value(1) == "1"

    def test_float_full_precision(self):
        v = 0.1 + 0.2
        assert parse_value(format_value(v)) == v

    @given(st.one_of(
        st.booleans(),
        st.integers(min_value=-(2**31), max_value=2**31),
        st.floats(allow_nan=False, allow_infinity=False),
    ))
    @settings(max_examples=200, deadline=None)
    def test_round_trip_property(self, v):
        got = parse_value(format_value(v))
        assert got == v and type(got) is type(v)


class TestReadWrite:
    def test_round_trip(self, tmp_path):
        sections = {
            "train": {"epochs": 20, "lr": 0.001, "desk": True, "data": "/tmp/x.fdcd"},
            "eval": {"seed": 0, "sigma": 0.01},
        }
        path = tmp_path / "c.txt"
        write_config(path, sections)
        assert read_config(path) == sections

    def test_comments_and_blanks(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# top comment\n\n[s]\n"
            "a = 1  # trailing comment\n"
            "\n"
            "b = two\n"
        )
        assert read_config(path) == {"s": {"a": 1, "b": "two"}}

    def test_value_may_contain_equals(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[s]\nexpr = a=b\n")
        assert read_config(path)["s"]["expr"] == "a=b"

    def test_repeated_section_merges(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[s]\na = 1\n[t]\nx = 2\n[s]\nb = 3\n")
        assert read_config(path)["s"] == {"a": 1, "b": 3}

    def test_later_key_wins(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[s]\na = 1\na = 2\n")
        assert read_config(path)["s"]["a"] == 2


class TestErrors:
    def test_key_outside_section(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("a = 1\n")
        with pytest.raises(FileFormatError, match=":1:"):
            read_config(path)

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[s]\nok = 1\nbroken line\n")
        with pytest.raises(FileFormatError, match=":3:"):
            read_config(path)

    def test_empty_section_name(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text("[]\n")
        with pytest.raises(FileFormatError, match="section"):
            read_config(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(OSError):
            read_config(tmp_path / "nope.txt")

    def test_undecodable_bytes_name_path(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_bytes(b"\xff\xfe[s]\na = 1\n")
        with pytest.raises(FileFormatError, match="c.txt: not UTF-8"):
            read_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_non_finite_number_names_path_line_and_key(self, tmp_path, value):
        path = tmp_path / "c.txt"
        path.write_text(f"[s]\nok = 1.5\nlr = {value}\n")
        with pytest.raises(FileFormatError, match=r"c.txt:3: lr must be finite"):
            read_config(path)
