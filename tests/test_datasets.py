from __future__ import annotations

import json

import pytest

from clasp.datasets import (
    Example,
    RowMalformed,
    read_mtop_rows,
    read_pizza_rows,
    read_records,
)


def write(path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def mtop_line(tokens_json: str, locale: str = "fr_XX") -> str:
    return "\t".join(["fr-1", "IN:X", "", "Bonjour", "test", locale, "[IN:X ]", tokens_json])


class TestReadRecords:
    def test_invalid_line_is_named_by_its_file_line_number(self, tmp_path):
        path = write(tmp_path / "r.jsonl", ['{"a": 1}', "", "{not json"])
        with pytest.raises(RowMalformed, match=r"r\.jsonl:3: invalid JSON record"):
            read_records(path)

    def test_blank_lines_are_skipped(self, tmp_path):
        path = write(tmp_path / "r.jsonl", ['{"a": 1}', "   ", '{"a": 2}'])
        assert read_records(path) == [{"a": 1}, {"a": 2}]


class TestReadPizzaRows:
    def test_keys_become_their_upper_cased_suffix(self, tmp_path):
        record = {"train.SRC": "a pizza", "train.TOP": "(ORDER )",
                  "dev.exr": "x", "cf": "y"}
        path = write(tmp_path / "p.jsonl", [json.dumps(record)])
        assert read_pizza_rows(path) == [
            {"SRC": "a pizza", "TOP": "(ORDER )", "EXR": "x", "CF": "y"}
        ]

    def test_row_without_top_is_rejected(self, tmp_path):
        path = write(tmp_path / "p.jsonl", [json.dumps({"train.SRC": "a"})])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:1: row lacks SRC/TOP"):
            read_pizza_rows(path)

    def test_non_object_is_rejected(self, tmp_path):
        path = write(tmp_path / "p.jsonl", ['{"SRC": "a", "TOP": "b"}', "[1, 2]"])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:2: expected a JSON object"):
            read_pizza_rows(path)


class TestReadMtopRows:
    def test_tokens_and_language_come_from_their_columns(self, tmp_path):
        path = write(tmp_path / "m.tsv", [mtop_line('{"tokens": ["Bon", "jour"]}')])
        (row,) = read_mtop_rows(path)
        assert row["tokens"] == ["Bon", "jour"]
        assert row["lang"] == "fr"
        assert row["utterance"] == "Bonjour"

    @pytest.mark.parametrize(
        "tokens_json", ["not json", '{"toks": []}', '["a"]'],
        ids=["not-json", "no-tokens-key", "not-an-object"],
    )
    def test_bad_tokens_column(self, tmp_path, tokens_json):
        path = write(tmp_path / "m.tsv", [mtop_line('{"tokens": []}'), mtop_line(tokens_json)])
        with pytest.raises(RowMalformed, match=r"m\.tsv:2: bad tokens column"):
            read_mtop_rows(path)

    def test_tokens_must_be_strings(self, tmp_path):
        path = write(tmp_path / "m.tsv", [mtop_line('{"tokens": ["a", 1]}')])
        with pytest.raises(RowMalformed, match="tokens must be a list of strings"):
            read_mtop_rows(path)

    def test_short_row_is_rejected(self, tmp_path):
        path = write(tmp_path / "m.tsv", ["fr-1\tIN:X"])
        with pytest.raises(RowMalformed, match=r"m\.tsv:1: expected 8 tab-separated"):
            read_mtop_rows(path)


class TestExample:
    def test_missing_field_is_named(self):
        with pytest.raises(RowMalformed, match="missing field 'parse'"):
            Example.from_dict({"id": "a", "lang": "en", "text": "t"})

    def test_round_trip_keeps_optional_fields(self):
        ex = Example("a", "en", "t", "(ORDER )", source="dev", cf="c")
        assert Example.from_dict(ex.to_dict()) == ex
        bare = Example("b", "en", "t", "(ORDER )")
        assert "cf" not in bare.to_dict()
        assert Example.from_dict(bare.to_dict()) == bare
