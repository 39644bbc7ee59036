from __future__ import annotations

import ast
import json
from pathlib import Path

import pytest

import clasp
from clasp.datasets import (
    Example,
    FileMalformed,
    RowMalformed,
    read_json,
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


class TestReadJson:
    def test_value_goes_through_build(self, tmp_path):
        path = write(tmp_path / "s.json", ['{"a": [1, 2]}'])
        assert read_json(path, lambda value: value["a"]) == [1, 2]

    def test_text_that_is_not_json_names_the_file(self, tmp_path):
        path = write(tmp_path / "s.json", ["{bad"])
        with pytest.raises(FileMalformed, match=r"s\.json: Expecting property name"):
            read_json(path, dict)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_bytes(b'"\xff"')
        with pytest.raises(FileMalformed, match=r"s\.json: 'utf-8' codec"):
            read_json(path, str)

    @pytest.mark.parametrize("exc, detail", [
        (ValueError("no good"), "no good"),
        (KeyError("tgt"), "KeyError('tgt')"),
        (TypeError("not a list"), "TypeError('not a list')"),
        (AttributeError("get"), "AttributeError('get')"),
    ])
    def test_a_fault_of_build_names_the_file(self, tmp_path, exc, detail):
        def build(value):
            raise exc

        path = write(tmp_path / "s.json", ["[]"])
        with pytest.raises(FileMalformed) as info:
            read_json(path, build)
        assert str(info.value) == f"{path}: {detail}"
        assert info.value.__cause__ is exc

    def test_a_missing_file_passes_through(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "missing.json", dict)


# The calls that decode JSON or resolve the packaged data files.
JSON_READS = {"json.load", "json.loads", "resources.files", "importlib.resources.files"}
# datasets.read_json reads every JSON file; besides it, only the HTTP client
# decodes JSON, and what it decodes is a response body, not a file.
JSON_READS_ALLOWED = {("backends.py", "_parse_response", "json.loads")}


def json_reads(path: Path) -> list[str]:
    """``file:line call`` of each JSON read in ``path`` outside the places
    allowed to make one."""

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and ast.unparse(child.func) in JSON_READS:
                yield func, ast.unparse(child.func), child.lineno
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, child.name if inner else func)

    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{line} {call}"
        for func, call, line in walk(tree, None)
        if path.name != "datasets.py"
        and (path.name, func, call) not in JSON_READS_ALLOWED
    ]


def test_no_module_reads_json_but_datasets():
    # A JSON file is read, defaulted and reported by ``datasets.read_json``.
    sources = sorted(Path(clasp.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    assert [where for path in sources for where in json_reads(path)] == []


def test_guard_sees_json_reads(tmp_path):
    src = tmp_path / "backends.py"
    src.write_text(
        "import json\n"
        "data = json.load(open('x'))\n"
        "def _parse_response(body):\n"
        "    return json.loads(body)\n"
        "def read(text):\n"
        "    return json.loads(text), resources.files('clasp.data')\n",
        encoding="utf-8",
    )
    assert json_reads(src) == [
        "backends.py:2 json.load",
        "backends.py:6 json.loads",
        "backends.py:6 resources.files",
    ]
