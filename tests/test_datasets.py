from __future__ import annotations

import ast
import gc
import json
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import clasp
from clasp.datasets import (
    Example,
    FileMalformed,
    RecordWriter,
    RowMalformed,
    iter_mtop_rows,
    iter_pizza_rows,
    map_rows,
    ordered_map,
    read_json,
    read_jsonl,
    read_records,
    record_line,
    write_jsonl,
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


class TestReadJsonl:
    @pytest.mark.parametrize("char", ["\u2028", "\u0085", "\x0c", "\x1e", "\r"],
                             ids=["line-separator", "next-line", "form-feed",
                                  "record-separator", "carriage-return"])
    def test_a_text_with_a_line_break_character_round_trips(self, tmp_path, char):
        # str.splitlines breaks at each of these; a JSON-lines record does not.
        rows = [Example("a", "en", f"one{char}two", "(ORDER )", "dev", cf=f"c{char}"),
                Example("b", "en", "three", "(ORDER )")]
        path = tmp_path / "r.jsonl"
        write_jsonl(path, rows)
        assert path.read_text(encoding="utf-8").count("\n") == 2
        assert read_jsonl(path) == rows

    @pytest.mark.parametrize("cf", [5, ["a"], {"a": 1}, True])
    def test_a_cf_that_is_not_a_string_is_named_by_its_line(self, tmp_path, cf):
        row = Example("a", "en", "t", "(ORDER )").to_dict()
        path = write(tmp_path / "r.jsonl", [json.dumps(row), json.dumps({**row, "cf": cf})])
        with pytest.raises(RowMalformed, match=r"r\.jsonl:2: field 'cf' must be a string"):
            read_jsonl(path)

    def test_a_null_cf_reads_as_none(self, tmp_path):
        row = {**Example("a", "en", "t", "(ORDER )").to_dict(), "cf": None}
        assert read_jsonl(write(tmp_path / "r.jsonl", [json.dumps(row)]))[0].cf is None

    def test_crlf_file_reads_as_the_lf_file(self, tmp_path):
        lines = [json.dumps(Example(str(i), "en", f"t {i}", "(ORDER )").to_dict())
                 for i in range(3)]
        lf, crlf = tmp_path / "lf.jsonl", tmp_path / "crlf.jsonl"
        lf.write_bytes("".join(line + "\n" for line in lines).encode())
        crlf.write_bytes("".join(line + "\r\n" for line in lines).encode())
        assert read_jsonl(crlf) == read_jsonl(lf) != []

    def test_blank_lines_are_skipped_and_numbered(self, tmp_path):
        good = json.dumps(Example("a", "en", "t", "(ORDER )").to_dict())
        path = write(tmp_path / "r.jsonl", [good, "", "  ", good, "", '{"id": "b"}'])
        with pytest.raises(RowMalformed, match=r"r\.jsonl:6: record lacks field 'lang'"):
            read_jsonl(path)
        path = write(tmp_path / "r.jsonl", [good, "", "[1]"])
        with pytest.raises(RowMalformed, match=r"r\.jsonl:3: expected a JSON object"):
            read_jsonl(path)

    def test_a_row_without_parse_names_its_file_line(self, tmp_path):
        path = write(tmp_path / "r.jsonl", ['{"id": "a", "lang": "en", "text": "t"}'])
        with pytest.raises(RowMalformed, match=r"^.*r\.jsonl:1: record lacks field 'parse'$"):
            read_jsonl(path)

    def test_two_values_on_one_line_are_invalid(self, tmp_path):
        good = json.dumps(Example("a", "en", "t", "(ORDER )").to_dict())
        path = write(tmp_path / "r.jsonl", [good, good + " " + good])
        with pytest.raises(RowMalformed, match=r"r\.jsonl:2: invalid JSON record"):
            read_jsonl(path)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'{"id": "a", "lang": "en", "text": "t\xff", "parse": "(ORDER )"}\n')
        with pytest.raises(RowMalformed, match=r"r\.jsonl: 'utf-8' codec"):
            read_jsonl(path)

    def test_a_read_peaks_near_what_it_returns(self, tmp_path):
        # One pass: no list of decoded records sits beside the rows built
        # from them, so the peak is close to what the result retains.
        path = tmp_path / "pool.jsonl"
        write_jsonl(path, (
            Example(f"pizza-{i:06d}", "en", f"i want {i} large pizza with ham",
                    f"(ORDER i want (PIZZAORDER (NUMBER {i} ) (SIZE large ) pizza "
                    "with (TOPPING ham ) ) )", "dev",
                    cf=f"(PIZZAORDER (NUMBER {i} ) (SIZE LARGE ) (TOPPING HAM ) )")
            for i in range(5000)
        ))
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            rows = read_jsonl(path)
            retained, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(rows) == 5000
        assert peak <= 1.2 * retained, (peak, retained)


class TestReadPizzaRows:
    def test_keys_become_their_upper_cased_suffix(self, tmp_path):
        record = {"train.SRC": "a pizza", "train.TOP": "(ORDER )",
                  "dev.exr": "x", "cf": "y"}
        path = write(tmp_path / "p.jsonl", [json.dumps(record)])
        assert list(iter_pizza_rows(path)) == [
            {"SRC": "a pizza", "TOP": "(ORDER )", "EXR": "x", "CF": "y"}
        ]

    def test_row_without_top_is_rejected(self, tmp_path):
        path = write(tmp_path / "p.jsonl", [json.dumps({"train.SRC": "a"})])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:1: row lacks SRC/TOP"):
            list(iter_pizza_rows(path))

    def test_non_object_is_rejected(self, tmp_path):
        path = write(tmp_path / "p.jsonl", ['{"SRC": "a", "TOP": "b"}', "[1, 2]"])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:2: expected a JSON object"):
            list(iter_pizza_rows(path))

    def test_a_row_fault_is_numbered_by_its_file_line(self, tmp_path):
        path = write(tmp_path / "p.jsonl", ['{"SRC": "a", "TOP": "b"}', "", '{"SRC": "a"}'])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:3: row lacks SRC/TOP"):
            list(iter_pizza_rows(path))

    @pytest.mark.parametrize("row", ['{"SRC": "a", "TOP": "b"}',
                                     '{"SRC": "a", "TOP": "b", "CF": 5}'])
    def test_need_cf_names_a_row_without_a_string_cf(self, tmp_path, row):
        path = write(tmp_path / "p.jsonl", ['{"SRC": "a", "TOP": "b", "CF": "c"}', row])
        assert next(iter_pizza_rows(path, need_cf=True))["CF"] == "c"
        with pytest.raises(RowMalformed, match=r"p\.jsonl:2: row lacks a string CF"):
            list(iter_pizza_rows(path, need_cf=True))


class TestReadMtopRows:
    def test_tokens_and_language_come_from_their_columns(self, tmp_path):
        path = write(tmp_path / "m.tsv", [mtop_line('{"tokens": ["Bon", "jour"]}')])
        (row,) = iter_mtop_rows(path)
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
            list(iter_mtop_rows(path))

    def test_tokens_must_be_strings(self, tmp_path):
        path = write(tmp_path / "m.tsv", [mtop_line('{"tokens": ["a", 1]}')])
        with pytest.raises(RowMalformed, match="tokens must be a list of strings"):
            list(iter_mtop_rows(path))

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(mtop_line('{"tokens": ["Bon\xe9"]}').encode("latin-1") + b"\n")
        with pytest.raises(RowMalformed, match=r"m\.tsv: 'utf-8' codec"):
            list(iter_mtop_rows(path))

    def test_short_row_is_rejected(self, tmp_path):
        path = write(tmp_path / "m.tsv", ["fr-1\tIN:X"])
        with pytest.raises(RowMalformed, match=r"m\.tsv:1: expected 8 tab-separated"):
            list(iter_mtop_rows(path))

    def test_blank_lines_are_skipped_and_numbered(self, tmp_path):
        # A line of whitespace is blank in every row format.
        good = mtop_line('{"tokens": ["a"]}')
        path = write(tmp_path / "m.tsv", [good, "", " \t ", good, "fr-1\tIN:X"])
        rows = iter_mtop_rows(path)
        assert [next(rows)["tokens"], next(rows)["tokens"]] == [["a"], ["a"]]
        with pytest.raises(RowMalformed, match=r"m\.tsv:5: expected 8 tab-separated"):
            next(rows)


def parity(i: int, word: str) -> tuple[dict | None, bool]:
    """Keep even rows; flag every third."""
    return ({"i": i, "word": word} if i % 2 == 0 else None), i % 3 == 0


class TestMapRows:
    def test_rows_are_numbered_built_and_written_in_order(self, tmp_path):
        path = write(tmp_path / "w.txt", ["a", "", "b", "c", "  ", "d", "e"])
        with RecordWriter(tmp_path / "out.jsonl") as out:
            flagged = map_rows(path, str.strip, parity, out)
        assert flagged == 2
        assert out.count == 3
        assert read_records(tmp_path / "out.jsonl") == [
            {"i": 0, "word": "a"}, {"i": 2, "word": "c"}, {"i": 4, "word": "e"}
        ]

    def test_a_fault_of_build_names_its_line_and_writes_nothing(self, tmp_path):
        def build(i, word):
            if word == "bad":
                raise ValueError("no good")
            return {"word": word}, False

        path = write(tmp_path / "w.txt", ["a", "", "bad"])
        out = tmp_path / "out.jsonl"
        with pytest.raises(RowMalformed, match=r"w\.txt:3: no good"):
            with RecordWriter(out) as writer:
                map_rows(path, str.strip, build, writer)
        assert list(tmp_path.iterdir()) == [Path(path)]

    def test_write_encodes_with_record_line(self, tmp_path):
        rows = [{"a": "\u00e9"}, {"b": [1, None]}]
        with RecordWriter(tmp_path / "one.jsonl") as one:
            for row in rows:
                one.write(row)
        with RecordWriter(tmp_path / "text.jsonl") as text:
            text.write_text("".join(map(record_line, rows)), len(rows))
        assert one.count == text.count == 2
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "text.jsonl").read_bytes()


class TestOrderedMap:
    def test_results_come_in_order_within_the_window(self):
        read = []

        def items():
            for i in range(20):
                read.append(i)
                yield i

        def slow_first(i):
            if i == 0:
                time.sleep(0.05)
            return i * i

        with ThreadPoolExecutor(max_workers=3) as pool:
            out = []
            for result in ordered_map(pool, slow_first, items(), 4):
                out.append(result)
                # The item yielded, plus at most 4 read ahead of it.
                assert len(read) <= len(out) + 4
        assert out == [i * i for i in range(20)]


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
