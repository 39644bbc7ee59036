from __future__ import annotations

import ast
import gc
import io
import json
import os
import signal
import tempfile
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import clasp
from clasp import datasets
from clasp.datasets import (
    Example,
    FileMalformed,
    RecordWriter,
    RowMalformed,
    WorkerLost,
    decode_mtop_line,
    iter_records,
    map_chunks,
    map_rows,
    ordered_map,
    pizza_line_decoder,
    read_json,
    read_jsonl,
    record_line,
    write_jsonl,
)
from conftest import assert_no_child_left


def read_records(path, *fields) -> list:
    return list(iter_records(path, *fields))


def write(path, lines) -> str:
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    return str(path)


def map_decoded(path, decode) -> list:
    """The rows that ``map_rows`` decodes from ``path`` with ``decode``,
    each written as the record it is and read back."""
    out = Path(path).with_suffix(".rows.jsonl")
    with RecordWriter(out) as writer:
        map_rows(path, decode, lambda i, row: (row, False), writer)
    return read_records(out)


PIZZA = pizza_line_decoder(need_cf=False)


def mtop_line(tokens_json: str, locale: str = "fr_XX") -> str:
    return "\t".join(["fr-1", "IN:X", "", "Bonjour", "test", locale, "[IN:X ]", tokens_json])


GOOD_ROW = json.dumps(Example("a", "en", "t", "(ORDER )").to_dict())


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
        assert list(read_jsonl(path)) == rows

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
        assert list(read_jsonl(crlf)) == list(read_jsonl(lf)) != []

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
        with pytest.raises(RowMalformed, match=r"r\.jsonl:1: 'utf-8' codec"):
            read_jsonl(path)

    def test_a_read_peaks_near_what_it_returns(self, tmp_path):
        # One pass keeps each row's byte span, not its Example: a few bytes
        # a row. Beyond them it holds one block of the file, the lines split
        # from it, and the row being checked (well under a block here).
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
        assert retained <= 64 * 5000, retained
        assert peak - retained <= 3 * datasets._READ_BYTES, (peak, retained)
        assert rows[4999].id == "pizza-004999"
        rows.close()

    def test_a_cr_file_reads_as_the_lf_file(self, tmp_path):
        lines = [json.dumps(Example(str(i), "en", f"t {i}", "(ORDER )").to_dict())
                 for i in range(3)]
        lf, cr = tmp_path / "lf.jsonl", tmp_path / "cr.jsonl"
        lf.write_bytes("".join(line + "\n" for line in ["", *lines, " "]).encode())
        cr.write_bytes("".join(line + "\r" for line in ["", *lines, " "]).encode())
        assert list(read_jsonl(cr)) == list(read_jsonl(lf)) != []
        for path in (lf, cr):
            with open(path, "ab") as fh:
                fh.write(b"[1]")
            with pytest.raises(RowMalformed, match=r"\.jsonl:6: expected a JSON object"):
                read_jsonl(path)

    @pytest.mark.parametrize("lines", [
        ["{not json"],
        [GOOD_ROW, "", "  ", GOOD_ROW, "", '{"id": "b"}'],
        [GOOD_ROW, "", "[1]"],
        ['{"id": "a", "lang": "en", "text": "t"}'],
        [GOOD_ROW, GOOD_ROW + " " + GOOD_ROW],
        [GOOD_ROW, json.dumps({**json.loads(GOOD_ROW), "cf": 5})],
        [" " + GOOD_ROW + "\t", '\ufeff' + GOOD_ROW],
        [GOOD_ROW, "\x0c", "\u2028", "1" * 5000],
    ], ids=["invalid-json", "missing-field", "not-an-object", "no-parse",
            "two-values", "cf-not-a-string", "byte-order-mark", "huge-number"])
    def test_the_view_fails_as_the_streaming_read_does(self, tmp_path, lines):
        # One index pass checks every row as building each row would.
        path = write(tmp_path / "r.jsonl", lines)
        with pytest.raises(RowMalformed) as streamed:
            list(iter_records(path, "id", "lang", "text", "parse", build=Example.from_dict))
        with pytest.raises(RowMalformed) as viewed:
            read_jsonl(path)
        assert str(viewed.value) == str(streamed.value)
        assert str(viewed.value).startswith(f"{path}:{len(lines)}: ")

    def test_a_bad_byte_is_named_by_its_line_through_every_reader(self, tmp_path):
        path = tmp_path / "r.jsonl"
        path.write_bytes(b'\n \n{"id": "\xff"}\n')
        for read in (read_jsonl, read_records, lambda p: map_decoded(p, PIZZA)):
            with pytest.raises(RowMalformed, match=r"r\.jsonl:3: 'utf-8' codec"):
                read(path)

    def test_keys_hold_the_key_field_of_every_row(self, tmp_path):
        rows = [Example(str(i % 2), "en", f"t {i}", "(ORDER )") for i in range(4)]
        path = tmp_path / "r.jsonl"
        write_jsonl(path, rows)
        with read_jsonl(path) as unkeyed, pytest.raises(TypeError, match="key"):
            next(unkeyed.find("0"))
        with read_jsonl(path, "id") as by_id:
            assert list(by_id.find("0")) == [(0, rows[0]), (2, rows[2])]
            assert list(by_id.find("2")) == []
        with read_jsonl(path, "text") as view:
            assert [list(view.find(f"t {i}")) for i in range(4)] == [
                [(i, row)] for i, row in enumerate(rows)
            ]
            assert (len(view), view[-1], view[1:3]) == (4, rows[-1], rows[1:3])
            with pytest.raises(IndexError):
                view[4]
        with pytest.raises(OSError):
            view[0]

    def test_a_keyed_read_holds_the_same_bytes_a_row_for_any_key_length(self, tmp_path):
        # The key index holds a hash a row, not the key: 200-character
        # texts cost what 6-character ones do.
        retained = {}
        for length in (6, 200):
            path = tmp_path / f"{length}.jsonl"
            write_jsonl(path, (Example(f"r{i}", "en", f"{i:0{length}d}", "(ORDER )")
                               for i in range(4000)))
            gc.collect()
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                view = read_jsonl(path, "text")
                retained[length] = (tracemalloc.get_traced_memory()[0] - base) / 4000
            finally:
                tracemalloc.stop()
            assert list(view.find(f"{17:0{length}d}"))[0][0] == 17
            view.close()
        # 16 bytes of span and 8 of index a row, and the array's slack.
        assert retained[200] <= retained[6] + 1 and retained[200] <= 32, retained

    def test_a_view_reads_the_file_it_opened(self, tmp_path):
        # write_jsonl renames its temp file onto the path the view read.
        path = tmp_path / "r.jsonl"
        rows = [Example(f"r{i}", "en", f"t {i}", "(ORDER )") for i in range(3)]
        write_jsonl(path, rows)
        with read_jsonl(path) as view:
            write_jsonl(path, [Example("x", "en", "x", "(ORDER )")])
            assert list(view) == rows

    def test_rows_read_in_workers_and_threads_are_the_rows_read_here(
        self, tmp_path, monkeypatch
    ):
        # pread moves no shared offset: forked workers and threads read one
        # view at once, each row whole.
        path = tmp_path / "r.jsonl"
        write_jsonl(path, (Example(f"r{i}", "en", f"t {i}", "(ORDER )") for i in range(40)))
        view = read_jsonl(path)
        here = list(view)
        monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 1})
        spans = [(0, 13), (13, 27), (27, 40)]
        mapped = map_chunks(lambda span: (os.getpid(), view[slice(*span)]), spans)
        pids, chunks = zip(*mapped)
        assert os.getpid() not in pids
        assert [ex for chunk in chunks for ex in chunk] == here
        assert_no_child_left()
        with ThreadPoolExecutor(max_workers=4) as pool:
            order = [i for _ in range(5) for i in reversed(range(40))]
            assert list(pool.map(view.__getitem__, order)) == [here[i] for i in order]


def _id_key(record):
    return str(record["id"])


def _id_language_key(record):
    return str(record["id"]), record.get("language")


def _number_key(record):
    return record["n"]


class TestKeyIndex:
    """``RecordRows.find`` against a scan of every row."""

    @staticmethod
    def _check(tmp: Path, records: list[dict], key, held_every: int) -> None:
        path = tmp / "rows.jsonl"
        path.write_text("".join(record_line(r) for r in records), encoding="utf-8")
        with datasets.RecordRows(path, ("id",), key=key) as view:
            reads, record = [], view._record

            def recording(i):
                reads.append(i)
                return record(i)

            view._record = recording
            for value in [*{key(r): None for r in records}, ("absent", None), "absent", 7]:
                scan = [(j, r) for j, r in enumerate(records) if key(r) == value]
                assert list(view.find(value)) == scan
                # Held rows come back as they are, unread; each other match
                # is read once.
                held = {j: object() for j, _ in scan[::held_every]}
                reads.clear()
                assert list(view.find(value, held)) == [(j, held.get(j, r)) for j, r in scan]
                assert len(set(reads)) == len(reads)
                assert set(reads) >= {j for j, _ in scan} - held.keys()
                assert not set(reads) & held.keys()

    @given(
        rows=st.lists(
            st.tuples(st.sampled_from(["a", "b", "c", 5]),
                      st.sampled_from([None, "de", "fr", "absent"])),
            max_size=40,
        ),
        held_every=st.integers(min_value=1, max_value=3),
    )
    def test_find_equals_a_scan_of_id_and_language_keys(self, rows, held_every):
        records = [{"id": i} if lang == "absent" else {"id": i, "language": lang}
                   for i, lang in rows]
        with tempfile.TemporaryDirectory() as tmp:
            for key in (_id_key, _id_language_key):
                self._check(Path(tmp), records, key, held_every)

    @given(numbers=st.lists(st.sampled_from([-1, -2, 3]), max_size=40),
           held_every=st.integers(min_value=1, max_value=3))
    def test_a_hash_collision_changes_no_result(self, numbers, held_every):
        assert hash(-1) == hash(-2)  # CPython's int hash
        records = [{"id": f"r{j}", "n": n} for j, n in enumerate(numbers)]
        with tempfile.TemporaryDirectory() as tmp:
            self._check(Path(tmp), records, _number_key, held_every)


LINE_PARTS = [b"a", b" ", b"\r", b"\n", b"\r\n", b"\x0b\x0c\x1c\x1e",
              "\u00e9\u0085\u2028".encode()]


@given(parts=st.lists(st.sampled_from(LINE_PARTS), max_size=40),
       block=st.integers(min_value=1, max_value=8))
def test_lines_split_as_a_text_mode_read_does(parts, block):
    data = b"".join(parts)
    text_lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").readlines()
    with pytest.MonkeyPatch.context() as patch:
        # Blocks of a few bytes split lines, CRLFs and characters anywhere.
        patch.setattr(datasets, "_READ_BYTES", block)
        lines = list(datasets._numbered_lines(io.BytesIO(data)))
    assert [line.decode() for _, _, line in lines] == [
        line.removesuffix("\n") for line in text_lines
    ]
    assert [n for n, _, _ in lines] == list(range(1, len(text_lines) + 1))
    for _, start, line in lines:
        assert data[start:start + len(line)] == line
    # Each line starts where the one before it and its line end stop.
    starts = [start for _, start, _ in lines] + [len(data)]
    for (_, start, line), after in zip(lines, starts[1:]):
        assert data[start + len(line):after] in (b"\n", b"\r", b"\r\n", b"")


class TestReadPizzaRows:
    def test_keys_become_their_upper_cased_suffix(self, tmp_path):
        record = {"train.SRC": "a pizza", "train.TOP": "(ORDER )",
                  "dev.exr": "x", "cf": "y"}
        path = write(tmp_path / "p.jsonl", [json.dumps(record)])
        assert map_decoded(path, PIZZA) == [
            {"SRC": "a pizza", "TOP": "(ORDER )", "EXR": "x", "CF": "y"}
        ]

    def test_row_without_top_is_rejected(self, tmp_path):
        path = write(tmp_path / "p.jsonl", [json.dumps({"train.SRC": "a"})])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:1: row lacks SRC/TOP"):
            map_decoded(path, PIZZA)

    def test_non_object_is_rejected(self, tmp_path):
        path = write(tmp_path / "p.jsonl", ['{"SRC": "a", "TOP": "b"}', "[1, 2]"])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:2: expected a JSON object"):
            map_decoded(path, PIZZA)

    def test_a_row_fault_is_numbered_by_its_file_line(self, tmp_path):
        path = write(tmp_path / "p.jsonl", ['{"SRC": "a", "TOP": "b"}', "", '{"SRC": "a"}'])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:3: row lacks SRC/TOP"):
            map_decoded(path, PIZZA)

    @pytest.mark.parametrize("row", ['{"SRC": "a", "TOP": "b"}',
                                     '{"SRC": "a", "TOP": "b", "CF": 5}'])
    def test_need_cf_names_a_row_without_a_string_cf(self, tmp_path, row):
        good = '{"SRC": "a", "TOP": "b", "CF": "c"}'
        need_cf = pizza_line_decoder(need_cf=True)
        (first,) = map_decoded(write(tmp_path / "good.jsonl", [good]), need_cf)
        assert first["CF"] == "c"
        path = write(tmp_path / "p.jsonl", [good, row])
        with pytest.raises(RowMalformed, match=r"p\.jsonl:2: row lacks a string CF"):
            map_decoded(path, need_cf)


class TestReadMtopRows:
    def test_tokens_and_language_come_from_their_columns(self, tmp_path):
        path = write(tmp_path / "m.tsv", [mtop_line('{"tokens": ["Bon", "jour"]}')])
        (row,) = map_decoded(path, decode_mtop_line)
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
            map_decoded(path, decode_mtop_line)

    def test_tokens_must_be_strings(self, tmp_path):
        path = write(tmp_path / "m.tsv", [mtop_line('{"tokens": ["a", 1]}')])
        with pytest.raises(RowMalformed, match="tokens must be a list of strings"):
            map_decoded(path, decode_mtop_line)

    def test_bytes_that_are_not_utf8_name_the_file(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_bytes(mtop_line('{"tokens": ["Bon\xe9"]}').encode("latin-1") + b"\n")
        with pytest.raises(RowMalformed, match=r"m\.tsv:1: 'utf-8' codec"):
            map_decoded(path, decode_mtop_line)

    def test_short_row_is_rejected(self, tmp_path):
        path = write(tmp_path / "m.tsv", ["fr-1\tIN:X"])
        with pytest.raises(RowMalformed, match=r"m\.tsv:1: expected 8 tab-separated"):
            map_decoded(path, decode_mtop_line)

    def test_blank_lines_are_skipped_and_numbered(self, tmp_path):
        # A line of whitespace is blank in every row format.
        good = mtop_line('{"tokens": ["a"]}')
        lines = [good, "", " \t ", good]
        rows = map_decoded(write(tmp_path / "ok.tsv", lines), decode_mtop_line)
        assert [row["tokens"] for row in rows] == [["a"], ["a"]]
        path = write(tmp_path / "m.tsv", [*lines, "fr-1\tIN:X"])
        with pytest.raises(RowMalformed, match=r"m\.tsv:5: expected 8 tab-separated"):
            map_decoded(path, decode_mtop_line)


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

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_workers_number_their_spans_as_the_file(self, tmp_path, monkeypatch, end):
        # Each worker splits its own span, blank lines and a last line
        # without an end included, and names a fault by its file line.
        monkeypatch.setattr(datasets, "_CHUNK_ROWS", 3)
        monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 1})
        lines = []
        for i in range(20):
            lines += [f"w{i}", *(["  "] if i % 4 == 1 else []), *([""] if i % 5 == 2 else [])]
        path = tmp_path / "w.txt"
        path.write_bytes(end.join(lines).encode())

        with RecordWriter(tmp_path / "out.jsonl") as out:
            map_rows(path, str.strip, lambda i, word: ({"i": i, "word": word}, False), out)
        assert read_records(tmp_path / "out.jsonl") == [
            {"i": i, "word": f"w{i}"} for i in range(20)
        ]

        def failing(i, word):
            if word == "w17":
                raise ValueError("no good")
            return {"word": word}, False

        line = lines.index("w17") + 1
        with pytest.raises(RowMalformed, match=rf"w\.txt:{line}: no good"):
            with RecordWriter(tmp_path / "bad.jsonl") as out:
                map_rows(path, str.strip, failing, out)
        assert_no_child_left()

    def test_the_main_process_holds_no_line_of_a_chunk(self, tmp_path, monkeypatch):
        # With workers, the main process numbers the lines and sends each
        # chunk as a byte span, so its peak does not grow with the lines'
        # length; holding the lines of the chunks in flight (five of 50
        # rows here) would cost a megabyte more for the 4000-byte lines.
        monkeypatch.setattr(datasets, "_CHUNK_ROWS", 50)
        monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 1})

        def mapped(length):
            with RecordWriter(tmp_path / f"{length}.jsonl") as out:
                map_rows(tmp_path / f"{length}.txt", str.strip,
                         lambda i, line: ({"i": int(line)}, False), out)

        peaks = {}
        for length in (100, 4000):
            write(tmp_path / f"{length}.txt", [f"{i:0{length}d}" for i in range(600)])
            if not peaks:
                mapped(length)  # imports what a pool loads
            gc.collect()
            tracemalloc.start()
            try:
                mapped(length)
                peaks[length] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert read_records(tmp_path / f"{length}.jsonl") == [{"i": i} for i in range(600)]
        assert_no_child_left()
        # The block being split into lines is the same size for both.
        assert peaks[4000] - peaks[100] <= datasets._READ_BYTES, peaks

    def test_the_main_process_holds_one_chunk_result_at_a_time(self, tmp_path, monkeypatch):
        # A writer slower than the workers: a finished chunk waits in its
        # worker's pipe, so the main process holds the chunk it writes and
        # the one it reads, not the _AHEAD_PER_WORKER * 2 chunks sent.
        monkeypatch.setattr(datasets, "_CHUNK_ROWS", 50)
        two_cpus(monkeypatch)
        width = 20_000
        text_bytes = 50 * len(record_line({"i": 100, "t": "x" * width}))  # one chunk's text
        path = write(tmp_path / "w.txt", [str(i) for i in range(400)])
        write_text = RecordWriter.write_text

        def writing(self, text, count):
            time.sleep(0.05)
            write_text(self, text, count)

        def mapped():
            with RecordWriter(tmp_path / "out.jsonl") as out:
                map_rows(path, str.strip,
                         lambda i, w: ({"i": int(w), "t": "x" * width}, False), out)

        mapped()  # imports what a map loads
        monkeypatch.setattr(RecordWriter, "write_text", writing)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mapped()
            grown = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert_no_child_left()
        assert [row["i"] for row in read_records(tmp_path / "out.jsonl")] == list(range(400))
        # The text written, the pickle read and the text built from it.
        assert grown <= 3.5 * text_bytes, (grown, text_bytes)

    def test_write_encodes_with_record_line(self, tmp_path):
        rows = [{"a": "\u00e9"}, {"b": [1, None]}]
        with RecordWriter(tmp_path / "one.jsonl") as one:
            for row in rows:
                one.write(row)
        with RecordWriter(tmp_path / "text.jsonl") as text:
            text.write_text("".join(map(record_line, rows)), len(rows))
        assert one.count == text.count == 2
        assert (tmp_path / "one.jsonl").read_bytes() == (tmp_path / "text.jsonl").read_bytes()


def two_cpus(monkeypatch) -> None:
    monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 1})


def open_descriptors() -> list[str]:
    return sorted(os.listdir("/proc/self/fd"))


class RebuildFails(Exception):
    """Pickles, but its pickle does not rebuild: ``__init__`` wants two
    arguments and ``args`` holds one."""

    def __init__(self, a, b):
        super().__init__(a)


class PicklesNot(Exception):
    def __init__(self, message):
        super().__init__(message)
        self.lock = threading.Lock()


def test_the_no_child_check_fails_while_a_child_is_unreaped():
    wait_end, wake_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.read(wait_end, 1)
        finally:
            os._exit(0)
    try:
        with pytest.raises(AssertionError, match="left unreaped"):
            assert_no_child_left()  # running
        os.write(wake_end, b"x")
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        with pytest.raises(AssertionError, match="left unreaped"):
            assert_no_child_left()  # exited, not reaped
    finally:
        os.close(wait_end)
        os.close(wake_end)
        os.waitpid(pid, 0)
    assert_no_child_left()


class TestMapChunks:
    @pytest.mark.parametrize("end", ["whole", "closed-early", "a-chunk-fails"])
    def test_workers_take_chunks_in_turn_and_leave_nothing_open(self, monkeypatch, end):
        # No thread starts here; chunk i is mapped by worker i mod 2; and
        # however the map ends, every pipe is closed and every worker reaped.
        two_cpus(monkeypatch)

        def forbidden(self):
            raise AssertionError("a thread was started")

        def task(i):
            if end == "a-chunk-fails" and i == 5:
                raise RowMalformed(f"chunk {i}")
            return i, os.getpid()

        before = open_descriptors()
        monkeypatch.setattr(threading.Thread, "start", forbidden)
        taken = []
        with closing(map_chunks(task, range(9))) as results:
            if end == "a-chunk-fails":
                with pytest.raises(RowMalformed, match="chunk 5"):
                    taken.extend(results)
            else:
                taken.extend(results if end == "whole" else [next(results), next(results)])
        chunks, pids = zip(*taken)
        assert list(chunks) == list(range({"whole": 9, "closed-early": 2}.get(end, 5)))
        assert pids[0] != pids[1] and os.getpid() not in pids
        assert all(pid == pids[i % 2] for i, pid in enumerate(pids))
        assert open_descriptors() == before
        assert_no_child_left()

    @pytest.mark.parametrize("at", ["read", "send"])
    def test_a_worker_that_dies_is_one_worker_lost(self, tmp_path, monkeypatch, at):
        # Worker 0 maps chunks 0, 2, 4...; chunks 0 to 3 are sent at once.
        # Killed at chunk 0, its result pipe ends; killed at chunk 2, the
        # send of chunk 4 to it, after chunk 0 is taken, finds its request
        # pipe closed, for the chunks wait until it is dead.
        two_cpus(monkeypatch)
        dying = tmp_path / "pid"
        fatal = 0 if at == "read" else 2

        def task(i):
            if i == fatal:
                dying.write_text(f"{os.getpid()}\n")
                os.kill(os.getpid(), signal.SIGKILL)
            return i

        def chunks():
            for i in range(8):
                if i == 4:
                    deadline = time.monotonic() + 30
                    while not dying.exists() or not dying.read_text().endswith("\n"):
                        assert time.monotonic() < deadline
                        time.sleep(0.005)
                    pid = int(dying.read_text())
                    os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
                yield i

        before = open_descriptors()
        taken = []
        with pytest.raises(WorkerLost, match="^a worker process died before returning its chunk$"):
            taken.extend(map_chunks(task, chunks()))
        assert taken == ([] if at == "read" else [0])
        assert open_descriptors() == before
        assert_no_child_left()

    @pytest.mark.parametrize("value, name", [
        (RebuildFails("no rebuild", 1), "RebuildFails"),
        (PicklesNot("no pickle"), "PicklesNot"),
        (lambda: None, "function"),
    ], ids=["exception-that-does-not-rebuild", "exception-that-does-not-pickle",
            "result-that-does-not-pickle"])
    def test_what_cannot_be_sent_back_is_one_worker_lost_naming_its_type(
        self, monkeypatch, value, name
    ):
        two_cpus(monkeypatch)

        def task(i):
            if i == 3:
                if isinstance(value, Exception):
                    raise value
                return value
            return i

        taken = []
        with pytest.raises(WorkerLost, match=f"^a worker could not send back the {name} of its chunk: "):
            taken.extend(map_chunks(task, range(6)))
        assert taken == [0, 1, 2]
        assert_no_child_left()


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
