"""End-to-end tests of every ``clasp`` subcommand, driven through ``cli.main``.

The fixtures are small literal pizza rows and MTOP utterances plus mock
rules that push the gates through corruption, recovery and fallback, so
the pinned digests cover the whole generate -> gate -> write path.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import logging
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import tracemalloc
import warnings
from collections import Counter
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from clasp import cli, datasets, gate, prompts, trees
from clasp.backends import BackendUnavailable, HttpBackend, MockBackend, MockRule
from clasp.datasets import Example, RecordWriter, iter_records, read_jsonl
from conftest import assert_no_child_left

PIZZA_ROWS = [
    ("i want two pizza with bacon",
     "(ORDER i want (PIZZAORDER (NUMBER two ) pizza with (TOPPING bacon ) ) )"),
    ("get me a large pizza with ham and onions and three sprite",
     "(ORDER get me (PIZZAORDER (NUMBER a ) (SIZE large ) pizza with (TOPPING ham ) "
     "and (TOPPING onions ) ) and (DRINKORDER (NUMBER three ) (DRINKTYPE sprite ) ) )"),
    ("can i have three small thin crust pizza with no olives",
     "(ORDER can i have (PIZZAORDER (NUMBER three ) (SIZE small ) (STYLE thin crust ) "
     "pizza with (NOT no (TOPPING olives ) ) ) )"),
    ("i'd like four pizza with extra cheese and two cans of coke",
     "(ORDER i'd like (PIZZAORDER (NUMBER four ) pizza with (COMPLEX_TOPPING "
     "(QUANTITY extra ) (TOPPING cheese ) ) ) and (DRINKORDER (NUMBER two ) "
     "(CONTAINERTYPE cans ) of (DRINKTYPE coke ) ) )"),
    ("let me get five medium pizza with chicken and pineapple please",
     "(ORDER let me get (PIZZAORDER (NUMBER five ) (SIZE medium ) pizza with "
     "(TOPPING chicken ) and (TOPPING pineapple ) ) please )"),
    ("i want a party size pizza with spinach and a pepsi",
     "(ORDER i want (PIZZAORDER (NUMBER a ) (SIZE party size ) pizza with "
     "(TOPPING spinach ) ) and (DRINKORDER (NUMBER a ) (DRINKTYPE pepsi ) ) )"),
    ("get me two deep dish pizza with sausage and mushrooms",
     "(ORDER get me (PIZZAORDER (NUMBER two ) (STYLE deep dish ) pizza with "
     "(TOPPING sausage ) and (TOPPING mushrooms ) ) )"),
    ("i'd like three pizza with tuna and four bottles of iced tea",
     "(ORDER i'd like (PIZZAORDER (NUMBER three ) pizza with (TOPPING tuna ) ) and "
     "(DRINKORDER (NUMBER four ) (CONTAINERTYPE bottles ) of (DRINKTYPE iced tea ) ) )"),
]

# Replace-slots prompts end with the edited parse and an English cue;
# generate-both prompts end with a bare parse cue and are keyed on their
# first context example.
_RS = r"[^\n]*;\nTranslation in English:$"
_GB = r"^\[CLM\] Semantic Parse: \(ORDER \(PIZZAORDER \(NUMBER {}[\s\S]*\nSemantic Parse:$"
PIZZA_RULES = [
    {"pattern": r"\(DRINKTYPE sprite \)" + _RS,
     "corruptions": ["drop_slot_word"], "corrupt_count": 2},
    {"pattern": r"\(TOPPING ham \)" + _RS, "corruptions": ["copy_example"]},
    {"pattern": r"\(SIZE small \)" + _RS,
     "corruptions": ["untagged_word"], "inject_word": "pineapple"},
    {"pattern": _GB.format("two"), "corruptions": ["flip_casing"], "corrupt_count": 3},
    {"pattern": _GB.format("three"), "corruptions": ["invalid_parse"]},
    {"pattern": _GB.format("four"), "corruptions": ["duplicate_output"]},
    {},
]

# (id, utterance tokens, decoupled parse); the first words select MTOP_RULES.
MTOP_ROWS = [
    ("en-0", "please call david from the yearly meeting",
     "[IN:CREATE_CALL [SL:CONTACT david ] [SL:LOCATION yearly meeting ] ]"),
    ("en-1", "quickly tell me the weather near the old harbor on friday",
     "[IN:GET_WEATHER [SL:LOCATION old harbor ] [SL:DATE_TIME on friday ] ]"),
    ("en-2", "maybe remind us to buy milk tomorrow",
     "[IN:CREATE_REMINDER [SL:TODO buy milk ] [SL:DATE_TIME tomorrow ] ]"),
    ("en-3", "kindly play some jazz music",
     "[IN:PLAY_MUSIC [SL:MUSIC_GENRE jazz ] ]"),
    ("en-4", "set an alarm for 7 am",
     "[IN:CREATE_ALARM [SL:DATE_TIME for 7 am ] ]"),
    ("en-5", "what is the weather in paris",
     "[IN:GET_WEATHER [SL:LOCATION paris ] ]"),
]

# Slot-MT beams are re-scored so "<value> alt1" ranks first; a "please"
# candidate saying "alt2" is then repaired from the n-best list.
_SRC = r"Translation in English: [^\n]*\b"
MTOP_RULES = [
    {"pattern": r"^\[CLM\] Translation in English:", "scores": [0.9, 0.5, 0.6, 0.7]},
    {"pattern": _SRC + r"please\b", "substitutions": [[" alt1", " alt2"]]},
    {"pattern": _SRC + r"quickly\b", "corruptions": ["flip_casing"]},
    {"pattern": _SRC + r"maybe\b", "corruptions": ["drop_slot_word"]},
    {"pattern": _SRC + r"kindly\b[^\n]*\nSemantic Parse for \w+:$",
     "corruptions": ["mismatch_parse"]},
    {},
]

# sha256 of each augment output on the fixtures above. Outputs are a pure
# function of inputs and seed, so any change to these digests is a change
# in behaviour, not a refactor.
EXPECTED_DIGESTS = {
    "gb": {
        "out": "0971c188dbc081d7bfa964c562f714632e057d7f62518a8e56ea2260bede8144",
        "stats.json": "697a904f90decadee666fffffdeeedb19b6a932dff3de7be3e150570fbcccd6d",
        "stats.txt": "b24201587b02d7ac7a31fb7f7c13dbf6b518eae9d426582120a944b9e29c23ca",
    },
    "mt": {
        "out": "35176be32253bc9050753149faa08c1a1ba106513e75c68352c8b325553a0afe",
    },
    "rs": {
        "out": "be4333fe8610d4bf62a716bb9659248f8900b05605e275db39cef556d611bc71",
        "stats.json": "1d8307bb505b8636e594b37b9e265d1204d9d5cd4749b6a4055c1aff4e7113d6",
        "stats.txt": "c3b76cc8f924e5e0b20e9f5b23a33f2dea4a4cd2d5795730a17520c0c891932c",
    },
    "tb": {
        "out": "8afd57862990f422e3fed3e7ce2def9b9d3a7c4220197dc75086a25302f093f6",
        "stats.json": "ed0262720b96645192693c252d553781e1f166a47119bf5b593f2c3a583c5b1e",
        "stats.txt": "00bd31783f3e4e6353762ae3f11be4bc6afb64ff0991de1a7fb80cccf4ac4dec",
    },
    "ts": {
        "out": "bd34caf2e9a1652cb465977d6d907724d5f2cd5f1cacddb06d62bbaf5e527de1",
        "stats.json": "9fed37e39064c06a489514873740ef166e662926bff9d2db5ff9f6066992c41a",
        "stats.txt": "53a67e1c3a6bde8d4eb7dfc190f88cfa086a1d522dfac66f39c2510b91ba3c02",
        "nbest": "3b66e7f4f23e216c32938698b1a8fe7261815f102f547b54b0fac22cf576fd3d",
    },
}


def read_records(path) -> list[dict]:
    return list(iter_records(path))


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv: str) -> int:
    return cli.main([str(a) for a in argv])


class Raw(str):
    """File content that ``write_json`` writes as it is."""


def write_json(path: Path, obj) -> Path:
    text = obj if isinstance(obj, Raw) else json.dumps(obj, indent=1)
    path.write_text(text, encoding="utf-8")
    return path


def mtop_line(i: str, text: str, parse: str) -> str:
    """An MTOP TSV line whose tokens are the words of ``text``."""
    return "\t".join([i, parse.split()[0][1:], "", text, "test", "en_XX", parse,
                      json.dumps({"tokens": text.split()})])


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    """Preprocessed pizza and MTOP pools plus mock rule files."""
    d = tmp_path_factory.mktemp("data")
    rows = [json.dumps({"train.SRC": s, "train.TOP": t}) for s, t in PIZZA_ROWS]
    (d / "pizza.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run("preprocess-pizza", "--in", d / "pizza.jsonl", "--out", d / "pool.jsonl") == 0
    lines = [mtop_line(i, text, parse) for i, text, parse in MTOP_ROWS]
    (d / "mtop.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run("preprocess-mtop", "--in", d / "mtop.tsv", "--out", d / "mtop.jsonl") == 0
    write_json(d / "pizza_rules.json", PIZZA_RULES)
    write_json(d / "mtop_rules.json", MTOP_RULES)
    return d


def augment_argv(data: Path, method: str, out: Path, *extra) -> list:
    if method in ("rs", "gb"):
        pool, rules = data / "pool.jsonl", data / "pizza_rules.json"
    else:
        pool, rules = data / "mtop.jsonl", data / "mtop_rules.json"
    return ["augment", "--method", method, "--dataset", pool, "--seed", "7",
            "--mock-rules", rules, "--out", out, *extra]


AUGMENT_RUNS = {
    "rs": ("--k", "24", "--max-inflight", "1"),
    "gb": ("--k", "24", "--max-inflight", "4"),
    "ts": ("--k", "18", "--langs", "de,es,fr"),
    "tb": ("--k", "18", "--langs", "fr,de", "--max-inflight", "2"),
    "mt": ("--k", "12", "--langs", "es,de"),
}


def augment_outputs(data: Path, method: str, tmp_path: Path) -> dict[str, Path]:
    out = tmp_path / f"{method}.jsonl"
    extra = list(AUGMENT_RUNS[method])
    if method == "tb":
        # tb reads the n-best list that a ts run wrote.
        nbest = tmp_path / "ts.jsonl.nbest.json"
        assert run(*augment_argv(data, "ts", tmp_path / "ts.jsonl",
                                 *AUGMENT_RUNS["ts"])) == 0
        extra += ["--nbest-in", nbest]
    assert run(*augment_argv(data, method, out, *extra)) == 0
    files = {"out": out}
    if method != "mt":
        files["stats.json"] = tmp_path / f"{method}.stats.json"
        files["stats.txt"] = tmp_path / f"{method}.stats.txt"
    if method == "ts":
        files["nbest"] = tmp_path / "ts.jsonl.nbest.json"
    return files


# ------------------------------------------------------------------ preprocess


def test_preprocess_pizza_writes_cf_targets(data):
    pool = read_jsonl(data / "pool.jsonl")
    assert [ex.id for ex in pool] == [f"pizza-{i:06d}" for i in range(len(PIZZA_ROWS))]
    assert all(ex.parse.startswith("(ORDER (PIZZAORDER") for ex in pool)
    assert all(ex.cf and ex.cf.startswith("i want") for ex in pool)
    assert pool[0].text == PIZZA_ROWS[0][0]


def test_preprocess_mtop_space_joins_tokens(data, tmp_path):
    pool = read_jsonl(data / "mtop.jsonl")
    assert [(ex.id, ex.text, ex.parse) for ex in pool] == MTOP_ROWS
    assert {ex.lang for ex in pool} == {"en"}
    out = tmp_path / "sentinels.jsonl"
    assert run("preprocess-mtop", "--in", data / "mtop.tsv", "--out", out,
               "--sentinels") == 0
    encoded = read_jsonl(out)
    assert len(encoded) == len(MTOP_ROWS)
    assert encoded[0].text != pool[0].text


# Twenty rows of each preprocess input, cycling the fixture rows: row 3 of
# every 7 is one that the CF templates do not cover or that sentinels cannot
# encode, and a blank line follows the fifth row, so the pizza ids skip it.
MAP_ROWS = 20
UNCOVERED_TOP = "(ORDER (PIZZAORDER (NUMBER a ) (CRUST x ) ) )"
UNENCODABLE_PARSE = "[IN:CREATE_CALL [SL:CONTACT nobody ] ]"


def write_map_inputs(d: Path, bad_line: int | None = None) -> dict[str, Path]:
    """``pizza.jsonl`` and ``mtop.tsv`` of MAP_ROWS rows in ``d``; the row
    on file line ``bad_line`` holds a parse with an unclosed group."""
    pizza, mtop = [], []
    for i in range(MAP_ROWS):
        src, top = PIZZA_ROWS[i % len(PIZZA_ROWS)]
        rid, text, parse = MTOP_ROWS[i % len(MTOP_ROWS)]
        if i % 7 == 3:
            top, parse = UNCOVERED_TOP, UNENCODABLE_PARSE
        pizza.append(json.dumps({"train.SRC": src, "train.TOP": top, "train.CF": f"cf {i}"}))
        mtop.append(mtop_line(f"{rid}-{i}", text, parse))
    pizza.insert(5, "")
    mtop.insert(5, "")
    if bad_line is not None:
        pizza[bad_line - 1] = json.dumps({"SRC": "a pizza", "TOP": "(ORDER (PIZZAORDER"})
        mtop[bad_line - 1] = mtop_line("bad", "call x", "[IN:X [SL:A x ]")
    files = {"pizza.jsonl": pizza, "mtop.tsv": mtop}
    for name, lines in files.items():
        (d / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {name: d / name for name in files}


PREPROCESS_RUNS = {
    "pizza-fixed-cf": ("preprocess-pizza", "pizza.jsonl"),
    "pizza-original": ("preprocess-pizza", "pizza.jsonl", "--mode", "original"),
    "mtop": ("preprocess-mtop", "mtop.tsv"),
    "mtop-sentinels": ("preprocess-mtop", "mtop.tsv", "--sentinels"),
    "mtop-sentinels-keep": ("preprocess-mtop", "mtop.tsv", "--sentinels",
                            "--on-unencodable", "keep"),
}


def preprocess(inputs: dict[str, Path], case: str, out: Path) -> int:
    command, infile, *extra = PREPROCESS_RUNS[case]
    return run(command, "--in", inputs[infile], "--out", out, *extra)


MAP_CHUNK = 3


def two_workers(monkeypatch) -> None:
    """Map rows in chunks of MAP_CHUNK on two forked workers."""
    monkeypatch.setattr(datasets, "_CHUNK_ROWS", MAP_CHUNK)
    monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 1})


# The skip line and the count of rows written by each run of the inputs.
PREPROCESS_LOGS = {
    "pizza-fixed-cf": ["skipped 3 rows not covered by the CF templates", 17],
    "pizza-original": [None, 20],
    "mtop": [None, 20],
    "mtop-sentinels": ["3 rows could not be sentinel-encoded (discard)", 17],
    "mtop-sentinels-keep": ["3 rows could not be sentinel-encoded (keep)", 20],
}


@pytest.mark.parametrize("case", sorted(PREPROCESS_RUNS))
def test_preprocess_in_chunks_on_two_workers_is_the_one_chunk_run(
    tmp_path, monkeypatch, caplog, case
):
    inputs = write_map_inputs(tmp_path)
    one, many = tmp_path / "one.jsonl", tmp_path / "many.jsonl"
    with caplog.at_level(logging.INFO, logger="clasp"):
        assert preprocess(inputs, case, one) == 0
        logged_one = [r.getMessage().replace(str(one), "OUT") for r in caplog.records]
        caplog.clear()
        two_workers(monkeypatch)
        mapped_in = tmp_path / "pids"
        map_chunk = datasets._map_chunk

        def recording(*args):
            with open(mapped_in, "a", encoding="utf-8") as fh:
                fh.write(f"{os.getpid()}\n")
            return map_chunk(*args)

        monkeypatch.setattr(datasets, "_map_chunk", recording)
        assert preprocess(inputs, case, many) == 0
        logged_many = [r.getMessage().replace(str(many), "OUT") for r in caplog.records]
    assert many.read_bytes() == one.read_bytes()
    skipped, written = PREPROCESS_LOGS[case]
    assert logged_many == logged_one == [
        *([skipped] if skipped else []), f"wrote {written} examples to OUT"
    ]
    pids = mapped_in.read_text().split()
    assert len(pids) == -(-MAP_ROWS // MAP_CHUNK)
    assert str(os.getpid()) not in pids
    assert_no_child_left()
    if case.startswith("pizza"):
        # Ids number the non-blank rows, skipped ones included.
        assert read_jsonl(many)[-1].id == f"pizza-{MAP_ROWS - 1:06d}"


def test_preprocess_in_chunks_writes_the_fixture_pools(data, tmp_path, monkeypatch):
    # The pools that every EXPECTED_DIGESTS run reads.
    two_workers(monkeypatch)
    assert run("preprocess-pizza", "--in", data / "pizza.jsonl",
               "--out", tmp_path / "pool.jsonl") == 0
    assert run("preprocess-mtop", "--in", data / "mtop.tsv",
               "--out", tmp_path / "mtop.jsonl") == 0
    for name in ("pool.jsonl", "mtop.jsonl"):
        assert (tmp_path / name).read_bytes() == (data / name).read_bytes()


@pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "two-workers"])
@pytest.mark.parametrize("case", ["pizza-fixed-cf", "mtop", "mtop-sentinels"])
def test_a_malformed_parse_names_its_row_and_leaves_no_output(
    tmp_path, monkeypatch, caplog, case, workers
):
    inputs = write_map_inputs(tmp_path, bad_line=15)
    if workers == 2:
        two_workers(monkeypatch)
    out = tmp_path / "out" / "pool.jsonl"
    code = preprocess(inputs, case, out)
    path = inputs[PREPROCESS_RUNS[case][1]]
    assert_one_line_error(caplog, code, path)
    assert f"{path}:15: unclosed group" in caplog.records[-1].getMessage()
    assert list(out.parent.iterdir()) == []
    assert_no_child_left()


def test_a_pizza_src_that_is_not_a_string_names_its_row(tmp_path, caplog):
    bad = write_jsonl(tmp_path / "pizza.jsonl", [{"SRC": 5, "TOP": PIZZA_ROWS[0][1]}])
    code = run("preprocess-pizza", "--in", bad, "--out", tmp_path / "pool.jsonl")
    assert_one_line_error(caplog, code, bad)
    assert f"{bad}:1: row's SRC and TOP fields must be strings" in caplog.text


def test_preprocess_reads_a_bounded_window_ahead(tmp_path, monkeypatch):
    rows = [json.dumps({"SRC": src, "TOP": top}) for src, top in PIZZA_ROWS] * 8
    infile = tmp_path / "pizza.jsonl"
    infile.write_text("\n".join(rows) + "\n", encoding="utf-8")
    two_workers(monkeypatch)
    read, read_at_write = [0], []
    numbered_lines, write_text = datasets._numbered_lines, RecordWriter.write_text

    def counting(path):
        for item in numbered_lines(path):
            read[0] += 1
            yield item

    def writing(self, text, count):
        read_at_write.append(read[0])
        write_text(self, text, count)

    monkeypatch.setattr(datasets, "_numbered_lines", counting)
    monkeypatch.setattr(RecordWriter, "write_text", writing)
    assert run("preprocess-pizza", "--in", infile, "--out", tmp_path / "pool.jsonl") == 0
    ahead = datasets._AHEAD_PER_WORKER * 2
    assert read_at_write[0] <= (ahead + 1) * MAP_CHUNK < len(rows)
    assert len(read_at_write) == -(-len(rows) // MAP_CHUNK)
    assert read[0] == len(rows)


def test_one_chunk_or_one_cpu_starts_no_process(data, tmp_path, monkeypatch):
    def forbidden():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 1})
    # The fixture's eight rows fit in one chunk.
    out = tmp_path / "pool.jsonl"
    assert run("preprocess-pizza", "--in", data / "pizza.jsonl", "--out", out) == 0
    assert out.read_bytes() == (data / "pool.jsonl").read_bytes()
    inputs = write_map_inputs(tmp_path)
    two_workers(monkeypatch)
    monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0})
    assert preprocess(inputs, "mtop-sentinels", tmp_path / "sent.jsonl") == 0


# Imports the CLI, then maps the rows of the file argv[1] in chunks of two
# on two forked workers; prints the rows written and the process-pool
# modules loaded after each step.
MAP_ON_TWO_WORKERS = """
import sys, clasp.cli
from clasp import datasets

def pool_modules():
    return sorted(m for m in sys.modules
                  if m.startswith(("multiprocessing", "concurrent.futures.process")))

imported = pool_modules()
datasets._CHUNK_ROWS = 2
datasets.os.sched_getaffinity = lambda pid: {0, 1}
with datasets.RecordWriter(sys.argv[1] + ".out") as out:
    datasets.map_rows(sys.argv[1], str.strip, lambda i, w: ({"w": w}, False), out)
print(out.count, imported, pool_modules())
"""


def test_cli_import_loads_no_multiprocessing(tmp_path):
    # Neither the start-up of a command nor a forked map loads a process pool.
    src = Path(cli.__file__).resolve().parents[1]
    rows = tmp_path / "rows.txt"
    rows.write_text("".join(f"w{i}\n" for i in range(7)), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-c", MAP_ON_TWO_WORKERS, rows], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "7 [] []"
    assert read_records(f"{rows}.out") == [{"w": f"w{i}"} for i in range(7)]


# --------------------------------------------------------------------- augment


@pytest.mark.parametrize("method", sorted(AUGMENT_RUNS))
def test_augment_outputs_are_byte_identical(data, tmp_path, method):
    files = augment_outputs(data, method, tmp_path)
    digests = {name: sha256(path) for name, path in files.items()}
    assert digests == EXPECTED_DIGESTS[method]


@pytest.mark.parametrize("method", ["rs", "gb", "ts", "tb"])
def test_report_reproduces_stats_table(data, tmp_path, method):
    files = augment_outputs(data, method, tmp_path)
    rendered = tmp_path / "report.txt"
    assert run("report", "--in", files["stats.json"], "--out", rendered) == 0
    assert rendered.read_bytes() == files["stats.txt"].read_bytes()


def test_fixture_drives_gate_failures_and_fallbacks(data, tmp_path):
    rows = read_jsonl(augment_outputs(data, "rs", tmp_path)["out"])
    assert len(rows) == 24
    assert {ex.source for ex in rows} == {"clasp-rs", "fallback"}
    stats = json.loads((tmp_path / "rs.stats.json").read_text())["rows"][0]
    assert stats["failure_modes"]["missing_slot"] > 0
    assert stats["failure_modes"]["copy_example"] > 0


def test_flag_beats_config_beats_default(data, tmp_path):
    config = write_json(tmp_path / "config.json", {
        "dataset": str(data / "pool.jsonl"), "method": "gb", "k": 4, "seed": 9,
        "mock_rules": str(data / "pizza_rules.json"), "max_inflight": 2,
        "decoding": {"n": 2},
    })
    assert run("augment", "--config", config, "--out", tmp_path / "cfg.jsonl") == 0
    assert len(read_jsonl(tmp_path / "cfg.jsonl")) == 4
    stats = json.loads((tmp_path / "cfg.stats.json").read_text())["rows"][0]
    assert stats["outputs"] == 2 * 4  # decoding override: n=2, not the default 4

    assert run("augment", "--config", config, "--k", "6",
               "--out", tmp_path / "flag.jsonl") == 0
    assert len(read_jsonl(tmp_path / "flag.jsonl")) == 6

    only_decoding = write_json(tmp_path / "decoding.json", {"decoding": {"n": 2}})
    assert run("augment", "--method", "gb", "--dataset", data / "pool.jsonl",
               "--k", "4", "--seed", "9", "--mock-rules", data / "pizza_rules.json",
               "--config", only_decoding, "--out", tmp_path / "flags.jsonl") == 0
    assert sha256(tmp_path / "flags.jsonl") == sha256(tmp_path / "cfg.jsonl")


def test_missing_required_setting_exits_1(data, tmp_path, caplog):
    code = run("augment", "--dataset", data / "pool.jsonl", "--k", "2",
               "--out", tmp_path / "x.jsonl")
    assert code == 1
    assert "--method" in caplog.text


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("flag, value", [
    ("--k", 0), ("--max-inflight", 0), ("--max-inflight", -3),
])
def test_nonpositive_count_is_a_one_line_error(data, tmp_path, caplog, source, flag,
                                               value):
    settings = {"--k": 2, "--max-inflight": 1, flag: value}
    out = tmp_path / "o.jsonl"
    if source == "flag":
        argv = augment_argv(data, "rs", out, *(str(x) for kv in settings.items() for x in kv))
    else:
        config = write_json(tmp_path / "config.json", {
            key[2:].replace("-", "_"): v for key, v in settings.items()
        })
        argv = augment_argv(data, "rs", out, "--config", config)
    assert run(*argv) == 1
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.getMessage() == f"{flag} must be positive"
    assert sorted(tmp_path.iterdir()) == ([] if source == "flag" else [config])


@pytest.mark.parametrize("flag", ["--config", "--dataset"])
def test_missing_file_is_a_one_line_error(data, tmp_path, caplog, flag):
    missing = tmp_path / "missing.json"
    code = run("augment", "--dataset", data / "pool.jsonl", "--method", "rs",
               "--k", "2", "--seed", "1", flag, missing, "--out", tmp_path / "o.jsonl")
    assert code == 1
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert str(missing) in record.getMessage()
    assert record.exc_info is None


@pytest.mark.parametrize("templates, key", [
    ({"terminator": ""}, "terminator"),
    ({"arrow": ""}, "arrow"),
    ({"arrow": "  "}, "arrow"),
    ({"arow": "->"}, "arow"),
    ({"language_names": ["en"]}, "language_names"),
], ids=["empty-terminator", "empty-arrow", "blank-arrow", "unknown-key",
        "names-list"])
def test_bad_prompt_template_file_is_rejected(data, tmp_path, caplog, templates, key):
    # A blank arrow or terminator would fail every candidate as invalid
    # separators, so the file is refused with one line before any work.
    path = write_json(tmp_path / "prompts.json", templates)
    code = run("augment", "--dataset", data / "pool.jsonl", "--method", "gb",
               "--k", "2", "--seed", "1", "--prompt-templates", path,
               "--out", tmp_path / "o.jsonl")
    assert code == 1
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert repr(key) in record.getMessage()
    assert record.exc_info is None
    assert not (tmp_path / "o.jsonl").exists()


def test_config_only_templates_are_used(data, tmp_path):
    cf = json.loads(
        resources.files("clasp.data").joinpath("cf_templates.json").read_text("utf-8")
    )
    cf["order_prefix"] = "we want"
    rules = [{"pattern": r"^\[CTX\] ", "corruptions": ["copy_example"]}, {}]
    config = write_json(tmp_path / "config.json", {
        "dataset": str(data / "pool.jsonl"), "method": "rs", "k": 8, "seed": 3,
        "mock_rules": str(write_json(tmp_path / "rules.json", rules)),
        "prompt_templates": str(write_json(tmp_path / "prompts.json",
                                           {"clm_token": "[CTX]"})),
        "cf_templates": str(write_json(tmp_path / "cf.json", cf)),
    })
    assert run("augment", "--config", config, "--out", tmp_path / "out.jsonl") == 0
    rows = read_jsonl(tmp_path / "out.jsonl")
    assert len(rows) == 8
    # Every prompt starts with the configured control token, so the rule
    # copies an example into every candidate and every task falls back.
    assert {ex.source for ex in rows} == {"fallback"}
    assert all(ex.cf.startswith("we want ") for ex in rows)


@pytest.mark.parametrize("typo, name", [
    ({"max_inflite": 2}, "max_inflite"),
    ({"out": "elsewhere.jsonl"}, "out"),
    ({"decoding": {"temprature": 0.5}}, "temprature"),
    # Values that fail the flag's type or choices check, or the field type.
    ({"k": "5"}, "k"),
    ({"decoding": {"n": "2"}}, "decoding.n"),
    ({"method": "xx"}, "method"),
    # The request's stop is the prompt's terminator, not a decoding field.
    ({"decoding": {"stop_sequence": ";"}}, "stop_sequence"),
])
def test_unknown_config_key_is_rejected(data, tmp_path, caplog, typo, name):
    config = write_json(tmp_path / "config.json", {
        "dataset": str(data / "pool.jsonl"), "method": "rs", "k": 2, "seed": 1,
        **typo,
    })
    assert run("augment", "--config", config, "--out", tmp_path / "o.jsonl") == 1
    assert repr(name) in caplog.text
    assert not (tmp_path / "o.jsonl").exists()


@pytest.mark.parametrize("method", ["ts", "mt"])
def test_default_langs_are_the_anchor_languages(data, tmp_path, method):
    out = tmp_path / "out.jsonl"
    assert run(*augment_argv(data, method, out, "--k", "6")) == 0
    anchors = json.loads(
        resources.files("clasp.data").joinpath("mtop_anchors.json").read_text("utf-8")
    )
    langs = sorted(anchors)
    key = "language" if method == "mt" else "lang"
    assert [r[key] for r in read_records(out)] == [langs[i % len(langs)] for i in range(6)]


@pytest.mark.parametrize("method", ["rs", "gb", "ts"])
def test_augment_over_its_own_dataset_writes_what_it_writes_elsewhere(
    data, tmp_path, method
):
    # The pool is read through the file the run opened, which the rename
    # of --out onto the same path does not touch.
    elsewhere = augment_outputs(data, method, tmp_path)["out"]
    argv = augment_argv(data, method, tmp_path / "x", *AUGMENT_RUNS[method])
    pool = tmp_path / "over" / Path(argv[argv.index("--dataset") + 1]).name
    pool.parent.mkdir()
    shutil.copy(argv[argv.index("--dataset") + 1], pool)
    argv[argv.index("--dataset") + 1] = argv[argv.index("--out") + 1] = pool
    assert run(*argv) == 0
    assert pool.read_bytes() == elsewhere.read_bytes()


def test_rs_fallback_keeps_its_task_position(data, tmp_path):
    # One value per label: a task whose slots all hold that value has
    # nothing to replace, so it gets no prompt and falls back at once.
    catalog = write_json(tmp_path / "catalog.json", {
        "Number": ["a"], "Size": ["large"], "Style": ["thin crust"],
        "Topping": ["ham"], "Quantity": ["extra"], "Drinktype": ["sprite"],
        "Containertype": ["cans"],
    })
    pool_path = tmp_path / "pool.jsonl"
    pool = list(read_jsonl(data / "pool.jsonl"))
    no_prompt = Example(
        id="pizza-fixed", lang="en", text="a ham pizza",
        parse="(ORDER (PIZZAORDER (NUMBER a ) (TOPPING ham ) ) )", source="dev",
    )
    pool.insert(1, no_prompt)
    pool_path.write_text(
        "".join(json.dumps(ex.to_dict()) + "\n" for ex in pool), encoding="utf-8"
    )
    out = tmp_path / "out.jsonl"
    assert run("augment", "--method", "rs", "--dataset", pool_path, "--k", "12",
               "--seed", "2", "--catalog", catalog, "--out", out) == 0
    rows = read_jsonl(out)
    assert len(rows) == 12
    for i, row in enumerate(rows):
        original = pool[i % len(pool)]
        assert row.id in (f"rs-{i:05d}", original.id), (i, row.id)
    assert rows[1].id == "pizza-fixed" and rows[1].source == "fallback"
    assert rows[1 + len(pool)].id == "pizza-fixed"


def test_partial_holds_rows_finished_before_backend_failure(
    data, tmp_path, monkeypatch
):
    full = tmp_path / "full.jsonl"
    argv = augment_argv(data, "gb", full, "--k", "6", "--max-inflight", "1")
    assert run(*argv) == 0
    original = MockBackend.generate
    calls = []

    def failing(self, prompt, cfg):
        calls.append(prompt)
        if len(calls) == 3:
            raise BackendUnavailable("injected failure")
        return original(self, prompt, cfg)

    monkeypatch.setattr(MockBackend, "generate", failing)
    out = tmp_path / "out.jsonl"
    assert run(*augment_argv(data, "gb", out, "--k", "6", "--max-inflight", "1")) == 3
    assert not out.exists()
    partial = read_records(str(out) + ".partial")
    assert partial == read_records(full)[:2]


def test_early_errors_leave_no_partial(data, tmp_path, caplog):
    out = tmp_path / "out.jsonl"
    tiny = tmp_path / "tiny.jsonl"
    tiny.write_text((data / "pool.jsonl").read_text().splitlines()[0] + "\n")
    argv = augment_argv(data, "rs", out, "--k", "3")
    argv[argv.index("--dataset") + 1] = tiny
    assert run(*argv) == 1
    assert "at least 5 distinct" in caplog.text
    assert run(*augment_argv(data, "ts", out, "--k", "3", "--langs", "xx")) == 1
    assert "no anchor pair" in caplog.text
    names = write_json(tmp_path / "names.json",
                       {"language_names": {"en": "English", "de": "German"}})
    assert run(*augment_argv(data, "mt", out, "--k", "3", "--langs", "de,fr",
                             "--prompt-templates", names)) == 1
    assert "no language name configured for 'fr'" in caplog.text
    assert sorted(tmp_path.iterdir()) == [names, tiny]


@pytest.mark.parametrize("langs", [
    ("--langs", ","), ("--config", []), ("--config", " , ")
], ids=["flag", "config-list", "config-string"])
def test_an_empty_language_list_is_a_one_line_error(data, tmp_path, caplog, langs):
    # An empty list would otherwise run every anchor language.
    flag, value = langs
    if flag == "--config":
        value = write_json(tmp_path / "config.json", {"langs": value})
    out = tmp_path / "out" / "ts.jsonl"
    assert run(*augment_argv(data, "ts", out, "--k", "3", flag, value)) == 1
    assert _one_error(caplog) == "--langs names no language"
    assert not out.parent.exists()


def _http_gb_argv(data, out, inflight):
    return ["augment", "--method", "gb", "--dataset", data / "pool.jsonl",
            "--seed", "7", "--backend", "http", "--k", "30",
            "--max-inflight", str(inflight), "--out", out]


def test_http_run_uses_one_connection_per_request_slot(
    data, tmp_path, monkeypatch, keepalive_server
):
    server, url = keepalive_server
    monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
    out = tmp_path / "out.jsonl"
    assert run(*_http_gb_argv(data, out, 3)) == 0
    assert len(read_records(out)) == 30
    assert len(server.seen) == 30
    assert 1 <= len({addr for addr, *_ in server.seen}) <= 3


def test_http_run_leaves_no_socket_open(data, tmp_path, monkeypatch, keepalive_server):
    server, url = keepalive_server
    monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
    server.script = [(200, None), (503, None), (200, "header"), (200, "silent")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        assert run(*_http_gb_argv(data, tmp_path / "out.jsonl", 2)) == 0
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []


def test_partial_is_the_same_with_requests_in_flight(
    data, tmp_path, monkeypatch, keepalive_server
):
    _, url = keepalive_server
    monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
    full = tmp_path / "full.jsonl"
    assert run(*_http_gb_argv(data, full, 4)) == 0
    generate = HttpBackend.generate
    prompts_seen = []

    def recording(self, prompt, cfg):
        prompts_seen.append(prompt.text)
        return generate(self, prompt, cfg)

    monkeypatch.setattr(HttpBackend, "generate", recording)
    assert run(*_http_gb_argv(data, tmp_path / "ref.jsonl", 1)) == 0
    fatal = prompts_seen[5]

    def failing(self, prompt, cfg):
        if prompt.text == fatal:
            raise BackendUnavailable("injected failure")
        return generate(self, prompt, cfg)

    monkeypatch.setattr(HttpBackend, "generate", failing)
    out = tmp_path / "out.jsonl"
    assert run(*_http_gb_argv(data, out, 4)) == 3
    assert not out.exists()
    assert read_records(str(out) + ".partial") == read_records(full)[:5]
    assert [p.name for p in tmp_path.iterdir() if p.name.startswith("out")] == [
        "out.jsonl.partial"
    ]


@pytest.mark.parametrize("inflight", [1, 3])
def test_tasks_are_built_within_the_window(
    data, tmp_path, monkeypatch, keepalive_server, inflight
):
    server, url = keepalive_server
    monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
    built, ahead = [], []
    build = prompts.build_gb_prompt
    write_text = RecordWriter.write_text

    def building(*args, **kwargs):
        built.append(1)
        return build(*args, **kwargs)

    def writing(self, text, count):
        ahead.append(len(built) - self.count)
        write_text(self, text, count)

    monkeypatch.setattr(prompts, "build_gb_prompt", building)
    monkeypatch.setattr(RecordWriter, "write_text", writing)
    assert run(*_http_gb_argv(data, tmp_path / "out.jsonl", inflight)) == 0
    window = 1 if inflight == 1 else cli._WINDOW_PER_SLOT * inflight + 1
    assert len(ahead) == len(built) == len(server.seen) == 30
    assert max(ahead) == window


@pytest.mark.parametrize("chunks", ["one", "many", "forked"])
def test_a_mock_run_starts_no_thread(data, tmp_path, monkeypatch, chunks):
    # --max-inflight is an HTTP setting: gb asks for 4 and ts takes the
    # default, yet the mock sends one request at a time, in process or on
    # forked workers, which start no thread here either.
    def forbidden(self):
        raise AssertionError("a thread was started")

    if chunks != "one":
        two_workers(monkeypatch)
    if chunks == "many":
        monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(threading.Thread, "start", forbidden)
    for method in ("gb", "ts"):
        files = augment_outputs(data, method, tmp_path)
        assert {n: sha256(p) for n, p in files.items()} == EXPECTED_DIGESTS[method]


def test_an_interrupt_in_an_in_process_chunk_keeps_its_finished_rows(
    data, tmp_path, monkeypatch, caplog
):
    full = tmp_path / "full.jsonl"
    assert run(*augment_argv(data, "gb", full, *AUGMENT_RUNS["gb"])) == 0
    generate = MockBackend.generate
    calls = []

    def interrupted(self, prompt, cfg):
        calls.append(prompt)
        if len(calls) == 4:
            raise KeyboardInterrupt
        return generate(self, prompt, cfg)

    monkeypatch.setattr(MockBackend, "generate", interrupted)
    out = tmp_path / "out.jsonl"
    with pytest.raises(KeyboardInterrupt):
        run(*augment_argv(data, "gb", out, *AUGMENT_RUNS["gb"]))
    assert not out.exists()
    assert read_records(f"{out}.partial") == read_records(full)[:3]
    assert f"flushed 3 partial rows to {out}.partial" in caplog.text


def test_the_slot_nbest_pass_runs_over_http(
    data, tmp_path, monkeypatch, keepalive_server
):
    # Small chunks on two CPUs would fork a mock pass; an HTTP pass stays
    # here, and its n-best covers every value of the rendered rows.
    def forbidden():
        raise AssertionError("a process was started")

    two_workers(monkeypatch)
    monkeypatch.setattr(os, "fork", forbidden)
    server, url = keepalive_server
    monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
    out = tmp_path / "ts.jsonl"
    assert run("augment", "--method", "ts", "--dataset", data / "mtop.jsonl",
               "--seed", "7", "--backend", "http", "--k", "18",
               "--langs", "de,es,fr", "--max-inflight", "3", "--out", out) == 0
    values = {v for _, _, parse in MTOP_ROWS for v in _leaf_values(parse)}
    written = json.loads(Path(f"{out}.nbest.json").read_text(encoding="utf-8"))
    assert {lang: set(found) for lang, found in written.items()} == {
        lang: values for lang in ("de", "es", "fr")
    }
    assert len(server.seen) == 3 * len(values) + 18
    assert len(read_records(out)) == 18


# ------------------------------------------------------------ augment in chunks


def record_request_pids(monkeypatch, path: Path) -> None:
    """Append the id of the process that sends each mock request to ``path``."""
    generate = MockBackend.generate

    def recording(self, prompt, cfg):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        return generate(self, prompt, cfg)

    monkeypatch.setattr(MockBackend, "generate", recording)


@pytest.mark.parametrize("method", sorted(AUGMENT_RUNS))
def test_augment_in_chunks_on_two_workers_is_the_in_process_run(
    data, tmp_path, monkeypatch, method
):
    # EXPECTED_DIGESTS pin the in-process run. Here every request, slot
    # n-best included, is sent from a worker.
    two_workers(monkeypatch)
    pids = tmp_path / "pids"
    record_request_pids(monkeypatch, pids)
    files = augment_outputs(data, method, tmp_path)
    assert {name: sha256(path) for name, path in files.items()} == EXPECTED_DIGESTS[method]
    sent_from = pids.read_text().split()
    assert sent_from and str(os.getpid()) not in sent_from
    assert_no_child_left()


def test_a_backend_failure_in_a_later_chunk_leaves_the_in_process_partial(
    data, tmp_path, monkeypatch, caplog
):
    generate = MockBackend.generate
    seen = []

    def recording(self, prompt, cfg):
        seen.append(prompt.text)
        return generate(self, prompt, cfg)

    monkeypatch.setattr(MockBackend, "generate", recording)
    full = tmp_path / "full.jsonl"
    assert run(*augment_argv(data, "ts", full, *REAL_PARSES["ts"])) == 0
    # The last 18 requests are the tasks': fail task 13, in the fifth chunk.
    fatal = seen[-5]

    def failing(self, prompt, cfg):
        if prompt.text == fatal:
            raise BackendUnavailable("injected failure")
        return generate(self, prompt, cfg)

    monkeypatch.setattr(MockBackend, "generate", failing)
    partials = []
    for name in ("in-process", "two-workers"):
        if name == "two-workers":
            two_workers(monkeypatch)
        out = tmp_path / f"{name}.jsonl"
        caplog.clear()
        assert run(*augment_argv(data, "ts", out, *AUGMENT_RUNS["ts"])) == 3
        assert not out.exists()
        assert f"flushed 13 partial rows to {out}.partial" in caplog.text
        partials.append(Path(f"{out}.partial").read_bytes())
    assert partials[0] == partials[1]
    assert read_records(tmp_path / "two-workers.jsonl.partial") == read_records(full)[:13]
    assert_no_child_left()


@pytest.mark.parametrize("command", ["preprocess-pizza", "augment"])
def test_a_worker_that_dies_is_one_error_line(
    data, tmp_path, monkeypatch, caplog, command
):
    main = os.getpid()

    def dying(chunk_fn, start):
        # The chunk that starts at row or task 9 kills its own worker.
        def chunk(*args):
            if args[-1][0] == start and os.getpid() != main:
                os.kill(os.getpid(), signal.SIGKILL)
            return chunk_fn(*args)
        return chunk

    out = tmp_path / "out" / "out.jsonl"
    if command == "augment":
        full = tmp_path / "full.jsonl"
        generate = MockBackend.generate
        seen = []

        def recording(self, prompt, cfg):
            seen.append(prompt.text)
            return generate(self, prompt, cfg)

        monkeypatch.setattr(MockBackend, "generate", recording)
        assert run(*augment_argv(data, "gb", full, *AUGMENT_RUNS["gb"])) == 0
    two_workers(monkeypatch)
    caplog.clear()
    if command == "augment":
        # The worker that sends task 9's request, the first of the chunk
        # that starts at task 9, kills itself.
        def killing(self, prompt, cfg):
            if prompt.text == seen[9] and os.getpid() != main:
                os.kill(os.getpid(), signal.SIGKILL)
            return generate(self, prompt, cfg)

        monkeypatch.setattr(MockBackend, "generate", killing)
        code = run(*augment_argv(data, "gb", out, *AUGMENT_RUNS["gb"]))
    else:
        monkeypatch.setattr(datasets, "_map_chunk", dying(datasets._map_chunk, 9))
        code = preprocess(write_map_inputs(tmp_path), "pizza-fixed-cf", out)
    assert code == 1
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert errors[-1].getMessage() == "a worker process died before returning its chunk"
    assert all(r.exc_info is None for r in errors)
    if command == "augment":
        # The chunks written before the lost one are kept.
        (left,) = out.parent.iterdir()
        assert left.name == "out.jsonl.partial"
        kept = read_records(left)
        assert len(kept) in (0, 3, 6, 9) and kept == read_records(full)[: len(kept)]
        assert errors[0].getMessage() == f"flushed {len(kept)} partial rows to {left}"
        assert len(errors) == 2
    else:
        assert len(errors) == 1
        assert list(out.parent.iterdir()) == []
    assert_no_child_left()


def test_an_interrupt_stops_only_the_main_process(data, tmp_path, monkeypatch, caplog):
    # Ctrl-C signals the whole process group: a worker goes on with its
    # chunk, and the main process keeps the chunks written before it.
    two_workers(monkeypatch)
    main, generate = os.getpid(), MockBackend.generate

    def interrupted(self, prompt, cfg):
        if os.getpid() != main:
            os.kill(os.getpid(), signal.SIGINT)
        return generate(self, prompt, cfg)

    monkeypatch.setattr(MockBackend, "generate", interrupted)
    files = augment_outputs(data, "gb", tmp_path)
    assert sha256(files["out"]) == EXPECTED_DIGESTS["gb"]["out"]
    write_text = RecordWriter.write_text

    def writing(self, text, count):
        # Each row is written on its own: stop after the first chunk's.
        if self.count == MAP_CHUNK:
            raise KeyboardInterrupt
        write_text(self, text, count)

    monkeypatch.setattr(RecordWriter, "write_text", writing)
    out = tmp_path / "out.jsonl"
    with pytest.raises(KeyboardInterrupt) as stopped:
        run(*augment_argv(data, "gb", out, *AUGMENT_RUNS["gb"]))
    # ``stopped`` keeps the traceback's frames alive: the workers must have
    # been stopped when the run ended, not when its frames are freed.
    assert stopped.traceback
    assert read_records(f"{out}.partial") == read_records(files["out"])[:3]
    assert f"flushed 3 partial rows to {out}.partial" in caplog.text
    assert_no_child_left()


def test_a_one_chunk_mock_run_and_an_http_run_start_no_process(
    data, tmp_path, monkeypatch, keepalive_server
):
    def forbidden():
        raise AssertionError("a process was started")

    monkeypatch.setattr(os, "fork", forbidden)
    monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0, 1})
    # ts runs both passes; the fixture's tasks and n-best jobs fit in one chunk.
    files = augment_outputs(data, "ts", tmp_path)
    assert {name: sha256(path) for name, path in files.items()} == EXPECTED_DIGESTS["ts"]
    # An HTTP backend waits on the network: its tasks stay on threads here.
    two_workers(monkeypatch)
    server, url = keepalive_server
    monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
    out = tmp_path / "http.jsonl"
    assert run(*_http_gb_argv(data, out, 3)) == 0
    assert len(read_records(out)) == len(server.seen) == 30


# Real parses (memo misses) of one serial run on the fixtures; a call site
# that goes around the memo, or a smaller memo, parses more. The parse
# calls these runs make are 198 (rs) and 72 (ts).
REAL_PARSES = {
    "rs": ("--k", "24", "--max-inflight", "1"),
    "ts": ("--k", "18", "--langs", "de,es,fr", "--max-inflight", "1"),
}
MAX_REAL_PARSES = {"rs": 31, "ts": 18}


@pytest.mark.parametrize("method", sorted(REAL_PARSES))
def test_trees_are_parsed_about_once(data, tmp_path, monkeypatch, method):
    parse_text = trees._parse_text
    parsed = []

    def counting(s, dialect):
        parsed.append(s)
        return parse_text(s, dialect)

    monkeypatch.setattr(trees, "_parse_text", counting)
    trees._parse_memo.cache_clear()
    out = tmp_path / "out.jsonl"
    assert run(*augment_argv(data, method, out, *REAL_PARSES[method])) == 0
    assert len(parsed) <= MAX_REAL_PARSES[method]


def test_gate_binds_each_ts_candidate_once(data, tmp_path, monkeypatch):
    # 18 gate_mtop calls: one exact binding each, one per n-best trial, and
    # for a casing repair one folded binding plus the check of the result.
    bind = gate.bind_slot_spans
    calls = []

    def counting(*args, **kwargs):
        calls.append(kwargs.get("fold", False))
        return bind(*args, **kwargs)

    monkeypatch.setattr(gate, "bind_slot_spans", counting)
    out = tmp_path / "out.jsonl"
    assert run(*augment_argv(data, "ts", out, *REAL_PARSES["ts"])) == 0
    assert (len(calls), sum(calls)) == (36, 6)


def test_ts_gates_every_output(data, tmp_path):
    # Four ts outputs: the first drops a slot word and nothing recovers it,
    # the others bind every slot, so the task emits the best of them.
    rules = write_json(tmp_path / "rules.json", [
        {"pattern": r"^\[CLM\] Translation in English:"},
        {"pattern": r"^\[CLM\] Semantic Parse:",
         "corruptions": ["drop_slot_word"], "corrupt_count": 1},
    ])
    config = write_json(tmp_path / "config.json",
                        {"decoding": {"mode": "sampling", "n": 4}})
    out = tmp_path / "ts.jsonl"
    assert run("augment", "--method", "ts", "--dataset", data / "mtop.jsonl",
               "--seed", "7", "--mock-rules", rules, "--config", config,
               "--k", "1", "--langs", "de", "--out", out) == 0
    (row,) = read_jsonl(out)
    assert (row.id, row.source) == ("ts-00000", "clasp-ts")
    stats = json.loads((tmp_path / "ts.stats.json").read_text())["rows"][0]
    assert stats["outputs"] == 4
    assert stats["failure_modes"]["missing_slot"] > 0


def test_config_decoding_leaves_the_slot_nbest_pass_at_its_own(data, tmp_path):
    # decoding sets the method's decoding; the n-best pass keeps beam 4.
    config = write_json(tmp_path / "config.json", {"decoding": {"n": 2}})
    out = tmp_path / "ts.jsonl"
    assert run(*augment_argv(data, "ts", out, *AUGMENT_RUNS["ts"],
                             "--config", config)) == 0
    assert sha256(Path(f"{out}.nbest.json")) == EXPECTED_DIGESTS["ts"]["nbest"]


# ------------------------------------------------------------- slot n-best map


def _leaf_values(parse: str) -> list[str]:
    tree = trees.parse(parse, trees.Dialect.MTOP_BRACKET)
    return [ref.value_text for ref in trees.leaf_slots(tree)]


def test_nbest_covers_only_the_rendered_rows(data, tmp_path):
    # ts --k 3 in three languages renders row 0 only, so only its values
    # are translated; the rows equal a run given the whole-pool map.
    small, full = tmp_path / "small", tmp_path / "full"
    small.mkdir()
    full.mkdir()
    langs = ("--langs", "de,es,fr")
    assert run(*augment_argv(data, "ts", small / "ts.jsonl", "--k", "3", *langs)) == 0
    written = json.loads((small / "ts.jsonl.nbest.json").read_text(encoding="utf-8"))
    row0 = sorted(_leaf_values(MTOP_ROWS[0][2]))
    assert {lang: sorted(values) for lang, values in written.items()} == {
        lang: row0 for lang in ("de", "es", "fr")
    }
    assert run(*augment_argv(data, "ts", full / "ts.jsonl", *AUGMENT_RUNS["ts"])) == 0
    assert run(*augment_argv(data, "ts", full / "k3.jsonl", "--k", "3", *langs,
                             "--nbest-in", full / "ts.jsonl.nbest.json")) == 0
    assert (small / "ts.jsonl").read_bytes() == (full / "k3.jsonl").read_bytes()
    assert (small / "ts.stats.json").read_bytes() == (full / "k3.stats.json").read_bytes()


def test_nbest_in_missing_a_rendered_value_is_a_one_line_error(data, tmp_path, caplog):
    langs = ("--langs", "de,es,fr")
    assert run(*augment_argv(data, "ts", tmp_path / "k3.jsonl", "--k", "3", *langs)) == 0
    nbest = tmp_path / "k3.jsonl.nbest.json"
    out = tmp_path / "k18.jsonl"
    caplog.clear()
    code = run(*augment_argv(data, "ts", out, "--k", "18", *langs, "--nbest-in", nbest))
    assert_one_line_error(caplog, code, nbest)
    # Rows 1-5 hold 7 values the file lacks, in each of the 3 languages.
    values = sorted({v for _, _, parse in MTOP_ROWS[1:] for v in _leaf_values(parse)})
    assert len(values) == 7
    message = caplog.records[-1].getMessage()
    assert "21 (language, value) pairs" in message
    assert message.endswith(f"the first de {values[0]!r}")
    assert not out.exists() and not Path(str(out) + ".partial").exists()


def test_nbest_keeps_a_value_without_candidates(data, tmp_path):
    # The mock answers every slot translation with an empty text: each value
    # of row 0 is written with no candidate, and the file covers a rerun.
    rules = write_json(tmp_path / "rules.json", [
        {"pattern": r"^\[CLM\] Translation in English:", "responses": [";"]}, {},
    ])
    first, again = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    argv = ["augment", "--method", "ts", "--dataset", data / "mtop.jsonl", "--seed",
            "7", "--mock-rules", rules, "--k", "1", "--langs", "de"]
    assert run(*argv, "--out", first) == 0
    nbest = tmp_path / "a.jsonl.nbest.json"
    row0 = _leaf_values(MTOP_ROWS[0][2])
    assert json.loads(nbest.read_text(encoding="utf-8")) == {
        "de": {value: [] for value in sorted(row0)}
    }
    assert run(*argv, "--out", again, "--nbest-in", nbest) == 0
    assert again.read_bytes() == first.read_bytes()


# ------------------------------------------------------------------ work counts

# The work of an augment run depends on k, never on the pool size. Pools
# of 300 and 3000 generated rows share their first 300 rows, so every k
# below touches the same rows, and sends the same requests, at both sizes.
WORK_POOL_SIZES = (300, 3000)
WORK_KS = (6, 30)
WORK_LANGS = ("de", "es", "fr")
_WORK_NUMBERS = ("two", "three", "four", "five")
_WORK_TOPPINGS = ("bacon", "onions", "spinach", "mushrooms")
_WORK_TIMES = ("today", "at 7 pm", "on friday")
# Prompts built, real tree parses (memo misses) and pool rows built
# (``Example.from_dict`` calls) per task, at most. An rs task builds its
# row and 4 context rows, and a gb task 5 context rows and the one its
# fallback draws. ts and tb build rows by pass, not by task: see
# ``_max_mtop_rows``.
MAX_PROMPTS_PER_TASK = 3
MAX_PARSES_PER_TASK = 3
MAX_ROWS_PER_TASK = 6


def _max_mtop_rows(k: int) -> int:
    """The pool rows a ts/tb run of ``k`` tasks builds, at most: each row
    its tasks render once in the slot n-best pass and once in the task
    pass, where a chunk boundary that splits a row's tasks builds it once
    more."""
    rendered = len({i // len(WORK_LANGS) for i in range(k)})
    return 2 * rendered + len(datasets.chunk_spans(k)) - 1


def _work_row(method: str, j: int) -> dict:
    if method in ("rs", "gb"):
        number, topping = _WORK_NUMBERS[j % 4], _WORK_TOPPINGS[j // 4 % 4]
        text = f"i want {number} pizza with {topping}"
        parse = f"(ORDER (PIZZAORDER (NUMBER {number} ) (TOPPING {topping} ) ) )"
    else:
        when = _WORK_TIMES[j % 3]
        text = f"call bob{j} {when}"
        parse = f"[IN:CREATE_CALL [SL:CONTACT bob{j} ] [SL:DATE_TIME {when} ] ]"
    return {"id": f"w-{j:05d}", "lang": "en", "text": text, "parse": parse,
            "source": "dev"}


def _expected_requests(method: str, k: int) -> int:
    """1 per task, plus for ts/tb one slot translation per distinct value of
    the touched rows and language."""
    if method in ("rs", "gb"):
        return k
    rows = {i // len(WORK_LANGS) for i in range(k)}
    values = {f"bob{j}" for j in rows} | {_WORK_TIMES[j % 3] for j in rows}
    return k + len(values) * len(WORK_LANGS)


@pytest.mark.parametrize("method", ["rs", "gb", "ts", "tb"])
def test_work_depends_on_k_not_on_the_pool_size(tmp_path, monkeypatch, method):
    counts = Counter()
    generate, from_dict, parse_text = (
        MockBackend.generate, Example.from_dict, trees._parse_text
    )

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(MockBackend, "generate", counted("requests", generate))
    monkeypatch.setattr(Example, "from_dict", staticmethod(counted("rows", from_dict)))
    monkeypatch.setattr(trees, "_parse_text", counted("parses", parse_text))
    for name in dir(prompts):
        if name.startswith("build_") and name.endswith("_prompt"):
            monkeypatch.setattr(prompts, name, counted("prompts", getattr(prompts, name)))
    rows = [_work_row(method, j) for j in range(max(WORK_POOL_SIZES))]
    for size in WORK_POOL_SIZES:
        pool = write_jsonl(tmp_path / f"pool{size}.jsonl", rows[:size])
        for k in WORK_KS:
            counts.clear()
            trees._parse_memo.cache_clear()
            out = tmp_path / f"{size}-{k}.jsonl"
            assert run("augment", "--method", method, "--dataset", pool, "--k", k,
                       "--seed", "3", "--langs", ",".join(WORK_LANGS),
                       "--max-inflight", "1", "--out", out) == 0
            assert counts["requests"] == _expected_requests(method, k)
            assert counts["prompts"] <= MAX_PROMPTS_PER_TASK * k
            assert counts["parses"] <= MAX_PARSES_PER_TASK * k
            # Only the rows a task touches are built, not the pool.
            if method in ("ts", "tb"):
                assert counts["rows"] <= _max_mtop_rows(k)
            else:
                assert counts["rows"] <= MAX_ROWS_PER_TASK * k


# ----------------------------------------------------------------- memory


def _traced_peak(fn):
    """``(result, peak, after)``: ``fn()`` and the bytes tracemalloc saw
    allocated at the call's peak and at its end."""
    gc.collect()
    tracemalloc.start()
    try:
        result = fn()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak, after


# Bytes project-mt may hold per MT row and its alignment row, at most: the
# byte spans of both rows and the alignment's entry in the key index, about
# 47 bytes at the peak, while the index is sorted; not the rows' keys,
# records, pairs or trees.
MAX_PROJECT_BYTES_PER_ROW = 64


def test_project_mt_holds_a_few_bytes_per_mt_row(tmp_path):
    dataset = write_jsonl(tmp_path / "dataset.jsonl",
                          [_work_row("ts", j) for j in range(1000)])
    peaks = {}
    for n in (300, 3000):
        mt, align = [], []
        for i in range(n):
            row, lang = _work_row("ts", i % 1000), WORK_LANGS[i // 1000]
            words = row["text"].split()
            mt.append({"id": row["id"], "language": lang,
                       "text": " ".join(f"{w}_{lang}" for w in words) + " ;"})
            align.append({"id": row["id"], "language": lang,
                          "pairs": [[k, k] for k in range(len(words))]})
        argv = ["project-mt", "--dataset", dataset,
                "--mt", write_jsonl(tmp_path / f"mt{n}.jsonl", mt),
                "--align", write_jsonl(tmp_path / f"align{n}.jsonl", align),
                "--out", tmp_path / f"proj{n}.jsonl"]
        if not peaks:
            assert run(*argv) == 0  # fills every cache the command keeps
        code, peaks[n], _ = _traced_peak(lambda: run(*argv))
        assert code == 0
        assert len(read_records(tmp_path / f"proj{n}.jsonl")) == n
    per_row = (peaks[3000] - peaks[300]) / 2700
    assert per_row <= MAX_PROJECT_BYTES_PER_ROW, per_row


def test_the_nbest_write_holds_little_beyond_the_map(tmp_path, monkeypatch):
    # Building the slot n-best holds, beyond the map it returns, the sorted
    # values and a chunk's candidates; the file is streamed from the map,
    # so neither a copy of the map nor the file's text is held.
    monkeypatch.setattr(datasets.os, "sched_getaffinity", lambda pid: {0})
    rows = [dict(_work_row("ts", j), text=f"call doctor bob{j} of the yearly planning "
                 f"meeting {_WORK_TIMES[j % 3]}",
                 parse=f"[IN:CREATE_CALL [SL:CONTACT doctor bob{j} of the yearly "
                 f"planning meeting ] [SL:DATE_TIME {_WORK_TIMES[j % 3]} ] ]")
            for j in range(600)]
    anchors = datasets.read_json(datasets.packaged("mtop_anchors.json"), cli._anchor_pairs)
    nbest = tmp_path / "nbest.json"

    def build(k):
        args = argparse.Namespace(k=k, nbest_in=None, nbest_out=nbest,
                                  out=tmp_path / "out.jsonl", max_inflight=1)
        return cli._load_or_build_nbest(
            args, MockBackend([MockRule()]), pool, list(WORK_LANGS), anchors,
            prompts.PromptTemplates())

    with read_jsonl(write_jsonl(tmp_path / "pool.jsonl", rows)) as pool:
        build(3)
        built, peak, after = _traced_peak(lambda: build(3 * len(rows)))
    size = nbest.stat().st_size
    assert len(built.lists["de"]) == len(rows) + 3
    assert json.loads(nbest.read_text(encoding="utf-8")) == json.loads(
        json.dumps(built.lists))
    assert peak - after < 0.25 * size, (peak - after, size)


# ------------------------------------------------------------ downstream stages


def test_project_mt_projects_aligned_translations(data, tmp_path):
    pool = read_jsonl(data / "mtop.jsonl")[:2]
    mt, align = [], []
    for ex in pool:
        words = ex.text.split()
        mt.append({"id": ex.id, "language": "de",
                   "text": " ".join(f"{w}_de" for w in words) + " ;"})
        align.append({"id": ex.id, "language": "de",
                      "pairs": [[i, i] for i in range(len(words))]})
    mt.append({"id": pool[0].id, "language": "fr", "text": "Sentence : rien ;"})
    align.append({"id": pool[0].id, "language": "fr", "pairs": []})
    for name, rows in (("mt", mt), ("align", align)):
        (tmp_path / f"{name}.jsonl").write_text(
            "".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    out = tmp_path / "proj.jsonl"
    assert run("project-mt", "--dataset", data / "mtop.jsonl",
               "--mt", tmp_path / "mt.jsonl", "--align", tmp_path / "align.jsonl",
               "--out", out, "--check-sentence-marker", "--source-tag", "mt-20b") == 0
    rows = read_jsonl(out)
    assert [ex.id for ex in rows] == [ex.id for ex in pool]
    assert rows[0].parse == "[IN:CREATE_CALL [SL:CONTACT david_de ] " \
        "[SL:LOCATION yearly_de meeting_de ] ]"
    assert {ex.source for ex in rows} == {"mt-20b"}
    stats = tmp_path / "proj.stats.json"
    assert json.loads(stats.read_text())["kind"] == "mt_stats"
    rendered = tmp_path / "report.txt"
    assert run("report", "--in", stats, "--out", rendered) == 0
    assert rendered.read_bytes() == (tmp_path / "proj.stats.txt").read_bytes()


# How project-mt joins an MT row to its alignment, on row en-0 ("please
# call david from the yearly meeting") translated word for word into de:
# the alignment IDENTITY projects CONTACT onto "david_de", SWAP onto
# "from_de".
_MT_WORDS = MTOP_ROWS[0][1].split()
_MT_ROW = {"id": "en-0", "language": "de",
           "text": " ".join(f"{w}_de" for w in _MT_WORDS) + " ;"}
IDENTITY = [[i, i] for i in range(len(_MT_WORDS))]
SWAP = [[i, {2: 3, 3: 2}.get(i, i)] for i in range(len(_MT_WORDS))]


def _project(data, tmp_path, mt_rows, align_rows) -> tuple[int, list[str]]:
    """project-mt's exit code and the CONTACT value of each projected row."""
    out = tmp_path / "proj.jsonl"
    code = run("project-mt", "--dataset", data / "mtop.jsonl",
               "--mt", write_jsonl(tmp_path / "mt.jsonl", mt_rows),
               "--align", write_jsonl(tmp_path / "align.jsonl", align_rows),
               "--out", out)
    if code:
        return code, []
    return code, [ex.parse.split()[2] for ex in read_jsonl(out)]


@pytest.mark.parametrize("align, contact", [
    ([{"id": "en-0", "pairs": IDENTITY}], "david_de"),
    ([{"id": "en-0", "language": None, "pairs": SWAP}], "from_de"),
    ([{"id": "en-0", "pairs": SWAP}, {"id": "en-0", "language": "de", "pairs": IDENTITY}],
     "david_de"),
    ([{"id": "en-0", "language": "de", "pairs": []}, {"id": "en-0", "pairs": SWAP}],
     "from_de"),
    ([{"id": "en-0", "language": "de", "pairs": None}, {"id": "en-0", "pairs": SWAP}],
     "from_de"),
    ([{"id": "en-0", "language": "de", "pairs": IDENTITY},
      {"id": "en-0", "language": "de", "pairs": SWAP}], "from_de"),
    ([{"id": "en-0", "pairs": IDENTITY}, {"id": "en-0", "pairs": SWAP}], "from_de"),
    ([{"id": "en-0", "language": "fr", "pairs": SWAP}, {"id": "en-0", "pairs": IDENTITY}],
     "david_de"),
], ids=["id-only", "null-language-is-id-only", "language-row-first",
        "empty-pairs-fall-back", "null-pairs-fall-back", "later-language-row-wins",
        "later-id-only-row-wins", "other-language-ignored"])
def test_project_mt_joins_each_mt_row_to_its_alignment(data, tmp_path, align, contact):
    assert _project(data, tmp_path, [_MT_ROW], align) == (0, [contact])


def _one_error(caplog) -> str:
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert record.exc_info is None
    return record.getMessage()


@pytest.mark.parametrize("mt, align, message", [
    ([{**_MT_ROW, "id": "en-9"}], [{"id": "en-9", "pairs": IDENTITY}],
     "MT output id 'en-9' not in "),
    ([_MT_ROW], [{"id": "en-0", "language": "fr", "pairs": IDENTITY}],
     "no alignment for id 'en-0' language 'de'"),
    ([_MT_ROW], [{"id": "en-0", "language": "de", "pairs": []}],
     "no alignment for id 'en-0' language 'de'"),
    ([_MT_ROW], [{"id": "en-0", "pairs": None}],
     "no alignment for id 'en-0' language 'de'"),
    ([], [{"id": "en-0", "pairs": IDENTITY}], "MT output file {mt} is empty"),
    ([_MT_ROW], [], "alignment file {align} is empty"),
    ([_MT_ROW, {"id": "en-1", "text": "x ;"}], [{"id": "en-0"}],
     "{mt}:2: record lacks field 'language'"),
    ([_MT_ROW], [{"id": "en-0", "pairs": IDENTITY}, "x", {"id": "en-1"}],
     "{align}:2: expected a JSON object"),
    ([], [{"id": "en-0"}], "MT output file {mt} is empty"),
    ([_MT_ROW], [{"id": "en-0", "language": ["de"], "pairs": IDENTITY}],
     "{align}:1: language must be a string or null, got ['de']"),
    ([_MT_ROW], [{"id": "en-0", "pairs": IDENTITY},
                 {"id": "en-0", "language": {"de": 1}, "pairs": IDENTITY}],
     "{align}:2: language must be a string or null, got {{'de': 1}}"),
    ([_MT_ROW], [{"id": "en-0", "language": 5, "pairs": IDENTITY}],
     "{align}:1: language must be a string or null, got 5"),
], ids=["id-not-in-dataset", "no-alignment", "only-empty-pairs", "only-null-pairs",
        "empty-mt", "empty-align", "malformed-mt", "malformed-align",
        "empty-mt-before-malformed-align", "list-language", "object-language",
        "number-language"])
def test_project_mt_join_errors_are_one_line(data, tmp_path, caplog, mt, align, message):
    code, _ = _project(data, tmp_path, mt, align)
    assert code == 1
    assert _one_error(caplog).startswith(
        message.format(mt=tmp_path / "mt.jsonl", align=tmp_path / "align.jsonl"))
    assert not (tmp_path / "proj.jsonl").exists()


def test_mix_writes_manifest_and_plan(data, tmp_path):
    synthetic = augment_outputs(data, "rs", tmp_path)["out"]
    out = tmp_path / "manifest.jsonl"
    assert run("mix", "--real", data / "pool.jsonl", "--synthetic",
               f"clasp-rs={synthetic}", "--updates", "100", "--batch", "8",
               "--seed", "1", "--out", out) == 0
    plan = json.loads((tmp_path / "manifest.plan.json").read_text())
    assert plan["kind"] == "mix_plan"
    rows = read_records(out)
    assert len(rows) == plan["total"] == 2 * 24
    assert all(r["weight"] == 1.0 for r in rows)
    assert run("report", "--in", tmp_path / "manifest.plan.json") == 0


def test_mix_rejects_a_repeated_synthetic_tag(data, tmp_path, caplog):
    rows = read_records(data / "pool.jsonl")
    first = write_jsonl(tmp_path / "a.jsonl", rows[:3])
    second = write_jsonl(tmp_path / "b.jsonl", rows[3:4])
    out = tmp_path / "manifest.jsonl"
    code = run("mix", "--real", data / "pool.jsonl", "--synthetic", f"t={first}",
               "--synthetic", f"t={second}", "--updates", "10", "--batch", "2",
               "--seed", "1", "--out", out)
    assert code == 1
    assert _one_error(caplog) == "--synthetic tag 't' is given more than once"
    assert not out.exists() and not (tmp_path / "manifest.plan.json").exists()


@pytest.mark.parametrize("value", ["0", "-5"])
@pytest.mark.parametrize("flag", ["--updates", "--batch"])
def test_mix_rejects_a_count_that_is_not_positive(tmp_path, caplog, flag, value):
    # Checked before any file is read: the real set does not exist.
    counts = {"--updates": "10", "--batch": "2", flag: value}
    code = run("mix", "--real", tmp_path / "missing.jsonl",
               *(item for pair in counts.items() for item in pair),
               "--seed", "1", "--out", tmp_path / "manifest.jsonl")
    assert code == 1
    assert _one_error(caplog) == f"{flag} must be positive, got {value}"
    assert list(tmp_path.iterdir()) == []


def test_score_reports_exact_match(data, tmp_path, capsys):
    ref = data / "mtop.jsonl"
    hyp_rows = read_records(ref)
    hyp_rows[0]["parse"] = hyp_rows[1]["parse"]
    hyp = tmp_path / "hyp.jsonl"
    hyp.write_text("".join(json.dumps(r) + "\n" for r in hyp_rows), encoding="utf-8")
    out = tmp_path / "score.json"
    assert run("score", "--hyp", hyp, "--ref", ref, "--metric", "uem",
               "--out", out) == 0
    record = json.loads(out.read_text())
    assert record["per_lang"]["en"]["matched"] == len(MTOP_ROWS) - 1
    assert record["zero_shot_langs"] == ["de", "es", "fr", "hi"]
    assert "uem acc" in capsys.readouterr().out
    rendered = tmp_path / "report.txt"
    assert run("report", "--in", out, "--out", rendered) == 0
    assert rendered.read_bytes() == (tmp_path / "score.txt").read_bytes()


@pytest.mark.parametrize("record", [
    {"kind": "gate_stats", "rows": [{"method": "rs"}]},
    {"kind": "mt_stats", "rows": [{"language": "de", "total": 1}]},
    {"kind": "metric_report", "metric": "uem", "per_lang": {"de": {}}},
    {"kind": "metric_report", "metric": "uem",
     "per_lang": {"de": {"total": 0, "matched": 0}}},
    {"kind": "gate_stats"},
    ["not", "a", "record"],
    {"kind": "nonsense"},
    {"kind": "gate_stats", "rows": [{
        "method": "xx", "language": "en", "inputs": 1, "outputs": 1,
        "success_rate_inputs": 100.0, "success_rate_outputs": 100.0,
        "success_modes": {}, "failure_modes": {}}]},
    Raw("{bad"),
])
def test_report_rejects_malformed_record(tmp_path, caplog, record):
    path = write_json(tmp_path / "bad.json", record)
    assert_one_line_error(caplog, run("report", "--in", path), path)


def write_jsonl(path: Path, rows) -> Path:
    path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
    return path


def assert_one_line_error(caplog, code: int, path: Path) -> None:
    assert code == 1
    (record,) = [r for r in caplog.records if r.levelname == "ERROR"]
    assert str(path) in record.getMessage()
    assert record.exc_info is None


# (argv given the data fixture, the malformed file and tmp_path; its rows)
MALFORMED_RECORD_FILES = {
    "project-mt-align-without-pairs": (
        lambda d, bad, tmp: [
            "project-mt", "--dataset", d / "mtop.jsonl",
            "--mt", write_jsonl(tmp / "mt.jsonl", [
                {"id": "en-0", "language": "de", "text": "david anrufen ;"}]),
            "--align", bad, "--out", tmp / "proj.jsonl"],
        [{"id": "en-0", "language": "de"}],
    ),
    "score-hyp-without-parse": (
        lambda d, bad, tmp: ["score", "--hyp", bad, "--ref", d / "mtop.jsonl",
                             "--metric", "uem"],
        [{"id": MTOP_ROWS[0][0]}]
        + [{"id": i, "parse": parse} for i, _, parse in MTOP_ROWS[1:]],
    ),
    "mix-real-number-cf": (
        lambda d, bad, tmp: ["mix", "--real", bad, "--updates", "10", "--batch", "2",
                             "--seed", "1", "--out", tmp / "manifest.jsonl"],
        [{"id": "en-0", "lang": "en", "text": "call david", "parse": "[IN:CREATE_CALL ]",
          "cf": 5}],
    ),
    "mix-real-list-line": (
        lambda d, bad, tmp: ["mix", "--real", bad, "--updates", "10", "--batch", "2",
                             "--seed", "1", "--out", tmp / "manifest.jsonl"],
        [["en-0", "en", "call david", "[IN:CREATE_CALL ]"]],
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_RECORD_FILES))
def test_malformed_record_file_is_a_one_line_error(data, tmp_path, caplog, case):
    argv, rows = MALFORMED_RECORD_FILES[case]
    bad = write_jsonl(tmp_path / "bad.jsonl", rows)
    assert_one_line_error(caplog, run(*argv(data, bad, tmp_path)), bad)


def _project_mt_argv(d: Path, tmp: Path, **inputs) -> list:
    """project-mt over one MT row and its alignment, with ``inputs``
    (dataset, mt, align) replacing those files."""
    files = {
        "dataset": d / "mtop.jsonl",
        "mt": write_jsonl(tmp / "mt.jsonl", [
            {"id": "en-0", "language": "de", "text": "david anrufen ;"}]),
        "align": write_jsonl(tmp / "align.jsonl", [
            {"id": "en-0", "language": "de", "pairs": [[0, 1], [1, 0]]}]),
        **inputs,
    }
    return ["project-mt", *(item for name, path in files.items()
                            for item in (f"--{name}", path)),
            "--out", tmp / "out" / "proj.jsonl"]


# Each flag whose file is read as a ``RecordRows`` view: its argv given the
# data fixture, the path given and tmp_path.
VIEW_INPUTS = {
    "augment-dataset": lambda d, bad, tmp: [
        "augment", "--method", "rs", "--dataset", bad, "--seed", "1", "--k", "2",
        "--out", tmp / "out" / "rs.jsonl"],
    "mix-real": lambda d, bad, tmp: [
        "mix", "--real", bad, "--updates", "10", "--batch", "2", "--seed", "1",
        "--out", tmp / "out" / "manifest.jsonl"],
    "project-mt-dataset": lambda d, bad, tmp: _project_mt_argv(d, tmp, dataset=bad),
    "project-mt-mt": lambda d, bad, tmp: _project_mt_argv(d, tmp, mt=bad),
    "project-mt-align": lambda d, bad, tmp: _project_mt_argv(d, tmp, align=bad),
}


@pytest.mark.parametrize("case", sorted(VIEW_INPUTS))
def test_a_directory_input_is_named_by_its_path(data, tmp_path, caplog, case):
    # The view opens a directory without fault, and its read fails on the
    # descriptor: the error names the path, not the descriptor's number.
    bad = tmp_path / "rows"
    bad.mkdir()
    assert run(*VIEW_INPUTS[case](data, bad, tmp_path)) == 1
    assert _one_error(caplog) == f"[Errno 21] Is a directory: {str(bad)!r}"
    assert not (tmp_path / "out").exists()


def test_preprocess_pizza_original_names_the_line_of_a_row_without_cf(tmp_path, caplog):
    src, top = PIZZA_ROWS[0]
    bad = write_jsonl(tmp_path / "pizza.jsonl", [{"train.SRC": src, "train.TOP": top}])
    out = tmp_path / "pool.jsonl"
    code = run("preprocess-pizza", "--in", bad, "--out", out, "--mode", "original")
    assert_one_line_error(caplog, code, bad)
    assert f"{bad}:1: row lacks a string CF field" in caplog.records[-1].getMessage()
    assert not out.exists()


# Each flag that names a JSON setting file, with a method that reads it.
NOT_JSON_FLAGS = (
    ("--catalog", "rs"), ("--cf-templates", "rs"), ("--prompt-templates", "rs"),
    ("--mock-rules", "rs"), ("--anchors", "ts"), ("--nbest-in", "ts"), ("--config", "rs"),
)


@pytest.mark.parametrize("flag, method, content", [
    ("--cf-templates", "rs", {"pizza_wrd": "pie"}),
    ("--mock-rules", "rs", [1]),
    ("--anchors", "ts",
     {"de": {"en": {"text": "call bob", "parse": "[IN:CREATE_CALL [SL:CONTACT bob ] ]"}}}),
    ("--nbest-in", "ts", [1]),
    ("--nbest-in", "ts", {"de": {"call": "anrufen"}}),
    ("--catalog", "rs", {"TOPPING": "ham"}),
    ("--mock-rules", "rs", [{"responses": "hi;"}]),
    ("--mock-rules", "rs", [{"responses": [1]}]),
    ("--cf-templates", "rs", {"order_prefix": 1}),
    ("--cf-templates", "rs", {"size_values": ["small"]}),
    ("--catalog", "rs", [1, 2]),
    ("--prompt-templates", "rs", [1]),
    ("--catalog", "rs", {"Number": [None, 2]}),
    ("--mock-rules", "rs", [{"pattern": "("}]),
    ("--anchors", "ts",
     {"de": {"en": {"text": "call bob", "parse": "[IN:CREATE_CALL [SL:CONTACT bob ] ]"},
             "tgt": {"text": "bob anrufen", "parse": ["IN:CREATE_CALL"]}}}),
    ("--mock-rules", "rs", [{"corruption": ["flip_casing"]}]),
    ("--mock-rules", "rs", [{"responses": ["x;"], "corruptions": ["copy_example"]}]),
    *((flag, method, Raw("{bad")) for flag, method in NOT_JSON_FLAGS),
], ids=["cf-templates-unknown-key", "mock-rules-not-objects", "anchors-without-tgt",
        "nbest-not-a-map", "nbest-string-not-a-list", "catalog-string-not-a-list",
        "mock-rules-string-responses", "mock-rules-number-response",
        "cf-templates-number-value", "cf-templates-retired-key", "catalog-not-a-map", "prompt-templates-not-a-map",
        "catalog-non-string-values", "mock-rules-bad-pattern", "anchors-parse-not-a-string",
        "mock-rules-unknown-key", "mock-rules-responses-with-a-field-corruption",
        *(f"{flag[2:]}-not-json" for flag, _ in NOT_JSON_FLAGS)])
def test_malformed_setting_file_is_a_one_line_error(
    data, tmp_path, caplog, flag, method, content
):
    bad = write_json(tmp_path / "bad.json", content)
    code = run(*augment_argv(data, method, tmp_path / "out.jsonl", "--k", "2", flag, bad))
    assert_one_line_error(caplog, code, bad)
    if flag == "--cf-templates" and "size_values" in content:
        # A key that is no template field is named, not type-checked.
        assert "unknown CF template key 'size_values'" in caplog.text


ANCHOR_EN = {"text": "call bob", "parse": "[IN:CREATE_CALL [SL:CONTACT bob ] ]"}
ANCHOR_PAIR = ('an object of "en" and "tgt", each an object of a "text" and a '
               '"parse" string')


@pytest.mark.parametrize("flag, content, message", [
    ("--nbest-in", [{"de": {"call": ["anrufen"]}}],
     "a slot n-best must be an object of {language: {English value: "
     "[candidates]}}, got list"),
    ("--nbest-in", {"de": ["anrufen"]},
     "the n-best of 'de' must be an object of {English value: [candidates]}, got list"),
    ("--anchors", [{"de": {"en": ANCHOR_EN, "tgt": ANCHOR_EN}}],
     "an anchor file must be an object of {language: pair}, got list"),
    ("--anchors", {"de": "bob anrufen"},
     f"the anchor pair of 'de' must be {ANCHOR_PAIR}, got str"),
    ("--anchors", {"de": {"en": ANCHOR_EN}},
     f"the anchor pair of 'de' must be {ANCHOR_PAIR}; it has no 'tgt'"),
    ("--anchors", {"de": {"en": ANCHOR_EN, "tgt": ["bob anrufen"]}},
     f"the anchor pair of 'de' must be {ANCHOR_PAIR}; its 'tgt' is ['bob anrufen']"),
], ids=["nbest-list-at-the-top", "nbest-list-under-a-language",
        "anchors-list-at-the-top", "anchor-pair-not-an-object",
        "anchor-pair-without-tgt", "anchor-side-not-an-object"])
def test_a_wrong_shape_names_its_level_and_the_shape_wanted(
    data, tmp_path, caplog, flag, content, message
):
    bad = write_json(tmp_path / "bad.json", content)
    code = run(*augment_argv(data, "ts", tmp_path / "out.jsonl", "--k", "2", flag, bad))
    assert_one_line_error(caplog, code, bad)
    assert _one_error(caplog) == f"{bad}: {message}"


@pytest.mark.parametrize("method", ["ts", "tb", "mt"])
@pytest.mark.parametrize("side", ["en", "tgt"])
def test_malformed_anchor_parse_is_a_one_line_error(data, tmp_path, caplog, method, side):
    # mt never parses an anchor, so only the anchor file's reader can catch it.
    pair = {"en": {"text": "call bob", "parse": "[IN:CREATE_CALL [SL:CONTACT bob ] ]"},
            "tgt": {"text": "bob anrufen", "parse": "[IN:CREATE_CALL [SL:CONTACT bob ] ]"}}
    pair[side]["parse"] = "[IN:CREATE_CALL [SL:CONTACT bob ] "
    bad = write_json(tmp_path / "anchors.json", {"de": pair})
    out = tmp_path / "out.jsonl"
    code = run(*augment_argv(data, method, out, "--k", "2", "--anchors", bad))
    assert_one_line_error(caplog, code, bad)
    assert not out.exists() and not Path(str(out) + ".partial").exists()


# The rs context draw, the gb fallback draw and the rs pool check against
# the draws and counts over the list comprehensions they replace.

_ROW_IDS = ("p0", "p1", "p2", "p3")


def _pool_rows(ids: list[str], period: int = 9) -> list[Example]:
    """Rows with the given ids; rows ``period`` apart share a text."""
    return [
        Example(i, "en", f"text {j % period}", "(Order )", "dev")
        for j, i in enumerate(ids)
    ]


def _positions(pool, key) -> dict[str, list[int]]:
    positions: dict[str, list[int]] = {}
    for j, ex in enumerate(pool):
        positions.setdefault(key(ex), []).append(j)
    return positions


class _TakeAll:
    """Stands in for ``random.Random``: keeps the population it is asked
    to draw from and draws all of it in order (``choice``: its first)."""

    def sample(self, population, k):
        self.population = population
        return list(population)

    def choice(self, population):
        self.population = population
        return population[0]


class TestContextPools:
    # random.sample copies a population of at most 21 rows into a list and
    # indexes a larger one directly (for k = 4), so sizes run across 21.
    @given(
        ids=st.lists(st.sampled_from(_ROW_IDS), min_size=5, max_size=60).map(
            lambda ids: [f"{i}-{j}" if j % 3 else i for j, i in enumerate(ids)]
        ),
        pick=st.integers(min_value=0),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @example(ids=[f"r{j}" for j in range(22)], pick=5, seed=1)  # 21 others
    @example(ids=[f"r{j}" for j in range(23)], pick=5, seed=1)  # 22 others
    @example(ids=["a", "b", "a", "c", "d", "e", "a"], pick=2, seed=7)
    @example(ids=["a", "a", *(f"r{j}" for j in range(24)), "a"], pick=1, seed=3)
    def test_rs_context_equals_a_sample_of_the_filtered_pool(self, ids, pick, seed):
        pool = _pool_rows(ids)
        original = pool[pick % len(pool)]
        others = [e for e in pool if e.id != original.id]
        skip = _positions(pool, lambda e: e.id)[original.id]
        every = _TakeAll()
        # Each position of the filtered pool maps to its row.
        assert cli._rs_context(pool, skip, every) == others
        assert len(every.population) == len(others)
        if len(others) < 4:
            return
        want, got = random.Random(seed), random.Random(seed)
        assert cli._rs_context(pool, skip, got) == want.sample(others, 4)
        assert got.getstate() == want.getstate()

    @given(
        ids=st.lists(st.sampled_from(_ROW_IDS), min_size=1, max_size=80),
        period=st.integers(min_value=1, max_value=60),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    # Positions past a small set's table size: a set of them is unordered.
    @example(ids=["p0"] * 80, period=37, seed=1)
    @example(ids=["p0"] * 80, period=23, seed=2)
    def test_gb_context_pool_equals_the_scan(self, ids, period, seed):
        rows = _pool_rows(ids, period)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "pool.jsonl"
            write_jsonl(path, [e.to_dict() for e in rows])
            with read_jsonl(path, "text") as pool:
                picks = random.Random(seed).sample(range(len(rows)), min(5, len(rows)))
                held = {j: rows[j] for j in picks}
                scan = [e for e in rows if e.text in {ex.text for ex in held.values()}]
                reads = _count_reads(pool)
                every = _TakeAll()
                cli._gb_fallback_row(pool, held, every)
                assert [rows[j] for j in every.population] == scan
                # The context rows are held and the chosen row was read by
                # the lookup: only the other rows of the context texts are read.
                assert reads[0] == len(scan) - len(held)
                want, got = random.Random(seed), random.Random(seed)
                assert cli._gb_fallback_row(pool, held, got) == want.choice(scan)
                assert got.getstate() == want.getstate()

    @given(
        ids=st.lists(st.sampled_from(_ROW_IDS + ("p4", "p5")), min_size=1, max_size=40),
        k=st.integers(min_value=1, max_value=50),
    )
    @example(ids=["a", "b", "c", "d", "e"], k=5)  # 4 others each: enough
    @example(ids=["a", "b", "c", "d"], k=4)  # 3 others each: too few
    @example(ids=["a", "a", "a", "a", "b"] * 2, k=4)  # a has 2 others, b 8
    @example(ids=["b", *["a"] * 8, "c"], k=1)  # only b starts a task
    def test_the_rs_pool_check_is_the_count_over_every_row(self, ids, k):
        # The check replaces a count of each starting row's id over the pool.
        counts = Counter(ids)
        want = all(len(ids) - counts[key] >= 4 for key in ids[:k])
        assert cli._has_rs_context(_pool_rows(ids), k) == want


def _count_reads(view) -> list[int]:
    """A counter of the rows ``view`` reads from its file from now on."""
    reads, record = [0], view._record

    def counting(i):
        reads[0] += 1
        return record(i)

    view._record = counting
    return reads


@pytest.mark.parametrize("method", ["rs", "gb"])
def test_augment_outputs_do_not_depend_on_the_hash_seed(data, tmp_path, method):
    # The key index of rs and gb orders the pool by str hashes, which
    # PYTHONHASHSEED changes; the rows it finds must not change with them.
    src = Path(cli.__file__).resolve().parents[1]
    for seed in ("1", "2"):
        out = tmp_path / f"{seed}.jsonl"
        argv = augment_argv(data, method, out, *AUGMENT_RUNS[method])
        subprocess.run(
            [sys.executable, "-m", "clasp.cli", *map(str, argv)],
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": seed},
            capture_output=True, check=True, timeout=120,
        )
        assert sha256(out) == EXPECTED_DIGESTS[method]["out"]
