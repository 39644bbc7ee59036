"""End-to-end tests of every ``clasp`` subcommand, driven through ``cli.main``.

The fixtures are small literal pizza rows and MTOP utterances plus mock
rules that push the gates through corruption, recovery and fallback, so
the pinned digests cover the whole generate -> gate -> write path.
"""

from __future__ import annotations

import hashlib
import json
from importlib import resources
from pathlib import Path

import pytest

from clasp import cli
from clasp.backends import BackendUnavailable, MockBackend
from clasp.datasets import Example, read_jsonl, read_records

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


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run(*argv: str) -> int:
    return cli.main([str(a) for a in argv])


def write_json(path: Path, obj) -> Path:
    path.write_text(json.dumps(obj, indent=1), encoding="utf-8")
    return path


@pytest.fixture(scope="module")
def data(tmp_path_factory) -> Path:
    """Preprocessed pizza and MTOP pools plus mock rule files."""
    d = tmp_path_factory.mktemp("data")
    rows = [json.dumps({"train.SRC": s, "train.TOP": t}) for s, t in PIZZA_ROWS]
    (d / "pizza.jsonl").write_text("\n".join(rows) + "\n", encoding="utf-8")
    assert run("preprocess-pizza", "--in", d / "pizza.jsonl", "--out", d / "pool.jsonl") == 0
    lines = [
        "\t".join([i, parse.split()[0][1:], "", text, "test", "en_XX", parse,
                   json.dumps({"tokens": text.split()})])
        for i, text, parse in MTOP_ROWS
    ]
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


def test_rs_fallback_keeps_its_task_position(data, tmp_path):
    # One value per label: a task whose slots all hold that value has
    # nothing to replace, so it gets no prompt and falls back at once.
    catalog = write_json(tmp_path / "catalog.json", {
        "Number": ["a"], "Size": ["large"], "Style": ["thin crust"],
        "Topping": ["ham"], "Quantity": ["extra"], "Drinktype": ["sprite"],
        "Containertype": ["cans"],
    })
    pool_path = tmp_path / "pool.jsonl"
    pool = read_jsonl(data / "pool.jsonl")
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
])
def test_report_rejects_malformed_record(tmp_path, record):
    path = write_json(tmp_path / "bad.json", record)
    assert run("report", "--in", path) == 1
