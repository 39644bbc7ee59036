"""``prompts.METHODS``: each entry against the code that reads it, and a
guard that no other module keeps its own list of method names."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import clasp
from clasp import cli
from clasp.backends import DecodingConfig, GenOutput, MockBackend, MockRule
from clasp.gate import CLEAN, GateError, gate_gb, gate_mtop, gate_rs
from clasp.prompts import (
    METHODS,
    Method,
    PromptExpectation,
    build_gb_prompt,
    build_rs_prompt,
    build_tb_prompt,
    build_ts_prompt,
    continuation_for,
    split_generation,
)
from clasp.trees import parse

from conftest import nbest_view
from test_prompts import (
    GB_CONTEXT,
    RS_CONTEXT,
    RS_EDITED,
    RS_ORIGINAL,
    TS_ANCHOR_EN,
    TS_ANCHOR_FR,
    TS_SOURCE,
    TS_TRANSLATED,
)

EMPTY_NBEST = nbest_view({})


def _gate_rs(outs, prompt, catalog):
    target = parse(prompt.expected.target_parse, METHODS[prompt.method].dialect)
    return gate_rs(outs, target, prompt.expected.context_texts, catalog)


def _gate_mtop(outs, prompt, catalog):
    return gate_mtop(prompt.method, outs, prompt.expected, EMPTY_NBEST)


# For each method with a dialect: a prompt of it and the gate that reads it.
CLEAN_CASES = {
    Method.REPLACE_SLOTS: (
        lambda d: build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, d)),
        _gate_rs,
    ),
    Method.GENERATE_BOTH: (
        lambda d: build_gb_prompt(GB_CONTEXT),
        lambda outs, prompt, catalog: gate_gb(
            outs, prompt.expected.context_texts, catalog
        ),
    ),
    Method.TRANSLATE_SLOTS: (
        lambda d: build_ts_prompt(
            TS_ANCHOR_EN, TS_ANCHOR_FR, TS_SOURCE, parse(TS_TRANSLATED, d), "fr"
        ),
        _gate_mtop,
    ),
    Method.TRANSLATE_BOTH: (
        lambda d: build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, TS_SOURCE, "fr"),
        _gate_mtop,
    ),
}


@pytest.mark.parametrize("method", list(METHODS), ids=lambda m: m.value)
def test_continuation_carries_a_parse_exactly_when_pair(method):
    raw = continuation_for(method, text="a b", parse_text="[IN:A ]", language="de")
    cand = split_generation(method, raw)
    assert cand.text == "a b"
    assert (cand.parse_text is not None) == METHODS[method].pair


@pytest.mark.parametrize("method", list(METHODS), ids=lambda m: m.value)
def test_mock_clean_rule_gates_clean(catalog, method):
    spec = METHODS[method]
    assert (method in CLEAN_CASES) == (spec.dialect is not None)
    if spec.dialect is None:
        return
    build, gate = CLEAN_CASES[method]
    prompt = build(spec.dialect)
    outs = MockBackend([MockRule()]).generate(prompt, DecodingConfig(*spec.decoding))
    _, event = gate(outs, prompt, catalog)
    assert event.success_mode == CLEAN


@pytest.mark.parametrize(
    "method",
    [m for m, s in METHODS.items() if s.family != "mtop" or s.dialect is None],
    ids=lambda m: m.value,
)
def test_gate_mtop_refuses_a_method_without_an_mtop_parse(method):
    with pytest.raises(GateError):
        gate_mtop(method, [GenOutput("x;", 0.1)], PromptExpectation(), EMPTY_NBEST)


@pytest.mark.parametrize("method", list(METHODS), ids=lambda m: m.value)
def test_method_choices_are_the_methods_with_a_family(method):
    argv = ["augment", "--method", method.value, "--out", "x.jsonl"]
    if METHODS[method].family:
        assert cli._build_parser().parse_args(argv).method == method.value
    else:
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(argv)


def test_augment_offers_five_methods():
    assert cli._AUGMENT_FLAGS["method"][1] == ("rs", "gb", "ts", "tb", "mt")


METHOD_NAMES = {m.value for m in Method}


def _is_method_name(node: ast.AST) -> bool:
    if isinstance(node, ast.Constant):
        return node.value in METHOD_NAMES
    # ``Method.X`` or ``prompts.Method.X``
    return isinstance(node, ast.Attribute) and (
        getattr(node.value, "id", None) == "Method"
        or getattr(node.value, "attr", None) == "Method"
    )


def method_name_collections(path: Path) -> list[str]:
    """``file:line`` of each tuple, set or list literal in ``path`` that
    holds two or more method names."""
    lines = sorted(
        node.lineno
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, (ast.Tuple, ast.Set, ast.List))
        and sum(map(_is_method_name, node.elts)) >= 2
    )
    return [f"{path.name}:{line}" for line in lines]


def test_no_module_lists_method_names_but_prompts():
    # A fact about several methods belongs in ``prompts.METHODS``.
    sources = sorted(Path(clasp.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    found = [
        where
        for path in sources
        if path.name != "prompts.py"
        for where in method_name_collections(path)
    ]
    assert found == []


def test_guard_sees_method_name_collections(tmp_path):
    src = tmp_path / "sample.py"
    src.write_text(
        'a = method in ("rs", "gb")\n'
        "b = {Method.GENERATE_BOTH, prompts.Method.TRANSLATE_BOTH}\n"
        'c = ("rs", "other")\n',
        encoding="utf-8",
    )
    assert method_name_collections(src) == ["sample.py:1", "sample.py:2"]
