"""The per-layer bench metrics name ``clasp`` functions by string; a name
that no longer resolves makes its metric read 0 without any error."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import random
from collections import Counter
from pathlib import Path

import pytest

from clasp.backends import MockRule
from clasp.canonical import SlotCatalog
from clasp.datasets import Example, RecordRows, read_jsonl, write_jsonl
from clasp.mixing import emit_manifest, plan_mix
from clasp.projection import WordAlignment, project_parse
from clasp.prompts import Method, PromptTemplates
from test_gate import _generate_and_gate, _random_prompts

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"

# Folded into trees.bind_slot_spans; its metrics read 0 until the bench
# remaps them (ROADMAP item 1).
KNOWN_DEAD = {"trees.find_token_span"}


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer()


@pytest.mark.parametrize("key", sorted(set(TRACER_MODULE.GROUPS) - KNOWN_DEAD))
def test_every_traced_group_key_resolves(key):
    layer, *path = key.split(".")
    owner = importlib.import_module(f"clasp.{layer}")
    for name in path:
        owner = getattr(owner, name, None)
        assert owner is not None, f"bench/tracer.py names {key}, which clasp lacks"
    if len(path) == 1:
        # The tracer wraps only public functions defined in the layer itself.
        assert inspect.isfunction(owner)
        assert owner.__module__ == f"clasp.{layer}"


@pytest.mark.parametrize("layer, cls, meth", TRACER_MODULE._METHODS)
def test_every_traced_method_resolves(layer, cls, meth):
    owner = getattr(importlib.import_module(f"clasp.{layer}"), cls)
    assert meth in vars(owner)


# What each result counter of the tracer (``_POST``) is called on: the
# arguments and the return value of a real call of its function, and the
# counts it must add. A changed return shape then fails here, not in a
# traced bench run.


def _read_jsonl_call(tmp: Path):
    path = tmp / "pool.jsonl"
    write_jsonl(path, [Example(f"r{i}", "en", f"t {i}", "(ORDER )") for i in range(3)])
    return (path,), read_jsonl(path), {"datasets.read_jsonl.rows": 3}


def _emit_manifest_call(tmp: Path):
    real = [Example(f"r{i}", "en", f"t {i}", "(ORDER )") for i in range(2)]
    synthetic = {"rs": [Example(f"s{i}", "en", f"s {i}", "(ORDER )") for i in range(3)]}
    plan = plan_mix(real, synthetic, updates=10, batch_size=2)
    args = (plan, real, synthetic)
    result = emit_manifest(*args, seed=1, path=tmp / "manifest.jsonl")
    return args, result, {"mixing.emit_manifest.rows": 6}


def _gate_call(method: Method):
    def call(tmp: Path):
        catalog = SlotCatalog.default()
        prompts = _random_prompts(random.Random(3), catalog, PromptTemplates())
        (prompt,) = [p for p in prompts if p.method is method]
        outs, result = _generate_and_gate(prompt, MockRule(), catalog)
        # ts and tb gate the first output only.
        candidates = 1 if method is Method.TRANSLATE_SLOTS else len(outs)
        return (outs,), result, {
            "gate.candidates": candidates, "gate.candidates_passed": candidates,
            "gate.survivors": 1, "gate.success.clean": 1,
        }
    return call


def _project_parse_call(tmp: Path):
    en = Example("en-1", "en", "weather on friday",
                 "[IN:GET_WEATHER [SL:DATE_TIME on friday ] ]")
    args = (en, "météo vendredi", WordAlignment.from_pairs([(0, 0), (1, 1), (2, 1)]))
    return args, project_parse(*args), {"projection.ok": 1}


POST_CALLS = {
    "datasets.read_jsonl": _read_jsonl_call,
    "mixing.emit_manifest": _emit_manifest_call,
    "gate.gate_rs": _gate_call(Method.REPLACE_SLOTS),
    "gate.gate_gb": _gate_call(Method.GENERATE_BOTH),
    "gate.gate_mtop": _gate_call(Method.TRANSLATE_SLOTS),
    "projection.project_parse": _project_parse_call,
}


def test_every_result_counter_has_a_real_call():
    assert set(POST_CALLS) == set(TRACER_MODULE._POST)


@pytest.mark.parametrize("key", sorted(POST_CALLS))
def test_each_result_counter_reads_what_its_function_returns(tmp_path, key):
    args, result, want = POST_CALLS[key](tmp_path)
    counts = Counter()
    try:
        TRACER_MODULE._POST[key](counts, args, result)
    finally:
        if isinstance(result, RecordRows):
            result.close()
    assert counts == want
