"""The per-layer bench metrics name ``clasp`` functions by string; a name
that no longer resolves makes its metric read 0 without any error."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

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
