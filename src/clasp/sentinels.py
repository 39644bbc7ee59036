"""Sentinel-word preprocessing: text and parses reference token positions.

Each input token gets a marker ``word<i>`` interleaved before it, and leaf
slots in the parse are rewritten to the markers covering their span, so a
model can point at positions instead of copying surface strings:

    are there thunder storms on the forecast this weekend
    -> word0 are word1 there word2 thunder word3 storms word4 on word5 the
       word6 forecast word7 this word8 weekend

    [IN:GET_WEATHER [SL:WEATHER_ATTRIBUTE thunder storms ] ... ]
    -> [IN:GET_WEATHER [SL:WEATHER_ATTRIBUTE word2 word3 ] ... ]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .trees import ParseTree, UnmatchableSlot, bind_slot_spans, replace_slot

__all__ = [
    "SentinelEncoding",
    "UnmatchableSlot",
    "space_join_tokens",
    "encode_sentinels",
]


@dataclass(frozen=True)
class SentinelEncoding:
    sentinel_text: str
    sentinel_parse: ParseTree


def space_join_tokens(tokens: Sequence[str]) -> str:
    """Join a pre-tokenized utterance with single spaces."""
    if not tokens:
        raise ValueError("token list must be non-empty")
    return " ".join(tokens)


def encode_sentinels(text: str, parse: ParseTree) -> SentinelEncoding:
    """Interleave sentinels into ``text`` and re-point slot values at them.

    Slots are bound to spans by ``trees.bind_slot_spans``. Raises
    UnmatchableSlot when a slot has no span of its own (callers decide
    whether to discard such rows).
    """
    tokens = text.split()
    encoded = parse
    for ref, span in bind_slot_spans(parse, tokens):
        if span is None:
            raise UnmatchableSlot(f"{ref.slot_label} {ref.value_text!r}")
        encoded = replace_slot(
            encoded, ref, tuple(f"word{i}" for i in range(*span))
        )
    sentinel_text = " ".join(f"word{i} {tok}" for i, tok in enumerate(tokens))
    return SentinelEncoding(sentinel_text, encoded)
