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

import re
from dataclasses import dataclass
from typing import Sequence

from .trees import (
    Node,
    ParseTree,
    Token,
    UnmatchableSlot,
    bind_slot_spans,
    replace_slot,
)

__all__ = [
    "SentinelEncoding",
    "UnknownSentinel",
    "UnmatchableSlot",
    "space_join_tokens",
    "encode_sentinels",
    "decode_sentinels",
]

_SENTINEL_RE = re.compile(r"^word(\d+)$")


class UnknownSentinel(ValueError):
    """A parse references a sentinel index outside the token map."""


@dataclass(frozen=True)
class SentinelEncoding:
    sentinel_text: str
    sentinel_parse: ParseTree
    token_map: tuple[str, ...]  # sentinel index -> original token


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
    return SentinelEncoding(sentinel_text, encoded, tuple(tokens))


def decode_sentinels(enc: SentinelEncoding) -> ParseTree:
    """Replace sentinel tokens in the encoding's parse by the original tokens.

    The parse may be a model hypothesis: non-sentinel tokens pass through
    unchanged, while sentinels outside the token map raise UnknownSentinel.
    """

    def restore(node: Node) -> Node:
        if isinstance(node, Token):
            m = _SENTINEL_RE.match(node.text)
            if m is None:
                return node
            idx = int(m.group(1))
            if idx >= len(enc.token_map):
                raise UnknownSentinel(
                    f"{node.text} outside the {len(enc.token_map)}-token map"
                )
            return Token(enc.token_map[idx])
        return type(node)(node.label, tuple(restore(c) for c in node.children))

    return ParseTree(restore(enc.sentinel_parse.root), enc.sentinel_parse.dialect)
