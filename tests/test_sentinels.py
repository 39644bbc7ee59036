from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from clasp.sentinels import UnmatchableSlot, encode_sentinels, space_join_tokens
from clasp.trees import Dialect, leaf_slots, parse, serialize, structure_signature

from conftest import WORDS, random_encodable_example

MTOP = Dialect.MTOP_BRACKET

FRENCH_TOKENS = [
    "Donne", "-", "moi", "la", "liste", "des", "salons", "de", "l'",
    "automobile", "prévus", "à", "Atlanta", "le", "week", "-", "end",
    "prochain",
]

EN_TEXT = "are there thunder storms on the forecast this weekend"
EN_PARSE = (
    "[IN:GET_WEATHER [SL:WEATHER_ATTRIBUTE thunder storms ] "
    "[SL:DATE_TIME this weekend ] ]"
)
EN_SENTINEL_TEXT = (
    "word0 are word1 there word2 thunder word3 storms word4 on word5 the "
    "word6 forecast word7 this word8 weekend"
)
EN_SENTINEL_PARSE = (
    "[IN:GET_WEATHER [SL:WEATHER_ATTRIBUTE word2 word3 ] "
    "[SL:DATE_TIME word7 word8 ] ]"
)

DE_TEXT = "Sind für dieses Wochenende Gewitter vorhergesagt ?"
DE_PARSE = (
    "[IN:GET_WEATHER [SL:WEATHER_ATTRIBUTE Gewitter ] "
    "[SL:DATE_TIME für dieses Wochenende ] ]"
)
DE_SENTINEL_TEXT = (
    "word0 Sind word1 für word2 dieses word3 Wochenende word4 Gewitter "
    "word5 vorhergesagt word6 ?"
)
DE_SENTINEL_PARSE = (
    "[IN:GET_WEATHER [SL:WEATHER_ATTRIBUTE word4 ] "
    "[SL:DATE_TIME word1 word2 word3 ] ]"
)


class TestSpaceJoin:
    def test_french_tokens(self):
        assert space_join_tokens(FRENCH_TOKENS) == (
            "Donne - moi la liste des salons de l' automobile prévus à "
            "Atlanta le week - end prochain"
        )

    def test_single_token(self):
        assert space_join_tokens(["hi"]) == "hi"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            space_join_tokens([])

    def test_split_inverts_join(self):
        rng = random.Random(3)
        vocab = ["a", "bb", "ccc", "d-d", "e'e"]
        for _ in range(100):
            tokens = [rng.choice(vocab) for _ in range(rng.randint(1, 12))]
            assert space_join_tokens(tokens).split(" ") == tokens


class TestEncode:
    def test_english_example(self):
        enc = encode_sentinels(EN_TEXT, parse(EN_PARSE, MTOP))
        assert enc.sentinel_text == EN_SENTINEL_TEXT
        assert serialize(enc.sentinel_parse) == EN_SENTINEL_PARSE

    def test_german_example(self):
        enc = encode_sentinels(DE_TEXT, parse(DE_PARSE, MTOP))
        assert enc.sentinel_text == DE_SENTINEL_TEXT
        assert serialize(enc.sentinel_parse) == DE_SENTINEL_PARSE

    def test_unmatchable_slot(self):
        with pytest.raises(UnmatchableSlot):
            encode_sentinels("no storms here", parse(EN_PARSE, MTOP))

    def test_sentinel_text_doubles_token_count(self):
        rng = random.Random(11)
        for _ in range(100):
            text, tree = random_encodable_example(rng)
            enc = encode_sentinels(text, tree)
            assert len(enc.sentinel_text.split()) == 2 * len(text.split())

    def test_leftmost_binding_is_deterministic(self):
        text = "b a b"
        tree = parse("[IN:A [SL:X b ] ]", MTOP)
        enc = encode_sentinels(text, tree)
        assert serialize(enc.sentinel_parse) == "[IN:A [SL:X word0 ] ]"


class TestSentinelsPointAtSlotTokens:
    @given(seed=st.integers(0, 2**32 - 1), vocabulary=st.integers(2, len(WORDS)))
    def test_markers_name_the_slot_tokens(self, seed, vocabulary):
        # A small vocabulary makes repeated values, in slots and in the
        # text, common.
        text, tree = random_encodable_example(random.Random(seed), WORDS[:vocabulary])
        enc = encode_sentinels(text, tree)
        tokens = text.split()
        marked = enc.sentinel_text.split()
        assert marked[0::2] == [f"word{i}" for i in range(len(tokens))]
        assert marked[1::2] == tokens
        assert structure_signature(enc.sentinel_parse) == structure_signature(tree)
        slots, encoded = leaf_slots(tree), leaf_slots(enc.sentinel_parse)
        assert len(slots) == len(encoded)
        for ref, enc_ref in zip(slots, encoded):
            named = [tokens[int(m[len("word"):])] for m in enc_ref.value_text.split()]
            assert named == ref.value_text.split()
