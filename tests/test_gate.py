from __future__ import annotations

import json
import random
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from clasp.backends import DecodingConfig, GenOutput, MockBackend, MockRule
from clasp.datasets import Example, read_json
from clasp.gate import (
    CLEAN,
    COPY_EXAMPLE,
    DUPLICATE_OUTPUT,
    EmptyEvents,
    FIX_CASING,
    GateEvent,
    INVALID_PARSE,
    INVALID_SEPARATORS,
    MISMATCH_PARSE,
    MISSING_SLOT,
    SLOT_NBEST,
    SlotNBestMap,
    UNKNOWN_ENTITY,
    UNTAGGED_SLOT,
    check_vp2,
    compile_stats,
    fallback,
    gate_gb,
    gate_mtop,
    gate_rs,
    recover_fix_casing,
    recover_slot_nbest,
)
from clasp.canonical import SlotCatalog
from clasp.prompts import (
    METHODS,
    Method,
    PromptExpectation,
    PromptTemplates,
    build_tb_prompt,
    build_ts_prompt,
    split_generation,
)
from clasp.projection import WordAlignment, project_parse
from clasp.sentinels import encode_sentinels
from clasp.trees import (
    Dialect,
    UnmatchableSlot,
    bind_slot_spans,
    leaf_slots,
    parse,
    replace_slot,
    serialize,
    structure_signature,
)

from conftest import WORDS, random_encodable_example, random_pizza_tree
from test_prompts import TS_ANCHOR_EN, TS_ANCHOR_FR, TS_SOURCE, TS_TRANSLATED

PIZZA = Dialect.PIZZA_PAREN
MTOP = Dialect.MTOP_BRACKET

RS_EXPECTED = (
    "(Order (Pizzaorder (Number five ) (Size small ) (Topping spinach ) "
    "(Topping bacon ) ) (Drinkorder (Number a ) (Drinktype pepsi ) ) )"
)
RS_PROMPT_TEXTS = (
    "order me a medium supreme pizza and a sprite",
    "i need to get five small mushroom and bacon pizzas with a pepsi",
)

RS_FIG_OUTPUTS = (
    "five small spinach and bacon pizzas with a pepsi",
    "put in my order for five small spinach and bacon pizzas and include a pepsi",
    "five small spinach and bacon pizzas and a pepsi",
    "please place my order for five small spinach and bacon pizzas with a pepsi",
    "put my order in for five small spinach and bacon pizzas with a pepsi",
)


class TestCheckVp2:
    def test_all_slots_present(self):
        tree = parse(RS_EXPECTED, PIZZA)
        assert check_vp2(tree, RS_FIG_OUTPUTS[0]) == []

    def test_slotless_parse(self):
        assert check_vp2(parse("[IN:SET_RSVP_NO ]", MTOP), "whatever") == []

    def test_agrees_with_brute_force(self):
        rng = random.Random(71)
        for _ in range(200):
            text, tree = random_encodable_example(rng)
            tokens = text.split()
            if rng.random() < 0.5:
                k = rng.randrange(len(tokens))
                tokens = tokens[:k] + tokens[k + 1 :]
            mutated = " ".join(tokens)
            missing = {r.path for r in check_vp2(tree, mutated)}
            refs = leaf_slots(tree)
            if not missing:
                assert _disjoint_spans_exist([r.value for r in refs], tokens)
            # A value that occurs nowhere is always reported.
            assert missing >= {
                r.path for r in refs if not _disjoint_spans_exist([r.value], tokens)
            }

    def test_greedy_limit(self):
        # The documented greedy rule: "b" binds the first b, and "a b" then
        # has no free run, although another assignment would fit both.
        tree = parse("[IN:A [SL:X b ] [SL:Y a b ] ]", MTOP)
        assert [r.value_text for r in check_vp2(tree, "a b b")] == ["a b"]
        assert _disjoint_spans_exist([("b",), ("a", "b")], "a b b".split())

    def test_slots_with_equal_values_need_two_occurrences(self, catalog):
        tree = parse(
            "(Order (Pizzaorder (Number a ) (Topping ham ) ) "
            "(Drinkorder (Number a ) (Drinktype coke ) ) )",
            PIZZA,
        )
        for text, modes in [
            ("a ham pizza and coke", {MISSING_SLOT}),
            ("a ham pizza and a coke", set()),
        ]:
            verdict, _ = gate_rs(
                [GenOutput(f"{text};", 0.5)], tree, RS_PROMPT_TEXTS, catalog
            )
            assert verdict.failure_modes == modes

    @settings(max_examples=200)
    @given(
        seed=st.integers(0, 2**32 - 1),
        edits=st.lists(st.tuples(st.booleans(), st.integers(0, 99)), max_size=4),
    )
    def test_vp2_sentinels_projection_and_gate_agree(self, seed, edits):
        """VP2, sentinel encoding, identity projection and the ts gate accept
        the same (text, parse) pairs, and every row the gate emits binds."""
        text, tree = random_encodable_example(random.Random(seed), WORDS[:3])
        tokens = text.split()
        for duplicate, pos in edits:
            if tokens:
                i = pos % len(tokens)
                if duplicate:
                    tokens.insert(i, tokens[i])
                else:
                    del tokens[i]
        text = " ".join(tokens)
        ok = check_vp2(tree, text) == []

        try:
            encode_sentinels(text, tree)
            encoded = True
        except UnmatchableSlot:
            encoded = False
        assert encoded == ok

        upper = " ".join(t.upper() for t in tokens)
        identity = WordAlignment.from_pairs([(i, i) for i in range(len(tokens))])
        en = Example("x", "en", text, serialize(tree))
        try:
            projected = project_parse(en, upper, identity).parse
        except UnmatchableSlot:
            projected = None
        expected = tree
        for ref in leaf_slots(tree):
            expected = replace_slot(expected, ref, [t.upper() for t in ref.value])
        assert (projected == expected) == ok

        verdict, _ = gate_mtop(
            "ts",
            [GenOutput(f"{text};", 0.5)],
            PromptExpectation(language="fr", target_parse=serialize(tree)),
            SlotNBestMap(),
        )
        assert verdict.ok == ok
        if verdict.ok:
            row = verdict.final
            bound = bind_slot_spans(parse(row.parse, MTOP), row.text.split())
            assert all(span is not None for _, span in bound)


def _disjoint_spans_exist(values, tokens) -> bool:
    """Exhaustive search: can each value get its own contiguous token run?"""

    def fits(i: int, taken: frozenset[int]) -> bool:
        if i == len(values):
            return True
        k = len(values[i])
        return k > 0 and any(
            tuple(tokens[s : s + k]) == values[i]
            and taken.isdisjoint(range(s, s + k))
            and fits(i + 1, taken.union(range(s, s + k)))
            for s in range(len(tokens) - k + 1)
        )

    return fits(0, frozenset())


class TestGateRs:
    def gate(self, outputs, catalog, scores=None):
        scores = scores or [0.5 + 0.01 * i for i in range(len(outputs))]
        candidates = [
            GenOutput(f"{text};", score) for text, score in zip(outputs, scores)
        ]
        return gate_rs(
            candidates,
            parse(RS_EXPECTED, PIZZA),
            RS_PROMPT_TEXTS,
            catalog,
            input_id="rs-0",
        )

    def test_all_figure_outputs_survive_min_score_selected(self, catalog):
        scores = [0.42, 0.17, 0.33, 0.58, 0.29]
        verdict, event = self.gate(RS_FIG_OUTPUTS, catalog, scores)
        assert verdict.status == "clean"
        assert verdict.final.text == RS_FIG_OUTPUTS[1]
        assert verdict.final.parse == RS_EXPECTED
        assert verdict.final.source == "clasp-rs"
        assert event.success_mode == CLEAN
        assert all(not modes for modes in event.candidate_modes)

    def test_copy_example_flagged(self, catalog):
        verdict, event = self.gate(
            ("order me a medium supreme pizza and a sprite",), catalog
        )
        assert verdict.status == "failed"
        assert COPY_EXAMPLE in event.candidate_modes[0]

    def test_missing_slot_flagged(self, catalog):
        verdict, event = self.gate(
            ("five small spinach pizzas with a pepsi",), catalog
        )
        assert MISSING_SLOT in event.candidate_modes[0]

    def test_untagged_catalog_word_flagged(self, catalog):
        text = "five small spinach and bacon pizzas with pepperoni and a pepsi"
        verdict, event = self.gate((text,), catalog)
        assert UNTAGGED_SLOT in event.candidate_modes[0]

    def test_duplicates_keep_first(self, catalog):
        verdict, event = self.gate(
            (RS_FIG_OUTPUTS[0], RS_FIG_OUTPUTS[0], RS_FIG_OUTPUTS[2]),
            catalog,
            scores=[0.9, 0.1, 0.5],
        )
        assert event.candidate_modes[0] == frozenset()
        assert DUPLICATE_OUTPUT in event.candidate_modes[1]
        # The duplicate has the lowest score but is discarded; the winner is
        # the best-scoring non-duplicate.
        assert verdict.final.text == RS_FIG_OUTPUTS[2]

    def test_invalid_separators(self, catalog):
        verdict, event = self.gate(("a => b => c",), catalog)
        assert INVALID_SEPARATORS in event.candidate_modes[0]

    def test_untagged_second_copy_of_tagged_value_flagged(self, catalog):
        text = "five small spinach and bacon pizzas with bacon and a pepsi"
        verdict, event = self.gate((text,), catalog)
        assert event.candidate_modes[0] == frozenset({UNTAGGED_SLOT})

    def test_untagged_function_words_not_flagged(self, catalog):
        text = (
            "can you get me five small spinach and bacon pizzas with a pepsi "
            "thanks a lot"
        )
        verdict, event = self.gate((text,), catalog)
        assert verdict.status == "clean"
        assert event.candidate_modes[0] == frozenset()

    def test_function_word_exemption_comes_from_catalog(self, catalog):
        text = "can you get me five small spinach and bacon pizzas with a pepsi"
        verdict, event = self.gate((text,), SlotCatalog(catalog.entries))
        assert UNTAGGED_SLOT in event.candidate_modes[0]

    def test_modes_are_non_exclusive(self, catalog):
        text = "five small pizzas with pepperoni"
        verdict, event = self.gate((text,), catalog)
        assert {MISSING_SLOT, UNTAGGED_SLOT} <= event.candidate_modes[0]

    def test_casing_miss_is_not_recovered(self, catalog):
        # rs and gb get no recovery pass: "Five" does not realize "five".
        verdict, event = self.gate(
            ("Five small spinach and bacon pizzas with a pepsi",), catalog
        )
        assert verdict.status == "failed"
        assert event.candidate_modes == (frozenset({MISSING_SLOT}),)

    def test_bad_separators_are_the_only_mode(self, catalog):
        verdict, event = self.gate(("a => b => c",), catalog)
        assert event.candidate_modes == (frozenset({INVALID_SEPARATORS}),)


GB_PROMPT_TEXTS = ("i want two olive pineapple and mushroom pies",)


class TestGateGb:
    def gate(self, raws, catalog):
        candidates = [GenOutput(raw, 0.5 + 0.01 * i) for i, raw in enumerate(raws)]
        return gate_gb(candidates, GB_PROMPT_TEXTS, catalog, input_id="gb-0")

    def test_figure_output_zero_survives(self, catalog):
        raw = (
            "(Order (Pizzaorder (Number two ) (Topping olive ) (Topping pineapple ) "
            "(Topping mushroom ) (Not (Style thin crust ) ) ) ) => "
            "Translation in English: can you get me two olive pineapple and "
            "mushroom pies please no thin crust;"
        )
        verdict, event = self.gate([raw], catalog)
        assert verdict.status == "clean"
        assert verdict.final.parse.startswith("(Order")
        assert verdict.final.source == "clasp-gb"

    def test_tagged_container_can_binds(self, catalog):
        raw = (
            "(Order (Drinkorder (Number a ) (Containertype can ) "
            "(Drinktype coke ) ) ) => Translation in English: please get me "
            "a can of coke;"
        )
        verdict, event = self.gate([raw], catalog)
        assert verdict.status == "clean"
        assert event.candidate_modes[0] == frozenset()

    def test_untagged_extra_cheese_discarded(self, catalog):
        raw = (
            "(Order (Pizzaorder (Number a ) (Size large ) (Topping mushroom ) ) ) => "
            "Translation in English: how are you today i want a large pizza with "
            "mushroom and cheese thanks;"
        )
        verdict, event = self.gate([raw], catalog)
        assert verdict.status == "failed"
        assert UNTAGGED_SLOT in event.candidate_modes[0]

    def test_unknown_entity(self, catalog):
        raw = (
            "(Order (Drinkorder (Number a ) (Drinktype lemonade ) ) ) => "
            "Translation in English: one lemonade please;"
        )
        verdict, event = self.gate([raw], catalog)
        assert UNKNOWN_ENTITY in event.candidate_modes[0]

    def test_invalid_parse(self, catalog):
        raw = "(Order (Pizzaorder (Number => Translation in English: broken;"
        verdict, event = self.gate([raw], catalog)
        assert INVALID_PARSE in event.candidate_modes[0]


NBEST = SlotNBestMap.from_mapping(
    {
        "es": {"all": ["todo", "todos", "todas", "todos los"], "for Friday": ["viernes"]},
        "de": {"nicole": ["nicole"]},
    }
)

NBEST_PARSE = "[IN:GET_ALARM [SL:AMOUNT todo ] [SL:DATE_TIME viernes ] ]"
NBEST_TEXT = "Quiero ver todas las alarmas para el viernes ."
NBEST_RECOVERED = "[IN:GET_ALARM [SL:AMOUNT todas ] [SL:DATE_TIME viernes ] ]"

CASING_PARSE = "[IN:UPDATE_CALL [SL:CONTACT_ADDED nicole ] ]"
CASING_TEXT = "Nicole zu diesem Anruf hinzufügen"
CASING_RECOVERED = "[IN:UPDATE_CALL [SL:CONTACT_ADDED Nicole ] ]"


class TestRecovery:
    def test_slot_nbest_golden(self):
        repaired = recover_slot_nbest(
            parse(NBEST_PARSE, MTOP), NBEST_TEXT, NBEST, "es"
        )
        assert repaired is not None
        assert serialize(repaired) == NBEST_RECOVERED

    def test_fix_casing_golden(self):
        repaired = recover_fix_casing(parse(CASING_PARSE, MTOP), CASING_TEXT)
        assert repaired is not None
        assert serialize(repaired) == CASING_RECOVERED

    def test_empty_nbest_gives_none(self):
        repaired = recover_slot_nbest(
            parse(NBEST_PARSE, MTOP), NBEST_TEXT, SlotNBestMap(), "es"
        )
        assert repaired is None

    def test_no_missing_slots_is_noop(self):
        tree = parse(NBEST_RECOVERED, MTOP)
        assert recover_slot_nbest(tree, NBEST_TEXT, NBEST, "es") is None
        assert recover_fix_casing(tree, NBEST_TEXT) is None

    def test_recovered_parse_passes_vp2(self):
        for repaired, text in [
            (
                recover_slot_nbest(parse(NBEST_PARSE, MTOP), NBEST_TEXT, NBEST, "es"),
                NBEST_TEXT,
            ),
            (recover_fix_casing(parse(CASING_PARSE, MTOP), CASING_TEXT), CASING_TEXT),
        ]:
            assert repaired is not None
            assert check_vp2(repaired, text) == []

    def test_fix_casing_keeps_the_exactly_bound_spans(self):
        # X binds the exact "foo"; folded over the whole text it would take
        # "FOO", the only token Y can have.
        tree = parse("[IN:A [SL:X foo ] [SL:Y Foo ] ]", MTOP)
        repaired = recover_fix_casing(tree, "FOO x foo")
        assert serialize(repaired) == "[IN:A [SL:X foo ] [SL:Y FOO ] ]"
        assert check_vp2(repaired, "FOO x foo") == []

    def test_recoveries_take_the_callers_binding(self):
        tree = parse(CASING_PARSE, MTOP)
        binding = bind_slot_spans(tree, CASING_TEXT.split())
        assert recover_fix_casing(tree, CASING_TEXT, binding) == recover_fix_casing(
            tree, CASING_TEXT
        )
        tree = parse(NBEST_PARSE, MTOP)
        binding = bind_slot_spans(tree, NBEST_TEXT.split())
        assert serialize(
            recover_slot_nbest(tree, NBEST_TEXT, NBEST, "es", binding)
        ) == NBEST_RECOVERED

    def test_unrecoverable_stays_missing(self):
        repaired = recover_fix_casing(
            parse("[IN:A [SL:X zebra ] ]", MTOP), "nothing here"
        )
        assert repaired is None


class TestGateMtop:
    def test_ts_slot_nbest_recovery(self):
        expected = PromptExpectation(
            language="es",
            target_parse=NBEST_PARSE,
            context_texts=("some anchor text",),
        )
        verdict, event = gate_mtop(
            "ts", [GenOutput(f"{NBEST_TEXT};", 0.2)], expected, NBEST, input_id="ts-0"
        )
        assert verdict.status == "recovered"
        assert verdict.recovery == SLOT_NBEST
        assert verdict.final.parse == NBEST_RECOVERED
        assert event.success_mode == SLOT_NBEST

    def test_tb_fix_casing_recovery(self):
        expected = PromptExpectation(
            language="de",
            source_signature=structure_signature(parse(CASING_PARSE, MTOP)),
            context_texts=("anchor",),
        )
        raw = f"{CASING_PARSE}\n=> Translation in German: {CASING_TEXT};"
        verdict, event = gate_mtop(
            "tb", [GenOutput(raw, 0.2)], expected, NBEST, input_id="tb-0"
        )
        assert verdict.status == "recovered"
        assert verdict.recovery == FIX_CASING
        assert verdict.final.parse == CASING_RECOVERED

    def test_tb_mismatch_parse_from_copied_structure(self):
        rsvp = "[IN:SET_RSVP_NO ]"
        copied_parse = (
            "[IN:SET_RSVP_NO [SL:PERSON_REMINDED moi ] [SL:TODO [IN:GET_TODO "
            "[SL:DATE_TIME de 10 h ] [SL:TODO rendez - vous chez le médecin ] ] ] ]"
        )
        expected = PromptExpectation(
            language="fr",
            source_signature=structure_signature(parse(rsvp, MTOP)),
            context_texts=("RSVP no to this event",),
        )
        raw = (
            f"{copied_parse}\n=> Translation in French: Fais - moi penser à mon "
            "rendez - vous de 10 h chez le médecin;"
        )
        verdict, event = gate_mtop("tb", [GenOutput(raw, 0.2)], expected, NBEST)
        assert verdict.status == "failed"
        assert MISMATCH_PARSE in verdict.failure_modes

    def test_ts_clean(self):
        expected = PromptExpectation(
            language="es", target_parse=NBEST_PARSE, context_texts=()
        )
        text = "Quiero ver todo las alarmas para el viernes"
        verdict, event = gate_mtop(
            "ts", [GenOutput(f"{text};", 0.2)], expected, NBEST
        )
        assert verdict.status == "clean"
        assert event.success_mode == CLEAN

    def test_ts_copy_example(self):
        expected = PromptExpectation(
            language="es",
            target_parse=NBEST_PARSE,
            context_texts=("Quiero ver todo las alarmas para el viernes",),
        )
        verdict, _ = gate_mtop(
            "ts",
            [GenOutput("Quiero ver todo las alarmas para el viernes;", 0.2)],
            expected,
            NBEST,
        )
        assert verdict.status == "failed"
        assert COPY_EXAMPLE in verdict.failure_modes

    def test_tb_invalid_parse(self):
        expected = PromptExpectation(language="de", source_signature="[IN:X ]")
        raw = "[IN:BROKEN [SL:X\n=> Translation in German: kaputt;"
        verdict, _ = gate_mtop("tb", [GenOutput(raw, 0.2)], expected, NBEST)
        assert INVALID_PARSE in verdict.failure_modes

    def test_unrecoverable_missing_slot(self):
        expected = PromptExpectation(language="es", target_parse=NBEST_PARSE)
        verdict, event = gate_mtop(
            "ts", [GenOutput("ninguna alarma;", 0.2)], expected, NBEST
        )
        assert verdict.status == "failed"
        assert MISSING_SLOT in verdict.failure_modes

    def test_ts_recovered_copy_is_a_copy(self):
        # The n-best pass repairs the missing slot, so only the copy fails it.
        expected = PromptExpectation(
            language="es", target_parse=NBEST_PARSE, context_texts=(NBEST_TEXT,)
        )
        verdict, event = gate_mtop(
            "ts", [GenOutput(f"{NBEST_TEXT};", 0.2)], expected, NBEST
        )
        assert verdict.status == "failed"
        assert event.candidate_modes == (frozenset({COPY_EXAMPLE}),)

    def test_tb_recovered_mismatch_is_a_mismatch(self):
        expected = PromptExpectation(
            language="de",
            source_signature=structure_signature(parse("[IN:GET_ALARM ]", MTOP)),
        )
        raw = f"{CASING_PARSE}\n=> Translation in German: {CASING_TEXT};"
        verdict, event = gate_mtop("tb", [GenOutput(raw, 0.2)], expected, NBEST)
        assert verdict.status == "failed"
        assert event.candidate_modes == (frozenset({MISMATCH_PARSE}),)


class TestFallback:
    def test_rs_failure_reemits_original(self):
        original = Example("o1", "en", "text", "(Order (Pizzaorder (Number a ) ) )", "dev")
        out = fallback([original], seed=5)
        assert out.text == original.text
        assert out.source == "fallback"

    def test_seeded_pick_among_context(self):
        pool = [
            Example(str(i), "en", f"t{i}", "(Order (Pizzaorder (Number a ) ) )", "dev")
            for i in range(5)
        ]
        first = fallback(pool, seed=9)
        assert fallback(pool, seed=9) == first


class TestCompileStats:
    def test_hand_counted_success_rates(self):
        events = []
        for i in range(10):
            if i < 2:
                modes = tuple(frozenset({MISSING_SLOT}) for _ in range(4))
                success = None
            else:
                modes = (frozenset(),) * 4
                success = CLEAN
            events.append(GateEvent("rs", "en", modes, success))
        stats = compile_stats(events)
        row = stats.row("rs", "en")
        assert row.success_rate_inputs == 80.0
        assert row.success_rate_outputs == 80.0
        assert row.failure_modes[MISSING_SLOT] == 20.0

    def test_all_clean(self):
        events = [
            GateEvent("gb", "en", (frozenset(),) * 4, CLEAN)
            for i in range(5)
        ]
        row = compile_stats(events).row("gb", "en")
        assert row.success_rate_inputs == 100.0
        assert row.success_rate_outputs == 100.0

    def test_mtop_avg_row_and_dashes(self):
        events = []
        for lang, n_ok in (("de", 3), ("fr", 1)):
            for i in range(4):
                ok = i < n_ok
                events.append(
                    GateEvent(
                        "ts",
                        lang,
                        (frozenset() if ok else frozenset({MISSING_SLOT}),),
                        CLEAN if ok else None,
                    )
                )
        stats = compile_stats(events)
        assert stats.row("ts", "de").success_rate_inputs == 75.0
        assert stats.row("ts", "fr").success_rate_inputs == 25.0
        avg = stats.row("ts", "avg")
        assert avg.success_rate_inputs == 50.0
        assert avg.failure_modes[MISSING_SLOT] is None

    def test_ts_structural_dashes(self):
        events = [GateEvent("ts", "de", (frozenset(),), CLEAN)]
        row = compile_stats(events).row("ts", "de")
        assert row.failure_modes[INVALID_PARSE] is None
        assert row.failure_modes[MISMATCH_PARSE] is None
        assert row.failure_modes[MISSING_SLOT] == 0.0

    def test_empty_events(self):
        with pytest.raises(EmptyEvents):
            compile_stats([])

    def test_table_headers_match_expected_columns(self):
        events = [
            GateEvent("rs", "en", ((frozenset()),), CLEAN),
            GateEvent("ts", "de", ((frozenset()),), CLEAN),
        ]
        table = compile_stats(events).to_table()
        assert "SR inputs" in table and "SR outputs" in table
        for title in (
            "missing slot",
            "untagged slot",
            "invalid separators",
            "copy example",
            "duplicate output",
            "invalid parse",
            "unknown entity",
        ):
            assert title in table
        assert "mismatch parse" in table
        assert "slot nbest" in table or "slot n" in table


# Corruptions that edit a continuation's separators or text field, each
# under templates that rename the separator it has to find.
TEMPLATE_CORRUPTIONS = [
    (PromptTemplates(arrow="->"), "drop_slot_word", MISSING_SLOT),
    (PromptTemplates(arrow="->"), "bad_separators", INVALID_SEPARATORS),
    (PromptTemplates(terminator="."), "no_semicolon", INVALID_SEPARATORS),
    # Cues whose label does not end in the first colon after the arrow: the
    # copied text must replace the text field, not the label with it.
    (PromptTemplates(translation_cue="Translation in {language} -"),
     "copy_example", COPY_EXAMPLE),
    (PromptTemplates(translation_cue="Text: {language}:"), "copy_example", COPY_EXAMPLE),
]
TEMPLATE_CORRUPTION_IDS = [
    "arrow-drop_slot_word", "arrow-bad_separators", "terminator-no_semicolon",
    "dash-cue-copy_example", "colon-cue-copy_example",
]


class TestMockCorruptionsTriggerIntendedModes:
    """Each corruption flag fires exactly its failure mode at gate time."""

    def _rs_prompt(self):
        from test_prompts import RS_CONTEXT, RS_EDITED, RS_ORIGINAL
        from clasp.prompts import build_rs_prompt

        return build_rs_prompt(
            RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, PIZZA)
        )

    @pytest.mark.parametrize(
        "flag,mode",
        [
            ("drop_slot_word", MISSING_SLOT),
            ("untagged_word", UNTAGGED_SLOT),
            ("bad_separators", INVALID_SEPARATORS),
            ("no_semicolon", INVALID_SEPARATORS),
            ("copy_example", COPY_EXAMPLE),
        ],
    )
    def test_rs_corruptions(self, catalog, flag, mode):
        prompt = self._rs_prompt()
        backend = MockBackend([MockRule(corruptions=(flag,))])
        outs = backend.generate(prompt, DecodingConfig("sampling", 4))
        verdict, event = gate_rs(
            outs,
            parse(prompt.expected.target_parse, PIZZA),
            prompt.expected.context_texts,
            catalog,
        )
        assert verdict.status == "failed"
        assert all(mode in modes for modes in event.candidate_modes)

    def test_rs_duplicate_corruption(self, catalog):
        prompt = self._rs_prompt()
        backend = MockBackend([MockRule(corruptions=("duplicate_output",))])
        outs = backend.generate(prompt, DecodingConfig("sampling", 4))
        verdict, event = gate_rs(
            outs,
            parse(prompt.expected.target_parse, PIZZA),
            prompt.expected.context_texts,
            catalog,
        )
        assert verdict.status == "clean"  # first copy is kept
        assert all(
            DUPLICATE_OUTPUT in modes for modes in event.candidate_modes[1:]
        )

    @pytest.mark.parametrize(
        "flag,mode",
        [
            ("invalid_parse", INVALID_PARSE),
            ("unknown_entity", UNKNOWN_ENTITY),
            ("drop_slot_word", MISSING_SLOT),
        ],
    )
    def test_gb_corruptions(self, catalog, flag, mode):
        from test_prompts import GB_CONTEXT
        from clasp.prompts import build_gb_prompt

        prompt = build_gb_prompt(GB_CONTEXT)
        backend = MockBackend([MockRule(corruptions=(flag,))])
        outs = backend.generate(prompt, DecodingConfig("sampling", 4))
        verdict, event = gate_gb(
            outs, prompt.expected.context_texts, catalog
        )
        assert verdict.status == "failed"
        assert all(mode in modes for modes in event.candidate_modes)

    def test_tb_mismatch_corruption(self):
        prompt = build_tb_prompt(
            TS_ANCHOR_EN, TS_ANCHOR_FR, Example("r", "en", "RSVP no to this event", "[IN:SET_RSVP_NO ]", "dev"), "fr"
        )
        backend = MockBackend([MockRule(corruptions=("mismatch_parse",))])
        outs = backend.generate(prompt, DecodingConfig("greedy"))
        verdict, event = gate_mtop("tb", [outs[0]], prompt.expected, SlotNBestMap())
        assert verdict.status == "failed"
        assert MISMATCH_PARSE in verdict.failure_modes

    @pytest.mark.parametrize(
        "flag,status", [("drop_slot_word", "failed"), ("flip_casing", "recovered")]
    )
    def test_tb_corruption_edits_a_slot_the_filler_could_realize(self, flag, status):
        # "me" is a slot value here and a word of the filler "please get me";
        # the corruption must hit the slot, so the candidate cannot gate clean.
        source = Example(
            "r", "en", "remind me about the dentist",
            "[IN:CREATE_REMINDER [SL:PERSON_REMINDED me ] [SL:TODO the dentist ] ]",
            "dev",
        )
        prompt = build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, source, "fr")
        out = MockBackend([MockRule(corruptions=(flag,))]).generate(
            prompt, DecodingConfig("greedy")
        )[0]
        verdict, _ = gate_mtop("tb", [out], prompt.expected, SlotNBestMap())
        assert verdict.status == status

    def test_tb_flip_casing_skips_an_uncased_first_character(self):
        # The value starts with a digit, which has no case: the flip must
        # reach the "a", or the candidate would gate clean.
        source = Example(
            "r", "en", "set an alarm for 10 am",
            "[IN:CREATE_ALARM [SL:DATE_TIME 10 am ] ]", "dev",
        )
        prompt = build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, source, "fr")
        out = MockBackend([MockRule(corruptions=("flip_casing",))]).generate(
            prompt, DecodingConfig("greedy")
        )[0]
        verdict, _ = gate_mtop("tb", [out], prompt.expected, SlotNBestMap())
        assert verdict.status == "recovered"
        assert verdict.recovery == FIX_CASING

    def test_ts_flip_casing_recovered(self):
        prompt = build_ts_prompt(
            TS_ANCHOR_EN,
            TS_ANCHOR_FR,
            TS_SOURCE,
            parse(TS_TRANSLATED, MTOP),
            "fr",
        )
        backend = MockBackend([MockRule(corruptions=("flip_casing",))])
        outs = backend.generate(prompt, DecodingConfig("greedy"))
        verdict, event = gate_mtop("ts", [outs[0]], prompt.expected, SlotNBestMap())
        assert verdict.status == "recovered"
        assert verdict.recovery == FIX_CASING

    def test_ts_substitution_recovered_via_nbest(self):
        prompt = build_ts_prompt(
            TS_ANCHOR_EN,
            TS_ANCHOR_FR,
            TS_SOURCE,
            parse(TS_TRANSLATED, MTOP),
            "fr",
        )
        backend = MockBackend(
            [MockRule(substitutions=((("mon"), ("ma")),))]
        )
        nbest = SlotNBestMap.from_mapping({"fr": {"my": ["mon", "ma"]}})
        outs = backend.generate(prompt, DecodingConfig("greedy"))
        verdict, event = gate_mtop("ts", [outs[0]], prompt.expected, nbest)
        assert verdict.status == "recovered"
        assert verdict.recovery == SLOT_NBEST

    def test_gb_mock_follows_a_renamed_translation_cue(self, catalog):
        from test_prompts import GB_CONTEXT
        from clasp.prompts import build_gb_prompt

        templates = PromptTemplates(translation_cue="Text in {language}:")
        prompt = build_gb_prompt(GB_CONTEXT, templates)
        outs = MockBackend([MockRule()]).generate(
            prompt, DecodingConfig("sampling", 4)
        )
        assert all("=> Text in English: " in out.text for out in outs)
        verdict, event = gate_gb(
            outs, prompt.expected.context_texts, catalog, templates=templates
        )
        assert verdict.status == "clean"
        assert event.candidate_modes == (frozenset(),) * 4

    def test_tb_mock_follows_a_renamed_translation_cue(self):
        templates = PromptTemplates(translation_cue="Text in {language}:")
        prompt = build_tb_prompt(
            TS_ANCHOR_EN, TS_ANCHOR_FR, TS_SOURCE, "fr", templates
        )
        out = MockBackend([MockRule()]).generate(prompt, DecodingConfig("greedy"))[0]
        assert "=> Text in French: " in out.text
        verdict, event = gate_mtop(
            "tb", [out], prompt.expected, SlotNBestMap(), templates=templates
        )
        assert verdict.status == "clean"
        assert event.candidate_modes == (frozenset(),)


    @pytest.mark.parametrize(
        "templates,flag,mode", TEMPLATE_CORRUPTIONS, ids=TEMPLATE_CORRUPTION_IDS
    )
    def test_gb_corruptions_follow_the_templates(self, catalog, templates, flag, mode):
        from test_prompts import GB_CONTEXT
        from clasp.prompts import build_gb_prompt

        prompt = build_gb_prompt(GB_CONTEXT, templates)
        outs = MockBackend([MockRule(corruptions=(flag,))]).generate(
            prompt, DecodingConfig("sampling", 4)
        )
        verdict, event = gate_gb(
            outs, prompt.expected.context_texts, catalog, templates=templates
        )
        assert verdict.status == "failed"
        assert all(mode in modes for modes in event.candidate_modes)

    @pytest.mark.parametrize(
        "templates,flag,mode", TEMPLATE_CORRUPTIONS, ids=TEMPLATE_CORRUPTION_IDS
    )
    def test_tb_corruptions_follow_the_templates(self, templates, flag, mode):
        prompt = build_tb_prompt(
            TS_ANCHOR_EN, TS_ANCHOR_FR, TS_SOURCE, "fr", templates
        )
        backend = MockBackend([MockRule(corruptions=(flag,))])
        out = backend.generate(prompt, DecodingConfig("greedy"))[0]
        verdict, event = gate_mtop(
            "tb", [out], prompt.expected, SlotNBestMap(), templates=templates
        )
        assert verdict.status == "failed"
        assert mode in verdict.failure_modes


# What candidate 0 carries under a rule with one corruption flag: its
# failure modes and, for ts/tb, the recovery that cleared them. An empty set:
# the gate has no check for what the flag does there (ts/tb have no
# catalog). None: the flag has nothing to edit for the method (rs and ts are
# given their parse; gb's candidate 0 already realizes the first context
# parse; a duplicate is always a later output), so candidate 0 is the clean
# rule's.
_SEPARATOR_FLAGS = {
    "no_semicolon": {INVALID_SEPARATORS},
    "bad_separators": {INVALID_SEPARATORS},
    "duplicate_output": None,
}
FLAG_MODES = {
    Method.REPLACE_SLOTS: {
        **_SEPARATOR_FLAGS,
        "drop_slot_word": {MISSING_SLOT},
        "flip_casing": {MISSING_SLOT},
        "unknown_entity": {MISSING_SLOT},
        "untagged_word": {UNTAGGED_SLOT},
        "copy_example": {COPY_EXAMPLE},
        "invalid_parse": None,
        "mismatch_parse": None,
    },
    Method.GENERATE_BOTH: {
        **_SEPARATOR_FLAGS,
        "drop_slot_word": {MISSING_SLOT},
        "flip_casing": {MISSING_SLOT},
        "unknown_entity": {UNKNOWN_ENTITY},
        "untagged_word": {UNTAGGED_SLOT},
        "copy_example": {COPY_EXAMPLE},
        "invalid_parse": {INVALID_PARSE},
        "mismatch_parse": None,
    },
    Method.TRANSLATE_SLOTS: {
        **_SEPARATOR_FLAGS,
        "drop_slot_word": {MISSING_SLOT},
        "flip_casing": {FIX_CASING},
        "unknown_entity": {MISSING_SLOT},
        "untagged_word": set(),
        "copy_example": {COPY_EXAMPLE},
        "invalid_parse": None,
        "mismatch_parse": None,
    },
    Method.TRANSLATE_BOTH: {
        **_SEPARATOR_FLAGS,
        "drop_slot_word": {MISSING_SLOT},
        "flip_casing": {FIX_CASING},
        "unknown_entity": set(),
        "untagged_word": set(),
        "copy_example": {COPY_EXAMPLE},
        "invalid_parse": {INVALID_PARSE},
        "mismatch_parse": {MISMATCH_PARSE},
    },
}
# These put another example's text or parse in a field, which the VP2 and
# catalog checks may then reject too; every other flag yields exactly its
# modes.
_WHOLE_FIELD_FLAGS = {"copy_example", "mismatch_parse"}
# The flags that edit the first leaf slot's value in the text.
_FIRST_SLOT_FLAGS = {"drop_slot_word", "flip_casing", "unknown_entity"}
# Few words make repeated slot values common; the digits and the Devanagari
# word have no case.
_MTOP_WORDS = ("alpha", "bravo", "10", "दस")
RENAMED_TEMPLATES = PromptTemplates(
    parse_cue="Parse:", lang_parse_cue="Parse in {language}:",
    translation_cue="Text: {language} -", arrow="->", terminator=".",
)


def _random_prompts(rng, catalog, templates):
    """An rs, gb, ts and tb prompt on random pizza and MTOP trees."""
    from clasp.prompts import build_gb_prompt, build_rs_prompt

    pool = []
    for i in range(5):
        tree = random_pizza_tree(rng, catalog)
        values = " ".join(ref.value_text for ref in leaf_slots(tree))
        pool.append(Example(f"p{i}", "en", f"order {values}", serialize(tree), "train"))
    original = parse(pool[4].parse, PIZZA)
    ref = rng.choice(leaf_slots(original))
    value = rng.choice([v for v in catalog.values(ref.slot_label) if v != ref.value_text])
    edited = replace_slot(original, ref, value.split())
    text, tree = random_encodable_example(rng, _MTOP_WORDS)
    source = Example("m", "en", text, serialize(tree), "dev")
    return [
        build_rs_prompt(pool[:4], pool[4], edited, templates),
        build_gb_prompt(pool[:3], templates),
        build_ts_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, source, tree, "fr", templates),
        build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, source, "fr", templates),
    ]


def _generate_and_gate(prompt, rule, catalog):
    outs = MockBackend([rule]).generate(prompt, DecodingConfig("sampling", 2))
    exp, t = prompt.expected, prompt.templates
    if prompt.method is Method.REPLACE_SLOTS:
        target = parse(exp.target_parse, PIZZA)
        return outs, gate_rs(outs, target, exp.context_texts, catalog, templates=t)
    if prompt.method is Method.GENERATE_BOTH:
        return outs, gate_gb(outs, exp.context_texts, catalog, templates=t)
    return outs, gate_mtop(prompt.method, [outs[0]], exp, SlotNBestMap(), templates=t)


def _first_slot_unedited(prompt, flag, clean_text):
    """Whether ``flag`` finds nothing to edit: the first leaf slot of the
    parse candidate 0 realizes is unbound in its clean text, or, for
    ``flip_casing``, has no cased character."""
    exp = prompt.expected
    parse_text = {
        Method.GENERATE_BOTH: exp.context_parses[0],
        Method.TRANSLATE_BOTH: exp.source_parse,
    }.get(prompt.method, exp.target_parse)
    tree = parse(parse_text, METHODS[prompt.method].dialect)
    (ref, span), *_ = bind_slot_spans(tree, clean_text.split())
    caseless = all(c.lower() == c.upper() for c in ref.value_text)
    return span is None or (flag == "flip_casing" and caseless)


class TestMockCorruptionProperty:
    """On random pizza and MTOP trees, each one-flag rule gives candidate 0
    the modes ``FLAG_MODES`` lists, or leaves it as the clean rule does."""

    @pytest.mark.parametrize(
        "templates", [PromptTemplates(), RENAMED_TEMPLATES], ids=["default", "renamed"]
    )
    def test_each_flag_yields_its_modes(self, catalog, templates):
        rng = random.Random(2210)
        unedited_seen = 0
        for _ in range(25):
            for prompt in _random_prompts(rng, catalog, templates):
                clean_outs, (verdict, event) = _generate_and_gate(
                    prompt, MockRule(), catalog
                )
                assert verdict.status == "clean", clean_outs
                assert set().union(*event.candidate_modes) == set()
                clean = clean_outs[0].text
                split = split_generation(prompt.method, clean, templates)
                for flag, expected in FLAG_MODES[prompt.method].items():
                    outs, (verdict, event) = _generate_and_gate(
                        prompt, MockRule(corruptions=(flag,)), catalog
                    )
                    where = (prompt.method.value, flag, outs[0].text)
                    unedited = flag in _FIRST_SLOT_FLAGS and _first_slot_unedited(
                        prompt, flag, split.text
                    )
                    unedited_seen += unedited
                    if expected is None or unedited:
                        assert outs[0].text == clean, where
                        continue
                    observed = event.candidate_modes[0] | {verdict.recovery} - {None}
                    assert expected <= observed, where
                    if flag not in _WHOLE_FIELD_FLAGS:
                        assert observed == expected, where
        assert unedited_seen > 0  # the unedited case was reached

    def test_duplicate_output_repeats_candidate_zero(self, catalog):
        rng = random.Random(2211)
        for prompt in _random_prompts(rng, catalog, PromptTemplates())[:2]:
            outs, (verdict, event) = _generate_and_gate(
                prompt, MockRule(corruptions=("duplicate_output",)), catalog
            )
            assert outs[1].text == outs[0].text
            assert event.candidate_modes == (frozenset(), {DUPLICATE_OUTPUT})


# Reference scans: the n-best lookups as they were before the dict index,
# over the (English value, language) entries in map order. A value with
# no candidate keeps its (empty) entry, so a loaded map shows it was tried.


def _scan_entries(mapping) -> list:
    return [
        ((en_value, lang), tuple(dict.fromkeys(cands)))
        for lang, values in mapping.items()
        for en_value, cands in values.items()
    ]


def _scan_top(entries, en_value, language):
    for (value, lang), candidates in entries:
        if value == en_value and lang == language:
            return candidates[0] if candidates else None
    return None


def _scan_alternatives(entries, current_value, language):
    for (_, lang), candidates in entries:
        if lang == language and current_value in candidates:
            return candidates
    return ()


def _scan_to_mapping(entries) -> dict:
    out: dict = {}
    for (en_value, lang), candidates in entries:
        out.setdefault(lang, {})[en_value] = list(candidates)
    return out


_NB_WORDS = ("todo", "todos", "viernes", "für", "mon", "ma", "día", "all")
_NB_LANGS = ("de", "es", "fr")
_nbest_mappings = st.dictionaries(
    st.sampled_from(_NB_LANGS),
    st.dictionaries(
        st.sampled_from(_NB_WORDS),
        st.lists(st.sampled_from(_NB_WORDS), max_size=4),
        max_size=5,
    ),
    max_size=3,
)
# "todos" sits in two Spanish lists: the first one in map order wins.
_SHARED_CANDIDATE = {
    "es": {"all": ["todo", "todos", "todos"], "every": ["todos", "cada"], "none": []},
    "fr": {"all": ["tout", "todos"]},
    "de": {"none": []},
}


class TestSlotNBestIndex:
    @given(
        mapping=_nbest_mappings,
        word=st.sampled_from(_NB_WORDS + ("every", "cada", "tout")),
        lang=st.sampled_from(_NB_LANGS + ("hi",)),
    )
    @example(mapping=_SHARED_CANDIDATE, word="todos", lang="es")
    @example(mapping=_SHARED_CANDIDATE, word="todos", lang="fr")
    @example(mapping=_SHARED_CANDIDATE, word="none", lang="es")
    def test_top_and_alternatives_equal_the_scan(self, mapping, word, lang):
        nbest = SlotNBestMap.from_mapping(mapping)
        entries = _scan_entries(mapping)
        assert nbest.top(word, lang) == _scan_top(entries, word, lang)
        assert nbest.alternatives(word, lang) == _scan_alternatives(entries, word, lang)

    def test_a_value_without_candidates_stays_in_the_map(self):
        nbest = SlotNBestMap.from_mapping(_SHARED_CANDIDATE)
        assert nbest.lists["de"] == {"none": ()}
        assert nbest.top("none", "es") is None
        assert nbest.alternatives("none", "es") == ()
        assert json.loads(json.dumps(nbest.lists))["es"]["none"] == []

    def test_first_list_in_map_order_wins(self):
        nbest = SlotNBestMap.from_mapping(_SHARED_CANDIDATE)
        assert nbest.alternatives("todos", "es") == ("todo", "todos")
        assert nbest.alternatives("todos", "fr") == ("tout", "todos")
        assert nbest.alternatives("cada", "es") == ("todos", "cada")

    @given(mapping=_nbest_mappings)
    @example(mapping=_SHARED_CANDIDATE)
    def test_load_to_mapping_round_trips_byte_for_byte(self, mapping):
        # The lists are written as they are held, as ``augment`` writes them.
        nbest = SlotNBestMap.from_mapping(mapping)
        text = json.dumps(nbest.lists, ensure_ascii=False, indent=2)
        assert json.loads(text) == _scan_to_mapping(_scan_entries(mapping))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "nbest.json"
            path.write_text(text, encoding="utf-8")
            loaded = read_json(path, SlotNBestMap.from_mapping)
        assert json.dumps(loaded.lists, ensure_ascii=False, indent=2) == text
