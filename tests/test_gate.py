from __future__ import annotations

import random

import pytest
from hypothesis import example, given, settings, strategies as st

from clasp.backends import DecodingConfig, GenOutput, MockBackend, MockRule
from clasp.datasets import Example, record_line
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

from conftest import WORDS, nbest_view, random_encodable_example, random_pizza_tree
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
            _, event = gate_rs(
                [GenOutput(f"{text};", 0.5)], tree, RS_PROMPT_TEXTS, catalog
            )
            assert _failure_modes(event) == modes

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
            EMPTY_NBEST,
        )
        row = verdict.final
        assert (row is not None) == ok
        if ok:
            bound = bind_slot_spans(parse(row.parse, MTOP), row.text.split())
            assert all(span is not None for _, span in bound)


def _failure_modes(event: GateEvent) -> frozenset[str]:
    """Every mode any candidate of the batch carries."""
    return frozenset().union(*event.candidate_modes)


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
        assert event.success_mode == CLEAN
        assert verdict.final.text == RS_FIG_OUTPUTS[1]
        assert verdict.final.parse == RS_EXPECTED
        assert verdict.final.source == "clasp-rs"
        assert event.success_mode == CLEAN
        assert all(not modes for modes in event.candidate_modes)

    def test_copy_example_flagged(self, catalog):
        verdict, event = self.gate(
            ("order me a medium supreme pizza and a sprite",), catalog
        )
        assert verdict.final is None
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
        assert event.success_mode == CLEAN
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
        assert verdict.final is None
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
        assert event.success_mode == CLEAN
        assert verdict.final.parse.startswith("(Order")
        assert verdict.final.source == "clasp-gb"

    def test_tagged_container_can_binds(self, catalog):
        raw = (
            "(Order (Drinkorder (Number a ) (Containertype can ) "
            "(Drinktype coke ) ) ) => Translation in English: please get me "
            "a can of coke;"
        )
        verdict, event = self.gate([raw], catalog)
        assert event.success_mode == CLEAN
        assert event.candidate_modes[0] == frozenset()

    def test_untagged_extra_cheese_discarded(self, catalog):
        raw = (
            "(Order (Pizzaorder (Number a ) (Size large ) (Topping mushroom ) ) ) => "
            "Translation in English: how are you today i want a large pizza with "
            "mushroom and cheese thanks;"
        )
        verdict, event = self.gate([raw], catalog)
        assert verdict.final is None
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


NBEST = nbest_view(
    {
        "es": {"all": ["todo", "todos", "todas", "todos los"], "for Friday": ["viernes"]},
        "de": {"nicole": ["nicole"]},
    }
)
EMPTY_NBEST = nbest_view({})

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
            parse(NBEST_PARSE, MTOP), NBEST_TEXT, EMPTY_NBEST, "es"
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
        assert event.success_mode == SLOT_NBEST
        assert verdict.final.parse == NBEST_RECOVERED

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
        assert event.success_mode == FIX_CASING
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
        assert verdict.final is None
        assert MISMATCH_PARSE in _failure_modes(event)

    def test_ts_clean(self):
        expected = PromptExpectation(
            language="es", target_parse=NBEST_PARSE, context_texts=()
        )
        text = "Quiero ver todo las alarmas para el viernes"
        verdict, event = gate_mtop(
            "ts", [GenOutput(f"{text};", 0.2)], expected, NBEST
        )
        assert event.success_mode == CLEAN

    def test_ts_copy_example(self):
        expected = PromptExpectation(
            language="es",
            target_parse=NBEST_PARSE,
            context_texts=("Quiero ver todo las alarmas para el viernes",),
        )
        verdict, event = gate_mtop(
            "ts",
            [GenOutput("Quiero ver todo las alarmas para el viernes;", 0.2)],
            expected,
            NBEST,
        )
        assert verdict.final is None
        assert COPY_EXAMPLE in _failure_modes(event)

    def test_tb_invalid_parse(self):
        expected = PromptExpectation(language="de", source_signature="[IN:X ]")
        raw = "[IN:BROKEN [SL:X\n=> Translation in German: kaputt;"
        _, event = gate_mtop("tb", [GenOutput(raw, 0.2)], expected, NBEST)
        assert INVALID_PARSE in _failure_modes(event)

    def test_unrecoverable_missing_slot(self):
        expected = PromptExpectation(language="es", target_parse=NBEST_PARSE)
        verdict, event = gate_mtop(
            "ts", [GenOutput("ninguna alarma;", 0.2)], expected, NBEST
        )
        assert verdict.final is None
        assert MISSING_SLOT in _failure_modes(event)

    def test_ts_recovered_copy_is_a_copy(self):
        # The n-best pass repairs the missing slot, so only the copy fails it.
        expected = PromptExpectation(
            language="es", target_parse=NBEST_PARSE, context_texts=(NBEST_TEXT,)
        )
        verdict, event = gate_mtop(
            "ts", [GenOutput(f"{NBEST_TEXT};", 0.2)], expected, NBEST
        )
        assert verdict.final is None
        assert event.candidate_modes == (frozenset({COPY_EXAMPLE}),)

    def test_tb_recovered_mismatch_is_a_mismatch(self):
        expected = PromptExpectation(
            language="de",
            source_signature=structure_signature(parse("[IN:GET_ALARM ]", MTOP)),
        )
        raw = f"{CASING_PARSE}\n=> Translation in German: {CASING_TEXT};"
        verdict, event = gate_mtop("tb", [GenOutput(raw, 0.2)], expected, NBEST)
        assert verdict.final is None
        assert event.candidate_modes == (frozenset({MISMATCH_PARSE}),)


class TestFallback:
    def test_rs_failure_reemits_original(self):
        original = Example("o1", "en", "text", "(Order (Pizzaorder (Number a ) ) )", "dev")
        out = fallback(original)
        assert out.text == original.text
        assert out.source == "fallback"


def _row(stats, method: str, language: str):
    """The one row of ``stats`` for (method, language)."""
    (row,) = [r for r in stats.rows if (r.method, r.language) == (method, language)]
    return row


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
        row = _row(stats, "rs", "en")
        assert row.success_rate_inputs == 80.0
        assert row.success_rate_outputs == 80.0
        assert row.failure_modes[MISSING_SLOT] == 20.0

    def test_all_clean(self):
        events = [
            GateEvent("gb", "en", (frozenset(),) * 4, CLEAN)
            for i in range(5)
        ]
        row = _row(compile_stats(events), "gb", "en")
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
        assert _row(stats, "ts", "de").success_rate_inputs == 75.0
        assert _row(stats, "ts", "fr").success_rate_inputs == 25.0
        avg = _row(stats, "ts", "avg")
        assert avg.success_rate_inputs == 50.0
        assert avg.failure_modes[MISSING_SLOT] is None

    def test_ts_structural_dashes(self):
        events = [GateEvent("ts", "de", (frozenset(),), CLEAN)]
        row = _row(compile_stats(events), "ts", "de")
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
        assert verdict.final is None
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
        assert event.success_mode == CLEAN  # first copy is kept
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
        assert verdict.final is None
        assert all(mode in modes for modes in event.candidate_modes)

    def test_tb_mismatch_corruption(self):
        prompt = build_tb_prompt(
            TS_ANCHOR_EN, TS_ANCHOR_FR, Example("r", "en", "RSVP no to this event", "[IN:SET_RSVP_NO ]", "dev"), "fr"
        )
        backend = MockBackend([MockRule(corruptions=("mismatch_parse",))])
        outs = backend.generate(prompt, DecodingConfig("greedy"))
        verdict, event = gate_mtop("tb", [outs[0]], prompt.expected, EMPTY_NBEST)
        assert verdict.final is None
        assert MISMATCH_PARSE in _failure_modes(event)

    @pytest.mark.parametrize(
        "flag,success",
        [("drop_slot_word", None), ("flip_casing", FIX_CASING)],
        ids=["drop_slot_word-failed", "flip_casing-recovered"],
    )
    def test_tb_corruption_edits_a_slot_the_filler_could_realize(self, flag, success):
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
        verdict, event = gate_mtop("tb", [out], prompt.expected, EMPTY_NBEST)
        assert event.success_mode == success
        assert (verdict.final is None) == (success is None)

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
        _, event = gate_mtop("tb", [out], prompt.expected, EMPTY_NBEST)
        assert event.success_mode == FIX_CASING

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
        verdict, event = gate_mtop("ts", [outs[0]], prompt.expected, EMPTY_NBEST)
        assert event.success_mode == FIX_CASING

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
        nbest = nbest_view({"fr": {"my": ["mon", "ma"]}})
        outs = backend.generate(prompt, DecodingConfig("greedy"))
        verdict, event = gate_mtop("ts", [outs[0]], prompt.expected, nbest)
        assert event.success_mode == SLOT_NBEST

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
        assert event.success_mode == CLEAN
        assert event.candidate_modes == (frozenset(),) * 4

    def test_tb_mock_follows_a_renamed_translation_cue(self):
        templates = PromptTemplates(translation_cue="Text in {language}:")
        prompt = build_tb_prompt(
            TS_ANCHOR_EN, TS_ANCHOR_FR, TS_SOURCE, "fr", templates
        )
        out = MockBackend([MockRule()]).generate(prompt, DecodingConfig("greedy"))[0]
        assert "=> Text in French: " in out.text
        verdict, event = gate_mtop(
            "tb", [out], prompt.expected, EMPTY_NBEST, templates=templates
        )
        assert event.success_mode == CLEAN
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
        assert verdict.final is None
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
            "tb", [out], prompt.expected, EMPTY_NBEST, templates=templates
        )
        assert verdict.final is None
        assert mode in _failure_modes(event)


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
    return outs, gate_mtop(prompt.method, [outs[0]], exp, EMPTY_NBEST, templates=t)


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
                assert event.success_mode == CLEAN, clean_outs
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
                    observed = event.candidate_modes[0] | {event.success_mode} - {None, CLEAN}
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


# Reference scans: the n-best lookups as they were before any index,
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


def _dict_reference(rows):
    """``top`` and ``alternatives`` over the n-best ``rows`` as the
    in-memory map answered them: the lists built as its ``from_mapping``
    built them, a later row of one (language, value) replacing an earlier
    one's list, and each candidate owned by the first list, in file
    order, that holds it."""
    lists: dict = {}
    owners: dict = {}
    for lang, value, cands in rows:
        cands = tuple(dict.fromkeys(cands))
        lists.setdefault(lang, {})[value] = cands
        for cand in cands:
            owners.setdefault(lang, {}).setdefault(cand, cands)

    def top(value, lang):
        cands = lists.get(lang, {}).get(value)
        return cands[0] if cands else None

    def alternatives(cand, lang):
        return owners.get(lang, {}).get(cand, ())

    return top, alternatives


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
# Rows drawn from few words repeat (language, value) pairs, hold empty
# lists, repeat a candidate within one list and share one between lists.
_nbest_rows = st.lists(
    st.tuples(
        st.sampled_from(_NB_LANGS),
        st.sampled_from(_NB_WORDS[:4]),
        st.lists(st.sampled_from(_NB_WORDS[:5]), max_size=4),
    ),
    max_size=12,
)
# "todos" sits in two Spanish lists: the first one in map order wins.
_SHARED_CANDIDATE = {
    "es": {"all": ["todo", "todos", "todos"], "every": ["todos", "cada"], "none": []},
    "fr": {"all": ["tout", "todos"]},
    "de": {"none": []},
}
# The Spanish "all" comes three times: the last row sets its top, and
# "todo" and "cada" belong to the first row that holds each.
_REPEATED_VALUE = [
    ("es", "all", ["todo", "todos"]),
    ("es", "every", ["cada", "todos"]),
    ("es", "all", []),
    ("es", "all", ["todas", "todo", "cada"]),
    ("fr", "all", ["todo"]),
]


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
        nbest = nbest_view(mapping)
        entries = _scan_entries(mapping)
        assert nbest.top(word, lang) == _scan_top(entries, word, lang)
        assert nbest.alternatives(word, lang) == _scan_alternatives(entries, word, lang)

    @given(rows=_nbest_rows)
    @example(rows=_REPEATED_VALUE)
    @example(rows=[(lang, value, cands) for lang, values in _SHARED_CANDIDATE.items()
                   for value, cands in values.items()])
    def test_the_view_answers_as_the_dict_reference(self, rows):
        nbest = nbest_view(rows)
        top, alternatives = _dict_reference(rows)
        for lang in (*_NB_LANGS, "hi"):
            for word in (*_NB_WORDS, "every", "cada", "todas", "tout"):
                assert nbest.top(word, lang) == top(word, lang), (word, lang)
                assert nbest.alternatives(word, lang) == alternatives(word, lang), (word, lang)

    def test_a_value_without_candidates_stays_in_the_map(self):
        nbest = nbest_view(_SHARED_CANDIDATE)
        # An empty list is a row the lookups find; an absent value is none.
        assert nbest.candidates("none", "de") == []
        assert nbest.candidates("none", "fr") is None
        assert nbest.top("none", "es") is None
        assert nbest.alternatives("none", "es") == ()

    def test_first_list_in_map_order_wins(self):
        nbest = nbest_view(_SHARED_CANDIDATE)
        assert nbest.alternatives("todos", "es") == ("todo", "todos")
        assert nbest.alternatives("todos", "fr") == ("tout", "todos")
        assert nbest.alternatives("cada", "es") == ("todos", "cada")

    def test_a_later_row_of_one_value_sets_its_top(self):
        nbest = nbest_view(_REPEATED_VALUE)
        assert nbest.top("all", "es") == "todas"
        assert nbest.alternatives("todo", "es") == ("todo", "todos")
        assert nbest.alternatives("cada", "es") == ("cada", "todos")
        assert nbest.top("all", "fr") == "todo"

    @given(mapping=_nbest_mappings)
    @example(mapping=_SHARED_CANDIDATE)
    def test_load_to_mapping_round_trips_byte_for_byte(self, mapping):
        # The rows are read back as ``augment`` writes them.
        nbest = nbest_view(mapping)
        lines = [
            record_line({"language": lang, "value": value, "candidates": cands})
            for lang, values in mapping.items()
            for value, cands in values.items()
        ]
        assert [record_line(row) for row in nbest] == lines
