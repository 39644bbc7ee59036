from __future__ import annotations

import ast
import random
from dataclasses import fields
from pathlib import Path

import pytest

import clasp
from clasp.datasets import Example
from clasp.prompts import (
    BadEdit,
    ContextArity,
    EmptyValue,
    InvalidSeparators,
    LanguageUnsupported,
    Method,
    PromptTemplates,
    build_gb_prompt,
    build_rs_prompt,
    build_sent_mt_prompt,
    build_slot_mt_prompt,
    build_tb_prompt,
    build_ts_prompt,
    continuation_for,
    split_generation,
)
from clasp.trees import Dialect, leaf_slots, parse, replace_slot

PIZZA = Dialect.PIZZA_PAREN


def ex(i: str, text: str, parse_str: str, lang: str = "en") -> Example:
    return Example(id=i, lang=lang, text=text, parse=parse_str, source="dev")


RS_CONTEXT = [
    ex(
        "c1",
        "order me a medium supreme pizza and a sprite",
        "(Order (Pizzaorder (Number a ) (Size medium ) (Style supreme ) ) "
        "(Drinkorder (Number a ) (Drinktype sprite ) ) )",
    ),
    ex(
        "c2",
        "put in my order for two bacon and onion pizzas and include a large mountain dew",
        "(Order (Pizzaorder (Number two ) (Topping bacon ) (Topping onion ) ) "
        "(Drinkorder (Number a ) (Size large ) (Drinktype mountain dew ) ) )",
    ),
    ex(
        "c3",
        "two large pizzas with pepperoni and mushrooms and four large cherry cokes",
        "(Order (Pizzaorder (Number two ) (Size large ) (Topping pepperoni ) "
        "(Topping mushrooms ) ) (Drinkorder (Number four ) (Size large ) "
        "(Drinktype cherry cokes ) ) )",
    ),
    ex(
        "c4",
        "place an order for one small pizza with yellow peppers and olives "
        "and also include two cans of coke with it",
        "(Order (Pizzaorder (Number one ) (Size small ) (Topping yellow peppers ) "
        "(Topping olives ) ) (Drinkorder (Number two ) (Containertype cans ) "
        "(Drinktype coke ) ) )",
    ),
]

RS_ORIGINAL = ex(
    "orig",
    "i need to get five small mushroom and bacon pizzas with a pepsi",
    "(Order (Pizzaorder (Number five ) (Size small ) (Topping mushroom ) "
    "(Topping bacon ) ) (Drinkorder (Number a ) (Drinktype pepsi ) ) )",
)

RS_EDITED = (
    "(Order (Pizzaorder (Number five ) (Size small ) (Topping spinach ) "
    "(Topping bacon ) ) (Drinkorder (Number a ) (Drinktype pepsi ) ) )"
)

RS_GOLDEN = "\n".join(
    [
        f"[CLM] Semantic Parse: {RS_CONTEXT[0].parse};",
        f"Translation in English: {RS_CONTEXT[0].text};",
        f"Semantic Parse: {RS_CONTEXT[1].parse};",
        f"Translation in English: {RS_CONTEXT[1].text};",
        f"Semantic Parse: {RS_CONTEXT[2].parse};",
        f"Translation in English: {RS_CONTEXT[2].text};",
        f"Semantic Parse: {RS_CONTEXT[3].parse};",
        f"Translation in English: {RS_CONTEXT[3].text};",
        f"Semantic Parse: {RS_ORIGINAL.parse};",
        f"Translation in English: {RS_ORIGINAL.text};",
        f"Semantic Parse: {RS_EDITED};",
        "Translation in English:",
    ]
)


class TestRsPrompt:
    def test_golden_layout(self):
        prompt = build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, PIZZA))
        assert prompt.text == RS_GOLDEN
        assert prompt.method is Method.REPLACE_SLOTS
        assert prompt.expected.target_parse == RS_EDITED

    def test_context_arity(self):
        with pytest.raises(ContextArity):
            build_rs_prompt(RS_CONTEXT[:3], RS_ORIGINAL, parse(RS_EDITED, PIZZA))

    def test_bad_edit_no_change(self):
        with pytest.raises(BadEdit):
            build_rs_prompt(
                RS_CONTEXT, RS_ORIGINAL, parse(RS_ORIGINAL.parse, PIZZA)
            )

    def test_bad_edit_two_slots(self):
        tree = parse(RS_ORIGINAL.parse, PIZZA)
        refs = leaf_slots(tree)
        tree = replace_slot(tree, refs[2], ("spinach",))
        tree = replace_slot(tree, refs[3], ("ham",))
        with pytest.raises(BadEdit):
            build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, tree)

    def test_bad_edit_structure_change(self):
        other = parse("(Order (Pizzaorder (Number a ) ) )", PIZZA)
        with pytest.raises(BadEdit):
            build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, other)

    def test_splitter_recovers_blocks(self):
        prompt = build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, PIZZA))
        body = prompt.text[len("[CLM] ") :]
        lines = body.split("\n")
        assert len(lines) == 12
        assert lines[-1] == "Translation in English:"
        assert all(l.endswith(";") for l in lines[:-1])


GB_CONTEXT = [
    ex(
        "g1",
        "can you get me a small pizza with peppers and sausage and pineapple please",
        "(Order (Pizzaorder (Number a ) (Size small ) (Topping peppers ) "
        "(Topping sausage ) (Topping pineapple ) ) )",
    ),
    ex(
        "g2",
        "i need a large pizza and i want olives and extra cheese as well as "
        "chicken on it thanks a lot",
        "(Order (Pizzaorder (Number a ) (Size large ) (Topping olives ) "
        "(Complex_topping (Quantity extra ) (Topping cheese ) ) (Topping chicken ) ) )",
    ),
    ex(
        "g3",
        "i'd like a medium pizza with onions tuna and ham",
        "(Order (Pizzaorder (Number a ) (Size medium ) (Topping onions ) "
        "(Topping tuna ) (Topping ham ) ) )",
    ),
    ex(
        "g4",
        "i want two olive pineapple and mushroom pies",
        "(Order (Pizzaorder (Number two ) (Topping olive ) (Topping pineapple ) "
        "(Topping mushroom ) ) )",
    ),
    ex(
        "g5",
        "good evening how are you do me a favor and get me a large pizza with "
        "ham and peppers i definitely do not want thin crust thanks",
        "(Order (Pizzaorder (Number a ) (Size large ) (Topping ham ) "
        "(Topping peppers ) (Not (Style thin crust ) ) ) )",
    ),
]


class TestGbPrompt:
    def test_golden_layout(self):
        prompt = build_gb_prompt(GB_CONTEXT)
        expected = "[CLM] " + "\n".join(
            line
            for exm in GB_CONTEXT
            for line in (
                f"Semantic Parse: {exm.parse}",
                f"=> Translation in English: {exm.text};",
            )
        )
        assert prompt.text == expected + "\nSemantic Parse:"

    def test_single_context_block(self):
        prompt = build_gb_prompt(GB_CONTEXT[:1])
        assert prompt.text.count("Semantic Parse:") == 2

    def test_empty_context_rejected(self):
        with pytest.raises(ContextArity):
            build_gb_prompt([])

    def test_splitter_recovers_context(self):
        prompt = build_gb_prompt(GB_CONTEXT)
        blocks = prompt.text.split("\nSemantic Parse:")
        assert len(blocks) == len(GB_CONTEXT) + 1
        assert blocks[-1] == ""


TS_ANCHOR_EN = ex(
    "a-en",
    "Remind me of my 10 : 00 am doctor 's appointment",
    "[IN:CREATE_REMINDER [SL:PERSON_REMINDED me ] [SL:TODO [IN:GET_TODO "
    "[SL:DATE_TIME 10 : 00 am ] [SL:TODO doctor 's appointment ] ] ] ]",
)
TS_ANCHOR_FR = ex(
    "a-fr",
    "Fais - moi penser à mon rendez - vous de 10 h chez le médecin",
    "[IN:CREATE_REMINDER [SL:PERSON_REMINDED moi ] [SL:TODO [IN:GET_TODO "
    "[SL:DATE_TIME de 10 h ] [SL:TODO rendez - vous chez le médecin ] ] ] ]",
    lang="fr",
)
TS_SOURCE = ex(
    "s1",
    "Send a message to my husband reminding him to pick up bread",
    "[IN:SEND_MESSAGE [SL:RECIPIENT [IN:GET_CONTACT [SL:CONTACT_RELATED my ] "
    "[SL:TYPE_RELATION husband ] ] ] [SL:CONTENT_EXACT pick up bread ] ]",
)
TS_TRANSLATED = (
    "[IN:SEND_MESSAGE [SL:RECIPIENT [IN:GET_CONTACT [SL:CONTACT_RELATED mon ] "
    "[SL:TYPE_RELATION mari ] ] ] [SL:CONTENT_EXACT prendre du pain ] ]"
)


class TestTsPrompt:
    def test_golden_layout(self):
        prompt = build_ts_prompt(
            TS_ANCHOR_EN,
            TS_ANCHOR_FR,
            TS_SOURCE,
            parse(TS_TRANSLATED, Dialect.MTOP_BRACKET),
            "fr",
        )
        expected = "\n".join(
            [
                f"[CLM] Semantic Parse: {TS_ANCHOR_EN.parse};",
                f"Translation in English: {TS_ANCHOR_EN.text};",
                f"Semantic Parse: {TS_ANCHOR_FR.parse};",
                f"Translation in French: {TS_ANCHOR_FR.text};",
                f"Semantic Parse: {TS_SOURCE.parse};",
                f"Translation in English: {TS_SOURCE.text};",
                f"Semantic Parse: {TS_TRANSLATED};",
                "Translation in French:",
            ]
        )
        assert prompt.text == expected
        assert prompt.expected.target_parse == TS_TRANSLATED

    def test_english_target_rejected(self):
        with pytest.raises(LanguageUnsupported):
            build_ts_prompt(
                TS_ANCHOR_EN,
                TS_ANCHOR_FR,
                TS_SOURCE,
                parse(TS_TRANSLATED, Dialect.MTOP_BRACKET),
                "en",
            )

    def test_unknown_language_rejected(self):
        with pytest.raises(LanguageUnsupported):
            build_ts_prompt(
                TS_ANCHOR_EN,
                TS_ANCHOR_FR,
                TS_SOURCE,
                parse(TS_TRANSLATED, Dialect.MTOP_BRACKET),
                "xx",
            )


TB_SOURCE = ex("rsvp", "RSVP no to this event", "[IN:SET_RSVP_NO ]")


class TestTbPrompt:
    def test_golden_layout(self):
        prompt = build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, TB_SOURCE, "fr")
        expected = "\n".join(
            [
                f"[CLM] Semantic Parse for English: {TS_ANCHOR_EN.parse}",
                f"=> Translation in English: {TS_ANCHOR_EN.text};",
                f"Semantic Parse for French: {TS_ANCHOR_FR.parse}",
                f"=> Translation in French: {TS_ANCHOR_FR.text};",
                f"Semantic Parse for English: {TB_SOURCE.parse}",
                f"=> Translation in English: {TB_SOURCE.text};",
                "Semantic Parse for French:",
            ]
        )
        assert prompt.text == expected
        assert prompt.expected.source_signature == "[IN:SET_RSVP_NO ]"

    def test_mismatched_anchor_structures_accepted(self):
        prompt = build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, TB_SOURCE, "de")
        assert "Semantic Parse for German:" in prompt.text

    def test_splitter_sees_three_blocks_plus_cue(self):
        prompt = build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, TB_SOURCE, "fr")
        blocks = prompt.text.split("Semantic Parse for ")
        assert len(blocks) == 5  # leading [CLM] chunk + 3 blocks + open cue


class TestMtPrompts:
    def test_slot_prompt_layout(self):
        prompt = build_slot_mt_prompt(
            [("reminder", "rappel"), ("all", "todo")], "all alarms", "es"
        )
        lines = prompt.text.split("\n")
        assert lines[0] == "[CLM] Translation in English: reminder;"
        assert lines[-1] == "Translation in Spanish:"
        assert prompt.text == build_slot_mt_prompt(
            [("reminder", "rappel"), ("all", "todo")], "all alarms", "es"
        ).text

    def test_slot_prompt_empty_value(self):
        with pytest.raises(EmptyValue):
            build_slot_mt_prompt([("a", "b")], "  ", "fr")

    def test_slot_prompt_needs_anchor(self):
        with pytest.raises(ContextArity):
            build_slot_mt_prompt([], "all", "fr")

    def test_sent_prompt_layout(self):
        prompt = build_sent_mt_prompt(
            ("hello there", "bonjour"), "good morning", "fr"
        )
        lines = prompt.text.split("\n")
        assert lines == [
            "[CLM] Translation in English: hello there;",
            "Translation in French: bonjour;",
            "Translation in English: good morning;",
            "Translation in French:",
        ]

    def test_sent_prompt_single_anchor_pair(self):
        prompt = build_sent_mt_prompt(("a", "b"), "c", "de")
        assert prompt.text.count("Translation in English:") == 2
        assert prompt.text.count("Translation in German:") == 2


# Every field differs from its default.
RENAMED = PromptTemplates(
    clm_token="<ctx>",
    parse_cue="LF:",
    lang_parse_cue="LF in {language}:",
    translation_cue="Text in {language} -",
    arrow="->",
    terminator=".",
    language_names=(("de", "Deutsch"), ("en", "Englisch"), ("fr", "Französisch")),
)

RENAMED_GOLDEN = {
    "rs": (
        lambda: build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, PIZZA), RENAMED),
        [
            line
            for exm in [*RS_CONTEXT, RS_ORIGINAL]
            for line in (f"LF: {exm.parse}.", f"Text in Englisch - {exm.text}.")
        ] + [f"LF: {RS_EDITED}.", "Text in Englisch -"],
    ),
    "gb": (
        lambda: build_gb_prompt(GB_CONTEXT[:2], RENAMED),
        [
            f"LF: {GB_CONTEXT[0].parse}",
            f"-> Text in Englisch - {GB_CONTEXT[0].text}.",
            f"LF: {GB_CONTEXT[1].parse}",
            f"-> Text in Englisch - {GB_CONTEXT[1].text}.",
            "LF:",
        ],
    ),
    "ts": (
        lambda: build_ts_prompt(
            TS_ANCHOR_EN, TS_ANCHOR_FR, TS_SOURCE,
            parse(TS_TRANSLATED, Dialect.MTOP_BRACKET), "fr", RENAMED,
        ),
        [
            f"LF: {TS_ANCHOR_EN.parse}.",
            f"Text in Englisch - {TS_ANCHOR_EN.text}.",
            f"LF: {TS_ANCHOR_FR.parse}.",
            f"Text in Französisch - {TS_ANCHOR_FR.text}.",
            f"LF: {TS_SOURCE.parse}.",
            f"Text in Englisch - {TS_SOURCE.text}.",
            f"LF: {TS_TRANSLATED}.",
            "Text in Französisch -",
        ],
    ),
    "tb": (
        lambda: build_tb_prompt(TS_ANCHOR_EN, TS_ANCHOR_FR, TB_SOURCE, "fr", RENAMED),
        [
            f"LF in Englisch: {TS_ANCHOR_EN.parse}",
            f"-> Text in Englisch - {TS_ANCHOR_EN.text}.",
            f"LF in Französisch: {TS_ANCHOR_FR.parse}",
            f"-> Text in Französisch - {TS_ANCHOR_FR.text}.",
            f"LF in Englisch: {TB_SOURCE.parse}",
            f"-> Text in Englisch - {TB_SOURCE.text}.",
            "LF in Französisch:",
        ],
    ),
    "slot-mt": (
        lambda: build_slot_mt_prompt(
            [("reminder", "rappel"), ("all", "tout")], "all alarms", "fr", RENAMED
        ),
        [
            "Text in Englisch - reminder.",
            "Text in Französisch - rappel.",
            "Text in Englisch - all.",
            "Text in Französisch - tout.",
            "Text in Englisch - all alarms.",
            "Text in Französisch -",
        ],
    ),
    "mt": (
        lambda: build_sent_mt_prompt(("hello there", "bonjour"), "good morning", "fr",
                                     RENAMED),
        [
            "Text in Englisch - hello there.",
            "Text in Französisch - bonjour.",
            "Text in Englisch - good morning.",
            "Text in Französisch -",
        ],
    ),
}


@pytest.mark.parametrize("method", list(RENAMED_GOLDEN))
def test_golden_layout_under_renamed_templates(method):
    build, lines = RENAMED_GOLDEN[method]
    prompt = build()
    assert prompt.method is Method(method)
    assert prompt.text == "<ctx> " + "\n".join(lines)
    assert prompt.templates is RENAMED
    assert prompt.stop == "."


class TestSplitGeneration:
    def test_gb_pair(self):
        raw = (
            "(Order (Pizzaorder (Number two ) (Topping olive ) ) ) => "
            "Translation in English: can you get me two olive pies please;"
        )
        cand = split_generation(Method.GENERATE_BOTH, raw)
        assert cand.parse_text == "(Order (Pizzaorder (Number two ) (Topping olive ) ) )"
        assert cand.text == "can you get me two olive pies please"

    def test_rs_text_only(self):
        cand = split_generation(
            Method.REPLACE_SLOTS, "five small spinach and bacon pizzas with a pepsi;"
        )
        assert cand.text == "five small spinach and bacon pizzas with a pepsi"
        assert cand.parse_text is None

    def test_double_arrow_rejected(self):
        with pytest.raises(InvalidSeparators):
            split_generation(Method.REPLACE_SLOTS, "a => b => c;")
        with pytest.raises(InvalidSeparators):
            split_generation(
                Method.GENERATE_BOTH, "a => Translation in English: b => c;"
            )

    def test_missing_terminator_rejected(self):
        with pytest.raises(InvalidSeparators):
            split_generation(Method.REPLACE_SLOTS, "no trailing semicolon")

    def test_duplicated_terminator_rejected(self):
        with pytest.raises(InvalidSeparators):
            split_generation(Method.REPLACE_SLOTS, "a; b;")

    def test_missing_translation_label_rejected(self):
        with pytest.raises(InvalidSeparators):
            split_generation(Method.TRANSLATE_BOTH, "[IN:A ] => just text;")

    @pytest.mark.parametrize(
        "method", [Method.REPLACE_SLOTS, Method.TRANSLATE_SLOTS, Method.SENT_MT]
    )
    def test_split_inverts_continuation_text_methods(self, method):
        rng = random.Random(5)
        for _ in range(30):
            text = " ".join(rng.choice("abcdef") for _ in range(rng.randint(1, 8)))
            raw = continuation_for(method, text=text)
            assert split_generation(method, raw).text == text

    @pytest.mark.parametrize(
        "method", [Method.GENERATE_BOTH, Method.TRANSLATE_BOTH]
    )
    def test_split_inverts_continuation_pair_methods(self, method):
        raw = continuation_for(
            method,
            text="two olive pies",
            parse_text="(Order (Pizzaorder (Number two ) ) )",
            language="en",
        )
        cand = split_generation(method, raw)
        assert cand.text == "two olive pies"
        assert cand.parse_text == "(Order (Pizzaorder (Number two ) ) )"

    @pytest.mark.parametrize(
        "method", [Method.GENERATE_BOTH, Method.TRANSLATE_BOTH]
    )
    def test_split_follows_a_configured_translation_cue(self, method):
        templates = PromptTemplates(translation_cue="Text in {language}:")
        raw = continuation_for(
            method,
            text="zwei Pizzen",
            parse_text="[IN:ORDER [SL:NUMBER zwei ] ]",
            language="de",
            templates=templates,
        )
        assert "=> Text in German: zwei Pizzen;" in raw
        cand = split_generation(method, raw, templates)
        assert cand.text == "zwei Pizzen"
        assert cand.parse_text == "[IN:ORDER [SL:NUMBER zwei ] ]"
        # The default label is not the configured cue.
        with pytest.raises(InvalidSeparators):
            split_generation(method, raw.replace("Text in", "Translation in"), templates)

    def test_builders_are_deterministic(self):
        a = build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, PIZZA))
        b = build_rs_prompt(RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, PIZZA))
        assert a.text == b.text
        assert build_gb_prompt(GB_CONTEXT).text == build_gb_prompt(GB_CONTEXT).text


# The template fields and accessors that shape a prompt or a continuation.
# ``prompts`` renders and splits with them; the mock reads them only to
# break the separators of a rendered continuation, and edits every other
# part as (parse, text) fields; a request's stop is ``Prompt.stop``.
SEPARATOR_FIELDS = {f.name for f in fields(PromptTemplates)} | {
    "language_name", "tcue", "pcue"
}
SEPARATOR_READS_ALLOWED = {("backends.py", "_break_separators")}


def separator_reads(path: Path) -> list[str]:
    """``file:line field`` of each read of a ``SEPARATOR_FIELDS`` attribute
    in ``path`` outside ``prompts.py`` and the places allowed to make one."""

    def walk(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr in SEPARATOR_FIELDS:
                yield func, child.attr, child.lineno
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            yield from walk(child, child.name if inner else func)

    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        f"{path.name}:{line} {name}"
        for func, name, line in walk(tree, None)
        if path.name != "prompts.py"
        and (path.name, func) not in SEPARATOR_READS_ALLOWED
    ]


def test_no_module_reads_the_continuation_format_but_prompts():
    # A second reader would define the format a second time.
    sources = sorted(Path(clasp.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    assert [where for path in sources for where in separator_reads(path)] == []


def test_guard_sees_separator_reads(tmp_path):
    src = tmp_path / "backends.py"
    src.write_text(
        "def _break_separators(t):\n"
        "    return t.arrow + t.terminator\n"
        "def _edit(prompt, raw):\n"
        "    return raw.partition(prompt.templates.arrow), prompt.templates.tcue('de')\n"
        "label = PromptTemplates().translation_cue\n"
        "stop = prompt.templates.terminator, t.clm_token + t.language_name('de')\n",
        encoding="utf-8",
    )
    assert separator_reads(src) == [
        "backends.py:4 arrow", "backends.py:4 tcue", "backends.py:5 translation_cue",
        "backends.py:6 terminator", "backends.py:6 clm_token", "backends.py:6 language_name",
    ]
