"""Prompt construction and the inverse splitter for generation outputs.

Every prompt starts with the in-context-learning control token ("[CLM] "),
verbalizes its context examples, and ends with an open cue the model is
expected to continue. Each example is its cue, a space, then its
continuation as ``continuation_for`` renders it, so the model continues
the very format its examples show. Example verbalizations per method:

    replace-slots / translate-slots:
        Semantic Parse: <parse>;
        Translation in <Language>: <text>;
    generate-both:
        Semantic Parse: <parse>
        => Translation in <Language>: <text>;
    translate-both:
        Semantic Parse for <Language>: <parse>
        => Translation in <Language>: <text>;
    slot-mt / mt:
        Translation in English: <English text>;
        Translation in <Language>: <text>;

The open cue is an example's cue without a continuation. Cue wording is
overridable via a JSON template file, and a backend asks the model to stop
at ``Prompt.stop``, the prompt's terminator. ``METHODS`` is the one table
of what every layer knows about a method.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from types import MappingProxyType
from typing import Mapping, Sequence

from .datasets import Example
from .trees import Dialect, ParseTree, parse, leaf_slots, serialize, structure_signature


class PromptError(ValueError):
    pass


class ContextArity(PromptError):
    pass


class BadEdit(PromptError):
    pass


class LanguageUnsupported(PromptError):
    pass


class EmptyValue(PromptError):
    pass


class InvalidSeparators(PromptError):
    """Missing, misplaced, or duplicated ';' / '=>' in a model output."""


class Method(str, Enum):
    REPLACE_SLOTS = "rs"
    TRANSLATE_SLOTS = "ts"
    GENERATE_BOTH = "gb"
    TRANSLATE_BOTH = "tb"
    SLOT_MT = "slot-mt"
    SENT_MT = "mt"


@dataclass(frozen=True)
class MethodSpec:
    dialect: Dialect | None  # of the method's parses; None when text-only
    pair: bool  # the continuation carries a parse before the arrow
    # "pizza" or "mtop": the dataset and the stats table; None for a method
    # that ``augment`` does not offer
    family: str | None
    decoding: tuple[str, int]  # the default backends.DecodingConfig(mode, n)


METHODS: Mapping[Method, MethodSpec] = MappingProxyType({
    Method.REPLACE_SLOTS: MethodSpec(Dialect.PIZZA_PAREN, False, "pizza", ("sampling", 4)),
    Method.GENERATE_BOTH: MethodSpec(Dialect.PIZZA_PAREN, True, "pizza", ("sampling", 4)),
    Method.TRANSLATE_SLOTS: MethodSpec(Dialect.MTOP_BRACKET, False, "mtop", ("greedy", 1)),
    Method.TRANSLATE_BOTH: MethodSpec(Dialect.MTOP_BRACKET, True, "mtop", ("greedy", 1)),
    Method.SENT_MT: MethodSpec(None, False, "mtop", ("greedy", 1)),
    Method.SLOT_MT: MethodSpec(None, False, None, ("beam", 4)),
})


# Every line of a prompt has a cue, and ``str.format`` costs more than the
# rest of the line, so each cue is formatted once per language name.
@lru_cache(maxsize=256)
def _with_language(cue: str, name: str) -> str:
    return cue.format(language=name)


@dataclass(frozen=True)
class PromptTemplates:
    clm_token: str = "[CLM]"
    parse_cue: str = "Semantic Parse:"
    lang_parse_cue: str = "Semantic Parse for {language}:"
    translation_cue: str = "Translation in {language}:"
    arrow: str = "=>"
    terminator: str = ";"
    language_names: tuple[tuple[str, str], ...] = (
        ("en", "English"),
        ("de", "German"),
        ("es", "Spanish"),
        ("fr", "French"),
        ("hi", "Hindi"),
    )

    def __post_init__(self) -> None:
        # A blank one would make ``split_generation`` reject every candidate.
        for key in ("arrow", "terminator"):
            value = getattr(self, key)
            if not isinstance(value, str) or not value.strip():
                raise ValueError(f"prompt template {key!r} is blank: {value!r}")

    def language_name(self, code: str) -> str:
        for key, name in self.language_names:
            if code == key or code == name:
                return name
        raise LanguageUnsupported(f"no language name configured for {code!r}")

    def tcue(self, code: str) -> str:
        return _with_language(self.translation_cue, self.language_name(code))

    def pcue(self, code: str) -> str:
        return _with_language(self.lang_parse_cue, self.language_name(code))

    @classmethod
    def from_mapping(cls, data: Mapping) -> "PromptTemplates":
        """Build from the JSON shape: an object for ``language_names``,
        strings elsewhere; a key left out keeps its default."""
        if not isinstance(data, dict):
            raise ValueError("prompt templates must be a JSON object")
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown:
            raise ValueError(f"unknown prompt template key {unknown[0]!r}")
        kwargs = dict(data)
        strings = [v for k, v in data.items() if k != "language_names"]
        if "language_names" in data:
            names = data["language_names"]
            if not isinstance(names, dict):
                raise ValueError("'language_names' must be an object")
            kwargs["language_names"] = tuple(sorted(names.items()))
            strings += names.values()
        if not all(isinstance(v, str) for v in strings):
            raise ValueError("prompt template values must be strings")
        return cls(**kwargs)


@dataclass(frozen=True)
class PromptExpectation:
    """What a valid continuation must realize, used by the output gate."""

    language: str = "en"
    target_parse: str | None = None
    source_signature: str | None = None
    source_text: str | None = None
    source_parse: str | None = None
    context_texts: tuple[str, ...] = ()
    context_parses: tuple[str, ...] = ()


@dataclass(frozen=True)
class Prompt:
    text: str
    method: Method
    expected: PromptExpectation
    templates: PromptTemplates = PromptTemplates()  # the ones it was built with

    @property
    def stop(self) -> str:
        """Where a continuation of this prompt ends: its terminator."""
        return self.templates.terminator


@dataclass(frozen=True)
class SplitCandidate:
    text: str | None = None
    parse_text: str | None = None


def _cue(method: Method, t: PromptTemplates, given: str | None, lang: str) -> str:
    """What an example shows before its continuation: rs/ts the parse
    ``given`` and slot-mt/mt the English text ``given``, each then the
    translation cue of ``lang``; gb the parse cue and tb the parse cue of
    ``lang``, for a pair continuation carries the parse itself."""
    spec = METHODS[method]
    if spec.pair:
        # Only the cross-lingual (mtop) one names the parse's language.
        return t.pcue(lang) if spec.family == "mtop" else t.parse_cue
    head = t.parse_cue if spec.dialect else t.tcue("en")
    return f"{head} {given}{t.terminator}\n{t.tcue(lang)}"


def _render(
    method: Method,
    t: PromptTemplates,
    shots: Sequence[tuple[str, str, str]],
    given: str | None,
    language: str,
) -> str:
    """The prompt text: the control token, each ``(given, text, lang)``
    shot as its cue plus its continuation, then the open cue of ``given``
    and ``language``. A shot's ``given`` is its parse (rs, ts, gb, tb) or
    its English text (slot-mt, mt): a pair method's continuation carries
    it, any other method's cue."""
    lines = [
        f"{_cue(method, t, g, lang)} " + continuation_for(
            method, text=text, parse_text=g, language=lang, templates=t
        )
        for g, text, lang in shots
    ]
    lines.append(_cue(method, t, given, language))
    return f"{t.clm_token} " + "\n".join(lines)


def _require_single_slot_edit(
    original_parse: str, edited: ParseTree
) -> None:
    try:
        orig = parse(original_parse, edited.dialect)
    except Exception as exc:
        raise BadEdit(f"original parse unreadable: {exc}") from exc
    if structure_signature(orig) != structure_signature(edited):
        raise BadEdit("edit changes the parse structure, not a slot value")
    diffs = sum(
        1
        for a, b in zip(leaf_slots(orig), leaf_slots(edited))
        if a.value != b.value
    )
    if diffs != 1:
        raise BadEdit(f"edit must change exactly one leaf slot, changed {diffs}")


def build_rs_prompt(
    context: Sequence[Example],
    original: Example,
    edited_parse: ParseTree,
    templates: PromptTemplates = PromptTemplates(),
) -> Prompt:
    """Same-language prompt: context examples, the original, then the
    slot-edited parse with an open translation cue."""
    if len(context) != 4:
        raise ContextArity(
            f"replace-slots prompts take exactly 4 context examples, got {len(context)}"
        )
    _require_single_slot_edit(original.parse, edited_parse)
    edited = serialize(edited_parse)
    examples = [*context, original]
    shots = [(ex.parse, ex.text, ex.lang) for ex in examples]
    return Prompt(
        text=_render(Method.REPLACE_SLOTS, templates, shots, edited, original.lang),
        method=Method.REPLACE_SLOTS,
        expected=PromptExpectation(
            language=original.lang,
            target_parse=edited,
            source_parse=original.parse,
            source_text=original.text,
            context_texts=tuple(ex.text for ex in examples),
            context_parses=tuple(ex.parse for ex in examples),
        ),
        templates=templates,
    )


def build_gb_prompt(
    context: Sequence[Example], templates: PromptTemplates = PromptTemplates()
) -> Prompt:
    """Open-ended prompt: the model continues with a new parse and text."""
    if not context:
        raise ContextArity("generate-both prompts need at least 1 context example")
    shots = [(ex.parse, ex.text, ex.lang) for ex in context]
    language = context[0].lang
    return Prompt(
        text=_render(Method.GENERATE_BOTH, templates, shots, None, language),
        method=Method.GENERATE_BOTH,
        expected=PromptExpectation(
            language=language,
            context_texts=tuple(ex.text for ex in context),
            context_parses=tuple(ex.parse for ex in context),
        ),
        templates=templates,
    )


def require_cross_lingual(t: PromptTemplates, language: str) -> str:
    """The name of ``language``, a non-English language ``t`` knows."""
    name = t.language_name(language)  # raises LanguageUnsupported when unknown
    if name == t.language_name("en"):
        raise LanguageUnsupported("cross-lingual methods need a non-English target")
    return name


def build_ts_prompt(
    anchor_en: Example,
    anchor_tgt: Example,
    en_source: Example,
    slot_translated_parse: ParseTree,
    language: str,
    templates: PromptTemplates = PromptTemplates(),
) -> Prompt:
    """Cross-lingual prompt: anchor pair, the English source, then the
    slot-translated parse with an open target-language cue."""
    require_cross_lingual(templates, language)
    translated = serialize(slot_translated_parse)
    shots = [
        (anchor_en.parse, anchor_en.text, "en"),
        (anchor_tgt.parse, anchor_tgt.text, language),
        (en_source.parse, en_source.text, "en"),
    ]
    return Prompt(
        text=_render(Method.TRANSLATE_SLOTS, templates, shots, translated, language),
        method=Method.TRANSLATE_SLOTS,
        expected=PromptExpectation(
            language=language,
            target_parse=translated,
            source_parse=en_source.parse,
            source_text=en_source.text,
            context_texts=(anchor_en.text, anchor_tgt.text, en_source.text),
            context_parses=(anchor_en.parse, anchor_tgt.parse, en_source.parse),
        ),
        templates=templates,
    )


def build_tb_prompt(
    anchor_en: Example,
    anchor_tgt: Example,
    en_source: Example,
    language: str,
    templates: PromptTemplates = PromptTemplates(),
) -> Prompt:
    """Cross-lingual prompt asking for both the parse and the text."""
    require_cross_lingual(templates, language)
    signature = structure_signature(parse(en_source.parse, Dialect.MTOP_BRACKET))
    shots = [
        (anchor_en.parse, anchor_en.text, "en"),
        (anchor_tgt.parse, anchor_tgt.text, language),
        (en_source.parse, en_source.text, "en"),
    ]
    return Prompt(
        text=_render(Method.TRANSLATE_BOTH, templates, shots, None, language),
        method=Method.TRANSLATE_BOTH,
        expected=PromptExpectation(
            language=language,
            source_signature=signature,
            source_parse=en_source.parse,
            source_text=en_source.text,
            context_texts=(anchor_en.text, anchor_tgt.text, en_source.text),
            context_parses=(anchor_en.parse, anchor_tgt.parse, en_source.parse),
        ),
        templates=templates,
    )


def build_slot_mt_prompt(
    anchor_slot_pairs: Sequence[tuple[str, str]],
    slot_value: str,
    language: str,
    templates: PromptTemplates = PromptTemplates(),
) -> Prompt:
    """Line-per-pair prompt translating one slot value."""
    require_cross_lingual(templates, language)
    if not slot_value.strip():
        raise EmptyValue("cannot translate an empty slot value")
    if not anchor_slot_pairs:
        raise ContextArity("slot translation needs at least 1 anchor pair")
    shots = [(src, tgt, language) for src, tgt in anchor_slot_pairs]
    return Prompt(
        text=_render(Method.SLOT_MT, templates, shots, slot_value, language),
        method=Method.SLOT_MT,
        expected=PromptExpectation(
            language=language,
            source_text=slot_value,
            context_texts=tuple(x for pair in anchor_slot_pairs for x in pair),
        ),
        templates=templates,
    )


def build_sent_mt_prompt(
    anchor_sent_pair: tuple[str, str],
    text: str,
    language: str,
    templates: PromptTemplates = PromptTemplates(),
) -> Prompt:
    """One-shot sentence-translation prompt; outputs end with the terminator."""
    require_cross_lingual(templates, language)
    if not text.strip():
        raise EmptyValue("cannot translate empty text")
    src, tgt = anchor_sent_pair
    return Prompt(
        text=_render(Method.SENT_MT, templates, [(src, tgt, language)], text, language),
        method=Method.SENT_MT,
        expected=PromptExpectation(
            language=language,
            source_text=text,
            context_texts=anchor_sent_pair,
        ),
        templates=templates,
    )


def split_generation(
    method: Method, raw_output: str, templates: PromptTemplates = PromptTemplates()
) -> SplitCandidate:
    """Invert the continuation format: extract text and/or parse fields.

    Raises InvalidSeparators when ';' or '=>' is missing, misplaced, or
    duplicated for the method's expected shape.
    """
    t = templates
    raw = raw_output.strip()
    if raw.count(t.terminator) != 1 or not raw.endswith(t.terminator):
        raise InvalidSeparators(f"expected exactly one trailing {t.terminator!r}")
    body = raw[: -len(t.terminator)].strip()
    if not METHODS[method].pair:
        if t.arrow in body:
            raise InvalidSeparators(f"unexpected {t.arrow!r} in text-only output")
        return SplitCandidate(text=body)
    parts = body.split(t.arrow)
    if len(parts) != 2:
        raise InvalidSeparators(
            f"expected exactly one {t.arrow!r}, found {len(parts) - 1}"
        )
    parse_text = parts[0].strip()
    right = parts[1].strip()
    # The translation cue, with any language name and the spaces after it.
    label = "[^:]+".join(map(re.escape, t.translation_cue.split("{language}")))
    m = re.match(label + r"\s*", right)
    if m is None:
        raise InvalidSeparators("missing translation label after the arrow")
    if not parse_text:
        raise InvalidSeparators("empty parse before the arrow")
    return SplitCandidate(text=right[m.end() :].strip(), parse_text=parse_text)


def continuation_for(
    method: Method,
    *,
    text: str,
    parse_text: str | None = None,
    language: str = "en",
    templates: PromptTemplates = PromptTemplates(),
) -> str:
    """Render a well-formed model continuation (inverse of split_generation).

    The one renderer of the continuation format: every prompt example and
    the mock's outputs are its output."""
    t = templates
    if not METHODS[method].pair:
        return f"{text}{t.terminator}"
    if parse_text is None:
        raise ValueError(f"{method.value} continuations need a parse")
    return f"{parse_text}\n{t.arrow} {t.tcue(language)} {text}{t.terminator}"
