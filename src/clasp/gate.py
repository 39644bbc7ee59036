"""Validation and recovery of generated candidates, plus success statistics.

Two validation principles drive everything: the parse must be well formed
(VP1), and every leaf-slot value in the parse must appear contiguously in
the text (VP2). Candidates failing heuristic checks are discarded; for the
cross-lingual methods two recovery passes (slot n-best substitution and
casing repair) can rescue a missing-slot candidate before it is dropped.
When no candidate of a prompt survives, a fallback example is duplicated
from the prompt so the per-class distribution of the emitted dataset
matches the input task list.

Failure modes are non-mutually exclusive: one candidate may carry several,
so occurrence percentages can sum above 100.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Mapping, Sequence

from .backends import GenOutput
from .canonical import SlotCatalog, contains_catalog_word
from .datasets import Example, class_key
from .prompts import (
    InvalidSeparators,
    Method,
    PromptExpectation,
    PromptTemplates,
    split_generation,
)
from .tables import EmptyEvents, format_table, pct
from .trees import (
    Dialect,
    ParseTree,
    SlotRef,
    TreeError,
    find_token_span,
    leaf_slots,
    match_slot_spans,
    parse as parse_tree,
    replace_slot,
    serialize,
    structure_signature,
)

MISSING_SLOT = "missing_slot"
UNTAGGED_SLOT = "untagged_slot"
INVALID_SEPARATORS = "invalid_separators"
COPY_EXAMPLE = "copy_example"
DUPLICATE_OUTPUT = "duplicate_output"
INVALID_PARSE = "invalid_parse"
UNKNOWN_ENTITY = "unknown_entity"
MISMATCH_PARSE = "mismatch_parse"

CLEAN = "clean"
SLOT_NBEST = "slot_nbest"
FIX_CASING = "fix_casing"

PIZZA_FAILURE_COLUMNS = (
    MISSING_SLOT,
    UNTAGGED_SLOT,
    INVALID_SEPARATORS,
    COPY_EXAMPLE,
    DUPLICATE_OUTPUT,
    INVALID_PARSE,
    UNKNOWN_ENTITY,
)
MTOP_FAILURE_COLUMNS = (
    MISSING_SLOT,
    COPY_EXAMPLE,
    INVALID_SEPARATORS,
    INVALID_PARSE,
    MISMATCH_PARSE,
)
SUCCESS_MODES = (CLEAN, SLOT_NBEST, FIX_CASING)

# Structurally impossible columns, rendered as dashes: replace-slots never
# generates a parse, translate-slots receives its parse ready-made.
_IMPOSSIBLE = {
    "rs": {INVALID_PARSE, UNKNOWN_ENTITY},
    "ts": {INVALID_PARSE, MISMATCH_PARSE},
}


class GateError(ValueError):
    pass


@dataclass(frozen=True)
class GateVerdict:
    status: str  # "clean" | "recovered" | "failed"
    failure_modes: frozenset[str] = frozenset()
    recovery: str | None = None  # "slot_nbest" | "fix_casing"
    final: Example | None = None

    @property
    def ok(self) -> bool:
        return self.status != "failed"


@dataclass(frozen=True)
class GateEvent:
    """Per-prompt record feeding the statistics tables."""

    method: str
    language: str
    input_id: str
    candidate_modes: tuple[frozenset[str], ...]
    success_mode: str | None


@dataclass(frozen=True)
class SlotNBestMap:
    """Beam-ranked translation alternatives per (English value, language)."""

    entries: tuple[tuple[tuple[str, str], tuple[str, ...]], ...] = ()

    @classmethod
    def from_mapping(
        cls, mapping: Mapping[str, Mapping[str, Sequence[str]]]
    ) -> "SlotNBestMap":
        """Build from {language: {english_value: [candidates...]}}."""
        entries = []
        for lang, values in mapping.items():
            for en_value, candidates in values.items():
                deduped = tuple(dict.fromkeys(candidates))
                if deduped:
                    entries.append(((en_value, lang), deduped))
        return cls(tuple(entries))

    @classmethod
    def load(cls, path: str | Path) -> "SlotNBestMap":
        with open(path, encoding="utf-8") as fh:
            return cls.from_mapping(json.load(fh))

    def to_mapping(self) -> dict[str, dict[str, list[str]]]:
        out: dict[str, dict[str, list[str]]] = {}
        for (en_value, lang), candidates in self.entries:
            out.setdefault(lang, {})[en_value] = list(candidates)
        return out

    def top(self, en_value: str, language: str) -> str | None:
        for (value, lang), candidates in self.entries:
            if value == en_value and lang == language:
                return candidates[0]
        return None

    def alternatives(self, current_value: str, language: str) -> tuple[str, ...]:
        """Beam-ordered variants of the list containing ``current_value``."""
        for (_, lang), candidates in self.entries:
            if lang == language and current_value in candidates:
                return candidates
        return ()


def check_vp2(parse: ParseTree, text: str) -> list[SlotRef]:
    """Leaf slots whose value is not a contiguous token run of ``text``."""
    tokens = text.split()
    return [
        ref
        for ref in leaf_slots(parse)
        if find_token_span(tokens, ref.value) is None
    ]


def recover_slot_nbest(
    parse: ParseTree, text: str, nbest: SlotNBestMap, language: str
) -> ParseTree | None:
    """Swap missing slot values for n-best alternatives found in the text.

    Every missing slot must be repaired for the recovery to count; the
    first alternative (beam order) occurring contiguously wins.
    """
    tokens = text.split()
    repaired = parse
    for ref in check_vp2(parse, text):
        chosen = None
        for alt in nbest.alternatives(ref.value_text, language):
            if alt != ref.value_text and find_token_span(tokens, alt.split()):
                chosen = alt
                break
        if chosen is None:
            return None
        repaired = replace_slot(repaired, ref, chosen.split())
    return repaired if repaired is not parse else None


def recover_fix_casing(parse: ParseTree, text: str) -> ParseTree | None:
    """Replace missing slot values with a case-variant found in the text."""
    tokens = text.split()
    repaired = parse
    for ref in check_vp2(parse, text):
        span = find_token_span(tokens, ref.value, casefold=True)
        if span is None:
            return None
        repaired = replace_slot(repaired, ref, tokens[span[0] : span[1]])
    return repaired if repaired is not parse else None


def _split_or_mode(
    method: Method, raw: str, templates: PromptTemplates | None
):
    try:
        return split_generation(method, raw, templates), None
    except InvalidSeparators:
        return None, INVALID_SEPARATORS


def _untagged(
    text: str, parse: ParseTree, catalog: SlotCatalog
) -> bool:
    """True when the text mentions a catalog value that no slot tags.

    Each leaf slot is bound to a token span as ``bind_slot_spans`` does
    (leftmost unused run, depth-first), lower-cased like
    ``contains_catalog_word``; slots that cannot be bound are skipped, as
    the missing-slot check reports them. A maximal catalog match is
    untagged when its span lies inside no bound slot span, unless its value
    is one of the catalog's function words ("can you ...", "thanks a lot").
    """
    bound = [
        span
        for _, span in match_slot_spans(parse, text.split(), lower=True)
        if span is not None
    ]
    return any(
        m.value.lower() not in catalog.function_words
        and not any(a <= m.span[0] and m.span[1] <= b for a, b in bound)
        for m in contains_catalog_word(text, catalog)
    )


def gate_rs(
    candidates: Sequence[GenOutput],
    expected_parse: ParseTree,
    prompt_texts: Sequence[str],
    catalog: SlotCatalog,
    *,
    input_id: str = "",
    language: str = "en",
    templates: PromptTemplates | None = None,
) -> tuple[GateVerdict, GateEvent]:
    """Gate one replace-slots candidate batch and pick the best survivor."""
    return _gate_pizza(
        Method.REPLACE_SLOTS,
        candidates,
        prompt_texts,
        catalog,
        expected_parse=expected_parse,
        input_id=input_id,
        language=language,
        templates=templates,
    )


def gate_gb(
    candidates: Sequence[GenOutput],
    prompt_texts: Sequence[str],
    catalog: SlotCatalog,
    *,
    input_id: str = "",
    language: str = "en",
    dialect: Dialect = Dialect.PIZZA_PAREN,
    templates: PromptTemplates | None = None,
) -> tuple[GateVerdict, GateEvent]:
    """Gate one generate-both batch; the parse itself is also validated."""
    return _gate_pizza(
        Method.GENERATE_BOTH,
        candidates,
        prompt_texts,
        catalog,
        expected_parse=None,
        input_id=input_id,
        language=language,
        dialect=dialect,
        templates=templates,
    )


def _gate_pizza(
    method: Method,
    candidates: Sequence[GenOutput],
    prompt_texts: Sequence[str],
    catalog: SlotCatalog,
    *,
    expected_parse: ParseTree | None,
    input_id: str,
    language: str,
    dialect: Dialect = Dialect.PIZZA_PAREN,
    templates: PromptTemplates | None = None,
) -> tuple[GateVerdict, GateEvent]:
    prompt_set = {t.strip() for t in prompt_texts}
    seen_raw: set[str] = set()
    all_modes: list[frozenset[str]] = []
    survivors: list[tuple[int, GenOutput, str, ParseTree]] = []
    for i, out in enumerate(candidates):
        modes: set[str] = set()
        cand, sep_mode = _split_or_mode(method, out.text, templates)
        text = cand.text if cand else None
        tree = expected_parse
        if sep_mode:
            modes.add(sep_mode)
        elif method is Method.GENERATE_BOTH:
            try:
                tree = parse_tree(cand.parse_text or "", dialect)
            except TreeError:
                tree = None
                modes.add(INVALID_PARSE)
        if text is not None and tree is not None:
            if check_vp2(tree, text):
                modes.add(MISSING_SLOT)
            if _untagged(text, tree, catalog):
                modes.add(UNTAGGED_SLOT)
            if method is Method.GENERATE_BOTH and any(
                not catalog.has_value(ref.slot_label, ref.value_text)
                for ref in leaf_slots(tree)
            ):
                modes.add(UNKNOWN_ENTITY)
        if text is not None and text.strip() in prompt_set:
            modes.add(COPY_EXAMPLE)
        raw_key = out.text.strip()
        if raw_key in seen_raw:
            modes.add(DUPLICATE_OUTPUT)
        seen_raw.add(raw_key)
        all_modes.append(frozenset(modes))
        if not modes and text is not None and tree is not None:
            survivors.append((i, out, text, tree))

    if survivors:
        i, out, text, tree = min(survivors, key=lambda s: (s[1].score, s[0]))
        final = Example(
            id=input_id,
            lang=language,
            text=text,
            parse=serialize(tree),
            source=f"clasp-{method.value}",
        )
        verdict = GateVerdict(status="clean", final=final)
        success = CLEAN
    else:
        union = frozenset().union(*all_modes) if all_modes else frozenset()
        verdict = GateVerdict(status="failed", failure_modes=union)
        success = None
    event = GateEvent(
        method=method.value,
        language=language,
        input_id=input_id,
        candidate_modes=tuple(all_modes),
        success_mode=success,
    )
    return verdict, event


def gate_mtop(
    method: Method | str,
    candidate: GenOutput,
    expected: PromptExpectation,
    nbest: SlotNBestMap,
    *,
    input_id: str = "",
    language: str | None = None,
    templates: PromptTemplates | None = None,
) -> tuple[GateVerdict, GateEvent]:
    """Gate one cross-lingual candidate, attempting both recovery passes.

    Translate-slots candidates are text-only (the parse was supplied), so
    invalid-parse and mismatch-parse cannot occur for them. Recovery order
    on a missing slot: n-best substitution first, then casing repair.
    """
    method = Method(method)
    if method not in (Method.TRANSLATE_SLOTS, Method.TRANSLATE_BOTH):
        raise GateError(f"gate_mtop handles ts/tb, not {method.value}")
    lang = language or expected.language
    modes: set[str] = set()
    recovery: str | None = None
    tree: ParseTree | None = None
    cand, sep_mode = _split_or_mode(method, candidate.text, templates)
    text = cand.text if cand else None
    if sep_mode:
        modes.add(sep_mode)
    elif method is Method.TRANSLATE_SLOTS:
        tree = parse_tree(expected.target_parse or "", Dialect.MTOP_BRACKET)
    else:
        try:
            tree = parse_tree(cand.parse_text or "", Dialect.MTOP_BRACKET)
            if structure_signature(tree) != expected.source_signature:
                modes.add(MISMATCH_PARSE)
        except TreeError:
            tree = None
            modes.add(INVALID_PARSE)
    if text is not None and text.strip() in {
        t.strip() for t in expected.context_texts
    }:
        modes.add(COPY_EXAMPLE)
    if text is not None and tree is not None and check_vp2(tree, text):
        repaired = recover_slot_nbest(tree, text, nbest, lang)
        if repaired is not None:
            tree, recovery = repaired, SLOT_NBEST
        else:
            repaired = recover_fix_casing(tree, text)
            if repaired is not None:
                tree, recovery = repaired, FIX_CASING
            else:
                modes.add(MISSING_SLOT)
    if modes:
        verdict = GateVerdict(status="failed", failure_modes=frozenset(modes))
        success = None
    else:
        final = Example(
            id=input_id,
            lang=lang,
            text=text or "",
            parse=serialize(tree) if tree else "",
            source=f"clasp-{method.value}",
        )
        status = "recovered" if recovery else "clean"
        verdict = GateVerdict(status=status, recovery=recovery, final=final)
        success = recovery or CLEAN
    event = GateEvent(
        method=method.value,
        language=lang,
        input_id=input_id,
        candidate_modes=(frozenset(modes),),
        success_mode=success,
    )
    return verdict, event


def fallback(
    prompt_examples: Sequence[Example], class_label: str | None, seed: int
) -> Example:
    """Duplicate a prompt example back into the training set.

    Prefers examples of the requested class so the per-class distribution
    of the emitted dataset stays equal to that of the task list.
    """
    if not prompt_examples:
        raise GateError("fallback needs at least one prompt example")
    pool = [
        ex
        for ex in prompt_examples
        if class_label is None or class_key(ex.parse) == class_label
    ] or list(prompt_examples)
    pick = random.Random(seed).choice(pool)
    return replace(pick, source="fallback")


@dataclass(frozen=True)
class GateStatsRow:
    method: str
    language: str
    inputs: int
    outputs: int
    success_rate_inputs: float
    success_rate_outputs: float
    success_modes: Mapping[str, float]
    failure_modes: Mapping[str, float | None]

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "language": self.language,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "success_rate_inputs": self.success_rate_inputs,
            "success_rate_outputs": self.success_rate_outputs,
            "success_modes": dict(self.success_modes),
            "failure_modes": dict(self.failure_modes),
        }


@dataclass(frozen=True)
class GateStats:
    rows: tuple[GateStatsRow, ...]

    def row(self, method: str, language: str) -> GateStatsRow:
        for r in self.rows:
            if r.method == method and r.language == language:
                return r
        raise KeyError((method, language))

    def to_record(self) -> dict:
        return {"kind": "gate_stats", "rows": [r.to_dict() for r in self.rows]}

    @classmethod
    def from_record(cls, record: Mapping) -> "GateStats":
        return cls(tuple(GateStatsRow(**r) for r in record["rows"]))

    def to_table(self) -> str:
        pizza = [r for r in self.rows if r.method in ("rs", "gb")]
        mtop = [r for r in self.rows if r.method in ("ts", "tb")]
        parts = []
        if pizza:
            headers = ["method", "SR inputs", "SR outputs"] + [
                _title(m) for m in PIZZA_FAILURE_COLUMNS
            ]
            rows = [
                [r.method, pct(r.success_rate_inputs), pct(r.success_rate_outputs)]
                + [pct(r.failure_modes.get(m)) for m in PIZZA_FAILURE_COLUMNS]
                for r in pizza
            ]
            parts.append(format_table(headers, rows))
        if mtop:
            headers = (
                ["method", "lang", "success rate"]
                + [_title(m) for m in SUCCESS_MODES]
                + [_title(m) for m in MTOP_FAILURE_COLUMNS]
            )
            rows = [
                [r.method, r.language, pct(r.success_rate_inputs)]
                + [pct(r.success_modes.get(m)) for m in SUCCESS_MODES]
                + [pct(r.failure_modes.get(m)) for m in MTOP_FAILURE_COLUMNS]
                for r in mtop
            ]
            parts.append(format_table(headers, rows))
        return "\n".join(parts)


def _title(mode: str) -> str:
    return mode.replace("_", " ")


def compile_stats(events: Sequence[GateEvent]) -> GateStats:
    """Aggregate gate events into per-(method, language) percentage rows.

    Percentages are rounded to one decimal. Cross-lingual methods get an
    extra ``avg`` row averaging the per-language rates; failure-mode cells
    are left blank there, matching how such tables are usually reported.
    """
    if not events:
        raise EmptyEvents("no gate events to compile")
    groups: dict[tuple[str, str], list[GateEvent]] = {}
    for ev in events:
        groups.setdefault((ev.method, ev.language), []).append(ev)
    rows: list[GateStatsRow] = []
    by_method: dict[str, list[GateStatsRow]] = {}
    for (method, language), evs in sorted(groups.items()):
        row = _stats_row(method, language, evs)
        rows.append(row)
        by_method.setdefault(method, []).append(row)
    for method, mrows in by_method.items():
        if len(mrows) > 1:
            rows.append(_avg_row(method, mrows))
    return GateStats(tuple(rows))


def _failure_columns(method: str) -> tuple[str, ...]:
    return PIZZA_FAILURE_COLUMNS if method in ("rs", "gb") else MTOP_FAILURE_COLUMNS


def _stats_row(
    method: str, language: str, events: Sequence[GateEvent]
) -> GateStatsRow:
    inputs = len(events)
    outputs = sum(len(ev.candidate_modes) for ev in events)
    ok_inputs = sum(1 for ev in events if ev.success_mode is not None)
    ok_outputs = sum(
        sum(1 for modes in ev.candidate_modes if not modes) for ev in events
    )
    success_modes = {
        mode: round(
            100.0 * sum(1 for ev in events if ev.success_mode == mode) / inputs, 1
        )
        for mode in SUCCESS_MODES
    }
    impossible = _IMPOSSIBLE.get(method, set())
    failure_modes: dict[str, float | None] = {}
    for mode in _failure_columns(method):
        if mode in impossible:
            failure_modes[mode] = None
            continue
        count = sum(
            sum(1 for modes in ev.candidate_modes if mode in modes)
            for ev in events
        )
        failure_modes[mode] = round(100.0 * count / outputs, 1) if outputs else 0.0
    return GateStatsRow(
        method=method,
        language=language,
        inputs=inputs,
        outputs=outputs,
        success_rate_inputs=round(100.0 * ok_inputs / inputs, 1),
        success_rate_outputs=round(100.0 * ok_outputs / outputs, 1)
        if outputs
        else 0.0,
        success_modes=success_modes,
        failure_modes=failure_modes,
    )


def _avg_row(method: str, rows: Sequence[GateStatsRow]) -> GateStatsRow:
    k = len(rows)
    return GateStatsRow(
        method=method,
        language="avg",
        inputs=sum(r.inputs for r in rows),
        outputs=sum(r.outputs for r in rows),
        success_rate_inputs=round(sum(r.success_rate_inputs for r in rows) / k, 1),
        success_rate_outputs=round(sum(r.success_rate_outputs for r in rows) / k, 1),
        success_modes={
            mode: round(sum(r.success_modes.get(mode, 0.0) for r in rows) / k, 1)
            for mode in SUCCESS_MODES
        },
        failure_modes={mode: None for mode in _failure_columns(method)},
    )
