"""Validation and recovery of generated candidates, plus success statistics.

Two validation principles drive everything: the parse must be well formed
(VP1), and every leaf-slot value in the parse must appear contiguously in
the text (VP2). ``gate_rs``, ``gate_gb`` and ``gate_mtop`` (ts, tb) run one
candidate loop, ``_gate``, which checks each candidate in this order:

1. invalid separators: the output does not split;
2. invalid parse (gb, tb; rs and ts are given theirs): the generated parse
   is not well formed; mismatch parse (tb): its structure is not the
   source's;
3. copy example: the text is one of the prompt's context texts;
4. missing slot: a slot does not bind (VP2) even after, for ts and tb,
   slot n-best substitution and then casing repair;
5. untagged slot (rs, gb): the text names a catalog value no slot tags;
   unknown entity (gb): a slot value is not in the catalog;
6. duplicate output: the same raw output came earlier in the batch.

A recovery clears no other mode. Of the candidates with no mode the
lowest score wins, the earliest on a tie. When none survives, the caller
duplicates a prompt example back into the training set, tagged by
``fallback``: rs, ts and tb re-emit the task's own row, which keeps the
per-class distribution of the emitted dataset that of the input task
list, and gb draws one of its context rows with the task seed.

Every check takes its slot spans from ``trees.bind_slot_spans`` (see
``trees``): VP2 binds exact case, so two slots with the value "a" need two
"a"s; the untagged check binds case-folded, and casing repair keeps the
exact spans and binds only the missing slots, case-folded, over the free
tokens. A recovery counts only if its tree passes VP2, and both passes
take the loop's one exact binding.

Failure modes are non-mutually exclusive: one candidate may carry several,
so occurrence percentages can sum above 100.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Mapping, Sequence

from .backends import GenOutput
from .canonical import SlotCatalog, contains_catalog_word
from .datasets import Example, RecordRows
from .prompts import (
    METHODS,
    InvalidSeparators,
    Method,
    PromptExpectation,
    PromptTemplates,
    split_generation,
)
from .tables import EmptyEvents, format_table, pct, rate
from .trees import (
    ParseTree,
    SlotRef,
    TreeError,
    bind_slot_spans,
    leaf_slots,
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

# The failure-mode columns of each family's stats table, in table order.
FAILURE_COLUMNS = {
    "pizza": (MISSING_SLOT, UNTAGGED_SLOT, INVALID_SEPARATORS, COPY_EXAMPLE,
              DUPLICATE_OUTPUT, INVALID_PARSE, UNKNOWN_ENTITY),
    "mtop": (MISSING_SLOT, COPY_EXAMPLE, INVALID_SEPARATORS, INVALID_PARSE,
             MISMATCH_PARSE),
}
SUCCESS_MODES = (CLEAN, SLOT_NBEST, FIX_CASING)

# A method whose continuation carries no parse is given its parse, so no
# generated parse can be invalid, mismatch the source or name an unknown
# entity; these columns render as dashes for it.
_GENERATED_PARSE_MODES = frozenset({INVALID_PARSE, MISMATCH_PARSE, UNKNOWN_ENTITY})


class GateError(ValueError):
    pass


@dataclass(frozen=True)
class GateVerdict:
    """The row a batch emits: its best survivor, or None when every
    candidate failed. What made it pass or fail is in the ``GateEvent``
    returned beside it (``bench/tracer.py`` reads ``final`` here)."""

    final: Example | None


@dataclass(frozen=True)
class GateEvent:
    """Per-prompt record feeding the statistics tables."""

    method: str
    language: str
    candidate_modes: tuple[frozenset[str], ...]
    success_mode: str | None


class SlotNBestMap(RecordRows):
    """Beam-ranked translation alternatives per (English value, language):
    a view of a JSON-lines file of rows ``{"language", "value",
    "candidates"}``, each a list of strings, where an empty list records a
    value that was translated but got no candidate.

    The view is keyed by each row's (language, value) and by each
    (language, candidate) it holds, so it holds about 60 bytes a row of
    four candidates, and a lookup rereads only the rows of its key (see
    ``datasets.RecordRows``). A row of the wrong shape ends the read with
    a ``RowMalformed`` naming ``<path>:<line>``.
    """

    def __init__(self, path: str | Path) -> None:
        super().__init__(path, ("language", "value", "candidates"), key=_nbest_keys)

    def candidates(self, en_value: str, language: str) -> list[str] | None:
        """The candidates of the last row of (``language``, ``en_value``):
        a later row of one pair replaces an earlier one, as in every lookup
        by key. None when no row holds that pair."""
        found = None
        for j in self._positions((language, en_value)):
            record = self._record(j)
            if record["value"] == en_value and record["language"] == language:
                found = record["candidates"]
        return found

    def top(self, en_value: str, language: str) -> str | None:
        candidates = self.candidates(en_value, language)
        return candidates[0] if candidates else None

    def alternatives(self, current_value: str, language: str) -> tuple[str, ...]:
        """Beam-ordered variants of the first row, in file order, whose
        candidates hold ``current_value``, each once."""
        for j in self._positions((language, current_value)):
            record = self._record(j)
            if record["language"] == language and current_value in record["candidates"]:
                return tuple(dict.fromkeys(record["candidates"]))
        return ()


def _nbest_keys(record) -> tuple[tuple[str, str], ...]:
    """The keys of a slot n-best row: each (language, candidate), and its
    (language, value) unless a candidate is the value itself. A field of
    the wrong type is a ``ValueError``."""
    language, value, candidates = record["language"], record["value"], record["candidates"]
    if not isinstance(language, str) or not isinstance(value, str):
        raise ValueError(
            f"language and value must be strings, got {language!r} and {value!r}"
        )
    if not isinstance(candidates, list) or not all(map(_is_str, candidates)):
        raise ValueError(f"candidates must be a list of strings, got {candidates!r}")
    keys = zip(repeat(language), candidates)
    return tuple(keys) if value in candidates else ((language, value), *keys)


_is_str = str.__instancecheck__


# What ``trees.bind_slot_spans`` returns: each leaf slot with its span.
Binding = list[tuple[SlotRef, tuple[int, int] | None]]


def check_vp2(parse: ParseTree, text: str) -> list[SlotRef]:
    """Leaf slots that get no span of their own in ``text`` (exact case)."""
    return _unbound(bind_slot_spans(parse, text.split()))


def _unbound(binding: Binding) -> list[SlotRef]:
    return [ref for ref, span in binding if span is None]


def recover_slot_nbest(
    parse: ParseTree,
    text: str,
    nbest: SlotNBestMap,
    language: str,
    binding: Binding | None = None,
) -> ParseTree | None:
    """Swap missing slot values for n-best alternatives found in the text.

    Each missing slot, depth-first, takes the first alternative (beam
    order) with which it binds; the tree counts only if every slot binds.
    ``binding`` is the exact binding of ``parse`` over ``text``, if the
    caller has it.
    """
    if binding is None:
        binding = bind_slot_spans(parse, text.split())
    missing = _unbound(binding)
    words = set(text.split())
    repaired, left = parse, missing
    for ref in missing:
        for alt in nbest.alternatives(ref.value_text, language):
            # A word the text lacks rules an alternative out without a trial.
            if alt == ref.value_text or not words.issuperset(alt.split()):
                continue
            trial = replace_slot(repaired, ref, alt.split())
            left = check_vp2(trial, text)
            if all(r.path != ref.path for r in left):
                repaired = trial
                break
        else:
            return None
    # ``left`` is what the last accepted trial, the repaired tree, misses.
    return repaired if missing and not left else None


def recover_fix_casing(
    parse: ParseTree, text: str, binding: Binding | None = None
) -> ParseTree | None:
    """Give each missing slot the tokens it binds case-folded, over the
    tokens the exactly bound slots leave free; the repaired tree is
    returned only if every slot then binds exactly. ``binding`` is the
    exact binding of ``parse`` over ``text``, if the caller has it."""
    tokens = text.split()
    if binding is None:
        binding = bind_slot_spans(parse, tokens)
    if not _unbound(binding):
        return None
    repaired = parse
    for (ref, exact), (_, span) in zip(
        binding, bind_slot_spans(parse, tokens, fold=True, bound=binding)
    ):
        if exact is None and span is not None:
            repaired = replace_slot(repaired, ref, tokens[span[0] : span[1]])
    return None if check_vp2(repaired, text) else repaired


def _untagged(
    text: str, parse: ParseTree, catalog: SlotCatalog
) -> bool:
    """True when the text mentions a catalog value that no slot tags.

    Slots are bound case-folded, as ``contains_catalog_word`` matches;
    unbound slots are skipped, since the missing-slot check reports them.
    A maximal catalog match is untagged when its span lies inside no bound
    span, unless its value is one of the catalog's function words ("can
    you ...", "thanks a lot").
    """
    binding = bind_slot_spans(parse, text.split(), fold=True)
    bound = [span for _, span in binding if span is not None]
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
    templates: PromptTemplates = PromptTemplates(),
) -> tuple[GateVerdict, GateEvent]:
    """Gate one replace-slots candidate batch and pick the best survivor."""
    return _gate(
        Method.REPLACE_SLOTS, candidates, prompt_texts, expected_parse,
        catalog=catalog, input_id=input_id, language=language, templates=templates,
    )


def gate_gb(
    candidates: Sequence[GenOutput],
    prompt_texts: Sequence[str],
    catalog: SlotCatalog,
    *,
    input_id: str = "",
    language: str = "en",
    templates: PromptTemplates = PromptTemplates(),
) -> tuple[GateVerdict, GateEvent]:
    """Gate one generate-both batch; the parse itself is also validated."""
    return _gate(
        Method.GENERATE_BOTH, candidates, prompt_texts, None,
        catalog=catalog, input_id=input_id, language=language, templates=templates,
    )


def gate_mtop(
    method: Method | str,
    candidates: Sequence[GenOutput],
    expected: PromptExpectation,
    nbest: SlotNBestMap,
    *,
    input_id: str = "",
    language: str | None = None,
    templates: PromptTemplates = PromptTemplates(),
) -> tuple[GateVerdict, GateEvent]:
    """Gate one cross-lingual candidate batch, attempting both recovery
    passes on each candidate.

    Translate-slots candidates are text-only (the parse was supplied), so
    invalid-parse and mismatch-parse cannot occur for them. Recovery order
    on a missing slot: n-best substitution first, then casing repair.
    """
    method = Method(method)
    spec = METHODS[method]
    if spec.family != "mtop" or spec.dialect is None:
        raise GateError(f"gate_mtop handles ts/tb, not {method.value}")
    given, signature = None, expected.source_signature
    if not spec.pair:
        given, signature = parse_tree(expected.target_parse or "", spec.dialect), None
    return _gate(
        method, candidates, expected.context_texts, given,
        signature=signature, nbest=nbest, input_id=input_id,
        language=language or expected.language, templates=templates,
    )


def _gate(
    method: Method,
    candidates: Sequence[GenOutput],
    context_texts: Sequence[str],
    given: ParseTree | None,
    *,
    signature: str | None = None,
    catalog: SlotCatalog | None = None,
    nbest: SlotNBestMap | None = None,
    input_id: str,
    language: str,
    templates: PromptTemplates,
) -> tuple[GateVerdict, GateEvent]:
    """The loop of the module docstring. ``given`` is the rs/ts parse; a
    ``signature`` turns the mismatch check on (tb), an ``nbest`` map
    recovery (ts/tb), a ``catalog`` its checks."""
    spec = METHODS[method]
    copies = {t.strip() for t in context_texts}
    seen_raw: set[str] = set()
    all_modes: list[frozenset[str]] = []
    survivors: list[tuple[float, int, str, ParseTree, str | None]] = []
    for i, out in enumerate(candidates):
        modes: set[str] = set()
        text, tree, recovery = None, given, None
        try:
            cand = split_generation(method, out.text, templates)
        except InvalidSeparators:
            modes.add(INVALID_SEPARATORS)
        else:
            text = cand.text
            if spec.pair:
                try:
                    tree = parse_tree(cand.parse_text or "", spec.dialect)
                except TreeError:
                    tree = None
                    modes.add(INVALID_PARSE)
            if tree is not None and signature is not None:
                if structure_signature(tree) != signature:
                    modes.add(MISMATCH_PARSE)
            if text.strip() in copies:
                modes.add(COPY_EXAMPLE)
        if text is not None and tree is not None:
            binding = bind_slot_spans(tree, text.split())
            if _unbound(binding):
                if nbest is None:
                    modes.add(MISSING_SLOT)
                elif repaired := recover_slot_nbest(
                    tree, text, nbest, language, binding
                ):
                    tree, recovery = repaired, SLOT_NBEST
                elif repaired := recover_fix_casing(tree, text, binding):
                    tree, recovery = repaired, FIX_CASING
                else:
                    modes.add(MISSING_SLOT)
            if catalog is not None:
                if _untagged(text, tree, catalog):
                    modes.add(UNTAGGED_SLOT)
                if given is None and any(
                    not catalog.has_value(ref.slot_label, ref.value_text)
                    for ref in leaf_slots(tree)
                ):
                    modes.add(UNKNOWN_ENTITY)
        raw_key = out.text.strip()
        if raw_key in seen_raw:
            modes.add(DUPLICATE_OUTPUT)
        seen_raw.add(raw_key)
        all_modes.append(frozenset(modes))
        if not modes:
            survivors.append((out.score, i, text, tree, recovery))

    final, success = None, None
    if survivors:
        # The lowest score wins, the earliest candidate on a tie.
        _, _, text, tree, recovery = min(survivors, key=lambda s: s[:2])
        final = Example(
            input_id, language, text, serialize(tree), f"clasp-{method.value}"
        )
        success = recovery or CLEAN
    event = GateEvent(method.value, language, tuple(all_modes), success)
    return GateVerdict(final), event


def fallback(example: Example) -> Example:
    """``example`` duplicated back into the training set, tagged
    ``source="fallback"``."""
    return replace(example, source="fallback")


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
        return asdict(self)


@dataclass(frozen=True)
class GateStats:
    rows: tuple[GateStatsRow, ...]

    def to_record(self) -> dict:
        return {"kind": "gate_stats", "rows": [r.to_dict() for r in self.rows]}

    @classmethod
    def from_record(cls, record: Mapping) -> "GateStats":
        return cls(tuple(GateStatsRow(**r) for r in record["rows"]))

    def to_table(self) -> str:
        """One table per family, pizza first."""
        families = [_family(r.method) for r in self.rows]
        parts = []
        for family, columns in FAILURE_COLUMNS.items():
            rows = [r for r, f in zip(self.rows, families) if f == family]
            if not rows:
                continue
            if family == "pizza":
                headers = ["method", "SR inputs", "SR outputs"]
                cells = [[r.method, pct(r.success_rate_inputs),
                          pct(r.success_rate_outputs)] for r in rows]
            else:
                headers = ["method", "lang", "success rate", *SUCCESS_MODES]
                cells = [[r.method, r.language, pct(r.success_rate_inputs)]
                         + [pct(r.success_modes.get(m)) for m in SUCCESS_MODES]
                         for r in rows]
            parts.append(format_table(
                [h.replace("_", " ") for h in [*headers, *columns]],
                [c + [pct(r.failure_modes.get(m)) for m in columns]
                 for c, r in zip(cells, rows)],
            ))
        return "\n".join(parts)


def _family(method: str) -> str:
    family = METHODS[Method(method)].family
    if family is None:
        raise ValueError(f"method {method!r} has no stats table")
    return family


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


def _stats_row(
    method: str, language: str, events: Sequence[GateEvent]
) -> GateStatsRow:
    inputs = len(events)
    candidates = [modes for ev in events for modes in ev.candidate_modes]
    outputs = len(candidates)
    impossible = () if METHODS[Method(method)].pair else _GENERATED_PARSE_MODES
    return GateStatsRow(
        method=method,
        language=language,
        inputs=inputs,
        outputs=outputs,
        success_rate_inputs=rate(
            sum(ev.success_mode is not None for ev in events), inputs
        ),
        success_rate_outputs=rate(sum(not modes for modes in candidates), outputs),
        success_modes={
            mode: rate(sum(ev.success_mode == mode for ev in events), inputs)
            for mode in SUCCESS_MODES
        },
        failure_modes={
            mode: None
            if mode in impossible
            else rate(sum(mode in modes for modes in candidates), outputs)
            for mode in FAILURE_COLUMNS[_family(method)]
        },
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
        failure_modes={mode: None for mode in FAILURE_COLUMNS[_family(method)]},
    )
