"""Project an English parse onto a translated sentence via word alignment.

Each leaf slot's target span is the sorted union of the target indices its
source tokens align to. Projections are filtered: a slot token with no
aligned target word (missing slot value), a non-consecutive target span
(discontiguous target, which also covers two slots claiming the same
target token), a translation equal to the source (copy original), and,
for LLM-translated outputs, continuations carrying the literal marker
word "Sentence" or missing the prompted trailing semicolon.
"""

from __future__ import annotations

import re
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

from .datasets import Example
from .tables import EmptyEvents, format_table, pct, rate
from .trees import (
    Dialect,
    ParseTree,
    UnmatchableSlot,
    bind_slot_spans,
    parse as parse_tree,
    replace_slot,
)

MISSING_SLOT_VALUE = "missing_slot_value"
DISCONTIGUOUS_TARGET = "discontiguous_target"
COPY_ORIGINAL = "copy_original"
CONTAINS_SENTENCE = "contains_sentence"

FAILURE_COLUMNS = (
    MISSING_SLOT_VALUE,
    DISCONTIGUOUS_TARGET,
    COPY_ORIGINAL,
    CONTAINS_SENTENCE,
)

_MARKER_RE = re.compile(r"\bSentence\b")


class IndexOutOfBounds(ValueError):
    pass


@dataclass(frozen=True)
class WordAlignment:
    pairs: frozenset[tuple[int, int]]

    @classmethod
    def from_pairs(cls, pairs: Sequence[Sequence[int]]) -> "WordAlignment":
        return cls(frozenset((int(s), int(t)) for s, t in pairs))


@dataclass(frozen=True)
class ProjectionVerdict:
    failure_modes: frozenset[str] = frozenset()
    parse: ParseTree | None = None

    @property
    def ok(self) -> bool:
        return not self.failure_modes


def project_parse(
    en: Example, tgt_text: str, align: WordAlignment
) -> ProjectionVerdict:
    """Project the English example's parse onto ``tgt_text``.

    Sibling order of the parse is preserved; only leaf-slot values are
    replaced by their aligned target spans. Raises UnmatchableSlot when a
    slot gets no span of its own in the English text.
    """
    src_tokens = en.text.split()
    tgt_tokens = tgt_text.split()
    for s, t in align.pairs:
        if not (0 <= s < len(src_tokens) and 0 <= t < len(tgt_tokens)):
            raise IndexOutOfBounds(
                f"alignment pair ({s}, {t}) outside {len(src_tokens)}x{len(tgt_tokens)}"
            )
    src_to_tgt: dict[int, set[int]] = {}
    for s, t in align.pairs:
        src_to_tgt.setdefault(s, set()).add(t)

    tree = parse_tree(en.parse, Dialect.MTOP_BRACKET)
    modes: set[str] = set()
    if " ".join(tgt_tokens) == " ".join(src_tokens):
        modes.add(COPY_ORIGINAL)
    spans = []
    claimed: set[int] = set()
    for ref, span in bind_slot_spans(tree, src_tokens):
        if span is None:
            raise UnmatchableSlot(f"{ref.slot_label} {ref.value_text!r}")
        if any(s not in src_to_tgt for s in range(*span)):
            modes.add(MISSING_SLOT_VALUE)
            continue
        tgt_idxs = sorted({t for s in range(*span) for t in src_to_tgt[s]})
        if tgt_idxs != list(range(tgt_idxs[0], tgt_idxs[-1] + 1)):
            modes.add(DISCONTIGUOUS_TARGET)
            continue
        if claimed & set(tgt_idxs):
            modes.add(DISCONTIGUOUS_TARGET)
            continue
        claimed.update(tgt_idxs)
        spans.append((ref, tgt_idxs))
    if modes:
        return ProjectionVerdict(failure_modes=frozenset(modes))
    projected = tree
    for ref, tgt_idxs in spans:
        projected = replace_slot(projected, ref, [tgt_tokens[i] for i in tgt_idxs])
    return ProjectionVerdict(parse=projected)


def check_sentence_marker(raw_mt_output: str) -> bool:
    """True means reject: the output carries the marker word or does not
    end with the prompted semicolon."""
    if _MARKER_RE.search(raw_mt_output):
        return True
    return not raw_mt_output.strip().endswith(";")


@dataclass(frozen=True)
class MtStatsRow:
    language: str
    total: int
    success_rate: float
    failure_modes: Mapping[str, float | None]

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class MtStats:
    rows: tuple[MtStatsRow, ...]

    def to_record(self) -> dict:
        return {"kind": "mt_stats", "rows": [r.to_dict() for r in self.rows]}

    @classmethod
    def from_record(cls, record: Mapping) -> "MtStats":
        return cls(tuple(MtStatsRow(**r) for r in record["rows"]))

    def to_table(self) -> str:
        headers = ["lang", "success rate"] + [
            m.replace("_", " ") for m in FAILURE_COLUMNS
        ]
        rows = [
            [r.language, pct(r.success_rate)]
            + [pct(r.failure_modes.get(m)) for m in FAILURE_COLUMNS]
            for r in self.rows
        ]
        return format_table(headers, rows)


def mt_stats(verdicts: Sequence[tuple[str, ProjectionVerdict]]) -> MtStats:
    """Per-language success rate and failure-mode occurrence percentages."""
    if not verdicts:
        raise EmptyEvents("no projection verdicts")
    groups: dict[str, list[ProjectionVerdict]] = {}
    for lang, verdict in verdicts:
        groups.setdefault(lang, []).append(verdict)
    rows = []
    for lang, vs in sorted(groups.items()):
        failures: dict[str, float | None] = {
            mode: rate(sum(mode in v.failure_modes for v in vs), len(vs))
            for mode in FAILURE_COLUMNS
        }
        rows.append(
            MtStatsRow(
                language=lang,
                total=len(vs),
                success_rate=rate(sum(v.ok for v in vs), len(vs)),
                failure_modes=failures,
            )
        )
    if len(rows) > 1:
        rows.append(
            MtStatsRow(
                language="avg",
                total=sum(r.total for r in rows),
                success_rate=round(
                    sum(r.success_rate for r in rows) / len(rows), 1
                ),
                failure_modes={mode: None for mode in FAILURE_COLUMNS},
            )
        )
    return MtStats(tuple(rows))
