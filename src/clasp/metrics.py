"""Exact-match metrics for semantic parses and corpus-level aggregation.

Two matchers: unordered exact match (UEM), which treats trees as equal up
to sibling reordering, and space- and case-insensitive exact match
(SCIEM), which compares parse strings on a key that lower-cases value
tokens and drops all spacing while keeping IN:/SL: labels verbatim.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .tables import format_table, pct
from .trees import Dialect, ParseTree, TreeError, parse, unordered_normalize

DEFAULT_ZERO_SHOT_LANGS = ("de", "es", "fr", "hi")


class EmptyCorpus(ValueError):
    pass


def uem(hyp: ParseTree, ref: ParseTree) -> bool:
    """Tree equality up to arbitrary sibling reordering."""
    if hyp.dialect is not ref.dialect:
        raise ValueError("cannot compare trees from different dialects")
    return unordered_normalize(hyp) == unordered_normalize(ref)


def sciem_key(parse_string: str) -> str:
    """Comparison key: split on whitespace, keep label pieces verbatim,
    lower-case everything else, concatenate with no separators."""
    pieces = parse_string.strip().split()
    new_pieces = []
    for piece in pieces:
        if piece.startswith("[IN:") or piece.startswith("[SL:") or piece == "]":
            new_pieces.append(piece)
        else:
            new_pieces.append(piece.lower())
    return "".join(new_pieces)


def sciem(hyp: str, ref: str) -> bool:
    return sciem_key(hyp) == sciem_key(ref)


@dataclass(frozen=True)
class LangScore:
    total: int
    matched: int

    @property
    def accuracy(self) -> float:
        return 100.0 * self.matched / self.total


@dataclass(frozen=True)
class MetricReport:
    metric: str
    per_lang: Mapping[str, LangScore]
    zero_shot_langs: tuple[str, ...]

    @property
    def avg_zero_shot(self) -> float | None:
        accs = [
            self.per_lang[lang].accuracy
            for lang in self.zero_shot_langs
            if lang in self.per_lang
        ]
        if not accs:
            return None
        return sum(accs) / len(accs)

    def to_record(self) -> dict:
        return {
            "kind": "metric_report",
            "metric": self.metric,
            "per_lang": {
                lang: {
                    "total": s.total,
                    "matched": s.matched,
                    "accuracy": round(s.accuracy, 4),
                }
                for lang, s in self.per_lang.items()
            },
            "zero_shot_langs": list(self.zero_shot_langs),
            "avg_0s": None
            if self.avg_zero_shot is None
            else round(self.avg_zero_shot, 4),
        }

    @classmethod
    def from_record(cls, record: Mapping) -> "MetricReport":
        return cls(
            metric=record["metric"],
            per_lang={
                lang: LangScore(total=s["total"], matched=s["matched"])
                for lang, s in record["per_lang"].items()
            },
            zero_shot_langs=tuple(
                record.get("zero_shot_langs", DEFAULT_ZERO_SHOT_LANGS)
            ),
        )

    def to_table(self) -> str:
        headers = ["lang", "total", "matched", f"{self.metric} acc"]
        rows = [
            [lang, str(s.total), str(s.matched), pct(s.accuracy)]
            for lang, s in sorted(self.per_lang.items())
        ]
        if self.avg_zero_shot is not None:
            rows.append(["avg-0s", "", "", pct(self.avg_zero_shot)])
        return format_table(headers, rows)


def score_corpus(
    pairs: Sequence[tuple[str, str, str]],
    metric: str = "sciem",
    dialect: Dialect = Dialect.MTOP_BRACKET,
    zero_shot_langs: Sequence[str] = DEFAULT_ZERO_SHOT_LANGS,
) -> MetricReport:
    """Score (hypothesis, reference, language) parse-string triples.

    For ``uem`` the strings are parsed in ``dialect``; a hypothesis that
    fails to parse counts as a non-match rather than an error.
    """
    if not pairs:
        raise EmptyCorpus("no pairs to score")
    if metric not in ("sciem", "uem"):
        raise ValueError(f"unknown metric {metric!r}")
    counts: dict[str, list[int]] = {}
    for hyp, ref, lang in pairs:
        total_matched = counts.setdefault(lang, [0, 0])
        total_matched[0] += 1
        if metric == "sciem":
            ok = sciem(hyp, ref)
        else:
            try:
                ok = uem(parse(hyp, dialect), parse(ref, dialect))
            except TreeError:
                ok = False
        if ok:
            total_matched[1] += 1
    per_lang = {
        lang: LangScore(total=int(tm[0]), matched=int(tm[1]))
        for lang, tm in counts.items()
    }
    return MetricReport(
        metric=metric, per_lang=per_lang, zero_shot_langs=tuple(zero_shot_langs)
    )
