"""Uniform text-continuation backends: a deterministic mock and an HTTP client.

The mock synthesizes well-formed continuations from each prompt's
expectation record and can inject every gate failure mode via corruption
flags, which is how the filtering stack is exercised without a real model.
Outputs are fully determined by (prompt, config, seed).

The HTTP backend speaks a single-shot JSON protocol:

    request:  {prompt, mode, top_k, top_p, temperature, n,
               max_new_tokens, stop}
    response: {outputs: [{text, score}, ...]}

Endpoint and bearer token come from CLASP_BACKEND_ENDPOINT /
CLASP_BACKEND_TOKEN unless passed explicitly. ``score`` is the mean
per-token negative log-likelihood (lower is better), used for
lowest-perplexity selection.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import requests

from .prompts import METHOD_DIALECTS, Method, Prompt, continuation_for
from .trees import (
    Dialect,
    ParseTree,
    SlotRef,
    TreeError,
    find_token_span,
    leaf_slots,
    parse as parse_tree,
    replace_slot,
    serialize,
)

MOCK_CORRUPTIONS = frozenset(
    {
        "drop_slot_word",
        "flip_casing",
        "copy_example",
        "untagged_word",
        "mismatch_parse",
        "no_semicolon",
        "bad_separators",
        "duplicate_output",
        "invalid_parse",
        "unknown_entity",
    }
)

_PAIR_METHODS = (Method.GENERATE_BOTH, Method.TRANSLATE_BOTH)


class BackendError(Exception):
    pass


class BackendUnavailable(BackendError):
    pass


class BackendMalformedResponse(BackendError):
    pass


class Timeout(BackendError):
    pass


@dataclass(frozen=True)
class DecodingConfig:
    mode: str  # "sampling" | "greedy" | "beam"
    n: int = 1
    top_k: int = 50
    top_p: float = 0.9
    temperature: float = 0.9
    max_new_tokens: int = 256
    stop_sequence: str = ";"

    def __post_init__(self) -> None:
        if self.mode not in ("sampling", "greedy", "beam"):
            raise ValueError(f"unknown decoding mode {self.mode!r}")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.mode == "sampling":
            if not 0 < self.top_p <= 1:
                raise ValueError("top_p must be in (0, 1]")
            if self.temperature <= 0:
                raise ValueError("temperature must be positive")

    @property
    def num_outputs(self) -> int:
        return 1 if self.mode == "greedy" else self.n

    @classmethod
    def sampling(cls, n: int = 4, **kwargs) -> "DecodingConfig":
        return cls(mode="sampling", n=n, **kwargs)

    @classmethod
    def greedy(cls, **kwargs) -> "DecodingConfig":
        return cls(mode="greedy", n=1, **kwargs)

    @classmethod
    def beam(cls, n: int = 4, **kwargs) -> "DecodingConfig":
        return cls(mode="beam", n=n, **kwargs)


@dataclass(frozen=True)
class GenOutput:
    text: str
    score: float  # mean per-token NLL; lower is better


class GenerationBackend(Protocol):
    def generate(self, prompt: Prompt, cfg: DecodingConfig) -> list[GenOutput]: ...


@dataclass(frozen=True)
class MockRule:
    """One mock behavior: which prompts it matches and how to respond.

    ``responses`` bypasses synthesis with literal continuations (cycled
    over output indices; ``{source_text}``/``{language}``/``{target_parse}``
    placeholders are filled from the prompt expectation). Corruptions and
    substitutions apply to the first ``corrupt_count`` outputs (default:
    all of them).
    """

    pattern: str = ""
    responses: tuple[str, ...] | None = None
    scores: tuple[float, ...] | None = None
    corruptions: tuple[str, ...] = ()
    substitutions: tuple[tuple[str, str], ...] = ()
    inject_word: str = "pepperoni"
    corrupt_count: int | None = None

    def __post_init__(self) -> None:
        unknown = set(self.corruptions) - MOCK_CORRUPTIONS
        if unknown:
            raise ValueError(f"unknown corruption flags: {sorted(unknown)}")

    def matches(self, prompt_text: str) -> bool:
        return not self.pattern or re.search(self.pattern, prompt_text) is not None

    @classmethod
    def from_dict(cls, d: dict) -> "MockRule":
        return cls(
            pattern=d.get("pattern", ""),
            responses=tuple(d["responses"]) if d.get("responses") else None,
            scores=tuple(d["scores"]) if d.get("scores") else None,
            corruptions=tuple(d.get("corruptions", ())),
            substitutions=tuple(
                (old, new) for old, new in d.get("substitutions", ())
            ),
            inject_word=d.get("inject_word", "pepperoni"),
            corrupt_count=d.get("corrupt_count"),
        )


def load_mock_rules(path: str | Path) -> list[MockRule]:
    with open(path, encoding="utf-8") as fh:
        return [MockRule.from_dict(d) for d in json.load(fh)]


_FILLERS = ("please get me", "kindly send over", "we would enjoy", "now preparing")
_TERM = ";"


class MockBackend:
    """Deterministic responder; first matching rule wins, no rules echo ''."""

    def __init__(self, rules: Sequence[MockRule] = (), seed: int = 0) -> None:
        self.rules = list(rules)
        self.seed = seed

    def generate(self, prompt: Prompt, cfg: DecodingConfig) -> list[GenOutput]:
        n = cfg.num_outputs
        rule = next((r for r in self.rules if r.matches(prompt.text)), None)
        if rule is None:
            return [GenOutput("", _default_score(i)) for i in range(n)]
        texts = [self._response(prompt, rule, i) for i in range(n)]
        limit = n if rule.corrupt_count is None else min(rule.corrupt_count, n)
        for i in range(limit):
            texts[i] = _corrupt(prompt, rule, texts, i)
        outputs = [
            GenOutput(text, self._score(rule, i)) for i, text in enumerate(texts)
        ]
        if cfg.mode == "beam":
            outputs.sort(key=lambda o: o.score)
        return outputs

    def _score(self, rule: MockRule, i: int) -> float:
        if rule.scores:
            return rule.scores[i % len(rule.scores)]
        return _default_score(i)

    def _response(self, prompt: Prompt, rule: MockRule, i: int) -> str:
        if rule.responses:
            template = rule.responses[i % len(rule.responses)]
            exp = prompt.expected
            return template.format(
                source_text=exp.source_text or "",
                language=exp.language,
                target_parse=exp.target_parse or "",
            )
        return _synthesize(prompt, i)


def _default_score(i: int) -> float:
    return round(0.5 + 0.1 * i, 6)


def _synthesize(prompt: Prompt, i: int) -> str:
    exp = prompt.expected
    method = prompt.method
    if method in (Method.REPLACE_SLOTS, Method.TRANSLATE_SLOTS):
        text = _cover_text(exp.target_parse or "", method, i)
        return continuation_for(method, text=text)
    if method is Method.GENERATE_BOTH:
        k = i % len(exp.context_parses) if exp.context_parses else 0
        parse_text = exp.context_parses[k] if exp.context_parses else ""
        text = _cover_text(parse_text, method, i)
        return continuation_for(
            method, text=text, parse_text=parse_text, language=exp.language
        )
    if method is Method.TRANSLATE_BOTH:
        parse_text = exp.source_parse or ""
        text = _cover_text(parse_text, method, i)
        return continuation_for(
            method, text=text, parse_text=parse_text, language=exp.language
        )
    if method is Method.SLOT_MT:
        value = exp.source_text or ""
        text = value if i == 0 else f"{value} alt{i}"
        return continuation_for(method, text=text)
    # Sentence translation: reverse the token order so the output is a
    # deterministic non-copy of the source.
    tokens = (exp.source_text or "").split()
    text = " ".join(reversed(tokens))
    if i > 0:
        text = f"{text} v{i}"
    return continuation_for(Method.SENT_MT, text=text)


def _cover_text(parse_text: str, method: Method, i: int) -> str:
    """Text containing every leaf-slot value of the parse, in order."""
    dialect = METHOD_DIALECTS.get(method, Dialect.MTOP_BRACKET)
    try:
        refs = leaf_slots(parse_tree(parse_text, dialect))
    except Exception:
        refs = []
    values = " ".join(ref.value_text for ref in refs)
    filler = _FILLERS[i % len(_FILLERS)]
    return f"{filler} {values} thanks" if values else f"{filler} thanks"


def _corrupt(prompt: Prompt, rule: MockRule, texts: list[str], i: int) -> str:
    raw = texts[i]
    for old, new in rule.substitutions:
        raw = _edit_text_part(prompt.method, raw, lambda s: s.replace(old, new))
    for flag in rule.corruptions:
        raw = _apply_corruption(flag, raw, prompt, rule, texts, i)
    return raw


def _apply_corruption(
    flag: str, raw: str, prompt: Prompt, rule: MockRule, texts: list[str], i: int
) -> str:
    exp = prompt.expected
    method = prompt.method
    if flag == "duplicate_output":
        return raw if i == 0 else texts[0]
    if flag == "no_semicolon":
        return raw.rstrip().rstrip(_TERM)
    if flag == "bad_separators":
        return raw.rstrip().rstrip(_TERM) + " => oops" + _TERM
    if flag in ("drop_slot_word", "flip_casing", "unknown_entity"):
        found = _first_slot(prompt, raw)
        if found is None:
            return raw
        tree, ref = found
        if flag == "drop_slot_word":
            new_value: tuple[str, ...] = ()
        elif flag == "flip_casing":
            new_value = tuple(_flip_case(ref.value_text).split())
        else:
            new_value = ("unobtainium",)
            if method in _PAIR_METHODS:
                raw = _swap_parse_part(
                    raw, serialize(replace_slot(tree, ref, new_value))
                )
        return _edit_text_part(
            method, raw, lambda s: _replace_tokens(s, ref.value, new_value)
        )
    if flag == "untagged_word":
        word = rule.inject_word
        return _edit_text_part(method, raw, lambda s: f"{s} {word}")
    if flag == "copy_example":
        copied = exp.context_texts[0] if exp.context_texts else ""
        return _edit_text_part(method, raw, lambda s: copied)
    if flag == "invalid_parse":
        broken = (
            "(Broken (Number" if method is Method.GENERATE_BOTH else "[IN:BROKEN [SL:X"
        )
        return _swap_parse_part(raw, broken)
    if flag == "mismatch_parse":
        other = exp.context_parses[0] if exp.context_parses else ""
        return _swap_parse_part(raw, other)
    return raw


def _first_slot(prompt: Prompt, raw: str) -> tuple[ParseTree, SlotRef] | None:
    """The parse this continuation must realize and its first leaf slot."""
    method = prompt.method
    if method in _PAIR_METHODS:
        parse_text, _, _ = raw.partition("=>")
    else:
        parse_text = prompt.expected.target_parse or ""
    try:
        tree = parse_tree(parse_text.strip(), METHOD_DIALECTS[method])
    except (KeyError, TreeError):
        return None
    refs = leaf_slots(tree)
    return (tree, refs[0]) if refs else None


def _replace_tokens(text: str, old: Sequence[str], new: Sequence[str]) -> str:
    """Replace the first whole-token occurrence of ``old`` in ``text``."""
    tokens = text.split()
    span = find_token_span(tokens, old)
    if span is None:
        return text
    return " ".join([*tokens[: span[0]], *new, *tokens[span[1] :]])


def _edit_text_part(method: Method, raw: str, edit) -> str:
    """Apply ``edit`` to the surface-text field of a continuation."""
    body = raw.rstrip()
    had_term = body.endswith(_TERM)
    if had_term:
        body = body[: -len(_TERM)]
    if method in _PAIR_METHODS:
        left, sep, right = body.partition("=>")
        if sep:
            colon = right.find(":")
            label, text = right[: colon + 1], right[colon + 1 :].strip()
            body = f"{left}=>{label} {edit(text)}"
        else:
            body = edit(body)
    else:
        body = edit(body)
    return body + (_TERM if had_term else "")


def _swap_parse_part(raw: str, new_parse: str) -> str:
    left, sep, right = raw.partition("=>")
    if not sep:
        return raw
    return f"{new_parse}\n=>{right}"


def _flip_case(value: str) -> str:
    head = value[0]
    flipped = head.lower() if head.isupper() else head.upper()
    return flipped + value[1:]


class HttpBackend:
    """Single-shot JSON-over-HTTP backend with idempotent retries."""

    def __init__(
        self,
        endpoint: str | None = None,
        token: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 2,
        session: requests.Session | None = None,
    ) -> None:
        self.endpoint = endpoint or os.environ.get("CLASP_BACKEND_ENDPOINT")
        if not self.endpoint:
            raise BackendUnavailable(
                "no endpoint: pass one or set CLASP_BACKEND_ENDPOINT"
            )
        self.token = token or os.environ.get("CLASP_BACKEND_TOKEN")
        self.timeout = timeout
        self.max_retries = max_retries
        self.session = session or requests.Session()

    def generate(self, prompt: Prompt, cfg: DecodingConfig) -> list[GenOutput]:
        payload = {
            "prompt": prompt.text,
            "mode": cfg.mode,
            "top_k": cfg.top_k,
            "top_p": cfg.top_p,
            "temperature": cfg.temperature,
            "n": cfg.n,
            "max_new_tokens": cfg.max_new_tokens,
            "stop": cfg.stop_sequence,
        }
        headers = {"Content-Type": "application/json"}
        if self.token:
            headers["Authorization"] = f"Bearer {self.token}"
        last_error: Exception | None = None
        for _ in range(self.max_retries + 1):
            try:
                resp = self.session.post(
                    self.endpoint, json=payload, headers=headers, timeout=self.timeout
                )
            except requests.exceptions.Timeout as exc:
                last_error = Timeout(str(exc))
                continue
            except requests.exceptions.RequestException as exc:
                last_error = BackendUnavailable(str(exc))
                continue
            if resp.status_code >= 500:
                last_error = BackendUnavailable(f"server error {resp.status_code}")
                continue
            if resp.status_code != 200:
                raise BackendUnavailable(
                    f"backend rejected request: {resp.status_code}"
                )
            # Each retry replaces the whole result set, so a retried
            # request can never duplicate entries in the returned list.
            return self._parse_response(resp, cfg)
        assert last_error is not None
        raise last_error

    def _parse_response(
        self, resp: requests.Response, cfg: DecodingConfig
    ) -> list[GenOutput]:
        try:
            data = resp.json()
        except ValueError as exc:
            raise BackendMalformedResponse("response is not JSON") from exc
        outputs = data.get("outputs") if isinstance(data, dict) else None
        if not isinstance(outputs, list):
            raise BackendMalformedResponse("response lacks an outputs list")
        results = []
        for item in outputs:
            if (
                not isinstance(item, dict)
                or not isinstance(item.get("text"), str)
                or not isinstance(item.get("score"), (int, float))
            ):
                raise BackendMalformedResponse(f"bad output entry: {item!r}")
            results.append(GenOutput(item["text"], float(item["score"])))
        if len(results) != cfg.num_outputs:
            raise BackendMalformedResponse(
                f"expected {cfg.num_outputs} outputs, got {len(results)}"
            )
        return results
