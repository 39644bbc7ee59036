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

The client is the standard library's ``http.client``: one keep-alive
connection per calling thread, remade after the server closes it, and all
closed by ``HttpBackend.close``. Proxies come from the environment
(``http_proxy``, ``https_proxy``, ``no_proxy``, read with
``urllib.request.getproxies``/``proxy_bypass``): an http endpoint is asked
through the proxy by absolute URL, an https one through a CONNECT tunnel.
HTTPS certificates are checked against the system trust store.
"""

from __future__ import annotations

import base64
import functools
import http.client
import json
import os
import re
import ssl
import threading
import urllib.parse
import urllib.request
from dataclasses import dataclass
from typing import Sequence

from .prompts import METHODS, Method, Prompt, continuation_for
from .trees import (
    Dialect,
    ParseTree,
    SlotRef,
    TreeError,
    bind_slot_spans,
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


@dataclass(frozen=True)
class GenOutput:
    text: str
    score: float  # mean per-token NLL; lower is better


# The type of each field of a mock rule file, and of the items of a list.
_RULE_FIELDS = {
    "pattern": str, "responses": list, "scores": list, "corruptions": list,
    "substitutions": list, "inject_word": str, "corrupt_count": int,
}
_RULE_LIST_ITEMS = {
    "responses": str, "scores": (int, float), "corruptions": str, "substitutions": list,
}


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
        try:
            re.compile(self.pattern)
        except re.error as exc:
            raise ValueError(f"mock rule pattern {self.pattern!r}: {exc}") from exc

    def matches(self, prompt_text: str) -> bool:
        return not self.pattern or re.search(self.pattern, prompt_text) is not None

    @classmethod
    def from_dict(cls, d: dict) -> "MockRule":
        """Build from one object of a rule file, checking each key and each
        field's type."""
        if not isinstance(d, dict):
            raise ValueError(f"a mock rule must be a JSON object, got {d!r}")
        for key in d:
            if key not in _RULE_FIELDS:
                raise ValueError(f"unknown mock rule key {key!r}")
        for key, kind in _RULE_FIELDS.items():
            value, item = d.get(key), _RULE_LIST_ITEMS.get(key)
            if value is not None and not (
                isinstance(value, kind)
                and (item is None or all(isinstance(x, item) for x in value))
            ):
                raise ValueError(f"mock rule {key!r} has the wrong type: {value!r}")
        substitutions = tuple((old, new) for old, new in d.get("substitutions") or ())
        if not all(isinstance(s, str) for pair in substitutions for s in pair):
            raise ValueError("mock rule 'substitutions' must be pairs of strings")
        return cls(
            pattern=d.get("pattern", ""),
            responses=tuple(d["responses"]) if d.get("responses") else None,
            scores=tuple(d["scores"]) if d.get("scores") else None,
            corruptions=tuple(d.get("corruptions", ())),
            substitutions=substitutions,
            inject_word=d.get("inject_word", "pepperoni"),
            corrupt_count=d.get("corrupt_count"),
        )


def mock_rules(data: list) -> list[MockRule]:
    """The rules of a mock rule file: a JSON list of rule objects."""
    return [MockRule.from_dict(d) for d in data]


_FILLERS = ("please get me", "kindly send over", "we would enjoy", "now preparing")


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

    def close(self) -> None:
        """The mock holds no connections; every backend can be closed."""

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
    spec = METHODS[method]
    source, parse_text = exp.source_text or "", None
    if method is Method.SLOT_MT:
        text = source if i == 0 else f"{source} alt{i}"
    elif spec.dialect is None:
        # Sentence translation: reverse the token order so the output is a
        # deterministic non-copy of the source.
        text = " ".join(reversed(source.split())) + (f" v{i}" if i else "")
    else:
        if not spec.pair:
            parse_text = exp.target_parse or ""  # the given parse
        elif method is Method.GENERATE_BOTH:
            k = i % len(exp.context_parses) if exp.context_parses else 0
            parse_text = exp.context_parses[k] if exp.context_parses else ""
        else:
            parse_text = exp.source_parse or ""
        text = _cover_text(parse_text, spec.dialect, i)
    return continuation_for(
        method, text=text, parse_text=parse_text, language=exp.language,
        templates=prompt.templates,
    )


def _cover_text(parse_text: str, dialect: Dialect, i: int) -> str:
    """Text containing every leaf-slot value of the parse, in order."""
    try:
        refs = leaf_slots(parse_tree(parse_text, dialect))
    except Exception:
        refs = []
    values = " ".join(ref.value_text for ref in refs)
    # A filler sharing a word with a slot would take that slot's span from
    # the binder, and a corruption would edit the filler, not the slot: the
    # first filler from ``i`` on that shares none is used, if one does.
    words = set(values.casefold().split())
    fillers = [_FILLERS[(i + j) % len(_FILLERS)] for j in range(len(_FILLERS))]
    filler = next(
        (f for f in fillers if words.isdisjoint(f.casefold().split())), fillers[0]
    )
    return f"{filler} {values} thanks" if values else f"{filler} thanks"


def _corrupt(prompt: Prompt, rule: MockRule, texts: list[str], i: int) -> str:
    raw = texts[i]
    for old, new in rule.substitutions:
        raw = _edit_text_part(prompt, raw, lambda s: s.replace(old, new))
    for flag in rule.corruptions:
        raw = _apply_corruption(flag, raw, prompt, rule, texts, i)
    return raw


def _apply_corruption(
    flag: str, raw: str, prompt: Prompt, rule: MockRule, texts: list[str], i: int
) -> str:
    exp = prompt.expected
    method = prompt.method
    t = prompt.templates
    if flag == "duplicate_output":
        return raw if i == 0 else texts[0]
    if flag == "no_semicolon":
        return _strip_terminators(raw, t.terminator)
    if flag == "bad_separators":
        body = _strip_terminators(raw, t.terminator)
        return f"{body} {t.arrow} oops{t.terminator}"
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
            if METHODS[method].pair:
                raw = _swap_parse_part(
                    prompt, raw, serialize(replace_slot(tree, ref, new_value))
                )
        return _edit_text_part(
            prompt, raw, lambda s: _replace_first_slot(s, tree, new_value)
        )
    if flag == "untagged_word":
        word = rule.inject_word
        return _edit_text_part(prompt, raw, lambda s: f"{s} {word}")
    if flag == "copy_example":
        copied = exp.context_texts[0] if exp.context_texts else ""
        return _edit_text_part(prompt, raw, lambda s: copied)
    if flag == "invalid_parse":
        broken = {Dialect.PIZZA_PAREN: "(Broken (Number",
                  Dialect.MTOP_BRACKET: "[IN:BROKEN [SL:X"}.get(METHODS[method].dialect)
        return raw if broken is None else _swap_parse_part(prompt, raw, broken)
    if flag == "mismatch_parse":
        other = exp.context_parses[0] if exp.context_parses else ""
        return _swap_parse_part(prompt, raw, other)
    return raw


def _first_slot(prompt: Prompt, raw: str) -> tuple[ParseTree, SlotRef] | None:
    """The parse this continuation must realize and its first leaf slot."""
    spec = METHODS[prompt.method]
    if spec.dialect is None:
        return None
    if spec.pair:
        parse_text, _, _ = raw.partition(prompt.templates.arrow)
    else:
        parse_text = prompt.expected.target_parse or ""
    try:
        tree = parse_tree(parse_text.strip(), spec.dialect)
    except TreeError:
        return None
    refs = leaf_slots(tree)
    return (tree, refs[0]) if refs else None


def _replace_first_slot(text: str, tree: ParseTree, new: Sequence[str]) -> str:
    """Replace the tokens bound to the tree's first leaf slot, if any."""
    tokens = text.split()
    (_, span), *_ = bind_slot_spans(tree, tokens)
    if span is None:
        return text
    return " ".join([*tokens[: span[0]], *new, *tokens[span[1] :]])


def _edit_text_part(prompt: Prompt, raw: str, edit) -> str:
    """Apply ``edit`` to the surface-text field of a continuation."""
    t = prompt.templates
    body = raw.rstrip()
    had_term = body.endswith(t.terminator)
    if had_term:
        body = body[: -len(t.terminator)]
    if METHODS[prompt.method].pair:
        left, sep, right = body.partition(t.arrow)
        if sep:
            colon = right.find(":")
            label, text = right[: colon + 1], right[colon + 1 :].strip()
            body = f"{left}{t.arrow}{label} {edit(text)}"
        else:
            body = edit(body)
    else:
        body = edit(body)
    return body + (t.terminator if had_term else "")


def _swap_parse_part(prompt: Prompt, raw: str, new_parse: str) -> str:
    arrow = prompt.templates.arrow
    left, sep, right = raw.partition(arrow)
    if not sep:
        return raw
    return f"{new_parse}\n{arrow}{right}"


def _strip_terminators(raw: str, terminator: str) -> str:
    """``raw`` without trailing whitespace and trailing terminators."""
    body = raw.rstrip()
    while terminator and body.endswith(terminator):
        body = body[: -len(terminator)]
    return body


def _flip_case(value: str) -> str:
    """``value`` with the case of its first cased character flipped ("10 am"
    becomes "10 Am"). A value with no cased character (digits only, or a
    script without case such as Devanagari) stays as it is, and so does an
    empty one, whose slot binds nowhere."""
    for i, char in enumerate(value):
        if char.lower() != char.upper():
            flipped = char.lower() if char.isupper() else char.upper()
            return value[:i] + flipped + value[i + 1:]
    return value


class HttpBackend:
    """JSON-over-HTTP backend with idempotent retries.

    Each calling thread keeps one keep-alive connection, made on its first
    request and remade after the server closes it; ``close`` closes them
    all. Up to ``max_retries`` more attempts follow a status of 500 or
    more, a timeout or a connection error. A request that fails on a
    kept-alive connection before any response byte arrives (the server
    closed it while idle) is sent once more on a fresh connection, and
    that resend is not a retry.
    """

    def __init__(
        self,
        endpoint: str | None = None,
        token: str | None = None,
        timeout: float = 60.0,
        max_retries: int = 2,
    ) -> None:
        self.endpoint = endpoint or os.environ.get("CLASP_BACKEND_ENDPOINT")
        if not self.endpoint:
            raise BackendUnavailable(
                "no endpoint: pass one or set CLASP_BACKEND_ENDPOINT"
            )
        self.token = token or os.environ.get("CLASP_BACKEND_TOKEN")
        self.timeout = timeout
        self.max_retries = max_retries
        url = urllib.parse.urlsplit(self.endpoint)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise BackendUnavailable(f"not an http(s) URL: {self.endpoint!r}")
        self._tls = url.scheme == "https"
        self._host, self._port = url.hostname, url.port
        self._path = urllib.parse.urlunsplit(("", "", url.path or "/", url.query, ""))
        self._headers = {"Content-Type": "application/json"}
        if self.token:
            self._headers["Authorization"] = f"Bearer {self.token}"
        self._tunnel: tuple[str, int | None, dict[str, str]] | None = None
        proxy = urllib.request.getproxies().get(url.scheme)
        if proxy and not urllib.request.proxy_bypass(url.netloc.rpartition("@")[2]):
            self._route_via_proxy(proxy)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._connections: list[http.client.HTTPConnection] = []

    def _route_via_proxy(self, proxy: str) -> None:
        """Send requests through ``proxy``: an http endpoint's as absolute
        URLs, an https endpoint's through a CONNECT tunnel."""
        if "://" not in proxy:
            proxy = "http://" + proxy
        via = urllib.parse.urlsplit(proxy)
        auth = {}
        if via.username is not None:
            user = urllib.parse.unquote(via.username)
            password = urllib.parse.unquote(via.password or "")
            auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                f"{user}:{password}".encode()
            ).decode("ascii")
        if self._tls:
            self._tunnel = (self._host, self._port, auth)
        else:
            self._path = self.endpoint
            self._headers.update(auth)
        self._host, self._port = via.hostname, via.port

    def _connection(self) -> http.client.HTTPConnection:
        """This thread's connection; it connects on its next request."""
        conn = getattr(self._local, "conn", None)
        if conn is None:
            if self._tls:
                conn = http.client.HTTPSConnection(
                    self._host, self._port, timeout=self.timeout,
                    context=self._tls_context,
                )
            else:
                conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=self.timeout
                )
            if self._tunnel is not None:
                host, port, headers = self._tunnel
                conn.set_tunnel(host, port, headers)
            self._local.conn = conn
            with self._lock:
                self._connections.append(conn)
        return conn

    @functools.cached_property
    def _tls_context(self) -> ssl.SSLContext:
        # Certificates are checked against the system trust store.
        return ssl.create_default_context()

    def close(self) -> None:
        """Close every thread's connection; a later request reconnects."""
        with self._lock:
            connections, self._connections = self._connections, []
            self._local = threading.local()
        for conn in connections:
            conn.close()

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
        body = json.dumps(payload).encode()
        last_error: Exception | None = None
        for _ in range(self.max_retries + 1):
            try:
                status, data = self._exchange(body)
            except (OSError, http.client.HTTPException) as exc:
                if isinstance(exc, TimeoutError):
                    last_error = Timeout(str(exc))
                else:
                    last_error = BackendUnavailable(str(exc))
                continue
            if status >= 500:
                last_error = BackendUnavailable(f"server error {status}")
                continue
            if status != 200:
                raise BackendUnavailable(f"backend rejected request: {status}")
            # Each retry replaces the whole result set, so a retried
            # request can never duplicate entries in the returned list.
            return self._parse_response(data, cfg)
        assert last_error is not None
        raise last_error

    def _exchange(self, body: bytes) -> tuple[int, bytes]:
        """POST ``body`` on this thread's connection; (status, body)."""
        conn = self._connection()
        reused = conn.sock is not None
        try:
            try:
                response = self._send(conn, body)
            except ConnectionError:
                if not reused:
                    raise
                # The server closed the idle connection before any response
                # byte came: the request goes once more, on a fresh one.
                conn.close()
                response = self._send(conn, body)
            # The whole body is read, whatever the status, so that the
            # connection can carry the next request.
            return response.status, response.read()
        except BaseException:
            conn.close()
            raise

    def _send(
        self, conn: http.client.HTTPConnection, body: bytes
    ) -> http.client.HTTPResponse:
        conn.request("POST", self._path, body, self._headers)
        return conn.getresponse()

    def _parse_response(self, body: bytes, cfg: DecodingConfig) -> list[GenOutput]:
        try:
            data = json.loads(body)
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
