"""Uniform text-continuation backends: a deterministic mock and an HTTP client.

The mock synthesizes each continuation from the prompt's expectation
record as (parse, text) fields and can inject every gate failure mode via
corruption flags, which is how the filtering stack is exercised without a
real model. Substitutions and field corruptions edit the fields, which
``prompts.continuation_for`` (the renderer of the prompt's own examples)
then renders; only ``SEPARATOR_CORRUPTIONS`` act on the rendered string,
and they are all that a rule's literal ``responses`` take. Outputs are
fully determined by (prompt, config, seed).

The HTTP backend speaks a single-shot JSON protocol:

    request:  {prompt, mode, top_k, top_p, temperature, n,
               max_new_tokens, stop}
    response: {outputs: [{text, score}, ...]}

Endpoint and bearer token come from CLASP_BACKEND_ENDPOINT /
CLASP_BACKEND_TOKEN unless passed explicitly. ``stop`` is the prompt's
terminator (``Prompt.stop``), where each of its continuations ends.
``score`` is the mean per-token negative log-likelihood (lower is
better), used for lowest-perplexity selection.

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
from dataclasses import dataclass, field
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

# The corruptions that act on the rendered continuation; every other one
# edits its (parse, text) fields before they are rendered.
SEPARATOR_CORRUPTIONS = frozenset({"no_semicolon", "bad_separators", "duplicate_output"})
MOCK_CORRUPTIONS = SEPARATOR_CORRUPTIONS | {
    "drop_slot_word", "flip_casing", "unknown_entity", "untagged_word", "copy_example",
    "invalid_parse", "mismatch_parse",
}


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
    placeholders are filled from the prompt expectation). A literal
    response has no fields to edit, so it takes only the separator
    corruptions. Corruptions and substitutions apply to the first
    ``corrupt_count`` outputs (default: all of them).
    """

    pattern: str = ""
    responses: tuple[str, ...] | None = None
    scores: tuple[float, ...] | None = None
    corruptions: tuple[str, ...] = ()
    substitutions: tuple[tuple[str, str], ...] = ()
    inject_word: str = "pepperoni"
    corrupt_count: int | None = None
    # ``pattern`` compiled once; not part of equality, hash or repr.
    _regex: re.Pattern = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        unknown = set(self.corruptions) - MOCK_CORRUPTIONS
        if unknown:
            raise ValueError(f"unknown corruption flags: {sorted(unknown)}")
        try:
            object.__setattr__(self, "_regex", re.compile(self.pattern))
        except re.error as exc:
            raise ValueError(f"mock rule pattern {self.pattern!r}: {exc}") from exc
        edits = sorted(set(self.corruptions) - SEPARATOR_CORRUPTIONS)
        if self.responses and (self.substitutions or edits):
            raise ValueError(
                "a mock rule with literal responses takes only separator "
                f"corruptions, not {(edits or ['substitutions'])[0]!r}"
            )

    def matches(self, prompt_text: str) -> bool:
        return self._regex.search(prompt_text) is not None

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
        texts: list[str] = []
        for i in range(n):
            corrupt = rule.corrupt_count is None or i < rule.corrupt_count
            raw = self._response(prompt, rule, i, corrupt)
            texts.append(_break_separators(prompt, rule, raw, texts) if corrupt else raw)
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

    def _response(self, prompt: Prompt, rule: MockRule, i: int, corrupt: bool) -> str:
        exp = prompt.expected
        if rule.responses:
            template = rule.responses[i % len(rule.responses)]
            return template.format(
                source_text=exp.source_text or "",
                language=exp.language,
                target_parse=exp.target_parse or "",
            )
        parse_text, text = _synthesize(prompt, i)
        if corrupt:
            parse_text, text = _edit_fields(prompt, rule, parse_text, text)
        return continuation_for(
            prompt.method, text=text, parse_text=parse_text, language=exp.language,
            templates=prompt.templates,
        )


def _default_score(i: int) -> float:
    return round(0.5 + 0.1 * i, 6)


def _synthesize(prompt: Prompt, i: int) -> tuple[str | None, str]:
    """The (parse, text) fields of a well-formed continuation. The parse is
    the one the text realizes: generated for a pair method, given for rs
    and ts, None for a text-only method."""
    exp = prompt.expected
    method = prompt.method
    spec = METHODS[method]
    source = exp.source_text or ""
    if method is Method.SLOT_MT:
        return None, source if i == 0 else f"{source} alt{i}"
    if spec.dialect is None:
        # Sentence translation: reverse the token order so the output is a
        # deterministic non-copy of the source.
        return None, " ".join(reversed(source.split())) + (f" v{i}" if i else "")
    if not spec.pair:
        parse_text = exp.target_parse or ""
    elif method is Method.GENERATE_BOTH:
        k = i % len(exp.context_parses) if exp.context_parses else 0
        parse_text = exp.context_parses[k] if exp.context_parses else ""
    else:
        parse_text = exp.source_parse or ""
    return parse_text, _cover_text(parse_text, spec.dialect, i)


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


def _edit_fields(
    prompt: Prompt, rule: MockRule, parse_text: str | None, text: str
) -> tuple[str | None, str]:
    """The fields after the rule's substitutions, then its field corruptions
    in the rule's order. Only a pair method's parse field is edited."""
    exp = prompt.expected
    spec = METHODS[prompt.method]
    for old, new in rule.substitutions:
        text = text.replace(old, new)
    for flag in rule.corruptions:
        if flag in ("drop_slot_word", "flip_casing", "unknown_entity"):
            found = _first_slot(parse_text, spec.dialect)
            if found is None:
                continue
            tree, ref = found
            if flag == "drop_slot_word":
                new_value: tuple[str, ...] = ()
            elif flag == "flip_casing":
                new_value = tuple(_flip_case(ref.value_text).split())
            else:
                new_value = ("unobtainium",)
                if spec.pair:
                    parse_text = serialize(replace_slot(tree, ref, new_value))
            text = _replace_first_slot(text, tree, new_value)
        elif flag == "untagged_word":
            text = f"{text} {rule.inject_word}"
        elif flag == "copy_example":
            text = exp.context_texts[0] if exp.context_texts else ""
        elif flag == "invalid_parse" and spec.pair:
            parse_text = {Dialect.PIZZA_PAREN: "(Broken (Number",
                          Dialect.MTOP_BRACKET: "[IN:BROKEN [SL:X"}[spec.dialect]
        elif flag == "mismatch_parse" and spec.pair:
            parse_text = exp.context_parses[0] if exp.context_parses else ""
    return parse_text, text


def _break_separators(
    prompt: Prompt, rule: MockRule, raw: str, earlier: Sequence[str]
) -> str:
    """The rendered continuation after the rule's separator corruptions;
    ``earlier`` holds the outputs before this one."""
    t = prompt.templates
    for flag in rule.corruptions:
        if flag == "duplicate_output" and earlier:
            raw = earlier[0]
        elif flag == "no_semicolon":
            raw = _strip_terminators(raw, t.terminator)
        elif flag == "bad_separators":
            raw = f"{_strip_terminators(raw, t.terminator)} {t.arrow} oops{t.terminator}"
    return raw


def _first_slot(
    parse_text: str | None, dialect: Dialect | None
) -> tuple[ParseTree, SlotRef] | None:
    """The parse field's tree and its first leaf slot, if it has one."""
    if parse_text is None or dialect is None:
        return None
    try:
        tree = parse_tree(parse_text, dialect)
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
            "stop": prompt.stop,
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
