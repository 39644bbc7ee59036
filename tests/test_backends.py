from __future__ import annotations

import json
import socket
import subprocess
import sys
import threading
import time
from contextlib import closing
from http.server import BaseHTTPRequestHandler, HTTPServer, ThreadingHTTPServer
from pathlib import Path

import pytest

import clasp
from clasp.backends import (
    BackendMalformedResponse,
    BackendUnavailable,
    DecodingConfig,
    GenOutput,
    HttpBackend,
    MockBackend,
    MockRule,
    Timeout,
    _flip_case,
)
from clasp.datasets import Example
from clasp.prompts import (
    Method,
    PromptTemplates,
    build_gb_prompt,
    build_rs_prompt,
    build_slot_mt_prompt,
    build_ts_prompt,
    split_generation,
)
from clasp.trees import Dialect, leaf_slots, parse, replace_slot, structure_signature

from test_prompts import (
    GB_CONTEXT,
    RS_CONTEXT,
    RS_EDITED,
    RS_ORIGINAL,
    TS_ANCHOR_EN,
    TS_ANCHOR_FR,
    TS_SOURCE,
)


def rs_prompt(templates=PromptTemplates()):
    return build_rs_prompt(
        RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, Dialect.PIZZA_PAREN), templates
    )


class TestDecodingConfig:
    def test_paper_sampling_defaults(self):
        cfg = DecodingConfig("sampling", 4)
        assert (cfg.top_k, cfg.top_p, cfg.temperature) == (50, 0.9, 0.9)
        assert cfg.num_outputs == 4

    def test_greedy_single_output(self):
        assert DecodingConfig("greedy").num_outputs == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecodingConfig(mode="magic")
        with pytest.raises(ValueError):
            DecodingConfig("sampling", 0)
        with pytest.raises(ValueError):
            DecodingConfig("sampling", 4, top_p=0.0)
        with pytest.raises(ValueError):
            DecodingConfig("sampling", 4, temperature=-1)


class TestMockBackend:
    def test_sampling_returns_n_stable_outputs(self):
        backend = MockBackend([MockRule()])
        cfg = DecodingConfig("sampling", 4)
        first = backend.generate(rs_prompt(), cfg)
        second = backend.generate(rs_prompt(), cfg)
        assert len(first) == 4
        assert first == second

    def test_greedy_returns_one(self):
        backend = MockBackend([MockRule()])
        outs = backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(outs) == 1

    def test_beam_outputs_distinct_and_sorted(self):
        backend = MockBackend([MockRule()])
        prompt = build_slot_mt_prompt([("all", "todo")], "all", "es")
        outs = backend.generate(prompt, DecodingConfig("beam", 4))
        assert len(outs) == 4
        assert len({o.text for o in outs}) == 4
        assert [o.score for o in outs] == sorted(o.score for o in outs)

    def test_no_rules_echo_empty(self):
        backend = MockBackend([])
        outs = backend.generate(rs_prompt(), DecodingConfig("sampling", 2))
        assert [o.text for o in outs] == ["", ""]

    def test_synthesized_rs_output_is_valid(self):
        backend = MockBackend([MockRule()])
        outs = backend.generate(rs_prompt(), DecodingConfig("sampling", 4))
        expected = parse(RS_EDITED, Dialect.PIZZA_PAREN)
        for out in outs:
            text = split_generation(Method.REPLACE_SLOTS, out.text).text
            tokens = text.split()
            for ref in leaf_slots(expected):
                assert " ".join(ref.value) in " ".join(tokens)

    def test_pattern_dispatch(self):
        rules = [
            MockRule(pattern="spinach", responses=("special;",)),
            MockRule(responses=("generic;",)),
        ]
        backend = MockBackend(rules)
        outs = backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert outs[0].text == "special;"

    def test_unknown_corruption_rejected(self):
        with pytest.raises(ValueError):
            MockRule(corruptions=("explode",))

    @pytest.mark.parametrize("edit", [
        {"corruptions": ("copy_example",)}, {"substitutions": (("a", "b"),)},
    ], ids=["field-corruption", "substitution"])
    def test_literal_responses_take_no_field_edit(self, edit):
        # A literal response has no (parse, text) fields to edit.
        with pytest.raises(ValueError, match="literal responses"):
            MockRule(responses=("x;",), **edit)

    def test_literal_responses_take_separator_corruptions(self):
        rule = MockRule(responses=("x;",), corruptions=("no_semicolon", "bad_separators"))
        outs = MockBackend([rule]).generate(rs_prompt(), DecodingConfig("greedy"))
        assert outs[0].text == "x => oops;"

    def test_unknown_rule_key_is_named(self):
        # A misspelled key would otherwise load as a clean rule.
        with pytest.raises(ValueError, match="unknown mock rule key 'corruption'"):
            MockRule.from_dict({"corruption": ["flip_casing"]})
        with pytest.raises(ValueError, match="must be a JSON object"):
            MockRule.from_dict("flip_casing")

    def test_drop_slot_word_removes_value(self):
        backend = MockBackend([MockRule(corruptions=("drop_slot_word",))])
        outs = backend.generate(rs_prompt(), DecodingConfig("greedy"))
        text = split_generation(Method.REPLACE_SLOTS, outs[0].text).text
        assert "five" not in text.split()

    def test_a_malformed_context_parse_gets_the_filler_alone(self):
        # gb covers the slot values of a context parse; one that does not
        # parse has none, so its text is the first filler alone.
        context = [Example("m", "en", "two pies", "(ORDER (PIZZAORDER (NUMBER two )")]
        (out,) = MockBackend([MockRule()]).generate(
            build_gb_prompt(context), DecodingConfig("greedy")
        )
        cand = split_generation(Method.GENERATE_BOTH, out.text)
        assert cand.parse_text == context[0].parse
        assert cand.text == "please get me thanks"

    def test_unknown_entity_edits_only_the_slot_tokens(self):
        # The first slot of these context parses is Number=a, a letter that
        # also occurs inside labels and the translation cue.
        prompt = build_gb_prompt(GB_CONTEXT[:3])
        cfg = DecodingConfig("sampling", 3)
        clean = MockBackend([MockRule()]).generate(prompt, cfg)
        corrupt = MockBackend(
            [MockRule(corruptions=("unknown_entity",))]
        ).generate(prompt, cfg)
        for before, after in zip(clean, corrupt):
            assert "\n=> Translation in English: " in after.text
            old = split_generation(Method.GENERATE_BOTH, before.text)
            new = split_generation(Method.GENERATE_BOTH, after.text)
            old_tree = parse(old.parse_text, Dialect.PIZZA_PAREN)
            new_tree = parse(new.parse_text, Dialect.PIZZA_PAREN)
            assert structure_signature(new_tree) == structure_signature(old_tree)
            old_refs, new_refs = leaf_slots(old_tree), leaf_slots(new_tree)
            assert old_refs[0].value == ("a",)
            assert new_refs[0].value == ("unobtainium",)
            assert [r.value for r in new_refs[1:]] == [r.value for r in old_refs[1:]]
            tokens = old.text.split()
            i = tokens.index("a")
            assert new.text.split() == tokens[:i] + ["unobtainium"] + tokens[i + 1 :]

    @pytest.mark.parametrize(
        "corruption", ["drop_slot_word", "flip_casing", "unknown_entity"]
    )
    def test_slot_corruption_skips_a_slot_without_tokens(self, corruption):
        # The first slot is empty, so no span binds it: the candidate stays
        # as the clean rule renders it.
        prompt = build_ts_prompt(
            TS_ANCHOR_EN,
            TS_ANCHOR_FR,
            TS_SOURCE,
            parse("[IN:SEND_MESSAGE [SL:X ] [SL:Y pain ] ]", Dialect.MTOP_BRACKET),
            "fr",
        )
        cfg = DecodingConfig("greedy")
        clean = MockBackend([MockRule()]).generate(prompt, cfg)
        corrupt = MockBackend([MockRule(corruptions=(corruption,))]).generate(
            prompt, cfg
        )
        assert corrupt == clean

    @pytest.mark.parametrize("value, flipped", [
        ("Ham", "ham"), ("ham", "Ham"), ("10 am", "10 Am"), ("(3) PM", "(3) pM"),
        ("\u0926\u094b \u092c\u091c\u0947", "\u0926\u094b \u092c\u091c\u0947"),
        ("10 30", "10 30"), ("", ""),
    ], ids=["upper", "lower", "digit-first", "digit-then-upper", "devanagari",
            "digits", "empty"])
    def test_flip_casing_flips_the_first_cased_character(self, value, flipped):
        assert _flip_case(value) == flipped

    def test_no_semicolon_corruption(self):
        backend = MockBackend([MockRule(corruptions=("no_semicolon",))])
        outs = backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert not outs[0].text.endswith(";")

    def test_duplicate_corruption_copies_first(self):
        backend = MockBackend([MockRule(corruptions=("duplicate_output",))])
        outs = backend.generate(rs_prompt(), DecodingConfig("sampling", 3))
        assert outs[0].text == outs[1].text == outs[2].text

    def test_corrupt_count_limits_scope(self):
        backend = MockBackend(
            [MockRule(corruptions=("no_semicolon",), corrupt_count=1)]
        )
        outs = backend.generate(rs_prompt(), DecodingConfig("sampling", 3))
        assert not outs[0].text.endswith(";")
        assert outs[1].text.endswith(";")
        assert outs[2].text.endswith(";")


class _Handler(BaseHTTPRequestHandler):
    server_version = "test"
    requests_seen: list[dict] = []
    responses: list[tuple[int, bytes]] = []

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        payload["_auth"] = self.headers.get("Authorization")
        _Handler.requests_seen.append(payload)
        status, body = _Handler.responses.pop(0)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    # A short poll interval lets shutdown() return at once.
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    _Handler.requests_seen = []
    _Handler.responses = []
    yield server, f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    server.server_close()


def _ok_body(n: int) -> bytes:
    outputs = [{"text": f"out{i};", "score": 0.1 * (i + 1)} for i in range(n)]
    return json.dumps({"outputs": outputs}).encode()


class TestHttpBackend:
    def test_wire_format(self, http_server):
        _, url = http_server
        _Handler.responses = [(200, _ok_body(4))]
        backend = HttpBackend(endpoint=url, token="sekrit")
        cfg = DecodingConfig("sampling", 4, max_new_tokens=64)
        outs = backend.generate(rs_prompt(), cfg)
        assert [o.text for o in outs] == ["out0;", "out1;", "out2;", "out3;"]
        (request,) = _Handler.requests_seen
        assert request["_auth"] == "Bearer sekrit"
        assert request["prompt"].startswith("[CLM] Semantic Parse:")
        assert request["mode"] == "sampling"
        assert request["top_k"] == 50
        assert request["top_p"] == 0.9
        assert request["temperature"] == 0.9
        assert request["n"] == 4
        assert request["max_new_tokens"] == 64
        assert request["stop"] == ";"

    def test_stop_is_the_prompts_terminator(self, http_server):
        _, url = http_server
        _Handler.responses = [(200, _ok_body(1))]
        prompt = rs_prompt(PromptTemplates(terminator="."))
        HttpBackend(endpoint=url).generate(prompt, DecodingConfig("greedy"))
        (request,) = _Handler.requests_seen
        assert request["prompt"].endswith(".\nTranslation in English:")
        assert request["stop"] == "."

    def test_retry_after_server_error_yields_single_result_set(self, http_server):
        _, url = http_server
        _Handler.responses = [(500, b"boom"), (200, _ok_body(2))]
        backend = HttpBackend(endpoint=url)
        outs = backend.generate(rs_prompt(), DecodingConfig("sampling", 2))
        assert len(outs) == 2
        assert len(_Handler.requests_seen) == 2

    def test_persistent_failure_raises_unavailable(self, http_server):
        _, url = http_server
        _Handler.responses = [(500, b""), (500, b""), (500, b"")]
        backend = HttpBackend(endpoint=url, max_retries=2)
        with pytest.raises(BackendUnavailable):
            backend.generate(rs_prompt(), DecodingConfig("greedy"))

    def test_malformed_response(self, http_server):
        _, url = http_server
        _Handler.responses = [(200, b"{\"nope\": 1}")]
        backend = HttpBackend(endpoint=url)
        with pytest.raises(BackendMalformedResponse):
            backend.generate(rs_prompt(), DecodingConfig("greedy"))

    def test_wrong_output_count_is_malformed(self, http_server):
        _, url = http_server
        _Handler.responses = [(200, _ok_body(1))]
        backend = HttpBackend(endpoint=url)
        with pytest.raises(BackendMalformedResponse):
            backend.generate(rs_prompt(), DecodingConfig("sampling", 4))

    def test_client_error_not_retried(self, http_server):
        _, url = http_server
        _Handler.responses = [(403, b"")]
        backend = HttpBackend(endpoint=url, max_retries=2)
        with pytest.raises(BackendUnavailable):
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(_Handler.requests_seen) == 1

    def test_missing_endpoint(self, monkeypatch):
        monkeypatch.delenv("CLASP_BACKEND_ENDPOINT", raising=False)
        with pytest.raises(BackendUnavailable):
            HttpBackend()

    def test_endpoint_from_environment(self, monkeypatch, http_server):
        _, url = http_server
        monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
        _Handler.responses = [(200, _ok_body(1))]
        outs = HttpBackend().generate(rs_prompt(), DecodingConfig("greedy"))
        assert outs == [GenOutput("out0;", pytest.approx(0.1))]


class _ErrorHandler(BaseHTTPRequestHandler):
    """Answers every POST with ``server.status`` and ``server.body`` after
    ``server.delay`` seconds, counting the requests in ``server.hits``."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.hits.append(self.path)
        time.sleep(self.server.delay)
        self.send_response(self.server.status)
        self.end_headers()
        self.wfile.write(self.server.body)

    def log_message(self, *args):
        pass


class _ThreadedServer(ThreadingHTTPServer):
    """One thread per request, so a slow handler cannot hold up the retry."""

    def handle_error(self, request, client_address):
        pass  # a client that timed out has hung up on the late reply


@pytest.fixture
def error_server():
    server = _ThreadedServer(("127.0.0.1", 0), _ErrorHandler)
    server.hits, server.delay, server.status, server.body = [], 0.0, 200, b""
    threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    ).start()
    yield server, f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    server.server_close()


class TestHttpErrorPaths:
    def test_slow_server_times_out_after_every_retry(self, error_server):
        server, url = error_server
        server.delay = 1.0
        backend = HttpBackend(endpoint=url, timeout=0.2, max_retries=2)
        with pytest.raises(Timeout):
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(server.hits) == 3

    def test_closed_port_is_unavailable(self):
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        backend = HttpBackend(endpoint=f"http://127.0.0.1:{port}/", max_retries=1)
        with pytest.raises(BackendUnavailable):
            backend.generate(rs_prompt(), DecodingConfig("greedy"))

    def test_non_json_body_is_malformed(self, error_server):
        server, url = error_server
        server.body = b"<html>not json</html>"
        with pytest.raises(BackendMalformedResponse):
            HttpBackend(endpoint=url).generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(server.hits) == 1

    def test_no_content_is_rejected_without_retry(self, error_server):
        server, url = error_server
        server.status = 204
        backend = HttpBackend(endpoint=url, max_retries=2)
        with pytest.raises(BackendUnavailable, match="204"):
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(server.hits) == 1


def test_cli_import_loads_no_third_party_http_client():
    src = Path(clasp.__file__).resolve().parents[1]
    code = (
        "import sys, clasp.cli; "
        "print(sorted({'requests', 'urllib3'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={"PYTHONPATH": str(src)},
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "[]"


def _connections(server) -> set:
    """Client addresses, one per connection, that sent a POST."""
    return {addr for addr, method, *_ in server.seen if method == "POST"}


class TestKeepAlive:
    def test_requests_share_one_connection(self, keepalive_server):
        server, url = keepalive_server
        with closing(HttpBackend(endpoint=url, token="sekrit")) as backend:
            for _ in range(5):
                assert backend.generate(rs_prompt(), DecodingConfig("greedy")) == [
                    GenOutput("out;", 0.5)
                ]
        assert len(server.seen) == 5
        assert len(_connections(server)) == 1
        for _, _, path, headers, payload in server.seen:
            assert path == "/generate"
            assert headers["Authorization"] == "Bearer sekrit"
            assert payload["prompt"].startswith("[CLM] Semantic Parse:")

    @pytest.mark.parametrize("close", ["header", "silent"])
    def test_reconnects_after_the_server_closes(self, keepalive_server, close):
        # A silent hang-up surfaces on the next request, which goes once
        # more on a fresh connection without using up a retry.
        server, url = keepalive_server
        server.script = [(200, None), (200, close), (200, None), (200, close)]
        with closing(HttpBackend(endpoint=url, max_retries=0)) as backend:
            for _ in range(5):
                backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(server.seen) == 5
        assert len(_connections(server)) == 3

    def test_server_error_is_retried_on_the_kept_connection(self, keepalive_server):
        server, url = keepalive_server
        server.script = [(200, None), (503, None), (500, None)]
        with closing(HttpBackend(endpoint=url, max_retries=2)) as backend:
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(server.seen) == 4
        assert len(_connections(server)) == 1

    def test_client_error_keeps_the_connection(self, keepalive_server):
        server, url = keepalive_server
        server.script = [(404, None)]
        with closing(HttpBackend(endpoint=url, max_retries=2)) as backend:
            with pytest.raises(BackendUnavailable, match="404"):
                backend.generate(rs_prompt(), DecodingConfig("greedy"))
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert len(server.seen) == 2
        assert len(_connections(server)) == 1

    def test_each_thread_has_its_own_connection(self, keepalive_server):
        # More threads than cores and a short switch interval, so that a
        # connection lost between threads would show as a missing entry.
        server, url = keepalive_server
        backend = HttpBackend(endpoint=url)
        barrier = threading.Barrier(8)
        done = []

        def worker():
            barrier.wait(timeout=10)
            for _ in range(4):
                backend.generate(rs_prompt(), DecodingConfig("greedy"))
            done.append(1)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and len(done) == 8
        assert len(backend._connections) == 8
        backend.close()
        assert len(server.seen) == 32
        assert len(_connections(server)) == 8
        # A closed backend reconnects on its next request.
        backend.generate(rs_prompt(), DecodingConfig("greedy"))
        backend.close()
        assert len(_connections(server)) == 9

    def test_not_an_http_url_is_unavailable(self):
        with pytest.raises(BackendUnavailable):
            HttpBackend(endpoint="localhost:8080/generate")


class TestProxy:
    @pytest.fixture(autouse=True)
    def _clean_proxy_env(self, monkeypatch):
        for name in ("http_proxy", "https_proxy", "no_proxy", "all_proxy"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.upper(), raising=False)

    def test_http_endpoint_is_asked_by_absolute_url(self, keepalive_server, monkeypatch):
        proxy, proxy_url = keepalive_server
        monkeypatch.setenv(
            "http_proxy", f"http://us%40r:pw@127.0.0.1:{proxy.server_port}"
        )
        endpoint = "http://backend.invalid:8000/generate?model=x"
        with closing(HttpBackend(endpoint=endpoint, token="t")) as backend:
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert [s[2] for s in proxy.seen] == [endpoint, endpoint]
        _, _, _, headers, _ = proxy.seen[0]
        assert headers["Host"] == "backend.invalid:8000"
        assert headers["Authorization"] == "Bearer t"
        assert headers["Proxy-Authorization"] == "Basic dXNAcjpwdw=="  # us@r:pw
        assert len(_connections(proxy)) == 1

    def test_no_proxy_bypasses_the_proxy(self, keepalive_server, monkeypatch):
        server, url = keepalive_server
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            dead = sock.getsockname()[1]
        monkeypatch.setenv("http_proxy", f"http://127.0.0.1:{dead}")
        monkeypatch.setenv("no_proxy", "127.0.0.1")
        with closing(HttpBackend(endpoint=url)) as backend:
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert [s[2] for s in server.seen] == ["/generate"]

    def test_https_endpoint_goes_through_a_tunnel(self, keepalive_server, monkeypatch):
        proxy, _ = keepalive_server
        monkeypatch.setenv("https_proxy", f"127.0.0.1:{proxy.server_port}")
        backend = HttpBackend(endpoint="https://backend.invalid/generate", max_retries=0)
        with closing(backend), pytest.raises(BackendUnavailable, match="502"):
            backend.generate(rs_prompt(), DecodingConfig("greedy"))
        assert [(s[1], s[2]) for s in proxy.seen] == [("CONNECT", "backend.invalid:443")]
