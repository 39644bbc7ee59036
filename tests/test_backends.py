from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from clasp.backends import (
    BackendMalformedResponse,
    BackendUnavailable,
    DecodingConfig,
    GenOutput,
    HttpBackend,
    MockBackend,
    MockRule,
    Timeout,
)
from clasp.datasets import Example
from clasp.prompts import (
    Method,
    build_gb_prompt,
    build_rs_prompt,
    build_slot_mt_prompt,
    split_generation,
)
from clasp.trees import Dialect, leaf_slots, parse, replace_slot, structure_signature

from test_prompts import GB_CONTEXT, RS_CONTEXT, RS_EDITED, RS_ORIGINAL


def rs_prompt():
    return build_rs_prompt(
        RS_CONTEXT, RS_ORIGINAL, parse(RS_EDITED, Dialect.PIZZA_PAREN)
    )


class TestDecodingConfig:
    def test_paper_sampling_defaults(self):
        cfg = DecodingConfig.sampling(n=4)
        assert (cfg.top_k, cfg.top_p, cfg.temperature) == (50, 0.9, 0.9)
        assert cfg.num_outputs == 4

    def test_greedy_single_output(self):
        assert DecodingConfig.greedy().num_outputs == 1

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            DecodingConfig(mode="magic")
        with pytest.raises(ValueError):
            DecodingConfig.sampling(n=0)
        with pytest.raises(ValueError):
            DecodingConfig.sampling(top_p=0.0)
        with pytest.raises(ValueError):
            DecodingConfig.sampling(temperature=-1)


class TestMockBackend:
    def test_sampling_returns_n_stable_outputs(self):
        backend = MockBackend([MockRule()], seed=3)
        cfg = DecodingConfig.sampling(n=4)
        first = backend.generate(rs_prompt(), cfg)
        second = backend.generate(rs_prompt(), cfg)
        assert len(first) == 4
        assert first == second

    def test_greedy_returns_one(self):
        backend = MockBackend([MockRule()])
        outs = backend.generate(rs_prompt(), DecodingConfig.greedy())
        assert len(outs) == 1

    def test_beam_outputs_distinct_and_sorted(self):
        backend = MockBackend([MockRule()])
        prompt = build_slot_mt_prompt([("all", "todo")], "all", "es")
        outs = backend.generate(prompt, DecodingConfig.beam(4))
        assert len(outs) == 4
        assert len({o.text for o in outs}) == 4
        assert [o.score for o in outs] == sorted(o.score for o in outs)

    def test_no_rules_echo_empty(self):
        backend = MockBackend([])
        outs = backend.generate(rs_prompt(), DecodingConfig.sampling(n=2))
        assert [o.text for o in outs] == ["", ""]

    def test_synthesized_rs_output_is_valid(self):
        backend = MockBackend([MockRule()])
        outs = backend.generate(rs_prompt(), DecodingConfig.sampling(n=4))
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
        outs = backend.generate(rs_prompt(), DecodingConfig.greedy())
        assert outs[0].text == "special;"

    def test_unknown_corruption_rejected(self):
        with pytest.raises(ValueError):
            MockRule(corruptions=("explode",))

    def test_drop_slot_word_removes_value(self):
        backend = MockBackend([MockRule(corruptions=("drop_slot_word",))])
        outs = backend.generate(rs_prompt(), DecodingConfig.greedy())
        text = split_generation(Method.REPLACE_SLOTS, outs[0].text).text
        assert "five" not in text.split()

    def test_unknown_entity_edits_only_the_slot_tokens(self):
        # The first slot of these context parses is Number=a, a letter that
        # also occurs inside labels and the translation cue.
        prompt = build_gb_prompt(GB_CONTEXT[:3])
        cfg = DecodingConfig.sampling(n=3)
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

    def test_no_semicolon_corruption(self):
        backend = MockBackend([MockRule(corruptions=("no_semicolon",))])
        outs = backend.generate(rs_prompt(), DecodingConfig.greedy())
        assert not outs[0].text.endswith(";")

    def test_duplicate_corruption_copies_first(self):
        backend = MockBackend([MockRule(corruptions=("duplicate_output",))])
        outs = backend.generate(rs_prompt(), DecodingConfig.sampling(n=3))
        assert outs[0].text == outs[1].text == outs[2].text

    def test_corrupt_count_limits_scope(self):
        backend = MockBackend(
            [MockRule(corruptions=("no_semicolon",), corrupt_count=1)]
        )
        outs = backend.generate(rs_prompt(), DecodingConfig.sampling(n=3))
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
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.requests_seen = []
    _Handler.responses = []
    yield server, f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()


def _ok_body(n: int) -> bytes:
    outputs = [{"text": f"out{i};", "score": 0.1 * (i + 1)} for i in range(n)]
    return json.dumps({"outputs": outputs}).encode()


class TestHttpBackend:
    def test_wire_format(self, http_server):
        _, url = http_server
        _Handler.responses = [(200, _ok_body(4))]
        backend = HttpBackend(endpoint=url, token="sekrit")
        cfg = DecodingConfig.sampling(n=4, max_new_tokens=64)
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

    def test_retry_after_server_error_yields_single_result_set(self, http_server):
        _, url = http_server
        _Handler.responses = [(500, b"boom"), (200, _ok_body(2))]
        backend = HttpBackend(endpoint=url)
        outs = backend.generate(rs_prompt(), DecodingConfig.sampling(n=2))
        assert len(outs) == 2
        assert len(_Handler.requests_seen) == 2

    def test_persistent_failure_raises_unavailable(self, http_server):
        _, url = http_server
        _Handler.responses = [(500, b""), (500, b""), (500, b"")]
        backend = HttpBackend(endpoint=url, max_retries=2)
        with pytest.raises(BackendUnavailable):
            backend.generate(rs_prompt(), DecodingConfig.greedy())

    def test_malformed_response(self, http_server):
        _, url = http_server
        _Handler.responses = [(200, b"{\"nope\": 1}")]
        backend = HttpBackend(endpoint=url)
        with pytest.raises(BackendMalformedResponse):
            backend.generate(rs_prompt(), DecodingConfig.greedy())

    def test_wrong_output_count_is_malformed(self, http_server):
        _, url = http_server
        _Handler.responses = [(200, _ok_body(1))]
        backend = HttpBackend(endpoint=url)
        with pytest.raises(BackendMalformedResponse):
            backend.generate(rs_prompt(), DecodingConfig.sampling(n=4))

    def test_client_error_not_retried(self, http_server):
        _, url = http_server
        _Handler.responses = [(403, b"")]
        backend = HttpBackend(endpoint=url, max_retries=2)
        with pytest.raises(BackendUnavailable):
            backend.generate(rs_prompt(), DecodingConfig.greedy())
        assert len(_Handler.requests_seen) == 1

    def test_missing_endpoint(self, monkeypatch):
        monkeypatch.delenv("CLASP_BACKEND_ENDPOINT", raising=False)
        with pytest.raises(BackendUnavailable):
            HttpBackend()

    def test_endpoint_from_environment(self, monkeypatch, http_server):
        _, url = http_server
        monkeypatch.setenv("CLASP_BACKEND_ENDPOINT", url)
        _Handler.responses = [(200, _ok_body(1))]
        outs = HttpBackend().generate(rs_prompt(), DecodingConfig.greedy())
        assert outs == [GenOutput("out0;", pytest.approx(0.1))]
