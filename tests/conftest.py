"""Shared fixtures and random-structure generators for the test suite."""

from __future__ import annotations

import json
import os
import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from clasp.canonical import CfTemplateSet, SlotCatalog
from clasp.trees import Dialect, Intent, Node, ParseTree, Slot, Token

WORDS = (
    "alpha", "bravo", "charlie", "delta", "echo", "foxtrot", "golf",
    "hotel", "india", "juliet", "kilo", "lima", "mike", "november",
)

LABELS = ("Alpha", "Beta", "Gamma", "Delta", "Epsilon")


def assert_no_child_left() -> None:
    """Fail while this process has a child it has not reaped, running or
    exited; the check reaps none."""
    try:
        found = os.waitid(os.P_ALL, 0, os.WEXITED | os.WNOHANG | os.WNOWAIT)
    except ChildProcessError:
        return  # no child at all
    raise AssertionError(f"a child process is left unreaped: {found}")


@pytest.fixture(scope="session")
def catalog() -> SlotCatalog:
    return SlotCatalog.default()


@pytest.fixture(scope="session")
def cf_templates() -> CfTemplateSet:
    return CfTemplateSet.default()


class _KeepAliveHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 generation endpoint, proxy stand-in and CONNECT target.

    Each request is logged in ``server.seen`` as (client address, method,
    path, headers, payload). Responses follow ``server.script``, a list of
    (status, close) popped one per POST, then 200 without closing; close
    is "header" (send ``Connection: close``) or "silent" (hang up after
    the response without saying so). A 200 carries ``n`` outputs with the
    text ``server.text``. A CONNECT is refused with 502.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self):
        srv = self.server
        payload = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        with srv.lock:
            srv.seen.append(
                (self.client_address, "POST", self.path, dict(self.headers), payload)
            )
            status, close = srv.script.pop(0) if srv.script else (200, None)
        outputs = [{"text": srv.text, "score": 0.5}] * int(payload.get("n", 1))
        body = json.dumps({"outputs": outputs}).encode() if status == 200 else b"{}"
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if close == "header":
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(body)
        if close == "silent":
            self.close_connection = True

    def do_CONNECT(self):
        with self.server.lock:
            self.server.seen.append(
                (self.client_address, "CONNECT", self.path, dict(self.headers), None)
            )
        self.send_response(502)
        self.send_header("Content-Length", "0")
        self.end_headers()
        self.close_connection = True

    def log_message(self, *args):
        pass


@pytest.fixture
def keepalive_server():
    """A keep-alive ``_KeepAliveHandler`` server and its /generate URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), _KeepAliveHandler)
    server.daemon_threads = True
    server.lock = threading.Lock()
    server.seen, server.script, server.text = [], [], "out;"
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield server, f"http://127.0.0.1:{server.server_port}/generate"
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()


def random_value(rng: random.Random, max_tokens: int = 2) -> tuple[str, ...]:
    return tuple(
        rng.choice(WORDS) for _ in range(rng.randint(1, max_tokens))
    )


def random_tree(
    rng: random.Random,
    dialect: Dialect,
    max_depth: int = 3,
    max_children: int = 4,
) -> ParseTree:
    """Arbitrary well-formed tree for round-trip and property tests."""

    def intent_label() -> str:
        base = rng.choice(LABELS).upper()
        return f"IN:{base}" if dialect is Dialect.MTOP_BRACKET else base.capitalize()

    def slot_label() -> str:
        base = rng.choice(LABELS).upper()
        return f"SL:{base}" if dialect is Dialect.MTOP_BRACKET else base.capitalize()

    def slot(depth: int) -> Node:
        # Nested intents inside slots (compositional parses) only exist in
        # the bracket dialect; the parenthesis dialect derives node kind
        # from child shapes, so a slot there always holds tokens.
        if depth > 0 and dialect is Dialect.MTOP_BRACKET and rng.random() < 0.2:
            return Slot(slot_label(), (intent(depth - 1),))
        return Slot(slot_label(), tuple(Token(t) for t in random_value(rng)))

    def intent(depth: int) -> Node:
        n = rng.randint(0 if depth == 0 else 1, max_children)
        kids = []
        for _ in range(n):
            if depth == 0:
                kids.append(slot(0))
            else:
                roll = rng.random()
                if roll < 0.5:
                    kids.append(slot(depth - 1))
                elif roll < 0.75:
                    kids.append(intent(depth - 1))
                else:
                    kids.append(slot(0))
        return Intent(intent_label(), tuple(kids))

    return ParseTree(intent(max_depth - 1), dialect)


def shuffle_siblings(tree: ParseTree, rng: random.Random) -> ParseTree:
    """Random permutation of every node's child list."""

    def shuf(node: Node) -> Node:
        if isinstance(node, Token):
            return node
        kids = [shuf(c) for c in node.children]
        rng.shuffle(kids)
        return type(node)(node.label, tuple(kids))

    return ParseTree(shuf(tree.root), tree.dialect)


def random_pizza_tree(rng: random.Random, catalog: SlotCatalog) -> ParseTree:
    """Catalog-sampled decoupled order tree in template frame order."""

    def slot(label: str, value: str) -> Slot:
        return Slot(label, tuple(Token(t) for t in value.split()))

    def pick(label: str) -> str:
        return rng.choice(catalog.values(label))

    def pizza() -> Intent:
        kids: list[Node] = [slot("Number", pick("Number"))]
        if rng.random() < 0.7:
            kids.append(slot("Size", pick("Size")))
        if rng.random() < 0.3:
            kids.append(slot("Style", pick("Style")))
        n_items = rng.randint(0, 3)
        toppings = rng.sample(catalog.values("Topping"), k=max(n_items, 0))
        for value in toppings:
            roll = rng.random()
            if roll < 0.15:
                kids.append(
                    Intent(
                        "Complex_topping",
                        (slot("Quantity", pick("Quantity")), slot("Topping", value)),
                    )
                )
            elif roll < 0.3:
                kids.append(Intent("Not", (slot("Topping", value),)))
            else:
                kids.append(slot("Topping", value))
        if rng.random() < 0.15:
            kids.append(Intent("Not", (slot("Style", pick("Style")),)))
        return Intent("Pizzaorder", tuple(kids))

    def drink() -> Intent:
        kids: list[Node] = [slot("Number", pick("Number"))]
        if rng.random() < 0.4:
            kids.append(slot("Size", pick("Size")))
        if rng.random() < 0.4:
            kids.append(slot("Containertype", pick("Containertype")))
        kids.append(slot("Drinktype", pick("Drinktype")))
        return Intent("Drinkorder", tuple(kids))

    suborders: list[Node] = [pizza()]
    if rng.random() < 0.5:
        suborders.append(drink())
    return ParseTree(Intent("Order", tuple(suborders)), Dialect.PIZZA_PAREN)


def random_encodable_example(
    rng: random.Random, words: tuple[str, ...] = WORDS
) -> tuple[str, ParseTree]:
    """(text, parse) whose slot values are disjoint contiguous token spans.

    A small ``words`` makes slots with equal values, and repeated values in
    the text, common.
    """
    n = rng.randint(3, 10)
    tokens = [rng.choice(words) for _ in range(n)]
    # Carve non-overlapping spans out of the token list.
    starts = list(range(n))
    rng.shuffle(starts)
    spans: list[tuple[int, int]] = []
    taken = [False] * n
    for start in starts[: rng.randint(1, 3)]:
        end = min(n, start + rng.randint(1, 2))
        if any(taken[start:end]):
            continue
        for i in range(start, end):
            taken[i] = True
        spans.append((start, end))
    spans.sort()
    slots = tuple(
        Slot(f"SL:F{i}", tuple(Token(t) for t in tokens[a:b]))
        for i, (a, b) in enumerate(spans)
    )
    tree = ParseTree(Intent("IN:THING", slots), Dialect.MTOP_BRACKET)
    return " ".join(tokens), tree
