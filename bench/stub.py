"""Replaying HTTP generation backend with a fixed injected latency.

Run as ``python3 bench/stub.py --replay FILE --latency SECONDS --port-file
FILE``. It answers ``POST`` requests in the ``clasp`` HTTP backend protocol
with outputs recorded from the mock backend, keyed by prompt text, after
sleeping ``--latency`` seconds. ``GET /stats`` returns the number of
generation requests received, which is how retries are counted. The bound
port is written to ``--port-file`` once the server listens.
"""

from __future__ import annotations

import argparse
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Without this a keep-alive response sent as two writes waits for the
    # client's delayed ACK (~40 ms) before its body leaves the host.
    disable_nagle_algorithm = True

    def do_POST(self) -> None:
        length = int(self.headers["Content-Length"])
        payload = json.loads(self.rfile.read(length))
        with self.server.lock:
            self.server.requests += 1
        time.sleep(self.server.latency)
        body = self.server.replay.get(payload.get("prompt"))
        self._send(200 if body is not None else 404, body or b"{}")

    def do_GET(self) -> None:
        with self.server.lock:
            count = self.server.requests
        self._send(200, json.dumps({"requests": count}).encode())

    def _send(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args) -> None:
        pass


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--replay", required=True, help="JSON {prompt: outputs}")
    ap.add_argument("--latency", type=float, required=True)
    ap.add_argument("--port-file", required=True)
    args = ap.parse_args()
    with open(args.replay, encoding="utf-8") as fh:
        replay = {
            prompt: json.dumps({"outputs": outputs}).encode()
            for prompt, outputs in json.load(fh).items()
        }
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    server.daemon_threads = True
    server.replay = replay
    server.latency = args.latency
    server.lock = threading.Lock()
    server.requests = 0
    tmp = args.port_file + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(str(server.server_port))
    os.replace(tmp, args.port_file)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()


if __name__ == "__main__":
    main()
