"""Ollama-style LLM stub for the llm-http workload, run in its own process.

``POST /api/generate`` sleeps for a fixed delay and then answers exactly
as ``EchoLlmClient`` (confidence 0.9) would for the prompt, using the
ground truth of the corpora in ``--data``.  ``GET /stats`` returns the
number of requests served, the number answered with a status other than
200, and the service time of every request in milliseconds.

It prints ``PORT <n>`` on standard output once it listens, and serves
until it is terminated.  It speaks HTTP/1.1 and keeps a connection open
when the client asks for it.  Connections are served one thread each;
the pipeline opens at most ``llm_parallelism`` at a time.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

ECHO_CONFIDENCE = 0.9


class Stats:
    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.non_200 = 0
        self.service_ms: list[float] = []

    def record(self, status: int, ms: float) -> None:
        with self.lock:
            self.requests += 1
            self.non_200 += status != 200
            self.service_ms.append(ms)

    def snapshot(self) -> dict:
        with self.lock:
            return {
                "requests": self.requests,
                "non_200": self.non_200,
                "service_ms": list(self.service_ms),
            }


def make_handler(echo, delay_s: float, stats: Stats):
    class Handler(BaseHTTPRequestHandler):
        # Keep-alive whenever the client offers it, so a client that reuses
        # its connection does not pay a new one per call.  Each reply leaves
        # in one send (buffered writer, flushed after the handler) without
        # Nagle's delay, as from a real server: otherwise the body written
        # after the headers waits on the client's delayed ACK, about 40 ms
        # per call on a kept-alive connection.
        protocol_version = "HTTP/1.1"
        wbufsize = 1 << 16
        disable_nagle_algorithm = True

        def _reply(self, status: int, body: dict) -> None:
            data = json.dumps(body).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def do_POST(self) -> None:
            start = time.perf_counter()
            status, body = 404, {"error": "unknown path"}
            try:
                # Read the whole body even on error, so that the next request
                # on a kept-alive connection starts where it should.
                raw = self.rfile.read(int(self.headers.get("Content-Length", "0")))
            except ValueError:
                status, body = 400, {"error": "bad Content-Length"}
                self.close_connection = True
            else:
                if self.path == "/api/generate":
                    try:
                        prompt = json.loads(raw)["prompt"]
                    except (ValueError, KeyError, TypeError):
                        status, body = 400, {"error": "bad request body"}
                    else:
                        time.sleep(delay_s)
                        status, body = 200, {"response": echo.generate(prompt), "done": True}
            self._reply(status, body)
            stats.record(status, (time.perf_counter() - start) * 1e3)

        def do_GET(self) -> None:
            if self.path == "/stats":
                self._reply(200, stats.snapshot())
            else:
                self._reply(404, {"error": "unknown path"})

        def log_message(self, fmt, *args) -> None:
            pass

    return Handler


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", required=True, help="corpora directory")
    parser.add_argument("--delay-ms", type=float, required=True)
    args = parser.parse_args()

    from idsgate.experiment import load_events
    from idsgate.llm import EchoLlmClient
    from idsgate.pipeline import LAYER_ORDER

    truths: dict[str, int] = {}
    attack_types: dict[str, str] = {}
    for layer in LAYER_ORDER:
        for e in load_events(layer, args.data):
            if e.truth is not None:
                truths[e.id] = e.truth
            if e.truth_class:
                attack_types[e.id] = e.truth_class
    echo = EchoLlmClient(truths, ECHO_CONFIDENCE, attack_types)
    stats = Stats()
    server = ThreadingHTTPServer(
        ("127.0.0.1", 0), make_handler(echo, args.delay_ms / 1e3, stats)
    )
    server.daemon_threads = True
    print(f"PORT {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
