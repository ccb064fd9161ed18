"""Shared test helpers and the acceptance summary printer."""

from __future__ import annotations

import json
import random
import socket
import threading
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from idsgate.events import Corpus, Event, LayerId, ScoredEvent, ScoredStream

# Populated by tests in test_acceptance.py; the partition check walks
# every routed run registered here.
ACCEPTANCE_RUNS: list[tuple[str, object]] = []


def dead_endpoint_url() -> str:
    """A loopback URL with no listener: connecting is refused at once."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    return f"http://127.0.0.1:{port}"


@contextmanager
def serve(handler):
    """Serve ``handler`` on a loopback port; yields the base URL."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    # A short poll keeps shutdown() from waiting out the default half second.
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_address[1]}"
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=2)
    assert not thread.is_alive()


@contextmanager
def generate_server(answer):
    """An HTTP/1.1 generate endpoint that keeps connections open and
    replies ``answer(prompt)``; yields the base URL and the list of the
    connections it accepted."""
    accepted: list = []

    class Handler(BaseHTTPRequestHandler):
        protocol_version = "HTTP/1.1"
        disable_nagle_algorithm = True  # no delayed-ACK stall on reused connections

        def setup(self):
            super().setup()
            accepted.append(self.client_address)

        def do_POST(self):
            body = self.rfile.read(int(self.headers["Content-Length"]))
            payload = json.dumps({"response": answer(json.loads(body)["prompt"])}).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)

        def log_message(self, *args):
            pass

    with serve(Handler) as url:
        yield url, accepted


def make_event(
    event_id: str = "network-0",
    layer: LayerId = LayerId.NETWORK,
    raw: str = "proto=tcp port=443",
    truth: int | None = None,
    truth_class: str | None = None,
    features: np.ndarray | None = None,
) -> Event:
    return Event(
        id=event_id,
        layer=layer,
        raw=raw,
        features=features if features is not None else np.zeros(4),
        truth=truth,
        truth_class=truth_class,
    )


def make_corpus(events: list[Event]) -> Corpus:
    """The corpus whose row i is ``events[i]``: their records as its texts
    and their feature vectors stacked, all of one layer."""
    layers = {e.layer for e in events} or {LayerId.NETWORK}
    assert len(layers) == 1, f"a corpus holds one layer, not {sorted(layers)}"
    return Corpus(
        layers.pop(),
        [e.id for e in events],
        [e.truth for e in events],
        [e.truth_class for e in events],
        np.array([e.features for e in events]),
        [e.raw for e in events],
    )


def make_scored(
    confidence: float,
    pred_label: int = 0,
    truth: int | None = None,
    event_id: str = "network-0",
    layer: LayerId = LayerId.NETWORK,
    raw: str = "proto=tcp port=443",
) -> ScoredEvent:
    return ScoredEvent(
        event=make_event(event_id, layer, raw, truth),
        pred_label=pred_label,
        confidence=confidence,
    )


def make_stream(rows: list[ScoredEvent]) -> ScoredStream:
    """The scored stream whose row i is ``rows[i]``."""
    return ScoredStream(
        make_corpus([se.event for se in rows]),
        np.array([se.pred_label for se in rows], np.int8),
        np.array([se.confidence for se in rows], np.float64),
    )


def hidslike_stream(seed: int, n: int, prefix: str) -> ScoredStream:
    """Diffuse host-layer confidence stream for routing experiments.

    Three bands: a small unreliable one just under 0.62, a wide
    mostly-correct mid band, and a confident top band.  The mid mass
    forces a fixed 0.85 threshold to over-escalate while an adaptive
    threshold near 0.62 keeps it local safely.
    """
    rng = random.Random(seed)
    out: list[ScoredEvent] = []
    for i in range(n):
        u = rng.random()
        if u < 0.15:
            conf = 0.55 + rng.random() * 0.07
            p_correct = 0.05
        elif u < 0.55:
            conf = 0.62 + rng.random() * 0.23
            p_correct = 0.97
        else:
            conf = 0.85 + rng.random() * 0.14
            p_correct = 0.995
        pred = 1 if rng.random() < 0.5 else 0
        truth = pred if rng.random() < p_correct else 1 - pred
        raw = " ".join(f"tok{rng.randrange(1 << 28):07x}" for _ in range(8))
        event = Event(
            id=f"{prefix}-{i}",
            layer=LayerId.HOST,
            raw=raw,
            features=np.zeros(1),
            truth=truth,
            truth_class="synthetic_attack" if truth == 1 else None,
        )
        out.append(ScoredEvent(event=event, pred_label=pred, confidence=round(conf, 4)))
    return make_stream(out)


_ACCEPTANCE_RESULTS: dict[str, str] = {}


def pytest_runtest_logreport(report):
    if "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1].removeprefix("test_")
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASSED" if report.passed else "FAILED"
    elif report.when == "setup" and (report.failed or report.skipped):
        _ACCEPTANCE_RESULTS[name] = "FAILED"


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"ACCEPTANCE {name}: {outcome}")
