import base64
import hashlib
import json
import math
import os
import random
import sys
import threading
import time
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import dead_endpoint_url, generate_server, make_scored, serve
from idsgate.events import LayerId, Sink, Verdict
from idsgate.llm import (
    DEFAULT_MOCK_RESPONSE,
    BadFusionWeights,
    EchoLlmClient,
    FusionConfig,
    Gate3Decision,
    HttpLlmClient,
    LlmCalibration,
    LlmHttpError,
    LlmSample,
    LlmThresholds,
    LlmTimeout,
    LlmVerdict,
    MockLlmClient,
    Provenance,
    build_prompt,
    calibrate_llm_threshold,
    default_threshold_grid,
    fuse,
    gate3_decide,
    parse_verdict,
    prompt_sha256,
)
from idsgate.memory import MatchResult


def test_prompt_sha256_matches_hashlib():
    text = "some prompt\nwith lines"
    assert prompt_sha256(text) == hashlib.sha256(text.encode()).hexdigest()


def test_build_prompt_carries_payload_and_id():
    se = make_scored(0.62, pred_label=1, raw="Dst Port=21, Protocol=6", event_id="network-7")
    prompt = build_prompt(se)
    assert "Dst Port=21, Protocol=6" in prompt
    assert "event_id: network-7" in prompt
    assert "label=ATTACK confidence=0.6200" in prompt
    assert "no stored attack patterns" in prompt


def test_build_prompt_reports_memory_neighborhood():
    se = make_scored(0.55, pred_label=0)
    match = MatchResult(matched=False, nearest_distance=0.2341, support=2, meta_confidence=0.3)
    prompt = build_prompt(se, match)
    assert "distance 0.2341" in prompt
    assert "support 2" in prompt


def test_build_prompt_is_deterministic():
    se = make_scored(0.55)
    match = MatchResult(matched=False, nearest_distance=math.inf, support=0, meta_confidence=0.0)
    assert build_prompt(se) == build_prompt(se)
    # An empty-store lookup reads the same as no lookup at all.
    assert build_prompt(se, match) == build_prompt(se)


def test_build_prompt_empty_payload_placeholder():
    se = make_scored(0.55, raw="")
    assert "(no payload)" in build_prompt(se)


def test_parse_verdict_valid():
    v = parse_verdict('{"label": "ATTACK", "confidence": 0.83, "attack_type": "ddos", "explanation": "burst"}')
    assert v.decision is Verdict.ATTACK
    assert v.confidence == 0.83
    assert v.attack_type == "ddos"
    assert v.explanation == "burst"


def test_parse_verdict_label_case_insensitive():
    assert parse_verdict('{"label": "benign", "confidence": 0.9}').decision is Verdict.BENIGN


def test_parse_verdict_extracts_json_from_prose():
    text = 'Here is my answer:\n{"label": "UNSURE", "confidence": 0.2}\nLet me know.'
    v = parse_verdict(text)
    assert v.decision is Verdict.UNSURE
    assert v.confidence == 0.2
    assert v.raw == text


def test_parse_verdict_takes_first_json_object():
    text = '[1, 2] {"label": "ATTACK", "confidence": 0.7} {"label": "BENIGN", "confidence": 0.1}'
    assert parse_verdict(text).decision is Verdict.ATTACK


def test_parse_verdict_garbage_is_unsure():
    v = parse_verdict("I cannot help with that.")
    assert v.decision is Verdict.UNSURE
    assert v.confidence == 0.0
    assert v.raw == "I cannot help with that."


def test_parse_verdict_unknown_label_is_unsure():
    assert parse_verdict('{"label": "MALWARE", "confidence": 0.9}').decision is Verdict.UNSURE


def test_parse_verdict_clamps_confidence():
    assert parse_verdict('{"label": "ATTACK", "confidence": 1.5}').confidence == 1.0
    assert parse_verdict('{"label": "ATTACK", "confidence": -0.2}').confidence == 0.0


def test_parse_verdict_bad_confidence_values():
    assert parse_verdict('{"label": "ATTACK", "confidence": "high"}').confidence == 0.0
    assert parse_verdict('{"label": "ATTACK", "confidence": Infinity}').confidence == 0.0
    assert parse_verdict('{"label": "ATTACK"}').confidence == 0.0
    assert parse_verdict('{"label": "ATTACK", "confidence": null}').confidence == 0.0


def test_parse_verdict_never_raises_on_fuzz():
    rng = random.Random(13)
    alphabet = '{}[]":,respone labl confidence ATTACK 0.5 \n'
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randrange(60)))
        v = parse_verdict(text)
        assert v.decision in (Verdict.ATTACK, Verdict.BENIGN, Verdict.UNSURE)
        assert 0.0 <= v.confidence <= 1.0


def sweep_oracle(samples, grid, p_min):
    """Exhaustive reference for the precision-floor threshold pick."""
    n_attacks = sum(1 for s in samples if s.truth == 1)
    feasible = []
    for t in grid:
        predicted = [s for s in samples if s.decision is Verdict.ATTACK and s.confidence >= t]
        tp = sum(1 for s in predicted if s.truth == 1)
        precision = tp / len(predicted) if predicted else 0.0
        if precision >= p_min:
            feasible.append((t, tp / n_attacks))
    if not feasible:
        return None
    best_recall = max(r for _, r in feasible)
    return min(t for t, r in feasible if r == best_recall), best_recall


def constructed_samples():
    """Hand-built set whose unique optimum is t = 0.70.

    Below 0.70 the 0.695-confidence false alarms drag precision to
    90/113 just under the floor; at 0.70 precision is 90/106 with
    recall 0.90, and any higher threshold loses recall or ties upward.
    """
    samples = []
    samples += [LlmSample(0.85, Verdict.ATTACK, 1)] * 70
    samples += [LlmSample(0.75, Verdict.ATTACK, 1)] * 20
    samples += [LlmSample(0.6, Verdict.BENIGN, 1)] * 10
    samples += [LlmSample(0.85, Verdict.ATTACK, 0)] * 7
    samples += [LlmSample(0.75, Verdict.ATTACK, 0)] * 9
    samples += [LlmSample(0.695, Verdict.ATTACK, 0)] * 7
    return samples


def test_calibrate_llm_threshold_worked_example():
    cal = calibrate_llm_threshold(constructed_samples())
    assert cal.feasible is True
    assert cal.threshold == 0.70
    assert cal.recall == pytest.approx(0.90)
    assert cal.precision == pytest.approx(90 / 106)


def test_calibrate_llm_threshold_matches_sweep_oracle():
    rng = random.Random(99)
    grid = default_threshold_grid()
    for trial in range(50):
        samples = []
        for i in range(rng.randrange(5, 60)):
            truth = rng.randrange(2)
            decision = rng.choice([Verdict.ATTACK, Verdict.ATTACK, Verdict.BENIGN, Verdict.UNSURE])
            samples.append(LlmSample(round(rng.random(), 3), decision, truth))
        if not any(s.truth == 1 for s in samples):
            samples.append(LlmSample(0.5, Verdict.UNSURE, 1))
        cal = calibrate_llm_threshold(samples)
        expected = sweep_oracle(samples, grid, 0.80)
        if expected is None:
            assert cal.feasible is False
            assert cal.threshold == max(grid)
        else:
            assert cal.feasible is True
            assert (cal.threshold, cal.recall) == (expected[0], pytest.approx(expected[1]))


def test_calibrate_llm_threshold_infeasible():
    samples = [LlmSample(0.9, Verdict.ATTACK, 1)] + [LlmSample(0.95, Verdict.ATTACK, 0)] * 9
    cal = calibrate_llm_threshold(samples)
    assert cal.feasible is False
    assert cal.threshold == 0.95


def test_calibrate_llm_threshold_without_attacks_is_infeasible():
    cal = calibrate_llm_threshold([LlmSample(0.9, Verdict.ATTACK, 0)] * 3)
    assert cal == LlmCalibration(threshold=0.95, feasible=False, precision=0.0, recall=0.0)
    assert calibrate_llm_threshold([]) == cal


def test_default_threshold_grid_span():
    grid = default_threshold_grid()
    assert len(grid) == 91
    assert grid[0] == 0.05
    assert grid[-1] == 0.95


def test_fuse_worked_example_is_exact():
    assert fuse(0.5, 0.7, FusionConfig()) == 0.66


def test_fuse_stays_within_convex_bounds():
    fc = FusionConfig()
    rng = random.Random(21)
    for _ in range(1000):
        a, b = rng.random(), rng.random()
        fused = fuse(a, b, fc)
        assert min(a, b) - 1e-12 <= fused <= max(a, b) + 1e-12


def test_fuse_rejects_bad_weights():
    fc = FusionConfig(w_model=0.3, w_llm=0.3)
    with pytest.raises(BadFusionWeights):
        fuse(0.5, 0.5, fc)


DIRECT_ATTACK = Gate3Decision(Sink.LLM_ATTACK, Provenance.DIRECT)
DIRECT_REVIEW = Gate3Decision(Sink.REVIEW_BUCKET, Provenance.DIRECT)
REVIEW = Gate3Decision(Sink.REVIEW_BUCKET, Provenance.NONE)


def fusion(fused):
    return Gate3Decision(Sink.LLM_ATTACK, Provenance.FUSION, fused)


def fused_review(fused):
    return Gate3Decision(Sink.REVIEW_BUCKET, Provenance.NONE, fused)


# Default host thresholds: LLM 0.61, fusion 0.2 * model + 0.8 * LLM.
@pytest.mark.parametrize(
    "c_model, verdict, c_llm, layer, fusion_tau, expected",
    [
        (0.5, Verdict.ATTACK, 0.61, LayerId.HOST, {}, DIRECT_ATTACK),
        (0.5, Verdict.ATTACK, 0.609, LayerId.HOST, {}, fused_review(0.5872)),
        (0.5, Verdict.BENIGN, 0.61, LayerId.HOST, {}, DIRECT_REVIEW),
        (0.5, Verdict.BENIGN, 0.5, LayerId.HOST, {}, REVIEW),
        (0.5, Verdict.UNSURE, 0.99, LayerId.HOST, {}, REVIEW),
        (0.5, Verdict.ATTACK, 0.75, LayerId.NETWORK, {}, DIRECT_ATTACK),
        (0.5, Verdict.ATTACK, 0.75, LayerId.HYPERVISOR, {}, fused_review(0.7)),
        (0.5, Verdict.ATTACK, 0.605, LayerId.HOST, {}, fused_review(0.584)),
        (0.82, Verdict.ATTACK, 0.6, LayerId.HOST, {}, fusion(0.644)),
        # 0.2 * 0.65 + 0.8 * 0.6 lands exactly on the 0.61 cutoff; the
        # comparison is done in decimal rationals, not floats.
        (0.65, Verdict.ATTACK, 0.6, LayerId.HOST, {}, fusion(0.61)),
        (0.82, Verdict.ATTACK, 0.6, LayerId.HOST, {LayerId.HOST: 0.65}, fused_review(0.644)),
        (0.5, Verdict.ATTACK, 0.605, LayerId.HOST, {LayerId.HOST: 0.5}, fusion(0.584)),
        (0.5, Verdict.ATTACK, 0.605, LayerId.HOST, {LayerId.NETWORK: 0.5}, fused_review(0.584)),
    ],
    ids=[
        "attack-at-tau", "attack-below-tau", "benign-at-tau", "benign-below-tau",
        "unsure-is-never-direct", "network-tau", "hypervisor-tau", "fused-below-tau",
        "fused-above-tau", "fused-exactly-at-tau", "pinned-fusion-tau-above",
        "pinned-fusion-tau-below", "pinned-other-layer",
    ],
)
def test_gate3_decide(c_model, verdict, c_llm, layer, fusion_tau, expected):
    d = gate3_decide(
        make_scored(c_model, pred_label=1),
        LlmVerdict(verdict, c_llm),
        layer,
        LlmThresholds(),
        FusionConfig(fusion_tau=fusion_tau),
    )
    assert d == expected


def test_gate3_decide_direct_attack():
    d = gate3_decide(make_scored(0.6), LlmVerdict(Verdict.ATTACK, 0.9), LayerId.HOST, LlmThresholds(), FusionConfig())
    assert d.sink is Sink.LLM_ATTACK
    assert d.provenance is Provenance.DIRECT
    assert d.fused_score is None


def test_gate3_decide_confident_benign_still_reviewed():
    d = gate3_decide(make_scored(0.6), LlmVerdict(Verdict.BENIGN, 0.9), LayerId.HOST, LlmThresholds(), FusionConfig())
    assert d.sink is Sink.REVIEW_BUCKET
    assert d.provenance is Provenance.DIRECT


def test_gate3_decide_fusion_promotion():
    # ATTACK at 0.58 misses the 0.61 direct cutoff; the strong model
    # score pulls the fused value to 0.644, over the fusion threshold.
    d = gate3_decide(
        make_scored(0.9, pred_label=1), LlmVerdict(Verdict.ATTACK, 0.58), LayerId.HOST, LlmThresholds(), FusionConfig()
    )
    assert d.sink is Sink.LLM_ATTACK
    assert d.provenance is Provenance.FUSION
    assert d.fused_score == pytest.approx(0.644)


def test_gate3_decide_fusion_rejection():
    d = gate3_decide(
        make_scored(0.42, pred_label=1), LlmVerdict(Verdict.ATTACK, 0.55), LayerId.HOST, LlmThresholds(), FusionConfig()
    )
    assert d.sink is Sink.REVIEW_BUCKET
    assert d.provenance is Provenance.NONE
    assert d.fused_score == pytest.approx(0.524)


def test_gate3_decide_unsure_goes_to_review():
    d = gate3_decide(make_scored(0.6), LlmVerdict(Verdict.UNSURE, 0.0), LayerId.HOST, LlmThresholds(), FusionConfig())
    assert d.sink is Sink.REVIEW_BUCKET
    assert d.provenance is Provenance.NONE
    assert d.fused_score is None


def test_mock_client_answers_by_prompt_hash():
    prompt = build_prompt(make_scored(0.6, event_id="host-3"))
    client = MockLlmClient({prompt_sha256(prompt): '{"label": "ATTACK", "confidence": 0.9}'})
    assert client.generate(prompt) == '{"label": "ATTACK", "confidence": 0.9}'
    assert client.generate("something else") == DEFAULT_MOCK_RESPONSE
    assert client.calls == 2


def test_mock_client_from_jsonl(tmp_path):
    path = tmp_path / "table.jsonl"
    rows = [
        {"prompt_sha256": prompt_sha256("p1"), "response": "r1"},
        {"prompt_sha256": prompt_sha256("p2"), "response": "r2"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n\n")
    client = MockLlmClient.from_jsonl(str(path))
    assert client.generate("p1") == "r1"
    assert client.generate("p2") == "r2"


@pytest.mark.parametrize(
    "line, message",
    [
        ('{"prompt_sha256": "ab"', "Expecting ',' delimiter"),
        ("{}", "not an object with string prompt_sha256 and response"),
        ('["ab", "r"]', "not an object with string prompt_sha256 and response"),
        ('{"prompt_sha256": "ab", "response": null}', "not an object with string"),
        ('{"prompt_sha256": 7, "response": "r"}', "not an object with string"),
    ],
    ids=["not-json", "no-keys", "not-object", "response-null", "hash-not-string"],
)
def test_mock_client_from_jsonl_names_the_bad_line(tmp_path, line, message):
    path = tmp_path / "table.jsonl"
    good = json.dumps({"prompt_sha256": prompt_sha256("p1"), "response": "r1"})
    path.write_text(f"{good}\n\n{line}\n")
    with pytest.raises(ValueError) as exc:
        MockLlmClient.from_jsonl(str(path))
    assert str(exc.value).startswith(f"{path}:3: {message}")


def test_echo_client_reads_truth_from_prompt():
    se = make_scored(0.6, pred_label=0, event_id="host-9")
    client = EchoLlmClient({"host-9": 1}, confidence=0.88, attack_types={"host-9": "webshell"})
    v = parse_verdict(client.generate(build_prompt(se)))
    assert v.decision is Verdict.ATTACK
    assert v.confidence == 0.88
    assert v.attack_type == "webshell"


def test_echo_client_benign_truth():
    se = make_scored(0.6, pred_label=1, event_id="host-10")
    v = parse_verdict(EchoLlmClient({"host-10": 0}).generate(build_prompt(se)))
    assert v.decision is Verdict.BENIGN


def test_echo_client_unknown_event_is_unsure():
    se = make_scored(0.6, event_id="host-404")
    client = EchoLlmClient({"host-9": 1})
    assert parse_verdict(client.generate(build_prompt(se))).decision is Verdict.UNSURE
    assert parse_verdict(client.generate("prompt with no id line")).decision is Verdict.UNSURE
    assert client.calls == 2


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Serves a scripted list of (status, body) responses in order."""

    script = []
    seen = []
    requests = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        type(self).seen.append(json.loads(self.rfile.read(length)))
        type(self).requests.append((self.requestline, dict(self.headers)))
        status, body = self.script.pop(0) if self.script else (200, "{}")
        if status is None:
            return  # close the connection without a reply
        if body is None:
            time.sleep(0.8)  # outlast the client's read timeout
            return
        payload = body.encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def do_CONNECT(self):
        type(self).requests.append((self.requestline, dict(self.headers)))
        self.send_error(403)

    def log_message(self, *args):
        pass


@contextmanager
def scripted_server(script):
    handler = type(
        "Handler",
        (_ScriptedHandler,),
        {"script": list(script), "seen": [], "requests": []},
    )
    with serve(handler) as url:
        yield url, handler


def test_http_client_posts_generate_request():
    body = json.dumps({"response": '{"label": "BENIGN", "confidence": 0.8}'})
    with scripted_server([(200, body)]) as (url, handler):
        client = HttpLlmClient(url + "/", model="llama3")
        reply = client.generate("classify this")
        assert reply == '{"label": "BENIGN", "confidence": 0.8}'
        assert handler.seen == [{"model": "llama3", "prompt": "classify this", "stream": False}]
        ((line, headers),) = handler.requests
        assert line == "POST /api/generate HTTP/1.1"
        assert headers["Content-Type"] == "application/json"


def test_http_client_retries_server_errors():
    body = json.dumps({"response": "ok"})
    with scripted_server([(503, "busy"), (200, body)]) as (url, _):
        client = HttpLlmClient(url, model="m", retries=2, backoff=0.01)
        assert client.generate("p") == "ok"


def test_http_client_retries_dropped_connections():
    body = json.dumps({"response": "ok"})
    with scripted_server([(None, None), (200, body)]) as (url, handler):
        client = HttpLlmClient(url, model="m", retries=2, backoff=0.01)
        assert client.generate("p") == "ok"
        assert len(handler.seen) == 2


def test_http_client_dead_endpoint_is_http_error():
    client = HttpLlmClient(dead_endpoint_url(), model="m", retries=1, backoff=0.01)
    with pytest.raises(LlmHttpError):
        client.generate("p")


def test_http_client_connect_timeout_is_timeout(monkeypatch):
    # A connect timeout surfaces from socket.create_connection as TimeoutError.
    def no_connect(*args, **kwargs):
        raise TimeoutError("timed out")

    monkeypatch.setattr("socket.create_connection", no_connect)
    client = HttpLlmClient("http://127.0.0.1:9", model="m", retries=1, backoff=0.01)
    with pytest.raises(LlmTimeout):
        client.generate("p")


def test_http_client_gives_up_after_retries():
    with scripted_server([(500, "e")] * 3) as (url, _):
        client = HttpLlmClient(url, model="m", retries=2, backoff=0.01)
        with pytest.raises(LlmHttpError):
            client.generate("p")


def test_http_client_timeout():
    with scripted_server([(200, None), (200, None)]) as (url, _):
        client = HttpLlmClient(url, model="m", timeout=0.2, retries=1, backoff=0.01)
        with pytest.raises(LlmTimeout):
            client.generate("p")


def test_http_client_unexpected_status_fails_fast():
    with scripted_server([(404, "missing")]) as (url, handler):
        client = HttpLlmClient(url, model="m", retries=2, backoff=0.01)
        with pytest.raises(LlmHttpError):
            client.generate("p")
        assert len(handler.seen) == 1  # no retry on a 4xx


def test_http_client_rejects_malformed_body():
    bodies = [
        "not json",
        '{"wrong_key": 1}',
        "[1, 2]",
        '"str"',
        '{"response": 5}',
        '{"response": null}',
    ]
    for body in bodies:
        with scripted_server([(200, body)]) as (url, handler):
            with pytest.raises(LlmHttpError, match="malformed response body"):
                HttpLlmClient(url, model="m").generate("p")
            assert len(handler.seen) == 1  # no retry on a bad body


def test_http_client_does_not_follow_redirects():
    with scripted_server([(302, "elsewhere")]) as (url, handler):
        client = HttpLlmClient(url, model="m", retries=2, backoff=0.01)
        with pytest.raises(LlmHttpError, match="unexpected status 302"):
            client.generate("p")
        assert len(handler.seen) == 1


def test_http_client_reuses_its_connection():
    with generate_server(str.upper) as (url, accepted):
        client = HttpLlmClient(url, model="m")
        assert [client.generate(p) for p in ("a", "b", "c")] == ["A", "B", "C"]
        client.close()
    assert len(accepted) == 1


class _CloseAfterReplyHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 replies that leave the connection open, as far as the
    client can tell, and then a silent close."""

    protocol_version = "HTTP/1.1"
    served = 0

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        payload = json.dumps({"response": "ok"}).encode("utf-8")
        self.send_response(200)
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)
        type(self).served += 1
        self.close_connection = True

    def log_message(self, *args):
        pass


def test_http_client_resends_once_on_a_stale_connection():
    handler = type("Handler", (_CloseAfterReplyHandler,), {"served": 0})
    with serve(handler) as url:
        client = HttpLlmClient(url, model="m", retries=0, backoff=60.0)
        start = time.perf_counter()
        assert [client.generate("p") for _ in range(3)] == ["ok"] * 3
        assert time.perf_counter() - start < 30.0  # no backoff sleep
        client.close()
    assert handler.served == 3


def test_http_client_does_not_resend_on_a_fresh_connection():
    with scripted_server([(None, None)]) as (url, handler):
        client = HttpLlmClient(url, model="m", retries=0)
        with pytest.raises(LlmHttpError):
            client.generate("p")
        assert len(handler.seen) == 1


@pytest.fixture
def proxy_env(monkeypatch):
    """No proxy variable of the surrounding environment leaks into a test."""
    for name in list(os.environ):
        if name.lower().endswith("_proxy"):
            monkeypatch.delenv(name)
    return monkeypatch


def test_http_client_posts_through_the_environment_proxy(proxy_env):
    body = json.dumps({"response": "ok"})
    with scripted_server([(200, body)]) as (proxy_url, proxy):
        proxy_env.setenv("http_proxy", proxy_url.replace("http://", "http://user:p%40ss@"))
        client = HttpLlmClient("http://llm.test:11434", model="m", retries=0)
        assert client.generate("p") == "ok"
    ((line, headers),) = proxy.requests
    assert line == "POST http://llm.test:11434/api/generate HTTP/1.1"
    assert headers["Host"] == "llm.test:11434"
    assert headers["Proxy-Authorization"] == "Basic " + base64.b64encode(b"user:p@ss").decode()


def test_http_client_tunnels_https_through_the_proxy(proxy_env):
    with scripted_server([]) as (proxy_url, proxy):
        proxy_env.setenv("https_proxy", proxy_url)
        client = HttpLlmClient("https://llm.test", model="m", retries=0)
        with pytest.raises(LlmHttpError, match="403"):
            client.generate("p")
    assert [line for line, _ in proxy.requests] == ["CONNECT llm.test:443 HTTP/1.0"]


def test_http_client_no_proxy_bypasses_the_proxy(proxy_env):
    body = json.dumps({"response": "ok"})
    with scripted_server([]) as (proxy_url, proxy), scripted_server([(200, body)]) as (url, target):
        proxy_env.setenv("http_proxy", proxy_url)
        proxy_env.setenv("no_proxy", "127.0.0.1")
        assert HttpLlmClient(url, model="m", retries=0).generate("p") == "ok"
    assert proxy.requests == []
    assert [line for line, _ in target.requests] == ["POST /api/generate HTTP/1.1"]


def test_http_client_shares_connections_between_threads():
    threads, calls = 8, 25
    with generate_server(lambda prompt: prompt) as (url, accepted):
        client = HttpLlmClient(url, model="m")
        replies: dict[int, list[str]] = {}

        def work(t):
            replies[t] = [client.generate(f"{t}-{i}") for i in range(calls)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work, args=(t,)) for t in range(threads)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(w.is_alive() for w in workers)
        client.close()
    assert replies == {t: [f"{t}-{i}" for i in range(calls)] for t in range(threads)}
    assert len(accepted) <= threads
