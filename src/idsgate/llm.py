"""Gate-3: LLM escalation, verdict parsing, thresholding, and fusion.

Events that survive the first two gates are summarized into a prompt
and sent to an analyst model (a real HTTP endpoint or a deterministic
mock).  The reply is parsed into an (ATTACK | BENIGN | UNSURE, confidence)
verdict; a per-layer confidence threshold, calibrated under a precision
floor, decides whether the verdict is accepted directly.  An ATTACK
verdict below its threshold gets one more chance through score fusion
with the base model; everything else lands in the review bucket.

Fusion arithmetic is exact: weights and confidences are treated as the
decimal values they print as, so 0.2*0.5 + 0.8*0.7 is 0.66, not a float
approximation.
"""

from __future__ import annotations

import base64
import hashlib
import http.client
import json
import logging
import math
import re
import time
import urllib.parse
import urllib.request
import weakref
from collections.abc import Mapping
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from enum import Enum
from types import MappingProxyType

from .events import LayerId, ScoredEvent, Sink, Verdict
from .memory import MatchResult

logger = logging.getLogger(__name__)

DEFAULT_PRECISION_FLOOR = 0.80
DEFAULT_TIMEOUT = 30.0
DEFAULT_RETRIES = 2
DEFAULT_BACKOFF = 0.5

# Reference per-layer acceptance thresholds; a calibration run replaces
# them for the data actually in front of it.
DEFAULT_LLM_THRESHOLDS = {
    LayerId.NETWORK: 0.69,
    LayerId.HOST: 0.61,
    LayerId.HYPERVISOR: 0.89,
}

DEFAULT_MOCK_RESPONSE = json.dumps(
    {
        "label": "UNSURE",
        "confidence": 0.0,
        "attack_type": "",
        "explanation": "no canned response for this prompt",
    }
)

_EVENT_ID_LINE = re.compile(r"^event_id: (\S+)$", re.MULTILINE)


class LlmTimeout(RuntimeError):
    """The endpoint did not answer within the deadline (after retries)."""


class LlmHttpError(RuntimeError):
    """The endpoint answered with an error or an unusable body."""


class BadFusionWeights(ValueError):
    """Fusion weights do not sum to 1."""


@dataclass(frozen=True)
class LlmVerdict:
    decision: Verdict
    confidence: float
    attack_type: str = ""
    explanation: str = ""
    raw: str = ""


def _check_unit_interval(prefix: str, per_layer: Mapping[LayerId, float], **values: float) -> None:
    """ValueError naming the first value outside [0, 1] by its config key;
    a per-layer value is ``<prefix><layer>``."""
    values.update((prefix + layer.value, value) for layer, value in per_layer.items())
    for name, value in values.items():
        if not 0.0 <= value <= 1.0:  # NaN fails too
            raise ValueError(f"{name} must be in [0, 1], got {value}")


@dataclass(frozen=True)
class LlmThresholds:
    """Per-layer LLM acceptance thresholds plus the precision floor used
    to calibrate them.  ``tau`` is kept as a read-only copy."""

    tau: Mapping[LayerId, float] = field(
        default_factory=lambda: dict(DEFAULT_LLM_THRESHOLDS)
    )
    p_min: float = DEFAULT_PRECISION_FLOOR

    def __post_init__(self) -> None:
        object.__setattr__(self, "tau", MappingProxyType(dict(self.tau)))
        _check_unit_interval("llm_tau_", self.tau, p_min=self.p_min)


@dataclass(frozen=True)
class FusionConfig:
    """Weighted fusion of model and LLM confidence.

    The fused score is w_model * c_model + w_llm * c_llm.  ``fusion_tau``
    holds only the layers whose fusion threshold is pinned; any other
    layer fuses at its LLM threshold.  It is kept as a read-only copy.
    """

    w_model: float = 0.20
    w_llm: float = 0.80
    fusion_tau: Mapping[LayerId, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "fusion_tau", MappingProxyType(dict(self.fusion_tau)))
        _check_unit_interval("fusion_tau_", self.fusion_tau, w_model=self.w_model, w_llm=self.w_llm)


class Provenance(str, Enum):
    """How a Gate-3 outcome was reached."""

    DIRECT = "direct"
    FUSION = "fusion"
    NONE = "none"


def prompt_sha256(prompt: str) -> str:
    return hashlib.sha256(prompt.encode("utf-8")).hexdigest()


def build_prompt(se: ScoredEvent, match: MatchResult | None = None) -> str:
    """Render the analyst prompt for one escalated event.

    The prompt is a pure function of the scored event and the memory
    lookup: identical inputs produce identical bytes, which is what lets
    a hash-keyed mock stand in for a live model.
    """
    event = se.event
    payload = event.raw or "(no payload)"
    model_label = "ATTACK" if se.pred_label == 1 else "BENIGN"
    if match is None or not math.isfinite(match.nearest_distance):
        memory_line = "no stored attack patterns"
    else:
        memory_line = (
            f"nearest stored attack at distance {match.nearest_distance:.4f}, "
            f"support {match.support}"
        )
    return (
        f"Security analyst task: classify one {event.layer.value} "
        "intrusion-detection event.\n"
        f"event_id: {event.id}\n"
        f"payload: {payload}\n"
        f"model: label={model_label} confidence={se.confidence:.4f}\n"
        f"memory: {memory_line}\n"
        "Respond with a single JSON object with keys \"label\" (ATTACK, "
        "BENIGN or UNSURE), \"confidence\" (a number from 0 to 1), "
        "\"attack_type\", and \"explanation\".\n"
    )


class HttpLlmClient:
    """Client for an Ollama-style generate endpoint.

    POSTs ``{"model", "prompt", "stream": false}`` to
    ``<base_url>/api/generate`` and reads the ``response`` field of the
    JSON body.  Timeouts, connection failures and 5xx responses are
    retried with exponential backoff before giving up; any other
    non-200 status (a 3xx too: redirects are not followed), or a body
    without a string ``response``, fails at once with LlmHttpError.

    Connections are HTTP/1.1 and kept alive: after a complete reply that
    leaves it open, a connection goes back to an idle list, and a call
    takes one from there before it opens a new one, so a client holds at
    most as many connections as it has concurrent callers.  A request on
    a reused connection that the server has closed meanwhile is sent
    once more, at once, on a fresh connection; that resend is not a
    retry.  Idle connections are closed by ``close`` or when the client
    is collected.

    The ``http_proxy`` / ``https_proxy`` / ``no_proxy`` environment is
    read once, here, as ``urllib`` reads it: a plain-HTTP endpoint is
    reached through its proxy with the absolute URL as the request
    target, an HTTPS one through a ``CONNECT`` tunnel.
    """

    def __init__(
        self,
        base_url: str,
        model: str,
        timeout: float = DEFAULT_TIMEOUT,
        retries: int = DEFAULT_RETRIES,
        backoff: float = DEFAULT_BACKOFF,
    ):
        self.base_url = base_url.rstrip("/")
        self.model = model
        self.timeout = timeout
        self.retries = retries
        self.backoff = backoff
        self.url = f"{self.base_url}/api/generate"
        target = urllib.parse.urlsplit(self.url)
        host = target.netloc.rpartition("@")[2]
        self._target = target.path
        self._headers = {"Content-Type": "application/json"}
        self._tunnel: tuple[str, dict[str, str]] | None = None
        endpoint = target
        proxy = urllib.request.getproxies().get(target.scheme)
        if proxy and not urllib.request.proxy_bypass(host):
            endpoint = urllib.parse.urlsplit(proxy if "://" in proxy else f"http://{proxy}")
            auth = {}
            if endpoint.username is not None:
                unquote = urllib.parse.unquote
                user_pass = f"{unquote(endpoint.username)}:{unquote(endpoint.password or '')}"
                auth["Proxy-Authorization"] = "Basic " + base64.b64encode(
                    user_pass.encode("utf-8")
                ).decode("ascii")
            if target.scheme == "https":
                self._tunnel = (host, auth)
            else:
                self._target = self.url
                self._headers.update(auth)
        https = endpoint.scheme == "https" or self._tunnel is not None
        self._connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
        self._endpoint = endpoint.netloc.rpartition("@")[2]
        self._idle: list[http.client.HTTPConnection] = []
        weakref.finalize(self, _close_all, self._idle)

    def close(self) -> None:
        """Close the idle connections; a later call opens a new one."""
        _close_all(self._idle)

    def generate(self, prompt: str) -> str:
        payload = {"model": self.model, "prompt": prompt, "stream": False}
        body = json.dumps(payload).encode("utf-8")
        last_error: Exception | None = None
        for attempt in range(self.retries + 1):
            if attempt:
                time.sleep(self.backoff * 2 ** (attempt - 1))
            try:
                status, data = self._post(body)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                logger.warning("llm request failed (attempt %d): %s", attempt + 1, exc)
                continue
            if status >= 500:
                last_error = LlmHttpError(f"server error {status}")
                logger.warning("llm server error %d (attempt %d)", status, attempt + 1)
                continue
            if status != 200:
                raise LlmHttpError(f"unexpected status {status}")
            try:
                obj = json.loads(data)
            except ValueError as exc:
                raise LlmHttpError(f"malformed response body: {exc}") from exc
            reply = obj.get("response") if isinstance(obj, dict) else None
            if not isinstance(reply, str):
                raise LlmHttpError("malformed response body: no string 'response'")
            return reply
        # A connect or read timeout surfaces as TimeoutError.
        if isinstance(last_error, TimeoutError):
            raise LlmTimeout(f"no answer from {self.url} after {self.retries + 1} attempts")
        raise LlmHttpError(str(last_error))

    def _connect(self) -> http.client.HTTPConnection:
        conn = self._connection(self._endpoint, timeout=self.timeout)
        if self._tunnel is not None:
            host, auth = self._tunnel
            conn.set_tunnel(host, headers=auth)
        return conn

    def _post(self, body: bytes) -> tuple[int, bytes]:
        """One exchange: the status and the whole body of the reply."""
        try:
            conn, reused = self._idle.pop(), True
        except IndexError:
            conn, reused = self._connect(), False
        try:
            try:
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            except (BrokenPipeError, ConnectionResetError):
                if not reused:
                    raise
                # The server closed the kept-alive connection while it sat idle.
                conn.close()
                conn = self._connect()
                conn.request("POST", self._target, body, self._headers)
                response = conn.getresponse()
            data = response.read()
        except BaseException:
            conn.close()
            raise
        if response.will_close:
            conn.close()
        else:
            self._idle.append(conn)
        return response.status, data


def _close_all(conns: list[http.client.HTTPConnection]) -> None:
    while conns:
        conns.pop().close()


class MockLlmClient:
    """Deterministic stand-in keyed by the SHA-256 of the prompt.

    The table maps prompt hashes to canned response texts; prompts with
    no entry get the configured default response.
    """

    def __init__(self, table: dict[str, str], default_response: str = DEFAULT_MOCK_RESPONSE):
        self.table = dict(table)
        self.default_response = default_response
        self.calls = 0

    @classmethod
    def from_jsonl(cls, path: str, default_response: str = DEFAULT_MOCK_RESPONSE) -> "MockLlmClient":
        """A client over a JSONL table: each non-blank line is an object with
        string ``prompt_sha256`` and ``response``; ``ValueError`` names the
        ``<path>:<line>`` of one that is not."""
        table: dict[str, str] = {}
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc.msg} (column {exc.colno})") from None
                if not isinstance(entry, dict) or not all(
                    isinstance(entry.get(key), str) for key in ("prompt_sha256", "response")
                ):
                    raise ValueError(
                        f"{path}:{lineno}: not an object with string prompt_sha256 and response"
                    )
                table[entry["prompt_sha256"]] = entry["response"]
        return cls(table, default_response)

    def generate(self, prompt: str) -> str:
        self.calls += 1
        return self.table.get(prompt_sha256(prompt), self.default_response)


class EchoLlmClient:
    """Evaluation oracle: answers with the event's ground truth.

    Useful for end-to-end runs on synthetic corpora where the question
    is how the routing behaves, not how good the analyst model is.  The
    event id is read back out of the prompt; unknown ids get UNSURE.
    """

    def __init__(
        self,
        truths: dict[str, int],
        confidence: float = 0.9,
        attack_types: dict[str, str] | None = None,
    ):
        self.truths = truths
        self.confidence = confidence
        self.attack_types = attack_types or {}
        self.calls = 0

    def generate(self, prompt: str) -> str:
        self.calls += 1
        m = _EVENT_ID_LINE.search(prompt)
        truth = self.truths.get(m.group(1)) if m else None
        if truth is None:
            return DEFAULT_MOCK_RESPONSE
        label = "ATTACK" if truth == 1 else "BENIGN"
        attack_type = self.attack_types.get(m.group(1), "") if truth == 1 else ""
        return json.dumps(
            {
                "label": label,
                "confidence": self.confidence,
                "attack_type": attack_type,
                "explanation": "ground-truth echo",
            }
        )


def parse_verdict(text: str) -> LlmVerdict:
    """Parse a model reply into a verdict.  Total: never raises.

    The first JSON object found in the text is used.  Labels map
    case-insensitively onto the verdict vocabulary; confidence is
    clamped into [0, 1] (out-of-range values are clamped and logged).
    Anything unparseable yields (UNSURE, 0.0) with the raw text kept.
    """
    obj = _first_json_object(text)
    if obj is None:
        logger.warning("unparseable llm reply (%d chars)", len(text))
        return LlmVerdict(Verdict.UNSURE, 0.0, raw=text)

    label = str(obj.get("label", "")).strip().upper()
    try:
        decision = Verdict[label]
    except KeyError:
        logger.warning("unknown llm label %r", label)
        return LlmVerdict(Verdict.UNSURE, 0.0, raw=text)

    value = obj.get("confidence", 0.0)
    try:  # float(True) is 1.0, but a JSON bool is no number
        confidence = float(None if isinstance(value, bool) else value)
    except (TypeError, ValueError):
        logger.warning("non-numeric llm confidence %r", value)
        confidence = 0.0
    if not math.isfinite(confidence):
        confidence = 0.0
    if confidence < 0.0 or confidence > 1.0:
        logger.warning("llm confidence %r clamped into [0, 1]", confidence)
        confidence = min(max(confidence, 0.0), 1.0)

    return LlmVerdict(
        decision=decision,
        confidence=confidence,
        attack_type=str(obj.get("attack_type") or ""),
        explanation=str(obj.get("explanation") or ""),
        raw=text,
    )


def _first_json_object(text: str) -> dict | None:
    decoder = json.JSONDecoder()
    idx = text.find("{")
    while idx != -1:
        try:
            obj, _ = decoder.raw_decode(text, idx)
        except json.JSONDecodeError:
            idx = text.find("{", idx + 1)
            continue
        if isinstance(obj, dict):
            return obj
        idx = text.find("{", idx + 1)
    return None


@dataclass(frozen=True)
class LlmSample:
    """One calibration observation: what the LLM said vs. the truth."""

    confidence: float
    decision: Verdict
    truth: int


@dataclass(frozen=True)
class LlmCalibration:
    threshold: float
    feasible: bool
    precision: float
    recall: float


def default_threshold_grid() -> tuple[float, ...]:
    """Candidate thresholds 0.05 to 0.95 inclusive, step 0.01."""
    return tuple(round(0.05 + 0.01 * i, 2) for i in range(91))


def calibrate_llm_threshold(
    samples: list[LlmSample], p_min: float = DEFAULT_PRECISION_FLOOR
) -> LlmCalibration:
    """Pick the LLM acceptance threshold under a precision floor.

    A sample is predicted attack at threshold t when its decision is
    ATTACK and its confidence is at least t.  Among thresholds whose
    precision meets the floor, the one with maximum recall wins (ties to
    the lowest threshold).  If no threshold is feasible, or no sample is
    a true attack, the highest candidate is returned with
    ``feasible=False`` and precision and recall 0.0.
    """
    candidates = default_threshold_grid()
    infeasible = LlmCalibration(
        threshold=max(candidates), feasible=False, precision=0.0, recall=0.0
    )
    n_attacks = sum(1 for s in samples if s.truth == 1)
    if n_attacks == 0:
        return infeasible

    attack_calls = [s for s in samples if s.decision is Verdict.ATTACK]
    best = infeasible
    for t in candidates:  # ascending, so a recall tie keeps the lower threshold
        called = [s.truth for s in attack_calls if s.confidence >= t]
        tp = called.count(1)
        precision = tp / len(called) if called else 0.0
        recall = tp / n_attacks
        if precision >= p_min and (not best.feasible or recall > best.recall):
            best = LlmCalibration(threshold=t, feasible=True, precision=precision, recall=recall)
    return best


def _dfrac(x: float) -> Fraction:
    # Decimal semantics: the float is read as the decimal it prints as.
    return Fraction(Decimal(repr(float(x))))


def _fuse_fraction(c_model: float, c_llm: float, fc: FusionConfig) -> Fraction:
    w_m, w_l = _dfrac(fc.w_model), _dfrac(fc.w_llm)
    if abs(w_m + w_l - 1) > Fraction(1, 10**9):
        raise BadFusionWeights(f"weights {fc.w_model} + {fc.w_llm} do not sum to 1")
    return w_m * _dfrac(c_model) + w_l * _dfrac(c_llm)


def fuse(c_model: float, c_llm: float, fc: FusionConfig) -> float:
    """Exact convex combination of the two confidences.

    Raises:
        BadFusionWeights: weights do not sum to 1.
    """
    return float(_fuse_fraction(c_model, c_llm, fc))


@dataclass(frozen=True)
class Gate3Decision:
    sink: Sink
    provenance: Provenance
    fused_score: float | None = None


def gate3_decide(
    se: ScoredEvent,
    v: LlmVerdict,
    layer: LayerId,
    th: LlmThresholds,
    fc: FusionConfig,
) -> Gate3Decision:
    """Route one escalated event on its LLM verdict.

    An ATTACK or BENIGN verdict at or above the layer's LLM threshold is
    taken directly: ATTACK is promoted, BENIGN lands in the review bucket
    (benign calls are kept for human confirmation, not silently
    accepted).  An ATTACK below the threshold is fused with the model
    confidence and promoted when the fused score reaches the layer's
    fusion threshold: ``fc.fusion_tau[layer]`` when pinned, the LLM
    threshold otherwise.  Everything else lands in the review bucket.
    """
    tau = th.tau[layer]
    if v.decision is not Verdict.UNSURE and v.confidence >= tau:
        sink = Sink.LLM_ATTACK if v.decision is Verdict.ATTACK else Sink.REVIEW_BUCKET
        return Gate3Decision(sink=sink, provenance=Provenance.DIRECT)
    if v.decision is not Verdict.ATTACK:
        return Gate3Decision(sink=Sink.REVIEW_BUCKET, provenance=Provenance.NONE)
    fused = _fuse_fraction(se.confidence, v.confidence, fc)
    if fused >= _dfrac(fc.fusion_tau.get(layer, tau)):
        return Gate3Decision(
            sink=Sink.LLM_ATTACK, provenance=Provenance.FUSION, fused_score=float(fused)
        )
    return Gate3Decision(
        sink=Sink.REVIEW_BUCKET, provenance=Provenance.NONE, fused_score=float(fused)
    )
