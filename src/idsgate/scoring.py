"""Feature extraction and base-model scoring.

The host layer's log text becomes a tf-idf vector here; the network and
hypervisor corpora build their own vectors as they are generated or
loaded.  The built-in base model is a small logistic model trained on
labeled events (``Scorer``); its confidence is ``max(p, 1 - p)`` of the
attack probability, so it lives in [0.5, 1.0].  Scores stored by
another model need no scorer: ``load_replay_csv`` reads them as the
layer's scored stream.
"""

from __future__ import annotations

import csv
import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import PLACEHOLDER_FEATURES, MalformedCorpus, binary_label, check_event_id, truth_label
from .events import Event, LayerId, ScoredEvent

TOKEN = re.compile(r"[a-z0-9]+")

DEFAULT_MAX_VOCAB = 4096

REPLAY_CSV_HEADER = ["event_id", "layer", "pred_label", "confidence", "truth"]


class EmptyCorpus(ValueError):
    """tf-idf fit was handed an empty corpus."""


class SingleClassData(ValueError):
    """Training data holds fewer than two classes."""


def tokenize(text: str) -> list[str]:
    """The alphanumeric runs of the lowercased text."""
    return TOKEN.findall(text.lower())


@dataclass
class FeatureExtractor:
    """Fitted tf-idf transform: a term's column in ``vocab`` and its idf
    weight in ``idf``.  :func:`fit_tfidf` builds it."""

    vocab: dict[str, int]
    idf: np.ndarray

    @property
    def dims(self) -> int:
        return len(self.vocab)


def fit_tfidf(corpus: list[str], max_vocab: int = DEFAULT_MAX_VOCAB) -> FeatureExtractor:
    """Fit a tf-idf vocabulary over a text corpus.

    idf(term) = ln((1 + N) / (1 + df)) + 1 with N the corpus size.  The
    vocabulary keeps at most ``max_vocab`` terms, most frequent first
    (ties broken by term so the fit is deterministic), and indexes them
    in sorted term order.

    Raises:
        EmptyCorpus: the corpus has no documents.
    """
    if not corpus:
        raise EmptyCorpus("cannot fit tf-idf on an empty corpus")
    df: dict[str, int] = {}
    for doc in corpus:
        for term in set(tokenize(doc)):
            df[term] = df.get(term, 0) + 1
    kept = sorted(df, key=lambda t: (-df[t], t))
    kept = sorted(kept[:max_vocab])
    vocab = {term: i for i, term in enumerate(kept)}
    n_docs = len(corpus)
    idf = np.array(
        [math.log((1 + n_docs) / (1 + df[t])) + 1.0 for t in kept], dtype=np.float64
    )
    return FeatureExtractor(vocab=vocab, idf=idf)


# Rows at a time in the block kernels below: extract_features counts the
# terms of this many texts at once, _sum_of_squares squares this many rows.
_CHUNK_ROWS = 1024


def extract_features(texts: list[str], extractor: FeatureExtractor) -> np.ndarray:
    """The unit-norm tf-idf vectors of texts, one row each.

    Text without any vocabulary term gives the zero row.  The result has
    shape ``(len(texts), extractor.dims)``.  Each row is divided by its
    own 1-D norm, so it equals the vector of its text alone.
    """
    n, dims = len(texts), extractor.dims
    block = np.zeros((n, dims), dtype=np.float64)
    cells = block.reshape(-1)
    vocab = extractor.vocab
    for start in range(0, n, _CHUNK_ROWS):
        # Flat cell index of every vocabulary term; repeats count up.
        hits = [
            i * dims + vocab[term]
            for i in range(start, min(n, start + _CHUNK_ROWS))
            for term in tokenize(texts[i])
            if term in vocab
        ]
        np.add.at(cells, hits, 1.0)
    block *= extractor.idf
    for row in block:
        if row.any():
            row /= np.linalg.norm(row)
    return block


@dataclass(frozen=True)
class Scorer:
    """The trained logistic base model: weights over the event's raw
    feature vector, plus a bias."""

    weights: np.ndarray
    bias: float


@dataclass(frozen=True)
class TrainConfig:
    """Deterministic logistic training schedule."""

    epochs: int = 200
    learning_rate: float = 0.1
    l2: float = 1e-4
    seed: int = 0


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _sum_of_squares(z: np.ndarray) -> np.ndarray:
    """Column sums of ``z * z``, bit-equal to ``np.add.reduce(z * z, axis=0)``.

    A reduction over axis 0 of a C-ordered matrix adds the rows one after
    another into the running sum.  Row 0 of the buffer carries that sum
    from chunk to chunk, so the additions happen in the same order while
    only ``_CHUNK_ROWS`` squared rows exist at a time.  A single
    column is summed pairwise, as a 1-D reduction is, so it is squared
    whole.
    """
    n, d = z.shape
    if d == 1:
        return np.add.reduce(z * z, axis=0)
    buf = np.zeros((min(n, _CHUNK_ROWS) + 1, d))
    for start in range(0, n, _CHUNK_ROWS):
        rows = z[start : start + _CHUNK_ROWS]
        np.multiply(rows, rows, out=buf[1 : len(rows) + 1])
        buf[0] = np.add.reduce(buf[: len(rows) + 1], axis=0)
    return buf[0]


def train_baseline(events: list[Event], x: np.ndarray, cfg: TrainConfig) -> Scorer:
    """Train the built-in logistic stand-in on labeled events.

    ``x`` is the float64 feature matrix of ``events``, one row per event.
    Training standardizes it in place, so the caller's matrix is consumed:
    its values afterwards are the standardized ones.  When some events
    have no truth label, only the labeled rows are taken (``x[keep]``, a
    copy) and ``x`` is left as it was.

    Full-batch gradient descent with a fixed schedule.  The affine
    standardization is folded back into the returned weights, so the
    scorer applies directly to raw vectors.  The same (events, x, cfg)
    always yields identical weights.

    Raises:
        ValueError: ``x`` does not have one row per event.
        SingleClassData: fewer than two truth classes present.
    """
    if x.shape[0] != len(events):
        raise ValueError(f"{len(events)} events but {x.shape[0]} feature rows")
    keep = [i for i, e in enumerate(events) if e.truth is not None]
    classes = {events[i].truth for i in keep}
    if len(classes) < 2:
        raise SingleClassData(
            f"logistic training needs both classes, got {sorted(classes)}"
        )
    y = np.array([events[i].truth for i in keep], dtype=np.float64)
    n = len(y)

    # Standardize in place: the steps np.std takes on the centred matrix,
    # so mu and sigma (and z) are bit-equal to x.mean, x.std and
    # (x - mu) / sigma with no full-size temporary.
    z = x if n == len(events) else x[keep]
    mu = z.mean(axis=0)
    z -= mu
    sigma = np.sqrt(_sum_of_squares(z) / n)
    sigma[sigma == 0.0] = 1.0
    z /= sigma

    rng = np.random.default_rng(cfg.seed)
    w = rng.normal(0.0, 0.01, size=z.shape[1])
    b = 0.0
    for _ in range(cfg.epochs):
        p = _sigmoid(z @ w + b)
        err = p - y
        grad_w = z.T @ err / n + cfg.l2 * w
        grad_b = float(err.mean())
        w = w - cfg.learning_rate * grad_w
        b = b - cfg.learning_rate * grad_b

    # Fold standardization into raw-space weights: w.((x-mu)/sigma)+b.
    w_raw = w / sigma
    b_raw = b - float((w * (mu / sigma)).sum())
    return Scorer(weights=w_raw, bias=b_raw)


def score_stream(events: list[Event], scorer: Scorer) -> list[ScoredEvent]:
    """Score a stream of events with the logistic model.

    p = sigmoid(w.x + b); pred_label is 1 when p > 0.5 (the exact tie
    predicts benign) and confidence is max(p, 1 - p).  w.x is one dot
    product per event, because a matrix product over the stream rounds
    differently in the last bit.
    """
    z = np.array([float(np.dot(scorer.weights, e.features)) for e in events]) + scorer.bias
    p = _sigmoid(z)
    pred = (p > 0.5).tolist()
    conf = np.maximum(p, 1.0 - p).tolist()
    return [
        ScoredEvent(event=e, pred_label=int(y), confidence=c)
        for e, y, c in zip(events, pred, conf)
    ]


def load_replay_csv(path: str, layer: LayerId) -> list[ScoredEvent]:
    """A layer's stored (label, confidence) pairs as its scored stream.

    Expected header: ``event_id,layer,pred_label,confidence,truth``; the
    truth cell may be empty for unlabeled rows.  Events come in file
    order; an id given twice keeps its first position and its last row.
    Replay rows carry no payload, so every event has an empty raw record
    and the shared ``PLACEHOLDER_FEATURES``.

    Raises:
        MalformedCorpus: ``<path>:<line>: ...`` for a missing column, a
            ragged row, a bad id (:func:`check_event_id`), a ``pred_label``
            or ``truth`` that is not 0 or 1, a confidence that is not a
            number in [0, 1], a row of another layer, or a file without rows.
    """
    stream: dict[str, ScoredEvent] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(REPLAY_CSV_HEADER) - set(reader.fieldnames or [])
        if missing:
            raise MalformedCorpus(f"{path}:1: missing columns: {sorted(missing)}")
        for row in reader:
            where = f"{path}:{reader.line_num}"
            if None in row or None in row.values():
                raise MalformedCorpus(f"{where}: row length differs from header")
            if row["layer"] != layer.value:
                raise MalformedCorpus(f"{where}: layer {row['layer']!r} is not {layer.value}")
            event_id = check_event_id(row["event_id"], path, reader.line_num)
            pred_label = binary_label(row["pred_label"], "pred_label", where)
            truth = truth_label(row["truth"], where)
            try:
                confidence = float(row["confidence"])
            except ValueError:
                confidence = math.nan
            if not 0.0 <= confidence <= 1.0:  # NaN fails too
                raise MalformedCorpus(
                    f"{where}: confidence {row['confidence']!r} is not a number in [0, 1]"
                )
            event = Event(event_id, layer, "", PLACEHOLDER_FEATURES, truth)
            stream[event_id] = ScoredEvent(event, pred_label, confidence)
    if not stream:
        raise MalformedCorpus(f"{path}:1: header without rows")
    return list(stream.values())

