"""Feature extraction and base-model scoring.

The host layer's log text becomes sparse tf-idf rows here; the network and
hypervisor corpora build their own vectors as they are generated or
loaded.  The built-in base model is a small logistic model trained on
labeled events (``Scorer``); its confidence is ``max(p, 1 - p)`` of the
attack probability, so it lives in [0.5, 1.0].  Scores stored by
another model need no scorer: ``load_replay_csv`` reads them as the
layer's scored stream, a ``ScoredStream`` of a corpus and score columns.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .corpus import (
    MalformedCorpus,
    binary_label,
    check_event_id,
    confidence_cell,
    csv_rows,
    truth_label,
)
from .events import Corpus, LayerId, ScoredStream

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


def _segment_sums(values: np.ndarray, ptr: np.ndarray) -> np.ndarray:
    """``values[ptr[k]:ptr[k + 1]].sum()`` for every k, 0.0 for an empty
    segment, each summed by ``np.add.reduceat`` in one fixed order."""
    starts = ptr[:-1]
    full = ptr[1:] > starts
    if full.all():
        return np.add.reduceat(values, starts)
    out = np.zeros(len(starts))
    if full.any():
        # The segments between two full starts are empty, so each full
        # segment runs to the next full start.
        out[full] = np.add.reduceat(values, starts[full])
    return out


@dataclass(frozen=True, eq=False)
class TfidfRows:
    """tf-idf rows in compressed sparse row form.

    Row i holds ``data[indptr[i]:indptr[i + 1]]`` in the columns
    ``indices[indptr[i]:indptr[i + 1]]``, ascending; every other cell of
    the ``dims`` columns is zero.  :func:`extract_features` builds it.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    dims: int

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def row_of_cells(self) -> np.ndarray:
        """The row of every stored cell."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))

    def take(self, keep: list[int]) -> TfidfRows:
        """The rows ``keep``, in that order."""
        starts = self.indptr[keep]
        lengths = self.indptr[np.add(keep, 1)] - starts
        indptr = np.zeros(len(keep) + 1, dtype=np.intp)
        np.cumsum(lengths, out=indptr[1:])
        # Cell j of new row k is cell starts[k] + (j - indptr[k]) of this.
        cells = np.arange(indptr[-1]) + np.repeat(starts - indptr[:-1], lengths)
        return TfidfRows(indptr, self.indices[cells], self.data[cells], self.dims)

    def dense(self) -> np.ndarray:
        """The rows as one ``(len(self), dims)`` float64 block."""
        block = np.zeros((len(self), self.dims))
        block[self.row_of_cells(), self.indices] = self.data
        return block

    def dense_row(self, i: int) -> np.ndarray:
        """Row ``i`` as a fresh vector, the same bits as ``self.dense()[i]``."""
        cells = slice(self.indptr[i], self.indptr[i + 1])
        vector = np.zeros(self.dims)
        vector[self.indices[cells]] = self.data[cells]
        return vector

    def dot(self, v: np.ndarray, cells: np.ndarray | None = None) -> np.ndarray:
        """Each row's dot product with ``v``, its cells summed in column
        order; ``cells``, if given, is the scratch space of one float per
        stored cell."""
        # The indices are in range, so "clip" changes none of them; unlike
        # "raise", it writes into ``cells`` without a buffer.
        cells = np.take(v, self.indices, out=cells, mode="clip")
        cells *= self.data
        return _segment_sums(cells, self.indptr)


def extract_features(texts: list[str], extractor: FeatureExtractor) -> TfidfRows:
    """The unit-norm tf-idf rows of texts, one row each.

    A cell is a term's count times its idf, divided by the norm of its
    row: the square root of the row's squared cells summed by
    ``np.add.reduceat`` in column order.  Text without any vocabulary
    term gives an empty row.  No dense row is built.
    """
    n, dims, vocab = len(texts), extractor.dims, extractor.vocab
    # The flat key row * dims + column of every vocabulary term, repeats and
    # all; sorted and counted, row i's cells are the keys in [i * dims, (i + 1) * dims).
    keys = (
        i * dims + vocab[term]
        for i, text in enumerate(texts)
        for term in tokenize(text)
        if term in vocab
    )
    cols, counts = np.unique(np.fromiter(keys, dtype=np.intp), return_counts=True)
    indptr = np.searchsorted(cols, np.arange(n + 1) * dims)
    np.remainder(cols, dims, out=cols)
    data = extractor.idf[cols]
    data *= counts
    data /= np.repeat(np.sqrt(_segment_sums(data * data, indptr)), np.diff(indptr))
    return TfidfRows(indptr, cols, data, dims)


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


# Rows at a time that _sum_of_squares squares.
_CHUNK_ROWS = 1024


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


def _by_column(rows: TfidfRows) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The cells of ``rows`` in column order, each column's rows ascending:
    the column pointer (column j's cells are ``col_ptr[j]:col_ptr[j + 1]``),
    and each cell's row and value."""
    order = np.argsort(rows.indices, kind="stable")
    col_ptr = np.zeros(rows.dims + 1, dtype=np.intp)
    np.cumsum(np.bincount(rows.indices, minlength=rows.dims), out=col_ptr[1:])
    return col_ptr, rows.row_of_cells()[order], rows.data[order]


def _column_moments(
    col_data: np.ndarray, col_ptr: np.ndarray, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and std of each column of an ``n``-row sparse matrix.

    Column j's stored cells are ``col_data[col_ptr[j]:col_ptr[j + 1]]``;
    its other cells are zero.  Two passes: the mean first, then the
    squared deviations of the stored cells plus those of the zero cells.
    A constant column has sigma 1.
    """
    stored = np.diff(col_ptr)
    mu = _segment_sums(col_data, col_ptr) / n
    dev = col_data - np.repeat(mu, stored)
    sigma = np.sqrt((_segment_sums(dev * dev, col_ptr) + (n - stored) * (mu * mu)) / n)
    sigma[sigma == 0.0] = 1.0
    return mu, sigma


def train_baseline(events: Corpus, x: np.ndarray | TfidfRows, cfg: TrainConfig) -> Scorer:
    """Train the built-in logistic stand-in on a corpus's labeled events.

    ``x`` holds the features of ``events``, one row per event: a float64
    matrix, or the tf-idf rows of :func:`extract_features`.  Only the
    truths of ``events`` are read.  When some events have no truth label,
    only the labeled rows are taken.

    Full-batch gradient descent with a fixed schedule on the standardized
    features.  A matrix is standardized in place, so the caller's matrix
    is consumed (``x[keep]``, a copy, when rows are left out, and ``x``
    is left as it was).  tf-idf rows stay as they are: the
    standardization is folded into the two products of each epoch,
    ``z @ w = x @ (w / sigma) - mu . (w / sigma)`` and
    ``z.T @ err = (x.T @ err - mu * sum(err)) / sigma``, so no dense row
    is built.  Neither kind calls a BLAS product: each sum runs in one
    fixed order (``np.einsum`` over a matrix, ``np.add.reduceat`` over
    the rows' cells in row and in column order), so the weights do not
    depend on the number of threads.

    The affine standardization is folded back into the returned weights,
    so the scorer applies directly to raw vectors.  The same (events, x,
    cfg) always yields identical weights.

    Raises:
        ValueError: ``x`` does not have one row per event.
        SingleClassData: fewer than two truth classes present.
    """
    if len(x) != len(events):
        raise ValueError(f"{len(events)} events but {len(x)} feature rows")
    truths = events.truths
    keep = [i for i, truth in enumerate(truths) if truth is not None]
    classes = {truths[i] for i in keep}
    if len(classes) < 2:
        raise SingleClassData(
            f"logistic training needs both classes, got {sorted(classes)}"
        )
    y = np.array([truths[i] for i in keep], dtype=np.float64)
    n = len(y)

    if isinstance(x, TfidfRows):
        rows = x if n == len(events) else x.take(keep)
        col_ptr, col_rows, col_data = _by_column(rows)
        mu, sigma = _column_moments(col_data, col_ptr, n)
        cells = np.empty(len(rows.data))

        def forward(w: np.ndarray) -> np.ndarray:
            v = w / sigma
            return rows.dot(v, cells) - float((mu * v).sum())

        def backward(err: np.ndarray) -> np.ndarray:
            np.take(err, col_rows, out=cells, mode="clip")
            np.multiply(cells, col_data, out=cells)
            return (_segment_sums(cells, col_ptr) - mu * float(err.sum())) / sigma

    else:
        # Standardize in place: the steps np.std takes on the centred matrix,
        # so mu and sigma (and z) are bit-equal to x.mean, x.std and
        # (x - mu) / sigma with no full-size temporary.
        z = x if n == len(events) else x[keep]
        mu = z.mean(axis=0)
        z -= mu
        sigma = np.sqrt(_sum_of_squares(z) / n)
        sigma[sigma == 0.0] = 1.0
        z /= sigma

        def forward(w: np.ndarray) -> np.ndarray:
            return np.einsum("ij,j->i", z, w)

        def backward(err: np.ndarray) -> np.ndarray:
            return np.einsum("ij,i->j", z, err)

    rng = np.random.default_rng(cfg.seed)
    w = rng.normal(0.0, 0.01, size=len(mu))
    b = 0.0
    for _ in range(cfg.epochs):
        p = _sigmoid(forward(w) + b)
        err = p - y
        grad_w = backward(err) / n + cfg.l2 * w
        grad_b = float(err.mean())
        w = w - cfg.learning_rate * grad_w
        b = b - cfg.learning_rate * grad_b

    # Fold standardization into raw-space weights: w.((x-mu)/sigma)+b.
    w_raw = w / sigma
    b_raw = b - float((w * (mu / sigma)).sum())
    return Scorer(weights=w_raw, bias=b_raw)


def score_stream(events: Corpus, scorer: Scorer, x: np.ndarray | TfidfRows) -> ScoredStream:
    """Score a corpus with the logistic model.

    ``x`` holds the features of ``events``, one row per event, in the
    form :func:`train_baseline` takes.  p = sigmoid(w.x + b); the label
    is 1 when p > 0.5 (the exact tie predicts benign) and the confidence
    is max(p, 1 - p).  Each w.x is summed in one fixed order, by
    ``np.einsum`` over a matrix or over the row's cells in column order.
    The stream's columns are valid as they are made; no row is checked.

    Raises:
        ValueError: ``x`` does not have one row per event.
    """
    if len(x) != len(events):
        raise ValueError(f"{len(events)} events but {len(x)} feature rows")
    w = scorer.weights
    z = x.dot(w) if isinstance(x, TfidfRows) else np.einsum("ij,j->i", x, w)
    p = _sigmoid(z + scorer.bias)
    return ScoredStream(events, (p > 0.5).astype(np.int8), np.maximum(p, 1.0 - p))


def load_replay_csv(path: str, layer: LayerId) -> ScoredStream:
    """A layer's stored (label, confidence) pairs as its scored stream.

    Expected header: ``event_id,layer,pred_label,confidence,truth``; the
    truth cell may be empty for unlabeled rows.  Events come in file
    order; an id given twice keeps its first position and its last row.
    Replay rows carry no payload, so the corpus holds no feature block,
    and every record is empty.  Each cell is checked here.

    Raises:
        MalformedCorpus: ``<path>:<line>: ...`` for a missing column, a
            ragged row, a bad id (:func:`check_event_id`), a ``pred_label``
            or ``truth`` that is not 0 or 1, a confidence that is not a
            number in [0, 1], a row of another layer, or a file without rows.
    """
    stream: dict[str, tuple[int | None, int, float]] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for line, row in csv_rows(fh, path, REPLAY_CSV_HEADER):
            where = f"{path}:{line}"
            if row["layer"] != layer.value:
                raise MalformedCorpus(f"{where}: layer {row['layer']!r} is not {layer.value}")
            event_id = check_event_id(row["event_id"], path, line)
            pred_label = binary_label(row["pred_label"], "pred_label", where)
            truth = truth_label(row["truth"], where)
            confidence = confidence_cell(row["confidence"], where)
            stream[event_id] = (truth, pred_label, confidence)
    if not stream:
        raise MalformedCorpus(f"{path}:1: header without rows")
    truths, labels, confidences = zip(*stream.values())
    n = len(stream)
    events = Corpus(layer, list(stream), list(truths), [None] * n, texts=[""] * n)
    return ScoredStream(events, np.array(labels, np.int8), np.array(confidences))

