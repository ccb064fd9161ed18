"""Gate-2: embedded memory of previously confirmed attack vectors.

Stores unit-normalized token-hash embeddings of attack payloads and
answers "have we seen something close to this before" with a linear
cosine scan.  Only attacks are stored; a strong match short-circuits the
LLM stage.  The vectors live in one float64 row block that inserts write
in place.  A query scans a block of vectors at once: one BLAS product
ranks every stored row for every query, and only the rows within a
rounding margin of a query's k-th best cosine get their distance
recomputed in one fixed summation order.  Those recomputed distances are
the ones returned, so the k nearest and their distances do not depend on
the BLAS kernel or thread count, and there is no index to keep in step.
``insert`` is the only way in: a store file is loaded by inserting its
records in order.  Callers embed a payload once and hand the vector to
both the query and the insert.
"""

from __future__ import annotations

import functools
import hashlib
import heapq
import json
import logging
import math
import os
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .events import LayerId
from .scoring import tokenize

logger = logging.getLogger(__name__)

MIN_EMBED_DIMS = 16


class DimMismatch(ValueError):
    """Vector length differs from the store's embedding dimension."""


class MalformedStore(ValueError):
    """A store file line is not a memory record: ``<path>:<line>: ...``."""


class MemorySource(str, Enum):
    LLM_PROMOTED = "llm_promoted"
    MEMORY_SEEDED = "memory_seeded"


@dataclass(frozen=True)
class EmbeddingConfig:
    dims: int = 256

    def __post_init__(self) -> None:
        if self.dims < MIN_EMBED_DIMS:
            raise ValueError(f"embedding dims must be >= {MIN_EMBED_DIMS}")


@dataclass(frozen=True)
class MatchConfig:
    """Decision thresholds for memory matches.

    A near-duplicate (nearest within ``exact_radius``) always matches.
    Otherwise the nearest hit must fall within ``near_radius`` and be
    backed by at least ``min_support`` of the k neighbors inside
    ``support_radius`` with a meta-confidence of at least ``min_meta``.
    """

    k: int = 5
    exact_radius: float = 0.05
    near_radius: float = 0.15
    support_radius: float = 0.30
    min_support: int = 3
    min_meta: float = 0.70

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        for name in ("exact_radius", "near_radius", "support_radius"):
            if not 0.0 <= getattr(self, name) <= 2.0:
                raise ValueError(f"{name} must be in [0, 2], got {getattr(self, name)}")
        if self.min_support < 0:
            raise ValueError(f"min_support must be >= 0, got {self.min_support}")
        if not 0.0 <= self.min_meta <= 1.0:
            raise ValueError(f"min_meta must be in [0, 1], got {self.min_meta}")


@functools.lru_cache(maxsize=1 << 16)
def _bucket(token: str, dims: int) -> int:
    # Process-stable hash; Python's hash() is salted per run.  A fixed
    # function of (token, dims), so each distinct pair is hashed once.
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % dims


def embed(text: str, cfg: EmbeddingConfig) -> np.ndarray:
    """Token-count embedding: hash each token into a bucket, L2-normalize.

    Empty or token-free text embeds to the zero vector.
    """
    buckets = [_bucket(token, cfg.dims) for token in tokenize(text)]
    vec = np.bincount(np.array(buckets, dtype=np.intp), minlength=cfg.dims).astype(np.float64)
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0.0 else vec


def rank_margin(dims: int) -> float:
    """How far below a query's k-th best ranking cosine a stored row can
    rank and still be among its k nearest by recomputed distance.

    A dot product of length ``dims``, summed in any order, is within
    ``gamma = dims*u / (1 - dims*u)`` of its exact value, relative to the
    product of the norms (u is the unit roundoff); the divisions by the
    norms add a few u.  So a cosine, ranked from the BLAS product or
    recomputed in the fixed order, is within ``e = gamma + 3u`` of the
    exact one: the two differ by at most 2e, and so do their k-th best.
    A row among the k nearest thus ranks at most 4e below the k-th best
    ranking cosine.  The 4u on top cover the rounding of ``1 - cosine``,
    under which cosines less than 2u apart tie.  A row clipped to
    distance 0 has a recomputed cosine of at least 1 and no row ranks
    above 1 + 2e, so the clip needs nothing more.
    """
    u = np.finfo(np.float64).eps / 2
    gamma = dims * u / (1.0 - dims * u)
    return 4.0 * (gamma + 3.0 * u) + 4.0 * u


@dataclass(frozen=True, eq=False, slots=True)
class MemoryRecord:
    id: str
    layer: LayerId
    vector: np.ndarray
    attack_type: str
    source: MemorySource
    created_at: str


@dataclass(frozen=True)
class MatchResult:
    matched: bool
    nearest_distance: float
    support: int
    meta_confidence: float
    record_id: str | None = None


class MemoryStore:
    """In-process vector store with optional JSONL persistence.

    When bound to a path, every insert appends one line; reloading keeps
    the last occurrence of a duplicated id.  The row block is the only
    copy of the vectors: a stored record's ``vector`` is a read-only view
    of its row, so an overwrite of its id changes it in place.
    """

    def __init__(self, dims: int, path: str | None = None):
        self.dims = dims
        self.path = path
        self._records: list[MemoryRecord] = []
        self._index: dict[str, int] = {}
        # Row i of the block (and of the norms) is _records[i]'s vector;
        # rows past len(self) are spare capacity, and the norms from row
        # _stale on wait for the next query.
        self._rows = np.zeros((16, dims), dtype=np.float64)
        self._norms = np.zeros(16, dtype=np.float64)
        self._stale = 0

    def __len__(self) -> int:
        return len(self._records)

    @property
    def records(self) -> list[MemoryRecord]:
        return list(self._records)

    def _on_row(self, record: MemoryRecord, pos: int) -> MemoryRecord:
        """``record`` with its vector read from row ``pos`` of the block."""
        row = self._rows[pos]
        row.flags.writeable = False
        return MemoryRecord(
            record.id, record.layer, row, record.attack_type, record.source, record.created_at
        )

    def _reserve(self, capacity: int) -> None:
        """Move the rows to a block of ``capacity`` rows, if that is more."""
        if capacity <= len(self._rows):
            return
        n = len(self._records)
        rows, norms = np.zeros((capacity, self.dims)), np.zeros(capacity)
        rows[:n], norms[:n] = self._rows[:n], self._norms[:n]
        self._rows, self._norms = rows, norms
        self._records = [self._on_row(r, i) for i, r in enumerate(self._records)]

    def insert(self, record: MemoryRecord) -> None:
        if len(record.vector) != self.dims:
            raise DimMismatch(
                f"record {record.id}: vector has {len(record.vector)} dims, store expects {self.dims}"
            )
        pos = self._index.get(record.id)
        if pos is not None:
            logger.warning("memory record %s overwritten", record.id)
        else:
            pos = len(self._records)
            if pos == len(self._rows):  # full: double the capacity
                self._reserve(2 * pos)
            self._index[record.id] = pos
            self._records.append(record)
        self._rows[pos] = record.vector
        self._records[pos] = self._on_row(record, pos)
        self._stale = min(self._stale, pos)
        if self.path is not None:
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(_record_to_dict(record)) + "\n")

    def query(self, vectors: np.ndarray, k: int) -> list[list[tuple[MemoryRecord, float]]]:
        """The k nearest records of each row of the ``(m, dims)`` block
        ``vectors``, by cosine distance, distance then id order.

        A zero-magnitude query or stored row has similarity 0 with
        everything, so a zero query is at distance 1.0 from every record.
        """
        if vectors.ndim != 2 or vectors.shape[1] != self.dims:
            raise DimMismatch(
                f"query block has shape {vectors.shape}, store expects (m, {self.dims})"
            )
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        n = len(self._records)
        if n == 0:
            return [[] for _ in vectors]
        if self._stale < n:
            # The 2-D row-wise norm: one fixed summation order per row,
            # whatever the block; a 1-D norm is a BLAS dot product.
            self._norms[self._stale : n] = np.linalg.norm(self._rows[self._stale : n], axis=1)
            self._stale = n
        rows, norms = self._rows[:n], self._norms[:n]
        has_norm = norms > 0.0
        qnorms = np.linalg.norm(vectors, axis=1)
        # Rank: one BLAS product gives every stored row's cosine with every
        # query, times the query's norm; a zero row ranks at 0.
        ranking = vectors @ rows.T
        ranking /= np.where(has_norm, norms, 1.0)
        # The rows within the margin of each query's k-th best, so that
        # rounding and ties at the boundary reach the fixed-order (distance,
        # id) ordering.  A zero query takes none: every record is at 1.0.
        kth = max(n - k, 0)
        floor = np.array([np.partition(row, kth)[kth] for row in ranking])
        floor -= rank_margin(self.dims) * qnorms
        floor[qnorms == 0.0] = np.inf
        query_of, near = np.divmod(np.flatnonzero(ranking >= floor[:, None]), n)
        # Decide: the candidates' distances in one fixed summation order.
        sims = np.divide(
            np.einsum("ij,ij->i", rows[near], vectors[query_of]),
            norms[near] * qnorms[query_of],
            out=np.zeros(len(near)),
            where=has_norm[near],
        )
        dists = np.clip(1.0 - sims, 0.0, 2.0).tolist()
        bounds = np.searchsorted(query_of, np.arange(len(vectors) + 1)).tolist()
        near = near.tolist()
        recs = self._records
        found = []
        for qnorm, start, stop in zip(qnorms.tolist(), bounds, bounds[1:]):
            if qnorm == 0.0:
                scored = [(1.0, rec.id, i) for i, rec in enumerate(recs)]
            else:
                scored = [(d, recs[i].id, i) for d, i in zip(dists[start:stop], near[start:stop])]
            found.append([(recs[i], d) for d, _, i in heapq.nsmallest(k, scored)])
        return found


def match_decision(
    neighbors: list[tuple[MemoryRecord, float]], mcfg: MatchConfig
) -> MatchResult:
    """Decide whether stored attack vectors explain an embedded payload,
    from its ``neighbors`` as :meth:`MemoryStore.query` returns them.

    Support counts neighbors within the support radius of the k
    retrieved; meta-confidence is (support / k) times the mean closeness
    (1 - distance) of the supporting neighbors, zero when nothing
    supports.  No neighbors (an empty store) never matches.
    """
    if not neighbors:
        return MatchResult(
            matched=False, nearest_distance=math.inf, support=0, meta_confidence=0.0
        )
    nearest_rec, nearest = neighbors[0]
    supporting = [d for _, d in neighbors if d <= mcfg.support_radius]
    support = len(supporting)
    if support:
        meta = (support / mcfg.k) * (sum(1.0 - d for d in supporting) / support)
    else:
        meta = 0.0
    matched = nearest <= mcfg.exact_radius or (
        nearest <= mcfg.near_radius and support >= mcfg.min_support and meta >= mcfg.min_meta
    )
    return MatchResult(
        matched=matched,
        nearest_distance=nearest,
        support=support,
        meta_confidence=meta,
        record_id=nearest_rec.id,
    )


def _record_to_dict(record: MemoryRecord) -> dict:
    return {
        "id": record.id,
        "layer": record.layer.value,
        "vector": [float(x) for x in record.vector],
        "attack_type": record.attack_type,
        "source": record.source.value,
        "created_at": record.created_at,
    }


_RECORD_FIELDS = ("id", "layer", "vector", "attack_type", "source", "created_at")
_TEXT_FIELDS = ("id", "attack_type", "created_at")
# exact types, since bool is an int subclass
_NUMBER_TYPES = frozenset((int, float))


class _FloatMemo(dict):
    """JSON float token -> float, parsing each token on first sight."""

    def __missing__(self, token: str) -> float:
        value = self[token] = float(token)
        return value


def _finite_vector(values) -> np.ndarray | None:
    """``values`` as a float64 vector; None unless a list of finite numbers."""
    if type(values) is not list or not _NUMBER_TYPES.issuperset(map(type, values)):
        return None
    try:
        vector = np.array(values, dtype=np.float64)
    except OverflowError:  # an int too large for a float
        return None
    # JSON's NaN and Infinity parse as floats
    return vector if np.isfinite(vector).all() else None


def _record_from_line(line: str, parse_float) -> MemoryRecord:
    """One store file line as a record; ValueError says what is wrong."""
    try:
        data = json.loads(line, parse_float=parse_float)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValueError("not a JSON object")
    missing = [f for f in _RECORD_FIELDS if f not in data]
    if missing:
        raise ValueError(f"missing {', '.join(missing)}")
    bad = [f for f in _TEXT_FIELDS if not isinstance(data[f], str)]
    if bad:
        raise ValueError(f"{', '.join(bad)} must be a string")
    vector = _finite_vector(data["vector"])
    if vector is None:
        raise ValueError("vector is not a list of finite numbers")
    return MemoryRecord(
        id=data["id"],
        layer=LayerId(data["layer"]),
        vector=vector,
        attack_type=data["attack_type"],
        source=MemorySource(data["source"]),
        created_at=data["created_at"],
    )


def load_store(path: str, dims: int) -> MemoryStore:
    """Load a JSONL store file; missing file yields an empty store.

    The records are inserted in file order, so a duplicated id keeps the
    position of its first line and the contents of its last.  The
    returned store appends future inserts to the same file.

    Raises:
        MalformedStore: ``<path>:<line>: ...`` for a line that is not a
            JSON object with the six record fields, a layer or source
            outside its enum, or a vector that is not a list of finite
            numbers.
        DimMismatch: a record's vector length is not ``dims``.
    """
    store = MemoryStore(dims=dims, path=None)
    # A store repeats few distinct float tokens, so each is parsed once.
    parse_float = _FloatMemo().__getitem__
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            # One block for the whole file, not a chain of doublings whose
            # freed blocks would stay in the heap.
            store._reserve(sum(1 for line in fh if line.strip()))
            fh.seek(0)
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _record_from_line(line, parse_float)
                except ValueError as exc:
                    raise MalformedStore(f"{path}:{lineno}: {exc}") from None
                if len(record.vector) != dims:
                    raise DimMismatch(
                        f"stored record {record.id} has {len(record.vector)} dims, expected {dims}"
                    )
                store.insert(record)
    store.path = path
    return store


def save_store(store: MemoryStore, path: str) -> None:
    """Rewrite the store file compactly (drops overwritten duplicates)."""
    with open(path, "w", encoding="utf-8") as fh:
        for record in store.records:
            fh.write(json.dumps(_record_to_dict(record)) + "\n")
