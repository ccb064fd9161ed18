"""Synthetic corpora for the three layers, plus loaders and the split.

Every generator and loader returns one :class:`Corpus` of columns.
Network and hypervisor events get their feature block here, from the
same cells as their raw records; host vectors are tf-idf, fitted later.
A generated network or hypervisor corpus keeps no text: its printer
prints a raw record from its feature row when it is read.  So does one
loaded from a file whose every record is what the printer prints from
its row, as in every file ``gen`` writes.

The hypervisor generator is count-exact: the configured per-class totals
are produced verbatim, then shuffled.  The network and host generators
are shape-oriented: a separation knob controls how cleanly a base model
can tell the populations apart, which in turn shapes the confidence
distribution the gates see.
"""

from __future__ import annotations

import array
import csv
import itertools
import json
import math
import operator
import random
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

import numpy as np

from .events import Corpus, LayerId, make_event_id

T = TypeVar("T")

HYP_TYPES = ("VMware ESXi", "KVM", "Xen", "Hyper-V")

HYP_NUMERIC_FIELDS = (
    "cpu_util",
    "mem_util",
    "disk_io_mbps",
    "net_io_mbps",
    "priv_call_rate",
    "hypercall_rate",
    "snapshot_ops",
    "snapshot_size_mb",
    "active_vms",
    "inter_vm_traffic_mbps",
    "vcpu_steal_pct",
    "page_fault_rate",
    "io_wait_pct",
    "mgmt_api_calls",
    "console_sessions",
    "migration_ops",
    "device_attach_ops",
    "timing_jitter_ms",
    "entropy_score",
    "failed_auth_count",
    "kernel_module_loads",
    "uptime_hours",
)

# 24 columns: class label, hypervisor type, 22 behavior fields.
HYP_COLUMNS = ("event_class", "hv") + HYP_NUMERIC_FIELDS

HYP_NORMAL_CLASS = "normal"

DEFAULT_HYP_COUNTS = {
    "normal": 12500,
    "vm_lateral_movement": 2541,
    "vm_escape": 2501,
    "snapshot_abuse": 2500,
    "hypervisor_dos": 2488,
    "hyper_jacking": 2470,
}

# Baseline (normal-operation) distribution parameters.  Gaussian fields
# are (mean, sd); Poisson fields are rates.  Attack classes override a
# handful of signature fields with overlapping shifts, so no single
# field separates the classes cleanly.
_HYP_GAUSS = {
    "cpu_util": (0.35, 0.15),
    "mem_util": (0.45, 0.15),
    "disk_io_mbps": (80.0, 40.0),
    "net_io_mbps": (60.0, 30.0),
    "priv_call_rate": (120.0, 60.0),
    "hypercall_rate": (200.0, 80.0),
    "snapshot_size_mb": (256.0, 128.0),
    "inter_vm_traffic_mbps": (40.0, 20.0),
    "vcpu_steal_pct": (2.0, 1.5),
    "page_fault_rate": (900.0, 400.0),
    "io_wait_pct": (5.0, 3.0),
    "timing_jitter_ms": (1.2, 0.6),
    "entropy_score": (3.0, 0.8),
    "uptime_hours": (400.0, 300.0),
}

_HYP_POISSON = {
    "snapshot_ops": 1.0,
    "active_vms": 12.0,
    "mgmt_api_calls": 4.0,
    "console_sessions": 1.0,
    "migration_ops": 0.5,
    "device_attach_ops": 0.5,
    "failed_auth_count": 0.3,
    "kernel_module_loads": 0.2,
}

_HYP_CLASS_GAUSS = {
    "vm_lateral_movement": {
        "inter_vm_traffic_mbps": (130.0, 45.0),
        "net_io_mbps": (140.0, 50.0),
    },
    "vm_escape": {
        "priv_call_rate": (420.0, 140.0),
        "hypercall_rate": (520.0, 160.0),
        "page_fault_rate": (1800.0, 600.0),
    },
    "snapshot_abuse": {
        "snapshot_size_mb": (900.0, 300.0),
        "disk_io_mbps": (200.0, 80.0),
    },
    "hypervisor_dos": {
        "cpu_util": (0.85, 0.10),
        "io_wait_pct": (28.0, 10.0),
        "vcpu_steal_pct": (14.0, 6.0),
        "timing_jitter_ms": (6.0, 2.5),
        "page_fault_rate": (2400.0, 800.0),
    },
    "hyper_jacking": {
        "entropy_score": (5.2, 1.0),
    },
}

_HYP_CLASS_POISSON = {
    "vm_lateral_movement": {"console_sessions": 3.0, "failed_auth_count": 2.0},
    "vm_escape": {"kernel_module_loads": 4.0},
    "snapshot_abuse": {"snapshot_ops": 9.0, "mgmt_api_calls": 8.0},
    "hypervisor_dos": {},
    "hyper_jacking": {
        "mgmt_api_calls": 18.0,
        "failed_auth_count": 6.0,
        "device_attach_ops": 3.0,
        "kernel_module_loads": 2.0,
    },
}

_FRACTION_FIELDS = {"cpu_util", "mem_util"}


class InvalidSplitRatio(ValueError):
    """Train fraction must lie strictly between 0 and 1."""


class MalformedCorpus(ValueError):
    """A loaded corpus file has a header or row its layer cannot read."""


def binary_label(cell: str, name: str, where: str) -> int:
    """A 0/1 label cell as ``int`` reads it, else ``MalformedCorpus``."""
    try:
        label = int(cell)
    except ValueError:
        label = None
    if label not in (0, 1):
        raise MalformedCorpus(f"{where}: {name} {cell!r} is not 0 or 1")
    return label


def check_header(header: list[str] | None, path: str, columns: Iterable[str]) -> list[str]:
    """A CSV file's header, the list of cells on its line 1 (None for an
    empty file); ``MalformedCorpus`` when one of ``columns`` is missing."""
    missing = set(columns) - set(header or [])
    if missing:
        raise MalformedCorpus(f"{path}:1: missing columns: {sorted(missing)}")
    return header


def csv_rows(fh: Iterable[str], path: str, columns: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """The rows of a CSV file as (line number, dict) pairs; ``MalformedCorpus``
    ``<path>:<line>: ...`` for a header without one of ``columns``, or for
    a row with more or fewer cells than the header."""
    reader = csv.DictReader(fh)
    check_header(reader.fieldnames, path, columns)
    for row in reader:
        if None in row or None in row.values():
            raise MalformedCorpus(f"{path}:{reader.line_num}: row length differs from header")
        yield reader.line_num, row


def confidence_cell(cell: str, where: str) -> float:
    """A confidence cell as a ``float`` in [0, 1], else ``MalformedCorpus``."""
    try:
        confidence = float(cell)
    except ValueError:
        confidence = math.nan
    if not 0.0 <= confidence <= 1.0:  # NaN fails too
        raise MalformedCorpus(f"{where}: confidence {cell!r} is not a number in [0, 1]")
    return confidence


def truth_label(cell: str | None, where: str) -> int | None:
    """The truth rule of every reader: ``None`` or a blank cell is absent,
    anything else a :func:`binary_label`.  A JSON value's cell is its JSON
    text, so ``true``, ``1.0`` and ``"1"`` are not truths."""
    if cell is None or not cell.strip():
        return None
    return binary_label(cell, "truth", where)


_ID_FORBIDDEN = re.compile(r'[\s,"]')


def check_event_id(value: object, path: str, lineno: int, seen: dict | None = None) -> str:
    """``value`` as an event id: a non-empty string without whitespace, a
    comma or a double quote, so it stays whole, unquoted, in a CSV cell
    and a prompt line.  With ``seen`` (id -> line), it must also be new
    there, and joins it."""
    if not isinstance(value, str) or not value or _ID_FORBIDDEN.search(value):
        raise MalformedCorpus(
            f"{path}:{lineno}: event_id {value!r} is not a non-empty string without "
            "whitespace, commas or quotes"
        )
    if seen is not None and seen.setdefault(value, lineno) != lineno:
        raise MalformedCorpus(f"{path}:{lineno}: event_id {value!r} repeats line {seen[value]}")
    return value


@dataclass(frozen=True)
class HypGenConfig:
    """Rows per class (their sum is the corpus size) and the seed."""

    class_counts: dict[str, int] = field(default_factory=lambda: dict(DEFAULT_HYP_COUNTS))
    seed: int = 0


@dataclass(frozen=True)
class NetGenConfig:
    count: int = 5000
    n_features: int = 40
    attack_fraction: float = 0.25
    separation: float = 3.0
    seed: int = 0


@dataclass(frozen=True)
class HostGenConfig:
    count: int = 5000
    attack_fraction: float = 0.35
    ambiguity: float = 0.5
    seed: int = 0


def _kv_token(value: str) -> str:
    # Raw records are space-separated key=value pairs, so values must
    # not contain spaces ("VMware ESXi" -> "VMware_ESXi").
    return value.replace(" ", "_")


def parse_kv_record(raw: str) -> dict[str, str]:
    """Parse a ``key=value key=value`` record into a dict."""
    out: dict[str, str] = {}
    for tok in raw.split():
        if "=" in tok:
            key, _, value = tok.partition("=")
            out[key] = value
    return out


def _safe_float(text: str) -> float:
    # Non-finite and unparseable values become 0.0 by contract.
    try:
        value = float(text)
    except (TypeError, ValueError):
        return 0.0
    return value if math.isfinite(value) else 0.0


def _hyp_row_draws(
    rng: np.random.Generator, cls: str, offset: int
) -> list[tuple[Callable, tuple, int | slice]]:
    """The draws of one row of class ``cls`` after its type, one per run
    of fields in ``HYP_NUMERIC_FIELDS`` order: consecutive Gaussian
    fields are one ``standard_normal`` call, consecutive Poisson fields
    of one rate one ``poisson`` call.  Each is ``(call, args, cells)``,
    where ``cells`` indexes the row's fields from ``offset`` on; a
    one-field run is a scalar draw into one cell."""
    poisson = {**_HYP_POISSON, **_HYP_CLASS_POISSON.get(cls, {})}
    draws: list[tuple[Callable, tuple, int | slice]] = []
    start = offset
    for rate, fields in itertools.groupby(poisson.get(name) for name in HYP_NUMERIC_FIELDS):
        k = len(list(fields))
        size, cells = ((), start) if k == 1 else ((k,), slice(start, start + k))
        if rate is None:
            draws.append((rng.standard_normal, size, cells))
        else:
            draws.append((rng.poisson, (rate, *size), cells))
        start += k
    return draws


def _hyp_gauss_columns(cls: str) -> tuple[list[int], np.ndarray, np.ndarray, np.ndarray]:
    """The Gaussian fields of class ``cls``: their indices in
    ``HYP_NUMERIC_FIELDS``, and each one's mean, sd and upper clip (1.0
    for a fraction, else infinity; every value is clipped at 0.0 below)."""
    gauss = {**_HYP_GAUSS, **_HYP_CLASS_GAUSS.get(cls, {})}
    columns = [j for j, name in enumerate(HYP_NUMERIC_FIELDS) if name in gauss]
    names = [HYP_NUMERIC_FIELDS[j] for j in columns]
    return (
        columns,
        np.array([gauss[name][0] for name in names]),
        np.array([gauss[name][1] for name in names]),
        np.array([1.0 if name in _FRACTION_FIELDS else math.inf for name in names]),
    )


def round4(x: np.ndarray) -> None:
    """Round each element of the float64 array ``x`` in place as
    ``round(v, 4)`` does, which is ``float(f"{v:.4f}")``: the value its
    four-decimal cell parses to, the sign of a zero included.

    That is ``rint(x * 1e4) / 1e4`` wherever the float product lies below
    2**33 in magnitude and more than 1e-6 from a half: there the product
    is within 1e-6 of the exact one, so ``rint`` finds the integer that
    the printed cell rounds to, and the division is the correctly rounded
    value of that cell.  The other elements go through ``round`` one at a
    time.
    """
    scaled = x * 1e4
    nearest = np.rint(scaled)
    # The scratch array holds each product's distance from its nearest
    # integer, then that integer's magnitude.
    scaled -= nearest
    np.abs(scaled, out=scaled)
    doubtful = scaled > 0.5 - 1e-6
    np.abs(nearest, out=scaled)
    doubtful |= ~(scaled < 2.0**33)
    fallback = [round(v, 4) for v in x[doubtful].tolist()]
    np.divide(nearest, 1e4, out=x)
    x[doubtful] = fallback


# A generated raw record: the type token, then counts without and
# Gaussian values with four decimals.
_HYP_RAW_TEMPLATE = "hv=%s " + " ".join(
    f"{name}=%.0f" if name in _HYP_POISSON else f"{name}=%.4f"
    for name in HYP_NUMERIC_FIELDS
)
_HYP_TOKENS = tuple(_kv_token(t) for t in HYP_TYPES)


def _print_hypervisor(row: np.ndarray) -> str:
    """The raw record of a generated hypervisor row: the type its one-hot
    marks, then each numeric cell."""
    values = row.tolist()
    n_types = len(HYP_TYPES)
    return _HYP_RAW_TEMPLATE % (_HYP_TOKENS[values.index(1.0, 0, n_types)], *values[n_types:])


def _print_network(row: np.ndarray) -> str:
    """The raw record of a generated network row: its cells with four
    decimals, joined by commas.

    The row holds each drawn value x as :func:`round4` left it: the
    double d nearest to x's printed cell s.  That prints as s again, at
    any magnitude: d lies no farther from s than x does, which is at
    most half a unit of the fourth decimal, and at exactly half a unit
    both x and d print as the even one of their two neighbours, s.
    """
    return ",".join(["%.4f"] * len(row)) % tuple(row.tolist())


# A cell that prints back as itself: at most nine integer digits, then
# four decimals (a network cell, a Gaussian hypervisor field) or none (a
# Poisson field).  Such a cell s lies below 1e9 < 2**30 in magnitude, so
# the double d that ``float`` reads from it is within 2**-24 < 1e-7 of s.
# No other number with as many decimals lies within half a unit of the
# last decimal of d, and ``%.4f`` (``%.0f``) rounds d correctly, so it
# prints s.  "-0.0000" reads as -0.0, which prints as "-0.0000" again.
# Only ASCII digits: ``float`` also reads other Unicode digits, which
# ``%.4f`` never prints.
_FIXED4 = r"-?(?:0|[1-9][0-9]{0,8})\.[0-9]{4}"
_FIXED0 = r"-?(?:0|[1-9][0-9]{0,8})"
# A hypervisor row's numeric cells, joined by commas, that all reprint.
_HYP_CELLS = ",".join(_FIXED0 if name in _HYP_POISSON else _FIXED4 for name in HYP_NUMERIC_FIELDS)
# The one-hot of each type token; an unknown type is an all-zero block,
# and a row that holds one cannot be printed.
_HYP_ONE_HOT = {token: tuple(float(t == token) for t in _HYP_TOKENS) for token in _HYP_TOKENS}
_HYP_NO_TYPE = (0.0,) * len(HYP_TYPES)


def _block(values: array.array, width: int) -> np.ndarray:
    """The float64 cells of ``values`` as a read-only ``(n, width)`` view."""
    block = np.frombuffer(values).reshape(-1, width)
    block.flags.writeable = False
    return block


def _reprinted(values: array.array, width: int, printer: Callable[[np.ndarray], str]) -> list[str]:
    """The records ``printer`` prints from the rows read into ``values``:
    the texts of a file's records before its first one that does not
    reprint.  The view is let go on return, so ``values`` can grow again."""
    return [printer(row) for row in _block(values, width)]


def _hyp_truth(cls: str) -> int:
    return 0 if cls.strip().lower() == HYP_NORMAL_CLASS else 1


def _hyp_ids(n: int) -> list[str]:
    return [make_event_id(LayerId.HYPERVISOR, ordinal) for ordinal in range(n)]


def gen_hypervisor(cfg: HypGenConfig) -> Corpus:
    """Generate the hypervisor corpus with exact per-class counts.

    Rows are drawn class by class into one feature block (the one-hot of
    the type, then each numeric cell as its raw record shows it),
    shuffled once, and numbered; the corpus prints each raw record from
    its read-only row of that block.  A row draws its type, then each
    run of its fields with one call, in field order; each class's
    Gaussian columns then get their mean and sd, the clip and the
    four-decimal rounding.  The same config always yields the same corpus.
    """
    rng = np.random.default_rng(cfg.seed)
    total = sum(cfg.class_counts.values())
    n_types = len(HYP_TYPES)
    block = np.zeros((total, n_types + len(HYP_NUMERIC_FIELDS)))
    types: list[int] = []
    classes: list[str] = []
    for cls in sorted(cfg.class_counts):
        draws = _hyp_row_draws(rng, cls, n_types)
        rows = block[len(types) : len(types) + cfg.class_counts[cls]]
        for row in rows:
            types.append(int(rng.integers(n_types)))
            for draw, args, cells in draws:
                row[cells] = draw(*args)
        classes += [cls] * len(rows)
        columns, mean, sd, upper = _hyp_gauss_columns(cls)
        cells = rows[:, n_types:]
        values = np.clip(mean + sd * cells[:, columns], 0.0, upper)
        round4(values)
        cells[:, columns] = values
    block[np.arange(total), types] = 1.0
    order = rng.permutation(total).tolist()
    block = block[order]
    block.flags.writeable = False
    classes = [classes[i] for i in order]
    truths = [_hyp_truth(cls) for cls in classes]
    return Corpus(
        LayerId.HYPERVISOR, _hyp_ids(total), truths, classes, block, printer=_print_hypervisor
    )


def write_hypervisor_csv(corpus: Corpus, path: str) -> None:
    """Write the 24-column dataset (labels included, ids positional)."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(HYP_COLUMNS)
        for i, cls in enumerate(corpus.classes):
            fields = parse_kv_record(corpus.record(i))
            row = [cls]
            for c in HYP_COLUMNS[1:]:
                value = fields.get(c, "")
                row.append(value.replace("_", " ") if c == "hv" else value)
            writer.writerow(row)


def load_hypervisor_csv(path: str) -> Corpus:
    """Rebuild the corpus of a 24-column dataset file; ids are positional.

    Each row's one-hot and numeric cells go into one float64 block as
    the row is read.  When every row reprints (a known ``hv`` and each
    numeric cell as the printer writes it, as in every file ``gen``
    writes), the corpus keeps no text and prints each record from its
    row, as a generated corpus does; otherwise it keeps every record as
    read.

    Raises:
        MalformedCorpus: a column is missing, a row is ragged, its
            ``event_class`` is empty, or the file holds no events.
    """
    classes: list[str] = []
    values = array.array("d")
    texts: list[str] | None = None
    width = len(HYP_TYPES) + len(HYP_NUMERIC_FIELDS)
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = check_header(next(reader, None), path, HYP_COLUMNS)
        # A repeated column reads its last cell, as a csv.DictReader row does.
        column = {name: i for i, name in enumerate(header)}
        numeric = operator.itemgetter(*(column[name] for name in HYP_NUMERIC_FIELDS))
        reprints = re.compile(_HYP_CELLS)
        for row in reader:
            if not row:
                continue
            if len(row) != len(header):
                raise MalformedCorpus(f"{path}:{reader.line_num}: row length differs from header")
            cls = row[column["event_class"]]
            if not cls.strip():
                raise MalformedCorpus(f"{path}:{reader.line_num}: empty event_class")
            classes.append(sys.intern(cls))
            hv = _kv_token(row[column["hv"]])
            one_hot = _HYP_ONE_HOT.get(hv)
            cells = numeric(row)
            if texts is None and one_hot and reprints.fullmatch(",".join(cells)):
                values.extend(one_hot)
                values.extend(map(float, cells))
                continue
            if texts is None:
                texts = _reprinted(values, width, _print_hypervisor)
            fields = " ".join(f"{k}={_kv_token(c)}" for k, c in zip(HYP_NUMERIC_FIELDS, cells))
            texts.append(f"hv={hv} {fields}")
            values.extend(one_hot or _HYP_NO_TYPE)
            values.extend(map(_safe_float, cells))
    if not classes:
        raise MalformedCorpus(f"{path}: no events")
    truths = [_hyp_truth(cls) for cls in classes]
    block = _block(values, width)
    ids = _hyp_ids(len(classes))
    return Corpus(LayerId.HYPERVISOR, ids, truths, classes, block, texts, _print_hypervisor)


NET_ATTACK_TYPES = ("port_scan", "brute_force", "dos", "infiltration")


def gen_network(cfg: NetGenConfig) -> Corpus:
    """Two numeric flow populations with configurable mean separation.

    Benign flows are standard normal per feature; attack flows share the
    covariance but sit ``separation`` away along a fixed random
    direction.  High separation makes a trained model confident, low
    separation leaves diffuse mid-range confidence mass.  The corpus's
    features are one read-only block, each drawn value rounded to four
    decimals, and it prints each raw record from its row
    (:func:`_print_network`).
    """
    rng = np.random.default_rng(cfg.seed)
    direction = rng.normal(size=cfg.n_features)
    direction /= np.linalg.norm(direction)
    n_attack = int(round(cfg.count * cfg.attack_fraction))
    labels = np.zeros(cfg.count, dtype=int)
    labels[:n_attack] = 1
    rng.shuffle(labels)
    truths = labels.tolist()
    block = np.empty((cfg.count, cfg.n_features))
    kinds: list[str | None] = []
    for row, truth in zip(block, truths):
        row[:] = rng.normal(size=cfg.n_features)
        if truth == 1:
            row += cfg.separation * direction
            kinds.append(NET_ATTACK_TYPES[int(rng.integers(len(NET_ATTACK_TYPES)))])
        else:
            kinds.append(None)
    round4(block)
    block.flags.writeable = False
    ids = [make_event_id(LayerId.NETWORK, i) for i in range(cfg.count)]
    return Corpus(LayerId.NETWORK, ids, truths, kinds, block, printer=_print_network)


NET_LEAD_COLUMNS = ["event_id", "truth", "truth_class"]

# The truth of each cell that ``write_network_csv`` writes.
_TRUTHS = {"0": 0, "1": 1, "": None}


def write_network_csv(corpus: Corpus, path: str) -> None:
    n = corpus.features.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(NET_LEAD_COLUMNS + [f"f{i:02d}" for i in range(n)])
        for i, (event_id, truth, cls) in enumerate(zip(corpus.ids, corpus.truths, corpus.classes)):
            writer.writerow(
                [event_id, "" if truth is None else truth, cls or ""] + corpus.record(i).split(",")
            )


def load_network_csv(path: str) -> Corpus:
    """Rebuild the corpus of a network CSV written by ``write_network_csv``.

    Blank lines are skipped.  Each row's feature cells go into one float64
    block as the row is read.  When every row's cells are ``%.4f`` cells
    that print back as themselves (as in every file ``gen`` writes), the
    corpus keeps no text and prints each record from its row, as a
    generated corpus does; otherwise it keeps every record as read.

    Raises:
        MalformedCorpus: the header does not start with
            ``event_id,truth,truth_class`` or has no feature column after
            them, a row is ragged, breaks :func:`check_event_id` or
            :func:`truth_label`, or has a feature cell that is not a finite
            number, or the file holds no events.
    """
    ids: list[str] = []
    truths: list[int | None] = []
    classes: list[str | None] = []
    values = array.array("d")
    texts: list[str] | None = None
    seen: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise MalformedCorpus(f"{path}:1: empty file")
        if header[:3] != NET_LEAD_COLUMNS:
            raise MalformedCorpus(f"{path}:1: header must start with event_id,truth,truth_class")
        if len(header) < 4:
            raise MalformedCorpus(f"{path}:1: no feature column after event_id,truth,truth_class")
        width = len(header) - 3
        reprints = re.compile(",".join([_FIXED4] * width))
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(header):
                raise MalformedCorpus(f"{path}:{line}: {len(row)} cells, header has {len(header)}")
            ids.append(check_event_id(row[0], path, line, seen))
            cell = row[1]
            truths.append(_TRUTHS[cell] if cell in _TRUTHS else truth_label(cell, f"{path}:{line}"))
            classes.append(sys.intern(row[2]) or None)
            cells = row[3:]
            record = ",".join(cells)
            if texts is None and reprints.fullmatch(record):
                values.extend(map(float, cells))
                continue
            try:
                features = [float(c) for c in cells]
            except ValueError as exc:
                raise MalformedCorpus(f"{path}:{line}: {exc}") from None
            if not all(map(math.isfinite, features)):
                raise MalformedCorpus(f"{path}:{line}: feature cells must be finite numbers")
            if texts is None:
                texts = _reprinted(values, width, _print_network)
            texts.append(record)
            values.extend(features)
    if not ids:
        raise MalformedCorpus(f"{path}: no events")
    block = _block(values, width)
    return Corpus(LayerId.NETWORK, ids, truths, classes, block, texts, _print_network)


_HOST_PROCS = ("apache2", "sshd", "cron", "systemd", "mysqld", "nginx")
_HOST_SYSCALLS = (
    "read", "write", "open", "close", "poll", "select",
    "mmap", "fstat", "futex", "socket",
)
_HOST_USERS = ("root", "www-data", "backup", "admin", "deploy")
_HOST_ATTACK_TYPES = ("brute_force", "priv_escalation", "exfiltration", "webshell")


def _host_benign_line(rng: random.Random) -> str:
    proc = rng.choice(_HOST_PROCS)
    sc = rng.choice(_HOST_SYSCALLS)
    # Coarse numeric buckets keep the token vocabulary small enough for
    # dense tf-idf vectors over a 25k corpus.
    return (
        f"{proc} pid={1000 + rng.randrange(20)} syscall={sc} "
        f"fd={rng.randrange(3, 32)} ret=0 bytes={64 * rng.randrange(1, 64)} "
        f"latency_us={20 * rng.randrange(1, 20)}"
    )


def _host_attack_line(rng: random.Random, kind: str, ambiguity: float) -> str:
    pid = 1000 + rng.randrange(20)
    if kind == "brute_force":
        line = (
            f"sshd pid={pid} auth_fail user={rng.choice(_HOST_USERS)} "
            f"attempts={rng.randrange(4, 40)} src=10.0.{rng.randrange(16)}.{rng.randrange(32)}"
        )
    elif kind == "priv_escalation":
        line = (
            f"{rng.choice(_HOST_PROCS)} pid={pid} syscall=execve "
            f"path=/tmp/.{rng.randrange(16):x}bin uid=0 setuid=1"
        )
    elif kind == "exfiltration":
        line = (
            f"{rng.choice(_HOST_PROCS)} pid={pid} syscall=sendto "
            f"dst=203.0.{rng.randrange(16)}.{rng.randrange(32)} "
            f"bytes={4096 * rng.randrange(64, 128)} conn_burst={rng.randrange(8, 64)}"
        )
    else:
        line = (
            f"apache2 pid={pid} syscall=execve path=/var/www/u{rng.randrange(16):x}.sh "
            f"parent=apache2"
        )
    if rng.random() < ambiguity:
        # Camouflage: append ordinary activity tokens so the line shares
        # vocabulary with benign traffic.
        line += f" {_host_benign_line(rng)}"
    return line


def gen_hostlogs(cfg: HostGenConfig) -> Corpus:
    """Templated process/syscall log lines with tunable ambiguity.

    Higher ambiguity blends benign vocabulary into attack lines (and
    mild anomalies into benign lines), which flattens a text model's
    confidence into the mid range.
    """
    rng = random.Random(cfg.seed)
    n_attack = int(round(cfg.count * cfg.attack_fraction))
    labels = [1] * n_attack + [0] * (cfg.count - n_attack)
    rng.shuffle(labels)
    kinds: list[str | None] = []
    texts: list[str] = []
    for truth in labels:
        if truth == 1:
            kind = rng.choice(_HOST_ATTACK_TYPES)
            raw = _host_attack_line(rng, kind, cfg.ambiguity)
        else:
            kind = None
            raw = _host_benign_line(rng)
            if rng.random() < cfg.ambiguity * 0.3:
                raw += f" auth_fail user={rng.choice(_HOST_USERS)} attempts=1"
        kinds.append(kind)
        texts.append(raw)
    ids = [make_event_id(LayerId.HOST, i) for i in range(cfg.count)]
    return Corpus(LayerId.HOST, ids, labels, kinds, texts=texts)


def write_host_jsonl(corpus: Corpus, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i, (event_id, truth, cls) in enumerate(zip(corpus.ids, corpus.truths, corpus.classes)):
            raw = corpus.record(i)
            row = {"event_id": event_id, "truth": truth, "truth_class": cls, "raw": raw}
            fh.write(json.dumps(row) + "\n")


def load_host_jsonl(path: str) -> Corpus:
    """Rebuild the corpus of a host JSONL file written by ``write_host_jsonl``.

    Blank lines are skipped.  Each line is decoded once; a JSON ``0`` or
    ``1`` truth is taken as it is, and any other value is judged by its
    JSON text.  Host records have no printer, so the corpus keeps each
    ``raw`` as read.

    Raises:
        MalformedCorpus: a line is not a JSON object with ``event_id``,
            ``raw`` (a string) and ``truth``, has a ``truth_class`` that is
            neither ``null`` nor a string, breaks :func:`check_event_id` or
            :func:`truth_label`, or the file holds no events.
    """
    ids: list[str] = []
    truths: list[int | None] = []
    classes: list[str | None] = []
    texts: list[str] = []
    seen: dict[str, int] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise MalformedCorpus(f"{path}:{lineno}: {exc.msg} (column {exc.colno})") from None
            if not (isinstance(data, dict) and {"event_id", "raw", "truth"} <= data.keys()):
                raise MalformedCorpus(f"{path}:{lineno}: not an object with event_id, raw, truth")
            ids.append(check_event_id(data["event_id"], path, lineno, seen))
            raw, truth, truth_class = data["raw"], data["truth"], data.get("truth_class")
            if not isinstance(raw, str):
                raise MalformedCorpus(f"{path}:{lineno}: raw {raw!r} is not a string")
            if truth is not None and (type(truth) is not int or truth not in (0, 1)):
                # Any other value is judged by its JSON text: true and 1.0 are refused.
                truth = truth_label(json.dumps(truth), f"{path}:{lineno}")
            truths.append(truth)
            if not isinstance(truth_class, (str, type(None))):
                raise MalformedCorpus(
                    f"{path}:{lineno}: truth_class {truth_class!r} is not a string"
                )
            classes.append(truth_class)
            texts.append(raw)
    if not ids:
        raise MalformedCorpus(f"{path}: no events")
    return Corpus(LayerId.HOST, ids, truths, classes, texts=texts)


def split_train_test(events: Sequence[T], ratio: float, seed: int) -> tuple[list[T], list[T]]:
    """Seeded shuffle split of a sequence, such as a corpus's row indices;
    train gets round(n * ratio) of its items.

    The two halves are disjoint and exhaustive.

    Raises:
        InvalidSplitRatio: ratio not strictly inside (0, 1).
    """
    if not (0.0 < ratio < 1.0):
        raise InvalidSplitRatio(f"train ratio must be in (0, 1), got {ratio}")
    order = list(range(len(events)))
    random.Random(seed).shuffle(order)
    cut = int(round(len(events) * ratio))
    train = [events[i] for i in order[:cut]]
    test = [events[i] for i in order[cut:]]
    return train, test
