"""Correctness checks on the artifacts of one ``compare`` run.

Each check recomputes something apart from the program, or tests a
property the routing method must have:

- every evaluation event appears exactly once in the confidence CSV of
  each mode, and the per-layer sink counts equal the summary tallies and
  the evaluation size;
- Gate 1 accepts an event exactly when its confidence is at least the
  layer threshold recorded in the summary;
- the confidence column equals ``max(p, 1 - p)`` recomputed with one
  matrix product per layer over the evaluation features (within 1e-12);
- every Gate-2 audit record obeys the match rule on its own distance,
  support and meta-confidence;
- with a seeded store, every recorded nearest distance is at most the
  brute-force minimum cosine distance to the seeded records, with the
  embedding recomputed here;
- under echo semantics every ``llm_attack`` event is an attack, and no
  verdict is UNSURE;
- ``reduction_pct`` equals 100 * (static - adaptive) / static of the two
  summaries.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import re

import numpy as np

MODES = ("static", "adaptive")
SINK_TALLY = {
    "known_accept": "known",
    "memory_attack": "memory_matched",
    "llm_attack": "llm_promoted",
    "review_bucket": "bucket",
}
CONFIDENCE_TOLERANCE = 1e-12
DISTANCE_TOLERANCE = 1e-9
TOKEN_SPLIT = re.compile(r"[^a-z0-9]+")


def _embed(text: str, dims: int) -> np.ndarray:
    """Hashed token counts, L2-normalized: the memory's embedding rule."""
    vec = np.zeros(dims)
    for token in TOKEN_SPLIT.split(text.lower()):
        if token:
            digest = hashlib.sha256(token.encode("utf-8")).digest()
            vec[int.from_bytes(digest[:8], "big") % dims] += 1.0
    norm = np.linalg.norm(vec)
    return vec / norm if norm > 0 else vec


def _seeded_matrix(path: str, dims: int) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        rows = [json.loads(line)["vector"] for line in fh if line.strip()]
    m = np.array(rows, dtype=np.float64).reshape(-1, dims)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return np.divide(m, norms, out=np.zeros_like(m), where=norms > 0)


def _read_jsonl(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run(xcfg, bundles, seeded_memory: str | None) -> dict:
    """Run every check; return the problems found and the failure counts.

    ``bundles`` are the prepared layers of the run (evaluation events and
    the trained scorers); ``seeded_memory`` is the directory the run's
    memory was copied from, or None.
    """
    problems: list[str] = []
    out, run_id = xcfg.out_dir, f"run{xcfg.pipeline.seed}"
    mcfg, dims = xcfg.pipeline.match, xcfg.pipeline.embedding.dims
    expected = {b.layer.value: [e.id for e in b.eval_events] for b in bundles.values()}
    raw = {e.id: e.raw for b in bundles.values() for e in b.eval_events}
    recomputed: dict[str, float] = {}
    for b in bundles.values():
        x = np.stack([e.features for e in b.eval_events])
        with np.errstate(over="ignore"):
            p = 1.0 / (1.0 + np.exp(-(x @ b.scorer.weights + b.scorer.bias)))
        recomputed.update(zip((e.id for e in b.eval_events), np.maximum(p, 1.0 - p)))
    missing = unsure = 0
    summaries = {}

    for mode in MODES:
        with open(os.path.join(out, f"summary_{mode}_{run_id}.json"), encoding="utf-8") as fh:
            summary = summaries[mode] = json.load(fh)
        layers = summary["layers"]
        with open(os.path.join(out, f"confidence_{mode}_{run_id}.csv"), newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        seen: dict[str, dict] = {}
        for row in rows:
            if row["event_id"] in seen:
                problems.append(f"{mode}: {row['event_id']} appears twice")
            seen[row["event_id"]] = row
        for det, ids in expected.items():
            missing += sum(1 for i in ids if i not in seen)
            tally = layers[det]
            det_rows = [r for r in rows if r["layer"] == det]
            if not len(det_rows) == tally["total"] == len(ids) == xcfg.pipeline.eval_count:
                problems.append(f"{mode}/{det}: {len(det_rows)} rows, total {tally['total']}, "
                                f"{len(ids)} evaluation events, eval_count "
                                f"{xcfg.pipeline.eval_count}")
            for sink, key in SINK_TALLY.items():
                n = sum(1 for r in det_rows if r["route"] == sink)
                if n != tally[key]:
                    problems.append(f"{mode}/{det}: {n} {sink} rows, summary {key}={tally[key]}")
            threshold = tally["learned_threshold"]
            bad = [r["event_id"] for r in det_rows
                   if (r["route"] == "known_accept") != (float(r["confidence"]) >= threshold)]
            if bad:
                problems.append(f"{mode}/{det}: Gate-1 rule broken for {len(bad)} events, e.g. {bad[0]}")
        off = [r["event_id"] for r in rows
               if abs(recomputed[r["event_id"]] - float(r["confidence"])) > CONFIDENCE_TOLERANCE]
        if off:
            problems.append(f"{mode}: confidence differs from max(p, 1-p) for {len(off)} events")
        lies = [r["event_id"] for r in rows if r["route"] == "llm_attack" and r["truth"] != "1"]
        if lies:
            problems.append(f"{mode}: {len(lies)} llm_attack events are not attacks")

        audits = _read_jsonl(os.path.join(out, f"audit_{mode}_{run_id}.jsonl"))
        for a in audits:
            if a["gate"] == "gate3":
                unsure += a["llm_label"] == "UNSURE"
                continue
            d = a["nearest_distance"]
            rule = d is not None and (d <= mcfg.exact_radius or (
                d <= mcfg.near_radius and a["support"] >= mcfg.min_support
                and a["meta_confidence"] >= mcfg.min_meta))
            if rule != a["matched"]:
                problems.append(f"{mode}: Gate-2 record of {a['event_id']} breaks the match rule")
        if seeded_memory:
            problems += _check_nearest(audits, raw, seeded_memory, mode, dims)

    cost_path = os.path.join(out, f"compare_{run_id}.json")
    with open(cost_path, encoding="utf-8") as fh:
        cost = json.load(fh)["cost"]
    n_static = summaries["static"]["overall"]["uncertain"]
    n_adaptive = summaries["adaptive"]["overall"]["uncertain"]
    if (cost["n_static"], cost["n_adaptive"]) != (n_static, n_adaptive) or cost[
            "reduction_pct"] != round(100 * (n_static - n_adaptive) / n_static, 2):
        problems.append(f"reduction_pct {cost['reduction_pct']} does not follow from "
                        f"{n_static} static and {n_adaptive} adaptive escalations")
    return {"problems": problems, "missing_events": missing, "unsure_verdicts": unsure}


def _check_nearest(audits, raw, seeded_dir, mode, dims) -> list[str]:
    problems = []
    by_layer: dict[str, list[dict]] = {}
    for a in audits:
        if a["gate"] == "gate2":
            by_layer.setdefault(a["layer"], []).append(a)
    for det, records in by_layer.items():
        seeded = _seeded_matrix(os.path.join(seeded_dir, f"memory_{det}_{mode}.jsonl"), dims)
        queries = np.stack([_embed(raw[a["event_id"]], dims) for a in records])
        brute = np.clip(1.0 - (queries @ seeded.T).max(axis=1), 0.0, 2.0)
        brute[~queries.any(axis=1)] = 1.0
        worse = [a["event_id"] for a, b in zip(records, brute)
                 if a["nearest_distance"] is None or a["nearest_distance"] > b + DISTANCE_TOLERANCE]
        if worse:
            problems.append(f"{mode}/{det}: {len(worse)} nearest distances exceed the "
                            f"brute-force minimum over the seeded store, e.g. {worse[0]}")
    return problems
