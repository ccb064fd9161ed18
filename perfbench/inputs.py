"""Per-seed inputs of the workloads, built once and verified on use.

llm-http reads its corpora with ``--data`` and its Gate-1 thresholds
with ``--calibration``, and its stub reads the ground truth from the same
corpora; route-warm-memory starts from a copy of the seeded attack memory
(``--memory-dir``) built from the training split of the same corpora.
This module writes all three under one directory per seed,
through the program's own public functions, and records the SHA-256 of
every file in ``manifest.json``.  Every run checks the manifest before
it uses the directory.

Run as a script to build one seed: ``python3 perfbench/inputs.py --seed N
--dest DIR``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys

MANIFEST = "manifest.json"
MEMORY_SUBDIR = "memory"
# Training-split attacks embedded into each (layer, mode) store of the
# seeded memory.  Sized so that Gate-2 scans are most of the routing
# time of route-warm-memory while one run still ends well inside a minute.
SEEDED_PER_STORE = 2000


def calibration_file(dest: str, seed: int) -> str:
    return os.path.join(dest, f"calibration_run{seed}.json")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _write_seeded_memory(data_dir: str, mem_dir: str, seed: int) -> None:
    from idsgate.config import load_experiment_config
    from idsgate.corpus import split_train_test
    from idsgate.experiment import load_events
    from idsgate.memory import (
        EmbeddingConfig,
        MemoryRecord,
        MemorySource,
        MemoryStore,
        embed,
        save_store,
    )
    from idsgate.outputs import make_clock
    from idsgate.pipeline import LAYER_ORDER, Mode

    cfg = load_experiment_config(None, {"seed": str(seed)}).pipeline
    ecfg = EmbeddingConfig(dims=cfg.embedding.dims)
    clock = make_clock(False)
    os.makedirs(mem_dir)
    for layer in LAYER_ORDER:
        train, _ = split_train_test(load_events(layer, data_dir), cfg.train_ratio, seed)
        attacks = [e for e in train if e.truth == 1][:SEEDED_PER_STORE]
        if len(attacks) < SEEDED_PER_STORE:
            raise RuntimeError(
                f"{layer.value}: {len(attacks)} training attacks, need {SEEDED_PER_STORE}"
            )
        store = MemoryStore(dims=ecfg.dims)
        for e in attacks:
            store.insert(
                MemoryRecord(
                    id=e.id,
                    layer=layer,
                    vector=embed(e.raw, ecfg),
                    attack_type=e.truth_class or "unknown",
                    source=MemorySource.MEMORY_SEEDED,
                    created_at=clock.tick(),
                )
            )
        for mode in Mode:
            save_store(
                store, os.path.join(mem_dir, f"memory_{layer.value}_{mode.value}.jsonl")
            )


def build(seed: int, dest: str) -> None:
    """Write corpora, calibration and seeded memory for one seed into dest.

    The directory appears only when complete: everything is written to a
    temporary sibling that is renamed at the end.
    """
    from idsgate import experiment
    from idsgate.config import load_experiment_config

    tmp = f"{dest}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    experiment.do_gen(load_experiment_config(None, {"seed": str(seed), "out_dir": tmp}))
    experiment.do_calibrate(
        load_experiment_config(
            None, {"seed": str(seed), "out_dir": tmp, "data_dir": tmp}
        )
    )
    _write_seeded_memory(tmp, os.path.join(tmp, MEMORY_SUBDIR), seed)
    files = {}
    for base, _, names in os.walk(tmp):
        for name in names:
            path = os.path.join(base, name)
            files[os.path.relpath(path, tmp)] = sha256_file(path)
    with open(os.path.join(tmp, MANIFEST), "w", encoding="utf-8") as fh:
        json.dump({"seed": seed, "files": dict(sorted(files.items()))}, fh, indent=2)
        fh.write("\n")
    if os.path.isdir(dest):  # built meanwhile by a concurrent run
        shutil.rmtree(tmp)
    else:
        os.rename(tmp, dest)


def verify(dest: str) -> None:
    """Check every file against the manifest.

    Raises:
        RuntimeError: a file is missing, changed, or not in the manifest.
    """
    with open(os.path.join(dest, MANIFEST), encoding="utf-8") as fh:
        files = json.load(fh)["files"]
    present = set()
    for base, _, names in os.walk(dest):
        for name in names:
            present.add(os.path.relpath(os.path.join(base, name), dest))
    present.discard(MANIFEST)
    if present != set(files):
        raise RuntimeError(f"{dest}: files differ from manifest: {sorted(present ^ set(files))}")
    for rel, digest in files.items():
        if sha256_file(os.path.join(dest, rel)) != digest:
            raise RuntimeError(f"{dest}: {rel} does not match its recorded SHA-256")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dest", required=True)
    args = parser.parse_args()
    build(args.seed, args.dest)
    verify(args.dest)
    return 0


if __name__ == "__main__":
    sys.exit(main())
