"""Golden bytes: ``idsgate compare`` on replayed scores writes pinned files.

``compare_determinism`` only checks that two runs agree with each other;
this test pins what they write.  Every layer is scored ``replay:`` from a
CSV written here with seeded confidences, so no confidence goes through
BLAS and the SHA-256 of each artifact does not depend on the machine.
Replayed events carry an empty raw record, so Gate 2 never matches and
every uncertain event reaches the echo analyst at 0.65: the host layer
takes those verdicts directly (LLM threshold 0.61), the network layer
fuses them against a pinned fusion threshold of 0.62, and the hypervisor
layer fuses them short of its 0.89.  Any change to routing, the summary
arithmetic or an artifact's format changes a hash here.
"""

import hashlib
import json
import os
import random

from idsgate.cli import main
from idsgate.events import LayerId

EXPECTED_SHA256 = {
    "audit_adaptive_run3.jsonl": "c4829b7b0e361b8d8ba4dbfa8a6603ff4ac159d3a97e4e49d40c232238220137",
    "audit_static_run3.jsonl": "d7b9183ffd9fc2760a477c51a2e82d4c2c30d69d0c1f6c431777f86263c3a119",
    "compare_run3.json": "59f649e452f8ba98f3572893c5589191d6e48c30cebbfc514233df50bc4b8bab",
    "compare_table_run3.csv": "6909c3ae6a2499b4d3c2428b539b610db937b9f0c4c9a3b5b7bb9e7c071c2347",
    "confidence_adaptive_run3.csv": "e82fc6d779420d3451cf3038f9110bd0b5686f6533845cb801a07d8bd5253a63",
    "confidence_static_run3.csv": "bb7d6c7c62d606ab4cb6a67a3894196b56ad85a6803ae3caccb63175dd54ec0f",
    "review_adaptive_run3.jsonl": "fb623d51987cf50ea233c985bd246a68d995339b7f827390c290df7640027640",
    "review_static_run3.jsonl": "a483047428beb135bd87bea00cfa6e909d9a36bacf8eaa77c55103e7179bb6ad",
    "summary_adaptive_run3.json": "fe0d93a515a4ea68da08cc92b3b24135355722d6acafc6bbd38e7d0402614428",
    "summary_static_run3.json": "1494b9bb3cd2c68b64a21bf3ef0cb10b82ce616deb641475196d47a503694ca8",
}


def write_replay_csv(path, layer, seed, count=400):
    rng = random.Random(seed)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("event_id,layer,pred_label,confidence,truth\n")
        for i in range(count):
            truth = int(rng.random() < 0.4)
            confidence = round(0.5 + 0.4999 * rng.random(), 4)
            pred = truth if rng.random() < confidence else 1 - truth
            fh.write(f"{layer.value}-{i},{layer.value},{pred},{confidence},{truth}\n")


def test_compare_on_replayed_scores_writes_golden_bytes(tmp_path):
    lines = ["episodes = 3", "eval_count = 60", "fusion_tau_network = 0.62"]
    for seed, layer in enumerate(LayerId):
        path = os.path.join(tmp_path, f"{layer.value}_scores.csv")
        write_replay_csv(path, layer, seed)
        lines.append(f"scorer_{layer.value} = replay:{path}")
    cfg = os.path.join(tmp_path, "golden.cfg")
    with open(cfg, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    out = os.path.join(tmp_path, "out")
    argv = ["compare", "--config", cfg, "--seed", "3", "--out", out, "--mock-llm", "echo:0.65"]
    assert main(argv) == 0

    # the run exercises what the docstring says it does
    outcomes = set()
    for mode in ("static", "adaptive"):
        with open(os.path.join(out, f"audit_{mode}_run3.jsonl"), encoding="utf-8") as fh:
            for a in map(json.loads, fh):
                if a["gate"] == "gate3":
                    outcomes.add((a["layer"], a["llm_label"], a["provenance"], a["sink"]))
    assert ("host", "ATTACK", "direct", "llm_attack") in outcomes
    assert ("network", "ATTACK", "fusion", "llm_attack") in outcomes
    assert ("hypervisor", "ATTACK", "none", "review_bucket") in outcomes  # fusion declined

    digests = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == EXPECTED_SHA256
