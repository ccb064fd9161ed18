"""Golden bytes of ``idsgate compare --seed 0`` on the default config.

Unlike ``test_golden.py``, this run generates its corpora, fits the host
tf-idf, trains and scores every layer, and calibrates Gate 1, so the
pinned files cover training, scoring and routing on generated data.
Only the six files that do not depend on the CPU's ``np.exp`` kernel are
pinned: the audits, the summaries, the comparison and its table.  The
confidence CSVs and the review files carry confidence digits that move
with numpy's SIMD dispatch, so they are left out until the sigmoid no
longer calls ``np.exp``.  The hashes were made on Python 3.11.7 with
numpy 2.4.6 on x86-64.
"""

import hashlib
import os

from idsgate.cli import main

EXPECTED_SHA256 = {
    "audit_adaptive_run0.jsonl": "d8e915aa467ea9b060a13905b5f97e070c9807166f05097beee506823bfb87da",
    "audit_static_run0.jsonl": "4882f26884656660b1f5418bb90f5279e28b3b18fc2e66bf858fe9017a5c40ee",
    "compare_run0.json": "646d66d050bbca0832f48858594fdd6992dd4536286c0df2442d9223d3d047ee",
    "compare_table_run0.csv": "04ce596a1f46b986d4f9f0117be4956759461dcf20eed783d9a6d6bcb0bd6743",
    "summary_adaptive_run0.json": "87f6a04d8a81cb2de881736a4f639a926c00323b74c3cbc8b578965e8bb4a424",
    "summary_static_run0.json": "981ef0b46bd486f711e5b28b52b9f50d3bdd85010d3022eae606b6b1f2305962",
}


def test_compare_seed_0_writes_golden_bytes(tmp_path):
    out = os.path.join(tmp_path, "out")
    assert main(["compare", "--seed", "0", "--out", out]) == 0
    assert len(os.listdir(out)) == 10
    digests = {}
    for name in EXPECTED_SHA256:
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    assert digests == EXPECTED_SHA256
