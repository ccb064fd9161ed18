"""Three-gate escalation pipeline for layered intrusion alerts.

Alerts from network, host, and hypervisor sensors carry a label and a
confidence from a base model.  Gate 1 keeps confident events on a
learned per-layer threshold, Gate 2 matches the rest against a memory
of past attack patterns, and Gate 3 escalates what is left to an LLM
analyst whose verdicts are accepted, fused with the model score, or
parked for human review.

Usage as a library:

    from idsgate import PipelineConfig, Mode, route_stream

Usage from the shell:

    idsgate compare --seed 7 --out out/
"""

__version__ = "0.1.0"

from .events import (
    Corpus,
    Event,
    LayerId,
    ScoredEvent,
    Sink,
    Verdict,
)
from .llm import (
    EchoLlmClient,
    FusionConfig,
    HttpLlmClient,
    LlmThresholds,
    LlmVerdict,
    MockLlmClient,
    fuse,
    parse_verdict,
)
from .memory import EmbeddingConfig, MatchConfig, MemoryStore, embed, load_store
from .pipeline import (
    CostReport,
    Metrics,
    Mode,
    PipelineConfig,
    compare_modes,
    cost_analysis,
    route_stream,
    run_mode,
)
from .qcal import CalibConfig, CalibrationResult, calibrate
from .scoring import FeatureExtractor, Scorer, score_stream, train_baseline

__all__ = [
    "__version__",
    "Corpus",
    "Event",
    "ScoredEvent",
    "LayerId",
    "Sink",
    "Verdict",
    "PipelineConfig",
    "Mode",
    "Metrics",
    "CostReport",
    "route_stream",
    "run_mode",
    "compare_modes",
    "cost_analysis",
    "CalibConfig",
    "CalibrationResult",
    "calibrate",
    "MemoryStore",
    "EmbeddingConfig",
    "MatchConfig",
    "embed",
    "load_store",
    "LlmVerdict",
    "LlmThresholds",
    "FusionConfig",
    "HttpLlmClient",
    "MockLlmClient",
    "EchoLlmClient",
    "parse_verdict",
    "fuse",
    "FeatureExtractor",
    "Scorer",
    "score_stream",
    "train_baseline",
]
