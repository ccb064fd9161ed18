"""Configuration: a flat key=value file, overridden by CLI flags.

Every tunable default in the system is reachable from here.  The file
format is one ``key = value`` per line, ``#`` comments, blank lines
ignored.  Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import math
import urllib.parse
from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from types import MappingProxyType

from .events import LayerId
from .llm import BadFusionWeights, fuse
from .pipeline import Mode, PipelineConfig
from .qcal import ActionSet


class ConfigError(ValueError):
    """Bad config file contents or values."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Pipeline config plus corpus, scorer, and LLM-client selection.

    Per-layer mappings (``scorers`` here, the LLM and fusion thresholds
    in ``pipeline``) are kept as read-only copies, so a frozen config
    cannot change past its checks.
    """

    pipeline: PipelineConfig = field(default_factory=PipelineConfig)
    layers: tuple[LayerId, ...] = (LayerId.NETWORK, LayerId.HOST, LayerId.HYPERVISOR)
    # "baseline" or "replay:<csv path>" per layer
    scorers: Mapping[LayerId, str] = field(
        default_factory=lambda: {layer: "baseline" for layer in LayerId}
    )
    # LLM client: "echo[:confidence]", "table:<jsonl path>", or "http"
    llm_spec: str = "echo:0.9"
    llm_url: str = "http://localhost:11434"
    llm_model: str = "llama3"
    llm_timeout: float = 30.0
    llm_retries: int = 2
    out_dir: str = "out"
    data_dir: str | None = None
    memory_dir: str | None = None
    # generator knobs
    net_count: int = 25000
    net_attack_fraction: float = 0.25
    net_separation: float = 3.0
    host_count: int = 25000
    host_attack_fraction: float = 0.35
    host_ambiguity: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "scorers", MappingProxyType(dict(self.scorers)))
        for name in ("net_count", "host_count"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("net_attack_fraction", "host_attack_fraction", "host_ambiguity"):
            if not 0.0 <= getattr(self, name) <= 1.0:  # NaN fails too
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")
        if self.llm_retries < 0:
            raise ValueError(f"llm_retries must be >= 0, got {self.llm_retries}")
        if not self.llm_timeout > 0:  # NaN fails too
            raise ValueError(f"llm_timeout must be > 0, got {self.llm_timeout}")
        url = urllib.parse.urlsplit(self.llm_url)
        if url.scheme not in ("http", "https") or not url.hostname:
            raise ValueError("llm_url must be http:// or https:// and name a host")
        url.port  # ValueError for a port that is not a number in 0-65535
        for layer, spec in self.scorers.items():
            kind, _, path = spec.partition(":")
            if not (spec == "baseline" or (kind == "replay" and path)):
                raise ValueError(f"scorer_{layer.value} must be baseline or replay:<path>")
        kind, sep, arg = self.llm_spec.partition(":")
        if kind == "echo" and sep:
            if not 0.0 <= float(arg) <= 1.0:  # NaN fails too
                raise ValueError("echo confidence must be in [0, 1]")
        elif not (self.llm_spec in ("echo", "http") or (kind == "table" and arg)):
            raise ValueError("expected echo[:confidence], table:<path> or http")


def read_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; later keys override earlier ones."""
    out: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = stripped.partition("=")
            out[key.strip()] = value.strip()
    return out


def _typed(convert: Callable[[str], object], error: str, value: str) -> object:
    try:
        return convert(value)
    except (ValueError, KeyError):
        raise ConfigError(f"{error}: {value!r}") from None


_BOOLS = {
    **dict.fromkeys(("true", "1", "yes", "on"), True),
    **dict.fromkeys(("false", "0", "no", "off"), False),
}
_int = partial(_typed, int, "not an integer")
_bool = partial(_typed, lambda v: _BOOLS[v.lower()], "not a boolean")
_layer = partial(_typed, lambda name: LayerId(name.lower()), "unknown layer")


def _num(value: str) -> float:
    number = _typed(float, "not a number", value)
    if not math.isfinite(number):
        raise ValueError("not finite")
    return number


def _layers(value: str) -> tuple[LayerId, ...]:
    layers = tuple(_layer(p.strip()) for p in value.split(",") if p.strip())
    if not layers:
        raise ValueError("no layer named")
    return layers


# key -> (dotted field path under ExperimentConfig, parser)
_KEYS: dict[str, tuple[str, Callable[[str], object]]] = {
    "mode": ("pipeline.mode", lambda v: Mode(v.lower())),
    "static_threshold": ("pipeline.static_threshold", _num),
    "eval_count": ("pipeline.eval_count", _int),
    "train_ratio": ("pipeline.train_ratio", _num),
    "seed": ("pipeline.seed", _int),
    "c_event": ("pipeline.c_event", _num),
    "llm_parallelism": ("pipeline.llm_parallelism", _int),
    "wall_clock": ("pipeline.wall_clock", _bool),
    "episodes": ("pipeline.calib.episodes", _int),
    "window": ("pipeline.calib.window", _int),
    "epsilon_start": ("pipeline.calib.epsilon_start", _num),
    "epsilon_decay": ("pipeline.calib.epsilon_decay", _num),
    "epsilon_floor": ("pipeline.calib.epsilon_floor", _num),
    "alpha": ("pipeline.calib.alpha", _num),
    "gamma": ("pipeline.calib.gamma", _num),
    "r_correct_known": ("pipeline.calib.rewards.r_correct_known", _num),
    "r_wrong_known_benign": ("pipeline.calib.rewards.r_wrong_known_benign", _num),
    "r_wrong_known_attack": ("pipeline.calib.rewards.r_wrong_known_attack", _num),
    "r_escalate": ("pipeline.calib.rewards.r_escalate", _num),
    "r_band_penalty": ("pipeline.calib.rewards.r_band_penalty", _num),
    "band_max": ("pipeline.calib.rewards.band_max", _num),
    "embed_dims": ("pipeline.embedding.dims", _int),
    "match_k": ("pipeline.match.k", _int),
    "exact_radius": ("pipeline.match.exact_radius", _num),
    "near_radius": ("pipeline.match.near_radius", _num),
    "support_radius": ("pipeline.match.support_radius", _num),
    "min_support": ("pipeline.match.min_support", _int),
    "min_meta": ("pipeline.match.min_meta", _num),
    "p_min": ("pipeline.llm_thresholds.p_min", _num),
    "w_model": ("pipeline.fusion.w_model", _num),
    "w_llm": ("pipeline.fusion.w_llm", _num),
    "llm": ("llm_spec", str),
    "llm_url": ("llm_url", str),
    "llm_model": ("llm_model", str),
    "llm_timeout": ("llm_timeout", _num),
    "llm_retries": ("llm_retries", _int),
    "out_dir": ("out_dir", str),
    "data_dir": ("data_dir", str),
    "memory_dir": ("memory_dir", str),
    "layers": ("layers", _layers),
    "net_count": ("net_count", _int),
    "net_attack_fraction": ("net_attack_fraction", _num),
    "net_separation": ("net_separation", _num),
    "host_count": ("host_count", _int),
    "host_attack_fraction": ("host_attack_fraction", _num),
    "host_ambiguity": ("host_ambiguity", _num),
}

# <prefix><layer> sets that layer's entry of a per-layer dict
_LAYER_PREFIXES = {
    "llm_tau_": ("pipeline.llm_thresholds.tau", _num),
    "fusion_tau_": ("pipeline.fusion.fusion_tau", _num),
    "scorer_": ("scorers", str),
}


def _set(obj, path: str, value: object):
    """Copy of ``obj`` with the dotted field ``path`` set, via ``replace``."""
    head, _, rest = path.partition(".")
    return replace(obj, **{head: _set(getattr(obj, head), rest, value) if rest else value})


def build_experiment_config(kv: dict[str, str]) -> ExperimentConfig:
    """Turn a flat key/value mapping into typed configuration.

    Raises:
        ConfigError: unknown key, unparseable value, or a value out of
            range (``bad value for <key>``).
    """
    xcfg = ExperimentConfig()
    # the Gate-1 action grid is derived from these once every key is read
    grid = {"action_min": 0.50, "action_max": 0.95, "action_step": 0.01}
    for key, value in kv.items():
        try:
            if key in grid:
                grid[key] = _num(value)
            elif key in _KEYS:
                path, parse = _KEYS[key]
                xcfg = _set(xcfg, path, parse(value))
            elif prefix := next((p for p in _LAYER_PREFIXES if key.startswith(p)), None):
                path, parse = _LAYER_PREFIXES[prefix]
                per_layer = reduce(getattr, path.split("."), xcfg)
                layer = _layer(key.removeprefix(prefix))
                xcfg = _set(xcfg, path, {**per_layer, layer: parse(value)})
            else:
                raise ConfigError(f"unknown config key: {key!r}")
        except ConfigError:
            raise
        except ValueError as exc:
            raise ConfigError(f"bad value for {key}: {value!r} ({exc})") from exc

    lo, hi, step = grid.values()
    try:
        n_actions = int(round((hi - lo) / step)) + 1
        if n_actions > 500_000:  # more than the 6-decimal values in [0.5, 1.0)
            raise ValueError(f"{n_actions} thresholds repeat at 6 decimals")
        thresholds = tuple(round(lo + i * step, 6) for i in range(n_actions))
        xcfg = _set(xcfg, "pipeline.calib.actions", ActionSet(thresholds=thresholds))
    except (ValueError, ArithmeticError) as exc:
        # blame the first grid key out of range (or a step too fine), else the last one given
        ok = {"action_min": 0.5 <= lo < 1.0, "action_max": 0.5 <= hi < 1.0}
        ok["action_step"] = step > 0 and (hi - lo) / step < 500_000
        key = next((k for k, fine in ok.items() if not fine), [k for k in kv if k in grid][-1])
        raise ConfigError(f"bad value for {key}: {kv[key]!r} ({exc})") from exc
    try:  # fuse checks the exact decimal sum of the weights
        fuse(0.0, 0.0, xcfg.pipeline.fusion)
    except BadFusionWeights as exc:
        key = [k for k in kv if k in ("w_model", "w_llm")][-1]
        raise ConfigError(f"bad value for {key}: {kv[key]!r} ({exc})") from exc
    return xcfg


def load_experiment_config(
    path: str | None, overrides: dict[str, str] | None = None
) -> ExperimentConfig:
    """File config (if any) with override keys applied on top."""
    kv = read_config_file(path) if path else {}
    return build_experiment_config({**kv, **(overrides or {})})
