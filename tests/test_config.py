import dataclasses
import os

import pytest

from conftest import make_scored
from idsgate.config import (
    ConfigError,
    ExperimentConfig,
    build_experiment_config,
    load_experiment_config,
    read_config_file,
)
from idsgate.events import LayerId, Sink, Verdict
from idsgate.llm import LlmThresholds, LlmVerdict, Provenance, gate3_decide
from idsgate.pipeline import Mode, PipelineConfig


def write_cfg(tmp_path, text):
    path = os.path.join(tmp_path, "exp.cfg")
    with open(path, "w") as fh:
        fh.write(text)
    return path


def test_read_config_file_parses_kv_lines(tmp_path):
    path = write_cfg(
        tmp_path,
        "# experiment settings\n"
        "\n"
        "seed = 7\n"
        "mode=adaptive\n"
        "  llm = echo:0.8  \n"
        "seed = 9\n",
    )
    kv = read_config_file(path)
    assert kv == {"seed": "9", "mode": "adaptive", "llm": "echo:0.8"}


def test_read_config_file_rejects_bare_words(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\nадaptive\n")
    with pytest.raises(ConfigError, match="expected 'key = value'"):
        read_config_file(path)


def test_defaults_without_any_file():
    xcfg = load_experiment_config(None)
    assert isinstance(xcfg, ExperimentConfig)
    assert xcfg.layers == (LayerId.NETWORK, LayerId.HOST, LayerId.HYPERVISOR)
    assert xcfg.pipeline.mode is Mode.ADAPTIVE
    assert xcfg.pipeline.static_threshold == 0.85
    assert len(xcfg.pipeline.calib.actions) == 46
    assert xcfg.llm_spec == "echo:0.9"


def test_build_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown config key"):
        build_experiment_config({"thresold": "0.9"})


def test_build_rejects_bad_values():
    with pytest.raises(ConfigError, match="not an integer"):
        build_experiment_config({"seed": "seven"})
    with pytest.raises(ConfigError, match="not a number"):
        build_experiment_config({"static_threshold": "high"})
    with pytest.raises(ConfigError, match="not a boolean"):
        build_experiment_config({"wall_clock": "maybe"})
    with pytest.raises(ConfigError):
        build_experiment_config({"mode": "hybrid"})
    # parseable but out of range: the error names the key at fault
    for kv, key in [
        ({"c_event": "-1"}, "c_event"),
        ({"llm_parallelism": "0"}, "llm_parallelism"),
        ({"embed_dims": "8"}, "embed_dims"),
        ({"action_max": "1.2"}, "action_max"),
        ({"action_step": "0"}, "action_step"),
        ({"action_min": "0.4", "action_step": "0.05"}, "action_min"),
        ({"action_step": "0.5"}, "action_step"),
        ({"action_min": "0.97"}, "action_min"),
        ({"action_min": "0.9", "action_max": "0.6"}, "action_max"),
        # 4.5M steps: rejected before the grid is built
        ({"action_step": "1e-7"}, "action_step"),
        ({"action_step": "1e-7", "action_min": "0.6"}, "action_step"),
        # parseable but not finite, or no layer at all
        ({"c_event": "nan"}, "c_event"),
        ({"static_threshold": "inf"}, "static_threshold"),
        ({"train_ratio": "nan"}, "train_ratio"),
        ({"near_radius": "nan"}, "near_radius"),
        ({"p_min": "nan"}, "p_min"),
        ({"w_model": "nan"}, "w_model"),
        ({"llm_tau_host": "nan"}, "llm_tau_host"),
        ({"band_max": "inf"}, "band_max"),
        ({"action_min": "-inf"}, "action_min"),
        ({"layers": ","}, "layers"),
        # Gate-2 match keys
        ({"match_k": "0"}, "match_k"),
        ({"match_k": "-1"}, "match_k"),
        ({"exact_radius": "-0.01"}, "exact_radius"),
        ({"near_radius": "2.5"}, "near_radius"),
        ({"support_radius": "3"}, "support_radius"),
        ({"min_support": "-1"}, "min_support"),
        ({"min_meta": "1.01"}, "min_meta"),
        ({"min_meta": "-0.5"}, "min_meta"),
        # Gate-1 calibration keys
        ({"window": "0"}, "window"),
        ({"window": "-5"}, "window"),
        ({"episodes": "-1"}, "episodes"),
        ({"alpha": "5"}, "alpha"),
        ({"gamma": "-0.1"}, "gamma"),
        ({"epsilon_start": "1.5"}, "epsilon_start"),
        ({"epsilon_decay": "2"}, "epsilon_decay"),
        ({"epsilon_floor": "-0.05"}, "epsilon_floor"),
        # fusion weights whose exact decimal sum is not 1
        ({"w_model": "0.5"}, "w_model"),
        ({"w_llm": "0.7"}, "w_llm"),
        # Gate-1 static threshold, LLM client and scorer specs
        ({"static_threshold": "7"}, "static_threshold"),
        ({"static_threshold": "-0.01"}, "static_threshold"),
        ({"llm_retries": "-1"}, "llm_retries"),
        ({"llm_timeout": "-1"}, "llm_timeout"),
        ({"llm_timeout": "0"}, "llm_timeout"),
        ({"scorer_network": "bogus"}, "scorer_network"),
        ({"scorer_host": "replay:"}, "scorer_host"),
        ({"scorer_hypervisor": "replay"}, "scorer_hypervisor"),
        ({"scorer_network": "baseline:x"}, "scorer_network"),
        # generator fractions
        ({"net_attack_fraction": "-0.5"}, "net_attack_fraction"),
        ({"host_attack_fraction": "2"}, "host_attack_fraction"),
        ({"host_ambiguity": "7"}, "host_ambiguity"),
        # an endpoint without an http(s) scheme or a host
        ({"llm_url": "localhost:11434"}, "llm_url"),
        ({"llm_url": "ftp://box:11434"}, "llm_url"),
        ({"llm_url": "http://:11434"}, "llm_url"),
        ({"llm_url": "http://"}, "llm_url"),
        ({"llm_url": "http://box:abc"}, "llm_url"),
        ({"llm_url": "http://box:70000"}, "llm_url"),
        # LLM-gate thresholds and weights outside [0, 1]
        ({"llm_tau_host": "7"}, "llm_tau_host"),
        ({"llm_tau_network": "-0.1"}, "llm_tau_network"),
        ({"p_min": "2"}, "p_min"),
        ({"p_min": "-0.5"}, "p_min"),
        ({"fusion_tau_network": "-3"}, "fusion_tau_network"),
        ({"fusion_tau_hypervisor": "1.5"}, "fusion_tau_hypervisor"),
        # these weights sum to exactly 1, so only the range check catches them
        ({"w_model": "-1", "w_llm": "2"}, "w_model"),
        ({"w_llm": "2", "w_model": "-1"}, "w_llm"),
    ]:
        with pytest.raises(ConfigError, match=f"bad value for {key}:"):
            build_experiment_config(kv)


def test_scalar_keys_reach_the_pipeline():
    xcfg = build_experiment_config(
        {
            "mode": "static",
            "static_threshold": "0.9",
            "eval_count": "100",
            "train_ratio": "0.7",
            "seed": "3",
            "c_event": "2.5",
            "llm_parallelism": "2",
            "wall_clock": "true",
        }
    )
    pipe = xcfg.pipeline
    assert pipe.mode is Mode.STATIC
    assert pipe.static_threshold == 0.9
    assert pipe.eval_count == 100
    assert pipe.train_ratio == 0.7
    assert pipe.seed == 3
    assert pipe.c_event == 2.5
    assert pipe.llm_parallelism == 2
    assert pipe.wall_clock is True


def test_calibration_keys():
    xcfg = build_experiment_config(
        {
            "episodes": "5",
            "window": "50",
            "epsilon_start": "0.8",
            "epsilon_decay": "0.95",
            "epsilon_floor": "0.01",
            "alpha": "0.2",
            "gamma": "0.8",
            "r_escalate": "-0.4",
            "band_max": "0.3",
        }
    )
    calib = xcfg.pipeline.calib
    assert calib.episodes == 5
    assert calib.window == 50
    assert calib.epsilon_start == 0.8
    assert calib.epsilon_decay == 0.95
    assert calib.epsilon_floor == 0.01
    assert calib.alpha == 0.2
    assert calib.gamma == 0.8
    assert calib.rewards.r_escalate == -0.4
    assert calib.rewards.band_max == 0.3


def test_action_grid_rebuild():
    xcfg = build_experiment_config(
        {"action_min": "0.6", "action_max": "0.8", "action_step": "0.05"}
    )
    assert xcfg.pipeline.calib.actions.thresholds == (0.6, 0.65, 0.7, 0.75, 0.8)


def test_matching_and_embedding_keys():
    xcfg = build_experiment_config(
        {
            "embed_dims": "64",
            "match_k": "7",
            "exact_radius": "0.02",
            "near_radius": "0.2",
            "support_radius": "0.4",
            "min_support": "2",
            "min_meta": "0.5",
        }
    )
    pipe = xcfg.pipeline
    assert pipe.embedding.dims == 64
    assert pipe.match.k == 7
    assert pipe.match.exact_radius == 0.02
    assert pipe.match.near_radius == 0.2
    assert pipe.match.support_radius == 0.4
    assert pipe.match.min_support == 2
    assert pipe.match.min_meta == 0.5


def test_per_layer_llm_thresholds():
    xcfg = build_experiment_config({"llm_tau_host": "0.7", "p_min": "0.9"})
    tau = xcfg.pipeline.llm_thresholds.tau
    assert tau[LayerId.HOST] == 0.7
    assert tau[LayerId.NETWORK] == 0.69  # untouched default
    assert xcfg.pipeline.llm_thresholds.p_min == 0.9


def test_fusion_tau_follows_llm_tau_unless_set():
    # ATTACK at 0.65 on a 0.5-confidence event fuses to 0.62: below the
    # 0.7 LLM threshold, above a pinned 0.6 fusion threshold.
    se, verdict = make_scored(0.5, pred_label=1), LlmVerdict(Verdict.ATTACK, 0.65)

    def decide(kv):
        pipe = build_experiment_config(kv).pipeline
        return gate3_decide(se, verdict, LayerId.HOST, pipe.llm_thresholds, pipe.fusion)

    follows = decide({"llm_tau_host": "0.7"})
    assert (follows.sink, follows.provenance) == (Sink.REVIEW_BUCKET, Provenance.NONE)
    pinned = decide({"llm_tau_host": "0.7", "fusion_tau_host": "0.6"})
    assert (pinned.sink, pinned.provenance) == (Sink.LLM_ATTACK, Provenance.FUSION)
    assert build_experiment_config({"fusion_tau_host": "0.6"}).pipeline.fusion.fusion_tau == {
        LayerId.HOST: 0.6
    }


@pytest.mark.parametrize(
    "spec", ["echo", "echo:0", "echo:1", "echo:0.75", "table:mock.jsonl", "http"]
)
def test_llm_spec_forms_accepted(spec):
    assert build_experiment_config({"llm": spec}).llm_spec == spec
    assert ExperimentConfig(llm_spec=spec).llm_spec == spec


@pytest.mark.parametrize("spec", ["echo:abc", "echo:1.5", "echo:nan", "echo:", "table:", "oracle"])
def test_experiment_config_rejects_bad_llm_spec(spec):
    # checked where the config is made, so no client factory sees it
    with pytest.raises(ValueError):
        ExperimentConfig(llm_spec=spec)


def test_configs_are_frozen_so_every_change_is_checked():
    xcfg = ExperimentConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        xcfg.llm_spec = "oracle"
    with pytest.raises(dataclasses.FrozenInstanceError):
        xcfg.pipeline.eval_count = 0
    with pytest.raises(ValueError):
        dataclasses.replace(xcfg, llm_spec="oracle")
    with pytest.raises(ValueError):
        dataclasses.replace(PipelineConfig(), eval_count=0)


def test_per_layer_mappings_are_read_only():
    xcfg = build_experiment_config({"fusion_tau_host": "0.6"})
    for per_layer, value in (
        (xcfg.scorers, "bogus"),
        (xcfg.pipeline.llm_thresholds.tau, 7.0),
        (xcfg.pipeline.fusion.fusion_tau, 7.0),
    ):
        with pytest.raises(TypeError):
            per_layer[LayerId.HOST] = value
    assert xcfg.scorers[LayerId.HOST] == "baseline"
    assert xcfg.pipeline.llm_thresholds.tau[LayerId.HOST] == 0.61
    assert xcfg.pipeline.fusion.fusion_tau[LayerId.HOST] == 0.6


def test_per_layer_mappings_copy_what_they_are_given():
    tau = {LayerId.HOST: 0.7}
    thresholds = LlmThresholds(tau=tau)
    tau[LayerId.HOST] = 7.0
    assert thresholds.tau == {LayerId.HOST: 0.7}


def test_per_layer_overrides_still_apply():
    xcfg = build_experiment_config(
        {"llm_tau_host": "0.7", "fusion_tau_network": "0.6", "scorer_hypervisor": "replay:s.csv"}
    )
    assert xcfg.pipeline.llm_thresholds.tau == {
        LayerId.NETWORK: 0.69, LayerId.HOST: 0.7, LayerId.HYPERVISOR: 0.89
    }
    assert xcfg.pipeline.fusion.fusion_tau == {LayerId.NETWORK: 0.6}
    assert xcfg.scorers == {
        LayerId.NETWORK: "baseline", LayerId.HOST: "baseline", LayerId.HYPERVISOR: "replay:s.csv"
    }


def test_fusion_weights():
    xcfg = build_experiment_config({"w_model": "0.3", "w_llm": "0.7"})
    assert xcfg.pipeline.fusion.w_model == 0.3
    assert xcfg.pipeline.fusion.w_llm == 0.7


def test_layers_subset():
    xcfg = build_experiment_config({"layers": "network, hypervisor"})
    assert xcfg.layers == (LayerId.NETWORK, LayerId.HYPERVISOR)
    with pytest.raises(ConfigError, match="unknown layer"):
        build_experiment_config({"layers": "network,cloud"})


def test_scorer_selection():
    xcfg = build_experiment_config({"scorer_network": "replay:scores.csv"})
    assert xcfg.scorers[LayerId.NETWORK] == "replay:scores.csv"
    assert xcfg.scorers[LayerId.HOST] == "baseline"
    xcfg = build_experiment_config({"scorer_host": "baseline", "scorer_network": "replay:a:b.csv"})
    assert xcfg.scorers[LayerId.HOST] == "baseline"
    assert xcfg.scorers[LayerId.NETWORK] == "replay:a:b.csv"


def test_llm_client_keys():
    xcfg = build_experiment_config(
        {
            "llm": "table:mock.jsonl",
            "llm_url": "http://10.0.0.2:11434",
            "llm_model": "mistral",
            "llm_timeout": "5",
            "llm_retries": "0",
        }
    )
    assert xcfg.llm_spec == "table:mock.jsonl"
    assert xcfg.llm_url == "http://10.0.0.2:11434"
    assert xcfg.llm_model == "mistral"
    assert xcfg.llm_timeout == 5.0
    assert xcfg.llm_retries == 0


def test_generator_and_dir_keys():
    xcfg = build_experiment_config(
        {
            "out_dir": "results",
            "data_dir": "corpora",
            "memory_dir": "mem",
            "net_count": "1000",
            "net_attack_fraction": "0.3",
            "net_separation": "2.0",
            "host_count": "800",
            "host_attack_fraction": "0.4",
            "host_ambiguity": "0.6",
        }
    )
    assert xcfg.out_dir == "results"
    assert xcfg.data_dir == "corpora"
    assert xcfg.memory_dir == "mem"
    assert xcfg.net_count == 1000
    assert xcfg.net_attack_fraction == 0.3
    assert xcfg.net_separation == 2.0
    assert xcfg.host_count == 800
    assert xcfg.host_attack_fraction == 0.4
    assert xcfg.host_ambiguity == 0.6


def test_overrides_beat_file_values(tmp_path):
    path = write_cfg(tmp_path, "seed = 1\nmode = static\n")
    xcfg = load_experiment_config(path, overrides={"seed": "42"})
    assert xcfg.pipeline.seed == 42
    assert xcfg.pipeline.mode is Mode.STATIC
