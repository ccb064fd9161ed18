import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest

from idsgate import experiment
from idsgate.config import build_experiment_config
from idsgate.corpus import split_train_test
from idsgate.events import Event, LayerId
from idsgate.experiment import (
    HOST_FILE,
    HYPERVISOR_FILE,
    NETWORK_FILE,
    client_factory,
    do_calibrate,
    do_calibrate_llm,
    do_compare,
    do_gen,
    do_report,
    do_run,
    generate_events,
    load_calibration,
    prepare_bundles,
    prepare_layer,
    run_id_of,
    store_factory,
    truth_maps,
)
from idsgate.llm import EchoLlmClient, HttpLlmClient, MockLlmClient, prompt_sha256
from idsgate.memory import MemoryRecord, MemorySource, embed
from idsgate.outputs import IoWriteFailure
from idsgate.pipeline import Mode
from idsgate.scoring import TfidfRows, extract_features, fit_tfidf, score_stream


def small_cfg(tmp_path, **extra):
    kv = {
        "net_count": "200",
        "host_count": "240",
        "eval_count": "40",
        "episodes": "2",
        "seed": "0",
        "out_dir": os.path.join(tmp_path, "out"),
    }
    kv.update({k: str(v) for k, v in extra.items()})
    return build_experiment_config(kv)


def _split_ids(bundle):
    return bundle.train_scored.events.ids + bundle.eval_events.ids


def test_get_events_generates_when_no_data_dir(tmp_path):
    xcfg = small_cfg(tmp_path)
    bundle = prepare_layer(LayerId.NETWORK, xcfg)
    # 160 training and 40 evaluation events: the generated 200, split
    assert sorted(_split_ids(bundle)) == sorted(generate_events(LayerId.NETWORK, xcfg).ids)
    assert len(_split_ids(bundle)) == 200
    assert bundle.train_scored.events.layer is bundle.eval_events.layer is LayerId.NETWORK


def test_get_events_prefers_replay_spec(tmp_path):
    replay = os.path.join(tmp_path, "scores.csv")
    with open(replay, "w") as fh:
        fh.write("event_id,layer,pred_label,confidence,truth\n")
        fh.write("network-0,network,1,0.9,1\n")
        fh.write("network-1,network,0,0.6,0\n")
    xcfg = small_cfg(tmp_path, scorer_network=f"replay:{replay}")
    bundle = prepare_layer(LayerId.NETWORK, xcfg)
    assert bundle.scorer is None
    # both rows fall in the training split: round(2 * 0.8) of 2
    events = bundle.train_scored.events
    assert sorted(zip(events.ids, events.truths)) == [("network-0", 1), ("network-1", 0)]
    assert len(bundle.eval_events) == 0


def test_replay_bundle_splits_the_csv_rows(tmp_path):
    replay = os.path.join(tmp_path, "scores.csv")
    rows = [(f"host-{i}", i % 2, 0.5 + i / 200, (i // 3) % 2) for i in range(90)]
    with open(replay, "w") as fh:
        fh.write("event_id,layer,pred_label,confidence,truth\n")
        for eid, pred, conf, truth in rows:
            fh.write(f"{eid},host,{pred},{conf},{truth}\n")
    xcfg = small_cfg(tmp_path, layers="host", scorer_host=f"replay:{replay}")
    bundle = prepare_layer(LayerId.HOST, xcfg)
    assert bundle.scorer is None
    train, test = split_train_test(rows, xcfg.pipeline.train_ratio, xcfg.pipeline.seed)

    def pairs(scored):
        return [(se.event.id, se.pred_label, se.confidence, se.event.truth) for se in scored]

    assert pairs(bundle.train_scored) == train
    assert pairs(bundle.eval_scored) == test[: xcfg.pipeline.eval_count]
    assert [e.id for e in bundle.eval_events] == [r[0] for r in test[: xcfg.pipeline.eval_count]]


def test_get_events_loads_from_data_dir(tmp_path, monkeypatch):
    gen_cfg = small_cfg(tmp_path, layers="host")
    do_gen(gen_cfg)
    xcfg = small_cfg(tmp_path, data_dir=gen_cfg.out_dir, layers="host")
    loads = []
    original = experiment.load_events
    monkeypatch.setattr(
        experiment, "load_events", lambda *args: loads.append(args) or original(*args)
    )
    monkeypatch.setattr(experiment, "generate_events", None)  # a loaded layer generates nothing
    ids = _split_ids(prepare_layer(LayerId.HOST, xcfg))
    assert loads == [(LayerId.HOST, gen_cfg.out_dir)]
    # 192 training and 40 of the 48 test events of the 240 written
    assert len(ids) == len(set(ids)) == 232
    assert set(ids) <= {f"host-{i}" for i in range(240)}


def test_prepare_layer_fits_host_tfidf_on_train_only(tmp_path, monkeypatch):
    xcfg = small_cfg(tmp_path)
    events = generate_events(LayerId.HOST, xcfg)
    assert all(len(e.features) == 1 for e in events)  # placeholder until fit
    train, test = split_train_test(events, xcfg.pipeline.train_ratio, xcfg.pipeline.seed)
    assert (len(train), len(test)) == (192, 48)
    corpora = []
    original = experiment.fit_tfidf
    monkeypatch.setattr(
        experiment, "fit_tfidf", lambda texts: corpora.append(texts) or original(texts)
    )
    bundle = prepare_layer(LayerId.HOST, xcfg)
    assert corpora == [[e.raw for e in train]]
    assert [e.id for e in bundle.eval_events] == [e.id for e in test[:40]]
    dims = len(bundle.eval_events[0].features)
    assert dims > 1
    assert all(len(e.features) == dims for e in bundle.eval_events)
    norms = [float(np.linalg.norm(e.features)) for e in bundle.eval_events]
    assert all(n == pytest.approx(1.0) for n in norms)
    assert len(bundle.eval_scored) == 40
    assert all(0.5 <= se.confidence <= 1.0 for se in bundle.eval_scored)


def _host_splits(xcfg):
    corpus = generate_events(LayerId.HOST, xcfg)
    train, test = split_train_test(range(len(corpus)), xcfg.pipeline.train_ratio, xcfg.pipeline.seed)
    return corpus.take(train), corpus.take(test[: xcfg.pipeline.eval_count])


def test_host_bundle_keeps_no_training_rows(tmp_path):
    # Only the evaluation rows outlive prepare_layer: the training split is
    # featurized, trained on and scored as sparse rows, which are then let go.
    xcfg = small_cfg(tmp_path)
    bundle = prepare_layer(LayerId.HOST, xcfg)
    assert bundle.train_scored.events.features is None
    assert all(se.event.features.shape == (1,) for se in bundle.train_scored)
    # the evaluation corpus carries its split's own sparse rows, which
    # hold only that split's cells
    assert isinstance(bundle.eval_events.features, TfidfRows)
    assert len(bundle.eval_events.features) == len(bundle.eval_events) == 40
    # each pair is the one the training event's tf-idf rows score
    train, _ = _host_splits(xcfg)
    rows = extract_features(train.texts, fit_tfidf(train.texts))
    expected = score_stream(train, bundle.scorer, rows)
    assert bundle.train_scored.events.ids == train.ids
    assert [(se.pred_label, se.confidence) for se in bundle.train_scored] == [
        (se.pred_label, se.confidence) for se in expected
    ]
    # and, within rounding, the one its dense vector scores
    z = np.array([float(np.dot(bundle.scorer.weights, x)) for x in rows.dense()])
    p = 1.0 / (1.0 + np.exp(-(z + bundle.scorer.bias)))
    assert [se.pred_label for se in bundle.train_scored] == (p > 0.5).tolist()
    assert [se.confidence for se in bundle.train_scored] == pytest.approx(
        np.maximum(p, 1.0 - p).tolist(), rel=0, abs=1e-12
    )


def test_host_evaluation_features_read_as_their_dense_tfidf_rows(tmp_path):
    xcfg = small_cfg(tmp_path)
    bundle = prepare_layer(LayerId.HOST, xcfg)
    train, evaluation = _host_splits(xcfg)
    extractor = fit_tfidf(train.texts)
    block = extract_features(evaluation.texts, extractor).dense()
    assert len(bundle.eval_events) == len(block) == 40
    for e, row in zip(bundle.eval_events, block):
        assert len(e.features) == extractor.dims
        assert e.features.tobytes() == row.tobytes()
    # the stacked features reproduce every evaluation confidence
    x = np.stack([e.features for e in bundle.eval_events])
    assert x.tobytes() == block.tobytes()
    p = 1.0 / (1.0 + np.exp(-(x @ bundle.scorer.weights + bundle.scorer.bias)))
    assert bundle.eval_scored.events is bundle.eval_events
    assert [se.event.id for se in bundle.eval_scored] == evaluation.ids
    assert [se.confidence for se in bundle.eval_scored] == pytest.approx(
        np.maximum(p, 1.0 - p).tolist(), rel=0, abs=1e-12
    )


def test_prepare_layer_baseline_learns_separable_network(tmp_path):
    xcfg = small_cfg(tmp_path, net_count=600, net_separation=4.0, eval_count=120)
    bundle = prepare_layer(LayerId.NETWORK, xcfg)
    correct = sum(
        1 for se in bundle.eval_scored if se.pred_label == se.event.truth
    )
    assert correct / len(bundle.eval_scored) >= 0.95


def test_prepare_bundles_reads_each_replay_csv_once(tmp_path, monkeypatch):
    paths = {}
    for layer in ("network", "host"):
        paths[layer] = os.path.join(tmp_path, f"{layer}_scores.csv")
        with open(paths[layer], "w") as fh:
            fh.write("event_id,layer,pred_label,confidence,truth\n")
            for i in range(60):
                fh.write(f"{layer}-{i},{layer},{i % 2},0.{60 + i % 39},{i % 2}\n")
    xcfg = small_cfg(
        tmp_path,
        layers="network,host",
        scorer_network=f"replay:{paths['network']}",
        scorer_host=f"replay:{paths['host']}",
    )
    calls = []
    original = experiment.load_replay_csv
    monkeypatch.setattr(
        experiment,
        "load_replay_csv",
        lambda path, layer: calls.append(path) or original(path, layer),
    )
    bundles = prepare_bundles(xcfg)
    assert sorted(calls) == sorted(paths.values())
    assert len(bundles[LayerId.HOST].train_scored) == 48


def test_truth_maps_cover_all_bundles(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network,host")
    bundles = prepare_bundles(xcfg)
    truths, attack_types = truth_maps(bundles)
    # every training and evaluation event, and no other
    assert set(truths) == {
        event_id
        for b in bundles.values()
        for event_id in b.train_scored.events.ids + b.eval_events.ids
    }
    assert set(attack_types) == {eid for eid, t in truths.items() if t == 1}


def test_compare_builds_one_event_per_gate3_call(tmp_path, monkeypatch):
    # Set-up, Gate 1, Gate 2 and the writers read a corpus's columns; an
    # Event is built only for a Gate-3 prompt, one per call.
    built = []
    original = Event.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        original(self, *args, **kwargs)

    monkeypatch.setattr(Event, "__init__", counting)
    comp, _ = do_compare(small_cfg(tmp_path, layers="network,host"))
    asked = [
        a["event_id"]
        for mode_run in (comp.static, comp.adaptive)
        for run in mode_run.layer_runs.values()
        for a in run.audits
        if a["gate"] == "gate3"
    ]
    calls = sum(s.overall["llm_calls"] for s in (comp.static_summary, comp.adaptive_summary))
    assert 0 < len(asked) == calls
    assert built == asked


def test_client_factory_echo_specs(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network")
    bundles = prepare_bundles(xcfg)
    make = client_factory(xcfg, bundles)
    client = make(LayerId.NETWORK, Mode.STATIC)
    assert isinstance(client, EchoLlmClient)
    assert client.confidence == 0.9

    xcfg = dataclasses.replace(xcfg, llm_spec="echo:0.75")
    low = client_factory(xcfg, bundles)(LayerId.NETWORK, Mode.STATIC)
    assert low.confidence == 0.75

    xcfg = dataclasses.replace(xcfg, llm_spec="echo")
    bare = client_factory(xcfg, bundles)(LayerId.NETWORK, Mode.STATIC)
    assert bare.confidence == 0.9


def test_client_factory_table_spec(tmp_path):
    table = os.path.join(tmp_path, "mock.jsonl")
    with open(table, "w") as fh:
        fh.write(json.dumps({"prompt_sha256": prompt_sha256("p"), "response": "r"}) + "\n")
    xcfg = dataclasses.replace(small_cfg(tmp_path, layers="network"), llm_spec=f"table:{table}")
    make = client_factory(xcfg, {})
    # The table is read once, when the factory is built.
    os.remove(table)
    client = make(LayerId.NETWORK, Mode.STATIC)
    assert isinstance(client, MockLlmClient)
    assert client.generate("p") == "r"
    # Each run gets a fresh client with its own call counter.
    again = make(LayerId.NETWORK, Mode.ADAPTIVE)
    assert again.calls == 0 and again.generate("p") == "r"


def test_client_factory_http_spec(tmp_path):
    xcfg = dataclasses.replace(
        small_cfg(tmp_path),
        llm_spec="http",
        llm_url="http://10.1.2.3:11434/",
        llm_model="mistral",
        llm_timeout=7.5,
        llm_retries=1,
    )
    client = client_factory(xcfg, {})(LayerId.HOST, Mode.STATIC)
    assert isinstance(client, HttpLlmClient)
    assert client.base_url == "http://10.1.2.3:11434"
    assert client.model == "mistral"
    assert client.timeout == 7.5
    assert client.retries == 1


def test_store_factory_fresh_without_memory_dir(tmp_path):
    xcfg = small_cfg(tmp_path)
    make = store_factory(xcfg)
    a = make(LayerId.HOST, Mode.STATIC)
    b = make(LayerId.HOST, Mode.STATIC)
    assert a is not b
    assert len(a) == 0
    assert a.path is None


def test_store_factory_persists_with_memory_dir(tmp_path):
    xcfg = small_cfg(tmp_path, memory_dir=os.path.join(tmp_path, "mem"))
    make = store_factory(xcfg)
    first = make(LayerId.HOST, Mode.ADAPTIVE)
    first.insert(
        MemoryRecord(
            id="host-1",
            layer=LayerId.HOST,
            vector=embed("sshd auth_fail", xcfg.pipeline.embedding),
            attack_type="brute_force",
            source=MemorySource.LLM_PROMOTED,
            created_at="2000-01-01T00:00:00Z",
        )
    )
    again = make(LayerId.HOST, Mode.ADAPTIVE)
    assert len(again) == 1
    # Layer and mode each get their own file.
    assert len(make(LayerId.HOST, Mode.STATIC)) == 0
    assert len(make(LayerId.NETWORK, Mode.ADAPTIVE)) == 0
    assert os.path.exists(os.path.join(tmp_path, "mem", "memory_host_adaptive.jsonl"))


def test_do_gen_writes_selected_layers(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network,host")
    written = do_gen(xcfg)
    assert set(written) == {"network", "host"}
    assert os.path.exists(os.path.join(xcfg.out_dir, NETWORK_FILE))
    assert os.path.exists(os.path.join(xcfg.out_dir, HOST_FILE))
    assert not os.path.exists(os.path.join(xcfg.out_dir, HYPERVISOR_FILE))


def test_do_calibrate_roundtrip(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network", net_count=400)
    path = do_calibrate(xcfg)
    assert path.endswith("calibration_run0.json")
    # only the threshold is read back; the histogram stays a record of the run
    thresholds = load_calibration(path, xcfg.layers)
    assert set(thresholds) == {LayerId.NETWORK}
    payload = json.loads(Path(path).read_text())
    entry = payload["layers"]["network"]
    assert payload["episodes"] == 2
    assert sum(entry["action_histogram"].values()) >= 1
    assert thresholds[LayerId.NETWORK] == entry["learned_threshold"]
    assert thresholds[LayerId.NETWORK] in xcfg.pipeline.calib.actions.thresholds


def test_do_calibrate_unwritable_file_is_a_write_failure(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network")
    os.makedirs(os.path.join(xcfg.out_dir, "calibration_run0.json"))
    with pytest.raises(IoWriteFailure, match="cannot write .*calibration_run0.json"):
        do_calibrate(xcfg)


def test_do_calibrate_llm_writes_thresholds(tmp_path):
    # A replay scorer pins the confidences, guaranteeing the harvested
    # escalations contain true attacks.
    replay = os.path.join(tmp_path, "host_scores.csv")
    with open(replay, "w") as fh:
        fh.write("event_id,layer,pred_label,confidence,truth\n")
        for i in range(120):
            conf, truth = [(0.6, 1), (0.7, 0), (0.9, i % 2)][i % 3]
            fh.write(f"host-{i},host,{truth},{conf},{truth}\n")
    xcfg = small_cfg(tmp_path, layers="host", scorer_host=f"replay:{replay}")
    path = do_calibrate_llm(xcfg)
    with open(path) as fh:
        payload = json.load(fh)
    assert payload["p_min"] == 0.80
    entry = payload["layers"]["host"]
    # The echo analyst is perfect, so every threshold is feasible and
    # the tie resolves to the lowest grid point.
    assert entry["feasible"] is True
    assert entry["threshold"] == 0.05
    assert entry["precision"] == 1.0
    assert entry["recall"] == 1.0


def test_do_calibrate_llm_records_a_layer_without_attacks(tmp_path):
    # Every escalated host event is benign, so the host sample has no
    # true attack; the network layer still calibrates and both are written.
    net_replay = os.path.join(tmp_path, "network_scores.csv")
    host_replay = os.path.join(tmp_path, "host_scores.csv")
    with open(net_replay, "w") as fh:
        fh.write("event_id,layer,pred_label,confidence,truth\n")
        for i in range(120):
            conf, truth = [(0.6, 1), (0.7, 0), (0.9, i % 2)][i % 3]
            fh.write(f"network-{i},network,{truth},{conf},{truth}\n")
    with open(host_replay, "w") as fh:
        fh.write("event_id,layer,pred_label,confidence,truth\n")
        for i in range(120):
            conf, truth = [(0.6, 0), (0.95, 1)][i % 2]
            fh.write(f"host-{i},host,{truth},{conf},{truth}\n")
    xcfg = small_cfg(
        tmp_path,
        layers="network,host",
        scorer_network=f"replay:{net_replay}",
        scorer_host=f"replay:{host_replay}",
    )
    with open(do_calibrate_llm(xcfg)) as fh:
        layers = json.load(fh)["layers"]
    assert layers["network"] == {
        "threshold": 0.05, "feasible": True, "precision": 1.0, "recall": 1.0
    }
    assert layers["host"] == {
        "threshold": 0.95, "feasible": False, "precision": 0.0, "recall": 0.0
    }


def test_do_run_static_writes_artifacts(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network", mode="static")
    mode_run, summary, paths = do_run(xcfg)
    assert summary.mode == "static"
    assert os.path.exists(paths.confidence)
    assert os.path.exists(paths.audit)
    assert os.path.exists(paths.review)
    assert os.path.exists(paths.summary)
    lines = Path(paths.confidence).read_text().splitlines()
    assert len(lines) == 1 + summary.overall["total"]
    assert run_id_of(xcfg) == "run0"


def test_do_run_adaptive_accepts_saved_calibration(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network", net_count=400)
    calib_path = do_calibrate(xcfg)
    learned = load_calibration(calib_path, xcfg.layers)[LayerId.NETWORK]
    mode_run, summary, _ = do_run(xcfg, calibration_path=calib_path)
    assert summary.mode == "adaptive"
    assert summary.layers[0].learned_threshold == learned


def test_do_compare_writes_comparison_files(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network,host", net_count=400, host_count=400)
    comp, files = do_compare(xcfg)
    assert set(files) == {"static_summary", "adaptive_summary", "compare", "table"}
    with open(files["compare"]) as fh:
        payload = json.load(fh)
    assert payload["cost"]["n_static"] == comp.cost.n_static
    assert set(payload["learned_thresholds"]) == {"network", "host"}
    assert payload["static"]["uncertain"] == comp.static_summary.overall["uncertain"]
    assert payload["adaptive"] == {
        key: comp.adaptive_summary.overall[key] for key in ("uncertain", "llm_calls", "metrics")
    }
    lines = Path(files["table"]).read_text().splitlines()
    assert lines[0].startswith("layer,mode,")
    assert len(lines) == 1 + 2 * 2  # two modes, two layers


def test_do_report_renders_histograms(tmp_path):
    xcfg = small_cfg(tmp_path, layers="network", mode="static")
    do_run(xcfg)
    written = do_report(xcfg)
    assert len(written) == 1
    lines = Path(written[0]).read_text().splitlines()
    assert lines[0] == "layer,bin_low,bin_high,count"
    assert len(lines) == 1 + 20  # one layer, twenty bins
    total = sum(int(line.split(",")[3]) for line in lines[1:])
    assert total == 40  # one histogram row per evaluated event


def test_do_report_with_nothing_to_render(tmp_path):
    xcfg = small_cfg(tmp_path)
    assert do_report(xcfg) == []
