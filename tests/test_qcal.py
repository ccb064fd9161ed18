import math
import random

import pytest

from conftest import hidslike_stream, make_scored, make_stream
from idsgate.qcal import (
    ActionSet,
    CalibConfig,
    RewardConfig,
    StreamTooShort,
    UnlabeledStream,
    bellman_update,
    calibrate,
    default_action_set,
    gate1_uncertain,
    outcome_table,
    select_action,
)


def event_reward(se, routed_known, window_unc_ratio, rc):
    """Oracle: one event's reward for a routing decision, by the rule
    ``RewardConfig`` documents."""
    if routed_known:
        if se.pred_label == se.event.truth:
            r = rc.r_correct_known
        elif se.event.truth == 1:
            r = rc.r_wrong_known_attack
        else:
            r = rc.r_wrong_known_benign
    else:
        r = rc.r_escalate
    if window_unc_ratio > rc.band_max:
        r += rc.r_band_penalty
    return r


def one_slice(events, threshold, rc=RewardConfig()):
    """The whole list as one slice at one threshold: (mean bin, variance
    bin, uncertain bin, mean reward)."""
    mean_bin, var_bin, unc_bin, reward = outcome_table(
        make_stream(events), len(events), (threshold,), rc
    )
    return int(mean_bin[0]), int(var_bin[0]), int(unc_bin[0, 0]), float(reward[0, 0])


def confidences(*runs):
    """Labeled events from (count, confidence) runs, predictions correct."""
    return [
        make_scored(c, pred_label=0, truth=0, event_id=f"network-{i}")
        for i, c in enumerate(c for count, c in runs for _ in range(count))
    ]


def test_default_action_set_has_46_thresholds():
    actions = default_action_set()
    assert len(actions) == 46
    assert actions[0] == 0.50
    assert actions[-1] == 0.95
    assert actions[1] - actions[0] == pytest.approx(0.01)


def test_action_set_validation():
    with pytest.raises(ValueError):
        ActionSet(thresholds=())
    with pytest.raises(ValueError):
        ActionSet(thresholds=(0.4, 0.6))
    with pytest.raises(ValueError):
        ActionSet(thresholds=(0.6, 1.0))
    with pytest.raises(ValueError):
        ActionSet(thresholds=(0.6, 0.6))
    assert len(ActionSet(thresholds=(0.5, 0.75, 0.99))) == 3


def test_discretize_confident_quiet_window():
    state = one_slice(confidences((100, 0.97)), 0.5)[:3]
    assert state == (9, 0, 0)


def test_discretize_spread_window_hits_variance_cap():
    mean_bin, var_bin, unc_bin, _ = one_slice(confidences((50, 0.1), (50, 0.99)), 0.05)
    # Population variance about 0.198 saturates the top variance bin.
    assert mean_bin == 5
    assert var_bin == 4
    assert unc_bin == 0


def test_discretize_uncertain_ratio_binning():
    # 47 of 100 events fall below the threshold.
    assert one_slice(confidences((47, 0.6), (53, 0.9)), 0.75)[2] == 2


def test_discretize_uses_population_variance():
    # Population variance of {0.5, 0.7} is 0.01; the sample variance 0.02
    # would land one bin higher at the x50 scale boundary.
    assert one_slice(confidences((1, 0.5), (1, 0.7)), 0.5)[1] == 0


def test_window_sums_run_left_to_right():
    # Ten 0.1s summed in order give 0.9999999999999999, so the mean sits
    # just under 0.1 and lands in bin 0 on every interpreter; an exact
    # (or compensated, as sum() is from Python 3.12) sum would give bin 1.
    events = confidences((10, 0.1))
    assert int(math.fsum(se.confidence for se in events) / 10 * 10) == 1
    mean_bin, _, _, _ = outcome_table(make_stream(events), 10, (0.05,), RewardConfig())
    assert mean_bin.tolist() == [0]


def test_gate1_uncertain_boundary_is_inclusive():
    got = gate1_uncertain([0.85, 0.8499, 0.9, math.nan], 0.85)
    assert got.tolist() == [False, True, False, True]
    assert gate1_uncertain([], 0.85).tolist() == []


def test_outcome_table_counts_the_threshold_as_known():
    # Every confidence sits exactly on the threshold: nothing escalates,
    # so the uncertain bin is 0 and each correct call earns its full reward.
    stream = make_stream([make_scored(0.85, pred_label=1, truth=1) for _ in range(10)])
    _, _, unc_bin, reward = outcome_table(stream, 10, (0.85, 0.86), RewardConfig())
    assert unc_bin.tolist() == [[0, 4]]
    assert reward[0, 0] == 1.0


def test_reward_correct_known():
    se = make_scored(0.9, pred_label=1, truth=1)
    assert one_slice([se], 0.5)[3] == 1.0


def test_reward_missed_attack_costs_most():
    se = make_scored(0.9, pred_label=0, truth=1)
    assert one_slice([se], 0.5)[3] == -3.0


def test_reward_false_alarm():
    se = make_scored(0.9, pred_label=1, truth=0)
    assert one_slice([se], 0.5)[3] == -2.0


def test_reward_escalation_fee():
    se = make_scored(0.6, pred_label=0, truth=0)
    # A lone escalated event makes its slice 100% uncertain; a budget of
    # 1.0 keeps the band penalty off.
    assert one_slice([se], 0.85, RewardConfig(band_max=1.0))[3] == pytest.approx(-0.2)


def test_reward_band_penalty_applies_above_budget():
    # 26 of 100 escalated: every event pays the penalty, so the slice
    # averages (26 * (-0.2 - 1.0) + 74 * (1.0 - 1.0)) / 100.
    above = one_slice(confidences((26, 0.6), (74, 0.9)), 0.85)
    assert above[3] == pytest.approx(-0.312)
    # At exactly the budget the penalty stays off.
    at = one_slice(confidences((25, 0.6), (75, 0.9)), 0.85)
    assert at[3] == pytest.approx((25 * -0.2 + 75 * 1.0) / 100)


def oracle_table(stream, window, thresholds, rc):
    """Per-event oracle of ``outcome_table``: walk each slice of the
    stream's rows in order, adding floats one at a time."""
    stream = list(stream)
    rows = []
    for i in range(0, len(stream), window):
        sl = stream[i : i + window]
        total = 0.0
        for se in sl:
            total += se.confidence
        mean = total / len(sl)
        total = 0.0
        for se in sl:
            total += (se.confidence - mean) * (se.confidence - mean)
        var = total / len(sl)
        cells = []
        for t in thresholds:
            flags = [not se.confidence >= t for se in sl]
            ratio = sum(flags) / len(sl)
            total = 0.0
            for se, unc in zip(sl, flags):
                total += event_reward(se, not unc, ratio, rc)
            cells.append((min(4, int(ratio * 5)), total / len(sl), ratio))
        rows.append((min(9, int(mean * 10)), min(4, int(var * 50)), cells))
    return rows


@pytest.mark.parametrize("seed", range(6))
def test_outcome_table_matches_per_event_oracle(seed):
    rng = random.Random(seed)
    window = rng.choice([8, 20, 36])
    thresholds = default_action_set()
    rc = RewardConfig(r_escalate=-0.3, r_band_penalty=-0.7)
    # First slice: exactly a quarter of it below 0.7, so its uncertain
    # ratio at that threshold equals band_max.
    planted = [0.6] * (window // 4) + [0.9] * (window - window // 4)
    rng.shuffle(planted)
    # Then whole slices and a short final one; a third of the confidences
    # sit exactly on a threshold.
    n = window * rng.randrange(3, 12) + rng.randrange(1, window)
    confs = planted + [
        rng.choice(thresholds) if rng.random() < 0.3 else rng.random()
        for _ in range(n - window)
    ]
    stream = make_stream([
        make_scored(c, pred_label=rng.randrange(2), truth=rng.randrange(2),
                    event_id=f"network-{i}")
        for i, c in enumerate(confs)
    ])
    mean_bin, var_bin, unc_bin, reward = outcome_table(stream, window, thresholds, rc)
    expected = oracle_table(stream, window, thresholds, rc)
    assert mean_bin.tolist() == [row[0] for row in expected]
    assert var_bin.tolist() == [row[1] for row in expected]
    assert unc_bin.tolist() == [[c[0] for c in row[2]] for row in expected]
    assert reward.tolist() == [[c[1] for c in row[2]] for row in expected]
    assert any(c[2] == rc.band_max for row in expected for c in row[2])


def test_bellman_update_worked_example():
    q = [[0.0, 0.0] for _ in range(3)]
    q[0][0] = 0.5
    q[2][1] = 0.8
    updated = bellman_update(q, 0, 0, 1.0, 2, alpha=0.1, gamma=0.9)
    assert updated == pytest.approx(0.622, abs=1e-12)
    assert q[0][0] == updated


def test_bellman_update_random_oracle():
    rng = random.Random(42)
    for _ in range(500):
        alpha, gamma = rng.random(), rng.random()
        q = [[0.0] * 3 for _ in range(250)]
        s, s2 = 31, 62  # states (1, 1, 1) and (2, 2, 2)
        q0 = rng.uniform(-5, 5)
        q[s][1] = q0
        for a in range(3):
            q[s2][a] = rng.uniform(-5, 5)
        next_best = max(q[s2][a] for a in range(3))
        r = rng.uniform(-4, 2)
        updated = bellman_update(q, s, 1, r, s2, alpha, gamma)
        expected = q0 + alpha * (r + gamma * next_best - q0)
        assert updated == pytest.approx(expected, abs=1e-12)


def test_best_action_tie_goes_low():
    row = [0.0, 0.0, 1.0, 1.0]
    rng = random.Random(0)
    assert select_action(row, 0.0, rng) == 2
    # Never-visited state: everything ties at zero, lowest index wins.
    assert select_action([0.0] * 4, 0.0, rng) == 0


def test_select_action_explores_and_exploits():
    row = [0.0, 0.0, 0.0, 2.0, 0.0]
    rng = random.Random(0)
    assert select_action(row, 0.0, rng) == 3
    picks = {select_action(row, 1.0, rng) for _ in range(100)}
    assert len(picks) == 5


def test_calibrate_rejects_unlabeled_stream():
    stream = make_stream([make_scored(0.8, event_id=f"network-{i}") for i in range(150)])
    with pytest.raises(UnlabeledStream):
        calibrate(stream, CalibConfig(), 0)


def test_calibrate_rejects_short_stream():
    stream = make_stream([make_scored(0.8, truth=0, event_id=f"network-{i}") for i in range(99)])
    with pytest.raises(StreamTooShort):
        calibrate(stream, CalibConfig(), 0)


def sweep_mean_reward(stream, threshold, rc):
    """Oracle: mean per-event reward of routing everything at one
    threshold, window by window."""
    stream = list(stream)
    total = 0.0
    window = 100
    for i in range(0, len(stream), window):
        sl = stream[i : i + window]
        flags = [se.confidence < threshold for se in sl]
        ratio = sum(flags) / len(flags)
        for se, unc in zip(sl, flags):
            total += event_reward(se, not unc, ratio, rc)
    return total / len(stream)


def test_diffuse_stream_reward_peaks_in_the_interior():
    stream = hidslike_stream(2, 10000, "host-sw")
    rc = RewardConfig()
    actions = default_action_set()
    means = {t: sweep_mean_reward(stream, t, rc) for t in actions}
    best = max(means, key=means.get)
    # The reward landscape itself favors thresholds between the
    # unreliable low band and the escalation-budget ceiling.
    assert 0.60 <= best <= 0.70
    assert means[best] > means[0.50]
    assert means[best] > means[0.85]
    assert means[best] > means[0.95]


def test_calibrate_learns_threshold_from_action_set():
    stream = hidslike_stream(2, 20000, "host-cal")
    cfg = CalibConfig()
    result = calibrate(stream, cfg, 2)
    assert result.learned_threshold in cfg.actions.thresholds
    assert result.episodes == 20
    assert sum(result.action_histogram.values()) == len(stream) // cfg.window
    # The learned cutoff escalates the stream less than the static 0.85.
    learned_esc = sum(1 for se in stream if se.confidence < result.learned_threshold)
    static_esc = sum(1 for se in stream if se.confidence < 0.85)
    assert learned_esc < static_esc


def test_calibrate_is_deterministic():
    stream = hidslike_stream(7, 5000, "host-det")
    a = calibrate(stream, CalibConfig(), 7)
    b = calibrate(stream, CalibConfig(), 7)
    assert a.learned_threshold == b.learned_threshold
    assert a.action_histogram == b.action_histogram
    # Golden values: any change to the learning rule or the sum order
    # shows here, on every interpreter.
    assert a.learned_threshold == 0.53
    assert a.action_histogram == {0.52: 2, 0.53: 31, 0.59: 17}


def sparse_reference(stream, cfg, seed):
    """The learner as a sparse dict keyed by (mean, var, unc, action),
    default 0.0, greedy ties to the lowest index: the same rule and the
    same random draws as ``calibrate``, on a different table."""
    rng = random.Random(seed)
    thresholds = cfg.actions.thresholds
    n = len(thresholds)
    mean_bin, var_bin, unc_bin, reward = (
        a.tolist() for a in outcome_table(stream, cfg.window, thresholds, cfg.rewards)
    )
    table = {}

    def greedy(state):
        best, best_q = 0, table.get((*state, 0), 0.0)
        for a in range(1, n):
            q = table.get((*state, a), 0.0)
            if q > best_q:
                best, best_q = a, q
        return best

    start = (mean_bin[0], var_bin[0], 0)
    for episode in range(cfg.episodes):
        epsilon = max(cfg.epsilon_floor, cfg.epsilon_start * cfg.epsilon_decay**episode)
        state = start
        for i in range(len(reward)):
            action = rng.randrange(n) if rng.random() < epsilon else greedy(state)
            nxt = (mean_bin[i], var_bin[i], unc_bin[i][action])
            old = table.get((*state, action), 0.0)
            best_next = max(table.get((*nxt, a), 0.0) for a in range(n))
            table[(*state, action)] = old + cfg.alpha * (
                reward[i][action] + cfg.gamma * best_next - old
            )
            state = nxt
    histogram = {}
    state = start
    for i in range(len(reward)):
        action = greedy(state)
        histogram[thresholds[action]] = histogram.get(thresholds[action], 0) + 1
        state = (mean_bin[i], var_bin[i], unc_bin[i][action])
    return min(histogram, key=lambda t: (-histogram[t], t)), histogram


@pytest.mark.parametrize(
    "seed, n, cfg",
    [
        (7, 5000, CalibConfig()),
        (2, 3050, CalibConfig(episodes=5)),  # a short last slice of 50
        (3, 2037, CalibConfig(window=7, episodes=8, rewards=RewardConfig(r_escalate=-0.3))),
        (4, 2037, CalibConfig(window=33, episodes=60, alpha=0.3, gamma=0.5)),
    ],
)
def test_calibrate_matches_sparse_reference(seed, n, cfg):
    stream = hidslike_stream(seed, n, f"sparse-{seed}")
    learned, histogram = sparse_reference(stream, cfg, seed)
    result = calibrate(stream, cfg, seed)
    assert result.learned_threshold == learned
    assert list(result.action_histogram.items()) == list(histogram.items())
