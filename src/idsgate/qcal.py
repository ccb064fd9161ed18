"""Gate-1: confidence-threshold calibration via tabular Q-learning.

The gate itself is one comparison: an event whose model confidence is at
or above the layer threshold is accepted as KNOWN, everything else is
escalated.  The interesting part is picking the threshold.  A tabular
Q-learner watches a sliding window of recent scores, summarizes it into
a small discrete state, and tries candidate thresholds as actions.  The
reward favors keeping correct confident decisions local, punishes wrong
confident decisions (missed attacks hardest), charges a small fee per
escalation, and adds a band penalty whenever the window escalates more
than a budgeted fraction.  After training, a greedy rollout over the
stream picks the modal action as the learned threshold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

from .events import ScoredEvent

MEAN_BINS = 10
VAR_BINS = 5
UNC_BINS = 5


class UnlabeledStream(ValueError):
    """Calibration stream contains events without truth labels."""


class StreamTooShort(ValueError):
    """Calibration stream is shorter than one window."""


def default_action_set() -> tuple[float, ...]:
    """Candidate thresholds 0.50 to 0.95 inclusive, step 0.01."""
    return tuple(round(0.50 + 0.01 * i, 2) for i in range(46))


@dataclass(frozen=True)
class ActionSet:
    """Strictly increasing candidate thresholds in [0.5, 1.0)."""

    thresholds: tuple[float, ...] = field(default_factory=default_action_set)

    def __post_init__(self) -> None:
        if not self.thresholds:
            raise ValueError("action set must not be empty")
        for t in self.thresholds:
            if not (0.5 <= t < 1.0):
                raise ValueError(f"threshold {t} outside [0.5, 1.0)")
        if any(b <= a for a, b in zip(self.thresholds, self.thresholds[1:])):
            raise ValueError("thresholds must be strictly increasing")

    def __len__(self) -> int:
        return len(self.thresholds)


@dataclass(frozen=True)
class RewardConfig:
    """Reward shape for threshold selection.

    A wrong confident attack call (missed attack) costs more than a wrong
    confident benign call; each escalation carries a small fixed cost;
    the band penalty applies to every event in a window whose escalated
    fraction exceeds ``band_max``.
    """

    r_correct_known: float = 1.0
    r_wrong_known_benign: float = -2.0
    r_wrong_known_attack: float = -3.0
    r_escalate: float = -0.2
    r_band_penalty: float = -1.0
    band_max: float = 0.25


def gate1_uncertain(confidences, threshold: float) -> np.ndarray:
    """Gate 1 over a run of confidences: True where an event escalates.

    An event stays local (KNOWN) when its confidence meets or exceeds the
    threshold, so the boundary is inclusive; a NaN meets no threshold and
    escalates.
    """
    return ~(np.asarray(confidences, dtype=np.float64) >= threshold)


def _bins(x: np.ndarray, scale: int, n_bins: int) -> np.ndarray:
    return np.clip((x * scale).astype(np.int64), 0, n_bins - 1)


def _row_sums(rows: np.ndarray) -> np.ndarray:
    # Left to right on every interpreter: np.sum adds pairwise, and the
    # builtin sum() of floats is compensated from Python 3.12.
    return np.cumsum(rows, axis=1)[:, -1]


def outcome_table(
    stream: list[ScoredEvent], window: int, thresholds: tuple[float, ...], rc: RewardConfig
) -> tuple[np.ndarray, ...]:
    """The outcome of each window-sized slice of a labeled stream, routed
    at each threshold by ``gate1_uncertain``, as the router does: a
    confidence equal to the threshold counts as known.

    Returns ``(mean_bin, var_bin, unc_bin, reward)``, the first two per
    slice and the last two [slices x actions]: floor(mean * 10),
    floor(population variance * 50) and floor(uncertain fraction * 5),
    each clamped to its range, and the mean per-event reward.  A short
    last slice is padded with zeros, which leave the sums unchanged.
    """
    rows = -(-len(stream) // window)
    valid = np.arange(rows * window).reshape(rows, window) < len(stream)
    size = np.count_nonzero(valid, axis=1)
    conf, known_r = np.zeros(valid.shape), np.zeros(valid.shape)
    conf[valid] = [se.confidence for se in stream]
    pred = np.array([se.pred_label for se in stream])
    truth = np.array([se.event.truth for se in stream])
    wrong_r = np.where(truth == 1, rc.r_wrong_known_attack, rc.r_wrong_known_benign)
    known_r[valid] = np.where(pred == truth, rc.r_correct_known, wrong_r)
    mean = _row_sums(conf) / size
    dev = np.where(valid, conf - mean[:, None], 0.0)
    var = _row_sums(dev * dev) / size  # correctly rounded squares, unlike libm pow()
    unc_bin = np.empty((rows, len(thresholds)), dtype=np.int64)
    reward = np.empty(unc_bin.shape)
    # One action at a time keeps temporaries at [slices x window].
    for a, t in enumerate(thresholds):
        uncertain = valid & gate1_uncertain(conf, t)
        ratio = np.count_nonzero(uncertain, axis=1) / size
        r = np.where(uncertain, rc.r_escalate, known_r)
        r[ratio > rc.band_max] += rc.r_band_penalty
        unc_bin[:, a] = _bins(ratio, UNC_BINS, UNC_BINS)
        reward[:, a] = _row_sums(np.where(valid, r, 0.0)) / size
    return _bins(mean, MEAN_BINS, MEAN_BINS), _bins(var, 50, VAR_BINS), unc_bin, reward


def select_action(row: list[float], epsilon: float, rng: random.Random) -> int:
    """Epsilon-greedy choice over one state's row of Q-values; greedy ties
    go to the lowest index."""
    if rng.random() < epsilon:
        return rng.randrange(len(row))
    return row.index(max(row))


def bellman_update(
    q: list[list[float]], s: int, a: int, r: float, s2: int, alpha: float, gamma: float
) -> float:
    """One tabular value-iteration step on the table ``q[state][action]``.

    Q(s,a) <- Q(s,a) + alpha * (r + gamma * max_a' Q(s',a') - Q(s,a)),
    e.g. Q=0.5, alpha=0.1, r=1, gamma=0.9, max Q'=0.8 gives 0.622.
    Returns the updated value.
    """
    old = q[s][a]
    q[s][a] = updated = old + alpha * (r + gamma * max(q[s2]) - old)
    return updated


@dataclass(frozen=True)
class CalibConfig:
    episodes: int = 20
    window: int = 100
    epsilon_start: float = 1.0
    epsilon_decay: float = 0.9
    epsilon_floor: float = 0.05
    alpha: float = 0.1
    gamma: float = 0.9
    rewards: RewardConfig = field(default_factory=RewardConfig)
    actions: ActionSet = field(default_factory=ActionSet)

    def __post_init__(self) -> None:
        if self.episodes < 0:
            raise ValueError(f"episodes must be >= 0, got {self.episodes}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        for name in ("epsilon_start", "epsilon_decay", "epsilon_floor", "alpha", "gamma"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


@dataclass
class CalibrationResult:
    learned_threshold: float
    action_histogram: dict[float, int]
    episodes: int


def calibrate(
    stream: list[ScoredEvent], cfg: CalibConfig, seed: int
) -> CalibrationResult:
    """Learn a per-layer Gate-1 threshold from a labeled scored stream.

    Each episode walks the stream's window-sized slices with one action
    per slice, picked epsilon-greedily from the state the previous slice
    left, and applies the value update with the slice's reward and next
    state from ``outcome_table``.  Exploration decays per episode down to
    a floor.  A final greedy rollout re-walks the stream; the modal action
    becomes the learned threshold, ties resolving to the lower threshold.

    Raises:
        UnlabeledStream: any event lacks a truth label.
        StreamTooShort: stream shorter than one window.
    """
    if any(se.event.truth is None for se in stream):
        raise UnlabeledStream("calibration stream must be fully labeled")
    if len(stream) < cfg.window:
        raise StreamTooShort(
            f"stream of {len(stream)} events is shorter than window {cfg.window}"
        )
    rng = random.Random(seed)
    thresholds = cfg.actions.thresholds
    mean_bin, var_bin, unc_bin, reward = outcome_table(
        stream, cfg.window, thresholds, cfg.rewards
    )
    # State index (mean_bin * VAR_BINS + var_bin) * UNC_BINS + unc_bin; the
    # slice fixes all but the action's uncertain bin.
    base = ((mean_bin * VAR_BINS + var_bin) * UNC_BINS).tolist()
    unc_bin, reward = unc_bin.tolist(), reward.tolist()
    q = [[0.0] * len(thresholds) for _ in range(MEAN_BINS * VAR_BINS * UNC_BINS)]
    # Before anything is routed the first slice carries no escalations;
    # only its confidences inform the starting state.
    start = base[0]

    for episode in range(cfg.episodes):
        epsilon = max(cfg.epsilon_floor, cfg.epsilon_start * cfg.epsilon_decay**episode)
        state = start
        for b, unc_row, slice_reward in zip(base, unc_bin, reward):
            action = select_action(q[state], epsilon, rng)
            next_state = b + unc_row[action]
            bellman_update(
                q, state, action, slice_reward[action], next_state, cfg.alpha, cfg.gamma
            )
            state = next_state

    histogram: dict[float, int] = {}
    state = start
    for b, unc_row in zip(base, unc_bin):
        row = q[state]
        action = row.index(max(row))
        tau = thresholds[action]
        histogram[tau] = histogram.get(tau, 0) + 1
        state = b + unc_row[action]

    # Modal action wins; ties resolve to the lower threshold.
    learned = min(histogram, key=lambda t: (-histogram[t], t))
    return CalibrationResult(learned, histogram, cfg.episodes)
