"""Ranking and calibration metrics against hand values and a quadratic
brute-force oracle (every positive/negative pair, ties worth half)."""

import math

import numpy as np
import pytest

from xdboost import metrics
from xdboost.errors import EvaluationError, UsageError


def brute_force_auc(scores, labels):
    """O(n^2) pair count; the package must match this to 1e-12."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    pos = scores[labels == 1]
    neg = scores[labels == 0]
    wins = (pos[:, None] > neg[None, :]).sum()
    ties = (pos[:, None] == neg[None, :]).sum()
    return (wins + 0.5 * ties) / (len(pos) * len(neg))


def test_auc_hand_example():
    value = metrics.auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert abs(value - 0.75) < 1e-12


def test_auc_perfect_and_uninformative():
    assert metrics.auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]) == 1.0
    assert metrics.auc([0.5, 0.5, 0.5, 0.5], [0, 1, 0, 1]) == 0.5


def test_auc_ties_earn_half_credit():
    assert metrics.auc([0.3, 0.3], [0, 1]) == 0.5
    assert abs(metrics.auc([0.3, 0.3, 0.7], [0, 1, 1]) - 0.75) < 1e-12


def test_auc_matches_brute_force_with_ties():
    rng = np.random.default_rng(17)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        # coarse score grid so ties are frequent
        scores = rng.integers(0, 6, size=n) / 5.0
        assert abs(metrics.auc(scores, labels)
                   - brute_force_auc(scores, labels)) <= 1e-12


def loop_tied_ranks(scores):
    """Oracle: the per-tie-group loop that _tied_ranks replaced."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    boundaries = np.flatnonzero(np.r_[True, s[1:] != s[:-1], True])
    ranks_sorted = np.empty(len(s))
    for start, stop in zip(boundaries[:-1], boundaries[1:]):
        ranks_sorted[start:stop] = 0.5 * (start + 1 + stop)
    ranks = np.empty(len(s))
    ranks[order] = ranks_sorted
    return ranks


def test_tied_ranks_equal_the_loop_form_bit_for_bit():
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 400))
        levels = int(rng.integers(1, 60))
        kind = rng.integers(0, 3)
        scores = (rng.random(n) if kind == 0
                  else rng.integers(0, levels, size=n) / levels if kind == 1
                  else np.full(n, rng.random()))
        assert metrics._tied_ranks(scores).tobytes() == loop_tied_ranks(scores).tobytes()
    assert metrics._tied_ranks(np.zeros(0)).shape == (0,)


def test_auc_is_invariant_under_monotone_transforms():
    rng = np.random.default_rng(18)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.integers(0, 9, size=n) / 8.0
        base = metrics.auc(scores, labels)
        assert metrics.auc(3.0 * scores + 1.0, labels) == base
        assert metrics.auc(scores ** 3, labels) == base


def test_auc_label_flip_symmetry():
    rng = np.random.default_rng(19)
    for _ in range(30):
        n = int(rng.integers(2, 50))
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        scores = rng.uniform(size=n)
        assert abs(metrics.auc(scores, 1 - labels)
                   - (1.0 - metrics.auc(scores, labels))) < 1e-12


def test_auc_needs_both_classes():
    with pytest.raises(EvaluationError):
        metrics.auc([0.1, 0.9], [1, 1])
    with pytest.raises(EvaluationError):
        metrics.auc([0.1, 0.9], [0, 0])


def test_auc_shape_mismatch_is_a_usage_error():
    with pytest.raises(UsageError):
        metrics.auc([0.1, 0.9, 0.5], [0, 1])


def test_log_loss_even_coin_is_ln2():
    assert abs(metrics.log_loss([0.5, 0.5], [0, 1]) - math.log(2.0)) < 1e-12


def test_log_loss_hand_example():
    expected = -(math.log(0.9) + math.log(0.8)) / 2.0
    assert abs(metrics.log_loss([0.9, 0.2], [1, 0]) - expected) < 1e-12


def test_log_loss_on_exact_predictions_is_tiny():
    assert metrics.log_loss([0.0, 1.0, 1.0, 0.0], [0, 1, 1, 0]) <= 1e-6


def test_log_loss_constant_predictor_closed_form():
    rng = np.random.default_rng(21)
    for _ in range(20):
        n = int(rng.integers(1, 60))
        labels = rng.integers(0, 2, size=n)
        c = float(rng.uniform(0.05, 0.95))
        rate = labels.mean()
        expected = -(rate * math.log(c) + (1.0 - rate) * math.log(1.0 - c))
        assert abs(metrics.log_loss(np.full(n, c), labels) - expected) < 1e-12


def test_log_loss_shape_mismatch_is_a_usage_error():
    with pytest.raises(UsageError):
        metrics.log_loss([0.5], [0, 1])


def test_evaluate_builds_a_report():
    report = metrics.evaluate([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert abs(report.auc - 0.75) < 1e-12
    assert report.n_instances == 4
    assert report.n_positive == 2
    d = report.to_dict()
    assert set(d) == {"auc", "log_loss", "n_instances", "n_positive"}
    assert d["log_loss"] == report.log_loss
