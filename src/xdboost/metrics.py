"""Evaluation metrics: ROC AUC (rank-based, ties count half) and log loss."""

from dataclasses import asdict, dataclass

import numpy as np

from .errors import EvaluationError, UsageError
from .nn import weighted_bce_loss


@dataclass
class MetricsReport:
    auc: float
    log_loss: float
    n_instances: int
    n_positive: int

    def to_dict(self):
        return asdict(self)


def _tied_ranks(scores):
    """1-based ranks, averaging within tie groups (Mann-Whitney convention)."""
    order = np.argsort(scores, kind="mergesort")
    s = scores[order]
    # tie group g spans sorted positions b[g]..b[g+1]-1
    b = np.append(np.flatnonzero(np.r_[True, s[1:] != s[:-1]]), len(s))
    ranks = np.empty(len(s))
    ranks[order] = np.repeat(0.5 * (b[:-1] + 1 + b[1:]), np.diff(b))
    return ranks


def auc(scores, labels):
    """Probability a random positive outscores a random negative, ties = 1/2.

    Computed via rank sums in O(n log n); equals brute-force pairwise
    counting exactly. A label other than 0 or 1 is an EvaluationError.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    if scores.shape != labels.shape:
        raise UsageError(f"length mismatch: {scores.shape} vs {labels.shape}")
    n_pos = int(np.sum(labels == 1))
    n_neg = int(np.sum(labels == 0))
    if n_pos + n_neg != labels.size:
        raise EvaluationError("AUC needs labels of 0 or 1")
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("AUC needs both classes present")
    ranks = _tied_ranks(scores)
    pos_rank_sum = float(ranks[labels == 1].sum())
    return (pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def log_loss(probs, labels):
    """Unweighted mean binary cross-entropy: the training loss with unit
    class weights, so probabilities are clipped as in training. A label
    other than 0 or 1 is an EvaluationError, as in auc."""
    if not np.isin(labels, (0, 1)).all():
        raise EvaluationError("log loss needs labels of 0 or 1")
    return weighted_bce_loss(probs, labels)


def evaluate(scores, labels):
    """Bundle AUC and log loss over one scored evaluation set; a NaN or
    infinite score is an EvaluationError naming the first one, and so is
    a label other than 0 or 1 (from auc)."""
    scores = np.asarray(scores, dtype=np.float64)
    bad = np.flatnonzero(~np.isfinite(scores))
    if bad.size:
        raise EvaluationError(f"score {bad[0]} is {scores[bad[0]]}; "
                              "scores must be finite")
    labels = np.asarray(labels)
    return MetricsReport(auc=auc(scores, labels),
                         log_loss=log_loss(scores, labels),
                         n_instances=int(labels.size),
                         n_positive=int(np.sum(labels == 1)))
