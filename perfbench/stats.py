"""Summary statistics and naming rules shared by the serving benchmark."""

from __future__ import annotations

import re
from typing import Sequence, Tuple

import numpy as np

#: every metric name the benchmark prints matches this
METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

#: samples that must lie beyond the reported tail percentile
TAIL_BEYOND = 10


def check_metric_name(name: str) -> str:
    if not METRIC_NAME.match(name):
        raise ValueError(f"metric name {name!r} is not [A-Za-z0-9_.-]")
    return name


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(value, percentile)`` of the highest nearest-rank percentile that
    still has at least :data:`TAIL_BEYOND` samples above it.

    With ``n`` sorted samples that is the sample of rank ``n - 10``; its
    percentile is ``100 * (n - 10) / n``. Fewer than 11 samples have no
    such percentile, which is an error: a workload must measure enough.
    """
    n = len(values)
    if n <= TAIL_BEYOND:
        raise ValueError(f"a tail percentile needs more than {TAIL_BEYOND} "
                         f"samples, got {n}")
    ordered = sorted(values)
    rank = n - TAIL_BEYOND
    return float(ordered[rank - 1]), 100.0 * rank / n


def roc_auc(labels: np.ndarray, scores: np.ndarray) -> float:
    """Mann-Whitney ROC-AUC with average ranks for ties."""
    from scipy.stats import rankdata

    labels = np.asarray(labels).astype(bool)
    scores = np.asarray(scores, dtype=np.float64)
    positives = int(labels.sum())
    negatives = labels.size - positives
    if positives == 0 or negatives == 0:
        raise ValueError("AUC needs both classes among the labels")
    ranks = rankdata(scores)
    rank_sum = float(ranks[labels].sum())
    return (rank_sum - positives * (positives + 1) / 2.0) / (
        positives * negatives)
