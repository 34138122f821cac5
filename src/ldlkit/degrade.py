"""Degradation of label distributions into binary multi-label matrices.

Two procedures are provided.  Threshold degradation mimics a labeler who keeps
adding the most descriptive label until the accumulated description mass
exceeds a threshold; top-k degradation simply marks the k largest degrees as
relevant.  Ties are broken toward the lower label index so both procedures are
deterministic.
"""
from __future__ import annotations

import numpy as np

from .types import (
    Degradation,
    MultiLabelMatrix,
    ThresholdDegrade,
    TopKDegrade,
    validate_distribution_matrix,
)


def threshold_degrade(D, t: float) -> MultiLabelMatrix:
    """Select labels per column in descending degree order until their mass
    exceeds ``t`` in (0, 1) (strictly; a running sum equal to ``t`` keeps
    selecting)."""
    return degrade(D, ThresholdDegrade(t))


def topk_degrade(D, k: int) -> MultiLabelMatrix:
    """Mark the ``k`` largest description degrees of each column as relevant."""
    return degrade(D, TopKDegrade(k))


def degrade(D, setting: Degradation) -> MultiLabelMatrix:
    """Apply a degradation setting (threshold or top-k) to ``D``: in each
    column's stable descending order, the first c labels are relevant, where c
    is k, or 1 + the number of prefix sums <= t, capped at m."""
    if not isinstance(setting, (ThresholdDegrade, TopKDegrade)):
        raise TypeError(f"unknown degradation setting {setting!r}")
    data = validate_distribution_matrix(D).data
    m = data.shape[0]
    if isinstance(setting, TopKDegrade) and setting.k > m:
        raise ValueError(f"k={setting.k} exceeds the label count m={m}")
    order = np.argsort(-data, axis=0, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(m)[:, None], axis=0)
    if isinstance(setting, TopKDegrade):
        counts = setting.k
    else:
        cums = np.cumsum(np.take_along_axis(data, order, axis=0), axis=0)
        counts = np.minimum((cums <= setting.t).sum(axis=0) + 1, m)
    return MultiLabelMatrix((ranks < counts).astype(np.float64))
