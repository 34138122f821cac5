"""The six label-distribution evaluation measures and per-dataset aggregation.

Distances (smaller is better): chebyshev, clark, canberra, kl_divergence.
Similarities (larger is better): cosine, intersection.

Zero handling: terms with a 0/0 denominator contribute 0 (clark, canberra);
for the KL divergence the prediction is clamped below at ``KL_EPS`` and
renormalized before taking logs, and true-zero entries contribute 0.
"""
from __future__ import annotations

import numpy as np

from .errors import ShapeMismatch
from .types import Record

KL_EPS = 1e-12

METRIC_NAMES = ("chebyshev", "clark", "canberra", "kl", "cosine", "intersection")


def _pair(d, p) -> tuple[np.ndarray, np.ndarray]:
    d = np.asarray(d, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    if d.shape != p.shape:
        raise ShapeMismatch(f"shape mismatch: {d.shape} vs {p.shape}")
    return d, p


def _column_score(d, p, metric: str) -> float:
    """One metric for a single distribution pair, via :func:`_per_instance_scores`."""
    d, p = _pair(d, p)
    scores = _per_instance_scores(d[:, np.newaxis], p[:, np.newaxis])
    return float(scores[0, METRIC_NAMES.index(metric)])


def chebyshev(d, p) -> float:
    """max_j |d_j - p_j|"""
    return _column_score(d, p, "chebyshev")


def clark(d, p) -> float:
    """sqrt(sum_j (d_j - p_j)^2 / (d_j + p_j)^2), 0/0 terms counting as 0."""
    return _column_score(d, p, "clark")


def canberra(d, p) -> float:
    """sum_j |d_j - p_j| / (d_j + p_j), 0/0 terms counting as 0."""
    return _column_score(d, p, "canberra")


def kl_divergence(d, p) -> float:
    """sum_j d_j log(d_j / p_j) with the prediction eps-smoothed."""
    return _column_score(d, p, "kl")


def cosine(d, p) -> float:
    """(d . p) / (||d|| ||p||)"""
    return _column_score(d, p, "cosine")


def intersection(d, p) -> float:
    """sum_j min(d_j, p_j)"""
    return _column_score(d, p, "intersection")


class EvalReport(Record):
    """Mean scores over a prediction set, one per metric, plus dispersion."""

    chebyshev: float
    clark: float
    canberra: float
    kl: float
    cosine: float
    intersection: float
    chebyshev_std: float
    clark_std: float
    canberra_std: float
    kl_std: float
    cosine_std: float
    intersection_std: float
    n_evaluated: int

    def mean(self, metric: str) -> float:
        return float(getattr(self, metric))

    def std(self, metric: str) -> float:
        return float(getattr(self, f"{metric}_std"))


def _per_instance_scores(Dt: np.ndarray, Dp: np.ndarray) -> np.ndarray:
    """Vectorized per-column scores, shape (n, 6) in METRIC_NAMES order."""
    diff = Dt - Dp
    s = Dt + Dp
    cheb = np.abs(diff).max(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(s > 0, diff / np.where(s > 0, s, 1.0), 0.0)
        clrk = np.sqrt((ratio ** 2).sum(axis=0))
        canb = np.abs(ratio).sum(axis=0)
    q = np.maximum(Dp, KL_EPS)
    q = q / q.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        kl_terms = np.where(Dt > 0, Dt * np.log(np.where(Dt > 0, Dt, 1.0) / q), 0.0)
    kld = kl_terms.sum(axis=0)
    cos = (Dt * Dp).sum(axis=0) / (
        np.linalg.norm(Dt, axis=0) * np.linalg.norm(Dp, axis=0)
    )
    inter = np.minimum(Dt, Dp).sum(axis=0)
    return np.column_stack([cheb, clrk, canb, kld, cos, inter])


def evaluate(D_true, D_pred) -> EvalReport:
    """Score a prediction matrix against the ground truth, instance by instance,
    and average arithmetically over instances (columns)."""
    Dt, Dp = _pair(getattr(D_true, "data", D_true), getattr(D_pred, "data", D_pred))
    scores = _per_instance_scores(Dt, Dp)
    means = scores.mean(axis=0)
    stds = scores.std(axis=0)
    return EvalReport(
        *(float(v) for v in means),
        *(float(v) for v in stds),
        n_evaluated=Dt.shape[1],
    )
