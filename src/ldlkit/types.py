"""Core matrix types and hyperparameter containers with validated invariants.

Conventions
-----------
Instances are columns of the label matrices: a label-distribution matrix is
(m, n) with column i holding the distribution of instance i, while a feature
matrix is (n, d) with row i holding the features of instance i.  Dataset files
store one instance per row and are transposed on load.
"""
from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np

from .errors import ColumnNotSimplex, ShapeMismatch

# Column sums within SIMPLEX_TOL of 1 are accepted as-is; sums within
# RENORM_TOL are renormalized with a warning; anything worse is rejected.
SIMPLEX_TOL = 1e-9
RENORM_TOL = 1e-6


def _as_float_matrix(data, name: str) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim != 2:
        raise ShapeMismatch(f"{name} must be 2-D, got shape {arr.shape}")
    if arr.size == 0:
        raise ShapeMismatch(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


@dataclass(frozen=True)
class FeatureMatrix:
    """Instance features, shape (n, d): rows are instances."""

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_float_matrix(self.data, "feature matrix"))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class LabelDistributionMatrix:
    """Column-stochastic label distributions, shape (m, n): columns are instances.

    Construct through :func:`validate_distribution_matrix` unless the data is
    already known to satisfy the simplex invariants exactly.
    """

    data: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "data", _as_float_matrix(self.data, "distribution matrix"))

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


@dataclass(frozen=True)
class MultiLabelMatrix:
    """Binary relevance matrix, shape (m, n); every column has at least one 1."""

    data: np.ndarray

    def __post_init__(self):
        arr = _as_float_matrix(self.data, "multi-label matrix")
        if not np.all((arr == 0.0) | (arr == 1.0)):
            raise ValueError("multi-label matrix entries must be 0 or 1")
        if np.any(arr.sum(axis=0) < 1):
            empty = int(np.argmin(arr.sum(axis=0)))
            raise ValueError(f"multi-label column {empty} has no relevant label")
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


def validate_distribution_matrix(D) -> LabelDistributionMatrix:
    """Validate (and possibly renormalize) a candidate distribution matrix.

    Each column must lie on the probability simplex: entries in [0, 1] and a
    sum of 1 within ``SIMPLEX_TOL``.  Columns whose sum is off by at most
    ``RENORM_TOL`` are rescaled with a warning; larger deviations or
    out-of-range entries raise :class:`ColumnNotSimplex` listing the offending
    columns.
    """
    if isinstance(D, LabelDistributionMatrix):
        return D
    arr = _as_float_matrix(D, "distribution matrix")
    sums = arr.sum(axis=0)
    entry_bad = (arr.min(axis=0) < -1e-12) | (arr.max(axis=0) > 1.0 + 1e-12)
    sum_bad = np.abs(sums - 1.0) > RENORM_TOL
    bad = entry_bad | sum_bad
    if np.any(bad):
        cols = [(int(i), float(sums[i])) for i in np.flatnonzero(bad)]
        raise ColumnNotSimplex(cols[0][0], cols[0][1], cols)
    needs_rescale = np.abs(sums - 1.0) > SIMPLEX_TOL
    if np.any(needs_rescale):
        warnings.warn(
            f"renormalized {int(needs_rescale.sum())} column(s) whose sums deviated "
            f"from 1 by up to {float(np.abs(sums - 1.0).max()):.2e}",
            stacklevel=2,
        )
        arr = arr.copy()
        arr[:, needs_rescale] /= sums[needs_rescale]
    arr = np.clip(arr, 0.0, None)
    return LabelDistributionMatrix(arr)


@dataclass(frozen=True)
class ThresholdDegrade:
    """Cumulative-mass degradation: add labels by descending degree until the
    selected mass exceeds ``t``."""

    t: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.t < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.t}")

    def __str__(self) -> str:
        return f"threshold:{self.t:g}"


@dataclass(frozen=True)
class TopKDegrade:
    """Top-k degradation: the k largest degrees are the relevant labels."""

    k: int = 1

    def __post_init__(self):
        if int(self.k) != self.k or self.k < 1:
            raise ValueError(f"k must be a positive integer, got {self.k}")
        object.__setattr__(self, "k", int(self.k))

    def __str__(self) -> str:
        return f"topk:{self.k}"


Degradation = Union[ThresholdDegrade, TopKDegrade]


def parse_degradation(spec: str) -> Degradation:
    """Parse ``"threshold:T"`` or ``"topk:K"``; a malformed spec's ValueError quotes it."""
    kind, sep, value = spec.partition(":")
    if not sep:
        raise ValueError(f"degradation spec {spec!r} must look like 'threshold:0.5' or 'topk:3'")
    kind = kind.strip().lower()
    if kind not in ("threshold", "topk"):
        raise ValueError(f"unknown degradation kind {kind!r} in spec {spec!r}")
    try:
        value = float(value) if kind == "threshold" else int(value)
    except ValueError:
        what = "a number" if kind == "threshold" else "an integer"
        raise ValueError(f"degradation spec {spec!r} needs {what} after ':'") from None
    return ThresholdDegrade(value) if kind == "threshold" else TopKDegrade(value)


class Variant(enum.Enum):
    """Model variants: the full joint method and its two ablations."""

    FULL = "full"
    ABLATION_A = "ablation-a"   # nuclear norm applied directly to the prediction
    ABLATION_B = "ablation-b"   # plain ridge regression, no correlation term

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Hyperparams:
    """Solver hyperparameters.

    ``alpha`` weighs the nuclear-norm term, ``lam`` the shared ridge penalty
    on both parameter matrices; ``degradation`` builds the auxiliary
    multi-label matrix.  ``max_iters`` and ``tol`` bound the splitting solver.
    """

    alpha: float = 0.1
    lam: float = 0.1
    degradation: Degradation = field(default_factory=ThresholdDegrade)
    max_iters: int = 200
    tol: float = 1e-5

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("lambda", self.lam), ("tol", self.tol)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.lam < 0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")
        if not isinstance(self.degradation, (ThresholdDegrade, TopKDegrade)):
            raise TypeError("degradation must be ThresholdDegrade or TopKDegrade")
        try:
            integral = int(self.max_iters) == self.max_iters
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


@dataclass(frozen=True)
class Standardizer:
    """Per-feature z-score parameters recorded at fit time.

    Zero-variance features are mapped to 0 rather than divided by 0.
    """

    mean: np.ndarray
    std: np.ndarray

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        safe = np.where(self.std == 0.0, 1.0, self.std)
        out = (X - self.mean) / safe
        out[..., self.std == 0.0] = 0.0
        return out


@dataclass(frozen=True)
class LdlModel:
    """A trained label-distribution regressor.

    ``W`` maps (standardized, optionally bias-augmented) features to raw label
    scores; it is the only fitted parameter a model keeps.
    """

    W: np.ndarray
    variant: Variant
    hyperparams: Hyperparams
    standardizer: Optional[Standardizer] = None
    bias: bool = True

    def __post_init__(self):
        W = np.asarray(self.W, dtype=np.float64)
        if W.ndim != 2 or not np.all(np.isfinite(W)):
            raise ValueError("W must be a finite 2-D matrix")
        width = W.shape[1] - (1 if self.bias else 0)
        if width < 1:
            raise ShapeMismatch(f"W has {W.shape[1]} column(s), which leaves no feature "
                                f"column beside bias={self.bias}")
        if self.standardizer is not None and not (
                np.shape(self.standardizer.mean) == np.shape(self.standardizer.std) == (width,)):
            raise ShapeMismatch(
                f"W has {W.shape[1]} columns, so with bias={self.bias} the standardizer "
                f"needs {width} entries, got mean {np.shape(self.standardizer.mean)} "
                f"and std {np.shape(self.standardizer.std)}")
        object.__setattr__(self, "W", W)

    @property
    def m(self) -> int:
        return self.W.shape[0]

    @property
    def d_in(self) -> int:
        """Feature dimension expected at predict time (before bias augmentation)."""
        return self.W.shape[1] - (1 if self.bias else 0)
