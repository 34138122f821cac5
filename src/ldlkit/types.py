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
import numbers
import warnings
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


class Record:
    """Base of the frozen records; unlike dataclasses, it compiles no methods
    at import.  Fields are the class's own annotations; a class-level value is
    a default shared by every instance, so immutable.  The instance
    ``__dict__`` holds exactly the fields, in order: ``__post_init__`` may
    validate them or convert one (``object.__setattr__``)."""

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)

    def __init__(self, *args, **kwargs):
        cls = type(self)
        if len(args) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes {len(cls._fields)} arguments")
        for name, value in zip(cls._fields, args):
            if name in kwargs:
                raise TypeError(f"{cls.__name__}() got multiple values for {name!r}")
            kwargs[name] = value
        for name in cls._fields:
            if name not in kwargs and name not in cls.__dict__:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
            object.__setattr__(self, name, kwargs.pop(name, cls.__dict__.get(name)))
        if kwargs:
            raise TypeError(f"{cls.__name__}() got an unexpected argument {next(iter(kwargs))!r}")
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash(tuple(vars(self).values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and so validated anew."""
        return type(self)(**{**vars(self), **changes})


class FeatureMatrix(Record):
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


class LabelDistributionMatrix(Record):
    """Column-stochastic label distributions, shape (m, n): columns are instances.

    Each column must lie on the probability simplex: entries in [0, 1] and a
    sum of 1 within ``SIMPLEX_TOL``.  Columns whose sum is off by at most
    ``RENORM_TOL`` are rescaled with a warning; larger deviations or
    out-of-range entries raise :class:`ColumnNotSimplex` listing the offending
    columns.  Entries below 0 are clipped to 0.  A valid float64 array is kept
    as it is; only a rescale or a clip copies it.
    """

    data: np.ndarray

    def __post_init__(self):
        arr = _as_float_matrix(self.data, "distribution matrix")
        sums = arr.sum(axis=0)
        entry_bad = (arr.min(axis=0) < -1e-12) | (arr.max(axis=0) > 1.0 + 1e-12)
        bad = entry_bad | (np.abs(sums - 1.0) > RENORM_TOL)
        if np.any(bad):
            raise ColumnNotSimplex([(int(i), float(sums[i])) for i in np.flatnonzero(bad)])
        needs_rescale = np.abs(sums - 1.0) > SIMPLEX_TOL
        if np.any(needs_rescale):
            warnings.warn(
                f"renormalized {int(needs_rescale.sum())} column(s) whose sums deviated "
                f"from 1 by up to {float(np.abs(sums - 1.0).max()):.2e}",
                stacklevel=3,
            )
            arr = arr.copy()
            arr[:, needs_rescale] /= sums[needs_rescale]
        if np.signbit(arr).any():                           # -0.0 too: the clip makes it 0.0
            arr = np.clip(arr, 0.0, None)
        object.__setattr__(self, "data", arr)

    @property
    def m(self) -> int:
        return self.data.shape[0]

    @property
    def n(self) -> int:
        return self.data.shape[1]


class MultiLabelMatrix(Record):
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
    """``D`` as a :class:`LabelDistributionMatrix`, which validates on construction."""
    return D if isinstance(D, LabelDistributionMatrix) else LabelDistributionMatrix(D)


class ThresholdDegrade(Record):
    """Cumulative-mass degradation: add labels by descending degree until the
    selected mass exceeds ``t``."""

    t: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.t < 1.0):
            raise ValueError(f"threshold must lie in (0, 1), got {self.t}")

    def __str__(self) -> str:
        return f"threshold:{self.t:g}"


class TopKDegrade(Record):
    """Top-k degradation: the k largest degrees are the relevant labels."""

    k: int = 1

    def __post_init__(self):
        if isinstance(self.k, (bool, np.bool_)) or int(self.k) != self.k or self.k < 1:
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


class Hyperparams(Record):
    """Solver hyperparameters.

    ``alpha`` weighs the nuclear-norm term, ``lam`` the shared ridge penalty
    on both parameter matrices; ``degradation`` builds the auxiliary
    multi-label matrix.  ``max_iters`` and ``tol`` bound the splitting solver.
    """

    alpha: float = 0.1
    lam: float = 0.1
    degradation: Degradation = ThresholdDegrade()
    max_iters: int = 200
    tol: float = 1e-5

    def __post_init__(self):
        for name, value in (("alpha", self.alpha), ("lambda", self.lam), ("tol", self.tol)):
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0 and name != "tol":                  # tol's bound is checked last
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.lam > np.finfo(np.float64).max / 2:          # the solvers add 2 lambda I
            raise ValueError(f"lambda must be at most {np.finfo(np.float64).max / 2:g}, "
                             f"got {self.lam:g}")
        if not isinstance(self.degradation, (ThresholdDegrade, TopKDegrade)):
            raise TypeError("degradation must be ThresholdDegrade or TopKDegrade")
        try:
            integral = (not isinstance(self.max_iters, (bool, np.bool_))
                        and int(self.max_iters) == self.max_iters)
        except (TypeError, ValueError, OverflowError):
            integral = False
        if not integral:
            raise ValueError(f"max_iters must be an integer, got {self.max_iters!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be positive, got {self.max_iters}")
        object.__setattr__(self, "max_iters", int(self.max_iters))
        if self.tol <= 0:
            raise ValueError(f"tol must be positive, got {self.tol}")


class Standardizer(Record):
    """Per-feature z-score parameters recorded at fit time.

    Zero-variance features are mapped to 0 rather than divided by 0.  A
    non-finite mean or std (a feature whose values overflow), or a negative
    std, is a ValueError naming the feature's 1-based column.
    """

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        for name in ("mean", "std"):
            values = np.asarray(getattr(self, name), dtype=np.float64)
            bad = np.flatnonzero(~np.isfinite(values))
            if bad.size:
                raise ValueError(f"feature column {bad[0] + 1} overflows standardization: "
                                 f"its {name} is {values.flat[bad[0]]}")
            object.__setattr__(self, name, values)
        negative = np.flatnonzero(self.std < 0)
        if negative.size:
            raise ValueError(f"feature column {negative[0] + 1} has a negative std "
                             f"{self.std.flat[negative[0]]}")

    def transform(self, X: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """(X - mean) / std per feature, 0 where std is 0; written into
        ``out`` (of X's shape) when given, else into a new array."""
        X = np.asarray(X, dtype=np.float64)
        safe = np.where(self.std == 0.0, 1.0, self.std)
        out = np.subtract(X, self.mean, out=out)
        np.divide(out, safe, out=out)
        out[..., self.std == 0.0] = 0.0
        return out


class LdlModel(Record):
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
