"""Dataset ingestion, synthetic generation, subsetting and CV splitting.

Two on-disk formats are supported, told apart by the path's suffix:

* ``MatrixText`` -- a header line ``n d m`` followed by n whitespace-separated
  feature rows (d values each) and n distribution rows (m values each).
  Written with 17 significant digits so round-trips are bit-exact.  Read
  with numpy's C reader; a file it does not take as finite rows of the
  header's widths is parsed again line by line, only to name the bad line.
* ``Csv`` -- a header row ``f1..fd,y1..ym`` and one instance per row, in a
  file whose suffix is ``.csv`` in any case; every other path is MatrixText.

Both formats decode with ``_decode`` and parse rows with ``_parse_rows``: a
bad byte, a non-numeric or non-finite value, or a row of the wrong width
raises a ParseError naming the file, the line and, for a value, its column.

Relative dataset paths that do not exist are also searched under the
``LDL_DATA_DIR`` environment variable.
"""
from __future__ import annotations

import csv
import io
import math
import os
import re
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import LdlError, ParseError, ShapeMismatch
from .types import (
    FeatureMatrix,
    LabelDistributionMatrix,
    validate_distribution_matrix,
)

DATA_DIR_ENV = "LDL_DATA_DIR"


@dataclass(frozen=True)
class Dataset:
    name: str
    X: FeatureMatrix
    D: LabelDistributionMatrix
    label_names: Optional[Tuple[str, ...]] = None

    def __post_init__(self):
        if self.X.n != self.D.n:
            raise ShapeMismatch(
                f"feature matrix has {self.X.n} instances but distribution matrix has {self.D.n}"
            )

    @property
    def n(self) -> int:
        return self.X.n

    @property
    def d(self) -> int:
        return self.X.d

    @property
    def m(self) -> int:
        return self.D.m


@dataclass(frozen=True)
class FoldPlan:
    """Assignment of each instance to one of ``k`` folds, balanced to within one."""

    k: int
    assignments: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "assignments", np.asarray(self.assignments, dtype=np.int64))

    def split(self, fold: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return (train_indices, test_indices) for one fold."""
        test = np.flatnonzero(self.assignments == fold)
        train = np.flatnonzero(self.assignments != fold)
        return train, test


def resolve_data_path(path) -> Path:
    """Return ``path`` if it exists, else look under ``$LDL_DATA_DIR``."""
    p = Path(path)
    if p.exists():
        return p
    root = os.environ.get(DATA_DIR_ENV)
    if root:
        candidate = Path(root) / p
        if candidate.exists():
            return candidate
    return p


def _is_csv(path) -> bool:
    return path.suffix.lower() == ".csv"


def load_dataset(path) -> Dataset:
    """Load a dataset named after the file's stem, validating and (within
    tolerance) renormalizing the distribution columns.  Toolkit errors name
    the file; a ParseError keeps its ``line``."""
    path = resolve_data_path(path)
    try:
        X, D, labels = _load_csv(path) if _is_csv(path) else _load_matrix_text(path)
        return Dataset(path.stem, FeatureMatrix(X), validate_distribution_matrix(D), labels)
    except LdlError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# loadtxt's notes on blank lines inside a block and on an exhausted file; the
# shape checks in _load_matrix_text cover both.
_LOADTXT_NO_DATA = r"Input line \d+ contained no data|loadtxt: input contained no data"


def _load_matrix_text(path):
    """Read both blocks with numpy's C reader; a file that reader does not
    take as exactly n rows of d and n rows of m finite values goes to the
    line parser, which returns the same values or names the bad line.  The
    file is read once, so both parse the same bytes, even from a pipe."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        with io.TextIOWrapper(io.BytesIO(data), encoding="utf-8") as fh, \
                warnings.catch_warnings():
            warnings.filterwarnings("ignore", _LOADTXT_NO_DATA, UserWarning)
            lineno, header = 0, ""
            while not header:
                raw = fh.readline()
                if not raw:
                    raise ParseError(1, "empty file")
                lineno, header = lineno + 1, raw.strip()
            n, d, m = _parse_header(lineno, header)
            # loadtxt allocates max_rows rows up front (MemoryError when the
            # first row is far wider than d + m) and takes no n beyond int64;
            # a file with fewer bytes than values is malformed anyway.
            if n * (d + m) <= len(data):
                X = np.loadtxt(fh, ndmin=2, max_rows=n, comments=None)
                Drows = np.loadtxt(fh, ndmin=2, max_rows=n, comments=None)
                if (X.shape == (n, d) and Drows.shape == (n, m) and not fh.read().strip()
                        and np.isfinite(X).all() and np.isfinite(Drows).all()):
                    return X, Drows.T, None
    except (ParseError, ValueError, MemoryError):
        pass
    return _parse_matrix_text(data)


def _parse_header(lineno, header):
    parts = header.split()
    if len(parts) != 3:
        raise ParseError(lineno, f"header must be 'n d m', got {header!r}")
    try:
        n, d, m = (int(p) for p in parts)
    except ValueError:
        raise ParseError(lineno, f"header values must be integers, got {header!r}") from None
    if n < 1 or d < 1 or m < 1:
        raise ParseError(lineno, f"header values must be positive, got {header!r}")
    return n, d, m


def _parse_matrix_text(data: bytes):
    """Parse MatrixText bytes line by line with ``float()``; raises ParseError
    naming the first bad line (and, for a bad value, its 1-based column)."""
    rows = []
    for lineno, raw in enumerate(_universal_newlines(_decode(data)).split("\n"), start=1):
        line = raw.strip()
        if line:
            rows.append((lineno, line))
    if not rows:
        raise ParseError(1, "empty file")
    lineno, header = rows[0]
    n, d, m = _parse_header(lineno, header)
    body = [(ln, line.split()) for ln, line in rows[1:]]
    if len(body) != 2 * n:
        last = body[-1][0] if body else lineno
        raise ParseError(last, f"expected {2 * n} data lines, found {len(body)}")
    X = _parse_rows(body[:n], d, "feature value", "feature values")
    Drows = _parse_rows(body[n:], m, "distribution value", "distribution values")
    return X, Drows.T, None


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text; a byte that is not UTF-8 raises ParseError on its line."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = _universal_newlines(data[:exc.start].decode("utf-8")).count("\n") + 1
        reason = f"byte {data[exc.start]:#04x} is not valid UTF-8 ({exc.reason})"
        raise ParseError(line, reason) from None


def _universal_newlines(text: str) -> str:
    """``text`` with line ends as a text-mode file reads them: CRLF and CR become LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _parse_rows(rows, width, value="value", unit="columns"):
    """Parse ``(line, tokens)`` pairs with ``float()`` into a (len(rows), width)
    array; a row of another width, or a token that is not a finite number
    (named with its 1-based column), raises ParseError on its line."""
    out = np.empty((len(rows), width))
    for i, (line, tokens) in enumerate(rows):
        if len(tokens) != width:
            raise ParseError(line, f"expected {width} {unit}, got {len(tokens)}")
        for j, token in enumerate(tokens):
            try:
                out[i, j] = x = float(token)
            except ValueError:
                raise ParseError(
                    line, f"non-numeric {value} {token!r} in column {j + 1}"
                ) from None
            if not math.isfinite(x):
                raise ParseError(line, f"non-finite {value} {token!r} in column {j + 1}")
    return out


def _load_csv(path):
    with open(path, "rb") as fh:
        reader = csv.reader(io.StringIO(_decode(fh.read()), newline=""))
    try:
        records = list(reader)
    except csv.Error as exc:
        raise ParseError(reader.line_num, str(exc)) from None
    if not records:
        raise ParseError(1, "empty file")
    names = [h.strip() for h in records[0]]
    d = 0
    while d < len(names) and re.fullmatch(r"f\d+", names[d]):
        d += 1
    m = len(names) - d
    if d < 1 or m < 1:
        raise ParseError(1, f"header must name f1..fd then y1..ym columns, got {records[0]!r}")
    rows = [(lineno, row) for lineno, row in enumerate(records[1:], start=2)
            if any(c.strip() for c in row)]
    if not rows:
        raise ParseError(2, "no data rows")
    values = _parse_rows(rows, d + m)
    return values[:, :d], values[:, d:].T, tuple(names[d:])


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset; MatrixText uses 17 significant digits (lossless)."""
    path = Path(path)
    X = ds.X.data
    Drows = ds.D.data.T
    if not _is_csv(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{ds.n} {ds.d} {ds.m}\n")
            np.savetxt(fh, X, fmt="%.17g")
            np.savetxt(fh, Drows, fmt="%.17g")
    else:
        labels = ds.label_names or tuple(f"y{j + 1}" for j in range(ds.m))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow([f"f{j + 1}" for j in range(ds.d)] + list(labels))
            for xrow, drow in zip(X, Drows):
                writer.writerow([f"{v:.17g}" for v in xrow] + [f"{v:.17g}" for v in drow])


def synth_lowrank(
    n: int, d: int, m: int, r: int, noise: float = 0.1, seed: int = 0
) -> Dataset:
    """Generate a synthetic dataset whose label structure has rank ``r``.

    Draws a rank-``r`` coefficient matrix, standard-normal features, adds
    Gaussian score noise and softmax-normalizes columns.  The softmax keeps the
    distribution matrix numerically full-rank even when ``r < m``, while the
    degraded multi-label matrix inherits the low-rank pattern structure.
    Deterministic in ``seed``.
    """
    if min(n, d, m, r) < 1:
        raise ValueError(f"n, d, m, r must be positive, got {n}, {d}, {m}, {r}")
    if r > min(m, n):
        raise ValueError(f"r={r} must not exceed min(m, n)={min(m, n)}")
    if not (math.isfinite(noise) and noise >= 0):
        raise ValueError(f"noise must be finite and nonnegative, got {noise}")
    rng = np.random.default_rng(seed)
    coeff = rng.standard_normal((m, r)) @ rng.standard_normal((r, d))
    X = rng.standard_normal((n, d))
    with np.errstate(over="ignore", invalid="ignore"):
        raw = coeff @ X.T + noise * rng.standard_normal((m, n))
    if not np.isfinite(raw).all():
        raise ValueError(f"noise {noise:g} overflows the label scores")
    raw -= raw.max(axis=0, keepdims=True)
    D = np.exp(raw)
    D /= D.sum(axis=0, keepdims=True)
    name = f"synth-n{n}-d{d}-m{m}-r{r}-noise{noise:g}-seed{seed}"
    return Dataset(name, FeatureMatrix(X), LabelDistributionMatrix(D))


def kfold(n: int, k: int = 10, seed: int = 42) -> FoldPlan:
    """Uniformly shuffled fold assignment with sizes balanced to within one."""
    if k < 2:
        raise ValueError(f"k must be at least 2, got {k}")
    if n < k:
        raise ValueError(f"cannot split {n} instances into {k} folds")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    assignments = np.empty(n, dtype=np.int64)
    base, extra = divmod(n, k)
    start = 0
    for fold in range(k):
        size = base + (1 if fold < extra else 0)
        assignments[order[start:start + size]] = fold
        start += size
    return FoldPlan(k=k, assignments=assignments)


def subset(ds: Dataset, idx: Sequence[int]) -> Dataset:
    """Dataset restricted to the given instance indices, under the same name."""
    idx = np.asarray(idx, dtype=np.int64)
    return Dataset(
        ds.name,
        FeatureMatrix(ds.X.data[idx]),
        LabelDistributionMatrix(ds.D.data[:, idx]),
        ds.label_names,
    )
