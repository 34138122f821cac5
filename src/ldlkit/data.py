"""Dataset ingestion, synthetic generation, subsetting and CV splitting.

Two on-disk formats are supported, told apart by the path's suffix:

* ``MatrixText`` -- a header line ``n d m`` followed by n whitespace-separated
  feature rows (d values each) and n distribution rows (m values each); blank
  lines are skipped.
* ``Csv`` -- a header row ``f1..fd,y1..ym`` and one instance per row, in a
  file whose suffix is ``.csv`` in any case; every other path is MatrixText.

Both are written with 17 significant digits (bit-exact round-trips), as plain
text whatever the file's name, ``.gz`` included.  A bad byte, a non-numeric
or non-finite value, or a row of the wrong width raises a ParseError naming
the file, the line and, for a value, its column.

Relative dataset paths that do not exist are also searched under the
``LDL_DATA_DIR`` environment variable.

``load_dataset`` keeps each parse in a cache, ``$XDG_CACHE_HOME/ldlkit``
(``~/.cache/ldlkit`` if unset): one entry per resolved path, a file of
``.npy`` records checked by their CRC-32s, used only for the same bytes and
``PARSE_VERSION``.  A damaged or unwritable cache means a parse, and an input
that cannot seek (a pipe) is parsed without the cache.  ``rm -r
~/.cache/ldlkit`` clears it.
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import re
import tempfile
import time
import warnings
import zlib
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import LdlError, ParseError, ShapeMismatch
from .types import (
    FeatureMatrix,
    LabelDistributionMatrix,
    Record,
    validate_distribution_matrix,
)

DATA_DIR_ENV = "LDL_DATA_DIR"
# Part of every parse-cache digest: bump it when the parsers could return
# other arrays for the same bytes, so that older entries miss.
PARSE_VERSION = 1
# Entries the parse cache keeps; publishing one removes the least recently
# used beyond this many.
_CACHE_ENTRIES = 16
# Rows that ``write_rows`` formats with one ``%``: enough to amortize the
# call, few enough that a block's text stays a few MB.
_WRITE_ROWS = 2048


class Dataset(Record):
    """A named pair of features X (n, d) and distributions D (m, n) over the
    same n instances, with optional label names."""

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


class FoldPlan(Record):
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
    tolerance) renormalizing the distribution columns.  The file is read
    once, and parsed only when the parse cache holds no entry for its bytes;
    an input that cannot seek (a pipe) is parsed without the cache.
    Toolkit errors and warnings name the file; a ParseError keeps its ``line``."""
    path = resolve_data_path(path)
    with open(path, "rb") as fh:
        data = fh.read()
        entry = _cache_entry(path) if fh.seekable() else None
    fmt = "CSV" if _is_csv(path) else "MatrixText"
    sha = hashlib.sha256(f"{PARSE_VERSION} {fmt}\n".encode())
    sha.update(data)
    digest = sha.digest()
    try:
        parsed = _cache_read(entry, digest)
        if parsed is None:
            parsed = _load_csv(data) if fmt == "CSV" else _load_matrix_text(data)
            _cache_write(entry, digest, *parsed)
        X, Drows, labels = parsed
        with warnings.catch_warnings(record=True) as caught:   # issued again, naming the file
            warnings.simplefilter("always")
            X, D = FeatureMatrix(X), validate_distribution_matrix(Drows.T)
        for w in caught:
            warnings.warn(f"{w.message} in {path}", w.category, stacklevel=2)
        return Dataset(path.stem, X, D, labels)
    except LdlError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def _cache_entry(path) -> Optional[Path]:
    """The parse cache's one entry for the dataset file at ``path``, or None
    when the cache directory would be a relative path (no home directory)."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    root = Path(base if os.path.isabs(base) else os.path.expanduser("~/.cache"))
    key = hashlib.sha256(os.fsencode(path.resolve())).hexdigest()
    return root / "ldlkit" / f"{key}.npys" if root.is_absolute() else None


# An entry is a sequence of .npy (version 1.0) records: the dataset digest
# (32 bytes); the CRC-32s of X, Drows and the labels' JSON, then n, d, m and
# the JSON's length; X; Drows; and the JSON (UTF-8 bytes).
_NO_LABELS = b"null"    # the JSON of None and of no list: json is imported only for names


def _npy_header(dtype, shape) -> bytes:
    """The .npy header of a C-order array, padded so that its data starts at
    a multiple of 64 bytes, as numpy aligns it."""
    text = f"{{'descr': '{np.dtype(dtype).str}', 'fortran_order': False, 'shape': {shape}, }}"
    text += " " * (63 - (len(text) + 10) % 64) + "\n"
    return b"\x93NUMPY\x01\x00" + len(text).to_bytes(2, "little") + text.encode("latin1")


def _write_record(fh, a: np.ndarray) -> None:
    """Append the C-order array ``a`` to ``fh`` as one .npy record."""
    fh.write(_npy_header(a.dtype, a.shape))
    fh.write(a)


def _read_record(fh, a: np.ndarray) -> bool:
    """Read the next record of ``fh`` into ``a``: False unless its header is
    the one ``_npy_header`` writes for ``a`` and its data is all there."""
    header = _npy_header(a.dtype, a.shape)
    return fh.read(len(header)) == header and fh.readinto(a) == a.nbytes


def _cache_read(entry, digest: bytes):
    """The parse (X, Drows, labels) that ``entry`` holds for the bytes of
    ``digest``, in the parser's dtype and memory order; None on a miss."""
    if entry is None:
        return None
    # Whatever reading a missing, partial or damaged entry raises, the file is
    # parsed instead: the cache never changes an outcome.
    try:
        with open(entry, "rb") as fh:
            stored, sizes = np.empty(32, np.uint8), np.empty(7, np.uint64)
            if not (_read_record(fh, stored) and stored.tobytes() == digest
                    and _read_record(fh, sizes)):
                return None
            *crcs, n, d, m, k = sizes.tolist()
            kinds = [((n, d), np.float64), ((n, m), np.float64), ((k,), np.uint8)]
            # The rest of the file must be exactly these records: checked
            # before anything is allocated from a damaged size.
            if os.fstat(fh.fileno()).st_size - fh.tell() != sum(
                    len(_npy_header(dtype, shape)) + math.prod(shape) * np.dtype(dtype).itemsize
                    for shape, dtype in kinds):
                return None
            X, Drows, text = records = [np.empty(shape, dtype) for shape, dtype in kinds]
            if not all(_read_record(fh, r) for r in records) or \
                    crcs != [zlib.crc32(r) for r in records]:
                return None
        labels = None
        if text.tobytes() != _NO_LABELS:
            import json                             # ~2 ms: only for label names
            if len(labels := tuple(json.loads(text.tobytes()))) != m:
                return None
        with contextlib.suppress(OSError):
            _touch(entry)                           # now the most recently used
        return X, Drows, labels
    except Exception:
        return None


def _cache_write(entry, digest: bytes, X, Drows, labels) -> None:
    """Publish an entry atomically, through a temporary file in the cache
    directory; a cache that cannot be written is left as it was."""
    if entry is None:
        return
    if labels is not None:
        import json
    text = np.frombuffer(_NO_LABELS if labels is None else json.dumps(labels).encode(), np.uint8)
    sizes = np.array([zlib.crc32(X), zlib.crc32(Drows), zlib.crc32(text),
                      *X.shape, Drows.shape[1], len(text)], np.uint64)
    tmp = None
    try:
        entry.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".tmp", dir=entry.parent)
        with open(fd, "wb") as fh:
            for record in (np.frombuffer(digest, np.uint8), sizes, X, Drows, text):
                _write_record(fh, record)
        _touch(tmp)
        os.replace(tmp, entry)
    except OSError:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
    else:
        _cache_trim(entry.parent)


def _touch(path) -> None:
    """Set ``path``'s times to now, in nanoseconds: file systems stamp a
    write from a coarser clock, which would tie entries written in a row."""
    now = time.time_ns()
    os.utime(path, ns=(now, now))


def _cache_trim(root) -> None:
    """Remove the least recently used entries beyond ``_CACHE_ENTRIES``, and
    every ``.npz`` entry of the zip format that entries had before; an entry
    that another process removes first is passed over."""
    aged, stale = [], []
    with contextlib.suppress(OSError):
        stale = list(root.glob("*.npz"))
        for entry in root.glob("*.npys"):
            with contextlib.suppress(OSError):
                aged.append((entry.stat().st_mtime_ns, entry))
    for entry in stale + [entry for _, entry in sorted(aged)[:-_CACHE_ENTRIES]]:
        with contextlib.suppress(OSError):
            entry.unlink()


def _load_matrix_text(data: bytes):
    """Parse MatrixText bytes: the header, then exactly 2n non-blank lines,
    whose blocks go to ``_read_block``.  Raises ParseError naming the first
    bad line (and, for a bad value, its 1-based column)."""
    rows = [(lineno, line) for lineno, raw in
            enumerate(_universal_newlines(_decode(data)).split("\n"), start=1)
            if (line := raw.strip())]
    if not rows:
        raise ParseError(1, "empty file")
    lineno, header = rows[0]
    n, d, m = _parse_header(lineno, header)
    if len(rows) != 2 * n + 1:
        raise ParseError(rows[-1][0], f"expected {2 * n} data lines, found {len(rows) - 1}")
    X = _read_block(rows[1:n + 1], d, "feature value", "feature values")
    Drows = _read_block(rows[n + 1:], m, "distribution value", "distribution values")
    return X, Drows, None


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


def _read_block(rows, width, value, unit):
    """The ``(line, text)`` rows of one block as a (len(rows), width) array,
    read by numpy's C reader; rows it does not take as exactly that many
    finite values go to ``_parse_rows``, which returns the same values or
    names the bad line."""
    try:
        block = np.loadtxt([line for _, line in rows], ndmin=2, comments=None)
        if block.shape == (len(rows), width) and np.isfinite(block).all():
            return block
    except ValueError:
        pass
    return _parse_rows([(lineno, line.split()) for lineno, line in rows], width, value, unit)


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
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


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


def _load_csv(data: bytes):
    reader = csv.reader(io.StringIO(_decode(data), newline=""))
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
    return (np.ascontiguousarray(values[:, :d]), np.ascontiguousarray(values[:, d:]),
            tuple(names[d:]))


def write_rows(fh, A, fmt: str, sep: str = " ", newline: str = "\n") -> None:
    """Write the rows of the 2-D array ``A`` to the text file ``fh`` as
    ``sep``-separated ``fmt`` values, each row ending in ``newline``; the
    defaults give the bytes ``np.savetxt(fh, A, fmt=fmt)`` writes.  Each block
    of ``_WRITE_ROWS`` rows is one ``%`` over its values as Python scalars,
    which format faster than numpy's."""
    line = sep.join([fmt] * A.shape[1]) + newline
    for start in range(0, len(A), _WRITE_ROWS):
        rows = A[start:start + _WRITE_ROWS]
        fh.write(line * len(rows) % tuple(rows.ravel().tolist()))


def save_dataset(ds: Dataset, path) -> None:
    """Write a dataset; both formats use 17 significant digits (lossless)."""
    path = Path(path)
    X = ds.X.data
    Drows = ds.D.data.T
    if not _is_csv(path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{ds.n} {ds.d} {ds.m}\n")
            write_rows(fh, X, "%.17g")
            write_rows(fh, Drows, "%.17g")
    else:
        labels = ds.label_names or tuple(f"y{j + 1}" for j in range(ds.m))
        with open(path, "w", encoding="utf-8", newline="") as fh:
            csv.writer(fh).writerow([f"f{j + 1}" for j in range(ds.d)] + list(labels))
            write_rows(fh, np.hstack([X, Drows]), "%.17g", ",", "\r\n")


def _rng(seed: int) -> np.random.Generator:
    """numpy's generator for ``seed``; a seed numpy rejects is a ValueError
    that names it."""
    try:
        return np.random.default_rng(seed)
    except ValueError:
        raise ValueError(f"seed must be a nonnegative integer, got {seed}") from None


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
    rng = _rng(seed)
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
    rng = _rng(seed)
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
