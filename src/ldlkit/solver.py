"""Joint low-rank solver for label-distribution regression.

The full variant fits a linear regressor W on the label distributions while an
auxiliary multi-label task ties the labels together: the degraded binary
matrix L is reconstructed from the true distributions through an
instance-mixing matrix O, and the predicted multi-label matrix W X' O is
pushed toward low rank through a nuclear-norm penalty.  Splitting that penalty
onto an auxiliary variable G (constrained to equal W X' O) yields alternating
closed-form updates plus a singular-value-thresholding step:

    minimize_{W,O,G}  1/2 ||W X' - D||_F^2 + ||D O - L||_F^2 + alpha ||G||_*
                      + lam (||W||_F^2 + ||O||_F^2)
    subject to        W X' O = G.

Each step reduces to a 2m x 2m system, so no n x n or d x d system is formed
(see ``_lockstep``).  The coupling penalty's schedule belongs to the solver,
not the model.  Nothing is randomized, and numpy suffices.  The loop runs on
X's range: W's part in X's null space only adds to lam ||W||^2, so the
minimizer has none, and no step divides that part's round-off by 2 lam.  A
command's fits (each training split with its runs) go through one call, which
stacks the runs of one variant and shape and takes each step once for the
stack.  The loop, ``_lockstep.admm``, returns each run's result, or raises; a
stack that fails is fit again one run at a time.  It is imported on a
process's first stack: a command that fits none (predict, evaluate, degrade,
an ablation-b train) never compiles it.

The public ``svt``, ``update_w`` and ``update_o`` are single dense steps at a
given O, outside the loop: the tests build the loop's dense reference from them.

Ablation variants: ``ablation-a`` is the same loop with O held at the
identity and no O-step, so the nuclear norm falls on the prediction W X'
itself (no auxiliary task); ``ablation-b`` is plain ridge regression.
"""
from __future__ import annotations

import functools
import zipfile
from typing import List, Optional, Union

import numpy as np

from .degrade import degrade
from .errors import LdlError, ShapeMismatch, SingularSystem, SvdFailure
from .types import (
    FeatureMatrix,
    Hyperparams,
    LabelDistributionMatrix,
    LdlModel,
    Record,
    Standardizer,
    Variant,
    parse_degradation,
    validate_distribution_matrix,
)

MODEL_FORMAT_VERSION = 1

MU0 = 0.1
MU_MAX = 1e6
MU_GROWTH = 1.1
_QR_ROWS = 512          # rows per block of the instance basis's QR, from 2 blocks up
_STACK_BYTES = 1 << 23  # bytes of the runs' inputs (D, L, s, XV, DXV) one stack copies
_HELD_BYTES = 1 << 20   # bytes of those inputs held across splits before their stacks are fit


class FitResult(Record):
    """A fit's model, the iterations run, the last relative primal residual,
    the objective per iteration, whether residual and W change met ``tol``,
    and why the fit stopped: ``"converged"`` or ``"max_iters"`` (ablation-b's
    solve is ``"converged"``).  ``fit`` (and so ``train``) records the
    objective; the fits of ``cv``, ``ablate`` and ``sweep`` record none and
    carry ``objective_trace=[]``."""

    model: LdlModel
    iterations_run: int
    final_primal_residual: float
    objective_trace: List[float]
    converged: bool
    stop_reason: str


def svt(A: np.ndarray, tau) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum by ``tau``.

    Returns U max(S - tau, 0) V' for the thin SVD A = U S V', which is the
    proximal operator of ``tau * nuclear norm`` at A.  A may be a stack of
    matrices, with a tau each.  A matrix's result is exact zeros, and no SVD
    is taken, when the largest row sum of |A A'| (|A'A| if smaller) is below
    tau^2 (1 - 1e-8): by Gershgorin, sigma_max(A) < tau.  The margin covers
    round-off below 1e7 entries and underflow at tau > 1e-140.
    """
    tau = np.asarray(tau, dtype=np.float64)
    if not (tau >= 0).all():
        raise ValueError(f"tau must be nonnegative, got {tau}")
    return _svt(np.asarray(A, dtype=np.float64), tau)


def _svt(A: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """:func:`svt` of float A at nonnegative float tau, unchecked."""
    (rows, cols), zero = A.shape[-2:], False
    if rows * cols < 1e7:
        At = A.swapaxes(-1, -2)
        B = A @ At if rows <= cols else At @ A
        # the bound's test, where tau > 1e-140 (else 0, which no row sum is below)
        zero = (np.abs(B).sum(axis=-1).max(axis=-1, initial=0.0)
                < tau * tau * (1 - 1e-8) * (tau > 1e-140))
    count = np.count_nonzero(zero)
    if count == np.size(zero):
        return np.zeros(A.shape)
    some, svd = count > 0, ~zero
    try:
        U, s, Vt = np.linalg.svd(A[svd] if some else A, full_matrices=False)
        if not np.isfinite(s).all():        # numpy's answer to an inf entry: NaN factors
            raise np.linalg.LinAlgError("non-finite singular values")
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {(rows, cols)} matrix") from exc
    s = np.maximum(s - (tau[svd] if some else tau)[..., np.newaxis], 0.0)
    G = (U * s[..., np.newaxis, :]) @ Vt
    if not some:
        return G
    out = np.zeros(A.shape)
    out[svd] = G
    return out


def _norm(x) -> np.float64:
    """np.linalg.norm(x) of a float array without its dispatch: the same dot."""
    return np.sqrt(x.ravel("K").dot(x.ravel("K")))


def _eigh_psd(M: np.ndarray):
    """Eigenvalues s (clipped at 0) and eigenvectors V of symmetric positive
    semi-definite M, so that (M + 2 lam I)^-1 = V diag(1 / (s + 2 lam)) V'."""
    if not np.isfinite(M).all():
        raise ValueError("W-step system has non-finite entries")
    s, V = np.linalg.eigh(M)
    return np.maximum(s, 0.0), V


def _rank_floor(s: np.ndarray) -> float:
    """numpy's matrix_rank tolerance s.max() d eps, for ascending s."""
    return s[-1] * len(s) * np.finfo(s.dtype).eps


def _check_rank(s: np.ndarray, lam: float) -> None:
    """At lam = 0, the W-step's ascending s must lie above :func:`_rank_floor`."""
    if lam == 0.0 and s[0] <= _rank_floor(s):
        raise SingularSystem("W-step system is rank-deficient; a positive lambda is required")


def _check_o_rank(D, lam: float) -> None:
    """At lam = 0 the O-step needs exactly 2m instances (D's columns): U C U'
    (n x n) has rank <= 2m, and C U'U rank <= n."""
    if lam == 0.0 and D.shape[1] != 2 * len(D):
        raise SingularSystem("O-step system is rank-deficient; a positive lambda is required")


def update_w(
    X: np.ndarray,
    D: np.ndarray,
    O: np.ndarray,
    G: np.ndarray,
    multipliers: np.ndarray,
    penalty: float,
    lam: float,
) -> np.ndarray:
    """Regressor step: exact stationary point of the W subproblem.

    With mu the coupling penalty, W minimizes
    1/2 ||W X' - D||^2 + lam ||W||^2 + mu/2 ||G - W X' O - multipliers/mu||^2:

        W = (D X + (mu G - multipliers) O' X)
            (X' X + mu X' O O' X + 2 lam I)^-1.
    """
    XO = X.T @ O                      # (d, n)
    M = X.T @ X + penalty * (XO @ XO.T)
    rhs = D @ X + (penalty * G - multipliers) @ XO.T
    if not np.isfinite(rhs).all():
        raise ValueError("W-step system has non-finite entries")
    s, V = _eigh_psd(M)
    _check_rank(s, lam)
    return (V @ ((V.T @ rhs.T) / (s + 2.0 * lam)[:, np.newaxis])).T


def update_o(
    X: np.ndarray,
    W: np.ndarray,
    D: np.ndarray,
    L: np.ndarray,
    G: np.ndarray,
    multipliers: np.ndarray,
    penalty: float,
    lam: float,
) -> np.ndarray:
    """Mapping step: exact stationary point of the O subproblem.

    With P = W X' and mu the coupling penalty, O minimizes
    ||D O - L||^2 + lam ||O||^2 + mu/2 ||G - P O - multipliers/mu||^2:

        O = (2 D'D + mu P'P + 2 lam I)^-1 (2 D'L + P'(mu G - multipliers)),

    computed through its factors as in the loop (see ``_lockstep``).
    """
    _check_o_rank(D, lam)
    m, Q = len(D), np.vstack([D, W @ X.T])
    c = np.repeat([2.0, penalty], m)[:, np.newaxis]
    try:
        K = np.linalg.solve(c * (Q @ Q.T) + 2.0 * lam * np.eye(2 * m),
                            np.vstack([2.0 * L, penalty * G - multipliers]))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("O-step system is numerically singular") from exc
    return Q.T @ K


def _ridge(gram, DX, lam: float, eigen):
    """Ridge regression W = D X (X'X + 2 lam I)^-1 (ablation-b), from the Gram
    X'X and DX = D X: one solve, or the ridge start in X'X's eigenbasis
    ``eigen()`` at lam = 0 (whose rank check names a singular X'X) and where
    lam is too small to lift X'X's null space in floating point."""
    if lam > 0.0:
        try:
            return np.linalg.solve(gram + 2.0 * lam * np.eye(len(gram)), DX.T).T
        except np.linalg.LinAlgError:
            pass
    s, V = eigen()
    _check_rank(s, lam)
    return ((DX @ V) / (s + 2.0 * lam)) @ V.T


def _instance_basis(X, D, L):
    """X, D and L (if given) as the column blocks of R in the thin QR
    [X, D', L'] = Q R when its width b is below n, else as they are.  The loop
    only contracts over instances, and R'R = [X, D', L']'[X, D', L'].  From
    n = 2 ``_QR_ROWS`` on, while b is at most ``_QR_ROWS`` / 4, R is that of
    the stacked R's of row blocks of ``_QR_ROWS`` instances (TSQR: Demmel et
    al., SIAM J. Sci. Comput. 2012), so no n-row copy is formed; a wider block
    has an R nearly as tall as itself, and the stacked QR would redo the work.
    R'R is the same up to round-off, and R's leading d x d block is still an R
    of X, whose SVD gives X's spectrum."""
    (n, d), m = X.shape, D.shape[0]
    columns = [X, D.T] if L is None else [X, D.T, L.T]
    b = sum(C.shape[1] for C in columns)
    if b >= n:
        return X, D, L
    if n < 2 * _QR_ROWS or b > _QR_ROWS // 4:
        R = np.linalg.qr(np.hstack(columns), mode="r")
    else:
        R = np.linalg.qr(np.vstack([
            np.linalg.qr(np.hstack([C[i:i + _QR_ROWS] for C in columns]), mode="r")
            for i in range(0, n, _QR_ROWS)]), mode="r")
    return R[:, :d], R[:, d:d + m].T, None if L is None else R[:, d + m:].T


def fit(
    X,
    D,
    hp: Optional[Hyperparams] = None,
    variant: Union[Variant, str] = Variant.FULL,
    standardize_features: bool = True,
    add_bias: bool = True,
) -> FitResult:
    """Train a label-distribution model.

    Parameters
    ----------
    X : FeatureMatrix or (n, d) array
    D : LabelDistributionMatrix or (m, n) array
    hp : Hyperparams, defaults to ``Hyperparams()``
    variant : "full", "ablation-a" or "ablation-b"
    standardize_features : z-score features before fitting (recorded on the model)
    add_bias : append a constant-1 feature column (recorded on the model)

    Non-convergence within ``hp.max_iters`` is not an error; the result simply
    carries ``converged=False`` and ``stop_reason="max_iters"``.  This is the
    one-run plan of :func:`_fit_split` on all instances.
    """
    return _fit_split(X, D, [(slice(None), [(variant, hp or Hyperparams())])],
                      standardize_features, add_bias)[0]


def _fit_split(X, D, plan, standardize_features: bool = True, add_bias: bool = True,
               trace: bool = True) -> List[FitResult]:
    """:func:`fit` for each ``(train, runs)`` pair of ``plan``: each (variant,
    hp) of ``runs`` on X's rows and D's columns ``train`` (an index array or a
    slice), bit for bit and in plan order, but with an empty ``objective_trace``
    when ``trace`` is off.  A split's design, Gram X'X, L per degradation and
    instance basis are taken once, and X'X's eigendecomposition at most once,
    on first use.  Its full and ablation-a runs are held with their bases
    until the held runs' inputs reach ``_HELD_BYTES``, and then fit as stacks,
    across splits, one ``_lockstep.admm`` per variant and shape and up to
    ``_STACK_BYTES`` of inputs (or one run).  ``admm`` returns each run's
    result, or raises, and a stack of several that raises is fit again one run
    per stack.  The first error in plan order is raised, as one run at a time
    would."""
    if not isinstance(X, FeatureMatrix):
        X = FeatureMatrix(X)
    D = validate_distribution_matrix(D)
    if X.n != D.n:
        raise ShapeMismatch(
            f"feature matrix has {X.n} instances but distribution matrix has {D.n}"
        )
    results, stacks, held = [], {}, 0

    def fit_stacks():
        """Fit the held runs and let their bases go."""
        from ._lockstep import admm
        for group in stacks.values():
            size = max(1, _STACK_BYTES // group[0][0])
            chunks = [group[start:start + size] for start in range(0, len(group), size)]
            for chunk in chunks:                # a failed stack's runs join the list one by one
                try:
                    fitted = admm([entry[-1] for entry in chunk], trace)
                except LdlError as exc:
                    if len(chunk) > 1:
                        chunks += [[entry] for entry in chunk]
                    else:
                        results[chunk[0][1]] = exc
                    continue
                for (_, index, model, _), res in zip(chunk, fitted):
                    results[index] = FitResult(LdlModel(res[0], *model, add_bias), *res[1:])
        stacks.clear()

    for train, runs in plan:
        Xs, Ds = X.data[train], D.data[:, train]
        try:
            scaler = None
            if standardize_features:
                # Standardizer names the feature; then X.std(axis=0)'s reductions on mean
                with np.errstate(over="ignore", invalid="ignore"):
                    mean = Xs.mean(axis=0)
                    dev = Xs - mean
                    std = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=0) / len(Xs))
                    del dev
                    scaler = Standardizer(mean=mean, std=std)
            Xw = _design(Xs, scaler, add_bias)
            with np.errstate(over="ignore", invalid="ignore"):   # the check below names the feature
                gram = Xw.T @ Xw
            bad = np.flatnonzero(~np.isfinite(np.diagonal(gram)))
            if bad.size:
                raise ValueError(f"feature column {bad[0] + 1} overflows X'X: "
                                 f"its sum of squares is {gram[bad[0], bad[0]]}")
        except (LdlError, ValueError) as exc:
            results += [exc] * len(runs)
            continue
        eigen = functools.cache(lambda gram=gram: _eigh_psd(gram))
        bases = {}
        for variant, hp in runs:
            try:
                variant = Variant(variant)
                if variant is Variant.ABLATION_B:
                    W = _ridge(gram, Ds @ Xw, hp.lam, eigen)
                    objective = [float(0.5 * _norm(W @ Xw.T - Ds) ** 2
                                       + hp.lam * _norm(W) ** 2)] if trace else []
                    results.append(FitResult(LdlModel(W, variant, hp, scaler, add_bias),
                                             0, 0.0, objective, True, "converged"))
                    continue
                key = (variant, hp.degradation if variant is Variant.FULL else None)
                if key not in bases:
                    L = degrade(Ds, hp.degradation).data if variant is Variant.FULL else None
                    Xb, Db, Lb = _instance_basis(Xw, Ds, L)
                    s, V = eigen()
                    k = np.count_nonzero(s <= _rank_floor(s))    # s ascends: X's null space first
                    s, V = s[k:], V[:, k:]                        # at k = 0, the same arrays' views
                    bases[key] = Db, Lb, (s, V, Xb @ V, (Db @ Xb) @ V)
                _check_rank(eigen()[0], hp.lam)
                Db, Lb, spectrum = bases[key]
                if Lb is not None:
                    _check_o_rank(Db, hp.lam)
                size = sum(x.nbytes for x in (Db, Db, spectrum[0], *spectrum[2:]))
                stacks.setdefault((variant, Db.shape, spectrum[2].shape), []).append(
                    (size, len(results), (variant, hp, scaler), (Db, Lb, hp, spectrum)))
                results.append(None)
                held += size
            except (LdlError, ValueError) as exc:
                results.append(exc)
        del Xs, Xw, gram, eigen                   # the held splits keep only their bases
        if held >= _HELD_BYTES:
            fit_stacks()
            held = 0
    if stacks:                              # none held: the loop is not imported
        fit_stacks()
    for res in results:
        if isinstance(res, Exception):
            raise res
    return results


def _design(X, scaler: Optional[Standardizer], bias: bool) -> np.ndarray:
    """Features as a model's W sees them: z-scored by ``scaler`` (if any),
    then with a constant-1 column appended when ``bias``, in one array."""
    if not bias:
        return X if scaler is None else scaler.transform(X)
    out = np.empty((len(X), X.shape[1] + 1))
    if scaler is None:
        out[:, :-1] = X
    else:
        scaler.transform(X, out=out[:, :-1])
    out[:, -1] = 1.0
    return out


def predict(model: LdlModel, x) -> np.ndarray:
    """Predict label distributions for one instance (d,) or a batch (n, d).

    The raw linear scores are projected onto the simplex by clamping negative
    entries to zero and renormalizing; an all-nonpositive score vector falls
    back to the uniform distribution.
    """
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    X = x[np.newaxis, :] if single else x
    if X.ndim != 2 or X.shape[1] != model.d_in:
        raise ShapeMismatch(
            f"expected feature dimension {model.d_in}, got shape {x.shape}"
        )
    if not np.all(np.isfinite(X)):
        raise ValueError("features contain non-finite entries")
    raw = model.W @ _design(X, model.standardizer, model.bias).T  # (m, batch)
    raw = np.maximum(raw, 0.0)
    totals = raw.sum(axis=0)
    flat = totals <= 0.0
    if np.any(flat):
        raw[:, flat] = 1.0
        totals = raw.sum(axis=0)
    out = raw / totals
    return out[:, 0] if single else out


def save_model(model: LdlModel, path) -> None:
    """Serialize a model to a versioned binary container (bit-exact W)."""
    hp = model.hyperparams
    arrays = {
        "format_version": np.int64(MODEL_FORMAT_VERSION),
        "W": model.W,
        "variant": np.str_(model.variant.value),
        "bias": np.bool_(model.bias),
        "has_standardizer": np.bool_(model.standardizer is not None),
    }
    for name in Hyperparams._fields:
        value = getattr(hp, name)
        arrays[name] = np.str_(str(value)) if name == "degradation" else np.asarray(value)
    if model.standardizer is not None:
        arrays["feature_mean"] = model.standardizer.mean
        arrays["feature_std"] = model.standardizer.std
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


# What numpy and zipfile raise for a damaged archive or member: a bad CRC,
# header or record, a cut-off file, or a flag for an unsupported zip version,
# compression method or encryption.
_DAMAGED_ZIP = (ValueError, EOFError, NotImplementedError, RuntimeError, zipfile.BadZipFile)


def load_model(path) -> LdlModel:
    """Load a model written by :func:`save_model`.

    Errors name the file: ValueError for a file that is not such a model, or
    whose entries are missing, unreadable or invalid; ShapeMismatch for a W
    whose width disagrees with the standardizer and the bias flag.
    """
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
        except _DAMAGED_ZIP:
            archive = None
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise ValueError(f"{path} is not an ldlkit model file")
        try:
            with archive as z:
                return _model_from_archive(z)
        except (ValueError, ShapeMismatch) as exc:
            exc.args = (f"{path}: {exc}",)
            raise


def _model_from_archive(z) -> LdlModel:
    """The model in an open archive; its errors leave the file name to the caller."""
    def entry(key):
        if key not in z:
            raise ValueError(f"model file has no {key!r} entry")
        try:
            return z[key]
        except _DAMAGED_ZIP as exc:
            raise ValueError(f"model entry {key!r} cannot be read: {exc}") from None

    def scalar(key, kind=object):
        value = entry(key)
        if value.size != 1:
            raise ValueError(f"model entry {key!r} holds {value.size} values, not 1")
        item = value.item()
        if not isinstance(item, kind) or (kind is int and isinstance(item, bool)):
            article = "an" if kind is int else "a"
            raise ValueError(f"model entry {key!r} must be {article} {kind.__name__}, got {item!r}")
        return item

    version = scalar("format_version", int)
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    hp = Hyperparams(**{
        name: parse_degradation(str(scalar(name))) if name == "degradation" else scalar(name)
        for name in Hyperparams._fields
    })
    scaler = None
    if scalar("has_standardizer", bool):
        scaler = Standardizer(mean=entry("feature_mean"), std=entry("feature_std"))
    return LdlModel(
        W=entry("W"),
        variant=Variant(str(scalar("variant"))),
        hyperparams=hp,
        standardizer=scaler,
        bias=scalar("bias", bool),
    )
