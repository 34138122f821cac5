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
(see ``_o_steps`` and ``_w_steps``).  The coupling penalty's schedule belongs
to the solver, not the model.  Nothing is randomized, and numpy suffices.  The
loop runs on X's range: W's part in X's null space only adds to lam ||W||^2,
so the minimizer has none, and no step divides that part's round-off by 2 lam.

The public ``svt``, ``update_w`` and ``update_o`` are single dense steps at a
given O, outside the loop: the tests build the loop's dense reference from them.

Ablation variants: ``ablation-a`` is the same loop with O held at the
identity and no O-step, so the nuclear norm falls on the prediction W X'
itself (no auxiliary task); ``ablation-b`` is plain ridge regression.
"""
from __future__ import annotations

import functools
import math
import zipfile
from typing import List, Optional, Union

import numpy as np

from .degrade import degrade
from .errors import NonFiniteIterate, ShapeMismatch, SingularSystem, SvdFailure
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
_TRACE_BATCH = 32       # iterations whose objective spectra one stacked SVD takes
_QR_ROWS = 512          # rows per block of the instance basis's QR, from 2 blocks up


class FitResult(Record):
    """A fit's model, the iterations run, the last relative primal residual,
    the objective per iteration, and whether residual and W change met ``tol``.
    ``fit`` (and so ``train``) records the objective; the fits of ``cv``,
    ``ablate`` and ``sweep`` record none and carry ``objective_trace=[]``."""

    model: LdlModel
    iterations_run: int
    final_primal_residual: float
    objective_trace: List[float]
    converged: bool


def svt(A: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum by ``tau``.

    Returns U max(S - tau, 0) V' for the thin SVD A = U S V', which is the
    proximal operator of ``tau * nuclear norm`` at A.  It is exact zeros, and
    no SVD is taken, when the largest row sum of |A A'| (|A'A| if smaller) is
    below tau^2 (1 - 1e-8): by Gershgorin, sigma_max(A) < tau.  The margin
    covers round-off below 1e7 entries and underflow at tau > 1e-140.
    """
    if not tau >= 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    A = np.asarray(A, dtype=np.float64)
    if A.ndim == 2 and A.size < 1e7 and tau > 1e-140:
        B = A @ A.T if len(A) <= A.shape[1] else A.T @ A
        if np.abs(B).sum(axis=1).max(initial=0.0) < tau * tau * (1 - 1e-8):
            return np.zeros(A.shape)
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
        if not np.isfinite(s).all():        # numpy's answer to an inf entry: NaN factors
            raise np.linalg.LinAlgError("non-finite singular values")
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {A.shape} matrix") from exc
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt


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


def _o_steps(D, L, lam: float):
    """The O-step of one fit, checked for rank and with its buffers made once:
    it maps P = W X', Gm = mu G - multipliers and mu to the Gram U'U and the
    factor K of the O-step minimizer O = U K, where U' = Q = [D; P].  With
    C = diag(c) = diag(2 I_m, mu I_m), the O-step matrix is U C U' + 2 lam I,
    and the push-through identity gives K = (2 lam I + C U'U)^-1 [2 L; Gm].
    The inverse comes from one solve for 2m right-hand sides, not n': its
    forward error has an LU solve's bound (Higham 2002, sec. 14.1), and at
    ``MU_MAX`` (cond up to 1e10) it was within a factor 1.33 of the solve's.
    """
    m, n = D.shape
    if lam == 0.0 and n != 2 * m:      # U C U' (n x n) has rank <= 2m, C U'U rank <= n
        raise SingularSystem("O-step system is rank-deficient; a positive lambda is required")
    Q, rhs, c = np.empty((2 * m, n)), np.empty((2 * m, L.shape[1])), np.full(2 * m, 2.0)
    eye = np.eye(2 * m)
    Q[:m], rhs[:m], ridge = D, 2.0 * L, 2.0 * lam * eye

    def step(P, Gm, penalty: float):
        Q[m:], rhs[m:], c[m:] = P, Gm, penalty
        UtU = Q @ Q.T                                       # (2m, 2m)
        try:
            return UtU, np.linalg.solve(c[:, np.newaxis] * UtU + ridge, eye) @ rhs
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("O-step system is numerically singular") from exc

    return step


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

    computed through its factors (see :func:`_o_steps`).
    """
    P = W @ X.T
    _, K = _o_steps(D, L, lam)(P, penalty * G - multipliers, penalty)
    return np.vstack([D, P]).T @ K


def _trace(alpha: float, terms) -> List[float]:
    """The objective at each iteration of ``terms``: (1/2 ||P - D||^2, N,
    lam ||W||^2, ||D O - L||^2 + lam ||O||^2) at P = W X', where N has P O's
    singular values.  One stacked value-only SVD takes every N's spectrum."""
    spectra = np.linalg.svd(np.stack([N for _, N, _, _ in terms]), compute_uv=False)
    return [float(f + alpha * s.sum() + w + o) for (f, _, w, o), s in zip(terms, spectra)]


def _w_steps(spectrum, lam: float):
    """The ridge start Wv = W V and the W-step of one fit, on X's range:
    ``spectrum`` holds the eigenpairs s, V of X'X on that range (every s above
    the rank floor), XV = X V and DXV = (D X) V, and there A = X'X + 2 lam I
    is diag(a), a = s + 2 lam > 0.

    The step maps Wv to the next Wv, and is diagonal while O = I.  Once
    O = U K with U = [D' P'] and P = Wv XV', XV'U is [DXV', s Wv'] because
    XV'XV = diag(s), and mu (X'O)(X'O)' is F F' with F = sqrt(mu) XV'U R' for
    the thin QR K' = Q R (not K K', whose entries can be far larger than U K's
    at small lam).  The push-through (Woodbury) identity

        (A + F F')^-1 rhs' = Z - Y (I + F'Y)^-1 F'Z,   Y = A^-1 F, Z = A^-1 rhs',

    leaves one symmetric 2m x 2m system, solved for m right-hand sides.
    """
    s, _, XV, DXV = spectrum
    a = s + 2.0 * lam                                       # eigenvalues of A
    m = len(DXV)
    UtXV = np.vstack([DXV, DXV])            # U'XV = [DXV; Wv s]; each step fills Wv s
    eye, a_col = np.eye(min(len(XV), 2 * m)), a[:, np.newaxis]   # R has min(rows, 2m) rows

    def step(Wv, K, R, Gm, penalty: float) -> np.ndarray:
        """The next Wv, from Gm = mu G - multipliers and the last O-step's K and R."""
        if K is None:
            return (DXV + Gm @ XV) / (a + penalty * s)
        np.multiply(Wv, s, out=UtXV[m:])
        Z = (DXV + (Gm @ K.T) @ UtXV) / a
        F = math.sqrt(penalty) * UtXV.T @ R.T
        Y = F / a_col
        core = eye + F.T @ Y                                # symmetric
        try:
            return Z - np.linalg.solve(core, (Z @ F).T).T @ Y.T
        except np.linalg.LinAlgError as exc:
            raise SingularSystem("W-step system is numerically singular") from exc

    return DXV / a, step


def _admm(D, L, hp: Hyperparams, spectrum, trace: bool = True):
    """The splitting loop on Wv = W V (see :func:`_w_steps`), P = W X' and
    PO = P O, with O = I and no O-step for ablation-a (L None).  T = U'U K holds
    D O and P O, <T, K> is ||O||^2, and N = (P U) R' has P O's singular values:
    one stacked SVD per ``_TRACE_BATCH`` iterations takes them if ``trace``.
    Raises NonFiniteIterate, naming alpha and lambda, at the first non-finite
    primal residual or W change.  Returns W, the iterations run, the last
    primal residual, the trace ([] with ``trace`` off) and converged."""
    _, V, XV, _ = spectrum
    Wv, w_step = _w_steps(spectrum, hp.lam)
    o_step = None if L is None else _o_steps(D, L, hp.lam)
    m = D.shape[0]
    upper = np.triu(np.ones((min(D.shape[1], 2 * m), 2 * m), bool))  # triu mask, once per fit
    PO = Wv @ XV.T
    K = R = None
    multipliers, penalty, objective, terms = np.zeros(D.shape), MU0, [], []
    # An overflowing iterate is reported once, as NonFiniteIterate, not as
    # numpy warnings from the steps before the check.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, hp.max_iters + 1):
            G = svt(PO + multipliers / penalty, hp.alpha / penalty)
            Gm = penalty * G - multipliers
            Wv_new = w_step(Wv, K, R, Gm, penalty)
            w_change = _norm(Wv_new - Wv) / max(1.0, _norm(Wv))
            Wv = Wv_new
            P = PO = Wv @ XV.T
            if o_step is not None:
                UtU, K = o_step(P, Gm, penalty)
                raw = np.linalg.qr(K.T, mode="raw")[0].T       # R above the reflectors
                R, T = np.where(upper, raw[:len(upper)], 0.0), UtU @ K
                PO = T[m:]
            residual = G - PO
            primal = float(_norm(residual) / max(1.0, _norm(G)))
            if not (np.isfinite(primal) and np.isfinite(w_change)):
                raise NonFiniteIterate(f"iterate is not finite at iteration {it} (relative"
                                       f" primal residual {primal:g}, W change {w_change:g})"
                                       f" at alpha={hp.alpha:g} lambda={hp.lam:g}")
            multipliers = multipliers - penalty * residual
            penalty = min(MU_GROWTH * penalty, MU_MAX)
            converged = bool(primal <= hp.tol and w_change <= hp.tol)
            if trace:
                N, o_terms = (P, 0.0) if K is None else (
                    UtU[m:] @ R.T, _norm(T[:m] - L) ** 2 + hp.lam * (T * K).sum())
                terms.append((0.5 * _norm(P - D) ** 2, N, hp.lam * _norm(Wv) ** 2, o_terms))
                if converged or it == hp.max_iters or len(terms) == _TRACE_BATCH:
                    objective, terms = objective + _trace(hp.alpha, terms), []
            if converged:
                break
    return Wv @ V.T, it, primal, objective, converged


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
    carries ``converged=False``.
    """
    return _fit_split(X, D, [(variant, hp or Hyperparams())],
                      standardize_features, add_bias)[0]


def _fit_split(X, D, runs, standardize_features: bool = True,
               add_bias: bool = True, trace: bool = True) -> List[FitResult]:
    """:func:`fit` for each (variant, hp) of ``runs`` on one X and D, bit for
    bit, but with an empty ``objective_trace`` when ``trace`` is off.  The
    design, its Gram X'X, L per degradation and the instance basis are taken
    once, and X'X's eigendecomposition at most once, on first use."""
    if not isinstance(X, FeatureMatrix):
        X = FeatureMatrix(X)
    D = validate_distribution_matrix(D)
    if X.n != D.n:
        raise ShapeMismatch(
            f"feature matrix has {X.n} instances but distribution matrix has {D.n}"
        )
    scaler = None
    if standardize_features:
        with np.errstate(over="ignore", invalid="ignore"):   # Standardizer names the feature
            mean = X.data.mean(axis=0)               # then X.std(axis=0)'s reductions on it
            dev = X.data - mean
            std = np.sqrt(np.add.reduce(np.square(dev, out=dev), axis=0) / X.n)
            scaler = Standardizer(mean=mean, std=std)
    Xw, Dw = _design(X.data, scaler, add_bias), D.data
    with np.errstate(over="ignore", invalid="ignore"):   # the check below names the feature
        gram = Xw.T @ Xw
    bad = np.flatnonzero(~np.isfinite(np.diagonal(gram)))
    if bad.size:
        raise ValueError(f"feature column {bad[0] + 1} overflows X'X: "
                         f"its sum of squares is {gram[bad[0], bad[0]]}")
    eigen = functools.cache(lambda: _eigh_psd(gram))
    bases, results = {}, []
    for variant, hp in runs:
        variant = Variant(variant)
        if variant is Variant.ABLATION_B:
            W = _ridge(gram, Dw @ Xw, hp.lam, eigen)
            iterations, primal, converged, objective = 0, 0.0, True, []
            if trace:
                objective = [float(0.5 * _norm(W @ Xw.T - Dw) ** 2 + hp.lam * _norm(W) ** 2)]
        else:
            key = (variant, hp.degradation if variant is Variant.FULL else None)
            if key not in bases:
                L = degrade(D, hp.degradation).data if variant is Variant.FULL else None
                Xb, Db, Lb = _instance_basis(Xw, Dw, L)
                s, V = eigen()
                k = np.count_nonzero(s <= _rank_floor(s))    # s ascends: X's null space first
                s, V = s[k:], V[:, k:]                        # at k = 0, the same arrays' views
                bases[key] = Db, Lb, (s, V, Xb @ V, (Db @ Xb) @ V)
            _check_rank(eigen()[0], hp.lam)
            Db, Lb, spectrum = bases[key]
            W, iterations, primal, objective, converged = _admm(Db, Lb, hp, spectrum, trace)
        model = LdlModel(W=W, variant=variant, hyperparams=hp,
                         standardizer=scaler, bias=add_bias)
        results.append(FitResult(model, iterations, primal, objective, converged))
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
