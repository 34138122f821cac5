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

All subproblems are solved exactly (no explicit inverses), the coupling
penalty grows geometrically up to ``mu_max``, and the stopping rule combines
the relative constraint residual with the relative change of W; a non-finite
iterate raises ``NonFiniteIterate``.  Nothing is randomized.

The O-step matrix is 2 lam I plus a rank-<=2m term, so its minimizer is
exactly O = U K with U = [D' P'] (n x 2m) and K from a 2m x 2m solve; ``fit``
never builds an n x n array.  The W-step matrix is X'X + 2 lam I plus a
rank-<=2m term too, and the loop runs in the eigenbasis V of X'X, taken once
per fit: it carries W V, so each W-step is a diagonal or 2m x 2m solve, no
iteration takes a d x d product, and W is rotated back once.  numpy suffices.

The public ``svt``, ``update_w`` and ``update_o`` are single dense steps at a
given O, outside the loop: the tests build the loop's dense reference from them.

Ablation variants: ``ablation-a`` is the same loop with O held at the
identity and no O-step, so the nuclear norm falls on the prediction W X'
itself (no auxiliary task); ``ablation-b`` is plain ridge regression.
"""
from __future__ import annotations

import zipfile
from dataclasses import dataclass, fields
from typing import List, Optional, Union

import numpy as np

from .degrade import degrade
from .errors import NonFiniteIterate, ShapeMismatch, SingularSystem, SvdFailure
from .types import (
    FeatureMatrix,
    Hyperparams,
    LabelDistributionMatrix,
    LdlModel,
    Standardizer,
    Variant,
    parse_degradation,
    validate_distribution_matrix,
)

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class FitResult:
    model: LdlModel
    iterations_run: int
    final_primal_residual: float
    objective_trace: List[float]
    converged: bool


def svt(A: np.ndarray, tau: float) -> np.ndarray:
    """Singular value thresholding: soft-threshold the spectrum by ``tau``.

    Returns U max(S - tau, 0) V' for the thin SVD A = U S V', which is the
    proximal operator of ``tau * nuclear norm`` at A.
    """
    if tau < 0:
        raise ValueError(f"tau must be nonnegative, got {tau}")
    A = np.asarray(A, dtype=np.float64)
    try:
        U, s, Vt = np.linalg.svd(A, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise SvdFailure(f"SVD did not converge on a {A.shape} matrix") from exc
    s = np.maximum(s - tau, 0.0)
    return (U * s) @ Vt


def _eigh_psd(M: np.ndarray, lam: float, what: str):
    """Eigenvalues s (clipped at 0) and eigenvectors V of symmetric positive
    semi-definite M, so that (M + 2 lam I)^-1 = V diag(1 / (s + 2 lam)) V'.

    With lam = 0 the system must be nonsingular: s.min() above s.max() d eps,
    numpy's matrix_rank tolerance.
    """
    if not np.isfinite(M).all():
        raise ValueError(f"{what} system has non-finite entries")
    s, V = np.linalg.eigh(M)
    if lam == 0.0 and s[0] <= s[-1] * len(s) * np.finfo(s.dtype).eps:
        raise SingularSystem(
            f"{what} system is rank-deficient; a positive lambda is required"
        )
    return np.maximum(s, 0.0), V


def _o_factors(P, D, L, G, multipliers, penalty, lam):
    """Factors U, K of the O-step minimizer O = U K, given P = W X'.

    With U = [D' P'] and C = diag(2 I_m, mu I_m), the O-step matrix is
    U C U' + 2 lam I, and the push-through identity gives
    K = (2 lam I + C U'U)^-1 [2 L; mu G - multipliers].
    """
    n, m = P.shape[1], D.shape[0]
    if lam == 0.0 and n > 2 * m:
        raise SingularSystem(
            "O-step system is rank-deficient; a positive lambda is required"
        )
    U = np.hstack([D.T, P.T])                             # (n, 2m)
    c = np.repeat([2.0, penalty], m)
    M = c[:, np.newaxis] * (U.T @ U) + 2.0 * lam * np.eye(2 * m)
    rhs = np.vstack([2.0 * L, penalty * G - multipliers])
    try:
        return U, np.linalg.solve(M, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem("O-step system is numerically singular") from exc


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
    s, V = _eigh_psd(M, lam, "W-step")
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

    computed through its factors (see :func:`_o_factors`).
    """
    U, K = _o_factors(W @ X.T, D, L, G, multipliers, penalty, lam)
    return U @ K


def _objective(W, P, N, D, alpha, lam, L=None, U=None, K=None) -> float:
    """Objective of the loop at P = W X'; N has P O's singular values (N is
    (P U) R' when O = U K), and the O terms, O = U K, apply when L is given."""
    value = (0.5 * np.linalg.norm(P - D) ** 2
             + alpha * np.linalg.svd(N, compute_uv=False).sum()
             + lam * np.linalg.norm(W) ** 2)
    if L is not None:
        sq_norm_o = (((U.T @ U) @ K) * K).sum()                # ||U K||_F^2
        value += np.linalg.norm((D @ U) @ K - L) ** 2 + lam * sq_norm_o
    return float(value)


def _w_steps(X, D, lam: float):
    """The ridge start Wv = W V, V, XV = X V and the W-step of one fit, in the
    eigenbasis of X'X = V diag(s) V', where A = X'X + 2 lam I is diag(a).

    The step maps Wv to the next Wv, and is diagonal while O = I.  Once
    O = U K, mu (X'O)(X'O)' is F F' with F = sqrt(mu) XV'U R' for the thin QR
    K' = Q R (not K K', whose entries can be far larger than U K's at small
    lam), and the push-through (Woodbury) identity

        (A + F F')^-1 rhs' = Z - Y (I + F'Y)^-1 F'Z,   Y = A^-1 F, Z = A^-1 rhs',

    leaves one symmetric 2m x 2m system, solved for m right-hand sides.
    """
    s, V = _eigh_psd(X.T @ X, lam, "W-step")
    a = s + 2.0 * lam                                       # eigenvalues of A
    XV, DXV = X @ V, (D @ X) @ V

    def step(U, K, R, G, multipliers, penalty: float) -> np.ndarray:
        if U is None:
            return (DXV + (penalty * G - multipliers) @ XV) / (a + penalty * s)
        XVU = XV.T @ U                                      # (d, 2m)
        Z = (DXV + ((penalty * G - multipliers) @ K.T) @ XVU.T) / a
        F = np.sqrt(penalty) * XVU @ R.T
        Y = F / a[:, np.newaxis]
        core = np.eye(F.shape[1]) + F.T @ Y                 # symmetric
        return Z - np.linalg.solve(core, (Z @ F).T).T @ Y.T

    return DXV / a, V, XV, step


def _admm(X, D, L, hp: Hyperparams):
    """The splitting loop on Wv = W V (see :func:`_w_steps`), P = W X' and
    PO = P O; O = U K, with R of K' = Q R for the next W-step and objective,
    or I while U, K, R are None (ablation-a: L None).  Raises NonFiniteIterate
    at the first non-finite primal residual or W change.  Returns W, the
    iterations run, the last primal residual, the trace and converged."""
    Wv, V, XV, w_step = _w_steps(X, D, hp.lam)
    PO = Wv @ XV.T
    U = K = R = None
    multipliers, penalty = np.zeros(D.shape), hp.mu0
    trace = []
    # An overflowing iterate is reported once, as NonFiniteIterate, not as
    # numpy warnings from the steps before the check.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, hp.max_iters + 1):
            G = svt(PO + multipliers / penalty, hp.alpha / penalty)
            Wv_new = w_step(U, K, R, G, multipliers, penalty)
            w_change = np.linalg.norm(Wv_new - Wv) / max(1.0, np.linalg.norm(Wv))
            Wv = Wv_new
            P = PO = N = Wv @ XV.T
            if L is not None:
                U, K = _o_factors(P, D, L, G, multipliers, penalty, hp.lam)
                R, PU = np.linalg.qr(K.T, mode="r"), P @ U
                PO, N = PU @ K, PU @ R.T
            residual = G - PO
            primal = float(np.linalg.norm(residual) / max(1.0, np.linalg.norm(G)))
            if not (np.isfinite(primal) and np.isfinite(w_change)):
                raise NonFiniteIterate(f"iterate is not finite at iteration {it} (relative"
                                       f" primal residual {primal:g}, W change {w_change:g})")
            multipliers = multipliers - penalty * residual
            penalty = min(hp.mu_growth * penalty, hp.mu_max)
            trace.append(_objective(Wv, P, N, D, hp.alpha, hp.lam, L, U, K))
            if primal <= hp.tol and w_change <= hp.tol:
                return Wv @ V.T, it, primal, trace, True
    return Wv @ V.T, hp.max_iters, primal, trace, False


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
    if not isinstance(X, FeatureMatrix):
        X = FeatureMatrix(X)
    D = validate_distribution_matrix(D)
    if X.n != D.n:
        raise ShapeMismatch(
            f"feature matrix has {X.n} instances but distribution matrix has {D.n}"
        )
    hp = hp or Hyperparams()
    variant = Variant(variant)

    scaler = None
    if standardize_features:
        scaler = Standardizer(mean=X.data.mean(axis=0), std=X.data.std(axis=0))
    Xw, Dw = _design(X.data, scaler, add_bias), D.data

    if variant is Variant.ABLATION_B:
        Wv, V, _, _ = _w_steps(Xw, Dw, hp.lam)
        W = Wv @ V.T
        P, iterations, primal, converged = W @ Xw.T, 0, 0.0, True
        trace = [_objective(W, P, P, Dw, 0.0, hp.lam)]
    else:
        L = degrade(D, hp.degradation).data if variant is Variant.FULL else None
        W, iterations, primal, trace, converged = _admm(Xw, Dw, L, hp)
    model = LdlModel(W=W, variant=variant, hyperparams=hp,
                     standardizer=scaler, bias=add_bias)
    return FitResult(model, iterations, primal, trace, converged)


def _design(X, scaler: Optional[Standardizer], bias: bool) -> np.ndarray:
    """Features as a model's W sees them: z-scored by ``scaler`` (if any),
    then with a constant-1 column appended when ``bias``."""
    if scaler is not None:
        X = scaler.transform(X)
    return np.hstack([X, np.ones((X.shape[0], 1))]) if bias else X


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
    for f in fields(Hyperparams):
        value = getattr(hp, f.name)
        arrays[f.name] = np.str_(str(value)) if f.name == "degradation" else np.asarray(value)
    if model.standardizer is not None:
        arrays["feature_mean"] = model.standardizer.mean
        arrays["feature_std"] = model.standardizer.std
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_model(path) -> LdlModel:
    """Load a model written by :func:`save_model`.

    Errors name the file: ValueError for a file that is not such a model, or
    whose entries are missing, unreadable or invalid; ShapeMismatch for a W
    whose width disagrees with the standardizer and the bias flag.
    """
    try:
        archive = np.load(path, allow_pickle=False)
    except (ValueError, EOFError, zipfile.BadZipFile):
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
        except ValueError as exc:
            raise ValueError(f"model entry {key!r} cannot be read: {exc}") from None

    def scalar(key):
        value = entry(key)
        if value.size != 1:
            raise ValueError(f"model entry {key!r} holds {value.size} values, not 1")
        return value.item()

    version = scalar("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version}")
    hp = Hyperparams(**{
        f.name: parse_degradation(str(scalar(f.name))) if f.name == "degradation"
        else scalar(f.name)
        for f in fields(Hyperparams)
    })
    scaler = None
    if bool(scalar("has_standardizer")):
        scaler = Standardizer(mean=entry("feature_mean"), std=entry("feature_std"))
    return LdlModel(
        W=entry("W"),
        variant=Variant(str(scalar("variant"))),
        hyperparams=hp,
        standardizer=scaler,
        bias=bool(scalar("bias")),
    )
