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

All subproblems are solved exactly (no explicit inverses).  The coupling
penalty's schedule belongs to the solver, not the model: it starts at ``MU0``
(0.1), is multiplied by ``MU_GROWTH`` (1.1) after each iteration and is capped
at ``MU_MAX`` (1e6).  The stopping rule combines the relative constraint
residual with the relative change of W; a non-finite iterate raises
``NonFiniteIterate``.  Nothing is randomized.

The O-step matrix is 2 lam I plus a rank-<=2m term, so its minimizer is
exactly O = U K with U = [D' P'] (n x 2m) and K from a 2m x 2m solve; ``fit``
never builds an n x n array, nor U: each O-step forms the Gram U'U = Q Q' of
Q = [D; P] once.  The W-step matrix is X'X + 2 lam I plus a rank-<=2m term
too, and the loop runs in the eigenbasis V of X'X: it carries W V, so each
W-step is a diagonal or 2m x 2m solve, no iteration takes a d x d product,
and W is rotated back once.  numpy suffices.

Every instance-indexed object of the loop lies in the span of [X, D', L'], of
width b <= d + 2m (d + m for ablation-a, which has no L).  So when b < n,
``fit`` takes R of one thin QR [X, D', L'] = Q R and runs the loop on R's
column blocks in place of X, D' and L': no iteration touches an n-length
vector, and Q is never formed.  When b >= n the loop runs on the instances,
and all runs on one training split (a cross-validated search) share one
eigendecomposition of X'X; when b < n, runs of one variant and degradation
share theirs.  Ablation-b at lam > 0 takes one solve instead.

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

MU0 = 0.1
MU_MAX = 1e6
MU_GROWTH = 1.1


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


def _eigh_psd(M: np.ndarray, what: str):
    """Eigenvalues s (clipped at 0) and eigenvectors V of symmetric positive
    semi-definite M, so that (M + 2 lam I)^-1 = V diag(1 / (s + 2 lam)) V'."""
    if not np.isfinite(M).all():
        raise ValueError(f"{what} system has non-finite entries")
    s, V = np.linalg.eigh(M)
    return np.maximum(s, 0.0), V


def _check_rank(s: np.ndarray, lam: float, what: str) -> None:
    """At lam = 0, s.min() must exceed s.max() d eps, numpy's matrix_rank tolerance."""
    if lam == 0.0 and s[0] <= s[-1] * len(s) * np.finfo(s.dtype).eps:
        raise SingularSystem(f"{what} system is rank-deficient; a positive lambda is required")


def _o_step(Q, L, G, multipliers, penalty, lam):
    """The Gram U'U and the factor K of the O-step minimizer O = U K, given
    Q = U' = [D; P] with P = W X'.

    With C = diag(2 I_m, mu I_m), the O-step matrix is U C U' + 2 lam I, and
    the push-through identity gives
    K = (2 lam I + C U'U)^-1 [2 L; mu G - multipliers].
    """
    two_m, n = Q.shape
    if lam == 0.0 and n > two_m:
        raise SingularSystem(
            "O-step system is rank-deficient; a positive lambda is required"
        )
    UtU = Q @ Q.T                                           # (2m, 2m)
    c = np.repeat([2.0, penalty], two_m // 2)
    M = c[:, np.newaxis] * UtU + 2.0 * lam * np.eye(two_m)
    rhs = np.vstack([2.0 * L, penalty * G - multipliers])
    try:
        return UtU, np.linalg.solve(M, rhs)
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
    s, V = _eigh_psd(M, "W-step")
    _check_rank(s, lam, "W-step")
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

    computed through its factors (see :func:`_o_step`).
    """
    Q = np.vstack([D, W @ X.T])
    _, K = _o_step(Q, L, G, multipliers, penalty, lam)
    return Q.T @ K


def _objective(W, P, N, D, alpha, lam, o_terms=0.0) -> float:
    """Objective of the loop at P = W X'; N has P O's singular values, and
    ``o_terms`` is ||D O - L||^2 + lam ||O||^2 (0 while O = I)."""
    value = (0.5 * np.linalg.norm(P - D) ** 2
             + alpha * np.linalg.svd(N, compute_uv=False).sum()
             + lam * np.linalg.norm(W) ** 2)
    return float(value + o_terms)


def _spectrum(X, D):
    """The lam-free part of a fit's W-steps: s and V of X'X = V diag(s) V'
    (s clipped at 0), XV = X V and DXV = (D X) V."""
    s, V = _eigh_psd(X.T @ X, "W-step")
    return s, V, X @ V, (D @ X) @ V


def _w_steps(spectrum, lam: float):
    """The ridge start Wv = W V and the W-step of one fit, in the eigenbasis
    of X'X (see :func:`_spectrum`), where A = X'X + 2 lam I is diag(a).

    The step maps Wv to the next Wv, and is diagonal while O = I.  Once
    O = U K with U = [D' P'] and P = Wv XV', XV'U is [DXV', s Wv'] because
    XV'XV = diag(s), and mu (X'O)(X'O)' is F F' with F = sqrt(mu) XV'U R' for
    the thin QR K' = Q R (not K K', whose entries can be far larger than U K's
    at small lam).  The push-through (Woodbury) identity

        (A + F F')^-1 rhs' = Z - Y (I + F'Y)^-1 F'Z,   Y = A^-1 F, Z = A^-1 rhs',

    leaves one symmetric 2m x 2m system, solved for m right-hand sides.
    """
    s, _, XV, DXV = spectrum
    _check_rank(s, lam, "W-step")
    a = s + 2.0 * lam                                       # eigenvalues of A

    def step(Wv, K, R, G, multipliers, penalty: float) -> np.ndarray:
        """The next Wv, from the Wv, K and R of the last O-step."""
        if K is None:
            return (DXV + (penalty * G - multipliers) @ XV) / (a + penalty * s)
        XVU = np.vstack([DXV, Wv * s]).T                    # (d, 2m)
        Z = (DXV + ((penalty * G - multipliers) @ K.T) @ XVU.T) / a
        F = np.sqrt(penalty) * XVU @ R.T
        Y = F / a[:, np.newaxis]
        core = np.eye(F.shape[1]) + F.T @ Y                 # symmetric
        return Z - np.linalg.solve(core, (Z @ F).T).T @ Y.T

    return DXV / a, step


def _admm(X, D, L, hp: Hyperparams, spectrum):
    """The splitting loop on Wv = W V (see :func:`_w_steps`, given X's
    ``spectrum``), P = W X' and PO = P O; O = U K with
    U = [D' P'], or I while K is None (ablation-a: L None).  T = U'U K holds
    D O and P O, <T, K> is ||O||^2, and N = (P U) R' for R of K' = Q R has
    P O's singular values.  Raises NonFiniteIterate at the first non-finite
    primal residual or W change.  Returns W, the iterations run, the last
    primal residual, the trace and converged."""
    _, V, XV, _ = spectrum
    Wv, w_step = _w_steps(spectrum, hp.lam)
    m = D.shape[0]
    PO = Wv @ XV.T
    K = R = None
    multipliers, penalty = np.zeros(D.shape), MU0
    trace = []
    # An overflowing iterate is reported once, as NonFiniteIterate, not as
    # numpy warnings from the steps before the check.
    with np.errstate(over="ignore", invalid="ignore"):
        for it in range(1, hp.max_iters + 1):
            G = svt(PO + multipliers / penalty, hp.alpha / penalty)
            Wv_new = w_step(Wv, K, R, G, multipliers, penalty)
            w_change = np.linalg.norm(Wv_new - Wv) / max(1.0, np.linalg.norm(Wv))
            Wv = Wv_new
            P = PO = N = Wv @ XV.T
            o_terms = 0.0
            if L is not None:
                UtU, K = _o_step(np.vstack([D, P]), L, G, multipliers, penalty, hp.lam)
                R, T = np.linalg.qr(K.T, mode="r"), UtU @ K
                PO, N = T[m:], UtU[m:] @ R.T
                o_terms = np.linalg.norm(T[:m] - L) ** 2 + hp.lam * (T * K).sum()
            residual = G - PO
            primal = float(np.linalg.norm(residual) / max(1.0, np.linalg.norm(G)))
            if not (np.isfinite(primal) and np.isfinite(w_change)):
                raise NonFiniteIterate(f"iterate is not finite at iteration {it} (relative"
                                       f" primal residual {primal:g}, W change {w_change:g})")
            multipliers = multipliers - penalty * residual
            penalty = min(MU_GROWTH * penalty, MU_MAX)
            trace.append(_objective(Wv, P, N, D, hp.alpha, hp.lam, o_terms))
            if primal <= hp.tol and w_change <= hp.tol:
                return Wv @ V.T, it, primal, trace, True
    return Wv @ V.T, hp.max_iters, primal, trace, False


def _ridge(X, D, lam: float):
    """Ridge regression W = D X (X'X + 2 lam I)^-1 (ablation-b): one solve, or
    the W-steps' ridge start at lam = 0 (whose rank check names a singular
    X'X) and where lam is too small to lift X'X's null space in floating point."""
    if lam > 0.0:
        M = X.T @ X + 2.0 * lam * np.eye(X.shape[1])
        if not np.isfinite(M).all():
            raise ValueError("W-step system has non-finite entries")
        try:
            return np.linalg.solve(M, (D @ X).T).T
        except np.linalg.LinAlgError:
            pass
    spectrum = _spectrum(X, D)
    return _w_steps(spectrum, lam)[0] @ spectrum[1].T


def _instance_basis(X, D, L):
    """X, D and L (if given) as the column blocks of R in the thin QR
    [X, D', L'] = Q R when its width b is below n, else as they are.  The loop
    only contracts over instances, and R'R = [X, D', L']'[X, D', L']."""
    (n, d), m = X.shape, D.shape[0]
    if d + (m if L is None else 2 * m) >= n:
        return X, D, L
    R = np.linalg.qr(np.hstack([X, D.T] if L is None else [X, D.T, L.T]), mode="r")
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
               add_bias: bool = True) -> List[FitResult]:
    """:func:`fit` for each (variant, hp) of ``runs`` on one X and D, bit for
    bit.  The design, L per degradation, the instance basis and X'X's
    eigendecomposition per distinct loop input are taken once."""
    if not isinstance(X, FeatureMatrix):
        X = FeatureMatrix(X)
    D = validate_distribution_matrix(D)
    if X.n != D.n:
        raise ShapeMismatch(
            f"feature matrix has {X.n} instances but distribution matrix has {D.n}"
        )
    scaler = None
    if standardize_features:
        scaler = Standardizer(mean=X.data.mean(axis=0), std=X.data.std(axis=0))
    Xw, Dw = _design(X.data, scaler, add_bias), D.data
    bases, spectra, results = {}, {}, []
    for variant, hp in runs:
        variant = Variant(variant)
        if variant is Variant.ABLATION_B:
            W = _ridge(Xw, Dw, hp.lam)
            P, iterations, primal, converged = W @ Xw.T, 0, 0.0, True
            trace = [_objective(W, P, P, Dw, 0.0, hp.lam)]
        else:
            key = (variant, hp.degradation if variant is Variant.FULL else None)
            if key not in bases:
                L = degrade(D, hp.degradation).data if variant is Variant.FULL else None
                bases[key] = _instance_basis(Xw, Dw, L)
            Xb, Db, Lb = bases[key]
            shared = "instances" if Xb is Xw else key   # b >= n: one X'X for all
            if shared not in spectra:
                spectra[shared] = _spectrum(Xb, Db)
            W, iterations, primal, trace, converged = _admm(Xb, Db, Lb, hp, spectra[shared])
        model = LdlModel(W=W, variant=variant, hyperparams=hp,
                         standardizer=scaler, bias=add_bias)
        results.append(FitResult(model, iterations, primal, trace, converged))
    return results


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
    with open(path, "rb") as fh:
        try:
            archive = np.load(fh, allow_pickle=False)
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
