"""The splitting loop of :mod:`ldlkit.solver`, for a stack of runs in lockstep.

``solver._fit_split`` imports it on a process's first stack of runs, so a
command that fits no stack never compiles it.  Each step is one stacked
numpy call for the stack, bit-equal to a call per run.  ``admm`` returns each
run's result, or raises: a stack succeeds or fails as a whole.
"""
from __future__ import annotations

import math
from typing import List

import numpy as np

from . import solver
from .errors import NonFiniteIterate, SingularSystem
from .solver import _norm

_TRACE_BATCH = 32       # iterations whose objective spectra one stacked SVD takes
_T = (0, 2, 1)          # transposes each matrix of a stack


def _trace(alpha: float, terms) -> List[float]:
    """The objective at each iteration of ``terms``: (1/2 ||P - D||^2, N,
    lam ||W||^2, ||D O - L||^2 + lam ||O||^2) at P = W X', where N has P O's
    singular values.  One stacked value-only SVD takes every N's spectrum."""
    spectra = np.linalg.svd(np.stack([N for _, N, _, _ in terms]), compute_uv=False)
    return [float(f + alpha * s.sum() + w + o) for (f, _, w, o), s in zip(terms, spectra)]


def _solve(what: str, A, b) -> np.ndarray:
    """np.linalg.solve(A, b), with numpy's LinAlgError as a singular ``what`` system."""
    try:
        return np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"{what} system is numerically singular") from exc


def _norms(x) -> np.ndarray:
    """:func:`_norm` of each matrix of a stack: a (1, k) by (k, 1) matmul is a dot."""
    if len(x) == 1:                         # the same dot, without the stack's overhead
        return _norm(x)[np.newaxis]
    x = x.reshape(len(x), 1, -1)
    return np.sqrt(x @ x.transpose(_T)).ravel()


def admm(runs, trace: bool = True) -> list:
    """The splitting loop for a stack of runs of one variant and shape, each
    (D, L, hp, spectrum) with L None for ablation-a (O = I, no O-step).  They
    share mu's schedule; each step is one stacked call, bit-equal to a call
    per run, and a run leaves the stack when it stops.  Returns each run's
    (W, iterations, last primal residual, objective ([] with ``trace`` off),
    converged, stop reason), or raises for the whole stack: SvdFailure from
    the G-step, SingularSystem from a W-step or O-step solve, or
    NonFiniteIterate, naming the first such run's alpha and lambda, at a
    non-finite primal residual or W change.

    The loop runs on X's range with ``spectrum`` = (s, V, XV, DXV): the
    eigenpairs of X'X there, XV = X V and DXV = (D X) V.  It carries Wv = W V,
    P = W X' and PO = P O; A = X'X + 2 lam I is diag(a), a = s + 2 lam.  While
    O = I, the W-step is diagonal.  The O-step's minimizer is O = U K, U' =
    Q = [D; P], K = (2 lam I + C U'U)^-1 [2 L; mu G - multipliers] with
    C = diag(2 I_m, mu I_m) (push-through identity); the inverse is one solve
    for 2m right-hand sides, whose forward error has an LU solve's bound
    (Higham 2002, sec. 14.1) and at ``MU_MAX`` (cond up to 1e10) was within a
    factor 1.33 of the solve's.  Then XV'U = [DXV', s Wv'], and mu (X'O)(X'O)'
    is F F' with F = sqrt(mu) XV'U R' for the thin QR K' = Q R (not K K',
    far larger at small lam), so Woodbury's (A + F F')^-1 rhs' = Z - Y
    (I + F'Y)^-1 F'Z, Y = A^-1 F, Z = A^-1 rhs', leaves a 2m x 2m system
    with m right-hand sides.  T = U'U K holds D O and P O, <T, K> is
    ||O||^2, and N = (P U) R' has P O's singular values for the objective."""
    hps = [hp for _, _, hp, _ in runs]
    D, XV, DXV, s = (np.stack(x) for x in zip(*[(D, sp[2], sp[3], sp[0]) for D, _, _, sp in runs]))
    alpha, lam, tol, cap = (np.array(x) for x in zip(*[
        (hp.alpha, hp.lam, hp.tol, hp.max_iters) for hp in hps]))
    (_, m, n), live = D.shape, np.arange(len(runs))
    a = s + (2.0 * lam)[:, np.newaxis]                      # eigenvalues of A
    s_row, a_row, a_col = s[:, np.newaxis], a[:, np.newaxis], a[:, :, np.newaxis]
    Wv, XVt, r = DXV / a_row, XV.transpose(_T), min(n, 2 * m)    # the ridge start; R's rows
    PO, multipliers, penalty, norm_Wv = Wv @ XVt, np.zeros(D.shape), solver.MU0, _norms(Wv)
    L = Q = rhs = ridge = eyes = UtXV = UtXVt = K = R = None
    if runs[0][1] is not None:
        L = np.stack([L for _, L, _, _ in runs])
        Q, rhs = np.concatenate([D, D], axis=1), np.concatenate([2.0 * L, D], axis=1)
        ridge = (2.0 * lam)[:, np.newaxis, np.newaxis] * np.eye(2 * m)
        eyes = np.ones((len(runs), 1, 1)) * np.eye(2 * m)  # numpy < 2 reads a 2-D b as vectors
        UtXV = np.concatenate([DXV, DXV], axis=1)  # U'XV = [DXV; Wv s]; each step fills Wv s
        UtXVt, c = UtXV.transpose(_T), np.full((2 * m, 1), 2.0)
        eye, upper = np.eye(r), np.triu(np.ones((r, 2 * m), bool))
    objective, terms, out, it = [[] for _ in runs], [[] for _ in runs], [None] * len(runs), 0
    # An overflowing iterate is reported once, as NonFiniteIterate, not as
    # numpy warnings from the steps before the check.
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            it += 1
            G = solver._svt(PO + multipliers / penalty, alpha / penalty)
            Gm = penalty * G - multipliers
            if K is None:
                Wv_new = (DXV + Gm @ XV) / (a_row + penalty * s_row)
            else:
                np.multiply(Wv, s_row, out=UtXV[:, m:])
                Z = (DXV + (Gm @ K.transpose(_T)) @ UtXV) / a_row
                F = math.sqrt(penalty) * UtXVt @ R.transpose(_T)
                Y = F / a_col
                core = eye + F.transpose(_T) @ Y                      # symmetric
                x = _solve("W-step", core, (Z @ F).transpose(_T))
                Wv_new = Z - x.transpose(_T) @ Y.transpose(_T)
            norm_Wv, w_change = _norms(Wv_new), _norms(Wv_new - Wv) / np.maximum(1.0, norm_Wv)
            Wv = Wv_new
            P = PO = Wv @ XVt
            if L is not None:
                Q[:, m:], rhs[:, m:], c[m:] = P, Gm, penalty
                UtU = Q @ Q.transpose(_T)                                # (2m, 2m)
                K = _solve("O-step", c * UtU + ridge, eyes) @ rhs
                # R is above the reflectors of the raw QR
                raw = np.linalg.qr(K.transpose(_T), mode="raw")[0].transpose(_T)
                R, T = np.where(upper, raw[:, :r], 0.0), UtU @ K
                PO = T[:, m:]
            residual, norm_G = G - PO, _norms(G)
            primal = _norms(residual) / np.maximum(1.0, norm_G)
            worst = np.maximum(primal, w_change)
            i = np.isfinite(worst).argmin()            # the first non-finite run, if any
            if not np.isfinite(worst[i]):
                hp = hps[live[i]]
                raise NonFiniteIterate(
                    f"iterate is not finite at iteration {it} (relative primal residual"
                    f" {primal[i]:g}, W change {w_change[i]:g}) at alpha={hp.alpha:g}"
                    f" lambda={hp.lam:g}")
            multipliers = multipliers - penalty * residual
            penalty = min(solver.MU_GROWTH * penalty, solver.MU_MAX)
            converged = worst <= tol
            done = converged | (cap == it)
            for i, j in enumerate(live) if trace else ():
                N, o_terms = (P[i], 0.0) if K is None else (UtU[i, m:] @ R[i].T, _norm(
                    T[i, :m] - L[i]) ** 2 + hps[j].lam * (T[i] * K[i]).sum())
                terms[j].append((0.5 * _norm(P[i] - D[i]) ** 2, N,
                                 hps[j].lam * norm_Wv[i] ** 2, o_terms))
                if done[i] or len(terms[j]) == _TRACE_BATCH:
                    objective[j], terms[j] = objective[j] + _trace(hps[j].alpha, terms[j]), []
            if not np.count_nonzero(done):
                continue
            for i in np.flatnonzero(done):
                out[live[i]] = (Wv[i] @ runs[live[i]][3][1].T, it, float(primal[i]),
                                objective[live[i]], bool(converged[i]),
                                "converged" if converged[i] else "max_iters")
            if done.all():
                return out
            live, alpha, tol, cap, D, L, XV, DXV, s_row, a_row, a_col, Wv, norm_Wv, PO, \
                multipliers, K, R, Q, rhs, ridge, eyes, UtXV = (
                    None if v is None else v[~done] for v in (
                        live, alpha, tol, cap, D, L, XV, DXV, s_row, a_row, a_col, Wv, norm_Wv,
                        PO, multipliers, K, R, Q, rhs, ridge, eyes, UtXV))
            XVt, UtXVt = XV.transpose(_T), None if UtXV is None else UtXV.transpose(_T)
