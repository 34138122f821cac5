import re
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from ldlkit import (
    Hyperparams,
    LdlModel,
    Standardizer,
    ThresholdDegrade,
    TopKDegrade,
    Variant,
    degrade,
    evaluate,
    fit,
    load_model,
    predict,
    save_dataset,
    save_model,
    solver,
    svt,
    synth_lowrank,
    threshold_degrade,
    update_o,
    update_w,
)
from ldlkit import _lockstep
from ldlkit.cli import main
from ldlkit.errors import LdlError, NonFiniteIterate, ShapeMismatch, SingularSystem, SvdFailure


def svt_oracle(A, tau):
    """Independent dense-SVD soft-threshold (scipy path, explicit diagonal)."""
    U, s, Vt = scipy.linalg.svd(A, full_matrices=False)
    S = np.diag(np.where(s - tau > 0, s - tau, 0.0))
    return U @ S @ Vt


def random_problem(rng, n=None, d=None, m=None):
    n = n or int(rng.integers(8, 30))
    d = d or int(rng.integers(2, 8))
    m = m or int(rng.integers(2, 6))
    X = rng.standard_normal((n, d))
    D = rng.dirichlet(np.ones(m), size=n).T
    L = threshold_degrade(D, 0.5).data
    G = rng.standard_normal((m, n))
    Gam = rng.standard_normal((m, n))
    mu = float(rng.uniform(0.1, 5.0))
    lam = float(rng.uniform(0.01, 1.0))
    return X, D, L, G, Gam, mu, lam


def w_subproblem(W, X, D, O, G, Gam, mu, lam):
    r = G - W @ X.T @ O - Gam / mu
    return (0.5 * np.linalg.norm(W @ X.T - D) ** 2
            + lam * np.linalg.norm(W) ** 2
            + 0.5 * mu * np.linalg.norm(r) ** 2)


def o_subproblem(O, X, W, D, L, G, Gam, mu, lam):
    P = W @ X.T
    r = G - P @ O - Gam / mu
    return (np.linalg.norm(D @ O - L) ** 2
            + lam * np.linalg.norm(O) ** 2
            + 0.5 * mu * np.linalg.norm(r) ** 2)


def fd_gradient(f, Z, h=1e-6):
    g = np.zeros_like(Z)
    it = np.nditer(Z, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        Zp, Zm = Z.copy(), Z.copy()
        Zp[idx] += h
        Zm[idx] -= h
        g[idx] = (f(Zp) - f(Zm)) / (2 * h)
        it.iternext()
    return g


def test_svt_zero_threshold_is_identity():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((6, 9))
    np.testing.assert_allclose(svt(A, 0.0), A, atol=1e-12)


def test_svt_large_threshold_gives_zero():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((5, 7))
    tau = np.linalg.svd(A, compute_uv=False)[0] + 1.0
    assert np.abs(svt(A, tau)).max() == 0.0


def test_svt_names_a_failed_svd(monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", fail)
    with pytest.raises(SvdFailure, match=r"SVD did not converge on a \(3, 4\) matrix"):
        svt(np.ones((3, 4)), 0.1)


def test_svt_matches_oracle():
    rng = np.random.default_rng(2)
    for _ in range(25):
        A = rng.standard_normal((int(rng.integers(2, 20)), int(rng.integers(2, 20))))
        tau = float(rng.uniform(0, 2))
        np.testing.assert_allclose(svt(A, tau), svt_oracle(A, tau), atol=1e-8)


def test_svt_is_prox_of_nuclear_norm():
    # svt(A, tau) minimizes tau*||G||_* + 1/2 ||G - A||_F^2 : compare against
    # random candidates
    rng = np.random.default_rng(3)
    A = rng.standard_normal((6, 8))
    tau = 0.3
    G = svt(A, tau)

    def obj(M):
        return tau * np.linalg.svd(M, compute_uv=False).sum() + 0.5 * np.linalg.norm(M - A) ** 2

    base = obj(G)
    for _ in range(50):
        delta = rng.standard_normal(G.shape)
        delta *= 1e-3 / np.linalg.norm(delta)
        assert obj(G + delta) >= base - 1e-12


def test_svt_rejects_negative_tau():
    with pytest.raises(ValueError):
        svt(np.eye(2), -0.1)


def test_svt_rejects_a_nan_tau_and_zeroes_everything_at_an_infinite_one():
    with pytest.raises(ValueError, match="tau must be nonnegative, got nan"):
        svt(np.ones((3, 4)), float("nan"))
    out = svt(np.ones((3, 4)), float("inf"))
    assert out.shape == (3, 4) and not out.any()


def spectral_norm_scaled(shape, sigma_max, orthogonal=False):
    """A random matrix with spectral norm ``sigma_max``; with ``orthogonal``
    its shorter side's vectors are orthogonal, so A A' (or A'A) is diagonal and
    its largest Gershgorin row sum is sigma_max^2 itself."""
    rng = np.random.default_rng(4)
    A = rng.standard_normal(shape)
    if orthogonal:                          # orthonormal vectors times a spectrum
        Q = np.linalg.qr(rng.standard_normal((max(shape), min(shape))))[0]
        A = Q * np.linspace(1.0, 0.5, min(shape))
        A = A if shape[0] > shape[1] else A.T
    return A * (sigma_max / np.linalg.svd(A, compute_uv=False)[0])


@pytest.fixture()
def svd_calls(monkeypatch):
    """The shapes numpy.linalg.svd is called on, one entry per call."""
    calls, svd = [], np.linalg.svd

    def counting_svd(M, *args, **kwargs):
        calls.append(np.shape(M))
        return svd(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


SVT_SHAPES = [(6, 170), (40, 7), (5, 5), (1, 9), (9, 1)]


@pytest.mark.parametrize("orthogonal", [False, True])
@pytest.mark.parametrize("shape", SVT_SHAPES)
def test_svt_just_below_the_threshold_is_exact_zeros(svd_calls, shape, orthogonal):
    # sigma_max = tau (1 - 1e-6), so every thresholded singular value is 0.
    # With orthogonal rows (or columns) the Gershgorin bound is tight and
    # proves it: svt returns the zeros without an SVD.
    tau = 0.37
    A = spectral_norm_scaled(shape, tau * (1 - 1e-6), orthogonal)
    expected = svt_oracle(A, tau)
    svd_calls.clear()
    out = svt(A, tau)
    assert not expected.any()
    assert out.shape == shape and out.dtype == np.float64
    assert np.array_equal(out, expected)
    if orthogonal:
        assert svd_calls == []


@pytest.mark.parametrize("orthogonal", [False, True])
@pytest.mark.parametrize("shape", SVT_SHAPES)
def test_svt_just_above_the_threshold_is_nonzero_and_matches_the_oracle(shape, orthogonal):
    tau = 0.37
    A = spectral_norm_scaled(shape, tau * (1 + 1e-6), orthogonal)
    out = svt(A, tau)
    assert out.any()
    np.testing.assert_allclose(out, svt_oracle(A, tau), atol=1e-8)


@pytest.mark.parametrize("tau", [0.1, 1e6, np.inf])
def test_svt_on_a_nan_still_names_the_failed_svd(tau):
    A = np.full((3, 4), 1e-3)
    A[1, 2] = np.nan
    with pytest.raises(SvdFailure, match=r"SVD did not converge on a \(3, 4\) matrix"):
        svt(A, tau)


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
@pytest.mark.parametrize("tau", [0.1, 1e6, np.inf])
def test_svt_on_an_inf_still_takes_the_svd(svd_calls, bad, tau):
    # No bound is proved on an infinite matrix, so it goes to the SVD, whose
    # NaN factors are reported as the failed SVD they are.
    A = np.full((3, 4), 1e-3)
    A[1, 2] = bad
    with pytest.raises(SvdFailure, match=r"SVD did not converge on a \(3, 4\) matrix"):
        svt(A, tau)
    assert svd_calls == [(3, 4)]


def test_update_g_alpha_zero_is_exact_target():
    rng = np.random.default_rng(4)
    X, D, L, G, Gam, mu, lam = random_problem(rng)
    W = rng.standard_normal((D.shape[0], X.shape[1]))
    O = rng.standard_normal((X.shape[0], X.shape[0]))
    out = update_g(W, X, O, Gam, mu, alpha=0.0)
    np.testing.assert_allclose(out, W @ X.T @ O + Gam / mu, atol=1e-12)


def test_update_g_rank_one_halved():
    rng = np.random.default_rng(5)
    n, d, m = 12, 4, 3
    X = rng.standard_normal((n, d))
    u = rng.standard_normal(m)
    v = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    v /= np.linalg.norm(v)
    s = 2.0
    # build W, O with W X' O = s u v'
    O = np.eye(n)
    W = s * np.outer(u, v) @ np.linalg.pinv(X.T)
    target = W @ X.T @ O
    s_actual = np.linalg.svd(target, compute_uv=False)[0]
    mu = 1.0
    alpha = s_actual / 2 * mu
    out = update_g(W, X, O, np.zeros((m, n)), mu, alpha)
    sv = np.linalg.svd(out, compute_uv=False)
    assert sv[0] == pytest.approx(s_actual / 2, rel=1e-10)
    assert sv[1:].max() < 1e-10
    np.testing.assert_allclose(out, target / 2, atol=1e-10)


def test_update_w_limit_is_least_squares():
    rng = np.random.default_rng(6)
    n = d = 5
    X = rng.standard_normal((n, d)) + np.eye(n)
    D = rng.dirichlet(np.ones(3), size=n).T
    O = np.zeros((n, n))
    G = np.zeros((3, n))
    Gam = np.zeros((3, n))
    W = update_w(X, D, O, G, Gam, penalty=0.0, lam=1e-12)
    np.testing.assert_allclose(W, D @ X @ np.linalg.inv(X.T @ X), atol=1e-6)


def test_update_o_limit_is_exact_interpolation():
    # mu = 0, lam -> 0, D square invertible: O -> D^-1 L
    rng = np.random.default_rng(7)
    m = n = 4
    D = np.full((m, n), 0.1) + 0.6 * np.eye(m)
    L = rng.integers(0, 2, size=(m, n)).astype(float)
    L[0] = 1.0
    W = rng.standard_normal((m, 3))
    X = rng.standard_normal((n, 3))
    O = update_o(X, W, D, L, np.zeros((m, n)), np.zeros((m, n)), penalty=0.0, lam=1e-12)
    np.testing.assert_allclose(O, np.linalg.solve(D, L), atol=1e-6)


def test_update_w_stationarity_and_minimality():
    rng = np.random.default_rng(8)
    for _ in range(5):
        X, D, L, G, Gam, mu, lam = random_problem(rng)
        O = rng.standard_normal((X.shape[0], X.shape[0])) * 0.3
        W = update_w(X, D, O, G, Gam, mu, lam)
        f = lambda Z: w_subproblem(Z, X, D, O, G, Gam, mu, lam)
        assert np.linalg.norm(fd_gradient(f, W)) <= 1e-6
        base = f(W)
        for _ in range(20):
            delta = rng.standard_normal(W.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert f(W + delta) > base


def test_update_o_stationarity_and_minimality():
    rng = np.random.default_rng(9)
    for _ in range(3):
        X, D, L, G, Gam, mu, lam = random_problem(rng, n=10)
        W = rng.standard_normal((D.shape[0], X.shape[1]))
        O = update_o(X, W, D, L, G, Gam, mu, lam)
        g = lambda Z: o_subproblem(Z, X, W, D, L, G, Gam, mu, lam)
        assert np.linalg.norm(fd_gradient(g, O)) <= 1e-6
        base = g(O)
        for _ in range(20):
            delta = rng.standard_normal(O.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert g(O + delta) > base


def test_update_multipliers_zero_residual():
    rng = np.random.default_rng(10)
    n, d, m = 8, 3, 4
    X = rng.standard_normal((n, d))
    W = rng.standard_normal((m, d))
    O = rng.standard_normal((n, n))
    state = SolverState(aux=W @ X.T @ O, multipliers=rng.standard_normal((m, n)), penalty=2.0)
    new = update_multipliers(state, W, X, O, mu_growth=1.1, mu_max=10.0)
    np.testing.assert_array_equal(new.multipliers, state.multipliers)
    assert new.primal_residual == 0.0
    assert new.penalty == pytest.approx(2.2)
    assert new.iteration == 1


def test_update_multipliers_penalty_schedule():
    state = SolverState(aux=np.zeros((2, 3)), multipliers=np.zeros((2, 3)), penalty=1.0)
    W = np.zeros((2, 2))
    X = np.zeros((3, 2))
    O = np.zeros((3, 3))
    new = update_multipliers(state, W, X, O, mu_growth=1.1, mu_max=10.0)
    assert new.penalty == pytest.approx(1.1)
    capped = SolverState(aux=np.zeros((2, 3)), multipliers=np.zeros((2, 3)), penalty=10.0)
    new = update_multipliers(capped, W, X, O, mu_growth=1.1, mu_max=10.0)
    assert new.penalty == 10.0


def test_penalty_never_decreases():
    rng = np.random.default_rng(11)
    state = SolverState(aux=rng.standard_normal((3, 5)),
                        multipliers=np.zeros((3, 5)), penalty=0.1)
    W = rng.standard_normal((3, 2))
    X = rng.standard_normal((5, 2))
    O = rng.standard_normal((5, 5))
    for _ in range(100):
        new = update_multipliers(state, W, X, O, mu_growth=1.3, mu_max=50.0)
        assert new.penalty >= state.penalty
        assert new.penalty <= 50.0
        state = new


def realizable_dataset(n=80, d=12, m=4, seed=3):
    """D exactly equal to a linear map of bias-augmented features."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    A = rng.standard_normal((m, d)) * 0.02
    A -= A.mean(axis=0, keepdims=True)
    D = A @ X.T + 1.0 / m
    assert D.min() > 0 and D.max() < 1
    return X, D


def test_fit_realizable_target_reaches_tiny_kl():
    X, D = realizable_dataset()
    hp = Hyperparams(alpha=0.0, lam=1e-8)
    res = fit(X, D, hp)
    assert res.converged
    rep = evaluate(D, predict(res.model, X))
    assert rep.kl <= 1e-6


def test_fit_converges_on_synthetic_defaults():
    ds = synth_lowrank(120, 10, 5, 2, 0.1, seed=4)
    res = fit(ds.X, ds.D)
    assert res.converged
    assert res.iterations_run <= 200
    assert res.final_primal_residual <= 1e-4
    assert len(res.objective_trace) == res.iterations_run
    assert all(np.isfinite(v) for v in res.objective_trace)


def test_ablation_b_matches_normal_equations_oracle():
    ds = synth_lowrank(60, 7, 4, 2, 0.2, seed=5)
    lam = 0.37
    hp = Hyperparams(lam=lam)
    res = fit(ds.X, ds.D, hp, variant="ablation-b", standardize_features=False, add_bias=False)
    X = ds.X.data
    W_oracle = ds.D.data @ X @ np.linalg.inv(X.T @ X + 2 * lam * np.eye(X.shape[1]))
    np.testing.assert_allclose(res.model.W, W_oracle, atol=1e-10)
    assert res.converged and res.iterations_run == 0


def test_full_with_alpha_zero_degenerates_to_ridge():
    ds = synth_lowrank(100, 8, 5, 2, 0.1, seed=6)
    hp = Hyperparams(alpha=0.0, lam=0.1)
    full = fit(ds.X, ds.D, hp, variant="full")
    ridge = fit(ds.X, ds.D, hp, variant="ablation-b")
    assert full.converged

    def eq1(W, X, D, lam):
        return 0.5 * np.linalg.norm(W @ X.T - D) ** 2 + lam * np.linalg.norm(W) ** 2

    Xw = ridge.model.standardizer.transform(ds.X.data)
    Xw = np.hstack([Xw, np.ones((ds.n, 1))])
    a = eq1(full.model.W, Xw, ds.D.data, 0.1)
    b = eq1(ridge.model.W, Xw, ds.D.data, 0.1)
    assert a <= b * 1.01


def test_fit_variants_accept_strings_and_tag_models():
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=7)
    for name, var in [("full", Variant.FULL), ("ablation-a", Variant.ABLATION_A),
                      ("ablation-b", Variant.ABLATION_B)]:
        res = fit(ds.X, ds.D, variant=name)
        assert res.model.variant is var


def test_fit_rejects_mismatched_instance_counts():
    ds = synth_lowrank(30, 4, 3, 2, 0.1, seed=8)
    with pytest.raises(ShapeMismatch):
        fit(ds.X.data[:20], ds.D.data)


def test_fit_is_deterministic():
    ds = synth_lowrank(50, 6, 4, 2, 0.1, seed=9)
    a = fit(ds.X, ds.D)
    b = fit(ds.X, ds.D)
    np.testing.assert_array_equal(a.model.W, b.model.W)
    assert a.objective_trace == b.objective_trace


def test_singular_system_raised_without_ridge():
    rng = np.random.default_rng(12)
    X = rng.standard_normal((5, 8))        # n < d: rank-deficient Gram
    D = rng.dirichlet(np.ones(3), size=5).T
    hp = Hyperparams(lam=0.0)
    with pytest.raises(SingularSystem):
        fit(X, D, hp, variant="ablation-b", standardize_features=False, add_bias=False)


def test_singular_system_raised_for_full_variant_without_ridge():
    # With lam = 0 and n > 2m the O-step matrix 2 D'D + mu P'P has rank <= 2m.
    ds = synth_lowrank(30, 4, 3, 2, 0.1, seed=14)
    with pytest.raises(SingularSystem):
        fit(ds.X, ds.D, Hyperparams(lam=0.0), variant="full")


def w_step_system(d, seed, n=213, m=6):
    """Features X (n, d) and a label matrix D (m, n) for a W-step system."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, d))
    return X, rng.standard_normal((m, n))


def ridge_w_step(X, D, lam):
    """update_w with O = 0 and penalty 0: W = D X (X'X + 2 lam I)^-1."""
    n, m = X.shape[0], D.shape[0]
    zeros = np.zeros((m, n))
    return update_w(X, D, np.zeros((n, n)), zeros, zeros, penalty=0.0, lam=lam)


@pytest.mark.parametrize("d", [1, 21, 51, 244])
def test_solve_spd_agrees_with_scipy_solve(d):
    # cond(X'X + 0.2 I) is at most 4.5e3 here (at d=244 > n, X'X is singular),
    # so two backward-stable solves agree to about cond * eps ~ 1e-12.
    X, D = w_step_system(d, seed=d)
    W = ridge_w_step(X, D, 0.1)
    ref = scipy.linalg.solve(X.T @ X + 0.2 * np.eye(d), (D @ X).T, assume_a="pos").T
    assert np.linalg.norm(W - ref) <= 1e-11 * np.linalg.norm(ref)


@pytest.mark.parametrize("where", ["M", "B", "X"])
def test_solve_spd_rejects_non_finite_system_before_factoring(monkeypatch, where):
    # M: X'X overflows while D X stays finite; B: D X is NaN through D;
    # X: both are NaN through X.
    def no_factoring(*args, **kwargs):
        raise AssertionError("decomposed a non-finite system")

    monkeypatch.setattr(np.linalg, "eigh", no_factoring)
    X, D = w_step_system(21, seed=3)
    (D if where == "B" else X)[2, 1] = 1e200 if where == "M" else np.nan
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="W-step system has non-finite entries"):
        ridge_w_step(X, D, 0.1)


def test_solve_spd_without_ridge_on_rank_deficient_system_is_singular():
    rng = np.random.default_rng(4)
    X = rng.standard_normal((20, 8))
    X[:, 3] = 0.0                                   # an all-zero feature: X'X[3, 3] = 0
    with pytest.raises(SingularSystem, match="W-step system is rank-deficient"):
        ridge_w_step(X, rng.standard_normal((3, 20)), 0.0)


@dataclass
class SolverState:
    """State of the dense reference loop: the auxiliary matrix, the running
    dual estimate, the coupling penalty (non-decreasing, capped at ``mu_max``),
    the iterations run and the last relative primal residual."""

    aux: np.ndarray
    multipliers: np.ndarray
    penalty: float
    iteration: int = 0
    primal_residual: float = np.inf


def update_g(W, X, O, multipliers, penalty, alpha, g_step=svt):
    """Auxiliary-variable step: G = svt(W X' O + multipliers / penalty, alpha / penalty)."""
    if penalty <= 0:
        raise ValueError(f"penalty must be positive, got {penalty}")
    return g_step(W @ X.T @ O + multipliers / penalty, alpha / penalty)


def update_multipliers(state, W, X, O, mu_growth=1.1, mu_max=1e6):
    """Dual ascent on the coupling constraint plus the penalty schedule.

    The residual G - W X' O is removed from the running multipliers (the dual
    estimate enters the augmented objective with a negative sign), the penalty
    is grown by ``mu_growth`` and capped at ``mu_max``, and the relative primal
    residual ||G - W X' O||_F / max(1, ||G||_F) is recorded.
    """
    residual = state.aux - W @ X.T @ O
    rel = float(np.linalg.norm(residual) / max(1.0, np.linalg.norm(state.aux)))
    return SolverState(
        aux=state.aux,
        multipliers=state.multipliers - state.penalty * residual,
        penalty=min(mu_growth * state.penalty, mu_max),
        iteration=state.iteration + 1,
        primal_residual=rel,
    )


def documented_objective(W, X, D, O, L, hp, full):
    """The module docstring's objective at a dense O; ablation-a drops the O terms."""
    P = W @ X.T
    value = (0.5 * np.linalg.norm(P - D) ** 2
             + hp.alpha * np.linalg.svd(P @ O, compute_uv=False).sum()
             + hp.lam * np.linalg.norm(W) ** 2)
    if full:
        value += np.linalg.norm(D @ O - L) ** 2 + hp.lam * np.linalg.norm(O) ** 2
    return value


def dense_reference_fit(X, D, hp, full, g_step=svt):
    """The splitting loop written from dense steps (the public svt, update_w and
    update_o, and this file's update_g and update_multipliers), O starting at
    I, with the documented objective after each iteration.  ``g_step`` is the
    G-step's thresholding, svt or ``svt_oracle``; the fraction of iterations
    whose G is exactly zero is returned too.

    For ablation-a the O-step is skipped, so O stays the identity."""
    n = X.shape[0]
    W = fit(X, D, hp, variant="ablation-b", standardize_features=False,
            add_bias=False).model.W
    O = np.eye(n)
    L = degrade(D, hp.degradation).data
    state = SolverState(aux=W @ X.T @ O, multipliers=np.zeros(D.shape), penalty=solver.MU0)
    trace, zero_g = [], 0
    for _ in range(hp.max_iters):
        state.aux = update_g(W, X, O, state.multipliers, state.penalty, hp.alpha, g_step)
        zero_g += not state.aux.any()
        W_new = update_w(X, D, O, state.aux, state.multipliers, state.penalty, hp.lam)
        w_change = np.linalg.norm(W_new - W) / max(1.0, np.linalg.norm(W))
        W = W_new
        if full:
            O = update_o(X, W, D, L, state.aux, state.multipliers, state.penalty, hp.lam)
        state = update_multipliers(state, W, X, O, solver.MU_GROWTH, solver.MU_MAX)
        trace.append(documented_objective(W, X, D, O, L, hp, full))
        if state.primal_residual <= hp.tol and w_change <= hp.tol:
            break
    return W, state, trace, zero_g / state.iteration


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
@pytest.mark.parametrize("shape, lam", [
    ((40, 6, 4, 7), 0.1),
    ((30, 5, 3, 12), 1e-8),
    ((12, 20, 3, 10), 0.1),            # n < d
    ((40, 6, 4, 60, 1.0, 1.0), 0.1),   # (alpha, mu_max): the penalty reaches mu_max
    ((12, 20, 3, 50, 1.0, None), 0.1),  # alpha = 1 at n < d, scipy's G-step (below)
])
def test_fit_matches_dense_reference_loop(monkeypatch, variant, shape, lam):
    # In the last case the reference thresholds G through scipy's SVD
    # (svt_oracle), which has no shortcut for a G that is provably zero; the
    # full fit runs to its cap with G exactly zero in most iterations.
    n, d, m, iters, *schedule = shape
    alpha, mu_max = schedule or (0.1, None)
    if mu_max is not None:
        monkeypatch.setattr(solver, "MU_MAX", mu_max)
    ds = synth_lowrank(n, d, m, 2, 0.1, seed=15)
    hp = Hyperparams(alpha=alpha, lam=lam, max_iters=iters)
    res = fit(ds.X, ds.D, hp, variant=variant, standardize_features=False, add_bias=False)
    oracle = bool(schedule) and mu_max is None
    W_ref, state, trace, zero_g = dense_reference_fit(
        ds.X.data, ds.D.data, hp, variant == "full", svt_oracle if oracle else svt)
    assert res.iterations_run == state.iteration
    if oracle and variant == "full":
        assert not res.converged and res.iterations_run == iters and zero_g >= 0.5
    if mu_max is not None:
        assert state.penalty == mu_max
    np.testing.assert_allclose(res.model.W, W_ref, rtol=0, atol=1e-10)
    assert len(res.objective_trace) == len(trace)
    np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.final_primal_residual, state.primal_residual,
                               rtol=0, atol=1e-12)


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Matrix shapes seen by numpy.linalg's eigh, solve, QR (with its mode)
    and value-only SVD (the objective's, not svt's), one entry per call (so
    per stack of runs), and for a stacked value-only SVD one (rows, cols)
    entry per matrix of the stack."""
    calls = {"eigh": [], "solve": [], "qr": [], "svdvals": []}
    eigh, solve, qr, svd = np.linalg.eigh, np.linalg.solve, np.linalg.qr, np.linalg.svd

    def counting_eigh(M, *args, **kwargs):
        calls["eigh"].append(M.shape[-2:])
        return eigh(M, *args, **kwargs)

    def counting_solve(M, *args, **kwargs):
        calls["solve"].append(M.shape[-2:])
        return solve(M, *args, **kwargs)

    def counting_qr(M, mode="reduced"):
        calls["qr"].append((M.shape[-2:], mode))
        return qr(M, mode=mode)

    def counting_svd(M, *args, compute_uv=True, **kwargs):
        if not compute_uv:
            calls["svdvals"].extend([M.shape[-2:]] * int(np.prod(M.shape[:-2])))
        return svd(M, *args, compute_uv=compute_uv, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counting_eigh)
    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    return calls


@pytest.mark.parametrize("max_iters", [5, 50])
def test_full_fit_factors_the_d_by_d_system_a_fixed_number_of_times(linalg_calls, max_iters):
    # One eigendecomposition of X'X per fit, for the full variant and for
    # ablation-a alike. The only systems solved are the full variant's 2m x 2m
    # O-step (each iteration) and W-step core (each iteration after the first).
    # When the width b of [X, D', L'] (ablation-a: [X, D']) is below n, the fit
    # takes R of its thin QR once and the loop runs on R's b rows; at n <= b it
    # runs on the n instances. Each O-step takes one QR of K' (width b or n),
    # which the next W-step and the objective share: the objective's nuclear
    # norm is an SVD of the m x 2m (P U) R', or of the m x b (or m x n) P for
    # ablation-a. Every QR is R-only, so no Q is formed.
    d, m = 6, 4
    decomposed, solved, factored, spectra = (
        linalg_calls[key] for key in ("eigh", "solve", "qr", "svdvals"))
    hp = Hyperparams(alpha=1.0, max_iters=max_iters, tol=1e-15)
    for n in (40, 10):                     # b is 14 (full) and 10 (ablation-a)
        ds = synth_lowrank(n, d, m, 2, 0.1, seed=15)
        for variant in ("full", "ablation-a"):
            for calls in (decomposed, solved, factored, spectra):
                calls.clear()
            res = fit(ds.X, ds.D, hp, variant=variant, standardize_features=False,
                      add_bias=False)
            full = variant == "full"
            b = d + (2 * m if full else m)
            rows = min(n, b)               # the loop's instance axis
            assert res.iterations_run == max_iters
            assert decomposed == [(d, d)]
            assert solved == [(2 * m, 2 * m)] * (2 * max_iters - 1 if full else 0)
            assert factored == ([((n, b), "r")] if n > b else []) + \
                [((rows, 2 * m), "raw")] * (max_iters if full else 0)
            assert spectra == [(m, 2 * m) if full else (m, rows)] * max_iters


@pytest.mark.parametrize("n", [5, 40])       # K' has 5 < 2m and 15 > 2m rows
def test_full_fit_reads_only_r_from_the_raw_qr(monkeypatch, n):
    # The loop takes R from the upper triangle of QR's raw output. With that
    # triangle replaced by mode "r"'s R and every reflector entry by NaN, the
    # fit is bit-equal: R is mode "r"'s, and no reflector entry leaks into it.
    ds = synth_lowrank(n, 6, 4, 2, 0.1, seed=n)
    hp = Hyperparams(alpha=1.0, max_iters=40)
    want = fit(ds.X, ds.D, hp, "full", standardize_features=False)
    qr, shapes = np.linalg.qr, []

    def r_above_nan(M, mode="reduced"):             # M may be a stack of matrices
        if mode != "raw":
            return qr(M, mode=mode)
        R = qr(M, mode="r")
        rows = R.shape[-2]
        h = np.full(M.shape, np.nan)
        h[..., :rows, :] = np.where(np.triu(np.ones(R.shape[-2:], bool)), R, np.nan)
        raw = qr(M, mode="raw")[0].swapaxes(-1, -2)
        np.testing.assert_array_equal(np.triu(raw[..., :rows, :]), R)
        shapes.append(R.shape[-2:])
        return h.swapaxes(-1, -2), np.full(R.shape[:-1], np.nan)

    monkeypatch.setattr(np.linalg, "qr", r_above_nan)
    got = fit(ds.X, ds.D, hp, "full", standardize_features=False)
    assert shapes == [(min(n, 8), 8)] * got.iterations_run
    assert got.model.W.tobytes() == want.model.W.tobytes()
    assert np.array(got.objective_trace).tobytes() == np.array(want.objective_trace).tobytes()
    assert (got.iterations_run, got.final_primal_residual, got.converged) == (
        want.iterations_run, want.final_primal_residual, want.converged)


def test_ablation_b_with_ridge_takes_one_solve_and_no_eigendecomposition(linalg_calls):
    ds = synth_lowrank(40, 6, 4, 2, 0.1, seed=15)
    fit(ds.X, ds.D, Hyperparams(lam=0.1), variant="ablation-b", standardize_features=False,
        add_bias=False)
    assert linalg_calls["eigh"] == [] and linalg_calls["solve"] == [(6, 6)]


def test_ablation_b_with_a_ridge_too_small_to_lift_the_null_space_falls_back_to_eigh():
    # X'X + 2e-20 I repeats a row exactly, so the solve finds it singular; the
    # eigenbasis form still gives the ridge solution on the span of X'X.
    rng = np.random.default_rng(21)
    X = rng.standard_normal((40, 6))
    X[:, 5] = X[:, 2]
    D = rng.dirichlet(np.ones(3), size=40).T
    res = fit(X, D, Hyperparams(lam=1e-20), variant="ablation-b", standardize_features=False,
              add_bias=False)
    s, V = np.linalg.eigh(X.T @ X)
    ridge = ((D @ X) @ V / (np.maximum(s, 0.0) + 2e-20)) @ V.T
    np.testing.assert_allclose(res.model.W, ridge, rtol=1e-12)


@pytest.mark.parametrize("lam", [0.1, 0.0])
def test_ablation_b_rejects_an_overflowing_system(lam):
    X, D = w_step_system(6, seed=4, n=40, m=3)
    X[3, 2] = 1e200
    with pytest.raises(ValueError, match="feature column 3 overflows X'X: its sum of squares"):
        fit(X, np.abs(D) / np.abs(D).sum(axis=0), Hyperparams(lam=lam), variant="ablation-b",
            standardize_features=False, add_bias=False)


def test_sweep_ablate_and_grid_take_one_eigendecomposition_per_training_split(
        tmp_path, capsys, linalg_calls):
    # At b >= n every run of a training split shares the split's one eigh of
    # X'X: sweep's three values, and ablate's full and ablation-a runs beside
    # ablation-b's one solve. cv --grid takes one per inner and one per outer
    # training split, not one per candidate or variant. The runs of every
    # split are fit as stacks, one per variant and shape, and each stack takes
    # the per-iteration solves and QRs the test above pins for one fit. These
    # fold fits record no objective, so they take no objective SVD; train does.
    n, d, m, k, iters = 30, 24, 3, 3, 5       # each of the k training splits has 20 rows
    rows, b = n - n // k, d + 1 + 2 * m       # with the bias column, b = 31 >= 20
    assert rows <= b
    path = tmp_path / "wide.txt"
    save_dataset(synth_lowrank(n, d, m, 2, 0.1, seed=0), path)

    def run(*argv, folds=("--folds", str(k))):
        for calls in linalg_calls.values():
            calls.clear()
        assert main([*argv, str(path), *folds, "--max-iters", str(iters),
                     "--tol", "1e-15", "--format", "csv"]) == 0
        capsys.readouterr()
        return linalg_calls

    calls = run("sweep", "--param", "alpha", "--values", "0.01,0.1,1")
    assert calls["eigh"] == [(d + 1, d + 1)] * k
    assert calls["solve"] == [(2 * m, 2 * m)] * (2 * iters - 1)      # one stack of 3 k runs
    assert calls["qr"] == [((rows, 2 * m), "raw")] * iters
    assert calls["svdvals"] == []

    calls = run("ablate")
    assert calls["eigh"] == [(d + 1, d + 1)] * k
    assert sorted(calls["solve"]) == sorted(
        [(2 * m, 2 * m)] * (2 * iters - 1) + [(d + 1, d + 1)] * k)
    assert calls["qr"] == [((rows, 2 * m), "raw")] * iters
    assert calls["svdvals"] == []

    calls = run("cv", "--variants", "full,ablation-a", "--grid", "alpha=0.1,1;lambda=0.1,0.5")
    inner_rows = rows - rows // 5
    assert sorted(calls["eigh"]) == [(d + 1, d + 1)] * (k * (5 + 1))
    # per outer split: one stack of the 5 x 4 inner full fits, and the outer one
    assert len(calls["qr"]) == iters * k * 2
    assert {shape for shape, _ in calls["qr"]} == {(rows, 2 * m), (inner_rows, 2 * m)}
    assert calls["svdvals"] == []

    calls = run("train", folds=("--model-out", str(tmp_path / "model.npz")))
    assert calls["svdvals"] == [(m, 2 * m)] * iters     # train records its objective


@pytest.mark.parametrize("argv", [
    ["ablate"],
    ["cv", "--variants", "full,ablation-a,ablation-b"],
    ["cv", "--variants", "ablation-a,ablation-b", "--lambda", "0"],
])
def test_each_training_split_takes_one_eigendecomposition_when_b_is_below_n(
        tmp_path, capsys, linalg_calls, argv):
    # Each of the k training splits has 40 rows, above b = d + 1 + 2m = 11, so
    # the full and ablation-a runs loop on R of their own QR; both, and
    # ablation-b at lambda = 0, still share the one eigh of the split's X'X.
    n, d, m, k = 60, 4, 3, 3
    path = tmp_path / "tall.txt"
    save_dataset(synth_lowrank(n, d, m, 2, 0.1, seed=0), path)
    assert main([*argv, str(path), "--folds", str(k), "--max-iters", "5"]) == 0
    capsys.readouterr()
    assert linalg_calls["eigh"] == [(d + 1, d + 1)] * k


@pytest.mark.parametrize("n", [40, 12, 9])    # full b = 6 + 8, ablation-a b = 6 + 4
def test_runs_fit_together_on_one_split_equal_separate_fits(n):
    # solver._fit_split shares the design, L, the instance basis and the
    # eigendecomposition of X'X between runs: at n = 40 the full and
    # ablation-a runs have their own R, at n = 12 only ablation-a has one, and
    # at n = 9 every run shares the design's. Each run is bit-equal to fit,
    # and with trace off it records no objective.
    ds = synth_lowrank(n, 5, 4, 2, 0.1, seed=n)
    runs = [(variant, Hyperparams(alpha=alpha, lam=lam, degradation=degradation))
            for alpha in (0.01, 0.1, 1.0) for lam in (0.1, 0.01) for variant in Variant
            for degradation in (ThresholdDegrade(0.5), TopKDegrade(2))]
    alone = [fit(ds.X, ds.D, hp, variant) for variant, hp in runs]
    for trace in (True, False):
        results = solver._fit_split(ds.X, ds.D, runs, trace=trace)
        for (variant, hp), res, one in zip(runs, results, alone):
            np.testing.assert_array_equal(res.model.W, one.model.W)
            assert res.objective_trace == (one.objective_trace if trace else [])
            assert (res.iterations_run, res.final_primal_residual, res.converged) == (
                one.iterations_run, one.final_primal_residual, one.converged)
            assert res.model.variant is variant and res.model.hyperparams == hp


MIXED_RUNS = [      # alpha, lambda, max_iters and tol differ, so the runs stop apart
    ("full", Hyperparams(alpha=0.01, lam=0.1)),
    ("full", Hyperparams(alpha=1.0, lam=0.01, max_iters=7)),
    ("full", Hyperparams(alpha=0.1, lam=0.1, tol=1e-3, degradation=TopKDegrade(2))),
    ("full", Hyperparams(alpha=1.0, lam=0.1, max_iters=60)),
    ("full", Hyperparams(alpha=0.5, lam=1e-3, max_iters=25, tol=1e-4)),
    ("full", Hyperparams(alpha=0.0, lam=0.1)),
    ("ablation-a", Hyperparams(alpha=0.1, lam=0.1)),
    ("ablation-a", Hyperparams(alpha=1.0, lam=0.01, max_iters=9)),
    ("ablation-b", Hyperparams(lam=0.1)),
]


@pytest.mark.parametrize("full_runs, n_splits, stack_bytes, sizes", [
    (1, 1, None, [1, 2]), (2, 1, None, [2, 2]), (6, 1, None, [6, 2]), (3, 2, None, [6, 4]),
    (3, 2, 1, [1] * 10),                    # a stack holds one run when one run's inputs fill it
])
def test_stacked_runs_are_bit_equal_to_fits_one_at_a_time(monkeypatch, full_runs, n_splits,
                                                           stack_bytes, sizes):
    # Every split has 32 training rows, above b = 5 + 1 + 2m, so all its full
    # runs share one basis shape and stack, across splits too, and so do its
    # two ablation-a runs. With m = 3, a stack of 2m = 6 runs is where numpy
    # < 2 would read a (2m, 2m) identity right-hand side as 2m vectors.
    if stack_bytes is not None:
        monkeypatch.setattr(solver, "_STACK_BYTES", stack_bytes)
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=9)
    splits = [np.delete(np.arange(40), np.arange(i, 40, 5)) for i in range(n_splits)]
    runs = MIXED_RUNS[:full_runs] + MIXED_RUNS[6:]
    admm, seen = _lockstep.admm, []
    monkeypatch.setattr(_lockstep, "admm", lambda stack, trace: seen.append(len(stack)) or
                        admm(stack, trace))
    alone = [fit(ds.X.data[train], ds.D.data[:, train], hp, variant)
             for train in splits for variant, hp in runs]
    for trace in (True, False):
        seen.clear()
        results = solver._fit_split(ds.X, ds.D, runs, trace=trace, splits=splits)
        assert seen == sizes
        for res, one in zip(results, alone):
            assert res.model.W.tobytes() == one.model.W.tobytes()
            assert (res.iterations_run, res.final_primal_residual, res.converged,
                    res.stop_reason) == (one.iterations_run, one.final_primal_residual,
                                         one.converged, one.stop_reason)
            assert res.stop_reason == ("converged" if res.converged else "max_iters")
            want = np.array(one.objective_trace if trace else [])
            assert np.array(res.objective_trace).tobytes() == want.tobytes()
    if full_runs > 1:                              # the stack's runs stop apart
        assert len({res.iterations_run for res in alone[:full_runs]}) > 1


def test_a_fit_records_why_it_stopped():
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=9)
    capped = fit(ds.X, ds.D, Hyperparams(alpha=1.0, max_iters=3))
    assert (capped.iterations_run, capped.converged, capped.stop_reason) == (
        3, False, "max_iters")
    done = fit(ds.X, ds.D, Hyperparams())
    assert (done.converged, done.stop_reason) == (True, "converged")
    assert done.iterations_run < 200
    ridge = fit(ds.X, ds.D, Hyperparams(), "ablation-b")
    assert (ridge.iterations_run, ridge.converged, ridge.stop_reason) == (0, True, "converged")


@pytest.mark.parametrize("step, error", [
    ("svd", r"SVD did not converge on a \(3, 12\) matrix"),
    ("solve", "O-step system is numerically singular"),
    ("overflow", r"iterate is not finite at iteration 2 \(relative primal residual nan, "
                 r"W change nan\) at alpha=1 lambda=0\.1"),
])
def test_a_stacked_call_that_fails_for_one_run_is_that_runs_error(monkeypatch, step, error):
    # A stack of three full runs fails as a whole: from the fifth stacked
    # G-step SVD (or O-step solve) on, numpy fails for every call that holds
    # the second run's matrix of that call; or, with the penalty starting at
    # 1e307, the second run's lambda = 0.1 overflows while the others fit.
    # The stack is then fit again one run per stack: the second run ends in
    # its typed error, and the other two are bit-equal to their fits without
    # the fault.
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=9)
    kind = {"svd": SvdFailure, "solve": SingularSystem, "overflow": NonFiniteIterate}[step]
    if step == "overflow":
        for name, value in dict(MU0=1e307, MU_MAX=1e308, MU_GROWTH=10.0).items():
            monkeypatch.setattr(solver, name, value)
        runs = [("full", Hyperparams(alpha=1.0, lam=lam)) for lam in (1e300, 0.1, 1e301)]
    else:
        runs = [("full", Hyperparams(alpha=alpha, lam=0.1, max_iters=30))
                for alpha in (0.01, 0.02, 0.03)]
    want = solver._fit_split(ds.X, ds.D, runs[::2], trace=False)
    real, calls, poison = getattr(np.linalg, step, None), [], []

    def failing(A, *args, **kwargs):
        stacked = len(A) == 3 and (step == "svd" or args[0].shape[-1] == 6)
        calls.append(stacked)
        if stacked and sum(calls) == 5:
            poison.append(A[1].tobytes())
        if any(M.tobytes() in poison for M in A):
            raise np.linalg.LinAlgError("injected")
        return real(A, *args, **kwargs)

    admm, sizes, outcomes = _lockstep.admm, [], []

    def recording(stack, trace):
        sizes.append(len(stack))
        try:
            outcomes.append(admm(stack, trace))
        except LdlError as exc:
            outcomes.append(exc)
            raise
        return outcomes[-1]

    monkeypatch.setattr(_lockstep, "admm", recording)
    if step != "overflow":
        monkeypatch.setattr(np.linalg, step, failing)
    with pytest.raises(kind, match=error):
        solver._fit_split(ds.X, ds.D, runs, trace=False)
    assert sizes == [3, 1, 1, 1]
    stacked, first, failed, last = outcomes
    for exc in (stacked, failed):
        assert isinstance(exc, kind) and re.search(error, str(exc))
    for [(W, iterations, primal, _, converged, reason)], res in zip([first, last], want):
        assert W.tobytes() == res.model.W.tobytes()
        assert (iterations, primal, converged, reason) == (
            res.iterations_run, res.final_primal_residual, res.converged, res.stop_reason)


@pytest.mark.parametrize("n, d, blocks", [(1023, 7, 0), (1024, 7, 2), (1500, 7, 3),
                                          (5000, 7, 10), (1024, 120, 2), (1024, 130, 0),
                                          (2000, 290, 0)])
@pytest.mark.parametrize("with_l", [True, False])
def test_the_row_blocked_basis_keeps_the_gram_of_x_d_and_l(monkeypatch, n, d, blocks, with_l):
    # From n = 2 _QR_ROWS on, R is taken blockwise while b <= _QR_ROWS / 4:
    # one QR per block of rows and one of the stacked R's. A wider b (here
    # d + 4 or d + 8 > 128) keeps the single call. Either way R'R is
    # [X, D', L']'[X, D', L'].
    ds = synth_lowrank(n, d, 4, 2, 0.1, seed=n)
    X, D = 1e3 * ds.X.data + 5.0, ds.D.data          # an uncentred, scaled X
    L = degrade(ds.D, ThresholdDegrade()).data if with_l else None
    qr, shapes = np.linalg.qr, []

    def counting_qr(M, mode="reduced"):
        shapes.append(M.shape)
        return qr(M, mode=mode)

    monkeypatch.setattr(np.linalg, "qr", counting_qr)
    Xb, Db, Lb = solver._instance_basis(X, D, L)
    A = np.hstack([X, D.T] + ([L.T] if with_l else []))
    R = np.hstack([Xb, Db.T] + ([Lb.T] if with_l else []))
    b = A.shape[1]
    assert R.shape == (b, b) and (np.tril(R, -1) == 0).all()
    gram = A.T @ A
    assert np.linalg.norm(R.T @ R - gram) <= 1e-13 * np.linalg.norm(gram)
    rows = solver._QR_ROWS
    assert shapes == ([(min(rows, n - i), b) for i in range(0, n, rows)] + [(blocks * b, b)]
                      if blocks else [(n, b)])


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
def test_fit_on_the_row_blocked_basis_matches_the_one_block_basis(monkeypatch, variant):
    ds = synth_lowrank(1100, 8, 5, 2, 0.1, seed=3)
    hp = Hyperparams(alpha=0.5, lam=0.05)
    blocked = fit(ds.X, ds.D, hp, variant)
    monkeypatch.setattr(solver, "_QR_ROWS", 1100)
    whole = fit(ds.X, ds.D, hp, variant)
    assert blocked.converged and whole.converged
    assert blocked.iterations_run == whole.iterations_run
    np.testing.assert_allclose(blocked.model.W, whole.model.W, rtol=0, atol=1e-10)


@pytest.mark.parametrize("bias", [True, False])
@pytest.mark.parametrize("standardize", [True, False])
def test_the_design_is_the_z_scores_and_the_bias_column_bit_for_bit(bias, standardize):
    rng = np.random.default_rng(5)
    X = rng.standard_normal((50, 4)) * [1.0, 1e-3, 1e5, 2.0] + [0.0, 7.0, -3.0, 1e4]
    X[:, 1] = 7.25                                     # a zero-std column
    mean, std = X.mean(axis=0), X.std(axis=0)
    scaler = Standardizer(mean=mean, std=std) if standardize else None
    want = X
    if standardize:
        want = (X - mean) / np.where(std == 0.0, 1.0, std)
        want[:, std == 0.0] = 0.0
    if bias:
        want = np.hstack([want, np.ones((len(X), 1))])
    got = solver._design(X, scaler, bias)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
    assert (got[:, 1] == 0.0).all() if standardize else (got[:, 1] == 7.25).all()


@pytest.mark.parametrize("shape", [(10000, 50), (213, 243), (1, 5), (7, 3)])
def test_the_standardizer_is_mean_and_std_bit_for_bit(shape):
    rng = np.random.default_rng(shape[0])
    X = rng.standard_normal(shape)
    X[:, 0] = 3.7                                      # a constant column
    X[:, -1] += 1e6 * rng.choice([-1.0, 1.0], shape[0])
    X[:, 1] += 1e6
    D = np.full((2, shape[0]), 0.5)
    scaler = fit(X, D, variant="ablation-b").model.standardizer
    assert scaler.mean.tobytes() == X.mean(axis=0).tobytes()
    assert scaler.std.tobytes() == X.std(axis=0).tobytes()


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
@pytest.mark.parametrize("extra", [-1, 0, 1, 189])     # n - b; at n <= b, no QR
@pytest.mark.parametrize("alpha", [0.1, 1.0])
@pytest.mark.parametrize("lam", [0.1, 0.01])
def test_fit_on_the_instance_basis_matches_the_loop_on_all_instances(variant, extra,
                                                                     alpha, lam):
    # fit runs the loop on R of [X, D', L'] = Q R when b < n; the loop on the
    # n instances themselves gives the same iterates up to round-off.
    d, m = 5, 3
    full = variant == "full"
    n = d + (2 * m if full else m) + extra
    ds = synth_lowrank(n, d, m, 2, 0.1, seed=n)
    hp = Hyperparams(alpha=alpha, lam=lam)
    L = degrade(ds.D, hp.degradation).data if full else None
    X, D = ds.X.data, ds.D.data
    s, V = solver._eigh_psd(X.T @ X)
    W, iterations, primal, trace, converged, _ = _lockstep.admm(
        [(D, L, hp, (s, V, X @ V, (D @ X) @ V))])[0]
    res = fit(ds.X, ds.D, hp, variant=variant, standardize_features=False, add_bias=False)
    assert (res.iterations_run, res.converged) == (iterations, converged)
    np.testing.assert_allclose(res.model.W, W, rtol=0, atol=1e-10)
    np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.final_primal_residual, primal, rtol=0, atol=1e-12)


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
def test_fit_without_ridge_on_a_duplicated_feature_is_singular(variant):
    # n = 40 is above b = 6 + 2m (full) or 6 + m (ablation-a), so the W-step's
    # rank check sees R's X block, which repeats the duplicated column.
    rng = np.random.default_rng(21)
    X = rng.standard_normal((40, 6))
    X[:, 5] = X[:, 2]
    D = rng.dirichlet(np.ones(3), size=40).T
    with pytest.raises(SingularSystem, match="W-step system is rank-deficient"):
        fit(X, D, Hyperparams(lam=0.0), variant=variant,
            standardize_features=False, add_bias=False)


@pytest.mark.parametrize("n", [40, 10])
def test_full_fit_without_ridge_has_a_singular_o_step(n):
    # At n = 40 the O-step works on b = d + 2m = 10 rows; at n = 10 = b, on the
    # instances. Either way its 2 lam I + rank-<=2m matrix is singular, 2m < b.
    rng = np.random.default_rng(22)
    X = rng.standard_normal((n, 4))
    D = rng.dirichlet(np.ones(3), size=n).T
    with pytest.raises(SingularSystem, match="O-step system is rank-deficient"):
        fit(X, D, Hyperparams(lam=0.0), variant="full",
            standardize_features=False, add_bias=False)


def test_full_fit_without_ridge_needs_exactly_2m_instances(tmp_path, capsys):
    # n' = n = 11 < 2m = 12 (b = 4 + 12 >= n): 2 lam I + C U'U has rank <= 11,
    # so at lam = 0 the O-step has no unique solution. At n' = 2m = 8 the
    # system can be regular, and the fit converges.
    ds = synth_lowrank(11, 3, 6, 1, 0.1, seed=0)
    with pytest.raises(SingularSystem, match="O-step system is rank-deficient"):
        fit(ds.X, ds.D, Hyperparams(lam=0.0), variant="full")
    save_dataset(ds, tmp_path / "s.txt")
    code = main(["train", str(tmp_path / "s.txt"), "--lambda", "0",
                 "--model-out", str(tmp_path / "m.npz")])
    assert code == 1 and not (tmp_path / "m.npz").exists()
    assert capsys.readouterr() == ("", "error: O-step system is rank-deficient; "
                                       "a positive lambda is required\n")
    ds = synth_lowrank(8, 6, 4, 2, 0.1, seed=0)
    res = fit(ds.X, ds.D, Hyperparams(lam=0.0), variant="full")
    assert res.converged and np.isfinite(res.model.W).all()


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
def test_fit_without_ridge_on_rank_deficient_features_is_singular(variant):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((5, 8))        # n < d: X'X is singular
    D = rng.dirichlet(np.ones(3), size=5).T
    with pytest.raises(SingularSystem, match="W-step system is rank-deficient"):
        fit(X, D, Hyperparams(lam=0.0), variant=variant,
            standardize_features=False, add_bias=False)


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
@pytest.mark.parametrize("lam", [1e-200, 1e-30])
def test_tiny_ridge_on_a_wide_set_converges(variant, lam):
    # n = 30 < d + 1 = 61: the loop runs on X's range, so no step divides the
    # round-off of a null-space direction by 2 lam (NaN at 1e-200, divergence
    # or a capped run at 1e-30 when it did).
    ds = synth_lowrank(30, 60, 4, 2, 0.1, seed=1)
    res = fit(ds.X, ds.D, Hyperparams(lam=lam), variant)
    assert res.converged and np.abs(res.model.W).max() < 1.0


def test_ablation_a_without_the_nuclear_norm_is_the_ridge_on_the_range_of_x():
    # At alpha = 0 the loop's first W-step is the ridge solution; ablation-b's
    # solve also carries round-off / 2 lam in X's null space, so the two are
    # compared on X's range, where the predictions live.
    ds = synth_lowrank(30, 60, 4, 2, 0.1, seed=1)
    hp = Hyperparams(alpha=0.0, lam=1e-12)
    loop, ridge = (fit(ds.X, ds.D, hp, variant) for variant in ("ablation-a", "ablation-b"))
    X = solver._design(ds.X.data, loop.model.standardizer, True)
    s, V = np.linalg.eigh(X.T @ X)
    on_range = s > s[-1] * len(s) * np.finfo(float).eps      # numpy's matrix_rank tolerance
    span, null = V[:, on_range], V[:, ~on_range]
    assert loop.converged and span.shape[1] == 30
    np.testing.assert_allclose(loop.model.W @ span, ridge.model.W @ span, rtol=0, atol=1e-12)
    np.testing.assert_allclose(loop.model.W @ X.T, ridge.model.W @ X.T, rtol=0, atol=1e-12)
    np.testing.assert_allclose(loop.model.W @ null, 0.0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [40, 12])       # the loop's rows: b = 14 < 40, and 12
def test_each_o_step_solves_for_2m_right_hand_sides(monkeypatch, n):
    # The O-step applies its 2m x 2m system's solution operator to the n'
    # columns of [2 L; Gm]; the W-step core has m right-hand sides.
    d, m, iters = 6, 4, 7
    ds = synth_lowrank(n, d, m, 2, 0.1, seed=15)
    solve, shapes = np.linalg.solve, []

    def counting_solve(A, b):
        shapes.append((A.shape[-2:], b.shape[-2:]))
        return solve(A, b)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    fit(ds.X, ds.D, Hyperparams(alpha=1.0, max_iters=iters, tol=1e-15), "full",
        standardize_features=False, add_bias=False)
    o_step, core = ((2 * m, 2 * m), (2 * m, 2 * m)), ((2 * m, 2 * m), (2 * m, m))
    assert shapes == [o_step] + [core, o_step] * (iters - 1)


def make_raw_model(W):
    return LdlModel(W=np.asarray(W, dtype=float), variant=Variant.ABLATION_B,
                    hyperparams=Hyperparams(), standardizer=None, bias=False)


def test_predict_passes_through_simplex_raw():
    model = make_raw_model(np.array([[0.2], [0.5], [0.3]]))
    np.testing.assert_allclose(predict(model, np.array([1.0])), [0.2, 0.5, 0.3])


def test_predict_clamps_and_renormalizes():
    model = make_raw_model(np.array([[-0.1], [0.6], [0.5]]))
    np.testing.assert_allclose(predict(model, np.array([1.0])),
                               [0.0, 0.6 / 1.1, 0.5 / 1.1])


def test_predict_uniform_fallback():
    model = make_raw_model(np.array([[-1.0], [-2.0]]))
    np.testing.assert_allclose(predict(model, np.array([1.0])), [0.5, 0.5])


def test_predict_always_returns_simplex():
    rng = np.random.default_rng(13)
    ds = synth_lowrank(60, 6, 4, 2, 0.3, seed=10)
    res = fit(ds.X, ds.D)
    pred = predict(res.model, rng.standard_normal((500, 6)))
    assert pred.min() >= 0.0
    np.testing.assert_allclose(pred.sum(axis=0), 1.0, atol=1e-12)


def test_predict_dimension_mismatch():
    ds = synth_lowrank(30, 4, 3, 2, 0.1, seed=11)
    res = fit(ds.X, ds.D)
    with pytest.raises(ShapeMismatch):
        predict(res.model, np.ones(5))


def test_model_round_trip_is_bit_exact(tmp_path):
    ds = synth_lowrank(40, 5, 3, 2, 0.1, seed=12)
    hp = Hyperparams(alpha=0.05, lam=0.7, degradation=ThresholdDegrade(0.3),
                     max_iters=150, tol=1e-6)
    res = fit(ds.X, ds.D, hp)
    path = tmp_path / "model.npz"
    save_model(res.model, path)
    back = load_model(path)
    np.testing.assert_array_equal(back.W, res.model.W)
    np.testing.assert_array_equal(back.standardizer.mean, res.model.standardizer.mean)
    np.testing.assert_array_equal(back.standardizer.std, res.model.standardizer.std)
    assert back.variant is res.model.variant
    assert back.bias == res.model.bias
    assert back.hyperparams == hp
    x = ds.X.data[3]
    np.testing.assert_array_equal(predict(back, x), predict(res.model, x))
