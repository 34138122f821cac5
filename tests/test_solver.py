from dataclasses import dataclass

import numpy as np
import pytest
import scipy.linalg

from ldlkit import (
    Hyperparams,
    LdlModel,
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
from ldlkit.cli import main
from ldlkit.errors import ShapeMismatch, SingularSystem


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


def update_g(W, X, O, multipliers, penalty, alpha):
    """Auxiliary-variable step: G = svt(W X' O + multipliers / penalty, alpha / penalty)."""
    if penalty <= 0:
        raise ValueError(f"penalty must be positive, got {penalty}")
    return svt(W @ X.T @ O + multipliers / penalty, alpha / penalty)


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


def dense_reference_fit(X, D, hp, full):
    """The splitting loop written from dense steps (the public svt, update_w and
    update_o, and this file's update_g and update_multipliers), O starting at
    I, with the documented objective after each iteration.

    For ablation-a the O-step is skipped, so O stays the identity."""
    n = X.shape[0]
    W = fit(X, D, hp, variant="ablation-b", standardize_features=False,
            add_bias=False).model.W
    O = np.eye(n)
    L = degrade(D, hp.degradation).data
    state = SolverState(aux=W @ X.T @ O, multipliers=np.zeros(D.shape), penalty=solver.MU0)
    trace = []
    for _ in range(hp.max_iters):
        state.aux = update_g(W, X, O, state.multipliers, state.penalty, hp.alpha)
        W_new = update_w(X, D, O, state.aux, state.multipliers, state.penalty, hp.lam)
        w_change = np.linalg.norm(W_new - W) / max(1.0, np.linalg.norm(W))
        W = W_new
        if full:
            O = update_o(X, W, D, L, state.aux, state.multipliers, state.penalty, hp.lam)
        state = update_multipliers(state, W, X, O, solver.MU_GROWTH, solver.MU_MAX)
        trace.append(documented_objective(W, X, D, O, L, hp, full))
        if state.primal_residual <= hp.tol and w_change <= hp.tol:
            break
    return W, state, trace


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
@pytest.mark.parametrize("shape, lam", [
    ((40, 6, 4, 7), 0.1),
    ((30, 5, 3, 12), 1e-8),
    ((12, 20, 3, 10), 0.1),            # n < d
    ((40, 6, 4, 60, 1.0, 1.0), 0.1),   # (alpha, mu_max): the penalty reaches mu_max
])
def test_fit_matches_dense_reference_loop(monkeypatch, variant, shape, lam):
    n, d, m, iters, *schedule = shape
    alpha, mu_max = schedule or (0.1, 1e6)
    monkeypatch.setattr(solver, "MU_MAX", mu_max)
    ds = synth_lowrank(n, d, m, 2, 0.1, seed=15)
    hp = Hyperparams(alpha=alpha, lam=lam, max_iters=iters)
    res = fit(ds.X, ds.D, hp, variant=variant, standardize_features=False, add_bias=False)
    W_ref, state, trace = dense_reference_fit(ds.X.data, ds.D.data, hp, variant == "full")
    assert res.iterations_run == state.iteration
    if schedule:
        assert state.penalty == mu_max
    np.testing.assert_allclose(res.model.W, W_ref, rtol=0, atol=1e-10)
    assert len(res.objective_trace) == len(trace)
    np.testing.assert_allclose(res.objective_trace, trace, rtol=1e-12, atol=0)
    np.testing.assert_allclose(res.final_primal_residual, state.primal_residual,
                               rtol=0, atol=1e-12)


@pytest.fixture()
def linalg_calls(monkeypatch):
    """Shapes seen by numpy.linalg's eigh, solve, QR (with its mode) and
    value-only SVD (the objective's, not svt's), one entry per call."""
    calls = {"eigh": [], "solve": [], "qr": [], "svdvals": []}
    eigh, solve, qr, svd = np.linalg.eigh, np.linalg.solve, np.linalg.qr, np.linalg.svd

    def counting_eigh(M, *args, **kwargs):
        calls["eigh"].append(M.shape)
        return eigh(M, *args, **kwargs)

    def counting_solve(M, *args, **kwargs):
        calls["solve"].append(M.shape)
        return solve(M, *args, **kwargs)

    def counting_qr(M, mode="reduced"):
        calls["qr"].append((M.shape, mode))
        return qr(M, mode=mode)

    def counting_svd(M, *args, compute_uv=True, **kwargs):
        if not compute_uv:
            calls["svdvals"].append(M.shape)
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
                [((rows, 2 * m), "r")] * (max_iters if full else 0)
            assert spectra == [(m, 2 * m) if full else (m, rows)] * max_iters


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
    with np.errstate(over="ignore"), \
            pytest.raises(ValueError, match="W-step system has non-finite entries"):
        fit(X, np.abs(D) / np.abs(D).sum(axis=0), Hyperparams(lam=lam), variant="ablation-b",
            standardize_features=False, add_bias=False)


def test_sweep_ablate_and_grid_take_one_eigendecomposition_per_training_split(
        tmp_path, capsys, linalg_calls):
    # At b >= n every run of a training split shares the split's one eigh of
    # X'X: sweep's three values, and ablate's full and ablation-a runs beside
    # ablation-b's one solve. cv --grid takes one per inner and one per outer
    # training split, not one per candidate or variant. The per-iteration
    # solves, QRs and SVDs stay as the test above pins them.
    n, d, m, k, iters = 30, 24, 3, 3, 5       # each of the k training splits has 20 rows
    rows, b = n - n // k, d + 1 + 2 * m       # with the bias column, b = 31 >= 20
    assert rows <= b
    path = tmp_path / "wide.txt"
    save_dataset(synth_lowrank(n, d, m, 2, 0.1, seed=0), path)

    def run(*argv):
        for calls in linalg_calls.values():
            calls.clear()
        assert main([*argv, str(path), "--folds", str(k), "--max-iters", str(iters),
                     "--tol", "1e-15", "--format", "csv"]) == 0
        capsys.readouterr()
        return linalg_calls

    full_fits = 3 * k
    calls = run("sweep", "--param", "alpha", "--values", "0.01,0.1,1")
    assert calls["eigh"] == [(d + 1, d + 1)] * k
    assert calls["solve"] == [(2 * m, 2 * m)] * ((2 * iters - 1) * full_fits)
    assert calls["qr"] == [((rows, 2 * m), "r")] * (iters * full_fits)
    assert calls["svdvals"] == [(m, 2 * m)] * (iters * full_fits)

    calls = run("ablate")
    assert calls["eigh"] == [(d + 1, d + 1)] * k
    assert sorted(calls["solve"]) == sorted(
        [(2 * m, 2 * m)] * ((2 * iters - 1) * k) + [(d + 1, d + 1)] * k)
    assert calls["qr"] == [((rows, 2 * m), "r")] * (iters * k)
    assert sorted(calls["svdvals"]) == sorted(        # ablation-b's objective: one
        [(m, 2 * m), (m, rows)] * (iters * k) + [(m, rows)] * k)

    calls = run("cv", "--variants", "full,ablation-a", "--grid", "alpha=0.1,1;lambda=0.1,0.5")
    inner_rows = rows - rows // 5
    assert sorted(calls["eigh"]) == [(d + 1, d + 1)] * (k * (5 + 1))
    assert len(calls["qr"]) == iters * k * (5 * 4 + 1)
    assert {shape for shape, _ in calls["qr"]} == {(rows, 2 * m), (inner_rows, 2 * m)}


@pytest.mark.parametrize("n", [40, 12, 9])    # full b = 6 + 8, ablation-a b = 6 + 4
def test_runs_fit_together_on_one_split_equal_separate_fits(n):
    # solver._fit_split shares the design, L, the instance basis and the
    # eigendecomposition of X'X between runs: at n = 40 the full and
    # ablation-a runs have their own R, at n = 12 only ablation-a has one, and
    # at n = 9 every run shares the design's. Each run is bit-equal to fit.
    ds = synth_lowrank(n, 5, 4, 2, 0.1, seed=n)
    runs = [(variant, Hyperparams(alpha=alpha, lam=lam, degradation=degradation))
            for alpha in (0.01, 0.1, 1.0) for lam in (0.1, 0.01) for variant in Variant
            for degradation in (ThresholdDegrade(0.5), TopKDegrade(2))]
    for (variant, hp), res in zip(runs, solver._fit_split(ds.X, ds.D, runs)):
        alone = fit(ds.X, ds.D, hp, variant)
        np.testing.assert_array_equal(res.model.W, alone.model.W)
        assert res.objective_trace == alone.objective_trace
        assert (res.iterations_run, res.final_primal_residual, res.converged) == (
            alone.iterations_run, alone.final_primal_residual, alone.converged)
        assert res.model.variant is variant and res.model.hyperparams == hp


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
    spectrum = solver._spectrum(ds.X.data, ds.D.data)
    W, iterations, primal, trace, converged = solver._admm(ds.X.data, ds.D.data, L, hp, spectrum)
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


@pytest.mark.parametrize("variant", ["full", "ablation-a"])
def test_fit_without_ridge_on_rank_deficient_features_is_singular(variant):
    rng = np.random.default_rng(12)
    X = rng.standard_normal((5, 8))        # n < d: X'X is singular
    D = rng.dirichlet(np.ones(3), size=5).T
    with pytest.raises(SingularSystem, match="W-step system is rank-deficient"):
        fit(X, D, Hyperparams(lam=0.0), variant=variant,
            standardize_features=False, add_bias=False)


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
