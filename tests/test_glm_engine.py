"""GLM fitting against closed-form and independently optimized oracles."""
import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st
from scipy import optimize, stats

from rxdid import glm_engine
from rxdid.glm_engine import (
    BINOMIAL_LOGIT,
    GAMMA_LOG,
    FitResult,
    GlmError,
    InvalidResponse,
    NonConvergence,
    SeparationSuspected,
    SingularSubmatrix,
    TooFewClusters,
    WaldResult,
    cluster_codes,
    cluster_robust_cov,
    confidence_interval,
    fit_arrays,
    hc1_cov,
    marginal_effect,
    prepare_design,
    wald_test,
)

RNG = np.random.default_rng(20140822)


def _design(X, names=None, cluster_ids=None):
    """A Design over X: columns x0, x1, ... unless named, and each row its
    own cluster unless cluster ids are given."""
    n, p = X.shape
    return prepare_design(X, names or [f"x{i}" for i in range(p)],
                          np.arange(n) if cluster_ids is None else cluster_ids)


def _grouped_binary(n0=100, k0=30, n1=100, k1=60):
    x = np.concatenate([np.zeros(n0), np.ones(n1)])
    y = np.concatenate([
        np.repeat([0.0, 1.0], [n0 - k0, k0]),
        np.repeat([0.0, 1.0], [n1 - k1, k1]),
    ])
    X = np.column_stack([np.ones_like(x), x])
    return X, y


def test_logistic_two_group_closed_form():
    # saturated 2-group model: coefficients are exact log odds / log OR
    X, y = _grouped_binary()
    res = fit_arrays(_design(X, ["intercept", "x"]), y, BINOMIAL_LOGIT)
    assert res.coef("intercept") == pytest.approx(np.log(30 / 70), abs=1e-10)
    assert res.coef("x") == pytest.approx(np.log(60 / 40) - np.log(30 / 70), abs=1e-10)


def test_logistic_model_cov_closed_form():
    # grouped-data variance of the log odds: sum of 1/cell counts
    X, y = _grouped_binary()
    res = fit_arrays(_design(X, ["intercept", "x"]), y, BINOMIAL_LOGIT)
    var_b0 = 1 / 30 + 1 / 70
    var_b1 = var_b0 + 1 / 60 + 1 / 40
    assert res.model_cov[0, 0] == pytest.approx(var_b0, rel=1e-8)
    assert res.model_cov[1, 1] == pytest.approx(var_b1, rel=1e-8)


def test_logistic_matches_direct_likelihood_optimum():
    n = 400
    x1 = RNG.normal(size=n)
    x2 = RNG.binomial(1, 0.4, size=n).astype(float)
    eta = -0.5 + 0.8 * x1 - 1.1 * x2
    y = (RNG.random(n) < 1 / (1 + np.exp(-eta))).astype(float)
    X = np.column_stack([np.ones(n), x1, x2])

    def nll(b):
        e = X @ b
        return np.sum(np.log1p(np.exp(e)) - y * e)

    oracle = optimize.minimize(nll, np.zeros(3), method="BFGS", tol=1e-12).x
    res = fit_arrays(_design(X), y, BINOMIAL_LOGIT)
    assert np.allclose(res.coefficients, oracle, atol=1e-6)


def test_gamma_two_group_closed_form():
    # log-link group model: coefficients are exact log group means
    y0 = np.array([100.0, 150.0, 200.0, 350.0])
    y1 = np.array([80.0, 90.0, 130.0])
    x = np.concatenate([np.zeros(4), np.ones(3)])
    X = np.column_stack([np.ones(7), x])
    res = fit_arrays(_design(X, ["intercept", "x"]), np.concatenate([y0, y1]), GAMMA_LOG)
    assert res.coef("intercept") == pytest.approx(np.log(y0.mean()), abs=1e-8)
    assert res.coef("x") == pytest.approx(np.log(y1.mean() / y0.mean()), abs=1e-8)


def test_gamma_dispersion_is_pearson_over_df():
    y0 = np.array([100.0, 150.0, 200.0, 350.0])
    y1 = np.array([80.0, 90.0, 130.0])
    y = np.concatenate([y0, y1])
    X = np.column_stack([np.ones(7), np.concatenate([np.zeros(4), np.ones(3)])])
    res = fit_arrays(_design(X), y, GAMMA_LOG)
    mu = np.concatenate([np.full(4, y0.mean()), np.full(3, y1.mean())])
    pearson = np.sum(((y - mu) / mu) ** 2)
    assert res.dispersion == pytest.approx(pearson / (7 - 2), rel=1e-8)


def test_gamma_matches_direct_deviance_optimum():
    n = 300
    x = RNG.normal(size=n)
    mu_true = np.exp(4.0 + 0.3 * x)
    y = RNG.gamma(shape=3.0, scale=mu_true / 3.0)
    X = np.column_stack([np.ones(n), x])

    def deviance(b):
        mu = np.exp(X @ b)
        return 2.0 * np.sum((y - mu) / mu - np.log(y / mu))

    oracle = optimize.minimize(
        deviance, np.array([np.log(y.mean()), 0.0]), method="Nelder-Mead",
        options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000},
    ).x
    res = fit_arrays(_design(X), y, GAMMA_LOG)
    assert np.allclose(res.coefficients, oracle, atol=1e-6)


def test_covariate_scaling_invariance():
    n = 200
    x = RNG.normal(size=n)
    y = (RNG.random(n) < 0.4).astype(float)
    X = np.column_stack([np.ones(n), x])
    Xs = np.column_stack([np.ones(n), 10.0 * x])
    a = fit_arrays(_design(X), y, BINOMIAL_LOGIT)
    b = fit_arrays(_design(Xs), y, BINOMIAL_LOGIT)
    assert b.coefficients[1] == pytest.approx(a.coefficients[1] / 10.0, rel=1e-8)
    assert np.allclose(a.mu, b.mu, atol=1e-10)


def test_separation_detected_for_constant_response():
    X = np.column_stack([np.ones(40), RNG.normal(size=40)])
    with pytest.raises(SeparationSuspected):
        fit_arrays(_design(X), np.zeros(40), BINOMIAL_LOGIT)
    with pytest.raises(SeparationSuspected):
        fit_arrays(_design(X), np.ones(40), BINOMIAL_LOGIT)


@pytest.mark.parametrize("family, y", [
    (BINOMIAL_LOGIT, np.tile([0.0, 1.0, 0.5, 1.0], 10)),
    (GAMMA_LOG, np.tile([1.0, 2.0, 0.0, 3.0], 10)),
])
def test_response_outside_the_family_is_a_glm_error(family, y):
    # every way a fit can fail is a GlmError
    X = np.column_stack([np.ones(40), RNG.normal(size=40)])
    with pytest.raises(InvalidResponse) as e:
        fit_arrays(_design(X), y, family)
    assert isinstance(e.value, GlmError)


def test_perfect_predictor_saturates_without_overflow():
    # complete separation on a covariate converges with a large-but-finite
    # linear predictor rather than overflowing
    x = np.concatenate([np.zeros(20), np.ones(20)])
    y = x.copy()
    X = np.column_stack([np.ones(40), x])
    res = fit_arrays(_design(X), y, BINOMIAL_LOGIT)
    assert np.all(np.isfinite(res.coefficients))
    assert np.max(np.abs(res.X @ res.coefficients)) < 30.0


def test_collinear_columns_are_dropped_and_reported():
    X, y = _grouped_binary()
    X2 = np.column_stack([X, X[:, 1]])  # duplicate column
    design = _design(X2, ["intercept", "x", "x_copy"])
    # the design is the matrix that gets fitted: the kept columns only
    assert len(design.dropped) == 1 and design.X.shape == (200, 2)
    assert design.names + design.dropped in (["intercept", "x", "x_copy"],
                                             ["intercept", "x_copy", "x"])
    assert design.X.tobytes() == X.tobytes()
    res = fit_arrays(design, y, BINOMIAL_LOGIT)
    assert res.X is design.X and res.names == design.names
    assert res.dropped_columns == design.dropped
    assert res.coef("intercept") == pytest.approx(np.log(30 / 70), abs=1e-10)


def test_nonconvergence_reports_diagnostics(monkeypatch):
    n = 300
    x = RNG.normal(size=n)
    y = (RNG.random(n) < 1 / (1 + np.exp(-x))).astype(float)
    X = np.column_stack([np.ones(n), x])
    monkeypatch.setattr(glm_engine, "MAX_ITERATIONS", 1)
    with pytest.raises(NonConvergence) as e:
        fit_arrays(_design(X, cluster_ids=np.arange(n) % 5), y, BINOMIAL_LOGIT)
    trace = e.value.deviance_trace
    assert len(trace) == 2
    assert str(e.value) == (
        f"IRLS did not converge in 1 iterations; last deviances {trace[0]!r}, {trace[1]!r}")


# -- robust covariance -------------------------------------------------------

def _clustered_fit(G=25, per=8, family=BINOMIAL_LOGIT):
    n = G * per
    cid = np.repeat(np.arange(G), per)
    u = np.repeat(RNG.normal(scale=0.7, size=G), per)
    x = RNG.normal(size=n)
    if family == BINOMIAL_LOGIT:
        y = (RNG.random(n) < 1 / (1 + np.exp(-(0.2 + 0.5 * x + u)))).astype(float)
    else:
        y = RNG.gamma(shape=2.0, scale=np.exp(3.0 + 0.3 * x + u) / 2.0)
    X = np.column_stack([np.ones(n), x])
    return fit_arrays(_design(X, cluster_ids=cid), y, family), cid


@pytest.mark.parametrize("family", [BINOMIAL_LOGIT, GAMMA_LOG])
def test_sandwich_matches_bruteforce(family):
    res, cid = _clustered_fit(family=family)
    n, p = res.X.shape
    G = len(np.unique(cid))
    if family == GAMMA_LOG:
        resid = (res.y - res.mu) / res.mu
        w = np.ones(n)
    else:
        resid = res.y - res.mu
        w = res.mu * (1 - res.mu)
    bread = np.linalg.inv(res.X.T @ (res.X * w[:, None]))
    meat = np.zeros((p, p))
    for g in np.unique(cid):
        sg = (res.X[cid == g] * resid[cid == g, None]).sum(axis=0)
        meat += np.outer(sg, sg)
    expected = (G / (G - 1)) * ((n - 1) / (n - p)) * bread @ meat @ bread
    assert np.allclose(res.robust_cov, expected, rtol=1e-10)


def test_singleton_clusters_reduce_to_hc1():
    res, _ = _clustered_fit()
    n = res.n_obs
    singleton = cluster_robust_cov(res, np.arange(n), n)
    # G = N makes G/(G-1)*(N-1)/(N-p) = N/(N-p) exactly
    assert np.allclose(singleton, hc1_cov(res), rtol=1e-12)


def test_robust_se_larger_under_cluster_correlation():
    # strong shared cluster effects inflate the cluster-robust SE vs HC1
    res, _ = _clustered_fit(G=40, per=20)
    assert res.robust_se("x0") > 0
    hc1 = np.sqrt(hc1_cov(res)[1, 1])
    assert res.robust_cov[1, 1] > hc1 ** 2 * 0.5  # sanity: same scale


def test_too_few_clusters():
    res, _ = _clustered_fit()
    with pytest.raises(TooFewClusters):
        cluster_robust_cov(res, np.zeros(res.n_obs, dtype=np.intp), 1)


@st.composite
def _clustered_scores(draw):
    """Scores over uneven clusters, singletons among them, in a random row
    order, with magnitudes spread so that the order of a sum shows."""
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=25))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    codes = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    s = rng.normal(size=(len(codes), p)) * 10.0 ** rng.integers(-8, 9, size=(len(codes), p))
    return s, codes, len(sizes)


@settings(max_examples=300, deadline=None)
@given(_clustered_scores())
def test_cluster_sums_keep_the_bits_of_add_at(case):
    s, codes, G = case
    expected = np.zeros((G, s.shape[1]))
    np.add.at(expected, codes, s)
    got = glm_engine._cluster_sums(s, codes, G)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_cluster_robust_cov_same_on_string_ids_and_their_codes():
    # uneven clusters and singletons, ids whose sorted order is not the row order
    sizes = [1, 1, 2, 3, 5, 8, 13, 21, 34, 1, 55, 6]
    cid = np.repeat(np.arange(len(sizes)), sizes)
    n = len(cid)
    x = RNG.normal(size=n)
    y = (RNG.random(n) < 1 / (1 + np.exp(-(0.3 + 0.8 * x)))).astype(float)
    X = np.column_stack([np.ones(n), x])
    ids = np.array([f"dr{(7 * c) % len(sizes)}" for c in cid], dtype=object)
    codes, G = cluster_codes(ids)
    res = fit_arrays(_design(X, cluster_ids=ids), y, BINOMIAL_LOGIT)
    assert G == len(sizes) and res.n_clusters == G
    by_codes = fit_arrays(_design(X, cluster_ids=codes), y, BINOMIAL_LOGIT)
    assert by_codes.robust_cov.tobytes() == res.robust_cov.tobytes()
    assert cluster_robust_cov(res, codes, G).tobytes() == res.robust_cov.tobytes()


def test_fit_on_a_design_reuses_its_rank_check_and_codes(monkeypatch):
    res, cid = _clustered_fit()
    names = ["intercept", "x"]
    responses = {BINOMIAL_LOGIT: res.y, GAMMA_LOG: res.y + 1.0}
    own = {family: fit_arrays(_design(res.X, names, cid), y, family)
           for family, y in responses.items()}
    design = _design(res.X, names, cid)

    def refused(*args, **kwargs):
        raise AssertionError("a fit on a Design rank-checks or codes its clusters again")
    monkeypatch.setattr(glm_engine, "_dependent_columns", refused)
    monkeypatch.setattr(glm_engine, "cluster_codes", refused)
    for family, y in responses.items():
        shared = fit_arrays(design, y, family)
        assert shared.names == names and shared.n_clusters == own[family].n_clusters
        for field in ("coefficients", "model_cov", "robust_cov"):
            assert getattr(shared, field).tobytes() == getattr(own[family], field).tobytes()


@pytest.mark.parametrize("family", [BINOMIAL_LOGIT, GAMMA_LOG])
def test_qr_fallback_matches_cholesky(monkeypatch, family):
    # X'WX that Cholesky rejects is solved by QR on the scaled system; on a
    # well-posed fit both paths must agree
    res, cid = _clustered_fit(G=30, per=10, family=family)
    calls = []

    def not_positive_definite(*args, **kwargs):
        calls.append(1)
        raise np.linalg.LinAlgError("forced")

    monkeypatch.setattr(np.linalg, "cholesky", not_positive_definite)
    qr = fit_arrays(_design(res.X, cluster_ids=cid), res.y, family)
    assert len(calls) == qr.n_iterations + 1  # every IRLS step and the final factor
    assert qr.n_iterations == res.n_iterations
    assert np.allclose(qr.coefficients, res.coefficients, rtol=0, atol=1e-10)
    se_chol = np.sqrt(np.diag(res.robust_cov))
    se_qr = np.sqrt(np.diag(qr.robust_cov))
    assert np.allclose(se_qr, se_chol, rtol=1e-10, atol=0)
    assert np.allclose(qr.model_cov, res.model_cov, rtol=1e-10, atol=0)


def _counted_cholesky(monkeypatch):
    calls = []

    def counted(A, _cholesky=np.linalg.cholesky):
        calls.append(A.shape)
        return _cholesky(A)
    monkeypatch.setattr(np.linalg, "cholesky", counted)
    return calls


def test_gamma_log_fit_factors_its_information_once(monkeypatch):
    # its IRLS weights are identically 1: every step and the bread share X'WX
    res, cid = _clustered_fit(family=GAMMA_LOG)
    calls = _counted_cholesky(monkeypatch)
    fit = fit_arrays(_design(res.X, cluster_ids=cid), res.y, GAMMA_LOG)
    assert fit.n_iterations > 2 and len(calls) == 1


def test_logistic_fit_factors_at_each_step_and_for_its_bread(monkeypatch):
    res, cid = _clustered_fit()
    calls = _counted_cholesky(monkeypatch)
    fit = fit_arrays(_design(res.X, cluster_ids=cid), res.y, BINOMIAL_LOGIT)
    assert fit.n_iterations > 2 and len(calls) == fit.n_iterations + 1


def _refactored_fit(design, y, family):
    """fit_arrays's IRLS with X'WX formed and Cholesky-factored afresh at
    each step and again for the bread, as each step's weighted least squares
    and the information inverse did on their own: (coefficients, mu, bread)."""
    fam = glm_engine._FAMILIES[family]
    X = design.X

    def factored(w):
        Xw = X * w[:, None]
        return Xw, np.linalg.cholesky(Xw.T @ X)

    mu = fam.clip_mu(fam.init_mu(y))
    eta = fam.link(mu)
    deviance = fam.deviance(y, mu)
    for _ in range(glm_engine.MAX_ITERATIONS):
        Xw, L = factored(fam.irls_weights(mu))
        z = fam.working_response(eta, y, mu)
        beta = np.linalg.solve(L.T, np.linalg.solve(L, Xw.T @ z))
        eta = X @ beta
        mu = fam.clip_mu(fam.inv_link(eta))
        new_deviance = fam.deviance(y, mu)
        change = abs(new_deviance - deviance)
        if (change < glm_engine.ABS_DEVIANCE_TOL
                or change < glm_engine.REL_DEVIANCE_TOL * (abs(deviance) + 1e-300)):
            break
        deviance = new_deviance
    _, L = factored(fam.irls_weights(mu))
    inv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(X.shape[1])))
    return beta, mu, (inv + inv.T) / 2.0


@pytest.mark.parametrize("family", [BINOMIAL_LOGIT, GAMMA_LOG])
def test_kept_factor_leaves_every_bit_of_the_fit(family):
    res, cid = _clustered_fit(G=30, per=10, family=family)
    X = np.column_stack([res.X, RNG.normal(size=(res.n_obs, 3))])
    design = _design(X, cluster_ids=cid)
    fit = fit_arrays(design, res.y, family)
    beta, mu, bread = _refactored_fit(design, res.y, family)
    assert fit.coefficients.tobytes() == beta.tobytes()
    assert fit.mu.tobytes() == mu.tobytes()
    assert fit.bread.tobytes() == bread.tobytes()
    model_cov = bread if fit.dispersion is None else fit.dispersion * bread
    assert fit.model_cov.tobytes() == model_cov.tobytes()
    ref = FitResult(family, fit.names, beta, None, None, None, 0.0, 0, fit.n_obs,
                    fit.n_clusters, X=design.X, y=fit.y, mu=mu, bread=bread)
    robust = cluster_robust_cov(ref, design.cluster_codes, design.n_clusters)
    assert fit.robust_cov.tobytes() == robust.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    st.lists(st.text(alphabet=st.characters(blacklist_characters="\x00"), max_size=4),
             max_size=40),
    st.lists(st.integers(-2**40, 2**40), max_size=40),
))
def test_cluster_codes_match_numpy_unique(ids):
    uniq, expected = np.unique(np.asarray(ids), return_inverse=True)
    for given_ids in (ids, np.asarray(ids, dtype=object)):
        codes, G = cluster_codes(given_ids)
        assert G == len(uniq)
        assert codes.dtype == expected.dtype and np.array_equal(codes, expected.ravel())


# -- Wald, AME, CI -----------------------------------------------------------

def _canned_fit(coefs, cov, names=None):
    k = len(coefs)
    return FitResult(
        family=BINOMIAL_LOGIT, names=names or [f"b{i}" for i in range(k)],
        coefficients=np.asarray(coefs, float), model_cov=np.asarray(cov, float),
        robust_cov=np.asarray(cov, float), dispersion=None, deviance=0.0,
        n_iterations=1, n_obs=10, n_clusters=5,
    )


def test_wald_one_df_reference_value():
    # z = 2 gives W = 4 and p = 0.04550
    res = _canned_fit([2.0], [[1.0]])
    w = wald_test(res, ["b0"])
    assert w.statistic == pytest.approx(4.0)
    assert w.df == 1
    assert w.p_value == pytest.approx(0.0455002638, abs=1e-9)
    assert w.p_value == pytest.approx(2 * stats.norm.sf(2.0), rel=1e-12)


def test_wald_two_df_reference_value():
    # W = 2 on 2 df has survival probability exp(-1)
    res = _canned_fit([1.0, 1.0], np.eye(2))
    w = wald_test(res, ["b0", "b1"])
    assert w.statistic == pytest.approx(2.0)
    assert w.p_value == pytest.approx(np.exp(-1.0), rel=1e-12)


def test_wald_correlated_block():
    cov = np.array([[1.0, 0.5], [0.5, 1.0]])
    res = _canned_fit([1.0, -1.0], cov)
    w = wald_test(res, ["b0", "b1"])
    b = np.array([1.0, -1.0])
    assert w.statistic == pytest.approx(b @ np.linalg.solve(cov, b), rel=1e-12)


def test_wald_test_takes_coefficient_names_only():
    # as coef, confidence_interval and marginal_effect do
    res = _canned_fit([2.0, 1.0], np.eye(2))
    assert wald_test(res, ["b1"]).statistic == 1.0
    with pytest.raises(ValueError):
        wald_test(res, [0])


def test_confidence_interval_z_critical():
    res = _canned_fit([1.5], [[0.25]])  # se = 0.5
    lo, hi = confidence_interval(res, "b0")
    zc = stats.norm.ppf(0.975)
    assert lo == pytest.approx(1.5 - zc * 0.5, rel=1e-12)
    assert hi == pytest.approx(1.5 + zc * 0.5, rel=1e-12)


@pytest.mark.parametrize("df", range(1, 11))
def test_wald_p_value_matches_chi2_sf(df):
    for W in [0.0, 1e-12, 0.05, 0.5, 1.0, 3.84, 10.0, 40.0, 200.0]:
        res = _canned_fit([np.sqrt(W / df)] * df, np.eye(df))
        w = wald_test(res, res.names)
        assert w.statistic == pytest.approx(W, rel=1e-12, abs=1e-15)
        assert w.p_value == pytest.approx(stats.chi2.sf(w.statistic, df), rel=1e-10, abs=1e-300)


def test_wald_tiny_negative_statistic_has_p_one():
    # an exact-null fit can leave W at -1e-30 through cancellation
    res = _canned_fit([1e-15], [[-1.0]])
    w = wald_test(res, ["b0"])
    assert w.statistic == pytest.approx(-1e-30, rel=1e-12)
    assert w.p_value == 1.0


def test_wald_leaves_out_zero_variance_coefficients():
    # an exact-null coefficient: estimate and variance both at zero
    res = _canned_fit([1e-16, 2.0], [[0.0, 0.0], [0.0, 4.0]])
    assert wald_test(res, ["b0", "b1"]) == wald_test(res, ["b1"])
    assert wald_test(res, ["b1"]).df == 1 and wald_test(res, ["b1"]).statistic == 1.0
    assert wald_test(res, ["b0"]) == WaldResult(0.0, 0, 1.0)
    # a zero variance under a nonzero estimate leaves nothing to scale it by
    res = _canned_fit([1.0, 2.0], [[0.0, 0.0], [0.0, 4.0]])
    for names in (["b0"], ["b0", "b1"]):
        with pytest.raises(SingularSubmatrix):
            wald_test(res, names)


def test_exact_null_fit_has_zero_robust_variance():
    # Every cluster holds the same outcomes before and after, so each
    # cluster's scores cancel along post and exposed:post; rounding leaves
    # those sandwich variances at either sign unless they are zeroed.
    exposed = np.repeat([1.0, 0.0, 1.0, 0.0], 100)
    post = np.repeat([0.0, 0.0, 1.0, 1.0], 100)
    y = np.tile((np.arange(100) < 25).astype(float), 4)
    cid = np.array([f"{e:.0f}-{j % 10}" for e, j in zip(exposed, np.tile(np.arange(100), 4))])
    X = np.column_stack([np.ones(400), exposed, post, exposed * post])
    res = fit_arrays(_design(X, ["intercept", "exposed", "post", "exposed:post"], cid),
                     y, BINOMIAL_LOGIT)
    assert res.robust_cov[3, 3] == 0.0 and not res.robust_cov[3].any()
    assert res.robust_cov[1, 1] > 0.0
    assert wald_test(res, ["exposed:post"]) == WaldResult(0.0, 0, 1.0)


@pytest.mark.parametrize("level", [0.5, 0.8, 0.9, 0.95, 0.99, 0.999])
def test_confidence_interval_matches_norm_ppf(monkeypatch, level):
    res = _canned_fit([0.3], [[4.0]])  # se = 2
    monkeypatch.setattr(glm_engine, "CI_LEVEL", level)
    lo, hi = confidence_interval(res, "b0")
    zc = stats.norm.ppf(0.5 + level / 2.0)
    assert lo == pytest.approx(0.3 - 2.0 * zc, rel=1e-12)
    assert hi == pytest.approx(0.3 + 2.0 * zc, rel=1e-12)


SIM_REPLICATE_MODULES = ("rxdid.synthgen", "rxdid.prescriber_profile",
                         "rxdid.cohort_builder", "rxdid.measures", "rxdid.study_analysis")


def test_imports_load_no_scipy():
    # scipy costs about 0.3 s and 30 MiB of every cold start
    import rxdid
    src = os.path.dirname(os.path.dirname(rxdid.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for modules in (("rxdid.cli",), SIM_REPLICATE_MODULES):
        code = (f"import sys, {', '.join(modules)}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, env=env)
        assert out.stdout.strip() == "[]", modules


# -- rank check against LAPACK's pivoted QR ---------------------------------

def _scipy_dependent_columns(X):
    R, piv = scipy.linalg.qr(X, mode="r", pivoting=True)
    diag = np.abs(np.diag(R))
    if diag.size == 0 or diag[0] == 0.0:
        return list(range(X.shape[1]))
    tol = diag[0] * max(X.shape) * np.finfo(float).eps
    return sorted([int(piv[i]) for i in range(len(diag)) if diag[i] <= tol]
                  + [int(i) for i in piv[len(diag):]])


@st.composite
def _designs(draw):
    """An intercept, procedure dummies (with or without a reference level),
    binary and continuous covariates, zero columns and copies of columns,
    in shuffled order; and whether the columns before the zeros and
    copies have full rank with a reference level left out."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 60))
    levels = draw(st.integers(2, 6))
    all_levels = draw(st.booleans())
    procedure = rng.integers(0, levels, n)
    cols = [np.ones(n)] + [(procedure == j).astype(float)
                           for j in range(0 if all_levels else 1, levels)]
    cols += [(rng.random(n) < 0.3).astype(float) for _ in range(draw(st.integers(0, 3)))]
    cols += [rng.normal(size=n) * draw(st.sampled_from([0.1, 1.0, 10.0]))
             for _ in range(draw(st.integers(0, 3)))]
    base = np.column_stack(cols)
    tie_free = not all_levels and np.linalg.matrix_rank(base) == base.shape[1]
    cols += [np.zeros(n)] * draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 3))):
        cols.append(cols[draw(st.integers(0, len(cols) - 1))].copy())
    order = draw(st.permutations(range(len(cols))))
    return np.column_stack([cols[i] for i in order]), tie_free


@settings(max_examples=300, deadline=None)
@given(_designs())
def test_dependent_columns_match_scipy_pivoted_qr(design):
    X, tie_free = design
    ours = glm_engine._dependent_columns(X)
    theirs = _scipy_dependent_columns(X)
    # Both keep a full-rank set spanning X's columns.
    kept = np.delete(X, ours, axis=1)
    assert len(ours) == len(theirs)
    assert np.linalg.matrix_rank(kept) == kept.shape[1] == np.linalg.matrix_rank(X)
    if tie_free:
        # Only zero columns and copies are dependent. Two copies tie, and
        # LAPACK breaks that tie by its own rounding, so the two agree on
        # which columns are dropped up to which copy of a column goes.
        assert (sorted(X[:, i].tobytes() for i in ours)
                == sorted(X[:, i].tobytes() for i in theirs))


def test_marginal_effect_two_group_closed_form():
    # saturated model: AME equals the raw risk difference 0.30 - 0.50 = -0.20
    X, y = _grouped_binary(n0=100, k0=50, n1=100, k1=30)
    res = fit_arrays(_design(X, ["intercept", "x"], np.arange(200) % 10), y, BINOMIAL_LOGIT)
    ame = marginal_effect(res, "x")
    assert ame.effect == pytest.approx(-0.20, abs=1e-8)
    assert ame.ci_low < ame.effect < ame.ci_high
    assert ame.se > 0


def test_marginal_effect_gamma_mean_difference():
    # group means 100 and 150: AME is +50 on the response scale
    y = np.concatenate([np.full(30, 100.0) + RNG.normal(scale=1e-6, size=30),
                        np.full(30, 150.0) + RNG.normal(scale=1e-6, size=30)])
    x = np.concatenate([np.zeros(30), np.ones(30)])
    X = np.column_stack([np.ones(60), x])
    res = fit_arrays(_design(X, ["intercept", "x"], np.arange(60) % 6), y, GAMMA_LOG)
    assert marginal_effect(res, "x").effect == pytest.approx(50.0, abs=1e-3)


@pytest.mark.parametrize("family", [BINOMIAL_LOGIT, GAMMA_LOG])
def test_marginal_effect_matches_counterfactual_designs(family):
    # reference: predict on two full copies of X with the term set to 1 and 0
    res, cid = _clustered_fit(G=30, per=10, family=family)
    d = (RNG.random(res.n_obs) < 0.5).astype(float)
    X = np.column_stack([res.X, d, d * res.X[:, 1]])
    fit_d = fit_arrays(_design(X, ["intercept", "x", "d", "d:x"], cid), res.y, family)
    inv_link = (lambda e: 1 / (1 + np.exp(-e))) if family == BINOMIAL_LOGIT else np.exp
    deriv = (lambda e: inv_link(e) * (1 - inv_link(e))) if family == BINOMIAL_LOGIT else np.exp
    for j, term in [(2, "d"), (3, "d:x")]:
        X1, X0 = X.copy(), X.copy()
        X1[:, j], X0[:, j] = 1.0, 0.0
        e1, e0 = X1 @ fit_d.coefficients, X0 @ fit_d.coefficients
        effect = np.mean(inv_link(e1) - inv_link(e0))
        grad = np.mean(deriv(e1)[:, None] * X1 - deriv(e0)[:, None] * X0, axis=0)
        ame = marginal_effect(fit_d, term)
        assert ame.effect == pytest.approx(effect, rel=1e-10)
        assert ame.se == pytest.approx(np.sqrt(grad @ fit_d.robust_cov @ grad), rel=1e-10)


def test_marginal_effect_absent_term_raises():
    # as coef, confidence_interval and wald_test do for a term the fit lacks
    res = _canned_fit([1.0], [[1.0]])
    with pytest.raises(ValueError):
        marginal_effect(res, "not_there")
