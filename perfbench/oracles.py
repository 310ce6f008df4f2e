"""Reference computations for the benchmark's output checks, in numpy only.

None of this code calls rxdid.  Each DiD estimate the program reports is
refitted here by Newton's method on the log-likelihood (logistic, and
gamma with a log link using the observed information), its cluster-robust
standard error is rebuilt as a sandwich summed cluster by cluster in a
Python loop, and the program's own coefficients are put back into the
quasi-score equations X'(y - mu) * scale = 0.

Each check returns a list of problems; an empty list means agreement.
"""
from __future__ import annotations

import math

import numpy as np

LOGIT = "binomial_logit"
GAMMA_LOG = "gamma_log"

# Two-sided 95% normal critical value, as the program's intervals use.
Z95 = 1.959963984540054

# Tolerances fixed from the float64 accuracy of a converged fit: IRLS and
# Newton reach the same optimum to ~1e-9 relative, far inside these.
COEF_TOL = 1e-6     # |b_program - b_newton| / max(1, |b_newton|)
SE_TOL = 1e-5       # |se_program - se_sandwich| / se_sandwich
SCORE_TOL = 1e-6    # max_j |sum_i x_ij r_i| / sum_i |x_ij r_i|


def design(columns: dict[str, np.ndarray], names: list[str]) -> np.ndarray:
    """Columns named as the program names them: 'intercept', 'a', 'a:b'."""
    n = len(next(iter(columns.values())))
    cols = []
    for name in names:
        if name == "intercept":
            cols.append(np.ones(n))
            continue
        col = np.ones(n)
        for part in name.split(":"):
            col = col * np.asarray(columns[part], dtype=float)
        cols.append(col)
    return np.column_stack(cols)


def _mean(family: str, X: np.ndarray, beta: np.ndarray) -> np.ndarray:
    eta = X @ beta
    if family == LOGIT:
        return 1.0 / (1.0 + np.exp(-eta))
    return np.exp(eta)


def _loglik(family: str, X, y, beta) -> float:
    eta = X @ beta
    if family == LOGIT:
        # sum y*eta - log(1 + e^eta), written to avoid overflow
        return float(np.sum(y * eta - np.logaddexp(0.0, eta)))
    return float(np.sum(-y * np.exp(-eta) - eta))


def newton_refit(family: str, X: np.ndarray, y: np.ndarray,
                 max_steps: int = 200) -> np.ndarray:
    """Maximum-likelihood coefficients by damped Newton steps.

    Logistic: gradient X'(y - mu), Hessian -X' diag(mu(1-mu)) X.
    Gamma, log link: gradient X'(y/mu - 1), observed Hessian
    -X' diag(y/mu) X (the dispersion does not move the optimum).
    Both log-likelihoods are concave, so halving a step until the
    likelihood rises always succeeds.
    """
    n, p = X.shape
    if family == LOGIT:
        beta = np.zeros(p)
    else:
        beta = np.linalg.lstsq(X, np.log(y), rcond=None)[0]
    ll = _loglik(family, X, y, beta)
    for _ in range(max_steps):
        mu = _mean(family, X, beta)
        if family == LOGIT:
            grad = X.T @ (y - mu)
            h = mu * (1.0 - mu)
        else:
            grad = X.T @ (y / mu - 1.0)
            h = y / mu
        step = np.linalg.solve((X * h[:, None]).T @ X, grad)
        t = 1.0
        while True:
            cand = beta + t * step
            ll_new = _loglik(family, X, y, cand)
            if ll_new >= ll or t < 1e-8:
                break
            t /= 2.0
        beta, ll_old, ll = cand, ll, ll_new
        if np.max(np.abs(t * step)) < 1e-12 or abs(ll - ll_old) <= 1e-15 * abs(ll):
            return beta
    raise ArithmeticError(f"Newton refit did not converge in {max_steps} steps")


def _residual(family: str, y, mu):
    # Quasi-score residual: (y - mu) * (dmu/deta) / V(mu)
    return (y - mu) if family == LOGIT else (y - mu) / mu


def cluster_sandwich(family: str, X, y, beta, clusters) -> np.ndarray:
    """Cluster-robust covariance, one cluster at a time.

    Bread: inverse expected information X'WX.  Meat: sum over clusters
    of s_g s_g', s_g the cluster's score sum.  Correction
    G/(G-1) * (n-1)/(n-p).
    """
    n, p = X.shape
    mu = _mean(family, X, beta)
    r = _residual(family, y, mu)
    w = mu * (1.0 - mu) if family == LOGIT else np.ones(n)
    bread = np.linalg.inv((X * w[:, None]).T @ X)
    members: dict = {}
    for i, g in enumerate(clusters):
        members.setdefault(g, []).append(i)
    meat = np.zeros((p, p))
    for rows in members.values():
        s = X[rows].T @ r[rows]
        meat += np.outer(s, s)
    G = len(members)
    cov = (G / (G - 1.0)) * ((n - 1.0) / (n - p)) * bread @ meat @ bread
    return (cov + cov.T) / 2.0


def score_problems(family, X, y, beta, names) -> list[str]:
    """The program's coefficients must solve the score equations."""
    r = _residual(family, y, _mean(family, X, beta))
    score = X.T @ r
    scale = np.abs(X).T @ np.abs(r)
    rel = np.abs(score) / np.where(scale > 0, scale, 1.0)
    j = int(np.argmax(rel))
    if rel[j] > SCORE_TOL:
        return [f"score equation for {names[j]} is off by {rel[j]:.3g} (relative)"]
    return []


def estimate_problems(label: str, family: str, X, y, clusters, term_index: int,
                      reported_coef: float, reported_se: float) -> list[str]:
    """Refit by Newton and rebuild the sandwich; compare one term."""
    beta = newton_refit(family, X, y)
    cov = cluster_sandwich(family, X, y, beta, clusters)
    coef = float(beta[term_index])
    se = math.sqrt(max(float(cov[term_index, term_index]), 0.0))
    problems = []
    if abs(reported_coef - coef) > COEF_TOL * max(1.0, abs(coef)):
        problems.append(f"{label}: coefficient {reported_coef!r} != Newton refit {coef!r}")
    if abs(reported_se - se) > SE_TOL * se:
        problems.append(f"{label}: robust SE {reported_se!r} != cluster sandwich {se!r}")
    return problems


def rank_problems(label: str, X: np.ndarray, dropped: np.ndarray | None) -> list[str]:
    """Kept columns are independent; each dropped one lies in their span."""
    p = X.shape[1]
    if np.linalg.matrix_rank(X) != p:
        return [f"{label}: the kept design columns are linearly dependent"]
    if dropped is not None:
        for j in range(dropped.shape[1]):
            if np.linalg.matrix_rank(np.column_stack([X, dropped[:, j]])) != p:
                return [f"{label}: a dropped column is not collinear with the rest"]
    return []
