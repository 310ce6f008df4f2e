"""Self-test of the numpy oracles: each must accept the right answer and
reject a perturbed coefficient or standard error.

Run:  python3 perfbench/selftest.py   (exit 0 when every case holds)
"""
from __future__ import annotations

import math
import os
import sys

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import oracles  # noqa: E402
from oracles import GAMMA_LOG, LOGIT  # noqa: E402

# Perturbations 100x the tolerances they must trip.
COEF_NUDGE = 100 * oracles.COEF_TOL
SE_NUDGE = 100 * oracles.SE_TOL


def _data(rng, n=600, n_clusters=30):
    a = (rng.random(n) < 0.5).astype(float)
    b = (rng.random(n) < 0.5).astype(float)
    z = rng.normal(size=n)
    X = np.column_stack([np.ones(n), a, b, a * b, z])
    clusters = rng.integers(0, n_clusters, size=n)
    u = rng.normal(scale=0.3, size=n_clusters)[clusters]
    eta = X @ np.array([-0.8, 0.4, 0.2, -0.36, 0.3]) + u
    y_logit = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
    y_gamma = rng.gamma(4.0, np.exp(eta + 4.0) / 4.0)
    return X, clusters, y_logit, y_gamma


def run() -> list[str]:
    """All self-test failures; empty when every oracle behaves."""
    failures = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            failures.append(what)

    # Newton against closed forms: a saturated two-group logit recovers
    # the log odds ratio, an intercept-only gamma model log(mean y).
    x = np.repeat([0.0, 1.0], 100)
    y = np.concatenate([np.repeat([0.0, 1.0], [70, 30]), np.repeat([0.0, 1.0], [90, 10])])
    b = oracles.newton_refit(LOGIT, np.column_stack([np.ones(200), x]), y)
    expect(abs(b[0] - math.log(30 / 70)) < 1e-10, "logit intercept closed form")
    expect(abs(b[1] - math.log((10 / 90) / (30 / 70))) < 1e-10, "logit slope closed form")
    yg = np.array([2.0, 4.0, 5.0, 6.0, 8.0])
    bg = oracles.newton_refit(GAMMA_LOG, np.ones((5, 1)), yg)
    expect(abs(bg[0] - math.log(5.0)) < 1e-12, "gamma intercept closed form")

    rng = np.random.default_rng(20190610)
    X, clusters, y_logit, y_gamma = _data(rng)
    names = ["intercept", "a", "b", "a:b", "z"]
    j = 3
    for family, yv in ((LOGIT, y_logit), (GAMMA_LOG, y_gamma)):
        beta = oracles.newton_refit(family, X, yv)
        cov = oracles.cluster_sandwich(family, X, yv, beta, clusters)
        se = math.sqrt(cov[j, j])

        def check(coef, s):
            return oracles.estimate_problems(family, family, X, yv, clusters, j, coef, s)

        expect(check(beta[j], se) == [], f"{family}: exact estimate accepted")
        expect(check(beta[j] + COEF_NUDGE, se) != [], f"{family}: nudged coefficient rejected")
        expect(check(beta[j], se * (1 + SE_NUDGE)) != [], f"{family}: nudged SE rejected")

        expect(oracles.score_problems(family, X, yv, beta, names) == [],
               f"{family}: score equations hold at the optimum")
        nudged = beta.copy()
        nudged[j] += COEF_NUDGE
        expect(oracles.score_problems(family, X, yv, nudged, names) != [],
               f"{family}: score equations fail at a nudged coefficient")

        # With one observation per cluster the sandwich is HC1.
        n, p = X.shape
        mu = oracles._mean(family, X, beta)
        r = oracles._residual(family, yv, mu)
        w = mu * (1 - mu) if family == LOGIT else np.ones(n)
        bread = np.linalg.inv((X * w[:, None]).T @ X)
        s = X * r[:, None]
        hc1 = (n / (n - p)) * bread @ (s.T @ s) @ bread
        single = oracles.cluster_sandwich(family, X, yv, beta, np.arange(n))
        expect(np.max(np.abs(single - hc1)) < 1e-12 * np.max(np.abs(hc1)),
               f"{family}: singleton-cluster sandwich equals HC1")

    expect(oracles.rank_problems("full", X, X[:, [1]] + X[:, [2]]) == [],
           "dependent dropped column accepted")
    expect(oracles.rank_problems("dup", X, X[:, [4]] ** 2) != [],
           "independent dropped column rejected")
    expect(oracles.rank_problems("dup", np.column_stack([X, X[:, 1]]), None) != [],
           "dependent kept columns rejected")
    return failures


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print(f"FAIL {p}")
    print("oracle self-test:", "ok" if not problems else f"{len(problems)} failures")
    sys.exit(1 if problems else 0)
