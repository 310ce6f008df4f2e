"""IRLS fitting for logistic and gamma(log) GLMs, cluster-robust
sandwich covariance, Wald tests, and average marginal effects."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

MAX_ITERATIONS = 100
REL_DEVIANCE_TOL = 1e-9
ABS_DEVIANCE_TOL = 1e-12
# The clip bounds fitted logistic probabilities away from 0/1 so a
# quasi-separated nuisance column saturates (|eta| ~ 23) instead of
# overflowing; constant responses are rejected up front.
MU_EPS = 1e-10
CI_LEVEL = 0.95


class GlmError(Exception):
    pass


class InvalidResponse(GlmError):
    pass


class SeparationSuspected(GlmError):
    pass


class TooFewClusters(GlmError):
    pass


class SingularSubmatrix(GlmError):
    pass


class NonConvergence(GlmError):
    def __init__(self, message: str, deviance_trace: list[float]):
        self.deviance_trace = deviance_trace
        super().__init__(message)


BINOMIAL_LOGIT = "binomial_logit"
GAMMA_LOG = "gamma_log"


class _Logit:
    name = BINOMIAL_LOGIT

    @staticmethod
    def check_response(y):
        if not np.all((y == 0) | (y == 1)):
            raise InvalidResponse("logistic response must be binary in {0, 1}")
        if len(y) and (np.all(y == 0) or np.all(y == 1)):
            raise SeparationSuspected(
                "constant binary response; the intercept diverges"
            )

    @staticmethod
    def init_mu(y):
        return (y + 0.5) / 2.0

    @staticmethod
    def link(mu):
        return np.log(mu / (1.0 - mu))

    @staticmethod
    def inv_link(eta):
        return 1.0 / (1.0 + np.exp(-eta))

    @staticmethod
    def inv_link_deriv(eta):
        mu = 1.0 / (1.0 + np.exp(-eta))
        return mu * (1.0 - mu)

    @staticmethod
    def irls_weights(mu):
        # W = (dmu/deta)^2 / V(mu) = mu(1-mu) under the canonical link
        return mu * (1.0 - mu)

    @staticmethod
    def working_response(eta, y, mu):
        return eta + (y - mu) / (mu * (1.0 - mu))

    @staticmethod
    def deviance(y, mu):
        return -2.0 * np.sum(y * np.log(mu) + (1.0 - y) * np.log(1.0 - mu))

    @staticmethod
    def score_scale(mu):
        # (dmu/deta) / V(mu), multiplying (y - mu) in the quasi-score
        return np.ones_like(mu)

    @staticmethod
    def clip_mu(mu):
        return np.clip(mu, MU_EPS, 1.0 - MU_EPS)

    has_dispersion = False


class _GammaLog:
    name = GAMMA_LOG

    @staticmethod
    def check_response(y):
        if not np.all(y > 0):
            raise InvalidResponse("gamma response must be strictly positive")

    @staticmethod
    def init_mu(y):
        return np.asarray(y, dtype=float).copy()

    @staticmethod
    def link(mu):
        return np.log(mu)

    @staticmethod
    def inv_link(eta):
        return np.exp(eta)

    @staticmethod
    def inv_link_deriv(eta):
        return np.exp(eta)

    @staticmethod
    def irls_weights(mu):
        # (dmu/deta)^2 / V = mu^2 / mu^2 = 1 under the log link
        return np.ones_like(mu)

    @staticmethod
    def working_response(eta, y, mu):
        return eta + (y - mu) / mu

    @staticmethod
    def deviance(y, mu):
        return 2.0 * np.sum((y - mu) / mu - np.log(y / mu))

    @staticmethod
    def score_scale(mu):
        return 1.0 / mu

    @staticmethod
    def clip_mu(mu):
        return np.maximum(mu, MU_EPS)

    has_dispersion = True


_FAMILIES = {BINOMIAL_LOGIT: _Logit, GAMMA_LOG: _GammaLog}


@dataclass
class FitResult:
    """A converged fit on a Design's columns, with its cluster-robust
    covariance: fit_arrays returns no other kind."""

    family: str
    names: list[str]
    coefficients: np.ndarray
    model_cov: np.ndarray
    robust_cov: np.ndarray
    dispersion: float | None
    deviance: float
    n_iterations: int
    n_obs: int
    n_clusters: int
    dropped_columns: list[str] = field(default_factory=list)
    deviance_trace: list[float] = field(default_factory=list)
    X: np.ndarray | None = None
    y: np.ndarray | None = None
    mu: np.ndarray | None = None
    # (X'WX)^-1 at the final mu: the sandwich bread, and model_cov up to
    # the dispersion
    bread: np.ndarray | None = None

    def coef(self, name: str) -> float:
        return float(self.coefficients[self.names.index(name)])

    def robust_se(self, name: str) -> float:
        i = self.names.index(name)
        # cancellation can leave a -1e-30-scale diagonal on exact-null fits
        return float(np.sqrt(max(self.robust_cov[i, i], 0.0)))


def _dependent_columns(X: np.ndarray) -> list[int]:
    """Column-pivoted Householder QR detection of linearly dependent columns.

    X = QR, so R has X's column norms and inner products, and a pivoted QR
    of the small R chooses the pivots a pivoted QR of X would, for the cost
    of one unpivoted LAPACK QR. Each step pivots on the column of largest
    remaining norm. A pivot at or below diag[0] * max(X.shape) * eps, and
    any column past min(X.shape), is dependent.
    """
    p = X.shape[1]
    if p == 0:
        return []
    A = np.linalg.qr(X, mode="r")
    k = A.shape[0]
    order = list(range(p))
    diag = np.zeros(k)
    for i in range(k):
        norms = np.linalg.norm(A[i:, i:], axis=0)
        j = int(np.argmax(norms))
        diag[i] = norms[j]
        j += i
        A[:, [i, j]] = A[:, [j, i]]
        order[i], order[j] = order[j], order[i]
        # reflect A[i:, i] onto its first axis
        v = A[i:, i].copy()
        v[0] += math.copysign(diag[i], v[0])
        vv = v @ v
        if vv > 0.0:
            A[i:, i:] -= np.outer(v, (2.0 / vv) * (v @ A[i:, i:]))
    if k == 0 or diag[0] == 0.0:
        return list(range(p))
    tol = diag[0] * max(X.shape) * np.finfo(float).eps
    bad = [order[i] for i in range(k) if diag[i] <= tol] + order[k:]
    return sorted(bad)


class _NormalEquations:
    """X'WX b = X'Wz and (X'WX)^-1 for one X, by the Cholesky factor
    X'WX = LL'. The factor is kept while the weights stay equal: a
    gamma(log) fit's are identically 1, so its steps and its bread share
    one factor. Where X'WX is not numerically positive definite, each
    call solves by thin QR on the scaled system and nothing is kept."""

    def __init__(self, X: np.ndarray):
        self.X = X
        self.w = self.Xw = self.L = None

    def _factor(self, w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """X*w and L at w; LinAlgError unless X'WX is numerically positive definite."""
        if self.w is None or not np.array_equal(w, self.w):
            # the old n x p X*w goes before the new one is made
            self.w = self.Xw = self.L = None
            Xw = self.X * w[:, None]
            L = np.linalg.cholesky(Xw.T @ self.X)
            self.w, self.Xw, self.L = w, Xw, L
        return self.Xw, self.L

    def wls_step(self, w: np.ndarray, z: np.ndarray) -> np.ndarray:
        """Weighted least squares from the normal equations X'WX b = X'Wz."""
        try:
            Xw, L = self._factor(w)
        except np.linalg.LinAlgError:
            sw = np.sqrt(w)
            Q, R = np.linalg.qr(self.X * sw[:, None])
            # R is upper triangular, so LU's partial pivoting keeps its rows
            # in place and this solve is back substitution
            return np.linalg.solve(R, Q.T @ (z * sw))
        return np.linalg.solve(L.T, np.linalg.solve(L, Xw.T @ z))

    def information_inverse(self, w: np.ndarray) -> np.ndarray:
        """(X'WX)^-1, symmetrized."""
        p = self.X.shape[1]
        try:
            _, L = self._factor(w)
        except np.linalg.LinAlgError:
            R = np.linalg.qr(self.X * np.sqrt(w)[:, None], mode="r")
            R_inv = np.linalg.solve(R, np.eye(p))
            inv = R_inv @ R_inv.T
        else:
            inv = np.linalg.solve(L.T, np.linalg.solve(L, np.eye(p)))
        return (inv + inv.T) / 2.0


def cluster_codes(cluster_ids) -> tuple[np.ndarray, int]:
    """Integer codes 0..G-1 of the ids, in the ids' sorted order, and G."""
    # a dict lookup per id: np.unique on an object array sorts every id
    code = {cid: k for k, cid in enumerate(sorted(set(cluster_ids)))}
    return np.fromiter(map(code.__getitem__, cluster_ids), np.intp, len(cluster_ids)), len(code)


@dataclass(frozen=True)
class Design:
    """The matrix every fit on it solves: the columns the rank check kept,
    their names, the names of the dependent columns it dropped, and the
    integer codes of the rows' clusters. Build one with prepare_design."""

    X: np.ndarray
    names: list[str]
    dropped: list[str]
    cluster_codes: np.ndarray
    n_clusters: int


def prepare_design(X: np.ndarray, names: list[str], cluster_ids) -> Design:
    """Rank-check X, drop its dependent columns and code its cluster ids
    once, for any number of fits."""
    X = np.asarray(X, dtype=float)
    dependent = _dependent_columns(X)
    keep = [i for i in range(X.shape[1]) if i not in dependent]
    if dependent:
        X = X[:, keep]
    codes, n_clusters = cluster_codes(cluster_ids)
    return Design(X, [names[i] for i in keep], [names[i] for i in dependent],
                  codes, n_clusters)


def fit_arrays(design: Design, y: np.ndarray, family: str) -> FitResult:
    """IRLS fit on a Design, with its cluster-robust covariance. A fit that
    does not converge in MAX_ITERATIONS raises NonConvergence."""
    y = np.asarray(y, dtype=float)
    fam = _FAMILIES[family]
    fam.check_response(y)

    X = design.X
    n, p = X.shape
    normal = _NormalEquations(X)
    mu = fam.clip_mu(fam.init_mu(y))
    eta = fam.link(mu)
    deviance = fam.deviance(y, mu)
    trace = [float(deviance)]
    for iterations in range(1, MAX_ITERATIONS + 1):
        w = fam.irls_weights(mu)
        z = fam.working_response(eta, y, mu)
        beta = normal.wls_step(w, z)
        eta = X @ beta
        mu = fam.clip_mu(fam.inv_link(eta))
        new_deviance = fam.deviance(y, mu)
        trace.append(float(new_deviance))
        change = abs(new_deviance - deviance)
        if change < ABS_DEVIANCE_TOL or change < REL_DEVIANCE_TOL * (abs(deviance) + 1e-300):
            deviance = new_deviance
            break
        deviance = new_deviance
    else:
        last = ", ".join(repr(d) for d in trace[-2:])
        raise NonConvergence(
            f"IRLS did not converge in {MAX_ITERATIONS} iterations; last deviances {last}",
            trace)

    # Quasi-separated columns saturate against the probability clip and the
    # fit proceeds (matching standard GLM software); complete separation via
    # a constant response is rejected in check_response above.
    # One factor of the expected information X'WX serves model_cov and
    # the sandwich bread.
    bread = normal.information_inverse(fam.irls_weights(mu))
    del normal  # so that its n x p X*w and the sandwich's scores are not alive together

    dispersion = None
    model_cov = bread
    if fam.has_dispersion:
        pearson = np.sum(((y - mu) / mu) ** 2)
        dispersion = float(pearson / (n - p)) if n > p else float("nan")
        model_cov = dispersion * bread

    result = FitResult(
        family=family, names=list(design.names), coefficients=beta,
        model_cov=model_cov, robust_cov=None, dispersion=dispersion,
        deviance=float(deviance), n_iterations=iterations, n_obs=n,
        n_clusters=design.n_clusters, dropped_columns=list(design.dropped),
        deviance_trace=trace, X=X, y=y, mu=mu, bread=bread,
    )
    # the sandwich reads the fit's X, y, mu and bread
    result.robust_cov = cluster_robust_cov(result, design.cluster_codes, design.n_clusters)
    return result


def _scores(fit_result: FitResult) -> np.ndarray:
    """Per-observation quasi-score contributions (n x p)."""
    fam = _FAMILIES[fit_result.family]
    resid = (fit_result.y - fit_result.mu) * fam.score_scale(fit_result.mu)
    return fit_result.X * resid[:, None]


def _cluster_sums(s: np.ndarray, codes: np.ndarray, G: int) -> np.ndarray:
    """Each cluster's sum of the rows of s (G x p). bincount adds each
    column's rows in row order, as np.add.at does, so the sums keep its bits."""
    return np.column_stack([np.bincount(codes, weights=col, minlength=G) for col in s.T])


def cluster_robust_cov(fit_result: FitResult, codes: np.ndarray, G: int) -> np.ndarray:
    """Sandwich B^-1 M B^-1 over per-cluster score sums.

    codes are the rows' integer cluster codes 0..G-1, as cluster_codes
    gives them and a Design holds them. Finite-sample correction
    G/(G-1) * (N-1)/(N-p); with singleton clusters this collapses to the
    HC1 factor N/(N-p).
    """
    n, p = fit_result.X.shape
    if G < 2:
        raise TooFewClusters(f"need at least 2 clusters, got {G}")

    cluster_sums = _cluster_sums(_scores(fit_result), codes, G)
    meat = cluster_sums.T @ cluster_sums

    bread = fit_result.bread
    correction = (G / (G - 1.0)) * ((n - 1.0) / (n - p))
    cov = correction * bread @ meat @ bread
    cov = (cov + cov.T) / 2.0
    # Where every cluster's scores cancel along a coefficient, as on an
    # exact-null fit, its robust variance is zero, and cancellation leaves it
    # at either sign. A variance within rounding of the sandwich's absolute
    # terms, at the rank check's tolerance, is set to exactly zero.
    scale = correction * np.diag(np.abs(bread) @ np.abs(meat) @ np.abs(bread))
    zero = np.diag(cov) <= max(n, p) * np.finfo(float).eps * scale
    cov[zero, :] = 0.0
    cov[:, zero] = 0.0
    return cov


def hc1_cov(fit_result: FitResult) -> np.ndarray:
    """Heteroskedasticity-consistent covariance with the N/(N-p) factor."""
    n, p = fit_result.X.shape
    s = _scores(fit_result)
    meat = s.T @ s
    bread = fit_result.bread
    cov = (n / (n - p)) * bread @ meat @ bread
    return (cov + cov.T) / 2.0


@dataclass(frozen=True)
class WaldResult:
    statistic: float
    df: int
    p_value: float


def wald_test(fit_result: FitResult, names: list[str]) -> WaldResult:
    """Joint chi-square test that the named coefficients are zero (robust covariance).

    On an exact-null fit a coefficient can have both its estimate and its
    robust variance at zero: it is left out, with its degree of freedom, and
    a test left with none has W = 0 and p = 1. A zero variance under a
    nonzero estimate leaves the test singular.
    """
    idx = [fit_result.names.index(name) for name in names]
    cov = fit_result.robust_cov
    coefs = fit_result.coefficients
    rounding = (max(fit_result.n_obs, len(coefs)) * np.finfo(float).eps
                * max(1.0, float(np.abs(coefs).max())))
    idx = [i for i in idx if cov[i, i] != 0.0 or abs(coefs[i]) > rounding]
    b = coefs[idx]
    V = cov[np.ix_(idx, idx)]
    try:
        sol = np.linalg.solve(V, b)
    except np.linalg.LinAlgError:
        raise SingularSubmatrix(f"covariance submatrix for {names} is singular")
    if not np.all(np.isfinite(sol)):
        raise SingularSubmatrix(f"covariance submatrix for {names} is singular")
    W = float(b @ sol)
    df = len(idx)
    # cancellation can leave a -1e-30-scale W on an exact-null fit
    return WaldResult(W, df, _chi2_sf(max(W, 0.0), df))


def _chi2_sf(x: float, df: int) -> float:
    """P(chi-square on integer df > x) in closed form.

    Even df = 2m: exp(-x/2) sum_{k<m} (x/2)^k / k!, a Poisson tail.
    Odd df = 2m+1: erfc(sqrt(x/2)) + sqrt(2x/pi) exp(-x/2)
    sum_{k<m} x^k / (1*3*...*(2k+1)).
    """
    if x <= 0.0:
        return 1.0
    if df % 2 == 0:
        term = math.exp(-x / 2.0)
        total = term
        for k in range(1, df // 2):
            term *= x / (2.0 * k)
            total += term
        return total
    term = math.sqrt(2.0 * x / math.pi) * math.exp(-x / 2.0)
    total = 0.0
    for k in range(df // 2):
        total += term
        term *= x / (2.0 * k + 3.0)
    return math.erfc(math.sqrt(x / 2.0)) + total


@dataclass(frozen=True)
class MarginalEffect:
    effect: float
    se: float
    ci_low: float
    ci_high: float


def marginal_effect(fit_result: FitResult, term: str) -> MarginalEffect:
    """Average marginal effect of a binary design column by standardization.

    Mean over rows of [prediction at term=1 minus prediction at term=0];
    CI_LEVEL interval by the delta method on the robust covariance. A term
    the fit lacks raises ValueError, as in coef.
    """
    fam = _FAMILIES[fit_result.family]
    j = fit_result.names.index(term)
    X = fit_result.X
    b = fit_result.coefficients
    # Setting column j to 1 or 0 shifts the linear predictor by a rank-1 term.
    eta = X @ b
    eta1 = eta + (1.0 - X[:, j]) * b[j]
    eta0 = eta - X[:, j] * b[j]
    effect = float(np.mean(fam.inv_link(eta1) - fam.inv_link(eta0)))
    d1 = fam.inv_link_deriv(eta1)
    d0 = fam.inv_link_deriv(eta0)
    grad = (d1 - d0) @ X / len(eta)
    grad[j] = np.mean(d1)
    var = float(grad @ fit_result.robust_cov @ grad)
    se = float(np.sqrt(max(var, 0.0)))
    zcrit = NormalDist().inv_cdf(0.5 + CI_LEVEL / 2.0)
    return MarginalEffect(effect, se, effect - zcrit * se, effect + zcrit * se)


def confidence_interval(fit_result: FitResult, name: str) -> tuple[float, float]:
    """CI_LEVEL interval of a coefficient on its robust standard error."""
    b = fit_result.coef(name)
    se = fit_result.robust_se(name)
    zcrit = NormalDist().inv_cdf(0.5 + CI_LEVEL / 2.0)
    return b - zcrit * se, b + zcrit * se
