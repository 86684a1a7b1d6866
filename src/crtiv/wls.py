"""Dense weighted least squares with model-based and sandwich covariance.

This is the shared regression core for the assignment-effect and two-stage
fits.  Solves go through a QR factorisation of the sqrt-weight-scaled design;
rank is judged from the R diagonal at a relative threshold of 1e-10.  A fit
returns coefficients and residuals; its covariance estimates are built from
the stored R factor the first time a caller reads them, so a fit whose
covariances nobody reads (a first stage) never forms them.  The model-based
covariance uses ``sigma2 = sum(w r^2) / (n - p)`` so results line up with
conventional GLS output, and the robust one is the plain HC0 sandwich with no
small-sample residual inflation (small-sample behaviour is handled separately
through the degrees-of-freedom mode at inference time).

Quantiles and tail areas come straight from the :mod:`scipy.special`
ufuncs that :mod:`scipy.stats` itself calls: ``ndtri`` and ``ndtr`` for the
standard normal, ``stdtrit`` and ``stdtr`` for Student t, so the numbers
are those of ``stats.norm`` and ``stats.t`` bit for bit.  Importing
``scipy.stats`` would cost about a second per process, so no module of the
package does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.linalg import solve_triangular
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import DfNonPositive, NonPositiveWeight, RankDeficient
from .model import DfMode

_RANK_RTOL = 1e-10
_MIN_WEIGHT = 1e-12


@dataclass(frozen=True)
class DesignFit:
    """Weighted least squares fit.

    ``cov_model`` is the homoscedastic GLS covariance, ``cov_robust`` the HC0
    sandwich; ``xtwx_inv`` is kept so callers can rebuild covariances from
    their own residual definitions (the two-stage fit needs this).  All three
    are computed from ``r``, the R factor of the sqrt-weight-scaled design,
    on first access.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    n_obs: int
    n_params: int
    weights_used: np.ndarray
    design: np.ndarray
    r: np.ndarray

    @cached_property
    def _bread(self) -> np.ndarray:
        r_inv = solve_triangular(self.r, np.eye(self.n_params))
        return r_inv @ r_inv.T

    @cached_property
    def xtwx_inv(self) -> np.ndarray:
        return _symmetrize(self._bread)

    @cached_property
    def cov_model(self) -> np.ndarray:
        n, p = self.n_obs, self.n_params
        sigma2 = float(self.weights_used @ self.residuals**2) / (n - p) if n > p else 0.0
        return _symmetrize(sigma2 * self._bread)

    @cached_property
    def cov_robust(self) -> np.ndarray:
        return _symmetrize(sandwich(self._bread, self.design, self.weights_used * self.residuals))


def fit_wls(design, response, weights=None) -> DesignFit:
    """Fit ``response ~ design`` by weighted least squares.

    Parameters
    ----------
    design : (n, p) matrix, full column rank after sqrt-weight scaling.
    response : length-n vector.
    weights : length-n vector of positive weights; ``None`` means ones.

    Raises
    ------
    RankDeficient
        scaled design loses column rank (R diagonal below 1e-10 relative to
        its largest entry), or n < p.
    NonPositiveWeight
        any weight at or below 1e-12.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be a 2-D array")
    n, p = design.shape
    if response.shape != (n,):
        raise ValueError(f"response shape {response.shape} does not match design rows {n}")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("one weight per observation required")
        if np.any(weights < _MIN_WEIGHT):
            raise NonPositiveWeight(
                f"weights must exceed {_MIN_WEIGHT}; minimum was {weights.min()!r}"
            )
    if n < p:
        raise RankDeficient(f"{n} observations cannot identify {p} parameters")

    sqrt_w = np.sqrt(weights)
    q, r = np.linalg.qr(sqrt_w[:, None] * design)
    r_diag = np.abs(np.diag(r))
    if r_diag.size == 0 or r_diag.min() <= _RANK_RTOL * r_diag.max():
        raise RankDeficient("design matrix is rank deficient")

    coefficients = solve_triangular(r, q.T @ (sqrt_w * response))
    return DesignFit(
        coefficients=coefficients,
        residuals=response - design @ coefficients,
        n_obs=n,
        n_params=p,
        weights_used=weights,
        design=design,
        r=r,
    )


def sandwich(bread, design, scores) -> np.ndarray:
    """``bread @ X'diag(s^2)X @ bread`` for per-row scores ``s`` (unsymmetrised)."""
    rows = design * scores[:, None]
    return bread @ (rows.T @ rows) @ bread


def _symmetrize(a):
    return (a + a.T) / 2.0


def mv_weights(cluster_sizes, rho: float) -> np.ndarray:
    """Minimum-variance weights ``n / (1 + rho * (n - 1))``.

    Exactly the cluster sizes at ``rho = 0`` and exactly one at ``rho = 1``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    sizes = np.asarray(cluster_sizes, dtype=float)
    if np.any(sizes < 1):
        raise ValueError("cluster sizes must be positive")
    return sizes / (1.0 + rho * (sizes - 1.0))


class InferenceResult(NamedTuple):
    ci_low: float
    ci_high: float
    p_value: float
    df: float


def critical_value(df_mode: DfMode, n_clusters: int, n_params: int, level: float = 0.95):
    """Two-sided critical value and the degrees of freedom it is based on.

    The quantile is ``ndtri(q)`` under the normal approximation and
    ``stdtrit(df, q)`` under the small-sample mode, with ``q = 0.5 + level /
    2``: the functions behind ``stats.norm.ppf`` and ``stats.t.ppf``.
    """
    if df_mode is DfMode.NORMAL_APPROX:
        return float(ndtri(0.5 + level / 2.0)), math.inf
    df = n_clusters - n_params
    if df <= 0:
        raise DfNonPositive(
            f"small-sample inference needs more clusters than parameters "
            f"({n_clusters} clusters, {n_params} parameters)"
        )
    return float(stdtrit(df, 0.5 + level / 2.0)), float(df)


def inference(
    coef: float,
    se: float,
    df_mode: DfMode,
    n_clusters: int,
    n_params: int,
    level: float = 0.95,
) -> InferenceResult:
    """Confidence interval and two-sided p-value for one coefficient.

    Under the normal approximation the critical value is the standard normal
    0.975 quantile (1.959964 to six decimals for ``level=0.95``); under the
    small-sample mode it is the Student-t quantile with ``n_clusters -
    n_params`` degrees of freedom, and the p-value comes from the matching
    distribution: ``2 * ndtr(-|t|)`` or ``2 * stdtr(df, -|t|)``, the
    functions behind ``stats.norm.sf`` and ``stats.t.sf``.  A zero standard
    error degenerates to the point interval with ``p = 0`` for any nonzero
    coefficient.
    """
    if se < 0:
        raise ValueError("standard error must be nonnegative")
    crit, df = critical_value(df_mode, n_clusters, n_params, level)
    if se == 0.0:
        return InferenceResult(coef, coef, 0.0 if coef != 0.0 else 1.0, df)
    t_ratio = coef / se
    if df_mode is DfMode.NORMAL_APPROX:
        p_value = 2.0 * float(ndtr(-abs(t_ratio)))
    else:
        p_value = 2.0 * float(stdtr(df, -abs(t_ratio)))
    half = crit * se
    return InferenceResult(coef - half, coef + half, p_value, df)
