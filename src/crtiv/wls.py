"""Dense weighted least squares with model-based and sandwich covariance.

This is the one regression core: the covariate adjustment, the screen and
every fit of the estimation grid go through :func:`solve`.  It takes a batch
of weighted problems, groups them by design shape, and for each group runs
one stacked ``np.linalg.qr`` of the sqrt-weight-scaled designs and one
stacked ``Q^T b`` matmul; each problem is then back-substituted on its own R
factor.  Rank is judged per problem from its own R diagonal at a relative
threshold of 1e-10, and any failure (rank, weights, a non-finite factor)
belongs to that problem alone.  :func:`fit_wls` is the one-problem case
behind a checked public edge.

The back-substitution calls LAPACK directly:
``dtrtrs(r.T, b, lower=1, trans=1)`` is exactly the call
``scipy.linalg.solve_triangular(r, b)`` makes for the C-ordered ``r`` of
``np.linalg.qr``, without the wrapper's argument handling, so results are
bit-identical to it.  A stacked QR and a stacked matmul give the bits of the
per-matrix calls too.  (A numpy back-substitution or an ``einsum`` for
``Q^T b`` would differ in the last bits.)  ``solve_triangular`` also checked
that ``r`` and ``b`` are finite; that check is made here explicitly and
raises :class:`~crtiv.errors.NonFiniteValue`.

A fit returns coefficients and residuals; its covariance estimates are built
from the stored R factor the first time a caller reads them, so a fit whose
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
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import CrtivError, DfNonPositive, NonFiniteValue, NonPositiveWeight, RankDeficient
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
        return bread(self.r)

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
    NonFiniteValue
        the scaled design or response is not finite.
    """
    design = np.asarray(design, dtype=float)
    response = np.asarray(response, dtype=float)
    if design.ndim != 2:
        raise ValueError("design must be a 2-D array")
    n = design.shape[0]
    if response.shape != (n,):
        raise ValueError(f"response shape {response.shape} does not match design rows {n}")
    if weights is None:
        weights = np.ones(n)
    else:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (n,):
            raise ValueError("one weight per observation required")
    return design_fit(design, response, weights)


def design_fit(design: np.ndarray, response: np.ndarray, weights: np.ndarray) -> DesignFit:
    """:func:`fit_wls` on float arrays of matching shapes, unchecked: the
    one-problem case of :func:`solve`, raising its error."""
    (solved,) = solve([design], [response], [weights])
    if isinstance(solved, CrtivError):
        raise solved
    coefficients, r = solved
    n, p = design.shape
    return DesignFit(
        coefficients=coefficients,
        residuals=response - design @ coefficients,
        n_obs=n,
        n_params=p,
        weights_used=weights,
        design=design,
        r=r,
    )


def solve(
    designs: Sequence[np.ndarray],
    responses: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
) -> list[tuple[np.ndarray, np.ndarray] | CrtivError]:
    """Weighted least squares for a batch of problems: the regression core.

    Problem ``i`` regresses ``responses[i]`` on ``designs[i]`` (an n x p
    float matrix) with positive ``weights[i]``.  The result lines up with
    the problems: ``(coefficients, r)``, with ``r`` the R factor of the
    sqrt-weight-scaled design, or the :class:`NonPositiveWeight`,
    :class:`RankDeficient` or :class:`NonFiniteValue` error of that problem
    alone.  Problems sharing a design shape are factored by one stacked QR.
    """
    results: list = [None] * len(designs)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, (design, w) in enumerate(zip(designs, weights)):
        if np.any(w < _MIN_WEIGHT):
            results[i] = NonPositiveWeight(
                f"weights must exceed {_MIN_WEIGHT}; minimum was {w.min()!r}"
            )
        else:
            by_shape.setdefault(design.shape, []).append(i)
    for (n, p), members in by_shape.items():
        if n < p or p == 0:
            message = (
                f"{n} observations cannot identify {p} parameters"
                if n < p
                else "design matrix is rank deficient"
            )
            for i in members:
                results[i] = RankDeficient(message)
            continue
        sqrt_w = np.sqrt(np.array([weights[i] for i in members]))
        q, r = np.linalg.qr(sqrt_w[:, :, None] * np.array([designs[i] for i in members]))
        qtb = q.transpose(0, 2, 1) @ (sqrt_w * np.array([responses[i] for i in members]))[:, :, None]
        r_diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        deficient = r_diag.min(axis=1) <= _RANK_RTOL * r_diag.max(axis=1)
        finite = np.isfinite(r).all(axis=(1, 2)) & np.isfinite(qtb).all(axis=(1, 2))
        for k, i in enumerate(members):
            if deficient[k]:
                results[i] = RankDeficient("design matrix is rank deficient")
            elif not finite[k]:
                results[i] = NonFiniteValue("regression inputs are not finite")
            else:
                results[i] = (_back_substitute(r[k], qtb[k, :, 0]), r[k])
    return results


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_triangular(r, b)`` for a C-ordered upper-triangular ``r`` with
    a nonzero, finite diagonal: the same LAPACK call, made directly."""
    return dtrtrs(r.T, b, lower=1, trans=1)[0]


def bread(r: np.ndarray) -> np.ndarray:
    """``(X'WX)^-1`` from the R factor of the scaled design (unsymmetrised)."""
    r_inv = _back_substitute(r, np.eye(len(r)))
    return r_inv @ r_inv.T


def xtwx_inv(r: np.ndarray) -> np.ndarray:
    """``(X'WX)^-1`` from the R factor, symmetrised: :attr:`DesignFit.xtwx_inv`."""
    return _symmetrize(bread(r))


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
