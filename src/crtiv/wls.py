"""Dense weighted least squares with model-based and sandwich covariance.

This is the one least-squares core: the continuous covariate adjustment,
the screen and every fit of the estimation grid go through :func:`solve`.
:func:`solve` takes a batch of weighted problems, groups them by design
shape, and for each group runs one stacked ``np.linalg.qr`` of the
sqrt-weight-scaled designs and one stacked ``Q^T b`` matmul; each problem is
then back-substituted on its own R factor, and the residuals of the group
are one stacked matmul.  The fits of a group are one :class:`DesignFit`,
its arrays stacked along a first, problem axis, and each problem gets its
row of it as a :class:`ProblemFit`.  Rank is judged per problem from its
own R diagonal at a relative threshold of 1e-10, and any failure (rank,
weights, a non-finite factor) belongs to that problem alone.
:func:`fit_wls` is the one-problem case behind a checked public edge.

The one fit outside the core is the logistic fit of the binary covariate
adjustment, ``collapse._fit_logistic``, which forms and solves its p x p
Newton system and checks rank with ``np.linalg.matrix_rank``.  On a
200,000 x 2 design (2-vCPU host, one BLAS thread) one :func:`solve` takes
about 16 ms, against 2.2 ms to form and solve ``X'WX`` and 3.7 ms for
``matrix_rank``; sending every Newton step through :func:`solve` took that
logistic fit from 0.08 s to 0.18 s.  It also turns separation into
:class:`~crtiv.errors.NonPositiveWeight`, since the working weights
``p (1 - p)`` fall below 1e-12 before a coefficient passes the separation
bound.

The back-substitution calls LAPACK directly:
``dtrtrs(r.T, b, lower=1, trans=1)`` is exactly the call
``scipy.linalg.solve_triangular(r, b)`` makes for the C-ordered ``r`` of
``np.linalg.qr``, without the wrapper's argument handling, so results are
bit-identical to it.  A stacked QR and a stacked matmul give the bits of the
per-matrix calls too, so a problem's fit does not depend on which problems
share its batch.  (A numpy back-substitution or an ``einsum`` for ``Q^T b``
would differ in the last bits.)  ``solve_triangular`` also checked
that ``r`` and ``b`` are finite; that check is made here explicitly and
raises :class:`~crtiv.errors.NonFiniteValue`.

A fit holds coefficients, residuals and R factors; its covariances are
formed only when a caller asks, by :meth:`DesignFit.covariances`, for every
problem of the stack at once with stacked matmuls (the bread ``R^-1
R^-T``, ``sum(w r^2)`` and the sandwich), after one back-substitution per
problem for ``R^-1``.  So a fit whose covariances nobody reads (a first
stage) never forms them.  The model-based covariance uses ``sigma2 = sum(w
r^2) / (n - p)`` so results line up with conventional GLS output, and the
robust one is the plain HC0 sandwich with no small-sample residual
inflation (small-sample behaviour is handled separately through the
degrees-of-freedom mode at inference time).  Both are symmetrised as ``(c +
c') / 2``, so a diagonal entry past half the float maximum overflows to
``inf`` rather than passing as a finite number.

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
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dtrtrs
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import CrtivError, DfNonPositive, NonFiniteValue, NonPositiveWeight, RankDeficient
from .model import DfMode

_RANK_RTOL = 1e-10
_MIN_WEIGHT = 1e-12


@dataclass(frozen=True, eq=False)
class DesignFit:
    """Weighted least squares fits of a stack of problems sharing one design
    shape: what :func:`solve` returns for each shape.

    Every array holds the problems along its first axis: ``coefficients``
    is k x p, ``residuals`` and ``weights_used`` are k x n, ``design`` is
    k x n x p, and ``r`` holds the R factors of the sqrt-weight-scaled
    designs, k x p x p.  ``residuals`` are ``response - design @
    coefficients`` as :func:`solve` forms them; the two-stage fit builds its
    own stack of the stage-two designs and R factors with the structural
    residuals.  :meth:`covariances` reads every problem's covariances at
    once.
    """

    coefficients: np.ndarray
    residuals: np.ndarray
    weights_used: np.ndarray
    design: np.ndarray
    r: np.ndarray

    def covariances(self, robust: bool = True) -> tuple[np.ndarray, np.ndarray | None]:
        """The model-based and the HC0 covariance of every problem, each
        k x p x p and symmetrised as ``(c + c') / 2``; ``None`` for the HC0
        one unless ``robust``."""
        k, n, p = self.design.shape
        # (X'WX)^-1 from each R factor; one back-substitution per problem.
        eye = np.eye(p)
        r_inv = np.array([_back_substitute(r, eye) for r in self.r])
        bread = r_inv @ r_inv.transpose(0, 2, 1)
        w, res = self.weights_used, self.residuals
        if n > p:
            sigma2 = (w[:, None, :] @ (res**2)[:, :, None])[:, 0, 0] / (n - p)
        else:
            sigma2 = np.zeros(k)
        model = sigma2[:, None, None] * bread
        model = (model + model.transpose(0, 2, 1)) / 2.0
        if not robust:
            return model, None
        rows = self.design * (w * res)[:, :, None]
        sandwich = (bread @ (rows.transpose(0, 2, 1) @ rows)) @ bread
        return model, (sandwich + sandwich.transpose(0, 2, 1)) / 2.0


class ProblemFit(NamedTuple):
    """One problem's fit: row ``row`` of the stack ``stack``.

    What :func:`solve` returns per problem and :func:`fit_wls` for its one
    problem: the coefficients, residuals and R factor of that problem, and
    its model-based (``cov_model``) and HC0 (``cov_robust``) covariance,
    formed for the whole stack on each access.  Its weights and design are
    row ``row`` of the stack's.
    """

    stack: DesignFit
    row: int

    @property
    def coefficients(self) -> np.ndarray:
        return self.stack.coefficients[self.row]

    @property
    def residuals(self) -> np.ndarray:
        return self.stack.residuals[self.row]

    @property
    def r(self) -> np.ndarray:
        return self.stack.r[self.row]

    @property
    def cov_model(self) -> np.ndarray:
        return self.stack.covariances(robust=False)[0][self.row]

    @property
    def cov_robust(self) -> np.ndarray:
        return self.stack.covariances()[1][self.row]


def fit_wls(design, response, weights=None) -> ProblemFit:
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
    (fit,) = solve([design], [response], [weights])
    if isinstance(fit, CrtivError):
        raise fit
    return fit


def solve(
    designs: Sequence[np.ndarray],
    responses: Sequence[np.ndarray],
    weights: Sequence[np.ndarray],
) -> list[ProblemFit | CrtivError]:
    """Weighted least squares for a batch of problems: the regression core.

    Problem ``i`` regresses ``responses[i]`` on ``designs[i]`` (an n x p
    float matrix) with positive ``weights[i]``.  The result lines up with
    the problems: the :class:`ProblemFit` of that problem, a row of the
    :class:`DesignFit` of its design shape, or its
    :class:`NonPositiveWeight`, :class:`RankDeficient` or
    :class:`NonFiniteValue` error alone.  Problems sharing a design shape
    are factored by one stacked QR, and the stack of a shape holds its
    fitted problems in the order given.
    """
    results: list = [None] * len(designs)
    by_shape: dict[tuple[int, int], list[int]] = {}
    for i, design in enumerate(designs):
        by_shape.setdefault(design.shape, []).append(i)
    for (n, p), members in by_shape.items():
        w = np.array([weights[i] for i in members])
        light = (w < _MIN_WEIGHT).any(axis=1)
        if light.any():
            for k in np.flatnonzero(light).tolist():
                results[members[k]] = NonPositiveWeight(
                    f"weights must exceed {_MIN_WEIGHT}; minimum was {w[k].min()!r}"
                )
            members = [i for i, bad in zip(members, light.tolist()) if not bad]
            w = w[~light]
        if not members:
            continue
        if n < p or p == 0:
            message = (
                f"{n} observations cannot identify {p} parameters"
                if n < p
                else "design matrix is rank deficient"
            )
            for i in members:
                results[i] = RankDeficient(message)
            continue
        x = np.array([designs[i] for i in members])
        y = np.array([responses[i] for i in members])
        sqrt_w = np.sqrt(w)
        q, r = np.linalg.qr(sqrt_w[:, :, None] * x)
        qtb = q.transpose(0, 2, 1) @ (sqrt_w * y)[:, :, None]
        r_diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
        deficient = r_diag.min(axis=1) <= _RANK_RTOL * r_diag.max(axis=1)
        finite = np.isfinite(r).all(axis=(1, 2)) & np.isfinite(qtb).all(axis=(1, 2))
        fitted = ~deficient & finite
        if not fitted.all():
            for k in np.flatnonzero(~fitted).tolist():
                results[members[k]] = (
                    RankDeficient("design matrix is rank deficient")
                    if deficient[k]
                    else NonFiniteValue("regression inputs are not finite")
                )
            if not fitted.any():
                continue
            members = [i for i, ok in zip(members, fitted.tolist()) if ok]
            x, y, w, r, qtb = x[fitted], y[fitted], w[fitted], r[fitted], qtb[fitted]
        coefficients = np.array([_back_substitute(r_k, b[:, 0]) for r_k, b in zip(r, qtb)])
        residuals = y - (x @ coefficients[:, :, None])[:, :, 0]
        stack = DesignFit(coefficients, residuals, w, x, r)
        for row, i in enumerate(members):
            results[i] = ProblemFit(stack, row)
    return results


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``solve_triangular(r, b)`` for a C-ordered upper-triangular ``r`` with
    a nonzero, finite diagonal: the same LAPACK call, made directly."""
    return dtrtrs(r.T, b, lower=1, trans=1)[0]


def mv_weights(cluster_sizes, rho: float) -> np.ndarray:
    """Minimum-variance weights ``n / (1 + rho * (n - 1))``.

    Exactly the cluster sizes at ``rho = 0`` and exactly one at ``rho = 1``.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must be in [0, 1], got {rho}")
    sizes = np.asarray(cluster_sizes, dtype=float)
    if (sizes < 1).any():
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

    Both modes raise :class:`DfNonPositive` unless ``n_clusters >
    n_params``: a fit with no residual degrees of freedom has zero (or
    rounding-level) residuals, so any standard error read from it is 0 or
    about 1e-16 and its interval has no width.
    """
    df = n_clusters - n_params
    if df <= 0:
        mode = "normal-approximation" if df_mode is DfMode.NORMAL_APPROX else "small-sample"
        raise DfNonPositive(
            f"{mode} inference needs more clusters than parameters "
            f"({n_clusters} clusters, {n_params} parameters)"
        )
    if df_mode is DfMode.NORMAL_APPROX:
        return float(ndtri(0.5 + level / 2.0)), math.inf
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
