"""Dense weighted least squares with model-based and sandwich covariance.

This is the one least-squares core: the screen and every fit of the
estimation grid go through :func:`solve`.
:func:`solve` takes one stack of weighted problems of one design shape, as
arrays with a first, problem axis, and runs one stacked ``np.linalg.qr`` of
the sqrt-weight-scaled designs, one stacked ``Q^T b`` matmul, one stacked
back-substitution and one stacked matmul for the residuals, with no loop
over the problems.  The fitted problems come back as one
:class:`DesignFit` with their positions in the stack, so a caller reads
rows per stack.  The caller builds the stacks (the grid and the screen
share one builder, ``iv.GridPlan._stacks``): a list of per-problem arrays
would cost one copy per problem to restack (about 0.4 ms for 384 small
problems, 2-vCPU host), more than the grid's Python around them.  Rank is
judged per problem from its own R diagonal at a relative threshold of
1e-10, and any failure (rank, weights, a non-finite factor) belongs to that
problem alone.  :func:`fit_wls` is the one-problem case behind a checked
public edge.

The continuous covariate adjustment has its own path,
:func:`segment_residuals`: the residuals of ordinary least squares of y on
(1, x) within each trial of a block of trials, by modified Gram-Schmidt
with y as the last column, which is backward stable for least squares
(Bjorck, *BIT* 7 (1967) 1; Bjorck & Paige, *SIAM J. Matrix Anal. Appl.* 13
(1992) 176).  It needs neither coefficients, nor covariances, nor weights,
and its trials differ in length, so a stack for :func:`solve` would need
one QR per trial: on a block of 32 default trials that took 76-79 us per
trial, against 28-32 us for one Gram-Schmidt pass over the block's
records, and on one 200,000-record trial 12.3 ms against 4.5-5.3 ms (best
of 60 and of 15 calls, 2-vCPU host, one BLAS thread).  Its sums are
``np.add.reduceat`` over the trials' records, each a segment's first term
plus numpy's pairwise sum of the rest, and it calls no BLAS, so its bits
do not depend on the BLAS kernel.  It judges rank by the rule of
:func:`solve`, on its own R diagonal.

The one fit outside both is the logistic fit of the binary covariate
adjustment, ``collapse._fit_logistic``, which forms and solves its p x p
Newton system and checks rank with ``np.linalg.matrix_rank``.  On a
200,000 x 2 design (2-vCPU host, one BLAS thread) one :func:`solve` takes
about 16 ms, against 2.2 ms to form and solve ``X'WX`` and 3.7 ms for
``matrix_rank``; sending every Newton step through :func:`solve` took that
logistic fit from 0.08 s to 0.18 s.  It also turns separation into
:class:`~crtiv.errors.NonPositiveWeight`, since the working weights
``p (1 - p)`` fall below 1e-12 before a coefficient passes the separation
bound.

The back-substitution is elementwise numpy over the whole stack, one row
at a time from the last: row ``i`` is ``(b_i - sum_{j>i} r_ij x_j) /
r_ii`` with the sum taken in increasing ``j`` (Golub & Van Loan, *Matrix
Computations*, 4th ed., section 3.1).  So no problem's solution depends on
which problems share its stack, and since a stacked QR and a stacked matmul
give the bits of the per-matrix calls, no problem's fit depends on its
stack.  The tests hold it against SciPy's BLAS-backed triangular solve.
The coefficients are bit-identical at p <= 2.  At p >= 3, where OpenBLAS
sums each row's dot product with fused multiply-adds, and in ``R^-1``, they
may differ at rounding level.  The inputs are checked to be finite
first, each failure a :class:`~crtiv.errors.NonFiniteValue`; a coefficient
that overflows on the way stays in the fit, and :func:`fit_wls` raises it.

A fit holds coefficients, residuals and R factors; its covariances are
formed only when a caller asks, by :meth:`DesignFit.covariances`, for every
problem of the stack at once: one back-substitution for ``R^-1``, then
stacked matmuls for the bread ``R^-1 R^-T``, ``sum(w r^2)`` and the
sandwich.  So a fit whose covariances nobody reads (a first stage) never
forms them.  The model-based covariance uses ``sigma2 = sum(w r^2) / (n -
p)`` so results line up with conventional GLS output, and the robust one is
the plain HC0 sandwich with no small-sample residual inflation
(small-sample behaviour is handled separately through the
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
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri, stdtr, stdtrit

from .errors import CrtivError, DfNonPositive, NonFiniteValue, NonPositiveWeight, RankDeficient
from .model import DfMode

_RANK_RTOL = 1e-10
_MIN_WEIGHT = 1e-12


@dataclass(frozen=True, eq=False)
class DesignFit:
    """Weighted least squares fits of a stack of problems sharing one design
    shape: what :func:`solve` returns for a stack.

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
        one unless ``robust``.  ``R^-1`` is one back-substitution of the
        stack against the identity, the rest stacked matmuls."""
        k, n, p = self.design.shape
        r_inv = _back_substitute(self.r, np.broadcast_to(np.eye(p), self.r.shape))
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
    """The fit :func:`fit_wls` returns: its one-problem stack ``stack``, read
    as that problem's coefficients, residuals and R factor, and its
    model-based (``cov_model``) and HC0 (``cov_robust``) covariance, formed
    on each access."""

    stack: DesignFit

    @property
    def coefficients(self) -> np.ndarray:
        return self.stack.coefficients[0]

    @property
    def residuals(self) -> np.ndarray:
        return self.stack.residuals[0]

    @property
    def r(self) -> np.ndarray:
        return self.stack.r[0]

    @property
    def cov_model(self) -> np.ndarray:
        return self.stack.covariances(robust=False)[0][0]

    @property
    def cov_robust(self) -> np.ndarray:
        return self.stack.covariances()[1][0]


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
        the scaled design or response, or a coefficient, is not finite.
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
    _, fit, errors = solve(design[None], response[None], weights[None])
    if errors:
        raise errors[0]
    if not np.isfinite(fit.coefficients).all():
        raise NonFiniteValue("regression coefficients are not finite")
    return ProblemFit(fit)


class Solved(NamedTuple):
    """What :func:`solve` returns for one stack of problems: ``rows``, the
    positions of the fitted problems in the stack, in order; ``fit``, their
    :class:`DesignFit` row by row (``None`` when no problem was fitted); and
    ``errors``, the error of each other problem by its position."""

    rows: np.ndarray
    fit: DesignFit | None
    errors: dict[int, CrtivError]


# Every non-finite value here ends in a typed error: a factor's or an
# input's in the NonFiniteValue below, a coefficient's past the float range
# in fit_wls and in each caller of a stack.
@np.errstate(over="ignore", invalid="ignore")
def solve(x: np.ndarray, y: np.ndarray, w: np.ndarray) -> Solved:
    """Weighted least squares for a stack of problems: the regression core.

    The stack holds problems of one design shape along a first axis: ``x``
    is k x n x p, the response ``y`` and the positive weights ``w`` are
    k x n, and row ``i`` regresses ``y[i]`` on ``x[i]``.  Returns the
    stack's :class:`Solved`, factored by one stacked QR.  A problem's
    :class:`NonPositiveWeight`, :class:`RankDeficient` or
    :class:`NonFiniteValue` belongs to it alone.  No numpy warning is
    raised: a coefficient that overflows stays in the fit, not finite, for
    the caller to end in a typed error.
    """
    errors: dict[int, CrtivError] = {}
    k, n, p = x.shape
    rows = np.arange(k)
    light = (w < _MIN_WEIGHT).any(axis=1)
    if light.any():
        for i in np.flatnonzero(light).tolist():
            errors[i] = NonPositiveWeight(
                f"weights must exceed {_MIN_WEIGHT}; minimum was {float(w[i].min())}"
            )
        rows, x, y, w = rows[~light], x[~light], y[~light], w[~light]
    if len(rows) and (n < p or p == 0):
        message = (
            f"{n} observations cannot identify {p} parameters"
            if n < p
            else "design matrix is rank deficient"
        )
        errors.update((i, RankDeficient(message)) for i in rows.tolist())
        rows = rows[:0]
    if not len(rows):
        return Solved(rows, None, errors)
    sqrt_w = np.sqrt(w)
    q, r = np.linalg.qr(sqrt_w[:, :, None] * x)
    qtb = q.transpose(0, 2, 1) @ (sqrt_w * y)[:, :, None]
    r_diag = np.abs(np.diagonal(r, axis1=1, axis2=2))
    deficient = r_diag.min(axis=1) <= _RANK_RTOL * r_diag.max(axis=1)
    finite = np.isfinite(r).all(axis=(1, 2)) & np.isfinite(qtb).all(axis=(1, 2))
    fitted = ~deficient & finite
    if not fitted.all():
        for j in np.flatnonzero(~fitted).tolist():
            errors[int(rows[j])] = (
                RankDeficient("design matrix is rank deficient")
                if deficient[j]
                else NonFiniteValue("regression inputs are not finite")
            )
        rows, x, y, w, r, qtb = (a[fitted] for a in (rows, x, y, w, r, qtb))
    if not len(rows):
        return Solved(rows, None, errors)
    coefficients = _back_substitute(r, qtb)[:, :, 0]
    residuals = y - (x @ coefficients[:, :, None])[:, :, 0]
    return Solved(rows, DesignFit(coefficients, residuals, w, x, r), errors)


def _back_substitute(r: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``r x = b`` for every problem of a stack: ``r`` is k x p x p,
    upper triangular with a nonzero diagonal, and ``b`` is k x p x m.  Row
    ``i`` of each problem is ``(b_i - sum_{j>i} r_ij x_j) / r_ii``, with the
    sum taken in increasing ``j``; the loops run over rows, never over
    problems."""
    p = r.shape[-1]
    x = np.empty(b.shape)
    for i in reversed(range(p)):
        row = b[:, i]
        if i + 1 < p:
            dot = r[:, i, i + 1, None] * x[:, i + 1]
            for j in range(i + 2, p):
                dot = dot + r[:, i, j, None] * x[:, j]
            row = row - dot
        x[:, i] = row / r[:, i, i, None]
    return x


# A residual that overflows is redone in power-of-two units, and one that
# is still not finite ends in the NonFiniteValue below.
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def segment_residuals(x, y, bounds) -> tuple[np.ndarray, dict[int, CrtivError]]:
    """Ordinary least squares residuals of ``y`` on ``(1, x_1 ... x_p)``
    within each segment of records, by modified Gram-Schmidt.

    ``x`` is n x p and ``y`` has length n; ``bounds`` rises from 0 to n,
    and segment ``t`` is records ``bounds[t]`` up to ``bounds[t + 1]``,
    fitted on its own.  Returns the residuals, one per record, and the
    error of each failed segment by its index, whose residuals are then
    meaningless: :class:`RankDeficient` for fewer records than parameters,
    or for an R diagonal (``r_00 = sqrt(n_t)``, then each column's norm
    after its orthogonalisation) whose least entry is at most 1e-10 times
    its largest, and :class:`NonFiniteValue` for inputs that are not
    finite or a residual past the float range.

    Each segment's mean is subtracted (the intercept), each centred x
    column is orthogonalised against the unit columns before it and
    normalised, and ``y`` is orthogonalised last, against each unit column
    in turn; what is left of it is the residual, so neither ``Q^T y`` nor
    the coefficients are formed.  Every sum is one ``np.add.reduceat`` over
    the segment starts, which sums a segment as its first term plus numpy's
    pairwise sum of the rest (``a[0] + np.sum(a[1:])``), and is spread back
    over the records with ``np.repeat``.  So a segment's residuals depend
    only on its own records, in order, whatever segments share its call.
    Scaling a column of ``x`` by a power of two leaves them unchanged, and
    scaling ``y`` scales them, bit for bit.  That is how a segment whose
    residuals overflow while its inputs are finite is redone: with ``y``
    scaled down by a power of two, and its residuals scaled back.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    bounds = np.asarray(bounds)
    sizes = np.diff(bounds)
    p = x.shape[1] + 1
    errors: dict[int, CrtivError] = {
        t: RankDeficient(f"{n} observations cannot identify {p} parameters")
        for t, n in enumerate(sizes.tolist())
        if n < p
    }
    # An empty segment has no records to fit, and reduceat no start for it.
    segments = np.flatnonzero(sizes)
    residuals, r = _orthogonalise(x, y, bounds[segments], sizes[segments])
    deficient = ~np.isfinite(r).all(axis=1) | (r.min(axis=1) <= _RANK_RTOL * r.max(axis=1))
    for t in segments[deficient].tolist():
        if t not in errors:
            errors[t] = (
                RankDeficient("design matrix is rank deficient")
                if np.isfinite(x[bounds[t] : bounds[t + 1]]).all()
                else NonFiniteValue("regression inputs are not finite")
            )
    if np.isfinite(residuals).all():
        return residuals, errors
    spoiled = ~np.logical_and.reduceat(np.isfinite(residuals), bounds[segments])
    for t in segments[spoiled].tolist():
        if t in errors:
            continue
        a, b = int(bounds[t]), int(bounds[t + 1])
        if np.isfinite(y[a:b]).all():
            # Sums of n values below 2**(1021 - n.bit_length()) stay finite.
            shift = max(int(np.frexp(np.abs(y[a:b]).max())[1]) - 1021 + (b - a).bit_length(), 0)
            scaled, _ = _orthogonalise(x[a:b], np.ldexp(y[a:b], -shift), [0], sizes[t : t + 1])
            residuals[a:b] = np.ldexp(scaled, shift)
            if np.isfinite(residuals[a:b]).all():
                continue
        errors[t] = NonFiniteValue("regression inputs are not finite")
    return residuals, errors


def _orthogonalise(x, y, starts, sizes):
    """The residuals and the R diagonal (segments x (p + 1)) of
    :func:`segment_residuals` for segments of ``sizes`` records each, all
    nonempty, that start at ``starts`` and together hold every record.
    Each step writes into an array it made: a fresh array per step took
    about 10% longer, on 32 default trials and on one 200,000-record trial
    (2-vCPU host)."""
    n = sizes.astype(float)
    r = np.empty((len(sizes), x.shape[1] + 1))
    r[:, 0] = np.sqrt(n)

    def spread(values):
        return np.repeat(values, sizes)

    def centred(v):
        means = spread(np.add.reduceat(v, starts) / n)
        return np.subtract(v, means, out=means)

    def orthogonalised(v, units):
        work = np.empty_like(v)
        for u in units:
            dot = np.add.reduceat(np.multiply(u, v, out=work), starts)
            v -= np.multiply(spread(dot), u, out=work)
        return v

    units = []
    for j in range(x.shape[1]):
        v = orthogonalised(centred(x[:, j]), units)
        r[:, j + 1] = np.sqrt(np.add.reduceat(v * v, starts))
        units.append(np.divide(v, spread(r[:, j + 1]), out=v))
    return orthogonalised(centred(y), units), r


def mv_weights(cluster_sizes, rho) -> np.ndarray:
    """Minimum-variance weights ``n / (1 + rho * (n - 1))``.

    ``rho`` is one ICC, or an array of them that broadcasts against the
    sizes, such as a column holding the ICC of each row of a stack of
    sizes.  Exactly the cluster sizes at ``rho = 0`` and exactly one at
    ``rho = 1``.
    """
    for value in np.ravel(rho).tolist():
        if not 0.0 <= value <= 1.0:
            raise ValueError(f"rho must be in [0, 1], got {value}")
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
