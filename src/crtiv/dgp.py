"""Synthetic cluster randomised trials with one-sided non-adherence.

A scenario fixes the number of clusters, a cluster-size distribution, the
intra-cluster correlations of the outcome, the individual covariate, and the
latent adherence class, the marginal adherence probability, and the covariate
and treatment effect sizes.  Total error variance of the outcome is split as
``sigma2_between = rho_y * total`` and ``sigma2_within = (1 - rho_y) * total``,
so the target ICC is exact for the error process; covariate terms add a small
amount of extra variance on top.

Adherence is latent: each individual (or each whole cluster) is a complier or
a never-taker, and treatment received is ``assignment * complier``, so control
clusters never receive active treatment.  The adherence-model intercept is
calibrated by quadrature so the marginal adherence probability hits the
configured target.

Generation is a pure function of (config, seed): identical inputs produce
bit-identical trials, and per-replicate seeds can be derived independently so
parallel studies do not depend on scheduling.
"""

from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np
from scipy.special import expit, logit

from . import iv
from .errors import BracketFailure, ClusterSizesTooLarge, CrtivError
from .model import Columns, OutcomeKind, Summaries, TrialDataset

_WEAK_F_THRESHOLD = 10.0
_QUAD_POINTS = 64
_CALIBRATION_TOL = 1e-8
# Zero truncation redraws every zero size until none is left.  At a mean of
# at least 1 a draw is zero with probability at most 1/e, so J clusters
# take about ln(J) rounds; a mean near 0 takes about 1/mean rounds, and a
# mean of 0 never ends.
_MIN_POISSON_MEAN = 1.0
# A generated trial holds fewer records than this: generate keeps about a
# dozen arrays of one entry per record, about 10 GB at the cap.
_MAX_RECORDS = 10**8


class AdherenceLevel(enum.Enum):
    CLUSTER = "cluster"
    INDIVIDUAL = "individual"


@dataclass(frozen=True)
class PoissonSizes:
    """Poisson cluster sizes, zero-truncated to keep every cluster nonempty."""

    mean: float = 20.0


@dataclass(frozen=True)
class ParetoSizes:
    """Heavy-tailed cluster sizes: classical Pareto draws rounded to the
    nearest integer with a hard floor."""

    shape: float = 1.8
    scale: float = 9.1
    minimum: int = 10


@dataclass(frozen=True)
class ScenarioConfig:
    """Parameters of one simulated trial design.

    ``beta_cz`` is the true complier treatment effect; ``pi`` the marginal
    adherence probability; ``lambda_w``/``lambda_x`` the covariate effects on
    the adherence log-odds; ``beta_w``/``beta_x`` the covariate effects on the
    outcome.  ``rho_c`` only matters for individual-level adherence, where it
    sets the variance of the cluster random effect in the adherence model.
    """

    adherence: AdherenceLevel = AdherenceLevel.CLUSTER
    n_clusters: int = 50
    sizes: PoissonSizes | ParetoSizes = PoissonSizes()
    rho_y: float = 0.05
    rho_x: float = 0.05
    rho_c: float = 0.50
    pi: float = 0.60
    lambda_w: float = 0.05
    lambda_x: float = 0.05
    beta_w: float = 0.1
    beta_x: float = 0.1
    beta_cz: float = 0.4
    beta_0: float = 0.0
    beta_c: float = 0.0
    sigma2_w: float = 0.08
    sigma2_x: float = 0.08
    total_variance: float = 1.0

    def __post_init__(self):
        values = [(f.name, getattr(self, f.name)) for f in fields(self)]
        values += [(f"sizes.{f.name}", getattr(self.sizes, f.name)) for f in fields(self.sizes)]
        for name, value in values:
            if isinstance(value, numbers.Real) and not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.n_clusters < 2:
            raise ValueError("need at least 2 clusters")
        if isinstance(self.sizes, PoissonSizes):
            if not self.sizes.mean >= _MIN_POISSON_MEAN:
                raise ValueError(
                    f"poisson mean must be at least {_MIN_POISSON_MEAN}, got {self.sizes.mean}"
                )
        elif not (self.sizes.shape > 0 and self.sizes.scale > 0 and self.sizes.minimum >= 1):
            raise ValueError(
                "pareto sizes need a positive shape and scale and a minimum of at least 1, "
                f"got {self.sizes}"
            )
        if not 0.0 < self.pi < 1.0:
            raise ValueError(f"pi must be in (0, 1), got {self.pi}")
        for name in ("rho_y", "rho_x", "rho_c"):
            value = getattr(self, name)
            if not 0.0 <= value < 1.0:
                raise ValueError(f"{name} must be in [0, 1), got {value}")
        if self.sigma2_w < 0 or self.sigma2_x < 0 or self.total_variance <= 0:
            raise ValueError("variances must be nonnegative, total variance positive")
        try:
            sd = _linear_predictor_sd(self)
        except OverflowError:
            sd = math.inf
        if not math.isfinite(sd):
            raise ValueError("the variance of the adherence linear predictor overflows")

    @property
    def zeta_variance(self) -> float:
        """Adherence random-effect variance implied by the adherence ICC.

        The latent-logistic residual variance is pi^2 / 3, so
        ``rho_c = v / (v + pi^2/3)`` inverts to ``v`` below.  Zero for
        cluster-level adherence, where the class is shared by construction.
        """
        if self.adherence is AdherenceLevel.CLUSTER:
            return 0.0
        return self.rho_c / (1.0 - self.rho_c) * math.pi**2 / 3.0


@dataclass(frozen=True)
class GeneratedTrial:
    """A generated dataset plus the latent truth behind it.

    ``compliance`` is an ``int8`` array flagging each record, in record
    order, as a complier (1) or a never-taker (0).  ``psi`` weights clusters
    by complier counts, ``psi_cl`` by complier proportions; both sum to one
    whenever any complier exists.  The treatment effect is shared, so the
    population and cluster-level complier effects both equal the scenario's
    ``beta_cz``.
    """

    dataset: TrialDataset
    compliance: np.ndarray
    psi: np.ndarray
    psi_cl: np.ndarray
    n_compliers: np.ndarray


def draw_cluster_sizes(config: ScenarioConfig, rng: np.random.Generator) -> np.ndarray:
    """Draw one size per cluster from the configured distribution; raise
    :class:`~crtiv.errors.ClusterSizesTooLarge` if they total 10**8 or more.

    A cluster count or a Poisson mean that alone reaches the cap raises
    before any draw: every cluster holds at least one record."""
    dist = config.sizes
    limit = f"a generated trial holds fewer than {_MAX_RECORDS:.0e}"
    if config.n_clusters >= _MAX_RECORDS:
        raise ClusterSizesTooLarge(
            f"{config.n_clusters:.3g} clusters hold at least as many records; {limit}"
        )
    if isinstance(dist, PoissonSizes):
        if dist.mean >= _MAX_RECORDS:
            raise ClusterSizesTooLarge(
                f"a poisson mean of {dist.mean:.3g} records per cluster; {limit}"
            )
        sizes = rng.poisson(dist.mean, config.n_clusters)
        while True:
            zeros = sizes == 0
            if not zeros.any():
                break
            sizes[zeros] = rng.poisson(dist.mean, int(zeros.sum()))
    else:
        raw = (rng.pareto(dist.shape, config.n_clusters) + 1.0) * dist.scale
        sizes = np.maximum(dist.minimum, np.rint(raw))
    # Summed as floats: an int64 total can overflow; an infinite size fails.
    total = float(sizes.sum(dtype=float))
    if not total < _MAX_RECORDS:
        raise ClusterSizesTooLarge(f"the drawn cluster sizes total {total:.3g} records; {limit}")
    return sizes.astype(np.intp)


def _linear_predictor_sd(config: ScenarioConfig) -> float:
    s2 = config.lambda_w**2 * config.sigma2_w
    if config.adherence is AdherenceLevel.INDIVIDUAL:
        s2 += config.lambda_x**2 * config.sigma2_x + config.zeta_variance
    return math.sqrt(s2)


@lru_cache(maxsize=256)
def _calibrated_intercept(pi: float, sd: float) -> float:
    if sd == 0.0:
        return float(logit(pi))
    nodes, weights = np.polynomial.hermite_e.hermegauss(_QUAD_POINTS)
    weights = weights / math.sqrt(2.0 * math.pi)
    shifted = sd * nodes

    def marginal(intercept):
        return float(weights @ expit(intercept + shifted))

    lo, hi = -50.0, 50.0
    if marginal(lo) > pi or marginal(hi) < pi:
        raise BracketFailure(f"adherence probability {pi} unreachable")
    for _ in range(200):
        mid = (lo + hi) / 2.0
        value = marginal(mid)
        if abs(value - pi) < _CALIBRATION_TOL:
            return mid
        if value < pi:
            lo = mid
        else:
            hi = mid
    raise BracketFailure("intercept calibration did not converge")


def calibrate_lambda0(config: ScenarioConfig) -> float:
    """Adherence-model intercept hitting the marginal adherence target.

    Solves ``E[expit(lambda0 + u)] = pi`` over the Gaussian linear predictor
    ``u`` by bisection, with the expectation evaluated by 64-point
    Gauss-Hermite quadrature; exact ``logit(pi)`` when there is nothing to
    integrate over.
    """
    return _calibrated_intercept(config.pi, _linear_predictor_sd(config))


@lru_cache(maxsize=16)
def _cluster_ids(n_clusters: int) -> tuple[str, ...]:
    """``c000000``, ``c000001``, ...: zero-padded ids are in code-point
    order already, so a trial's columns are built as they stand rather than
    sorted by ``Columns.from_codes``."""
    width = max(6, len(str(n_clusters - 1)))
    return tuple(f"c{i:0{width}d}" for i in range(n_clusters))


def generate(config: ScenarioConfig, seed) -> GeneratedTrial:
    """Generate one trial.

    ``seed`` is anything ``np.random.default_rng`` accepts (int or
    SeedSequence).  Draw order is fixed, so the output is a pure function of
    (config, seed).
    """
    rng = np.random.default_rng(seed)
    n_clusters = config.n_clusters
    sizes = draw_cluster_sizes(config, rng)
    total = int(sizes.sum())

    z_cluster = (rng.random(n_clusters) < 0.5).astype(np.intp)
    w_cluster = rng.normal(0.0, math.sqrt(config.sigma2_w), n_clusters)
    x_between = rng.normal(0.0, math.sqrt(config.rho_x * config.sigma2_x), n_clusters)
    x_within = rng.normal(0.0, math.sqrt((1.0 - config.rho_x) * config.sigma2_x), total)

    codes = np.repeat(np.arange(n_clusters), sizes)
    x = x_between[codes] + x_within
    z = z_cluster[codes]
    w = w_cluster[codes]

    lambda0 = calibrate_lambda0(config)
    if config.adherence is AdherenceLevel.CLUSTER:
        p_cluster = expit(lambda0 + config.lambda_w * w_cluster)
        c_cluster = (rng.random(n_clusters) < p_cluster).astype(np.intp)
        compliers = c_cluster[codes]
    else:
        zeta = rng.normal(0.0, math.sqrt(config.zeta_variance), n_clusters)
        p_indiv = expit(lambda0 + config.lambda_w * w + config.lambda_x * x + zeta[codes])
        compliers = (rng.random(total) < p_indiv).astype(np.intp)

    d = z * compliers
    upsilon = rng.normal(0.0, math.sqrt(config.rho_y * config.total_variance), n_clusters)
    epsilon = rng.normal(
        0.0, math.sqrt((1.0 - config.rho_y) * config.total_variance), total
    )
    y = (
        config.beta_0
        + config.beta_c * compliers
        + config.beta_cz * compliers * z
        + config.beta_w * w
        + config.beta_x * x
        + upsilon[codes]
        + epsilon
    )

    dataset = TrialDataset(
        Columns(
            cluster_ids=_cluster_ids(n_clusters),
            codes=codes,
            z=z.astype(float),
            d=d.astype(float),
            y=np.asarray(y, dtype=float),
            x=x.reshape(-1, 1),
            sizes=sizes,
            w=w_cluster.reshape(-1, 1),
        ),
        OutcomeKind.CONTINUOUS,
    )

    n_compliers = np.bincount(codes, weights=compliers, minlength=n_clusters)
    total_compliers = float(n_compliers.sum())
    if total_compliers > 0:
        psi = n_compliers / total_compliers
        proportions = n_compliers / sizes
        psi_cl = proportions / proportions.sum()
    else:
        psi = np.zeros(n_clusters)
        psi_cl = np.zeros(n_clusters)

    return GeneratedTrial(
        dataset=dataset,
        compliance=compliers.astype(np.int8),
        psi=psi,
        psi_cl=psi_cl,
        n_compliers=n_compliers.astype(np.intp),
    )


def screen_weak_instrument(summaries: Summaries) -> bool:
    """True when the first-stage F of a trial's unadjusted summaries reaches 10.

    Degenerate trials (single-arm assignment draw, constant adherence) fail
    the screen rather than raising.
    """
    try:
        f_stat = iv.first_stage_f(summaries)
    except CrtivError:
        return False
    return f_stat >= _WEAK_F_THRESHOLD
