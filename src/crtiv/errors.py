"""Exception hierarchy.

Two broad families matter to callers: :class:`ValidationFailure` for bad
inputs (malformed datasets, files, or option combinations) and
:class:`NumericFailure` for estimation problems discovered mid-computation
(rank deficiency, diverging likelihoods, degenerate denominators).  The
command line maps them to exit codes 2 and 3 respectively.
"""


class CrtivError(Exception):
    """Base class for all errors raised by this package."""


class ValidationFailure(CrtivError):
    """Input data, file, or analysis request is invalid."""


class NumericFailure(CrtivError):
    """A numerical procedure could not be completed."""


# --- dataset validation -----------------------------------------------------

class MixedAssignmentWithinCluster(ValidationFailure):
    """A cluster contains records with different randomised assignments."""


class EmptyArm(ValidationFailure):
    """Fewer than one cluster in one of the two trial arms."""


class NonBinaryTreatment(ValidationFailure):
    """Treatment received or assignment is not coded 0/1."""


class NonBinaryOutcomeForBinaryKind(ValidationFailure):
    """Outcome declared binary but a value outside {0, 1} was found."""


class CovariateShapeMismatch(ValidationFailure):
    """Adjustment for cluster covariates requested where there are none."""


# --- covariate adjustment ---------------------------------------------------

class NoCovariatesSelected(ValidationFailure):
    """Adjustment requested without naming any covariate columns."""


class RankDeficientDesign(NumericFailure):
    """The individual-level adjustment design is collinear."""


class SeparationDetected(NumericFailure):
    """Logistic likelihood diverges; fitted log-odds ran away."""


class NonConvergence(NumericFailure):
    """Iterative fit did not converge within the iteration cap."""


# --- regression core --------------------------------------------------------

class RankDeficient(NumericFailure):
    """Weighted design matrix does not have full column rank."""


class NonPositiveWeight(NumericFailure):
    """A regression weight is zero, negative, or vanishingly small."""


class DfNonPositive(NumericFailure):
    """Small-sample inference requested with no residual degrees of freedom."""


class NonFiniteValue(NumericFailure):
    """A regression input or result is infinite or NaN, e.g. after overflow."""


# --- estimators -------------------------------------------------------------

class ZeroDenominator(NumericFailure):
    """Arm means of treatment received coincide; the ratio is undefined."""


class WeakDenominator(NumericFailure):
    """First-stage assignment coefficient is numerically zero."""


class MissingIcc(ValidationFailure):
    """Minimum-variance weights requested but no ICC in [0, 1] is given."""


# --- data generation --------------------------------------------------------

class BracketFailure(NumericFailure):
    """Root bracketing for the adherence intercept failed."""


class ScreenExhausted(NumericFailure):
    """The weak-instrument screen rejected too many attempts to fill a study."""


class ClusterSizesTooLarge(ValidationFailure):
    """Drawn cluster sizes total more records than a generated trial holds."""


# --- CSV ingestion ----------------------------------------------------------

class SchemaMismatch(ValidationFailure):
    """CSV header does not match the declared column schema."""


class NonConstantClusterCovariate(ValidationFailure):
    """A w_* column varies within a cluster."""


class ParseError(ValidationFailure):
    """A CSV cell could not be parsed; carries the offending line number."""

    def __init__(self, message, line=None):
        super().__init__(message if line is None else f"line {line}: {message}")
        self.line = line
