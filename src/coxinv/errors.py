"""Exception hierarchy shared across the package.

Input problems (bad matrices, unsatisfied preconditions) raise SchemaError
subclasses or the condition-specific errors below; blown resource caps raise
ResourceExceeded; a failed internal cross-check raises ValidationMismatch and
always means a bug, never bad input.
"""


class CoxinvError(Exception):
    pass


class SchemaError(CoxinvError):
    """Malformed or inconsistent input document."""


class AsymmetryError(SchemaError):
    """Coxeter matrix is not symmetric."""


class DiagonalError(SchemaError):
    """Coxeter matrix diagonal entry is not 1."""


class BadEntry(SchemaError):
    """Off-diagonal entry outside {2, 3, ...} | {inf}."""


class ThicknessClassError(SchemaError):
    """Thickness not constant on a conjugacy class of generators."""


class ResourceExceeded(CoxinvError):
    """A configured cap (element count, simplex count, subset rank) was hit.

    All-or-nothing: no partial enumeration is returned.
    """


class ValidationMismatch(CoxinvError):
    """Two independent computations of the same quantity disagree."""


class DegenerateWeights(CoxinvError):
    """Weight 1 on a class whose parabolic contribution is infinite."""


class NotRightAngled(CoxinvError):
    """Operation only defined for right-angled systems."""


class MarginViolation(CoxinvError):
    """Chain support too close to the truncation boundary for a safe answer."""


class ThinBuilding(CoxinvError):
    """Thickness 1 where a theorem-grade bound requires q >= 2."""


class NotHyperbolic(CoxinvError):
    """Hyperbolicity precondition failed (obstruction witness available)."""


class AffineDegenerate(CoxinvError):
    """Growth exponent is zero, so the requested quantity is undefined."""
