"""Exception taxonomy for the verification engine.

ValidationError and its subclasses mean the *input data* is bad (shape
mismatches, d*d != 0, dichotomy broken, unsatisfiable cobordism
relations).  StepMismatch and TheoremCounterexample mean a checked
identity failed on data the validator accepted; neither should ever fire
on a validated instance, and their appearance signals an engine bug.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for every error raised by this package."""


class ValidationError(EngineError):
    """Input data violates a structural invariant."""


class InvarianceViolation(ValidationError):
    """A map fails to leave a required subspace invariant."""


class NotAChainMap(ValidationError):
    """A graded map does not commute with the differentials."""


class DichotomyViolation(ValidationError):
    """Both special families have a nonzero member on cohomology."""


class RelationViolation(ValidationError):
    """A degree-zero cobordism relation fails exactly."""


class NoSolution(ValidationError):
    """A relation defect is not in the span of the lower family members."""


class StepMismatch(EngineError):
    """A tower step in the trace replay disagrees with the predicted drop."""


class TheoremCounterexample(EngineError):
    """A splitting identity failed on a validated instance."""


class Infeasible(EngineError):
    """A chain-level instance did not reproduce its planted cohomology."""


class ParseError(EngineError):
    """An instance document is malformed."""


class UnknownEntry(EngineError):
    """No catalog entry with the requested name."""
