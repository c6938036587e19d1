"""Exception types shared across the package.

Every failure raised by the library derives from GnsError so callers can
catch one family.  The subclasses distinguish bad scalar arguments, shape
and grid mismatches, out-of-range dyadic or dilation requests, rejected
hypothesis sets, and solver breakdowns; the command line maps them onto
exit codes.  check_kind is the one type check for scalar settings.
"""

from __future__ import annotations

from numbers import Integral, Real


class GnsError(Exception):
    """Base class for all errors raised by gnslab."""


class ParameterError(GnsError, ValueError):
    """A scalar argument is outside its admissible range."""


class ShapeError(GnsError, ValueError):
    """Field shapes, component counts, or grids do not match."""


class ConfigurationError(GnsError, ValueError):
    """A configuration is structurally unusable (too coarse, too few nodes)."""


class RangeError(GnsError, ValueError):
    """A dyadic block index or dilation leaves the resolved range."""


class EvaluationError(GnsError, ArithmeticError):
    """A multiplier symbol failed to evaluate finitely on the grid."""


class HypothesisError(GnsError, ValueError):
    """A parameter set violates the admissibility inequalities.

    Attributes
    ----------
    violations : list of (name, message) pairs, one per failed inequality.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(msg for _, msg in self.violations)
        super().__init__(f"hypothesis check failed: {lines}")


class SideConditionError(GnsError, ValueError):
    """An inequality's side conditions exclude the supplied parameters."""


class GateError(GnsError, RuntimeError):
    """The smallness gate failed and the configuration demands an abort.

    Carries the gate diagnostics in ``diagnostics``.
    """

    def __init__(self, message, diagnostics):
        self.diagnostics = diagnostics
        super().__init__(message)


class DivergenceError(GnsError, RuntimeError):
    """Fixed-point iteration failed to contract within the iteration budget.

    Carries the increment history in ``d_history``.
    """

    def __init__(self, message, d_history):
        self.d_history = list(d_history)
        super().__init__(message)


class BlowupError(GnsError, ArithmeticError):
    """A trajectory became non-finite.  Names the first offending node."""

    def __init__(self, message, node_index, node_time):
        self.node_index = node_index
        self.node_time = node_time
        super().__init__(message)


_KINDS = {
    "integer": (lambda v: isinstance(v, Integral) and not isinstance(v, bool), "an integer"),
    "real": (lambda v: isinstance(v, Real) and not isinstance(v, bool), "a real number"),
    "flag": (lambda v: isinstance(v, bool), "true or false"),
    "text": (lambda v: isinstance(v, str), "a string"),
}


def check_kind(name: str, value, kind: str) -> None:
    """Raise ParameterError unless value is of kind: "integer", "real",
    "flag" or "text".  A bool is a flag, never a number."""
    accepts, label = _KINDS[kind]
    if not accepts(value):
        raise ParameterError(f"{name} must be {label}, got {value!r}")
