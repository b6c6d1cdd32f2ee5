"""Exception types shared across the package."""

from __future__ import annotations


class OscPhaseError(Exception):
    """Base class for all package errors."""


# --- expression front-end ---------------------------------------------------

class ExprError(OscPhaseError):
    pass


class ExprSyntaxError(ExprError):
    """Raised by the parser; carries the byte offset of the failure."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnknownFunctionError(ExprSyntaxError):
    pass


class ExprDomainError(ExprError):
    """Evaluation-time domain violation; carries the offending node's offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (offset {offset})")
        self.offset = offset


class UnboundSymbolError(ExprError):
    def __init__(self, name: str, offset: int):
        super().__init__(f"unbound symbol '{name}' (offset {offset})")
        self.name = name
        self.offset = offset


# --- jet algebra ------------------------------------------------------------

class JetError(OscPhaseError):
    pass


class JetShapeError(JetError):
    """Base-point or degree mismatch between operands."""


class JetDomainError(JetError):
    """Function applied outside its domain (e.g. log at nonpositive constant
    term, division by a jet with vanishing constant term)."""


# --- stationary-point location / coefficient machinery ----------------------

class StationaryPointError(OscPhaseError):
    pass


class NoSignChange(StationaryPointError):
    """f' keeps one sign on (alpha, beta); use the first-derivative test."""


class MultipleSignChanges(StationaryPointError):
    """f' changes sign more than once on the scan grid."""


class StationaryAtEndpoint(StationaryPointError):
    """The stationary point sits within tolerance of alpha or beta."""


class DegenerateStationaryPoint(StationaryPointError):
    """f''(gamma) vanishes within tolerance; the expansion does not apply."""


class StationaryTooCloseToEndpoint(StationaryPointError):
    """gamma - alpha or beta - gamma is so small that the error terms of the
    expansion blow up; refusing to return a meaningless value."""


class SignChangeDetected(OscPhaseError):
    """First-derivative-test hypothesis violated (f' or f'' changes sign)."""


class NewtonError(OscPhaseError):
    """Newton/bisection solve failed to converge."""


# --- expansion ----------------------------------------------------------------

class NonFinitePhaseError(OscPhaseError):
    """f is not finite in double-double at a point where the expansion needs
    e(f): an end of the interval or the stationary point (CLI exit 2)."""


# --- oracle -----------------------------------------------------------------

class QuadratureNonConvergence(OscPhaseError):
    """Panel refinement hit the panel cap (or stagnated) before reaching tol."""


class OracleFitError(OscPhaseError):
    """Least-squares coefficient fit was ill-conditioned."""

    def __init__(self, message: str, condition: float):
        super().__init__(f"{message} (condition number {condition:.3e})")
        self.condition = condition


# --- CLI / config -----------------------------------------------------------

class ConfigError(OscPhaseError):
    pass
