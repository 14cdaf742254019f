"""Exception types shared across the package."""

from __future__ import annotations


class PsdrecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInput(PsdrecError):
    """An argument violates a documented precondition."""


class ConvergenceFailure(PsdrecError):
    """An iterative routine hit its iteration cap before reaching tolerance."""

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class NumericalFailure(PsdrecError):
    """A numerical quantity became non-finite during optimization."""


class NotSimultaneouslyDiagonalizable(PsdrecError):
    """Model matrices do not commute, so no common eigenbasis exists."""


class ParseError(PsdrecError):
    """A data or model file is malformed."""
