"""Exception types shared by every module in the package."""

from __future__ import annotations


class HumbertError(Exception):
    """Base class for all package-specific errors."""


class ArgumentError(HumbertError, ValueError):
    """An argument is malformed: a count, tolerance or similar setting of
    the wrong type or out of range.  Also a ValueError, so that a caller's
    `except ValueError` still catches it."""


class PoleError(HumbertError):
    """A Pochhammer denominator or eigenvalue denominator hit a pole."""


class SignatureError(HumbertError):
    """A parameter map does not match the target function's signature."""


class DomainError(HumbertError):
    """An evaluation point lies outside the function's convergence region."""


class NoConvergence(HumbertError):
    """A series hit its diagonal/term budget, or quadrature refinement hit
    its maximum level, before converging."""


class UnknownIdentity(HumbertError):
    """An operator-identity id is not in the identity catalog."""


class UnknownFormula(HumbertError):
    """A formula id is not in the decomposition catalog."""


class UnsupportedTransform(HumbertError):
    """An argument transform is not in the closed supported list."""


class ConstraintViolation(HumbertError):
    """A printed parameter constraint fails for the given bindings."""
