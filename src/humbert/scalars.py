"""Number tower and Pochhammer primitives shared by every other module.

Scalars live in one of two fields: exact rationals (``fractions.Fraction``,
always in canonical reduced form) or IEEE double floats.  All verification
paths run in the exact field; float values appear only in numerical
evaluation and quadrature.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real
from typing import Union

from .errors import DomainError, PoleError, SignatureError

Scalar = Union[Fraction, float]

# Absolute distance below which a float parameter counts as a non-positive
# integer for pole detection.
FLOAT_POLE_TOL = 1e-12

# Every parameter symbol a function signature, identity, or formula may bind.
SYMBOLS = (
    "alpha", "beta", "gamma", "gamma1", "gamma2",
    "beta1", "beta2", "alpha1", "alpha2",
    "eps", "eps1", "eps2", "h", "g",
)


def as_scalar(value) -> Scalar:
    """Coerce ints, floats, Fractions, and "p/q" strings to a Scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SignatureError(f"not a numeric parameter value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SignatureError(f"not a rational literal: {value!r}") from exc
    raise SignatureError(f"not a numeric parameter value: {value!r}")


def to_float(a: Scalar, name: str) -> float:
    """The double nearest a; a value beyond double range is a DomainError."""
    try:
        return float(a)
    except OverflowError:
        raise DomainError(f"{name} is beyond double range") from None


def is_exact(a: Scalar) -> bool:
    return isinstance(a, Fraction)


def is_nonpositive_integer(a: Scalar) -> bool:
    """Pole predicate: exact test for Fractions, banded test for floats."""
    if isinstance(a, Fraction):
        return a.denominator == 1 and a <= 0
    return a <= 0.5 and abs(a - round(a)) <= FLOAT_POLE_TOL


def check_not_pole(a: Scalar, context: str = "parameter") -> None:
    if is_nonpositive_integer(a):
        raise PoleError(f"{context} = {a} is a non-positive integer")


def is_real(v) -> bool:
    """Whether v is a real number; a bool is not.  A float skips the Real
    check, an ABC lookup that costs more than the rest."""
    return isinstance(v, float) or (
        isinstance(v, Real) and not isinstance(v, bool))


def check_tolerance(tol, name: str = "tol") -> None:
    """Refuse, as ValueError, a tolerance that is not a positive, finite
    real number: a bool, a string, None or a complex one too."""
    if not (is_real(tol) and 0 < tol < math.inf):
        raise ValueError(f"{name} must be positive and finite, got {tol!r}")


def check_count(count, name: str) -> None:
    """Refuse, as ValueError, a term, diagonal or level count that is not
    a non-negative int, a bool among them."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ValueError(f"{name} must be a non-negative int, got {count!r}")


def pochhammer(a: Scalar, n: int) -> Scalar:
    """Rising factorial a(a+1)...(a+n-1), computed as an explicit product.

    Exact for Fraction input, float for float input; returns 1 for n = 0.
    Never evaluated through the Gamma function, so it is total and pole-free
    for every finite a.
    """
    if n < 0:
        raise ValueError(f"pochhammer needs n >= 0, got {n}")
    one = Fraction(1) if isinstance(a, Fraction) else 1.0
    result = one
    for k in range(n):
        result *= a + k
    return result


def pochhammer_table(a: Scalar, n: int) -> list[Scalar]:
    """Prefix table [(a)_0, (a)_1, ..., (a)_n] in n multiplications.

    Entry k equals pochhammer(a, k) exactly, in the same field: each entry
    is the previous one times a + k, the product pochhammer forms.
    """
    if n < 0:
        raise ValueError(f"pochhammer_table needs n >= 0, got {n}")
    table = [pochhammer(a, 0)]
    for k in range(n):
        table.append(table[-1] * (a + k))
    return table


def pochhammer_ratio_step(a: Scalar, b: Scalar, k: int) -> Scalar:
    """Multiplicative step (a+k)/(b+k) of the ratio pochhammer(a,n)/pochhammer(b,n).

    Composing steps k = 0..n-1 reproduces the full ratio without forming
    either product.
    """
    if k < 0:
        raise ValueError(f"ratio step needs k >= 0, got {k}")
    den = b + k
    if isinstance(den, Fraction):
        if den == 0:
            raise PoleError(f"ratio step denominator b + k = {b} + {k} = 0")
    elif abs(den) <= FLOAT_POLE_TOL:
        raise PoleError(f"ratio step denominator b + k = {den} within pole guard")
    return (a + k) / den


def format_scalar(a: Scalar) -> str:
    """Canonical string form: "p/q" (or "p") for exact values, repr for floats."""
    if isinstance(a, Fraction):
        return str(a)
    return repr(a)
