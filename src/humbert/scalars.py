"""Number tower and Pochhammer primitives shared by every other module.

The exact layer computes in the rationals alone: every parameter that
enters it is coerced by `as_exact`, which refuses a float, to a
``fractions.Fraction`` in canonical reduced form, and so is every cell a
triangle is built from; inside, triangles keep integer numerators over one
denominator (`series.TruncatedBiseries`).  IEEE double floats
appear only in numerical evaluation and quadrature (`as_scalar` keeps
them, `to_float` makes them).
"""

from __future__ import annotations

import math
import os
from collections.abc import Mapping
from fractions import Fraction
from numbers import Real
from typing import Union

from .errors import ArgumentError, DomainError, PoleError, SignatureError

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
    """Coerce ints, finite floats, Fractions, "p/q" strings to a Scalar."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise SignatureError(f"not a numeric parameter value: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise SignatureError(f"not a finite parameter value: {value!r}")
        return value
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise SignatureError(f"not a rational literal: {value!r}") from exc
    raise SignatureError(f"not a numeric parameter value: {value!r}")


def to_float(a: Scalar, name: str) -> float:
    """The double nearest a; a NaN, ±inf or past double range: DomainError."""
    try:
        value = float(a)
    except OverflowError:
        raise DomainError(f"{name} is beyond double range") from None
    if not math.isfinite(value):
        raise DomainError(f"{name} is not finite: {value!r}")
    return value


def as_exact(value, name: str) -> Fraction:
    """Coerce a parameter of the exact layer (as_scalar) to a Fraction; a
    float is refused with a SignatureError that names it."""
    exact = as_scalar(value)
    if not isinstance(exact, Fraction):
        raise SignatureError(f"{name} = {value!r} is not an exact rational")
    return exact


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


def as_real(value, name: str) -> float:
    """A real argument (`is_real`) as its float; else an ArgumentError."""
    if not is_real(value):
        raise ArgumentError(f"{name} must be a real number, got {value!r}")
    return value if isinstance(value, float) else to_float(value, name)


def check_params(params) -> None:
    """Refuse, as SignatureError, parameters that are not a mapping."""
    if not isinstance(params, Mapping):
        raise SignatureError(f"params must be a mapping, got {params!r}")


def check_tolerance(tol, name: str = "tol") -> None:
    """Refuse, as ArgumentError, a tolerance that is not a positive,
    finite real number: a bool, a string, None or a complex one too."""
    if not (is_real(tol) and 0 < tol < math.inf):
        raise ArgumentError(f"{name} must be positive and finite, got {tol!r}")


def check_count(count, name: str) -> None:
    """Refuse, as ArgumentError, a term, diagonal or level count that is
    not a non-negative int, a bool among them."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise ArgumentError(f"{name} must be a non-negative int, got {count!r}")


def check_path(path, default=None):
    """The file to open: path, or `default` where path is None or empty.
    Any other path that is not a str or an os.PathLike is refused, as
    ArgumentError: open() takes an int, a bool among them, for a file
    descriptor, and would close it."""
    if path is not None and not isinstance(path, (str, os.PathLike)):
        raise ArgumentError(f"path must be a str or os.PathLike, got {path!r}")
    return path or default


def pochhammer(a: Fraction, n: int) -> Fraction:
    """Rising factorial a(a+1)...(a+n-1), computed as an explicit product;
    1 for n = 0.  Never evaluated through the Gamma function, so it is
    total and pole-free for every a.
    """
    check_count(n, "pochhammer's n")
    result = Fraction(1)
    for k in range(n):
        result *= a + k
    return result


def pochhammer_table(a: Fraction, n: int) -> list[Fraction]:
    """Prefix table [(a)_0, (a)_1, ..., (a)_n] in n multiplications.

    Entry k equals pochhammer(a, k): each entry is the previous one times
    a + k, the product pochhammer forms.
    """
    check_count(n, "pochhammer_table's n")
    table = [pochhammer(a, 0)]
    for k in range(n):
        table.append(table[-1] * (a + k))
    return table

