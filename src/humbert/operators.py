"""Symbolic operators realized as diagonal actions on truncated series.

Every operator here is diagonal on the monomial basis: it multiplies the
coefficient of x^m y^n by a rational eigenvalue depending only on (m, n).
In closed form that eigenvalue is a Pochhammer ratio, (a)_d/(b)_d for H or
(h)_{m+n}/((h)_m (h)_n) for nabla, stepped in integers by
`series.step_signature` like every other signature of the exact layer and
applied as the cell factor of one `TruncatedBiseries.shifted_sum`.  Each
operator also admits a finite-sum form (the sums truncate because (-m)_k
vanishes for k > m), evaluated cell by cell in Fractions through
`map_indexed` and kept as an independent cross-validation route; the two
routes must agree exactly and are never merged.  Operator parameters are
exact rationals: each action coerces its a, b, h and g by `as_exact`,
which refuses a float.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import PoleError
from .scalars import as_exact, check_count, pochhammer, pochhammer_table
from .series import ZERO, TruncatedBiseries, step_signature, stepped_triangle

AXES = ("xy", "x", "y")


def _safe_div(num: Fraction, den: Fraction, context: str) -> Fraction:
    if den:
        return num / den
    if num:
        raise PoleError(f"{context}: denominator Pochhammer vanishes")
    return num


def _index(axis: str, m: int, n: int) -> int:
    if axis == "xy":
        return m + n
    return m if axis == "x" else n


def delta_pochhammer_action(
    s: TruncatedBiseries, which: str, k: int
) -> TruncatedBiseries:
    """Multiply c_{m,n} by (-m)_k (which = "x") or (-n)_k (which = "y").

    This is the coefficientwise form of (-1)^k xi^k d^k/dxi^k: applying it to
    a triangle equals taking k formal xi-derivatives, multiplying back by
    xi^k, and flipping sign k times.  Slots with index < k are annihilated.
    """
    if which not in ("x", "y"):
        raise ValueError("which must be 'x' or 'y'")
    check_count(k, "k")
    table = [pochhammer(Fraction(-i), k) for i in range(s.degree + 1)]
    if which == "x":
        return s.map_indexed(lambda m, n: table[m])
    return s.map_indexed(lambda m, n: table[n])


def _h_sum_multiplier(a, b, m, n, axis, inverse):
    """Finite-sum eigenvalue of H (or its inverse) on the (m, n) slot.

    Terms carry (b-a)_{k1+k2} (-m)_{k1} (-n)_{k2} / k1! k2!; the denominator
    chain is (b)_{k1+k2} for H and (1 - a - m - n)_{k1+k2} for the inverse.
    Pochhammer vanishing of (-m)_{k1} truncates the sum at k1 <= m, k2 <= n.
    """
    k1_max = m if axis in ("xy", "x") else 0
    k2_max = n if axis in ("xy", "y") else 0
    top = k1_max + k2_max
    diff = pochhammer_table(b - a, top)
    den_chain = pochhammer_table(
        1 - a - _index(axis, m, n) if inverse else b, top)
    falling_m = pochhammer_table(Fraction(-m), k1_max)
    falling_n = pochhammer_table(Fraction(-n), k2_max)
    total = ZERO
    for k1 in range(k1_max + 1):
        for k2 in range(k2_max + 1):
            num = diff[k1 + k2] * falling_m[k1] * falling_n[k2]
            den = den_chain[k1 + k2] * math.factorial(k1) * math.factorial(k2)
            total += _safe_div(num, den, "H finite sum")
    return total


def _apply_h(s, a, b, mode, axis, inverse):
    """apply_H, or apply_H_bar if `inverse`."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}")
    a, b = as_exact(a, "a"), as_exact(b, "b")
    if mode == "double_sum":
        return s.map_indexed(
            lambda m, n: _h_sum_multiplier(a, b, m, n, axis, inverse))
    if mode != "closed_form":
        raise ValueError(f"unknown mode {mode!r}")
    # the one pole rule of the closed form, whatever the numerator: no
    # 0/0 cell is read as 0 here, so H(-1, -2) raises
    top, bottom = (b, a) if inverse else (a, b)
    if bottom.denominator == 1 and -s.degree < bottom <= 0:
        raise PoleError(f"{'H_bar' if inverse else 'H'}({a}, {b}): ratio step "
                        f"denominator b + k = {bottom} + {-bottom} = 0")
    den, lams = step_signature((("a", "m"),), (("b", "m"),),
                               {"a": top, "b": bottom}, s.degree,
                               bivariate=False, factorial=False)
    lams = list(lams)
    return TruncatedBiseries.shifted_sum(
        s.degree, [(1, 0, 0, s)], TruncatedBiseries._over(s.degree, den, [
            [lams[_index(axis, m, n)] for n in range(s.degree + 1 - m)]
            for m in range(s.degree + 1)]))


def apply_H(
    s: TruncatedBiseries,
    a: Fraction,
    b: Fraction,
    mode: str = "closed_form",
    axis: str = "xy",
) -> TruncatedBiseries:
    """Apply H(a, b): scale the (m, n) coefficient by (a)_d/(b)_d, d the
    axis index.  mode "double_sum" evaluates the defining finite sum instead;
    both modes agree exactly and the sum route exists as a cross-check."""
    return _apply_h(s, a, b, mode, axis, inverse=False)


def apply_H_bar(
    s: TruncatedBiseries,
    a: Fraction,
    b: Fraction,
    mode: str = "closed_form",
    axis: str = "xy",
) -> TruncatedBiseries:
    """Apply the inverse of H(a, b): multiplier (b)_d/(a)_d.

    apply_H_bar(apply_H(s, a, b), a, b) == s exactly, slot by slot.
    """
    return _apply_h(s, a, b, mode, axis, inverse=True)


def _apply_nabla(s, h, inverse):
    """Scale the (m, n) coefficient by (h)_{m+n} / ((h)_m (h)_n), or by its
    reciprocal for the inverse; both fix the pure-axis slots."""
    h = as_exact(h, "h")
    joint, apart = (("h", "m+n"),), (("h", "m"), ("h", "n"))
    num, den = (apart, joint) if inverse else (joint, apart)
    try:
        cell = stepped_triangle(step_signature(
            num, den, {"h": h}, s.degree, factorial=False), s.degree)
    except PoleError as exc:
        raise PoleError(f"{'delta_op' if inverse else 'nabla'}({h}): "
                        "denominator Pochhammer vanishes") from exc
    return TruncatedBiseries.shifted_sum(s.degree, [(1, 0, 0, s)], cell)


def apply_nabla(s: TruncatedBiseries, h: Fraction) -> TruncatedBiseries:
    return _apply_nabla(s, h, inverse=False)


def apply_delta_op(s: TruncatedBiseries, h: Fraction) -> TruncatedBiseries:
    return _apply_nabla(s, h, inverse=True)


def nabla_delta_ksum(h: Fraction, g: Fraction, m: int, n: int) -> Fraction:
    """Finite-sum eigenvalue of the composite nabla(h) delta(g) on (m, n).

    Sum over k <= min(m, n) of (h-g)_k (-m)_k (-n)_k /
    ((h)_k (1-g-m-n)_k k!); equals
    (h)_{m+n} (g)_m (g)_n / ((h)_m (h)_n (g)_{m+n}), at exact h and g.
    """
    total = ZERO
    for k in range(min(m, n) + 1):
        num = (
            pochhammer(h - g, k)
            * pochhammer(Fraction(-m), k)
            * pochhammer(Fraction(-n), k)
        )
        den = (
            pochhammer(h, k)
            * pochhammer(1 - g - m - n, k)
            * math.factorial(k)
        )
        total += _safe_div(num, den, "nabla-delta finite sum")
    return total


def apply_nabla_delta(
    s: TruncatedBiseries, h: Fraction, g: Fraction, mode: str = "closed_form"
) -> TruncatedBiseries:
    """The composite nabla(h) followed by delta(g), in one action.

    mode "k_sum" evaluates the single-sum form as an independent route.
    """
    h, g = as_exact(h, "h"), as_exact(g, "g")
    if mode == "closed_form":
        return apply_delta_op(apply_nabla(s, h), g)
    if mode == "k_sum":
        return s.map_indexed(lambda m, n: nabla_delta_ksum(h, g, m, n))
    raise ValueError(f"unknown mode {mode!r}")
