"""The row route of `series.eval_double_series`: the x-restricted kinds
near the edge of the x disk, every row of the (m, n) term table stepped at
once as one NumPy array.

Part of the numeric layer, which loads on first use (see the package
docstring): `series` imports this module on the first row-route call.
"""

from __future__ import annotations

import functools
import math
from typing import Callable

import numpy as np

from .series import KindInfo, _step_factors, _step_roundings
from .summation import _UNIT_ROUNDOFF, SeriesDiag


def _sup_pair(a, b):
    """sup over k >= 0 of |(a + k) / (b + k)|, elementwise.  While b > 0
    the ratio moves monotonically from a/b towards 1; otherwise the
    denominator may still cross zero, and there is no bound."""
    return np.where(b > 0, np.maximum(np.abs(a / b), 1.0), np.inf)


def _sup_falling(b):
    """sup over k >= 0 of 1 / |b + k|, elementwise: 1/b while b > 0."""
    return np.where(b > 0, 1.0 / b, np.inf)


def _ratio_bound(info: KindInfo, step: str) -> Callable:
    """Compile a bound on |ratio| over every later step: at (p, m, n), the
    sup over k >= 0 of |ratio at step index + k|, the other index held,
    elementwise on float arrays.

    Each step raises every factor of the ratio by one, so the i-th
    numerator factor paired with the i-th denominator factor is a monotone
    (a + k)/(b + k).  A denominator factor left over only falls; a
    numerator factor left over is unbounded.
    """
    num, den = _step_factors(info.num, info.den, step)
    terms = [f"_sup_pair({a}, {b})" for a, b in zip(num, den)]
    terms += [f"_sup_falling({b})" for b in den[len(num):]]
    terms += ["inf"] * max(0, len(num) - len(den))
    return eval(f"lambda p, m, n: {' * '.join(terms)}",
                {"_sup_pair": _sup_pair, "_sup_falling": _sup_falling,
                 "inf": math.inf})


@functools.cache
def ratio_bounds(info: KindInfo) -> tuple[Callable, Callable]:
    """The kind's bounds on its x and y term ratios over every later step,
    compiled once; `summation.sum_series` reads them too."""
    return _ratio_bound(info, "m"), _ratio_bound(info, "n")


def _geometric_tail(first, ratio):
    """sum_{k >= 1} first ratio^k, elementwise, for ratio >= 0: inf where
    ratio >= 1, unless first is 0."""
    tail = first * ratio / (1.0 - ratio)
    return np.where(first == 0, 0.0, np.where(ratio < 1, tail, np.inf))


# Terms that overflow are refused, and bounds may be inf: no warnings.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def sum_by_rows(
    info: KindInfo, p: dict, x: float, y: float, tol: float, budget: int
) -> SeriesDiag | str:
    """Sum rows m < M, each over n <= N, as one array recurrence in n.

    The row starts t_{m,0} are one cumulative product of ratio_x(p, m, 0) x;
    then every row steps at once, t <- t ratio_y(p, m, n) y, until the tail
    in n is bounded below tol/4 of the sum.  The value is the exact sum
    (fsum) of the row sums.  The error estimate adds

    - the tail in n of each row, geometric in bound_y (`ratio_bounds`: the
      sup of the y ratio over every later n, a product of monotone factor
      pairs);
    - the rows past M, column by column (fixed n): geometric from t_{M-1,n}
      in bound_x at (M - 1, n), the sup of the x ratio over every later m;
    - the corner m >= M, n > N: the last row's tail in n carried in m at the
      larger of the x-ratio bounds of columns N and 2N.  Each kind's bound
      is monotone in n, so this covers columns N..2N; past 2N the last
      row's tail holds less than bound_y^N of itself;
    - rounding, to first order: each recurrence step commits at most
      `_step_roundings` (c) roundings of u.  Those of the x step from row m
      scale every later row, so they move the value by at most c_x u times
      the |sum of the rows past m|; those of the y step to t_{m,n+1} scale
      the rest of row m, at most c_y u times |its tail|, which is at most
      both its absolute tail and |row sum| + |partial sum|.  Adding up a
      row costs u times the sum of its |partial sums|, and fsum half an
      ulp of the value.  The count takes each factor (p[slot] + index) to
      be off by at most its two roundings, relative; a negative parameter
      whose factor nearly cancels (p[slot] + index near 0) is off by more,
      and the float parameters themselves are off by u, so the bound
      covers the arithmetic, not the conditioning in the parameters.

    M starts where |x|^M <= tol and doubles while the truncation exceeds
    tol/2 of the value; a sum whose rounding alone is too large is
    refused, as is any block of more than `budget` terms.
    """
    ax = abs(x)
    rows = max(2, math.ceil(math.log(tol) / math.log(ax)))
    cx, cy = _step_roundings(info, "m"), _step_roundings(info, "n")
    bound_x, bound_y = ratio_bounds(info)
    while rows <= budget:
        m = np.arange(rows, dtype=float)
        t = np.cumprod(np.concatenate(([1.0], info.ratio_x(p, m[:-1], 0) * x)))
        row_sum = t.copy()
        partials = np.abs(t)  # per row: sum over k of |partial sum to n = k|
        n_weight = np.zeros(rows)  # per row: sum of n |t_{m,n}|
        last = [t[-1]]  # t_{M-1,n}
        n = 0
        while True:
            if rows * (n + 2) > budget:
                return (f"the term budget of {budget} cannot hold {rows} rows "
                        f"of {n + 2} terms")
            t = t * (info.ratio_y(p, m, n) * y)
            n += 1
            at = np.abs(t)
            row_sum += t
            partials += np.abs(row_sum)
            n_weight += n * at
            level = at.sum()
            scale = tol * abs(row_sum.sum()) / 4
            if not (math.isfinite(level) and math.isfinite(scale)):
                return f"the terms overflowed with {rows} rows at n = {n}"
            last.append(t[-1])
            if level <= scale:
                tails_n = _geometric_tail(at, abs(y) * bound_y(p, m, n))
                if tails_n.sum() <= scale:
                    break
        value = math.fsum(row_sum.tolist())
        # x-ratio bounds past row M - 1: on columns 0..N, then on column 2N
        rho = ax * bound_x(p, rows - 1.0, np.arange(n + 2.0))
        rho[-1] = ax * bound_x(p, rows - 1.0, 2.0 * n)
        past_m = _geometric_tail(np.abs(last), rho[:-1]).sum()
        corner = _geometric_tail(tails_n[-1], rho[-2:].max())
        truncation = float(past_m + corner + tails_n.sum())
        beyond = np.cumsum(row_sum[:0:-1])  # sum of the rows past each m
        row_tails = np.minimum(n_weight, n * np.abs(row_sum) + partials)
        rounding = _UNIT_ROUNDOFF * float(
            cx * np.abs(beyond).sum() + cy * row_tails.sum()
            + partials.sum() + abs(value))
        if truncation + rounding <= tol * abs(value):
            return SeriesDiag(value, rows - 1 + n, truncation,
                              truncation + rounding)
        if truncation <= tol * abs(value) / 2:
            return (f"rounding bound {rounding:.3e} exceeds tol |value| = "
                    f"{tol * abs(value):.3e}")
        rows *= 2
    return f"the term budget of {budget} cannot hold {rows} rows"
