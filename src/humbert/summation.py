"""The float summation of the series kinds: the two routes of
`series.eval_double_series` (by diagonals, and by rows near the edge of the
x disk), the term recurrence of `sum_series` behind
`series.eval_single_series`, and the steppers, ratio bounds and rounding
counts these share with the quadrature's series targets.

Part of the numeric layer, which loads on first use (see the package
docstring): `series` imports this module on the first float evaluation.
Terms come from the kinds' float term ratios (`KindInfo.ratio_x` and
`ratio_y`), stepped from c_{0,0} = 1.
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Iterator

import numpy as np

from .errors import DomainError, NoConvergence
from .scalars import to_float
from .series import FunctionRef, KindInfo, _ReadOnly, _step_factors

ROW_ROUTE_X = 0.75  # |x| from which the x-restricted kinds are summed by rows
_UNIT_ROUNDOFF = 2.0 ** -53


def _float_params(ref: FunctionRef) -> dict[str, float]:
    return {k: to_float(v, f"parameter {k}") for k, v in ref.params.items()}


@functools.cache
def _step_roundings(info: KindInfo, step: str) -> int:
    """Roundings one recurrence step commits, at most: two additions per
    ratio factor, one product or quotient joining each, then the products
    by the argument and by the previous term."""
    num, den = _step_factors(info.num, info.den, step)
    return 3 * (len(num) + len(den)) + 1


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
    compiled once; the row route and `sum_series` read them."""
    return _ratio_bound(info, "m"), _ratio_bound(info, "n")


def _geometric_tail(first, ratio):
    """sum_{k >= 1} first ratio^k, elementwise, for ratio >= 0: inf where
    ratio >= 1, unless first is 0."""
    tail = first * ratio / (1.0 - ratio)
    return np.where(first == 0, 0.0, np.where(ratio < 1, tail, np.inf))


def diagonal_terms(info: KindInfo, p: dict, x, y, count: int) -> Iterator:
    """Yield diagonals 1..count of the kind's series at (x, y), one ray per
    element (a scalar pair is one ray), with the float parameters p,
    c_{0,0} = 1: diagonal k as one (k+1,) + ray-shape array, row m holding
    t_{m,k-m}.  t_{0,k} is stepped in y from t_{0,k-1}, every other row in
    x from t_{m-1,k-m} by the term-by-term (t * ratio_x) * x, so every term
    keeps its bits.  The one stepper of rays and node arrays; the scalar
    point route steps the same terms by bands (`_bands`)."""
    terms = np.ones((1,) + np.broadcast(x, y).shape)
    for k in range(1, count + 1):
        m = np.arange(k, dtype=float).reshape((k,) + (1,) * (terms.ndim - 1))
        out = np.empty((k + 1,) + terms.shape[1:])
        out[0] = terms[0] * info.ratio_y(p, 0, k - 1) * y
        np.multiply(terms, info.ratio_x(p, m, k - 1 - m), out=out[1:])
        out[1:] *= x
        yield out
        terms = out


BAND = 32  # diagonals stepped per NumPy pass on the scalar point route
BAND_TERMS = 4096  # cap on the terms of one band, and so on its transient


def _band(info: KindInfo, p: dict, x: float, y: float, last, width: int):
    """Diagonals k0+1..k0+width stepped from `last`, the terms t_{k0-n,n}
    of diagonal k0 by n, as a (width, k0+width+1) array and its mask of
    terms: row j-1, column n holds t_{k0+j-n,n} where k0+j-n >= 0.

    Down every column one cumulative product of the interleaved factors t,
    ratio_x, x, ratio_x, x, ... performs `diagonal_terms`' float operations,
    (t * ratio_x) * x, in its order, so every term has the bits of the
    term-by-term recurrence.  A new column n = k0+i starts from t_{0,k0}
    with the factors ratio_y, y, ratio_y, y, ... of the i steps in y along
    m = 0, so that its product reaches t_{0,n} as `diagonal_terms` steps it,
    and then steps in x.
    """
    k0 = len(last) - 1
    n = np.arange(k0 + width + 1.0)
    m = np.arange(k0, k0 + width, dtype=float)[:, None] - n  # row stepped from
    live = m >= 0
    factors = np.empty((2 * width + 1, len(n)))
    factors[0] = last[-1]
    factors[0, :k0 + 1] = last
    factors[1::2] = np.where(live, info.ratio_x(p, np.maximum(m, 0.0), n),
                             info.ratio_y(p, 0.0, n[k0:-1, None]))
    factors[2::2] = np.where(live, x, y)
    return np.cumprod(factors, axis=0)[2::2], m >= -1


def _bands(info: KindInfo, p: dict, x, y, count: int) -> Iterator:
    """Yield (k0, band, live) for diagonals 1..count at scalar (x, y) to
    `_sum_by_diagonals`: each `_band` steps BAND diagonals past k0, fewer
    once it would pass BAND_TERMS terms, and never past `count`."""
    last = np.ones(1)
    k = 0
    while k < count:
        width = max(1, min(BAND, count - k, BAND_TERMS // (k + BAND + 1)))
        # terms past the float range are refused by the caller
        with np.errstate(over="ignore", invalid="ignore"):
            band, live = _band(info, p, x, y, last, width)
        yield k, band, live
        last = band[-1]
        k += width


class SeriesDiag(_ReadOnly):
    """A double series' sum and how it was summed: the value, the highest
    diagonal m+n summed and the error estimate.

    One read-only record (`series._ReadOnly`) that still reads as the
    (value, diag) pair it replaces: `value, diag = eval_double_series(...)`
    binds diag to the record itself, and diag["est_error"] and
    result[1]["diagonals"] read fields by name.
    """

    __slots__ = _fields = ("value", "diagonals", "est_error")

    def __init__(self, value: float, diagonals: int, est_error: float):
        self._init(value, diagonals, est_error)

    def __iter__(self):
        return iter((self.value, self))

    def __getitem__(self, key):
        if isinstance(key, str):
            return getattr(self, key)
        return (self.value, self)[key]


def _certified_add(total: float, s: float, m: float, k: int) -> float | None:
    """total + math.fsum(terms), when the rounding of diagonal k's k+1
    terms is decided by s, their sum in some order, and m, their sum of
    |t| in some order; None when it is not, or the result is not finite.

    Any order of summation is off by at most gamma_k = k u / (1 - k u)
    times sum |t|, u = 2**-53, and the computed m is below sum |t| by at
    most gamma_k of it, so |s - S| <= E = (2k + 8) u m, S the exact sum,
    with room for the rounding of E itself (an addition that underflows is
    exact, so a nonzero error is at least the least subnormal, which that
    room covers too).  fsum's result F is within u |S| of S, and each of
    the two subtractions s -+ E' rounds by at most u, so with
    E' = E + 3u (|s| + E) the floats s - E' and s + E' enclose F.
    Rounding to nearest is monotone: if fl(total + .) agrees at both ends
    it agrees at F.  An infinite or NaN sum, or one whose exact value
    overflows, makes the ends differ or leaves them infinite.
    """
    e = (2 * k + 8) * _UNIT_ROUNDOFF * m
    e += 3 * _UNIT_ROUNDOFF * (abs(s) + e)
    lo = total + (s - e)
    return lo if lo == total + (s + e) and math.isfinite(lo) else None


def _sum_by_diagonals(
    info: KindInfo, p: dict, x: float, y: float, tol: float, max_diagonal: int
) -> SeriesDiag | str:
    total = 1.0
    small_streak = 0
    last = np.ones(1)
    for k0, band, live in _bands(info, p, x, y, max_diagonal):
        # an infinite or NaN sum is refused below
        with np.errstate(over="ignore", invalid="ignore"):
            sums = band.sum(axis=1, where=live).tolist()
            mags = np.abs(band).sum(axis=1, where=live).tolist()
        for j, (s, mag) in enumerate(zip(sums, mags)):
            k = k0 + j + 1
            new = _certified_add(total, s, mag, k)
            if new is None:
                try:
                    new = total + math.fsum(band[j, :k + 1].tolist())
                except (OverflowError, ValueError):  # inf - inf, or past range
                    new = math.inf
            total = new
            if not math.isfinite(total + mag):
                return f"the terms overflowed at diagonal {k}"
            if mag < tol * max(abs(total), 1e-300):
                small_streak += 1
                if small_streak == 3:
                    return SeriesDiag(total, k, math.fsum(
                        map(abs, band[j, :k + 1].tolist())))
            else:
                small_streak = 0
        last = band[-1, :k + 1]
    return (f"no convergence within {max_diagonal} diagonals (last diagonal "
            f"magnitude {math.fsum(map(abs, last.tolist())):.3e})")


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
            return SeriesDiag(value, rows - 1 + n, truncation + rounding)
        if truncation <= tol * abs(value) / 2:
            return (f"rounding bound {rounding:.3e} exceeds tol |value| = "
                    f"{tol * abs(value):.3e}")
        rows *= 2
    return f"the term budget of {budget} cannot hold {rows} rows"


def _absmax(a) -> float:
    """|a| of a float; of an array the largest |entry|, NaN if one is."""
    return abs(a) if isinstance(a, float) else float(abs(a).max())


def _single_steps(info: KindInfo, p: dict, x, count: int) -> Iterator:
    """Terms t_1..t_count of a single-variable kind at x, a float or a node
    array, each stepped t <- (t * ratio_x) * x in place, with |t|."""
    t = np.ones(np.shape(x)) if np.ndim(x) else 1.0
    for m in range(count):
        t *= info.ratio_x(p, m, 0)
        t *= x
        yield t, _absmax(t)


def sum_series(info: KindInfo, p: dict, x, tol: float, max_terms: int,
               what: str, y=None) -> tuple[float, dict]:
    """Sum 1 + t_1 + t_2 + ... at the float parameters p: a single-variable
    kind's terms at x, a float or a node array, or, with node arrays x and
    y, a bivariate kind's diagonals (`diagonal_terms`, each summed by
    np.sum).  Returns (value, {terms, est_error}).

    A step's size is |t|, or its diagonal's sum of |t|, and the scale |sum|;
    on node arrays, the largest over the nodes and max(1, max |sum|).
    After three steps in a row of size at most tol * scale, the sum stops
    once `est_error` is: the tail, geometric from the last size in rho,
    plus a first-order rounding bound.  rho bounds every later ratio of
    sizes (`ratio_bounds`): max|x| times the sup of the x ratio over
    every later step or, past diagonal k, max|x| times the largest x bound
    along it plus max|y| times the y bound at (0, k), as every term of
    diagonal k + 1 but t_{0,k+1} is an x step.  Step k is off by c k u of
    its size, c = `_step_roundings` (one more to sum a diagonal), and each
    addition by u of its partial sum.  A sum whose rounding alone exceeds
    tol * scale / 2, as a cancelling one's does, is refused, as is one
    that overflows or needs more than `max_terms` steps (with the count
    its tail bound needs); NoConvergence names `what`.  An x-restricted
    kind's argument must stay in the open disk |x| < 1: DomainError.
    """
    if info.x_restricted and _absmax(x) >= 1.0:
        raise DomainError(f"{what}: the argument reached |x| >= 1")
    bound_x, bound_y = ratio_bounds(info)
    if y is None:
        c, unit = _step_roundings(info, "m"), "terms"
        steps = _single_steps(info, p, x, max_terms)

        def rho(k):
            return _absmax(x) * float(bound_x(p, k, 0))
    else:
        c = max(_step_roundings(info, "m"), _step_roundings(info, "n")) + 1
        unit = "diagonals"
        steps = ((d.sum(axis=0), float(np.abs(d).sum(axis=0).max()))
                 for d in diagonal_terms(info, p, x, y, max_terms))

        def rho(k):
            m = np.arange(k + 1.0)
            return (_absmax(x) * float(bound_x(p, m, k - m).max())
                    + _absmax(y) * float(bound_y(p, 0, k)))
    total = scale = mag = 1.0
    k = streak = 0
    weight = partials = rounding = 0.0  # sums of k |step k| and |partials|
    for k, (step, mag) in enumerate(steps, 1):
        total += step
        size = _absmax(total)
        if not math.isfinite(size):
            raise NoConvergence(f"{what}: the terms overflowed at term {k}")
        scale = size if isinstance(total, float) else max(1.0, size)
        weight += k * mag
        partials += size
        rounding = _UNIT_ROUNDOFF * (c * weight + partials)
        streak = streak + 1 if mag <= tol * scale else 0
        if streak < 3:
            continue
        r = rho(k)
        tail = 0.0 if mag == 0 else mag * r / (1 - r) if r < 1 else math.inf
        if tail + rounding <= tol * scale:
            return total, {"terms": k, "est_error": tail + rounding}
        if rounding > tol * scale / 2:
            raise NoConvergence(f"{what}: rounding bound {rounding:.3e} "
                                f"exceeds tol |value| = {tol * scale:.3e}")
    r, room = rho(k), tol * scale - rounding
    need = f"the tail ratio bound is {r:.3g}"
    if 0 < r < 1 and room > 0 and mag > 0:
        more = math.log(room * (1 - r) / (mag * r)) / math.log(r)
        need = f"the tail bound needs {k + max(1, math.ceil(more))} {unit}"
    raise NoConvergence(
        f"{what}: no convergence within {max_terms} {unit}; {need}")
