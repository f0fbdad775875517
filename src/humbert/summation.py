"""The float summation of the series kinds: the diagonal route of
`series.eval_double_series`, the term recurrence of
`series.eval_single_series`, and the steppers the quadrature's series
targets share with them.

Part of the numeric layer, which loads on first use (see the package
docstring): `series` imports this module on the first float evaluation.
Terms come from the kinds' float term ratios (`KindInfo.ratio_x` and
`ratio_y`), stepped from c_{0,0} = 1.
"""

from __future__ import annotations

import math
from typing import Iterator

import numpy as np

from .errors import NoConvergence
from .scalars import to_float
from .series import FunctionRef, KindInfo, _ReadOnly, _step_roundings


def _float_params(ref: FunctionRef) -> dict[str, float]:
    return {k: to_float(v, f"parameter {k}") for k, v in ref.params.items()}


def next_diagonal(info: KindInfo, p: dict, terms, x, y):
    """Diagonal k = len(terms) as one (k+1,) + ray-shape array, row m
    holding t_{m,k-m}: t_{0,k} stepped in y from t_{0,k-1}, every other
    row in x from t_{m-1,k-m} by the term-by-term (t * ratio) * x, so
    every term keeps its bits.  One entry per ray (see `diagonal_terms`)."""
    k = len(terms)
    m = np.arange(k, dtype=float).reshape((k,) + (1,) * (terms.ndim - 1))
    out = np.empty((k + 1,) + terms.shape[1:])
    out[0] = terms[0] * info.ratio_y(p, 0, k - 1) * y
    np.multiply(terms, info.ratio_x(p, m, k - 1 - m), out=out[1:])
    out[1:] *= x
    return out


BAND = 32  # diagonals stepped per NumPy pass on the scalar route
BAND_TERMS = 4096  # cap on the terms of one band, and so on its transient


def _band(info: KindInfo, p: dict, x: float, y: float, last, width: int):
    """Diagonals k0+1..k0+width stepped from `last`, the terms t_{k0-n,n}
    of diagonal k0 by n, as a (width, k0+width+1) array and its mask of
    terms: row j-1, column n holds t_{k0+j-n,n} where k0+j-n >= 0.

    Down every column one cumulative product of the interleaved factors t,
    ratio_x, x, ratio_x, x, ... performs next_diagonal's float operations,
    (t * ratio_x) * x, in its order, so every term has the bits of the
    term-by-term recurrence.  A new column n = k0+i starts from t_{0,k0}
    with the factors ratio_y, y, ratio_y, y, ... of the i steps in y along
    m = 0, so that its product reaches t_{0,n} as next_diagonal steps it,
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
    """Yield (k0, band, live) for diagonals 1..count at scalar (x, y): each
    `_band` steps BAND diagonals past k0, fewer once it would pass
    BAND_TERMS terms, and never past `count`."""
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


def diagonal_terms(info: KindInfo, p: dict, x, y, count: int) -> Iterator:
    """Yield the terms of diagonals 1..count of the kind's series at (x, y)
    with the float parameters p, c_{0,0} = 1.

    Scalar (x, y) are stepped a band at a time (`_bands`); each diagonal
    is a list of floats.  Arrays, one ray per element, are stepped one
    diagonal at a time by next_diagonal, each diagonal one (k+1,) +
    ray-shape array.  The shape of (x, y) alone picks the path.
    """
    if np.ndim(x) or np.ndim(y):
        terms = np.ones((1,) + np.broadcast(x, y).shape)
        for _ in range(count):
            terms = next_diagonal(info, p, terms, x, y)
            yield terms
        return
    for k, band, _ in _bands(info, p, x, y, count):
        for j in range(len(band)):
            yield band[j, :k + j + 2].tolist()


ROW_ROUTE_X = 0.75  # |x| from which the x-restricted kinds are summed by rows
_UNIT_ROUNDOFF = 2.0 ** -53


class SeriesDiag(_ReadOnly):
    """A double series' sum and how it was summed: the value, the highest
    diagonal m+n summed, the magnitude of what was left out (the last
    diagonal's on the diagonal route, the tail bounds on the row route) and
    the error estimate.

    One read-only record (`series._ReadOnly`) that still reads as the
    (value, diag) pair it replaces: `value, diag = eval_double_series(...)`
    binds diag to the record itself, and diag["est_error"] and
    result[1]["diagonals"] read fields by name.
    """

    __slots__ = _fields = ("value", "diagonals", "last_diagonal",
                           "est_error")

    def __init__(self, value: float, diagonals: int, last_diagonal: float,
                 est_error: float):
        self._init(value, diagonals, last_diagonal, est_error)

    def __iter__(self):
        return iter((self.value, self))

    def __getitem__(self, key):
        if isinstance(key, str):
            return getattr(self, key)
        return (self.value, self)[key]


def _sum_by_diagonals(
    info: KindInfo, p: dict, x: float, y: float, tol: float, max_diagonal: int
) -> SeriesDiag | str:
    total = 1.0
    small_streak = 0
    terms = [1.0]
    for k0, band, live in _bands(info, p, x, y, max_diagonal):
        with np.errstate(over="ignore"):  # an infinite sum is refused below
            mags = np.abs(band).sum(axis=1, where=live).tolist()
        for j, s in enumerate(mags):
            k = k0 + j + 1
            terms = band[j, :k + 1].tolist()
            try:
                total += math.fsum(terms)
            except (OverflowError, ValueError):  # inf - inf, or past range
                total = math.inf
            if not math.isfinite(total + s):
                return f"the terms overflowed at diagonal {k}"
            if s < tol * max(abs(total), 1e-300):
                small_streak += 1
                if small_streak == 3:
                    last_mag = math.fsum(map(abs, terms))
                    return SeriesDiag(total, k, last_mag, last_mag)
            else:
                small_streak = 0
    return (f"no convergence within {max_diagonal} diagonals "
            f"(last diagonal magnitude {math.fsum(map(abs, terms)):.3e})")


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
    y, a bivariate kind's diagonals (`next_diagonal`, each summed by
    np.sum).  Returns (value, {terms, last_term, est_error}).

    A step's size is |t|, or its diagonal's sum of |t|, and the scale |sum|;
    on node arrays, the largest over the nodes and max(1, max |sum|).
    After three steps in a row of size at most tol * scale, the sum stops
    once `est_error` is: the tail, geometric from the last size in rho,
    plus a first-order rounding bound.  rho bounds every later ratio of
    sizes (`rows.ratio_bounds`): max|x| times the sup of the x ratio over
    every later step or, past diagonal k, max|x| times the largest x bound
    along it plus max|y| times the y bound at (0, k), as every term of
    diagonal k + 1 but t_{0,k+1} is an x step.  Step k is off by c k u of
    its size, c = `_step_roundings` (one more to sum a diagonal), and each
    addition by u of its partial sum.  A sum whose rounding alone exceeds
    tol * scale / 2, as a cancelling one's does, is refused, as is one
    that overflows or needs more than `max_terms` steps (with the count
    its tail bound needs); NoConvergence names `what`.
    """
    from .rows import ratio_bounds  # numeric layer: see humbert.__init__

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
            return total, {"terms": k, "last_term": mag,
                           "est_error": tail + rounding}
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
