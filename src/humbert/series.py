"""Truncated bivariate power series and the supported hypergeometric kinds.

The exact side of the package works on dense triangular truncations: a
series of total degree bound N stores the (N+1)(N+2)/2 coefficients c_{m,n}
with m+n <= N and nothing else.  The numeric side sums the defining double
series with a term recurrence: in diagonal order, or, near the edge of the
x disk, row by row as one NumPy array recurrence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, cached_property
from fractions import Fraction
from itertools import islice
from typing import Callable, Iterable, Iterator

from .errors import (
    DomainError,
    NoConvergence,
    PoleError,
    SignatureError,
    UnsupportedTransform,
)
from .scalars import (
    Scalar, as_scalar, check_count, check_not_pole, check_tolerance,
    pochhammer, pochhammer_table, to_float,
)

ZERO = Fraction(0)
ONE = Fraction(1)


def graded_indices(degree: int) -> Iterator[tuple[int, int]]:
    """Yield (m, n) with m+n <= degree, ordered by total degree then by m."""
    for k in range(degree + 1):
        for m in range(k + 1):
            yield m, k - m


class TruncatedBiseries:
    """Dense triangular truncation of a power series in (x, y).

    Coefficients are exact Fractions or floats; arithmetic never reads or
    writes outside the triangle m+n <= degree, and products are truncated
    back to the same bound.  Instances are immutable.
    """

    __slots__ = ("degree", "_rows")

    def __init__(self, degree: int, rows: list[list[Scalar]] | None = None):
        if degree < 0:
            raise ValueError("degree bound must be non-negative")
        self.degree = degree
        if rows is None:
            rows = [[ZERO] * (degree + 1 - m) for m in range(degree + 1)]
        if len(rows) != degree + 1 or any(
            len(row) != degree + 1 - m for m, row in enumerate(rows)
        ):
            raise ValueError("rows do not form a degree-%d triangle" % degree)
        # A list, not a generator: tuple() sizes a generator's result by
        # guess and resizes it, so the freed tuple lands on another size's
        # free list, and with many triangle degrees those lists fill up.
        self._rows = tuple([tuple(row) for row in rows])

    @classmethod
    def from_function(
        cls, degree: int, rule: Callable[[int, int], Scalar]
    ) -> "TruncatedBiseries":
        return cls(
            degree,
            [[rule(m, n) for n in range(degree + 1 - m)] for m in range(degree + 1)],
        )

    @classmethod
    def zero(cls, degree: int) -> "TruncatedBiseries":
        return cls(degree)

    @classmethod
    def one(cls, degree: int) -> "TruncatedBiseries":
        return cls.monomial(degree, 0, 0, ONE)

    @classmethod
    def monomial(
        cls, degree: int, m: int, n: int, coeff: Scalar = ONE
    ) -> "TruncatedBiseries":
        if m < 0 or n < 0 or m + n > degree:
            raise ValueError(f"monomial x^{m} y^{n} outside degree-{degree} triangle")
        rows = [[ZERO] * (degree + 1 - i) for i in range(degree + 1)]
        rows[m][n] = coeff
        return cls(degree, rows)

    @classmethod
    def shifted_sum(
        cls,
        degree: int,
        terms: Iterable[tuple[Scalar, int, int, "TruncatedBiseries"]],
    ) -> "TruncatedBiseries":
        """Sum of c * x^i y^j * s over terms (c, i, j, s), truncated to degree.

        Each s needs degree >= degree - i - j (i + j <= degree); the terms
        accumulate in place into one triangle.
        """
        rows = [[ZERO] * (degree + 1 - m) for m in range(degree + 1)]
        for c, i, j, s in terms:
            top = degree - i - j
            for m in range(top + 1):
                src, dst = s._rows[m], rows[m + i]
                for n in range(top + 1 - m):
                    v = src[n]
                    if v:
                        dst[n + j] += c * v
        return cls(degree, rows)

    def coeff(self, m: int, n: int) -> Scalar:
        if m < 0 or n < 0 or m + n > self.degree:
            raise IndexError(f"(m, n) = ({m}, {n}) outside degree-{self.degree} triangle")
        return self._rows[m][n]

    def map_indexed(
        self, fn: Callable[[int, int, Scalar], Scalar]
    ) -> "TruncatedBiseries":
        """New series with coefficients fn(m, n, c_{m,n}); the workhorse of
        the diagonal operator actions."""
        return TruncatedBiseries(
            self.degree,
            [
                [fn(m, n, c) for n, c in enumerate(row)]
                for m, row in enumerate(self._rows)
            ],
        )

    def __add__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        self._check_degree(other)
        return TruncatedBiseries(
            self.degree,
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
        )

    def __sub__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        self._check_degree(other)
        return TruncatedBiseries(
            self.degree,
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ],
        )

    def scale(self, factor: Scalar) -> "TruncatedBiseries":
        return TruncatedBiseries(
            self.degree, [[factor * c for c in row] for row in self._rows]
        )

    def __mul__(self, other) -> "TruncatedBiseries":
        if not isinstance(other, TruncatedBiseries):
            return self.scale(as_scalar(other))
        self._check_degree(other)
        N = self.degree
        rows = [[ZERO] * (N + 1 - m) for m in range(N + 1)]
        for m1 in range(N + 1):
            row1 = self._rows[m1]
            for n1 in range(N + 1 - m1):
                c1 = row1[n1]
                if not c1:
                    continue
                for m2 in range(N + 1 - m1 - n1):
                    row2 = other._rows[m2]
                    for n2 in range(N + 1 - m1 - n1 - m2):
                        c2 = row2[n2]
                        if c2:
                            rows[m1 + m2][n1 + n2] += c1 * c2
        return TruncatedBiseries(N, rows)

    __rmul__ = __mul__

    def shifted(self, i: int, j: int) -> "TruncatedBiseries":
        """Multiply by x^i y^j, dropping coefficients pushed past the bound."""
        if i < 0 or j < 0:
            raise ValueError("shift offsets must be non-negative")
        N = self.degree
        rows = [[ZERO] * (N + 1 - m) for m in range(N + 1)]
        for m in range(N + 1 - i):
            for n in range(N + 1 - i - m):
                if m + n + i + j <= N:
                    rows[m + i][n + j] = self._rows[m][n]
        return TruncatedBiseries(N, rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedBiseries):
            return NotImplemented
        return self.degree == other.degree and self._rows == other._rows

    def __hash__(self):
        return hash((self.degree, self._rows))

    def first_mismatch(
        self, other: "TruncatedBiseries"
    ) -> tuple[int, int, Scalar, Scalar] | None:
        """First differing (m, n, this, that) by total degree then x-power."""
        self._check_degree(other)
        for m, n in graded_indices(self.degree):
            a, b = self._rows[m][n], other._rows[m][n]
            if a != b:
                return m, n, a, b
        return None

    def evaluate(self, x: Scalar, y: Scalar) -> Scalar:
        """Value of the truncation at (x, y), by Horner in x then y."""
        acc: Scalar = ZERO
        for m in range(self.degree, -1, -1):
            row_val: Scalar = ZERO
            for n in range(self.degree - m, -1, -1):
                row_val = row_val * y + self._rows[m][n]
            acc = acc * x + row_val
        return acc

    def _check_degree(self, other: "TruncatedBiseries") -> None:
        if self.degree != other.degree:
            raise ValueError(
                f"degree bounds differ: {self.degree} vs {other.degree}"
            )

    def __repr__(self):
        lead = {
            (m, n): c
            for (m, n) in list(graded_indices(min(self.degree, 2)))
            if (c := self._rows[m][n])
        }
        return f"TruncatedBiseries(degree={self.degree}, leading={lead})"


# --- the supported series kinds -------------------------------------------

@dataclass(frozen=True)
class KindInfo:
    """A series kind, stated by its Pochhammer signature.

    `num` and `den` list the numerator and denominator factors of the
    coefficient c_{m,n} as (slot, index) pairs, index one of "m+n", "m",
    "n"; every kind also divides by m! n!, which the signature leaves out.
    Single-variable kinds index by "m" alone.  The signature is the only
    statement of the coefficients, exact and float: `_step_factors` is the
    one reader of its index strings, and from its factors come the float
    term ratios `ratio_x` = c_{m+1,n}/c_{m,n} and `ratio_y` =
    c_{m,n+1}/c_{m,n} (the float sums and the row route's ratio bounds)
    and the exact steps of `step_signature` (the triangles of
    `truncated_series`).  A catalog sum's outer weights, kernel and cell
    factor are signatures of the same form, read by the same two
    functions; only `expressions._convolution_plan` also reads a kind's
    index strings, to split a sum's inner signature into the last two.
    """

    name: str
    num: tuple[tuple[str, str], ...]
    den: tuple[tuple[str, str], ...]
    bivariate: bool
    x_restricted: bool  # needs |x| < 1

    @cached_property
    def slots(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(slot for slot, _ in self.num + self.den))

    @cached_property
    def den_slots(self) -> tuple[str, ...]:
        return tuple(dict.fromkeys(slot for slot, _ in self.den))

    @cached_property
    def ratio_x(self) -> Callable:
        return _term_ratio(self.num, self.den, "m")

    @cached_property
    def ratio_y(self) -> Callable | None:
        return _term_ratio(self.num, self.den, "n") if self.bivariate else None


def _step_factors(num, den, step: str, factorial: bool = True,
                  scale: str = "") -> tuple[list[str], list[str]]:
    """Source text, in (p, m, n), of the factors of the term ratio of the
    signature (num, den) for a unit step in `step` ("m" or "n"): each
    factor whose index contains the step, (p[key] + index), numerator and
    denominator in signature order, and with `factorial` the step's
    (step + 1) of m! n! last among the denominator's.  Each index term is
    written after `scale`: "q*" gives (p[key] + q*m + q*n), in (p, q, m,
    n)."""
    def factors(pairs):
        return [f"(p[{key!r}] + "
                f"{' + '.join(scale + i for i in index.split('+'))})"
                for key, index in pairs if step in index]

    falling = [f"({step} + 1)"] if factorial else []
    return factors(num), factors(den) + falling


@cache
def _step_roundings(info: KindInfo, step: str) -> int:
    """Roundings one recurrence step commits, at most: two additions per
    ratio factor, one product or quotient joining each, then the products
    by the argument and by the previous term."""
    num, den = _step_factors(info.num, info.den, step)
    return 3 * (len(num) + len(den)) + 1


def _term_ratio(num, den, step: str) -> Callable:
    """Compile the term ratio for a unit step in `step` ("m" or "n") as a
    function of (p, m, n), with p the slot values, float or exact.

    The expression is compiled once, as collections.namedtuple compiles its
    methods, so a step costs what a hand-written lambda would.
    """
    num, den = _step_factors(num, den, step)
    return eval(f"lambda p, m, n: {' * '.join(num) or '1'} / "
                f"({' * '.join(den)})", {})


@cache
def _exact_steps(num, den, factorial: bool) -> tuple[Callable, Callable]:
    """The unit steps in m and in n of the signature (num, den), each
    compiled once per signature as a function of (p, q, m, n) that returns
    the (numerator, denominator) pair of the term ratio, for slot values
    p[key] / q.  Each factor (p[key] + q*index) is q times the slot's, so
    the side with fewer such factors takes the powers of q that balance
    them; with q = 1 the pair is the one the slot values give directly."""
    def compiled(step):
        a, b = _step_factors(num, den, step, factorial, "q*")
        power = sum(step in index for _, index in den) - \
            sum(step in index for _, index in num)
        if power:
            (a if power > 0 else b).append(f"q**{abs(power)}")
        return eval(f"lambda p, q, m, n: ({' * '.join(a) or '1'}, "
                    f"{' * '.join(b) or '1'})", {})

    return compiled("m"), compiled("n")


def step_signature(num, den, p: dict, degree: int, first: Scalar = ONE,
                   bivariate: bool = True, factorial: bool = True
                   ) -> Iterator[Scalar]:
    """Yield c_{m,n}, m + n <= degree, of the Pochhammer signature
    (num, den) at the key values p, over m! n! with `factorial`, from
    c_{0,0} = `first`, in row order; column 0 only if not `bivariate`.

    Column 0 is stepped in m lazily, just before each row, then the row in
    n: each step multiplies by the ratio's numerator and divides by its
    denominator.  A term that has vanished stays 0 and is never divided; a
    step whose denominator vanishes gives 0 where its numerator does too,
    and otherwise raises PoleError at its (m, n), so that a caller reading
    the terms in order meets the first pole in that order.

    When `first` and every value of p are Fractions, p is put over one
    common denominator q, the ratio's numerator and denominator are
    integers, and each cell is one Fraction built from them, reduced once;
    any other field steps with q = 1 and its own arithmetic.
    """
    step_m, step_n = _exact_steps(tuple(num), tuple(den), factorial)
    q, times = 1, _times
    if isinstance(first, Fraction) and all(
            isinstance(v, Fraction) for v in p.values()):
        q = math.lcm(*(v.denominator for v in p.values()))
        p = {k: v.numerator * (q // v.denominator) for k, v in p.items()}
        times = _times_exact
    c0 = first
    for m in range(degree + 1):
        if m:
            a, d = step_m(p, q, m - 1, 0)
            c0 = times(c0, a, d) if d else _vanishing(c0, a, m, 0)
        yield c0
        if bivariate:
            c = c0
            for n in range(degree - m):
                a, d = step_n(p, q, m, n)
                c = times(c, a, d) if d else _vanishing(c, a, m, n + 1)
                yield c


def _times(c: Scalar, a: Scalar, d: Scalar) -> Scalar:
    return c * a / d


def _times_exact(c: Fraction, a: int, d: int) -> Fraction:
    return Fraction(c.numerator * a, c.denominator * d)


def _vanishing(c: Scalar, a: Scalar, m: int, n: int) -> Scalar:
    """The term at (m, n) stepped from c by a ratio a / 0."""
    if c and a:
        raise PoleError(
            f"denominator Pochhammer vanishes at (i, j) = ({m}, {n})")
    return c * a


def _triangle_rows(terms: Iterator[Scalar], degree: int) -> list[list[Scalar]]:
    """Split the row-order terms of a degree-`degree` triangle into rows."""
    return [list(islice(terms, degree + 1 - m)) for m in range(degree + 1)]


KINDS: dict[str, KindInfo] = {}


def _register(info: KindInfo) -> None:
    KINDS[info.name] = info


_register(KindInfo(
    name="Phi1",
    num=(("alpha", "m+n"), ("beta", "m")),
    den=(("gamma", "m+n"),),
    bivariate=True,
    x_restricted=True,
))

_register(KindInfo(
    name="Phi2",
    num=(("beta1", "m"), ("beta2", "n")),
    den=(("gamma", "m+n"),),
    bivariate=True,
    x_restricted=False,
))

_register(KindInfo(
    name="Phi3",
    num=(("beta", "m"),),
    den=(("gamma", "m+n"),),
    bivariate=True,
    x_restricted=False,
))

_register(KindInfo(
    name="Psi1",
    num=(("alpha", "m+n"), ("beta", "m")),
    den=(("gamma1", "m"), ("gamma2", "n")),
    bivariate=True,
    x_restricted=True,
))

_register(KindInfo(
    name="Psi2",
    num=(("alpha", "m+n"),),
    den=(("gamma1", "m"), ("gamma2", "n")),
    bivariate=True,
    x_restricted=False,
))

_register(KindInfo(
    name="Xi1",
    num=(("alpha1", "m"), ("alpha2", "n"), ("beta", "m")),
    den=(("gamma", "m+n"),),
    bivariate=True,
    x_restricted=True,
))

_register(KindInfo(
    name="Xi2",
    num=(("alpha", "m"), ("beta", "m")),
    den=(("gamma", "m+n"),),
    bivariate=True,
    x_restricted=True,
))

_register(KindInfo(
    name="Gauss2F1",
    num=(("alpha", "m"), ("beta", "m")),
    den=(("gamma", "m"),),
    bivariate=False,
    x_restricted=True,
))

_register(KindInfo(
    name="Kummer1F1",
    num=(("alpha", "m"),),
    den=(("gamma", "m"),),
    bivariate=False,
    x_restricted=False,
))

_register(KindInfo(
    name="Bessel0F1",
    num=(),
    den=(("gamma", "m"),),
    bivariate=False,
    x_restricted=False,
))

BIVARIATE_KINDS = tuple(k for k, v in KINDS.items() if v.bivariate)
SINGLE_KINDS = tuple(k for k, v in KINDS.items() if not v.bivariate)


@dataclass(frozen=True)
class FunctionRef:
    """A series kind bound to concrete parameter values.

    Construction validates the signature (exactly the kind's slots) and the
    pole guard on every denominator-position parameter.
    """

    kind: str
    params: dict = field(hash=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SignatureError(f"unknown kind {self.kind!r}")
        info = KINDS[self.kind]
        clean = {k: as_scalar(v) for k, v in self.params.items()}
        missing = [s for s in info.slots if s not in clean]
        extra = [s for s in clean if s not in info.slots]
        if missing or extra:
            raise SignatureError(
                f"{self.kind} needs exactly {info.slots}; "
                f"missing {missing}, extra {extra}"
            )
        for slot in info.den_slots:
            check_not_pole(clean[slot], f"{self.kind} parameter {slot}")
        object.__setattr__(self, "params", clean)

    @property
    def info(self) -> KindInfo:
        return KINDS[self.kind]


def in_domain(ref: FunctionRef, x: float, y: float) -> bool:
    """Convergence-region predicate; no analytic continuation is attempted."""
    if not (math.isfinite(x) and math.isfinite(y)):
        return False
    if ref.info.x_restricted and not abs(x) < 1:
        return False
    return True


def _kind_terms(ref: FunctionRef, degree: int) -> Iterator[Scalar]:
    """The kind's coefficients, stepped in row order by step_signature.

    c_{0,0} is the product of every slot's (a)_0: 1 in the parameters'
    field, a Fraction when all are exact and a float otherwise.
    """
    info, p = ref.info, ref.params
    first = math.prod([pochhammer(a, 0) for a in p.values()], start=ONE)
    return step_signature(info.num, info.den, p, degree, first, info.bivariate)


def truncated_series(ref: FunctionRef, degree: int) -> TruncatedBiseries:
    """Triangle of the kind's series to total degree <= degree, exact for
    exact parameters.

    Every cell is stepped from its neighbour with the kind's term ratios
    (`step_signature`): down column 0 in m, then along each row in n.  No
    step divides by zero, since FunctionRef refuses a denominator slot at a
    non-positive integer; a numerator factor that reaches 0 zeroes the rest
    of its row or column, as (a)_k does.  A single-variable kind fills
    column 0 only.
    """
    terms = _kind_terms(ref, degree)
    if not ref.info.bivariate:
        return TruncatedBiseries(
            degree, [[c] + [ZERO] * (degree - m) for m, c in enumerate(terms)])
    return TruncatedBiseries(degree, _triangle_rows(terms, degree))


def single_series_on_axis(
    ref: FunctionRef, degree: int, axis: str
) -> TruncatedBiseries:
    """Single-variable series laid on the x- or y-axis of a triangle."""
    if ref.info.bivariate:
        raise SignatureError(f"{ref.kind} is not single-variable")
    if axis not in ("x", "y"):
        raise ValueError("axis must be 'x' or 'y'")
    if axis == "x":
        return truncated_series(ref, degree)
    return TruncatedBiseries(degree, [list(_kind_terms(ref, degree))] + [
        [ZERO] * (degree + 1 - m) for m in range(1, degree + 1)])


# --- argument transforms and prefactors -------------------------------------

# Each argument transform is a sign and a power of 1/(1-x): x -> sx x (1-x)^-mu
# and y -> sy y (1-x)^-nu, stated as name -> (sign, power).
X_TRANSFORMS = {"identity": (1, 0), "negate": (-1, 0), "moebius_x": (-1, 1)}
Y_TRANSFORMS = {"identity": (1, 0), "negate": (-1, 0),
                "scale_by_geometric": (1, 1)}
# The elementary prefactors a function node may carry, as the keywords of
# substitute_args: (1-x)^pow_one_minus_x and exp(exp_y * y).
PREFACTORS = ("pow_one_minus_x", "exp_y")


def substitute_args(
    s: TruncatedBiseries, tx: str, ty: str,
    pow_one_minus_x: Scalar = 0, exp_y: Scalar = 0,
) -> TruncatedBiseries:
    """(1-x)^p e^(c y) s(X, Y) for the named transforms X of x and Y of y,
    with p = pow_one_minus_x and c = exp_y, exactly, in O(N^3).

    With X = sx x (1-x)^-mu and Y = sy y (1-x)^-nu, the term c_{m,n} x^m y^n
    becomes sx^m sy^n c_{m,n} x^m y^n (1-x)^-e, e = mu m + nu n - p, so it
    spreads down its column with the binomial weights (e)_k / k!; then each
    row is convolved once with the series c^k / k! of e^(c y).
    """
    if tx not in X_TRANSFORMS:
        raise UnsupportedTransform(f"x-transform {tx!r} not in {tuple(X_TRANSFORMS)}")
    if ty not in Y_TRANSFORMS:
        raise UnsupportedTransform(f"y-transform {ty!r} not in {tuple(Y_TRANSFORMS)}")
    p, c = as_scalar(pow_one_minus_x), as_scalar(exp_y)
    if tx == ty == "identity" and not p and not c:
        return s
    (sx, mu), (sy, nu) = X_TRANSFORMS[tx], Y_TRANSFORMS[ty]
    N = s.degree
    binomial: dict = {}  # e -> [(e)_k / k!, k = 0..N]
    rows = [[ZERO] * (N + 1 - m) for m in range(N + 1)]
    for m, row in enumerate(s._rows):
        for n, v in enumerate(row):
            if not v:
                continue
            if sx ** m * sy ** n < 0:
                v = -v
            e = mu * m + nu * n - p
            if e not in binomial:
                binomial[e] = [a / math.factorial(k) for k, a
                               in enumerate(pochhammer_table(e, N))]
            for k, w in enumerate(binomial[e][: N + 1 - m - n]):
                if w:
                    rows[m + k][n] += w * v
    if c:
        exp = [c ** k / math.factorial(k) for k in range(N + 1)]
        rows = [[sum((row[n - k] * exp[k] for k in range(n + 1)), ZERO)
                 for n in range(len(row))] for row in rows]
    return TruncatedBiseries(N, rows)


# --- floating-point summation ----------------------------------------------

def _float_params(ref: FunctionRef) -> dict[str, float]:
    return {k: to_float(v, f"parameter {k}") for k, v in ref.params.items()}


def next_diagonal(info: KindInfo, p: dict, terms, x, y):
    """Diagonal k = len(terms) as one (k+1,) + ray-shape array, row m
    holding t_{m,k-m}: t_{0,k} stepped in y from t_{0,k-1}, every other
    row in x from t_{m-1,k-m} by the term-by-term (t * ratio) * x, so
    every term keeps its bits.  One entry per ray (see `diagonal_terms`)."""
    import numpy as np

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
    import numpy as np  # loaded on first use, as rows.py is

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
    import numpy as np

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
    import numpy as np

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


class SeriesDiag:
    """A double series' sum and how it was summed: the value, the highest
    diagonal m+n summed, the magnitude of what was left out (the last
    diagonal's on the diagonal route, the tail bounds on the row route) and
    the error estimate.

    One read-only record that still reads as the (value, diag) pair it
    replaces: `value, diag = eval_double_series(...)` binds diag to the
    record itself, and diag["est_error"] and result[1]["diagonals"] read
    fields by name.  A slotted class, not a dataclass, whose class creation
    alone adds about 3 ms to `import humbert`.
    """

    __slots__ = ("value", "diagonals", "last_diagonal", "est_error")

    def __init__(self, value: float, diagonals: int, last_diagonal: float,
                 est_error: float):
        for name, v in zip(self.__slots__,
                           (value, diagonals, last_diagonal, est_error)):
            object.__setattr__(self, name, v)

    def __setattr__(self, name, value=None):
        raise AttributeError("SeriesDiag is read-only")

    __delattr__ = __setattr__

    def __iter__(self):
        return iter((self.value, self))

    def __getitem__(self, key):
        if isinstance(key, str):
            return getattr(self, key)
        return (self.value, self)[key]

    def __repr__(self) -> str:
        return "SeriesDiag(%s)" % ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__)


def eval_double_series(
    ref: FunctionRef,
    x: float,
    y: float,
    tol: float = 1e-12,
    max_diagonal: int = 400,
) -> SeriesDiag:
    """Sum the defining double series at (x, y), by one of two routes.

    - The diagonal route (every kind, and the x-restricted kinds Phi1,
      Psi1, Xi1, Xi2 at |x| < ROW_ROUTE_X): terms along each diagonal
      m+n = k come from Pochhammer-ratio recurrence steps on the previous
      diagonal, BAND diagonals per NumPy pass (`_bands`).  Summation stops
      once three consecutive diagonals each contribute (in summed absolute
      value, one masked NumPy sum per band) less than tol times the
      running |sum|.  math.fsum sums what is returned: each diagonal's
      signed sum, and the last diagonal's magnitude, `est_error`.  A sum
      that with a diagonal's magnitude passes the float range is refused.
    - The row route (x-restricted kinds at |x| >= ROW_ROUTE_X, where the
      x series converges slowly): every row, the series in y at a fixed
      power x^m, is stepped at once as one NumPy array (`rows.sum_by_rows`).
      `est_error` bounds the tails left out plus the rounding, and a sum
      whose estimate exceeds tol |value| is refused.

    `max_diagonal` is a budget of max_diagonal (max_diagonal + 1) / 2 terms
    on both routes: the diagonal route sums at most max_diagonal diagonals,
    and the row route refuses, before it allocates, a block of more terms.
    Both raise NoConvergence when the budget runs out.  The result is one
    SeriesDiag, which unpacks as (value, diag).
    """
    check_tolerance(tol)
    check_count(max_diagonal, "max_diagonal")
    info = ref.info
    if not info.bivariate:
        raise SignatureError(f"{ref.kind} is single-variable; use eval_single_series")
    if not in_domain(ref, x, y):
        raise DomainError(f"({x}, {y}) outside the {ref.kind} convergence region")
    p = _float_params(ref)
    if info.x_restricted and abs(x) >= ROW_ROUTE_X:
        from .rows import sum_by_rows  # loaded on first use: see rows.py

        out = sum_by_rows(info, p, x, y, tol,
                          max_diagonal * (max_diagonal + 1) // 2)
    else:
        out = _sum_by_diagonals(info, p, x, y, tol, max_diagonal)
    # The routes return why they gave up rather than raise it, so that the
    # traceback a refusal carries holds none of their terms.
    if isinstance(out, str):
        raise NoConvergence(f"{ref.kind} at ({x}, {y}): {out}")
    return out


def _sum_by_diagonals(
    info: KindInfo, p: dict, x: float, y: float, tol: float, max_diagonal: int
) -> SeriesDiag | str:
    import numpy as np

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


def eval_single_series(kind: str, params: dict, x: float, tol: float = 1e-12,
                       max_terms: int = 500) -> tuple[float, dict]:
    """Sum a single-variable series by term recurrence (`sum_series`):
    accurate to its `est_error`, within tol |value|, or refused."""
    check_tolerance(tol)
    check_count(max_terms, "max_terms")
    ref = FunctionRef(kind, params)
    if ref.info.bivariate:
        raise SignatureError(f"{kind} is bivariate; use eval_double_series")
    if not in_domain(ref, x, 0.0):
        raise DomainError(f"x = {x} outside the {kind} convergence region")
    return sum_series(ref.info, _float_params(ref), x, tol, max_terms,
                      f"{kind} at {x}")


def _absmax(a) -> float:
    """|a| of a float; of an array the largest |entry|, NaN if one is."""
    return abs(a) if isinstance(a, float) else float(abs(a).max())


def _single_steps(info: KindInfo, p: dict, x, count: int) -> Iterator:
    """Terms t_1..t_count of a single-variable kind at x, a float or a node
    array, each stepped t <- (t * ratio_x) * x in place, with |t|."""
    import numpy as np

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
    import numpy as np
    from .rows import ratio_bounds  # loaded on first use: see rows.py

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
