"""Truncated bivariate power series and the supported hypergeometric kinds.

The exact side of the package works on dense triangular truncations: a
series of total degree bound N stores the (N+1)(N+2)/2 rational
coefficients c_{m,n} with m+n <= N and nothing else, as integer
numerators over one denominator.  The numeric side sums the defining double
series with a term recurrence: in diagonal order (`summation`), or, near the
edge of the x disk, row by row as one NumPy array recurrence (`rows`).  This
module holds only its entry points, which load that code on first use.
"""

from __future__ import annotations

import math
from functools import cache, cached_property
from fractions import Fraction
from itertools import chain, islice
from typing import Callable, Iterable, Iterator

from .errors import (
    DomainError,
    NoConvergence,
    PoleError,
    SignatureError,
    UnsupportedTransform,
)
from .scalars import (
    as_exact, as_scalar, check_count, check_not_pole, check_tolerance,
    pochhammer,
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

    The coefficients are exact rationals, stored as integer numerators
    (`_rows`) over one positive denominator (`_den`), the whole triangle
    reduced by one gcd: equal triangles store equal integers, which `==`
    and `hash` compare, and `coeff` returns a cell as a reduced Fraction.
    Arithmetic never reads or writes outside the triangle m+n <= degree,
    and products are truncated back to the same bound.  Every combination
    of cells (sums, differences, scalings, shifts, products and eigenvalue
    actions) is one integer accumulation, `shifted_sum`.  Instances are
    immutable.
    """

    __slots__ = ("degree", "_den", "_rows")

    def __init__(self, degree: int, rows: list[list[Fraction]] | None = None):
        """The triangle of the given rows of exact rational cells (each
        coerced by `as_exact`, which refuses a float), or the zero one."""
        if degree < 0:
            raise ValueError("degree bound must be non-negative")
        if rows is None:
            rows = [[0] * (degree + 1 - m) for m in range(degree + 1)]
        if len(rows) != degree + 1 or any(
            len(row) != degree + 1 - m for m, row in enumerate(rows)
        ):
            raise ValueError("rows do not form a degree-%d triangle" % degree)
        rows = [[as_exact(c, f"coefficient ({m}, {n})")
                 for n, c in enumerate(row)] for m, row in enumerate(rows)]
        # over the least common denominator of reduced cells, the
        # numerators have no common factor with it: no gcd is needed
        den = math.lcm(*(c.denominator for row in rows for c in row))
        self._set(degree, den, [[c.numerator * (den // c.denominator)
                                 for c in row] for row in rows])

    def _set(self, degree: int, den: int, rows: list[list[int]]) -> None:
        self.degree = degree
        self._den = den
        # A list, not a generator: tuple() sizes a generator's result by
        # guess and resizes it, so the freed tuple lands on another size's
        # free list, and with many triangle degrees those lists fill up.
        self._rows = tuple([tuple(row) for row in rows])

    @classmethod
    def _over(cls, degree: int, den: int, rows: list[list[int]]
              ) -> "TruncatedBiseries":
        """The triangle of integer rows over den > 0, reduced by one gcd."""
        g = math.gcd(den, *chain.from_iterable(rows))
        if g > 1:
            den //= g
            rows = [[v // g for v in row] for row in rows]
        self = object.__new__(cls)
        self._set(degree, den, rows)
        return self

    @classmethod
    def zero(cls, degree: int) -> "TruncatedBiseries":
        return cls(degree)

    @classmethod
    def one(cls, degree: int) -> "TruncatedBiseries":
        return cls.monomial(degree, 0, 0, ONE)

    @classmethod
    def monomial(
        cls, degree: int, m: int, n: int, coeff: Fraction = ONE
    ) -> "TruncatedBiseries":
        if m < 0 or n < 0 or m + n > degree:
            raise ValueError(f"monomial x^{m} y^{n} outside degree-{degree} triangle")
        rows = [[0] * (degree + 1 - i) for i in range(degree + 1)]
        rows[m][n] = coeff
        return cls(degree, rows)

    @classmethod
    def shifted_sum(
        cls,
        degree: int,
        terms: Iterable[tuple[Fraction, int, int, "TruncatedBiseries"]],
        cell: "TruncatedBiseries | None" = None,
        den: int = 1,
    ) -> "TruncatedBiseries":
        """The sum of (a / den) x^si y^sj K over terms (a, si, sj, K), a
        rational (an int over den needs no Fraction), truncated to degree,
        each cell (M, N) times the triangle `cell`'s (1 if `cell` is None):
        the one routine that combines the cells of triangles.  Each K needs
        degree >= degree - si - sj.

        The weights are put over one integer denominator and reduced by one
        gcd.  Each K's stored integers are read as they are: each weight
        carries the factor that lifts its K's denominator to the common
        one, so every mul-add is an integer one, and the result is reduced
        once."""
        terms = [term for term in terms if term[0]]
        lcm = math.lcm(*(a.denominator for a, _, _, _ in terms))
        weights = [a.numerator * (lcm // a.denominator) for a, _, _, _ in terms]
        g = math.gcd(den * lcm, *weights)
        da = den * lcm // g
        db = math.lcm(*{k._den for _, _, _, k in terms})
        acc = [[0] * (degree + 1 - m) for m in range(degree + 1)]
        for w, (_, si, sj, k) in zip(weights, terms):
            w = w // g * (db // k._den)
            top, ints = degree - si - sj, k._rows
            for m in range(top + 1):
                dst, stop = acc[m + si], sj + top + 1 - m
                dst[sj:stop] = [u + w * v
                                for u, v in zip(dst[sj:stop], ints[m])]
        den = da * db
        if cell is not None:
            den *= cell._den
            acc = [[c * v for c, v in zip(cells, row)]
                   for cells, row in zip(cell._rows, acc)]
        return cls._over(degree, den, acc)

    def coeff(self, m: int, n: int) -> Fraction:
        if m < 0 or n < 0 or m + n > self.degree:
            raise IndexError(f"(m, n) = ({m}, {n}) outside degree-{self.degree} triangle")
        return Fraction(self._rows[m][n], self._den)

    def map_indexed(
        self, fn: Callable[[int, int], Fraction]
    ) -> "TruncatedBiseries":
        """New series with coefficients fn(m, n) c_{m,n}, fn called on every
        cell in row order: the operators' finite-sum routes and
        `delta_pochhammer_action`, whose eigenvalue fn is."""
        return self.shifted_sum(self.degree, [(1, 0, 0, self)],
                                TruncatedBiseries(self.degree, [
            [fn(m, n) for n in range(len(row))]
            for m, row in enumerate(self._rows)]))

    def __add__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        self._check_degree(other)
        return self.shifted_sum(self.degree, [(1, 0, 0, self),
                                              (1, 0, 0, other)])

    def __sub__(self, other: "TruncatedBiseries") -> "TruncatedBiseries":
        self._check_degree(other)
        return self.shifted_sum(self.degree, [(1, 0, 0, self),
                                              (-1, 0, 0, other)])

    def scale(self, factor: Fraction) -> "TruncatedBiseries":
        """Every coefficient times an exact factor (`as_exact`)."""
        factor = as_exact(factor, "factor")
        return self.shifted_sum(self.degree, [(factor, 0, 0, self)])

    def __mul__(self, other) -> "TruncatedBiseries":
        """The truncated product with a triangle of the same degree, or the
        triangle scaled by an exact factor."""
        if not isinstance(other, TruncatedBiseries):
            return self.scale(other)
        self._check_degree(other)
        return self.shifted_sum(
            self.degree, [(c, m, n, other) for m, row in enumerate(self._rows)
                          for n, c in enumerate(row)], den=self._den)

    __rmul__ = __mul__

    def shifted(self, i: int, j: int) -> "TruncatedBiseries":
        """Multiply by x^i y^j, dropping coefficients pushed past the bound."""
        if i < 0 or j < 0:
            raise ValueError("shift offsets must be non-negative")
        return self.shifted_sum(self.degree, [(1, i, j, self)])

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedBiseries):
            return NotImplemented
        return (self.degree == other.degree and self._den == other._den
                and self._rows == other._rows)

    def __hash__(self):
        return hash((self.degree, self._den, self._rows))

    def first_mismatch(
        self, other: "TruncatedBiseries"
    ) -> tuple[int, int, Fraction, Fraction] | None:
        """First differing (m, n, this, that) by total degree then x-power:
        None where the stored integers are equal, else the cells compared
        by cross-multiplying, and only the witness reduced."""
        self._check_degree(other)
        if self == other:
            return None
        d, e = self._den, other._den
        for m, n in graded_indices(self.degree):
            a, b = self._rows[m][n], other._rows[m][n]
            if a * e != b * d:
                return m, n, Fraction(a, d), Fraction(b, e)

    def evaluate(self, x: Fraction, y: Fraction) -> Fraction:
        """Value of the truncation at (x, y), by Horner in x then y."""
        acc: Fraction = ZERO
        for m in range(self.degree, -1, -1):
            row_val: Fraction = ZERO
            for n in range(self.degree - m, -1, -1):
                row_val = row_val * y + self._rows[m][n]
            acc = acc * x + row_val
        return acc / self._den

    def _check_degree(self, other: "TruncatedBiseries") -> None:
        if self.degree != other.degree:
            raise ValueError(
                f"degree bounds differ: {self.degree} vs {other.degree}"
            )

    def __repr__(self):
        lead = {
            (m, n): self.coeff(m, n)
            for (m, n) in list(graded_indices(min(self.degree, 2)))
            if self._rows[m][n]
        }
        return f"TruncatedBiseries(degree={self.degree}, leading={lead})"


# --- the supported series kinds -------------------------------------------

class _ReadOnly:
    """Base of the read-only records (`KindInfo`, `FunctionRef` and
    `summation.SeriesDiag`): `__init__` sets the `_fields` once, by
    `_init`; then assigning or deleting an attribute raises AttributeError.
    The repr lists the fields.  Plain classes, not dataclasses: importing
    `dataclasses`, which loads inspect, ast, dis and tokenize, would cost a
    fifth of `import humbert`.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is read-only")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        return "%s(%s)" % (type(self).__name__, ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._fields))


class KindInfo(_ReadOnly):
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
    factor, the operators' closed-form eigenvalues and the (1-x)^p weights
    of `substitute_args` are signatures of the same form, read by the same
    two functions; only `expressions` also reads a kind's index strings, to
    split a sum's inner signature into the last two and a kernel by axis.

    An `x_restricted` kind converges only for |x| < 1.  There is one
    instance per kind, in `KINDS`, so identity is its equality
    and its hash (`functools.cache` keys on it).  The properties below are
    computed on first use and kept in the instance's `__dict__`.
    """

    _fields = ("name", "num", "den", "bivariate", "x_restricted")

    def __init__(self, name: str, num: tuple[tuple[str, str], ...],
                 den: tuple[tuple[str, str], ...], bivariate: bool,
                 x_restricted: bool):
        self._init(name, num, den, bivariate, x_restricted)

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
    the integer (numerator, denominator) pair of the term ratio, for slot
    values p[key] / q over one common denominator q.  Each factor
    (p[key] + q*index) is q times the slot's, so the side with fewer such
    factors takes the powers of q that balance them."""
    def compiled(step):
        a, b = _step_factors(num, den, step, factorial, "q*")
        power = sum(step in index for _, index in den) - \
            sum(step in index for _, index in num)
        if power:
            (a if power > 0 else b).append(f"q**{abs(power)}")
        return eval(f"lambda p, q, m, n: ({' * '.join(a) or '1'}, "
                    f"{' * '.join(b) or '1'})", {})

    return compiled("m"), compiled("n")


def step_signature(num, den, p: dict, degree: int, first: Fraction = ONE,
                   bivariate: bool = True, factorial: bool = True
                   ) -> tuple[int, Iterator[int]]:
    """(D, the numerators over D of c_{m,n}, m + n <= degree, lazily in
    row order) of the Pochhammer signature (num, den) at the key values p,
    over m! n! with `factorial`, from c_{0,0} = `first`; column 0 only if
    not `bivariate`.

    `first` and the values of p are Fractions.  p is put over one common
    denominator q, so each step's ratio is an integer numerator a over an
    integer denominator d.  D is first's denominator, times degree! (with
    `factorial`), times every nonzero value p + q k, k < degree, of each
    denominator factor that a step moves, times q^(excess degree), excess
    the most q's a step adds to d.  So D is a multiple of every path's
    product of d's to a nonzero cell, and each step is the exact integer
    c * a // d.

    Column 0 is stepped in m lazily, just before each row, then the row in
    n.  A term that has vanished stays 0 and is never divided; a step whose
    denominator vanishes gives 0 where its numerator does too, and
    otherwise raises PoleError at its (m, n), so that a caller reading the
    terms in order meets the first pole in that order.
    """
    num, den = tuple(num), tuple(den)
    step_m, step_n = _exact_steps(num, den, factorial)
    q = math.lcm(*(v.denominator for v in p.values()))
    p = {k: v.numerator * (q // v.denominator) for k, v in p.items()}
    steps = "mn" if bivariate else "m"
    excess = max(0, *(sum(step in index for _, index in num)
                      - sum(step in index for _, index in den)
                      for step in steps))
    D = first.denominator * q ** (excess * degree)
    if factorial:
        D *= math.factorial(degree)
    for key, index in den:
        if any(step in index for step in steps):
            D *= math.prod([v for k in range(degree) if (v := p[key] + q * k)])
    D = abs(D)

    def terms():
        c0 = first.numerator * (D // first.denominator)
        for m in range(degree + 1):
            if m:
                a, d = step_m(p, q, m - 1, 0)
                c0 = c0 * a // d if d else _vanishing(c0, a, m, 0)
            yield c0
            if bivariate:
                c = c0
                for n in range(degree - m):
                    a, d = step_n(p, q, m, n)
                    c = c * a // d if d else _vanishing(c, a, m, n + 1)
                    yield c

    return D, terms()


def _vanishing(c: int, a: int, m: int, n: int) -> int:
    """The term at (m, n) stepped from c by a ratio a / 0."""
    if c and a:
        raise PoleError(
            f"denominator Pochhammer vanishes at (i, j) = ({m}, {n})")
    return c * a


def stepped_triangle(stepped: tuple[int, Iterator[int]], degree: int
                     ) -> TruncatedBiseries:
    """The degree-`degree` triangle of `step_signature`'s (D, row-order
    numerators over D)."""
    den, terms = stepped
    return TruncatedBiseries._over(degree, den, [
        list(islice(terms, degree + 1 - m)) for m in range(degree + 1)])


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


class FunctionRef(_ReadOnly):
    """A series kind bound to concrete parameter values.

    Construction validates the signature (exactly the kind's slots) and the
    pole guard on every denominator-position parameter.  Refs are equal
    when kind and params are; the hash reads the kind alone, as params is a
    dict.
    """

    __slots__ = _fields = ("kind", "params")

    def __init__(self, kind: str, params: dict):
        if kind not in KINDS:
            raise SignatureError(f"unknown kind {kind!r}")
        info = KINDS[kind]
        clean = {k: as_scalar(v) for k, v in params.items()}
        missing = [s for s in info.slots if s not in clean]
        extra = [s for s in clean if s not in info.slots]
        if missing or extra:
            raise SignatureError(
                f"{kind} needs exactly {info.slots}; "
                f"missing {missing}, extra {extra}"
            )
        for slot in info.den_slots:
            check_not_pole(clean[slot], f"{kind} parameter {slot}")
        self._init(kind, clean)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind, self.params) == (other.kind, other.params)

    def __hash__(self) -> int:
        return hash(self.kind)

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


def _kind_terms(ref: FunctionRef, degree: int) -> tuple[int, Iterator[int]]:
    """The kind's coefficients, stepped in row order by step_signature at
    its slot values, each coerced by `as_exact` (a float is refused), as
    (D, numerators over D).  c_{0,0} is the product of every slot's (a)_0.
    """
    info = ref.info
    p = {slot: as_exact(v, f"{ref.kind} parameter {slot}")
         for slot, v in ref.params.items()}
    first = math.prod([pochhammer(a, 0) for a in p.values()], start=ONE)
    return step_signature(info.num, info.den, p, degree, first, info.bivariate)


def truncated_series(ref: FunctionRef, degree: int) -> TruncatedBiseries:
    """Exact triangle of the kind's series to total degree <= degree; a
    float parameter is refused (SignatureError).

    Every cell is stepped from its neighbour with the kind's term ratios
    (`step_signature`): down column 0 in m, then along each row in n.  No
    step divides by zero, since FunctionRef refuses a denominator slot at a
    non-positive integer; a numerator factor that reaches 0 zeroes the rest
    of its row or column, as (a)_k does.  A single-variable kind fills
    column 0 only.
    """
    if ref.info.bivariate:
        return stepped_triangle(_kind_terms(ref, degree), degree)
    den, terms = _kind_terms(ref, degree)
    return TruncatedBiseries._over(
        degree, den, [[c] + [0] * (degree - m) for m, c in enumerate(terms)])


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
    den, terms = _kind_terms(ref, degree)
    return TruncatedBiseries._over(degree, den, [list(terms)] + [
        [0] * (degree + 1 - m) for m in range(1, degree + 1)])


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
    pow_one_minus_x: Fraction = ZERO, exp_y: Fraction = ZERO,
) -> TruncatedBiseries:
    """(1-x)^p e^(c y) s(X, Y) for the named transforms X of x and Y of y,
    with p = pow_one_minus_x and c = exp_y, exactly, in O(N^3).

    With X = sx x (1-x)^-mu and Y = sy y (1-x)^-nu, the term c_{m,n} x^m y^n
    becomes sx^m sy^n c_{m,n} x^m y^n (1-x)^-e, e = mu m + nu n a
    non-negative integer.  So each stored numerator spreads down its
    column, over the same denominator, with the integer binomials C(e+k-1, k) = (e)_k / k!.  The prefactors
    (1-x)^p = sum (-p)_k / k! x^k, its weights one stepped signature, and
    e^(c y) = sum c^k / k! y^k are then one `TruncatedBiseries.shifted_sum`
    each.  p and c are coerced by `as_exact`, which refuses a float.
    """
    if tx not in X_TRANSFORMS:
        raise UnsupportedTransform(f"x-transform {tx!r} not in {tuple(X_TRANSFORMS)}")
    if ty not in Y_TRANSFORMS:
        raise UnsupportedTransform(f"y-transform {ty!r} not in {tuple(Y_TRANSFORMS)}")
    p = as_exact(pow_one_minus_x, "pow_one_minus_x")
    c = as_exact(exp_y, "exp_y")
    (sx, mu), (sy, nu) = X_TRANSFORMS[tx], Y_TRANSFORMS[ty]
    N = s.degree
    if tx != "identity" or ty != "identity":
        den, ints = s._den, s._rows
        binomials: dict = {}  # e -> [C(e+k-1, k), k = 0..N]
        cols = [[0] * (N + 1 - n) for n in range(N + 1)]
        for m, row in enumerate(ints):
            for n, v in enumerate(row):
                if not v:
                    continue
                if sx ** m * sy ** n < 0:
                    v = -v
                e = mu * m + nu * n
                if e not in binomials:
                    binomials[e] = [1] + [math.comb(e + k - 1, k)
                                          for k in range(1, N + 1)]
                col = cols[n]
                col[m:] = [u + w * v for u, w in zip(col[m:], binomials[e])]
        s = TruncatedBiseries._over(N, den, [[cols[n][m]
                                              for n in range(N + 1 - m)]
                                             for m in range(N + 1)])
    if p:
        D, weights = step_signature((("p", "m"),), (), {"p": -p}, N,
                                    bivariate=False)
        s = TruncatedBiseries.shifted_sum(
            N, [(a, k, 0, s) for k, a in enumerate(weights)], den=D)
    if c:
        s = TruncatedBiseries.shifted_sum(N, [
            (c ** k / math.factorial(k), 0, k, s) for k in range(N + 1)])
    return s


# --- floating-point summation ----------------------------------------------
# The sums themselves are `summation`'s, part of the numeric layer: the two
# entry points check their arguments, then import it on their first call.

def eval_double_series(
    ref: FunctionRef,
    x: float,
    y: float,
    tol: float = 1e-12,
    max_diagonal: int = 400,
) -> SeriesDiag:
    """Sum the defining double series at (x, y), by one of two routes.

    - The diagonal route (every kind, and the x-restricted kinds Phi1,
      Psi1, Xi1, Xi2 at |x| < `summation.ROW_ROUTE_X`): terms along each
      diagonal m+n = k come from Pochhammer-ratio recurrence steps on the
      previous diagonal, BAND diagonals per NumPy pass
      (`summation._bands`).  Summation stops
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
    `summation.SeriesDiag`, which unpacks as (value, diag).
    """
    check_tolerance(tol)
    check_count(max_diagonal, "max_diagonal")
    info = ref.info
    if not info.bivariate:
        raise SignatureError(f"{ref.kind} is single-variable; use eval_single_series")
    if not in_domain(ref, x, y):
        raise DomainError(f"({x}, {y}) outside the {ref.kind} convergence region")
    from . import summation  # numeric layer: see humbert.__init__

    p = summation._float_params(ref)
    if info.x_restricted and abs(x) >= summation.ROW_ROUTE_X:
        from .rows import sum_by_rows

        out = sum_by_rows(info, p, x, y, tol,
                          max_diagonal * (max_diagonal + 1) // 2)
    else:
        out = summation._sum_by_diagonals(info, p, x, y, tol, max_diagonal)
    # The routes return why they gave up rather than raise it, so that the
    # traceback a refusal carries holds none of their terms.
    if isinstance(out, str):
        raise NoConvergence(f"{ref.kind} at ({x}, {y}): {out}")
    return out


def eval_single_series(kind: str, params: dict, x: float, tol: float = 1e-12,
                       max_terms: int = 500) -> tuple[float, dict]:
    """Sum a single-variable series by term recurrence
    (`summation.sum_series`): accurate to its `est_error`, within
    tol |value|, or refused."""
    check_tolerance(tol)
    check_count(max_terms, "max_terms")
    ref = FunctionRef(kind, params)
    if ref.info.bivariate:
        raise SignatureError(f"{kind} is bivariate; use eval_double_series")
    if not in_domain(ref, x, 0.0):
        raise DomainError(f"x = {x} outside the {kind} convergence region")
    from . import summation  # numeric layer: see humbert.__init__

    return summation.sum_series(ref.info, summation._float_params(ref), x,
                                tol, max_terms, f"{kind} at {x}")
