"""Euler-type integral representations and their tanh-sinh cross-checks.

Each representation is one declaration: the series kind the integral must
reproduce, a Beta kernel xi^(a-1) (1-xi)^(b-1) per integration axis with
its endpoint exponents (a, b) as affine expressions, and a builder for the
remaining smooth factors.  The kernel states both the validity constraints
(the integral converges exactly when every exponent is positive) and the
prefactor (the product of Gamma(a+b) / (Gamma(a) Gamma(b)) over the axes,
which normalises each kernel to 1 and is carried, in log space, by each
axis's quadrature weights).  Integration uses a tanh-sinh rule on
(0, 1): the variable change concentrates nodes double-exponentially at both
endpoints, so one rule handles every algebraic endpoint singularity with
positive exponent.  Two-dimensional integrals are tensor products.

The integrand factors that couple the two integration variables are
expanded as power series in a product u(xi) * v(eta) whenever they admit
one; the double integral then collapses to sums of products of
one-dimensional moments, which is both faster and better conditioned than
evaluating on the full tensor grid.  Representations whose coupling resists
that shape evaluate it in one array pass on the grid of live node pairs,
cut to the block whose weights are not negligible, and contract it with
the two axes' weights.
"""

from __future__ import annotations

import math
import time
from collections.abc import Callable, Iterator
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from itertools import accumulate, chain, count, islice

import numpy as np

from .errors import (
    ArgumentError,
    ConstraintViolation,
    DomainError,
    HumbertError,
    NoConvergence,
    SignatureError,
    UnknownFormula,
)
from .expressions import eval_affine
from .reports import NumericResult, VerificationReport, _id_key
from .scalars import check_count, check_tolerance, is_real, to_float
from .series import KINDS, FunctionRef, eval_double_series
from .summation import _absmax, _single_steps, diagonal_terms, sum_series

T_MAX = 6.0


@dataclass(frozen=True)
class QuadratureSpec:
    """tanh-sinh refinement policy: halve the step from start_level until
    the successive-level relative change drops below rtol.

    The default starts at level 3 because every representation converges
    between levels 3 and 4, and level 4 is already at round-off.  Each
    step evaluates one level and reads the level below from its even
    nodes, so the first step evaluates level start_level + 1.  Each level
    doubles the nodes per axis, so a higher start only adds work.
    A level that is not a non-negative int, a start_level past max_level,
    or an rtol that is not a positive finite real is refused with
    ArgumentError (also a ValueError) when the spec is built.
    """

    start_level: int = 3
    max_level: int = 12
    rtol: float = 1e-10

    def __post_init__(self):
        check_count(self.start_level, "start_level")
        check_count(self.max_level, "max_level")
        check_tolerance(self.rtol, "rtol")
        if self.start_level > self.max_level:
            raise ArgumentError(f"start_level {self.start_level} is past "
                                f"max_level {self.max_level}: no level would "
                                f"run")

    def to_dict(self) -> dict:
        return {
            "start_level": self.start_level,
            "max_level": self.max_level,
            "rtol": self.rtol,
        }


class _Nodes:
    """tanh-sinh abscissas on (0,1) at one level, in overflow-safe form.

    xi = 1/(1 + exp(-2u)) with u = (pi/2) sinh(t); log_xi, log_omx, and the
    log-weight stay in log space because endpoint values underflow plain
    arithmetic long before they stop mattering.
    """

    __slots__ = ("level", "h", "xi", "omx", "log_xi", "log_omx", "logw")

    def __init__(self, level: int):
        self.level = level
        self.h = 2.0 ** -level
        t = np.arange(-T_MAX, T_MAX + 0.5 * self.h, self.h)
        u = 0.5 * math.pi * np.sinh(t)
        au = np.abs(u)
        # log(1 + e^{-2|u|}) is always representable; signs pick the side
        soft = np.log1p(np.exp(-2.0 * au))
        self.log_xi = np.where(u >= 0, -soft, 2.0 * u - soft)
        self.log_omx = np.where(u >= 0, -2.0 * u - soft, -soft)
        self.xi = np.exp(self.log_xi)
        self.omx = np.exp(self.log_omx)
        log_cosh_u = au + np.log1p(np.exp(-2.0 * au)) - math.log(2.0)
        self.logw = (
            math.log(0.25 * math.pi) + np.log(np.cosh(t)) - 2.0 * log_cosh_u
        )


@lru_cache(maxsize=None)
def _nodes(level: int) -> _Nodes:
    return _Nodes(level)


def _axis_weights(nodes: _Nodes, a: float, b: float, log_norm: float
                  ) -> np.ndarray:
    """Step times quadrature weight times the kernel
    exp(log_norm) xi^(a-1) (1-xi)^(b-1), assembled in log space: a kernel
    whose normalisation overflows a float still has representable weights."""
    return nodes.h * np.exp(nodes.logw + log_norm + (a - 1.0) * nodes.log_xi
                            + (b - 1.0) * nodes.log_omx)


def integrate_beta_kernel(a: float, b: float) -> tuple[float, dict]:
    """The Beta function B(a, b), as the tanh-sinh integral of
    xi^(a-1) * (1-xi)^(b-1) over (0, 1), not normalised.

    This is API: B(a, b) has a closed form, so this checks the rule every
    representation integrates with (nodes, endpoint weights in log space
    and level refinement) against an exact value, apart from any series.
    """
    if a <= 0 or b <= 0:
        raise ConstraintViolation(
            f"endpoint exponents must be positive, got ({a}, {b})"
        )
    return _refine(partial(_level, ((a, b, 0.0),), Integrand()),
                   QuadratureSpec())


def _refine(level_pair, spec: QuadratureSpec, prefix: str = ""
            ) -> tuple[float, dict]:
    """Evaluate level_pair(level), the values (coarse, fine) at level - 1
    and level from one evaluation, for each level past spec.start_level in
    turn, until the two agree within spec.rtol.  The first pair compared
    is (start_level, start_level + 1)."""
    history = []
    for level in range(spec.start_level + 1, spec.max_level + 1):
        coarse, fine = level_pair(level)
        err = abs(fine - coarse) / max(abs(fine), 1e-300)
        history.append(err)
        if err <= spec.rtol:
            return fine, {
                "final_level": level,
                "est_error": err,
                "history": history,
            }
    raise NoConvergence(
        f"{prefix}tanh-sinh did not reach rtol {spec.rtol} "
        f"by level {spec.max_level}"
    )


# --- vectorized series over node arrays --------------------------------------

def kummer_arr(a: float, b: float, z: np.ndarray, tol: float) -> np.ndarray:
    return sum_series(KINDS["Kummer1F1"], {"alpha": a, "gamma": b}, z, tol,
                      500, "confluent series")[0]


def bessel_arr(b: float, z: np.ndarray, tol: float) -> np.ndarray:
    return sum_series(KINDS["Bessel0F1"], {"gamma": b}, z, tol, 500,
                      "limit-confluent series")[0]


def gauss_arr(a: float, b: float, c: float, z: np.ndarray, tol: float
              ) -> np.ndarray:
    if np.max(np.abs(z)) >= 1.0:
        raise DomainError("Gauss series argument reached |z| >= 1 at a node")
    p = {"alpha": a, "beta": b, "gamma": c}
    return sum_series(KINDS["Gauss2F1"], p, z, tol, 800, "Gauss series")[0]


def phi1_arr(a: float, b: float, c: float, u: np.ndarray, v: np.ndarray,
             tol: float) -> np.ndarray:
    """Phi1 on per-node argument pairs (u, v), by diagonals."""
    if np.max(np.abs(u)) >= 1.0:
        raise DomainError("Phi1 series argument reached |u| >= 1 at a node")
    p = {"alpha": a, "beta": b, "gamma": c}
    return sum_series(KINDS["Phi1"], p, u, tol, 400, "Phi1 series", v)[0]


# --- power-series coefficients for coupling factors -------------------------

_COEFF_FLOOR = 1e-18
_COEFF_CAP = 250


def _adaptive(coeffs: Iterator, zmax: float, what: str) -> np.ndarray:
    """Take g_0 = 1, g_1, ... from `coeffs` (floats, or one array per ray)
    until three in a row have max |g_k| zmax^k below _COEFF_FLOOR times
    the largest so far, at least 1."""
    out, scale, pz, streak = [], 1.0, 1.0, 0
    for g in islice(coeffs, _COEFF_CAP + 1):
        out.append(g)
        size = _absmax(g) * pz
        pz *= zmax
        if size < _COEFF_FLOOR * scale:
            streak += 1
            if streak == 3:
                return np.array(out)
        else:
            streak = 0
            scale = max(scale, size)
    raise NoConvergence(f"{what}: coupling series did not settle")


def exp_coeffs(c: float, zmax: float) -> np.ndarray:
    gs = accumulate(count(), lambda g, k: g * c / (k + 1.0), initial=1.0)
    return _adaptive(gs, zmax, "exponential")


def binom_coeffs(p: float, c: float, zmax: float) -> np.ndarray:
    """(1 - c z)^(-p) = sum_k (p)_k c^k / k! z^k; needs |c| zmax < 1."""
    if abs(c) * zmax >= 1.0:
        raise DomainError("binomial coupling outside its disk")
    gs = accumulate(count(), lambda g, k: g * (p + k) * c / (k + 1.0),
                    initial=1.0)
    return _adaptive(gs, zmax, "binomial")


def kummer_coeffs(a: float, b: float, c: float, zmax: float) -> np.ndarray:
    """1F1(a; b; c z) = sum_k g_k z^k, g_k the Kummer1F1 terms at c."""
    steps = _single_steps(KINDS["Kummer1F1"], {"alpha": a, "gamma": b}, c,
                          _COEFF_CAP)
    return _adaptive(chain([1.0], (g for g, _ in steps)), zmax,
                     "confluent coupling")


def ray_coeffs(kind: str, params: dict, cx, cy, zmax: float) -> np.ndarray:
    """Series in t of F(cx*t, cy*t) for a bivariate kind: coefficient k is
    diagonal k's sum, by math.fsum for one ray (scalar cx, cy), else by
    np.sum for one ray per element, column j of the (K, rays) result."""
    info = KINDS[kind]
    if info.x_restricted and np.max(np.abs(cx)) * zmax >= 1.0:
        raise DomainError(f"{kind} ray leaves the convergence region")
    shape = np.broadcast(cx, cy).shape
    diagonal_sum = partial(np.sum, axis=0) if shape else math.fsum
    sums = map(diagonal_sum, diagonal_terms(info, params, cx, cy, _COEFF_CAP))
    return _adaptive(chain([np.ones(shape) if shape else 1.0], sums), zmax,
                     f"{kind} ray")


def poly_arr(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    """sum_k coeffs[k] z^k at the 1-D nodes z, as one matrix product of
    the powers z^k (each a running product) with the coefficients.  A
    (K, rays) coeffs gives a (rays, len(z)) array: each ray's polynomial
    at every z."""
    return (np.vander(z, len(coeffs), increasing=True) @ coeffs).T


# --- the representation table ------------------------------------------------

@dataclass(frozen=True)
class Integrand:
    """The smooth factors of one representation at one (x, y), beside the
    Beta kernel its IntegralRep declares.

    `factor(xi, omx)` multiplies the first axis's kernel (None: 1).  A
    two-dimensional integrand adds either `couplings`, terms (g, u, v)
    standing for sum_k g[k] (u(xi, 1-xi) v(eta, 1-eta))^k, or
    `grid(xi, omx, eta, ome, rows, cols)`, its coupling on the node grid
    as a (len(xi), len(eta)) array, evaluated on the block xi[rows] x
    eta[cols] (two slices, see `_level`) and exactly 0 elsewhere.  Each
    block cell keeps the bits it has when the block is the whole grid, and
    the array keeps its memory order, which the contraction's rounding
    depends on.
    """

    factor: Callable | None = None
    couplings: tuple = ()
    grid: Callable | None = None


@dataclass(frozen=True)
class IntegralRep:
    """One Euler-type representation of a series kind.

    `kernel` holds each axis's endpoint exponents (a, b) of the Beta kernel
    xi^(a-1) (1-xi)^(b-1) as affine expressions.  It is the only statement
    of the representation's validity (every exponent > 0) and of its
    prefactor (the product of Gamma(a+b) / (Gamma(a) Gamma(b)) over the
    axes).  `build(params, x, y, tol)` returns the rest as an Integrand.
    `variant` is "as-printed", or "corrected" for a repair (`CORRECTED`).
    """

    id: str
    lhs_kind: str
    kernel: tuple
    style: str  # "1d" | "ps" (power-series couplings) | "rw" (node grid)
    build: Callable = field(compare=False)
    notes: str = ""
    variant: str = "as-printed"

    @property
    def dim(self) -> int:
        return len(self.kernel)


# coupling sides: the node t or 1 - t, on either axis
def _node(t, omt):
    return t


def _one_minus(t, omt):
    return omt


def _b41(p, x, y, tol):
    return Integrand(
        factor=lambda xi, omx: np.exp(y * xi)
        * np.power(1.0 - x * xi, -p["beta"]),
    )


def _b42(p, x, y, tol):
    return Integrand(
        factor=lambda xi, omx: np.exp(x * xi),
        couplings=((exp_coeffs(y, 1.0), _one_minus, _node),),
    )


def _psi1_coupling(x, y):
    """exp(y eta / (1 - x xi)), whose xi-side reaches 1/(1 - x) for x > 0."""
    umax = 1.0 / (1.0 - abs(x)) if x > 0 else 1.0
    return exp_coeffs(y, umax), lambda xi, omx: 1.0 / (1.0 - x * xi), _node


def _b43(p, x, y, tol):
    return Integrand(
        factor=lambda xi, omx: np.power(1.0 - x * xi, -p["alpha"]),
        couplings=(_psi1_coupling(x, y),),
    )


def _b44(p, x, y, tol):
    return Integrand(
        factor=lambda xi, omx: np.power(1.0 - x * xi, -p["beta"]),
        couplings=((exp_coeffs(y, 1.0), _one_minus, _node),),
    )


def _b45(p, x, y, tol):
    return Integrand(
        factor=lambda xi, omx: np.power(1.0 - x * xi, -p["beta"])
        * bessel_arr(p["gamma"] - p["alpha"], omx * y, tol),
    )


def _b46(p, x, y, tol):
    def factor(xi, omx):
        u = x * xi / (x * xi - 1.0)
        return (
            np.exp(y * xi)
            * np.power(1.0 - x * xi, -p["beta"])
            * phi1_arr(p["eps"] - p["alpha"], p["beta"], p["eps"],
                       u, -y * xi, tol)
        )

    return Integrand(factor=factor)


def _b47(p, x, y, tol):
    def factor(xi, omx):
        u = x * omx / (1.0 - x * xi)
        return (
            np.exp(y * xi)
            * np.power(1.0 - x * xi, -p["beta"])
            * phi1_arr(p["alpha"] - p["eps"], p["beta"],
                       p["gamma"] - p["eps"], u, y * omx, tol)
        )

    return Integrand(factor=factor)


def _b48(p, x, y, tol):
    g = np.convolve(exp_coeffs(y, 1.0), binom_coeffs(p["beta"], x, 1.0))
    return Integrand(couplings=((g, _node, _node),))


def _b49(p, x, y, tol):
    c2 = -x / (1.0 - x)
    g = np.convolve(exp_coeffs(-y, 1.0), binom_coeffs(p["beta"], c2, 1.0))
    const = math.exp(y) * (1.0 - x) ** (-p["beta"])
    return Integrand(factor=lambda xi, omx: const,
                     couplings=((g, _one_minus, _one_minus),))


def _b410(p, x, y, tol):
    a, b = p["gamma"] - p["eps"], p["gamma"]

    def grid(xi, omx, eta, ome, rows, cols):
        ys = np.outer(y * omx[rows], eta[cols])
        out = np.zeros((len(xi), len(eta)))
        out[rows, cols] = kummer_arr(a, b, -x * xi[rows, None] - ys, tol)
        out[rows, cols] *= np.exp(ys)
        return out

    return Integrand(factor=lambda xi, omx: np.exp(x * xi), grid=grid)


def _b411(p, x, y, tol):
    return Integrand(
        factor=lambda xi, omx: np.exp(x * xi)
        * kummer_arr(p["eps1"] - p["beta1"], p["eps1"], -x * xi, tol),
        couplings=((exp_coeffs(y, 1.0), _one_minus, _node),),
    )


def _b412(p, x, y, tol):
    g2 = kummer_coeffs(
        p["beta1"] - p["eps1"], p["gamma"] - p["eps1"] - p["beta2"], x, 1.0
    )
    return Integrand(
        factor=lambda xi, omx: np.exp(x * xi),
        couplings=(
            (exp_coeffs(y, 1.0), _one_minus, _node),
            (g2, _one_minus, _one_minus),
        ),
    )


def _b413(p, x, y, tol):
    inner = kummer_coeffs(p["eps2"] - p["beta2"], p["eps2"], -y, 1.0)
    g = np.convolve(exp_coeffs(y, 1.0), inner)
    return Integrand(
        factor=lambda xi, omx: np.exp(x * xi)
        * kummer_arr(p["eps1"] - p["beta1"], p["eps1"], -x * xi, tol),
        couplings=((g, _one_minus, _node),),
    )


def _b414(p, x, y, tol, inner_gamma):
    """4.14 with `inner_gamma` as the inner Phi2's denominator parameter."""
    params = {
        "beta1": p["beta1"] - p["eps1"],
        "beta2": p["beta2"] - p["eps2"],
        "gamma": inner_gamma,
    }
    FunctionRef("Phi2", params)  # pole guard
    return Integrand(
        factor=lambda xi, omx: np.exp(x * xi),
        couplings=(
            (exp_coeffs(y, 1.0), _one_minus, _node),
            (ray_coeffs("Phi2", params, x, y, 1.0), _one_minus, _one_minus),
        ),
    )


def _b415(p, x, y, tol):
    def factor(xi, omx):
        return np.power(1.0 - x * xi, -p["alpha"]) * kummer_arr(
            p["gamma2"] - p["eps"], p["gamma2"], y / (x * xi - 1.0), tol
        )

    return Integrand(factor=factor, couplings=(_psi1_coupling(x, y),))


def _b416(p, x, y, tol):
    params = {
        "alpha1": p["alpha1"] - p["eps1"],
        "alpha2": p["alpha2"] - p["eps2"],
        "beta": p["beta"],
        "gamma": p["gamma"] - p["eps1"] - p["eps2"],
    }
    FunctionRef("Xi1", params)  # pole guard

    def grid(xi, omx, eta, ome, rows, cols):
        # one ray (cx, cy) per block row, all stepped together.  The matrix
        # product keeps the whole grid's shape, (nodes x K)(K x live rows),
        # as BLAS may round a product of another shape differently: the
        # other rows' coefficients are 0, and the other nodes' columns are
        # zeroed after it
        block = ray_coeffs("Xi1", params, x * omx[rows] / (1.0 - x * xi[rows]),
                           y * omx[rows], 1.0)
        q = np.zeros((len(block), len(xi)))
        q[:, rows] = block
        out = poly_arr(q, ome)
        out[rows, cols] *= np.exp(np.outer(y * omx[rows], eta[cols]))
        out[:, :cols.start] = out[:, cols.stop:] = 0.0
        return out

    return Integrand(
        factor=lambda xi, omx: np.power(1.0 - x * xi, -p["beta"]), grid=grid
    )


def _b417(p, x, y, tol):
    inner = kummer_coeffs(p["eps2"] - p["alpha2"], p["eps2"], -y, 1.0)
    g = np.convolve(exp_coeffs(y, 1.0), inner)
    return Integrand(
        factor=lambda xi, omx: gauss_arr(
            p["alpha1"], p["beta"], p["eps1"], x * xi, tol
        ),
        couplings=((g, _one_minus, _node),),
    )


def _b418(p, x, y, tol):
    return Integrand(
        factor=lambda xi, omx: gauss_arr(
            p["alpha"], p["beta"], p["eps1"], x * xi, tol
        )
        * bessel_arr(p["gamma"] - p["eps1"], y * omx, tol),
    )


def _b419(p, x, y, tol, binom_exp):
    """4.19 with `binom_exp` as the binomial exponent; Xi2 is symmetric in
    alpha and beta, and 4.20 is 4.19 with the two swapped."""
    return Integrand(
        factor=lambda xi, omx: bessel_arr(
            p["gamma"] - p["eps1"], y * omx, tol
        ),
        couplings=((binom_coeffs(binom_exp, x, 1.0), _node, _node),),
    )


REPS: dict[str, IntegralRep] = {rep.id: rep for rep in (
    IntegralRep("4.1", "Phi1", (("alpha", "gamma - alpha"),), "1d", _b41),
    IntegralRep("4.2", "Phi2", (("beta1", "gamma - beta1"),
                                ("beta2", "gamma - beta1 - beta2")),
                "ps", _b42),
    IntegralRep("4.3", "Psi1", (("beta", "gamma1 - beta"),
                                ("alpha", "gamma2 - alpha")), "ps", _b43),
    IntegralRep("4.4", "Xi1", (("alpha1", "gamma - alpha1"),
                               ("alpha2", "gamma - alpha1 - alpha2")),
                "ps", _b44),
    IntegralRep("4.5", "Xi2", (("alpha", "gamma - alpha"),), "1d", _b45),
    IntegralRep("4.6", "Phi1", (("eps", "gamma - eps"),), "1d", _b46),
    IntegralRep("4.7", "Phi1", (("eps", "gamma - eps"),), "1d", _b47),
    IntegralRep("4.8", "Phi1", (("eps", "gamma - eps"),
                                ("alpha", "eps - alpha")), "ps", _b48),
    IntegralRep("4.9", "Phi1", (("eps", "gamma - eps"),
                                ("alpha - eps", "gamma - alpha")),
                "ps", _b49),
    IntegralRep("4.10", "Phi2", (("beta1", "eps - beta1"),
                                 ("beta2", "eps - beta1 - beta2")),
                "rw", _b410,
                notes="confluent factor carries the gamma/eps parameter split"),
    IntegralRep("4.11", "Phi2", (("eps1", "gamma - eps1"),
                                 ("beta2", "gamma - eps1 - beta2")),
                "ps", _b411),
    IntegralRep("4.12", "Phi2", (("eps1", "gamma - eps1"),
                                 ("beta2", "gamma - eps1 - beta2")),
                "ps", _b412),
    IntegralRep("4.13", "Phi2", (("eps1", "gamma - eps1"),
                                 ("eps2", "gamma - eps1 - eps2")),
                "ps", _b413),
    IntegralRep("4.14", "Phi2", (("eps1", "gamma - eps1"),
                                 ("eps2", "gamma - eps1 - eps2")),
                "ps", lambda p, x, y, tol: _b414(p, x, y, tol, p["gamma"]),
                notes="inner factor as printed; see the corrected variant"),
    IntegralRep("4.15", "Psi1", (("beta", "gamma1 - beta"),
                                 ("alpha", "eps - alpha")), "ps", _b415,
                notes="as printed; the confluent factor closes only at "
                "eps = gamma2"),
    IntegralRep("4.16", "Xi1", (("eps1", "gamma - eps1"),
                                ("eps2", "gamma - eps1 - eps2")),
                "rw", _b416),
    IntegralRep("4.17", "Xi1", (("eps1", "gamma - eps1"),
                                ("eps2", "gamma - eps1 - eps2")),
                "ps", _b417),
    IntegralRep("4.18", "Xi2", (("eps1", "gamma - eps1"),), "1d", _b418),
    IntegralRep("4.19", "Xi2", (("eps1", "gamma - eps1"),
                                ("alpha", "eps1 - alpha")),
                "ps", lambda p, x, y, tol: _b419(p, x, y, tol, p["beta"])),
    IntegralRep("4.20", "Xi2", (("eps1", "gamma - eps1"),
                                ("beta", "eps1 - beta")),
                "ps", lambda p, x, y, tol: _b419(p, x, y, tol, p["alpha"])),
)}

REP_IDS = tuple(sorted(REPS, key=_id_key))

# Corrected representations adjudicated by the cross-check suite; these sit
# outside the as-printed table and carry the diagnosis in code form.
CORRECTED: dict[str, IntegralRep] = {
    "4.14": replace(
        REPS["4.14"], variant="corrected",
        build=lambda p, x, y, tol: _b414(
            p, x, y, tol, p["gamma"] - p["eps1"] - p["eps2"]),
        notes="inner factor with the reduced denominator gamma - eps1 - eps2"),
}


# --- evaluation --------------------------------------------------------------

def _moments(w: np.ndarray, bases: list, sizes: tuple) -> np.ndarray:
    """M[k_1, ..., k_K] = sum_i w_i prod_j bases[j][i]^k_j, k_j < sizes[j].

    The first K-1 power tables fold into the weights row by row; the last
    contracts with the result in one matrix product.
    """
    rows = w[None, :]
    for base, size in zip(bases[:-1], sizes[:-1]):
        powers = np.vander(base, size, increasing=True).T
        rows = (rows[:, None, :] * powers).reshape(-1, w.size)
    return (rows @ np.vander(bases[-1], sizes[-1], increasing=True)
            ).reshape(sizes)


# The grid route holds a live-row x node coupling array per level.  Level 7
# (1537 nodes per axis) fits; a coupling that still has not settled by then
# is refused rather than left to allocate gigabytes at levels 9 and up.
_GRID_CELLS = 1 << 22

# Tanh-sinh weights fall off double-exponentially toward both ends: the grid
# route evaluates its coupling only where an axis's kernel weight is at
# least _PRUNE times that axis's largest.
_PRUNE = 1e-30


def _span(w: np.ndarray) -> slice:
    """The indices from the first to the last |w| >= _PRUNE max|w|, or all
    of w if its largest |entry| is not finite, as a slice with both ends."""
    a = np.abs(w)
    top = a.max(initial=0.0)
    keep = np.flatnonzero(a >= _PRUNE * top)
    if not (math.isfinite(top) and keep.size):
        return slice(0, a.size)
    return slice(int(keep[0]), int(keep[-1]) + 1)


def _level(exps, integrand: Integrand, level: int) -> tuple[float, float]:
    """One tanh-sinh level of an integral whose axes carry the Beta kernels
    `exps`, triples (a, b, log-norm), times `integrand`, as the pair
    (coarse, fine): `fine` is the value at `level` and `coarse` the value
    at level - 1, read from the same evaluation.  Level - 1's nodes are
    this level's even-indexed nodes, bit for bit, with twice the weight.
    One axis is a weighted sum.  Two contract the couplings' moments, or
    the node grid.

    The grid's coupling is evaluated on the block of live rows and nodes
    between the first and the last kernel weight of at least _PRUNE times
    its axis's largest (`_span`), and is 0 elsewhere.  The block is cut
    by the kernels alone, not by the factor: 4.10's factor exp(x xi)
    falls as fast as its coupling grows (Kummer's transformation), so at
    x = -50 a block cut by their product drops cells that count.  The
    contractions keep the whole grid's shape, so the kept products are
    summed in the same order: a dropped cell adds an exact 0 in place of
    a product whose kernel weight is below _PRUNE times its axis's
    largest, which the sum absorbs."""
    nodes = _nodes(level)
    w1 = k1 = _axis_weights(nodes, *exps[0])
    if integrand.factor is not None:
        w1 = k1 * integrand.factor(nodes.xi, nodes.omx)
    if len(exps) == 1:
        return float(np.sum(2.0 * w1[::2])), float(np.sum(w1))
    w2 = _axis_weights(nodes, *exps[1])
    if integrand.grid is not None:
        # the coupling on the grid of live rows (weight not underflowed)
        live = np.flatnonzero(w1)
        if live.size * w2.size > _GRID_CELLS:
            raise NoConvergence(
                f"level {level} needs a {live.size} x {w2.size} coupling "
                f"grid, over the {_GRID_CELLS}-cell bound")
        coupling = integrand.grid(nodes.xi[live], nodes.omx[live],
                                  nodes.xi, nodes.omx, _span(k1[live]),
                                  _span(w2))
        even = live % 2 == 0
        coarse = (2.0 * w1[live[even]]) @ (coupling[even][:, ::2]
                                           @ (2.0 * w2[::2]))
        return float(coarse), float(w1[live] @ (coupling @ w2))
    # sum_k prod_j g_j[k_j] A[k] B[k], with A and B the moment tensors of
    # the couplings' xi- and eta-sides
    gs, ufns, vfns = zip(*integrand.couplings)
    sizes = tuple(len(g) for g in gs)
    us = [u(nodes.xi, nodes.omx) for u in ufns]
    vs = [v(nodes.xi, nodes.omx) for v in vfns]

    def contract(step: slice, scale: float) -> float:
        total = (_moments(scale * w1[step], [u[step] for u in us], sizes)
                 * _moments(scale * w2[step], [v[step] for v in vs], sizes))
        for g in reversed(gs):
            total = total @ g
        return float(total)

    return contract(np.s_[::2], 2.0), contract(np.s_[:], 1.0)


def _kernel(rep: IntegralRep, env: dict) -> list:
    """Evaluate rep's Beta kernel: per axis, the float endpoint exponents
    (a, b) and the log of its normalisation Gamma(a+b) / (Gamma(a) Gamma(b)).

    The integral converges exactly when every exponent is positive; the
    first one that is not raises ConstraintViolation naming it.
    """
    exps = []
    for axis in rep.kernel:
        a, b = (float(eval_affine(expr, env)) for expr in axis)
        for expr, val in zip(axis, (a, b)):
            if val <= 0:
                raise ConstraintViolation(
                    f"{rep.id}: requires {expr} > 0, got {val:.6g}"
                )
        exps.append((a, b, math.lgamma(a + b) - math.lgamma(a)
                     - math.lgamma(b)))
    return exps


class _Symbols(dict):
    """Float parameters whose missing symbol is a SignatureError, wherever
    an integrand reads it."""

    def __missing__(self, sym):
        raise SignatureError(f"integrand symbol {sym!r} is unbound")


def _lookup(rep: IntegralRep | str) -> IntegralRep:
    """The rep itself, or the one with that id in REPS (UnknownFormula if
    there is none)."""
    if not isinstance(rep, str):
        return rep
    if rep not in REPS:
        raise UnknownFormula(f"unknown representation id {rep!r}")
    return REPS[rep]


def eval_integral(
    rep: IntegralRep | str,
    params: dict,
    x: float,
    y: float,
    spec: QuadratureSpec | None = None,
) -> tuple[float, dict]:
    """The tanh-sinh value of one representation, an IntegralRep or an id
    in REPS (`_lookup`), at (x, y), its kernel normalised.

    Refines level by level until the successive relative change is within
    spec.rtol.  A non-finite x or y, or x >= 1, is a DomainError.
    """
    rep = _lookup(rep)
    spec = spec or QuadratureSpec()
    env = _Symbols({k: to_float(v, f"parameter {k}") for k, v in params.items()})
    exps = _kernel(rep, env)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"{rep.id}: needs finite x and y, got ({x}, {y})")
    if x >= 1.0:
        raise DomainError(f"{rep.id}: integrand needs x < 1, got {x}")
    integrand = rep.build(env, x, y, spec.rtol * 0.1)
    return _refine(partial(_level, exps, integrand), spec, f"{rep.id}: ")


DIRECT_REPS = ("4.1", "4.2", "4.3", "4.4", "4.5")  # 3 points each, to 1e-8
DEFAULT_POINTS = ((0.3, 0.2), (0.1, 0.35), (0.25, 0.15))
DEFAULT_GRID_AXIS = (0.05, 0.2, 0.35)


def default_grid(rep_id: str) -> tuple:
    """Three spot checks for the direct representations, a 3x3 grid for the
    composite ones."""
    if rep_id in DIRECT_REPS:
        return DEFAULT_POINTS
    return tuple((gx, gy) for gx in DEFAULT_GRID_AXIS
                 for gy in DEFAULT_GRID_AXIS)


def default_tolerance(rep_id: str) -> float:
    return 1e-8 if rep_id in DIRECT_REPS else 1e-7


def series_value(rep: IntegralRep, params: dict, x: float, y: float) -> float:
    # FunctionRef refuses a target slot that params leave unbound
    slots = {slot: to_float(params[slot], f"parameter {slot}")
             for slot in KINDS[rep.lhs_kind].slots
             if slot in params}
    ref = FunctionRef(rep.lhs_kind, slots)
    value, _ = eval_double_series(ref, x, y, tol=1e-13, max_diagonal=600)
    return value


@lru_cache(maxsize=256)
def _numeric_settings(grid: tuple, spec: QuadratureSpec, variant: str
                      ) -> dict:
    """A numeric report's settings, built once per distinct (grid, spec,
    variant) and shared, read-only, by every report made with them: a
    repeated cross-check then keeps one small record per run, not three
    more containers."""
    return {"grid": grid, "quad": spec.to_dict(), "variant": variant}


def _check_grid(rep_id: str, grid) -> tuple:
    """The caller's grid as a tuple of (x, y) float pairs, or HumbertError
    naming the first point that is not a pair of real numbers (`is_real`)."""
    try:
        points = tuple(grid)
    except TypeError:
        raise HumbertError(f"grid {grid!r} for {rep_id} is not a sequence "
                           f"of (x, y) points") from None
    if not points:
        raise HumbertError(f"empty grid for {rep_id}: cross_check needs "
                           f"at least one point")
    for pt in points:
        if not (hasattr(pt, "__len__") and len(pt) == 2
                and all(map(is_real, pt))):
            raise HumbertError(f"bad grid point {pt!r} for {rep_id}: "
                               f"expected a pair (x, y) of real numbers")
    return tuple((float(x), float(y)) for x, y in points)


def cross_check(
    rep: IntegralRep | str,
    params: dict,
    grid: tuple | None = None,
    tol: float | None = None,
    spec: QuadratureSpec | None = None,
):
    """Compare one representation, an IntegralRep or an id in REPS
    (`_lookup`), against its series target on a grid.

    Returns a numeric VerificationReport with the max relative error, the
    worst point and the highest tanh-sinh level any grid point needed; its
    target and settings variant are the representation's id and variant.
    grid None selects `default_grid`; a grid that is empty or not a
    sequence of (x, y) pairs of real numbers, a tol that is not positive
    and finite, and constraint violations raise; evaluation failures at
    some grid point produce an error report.
    """
    rep = _lookup(rep)
    grid = default_grid(rep.id) if grid is None else _check_grid(rep.id, grid)
    tol = tol if tol is not None else default_tolerance(rep.id)
    check_tolerance(tol)
    spec = spec or QuadratureSpec()
    settings = _numeric_settings(grid, spec, rep.variant)
    start = time.perf_counter()
    worst = (0.0, None)
    quad_level = 0
    try:
        # the shared settings' grid, so that the worst point is its tuple
        for pt in settings["grid"]:
            gx, gy = pt
            target = series_value(rep, params, gx, gy)
            value, diag = eval_integral(rep, params, gx, gy, spec)
            quad_level = max(quad_level, diag["final_level"])
            rel = abs(value - target) / max(abs(target), 1e-300)
            if rel > worst[0]:
                worst = (rel, pt)
    except (DomainError, NoConvergence) as exc:
        return VerificationReport(
            target=rep.id, mode="numeric", status="error",
            settings=settings, duration=time.perf_counter() - start,
            detail=f"{type(exc).__name__}: {exc}",
        )
    duration = time.perf_counter() - start
    status = "pass" if worst[0] <= tol else "fail"
    return VerificationReport(
        target=rep.id, mode="numeric", status=status,
        settings=settings, duration=duration,
        numeric=NumericResult(worst[0], worst[1], tol, quad_level),
    )
