"""Euler-type integral representations and their tanh-sinh cross-checks.

Each representation is data: a gamma-function prefactor, endpoint exponents
for the Beta-type kernel, the remaining smooth integrand factors, and the
function the integral must reproduce.  Integration uses a tanh-sinh rule on
(0, 1): the variable change concentrates nodes double-exponentially at both
endpoints, so one rule handles every algebraic endpoint singularity with
positive exponent.  Two-dimensional integrals are tensor products.

The integrand factors that couple the two integration variables are
expanded as power series in a product u(xi) * v(eta) whenever they admit
one; the double integral then collapses to sums of products of
one-dimensional moments, which is both faster and better conditioned than
evaluating on the full tensor grid.  Representations whose coupling resists
that shape fall back to a row-by-row evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import ConstraintViolation, DomainError, NoConvergence
from .expressions import eval_affine
from .series import KINDS, FunctionRef, eval_double_series

T_MAX = 6.0


@dataclass(frozen=True)
class QuadratureSpec:
    """tanh-sinh refinement policy: halve the step from start_level until
    the successive-level relative change drops below rtol.

    The default starts at level 3 because every representation converges
    between levels 3 and 4, and level 4 is already at round-off.  Each
    level doubles the nodes per axis, so a higher start only adds work.
    """

    start_level: int = 3
    max_level: int = 12
    rtol: float = 1e-10

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


def _axis_weights(nodes: _Nodes, a: float, b: float) -> np.ndarray:
    """Quadrature weight times xi^(a-1) (1-xi)^(b-1), assembled in log space."""
    return np.exp(
        nodes.logw + (a - 1.0) * nodes.log_xi + (b - 1.0) * nodes.log_omx
    )


def integrate_beta_kernel(
    factor, a: float, b: float, spec: QuadratureSpec | None = None
) -> tuple[float, dict]:
    """Integrate factor(xi) * xi^(a-1) * (1-xi)^(b-1) over (0, 1).

    `factor` maps (xi, omx) node arrays to an array, or is None for the
    plain Beta integrand.
    """
    spec = spec or QuadratureSpec()
    if a <= 0 or b <= 0:
        raise ConstraintViolation(
            f"endpoint exponents must be positive, got ({a}, {b})"
        )
    prev = None
    history = []
    for level in range(spec.start_level, spec.max_level + 1):
        nodes = _nodes(level)
        w = _axis_weights(nodes, a, b)
        vals = w if factor is None else w * factor(nodes.xi, nodes.omx)
        current = nodes.h * float(np.sum(vals))
        if prev is not None:
            err = abs(current - prev) / max(abs(current), 1e-300)
            history.append(err)
            if err <= spec.rtol:
                return current, {
                    "final_level": level,
                    "est_error": err,
                    "history": history,
                }
        prev = current
    raise NoConvergence(
        f"tanh-sinh did not reach rtol {spec.rtol} by level {spec.max_level}"
    )


# --- vectorized single-variable series over node arrays ---------------------

def _series_loop(update, start: np.ndarray, tol: float, max_terms: int,
                 what: str) -> np.ndarray:
    total = start.copy()
    term = start.copy()
    streak = 0
    for k in range(max_terms):
        term = update(term, k)
        total += term
        if np.max(np.abs(term)) < tol * max(1.0, np.max(np.abs(total))):
            streak += 1
            if streak == 3:
                return total
        else:
            streak = 0
    raise NoConvergence(f"{what}: series did not settle in {max_terms} terms")


def kummer_arr(a: float, b: float, z: np.ndarray, tol: float) -> np.ndarray:
    return _series_loop(
        lambda t, k: t * ((a + k) / ((b + k) * (k + 1.0))) * z,
        np.ones_like(z), tol, 500, "confluent series",
    )


def bessel_arr(b: float, z: np.ndarray, tol: float) -> np.ndarray:
    return _series_loop(
        lambda t, k: t * (1.0 / ((b + k) * (k + 1.0))) * z,
        np.ones_like(z), tol, 500, "limit-confluent series",
    )


def gauss_arr(a: float, b: float, c: float, z: np.ndarray, tol: float
              ) -> np.ndarray:
    if np.max(np.abs(z)) >= 1.0:
        raise DomainError("Gauss series argument reached |z| >= 1 at a node")
    return _series_loop(
        lambda t, k: t * ((a + k) * (b + k) / ((c + k) * (k + 1.0))) * z,
        np.ones_like(z), tol, 800, "Gauss series",
    )


def phi1_arr(a: float, b: float, c: float, u: np.ndarray, v: np.ndarray,
             tol: float) -> np.ndarray:
    """First Humbert kind on per-node argument pairs, by row reduction:
    sum_m (a)_m (b)_m / ((c)_m m!) u^m * 1F1(a+m; c+m; v)."""
    if np.max(np.abs(u)) >= 1.0:
        raise DomainError("row-reduced series argument reached |u| >= 1")
    coef = 1.0
    pu = np.ones_like(u)
    total = np.zeros_like(u)
    streak = 0
    for m in range(400):
        row = coef * pu * kummer_arr(a + m, c + m, v, tol)
        total += row
        if np.max(np.abs(row)) < tol * max(1.0, np.max(np.abs(total))):
            streak += 1
            if streak == 3:
                return total
        else:
            streak = 0
        coef *= (a + m) * (b + m) / ((c + m) * (m + 1.0))
        pu = pu * u
    raise NoConvergence("row-reduced double series did not settle")


# --- power-series coefficients for coupling factors -------------------------

_COEFF_FLOOR = 1e-18
_COEFF_CAP = 250


def _adaptive(step, zmax: float, what: str) -> np.ndarray:
    """Generate g_0, g_1, ... until |g_k| zmax^k is negligible three times."""
    out = [1.0]
    scale = max(1.0, abs(out[0]))
    pz = 1.0
    streak = 0
    g = 1.0
    for k in range(_COEFF_CAP):
        g = step(g, k)
        out.append(g)
        pz *= zmax
        if abs(g) * pz < _COEFF_FLOOR * scale:
            streak += 1
            if streak == 3:
                return np.array(out)
        else:
            streak = 0
            scale = max(scale, abs(g) * pz)
    raise NoConvergence(f"{what}: coupling series did not settle")


def exp_coeffs(c: float, zmax: float) -> np.ndarray:
    return _adaptive(lambda g, k: g * c / (k + 1.0), zmax, "exponential")


def binom_coeffs(p: float, c: float, zmax: float) -> np.ndarray:
    """(1 - c z)^(-p) = sum_k (p)_k c^k / k! z^k; needs |c| zmax < 1."""
    if abs(c) * zmax >= 1.0:
        raise DomainError("binomial coupling outside its disk")
    return _adaptive(lambda g, k: g * (p + k) * c / (k + 1.0), zmax, "binomial")


def kummer_coeffs(a: float, b: float, c: float, zmax: float) -> np.ndarray:
    return _adaptive(
        lambda g, k: g * (a + k) * c / ((b + k) * (k + 1.0)),
        zmax, "confluent coupling",
    )


def conv_coeffs(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    return np.convolve(g, h)


def ray_coeffs(kind: str, params: dict, cx: float, cy: float, zmax: float
               ) -> np.ndarray:
    """Series in t of F(cx*t, cy*t) for a bivariate kind: the k-th
    coefficient is the k-th diagonal sum of the double series."""
    info = KINDS[kind]
    if info.x_restricted and abs(cx) * zmax >= 1.0:
        raise DomainError(f"{kind} ray leaves the convergence region")
    terms = [1.0]
    out = [1.0]
    pz = 1.0
    streak = 0
    for k in range(1, _COEFF_CAP + 1):
        new = [0.0] * (k + 1)
        new[0] = terms[0] * info.ratio_y(params, 0, k - 1) * cy
        for m in range(1, k + 1):
            new[m] = terms[m - 1] * info.ratio_x(params, m - 1, k - m) * cx
        terms = new
        rk = math.fsum(terms)
        out.append(rk)
        pz *= zmax
        if abs(rk) * pz < _COEFF_FLOOR:
            streak += 1
            if streak == 3:
                return np.array(out)
        else:
            streak = 0
    raise NoConvergence(f"{kind} ray series did not settle")


def poly_arr(coeffs: np.ndarray, z: np.ndarray) -> np.ndarray:
    total = np.zeros_like(z)
    pz = np.ones_like(z)
    for g in coeffs:
        total += g * pz
        pz = pz * z
    return total


# --- the representation table ------------------------------------------------

@dataclass(frozen=True)
class IntegralRep:
    """One Euler-type representation: prefactor, kernel, validity, target."""

    id: str
    dim: int
    lhs_kind: str
    lhs_slots: dict
    constraints: tuple
    pref_num: tuple
    pref_den: tuple
    style: str  # "1d" | "ps" | "rw"
    build: object = field(compare=False)
    notes: str = ""


REPS: dict[str, IntegralRep] = {}


def _rep(rep_id, dim, lhs_kind, lhs_slots, constraints, pref_num, pref_den,
         style, build, notes=""):
    REPS[rep_id] = IntegralRep(
        id=rep_id, dim=dim, lhs_kind=lhs_kind, lhs_slots=lhs_slots,
        constraints=tuple(constraints), pref_num=tuple(pref_num),
        pref_den=tuple(pref_den), style=style, build=build, notes=notes,
    )


def _b41(p, x, y, tol):
    return {
        "exps": (p["alpha"], p["gamma"] - p["alpha"]),
        "factor": lambda xi, omx: np.exp(y * xi)
        * np.power(1.0 - x * xi, -p["beta"]),
    }


def _b42(p, x, y, tol):
    return {
        "exps1": (p["beta1"], p["gamma"] - p["beta1"]),
        "exps2": (p["beta2"], p["gamma"] - p["beta1"] - p["beta2"]),
        "factor1": lambda xi, omx: np.exp(x * xi),
        "factor2": None,
        "couplings": [
            (exp_coeffs(y, 1.0), lambda xi, omx: omx, lambda eta, ome: eta)
        ],
        "const": 1.0,
    }


def _b43(p, x, y, tol):
    umax = 1.0 / (1.0 - abs(x)) if x > 0 else 1.0
    return {
        "exps1": (p["beta"], p["gamma1"] - p["beta"]),
        "exps2": (p["alpha"], p["gamma2"] - p["alpha"]),
        "factor1": lambda xi, omx: np.power(1.0 - x * xi, -p["alpha"]),
        "factor2": None,
        "couplings": [
            (
                exp_coeffs(y, umax),
                lambda xi, omx: 1.0 / (1.0 - x * xi),
                lambda eta, ome: eta,
            )
        ],
        "const": 1.0,
    }


def _b44(p, x, y, tol):
    return {
        "exps1": (p["alpha1"], p["gamma"] - p["alpha1"]),
        "exps2": (p["alpha2"], p["gamma"] - p["alpha1"] - p["alpha2"]),
        "factor1": lambda xi, omx: np.power(1.0 - x * xi, -p["beta"]),
        "factor2": None,
        "couplings": [
            (exp_coeffs(y, 1.0), lambda xi, omx: omx, lambda eta, ome: eta)
        ],
        "const": 1.0,
    }


def _b45(p, x, y, tol):
    return {
        "exps": (p["alpha"], p["gamma"] - p["alpha"]),
        "factor": lambda xi, omx: np.power(1.0 - x * xi, -p["beta"])
        * bessel_arr(p["gamma"] - p["alpha"], omx * y, tol),
    }


def _b46(p, x, y, tol):
    def factor(xi, omx):
        u = x * xi / (x * xi - 1.0)
        return (
            np.exp(y * xi)
            * np.power(1.0 - x * xi, -p["beta"])
            * phi1_arr(p["eps"] - p["alpha"], p["beta"], p["eps"],
                       u, -y * xi, tol)
        )

    return {"exps": (p["eps"], p["gamma"] - p["eps"]), "factor": factor}


def _b47(p, x, y, tol):
    def factor(xi, omx):
        u = x * omx / (1.0 - x * xi)
        return (
            np.exp(y * xi)
            * np.power(1.0 - x * xi, -p["beta"])
            * phi1_arr(p["alpha"] - p["eps"], p["beta"],
                       p["gamma"] - p["eps"], u, y * omx, tol)
        )

    return {"exps": (p["eps"], p["gamma"] - p["eps"]), "factor": factor}


def _b48(p, x, y, tol):
    g = conv_coeffs(exp_coeffs(y, 1.0), binom_coeffs(p["beta"], x, 1.0))
    return {
        "exps1": (p["eps"], p["gamma"] - p["eps"]),
        "exps2": (p["alpha"], p["eps"] - p["alpha"]),
        "factor1": None,
        "factor2": None,
        "couplings": [(g, lambda xi, omx: xi, lambda eta, ome: eta)],
        "const": 1.0,
    }


def _b49(p, x, y, tol):
    c2 = -x / (1.0 - x)
    g = conv_coeffs(exp_coeffs(-y, 1.0), binom_coeffs(p["beta"], c2, 1.0))
    return {
        "exps1": (p["eps"], p["gamma"] - p["eps"]),
        "exps2": (p["alpha"] - p["eps"], p["gamma"] - p["alpha"]),
        "factor1": None,
        "factor2": None,
        "couplings": [(g, lambda xi, omx: omx, lambda eta, ome: ome)],
        "const": math.exp(y) * (1.0 - x) ** (-p["beta"]),
    }


def _b410(p, x, y, tol):
    a, b = p["gamma"] - p["eps"], p["gamma"]

    def row(xi_i, omx_i, eta, ome):
        z = -x * xi_i - y * omx_i * eta
        return np.exp(y * omx_i * eta) * kummer_arr(a, b, z, tol)

    return {
        "exps1": (p["beta1"], p["eps"] - p["beta1"]),
        "exps2": (p["beta2"], p["eps"] - p["beta1"] - p["beta2"]),
        "factor1": lambda xi, omx: np.exp(x * xi),
        "factor2": None,
        "row": row,
        "const": 1.0,
    }


def _b411(p, x, y, tol):
    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["beta2"], p["gamma"] - p["eps1"] - p["beta2"]),
        "factor1": lambda xi, omx: np.exp(x * xi)
        * kummer_arr(p["eps1"] - p["beta1"], p["eps1"], -x * xi, tol),
        "factor2": None,
        "couplings": [
            (exp_coeffs(y, 1.0), lambda xi, omx: omx, lambda eta, ome: eta)
        ],
        "const": 1.0,
    }


def _b412(p, x, y, tol):
    g2 = kummer_coeffs(
        p["beta1"] - p["eps1"], p["gamma"] - p["eps1"] - p["beta2"], x, 1.0
    )
    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["beta2"], p["gamma"] - p["eps1"] - p["beta2"]),
        "factor1": lambda xi, omx: np.exp(x * xi),
        "factor2": None,
        "couplings": [
            (exp_coeffs(y, 1.0), lambda xi, omx: omx, lambda eta, ome: eta),
            (g2, lambda xi, omx: omx, lambda eta, ome: ome),
        ],
        "const": 1.0,
    }


def _b413(p, x, y, tol):
    inner = kummer_coeffs(p["eps2"] - p["beta2"], p["eps2"], -y, 1.0)
    g = conv_coeffs(exp_coeffs(y, 1.0), inner)
    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["eps2"], p["gamma"] - p["eps1"] - p["eps2"]),
        "factor1": lambda xi, omx: np.exp(x * xi)
        * kummer_arr(p["eps1"] - p["beta1"], p["eps1"], -x * xi, tol),
        "factor2": None,
        "couplings": [(g, lambda xi, omx: omx, lambda eta, ome: eta)],
        "const": 1.0,
    }


def _phi2_ray(p, gamma_slot: float, x, y):
    params = {
        "beta1": p["beta1"] - p["eps1"],
        "beta2": p["beta2"] - p["eps2"],
        "gamma": gamma_slot,
    }
    FunctionRef("Phi2", params)  # pole guard
    return ray_coeffs("Phi2", params, x, y, 1.0)


def _b414(p, x, y, tol):
    q = _phi2_ray(p, p["gamma"], x, y)
    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["eps2"], p["gamma"] - p["eps1"] - p["eps2"]),
        "factor1": lambda xi, omx: np.exp(x * xi),
        "factor2": None,
        "couplings": [
            (exp_coeffs(y, 1.0), lambda xi, omx: omx, lambda eta, ome: eta),
            (q, lambda xi, omx: omx, lambda eta, ome: ome),
        ],
        "const": 1.0,
    }


def _b415(p, x, y, tol):
    umax = 1.0 / (1.0 - abs(x)) if x > 0 else 1.0

    def factor1(xi, omx):
        return np.power(1.0 - x * xi, -p["alpha"]) * kummer_arr(
            p["gamma2"] - p["eps"], p["gamma2"], y / (x * xi - 1.0), tol
        )

    return {
        "exps1": (p["beta"], p["gamma1"] - p["beta"]),
        "exps2": (p["alpha"], p["eps"] - p["alpha"]),
        "factor1": factor1,
        "factor2": None,
        "couplings": [
            (
                exp_coeffs(y, umax),
                lambda xi, omx: 1.0 / (1.0 - x * xi),
                lambda eta, ome: eta,
            )
        ],
        "const": 1.0,
    }


def _b416(p, x, y, tol):
    params = {
        "alpha1": p["alpha1"] - p["eps1"],
        "alpha2": p["alpha2"] - p["eps2"],
        "beta": p["beta"],
        "gamma": p["gamma"] - p["eps1"] - p["eps2"],
    }
    FunctionRef("Xi1", params)  # pole guard

    def row(xi_i, omx_i, eta, ome):
        cx = x * omx_i / (1.0 - x * xi_i)
        cy = y * omx_i
        q = ray_coeffs("Xi1", params, cx, cy, 1.0)
        return np.exp(y * omx_i * eta) * poly_arr(q, ome)

    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["eps2"], p["gamma"] - p["eps1"] - p["eps2"]),
        "factor1": lambda xi, omx: np.power(1.0 - x * xi, -p["beta"]),
        "factor2": None,
        "row": row,
        "const": 1.0,
    }


def _b417(p, x, y, tol):
    inner = kummer_coeffs(p["eps2"] - p["alpha2"], p["eps2"], -y, 1.0)
    g = conv_coeffs(exp_coeffs(y, 1.0), inner)
    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["eps2"], p["gamma"] - p["eps1"] - p["eps2"]),
        "factor1": lambda xi, omx: gauss_arr(
            p["alpha1"], p["beta"], p["eps1"], x * xi, tol
        ),
        "factor2": None,
        "couplings": [(g, lambda xi, omx: omx, lambda eta, ome: eta)],
        "const": 1.0,
    }


def _b418(p, x, y, tol):
    return {
        "exps": (p["eps1"], p["gamma"] - p["eps1"]),
        "factor": lambda xi, omx: gauss_arr(
            p["alpha"], p["beta"], p["eps1"], x * xi, tol
        )
        * bessel_arr(p["gamma"] - p["eps1"], y * omx, tol),
    }


def _b419(p, x, y, tol):
    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["alpha"], p["eps1"] - p["alpha"]),
        "factor1": lambda xi, omx: bessel_arr(
            p["gamma"] - p["eps1"], y * omx, tol
        ),
        "factor2": None,
        "couplings": [
            (binom_coeffs(p["beta"], x, 1.0),
             lambda xi, omx: xi, lambda eta, ome: eta)
        ],
        "const": 1.0,
    }


def _b420(p, x, y, tol):
    return {
        "exps1": (p["eps1"], p["gamma"] - p["eps1"]),
        "exps2": (p["beta"], p["eps1"] - p["beta"]),
        "factor1": lambda xi, omx: bessel_arr(
            p["gamma"] - p["eps1"], y * omx, tol
        ),
        "factor2": None,
        "couplings": [
            (binom_coeffs(p["alpha"], x, 1.0),
             lambda xi, omx: xi, lambda eta, ome: eta)
        ],
        "const": 1.0,
    }


_PHI1_SLOTS = {"alpha": "alpha", "beta": "beta", "gamma": "gamma"}
_PHI2_SLOTS = {"beta1": "beta1", "beta2": "beta2", "gamma": "gamma"}
_PSI1_SLOTS = {"alpha": "alpha", "beta": "beta",
               "gamma1": "gamma1", "gamma2": "gamma2"}
_XI1_SLOTS = {"alpha1": "alpha1", "alpha2": "alpha2",
              "beta": "beta", "gamma": "gamma"}
_XI2_SLOTS = {"alpha": "alpha", "beta": "beta", "gamma": "gamma"}

_rep("4.1", 1, "Phi1", _PHI1_SLOTS,
     ["alpha", "gamma - alpha"],
     ["gamma"], ["alpha", "gamma - alpha"], "1d", _b41)
_rep("4.2", 2, "Phi2", _PHI2_SLOTS,
     ["beta1", "beta2", "gamma - beta1 - beta2"],
     ["gamma"], ["beta1", "beta2", "gamma - beta1 - beta2"], "ps", _b42)
_rep("4.3", 2, "Psi1", _PSI1_SLOTS,
     ["alpha", "beta", "gamma1 - beta", "gamma2 - alpha"],
     ["gamma1", "gamma2"],
     ["alpha", "beta", "gamma1 - beta", "gamma2 - alpha"], "ps", _b43)
_rep("4.4", 2, "Xi1", _XI1_SLOTS,
     ["alpha1", "alpha2", "gamma - alpha1 - alpha2"],
     ["gamma"], ["alpha1", "alpha2", "gamma - alpha1 - alpha2"], "ps", _b44)
_rep("4.5", 1, "Xi2", _XI2_SLOTS,
     ["alpha", "gamma - alpha"],
     ["gamma"], ["alpha", "gamma - alpha"], "1d", _b45)
_rep("4.6", 1, "Phi1", _PHI1_SLOTS,
     ["eps", "gamma - eps"],
     ["gamma"], ["eps", "gamma - eps"], "1d", _b46)
_rep("4.7", 1, "Phi1", _PHI1_SLOTS,
     ["eps", "gamma - eps"],
     ["gamma"], ["eps", "gamma - eps"], "1d", _b47)
_rep("4.8", 2, "Phi1", _PHI1_SLOTS,
     ["alpha", "eps - alpha", "gamma - eps"],
     ["gamma"], ["alpha", "gamma - eps", "eps - alpha"], "ps", _b48)
_rep("4.9", 2, "Phi1", _PHI1_SLOTS,
     ["eps", "alpha - eps", "gamma - alpha"],
     ["gamma"], ["eps", "alpha - eps", "gamma - alpha"], "ps", _b49)
_rep("4.10", 2, "Phi2", _PHI2_SLOTS,
     ["beta1", "beta2", "eps - beta1 - beta2"],
     ["eps"], ["beta1", "beta2", "eps - beta1 - beta2"], "rw", _b410,
     notes="confluent factor carries the gamma/eps parameter split")
_rep("4.11", 2, "Phi2", _PHI2_SLOTS,
     ["eps1", "beta2", "gamma - eps1 - beta2"],
     ["gamma"], ["eps1", "beta2", "gamma - eps1 - beta2"], "ps", _b411)
_rep("4.12", 2, "Phi2", _PHI2_SLOTS,
     ["eps1", "beta2", "gamma - eps1 - beta2"],
     ["gamma"], ["eps1", "beta2", "gamma - eps1 - beta2"], "ps", _b412)
_rep("4.13", 2, "Phi2", _PHI2_SLOTS,
     ["eps1", "eps2", "gamma - eps1 - eps2"],
     ["gamma"], ["eps1", "eps2", "gamma - eps1 - eps2"], "ps", _b413)
_rep("4.14", 2, "Phi2", _PHI2_SLOTS,
     ["eps1", "eps2", "gamma - eps1 - eps2"],
     ["gamma"], ["eps1", "eps2", "gamma - eps1 - eps2"], "ps", _b414,
     notes="inner factor as printed; see the corrected variant")
_rep("4.15", 2, "Psi1", _PSI1_SLOTS,
     ["beta", "gamma1 - beta", "alpha", "eps - alpha"],
     ["gamma1", "eps"],
     ["alpha", "beta", "gamma1 - beta", "eps - alpha"], "ps", _b415,
     notes="as printed; the confluent factor closes only at eps = gamma2")
_rep("4.16", 2, "Xi1", _XI1_SLOTS,
     ["eps1", "eps2", "gamma - eps1 - eps2"],
     ["gamma"], ["eps1", "eps2", "gamma - eps1 - eps2"], "rw", _b416)
_rep("4.17", 2, "Xi1", _XI1_SLOTS,
     ["eps1", "eps2", "gamma - eps1 - eps2"],
     ["gamma"], ["eps1", "eps2", "gamma - eps1 - eps2"], "ps", _b417)
_rep("4.18", 1, "Xi2", _XI2_SLOTS,
     ["eps1", "gamma - eps1"],
     ["gamma"], ["eps1", "gamma - eps1"], "1d", _b418)
_rep("4.19", 2, "Xi2", _XI2_SLOTS,
     ["alpha", "eps1 - alpha", "gamma - eps1"],
     ["gamma"], ["alpha", "eps1 - alpha", "gamma - eps1"], "ps", _b419)
_rep("4.20", 2, "Xi2", _XI2_SLOTS,
     ["beta", "eps1 - beta", "gamma - eps1"],
     ["gamma"], ["beta", "gamma - eps1", "eps1 - beta"], "ps", _b420)

REP_IDS = tuple(sorted(REPS, key=lambda s: (len(s), s)))

# Corrected variants adjudicated by the cross-check suite; these sit outside
# the as-printed table and carry the diagnosis in code form.
CORRECTED_BUILDERS = {
    # inner bivariate factor needs the reduced denominator parameter
    "4.14": lambda p, x, y, tol: {
        **_b414(p, x, y, tol),
        "couplings": [
            (exp_coeffs(y, 1.0), lambda xi, omx: omx, lambda eta, ome: eta),
            (
                _phi2_ray(p, p["gamma"] - p["eps1"] - p["eps2"], x, y),
                lambda xi, omx: omx,
                lambda eta, ome: ome,
            ),
        ],
    },
}


# --- evaluation --------------------------------------------------------------

def _tensor_level(rep, data, level: int) -> float:
    n1 = _nodes(level)
    n2 = _nodes(level)
    w1 = _axis_weights(n1, *data["exps1"])
    w2 = _axis_weights(n2, *data["exps2"])
    if data.get("factor1") is not None:
        w1 = w1 * data["factor1"](n1.xi, n1.omx)
    if data.get("factor2") is not None:
        w2 = w2 * data["factor2"](n2.xi, n2.omx)
    if rep.style == "ps":
        couplings = data["couplings"]
        if not couplings:
            total = float(np.sum(w1)) * float(np.sum(w2))
        elif len(couplings) == 1:
            g, ufn, vfn = couplings[0]
            u = ufn(n1.xi, n1.omx)
            v = vfn(n2.xi, n2.omx)
            total = 0.0
            pu, pv = w1.copy(), w2.copy()
            for k, gk in enumerate(g):
                if k:
                    pu = pu * u
                    pv = pv * v
                total += gk * float(np.sum(pu)) * float(np.sum(pv))
        else:
            (g, u1fn, v1fn), (h, u2fn, v2fn) = couplings
            u1, u2 = u1fn(n1.xi, n1.omx), u2fn(n1.xi, n1.omx)
            v1, v2 = v1fn(n2.xi, n2.omx), v2fn(n2.xi, n2.omx)
            p1 = np.vstack([w1 * u1**k for k in range(len(g))])
            p2 = np.vstack([w2 * v1**k for k in range(len(g))])
            q1 = np.vstack([u2**l for l in range(len(h))])
            q2 = np.vstack([v2**l for l in range(len(h))])
            amat = p1 @ q1.T  # A[k, l] = sum_i w1 u1^k u2^l
            bmat = p2 @ q2.T
            total = float(g @ (amat * bmat) @ h)
    else:  # rowwise
        row_fn = data["row"]
        inner = np.empty_like(w1)
        for i in range(w1.shape[0]):
            if w1[i] == 0.0:
                inner[i] = 0.0
                continue
            inner[i] = float(
                np.sum(w2 * row_fn(n1.xi[i], n1.omx[i], n2.xi, n2.omx))
            )
        total = float(np.sum(w1 * inner))
    return total * n1.h * n2.h * data.get("const", 1.0)


def _check_constraints(rep: IntegralRep, env: dict) -> None:
    for expr in rep.constraints:
        val = float(eval_affine(expr, env))
        if val <= 0:
            raise ConstraintViolation(
                f"{rep.id}: requires {expr} > 0, got {val:.6g}"
            )


def _prefactor(rep: IntegralRep, env: dict) -> float:
    log = 0.0
    for expr in rep.pref_num:
        val = float(eval_affine(expr, env))
        if val <= 0:
            raise ConstraintViolation(f"{rep.id}: gamma argument {expr} <= 0")
        log += math.lgamma(val)
    for expr in rep.pref_den:
        val = float(eval_affine(expr, env))
        if val <= 0:
            raise ConstraintViolation(f"{rep.id}: gamma argument {expr} <= 0")
        log -= math.lgamma(val)
    return math.exp(log)


def eval_integral(
    rep: IntegralRep | str,
    params: dict,
    x: float,
    y: float,
    spec: QuadratureSpec | None = None,
    builder=None,
) -> tuple[float, dict]:
    """Prefactor times the tanh-sinh value of one representation at (x, y).

    Refines level by level until the successive relative change is within
    spec.rtol.  `builder` swaps in an alternative integrand (the corrected
    variants) while keeping the rep's constraints and prefactor.
    """
    if isinstance(rep, str):
        rep = REPS[rep]
    spec = spec or QuadratureSpec()
    env = {k: float(v) for k, v in params.items()}
    _check_constraints(rep, env)
    if x >= 1.0:
        raise DomainError(f"{rep.id}: integrand needs x < 1, got {x}")
    pref = _prefactor(rep, env)
    inner_tol = spec.rtol * 0.1
    data = (builder or rep.build)(env, x, y, inner_tol)
    if rep.dim == 1:
        value, diag = integrate_beta_kernel(
            data["factor"], *data["exps"], spec
        )
        return pref * value, diag
    prev = None
    history = []
    for level in range(spec.start_level, spec.max_level + 1):
        current = _tensor_level(rep, data, level)
        if prev is not None:
            err = abs(current - prev) / max(abs(current), 1e-300)
            history.append(err)
            if err <= spec.rtol:
                return pref * current, {
                    "final_level": level,
                    "est_error": err,
                    "history": history,
                }
        prev = current
    raise NoConvergence(
        f"{rep.id}: tanh-sinh did not reach rtol {spec.rtol} "
        f"by level {spec.max_level}"
    )


DEFAULT_POINTS = ((0.3, 0.2), (0.1, 0.35), (0.25, 0.15))
DEFAULT_GRID_AXIS = (0.05, 0.2, 0.35)


def default_grid(rep_id: str) -> tuple:
    """Three spot checks for the direct representations, a 3x3 grid for the
    composite ones."""
    if rep_id in ("4.1", "4.2", "4.3", "4.4", "4.5"):
        return DEFAULT_POINTS
    return tuple((gx, gy) for gx in DEFAULT_GRID_AXIS
                 for gy in DEFAULT_GRID_AXIS)


def default_tolerance(rep_id: str) -> float:
    return 1e-8 if rep_id in ("4.1", "4.2", "4.3", "4.4", "4.5") else 1e-7


def series_value(rep: IntegralRep, params: dict, x: float, y: float) -> float:
    slots = {slot: float(params[sym]) for slot, sym in rep.lhs_slots.items()}
    ref = FunctionRef(rep.lhs_kind, slots)
    value, _ = eval_double_series(ref, x, y, tol=1e-13, max_diagonal=600)
    return value


def cross_check(
    rep_id: str,
    params: dict,
    grid: tuple | None = None,
    tol: float | None = None,
    spec: QuadratureSpec | None = None,
    builder=None,
    variant: str = "as-printed",
):
    """Compare one representation against its series target on a grid.

    Returns a numeric VerificationReport with the max relative error, the
    worst point and the highest tanh-sinh level any grid point needed.
    Constraint violations raise; evaluation failures at some grid point
    produce an error report.
    """
    import time as _time

    from .reports import VerificationReport

    rep = REPS[rep_id]
    grid = grid or default_grid(rep_id)
    tol = tol if tol is not None else default_tolerance(rep_id)
    spec = spec or QuadratureSpec()
    settings = {
        "grid": [list(pt) for pt in grid],
        "quad": spec.to_dict(),
        "variant": variant,
    }
    start = _time.perf_counter()
    worst = (0.0, None)
    quad_level = 0
    try:
        for gx, gy in grid:
            target = series_value(rep, params, gx, gy)
            value, diag = eval_integral(rep, params, gx, gy, spec, builder)
            quad_level = max(quad_level, diag["final_level"])
            rel = abs(value - target) / max(abs(target), 1e-300)
            if rel > worst[0]:
                worst = (rel, (gx, gy))
    except (DomainError, NoConvergence) as exc:
        return VerificationReport(
            target=rep_id, mode="numeric", status="error",
            settings=settings, duration=_time.perf_counter() - start,
            detail=f"{type(exc).__name__}: {exc}",
        )
    duration = _time.perf_counter() - start
    status = "pass" if worst[0] <= tol else "fail"
    return VerificationReport(
        target=rep_id, mode="numeric", status=status,
        settings=settings, duration=duration,
        numeric={
            "max_rel_error": worst[0],
            "worst_point": list(worst[1]) if worst[1] else None,
            "tolerance": tol,
            "quad_level": quad_level,
        },
    )
