"""Operator identities: every function equals an operator chain applied to
a sibling function (or to an elementary closed form), and the chain is a
diagonal eigenvalue action that verification replays exactly.

Each entry states lhs == ops(operand): `ops` is a list of H / H_bar
applications (with axis "xy", "x", or "y" and affine parameter arguments)
applied left to right to the operand's exact truncation.
"""

from __future__ import annotations

import math
import time
from fractions import Fraction

from .errors import HumbertError, UnknownIdentity
from .expressions import (
    affine_symbols,
    assemble_expression,
    eval_affine,
    expression_symbols,
)
from .operators import apply_H, apply_H_bar, delta_pochhammer_action
from .reports import VerificationReport, sort_reports
from .scalars import as_scalar, format_scalar, pochhammer
from .series import FunctionRef, TruncatedBiseries, coefficient_rule, truncated_series


def _fn(kind: str, **params) -> dict:
    return {"type": "function", "kind": kind, "params": params}


def _op(op: str, axis: str, a: str, b: str) -> dict:
    return {"op": op, "axis": axis, "a": a, "b": b}


# (1-x)^(-beta) e^y: the closed form paired with Phi1
_GEOM_EXP = {
    "type": "function",
    "kind": None,
    "prefactor": {"exp_y": "1", "pow_one_minus_x": "-beta"},
}

# (1-x)^(-alpha) 1F1(alpha; gamma2; y/(1-x)): the closed form paired with Psi1
_PFAFF_KUMMER = {
    "type": "function",
    "kind": "Kummer1F1",
    "params": {"alpha": "alpha", "gamma": "gamma2"},
    "axis": "y",
    "prefactor": {"pow_one_minus_x": "-alpha"},
    "transform_y": "scale_by_geometric",
}

_PHI1 = _fn("Phi1", alpha="alpha", beta="beta", gamma="gamma")
_PHI2 = _fn("Phi2", beta1="beta1", beta2="beta2", gamma="gamma")
_PHI3 = _fn("Phi3", beta="beta", gamma="gamma")
_PSI1 = _fn("Psi1", alpha="alpha", beta="beta", gamma1="gamma1", gamma2="gamma2")
_PSI2 = _fn("Psi2", alpha="alpha", gamma1="gamma1", gamma2="gamma2")
_XI1 = _fn("Xi1", alpha1="alpha1", alpha2="alpha2", beta="beta", gamma="gamma")
_XI2 = _fn("Xi2", alpha="alpha", beta="beta", gamma="gamma")

IDENTITIES: dict[str, dict] = {
    "2.1": {"lhs": _PHI1, "ops": [_op("H", "xy", "alpha", "eps")],
            "operand": _fn("Phi1", alpha="eps", beta="beta", gamma="gamma")},
    "2.2": {"lhs": _PHI1, "ops": [_op("Hbar", "xy", "eps", "alpha")],
            "operand": _fn("Phi1", alpha="eps", beta="beta", gamma="gamma")},
    "2.3": {"lhs": _PHI1, "ops": [_op("H", "xy", "eps", "gamma")],
            "operand": _fn("Phi1", alpha="alpha", beta="beta", gamma="eps")},
    "2.4": {"lhs": _PHI1, "ops": [_op("H", "xy", "alpha", "gamma")],
            "operand": _GEOM_EXP},
    "2.5": {"lhs": _GEOM_EXP, "ops": [_op("Hbar", "xy", "alpha", "gamma")],
            "operand": _PHI1},
    "2.6": {"lhs": _PHI1, "ops": [_op("H", "x", "beta", "eps")],
            "operand": _fn("Phi1", alpha="alpha", beta="eps", gamma="gamma")},
    "2.7": {"lhs": _PHI1, "ops": [_op("Hbar", "x", "eps", "beta")],
            "operand": _fn("Phi1", alpha="alpha", beta="eps", gamma="gamma")},
    "2.8": {"lhs": _PHI2, "ops": [_op("H", "xy", "eps", "gamma")],
            "operand": _fn("Phi2", beta1="beta1", beta2="beta2", gamma="eps")},
    "2.9": {"lhs": _PHI2, "ops": [_op("H", "x", "beta1", "eps1")],
            "operand": _fn("Phi2", beta1="eps1", beta2="beta2", gamma="gamma")},
    "2.10": {"lhs": _PHI2, "ops": [_op("Hbar", "x", "eps1", "beta1")],
             "operand": _fn("Phi2", beta1="eps1", beta2="beta2", gamma="gamma")},
    "2.11": {"lhs": _PHI2,
             "ops": [_op("H", "x", "beta1", "eps1"), _op("H", "y", "beta2", "eps2")],
             "operand": _fn("Phi2", beta1="eps1", beta2="eps2", gamma="gamma")},
    "2.12": {"lhs": _PHI2,
             "ops": [_op("Hbar", "x", "eps1", "beta1"),
                     _op("Hbar", "y", "eps2", "beta2")],
             "operand": _fn("Phi2", beta1="eps1", beta2="eps2", gamma="gamma")},
    "2.13": {"lhs": _PHI3, "ops": [_op("H", "x", "beta", "eps")],
             "operand": _fn("Phi3", beta="eps", gamma="gamma")},
    "2.14": {"lhs": _PHI3, "ops": [_op("Hbar", "x", "eps", "beta")],
             "operand": _fn("Phi3", beta="eps", gamma="gamma")},
    "2.15": {"lhs": _PHI3, "ops": [_op("H", "xy", "eps", "gamma")],
             "operand": _fn("Phi3", beta="beta", gamma="eps")},
    "2.16": {"lhs": _PSI1, "ops": [_op("H", "xy", "alpha", "eps")],
             "operand": _fn("Psi1", alpha="eps", beta="beta",
                            gamma1="gamma1", gamma2="gamma2")},
    "2.17": {"lhs": _PSI1, "ops": [_op("H", "x", "beta", "eps")],
             "operand": _fn("Psi1", alpha="alpha", beta="eps",
                            gamma1="gamma1", gamma2="gamma2")},
    "2.18": {"lhs": _PSI1, "ops": [_op("Hbar", "x", "eps", "beta")],
             "operand": _fn("Psi1", alpha="alpha", beta="eps",
                            gamma1="gamma1", gamma2="gamma2")},
    "2.19": {"lhs": _PSI1, "ops": [_op("H", "x", "beta", "gamma1")],
             "operand": _PFAFF_KUMMER},
    "2.20": {"lhs": _PFAFF_KUMMER, "ops": [_op("Hbar", "x", "beta", "gamma1")],
             "operand": _PSI1},
    "2.21": {"lhs": _PSI1, "ops": [_op("H", "y", "eps", "gamma2")],
             "operand": _fn("Psi1", alpha="alpha", beta="beta",
                            gamma1="gamma1", gamma2="eps")},
    "2.22": {"lhs": _PSI2, "ops": [_op("H", "xy", "alpha", "eps")],
             "operand": _fn("Psi2", alpha="eps", gamma1="gamma1", gamma2="gamma2")},
    "2.23": {"lhs": _PSI2, "ops": [_op("Hbar", "xy", "eps", "alpha")],
             "operand": _fn("Psi2", alpha="eps", gamma1="gamma1", gamma2="gamma2")},
    "2.24": {"lhs": _PSI2, "ops": [_op("H", "x", "eps1", "gamma1")],
             "operand": _fn("Psi2", alpha="alpha", gamma1="eps1", gamma2="gamma2")},
    "2.25": {"lhs": _PSI2, "ops": [_op("H", "y", "eps2", "gamma2")],
             "operand": _fn("Psi2", alpha="alpha", gamma1="gamma1", gamma2="eps2")},
    "2.26": {"lhs": _PSI2,
             "ops": [_op("H", "x", "eps1", "gamma1"), _op("H", "y", "eps2", "gamma2")],
             "operand": _fn("Psi2", alpha="alpha", gamma1="eps1", gamma2="eps2")},
    "2.27": {"lhs": _XI1,
             "ops": [_op("H", "x", "alpha1", "eps1"), _op("H", "y", "alpha2", "eps2")],
             "operand": _fn("Xi1", alpha1="eps1", alpha2="eps2",
                            beta="beta", gamma="gamma")},
    "2.28": {"lhs": _XI1,
             "ops": [_op("Hbar", "x", "eps1", "alpha1"),
                     _op("Hbar", "y", "eps2", "alpha2")],
             "operand": _fn("Xi1", alpha1="eps1", alpha2="eps2",
                            beta="beta", gamma="gamma")},
    "2.29": {"lhs": _XI1, "ops": [_op("H", "x", "beta", "eps")],
             "operand": _fn("Xi1", alpha1="alpha1", alpha2="alpha2",
                            beta="eps", gamma="gamma")},
    "2.30": {"lhs": _XI1, "ops": [_op("H", "xy", "eps", "gamma")],
             "operand": _fn("Xi1", alpha1="alpha1", alpha2="alpha2",
                            beta="beta", gamma="eps")},
    "2.31": {"lhs": _XI2, "ops": [_op("H", "x", "alpha", "eps1")],
             "operand": _fn("Xi2", alpha="eps1", beta="beta", gamma="gamma")},
    "2.32": {"lhs": _XI2, "ops": [_op("Hbar", "x", "eps1", "alpha")],
             "operand": _fn("Xi2", alpha="eps1", beta="beta", gamma="gamma")},
    "2.33": {"lhs": _XI2, "ops": [_op("H", "x", "beta", "eps2")],
             "operand": _fn("Xi2", alpha="alpha", beta="eps2", gamma="gamma")},
    "2.34": {"lhs": _XI2, "ops": [_op("Hbar", "x", "eps2", "beta")],
             "operand": _fn("Xi2", alpha="alpha", beta="eps2", gamma="gamma")},
    "2.35": {"lhs": _XI2, "ops": [_op("H", "xy", "eps", "gamma")],
             "operand": _fn("Xi2", alpha="alpha", beta="beta", gamma="eps")},
}


def identity_symbols(identity_id: str) -> set[str]:
    entry = IDENTITIES[identity_id]
    syms = expression_symbols(entry["lhs"]) | expression_symbols(entry["operand"])
    for op in entry["ops"]:
        syms |= affine_symbols(op["a"]) | affine_symbols(op["b"])
    return syms


def _apply_ops(series: TruncatedBiseries, ops: list[dict], env: dict
               ) -> TruncatedBiseries:
    for op in ops:
        a = eval_affine(op["a"], env)
        b = eval_affine(op["b"], env)
        if op["op"] == "H":
            series = apply_H(series, a, b, axis=op["axis"])
        elif op["op"] == "Hbar":
            series = apply_H_bar(series, a, b, axis=op["axis"])
        else:
            raise ValueError(f"unknown operator tag {op['op']!r}")
    return series


def verify_operator_identity(
    identity_id: str, params: dict, degree: int = 8
) -> VerificationReport:
    """Check lhs == ops(operand) exactly on degree-`degree` triangles."""
    if identity_id not in IDENTITIES:
        raise UnknownIdentity(f"no identity with id {identity_id!r}")
    entry = IDENTITIES[identity_id]
    env = {k: as_scalar(v) for k, v in params.items()}
    settings = {"N": degree, "variant": "as-printed"}
    start = time.perf_counter()
    try:
        lhs = assemble_expression(entry["lhs"], params, degree)
        rhs = _apply_ops(
            assemble_expression(entry["operand"], params, degree),
            entry["ops"], env,
        )
    except HumbertError as exc:
        return VerificationReport(
            target=identity_id, mode="exact", status="error",
            settings=settings, duration=time.perf_counter() - start,
            detail=f"{type(exc).__name__}: {exc}",
        )
    mismatch = lhs.first_mismatch(rhs)
    duration = time.perf_counter() - start
    if mismatch is None:
        return VerificationReport(
            target=identity_id, mode="exact", status="pass",
            settings=settings, duration=duration,
        )
    m, n, a, b = mismatch
    return VerificationReport(
        target=identity_id, mode="exact", status="fail",
        settings=settings, duration=duration,
        mismatch={
            "m": m, "n": n,
            "lhs": format_scalar(a), "rhs": format_scalar(b),
            "diff": format_scalar(a - b),
        },
    )


def verify_all_identities(params: dict, degree: int = 8
                          ) -> list[VerificationReport]:
    return sort_reports(
        [verify_operator_identity(i, params, degree) for i in IDENTITIES]
    )


# --- shift mechanics: lowering actions versus parameter shifts -------------

def check_phi1_shift(params: dict, degree: int, i: int, j: int
                     ) -> tuple[int, int, str, str] | None:
    """Index-lowering actions on a Phi1 triangle equal a shifted-parameter
    triangle times a monomial factor.

    Applying (-delta)_i on x and (-delta)_j on y to the triangle of
    Phi1(eps, beta; gamma) must equal
    (-1)^(i+j) (eps)_{i+j} (beta)_i / (gamma)_{i+j} x^i y^j times the
    triangle of Phi1(eps+i+j, beta+i; gamma+i+j), slot by slot.  Returns the
    first mismatch or None.
    """
    env = {k: as_scalar(v) for k, v in params.items()}
    eps, beta, gamma = env["eps"], env["beta"], env["gamma"]
    base = truncated_series(
        FunctionRef("Phi1", {"alpha": eps, "beta": beta, "gamma": gamma}), degree
    )
    lhs = delta_pochhammer_action(
        delta_pochhammer_action(base, "x", i), "y", j
    )
    sign = Fraction(-1 if (i + j) % 2 else 1)
    factor = (
        sign * pochhammer(eps, i + j) * pochhammer(beta, i)
        / pochhammer(gamma, i + j)
    )
    shifted_ref = FunctionRef(
        "Phi1",
        {"alpha": eps + i + j, "beta": beta + i, "gamma": gamma + i + j},
    )
    rhs = TruncatedBiseries.from_function(
        degree,
        lambda m, n: factor * coefficient_rule(shifted_ref, m - i, n - j)
        if m >= i and n >= j else Fraction(0),
    )
    mismatch = lhs.first_mismatch(rhs)
    if mismatch is None:
        return None
    m, n, a, b = mismatch
    return m, n, format_scalar(a), format_scalar(b)


def check_phi1_reconstruction(params: dict, degree: int
                              ) -> tuple[int, int, str, str] | None:
    """Summing the weighted index-lowering actions rebuilds the target.

    Sum over i+j <= degree of (eps-alpha)_{i+j} / ((eps)_{i+j} i! j!) times
    the (i, j) lowering action on the Phi1(eps, beta; gamma) triangle must
    equal the Phi1(alpha, beta; gamma) triangle exactly; the sum is finite
    because slots with m < i or n < j are annihilated.
    """
    env = {k: as_scalar(v) for k, v in params.items()}
    alpha, eps = env["alpha"], env["eps"]
    base = truncated_series(
        FunctionRef("Phi1", {"alpha": eps, "beta": env["beta"],
                             "gamma": env["gamma"]}), degree
    )
    total = TruncatedBiseries.zero(degree)
    for i in range(degree + 1):
        acted_x = delta_pochhammer_action(base, "x", i)
        for j in range(degree + 1 - i):
            weight = pochhammer(eps - alpha, i + j) / (
                pochhammer(eps, i + j)
                * math.factorial(i) * math.factorial(j)
            )
            if weight == 0:
                continue
            total = total + delta_pochhammer_action(acted_x, "y", j).scale(weight)
    target = truncated_series(
        FunctionRef("Phi1", {"alpha": alpha, "beta": env["beta"],
                             "gamma": env["gamma"]}), degree
    )
    mismatch = total.first_mismatch(target)
    if mismatch is None:
        return None
    m, n, a, b = mismatch
    return m, n, format_scalar(a), format_scalar(b)
