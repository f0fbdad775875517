"""Operator identities 2.1-2.35: every function equals an operator chain
applied to a sibling function (or to an elementary closed form), and the
chain is a diagonal eigenvalue action that verification replays exactly.

The identities are catalog entries in data/identities.json: each rhs is an
ops node, a list of H / H_bar steps (axis "xy", "x" or "y", affine
parameter arguments) applied left to right to an operand expression.  The
catalog's loader validates them and its verifier checks them.
"""

from __future__ import annotations

from fractions import Fraction

from .catalog import DATA_DIR, _verify_entry, load_catalog, verify_all
from .errors import SignatureError, UnknownIdentity
from .expressions import eval_affine, exact_env
from .operators import delta_pochhammer_action
from .reports import VerificationReport
from .scalars import pochhammer
from .series import (FunctionRef, TruncatedBiseries, step_signature,
                     truncated_series)

# id -> catalog entry, in 2.1 ... 2.35 order
IDENTITIES: dict[str, dict] = {
    entry["id"]: entry for entry in load_catalog(DATA_DIR / "identities.json")
}


def verify_operator_identity(
    identity_id: str, params: dict, degree: int = 8
) -> VerificationReport:
    """Check lhs == ops(operand) exactly on degree-`degree` triangles."""
    if identity_id not in IDENTITIES:
        raise UnknownIdentity(f"no identity with id {identity_id!r}")
    return _verify_entry(IDENTITIES[identity_id], params, degree, "as-printed")


def verify_all_identities(params: dict, degree: int = 8
                          ) -> list[VerificationReport]:
    return verify_all(params, degree, catalog=list(IDENTITIES.values()))


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

    This is API, not a test helper: lowering actions as parameter shifts
    are the mechanism the decomposition formulas are derived from, and
    this checks it at any parameters and degree, apart from the catalog.
    A float or unbound parameter, or a degree that is not a non-negative
    int, is refused with SignatureError, as assemble_expression refuses it,
    and so is a lowering order i or j that is not one, before any work.
    """
    env = exact_env(params, degree)
    for name, k in (("i", i), ("j", j)):
        if type(k) is not int or k < 0:
            raise SignatureError(
                f"{name} must be a non-negative int, not {k!r}")
    eps, beta, gamma = (eval_affine(k, env) for k in ("eps", "beta", "gamma"))
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
    rhs = TruncatedBiseries.shifted_sum(
        degree, [(factor, i, j, truncated_series(shifted_ref, degree))])
    mismatch = lhs.first_mismatch(rhs)
    if mismatch is None:
        return None
    m, n, a, b = mismatch
    return m, n, str(a), str(b)


def check_phi1_reconstruction(params: dict, degree: int
                              ) -> tuple[int, int, str, str] | None:
    """Summing the weighted index-lowering actions rebuilds the target.

    Sum over i+j <= degree of (eps-alpha)_{i+j} / ((eps)_{i+j} i! j!) times
    the (i, j) lowering action on the Phi1(eps, beta; gamma) triangle must
    equal the Phi1(alpha, beta; gamma) triangle exactly; the sum is finite
    because slots with m < i or n < j are annihilated.

    This is API for the reason check_phi1_shift is: it checks the
    expansion step of that derivation, apart from the catalog's sums, and
    refuses its arguments as check_phi1_shift does.
    """
    env = exact_env(params, degree)
    alpha, eps, beta, gamma = (eval_affine(k, env)
                               for k in ("alpha", "eps", "beta", "gamma"))
    base = truncated_series(
        FunctionRef("Phi1", {"alpha": eps, "beta": beta, "gamma": gamma}),
        degree)
    D, weights = step_signature((("d", "m+n"),), (("eps", "m+n"),),
                                {"d": eps - alpha, "eps": eps}, degree)
    terms = []
    for i in range(degree + 1):
        acted_x = delta_pochhammer_action(base, "x", i)
        for j, weight in zip(range(degree + 1 - i), weights):
            if weight:
                terms.append(
                    (weight, 0, 0, delta_pochhammer_action(acted_x, "y", j)))
    total = TruncatedBiseries.shifted_sum(degree, terms, den=D)
    target = truncated_series(
        FunctionRef("Phi1", {"alpha": alpha, "beta": beta, "gamma": gamma}),
        degree)
    mismatch = total.first_mismatch(target)
    if mismatch is None:
        return None
    m, n, a, b = mismatch
    return m, n, str(a), str(b)
