"""Verification-grade toolkit for the seven Humbert double hypergeometric
functions.

Three layers:

* numeric evaluation of the double series and their one-variable
  degenerations (`eval_double_series`, `eval_single_series`);
* exact symbolic machinery — truncated bivariate power series over the
  rationals, the diagonal parameter-shift operators and their inverses, a
  declarative expression assembler, and one exact catalog schema holding
  the decomposition formulas and the operator identities, each entry
  validated on load and verified coefficient-by-coefficient by one
  verifier (`verify_formula`, `verify_operator_identity`, `verify_all`);
* Euler-type integral representations cross-checked against the series by
  tanh-sinh quadrature (`eval_integral`, `cross_check`).

The numeric layer (`summation`, `quadrature` and NumPy) loads on first
use: at the first float evaluation, or the first access to one of
`quadrature`'s names from this package (the module `__getattr__` below).
The exact layer never loads it, nor `dataclasses`, so `import humbert` and
`humbert verify` run without NumPy and without compiling the float code.
"""

from .catalog import (
    get_formula,
    load_catalog,
    load_errata,
    save_catalog,
    verify_all,
    verify_formula,
)
from .errors import (
    ArgumentError,
    ConstraintViolation,
    DomainError,
    HumbertError,
    NoConvergence,
    PoleError,
    SignatureError,
    UnknownFormula,
    UnknownIdentity,
    UnsupportedTransform,
)
from .expressions import assemble_expression, eval_affine, parse_affine
from .identities import (
    IDENTITIES,
    verify_all_identities,
    verify_operator_identity,
)
from .operators import (
    apply_H,
    apply_H_bar,
    apply_delta_op,
    apply_nabla,
    apply_nabla_delta,
)
from .profiles import load_config, profile_params, resolved_params
from .reports import VerificationReport, sort_reports
from .series import (
    BIVARIATE_KINDS,
    KINDS,
    SINGLE_KINDS,
    FunctionRef,
    TruncatedBiseries,
    eval_double_series,
    eval_single_series,
    truncated_series,
)

__version__ = "0.1.0"

__all__ = [
    "ArgumentError",
    "BIVARIATE_KINDS",
    "ConstraintViolation",
    "DomainError",
    "FunctionRef",
    "HumbertError",
    "IDENTITIES",
    "IntegralRep",
    "KINDS",
    "NoConvergence",
    "PoleError",
    "QuadratureSpec",
    "REPS",
    "REP_IDS",
    "SINGLE_KINDS",
    "SignatureError",
    "TruncatedBiseries",
    "UnknownFormula",
    "UnknownIdentity",
    "UnsupportedTransform",
    "VerificationReport",
    "apply_H",
    "apply_H_bar",
    "apply_delta_op",
    "apply_nabla",
    "apply_nabla_delta",
    "assemble_expression",
    "cross_check",
    "eval_affine",
    "eval_double_series",
    "eval_integral",
    "eval_single_series",
    "get_formula",
    "load_catalog",
    "load_config",
    "load_errata",
    "parse_affine",
    "profile_params",
    "resolved_params",
    "save_catalog",
    "sort_reports",
    "truncated_series",
    "verify_all",
    "verify_all_identities",
    "verify_formula",
    "verify_operator_identity",
    "__version__",
]


def __getattr__(name):
    """The numeric layer's names, from `quadrature` on first access."""
    if name in {"REP_IDS", "REPS", "IntegralRep", "QuadratureSpec",
                "cross_check", "eval_integral"}:
        from . import quadrature

        return getattr(quadrature, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
