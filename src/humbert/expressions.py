"""Declarative expression model and its exact assembler.

Both sides of every cataloged formula are data: a FunctionTerm (an optional
elementary prefactor times a referenced series with argument transforms) or
an ExpansionSum (a signed Pochhammer-weighted sum of shifted inner series).
One interpreter assembles any of them into an exact truncated triangle, so
there is a single code path to trust and entries stay diffable.

Parameter expressions use a tiny affine language: sums of signed symbols
and integer constants, e.g. "eps - alpha", "gamma + i + j", "1 - beta".
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Callable

from .errors import PoleError, SignatureError
from .scalars import SYMBOLS, Scalar, as_scalar, pochhammer_table
from .series import (
    FunctionRef,
    KINDS,
    TruncatedBiseries,
    elementary_series,
    single_series_on_axis,
    substitute_args,
    truncated_series,
)

INDEX_SYMBOLS = ("i", "j")
AFFINE_SYMBOLS = SYMBOLS + INDEX_SYMBOLS

_TOKEN = re.compile(r"\s*([+-]|[A-Za-z][A-Za-z0-9]*|\d+)")

SIGNS = ("+1", "(-1)^i", "(-1)^(i+j)")
INDEX_EXPRS = ("i", "j", "i+j")
WEIGHTS = ("xy", "x", "y")


@lru_cache(maxsize=None)
def parse_affine(expr: str) -> tuple[Fraction, tuple[tuple[str, int], ...]]:
    """Parse an affine expression into (constant, ((symbol, coeff), ...))."""
    pos = 0
    sign = 1
    expect_term = True
    const = Fraction(0)
    coeffs: dict[str, int] = {}
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            raise SignatureError(f"bad affine expression {expr!r} at offset {pos}")
        tok = m.group(1)
        pos = m.end()
        if tok in "+-":
            if expect_term and tok == "-":
                sign = -sign
            elif expect_term:
                pass
            else:
                sign = -1 if tok == "-" else 1
                expect_term = True
            continue
        if not expect_term:
            raise SignatureError(f"missing operator in {expr!r}")
        if tok.isdigit():
            const += sign * int(tok)
        elif tok in AFFINE_SYMBOLS:
            coeffs[tok] = coeffs.get(tok, 0) + sign
        else:
            raise SignatureError(f"unknown symbol {tok!r} in {expr!r}")
        sign = 1
        expect_term = False
    if expect_term and expr.strip():
        raise SignatureError(f"dangling operator in {expr!r}")
    if not expr.strip():
        raise SignatureError("empty affine expression")
    return const, tuple(sorted((k, v) for k, v in coeffs.items() if v))


def affine_symbols(expr: str) -> set[str]:
    return {name for name, _ in parse_affine(str(expr))[1]}


def eval_affine(expr, env: dict) -> Scalar:
    """Evaluate an affine expression (or bare number) under a symbol table."""
    if isinstance(expr, (int, Fraction)):
        return as_scalar(expr)
    const, coeffs = parse_affine(str(expr))
    total: Scalar = const
    for name, coeff in coeffs:
        if name not in env:
            raise SignatureError(f"symbol {name!r} unbound in {expr!r}")
        total = total + coeff * env[name]
    return total


def _index_value(index_expr: str, i: int, j: int) -> int:
    if index_expr == "i":
        return i
    if index_expr == "j":
        return j
    if index_expr == "i+j":
        return i + j
    raise SignatureError(f"index expression must be one of {INDEX_EXPRS}")


def _sign_value(sign: str, i: int, j: int) -> int:
    if sign == "+1":
        return 1
    if sign == "(-1)^i":
        return -1 if i % 2 else 1
    if sign == "(-1)^(i+j)":
        return -1 if (i + j) % 2 else 1
    raise SignatureError(f"sign rule must be one of {SIGNS}")


def _assemble_function_term(
    term: dict, env: dict, degree: int
) -> TruncatedBiseries:
    kind = term.get("kind")
    if kind is not None:
        if kind not in KINDS:
            raise SignatureError(f"unknown kind {kind!r}")
        params = {
            slot: eval_affine(expr, env) for slot, expr in term["params"].items()
        }
        ref = FunctionRef(kind, params)
        if KINDS[kind].bivariate:
            series = truncated_series(ref, degree)
        else:
            series = single_series_on_axis(ref, degree, term.get("axis", "x"))
    else:
        series = TruncatedBiseries.one(degree)
    tx = term.get("transform_x", "identity")
    ty = term.get("transform_y", "identity")
    if tx != "identity" or ty != "identity":
        series = substitute_args(series, tx, ty)
    pre = term.get("prefactor") or {}
    if "pow_one_minus_x" in pre:
        series = series * elementary_series(
            "binomial_x", eval_affine(pre["pow_one_minus_x"], env), degree
        )
    if "exp_y" in pre:
        series = series * elementary_series(
            "exp_y_scaled", eval_affine(pre["exp_y"], env), degree
        )
    return series


def _outer_coefficient(e: dict, env: dict, i: int, j: int,
                       poch: Callable[[Scalar, int], Scalar]) -> Scalar:
    """Signed Pochhammer weight of the (i, j) term; 0 skips the term."""

    def factor_value(factor: dict) -> Scalar:
        return poch(eval_affine(factor["param"], env),
                    _index_value(factor["index"], i, j))

    num = Fraction(_sign_value(e.get("sign", "+1"), i, j))
    for factor in e.get("num", ()):
        num *= factor_value(factor)
        if num == 0:
            return num
    den: Scalar = Fraction(math.factorial(i) * math.factorial(j))
    for factor in e.get("den", ()):
        den *= factor_value(factor)
    if den == 0:
        raise PoleError(
            f"denominator Pochhammer vanishes at (i, j) = ({i}, {j})"
        )
    return num / den


def _assemble_sum(e: dict, env: dict, degree: int, outer_bound: int
                  ) -> TruncatedBiseries:
    indices = e.get("indices", "ij")
    weight = e.get("weight", "xy")
    if weight not in WEIGHTS:
        raise SignatureError(f"weight must be one of {WEIGHTS}")
    if indices == "ij":
        pairs = [
            (i, j)
            for i in range(outer_bound + 1)
            for j in range(outer_bound + 1 - i)
        ]
    elif indices == "i":
        pairs = [(i, 0) for i in range(outer_bound + 1)]
    else:
        raise SignatureError(f"indices must be 'ij' or 'i', not {indices!r}")
    tables: dict = {}

    def poch(a: Scalar, k: int) -> Scalar:
        """(a)_k for k <= outer_bound, from one prefix table per argument."""
        key = (a, type(a))
        if key not in tables:
            tables[key] = pochhammer_table(a, outer_bound)
        return tables[key][k]

    def terms():
        for i, j in pairs:
            env2 = dict(env)
            env2["i"] = Fraction(i)
            env2["j"] = Fraction(j)
            coeff = _outer_coefficient(e, env2, i, j, poch)
            if coeff == 0:
                continue
            if weight == "xy":
                si, sj = i, j
            elif weight == "x":
                si, sj = i, 0
            else:
                si, sj = 0, i
            if si + sj > degree:
                continue
            # x^si y^sj pushes inner degrees above degree - si - sj out of
            # the triangle, and no inner step reads a higher degree to build
            # a lower one, so the inner term is assembled only that far.
            try:
                inner = _assemble_function_term(
                    e["inner"], env2, degree - si - sj)
            except PoleError as exc:
                raise PoleError(f"at (i, j) = ({i}, {j}): {exc}") from exc
            yield coeff, si, sj, inner

    return TruncatedBiseries.shifted_sum(degree, terms())


def assemble_expression(
    e: dict, params: dict, degree: int, outer_bound: int | None = None
) -> TruncatedBiseries:
    """Build the exact degree-`degree` triangle of a declarative expression.

    For sums the outer summation runs to `outer_bound` (default: `degree`);
    terms beyond the degree bound cannot touch the triangle because of the
    monomial weight, so any outer_bound >= degree yields the same triangle.
    """
    env = {k: as_scalar(v) for k, v in params.items()}
    etype = e.get("type")
    if etype == "function":
        return _assemble_function_term(e, env, degree)
    if etype == "sum":
        return _assemble_sum(e, env, degree,
                             degree if outer_bound is None else outer_bound)
    raise SignatureError(f"unknown expression type {etype!r}")


def expression_symbols(e: dict) -> set[str]:
    """All parameter symbols an expression needs bound (index names excluded)."""
    out: set[str] = set()
    etype = e.get("type")
    if etype == "function":
        for expr in (e.get("params") or {}).values():
            out |= affine_symbols(str(expr))
        for expr in (e.get("prefactor") or {}).values():
            out |= affine_symbols(str(expr))
    elif etype == "sum":
        for factor in list(e.get("num", ())) + list(e.get("den", ())):
            out |= affine_symbols(str(factor["param"]))
        out |= expression_symbols({"type": "function", **e["inner"]})
    else:
        raise SignatureError(f"unknown expression type {etype!r}")
    return out - set(INDEX_SYMBOLS)
